//! Persistent kernel-benchmark baseline: emits `BENCH_kernels.json`.
//!
//! Measures the cache-blocked attention and GEMM kernels on three unified
//! batch shapes — multi-token **prefill** (the Figure-12 configuration),
//! single-token **generation**, and a **ragged** batch mixing query lengths
//! 1/8/32 as produced by Pensieve's unified batching (§4.3) — and reports,
//! per workload:
//!
//! * wall time of the multi-round single-token straw-man (§3.2, pinned to
//!   the scalar reference kernel so this baseline never silently speeds up);
//! * wall time and tokens/s of the blocked kernel, plus its speedup over
//!   the straw-man;
//! * an in-run **bit-identity check** of the fast path against the scalar
//!   reference (the run aborts if any output differs).
//!
//! Everything here runs on one thread. The pool-partitioned kernels are
//! pinned bit-identical to these by `crates/kernels/tests/pool_bit_identity.rs`,
//! and thread scaling is measured in one place only, `benchmark/`'s
//! `kernels.speedup_2t`.
//!
//! The JSON snapshot is the trajectory later PRs must beat. Timings are
//! machine-dependent; the committed CI gate therefore compares only
//! *ratios* (speedups) and the bit-identity flags, never wall-clock.
//!
//! Usage: `bench_kernels [--smoke] [--out PATH] [--check BASELINE]`
//!
//! * `--smoke` shrinks every workload so the run finishes in seconds
//!   (used by CI; the committed smoke baseline lives in
//!   `results/BENCH_kernels_smoke.json`).
//! * `--out PATH` writes the report there (default `BENCH_kernels.json`).
//! * `--check BASELINE` re-reads the emitted report, validates it, and
//!   fails (exit 1) if any kernel lost more than 2x of the speedup
//!   recorded in `BASELINE` or any bit-identity flag is false.

use std::process::ExitCode;
use std::time::Instant;

use pensieve_kernels::attention::multi::{paged_multi_token, paged_multi_token_ref};
use pensieve_kernels::attention::multiround::multi_round_single_token;
use pensieve_kernels::attention::single::paged_single_token_batch;
use pensieve_kernels::ops::{matmul, matmul_ref};
use pensieve_kernels::{AttnConfig, AttnSeq, BlockTable, KvLayout, Matrix, PagedKvCache};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

const HEADS: usize = 8;
const HEAD_DIM: usize = 64;
const BLOCK: usize = 16;

/// Top-level report written to `BENCH_kernels.json`.
#[derive(Serialize, Deserialize)]
struct Report {
    /// Bumped when the layout of this file changes.
    schema_version: u64,
    /// True when produced by `--smoke` (shrunken workloads).
    smoke: bool,
    /// Attention workloads.
    attention: Vec<AttnRow>,
    /// GEMM workloads.
    gemm: Vec<GemmRow>,
}

/// One attention workload measurement.
#[derive(Serialize, Deserialize)]
struct AttnRow {
    /// Workload id (`prefill_fig12`, `generation`, `ragged`).
    name: String,
    /// Number of sequences in the unified batch.
    batch: usize,
    /// KV context length per sequence.
    context: usize,
    /// Total query tokens across the batch.
    query_tokens: usize,
    /// Multi-round single-token straw-man wall time.
    multiround_ms: f64,
    /// Blocked kernel wall time.
    blocked_ms: f64,
    /// Query tokens per second through the blocked kernel.
    tokens_per_s: f64,
    /// `multiround_ms / blocked_ms` — the headline ratio CI gates on.
    speedup_vs_multiround: f64,
    /// The blocked kernel matched the scalar reference bit-for-bit.
    bit_identical: bool,
}

/// One GEMM workload measurement.
#[derive(Serialize, Deserialize)]
struct GemmRow {
    /// Workload id.
    name: String,
    /// Rows of A.
    m: usize,
    /// Shared dimension.
    k: usize,
    /// Columns of B.
    n: usize,
    /// Scalar reference wall time.
    ref_ms: f64,
    /// Cache-blocked kernel wall time.
    blocked_ms: f64,
    /// `ref_ms / blocked_ms` — gated by CI like the attention speedups.
    speedup_vs_ref: f64,
    /// Blocked output matched the reference bit-for-bit.
    bit_identical: bool,
}

/// One warmup pass, then best of 3 (stable on a noisy CPU).
fn time_ms(mut f: impl FnMut()) -> f64 {
    f();
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// A unified batch: paged KV pool plus per-sequence query spans.
struct Workload {
    name: &'static str,
    cfg: AttnConfig,
    pool: PagedKvCache,
    tables: Vec<BlockTable>,
    q: Matrix,
    q_lens: Vec<usize>,
    context: usize,
}

impl Workload {
    /// Builds `q_lens.len()` sequences, each with `context` KV tokens.
    fn new(name: &'static str, context: usize, q_lens: &[usize], rng: &mut StdRng) -> Self {
        let cfg = AttnConfig::new(HEADS, HEADS, HEAD_DIM);
        let layout = KvLayout {
            num_kv_heads: HEADS,
            head_dim: HEAD_DIM,
            block_size: BLOCK,
        };
        let blocks = q_lens.len() * context.div_ceil(BLOCK) + 1;
        let mut pool = PagedKvCache::new(layout, 1, blocks);
        let tf = layout.token_floats();
        let mut tables = Vec::with_capacity(q_lens.len());
        for _ in q_lens {
            let mut t = BlockTable::new(BLOCK);
            for _ in 0..context {
                let (b, s) = t.append_token(&mut pool).expect("sized pool");
                let k: Vec<f32> = (0..tf).map(|_| rng.random_range(-1.0..1.0)).collect();
                let v: Vec<f32> = (0..tf).map(|_| rng.random_range(-1.0..1.0)).collect();
                pool.write_token(0, b, s, &k, &v);
            }
            tables.push(t);
        }
        let rows: usize = q_lens.iter().sum();
        let q = Matrix::from_vec(
            rows,
            cfg.q_width(),
            (0..rows * cfg.q_width())
                .map(|_| rng.random_range(-1.0..1.0))
                .collect(),
        );
        Workload {
            name,
            cfg,
            pool,
            tables,
            q,
            q_lens: q_lens.to_vec(),
            context,
        }
    }

    fn seqs(&self) -> Vec<AttnSeq<'_>> {
        let mut start = 0;
        self.q_lens
            .iter()
            .zip(&self.tables)
            .map(|(&q_len, table)| {
                let s = AttnSeq {
                    q_start: start,
                    q_len,
                    context_len: self.context,
                    table,
                };
                start += q_len;
                s
            })
            .collect()
    }

    /// Measures this workload; aborts the process on any bit mismatch.
    fn run(&self) -> AttnRow {
        let layer = self.pool.layer(0);
        let seqs = self.seqs();
        let decode_only = self.q_lens.iter().all(|&l| l == 1);

        let reference = paged_multi_token_ref(&self.cfg, &self.q, &layer, &seqs);
        let blocked_out = if decode_only {
            paged_single_token_batch(&self.cfg, &self.q, &layer, &seqs)
        } else {
            paged_multi_token(&self.cfg, &self.q, &layer, &seqs)
        };
        let bit_identical = blocked_out == reference;
        assert!(
            bit_identical,
            "{}: fast path diverged from scalar reference",
            self.name
        );

        let multiround_ms = time_ms(|| {
            std::hint::black_box(multi_round_single_token(&self.cfg, &self.q, &layer, &seqs));
        });
        let blocked_ms = if decode_only {
            time_ms(|| {
                std::hint::black_box(paged_single_token_batch(&self.cfg, &self.q, &layer, &seqs));
            })
        } else {
            time_ms(|| {
                std::hint::black_box(paged_multi_token(&self.cfg, &self.q, &layer, &seqs));
            })
        };
        let query_tokens: usize = self.q_lens.iter().sum();
        AttnRow {
            name: self.name.to_owned(),
            batch: self.q_lens.len(),
            context: self.context,
            query_tokens,
            multiround_ms,
            blocked_ms,
            tokens_per_s: query_tokens as f64 / (blocked_ms / 1e3),
            speedup_vs_multiround: multiround_ms / blocked_ms,
            bit_identical,
        }
    }
}

/// Measures one GEMM shape; aborts the process on any bit mismatch.
fn run_gemm(name: &'static str, m: usize, k: usize, n: usize, rng: &mut StdRng) -> GemmRow {
    let a = Matrix::from_vec(
        m,
        k,
        (0..m * k).map(|_| rng.random_range(-1.0..1.0)).collect(),
    );
    let b = Matrix::from_vec(
        k,
        n,
        (0..k * n).map(|_| rng.random_range(-1.0..1.0)).collect(),
    );
    let reference = matmul_ref(&a, &b);
    let bit_identical = matmul(&a, &b) == reference;
    assert!(
        bit_identical,
        "{name}: blocked GEMM diverged from reference"
    );
    let ref_ms = time_ms(|| {
        std::hint::black_box(matmul_ref(&a, &b));
    });
    let blocked_ms = time_ms(|| {
        std::hint::black_box(matmul(&a, &b));
    });
    GemmRow {
        name: name.to_owned(),
        m,
        k,
        n,
        ref_ms,
        blocked_ms,
        speedup_vs_ref: ref_ms / blocked_ms,
        bit_identical,
    }
}

/// Validates `report` against a committed `baseline` using only
/// machine-portable criteria. Returns the list of violations.
fn check_against(report: &Report, baseline: &Report) -> Vec<String> {
    let mut bad = Vec::new();
    for row in &report.attention {
        if !row.bit_identical {
            bad.push(format!("attention/{}: not bit-identical", row.name));
        }
        if let Some(base) = baseline.attention.iter().find(|b| b.name == row.name) {
            let floor = base.speedup_vs_multiround / 2.0;
            if row.speedup_vs_multiround < floor {
                bad.push(format!(
                    "attention/{}: speedup {:.2}x regressed >2x vs baseline {:.2}x",
                    row.name, row.speedup_vs_multiround, base.speedup_vs_multiround
                ));
            }
        } else {
            bad.push(format!("attention/{}: missing from baseline", row.name));
        }
    }
    for row in &report.gemm {
        if !row.bit_identical {
            bad.push(format!("gemm/{}: not bit-identical", row.name));
        }
        if let Some(base) = baseline.gemm.iter().find(|b| b.name == row.name) {
            let floor = base.speedup_vs_ref / 2.0;
            if row.speedup_vs_ref < floor {
                bad.push(format!(
                    "gemm/{}: speedup {:.2}x regressed >2x vs baseline {:.2}x",
                    row.name, row.speedup_vs_ref, base.speedup_vs_ref
                ));
            }
        } else {
            bad.push(format!("gemm/{}: missing from baseline", row.name));
        }
    }
    bad
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut out_path = String::from("BENCH_kernels.json");
    let mut check_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--check" => check_path = Some(args.next().expect("--check needs a path")),
            other => {
                eprintln!("unknown flag {other}; usage: bench_kernels [--smoke] [--out PATH] [--check BASELINE]");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut rng = StdRng::seed_from_u64(42);
    let (prefill_ctx, prefill_batch, gen_ctx, ragged_ctx, batch) = if smoke {
        (1024, 20, 128, 96, 4)
    } else {
        (1024, 32, 1024, 512, 32)
    };

    eprintln!("bench_kernels: prefill (fig12 config) ...");
    let prefill = Workload::new(
        "prefill_fig12",
        prefill_ctx,
        &vec![8; prefill_batch],
        &mut rng,
    )
    .run();
    eprintln!("bench_kernels: generation ...");
    let generation = Workload::new("generation", gen_ctx, &vec![1; batch], &mut rng).run();
    eprintln!("bench_kernels: ragged unified batch ...");
    let ragged_lens: Vec<usize> = [1usize, 8, 32]
        .iter()
        .copied()
        .cycle()
        .take(batch)
        .collect();
    let ragged = Workload::new("ragged", ragged_ctx, &ragged_lens, &mut rng).run();

    eprintln!("bench_kernels: GEMM ...");
    let gemm = if smoke {
        vec![run_gemm("proj_small", 32, 128, 128, &mut rng)]
    } else {
        vec![
            run_gemm("proj_prefill", 256, 512, 512, &mut rng),
            run_gemm("proj_decode", 32, 512, 512, &mut rng),
        ]
    };

    let report = Report {
        schema_version: 3,
        smoke,
        attention: vec![prefill, generation, ragged],
        gemm,
    };

    for row in &report.attention {
        println!(
            "{:>14}: {:>9.2} tok/s  {:.2}x vs multi-round  (blocked {:.2} ms, straw-man {:.2} ms)",
            row.name,
            row.tokens_per_s,
            row.speedup_vs_multiround,
            row.blocked_ms,
            row.multiround_ms
        );
    }
    for row in &report.gemm {
        println!(
            "{:>14}: {:.2}x vs scalar GEMM  (blocked {:.2} ms, ref {:.2} ms)",
            row.name, row.speedup_vs_ref, row.blocked_ms, row.ref_ms
        );
    }

    let data = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out_path, &data).expect("write report");
    println!("wrote {out_path}");

    if let Some(path) = check_path {
        // Round-trip the emitted report (malformed-JSON gate) and compare
        // ratios against the committed baseline.
        let reread: Report = match serde_json::from_str(&data) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("check failed: emitted report is malformed: {e:?}");
                return ExitCode::FAILURE;
            }
        };
        let baseline_text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("check failed: cannot read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let baseline: Report = match serde_json::from_str(&baseline_text) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("check failed: baseline {path} is malformed: {e:?}");
                return ExitCode::FAILURE;
            }
        };
        let violations = check_against(&reread, &baseline);
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("check failed: {v}");
            }
            return ExitCode::FAILURE;
        }
        println!("check passed against {path}");
    }
    ExitCode::SUCCESS
}
