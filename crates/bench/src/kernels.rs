//! The two real-arithmetic commands, `fig12` and `bench_kernels`, over
//! one paged-context [`Setup`].
//!
//! These run the actual CPU kernels from `pensieve-kernels` (f32), scaled
//! to 8 heads x 64 dims so a sweep finishes in seconds, on one thread.
//! The pool-partitioned kernels are pinned bit-identical to these by
//! `crates/kernels/tests/pool_bit_identity.rs`, and thread scaling is
//! measured in one place only, `benchmark/`'s `kernels.speedup_2t`.
//! Timings are machine-dependent, so nothing here gates on wall-clock:
//! only on *ratios* (speedups) and bit-identity flags.

use std::time::Instant;

use pensieve_kernels::attention::contiguous::fused_contiguous;
use pensieve_kernels::attention::copyout::copyout_attention;
use pensieve_kernels::attention::multi::{paged_multi_token, paged_multi_token_ref};
use pensieve_kernels::attention::multiround::multi_round_single_token;
use pensieve_kernels::attention::single::paged_single_token_batch;
use pensieve_kernels::ops::{matmul, matmul_ref};
use pensieve_kernels::paged::gather_contiguous;
use pensieve_kernels::{AttnConfig, AttnSeq, BlockTable, KvLayout, Matrix, PagedKvCache};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::cli::{emit, Args, Report};
use crate::harness::{print_records, print_table, write_json};

const HEADS: usize = 8;
const HEAD_DIM: usize = 64;
const BLOCK: usize = 16;

/// One warmup pass, then best of 3 (stable on a noisy CPU).
fn time_ms(mut f: impl FnMut()) -> f64 {
    f();
    (0..3)
        .map(|_| {
            #[expect(
                clippy::disallowed_methods,
                reason = "host-time microbenchmark: its timings never feed a simulated result"
            )]
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

fn random_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| rng.random_range(-1.0..1.0))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// A unified batch: a paged KV pool holding `context` random tokens per
/// sequence, and one random query span per sequence.
struct Setup {
    cfg: AttnConfig,
    pool: PagedKvCache,
    tables: Vec<BlockTable>,
    q: Matrix,
    q_lens: Vec<usize>,
    context: usize,
}

impl Setup {
    /// Builds `q_lens.len()` sequences, each with `context` KV tokens.
    fn new(context: usize, q_lens: &[usize], rng: &mut StdRng) -> Self {
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
        let q = random_matrix(q_lens.iter().sum(), cfg.q_width(), rng);
        Setup {
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

    /// Wall time of the paper's multi-token paged kernel on this batch.
    fn pensieve_ms(&self) -> f64 {
        let (layer, seqs) = (self.pool.layer(0), self.seqs());
        time_ms(|| {
            std::hint::black_box(paged_multi_token(&self.cfg, &self.q, &layer, &seqs));
        })
    }

    /// Wall time of the multi-round single-token straw-man (§3.2), pinned
    /// to the scalar reference kernel so it never silently speeds up.
    fn multiround_ms(&self) -> f64 {
        let (layer, seqs) = (self.pool.layer(0), self.seqs());
        time_ms(|| {
            std::hint::black_box(multi_round_single_token(&self.cfg, &self.q, &layer, &seqs));
        })
    }
}

/// Figure 12: multi-token attention kernel microbenchmark (real compute).
///
/// Batch of 32 requests, 8 query tokens each, over paged KV contexts of
/// varying size, comparing (as in the paper):
///
/// * **Ideal** — fused attention over contiguous KV (performance ceiling);
/// * **CopyOut+Attention** — gather paged KV to contiguous, then fuse;
/// * **Multi-round PagedAttention** — one single-token paged call per
///   prompt token;
/// * **Pensieve** — the multi-token paged kernel.
///
/// The *relative* behaviour (copy cost linear in context, multi-round
/// cost linear in query length) is platform-independent.
pub(crate) fn fig12(_: &Args) -> Result<(), String> {
    const BATCH: usize = 32;
    const QUERY: usize = 8;
    #[derive(Serialize)]
    struct Row {
        context: usize,
        ideal_ms: f64,
        copyout_ms: f64,
        multiround_ms: f64,
        pensieve_ms: f64,
    }
    #[derive(Serialize)]
    struct QRow {
        query_len: usize,
        pensieve_ms: f64,
        multiround_ms: f64,
    }
    println!(
        "Figure 12: multi-token attention over non-contiguous KV\n(batch {BATCH}, query {QUERY}, {HEADS} heads x {HEAD_DIM} dims, real CPU kernels)\n"
    );
    let mut rng = StdRng::seed_from_u64(99);
    let mut json = Vec::new();
    for context in [128usize, 256, 512, 1024, 2048] {
        let s = Setup::new(context, &[QUERY; BATCH], &mut rng);
        let (layer, seqs) = (s.pool.layer(0), s.seqs());

        // Ideal: contiguous KV pre-gathered outside the timed region.
        let gathered: Vec<(Matrix, Matrix)> = s
            .tables
            .iter()
            .map(|t| gather_contiguous(&layer, t, context))
            .collect();
        let qs: Vec<Matrix> = (0..BATCH)
            .map(|i| {
                let mut m = Matrix::zeros(QUERY, s.cfg.q_width());
                for j in 0..QUERY {
                    m.row_mut(j).copy_from_slice(s.q.row(i * QUERY + j));
                }
                m
            })
            .collect();
        let ideal_ms = time_ms(|| {
            for (q, (k, v)) in qs.iter().zip(&gathered) {
                std::hint::black_box(fused_contiguous(&s.cfg, q, k, v));
            }
        });
        let copyout_ms = time_ms(|| {
            std::hint::black_box(copyout_attention(&s.cfg, &s.q, &layer, &seqs));
        });
        json.push(Row {
            context,
            ideal_ms,
            copyout_ms,
            multiround_ms: s.multiround_ms(),
            pensieve_ms: s.pensieve_ms(),
        });
        eprintln!("  context {context}: done");
    }
    print_records(
        &json,
        &[
            ("context", "context", 0),
            ("ideal (ms)", "ideal_ms", 2),
            ("copyout (ms)", "copyout_ms", 2),
            ("multi-round (ms)", "multiround_ms", 2),
            ("Pensieve (ms)", "pensieve_ms", 2),
        ],
    );
    let last = json.last().expect("rows");
    println!(
        "\nAt context {}: Pensieve = {:.2}x ideal; copy-out overhead {:.2}x; multi-round {:.2}x.",
        last.context,
        last.pensieve_ms / last.ideal_ms,
        last.copyout_ms / last.ideal_ms,
        last.multiround_ms / last.ideal_ms,
    );
    write_json("fig12", &json);

    // §3.2's claim, isolated: multi-round single-token attention "gives up
    // the parallelization opportunity brought by the extra query token
    // dimension", so its *per-token* cost stays flat while the multi-token
    // kernel amortizes each loaded KV block across all query rows.
    println!("\nQuery-length sweep at context 1024 (batch {BATCH}):\n");
    let sweep: Vec<QRow> = [1usize, 2, 4, 8, 16]
        .into_iter()
        .map(|query_len| {
            let s = Setup::new(1024, &[query_len; BATCH], &mut rng);
            QRow {
                query_len,
                pensieve_ms: s.pensieve_ms(),
                multiround_ms: s.multiround_ms(),
            }
        })
        .collect();
    print_table(
        &["query len", "Pensieve (ms)", "multi-round (ms)", "ratio"],
        &sweep
            .iter()
            .map(|r| {
                vec![
                    r.query_len.to_string(),
                    format!("{:.2}", r.pensieve_ms),
                    format!("{:.2}", r.multiround_ms),
                    format!("{:.2}x", r.multiround_ms / r.pensieve_ms),
                ]
            })
            .collect::<Vec<_>>(),
    );
    write_json("fig12_query_sweep", &sweep);
    Ok(())
}

/// Top-level report written to `results/BENCH_kernels.json`.
#[derive(Serialize, Deserialize)]
struct KernelReport {
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

impl KernelReport {
    /// `(section/name, speedup, bit_identical)` of every row.
    fn ratios(&self) -> Vec<(String, f64, bool)> {
        let attention = self.attention.iter().map(|r| {
            (
                format!("attention/{}", r.name),
                r.speedup_vs_multiround,
                r.bit_identical,
            )
        });
        let gemm = self.gemm.iter().map(|r| {
            (
                format!("gemm/{}", r.name),
                r.speedup_vs_ref,
                r.bit_identical,
            )
        });
        attention.chain(gemm).collect()
    }
}

impl Report for KernelReport {
    const NAME: &'static str = "BENCH_kernels";

    fn violations(&self, label: &str) -> Vec<String> {
        self.ratios()
            .into_iter()
            .filter(|(_, _, bit_identical)| !bit_identical)
            .map(|(row, _, _)| format!("{label}: {row}: not bit-identical"))
            .collect()
    }

    /// No kernel may lose more than 2x of the speedup `baseline` recorded.
    fn regressions(&self, baseline: &Self) -> Vec<String> {
        let base = baseline.ratios();
        let mut bad = Vec::new();
        for (row, speedup, _) in self.ratios() {
            match base.iter().find(|(name, _, _)| *name == row) {
                None => bad.push(format!("{row}: missing from baseline")),
                Some((_, recorded, _)) if speedup < recorded / 2.0 => bad.push(format!(
                    "{row}: speedup {speedup:.2}x regressed >2x vs baseline {recorded:.2}x"
                )),
                Some(_) => {}
            }
        }
        bad
    }
}

/// Measures one attention workload; aborts on any bit mismatch.
fn run_attention(name: &str, context: usize, q_lens: &[usize], rng: &mut StdRng) -> AttnRow {
    eprintln!("bench_kernels: {name} ...");
    let s = Setup::new(context, q_lens, rng);
    let (layer, seqs) = (s.pool.layer(0), s.seqs());
    let decode_only = q_lens.iter().all(|&l| l == 1);

    let reference = paged_multi_token_ref(&s.cfg, &s.q, &layer, &seqs);
    let blocked_out = if decode_only {
        paged_single_token_batch(&s.cfg, &s.q, &layer, &seqs)
    } else {
        paged_multi_token(&s.cfg, &s.q, &layer, &seqs)
    };
    let bit_identical = blocked_out == reference;
    assert!(
        bit_identical,
        "{name}: fast path diverged from scalar reference"
    );

    let multiround_ms = s.multiround_ms();
    let blocked_ms = if decode_only {
        time_ms(|| {
            std::hint::black_box(paged_single_token_batch(&s.cfg, &s.q, &layer, &seqs));
        })
    } else {
        s.pensieve_ms()
    };
    let query_tokens: usize = q_lens.iter().sum();
    AttnRow {
        name: name.to_owned(),
        batch: q_lens.len(),
        context,
        query_tokens,
        multiround_ms,
        blocked_ms,
        tokens_per_s: query_tokens as f64 / (blocked_ms / 1e3),
        speedup_vs_multiround: multiround_ms / blocked_ms,
        bit_identical,
    }
}

/// Measures one GEMM shape; aborts on any bit mismatch.
fn run_gemm(name: &str, m: usize, k: usize, n: usize, rng: &mut StdRng) -> GemmRow {
    let a = random_matrix(m, k, rng);
    let b = random_matrix(k, n, rng);
    let bit_identical = matmul(&a, &b) == matmul_ref(&a, &b);
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

/// Persistent kernel-benchmark baseline: emits `results/BENCH_kernels.json`.
///
/// Measures the cache-blocked attention and GEMM kernels on three unified
/// batch shapes — multi-token **prefill** (the Figure-12 configuration),
/// single-token **generation**, and a **ragged** batch mixing query lengths
/// 1/8/32 as produced by Pensieve's unified batching (§4.3) — and reports,
/// per workload, the straw-man's and the blocked kernel's wall time, the
/// speedup between them, and an in-run **bit-identity check** of the fast
/// path against the scalar reference (the run aborts if any output
/// differs).
///
/// * `--smoke` shrinks every workload so the run finishes in seconds
///   (used by CI; the committed smoke baseline lives in
///   `results/BENCH_kernels_smoke.json`).
/// * `--check BASELINE` also fails if any kernel lost more than 2x of the
///   speedup recorded in `BASELINE`.
pub(crate) fn bench_kernels(args: &Args) -> Result<(), String> {
    let smoke = args.has("--smoke");
    let mut rng = StdRng::seed_from_u64(42);
    let (prefill_batch, gen_ctx, ragged_ctx, batch) = if smoke {
        (20, 128, 96, 4)
    } else {
        (32, 1024, 512, 32)
    };
    let ragged_lens: Vec<usize> = [1usize, 8, 32]
        .iter()
        .copied()
        .cycle()
        .take(batch)
        .collect();
    let attention = vec![
        run_attention("prefill_fig12", 1024, &vec![8; prefill_batch], &mut rng),
        run_attention("generation", gen_ctx, &vec![1; batch], &mut rng),
        run_attention("ragged", ragged_ctx, &ragged_lens, &mut rng),
    ];
    eprintln!("bench_kernels: GEMM ...");
    let gemm = if smoke {
        vec![run_gemm("proj_small", 32, 128, 128, &mut rng)]
    } else {
        vec![
            run_gemm("proj_prefill", 256, 512, 512, &mut rng),
            run_gemm("proj_decode", 32, 512, 512, &mut rng),
        ]
    };
    let report = KernelReport {
        schema_version: 3,
        smoke,
        attention,
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
    emit(&report, args.get("--out"), args.get("--check"))
}
