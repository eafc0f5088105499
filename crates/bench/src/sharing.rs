//! Cross-conversation KV sharing: dedup ratio, hit tokens, and TTFT as
//! the number of agents sharing one tool preamble grows.
//!
//! An agentic fleet of K conversations all open with the same
//! 2,048-token preamble. A per-conversation cache stores the preamble's
//! KV once *per agent*; the content-addressed cache
//! (`DESIGN.md` §13) stores it once and attaches every agent to
//! the same refcounted chunk chain. This experiment measures, at
//! K ∈ {1, 8, 64} sharers:
//!
//! * **dedup ratio** — physical / logical resident tokens (lower is
//!   better; 1.0 means no sharing),
//! * **shared-hit tokens** — preamble tokens served from the shared
//!   chain instead of being recomputed or duplicated,
//! * **TTFT** — mean time-to-first-token, which sharing improves by
//!   turning every agent's preamble prefill into a cache hit.
//!
//! Every point runs **twice in-process** and the report records whether
//! the reruns were identical (`deterministic`), and a functional
//! section forks one real-math conversation into 8 branches to prove
//! the shared storage is *bit-identical* to unshared serving.
//!
//! The gate: the 8-sharer dedup ratio is ≤ 0.35, every point is
//! deterministic, and the functional fork outputs are bit-identical.
//! `--smoke` is the short run for CI; `--check BASELINE` holds the
//! committed `results/BENCH_sharing.json` to the same gate.

use pensieve_core::{EngineConfig, FunctionalConfig, FunctionalEngine};
use pensieve_kvcache::SessionId;
use pensieve_model::ModelConfig;
use pensieve_workload::dataset::DatasetSpec;
use pensieve_workload::driver::run_closed_loop;
use serde::{Deserialize, Serialize};

use crate::cli::{emit, Args, Report};
use crate::harness::{engine_for, print_table, raw_seed_driver, PointSpec};

/// Tokens of the shared tool preamble (a whole number of 32-token
/// chunks, so the full preamble is shareable).
const PREAMBLE_TOKENS: usize = 2048;

/// Measurements at one sharer count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SharingRow {
    /// Conversations sharing the preamble.
    sharers: usize,
    /// Logical resident tokens (per-sharer accounting).
    logical_resident_tokens: usize,
    /// Physical resident tokens (shared chunks counted once).
    physical_resident_tokens: usize,
    /// physical / logical; 1.0 = no sharing.
    dedup_ratio: f64,
    /// Preamble tokens served from the shared chain.
    shared_hit_tokens: u64,
    /// Overall history hit rate.
    hit_rate: f64,
    /// Mean time-to-first-token, milliseconds.
    mean_ttft_ms: f64,
    /// P90 normalized latency, ms/token.
    p90_normalized_ms: f64,
    /// True when the in-process rerun reproduced this row exactly.
    deterministic: bool,
}

/// Functional (real-math) fork section of the report.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct FunctionalRow {
    /// Conversations sharing the forked history (parent + children).
    sharers: usize,
    /// Every branch decoded bit-identically to unshared recomputation.
    bit_identical: bool,
    /// Raw-token store physical tokens (shared chunks once).
    store_physical_tokens: usize,
    /// Raw-token store logical tokens (per-conversation sum).
    store_logical_tokens: usize,
    /// physical / logical for the raw-token store.
    store_dedup_ratio: f64,
}

/// The whole report, written to `results/BENCH_sharing.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SharingReport {
    /// Shared preamble length in tokens.
    preamble_tokens: usize,
    /// Timing-model rows at each sharer count.
    rows: Vec<SharingRow>,
    /// Real-math fork bit-identity section.
    functional: FunctionalRow,
}

/// Serves K agents sharing the preamble once and extracts the row
/// (without the determinism flag — the caller compares reruns).
fn run_sharers(sharers: usize, turns_per_agent: usize) -> SharingRow {
    let dataset = DatasetSpec::agentic(PREAMBLE_TOKENS);
    let mut convs = dataset.generate(sharers, 101 + sharers as u64);
    for c in &mut convs {
        c.turns.truncate(turns_per_agent);
    }
    let spec = PointSpec {
        think_time: 5.0,
        system_prompt_tokens: dataset.preamble_tokens,
        ..PointSpec::paper(
            EngineConfig::pensieve_shared_prefix(PREAMBLE_TOKENS),
            ModelConfig::opt_13b(),
            dataset,
            (sharers as f64).max(1.0),
            77,
        )
    };
    let mut engine = engine_for(&spec);
    let result = run_closed_loop(&mut engine, &convs, &raw_seed_driver(&spec));
    let summary = result.summary();
    let stats = engine.cache_stats();
    let logical = engine.logical_resident_tokens();
    let physical = engine.physical_resident_tokens();
    SharingRow {
        sharers,
        logical_resident_tokens: logical,
        physical_resident_tokens: physical,
        dedup_ratio: physical as f64 / logical.max(1) as f64,
        shared_hit_tokens: stats.shared_hit_tokens,
        hit_rate: stats.hit_rate(),
        mean_ttft_ms: summary.mean_ttft * 1e3,
        p90_normalized_ms: summary.p90_normalized * 1e3,
        deterministic: true,
    }
}

/// Forks one real-math conversation into `forks` branches and serves a
/// turn on each; every branch must decode bit-identically to stateless
/// recomputation of its full (shared) history.
fn functional_fork(forks: usize) -> FunctionalRow {
    let cfg = ModelConfig::tiny_llama();
    let mut e = FunctionalEngine::new(&cfg, 23, FunctionalConfig::default());
    let parent = SessionId(1);
    let prompt = |seed: u32, len: usize| -> Vec<u32> {
        (0..len as u32)
            .map(|i| (seed * 131 + i * 17) % cfg.vocab_size as u32)
            .collect()
    };
    for turn in 0..2 {
        e.serve_turn(parent, &prompt(turn, 6), 3);
    }
    let base = e.history(parent);
    let mut bit_identical = true;
    for k in 0..forks.saturating_sub(1) {
        let child = SessionId(100 + k as u64);
        e.fork_conversation(parent, child)
            .expect("fresh child fork");
        let p = prompt(50 + k as u32, 6);
        let got = e.serve_turn(child, &p, 4);
        let mut full = base.clone();
        full.extend_from_slice(&p);
        bit_identical &= got == e.reference_decode(&full, 4);
    }
    let (physical, logical) = e.store_dedup();
    FunctionalRow {
        sharers: forks,
        bit_identical,
        store_physical_tokens: physical,
        store_logical_tokens: logical,
        store_dedup_ratio: physical as f64 / logical.max(1) as f64,
    }
}

impl Report for SharingReport {
    const NAME: &'static str = "BENCH_sharing";

    fn violations(&self, label: &str) -> Vec<String> {
        let mut bad = Vec::new();
        match self.rows.iter().find(|r| r.sharers == 8) {
            Some(r) if r.dedup_ratio <= 0.35 => {}
            Some(r) => bad.push(format!(
                "{label}: dedup ratio at 8 sharers is {:.3}, gate is 0.35",
                r.dedup_ratio
            )),
            None => bad.push(format!("{label}: no 8-sharer row to gate on")),
        }
        if let Some(r) = self.rows.iter().find(|r| !r.deterministic) {
            bad.push(format!("{label}: rerun at {} sharers diverged", r.sharers));
        }
        if !self.functional.bit_identical {
            bad.push(format!(
                "{label}: functional fork outputs are not bit-identical"
            ));
        }
        bad
    }
}

pub(crate) fn bench_sharing(args: &Args) -> Result<(), String> {
    let smoke = args.has("--smoke");
    let turns = if smoke { 2 } else { 3 };
    let sharer_counts: &[usize] = if smoke { &[1, 8] } else { &[1, 8, 64] };
    println!(
        "Cross-conversation KV sharing: OPT-13B, agentic fleet, {PREAMBLE_TOKENS}-token shared preamble\n"
    );

    let mut rows = Vec::new();
    for &k in sharer_counts {
        let first = run_sharers(k, turns);
        let rerun = run_sharers(k, turns);
        let deterministic = first == rerun;
        rows.push(SharingRow {
            deterministic,
            ..first
        });
    }
    let functional = functional_fork(8);

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.sharers.to_string(),
                format!("{:.3}", r.dedup_ratio),
                r.shared_hit_tokens.to_string(),
                format!("{:.0}%", r.hit_rate * 100.0),
                format!("{:.1}", r.mean_ttft_ms),
                if r.deterministic { "yes" } else { "NO" }.to_owned(),
            ]
        })
        .collect();
    print_table(
        &[
            "sharers",
            "dedup (phys/logical)",
            "shared-hit tokens",
            "hit rate",
            "mean ttft (ms)",
            "deterministic",
        ],
        &table,
    );
    println!(
        "\nfunctional fork x{}: bit-identical={}, store dedup={:.3}",
        functional.sharers, functional.bit_identical, functional.store_dedup_ratio
    );

    let report = SharingReport {
        preamble_tokens: PREAMBLE_TOKENS,
        rows,
        functional,
    };
    emit(&report, args.get("--out"), args.get("--check"))
}
