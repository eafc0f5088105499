//! Deep-storage-tier benchmark: emits `results/BENCH_tiers.json`.
//!
//! Sweeps the session idle-time distribution (the closed-loop driver's
//! mean think time) on a memory-starved single replica and compares
//! two-tier Pensieve ([`EngineConfig::pensieve`]) against the deep
//! hierarchy ([`EngineConfig::pensieve_deep_tiers`]). The GPU and CPU
//! budgets are shrunk to a few thousand tokens (sized via the engine's
//! own `kv_bytes_per_token`), so idle sessions overflow the CPU tier
//! quickly: the two-tier system must drop and recompute them, while the
//! deep hierarchy demotes them to the simulated NVMe and cold tiers and
//! reads them back on return.
//!
//! Per sweep point the report records the **hit-token rate**
//! (`CacheStats::hit_rate`: history tokens served from any cache tier
//! over served-plus-recomputed), the per-tier hit-token split, demotion
//! and drop totals, and latency (mean TTFT, p90 normalized).
//!
//! **What CI gates on.** Only the hit-token rate: for idle-heavy
//! workloads the deep hierarchy must beat the two-tier baseline. TTFT is
//! *reported but never gated* — at opt-13b's ~0.8 MB/token of KV, a
//! cold-tier (NFS-speed) read can legitimately cost more wall-clock than
//! recomputing the tokens, and the hierarchy's claim is about avoided
//! recomputation, not about the cold tier being fast (`docs/STORAGE.md`,
//! "Failure modes and honesty notes").
//!
//! The run is pure simulation, so rows are deterministic; the command
//! re-runs the idle-heaviest deep point and aborts if the rows differ.
//!
//! * `--smoke` shortens the simulated arrival window so CI finishes in
//!   seconds (the committed full-length report is `results/BENCH_tiers.json`).
//! * `--check BASELINE` additionally requires the committed `BASELINE` to
//!   parse and to satisfy the same gate.

use pensieve_core::{EngineConfig, SimServingEngine};
use pensieve_model::{HardwareSpec, ModelConfig};
use pensieve_workload::dataset::DatasetSpec;
use pensieve_workload::driver::run_closed_loop;
use serde::{Deserialize, Serialize};

use crate::cli::{emit, Args, Report};
use crate::harness::{
    driver_for, engine_for, horizon, par_map, print_records, PointSpec, DEFAULT_HORIZON,
};

/// Mean think times swept, seconds: active chat -> mixed -> idle-heavy.
const THINK_TIMES: [f64; 3] = [5.0, 60.0, 180.0];
/// Offered request rate (requests/s) at every point.
const REQUEST_RATE: f64 = 1.0;
/// Workload + arrival seed.
const SEED: u64 = 17;
/// GPU KV budget in tokens (shrunken; paper-scale is millions).
const GPU_TOKENS: usize = 8192;
/// CPU cache budget in tokens.
const CPU_TOKENS: usize = 4096;
/// Tier-2 simulated-NVMe capacity in tokens (kept small so demotion
/// cascades into the cold tier and both deep tiers see reads).
const SSD_TOKENS: usize = 4096;
/// Tier-3 simulated cold-store capacity in tokens.
const COLD_TOKENS: usize = 1 << 20;
/// Minimum hit-token-rate margin of deep tiers over two-tier at the
/// idle-heaviest point — the headline gate.
const GATE_MARGIN: f64 = 0.05;

/// Top-level report written to `results/BENCH_tiers.json`.
#[derive(Serialize, Deserialize)]
struct TierReport {
    /// Bumped when the layout of this file changes.
    schema_version: u64,
    /// True when produced by `--smoke` (shortened arrival window).
    smoke: bool,
    /// Seconds of simulated conversation arrivals per point.
    duration_s: f64,
    /// GPU KV budget (tokens) the points ran under.
    gpu_tokens: usize,
    /// CPU cache budget (tokens).
    cpu_tokens: usize,
    /// Tier-2 NVMe capacity (tokens).
    ssd_tokens: usize,
    /// Tier-3 cold-store capacity (tokens).
    cold_tokens: usize,
    /// One row per (system, think time), two-tier first at each think time.
    rows: Vec<TierRow>,
}

/// One sweep-point measurement.
#[derive(Serialize, Deserialize, Clone, PartialEq)]
struct TierRow {
    /// Engine display name (`Pensieve` / `Pensieve (deep tiers)`).
    system: String,
    /// Mean think time (s) — the idle-time knob.
    think_time: f64,
    /// Completed requests in the steady-state window.
    requests: usize,
    /// History tokens served from any tier over served + recomputed —
    /// the headline number CI gates on.
    hit_token_rate: f64,
    /// History tokens served from the GPU tier.
    gpu_hit_tokens: u64,
    /// History tokens swapped back in from the CPU tier.
    cpu_hit_tokens: u64,
    /// History tokens read back from the simulated NVMe tier.
    ssd_hit_tokens: u64,
    /// History tokens read back from the simulated cold store.
    cold_hit_tokens: u64,
    /// History tokens recomputed because no tier held them.
    recomputed_tokens: u64,
    /// Tokens demoted down-tier instead of dropped.
    demoted_tokens: u64,
    /// Tokens dropped from the bottom of the hierarchy.
    dropped_tokens: u64,
    /// Mean time-to-first-token, ms (reported, never gated — see the
    /// module docs for why cold reads may legitimately cost TTFT).
    mean_ttft_ms: f64,
    /// p90 normalized latency, ms per output token.
    p90_normalized_ms: f64,
    /// Steady-state throughput, requests/s.
    throughput_rps: f64,
}

/// The shared shrunken replica: paper hardware with the KV budgets cut
/// to `GPU_TOKENS` / `CPU_TOKENS`, sized via a probe engine so the
/// token budgets hold regardless of the model's KV layout.
fn shrunken_hardware() -> HardwareSpec {
    let mut hw = HardwareSpec::azure_nc_a100(1);
    let probe =
        SimServingEngine::builder(EngineConfig::pensieve(), ModelConfig::opt_13b(), hw.clone())
            .build();
    let bpt = probe.kv_bytes_per_token();
    hw.gpu_kv_budget_bytes = bpt * GPU_TOKENS;
    hw.cpu_cache_bytes_per_gpu = bpt * CPU_TOKENS;
    hw
}

/// The sweep grid: per think time, the two-tier baseline then the deep
/// hierarchy, identical in everything else (same seed, same workload).
fn specs(hw: &HardwareSpec) -> Vec<PointSpec> {
    let mut out = Vec::new();
    for &think_time in &THINK_TIMES {
        for engine in [
            EngineConfig::pensieve(),
            EngineConfig::pensieve_deep_tiers(SSD_TOKENS, COLD_TOKENS),
        ] {
            out.push(PointSpec {
                hardware: hw.clone(),
                think_time,
                ..PointSpec::paper(
                    engine,
                    ModelConfig::opt_13b(),
                    DatasetSpec::sharegpt(),
                    REQUEST_RATE,
                    SEED,
                )
            });
        }
    }
    out
}

/// Runs one point and extracts the tier row (full [`pensieve_kvcache::CacheStats`],
/// not the narrower `CacheRow` the generic sweeps use).
fn run_tier_point(spec: &PointSpec, duration: f64) -> TierRow {
    let conv_rate = spec.request_rate / spec.dataset.mean_turns;
    let n = ((conv_rate * duration).ceil() as usize).max(24);
    let convs = spec.dataset.generate(n, spec.seed);
    let mut engine = engine_for(spec);
    let result = run_closed_loop(&mut engine, &convs, &driver_for(spec));
    let summary = result.summary();
    let stats = engine.cache_stats();
    TierRow {
        system: spec.engine.name.clone(),
        think_time: spec.think_time,
        requests: summary.requests,
        hit_token_rate: stats.hit_rate(),
        gpu_hit_tokens: stats.gpu_hit_tokens,
        cpu_hit_tokens: stats.cpu_hit_tokens,
        ssd_hit_tokens: stats.ssd_hit_tokens,
        cold_hit_tokens: stats.cold_hit_tokens,
        recomputed_tokens: stats.recomputed_tokens,
        demoted_tokens: stats.demoted_tokens,
        dropped_tokens: stats.dropped_tokens,
        mean_ttft_ms: summary.mean_ttft * 1e3,
        p90_normalized_ms: summary.p90_normalized * 1e3,
        throughput_rps: summary.throughput_rps,
    }
}

/// Finds the row for `(system prefix, think_time)`.
fn row(rows: &[TierRow], deep: bool, think: f64) -> Option<&TierRow> {
    rows.iter()
        .find(|r| r.think_time == think && r.system.contains("deep") == deep)
}

/// Machine-portable gates over one report (fresh or baseline). The run
/// is deterministic simulation, so these hold identically on every
/// machine; only the arrival-window length (smoke vs full) varies.
impl Report for TierReport {
    const NAME: &'static str = "BENCH_tiers";

    fn violations(&self, label: &str) -> Vec<String> {
        let mut bad = Vec::new();
        if self.schema_version != 1 {
            bad.push(format!(
                "{label}: schema_version {} != 1",
                self.schema_version
            ));
            return bad;
        }
        for &think in &THINK_TIMES {
            let (Some(two), Some(deep)) =
                (row(&self.rows, false, think), row(&self.rows, true, think))
            else {
                bad.push(format!("{label}: missing rows at think={think}"));
                continue;
            };
            if two.requests == 0 || deep.requests == 0 {
                bad.push(format!(
                    "{label}: empty steady-state window at think={think}"
                ));
            }
            // Deep tiers may never lose to the two-tier baseline: they only
            // add places for evicted chunks to go.
            if deep.hit_token_rate < two.hit_token_rate - 1e-9 {
                bad.push(format!(
                    "{label}: deep hit-token rate {:.3} below two-tier {:.3} at think={think}",
                    deep.hit_token_rate, two.hit_token_rate
                ));
            }
            if two.ssd_hit_tokens + two.cold_hit_tokens > 0 {
                bad.push(format!(
                    "{label}: two-tier baseline reported deep-tier hits at think={think}"
                ));
            }
        }
        let idle = THINK_TIMES[THINK_TIMES.len() - 1];
        if let (Some(two), Some(deep)) = (row(&self.rows, false, idle), row(&self.rows, true, idle))
        {
            if deep.hit_token_rate < two.hit_token_rate + GATE_MARGIN {
                bad.push(format!(
                    "{label}: idle-heavy gate failed — deep {:.3} vs two-tier {:.3} (need +{GATE_MARGIN})",
                    deep.hit_token_rate, two.hit_token_rate
                ));
            }
            if deep.ssd_hit_tokens + deep.cold_hit_tokens == 0 {
                bad.push(format!(
                    "{label}: idle-heavy deep point never read from the deep tiers"
                ));
            }
            if deep.demoted_tokens == 0 {
                bad.push(format!(
                    "{label}: idle-heavy deep point never demoted a chunk"
                ));
            }
        }
        bad
    }
}

pub(crate) fn bench_tiers(args: &Args) -> Result<(), String> {
    let smoke = args.has("--smoke");
    let duration = if smoke {
        120.0
    } else {
        horizon(DEFAULT_HORIZON)
    };

    let specs = specs(&shrunken_hardware());
    eprintln!(
        "bench_tiers: {} points, {duration}s arrivals each (gpu={GPU_TOKENS} cpu={CPU_TOKENS} \
         ssd={SSD_TOKENS} cold={COLD_TOKENS} tokens)",
        specs.len()
    );
    let rows: Vec<TierRow> = par_map(specs.len(), |idx| {
        let r = run_tier_point(&specs[idx], duration);
        eprintln!(
            "  [{idx}] {} think={}s: hit={:.3} ssd+cold={} demoted={}",
            r.system,
            r.think_time,
            r.hit_token_rate,
            r.ssd_hit_tokens + r.cold_hit_tokens,
            r.demoted_tokens
        );
        r
    });

    // Determinism: the idle-heaviest deep point must reproduce exactly.
    let idle = THINK_TIMES[THINK_TIMES.len() - 1];
    let idle_deep_idx = specs
        .iter()
        .position(|s| s.think_time == idle && s.engine.ssd_capacity_tokens > 0)
        .expect("grid contains the idle-heavy deep point");
    let rerun = run_tier_point(&specs[idle_deep_idx], duration);
    assert!(
        rerun == rows[idle_deep_idx],
        "bench_tiers: idle-heavy deep point is not deterministic across reruns"
    );

    let report = TierReport {
        schema_version: 1,
        smoke,
        duration_s: duration,
        gpu_tokens: GPU_TOKENS,
        cpu_tokens: CPU_TOKENS,
        ssd_tokens: SSD_TOKENS,
        cold_tokens: COLD_TOKENS,
        rows,
    };

    print_records(
        &report.rows,
        &[
            ("system", "system", 0),
            ("think", "think_time", 0),
            ("hit", "hit_token_rate", 3),
            ("gpu", "gpu_hit_tokens", 0),
            ("cpu", "cpu_hit_tokens", 0),
            ("ssd", "ssd_hit_tokens", 0),
            ("cold", "cold_hit_tokens", 0),
            ("recomp", "recomputed_tokens", 0),
            ("demoted", "demoted_tokens", 0),
            ("dropped", "dropped_tokens", 0),
            ("ttft_ms", "mean_ttft_ms", 1),
            ("p90_ms", "p90_normalized_ms", 2),
        ],
    );
    emit(&report, args.get("--out"), args.get("--check"))
}
