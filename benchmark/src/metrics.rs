//! Every metric the benchmark prints: name, unit, direction and, for the
//! end-to-end ones, the regression bound. `BENCHMARK.json` mirrors these
//! tables (a unit test compares them), so this file is the single place
//! a metric is declared.

use pensieve_core::Response;
use pensieve_workload::metrics::LatencySummary;

use crate::measure::Metrics;
use crate::stats::{median, quantile, sorted, tail_percentile};

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Declaration of one metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; `0.0` for per-layer metrics).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics: what a user of the system sees. `sim_*` are
/// simulated time (deterministic per seed); `host_*` and `setup_s` are
/// host time of this process on this machine, the two timings in reference
/// seconds (see `calibrate`).
pub const END_TO_END: [Def; 8] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("host_req_per_s", "req/s", Higher, 0.25),
    e2e("host_peak_rss_mb", "MB", Lower, 0.25),
    e2e("sim_ttft_p50_ms", "ms", Lower, 0.08),
    e2e("sim_ttft_tail_ms", "ms", Lower, 0.25),
    e2e("sim_norm_lat_p90_ms", "ms/token", Lower, 0.15),
    e2e("sim_throughput_rps", "req/s", Higher, 0.25),
    e2e("sim_slo_share", "share", Higher, 0.02),
];

/// The per-layer metrics, grouped by the crate they measure. A metric of
/// a layer the workload does not exercise reads 0.
pub const PER_LAYER: [Def; 80] = [
    // workload
    layer("workload.generate_s", "s", Lower),
    layer("workload.driver_self_s", "s", Lower),
    layer("workload.requests", "count", Higher),
    layer("workload.total_tokens", "tokens", Higher),
    // core: the simulated-timing engine
    layer("engine.busy_s", "s", Lower),
    layer("engine.us_per_iter", "us", Lower),
    layer("engine.iter_per_host_s", "1/s", Higher),
    layer("engine.iterations", "count", Lower),
    layer("engine.poll_calls", "count", Lower),
    layer("engine.batch_tokens_mean", "tokens", Higher),
    layer("engine.prefill_tokens", "tokens", Lower),
    layer("engine.decode_tokens", "tokens", Lower),
    layer("engine.suspensions", "count", Lower),
    layer("engine.gpu_busy_share", "share", Higher),
    // kvcache: exact counts after the tracing-off pass
    layer("kvcache.hit_token_rate", "share", Higher),
    layer("kvcache.gpu_hit_tokens", "tokens", Higher),
    layer("kvcache.cpu_hit_tokens", "tokens", Higher),
    layer("kvcache.ssd_hit_tokens", "tokens", Higher),
    layer("kvcache.cold_hit_tokens", "tokens", Higher),
    layer("kvcache.shared_hit_tokens", "tokens", Higher),
    layer("kvcache.recomputed_tokens", "tokens", Lower),
    layer("kvcache.dropped_tokens", "tokens", Lower),
    layer("kvcache.demoted_tokens", "tokens", Lower),
    layer("kvcache.swapped_out_tokens", "tokens", Lower),
    layer("kvcache.swapped_in_tokens", "tokens", Lower),
    layer("kvcache.dedup_ratio", "ratio", Lower),
    // kvcache: the cache manager driven alone with the workload's tape
    layer("kvcache.replay.plan_restore_ns", "ns", Lower),
    layer("kvcache.replay.commit_restore_ns", "ns", Lower),
    layer("kvcache.replay.append_ns", "ns", Lower),
    layer("kvcache.replay.swap_out_ns", "ns", Lower),
    layer("kvcache.replay.ops_per_s", "1/s", Higher),
    layer("kvcache.replay.scale_10x", "ratio", Lower),
    layer("kvcache.prefix_match_ns", "ns", Lower),
    layer("kvcache.manifest_codec_mb_per_s", "MB/s", Higher),
    // sim: device models, from obs::TraceReport over the obs pass
    layer("sim.pcie_h2d_busy_s", "s", Lower),
    layer("sim.pcie_d2h_busy_s", "s", Lower),
    layer("sim.duplex_overlap_share", "share", Higher),
    layer("sim.deep_read_tokens", "tokens", Lower),
    // cluster: router
    layer("router.self_s", "s", Lower),
    layer("router.us_per_dispatch", "us", Lower),
    layer("router.step_self_s", "s", Lower),
    layer("router.replica_calls_per_dispatch", "ratio", Lower),
    layer("router.affine_dispatch_share", "share", Higher),
    layer("router.migrations", "count", Lower),
    layer("router.migrated_tokens", "tokens", Lower),
    layer("router.promotions", "count", Higher),
    layer("router.rehydrations", "count", Higher),
    layer("router.step_speedup_2t", "ratio", Higher),
    // cluster: replication pump and manifest persistence
    layer("replication.commit_log_calls", "count", Lower),
    layer("replication.manifest_calls", "count", Lower),
    layer("replication.manifest_calls_per_request", "ratio", Lower),
    layer("replication.manifest_s", "s", Lower),
    layer("replication.manifests_persisted", "count", Lower),
    layer("replication.replicated_tokens", "tokens", Lower),
    layer("replication.recomputed_suffix_tokens", "tokens", Lower),
    layer("replication.lag_tokens_end", "tokens", Lower),
    // obs
    layer("obs.events", "events", Lower),
    layer("obs.events_per_request", "ratio", Lower),
    layer("obs.overhead_ratio", "ratio", Lower),
    layer("obs.record_ns_per_event", "ns", Lower),
    layer("obs.jsonl_mb_per_s", "MB/s", Higher),
    layer("obs.chrome_mb_per_s", "MB/s", Higher),
    // kernels and the functional engine
    layer("kernels.attn_prefill_ns_per_qtoken", "ns", Lower),
    layer("kernels.attn_decode_ns_per_row", "ns", Lower),
    layer("kernels.decode_multi_over_single", "ratio", Lower),
    layer("kernels.gemm_gflops", "GFLOP/s", Higher),
    layer("kernels.attn_flops_per_call", "flops", Lower),
    layer("kernels.attn_bytes_per_call", "bytes", Lower),
    layer("kernels.speedup_2t", "ratio", Higher),
    layer("functional.turn_ms_p50", "ms", Lower),
    layer("functional.turn_ms_p90", "ms", Lower),
    layer("functional.swap_out_blocks", "blocks", Lower),
    layer("functional.swap_in_blocks", "blocks", Higher),
    layer("functional.dropped_blocks", "blocks", Lower),
    layer("functional.recomputed_tokens", "tokens", Lower),
    // process
    layer("host.allocs_per_req", "count", Lower),
    layer("host.alloc_mb_per_req", "MB", Lower),
    layer("host.available_cores", "cores", Higher),
    layer("host.threads", "threads", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
];

/// Normalized-latency cut of the SLO, ms per output token (paper §6.2).
pub const SLO_NORM_MS: f64 = 120.0;
/// Time-to-first-token cut of the SLO, seconds.
pub const SLO_TTFT_S: f64 = 1.0;

/// The simulated-clock end-to-end metrics over the responses of one or
/// more independent shards superposed on one time axis. `attempted`
/// counts every turn sent: a turn with no response misses the SLO.
/// `tail_q` is the workload's fixed tail percentile. Returns the metrics
/// and whether the sample supports that percentile (at least ten samples
/// beyond it).
#[must_use]
pub fn sim_end_to_end(shards: &[&[Response]], attempted: usize, tail_q: f64) -> (Metrics, bool) {
    let pooled: Vec<Response> = shards.iter().flat_map(|s| s.iter().cloned()).collect();
    let ttft = sorted(
        &pooled
            .iter()
            .map(|r| r.ttft().as_millis())
            .collect::<Vec<_>>(),
    );
    let summary = LatencySummary::steady_state(&pooled);
    let within = pooled
        .iter()
        .filter(|r| {
            r.normalized_latency().as_millis() <= SLO_NORM_MS && r.ttft().as_secs() <= SLO_TTFT_S
        })
        .count();
    let mut m = Metrics::new();
    m.insert("sim_ttft_p50_ms", quantile(&ttft, 0.50));
    m.insert("sim_ttft_tail_ms", quantile(&ttft, tail_q));
    m.insert("sim_norm_lat_p90_ms", summary.p90_normalized * 1e3);
    // Superposed shards complete in parallel; report one engine's share.
    m.insert(
        "sim_throughput_rps",
        summary.throughput_rps / shards.len() as f64,
    );
    m.insert("sim_slo_share", within as f64 / attempted.max(1) as f64);
    (m, tail_percentile(ttft.len()) >= tail_q)
}

/// Host throughput over a run's tracing-off passes: the median of each
/// pass's completed turns per wall second.
#[must_use]
pub fn host_req_per_s(passes: &[(usize, f64)]) -> f64 {
    median(
        &passes
            .iter()
            .map(|&(turns, wall_s)| turns as f64 / wall_s)
            .collect::<Vec<_>>(),
    )
}

/// Peak resident set of this process so far, MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(d.bound <= 0.25);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
