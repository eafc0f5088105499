//! `bench_cluster` — multi-replica routing-policy comparison and
//! failover benchmark.
//!
//! Runs the same closed-loop workload against a 4-replica cluster under
//! each routing policy and reports cluster-wide cache effectiveness,
//! latency and migration activity. The cache-aware policy re-runs a
//! second time and the FNV-1a hash of the two event traces is compared,
//! pinning the cluster's bit-determinism in the committed results.
//!
//! A second scenario crashes a replica mid-conversation and compares the
//! orphaned turn's TTFT under recompute-from-scratch against streaming
//! KV replication at several lag settings (async thresholds and the
//! sync turn-commit barrier), each run twice to pin determinism.
//!
//! Writes `results/BENCH_cluster.json` and `results/BENCH_failover.json`;
//! both are committed, and a rerun must reproduce them byte for byte.

use pensieve_cluster::{ReplicationConfig, ReplicationMode, Router, RouterConfig, RouterPolicy};
use pensieve_core::{EngineConfig, Request, RequestId, ServingBackend, SimServingEngine};
use pensieve_kvcache::{fnv1a, SessionId};
use pensieve_model::{ModelConfig, SimDuration, SimTime};
use pensieve_obs::{to_jsonl, SharedRecorder};
use pensieve_workload::dataset::DatasetSpec;
use pensieve_workload::driver::run_closed_loop;
use pensieve_workload::metrics::LatencySummary;
use serde::{Deserialize, Serialize};

use crate::cli::{emit, Args, Report};
use crate::harness::{
    cluster_for, driver_for, engine_builder_for, horizon, print_table, workload_for, PointSpec,
    DEFAULT_HORIZON,
};

const REPLICAS: usize = 4;

#[derive(Debug, Serialize, Deserialize)]
struct ClusterRow {
    policy: String,
    replicas: usize,
    summary: LatencySummary,
    /// Context tokens (prompt + history) processed across every
    /// completed turn; by token conservation this is identical for every
    /// policy on the same workload.
    context_tokens: u64,
    /// Context tokens served from cache (GPU + CPU tiers) instead of
    /// being prefilled, summed over every completed turn.
    hit_tokens: u64,
    /// Cluster-wide KV hit-token rate: hit_tokens / context_tokens.
    hit_token_rate: f64,
    migrations: u64,
    migrated_tokens: u64,
    migration_lost_tokens: u64,
    trace_events: usize,
    /// FNV-1a hash of the run's JSONL event trace.
    trace_hash: String,
}

#[derive(Debug, Serialize, Deserialize)]
struct ClusterResults {
    replicas: usize,
    rows: Vec<ClusterRow>,
    /// Trace hash of the cache-aware re-run; determinism holds iff it
    /// equals the first cache-aware hash.
    cache_aware_rerun_hash: String,
    deterministic: bool,
}

/// Drains `recorder`: the event count and the FNV-1a hash of the JSONL
/// trace, the pin both committed reports carry.
fn trace_pin(recorder: &SharedRecorder) -> (usize, String) {
    let events = recorder.take_events();
    let hash = fnv1a(to_jsonl(&events).bytes());
    (events.len(), format!("{hash:016x}"))
}

fn spec() -> PointSpec {
    PointSpec::paper(
        EngineConfig::pensieve(),
        ModelConfig::llama2_13b(),
        DatasetSpec::sharegpt(),
        12.0,
        42,
    )
}

fn run_policy(policy: RouterPolicy) -> ClusterRow {
    let spec = spec();
    let recorder = SharedRecorder::new();
    let mut cluster = cluster_for(&spec, REPLICAS, policy, Some(recorder.clone()));
    let convs = workload_for(&spec, horizon(DEFAULT_HORIZON));
    let result = run_closed_loop(&mut cluster, &convs, &driver_for(&spec));
    let hits: u64 = result
        .responses
        .iter()
        .map(|r| r.cached_history_tokens as u64)
        .sum();
    let context: u64 = hits
        + result
            .responses
            .iter()
            .map(|r| r.prefill_tokens as u64)
            .sum::<u64>();
    let (trace_events, trace_hash) = trace_pin(&recorder);
    ClusterRow {
        policy: policy.name().to_owned(),
        replicas: REPLICAS,
        summary: result.summary(),
        context_tokens: context,
        hit_tokens: hits,
        hit_token_rate: if context == 0 {
            1.0
        } else {
            hits as f64 / context as f64
        },
        migrations: cluster.migrations(),
        migrated_tokens: cluster.migrated_tokens(),
        migration_lost_tokens: cluster.migration_lost_tokens(),
        trace_events,
        trace_hash,
    }
}

impl Report for ClusterResults {
    const NAME: &'static str = "BENCH_cluster";

    fn violations(&self, label: &str) -> Vec<String> {
        let rate = |policy: &str| {
            let row = self.rows.iter().find(|r| r.policy == policy);
            row.map(|r| r.hit_token_rate)
        };
        let mut bad = Vec::new();
        match (rate("cache_aware"), rate("round_robin")) {
            (Some(cache_aware), Some(round_robin)) if cache_aware > round_robin => {}
            (cache_aware, round_robin) => bad.push(format!(
                "{label}: cache-aware ({cache_aware:.3?}) must beat round-robin ({round_robin:.3?}) on hit-token rate"
            )),
        }
        if !self.deterministic {
            bad.push(format!("{label}: cluster trace must be bit-deterministic"));
        }
        bad
    }
}

pub(crate) fn bench_cluster(_: &Args) -> Result<(), String> {
    let policies = [
        RouterPolicy::RoundRobin,
        RouterPolicy::LeastLoaded,
        RouterPolicy::CacheAware,
    ];
    let rows: Vec<ClusterRow> = policies.into_iter().map(run_policy).collect();
    let rerun = run_policy(RouterPolicy::CacheAware);
    let deterministic = rows
        .iter()
        .any(|r| r.policy == "cache_aware" && r.trace_hash == rerun.trace_hash);

    println!(
        "{REPLICAS}-replica cluster, {} on {}:",
        spec().model.name,
        spec().dataset.name
    );
    print_table(
        &[
            "policy",
            "hit rate",
            "hit tokens",
            "migrations",
            "p90 (ms/tok)",
            "req/s",
            "trace hash",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.policy.clone(),
                    format!("{:.1}%", r.hit_token_rate * 100.0),
                    r.hit_tokens.to_string(),
                    r.migrations.to_string(),
                    format!("{:.1}", r.summary.p90_normalized * 1e3),
                    format!("{:.2}", r.summary.throughput_rps),
                    r.trace_hash.clone(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\ncache-aware rerun hash {} -> deterministic: {deterministic}",
        rerun.trace_hash
    );
    let results = ClusterResults {
        replicas: REPLICAS,
        cache_aware_rerun_hash: rerun.trace_hash,
        deterministic,
        rows,
    };
    println!();
    emit(&results, None, None)?;
    run_failover_suite()
}

#[derive(Debug, Serialize, Deserialize)]
struct FailoverRow {
    mode: String,
    flush_threshold_tokens: usize,
    promotions: u64,
    replicated_tokens: u64,
    recomputed_suffix_tokens: u64,
    standby_bytes: u64,
    /// TTFT of the orphaned turn (first token minus *original* arrival):
    /// spans the crash, the promotion and whatever recompute remains.
    failover_ttft_seconds: f64,
    /// End-to-end latency of the orphaned turn.
    failover_latency_seconds: f64,
    /// Context tokens the orphan found cached at the survivor.
    cached_history_tokens: usize,
    /// Context tokens the orphan had to (re)prefill.
    prefill_tokens: usize,
    trace_events: usize,
    /// FNV-1a hash of the run's JSONL event trace.
    trace_hash: String,
}

fn failover_req(
    id: u64,
    conv: u64,
    at: SimTime,
    prompt: usize,
    out: usize,
    hist: usize,
) -> Request {
    Request::builder()
        .id(RequestId(id))
        .session(SessionId(conv))
        .arrival(at)
        .prompt_tokens(prompt)
        .output_tokens(out)
        .history_tokens(hist)
        .build()
        .expect("bench turns are non-empty")
}

fn drain_all(r: &mut Router<SimServingEngine>) -> Vec<pensieve_core::Response> {
    let mut out = Vec::new();
    for _ in 0..1000 {
        r.run_until(r.now() + SimDuration::from_secs(1000.0));
        out.extend(r.drain_responses());
        if r.is_idle() {
            break;
        }
    }
    out
}

/// One failover run: a long-context conversation completes a turn on
/// replica 0 (giving replication something to stream), then replica 0
/// dies 200 ms into the follow-up turn. Reports the follow-up's TTFT and
/// how much context failover recomputed vs found replicated.
fn run_failover(mode: ReplicationMode, threshold: usize) -> FailoverRow {
    const PROMPT: usize = 3072;
    const OUT1: usize = 128;
    let spec = spec();
    let recorder = SharedRecorder::new();
    let fleet: Vec<SimServingEngine> = (0..2)
        .map(|_| engine_builder_for(&spec).recorder(recorder.clone()).build())
        .collect();
    let cfg = RouterConfig {
        replication: ReplicationConfig {
            mode,
            flush_threshold_tokens: threshold,
            ..ReplicationConfig::default()
        },
        ..RouterConfig::default()
    };
    let mut r = Router::new(fleet, RouterPolicy::CacheAware, cfg).recorder(recorder.clone());

    r.submit(failover_req(0, 1, SimTime::ZERO, PROMPT, OUT1, 0));
    let first = drain_all(&mut r);
    assert_eq!(first.len(), 1, "warm-up turn must complete");

    let t = r.now().as_secs() + 1.0;
    r.fail_replica_at(0, SimTime::from_secs(t + 0.2));
    r.submit(failover_req(
        1,
        1,
        SimTime::from_secs(t),
        64,
        256,
        PROMPT + OUT1,
    ));
    let done = drain_all(&mut r);
    assert_eq!(done.len(), 1, "orphaned turn must complete on the survivor");
    let resp = &done[0];
    assert_eq!(
        resp.arrival,
        SimTime::from_secs(t),
        "latency must span the failover (original arrival preserved)"
    );

    let (trace_events, trace_hash) = trace_pin(&recorder);
    let mode_name = match mode {
        ReplicationMode::Disabled => "disabled",
        ReplicationMode::Async => "async",
        ReplicationMode::Sync => "sync",
    };
    FailoverRow {
        mode: mode_name.to_owned(),
        flush_threshold_tokens: threshold,
        promotions: r.promotions(),
        replicated_tokens: r.replicated_tokens(),
        recomputed_suffix_tokens: r.recomputed_suffix_tokens(),
        standby_bytes: r.standby_bytes(),
        failover_ttft_seconds: resp.first_token.as_secs() - resp.arrival.as_secs(),
        failover_latency_seconds: resp.finish.as_secs() - resp.arrival.as_secs(),
        cached_history_tokens: resp.cached_history_tokens,
        prefill_tokens: resp.prefill_tokens,
        trace_events,
        trace_hash,
    }
}

#[derive(Debug, Serialize, Deserialize)]
struct FailoverResults {
    replicas: usize,
    scenario: String,
    rows: Vec<FailoverRow>,
    /// Trace hashes of the re-run of every row, in row order;
    /// determinism holds iff they match the first hashes pairwise.
    rerun_hashes: Vec<String>,
    deterministic: bool,
}

impl Report for FailoverResults {
    const NAME: &'static str = "BENCH_failover";

    fn violations(&self, label: &str) -> Vec<String> {
        let scratch = self.rows.iter().find(|row| row.mode == "disabled");
        let Some(scratch) = scratch.map(|row| row.failover_ttft_seconds) else {
            return vec![format!("{label}: no recompute-from-scratch row")];
        };
        let mut bad: Vec<String> = self
            .rows
            .iter()
            .filter(|row| row.mode != "disabled" && row.failover_ttft_seconds >= scratch)
            .map(|row| {
                format!(
                    "{label}: {} (lag {}) TTFT {:.3}s must beat recompute-from-scratch {scratch:.3}s",
                    row.mode, row.flush_threshold_tokens, row.failover_ttft_seconds
                )
            })
            .collect();
        if !self.deterministic {
            bad.push(format!(
                "{label}: failover traces must be bit-deterministic"
            ));
        }
        bad
    }
}

fn run_failover_suite() -> Result<(), String> {
    let settings = [
        (ReplicationMode::Disabled, 0usize),
        (ReplicationMode::Async, 256),
        (ReplicationMode::Async, 32),
        (ReplicationMode::Sync, 64),
    ];
    let rows: Vec<FailoverRow> = settings.iter().map(|&(m, t)| run_failover(m, t)).collect();
    let rerun_hashes: Vec<String> = settings
        .iter()
        .map(|&(m, t)| run_failover(m, t).trace_hash)
        .collect();
    let deterministic = rows
        .iter()
        .zip(&rerun_hashes)
        .all(|(row, rerun)| &row.trace_hash == rerun);

    println!("\nfailover: replica crash 200ms into a follow-up turn (2 replicas):");
    print_table(
        &[
            "mode",
            "lag (tok)",
            "TTFT (s)",
            "latency (s)",
            "cached",
            "recomputed suffix",
            "trace hash",
        ],
        &rows
            .iter()
            .map(|row| {
                vec![
                    row.mode.clone(),
                    row.flush_threshold_tokens.to_string(),
                    format!("{:.3}", row.failover_ttft_seconds),
                    format!("{:.3}", row.failover_latency_seconds),
                    row.cached_history_tokens.to_string(),
                    row.recomputed_suffix_tokens.to_string(),
                    row.trace_hash.clone(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let results = FailoverResults {
        replicas: 2,
        scenario: "3072+128-token warm turn, replica crash 200ms into the 256-token follow-up"
            .to_owned(),
        rows,
        rerun_hashes,
        deterministic,
    };
    println!();
    emit(&results, None, None)
}
