//! Cluster-level integration tests: the router under the real workload
//! driver, and the migration-correctness property.

use std::collections::BTreeMap;

use pensieve_cluster::{Router, RouterConfig, RouterPolicy};
use pensieve_core::{
    EngineBuilder, EngineConfig, Request, RequestId, Response, ServingBackend, SimServingEngine,
};
use pensieve_kvcache::SessionId;
use pensieve_model::{HardwareSpec, ModelConfig, SimDuration, SimTime};
use pensieve_obs::SharedRecorder;
use pensieve_sim::NodeLinkSpec;
use pensieve_workload::driver::run_closed_loop;
use pensieve_workload::{DatasetSpec, DriverConfig};
use proptest::prelude::*;

fn engine_builder() -> EngineBuilder {
    SimServingEngine::builder(
        EngineConfig::pensieve(),
        ModelConfig::opt_13b(),
        HardwareSpec::azure_nc_a100(1),
    )
}

fn engine() -> SimServingEngine {
    engine_builder().build()
}

fn cluster(n: usize, policy: RouterPolicy, cfg: RouterConfig) -> Router<SimServingEngine> {
    Router::new((0..n).map(|_| engine()).collect(), policy, cfg)
}

fn drain_all<B: ServingBackend>(b: &mut B) -> Vec<Response> {
    let mut out = Vec::new();
    for _ in 0..1000 {
        b.run_until(b.now() + SimDuration::from_secs(1000.0));
        out.extend(b.drain_responses());
        if b.is_idle() {
            break;
        }
    }
    out
}

/// A two-phase script: every conversation completes a first turn
/// back-to-back (piling affinity onto one replica), then every follow-up
/// turn arrives at once — the burst that saturates the affine replica
/// and, on a cluster, forces migrations. Returns per-conversation
/// `(output_tokens, prefill + cached)` for the follow-up turn.
fn run_script<B: ServingBackend>(
    backend: &mut B,
    turns: &[(usize, usize, usize)], // (prompt1, out1, out2) per conversation
) -> BTreeMap<u64, (usize, usize)> {
    let mut next_id = 0u64;
    let mut submit = |b: &mut B, conv: u64, at: SimTime, prompt: usize, out: usize, hist: usize| {
        let req = Request::builder()
            .id(RequestId(next_id))
            .session(SessionId(conv))
            .arrival(at)
            .prompt_tokens(prompt)
            .output_tokens(out)
            .history_tokens(hist)
            .build()
            .expect("script turns are non-empty");
        next_id += 1;
        b.submit(req);
    };
    for (i, &(prompt, out, _)) in turns.iter().enumerate() {
        submit(backend, i as u64, backend.now(), prompt, out, 0);
        let done = drain_all(backend);
        assert_eq!(done.len(), 1, "phase-1 turn must complete");
    }
    let burst = backend.now() + SimDuration::from_secs(1.0);
    for (i, &(prompt, out, out2)) in turns.iter().enumerate() {
        submit(backend, i as u64, burst, 64, out2, prompt + out);
    }
    let done = drain_all(backend);
    assert_eq!(done.len(), turns.len(), "every follow-up must complete");
    done.into_iter()
        .map(|r| {
            (
                r.conv.0,
                (r.output_tokens, r.prefill_tokens + r.cached_history_tokens),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Migration plus the recompute fallback for lost chunks changes
    /// *when* tokens are produced, never *what* is produced: the
    /// follow-up turns generate bit-identical output and process exactly
    /// the same context as a single replica that never migrates, for any
    /// link loss rate — every context token is either streamed, cached
    /// or recomputed, never lost or double-counted.
    #[test]
    fn migration_preserves_generation(
        n_convs in 2usize..6,
        prompt in 1usize..600,
        out1 in 1usize..200,
        out2 in 1usize..300,
        loss_tenths in 0u32..11,
        link_seed in 0u64..50,
        saturation in 2usize..4,
    ) {
        let turns: Vec<(usize, usize, usize)> =
            (0..n_convs).map(|i| (prompt + 32 * i, out1 + i, out2)).collect();
        let mut single = engine();
        let reference = run_script(&mut single, &turns);

        let cfg = RouterConfig {
            saturation_depth: saturation,
            link: NodeLinkSpec::lossy_25g(f64::from(loss_tenths) / 10.0, link_seed),
            ..RouterConfig::default()
        };
        let mut clustered = cluster(2, RouterPolicy::CacheAware, cfg);
        let migrated = run_script(&mut clustered, &turns);

        prop_assert_eq!(&migrated, &reference);

        // And the cluster run itself is bit-deterministic.
        let cfg2 = RouterConfig {
            saturation_depth: saturation,
            link: NodeLinkSpec::lossy_25g(f64::from(loss_tenths) / 10.0, link_seed),
            ..RouterConfig::default()
        };
        let mut again = cluster(2, RouterPolicy::CacheAware, cfg2);
        let replay = run_script(&mut again, &turns);
        prop_assert_eq!(&replay, &migrated);
    }
}

/// The headline claim of cache-aware routing, at test scale: under the
/// real closed-loop driver, session affinity serves strictly more
/// history tokens from cache than round-robin scattering does.
#[test]
fn cache_aware_beats_round_robin_under_driver() {
    let convs = DatasetSpec::sharegpt().generate(32, 5);
    let drv = DriverConfig {
        request_rate: 4.0,
        mean_think_time: 5.0,
        seed: 17,
        system_prompt_tokens: 0,
    };
    let hit_tokens = |policy: RouterPolicy| {
        let mut r = cluster(4, policy, RouterConfig::default());
        let result = run_closed_loop(&mut r, &convs, &drv);
        assert!(!result.responses.is_empty());
        let stats = r.cache_stats();
        stats.gpu_hit_tokens + stats.cpu_hit_tokens
    };
    let affine = hit_tokens(RouterPolicy::CacheAware);
    let scattered = hit_tokens(RouterPolicy::RoundRobin);
    assert!(
        affine > scattered,
        "cache-aware ({affine}) must beat round-robin ({scattered}) on hit tokens"
    );
}

/// A replica failure mid-run under the driver: the workload still
/// completes every turn, on the survivors.
#[test]
fn driver_survives_replica_failure() {
    let convs = DatasetSpec::sharegpt().generate(16, 6);
    let total_turns: usize = convs.iter().map(|c| c.turns.len()).sum();
    let mut r = cluster(4, RouterPolicy::CacheAware, RouterConfig::default());
    r.fail_replica_at(2, SimTime::from_secs(30.0));
    let result = run_closed_loop(
        &mut r,
        &convs,
        &DriverConfig {
            request_rate: 4.0,
            mean_think_time: 5.0,
            seed: 23,
            system_prompt_tokens: 0,
        },
    );
    assert_eq!(r.alive_replicas().len(), 3);
    assert_eq!(
        result.responses.len(),
        total_turns,
        "every turn completes despite the failure"
    );
}

/// One recorder shared by the whole fleet, as `serve_sim --replicas`
/// wires it. The fleet dump sums what each replica owns — a dead one's
/// work included — and adds the router's own counters; a registry the
/// replicas all wrote into kept only the largest.
#[test]
fn fleet_metrics_sum_the_replicas() {
    let rec = SharedRecorder::new();
    let fleet = (0..2)
        .map(|_| engine_builder().recorder(rec.clone()).build())
        .collect();
    let mut r = Router::new(fleet, RouterPolicy::RoundRobin, RouterConfig::default()).recorder(rec);
    r.fail_replica_at(1, SimTime::from_secs(20.0));
    let convs = DatasetSpec::sharegpt().generate(8, 6);
    let result = run_closed_loop(
        &mut r,
        &convs,
        &DriverConfig {
            request_rate: 4.0,
            mean_think_time: 5.0,
            seed: 29,
            system_prompt_tokens: 0,
        },
    );
    assert_eq!(r.alive_replicas(), vec![0]);
    let iterations: Vec<u64> = (0..2).map(|i| r.replica(i).counters().iterations).collect();
    assert!(iterations.iter().all(|&n| n > 0), "both replicas worked");

    let m = r.fleet_metrics();
    assert_eq!(
        m.counter("pensieve_iterations_total"),
        iterations.iter().sum::<u64>()
    );
    assert_eq!(
        m.counter("pensieve_requests_completed_total"),
        result.responses.len() as u64
    );
    let ttft = m.histogram("pensieve_ttft_seconds").expect("traced fleet");
    assert_eq!(ttft.count(), result.responses.len() as u64);
    assert_eq!(m.counter("pensieve_replica_failures_total"), 1);
    assert_eq!(
        m.counter("pensieve_routed_requests_total"),
        r.metrics().counter("pensieve_routed_requests_total")
    );
}
