//! The barrier's one change feed, seen from outside the crate, where the
//! in-crate reference walk (which lists every replica's sessions at every
//! barrier) is compiled out.
//!
//! Every replica is wrapped in a decorator that forwards the whole
//! `ServingBackend` trait and counts `manifest_sessions` calls. A fleet
//! serving a closed loop with manifest persistence and replication on
//! learns what changed from the commit logs it drains, so it never lists
//! a replica's sessions unless a replica fail-stops (then once per
//! survivor); and the decorator changes nothing it serves, persists or
//! replicates.

use std::cell::Cell;

use pensieve_cluster::{ReplicationConfig, ReplicationMode, Router, RouterConfig, RouterPolicy};
use pensieve_core::{EngineConfig, Request, Response, ServingBackend, SimServingEngine};
use pensieve_kvcache::{CacheStats, SessionExport, SessionId, SessionManifest};
use pensieve_model::{HardwareSpec, ModelConfig, SimTime};
use pensieve_obs::{to_jsonl, SharedRecorder};
use pensieve_workload::driver::{run_closed_loop, DriverConfig};
use pensieve_workload::DatasetSpec;

/// Forwards every call to the engine and counts `manifest_sessions`.
struct Counting {
    inner: SimServingEngine,
    listings: Cell<u64>,
}

impl ServingBackend for Counting {
    fn submit(&mut self, req: Request) {
        self.inner.submit(req);
    }
    fn poll(&mut self, deadline: Option<SimTime>) -> bool {
        self.inner.poll(deadline)
    }
    fn responses_ready(&self) -> bool {
        self.inner.responses_ready()
    }
    fn drain_responses(&mut self) -> Vec<Response> {
        self.inner.drain_responses()
    }
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn run_until(&mut self, t: SimTime) {
        self.inner.run_until(t);
    }
    fn is_idle(&self) -> bool {
        self.inner.is_idle()
    }
    fn running_requests(&self) -> usize {
        self.inner.running_requests()
    }
    fn waiting_requests(&self) -> usize {
        self.inner.waiting_requests()
    }
    fn queue_depth(&self) -> usize {
        self.inner.queue_depth()
    }
    fn gpu_slots_used(&self) -> usize {
        self.inner.gpu_slots_used()
    }
    fn gpu_capacity_tokens(&self) -> usize {
        self.inner.gpu_capacity_tokens()
    }
    fn cpu_tokens_used(&self) -> usize {
        self.inner.cpu_tokens_used()
    }
    fn kv_bytes_per_token(&self) -> usize {
        self.inner.kv_bytes_per_token()
    }
    fn cached_tokens(&self, session: SessionId) -> usize {
        self.inner.cached_tokens(session)
    }
    fn cache_stats(&self) -> CacheStats {
        ServingBackend::cache_stats(&self.inner)
    }
    fn export_session(&mut self, session: SessionId) -> Option<SessionExport> {
        self.inner.export_session(session)
    }
    fn import_session(&mut self, export: SessionExport) -> usize {
        self.inner.import_session(export)
    }
    fn fail_stop(&mut self) -> Vec<Request> {
        self.inner.fail_stop()
    }
    fn take_committed_kv(&mut self) -> Vec<(SessionId, usize)> {
        self.inner.take_committed_kv()
    }
    fn manifest_sessions(&self) -> Vec<SessionId> {
        self.listings.set(self.listings.get() + 1);
        self.inner.manifest_sessions()
    }
    fn session_manifest(&self, session: SessionId) -> Option<SessionManifest> {
        self.inner.session_manifest(session)
    }
    fn rehydrate_session(&mut self, manifest: &SessionManifest) -> usize {
        self.inner.rehydrate_session(manifest)
    }
}

/// Deep tiers, so rehydrated chunks have a cold tier to land in.
fn engine() -> SimServingEngine {
    SimServingEngine::builder(
        EngineConfig::pensieve_deep_tiers(1 << 20, 1 << 20),
        ModelConfig::opt_13b(),
        HardwareSpec::azure_nc_a100(1),
    )
    .build()
}

/// What a run served, persisted and replicated, for cross-run comparison.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// `(id, conv, output tokens, prefill, cached history, finish bits)`.
    timeline: Vec<(u64, u64, usize, usize, usize, u64)>,
    /// The router's event stream, `ManifestPersisted` bytes included.
    trace: String,
    /// Manifest writes, replicated tokens, promotions, rehydrations.
    counts: [u64; 4],
}

/// Serves a seeded closed loop on four replicas (the shape of the
/// benchmark's `cluster4_repl`), optionally fail-stopping replica 1
/// mid-run; returns the outcome and the router.
fn serve<B: ServingBackend + Send>(fleet: Vec<B>, fail_stop: bool) -> (Outcome, Router<B>) {
    let cfg = RouterConfig {
        saturation_depth: 2,
        replication: ReplicationConfig {
            mode: ReplicationMode::Async,
            flush_threshold_tokens: 64,
            ..ReplicationConfig::default()
        },
        manifest_persistence: true,
        ..RouterConfig::default()
    };
    let rec = SharedRecorder::new();
    let mut r = Router::new(fleet, RouterPolicy::CacheAware, cfg).recorder(rec.clone());
    if fail_stop {
        r.fail_replica_at(1, SimTime::from_secs(40.0));
    }
    let convs = DatasetSpec::sharegpt().generate(48, 7);
    let driver = DriverConfig {
        request_rate: 12.0,
        mean_think_time: 20.0,
        seed: 11,
        system_prompt_tokens: 0,
    };
    let mut responses = run_closed_loop(&mut r, &convs, &driver).responses;
    responses.sort_by_key(|resp| resp.id);
    let outcome = Outcome {
        timeline: responses
            .iter()
            .map(|resp| {
                (
                    resp.id.0,
                    resp.conv.0,
                    resp.output_tokens,
                    resp.prefill_tokens,
                    resp.cached_history_tokens,
                    resp.finish.as_secs().to_bits(),
                )
            })
            .collect(),
        trace: to_jsonl(&rec.events()),
        counts: [
            r.manifests_persisted(),
            r.replicated_tokens(),
            r.promotions(),
            r.rehydrations(),
        ],
    };
    (outcome, r)
}

/// `manifest_sessions` calls across the fleet.
fn listings(r: &Router<Counting>) -> u64 {
    (0..r.replica_count())
        .map(|i| r.replica(i).listings.get())
        .sum()
}

#[test]
fn the_barrier_lists_sessions_only_after_a_fail_stop() {
    let counting = || {
        (0..4)
            .map(|_| Counting {
                inner: engine(),
                listings: Cell::new(0),
            })
            .collect::<Vec<_>>()
    };
    for fail_stop in [false, true] {
        let (bare, _) = serve((0..4).map(|_| engine()).collect(), fail_stop);
        let (wrapped, router) = serve(counting(), fail_stop);
        assert!(bare.counts[0] > 0, "the run persists manifests");
        assert!(bare.counts[1] > 0, "the run replicates");
        assert_eq!(bare, wrapped, "fail_stop={fail_stop}");
        let expected = if fail_stop {
            assert!(bare.counts[2] > 0, "the fail-stop promotes");
            3 // one resync barrier, one listing per survivor
        } else {
            0
        };
        assert_eq!(listings(&router), expected, "fail_stop={fail_stop}");
    }
}
