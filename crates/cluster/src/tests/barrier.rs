//! Change-driven barrier tests: the production `persist_manifests`
//! against the parent's walk-everything algorithm
//! (`Router::reference_walk`), a decorator that predates
//! `take_manifest_dirty`, and write-count regressions.
//!
//! Every barrier of these runs also checks the replication pump: it
//! drains the commit log of each replica it skipped and asserts it
//! empty. Every `poll` iteration checks the maintained laggard order and
//! ready count against a fresh sort and walk (`Router::check_fleet_view`).
//!
//! Two differentials run here. In every test build, production
//! `persist_manifests` replays the reference walk over the pre-barrier
//! store after *every* barrier and asserts byte equality (see the end of
//! that function), so every script below is checked barrier by barrier
//! at every tear rate. On top of that, [`run`] can serve a whole script
//! with the reference walk alone (`reference_walk_only`), and the tests
//! compare the two routers' response timelines and stores. That second
//! comparison is exact at tear rates 0 and 1 only: the old walk rolls the
//! seeded fault stream once per redundant write, so at 0.3 the two
//! streams desynchronise at the first stale copy and the runs are
//! different random experiments by construction.
//!
//! The fault seed honors `PENSIEVE_FAULT_SEED` (CI sweeps several).

use super::*;
use pensieve_core::{EngineConfig, SimServingEngine};
use pensieve_model::{HardwareSpec, ModelConfig};
use pensieve_workload::driver::{run_closed_loop, DriverConfig};
use pensieve_workload::DatasetSpec;

fn fault_seed() -> u64 {
    std::env::var("PENSIEVE_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
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

/// Persistence on, async replication, eager migration; `torn` is the
/// probability that a manifest write tears.
fn cfg(torn: f64) -> RouterConfig {
    RouterConfig {
        saturation_depth: 2,
        replication: ReplicationConfig {
            mode: ReplicationMode::Async,
            flush_threshold_tokens: 64,
            ..ReplicationConfig::default()
        },
        manifest_persistence: true,
        manifest_faults: (torn > 0.0).then(|| FaultConfig {
            torn_manifest_write: torn,
            ..FaultConfig::disabled(fault_seed())
        }),
        ..RouterConfig::default()
    }
}

/// A forwarding decorator that implements exactly the `ServingBackend`
/// methods that existed before `take_manifest_dirty` — the shape of
/// `benchmark/src/traced.rs` — and so inherits the default
/// ("everything may have changed").
struct Legacy<B>(B);

impl<B: ServingBackend> ServingBackend for Legacy<B> {
    fn submit(&mut self, req: Request) {
        self.0.submit(req);
    }
    fn poll(&mut self, deadline: Option<SimTime>) -> bool {
        self.0.poll(deadline)
    }
    fn responses_ready(&self) -> bool {
        self.0.responses_ready()
    }
    fn drain_responses(&mut self) -> Vec<Response> {
        self.0.drain_responses()
    }
    fn now(&self) -> SimTime {
        self.0.now()
    }
    fn run_until(&mut self, t: SimTime) {
        self.0.run_until(t);
    }
    fn is_idle(&self) -> bool {
        self.0.is_idle()
    }
    fn running_requests(&self) -> usize {
        self.0.running_requests()
    }
    fn waiting_requests(&self) -> usize {
        self.0.waiting_requests()
    }
    fn queue_depth(&self) -> usize {
        self.0.queue_depth()
    }
    fn gpu_slots_used(&self) -> usize {
        self.0.gpu_slots_used()
    }
    fn gpu_capacity_tokens(&self) -> usize {
        self.0.gpu_capacity_tokens()
    }
    fn cpu_tokens_used(&self) -> usize {
        self.0.cpu_tokens_used()
    }
    fn kv_bytes_per_token(&self) -> usize {
        self.0.kv_bytes_per_token()
    }
    fn cached_tokens(&self, session: SessionId) -> usize {
        self.0.cached_tokens(session)
    }
    fn cache_stats(&self) -> CacheStats {
        self.0.cache_stats()
    }
    fn export_session(&mut self, session: SessionId) -> Option<SessionExport> {
        self.0.export_session(session)
    }
    fn import_session(&mut self, export: SessionExport) -> usize {
        self.0.import_session(export)
    }
    fn fail_stop(&mut self) -> Vec<Request> {
        self.0.fail_stop()
    }
    fn take_committed_kv(&mut self) -> Vec<(SessionId, usize)> {
        self.0.take_committed_kv()
    }
    fn manifest_sessions(&self) -> Vec<SessionId> {
        self.0.manifest_sessions()
    }
    fn session_manifest(&self, session: SessionId) -> Option<SessionManifest> {
        self.0.session_manifest(session)
    }
    fn rehydrate_session(&mut self, manifest: &SessionManifest) -> usize {
        self.0.rehydrate_session(manifest)
    }
}

fn req(id: u64, conv: u64, at: SimTime, prompt: usize, out: usize, hist: usize) -> Request {
    Request::builder()
        .id(RequestId(id))
        .session(SessionId(conv))
        .arrival(at)
        .prompt_tokens(prompt)
        .output_tokens(out)
        .history_tokens(hist)
        .build()
        .expect("test turns are non-empty")
}

fn drain_all<B: ServingBackend + Send>(r: &mut Router<B>) -> Vec<Response> {
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

/// Alive replicas tracking `conv` with a non-empty manifest, and their
/// distinct layouts.
fn copies<B: ServingBackend + Send>(r: &Router<B>, conv: u64) -> (usize, usize) {
    let manifests: Vec<SessionManifest> = r
        .alive_backends()
        .filter_map(|(_, b)| b.session_manifest(SessionId(conv)))
        .filter(|m| m.total_tokens() > 0)
        .collect();
    let mut distinct = manifests.clone();
    distinct.dedup();
    (manifests.len(), distinct.len())
}

/// What a script observed, for cross-run comparison.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// `(id, conv, output tokens, context tokens, finish bits)`, by id.
    timeline: Vec<(u64, u64, usize, usize, u64)>,
    /// The cold store at each checkpoint of the script, then at its end.
    stores: Vec<ColdObjectStore>,
}

impl Outcome {
    fn new(mut responses: Vec<Response>, stores: Vec<ColdObjectStore>) -> Self {
        responses.sort_by_key(|r| r.id);
        Outcome {
            timeline: responses
                .iter()
                .map(|r| {
                    (
                        r.id.0,
                        r.conv.0,
                        r.output_tokens,
                        r.prefill_tokens + r.cached_history_tokens,
                        r.finish.as_secs().to_bits(),
                    )
                })
                .collect(),
            stores,
        }
    }

    /// Generation identity only — what survives a different tear stream.
    fn generation(&self) -> Vec<(u64, u64, usize, usize)> {
        self.timeline
            .iter()
            .map(|&(id, conv, out, ctx, _)| (id, conv, out, ctx))
            .collect()
    }
}

/// The hand-written cluster script, on three replicas:
///
/// 1. sessions 1–4 complete a first turn on replica 0 (ties go low);
/// 2. two long follow-ups saturate replica 0; session 1 (large cache)
///    **migrates** off it, session 4 (small cache) is **diverted** to an
///    idle replica and recomputes there, leaving a stale copy behind;
/// 3. replica 2 **fail-stops while idle**;
/// 4. a long turn starts and its replica **fail-stops mid-turn**; the
///    orphan and a follow-up for every session finish on the survivor.
fn scripted<B: ServingBackend + Send>(r: &mut Router<B>) -> Outcome {
    let mut responses = Vec::new();
    let mut stores = Vec::new();
    let firsts: [(u64, usize, usize); 4] = [(1, 512, 64), (2, 512, 64), (3, 512, 64), (4, 100, 20)];
    for &(conv, prompt, out) in &firsts {
        r.submit(req(conv, conv, r.now(), prompt, out, 0));
        responses.extend(drain_all(r));
    }
    stores.push(r.cold_store.clone());

    let t = r.now() + SimDuration::from_secs(1.0);
    r.submit(req(10, 2, t, 64, 400, 576));
    r.submit(req(11, 3, t, 64, 400, 576));
    r.submit(req(12, 1, t, 64, 48, 576));
    r.submit(req(13, 4, t, 32, 24, 120));
    assert_eq!(
        r.migrations(),
        1,
        "session 1 migrates off the saturated replica"
    );
    responses.extend(drain_all(r));
    assert_eq!(
        copies(r, 4),
        (2, 2),
        "the diverted turn leaves a stale copy of session 4 behind"
    );
    stores.push(r.cold_store.clone());

    // Idle fail-stop, then idle barriers with the stale copy in place.
    let idle_victim = (0..3)
        .rev()
        .find(|&i| r.replica(i).is_idle() && r.affinity.values().all(|&a| a != i))
        .unwrap_or(2);
    let at = r.now() + SimDuration::from_secs(0.5);
    r.fail_replica_at(idle_victim, at);
    for step in 1..=4 {
        r.run_until(at + SimDuration::from_secs(f64::from(step)));
        responses.extend(r.drain_responses());
    }
    stores.push(r.cold_store.clone());

    // Mid-turn fail-stop of whichever replica serves session 2's long turn.
    let t = r.now() + SimDuration::from_secs(1.0);
    let hist2 = 576 + 64 + 400;
    r.submit(req(20, 2, t, 64, 600, hist2));
    let victim = *r.affinity.get(&SessionId(2)).expect("just routed");
    r.fail_replica_at(victim, t + SimDuration::from_secs(2.0));
    responses.extend(drain_all(r));
    stores.push(r.cold_store.clone());

    let t = r.now() + SimDuration::from_secs(1.0);
    let hists = [
        (1, 576 + 64 + 48),
        (2, hist2 + 64 + 600),
        (3, hist2),
        (4, 120 + 32 + 24),
    ];
    for (conv, hist) in hists {
        r.submit(req(30 + conv, conv, t, 48, 32, hist));
    }
    responses.extend(drain_all(r));
    stores.push(r.cold_store.clone());
    assert_eq!(r.alive_replicas().len(), 1);
    assert!(r.is_idle() && r.parked_requests() == 0);
    for resp in &responses {
        assert!(resp.output_tokens > 0);
    }
    Outcome::new(responses, stores)
}

/// A small seeded closed-loop run on four replicas with one mid-run
/// fail-stop: the shape of the benchmark's `cluster4_repl`.
fn closed_loop<B: ServingBackend + Send>(r: &mut Router<B>) -> Outcome {
    let convs = DatasetSpec::sharegpt().generate(48, 7);
    let driver = DriverConfig {
        request_rate: 12.0,
        mean_think_time: 20.0,
        seed: 11,
        system_prompt_tokens: 0,
    };
    r.fail_replica_at(1, SimTime::from_secs(40.0));
    let result = run_closed_loop(r, &convs, &driver);
    assert_eq!(
        result.responses.len(),
        convs.iter().map(|c| c.turns.len()).sum::<usize>()
    );
    Outcome::new(result.responses, vec![r.cold_store.clone()])
}

fn fleet(n: usize) -> Vec<SimServingEngine> {
    (0..n).map(|_| engine()).collect()
}

/// Serves `script` on a fresh router; `reference` selects the parent's
/// walk-everything persistence instead of the change-driven barrier.
fn run<B: ServingBackend + Send>(
    fleet: Vec<B>,
    torn: f64,
    reference: bool,
    script: fn(&mut Router<B>) -> Outcome,
) -> (Outcome, Router<B>) {
    let mut r = Router::new(fleet, RouterPolicy::CacheAware, cfg(torn));
    r.reference_walk_only = reference;
    let outcome = script(&mut r);
    (outcome, r)
}

/// Old algorithm versus new, on the scripted scenario at tear rates 0,
/// 0.3 and 1.0. Cold-store bytes are compared after every barrier at
/// every rate (inside `persist_manifests`); whole-run timelines and
/// checkpoint stores against a reference-only router at 0 and 1.0.
#[test]
fn scripted_run_matches_the_walk_everything_reference() {
    let (calm, _) = run(fleet(3), 0.0, false, scripted);
    for torn in [0.0, 0.3, 1.0] {
        let (new, new_router) = run(fleet(3), torn, false, scripted);
        assert_eq!(
            new.generation(),
            calm.generation(),
            "tearing manifests never changes what is generated (torn={torn})"
        );
        if torn == 0.3 {
            assert!(new_router.torn_manifests() > 0, "some writes tear at 0.3");
            continue; // the old walk's fault stream is not comparable
        }
        let (old, old_router) = run(fleet(3), torn, true, scripted);
        assert_eq!(
            new, old,
            "timelines and stores equal the old walk's (torn={torn})"
        );
        assert_eq!(new_router.rehydrations(), old_router.rehydrations());
        assert_eq!(new_router.promotions(), old_router.promotions());
        assert!(
            new_router.manifests_persisted() < old_router.manifests_persisted(),
            "fewer writes than the old walk: {} vs {}",
            new_router.manifests_persisted(),
            old_router.manifests_persisted()
        );
    }
}

/// The same differential on a seeded closed-loop run (diversions,
/// migrations and a mid-turn fail-stop arise from load, not by hand).
#[test]
fn closed_loop_run_matches_the_walk_everything_reference() {
    for torn in [0.0, 0.3, 1.0] {
        let (new, new_router) = run(fleet(4), torn, false, closed_loop);
        assert!(
            new_router.migrations() > 0,
            "the load must migrate sessions"
        );
        assert!(new_router.promotions() > 0, "the fail-stop must promote");
        if torn == 0.3 {
            continue;
        }
        let (old, old_router) = run(fleet(4), torn, true, closed_loop);
        assert_eq!(new, old, "torn={torn}");
        assert!(new_router.manifests_persisted() < old_router.manifests_persisted());
    }
}

/// A session tracked by two replicas with diverging manifests, then idle
/// barriers: nothing is written. The old walk has both replicas
/// overwrite each other's record at every barrier, forever.
#[test]
fn idle_barriers_write_nothing_for_diverging_copies() {
    let idle_writes = |reference: bool| {
        let mut r = Router::new(fleet(3), RouterPolicy::CacheAware, cfg(0.0));
        r.reference_walk_only = reference;
        // Session 4's first turn runs on replica 0; its follow-up finds
        // replica 0 saturated and recomputes on replica 1.
        for (conv, prompt, out) in [(2, 512, 64), (3, 512, 64), (4, 100, 20)] {
            r.submit(req(conv, conv, r.now(), prompt, out, 0));
            let _ = drain_all(&mut r);
        }
        let t = r.now() + SimDuration::from_secs(1.0);
        r.submit(req(10, 2, t, 64, 400, 576));
        r.submit(req(11, 3, t, 64, 400, 576));
        r.submit(req(13, 4, t, 32, 24, 120));
        let _ = drain_all(&mut r);
        assert_eq!(copies(&r, 4), (2, 2), "two copies, two layouts");
        let before = r.manifests_persisted();
        for _ in 0..16 {
            r.run_until(r.now() + SimDuration::from_secs(5.0));
            let _ = r.drain_responses();
        }
        r.manifests_persisted() - before
    };
    assert_eq!(idle_writes(false), 0, "steady state writes nothing");
    assert!(
        idle_writes(true) >= 32,
        "the old walk rewrites the contested record twice per barrier"
    );
}

/// Writes per routed request on the closed-loop run stay under a pinned
/// ratio (a count ratio; the old walk sits two orders of magnitude up).
#[test]
fn writes_per_routed_request_stay_bounded() {
    let (_, new) = run(fleet(4), 0.0, false, closed_loop);
    let (_, old) = run(fleet(4), 0.0, true, closed_loop);
    let ratio = |r: &Router<SimServingEngine>| r.manifests_persisted() as f64 / r.routed as f64;
    assert!(ratio(&new) < 12.0, "new: {:.1} writes/request", ratio(&new));
    assert!(ratio(&old) > 10.0 * ratio(&new), "old: {:.1}", ratio(&old));
}

/// Replicas wrapped in a decorator that predates `take_manifest_dirty`
/// (so every driven replica reports everything it tracks): same bytes,
/// same timelines as the bare engines.
#[test]
fn legacy_decorator_gets_the_same_bytes_and_timelines() {
    let legacy = |n| fleet(n).into_iter().map(Legacy).collect::<Vec<_>>();
    for torn in [0.0, 0.3, 1.0] {
        let (bare, bare_router) = run(fleet(3), torn, false, scripted);
        let (wrapped, wrapped_router) = run(legacy(3), torn, false, scripted);
        assert_eq!(bare, wrapped, "scripted, torn={torn}");
        assert_eq!(
            bare_router.manifests_persisted(),
            wrapped_router.manifests_persisted(),
            "a superset of the changes writes exactly the changes"
        );
    }
    let (bare, _) = run(fleet(4), 0.0, false, closed_loop);
    let (wrapped, _) = run(legacy(4), 0.0, false, closed_loop);
    assert_eq!(bare, wrapped, "closed loop");
}

/// One long turn stepped through short `run_until` windows with nothing
/// submitted between them: only stepping drives the replica, yet every
/// window's commits reach the replication pump (each barrier asserts no
/// skipped replica had any) and every window's layout reaches the store.
#[test]
fn short_windows_pump_and_persist_without_submissions() {
    let mut r = Router::new(fleet(2), RouterPolicy::CacheAware, cfg(0.0));
    r.submit(req(1, 1, SimTime::ZERO, 256, 400, 0));
    let conv = SessionId(1);
    let (mut windows, mut flushing_windows) = (0, 0);
    let mut replicated = 0;
    while !r.is_idle() {
        windows += 1;
        r.run_until(SimTime::from_secs(0.05 * f64::from(windows)));
        let owner = r.affinity.get(&conv).copied().expect("routed");
        let live = r.replica(owner).session_manifest(conv).expect("tracked");
        assert_eq!(r.cold_store.get(conv), Ok(live), "window {windows}");
        flushing_windows += usize::from(r.replicated_tokens() > replicated);
        replicated = r.replicated_tokens();
    }
    assert_eq!(r.drain_responses().len(), 1);
    assert!(windows > 20, "the turn spans many windows: {windows}");
    assert!(
        flushing_windows > 2,
        "flushes in {flushing_windows} windows"
    );
}
