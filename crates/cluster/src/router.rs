//! The [`Router`]: N replicas behind one [`ServingBackend`] facade.
//!
//! The router owns a fleet of replicas (anything implementing
//! [`ServingBackend`] — in practice `SimServingEngine`s) and is itself a
//! [`ServingBackend`], so the same closed-loop workload driver that runs
//! a single engine runs a cluster unchanged. Placement follows a
//! [`RouterPolicy`]; the cache-aware policy adds two stateful-serving
//! mechanisms on top:
//!
//! * **Conversation migration.** When a session's affine replica is
//!   saturated, its KV chunks stream to a less-loaded replica over the
//!   simulated [`NodeLink`] (DéjàVu-style KV streaming). Chunks lost in
//!   transit are marked dropped and fall back to Pensieve's dropped-token
//!   recomputation at the target — migration trades network time and a
//!   little recomputation against head-of-line queueing.
//! * **Fail-stop recovery.** [`Router::fail_replica_at`] schedules a
//!   replica death: its KV state vanishes, completed responses remain
//!   drainable, and queued/running requests are re-routed to survivors
//!   (which recompute any lost context from raw tokens).
//! * **Standby replication.** With [`ReplicationConfig`] enabled, newly
//!   committed KV deltas stream to each session's standby replica in the
//!   background (see [`crate::replication`]). On fail-stop the standby is
//!   *promoted*: the replicated chunks import through the same
//!   `export_session`/`import_session` path migration uses, and only the
//!   unreplicated suffix flows through dropped-chunk recomputation.
//!   [`Router::apply_fault_schedule`] turns a seeded
//!   [`pensieve_sim::FaultSchedule`] into scheduled crashes and link
//!   partitions for chaos testing.
//! * **Cold-store manifest persistence.** With
//!   [`RouterConfig::manifest_persistence`] on, every replication
//!   barrier also serializes the chunk manifest of each session whose
//!   layout *changed* to a simulated cold object store that survives
//!   replica fail-stops — one record per session, its owner's (see
//!   `Router::persist_manifests`). A
//!   turn whose session has no cached KV anywhere rehydrates its chunk
//!   layout from the manifest on a survivor — chunks re-admitted at the
//!   cold tier, read back through that replica's own cold device at
//!   admission — instead of recomputing from scratch. Torn manifest
//!   writes (seeded [`pensieve_sim::FaultKind::TornManifestWrite`]
//!   rolls) fail their checksum at rehydration time and fall back to
//!   recomputation. See `docs/STORAGE.md` for the full storage model.
//!
//! Everything is deterministic: replica polling order, placement
//! tie-breaks and the link's loss schedule are pure functions of the
//! inputs, so a cluster run has a stable trace hash.
//!
//! # Parallel replica stepping
//!
//! [`Router::run_until`] advances replicas in **conservative time
//! windows**: every alive replica runs independently up to the next
//! inter-replica event horizon (the earliest scheduled fail-stop, then
//! the caller's deadline), and only at those barriers does the router
//! perform cross-replica work — replication pumping, standby promotion,
//! failure injection. Because those are already the *only* interactions
//! between replicas, partitioning the per-window loop across a
//! persistent worker [`Pool`] (see [`Router::pool`]) cannot change any
//! replica's state: each replica's simulation inside a window depends
//! only on its own inputs. Traces stay deterministic by giving each
//! replica its own [`SharedRecorder`]
//! ([`Router::replica_recorders`]); at every barrier the router drains
//! them into its own recorder in replica-index order, so the merged
//! event stream — and its hash — is identical at every pool width.

#![deny(clippy::indexing_slicing)]

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use crossbeam::pool::Pool;
use pensieve_core::{Request, RequestId, Response, ServingBackend, SimServingEngine};
use pensieve_kvcache::{
    CacheStats, ChunkId, ChunkState, ColdObjectStore, ManifestChunk, ManifestError, SessionExport,
    SessionId, SessionManifest, Tier,
};
use pensieve_model::{SimDuration, SimTime};
use pensieve_obs::{
    metrics, Histogram, MetricsRegistry, Recorder as _, RecoveryKind, SharedRecorder, TraceEvent,
};
use pensieve_sim::{
    ClusterFaultKind, FaultConfig, FaultInjector, FaultKind, FaultSchedule, NodeLink, NodeLinkSpec,
};

use crate::policy::RouterPolicy;
use crate::replication::{ReplicationConfig, ReplicationMode, Replicator};

/// Tuning knobs for the router.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterConfig {
    /// Queue depth at which a session's affine replica counts as
    /// saturated and the cache-aware policy considers migrating the
    /// conversation instead of queueing behind the backlog.
    pub saturation_depth: usize,
    /// Cache-aware score penalty, in hit-tokens, per request of queue
    /// depth above the cluster minimum: placement prefers the affine
    /// replica until its backlog costs more than the cache hit saves.
    pub imbalance_penalty_tokens: usize,
    /// Shape of the inter-node link migrations stream over.
    pub link: NodeLinkSpec,
    /// Standby KV replication knobs (default: disabled, so existing
    /// cluster configurations and their pinned traces are unchanged).
    pub replication: ReplicationConfig,
    /// Persist each session's chunk manifest to a simulated cold object
    /// store at the replication barrier after its layout changes, so
    /// sessions orphaned by a fail-stopped replica rehydrate their KV
    /// layout from the cold tier instead of recomputing everything (see
    /// `docs/STORAGE.md`).
    /// Default: off, so existing cluster traces are unchanged.
    pub manifest_persistence: bool,
    /// Seeded fault stream for manifest writes: each write rolls
    /// [`FaultKind::TornManifestWrite`] once. `None` means writes never
    /// tear. Ignored unless `manifest_persistence` is on.
    pub manifest_faults: Option<FaultConfig>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            saturation_depth: 4,
            imbalance_penalty_tokens: 256,
            link: NodeLinkSpec::datacenter_25g(),
            replication: ReplicationConfig::default(),
            manifest_persistence: false,
            manifest_faults: None,
        }
    }
}

/// One replica slot: the backend plus its liveness flag.
#[derive(Debug)]
struct Replica<B> {
    backend: B,
    alive: bool,
    /// Driven (stepped, submitted to, or handed session state) since the
    /// last barrier: the only replicas whose commit log can be non-empty,
    /// so the only ones the barrier drains.
    driven: bool,
    /// Alive with a response ready to drain, as of the last call that
    /// could produce one (`poll`, `run_until`); counted in
    /// `Router::ready`.
    ready: bool,
}

/// N replicas behind a placement policy; itself a [`ServingBackend`].
/// See the [module docs](self) for the design.
#[derive(Debug)]
pub struct Router<B> {
    replicas: Vec<Replica<B>>,
    policy: RouterPolicy,
    cfg: RouterConfig,
    /// Next round-robin candidate.
    rr_next: usize,
    /// Which replica last held each session's KV state.
    affinity: BTreeMap<SessionId, usize>,
    link: NodeLink,
    /// Original arrival per in-flight request: migrations and re-routes
    /// re-submit with a later effective arrival so queueing delay lands
    /// on the right replica clock, and the original is patched back on
    /// drain so reported latency honestly includes that wait.
    origin_arrivals: BTreeMap<RequestId, SimTime>,
    /// Scheduled fail-stop injections, sorted by (time, replica).
    scheduled_failures: Vec<(SimTime, usize)>,
    /// Future effective arrivals the router itself created (migration
    /// transfer completions, failure re-dispatch times). `poll(None)`
    /// treats them as due work: without this a delayed submission on an
    /// otherwise idle replica would never be reached. A min-heap: `poll`
    /// only ever needs the earliest one still ahead of the frontier.
    wakeups: BinaryHeap<Reverse<OrdTime>>,
    /// Every alive replica as `(clock, index)`, sorted: the laggard-first
    /// order `poll` walks and whose head is the cluster clock. Only
    /// `poll` and `run_until` move a clock, so only the replica just
    /// polled is re-seated, and a window re-sorts the fleet.
    clocks: Vec<(OrdTime, usize)>,
    /// Alive replicas with `ready` set.
    ready: usize,
    /// Responses salvaged from replicas that have since died.
    buffered: Vec<Response>,
    /// Requests that could not be placed because no replica is alive.
    parked: Vec<Request>,
    recorder: Option<SharedRecorder>,
    /// Per-replica event recorders for the merged deterministic trace;
    /// index-aligned with `replicas`. Required for parallel stepping.
    replica_recorders: Option<Vec<SharedRecorder>>,
    /// Worker pool for windowed replica stepping (serial by default).
    pool: Pool,
    /// Standby replication state; `None` when disabled or with fewer
    /// than two replicas (there is nobody to stand by).
    replication: Option<Replicator>,
    /// Cold-tier manifest store: session chunk layouts that survive any
    /// replica's fail-stop (empty unless manifest persistence is on).
    cold_store: ColdObjectStore,
    /// Seeded torn-write roll source for manifest persistence.
    manifest_faults: Option<FaultInjector>,
    /// Sessions the next barrier must re-evaluate although no replica
    /// committed to them: their last write tore, their record was
    /// removed, or the router itself handed them to or took them from a
    /// replica (export, import, rehydration).
    manifest_recheck: BTreeSet<SessionId>,
    /// A replica fail-stopped since the last barrier: owners may have
    /// changed with no manifest moving, so the next barrier re-evaluates
    /// every tracked session once.
    manifest_resync: bool,
    /// Test switch: persist with the parent's walk-everything algorithm
    /// instead, for old-versus-new differential runs.
    #[cfg(test)]
    reference_walk_only: bool,
    routed: u64,
    migrations: u64,
    migrated_tokens: u64,
    migration_lost_tokens: u64,
    replica_failures: u64,
    promotions: u64,
    recomputed_suffix_tokens: u64,
    manifests_persisted: u64,
    torn_manifests: u64,
    rehydrations: u64,
    rehydrated_tokens: u64,
    /// Crash-to-promotion latencies, observed where `StandbyPromoted` is
    /// recorded (so only with a recorder attached).
    promotion_latency: Histogram,
}

impl<B: ServingBackend + Send> Router<B> {
    /// Builds a router over `replicas` (index order is placement order).
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty.
    #[must_use]
    pub fn new(replicas: Vec<B>, policy: RouterPolicy, cfg: RouterConfig) -> Self {
        assert!(!replicas.is_empty(), "a cluster needs at least one replica");
        let link = NodeLink::new(cfg.link.clone());
        let replication =
            if cfg.replication.mode != ReplicationMode::Disabled && replicas.len() >= 2 {
                Some(Replicator::new(cfg.replication.clone(), replicas.len()))
            } else {
                None
            };
        let mut router = Router {
            replicas: replicas
                .into_iter()
                .map(|backend| Replica {
                    backend,
                    alive: true,
                    driven: false,
                    ready: false,
                })
                .collect(),
            policy,
            cfg,
            rr_next: 0,
            affinity: BTreeMap::new(),
            link,
            origin_arrivals: BTreeMap::new(),
            scheduled_failures: Vec::new(),
            wakeups: BinaryHeap::new(),
            clocks: Vec::new(),
            ready: 0,
            buffered: Vec::new(),
            parked: Vec::new(),
            recorder: None,
            replica_recorders: None,
            pool: Pool::serial(),
            replication,
            cold_store: ColdObjectStore::new(),
            manifest_faults: None,
            manifest_recheck: BTreeSet::new(),
            manifest_resync: false,
            #[cfg(test)]
            reference_walk_only: false,
            routed: 0,
            migrations: 0,
            migrated_tokens: 0,
            migration_lost_tokens: 0,
            replica_failures: 0,
            promotions: 0,
            recomputed_suffix_tokens: 0,
            manifests_persisted: 0,
            torn_manifests: 0,
            rehydrations: 0,
            rehydrated_tokens: 0,
            promotion_latency: Histogram::new(metrics::PROMOTION_LATENCY_SECONDS_BUCKETS),
        };
        router.manifest_faults = router.cfg.manifest_faults.clone().map(FaultInjector::new);
        router.settle_all();
        router
    }

    /// Attaches a recorder for router-level events. The replicas keep
    /// whatever recorder they were built with — share one
    /// [`SharedRecorder`] across the fleet for a merged trace.
    #[must_use]
    pub fn recorder(mut self, recorder: SharedRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Installs a persistent worker [`Pool`] for windowed replica
    /// stepping (see the [module docs](self)). With a serial pool — the
    /// default — replicas step sequentially; wider pools partition them
    /// across the parked workers. Results are bit-identical either way.
    ///
    /// Parallel stepping additionally requires
    /// [`Router::replica_recorders`]: replicas sharing one recorder
    /// would interleave events nondeterministically (the router cannot
    /// see how the replicas were built), so it steps sequentially until
    /// per-replica recorders are registered.
    #[must_use]
    pub fn pool(mut self, pool: Pool) -> Self {
        self.pool = pool;
        self
    }

    /// Registers each replica's own [`SharedRecorder`] (index-aligned
    /// with the construction order). At every stepping barrier the
    /// router drains these into its own recorder in replica-index
    /// order, producing one merged event stream that is identical at
    /// every pool width — the determinism pin for parallel stepping.
    /// The per-replica recorders must be the ones the replica engines
    /// were built with, and distinct from the router's recorder.
    ///
    /// # Panics
    ///
    /// Panics if the count does not match the replica count.
    #[must_use]
    pub fn replica_recorders(mut self, recorders: Vec<SharedRecorder>) -> Self {
        assert_eq!(
            recorders.len(),
            self.replicas.len(),
            "one recorder per replica, index-aligned"
        );
        self.replica_recorders = Some(recorders);
        self
    }

    /// Schedules replica `idx` to fail-stop at time `at`. The failure
    /// takes effect when the cluster's clock (or an arriving request)
    /// reaches `at`; scheduling twice is idempotent once the replica is
    /// dead.
    pub fn fail_replica_at(&mut self, idx: usize, at: SimTime) {
        debug_assert!(idx < self.replicas.len());
        self.scheduled_failures.push((at, idx));
        self.scheduled_failures
            .sort_by_key(|&(at, idx)| (OrdTime(at), idx));
    }

    /// The placement policy in force.
    #[must_use]
    pub fn policy(&self) -> RouterPolicy {
        self.policy
    }

    /// Number of replicas, dead or alive.
    #[must_use]
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Indices of replicas still alive.
    #[must_use]
    pub fn alive_replicas(&self) -> Vec<usize> {
        self.alive_indices().collect()
    }

    /// Conversations migrated so far.
    #[must_use]
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// KV tokens successfully streamed between replicas so far.
    #[must_use]
    pub fn migrated_tokens(&self) -> u64 {
        self.migrated_tokens
    }

    /// KV tokens lost in transit (recomputed at the target) so far.
    #[must_use]
    pub fn migration_lost_tokens(&self) -> u64 {
        self.migration_lost_tokens
    }

    /// Requests that could not be placed because every replica was dead.
    #[must_use]
    pub fn parked_requests(&self) -> usize {
        self.parked.len()
    }

    /// Standby promotions performed so far.
    #[must_use]
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// KV tokens delivered to standby replicas so far.
    #[must_use]
    pub fn replicated_tokens(&self) -> u64 {
        self.replication
            .as_ref()
            .map_or(0, Replicator::replicated_tokens)
    }

    /// Bytes put on replication wires so far (delivered or lost).
    #[must_use]
    pub fn standby_bytes(&self) -> u64 {
        self.replication
            .as_ref()
            .map_or(0, Replicator::standby_bytes)
    }

    /// Replication flush attempts lost in transit so far.
    #[must_use]
    pub fn replication_lost_flushes(&self) -> u64 {
        self.replication
            .as_ref()
            .map_or(0, Replicator::lost_flushes)
    }

    /// Unreplicated-suffix tokens that fell back to recomputation at
    /// promotion time (the cost replication did *not* save).
    #[must_use]
    pub fn recomputed_suffix_tokens(&self) -> u64 {
        self.recomputed_suffix_tokens
    }

    /// Manifest records written to the cold store so far (torn included).
    #[must_use]
    pub fn manifests_persisted(&self) -> u64 {
        self.manifests_persisted
    }

    /// Manifest writes torn mid-write by fault injection so far.
    #[must_use]
    pub fn torn_manifests(&self) -> u64 {
        self.torn_manifests
    }

    /// Sessions rebuilt from cold-store manifests after failures so far.
    #[must_use]
    pub fn rehydrations(&self) -> u64 {
        self.rehydrations
    }

    /// KV tokens re-admitted at the cold tier by those rehydrations.
    #[must_use]
    pub fn rehydrated_tokens(&self) -> u64 {
        self.rehydrated_tokens
    }

    /// Largest per-session committed-but-unreplicated delta right now.
    #[must_use]
    pub fn replication_lag_tokens(&self) -> usize {
        self.replication
            .as_ref()
            .map_or(0, Replicator::max_pending_tokens)
    }

    /// Schedules every event of a seeded [`FaultSchedule`]: replica
    /// crashes become [`Router::fail_replica_at`] injections and link
    /// partitions become forced outage windows on the migration link and
    /// every replication link. Crash targets beyond the fleet size are
    /// ignored (the schedule generator caps targets, but schedules are
    /// data and may come from anywhere).
    pub fn apply_fault_schedule(&mut self, schedule: &FaultSchedule) {
        for ev in schedule.events() {
            match ev.kind {
                ClusterFaultKind::ReplicaCrash { replica } => {
                    if replica < self.replicas.len() {
                        self.fail_replica_at(replica, ev.at);
                    }
                }
                ClusterFaultKind::LinkPartition { duration } => {
                    let until = ev.at + duration;
                    self.link.add_outage(ev.at, until);
                    if let Some(rep) = &mut self.replication {
                        rep.add_outage(ev.at, until);
                    }
                    self.recorder
                        .record(TraceEvent::LinkPartitioned { at: ev.at, until });
                }
            }
        }
    }

    /// Direct access to replica `idx`'s backend (inspection in tests and
    /// benches; routing itself never bypasses the trait).
    #[must_use]
    #[expect(
        clippy::indexing_slicing,
        reason = "harness-only inspection accessor: a bad index must fail loudly"
    )]
    pub fn replica(&self, idx: usize) -> &B {
        &self.replicas[idx].backend
    }

    fn alive_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.alive_backends().map(|(i, _)| i)
    }

    /// Every alive replica's `(index, backend)`, in index order — the
    /// borrow-based walk that placement and aggregation build on.
    fn alive_backends(&self) -> impl Iterator<Item = (usize, &B)> + '_ {
        self.replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| r.alive)
            .map(|(i, r)| (i, &r.backend))
    }

    /// Replica `idx`'s backend for a call that may commit KV (stepping,
    /// state handoff); marks it for the next barrier's drain.
    fn drive(&mut self, idx: usize) -> Option<&mut B> {
        let r = self.replicas.get_mut(idx)?;
        r.driven = true;
        Some(&mut r.backend)
    }

    /// Re-reads replica `idx`'s clock and readiness after a `poll`:
    /// re-seats its entry in `clocks` and updates `ready`.
    fn settle(&mut self, idx: usize) {
        let Some(r) = self.replicas.get_mut(idx) else {
            return;
        };
        let ready = r.alive && r.backend.responses_ready();
        self.ready = self.ready + usize::from(ready) - usize::from(r.ready);
        r.ready = ready;
        let key = (OrdTime(r.backend.now()), idx);
        self.clocks.retain(|&(_, i)| i != idx);
        if r.alive {
            let at = self.clocks.partition_point(|&e| e < key);
            self.clocks.insert(at, key);
        }
    }

    /// [`Router::settle`] for the whole fleet, after a window moved every
    /// alive clock (or a drain or failure cleared readiness).
    fn settle_all(&mut self) {
        self.clocks.clear();
        self.ready = 0;
        for (i, r) in self.replicas.iter_mut().enumerate() {
            r.ready = r.alive && r.backend.responses_ready();
            self.ready += usize::from(r.ready);
            if r.alive {
                self.clocks.push((OrdTime(r.backend.now()), i));
            }
        }
        self.clocks.sort_unstable();
    }

    /// The maintained fleet view against a fresh walk: `clocks` is the
    /// sorted `(clock, index)` of every alive replica and `ready` counts
    /// the alive replicas with responses ready. Checked at every `poll`
    /// iteration of every in-crate test.
    #[cfg(test)]
    fn check_fleet_view(&self) {
        let mut fresh: Vec<(OrdTime, usize)> = self
            .alive_backends()
            .map(|(i, b)| (OrdTime(b.now()), i))
            .collect();
        fresh.sort_unstable();
        assert_eq!(self.clocks, fresh, "laggard order drifted");
        let ready = self.alive_backends().filter(|(_, b)| b.responses_ready());
        assert_eq!(self.ready, ready.count(), "ready count drifted");
    }

    /// Queues `session` for the next barrier's manifest pass although no
    /// replica may have committed to it.
    fn recheck_manifest(&mut self, session: SessionId) {
        if self.cfg.manifest_persistence {
            self.manifest_recheck.insert(session);
        }
    }

    /// The shallowest alive replica other than `except`, as
    /// `(queue depth, index)`; ties go to the lowest index.
    fn least_loaded(&self, except: Option<usize>) -> Option<(usize, usize)> {
        self.alive_backends()
            .filter(|&(i, _)| Some(i) != except)
            .map(|(i, b)| (b.queue_depth(), i))
            .min()
    }

    fn min_alive_depth(&self) -> usize {
        self.least_loaded(None).map_or(0, |(depth, _)| depth)
    }

    /// Applies every scheduled failure that is due: the victim's own
    /// clock reached the failure time, or `frontier` (e.g. an arriving
    /// request's timestamp) passed it.
    fn apply_due_failures(&mut self, frontier: Option<SimTime>) {
        loop {
            let due = self.scheduled_failures.iter().position(|&(at, idx)| {
                self.replicas
                    .get(idx)
                    .is_some_and(|r| r.backend.now() >= at)
                    || frontier.is_some_and(|f| f >= at)
            });
            let Some(pos) = due else { return };
            let (at, idx) = self.scheduled_failures.remove(pos);
            self.fail_replica_now(idx, at);
        }
    }

    fn fail_replica_now(&mut self, idx: usize, at: SimTime) {
        let Some(victim) = self.replicas.get_mut(idx) else {
            return;
        };
        if !victim.alive {
            return;
        }
        let t = at.max(victim.backend.now());
        // Responses completed before the failure survive it.
        self.buffered.extend(victim.backend.drain_responses());
        let orphans = victim.backend.fail_stop();
        victim.alive = false;
        self.settle(idx);
        self.manifest_resync = true;
        self.affinity.retain(|_, r| *r != idx);
        self.replica_failures += 1;
        self.recorder.record(TraceEvent::ReplicaFailed {
            at: t,
            replica: idx,
            requeued: orphans.len(),
        });
        let promoted = self.promote_standbys(idx, t, &orphans);
        for mut req in orphans {
            // The orphan restarts on a survivor; its effective arrival is
            // the failure time (it cannot be re-admitted in the past) or,
            // when its session was promoted, the instant the replicated
            // state is usable at the standby. Drain patches the original
            // arrival back so reported latency spans the failover.
            match promoted.get(&req.conv).copied() {
                Some((standby, ready)) => {
                    req.arrival = req.arrival.max(ready);
                    self.dispatch_to(req, standby);
                }
                None => {
                    // No replicated standby: `dispatch` consults the cold
                    // store's manifests before recompute placement.
                    req.arrival = req.arrival.max(t);
                    self.dispatch(req);
                }
            }
        }
    }

    /// Promotes the standby of every session whose primary just failed:
    /// the replicated chunks import into the standby (CPU tier, same path
    /// migration uses), affinity moves, and only the unreplicated suffix
    /// is left for dropped-chunk recomputation. Returns the promoted
    /// sessions' `(standby, ready)` placements; `ready` is when the last
    /// in-flight replication chunk delivers — promotion latency.
    fn promote_standbys(
        &mut self,
        failed: usize,
        t: SimTime,
        orphans: &[Request],
    ) -> BTreeMap<SessionId, (usize, SimTime)> {
        let mut promoted = BTreeMap::new();
        let Some(rep) = self.replication.as_mut() else {
            return promoted;
        };
        let failover = rep.take_failover(failed);
        if failover.is_empty() {
            return promoted;
        }
        // An in-flight turn's partial output may already be committed and
        // replicated; the orphan restarts that turn from its original
        // history, so cap the import there to keep the standby's cache
        // consistent with what the retried request expects.
        let caps: BTreeMap<SessionId, usize> =
            orphans.iter().map(|r| (r.conv, r.history_tokens)).collect();
        for (conv, state) in failover {
            let standby = state.standby;
            if !self.replicas.get(standby).is_some_and(|r| r.alive) {
                // Standby died too (multi-fault schedule): nothing to
                // promote, the session recomputes from raw tokens.
                continue;
            }
            let cap = caps.get(&conv).copied().unwrap_or(usize::MAX);
            let mut ready = t;
            let mut pos = 0usize;
            let mut chunks = Vec::new();
            for &(tokens, usable_at) in &state.chunks {
                if pos >= cap {
                    break;
                }
                let take = tokens.min(cap - pos);
                pos += take;
                chunks.push(ChunkState {
                    tier: Tier::Cpu,
                    tokens: take,
                    context_end: pos,
                });
                ready = ready.max(usable_at);
            }
            let lag = state.committed.saturating_sub(state.replicated);
            if !chunks.is_empty() {
                // Replicated deltas carry *private* committed tokens only;
                // a globally shared preamble is never byte-streamed (every
                // replica already holds its chunks), so the failover export
                // attaches no shared chain and the retried turn re-derives
                // any preamble credit through the standby's own index.
                let export = SessionExport {
                    session: conv,
                    chunks,
                    shared: Vec::new(),
                };
                // The fail-stop's resync has the next barrier look at
                // every session, this one included.
                let admitted = self.drive(standby).map_or(0, |b| b.import_session(export));
                if admitted > 0 {
                    self.affinity.insert(conv, standby);
                }
            }
            self.promotions += 1;
            self.recomputed_suffix_tokens += lag as u64;
            let latency = SimDuration::from_secs((ready.as_secs() - t.as_secs()).max(0.0));
            self.recorder.record(TraceEvent::StandbyPromoted {
                at: ready,
                conv: conv.0,
                from: failed,
                to: standby,
                replicated_tokens: pos,
                lag_tokens: lag,
                latency,
            });
            if self.recorder.enabled() {
                self.promotion_latency.observe(latency.as_secs());
            }
            promoted.insert(conv, (standby, ready));
        }
        promoted
    }

    /// The failover target for sessions whose primary is `primary`: the
    /// next alive replica in ring order. `None` when no *other* replica
    /// is alive.
    fn standby_of(&self, primary: usize) -> Option<usize> {
        let n = self.replicas.len();
        (1..n)
            .map(|off| (primary + off) % n)
            .find(|&i| self.replicas.get(i).is_some_and(|r| r.alive))
    }

    /// Drains each per-replica recorder into the router's recorder, in
    /// replica-index order. Called at every stepping barrier so the
    /// merged stream interleaves replica and router events identically
    /// at every pool width. No-op without per-replica recorders.
    fn merge_replica_events(&mut self) {
        let Some(recs) = self.replica_recorders.as_ref() else {
            return;
        };
        let Some(sink) = self.recorder.clone() else {
            return;
        };
        for rec in recs {
            for ev in rec.take_events() {
                sink.record(ev);
            }
        }
    }

    /// The barrier, at each scheduling boundary: drains the commit log of
    /// every alive replica driven since the last barrier, once, and hands
    /// the drained commits first to manifest persistence and then to the
    /// replicator, which flushes sessions whose pending delta reached the
    /// threshold (every pending delta in sync mode). Called often enough
    /// that replication keeps pace with generation; a pure bookkeeping
    /// step — it never advances a replica clock. A replica that was not
    /// driven has committed nothing, so it is not drained; a lost flush or
    /// a standby loss can still leave it due.
    fn pump_replication(&mut self) {
        // Every scheduling boundary passes through here, so this is also
        // where the merged deterministic trace is stitched together.
        self.merge_replica_events();
        let drains = self.cfg.manifest_persistence || self.replication.is_some();
        let commits: Vec<_> = self
            .replicas
            .iter_mut()
            .map(|r| {
                let driven = std::mem::take(&mut r.driven);
                if !(drains && r.alive) {
                    return Vec::new();
                }
                if driven {
                    return r.backend.take_committed_kv();
                }
                // Test builds drain a skipped replica anyway, to prove it
                // had committed nothing.
                #[cfg(test)]
                assert!(
                    r.backend.take_committed_kv().is_empty(),
                    "a skipped replica had commits pending"
                );
                Vec::new()
            })
            .collect();
        self.persist_manifests(&commits);
        for (i, commits) in commits.into_iter().enumerate() {
            let Some(rep) = self.replication.as_ref() else {
                return;
            };
            let Some(primary) = self.replicas.get(i) else {
                break;
            };
            if !primary.alive || (commits.is_empty() && !rep.has_due(i)) {
                continue;
            }
            let now = primary.backend.now();
            let bytes_per_token = primary.backend.kv_bytes_per_token();
            // With no second replica alive there is nobody to stand by:
            // the drained commits are dropped (the log stays bounded).
            let Some(standby) = self.standby_of(i) else {
                continue;
            };
            let Some(rep) = self.replication.as_mut() else {
                return;
            };
            for (conv, committed) in commits {
                rep.observe(conv, i, standby, committed);
            }
            if !rep.has_due(i) {
                continue;
            }
            for conv in rep.due_flushes(i) {
                rep.flush(conv, now, bytes_per_token, 1, &self.recorder);
            }
        }
    }

    /// Routes and submits one request (the single entry point for fresh
    /// submissions and re-routes alike).
    fn dispatch(&mut self, req: Request) {
        self.origin_arrivals.entry(req.id).or_insert(req.arrival);
        // A turn with history but no cached KV anywhere — its replica
        // fail-stopped, or pressure demoted-then-dropped everything —
        // may rebuild its chunk layout from the cold store's persisted
        // manifest instead of recomputing. The chunk *reads* are charged
        // by the target replica's own cold device at admission; only
        // placement happens here.
        if req.history_tokens > 0 && self.cached_tokens(req.conv) == 0 {
            if let Some(target) = self.try_rehydrate(req.conv, req.history_tokens, req.arrival) {
                self.dispatch_to(req, target);
                return;
            }
        }
        let Some(target) = self.pick_replica(&req) else {
            self.parked.push(req);
            return;
        };
        let (req, target) = if self.policy == RouterPolicy::CacheAware {
            self.maybe_migrate(req, target)
        } else {
            (req, target)
        };
        self.dispatch_to(req, target);
    }

    /// Submits `req` to a specific replica, bypassing placement: the tail
    /// of [`Router::dispatch`], and the direct path failover promotion
    /// uses so the orphan lands on the standby that now holds its KV
    /// regardless of policy.
    fn dispatch_to(&mut self, req: Request, target: usize) {
        self.origin_arrivals.entry(req.id).or_insert(req.arrival);
        let Some(rep) = self.replicas.get(target) else {
            // A target outside the fleet (corrupt schedule data): keep the
            // request rather than lose it; a later dispatch re-places it.
            self.parked.push(req);
            return;
        };
        if req.arrival > rep.backend.now() {
            self.wakeups.push(Reverse(OrdTime(req.arrival)));
        }
        let cached = rep.backend.cached_tokens(req.conv);
        self.affinity.insert(req.conv, target);
        self.routed += 1;
        self.recorder.record(TraceEvent::Routed {
            at: req.arrival,
            request: req.id.0,
            conv: req.conv.0,
            replica: target,
            cached_tokens: cached,
        });
        if let Some(rep) = self.replicas.get_mut(target) {
            rep.driven = true;
            rep.backend.submit(req);
        }
    }

    /// Picks the placement target per policy. `None` only when every
    /// replica is dead.
    fn pick_replica(&mut self, req: &Request) -> Option<usize> {
        let n = self.replicas.len();
        match self.policy {
            RouterPolicy::RoundRobin => {
                for off in 0..n {
                    let i = (self.rr_next + off) % n;
                    if self.replicas.get(i).is_some_and(|r| r.alive) {
                        self.rr_next = (i + 1) % n;
                        return Some(i);
                    }
                }
                None
            }
            RouterPolicy::LeastLoaded => self.least_loaded(None).map(|(_, i)| i),
            RouterPolicy::CacheAware => {
                let min_depth = self.min_alive_depth();
                // Highest score wins: cached hit-tokens minus the load
                // imbalance penalty; ties go to the lowest index.
                self.alive_backends()
                    .map(|(i, b)| {
                        let cached = b.cached_tokens(req.conv) as i64;
                        let excess = (b.queue_depth() - min_depth) as i64;
                        let score = cached - excess * self.cfg.imbalance_penalty_tokens as i64;
                        (score, i)
                    })
                    .fold(None, |best: Option<(i64, usize)>, cand| match best {
                        Some(b) if b.0 >= cand.0 => Some(b),
                        _ => Some(cand),
                    })
                    .map(|(_, i)| i)
            }
        }
    }

    /// If `target` is the session's saturated affine replica and a
    /// clearly less-loaded alternative exists, migrates the session's KV
    /// there and retargets the request; otherwise returns it unchanged.
    fn maybe_migrate(&mut self, mut req: Request, target: usize) -> (Request, usize) {
        let Some(affine) = self.replicas.get(target) else {
            return (req, target);
        };
        let depth = affine.backend.queue_depth();
        if depth < self.cfg.saturation_depth {
            return (req, target);
        }
        if self.affinity.get(&req.conv) != Some(&target)
            || affine.backend.cached_tokens(req.conv) == 0
        {
            return (req, target);
        }
        // Hysteresis: only move when the alternative is at least two
        // requests lighter, so a borderline depth difference cannot
        // bounce a session back and forth.
        let Some((alt_depth, alt)) = self.least_loaded(Some(target)) else {
            return (req, target);
        };
        if alt_depth + 2 > depth {
            return (req, target);
        }
        let Some(end) = self.migrate(req.conv, target, alt, req.arrival) else {
            return (req, target);
        };
        // The turn cannot start before its KV lands at the target.
        req.arrival = req.arrival.max(end);
        (req, alt)
    }

    /// Streams `session`'s KV from `from` to `to` over the link. Returns
    /// the transfer completion time, or `None` when the source refuses
    /// the export (session unknown or still in flight there).
    fn migrate(
        &mut self,
        session: SessionId,
        from: usize,
        to: usize,
        at: SimTime,
    ) -> Option<SimTime> {
        let source = self.drive(from)?;
        let mut export = source.export_session(session)?;
        let bytes_per_token = source.kv_bytes_per_token() as u64;
        // Another copy may now speak for the session, and the target's
        // import below commits nothing: the session is rechecked.
        self.recheck_manifest(session);
        let total_bytes: u64 = export
            .chunks
            .iter()
            .filter(|c| c.tier != Tier::Dropped)
            .map(|c| c.tokens as u64 * bytes_per_token)
            .sum();
        self.recorder.record(TraceEvent::MigrationStart {
            at,
            conv: session.0,
            from,
            to,
            chunks: export.chunks.len(),
            bytes: total_bytes,
        });
        let mut transfer_end = at;
        let mut lost_tokens = 0usize;
        for i in 0..export.chunks.len() {
            let Some(chunk) = export.chunks.get(i).copied() else {
                break;
            };
            if chunk.tier == Tier::Dropped {
                continue;
            }
            let bytes = chunk.tokens * bytes_per_token as usize;
            match self.link.stream_chunk(at, bytes) {
                Ok((_start, end)) => transfer_end = transfer_end.max(end),
                Err(lost) => {
                    // The wire time was spent; the chunk is recomputed at
                    // the target from raw tokens instead.
                    transfer_end = transfer_end.max(lost.completes);
                    lost_tokens += export.mark_lost(i);
                }
            }
        }
        let streamed = export.streamable_tokens();
        self.recorder.record(TraceEvent::MigrationEnd {
            at: transfer_end,
            conv: session.0,
            to,
            streamed_tokens: streamed,
            lost_tokens,
        });
        self.migrations += 1;
        self.migrated_tokens += streamed as u64;
        self.migration_lost_tokens += lost_tokens as u64;
        let _admitted = self.drive(to).map_or(0, |b| b.import_session(export));
        self.affinity.insert(session, to);
        Some(transfer_end)
    }

    /// Brings the cold object store up to date with the session layouts
    /// that changed since the last barrier — a pure bookkeeping step on
    /// the barrier path (it never advances a replica clock), doing work
    /// proportional to what changed rather than to what exists.
    ///
    /// The sessions looked at are those in `commits`, the commit logs
    /// the barrier drained from the replicas it drove
    /// ([`ServingBackend::take_committed_kv`]: a layout grows only by
    /// committing), plus the rechecks the router queued itself: sessions
    /// it handed to or took from a replica (migration, import, export,
    /// rehydration), whose last write tore or whose record was removed,
    /// and, once after a fail-stop, everything tracked anywhere (a
    /// promotion's import among it). Each such session gets at most one
    /// write, in session-id order: the manifest of its **owner** — the
    /// highest-index alive replica tracking it with a non-empty
    /// manifest, which is whose record a walk over every replica in
    /// index order leaves behind — moved into the store, and only if the
    /// store does not already hold a clean copy of it. Each write rolls
    /// [`FaultKind::TornManifestWrite`] once; a torn record is no clean
    /// copy, so it is rewritten (healed) at the next barrier.
    fn persist_manifests(&mut self, commits: &[Vec<(SessionId, usize)>]) {
        if !self.cfg.manifest_persistence {
            return;
        }
        #[cfg(test)]
        if self.reference_walk_only {
            let faults = &mut self.manifest_faults;
            let (writes, torn) =
                Self::reference_walk(&self.replicas, &mut self.cold_store, |_| roll_torn(faults));
            self.manifests_persisted += writes;
            self.torn_manifests += torn;
            return;
        }
        #[cfg(test)]
        let mut shadow = self.cold_store.clone();

        let mut changed = std::mem::take(&mut self.manifest_recheck);
        changed.extend(commits.iter().flatten().map(|&(conv, _)| conv));
        if std::mem::take(&mut self.manifest_resync) {
            for r in self.replicas.iter().filter(|r| r.alive) {
                changed.extend(r.backend.manifest_sessions());
            }
        }
        for conv in changed {
            let owner = self
                .replicas
                .iter()
                .rev()
                .filter(|r| r.alive)
                .find_map(|r| {
                    let manifest = r.backend.session_manifest(conv)?;
                    (manifest.total_tokens() > 0).then(|| (r.backend.now(), manifest))
                });
            let Some((now, manifest)) = owner else {
                continue; // tracked nowhere: the stored record stands
            };
            if self.cold_store.holds(&manifest) {
                continue;
            }
            let torn = roll_torn(&mut self.manifest_faults);
            let tokens = manifest.total_tokens();
            let bytes = self.cold_store.put(manifest, torn);
            self.manifests_persisted += 1;
            if torn {
                self.torn_manifests += 1;
                self.manifest_recheck.insert(conv);
            }
            self.recorder.record(TraceEvent::ManifestPersisted {
                at: now,
                conv: conv.0,
                tokens,
                bytes: bytes as u64,
                torn,
            });
        }

        // Differential check, every barrier of every in-crate test: the
        // parent's walk over the pre-barrier store, tearing exactly the
        // sessions this barrier tore, must leave the same bytes.
        #[cfg(test)]
        {
            let torn_now = &self.manifest_recheck;
            Self::reference_walk(&self.replicas, &mut shadow, |c| torn_now.contains(&c));
            assert_eq!(
                shadow, self.cold_store,
                "change-driven barrier diverged from the walk-everything reference"
            );
        }
    }

    /// The parent commit's `persist_manifests`, kept as the reference
    /// the change-driven barrier is checked against: walk every alive
    /// replica in index order and every session it tracks, *decode* the
    /// stored record to compare, and rewrite on any difference — so a
    /// session tracked by two replicas with diverging layouts is
    /// rewritten by both at every barrier, the last (highest-index)
    /// writer winning. `tear` decides each write's fate. Returns
    /// `(writes, torn writes)`.
    #[cfg(test)]
    fn reference_walk(
        replicas: &[Replica<B>],
        store: &mut ColdObjectStore,
        mut tear: impl FnMut(SessionId) -> bool,
    ) -> (u64, u64) {
        let (mut writes, mut torn_writes) = (0, 0);
        for rep in replicas.iter().filter(|r| r.alive) {
            for conv in rep.backend.manifest_sessions() {
                let Some(manifest) = rep.backend.session_manifest(conv) else {
                    continue;
                };
                if manifest.total_tokens() == 0 {
                    continue;
                }
                if store.get(conv).is_ok_and(|m| m == manifest) {
                    continue; // unchanged since the last barrier
                }
                let torn = tear(conv);
                store.put(manifest, torn);
                writes += 1;
                torn_writes += u64::from(torn);
            }
        }
        (writes, torn_writes)
    }

    /// Attempts to rebuild an orphaned session from its cold-store
    /// manifest on the least-loaded survivor. Returns the replica that
    /// now holds the rehydrated (cold-tier) chunks, or `None` when the
    /// session must recompute instead: persistence off, no manifest, a
    /// torn manifest (recorded as a [`RecoveryKind::TornManifest`]
    /// recovery), or the survivor refused the chunks.
    fn try_rehydrate(&mut self, conv: SessionId, cap: usize, t: SimTime) -> Option<usize> {
        if !self.cfg.manifest_persistence {
            return None;
        }
        let manifest = match self.cold_store.get(conv) {
            Ok(m) => m,
            Err(ManifestError::Missing) => return None,
            Err(ManifestError::Torn) => {
                // The record failed its checksum: drop it so the next
                // barrier re-persists a clean one, and recompute now.
                self.cold_store.remove(conv);
                self.recheck_manifest(conv);
                self.recorder.record(TraceEvent::FaultRecovery {
                    at: t,
                    conv: Some(conv.0),
                    kind: RecoveryKind::TornManifest,
                    tokens: 0,
                });
                return None;
            }
        };
        // Cap at the orphan's history: a partially committed turn
        // restarts from its original context, the same rule standby
        // promotion applies to replicated chunks.
        let mut chunks = Vec::new();
        let mut pos = 0usize;
        for m in &manifest.chunks {
            if pos >= cap {
                break;
            }
            let take = m.tokens.min(cap - pos);
            pos += take;
            // A truncated shared chunk cannot re-attach by id (attaching
            // would bring the whole chunk back); demote it to a private
            // cold entry of the capped size instead.
            let id = if take == m.tokens {
                m.id
            } else {
                ChunkId::NONE
            };
            chunks.push(ManifestChunk { id, tokens: take });
        }
        let capped = SessionManifest {
            session: conv,
            chunks,
        };
        if capped.total_tokens() == 0 {
            return None;
        }
        let (_, target) = self.least_loaded(None)?;
        let admitted = self
            .drive(target)
            .map_or(0, |b| b.rehydrate_session(&capped));
        // Even a refusal may leave the target tracking the session.
        self.recheck_manifest(conv);
        if admitted == 0 {
            return None;
        }
        self.affinity.insert(conv, target);
        self.rehydrations += 1;
        self.rehydrated_tokens += admitted as u64;
        self.recorder.record(TraceEvent::SessionRehydrated {
            at: t,
            conv: conv.0,
            tokens: admitted,
            replica: target,
        });
        Some(target)
    }

    /// Every counter, gauge and histogram the router itself owns, under
    /// its canonical name, as of this call; the replicas' own metrics are
    /// not included (see [`Router::fleet_metrics`]). Replication and
    /// manifest metrics appear only when that mechanism is configured,
    /// and the promotion-latency histogram only with a recorder attached
    /// (it is collected where `StandbyPromoted` is recorded).
    #[must_use]
    pub fn metrics(&self) -> MetricsRegistry {
        use metrics::names;
        let mut m = MetricsRegistry::new();
        m.counter_set(names::ROUTED_REQUESTS_TOTAL, self.routed);
        m.counter_set(names::MIGRATIONS_TOTAL, self.migrations);
        m.counter_set(names::MIGRATED_TOKENS_TOTAL, self.migrated_tokens);
        m.counter_set(
            names::MIGRATION_LOST_TOKENS_TOTAL,
            self.migration_lost_tokens,
        );
        m.counter_set(names::REPLICA_FAILURES_TOTAL, self.replica_failures);
        let mut lost_chunks = self.link.lost_chunks();
        let mut streamed_bytes = self.link.streamed_bytes();
        if let Some(rep) = &self.replication {
            lost_chunks += rep.link_lost_chunks();
            streamed_bytes += rep.link_streamed_bytes();
            m.counter_set(names::REPLICATED_TOKENS_TOTAL, rep.replicated_tokens());
            m.counter_set(names::STANDBY_BYTES_TOTAL, rep.standby_bytes());
            m.counter_set(names::STANDBY_PROMOTIONS_TOTAL, self.promotions);
            m.counter_set(
                names::RECOMPUTED_SUFFIX_TOKENS_TOTAL,
                self.recomputed_suffix_tokens,
            );
            m.gauge_set(
                names::REPLICATION_LAG_TOKENS,
                rep.max_pending_tokens() as f64,
            );
            if self.recorder.enabled() {
                m.histogram_set(
                    names::PROMOTION_LATENCY_SECONDS,
                    self.promotion_latency.clone(),
                );
            }
        }
        m.counter_set(names::LINK_LOST_CHUNKS_TOTAL, lost_chunks);
        m.counter_set(names::LINK_STREAMED_BYTES_TOTAL, streamed_bytes);
        if self.cfg.manifest_persistence {
            m.counter_set(names::MANIFESTS_PERSISTED_TOTAL, self.manifests_persisted);
            m.counter_set(names::SESSION_REHYDRATIONS_TOTAL, self.rehydrations);
        }
        m
    }

    /// Patches a drained response's arrival back to its original
    /// submission time, so migration/re-route wait counts as latency.
    fn patch_arrival(&mut self, mut resp: Response) -> Response {
        if let Some(orig) = self.origin_arrivals.remove(&resp.id) {
            resp.arrival = orig;
        }
        resp
    }

    /// Advances every alive replica to `horizon` — one conservative
    /// time window. Replicas are partitioned across the worker pool
    /// when one is installed alongside per-replica recorders; otherwise
    /// they step sequentially. Either way each replica's state after
    /// the window is a pure function of its own state before it, so the
    /// two paths are interchangeable (and the trace merge at the
    /// barrier keeps the event stream identical too).
    fn step_replicas_to(&mut self, horizon: SimTime) {
        if self.pool.threads() > 1 && self.replica_recorders.is_some() {
            self.pool.for_each_mut(&mut self.replicas, |_, r| {
                if r.alive {
                    r.driven = true;
                    r.backend.run_until(horizon);
                }
            });
        } else {
            for r in &mut self.replicas {
                if r.alive {
                    r.driven = true;
                    r.backend.run_until(horizon);
                }
            }
        }
        self.settle_all();
    }
}

impl Router<SimServingEngine> {
    /// The fleet's metrics: the router's own plus every replica's,
    /// summed name by name. Dead replicas still contribute, as in
    /// [`ServingBackend::cache_stats`]: their counters describe work
    /// that really happened before the failure.
    #[must_use]
    pub fn fleet_metrics(&self) -> MetricsRegistry {
        let mut total = self.metrics();
        for r in &self.replicas {
            total.merge(&r.backend.metrics());
        }
        total
    }
}

impl<B: ServingBackend + Send> ServingBackend for Router<B> {
    fn submit(&mut self, req: Request) {
        self.apply_due_failures(Some(req.arrival));
        self.dispatch(req);
    }

    fn poll(&mut self, deadline: Option<SimTime>) -> bool {
        loop {
            self.apply_due_failures(None);
            #[cfg(test)]
            self.check_fleet_view();
            if self.responses_ready() {
                return true;
            }
            // Cap each replica's advance at the next scheduled failure so
            // the injection lands before any later work is simulated.
            // Pending failures and router-created future arrivals count
            // as due work, so they may pull idle clocks forward even
            // under `deadline: None`.
            let frontier = OrdTime(self.now());
            while self.wakeups.peek().is_some_and(|w| w.0 <= frontier) {
                self.wakeups.pop();
            }
            let next_fail = self.scheduled_failures.first().map(|&(at, _)| at);
            let next_wake = match (next_fail, self.wakeups.peek().map(|w| w.0 .0)) {
                (Some(f), Some(w)) => Some(if w < f { w } else { f }),
                (f, w) => f.or(w),
            };
            let eff = match (deadline, next_wake) {
                (Some(d), Some(f)) => Some(if f < d { f } else { d }),
                (Some(d), None) => Some(d),
                (None, f) => f,
            };
            // Poll the laggard replica first: deterministic order, and the
            // cluster clock (the minimum) advances as fast as possible. A
            // replica that does not progress has moved neither its clock
            // nor its readiness, so only the one that did is re-seated.
            let mut progressed = false;
            let mut next = 0;
            while let Some(&(before, i)) = self.clocks.get(next) {
                next += 1;
                let Some(backend) = self.drive(i) else {
                    continue;
                };
                let ready = backend.poll(eff);
                if ready || OrdTime(backend.now()) > before {
                    self.settle(i);
                    progressed = true;
                    break;
                }
            }
            if !progressed {
                // Nothing due anywhere (and any due failures were applied
                // at the top of the loop): with a deadline every alive
                // clock has reached it; without one we must not advance.
                self.apply_due_failures(None);
                return self.responses_ready();
            }
            // Replication keeps pace with generation: stream whatever the
            // step just committed before simulating further work (and in
            // particular before any scheduled crash lands).
            self.pump_replication();
        }
    }

    fn responses_ready(&self) -> bool {
        !self.buffered.is_empty() || self.ready > 0
    }

    fn drain_responses(&mut self) -> Vec<Response> {
        self.apply_due_failures(None);
        self.pump_replication();
        let sync = self
            .replication
            .as_ref()
            .is_some_and(|r| r.mode() == ReplicationMode::Sync);
        let mut out = std::mem::take(&mut self.buffered);
        for i in 0..self.replicas.len() {
            let Some(rep) = self.replicas.get_mut(i) else {
                break;
            };
            if !rep.alive {
                continue;
            }
            let mut fresh = rep.backend.drain_responses();
            rep.ready = false;
            let bytes_per_token = rep.backend.kv_bytes_per_token();
            if sync {
                // Turn-commit barrier: the turn is not finished until its
                // KV delta is durable on the standby. The pump above
                // flushed eagerly, so this usually covers only the final
                // partial delta; a lost flush retries on the spot.
                for resp in &mut fresh {
                    let Some(rep) = self.replication.as_mut() else {
                        break;
                    };
                    if let Some(end) =
                        rep.flush(resp.conv, resp.finish, bytes_per_token, 3, &self.recorder)
                    {
                        resp.finish = resp.finish.max(end);
                    }
                }
            }
            out.extend(fresh);
        }
        self.ready = 0;
        let mut out: Vec<Response> = out.into_iter().map(|r| self.patch_arrival(r)).collect();
        out.sort_by_key(|r| (OrdTime(r.finish), r.id));
        out
    }

    fn now(&self) -> SimTime {
        // The cluster's frontier is the slowest alive replica: everything
        // before it is fully simulated. With no survivors, freeze at the
        // fastest clock ever reached.
        self.clocks.first().map_or_else(
            || {
                self.replicas
                    .iter()
                    .map(|r| r.backend.now())
                    .fold(SimTime::ZERO, SimTime::max)
            },
            |&(t, _)| t.0,
        )
    }

    fn run_until(&mut self, t: SimTime) {
        // Windowed stepping: stop at each scheduled failure first so the
        // injection lands before later work is simulated. Within each
        // window replicas are independent, so `step_replicas_to` may
        // fan them out across the worker pool.
        while let Some(&(at, _)) = self.scheduled_failures.first() {
            if at > t {
                break;
            }
            self.step_replicas_to(at);
            // Stream everything committed up to the crash instant before
            // the injection lands: KV already on the wire survives, and
            // the victim's unflushed tail is exactly the failover lag.
            self.pump_replication();
            self.apply_due_failures(Some(at));
        }
        self.step_replicas_to(t);
        self.pump_replication();
    }

    fn is_idle(&self) -> bool {
        self.buffered.is_empty() && self.alive_backends().all(|(_, b)| b.is_idle())
    }

    fn running_requests(&self) -> usize {
        self.alive_backends()
            .map(|(_, b)| b.running_requests())
            .sum()
    }

    fn waiting_requests(&self) -> usize {
        self.alive_backends()
            .map(|(_, b)| b.waiting_requests())
            .sum()
    }

    fn gpu_slots_used(&self) -> usize {
        self.alive_backends().map(|(_, b)| b.gpu_slots_used()).sum()
    }

    fn gpu_capacity_tokens(&self) -> usize {
        self.alive_backends()
            .map(|(_, b)| b.gpu_capacity_tokens())
            .sum()
    }

    fn cpu_tokens_used(&self) -> usize {
        self.alive_backends()
            .map(|(_, b)| b.cpu_tokens_used())
            .sum()
    }

    fn kv_bytes_per_token(&self) -> usize {
        // The fleet is uniform by construction (same model, same
        // hardware), so replica 0 speaks for everyone.
        self.replicas
            .first()
            .map_or(0, |r| r.backend.kv_bytes_per_token())
    }

    fn cached_tokens(&self, session: SessionId) -> usize {
        self.affinity
            .get(&session)
            .and_then(|&i| self.replicas.get(i))
            .filter(|r| r.alive)
            .map_or(0, |r| r.backend.cached_tokens(session))
    }

    fn cache_stats(&self) -> CacheStats {
        // Dead replicas still contribute: their counters describe work
        // that really happened before the failure.
        let mut total = CacheStats::default();
        for r in &self.replicas {
            total.merge(&r.backend.cache_stats());
        }
        total
    }

    fn export_session(&mut self, session: SessionId) -> Option<SessionExport> {
        let &i = self.affinity.get(&session)?;
        if !self.replicas.get(i).is_some_and(|r| r.alive) {
            return None;
        }
        let export = self.drive(i)?.export_session(session)?;
        self.recheck_manifest(session);
        self.affinity.remove(&session);
        Some(export)
    }

    fn import_session(&mut self, export: SessionExport) -> usize {
        let Some((_, target)) = self.least_loaded(None) else {
            return 0;
        };
        let session = export.session;
        let admitted = self.drive(target).map_or(0, |b| b.import_session(export));
        self.recheck_manifest(session);
        self.affinity.insert(session, target);
        admitted
    }

    fn fail_stop(&mut self) -> Vec<Request> {
        let mut orphans = Vec::new();
        for r in &mut self.replicas {
            if r.alive {
                self.buffered.extend(r.backend.drain_responses());
                orphans.extend(r.backend.fail_stop());
                r.alive = false;
            }
        }
        // Requests parked while every replica was dead were accepted but
        // never placed: they are orphans too, owed to the caller rather
        // than silently dropped. Pending injections and wakeups die with
        // the cluster.
        orphans.extend(std::mem::take(&mut self.parked));
        self.settle_all();
        self.scheduled_failures.clear();
        self.wakeups.clear();
        self.affinity.clear();
        orphans
    }

    // A router is not itself replicable: its barriers drain the
    // replicas' commit logs and persist their manifests, so it has no
    // log, manifest or rehydration of its own to offer a caller.

    fn take_committed_kv(&mut self) -> Vec<(SessionId, usize)> {
        Vec::new()
    }

    fn manifest_sessions(&self) -> Vec<SessionId> {
        Vec::new()
    }

    fn session_manifest(&self, _session: SessionId) -> Option<SessionManifest> {
        None
    }

    fn rehydrate_session(&mut self, _manifest: &SessionManifest) -> usize {
        0
    }
}

// A `cfg(test)` child of this module so it can read the router's
// private state, and so clippy's test exemptions apply to it.
#[cfg(test)]
#[path = "tests/barrier.rs"]
mod barrier_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use pensieve_core::{EngineConfig, SimServingEngine};
    use pensieve_model::{HardwareSpec, ModelConfig};

    fn engine() -> SimServingEngine {
        SimServingEngine::builder(
            EngineConfig::pensieve(),
            ModelConfig::opt_13b(),
            HardwareSpec::azure_nc_a100(1),
        )
        .build()
    }

    fn cluster(n: usize, policy: RouterPolicy, cfg: RouterConfig) -> Router<SimServingEngine> {
        Router::new((0..n).map(|_| engine()).collect(), policy, cfg)
    }

    fn req(id: u64, conv: u64, at: f64, prompt: usize, out: usize, hist: usize) -> Request {
        Request::builder()
            .id(RequestId(id))
            .session(SessionId(conv))
            .arrival(SimTime::from_secs(at))
            .prompt_tokens(prompt)
            .output_tokens(out)
            .history_tokens(hist)
            .build()
            .unwrap()
    }

    fn drain_all(r: &mut Router<SimServingEngine>) -> Vec<Response> {
        let mut out = Vec::new();
        for _ in 0..1000 {
            r.run_until(r.now() + pensieve_model::SimDuration::from_secs(1000.0));
            out.extend(r.drain_responses());
            if r.is_idle() && r.parked_requests() == 0 {
                break;
            }
        }
        out
    }

    #[test]
    fn round_robin_cycles_over_replicas() {
        let mut r = cluster(3, RouterPolicy::RoundRobin, RouterConfig::default());
        for i in 0..4 {
            r.submit(req(i, i, 0.0, 64, 8, 0));
        }
        let depths: Vec<usize> = (0..3).map(|i| r.replica(i).queue_depth()).collect();
        assert_eq!(depths, vec![2, 1, 1]);
    }

    #[test]
    fn least_loaded_prefers_shallowest_queue() {
        let mut r = cluster(2, RouterPolicy::LeastLoaded, RouterConfig::default());
        r.submit(req(0, 0, 0.0, 64, 512, 0));
        r.submit(req(1, 1, 0.0, 64, 8, 0));
        r.submit(req(2, 2, 0.0, 64, 8, 0));
        // 0 -> replica 0 (tie, lowest index), 1 -> replica 1, 2 -> either
        // at depth 1 each -> lowest index.
        assert_eq!(r.replica(0).queue_depth(), 2);
        assert_eq!(r.replica(1).queue_depth(), 1);
    }

    #[test]
    fn cache_aware_sticks_to_affine_replica() {
        let mut r = cluster(4, RouterPolicy::CacheAware, RouterConfig::default());
        r.submit(req(0, 7, 0.0, 256, 64, 0));
        let first = drain_all(&mut r);
        assert_eq!(first.len(), 1);
        assert!(r.cached_tokens(SessionId(7)) > 0, "turn 1 left KV behind");
        // Follow-up turn: must land on the replica holding the cache.
        r.submit(req(1, 7, 50.0, 64, 32, 320));
        let second = drain_all(&mut r);
        assert_eq!(second.len(), 1);
        assert!(
            second[0].cached_history_tokens > 0,
            "affine routing found no cached history"
        );
    }

    #[test]
    fn saturation_triggers_migration_and_preserves_cache() {
        let cfg = RouterConfig {
            saturation_depth: 2,
            ..RouterConfig::default()
        };
        let mut r = cluster(2, RouterPolicy::CacheAware, cfg);
        // Three conversations complete a turn each; ties route them all
        // to replica 0, which now holds all the KV state.
        for (id, conv) in [(0u64, 1u64), (1, 2), (2, 3)] {
            r.submit(req(id, conv, 0.0, 512, 64, 0));
            let done = drain_all(&mut r);
            assert_eq!(done.len(), 1);
        }
        let t = r.now().as_secs() + 1.0;
        // Two long follow-ups saturate replica 0 (their cache pins them
        // there)...
        r.submit(req(10, 2, t, 64, 512, 576));
        r.submit(req(11, 3, t, 64, 512, 576));
        assert_eq!(r.replica(0).queue_depth(), 2);
        // ...so conversation 1's follow-up migrates to replica 1.
        r.submit(req(12, 1, t, 64, 64, 576));
        assert_eq!(r.migrations(), 1, "saturated affine replica must migrate");
        assert!(r.migrated_tokens() > 0);
        let done = drain_all(&mut r);
        assert_eq!(done.len(), 3);
        let moved = done.iter().find(|resp| resp.id == RequestId(12)).unwrap();
        assert!(
            moved.cached_history_tokens > 0,
            "migrated KV should still produce cache hits at the target"
        );
        assert_eq!(
            moved.arrival,
            SimTime::from_secs(t),
            "latency must include the migration wait (original arrival)"
        );
        assert!(
            r.cached_tokens(SessionId(1)) > 0,
            "affinity moved with the KV"
        );
    }

    #[test]
    fn lost_chunks_fall_back_to_recomputation() {
        let cfg = RouterConfig {
            saturation_depth: 2,
            link: NodeLinkSpec::lossy_25g(1.0, 9), // every chunk lost
            ..RouterConfig::default()
        };
        let mut r = cluster(2, RouterPolicy::CacheAware, cfg);
        for (id, conv) in [(0u64, 1u64), (1, 2), (2, 3)] {
            r.submit(req(id, conv, 0.0, 512, 64, 0));
            let _ = drain_all(&mut r);
        }
        let t = r.now().as_secs() + 1.0;
        r.submit(req(10, 2, t, 64, 512, 576));
        r.submit(req(11, 3, t, 64, 512, 576));
        r.submit(req(12, 1, t, 64, 64, 576));
        assert_eq!(r.migrations(), 1);
        assert!(r.migration_lost_tokens() > 0, "lossy link must lose chunks");
        let done = drain_all(&mut r);
        // The turn still completes correctly: lost KV is recomputed.
        let moved = done.iter().find(|resp| resp.id == RequestId(12)).unwrap();
        assert_eq!(moved.output_tokens, 64);
        assert_eq!(
            moved.prefill_tokens + moved.cached_history_tokens,
            64 + 576,
            "every context token is either cached or recomputed, never lost"
        );
    }

    #[test]
    fn replica_failure_requeues_in_flight_work() {
        let mut r = cluster(2, RouterPolicy::RoundRobin, RouterConfig::default());
        r.fail_replica_at(0, SimTime::from_secs(0.5));
        r.submit(req(0, 1, 0.0, 64, 2000, 0)); // replica 0, dies mid-decode
        r.submit(req(1, 2, 0.0, 64, 8, 0)); // replica 1
        let done = drain_all(&mut r);
        assert_eq!(r.alive_replicas(), vec![1]);
        assert_eq!(
            done.len(),
            2,
            "orphaned request must complete on a survivor"
        );
        let restarted = done.iter().find(|resp| resp.id == RequestId(0)).unwrap();
        assert_eq!(restarted.output_tokens, 2000);
        assert_eq!(
            restarted.arrival,
            SimTime::ZERO,
            "latency spans the failure (original arrival restored)"
        );
        assert!(restarted.finish > SimTime::from_secs(0.5));
    }

    #[test]
    fn cluster_runs_are_deterministic() {
        let run = || {
            let cfg = RouterConfig {
                saturation_depth: 2,
                link: NodeLinkSpec::lossy_25g(0.5, 42),
                ..RouterConfig::default()
            };
            let mut r = cluster(2, RouterPolicy::CacheAware, cfg);
            r.fail_replica_at(1, SimTime::from_secs(40.0));
            for (id, conv) in [(0u64, 1u64), (1, 2), (2, 3)] {
                r.submit(req(id, conv, 0.0, 512, 64, 0));
                let _ = drain_all(&mut r);
            }
            let t = r.now().as_secs() + 1.0;
            r.submit(req(10, 2, t, 64, 512, 576));
            r.submit(req(11, 3, t, 64, 512, 576));
            r.submit(req(12, 1, t, 64, 64, 576));
            let mut done = drain_all(&mut r);
            done.sort_by_key(|resp| resp.id);
            done.iter()
                .map(|resp| (resp.id.0, resp.finish.as_secs(), resp.cached_history_tokens))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn router_fail_stop_orphans_everything() {
        let mut r = cluster(2, RouterPolicy::RoundRobin, RouterConfig::default());
        r.submit(req(0, 1, 0.0, 64, 100, 0));
        r.submit(req(1, 2, 0.0, 64, 100, 0));
        let orphans = r.fail_stop();
        assert_eq!(orphans.len(), 2);
        assert!(r.alive_replicas().is_empty());
        assert!(r.is_idle());
    }

    #[test]
    fn router_fail_stop_returns_parked_requests() {
        let mut r = cluster(1, RouterPolicy::RoundRobin, RouterConfig::default());
        r.fail_replica_at(0, SimTime::ZERO);
        // The arrival reaches the scheduled failure first, so the request
        // finds every replica dead and parks.
        r.submit(req(0, 1, 1.0, 64, 8, 0));
        assert_eq!(r.parked_requests(), 1);
        let orphans = r.fail_stop();
        assert_eq!(
            orphans.len(),
            1,
            "parked requests are owed to the caller, not dropped"
        );
        assert_eq!(r.parked_requests(), 0);
    }
}

/// One manifest write's torn-write roll; never torn without an injector.
fn roll_torn(faults: &mut Option<FaultInjector>) -> bool {
    faults
        .as_mut()
        .is_some_and(|f| f.roll(FaultKind::TornManifestWrite))
}

/// Total order over [`SimTime`] for sort keys (simulated times are always
/// finite; NaN cannot arise from the engines).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdTime(SimTime);

impl Eq for OrdTime {}

impl PartialOrd for OrdTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .unwrap_or(std::cmp::Ordering::Equal)
    }
}
