//! The [`ServingBackend`] trait: the polymorphic seam between workload
//! drivers and anything that serves requests.
//!
//! [`crate::SimServingEngine`] is one implementation (a single replica);
//! `pensieve-cluster`'s `Router` is another (N replicas behind a
//! placement policy), and the router *also drives its replicas only
//! through this trait*, so a backend never needs to be a concrete
//! engine. The contract splits into four groups:
//!
//! * **Work flow** — [`submit`](ServingBackend::submit),
//!   [`poll`](ServingBackend::poll),
//!   [`responses_ready`](ServingBackend::responses_ready),
//!   [`drain_responses`](ServingBackend::drain_responses).
//! * **Clock** — [`now`](ServingBackend::now),
//!   [`run_until`](ServingBackend::run_until). Simulated time only ever
//!   moves forward, and only inside `poll` and `run_until`, which are
//!   also the only calls that make a response ready; `poll(None)` must
//!   not advance the clock past the present (see the fair-polling note
//!   on [`ServingBackend::poll`]).
//! * **Capacity and cache introspection** — queue depths, GPU/CPU
//!   occupancy, per-session cached tokens, aggregate [`CacheStats`].
//!   Everything a placement policy may read; all side-effect free.
//! * **State handoff** — [`export_session`](ServingBackend::export_session),
//!   [`import_session`](ServingBackend::import_session),
//!   [`fail_stop`](ServingBackend::fail_stop): the migration and
//!   fault-recovery primitives (DéjàVu-style KV streaming, with
//!   Pensieve's dropped-token recomputation as the fallback).
//!
//! The trait states the contract; each implementation's bodies, and the
//! documentation of what is particular to it, live in its
//! `impl ServingBackend for …` block and nowhere else. The engine has no
//! inherent method of the same name as a trait method, so calling the
//! engine directly means importing this trait. The two exceptions are
//! `SimServingEngine::cache_stats`, which returns a reference where the
//! trait returns a snapshot, and the field getter
//! `SimServingEngine::kv_bytes_per_token`, which harness code calls on a
//! throwaway engine to size a hardware spec.

use pensieve_kvcache::{CacheStats, SessionExport, SessionId, SessionManifest};
use pensieve_model::SimTime;

use crate::request::{Request, Response};

/// A serving system that accepts requests and produces responses on a
/// simulated clock. See the [module docs](self) for the contract.
pub trait ServingBackend {
    /// Enqueues a request. Admission is FCFS in submission order; a
    /// request whose arrival lies in the backend's past is admissible
    /// immediately.
    fn submit(&mut self, req: Request);

    /// Runs until the clock reaches `deadline` (if given), at least one
    /// response is ready to drain, or no more work is due — whichever
    /// comes first. Returns true if a response is ready.
    ///
    /// With `deadline: None` the backend must not advance its clock past
    /// the present when it has nothing due: it returns `false` instead.
    /// Fair multi-backend polling loops rely on this to interleave
    /// progress without one backend's clock leaping ahead.
    fn poll(&mut self, deadline: Option<SimTime>) -> bool;

    /// True if at least one completed response is waiting to be drained.
    fn responses_ready(&self) -> bool;

    /// Drains completed responses, in completion order.
    fn drain_responses(&mut self) -> Vec<Response>;

    /// Current simulated time.
    fn now(&self) -> SimTime;

    /// Runs until the clock reaches `t` (work in flight at `t` finishes;
    /// the clock may overshoot) or all submitted work completes.
    fn run_until(&mut self, t: SimTime);

    /// True if no request is running or waiting.
    fn is_idle(&self) -> bool;

    /// Requests currently in the running batch.
    fn running_requests(&self) -> usize;

    /// Requests currently waiting for admission.
    fn waiting_requests(&self) -> usize;

    /// Total requests on the backend (running + waiting) — the load
    /// signal placement policies balance on.
    fn queue_depth(&self) -> usize {
        self.running_requests() + self.waiting_requests()
    }

    /// GPU KV slots currently in use (tokens).
    fn gpu_slots_used(&self) -> usize;

    /// Total GPU KV slot capacity (tokens).
    fn gpu_capacity_tokens(&self) -> usize;

    /// CPU cache tokens currently in use.
    fn cpu_tokens_used(&self) -> usize;

    /// KV bytes per cached token — what a migration must stream per
    /// token of exported context.
    fn kv_bytes_per_token(&self) -> usize;

    /// History tokens of `session` servable from this backend's KV cache
    /// right now (excluding any globally shared prefix, which every
    /// backend holds and thus never differentiates placement).
    fn cached_tokens(&self, session: SessionId) -> usize;

    /// Aggregate cache statistics snapshot. For composite backends this
    /// is the field-wise sum over constituents.
    fn cache_stats(&self) -> CacheStats;

    /// Removes `session`'s KV state for handoff. `None` when the session
    /// is unknown or still has in-flight work here.
    fn export_session(&mut self, session: SessionId) -> Option<SessionExport>;

    /// Installs a handed-off session snapshot; returns the tokens
    /// admitted to cache (0 when the import is refused and the session
    /// will recompute instead).
    fn import_session(&mut self, export: SessionExport) -> usize;

    /// Fail-stop: the backend dies, its KV state is unrecoverable, and
    /// every queued or running request is orphaned and returned for
    /// re-routing. Partial output is discarded; completed responses
    /// remain drainable.
    fn fail_stop(&mut self) -> Vec<Request>;

    /// Drains the backend's KV commit log: sessions whose committed
    /// (cache-resident) context grew since the last drain, each with its
    /// new total committed token count, in `SessionId` order. A
    /// replication stream consumes this to learn what delta to ship to a
    /// standby; backends with no commit tracking return nothing and are
    /// simply not replicable. Commits land only inside `submit`, `poll`,
    /// `run_until` and the state-handoff calls, so a caller need only
    /// drain backends it just drove.
    fn take_committed_kv(&mut self) -> Vec<(SessionId, usize)> {
        Vec::new()
    }

    /// Sessions whose cache state is eligible for cold-tier manifest
    /// persistence, in ascending id order. Backends without manifest
    /// support return nothing and their sessions are simply not
    /// rehydratable across restarts.
    fn manifest_sessions(&self) -> Vec<SessionId> {
        Vec::new()
    }

    /// Drains the sessions whose [`session_manifest`] may have changed
    /// since the last drain — grown, imported, rehydrated, forked, or
    /// gone from this backend — in ascending id order. A superset is
    /// always legal, so the default reports everything: a backend (or a
    /// decorator written before this method existed) that does not track
    /// changes stays correct and merely costs its caller a full walk.
    /// The default cannot name sessions that *left*; a caller that
    /// removes one itself ([`export_session`]) must account for that.
    /// Layouts move only inside `poll`, `run_until` and the state-handoff
    /// calls, so a caller need only drain backends it just drove.
    ///
    /// [`session_manifest`]: ServingBackend::session_manifest
    /// [`export_session`]: ServingBackend::export_session
    fn take_manifest_dirty(&mut self) -> Vec<SessionId> {
        self.manifest_sessions()
    }

    /// Builds a cold-tier manifest of `session`'s chunk layout for
    /// persistence, or `None` when the backend does not track the
    /// session (or does not support manifests).
    fn session_manifest(&self, _session: SessionId) -> Option<SessionManifest> {
        None
    }

    /// Rebuilds a session from a persisted manifest (chunks re-admitted
    /// at the cold tier, up to capacity); returns the tokens admitted.
    /// Backends without manifest support refuse with 0 and the session
    /// recomputes instead.
    fn rehydrate_session(&mut self, _manifest: &SessionManifest) -> usize {
        0
    }
}
