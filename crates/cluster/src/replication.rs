//! Streaming KV replication to a standby replica.
//!
//! Pensieve's single-node recovery story is recompute-from-raw-tokens:
//! when KV state is lost, the dropped-token pipeline rebuilds it. That is
//! correct but pays the full prefill cost of the lost context. DéjàVu
//! showed the alternative for stateful serving: continuously stream
//! newly committed KV deltas to a standby node, so a fail-stop loses at
//! most the *unreplicated suffix* — everything older is already safe and
//! imports through the same session-export path migration uses.
//!
//! This module owns the replication bookkeeping; the [`Router`]
//! (`router.rs`) drives it:
//!
//! * After every scheduling step the router drains each replica's commit
//!   log ([`ServingBackend::take_committed_kv`]) and hands the deltas to
//!   `Replicator::observe`. Deltas beyond the flush threshold stream
//!   to the session's standby over a per-source [`NodeLink`].
//! * [`ReplicationMode::Async`] bounds the replication lag: at most
//!   `flush_threshold_tokens` committed-but-unflushed tokens per session
//!   (plus whatever is still on the wire), never delaying a response.
//! * [`ReplicationMode::Sync`] adds a turn-commit barrier: a response is
//!   not reported finished until its turn's KV delta is durable on the
//!   standby, trading tail latency for a zero-loss failover.
//! * On fail-stop the router calls `Replicator::take_failover`: the
//!   delivered chunks materialize on the standby via `import_session`,
//!   and only the unreplicated suffix flows through dropped-chunk
//!   recomputation — failover and migration share one code path.
//!
//! Everything is deterministic: the per-source links derive their loss
//! and partition seeds from the configured link seed and the replica
//! index, so a fleet-wide run has a stable trace hash.
//!
//! [`Router`]: crate::Router
//! [`ServingBackend::take_committed_kv`]: pensieve_core::ServingBackend::take_committed_kv

#![deny(clippy::indexing_slicing)]

use std::collections::{BTreeMap, BTreeSet};

use pensieve_kvcache::SessionId;
use pensieve_model::SimTime;
use pensieve_obs::{Recorder as _, SharedRecorder, TraceEvent};
use pensieve_sim::{NodeLink, NodeLinkSpec};

/// Whether and how committed KV streams to a standby.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationMode {
    /// No replication: failover recomputes everything from raw tokens.
    Disabled,
    /// Stream deltas in the background; replication lag is bounded by
    /// the flush threshold but a crash loses the unreplicated suffix.
    Async,
    /// Turn-commit barrier: a turn is reported finished only once its KV
    /// delta is delivered to the standby.
    Sync,
}

/// Replication knobs. The default is `Disabled` so existing cluster
/// configurations (and their pinned benchmark traces) are unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicationConfig {
    /// Replication mode.
    pub mode: ReplicationMode,
    /// Async mode flushes a session once at least this many committed
    /// tokens are pending — the bounded replication lag `L`. Sync mode
    /// flushes every pending delta at each pump regardless.
    pub flush_threshold_tokens: usize,
    /// Shape of each source replica's replication link. Per-replica
    /// links derive decorrelated seeds from this spec's seed.
    pub link: NodeLinkSpec,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            mode: ReplicationMode::Disabled,
            flush_threshold_tokens: 64,
            link: NodeLinkSpec::datacenter_25g(),
        }
    }
}

/// Per-session replication state.
#[derive(Debug, Clone)]
pub(crate) struct SessionRepl {
    /// Replica whose commits this state mirrors.
    pub(crate) primary: usize,
    /// Replica holding the replicated copy.
    pub(crate) standby: usize,
    /// Delivered deltas in stream order: `(tokens, usable_at)`. A chunk
    /// streamed before a crash still delivers (it was on the wire);
    /// promotion readiness waits for the last delivery.
    pub(crate) chunks: Vec<(usize, SimTime)>,
    /// Tokens safely delivered to the standby (sum over `chunks`).
    pub(crate) replicated: usize,
    /// Tokens committed at the primary (latest commit-log total).
    pub(crate) committed: usize,
}

/// Replication bookkeeping: per-source links, per-session lag state, and
/// fleet-wide counters. Crate-private; the router is the only driver.
#[derive(Debug)]
pub(crate) struct Replicator {
    cfg: ReplicationConfig,
    /// One link per *source* replica (its NIC toward the standby), so a
    /// chatty replica cannot serialize everyone else's flushes.
    links: Vec<NodeLink>,
    sessions: BTreeMap<SessionId, SessionRepl>,
    /// Per primary, the sessions whose pending delta has reached the
    /// flush threshold: what [`Replicator::due_flushes`] returns without
    /// scanning `sessions`. Maintained wherever `committed`, `replicated`
    /// or a binding moves, so a lost flush and a standby-loss reset stay
    /// due with no new commit.
    due: Vec<BTreeSet<SessionId>>,
    replicated_tokens: u64,
    standby_bytes: u64,
    lost_flushes: u64,
}

impl Replicator {
    pub(crate) fn new(cfg: ReplicationConfig, replicas: usize) -> Self {
        let links = (0..replicas)
            .map(|i| {
                // Decorrelate the per-source streams: same golden-ratio
                // seed derivation the rest of the workspace uses.
                let stride = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut spec = cfg.link.clone();
                spec.seed = spec.seed.wrapping_add(stride);
                if let Some(p) = &mut spec.partition {
                    p.seed = p.seed.wrapping_add(stride);
                }
                NodeLink::new(spec)
            })
            .collect();
        Replicator {
            cfg,
            links,
            sessions: BTreeMap::new(),
            due: vec![BTreeSet::new(); replicas],
            replicated_tokens: 0,
            standby_bytes: 0,
            lost_flushes: 0,
        }
    }

    pub(crate) fn mode(&self) -> ReplicationMode {
        self.cfg.mode
    }

    /// Pending tokens at which a session is due a flush: every pending
    /// delta in sync mode, the configured lag bound otherwise.
    fn threshold(&self) -> usize {
        match self.cfg.mode {
            ReplicationMode::Sync => 1,
            _ => self.cfg.flush_threshold_tokens.max(1),
        }
    }

    /// Re-derives `conv`'s membership of its primary's due set from its
    /// state `s`; called after every change to that state.
    fn refresh_due(
        due: &mut [BTreeSet<SessionId>],
        threshold: usize,
        conv: SessionId,
        s: &SessionRepl,
    ) {
        let Some(due) = due.get_mut(s.primary) else {
            return;
        };
        if s.committed.saturating_sub(s.replicated) >= threshold {
            due.insert(conv);
        } else {
            due.remove(&conv);
        }
    }

    /// Records a commit-log observation: `committed` is the session's new
    /// total committed context at `primary`, mirrored toward `standby`.
    ///
    /// A binding change (the session migrated, or its standby died and a
    /// new one was elected) invalidates the replicated copy — the old
    /// standby's chunks are unreachable from the new pair — so the state
    /// resets and the whole context re-replicates from scratch.
    pub(crate) fn observe(
        &mut self,
        conv: SessionId,
        primary: usize,
        standby: usize,
        committed: usize,
    ) {
        let threshold = self.threshold();
        let e = self.sessions.entry(conv).or_insert(SessionRepl {
            primary,
            standby,
            chunks: Vec::new(),
            replicated: 0,
            committed: 0,
        });
        if e.primary != primary || e.standby != standby {
            if let Some(due) = self.due.get_mut(e.primary) {
                due.remove(&conv);
            }
            e.primary = primary;
            e.standby = standby;
            e.chunks.clear();
            e.replicated = 0;
        }
        e.committed = e.committed.max(committed);
        Self::refresh_due(&mut self.due, threshold, conv, e);
    }

    /// Sessions bound to `primary` whose pending delta has reached the
    /// flush threshold, in deterministic (session id) order.
    pub(crate) fn due_flushes(&self, primary: usize) -> Vec<SessionId> {
        let due: Vec<SessionId> = self
            .due
            .get(primary)
            .map_or_else(Vec::new, |d| d.iter().copied().collect());
        #[cfg(test)]
        assert_eq!(due, self.due_flushes_scan(primary), "due set drifted");
        due
    }

    /// The walk-everything definition of [`Replicator::due_flushes`],
    /// kept as the reference the maintained set is checked against.
    #[cfg(test)]
    fn due_flushes_scan(&self, primary: usize) -> Vec<SessionId> {
        let threshold = self.threshold();
        self.sessions
            .iter()
            .filter(|(_, s)| {
                s.primary == primary && s.committed.saturating_sub(s.replicated) >= threshold
            })
            .map(|(&conv, _)| conv)
            .collect()
    }

    /// Streams `conv`'s pending delta (everything committed but not yet
    /// replicated) to its standby as one chunk, retrying a lost chunk up
    /// to `attempts` times. Returns the delivery time, or `None` when
    /// nothing was pending or every attempt was lost (the tokens stay
    /// pending and are retried at the next pump).
    pub(crate) fn flush(
        &mut self,
        conv: SessionId,
        at: SimTime,
        bytes_per_token: usize,
        attempts: usize,
        rec: &Option<SharedRecorder>,
    ) -> Option<SimTime> {
        let threshold = self.threshold();
        let s = self.sessions.get_mut(&conv)?;
        let pending = s.committed.saturating_sub(s.replicated);
        if pending == 0 {
            return None;
        }
        let link = self.links.get_mut(s.primary)?;
        let bytes = pending * bytes_per_token;
        for _ in 0..attempts.max(1) {
            match link.stream_chunk(at, bytes) {
                Ok((_start, end)) => {
                    s.chunks.push((pending, end));
                    s.replicated += pending;
                    Self::refresh_due(&mut self.due, threshold, conv, s);
                    self.replicated_tokens += pending as u64;
                    self.standby_bytes += bytes as u64;
                    rec.record(TraceEvent::ReplicationFlush {
                        at: end,
                        conv: conv.0,
                        from: s.primary,
                        to: s.standby,
                        tokens: pending,
                        bytes: bytes as u64,
                        lost: false,
                    });
                    return Some(end);
                }
                Err(lost) => {
                    // Wire time was spent but nothing landed; the delta
                    // stays pending for the retry (here or next pump).
                    self.lost_flushes += 1;
                    self.standby_bytes += bytes as u64;
                    rec.record(TraceEvent::ReplicationFlush {
                        at: lost.completes,
                        conv: conv.0,
                        from: s.primary,
                        to: s.standby,
                        tokens: pending,
                        bytes: bytes as u64,
                        lost: true,
                    });
                }
            }
        }
        None
    }

    /// Removes and returns the replication state of every session whose
    /// primary just failed (the promotion set). Sessions whose *standby*
    /// was the failed replica lose their replicated copy instead: their
    /// state resets so the next pump re-replicates toward a new standby.
    pub(crate) fn take_failover(&mut self, failed: usize) -> Vec<(SessionId, SessionRepl)> {
        let promoted: Vec<SessionId> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.primary == failed)
            .map(|(&conv, _)| conv)
            .collect();
        let mut out = Vec::with_capacity(promoted.len());
        for conv in promoted {
            if let Some(s) = self.sessions.remove(&conv) {
                out.push((conv, s));
            }
        }
        if let Some(due) = self.due.get_mut(failed) {
            due.clear();
        }
        let threshold = self.threshold();
        for (&conv, s) in &mut self.sessions {
            if s.standby == failed {
                s.chunks.clear();
                s.replicated = 0;
                Self::refresh_due(&mut self.due, threshold, conv, s);
            }
        }
        out
    }

    /// Largest per-session pending delta — the replication-lag gauge.
    pub(crate) fn max_pending_tokens(&self) -> usize {
        self.sessions
            .values()
            .map(|s| s.committed.saturating_sub(s.replicated))
            .max()
            .unwrap_or(0)
    }

    /// KV tokens delivered to standbys so far.
    pub(crate) fn replicated_tokens(&self) -> u64 {
        self.replicated_tokens
    }

    /// Bytes put on replication wires so far (delivered or lost).
    pub(crate) fn standby_bytes(&self) -> u64 {
        self.standby_bytes
    }

    /// Flush attempts lost in transit so far.
    pub(crate) fn lost_flushes(&self) -> u64 {
        self.lost_flushes
    }

    /// Chunks lost across every replication link.
    pub(crate) fn link_lost_chunks(&self) -> u64 {
        self.links.iter().map(NodeLink::lost_chunks).sum()
    }

    /// Bytes streamed across every replication link.
    pub(crate) fn link_streamed_bytes(&self) -> u64 {
        self.links.iter().map(NodeLink::streamed_bytes).sum()
    }

    /// Schedules a forced outage window on every replication link — a
    /// fleet-wide partition fault.
    pub(crate) fn add_outage(&mut self, start: SimTime, end: SimTime) {
        for link in &mut self.links {
            link.add_outage(start, end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(mode: ReplicationMode) -> ReplicationConfig {
        ReplicationConfig {
            mode,
            flush_threshold_tokens: 32,
            link: NodeLinkSpec::datacenter_25g(),
        }
    }

    #[test]
    fn default_is_disabled_and_cheap() {
        let c = ReplicationConfig::default();
        assert_eq!(c.mode, ReplicationMode::Disabled);
        assert!(c.flush_threshold_tokens > 0);
    }

    #[test]
    fn observe_then_flush_tracks_lag() {
        let mut r = Replicator::new(cfg(ReplicationMode::Async), 2);
        let conv = SessionId(7);
        r.observe(conv, 0, 1, 48);
        assert_eq!(r.max_pending_tokens(), 48);
        assert_eq!(r.due_flushes(0), vec![conv]);
        assert!(r.due_flushes(1).is_empty(), "due at its own primary only");
        let end = r.flush(conv, SimTime::ZERO, 1024, 1, &None);
        assert!(end.is_some());
        assert_eq!(r.max_pending_tokens(), 0);
        assert_eq!(r.replicated_tokens(), 48);
        // A later commit grows the pending delta from the new total.
        r.observe(conv, 0, 1, 80);
        assert_eq!(r.max_pending_tokens(), 32);
    }

    #[test]
    fn rebind_resets_replicated_state() {
        let mut r = Replicator::new(cfg(ReplicationMode::Async), 3);
        let conv = SessionId(1);
        r.observe(conv, 0, 1, 100);
        assert!(r.flush(conv, SimTime::ZERO, 8, 1, &None).is_some());
        assert_eq!(r.max_pending_tokens(), 0);
        // The session migrates to replica 2: the copy on replica 1 no
        // longer fronts for the new primary, so everything re-replicates.
        r.observe(conv, 2, 0, 100);
        assert_eq!(r.max_pending_tokens(), 100);
    }

    #[test]
    fn failover_splits_promoted_from_reset_sessions() {
        let mut r = Replicator::new(cfg(ReplicationMode::Async), 3);
        r.observe(SessionId(1), 0, 1, 64); // primary fails -> promoted
        r.observe(SessionId(2), 1, 0, 64); // standby fails -> reset
        assert!(r.flush(SessionId(1), SimTime::ZERO, 8, 1, &None).is_some());
        assert!(r.flush(SessionId(2), SimTime::ZERO, 8, 1, &None).is_some());
        let promoted = r.take_failover(0);
        assert_eq!(promoted.len(), 1);
        assert_eq!(promoted[0].0, SessionId(1));
        assert_eq!(promoted[0].1.replicated, 64);
        // Session 2 survives but lost its copy: full lag again.
        assert_eq!(r.max_pending_tokens(), 64);
    }

    /// The maintained due set equals the walk-everything scan (asserted
    /// inside `due_flushes` in test builds) across every transition that
    /// moves it without a new commit.
    #[test]
    fn due_set_tracks_threshold_rebinds_lost_flushes_and_standby_loss() {
        let lossy = ReplicationConfig {
            link: NodeLinkSpec::lossy_25g(1.0, 3), // every flush is lost
            ..cfg(ReplicationMode::Async)
        };
        let mut r = Replicator::new(lossy, 3);
        let conv = SessionId(4);
        r.observe(conv, 0, 1, 31);
        assert!(r.due_flushes(0).is_empty(), "below the 32-token threshold");
        r.observe(conv, 0, 1, 40);
        assert_eq!(r.due_flushes(0), vec![conv]);
        // A lost flush leaves the delta pending: still due, no new commit.
        assert!(r.flush(conv, SimTime::ZERO, 8, 1, &None).is_none());
        assert_eq!(r.due_flushes(0), vec![conv]);
        // Migration to replica 2: due moves with the binding.
        r.observe(conv, 2, 0, 40);
        assert!(r.due_flushes(0).is_empty());
        assert_eq!(r.due_flushes(2), vec![conv]);

        // Standby loss resets a fully replicated session back to due.
        let mut r = Replicator::new(cfg(ReplicationMode::Async), 3);
        r.observe(conv, 0, 1, 40);
        assert!(r.flush(conv, SimTime::ZERO, 8, 1, &None).is_some());
        assert!(r.due_flushes(0).is_empty());
        assert!(r.take_failover(1).is_empty());
        assert_eq!(r.due_flushes(0), vec![conv]);
        // Primary loss: the promoted session leaves the due set with it.
        assert_eq!(r.take_failover(0).len(), 1);
        assert!(r.due_flushes(0).is_empty());
    }

    #[test]
    fn per_source_links_are_decorrelated_and_deterministic() {
        let lossy = ReplicationConfig {
            mode: ReplicationMode::Async,
            flush_threshold_tokens: 1,
            link: NodeLinkSpec::lossy_25g(0.5, 11),
        };
        let run = |primary: usize| {
            let mut r = Replicator::new(lossy.clone(), 4);
            let conv = SessionId(9);
            let mut outcomes = Vec::new();
            for step in 1..=16usize {
                r.observe(conv, primary, (primary + 1) % 4, step * 8);
                outcomes.push(r.flush(conv, SimTime::ZERO, 64, 1, &None).is_some());
            }
            outcomes
        };
        assert_eq!(run(0), run(0), "same source, same loss schedule");
        assert_ne!(run(0), run(1), "different sources diverge");
    }
}
