//! A session leaving or entering this cache: export to and import from a
//! peer, rehydration from a persisted manifest, removal, the commit log
//! replication and manifest persistence drain, and the host-memory fault
//! APIs that turn lost or corrupt copies into recompute obligations.

use pensieve_model::SimTime;
use pensieve_obs::{DropReason, Recorder as _, TraceEvent};

use super::occupancy::{ConvEntry, TIERS};
use super::{CacheError, TieredKvCache};
use crate::manifest::ManifestChunk;
use crate::types::{ChunkId, ChunkState, SessionId, Tier};

/// Portable snapshot of one session's chunk layout, produced by
/// [`TieredKvCache::export_session`] for KV handoff between replicas.
///
/// Resident tiers are normalized to [`Tier::Cpu`] — handoffs stream from
/// host memory, never device-to-device — while [`Tier::Dropped`] chunks
/// carry no bytes and survive only as recompute obligations. A router
/// models the inter-node transfer chunk by chunk and calls
/// [`SessionExport::mark_lost`] for any chunk the link loses, before
/// handing the snapshot to [`TieredKvCache::import_session`] on the
/// target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionExport {
    /// The exported session.
    pub session: SessionId,
    /// The session's share of the sender's global preamble, *by
    /// reference*: its chunks are content-addressed, so migration ships
    /// their ids, and the target re-attaches the leading ids that are its
    /// own preamble instead of streaming bytes. The rest become recompute
    /// obligations sized by each entry's token count.
    pub shared: Vec<ManifestChunk>,
    /// Private chunk states in context order (after the shared chain).
    pub chunks: Vec<ChunkState>,
}

impl SessionExport {
    /// Tokens that carry KV bytes and must be streamed to the target.
    #[must_use]
    pub fn streamable_tokens(&self) -> usize {
        self.chunks
            .iter()
            .filter(|c| c.tier != Tier::Dropped)
            .map(|c| c.tokens)
            .sum()
    }

    /// Tokens already lost: recompute obligations at the target.
    #[must_use]
    pub fn dropped_tokens(&self) -> usize {
        self.chunks
            .iter()
            .filter(|c| c.tier == Tier::Dropped)
            .map(|c| c.tokens)
            .sum()
    }

    /// Marks chunk `index` as lost in transit ([`Tier::Dropped`]).
    /// Returns the tokens affected (0 if out of range or already
    /// dropped).
    pub fn mark_lost(&mut self, index: usize) -> usize {
        match self.chunks.get_mut(index) {
            Some(c) if c.tier != Tier::Dropped => {
                c.tier = Tier::Dropped;
                c.tokens
            }
            _ => 0,
        }
    }
}

impl TieredKvCache {
    /// Per-chunk manifest entries of `conv` in context order, regardless
    /// of tier (a dropped chunk still shapes the layout): the preamble
    /// chain's content-addressed ids first, then private chunks as
    /// [`ChunkId::NONE`]. Empty for unknown conversations. This is what
    /// a cold-tier manifest records.
    #[must_use]
    pub fn manifest_chunks(&self, conv: SessionId) -> Vec<ManifestChunk> {
        let Some(e) = self.convs.get(&conv) else {
            return Vec::new();
        };
        let tokens = self.cfg.chunk_tokens;
        let chain = self.attached(e).iter().map(|&id| (id, tokens));
        let private = e.chunks.iter().map(|c| (ChunkId::NONE, c.tokens));
        let entries = chain.chain(private);
        entries
            .map(|(id, tokens)| ManifestChunk { id, tokens })
            .collect()
    }

    /// Drains the KV commit log: every session whose committed private
    /// context grew since the previous drain, with its *private* token
    /// count (shared-chain tokens excluded), in `SessionId` order.
    /// Replication streams consume this to learn what delta to ship to
    /// the standby, and manifest persistence to learn whose layout grew;
    /// without a consumer the log stays bounded at one entry per live
    /// session.
    pub fn take_commits(&mut self) -> Vec<(SessionId, usize)> {
        let log = std::mem::take(&mut self.commit_log);
        let mut commits = Vec::with_capacity(log.len());
        for conv in log {
            // Every logged session is tracked: the paths that stop
            // tracking one take it out of the log.
            if let Some(e) = self.convs.get_mut(&conv) {
                e.committed = false;
                commits.push((conv, e.private_tokens()));
            }
        }
        commits
    }

    /// The preamble chunks `e` is attached to.
    fn attached(&self, e: &ConvEntry) -> &[ChunkId] {
        let chunks = e.shared_tokens.checked_div(self.cfg.chunk_tokens);
        let chunks = chunks.unwrap_or_default();
        self.preamble.get(..chunks).unwrap_or_default()
    }

    /// Stops counting a departed conversation: its private chunks'
    /// occupancy and its index keys. The preamble stays put.
    fn forget(&mut self, conv: SessionId, entry: &ConvEntry) {
        for tier in TIERS {
            entry.withdraw(conv, tier, &mut self.members);
            self.occ.release(tier, *entry.row.get(tier));
        }
    }

    /// Removes a conversation and frees all its private space.
    pub fn remove_conversation(&mut self, conv: SessionId) {
        self.set_pinned(conv, false);
        self.commit_log.remove(&conv);
        if let Some(e) = self.convs.remove(&conv) {
            self.forget(conv, &e);
        }
        debug_assert_eq!(self.check_invariants(), Ok(()));
    }

    /// Removes `session` from this cache and returns a portable snapshot
    /// of its chunk layout for handoff to another replica. All resident
    /// chunks (GPU, lazily-copied, CPU, SSD, cold) are staged as
    /// [`Tier::Cpu`] in the export — the wire format carries host-memory
    /// bytes, so deep-tier chunks are read up before transfer;
    /// already-[`Tier::Dropped`] chunks stay dropped and
    /// become recompute obligations at the target. Returns `None` if the
    /// session is unknown or pinned in the running batch — pinned
    /// sessions must finish or be suspended before export.
    pub fn export_session(&mut self, session: SessionId) -> Option<SessionExport> {
        if self.convs.get(&session).is_none_or(|e| e.pinned) {
            return None;
        }
        self.commit_log.remove(&session);
        let e = self.convs.remove(&session)?;
        // The preamble travels by reference, never by bytes: the export
        // names its ids so the target can re-attach those it pins.
        self.forget(session, &e);
        let tokens = self.cfg.chunk_tokens;
        let shared = self.attached(&e).iter();
        let shared = shared.map(|&id| ManifestChunk { id, tokens }).collect();
        let mut chunks = e.chunks;
        for c in &mut chunks {
            if c.tier != Tier::Dropped {
                c.tier = Tier::Cpu;
            }
        }
        debug_assert_eq!(self.check_invariants(), Ok(()));
        Some(SessionExport {
            session,
            chunks,
            shared,
        })
    }

    /// Installs a handed-off session snapshot into this cache's host
    /// tiers. Chunks are admitted in context order at the tier the
    /// snapshot names (peer exports stage everything as [`Tier::Cpu`];
    /// rehydrated manifests may carry [`Tier::Ssd`]/[`Tier::Cold`]
    /// placements); once a tier's capacity is exhausted the remainder is
    /// demoted to [`Tier::Dropped`] (counted in
    /// [`CacheStats::dropped_tokens`](crate::CacheStats::dropped_tokens))
    /// and recomputed on the next restore. Imports never evict existing
    /// residents — a migrated-in conversation has no claim over the
    /// target's warm cache. Only the snapshot's tiers and token counts
    /// are trusted: every context offset is re-derived from the running
    /// position, and re-attached preamble chunks are sized by this cache,
    /// not by the sender. Returns the tokens admitted to resident tiers.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::SessionExists`] if the session is already
    /// tracked here, or [`CacheError::ImportTooLarge`] if its token
    /// counts sum past `usize::MAX` or split into more chunks than a
    /// chunk list can hold; the cache is unchanged.
    pub fn import_session(
        &mut self,
        export: SessionExport,
        now: SimTime,
    ) -> Result<usize, CacheError> {
        let shared = export
            .shared
            .iter()
            .map(|m| (m.id, Tier::Dropped, m.tokens));
        let private = export.chunks.iter();
        let private = private.map(|c| (ChunkId::NONE, c.tier, c.tokens));
        let (chain, spans, unattached) = self.arrival(shared.chain(private));
        let (admitted, no_room) = self.install(export.session, chain, spans, now)?;
        self.stats.dropped_tokens += (unattached + no_room) as u64;
        Ok(admitted)
    }

    /// Rebuilds a session's chunk layout from a persisted manifest after
    /// a restart. The leading run of manifest entries whose
    /// content-addressed ids are this cache's preamble re-attach to it
    /// (no bytes move); later entries that name a chain id become
    /// dropped spans, as in [`TieredKvCache::import_session`]. Private
    /// entries install at [`Tier::Cold`] while cold capacity allows,
    /// never evicting existing residents, and past that as
    /// [`Tier::Dropped`] recompute obligations. Returns the tokens
    /// recovered without recomputation (re-attached plus cold-admitted),
    /// counted in
    /// [`CacheStats::rehydrated_tokens`](crate::CacheStats::rehydrated_tokens).
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::SessionExists`] if the session is already
    /// tracked here, or [`CacheError::ImportTooLarge`] on the counts
    /// [`TieredKvCache::import_session`] refuses; the cache is unchanged.
    pub fn rehydrate_session(
        &mut self,
        session: SessionId,
        manifest: &[ManifestChunk],
        now: SimTime,
    ) -> Result<usize, CacheError> {
        let entries = manifest.iter().map(|m| (m.id, Tier::Cold, m.tokens));
        let (chain, spans, unattached) = self.arrival(entries);
        let (admitted, _) = self.install(session, chain, spans, now)?;
        self.stats.dropped_tokens += unattached as u64;
        self.stats.rehydrated_tokens += admitted as u64;
        Ok(admitted)
    }

    /// The one rule for a session arriving from outside, as `entries` of
    /// `(chain id, tier, tokens)` in context order ([`ChunkId::NONE`] for
    /// a private chunk): the leading run of ids that are this cache's
    /// preamble re-attaches, and every later entry that names a chain id
    /// becomes a dropped span. Shared state travels by id only — its
    /// bytes are never streamed nor persisted — so nothing could serve
    /// them; the first foreign id breaks prefix continuity. Private entries keep
    /// their tier. Returns the run's length, the spans after it and the
    /// tokens of the chain entries dropped. Empty entries are skipped.
    fn arrival<I>(&self, entries: I) -> (usize, impl Iterator<Item = (Tier, usize)> + Clone, usize)
    where
        I: Iterator<Item = (ChunkId, Tier, usize)> + Clone,
    {
        let entries = entries.filter(|&(_, _, tokens)| tokens > 0);
        let chain = self.preamble_run(entries.clone().map(|(id, ..)| id));
        let rest = entries.skip(chain);
        let shared = |id: ChunkId| id != ChunkId::NONE;
        // Saturating: counts past `usize` are refused by `install` before
        // this total is used.
        let unattached = rest.clone().filter(|&(id, ..)| shared(id));
        let unattached = unattached.fold(0usize, |sum, (.., tokens)| sum.saturating_add(tokens));
        let spans = rest.map(move |(id, tier, tokens)| {
            let tier = if shared(id) { Tier::Dropped } else { tier };
            (tier, tokens)
        });
        (chain, spans, unattached)
    }

    /// The one way a session enters this cache from outside: attaches the
    /// first `chain` preamble chunks, then admits `spans` of
    /// `(tier, tokens)` in context order,
    /// each split to local chunk granularity (peer exports and manifests
    /// are already chunk-sized, so this is a no-op for them; replication
    /// deltas arrive as one span per flush). A chunk whose named tier has
    /// no room — or that names no host tier at all: a stray GPU-tier
    /// chunk carries no transferable bytes — is dropped. Imports never
    /// evict existing residents. Only the spans' tiers and token counts
    /// are trusted: every context offset is re-derived from the running
    /// position. Returns the tokens admitted to resident tiers (the
    /// chain's included) and those dropped for lack of room.
    ///
    /// A session already tracked here, then the counts, are checked before
    /// anything is attached or split: the context must end inside
    /// `usize`, and its chunks must fit one list.
    fn install(
        &mut self,
        session: SessionId,
        chain: usize,
        spans: impl Iterator<Item = (Tier, usize)> + Clone,
        now: SimTime,
    ) -> Result<(usize, usize), CacheError> {
        if self.convs.contains_key(&session) {
            return Err(CacheError::SessionExists(session));
        }
        let too_large = CacheError::ImportTooLarge(session);
        let mut total = chain * self.cfg.chunk_tokens;
        let mut pieces = 0usize;
        for (_, tokens) in spans.clone() {
            total = total.checked_add(tokens).ok_or(too_large)?;
            pieces += tokens.div_ceil(self.cfg.chunk_tokens);
        }
        let mut chunks = Vec::new();
        chunks.try_reserve_exact(pieces).map_err(|_| too_large)?;
        let shared_tokens = self.attach_chain(session, chain, now);
        let (mut end, mut admitted, mut no_room) = (shared_tokens, shared_tokens, 0);
        for (named, mut remaining) in spans {
            while remaining > 0 {
                let tokens = remaining.min(self.cfg.chunk_tokens);
                remaining -= tokens;
                end += tokens;
                let mut tier = named;
                if tier != Tier::Dropped && !self.has_room(tier, tokens) {
                    tier = Tier::Dropped;
                    no_room += tokens;
                }
                if tier != Tier::Dropped {
                    admitted += tokens;
                }
                self.occ.admit(tier, tokens);
                chunks.push(ChunkState {
                    tier,
                    tokens,
                    context_end: end,
                });
            }
        }
        self.track(session, ConvEntry::new(shared_tokens, chunks, now));
        debug_assert_eq!(self.check_invariants(), Ok(()));
        Ok((admitted, no_room))
    }

    /// Every chunk with a CPU-tier copy ([`Tier::Cpu`] or
    /// [`Tier::GpuCopied`]), as `(conversation, chunk index, tokens)` in a
    /// deterministic `(conversation, index)` order. The fault injector
    /// picks loss/corruption victims from this listing; `convs` walks its
    /// ordered key set, so the walk is ordered by construction and no
    /// post-sort is needed.
    #[must_use]
    pub fn cpu_resident_chunks(&self) -> Vec<(SessionId, usize, usize)> {
        let mut out: Vec<(SessionId, usize, usize)> = Vec::new();
        for (&cid, e) in self.convs.iter() {
            for (i, c) in e.chunks.iter().enumerate() {
                if matches!(c.tier, Tier::Cpu | Tier::GpuCopied) {
                    out.push((cid, i, c.tokens));
                }
            }
        }
        out
    }

    /// Applies a host-memory-loss fault to a chunk's CPU-tier copy:
    /// [`Tier::Cpu`] chunks become [`Tier::Dropped`] (recompute on next
    /// restore); [`Tier::GpuCopied`] chunks lose only the copy and revert
    /// to [`Tier::Gpu`] (the GPU bytes are intact). Returns the tokens
    /// affected.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownConversation`] or
    /// [`CacheError::ChunkNotInCpuTier`] if the addressed chunk holds no
    /// CPU-tier copy; the cache is unchanged.
    pub fn mark_chunk_lost(&mut self, conv: SessionId, chunk: usize) -> Result<usize, CacheError> {
        let tokens = self.invalidate_cpu_copy(conv, chunk)?;
        self.stats.lost_chunk_tokens += tokens as u64;
        Ok(tokens)
    }

    /// Applies a corruption fault: identical state transition to
    /// [`TieredKvCache::mark_chunk_lost`] (a checksum-mismatched copy is
    /// unusable), but counted separately in
    /// [`CacheStats::corrupted_chunk_tokens`](crate::CacheStats::corrupted_chunk_tokens).
    ///
    /// # Errors
    ///
    /// Same conditions as [`TieredKvCache::mark_chunk_lost`].
    pub fn mark_chunk_corrupt(
        &mut self,
        conv: SessionId,
        chunk: usize,
    ) -> Result<usize, CacheError> {
        let tokens = self.invalidate_cpu_copy(conv, chunk)?;
        self.stats.corrupted_chunk_tokens += tokens as u64;
        Ok(tokens)
    }

    /// Shared state transition for loss/corruption of a CPU-tier copy.
    fn invalidate_cpu_copy(&mut self, conv: SessionId, chunk: usize) -> Result<usize, CacheError> {
        let e = self
            .convs
            .get_mut(&conv)
            .ok_or(CacheError::UnknownConversation(conv))?;
        let Some(&ChunkState { tier, tokens, .. }) = e.chunks.get(chunk) else {
            return Err(CacheError::ChunkNotInCpuTier { conv, chunk });
        };
        let without_copy = match tier {
            Tier::Cpu => Tier::Dropped,
            // The GPU still holds the bytes; only the copy is gone. The
            // chunk's copied_fifo entry goes stale and is skipped at
            // reclamation (tier check at pop).
            Tier::GpuCopied => Tier::Gpu,
            _ => return Err(CacheError::ChunkNotInCpuTier { conv, chunk }),
        };
        e.retier(
            conv,
            chunk,
            without_copy,
            &mut self.occ,
            &mut self.moves,
            &mut self.members,
        );
        debug_assert_eq!(self.check_invariants(), Ok(()));
        Ok(tokens)
    }

    /// Recompute fallback after persistent swap-in transfer failures:
    /// drops every [`Tier::Cpu`] chunk of `conv` so its next restore plan
    /// recomputes them from raw tokens instead of retrying the transfer.
    /// Returns the tokens dropped (0 for unknown conversations).
    pub fn drop_cpu_chunks(&mut self, conv: SessionId, now: SimTime) -> usize {
        let dropped = self.drop_private(conv, &[Tier::Cpu], DropReason::SwapInFault, now);
        self.stats.swap_in_fault_tokens += dropped as u64;
        dropped
    }

    /// Recompute fallback after a failed deep-tier read: drops every
    /// [`Tier::Ssd`] and [`Tier::Cold`] chunk of `conv` so its next
    /// restore plan recomputes them from raw tokens instead of retrying
    /// the device. Returns the tokens dropped (0 for unknown
    /// conversations).
    pub fn drop_deep_chunks(&mut self, conv: SessionId, now: SimTime) -> usize {
        let deep = [Tier::Ssd, Tier::Cold];
        let dropped = self.drop_private(conv, &deep, DropReason::ColdReadFault, now);
        self.stats.cold_read_fault_tokens += dropped as u64;
        dropped
    }

    /// Drops every private chunk of `conv` held in one of `tiers`,
    /// recording `reason`. Returns the tokens dropped.
    fn drop_private(
        &mut self,
        conv: SessionId,
        tiers: &[Tier],
        reason: DropReason,
        now: SimTime,
    ) -> usize {
        let Some(e) = self.convs.get_mut(&conv) else {
            return 0;
        };
        let mut dropped = 0;
        for i in 0..e.chunks.len() {
            let Some(&ChunkState { tier, tokens, .. }) = e.chunks.get(i) else {
                continue;
            };
            if !tiers.contains(&tier) {
                continue;
            }
            e.retier(
                conv,
                i,
                Tier::Dropped,
                &mut self.occ,
                &mut self.moves,
                &mut self.members,
            );
            dropped += tokens;
            self.recorder.record(TraceEvent::ChunkDropped {
                at: now,
                conv: conv.0,
                chunk: i,
                tokens,
                reason,
            });
        }
        debug_assert_eq!(self.check_invariants(), Ok(()));
        dropped
    }
}
