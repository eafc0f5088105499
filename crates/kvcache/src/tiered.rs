//! The tiered KV cache manager (§4.3), deepened below the CPU with the
//! SSD and cold storage tiers of `docs/STORAGE.md`.
//!
//! [`TieredKvCache`] tracks every active conversation's chunks across the
//! storage hierarchy (GPU-resident, lazily-copied, CPU-resident,
//! SSD-resident, cold-resident, dropped) and makes the paper's decisions:
//!
//! 1. **Ahead-of-time swap-out** (§4.3.2): when strictly-free GPU slots
//!    fall below the 25 % watermark, chunks chosen by the eviction policy
//!    are *copied* to the CPU tier ([`Tier::GpuCopied`]). Their GPU slots
//!    are reclaimed lazily — only when another allocation actually needs
//!    them — so a conversation that returns quickly gets its context back
//!    without any transfer ("revalidation").
//! 2. **Cross-tier demotion** (generalizing the paper's §4.3.4 dropping):
//!    when the CPU tier is full, the same retention-value policy chooses
//!    victims, but instead of dropping them outright each victim is
//!    demoted one tier down — CPU→SSD, SSD→cold — and only falls off the
//!    bottom of the hierarchy when the cold tier itself is full. With the
//!    deep tiers disabled (capacity `0`, the default), demotion reduces
//!    to the paper's two-tier dropping behaviour exactly.
//! 3. **Restore planning**: a returning conversation's context is split
//!    into generalized Figure-5 segments — dropped prefix (recompute),
//!    deep-tier and CPU middles (read back / swap in), GPU tail (hit) —
//!    and committed once the scheduler has verified GPU space.
//! 4. **Rehydration**: a restarted or failed-over replica can rebuild a
//!    session's chunks in the cold tier from a persisted manifest (see
//!    [`crate::manifest`]) via [`TieredKvCache::rehydrate_session`],
//!    turning a full recompute into cold reads.
//!
//! # Shape
//!
//! One retention-value policy moves one kind of chunk record down one
//! hierarchy. This module holds the cache, restore planning and the
//! append path; each other decision lives in one child module, which
//! owns the state only it writes:
//!
//! * **`occupancy`** — where tokens are held. Resident tokens per
//!   [`Tier`] live in `Occupancy`; every tier change of every chunk goes
//!   through `Occupancy::retier`, and a private chunk's through
//!   `ConvEntry::retier`, which carries its conversation's *row* of the
//!   table (per-conversation totals are read, never recounted), the
//!   *span* of indices each tier's chunks sit in, and the conversation's
//!   keys in the candidate index along on the same move. The transition
//!   also stamps the move from one cache-wide clock, which is how a byte
//!   mirror finds the conversations whose placement changed
//!   ([`TieredKvCache::placement_stamp`]).
//! * **`queue`** — which chunk goes next. At one `now` all chunks of a
//!   conversation share their idle time, so within a conversation and a
//!   tier the eviction order is the policy's walk along the chunks and
//!   only the first one in the tier — the *frontier* — can be the next
//!   victim. `Members` is one index per tier of those frontiers in
//!   `last_active` order; an entry's key is derived from the
//!   conversation's entry (its clock and the chunk at its span's leading
//!   end), so every path that moves a key's inputs withdraws the key
//!   first and seats it after (`ConvEntry::rekey`). A `CandidateQueue`
//!   is a heap over the frontiers it has visited; popping one scores and
//!   pushes its successor, and
//!   frontiers enter oldest first, only while the policy's score floor
//!   for the next one does not exceed the heap's best, a tie class (same
//!   clock, same frontier chunk) one member at a time. Drained, it is the
//!   sorted list of every candidate, tie-breaks included
//!   (`collect_candidates`, the full sort it replaced, is the test
//!   oracle). The candidate *set* is fixed at first need: a chunk landing
//!   on a rung after its queue was built waits for the next pass.
//! * **`ladder`** — where a victim goes. The host side is
//!   `[Cpu, Ssd, Cold]`, each rung with a capacity and a queue built the
//!   first time a pass needs it: `ensure_space(rung, ..)` makes room by
//!   handing the rung's lowest-value residents to `demote`, which places
//!   each on the first rung below that has or can make room — recursing
//!   downward — and otherwise drops it. GPU swap-out, suspension and
//!   lazy-copy reclamation are its callers; whether an eviction leaves a
//!   lazy copy is decided in `swap_out_until_for`, which trace event
//!   names the move in `record_move`.
//! * **`pool`** — the global preamble: the one chain of
//!   content-addressed chunks shared across conversations, pinned once
//!   on the GPU and attached by id. It never moves, so every eviction
//!   path handles private chunks only.
//! * **`handoff`** — a session leaving or entering this cache: export,
//!   import, rehydration from a manifest, removal, the commit log that
//!   replication and manifest persistence drain, and the host-memory
//!   fault APIs.
//! * **`keyed`** — `KeyedMap`, the sessions' map: hashed lookups by id
//!   on the hot paths, walks in key order through an ordered key set,
//!   never in hash order.
//! * **`invariants`** — `check_invariants`, which recounts all of the
//!   above from the chunk records.
//!
//! All quantities are in tokens; byte conversion and transfer timing are
//! the simulator's job (`pensieve_sim::storage` models the deep-tier
//! devices), physical KV bytes the functional engine's.

mod handoff;
mod invariants;
mod keyed;
mod ladder;
mod occupancy;
mod pool;
mod queue;

use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::ops::Range;

use pensieve_model::SimTime;
use pensieve_obs::{Recorder as _, SharedRecorder, StorageTier, TraceEvent};

use crate::policy::{EvictionPolicy, Granularity, LruPolicy, WithinOrder};
use crate::stats::CacheStats;
use crate::types::{CacheConfig, ChunkId, ChunkState, SessionId, Tier};
use keyed::KeyedMap;
use ladder::Rung;
use occupancy::{tick, ConvEntry, Occupancy, Stamp};
use queue::{CandidateQueue, Members};

pub use handoff::SessionExport;
pub use ladder::SwapOutOp;

/// Error from cache operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheError {
    /// Not enough effectively-free GPU slots for the request.
    OutOfGpu {
        /// Tokens requested.
        needed: usize,
        /// Tokens effectively free (counting reclaimable copies).
        free: usize,
    },
    /// The conversation is not tracked by the cache.
    UnknownConversation(SessionId),
    /// The addressed chunk holds no CPU-tier copy, so a CPU-tier fault
    /// cannot apply to it.
    ChunkNotInCpuTier {
        /// Owning conversation.
        conv: SessionId,
        /// Chunk index within the conversation.
        chunk: usize,
    },
    /// An imported session is already tracked by this cache; a handoff
    /// target must not hold prior state for the session.
    SessionExists(SessionId),
    /// A raw-token fetch addressed tokens beyond the stored history.
    HistoryRangeOutOfBounds {
        /// Owning conversation.
        conv: SessionId,
        /// One past the last requested token.
        end: usize,
        /// Stored history length.
        len: usize,
    },
    /// A chunk-chain operation addressed a chunk id the store does not
    /// hold.
    UnknownChunk(ChunkId),
    /// The cache already pins a global preamble; it pins one for its
    /// lifetime.
    PreamblePinned,
    /// An imported session's token counts sum past `usize::MAX`, or it
    /// splits into more chunks than one conversation's chunk list can
    /// hold; the cache is unchanged.
    ImportTooLarge(SessionId),
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::OutOfGpu { needed, free } => {
                write!(f, "out of GPU KV slots: need {needed}, free {free}")
            }
            CacheError::UnknownConversation(c) => {
                write!(f, "unknown conversation {c:?}")
            }
            CacheError::ChunkNotInCpuTier { conv, chunk } => {
                write!(f, "chunk {chunk} of {conv:?} has no CPU-tier copy")
            }
            CacheError::SessionExists(c) => {
                write!(f, "session {c:?} already tracked by this cache")
            }
            CacheError::HistoryRangeOutOfBounds { conv, end, len } => {
                write!(
                    f,
                    "raw-token fetch past stored history of {conv:?}: end {end}, stored {len}"
                )
            }
            CacheError::UnknownChunk(id) => {
                write!(f, "unknown shared chunk {id:?}")
            }
            CacheError::PreamblePinned => {
                write!(f, "the cache already pins a global preamble")
            }
            CacheError::ImportTooLarge(c) => {
                write!(f, "imported session {c:?} is too large to track")
            }
        }
    }
}

impl std::error::Error for CacheError {}

/// Restore plan for a returning conversation (paper Figure 5,
/// generalized to the deep storage hierarchy).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RequestPlan {
    /// Tokens still resident in the GPU tier (free hits).
    pub gpu_hit_tokens: usize,
    /// Lazily-copied tokens revalidated in place (free hits).
    pub revalidate_tokens: usize,
    /// Tokens to transfer CPU -> GPU.
    pub swap_in_tokens: usize,
    /// Tokens to read back from the SSD tier (through the CPU staging
    /// path, then over PCIe).
    pub ssd_read_tokens: usize,
    /// Tokens to read back from the cold store (slowest path).
    pub cold_read_tokens: usize,
    /// Dropped tokens to recompute from raw text.
    pub recompute_tokens: usize,
    /// Of the GPU hits above, how many were served from the global
    /// preamble — the cross-conversation sharing win, also counted in
    /// [`CacheStats::shared_hit_tokens`] at commit.
    pub shared_hit_tokens: usize,
    /// Token ranges, in context order, with the tier they were found in.
    /// `Tier::Dropped` ranges become recompute sub-requests.
    pub segments: Vec<(Range<usize>, Tier)>,
}

impl RequestPlan {
    /// New GPU slots this restore will occupy (swap-ins, deep-tier reads
    /// and recomputes).
    #[must_use]
    pub fn new_gpu_slots(&self) -> usize {
        self.swap_in_tokens + self.ssd_read_tokens + self.cold_read_tokens + self.recompute_tokens
    }

    /// Tokens read back from the deep (SSD + cold) tiers.
    #[must_use]
    pub fn deep_read_tokens(&self) -> usize {
        self.ssd_read_tokens + self.cold_read_tokens
    }

    /// True if the whole context was GPU-resident (or empty).
    #[must_use]
    pub fn is_full_gpu_hit(&self) -> bool {
        self.swap_in_tokens == 0 && self.deep_read_tokens() == 0 && self.recompute_tokens == 0
    }
}

/// One eviction victim: private chunk `.1` of conversation `.0`. The
/// derived order (by conversation, then by index) is the deterministic
/// tie-break among equal policy scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Victim(SessionId, usize);

/// The tiered cache manager.
///
/// # Examples
///
/// ```
/// use pensieve_kvcache::{CacheConfig, SessionId, LruPolicy, TieredKvCache};
/// use pensieve_model::SimTime;
///
/// let mut cache = TieredKvCache::builder(CacheConfig::for_test(32, 1024, 4096))
///     .policy(Box::new(LruPolicy))
///     .build();
/// let conv = SessionId(1);
/// // A first turn appends its prompt + outputs to the GPU tier.
/// cache.append_tokens(conv, 300, SimTime::from_secs(0.0)).unwrap();
/// cache.unpin(conv);
/// // When the conversation returns, the whole context is a GPU hit.
/// let plan = cache.commit_restore(conv, SimTime::from_secs(30.0)).unwrap();
/// assert!(plan.is_full_gpu_hit());
/// assert_eq!(plan.gpu_hit_tokens, 300);
/// ```
pub struct TieredKvCache {
    cfg: CacheConfig,
    policy: Box<dyn EvictionPolicy>,
    convs: KeyedMap<SessionId, ConvEntry>,
    /// Resident tokens per tier. A [`Tier::GpuCopied`] token occupies a
    /// GPU slot *and* CPU space.
    occ: Occupancy,
    /// The move clock: ticks once per chunk that changes tier and once
    /// per conversation that starts being tracked; see
    /// [`TieredKvCache::placement_stamp`].
    moves: Stamp,
    /// Per tier, the frontiers of the unpinned conversations holding
    /// private tokens there, in `last_active` order.
    members: Members,
    /// Candidate queues of finished passes, kept for their buffers.
    spare_queues: Vec<CandidateQueue>,
    /// The host-side demotion ladder, top to bottom, with the
    /// capacities of `cfg`.
    ladder: [Rung; 3],
    /// Lazily-copied chunks in copy order, for O(1) slot reclamation.
    /// Entries are validated at pop (a chunk may have been revalidated or
    /// suspended since).
    copied_fifo: VecDeque<(SessionId, usize)>,
    /// Commit log for KV replication and manifest persistence: sessions
    /// whose committed *private* context grew since the last
    /// [`TieredKvCache::take_commits`] drain
    /// (shared chunks are attached by id at the standby, never
    /// byte-streamed). A session enters once per drain, on its first
    /// append, and its `ConvEntry::committed` flag spares later appends
    /// the tree; the drain reads each one's private token count then.
    /// Bounded by the session count.
    commit_log: BTreeSet<SessionId>,
    /// The global preamble's chain, empty until
    /// [`TieredKvCache::pin_preamble`]: whole chunks, GPU-resident for
    /// the cache's lifetime and charged once in `occ`.
    preamble: Vec<ChunkId>,
    stats: CacheStats,
    /// Passive trace sink; `None` (the default) records nothing.
    recorder: Option<SharedRecorder>,
}

/// Builder for [`TieredKvCache`] — the only public construction path.
///
/// # Examples
///
/// ```
/// use pensieve_kvcache::{CacheConfig, TieredKvCache};
///
/// let cfg = CacheConfig::for_test(32, 2048, 8192).with_deep_tiers(16_384, 65_536);
/// let cache = TieredKvCache::builder(cfg).build();
/// assert_eq!(cache.config().ssd_capacity_tokens, 16_384);
/// ```
pub struct TieredKvCacheBuilder {
    cfg: CacheConfig,
    policy: Box<dyn EvictionPolicy>,
}

impl TieredKvCacheBuilder {
    /// Sets the eviction policy (default: [`LruPolicy`]).
    #[must_use]
    pub fn policy(mut self, policy: Box<dyn EvictionPolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Builds the cache.
    #[must_use]
    pub fn build(self) -> TieredKvCache {
        TieredKvCache::new(self.cfg, self.policy)
    }
}

impl fmt::Debug for TieredKvCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TieredKvCache")
            .field("conversations", &self.convs.len())
            .field("occupancy", &self.occ)
            .field("policy", &self.policy.name())
            .finish()
    }
}

impl TieredKvCache {
    /// Starts building a cache over `cfg`; see [`TieredKvCacheBuilder`].
    #[must_use]
    pub fn builder(cfg: CacheConfig) -> TieredKvCacheBuilder {
        TieredKvCacheBuilder {
            cfg,
            policy: Box::new(LruPolicy),
        }
    }

    /// Creates a cache with the given capacities and eviction policy
    /// (crate-internal; public construction goes through
    /// [`TieredKvCache::builder`]).
    fn new(cfg: CacheConfig, policy: Box<dyn EvictionPolicy>) -> Self {
        TieredKvCache {
            ladder: Rung::ladder(&cfg),
            cfg,
            members: Members {
                descending: policy.within_order() == WithinOrder::TrailingFirst
                    && policy.granularity() == Granularity::Chunk,
                ..Members::default()
            },
            spare_queues: Vec::new(),
            policy,
            convs: KeyedMap::default(),
            occ: Occupancy::default(),
            moves: 0,
            copied_fifo: VecDeque::new(),
            commit_log: BTreeSet::new(),
            preamble: Vec::new(),
            stats: CacheStats::default(),
            recorder: None,
        }
    }

    /// Attaches a trace recorder. Recording is passive: eviction, drop
    /// and restore decisions are identical with or without it.
    pub fn set_recorder(&mut self, recorder: Option<SharedRecorder>) {
        self.recorder = recorder;
    }

    /// The cache configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// GPU slots in use (resident + lazily-copied).
    #[must_use]
    pub fn gpu_slots_used(&self) -> usize {
        self.occ.gpu + self.occ.gpu_copied
    }

    /// Strictly free GPU slots (no reclamation needed).
    #[must_use]
    pub fn gpu_free_strict(&self) -> usize {
        self.cfg.gpu_capacity_tokens - self.gpu_slots_used()
    }

    /// Effectively free GPU slots: strictly free plus lazily-reclaimable
    /// copies.
    #[must_use]
    pub fn gpu_free_effective(&self) -> usize {
        self.cfg.gpu_capacity_tokens - self.occ.gpu
    }

    /// CPU tokens in use (CPU-resident + lazy copies).
    #[must_use]
    pub fn cpu_used(&self) -> usize {
        self.occ.cpu + self.occ.gpu_copied
    }

    /// SSD (tier-2) tokens in use.
    #[must_use]
    pub fn ssd_used(&self) -> usize {
        self.occ.ssd
    }

    /// Cold-store (tier-3) tokens in use.
    #[must_use]
    pub fn cold_used(&self) -> usize {
        self.occ.cold
    }

    /// GPU tokens effectively free for *new allocations of `conv`*:
    /// strictly free slots plus copies reclaimable from other
    /// conversations. `conv`'s own lazy copies are excluded — they are
    /// revalidated in place on restore, not reclaimed, so they cannot
    /// back new slots.
    #[must_use]
    pub fn gpu_free_effective_for(&self, conv: SessionId) -> usize {
        let own_copies = self.convs.get(&conv).map_or(0, |e| e.row.gpu_copied);
        self.gpu_free_effective() - own_copies
    }

    /// Tokens of `conv` currently tracked (0 if unknown).
    #[must_use]
    pub fn conversation_tokens(&self, conv: SessionId) -> usize {
        self.convs.get(&conv).map_or(0, ConvEntry::total_tokens)
    }

    /// The move clock's current value: every [`placement_stamp`] so far
    /// is at most this.
    ///
    /// [`placement_stamp`]: TieredKvCache::placement_stamp
    #[must_use]
    pub fn placement_clock(&self) -> u64 {
        self.moves
    }

    /// When `conv`'s placement last changed, on the cache's move clock:
    /// the tick of the latest move of one of its private chunks (the
    /// preamble never moves), or of its start of tracking (0 if
    /// unknown). Appends do
    /// not stamp: they only add GPU tokens at the tail. So a caller that
    /// mirrors placements and read the clock at `t` has nothing to redo
    /// for a conversation whose stamp is still at most `t` — its
    /// [`plan_restore`](TieredKvCache::plan_restore) differs since then
    /// only by GPU tokens appended to its tail.
    #[must_use]
    pub fn placement_stamp(&self, conv: SessionId) -> u64 {
        self.convs.get(&conv).map_or(0, |e| e.moved)
    }

    /// All tracked conversations, in ascending id order.
    #[must_use]
    pub fn sessions(&self) -> Vec<SessionId> {
        self.convs.keys().copied().collect()
    }

    /// True if the conversation has tracked context.
    #[must_use]
    pub fn contains(&self, conv: SessionId) -> bool {
        self.convs.contains_key(&conv)
    }

    /// Marks a conversation as part of the running batch: its chunks are
    /// exempt from eviction.
    pub fn pin(&mut self, conv: SessionId) {
        self.set_pinned(conv, true);
    }

    /// Clears the running-batch pin.
    pub fn unpin(&mut self, conv: SessionId) {
        self.set_pinned(conv, false);
    }

    /// The one pin transition.
    fn set_pinned(&mut self, conv: SessionId, pinned: bool) {
        if let Some(e) = self.convs.get_mut(&conv).filter(|e| e.pinned != pinned) {
            // A pinned conversation is in no index.
            e.rekey(conv, &mut self.members, |e| e.pinned = pinned);
        }
    }

    /// Updates a conversation's last-active time.
    pub fn touch(&mut self, conv: SessionId, now: SimTime) {
        if let Some(e) = self.convs.get_mut(&conv) {
            e.rekey(conv, &mut self.members, |e| e.last_active = now);
        }
    }

    /// Computes the Figure-5 restore plan for `conv` without mutating
    /// anything: its share of the preamble first (always a GPU hit), then
    /// the private chunks. Unknown conversations yield an empty plan.
    #[must_use]
    pub fn plan_restore(&self, conv: SessionId) -> RequestPlan {
        let Some(e) = self.convs.get(&conv) else {
            return RequestPlan::default();
        };
        let mut plan = RequestPlan::default();
        let mut pos = e.shared_tokens;
        if pos > 0 {
            plan.gpu_hit_tokens = pos;
            plan.shared_hit_tokens = pos;
            plan.segments.push((0..pos, Tier::Gpu));
        }
        for c in &e.chunks {
            let range = pos..pos + c.tokens;
            match c.tier {
                Tier::Gpu => plan.gpu_hit_tokens += c.tokens,
                Tier::GpuCopied => plan.revalidate_tokens += c.tokens,
                Tier::Cpu => plan.swap_in_tokens += c.tokens,
                Tier::Ssd => plan.ssd_read_tokens += c.tokens,
                Tier::Cold => plan.cold_read_tokens += c.tokens,
                Tier::Dropped => plan.recompute_tokens += c.tokens,
            }
            // Merge adjacent ranges of the same effective segment kind
            // (GPU and GpuCopied both count as resident hits).
            let kind = match c.tier {
                Tier::Gpu | Tier::GpuCopied => Tier::Gpu,
                t => t,
            };
            match plan.segments.last_mut() {
                Some((r, t)) if *t == kind && r.end == range.start => r.end = range.end,
                _ => plan.segments.push((range, kind)),
            }
            pos += c.tokens;
        }
        plan
    }

    /// Counts the two promotions that have their own statistic: a lazy
    /// copy revalidated in place and a CPU chunk swapped in.
    fn count_promotion(stats: &mut CacheStats, from: Tier, tokens: usize) {
        match from {
            Tier::GpuCopied => stats.revalidated_tokens += tokens as u64,
            Tier::Cpu => stats.swapped_in_tokens += tokens as u64,
            _ => {}
        }
    }

    /// Commits a restore: revalidates lazy copies, swaps CPU chunks in,
    /// marks dropped chunks as recomputed-on-GPU, pins and touches the
    /// conversation, and updates statistics.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::OutOfGpu`] (without mutating) if the plan's
    /// new slots exceed effectively-free GPU space.
    pub fn commit_restore(
        &mut self,
        conv: SessionId,
        now: SimTime,
    ) -> Result<RequestPlan, CacheError> {
        let plan = self.plan_restore(conv);
        self.reclaim_gpu_slots(plan.new_gpu_slots(), Some(conv))?;
        // Pinned before its chunks move: a pinned conversation is in no
        // index, so neither the promotions nor the clock below rekey it.
        self.set_pinned(conv, true);
        if let Some(e) = self.convs.get_mut(&conv) {
            for i in 0..e.chunks.len() {
                match e.chunks.get(i) {
                    Some(c) if c.tier != Tier::Gpu => {
                        Self::count_promotion(&mut self.stats, c.tier, c.tokens);
                        e.retier(
                            conv,
                            i,
                            Tier::Gpu,
                            &mut self.occ,
                            &mut self.moves,
                            &mut self.members,
                        );
                    }
                    // The common case on the restore path: already there.
                    _ => {}
                }
            }
            e.last_active = now;
        }
        self.stats.gpu_hit_tokens += (plan.gpu_hit_tokens + plan.revalidate_tokens) as u64;
        self.stats.cpu_hit_tokens += plan.swap_in_tokens as u64;
        self.stats.ssd_hit_tokens += plan.ssd_read_tokens as u64;
        self.stats.cold_hit_tokens += plan.cold_read_tokens as u64;
        self.stats.recomputed_tokens += plan.recompute_tokens as u64;
        self.stats.shared_hit_tokens += plan.shared_hit_tokens as u64;
        if plan.gpu_hit_tokens + plan.revalidate_tokens + plan.new_gpu_slots() > 0 {
            if plan.is_full_gpu_hit() {
                self.stats.full_gpu_hits += 1;
            } else {
                self.stats.partial_hits += 1;
            }
        }
        if self.recorder.enabled() {
            if plan.revalidate_tokens > 0 {
                self.recorder.record(TraceEvent::Revalidated {
                    at: now,
                    conv: conv.0,
                    tokens: plan.revalidate_tokens,
                });
            }
            if plan.swap_in_tokens > 0 {
                self.recorder.record(TraceEvent::SwapInCommitted {
                    at: now,
                    conv: conv.0,
                    tokens: plan.swap_in_tokens,
                });
            }
            if plan.ssd_read_tokens > 0 {
                self.recorder.record(TraceEvent::TierReadCommitted {
                    at: now,
                    conv: conv.0,
                    tokens: plan.ssd_read_tokens,
                    tier: StorageTier::Ssd,
                });
            }
            if plan.cold_read_tokens > 0 {
                self.recorder.record(TraceEvent::TierReadCommitted {
                    at: now,
                    conv: conv.0,
                    tokens: plan.cold_read_tokens,
                    tier: StorageTier::Cold,
                });
            }
            if plan.recompute_tokens > 0 {
                self.recorder.record(TraceEvent::RecomputeCommitted {
                    at: now,
                    conv: conv.0,
                    tokens: plan.recompute_tokens,
                });
            }
        }
        debug_assert_eq!(self.check_invariants(), Ok(()));
        Ok(plan)
    }

    /// Appends `n` freshly-computed tokens to `conv` in the GPU tier,
    /// creating the conversation if needed.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::OutOfGpu`] if effectively-free space is
    /// insufficient.
    ///
    /// # Panics
    ///
    /// Panics if the conversation's trailing chunk is not GPU-resident —
    /// callers must [`TieredKvCache::commit_restore`] first.
    pub fn append_tokens(
        &mut self,
        conv: SessionId,
        n: usize,
        now: SimTime,
    ) -> Result<(), CacheError> {
        self.reclaim_gpu_slots(n, Some(conv))?;
        let chunk_tokens = self.cfg.chunk_tokens;
        let e = self.convs.get_or_insert_with(conv, || ConvEntry {
            pinned: true,
            moved: tick(&mut self.moves),
            ..ConvEntry::new(0, Vec::new(), now)
        });
        if !e.committed {
            e.committed = true;
            self.commit_log.insert(conv);
        }
        // Growing the trailing chunk may grow a frontier, and the clock
        // moves every key.
        e.rekey(conv, &mut self.members, |e| {
            let mut remaining = n;
            let mut pos = e.total_tokens();
            while remaining > 0 {
                let add = match e.chunks.last_mut() {
                    Some(last) if last.tokens < chunk_tokens => {
                        assert_eq!(
                            last.tier,
                            Tier::Gpu,
                            "appending into a non-resident trailing chunk"
                        );
                        let add = remaining.min(chunk_tokens - last.tokens);
                        last.tokens += add;
                        last.context_end += add;
                        add
                    }
                    _ => {
                        let add = remaining.min(chunk_tokens);
                        e.chunks.push(ChunkState {
                            tier: Tier::Gpu,
                            tokens: add,
                            context_end: pos + add,
                        });
                        add
                    }
                };
                e.enter(Tier::Gpu, e.chunks.len() - 1, add);
                pos += add;
                remaining -= add;
            }
            e.last_active = now;
        });
        self.occ.admit(Tier::Gpu, n);
        debug_assert_eq!(self.check_invariants(), Ok(()));
        Ok(())
    }

    /// Starts tracking `entry` as `conv`, entering its chunks (already
    /// admitted to the occupancy table by the caller) into its row, spans
    /// and the candidate index.
    fn track(&mut self, conv: SessionId, mut entry: ConvEntry) {
        entry.moved = tick(&mut self.moves);
        entry.rekey(conv, &mut self.members, |e| {
            for i in 0..e.chunks.len() {
                if let Some(&ChunkState { tier, tokens, .. }) = e.chunks.get(i) {
                    e.enter(tier, i, tokens);
                }
            }
        });
        self.convs.insert(conv, entry);
    }
}

// `cfg(test)` children of this module so they can reach the state the
// cache keeps, and so clippy's test exemptions apply to them.
#[cfg(test)]
#[path = "tests/tiered.rs"]
mod tests;

#[cfg(test)]
#[path = "tests/frontier.rs"]
mod frontier_tests;
