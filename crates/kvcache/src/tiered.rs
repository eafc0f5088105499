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
//! hierarchy, so the mechanisms are single:
//!
//! * **One chunk record.** A private chunk *is* a [`ChunkState`]; a
//!   pooled shared chunk embeds one beside its reference counts. An
//!   eviction victim of either species resolves to `&mut ChunkState` in
//!   `TieredKvCache::retier`, and the places the species really differ
//!   are each decided once: how a candidate is scored
//!   (`candidate_queue`), who is hurt if it is dropped (`evictable`),
//!   whether a GPU eviction leaves a lazy copy (`swap_out_until_for`),
//!   and which trace event names the move (`record_move`).
//! * **One occupancy table, one transition.** Resident tokens per
//!   [`Tier`] live in `Occupancy`; every tier change of every chunk goes
//!   through `Occupancy::retier`, and only `admit` (a chunk starts being
//!   tracked) and `release` (it stops) write the table otherwise. A
//!   private chunk's transition (`ConvEntry::retier`) carries three
//!   things along on the same move: its conversation's *row* of the
//!   table (so per-conversation totals are read, never recounted), the
//!   *span* of indices the tier's chunks sit in, and — for unpinned
//!   conversations — the conversation's *frontier* in the tier, kept per
//!   tier in `Members`.
//! * **One ladder.** The host side is `[Cpu, Ssd, Cold]`, each rung with
//!   a capacity and a candidate queue built the first time a pass needs
//!   the rung: `ensure_space(rung, ..)` makes room on a rung by handing
//!   its lowest-value residents to `demote`, which places each on the
//!   first rung below that has or can make room — recursing downward —
//!   and otherwise drops it, or leaves it put when sharers still need
//!   it.
//! * **One queue shape.** At one `now` all chunks of a conversation share
//!   their idle time, so within a conversation and a tier the eviction
//!   order is the policy's walk along the chunks and only the first one
//!   in the tier — the *frontier* — can be the next victim. A
//!   `CandidateQueue` is therefore a heap of one frontier per unpinned
//!   member conversation plus the evictable shared chunks; popping one
//!   scores and pushes its successor. Drained, it is the sorted list of
//!   every candidate, tie-breaks included (`collect_candidates`, the
//!   full sort it replaced, is the test oracle); a pass costs the
//!   tier's members plus its victims, and conversations with nothing in
//!   the tier cost it nothing. The candidate *set* is fixed at first
//!   need: a chunk landing on a rung after its queue was built waits
//!   for the next pass.
//!
//! All quantities are in tokens; byte conversion and transfer timing are
//! the simulator's job (`pensieve_sim::storage` models the deep-tier
//! devices), physical KV bytes the functional engine's.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use pensieve_model::SimTime;
use pensieve_obs::{DropReason, Recorder as _, SharedRecorder, StorageTier, TraceEvent};

use crate::manifest::ManifestChunk;
use crate::policy::{EvictionPolicy, Granularity, LruPolicy, WithinOrder};
use crate::prefix::PrefixIndex;
use crate::stats::CacheStats;
use crate::types::{CacheConfig, ChunkId, ChunkState, SessionId, Tier};

/// Handles dropped without being released through
/// [`TieredKvCache::release`] — the leak-check counterpart of the
/// refcount errors. Global across caches (handles are just ids).
static LEAKED_HANDLES: AtomicU64 = AtomicU64::new(0);

/// Number of [`ChunkHandle`]s ever dropped without a matching
/// [`TieredKvCache::release`]. Test harnesses assert this stays zero;
/// the analyzer's leak lint points here.
#[must_use]
pub fn leaked_chunk_handles() -> u64 {
    LEAKED_HANDLES.load(Ordering::Relaxed)
}

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
    /// A shared-chunk operation addressed a chunk id the cache does not
    /// hold.
    UnknownChunk(ChunkId),
    /// A shared chunk's reference count would overflow — acquisitions
    /// are unbalanced by a full `u32::MAX` of missing releases.
    RefCountOverflow(ChunkId),
    /// A release was issued against a shared chunk with no outstanding
    /// matching acquire — a double release.
    RefCountUnderflow(ChunkId),
    /// A shared chunk chain's context offsets do not line up — the ids
    /// are not consecutive chunks of one prefix.
    BrokenSharedChain(ChunkId),
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
            CacheError::RefCountOverflow(id) => {
                write!(f, "reference count overflow on shared chunk {id:?}")
            }
            CacheError::RefCountUnderflow(id) => {
                write!(f, "release without matching acquire on shared chunk {id:?}")
            }
            CacheError::BrokenSharedChain(id) => {
                write!(
                    f,
                    "shared chunk {id:?} breaks its chain's context continuity"
                )
            }
        }
    }
}

impl std::error::Error for CacheError {}

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
    /// The session's leading shared chunk chain, *by reference*: shared
    /// chunks are content-addressed, so migration ships their ids, and
    /// the target re-attaches any chunk it already holds instead of
    /// streaming bytes. Ids the target does not hold become recompute
    /// obligations.
    pub shared: Vec<SharedChunkRef>,
    /// Private chunk states in context order (after the shared chain).
    pub chunks: Vec<ChunkState>,
}

/// One entry of a [`SessionExport`]'s shared chain: the chunk's
/// content-addressed identity plus its token count (so a target that
/// does not hold the chunk knows the size of the recompute obligation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedChunkRef {
    /// Content-addressed id.
    pub id: ChunkId,
    /// Tokens in the chunk.
    pub tokens: usize,
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

/// One chunk chosen for ahead-of-time swap-out (GPU -> CPU copy), or for
/// direct dropping when the CPU tier cannot hold it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapOutOp {
    /// Owning conversation. Meaningless (zero) when `shared` is set — a
    /// shared chunk has sharers, not an owner.
    pub conv: SessionId,
    /// Chunk index within the conversation. Meaningless (zero) when
    /// `shared` is set.
    pub chunk: usize,
    /// Tokens to copy.
    pub tokens: usize,
    /// True if the chunk was dropped instead of copied (no CPU space).
    pub dropped: bool,
    /// Set when the evicted chunk is a content-addressed shared chunk.
    pub shared: Option<ChunkId>,
}

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
    /// Of all the tokens above, how many were served from the
    /// conversation's *shared* chunk chain (any resident tier) — the
    /// cross-conversation sharing win, also counted in
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

    /// Token ranges that must be recomputed, in ascending order.
    #[must_use]
    pub fn recompute_ranges(&self) -> Vec<Range<usize>> {
        self.segments
            .iter()
            .filter(|(_, t)| *t == Tier::Dropped)
            .map(|(r, _)| r.clone())
            .collect()
    }

    /// True if the whole context was GPU-resident (or empty).
    #[must_use]
    pub fn is_full_gpu_hit(&self) -> bool {
        self.swap_in_tokens == 0 && self.deep_read_tokens() == 0 && self.recompute_tokens == 0
    }
}

/// One eviction victim: a conversation-private chunk or a shared chunk.
/// The derived order (`Conv` before `Shared`, then by id) is the
/// deterministic tie-break among equal policy scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Victim {
    /// Private chunk `index` of a conversation.
    Conv(SessionId, usize),
    /// A content-addressed shared chunk.
    Shared(ChunkId),
}

/// One `T` per [`Tier`] — the shape of every per-tier table the cache
/// keeps: resident tokens ([`Occupancy`]), which conversations hold them
/// (`TieredKvCache::members`), and where in a conversation they sit
/// (`ConvEntry::spans`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PerTier<T> {
    gpu: T,
    gpu_copied: T,
    cpu: T,
    ssd: T,
    cold: T,
    dropped: T,
}

impl<T> PerTier<T> {
    fn get(&self, tier: Tier) -> &T {
        match tier {
            Tier::Gpu => &self.gpu,
            Tier::GpuCopied => &self.gpu_copied,
            Tier::Cpu => &self.cpu,
            Tier::Ssd => &self.ssd,
            Tier::Cold => &self.cold,
            Tier::Dropped => &self.dropped,
        }
    }

    fn get_mut(&mut self, tier: Tier) -> &mut T {
        match tier {
            Tier::Gpu => &mut self.gpu,
            Tier::GpuCopied => &mut self.gpu_copied,
            Tier::Cpu => &mut self.cpu,
            Tier::Ssd => &mut self.ssd,
            Tier::Cold => &mut self.cold,
            Tier::Dropped => &mut self.dropped,
        }
    }
}

/// Every [`Tier`], for walking a [`PerTier`] table.
const TIERS: [Tier; 6] = [
    Tier::Gpu,
    Tier::GpuCopied,
    Tier::Cpu,
    Tier::Ssd,
    Tier::Cold,
    Tier::Dropped,
];

/// Resident tokens per [`Tier`]. The cache's one occupancy table is an
/// `Occupancy`, and so is each conversation's row of it (its private
/// tokens). [`Tier::Dropped`] has a slot too (tokens tracked but held
/// nowhere), so every tier change is the same two-slot move with no
/// special case. Written only by [`Occupancy::retier`],
/// [`Occupancy::admit`] and [`Occupancy::release`].
type Occupancy = PerTier<usize>;

impl Occupancy {
    /// The one tier transition: moves `chunk`'s tokens from its current
    /// slot to `to`'s and sets its tier. Returns the tier it left.
    fn retier(&mut self, chunk: &mut ChunkState, to: Tier) -> Tier {
        let from = chunk.tier;
        *self.get_mut(from) -= chunk.tokens;
        *self.get_mut(to) += chunk.tokens;
        chunk.tier = to;
        from
    }

    /// Accounts for `tokens` newly tracked in `tier`.
    fn admit(&mut self, tier: Tier, tokens: usize) {
        *self.get_mut(tier) += tokens;
    }

    /// Forgets `tokens` that were tracked in `tier`.
    fn release(&mut self, tier: Tier, tokens: usize) {
        *self.get_mut(tier) -= tokens;
    }
}

/// What an eviction pass needs to rank one conversation in one tier
/// without looking the conversation up: its *frontier* there — the first
/// private chunk in the tier along the policy's walk, the only one that
/// can be the conversation's next victim — and the idle clock it is
/// scored against.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Frontier {
    idx: usize,
    chunk: ChunkState,
    last_active: SimTime,
}

/// Per tier a pass can evict from, the unpinned conversations holding
/// private tokens there, each with its [`Frontier`]: exactly the private
/// candidates a queue over the tier starts from. Kept by the transitions
/// that keep the rows ([`ConvEntry::enter`], [`ConvEntry::leave`]) and,
/// for the pin and the idle clock, [`ConvEntry::sync_frontiers`].
#[derive(Debug, Default, PartialEq)]
struct Members {
    tiers: PerTier<BTreeMap<SessionId, Frontier>>,
    /// True if the policy walks a conversation's chunks from the back:
    /// trailing-first at chunk granularity. A whole-conversation policy
    /// takes every chunk anyway and walks forward.
    descending: bool,
}

impl Members {
    /// Nothing is evicted *from* a lazy copy or from nowhere, so those
    /// two tiers keep no frontiers.
    fn ranks(tier: Tier) -> bool {
        !matches!(tier, Tier::GpuCopied | Tier::Dropped)
    }
}

/// Bounds on where one tier's chunks sit in a conversation: every
/// private chunk in the tier has its index in `lo..hi`. Exact when the
/// first chunk enters, widened by every later entrant, and tightened
/// where a frontier search has walked: while the conversation is
/// unpinned the end a walk starts from *is* its frontier in the tier, so
/// a chunk moving anywhere else touches no frontier, and the search for
/// the next one starts beside the last.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Span {
    lo: usize,
    hi: usize,
}

impl Span {
    /// The end of the span a walk starts from — where the frontier is,
    /// if the span is exact there.
    fn front(self, descending: bool) -> Option<usize> {
        if descending {
            self.hi.checked_sub(1)
        } else {
            Some(self.lo)
        }
    }
}

/// One rung of the host-side demotion ladder `[Cpu, Ssd, Cold]`.
#[derive(Debug, Clone, Copy)]
struct Rung {
    tier: Tier,
    /// The tier's name in trace events.
    obs: StorageTier,
    /// Capacity in tokens; `0` disables the rung.
    capacity: usize,
    /// Why a private chunk evicted from this rung with no room below is
    /// dropped.
    drop_reason: DropReason,
}

/// Position of the CPU rung — the only one a GPU eviction can land on
/// (KV leaves the device over PCIe into host memory, nowhere else).
const CPU_RUNG: usize = 0;

/// One entry of a [`CandidateQueue`]: a victim and the score it was given
/// at the pass's `now`. Ordered by `(score, victim)` — the eviction
/// order. `total_cmp` keeps the order total even if a policy ever
/// returned a NaN score (NaN sorts last instead of panicking), and agrees
/// with `partial_cmp` on the finite scores every in-tree policy produces.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    score: f64,
    victim: Victim,
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let by_score = self.score.total_cmp(&other.score);
        by_score.then_with(|| self.victim.cmp(&other.victim))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Candidate {}

/// One tier's eviction candidates for one pass, in eviction order,
/// without listing them: a k-way merge over conversations.
///
/// At one `now` every chunk of a conversation shares its idle time, so
/// within a conversation and a tier the policy's order is its
/// within-conversation walk (see [`EvictionPolicy::score`]) and only the
/// first chunk along it — the conversation's *frontier* in the tier —
/// can be the next victim. The heap holds one frontier per unpinned
/// member conversation plus every evictable shared chunk;
/// `TieredKvCache::next_candidate` pops the lowest and pushes the popped
/// conversation's next chunk in the tier, so draining it yields exactly
/// the sorted list of all candidates, tie-breaks included, at the cost
/// of the candidates actually taken.
///
/// The candidate *set* is fixed when the queue is built (the first time
/// the pass needs the tier): `entrants` lists the private chunks this
/// pass has since landed on the tier, which the walk steps over until
/// the next pass builds a fresh queue.
#[derive(Debug)]
struct CandidateQueue {
    tier: Tier,
    heap: BinaryHeap<Reverse<Candidate>>,
    entrants: Vec<(SessionId, usize)>,
}

/// Caller-held candidate queues, one per ladder rung, each built lazily
/// and at most once per eviction pass, then consumed from the front with
/// entries re-validated at use.
type RungQueues = [Option<CandidateQueue>; 3];

/// One physical, content-addressed, reference-counted chunk shared
/// across conversations. Shared chunks never enter [`Tier::GpuCopied`]:
/// lazy reclamation is a per-conversation return-soon bet that has no
/// owner to bet on here, so GPU eviction moves them straight to the CPU
/// tier.
#[derive(Debug, Clone)]
struct SharedChunk {
    /// Tier, tokens and context offset — the same record a private
    /// chunk is (`context_end` is the position within its chain).
    chunk: ChunkState,
    /// Total references: chain memberships across conversations plus
    /// outstanding [`ChunkHandle`]s.
    refs: usize,
    /// Outstanding explicitly-acquired [`ChunkHandle`]s (a subset of
    /// `refs`), tracked separately so releases can be validated.
    external_refs: usize,
    /// References held by *pinned* (running-batch) conversations; a
    /// chunk with any is exempt from eviction.
    pinned_refs: usize,
    /// True for globally-materialized chunks (e.g. the deployment-wide
    /// tool preamble): exempt from eviction regardless of refs.
    global: bool,
    /// Last time any sharer touched the chunk.
    last_active: SimTime,
}

/// RAII guard for an explicit shared-chunk reference, returned by
/// [`TieredKvCache::acquire`] and [`TieredKvCache::materialize_global`].
///
/// The guard must be given back via [`TieredKvCache::release`] — the
/// cache owns the refcount, so the guard cannot decrement it on `Drop`.
/// Dropping an unreleased handle is *leak-checked* instead: it
/// increments the process-wide [`leaked_chunk_handles`] counter, which
/// tests and the analyzer's leak lint pin to zero.
#[derive(Debug)]
pub struct ChunkHandle {
    id: ChunkId,
    armed: bool,
}

impl ChunkHandle {
    /// The referenced chunk's content-addressed id.
    #[must_use]
    pub fn id(&self) -> ChunkId {
        self.id
    }
}

impl Drop for ChunkHandle {
    fn drop(&mut self) {
        if self.armed {
            LEAKED_HANDLES.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[derive(Debug)]
struct ConvEntry {
    /// Leading shared chunk chain (ids into the cache's shared pool).
    shared: Vec<ChunkId>,
    /// Tokens covered by `shared`; private chunk positions start here.
    shared_tokens: usize,
    /// Conversation-private chunks, after the shared chain.
    chunks: Vec<ChunkState>,
    /// Private tokens per tier: this conversation's row of the occupancy
    /// table, so its totals are read, not recounted from `chunks`.
    row: Occupancy,
    /// Per tier, where in `chunks` that tier's chunks sit.
    spans: PerTier<Span>,
    last_active: SimTime,
    pinned: bool,
    /// Already reported in the cache's `manifest_dirty` set: the hot
    /// append path checks this flag instead of touching the tree.
    manifest_dirty: bool,
}

impl ConvEntry {
    /// An unpinned entry not yet reported as manifest-dirty. Its row is
    /// empty until the chunks are entered ([`TieredKvCache::track`]).
    fn new(
        shared: Vec<ChunkId>,
        shared_tokens: usize,
        chunks: Vec<ChunkState>,
        now: SimTime,
    ) -> Self {
        ConvEntry {
            shared,
            shared_tokens,
            chunks,
            row: Occupancy::default(),
            spans: PerTier::default(),
            last_active: now,
            pinned: false,
            manifest_dirty: false,
        }
    }

    /// Private (non-shared) tokens.
    fn private_tokens(&self) -> usize {
        TIERS.iter().map(|&tier| *self.row.get(tier)).sum()
    }

    /// Logical context tokens: shared chain + private chunks.
    fn total_tokens(&self) -> usize {
        self.shared_tokens + self.private_tokens()
    }

    /// `tokens` of private chunk `idx` start being held in `tier`: the
    /// row and the tier's span follow, and — if the chunk now leads the
    /// walk there (or is the frontier itself, grown by an append) and the
    /// conversation is unpinned — its frontier.
    fn enter(
        &mut self,
        conv: SessionId,
        tier: Tier,
        idx: usize,
        tokens: usize,
        members: &mut Members,
    ) {
        let held = self.row.get_mut(tier);
        let span = self.spans.get_mut(tier);
        if *held == 0 {
            *span = Span {
                lo: idx,
                hi: idx + 1,
            };
        }
        let leads = if members.descending {
            idx + 1 >= span.hi
        } else {
            idx <= span.lo
        };
        (span.lo, span.hi) = (span.lo.min(idx), span.hi.max(idx + 1));
        *held += tokens;
        if leads && !self.pinned {
            self.seat_frontier(conv, tier, members);
        }
    }

    /// `tokens` of private chunk `idx` stop being held in `tier` (the
    /// chunk already says so); if it was the conversation's frontier
    /// there, the next chunk along the walk takes over.
    fn leave(
        &mut self,
        conv: SessionId,
        tier: Tier,
        idx: usize,
        tokens: usize,
        members: &mut Members,
    ) {
        *self.row.get_mut(tier) -= tokens;
        let front = self.spans.get(tier).front(members.descending);
        if front == Some(idx) && !self.pinned {
            self.seat_frontier(conv, tier, members);
        }
    }

    /// Records the conversation's frontier in `tier`, found by walking
    /// the tier's span — or that it has none there: it is pinned, or the
    /// walk finds nothing. A tier nothing is evicted from keeps none.
    fn seat_frontier(&mut self, conv: SessionId, tier: Tier, members: &mut Members) {
        if !Members::ranks(tier) {
            return;
        }
        let Span { lo, hi } = *self.spans.get(tier);
        let found = if self.pinned {
            None
        } else {
            self.first_in(conv, tier, lo..hi, members.descending, &[])
        };
        let Some((idx, &chunk)) = found else {
            members.tiers.get_mut(tier).remove(&conv);
            return;
        };
        // Nothing in the tier lies before its frontier: the next search
        // starts here.
        *self.spans.get_mut(tier) = if members.descending {
            Span { lo, hi: idx + 1 }
        } else {
            Span { lo: idx, hi }
        };
        let front = Frontier {
            idx,
            chunk,
            last_active: self.last_active,
        };
        members.tiers.get_mut(tier).insert(conv, front);
    }

    /// Brings the conversation's frontiers in line with its pin and idle
    /// clock after either changed: a pinned conversation has none.
    fn sync_frontiers(&mut self, conv: SessionId, members: &mut Members) {
        for tier in TIERS {
            if *self.row.get(tier) > 0 {
                self.seat_frontier(conv, tier, members);
            }
        }
    }

    /// The one tier transition of a *private* chunk: [`Occupancy::retier`]
    /// on the cache's table, mirrored on this conversation's row, spans
    /// and frontiers. An `idx` that is not a chunk moves nothing.
    fn retier(
        &mut self,
        conv: SessionId,
        idx: usize,
        to: Tier,
        occ: &mut Occupancy,
        members: &mut Members,
    ) {
        let Some(chunk) = self.chunks.get_mut(idx) else {
            return;
        };
        let tokens = chunk.tokens;
        let from = occ.retier(chunk, to);
        self.leave(conv, from, idx, tokens, members);
        self.enter(conv, to, idx, tokens, members);
    }

    /// The first private chunk in `tier` along the policy's walk
    /// (`descending`: from the back), among the indices in `within` and
    /// stepping over `entrants` — the conversation's frontier there.
    fn first_in(
        &self,
        conv: SessionId,
        tier: Tier,
        within: Range<usize>,
        descending: bool,
        entrants: &[(SessionId, usize)],
    ) -> Option<(usize, &ChunkState)> {
        let mut walk = within.filter_map(|i| Some((i, self.chunks.get(i)?)));
        let wanted =
            |&(i, c): &(usize, &ChunkState)| c.tier == tier && !entrants.contains(&(conv, i));
        if descending {
            walk.rev().find(wanted)
        } else {
            walk.find(wanted)
        }
    }
}

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
    convs: BTreeMap<SessionId, ConvEntry>,
    /// Resident tokens per tier. A [`Tier::GpuCopied`] token occupies a
    /// GPU slot *and* CPU space.
    occ: Occupancy,
    /// Which unpinned conversations hold private tokens in each tier,
    /// and their frontiers there.
    members: Members,
    /// The host-side demotion ladder, top to bottom, with the
    /// capacities of `cfg`.
    ladder: [Rung; 3],
    /// Lazily-copied chunks in copy order, for O(1) slot reclamation.
    /// Entries are validated at pop (a chunk may have been revalidated or
    /// suspended since).
    copied_fifo: VecDeque<(SessionId, usize)>,
    /// Commit log for KV replication: sessions whose committed *private*
    /// context grew since the last [`TieredKvCache::take_commits`] drain,
    /// mapped to their new private token count (shared chunks are
    /// attached by id at the standby, never byte-streamed). Bounded by
    /// the session count (one entry per session, overwritten on every
    /// append).
    commit_log: BTreeMap<SessionId, usize>,
    /// Sessions whose manifest layout (chunk boundaries, shared chain,
    /// existence) may have changed since the last
    /// [`TieredKvCache::take_manifest_dirty`] drain. Tier moves never
    /// enter: a manifest records layout, not placement. Bounded by the
    /// distinct sessions touched since the last drain.
    manifest_dirty: BTreeSet<SessionId>,
    /// Pool of content-addressed shared chunks, keyed by id.
    shared: BTreeMap<ChunkId, SharedChunk>,
    /// Radix index from token prefixes to shared chunk chains.
    index: PrefixIndex,
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
/// let cache = TieredKvCache::builder(CacheConfig::for_test(32, 2048, 8192))
///     .deep_tiers(16_384, 65_536)
///     .build();
/// assert_eq!(cache.config().ssd_capacity_tokens, 16_384);
/// ```
pub struct TieredKvCacheBuilder {
    cfg: CacheConfig,
    policy: Box<dyn EvictionPolicy>,
    recorder: Option<SharedRecorder>,
}

impl TieredKvCacheBuilder {
    /// Sets the eviction policy (default: [`LruPolicy`]).
    #[must_use]
    pub fn policy(mut self, policy: Box<dyn EvictionPolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Enables the SSD (tier-2) and cold (tier-3) capacities, in tokens;
    /// `0` leaves the corresponding tier off. Shorthand for
    /// [`CacheConfig::with_deep_tiers`] on the builder's config.
    #[must_use]
    pub fn deep_tiers(mut self, ssd: usize, cold: usize) -> Self {
        self.cfg = self.cfg.with_deep_tiers(ssd, cold);
        self
    }

    /// Attaches a passive trace recorder from the start.
    #[must_use]
    pub fn recorder(mut self, recorder: SharedRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Builds the cache.
    #[must_use]
    pub fn build(self) -> TieredKvCache {
        let mut cache = TieredKvCache::new(self.cfg, self.policy);
        cache.recorder = self.recorder;
        cache
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
            recorder: None,
        }
    }

    /// Creates a cache with the given capacities and eviction policy
    /// (crate-internal; public construction goes through
    /// [`TieredKvCache::builder`]).
    fn new(cfg: CacheConfig, policy: Box<dyn EvictionPolicy>) -> Self {
        let rung = |tier, obs, capacity, drop_reason| Rung {
            tier,
            obs,
            capacity,
            drop_reason,
        };
        TieredKvCache {
            ladder: [
                rung(
                    Tier::Cpu,
                    StorageTier::Cpu,
                    cfg.cpu_capacity_tokens,
                    DropReason::CpuPressure,
                ),
                rung(
                    Tier::Ssd,
                    StorageTier::Ssd,
                    cfg.ssd_capacity_tokens,
                    DropReason::ColdPressure,
                ),
                rung(
                    Tier::Cold,
                    StorageTier::Cold,
                    cfg.cold_capacity_tokens,
                    DropReason::ColdPressure,
                ),
            ],
            index: PrefixIndex::new(cfg.chunk_tokens),
            cfg,
            members: Members {
                tiers: PerTier::default(),
                descending: policy.within_order() == WithinOrder::TrailingFirst
                    && policy.granularity() == Granularity::Chunk,
            },
            policy,
            convs: BTreeMap::new(),
            occ: Occupancy::default(),
            copied_fifo: VecDeque::new(),
            commit_log: BTreeMap::new(),
            manifest_dirty: BTreeSet::new(),
            shared: BTreeMap::new(),
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

    /// Tokens occupying `tier`'s device. Lazy GPU copies count against
    /// the CPU tier as well as the GPU.
    fn used(&self, tier: Tier) -> usize {
        if tier == Tier::Cpu {
            self.cpu_used()
        } else {
            *self.occ.get(tier)
        }
    }

    /// True if the ladder rung holding `tier` can take `tokens` more
    /// without evicting anything. Non-ladder tiers never have room.
    fn has_room(&self, tier: Tier, tokens: usize) -> bool {
        self.ladder
            .iter()
            .any(|r| r.tier == tier && self.used(tier) + tokens <= r.capacity)
    }

    /// Lazily-copied tokens belonging to `conv`.
    fn copied_tokens_of(&self, conv: SessionId) -> usize {
        self.convs.get(&conv).map_or(0, |e| e.row.gpu_copied)
    }

    /// GPU tokens effectively free for *new allocations of `conv`*:
    /// strictly free slots plus copies reclaimable from other
    /// conversations. `conv`'s own lazy copies are excluded — they are
    /// revalidated in place on restore, not reclaimed, so they cannot
    /// back new slots.
    #[must_use]
    pub fn gpu_free_effective_for(&self, conv: SessionId) -> usize {
        self.gpu_free_effective() - self.copied_tokens_of(conv)
    }

    /// Tokens of `conv` currently tracked (0 if unknown).
    #[must_use]
    pub fn conversation_tokens(&self, conv: SessionId) -> usize {
        self.convs.get(&conv).map_or(0, ConvEntry::total_tokens)
    }

    /// All tracked conversations, in ascending id order.
    #[must_use]
    pub fn sessions(&self) -> Vec<SessionId> {
        self.convs.keys().copied().collect()
    }

    /// Per-chunk manifest entries of `conv` in context order, regardless
    /// of tier (a dropped chunk still shapes the layout): the shared
    /// chain's content-addressed ids first, then private chunks as
    /// [`ChunkId::NONE`]. Empty for unknown conversations. This is what
    /// a cold-tier manifest records.
    #[must_use]
    pub fn manifest_chunks(&self, conv: SessionId) -> Vec<ManifestChunk> {
        let Some(e) = self.convs.get(&conv) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(e.shared.len() + e.chunks.len());
        for id in &e.shared {
            let tokens = self.shared.get(id).map_or(0, |s| s.chunk.tokens);
            out.push(ManifestChunk { id: *id, tokens });
        }
        for c in &e.chunks {
            out.push(ManifestChunk {
                id: ChunkId::NONE,
                tokens: c.tokens,
            });
        }
        out
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

    /// Central pin transition: keeps each shared chunk's pinned-sharer
    /// refcount consistent by adjusting it exactly once per state change.
    fn set_pinned(&mut self, conv: SessionId, pinned: bool) {
        let Some(e) = self.convs.get_mut(&conv) else {
            return;
        };
        if e.pinned == pinned {
            return;
        }
        e.pinned = pinned;
        e.sync_frontiers(conv, &mut self.members);
        for id in &e.shared {
            if let Some(s) = self.shared.get_mut(id) {
                if pinned {
                    s.pinned_refs += 1;
                } else {
                    s.pinned_refs = s.pinned_refs.saturating_sub(1);
                }
            }
        }
    }

    /// Updates a conversation's last-active time (shared chain included).
    pub fn touch(&mut self, conv: SessionId, now: SimTime) {
        if let Some(e) = self.convs.get_mut(&conv) {
            e.last_active = now;
            e.sync_frontiers(conv, &mut self.members);
            for id in &e.shared {
                if let Some(s) = self.shared.get_mut(id) {
                    s.last_active = now;
                }
            }
        }
    }

    /// Computes the Figure-5 restore plan for `conv` without mutating
    /// anything: the shared chain first (in chain order), then the
    /// private chunks. Unknown conversations yield an empty plan.
    #[must_use]
    pub fn plan_restore(&self, conv: SessionId) -> RequestPlan {
        let Some(e) = self.convs.get(&conv) else {
            return RequestPlan::default();
        };
        let mut plan = RequestPlan::default();
        let mut pos = 0;
        let chain = e.shared.iter().filter_map(|id| self.shared.get(id));
        let chunks = chain
            .map(|s| (s.chunk, true))
            .chain(e.chunks.iter().map(|c| (*c, false)));
        for (c, is_shared) in chunks {
            let range = pos..pos + c.tokens;
            match c.tier {
                Tier::Gpu => plan.gpu_hit_tokens += c.tokens,
                Tier::GpuCopied => plan.revalidate_tokens += c.tokens,
                Tier::Cpu => plan.swap_in_tokens += c.tokens,
                Tier::Ssd => plan.ssd_read_tokens += c.tokens,
                Tier::Cold => plan.cold_read_tokens += c.tokens,
                Tier::Dropped => plan.recompute_tokens += c.tokens,
            }
            if is_shared && c.tier != Tier::Dropped {
                plan.shared_hit_tokens += c.tokens;
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

    /// Brings one pooled (or not yet tracked) chunk onto the GPU,
    /// whichever tier it was in.
    fn promote(occ: &mut Occupancy, stats: &mut CacheStats, chunk: &mut ChunkState) {
        if chunk.tier == Tier::Gpu {
            return; // The common case on the restore path: already there.
        }
        let from = occ.retier(chunk, Tier::Gpu);
        Self::count_promotion(stats, from, chunk.tokens);
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
        let needed = plan.new_gpu_slots();
        if needed > self.gpu_free_effective_for(conv) {
            return Err(CacheError::OutOfGpu {
                needed,
                free: self.gpu_free_effective_for(conv),
            });
        }
        self.reclaim_gpu_slots(needed, Some(conv));
        // Pinned before its chunks move: a pinned conversation keeps no
        // frontiers, so the promotions below maintain none.
        self.set_pinned(conv, true);
        if let Some(e) = self.convs.get_mut(&conv) {
            // The shared chain first: one physical promotion serves
            // every sharer, and later sharers restore it as a free GPU
            // hit.
            for id in &e.shared {
                if let Some(s) = self.shared.get_mut(id) {
                    Self::promote(&mut self.occ, &mut self.stats, &mut s.chunk);
                    s.last_active = now;
                }
            }
            for i in 0..e.chunks.len() {
                match e.chunks.get(i) {
                    Some(c) if c.tier != Tier::Gpu => {
                        Self::count_promotion(&mut self.stats, c.tier, c.tokens);
                        e.retier(conv, i, Tier::Gpu, &mut self.occ, &mut self.members);
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
        if plan.gpu_hit_tokens
            + plan.revalidate_tokens
            + plan.swap_in_tokens
            + plan.deep_read_tokens()
            + plan.recompute_tokens
            > 0
        {
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
        if n > self.gpu_free_effective_for(conv) {
            return Err(CacheError::OutOfGpu {
                needed: n,
                free: self.gpu_free_effective_for(conv),
            });
        }
        self.reclaim_gpu_slots(n, Some(conv));
        let chunk_tokens = self.cfg.chunk_tokens;
        let e = self.convs.entry(conv).or_insert_with(|| ConvEntry {
            pinned: true,
            ..ConvEntry::new(Vec::new(), 0, Vec::new(), now)
        });
        if !e.manifest_dirty {
            e.manifest_dirty = true;
            self.manifest_dirty.insert(conv);
        }
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
            e.enter(conv, Tier::Gpu, e.chunks.len() - 1, add, &mut self.members);
            pos += add;
            remaining -= add;
        }
        e.last_active = now;
        if !e.pinned {
            e.sync_frontiers(conv, &mut self.members);
        }
        let committed = e.private_tokens();
        self.commit_log.insert(conv, committed);
        self.occ.admit(Tier::Gpu, n);
        debug_assert_eq!(self.check_invariants(), Ok(()));
        Ok(())
    }

    /// Drains the KV commit log: every session whose committed context
    /// grew since the previous drain, with its new total token count, in
    /// `SessionId` order. Replication streams consume this to learn what
    /// delta to ship to the standby; without a consumer the log stays
    /// bounded at one entry per live session.
    pub fn take_commits(&mut self) -> Vec<(SessionId, usize)> {
        let log = std::mem::take(&mut self.commit_log);
        log.into_iter().collect()
    }

    /// Drains the manifest change set: every session whose
    /// [`TieredKvCache::manifest_chunks`] layout may have changed since
    /// the previous drain — appended to, imported, rehydrated, attached,
    /// forked, or removed (exported sessions included, so a consumer can
    /// notice that another copy now speaks for the session) — in
    /// `SessionId` order. A superset of the real changes: a session may
    /// be reported with an unchanged layout, never the reverse. Tier
    /// moves are not changes. Manifest persistence consumes this to
    /// re-encode only what moved; without a consumer the set stays
    /// bounded at one entry per distinct session.
    pub fn take_manifest_dirty(&mut self) -> Vec<SessionId> {
        let dirty = std::mem::take(&mut self.manifest_dirty);
        for conv in &dirty {
            if let Some(e) = self.convs.get_mut(conv) {
                e.manifest_dirty = false;
            }
        }
        dirty.into_iter().collect()
    }

    /// Starts tracking `entry` as `conv` — entering its chunks (already
    /// admitted to the occupancy table by the caller) into its row, spans
    /// and memberships — and reports the new session in the manifest
    /// change set.
    fn track(&mut self, conv: SessionId, mut entry: ConvEntry) {
        for i in 0..entry.chunks.len() {
            if let Some(&ChunkState { tier, tokens, .. }) = entry.chunks.get(i) {
                entry.enter(conv, tier, i, tokens, &mut self.members);
            }
        }
        entry.manifest_dirty = true;
        self.manifest_dirty.insert(conv);
        self.convs.insert(conv, entry);
    }

    /// Stops counting a departed conversation: its chain references, its
    /// private chunks' occupancy and its memberships. A shared chunk
    /// whose last sharer departs stays pooled but becomes fully evictable.
    fn forget(&mut self, conv: SessionId, entry: &ConvEntry) {
        for id in &entry.shared {
            if let Some(s) = self.shared.get_mut(id) {
                s.refs = s.refs.saturating_sub(1);
            }
        }
        for tier in TIERS {
            let held = *entry.row.get(tier);
            if held > 0 {
                self.occ.release(tier, held);
                self.members.tiers.get_mut(tier).remove(&conv);
            }
        }
    }

    /// Ahead-of-time swap-out (§4.3.2): if strictly-free GPU slots are
    /// below the watermark, copies policy-chosen chunks to the CPU tier
    /// until the watermark is met or no candidate remains. Chunks that the
    /// CPU tier cannot hold (and nothing droppable remains) are dropped
    /// directly.
    ///
    /// Returns the operations performed, for transfer timing.
    pub fn maybe_swap_out(&mut self, now: SimTime) -> Vec<SwapOutOp> {
        self.swap_out_until(self.cfg.swap_trigger_tokens(), now)
    }

    /// Evicts (copies or drops) policy-chosen chunks until at least
    /// `target_free` GPU tokens are effectively free, or no candidate
    /// remains. Used both for the watermark-triggered ahead-of-time pass
    /// and for forced eviction when an admission cannot fit.
    pub fn swap_out_until(&mut self, target_free: usize, now: SimTime) -> Vec<SwapOutOp> {
        self.swap_out_until_for(target_free, None, now)
    }

    /// [`TieredKvCache::swap_out_until`] targeting the effective space
    /// available *to `for_conv`* (see
    /// [`TieredKvCache::gpu_free_effective_for`]): that conversation's own
    /// chunks are not eviction candidates, since demoting them cannot
    /// create space for its restore.
    pub fn swap_out_until_for(
        &mut self,
        target_free: usize,
        for_conv: Option<SessionId>,
        now: SimTime,
    ) -> Vec<SwapOutOp> {
        let trigger = target_free;
        let free = |cache: &Self| match for_conv {
            Some(c) => cache.gpu_free_effective_for(c),
            None => cache.gpu_free_effective(),
        };
        let mut ops = Vec::new();
        // Target *effective* free space: a copied chunk's GPU slot is
        // reclaimed lazily, so the copy itself already makes room.
        if free(self) >= trigger {
            return ops;
        }
        // One candidate queue per tier per pass, each built the first time
        // the pass needs it and consumed lazily: the pass pays for the
        // frontiers it ranks and the victims it takes, not for what is
        // resident.
        let mut gpu = self.candidate_queue(Tier::Gpu, for_conv, now);
        let mut queues = RungQueues::default();
        let conversation_granularity = self.policy.granularity() == Granularity::Conversation;
        let mut active_conv: Option<SessionId> = None;
        while let Some(victim) = self.next_candidate(&mut gpu, now) {
            let finishing = conversation_granularity
                && matches!(victim, Victim::Conv(conv, _) if Some(conv) == active_conv);
            // Conversation-granularity policies finish the conversation
            // they started evicting before honoring the watermark.
            if free(self) >= trigger && !finishing {
                break;
            }
            if let Victim::Conv(conv, _) = victim {
                active_conv = Some(conv);
            }
            // Candidates were queued this pass, but the walk is total
            // anyway: a stale entry is skipped, not a panic on the
            // eviction path.
            let Some((tokens, sharers)) = self.evictable(victim, Tier::Gpu) else {
                continue;
            };
            // Make CPU room and copy; if impossible, drop the chunk —
            // unless sharers still need it, in which case it stays
            // resident rather than burn them all.
            let copied = self.ensure_space(CPU_RUNG, tokens, now, &mut queues);
            if !copied && sharers > 0 {
                continue;
            }
            // The species' lazy-copy rule: a private chunk keeps its GPU
            // slot until someone needs it (its conversation may be back
            // first); a shared chunk has no owner to bet on and moves.
            let to = match victim {
                _ if !copied => Tier::Dropped,
                Victim::Conv(conv, chunk) => {
                    self.copied_fifo.push_back((conv, chunk));
                    Tier::GpuCopied
                }
                Victim::Shared(_) => Tier::Cpu,
            };
            self.retier(victim, to);
            let landed = if copied {
                self.stats.swapped_out_tokens += tokens as u64;
                self.ladder.first().copied()
            } else {
                self.stats.dropped_tokens += tokens as u64;
                None
            };
            self.record_move(victim, tokens, sharers, None, landed, now);
            let (conv, chunk, shared) = match victim {
                Victim::Conv(conv, chunk) => (conv, chunk, None),
                Victim::Shared(id) => (SessionId(0), 0, Some(id)),
            };
            ops.push(SwapOutOp {
                conv,
                chunk,
                tokens,
                dropped: !copied,
                shared,
            });
        }
        debug_assert_eq!(self.check_invariants(), Ok(()));
        ops
    }

    /// Suspends a running request (§4.3.5): moves all its GPU-resident
    /// chunks to the CPU tier immediately and unpins it. Returns the
    /// number of tokens that must be transferred.
    pub fn suspend(&mut self, conv: SessionId, now: SimTime) -> usize {
        self.set_pinned(conv, false);
        let Some(chunks) = self.convs.get(&conv).map(|e| e.chunks.len()) else {
            return 0;
        };
        let mut transferred = 0;
        for i in 0..chunks {
            let Some(&ChunkState { tier, tokens, .. }) =
                self.convs.get(&conv).and_then(|e| e.chunks.get(i))
            else {
                continue;
            };
            let to = match tier {
                // The CPU already holds a copy; just release the GPU slot.
                Tier::GpuCopied => Tier::Cpu,
                // Each chunk evicts against fresh queues, so this
                // conversation's own just-moved chunks are candidates.
                Tier::Gpu
                    if self.ensure_space(CPU_RUNG, tokens, now, &mut RungQueues::default()) =>
                {
                    self.stats.swapped_out_tokens += tokens as u64;
                    transferred += tokens;
                    Tier::Cpu
                }
                Tier::Gpu => {
                    self.stats.dropped_tokens += tokens as u64;
                    Tier::Dropped
                }
                _ => continue,
            };
            self.retier(Victim::Conv(conv, i), to);
        }
        self.recorder.record(TraceEvent::Suspended {
            at: now,
            conv: conv.0,
            tokens: transferred,
        });
        debug_assert_eq!(self.check_invariants(), Ok(()));
        transferred
    }

    /// Removes a conversation and frees all its private space, releasing
    /// its shared-chain references. A shared chunk whose last reference
    /// is released here stays in the pool (still resident, still
    /// indexed) but becomes fully evictable and falls out of the
    /// hierarchy under pressure.
    pub fn remove_conversation(&mut self, conv: SessionId) {
        self.set_pinned(conv, false);
        self.commit_log.remove(&conv);
        if let Some(e) = self.convs.remove(&conv) {
            self.manifest_dirty.insert(conv);
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
        self.manifest_dirty.insert(session);
        // Shared chunks travel by reference, never by bytes: the export
        // names their ids so the target can re-attach any it already
        // holds, and the local references are released.
        self.forget(session, &e);
        let shared = e
            .shared
            .iter()
            .map(|&id| SharedChunkRef {
                id,
                tokens: self.shared.get(&id).map_or(0, |s| s.chunk.tokens),
            })
            .collect();
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

    /// Adds `conv` as one more sharer of every chunk of `chain` (ids this
    /// cache pools) — the one way a conversation gains a shared prefix,
    /// whether by attach, import or rehydration. No bytes move. Returns
    /// the tokens the chain covers and how many of them are resident,
    /// both by the pool's own counts.
    fn attach_chain(&mut self, conv: SessionId, chain: &[ChunkId], now: SimTime) -> (usize, usize) {
        let (mut tokens, mut resident) = (0, 0);
        for id in chain {
            if let Some(s) = self.shared.get_mut(id) {
                s.refs += 1;
                s.last_active = now;
                tokens += s.chunk.tokens;
                if s.chunk.tier != Tier::Dropped {
                    resident += s.chunk.tokens;
                }
            }
        }
        if !chain.is_empty() {
            self.recorder.record(TraceEvent::SharedAttached {
                at: now,
                conv: conv.0,
                tokens,
                chunks: chain.len(),
            });
        }
        (tokens, resident)
    }

    /// Installs a handed-off session snapshot into this cache's host
    /// tiers. Chunks are admitted in context order at the tier the
    /// snapshot names (peer exports stage everything as [`Tier::Cpu`];
    /// rehydrated manifests may carry [`Tier::Ssd`]/[`Tier::Cold`]
    /// placements); once a tier's capacity is exhausted the remainder is
    /// demoted to [`Tier::Dropped`] (counted in
    /// [`CacheStats::dropped_tokens`]) and recomputed on the next
    /// restore. Imports never evict existing residents — a migrated-in
    /// conversation has no claim over the target's warm cache. Only the
    /// snapshot's tiers and token counts are trusted: every context
    /// offset is re-derived from the running position, and re-attached
    /// shared chunks are sized by this cache's pool, not by the sender.
    /// Returns the tokens admitted to resident tiers.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::SessionExists`] if the session is already
    /// tracked here; the cache is unchanged.
    pub fn import_session(
        &mut self,
        export: SessionExport,
        now: SimTime,
    ) -> Result<usize, CacheError> {
        let session = export.session;
        if self.convs.contains_key(&session) {
            return Err(CacheError::SessionExists(session));
        }
        // Re-attach the leading run of shared chunks this cache already
        // pools (bytes never travel for shared state — only ids do). The
        // first unknown id breaks prefix continuity, so it and everything
        // after it lead the private chain as dropped spans.
        let refs = export.shared.iter().filter(|r| r.tokens > 0);
        let chain: Vec<ChunkId> = refs
            .clone()
            .map(|r| r.id)
            .take_while(|id| self.shared.contains_key(id))
            .collect();
        let (shared_tokens, mut admitted) = self.attach_chain(session, &chain, now);
        let unattached = refs.skip(chain.len()).map(|r| r.tokens);
        self.stats.dropped_tokens += unattached.clone().sum::<usize>() as u64;
        let spans = unattached
            .map(|tokens| (Tier::Dropped, tokens))
            .chain(export.chunks.iter().map(|c| (c.tier, c.tokens)));
        // Normalize to local chunk granularity: exports from a peer cache
        // are already chunk-sized (this is a no-op), but replication
        // deltas arrive as one chunk per flush and must be split to keep
        // the eviction policy's unit of work intact.
        let mut chunks = Vec::with_capacity(export.shared.len() + export.chunks.len());
        let mut end = shared_tokens;
        for (named, mut remaining) in spans {
            while remaining > 0 {
                let tokens = remaining.min(self.cfg.chunk_tokens);
                remaining -= tokens;
                end += tokens;
                // No room in the named tier — or no host tier at all:
                // exports are CPU-staged, so a stray GPU-tier chunk
                // carries no transferable bytes — means dropped.
                let mut tier = named;
                if tier != Tier::Dropped && !self.has_room(tier, tokens) {
                    tier = Tier::Dropped;
                    self.stats.dropped_tokens += tokens as u64;
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
        self.track(session, ConvEntry::new(chain, shared_tokens, chunks, now));
        debug_assert_eq!(self.check_invariants(), Ok(()));
        Ok(admitted)
    }

    /// Every chunk with a CPU-tier copy ([`Tier::Cpu`] or
    /// [`Tier::GpuCopied`]), as `(conversation, chunk index, tokens)` in a
    /// deterministic `(conversation, index)` order. The fault injector
    /// picks loss/corruption victims from this listing; `convs` is a
    /// `BTreeMap`, so the walk is ordered by construction and no
    /// post-sort is needed.
    #[must_use]
    pub fn cpu_resident_chunks(&self) -> Vec<(SessionId, usize, usize)> {
        let mut out: Vec<(SessionId, usize, usize)> = Vec::new();
        for (&cid, e) in &self.convs {
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
    /// [`CacheStats::corrupted_chunk_tokens`].
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
        e.retier(conv, chunk, without_copy, &mut self.occ, &mut self.members);
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
            e.retier(conv, i, Tier::Dropped, &mut self.occ, &mut self.members);
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

    /// Rebuilds a session's chunk layout from a persisted manifest after
    /// a restart. The leading run of manifest entries whose
    /// content-addressed ids are still pooled here re-attach as shared
    /// references (no bytes move); the remainder installs at
    /// [`Tier::Cold`] while cold capacity allows, never evicting existing
    /// residents, and past that as [`Tier::Dropped`] recompute
    /// obligations. Returns the tokens recovered without recomputation
    /// (re-attached plus cold-admitted), counted in
    /// [`CacheStats::rehydrated_tokens`].
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::SessionExists`] if the session is already
    /// tracked here; the cache is unchanged.
    pub fn rehydrate_session(
        &mut self,
        session: SessionId,
        manifest: &[ManifestChunk],
        now: SimTime,
    ) -> Result<usize, CacheError> {
        if self.convs.contains_key(&session) {
            return Err(CacheError::SessionExists(session));
        }
        // Defensive: a manifest never records empty chunks.
        let entries = manifest.iter().filter(|m| m.tokens > 0);
        let chain: Vec<ChunkId> = entries
            .clone()
            .map(|m| m.id)
            .take_while(|id| *id != ChunkId::NONE && self.shared.contains_key(id))
            .collect();
        let (shared_tokens, mut admitted) = self.attach_chain(session, &chain, now);
        let mut chunks = Vec::with_capacity(manifest.len() - chain.len());
        let mut end = shared_tokens;
        for m in entries.skip(chain.len()) {
            end += m.tokens;
            let tier = if self.has_room(Tier::Cold, m.tokens) {
                admitted += m.tokens;
                Tier::Cold
            } else {
                Tier::Dropped
            };
            self.occ.admit(tier, m.tokens);
            chunks.push(ChunkState {
                tier,
                tokens: m.tokens,
                context_end: end,
            });
        }
        self.track(session, ConvEntry::new(chain, shared_tokens, chunks, now));
        self.stats.rehydrated_tokens += admitted as u64;
        debug_assert_eq!(self.check_invariants(), Ok(()));
        Ok(admitted)
    }

    /// Moves `victim`'s chunk to tier `to` through the one transition
    /// ([`Occupancy::retier`], under [`ConvEntry::retier`] for a private
    /// chunk) — also the one place a victim of either species resolves
    /// to its chunk record. A victim that no longer resolves is left
    /// alone.
    fn retier(&mut self, victim: Victim, to: Tier) {
        match victim {
            Victim::Conv(conv, idx) => {
                if let Some(e) = self.convs.get_mut(&conv) {
                    e.retier(conv, idx, to, &mut self.occ, &mut self.members);
                }
            }
            Victim::Shared(id) => {
                if let Some(s) = self.shared.get_mut(&id) {
                    self.occ.retier(&mut s.chunk, to);
                }
            }
        }
    }

    /// Re-validates a candidate at use: `Some((tokens, sharers))` if
    /// `victim` is still in `tier` and still evictable — its
    /// conversation unpinned, or for a shared chunk no pinned sharer and
    /// not global. `sharers` is who would lose the chunk if it were
    /// dropped: a shared chunk's reference count, and nobody for a
    /// private chunk (its owner is idle by definition). `None` means the
    /// queue outlived the entry and it is skipped.
    fn evictable(&self, victim: Victim, tier: Tier) -> Option<(usize, usize)> {
        match victim {
            Victim::Conv(conv, idx) => {
                let e = self.convs.get(&conv)?;
                let c = e.chunks.get(idx)?;
                (!e.pinned && c.tier == tier).then_some((c.tokens, 0))
            }
            Victim::Shared(id) => {
                let s = self.shared.get(&id)?;
                (s.chunk.tier == tier && s.pinned_refs == 0 && !s.global)
                    .then_some((s.chunk.tokens, s.refs))
            }
        }
    }

    /// Names one eviction move in the trace — the one place the event
    /// kind is chosen. `from` is the ladder rung left (`None`: the GPU),
    /// `to` the rung landed on (`None`: dropped).
    fn record_move(
        &self,
        victim: Victim,
        tokens: usize,
        sharers: usize,
        from: Option<Rung>,
        to: Option<Rung>,
        now: SimTime,
    ) {
        if !self.recorder.enabled() {
            return;
        }
        let dropped = to.is_none();
        self.recorder.record(match (victim, from, to) {
            (Victim::Shared(id), _, _) => TraceEvent::SharedChunkEvicted {
                at: now,
                chunk: id.0,
                tokens,
                refs: sharers,
                dropped,
            },
            (Victim::Conv(conv, chunk), None, _) => TraceEvent::ChunkEvicted {
                at: now,
                conv: conv.0,
                chunk,
                tokens,
                dropped,
            },
            (Victim::Conv(conv, chunk), Some(from), Some(to)) => TraceEvent::ChunkDemoted {
                at: now,
                conv: conv.0,
                chunk,
                tokens,
                from: from.obs,
                to: to.obs,
            },
            (Victim::Conv(conv, chunk), Some(from), None) => TraceEvent::ChunkDropped {
                at: now,
                conv: conv.0,
                chunk,
                tokens,
                reason: from.drop_reason,
            },
        });
    }

    /// Frees room for `tokens` on ladder rung `rung` by demoting
    /// policy-chosen residents further down (dropping them off the
    /// bottom). The rung's candidate queue is built at first need and
    /// kept in `queues` for the rest of the pass. Returns false if the
    /// rung does not exist, is disabled or smaller than the chunk, or
    /// runs out of candidates — the caller then looks further down, or
    /// drops instead.
    fn ensure_space(
        &mut self,
        rung: usize,
        tokens: usize,
        now: SimTime,
        queues: &mut RungQueues,
    ) -> bool {
        let Some(Rung { tier, capacity, .. }) = self.ladder.get(rung).copied() else {
            return false;
        };
        if tokens > capacity {
            return false;
        }
        while self.used(tier) + tokens > capacity {
            let Some(slot) = queues.get_mut(rung) else {
                return false;
            };
            let queue = slot.get_or_insert_with(|| self.candidate_queue(tier, None, now));
            let Some(victim) = self.next_candidate(queue, now) else {
                return false;
            };
            self.demote(victim, rung, now, queues);
        }
        true
    }

    /// Moves one candidate off ladder rung `from`: onto the first rung
    /// below that has (or can make) room, else — with nowhere to go —
    /// dropped if nobody shares it and left in place if somebody does
    /// (dropping would burn every sharer). Deeper victims are displaced,
    /// and their events recorded, before this one moves. A stale
    /// candidate is a no-op.
    fn demote(&mut self, victim: Victim, from: usize, now: SimTime, queues: &mut RungQueues) {
        let Some(source) = self.ladder.get(from).copied() else {
            return;
        };
        let Some((tokens, sharers)) = self.evictable(victim, source.tier) else {
            return;
        };
        // Find room *before* touching the victim, so a failed placement
        // leaves it exactly where it was.
        let landing = (from + 1..self.ladder.len())
            .find(|&rung| self.ensure_space(rung, tokens, now, queues))
            .and_then(|rung| self.ladder.get(rung).copied());
        match landing {
            Some(rung) => {
                self.retier(victim, rung.tier);
                self.stats.demoted_tokens += tokens as u64;
                // A rung whose queue this pass has already built does not
                // see the newcomer until the next pass.
                let built = queues.iter_mut().flatten().find(|q| q.tier == rung.tier);
                if let (Some(queue), Victim::Conv(conv, idx)) = (built, victim) {
                    queue.entrants.push((conv, idx));
                }
            }
            None if sharers > 0 => return,
            None => {
                self.retier(victim, Tier::Dropped);
                self.stats.dropped_tokens += tokens as u64;
            }
        }
        self.record_move(victim, tokens, sharers, Some(source), landing, now);
    }

    /// Converts lazily-copied chunks back to CPU-only until at least
    /// `needed` strictly-free slots exist. `favored` conversations' copies
    /// are reclaimed last (they are about to be revalidated).
    ///
    /// Runs in amortized O(1) per reclaimed chunk: copies are queued in
    /// copy order (which follows the eviction policy's order) and stale
    /// entries are skipped on pop.
    fn reclaim_gpu_slots(&mut self, needed: usize, favored: Option<SessionId>) {
        if self.gpu_free_strict() >= needed || self.occ.gpu_copied == 0 {
            return;
        }
        let mut kept = Vec::new();
        while self.gpu_free_strict() < needed {
            let Some((conv, idx)) = self.copied_fifo.pop_front() else {
                break;
            };
            if Some(conv) == favored {
                kept.push((conv, idx));
                continue;
            }
            let Some(e) = self.convs.get_mut(&conv) else {
                continue; // Conversation removed; stale entry.
            };
            if e.chunks.get(idx).is_none_or(|c| c.tier != Tier::GpuCopied) {
                continue; // Revalidated/suspended since copying; stale.
            }
            e.retier(conv, idx, Tier::Cpu, &mut self.occ, &mut self.members);
        }
        // Favored entries stay queued for future reclamation.
        for entry in kept.into_iter().rev() {
            self.copied_fifo.push_front(entry);
        }
    }

    /// Builds `tier`'s candidate queue for one pass at `now`: the
    /// frontier of every unpinned member conversation (`skip` excepted)
    /// plus every evictable shared chunk in the tier — one score per
    /// queued entry, nothing per chunk behind a frontier and nothing per
    /// conversation with no token in the tier. The shared pool is walked
    /// whole: it holds prefixes, not sessions.
    ///
    /// This is the one place the two species are *scored* differently: a
    /// private chunk by its conversation's idle time, a shared chunk by
    /// its own, and a shared chunk's score is *multiplied by its sharer
    /// count* — evicting it burns every sharer's restore, so its
    /// retention value `V = Cost(s, l)/T` scales with the number of
    /// conversations it serves.
    fn candidate_queue(&self, tier: Tier, skip: Option<SessionId>, now: SimTime) -> CandidateQueue {
        let fronts = self.members.tiers.get(tier);
        let mut heap = Vec::with_capacity(fronts.len());
        for (&conv, front) in fronts {
            if Some(conv) != skip {
                let score = self.policy.score(&front.chunk, front.last_active, now);
                let victim = Victim::Conv(conv, front.idx);
                heap.push(Reverse(Candidate { score, victim }));
            }
        }
        for (&id, s) in &self.shared {
            if s.chunk.tier != tier || s.global || s.pinned_refs > 0 {
                continue;
            }
            let score = self.policy.score(&s.chunk, s.last_active, now) * s.refs.max(1) as f64;
            let victim = Victim::Shared(id);
            heap.push(Reverse(Candidate { score, victim }));
        }
        CandidateQueue {
            tier,
            heap: BinaryHeap::from(heap),
            entrants: Vec::new(),
        }
    }

    /// Takes the next candidate off `queue` in eviction order; a private
    /// chunk's place is taken by its conversation's next chunk in the
    /// tier (newcomers of this pass stepped over), scored at the pass's
    /// `now`. The caller re-validates the candidate at use.
    fn next_candidate(&self, queue: &mut CandidateQueue, now: SimTime) -> Option<Victim> {
        let Reverse(top) = queue.heap.pop()?;
        if let Victim::Conv(conv, idx) = top.victim {
            if let Some(e) = self.convs.get(&conv) {
                let Span { lo, hi } = *e.spans.get(queue.tier);
                let descending = self.members.descending;
                let rest = if descending { lo..idx } else { idx + 1..hi };
                let next = e.first_in(conv, queue.tier, rest, descending, &queue.entrants);
                if let Some((next, c)) = next {
                    let score = self.policy.score(c, e.last_active, now);
                    debug_assert!(
                        score.total_cmp(&top.score).is_ge(),
                        "{} scores chunk {next} of {conv:?} below chunk {idx} before it",
                        self.policy.name()
                    );
                    let victim = Victim::Conv(conv, next);
                    queue.heap.push(Reverse(Candidate { score, victim }));
                }
            }
        }
        Some(top.victim)
    }

    /// The full sort [`CandidateQueue`] replaced, kept as the test
    /// oracle: all evictable chunks in `tier` — private chunks of
    /// unpinned conversations plus shared chunks with no pinned sharer —
    /// scored one by one and sorted ascending by (score, victim
    /// identity), with the policy's within-conversation order applied to
    /// private chunk indices.
    #[cfg(test)]
    fn collect_candidates(&self, tier: Tier, now: SimTime) -> Vec<(Victim, f64)> {
        let trailing = self.policy.within_order() == WithinOrder::TrailingFirst;
        let mut out: Vec<(Victim, f64)> = Vec::new();
        for (&cid, e) in &self.convs {
            if e.pinned {
                continue;
            }
            for (i, c) in e.chunks.iter().enumerate() {
                if c.tier == tier {
                    let score = self.policy.score(c, e.last_active, now);
                    out.push((Victim::Conv(cid, i), score));
                }
            }
        }
        for (&id, s) in &self.shared {
            if s.chunk.tier != tier || s.global || s.pinned_refs > 0 {
                continue;
            }
            let score = self.policy.score(&s.chunk, s.last_active, now) * s.refs.max(1) as f64;
            out.push((Victim::Shared(id), score));
        }
        let conversation_granularity = self.policy.granularity() == Granularity::Conversation;
        out.sort_by(|a, b| {
            a.1.total_cmp(&b.1).then_with(|| match (a.0, b.0) {
                (Victim::Conv(c1, i1), Victim::Conv(c2, i2)) => {
                    c1.cmp(&c2).then(if trailing && !conversation_granularity {
                        i2.cmp(&i1)
                    } else {
                        i1.cmp(&i2)
                    })
                }
                _ => a.0.cmp(&b.0),
            })
        });
        out
    }

    /// Registers `tokens` as a shareable prefix (tool preamble, RAG
    /// document, common system prompt) and returns its content-addressed
    /// chunk chain. Whole chunks only — a trailing partial chunk is not
    /// shareable under chunked eviction and is silently ignored. Chunks
    /// enter the pool at [`Tier::Dropped`] (identity without bytes) and
    /// gain residency the first time a sharer restores them or via
    /// [`TieredKvCache::materialize_global`]. Registering the same
    /// prefix twice is idempotent.
    pub fn register_shared(&mut self, tokens: &[u32], now: SimTime) -> Vec<ChunkId> {
        let chain = self.index.insert(tokens);
        let chunk_tokens = self.index.chunk_tokens();
        let mut end = 0usize;
        for id in &chain {
            end += chunk_tokens;
            if let Some(s) = self.shared.get_mut(id) {
                s.last_active = now;
            } else {
                self.occ.admit(Tier::Dropped, chunk_tokens);
                self.shared.insert(
                    *id,
                    SharedChunk {
                        chunk: ChunkState {
                            tier: Tier::Dropped,
                            tokens: chunk_tokens,
                            context_end: end,
                        },
                        refs: 0,
                        external_refs: 0,
                        pinned_refs: 0,
                        global: false,
                        last_active: now,
                    },
                );
            }
        }
        chain
    }

    /// Longest registered chunk chain matching a prefix of `tokens` —
    /// the discovery half of sharing. Token bytes are compared at every
    /// hop, so a hash collision shortens the match instead of sharing
    /// the wrong KV.
    #[must_use]
    pub fn lookup_shared(&self, tokens: &[u32]) -> Vec<ChunkId> {
        self.index.longest_match(tokens)
    }

    /// Starts a new conversation whose context begins with the shared
    /// chunk chain `chain` (typically from
    /// [`TieredKvCache::lookup_shared`]): every chunk's reference count
    /// rises by one and no KV bytes are duplicated. Private tokens
    /// appended later sit after the chain. Returns the logical tokens
    /// covered by the chain.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::SessionExists`] if `conv` is already
    /// tracked, [`CacheError::UnknownChunk`] for an unregistered id, or
    /// [`CacheError::BrokenSharedChain`] when the ids are not
    /// consecutive chunks of one prefix. The cache is unchanged on
    /// error.
    pub fn attach_shared(
        &mut self,
        conv: SessionId,
        chain: &[ChunkId],
        now: SimTime,
    ) -> Result<usize, CacheError> {
        if self.convs.contains_key(&conv) {
            return Err(CacheError::SessionExists(conv));
        }
        // Validate the whole chain before mutating anything.
        let mut total = 0usize;
        for id in chain {
            let s = self.shared.get(id).ok_or(CacheError::UnknownChunk(*id))?;
            if s.chunk.context_end != total + s.chunk.tokens {
                return Err(CacheError::BrokenSharedChain(*id));
            }
            total += s.chunk.tokens;
        }
        self.attach_chain(conv, chain, now);
        self.track(conv, ConvEntry::new(chain.to_vec(), total, Vec::new(), now));
        debug_assert_eq!(self.check_invariants(), Ok(()));
        Ok(total)
    }

    /// Promotes a registered chain to permanent GPU residency — the
    /// deployment-wide tool preamble every request shares. Global chunks
    /// are exempt from eviction; the returned handles hold the explicit
    /// references and must eventually go back through
    /// [`TieredKvCache::release`].
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownChunk`] for an unregistered id,
    /// [`CacheError::RefCountOverflow`] on a saturated chunk, or
    /// [`CacheError::OutOfGpu`] when the non-resident part of the chain
    /// exceeds effectively-free GPU space. The cache is unchanged on
    /// error.
    pub fn materialize_global(
        &mut self,
        chain: &[ChunkId],
        now: SimTime,
    ) -> Result<Vec<ChunkHandle>, CacheError> {
        // Validate everything up front so a failure mutates nothing.
        let mut needed = 0usize;
        for id in chain {
            let s = self.shared.get(id).ok_or(CacheError::UnknownChunk(*id))?;
            if s.refs.checked_add(1).is_none() || s.external_refs.checked_add(1).is_none() {
                return Err(CacheError::RefCountOverflow(*id));
            }
            if s.chunk.tier != Tier::Gpu {
                needed += s.chunk.tokens;
            }
        }
        if needed > self.gpu_free_effective() {
            return Err(CacheError::OutOfGpu {
                needed,
                free: self.gpu_free_effective(),
            });
        }
        self.reclaim_gpu_slots(needed, None);
        let mut handles = Vec::with_capacity(chain.len());
        for id in chain {
            let Some(s) = self.shared.get_mut(id) else {
                continue; // Validated above; the walk stays total.
            };
            // A dropped chunk is computed once, here.
            Self::promote(&mut self.occ, &mut self.stats, &mut s.chunk);
            s.global = true;
            s.refs += 1;
            s.external_refs += 1;
            s.last_active = now;
            handles.push(ChunkHandle {
                id: *id,
                armed: true,
            });
        }
        debug_assert_eq!(self.check_invariants(), Ok(()));
        Ok(handles)
    }

    /// Takes an explicit reference on a pooled shared chunk, keeping it
    /// alive independent of any conversation (e.g. while a migration is
    /// in flight). Pair with [`TieredKvCache::release`].
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownChunk`] for an unregistered id or
    /// [`CacheError::RefCountOverflow`] on a saturated chunk.
    pub fn acquire(&mut self, id: ChunkId) -> Result<ChunkHandle, CacheError> {
        let s = self
            .shared
            .get_mut(&id)
            .ok_or(CacheError::UnknownChunk(id))?;
        let refs = s
            .refs
            .checked_add(1)
            .ok_or(CacheError::RefCountOverflow(id))?;
        let external = s
            .external_refs
            .checked_add(1)
            .ok_or(CacheError::RefCountOverflow(id))?;
        s.refs = refs;
        s.external_refs = external;
        Ok(ChunkHandle { id, armed: true })
    }

    /// Gives back an explicit reference taken by
    /// [`TieredKvCache::acquire`] or
    /// [`TieredKvCache::materialize_global`]. Consumes the handle either
    /// way; a handle dropped *without* coming here counts in
    /// [`leaked_chunk_handles`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownChunk`] if the pool no longer knows
    /// the id, or [`CacheError::RefCountUnderflow`] when no matching
    /// acquire is outstanding (a double release through forged handles).
    pub fn release(&mut self, handle: ChunkHandle) -> Result<(), CacheError> {
        let mut handle = handle;
        handle.armed = false;
        let id = handle.id;
        let s = self
            .shared
            .get_mut(&id)
            .ok_or(CacheError::UnknownChunk(id))?;
        if s.external_refs == 0 || s.refs == 0 {
            return Err(CacheError::RefCountUnderflow(id));
        }
        s.external_refs -= 1;
        s.refs -= 1;
        Ok(())
    }

    /// Outstanding references on a pooled shared chunk (0 if unknown):
    /// chain memberships plus explicit handles.
    #[must_use]
    pub fn shared_refs(&self, id: ChunkId) -> usize {
        self.shared.get(&id).map_or(0, |s| s.refs)
    }

    /// Tokens of `conv`'s chain held by *global* (permanently resident)
    /// shared chunks — context the engine serves without charging the
    /// conversation any cache space.
    #[must_use]
    pub fn global_shared_tokens(&self, conv: SessionId) -> usize {
        self.convs.get(&conv).map_or(0, |e| {
            e.shared
                .iter()
                .filter_map(|id| self.shared.get(id))
                .filter(|s| s.global)
                .map(|s| s.chunk.tokens)
                .sum()
        })
    }

    /// Logical resident KV tokens: what the cache would hold if every
    /// sharer kept a private copy — each conversation's non-dropped
    /// private chunks plus its chain's non-dropped chunks, counted once
    /// *per sharer*. The denominator of the dedup ratio.
    #[must_use]
    pub fn logical_resident_tokens(&self) -> usize {
        self.convs
            .values()
            .flat_map(|e| {
                let chain = e.shared.iter().filter_map(|id| self.shared.get(id));
                chain.map(|s| &s.chunk).chain(&e.chunks)
            })
            .filter(|c| c.tier != Tier::Dropped)
            .map(|c| c.tokens)
            .sum()
    }

    /// Physical resident KV tokens actually held: non-dropped private
    /// chunks plus each non-dropped pooled shared chunk counted *once*,
    /// however many conversations reference it. The numerator of the
    /// dedup ratio.
    #[must_use]
    pub fn physical_resident_tokens(&self) -> usize {
        let private = self.convs.values().flat_map(|e| &e.chunks);
        let pooled = self.shared.values().map(|s| &s.chunk);
        private
            .chain(pooled)
            .filter(|c| c.tier != Tier::Dropped)
            .map(|c| c.tokens)
            .sum()
    }

    /// Forks `child` from `parent`, sharing the parent's entire current
    /// context instead of copying it. The parent's private chunks are
    /// *promoted* into the shared pool (their physical placement is
    /// untouched; lazy GPU copies revalidate, since shared chunks never
    /// stay [`Tier::GpuCopied`]) under lineage-derived ids, and both
    /// conversations continue from the same chain with refcount 2 per
    /// chunk. Returns the logical tokens now shared.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownConversation`] if `parent` is not
    /// tracked or [`CacheError::SessionExists`] if `child` is. The cache
    /// is unchanged on error.
    pub fn fork_session(
        &mut self,
        parent: SessionId,
        child: SessionId,
        now: SimTime,
    ) -> Result<usize, CacheError> {
        if !self.convs.contains_key(&parent) {
            return Err(CacheError::UnknownConversation(parent));
        }
        if self.convs.contains_key(&child) {
            return Err(CacheError::SessionExists(child));
        }
        let Some(e) = self.convs.get_mut(&parent) else {
            return Err(CacheError::UnknownConversation(parent));
        };
        let parent_pinned = e.pinned;
        let mut chain = std::mem::take(&mut e.shared);
        let private = std::mem::take(&mut e.chunks);
        // The pool holds them from here on: the parent's row empties and
        // its frontiers go (the occupancy table keeps counting the
        // chunks where they are).
        for tier in TIERS {
            if std::mem::take(e.row.get_mut(tier)) > 0 {
                self.members.tiers.get_mut(tier).remove(&parent);
            }
        }
        let inherited = chain.len();
        let mut context_end = e.shared_tokens;
        let mut prev = chain.last().copied().unwrap_or(ChunkId::ROOT);
        // Promote each private chunk under a lineage-derived id: the
        // timing model tracks token *counts*, so identity chains over
        // (parent, position, length) exactly as content ids chain over
        // token bytes — deterministic across replicas and reruns.
        for (i, mut chunk) in private.into_iter().enumerate() {
            let words = [parent.0, (inherited + i) as u64, chunk.tokens as u64];
            let id = ChunkId::derive_words(prev, &words);
            context_end += chunk.tokens;
            prev = id;
            if chunk.tier == Tier::GpuCopied {
                // Revalidate the lazy copy: keep the GPU slot, drop the
                // CPU-side copy. The chunk's copied_fifo entry goes
                // stale and is skipped at reclamation.
                Self::promote(&mut self.occ, &mut self.stats, &mut chunk);
            }
            self.shared.insert(
                id,
                SharedChunk {
                    chunk,
                    refs: 2,
                    external_refs: 0,
                    pinned_refs: usize::from(parent_pinned),
                    global: false,
                    last_active: now,
                },
            );
            chain.push(id);
        }
        // Pre-existing chain chunks gain the child as one more sharer.
        for id in chain.iter().take(inherited) {
            if let Some(s) = self.shared.get_mut(id) {
                s.refs += 1;
                s.last_active = now;
            }
        }
        if let Some(e) = self.convs.get_mut(&parent) {
            e.shared.clone_from(&chain);
            e.shared_tokens = context_end;
            e.last_active = now;
            e.manifest_dirty = true;
        }
        self.manifest_dirty.insert(parent);
        // The parent's committed private context is now shared; the
        // replication stream ships shared state by id, not bytes.
        self.commit_log.remove(&parent);
        self.recorder.record(TraceEvent::SharedAttached {
            at: now,
            conv: child.0,
            tokens: context_end,
            chunks: chain.len(),
        });
        self.track(child, ConvEntry::new(chain, context_end, Vec::new(), now));
        debug_assert_eq!(self.check_invariants(), Ok(()));
        Ok(context_end)
    }

    /// Recounts the cache's accounting from its chunk records and
    /// compares: chunk positions, per-tier occupancy, every
    /// conversation's row and spans, per-tier membership, shared
    /// refcounts and pins, tier capacities, the manifest change set.
    /// Every mutating method debug-asserts it; tests call it in release
    /// builds too.
    ///
    /// # Errors
    ///
    /// The first violated invariant, in words. Any error is a bug in this
    /// crate, not a condition a caller can cause.
    pub fn check_invariants(&self) -> Result<(), String> {
        macro_rules! ensure {
            ($cond:expr, $($msg:tt)+) => {
                if !$cond {
                    return Err(format!($($msg)+));
                }
            };
        }
        let mut occ = Occupancy::default();
        let mut members: PerTier<usize> = PerTier::default();
        let mut chain_refs: BTreeMap<ChunkId, usize> = BTreeMap::new();
        let mut chain_pins: BTreeMap<ChunkId, usize> = BTreeMap::new();
        for (conv, e) in &self.convs {
            let mut chain_tokens = 0usize;
            for id in &e.shared {
                let Some(s) = self.shared.get(id) else {
                    return Err(format!("{conv:?}: chain id {id:?} missing from pool"));
                };
                chain_tokens += s.chunk.tokens;
                *chain_refs.entry(*id).or_insert(0) += 1;
                if e.pinned {
                    *chain_pins.entry(*id).or_insert(0) += 1;
                }
            }
            ensure!(
                chain_tokens == e.shared_tokens,
                "{conv:?}: shared_tokens drift: chain holds {chain_tokens}, entry says {}",
                e.shared_tokens
            );
            let mut pos = e.shared_tokens;
            let mut row = Occupancy::default();
            let mut fronts: PerTier<Option<Frontier>> = PerTier::default();
            for (i, c) in e.chunks.iter().enumerate() {
                ensure!(
                    c.tokens > 0 && c.tokens <= self.cfg.chunk_tokens,
                    "{conv:?}: chunk of {} tokens",
                    c.tokens
                );
                ensure!(
                    c.context_end == pos + c.tokens,
                    "{conv:?}: context_end drift: {} after {pos} + {}",
                    c.context_end,
                    c.tokens
                );
                pos += c.tokens;
                occ.admit(c.tier, c.tokens);
                row.admit(c.tier, c.tokens);
                // The first chunk of the tier along the walk: the last
                // one seen from the front if it runs backward.
                let front = fronts.get_mut(c.tier);
                if front.is_none() || self.members.descending {
                    *front = Some(Frontier {
                        idx: i,
                        chunk: *c,
                        last_active: e.last_active,
                    });
                }
                let span = e.spans.get(c.tier);
                ensure!(
                    (span.lo..span.hi).contains(&i),
                    "{conv:?}: chunk {i} in {:?} lies outside its span {span:?}",
                    c.tier
                );
            }
            ensure!(
                row == e.row,
                "{conv:?}: row drift: recounted {row:?}, held {:?}",
                e.row
            );
            for tier in TIERS.into_iter().filter(|&tier| Members::ranks(tier)) {
                // A pinned conversation keeps no frontiers.
                let found = fronts.get(tier).filter(|_| !e.pinned);
                let held = self.members.tiers.get(tier).get(conv);
                ensure!(
                    found.as_ref() == held,
                    "{conv:?}: frontier drift in {tier:?}: found {found:?}, held {held:?}"
                );
                let Some(front) = found else {
                    continue;
                };
                *members.get_mut(tier) += 1;
                let span = e.spans.get(tier);
                ensure!(
                    span.front(self.members.descending) == Some(front.idx),
                    "{conv:?}: frontier in {tier:?} is chunk {}, its span {span:?} starts elsewhere",
                    front.idx
                );
            }
            ensure!(
                !e.manifest_dirty || self.manifest_dirty.contains(conv),
                "{conv:?}: flagged session missing from the manifest change set"
            );
        }
        for (id, s) in &self.shared {
            ensure!(
                s.chunk.tokens > 0 && s.chunk.tokens <= self.cfg.chunk_tokens,
                "{id:?}: shared chunk of {} tokens",
                s.chunk.tokens
            );
            ensure!(
                s.chunk.tier != Tier::GpuCopied,
                "{id:?}: shared chunk holds a lazy copy"
            );
            occ.admit(s.chunk.tier, s.chunk.tokens);
            let from_chains = chain_refs.get(id).copied().unwrap_or(0);
            ensure!(
                s.refs == from_chains + s.external_refs,
                "{id:?}: shared refcount drift: {} refs, {from_chains} chains + {} handles",
                s.refs,
                s.external_refs
            );
            let pins = chain_pins.get(id).copied().unwrap_or(0);
            ensure!(
                s.pinned_refs == pins,
                "{id:?}: shared pinned-ref drift: {} held, {pins} pinned chains",
                s.pinned_refs
            );
        }
        ensure!(
            occ == self.occ,
            "occupancy drift: recounted {occ:?}, held {:?}",
            self.occ
        );
        for tier in TIERS {
            let held = self.members.tiers.get(tier).len();
            ensure!(
                held == *members.get(tier),
                "membership drift in {tier:?}: {held} frontiers held for {} members",
                members.get(tier)
            );
        }
        ensure!(
            self.gpu_slots_used() <= self.cfg.gpu_capacity_tokens,
            "GPU over capacity: {} of {}",
            self.gpu_slots_used(),
            self.cfg.gpu_capacity_tokens
        );
        for rung in &self.ladder {
            ensure!(
                self.used(rung.tier) <= rung.capacity,
                "{rung:?} over capacity: {}",
                self.used(rung.tier)
            );
        }
        Ok(())
    }
}

// Under `tests/` so the workspace linter scopes it as test code; a child
// of this module so it can reach the queue and the state it is built from.
#[cfg(test)]
#[path = "tests/frontier.rs"]
mod frontier_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{CachedAttentionPolicy, LruPolicy, TrailingEndPolicy};
    use crate::prefix::synthetic_preamble;

    fn lru_cache(gpu: usize, cpu: usize) -> TieredKvCache {
        TieredKvCache::new(CacheConfig::for_test(32, gpu, cpu), Box::new(LruPolicy))
    }

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// Manifest entries for private (non-shared) chunks of the given sizes.
    fn private_manifest(tokens: &[usize]) -> Vec<ManifestChunk> {
        tokens
            .iter()
            .map(|&tokens| ManifestChunk {
                id: ChunkId::NONE,
                tokens,
            })
            .collect()
    }

    #[test]
    fn append_builds_chunks() {
        let mut cache = lru_cache(1000, 1000);
        let c = SessionId(1);
        cache.append_tokens(c, 50, t(0.0)).unwrap();
        assert_eq!(cache.conversation_tokens(c), 50);
        cache.append_tokens(c, 20, t(1.0)).unwrap();
        assert_eq!(cache.conversation_tokens(c), 70);
        assert_eq!(cache.gpu_slots_used(), 70);
        // 70 tokens at chunk 32 = chunks of 32, 32, 6.
        let plan = cache.plan_restore(c);
        assert_eq!(plan.gpu_hit_tokens, 70);
        assert!(plan.is_full_gpu_hit());
    }

    #[test]
    fn export_import_round_trip_preserves_layout() {
        let mut src = lru_cache(1000, 1000);
        let c = SessionId(7);
        src.append_tokens(c, 70, t(0.0)).unwrap();
        src.unpin(c);
        let export = src.export_session(c).expect("unpinned session exports");
        assert!(!src.contains(c));
        assert_eq!(src.gpu_slots_used(), 0);
        assert_eq!(src.cpu_used(), 0);
        assert_eq!(export.streamable_tokens(), 70);
        assert_eq!(export.dropped_tokens(), 0);
        assert!(export.chunks.iter().all(|ch| ch.tier == Tier::Cpu));

        let mut dst = lru_cache(1000, 1000);
        let admitted = dst.import_session(export, t(1.0)).unwrap();
        assert_eq!(admitted, 70);
        assert_eq!(dst.cpu_used(), 70);
        let plan = dst.plan_restore(c);
        assert_eq!(plan.swap_in_tokens, 70);
        assert_eq!(plan.recompute_tokens, 0);
    }

    #[test]
    fn export_refuses_pinned_and_unknown_sessions() {
        let mut cache = lru_cache(1000, 1000);
        let c = SessionId(1);
        cache.append_tokens(c, 40, t(0.0)).unwrap();
        cache.pin(c);
        assert!(cache.export_session(c).is_none());
        assert_eq!(cache.conversation_tokens(c), 40);
        assert!(cache.export_session(SessionId(99)).is_none());
        cache.unpin(c);
        assert!(cache.export_session(c).is_some());
    }

    #[test]
    fn lost_chunks_become_recompute_obligations() {
        let mut src = lru_cache(1000, 1000);
        let c = SessionId(2);
        src.append_tokens(c, 96, t(0.0)).unwrap();
        src.unpin(c);
        let mut export = src.export_session(c).unwrap();
        assert_eq!(export.mark_lost(0), 32);
        assert_eq!(export.mark_lost(0), 0, "double-loss is idempotent");
        assert_eq!(export.streamable_tokens(), 64);
        assert_eq!(export.dropped_tokens(), 32);

        let mut dst = lru_cache(1000, 1000);
        assert_eq!(dst.import_session(export, t(1.0)).unwrap(), 64);
        let plan = dst.plan_restore(c);
        // A dropped leading chunk forces recomputation of the prefix;
        // the surviving CPU chunks behind it are swapped in.
        assert_eq!(plan.recompute_tokens, 32);
        assert_eq!(plan.swap_in_tokens, 64);
    }

    #[test]
    fn import_demotes_past_cpu_capacity() {
        let mut src = lru_cache(1000, 1000);
        let c = SessionId(3);
        src.append_tokens(c, 96, t(0.0)).unwrap();
        src.unpin(c);
        let export = src.export_session(c).unwrap();

        // Target CPU tier only fits one 32-token chunk.
        let mut dst = lru_cache(1000, 40);
        let before = dst.stats().dropped_tokens;
        assert_eq!(dst.import_session(export, t(1.0)).unwrap(), 32);
        assert_eq!(dst.stats().dropped_tokens - before, 64);
        assert_eq!(dst.conversation_tokens(c), 96);
        assert_eq!(dst.cpu_used(), 32);
    }

    #[test]
    fn import_rejects_existing_session() {
        let mut a = lru_cache(1000, 1000);
        let c = SessionId(4);
        a.append_tokens(c, 32, t(0.0)).unwrap();
        a.unpin(c);
        let export = a.export_session(c).unwrap();

        let mut b = lru_cache(1000, 1000);
        b.append_tokens(c, 32, t(0.0)).unwrap();
        assert!(matches!(
            b.import_session(export, t(1.0)),
            Err(CacheError::SessionExists(s)) if s == c
        ));
        assert_eq!(b.conversation_tokens(c), 32);
    }

    #[test]
    fn append_rejects_overflow() {
        let mut cache = lru_cache(64, 64);
        let c = SessionId(1);
        assert!(matches!(
            cache.append_tokens(c, 65, t(0.0)),
            Err(CacheError::OutOfGpu { needed: 65, .. })
        ));
        assert_eq!(cache.conversation_tokens(c), 0);
    }

    #[test]
    fn watermark_triggers_ahead_of_time_swap() {
        // Capacity 128, watermark 25% -> swap when effective free < 32.
        let mut cache = lru_cache(128, 1000);
        let a = SessionId(1);
        cache.append_tokens(a, 64, t(0.0)).unwrap();
        cache.unpin(a);
        // 64 free (50%): above the watermark, nothing to do.
        assert!(cache.maybe_swap_out(t(0.5)).is_empty());
        cache.append_tokens(a, 36, t(1.0)).unwrap();
        cache.unpin(a);
        // 28 effectively free -> copy exactly one 32-token chunk.
        let ops = cache.maybe_swap_out(t(1.5));
        assert_eq!(ops.len(), 1);
        assert!(!ops[0].dropped);
        assert_eq!(ops[0].tokens, 32);
        assert!(cache.gpu_free_effective() >= 32);
        // The copied chunk still revalidates for free on return.
        let plan = cache.plan_restore(a);
        assert_eq!(plan.revalidate_tokens, 32);
        assert_eq!(plan.swap_in_tokens, 0);
    }

    #[test]
    fn revalidation_restores_for_free() {
        let mut cache = lru_cache(128, 1000);
        let a = SessionId(1);
        cache.append_tokens(a, 100, t(0.0)).unwrap();
        cache.unpin(a);
        let ops = cache.maybe_swap_out(t(1.0));
        assert_eq!(ops.len(), 1, "one chunk copied reaches the watermark");
        let plan = cache.commit_restore(a, t(2.0)).unwrap();
        assert_eq!(plan.new_gpu_slots(), 0, "revalidation costs nothing");
        assert_eq!(cache.stats().revalidated_tokens, 32);
        assert_eq!(cache.stats().swapped_in_tokens, 0);
        assert!(cache.stats().full_gpu_hits == 1);
    }

    #[test]
    fn lazy_copies_reclaimed_under_pressure_then_swapped_in() {
        let mut cache = lru_cache(128, 1000);
        let a = SessionId(1);
        cache.append_tokens(a, 100, t(0.0)).unwrap();
        cache.unpin(a);
        cache.maybe_swap_out(t(1.0));
        // A second conversation consumes the reclaimable slots.
        let b = SessionId(2);
        cache.append_tokens(b, 60, t(2.0)).unwrap();
        // A's copied chunk lost its GPU slot.
        let plan = cache.plan_restore(a);
        assert_eq!(plan.swap_in_tokens, 32);
        assert_eq!(plan.revalidate_tokens, 0);
        // B must release space before A can restore (b drops from gpu).
        cache.unpin(b);
        cache.suspend(b, t(3.0));
        let plan = cache.commit_restore(a, t(3.0)).unwrap();
        assert_eq!(plan.new_gpu_slots(), 32);
        assert_eq!(cache.stats().swapped_in_tokens, 32);
        assert_eq!(cache.stats().partial_hits, 1);
    }

    #[test]
    fn chunk_too_big_for_cpu_tier_is_dropped() {
        // CPU tier smaller than one chunk: eviction must drop, not copy.
        let mut cache = lru_cache(128, 16);
        let a = SessionId(1);
        cache.append_tokens(a, 128, t(0.0)).unwrap();
        cache.unpin(a);
        let ops = cache.maybe_swap_out(t(1.0));
        assert_eq!(ops.len(), 1);
        assert!(ops[0].dropped);
        assert_eq!(ops[0].chunk, 0, "leading chunk goes first under LRU");
        assert_eq!(cache.stats().dropped_tokens, 32);
    }

    #[test]
    fn cpu_pressure_drops_cpu_chunks_leading_first() {
        let mut cache = lru_cache(192, 64);
        // Conversation A is suspended to CPU (64 tokens fill the tier).
        let a = SessionId(1);
        cache.append_tokens(a, 64, t(0.0)).unwrap();
        cache.suspend(a, t(1.0));
        assert_eq!(cache.cpu_used(), 64);
        // Conversation B fills the GPU and triggers eviction; copying B's
        // chunk requires dropping A's leading CPU chunk.
        let b = SessionId(2);
        cache.append_tokens(b, 192, t(2.0)).unwrap();
        cache.unpin(b);
        let ops = cache.maybe_swap_out(t(3.0));
        assert!(!ops.is_empty());
        assert!(!ops[0].dropped, "B's chunk was copied, not dropped");
        assert!(cache.stats().dropped_tokens >= 32, "A lost a CPU chunk");
        let plan_a = cache.plan_restore(a);
        assert!(plan_a.recompute_tokens >= 32);
        assert_eq!(
            plan_a.segments.first().map(|(r, t)| (r.clone(), *t)),
            Some((0..64, Tier::Dropped)),
            "A's chunks dropped from the leading end"
        );
    }

    #[test]
    fn restore_plan_splits_figure5_segments() {
        let mut cache = lru_cache(128, 64);
        let a = SessionId(1);
        cache.append_tokens(a, 128, t(0.0)).unwrap();
        // Suspending with a CPU tier that holds only two chunks: chunks
        // 0 and 1 get copied but are then dropped to make room for 2 and
        // 3, leaving the paper's Figure-5 layout — dropped prefix, CPU
        // middle.
        cache.suspend(a, t(1.0));
        let plan = cache.plan_restore(a);
        assert_eq!(plan.recompute_tokens, 64);
        assert_eq!(plan.swap_in_tokens, 64);
        assert_eq!(plan.segments.len(), 2);
        assert_eq!(plan.segments[0], (0..64, Tier::Dropped));
        assert_eq!(plan.segments[1], (64..128, Tier::Cpu));
        assert_eq!(plan.recompute_ranges(), vec![0..64]);
        assert!(!plan.is_full_gpu_hit());
        assert_eq!(plan.new_gpu_slots(), 128);
    }

    #[test]
    fn suspend_moves_everything_off_gpu() {
        let mut cache = lru_cache(256, 1000);
        let a = SessionId(1);
        cache.append_tokens(a, 100, t(0.0)).unwrap();
        let moved = cache.suspend(a, t(1.0));
        assert_eq!(moved, 100);
        assert_eq!(cache.gpu_slots_used(), 0);
        let plan = cache.plan_restore(a);
        assert_eq!(plan.swap_in_tokens, 100);
    }

    #[test]
    fn pinned_conversations_are_not_evicted() {
        let mut cache = lru_cache(128, 1000);
        let a = SessionId(1);
        cache.append_tokens(a, 120, t(0.0)).unwrap();
        // Still pinned: swap-out finds no candidates.
        let ops = cache.maybe_swap_out(t(1.0));
        assert!(ops.is_empty());
        cache.unpin(a);
        assert!(!cache.maybe_swap_out(t(1.0)).is_empty());
    }

    #[test]
    fn lru_evicts_least_recently_active_conversation() {
        let mut cache = lru_cache(96, 1000);
        let (a, b) = (SessionId(1), SessionId(2));
        cache.append_tokens(a, 32, t(0.0)).unwrap();
        cache.append_tokens(b, 32, t(5.0)).unwrap();
        cache.unpin(a);
        cache.unpin(b);
        // 32 free = 33% > 25%: no swap yet. Add one more chunk.
        let c = SessionId(3);
        cache.append_tokens(c, 32, t(6.0)).unwrap();
        let ops = cache.maybe_swap_out(t(7.0));
        assert_eq!(ops[0].conv, a, "oldest conversation evicted first");
    }

    #[test]
    fn whole_conversation_policy_takes_all_chunks_of_one_conv() {
        let mut cache = TieredKvCache::new(
            CacheConfig::for_test(32, 192, 1000),
            Box::new(CachedAttentionPolicy),
        );
        let (a, b) = (SessionId(1), SessionId(2));
        cache.append_tokens(a, 64, t(0.0)).unwrap();
        cache.append_tokens(b, 96, t(5.0)).unwrap();
        cache.unpin(a);
        cache.unpin(b);
        // 32 free < 48 trigger: evict. Policy must take both of A's chunks
        // before any of B's.
        let ops = cache.maybe_swap_out(t(6.0));
        assert!(ops.len() >= 2);
        assert!(ops[0].conv == a && ops[1].conv == a);
    }

    #[test]
    fn trailing_policy_evicts_from_the_back() {
        let mut cache = TieredKvCache::new(
            CacheConfig::for_test(32, 128, 1000),
            Box::new(TrailingEndPolicy),
        );
        let a = SessionId(1);
        cache.append_tokens(a, 128, t(0.0)).unwrap();
        cache.unpin(a);
        let ops = cache.maybe_swap_out(t(1.0));
        assert_eq!(ops[0].chunk, 3, "trailing chunk first");
    }

    #[test]
    fn remove_conversation_frees_all_tiers() {
        let mut cache = lru_cache(128, 64);
        let a = SessionId(1);
        cache.append_tokens(a, 128, t(0.0)).unwrap();
        cache.unpin(a);
        cache.maybe_swap_out(t(1.0));
        cache.remove_conversation(a);
        assert_eq!(cache.gpu_slots_used(), 0);
        assert_eq!(cache.cpu_used(), 0);
        assert_eq!(cache.conversation_tokens(a), 0);
    }

    #[test]
    fn commit_restore_fails_without_space_and_is_side_effect_free() {
        let mut cache = lru_cache(96, 1000);
        let a = SessionId(1);
        cache.append_tokens(a, 96, t(0.0)).unwrap();
        cache.unpin(a);
        cache.suspend(a, t(1.0));
        // Fill the GPU with another pinned conversation.
        let b = SessionId(2);
        cache.append_tokens(b, 96, t(2.0)).unwrap();
        let before = cache.plan_restore(a);
        assert!(cache.commit_restore(a, t(3.0)).is_err());
        assert_eq!(cache.plan_restore(a), before, "failed commit mutated state");
    }

    /// Retention-value eviction order: cheap-to-recompute leading chunks
    /// of long-idle conversations go first; an active conversation's
    /// trailing chunk goes last.
    #[test]
    fn retention_value_orders_evictions() {
        use crate::policy::RetentionValuePolicy;
        use pensieve_model::{CostModel, HardwareSpec, ModelConfig, ProfiledCostTable};
        let cost = CostModel::new(ModelConfig::opt_13b(), HardwareSpec::azure_nc_a100(1));
        let policy = RetentionValuePolicy::new(ProfiledCostTable::profile(&cost, 32, 16384));
        let mut cache = TieredKvCache::new(CacheConfig::for_test(32, 512, 4096), Box::new(policy));
        // Conversation A: long context, idle since t=0.
        let a = SessionId(1);
        cache.append_tokens(a, 256, t(0.0)).unwrap();
        cache.unpin(a);
        // Conversation B: short context, active recently.
        let b = SessionId(2);
        cache.append_tokens(b, 128, t(100.0)).unwrap();
        cache.unpin(b);
        // Force deep eviction.
        let ops = cache.swap_out_until(512, t(101.0));
        assert!(!ops.is_empty());
        // The very first eviction is A's leading chunk (idle + cheap).
        assert_eq!(ops[0].conv, a);
        assert_eq!(ops[0].chunk, 0);
        // All of A's chunks go before any of B's (A idle 101 s vs 1 s —
        // the idle-time ratio dominates the cost ratio here).
        let first_b = ops.iter().position(|o| o.conv == b);
        let last_a = ops.iter().rposition(|o| o.conv == a);
        if let (Some(fb), Some(la)) = (first_b, last_a) {
            assert!(la < fb, "A (idle) must evict before B (recent)");
        }
        // Within A, chunks leave leading-end first.
        let a_chunks: Vec<usize> = ops
            .iter()
            .filter(|o| o.conv == a)
            .map(|o| o.chunk)
            .collect();
        let mut sorted = a_chunks.clone();
        sorted.sort_unstable();
        assert_eq!(a_chunks, sorted, "leading chunks evicted first");
    }

    /// Stale lazy-copy FIFO entries (revalidated chunks) are skipped, and
    /// re-copied chunks reclaim correctly afterwards.
    #[test]
    fn reclamation_skips_revalidated_copies() {
        let mut cache = lru_cache(128, 1000);
        let a = SessionId(1);
        cache.append_tokens(a, 100, t(0.0)).unwrap();
        cache.unpin(a);
        // Copy one chunk out, then revalidate it by restoring A.
        assert_eq!(cache.maybe_swap_out(t(1.0)).len(), 1);
        cache.commit_restore(a, t(2.0)).unwrap();
        assert_eq!(cache.stats().revalidated_tokens, 32);
        cache.unpin(a);
        // Copy again; the stale FIFO entry must not confuse reclamation.
        cache.append_tokens(a, 4, t(3.0)).unwrap();
        cache.unpin(a);
        let ops = cache.maybe_swap_out(t(4.0));
        assert!(!ops.is_empty());
        // A new conversation forces reclamation of the fresh copy.
        let b = SessionId(2);
        cache.append_tokens(b, 50, t(5.0)).unwrap();
        assert!(cache.gpu_slots_used() <= 128);
        let plan = cache.plan_restore(a);
        assert!(plan.swap_in_tokens >= 32, "fresh copy was reclaimed to CPU");
    }

    #[test]
    fn lost_cpu_chunk_becomes_dropped_and_recomputes() {
        let mut cache = lru_cache(256, 1000);
        let a = SessionId(1);
        cache.append_tokens(a, 64, t(0.0)).unwrap();
        cache.suspend(a, t(1.0));
        let listing = cache.cpu_resident_chunks();
        assert_eq!(listing, vec![(a, 0, 32), (a, 1, 32)]);
        let tokens = cache.mark_chunk_lost(a, 0).unwrap();
        assert_eq!(tokens, 32);
        assert_eq!(cache.stats().lost_chunk_tokens, 32);
        let plan = cache.plan_restore(a);
        assert_eq!(plan.recompute_tokens, 32);
        assert_eq!(plan.swap_in_tokens, 32);
        // A second fault on the same chunk is rejected: no CPU copy left.
        assert_eq!(
            cache.mark_chunk_lost(a, 0),
            Err(CacheError::ChunkNotInCpuTier { conv: a, chunk: 0 })
        );
    }

    #[test]
    fn corrupted_lazy_copy_reverts_to_gpu_resident() {
        let mut cache = lru_cache(128, 1000);
        let a = SessionId(1);
        cache.append_tokens(a, 100, t(0.0)).unwrap();
        cache.unpin(a);
        // One chunk gets lazily copied by the watermark pass.
        assert_eq!(cache.maybe_swap_out(t(1.0)).len(), 1);
        let listing = cache.cpu_resident_chunks();
        assert_eq!(listing.len(), 1);
        let (conv, idx, _) = listing[0];
        let tokens = cache.mark_chunk_corrupt(conv, idx).unwrap();
        assert_eq!(tokens, 32);
        assert_eq!(cache.stats().corrupted_chunk_tokens, 32);
        // The GPU bytes were never touched: a restore is still a full hit.
        let plan = cache.plan_restore(a);
        assert!(plan.is_full_gpu_hit());
        assert_eq!(cache.cpu_used(), 0);
        // The stale copied_fifo entry must not break later reclamation.
        let b = SessionId(2);
        cache.append_tokens(b, 28, t(2.0)).unwrap();
        assert!(cache.gpu_slots_used() <= 128);
    }

    #[test]
    fn drop_cpu_chunks_forces_recompute_fallback() {
        let mut cache = lru_cache(256, 1000);
        let a = SessionId(1);
        cache.append_tokens(a, 96, t(0.0)).unwrap();
        cache.suspend(a, t(1.0));
        assert_eq!(cache.drop_cpu_chunks(a, t(2.0)), 96);
        assert_eq!(cache.stats().swap_in_fault_tokens, 96);
        assert_eq!(cache.cpu_used(), 0);
        let plan = cache.plan_restore(a);
        assert_eq!(plan.swap_in_tokens, 0);
        assert_eq!(plan.recompute_tokens, 96);
        // Idempotent and safe on unknown conversations.
        assert_eq!(cache.drop_cpu_chunks(a, t(2.0)), 0);
        assert_eq!(cache.drop_cpu_chunks(SessionId(99), t(2.0)), 0);
    }

    #[test]
    fn fault_apis_reject_unknown_targets() {
        let mut cache = lru_cache(64, 64);
        assert_eq!(
            cache.mark_chunk_lost(SessionId(9), 0),
            Err(CacheError::UnknownConversation(SessionId(9)))
        );
        let a = SessionId(1);
        cache.append_tokens(a, 32, t(0.0)).unwrap();
        // GPU-resident chunk has no CPU copy.
        assert_eq!(
            cache.mark_chunk_corrupt(a, 0),
            Err(CacheError::ChunkNotInCpuTier { conv: a, chunk: 0 })
        );
        // Out-of-range chunk index.
        assert!(cache.mark_chunk_lost(a, 7).is_err());
    }

    #[test]
    fn unknown_conversation_has_empty_plan() {
        let cache = lru_cache(10, 10);
        let plan = cache.plan_restore(SessionId(42));
        assert_eq!(plan, RequestPlan::default());
        assert!(plan.is_full_gpu_hit());
    }

    fn deep_cache(gpu: usize, cpu: usize, ssd: usize, cold: usize) -> TieredKvCache {
        TieredKvCache::new(
            CacheConfig::for_test(32, gpu, cpu).with_deep_tiers(ssd, cold),
            Box::new(LruPolicy),
        )
    }

    #[test]
    fn eviction_cascades_down_the_tier_hierarchy() {
        // One 32-token chunk per host tier: each suspension pushes the
        // previous resident one tier further down until the oldest falls
        // off the bottom.
        let mut cache = deep_cache(128, 32, 32, 32);
        let (a, b, c, d) = (SessionId(1), SessionId(2), SessionId(3), SessionId(4));
        for (i, s) in [a, b, c, d].into_iter().enumerate() {
            let at = t(2.0 * i as f64);
            cache.append_tokens(s, 32, at).unwrap();
            cache.suspend(s, t(2.0 * i as f64 + 1.0));
        }
        let tier_of = |cache: &TieredKvCache, s: SessionId| {
            cache
                .plan_restore(s)
                .segments
                .first()
                .map(|(_, tier)| *tier)
                .unwrap()
        };
        assert_eq!(tier_of(&cache, a), Tier::Dropped, "oldest fell off");
        assert_eq!(tier_of(&cache, b), Tier::Cold);
        assert_eq!(tier_of(&cache, c), Tier::Ssd);
        assert_eq!(tier_of(&cache, d), Tier::Cpu);
        assert_eq!(cache.cpu_used(), 32);
        assert_eq!(cache.ssd_used(), 32);
        assert_eq!(cache.cold_used(), 32);
        // a: cpu->ssd, ssd->cold; b: cpu->ssd, ssd->cold; c: cpu->ssd.
        assert_eq!(cache.stats().demoted_tokens, 160);
        assert_eq!(cache.stats().dropped_tokens, 32);
    }

    /// Eviction-family events in recording order, rendered compactly:
    /// `E` GPU eviction of a private chunk, `D` demotion, `X` drop,
    /// `S` any move of a shared chunk (labelled by `names`).
    fn moves(rec: &SharedRecorder, names: &[(ChunkId, &str)]) -> Vec<String> {
        let name = |id: u64| {
            names
                .iter()
                .find(|(c, _)| c.0 == id)
                .map_or("?", |(_, n)| *n)
        };
        rec.events()
            .iter()
            .filter_map(|ev| match *ev {
                TraceEvent::ChunkEvicted {
                    conv,
                    chunk,
                    dropped,
                    ..
                } => Some(format!(
                    "E {conv}.{chunk} {}",
                    if dropped { "dropped" } else { "copied" }
                )),
                TraceEvent::ChunkDemoted {
                    conv,
                    chunk,
                    from,
                    to,
                    ..
                } => Some(format!(
                    "D {conv}.{chunk} {}>{}",
                    from.as_str(),
                    to.as_str()
                )),
                TraceEvent::ChunkDropped {
                    conv,
                    chunk,
                    reason,
                    ..
                } => Some(format!("X {conv}.{chunk} {}", reason.as_str())),
                TraceEvent::SharedChunkEvicted {
                    chunk,
                    refs,
                    dropped,
                    ..
                } => Some(format!(
                    "S {} refs={refs} {}",
                    name(chunk),
                    if dropped { "dropped" } else { "moved" }
                )),
                _ => None,
            })
            .collect()
    }

    /// Shared chunks ride the same ladder as private ones: pressure
    /// pushes a *referenced* chunk `Cpu → Ssd → Cold` and keeps it at
    /// the bottom (its sharer outweighs the incomer), while an
    /// *unreferenced* one beside it falls off. Deeper victims' events
    /// precede the victim that displaced them.
    #[test]
    fn shared_chunks_ride_the_ladder_and_only_unreferenced_ones_fall_off() {
        let mut cache = deep_cache(128, 32, 32, 64);
        let rec = SharedRecorder::new();
        cache.set_recorder(Some(rec.clone()));
        let kept = cache.register_shared(&synthetic_preamble(1, 32), t(0.0))[0];
        let orphan = cache.register_shared(&synthetic_preamble(2, 32), t(0.0))[0];
        let names = [(kept, "kept"), (orphan, "orphan")];
        let (a, x) = (SessionId(1), SessionId(9));
        cache.attach_shared(a, &[kept], t(1.0)).unwrap();
        cache.commit_restore(a, t(1.0)).unwrap();
        cache.unpin(a);
        cache.attach_shared(x, &[orphan], t(2.0)).unwrap();
        cache.commit_restore(x, t(2.0)).unwrap();
        cache.remove_conversation(x);
        assert_eq!(cache.shared_refs(kept), 1);
        assert_eq!(cache.shared_refs(orphan), 0);

        // Emptying the GPU moves both to the one-chunk CPU tier: the
        // older `kept` first, then pushed on to SSD by `orphan`.
        let ops = cache.swap_out_until(128, t(3.0));
        assert_eq!(ops.len(), 2);
        assert!(ops.iter().all(|op| op.shared.is_some() && !op.dropped));
        // Three private chunks arrive one by one and push the rest down.
        for (i, s) in [SessionId(2), SessionId(3), SessionId(4)]
            .into_iter()
            .enumerate()
        {
            cache.append_tokens(s, 32, t(4.0 + 2.0 * i as f64)).unwrap();
            cache.suspend(s, t(5.0 + 2.0 * i as f64));
        }
        assert_eq!(
            moves(&rec, &names),
            [
                // swap_out_until: kept GPU→CPU, then CPU→SSD for orphan.
                "S kept refs=1 moved",
                "S kept refs=1 moved",
                "S orphan refs=0 moved",
                // Session 2 suspends: kept SSD→cold, orphan CPU→SSD.
                "S kept refs=1 moved",
                "S orphan refs=0 moved",
                // Session 3 suspends: orphan SSD→cold beside kept.
                "S orphan refs=0 moved",
                "D 2.0 cpu>ssd",
                // Session 4 suspends with the cold tier full: `kept`
                // sorts first but is referenced, so it stays; `orphan`
                // is dropped to admit session 2's chunk.
                "S orphan refs=0 dropped",
                "D 2.0 ssd>cold",
                "D 3.0 cpu>ssd",
            ]
        );
        assert_eq!(
            cache.plan_restore(a).cold_read_tokens,
            32,
            "kept at the bottom"
        );
        assert_eq!(cache.plan_restore(a).shared_hit_tokens, 32);
        assert_eq!(cache.cold_used(), 64);
        assert_eq!(cache.stats().dropped_tokens, 32);
        // kept ×2, orphan ×2, and the three private demotions.
        assert_eq!(cache.stats().demoted_tokens, 7 * 32);
    }

    /// Equal scores tie-break private before shared.
    #[test]
    fn equal_scores_evict_the_private_chunk_before_the_shared_one() {
        let mut cache = lru_cache(128, 128);
        let rec = SharedRecorder::new();
        cache.set_recorder(Some(rec.clone()));
        let shared = cache.register_shared(&synthetic_preamble(1, 32), t(0.0))[0];
        let a = SessionId(1);
        cache.attach_shared(a, &[shared], t(5.0)).unwrap();
        cache.commit_restore(a, t(5.0)).unwrap();
        cache.append_tokens(a, 32, t(5.0)).unwrap();
        cache.unpin(a);
        // LRU scores: the private chunk 5.0, the shared one 5.0 × 1 ref.
        let ops = cache.swap_out_until(96, t(6.0));
        assert_eq!(ops.len(), 1);
        assert_eq!((ops[0].conv, ops[0].chunk, ops[0].shared), (a, 0, None));
        cache.swap_out_until(128, t(6.0));
        assert_eq!(
            moves(&rec, &[(shared, "shared")]),
            ["E 1.0 copied", "S shared refs=1 moved"]
        );
    }

    /// A rung's candidate queue is built once per pass and entries are
    /// re-validated at use: a session pinned since then is skipped, not
    /// evicted.
    #[test]
    fn a_session_re_pinned_after_the_snapshot_is_skipped() {
        let mut cache = lru_cache(256, 64);
        let rec = SharedRecorder::new();
        cache.set_recorder(Some(rec.clone()));
        let (a, b) = (SessionId(1), SessionId(2));
        for (i, s) in [a, b].into_iter().enumerate() {
            cache.append_tokens(s, 32, t(2.0 * i as f64)).unwrap();
            cache.suspend(s, t(2.0 * i as f64 + 1.0));
        }
        assert_eq!(cache.cpu_used(), 64);
        let mut queues = RungQueues::default();
        // First need: the queue holds a.0 and b.0; the older a.0 goes.
        assert!(cache.ensure_space(CPU_RUNG, 32, t(4.0), &mut queues));
        cache.pin(b);
        // Same pass: b.0 is still queued but now pinned, so it is passed
        // over and the rung runs out of candidates.
        assert!(!cache.ensure_space(CPU_RUNG, 64, t(4.0), &mut queues));
        assert_eq!(moves(&rec, &[]), ["X 1.0 cpu-pressure"]);
        assert_eq!(cache.plan_restore(b).swap_in_tokens, 32);
        // Unpinned again, a fresh pass may take it.
        cache.unpin(b);
        assert!(cache.ensure_space(CPU_RUNG, 64, t(5.0), &mut RungQueues::default()));
        assert_eq!(
            moves(&rec, &[]),
            ["X 1.0 cpu-pressure", "X 2.0 cpu-pressure"]
        );
    }

    /// A hand-built export is outside input. Offsets that do not add up
    /// and shared-ref sizes that disagree with this cache's pool must
    /// import to a consistent layout — debug builds check the accounting
    /// invariants inside `import_session` — and never panic or wrap.
    #[test]
    fn hostile_export_imports_to_a_consistent_layout() {
        let mut cache = lru_cache(1024, 1024);
        let chain = cache.register_shared(&synthetic_preamble(1, 64), t(0.0));
        let s = SessionId(1);
        let export = SessionExport {
            session: s,
            shared: vec![
                // Pooled here (32 tokens), but the sender says 7.
                SharedChunkRef {
                    id: chain[0],
                    tokens: 7,
                },
                // Unknown here, and larger than a chunk.
                SharedChunkRef {
                    id: ChunkId(42),
                    tokens: 40,
                },
                // Pooled, but behind the break: not re-attachable.
                SharedChunkRef {
                    id: chain[1],
                    tokens: 32,
                },
            ],
            chunks: vec![
                // `context_end < tokens` used to underflow.
                ChunkState {
                    tier: Tier::Cpu,
                    tokens: 48,
                    context_end: 3,
                },
                ChunkState {
                    tier: Tier::Gpu,
                    tokens: 8,
                    context_end: usize::MAX,
                },
                ChunkState {
                    tier: Tier::Cpu,
                    tokens: 0,
                    context_end: 0,
                },
            ],
        };
        assert_eq!(cache.import_session(export, t(1.0)).unwrap(), 48);
        assert_eq!(cache.shared_refs(chain[0]), 1);
        assert_eq!(cache.shared_refs(chain[1]), 0);
        // The re-attached chunk by the pool's size (never materialized,
        // so it recomputes), the unattached spans split to chunk size
        // and dropped, the CPU bytes admitted, the stray GPU chunk
        // dropped — positions running with no gap.
        assert_eq!(cache.conversation_tokens(s), 32 + 72 + 48 + 8);
        assert_eq!(
            cache.plan_restore(s).segments,
            vec![
                (0..104, Tier::Dropped),
                (104..152, Tier::Cpu),
                (152..160, Tier::Dropped)
            ]
        );
        assert_eq!(cache.cpu_used(), 48);
        assert_eq!(cache.stats().dropped_tokens, 72 + 8);
        // The session is servable: restore, then grow.
        cache.commit_restore(s, t(2.0)).unwrap();
        cache.append_tokens(s, 5, t(2.0)).unwrap();
        assert_eq!(cache.conversation_tokens(s), 165);
    }

    #[test]
    fn deep_tier_chunks_restore_as_hits() {
        let mut cache = deep_cache(128, 32, 32, 32);
        let (a, b, c) = (SessionId(1), SessionId(2), SessionId(3));
        for (i, s) in [a, b, c].into_iter().enumerate() {
            let at = t(2.0 * i as f64);
            cache.append_tokens(s, 32, at).unwrap();
            cache.suspend(s, t(2.0 * i as f64 + 1.0));
        }
        // a is cold, b is SSD, c is CPU.
        let plan_b = cache.plan_restore(b);
        assert_eq!(plan_b.ssd_read_tokens, 32);
        assert_eq!(plan_b.new_gpu_slots(), 32);
        assert!(!plan_b.is_full_gpu_hit());
        let committed = cache.commit_restore(b, t(10.0)).unwrap();
        assert_eq!(committed.ssd_read_tokens, 32);
        assert_eq!(cache.stats().ssd_hit_tokens, 32);
        assert_eq!(cache.ssd_used(), 0, "SSD chunk promoted to GPU");

        let plan_a = cache.plan_restore(a);
        assert_eq!(plan_a.cold_read_tokens, 32);
        cache.commit_restore(a, t(11.0)).unwrap();
        assert_eq!(cache.stats().cold_hit_tokens, 32);
        assert_eq!(cache.cold_used(), 0);
        // Both restores were served entirely from the deep tiers.
        assert_eq!(cache.stats().hit_rate(), 1.0);
    }

    #[test]
    fn zero_capacity_deep_tiers_reduce_to_two_tier_dropping() {
        // with_deep_tiers(0, 0) is the default everywhere: CPU pressure
        // must drop, exactly as before this hierarchy existed.
        let mut cache = deep_cache(128, 32, 0, 0);
        let (a, b) = (SessionId(1), SessionId(2));
        cache.append_tokens(a, 32, t(0.0)).unwrap();
        cache.suspend(a, t(1.0));
        cache.append_tokens(b, 32, t(2.0)).unwrap();
        cache.suspend(b, t(3.0));
        assert_eq!(cache.stats().demoted_tokens, 0);
        assert_eq!(cache.stats().dropped_tokens, 32);
        assert_eq!(cache.plan_restore(a).recompute_tokens, 32);
    }

    #[test]
    fn drop_deep_chunks_forces_recompute() {
        let mut cache = deep_cache(128, 32, 32, 32);
        let (a, b) = (SessionId(1), SessionId(2));
        cache.append_tokens(a, 32, t(0.0)).unwrap();
        cache.suspend(a, t(1.0));
        cache.append_tokens(b, 32, t(2.0)).unwrap();
        cache.suspend(b, t(3.0));
        // a is on SSD now; a failed device read drops it for recompute.
        assert_eq!(cache.drop_deep_chunks(a, t(4.0)), 32);
        assert_eq!(cache.stats().cold_read_fault_tokens, 32);
        assert_eq!(cache.ssd_used(), 0);
        assert_eq!(cache.plan_restore(a).recompute_tokens, 32);
        // Unknown conversations and warm sessions are no-ops.
        assert_eq!(cache.drop_deep_chunks(SessionId(9), t(4.0)), 0);
        assert_eq!(cache.drop_deep_chunks(b, t(4.0)), 0);
    }

    #[test]
    fn rehydrate_installs_cold_chunks_up_to_capacity() {
        let mut cache = deep_cache(128, 32, 32, 64);
        let a = SessionId(7);
        // Three chunks, cold tier fits two: trailing chunk drops to a
        // recompute obligation.
        assert_eq!(
            cache
                .rehydrate_session(a, &private_manifest(&[32, 32, 32]), t(0.0))
                .unwrap(),
            64
        );
        assert_eq!(cache.cold_used(), 64);
        assert_eq!(cache.stats().rehydrated_tokens, 64);
        assert_eq!(cache.conversation_tokens(a), 96);
        let plan = cache.plan_restore(a);
        assert_eq!(plan.cold_read_tokens, 64);
        assert_eq!(plan.recompute_tokens, 32);
        // Restoring after rehydration promotes the cold chunks to GPU.
        cache.commit_restore(a, t(1.0)).unwrap();
        assert_eq!(cache.stats().cold_hit_tokens, 64);
        assert_eq!(cache.cold_used(), 0);
        // A second rehydration of a live session is rejected unchanged.
        assert!(matches!(
            cache.rehydrate_session(a, &private_manifest(&[32]), t(2.0)),
            Err(CacheError::SessionExists(s)) if s == a
        ));
    }

    #[test]
    fn deep_tiers_round_trip_through_export_import() {
        let mut src = deep_cache(128, 32, 32, 32);
        let (a, b) = (SessionId(1), SessionId(2));
        src.append_tokens(a, 32, t(0.0)).unwrap();
        src.suspend(a, t(1.0));
        src.append_tokens(b, 32, t(2.0)).unwrap();
        src.suspend(b, t(3.0));
        // a sits on SSD; export stages it back to CPU for the wire.
        let export = src.export_session(a).unwrap();
        assert_eq!(src.ssd_used(), 0);
        assert!(export.chunks.iter().all(|c| c.tier == Tier::Cpu));

        let mut dst = deep_cache(128, 64, 0, 0);
        assert_eq!(dst.import_session(export, t(4.0)).unwrap(), 32);
        assert_eq!(dst.cpu_used(), 32);
        assert_eq!(dst.plan_restore(a).swap_in_tokens, 32);
    }

    // ---- Cross-conversation shared chunks ----

    #[test]
    fn attach_shares_one_physical_copy_across_sharers() {
        let mut cache = lru_cache(4096, 4096);
        let preamble = synthetic_preamble(1, 96); // 3 chunks of 32
        let chain = cache.register_shared(&preamble, t(0.0));
        assert_eq!(chain.len(), 3);
        assert_eq!(cache.lookup_shared(&preamble), chain);
        for i in 0..4u64 {
            let conv = SessionId(i + 1);
            assert_eq!(cache.attach_shared(conv, &chain, t(0.1)).unwrap(), 96);
            cache.commit_restore(conv, t(0.2)).unwrap();
            cache.append_tokens(conv, 32, t(0.3)).unwrap();
            cache.unpin(conv);
        }
        // First restore computes the chain once; later ones hit it.
        assert_eq!(cache.stats().shared_hit_tokens, 3 * 96);
        for id in &chain {
            assert_eq!(cache.shared_refs(*id), 4);
        }
        // One chain + four private turns, not four chains.
        assert_eq!(cache.physical_resident_tokens(), 96 + 4 * 32);
        assert_eq!(cache.logical_resident_tokens(), 4 * 96 + 4 * 32);
        // Positions: private context starts after the shared chain.
        assert_eq!(cache.conversation_tokens(SessionId(1)), 128);
    }

    #[test]
    fn attach_validates_chain_and_session() {
        let mut cache = lru_cache(1024, 1024);
        let chain = cache.register_shared(&synthetic_preamble(2, 64), t(0.0));
        cache.attach_shared(SessionId(1), &chain, t(0.1)).unwrap();
        assert!(matches!(
            cache.attach_shared(SessionId(1), &chain, t(0.2)),
            Err(CacheError::SessionExists(s)) if s == SessionId(1)
        ));
        assert!(matches!(
            cache.attach_shared(SessionId(2), &[ChunkId(42)], t(0.3)),
            Err(CacheError::UnknownChunk(id)) if id == ChunkId(42)
        ));
        // Out-of-order ids break context continuity.
        let reversed: Vec<ChunkId> = chain.iter().rev().copied().collect();
        assert!(matches!(
            cache.attach_shared(SessionId(2), &reversed, t(0.4)),
            Err(CacheError::BrokenSharedChain(_))
        ));
        assert!(
            !cache.contains(SessionId(2)),
            "failed attach mutates nothing"
        );
    }

    #[test]
    fn shared_chunk_survives_eviction_while_referenced() {
        // GPU fits the shared chunk plus one private chunk; CPU has room.
        let mut cache = lru_cache(64, 256);
        let chain = cache.register_shared(&synthetic_preamble(3, 32), t(0.0));
        let (a, b) = (SessionId(1), SessionId(2));
        cache.attach_shared(a, &chain, t(0.1)).unwrap();
        cache.commit_restore(a, t(0.2)).unwrap();
        cache.append_tokens(a, 32, t(0.3)).unwrap();
        cache.unpin(a);
        // Forcing full free space must evict, but the shared chunk moves
        // to CPU (its sharer still references it) instead of dropping.
        cache.swap_out_until(64, t(1.0));
        assert_eq!(cache.stats().dropped_tokens, 0);
        let plan = cache.plan_restore(a);
        assert_eq!(plan.recompute_tokens, 0);
        // A second sharer attaching later still finds the chunk.
        cache.attach_shared(b, &chain, t(2.0)).unwrap();
        assert_eq!(cache.shared_refs(chain[0]), 2);
        assert!(cache.plan_restore(b).shared_hit_tokens > 0);
    }

    #[test]
    fn last_release_makes_shared_chunk_droppable() {
        let mut cache = lru_cache(64, 0); // no CPU tier: eviction = drop
        let chain = cache.register_shared(&synthetic_preamble(4, 32), t(0.0));
        let a = SessionId(1);
        cache.attach_shared(a, &chain, t(0.1)).unwrap();
        cache.commit_restore(a, t(0.2)).unwrap();
        cache.unpin(a);
        // Referenced with nowhere to go: eviction keeps it resident.
        cache.swap_out_until(64, t(1.0));
        assert_eq!(cache.gpu_slots_used(), 32);
        // Last sharer leaves; now the same pressure drops it.
        cache.remove_conversation(a);
        assert_eq!(cache.shared_refs(chain[0]), 0);
        cache.swap_out_until(64, t(2.0));
        assert_eq!(cache.gpu_slots_used(), 0);
        assert_eq!(cache.stats().dropped_tokens, 32);
        // Identity survives the drop: a new attach recomputes, not errors.
        let b = SessionId(2);
        cache.attach_shared(b, &chain, t(3.0)).unwrap();
        assert_eq!(cache.plan_restore(b).recompute_tokens, 32);
    }

    #[test]
    fn global_chunks_are_never_evicted() {
        let mut cache = lru_cache(96, 0);
        let chain = cache.register_shared(&synthetic_preamble(5, 32), t(0.0));
        let handles = cache.materialize_global(&chain, t(0.0)).unwrap();
        assert_eq!(cache.gpu_slots_used(), 32);
        cache.swap_out_until(96, t(1.0));
        assert_eq!(cache.gpu_slots_used(), 32, "global chunk stays resident");
        for h in handles {
            cache.release(h).unwrap();
        }
        assert_eq!(leaked_chunk_handles(), 0);
    }

    #[test]
    fn handle_refcounts_are_balanced_and_typed() {
        let mut cache = lru_cache(256, 0);
        let chain = cache.register_shared(&synthetic_preamble(6, 32), t(0.0));
        let id = chain[0];
        assert!(matches!(
            cache.acquire(ChunkId(7)),
            Err(CacheError::UnknownChunk(_))
        ));
        let h1 = cache.acquire(id).unwrap();
        let h2 = cache.acquire(id).unwrap();
        assert_eq!(cache.shared_refs(id), 2);
        cache.release(h1).unwrap();
        cache.release(h2).unwrap();
        assert_eq!(cache.shared_refs(id), 0);
        // A forged handle releases into an empty refcount: typed error,
        // no panic, no underflow.
        let forged = ChunkHandle { id, armed: false };
        assert!(matches!(
            cache.release(forged),
            Err(CacheError::RefCountUnderflow(e)) if e == id
        ));
        assert_eq!(cache.shared_refs(id), 0);
    }

    #[test]
    fn fork_shares_parent_history_without_copying() {
        let mut cache = lru_cache(4096, 4096);
        let (parent, child) = (SessionId(1), SessionId(2));
        cache.append_tokens(parent, 96, t(0.0)).unwrap();
        cache.unpin(parent);
        let before_physical = cache.physical_resident_tokens();
        assert_eq!(cache.fork_session(parent, child, t(1.0)).unwrap(), 96);
        // No bytes copied: physical stays put, logical doubles.
        assert_eq!(cache.physical_resident_tokens(), before_physical);
        assert_eq!(cache.logical_resident_tokens(), 2 * before_physical);
        assert_eq!(cache.conversation_tokens(parent), 96);
        assert_eq!(cache.conversation_tokens(child), 96);
        // Both continue independently from the same point.
        cache.commit_restore(parent, t(2.0)).unwrap();
        cache.append_tokens(parent, 32, t(2.1)).unwrap();
        cache.unpin(parent);
        cache.commit_restore(child, t(3.0)).unwrap();
        cache.append_tokens(child, 16, t(3.1)).unwrap();
        cache.unpin(child);
        assert_eq!(cache.conversation_tokens(parent), 128);
        assert_eq!(cache.conversation_tokens(child), 112);
        // Fork errors are typed and non-mutating.
        assert!(matches!(
            cache.fork_session(SessionId(9), SessionId(10), t(4.0)),
            Err(CacheError::UnknownConversation(_))
        ));
        assert!(matches!(
            cache.fork_session(parent, child, t(4.0)),
            Err(CacheError::SessionExists(_))
        ));
    }

    #[test]
    fn manifest_round_trips_shared_chain_through_rehydrate() {
        let mut cache = deep_cache(4096, 64, 64, 256);
        let chain = cache.register_shared(&synthetic_preamble(8, 64), t(0.0));
        let a = SessionId(1);
        cache.attach_shared(a, &chain, t(0.1)).unwrap();
        cache.commit_restore(a, t(0.2)).unwrap();
        cache.append_tokens(a, 32, t(0.3)).unwrap();
        cache.unpin(a);
        let manifest = cache.manifest_chunks(a);
        assert_eq!(manifest.len(), 3);
        assert_eq!(manifest[0].id, chain[0]);
        assert_eq!(manifest[2].id, ChunkId::NONE);
        cache.remove_conversation(a);
        // Rehydration re-attaches the chain (still pooled) and installs
        // the private tail cold.
        let got = cache.rehydrate_session(a, &manifest, t(1.0)).unwrap();
        assert_eq!(got, 96, "64 shared re-attached + 32 cold-admitted");
        assert_eq!(cache.shared_refs(chain[0]), 1);
        assert_eq!(cache.conversation_tokens(a), 96);
        assert_eq!(cache.plan_restore(a).recompute_tokens, 0);
    }

    /// Every operation that can change a session's manifest layout
    /// reports the session through `take_manifest_dirty`; tier moves
    /// (suspend, swap-out, drops, restores) report nothing.
    #[test]
    fn manifest_dirty_covers_every_layout_change_and_no_tier_move() {
        let mut cache = deep_cache(4096, 64, 64, 256);
        let chain = cache.register_shared(&synthetic_preamble(8, 64), t(0.0));
        let ids: Vec<SessionId> = (1..=6).map(SessionId).collect();
        let layouts = |c: &TieredKvCache| -> Vec<Vec<ManifestChunk>> {
            ids.iter().map(|&s| c.manifest_chunks(s)).collect()
        };
        // Runs `op`, then checks that every session whose layout moved
        // was reported, and returns the reported set.
        let step = |cache: &mut TieredKvCache, op: &dyn Fn(&mut TieredKvCache)| -> Vec<SessionId> {
            let before = layouts(cache);
            op(cache);
            let dirty = cache.take_manifest_dirty();
            for (i, s) in ids.iter().enumerate() {
                if before[i] != cache.manifest_chunks(*s) {
                    assert!(dirty.contains(s), "{s:?} changed layout unreported");
                }
            }
            dirty
        };
        let [a, b, c, d, e, _] = ids[..] else {
            unreachable!()
        };
        assert_eq!(
            step(&mut cache, &|k| k.append_tokens(a, 40, t(0.1)).unwrap()),
            vec![a]
        );
        // A second append before the drain is one report, not two.
        assert_eq!(
            step(&mut cache, &|k| {
                k.append_tokens(a, 1, t(0.2)).unwrap();
                k.append_tokens(a, 1, t(0.3)).unwrap();
            }),
            vec![a]
        );
        assert_eq!(
            step(&mut cache, &|k| {
                k.attach_shared(b, &chain, t(0.4)).unwrap();
            }),
            vec![b]
        );
        // Tier moves: placement changes, layout does not.
        cache.unpin(a);
        assert!(step(&mut cache, &|k| {
            k.suspend(a, t(0.5));
            k.drop_cpu_chunks(a, t(0.6));
            k.drop_deep_chunks(a, t(0.7));
            k.commit_restore(a, t(0.8)).unwrap();
            k.unpin(a);
        })
        .is_empty());
        assert_eq!(
            step(&mut cache, &|k| {
                k.fork_session(a, c, t(0.9)).unwrap();
            }),
            vec![a, c]
        );
        let manifest = cache.manifest_chunks(a);
        assert_eq!(
            step(&mut cache, &|k| {
                k.rehydrate_session(d, &manifest, t(1.0)).unwrap();
            }),
            vec![d]
        );
        // An export reports the departed session; so does a removal.
        let export = std::cell::RefCell::new(None);
        assert_eq!(
            step(&mut cache, &|k| {
                *export.borrow_mut() = k.export_session(d);
            }),
            vec![d]
        );
        assert_eq!(
            step(&mut cache, &|k| {
                let mut ex = export.borrow_mut().take().unwrap();
                ex.session = e;
                k.import_session(ex, t(1.1)).unwrap();
            }),
            vec![e]
        );
        assert_eq!(step(&mut cache, &|k| k.remove_conversation(b)), vec![b]);
        // Remove-then-recreate between drains stays one sorted entry each.
        assert_eq!(
            step(&mut cache, &|k| {
                k.remove_conversation(e);
                k.append_tokens(e, 8, t(1.2)).unwrap();
                k.remove_conversation(a);
            }),
            vec![a, e]
        );
        assert!(cache.take_manifest_dirty().is_empty());
    }

    #[test]
    fn export_releases_and_import_reattaches_shared_chain() {
        let mut src = lru_cache(4096, 4096);
        let mut dst = lru_cache(4096, 4096);
        let preamble = synthetic_preamble(9, 64);
        let chain = src.register_shared(&preamble, t(0.0));
        // The destination knows the same preamble (content addressing
        // derives identical ids).
        assert_eq!(dst.register_shared(&preamble, t(0.0)), chain);
        let a = SessionId(1);
        src.attach_shared(a, &chain, t(0.1)).unwrap();
        src.commit_restore(a, t(0.2)).unwrap();
        src.append_tokens(a, 32, t(0.3)).unwrap();
        src.unpin(a);
        let export = src.export_session(a).unwrap();
        assert_eq!(src.shared_refs(chain[0]), 0, "export releases the ref");
        assert_eq!(export.shared.len(), 2);
        dst.import_session(export, t(1.0)).unwrap();
        assert_eq!(dst.shared_refs(chain[0]), 1);
        assert_eq!(dst.conversation_tokens(a), 96);
        // The chain was never materialized at dst, so it recomputes once
        // — but the private tail transferred as bytes.
        let plan = dst.plan_restore(a);
        assert_eq!(plan.swap_in_tokens, 32);
        assert_eq!(plan.recompute_tokens, 64);
    }
}
