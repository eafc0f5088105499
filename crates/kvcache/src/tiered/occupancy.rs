//! Where tokens are held: the per-tier occupancy table, each
//! conversation's row of it and the spans its tiers' chunks sit in, and
//! the one tier transition that keeps them — and the conversation's keys
//! in the candidate index and its placement stamp — in step.

use std::ops::Range;

use pensieve_model::SimTime;

use super::queue::{IdleKey, Members};
use crate::types::{ChunkState, SessionId, Tier};

/// One `T` per [`Tier`] — the shape of every per-tier table the cache
/// keeps: resident tokens ([`Occupancy`]), the frontiers a pass ranks
/// (`Members`), and where in a conversation a tier's chunks sit
/// (`ConvEntry::spans`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct PerTier<T> {
    pub(super) gpu: T,
    pub(super) gpu_copied: T,
    pub(super) cpu: T,
    pub(super) ssd: T,
    pub(super) cold: T,
    pub(super) dropped: T,
}

impl<T> PerTier<T> {
    pub(super) fn get(&self, tier: Tier) -> &T {
        match tier {
            Tier::Gpu => &self.gpu,
            Tier::GpuCopied => &self.gpu_copied,
            Tier::Cpu => &self.cpu,
            Tier::Ssd => &self.ssd,
            Tier::Cold => &self.cold,
            Tier::Dropped => &self.dropped,
        }
    }

    pub(super) fn get_mut(&mut self, tier: Tier) -> &mut T {
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
pub(super) const TIERS: [Tier; 6] = [
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
pub(super) type Occupancy = PerTier<usize>;

impl Occupancy {
    /// The one tier transition: moves `chunk`'s tokens from its current
    /// slot to `to`'s and sets its tier. Returns the tier it left.
    pub(super) fn retier(&mut self, chunk: &mut ChunkState, to: Tier) -> Tier {
        let from = chunk.tier;
        *self.get_mut(from) -= chunk.tokens;
        *self.get_mut(to) += chunk.tokens;
        chunk.tier = to;
        from
    }

    /// Accounts for `tokens` newly tracked in `tier`.
    pub(super) fn admit(&mut self, tier: Tier, tokens: usize) {
        *self.get_mut(tier) += tokens;
    }

    /// Forgets `tokens` that were tracked in `tier`.
    pub(super) fn release(&mut self, tier: Tier, tokens: usize) {
        *self.get_mut(tier) -= tokens;
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
pub(super) struct Span {
    pub(super) lo: usize,
    pub(super) hi: usize,
}

impl Span {
    /// The end of the span a walk starts from — where the frontier is,
    /// if the span is exact there.
    pub(super) fn front(self, descending: bool) -> Option<usize> {
        if descending {
            self.hi.checked_sub(1)
        } else {
            Some(self.lo)
        }
    }
}

#[derive(Debug)]
pub(super) struct ConvEntry {
    /// Tokens of the leading global preamble chunks the conversation is
    /// attached to (a whole number of chunks); private chunk positions
    /// start here.
    pub(super) shared_tokens: usize,
    /// Conversation-private chunks, after the shared chain.
    pub(super) chunks: Vec<ChunkState>,
    /// Private tokens per tier: this conversation's row of the occupancy
    /// table, so its totals are read, not recounted from `chunks`.
    pub(super) row: Occupancy,
    /// Per tier, where in `chunks` that tier's chunks sit.
    pub(super) spans: PerTier<Span>,
    pub(super) last_active: SimTime,
    pub(super) pinned: bool,
    /// In the cache's `commit_log`: set exactly while it is, so the hot
    /// append path enters the log once per drain.
    pub(super) committed: bool,
    /// The cache's move clock at this conversation's last private chunk
    /// move, or when it started being tracked (see [`Stamp`]).
    pub(super) moved: Stamp,
}

/// The cache-wide move clock: one tick per chunk that changes tier,
/// taken inside the one transition (`ConvEntry::retier`), so no move can
/// leave its chunk unstamped.
pub(super) type Stamp = u64;

/// The next tick of `clock`.
pub(super) fn tick(clock: &mut Stamp) -> Stamp {
    *clock += 1;
    *clock
}

impl ConvEntry {
    /// An unpinned entry neither reported as manifest-dirty nor in the
    /// commit log. Its row is empty until the chunks are entered
    /// (`TieredKvCache::track`).
    pub(super) fn new(shared_tokens: usize, chunks: Vec<ChunkState>, now: SimTime) -> Self {
        ConvEntry {
            shared_tokens,
            chunks,
            row: Occupancy::default(),
            spans: PerTier::default(),
            last_active: now,
            pinned: false,
            committed: false,
            moved: 0,
        }
    }

    /// Private (non-shared) tokens.
    pub(super) fn private_tokens(&self) -> usize {
        TIERS.iter().map(|&tier| *self.row.get(tier)).sum()
    }

    /// Logical context tokens: shared chain + private chunks.
    pub(super) fn total_tokens(&self) -> usize {
        self.shared_tokens + self.private_tokens()
    }

    /// `tokens` of private chunk `idx` start being held in `tier`: the
    /// row and the tier's span follow. The caller rekeys.
    pub(super) fn enter(&mut self, tier: Tier, idx: usize, tokens: usize) {
        let held = self.row.get_mut(tier);
        let span = self.spans.get_mut(tier);
        (span.lo, span.hi) = if *held == 0 {
            (idx, idx + 1)
        } else {
            (span.lo.min(idx), span.hi.max(idx + 1))
        };
        *held += tokens;
    }

    /// True if chunk `idx` entering `tier` — or growing there — leads the
    /// walk: it is, or will be, the conversation's frontier in the tier.
    fn leads(&self, tier: Tier, idx: usize, descending: bool) -> bool {
        let Span { lo, hi } = *self.spans.get(tier);
        *self.row.get(tier) == 0 || if descending { idx + 1 >= hi } else { idx <= lo }
    }

    /// True if the conversation has an entry in `tier`'s index: it is
    /// unpinned and holds tokens in a tier evictions rank.
    fn indexed(&self, tier: Tier) -> bool {
        !self.pinned && Members::ranks(tier) && *self.row.get(tier) > 0
    }

    /// The index key `chunk` has as the conversation's frontier: the
    /// conversation's clock and the chunk.
    pub(super) fn idle_key(&self, conv: SessionId, chunk: ChunkState) -> IdleKey {
        IdleKey {
            last_active: self.last_active,
            chunk,
            conv,
        }
    }

    /// The conversation's entry in `tier`'s index, derived: the key of
    /// the chunk at its span's leading end, and that chunk's index.
    fn entry(&self, conv: SessionId, tier: Tier, descending: bool) -> Option<(IdleKey, usize)> {
        let front = self.spans.get(tier).front(descending);
        let idx = front.filter(|_| self.indexed(tier))?;
        Some((self.idle_key(conv, *self.chunks.get(idx)?), idx))
    }

    /// Takes the conversation's entry out of `tier`'s index, before
    /// anything it is derived from moves.
    pub(super) fn withdraw(&self, conv: SessionId, tier: Tier, members: &mut Members) {
        if let Some((key, _)) = self.entry(conv, tier, members.descending) {
            members.by_idle.get_mut(tier).remove(&key);
        }
    }

    /// Finds the conversation's frontier in `tier` by walking the tier's
    /// span, which then starts there, and puts its entry in the index.
    fn seat(&mut self, conv: SessionId, tier: Tier, members: &mut Members) {
        if !self.indexed(tier) {
            return;
        }
        let descending = members.descending;
        let Span { lo, hi } = *self.spans.get(tier);
        let Some((idx, _)) = self.first_in(conv, tier, lo..hi, descending, &[]) else {
            return;
        };
        *self.spans.get_mut(tier) = if descending {
            Span { lo, hi: idx + 1 }
        } else {
            Span { lo: idx, hi }
        };
        let index = members.by_idle.get_mut(tier);
        index.extend(self.entry(conv, tier, descending));
    }

    /// Runs `change`, which may move any input of the conversation's
    /// keys — its clock, its pin, its chunks — between withdrawing the
    /// keys it had and seating the ones it has. A pinned conversation
    /// has none, and the hot append path is a pinned one.
    pub(super) fn rekey<R>(
        &mut self,
        conv: SessionId,
        members: &mut Members,
        change: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.pinned {
            for tier in TIERS {
                self.withdraw(conv, tier, members);
            }
        }
        let out = change(self);
        if !self.pinned {
            for tier in TIERS {
                self.seat(conv, tier, members);
            }
        }
        out
    }

    /// The one tier transition of a chunk: [`Occupancy::retier`]
    /// on the cache's table, mirrored on this conversation's row and
    /// spans, its keys in the two tiers rekeyed where the chunk is or
    /// becomes the frontier, and the conversation stamped from `clock`.
    /// An `idx` that is not a chunk moves nothing.
    pub(super) fn retier(
        &mut self,
        conv: SessionId,
        idx: usize,
        to: Tier,
        occ: &mut Occupancy,
        clock: &mut Stamp,
        members: &mut Members,
    ) {
        let Some(chunk) = self.chunks.get(idx).copied() else {
            return;
        };
        let (from, tokens) = (chunk.tier, chunk.tokens);
        let descending = members.descending;
        let rekeyed = [
            (from, self.spans.get(from).front(descending) == Some(idx)),
            (to, self.leads(to, idx, descending)),
        ];
        for (tier, _) in rekeyed.into_iter().filter(|&(_, moves)| moves) {
            self.withdraw(conv, tier, members);
        }
        if let Some(chunk) = self.chunks.get_mut(idx) {
            occ.retier(chunk, to);
        }
        self.moved = tick(clock);
        *self.row.get_mut(from) -= tokens;
        self.enter(to, idx, tokens);
        for (tier, _) in rekeyed.into_iter().filter(|&(_, moves)| moves) {
            self.seat(conv, tier, members);
        }
    }

    /// The first private chunk in `tier` along the policy's walk
    /// (`descending`: from the back), among the indices in `within` and
    /// stepping over `entrants` — the conversation's frontier there.
    pub(super) fn first_in(
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
