//! Which chunk an eviction pass takes next: the per-tier index of
//! frontiers in `last_active` order, and the candidate queue a pass
//! drains from it.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::ops::Bound;

use pensieve_model::SimTime;

use super::keyed::FxHashSet;
use super::occupancy::{PerTier, Span};
use super::{TieredKvCache, Victim};
use crate::types::{ChunkState, SessionId, Tier};

/// A frontier's place in its tier's `last_active` index: oldest first,
/// then by the frontier chunk, then by conversation. Entries that agree
/// on everything but the conversation form a *tie class*: the policy is
/// handed identical arguments for each, so they score bit for bit alike
/// and rank among themselves by conversation — their index order.
#[derive(Debug, Clone, Copy)]
pub(super) struct IdleKey {
    pub(super) last_active: SimTime,
    pub(super) chunk: ChunkState,
    pub(super) conv: SessionId,
}

impl IdleKey {
    /// The largest key of this key's tie class.
    fn class_end(self) -> Self {
        IdleKey {
            conv: SessionId(u64::MAX),
            ..self
        }
    }
}

impl Ord for IdleKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let (a, b) = (&self.chunk, &other.chunk);
        self.last_active
            .total_cmp(&other.last_active)
            .then(a.context_end.cmp(&b.context_end))
            .then(a.tokens.cmp(&b.tokens))
            .then(self.conv.cmp(&other.conv))
    }
}

impl PartialOrd for IdleKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for IdleKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for IdleKey {}

/// Per tier a pass can evict from, one entry per unpinned conversation
/// holding private tokens there: its *frontier* — the first private chunk
/// in the tier along the policy's walk, the only one that can be the
/// conversation's next victim — keyed by [`IdleKey`], with its chunk
/// index. Exactly the candidates a queue over the tier starts from, in
/// the order it visits them. Nothing here is a copy: each key is
/// derived from its conversation's entry, and written only by
/// `ConvEntry::rekey` and `ConvEntry::retier`.
#[derive(Debug, Default, PartialEq)]
pub(super) struct Members {
    pub(super) by_idle: PerTier<BTreeMap<IdleKey, usize>>,
    /// True if the policy walks a conversation's chunks from the back:
    /// trailing-first at chunk granularity. A whole-conversation policy
    /// takes every chunk anyway and walks forward.
    pub(super) descending: bool,
}

impl Members {
    /// Nothing is evicted *from* a lazy copy or from nowhere, so those
    /// two tiers keep no frontiers.
    pub(super) fn ranks(tier: Tier) -> bool {
        !matches!(tier, Tier::GpuCopied | Tier::Dropped)
    }
}

/// One entry of a [`CandidateQueue`]: a victim and the score it was given
/// at the pass's `now`. Ordered by `(score, victim)` — the eviction
/// order. `total_cmp` keeps the order total even if a policy ever
/// returned a NaN score (NaN sorts last instead of panicking), and agrees
/// with `partial_cmp` on the finite scores every in-tree policy produces.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    score: f64,
    victim: Victim,
    /// Pushed from the `last_active` index as the first member of its tie
    /// class the queue had not pushed, with more behind it: popping it
    /// pushes the next one.
    chains: bool,
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
/// without listing them: a k-way merge over conversations, fed lazily
/// from the tier's `last_active` index.
///
/// At one `now` every chunk of a conversation shares its idle time, so
/// within a conversation and a tier the policy's order is its
/// within-conversation walk (see `EvictionPolicy::score`) and only the
/// first chunk along it — the conversation's *frontier* in the tier —
/// can be the next victim. The heap holds the frontiers visited so far;
/// `TieredKvCache::next_candidate` pops the lowest and pushes the popped
/// conversation's next chunk in
/// the tier, so draining it yields exactly the sorted list of all
/// candidates, tie-breaks included.
///
/// Frontiers are visited oldest first, and only while the heap's best
/// score is at least the policy's `EvictionPolicy::score_floor` for the
/// next one: past that point no unvisited frontier can rank first. The
/// stop is strict because an equal score may hide a smaller victim. Of a
/// tie class only the first member not yet pushed is visited; the next
/// follows when it is popped. A pass costs the frontiers inside the
/// floor band plus its victims.
///
/// The candidate *set* is fixed when the queue is built (the first time
/// the pass needs the tier): `entrants` lists the chunks this pass has
/// since landed on the tier, which the walk steps over until
/// the next pass builds a fresh queue. The buffers are reused from pass
/// to pass (`TieredKvCache::candidate_queue`, `TieredKvCache::recycle`).
#[derive(Debug)]
pub(super) struct CandidateQueue {
    pub(super) tier: Tier,
    heap: BinaryHeap<Reverse<Candidate>>,
    entrants: Vec<(SessionId, usize)>,
    /// Where the visit of the tier's index resumes — `Included` at the
    /// entry it stopped in front of — or `None` once it has run off the
    /// end. Entries behind it are visited, or belong to conversations in
    /// `pushed`; so are entries the pass inserts behind it later.
    resume: Option<Bound<IdleKey>>,
    /// Conversations the queue has pushed a candidate for, or excluded:
    /// none is pushed from the index twice.
    pushed: FxHashSet<SessionId>,
}

impl CandidateQueue {
    /// Queues `victim`, scored `score` at the pass's `now`.
    fn push(&mut self, score: f64, victim: Victim, chains: bool) {
        self.heap.push(Reverse(Candidate {
            score,
            victim,
            chains,
        }));
    }
}

/// Caller-held candidate queues, one per ladder rung, each built lazily
/// and at most once per eviction pass, then consumed from the front with
/// entries re-validated at use.
pub(super) type RungQueues = [Option<CandidateQueue>; 3];

impl TieredKvCache {
    /// Builds `tier`'s candidate queue for one pass, in buffers
    /// a finished pass gave back: the frontier of every unpinned member
    /// conversation (`skip` excepted), visited later, oldest first, only
    /// as far as the floor requires. Nothing is paid per chunk behind a
    /// frontier or per conversation with no token in the tier; the global
    /// preamble is no conversation's chunk and never a candidate.
    pub(super) fn candidate_queue(
        &mut self,
        tier: Tier,
        skip: Option<SessionId>,
    ) -> CandidateQueue {
        let mut queue = self.spare_queues.pop().unwrap_or_else(|| CandidateQueue {
            tier,
            heap: BinaryHeap::new(),
            entrants: Vec::new(),
            resume: None,
            pushed: FxHashSet::default(),
        });
        queue.tier = tier;
        queue.heap.clear();
        queue.entrants.clear();
        queue.resume = Some(Bound::Unbounded);
        queue.pushed.clear();
        queue.pushed.extend(skip);
        queue
    }

    /// Keeps the buffers of queues whose pass is over for the next one.
    pub(super) fn recycle(&mut self, queues: impl IntoIterator<Item = CandidateQueue>) {
        self.spare_queues.extend(queues);
    }

    /// Visits `queue`'s tier index from where it left off until no
    /// unvisited frontier can beat the heap's best: that score is
    /// strictly below the next frontier's floor. Each visited
    /// conversation not pushed yet is pushed as the head of its tie
    /// class, and the visit skips the rest of the class.
    fn scan(&self, queue: &mut CandidateQueue, now: SimTime) {
        let stops = |queue: &CandidateQueue, key: &IdleKey| {
            let below_floor = |Reverse(top): &Reverse<Candidate>| {
                top.score < self.policy.score_floor(key.last_active, now)
            };
            queue.heap.peek().is_some_and(below_floor)
        };
        // Most pops stop in front of the same entry as the last one.
        if let Some(Bound::Included(key)) = queue.resume {
            if stops(queue, &key) {
                return;
            }
        }
        let index = self.members.by_idle.get(queue.tier);
        'visit: while let Some(from) = queue.resume {
            let mut entries = index.range((from, Bound::Unbounded)).peekable();
            while let Some((&key, &idx)) = entries.next() {
                if stops(queue, &key) {
                    queue.resume = Some(Bound::Included(key));
                    return;
                }
                queue.resume = Some(Bound::Excluded(key));
                if !queue.pushed.insert(key.conv) {
                    continue;
                }
                let chains = entries
                    .peek()
                    .is_some_and(|(next, _)| next.class_end() == key.class_end());
                self.push_head(queue, key, idx, chains, now);
                if chains {
                    queue.resume = Some(Bound::Excluded(key.class_end()));
                    continue 'visit;
                }
            }
            queue.resume = None;
        }
    }

    /// Pushes the frontier at index entry `key` (chunk `idx`) as the head
    /// of its tie class, `chains` if members the queue has not pushed
    /// follow it; the caller has entered its conversation in `pushed`.
    fn push_head(
        &self,
        queue: &mut CandidateQueue,
        key: IdleKey,
        idx: usize,
        chains: bool,
        now: SimTime,
    ) {
        let score = self.policy.score(&key.chunk, key.last_active, now);
        debug_assert!(
            score
                .total_cmp(&self.policy.score_floor(key.last_active, now))
                .is_ge(),
            "{} scores chunk {idx} of {:?} below its floor",
            self.policy.name(),
            key.conv
        );
        queue.push(score, Victim(key.conv, idx), chains);
    }

    /// Pushes the first member of `head`'s tie class after it that the
    /// queue has not pushed yet, as the class's next head.
    fn push_next_head(&self, queue: &mut CandidateQueue, head: IdleKey, now: SimTime) {
        let index = self.members.by_idle.get(queue.tier);
        let class = (Bound::Excluded(head), Bound::Included(head.class_end()));
        let mut unpushed = index
            .range(class)
            .filter(|(k, _)| !queue.pushed.contains(&k.conv));
        let next = unpushed.next().map(|(&key, &idx)| (key, idx));
        let chains = unpushed.next().is_some();
        if let Some((key, idx)) = next {
            queue.pushed.insert(key.conv);
            self.push_head(queue, key, idx, chains, now);
        }
    }

    /// Takes the next candidate off `queue` in eviction order; its place
    /// is taken by its conversation's next chunk in the tier (newcomers
    /// of this pass stepped over), scored at the pass's `now`, and a
    /// class head's by the next member of its class. The caller
    /// re-validates the candidate at use.
    pub(super) fn next_candidate(
        &self,
        queue: &mut CandidateQueue,
        now: SimTime,
    ) -> Option<Victim> {
        self.scan(queue, now);
        let Reverse(top) = queue.heap.pop()?;
        let Victim(conv, idx) = top.victim;
        if let Some(e) = self.convs.get(&conv) {
            if let Some(&chunk) = e.chunks.get(idx).filter(|_| top.chains) {
                self.push_next_head(queue, e.idle_key(conv, chunk), now);
            }
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
                queue.push(score, Victim(conv, next), false);
            }
        }
        Some(top.victim)
    }

    /// Chunk `idx` of `conv` landed on `queue`'s tier after the queue was
    /// built, so the pass steps over it. The landing may have
    /// moved `conv`'s index entry, possibly behind the visit; if the
    /// queue has no candidate of `conv` yet, the one it would have had —
    /// the first chunk in the tier that is not an entrant — is pushed
    /// now, and the entry is never needed.
    pub(super) fn step_over(
        &self,
        queue: &mut CandidateQueue,
        Victim(conv, idx): Victim,
        now: SimTime,
    ) {
        queue.entrants.push((conv, idx));
        if !queue.pushed.insert(conv) {
            return;
        }
        let Some(e) = self.convs.get(&conv) else {
            return;
        };
        let Span { lo, hi } = *e.spans.get(queue.tier);
        let descending = self.members.descending;
        let first = e.first_in(conv, queue.tier, lo..hi, descending, &queue.entrants);
        if let Some((first, c)) = first {
            let score = self.policy.score(c, e.last_active, now);
            queue.push(score, Victim(conv, first), false);
        }
    }

    /// The full sort [`CandidateQueue`] replaced, kept as the test
    /// oracle: all evictable chunks in `tier` — the chunks of unpinned
    /// conversations — scored one by one and sorted ascending by (score,
    /// victim identity), with the policy's within-conversation order
    /// applied to chunk indices.
    #[cfg(test)]
    pub(super) fn collect_candidates(&self, tier: Tier, now: SimTime) -> Vec<(Victim, f64)> {
        use crate::policy::{Granularity, WithinOrder};
        let trailing = self.policy.within_order() == WithinOrder::TrailingFirst;
        let mut out: Vec<(Victim, f64)> = Vec::new();
        for (&cid, e) in self.convs.iter() {
            if e.pinned {
                continue;
            }
            for (i, c) in e.chunks.iter().enumerate() {
                if c.tier == tier {
                    let score = self.policy.score(c, e.last_active, now);
                    out.push((Victim(cid, i), score));
                }
            }
        }
        let conversation_granularity = self.policy.granularity() == Granularity::Conversation;
        out.sort_by(|(Victim(c1, i1), s1), (Victim(c2, i2), s2)| {
            s1.total_cmp(s2)
                .then(c1.cmp(c2))
                .then(if trailing && !conversation_granularity {
                    i2.cmp(i1)
                } else {
                    i1.cmp(i2)
                })
        });
        out
    }
}
