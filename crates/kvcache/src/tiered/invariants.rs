//! The cache's accounting recounted from its chunk records.

use std::collections::BTreeMap;

use super::occupancy::{Occupancy, PerTier, TIERS};
use super::queue::Members;
use super::TieredKvCache;
use crate::types::{ChunkId, ChunkState, Tier};

impl TieredKvCache {
    /// Recounts the cache's accounting from its chunk records and
    /// compares: chunk positions, per-tier occupancy, every
    /// conversation's row and spans, the candidate index, shared
    /// refcounts and pins, tier capacities, the commit log, and the
    /// keyed maps' and pool walk's key sets.
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
        // Per pooled chunk: the chains holding it, and how many are pinned.
        let mut chains: BTreeMap<ChunkId, (usize, usize)> = BTreeMap::new();
        let descending = self.members.descending;
        let mut committed = 0usize;
        for (&conv, e) in self.convs.iter() {
            let mut chain_tokens = 0usize;
            for id in &e.shared {
                let Some(s) = self.shared.get(id) else {
                    return Err(format!("{conv:?}: chain id {id:?} missing from pool"));
                };
                chain_tokens += s.chunk.tokens;
                let (refs, pins) = chains.entry(*id).or_default();
                *refs += 1;
                *pins += usize::from(e.pinned);
            }
            ensure!(
                chain_tokens == e.shared_tokens,
                "{conv:?}: shared_tokens drift: chain holds {chain_tokens}, entry says {}",
                e.shared_tokens
            );
            let mut pos = e.shared_tokens;
            let mut row = Occupancy::default();
            let mut fronts: PerTier<Option<(usize, ChunkState)>> = PerTier::default();
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
                if front.is_none() || descending {
                    *front = Some((i, *c));
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
                let Some((idx, chunk)) = *fronts.get(tier) else {
                    continue;
                };
                // A pinned conversation is in no index; an unpinned one
                // is at the key its frontier derives.
                let key = e.idle_key(conv, chunk);
                let held = self.members.by_idle.get(tier).get(&key);
                let expected = (!e.pinned).then_some(idx);
                ensure!(
                    held == expected.as_ref(),
                    "{conv:?}: index drift in {tier:?}: {key:?} holds {held:?}, frontier {expected:?}"
                );
                if e.pinned {
                    continue;
                }
                *members.get_mut(tier) += 1;
                let span = e.spans.get(tier);
                ensure!(
                    span.front(descending) == Some(idx),
                    "{conv:?}: frontier in {tier:?} is chunk {idx}, its span {span:?} starts elsewhere"
                );
            }
            ensure!(
                e.committed == self.commit_log.contains(&conv),
                "{conv:?}: commit flag {} disagrees with the commit log",
                e.committed
            );
            committed += usize::from(e.committed);
        }
        // Every flagged session is logged: nothing else may be.
        ensure!(
            self.commit_log.len() == committed,
            "commit log drift: {} sessions logged, {committed} flagged",
            self.commit_log.len()
        );
        ensure!(
            self.convs.is_consistent(),
            "session map drift: its key set and its table disagree"
        );
        ensure!(
            self.shared.is_consistent(),
            "pool drift: its key set and its table disagree"
        );
        let walkable = self.shared.iter().filter(|(_, s)| !s.global);
        ensure!(
            walkable.map(|(id, _)| id).eq(&self.walkable),
            "walkable pool drift: {} ids held, the pool has {} non-global chunks",
            self.walkable.len(),
            self.shared.values().filter(|s| !s.global).count()
        );
        for (id, s) in self.shared.iter() {
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
            let (from_chains, pins) = chains.get(id).copied().unwrap_or_default();
            ensure!(
                s.refs == from_chains,
                "{id:?}: shared refcount drift: {} refs, {from_chains} chains",
                s.refs
            );
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
            // Every member's key was found above, and keys are unique, so
            // an index no longer than the membership holds nothing else.
            let index = self.members.by_idle.get(tier);
            ensure!(
                index.len() == *members.get(tier),
                "index drift in {tier:?}: {} entries for {} members",
                index.len(),
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
