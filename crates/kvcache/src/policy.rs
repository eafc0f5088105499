//! Eviction policies (§4.3.1 and the Table-3 / Figure-14 comparisons).
//!
//! A policy orders *candidate chunks* for eviction: chunks with smaller
//! scores go first. Policies may additionally evict at whole-conversation
//! granularity (CachedAttention-style) or prefer the trailing end of a
//! context (SGLang/RAGCache-style); the cache manager consults
//! [`EvictionPolicy::granularity`] and [`EvictionPolicy::within_order`] to
//! honor those shapes.

use std::fmt;

use pensieve_model::{ProfiledCostTable, SimTime};

use crate::types::ChunkState;

/// Whether a policy evicts chunk-by-chunk or whole conversations at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// Individual token chunks (Pensieve).
    Chunk,
    /// An entire conversation's context at a time (CachedAttention).
    Conversation,
}

/// Ordering of chunks *within* one conversation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WithinOrder {
    /// Evict leading (oldest-position) chunks first — cheap to recompute
    /// (Pensieve).
    LeadingFirst,
    /// Evict trailing chunks first — prefix-tree style (SGLang, RAGCache).
    TrailingFirst,
}

/// Strategy choosing which cached chunks to evict or drop.
pub trait EvictionPolicy: fmt::Debug + Send + Sync {
    /// Short policy name for logs and experiment output.
    fn name(&self) -> &'static str;

    /// Primary eviction key; **smaller scores are evicted sooner**.
    ///
    /// Contract: at a fixed `now`, non-decreasing along
    /// [`EvictionPolicy::within_order`] within one conversation — as the
    /// cache walks one conversation's chunks (one `last_active`, rising
    /// `context_end` leading-first, falling trailing-first) the score
    /// never goes down. The cache ranks a conversation by the first
    /// chunk along that walk only, so a policy that broke this would see
    /// chunks evicted out of its own order; debug builds assert it where
    /// the walk advances. Constant scores (the LRU shapes) satisfy it
    /// trivially; [`RetentionValuePolicy`] does because
    /// [`ProfiledCostTable::chunk_cost`] never falls as context grows.
    fn score(&self, chunk: &ChunkState, last_active: SimTime, now: SimTime) -> f64;

    /// A lower bound on [`EvictionPolicy::score`] of every chunk of a
    /// conversation last active at `last_active`, at `now`.
    ///
    /// Contract: `score_floor(t, now) <= score(chunk, t, now)` for every
    /// chunk, and non-decreasing in `t` at a fixed `now`. An eviction pass
    /// visits conversations oldest first and stops ranking them once the
    /// best candidate it holds scores strictly below the next one's floor,
    /// so a tight floor makes a pass cost the conversations near the front
    /// rather than every resident one. The default, `f64::NEG_INFINITY`,
    /// bounds nothing: every pass ranks every member, which is always
    /// exact.
    fn score_floor(&self, _last_active: SimTime, _now: SimTime) -> f64 {
        f64::NEG_INFINITY
    }

    /// Eviction granularity; defaults to chunk-level.
    fn granularity(&self) -> Granularity {
        Granularity::Chunk
    }

    /// Within-conversation ordering; defaults to leading-first.
    fn within_order(&self) -> WithinOrder {
        WithinOrder::LeadingFirst
    }
}

/// Minimum idle time used in the retention-value denominator, avoiding a
/// division by zero for a conversation touched at the current instant.
const MIN_IDLE_SECS: f64 = 1e-3;

/// The retention-value denominator `T`: seconds idle, clamped below at
/// [`MIN_IDLE_SECS`]. Non-increasing in `last_active`.
fn idle_secs(last_active: SimTime, now: SimTime) -> f64 {
    now.saturating_duration_since(last_active)
        .as_secs()
        .max(MIN_IDLE_SECS)
}

/// Pensieve's retention-value policy: `V = Cost(l) / T` (§4.3.1).
///
/// `Cost(l)` is the profiled chunk-recomputation cost at the chunk's
/// context position and `T` the conversation's idle time; chunks that are
/// cheap to recompute or long-inactive have low retention value and are
/// evicted first. Because `Cost(l)` grows with `l`, leading chunks of a
/// conversation naturally go before trailing ones — and `Cost(0) / T` is
/// its score floor. `Cost` rises slowly with `l`, so the floor is tight.
pub struct RetentionValuePolicy {
    cost: ProfiledCostTable,
}

impl RetentionValuePolicy {
    /// Builds the policy from an offline-profiled cost table.
    #[must_use]
    pub fn new(cost: ProfiledCostTable) -> Self {
        RetentionValuePolicy { cost }
    }
}

impl fmt::Debug for RetentionValuePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RetentionValuePolicy")
            .finish_non_exhaustive()
    }
}

impl EvictionPolicy for RetentionValuePolicy {
    fn name(&self) -> &'static str {
        "retention-value"
    }

    fn score(&self, chunk: &ChunkState, last_active: SimTime, now: SimTime) -> f64 {
        self.cost.chunk_cost(chunk.context_end).as_secs() / idle_secs(last_active, now)
    }

    /// `Cost(0) / T`: `Cost` never falls as `l` grows, and dividing by the
    /// same `T` keeps the order; `T` falls as `last_active` rises.
    fn score_floor(&self, last_active: SimTime, now: SimTime) -> f64 {
        self.cost.chunk_cost(0).as_secs() / idle_secs(last_active, now)
    }
}

/// Classic LRU at conversation recency, chunk granularity (Figure 14's
/// baseline): ranks purely by how recently the owning conversation was
/// active, ignoring recomputation cost.
#[derive(Debug, Default)]
pub struct LruPolicy;

impl EvictionPolicy for LruPolicy {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn score(&self, _chunk: &ChunkState, last_active: SimTime, _now: SimTime) -> f64 {
        last_active.as_secs()
    }

    fn score_floor(&self, last_active: SimTime, _now: SimTime) -> f64 {
        last_active.as_secs()
    }
}

/// CachedAttention-style policy: LRU over *entire conversations*
/// (Table 3, "eviction granularity: entire conversation history").
#[derive(Debug, Default)]
pub struct CachedAttentionPolicy;

impl EvictionPolicy for CachedAttentionPolicy {
    fn name(&self) -> &'static str {
        "whole-conversation-lru"
    }

    fn score(&self, _chunk: &ChunkState, last_active: SimTime, _now: SimTime) -> f64 {
        last_active.as_secs()
    }

    fn score_floor(&self, last_active: SimTime, _now: SimTime) -> f64 {
        last_active.as_secs()
    }

    fn granularity(&self) -> Granularity {
        Granularity::Conversation
    }
}

/// SGLang/RAGCache-style policy: LRU recency, but evicting from the
/// *trailing* end of a context (Table 3, "eviction location preference:
/// trailing").
#[derive(Debug, Default)]
pub struct TrailingEndPolicy;

impl EvictionPolicy for TrailingEndPolicy {
    fn name(&self) -> &'static str {
        "trailing-end-lru"
    }

    fn score(&self, _chunk: &ChunkState, last_active: SimTime, _now: SimTime) -> f64 {
        last_active.as_secs()
    }

    fn score_floor(&self, last_active: SimTime, _now: SimTime) -> f64 {
        last_active.as_secs()
    }

    fn within_order(&self) -> WithinOrder {
        WithinOrder::TrailingFirst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Tier;
    use pensieve_model::{
        CostModel, HardwareSpec, ModelConfig, ProfiledCostTable, SimDuration, SimTime,
    };

    fn chunk(context_end: usize) -> ChunkState {
        ChunkState {
            tier: Tier::Gpu,
            tokens: 32,
            context_end,
        }
    }

    fn retention() -> RetentionValuePolicy {
        let cost = CostModel::new(ModelConfig::opt_13b(), HardwareSpec::azure_nc_a100(1));
        RetentionValuePolicy::new(ProfiledCostTable::profile(&cost, 32, 16384))
    }

    #[test]
    fn retention_prefers_leading_chunks() {
        let p = retention();
        let now = SimTime::from_secs(100.0);
        let t = SimTime::from_secs(40.0);
        assert!(p.score(&chunk(32), t, now) < p.score(&chunk(8192), t, now));
    }

    #[test]
    fn retention_prefers_idle_conversations() {
        let p = retention();
        let now = SimTime::from_secs(100.0);
        let recent = SimTime::from_secs(99.0);
        let old = SimTime::from_secs(10.0);
        assert!(p.score(&chunk(1024), old, now) < p.score(&chunk(1024), recent, now));
    }

    #[test]
    fn retention_handles_zero_idle() {
        let p = retention();
        let now = SimTime::from_secs(5.0);
        let s = p.score(&chunk(64), now, now);
        assert!(s.is_finite() && s > 0.0);
    }

    /// A very idle conversation's expensive chunk can still rank below a
    /// fresh conversation's cheap chunk — cost and recency trade off.
    #[test]
    fn retention_trades_off_cost_and_recency() {
        let p = retention();
        let now = SimTime::from_secs(1000.0);
        let very_idle = SimTime::from_secs(0.0);
        let fresh = SimTime::from_secs(999.9);
        let idle_expensive = p.score(&chunk(16384), very_idle, now);
        let fresh_cheap = p.score(&chunk(32), fresh, now);
        assert!(idle_expensive < fresh_cheap);
    }

    #[test]
    fn lru_ignores_cost() {
        let p = LruPolicy;
        let now = SimTime::ZERO + SimDuration::from_secs(50.0);
        let t = SimTime::from_secs(3.0);
        assert_eq!(p.score(&chunk(32), t, now), p.score(&chunk(9999), t, now));
        assert!(p.score(&chunk(32), SimTime::from_secs(1.0), now) < p.score(&chunk(32), t, now));
    }

    /// The [`EvictionPolicy::score_floor`] contract, for every in-tree
    /// policy (retention value over two models): below the score of a
    /// chunk at any position, and non-decreasing in `last_active` — idle
    /// times under the clamp and `last_active` after `now` included.
    #[test]
    fn score_floor_bounds_every_chunk_and_rises_with_last_active() {
        let llama = CostModel::new(ModelConfig::llama2_13b(), HardwareSpec::azure_nc_a100(1));
        let llama = RetentionValuePolicy::new(ProfiledCostTable::profile(&llama, 32, 16384));
        let policies: [Box<dyn EvictionPolicy>; 5] = [
            Box::new(retention()),
            Box::new(llama),
            Box::new(LruPolicy),
            Box::new(CachedAttentionPolicy),
            Box::new(TrailingEndPolicy),
        ];
        // Seconds before `now`; negative means after it.
        let ago = [
            -5.0, -1e-6, 0.0, 1e-9, 1e-4, 9.99e-4, 1e-3, 1.001e-3, 0.25, 1.0, 59.0, 3600.0,
        ];
        for p in &policies {
            for now in [0.0, 1e-3, 0.7, 100.0, 86_400.0] {
                let now = SimTime::from_secs(now);
                let mut times: Vec<SimTime> = ago
                    .iter()
                    .map(|&d| SimTime::from_secs((now.as_secs() - d).max(0.0)))
                    .collect();
                times.sort_by(SimTime::total_cmp);
                for pair in times.windows(2) {
                    let (a, b) = (p.score_floor(pair[0], now), p.score_floor(pair[1], now));
                    assert!(a <= b, "{}: floor falls from {a} to {b}", p.name());
                }
                for t in times {
                    let floor = p.score_floor(t, now);
                    for context_end in 0..=70_000 {
                        let score = p.score(&chunk(context_end), t, now);
                        assert!(
                            floor <= score,
                            "{}: floor {floor} above {score} at l = {context_end}",
                            p.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn policy_shapes() {
        assert_eq!(LruPolicy.granularity(), Granularity::Chunk);
        assert_eq!(LruPolicy.within_order(), WithinOrder::LeadingFirst);
        assert_eq!(
            CachedAttentionPolicy.granularity(),
            Granularity::Conversation
        );
        assert_eq!(TrailingEndPolicy.within_order(), WithinOrder::TrailingFirst);
    }
}
