//! Cache effectiveness counters — the data behind the paper's Figure-14
//! cache-hit analysis.
//!
//! Reproduced by `cargo run --release -p pensieve-bench -- fig14`
//! (measured numbers in `EXPERIMENTS.md`). For a finer-grained,
//! per-turn view of the same split, record a trace with
//! `serve_sim --trace-out` and post-process it with the `trace_report`
//! subcommand — `docs/OBSERVABILITY.md` documents the event stream these
//! counters aggregate.

/// Running counters of cache behaviour, all in tokens unless noted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Tokens served straight from the GPU tier (including revalidated
    /// lazy copies).
    pub gpu_hit_tokens: u64,
    /// Tokens served by swapping in from the CPU tier.
    pub cpu_hit_tokens: u64,
    /// Previously-cached tokens that had been dropped and were recomputed.
    pub recomputed_tokens: u64,
    /// Tokens copied GPU -> CPU (ahead-of-time swap-out).
    pub swapped_out_tokens: u64,
    /// Tokens copied CPU -> GPU (swap-in).
    pub swapped_in_tokens: u64,
    /// Tokens dropped from the CPU tier under memory pressure.
    pub dropped_tokens: u64,
    /// Lazily-copied tokens whose GPU slots were reused by the same
    /// conversation before reclamation (free swap-in).
    pub revalidated_tokens: u64,
    /// Requests whose entire history was still GPU-resident.
    pub full_gpu_hits: u64,
    /// Requests that needed at least one swap-in or recomputation.
    pub partial_hits: u64,
    /// CPU-tier tokens lost to injected host-memory faults (recomputed
    /// later from raw tokens).
    pub lost_chunk_tokens: u64,
    /// CPU-tier tokens invalidated after checksum-detected corruption.
    pub corrupted_chunk_tokens: u64,
    /// CPU-tier tokens force-dropped because their swap-in transfers kept
    /// failing and the engine fell back to recomputation.
    pub swap_in_fault_tokens: u64,
    /// Tokens served by reading back from the SSD (tier-2) cache.
    pub ssd_hit_tokens: u64,
    /// Tokens served by reading back from the cold store (tier 3).
    pub cold_hit_tokens: u64,
    /// Tokens demoted one tier down (CPU→SSD or SSD→cold) instead of
    /// being dropped under memory pressure.
    pub demoted_tokens: u64,
    /// Tokens rehydrated into the cache from a cold-tier session manifest
    /// after a restart or failover.
    pub rehydrated_tokens: u64,
    /// Deep-tier tokens force-dropped because their cold reads failed and
    /// the engine fell back to recomputation.
    pub cold_read_fault_tokens: u64,
    /// Tokens served from content-addressed shared chunks (any tier)
    /// instead of a conversation's private chunks.
    pub shared_hit_tokens: u64,
}

impl CacheStats {
    /// Field-wise accumulation of `other` into `self` — how a composite
    /// backend (e.g. a multi-replica router) reports cluster-wide totals.
    pub fn merge(&mut self, other: &CacheStats) {
        self.gpu_hit_tokens += other.gpu_hit_tokens;
        self.cpu_hit_tokens += other.cpu_hit_tokens;
        self.recomputed_tokens += other.recomputed_tokens;
        self.swapped_out_tokens += other.swapped_out_tokens;
        self.swapped_in_tokens += other.swapped_in_tokens;
        self.dropped_tokens += other.dropped_tokens;
        self.revalidated_tokens += other.revalidated_tokens;
        self.full_gpu_hits += other.full_gpu_hits;
        self.partial_hits += other.partial_hits;
        self.lost_chunk_tokens += other.lost_chunk_tokens;
        self.corrupted_chunk_tokens += other.corrupted_chunk_tokens;
        self.swap_in_fault_tokens += other.swap_in_fault_tokens;
        self.ssd_hit_tokens += other.ssd_hit_tokens;
        self.cold_hit_tokens += other.cold_hit_tokens;
        self.demoted_tokens += other.demoted_tokens;
        self.rehydrated_tokens += other.rehydrated_tokens;
        self.cold_read_fault_tokens += other.cold_read_fault_tokens;
        self.shared_hit_tokens += other.shared_hit_tokens;
    }

    /// Fraction of reusable history tokens found in *any* cache tier
    /// (GPU, CPU, SSD or cold store).
    ///
    /// Returns 1.0 when no history has been requested yet.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let hits =
            self.gpu_hit_tokens + self.cpu_hit_tokens + self.ssd_hit_tokens + self.cold_hit_tokens;
        let total = hits + self.recomputed_tokens;
        if total == 0 {
            1.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Fraction of non-GPU-resident history tokens found in the CPU tier
    /// (vs dropped): the "CPU cache hit rate" of §6.6.
    ///
    /// Returns 1.0 when the GPU tier absorbed everything.
    #[must_use]
    pub fn cpu_hit_rate(&self) -> f64 {
        let total = self.cpu_hit_tokens + self.recomputed_tokens;
        if total == 0 {
            1.0
        } else {
            self.cpu_hit_tokens as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_degenerate_to_one_when_empty() {
        let s = CacheStats::default();
        assert_eq!(s.hit_rate(), 1.0);
        assert_eq!(s.cpu_hit_rate(), 1.0);
    }

    #[test]
    fn merge_sums_every_field() {
        let a = CacheStats {
            gpu_hit_tokens: 1,
            cpu_hit_tokens: 2,
            recomputed_tokens: 3,
            swapped_out_tokens: 4,
            swapped_in_tokens: 5,
            dropped_tokens: 6,
            revalidated_tokens: 7,
            full_gpu_hits: 8,
            partial_hits: 9,
            lost_chunk_tokens: 10,
            corrupted_chunk_tokens: 11,
            swap_in_fault_tokens: 12,
            ssd_hit_tokens: 13,
            cold_hit_tokens: 14,
            demoted_tokens: 15,
            rehydrated_tokens: 16,
            cold_read_fault_tokens: 17,
            shared_hit_tokens: 18,
        };
        let mut sum = a.clone();
        sum.merge(&a);
        assert_eq!(sum.gpu_hit_tokens, 2);
        assert_eq!(sum.swap_in_fault_tokens, 24);
        assert_eq!(sum.partial_hits, 18);
        assert_eq!(sum.ssd_hit_tokens, 26);
        assert_eq!(sum.cold_read_fault_tokens, 34);
        assert_eq!(sum.shared_hit_tokens, 36);
    }

    #[test]
    fn rates_reflect_counters() {
        let s = CacheStats {
            gpu_hit_tokens: 60,
            cpu_hit_tokens: 20,
            recomputed_tokens: 20,
            ..CacheStats::default()
        };
        assert!((s.hit_rate() - 0.8).abs() < 1e-12);
        assert!((s.cpu_hit_rate() - 0.5).abs() < 1e-12);
    }
}
