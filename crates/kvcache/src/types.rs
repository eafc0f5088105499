//! Core identifiers and configuration for the tiered cache.

use pensieve_model::{CostModel, ModelConfig};

use crate::manifest::fnv1a;

/// Identifier of a conversation whose context the cache tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

/// Content-addressed identifier of a shared KV chunk.
///
/// The id is an FNV-1a hash chained over the chunk's *prefix* id and its
/// token ids, so two chunks collide only when both their content and
/// their entire preceding context match — exactly the condition under
/// which their KV values are interchangeable (same tokens attended
/// against the same prefix). Conversations that share a tool preamble,
/// RAG document, or forked history therefore derive identical chains and
/// share one physical copy per chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkId(pub u64);

impl ChunkId {
    /// Sentinel for "no shared identity": a conversation-private chunk.
    /// Manifests persist it for chunks that were never content-addressed.
    pub const NONE: ChunkId = ChunkId(0);

    /// Root of every derivation chain — the FNV-1a offset basis, i.e. the
    /// hash of the empty prefix.
    pub const ROOT: ChunkId = ChunkId(0xcbf2_9ce4_8422_2325);

    /// Derives the id of the chunk holding `tokens`, attended against the
    /// context identified by `parent` (use [`ChunkId::ROOT`] at position
    /// zero). FNV-1a over the parent id's little-endian bytes followed by
    /// each token id's little-endian bytes.
    #[must_use]
    pub fn derive(parent: ChunkId, tokens: &[u32]) -> ChunkId {
        let words = std::iter::once(parent.0).chain(tokens.iter().map(|&t| u64::from(t)));
        ChunkId(fnv1a(words.flat_map(u64::to_le_bytes)))
    }

    /// Derives an id from arbitrary `u64` words instead of token ids —
    /// for synthetic chains that have no real tokens behind them.
    #[must_use]
    pub fn derive_words(parent: ChunkId, words: &[u64]) -> ChunkId {
        let words = std::iter::once(parent.0).chain(words.iter().copied());
        ChunkId(fnv1a(words.flat_map(u64::to_le_bytes)))
    }
}

/// Where a chunk's KV-tokens currently live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Resident in GPU memory only.
    Gpu,
    /// Copied to CPU ahead of time; the GPU copy still exists but its slots
    /// are reclaimable (lazy reclamation, §4.3.2). Counts toward *both*
    /// tiers' usage until the GPU copy is reclaimed or revalidated.
    GpuCopied,
    /// Resident in CPU memory only; must be swapped in before use.
    Cpu,
    /// Demoted to the simulated NVMe SSD (tier 2); must be read back
    /// through the CPU on its way to the GPU.
    Ssd,
    /// Demoted to the cold NFS/object store (tier 3) — the slowest,
    /// largest and only restart-durable tier.
    Cold,
    /// Dropped entirely; must be recomputed from raw tokens.
    Dropped,
}

/// State of one chunk of a conversation's context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkState {
    /// Current tier.
    pub tier: Tier,
    /// Number of tokens in the chunk (the trailing chunk may be partial).
    pub tokens: usize,
    /// Context length at the chunk's end: the `l` of `Cost(l)`.
    pub context_end: usize,
}

/// Capacity and policy parameters of the tiered cache.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Tokens per eviction chunk (paper: 32).
    pub chunk_tokens: usize,
    /// GPU KV capacity in tokens.
    pub gpu_capacity_tokens: usize,
    /// CPU cache capacity in tokens.
    pub cpu_capacity_tokens: usize,
    /// SSD (tier-2) capacity in tokens; `0` disables the tier and CPU
    /// evictions drop chunks, as in the two-tier paper configuration.
    pub ssd_capacity_tokens: usize,
    /// Cold-store (tier-3) capacity in tokens; `0` disables the tier.
    pub cold_capacity_tokens: usize,
    /// Start ahead-of-time swap-out when free GPU fraction drops below
    /// this (paper: 0.25).
    pub swap_watermark: f64,
    /// Fraction of GPU slots reserved for running decodes; new requests are
    /// not admitted below this free fraction (paper: 0.10).
    pub decode_reserve: f64,
}

impl CacheConfig {
    /// Derives capacities from a model + hardware pair: the 40 GB GPU KV
    /// budget and the host cache size divided by the model's per-token KV
    /// footprint.
    ///
    /// # Panics
    ///
    /// Panics if the model stores zero-sized KV tokens.
    #[must_use]
    pub fn from_model(cfg: &ModelConfig, cost: &CostModel) -> Self {
        let hw = cost.hardware();
        let per_token = cfg.kv_bytes_per_token();
        assert!(per_token > 0);
        CacheConfig {
            chunk_tokens: 32,
            gpu_capacity_tokens: hw.total_gpu_kv_budget() / per_token,
            cpu_capacity_tokens: hw.total_cpu_cache_bytes() / per_token,
            ssd_capacity_tokens: 0,
            cold_capacity_tokens: 0,
            swap_watermark: 0.25,
            decode_reserve: 0.10,
        }
    }

    /// A small configuration for unit tests: capacities given directly.
    #[must_use]
    pub fn for_test(chunk_tokens: usize, gpu: usize, cpu: usize) -> Self {
        CacheConfig {
            chunk_tokens,
            gpu_capacity_tokens: gpu,
            cpu_capacity_tokens: cpu,
            ssd_capacity_tokens: 0,
            cold_capacity_tokens: 0,
            swap_watermark: 0.25,
            decode_reserve: 0.10,
        }
    }

    /// Enables the deep tiers: SSD (tier 2) and cold store (tier 3)
    /// capacities in tokens. `0` leaves the corresponding tier off.
    #[must_use]
    pub fn with_deep_tiers(mut self, ssd: usize, cold: usize) -> Self {
        self.ssd_capacity_tokens = ssd;
        self.cold_capacity_tokens = cold;
        self
    }

    /// GPU token threshold below which ahead-of-time swap-out starts.
    #[must_use]
    pub fn swap_trigger_tokens(&self) -> usize {
        (self.gpu_capacity_tokens as f64 * self.swap_watermark) as usize
    }

    /// GPU tokens that must stay free for running decodes.
    #[must_use]
    pub fn decode_reserve_tokens(&self) -> usize {
        (self.gpu_capacity_tokens as f64 * self.decode_reserve) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pensieve_model::HardwareSpec;

    #[test]
    fn capacities_follow_kv_footprint() {
        let cfg = ModelConfig::opt_13b();
        let cost = CostModel::new(cfg.clone(), HardwareSpec::azure_nc_a100(1));
        let cache = CacheConfig::from_model(&cfg, &cost);
        // 40 GiB / 0.78125 MiB = 52,428 tokens..
        assert_eq!(cache.gpu_capacity_tokens, 52_428);
        // GQA model stores 4x more tokens in the same budget.
        let llama = ModelConfig::llama2_13b();
        let cost_l = CostModel::new(llama.clone(), HardwareSpec::azure_nc_a100(1));
        let cache_l = CacheConfig::from_model(&llama, &cost_l);
        let ratio = cache_l.gpu_capacity_tokens as f64 / cache.gpu_capacity_tokens as f64;
        assert!((ratio - 4.0).abs() < 1e-3, "ratio {ratio}");
        assert!(cache.cpu_capacity_tokens > cache.gpu_capacity_tokens);
    }

    #[test]
    fn chunk_ids_are_prefix_sensitive() {
        let a = ChunkId::derive(ChunkId::ROOT, &[1, 2, 3]);
        let b = ChunkId::derive(ChunkId::ROOT, &[1, 2, 3]);
        assert_eq!(a, b, "same content + prefix must collide");
        let c = ChunkId::derive(ChunkId::ROOT, &[1, 2, 4]);
        assert_ne!(a, c, "different content must not collide");
        let d = ChunkId::derive(a, &[1, 2, 3]);
        assert_ne!(
            a, d,
            "same content under a different prefix must not collide"
        );
        assert_ne!(a, ChunkId::NONE);
        assert_ne!(
            ChunkId::derive_words(ChunkId::ROOT, &[7, 0, 32]),
            ChunkId::derive_words(ChunkId::ROOT, &[7, 1, 32]),
        );
    }

    #[test]
    fn watermark_and_reserve_thresholds() {
        let c = CacheConfig::for_test(32, 1000, 4000);
        assert_eq!(c.swap_trigger_tokens(), 250);
        assert_eq!(c.decode_reserve_tokens(), 100);
    }
}
