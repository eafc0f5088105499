//! Engine configuration and the paper's five system presets.

use pensieve_model::SimDuration;

/// Which running request to suspend when decode growth outruns the GPU
/// cache (§4.3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuspendPolicy {
    /// Paper's choice: descending arrival time (newest first).
    NewestFirst,
    /// Oldest arrival first (finishes late work last).
    OldestFirst,
    /// The request holding the most KV slots (frees the most space).
    LargestContext,
}

/// Which eviction policy the tiered cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Pensieve's retention-value policy `V = Cost(l)/T` (§4.3.1).
    RetentionValue,
    /// Classic LRU at chunk granularity (Figure 14 baseline).
    Lru,
    /// CachedAttention-style whole-conversation LRU (ablation).
    WholeConversation,
    /// SGLang-style trailing-end LRU (ablation).
    TrailingEnd,
}

/// Complete behavioural configuration of a serving engine.
///
/// One engine implementation covers every system in the paper's
/// evaluation; the presets below flip the relevant switches.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Display name used in experiment output.
    pub name: String,
    /// Keep conversations' KV-tokens across requests (Pensieve) or free
    /// them at request completion (vLLM, TensorRT-LLM).
    pub stateful: bool,
    /// Enable the CPU cache tier. Ignored when `stateful` is false;
    /// `false` gives the "Pensieve (GPU cache)" variant.
    pub cpu_cache: bool,
    /// Mix prefill and generation requests in one kernel invocation
    /// (§4.4.1). When false, each iteration runs them as two separate
    /// invocations (Figure 13's "separate" variant and both baselines).
    pub unified_batching: bool,
    /// Eviction policy for the tiered cache.
    pub policy: PolicyKind,
    /// Compute-time multiplier modelling the runtime (1.0 = PyTorch-style
    /// eager execution; <1.0 = graph-compiled, e.g. TensorRT).
    pub compute_scale: f64,
    /// Fixed per-iteration scheduling/launch overhead.
    pub iteration_overhead: SimDuration,
    /// Maximum requests decoding concurrently.
    pub max_batch_requests: usize,
    /// Eviction chunk size in tokens (paper: 32; ablated in the benches).
    pub chunk_tokens: usize,
    /// Ahead-of-time swap watermark as a free-GPU fraction (paper: 0.25).
    pub swap_watermark: f64,
    /// GPU fraction reserved for running decodes (paper: 0.10).
    pub decode_reserve: f64,
    /// Length of a system prompt shared by *all* conversations whose KV
    /// state is designated reusable (paper §7 footnote 3). Zero disables
    /// sharing; stateless engines ignore it (they recompute it anyway).
    pub shared_prefix_tokens: usize,
    /// Reserve KV slots for the *maximum* decoding length at admission,
    /// as FasterTransformer/ORCA do (§2.2), instead of growing the
    /// allocation with each generated token (vLLM-style paging).
    pub reserve_max_decode: bool,
    /// Victim selection for mid-generation suspension (§4.3.5).
    pub suspend_policy: SuspendPolicy,
    /// Split prefills into chunks of at most this many query tokens per
    /// iteration (Sarathi-style chunked prefill, cited in §7), so long
    /// prompts do not stall running decodes for a whole iteration.
    /// `None` processes each prefill in one invocation (the paper's
    /// systems).
    pub chunked_prefill: Option<usize>,
    /// Capacity of the tier-2 simulated-NVMe cache in tokens. `0` (the
    /// default, and the paper's configuration) disables the tier; CPU
    /// eviction then drops chunks exactly as two-tier Pensieve does.
    /// Ignored when `stateful` or `cpu_cache` is false. See
    /// `docs/STORAGE.md`.
    pub ssd_capacity_tokens: usize,
    /// Capacity of the tier-3 simulated cold object store in tokens.
    /// `0` (the default) disables the tier. Ignored when `stateful` or
    /// `cpu_cache` is false.
    pub cold_capacity_tokens: usize,
}

impl EngineConfig {
    /// Full Pensieve: stateful, two-tier cache, unified batching,
    /// retention-value eviction (the paper's system).
    #[must_use]
    pub fn pensieve() -> Self {
        EngineConfig {
            name: "Pensieve".to_owned(),
            stateful: true,
            cpu_cache: true,
            unified_batching: true,
            policy: PolicyKind::RetentionValue,
            compute_scale: 1.0,
            iteration_overhead: SimDuration::from_micros(300.0),
            max_batch_requests: 256,
            chunk_tokens: 32,
            swap_watermark: 0.25,
            decode_reserve: 0.10,
            shared_prefix_tokens: 0,
            reserve_max_decode: false,
            suspend_policy: SuspendPolicy::NewestFirst,
            chunked_prefill: None,
            ssd_capacity_tokens: 0,
            cold_capacity_tokens: 0,
        }
    }

    /// Pensieve with the deep storage hierarchy enabled: evicted CPU
    /// chunks demote to a simulated NVMe tier and then to a simulated
    /// cold object store instead of being dropped, and session manifests
    /// persisted to the cold tier let restarted replicas rehydrate
    /// sessions instead of recomputing them (see `docs/STORAGE.md`).
    #[must_use]
    pub fn pensieve_deep_tiers(ssd_tokens: usize, cold_tokens: usize) -> Self {
        EngineConfig {
            name: "Pensieve (deep tiers)".to_owned(),
            ssd_capacity_tokens: ssd_tokens,
            cold_capacity_tokens: cold_tokens,
            ..Self::pensieve()
        }
    }

    /// Pensieve with Sarathi-style chunked prefill: long prompts are fed
    /// to the unified batch in `chunk`-token slices so that concurrent
    /// decodes keep their per-token latency.
    #[must_use]
    pub fn pensieve_chunked_prefill(chunk: usize) -> Self {
        EngineConfig {
            name: format!("Pensieve (chunked prefill {chunk})"),
            chunked_prefill: Some(chunk),
            ..Self::pensieve()
        }
    }

    /// Pensieve with the shared-system-prompt optimization: the first
    /// `tokens` of every conversation are served from a single, pinned,
    /// globally shared KV prefix (cached once instead of per
    /// conversation).
    #[must_use]
    pub fn pensieve_shared_prefix(tokens: usize) -> Self {
        EngineConfig {
            name: format!("Pensieve (shared prefix {tokens})"),
            shared_prefix_tokens: tokens,
            ..Self::pensieve()
        }
    }

    /// Pensieve (GPU cache): evicted tokens are dropped instead of being
    /// swapped to the CPU (§6.1's ablation variant).
    #[must_use]
    pub fn pensieve_gpu_cache() -> Self {
        EngineConfig {
            name: "Pensieve (GPU cache)".to_owned(),
            cpu_cache: false,
            ..Self::pensieve()
        }
    }

    /// Pensieve with separate prefill/generation scheduling (Figure 13).
    #[must_use]
    pub fn pensieve_non_unified() -> Self {
        EngineConfig {
            name: "Pensieve (separate phases)".to_owned(),
            unified_batching: false,
            ..Self::pensieve()
        }
    }

    /// Pensieve with classic LRU eviction (Figure 14).
    #[must_use]
    pub fn pensieve_lru() -> Self {
        EngineConfig {
            name: "Pensieve (LRU)".to_owned(),
            policy: PolicyKind::Lru,
            ..Self::pensieve()
        }
    }

    /// vLLM v0.2.0-style baseline: stateless, paged KV within a request's
    /// lifetime, separate prefill/decode batches, eager PyTorch runtime.
    #[must_use]
    pub fn vllm() -> Self {
        EngineConfig {
            name: "vLLM".to_owned(),
            stateful: false,
            cpu_cache: false,
            unified_batching: false,
            policy: PolicyKind::Lru,
            ..Self::pensieve()
        }
    }

    /// ORCA/FasterTransformer-style baseline (§2.2): stateless,
    /// iteration-level batching, but KV slots are reserved for the
    /// maximum decoding length up front — the pre-paging discipline whose
    /// memory waste motivated vLLM.
    #[must_use]
    pub fn orca() -> Self {
        EngineConfig {
            name: "ORCA-style (reserve max)".to_owned(),
            reserve_max_decode: true,
            ..Self::vllm()
        }
    }

    /// TensorRT-LLM-style baseline: stateless like vLLM, but the model is
    /// graph-compiled — fused operators run ~20 % faster and per-iteration
    /// overhead is lower (§6.2 explains TRT-LLM's edge over vLLM this
    /// way).
    #[must_use]
    pub fn tensorrt_llm() -> Self {
        EngineConfig {
            name: "TensorRT-LLM".to_owned(),
            compute_scale: 0.8,
            iteration_overhead: SimDuration::from_micros(120.0),
            ..Self::vllm()
        }
    }

    /// All four systems of Figures 10 and 11, in plot order.
    #[must_use]
    pub fn figure10_systems() -> Vec<EngineConfig> {
        vec![
            Self::pensieve(),
            Self::pensieve_gpu_cache(),
            Self::vllm(),
            Self::tensorrt_llm(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_where_it_matters() {
        let p = EngineConfig::pensieve();
        assert!(p.stateful && p.cpu_cache && p.unified_batching);
        assert_eq!(p.policy, PolicyKind::RetentionValue);

        let g = EngineConfig::pensieve_gpu_cache();
        assert!(g.stateful && !g.cpu_cache);

        let nu = EngineConfig::pensieve_non_unified();
        assert!(nu.stateful && !nu.unified_batching);

        let v = EngineConfig::vllm();
        assert!(!v.stateful && !v.unified_batching);
        assert_eq!(v.compute_scale, 1.0);

        let t = EngineConfig::tensorrt_llm();
        assert!(!t.stateful);
        assert!(t.compute_scale < v.compute_scale);
        assert!(t.iteration_overhead < v.iteration_overhead);

        assert_eq!(p.ssd_capacity_tokens, 0, "deep tiers off by default");
        let d = EngineConfig::pensieve_deep_tiers(4096, 65536);
        assert!(d.stateful && d.cpu_cache);
        assert_eq!(d.ssd_capacity_tokens, 4096);
        assert_eq!(d.cold_capacity_tokens, 65536);
    }

    #[test]
    fn figure10_lists_four_systems() {
        let sys = EngineConfig::figure10_systems();
        assert_eq!(sys.len(), 4);
        let names: Vec<&str> = sys.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"Pensieve") && names.contains(&"vLLM"));
    }
}
