//! Roofline execution-cost model for transformer inference.
//!
//! The simulator needs `duration_of(batch)` for arbitrary mixed
//! prefill/decode batches. We model each transformer layer as two parts,
//! mirroring the decomposition the paper uses for its eviction-cost
//! estimate (§4.3.1):
//!
//! * **Non-attention** work (QKV/output projections, MLP, norms): FLOPs are
//!   linear in the number of batch tokens; memory traffic is dominated by
//!   reading the layer weights once per invocation plus streaming
//!   activations. This term is *weight-bound* for small batches — which is
//!   exactly why batching helps decoding.
//! * **Attention** work per request: `4 * s * l * hidden` FLOPs for a query
//!   chunk of `s` tokens attending to a context of `l` KV-tokens, and
//!   `l * 2 * kv_hidden * dtype` bytes of KV-cache traffic. This term grows
//!   linearly in `l` (paper Figure 4) and is KV-bandwidth-bound during
//!   generation.
//!
//! Each term is costed as `max(flops / effective_flops, bytes /
//! effective_bandwidth)` (the roofline), and a fixed per-layer kernel
//! overhead is added per invocation. Tensor parallelism divides FLOPs and
//! bytes across GPUs and adds two all-reduces per layer on the activations.

use serde::{Deserialize, Serialize};

use crate::config::{ModelConfig, ModelFamily};
use crate::hardware::HardwareSpec;
use crate::time::SimDuration;

/// Shape of one request's contribution to a batch step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeqShape {
    /// Number of new (query) tokens processed this step: the prompt length
    /// for a prefill step, 1 for a generation step.
    pub query_len: usize,
    /// Total context length the query attends to, *including* the query
    /// tokens themselves (they are appended to the KV cache first).
    pub context_len: usize,
}

impl SeqShape {
    /// A generation (decode) step over an existing context of `context_len`
    /// tokens, including the newly appended one.
    #[must_use]
    pub fn decode(context_len: usize) -> Self {
        SeqShape {
            query_len: 1,
            context_len,
        }
    }

    /// A prefill step of `query_len` prompt tokens on top of
    /// `prior_context` already-cached tokens.
    #[must_use]
    pub fn prefill(query_len: usize, prior_context: usize) -> Self {
        SeqShape {
            query_len,
            context_len: prior_context + query_len,
        }
    }
}

/// The token-level shape of one batched model invocation.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchShape {
    /// Per-request shapes; order does not affect cost.
    pub seqs: Vec<SeqShape>,
}

impl BatchShape {
    /// Creates a batch from per-request shapes.
    #[must_use]
    pub fn new(seqs: Vec<SeqShape>) -> Self {
        BatchShape { seqs }
    }

    /// Total number of query tokens across the batch.
    #[must_use]
    pub fn total_query_tokens(&self) -> usize {
        self.seqs.iter().map(|s| s.query_len).sum()
    }

    /// True if no request contributes any token.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total_query_tokens() == 0
    }
}

/// Roofline cost model for one model on one hardware configuration.
///
/// # Examples
///
/// ```
/// use pensieve_model::{BatchShape, CostModel, HardwareSpec, ModelConfig, SeqShape};
///
/// let cost = CostModel::new(ModelConfig::opt_13b(), HardwareSpec::azure_nc_a100(1));
/// let prefill = |prompt, cached| {
///     cost.batch_step_time(&BatchShape::new(vec![SeqShape::prefill(prompt, cached)]))
/// };
/// // Reusing a 4000-token cached history beats re-prefilling it.
/// assert!(prefill(50, 4000) < prefill(4050, 0));
/// ```
#[derive(Debug, Clone)]
pub struct CostModel {
    cfg: ModelConfig,
    hw: HardwareSpec,
    /// How many times each activation byte crosses HBM per layer
    /// (reads + writes across the ~10 elementwise/GEMM kernels).
    act_io_factor: f64,
}

impl CostModel {
    /// Builds a cost model.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`ModelConfig::validate`] — constructing a cost
    /// model from an inconsistent architecture is a programmer error.
    #[must_use]
    pub fn new(cfg: ModelConfig, hw: HardwareSpec) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid model config: {e}");
        }
        CostModel {
            cfg,
            hw,
            act_io_factor: 8.0,
        }
    }

    /// The model configuration this cost model was built for.
    #[must_use]
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// The hardware specification this cost model was built for.
    #[must_use]
    pub fn hardware(&self) -> &HardwareSpec {
        &self.hw
    }

    /// Non-attention FLOPs per token per layer (projections + MLP).
    #[must_use]
    pub fn non_attention_flops_per_token_layer(&self) -> f64 {
        let h = self.cfg.hidden_size as f64;
        let kvh = self.cfg.kv_hidden() as f64;
        let ffn = self.cfg.ffn_hidden as f64;
        let qkv = 2.0 * h * (h + 2.0 * kvh);
        let out = 2.0 * h * h;
        let mlp = match self.cfg.family {
            ModelFamily::Opt => 2.0 * 2.0 * h * ffn,
            ModelFamily::Llama2 => 2.0 * 3.0 * h * ffn,
        };
        qkv + out + mlp
    }

    /// Bytes of weights read by one layer invocation (per GPU shard).
    #[must_use]
    fn layer_weight_bytes_per_gpu(&self) -> f64 {
        let h = self.cfg.hidden_size as f64;
        let kvh = self.cfg.kv_hidden() as f64;
        let ffn = self.cfg.ffn_hidden as f64;
        let mlp_mats = match self.cfg.family {
            ModelFamily::Opt => 2.0,
            ModelFamily::Llama2 => 3.0,
        };
        let params = h * h + 2.0 * h * kvh + h * h + mlp_mats * h * ffn;
        params * self.cfg.dtype_bytes as f64 / self.hw.num_gpus as f64
    }

    /// Time for the non-attention part of one layer on `tokens` batch
    /// tokens, excluding the fixed per-layer overhead.
    #[must_use]
    pub fn non_attention_layer_time(&self, tokens: usize) -> SimDuration {
        if tokens == 0 {
            return SimDuration::ZERO;
        }
        let n = self.hw.num_gpus as f64;
        let flops = self.non_attention_flops_per_token_layer() * tokens as f64 / n;
        let act_bytes = tokens as f64
            * self.cfg.hidden_size as f64
            * self.cfg.dtype_bytes as f64
            * self.act_io_factor
            / n;
        let bytes = self.layer_weight_bytes_per_gpu() + act_bytes;
        let compute = flops / self.hw.gpu.effective_flops();
        let memory = bytes / self.hw.gpu.effective_bandwidth();
        let roofline = SimDuration::from_secs(compute.max(memory));
        roofline + self.tp_allreduce_per_layer(tokens)
    }

    /// Time for the two tensor-parallel all-reduces per layer.
    #[must_use]
    fn tp_allreduce_per_layer(&self, tokens: usize) -> SimDuration {
        if self.hw.num_gpus <= 1 {
            return SimDuration::ZERO;
        }
        let bytes = tokens * self.cfg.hidden_size * self.cfg.dtype_bytes;
        self.hw.interconnect.allreduce_time(bytes, self.hw.num_gpus) * 2.0
    }

    /// Time for the attention operator of one layer for one request shape.
    ///
    /// This is the quantity the paper's Figure 4 plots (before
    /// normalization): it grows linearly in `context_len`.
    #[must_use]
    pub fn attention_layer_time(&self, shape: SeqShape) -> SimDuration {
        if shape.query_len == 0 {
            return SimDuration::ZERO;
        }
        debug_assert!(shape.context_len >= shape.query_len);
        let n = self.hw.num_gpus as f64;
        let h = self.cfg.hidden_size as f64;
        let s = shape.query_len as f64;
        let l = shape.context_len as f64;
        // Causal attention: query token i attends to (l - s + i + 1) keys;
        // summing over the chunk gives s*l - s(s-1)/2 scored pairs.
        let pairs = s * l - s * (s - 1.0) / 2.0;
        let flops = 4.0 * pairs * h / n;
        let kv_bytes = l * 2.0 * self.cfg.kv_hidden() as f64 * self.cfg.dtype_bytes as f64 / n;
        let qo_bytes = s * 2.0 * h * self.cfg.dtype_bytes as f64 / n;
        let compute = flops / self.hw.gpu.effective_flops();
        let memory = (kv_bytes + qo_bytes) / self.hw.gpu.effective_bandwidth();
        SimDuration::from_secs(compute.max(memory))
    }

    /// Attention time for one shape across all layers.
    #[must_use]
    pub fn attention_time(&self, shape: SeqShape) -> SimDuration {
        self.attention_layer_time(shape) * self.cfg.num_layers as f64
    }

    /// Time to compute output logits for `sampled` tokens.
    #[must_use]
    pub fn lm_head_time(&self, sampled: usize) -> SimDuration {
        if sampled == 0 {
            return SimDuration::ZERO;
        }
        let n = self.hw.num_gpus as f64;
        let flops =
            2.0 * sampled as f64 * self.cfg.hidden_size as f64 * self.cfg.vocab_size as f64 / n;
        let weight_bytes =
            self.cfg.hidden_size as f64 * self.cfg.vocab_size as f64 * self.cfg.dtype_bytes as f64
                / n;
        let compute = flops / self.hw.gpu.effective_flops();
        let memory = weight_bytes / self.hw.gpu.effective_bandwidth();
        SimDuration::from_secs(compute.max(memory))
    }

    /// Execution time of one batched model invocation.
    ///
    /// `sampled` is the number of tokens whose logits are computed: one per
    /// request in the batch (the last prompt token for prefills, the single
    /// new token for decodes).
    #[must_use]
    pub fn batch_step_time(&self, batch: &BatchShape) -> SimDuration {
        if batch.is_empty() {
            return SimDuration::ZERO;
        }
        let tokens = batch.total_query_tokens();
        let attn_per_layer: SimDuration = batch
            .seqs
            .iter()
            .filter(|s| s.query_len > 0)
            .map(|&s| self.attention_layer_time(s))
            .sum();
        self.step_time(
            self.non_attention_layer_time(tokens),
            attn_per_layer,
            self.lm_head_time(batch.seqs.len()),
        )
    }

    /// [`CostModel::batch_step_time`] from its parts: one layer's
    /// non-attention time, the sum of one layer's per-row attention times
    /// (in row order), and the LM head's time. A caller that re-costs a
    /// batch whose token and row counts do not change computes the first
    /// and last once and folds only the attention rows per step.
    #[must_use]
    pub fn step_time(
        &self,
        non_attention: SimDuration,
        attention: SimDuration,
        lm_head: SimDuration,
    ) -> SimDuration {
        let per_layer = non_attention + attention + self.hw.gpu.layer_overhead;
        per_layer * self.cfg.num_layers as f64 + lm_head
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::hardware::HardwareSpec;

    fn opt13b() -> CostModel {
        CostModel::new(ModelConfig::opt_13b(), HardwareSpec::azure_nc_a100(1))
    }

    /// One model invocation over `seqs`.
    fn step(m: &CostModel, seqs: Vec<SeqShape>) -> SimDuration {
        m.batch_step_time(&BatchShape::new(seqs))
    }

    #[test]
    fn decode_step_is_weight_bound_for_small_batch() {
        let m = opt13b();
        let t1 = step(&m, vec![SeqShape::decode(128)]);
        let t8 = step(&m, vec![SeqShape::decode(128); 8]);
        // Batching 8 decodes costs far less than 8x a single decode.
        assert!(t8.as_secs() < 2.0 * t1.as_secs(), "t1={t1} t8={t8}");
        // A single decode step of a 13B model on A100 is O(10ms).
        assert!(t1.as_millis() > 5.0 && t1.as_millis() < 50.0, "t1={t1}");
    }

    #[test]
    fn prefill_time_grows_with_prompt() {
        let m = opt13b();
        let t256 = step(&m, vec![SeqShape::prefill(256, 0)]);
        let t1024 = step(&m, vec![SeqShape::prefill(1024, 0)]);
        assert!(t1024.as_secs() > 2.0 * t256.as_secs());
        // 1K-token prefill of a 13B model is O(100ms).
        assert!(t1024.as_millis() > 30.0 && t1024.as_millis() < 500.0);
    }

    /// Figure 4: attention cost grows linearly with context size.
    #[test]
    fn attention_cost_linear_in_context() {
        let m = opt13b();
        let base = m.attention_layer_time(SeqShape {
            query_len: 32,
            context_len: 2048,
        });
        let doubled = m.attention_layer_time(SeqShape {
            query_len: 32,
            context_len: 4096,
        });
        let ratio = doubled / base;
        assert!((ratio - 2.0).abs() < 0.25, "ratio {ratio}");
    }

    /// §4.3.1: leading chunks are cheaper to recompute than trailing
    /// ones — `Cost(s, l)`'s attention term grows with the chunk's
    /// context position `l`; its other term depends on `s` alone.
    #[test]
    fn leading_chunks_cheaper_to_recompute() {
        let m = opt13b();
        let chunk_at = |context_len| {
            m.attention_time(SeqShape {
                query_len: 32,
                context_len,
            })
        };
        assert!(chunk_at(8192) > chunk_at(64));
    }

    #[test]
    fn reusing_cache_beats_recompute() {
        let m = opt13b();
        // New 50-token prompt with 4000 tokens of history: stateless systems
        // prefill 4050 tokens, Pensieve prefills 50 on top of cache.
        let stateless = step(&m, vec![SeqShape::prefill(4050, 0)]);
        let stateful = step(&m, vec![SeqShape::prefill(50, 4000)]);
        assert!(stateless.as_secs() > 5.0 * stateful.as_secs());
    }

    #[test]
    fn unified_batch_cheaper_than_separate_invocations() {
        let m = opt13b();
        let prefill = SeqShape::prefill(200, 0);
        let decodes: Vec<SeqShape> = (0..16).map(|_| SeqShape::decode(512)).collect();
        let mut all = decodes.clone();
        all.push(prefill);
        let unified = m.batch_step_time(&BatchShape::new(all));
        let separate = m.batch_step_time(&BatchShape::new(vec![prefill]))
            + m.batch_step_time(&BatchShape::new(decodes));
        assert!(unified.as_secs() < separate.as_secs());
    }

    #[test]
    fn tensor_parallelism_speeds_up_but_sublinearly() {
        let cfg = ModelConfig::opt_66b();
        let m1 = CostModel::new(cfg.clone(), HardwareSpec::azure_nc_a100(1));
        let m4 = CostModel::new(cfg, HardwareSpec::azure_nc_a100(4));
        let t1 = step(&m1, vec![SeqShape::prefill(1024, 0)]);
        let t4 = step(&m4, vec![SeqShape::prefill(1024, 0)]);
        let speedup = t1 / t4;
        assert!(speedup > 2.0 && speedup < 4.0, "speedup {speedup}");
    }

    #[test]
    fn empty_batch_costs_nothing() {
        let m = opt13b();
        assert_eq!(m.batch_step_time(&BatchShape::default()), SimDuration::ZERO);
        assert_eq!(m.lm_head_time(0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "invalid model config")]
    fn rejects_invalid_config() {
        let mut cfg = ModelConfig::opt_13b();
        cfg.head_dim = 7;
        let _ = CostModel::new(cfg, HardwareSpec::azure_nc_a100(1));
    }

    /// GQA reduces attention KV traffic: Llama 2-13B decode attention is
    /// cheaper than OPT-13B at the same context length.
    #[test]
    fn gqa_reduces_decode_attention_cost() {
        let opt = opt13b();
        let llama = CostModel::new(ModelConfig::llama2_13b(), HardwareSpec::azure_nc_a100(1));
        let shape = SeqShape::decode(8192);
        assert!(
            llama.attention_layer_time(shape).as_secs() < opt.attention_layer_time(shape).as_secs()
        );
    }
}
