//! Transformer architecture configurations (paper Table 1).
//!
//! A [`ModelConfig`] captures everything the cost model and the functional
//! kernels need to know about a model: layer counts, hidden sizes, the
//! query/KV head split (Grouped-Query Attention), the feed-forward shape,
//! and the numeric precision. Constructors are provided for the four
//! configurations evaluated in the paper plus tiny configurations used by
//! the functional (real-math) tests.

use serde::{Deserialize, Serialize};

/// Model family; determines feed-forward shape and positional scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelFamily {
    /// OPT: GPT-3-like. Learned position embeddings, LayerNorm, ReLU,
    /// 2-matmul MLP with `ffn = 4 * hidden`.
    Opt,
    /// Llama 2: rotary embeddings, RMSNorm, SiLU, gated 3-matmul MLP.
    Llama2,
}

/// Position-embedding scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PositionEmbedding {
    /// Learned absolute position embeddings (OPT / GPT-3).
    Learned,
    /// Rotary position embeddings applied to Q and K (Llama 2).
    Rotary,
}

/// Normalization layer kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Norm {
    /// Standard LayerNorm with mean subtraction and bias.
    LayerNorm,
    /// Root-mean-square LayerNorm (no mean subtraction, no bias).
    RmsNorm,
}

/// Feed-forward activation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Activation {
    /// Rectified linear unit (OPT).
    Relu,
    /// Sigmoid-weighted linear unit, used in Llama 2's gated MLP.
    Silu,
}

/// Complete architecture description of a served model.
///
/// # Examples
///
/// ```
/// let cfg = pensieve_model::ModelConfig::opt_13b();
/// assert_eq!(cfg.num_layers, 40);
/// // One KV-token (K + V across all layers) of OPT-13B is 0.78 MiB in fp16.
/// assert_eq!(cfg.kv_bytes_per_token(), 2 * 40 * 5120 * 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Human-readable model name, e.g. `"OPT-13B"`.
    pub name: String,
    /// Model family (OPT or Llama 2).
    pub family: ModelFamily,
    /// Number of transformer layers.
    pub num_layers: usize,
    /// Model (embedding) dimension.
    pub hidden_size: usize,
    /// Number of query attention heads.
    pub num_heads: usize,
    /// Number of key/value heads (`< num_heads` under GQA).
    pub num_kv_heads: usize,
    /// Per-head dimension; `num_heads * head_dim == hidden_size`.
    pub head_dim: usize,
    /// Feed-forward inner dimension.
    pub ffn_hidden: usize,
    /// Vocabulary size (used for the LM head cost and raw-token storage).
    pub vocab_size: usize,
    /// Bytes per scalar for weights and KV cache (2 = fp16).
    pub dtype_bytes: usize,
    /// Positional scheme.
    pub position_embedding: PositionEmbedding,
    /// Normalization kind.
    pub norm: Norm,
    /// Activation function.
    pub activation: Activation,
    /// Number of GPUs the paper serves this model on (tensor parallelism).
    pub default_num_gpus: usize,
}

impl ModelConfig {
    /// OPT-13B (Table 1, column 1): 40 layers, hidden 5120, 40 heads, 1 GPU.
    #[must_use]
    pub fn opt_13b() -> Self {
        ModelConfig {
            name: "OPT-13B".to_owned(),
            family: ModelFamily::Opt,
            num_layers: 40,
            hidden_size: 5120,
            num_heads: 40,
            num_kv_heads: 40,
            head_dim: 128,
            ffn_hidden: 4 * 5120,
            vocab_size: 50272,
            dtype_bytes: 2,
            position_embedding: PositionEmbedding::Learned,
            norm: Norm::LayerNorm,
            activation: Activation::Relu,
            default_num_gpus: 1,
        }
    }

    /// OPT-66B (Table 1, column 2): 64 layers, hidden 9216, 72 heads, 4 GPUs.
    #[must_use]
    pub fn opt_66b() -> Self {
        ModelConfig {
            name: "OPT-66B".to_owned(),
            family: ModelFamily::Opt,
            num_layers: 64,
            hidden_size: 9216,
            num_heads: 72,
            num_kv_heads: 72,
            head_dim: 128,
            ffn_hidden: 4 * 9216,
            vocab_size: 50272,
            dtype_bytes: 2,
            position_embedding: PositionEmbedding::Learned,
            norm: Norm::LayerNorm,
            activation: Activation::Relu,
            default_num_gpus: 4,
        }
    }

    /// Llama 2-13B as evaluated in the paper (Table 1, column 3).
    ///
    /// The stock model uses 40 KV heads; the authors changed it to 10 to
    /// demonstrate Pensieve under Grouped-Query Attention (group size 4),
    /// and we reproduce that modification.
    #[must_use]
    pub fn llama2_13b() -> Self {
        ModelConfig {
            name: "Llama 2-13B".to_owned(),
            family: ModelFamily::Llama2,
            num_layers: 40,
            hidden_size: 5120,
            num_heads: 40,
            num_kv_heads: 10,
            head_dim: 128,
            ffn_hidden: 13824,
            vocab_size: 32000,
            dtype_bytes: 2,
            position_embedding: PositionEmbedding::Rotary,
            norm: Norm::RmsNorm,
            activation: Activation::Silu,
            default_num_gpus: 1,
        }
    }

    /// Llama 2-70B (Table 1, column 4): 80 layers, hidden 8192, GQA group 8,
    /// 4 GPUs.
    #[must_use]
    pub fn llama2_70b() -> Self {
        ModelConfig {
            name: "Llama 2-70B".to_owned(),
            family: ModelFamily::Llama2,
            num_layers: 80,
            hidden_size: 8192,
            num_heads: 64,
            num_kv_heads: 8,
            head_dim: 128,
            ffn_hidden: 28672,
            vocab_size: 32000,
            dtype_bytes: 2,
            position_embedding: PositionEmbedding::Rotary,
            norm: Norm::RmsNorm,
            activation: Activation::Silu,
            default_num_gpus: 4,
        }
    }

    /// A tiny Llama-style configuration for functional (real-math) tests.
    ///
    /// Small enough that naive attention over a few hundred tokens runs in
    /// microseconds, yet exercising every architectural feature Pensieve's
    /// kernels must support, including GQA (4 query heads per KV head).
    #[must_use]
    pub fn tiny_llama() -> Self {
        ModelConfig {
            name: "Tiny-Llama".to_owned(),
            family: ModelFamily::Llama2,
            num_layers: 2,
            hidden_size: 64,
            num_heads: 8,
            num_kv_heads: 2,
            head_dim: 8,
            ffn_hidden: 172,
            vocab_size: 128,
            dtype_bytes: 4,
            position_embedding: PositionEmbedding::Rotary,
            norm: Norm::RmsNorm,
            activation: Activation::Silu,
            default_num_gpus: 1,
        }
    }

    /// A tiny OPT-style configuration (multi-head attention, LayerNorm).
    #[must_use]
    pub fn tiny_opt() -> Self {
        ModelConfig {
            name: "Tiny-OPT".to_owned(),
            family: ModelFamily::Opt,
            num_layers: 2,
            hidden_size: 32,
            num_heads: 4,
            num_kv_heads: 4,
            head_dim: 8,
            ffn_hidden: 128,
            vocab_size: 128,
            dtype_bytes: 4,
            position_embedding: PositionEmbedding::Learned,
            norm: Norm::LayerNorm,
            activation: Activation::Relu,
            default_num_gpus: 1,
        }
    }

    /// All four paper configurations in Table 1 order.
    #[must_use]
    pub fn paper_models() -> Vec<ModelConfig> {
        vec![
            Self::opt_13b(),
            Self::opt_66b(),
            Self::llama2_13b(),
            Self::llama2_70b(),
        ]
    }

    /// Hidden size of the K (or V) projection: `num_kv_heads * head_dim`.
    #[must_use]
    pub fn kv_hidden(&self) -> usize {
        self.num_kv_heads * self.head_dim
    }

    /// Bytes to store one KV-token (K and V, across all layers).
    ///
    /// For OPT-13B in fp16 this is the paper's 0.78 MiB figure
    /// (`2 * 40 * 5120 * 2` bytes, §3.2).
    #[must_use]
    pub fn kv_bytes_per_token(&self) -> usize {
        2 * self.num_layers * self.kv_hidden() * self.dtype_bytes
    }

    /// Bytes of KV cache for one token on a single tensor-parallel shard.
    ///
    /// Tensor parallelism splits KV heads across GPUs, so each shard stores
    /// `1/num_gpus` of every token.
    #[must_use]
    pub fn kv_bytes_per_token_per_gpu(&self, num_gpus: usize) -> usize {
        self.kv_bytes_per_token() / num_gpus
    }

    /// Approximate parameter count (embeddings + transformer layers).
    #[must_use]
    pub fn param_count(&self) -> usize {
        let h = self.hidden_size;
        let kvh = self.kv_hidden();
        let attn = h * h + 2 * h * kvh + h * h; // Q, K, V, O projections.
        let mlp = match self.family {
            ModelFamily::Opt => 2 * h * self.ffn_hidden,
            ModelFamily::Llama2 => 3 * h * self.ffn_hidden, // Gate, up, down.
        };
        let per_layer = attn + mlp;
        let embeddings = self.vocab_size * h * 2; // Input + LM head.
        self.num_layers * per_layer + embeddings
    }

    /// Validates internal consistency (head split, GQA divisibility).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_heads * self.head_dim != self.hidden_size {
            return Err(format!(
                "{}: num_heads * head_dim = {} != hidden_size {}",
                self.name,
                self.num_heads * self.head_dim,
                self.hidden_size
            ));
        }
        if self.num_kv_heads == 0 || !self.num_heads.is_multiple_of(self.num_kv_heads) {
            return Err(format!(
                "{}: num_kv_heads {} must evenly divide num_heads {}",
                self.name, self.num_kv_heads, self.num_heads
            ));
        }
        if self.num_layers == 0 || self.dtype_bytes == 0 {
            return Err(format!("{}: degenerate layer count or dtype", self.name));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts every cell of the paper's Table 1.
    #[test]
    fn table1_hyper_parameters() {
        let rows: [(ModelConfig, usize, usize, usize, usize, usize, usize); 4] = [
            (ModelConfig::opt_13b(), 40, 5120, 40, 40, 128, 1),
            (ModelConfig::opt_66b(), 64, 9216, 72, 72, 128, 4),
            (ModelConfig::llama2_13b(), 40, 5120, 40, 10, 128, 1),
            (ModelConfig::llama2_70b(), 80, 8192, 64, 8, 128, 4),
        ];
        for (cfg, layers, hidden, heads, kv_heads, head_dim, gpus) in rows {
            assert_eq!(cfg.num_layers, layers, "{} layers", cfg.name);
            assert_eq!(cfg.hidden_size, hidden, "{} hidden", cfg.name);
            assert_eq!(cfg.num_heads, heads, "{} heads", cfg.name);
            assert_eq!(cfg.num_kv_heads, kv_heads, "{} kv heads", cfg.name);
            assert_eq!(cfg.head_dim, head_dim, "{} head size", cfg.name);
            assert_eq!(cfg.default_num_gpus, gpus, "{} gpus", cfg.name);
        }
    }

    #[test]
    fn all_configs_validate() {
        for cfg in ModelConfig::paper_models() {
            cfg.validate().unwrap();
        }
        ModelConfig::tiny_llama().validate().unwrap();
        ModelConfig::tiny_opt().validate().unwrap();
    }

    /// §3.2: a 13B GPT-3-style model stores 0.78 MB per KV-token.
    #[test]
    fn opt13b_kv_token_size_matches_paper() {
        let cfg = ModelConfig::opt_13b();
        assert_eq!(cfg.kv_bytes_per_token(), 819_200);
        let mb = cfg.kv_bytes_per_token() as f64 / (1024.0 * 1024.0);
        assert!((mb - 0.78125).abs() < 1e-6);
    }

    /// §6.2: GQA with group size 4 shrinks Llama 2-13B KV tokens 4x vs OPT-13B.
    #[test]
    fn gqa_reduces_kv_footprint() {
        let opt = ModelConfig::opt_13b();
        let llama = ModelConfig::llama2_13b();
        assert_eq!(llama.num_heads / llama.num_kv_heads, 4);
        assert_eq!(opt.kv_bytes_per_token() / llama.kv_bytes_per_token(), 4);
        let big = ModelConfig::llama2_70b();
        assert_eq!(big.num_heads / big.num_kv_heads, 8);
    }

    /// §6.3: OPT-13B -> OPT-66B grows params >5x but KV size only 2.88x.
    #[test]
    fn opt66b_scaling_ratios_match_paper() {
        let small = ModelConfig::opt_13b();
        let large = ModelConfig::opt_66b();
        let param_ratio = large.param_count() as f64 / small.param_count() as f64;
        assert!(param_ratio > 4.5, "param ratio {param_ratio}");
        let kv_ratio = large.kv_bytes_per_token() as f64 / small.kv_bytes_per_token() as f64;
        assert!((kv_ratio - 2.88).abs() < 0.01, "kv ratio {kv_ratio}");
    }

    #[test]
    fn param_counts_are_in_expected_range() {
        // Within ~15% of the nominal sizes (we ignore biases and norms).
        let approx = |cfg: &ModelConfig| cfg.param_count() as f64 / 1e9;
        assert!((approx(&ModelConfig::opt_13b()) - 13.0).abs() < 2.0);
        assert!((approx(&ModelConfig::opt_66b()) - 66.0).abs() < 8.0);
        assert!((approx(&ModelConfig::llama2_13b()) - 13.0).abs() < 2.0);
        assert!((approx(&ModelConfig::llama2_70b()) - 70.0).abs() < 8.0);
    }

    #[test]
    fn validate_rejects_bad_head_split() {
        let mut cfg = ModelConfig::opt_13b();
        cfg.head_dim = 100;
        assert!(cfg.validate().is_err());
        let mut cfg = ModelConfig::llama2_13b();
        cfg.num_kv_heads = 7;
        assert!(cfg.validate().is_err());
        let mut cfg = ModelConfig::opt_13b();
        cfg.num_kv_heads = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn tp_shards_kv_evenly() {
        let cfg = ModelConfig::llama2_70b();
        assert_eq!(
            cfg.kv_bytes_per_token_per_gpu(4) * 4,
            cfg.kv_bytes_per_token()
        );
    }
}
