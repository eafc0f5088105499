//! A tiny, fully-functional transformer running on the paged KV cache.
//!
//! This is the workspace's correctness oracle: the serving engines in
//! `pensieve-core` can execute real forward passes with it and assert that
//! *stateful* serving (reusing cached KV-tokens, swapping them out and in,
//! recomputing dropped prefixes as sub-requests) produces the same logits
//! as *stateless* recomputation from scratch — the end-to-end property the
//! paper's design must preserve.
//!
//! The model supports both paper families: OPT-style (learned positions,
//! LayerNorm, ReLU MLP) and Llama-style (RoPE, RMSNorm, gated SiLU MLP,
//! Grouped-Query Attention). Weights are random but deterministic per
//! seed; biases are omitted (they exercise no additional kernel paths).

use crossbeam::pool::Pool;
use pensieve_model::{Activation, ModelConfig, Norm, PositionEmbedding};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::attention::multi::paged_multi_token_pool;
use crate::attention::naive::naive_attention;
use crate::attention::{AttnConfig, AttnSeq};
use crate::ops::{
    add_rows, apply_rope, layernorm, matmul, matmul_pool, matmul_ref, relu, rmsnorm, silu,
};
use crate::paged::{BlockTable, KvLayout, OutOfBlocks, PagedKvCache};
use crate::tensor::Matrix;

/// Maximum absolute position supported by the learned position table.
const MAX_POSITIONS: usize = 4096;

/// Weights of one transformer layer.
pub(crate) struct LayerWeights {
    pub(crate) wq: Matrix,
    pub(crate) wk: Matrix,
    pub(crate) wv: Matrix,
    pub(crate) wo: Matrix,
    pub(crate) norm1: Vec<f32>,
    pub(crate) norm1_bias: Vec<f32>,
    pub(crate) norm2: Vec<f32>,
    pub(crate) norm2_bias: Vec<f32>,
    /// OPT: `[w_up, w_down]`. Llama: `[w_gate, w_up, w_down]`.
    pub(crate) mlp: Vec<Matrix>,
}

/// A deterministic random transformer over a [`ModelConfig`].
pub struct TinyModel {
    pub(crate) cfg: ModelConfig,
    pub(crate) attn: AttnConfig,
    pub(crate) embed: Matrix,
    pub(crate) pos_embed: Option<Matrix>,
    pub(crate) layers: Vec<LayerWeights>,
    pub(crate) final_norm: Vec<f32>,
    pub(crate) final_norm_bias: Vec<f32>,
    pub(crate) lm_head: Matrix,
    /// Persistent worker pool for the batched kernels (serial pool =
    /// fully serial). Results are bit-identical at every width; see
    /// [`TinyModel::set_threads`].
    pool: Pool,
}

/// One contiguous run of query tokens at absolute positions
/// `start_pos .. start_pos + tokens.len()`.
///
/// A normal prefill or decode step is a single segment at the trailing end
/// of the context; dropped-token recomputation adds a second, leading
/// segment (paper Figure 8).
#[derive(Debug, Clone)]
pub struct SegmentInput {
    /// Raw token ids to process.
    pub tokens: Vec<u32>,
    /// Absolute context position of `tokens[0]`.
    pub start_pos: usize,
}

/// One request's input to a batched forward pass.
#[derive(Debug)]
pub struct SeqInput<'a> {
    /// Query segments, disjoint and in ascending position order. The last
    /// segment must end at the sequence's final context length.
    pub segments: Vec<SegmentInput>,
    /// The sequence's block table (mutated: slots are appended/written).
    pub table: &'a mut BlockTable,
}

impl SeqInput<'_> {
    /// Context length after this forward pass: end of the last segment.
    ///
    /// # Panics
    ///
    /// Panics if there are no segments.
    #[must_use]
    pub fn context_len(&self) -> usize {
        // lint:allow(r1-panic): documented panic contract — callers must
        // provide at least one segment.
        let last = self.segments.last().expect("no segments");
        last.start_pos + last.tokens.len()
    }

    fn total_query_tokens(&self) -> usize {
        self.segments.iter().map(|s| s.tokens.len()).sum()
    }
}

impl TinyModel {
    /// Builds a model with deterministic random weights.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid.
    #[must_use]
    pub fn new_random(cfg: &ModelConfig, seed: u64) -> Self {
        // lint:allow(r1-panic): construction-time config validation —
        // documented panic contract, never on a serving path.
        cfg.validate().expect("invalid model config");
        let mut rng = StdRng::seed_from_u64(seed);
        let h = cfg.hidden_size;
        let kvw = cfg.kv_hidden();
        // Small init keeps activations stable across layers.
        let scale = 0.5 / (h as f32).sqrt();
        let mut mat = |rows: usize, cols: usize| {
            Matrix::from_vec(
                rows,
                cols,
                (0..rows * cols)
                    .map(|_| rng.random_range(-scale..scale))
                    .collect(),
            )
        };
        let layers = (0..cfg.num_layers)
            .map(|_| {
                let mlp = match cfg.family {
                    pensieve_model::ModelFamily::Opt => {
                        vec![mat(h, cfg.ffn_hidden), mat(cfg.ffn_hidden, h)]
                    }
                    pensieve_model::ModelFamily::Llama2 => vec![
                        mat(h, cfg.ffn_hidden),
                        mat(h, cfg.ffn_hidden),
                        mat(cfg.ffn_hidden, h),
                    ],
                };
                LayerWeights {
                    wq: mat(h, h),
                    wk: mat(h, kvw),
                    wv: mat(h, kvw),
                    wo: mat(h, h),
                    norm1: vec![1.0; h],
                    norm1_bias: vec![0.0; h],
                    norm2: vec![1.0; h],
                    norm2_bias: vec![0.0; h],
                    mlp,
                }
            })
            .collect();
        let pos_embed = match cfg.position_embedding {
            PositionEmbedding::Learned => Some(mat(MAX_POSITIONS, h)),
            PositionEmbedding::Rotary => None,
        };
        TinyModel {
            attn: AttnConfig::new(cfg.num_heads, cfg.num_kv_heads, cfg.head_dim),
            embed: mat(cfg.vocab_size, h),
            pos_embed,
            final_norm: vec![1.0; h],
            final_norm_bias: vec![0.0; h],
            lm_head: mat(h, cfg.vocab_size),
            layers,
            cfg: cfg.clone(),
            pool: Pool::serial(),
        }
    }

    /// Sets the number of worker threads used by the batched compute
    /// kernels ([`matmul_pool`] row partitions, [`paged_multi_token_pool`]
    /// sequence partitions) by installing the process-wide persistent
    /// pool of that width ([`Pool::global`]) — workers are parked between
    /// calls, never respawned.
    ///
    /// Forward-pass results are **bit-identical** at every thread count:
    /// partitions are disjoint output regions merged sequentially in a
    /// fixed order. `0` is clamped to `1`.
    pub fn set_threads(&mut self, threads: usize) {
        self.pool = if threads <= 1 {
            Pool::serial()
        } else {
            Pool::global(threads)
        };
    }

    /// Current worker-thread setting (see [`TinyModel::set_threads`]).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The worker pool backing the batched kernels.
    #[must_use]
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// The model configuration.
    #[must_use]
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// KV storage geometry for a given block size.
    #[must_use]
    pub fn kv_layout(&self, block_size: usize) -> KvLayout {
        KvLayout {
            num_kv_heads: self.cfg.num_kv_heads,
            head_dim: self.cfg.head_dim,
            block_size,
        }
    }

    fn normalize(&self, x: &mut [f32], weight: &[f32], bias: &[f32]) {
        match self.cfg.norm {
            Norm::LayerNorm => layernorm(x, weight, bias, 1e-5),
            Norm::RmsNorm => rmsnorm(x, weight, 1e-5),
        }
    }

    fn embed_token(&self, token: u32, pos: usize) -> Vec<f32> {
        let mut row = self.embed.row(token as usize).to_vec();
        if let Some(pe) = &self.pos_embed {
            assert!(pos < MAX_POSITIONS, "position {pos} beyond table");
            for (r, p) in row.iter_mut().zip(pe.row(pos)) {
                *r += p;
            }
        }
        row
    }

    /// Batched forward pass over the paged KV cache.
    ///
    /// For every sequence, slots for query positions beyond the current
    /// table length are appended (allocating blocks from `cache`); query
    /// positions below it (recomputation) are written in place and their
    /// blocks must already be resident, as must every non-query context
    /// block. Returns the logits of each sequence's **last** token, one row
    /// per sequence, in input order.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfBlocks`] if the pool cannot hold the new tokens.
    ///
    /// # Panics
    ///
    /// Panics if segments are malformed (empty, overlapping, descending) or
    /// required context blocks are holes.
    pub fn forward(
        &self,
        cache: &mut PagedKvCache,
        batch: &mut [SeqInput<'_>],
    ) -> Result<Matrix, OutOfBlocks> {
        let h = self.cfg.hidden_size;
        let total_q: usize = batch.iter().map(SeqInput::total_query_tokens).sum();
        assert!(total_q > 0, "empty batch");

        // Per query row: absolute position; per sequence: row ranges.
        let mut positions = Vec::with_capacity(total_q);
        let mut x = Matrix::zeros(total_q, h);
        let mut row = 0;
        // (block, slot) of each query row, precomputed once.
        let mut slots = Vec::with_capacity(total_q);
        for seq in batch.iter_mut() {
            assert!(!seq.segments.is_empty(), "sequence without segments");
            let mut prev_end = 0;
            let ctx = seq.context_len();
            for (i, seg) in seq.segments.iter().enumerate() {
                assert!(!seg.tokens.is_empty(), "empty segment");
                assert!(
                    i == 0 || seg.start_pos >= prev_end,
                    "segments overlap or descend"
                );
                prev_end = seg.start_pos + seg.tokens.len();
                for (j, &tok) in seg.tokens.iter().enumerate() {
                    let pos = seg.start_pos + j;
                    x.row_mut(row).copy_from_slice(&self.embed_token(tok, pos));
                    positions.push(pos);
                    // Append new slots; reuse (recompute into) existing ones.
                    let slot = if pos < seq.table.len() {
                        seq.table.position(pos)
                    } else {
                        debug_assert_eq!(pos, seq.table.len(), "gap before append");
                        seq.table.append_token(cache)?
                    };
                    slots.push(slot);
                    row += 1;
                }
            }
            // Every context block a kernel will read must be resident.
            assert!(
                seq.table.is_resident(ctx),
                "context has unfilled holes before forward"
            );
        }

        for (li, lw) in self.layers.iter().enumerate() {
            // Pre-norm.
            let mut xn = x.clone();
            for r in 0..total_q {
                self.normalize(xn.row_mut(r), &lw.norm1, &lw.norm1_bias);
            }
            let mut q = matmul_pool(&xn, &lw.wq, &self.pool);
            let mut k = matmul_pool(&xn, &lw.wk, &self.pool);
            let v = matmul_pool(&xn, &lw.wv, &self.pool);
            if self.cfg.position_embedding == PositionEmbedding::Rotary {
                for (r, &pos) in positions.iter().enumerate() {
                    apply_rope(q.row_mut(r), self.cfg.num_heads, self.cfg.head_dim, pos);
                    apply_rope(k.row_mut(r), self.cfg.num_kv_heads, self.cfg.head_dim, pos);
                }
            }
            // Write this layer's K/V into the paged cache.
            for (r, &(b, s)) in slots.iter().enumerate() {
                cache.write_token(li, b, s, k.row(r), v.row(r));
            }
            // Attention over the paged cache, one AttnSeq per segment.
            let layer_view = cache.layer(li);
            let mut seqs = Vec::new();
            let mut r0 = 0;
            for seq in batch.iter() {
                for seg in &seq.segments {
                    seqs.push(AttnSeq {
                        q_start: r0,
                        q_len: seg.tokens.len(),
                        context_len: seg.start_pos + seg.tokens.len(),
                        table: seq.table,
                    });
                    r0 += seg.tokens.len();
                }
            }
            let attn_out = paged_multi_token_pool(&self.attn, &q, &layer_view, &seqs, &self.pool);
            let proj = matmul_pool(&attn_out, &lw.wo, &self.pool);
            add_rows(&mut x, &proj);

            // MLP with pre-norm.
            let mut xn = x.clone();
            for r in 0..total_q {
                self.normalize(xn.row_mut(r), &lw.norm2, &lw.norm2_bias);
            }
            let mlp_out = self.mlp(&xn, lw);
            add_rows(&mut x, &mlp_out);
        }

        // Logits for each sequence's last token.
        let mut out = Matrix::zeros(batch.len(), self.cfg.vocab_size);
        let mut r0 = 0;
        for (i, seq) in batch.iter().enumerate() {
            let last_row = r0 + seq.total_query_tokens() - 1;
            let mut hrow = x.row(last_row).to_vec();
            self.normalize(&mut hrow, &self.final_norm, &self.final_norm_bias);
            let logits = matmul(&Matrix::from_vec(1, h, hrow), &self.lm_head);
            out.row_mut(i).copy_from_slice(logits.row(0));
            r0 += seq.total_query_tokens();
        }
        Ok(out)
    }

    fn mlp(&self, xn: &Matrix, lw: &LayerWeights) -> Matrix {
        match self.cfg.activation {
            Activation::Relu => {
                let mut up = matmul_pool(xn, &lw.mlp[0], &self.pool);
                for v in up.as_mut_slice() {
                    *v = relu(*v);
                }
                matmul_pool(&up, &lw.mlp[1], &self.pool)
            }
            Activation::Silu => {
                let mut gate = matmul_pool(xn, &lw.mlp[0], &self.pool);
                let up = matmul_pool(xn, &lw.mlp[1], &self.pool);
                for (g, u) in gate.as_mut_slice().iter_mut().zip(up.as_slice()) {
                    *g = silu(*g) * u;
                }
                matmul_pool(&gate, &lw.mlp[2], &self.pool)
            }
        }
    }

    /// Stateless reference: processes `tokens` from scratch with dense,
    /// contiguous, naive attention and returns the last token's logits.
    ///
    /// Shares no KV-cache code with [`TinyModel::forward`], and uses only
    /// the scalar reference kernels ([`matmul_ref`], naive attention) —
    /// never the blocked or parallel fast paths — so agreement between the
    /// two is strong evidence the whole optimized paged path is correct.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty.
    #[must_use]
    pub fn forward_dense(&self, tokens: &[u32]) -> Vec<f32> {
        assert!(!tokens.is_empty());
        let h = self.cfg.hidden_size;
        let n = tokens.len();
        let mut x = Matrix::zeros(n, h);
        for (r, &tok) in tokens.iter().enumerate() {
            x.row_mut(r).copy_from_slice(&self.embed_token(tok, r));
        }
        for lw in &self.layers {
            let mut xn = x.clone();
            for r in 0..n {
                self.normalize(xn.row_mut(r), &lw.norm1, &lw.norm1_bias);
            }
            let mut q = matmul_ref(&xn, &lw.wq);
            let mut k = matmul_ref(&xn, &lw.wk);
            let v = matmul_ref(&xn, &lw.wv);
            if self.cfg.position_embedding == PositionEmbedding::Rotary {
                for r in 0..n {
                    apply_rope(q.row_mut(r), self.cfg.num_heads, self.cfg.head_dim, r);
                    apply_rope(k.row_mut(r), self.cfg.num_kv_heads, self.cfg.head_dim, r);
                }
            }
            let attn_out = naive_attention(&self.attn, &q, &k, &v);
            let proj = matmul_ref(&attn_out, &lw.wo);
            add_rows(&mut x, &proj);
            let mut xn = x.clone();
            for r in 0..n {
                self.normalize(xn.row_mut(r), &lw.norm2, &lw.norm2_bias);
            }
            let mlp_out = self.mlp_ref(&xn, lw);
            add_rows(&mut x, &mlp_out);
        }
        let mut hrow = x.row(n - 1).to_vec();
        self.normalize(&mut hrow, &self.final_norm, &self.final_norm_bias);
        matmul_ref(&Matrix::from_vec(1, h, hrow), &self.lm_head)
            .row(0)
            .to_vec()
    }

    /// Reference-kernel MLP used only by [`TinyModel::forward_dense`].
    fn mlp_ref(&self, xn: &Matrix, lw: &LayerWeights) -> Matrix {
        match self.cfg.activation {
            Activation::Relu => {
                let mut up = matmul_ref(xn, &lw.mlp[0]);
                for v in up.as_mut_slice() {
                    *v = relu(*v);
                }
                matmul_ref(&up, &lw.mlp[1])
            }
            Activation::Silu => {
                let mut gate = matmul_ref(xn, &lw.mlp[0]);
                let up = matmul_ref(xn, &lw.mlp[1]);
                for (g, u) in gate.as_mut_slice().iter_mut().zip(up.as_slice()) {
                    *g = silu(*g) * u;
                }
                matmul_ref(&gate, &lw.mlp[2])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::argmax;

    fn max_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    fn check_incremental_matches_dense(cfg: &ModelConfig) {
        let model = TinyModel::new_random(cfg, 42);
        let mut cache = PagedKvCache::new(model.kv_layout(4), cfg.num_layers, 64);
        let mut table = BlockTable::new(4);
        let prompt: Vec<u32> = vec![3, 17, 99, 4, 56];

        // Stateful: prefill the prompt, then decode two tokens one by one.
        let mut batch = [SeqInput {
            segments: vec![SegmentInput {
                tokens: prompt.clone(),
                start_pos: 0,
            }],
            table: &mut table,
        }];
        let logits = model.forward(&mut cache, &mut batch).unwrap();
        let t1 = argmax(logits.row(0)) as u32;

        let dense1 = model.forward_dense(&prompt);
        assert!(
            max_diff(logits.row(0), &dense1) < 1e-3,
            "prefill logits diverge: {}",
            max_diff(logits.row(0), &dense1)
        );

        let mut ctx: Vec<u32> = prompt.clone();
        ctx.push(t1);
        let mut batch = [SeqInput {
            segments: vec![SegmentInput {
                tokens: vec![t1],
                start_pos: prompt.len(),
            }],
            table: &mut table,
        }];
        let logits2 = model.forward(&mut cache, &mut batch).unwrap();
        let dense2 = model.forward_dense(&ctx);
        assert!(
            max_diff(logits2.row(0), &dense2) < 1e-3,
            "decode logits diverge: {}",
            max_diff(logits2.row(0), &dense2)
        );
    }

    #[test]
    fn llama_incremental_matches_dense() {
        check_incremental_matches_dense(&ModelConfig::tiny_llama());
    }

    #[test]
    fn opt_incremental_matches_dense() {
        check_incremental_matches_dense(&ModelConfig::tiny_opt());
    }

    /// A follow-up turn reusing cached history must equal recomputing the
    /// whole conversation from scratch — the paper's core claim.
    #[test]
    fn stateful_turn_matches_stateless_recompute() {
        let cfg = ModelConfig::tiny_llama();
        let model = TinyModel::new_random(&cfg, 7);
        let mut cache = PagedKvCache::new(model.kv_layout(4), cfg.num_layers, 64);
        let mut table = BlockTable::new(4);
        let turn1: Vec<u32> = vec![5, 9, 2, 88, 41, 7];
        let turn2: Vec<u32> = vec![13, 6, 120];

        let mut batch = [SeqInput {
            segments: vec![SegmentInput {
                tokens: turn1.clone(),
                start_pos: 0,
            }],
            table: &mut table,
        }];
        model.forward(&mut cache, &mut batch).unwrap();

        // Turn 2: only the new tokens are processed (stateful).
        let mut batch = [SeqInput {
            segments: vec![SegmentInput {
                tokens: turn2.clone(),
                start_pos: turn1.len(),
            }],
            table: &mut table,
        }];
        let stateful = model.forward(&mut cache, &mut batch).unwrap();

        let full: Vec<u32> = turn1.iter().chain(&turn2).copied().collect();
        let stateless = model.forward_dense(&full);
        assert!(max_diff(stateful.row(0), &stateless) < 1e-3);
    }

    /// Dropped-prefix recomputation via two sub-request segments
    /// (paper Figure 8) must also match stateless recompute.
    #[test]
    fn dropped_prefix_recompute_matches_stateless() {
        let cfg = ModelConfig::tiny_llama();
        let model = TinyModel::new_random(&cfg, 7);
        let block = 4usize;
        let mut cache = PagedKvCache::new(model.kv_layout(block), cfg.num_layers, 64);
        let mut table = BlockTable::new(block);
        let history: Vec<u32> = (0..16).map(|i| (i * 7 + 3) % 128).collect();

        let mut batch = [SeqInput {
            segments: vec![SegmentInput {
                tokens: history.clone(),
                start_pos: 0,
            }],
            table: &mut table,
        }];
        model.forward(&mut cache, &mut batch).unwrap();

        // Drop the leading two blocks (tokens 0..8), as CPU-cache pressure
        // would; then serve a new prompt, recomputing the dropped prefix.
        table.free_blocks(&mut cache, 0..2);
        table.refill(&mut cache, 0..2).unwrap();
        let new_prompt: Vec<u32> = vec![100, 101, 102];
        let mut batch = [SeqInput {
            segments: vec![
                SegmentInput {
                    tokens: history[0..8].to_vec(),
                    start_pos: 0,
                },
                SegmentInput {
                    tokens: new_prompt.clone(),
                    start_pos: history.len(),
                },
            ],
            table: &mut table,
        }];
        let stateful = model.forward(&mut cache, &mut batch).unwrap();

        let full: Vec<u32> = history.iter().chain(&new_prompt).copied().collect();
        let stateless = model.forward_dense(&full);
        assert!(
            max_diff(stateful.row(0), &stateless) < 1e-3,
            "diff {}",
            max_diff(stateful.row(0), &stateless)
        );
    }

    /// Two requests served in one unified batch (one prefill + one decode)
    /// must each match their individually computed logits.
    #[test]
    fn unified_batch_matches_individual() {
        let cfg = ModelConfig::tiny_opt();
        let model = TinyModel::new_random(&cfg, 3);
        let mut cache = PagedKvCache::new(model.kv_layout(4), cfg.num_layers, 64);

        // Request A: an existing conversation mid-decode.
        let mut table_a = BlockTable::new(4);
        let hist_a: Vec<u32> = vec![11, 22, 33, 44];
        let mut batch = [SeqInput {
            segments: vec![SegmentInput {
                tokens: hist_a.clone(),
                start_pos: 0,
            }],
            table: &mut table_a,
        }];
        model.forward(&mut cache, &mut batch).unwrap();

        // Request B: a fresh prefill, batched with A's next decode step.
        let mut table_b = BlockTable::new(4);
        let prompt_b: Vec<u32> = vec![70, 80, 90];
        let next_a: u32 = 55;
        let mut batch = [
            SeqInput {
                segments: vec![SegmentInput {
                    tokens: vec![next_a],
                    start_pos: hist_a.len(),
                }],
                table: &mut table_a,
            },
            SeqInput {
                segments: vec![SegmentInput {
                    tokens: prompt_b.clone(),
                    start_pos: 0,
                }],
                table: &mut table_b,
            },
        ];
        let logits = model.forward(&mut cache, &mut batch).unwrap();

        let mut full_a = hist_a.clone();
        full_a.push(next_a);
        let dense_a = model.forward_dense(&full_a);
        let dense_b = model.forward_dense(&prompt_b);
        assert!(max_diff(logits.row(0), &dense_a) < 1e-3);
        assert!(max_diff(logits.row(1), &dense_b) < 1e-3);
    }

    /// The data-parallel compute path must not change a single bit of the
    /// logits: partitions are disjoint and merged in fixed order.
    #[test]
    fn forward_bit_identical_across_thread_counts() {
        let cfg = ModelConfig::tiny_llama();
        let run = |threads: usize| {
            let mut model = TinyModel::new_random(&cfg, 9);
            model.set_threads(threads);
            let mut cache = PagedKvCache::new(model.kv_layout(4), cfg.num_layers, 64);
            let mut table = BlockTable::new(4);
            let mut batch = [SeqInput {
                segments: vec![SegmentInput {
                    tokens: (0..13).map(|i| (i * 5 + 2) % 128).collect(),
                    start_pos: 0,
                }],
                table: &mut table,
            }];
            let prefill = model.forward(&mut cache, &mut batch).unwrap();
            let mut batch = [SeqInput {
                segments: vec![SegmentInput {
                    tokens: vec![42],
                    start_pos: 13,
                }],
                table: &mut table,
            }];
            let decode = model.forward(&mut cache, &mut batch).unwrap();
            (prefill, decode)
        };
        let base = run(1);
        for threads in [2usize, 3, 4] {
            assert_eq!(run(threads), base, "threads={threads}");
        }
    }

    /// OPT's learned position table is finite; exceeding it is a clear
    /// panic rather than silent garbage.
    #[test]
    #[should_panic(expected = "beyond table")]
    fn learned_positions_are_bounded() {
        let cfg = ModelConfig::tiny_opt();
        let model = TinyModel::new_random(&cfg, 5);
        let mut cache = PagedKvCache::new(model.kv_layout(4), cfg.num_layers, 8);
        let mut table = BlockTable::new(4);
        let mut batch = [SeqInput {
            segments: vec![SegmentInput {
                tokens: vec![1],
                start_pos: 100_000,
            }],
            table: &mut table,
        }];
        let _ = model.forward(&mut cache, &mut batch);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn forward_rejects_empty_batch() {
        let cfg = ModelConfig::tiny_llama();
        let model = TinyModel::new_random(&cfg, 5);
        let mut cache = PagedKvCache::new(model.kv_layout(4), cfg.num_layers, 8);
        let mut batch: [SeqInput<'_>; 0] = [];
        let _ = model.forward(&mut cache, &mut batch);
    }

    #[test]
    fn forward_propagates_out_of_blocks() {
        let cfg = ModelConfig::tiny_llama();
        let model = TinyModel::new_random(&cfg, 1);
        let mut cache = PagedKvCache::new(model.kv_layout(4), cfg.num_layers, 1);
        let mut table = BlockTable::new(4);
        let mut batch = [SeqInput {
            segments: vec![SegmentInput {
                tokens: (0..9).collect(),
                start_pos: 0,
            }],
            table: &mut table,
        }];
        assert!(model.forward(&mut cache, &mut batch).is_err());
    }
}
