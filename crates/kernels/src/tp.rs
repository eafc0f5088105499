//! Tensor-parallel execution of the functional transformer (§4.4.2).
//!
//! The paper partitions large models Megatron-style: Q/K/V projections
//! are column-parallel (each worker owns a slice of the attention heads),
//! output and MLP-down projections are row-parallel, and two all-reduces
//! per layer combine the partial sums. Crucially for Pensieve, **the KV
//! cache partitions along the head dimension with the model** — each
//! worker stores its own shard of every KV-token in its own paged pool
//! and follows the same migration plan, so eviction decisions are
//! worker-agnostic.
//!
//! The transformer itself is [`crate::model`]'s; this module only cuts it
//! up and says who holds the pieces:
//!
//! * [`TpModel::new`] is the one place weights are sliced: it cuts a
//!   [`TinyModel`]'s full-width shard into `n` narrower ones that all
//!   point to the model's [`ReplicatedWeights`] (shared, not copied).
//! * [`ShardRunner`] — one worker: a weight shard plus the paged KV pool
//!   and the per-conversation block tables it alone fills. It hands them
//!   to the shard for each stage of the pass it last began.
//! * [`TpModel`] — the single-threaded orchestrator and the serial
//!   reference: it drives [`ReplicatedWeights::forward`] with every
//!   runner's partial computed inline, in shard order, which is where
//!   that loop reduces them.
//!
//! `pensieve-core`'s threaded engine drives the same [`ShardRunner`]s
//! from real worker threads over channels (paper Figure 7).

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use crossbeam::pool::Pool;

use crate::attention::AttnConfig;
use crate::model::{LayerWeights, Pass, ReplicatedWeights, SegmentInput, Shard, Stage, TinyModel};
use crate::paged::{BlockTable, KvLayout, OutOfBlocks, PagedKvCache};
use crate::tensor::Matrix;

/// Copies columns `cols` of `m` into a new matrix.
fn slice_cols(m: &Matrix, cols: Range<usize>) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), cols.len());
    for r in 0..m.rows() {
        out.row_mut(r).copy_from_slice(&m.row(r)[cols.clone()]);
    }
    out
}

/// Copies rows `rows` of `m` into a new matrix.
fn slice_rows(m: &Matrix, rows: Range<usize>) -> Matrix {
    let mut out = Matrix::zeros(rows.len(), m.cols());
    for (to, from) in rows.enumerate() {
        out.row_mut(to).copy_from_slice(m.row(from));
    }
    out
}

/// One tensor-parallel worker: a weight shard + its KV-cache partition.
pub struct ShardRunner {
    shard: Shard,
    cache: PagedKvCache,
    tables: HashMap<u64, BlockTable>,
    /// The pass begun last, and the conversation it is over.
    pass: Pass,
    pass_conv: u64,
}

impl ShardRunner {
    /// Sets the number of worker threads used *inside* this shard's
    /// operators (blocked GEMM row partitions and attention
    /// (sequence, KV-head) partitions).
    ///
    /// Orthogonal to tensor-parallel sharding: shards split the model,
    /// intra-shard threads split each shard's math. Results are
    /// bit-identical at every setting; `0` is clamped to `1`.
    pub fn set_threads(&mut self, threads: usize) {
        self.shard.set_threads(threads);
    }

    /// Allocates KV slots for a pass over `conv` with the given query
    /// `segments` (`(start_pos, len)` pairs, ascending; the last ends at
    /// the sequence's new context length).
    ///
    /// # Errors
    ///
    /// Returns [`OutOfBlocks`] if this shard's pool is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if segments are malformed or required blocks are holes.
    pub fn begin_pass(
        &mut self,
        conv: u64,
        segments: &[(usize, usize)],
    ) -> Result<(), OutOfBlocks> {
        let block_size = self.cache.layout().block_size;
        let table = self
            .tables
            .entry(conv)
            .or_insert_with(|| BlockTable::new(block_size));
        self.pass = Pass::default();
        self.pass_conv = conv;
        self.pass
            .push_seq(segments.iter().copied(), table, &mut self.cache)
    }

    /// This shard's partial of `stage` for the pass begun last: over its
    /// heads and its KV partition for the attention sub-layer, its FFN
    /// columns for the MLP, its vocabulary slice for the LM head. The
    /// caller reduces the partials of all shards
    /// ([`ReplicatedWeights::forward`]).
    ///
    /// # Panics
    ///
    /// Panics if no pass was begun.
    #[must_use]
    pub fn partial(&mut self, stage: Stage, input: &Matrix) -> Matrix {
        let table = &self.tables[&self.pass_conv];
        self.shard
            .partial(stage, input, &self.pass, &mut self.cache, &[table])
    }
}

/// Single-threaded tensor-parallel orchestrator over `n` shards.
pub struct TpModel {
    replicated: Arc<ReplicatedWeights>,
    shards: Vec<ShardRunner>,
}

impl TpModel {
    /// Shards `model` across `num_shards` workers, each with its own paged
    /// KV pool of `blocks_per_shard` blocks of `block_size` tokens.
    ///
    /// # Panics
    ///
    /// Panics if heads, KV heads, FFN width, or vocabulary are not
    /// divisible by `num_shards`.
    #[must_use]
    pub fn new(
        model: &TinyModel,
        num_shards: usize,
        block_size: usize,
        blocks_per_shard: usize,
    ) -> Self {
        let full = &model.shard;
        let cfg = full.rep.config();
        assert!(num_shards > 0);
        assert_eq!(cfg.num_heads % num_shards, 0, "heads must divide");
        assert_eq!(cfg.num_kv_heads % num_shards, 0, "kv heads must divide");
        assert_eq!(cfg.ffn_hidden % num_shards, 0, "ffn must divide");
        assert_eq!(cfg.vocab_size % num_shards, 0, "vocab must divide");
        let d = cfg.head_dim;
        let hpw = cfg.num_heads / num_shards;
        let kvpw = cfg.num_kv_heads / num_shards;

        let shards = (0..num_shards)
            .map(|w| {
                // Worker `w`'s share of a dimension split `per` ways.
                let share = |per: usize| w * per..(w + 1) * per;
                let (q, kv) = (share(hpw * d), share(kvpw * d));
                let ffn = share(cfg.ffn_hidden / num_shards);
                let layers = full
                    .layers
                    .iter()
                    .map(|lw| {
                        // Column-parallel up (and gate); the last matrix
                        // is the row-parallel down projection.
                        let down = lw.mlp.len() - 1;
                        let slice = |(i, m)| {
                            let cut = if i < down { slice_cols } else { slice_rows };
                            cut(m, ffn.clone())
                        };
                        let mlp = lw.mlp.iter().enumerate().map(slice).collect();
                        LayerWeights {
                            wq: slice_cols(&lw.wq, q.clone()),
                            wk: slice_cols(&lw.wk, kv.clone()),
                            wv: slice_cols(&lw.wv, kv.clone()),
                            wo: slice_rows(&lw.wo, q.clone()),
                            mlp,
                        }
                    })
                    .collect();
                let layout = KvLayout {
                    num_kv_heads: kvpw,
                    head_dim: d,
                    block_size,
                };
                ShardRunner {
                    shard: Shard {
                        rep: Arc::clone(&full.rep),
                        attn: AttnConfig::new(hpw, kvpw, d),
                        layers,
                        lm_head: slice_cols(&full.lm_head, share(cfg.vocab_size / num_shards)),
                        pool: Pool::serial(),
                    },
                    cache: PagedKvCache::new(layout, cfg.num_layers, blocks_per_shard),
                    tables: HashMap::new(),
                    pass: Pass::default(),
                    pass_conv: 0,
                }
            })
            .collect();
        TpModel {
            replicated: Arc::clone(&full.rep),
            shards,
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Sets the intra-shard worker thread count on every shard (see
    /// [`ShardRunner::set_threads`]). Bit-identical at every setting.
    pub fn set_threads(&mut self, threads: usize) {
        for shard in &mut self.shards {
            shard.set_threads(threads);
        }
    }

    /// Splits the model into its replicated weights and shard runners, for
    /// drivers that move each shard onto its own worker thread.
    #[must_use]
    pub fn into_parts(self) -> (Arc<ReplicatedWeights>, Vec<ShardRunner>) {
        (self.replicated, self.shards)
    }

    /// One tensor-parallel forward pass for a single sequence, returning
    /// the last token's logits. Segment semantics match
    /// [`TinyModel::forward`].
    ///
    /// # Errors
    ///
    /// Returns [`OutOfBlocks`] if any shard's pool is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty or malformed.
    pub fn forward_seq(
        &mut self,
        conv: u64,
        segments: &[SegmentInput],
    ) -> Result<Vec<f32>, OutOfBlocks> {
        let x = self.replicated.embed(segments.iter());
        let shapes: Vec<_> = segments.iter().map(SegmentInput::shape).collect();
        for shard in &mut self.shards {
            shard.begin_pass(conv, &shapes)?;
        }
        let (shards, last) = (&mut self.shards, x.rows() - 1);
        let logits = self.replicated.forward(x, &[last], |stage, input| {
            let partials = shards.iter_mut().map(|s| s.partial(stage, &input));
            Ok(partials.collect::<Vec<_>>())
        })?;
        Ok(logits.row(0).to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::argmax;
    use pensieve_model::ModelConfig;

    fn max_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    fn check_tp_matches_dense(cfg: &ModelConfig, shards: usize) {
        let model = TinyModel::new_random(cfg, 55);
        let mut tp = TpModel::new(&model, shards, 4, 64);
        let prompt: Vec<u32> = vec![9, 27, 4, 81, 33, 2];
        let logits = tp
            .forward_seq(
                1,
                &[SegmentInput {
                    tokens: prompt.clone(),
                    start_pos: 0,
                }],
            )
            .unwrap();
        let dense = model.forward_dense(&prompt);
        assert!(
            max_diff(&logits, &dense) < 1e-3,
            "{} x{shards}: diff {}",
            cfg.name,
            max_diff(&logits, &dense)
        );
        // Decode continues from the sharded caches.
        let tok = argmax(&logits) as u32;
        let logits2 = tp
            .forward_seq(
                1,
                &[SegmentInput {
                    tokens: vec![tok],
                    start_pos: prompt.len(),
                }],
            )
            .unwrap();
        let mut full = prompt;
        full.push(tok);
        let dense2 = model.forward_dense(&full);
        assert!(max_diff(&logits2, &dense2) < 1e-3);
    }

    #[test]
    fn llama_two_shards_match_dense() {
        check_tp_matches_dense(&ModelConfig::tiny_llama(), 2);
    }

    #[test]
    fn opt_four_shards_match_dense() {
        check_tp_matches_dense(&ModelConfig::tiny_opt(), 4);
    }

    #[test]
    fn single_shard_is_identity_partition() {
        check_tp_matches_dense(&ModelConfig::tiny_llama(), 1);
    }

    /// Each shard stores only its KV-head slice: pool usage shrinks with
    /// the shard count while results stay exact (the property that lets
    /// Pensieve shard its cache with the model, §4.4.2).
    #[test]
    fn kv_partition_splits_storage() {
        let cfg = ModelConfig::tiny_llama();
        let model = TinyModel::new_random(&cfg, 56);
        let mut tp = TpModel::new(&model, 2, 4, 64);
        let prompt: Vec<u32> = (0..10).collect();
        tp.forward_seq(
            7,
            &[SegmentInput {
                tokens: prompt,
                start_pos: 0,
            }],
        )
        .unwrap();
        for shard in &tp.shards {
            // 10 tokens at block size 4 -> 3 blocks per shard, regardless
            // of shard count (each block holds kv_heads/n heads).
            assert_eq!(shard.cache.num_blocks() - shard.cache.num_free(), 3);
            assert_eq!(shard.cache.layout().num_kv_heads, 1);
        }
    }

    #[test]
    #[should_panic(expected = "kv heads must divide")]
    fn rejects_indivisible_kv_heads() {
        let cfg = ModelConfig::tiny_llama(); // 2 KV heads.
        let model = TinyModel::new_random(&cfg, 57);
        let _ = TpModel::new(&model, 4, 4, 16);
    }
}
