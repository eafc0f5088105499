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
//! * [`ShardRunner`] — one worker: a weight shard plus its KV-head slice
//!   of every block. Block ids and tables are its scheduler's: one id
//!   space for every shard, each storing its slice under the id, and a
//!   pass prologue ([`Pass`]) worked out once for all of them.
//! * [`TpModel`] — the single-threaded orchestrator and the serial
//!   reference: it drives [`ReplicatedWeights::forward`] with every
//!   runner's partial computed inline, in shard order, which is where
//!   that loop reduces them.
//!
//! Host copies of a block are full width whatever the shard count:
//! [`gather_block`] joins the shards' slices of a block into the bytes
//! [`PagedKvCache::read_block`] lays out for the whole model, and
//! [`ShardRunner::write_block`] takes its slice back out of them.
//!
//! `pensieve-core`'s threaded fleet drives the same [`ShardRunner`]s
//! from real worker threads over channels (paper Figure 7).

use std::ops::Range;
use std::sync::Arc;

use crossbeam::pool::Pool;

use crate::attention::AttnConfig;
use crate::model::{
    LayerWeights, PagedModel, Pass, ReplicatedWeights, SeqInput, Shard, ShardScratch, Stage,
    Stream, TinyModel,
};
use crate::paged::{BlockId, BlockTable, KvLayout, PagedKvCache};
use crate::tensor::Matrix;
use pensieve_model::ModelConfig;

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

/// Joins the shards' slices of one block, in shard order, into its
/// full-width bytes: every `(layer, K or V, slot)` row of the block is
/// the shards' rows side by side.
#[must_use]
pub fn gather_block(slices: impl IntoIterator<Item = Matrix>) -> Vec<f32> {
    let slices: Vec<Matrix> = slices.into_iter().collect();
    let rows = slices.first().map_or(0, Matrix::rows);
    let row = |r| slices.iter().flat_map(move |s| s.row(r));
    (0..rows).flat_map(row).copied().collect()
}

/// One tensor-parallel worker: a weight shard and its KV-head slice of
/// every block the scheduler numbers.
pub struct ShardRunner {
    shard: Shard,
    cache: PagedKvCache,
    /// What its partials reuse from pass to pass.
    scratch: ShardScratch,
    /// This shard's index, and the shard count.
    index: usize,
    of: usize,
}

impl ShardRunner {
    /// This shard's partial of `stage` for `pass`, whose `i`-th sequence
    /// has block table `tables[i]`: over its heads and its KV slice for
    /// the attention sub-layer, its FFN columns for the MLP, its
    /// vocabulary slice for the LM head. The caller reduces the partials
    /// of all shards ([`ReplicatedWeights::forward`]). The partial lives
    /// in the runner's scratch until its next one.
    #[must_use]
    pub fn partial(
        &mut self,
        stage: Stage,
        input: &Matrix,
        pass: &Pass,
        tables: &[&BlockTable],
    ) -> &Matrix {
        if let Some(block) = pass.rows.iter().map(|&(_, (block, _))| block).max() {
            self.cache.cover(block);
        }
        let (cache, scratch) = (&mut self.cache, &mut self.scratch);
        self.shard
            .partial(stage, input, pass, cache, tables, scratch)
    }

    /// This shard's slice of `block`: one row per row of the bytes
    /// [`PagedKvCache::read_block`] lays out for a whole block.
    #[must_use]
    pub fn read_block(&mut self, block: BlockId) -> Matrix {
        self.cache.cover(block);
        let width = self.cache.layout().token_floats();
        let kv = self.cache.read_block(block);
        Matrix::from_vec(kv.len() / width, width, kv)
    }

    /// Stores this shard's slice of `full`, the full-width bytes of
    /// `block`: the inverse of [`gather_block`].
    pub fn write_block(&mut self, block: BlockId, full: &[f32]) {
        let width = self.cache.layout().token_floats();
        let rows = full.chunks_exact(width).skip(self.index).step_by(self.of);
        self.cache.cover(block);
        self.cache
            .write_block(block, &rows.flatten().copied().collect::<Vec<_>>());
    }
}

/// Single-threaded tensor-parallel orchestrator over `n` shards.
pub struct TpModel {
    replicated: Arc<ReplicatedWeights>,
    shards: Vec<ShardRunner>,
    /// The pass prologue and layer loop's buffers, reused.
    pass: Pass,
    stream: Stream,
}

impl TpModel {
    /// Shards `model` across `num_shards` workers, each storing its
    /// KV-head slice of every block of `block_size` tokens.
    ///
    /// # Panics
    ///
    /// Panics if heads, KV heads, FFN width, or vocabulary are not
    /// divisible by `num_shards`.
    #[must_use]
    pub fn new(model: &TinyModel, num_shards: usize, block_size: usize) -> Self {
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
                    // Its ids are the scheduler's: it only stores blocks.
                    cache: PagedKvCache::new(layout, cfg.num_layers, 0),
                    scratch: ShardScratch::default(),
                    index: w,
                    of: num_shards,
                }
            })
            .collect();
        TpModel {
            replicated: Arc::clone(&full.rep),
            shards,
            pass: Pass::default(),
            stream: Stream::default(),
        }
    }

    /// Splits the model into its replicated weights and shard runners, for
    /// drivers that move each shard onto its own worker thread.
    #[must_use]
    pub fn into_parts(self) -> (Arc<ReplicatedWeights>, Vec<ShardRunner>) {
        (self.replicated, self.shards)
    }
}

/// [`TinyModel`]'s forward pass with each block's K/V stored across the
/// shards under the id the pool numbers it by.
impl PagedModel for TpModel {
    fn config(&self) -> &ModelConfig {
        self.replicated.config()
    }

    fn pool(&self, block_size: usize, num_blocks: usize) -> PagedKvCache {
        PagedKvCache::numbering(block_size, num_blocks)
    }

    fn read_block(&mut self, _: &PagedKvCache, block: BlockId, out: &mut Vec<f32>) {
        *out = gather_block(self.shards.iter_mut().map(|s| s.read_block(block)));
    }

    fn write_block(&mut self, _: &mut PagedKvCache, block: BlockId, kv: &[f32]) {
        for shard in &mut self.shards {
            shard.write_block(block, kv);
        }
    }

    fn run(&mut self, pool: &mut PagedKvCache, batch: &mut [SeqInput<'_>]) -> Option<Matrix> {
        let TpModel {
            replicated,
            shards,
            pass,
            stream,
        } = self;
        replicated.embed(batch.iter().flat_map(|seq| &seq.segments), stream);
        pass.fill(batch, pool).ok()?;
        let tables: Vec<&BlockTable> = batch.iter().map(|seq| &*seq.table).collect();
        let logits = replicated.forward(stream, &pass.last_rows, |stage, input, parts| {
            for shard in shards.iter_mut() {
                parts.push(shard.partial(stage, input, pass, &tables));
            }
            Ok::<_, ()>(())
        });
        logits.ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SegmentInput;
    use crate::ops::argmax;
    use pensieve_model::ModelConfig;

    fn max_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    /// One pass over `table`'s sequence: the last token's logits.
    fn pass(
        tp: &mut TpModel,
        ids: &mut PagedKvCache,
        table: &mut BlockTable,
        tokens: Vec<u32>,
        start_pos: usize,
    ) -> Vec<f32> {
        let segments = vec![SegmentInput { tokens, start_pos }];
        let logits = tp.run(ids, &mut [SeqInput { segments, table }]);
        logits.unwrap().row(0).to_vec()
    }

    fn check_tp_matches_dense(cfg: &ModelConfig, shards: usize) {
        let model = TinyModel::new_random(cfg, 55);
        let mut tp = TpModel::new(&model, shards, 4);
        let (mut ids, mut table) = (PagedKvCache::numbering(4, 64), BlockTable::new(4));
        let prompt: Vec<u32> = vec![9, 27, 4, 81, 33, 2];
        let logits = pass(&mut tp, &mut ids, &mut table, prompt.clone(), 0);
        let dense = model.forward_dense(&prompt);
        assert!(
            max_diff(&logits, &dense) < 1e-3,
            "{} x{shards}: diff {}",
            cfg.name,
            max_diff(&logits, &dense)
        );
        // Decode continues from the sharded caches.
        let tok = argmax(&logits) as u32;
        let logits2 = pass(&mut tp, &mut ids, &mut table, vec![tok], prompt.len());
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

    /// Each shard stores only its KV-head slice of every block, under the
    /// scheduler's one id (the property that lets Pensieve shard its
    /// cache with the model, §4.4.2), and the slices gather into exactly
    /// the bytes the unsharded model's pool holds for the block.
    #[test]
    fn kv_partition_splits_storage() {
        let cfg = ModelConfig::tiny_llama();
        let model = TinyModel::new_random(&cfg, 56);
        let mut tp = TpModel::new(&model, 2, 4);
        let (mut ids, mut table) = (PagedKvCache::numbering(4, 64), BlockTable::new(4));
        let prompt: Vec<u32> = (0..10).collect();
        pass(&mut tp, &mut ids, &mut table, prompt.clone(), 0);
        // 10 tokens at block size 4: 3 ids, each a 1-head slice per shard.
        assert_eq!(ids.num_free(), 61);
        for shard in &tp.shards {
            assert_eq!(shard.cache.layout().num_kv_heads, 1);
        }
        let mut pool = PagedKvCache::new(model.kv_layout(4), cfg.num_layers, 64);
        let mut whole = BlockTable::new(4);
        let segments = vec![SegmentInput {
            tokens: prompt,
            start_pos: 0,
        }];
        let batch = SeqInput {
            segments,
            table: &mut whole,
        };
        model.forward(&mut pool, &mut [batch]).unwrap();
        let read = |tp: &mut TpModel, ids: &PagedKvCache, id| {
            let mut out = Vec::new();
            tp.read_block(ids, id, &mut out);
            out
        };
        for b in 0..3 {
            let (full, id) = (pool.read_block(whole.block_at(b)), table.block_at(b));
            assert!(
                max_diff(&full, &read(&mut tp, &ids, id)) < 1e-5,
                "block {b}"
            );
            tp.write_block(&mut ids, id, &full);
            assert_eq!(read(&mut tp, &ids, id), full, "block {b} round trip");
        }
    }

    #[test]
    #[should_panic(expected = "kv heads must divide")]
    fn rejects_indivisible_kv_heads() {
        let cfg = ModelConfig::tiny_llama(); // 2 KV heads.
        let model = TinyModel::new_random(&cfg, 57);
        let _ = TpModel::new(&model, 4, 4);
    }
}
