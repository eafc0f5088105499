//! The tiny, fully-functional transformer on the paged KV cache — stated
//! once, for every way this workspace executes it.
//!
//! This is the workspace's correctness oracle: the serving engines in
//! `pensieve-core` execute real forward passes with it and assert that
//! *stateful* serving (reusing cached KV-tokens, swapping them out and in,
//! recomputing dropped prefixes as sub-requests) produces the same logits
//! as *stateless* recomputation from scratch — the end-to-end property the
//! paper's design must preserve. Both paper families are supported:
//! OPT-style (learned positions, LayerNorm, ReLU MLP) and Llama-style
//! (RoPE, RMSNorm, gated SiLU MLP, Grouped-Query Attention). Weights are
//! random but deterministic per seed; biases are omitted (they exercise no
//! additional kernel paths).
//!
//! Who owns what:
//!
//! * [`ReplicatedWeights`] — the configuration, embeddings and norm
//!   parameters: everything a tensor-parallel worker and its scheduler
//!   hold unsliced. One copy behind an `Arc`, pointed to by the model,
//!   by every shard cut from it and by every scheduler. It owns the one
//!   layer loop, [`ReplicatedWeights::forward`]: pre-norm, residual add,
//!   final norm and the reduction of each [`Stage`]'s partials (summed
//!   for the two sub-layers, concatenated for the LM head), always in
//!   shard order. A driver only says how a stage's partials are
//!   obtained. It also narrows the pass: once the last layer's attention
//!   input is normed, the residual stream keeps only each sequence's
//!   last row, the one whose logits are read.
//! * `Shard` — every layer's matrices at some width, an LM-head column
//!   slice and a worker pool. It computes one stage's partial: the
//!   attention sub-layer (QKV, RoPE, KV write, paged attention, output
//!   projection), the MLP, or its slice of the logits. In the last
//!   layer the attention sub-layer still projects and writes every
//!   row's K/V, but its queries, attention and output projection cover
//!   each sequence's last row only. It owns neither a KV cache nor
//!   block tables; the caller passes them, so a batch over an engine's
//!   tables and a worker's single conversation run the same code.
//! * `Pass` — the pass prologue: query segments → the position and
//!   `(block, slot)` of every query row, one attention sub-request per
//!   segment, and the last layer's one sub-request per sequence (its
//!   last row over its whole context), appending to or recomputing into
//!   the caller's table.
//! * [`TinyModel`] — the replicated weights plus the one full-width
//!   shard. [`TinyModel::forward`] is the one-shard driver;
//!   [`crate::tp`] cuts narrower shards from it.
//!
//! The narrowing saves the last layer's share of the per-row work of
//! every row that is not a sequence's last: about half of a prefill
//! row's attention and projections on the two-layer tiny models, about
//! 1/40 on the 40-layer Llama-2-13B. Each row's bits are fixed by its
//! own operations' order (ascending `p` in a matmul, the per-lane
//! online-softmax order in attention), not by which rows share a call,
//! so the logits and every K/V byte are those of the unnarrowed pass.

use std::sync::Arc;

use crossbeam::pool::Pool;
use pensieve_model::{Activation, ModelConfig, ModelFamily, Norm, PositionEmbedding};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::attention::multi::paged_multi_token_pool;
use crate::attention::naive::naive_attention;
use crate::attention::{AttnConfig, AttnSeq};
use crate::ops::{
    add_rows, apply_rope, layernorm, matmul, matmul_pool, matmul_ref, relu, rmsnorm, silu,
};
use crate::paged::{BlockId, BlockTable, KvLayout, OutOfBlocks, PagedKvCache};
use crate::tensor::Matrix;

/// Maximum absolute position supported by the learned position table.
const MAX_POSITIONS: usize = 4096;

/// One layer's matrices at some width: the whole layer in
/// [`TinyModel`]'s shard, a head / FFN-column slice in a tensor-parallel
/// one.
pub(crate) struct LayerWeights {
    pub(crate) wq: Matrix,
    pub(crate) wk: Matrix,
    pub(crate) wv: Matrix,
    pub(crate) wo: Matrix,
    /// OPT: `[w_up, w_down]`. Llama: `[w_gate, w_up, w_down]`.
    pub(crate) mlp: Vec<Matrix>,
}

/// `(weight, bias)` of one norm.
type NormParams = (Vec<f32>, Vec<f32>);

/// The replicated (non-sharded) weights every worker and the scheduler
/// share: configuration, embeddings and norms.
pub struct ReplicatedWeights {
    cfg: ModelConfig,
    embed: Matrix,
    pos_embed: Option<Matrix>,
    /// Per layer: the pre-attention norm, then the pre-MLP norm.
    norms: Vec<[NormParams; 2]>,
    final_norm: NormParams,
}

/// The three points of a pass where every shard contributes a partial.
#[derive(Debug, Clone, Copy)]
pub enum Stage {
    /// Layer `l`'s attention sub-layer. Input: the pre-normed hidden
    /// rows; partial: `[rows, hidden]`, summed across shards. In the last
    /// layer the input is still every row, whose K/V the stage writes,
    /// but the partial is `[sequences, hidden]`: the output of each
    /// sequence's last row only, the one row whose logits are read.
    Attn(usize),
    /// Layer `l`'s MLP. Input and partial as for [`Stage::Attn`]: every
    /// row before the last layer, one row per sequence in it.
    Mlp(usize),
    /// The LM head. Input: the final-normed last row of every sequence;
    /// partial: `[sequences, vocab / shards]`, concatenated column-wise.
    LmHead,
}

impl ReplicatedWeights {
    /// The model configuration.
    #[must_use]
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    fn normalize(&self, x: &mut [f32], (weight, bias): &NormParams) {
        match self.cfg.norm {
            Norm::LayerNorm => layernorm(x, weight, bias, 1e-5),
            Norm::RmsNorm => rmsnorm(x, weight, 1e-5),
        }
    }

    /// A copy of `x` with every row normalized.
    fn normed(&self, x: &Matrix, norm: &NormParams) -> Matrix {
        let mut out = x.clone();
        for r in 0..out.rows() {
            self.normalize(out.row_mut(r), norm);
        }
        out
    }

    fn embed_token(&self, token: u32, pos: usize, row: &mut [f32]) {
        row.copy_from_slice(self.embed.row(token as usize));
        if let Some(pe) = &self.pos_embed {
            assert!(pos < MAX_POSITIONS, "position {pos} beyond table");
            for (r, p) in row.iter_mut().zip(pe.row(pos)) {
                *r += p;
            }
        }
    }

    /// Embeds every token of `segments` at its absolute position: one
    /// hidden row per query token, in order.
    ///
    /// # Panics
    ///
    /// Panics if there are no tokens, or a position exceeds the
    /// learned-position table.
    #[must_use]
    pub fn embed<'a>(&self, segments: impl Iterator<Item = &'a SegmentInput> + Clone) -> Matrix {
        let rows: usize = segments.clone().map(|s| s.tokens.len()).sum();
        assert!(rows > 0, "empty batch");
        let mut x = Matrix::zeros(rows, self.cfg.hidden_size);
        let tokens = segments.flat_map(|s| s.tokens.iter().zip(s.start_pos..));
        for (r, (&tok, pos)) in tokens.enumerate() {
            self.embed_token(tok, pos, x.row_mut(r));
        }
        x
    }

    /// The transformer: runs the embedded rows `x` through every layer
    /// and returns the logits of `last_rows`, one row each.
    ///
    /// `partials(stage, input)` yields every shard's partial for that
    /// stage **in shard order**; this loop does the rest — pre-norm, the
    /// all-reduce sum and residual add of the two sub-layers, the final
    /// norm and the all-gather of the vocabulary-sharded logits. One
    /// shard yields one partial and the reductions are the identity.
    ///
    /// Once the last layer's attention input is normed, the residual
    /// stream keeps only `last_rows`: that stage still gets every row,
    /// since it writes every row's K/V, but its partial, the last MLP,
    /// the final norm and the LM head are `[last_rows, _]`. Nothing reads
    /// another row past the last K/V write, and each kept row's bits do
    /// not depend on which rows share its matrices. A pass whose every
    /// row is a sequence's last (all decode rows) has nothing to drop.
    ///
    /// # Errors
    ///
    /// Whatever `partials` returns.
    pub fn forward<P: IntoIterator<Item = Matrix>, E>(
        &self,
        mut x: Matrix,
        last_rows: &[usize],
        mut partials: impl FnMut(Stage, Matrix) -> Result<P, E>,
    ) -> Result<Matrix, E> {
        // The layer to narrow in, unless every row is a sequence's last.
        let last = (x.rows() > last_rows.len()).then(|| self.norms.len() - 1);
        for (l, norms) in self.norms.iter().enumerate() {
            for (stage, norm) in [(Stage::Attn(l), &norms[0]), (Stage::Mlp(l), &norms[1])] {
                let input = self.normed(&x, norm);
                if matches!(stage, Stage::Attn(l) if Some(l) == last) {
                    x = gather_rows(&x, last_rows);
                }
                // All-reduce: the partials summed in shard order, then
                // the residual add.
                let mut parts = partials(stage, input)?.into_iter();
                if let Some(mut sum) = parts.next() {
                    for p in parts {
                        add_rows(&mut sum, &p);
                    }
                    add_rows(&mut x, &sum);
                }
            }
        }
        // `x` now holds `last_rows` alone, narrowed or already so.
        let mut hidden = x;
        for i in 0..hidden.rows() {
            self.normalize(hidden.row_mut(i), &self.final_norm);
        }
        // All-gather: the vocabulary slices side by side in shard order.
        let mut logits = Matrix::zeros(last_rows.len(), self.cfg.vocab_size);
        let mut col = 0;
        for part in partials(Stage::LmHead, hidden)? {
            for i in 0..part.rows() {
                logits.row_mut(i)[col..col + part.cols()].copy_from_slice(part.row(i));
            }
            col += part.cols();
        }
        Ok(logits)
    }
}

/// A copy of rows `rows` of `m`, in that order.
fn gather_rows(m: &Matrix, rows: &[usize]) -> Matrix {
    let mut out = Matrix::zeros(rows.len(), m.cols());
    for (to, &from) in rows.iter().enumerate() {
        out.row_mut(to).copy_from_slice(m.row(from));
    }
    out
}

/// The MLP over `w` (a layer's `mlp` matrices at any width), with `mm`
/// as the matrix product: pooled on the paged path, the scalar reference
/// in [`TinyModel::forward_dense`].
fn mlp(
    activation: Activation,
    w: &[Matrix],
    xn: &Matrix,
    mm: impl Fn(&Matrix, &Matrix) -> Matrix,
) -> Matrix {
    match activation {
        Activation::Relu => {
            let mut up = mm(xn, &w[0]);
            for v in up.as_mut_slice() {
                *v = relu(*v);
            }
            mm(&up, &w[1])
        }
        Activation::Silu => {
            let mut gate = mm(xn, &w[0]);
            let up = mm(xn, &w[1]);
            for (g, u) in gate.as_mut_slice().iter_mut().zip(up.as_slice()) {
                *g = silu(*g) * u;
            }
            mm(&gate, &w[2])
        }
    }
}

/// Where one pass's query rows live, in batch order: what the prologue
/// [`Pass::push_seq`] works out once and every layer reuses.
#[derive(Debug, Default)]
pub(crate) struct Pass {
    /// Per query row: its absolute position and the `(block, slot)` its
    /// K/V is written to.
    rows: Vec<(usize, (BlockId, usize))>,
    /// One attention sub-request per segment: `(sequence, q_start,
    /// q_len, context_len)`.
    segments: Vec<(usize, usize, usize, usize)>,
    /// The last layer's sub-requests, as for `segments`: one per
    /// sequence, for its last row alone (`q_start` the sequence's index,
    /// `q_len` 1) over its whole context.
    last_segments: Vec<(usize, usize, usize, usize)>,
    /// Last query row of each sequence.
    pub(crate) last_rows: Vec<usize>,
}

impl Pass {
    /// Adds one sequence's query `segments` (`(start_pos, len)` pairs):
    /// slots for positions beyond `table`'s length are appended
    /// (allocating blocks from `cache`); positions below it
    /// (recomputation) are written in place.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfBlocks`] if the pool cannot hold the new tokens.
    ///
    /// # Panics
    ///
    /// Panics if segments are malformed (none, empty, overlapping,
    /// descending) or a context block the pass will read is a hole.
    pub(crate) fn push_seq(
        &mut self,
        segments: impl Iterator<Item = (usize, usize)>,
        table: &mut BlockTable,
        cache: &mut PagedKvCache,
    ) -> Result<(), OutOfBlocks> {
        let seq = self.last_rows.len();
        let mut end = 0;
        for (start, len) in segments {
            assert!(len > 0, "empty segment");
            assert!(start >= end, "segments overlap or descend");
            end = start + len;
            self.segments.push((seq, self.rows.len(), len, end));
            self.rows.reserve(len);
            for pos in start..end {
                // Append new slots; reuse (recompute into) existing ones.
                let slot = if pos < table.len() {
                    table.position(pos)
                } else {
                    debug_assert_eq!(pos, table.len(), "gap before append");
                    table.append_token(cache)?
                };
                self.rows.push((pos, slot));
            }
        }
        assert!(end > 0, "sequence without segments");
        // Every context block a kernel will read must be resident.
        assert!(
            table.is_resident(end),
            "context has unfilled holes before forward"
        );
        self.last_segments.push((seq, seq, 1, end));
        self.last_rows.push(self.rows.len() - 1);
        Ok(())
    }
}

/// Every layer's matrices at one width, the matching LM-head columns and
/// the pool their kernels run on. Shares the replicated weights it was
/// cut beside.
pub(crate) struct Shard {
    pub(crate) rep: Arc<ReplicatedWeights>,
    /// This shard's heads.
    pub(crate) attn: AttnConfig,
    pub(crate) layers: Vec<LayerWeights>,
    /// `[hidden, vocab / shards]`.
    pub(crate) lm_head: Matrix,
    /// Persistent worker pool for the batched kernels; width 1 runs them
    /// inline.
    pub(crate) pool: Pool,
}

impl Shard {
    /// Installs the process-wide persistent pool of width `threads`
    /// ([`Pool::global`], which clamps `0` to the inline width-1 pool).
    pub(crate) fn set_threads(&mut self, threads: usize) {
        self.pool = Pool::global(threads);
    }

    /// This shard's partial of `stage` over `input` (see [`Stage`]).
    /// `tables[i]` is the block table of `pass`'s `i`-th sequence; the
    /// attention stage writes the pass's K/V into `cache` and reads its
    /// context from there. In the last layer it writes every row's K/V
    /// but projects queries, attends and projects out for each
    /// sequence's last row only.
    pub(crate) fn partial(
        &self,
        stage: Stage,
        input: &Matrix,
        pass: &Pass,
        cache: &mut PagedKvCache,
        tables: &[&BlockTable],
    ) -> Matrix {
        let mm = |a: &Matrix, b: &Matrix| matmul_pool(a, b, &self.pool);
        match stage {
            Stage::Attn(l) => {
                let (lw, attn) = (&self.layers[l], &self.attn);
                let rope = self.rep.cfg.position_embedding == PositionEmbedding::Rotary;
                let mut k = mm(input, &lw.wk);
                let v = mm(input, &lw.wv);
                for (r, &(pos, (b, s))) in pass.rows.iter().enumerate() {
                    if rope {
                        apply_rope(k.row_mut(r), attn.num_kv_heads, attn.head_dim, pos);
                    }
                    cache.write_token(l, b, s, k.row(r), v.row(r));
                }
                // The last layer's queries: each sequence's last row, as
                // `ReplicatedWeights::forward` narrows.
                let narrow = l + 1 == self.layers.len() && input.rows() > pass.last_rows.len();
                let (mut q, segments) = if narrow {
                    let last = gather_rows(input, &pass.last_rows);
                    (mm(&last, &lw.wq), &pass.last_segments)
                } else {
                    (mm(input, &lw.wq), &pass.segments)
                };
                if rope {
                    for r in 0..q.rows() {
                        let row = if narrow { pass.last_rows[r] } else { r };
                        let pos = pass.rows[row].0;
                        apply_rope(q.row_mut(r), attn.num_heads, attn.head_dim, pos);
                    }
                }
                let seqs: Vec<AttnSeq<'_>> = segments
                    .iter()
                    .map(|&(seq, q_start, q_len, context_len)| AttnSeq {
                        q_start,
                        q_len,
                        context_len,
                        table: tables[seq],
                    })
                    .collect();
                let out = paged_multi_token_pool(attn, &q, &cache.layer(l), &seqs, &self.pool);
                mm(&out, &lw.wo)
            }
            Stage::Mlp(l) => mlp(self.rep.cfg.activation, &self.layers[l].mlp, input, mm),
            Stage::LmHead => matmul(input, &self.lm_head),
        }
    }
}

/// A deterministic random transformer over a [`ModelConfig`]: the
/// replicated weights and one shard as wide as the model.
pub struct TinyModel {
    pub(crate) shard: Shard,
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

impl SegmentInput {
    /// `(start_pos, len)`: all of a segment a KV-cache partition needs.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.start_pos, self.tokens.len())
    }
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

impl TinyModel {
    /// Builds a model with deterministic random weights.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid.
    #[must_use]
    pub fn new_random(cfg: &ModelConfig, seed: u64) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "construction-time config validation, a documented panic contract"
        )]
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
        // The draw order below is the weights' identity: layers (MLP
        // first), position table, embedding, LM head.
        let layers = (0..cfg.num_layers)
            .map(|_| {
                let mlp = match cfg.family {
                    ModelFamily::Opt => vec![mat(h, cfg.ffn_hidden), mat(cfg.ffn_hidden, h)],
                    ModelFamily::Llama2 => vec![
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
                    mlp,
                }
            })
            .collect();
        let pos_embed = match cfg.position_embedding {
            PositionEmbedding::Learned => Some(mat(MAX_POSITIONS, h)),
            PositionEmbedding::Rotary => None,
        };
        let unit = || (vec![1.0; h], vec![0.0; h]);
        let rep = ReplicatedWeights {
            cfg: cfg.clone(),
            embed: mat(cfg.vocab_size, h),
            pos_embed,
            norms: (0..cfg.num_layers).map(|_| [unit(), unit()]).collect(),
            final_norm: unit(),
        };
        let shard = Shard {
            rep: Arc::new(rep),
            attn: AttnConfig::new(cfg.num_heads, cfg.num_kv_heads, cfg.head_dim),
            layers,
            lm_head: mat(h, cfg.vocab_size),
            pool: Pool::serial(),
        };
        TinyModel { shard }
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
        self.shard.set_threads(threads);
    }

    /// Current worker-thread setting (see [`TinyModel::set_threads`]).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.shard.pool.threads()
    }

    /// The model configuration.
    #[must_use]
    pub fn config(&self) -> &ModelConfig {
        &self.shard.rep.cfg
    }

    /// KV storage geometry for a given block size.
    #[must_use]
    pub fn kv_layout(&self, block_size: usize) -> KvLayout {
        KvLayout {
            num_kv_heads: self.config().num_kv_heads,
            head_dim: self.config().head_dim,
            block_size,
        }
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
        let rep = &self.shard.rep;
        let x = rep.embed(batch.iter().flat_map(|seq| &seq.segments));
        let mut pass = Pass::default();
        for seq in batch.iter_mut() {
            let shapes = seq.segments.iter().map(SegmentInput::shape);
            pass.push_seq(shapes, seq.table, cache)?;
        }
        let tables: Vec<&BlockTable> = batch.iter().map(|seq| &*seq.table).collect();
        rep.forward(x, &pass.last_rows, |stage, input| {
            Ok([self.shard.partial(stage, &input, &pass, cache, &tables)])
        })
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
        let (rep, attn) = (&self.shard.rep, &self.shard.attn);
        let n = tokens.len();
        let mut x = Matrix::zeros(n, rep.cfg.hidden_size);
        for (r, &tok) in tokens.iter().enumerate() {
            rep.embed_token(tok, r, x.row_mut(r));
        }
        for (lw, norms) in self.shard.layers.iter().zip(&rep.norms) {
            let xn = rep.normed(&x, &norms[0]);
            let mut q = matmul_ref(&xn, &lw.wq);
            let mut k = matmul_ref(&xn, &lw.wk);
            let v = matmul_ref(&xn, &lw.wv);
            if rep.cfg.position_embedding == PositionEmbedding::Rotary {
                for r in 0..n {
                    apply_rope(q.row_mut(r), attn.num_heads, attn.head_dim, r);
                    apply_rope(k.row_mut(r), attn.num_kv_heads, attn.head_dim, r);
                }
            }
            let attn_out = naive_attention(attn, &q, &k, &v);
            add_rows(&mut x, &matmul_ref(&attn_out, &lw.wo));
            let xn = rep.normed(&x, &norms[1]);
            add_rows(&mut x, &mlp(rep.cfg.activation, &lw.mlp, &xn, matmul_ref));
        }
        let mut hidden = Matrix::from_vec(1, rep.cfg.hidden_size, x.row(n - 1).to_vec());
        rep.normalize(hidden.row_mut(0), &rep.final_norm);
        matmul_ref(&hidden, &self.shard.lm_head).row(0).to_vec()
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

    /// What a case runs before the pass it compares.
    type Setup<'a> = dyn Fn(&TinyModel, &mut PagedKvCache, &mut [BlockTable]) + 'a;

    /// Each sequence's last logits and its K/V in every layer, block by
    /// block, as bits, after `setup` and then its query `segments`: in one
    /// pass if `pruned`, otherwise one row per pass, which narrows nothing
    /// since each row is its pass's last.
    fn run_pass(
        cfg: &ModelConfig,
        setup: &Setup<'_>,
        queries: &[Vec<SegmentInput>],
        pruned: bool,
    ) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
        let bits = |row: &[f32]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let model = TinyModel::new_random(cfg, 11);
        let mut cache = PagedKvCache::new(model.kv_layout(4), cfg.num_layers, 64);
        let mut tables = vec![BlockTable::new(4); queries.len()];
        setup(&model, &mut cache, &mut tables);
        let logits = if pruned {
            let mut batch: Vec<SeqInput<'_>> = (tables.iter_mut().zip(queries))
                .map(|(table, q)| SeqInput {
                    segments: q.clone(),
                    table,
                })
                .collect();
            let out = model.forward(&mut cache, &mut batch).unwrap();
            (0..queries.len()).map(|i| bits(out.row(i))).collect()
        } else {
            let mut logits = Vec::new();
            for (table, q) in tables.iter_mut().zip(queries) {
                let mut last = Vec::new();
                for s in q {
                    for (&tok, pos) in s.tokens.iter().zip(s.start_pos..) {
                        let row = SeqInput {
                            segments: vec![SegmentInput {
                                tokens: vec![tok],
                                start_pos: pos,
                            }],
                            table: &mut *table,
                        };
                        let out = model.forward(&mut cache, &mut [row]).unwrap();
                        last = bits(out.row(0));
                    }
                }
                logits.push(last);
            }
            logits
        };
        let kv = tables.iter().map(|t| {
            let blocks = (0..t.len().div_ceil(4)).map(|b| cache.read_block(t.block_at(b)));
            bits(&blocks.flatten().collect::<Vec<_>>())
        });
        (logits, kv.collect())
    }

    /// A pass narrows its last layer to each sequence's last row, yet
    /// leaves exactly the K/V bytes and logits of unnarrowed work: a
    /// prefill, a prefill led by a recomputed dropped prefix (paper
    /// Figure 8), and a decode-and-prefill batch of two sequences, on
    /// both families.
    #[test]
    fn pruned_pass_leaves_unpruned_kv_and_logits() {
        let tok = |i: usize, pos: usize| ((i * 37 + pos * 11 + 5) % 128) as u32;
        let seg = |i: usize, span: std::ops::Range<usize>| SegmentInput {
            start_pos: span.start,
            tokens: span.map(|pos| tok(i, pos)).collect(),
        };
        let prefill = |model: &TinyModel, cache: &mut PagedKvCache, table: &mut BlockTable, len| {
            let segments = vec![seg(0, 0..len)];
            let row = SeqInput { segments, table };
            model.forward(cache, &mut [row]).unwrap();
        };
        let none = |_: &TinyModel, _: &mut PagedKvCache, _: &mut [BlockTable]| {};
        let dropped = |model: &TinyModel, cache: &mut PagedKvCache, t: &mut [BlockTable]| {
            prefill(model, cache, &mut t[0], 16);
            t[0].free_blocks(cache, 0..2);
            t[0].refill(cache, 0..2).unwrap();
        };
        let decoding = |model: &TinyModel, cache: &mut PagedKvCache, t: &mut [BlockTable]| {
            prefill(model, cache, &mut t[0], 5);
        };
        let cases: [(&str, &Setup<'_>, _); 3] = [
            ("prefill", &none, vec![vec![seg(0, 0..11)]]),
            (
                "recompute",
                &dropped,
                vec![vec![seg(0, 0..8), seg(0, 16..19)]],
            ),
            (
                "two sequences",
                &decoding,
                vec![vec![seg(0, 5..8)], vec![seg(1, 0..6)]],
            ),
        ];
        for cfg in [ModelConfig::tiny_llama(), ModelConfig::tiny_opt()] {
            for (name, setup, queries) in &cases {
                let pruned = run_pass(&cfg, *setup, queries, true);
                let unpruned = run_pass(&cfg, *setup, queries, false);
                assert!(pruned.1 == unpruned.1, "{} {name}: K/V bytes", cfg.name);
                assert!(pruned.0 == unpruned.0, "{} {name}: logits", cfg.name);
            }
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
