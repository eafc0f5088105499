//! Pensieve's multi-token attention kernel over a paged KV cache (§4.4).
//!
//! Generalizes single-token PagedAttention to *multiple* query tokens per
//! request: the underlying computation becomes two matrix-matrix products
//! (paper Figure 9, right) with causal masking fused into the kernel, and
//! the batched form accepts a **ragged** query tensor — every request may
//! contribute a different number of query tokens, including 1, which is
//! exactly how Pensieve unifies prefill and generation in one invocation
//! (§4.4.1).
//!
//! The kernel streams each sequence's paged context exactly **once**,
//! updating the online-softmax state of every visible query row as each
//! KV block is visited. Reusing each loaded K/V row across all query
//! tokens is the CPU analogue of the data-reuse / tiling opportunity the
//! extra query dimension gives the GPU kernel; the multi-round straw-man
//! ([`super::multiround`]) forfeits it by re-walking the context per token.
//! Here the reuse is also the SIMD width: a KV head's (query row, grouped
//! head) pairs are *lanes*, and each K/V row folds into 8 lanes at once
//! (4 when the head has at most 4, as a decode row does) through one
//! scorer call and one lane-wide `exp`.
//!
//! Two things define the output bits. Per lane, the op order of
//! `OnlineSoftmax::update`: scores in ascending context position, each
//! in [`dot`]'s order; a rescale by `exp(m - score)` only when the score
//! raises the running max; then `p = exp(score - m)` into the sum and
//! `p * v` into each accumulator. And the crate's own `exp`, which every
//! fused kernel and its scalar reference share, so [`paged_multi_token`]
//! equals [`paged_multi_token_ref`] bit for bit.

use std::array;

use super::{dot, exp, exp_lanes, AttnConfig, AttnSeq, OnlineSoftmax};
use crate::ops::dot_lanes;
use crate::paged::KvLayerView;
use crate::tensor::Matrix;

fn check_batch(cfg: &AttnConfig, q: &Matrix, seqs: &[AttnSeq<'_>]) {
    assert_eq!(q.cols(), cfg.q_width());
    for seq in seqs {
        seq.check();
        assert!(
            seq.q_start + seq.q_len <= q.rows(),
            "query range beyond batch tensor"
        );
    }
}

/// Batched multi-token causal attention over paged KV.
///
/// `q` is the batch's concatenated query matrix
/// (`[total_q_tokens, num_heads * head_dim]`); each [`AttnSeq`] locates one
/// (sub-)request's rows and context. Returns a matrix of the same shape as
/// `q`, rows aligned with it.
///
/// Sub-requests sharing a block table (dropped-token recomputation,
/// §4.3.4) are simply passed as separate `seqs` entries; no copying occurs.
///
/// # Panics
///
/// Panics if any sequence fails [`AttnSeq::check`], query ranges exceed
/// `q`, or widths disagree with `cfg`.
///
/// # Examples
///
/// ```
/// use pensieve_kernels::attention::multi::paged_multi_token;
/// use pensieve_kernels::{AttnConfig, AttnSeq, BlockTable, KvLayout, Matrix, PagedKvCache};
///
/// let cfg = AttnConfig::new(2, 1, 4); // GQA: 2 query heads share 1 KV head.
/// let layout = KvLayout { num_kv_heads: 1, head_dim: 4, block_size: 2 };
/// let mut pool = PagedKvCache::new(layout, 1, 4);
/// let mut table = BlockTable::new(2);
/// for i in 0..5 {
///     let (b, s) = table.append_token(&mut pool).unwrap();
///     pool.write_token(0, b, s, &[i as f32; 4], &[1.0; 4]);
/// }
/// // A 2-token prefill chunk at the end of the 5-token context.
/// let q = Matrix::zeros(2, cfg.q_width());
/// let seq = AttnSeq { q_start: 0, q_len: 2, context_len: 5, table: &table };
/// let out = paged_multi_token(&cfg, &q, &pool.layer(0), &[seq]);
/// // Zero queries => uniform attention => output is the mean of V rows.
/// assert!((out[(0, 0)] - 1.0).abs() < 1e-6);
/// ```
#[must_use]
pub fn paged_multi_token(
    cfg: &AttnConfig,
    q: &Matrix,
    layer: &KvLayerView<'_>,
    seqs: &[AttnSeq<'_>],
) -> Matrix {
    check_batch(cfg, q, seqs);
    let mut out = Matrix::zeros(q.rows(), cfg.q_width());
    for seq in seqs {
        let local = attend_seq(cfg, q, layer, seq);
        merge_seq(seq, &local, &mut out);
    }
    out
}

/// Scalar reference for [`paged_multi_token`]: per-token `dot` calls, no
/// slab access, no score batching. Kept as the accumulation-order-defining
/// implementation the blocked and parallel kernels are tested against
/// bit-for-bit.
///
/// # Panics
///
/// Same conditions as [`paged_multi_token`].
#[must_use]
pub fn paged_multi_token_ref(
    cfg: &AttnConfig,
    q: &Matrix,
    layer: &KvLayerView<'_>,
    seqs: &[AttnSeq<'_>],
) -> Matrix {
    check_batch(cfg, q, seqs);
    let mut out = Matrix::zeros(q.rows(), cfg.q_width());
    for seq in seqs {
        attend_one_seq_ref(cfg, q, layer, seq, &mut out);
    }
    out
}

/// Minimum per-partition work (in score-accumulate units, see
/// [`attn_work_units`]) below which [`paged_multi_token_pool`] stays
/// serial. Calibrated on the committed bench shapes: a 32-way generation
/// batch at 1 k context (one query token per sequence, ~17 M units total)
/// splits into partitions far below this bound and used to *regress* at
/// 4 threads once dispatch overhead was charged, while a 256-token
/// prefill chunk at the same context (~134 M units) clears it at every
/// bench thread count. `tests::generation_shape_stays_serial` pins both
/// decisions.
pub const ATTN_MIN_PART_UNITS: u64 = 16 * 1024 * 1024;

/// Estimated work of an attention batch: one unit per (query row,
/// context position, output column) triple, summed over sequences. A
/// deliberately coarse FLOP proxy — relative cost across batch shapes is
/// all the serial-fallback decision needs.
#[must_use]
pub fn attn_work_units(cfg: &AttnConfig, seqs: &[AttnSeq<'_>]) -> u64 {
    seqs.iter()
        .map(|s| s.q_len as u64 * s.context_len as u64 * cfg.q_width() as u64)
        .sum()
}

/// [`paged_multi_token`] with its per-sequence partitions fanned out over
/// a persistent [`Pool`] — the model layers pass one handle so every
/// kernel call in an engine shares one set of parked workers.
///
/// Each partition is one (sub-)request: a disjoint band of output rows,
/// computed independently into a partition-local buffer by the same
/// blocked kernel, then merged back **sequentially in sequence order** —
/// so the result is bit-identical to the serial kernel (and to
/// [`paged_multi_token_ref`]) at every pool width, including when two
/// sub-requests name overlapping query rows (last writer wins in both).
///
/// Serial fallback: when the per-partition share of the batch's
/// estimated work ([`attn_work_units`]` / threads`) falls below
/// [`ATTN_MIN_PART_UNITS`], the batch runs on the calling thread. Small
/// generation batches (one query token per sequence) land under the
/// threshold, so they never pay partition dispatch; prefill chunks clear
/// it and fan out. Both paths are bit-identical, so the decision affects
/// time only.
///
/// [`Pool`]: crossbeam::pool::Pool
///
/// # Panics
///
/// Same conditions as [`paged_multi_token`].
#[must_use]
pub fn paged_multi_token_pool(
    cfg: &AttnConfig,
    q: &Matrix,
    layer: &KvLayerView<'_>,
    seqs: &[AttnSeq<'_>],
    pool: &crossbeam::pool::Pool,
) -> Matrix {
    let threads = pool.threads();
    if threads <= 1
        || seqs.is_empty()
        || attn_work_units(cfg, seqs) / (threads as u64) < ATTN_MIN_PART_UNITS
    {
        return paged_multi_token(cfg, q, layer, seqs);
    }
    paged_multi_token_pool_ungated(cfg, q, layer, seqs, pool)
}

/// [`paged_multi_token_pool`] without the work-size gate: always fans
/// one partition per sequence out over the pool (inline when the pool
/// is serial). The cross-width bit-identity property tests drive this
/// directly so batches far below [`ATTN_MIN_PART_UNITS`] still exercise
/// the partitioned merge; production callers want the gated entry.
///
/// [`Pool`]: crossbeam::pool::Pool
///
/// # Panics
///
/// Same conditions as [`paged_multi_token`].
#[must_use]
pub fn paged_multi_token_pool_ungated(
    cfg: &AttnConfig,
    q: &Matrix,
    layer: &KvLayerView<'_>,
    seqs: &[AttnSeq<'_>],
    pool: &crossbeam::pool::Pool,
) -> Matrix {
    check_batch(cfg, q, seqs);
    let locals = pool.map_partitions(seqs.len(), |si| attend_seq(cfg, q, layer, &seqs[si]));
    let mut out = Matrix::zeros(q.rows(), cfg.q_width());
    for (si, local) in locals.iter().enumerate() {
        merge_seq(&seqs[si], local, &mut out);
    }
    out
}

/// Computes one sequence partition: the attention output of `seq`'s query
/// rows across **all** heads, returned as a `[q_len, q_width]`
/// partition-local matrix.
///
/// This is the blocked inner kernel: the context is streamed **once**,
/// each KV block read as a contiguous `[block_size, kv_width]` slab whose
/// every row serves all KV heads before the walk moves on. A KV head's
/// `q_len * group` (query row, grouped head) pairs are lanes in chunks of
/// 8, or of 4 when the head has at most 4 lanes; each chunk's [`Tile`]
/// holds its transposed query pack and its softmax states as lane arrays.
/// Per slot and KV head, [`fold`] scores each chunk that sees the slot
/// with [`dot_lanes`] and folds the K/V row into its lanes. Each lane
/// receives its scores in ascending-`t` order, each computed in [`dot`]'s
/// order and folded with `OnlineSoftmax::update`'s operations, so
/// outputs are bit-identical to the scalar reference.
fn attend_seq(cfg: &AttnConfig, q: &Matrix, layer: &KvLayerView<'_>, seq: &AttnSeq<'_>) -> Matrix {
    if seq.q_len * cfg.group_size() <= 4 {
        attend_lanes::<4>(cfg, q, layer, seq)
    } else {
        attend_lanes::<8>(cfg, q, layer, seq)
    }
}

/// One chunk of `L` lanes, as rows of lane arrays: `0..d` the transposed
/// query pack (`[i][l]` is element `i` of lane `l`'s query), `d..2d` the
/// accumulators (`[i][l]` is lane `l`'s output element `i`), then the
/// running max and the running sum.
type Tile<const L: usize> = [[f32; L]];

/// [`attend_seq`] at lane width `L`.
fn attend_lanes<const L: usize>(
    cfg: &AttnConfig,
    q: &Matrix,
    layer: &KvLayerView<'_>,
    seq: &AttnSeq<'_>,
) -> Matrix {
    let d = cfg.head_dim;
    let tf = layer.layout().token_floats();
    let block_size = layer.layout().block_size;
    let num_blocks = seq.context_len.div_ceil(block_size);
    let group = cfg.group_size();
    // Context position of query row j is offset + j.
    let offset = seq.context_len - seq.q_len;

    // Lane `j*group + g` of KV head `kvh` is query row j, head
    // `kvh*group + g`: ordered by j, so the lanes that see a position are
    // a suffix. The last chunk's pad lanes hold zero queries; they fold
    // like any lane and are never read.
    let chunks = (seq.q_len * group).div_ceil(L);
    let rows = 2 * d + 2;
    let mut tiles = vec![[0.0f32; L]; cfg.num_kv_heads * chunks * rows];
    for tile in tiles.chunks_exact_mut(rows) {
        tile[2 * d] = [f32::NEG_INFINITY; L];
    }
    // (first row of the lane's tile, its index in the chunk)
    let lane = |kvh: usize, n: usize| ((kvh * chunks + n / L) * rows, n % L);
    for j in 0..seq.q_len {
        let qrow = q.row(seq.q_start + j);
        for h in 0..cfg.num_heads {
            let (base, l) = lane(h / group, j * group + h % group);
            for (i, &v) in qrow[h * d..(h + 1) * d].iter().enumerate() {
                tiles[base + i][l] = v;
            }
        }
    }

    for bi in 0..num_blocks {
        let b = seq.table.block_at(bi);
        let kslab = layer.k_block(b);
        let vslab = layer.v_block(b);
        let t0 = bi * block_size;
        let slots = block_size.min(seq.context_len - t0);
        for slot in 0..slots {
            // The first lane that sees position t: the least j with
            // offset + j >= t.
            let lo = (t0 + slot).saturating_sub(offset) * group;
            let ktoken = &kslab[slot * tf..(slot + 1) * tf];
            let vtoken = &vslab[slot * tf..(slot + 1) * tf];
            for kvh in 0..cfg.num_kv_heads {
                let krow = &ktoken[kvh * d..(kvh + 1) * d];
                let vrow = &vtoken[kvh * d..(kvh + 1) * d];
                for c in lo / L..chunks {
                    let base = (kvh * chunks + c) * rows;
                    let first = lo.saturating_sub(c * L);
                    fold(&mut tiles[base..base + rows], krow, vrow, cfg.scale, first);
                }
            }
        }
    }

    let mut local = Matrix::zeros(seq.q_len, cfg.q_width());
    for j in 0..seq.q_len {
        let orow = local.row_mut(j);
        for h in 0..cfg.num_heads {
            let (base, l) = lane(h / group, j * group + h % group);
            // `OnlineSoftmax::finish`'s operations.
            let inv = 1.0 / tiles[base + 2 * d + 1][l];
            for (o, acc) in orow[h * d..(h + 1) * d].iter_mut().zip(&tiles[base + d..]) {
                *o = acc[l] * inv;
            }
        }
    }
    local
}

/// Folds one K/V row into lanes `first..L` of a chunk: each lane gets
/// `OnlineSoftmax::update`'s operations on its state. With every lane
/// visible the scores, maxima and `exp`s run across all lanes at once;
/// the rescale by `exp(m - m_new)`, which is exactly `1` for a lane whose
/// max did not grow, runs only when some lane's did, fused with the
/// accumulation (`a * corr + p * v` rounds as the reference's two passes
/// do). Lanes on the causal edge (`first > 0`) fold one at a time.
#[inline]
fn fold<const L: usize>(tile: &mut Tile<L>, krow: &[f32], vrow: &[f32], scale: f32, first: usize) {
    let d = krow.len();
    let (qt, states) = tile.split_at_mut(d);
    let (acc, ms) = states.split_at_mut(d);
    // A tile has `2 * d + 2` rows: `ms` is the max row and the sum row.
    let [m, s] = ms else {
        return;
    };
    let raw = dot_lanes(krow, qt);
    let sc: [f32; L] = array::from_fn(|l| raw[l] * scale);
    if first > 0 {
        for l in first..L {
            if sc[l] > m[l] {
                let corr = exp(m[l] - sc[l]);
                s[l] *= corr;
                for a in acc.iter_mut() {
                    a[l] *= corr;
                }
                m[l] = sc[l];
            }
            let p = exp(sc[l] - m[l]);
            s[l] += p;
            for (a, &v) in acc.iter_mut().zip(vrow) {
                a[l] += p * v;
            }
        }
        return;
    }
    let m_new: [f32; L] = array::from_fn(|l| if sc[l] > m[l] { sc[l] } else { m[l] });
    let p = exp_lanes::<L>(array::from_fn(|l| sc[l] - m_new[l]));
    if m_new == *m {
        for l in 0..L {
            s[l] += p[l];
        }
        for_rows(acc, vrow, |a, v| {
            for l in 0..L {
                a[l] += p[l] * v;
            }
        });
    } else {
        let corr = exp_lanes::<L>(array::from_fn(|l| m[l] - m_new[l]));
        for l in 0..L {
            s[l] = s[l] * corr[l] + p[l];
        }
        for_rows(acc, vrow, |a, v| {
            for l in 0..L {
                a[l] = a[l] * corr[l] + p[l] * v;
            }
        });
        *m = m_new;
    }
}

/// Runs `f` on every accumulator row with its V element. Rows go in
/// blocks of four, so the loop the compiler sees has four rows' lanes as
/// its body and vectorizes each row across its lanes, instead of taking
/// one lane of four rows per vector with shuffles.
#[inline(always)]
fn for_rows<const L: usize>(acc: &mut [[f32; L]], vrow: &[f32], f: impl Fn(&mut [f32; L], f32)) {
    let (blocks, rest) = acc.as_chunks_mut::<4>();
    let (vblocks, vrest) = vrow.as_chunks::<4>();
    for (rows, vs) in blocks.iter_mut().zip(vblocks) {
        for (a, &v) in rows.iter_mut().zip(vs) {
            f(a, v);
        }
    }
    for (a, &v) in rest.iter_mut().zip(vrest) {
        f(a, v);
    }
}

/// Writes one partition-local result into its band of output rows.
fn merge_seq(seq: &AttnSeq<'_>, local: &Matrix, out: &mut Matrix) {
    for j in 0..seq.q_len {
        out.row_mut(seq.q_start + j).copy_from_slice(local.row(j));
    }
}

/// Streams one sequence's context, updating all its query rows (scalar
/// reference path).
fn attend_one_seq_ref(
    cfg: &AttnConfig,
    q: &Matrix,
    layer: &KvLayerView<'_>,
    seq: &AttnSeq<'_>,
    out: &mut Matrix,
) {
    let d = cfg.head_dim;
    let block_size = layer.layout().block_size;
    let num_blocks = seq.context_len.div_ceil(block_size);
    // Context position of query row j is offset + j.
    let offset = seq.context_len - seq.q_len;

    // Online-softmax state for every (query row, query head).
    let mut states: Vec<OnlineSoftmax> = (0..seq.q_len * cfg.num_heads)
        .map(|_| OnlineSoftmax::new(d))
        .collect();

    let mut t = 0;
    'outer: for bi in 0..num_blocks {
        let b = seq.table.block_at(bi);
        for slot in 0..block_size {
            if t >= seq.context_len {
                break 'outer;
            }
            // Query rows that see position t: offset + j >= t.
            let j_lo = t.saturating_sub(offset);
            if j_lo < seq.q_len {
                for kvh in 0..cfg.num_kv_heads {
                    let krow = layer.k_head(b, slot, kvh);
                    let vrow = layer.v_head(b, slot, kvh);
                    let h_lo = kvh * cfg.group_size();
                    let h_hi = h_lo + cfg.group_size();
                    // One K/V load serves every visible query row and every
                    // query head in the GQA group.
                    for j in j_lo..seq.q_len {
                        let qrow = q.row(seq.q_start + j);
                        for h in h_lo..h_hi {
                            let score = dot(&qrow[h * d..(h + 1) * d], krow) * cfg.scale;
                            states[j * cfg.num_heads + h].update(score, vrow);
                        }
                    }
                }
            }
            t += 1;
        }
    }

    for j in 0..seq.q_len {
        let orow = out.row_mut(seq.q_start + j);
        for h in 0..cfg.num_heads {
            states[j * cfg.num_heads + h].finish(&mut orow[h * d..(h + 1) * d]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::naive::naive_attention;
    use super::*;
    use crate::paged::{gather_contiguous, BlockTable, KvLayout, PagedKvCache};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn build_context(rng: &mut StdRng, pool: &mut PagedKvCache, tokens: usize) -> BlockTable {
        let mut table = BlockTable::new(pool.layout().block_size);
        let tf = pool.layout().token_floats();
        for _ in 0..tokens {
            let (b, s) = table.append_token(pool).unwrap();
            let k: Vec<f32> = (0..tf).map(|_| rng.random_range(-1.0..1.0)).collect();
            let v: Vec<f32> = (0..tf).map(|_| rng.random_range(-1.0..1.0)).collect();
            pool.write_token(0, b, s, &k, &v);
        }
        table
    }

    fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|_| rng.random_range(-1.0..1.0))
                .collect(),
        )
    }

    /// Pins the serial-fallback decision on `bench_kernels`' full-run
    /// shapes (32 sequences, 1 k context, 8 heads x 64 dim): the
    /// one-query-per-sequence generation batch must stay serial at pool
    /// widths 2/4/8 — parallel dispatch used to *regress* it — while the
    /// 8-query prefill batch must fan out.
    #[test]
    fn generation_shape_stays_serial() {
        let cfg = AttnConfig::new(8, 8, 64); // q_width 512, as benched
        let table = BlockTable::new(16);
        let gen: Vec<AttnSeq<'_>> = (0..32)
            .map(|i| AttnSeq {
                q_start: i,
                q_len: 1,
                context_len: 1024,
                table: &table,
            })
            .collect();
        let gen_units = attn_work_units(&cfg, &gen);
        let prefill: Vec<AttnSeq<'_>> = (0..32)
            .map(|i| AttnSeq {
                q_start: i * 8,
                q_len: 8,
                context_len: 1024,
                table: &table,
            })
            .collect();
        let prefill_units = attn_work_units(&cfg, &prefill);
        for threads in [2u64, 4, 8] {
            assert!(
                gen_units / threads < ATTN_MIN_PART_UNITS,
                "generation batch must fall back to serial at {threads} threads"
            );
            assert!(
                prefill_units / threads >= ATTN_MIN_PART_UNITS,
                "prefill batch must fan out at {threads} threads"
            );
        }
    }

    /// A batch under the work threshold must never touch the pool (zero
    /// dispatch overhead — the pool's task counter stays put) and must
    /// still produce the serial kernel's exact bits.
    #[test]
    fn small_batches_never_touch_the_pool() {
        let mut rng = StdRng::seed_from_u64(29);
        let cfg = AttnConfig::new(2, 2, 4);
        let layout = KvLayout {
            num_kv_heads: 2,
            head_dim: 4,
            block_size: 4,
        };
        let mut kv = PagedKvCache::new(layout, 1, 32);
        let tables: Vec<BlockTable> = (0..4)
            .map(|_| build_context(&mut rng, &mut kv, 12))
            .collect();
        let q = random_matrix(&mut rng, 4, cfg.q_width());
        let seqs: Vec<AttnSeq<'_>> = tables
            .iter()
            .enumerate()
            .map(|(i, table)| AttnSeq {
                q_start: i,
                q_len: 1,
                context_len: 12,
                table,
            })
            .collect();
        let pool = crossbeam::pool::Pool::new(4);
        let before = pool.stats().tasks_total;
        let got = paged_multi_token_pool(&cfg, &q, &kv.layer(0), &seqs, &pool);
        assert_eq!(
            pool.stats().tasks_total,
            before,
            "a sub-threshold batch must bypass pool dispatch entirely"
        );
        let serial = paged_multi_token(&cfg, &q, &kv.layer(0), &seqs);
        assert_eq!(got, serial, "fallback is bit-identical");
    }

    #[test]
    fn matches_naive_across_shapes() {
        let mut rng = StdRng::seed_from_u64(21);
        // (q_len, ctx, heads, kv_heads, d, block_size)
        for &(q_len, ctx, heads, kv_heads, d, bs) in &[
            (1usize, 7usize, 2usize, 2usize, 4usize, 4usize),
            (4, 4, 2, 2, 4, 4),    // Pure self-attention prefill.
            (3, 19, 4, 1, 8, 4),   // GQA, ragged block tail.
            (8, 40, 8, 2, 16, 16), // Paper micro-bench shape (scaled).
            (16, 16, 1, 1, 2, 2),
        ] {
            let cfg = AttnConfig::new(heads, kv_heads, d);
            let layout = KvLayout {
                num_kv_heads: kv_heads,
                head_dim: d,
                block_size: bs,
            };
            let mut pool = PagedKvCache::new(layout, 1, ctx.div_ceil(bs) + 2);
            let table = build_context(&mut rng, &mut pool, ctx);
            let q = random_matrix(&mut rng, q_len, cfg.q_width());
            let seq = AttnSeq {
                q_start: 0,
                q_len,
                context_len: ctx,
                table: &table,
            };
            let got = paged_multi_token(&cfg, &q, &pool.layer(0), &[seq]);
            let (k, v) = gather_contiguous(&pool.layer(0), &table, ctx);
            let expect = naive_attention(&cfg, &q, &k, &v);
            assert!(
                got.max_abs_diff(&expect) < 1e-5,
                "mismatch q={q_len} ctx={ctx} h={heads}/{kv_heads} d={d} bs={bs}"
            );
        }
    }

    /// A ragged batch mixing prefill and decode requests (paper Figure 6).
    #[test]
    fn ragged_batch_mixing_prefill_and_decode() {
        let mut rng = StdRng::seed_from_u64(22);
        let cfg = AttnConfig::new(4, 2, 8);
        let layout = KvLayout {
            num_kv_heads: 2,
            head_dim: 8,
            block_size: 4,
        };
        let mut pool = PagedKvCache::new(layout, 1, 64);
        // Request 0: decode, 1 query token, context 9 (spans chunks 3,1 in
        // the figure; physical scatter comes free from allocation order).
        let t0 = build_context(&mut rng, &mut pool, 9);
        // Request 1: prefill, 5 query tokens, context 20.
        let t1 = build_context(&mut rng, &mut pool, 20);
        let q = random_matrix(&mut rng, 6, cfg.q_width());
        let seqs = [
            AttnSeq {
                q_start: 0,
                q_len: 1,
                context_len: 9,
                table: &t0,
            },
            AttnSeq {
                q_start: 1,
                q_len: 5,
                context_len: 20,
                table: &t1,
            },
        ];
        let got = paged_multi_token(&cfg, &q, &pool.layer(0), &seqs);

        // Check each request against naive on its own gathered context.
        let (k0, v0) = gather_contiguous(&pool.layer(0), &t0, 9);
        let q0 = Matrix::from_vec(1, cfg.q_width(), q.row(0).to_vec());
        let e0 = naive_attention(&cfg, &q0, &k0, &v0);
        for c in 0..cfg.q_width() {
            assert!((got[(0, c)] - e0[(0, c)]).abs() < 1e-5);
        }
        let (k1, v1) = gather_contiguous(&pool.layer(0), &t1, 20);
        let mut q1 = Matrix::zeros(5, cfg.q_width());
        for j in 0..5 {
            q1.row_mut(j).copy_from_slice(q.row(1 + j));
        }
        let e1 = naive_attention(&cfg, &q1, &k1, &v1);
        for j in 0..5 {
            for c in 0..cfg.q_width() {
                assert!((got[(1 + j, c)] - e1[(j, c)]).abs() < 1e-5);
            }
        }
    }

    /// Sub-requests sharing one context (dropped-token recomputation,
    /// Figure 8d): the recomputed leading range attends to itself, the new
    /// prompt attends to the entire context — results must equal a single
    /// contiguous-query request covering both ranges.
    #[test]
    fn sub_requests_share_context() {
        let mut rng = StdRng::seed_from_u64(23);
        let cfg = AttnConfig::new(2, 2, 4);
        let layout = KvLayout {
            num_kv_heads: 2,
            head_dim: 4,
            block_size: 4,
        };
        // Context: 6 dropped-and-recomputed tokens, 8 cached tokens,
        // 5 new prompt tokens -> 19 total.
        let (dropped, cached, prompt) = (6usize, 8usize, 5usize);
        let ctx = dropped + cached + prompt;
        let mut pool = PagedKvCache::new(layout, 1, 16);
        let table = build_context(&mut rng, &mut pool, ctx);
        // Query rows: the dropped range then the prompt range, concatenated
        // (Figure 8a). The middle (cached) range contributes no queries.
        let q = random_matrix(&mut rng, dropped + prompt, cfg.q_width());
        let seqs = [
            AttnSeq {
                q_start: 0,
                q_len: dropped,
                context_len: dropped,
                table: &table,
            },
            AttnSeq {
                q_start: dropped,
                q_len: prompt,
                context_len: ctx,
                table: &table,
            },
        ];
        let got = paged_multi_token(&cfg, &q, &pool.layer(0), &seqs);

        let (k, v) = gather_contiguous(&pool.layer(0), &table, ctx);
        // Expected: dropped range self-attention over positions 0..dropped.
        let kd = Matrix::from_vec(
            dropped,
            cfg.kv_width(),
            (0..dropped).flat_map(|t| k.row(t).to_vec()).collect(),
        );
        let vd = Matrix::from_vec(
            dropped,
            cfg.kv_width(),
            (0..dropped).flat_map(|t| v.row(t).to_vec()).collect(),
        );
        let qd = Matrix::from_vec(
            dropped,
            cfg.q_width(),
            (0..dropped).flat_map(|j| q.row(j).to_vec()).collect(),
        );
        let ed = naive_attention(&cfg, &qd, &kd, &vd);
        for j in 0..dropped {
            for c in 0..cfg.q_width() {
                assert!((got[(j, c)] - ed[(j, c)]).abs() < 1e-5, "dropped row {j}");
            }
        }
        // Expected: prompt range attends to the whole context.
        let qp = Matrix::from_vec(
            prompt,
            cfg.q_width(),
            (0..prompt)
                .flat_map(|j| q.row(dropped + j).to_vec())
                .collect(),
        );
        let ep = naive_attention(&cfg, &qp, &k, &v);
        for j in 0..prompt {
            for c in 0..cfg.q_width() {
                assert!(
                    (got[(dropped + j, c)] - ep[(j, c)]).abs() < 1e-5,
                    "prompt row {j}"
                );
            }
        }
    }

    /// §4.4.2: tensor parallelism shards KV heads across workers; each
    /// worker runs the same kernel on its shard and the concatenated
    /// outputs equal the unsharded computation. (Sharding is along the
    /// feature dimension, so it is invisible to eviction decisions.)
    #[test]
    fn head_sharding_matches_unsharded() {
        let mut rng = StdRng::seed_from_u64(24);
        let heads = 8usize;
        let kv_heads = 4usize;
        let d = 8usize;
        let shards = 2usize;
        let (q_len, ctx) = (5usize, 21usize);
        let cfg = AttnConfig::new(heads, kv_heads, d);
        let layout = KvLayout {
            num_kv_heads: kv_heads,
            head_dim: d,
            block_size: 4,
        };
        let mut pool = PagedKvCache::new(layout, 1, 8);
        let table = build_context(&mut rng, &mut pool, ctx);
        let q = random_matrix(&mut rng, q_len, cfg.q_width());
        let seq = AttnSeq {
            q_start: 0,
            q_len,
            context_len: ctx,
            table: &table,
        };
        let full = paged_multi_token(&cfg, &q, &pool.layer(0), &[seq]);

        // Per shard: slice this shard's query heads and KV heads into
        // shard-local pools/matrices and run the same kernel.
        let shard_cfg = AttnConfig::new(heads / shards, kv_heads / shards, d);
        let shard_layout = KvLayout {
            num_kv_heads: kv_heads / shards,
            head_dim: d,
            block_size: 4,
        };
        for shard in 0..shards {
            let mut spool = PagedKvCache::new(shard_layout, 1, 8);
            let mut stable = BlockTable::new(4);
            for t in 0..ctx {
                let (b, s) = stable.append_token(&mut spool).unwrap();
                let (fb, fs) = table.position(t);
                let view = pool.layer(0);
                let mut k = Vec::new();
                let mut v = Vec::new();
                for h in 0..kv_heads / shards {
                    k.extend_from_slice(view.k_head(fb, fs, shard * kv_heads / shards + h));
                    v.extend_from_slice(view.v_head(fb, fs, shard * kv_heads / shards + h));
                }
                spool.write_token(0, b, s, &k, &v);
            }
            let hpw = heads / shards; // Query heads per worker.
            let mut sq = Matrix::zeros(q_len, shard_cfg.q_width());
            for j in 0..q_len {
                let src = q.row(j);
                sq.row_mut(j)
                    .copy_from_slice(&src[shard * hpw * d..(shard + 1) * hpw * d]);
            }
            let sseq = AttnSeq {
                q_start: 0,
                q_len,
                context_len: ctx,
                table: &stable,
            };
            let out = paged_multi_token(&shard_cfg, &sq, &spool.layer(0), &[sseq]);
            for j in 0..q_len {
                for c in 0..shard_cfg.q_width() {
                    let full_c = shard * hpw * d + c;
                    assert!(
                        (out[(j, c)] - full[(j, full_c)]).abs() < 1e-5,
                        "shard {shard} row {j} col {c} diverged"
                    );
                }
            }
        }
    }

    /// The blocked kernel and its parallel fan-out must be *bit-identical*
    /// to the scalar reference, across ragged batches, GQA ratios, block
    /// sizes, and the shared-table sub-request layout (§4.3.4).
    #[test]
    fn blocked_and_parallel_bit_identical_to_ref() {
        let mut rng = StdRng::seed_from_u64(25);
        for &(heads, kv_heads, d, bs) in &[
            (4usize, 2usize, 8usize, 4usize),
            (8, 2, 16, 16),
            (6, 1, 4, 8),
            (3, 3, 32, 2),
        ] {
            let cfg = AttnConfig::new(heads, kv_heads, d);
            let layout = KvLayout {
                num_kv_heads: kv_heads,
                head_dim: d,
                block_size: bs,
            };
            let mut pool = PagedKvCache::new(layout, 1, 128);
            // Ragged batch: decode, prefill chunk, and two sub-requests
            // sharing one table (dropped-token recomputation).
            let t0 = build_context(&mut rng, &mut pool, 9);
            let t1 = build_context(&mut rng, &mut pool, 33);
            let shared = build_context(&mut rng, &mut pool, 21);
            let (dropped, prompt) = (6usize, 4usize);
            let q = random_matrix(&mut rng, 1 + 8 + dropped + prompt, cfg.q_width());
            let seqs = [
                AttnSeq {
                    q_start: 0,
                    q_len: 1,
                    context_len: 9,
                    table: &t0,
                },
                AttnSeq {
                    q_start: 1,
                    q_len: 8,
                    context_len: 33,
                    table: &t1,
                },
                AttnSeq {
                    q_start: 9,
                    q_len: dropped,
                    context_len: dropped,
                    table: &shared,
                },
                AttnSeq {
                    q_start: 9 + dropped,
                    q_len: prompt,
                    context_len: 21,
                    table: &shared,
                },
            ];
            let reference = paged_multi_token_ref(&cfg, &q, &pool.layer(0), &seqs);
            let blocked = paged_multi_token(&cfg, &q, &pool.layer(0), &seqs);
            assert_eq!(blocked, reference, "blocked != ref h={heads}/{kv_heads}");
            for threads in [1usize, 2, 3, 4] {
                let workers = crossbeam::pool::Pool::global(threads);
                let par = paged_multi_token_pool(&cfg, &q, &pool.layer(0), &seqs, &workers);
                assert_eq!(par, reference, "par({threads}) != ref h={heads}/{kv_heads}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "block table")]
    fn rejects_context_beyond_table() {
        let cfg = AttnConfig::new(1, 1, 2);
        let table = BlockTable::new(4);
        let layout = KvLayout {
            num_kv_heads: 1,
            head_dim: 2,
            block_size: 4,
        };
        let pool = PagedKvCache::new(layout, 1, 1);
        let q = Matrix::zeros(1, 2);
        let seq = AttnSeq {
            q_start: 0,
            q_len: 1,
            context_len: 5,
            table: &table,
        };
        let _ = paged_multi_token(&cfg, &q, &pool.layer(0), &[seq]);
    }
}
