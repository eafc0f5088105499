//! Elementary neural-network operators used by the functional transformer.
//!
//! The hot operator is [`matmul`]: a cache-blocked GEMM whose output is
//! **bit-identical** to the scalar reference [`matmul_ref`] (same
//! per-element accumulation order, only the iteration schedule and memory
//! layout change). [`matmul_pool`] additionally fans the row dimension out
//! over a persistent worker pool; rows are disjoint output partitions, so
//! it too is bit-identical. The remaining operators are straightforward
//! scalar implementations — they are not on the critical path.

use crate::tensor::Matrix;

/// Inner-dimension rows per packed panel of `B`.
///
/// A `GEMM_KC x GEMM_NC` panel holds 64 x 128 f32 = 32 KiB — sized to stay
/// resident in a typical L1d cache while every row of `A` streams against
/// it, which is the data reuse the scalar triple loop forfeits once `B`
/// outgrows L1/L2.
const GEMM_KC: usize = 64;
/// Columns per packed panel of `B` (see [`GEMM_KC`]).
const GEMM_NC: usize = 128;
/// Unroll depth over the inner dimension: keeps each output element in a
/// register across four sequential accumulations (the adds stay in the
/// reference order, so results do not change) and quarters the traffic on
/// the `C` row.
const GEMM_PU: usize = 4;
/// Below this `m * k * n` volume the packing overhead outweighs the cache
/// blocking; the (bit-identical) scalar reference is used instead.
const GEMM_MIN_VOLUME: usize = 16 * 1024;

/// Scalar dot product, accumulating left to right.
///
/// The single shared definition of the kernels' inner product: the
/// attention kernels (blocked and reference) and any score computation use
/// this exact accumulation order, which is what makes their outputs
/// comparable bit-for-bit.
///
/// # Panics
///
/// Panics in debug builds if the lengths differ.
#[inline]
#[must_use]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Four independent dot products of one shared row `k` against `q0..q3`,
/// each accumulating left to right exactly like [`dot`].
///
/// The four accumulator chains have no data dependence on each other, so
/// they overlap in the pipeline — roughly 4x the throughput of four
/// sequential [`dot`] calls on a latency-bound inner product — while each
/// lane's result stays bit-identical to `dot(qN, k)`.
///
/// # Panics
///
/// Panics in debug builds if any slice length differs from `k`'s.
#[inline]
#[must_use]
pub fn dot4(k: &[f32], q0: &[f32], q1: &[f32], q2: &[f32], q3: &[f32]) -> [f32; 4] {
    let n = k.len();
    debug_assert!(q0.len() == n && q1.len() == n && q2.len() == n && q3.len() == n);
    let (q0, q1, q2, q3) = (&q0[..n], &q1[..n], &q2[..n], &q3[..n]);
    let mut s = [0.0f32; 4];
    for (i, &kv) in k.iter().enumerate() {
        s[0] += q0[i] * kv;
        s[1] += q1[i] * kv;
        s[2] += q2[i] * kv;
        s[3] += q3[i] * kv;
    }
    s
}

/// Lane width of [`dot_lanes`]: accumulators for one chunk live in a
/// fixed-size array the compiler keeps in two 4-wide (or one 8-wide) SIMD
/// registers across the whole inner-product loop.
pub const SCORE_LANES: usize = 8;

/// Scores one K row against `n` query vectors packed **transposed**,
/// writing `scores[j] = dot(q_j, k)` bit-for-bit.
///
/// `qt` holds the queries column-major: `qt[i * n + j]` is element `i` of
/// query `j`, with `n` padded to a multiple of [`SCORE_LANES`] (pad lanes
/// read zeros and produce garbage scores the caller ignores). Each
/// `scores[j]` accumulates `qt[i*n+j] * k[i]` with `i` ascending — the
/// exact operand values and order of [`dot`] (f32 multiplication is
/// commutative bit-for-bit) — but the lanes of a chunk are independent,
/// contiguous, and register-resident, so the compiler vectorizes across
/// queries instead of serializing one latency-bound chain. This is the
/// widest inner product available to the attention kernels: one K-row load
/// scores every visible (query row, grouped head) pair at SIMD width.
///
/// # Panics
///
/// Panics in debug builds if `scores.len()` is not a positive multiple of
/// [`SCORE_LANES`] or `qt.len() != k.len() * scores.len()`.
#[inline]
pub fn dot_lanes(k: &[f32], qt: &[f32], scores: &mut [f32]) {
    let n = scores.len();
    debug_assert!(n > 0 && n.is_multiple_of(SCORE_LANES));
    debug_assert_eq!(qt.len(), k.len() * n);
    for j0 in (0..n).step_by(SCORE_LANES) {
        let mut acc = [0.0f32; SCORE_LANES];
        for (i, &kv) in k.iter().enumerate() {
            let row = &qt[i * n + j0..i * n + j0 + SCORE_LANES];
            for (a, &qv) in acc.iter_mut().zip(row) {
                *a += qv * kv;
            }
        }
        scores[j0..j0 + SCORE_LANES].copy_from_slice(&acc);
    }
}

/// `C = A * B` where `A` is `[m, k]` and `B` is `[k, n]` — the scalar
/// reference implementation.
///
/// Kept deliberately naive: this triple loop defines the accumulation
/// order (`p` ascending per output element) that the blocked and parallel
/// variants must reproduce exactly, and the property tests compare them
/// against it bit-for-bit.
///
/// # Panics
///
/// Panics if the inner dimensions disagree.
#[must_use]
pub fn matmul_ref(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul inner dimension mismatch");
    let (m, n) = (a.rows(), b.cols());
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        let arow = a.row(i);
        let crow = c.row_mut(i);
        for (p, &av) in arow.iter().enumerate() {
            let brow = b.row(p);
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
    }
    c
}

/// `C = A * B` — cache-blocked GEMM, bit-identical to [`matmul_ref`].
///
/// `B` is packed into `[GEMM_KC, GEMM_NC]` column-tiles that stay L1
/// resident while all rows of `A` stream against them, and the inner
/// dimension is unrolled `GEMM_PU`-wide so each `C` element stays in a
/// register across the unrolled accumulations. For every output element
/// the additions happen in the same ascending-`p` order as the reference,
/// so the result is exactly equal, not merely close.
///
/// # Panics
///
/// Panics if the inner dimensions disagree.
#[must_use]
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul inner dimension mismatch");
    if a.rows() * a.cols() * b.cols() < GEMM_MIN_VOLUME {
        return matmul_ref(a, b);
    }
    matmul_rows(a, b, 0, a.rows())
}

/// `C = A * B` with the row dimension fanned out over a persistent
/// [`Pool`] — the model layers pass one handle so every kernel call in an
/// engine shares one set of parked workers.
///
/// Rows of `C` are disjoint output partitions computed independently by
/// the blocked kernel and copied back in partition order, so the result is
/// bit-identical to [`matmul`] (and therefore to [`matmul_ref`]) at every
/// pool width.
///
/// Serial fallback: the product stays on the calling thread when any
/// per-partition share of the multiply-accumulate volume
/// (`m * k * n / parts`) would fall below `GEMM_MIN_VOLUME`, or when
/// there are too few rows to split — partition dispatch costs more than
/// it saves on small generation-step products.
///
/// [`Pool`]: crossbeam::pool::Pool
///
/// # Panics
///
/// Panics if the inner dimensions disagree.
#[must_use]
pub fn matmul_pool(a: &Matrix, b: &Matrix, pool: &crossbeam::pool::Pool) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul inner dimension mismatch");
    let threads = pool.threads();
    let m = a.rows();
    let volume = a.rows() * a.cols() * b.cols();
    // Splitting tiny products across threads costs more than it saves:
    // require a full GEMM_MIN_VOLUME of work *per partition*.
    if threads <= 1 || m < 2 * threads || volume / threads < GEMM_MIN_VOLUME {
        return matmul(a, b);
    }
    matmul_pool_ungated(a, b, pool)
}

/// [`matmul_pool`] without the work-size gate: always fans the row
/// dimension out over the pool (inline when the pool is serial). The
/// cross-width bit-identity property tests drive this directly so shapes
/// below `GEMM_MIN_VOLUME` still exercise the partitioned merge;
/// production callers want the gated entry.
///
/// # Panics
///
/// Panics if the inner dimensions disagree.
#[must_use]
pub fn matmul_pool_ungated(a: &Matrix, b: &Matrix, pool: &crossbeam::pool::Pool) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul inner dimension mismatch");
    let m = a.rows();
    if m == 0 {
        return Matrix::zeros(0, b.cols());
    }
    let parts = pool.threads().min(m);
    let per = m.div_ceil(parts);
    let chunks = pool.map_partitions(parts, |t| {
        let lo = t * per;
        let hi = m.min(lo + per);
        if lo < hi {
            Some(matmul_rows(a, b, lo, hi))
        } else {
            None
        }
    });
    let mut c = Matrix::zeros(m, b.cols());
    // Sequential per-partition accumulation: copy results back in fixed
    // partition order (partitions are disjoint row ranges).
    for (t, chunk) in chunks.into_iter().enumerate() {
        let Some(chunk) = chunk else { continue };
        let lo = t * per;
        for r in 0..chunk.rows() {
            c.row_mut(lo + r).copy_from_slice(chunk.row(r));
        }
    }
    c
}

/// Blocked GEMM over rows `lo..hi` of `A`, returning a `[hi - lo, n]`
/// matrix. Shared by [`matmul`] and the per-thread partitions of
/// [`matmul_pool`].
fn matmul_rows(a: &Matrix, b: &Matrix, lo: usize, hi: usize) -> Matrix {
    let (m, k, n) = (hi - lo, a.cols(), b.cols());
    let mut c = Matrix::zeros(m, n);
    let mut panel = vec![0.0f32; GEMM_KC * GEMM_NC];
    for jt in (0..n).step_by(GEMM_NC) {
        let jw = GEMM_NC.min(n - jt);
        for pc in (0..k).step_by(GEMM_KC) {
            let pw = GEMM_KC.min(k - pc);
            // Pack the [pw, jw] tile of B contiguously.
            for p in 0..pw {
                panel[p * jw..(p + 1) * jw].copy_from_slice(&b.row(pc + p)[jt..jt + jw]);
            }
            for i in 0..m {
                let arow = a.row(lo + i);
                let crow = &mut c.row_mut(i)[jt..jt + jw];
                let mut p = 0;
                while p + GEMM_PU <= pw {
                    let (a0, a1, a2, a3) = (
                        arow[pc + p],
                        arow[pc + p + 1],
                        arow[pc + p + 2],
                        arow[pc + p + 3],
                    );
                    let r0 = &panel[p * jw..(p + 1) * jw];
                    let r1 = &panel[(p + 1) * jw..(p + 2) * jw];
                    let r2 = &panel[(p + 2) * jw..(p + 3) * jw];
                    let r3 = &panel[(p + 3) * jw..(p + 4) * jw];
                    for j in 0..jw {
                        // Four *sequential* adds — the reference order.
                        let mut cv = crow[j];
                        cv += a0 * r0[j];
                        cv += a1 * r1[j];
                        cv += a2 * r2[j];
                        cv += a3 * r3[j];
                        crow[j] = cv;
                    }
                    p += GEMM_PU;
                }
                while p < pw {
                    let av = arow[pc + p];
                    let r = &panel[p * jw..(p + 1) * jw];
                    for (cv, &rv) in crow.iter_mut().zip(r) {
                        *cv += av * rv;
                    }
                    p += 1;
                }
            }
        }
    }
    c
}

/// In-place numerically-stable softmax over a single row.
pub fn softmax_row(row: &mut [f32]) {
    if row.is_empty() {
        return;
    }
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// Root-mean-square normalization (Llama 2): `x * w / rms(x)`.
pub fn rmsnorm(x: &mut [f32], weight: &[f32], eps: f32) {
    debug_assert_eq!(x.len(), weight.len());
    let ms: f32 = x.iter().map(|v| v * v).sum::<f32>() / x.len() as f32;
    let inv = 1.0 / (ms + eps).sqrt();
    for (v, w) in x.iter_mut().zip(weight) {
        *v = *v * inv * w;
    }
}

/// Standard LayerNorm with affine parameters (OPT).
pub fn layernorm(x: &mut [f32], weight: &[f32], bias: &[f32], eps: f32) {
    debug_assert_eq!(x.len(), weight.len());
    debug_assert_eq!(x.len(), bias.len());
    let n = x.len() as f32;
    let mean: f32 = x.iter().sum::<f32>() / n;
    let var: f32 = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
    let inv = 1.0 / (var + eps).sqrt();
    for ((v, w), b) in x.iter_mut().zip(weight).zip(bias) {
        *v = (*v - mean) * inv * w + b;
    }
}

/// Sigmoid-weighted linear unit: `x * sigmoid(x)`.
#[must_use]
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// Rectified linear unit.
#[must_use]
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// Applies rotary position embeddings in place to one token's Q or K rows.
///
/// `x` is laid out as `[num_heads, head_dim]` flattened; `pos` is the
/// token's absolute position. Uses the standard base-10000 frequencies and
/// the adjacent-pair rotation convention.
///
/// # Panics
///
/// Panics if `head_dim` is odd or `x.len()` is not a multiple of it.
pub fn apply_rope(x: &mut [f32], num_heads: usize, head_dim: usize, pos: usize) {
    assert_eq!(head_dim % 2, 0, "rope requires even head_dim");
    assert_eq!(x.len(), num_heads * head_dim);
    for h in 0..num_heads {
        let head = &mut x[h * head_dim..(h + 1) * head_dim];
        for i in 0..head_dim / 2 {
            let theta = (pos as f32) * 10000f32.powf(-2.0 * i as f32 / head_dim as f32);
            let (sin, cos) = theta.sin_cos();
            let (a, b) = (head[2 * i], head[2 * i + 1]);
            head[2 * i] = a * cos - b * sin;
            head[2 * i + 1] = a * sin + b * cos;
        }
    }
}

/// Element-wise `a += b` over two same-shaped matrices (residual add).
///
/// # Panics
///
/// Panics if shapes differ.
pub fn add_rows(a: &mut Matrix, b: &Matrix) {
    assert_eq!(a.rows(), b.rows());
    assert_eq!(a.cols(), b.cols());
    for (x, y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x += y;
    }
}

/// Index of the maximum element (greedy sampling); ties go to the lower
/// index.
///
/// # Panics
///
/// Panics if `logits` is empty.
#[must_use]
pub fn argmax(logits: &[f32]) -> usize {
    assert!(!logits.is_empty());
    let mut best = 0;
    for (i, &v) in logits.iter().enumerate() {
        if v > logits[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(matmul(&a, &i), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    /// Deterministic pseudo-random matrix (no RNG dependency needed here).
    fn lcg_matrix(seed: u64, rows: usize, cols: usize) -> Matrix {
        let mut s = seed.wrapping_mul(2862933555777941757).wrapping_add(13);
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|_| {
                    s = s
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((s >> 33) as f32 / (1u64 << 31) as f32) - 0.5
                })
                .collect(),
        )
    }

    #[test]
    fn blocked_matmul_bit_identical_to_ref() {
        // Shapes straddling the tile sizes: exact multiples, ragged tails,
        // k and n both above and below GEMM_KC/GEMM_NC, and small shapes
        // that take the fallback path.
        for &(m, k, n) in &[
            (1usize, 64usize, 64usize),
            (3, 5, 7),
            (8, 64, 128),
            (5, 65, 129),
            (16, 200, 96),
            (2, 128, 300),
            (33, 100, 50),
        ] {
            let a = lcg_matrix(m as u64 * 31 + k as u64, m, k);
            let b = lcg_matrix(n as u64 * 17 + 1, k, n);
            assert_eq!(
                matmul(&a, &b),
                matmul_ref(&a, &b),
                "blocked != ref for {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn parallel_matmul_bit_identical_across_thread_counts() {
        let a = lcg_matrix(7, 37, 96);
        let b = lcg_matrix(11, 96, 140);
        let want = matmul_ref(&a, &b);
        for threads in [1usize, 2, 3, 4, 8] {
            let pool = crossbeam::pool::Pool::global(threads);
            assert_eq!(matmul_pool(&a, &b, &pool), want, "threads={threads}");
        }
    }

    /// Pins the GEMM serial-fallback decision: a decode-step product too
    /// small to amortize dispatch must bypass the pool entirely (its task
    /// counter stays put), while the bench's prefill projection shape
    /// (256 x 512 x 512) must fan out — both bit-identical to serial.
    #[test]
    fn small_products_never_touch_the_pool() {
        let pool = crossbeam::pool::Pool::new(4);
        // 8 rows x 32 x 32: volume 8192 < GEMM_MIN_VOLUME per partition.
        let a = lcg_matrix(5, 8, 32);
        let b = lcg_matrix(6, 32, 32);
        let before = pool.stats().tasks_total;
        let got = matmul_pool(&a, &b, &pool);
        assert_eq!(
            pool.stats().tasks_total,
            before,
            "sub-threshold product must not pay pool dispatch"
        );
        assert_eq!(got, matmul(&a, &b));
        // Bench prefill projection shape: clears the threshold, fans out.
        let a = lcg_matrix(7, 256, 512);
        let b = lcg_matrix(8, 512, 512);
        let before = pool.stats().tasks_total;
        let got = matmul_pool(&a, &b, &pool);
        assert!(
            pool.stats().tasks_total > before,
            "prefill-shaped product must use the pool"
        );
        assert_eq!(got, matmul(&a, &b), "parallel path is bit-identical");
    }

    #[test]
    fn dot4_lanes_match_dot() {
        let k = lcg_matrix(1, 1, 67);
        let q = lcg_matrix(2, 4, 67);
        let s = dot4(k.row(0), q.row(0), q.row(1), q.row(2), q.row(3));
        for (lane, &sv) in s.iter().enumerate() {
            // Bitwise equality: same accumulation order per lane.
            assert_eq!(sv.to_bits(), dot(q.row(lane), k.row(0)).to_bits());
        }
    }

    #[test]
    fn dot_lanes_matches_dot_bitwise() {
        // 11 real queries padded to 16 lanes, over a 67-dim inner product.
        let k = lcg_matrix(3, 1, 67);
        let q = lcg_matrix(4, 11, 67);
        let n = 11usize.next_multiple_of(SCORE_LANES);
        let mut qt = vec![0.0f32; 67 * n];
        for j in 0..11 {
            for (i, &v) in q.row(j).iter().enumerate() {
                qt[i * n + j] = v;
            }
        }
        let mut scores = vec![f32::NAN; n];
        dot_lanes(k.row(0), &qt, &mut scores);
        for (j, &sv) in scores.iter().take(11).enumerate() {
            assert_eq!(sv.to_bits(), dot(q.row(j), k.row(0)).to_bits());
        }
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let mut row = vec![1.0, 2.0, 3.0];
        softmax_row(&mut row);
        let sum: f32 = row.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(row[2] > row[1] && row[1] > row[0]);
    }

    #[test]
    fn softmax_handles_large_values() {
        let mut row = vec![1000.0, 1000.0];
        softmax_row(&mut row);
        assert!((row[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn softmax_empty_is_noop() {
        let mut row: Vec<f32> = vec![];
        softmax_row(&mut row);
    }

    #[test]
    fn rmsnorm_unit_output_scale() {
        let mut x = vec![3.0, 4.0];
        let w = vec![1.0, 1.0];
        rmsnorm(&mut x, &w, 0.0);
        // rms(3,4) = sqrt(12.5); outputs are x / rms.
        let rms = 12.5f32.sqrt();
        assert!((x[0] - 3.0 / rms).abs() < 1e-6);
        assert!((x[1] - 4.0 / rms).abs() < 1e-6);
    }

    #[test]
    fn layernorm_zero_mean_unit_var() {
        let mut x = vec![1.0, 2.0, 3.0, 4.0];
        let w = vec![1.0; 4];
        let b = vec![0.0; 4];
        layernorm(&mut x, &w, &b, 0.0);
        let mean: f32 = x.iter().sum::<f32>() / 4.0;
        let var: f32 = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-6);
        assert!((var - 1.0).abs() < 1e-4);
    }

    #[test]
    fn activations_match_definitions() {
        assert_eq!(relu(-2.0), 0.0);
        assert_eq!(relu(2.0), 2.0);
        assert!((silu(0.0)).abs() < 1e-7);
        assert!(silu(10.0) > 9.99);
        assert!(silu(-10.0) > -1e-3 && silu(-10.0) < 0.0);
    }

    #[test]
    fn rope_preserves_norm_and_is_position_dependent() {
        let orig = vec![1.0, 2.0, 3.0, 4.0];
        let mut a = orig.clone();
        let mut b = orig.clone();
        apply_rope(&mut a, 1, 4, 3);
        apply_rope(&mut b, 1, 4, 7);
        let norm = |v: &[f32]| v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm(&a) - norm(&orig)).abs() < 1e-5);
        assert!(a != b, "different positions must rotate differently");
        // Position 0 is the identity rotation.
        let mut c = orig.clone();
        apply_rope(&mut c, 1, 4, 0);
        assert_eq!(c, orig);
    }

    #[test]
    fn rope_relative_property() {
        // Dot product of rope(q,i) and rope(k,j) depends only on i - j.
        let q = vec![0.3, -0.7, 1.1, 0.2];
        let k = vec![-0.5, 0.9, 0.4, -1.3];
        let dot_at = |i: usize, j: usize| {
            let mut qi = q.clone();
            let mut kj = k.clone();
            apply_rope(&mut qi, 1, 4, i);
            apply_rope(&mut kj, 1, 4, j);
            qi.iter().zip(&kj).map(|(a, b)| a * b).sum::<f32>()
        };
        assert!((dot_at(5, 3) - dot_at(9, 7)).abs() < 1e-4);
    }

    #[test]
    fn argmax_first_max_wins() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
    }
}
