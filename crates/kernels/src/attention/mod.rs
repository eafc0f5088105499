//! Attention kernels over contiguous and paged (non-contiguous) KV caches.
//!
//! This module reproduces the four implementations compared in the paper's
//! Figure 12, plus a naive ground-truth reference:
//!
//! | Kernel | KV layout | Queries/request | Paper role |
//! |---|---|---|---|
//! | [`naive::naive_attention`] | contiguous | multi | ground truth for tests |
//! | [`contiguous::fused_contiguous`] | contiguous | multi | "Ideal" (blue bar) |
//! | [`copyout::copyout_attention`] | paged → copied | multi | "CopyOut+Attention" (orange) |
//! | [`multiround::multi_round_single_token`] | paged | 1 per round | "Multi-round PagedAttention" (green) |
//! | [`multi::paged_multi_token`] | paged | multi | **Pensieve's kernel** |
//!
//! All kernels implement *causal* attention for a query chunk positioned at
//! the **end** of its context: query token `j` (0-based within a chunk of
//! `q_len`) attends to context positions `0 ..= context_len - q_len + j`.
//! Setting `q_len == context_len` gives standard self-attention prefill;
//! `q_len == 1` gives the generation step. The paper's "sub-request" trick
//! for recomputed dropped tokens (§4.3.4, Figure 8) maps onto this rule by
//! issuing two [`AttnSeq`] entries that share one block table with
//! different `context_len`s.
//!
//! Grouped-Query Attention is supported throughout: query head `h` reads
//! KV head `h / (num_heads / num_kv_heads)`.

pub mod contiguous;
pub mod copyout;
pub mod multi;
pub mod multiround;
pub mod naive;
pub mod single;

use crate::paged::BlockTable;

/// Head geometry shared by all attention kernels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttnConfig {
    /// Number of query heads.
    pub num_heads: usize,
    /// Number of KV heads (`<= num_heads`, divides it).
    pub num_kv_heads: usize,
    /// Per-head dimension.
    pub head_dim: usize,
    /// Score scale, conventionally `1 / sqrt(head_dim)`.
    pub scale: f32,
}

impl AttnConfig {
    /// Creates a config with the conventional `1/sqrt(head_dim)` scale.
    ///
    /// # Panics
    ///
    /// Panics if `num_kv_heads` does not divide `num_heads`.
    #[must_use]
    pub fn new(num_heads: usize, num_kv_heads: usize, head_dim: usize) -> Self {
        assert!(
            num_kv_heads > 0 && num_heads.is_multiple_of(num_kv_heads),
            "kv heads must divide query heads"
        );
        AttnConfig {
            num_heads,
            num_kv_heads,
            head_dim,
            scale: 1.0 / (head_dim as f32).sqrt(),
        }
    }

    /// GQA group size (query heads per KV head).
    #[must_use]
    pub fn group_size(&self) -> usize {
        self.num_heads / self.num_kv_heads
    }

    /// KV head serving query head `h`.
    #[must_use]
    pub fn kv_head_for(&self, h: usize) -> usize {
        h / self.group_size()
    }

    /// Width of a query/output row: `num_heads * head_dim`.
    #[must_use]
    pub fn q_width(&self) -> usize {
        self.num_heads * self.head_dim
    }

    /// Width of a K/V row: `num_kv_heads * head_dim`.
    #[must_use]
    pub fn kv_width(&self) -> usize {
        self.num_kv_heads * self.head_dim
    }
}

/// One (sub-)request in a batched paged-attention invocation.
///
/// `q_start`/`q_len` locate the request's query rows inside the batch's
/// concatenated query matrix; `table` and `context_len` describe the KV
/// context it attends to. Two sub-requests may share the same `table`
/// (dropped-token recomputation, §4.3.4).
#[derive(Debug, Clone, Copy)]
pub struct AttnSeq<'a> {
    /// First row of this request inside the batch query matrix.
    pub q_start: usize,
    /// Number of query tokens (>= 1 for prefill chunks, == 1 for decode).
    pub q_len: usize,
    /// Context length visible to the *last* query token, inclusive of the
    /// query tokens themselves.
    pub context_len: usize,
    /// Logical-to-physical block mapping holding the context's KV-tokens.
    pub table: &'a BlockTable,
}

impl AttnSeq<'_> {
    /// Number of context positions visible to query token `j`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `j >= q_len`.
    #[must_use]
    pub fn visible(&self, j: usize) -> usize {
        debug_assert!(j < self.q_len);
        self.context_len - self.q_len + j + 1
    }

    /// Validates the shape invariants against a block table.
    ///
    /// # Panics
    ///
    /// Panics if `q_len` is zero, exceeds `context_len`, or the table holds
    /// fewer tokens than `context_len`.
    pub fn check(&self) {
        assert!(self.q_len > 0, "empty query range");
        assert!(
            self.q_len <= self.context_len,
            "query longer than its context"
        );
        assert!(
            self.table.len() >= self.context_len,
            "block table ({} tokens) shorter than context ({})",
            self.table.len(),
            self.context_len
        );
    }
}

/// Arguments are clamped to `[EXP_LO, EXP_HI]` before the reduction, so
/// every `n` fits the exponent field: `n` is `-127` at `EXP_LO`, whose
/// `2^n` bits are those of `+0.0`, and `128` at `EXP_HI`, whose are
/// `+inf`'s.
const EXP_LO: f32 = -88.0;
/// See [`EXP_LO`].
const EXP_HI: f32 = 89.0;
/// `1.5 * 2^23`: adding it rounds to an integer (to nearest, ties even)
/// and leaves that integer in the low mantissa bits.
const EXP_ROUND: f32 = 12_582_912.0;
/// `ln 2` split in two (Cody and Waite). The high part, `0.693_359_375`,
/// has 9 significant bits, so `n * EXP_LN2_HI` is exact for every `n` the
/// reduction makes.
const EXP_LN2_HI: f32 = 0.693_359_4;
/// `ln 2 - EXP_LN2_HI`.
const EXP_LN2_LO: f32 = -2.121_944_4e-4;
/// `Q` in `e^r = 1 + r + r^2 Q(r)`, highest power first: a degree-4
/// Chebyshev fit on `|r| <= ln 2 / 2`, so the polynomial has degree 6.
const EXP_Q: [f32; 5] = [
    0.001_392_617_6,
    0.008_363_173,
    0.041_666_556,
    0.166_665_78,
    0.5,
];

/// The fused kernels' `e^x`: range reduction `x = n ln 2 + r` plus a
/// degree-6 polynomial in `r`, scaled by `2^n` through the exponent bits.
///
/// Exactly `+0.0` below the cutoff `-87.683_12`, where the reduction's
/// `n` would fall under `-126` (and at `-inf`); exactly `1.0` at `±0.0`;
/// within 1.05 ulp of the true value from the cutoff to `0` and
/// non-decreasing there (both measured over every `f32` in that range;
/// the tests check a dense sweep);
/// `+inf` from about 88.4 (libm: 88.7); NaN stays NaN. It has no
/// branch and no call, so [`exp_lanes`] runs it at SIMD width with the
/// same bits; libm's `expf` is a call per score. Every fused kernel and
/// its scalar reference fold through this one function, while the dense
/// oracles (`naive_attention`, `ops::softmax_row`) keep libm.
#[inline(always)]
#[must_use]
pub(crate) fn exp(x: f32) -> f32 {
    // Selects on the argument, not the result, so nothing is branched on.
    let x = if x < EXP_LO { EXP_LO } else { x };
    let x = if x > EXP_HI { EXP_HI } else { x };
    let t = x * std::f32::consts::LOG2_E + EXP_ROUND;
    let n = t - EXP_ROUND;
    let r = x - n * EXP_LN2_HI - n * EXP_LN2_LO;
    let [q4, q3, q2, q1, q0] = EXP_Q;
    let q = (((q4 * r + q3) * r + q2) * r + q1) * r + q0;
    let p = (q * (r * r) + r) + 1.0;
    // `t`'s bits are `0x4b40_0000 + n`; adding the bias and shifting the
    // sum into the exponent field drops the high bits: the bits of `2^n`.
    p * f32::from_bits(t.to_bits().wrapping_add(127) << 23)
}

/// [`exp`] of every lane: the same operations per lane, so the same bits.
/// Always inlined: called out of line, the lanes would go through memory.
#[inline(always)]
#[must_use]
pub(crate) fn exp_lanes<const L: usize>(x: [f32; L]) -> [f32; L] {
    let mut y = [0.0; L];
    for (y, &x) in y.iter_mut().zip(&x) {
        *y = exp(x);
    }
    y
}

/// Numerical state of one query row's online softmax.
///
/// Used by the scalar fused kernels to process the context in a single
/// streaming pass without materializing the attention-score matrix (the
/// paper fuses causal masking into the kernel for the same reason). Its
/// [`update`](Self::update) defines the bits of every fused kernel: per
/// score, a rescale by `exp(m - score)` only when the score raises the
/// running max, then `p = exp(score - m)` added to the sum and `p * v`
/// to each accumulator, with the crate's [`exp`]. The lane fold of
/// [`multi`] runs these operations on eight (or four) states at once.
#[derive(Debug, Clone)]
pub(crate) struct OnlineSoftmax {
    /// Running maximum of the scores seen so far.
    pub m: f32,
    /// Running sum of `exp(score - m)`.
    pub s: f32,
    /// Running weighted sum of V rows, scaled by `exp(-m)` implicitly.
    pub acc: Vec<f32>,
}

impl OnlineSoftmax {
    pub(crate) fn new(head_dim: usize) -> Self {
        OnlineSoftmax {
            m: f32::NEG_INFINITY,
            s: 0.0,
            acc: vec![0.0; head_dim],
        }
    }

    /// Folds one (score, value-row) pair into the state. The first score
    /// rescales by `exp(-inf) = 0`, which is a no-op on the zero state.
    #[inline]
    pub(crate) fn update(&mut self, score: f32, v: &[f32]) {
        if score > self.m {
            let corr = exp(self.m - score);
            self.s *= corr;
            for a in self.acc.iter_mut() {
                *a *= corr;
            }
            self.m = score;
        }
        let p = exp(score - self.m);
        self.s += p;
        for (a, &vv) in self.acc.iter_mut().zip(v) {
            *a += p * vv;
        }
    }

    /// Writes the normalized output into `out`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if no score was folded in (division by zero).
    pub(crate) fn finish(&self, out: &mut [f32]) {
        debug_assert!(self.s > 0.0, "finish() before any update()");
        let inv = 1.0 / self.s;
        for (o, &a) in out.iter_mut().zip(&self.acc) {
            *o = a * inv;
        }
    }
}

// The shared scalar inner products live in `ops`; attention kernels use the
// same definitions so their scores are bit-comparable with the GEMM path.
pub(crate) use crate::ops::{dot, dot4};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_derives_geometry() {
        let c = AttnConfig::new(8, 2, 16);
        assert_eq!(c.group_size(), 4);
        assert_eq!(c.kv_head_for(0), 0);
        assert_eq!(c.kv_head_for(3), 0);
        assert_eq!(c.kv_head_for(4), 1);
        assert_eq!(c.q_width(), 128);
        assert_eq!(c.kv_width(), 32);
        assert!((c.scale - 0.25).abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "kv heads must divide")]
    fn config_rejects_bad_group() {
        let _ = AttnConfig::new(8, 3, 16);
    }

    #[test]
    fn visibility_rule() {
        let table = BlockTable::new(4);
        let seq = AttnSeq {
            q_start: 0,
            q_len: 3,
            context_len: 10,
            table: &table,
        };
        // Last token sees everything, earlier ones progressively less.
        assert_eq!(seq.visible(2), 10);
        assert_eq!(seq.visible(1), 9);
        assert_eq!(seq.visible(0), 8);
    }

    /// The smallest argument whose [`exp`] is not `+0.0`.
    const EXP_CUTOFF: f32 = -87.683_12;

    /// `2^20 + 1` evenly spaced arguments over `[-104, 0]`, ascending:
    /// the softmax domain and past the cutoff.
    fn sweep() -> impl Iterator<Item = f32> {
        const N: u32 = 1 << 20;
        (0..=N).map(|i| (-104.0 + 104.0 * f64::from(i) / f64::from(N)) as f32)
    }

    /// Runs `xs` through [`exp_lanes`] `L` at a time (the tail padded).
    fn lanes<const L: usize>(xs: &[f32]) -> Vec<f32> {
        xs.chunks(L)
            .flat_map(|c| {
                let mut x = [0.0f32; L];
                x[..c.len()].copy_from_slice(c);
                exp_lanes(x)[..c.len()].to_vec()
            })
            .collect()
    }

    #[test]
    fn exp_lanes_match_scalar_bitwise() {
        let mut xs: Vec<f32> = sweep().collect();
        xs.extend([0.0, -0.0, f32::NEG_INFINITY, 0.5, 1.0, 10.0, 88.3, 100.0]);
        let scalar: Vec<u32> = xs.iter().map(|&x| exp(x).to_bits()).collect();
        for got in [lanes::<8>(&xs), lanes::<4>(&xs)] {
            let got: Vec<u32> = got.iter().map(|y| y.to_bits()).collect();
            assert!(got == scalar, "a lane differs from the scalar form");
        }
    }

    #[test]
    fn exp_is_exact_at_zero_and_zero_below_cutoff() {
        assert_eq!(exp(0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1.0f32.to_bits());
        let below = f32::from_bits(EXP_CUTOFF.to_bits() + 1);
        for x in [below, -87.7, -100.0, -1e30, f32::MIN, f32::NEG_INFINITY] {
            assert_eq!(exp(x).to_bits(), 0, "exp({x}) must be +0.0");
        }
        assert!(
            exp(EXP_CUTOFF) > 0.0,
            "the cutoff is the last nonzero result"
        );
    }

    #[test]
    fn exp_never_decreases() {
        let mut prev = 0.0f32;
        for x in sweep() {
            let y = exp(x);
            assert!(y >= prev, "exp({x}) = {y} fell below {prev}");
            prev = y;
        }
    }

    /// The error bound measured over every `f32` in `[EXP_CUTOFF, 0]`
    /// (1.049 ulp, libm: 0.502), checked here on the sweep.
    #[test]
    fn exp_error_within_ulp_bound() {
        const MAX_ULP: f64 = 1.05;
        for x in sweep().filter(|&x| x >= EXP_CUTOFF) {
            let exact = f64::from(x).exp();
            let rounded = exact as f32;
            let ulp = f64::from(f32::from_bits(rounded.to_bits() + 1) - rounded);
            let err = (f64::from(exp(x)) - exact).abs() / ulp;
            assert!(err <= MAX_ULP, "exp({x}) is {err} ulp off");
        }
    }

    #[test]
    fn online_softmax_matches_direct() {
        let scores = [0.5f32, -1.0, 2.0, 0.0];
        let values = [[1.0f32, 0.0], [0.0, 1.0], [2.0, 2.0], [-1.0, 3.0]];
        let mut st = OnlineSoftmax::new(2);
        for (s, v) in scores.iter().zip(values.iter()) {
            st.update(*s, v);
        }
        let mut out = [0.0f32; 2];
        st.finish(&mut out);
        // Direct softmax computation.
        let max = 2.0f32;
        let exps: Vec<f32> = scores.iter().map(|s| (s - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        let mut expect = [0.0f32; 2];
        for (e, v) in exps.iter().zip(values.iter()) {
            expect[0] += e / sum * v[0];
            expect[1] += e / sum * v[1];
        }
        assert!((out[0] - expect[0]).abs() < 1e-6);
        assert!((out[1] - expect[1]).abs() < 1e-6);
    }

    #[test]
    fn online_softmax_order_invariant() {
        let scores = [3.0f32, 1.0, -2.0, 0.5];
        let vals = [[1.0f32], [2.0], [3.0], [4.0]];
        let run = |order: &[usize]| {
            let mut st = OnlineSoftmax::new(1);
            for &i in order {
                st.update(scores[i], &vals[i]);
            }
            let mut out = [0.0f32];
            st.finish(&mut out);
            out[0]
        };
        let a = run(&[0, 1, 2, 3]);
        let b = run(&[3, 2, 1, 0]);
        assert!((a - b).abs() < 1e-6);
    }
}
