//! Offline profiling of chunk recomputation cost (§4.3.1).
//!
//! Pensieve's eviction policy needs `Cost(l)`, the cost of recomputing a
//! fixed-size chunk of tokens whose context length is `l`. Profiling every
//! context size is infeasible, so — exactly as the paper does — we profile
//! context sizes that are powers of two and linearly interpolate between
//! them. The "measurement" source is pluggable: production code profiles
//! the [`CostModel`] (our stand-in for real hardware), tests can feed
//! arbitrary measured values.

use std::fmt;

use crate::cost::{CostModel, SeqShape};
use crate::time::SimDuration;

/// Error building a profiled cost table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileError {
    /// Fewer than two sample points were provided.
    TooFewPoints,
    /// Sample points were not strictly increasing in context length.
    Unsorted,
    /// A sampled cost was negative or non-finite.
    InvalidCost,
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::TooFewPoints => write!(f, "need at least two profile points"),
            ProfileError::Unsorted => {
                write!(f, "profile points must be strictly increasing in context")
            }
            ProfileError::InvalidCost => write!(f, "profiled cost must be finite and >= 0"),
        }
    }
}

impl std::error::Error for ProfileError {}

/// Piecewise-linear interpolation over `(x, seconds)` sample points.
#[derive(Debug, Clone, PartialEq)]
pub struct InterpolatedCost {
    points: Vec<(usize, f64)>,
}

impl InterpolatedCost {
    /// Builds an interpolator from sample points.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError`] if fewer than two points are given, the `x`
    /// values are not strictly increasing, or any cost is invalid.
    pub fn new(points: Vec<(usize, f64)>) -> Result<Self, ProfileError> {
        if points.len() < 2 {
            return Err(ProfileError::TooFewPoints);
        }
        if !points.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(ProfileError::Unsorted);
        }
        if points.iter().any(|&(_, c)| !c.is_finite() || c < 0.0) {
            return Err(ProfileError::InvalidCost);
        }
        Ok(InterpolatedCost { points })
    }

    /// Evaluates the interpolant at `x`.
    ///
    /// Below the first sample the first value is returned; above the last
    /// sample the final segment is extrapolated (attention cost is linear in
    /// context, so linear extrapolation is exact in the tail).
    #[must_use]
    pub fn eval(&self, x: usize) -> f64 {
        let pts = &self.points;
        if x <= pts[0].0 {
            return pts[0].1;
        }
        let last = pts.len() - 1;
        // Find the segment containing x, or use the final one to extrapolate.
        let hi = pts.partition_point(|&(px, _)| px < x).min(last);
        let (x0, y0) = pts[hi - 1];
        let (x1, y1) = pts[hi];
        let t = (x as f64 - x0 as f64) / (x1 as f64 - x0 as f64);
        y0 + t * (y1 - y0)
    }

    /// The profiled sample points.
    #[must_use]
    pub fn points(&self) -> &[(usize, f64)] {
        &self.points
    }
}

/// Profiled recomputation-cost table for fixed-size chunks.
///
/// `chunk_cost(l)` implements the paper's simplified cost function
/// `Cost(l) = Cost_attention(l) + c` where `c` is the (context-independent)
/// non-attention cost of the chunk.
#[derive(Debug, Clone)]
pub struct ProfiledCostTable {
    chunk_len: usize,
    attention: InterpolatedCost,
    non_attention_const: SimDuration,
}

impl ProfiledCostTable {
    /// Profiles `cost` at power-of-two context sizes up to `max_context`.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len == 0` or `max_context < 2 * chunk_len`.
    #[must_use]
    pub fn profile(cost: &CostModel, chunk_len: usize, max_context: usize) -> Self {
        assert!(chunk_len > 0, "chunk_len must be positive");
        assert!(
            max_context >= 2 * chunk_len,
            "max_context too small to profile"
        );
        let mut points = Vec::new();
        let mut l = chunk_len.next_power_of_two().max(2);
        while l <= max_context {
            let attn = cost.attention_time(SeqShape {
                query_len: chunk_len.min(l),
                context_len: l,
            });
            points.push((l, attn.as_secs()));
            l *= 2;
        }
        let attention =
            InterpolatedCost::new(points).expect("power-of-two sweep yields valid points");
        let non_attention_const =
            cost.non_attention_layer_time(chunk_len) * cost.config().num_layers as f64;
        ProfiledCostTable {
            chunk_len,
            attention,
            non_attention_const,
        }
    }

    /// The chunk size this table was profiled for.
    #[must_use]
    pub fn chunk_len(&self) -> usize {
        self.chunk_len
    }

    /// Interpolated attention cost for a chunk at context length `l`.
    #[must_use]
    pub fn attention_cost(&self, context_len: usize) -> SimDuration {
        SimDuration::from_secs(self.attention.eval(context_len).max(0.0))
    }

    /// Total recomputation cost `Cost(l) = Cost_attention(l) + c`.
    #[must_use]
    pub fn chunk_cost(&self, context_len: usize) -> SimDuration {
        self.attention_cost(context_len) + self.non_attention_const
    }

    /// The profiled non-attention constant `c`.
    #[must_use]
    pub fn non_attention_const(&self) -> SimDuration {
        self.non_attention_const
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::hardware::HardwareSpec;

    fn table() -> ProfiledCostTable {
        let cost = CostModel::new(ModelConfig::opt_13b(), HardwareSpec::azure_nc_a100(1));
        ProfiledCostTable::profile(&cost, 32, 16384)
    }

    #[test]
    fn interpolation_matches_exact_at_sample_points() {
        let cost = CostModel::new(ModelConfig::opt_13b(), HardwareSpec::azure_nc_a100(1));
        let t = table();
        for l in [64usize, 256, 4096, 16384] {
            let exact = cost
                .attention_time(SeqShape {
                    query_len: 32,
                    context_len: l,
                })
                .as_secs();
            let interp = t.attention_cost(l).as_secs();
            assert!(
                (interp - exact).abs() <= 1e-12 + exact * 1e-9,
                "l={l} exact={exact} interp={interp}"
            );
        }
    }

    #[test]
    fn interpolation_between_samples_is_close() {
        let cost = CostModel::new(ModelConfig::opt_13b(), HardwareSpec::azure_nc_a100(1));
        let t = table();
        for l in [96usize, 3000, 10000] {
            let exact = cost
                .attention_time(SeqShape {
                    query_len: 32,
                    context_len: l,
                })
                .as_secs();
            let interp = t.attention_cost(l).as_secs();
            let rel = (interp - exact).abs() / exact;
            assert!(rel < 0.35, "l={l} rel err {rel}");
        }
    }

    /// Load-bearing for eviction: the cache manager ranks a conversation
    /// by its leading chunk alone (`EvictionPolicy::score`'s contract in
    /// `pensieve-kvcache`), which is only the retention-value order if
    /// `Cost(l)` never falls — at every context, between and past the
    /// profiled samples, for every table the repository builds.
    #[test]
    fn chunk_cost_monotone_in_context() {
        let mut models = ModelConfig::paper_models();
        models.extend([ModelConfig::tiny_llama(), ModelConfig::tiny_opt()]);
        for model in &models {
            for gpus in [1, 2, 4] {
                let cost = CostModel::new(model.clone(), HardwareSpec::azure_nc_a100(gpus));
                for chunk in [16, 32, 64, 128] {
                    let t = ProfiledCostTable::profile(&cost, chunk, 16384);
                    let mut prev = SimDuration::ZERO;
                    for l in 0..=70_000 {
                        let c = t.chunk_cost(l);
                        assert!(
                            c >= prev,
                            "{} on {gpus} GPUs, chunk {chunk}: Cost({l}) < Cost({})",
                            model.name,
                            l - 1
                        );
                        prev = c;
                    }
                }
            }
        }
    }

    #[test]
    fn chunk_cost_includes_constant() {
        let t = table();
        assert!(t.chunk_cost(64) >= t.non_attention_const());
        assert!(t.non_attention_const() > SimDuration::ZERO);
    }

    #[test]
    fn extrapolates_beyond_last_sample() {
        let t = table();
        let at_max = t.attention_cost(16384);
        let beyond = t.attention_cost(32768);
        assert!(beyond.as_secs() > 1.5 * at_max.as_secs());
    }

    /// Measured samples are validated where they enter, by the
    /// interpolator every table is built on.
    #[test]
    fn from_measurements_validates() {
        let err = |samples| InterpolatedCost::new(samples).unwrap_err();
        assert_eq!(err(vec![(64, 1.0)]), ProfileError::TooFewPoints);
        assert_eq!(err(vec![(64, 1.0), (64, 2.0)]), ProfileError::Unsorted);
        assert_eq!(
            err(vec![(64, 1.0), (128, f64::NAN)]),
            ProfileError::InvalidCost
        );
        let ok = InterpolatedCost::new(vec![(64, 1.0), (128, 2.0)]).unwrap();
        assert_eq!(ok.eval(96), 1.5);
    }

    #[test]
    fn eval_clamps_below_first_point() {
        let i = InterpolatedCost::new(vec![(64, 2.0), (128, 4.0)]).unwrap();
        assert_eq!(i.eval(10), 2.0);
        assert_eq!(i.eval(64), 2.0);
        assert_eq!(i.eval(128), 4.0);
        assert_eq!(i.eval(96), 3.0);
        // Linear extrapolation above.
        assert_eq!(i.eval(192), 6.0);
    }
}
