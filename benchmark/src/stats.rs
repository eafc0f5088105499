//! Order statistics used by every report: nearest-rank quantiles (the
//! workload crate's `percentile`, re-exported), the
//! median of a few repeats, and the rule that picks the tail percentile a
//! sample can support.

/// Percentiles the tail rule chooses among, ascending, in per mille (so
/// "ten samples beyond" is integer arithmetic).
const LADDER: [usize; 5] = [500, 900, 950, 990, 999];

pub use pensieve_workload::metrics::percentile as quantile;

/// Host seconds since `t0`.
#[must_use]
pub fn secs(t0: std::time::Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Smallest and largest of a sample (infinities when empty).
#[must_use]
pub fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// Sorts a copy of `values` ascending (all values must be finite).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a non-empty sample: the middle value, or the mean of the two
/// middle values.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest percentile of [`LADDER`] that still has at least ten
/// samples beyond it in a sample of `n`: p99 needs 1 000 samples, p90
/// needs 100. Below twenty samples only the median is reported.
#[must_use]
pub fn tail_percentile(n: usize) -> f64 {
    LADDER
        .iter()
        .copied()
        .filter(|q| n * (1000 - q) / 1000 >= 10)
        .fold(500, usize::max) as f64
        / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), 0.50);
        assert_eq!(tail_percentile(99), 0.50);
        assert_eq!(tail_percentile(100), 0.90);
        assert_eq!(tail_percentile(128), 0.90);
        assert_eq!(tail_percentile(200), 0.95);
        assert_eq!(tail_percentile(999), 0.95);
        assert_eq!(tail_percentile(1000), 0.99);
        assert_eq!(tail_percentile(2893), 0.99);
        assert_eq!(tail_percentile(10_000), 0.999);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
