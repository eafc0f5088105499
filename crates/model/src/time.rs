//! Simulated time: instants and durations as `f64` seconds.
//!
//! The discrete-event simulator and the cost model both deal in wall-clock
//! quantities that have no relation to the host's real clock, so we use
//! dedicated newtypes instead of [`std::time::Duration`]. An `f64` second
//! representation keeps arithmetic simple (rates, divisions by token counts)
//! while still offering ~microsecond precision over multi-day horizons.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{DeError, Deserialize, Serialize, Value};

/// A span of simulated time, in seconds.
///
/// Durations are always finite and non-negative; constructors debug-assert
/// this invariant and deserialization rejects anything else.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize)]
pub struct SimDuration(f64);

/// Reads a seconds count from untrusted input, enforcing the invariant the
/// constructors only debug-assert: finite and non-negative.
fn checked_secs(v: &Value) -> Result<f64, DeError> {
    let secs = f64::from_value(v)?;
    if secs.is_finite() && secs >= 0.0 {
        Ok(secs)
    } else {
        Err(DeError::custom(format!(
            "expected finite non-negative seconds, got {secs}"
        )))
    }
}

impl Deserialize for SimDuration {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        checked_secs(v).map(SimDuration)
    }
}

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Creates a duration from seconds.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `secs` is negative, NaN, or infinite.
    #[must_use]
    pub fn from_secs(secs: f64) -> Self {
        debug_assert!(secs.is_finite() && secs >= 0.0, "invalid duration {secs}");
        SimDuration(secs)
    }

    /// Creates a duration from milliseconds.
    #[must_use]
    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms * 1e-3)
    }

    /// Creates a duration from microseconds.
    #[must_use]
    pub fn from_micros(us: f64) -> Self {
        Self::from_secs(us * 1e-6)
    }

    /// Returns the duration in seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the duration in milliseconds.
    #[must_use]
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns the duration in microseconds.
    #[must_use]
    pub fn as_micros(self) -> f64 {
        self.0 * 1e6
    }

    /// Returns the larger of two durations.
    #[must_use]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    #[must_use]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Subtracts `other`, clamping at zero instead of going negative.
    #[must_use]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration((self.0 - other.0).max(0.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics in debug builds if the result would be negative; use
    /// [`SimDuration::saturating_sub`] when underflow is expected.
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration::from_secs(self.0 - rhs.0)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = f64;
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.3}s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.3}ms", self.0 * 1e3)
        } else {
            write!(f, "{:.1}us", self.0 * 1e6)
        }
    }
}

/// An instant on the simulated clock, in seconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize)]
pub struct SimTime(f64);

impl Deserialize for SimTime {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        checked_secs(v).map(SimTime)
    }
}

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates an instant from seconds since the epoch.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `secs` is negative, NaN, or infinite.
    #[must_use]
    pub fn from_secs(secs: f64) -> Self {
        debug_assert!(secs.is_finite() && secs >= 0.0, "invalid time {secs}");
        SimTime(secs)
    }

    /// Returns seconds since the epoch.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Total ordering over instants, delegating to [`f64::total_cmp`].
    /// Agrees with `partial_cmp` on the finite values [`SimTime`]
    /// constructors accept, but cannot fail, so ordered containers
    /// (event queues) need no panicking unwrap.
    #[must_use]
    pub fn total_cmp(&self, other: &SimTime) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }

    /// Returns the duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`.
    #[must_use]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration::from_secs(self.0 - earlier.0)
    }

    /// Returns the duration since `earlier`, or zero if `earlier` is later.
    #[must_use]
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration::from_secs((self.0 - earlier.0).max(0.0))
    }

    /// Returns the later of two instants.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.as_secs())
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_secs();
    }
}

impl SubAssign<SimDuration> for SimTime {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.as_secs();
        debug_assert!(self.0 >= 0.0);
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_millis(1.5);
        let b = SimDuration::from_micros(500.0);
        assert!((a + b).as_millis() - 2.0 < 1e-12);
        assert!(((a - b).as_millis() - 1.0).abs() < 1e-12);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        assert!((a * 2.0).as_millis() > 2.9);
        assert!((a / 3.0).as_micros() - 500.0 < 1e-9);
    }

    #[test]
    fn saturating_sub_clamps() {
        let a = SimDuration::from_secs(1.0);
        let b = SimDuration::from_secs(2.0);
        assert_eq!(a.saturating_sub(b), SimDuration::ZERO);
        assert_eq!(b.saturating_sub(a).as_secs(), 1.0);
    }

    #[test]
    fn time_advances() {
        let mut t = SimTime::ZERO;
        t += SimDuration::from_secs(3.0);
        assert_eq!(t.as_secs(), 3.0);
        assert_eq!(t.duration_since(SimTime::ZERO).as_secs(), 3.0);
        assert_eq!(
            SimTime::ZERO.saturating_duration_since(t),
            SimDuration::ZERO
        );
    }

    #[test]
    fn deserialization_rejects_negative_and_non_finite_seconds() {
        assert_eq!(
            SimTime::from_value(&Value::Number(1.5)),
            Ok(SimTime::from_secs(1.5))
        );
        assert_eq!(
            SimDuration::from_value(&Value::Number(0.0)),
            Ok(SimDuration::ZERO)
        );
        for bad in [-1.0, -0.001, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert!(SimTime::from_value(&Value::Number(bad)).is_err(), "{bad}");
            assert!(
                SimDuration::from_value(&Value::Number(bad)).is_err(),
                "{bad}"
            );
        }
        assert!(SimTime::from_value(&Value::String("1".into())).is_err());
    }

    #[test]
    fn ratio_of_durations() {
        let a = SimDuration::from_secs(3.0);
        let b = SimDuration::from_secs(1.5);
        assert_eq!(a / b, 2.0);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimDuration::from_secs(2.5)), "2.500s");
        assert_eq!(format!("{}", SimDuration::from_millis(2.5)), "2.500ms");
        assert_eq!(format!("{}", SimDuration::from_micros(2.5)), "2.5us");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(|i| SimDuration::from_secs(f64::from(i))).sum();
        assert_eq!(total.as_secs(), 10.0);
    }
}
