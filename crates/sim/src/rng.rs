//! The one seeded random stream behind every fault, loss and partition
//! schedule in this crate.

/// SplitMix64. A schedule drawn from it is a pure function of the
/// starting state and the number of draws, which is what makes a chaos
/// run reproducible from a single `u64` seed.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream starting at `state`. Callers pre-mix their seed with a
    /// constant of their own, so that seeds 0 and 1 diverge immediately
    /// and two streams on the same seed are decorrelated.
    pub(crate) fn new(state: u64) -> Self {
        SplitMix64 { state }
    }

    /// The next 64 uniform bits.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform index in `[0, n)` (0 when `n` is 0).
    pub(crate) fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}
