//! Offline drop-in replacement for the subset of the `proptest` API used
//! by this workspace.
//!
//! The build environment cannot reach a crates.io registry, so the
//! workspace vendors a small property-testing harness under the same item
//! paths: the [`proptest!`] macro, [`ProptestConfig`], the
//! [`Strategy`] trait with range/tuple/[`collection::vec`]/
//! [`sample::select`] strategies, and the [`prop_assert!`] /
//! [`prop_assert_eq!`] assertion macros.
//!
//! Differences from the real crate, acceptable for this repository's
//! usage: no shrinking (failing cases are reported with their generated
//! inputs but not minimized), and case generation is seeded
//! deterministically from the test's name, so failures always reproduce.

use std::ops::Range;

/// Number of cases each property runs by default (the real crate uses
/// 256; the shim uses a smaller default to keep `cargo test` fast, and
/// every property block in this repository sets its count explicitly).
pub const DEFAULT_CASES: u32 = 64;

/// Per-property-block configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases per property.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: DEFAULT_CASES,
        }
    }
}

/// Deterministic case-generation RNG (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates an RNG whose stream is a pure function of `name` — each
    /// property explores its own sequence, stable across runs.
    #[must_use]
    pub fn from_name(name: &str) -> Self {
        // FNV-1a over the test name.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng { state: h }
    }

    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A generator of random test inputs.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Samples one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let hi = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (self.start as i128 + hi) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + u * (self.end - self.start)
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Strategies that choose among explicit values.
pub mod sample {
    use super::{Strategy, TestRng};

    /// Uniform choice from a fixed list (see [`select`]).
    #[derive(Debug, Clone)]
    pub struct Select<T> {
        items: Vec<T>,
    }

    /// A strategy sampling uniformly from `items`.
    ///
    /// # Panics
    ///
    /// Panics when sampling if `items` is empty.
    #[must_use]
    pub fn select<T: Clone>(items: Vec<T>) -> Select<T> {
        Select { items }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            assert!(!self.items.is_empty(), "select over an empty list");
            let idx = ((rng.next_u64() as u128 * self.items.len() as u128) >> 64) as usize;
            self.items[idx].clone()
        }
    }
}

/// Strategies producing collections.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// A strategy producing vectors (see [`vec()`]).
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// A strategy producing `Vec`s whose length is uniform in `size` and
    /// whose elements are drawn from `element`.
    #[must_use]
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.sample(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};
}

/// Asserts a condition inside a property, reporting the failing case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond);
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*);
    };
}

/// Asserts equality inside a property, reporting the failing case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*);
    };
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that runs the body over many sampled inputs.
///
/// An optional leading `#![proptest_config(expr)]` sets the case count
/// for every property in the block.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl ($cfg); $($rest)*);
    };
    (@impl ($cfg:expr); ) => {};
    (@impl ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
            for _case in 0..config.cases {
                $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)*
                $body
            }
        }
        $crate::proptest!(@impl ($cfg); $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@impl ($crate::ProptestConfig::default()); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn strategies_sample_in_bounds() {
        let mut rng = crate::TestRng::from_name("bounds");
        for _ in 0..1000 {
            let x = crate::Strategy::sample(&(3usize..10), &mut rng);
            assert!((3..10).contains(&x));
            let (a, b) = crate::Strategy::sample(&(0u8..5, 1u64..4), &mut rng);
            assert!(a < 5 && (1..4).contains(&b));
            let v = crate::Strategy::sample(&prop::collection::vec(0u32..7, 2..6), &mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 7));
            let s = crate::Strategy::sample(&prop::sample::select(vec![2usize, 4, 8]), &mut rng);
            assert!([2, 4, 8].contains(&s));
        }
    }

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = crate::TestRng::from_name("x");
        let mut b = crate::TestRng::from_name("x");
        let mut c = crate::TestRng::from_name("y");
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro wires arguments, strategies, and assertions together.
        #[test]
        fn macro_generates_runnable_properties(
            a in 1usize..100,
            b in 0u64..10,
            v in prop::collection::vec(0u8..3, 1..5),
        ) {
            prop_assert!((1..100).contains(&a));
            prop_assert_eq!(b < 10, true, "b = {}", b);
            prop_assert!(!v.is_empty() && v.len() < 5);
        }
    }
}
