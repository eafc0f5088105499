//! A machine-speed reference. This sandbox has slow spells: for minutes at
//! a time everything — this loop, a simulator pass, a kernel — runs up to
//! 1.3x slower, with CPU time equal to wall time (nothing in the guest
//! shows it). A median over passes cannot remove a spell that covers the
//! whole run, so host-clock metrics are expressed in *reference seconds*:
//! each timing is divided by how much slower than [`REFERENCE_UNIT_S`] a
//! fixed unit of work ran right next to it. Measured here over 46 runs
//! spanning quiet and slow spells, that halves the run-to-run spread of
//! `host_req_per_s` (5.6 % -> 2.9 % on `agentic_deep`, 7.8 % -> 3.3 % on
//! `functional_chat`) and removes the spells' bias; it cannot remove it
//! all, because a spell slows memory-bound code more than this loop.
//!
//! The unit is plain `std` code in this package (ordered-map churn with
//! small heap allocations, then a float sweep — the simulator's own mix),
//! so a change to the crates under test cannot move it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Wall seconds of one unit on the reference machine (2-core Xeon 2.1 GHz
/// sandbox, quiet). A constant, so normalized numbers keep their meaning
/// across commits and machines.
pub const REFERENCE_UNIT_S: f64 = 0.005;

/// One fixed unit of work; returns its wall seconds.
fn unit() -> f64 {
    let t0 = Instant::now();
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..20_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.entry(x >> 40).or_default().extend([i, x, i ^ x]);
    }
    let mut sum = 0.0f64;
    for _ in 0..4 {
        for (k, v) in &map {
            sum += (*k as f64).sqrt() + v.iter().map(|&w| w as f64 * 1e-12).sum::<f64>();
        }
    }
    let keys: Vec<u64> = map.keys().copied().step_by(2).collect();
    for k in keys {
        map.remove(&k);
    }
    black_box((sum, map.len()));
    t0.elapsed().as_secs_f64()
}

/// How many times slower than the reference the machine is right now:
/// the median of `units` units over [`REFERENCE_UNIT_S`].
#[must_use]
pub fn slowdown(units: usize) -> f64 {
    let samples: Vec<f64> = (0..units.max(1)).map(|_| unit()).collect();
    median(&samples) / REFERENCE_UNIT_S
}
