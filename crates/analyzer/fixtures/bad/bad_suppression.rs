// analyzer-fixture: crates/core/src/bad_suppression.rs
//! Known-bad: malformed suppressions are themselves violations, and a
//! bare suppression does not silence the underlying finding.
//! Never compiled — input for the analyzer's own test suite.

pub fn bare(pool: &Pool) -> Vec<f32> {
    // lint:allow(r2-float-reduce) //~ r4-suppression
    pool.map_partitions(|c| c.iter().sum::<f32>()) //~ r2-float-reduce
}

pub fn unknown_rule(pool: &Pool) -> Vec<f32> {
    // lint:allow(no-such-rule): reason given but rule is bogus //~ r4-suppression
    pool.map_partitions(|c| c.iter().sum::<f32>()) //~ r2-float-reduce
}

pub fn empty_reason(pool: &Pool) -> Vec<f32> {
    // lint:allow(r2-float-reduce):
    //~^ r4-suppression
    pool.map_partitions(|c| c.iter().sum::<f32>()) //~ r2-float-reduce
}

pub fn stale_waiver(x: u32) -> u32 {
    // lint:allow(r2-float-reduce): the reduction this once covered was refactored away //~ r4-suppression
    x + 1
}
