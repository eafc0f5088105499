// analyzer-fixture: crates/core/src/suppressed.rs
//! A known-good file: every violation carries a reasoned suppression.
//! Never compiled — input for the analyzer's own test suite.

pub fn documented_invariant(pool: &Pool) -> Vec<f32> {
    // lint:allow(r2-float-reduce): each partition sums its own rows in a
    // fixed order; no partial crosses a partition boundary.
    pool.map_partitions(|c| c.iter().sum::<f32>())
}

pub fn trailing_form(pool: &Pool) -> Vec<f64> {
    pool.map_partitions(|c| c.iter().sum::<f64>()) // lint:allow(r2-float-reduce): per-partition sum
}

pub fn multi_line_reason(pool: &Pool, stats: &Mutex<u64>) {
    let held = stats.lock();
    pool
        // lint:allow(r5-lock-across-pool): the reason may spill across
        // several comment lines; the suppression still binds to the next
        // code line below.
        .map_partitions(4, |i| i);
    let _ = held;
}
