// analyzer-fixture: crates/core/src/test_code.rs
//! A known-good file: float reductions and guards held across a pool
//! dispatch, confined to test code.
//! Never compiled — input for the analyzer's own test suite.

pub fn shipping_code(x: Option<u32>) -> Option<u32> {
    x.map(|v| v + 1)
}

/// Doc examples are comments to the lexer; calls inside them are inert:
///
/// ```
/// let held = stats.lock();
/// pool.map_partitions(|c| c.iter().sum::<f32>());
/// ```
pub fn documented() {}

#[cfg(test)]
mod tests {
    #[test]
    fn reductions_and_held_guards_are_fine_in_tests() {
        let pool = Pool::new(2);
        let stats = Mutex::new(0u64);
        let held = stats.lock();
        let sums = pool.map_partitions(|c| c.iter().sum::<f32>());
        assert_eq!(sums.len(), 2);
        drop(held);
    }
}
