// analyzer-fixture: crates/kernels/src/pool_clean.rs
//! A known-good file: pool dispatch done right — guards dropped before
//! fan-out, partitions touching only their own item or closure-local
//! state, and results merged through the ordered return path. Never
//! compiled — input for the analyzer's own test suite.

use std::sync::Mutex;

pub fn guard_released_before_dispatch(pool: &Pool, stats: &Mutex<u64>, parts: usize) {
    let held = lock(stats);
    let snapshot = *held;
    drop(held);
    let sums = pool.map_partitions(parts, move |i| i + snapshot as usize);
    let _ = sums;
}

pub fn per_item_mutation(pool: &Pool, replicas: &mut [Replica], horizon: SimTime) {
    pool.for_each_mut(replicas, |_, r| {
        if r.alive {
            r.backend.run_until(horizon);
            r.windows += 1;
        }
    });
}

pub fn closure_local_accumulation(pool: &Pool, parts: usize) -> usize {
    pool.map_partitions(parts, |i| {
        let mut acc = 0usize;
        (0..i).for_each(|j| {
            acc += j;
        });
        acc
    })
    .into_iter()
    .sum()
}

pub fn ordered_merge(pool: &Pool, rows: usize) -> Vec<u64> {
    // Each partition returns its own result; the pool's return order is
    // partition order, so the merge is deterministic by construction.
    pool.map_partitions(rows, |i| i as u64 * 2)
}
