// analyzer-fixture: crates/kernels/src/pool_capture.rs
//! Known-bad: pool closures capturing shared mutable state. Partitions
//! must stay independent and merge through the ordered return path —
//! racing on a capture destroys bit-identical replay.
//! Never compiled — input for the analyzer's own test suite.

use std::cell::RefCell;

pub fn mutates_captured_accumulator(pool: &Pool, parts: usize) {
    let mut total = 0u64;
    let _ = pool.map_partitions(parts, |i| {
        total += i as u64; //~ r5-pool-capture
        i
    });
    let _ = total;
}

pub fn mut_borrows_captured_state(pool: &Pool, acc: &mut Scratch, parts: usize) {
    let _ = pool.map_partitions(parts, |i| {
        refill(&mut acc); //~ r5-pool-capture
        i
    });
}

pub fn captures_interior_mutability(pool: &Pool, parts: usize) {
    let scratch: RefCell<Vec<u64>> = RefCell::new(Vec::new());
    let _ = pool.map_partitions(parts, |i| {
        scratch.borrow_mut().push(i as u64); //~ r5-pool-capture
        i
    });
}

pub fn assigns_through_captured_field(pool: &Pool, state: &mut State, parts: usize) {
    let _ = pool.map_partitions(parts, |i| {
        state.counters[i] = i as u64; //~ r5-pool-capture
        i
    });
}

pub fn partition_local_state_is_fine(pool: &Pool, parts: usize) {
    let _ = pool.map_partitions(parts, |i| {
        let mut local = 0u64;
        (0..i).for_each(|j| {
            local += j as u64; // ok: owned by this partition's closure
        });
        local as usize
    });
}

pub fn param_mutation_is_fine(pool: &Pool, replicas: &mut [Replica], horizon: u64) {
    pool.for_each_mut(replicas, |_, r| {
        r.clock = horizon; // ok: `r` is the partition's own item
        r.ticks += 1; // ok: same
    });
}

pub fn immutable_capture_is_fine(pool: &Pool, bias: u64, parts: usize) {
    let _ = pool.map_partitions(parts, move |i| i + bias as usize); // ok: read-only
}
