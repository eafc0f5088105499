//! Known-bad: the four ways a partition closure could share mutable
//! state with its siblings. `Pool::map_partitions` and
//! `Pool::for_each_mut` take `F: Fn(..) + Sync`, so each is a compile
//! error; `scripts/clippy_control.sh` fails unless exactly these four
//! are reported, so the partition-local forms at the end must compile.
//! Never built by the workspace.

use std::cell::{Cell, RefCell};

use crossbeam::pool::Pool;

/// E0594: assigns to a capture.
pub fn assigns_a_capture(pool: &Pool) -> u64 {
    let mut total = 0u64;
    pool.map_partitions(4, |i| total += i as u64);
    total
}

fn refill(scratch: &mut Vec<usize>, i: usize) {
    scratch.push(i);
}

/// E0596: borrows a capture mutably.
pub fn borrows_a_capture_mutably(pool: &Pool) -> Vec<usize> {
    let mut scratch = Vec::new();
    pool.map_partitions(4, |i| refill(&mut scratch, i));
    scratch
}

/// E0277: a captured `RefCell` is not `Sync`.
pub fn captures_a_ref_cell(pool: &Pool) -> Vec<usize> {
    let scratch = RefCell::new(Vec::new());
    pool.map_partitions(4, |i| scratch.borrow_mut().push(i));
    scratch.into_inner()
}

/// E0277: a captured `Cell` is not `Sync`.
pub fn captures_a_cell(pool: &Pool, items: &mut [u64]) -> usize {
    let hits = Cell::new(0);
    pool.for_each_mut(items, |_, item| {
        *item += 1;
        hits.set(hits.get() + 1);
    });
    hits.get()
}

/// Compiles: the accumulator and the per-item `&mut` each belong to one
/// partition, and the results merge through the ordered return path.
pub fn accumulates_per_partition(pool: &Pool, items: &mut [u64]) -> u64 {
    pool.for_each_mut(items, |i, item| *item = i as u64);
    let sums = pool.map_partitions(4, |i| {
        let mut local = 0u64;
        (0..i as u64).for_each(|j| local += j);
        local
    });
    sums.into_iter().sum()
}
