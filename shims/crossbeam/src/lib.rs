//! Offline stand-in for the subset of `crossbeam` used by this
//! workspace: scoped fork/join for data-parallel kernels.
//!
//! The build environment cannot reach a crates.io registry, so the
//! workspace vendors an equivalent built on [`std::thread::scope`].

#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

/// Scoped fork/join for data-parallel kernels.
///
/// A [`pool::Pool`] is a partition width and a task count; it owns no
/// threads. A call that splits its work into `parts >= 2` partitions
/// runs partition 0 on the caller and partitions `1..parts` on threads
/// of one [`std::thread::scope`], and returns once every partition has
/// finished. A two-way fork/join costs about 43 µs per call on a 2-core
/// Xeon, and width 2 does not beat width 1 in `benchmark/`'s traced
/// runs there: `kernels.speedup_2t` 0.86 (0.76–1.02) and
/// `router.step_speedup_2t` 0.09 (0.08–0.09), median (range) of three
/// runs (DESIGN.md §12). Width 1 runs everything inline, with no thread
/// and no dispatch cost.
///
/// Determinism contract: partition indices are assigned in fixed
/// contiguous ranges, every partition is computed independently, and
/// the caller receives results in index order regardless of thread
/// interleaving. Callers that combine partition outputs must do so
/// sequentially in that order (see `pensieve-kernels`), which keeps
/// multi-threaded results bit-identical to the single-threaded path.
pub mod pool {
    #![deny(clippy::indexing_slicing)]

    use std::panic::resume_unwind;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// A partition width and a count of the partition tasks run at it.
    /// Clones share the count.
    #[derive(Debug, Clone)]
    pub struct Pool {
        threads: usize,
        tasks_total: Arc<AtomicU64>,
    }

    impl Pool {
        /// A pool that partitions work `threads` ways: the caller runs
        /// one partition and each call spawns `threads - 1` scoped
        /// threads for the rest. `threads <= 1` runs everything inline.
        #[must_use]
        pub fn new(threads: usize) -> Self {
            Pool {
                threads: threads.max(1),
                tasks_total: Arc::default(),
            }
        }

        /// The inline pool: partition width 1, zero dispatch cost. What
        /// every owner holds until a wider pool is installed.
        #[must_use]
        pub fn serial() -> Self {
            Pool::new(1)
        }

        /// Partition width (1 = serial).
        #[must_use]
        pub fn threads(&self) -> usize {
            self.threads
        }

        /// Partition tasks run by this pool and its clones: one per
        /// partition of a fork/join, one per inline run.
        #[must_use]
        pub fn tasks_total(&self) -> u64 {
            self.tasks_total.load(Ordering::Relaxed)
        }

        /// Maps `f` over indices `0..n`, split into at most
        /// [`Pool::threads`] contiguous partitions, and returns the
        /// outputs in index order. With a serial pool (or `n <= 1`) the
        /// map runs inline — same results, no dispatch cost.
        ///
        /// # Panics
        ///
        /// Propagates a panic from any partition, after every partition
        /// has finished.
        pub fn map_partitions<T, F>(&self, n: usize, f: F) -> Vec<T>
        where
            T: Send,
            F: Fn(usize) -> T + Sync,
        {
            let parts = self.threads.min(n);
            if parts <= 1 {
                if n == 0 {
                    return Vec::new();
                }
                self.count_tasks(1);
                return (0..n).map(f).collect();
            }
            let per = n.div_ceil(parts);
            let ranges = (0..n).step_by(per).map(|lo| lo..n.min(lo + per));
            let outs = self.fork_join(ranges, |r| r.map(&f).collect::<Vec<_>>());
            outs.into_iter().flatten().collect()
        }

        /// Runs `f(i, &mut items[i])` for every item, split into at most
        /// [`Pool::threads`] contiguous partitions.
        ///
        /// Items are disjoint, so this is deterministic for any `f` whose
        /// effect on item `i` depends only on item `i`.
        ///
        /// # Panics
        ///
        /// Propagates a panic from any partition, after every partition
        /// has finished.
        pub fn for_each_mut<T, F>(&self, items: &mut [T], f: F)
        where
            T: Send,
            F: Fn(usize, &mut T) + Sync,
        {
            let n = items.len();
            let parts = self.threads.min(n);
            if parts <= 1 {
                if n > 0 {
                    self.count_tasks(1);
                }
                for (i, item) in items.iter_mut().enumerate() {
                    f(i, item);
                }
                return;
            }
            let per = n.div_ceil(parts);
            self.fork_join(items.chunks_mut(per).enumerate(), |(t, chunk)| {
                for (i, item) in chunk.iter_mut().enumerate() {
                    f(t * per + i, item);
                }
            });
        }

        /// Adds `n` to [`Pool::tasks_total`].
        fn count_tasks(&self, n: usize) {
            self.tasks_total.fetch_add(n as u64, Ordering::Relaxed);
        }

        /// Runs `task` on each of the (at least one) partition `inputs`:
        /// the first on the caller, the rest on scoped threads. Returns
        /// the outputs in input order once every partition has finished;
        /// a panic from any partition resumes on the caller only then.
        #[expect(
            clippy::disallowed_methods,
            reason = "the workspace's one fork/join: its threads live for this call, which joins every one before it returns or resumes a panic"
        )]
        fn fork_join<I: Send, R: Send>(
            &self,
            inputs: impl IntoIterator<Item = I>,
            task: impl Fn(I) -> R + Sync,
        ) -> Vec<R> {
            let task = &task;
            let mut inputs = inputs.into_iter();
            let first = inputs.next();
            std::thread::scope(|s| {
                let spawned: Vec<_> = inputs.map(|i| s.spawn(move || task(i))).collect();
                self.count_tasks(1 + spawned.len());
                // A panic on the caller or out of a `join` unwinds out of
                // the scope, which joins the remaining threads first.
                let mine = first.map(task);
                let theirs = spawned
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| resume_unwind(p)));
                mine.into_iter().chain(theirs).collect()
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::pool::Pool;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn pool_results_in_partition_order() {
        for threads in [1usize, 2, 3, 4, 9] {
            let got = Pool::new(threads).map_partitions(7, |i| i * i);
            assert_eq!(got, vec![0, 1, 4, 9, 16, 25, 36], "threads={threads}");
        }
    }

    #[test]
    fn pool_handles_empty_and_singleton() {
        let p = Pool::new(4);
        assert_eq!(p.map_partitions(0, |i| i), Vec::<usize>::new());
        assert_eq!(p.map_partitions(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn pool_shares_borrowed_data() {
        let data: Vec<u64> = (0..100).collect();
        let sums =
            Pool::new(3).map_partitions(4, |p| data[p * 25..(p + 1) * 25].iter().sum::<u64>());
        assert_eq!(sums.iter().sum::<u64>(), (0..100).sum());
    }

    #[test]
    fn pool_propagates_worker_panic() {
        let r = catch_unwind(|| {
            Pool::new(2).map_partitions(4, |i| {
                assert!(i != 3, "boom");
                i
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn persistent_pool_matches_inline_results() {
        let pool = Pool::new(4);
        for n in [0usize, 1, 2, 7, 64, 100] {
            let serial: Vec<usize> = (0..n).map(|i| i * 3 + 1).collect();
            assert_eq!(pool.map_partitions(n, |i| i * 3 + 1), serial, "n={n}");
        }
    }

    #[test]
    fn pool_panic_propagates_and_pool_survives() {
        let pool = Pool::new(4);
        let r = catch_unwind(|| {
            pool.map_partitions(8, |i| {
                assert!(i != 6, "boom");
                i
            })
        });
        assert!(r.is_err(), "partition panic must propagate to the caller");
        // The same pool still computes correct batches afterwards.
        let got = pool.map_partitions(8, |i| i + 1);
        assert_eq!(got, (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn pool_caller_partition_panic_propagates() {
        let pool = Pool::new(2);
        let r = catch_unwind(|| {
            pool.map_partitions(4, |i| {
                assert!(i != 0, "boom on the caller's own partition");
                i
            })
        });
        assert!(r.is_err());
        assert_eq!(pool.map_partitions(2, |i| i), vec![0, 1]);
    }

    #[test]
    fn nested_dispatch_does_not_deadlock() {
        let pool = Pool::new(2);
        let inner = pool.clone();
        let got = pool.map_partitions(2, |i| inner.map_partitions(2, move |j| i * 10 + j));
        assert_eq!(got, vec![vec![0, 1], vec![10, 11]]);
    }

    #[test]
    fn for_each_mut_visits_each_item_exactly_once() {
        for width in [1usize, 2, 4] {
            let pool = Pool::new(width);
            for n in [0usize, 1, 3, 10] {
                // (visit count, index the closure was handed)
                let mut items = vec![(0u32, usize::MAX); n];
                pool.for_each_mut(&mut items, |i, item| {
                    item.0 += 1;
                    item.1 = i;
                });
                let want: Vec<_> = (0..n).map(|i| (1, i)).collect();
                assert_eq!(items, want, "width={width} n={n}");
            }
        }
    }

    #[test]
    fn stats_count_tasks_and_queue_depth() {
        let serial = Pool::serial();
        assert_eq!(serial.threads(), 1);
        let _ = serial.map_partitions(4, |i| i * i);
        assert_eq!(serial.tasks_total(), 1, "an inline run is one task");
        serial.for_each_mut(&mut [0u8; 4], |_, v| *v += 1);
        assert_eq!(serial.tasks_total(), 2);
        serial.for_each_mut(&mut [0u8; 0], |_, v| *v += 1);
        let _ = serial.map_partitions(0, |i| i);
        assert_eq!(serial.tasks_total(), 2, "empty input runs nothing");

        let pool = Pool::new(4);
        assert_eq!(pool.threads(), 4);
        let _ = pool.map_partitions(8, |i| i * i);
        assert_eq!(pool.tasks_total(), 4, "one task per partition");
        pool.for_each_mut(&mut [0u8; 3], |_, v| *v += 1);
        assert_eq!(pool.tasks_total(), 7, "partitions are capped by n");
        let _ = pool.map_partitions(1, |i| i);
        assert_eq!(pool.tasks_total(), 8, "n = 1 runs inline");
        let _ = pool.map_partitions(5, |i| i);
        assert_eq!(pool.tasks_total(), 11, "[0,2) [2,4) [4,5), no empty fourth");
        assert_eq!(pool.clone().tasks_total(), 11, "clones share the count");
    }

    #[test]
    fn for_each_mut_panic_resumes_after_the_barrier() {
        let pool = Pool::new(4);
        // Partitions are [0,1] [2,3] [4,5] [6,7]; item 2 panics.
        let mut visits = [0u32; 8];
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.for_each_mut(&mut visits, |i, v| {
                assert!(i != 2, "boom");
                *v += 1;
            });
        }));
        assert!(r.is_err(), "partition panic must propagate to the caller");
        // Every other partition ran to completion before the panic was
        // re-raised, so no borrow of `visits` outlived the call.
        assert_eq!(visits, [1, 1, 0, 0, 1, 1, 1, 1]);
    }

    /// Of eight items in four partitions, item 2 (the first of partition
    /// 1, a spawned thread) panics, and every other item that runs waits
    /// for that panic before it counts itself done. A panic resumed
    /// before the other partitions finished would find fewer than six.
    fn done_after_the_panic(i: usize, panicked: &AtomicBool, done: &AtomicUsize) {
        if i == 2 {
            panicked.store(true, Ordering::SeqCst);
            panic!("boom in a spawned partition");
        }
        while !panicked.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        done.fetch_add(1, Ordering::SeqCst);
    }

    #[test]
    fn map_partitions_spawned_panic_waits_for_every_partition() {
        let (panicked, done) = (AtomicBool::new(false), AtomicUsize::new(0));
        let r = catch_unwind(|| {
            Pool::new(4).map_partitions(8, |i| done_after_the_panic(i, &panicked, &done))
        });
        assert!(r.is_err(), "partition panic must propagate to the caller");
        assert_eq!(done.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn for_each_mut_spawned_panic_waits_for_every_partition() {
        let (panicked, done) = (AtomicBool::new(false), AtomicUsize::new(0));
        let mut items = [(); 8];
        let r = catch_unwind(AssertUnwindSafe(|| {
            Pool::new(4).for_each_mut(&mut items, |i, ()| {
                done_after_the_panic(i, &panicked, &done)
            });
        }));
        assert!(r.is_err(), "partition panic must propagate to the caller");
        assert_eq!(done.load(Ordering::SeqCst), 6);
    }
}
