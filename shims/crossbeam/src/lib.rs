//! Offline drop-in replacement for the subset of `crossbeam` used by this
//! workspace: a persistent worker pool for data-parallel kernels, and
//! the interleaving model that checks its protocol ([`model`]).
//!
//! The build environment cannot reach a crates.io registry, so the
//! workspace vendors an equivalent built on [`std::sync::Mutex`] +
//! [`std::sync::Condvar`].

pub mod model;

/// A **persistent** worker pool for data-parallel kernels.
///
/// Earlier revisions spawned and joined OS threads on every
/// [`pool::Pool::map_partitions`] call (`std::thread::scope` fork/join), which
/// cost hundreds of microseconds per kernel invocation and erased the
/// parallel path's gains — generation batches actually ran *slower* with
/// more threads. A [`pool::Pool`] instead owns long-lived workers that
/// park on a condvar between batches; dispatching a batch is one mutex
/// push plus a wakeup, so the per-call overhead is a few microseconds and
/// amortizes across every scheduler iteration of a serving run.
///
/// Determinism contract (unchanged from the scoped pool): partition
/// indices are assigned in fixed contiguous ranges, every partition is
/// computed independently, and the caller receives results in index order
/// regardless of thread interleaving. Callers that combine partition
/// outputs must do so sequentially in that order (see `pensieve-kernels`),
/// which keeps multi-threaded results bit-identical to the
/// single-threaded path.
///
/// Soundness: batch closures borrow the caller's stack (weights, KV
/// pools, query matrices). The pool erases those lifetimes behind raw
/// pointers to hand work to its `'static` workers, which is sound because
/// the dispatching call **always blocks until every partition of its
/// batch has completed** — including when a partition panics (the payload
/// is captured, the latch still counts down, and the panic resumes on the
/// caller after the barrier). No borrow outlives the call.
pub mod pool {
    use std::any::Any;
    use std::collections::{BTreeMap, VecDeque};
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
    use std::thread::JoinHandle;

    /// A lifetime-erased unit of work: one partition of one batch.
    type Job = Box<dyn FnOnce() + Send>;

    /// Locks a mutex, riding through poisoning: pool state stays
    /// consistent under panicking jobs because jobs run inside
    /// `catch_unwind`, so a poisoned lock only means a *caller* panicked
    /// between operations and the protected data was not mid-mutation.
    fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    struct Queue {
        jobs: VecDeque<Job>,
        shutdown: bool,
    }

    /// State shared between the pool handle(s) and the workers.
    struct Shared {
        queue: Mutex<Queue>,
        ready: Condvar,
        /// Partition tasks executed over the pool's lifetime (inline
        /// serial runs count as one task).
        tasks_total: AtomicU64,
    }

    /// Counter snapshot returned by [`Pool::stats`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct PoolStats {
        /// Partition width of the pool (1 = serial).
        pub threads: usize,
        /// Partition tasks executed over the pool's lifetime.
        pub tasks_total: u64,
        /// Jobs currently queued and not yet picked up.
        pub queue_depth: usize,
    }

    /// Completion latch for one batch: counts outstanding enqueued
    /// partitions and stashes the first panic payload.
    struct Batch {
        remaining: Mutex<usize>,
        done: Condvar,
        panic: Mutex<Option<Box<dyn Any + Send>>>,
    }

    impl Batch {
        fn complete(&self, payload: Option<Box<dyn Any + Send>>) {
            if let Some(p) = payload {
                let mut slot = lock(&self.panic);
                slot.get_or_insert(p);
            }
            let mut rem = lock(&self.remaining);
            *rem -= 1;
            if *rem == 0 {
                drop(rem);
                self.done.notify_all();
            }
        }
    }

    struct Inner {
        shared: Arc<Shared>,
        threads: usize,
        workers: Vec<JoinHandle<()>>,
    }

    impl Drop for Inner {
        fn drop(&mut self) {
            {
                let mut q = lock(&self.shared.queue);
                q.shutdown = true;
            }
            self.shared.ready.notify_all();
            for h in self.workers.drain(..) {
                // A worker that panicked outside a job cannot exist (jobs
                // run under catch_unwind); a join error is ignored rather
                // than double-panicking in drop.
                let _ = h.join();
            }
        }
    }

    /// A cheaply cloneable handle to a set of persistent parked workers.
    /// All clones share the workers; the workers shut down and join when
    /// the last handle drops.
    #[derive(Clone)]
    pub struct Pool {
        inner: Arc<Inner>,
    }

    // A panicking partition leaves the pool fully consistent: jobs run
    // under `catch_unwind`, the latch still counts down, and the payload
    // is re-raised on the dispatching caller — so observing the pool
    // after a caught panic is safe.
    impl std::panic::UnwindSafe for Pool {}
    impl std::panic::RefUnwindSafe for Pool {}

    impl std::fmt::Debug for Pool {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Pool")
                .field("threads", &self.inner.threads)
                .finish()
        }
    }

    /// Trampoline that recovers the concrete partition closure from its
    /// erased pointer. Monomorphized per closure type so the erased
    /// pointer is a thin `*const ()`.
    ///
    /// # Safety
    ///
    /// `data` must point to a live `F` for the duration of the call; the
    /// dispatching batch guarantees this by blocking until every
    /// partition completes.
    unsafe fn call_task<F: Fn(usize) + Sync>(data: *const (), t: usize) {
        // SAFETY: see function contract — `data` was created from a live
        // `&F` by `run_batch`, which outlives this call.
        let f = unsafe { &*data.cast::<F>() };
        f(t);
    }

    /// A raw pointer blessed to cross threads. Every use site bounds the
    /// pointee's lifetime by a batch barrier and writes only disjoint
    /// ranges, so the usual `Send`/`Sync` auto-trait caution does not
    /// apply.
    #[derive(Clone, Copy)]
    struct SendPtr<T: ?Sized>(*const T);

    impl<T: ?Sized> SendPtr<T> {
        /// Accessor (rather than field access) so closures capture the
        /// whole `Send + Sync` wrapper under RFC 2229 disjoint capture,
        /// not the bare raw-pointer field.
        fn get(&self) -> *const T {
            self.0
        }
    }

    // SAFETY: `SendPtr` is only constructed in `run_batch` from borrows
    // that remain live (and unmutated, for shared data) until the batch
    // barrier; partition tasks touch disjoint data.
    unsafe impl<T: ?Sized> Send for SendPtr<T> {}
    // SAFETY: as above — shared access is read-only, mutable access is
    // range-disjoint per partition.
    unsafe impl<T: ?Sized> Sync for SendPtr<T> {}

    impl Pool {
        /// Creates a pool that partitions work `threads` ways: the caller
        /// participates as one worker, so `threads - 1` OS threads are
        /// spawned and parked. `threads <= 1` spawns nothing and runs
        /// everything inline.
        #[must_use]
        pub fn new(threads: usize) -> Self {
            let threads = threads.max(1);
            let shared = Arc::new(Shared {
                queue: Mutex::new(Queue {
                    jobs: VecDeque::new(),
                    shutdown: false,
                }),
                ready: Condvar::new(),
                tasks_total: AtomicU64::new(0),
            });
            let workers = (1..threads)
                .map(|i| {
                    let shared = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name(format!("pensieve-pool-{i}"))
                        .spawn(move || worker_loop(&shared))
                        .expect("spawn pool worker")
                })
                .collect();
            Pool {
                inner: Arc::new(Inner {
                    shared,
                    threads,
                    workers,
                }),
            }
        }

        /// The inline pool: partition width 1, no workers, zero dispatch
        /// cost. What every owner holds until a wider pool is installed.
        #[must_use]
        pub fn serial() -> Self {
            Pool::new(1)
        }

        /// A process-wide shared pool of the given width, created on
        /// first use and kept alive for the process lifetime, so call
        /// sites that carry a thread count instead of a handle (tests and
        /// benches sweeping widths) still get persistent workers.
        #[must_use]
        pub fn global(threads: usize) -> Pool {
            static POOLS: OnceLock<Mutex<BTreeMap<usize, Pool>>> = OnceLock::new();
            let pools = POOLS.get_or_init(|| Mutex::new(BTreeMap::new()));
            lock(pools)
                .entry(threads.max(1))
                .or_insert_with(|| Pool::new(threads))
                .clone()
        }

        /// Partition width (1 = serial).
        #[must_use]
        pub fn threads(&self) -> usize {
            self.inner.threads
        }

        /// Counter snapshot.
        #[must_use]
        pub fn stats(&self) -> PoolStats {
            PoolStats {
                threads: self.inner.threads,
                tasks_total: self.inner.shared.tasks_total.load(Ordering::Relaxed),
                queue_depth: lock(&self.inner.shared.queue).jobs.len(),
            }
        }

        /// Maps `f` over indices `0..n`, split into at most
        /// [`Pool::threads`] contiguous partitions, and returns the
        /// outputs in index order. With a serial pool (or `n <= 1`) the
        /// map runs inline — same results, no dispatch cost.
        ///
        /// # Panics
        ///
        /// Propagates a panic from any partition (after every partition
        /// of the batch has finished, so no borrow escapes).
        pub fn map_partitions<T, F>(&self, n: usize, f: F) -> Vec<T>
        where
            T: Send,
            F: Fn(usize) -> T + Sync,
        {
            let parts = self.inner.threads.min(n);
            if parts <= 1 {
                if n == 0 {
                    return Vec::new();
                }
                self.count_tasks(1);
                return (0..n).map(f).collect();
            }
            let per = n.div_ceil(parts);
            let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
            let optr = SendPtr(out.as_mut_ptr().cast_const());
            let f = &f;
            let task = move |t: usize| {
                let lo = t * per;
                let hi = n.min(lo + per);
                for i in lo..hi {
                    let v = f(i);
                    // SAFETY: partitions cover disjoint index ranges of a
                    // buffer that outlives the batch barrier; overwriting
                    // the pre-initialized `None` drops nothing.
                    unsafe {
                        optr.get().cast_mut().add(i).write(Some(v));
                    }
                }
            };
            self.run_batch(parts, &task);
            out.into_iter()
                .map(|v| v.expect("every partition filled"))
                .collect()
        }

        /// Runs `f(i, &mut items[i])` for every item, split into at most
        /// [`Pool::threads`] contiguous partitions.
        ///
        /// Items are disjoint, so this is deterministic for any `f` whose
        /// effect on item `i` depends only on item `i`.
        ///
        /// # Panics
        ///
        /// Propagates a panic from any partition (after the batch
        /// barrier).
        pub fn for_each_mut<T, F>(&self, items: &mut [T], f: F)
        where
            T: Send,
            F: Fn(usize, &mut T) + Sync,
        {
            let n = items.len();
            let parts = self.inner.threads.min(n);
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
            let base = SendPtr(items.as_mut_ptr().cast_const());
            let f = &f;
            let task = move |t: usize| {
                let lo = t * per;
                let hi = n.min(lo + per);
                for i in lo..hi {
                    // SAFETY: partitions cover disjoint index ranges of a
                    // slice that outlives the batch barrier.
                    let item = unsafe { &mut *base.get().cast_mut().add(i) };
                    f(i, item);
                }
            };
            self.run_batch(parts, &task);
        }

        /// Adds `n` to the lifetime task counter (an inline run counts
        /// as one task, a dispatched batch as one per partition).
        fn count_tasks(&self, n: usize) {
            self.inner
                .shared
                .tasks_total
                .fetch_add(n as u64, Ordering::Relaxed);
        }

        /// Dispatches one batch of `parts >= 2` partition tasks:
        /// partitions `1..parts` are enqueued for the workers, the caller
        /// runs partition 0 itself, then helps drain the queue, and
        /// finally blocks on the batch latch. Returns only once every
        /// partition has completed; a panic from any partition resumes on
        /// the caller *after* the barrier.
        fn run_batch<F: Fn(usize) + Sync>(&self, parts: usize, task: &F) {
            debug_assert!(parts >= 2);
            let shared = &self.inner.shared;
            let batch = Arc::new(Batch {
                remaining: Mutex::new(parts - 1),
                done: Condvar::new(),
                panic: Mutex::new(None),
            });
            let data = SendPtr(std::ptr::from_ref(task).cast::<()>());
            let call: unsafe fn(*const (), usize) = call_task::<F>;
            {
                let mut q = lock(&shared.queue);
                for t in 1..parts {
                    let b = Arc::clone(&batch);
                    q.jobs.push_back(Box::new(move || {
                        // SAFETY: `data` points at `task` on the
                        // dispatching frame, which blocks until this
                        // batch's latch reaches zero — the borrow is
                        // live for the whole call.
                        let r = catch_unwind(AssertUnwindSafe(|| unsafe { call(data.get(), t) }));
                        b.complete(r.err());
                    }));
                }
            }
            shared.ready.notify_all();
            self.count_tasks(parts);
            // The caller is worker 0.
            let mine = catch_unwind(AssertUnwindSafe(|| task(0)));
            // Help drain the queue instead of blocking: on machines with
            // fewer cores than partitions the caller does most of the
            // work itself, and nested dispatch from inside a worker can
            // never deadlock because the dispatcher executes its own
            // sub-batch when nobody else does.
            loop {
                let job = lock(&shared.queue).jobs.pop_front();
                let Some(job) = job else { break };
                job();
            }
            let mut rem = lock(&batch.remaining);
            while *rem > 0 {
                rem = batch
                    .done
                    .wait(rem)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            drop(rem);
            if let Some(payload) = lock(&batch.panic).take() {
                resume_unwind(payload);
            }
            if let Err(payload) = mine {
                resume_unwind(payload);
            }
        }
    }

    fn worker_loop(shared: &Shared) {
        loop {
            let job = {
                let mut q = lock(&shared.queue);
                loop {
                    if let Some(j) = q.jobs.pop_front() {
                        break j;
                    }
                    if q.shutdown {
                        return;
                    }
                    q = shared
                        .ready
                        .wait(q)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };
            job();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::pool::Pool;

    #[test]
    fn pool_results_in_partition_order() {
        for threads in [1usize, 2, 3, 4, 9] {
            let got = Pool::global(threads).map_partitions(7, |i| i * i);
            assert_eq!(got, vec![0, 1, 4, 9, 16, 25, 36], "threads={threads}");
        }
    }

    #[test]
    fn pool_handles_empty_and_singleton() {
        let global = Pool::global(4);
        assert_eq!(global.map_partitions(0, |i| i), Vec::<usize>::new());
        assert_eq!(global.map_partitions(1, |i| i + 10), vec![10]);
        let p = Pool::new(4);
        assert_eq!(p.map_partitions(0, |i| i), Vec::<usize>::new());
        assert_eq!(p.map_partitions(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn pool_shares_borrowed_data() {
        let data: Vec<u64> = (0..100).collect();
        let sums =
            Pool::global(3).map_partitions(4, |p| data[p * 25..(p + 1) * 25].iter().sum::<u64>());
        assert_eq!(sums.iter().sum::<u64>(), (0..100).sum());
    }

    #[test]
    fn pool_propagates_worker_panic() {
        let r = std::panic::catch_unwind(|| {
            Pool::global(2).map_partitions(4, |i| {
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
    fn persistent_pool_amortizes_across_batches() {
        let pool = Pool::new(3);
        let data: Vec<u64> = (0..999).collect();
        for _ in 0..50 {
            let sums = pool.map_partitions(9, |p| data[p * 111..(p + 1) * 111].iter().sum::<u64>());
            assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
        }
        assert!(pool.stats().tasks_total >= 150, "tasks were counted");
    }

    #[test]
    fn pool_drop_joins_workers_cleanly() {
        // `drop` blocks on every worker's JoinHandle, so this test hangs
        // (and the suite times out) if shutdown were broken.
        let pool = Pool::new(8);
        let _ = pool.map_partitions(32, |i| i);
        let clone = pool.clone();
        drop(pool);
        // Clones keep the workers alive.
        assert_eq!(clone.map_partitions(3, |i| i), vec![0, 1, 2]);
        drop(clone);
    }

    #[test]
    fn pool_panic_propagates_and_pool_survives() {
        let pool = Pool::new(4);
        let r = std::panic::catch_unwind(|| {
            pool.map_partitions(8, |i| {
                assert!(i != 6, "boom");
                i
            })
        });
        assert!(r.is_err(), "partition panic must propagate to the caller");
        // The workers stayed parked and healthy: the same pool still
        // computes correct batches afterwards.
        let got = pool.map_partitions(8, |i| i + 1);
        assert_eq!(got, (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn pool_caller_partition_panic_propagates() {
        let pool = Pool::new(2);
        let r = std::panic::catch_unwind(|| {
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
        assert_eq!(serial.stats().threads, 1);
        let _ = serial.map_partitions(4, |i| i * i);
        assert_eq!(serial.stats().tasks_total, 1, "an inline run is one task");
        serial.for_each_mut(&mut [0u8; 4], |_, v| *v += 1);
        assert_eq!(serial.stats().tasks_total, 2);
        serial.for_each_mut(&mut [0u8; 0], |_, v| *v += 1);
        let _ = serial.map_partitions(0, |i| i);
        assert_eq!(serial.stats().tasks_total, 2, "empty input runs nothing");

        let pool = Pool::new(4);
        assert_eq!(pool.stats().threads, 4);
        let _ = pool.map_partitions(8, |i| i * i);
        assert_eq!(pool.stats().tasks_total, 4, "one task per partition");
        pool.for_each_mut(&mut [0u8; 3], |_, v| *v += 1);
        assert_eq!(pool.stats().tasks_total, 7, "partitions are capped by n");
        let _ = pool.map_partitions(1, |i| i);
        assert_eq!(pool.stats().tasks_total, 8, "n = 1 runs inline");
        assert_eq!(pool.stats().queue_depth, 0, "queue drains at the barrier");
    }

    #[test]
    fn for_each_mut_panic_resumes_after_the_barrier() {
        let pool = Pool::new(4);
        // Partitions are [0,1] [2,3] [4,5] [6,7]; item 2 panics.
        let mut visits = [0u32; 8];
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.for_each_mut(&mut visits, |i, v| {
                assert!(i != 2, "boom");
                *v += 1;
            });
        }));
        assert!(r.is_err(), "partition panic must propagate to the caller");
        // Every other partition ran to completion before the panic was
        // re-raised, so no borrow of `visits` outlived the call.
        assert_eq!(visits, [1, 1, 0, 0, 1, 1, 1, 1]);
        assert_eq!(pool.stats().queue_depth, 0);
    }

    #[test]
    fn global_pools_are_shared_per_width() {
        let a = Pool::global(3);
        let b = Pool::global(3);
        let t0 = a.stats().tasks_total;
        let _ = b.map_partitions(6, |i| i);
        assert!(a.stats().tasks_total > t0, "handles share one pool");
    }
}
