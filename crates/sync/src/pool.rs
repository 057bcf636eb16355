//! A hand-rolled work-stealing thread pool over the shim primitives.
//!
//! No solver or engine path runs on it: a solve and every repair run on the
//! calling thread. It stays because the benchmark package's `sync` probe
//! still times it, and it goes with that probe.
//!
//! Design, in one paragraph: each worker owns a deque; jobs are pushed
//! round-robin across the deques; a worker pops from the *front* of its own
//! deque and, when empty, steals from the *back* of a victim's. Admission is
//! mediated by a single gate (`queued` counter + condvar) with a reservation
//! protocol — jobs are pushed *before* the counter is raised, and a woken
//! worker *decrements first, then searches*, so an outstanding reservation
//! always finds a job somewhere (pushed − taken ≥ reserved − taken ≥ 1) and
//! the steal-search loop terminates without the gate having to know which
//! deque holds what.
//!
//! Two properties matter more than raw throughput here:
//!
//! * **Determinism of results.** [`WorkStealingPool::run`] returns results in
//!   *submission order* no matter which worker ran what when; callers that
//!   partition work deterministically and merge by slot index get answers
//!   that are byte-identical at any thread count.
//! * **Model-checkability.** The pool is built exclusively from the crate's
//!   shim [`Mutex`]/[`Condvar`]/[`thread`] types, so inside a model run
//!   every lock, wait, and yield is a schedule point and `model::explore` can
//!   drive the pool through adversarial interleavings. Tests that explore the
//!   pool construct one explicitly with [`WorkStealingPool::with_threads`].
//!
//! Worker panics do not strand the caller: a drop guard marks the job
//! complete even on unwind, and the missing result is reported as a panic in
//! [`WorkStealingPool::run`] on the submitting thread.

use crate::{thread, Condvar, LockRank, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Admission state: jobs pushed but not yet reserved by a worker, plus the
/// shutdown flag. Guarded by one mutex so "reserve a unit" is atomic.
struct Gate {
    queued: usize,
    stop: bool,
}

struct Shared {
    /// One deque per worker; owner pops the front, thieves pop the back.
    queues: Vec<Mutex<VecDeque<Job>>>,
    gate: Mutex<Gate>,
    work_ready: Condvar,
}

/// Per-batch completion tracking for [`WorkStealingPool::run`].
struct Batch {
    remaining: Mutex<usize>,
    done: Condvar,
}

/// Decrements the batch counter on drop — including panic unwinds — so a
/// panicking job can never leave the submitting thread waiting forever.
struct CompletionGuard<'a> {
    batch: &'a Batch,
}

impl Drop for CompletionGuard<'_> {
    fn drop(&mut self) {
        let mut remaining = self.batch.remaining.lock();
        *remaining -= 1;
        if *remaining == 0 {
            self.batch.done.notify_all();
        }
    }
}

/// A fixed-width work-stealing thread pool. See the module docs for the
/// design; see [`resolve_threads`] for how solver code should size it.
pub struct WorkStealingPool {
    shared: Arc<Shared>,
    handles: Vec<thread::JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for WorkStealingPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkStealingPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl WorkStealingPool {
    /// Spawns a pool with exactly `threads` workers (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queues: (0..threads)
                .map(|_| Mutex::new(VecDeque::new(), LockRank::PoolQueue))
                .collect(),
            gate: Mutex::new(
                Gate {
                    queued: 0,
                    stop: false,
                },
                LockRank::PoolGate,
            ),
            work_ready: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("pref-pool-{index}"))
                    .spawn(move || worker_loop(index, &shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self {
            shared,
            handles,
            threads,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes every job on the pool and returns the results **in
    /// submission order** (slot `i` holds the result of `jobs[i]`), blocking
    /// the calling thread until the whole batch has completed.
    ///
    /// # Panics
    /// Panics if any job panicked on a worker (the batch still drains, so the
    /// pool is not poisoned for later calls from other threads).
    pub fn run<R, F>(&self, jobs: Vec<F>) -> Vec<R>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let results: Arc<Mutex<Vec<Option<R>>>> = Arc::new(Mutex::new(
            (0..n).map(|_| None).collect(),
            LockRank::PoolResults,
        ));
        let batch = Arc::new(Batch {
            remaining: Mutex::new(n, LockRank::PoolRemaining),
            done: Condvar::new(),
        });
        for (slot, job) in jobs.into_iter().enumerate() {
            let results = Arc::clone(&results);
            let batch = Arc::clone(&batch);
            let wrapped: Job = Box::new(move || {
                let guard = CompletionGuard { batch: &batch };
                let value = job();
                results.lock()[slot] = Some(value);
                drop(guard);
            });
            // Push BEFORE raising `queued` (the reservation invariant).
            self.shared.queues[slot % self.threads]
                .lock()
                .push_back(wrapped);
        }
        {
            let mut gate = self.shared.gate.lock();
            gate.queued += n;
        }
        self.shared.work_ready.notify_all();
        {
            let mut remaining = batch.remaining.lock();
            while *remaining > 0 {
                remaining = batch.done.wait(remaining);
            }
        }
        let mut slots = results.lock();
        slots
            .iter_mut()
            .map(|slot| slot.take().expect("a pool job panicked on a worker"))
            .collect()
    }
}

impl Drop for WorkStealingPool {
    fn drop(&mut self) {
        {
            let mut gate = self.shared.gate.lock();
            gate.stop = true;
        }
        self.shared.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(index: usize, shared: &Shared) {
    loop {
        // Reserve one unit of work (or exit once stopped and drained).
        {
            let mut gate = shared.gate.lock();
            loop {
                if gate.queued > 0 {
                    gate.queued -= 1;
                    break;
                }
                if gate.stop {
                    return;
                }
                gate = shared.work_ready.wait(gate);
            }
        }
        let job = find_job(index, shared);
        job();
    }
}

/// Locates the job backing an outstanding reservation: own deque front first,
/// then every victim's back. The reservation invariant guarantees a job is in
/// *some* deque, so the retry loop terminates; the yield keeps the retry from
/// monopolizing a core (and is a schedule point under the model).
fn find_job(index: usize, shared: &Shared) -> Job {
    let width = shared.queues.len();
    loop {
        if let Some(job) = shared.queues[index].lock().pop_front() {
            return job;
        }
        for offset in 1..width {
            let victim = (index + offset) % width;
            if let Some(job) = shared.queues[victim].lock().pop_back() {
                return job;
            }
        }
        thread::yield_now();
    }
}

/// Resolves the worker count for a pool that is not sized explicitly. No
/// solver reads it; `SbOptions::threads` and `EngineOptions::threads` are
/// ignored.
///
/// An explicit option wins (clamped to at least 1); otherwise the machine's
/// available parallelism, capped at 8 (the batch phases stop scaling well
/// past the paper-scale working sets).
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    if let Some(n) = explicit {
        return n.max(1);
    }
    std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        for threads in [1, 2, 4, 8] {
            let pool = WorkStealingPool::with_threads(threads);
            let jobs: Vec<_> = (0..64_u64).map(|i| move || i * i).collect();
            let got = pool.run(jobs);
            let want: Vec<u64> = (0..64).map(|i| i * i).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        let pool = WorkStealingPool::with_threads(3);
        for round in 0..10_u64 {
            let jobs: Vec<_> = (0..7_u64).map(|i| move || round * 100 + i).collect();
            let got = pool.run(jobs);
            assert_eq!(got.len(), 7);
            assert_eq!(got[3], round * 100 + 3);
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let pool = WorkStealingPool::with_threads(2);
        let got: Vec<u64> = pool.run(Vec::<fn() -> u64>::new());
        assert!(got.is_empty());
    }

    #[test]
    fn batches_larger_than_width_complete() {
        let pool = WorkStealingPool::with_threads(2);
        let jobs: Vec<_> = (0..500_u64).map(|i| move || i + 1).collect();
        let got = pool.run(jobs);
        assert_eq!(got.iter().sum::<u64>(), (1..=500).sum());
    }

    #[test]
    fn concurrent_submitters_share_the_pool() {
        let pool = std::sync::Arc::new(WorkStealingPool::with_threads(4));
        let submitters: Vec<_> = (0..4_u64)
            .map(|s| {
                let pool = std::sync::Arc::clone(&pool);
                std::thread::spawn(move || {
                    let jobs: Vec<_> = (0..50_u64).map(|i| move || s * 1000 + i).collect();
                    pool.run(jobs)
                })
            })
            .collect();
        for (s, handle) in submitters.into_iter().enumerate() {
            let got = handle.join().unwrap();
            assert_eq!(got[49], s as u64 * 1000 + 49);
        }
    }

    #[test]
    fn drop_joins_workers_with_pending_noop() {
        let pool = WorkStealingPool::with_threads(4);
        drop(pool); // no work ever submitted; must not hang
    }

    #[test]
    fn resolve_threads_clamps_explicit_and_caps_the_default() {
        assert_eq!(resolve_threads(Some(4)), 4);
        assert_eq!(resolve_threads(Some(0)), 1);
        let machine = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
        assert_eq!(resolve_threads(None), machine);
    }
}
