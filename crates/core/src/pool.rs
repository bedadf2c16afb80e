//! A persistent work-stealing pool for per-segment work.
//!
//! The hybrid engine's branch-segment bitmap "allows for parallelization
//! of segment scanning" (§3.4); the hybrid merge uses this pool to decode
//! its per-segment change sets in parallel, and the benchmark harness to
//! load datasets. Workers are spawned once per pool and parked between
//! calls, and callers submit one task per *segment* to a work-stealing
//! deque (`crossbeam::deque`), so idle workers steal the tail of a skewed
//! segment-size distribution instead of waiting it out.
//!
//! [`ScanPool::run`] is scoped: tasks may borrow from the caller's stack
//! (the engine's segments, a merge plan) because `run` does not return
//! until every submitted task has completed — the same guarantee
//! `std::thread::scope` provides, enforced here with a completion latch.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crossbeam::deque::{Injector, Steal, Stealer, Worker};

/// A type-erased, lifetime-erased task. Safety: see [`ScanPool::run`].
type Job = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    injector: Injector<Job>,
    stealers: Vec<Stealer<Job>>,
    shutdown: AtomicBool,
    /// Wakeup channel for parked workers: the generation counter bumps on
    /// every submission batch and on shutdown.
    gen: Mutex<u64>,
    wake: Condvar,
}

impl Shared {
    /// Steals one job from the injector or any sibling deque. `Retry`
    /// outcomes (contention races in the real lock-free crossbeam deques;
    /// never produced by the mutex shim) are looped on, per the
    /// crossbeam-deque contract — treating `Retry` as "empty" could strand
    /// queued jobs behind a waiting caller.
    fn find_job(&self, skip: Option<usize>) -> Option<Job> {
        loop {
            let mut contended = false;
            match self.injector.steal() {
                Steal::Success(job) => return Some(job),
                Steal::Retry => contended = true,
                Steal::Empty => {}
            }
            for (i, stealer) in self.stealers.iter().enumerate() {
                if Some(i) == skip {
                    continue;
                }
                match stealer.steal() {
                    Steal::Success(job) => return Some(job),
                    Steal::Retry => contended = true,
                    Steal::Empty => {}
                }
            }
            if !contended {
                return None;
            }
        }
    }

    fn notify(&self) {
        let mut gen = self.gen.lock().unwrap();
        *gen += 1;
        drop(gen);
        self.wake.notify_all();
    }
}

/// Tracks outstanding tasks of one `run` batch.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn new(n: usize) -> Self {
        Latch {
            remaining: Mutex::new(n),
            done: Condvar::new(),
        }
    }

    fn count_down(&self) {
        let mut left = self.remaining.lock().unwrap();
        *left -= 1;
        if *left == 0 {
            self.done.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        *self.remaining.lock().unwrap() == 0
    }

    fn wait(&self) {
        let mut left = self.remaining.lock().unwrap();
        while *left > 0 {
            left = self.done.wait(left).unwrap();
        }
    }
}

/// A fixed set of worker threads executing per-segment tasks, sized once
/// per engine and reused across every call.
pub struct ScanPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ScanPool {
    /// Creates a pool with `threads` workers. Zero workers is valid: the
    /// calling thread of [`ScanPool::run`] always participates, so a
    /// zero-worker pool executes batches inline with no cross-thread
    /// traffic — the right configuration on single-core machines.
    pub fn new(threads: usize) -> ScanPool {
        let deques: Vec<Worker<Job>> = (0..threads).map(|_| Worker::new_lifo()).collect();
        let stealers = deques.iter().map(|d| d.stealer()).collect();
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers,
            shutdown: AtomicBool::new(false),
            gen: Mutex::new(0),
            wake: Condvar::new(),
        });
        let workers = deques
            .into_iter()
            .enumerate()
            .map(|(i, local)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("decibel-scan-{i}"))
                    .spawn(move || worker_loop(i, local, shared))
                    .expect("spawning scan worker")
            })
            .collect();
        ScanPool { shared, workers }
    }

    /// Default worker count: the machine's available parallelism minus the
    /// calling thread (which executes tasks too while it waits), so a scan
    /// never runs more executors than cores. Zero on single-core machines.
    pub fn default_threads() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get() - 1)
            .unwrap_or(1)
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Runs every task to completion, in the pool plus the calling thread,
    /// and returns their results in task order. Panics from tasks are
    /// resumed on the caller.
    ///
    /// Tasks may borrow the caller's stack (`'env` outlives this call but
    /// not `'static`): the lifetime is erased when the task is queued, which
    /// is sound because this function blocks on a completion latch until
    /// every queued task has run — no task can outlive the borrowed data.
    pub fn run<'env, T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        F: FnOnce() -> T + Send + 'env,
        T: Send + 'env,
    {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        let latch = Latch::new(n);
        let results: Vec<Mutex<Option<std::thread::Result<T>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        {
            let latch = &latch;
            let results = &results;
            for (i, task) in tasks.into_iter().enumerate() {
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(task));
                    *results[i].lock().unwrap() = Some(outcome);
                    latch.count_down();
                });
                // SAFETY: the latch wait below keeps every borrow in `job`
                // alive until the job has finished executing.
                let job: Job = unsafe { std::mem::transmute(job) };
                self.shared.injector.push(job);
            }
        }
        self.shared.notify();
        // The caller participates instead of blocking: with one task or a
        // single-core pool this degrades gracefully to inline execution.
        while !latch.is_done() {
            match self.shared.find_job(None) {
                Some(job) => job(),
                None => latch.wait(),
            }
        }
        results
            .into_iter()
            .map(|cell| {
                match cell
                    .into_inner()
                    .unwrap()
                    .expect("scan task completed without storing a result")
                {
                    Ok(v) => v,
                    Err(panic) => resume_unwind(panic),
                }
            })
            .collect()
    }
}

impl Drop for ScanPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.notify();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// How many extra jobs a worker moves from the injector into its local
/// deque per refill. Keeping a small local run lets siblings steal the
/// surplus instead of contending on the injector for every job.
const REFILL_BATCH: usize = 4;

/// Takes one job to run now plus up to `REFILL_BATCH` more into `local`
/// for this worker (or a stealing sibling) to consume next.
fn refill(local: &Worker<Job>, shared: &Shared) -> Option<Job> {
    let first = loop {
        match shared.injector.steal() {
            Steal::Success(job) => break job,
            Steal::Retry => continue,
            Steal::Empty => return None,
        }
    };
    for _ in 0..REFILL_BATCH {
        match shared.injector.steal() {
            Steal::Success(job) => local.push(job),
            Steal::Retry => continue,
            Steal::Empty => break,
        }
    }
    Some(first)
}

fn worker_loop(index: usize, local: Worker<Job>, shared: Arc<Shared>) {
    loop {
        let job = local
            .pop()
            .or_else(|| refill(&local, &shared))
            .or_else(|| shared.find_job(Some(index)));
        match job {
            Some(job) => job(),
            None => {
                let mut gen = shared.gen.lock().unwrap();
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Re-check under the lock: a batch submitted between the
                // failed steal above and acquiring the lock must not be
                // slept through (`notify` bumps the generation under this
                // lock, after its pushes).
                if !shared.injector.is_empty() {
                    continue;
                }
                let seen = *gen;
                while *gen == seen && !shared.shutdown.load(Ordering::SeqCst) {
                    gen = shared.wake.wait(gen).unwrap();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_borrowing_tasks_in_order() {
        let pool = ScanPool::new(3);
        let data = [10u64, 20, 30, 40, 50, 60, 70];
        let tasks: Vec<_> = data.iter().map(|&x| move || x * 2).collect();
        assert_eq!(pool.run(tasks), vec![20, 40, 60, 80, 100, 120, 140]);
        // The pool is reusable: a second batch sees fresh results.
        let tasks: Vec<_> = data.iter().map(|&x| move || x + 1).collect();
        assert_eq!(pool.run(tasks), vec![11, 21, 31, 41, 51, 61, 71]);
    }

    #[test]
    fn skewed_tasks_complete() {
        let pool = ScanPool::new(2);
        let counter = AtomicUsize::new(0);
        let tasks: Vec<_> = (0..64usize)
            .map(|i| {
                let counter = &counter;
                move || {
                    // One task much heavier than the rest.
                    if i == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                    counter.fetch_add(1, Ordering::SeqCst) + i - i
                }
            })
            .collect();
        let out = pool.run(tasks);
        assert_eq!(out.len(), 64);
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn empty_batch_is_noop() {
        let pool = ScanPool::new(1);
        let out: Vec<u32> = pool.run(Vec::<fn() -> u32>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = ScanPool::new(0);
        assert_eq!(pool.threads(), 0);
        let caller = std::thread::current().id();
        let out = pool.run(vec![move || std::thread::current().id() == caller; 5]);
        assert_eq!(out, vec![true; 5]);
    }

    #[test]
    fn task_panic_propagates_to_caller() {
        let pool = ScanPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(vec![
                Box::new(|| 1u32) as Box<dyn FnOnce() -> u32 + Send>,
                Box::new(|| panic!("scan task boom")),
            ])
        }));
        assert!(result.is_err());
        // The pool survives a panicking batch.
        assert_eq!(pool.run(vec![|| 7u32]), vec![7]);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = ScanPool::new(4);
        assert_eq!(pool.threads(), 4);
        drop(pool); // must not hang
    }
}
