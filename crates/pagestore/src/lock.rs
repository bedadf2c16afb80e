//! Two-phase locking on branches.
//!
//! Decibel isolates concurrent sessions with two-phase locking: "Concurrent
//! transactions by multiple users on the same version (but different
//! sessions) are isolated from each other through two-phase locking" and
//! "Concurrent commits to a branch are prevented via the use of two-phase
//! locking" (§2.2.3). Since writes append whole records and version
//! visibility is governed by branch metadata, branch-granularity locks are
//! sufficient: readers of a branch share a lock; writers (inserts, updates,
//! deletes, commits, merges) take it exclusively.
//!
//! Deadlocks are resolved by timeout: an acquisition that cannot proceed
//! within the configured wait budget fails with
//! [`DbError::LockContention`], and the caller's transaction releases
//! everything it holds (growing phase over, shrinking phase on drop) —
//! the standard timeout-based deadlock-victim scheme. A caller that must
//! not wait at all uses the one-shot [`TxnLocks::try_lock`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use decibel_common::error::{DbError, Result};
use decibel_common::hash::FxHashMap;
use decibel_common::ids::BranchId;
use parking_lot::{Condvar, Mutex};

/// Lock compatibility mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared — many readers.
    Shared,
    /// Exclusive — single writer, no readers.
    Exclusive,
}

#[derive(Default)]
struct LockState {
    readers: u32,
    writer: bool,
}

struct Table {
    locks: FxHashMap<BranchId, LockState>,
}

/// The branch lock table. One per database instance.
pub struct LockManager {
    table: Mutex<Table>,
    released: Condvar,
    timeout: Duration,
}

impl LockManager {
    /// Creates a lock manager whose acquisitions wait at most `timeout`
    /// before being declared a deadlock victim.
    pub fn new(timeout: Duration) -> Self {
        LockManager {
            table: Mutex::new(Table {
                locks: FxHashMap::default(),
            }),
            released: Condvar::new(),
            timeout,
        }
    }

    /// Starts a transaction's lock scope. Locks acquired through the
    /// returned guard are all released when it drops (strict 2PL: no lock
    /// is released before the transaction ends).
    ///
    /// The scope holds its own `Arc` to the manager, so it is `'static` and
    /// can live inside session objects that are sent across threads.
    pub fn begin(self: &Arc<Self>) -> TxnLocks {
        TxnLocks {
            mgr: Arc::clone(self),
            held: Vec::new(),
        }
    }

    fn try_grant(table: &mut Table, branch: BranchId, mode: LockMode, upgrade: bool) -> bool {
        let state = table.locks.entry(branch).or_default();
        match mode {
            LockMode::Shared => {
                if state.writer {
                    false
                } else {
                    state.readers += 1;
                    true
                }
            }
            LockMode::Exclusive => {
                let own_read = if upgrade { 1 } else { 0 };
                if state.writer || state.readers > own_read {
                    false
                } else {
                    if upgrade {
                        state.readers -= 1;
                    }
                    state.writer = true;
                    true
                }
            }
        }
    }

    fn release(&self, branch: BranchId, mode: LockMode) {
        let mut table = self.table.lock();
        let remove = {
            let state = table.locks.get_mut(&branch).expect("releasing unheld lock");
            match mode {
                LockMode::Shared => state.readers -= 1,
                LockMode::Exclusive => state.writer = false,
            }
            state.readers == 0 && !state.writer
        };
        if remove {
            table.locks.remove(&branch);
        }
        drop(table);
        self.released.notify_all();
    }
}

impl Default for LockManager {
    fn default() -> Self {
        LockManager::new(Duration::from_secs(1))
    }
}

/// A transaction's set of held locks (strict two-phase: grown via
/// [`TxnLocks::lock`], released together on drop).
pub struct TxnLocks {
    mgr: Arc<LockManager>,
    held: Vec<(BranchId, LockMode)>,
}

impl TxnLocks {
    /// Acquires `mode` on `branch`, blocking up to the manager's timeout.
    ///
    /// Re-acquisitions are no-ops; a shared holder asking for exclusive is
    /// upgraded when it is the sole reader.
    pub fn lock(&mut self, branch: BranchId, mode: LockMode) -> Result<()> {
        if self.acquire(branch, mode, true) {
            Ok(())
        } else {
            Err(DbError::LockContention {
                what: format!("branch {branch} ({mode:?})"),
            })
        }
    }

    /// One-shot [`TxnLocks::lock`]: grants `mode` on `branch` if it is
    /// free right now and returns `false` otherwise, without waiting. A
    /// refused attempt leaves the scope exactly as it was.
    pub fn try_lock(&mut self, branch: BranchId, mode: LockMode) -> bool {
        self.acquire(branch, mode, false)
    }

    fn acquire(&mut self, branch: BranchId, mode: LockMode, wait: bool) -> bool {
        let already = self.held.iter().position(|&(b, _)| b == branch);
        match (already, mode) {
            // Shared or exclusive both satisfy a read.
            (Some(_), LockMode::Shared) => return true,
            (Some(i), LockMode::Exclusive) if self.held[i].1 == LockMode::Exclusive => {
                return true;
            }
            _ => {}
        }
        let upgrade = matches!(already, Some(i) if self.held[i].1 == LockMode::Shared
            && mode == LockMode::Exclusive);

        let deadline = wait.then(|| Instant::now() + self.mgr.timeout);
        let mut table = self.mgr.table.lock();
        while !LockManager::try_grant(&mut table, branch, mode, upgrade) {
            let Some(deadline) = deadline else {
                return false;
            };
            if self
                .mgr
                .released
                .wait_until(&mut table, deadline)
                .timed_out()
            {
                return false;
            }
        }
        drop(table);
        match already {
            Some(i) => self.held[i].1 = LockMode::Exclusive,
            None => self.held.push((branch, mode)),
        }
        true
    }

    /// Number of distinct branches locked.
    pub fn held(&self) -> usize {
        self.held.len()
    }
}

impl Drop for TxnLocks {
    fn drop(&mut self) {
        for &(branch, mode) in &self.held {
            self.mgr.release(branch, mode);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    #[test]
    fn shared_locks_coexist() {
        let mgr = Arc::new(LockManager::default());
        let mut a = mgr.begin();
        let mut b = mgr.begin();
        a.lock(BranchId(0), LockMode::Shared).unwrap();
        b.lock(BranchId(0), LockMode::Shared).unwrap();
    }

    #[test]
    fn exclusive_blocks_shared_until_release() {
        let mgr = Arc::new(LockManager::new(Duration::from_millis(2000)));
        let order = Arc::new(AtomicU32::new(0));
        let mut w = mgr.begin();
        w.lock(BranchId(0), LockMode::Exclusive).unwrap();
        let t = {
            let mgr = Arc::clone(&mgr);
            let order = Arc::clone(&order);
            std::thread::spawn(move || {
                let mut r = mgr.begin();
                r.lock(BranchId(0), LockMode::Shared).unwrap();
                assert_eq!(
                    order.load(Ordering::SeqCst),
                    1,
                    "reader ran before writer released"
                );
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        order.store(1, Ordering::SeqCst);
        drop(w);
        t.join().unwrap();
    }

    #[test]
    fn conflicting_exclusive_times_out() {
        let mgr = Arc::new(LockManager::new(Duration::from_millis(50)));
        let mut a = mgr.begin();
        a.lock(BranchId(1), LockMode::Exclusive).unwrap();
        let mut b = mgr.begin();
        let err = b.lock(BranchId(1), LockMode::Exclusive).unwrap_err();
        assert!(matches!(err, DbError::LockContention { .. }));
    }

    #[test]
    fn reacquire_is_idempotent() {
        let mgr = Arc::new(LockManager::default());
        let mut a = mgr.begin();
        a.lock(BranchId(2), LockMode::Exclusive).unwrap();
        a.lock(BranchId(2), LockMode::Exclusive).unwrap();
        a.lock(BranchId(2), LockMode::Shared).unwrap();
        assert_eq!(a.held(), 1);
    }

    #[test]
    fn sole_reader_upgrades() {
        let mgr = Arc::new(LockManager::new(Duration::from_millis(50)));
        let mut a = mgr.begin();
        a.lock(BranchId(3), LockMode::Shared).unwrap();
        a.lock(BranchId(3), LockMode::Exclusive).unwrap();
        // Now exclusive: another shared must fail.
        let mut b = mgr.begin();
        assert!(b.lock(BranchId(3), LockMode::Shared).is_err());
    }

    #[test]
    fn upgrade_with_other_readers_times_out() {
        let mgr = Arc::new(LockManager::new(Duration::from_millis(50)));
        let mut a = mgr.begin();
        let mut b = mgr.begin();
        a.lock(BranchId(4), LockMode::Shared).unwrap();
        b.lock(BranchId(4), LockMode::Shared).unwrap();
        assert!(a.lock(BranchId(4), LockMode::Exclusive).is_err());
    }

    #[test]
    fn drop_releases_everything() {
        let mgr = Arc::new(LockManager::new(Duration::from_millis(50)));
        {
            let mut a = mgr.begin();
            a.lock(BranchId(5), LockMode::Exclusive).unwrap();
            a.lock(BranchId(6), LockMode::Exclusive).unwrap();
        }
        let mut b = mgr.begin();
        b.lock(BranchId(5), LockMode::Exclusive).unwrap();
        b.lock(BranchId(6), LockMode::Exclusive).unwrap();
    }

    #[test]
    fn try_lock_grants_free_locks_and_refuses_taken_ones_without_waiting() {
        let mgr = Arc::new(LockManager::new(Duration::from_secs(5)));
        let mut a = mgr.begin();
        assert!(a.try_lock(BranchId(10), LockMode::Shared));
        assert!(a.try_lock(BranchId(10), LockMode::Exclusive)); // sole reader upgrades
        let mut b = mgr.begin();
        let start = Instant::now();
        assert!(!b.try_lock(BranchId(10), LockMode::Shared));
        assert!(!b.try_lock(BranchId(10), LockMode::Exclusive));
        assert!(start.elapsed() < Duration::from_secs(1), "try_lock waited");
        assert_eq!(b.held(), 0, "a refused attempt holds nothing");
        drop(a);
        assert!(b.try_lock(BranchId(10), LockMode::Exclusive));
    }

    #[test]
    fn distinct_branches_do_not_conflict() {
        let mgr = Arc::new(LockManager::default());
        let mut a = mgr.begin();
        let mut b = mgr.begin();
        a.lock(BranchId(7), LockMode::Exclusive).unwrap();
        b.lock(BranchId(8), LockMode::Exclusive).unwrap();
    }

    #[test]
    fn contended_counter_stays_consistent() {
        let mgr = Arc::new(LockManager::new(Duration::from_secs(5)));
        let counter = Arc::new(AtomicU32::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let mgr = Arc::clone(&mgr);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    let mut t = mgr.begin();
                    t.lock(BranchId(9), LockMode::Exclusive).unwrap();
                    let v = counter.load(Ordering::SeqCst);
                    std::hint::spin_loop();
                    counter.store(v + 1, Ordering::SeqCst);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 400);
    }
}
