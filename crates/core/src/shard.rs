//! Branch-sharded commit locks.
//!
//! The sharded commit path (see the [`db`](crate::db) module docs) lets
//! commits to *disjoint* branches run their apply/prepare work
//! concurrently while commits to the *same* branch still serialize. The
//! unit of exclusion is a [`ShardSet`]: a fixed pool of reader-writer
//! locks, with each branch hashed onto one of them. Two branches on the
//! same shard falsely conflict (they serialize even though they are
//! disjoint), which is harmless for correctness and rare for realistic
//! branch counts; two branches on different shards never contend.
//!
//! The lock hierarchy (outermost first) is: store lock (shared for
//! commits, exclusive for admin/flush) → shard lock → the WAL/graph
//! sequencing mutex → engine-internal structure locks. Shard locks are
//! always acquired while holding the store lock in *shared* mode, so any
//! path that takes the store lock exclusively
//! ([`Database::flush`](crate::db::Database::flush),
//! branch/merge admin operations) has automatically quiesced every shard.
//! [`ShardSet::quiesce`] additionally acquires every shard write lock in
//! fixed index order, for callers that must pin all shards without the
//! store-exclusive shortcut.

use decibel_common::ids::BranchId;
use decibel_common::record::Record;
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Number of commit-lock shards. Branches hash onto shards by
/// `branch % SHARDS`, so up to this many disjoint-branch commits can be in
/// their critical sections at once. A small fixed power of two keeps the
/// set allocation-free and the quiesce order trivial.
pub const SHARDS: usize = 32;

/// A fixed pool of per-branch commit locks (hash-sharded by branch id).
///
/// The [`Database`](crate::db::Database) owns one `ShardSet`; its commit
/// path takes the writing branch's shard lock exclusively around apply +
/// prepare + sequence, so disjoint branches (different shards) overlap and
/// same-branch commits serialize.
pub struct ShardSet {
    locks: Vec<RwLock<()>>,
}

impl Default for ShardSet {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardSet {
    /// Creates the full shard pool.
    pub fn new() -> ShardSet {
        ShardSet {
            locks: (0..SHARDS).map(|_| RwLock::new(())).collect(),
        }
    }

    /// The shard index `branch` hashes to.
    pub fn shard_of(&self, branch: BranchId) -> usize {
        branch.raw() as usize % self.locks.len()
    }

    /// Exclusive commit lock for `branch`'s shard: held by a committing
    /// session across apply, prepare, and sequencing.
    pub fn write(&self, branch: BranchId) -> RwLockWriteGuard<'_, ()> {
        self.locks[self.shard_of(branch)].write()
    }

    /// Non-blocking [`ShardSet::write`]: `None` when the shard is
    /// currently held. The commit path probes with this first so it can
    /// count contended acquisitions before falling back to blocking.
    pub fn try_write(&self, branch: BranchId) -> Option<RwLockWriteGuard<'_, ()>> {
        self.locks[self.shard_of(branch)].try_write()
    }

    /// Shared lock for `branch`'s shard: held by readers that need a
    /// commit-free snapshot of the branch head (non-session queries).
    pub fn read(&self, branch: BranchId) -> RwLockReadGuard<'_, ()> {
        self.locks[self.shard_of(branch)].read()
    }

    /// Shared locks for several branches' shards, acquired in ascending
    /// shard order (deduplicated) so concurrent quiescers cannot deadlock.
    pub fn read_many(&self, branches: &[BranchId]) -> Vec<RwLockReadGuard<'_, ()>> {
        let mut shards: Vec<usize> = branches.iter().map(|&b| self.shard_of(b)).collect();
        shards.sort_unstable();
        shards.dedup();
        shards.into_iter().map(|s| self.locks[s].read()).collect()
    }

    /// Acquires *every* shard write lock in fixed (index) order, blocking
    /// out all committers — the checkpoint/shutdown quiesce step. Holding
    /// the returned guards guarantees no commit is inside its critical
    /// section, so the id watermark (`next_txn - 1`) is torn-free.
    pub fn quiesce(&self) -> Vec<RwLockWriteGuard<'_, ()>> {
        self.locks.iter().map(|l| l.write()).collect()
    }
}

/// One buffered session write, in the shape the commit path applies to an
/// engine (see [`VersionedStore::apply_ops`](crate::store::VersionedStore::apply_ops)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionOp {
    /// Insert a new record.
    Insert(Record),
    /// Replace the live copy of the record's key.
    Update(Record),
    /// Remove a key.
    Delete(u64),
}

/// An engine's commit snapshot, built under the shard lock *before* the
/// global sequencing section.
///
/// `prepare_commit` does the per-branch heavy lifting (bitmap snapshot,
/// commit-store append) concurrently with other shards;
/// `finalize_commit` then consumes the token inside the sequencing
/// critical section to stamp the commit into the shared version graph in
/// transaction-id order. The payload is engine-private: a list of
/// `(slot, ordinal)` pairs locating the prepared snapshot(s).
#[derive(Debug)]
pub struct PreparedCommit(pub Vec<(u64, u64)>);
