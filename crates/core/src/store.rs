//! The `VersionedStore` trait — the contract all three storage engines
//! implement.

use std::sync::Arc;

use decibel_common::ids::{BranchId, CommitId};
use decibel_common::record::Record;
use decibel_common::schema::Schema;
use decibel_common::Result;
use decibel_vgraph::VersionGraph;

use crate::query::plan::ScanPlan;
use crate::shard::{PreparedCommit, SessionOp};
use crate::types::{
    AnnotatedIter, AnnotatedSlotCursor, DiffResult, EngineKind, MergePolicy, MergeResult,
    RecordIter, SlotCursor, StoreStats, VersionRef,
};

/// A versioned relational storage engine: the operations of §2.2.3
/// (branch / commit / checkout / diff / merge) plus record modification and
/// the scan shapes the benchmark queries need (§4.3).
///
/// Implementations: [`TupleFirstEngine`](crate::engine::TupleFirstEngine),
/// [`VersionFirstEngine`](crate::engine::VersionFirstEngine), and
/// [`HybridEngine`](crate::engine::HybridEngine).
///
/// # Semantics shared by every engine
///
/// * Records are identified by primary key; updates append a complete new
///   copy (no-overwrite storage) and deletes never reclaim space, so
///   historical commits stay readable (§3.2 Data Modification).
/// * `commit` snapshots a branch's state into an immutable version; only
///   branch heads accept modifications (§2.2.3).
/// * `diff`/`merge` compare record *copies*: a record counts as "modified
///   in a branch" if the branch's live copy differs from the comparison
///   version's live copy.
///
/// # Engine-specific caveats
///
/// The version-first engine has no bitmap or key index; per §3.3 its
/// updates and deletes are *blind appends* (an update of an absent key
/// behaves as an insert; a delete of an absent key appends an inert
/// tombstone), whereas tuple-first and hybrid validate keys against their
/// per-branch primary-key indexes and return
/// [`DbError`](decibel_common::DbError)`::KeyNotFound` / `::DuplicateKey`.
///
/// # Thread safety and the sharded commit path
///
/// Implementations must be `Send + Sync`, and every `&self` method must be
/// safe to call from many threads at once. That now includes the *write*
/// path: [`insert`](VersionedStore::insert) /
/// [`update`](VersionedStore::update) / [`delete`](VersionedStore::delete)
/// / [`prepare_commit`](VersionedStore::prepare_commit) /
/// [`finalize_commit`](VersionedStore::finalize_commit) take `&self` and
/// guard the engine structures they mutate with fine-grained interior
/// locks, so the database can run commits to disjoint branches
/// concurrently under per-branch shard locks
/// ([`ShardSet`](crate::shard::ShardSet)) instead of one store-wide write
/// lock. Callers must still serialize *same-branch* writers (the database
/// does, via branch 2PL plus the shard lock); engines only promise that
/// writers on different branches and readers anywhere never race.
///
/// `&mut self` methods (branch creation, merge, flush, checkpoint) mutate
/// engine-structural state — segment lists, per-branch vectors — without
/// locking; the database grants them exclusivity by holding its store
/// lock in write mode, which also quiesces every shard.
pub trait VersionedStore: Send + Sync {
    /// Which storage scheme this engine implements.
    fn kind(&self) -> EngineKind;

    /// The relation's schema.
    fn schema(&self) -> &Schema;

    /// The version graph (shared DAG of commits and branches, §2.2.2).
    ///
    /// Returns an owned snapshot handle: the graph is copy-on-write
    /// ([`Arc`]) so readers traverse a consistent DAG without holding any
    /// engine lock while concurrent commits stamp new versions.
    fn graph(&self) -> Arc<VersionGraph>;

    /// Creates a branch named `name` rooted at `from` and returns its id.
    fn create_branch(&mut self, name: &str, from: VersionRef) -> Result<BranchId>;

    /// Commits the current state of `branch`, returning the new version id
    /// — [`prepare_commit`](VersionedStore::prepare_commit) +
    /// [`finalize_commit`](VersionedStore::finalize_commit) in one step,
    /// for callers outside the sharded commit path (replay, merges, admin).
    fn commit(&self, branch: BranchId) -> Result<CommitId> {
        let prep = self.prepare_commit(branch)?;
        self.finalize_commit(branch, prep)
    }

    /// First half of a commit: snapshots `branch`'s working state into its
    /// commit store and returns an opaque token locating the snapshot.
    /// Runs under the branch's shard lock, concurrently with other
    /// branches' prepares — this is the per-branch heavy lifting (bitmap
    /// clone, delta append) hoisted out of the global sequencing section.
    fn prepare_commit(&self, branch: BranchId) -> Result<PreparedCommit>;

    /// Second half of a commit: stamps the prepared snapshot into the
    /// shared version graph and commit map, returning the new commit id.
    /// The database calls this inside its sequencing critical section so
    /// commit ids are allocated in transaction-id order.
    fn finalize_commit(&self, branch: BranchId, prep: PreparedCommit) -> Result<CommitId>;

    /// Applies a sealed session's buffered writes to `branch`'s working
    /// state. Sets `*dirty` before the first mutation so the caller knows
    /// whether a failure left the engine diverged from the journal.
    fn apply_ops(&self, branch: BranchId, ops: &[SessionOp], dirty: &mut bool) -> Result<()> {
        self.graph().branch(branch)?;
        for op in ops {
            *dirty = true;
            match op {
                SessionOp::Insert(rec) => self.insert(branch, rec.clone())?,
                SessionOp::Update(rec) => self.update(branch, rec.clone())?,
                SessionOp::Delete(key) => {
                    self.delete(branch, *key)?;
                }
            }
        }
        Ok(())
    }

    /// Reconstructs the state of a committed version (Table 2's "checkout"
    /// operation), returning its live record count as a cheap integrity
    /// signal.
    fn checkout_version(&self, commit: CommitId) -> Result<u64>;

    /// Inserts a new record into a branch's working state.
    fn insert(&self, branch: BranchId, record: Record) -> Result<()>;

    /// Replaces the record with `record.key()` in a branch's working state
    /// by appending a new copy.
    fn update(&self, branch: BranchId, record: Record) -> Result<()>;

    /// Removes a key from a branch's working state. Returns whether the
    /// engine can attest the key existed (version-first cannot; it appends
    /// a tombstone and reports `true` unconditionally).
    fn delete(&self, branch: BranchId, key: u64) -> Result<bool>;

    /// Point lookup of `key` in a version.
    fn get(&self, version: VersionRef, key: u64) -> Result<Option<Record>>;

    /// Streams the live records of one version (benchmark Query 1).
    fn scan(&self, version: VersionRef) -> Result<RecordIter<'_>>;

    /// Streams the union of several branches' live records, each annotated
    /// with the branches containing it (benchmark Query 4).
    fn multi_scan(&self, branches: &[BranchId]) -> Result<AnnotatedIter<'_>>;

    /// Streams one version's live rows through the planned scan pipeline,
    /// as a lending cursor over **slot bytes on the pinned heap page**:
    /// rows failing `plan.predicate` are filtered out at page level
    /// ([`ScanPlan::page_predicate`](crate::query::plan::ScanPlan::page_predicate)),
    /// and each surviving row is yielded undecoded, with a resume token —
    /// pass a yielded token back as `from` to continue immediately after
    /// that row. `from = 0` starts from the beginning.
    ///
    /// This is the engines' one planned-scan primitive; everything that
    /// wants records ([`execute`](crate::query::execute), the chunked
    /// cursors) decodes the slot under `plan.projection` with
    /// [`Record::read_projected`], and the server copies the slot's
    /// projected image to the socket without building a `Record` at all.
    fn scan_pipeline(
        &self,
        version: VersionRef,
        plan: &ScanPlan,
        from: u64,
    ) -> Result<Box<dyn SlotCursor + '_>>;

    /// Multi-branch variant of [`VersionedStore::scan_pipeline`]: the
    /// filtered, resumable form of [`VersionedStore::multi_scan`], each
    /// slot annotated with the branches it is live in (computed before
    /// filtering).
    fn multi_scan_pipeline(
        &self,
        branches: &[BranchId],
        plan: &ScanPlan,
        from: u64,
    ) -> Result<Box<dyn AnnotatedSlotCursor + '_>>;

    /// Materialized multi-branch scan that is free to use intra-query
    /// parallelism. `threads` is a hint: values ≤ 1 request a sequential
    /// scan; larger values permit the engine to fan segment scans out over
    /// that many workers. The result is identical (same records, same
    /// order, same annotations) to draining [`VersionedStore::multi_scan`].
    ///
    /// The default implementation just materializes the sequential scan;
    /// the hybrid engine overrides it with a work-stealing per-segment
    /// parallel scan (the parallelism §3.4's branch-segment bitmap "allows
    /// for").
    fn par_multi_scan(
        &self,
        branches: &[BranchId],
        threads: usize,
    ) -> Result<Vec<(Record, Vec<BranchId>)>> {
        let _ = threads;
        self.multi_scan(branches)?.collect()
    }

    /// Materializes the symmetric difference of two versions (benchmark
    /// Query 2 uses one side of it).
    fn diff(&self, left: VersionRef, right: VersionRef) -> Result<DiffResult>;

    /// Merges `from` into `into`, creating a merge commit on `into`
    /// (§2.2.3 Merge). Conflicts are resolved by the policy's precedence
    /// and reported in the result.
    fn merge(&mut self, into: BranchId, from: BranchId, policy: MergePolicy)
        -> Result<MergeResult>;

    /// Number of live records in a version.
    fn live_count(&self, version: VersionRef) -> Result<u64> {
        let mut n = 0u64;
        for r in self.scan(version)? {
            r?;
            n += 1;
        }
        Ok(n)
    }

    /// Storage accounting for the experiment harness.
    fn stats(&self) -> StoreStats;

    /// Flushes buffered heap tails and persists the version graph.
    fn flush(&mut self) -> Result<()>;

    /// Checkpoint-flushes the engine: every durable structure — heap
    /// tails, version graph, commit-store delta files — is written out
    /// (and fsynced when the store was configured with `fsync`), then the
    /// engine's snapshot is returned: the metadata needed to reopen it
    /// from those files without journal replay (embedded graph, per-file
    /// coverage lengths, head bitmap columns, commit-store offsets).
    ///
    /// [`Database::flush`](crate::db::Database::flush) pairs the returned
    /// snapshot with the journal watermark and persists both atomically;
    /// the engines' `open_from` constructors consume it.
    fn checkpoint(&mut self) -> Result<Vec<u8>>;

    /// Drops all cached pages (emulates the paper's cold-cache measurement
    /// discipline, §5).
    fn drop_caches(&self);
}

/// Convenience: resolve a [`VersionRef`] naming a branch head to its
/// branch, or `None` for historical commits.
pub fn as_branch(graph: &VersionGraph, version: VersionRef) -> Option<BranchId> {
    match version {
        VersionRef::Branch(b) => Some(b),
        VersionRef::Commit(c) => {
            let meta = graph.commit(c).ok()?;
            if graph.is_head(c) {
                Some(meta.branch)
            } else {
                None
            }
        }
    }
}
