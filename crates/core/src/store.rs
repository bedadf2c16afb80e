//! The `VersionedStore` trait — the contract all three storage engines
//! implement.

use std::sync::Arc;

use decibel_common::ids::{BranchId, CommitId};
use decibel_common::record::Record;
use decibel_common::schema::Schema;
use decibel_common::{Projection, Result};
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
/// Implementations: [`VersionFirstEngine`](crate::engine::VersionFirstEngine)
/// and [`SegmentedEngine`](crate::engine::SegmentedEngine), which serves
/// both tuple-first kinds ([`TupleFirstBranchEngine`](crate::engine::TupleFirstBranchEngine),
/// [`TupleFirstTupleEngine`](crate::engine::TupleFirstTupleEngine)) and
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
/// # One read primitive
///
/// Engines implement exactly one scan each way:
/// [`scan_pipeline`](VersionedStore::scan_pipeline) and
/// [`multi_scan_pipeline`](VersionedStore::multi_scan_pipeline), lending
/// slot cursors over pinned heap pages (the paper's liveness-bitmap scan,
/// §3.2/§3.4, and version-first's shadowing walk, §3.3). The record-level
/// [`scan`](VersionedStore::scan), [`multi_scan`](VersionedStore::multi_scan)
/// and [`live_count`](VersionedStore::live_count) are provided on top of
/// them with an unfiltered, unprojected plan. There is no parallel scan:
/// the query builders' `.parallel(n)` hint is accepted and ignored,
/// because the materialising per-segment fan-out it used to select never
/// beat the streaming cursor on the two-core benchmark machine.
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
    /// cursors, [`scan`](VersionedStore::scan)) decodes the slot under
    /// `plan.projection` with [`Record::read_projected`], and the server
    /// copies the slot's projected image to the socket without building a
    /// `Record` at all.
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

    /// Streams the live records of one version (benchmark Query 1): the
    /// unfiltered [`scan_pipeline`](VersionedStore::scan_pipeline), each
    /// slot decoded whole.
    fn scan(&self, version: VersionRef) -> Result<RecordIter<'_>> {
        let schema = self.schema();
        let mut cursor = self.scan_pipeline(version, &ScanPlan::default(), 0)?;
        Ok(Box::new(std::iter::from_fn(move || {
            let slot = cursor.next_slot().transpose()?;
            Some(slot.and_then(|(_, slot)| Record::read_projected(schema, slot, &Projection::All)))
        })))
    }

    /// Streams the union of several branches' live records, each annotated
    /// with the branches containing it (benchmark Query 4): the unfiltered
    /// [`multi_scan_pipeline`](VersionedStore::multi_scan_pipeline), each
    /// slot decoded whole.
    fn multi_scan(&self, branches: &[BranchId]) -> Result<AnnotatedIter<'_>> {
        let schema = self.schema();
        let mut cursor = self.multi_scan_pipeline(branches, &ScanPlan::default(), 0)?;
        Ok(Box::new(std::iter::from_fn(move || {
            let row = cursor.next_slot().transpose()?;
            Some(row.and_then(|(_, slot, live)| {
                let rec = Record::read_projected(schema, slot, &Projection::All)?;
                Ok((rec, live.to_vec()))
            }))
        })))
    }

    /// Number of live records in a version: the slots of the unfiltered
    /// [`scan_pipeline`](VersionedStore::scan_pipeline), counted, never
    /// decoded.
    fn live_count(&self, version: VersionRef) -> Result<u64> {
        let mut cursor = self.scan_pipeline(version, &ScanPlan::default(), 0)?;
        let mut n = 0u64;
        while cursor.next_slot()?.is_some() {
            n += 1;
        }
        Ok(n)
    }

    /// Materializes the symmetric difference of two versions (benchmark
    /// Query 2 uses one side of it).
    fn diff(&self, left: VersionRef, right: VersionRef) -> Result<DiffResult>;

    /// Merges `from` into `into`, creating a merge commit on `into`
    /// (§2.2.3 Merge). Conflicts are resolved by the policy's precedence
    /// and reported in the result.
    fn merge(&mut self, into: BranchId, from: BranchId, policy: MergePolicy)
        -> Result<MergeResult>;

    /// Storage accounting for the experiment harness.
    fn stats(&self) -> StoreStats;

    /// Flushes buffered heap tails. Nothing else is written: the version
    /// graph and the rest of the engine's metadata are persisted only in
    /// the [`checkpoint`](VersionedStore::checkpoint) payload.
    fn flush(&mut self) -> Result<()>;

    /// Checkpoint-flushes the engine: every durable structure — heap
    /// tails, commit-store delta files — is written out
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
