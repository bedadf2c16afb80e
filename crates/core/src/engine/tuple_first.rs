//! The tuple-first storage engine (§3.2).
//!
//! "Tuple-first stores tuples from different branches within a single
//! shared heap file. ... this approach relies on a bitmap index with one
//! bit per branch per tuple to annotate the branches a tuple is active in."
//!
//! The engine is generic over the bitmap orientation
//! ([`BranchBitmapIndex`] or [`TupleBitmapIndex`], §3.1), has one
//! [`CommitStore`] per branch for compressed commit histories, and keeps
//! the paper's per-branch primary-key index "indicating the most recent
//! version of each primary key in each branch" for efficient updates and
//! deletes.
//!
//! # Interior locking
//!
//! The write path is `&self` (see the trait's thread-safety contract):
//! per-branch state (`pk` indexes, commit stores) is individually locked so
//! commits on disjoint branches only meet at the short shared-structure
//! sections — the bitmap index (whose tuple orientation interleaves
//! branches within one word, forcing a single lock) and the
//! copy-on-write version graph. Lock order: `pk[branch]` → `index` →
//! `commit_stores[branch]` → `graph` → `commit_map`; the heap's internal
//! tail latch is a leaf. The `pk` indexes of different branches share
//! their unwritten buckets copy-on-write (`engine/pk.rs`); a write copies the
//! bucket it touches before changing it, so one branch's lock still covers
//! everything reachable through that branch's handle.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use decibel_bitmap::{Bitmap, BranchBitmapIndex, CommitStore, TupleBitmapIndex, VersionIndex};
use decibel_common::error::{DbError, Result};
use decibel_common::hash::FxHashMap;
use decibel_common::ids::{BranchId, CommitId, RecordIdx, SegmentId};
use decibel_common::record::Record;
use decibel_common::schema::Schema;
use decibel_common::varint;
use decibel_obs::Counter;
use decibel_pagestore::{BufferPool, HeapFile, StoreConfig};
use decibel_vgraph::VersionGraph;
use parking_lot::{Mutex, RwLock};

use crate::checkpoint;
use crate::engine::pk::{self, HeapRows, PkIndex};
use crate::engine::scan::{decode_rows, BranchColumnScan, Seg, SegmentedScan};
use crate::merge::{plan_merge, ChangeSet, MergeAction};
use crate::query::plan::ScanPlan;
use crate::shard::PreparedCommit;
use crate::store::VersionedStore;
use crate::types::{
    AnnotatedSlotCursor, DiffResult, EngineKind, MergePolicy, MergeResult, SlotCursor, StoreStats,
    VersionRef,
};

/// Maps an index orientation to its [`EngineKind`] label.
pub trait IndexOrientation: VersionIndex + Default + 'static {
    /// The engine-kind label for this orientation.
    const KIND: EngineKind;
}

impl IndexOrientation for BranchBitmapIndex {
    const KIND: EngineKind = EngineKind::TupleFirstBranch;
}

impl IndexOrientation for TupleBitmapIndex {
    const KIND: EngineKind = EngineKind::TupleFirstTuple;
}

/// Tuple-first with the paper's evaluation-default branch-oriented bitmap.
pub type TupleFirstBranchEngine = TupleFirstEngine<BranchBitmapIndex>;
/// Tuple-first with a tuple-oriented bitmap.
pub type TupleFirstTupleEngine = TupleFirstEngine<TupleBitmapIndex>;

/// Commit-store file for one branch.
fn store_path(dir: &Path, b: BranchId) -> std::path::PathBuf {
    dir.join(format!("commits_b{}.dcl", b.raw()))
}

/// The tuple-first engine: one shared heap file + a bitmap index.
pub struct TupleFirstEngine<I: IndexOrientation> {
    dir: PathBuf,
    schema: Schema,
    pool: Arc<BufferPool>,
    heap: HeapFile,
    /// The liveness bitmap. One lock for both orientations: the
    /// tuple-oriented layout packs all branches' bits of a row into shared
    /// words, so per-branch locking is impossible there; sections are kept
    /// short (a few bit flips or one column clone) instead.
    index: RwLock<I>,
    /// Copy-on-write version graph: readers clone the [`Arc`] and traverse
    /// lock-free; committers mutate via [`Arc::make_mut`] under the write
    /// lock.
    graph: RwLock<Arc<VersionGraph>>,
    /// Per-branch primary-key index: key → slot of the live copy. Each
    /// branch's index has its own lock so disjoint-branch writers never
    /// touch each other's; a fork clones the parent's handle, which copies
    /// no entry.
    pk: Vec<RwLock<PkIndex<RecordIdx>>>,
    /// `commit/pk_cow_entries`, handed to every index built.
    pk_cow_entries: Counter,
    /// Per-branch compressed commit history files, individually locked.
    commit_stores: Vec<Mutex<CommitStore>>,
    /// Global commit id → (branch, ordinal within that branch's store).
    commit_map: RwLock<FxHashMap<CommitId, (BranchId, u64)>>,
    /// Whether checkpoint flushes fsync (from [`StoreConfig::fsync`]).
    fsync: bool,
}

impl<I: IndexOrientation> TupleFirstEngine<I> {
    /// Initializes a fresh store in `dir` (the paper's `init` transaction,
    /// §2.2.3): a `master` branch holding an empty relation, with the init
    /// commit recorded.
    pub fn init(dir: impl AsRef<Path>, schema: Schema, config: &StoreConfig) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        config
            .env
            .create_dir_all(&dir)
            .map_err(|e| DbError::io("creating engine directory", e))?;
        let pool = Arc::new(BufferPool::for_store(config));
        let heap = HeapFile::create(Arc::clone(&pool), dir.join("heap.dat"), schema.clone())?;
        let mut index = I::default();
        index.add_branch(BranchId::MASTER, None);
        let graph = VersionGraph::init();
        let mut store = CommitStore::create_in(
            Arc::clone(&config.env),
            store_path(&dir, BranchId::MASTER),
            CommitStore::DEFAULT_LAYER_INTERVAL,
        )?;
        // Ordinal 0 in master's store is the (empty) init commit.
        let ord = store.append_commit(&Bitmap::new())?;
        let mut commit_map = FxHashMap::default();
        commit_map.insert(CommitId::INIT, (BranchId::MASTER, ord));
        let pk_cow_entries = pk::cow_entries_counter(&config.metrics);
        Ok(TupleFirstEngine {
            dir,
            schema,
            pool,
            heap,
            index: RwLock::new(index),
            graph: RwLock::new(Arc::new(graph)),
            pk: vec![RwLock::new(PkIndex::new(pk_cow_entries.clone()))],
            pk_cow_entries,
            commit_stores: vec![Mutex::new(store)],
            commit_map: RwLock::new(commit_map),
            fsync: config.fsync,
        })
    }

    /// Reopens an engine from checkpoint-flushed state: the heap, the
    /// commit-store files, and the snapshot `payload` a previous
    /// [`VersionedStore::checkpoint`] call produced. The journal is not
    /// consulted; [`Database::open`](crate::db::Database::open) replays
    /// only the post-watermark suffix on top of the result.
    pub fn open_from(
        dir: impl AsRef<Path>,
        schema: Schema,
        config: &StoreConfig,
        payload: &[u8],
    ) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let pool = Arc::new(BufferPool::for_store(config));
        let mut pos = 0usize;
        let graph = VersionGraph::from_bytes(checkpoint::read_slice(payload, &mut pos)?)?;
        let heap_len = varint::read_u64(payload, &mut pos)?;
        let heap = HeapFile::open_at(
            Arc::clone(&pool),
            dir.join("heap.dat"),
            schema.clone(),
            heap_len,
        )?;
        let n_branches = varint::read_u64(payload, &mut pos)? as usize;
        if n_branches != graph.num_branches() {
            return Err(DbError::corrupt(
                "checkpoint branch count disagrees with its version graph",
            ));
        }
        let mut index = I::default();
        index.ensure_rows(heap_len);
        let pk_cow_entries = pk::cow_entries_counter(&config.metrics);
        // The primary-key index is derived state: one live copy per key,
        // exactly the set bits of the branch's head column. Branches are
        // rebuilt in id order, so the branch a fork's commit was made on
        // is there for the fork to start from (see [`PkIndex::rebuilt`]).
        let empty = Bitmap::new();
        let mut columns: Vec<Bitmap> = Vec::with_capacity(n_branches);
        let mut pk: Vec<PkIndex<RecordIdx>> = Vec::with_capacity(n_branches);
        for b in 0..n_branches {
            let bid = BranchId(b as u32);
            let bm = checkpoint::read_bitmap(payload, &mut pos)?;
            index.add_branch(bid, None);
            index.restore_branch(bid, &bm);
            let parent = graph.commit(graph.branch(bid)?.forked_at)?.branch.index();
            let parent = (parent < b).then_some(parent);
            let part = HeapRows {
                heap: &heap,
                own: &bm,
                base: parent.map_or(&empty, |p| &columns[p]),
                loc: |row| row,
            };
            let keys = PkIndex::rebuilt(parent.map(|p| &pk[p]), &[part], &pk_cow_entries)?;
            columns.push(bm);
            pk.push(keys);
        }
        // Commits per branch, for validating the reopened delta files.
        let mut per_branch = vec![0u64; n_branches];
        for c in graph.topo_order() {
            per_branch[graph.commit(c)?.branch.index()] += 1;
        }
        let mut commit_stores = Vec::with_capacity(n_branches);
        for (b, &expected) in per_branch.iter().enumerate() {
            let covered = varint::read_u64(payload, &mut pos)?;
            let pending = varint::read_u64(payload, &mut pos)? as u32;
            let store = CommitStore::open_at_in(
                Arc::clone(&config.env),
                store_path(&dir, BranchId(b as u32)),
                CommitStore::DEFAULT_LAYER_INTERVAL,
                covered,
                pending,
            )?;
            if store.commit_count() != expected {
                return Err(DbError::corrupt(format!(
                    "commit store for branch {b} holds {} snapshots, graph records {expected}",
                    store.commit_count(),
                )));
            }
            commit_stores.push(Mutex::new(store));
        }
        let commit_map: FxHashMap<CommitId, (BranchId, u64)> =
            checkpoint::read_triples(payload, &mut pos)?
                .into_iter()
                .map(|(c, b, ord)| (CommitId(c), (BranchId(b as u32), ord)))
                .collect();
        Ok(TupleFirstEngine {
            dir,
            schema,
            pool,
            heap,
            index: RwLock::new(index),
            graph: RwLock::new(Arc::new(graph)),
            pk: pk.into_iter().map(RwLock::new).collect(),
            pk_cow_entries,
            commit_stores,
            commit_map: RwLock::new(commit_map),
            fsync: config.fsync,
        })
    }

    /// Exclusive access to the version graph from structural (`&mut`)
    /// paths, copy-on-write against outstanding reader snapshots.
    fn graph_mut(&mut self) -> &mut VersionGraph {
        Arc::make_mut(self.graph.get_mut())
    }

    /// Materializes the liveness bitmap of any version: the index column
    /// for branch heads, a commit-store checkout for historical commits.
    fn version_bitmap(&self, version: VersionRef) -> Result<Bitmap> {
        match version {
            VersionRef::Branch(b) => {
                self.graph.read().branch(b)?;
                Ok(self.index.read().branch_bitmap(b))
            }
            VersionRef::Commit(c) => {
                let &(b, ord) = self
                    .commit_map
                    .read()
                    .get(&c)
                    .ok_or(DbError::UnknownCommit(c.raw()))?;
                self.commit_stores[b.index()].lock().checkout(ord)
            }
        }
    }

    /// The requested branches' liveness columns and their union — the plan
    /// of a multi-branch scan.
    fn union_columns(&self, branches: &[BranchId]) -> Result<(Bitmap, Vec<(BranchId, Bitmap)>)> {
        let graph = self.graph.read();
        let index = self.index.read();
        let mut union = Bitmap::zeros(index.num_rows());
        let mut columns = Vec::with_capacity(branches.len());
        for &b in branches {
            graph.branch(b)?;
            let col = index.branch_bitmap(b);
            union.or_assign(&col);
            columns.push((b, col));
        }
        Ok((union, columns))
    }

    /// Snapshots `branch`'s head column into its history file, returning
    /// the snapshot's ordinal. The per-branch half of a commit: concurrent
    /// with other branches' prepares.
    fn prepare(&self, branch: BranchId) -> Result<u64> {
        self.graph.read().branch(branch)?;
        let col = self.index.read().branch_bitmap(branch);
        self.commit_stores[branch.index()]
            .lock()
            .append_commit(&col)
    }

    /// Stamps a prepared snapshot into the shared graph + commit map.
    fn finalize(&self, branch: BranchId, ord: u64, extra_parents: &[CommitId]) -> Result<CommitId> {
        let mut graph = self.graph.write();
        let cid = Arc::make_mut(&mut graph).add_commit(branch, extra_parents)?;
        // Map insert happens before the graph guard drops, so no reader
        // can resolve the new id before the map knows its snapshot.
        self.commit_map.write().insert(cid, (branch, ord));
        Ok(cid)
    }

    /// Records a commit snapshot of `branch` in its history file and the
    /// version graph (both commit halves, for admin/merge paths).
    fn do_commit(&self, branch: BranchId, extra_parents: &[CommitId]) -> Result<CommitId> {
        let ord = self.prepare(branch)?;
        self.finalize(branch, ord, extra_parents)
    }

    /// Builds `branch`'s change set relative to a base bitmap: for every
    /// row live in exactly one of the two, classify the key as
    /// updated/inserted (`Some(copy)`) or deleted (`None`). This is the
    /// bitmap-driven diff §3.2's merge uses to avoid scanning the whole
    /// LCA.
    fn change_set(&self, branch_bm: &Bitmap, base_bm: &Bitmap) -> Result<(ChangeSet, u64)> {
        let mut changes = ChangeSet::default();
        let mut bytes = 0u64;
        for rec in self.records(branch_bm.and_not(base_bm))? {
            bytes += self.schema.record_size() as u64;
            changes.insert(rec.key(), Some(rec));
        }
        for rec in self.records(base_bm.and_not(branch_bm))? {
            bytes += self.schema.record_size() as u64;
            // A removed base row with no replacement copy is a deletion.
            changes.entry(rec.key()).or_insert(None);
        }
        Ok((changes, bytes))
    }

    /// The heap as the one segment (id 0) of a planned scan, restricted to
    /// the rows set in `live` — so resume tokens are slot + 1.
    fn seg<A>(&self, live: Bitmap, ann: A) -> Seg<'_, A> {
        Seg {
            id: SegmentId(0),
            heap: &self.heap,
            live,
            ann,
        }
    }

    /// Decodes the heap rows set in `rows`, in slot order.
    fn records(&self, rows: Bitmap) -> Result<Vec<Record>> {
        decode_rows(vec![self.seg(rows, ())], &self.schema)
    }
}

impl<I: IndexOrientation> VersionedStore for TupleFirstEngine<I> {
    fn kind(&self) -> EngineKind {
        I::KIND
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn graph(&self) -> Arc<VersionGraph> {
        Arc::clone(&self.graph.read())
    }

    fn create_branch(&mut self, name: &str, from: VersionRef) -> Result<BranchId> {
        // Name check first: the implicit parent commit below must not be
        // created (and dangle) behind a duplicate-name error.
        self.graph.read().check_name_free(name)?;
        let (from_commit, parent_branch) = match from {
            VersionRef::Branch(b) => {
                // Branches are made from commits (§2.2.3); branching from a
                // working head implicitly commits it first so the fork
                // point is a recorded version.
                let cid = self.do_commit(b, &[])?;
                (cid, Some(b))
            }
            VersionRef::Commit(c) => (c, None),
        };
        let new_b = self.graph_mut().create_branch(name, from_commit)?;
        debug_assert_eq!(new_b.index(), self.pk.len());
        match parent_branch {
            Some(p) => {
                // "A branch operation clones the state of the parent
                // branch's bitmap" (§3.2) — and shares its key index.
                self.index.get_mut().add_branch(new_b, Some(p));
                let shared = self.pk[p.index()].get_mut().clone();
                self.pk.push(RwLock::new(shared));
            }
            None => {
                // Historical commit: restore the snapshot, rebuild keys.
                let bm = self.version_bitmap(VersionRef::Commit(from_commit))?;
                let index = self.index.get_mut();
                index.add_branch(new_b, None);
                index.restore_branch(new_b, &bm);
                let rows = bm.count_ones() as usize;
                let mut keys = PkIndex::with_capacity(rows, self.pk_cow_entries.clone());
                keys.insert_rows(&self.heap, &bm, |row| row)?;
                self.pk.push(RwLock::new(keys));
            }
        }
        self.commit_stores.push(Mutex::new(CommitStore::create_in(
            Arc::clone(self.pool.env()),
            store_path(&self.dir, new_b),
            CommitStore::DEFAULT_LAYER_INTERVAL,
        )?));
        Ok(new_b)
    }

    fn prepare_commit(&self, branch: BranchId) -> Result<PreparedCommit> {
        let ord = self.prepare(branch)?;
        Ok(PreparedCommit(vec![(0, ord)]))
    }

    fn finalize_commit(&self, branch: BranchId, prep: PreparedCommit) -> Result<CommitId> {
        let &(_, ord) = prep
            .0
            .first()
            .ok_or_else(|| DbError::Invalid("empty prepared commit".into()))?;
        self.finalize(branch, ord, &[])
    }

    fn checkout_version(&self, commit: CommitId) -> Result<u64> {
        Ok(self
            .version_bitmap(VersionRef::Commit(commit))?
            .count_ones())
    }

    fn insert(&self, branch: BranchId, record: Record) -> Result<()> {
        self.schema.check_arity(record.fields().len())?;
        self.graph.read().branch(branch)?;
        let mut pk = self.pk[branch.index()].write();
        if pk.contains_key(record.key()) {
            return Err(DbError::DuplicateKey { key: record.key() });
        }
        let idx = self.heap.append(&record)?;
        {
            let mut index = self.index.write();
            index.ensure_rows(idx.raw() + 1);
            index.set(branch, idx.raw(), true);
        }
        pk.insert(record.key(), idx);
        Ok(())
    }

    fn update(&self, branch: BranchId, record: Record) -> Result<()> {
        self.schema.check_arity(record.fields().len())?;
        self.graph.read().branch(branch)?;
        let mut pk = self.pk[branch.index()].write();
        let old = pk
            .get(record.key())
            .ok_or(DbError::KeyNotFound { key: record.key() })?;
        // "the index bit of the previous version of the record is unset ...
        // we also set the index bit for the new, updated copy of the record
        // inserted at the end of the heap file" (§3.2).
        let idx = self.heap.append(&record)?;
        {
            let mut index = self.index.write();
            index.set(branch, old.raw(), false);
            index.ensure_rows(idx.raw() + 1);
            index.set(branch, idx.raw(), true);
        }
        pk.insert(record.key(), idx);
        Ok(())
    }

    fn delete(&self, branch: BranchId, key: u64) -> Result<bool> {
        self.graph.read().branch(branch)?;
        let mut pk = self.pk[branch.index()].write();
        match pk.remove(key) {
            Some(old) => {
                self.index.write().set(branch, old.raw(), false);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn get(&self, version: VersionRef, key: u64) -> Result<Option<Record>> {
        if let VersionRef::Branch(b) = version {
            self.graph.read().branch(b)?;
            let slot = self.pk[b.index()].read().get(key);
            return match slot {
                Some(idx) => Ok(Some(self.heap.get(idx)?)),
                None => Ok(None),
            };
        }
        // Historical commits have no key index; walk the snapshot.
        let bm = self.version_bitmap(version)?;
        let mut pos = 0u64;
        while let Some(row) = bm.next_one(pos) {
            pos = row + 1;
            let (k, _) = self.heap.peek_key(RecordIdx(row))?;
            if k == key {
                return Ok(Some(self.heap.get(RecordIdx(row))?));
            }
        }
        Ok(None)
    }

    fn scan_pipeline(
        &self,
        version: VersionRef,
        plan: &ScanPlan,
        from: u64,
    ) -> Result<Box<dyn SlotCursor + '_>> {
        Ok(Box::new(SegmentedScan::new(
            vec![self.seg(self.version_bitmap(version)?, ())],
            plan.page_predicate(),
            from,
        )))
    }

    fn multi_scan_pipeline(
        &self,
        branches: &[BranchId],
        plan: &ScanPlan,
        from: u64,
    ) -> Result<Box<dyn AnnotatedSlotCursor + '_>> {
        // "a multi-branch query can quickly emit which branches contain any
        // tuple without needing to resolve deltas" (§3.2): one word-batched
        // pass over the heap driven by the union bitmap, annotating each
        // row from cached per-branch column words (64 liveness bits per
        // step, not one `get` per branch per row).
        let (union, columns) = self.union_columns(branches)?;
        Ok(Box::new(BranchColumnScan::new(
            vec![self.seg(union, columns)],
            plan.page_predicate(),
            from,
        )))
    }

    fn diff(&self, left: VersionRef, right: VersionRef) -> Result<DiffResult> {
        // "Diff is straightforward to compute in tuple-first: we simply XOR
        // bitmaps together and emit records on the appropriate output
        // iterator" (§3.2).
        let lbm = self.version_bitmap(left)?;
        let rbm = self.version_bitmap(right)?;
        Ok(DiffResult {
            left_only: self.records(lbm.and_not(&rbm))?,
            right_only: self.records(rbm.and_not(&lbm))?,
        })
    }

    fn merge(
        &mut self,
        into: BranchId,
        from: BranchId,
        policy: MergePolicy,
    ) -> Result<MergeResult> {
        {
            let graph = self.graph.read();
            graph.branch(into)?;
            graph.branch(from)?;
        }
        // Merge operates on the branch heads (§2.2.3); commit both working
        // states so the merge inputs are recorded versions.
        self.do_commit(into, &[])?;
        let from_head = self.do_commit(from, &[])?;

        // "At the start of the merge process, the lca commit is restored"
        // (§3.2).
        let lca = {
            let graph = self.graph.read();
            graph.lca(graph.head(into)?, from_head)?
        };
        let lca_bm = self.version_bitmap(VersionRef::Commit(lca))?;
        let into_bm = self.index.read().branch_bitmap(into);
        let from_bm = self.index.read().branch_bitmap(from);

        let (left_changes, lbytes) = self.change_set(&into_bm, &lca_bm)?;
        let (right_changes, rbytes) = self.change_set(&from_bm, &lca_bm)?;

        // Base copies for both-changed keys come from LCA rows replaced in
        // `into` (a key updated on both sides lost its base row in both).
        let mut base_rows: FxHashMap<u64, RecordIdx> = FxHashMap::default();
        let gone = lca_bm.and_not(&into_bm);
        let mut pos = 0u64;
        while let Some(row) = gone.next_one(pos) {
            pos = row + 1;
            let (key, _) = self.heap.peek_key(RecordIdx(row))?;
            base_rows.insert(key, RecordIdx(row));
        }

        let heap = &self.heap;
        let plan = plan_merge(
            policy,
            &left_changes,
            &right_changes,
            self.schema.record_size(),
            |key| match base_rows.get(&key) {
                Some(&idx) => Ok(Some(heap.get(idx)?)),
                None => Ok(None),
            },
        )?;

        // Mutation phase: merges run with the store lock held exclusively,
        // so the interior locks are uncontended; scoped guards keep the
        // borrow checker satisfied without restructuring.
        let mut changed = 0u64;
        {
            let mut index = self.index.write();
            // An O(1) handle clone is the read snapshot of the source.
            let pk_from = self.pk[from.index()].read().clone();
            let mut pk_into = self.pk[into.index()].write();
            for (key, action) in &plan.actions {
                match action {
                    MergeAction::KeepLeft => {}
                    MergeAction::TakeRight(_) => {
                        // Adopt the source's physical copy: flip bits, no I/O.
                        let src_row = pk_from
                            .get(*key)
                            .expect("a key the source changed is live in the source");
                        if let Some(old) = pk_into.get(*key) {
                            index.set(into, old.raw(), false);
                        }
                        index.set(into, src_row.raw(), true);
                        pk_into.insert(*key, src_row);
                        changed += 1;
                    }
                    MergeAction::Materialize(rec) => {
                        if let Some(old) = pk_into.get(*key) {
                            index.set(into, old.raw(), false);
                        }
                        let idx = heap.append(rec)?;
                        index.ensure_rows(idx.raw() + 1);
                        index.set(into, idx.raw(), true);
                        pk_into.insert(*key, idx);
                        changed += 1;
                    }
                    MergeAction::Delete => {
                        if let Some(old) = pk_into.remove(*key) {
                            index.set(into, old.raw(), false);
                            changed += 1;
                        }
                    }
                }
            }
        }

        let commit = self.do_commit(into, &[from_head])?;
        Ok(MergeResult {
            commit,
            conflicts: plan.conflicts,
            records_changed: changed,
            bytes_compared: plan.bytes_compared + lbytes + rbytes,
        })
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            data_bytes: self.heap.byte_size(),
            index_bytes: self.index.read().byte_size() as u64,
            commit_store_bytes: self
                .commit_stores
                .iter()
                .map(|s| s.lock().file_size())
                .sum(),
            num_segments: 1,
            num_commits: self.graph.read().num_commits(),
        }
    }

    fn flush(&mut self) -> Result<()> {
        self.heap.flush()?;
        self.graph
            .get_mut()
            .save_in(self.pool.env().as_ref(), self.dir.join("graph.dvg"), false)
    }

    fn checkpoint(&mut self) -> Result<Vec<u8>> {
        self.heap.flush()?;
        if self.fsync {
            self.heap.sync()?;
            for store in &mut self.commit_stores {
                store.get_mut().sync()?;
            }
        }
        let graph = Arc::clone(self.graph.get_mut());
        graph.save_in(
            self.pool.env().as_ref(),
            self.dir.join("graph.dvg"),
            self.fsync,
        )?;
        let mut out = Vec::new();
        checkpoint::write_slice(&mut out, &graph.to_bytes());
        varint::write_u64(&mut out, self.heap.len());
        let n_branches = graph.num_branches();
        varint::write_u64(&mut out, n_branches as u64);
        let index = self.index.get_mut();
        for b in 0..n_branches {
            // The head column is snapshotted directly (RLE), so reopening
            // needs no delta-chain checkout and no assumption that the
            // working head coincides with the last commit.
            checkpoint::write_bitmap(&mut out, &index.branch_bitmap(BranchId(b as u32)));
        }
        for store in &mut self.commit_stores {
            let store = store.get_mut();
            varint::write_u64(&mut out, store.on_disk_len());
            varint::write_u64(&mut out, store.pending_empty_count() as u64);
        }
        checkpoint::write_triples(
            &mut out,
            self.commit_map
                .get_mut()
                .iter()
                .map(|(c, (b, ord))| (c.raw(), b.raw() as u64, *ord)),
        );
        Ok(out)
    }

    fn drop_caches(&self) {
        self.pool.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RecordIter;

    fn engine() -> (tempfile::TempDir, TupleFirstBranchEngine) {
        let dir = tempfile::tempdir().unwrap();
        let schema = Schema::new(4, decibel_common::schema::ColumnType::U32);
        let eng =
            TupleFirstEngine::init(dir.path().join("tf"), schema, &StoreConfig::test_default())
                .unwrap();
        (dir, eng)
    }

    fn rec(key: u64, tag: u64) -> Record {
        Record::new(key, vec![tag, tag + 1, tag + 2, tag + 3])
    }

    fn keys(iter: RecordIter<'_>) -> Vec<u64> {
        let mut v: Vec<u64> = iter.map(|r| r.unwrap().key()).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn insert_scan_master() {
        let (_d, eng) = engine();
        for k in 0..10 {
            eng.insert(BranchId::MASTER, rec(k, k * 10)).unwrap();
        }
        assert_eq!(
            keys(eng.scan(BranchId::MASTER.into()).unwrap()),
            (0..10).collect::<Vec<_>>()
        );
        assert_eq!(eng.live_count(BranchId::MASTER.into()).unwrap(), 10);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let (_d, eng) = engine();
        eng.insert(BranchId::MASTER, rec(1, 0)).unwrap();
        assert!(matches!(
            eng.insert(BranchId::MASTER, rec(1, 1)),
            Err(DbError::DuplicateKey { key: 1 })
        ));
    }

    #[test]
    fn update_replaces_and_get_sees_latest() {
        let (_d, eng) = engine();
        eng.insert(BranchId::MASTER, rec(1, 0)).unwrap();
        eng.update(BranchId::MASTER, rec(1, 99)).unwrap();
        let got = eng.get(BranchId::MASTER.into(), 1).unwrap().unwrap();
        assert_eq!(got.field(0), 99);
        assert_eq!(eng.live_count(BranchId::MASTER.into()).unwrap(), 1);
        assert!(matches!(
            eng.update(BranchId::MASTER, rec(42, 0)),
            Err(DbError::KeyNotFound { key: 42 })
        ));
    }

    #[test]
    fn delete_hides_record() {
        let (_d, eng) = engine();
        eng.insert(BranchId::MASTER, rec(1, 0)).unwrap();
        assert!(eng.delete(BranchId::MASTER, 1).unwrap());
        assert!(!eng.delete(BranchId::MASTER, 1).unwrap());
        assert_eq!(eng.live_count(BranchId::MASTER.into()).unwrap(), 0);
        assert_eq!(eng.get(BranchId::MASTER.into(), 1).unwrap(), None);
    }

    #[test]
    fn branch_isolation() {
        let (_d, mut eng) = engine();
        for k in 0..5 {
            eng.insert(BranchId::MASTER, rec(k, k)).unwrap();
        }
        let dev = eng.create_branch("dev", BranchId::MASTER.into()).unwrap();
        // Child sees parent's records.
        assert_eq!(
            keys(eng.scan(dev.into()).unwrap()),
            (0..5).collect::<Vec<_>>()
        );
        // Changes on each side are invisible to the other.
        eng.insert(dev, rec(100, 0)).unwrap();
        eng.update(dev, rec(0, 77)).unwrap();
        eng.insert(BranchId::MASTER, rec(200, 0)).unwrap();
        assert_eq!(
            keys(eng.scan(dev.into()).unwrap()),
            vec![0, 1, 2, 3, 4, 100]
        );
        assert_eq!(
            keys(eng.scan(BranchId::MASTER.into()).unwrap()),
            vec![0, 1, 2, 3, 4, 200]
        );
        assert_eq!(eng.get(dev.into(), 0).unwrap().unwrap().field(0), 77);
        assert_eq!(
            eng.get(BranchId::MASTER.into(), 0)
                .unwrap()
                .unwrap()
                .field(0),
            0
        );
    }

    #[test]
    fn commit_checkout_history() {
        let (_d, eng) = engine();
        eng.insert(BranchId::MASTER, rec(1, 0)).unwrap();
        let c1 = eng.commit(BranchId::MASTER).unwrap();
        eng.insert(BranchId::MASTER, rec(2, 0)).unwrap();
        eng.update(BranchId::MASTER, rec(1, 50)).unwrap();
        let c2 = eng.commit(BranchId::MASTER).unwrap();
        eng.delete(BranchId::MASTER, 1).unwrap();

        assert_eq!(eng.checkout_version(c1).unwrap(), 1);
        assert_eq!(eng.checkout_version(c2).unwrap(), 2);
        // Scan at a commit reads the historical state.
        assert_eq!(keys(eng.scan(c1.into()).unwrap()), vec![1]);
        let at_c2 = eng.get(c2.into(), 1).unwrap().unwrap();
        assert_eq!(at_c2.field(0), 50);
        // Working head has the delete.
        assert_eq!(keys(eng.scan(BranchId::MASTER.into()).unwrap()), vec![2]);
    }

    #[test]
    fn branch_from_historical_commit() {
        let (_d, mut eng) = engine();
        eng.insert(BranchId::MASTER, rec(1, 0)).unwrap();
        let c1 = eng.commit(BranchId::MASTER).unwrap();
        eng.insert(BranchId::MASTER, rec(2, 0)).unwrap();
        eng.commit(BranchId::MASTER).unwrap();
        let old = eng.create_branch("old", c1.into()).unwrap();
        assert_eq!(keys(eng.scan(old.into()).unwrap()), vec![1]);
        // The restored branch is writable with a working key index.
        eng.update(old, rec(1, 9)).unwrap();
        eng.insert(old, rec(3, 0)).unwrap();
        assert_eq!(keys(eng.scan(old.into()).unwrap()), vec![1, 3]);
    }

    #[test]
    fn diff_between_branches() {
        let (_d, mut eng) = engine();
        for k in 0..4 {
            eng.insert(BranchId::MASTER, rec(k, k)).unwrap();
        }
        let dev = eng.create_branch("dev", BranchId::MASTER.into()).unwrap();
        eng.insert(dev, rec(10, 0)).unwrap();
        eng.update(dev, rec(0, 99)).unwrap();
        eng.delete(dev, 3).unwrap();
        let d = eng.diff(dev.into(), BranchId::MASTER.into()).unwrap();
        let mut l: Vec<u64> = d.left_only.iter().map(|r| r.key()).collect();
        l.sort_unstable();
        assert_eq!(l, vec![0, 10], "dev-only copies: new insert + updated copy");
        let mut r: Vec<u64> = d.right_only.iter().map(|r| r.key()).collect();
        r.sort_unstable();
        assert_eq!(
            r,
            vec![0, 3],
            "master-only copies: old copy of 0 + undeleted 3"
        );
    }

    #[test]
    fn multi_scan_annotates_branches() {
        let (_d, mut eng) = engine();
        eng.insert(BranchId::MASTER, rec(1, 0)).unwrap();
        let dev = eng.create_branch("dev", BranchId::MASTER.into()).unwrap();
        eng.insert(dev, rec(2, 0)).unwrap();
        eng.insert(BranchId::MASTER, rec(3, 0)).unwrap();
        let mut rows: Vec<(u64, usize)> = eng
            .multi_scan(&[BranchId::MASTER, dev])
            .unwrap()
            .map(|r| {
                let (rec, branches) = r.unwrap();
                (rec.key(), branches.len())
            })
            .collect();
        rows.sort_unstable();
        assert_eq!(rows, vec![(1, 2), (2, 1), (3, 1)]);
    }

    #[test]
    fn three_way_merge_auto_merges_disjoint_fields() {
        let (_d, mut eng) = engine();
        eng.insert(BranchId::MASTER, rec(1, 10)).unwrap();
        let dev = eng.create_branch("dev", BranchId::MASTER.into()).unwrap();
        // Disjoint field edits on either side of the fork.
        let mut left = rec(1, 10);
        left.set_field(0, 111);
        eng.update(BranchId::MASTER, left).unwrap();
        let mut right = rec(1, 10);
        right.set_field(3, 333);
        eng.update(dev, right).unwrap();

        let res = eng
            .merge(
                BranchId::MASTER,
                dev,
                MergePolicy::ThreeWay { prefer_left: true },
            )
            .unwrap();
        assert!(res.conflicts.is_empty());
        let merged = eng.get(BranchId::MASTER.into(), 1).unwrap().unwrap();
        assert_eq!(merged.field(0), 111);
        assert_eq!(merged.field(3), 333);
        // The merge commit has two parents.
        let graph = eng.graph();
        let meta = graph.commit(res.commit).unwrap();
        assert_eq!(meta.parents.len(), 2);
    }

    #[test]
    fn merge_precedence_on_overlap() {
        let (_d, mut eng) = engine();
        eng.insert(BranchId::MASTER, rec(1, 10)).unwrap();
        let dev = eng.create_branch("dev", BranchId::MASTER.into()).unwrap();
        let mut l = rec(1, 10);
        l.set_field(0, 111);
        eng.update(BranchId::MASTER, l).unwrap();
        let mut r = rec(1, 10);
        r.set_field(0, 222);
        eng.update(dev, r).unwrap();

        let res = eng
            .merge(
                BranchId::MASTER,
                dev,
                MergePolicy::ThreeWay { prefer_left: false },
            )
            .unwrap();
        assert_eq!(res.conflicts.len(), 1);
        assert_eq!(res.conflicts[0].fields, vec![0]);
        assert_eq!(
            eng.get(BranchId::MASTER.into(), 1)
                .unwrap()
                .unwrap()
                .field(0),
            222
        );
    }

    #[test]
    fn merge_adopts_source_inserts_and_deletes() {
        let (_d, mut eng) = engine();
        eng.insert(BranchId::MASTER, rec(1, 0)).unwrap();
        eng.insert(BranchId::MASTER, rec(2, 0)).unwrap();
        let dev = eng.create_branch("dev", BranchId::MASTER.into()).unwrap();
        eng.insert(dev, rec(5, 0)).unwrap();
        eng.delete(dev, 2).unwrap();
        eng.merge(
            BranchId::MASTER,
            dev,
            MergePolicy::ThreeWay { prefer_left: true },
        )
        .unwrap();
        assert_eq!(keys(eng.scan(BranchId::MASTER.into()).unwrap()), vec![1, 5]);
    }

    #[test]
    fn tuple_oriented_variant_behaves_identically() {
        let dir = tempfile::tempdir().unwrap();
        let schema = Schema::new(4, decibel_common::schema::ColumnType::U32);
        let mut eng: TupleFirstTupleEngine =
            TupleFirstEngine::init(dir.path().join("tft"), schema, &StoreConfig::test_default())
                .unwrap();
        assert_eq!(eng.kind(), EngineKind::TupleFirstTuple);
        for k in 0..20 {
            eng.insert(BranchId::MASTER, rec(k, k)).unwrap();
        }
        let dev = eng.create_branch("dev", BranchId::MASTER.into()).unwrap();
        eng.update(dev, rec(7, 700)).unwrap();
        eng.delete(dev, 8).unwrap();
        assert_eq!(eng.live_count(dev.into()).unwrap(), 19);
        assert_eq!(eng.live_count(BranchId::MASTER.into()).unwrap(), 20);
        assert_eq!(eng.get(dev.into(), 7).unwrap().unwrap().field(0), 700);
        assert_eq!(
            eng.get(BranchId::MASTER.into(), 7)
                .unwrap()
                .unwrap()
                .field(0),
            7
        );
    }

    #[test]
    fn stats_track_growth() {
        let (_d, eng) = engine();
        let s0 = eng.stats();
        for k in 0..50 {
            eng.insert(BranchId::MASTER, rec(k, k)).unwrap();
        }
        eng.commit(BranchId::MASTER).unwrap();
        let s1 = eng.stats();
        assert!(s1.data_bytes > s0.data_bytes);
        assert!(s1.commit_store_bytes > s0.commit_store_bytes);
        assert_eq!(s1.num_segments, 1);
        assert_eq!(s1.num_commits, 2); // init + explicit
    }

    #[test]
    fn flush_persists_graph() {
        let (_d, mut eng) = engine();
        eng.insert(BranchId::MASTER, rec(1, 0)).unwrap();
        eng.commit(BranchId::MASTER).unwrap();
        eng.flush().unwrap();
        let loaded =
            VersionGraph::load_in(&decibel_common::env::StdEnv, eng.dir.join("graph.dvg")).unwrap();
        assert_eq!(loaded.num_commits(), eng.graph().num_commits());
    }

    #[test]
    fn disjoint_branch_writers_do_not_corrupt_each_other() {
        use std::sync::Barrier;
        let (_d, mut eng) = engine();
        for k in 0..4 {
            eng.insert(BranchId::MASTER, rec(k, k)).unwrap();
        }
        let mut branches = Vec::new();
        for i in 0..4 {
            branches.push(
                eng.create_branch(&format!("w{i}"), BranchId::MASTER.into())
                    .unwrap(),
            );
        }
        let eng = std::sync::Arc::new(eng);
        let barrier = std::sync::Arc::new(Barrier::new(4));
        let handles: Vec<_> = branches
            .iter()
            .map(|&b| {
                let eng = std::sync::Arc::clone(&eng);
                let barrier = std::sync::Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for k in 0..50u64 {
                        eng.insert(b, rec(1000 + b.raw() as u64 * 1000 + k, k))
                            .unwrap();
                    }
                    eng.update(b, rec(0, 900 + b.raw() as u64)).unwrap();
                    eng.delete(b, 3).unwrap();
                    eng.commit(b).unwrap()
                })
            })
            .collect();
        let commits: Vec<CommitId> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Each branch sees exactly its own writes; commit snapshots match.
        for (i, &b) in branches.iter().enumerate() {
            assert_eq!(eng.live_count(b.into()).unwrap(), 4 + 50 - 1);
            assert_eq!(
                eng.get(b.into(), 0).unwrap().unwrap().field(0),
                900 + b.raw() as u64
            );
            assert_eq!(eng.checkout_version(commits[i]).unwrap(), 53);
        }
        assert_eq!(eng.live_count(BranchId::MASTER.into()).unwrap(), 4);
        // Commit ids are distinct and all stamped in the shared graph.
        let graph = eng.graph();
        let mut ids: Vec<u64> = commits.iter().map(|c| c.raw()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4);
        for &c in &commits {
            graph.commit(c).unwrap();
        }
    }
}
