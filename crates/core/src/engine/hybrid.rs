//! The hybrid storage engine (§3.4).
//!
//! "Hybrid combines the two storage models ... It operates by managing a
//! collection of segments, each consisting of a single heap file (as in
//! version-first) accompanied by a bitmap-based segment index (as in
//! tuple-first). ... Additionally, a single branch-segment bitmap, external
//! to all segments, relates a branch to the segments that contain at least
//! one record alive in the branch."
//!
//! Segments come in two classes: *head* segments receiving a branch's fresh
//! modifications, and *internal* segments frozen by branch operations,
//! "after which only the segment's bitmap may change". The branch-segment
//! bitmap lets scans skip segments with no live records and "allows for
//! parallelization of segment scanning": a merge decodes its per-segment
//! change sets as parallel tasks on the engine's [`ScanPool`]. Scans
//! themselves stream sequentially through one [`SegmentedScan`] — a
//! materialising per-segment fan-out measured no faster on two cores.
//!
//! # Concurrency
//!
//! The write path (`insert`/`update`/`delete`/`prepare_commit`/
//! `finalize_commit`) takes `&self` so the sharded commit path can run
//! disjoint-branch commits concurrently. The structures those operations
//! mutate sit behind fine-grained interior locks: each segment's bitmap
//! index and commit-store map have their own `RwLock`, every per-branch
//! primary-key index has its own lock (the indexes share unwritten buckets
//! copy-on-write, see `engine/pk.rs`; a branch's lock still covers everything
//! reachable through its handle), the branch-segment bitmap has one,
//! branch-commit ordinals are atomics, and the version graph is
//! copy-on-write behind a lock. Segment *membership* (`segments`, `head`,
//! `frozen`) only changes under `&mut self` (branch/merge/checkpoint), for
//! which the database holds its store lock exclusively. Lock order within
//! the engine is pk → segment index → segment stores → graph → commit map;
//! the heap tail latch is a leaf.

use std::collections::hash_map::Entry;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use decibel_bitmap::{Bitmap, BranchBitmapIndex, CommitStore, VersionIndex};
use decibel_common::error::{DbError, Result};
use decibel_common::hash::FxHashMap;
use decibel_common::ids::{BranchId, CommitId, RecordIdx, SegmentId};
use decibel_common::record::Record;
use decibel_common::schema::Schema;
use decibel_common::varint;
use decibel_obs::Counter;
use decibel_pagestore::{BufferPool, HeapFile, StoreConfig};
use decibel_vgraph::VersionGraph;
use parking_lot::RwLock;

use crate::checkpoint;
use crate::engine::pk::{self, HeapRows, PkIndex};
use crate::engine::scan::{decode_rows, BranchColumnScan, Seg, SegmentedScan};
use crate::merge::{plan_merge, ChangeSet, MergeAction};
use crate::pool::ScanPool;
use crate::query::plan::ScanPlan;
use crate::shard::PreparedCommit;
use crate::store::VersionedStore;
use crate::types::{
    AnnotatedSlotCursor, DiffResult, EngineKind, MergePolicy, MergeResult, SlotCursor, StoreStats,
    VersionRef,
};

/// One hybrid segment: heap file + local bitmap index + per-branch commit
/// history stores.
struct HySegment {
    heap: HeapFile,
    /// Local bitmap index: only "the set of branches which inherit records
    /// contained in that segment" have columns here (§3.4). Writers on
    /// different branches touch different columns but share the lock.
    index: RwLock<BranchBitmapIndex>,
    /// Head segments accept appends; internal segments are frozen.
    /// Mutated only under `&mut self` (branch operations).
    frozen: bool,
    /// Per-branch commit stores ("in hybrid, each (branch, segment) has its
    /// own file", §5.3) plus the branch-commit ordinal at store creation.
    stores: RwLock<FxHashMap<BranchId, (CommitStore, u64)>>,
}

/// The hybrid engine.
pub struct HybridEngine {
    dir: PathBuf,
    schema: Schema,
    pool: Arc<BufferPool>,
    segments: Vec<HySegment>,
    /// The global branch-segment bitmap: row = branch, bit = segment id.
    branch_seg: RwLock<BranchBitmapIndex>,
    /// Per-branch head segment. Mutated only under `&mut self`.
    head: Vec<SegmentId>,
    /// Per-branch primary-key index: key → (segment, slot) of the live
    /// copy. One lock per branch so disjoint-branch writers never contend;
    /// a fork clones the parent's handle, which copies no entry.
    pk: Vec<RwLock<PkIndex<(SegmentId, RecordIdx)>>>,
    /// `commit/pk_cow_entries`, handed to every index built.
    pk_cow_entries: Counter,
    /// Copy-on-write version graph: readers clone the `Arc` and traverse
    /// without holding the lock; committers `Arc::make_mut` under it.
    graph: RwLock<Arc<VersionGraph>>,
    /// Commits made per branch (ordinal source for commit stores).
    /// Same-branch commits are serialized by the caller; the atomic makes
    /// cross-branch reads (checkpoint) torn-free.
    branch_commits: Vec<AtomicU64>,
    /// Global commit id → (branch, branch-commit ordinal).
    commit_map: RwLock<FxHashMap<CommitId, (BranchId, u64)>>,
    /// Persistent work-stealing pool for a merge's per-segment change-set
    /// tasks, sized to the machine once per engine on first use (no
    /// threads are spawned per call).
    scan_pool: OnceLock<ScanPool>,
    /// Whether checkpoint flushes fsync (from [`StoreConfig::fsync`]).
    fsync: bool,
}

/// Commit-store file for one (segment, branch) pair.
fn store_path(dir: &Path, seg: SegmentId, b: BranchId) -> PathBuf {
    dir.join(format!("commits_s{}_b{}.dcl", seg.raw(), b.raw()))
}

impl HybridEngine {
    /// Initializes a fresh store in `dir` with an empty `master` branch.
    pub fn init(dir: impl AsRef<Path>, schema: Schema, config: &StoreConfig) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        config
            .env
            .create_dir_all(&dir)
            .map_err(|e| DbError::io("creating engine directory", e))?;
        let pool = Arc::new(BufferPool::for_store(config));
        let pk_cow_entries = pk::cow_entries_counter(&config.metrics);
        let mut engine = HybridEngine {
            dir,
            schema,
            pool,
            segments: Vec::new(),
            branch_seg: RwLock::new(BranchBitmapIndex::new()),
            head: Vec::new(),
            pk: vec![RwLock::new(PkIndex::new(pk_cow_entries.clone()))],
            pk_cow_entries,
            graph: RwLock::new(Arc::new(VersionGraph::init())),
            branch_commits: vec![AtomicU64::new(0)],
            commit_map: RwLock::new(FxHashMap::default()),
            scan_pool: OnceLock::new(),
            fsync: config.fsync,
        };
        engine
            .branch_seg
            .get_mut()
            .add_branch(BranchId::MASTER, None);
        let seg = engine.new_segment()?;
        engine.head.push(seg);
        engine.mark_branch_segment(BranchId::MASTER, seg);
        engine.segments[seg.index()]
            .index
            .get_mut()
            .add_branch(BranchId::MASTER, None);
        let init = engine.snapshot_commit(BranchId::MASTER)?;
        engine
            .commit_map
            .get_mut()
            .insert(CommitId::INIT, (BranchId::MASTER, init));
        Ok(engine)
    }

    /// Reopens an engine from checkpoint-flushed state: segment heap
    /// files, per-(branch, segment) commit-store files, and the snapshot
    /// `payload` a previous [`VersionedStore::checkpoint`] call produced
    /// (embedded graph, per-segment bitmap columns, branch-segment bitmap,
    /// head assignments, commit ordinals). The per-branch primary-key
    /// indexes are derived state and are rebuilt from the bitmap columns;
    /// the journal is not consulted.
    pub fn open_from(
        dir: impl AsRef<Path>,
        schema: Schema,
        config: &StoreConfig,
        payload: &[u8],
    ) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let pool = Arc::new(BufferPool::for_store(config));
        let corrupt = |what: &str| DbError::corrupt(format!("hybrid checkpoint: {what}"));
        let mut pos = 0usize;
        let graph = VersionGraph::from_bytes(checkpoint::read_slice(payload, &mut pos)?)?;
        let n_branches = graph.num_branches();
        let n_segments = varint::read_u64(payload, &mut pos)? as usize;
        // Pass 1: segments (heaps at coverage, local bitmap columns, the
        // commit-store coordinates to open below).
        let mut segments = Vec::with_capacity(n_segments);
        let mut store_specs: Vec<Vec<(BranchId, u64, u64, u32)>> = Vec::with_capacity(n_segments);
        for s in 0..n_segments {
            let heap_len = varint::read_u64(payload, &mut pos)?;
            let heap = HeapFile::open_at(
                Arc::clone(&pool),
                dir.join(format!("seg_{s}.dat")),
                schema.clone(),
                heap_len,
            )?;
            let frozen = *payload.get(pos).ok_or_else(|| corrupt("truncated flags"))? != 0;
            pos += 1;
            let mut index = BranchBitmapIndex::new();
            let n_cols = varint::read_u64(payload, &mut pos)? as usize;
            for _ in 0..n_cols {
                let b = BranchId(varint::read_u64(payload, &mut pos)? as u32);
                let bm = checkpoint::read_bitmap(payload, &mut pos)?;
                index.restore_branch(b, &bm);
            }
            index.ensure_rows(heap_len);
            let n_stores = varint::read_u64(payload, &mut pos)? as usize;
            let mut specs = Vec::with_capacity(n_stores);
            for _ in 0..n_stores {
                let b = BranchId(varint::read_u64(payload, &mut pos)? as u32);
                let first = varint::read_u64(payload, &mut pos)?;
                let covered = varint::read_u64(payload, &mut pos)?;
                let pending = varint::read_u64(payload, &mut pos)? as u32;
                specs.push((b, first, covered, pending));
            }
            store_specs.push(specs);
            segments.push(HySegment {
                heap,
                index: RwLock::new(index),
                frozen,
                stores: RwLock::new(FxHashMap::default()),
            });
        }
        // Pass 2: global structures.
        let n_seg_cols = varint::read_u64(payload, &mut pos)? as usize;
        if n_seg_cols != n_branches {
            return Err(corrupt("branch-segment column count mismatch"));
        }
        let mut branch_seg = BranchBitmapIndex::new();
        branch_seg.ensure_rows(n_segments as u64);
        for b in 0..n_branches {
            let bm = checkpoint::read_bitmap(payload, &mut pos)?;
            branch_seg.restore_branch(BranchId(b as u32), &bm);
        }
        let n_heads = varint::read_u64(payload, &mut pos)? as usize;
        if n_heads != n_branches {
            return Err(corrupt("head count mismatch"));
        }
        let mut head = Vec::with_capacity(n_heads);
        for _ in 0..n_heads {
            let seg = SegmentId(varint::read_u64(payload, &mut pos)? as u32);
            if seg.index() >= n_segments {
                return Err(corrupt("head names unknown segment"));
            }
            head.push(seg);
        }
        let n_counts = varint::read_u64(payload, &mut pos)? as usize;
        if n_counts != n_branches {
            return Err(corrupt("branch commit-count mismatch"));
        }
        let mut branch_commits = Vec::with_capacity(n_counts);
        for _ in 0..n_counts {
            branch_commits.push(varint::read_u64(payload, &mut pos)?);
        }
        let commit_map: FxHashMap<CommitId, (BranchId, u64)> =
            checkpoint::read_triples(payload, &mut pos)?
                .into_iter()
                .map(|(c, b, ord)| (CommitId(c), (BranchId(b as u32), ord)))
                .collect();
        // Pass 3: reopen the commit stores and validate each delta chain
        // against the branch's recorded commit count — a store that lost a
        // synced delta (or kept one from a discarded future) fails here
        // rather than serving a wrong historical checkout later.
        for (s, specs) in store_specs.into_iter().enumerate() {
            for (b, first, covered, pending) in specs {
                let store = CommitStore::open_at_in(
                    Arc::clone(pool.env()),
                    store_path(&dir, SegmentId(s as u32), b),
                    CommitStore::DEFAULT_LAYER_INTERVAL,
                    covered,
                    pending,
                )?;
                let expect = branch_commits
                    .get(b.index())
                    .ok_or_else(|| corrupt("store names unknown branch"))?
                    .checked_sub(first)
                    .ok_or_else(|| corrupt("store ordinal beyond branch history"))?;
                if store.commit_count() != expect {
                    return Err(corrupt(&format!(
                        "store (segment {s}, branch {}) holds {} snapshots, expected {expect}",
                        b.raw(),
                        store.commit_count()
                    )));
                }
                segments[s].stores.get_mut().insert(b, (store, first));
            }
        }
        let pk_cow_entries = pk::cow_entries_counter(&config.metrics);
        let pk = Self::rebuild_pk(&graph, &segments, &branch_seg, &pk_cow_entries)?;
        Ok(HybridEngine {
            dir,
            schema,
            pool,
            segments,
            branch_seg: RwLock::new(branch_seg),
            head,
            pk: pk.into_iter().map(RwLock::new).collect(),
            pk_cow_entries,
            graph: RwLock::new(Arc::new(graph)),
            branch_commits: branch_commits.into_iter().map(AtomicU64::new).collect(),
            commit_map: RwLock::new(commit_map),
            scan_pool: OnceLock::new(),
            fsync: config.fsync,
        })
    }

    /// Pass 4 of [`HybridEngine::open_from`]: rebuilds the per-branch
    /// primary-key indexes from the bitmap columns (one live copy per key
    /// per branch by invariant), in id order, so the branch a fork's commit
    /// was made on is there for the fork to start from (see
    /// [`PkIndex::rebuilt`]). A segment only one of the two has a column in
    /// differs everywhere.
    fn rebuild_pk(
        graph: &VersionGraph,
        segments: &[HySegment],
        branch_seg: &BranchBitmapIndex,
        cow_entries: &Counter,
    ) -> Result<Vec<PkIndex<(SegmentId, RecordIdx)>>> {
        let corrupt = |what: &str| DbError::corrupt(format!("hybrid checkpoint: {what}"));
        let empty = Bitmap::new();
        let mut pk: Vec<PkIndex<(SegmentId, RecordIdx)>> = Vec::new();
        for b in 0..graph.num_branches() {
            let bid = BranchId(b as u32);
            let parent = graph.commit(graph.branch(bid)?.forked_at)?.branch;
            let parent = (parent.index() < b).then_some(parent);
            let mut seg_bits = branch_seg.branch_bitmap(bid);
            if let Some(p) = parent {
                seg_bits.or_assign(&branch_seg.branch_bitmap(p));
            }
            let mut indexes = Vec::new();
            for s in seg_bits.iter_ones() {
                let seg = segments
                    .get(s as usize)
                    .ok_or_else(|| corrupt("branch-segment bit names unknown segment"))?;
                indexes.push((s as u32, seg, seg.index.read()));
            }
            let parts: Vec<_> = indexes
                .iter()
                .map(|(s, seg, index)| HeapRows {
                    heap: &seg.heap,
                    own: index.branch_ref(bid).unwrap_or(&empty),
                    base: parent.and_then(|p| index.branch_ref(p)).unwrap_or(&empty),
                    loc: |row| (SegmentId(*s), row),
                })
                .collect();
            let parent = parent.map(|p| &pk[p.index()]);
            let keys = PkIndex::rebuilt(parent, &parts, cow_entries)?;
            pk.push(keys);
        }
        Ok(pk)
    }

    fn new_segment(&mut self) -> Result<SegmentId> {
        let id = SegmentId(self.segments.len() as u32);
        let heap = HeapFile::create(
            Arc::clone(&self.pool),
            self.dir.join(format!("seg_{}.dat", id.raw())),
            self.schema.clone(),
        )?;
        self.segments.push(HySegment {
            heap,
            index: RwLock::new(BranchBitmapIndex::new()),
            frozen: false,
            stores: RwLock::new(FxHashMap::default()),
        });
        self.branch_seg
            .get_mut()
            .ensure_rows(self.segments.len() as u64);
        Ok(id)
    }

    fn mark_branch_segment(&self, branch: BranchId, seg: SegmentId) {
        let mut bs = self.branch_seg.write();
        bs.ensure_rows(self.segments.len() as u64);
        bs.set(branch, seg.raw() as u64, true);
    }

    /// Segment ids containing records of `branch`, from the global bitmap.
    fn segments_of(&self, branch: BranchId) -> Vec<SegmentId> {
        let branch_seg = self.branch_seg.read();
        let bits = branch_seg.branch_ref(branch).into_iter();
        bits.flat_map(Bitmap::iter_ones)
            .map(|s| SegmentId(s as u32))
            .collect()
    }

    /// Appends a commit snapshot of every (branch, segment) bitmap and
    /// returns the branch-commit ordinal. Safe to run concurrently with
    /// other *branches'* snapshots (they touch other columns and other
    /// commit stores); same-branch callers are serialized by the database.
    fn snapshot_commit(&self, branch: BranchId) -> Result<u64> {
        let ord = self.branch_commits[branch.index()].load(Ordering::Acquire);
        for seg_id in self.segments_of(branch) {
            let seg = &self.segments[seg_id.index()];
            let col = seg.index.read().branch_bitmap(branch);
            let mut stores = seg.stores.write();
            let (store, _) = match stores.entry(branch) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    let store = CommitStore::create_in(
                        Arc::clone(self.pool.env()),
                        store_path(&self.dir, seg_id, branch),
                        CommitStore::DEFAULT_LAYER_INTERVAL,
                    )?;
                    e.insert((store, ord))
                }
            };
            store.append_commit(&col)?;
        }
        self.branch_commits[branch.index()].store(ord + 1, Ordering::Release);
        Ok(ord)
    }

    fn do_commit(&self, branch: BranchId, extra_parents: &[CommitId]) -> Result<CommitId> {
        let ord = self.snapshot_commit(branch)?;
        let mut graph = self.graph.write();
        let cid = Arc::make_mut(&mut graph).add_commit(branch, extra_parents)?;
        self.commit_map.write().insert(cid, (branch, ord));
        Ok(cid)
    }

    /// Reconstructs the per-segment liveness bitmaps of a version.
    fn version_bitmaps(&self, version: VersionRef) -> Result<Vec<(SegmentId, Bitmap)>> {
        match version {
            VersionRef::Branch(b) => {
                self.graph.read().branch(b)?;
                Ok(self
                    .segments_of(b)
                    .into_iter()
                    .map(|s| (s, self.segments[s.index()].index.read().branch_bitmap(b)))
                    .collect())
            }
            VersionRef::Commit(c) => {
                let (b, ord) = *self
                    .commit_map
                    .read()
                    .get(&c)
                    .ok_or(DbError::UnknownCommit(c.raw()))?;
                let mut out = Vec::new();
                for (idx, seg) in self.segments.iter().enumerate() {
                    let stores = seg.stores.read();
                    if let Some((store, first)) = stores.get(&b) {
                        if ord >= *first && ord - first < store.commit_count() {
                            out.push((SegmentId(idx as u32), store.checkout(ord - first)?));
                        }
                    }
                }
                Ok(out)
            }
        }
    }

    /// Ensures `branch` has a bitmap column in `seg`.
    fn ensure_column(&self, seg: SegmentId, branch: BranchId) {
        let s = &self.segments[seg.index()];
        let mut index = s.index.write();
        if !index.has_branch(branch) {
            index.add_branch(branch, None);
        }
        index.ensure_rows(s.heap.len());
    }

    /// Clears the live bit of a branch's current copy of a key, if any.
    fn clear_old(&self, branch: BranchId, key: u64) -> Option<(SegmentId, RecordIdx)> {
        let old = self.pk[branch.index()].write().remove(key)?;
        // Internal segments stay frozen for data, "only the segment's
        // bitmap may change" (§3.4) — exactly this operation.
        let seg = &self.segments[old.0.index()];
        let mut index = seg.index.write();
        index.ensure_rows(seg.heap.len());
        index.set(branch, old.1.raw(), false);
        Some(old)
    }

    /// Appends a record to the branch's head segment and marks it live.
    fn append_live(&self, branch: BranchId, record: &Record) -> Result<(SegmentId, RecordIdx)> {
        let seg_id = self.head[branch.index()];
        let seg = &self.segments[seg_id.index()];
        debug_assert!(!seg.frozen, "head segment must be unfrozen");
        let idx = seg.heap.append(record)?;
        {
            let mut index = seg.index.write();
            if !index.has_branch(branch) {
                index.add_branch(branch, None);
            }
            index.ensure_rows(seg.heap.len());
            index.set(branch, idx.raw(), true);
        }
        self.mark_branch_segment(branch, seg_id);
        self.pk[branch.index()]
            .write()
            .insert(record.key(), (seg_id, idx));
        Ok((seg_id, idx))
    }

    /// Builds a change set of `side` relative to `base` per-segment bitmaps.
    ///
    /// The per-segment record scans run as one task per segment on the
    /// engine's persistent work-stealing [`ScanPool`], so a merge whose
    /// diff touches many segments does not pay for them sequentially. Each
    /// task decodes the rows of the segment's `and_not` bitmap
    /// ([`decode_rows`]). Combining the task outputs is
    /// order-independent within each phase (a version holds exactly one
    /// live copy per key, so no two added-row tasks — and no two
    /// removed-row tasks — can produce the same key); the *phases* keep
    /// their order: every added row lands in the map before any removed
    /// row's `or_insert(None)`, exactly as the sequential loops did.
    fn change_set(
        &self,
        side: &[(SegmentId, Bitmap)],
        base: &[(SegmentId, Bitmap)],
    ) -> Result<(ChangeSet, u64)> {
        let base_map: FxHashMap<SegmentId, &Bitmap> = base.iter().map(|(s, b)| (*s, b)).collect();
        let side_map: FxHashMap<SegmentId, &Bitmap> = side.iter().map(|(s, b)| (*s, b)).collect();
        // Plan: (segment, rows to decode, is the removed-rows phase).
        let mut plan: Vec<(SegmentId, Bitmap, bool)> = Vec::new();
        // Rows live on the side but not in the base: inserts/updated copies.
        for (seg, bm) in side {
            let added = match base_map.get(seg) {
                Some(base_bm) => bm.and_not(base_bm),
                None => bm.clone(),
            };
            if added.count_ones() > 0 {
                plan.push((*seg, added, false));
            }
        }
        // Base rows gone from the side: deletions (unless replaced above).
        for (seg, bm) in base {
            let removed = match side_map.get(seg) {
                Some(side_bm) => bm.and_not(side_bm),
                None => bm.clone(),
            };
            if removed.count_ones() > 0 {
                plan.push((*seg, removed, true));
            }
        }
        let removed_phase: Vec<bool> = plan.iter().map(|&(_, _, removed)| removed).collect();
        let schema = &self.schema;
        let tasks: Vec<_> = plan
            .into_iter()
            .map(|(seg, rows, _)| {
                let rows = vec![self.seg(seg, rows, ())];
                move || decode_rows(rows, schema)
            })
            .collect();
        let outcomes = if tasks.len() > 1 {
            self.scan_pool().run(tasks)
        } else {
            tasks.into_iter().map(|t| t()).collect()
        };
        let mut changes = ChangeSet::default();
        let mut bytes = 0u64;
        for (removed, rows) in removed_phase.iter().zip(outcomes) {
            for rec in rows? {
                bytes += self.schema.record_size() as u64;
                if *removed {
                    changes.entry(rec.key()).or_insert(None);
                } else {
                    changes.insert(rec.key(), Some(rec));
                }
            }
        }
        Ok((changes, bytes))
    }

    /// The engine's persistent scan pool (spawned on first use, reused for
    /// every merge thereafter).
    fn scan_pool(&self) -> &ScanPool {
        self.scan_pool
            .get_or_init(|| ScanPool::new(ScanPool::default_threads()))
    }

    /// Segment `id` as one heap of a planned scan over the rows set in
    /// `live`.
    fn seg<A>(&self, id: SegmentId, live: Bitmap, ann: A) -> Seg<'_, A> {
        Seg {
            id,
            heap: &self.segments[id.index()].heap,
            live,
            ann,
        }
    }

    /// Shared planning for multi-branch scans: per relevant segment, the
    /// union bitmap and the per-branch columns.
    #[allow(clippy::type_complexity)]
    fn multi_scan_plan(
        &self,
        branches: &[BranchId],
    ) -> Result<Vec<(SegmentId, Bitmap, Vec<(BranchId, Bitmap)>)>> {
        // "to find the set of records represented in either of two
        // branches, one need only consult the segments identified by the
        // logical OR of the rows for those branches" (§3.4).
        {
            let graph = self.graph.read();
            for &b in branches {
                graph.branch(b)?;
            }
        }
        let mut seg_union = Bitmap::zeros(self.segments.len() as u64);
        {
            let bs = self.branch_seg.read();
            for &b in branches {
                seg_union.or_assign(&bs.branch_bitmap(b));
            }
        }
        let mut plan = Vec::new();
        for s in seg_union.iter_ones() {
            let seg_id = SegmentId(s as u32);
            let seg = &self.segments[s as usize];
            let index = seg.index.read();
            let mut union = Bitmap::zeros(seg.heap.len());
            let mut cols = Vec::new();
            for &b in branches {
                if index.has_branch(b) {
                    let col = index.branch_bitmap(b);
                    union.or_assign(&col);
                    cols.push((b, col));
                }
            }
            plan.push((seg_id, union, cols));
        }
        Ok(plan)
    }
}

impl VersionedStore for HybridEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Hybrid
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
                let cid = self.do_commit(b, &[])?;
                (cid, Some(b))
            }
            VersionRef::Commit(c) => (c, None),
        };
        let new_b = Arc::make_mut(self.graph.get_mut()).create_branch(name, from_commit)?;
        debug_assert_eq!(new_b.index(), self.pk.len());
        self.branch_commits.push(AtomicU64::new(0));
        match parent_branch {
            Some(p) => {
                // "The branch operation creates two new head segments ...
                // The old head of the parent becomes an internal segment
                // that contains records in both branches (note that its
                // bitmap is expanded)" (§3.4).
                let old_head = self.head[p.index()];
                self.segments[old_head.index()].frozen = true;
                // Child inherits the parent's liveness in every ancestral
                // segment — "a bitmap scan ... only for those records in
                // the direct ancestry instead of on the entire bitmap".
                self.branch_seg.get_mut().add_branch(new_b, Some(p));
                for seg_id in self.segments_of(p) {
                    let index = self.segments[seg_id.index()].index.get_mut();
                    if index.has_branch(p) {
                        index.add_branch(new_b, Some(p));
                    }
                }
                // The key index is shared, not copied: see [`PkIndex`].
                let inherited = self.pk[p.index()].get_mut().clone();
                self.pk.push(RwLock::new(inherited));
                // Two fresh head segments.
                let p_head = self.new_segment()?;
                self.head[p.index()] = p_head;
                self.mark_branch_segment(p, p_head);
                self.segments[p_head.index()]
                    .index
                    .get_mut()
                    .add_branch(p, None);
                let c_head = self.new_segment()?;
                self.head.push(c_head);
                self.mark_branch_segment(new_b, c_head);
                self.segments[c_head.index()]
                    .index
                    .get_mut()
                    .add_branch(new_b, None);
            }
            None => {
                // Fork from a historical commit: restore its per-segment
                // bitmaps as the child's columns.
                let bitmaps = self.version_bitmaps(VersionRef::Commit(from_commit))?;
                self.branch_seg.get_mut().add_branch(new_b, None);
                let rows: u64 = bitmaps.iter().map(|(_, bm)| bm.count_ones()).sum();
                let mut keys = PkIndex::with_capacity(rows as usize, self.pk_cow_entries.clone());
                for (seg_id, bm) in bitmaps {
                    if bm.count_ones() == 0 {
                        continue;
                    }
                    {
                        let seg = &mut self.segments[seg_id.index()];
                        let heap_len = seg.heap.len();
                        let index = seg.index.get_mut();
                        index.add_branch(new_b, None);
                        index.ensure_rows(heap_len);
                        index.restore_branch(new_b, &bm);
                    }
                    self.mark_branch_segment(new_b, seg_id);
                    let heap = &self.segments[seg_id.index()].heap;
                    keys.insert_rows(heap, &bm, |row| (seg_id, row))?;
                }
                self.pk.push(RwLock::new(keys));
                let c_head = self.new_segment()?;
                self.head.push(c_head);
                self.mark_branch_segment(new_b, c_head);
                self.segments[c_head.index()]
                    .index
                    .get_mut()
                    .add_branch(new_b, None);
            }
        }
        Ok(new_b)
    }

    fn prepare_commit(&self, branch: BranchId) -> Result<PreparedCommit> {
        self.graph.read().branch(branch)?;
        let ord = self.snapshot_commit(branch)?;
        Ok(PreparedCommit(vec![(0, ord)]))
    }

    fn finalize_commit(&self, branch: BranchId, prep: PreparedCommit) -> Result<CommitId> {
        let &(_, ord) = prep
            .0
            .first()
            .ok_or_else(|| DbError::Invalid("empty prepared commit".into()))?;
        let mut graph = self.graph.write();
        let cid = Arc::make_mut(&mut graph).add_commit(branch, &[])?;
        self.commit_map.write().insert(cid, (branch, ord));
        Ok(cid)
    }

    fn checkout_version(&self, commit: CommitId) -> Result<u64> {
        Ok(self
            .version_bitmaps(VersionRef::Commit(commit))?
            .iter()
            .map(|(_, bm)| bm.count_ones())
            .sum())
    }

    fn insert(&self, branch: BranchId, record: Record) -> Result<()> {
        self.schema.check_arity(record.fields().len())?;
        self.graph.read().branch(branch)?;
        if self.pk[branch.index()].read().contains_key(record.key()) {
            return Err(DbError::DuplicateKey { key: record.key() });
        }
        self.append_live(branch, &record)?;
        Ok(())
    }

    fn update(&self, branch: BranchId, record: Record) -> Result<()> {
        self.schema.check_arity(record.fields().len())?;
        self.graph.read().branch(branch)?;
        if !self.pk[branch.index()].read().contains_key(record.key()) {
            return Err(DbError::KeyNotFound { key: record.key() });
        }
        self.clear_old(branch, record.key());
        self.append_live(branch, &record)?;
        Ok(())
    }

    fn delete(&self, branch: BranchId, key: u64) -> Result<bool> {
        self.graph.read().branch(branch)?;
        Ok(self.clear_old(branch, key).is_some())
    }

    fn get(&self, version: VersionRef, key: u64) -> Result<Option<Record>> {
        if let VersionRef::Branch(b) = version {
            self.graph.read().branch(b)?;
            let loc = self.pk[b.index()].read().get(key);
            return match loc {
                Some((seg, idx)) => Ok(Some(self.segments[seg.index()].heap.get(idx)?)),
                None => Ok(None),
            };
        }
        for (seg, bm) in self.version_bitmaps(version)? {
            let heap = &self.segments[seg.index()].heap;
            let mut pos = 0u64;
            while let Some(row) = bm.next_one(pos) {
                pos = row + 1;
                let (k, _) = heap.peek_key(RecordIdx(row))?;
                if k == key {
                    return Ok(Some(heap.get(RecordIdx(row))?));
                }
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
        let segs = self
            .version_bitmaps(version)?
            .into_iter()
            .map(|(id, live)| self.seg(id, live, ()))
            .collect();
        Ok(Box::new(SegmentedScan::new(
            segs,
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
        let segs = self
            .multi_scan_plan(branches)?
            .into_iter()
            .map(|(id, live, ann)| self.seg(id, live, ann))
            .collect();
        Ok(Box::new(BranchColumnScan::new(
            segs,
            plan.page_predicate(),
            from,
        )))
    }

    fn diff(&self, left: VersionRef, right: VersionRef) -> Result<DiffResult> {
        let lmaps: FxHashMap<SegmentId, Bitmap> = self.version_bitmaps(left)?.into_iter().collect();
        let rmaps: FxHashMap<SegmentId, Bitmap> =
            self.version_bitmaps(right)?.into_iter().collect();
        let mut segs: Vec<SegmentId> = lmaps.keys().chain(rmaps.keys()).copied().collect();
        segs.sort_unstable();
        segs.dedup();
        let empty = Bitmap::new();
        let (mut left, mut right) = (Vec::new(), Vec::new());
        for seg in segs {
            let l = lmaps.get(&seg).unwrap_or(&empty);
            let r = rmaps.get(&seg).unwrap_or(&empty);
            left.push(self.seg(seg, l.and_not(r), ()));
            right.push(self.seg(seg, r.and_not(l), ()));
        }
        Ok(DiffResult {
            left_only: decode_rows(left, &self.schema)?,
            right_only: decode_rows(right, &self.schema)?,
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
        self.do_commit(into, &[])?;
        let from_head = self.do_commit(from, &[])?;

        // "the segment bitmaps can be leveraged (also requiring the lowest
        // common ancestor commit) to determine where the conflicts are
        // within the segment" (§3.4).
        let lca = {
            let graph = self.graph.read();
            graph.lca(graph.head(into)?, from_head)?
        };
        let lca_bms = self.version_bitmaps(VersionRef::Commit(lca))?;
        let into_bms = self.version_bitmaps(VersionRef::Branch(into))?;
        let from_bms = self.version_bitmaps(VersionRef::Branch(from))?;

        let (left_changes, lbytes) = self.change_set(&into_bms, &lca_bms)?;
        let (right_changes, rbytes) = self.change_set(&from_bms, &lca_bms)?;

        // Base copies for both-changed keys: LCA rows replaced in `into`.
        let into_map: FxHashMap<SegmentId, &Bitmap> =
            into_bms.iter().map(|(s, b)| (*s, b)).collect();
        let mut base_rows: FxHashMap<u64, (SegmentId, RecordIdx)> = FxHashMap::default();
        for (seg, bm) in &lca_bms {
            let gone = match into_map.get(seg) {
                Some(ib) => bm.and_not(ib),
                None => bm.clone(),
            };
            let heap = &self.segments[seg.index()].heap;
            let mut pos = 0u64;
            while let Some(row) = gone.next_one(pos) {
                pos = row + 1;
                let (key, _) = heap.peek_key(RecordIdx(row))?;
                base_rows.insert(key, (*seg, RecordIdx(row)));
            }
        }

        let segments = &self.segments;
        let plan = plan_merge(
            policy,
            &left_changes,
            &right_changes,
            self.schema.record_size(),
            |key| match base_rows.get(&key) {
                Some(&(seg, idx)) => Ok(Some(segments[seg.index()].heap.get(idx)?)),
                None => Ok(None),
            },
        )?;

        let mut changed = 0u64;
        for (key, action) in &plan.actions {
            match action {
                MergeAction::KeepLeft => {}
                MergeAction::TakeRight(_) => {
                    // Adopt the source's copy in place: mark it live for
                    // `into` in its containing segment ("identifying the
                    // new segments from the second parent that must track
                    // records for the branch it is being merged into").
                    let (seg, idx) = self.pk[from.index()]
                        .read()
                        .get(*key)
                        .expect("a key the source changed is live in the source");
                    self.clear_old(into, *key);
                    self.ensure_column(seg, into);
                    self.segments[seg.index()]
                        .index
                        .write()
                        .set(into, idx.raw(), true);
                    self.mark_branch_segment(into, seg);
                    self.pk[into.index()].write().insert(*key, (seg, idx));
                    changed += 1;
                }
                MergeAction::Materialize(rec) => {
                    self.clear_old(into, *key);
                    self.append_live(into, rec)?;
                    changed += 1;
                }
                MergeAction::Delete => {
                    if self.clear_old(into, *key).is_some() {
                        changed += 1;
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
            data_bytes: self.segments.iter().map(|s| s.heap.byte_size()).sum(),
            index_bytes: (self
                .segments
                .iter()
                .map(|s| s.index.read().byte_size())
                .sum::<usize>()
                + self.branch_seg.read().byte_size()) as u64,
            commit_store_bytes: self
                .segments
                .iter()
                .map(|s| {
                    s.stores
                        .read()
                        .values()
                        .map(|(store, _)| store.file_size())
                        .sum::<u64>()
                })
                .sum(),
            num_segments: self.segments.len() as u32,
            num_commits: self.graph.read().num_commits(),
        }
    }

    fn flush(&mut self) -> Result<()> {
        for seg in &self.segments {
            seg.heap.flush()?;
        }
        self.graph
            .get_mut()
            .save_in(self.pool.env().as_ref(), self.dir.join("graph.dvg"), false)
    }

    fn checkpoint(&mut self) -> Result<Vec<u8>> {
        for seg in &self.segments {
            seg.heap.flush()?;
            if self.fsync {
                seg.heap.sync()?;
                for (store, _) in seg.stores.read().values() {
                    store.sync()?;
                }
            }
        }
        self.graph.get_mut().save_in(
            self.pool.env().as_ref(),
            self.dir.join("graph.dvg"),
            self.fsync,
        )?;
        let mut out = Vec::new();
        checkpoint::write_slice(&mut out, &self.graph.get_mut().to_bytes());
        varint::write_u64(&mut out, self.segments.len() as u64);
        for seg in &self.segments {
            varint::write_u64(&mut out, seg.heap.len());
            out.push(seg.frozen as u8);
            // Local bitmap columns, branch-sorted for a deterministic
            // snapshot (the column maps iterate in arbitrary order).
            let index = seg.index.read();
            let mut cols: Vec<BranchId> = index.branches().collect();
            cols.sort_unstable();
            varint::write_u64(&mut out, cols.len() as u64);
            for b in cols {
                varint::write_u64(&mut out, b.raw() as u64);
                checkpoint::write_bitmap(&mut out, &index.branch_bitmap(b));
            }
            let stores = seg.stores.read();
            let mut sorted: Vec<(BranchId, &(CommitStore, u64))> =
                stores.iter().map(|(b, s)| (*b, s)).collect();
            sorted.sort_unstable_by_key(|(b, _)| *b);
            varint::write_u64(&mut out, sorted.len() as u64);
            for (b, (store, first)) in sorted {
                varint::write_u64(&mut out, b.raw() as u64);
                varint::write_u64(&mut out, *first);
                varint::write_u64(&mut out, store.on_disk_len());
                varint::write_u64(&mut out, store.pending_empty_count() as u64);
            }
        }
        let n_branches = self.graph.get_mut().num_branches();
        varint::write_u64(&mut out, n_branches as u64);
        {
            let bs = self.branch_seg.get_mut();
            for b in 0..n_branches {
                checkpoint::write_bitmap(&mut out, &bs.branch_bitmap(BranchId(b as u32)));
            }
        }
        varint::write_u64(&mut out, self.head.len() as u64);
        for &seg in &self.head {
            varint::write_u64(&mut out, seg.raw() as u64);
        }
        varint::write_u64(&mut out, self.branch_commits.len() as u64);
        for n in &self.branch_commits {
            varint::write_u64(&mut out, n.load(Ordering::Acquire));
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

    fn engine() -> (tempfile::TempDir, HybridEngine) {
        let dir = tempfile::tempdir().unwrap();
        let schema = Schema::new(4, decibel_common::schema::ColumnType::U32);
        let eng = HybridEngine::init(dir.path().join("hy"), schema, &StoreConfig::test_default())
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
            eng.insert(BranchId::MASTER, rec(k, k)).unwrap();
        }
        assert_eq!(
            keys(eng.scan(BranchId::MASTER.into()).unwrap()),
            (0..10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn branching_freezes_head_and_creates_two_heads() {
        let (_d, mut eng) = engine();
        for k in 0..5 {
            eng.insert(BranchId::MASTER, rec(k, k)).unwrap();
        }
        assert_eq!(eng.segments.len(), 1);
        let dev = eng.create_branch("dev", BranchId::MASTER.into()).unwrap();
        // Old head frozen; two new heads created.
        assert_eq!(eng.segments.len(), 3);
        assert!(eng.segments[0].frozen);
        assert!(!eng.segments[1].frozen);
        assert!(!eng.segments[2].frozen);
        assert_ne!(eng.head[BranchId::MASTER.index()], eng.head[dev.index()]);
        // Both branches see the inherited records.
        assert_eq!(
            keys(eng.scan(BranchId::MASTER.into()).unwrap()),
            (0..5).collect::<Vec<_>>()
        );
        assert_eq!(
            keys(eng.scan(dev.into()).unwrap()),
            (0..5).collect::<Vec<_>>()
        );
    }

    #[test]
    fn branch_isolation_and_update_across_segments() {
        let (_d, mut eng) = engine();
        for k in 0..5 {
            eng.insert(BranchId::MASTER, rec(k, k)).unwrap();
        }
        let dev = eng.create_branch("dev", BranchId::MASTER.into()).unwrap();
        // Update an inherited record in dev: clears the bit in the frozen
        // internal segment, appends to dev's head.
        eng.update(dev, rec(0, 77)).unwrap();
        eng.insert(dev, rec(100, 0)).unwrap();
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
    fn duplicate_and_missing_keys_are_validated() {
        let (_d, eng) = engine();
        eng.insert(BranchId::MASTER, rec(1, 0)).unwrap();
        assert!(matches!(
            eng.insert(BranchId::MASTER, rec(1, 1)),
            Err(DbError::DuplicateKey { key: 1 })
        ));
        assert!(matches!(
            eng.update(BranchId::MASTER, rec(9, 0)),
            Err(DbError::KeyNotFound { key: 9 })
        ));
        assert!(eng.delete(BranchId::MASTER, 1).unwrap());
        assert!(!eng.delete(BranchId::MASTER, 1).unwrap());
    }

    #[test]
    fn commit_checkout_per_segment_history() {
        let (_d, mut eng) = engine();
        eng.insert(BranchId::MASTER, rec(1, 0)).unwrap();
        let c1 = eng.commit(BranchId::MASTER).unwrap();
        let dev = eng.create_branch("dev", BranchId::MASTER.into()).unwrap();
        eng.insert(dev, rec(2, 0)).unwrap();
        eng.update(dev, rec(1, 9)).unwrap();
        let c2 = eng.commit(dev).unwrap();
        eng.delete(dev, 2).unwrap();

        assert_eq!(eng.checkout_version(c1).unwrap(), 1);
        assert_eq!(eng.checkout_version(c2).unwrap(), 2);
        assert_eq!(keys(eng.scan(c1.into()).unwrap()), vec![1]);
        assert_eq!(keys(eng.scan(c2.into()).unwrap()), vec![1, 2]);
        assert_eq!(eng.get(c2.into(), 1).unwrap().unwrap().field(0), 9);
        assert_eq!(keys(eng.scan(dev.into()).unwrap()), vec![1]);
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
        eng.update(old, rec(1, 5)).unwrap();
        eng.insert(old, rec(3, 0)).unwrap();
        assert_eq!(keys(eng.scan(old.into()).unwrap()), vec![1, 3]);
        assert_eq!(eng.get(old.into(), 1).unwrap().unwrap().field(0), 5);
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
        assert_eq!(l, vec![0, 10]);
        let mut r: Vec<u64> = d.right_only.iter().map(|r| r.key()).collect();
        r.sort_unstable();
        assert_eq!(r, vec![0, 3]);
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
    fn three_way_merge_field_level() {
        let (_d, mut eng) = engine();
        eng.insert(BranchId::MASTER, rec(1, 10)).unwrap();
        let dev = eng.create_branch("dev", BranchId::MASTER.into()).unwrap();
        let mut l = rec(1, 10);
        l.set_field(0, 111);
        eng.update(BranchId::MASTER, l).unwrap();
        let mut r = rec(1, 10);
        r.set_field(3, 333);
        eng.update(dev, r).unwrap();

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
    }

    #[test]
    fn merge_adopts_source_copies_in_place() {
        let (_d, mut eng) = engine();
        eng.insert(BranchId::MASTER, rec(1, 0)).unwrap();
        let dev = eng.create_branch("dev", BranchId::MASTER.into()).unwrap();
        eng.insert(dev, rec(5, 50)).unwrap();
        let data_before = eng.stats().data_bytes;
        eng.merge(
            BranchId::MASTER,
            dev,
            MergePolicy::TwoWay { prefer_left: true },
        )
        .unwrap();
        // The adopted record was not copied: only bitmaps changed.
        assert_eq!(eng.stats().data_bytes, data_before);
        assert_eq!(keys(eng.scan(BranchId::MASTER.into()).unwrap()), vec![1, 5]);
        assert_eq!(
            eng.get(BranchId::MASTER.into(), 5)
                .unwrap()
                .unwrap()
                .field(0),
            50
        );
    }

    #[test]
    fn merge_delete_conflict_respects_precedence() {
        let (_d, mut eng) = engine();
        eng.insert(BranchId::MASTER, rec(1, 0)).unwrap();
        let dev = eng.create_branch("dev", BranchId::MASTER.into()).unwrap();
        eng.delete(BranchId::MASTER, 1).unwrap();
        eng.update(dev, rec(1, 5)).unwrap();
        let res = eng
            .merge(
                BranchId::MASTER,
                dev,
                MergePolicy::ThreeWay { prefer_left: false },
            )
            .unwrap();
        assert_eq!(res.conflicts.len(), 1);
        assert_eq!(
            eng.get(BranchId::MASTER.into(), 1)
                .unwrap()
                .unwrap()
                .field(0),
            5
        );
    }

    #[test]
    fn stats_reflect_segmented_layout() {
        let (_d, mut eng) = engine();
        for k in 0..10 {
            eng.insert(BranchId::MASTER, rec(k, k)).unwrap();
        }
        let _dev = eng.create_branch("dev", BranchId::MASTER.into()).unwrap();
        eng.commit(BranchId::MASTER).unwrap();
        let s = eng.stats();
        assert_eq!(s.num_segments, 3);
        assert!(s.index_bytes > 0);
        assert!(s.commit_store_bytes > 0);
    }

    #[test]
    fn deep_branch_chain_scans_correctly() {
        let (_d, mut eng) = engine();
        let mut branch = BranchId::MASTER;
        let mut key = 0u64;
        for level in 0..5 {
            for _ in 0..3 {
                eng.insert(branch, rec(key, level)).unwrap();
                key += 1;
            }
            branch = eng
                .create_branch(&format!("b{level}"), branch.into())
                .unwrap();
        }
        assert_eq!(
            keys(eng.scan(branch.into()).unwrap()),
            (0..15).collect::<Vec<_>>()
        );
        assert_eq!(eng.live_count(BranchId::MASTER.into()).unwrap(), 3);
    }

    #[test]
    fn disjoint_branch_writers_do_not_corrupt_each_other() {
        use std::sync::Barrier;
        let (_d, mut eng) = engine();
        for k in 0..4 {
            eng.insert(BranchId::MASTER, rec(k, k)).unwrap();
        }
        let branches: Vec<BranchId> = (0..4)
            .map(|i| {
                eng.create_branch(&format!("w{i}"), BranchId::MASTER.into())
                    .unwrap()
            })
            .collect();
        let eng = Arc::new(eng);
        let barrier = Arc::new(Barrier::new(branches.len()));
        let mut handles = Vec::new();
        for (i, &b) in branches.iter().enumerate() {
            let eng = Arc::clone(&eng);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                for k in 0..50u64 {
                    eng.insert(b, rec(1000 + i as u64 * 1000 + k, k)).unwrap();
                }
                // Update and delete inherited records: concurrent bitmap
                // clears in the shared frozen segment.
                eng.update(b, rec(0, 900 + i as u64)).unwrap();
                eng.delete(b, 3).unwrap();
                eng.commit(b).unwrap()
            }));
        }
        let commits: Vec<CommitId> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (i, &b) in branches.iter().enumerate() {
            assert_eq!(eng.live_count(b.into()).unwrap(), 53);
            assert_eq!(
                eng.get(b.into(), 0).unwrap().unwrap().field(0),
                900 + i as u64
            );
            assert!(eng.get(b.into(), 3).unwrap().is_none());
        }
        let mut distinct: Vec<CommitId> = commits.clone();
        distinct.sort_unstable_by_key(|c| c.raw());
        distinct.dedup();
        assert_eq!(distinct.len(), branches.len());
        for &c in &commits {
            assert_eq!(eng.checkout_version(c).unwrap(), 53);
        }
        assert_eq!(eng.live_count(BranchId::MASTER.into()).unwrap(), 4);
    }
}
