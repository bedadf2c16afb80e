//! The segmented storage engine: hybrid (§3.4), and tuple-first (§3.2) as
//! its one-segment configuration.
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
//! parallelization of segment scanning". Neither scans nor merges fan out
//! here: scans stream sequentially through one [`SegmentedScan`] (a
//! materialising per-segment fan-out measured no faster on two cores), and
//! a merge decodes its per-segment change sets inline. A change set is
//! O(changed rows), so handing its few tiny decodes to a worker pool cost
//! more in hand-off and wake-up (0.59–0.70 ms per merge on two vCPUs) than
//! the decodes themselves, and `decibel-bench table3`'s hybrid three-way
//! merge throughput was no lower inline.
//!
//! # One engine, two split policies
//!
//! A segment is "a single heap file (as in version-first) accompanied by
//! a bitmap-based segment index (as in tuple-first)" (§3.4), so a
//! tuple-first store is a segmented store whose one segment is never
//! split. The [`EngineKind`] picks the policy:
//!
//! - *Hybrid* splits at every fork: "the branch operation creates two new
//!   head segments" and the parent's old head "becomes an internal
//!   segment" (§3.4), frozen for data from then on.
//! - *Tuple-first* never splits. Every branch's head is segment 0, also
//!   after a fork from a historical commit, so all branches share the
//!   paper's "single shared heap file" (§3.2), and each branch has at most
//!   one commit store, the (segment 0, branch) one. Tuple-first runs over
//!   either bitmap orientation ([`IndexOrientation`]); hybrid uses the
//!   branch-oriented one.
//!
//! Everything else — commits, forks, merges, checkpoints, reopens — is one
//! code path. So tuple-first gets what the next section describes:
//! dirty-column commits, a commit store created at a column's first
//! change, and forks that inherit only columns with live rows.
//!
//! # Commit histories: only what changed
//!
//! §3.2 stores a commit as "the delta from the prior commit (computed by
//! doing an XOR of the two bitmaps)", and hybrid keeps one such history per
//! (segment, branch) pair (§5.3). A commit's cost follows the columns its
//! branch changed, not the segments its lineage holds:
//!
//! - *Dirty columns.* Every path that changes a branch's column
//!   (`clear_old`, `append_live`, a merge adopting the source's copy) sets
//!   the column's dirty mark. A commit appends one entry to every store its
//!   branch holds: the XOR delta where the mark is set, an empty note (no
//!   IO, no comparison) where it is not.
//! - *A store at a column's first change.* A (segment, branch) store comes
//!   into being when the branch first changes that column, before the
//!   change lands, under the segment's index write lock. Until then the
//!   column is what the branch was created with (inherited at a fork,
//!   restored at a fork from a commit, or empty), so it is what every
//!   earlier commit of the branch holds: the store starts with that column
//!   at each of them (`first = 0`), or, for an empty column, with no entry
//!   and `first` at the next commit. The read rule for a commit at branch
//!   ordinal `ord` follows: a column with a store reads
//!   `checkout(ord - first)`, or no rows if `ord < first`; a column without
//!   one reads its current value; no column means no rows. A reader checks
//!   the store and reads the column under the index read lock, so a first
//!   change racing the read is seen whole or not at all.
//! - *Live-only inheritance.* A fork gives the child a column, and a bit
//!   in its branch-segment row, only where the parent has a live row: the
//!   row holds "the segments that contain at least one record alive in the
//!   branch" (§3.4). Empty head segments stay with the parent.
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
//! branch-commit ordinals are atomics, each branch's dirty marks sit behind
//! a mutex, and the version graph is copy-on-write behind a lock. Segment
//! *membership* (`segments`, `head`, `frozen`) only changes under
//! `&mut self` (branch/merge/checkpoint), for which the database holds its
//! store lock exclusively. Lock order within the engine is pk → segment
//! index → branch dirty marks → segment stores → graph → commit map; the
//! heap tail latch is a leaf. Tuple-first's branches all meet at segment
//! 0's index and stores locks, as hybrid's meet at a shared internal
//! segment.

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
use parking_lot::{Mutex, RwLock};

use crate::checkpoint;
use crate::engine::pk::{self, HeapRows, PkIndex};
use crate::engine::scan::{decode_rows, BranchColumnScan, Seg, SegmentedScan};
use crate::engine::tuple_first::IndexOrientation;
use crate::merge::{plan_merge, ChangeSet, MergeAction};
use crate::query::plan::ScanPlan;
use crate::shard::PreparedCommit;
use crate::store::VersionedStore;
use crate::types::{
    AnnotatedSlotCursor, DiffResult, EngineKind, MergePolicy, MergeResult, SlotCursor, StoreStats,
    VersionRef,
};

/// One segment: heap file + local bitmap index + per-branch commit
/// history stores.
struct HySegment<I> {
    heap: HeapFile,
    /// Local bitmap index: only "the set of branches which inherit records
    /// contained in that segment" have columns here (§3.4). Writers on
    /// different branches touch different columns but share the lock.
    index: RwLock<I>,
    /// Head segments accept appends; internal segments are frozen.
    /// Mutated only under `&mut self` (branch operations); never set by
    /// tuple-first.
    frozen: bool,
    /// Per-branch commit stores ("in hybrid, each (branch, segment) has its
    /// own file", §5.3), each with `first`: the branch-commit ordinal of the
    /// store's snapshot 0. Commits of the branch before `first` had no rows
    /// here. A branch has a store here only once it changed its column
    /// here (see the module docs); the store covers every branch commit
    /// from `first` on.
    stores: RwLock<FxHashMap<BranchId, (CommitStore, u64)>>,
}

/// Hybrid: the segmented engine over branch-oriented local indexes.
pub type HybridEngine = SegmentedEngine<BranchBitmapIndex>;

/// The segmented engine: hybrid or tuple-first, by its [`EngineKind`]
/// (see the module docs).
pub struct SegmentedEngine<I: IndexOrientation> {
    /// Hybrid, or the tuple-first kind of `I`: whether a fork splits.
    kind: EngineKind,
    dir: PathBuf,
    schema: Schema,
    pool: Arc<BufferPool>,
    segments: Vec<HySegment<I>>,
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
    /// Per branch: the segments holding one of its commit stores, each
    /// with its dirty mark — whether the branch's column there changed
    /// since the branch's last commit.
    stores_of: Vec<Mutex<FxHashMap<SegmentId, bool>>>,
    /// Whether checkpoint flushes fsync (from [`StoreConfig::fsync`]).
    fsync: bool,
}

/// Commit-store file for one (segment, branch) pair.
fn store_path(dir: &Path, seg: SegmentId, b: BranchId) -> PathBuf {
    dir.join(format!("commits_s{}_b{}.dcl", seg.raw(), b.raw()))
}

impl<I: IndexOrientation> SegmentedEngine<I> {
    /// Initializes a fresh store of `kind` (hybrid, or `I`'s tuple-first
    /// kind) in `dir`: the paper's `init` transaction (§2.2.3), a `master`
    /// branch holding an empty relation.
    pub fn init(
        kind: EngineKind,
        dir: impl AsRef<Path>,
        schema: Schema,
        config: &StoreConfig,
    ) -> Result<Self> {
        debug_assert!(kind == EngineKind::Hybrid || kind == I::KIND);
        let dir = dir.as_ref().to_path_buf();
        config
            .env
            .create_dir_all(&dir)
            .map_err(|e| DbError::io("creating engine directory", e))?;
        let pool = Arc::new(BufferPool::for_store(config));
        let pk_cow_entries = pk::cow_entries_counter(&config.metrics);
        let mut engine = SegmentedEngine {
            kind,
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
            stores_of: vec![Mutex::new(FxHashMap::default())],
            fsync: config.fsync,
        };
        engine
            .branch_seg
            .get_mut()
            .add_branch(BranchId::MASTER, None);
        let seg = engine.new_segment()?;
        engine.set_head(BranchId::MASTER, seg);
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
        kind: EngineKind,
        dir: impl AsRef<Path>,
        schema: Schema,
        config: &StoreConfig,
        payload: &[u8],
    ) -> Result<Self> {
        debug_assert!(kind == EngineKind::Hybrid || kind == I::KIND);
        let dir = dir.as_ref().to_path_buf();
        let pool = Arc::new(BufferPool::for_store(config));
        let corrupt = |what: &str| DbError::corrupt(format!("segmented checkpoint: {what}"));
        let mut pos = 0usize;
        let graph = VersionGraph::from_bytes(checkpoint::read_slice(payload, &mut pos)?)?;
        let n_branches = graph.num_branches();
        let n_segments = varint::read_u64(payload, &mut pos)? as usize;
        // Pass 1: segments (heaps at coverage, local bitmap columns, the
        // commit-store coordinates to open below). The count is not trusted
        // for an allocation: it is only checked by opening each heap.
        let mut segments = Vec::new();
        let mut store_specs: Vec<Vec<(BranchId, u64, u64, u32)>> = Vec::new();
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
            let mut index = I::default();
            index.ensure_rows(heap_len);
            let n_cols = varint::read_u64(payload, &mut pos)? as usize;
            for _ in 0..n_cols {
                let b = BranchId(varint::read_u64(payload, &mut pos)? as u32);
                let bm = checkpoint::read_bitmap(payload, &mut pos)?;
                index.restore_branch(b, &bm);
            }
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
        // rather than serving a wrong historical checkout later. Every
        // store starts dirty: its branch's next commit compares the column
        // with the store's head state instead of trusting a mark that did
        // not survive the close.
        let mut stores_of: Vec<FxHashMap<SegmentId, bool>> = vec![FxHashMap::default(); n_branches];
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
                stores_of[b.index()].insert(SegmentId(s as u32), true);
            }
        }
        let pk_cow_entries = pk::cow_entries_counter(&config.metrics);
        let pk = Self::rebuild_pk(&graph, &segments, &branch_seg, &pk_cow_entries)?;
        Ok(SegmentedEngine {
            kind,
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
            stores_of: stores_of.into_iter().map(Mutex::new).collect(),
            fsync: config.fsync,
        })
    }

    /// Pass 4 of [`SegmentedEngine::open_from`]: rebuilds the per-branch
    /// primary-key indexes from the bitmap columns (one live copy per key
    /// per branch by invariant), in id order, so the branch a fork's commit
    /// was made on is there for the fork to start from (see
    /// [`PkIndex::rebuilt`]). A segment only one of the two has a column in
    /// differs everywhere.
    fn rebuild_pk(
        graph: &VersionGraph,
        segments: &[HySegment<I>],
        branch_seg: &BranchBitmapIndex,
        cow_entries: &Counter,
    ) -> Result<Vec<PkIndex<(SegmentId, RecordIdx)>>> {
        let corrupt = |what: &str| DbError::corrupt(format!("segmented checkpoint: {what}"));
        let indexes: Vec<_> = segments.iter().map(|seg| seg.index.read()).collect();
        // Per branch, by segment id, the columns that had to be
        // materialized (the tuple orientation's), kept as its forks' bases
        // so each is built once. Borrowed ones cost nothing to look up
        // again and are not kept.
        let mut kept_columns: Vec<Vec<(u32, Cow<'_, Bitmap>)>> = Vec::new();
        let mut pk: Vec<PkIndex<(SegmentId, RecordIdx)>> = Vec::new();
        for b in 0..graph.num_branches() {
            let bid = BranchId(b as u32);
            let parent = graph.commit(graph.branch(bid)?.forked_at)?.branch;
            let parent = (parent.index() < b).then_some(parent);
            let mut seg_bits = branch_seg.branch_bitmap(bid);
            if let Some(p) = parent {
                seg_bits.or_assign(&branch_seg.branch_bitmap(p));
            }
            let mut own = Vec::new();
            for s in seg_bits.iter_ones() {
                let index = indexes
                    .get(s as usize)
                    .ok_or_else(|| corrupt("branch-segment bit names unknown segment"))?;
                own.push((s as u32, index.column(bid)));
            }
            let bases: Vec<Cow<'_, Bitmap>> = own
                .iter()
                .map(|&(s, _)| match parent {
                    None => Cow::default(),
                    Some(p) => {
                        let kept = &kept_columns[p.index()];
                        match kept.binary_search_by_key(&s, |&(ps, _)| ps) {
                            Ok(i) => Cow::Borrowed(&*kept[i].1),
                            Err(_) => indexes[s as usize].column(p),
                        }
                    }
                })
                .collect();
            let parts: Vec<_> = own
                .iter()
                .zip(&bases)
                .map(|((s, own), base)| HeapRows {
                    heap: &segments[*s as usize].heap,
                    own,
                    base,
                    loc: |row| (SegmentId(*s), row),
                })
                .collect();
            let parent = parent.map(|p| &pk[p.index()]);
            let keys = PkIndex::rebuilt(parent, &parts, cow_entries)?;
            pk.push(keys);
            own.retain(|(_, col)| matches!(col, Cow::Owned(_)));
            own.shrink_to_fit();
            kept_columns.push(own);
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
            index: RwLock::new(I::default()),
            frozen: false,
            stores: RwLock::new(FxHashMap::default()),
        });
        self.branch_seg
            .get_mut()
            .ensure_rows(self.segments.len() as u64);
        Ok(id)
    }

    /// Whether a fork splits: hybrid's policy, never tuple-first's.
    fn splits(&self) -> bool {
        self.kind == EngineKind::Hybrid
    }

    /// Makes `seg` the head segment of `branch` (pushing it for a new
    /// branch): the branch gets a bit for it in the branch-segment bitmap
    /// and, if it has none there yet, an empty column.
    fn set_head(&mut self, branch: BranchId, seg: SegmentId) {
        if branch.index() == self.head.len() {
            self.head.push(seg);
        } else {
            self.head[branch.index()] = seg;
        }
        self.mark_branch_segment(branch, seg);
        let index = self.segments[seg.index()].index.get_mut();
        if !index.has_branch(branch) {
            index.add_branch(branch, None);
        }
    }

    fn mark_branch_segment(&self, branch: BranchId, seg: SegmentId) {
        let mut bs = self.branch_seg.write();
        bs.ensure_rows(self.segments.len() as u64);
        bs.set(branch, seg.raw() as u64, true);
    }

    /// Segment ids containing records of `branch`, from the global bitmap.
    fn segments_of(&self, branch: BranchId) -> Vec<SegmentId> {
        let branch_seg = self.branch_seg.read();
        let bits = branch_seg.column(branch);
        bits.iter_ones().map(|s| SegmentId(s as u32)).collect()
    }

    /// Appends one snapshot to every commit store of `branch` and returns
    /// the branch-commit ordinal: the column's delta where the dirty mark
    /// is set, an empty note (no IO, no comparison) where it is not. Safe
    /// to run concurrently with other *branches'* snapshots (they touch
    /// other columns and other commit stores); same-branch callers are
    /// serialized by the database, and so are this branch's writers.
    fn snapshot_commit(&self, branch: BranchId) -> Result<u64> {
        let ord = self.branch_commits[branch.index()].load(Ordering::Acquire);
        let marked: Vec<(SegmentId, bool)> = self.stores_of[branch.index()]
            .lock()
            .iter_mut()
            .map(|(&seg, dirty)| (seg, std::mem::take(dirty)))
            .collect();
        for (seg_id, dirty) in marked {
            let seg = &self.segments[seg_id.index()];
            let col = dirty.then(|| seg.index.read().branch_bitmap(branch));
            let mut stores = seg.stores.write();
            let (store, _) = stores
                .get_mut(&branch)
                .expect("a segment in `stores_of` holds the branch's store");
            match col {
                Some(col) => store.append_commit(&col)?,
                None => store.append_unchanged()?,
            };
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
                for seg_id in self.segments_of(b) {
                    let seg = &self.segments[seg_id.index()];
                    // The store check and the column read share the index
                    // read lock. A first change creates its store under the
                    // write lock before it touches the column, so this sees
                    // either no store and the column as of `ord`, or the
                    // store.
                    let index = seg.index.read();
                    let stores = seg.stores.read();
                    match stores.get(&b) {
                        Some((store, first)) => {
                            drop(index);
                            if ord >= *first {
                                out.push((seg_id, store.checkout(ord - first)?));
                            }
                        }
                        // Unchanged since the branch was created.
                        None if index.has_branch(b) => {
                            out.push((seg_id, index.branch_bitmap(b)));
                        }
                        None => {}
                    }
                }
                Ok(out)
            }
        }
    }

    /// Sets `branch`'s live bit for `row` of segment `seg_id`, giving the
    /// branch a column there if it has none. The column's first change
    /// since the branch was created first creates its commit store, under
    /// the same index write lock (see [`SegmentedEngine::version_bitmaps`]);
    /// every change sets the dirty mark.
    fn set_live(&self, branch: BranchId, seg_id: SegmentId, row: RecordIdx, live: bool) {
        let seg = &self.segments[seg_id.index()];
        let mut index = seg.index.write();
        let mut marks = self.stores_of[branch.index()].lock();
        match marks.entry(seg_id) {
            Entry::Occupied(mut e) => {
                e.insert(true);
            }
            Entry::Vacant(e) => {
                // Unchanged since the branch was created, so the column is
                // what every earlier commit of the branch holds here: none
                // of them had a row if it is empty, all of them had it as
                // it is if not (an inherited or restored column).
                let commits = self.branch_commits[branch.index()].load(Ordering::Acquire);
                let (seed, first) = if index.any_live(branch) {
                    (index.branch_bitmap(branch), 0)
                } else {
                    (Bitmap::new(), commits)
                };
                let store = CommitStore::seeded_in(
                    Arc::clone(self.pool.env()),
                    store_path(&self.dir, seg_id, branch),
                    CommitStore::DEFAULT_LAYER_INTERVAL,
                    &seed,
                    commits - first,
                );
                seg.stores.write().insert(branch, (store, first));
                e.insert(true);
            }
        }
        drop(marks);
        if !index.has_branch(branch) {
            index.add_branch(branch, None);
        }
        index.ensure_rows(seg.heap.len());
        index.set(branch, row.raw(), live);
    }

    /// Clears the live bit of a branch's current copy of a key, if any.
    fn clear_old(&self, branch: BranchId, key: u64) -> Option<(SegmentId, RecordIdx)> {
        let old = self.pk[branch.index()].write().remove(key)?;
        // Internal segments stay frozen for data, "only the segment's
        // bitmap may change" (§3.4) — exactly this operation.
        self.set_live(branch, old.0, old.1, false);
        Some(old)
    }

    /// Appends a record to the branch's head segment and marks it live.
    fn append_live(&self, branch: BranchId, record: &Record) -> Result<(SegmentId, RecordIdx)> {
        let seg_id = self.head[branch.index()];
        let seg = &self.segments[seg_id.index()];
        debug_assert!(!seg.frozen, "head segment must be unfrozen");
        let idx = seg.heap.append(record)?;
        self.set_live(branch, seg_id, idx, true);
        self.mark_branch_segment(branch, seg_id);
        self.pk[branch.index()]
            .write()
            .insert(record.key(), (seg_id, idx));
        Ok((seg_id, idx))
    }

    /// Builds a change set of `side` relative to `base` per-segment bitmaps,
    /// decoding each segment's `and_not` rows inline ([`decode_rows`]).
    fn change_set(
        &self,
        side: &[(SegmentId, Bitmap)],
        base: &[(SegmentId, Bitmap)],
    ) -> Result<(ChangeSet, u64)> {
        // Per segment of `of`, the rows not live in `minus` (all of them
        // where `minus` has no bitmap for the segment).
        let minus_segs = |of: &[(SegmentId, Bitmap)], minus: &[(SegmentId, Bitmap)]| {
            let minus: FxHashMap<SegmentId, &Bitmap> = minus.iter().map(|(s, b)| (*s, b)).collect();
            of.iter()
                .map(|(seg, bm)| {
                    let rows = match minus.get(seg) {
                        Some(m) => bm.and_not(m),
                        None => bm.clone(),
                    };
                    self.seg(*seg, rows, ())
                })
                .collect()
        };
        let mut changes = ChangeSet::default();
        let mut bytes = 0u64;
        // Rows live on the side but not in the base: inserts/updated copies.
        for rec in decode_rows(minus_segs(side, base), &self.schema)? {
            bytes += self.schema.record_size() as u64;
            changes.insert(rec.key(), Some(rec));
        }
        // Base rows gone from the side: deletions (unless replaced above).
        for rec in decode_rows(minus_segs(base, side), &self.schema)? {
            bytes += self.schema.record_size() as u64;
            changes.entry(rec.key()).or_insert(None);
        }
        Ok((changes, bytes))
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

impl<I: IndexOrientation> VersionedStore for SegmentedEngine<I> {
    fn kind(&self) -> EngineKind {
        self.kind
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
        self.stores_of.push(Mutex::new(FxHashMap::default()));
        match parent_branch {
            Some(p) => {
                // "The branch operation creates two new head segments ...
                // The old head of the parent becomes an internal segment
                // that contains records in both branches (note that its
                // bitmap is expanded)" (§3.4). Tuple-first keeps writing
                // its one segment.
                let old_head = self.head[p.index()];
                if self.splits() {
                    self.segments[old_head.index()].frozen = true;
                }
                // Child inherits the parent's liveness in every ancestral
                // segment where the parent has a live row — "a bitmap scan
                // ... only for those records in the direct ancestry instead
                // of on the entire bitmap". Its branch-segment row is
                // exactly those segments, "the segments that contain at
                // least one record alive in the branch". (Tuple-first: "a
                // branch operation clones the state of the parent branch's
                // bitmap", §3.2.)
                let branch_seg = self.branch_seg.get_mut();
                branch_seg.add_branch(new_b, None);
                for s in branch_seg.branch_bitmap(p).iter_ones() {
                    let index = self.segments[s as usize].index.get_mut();
                    if index.any_live(p) {
                        index.add_branch(new_b, Some(p));
                        branch_seg.set(new_b, s, true);
                    }
                }
                // The key index is shared, not copied: see [`PkIndex`].
                let inherited = self.pk[p.index()].get_mut().clone();
                self.pk.push(RwLock::new(inherited));
                if self.splits() {
                    let p_head = self.new_segment()?;
                    self.set_head(p, p_head);
                    let c_head = self.new_segment()?;
                    self.set_head(new_b, c_head);
                } else {
                    self.set_head(new_b, old_head);
                }
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
                        index.ensure_rows(heap_len);
                        index.restore_branch(new_b, &bm);
                    }
                    self.mark_branch_segment(new_b, seg_id);
                    let heap = &self.segments[seg_id.index()].heap;
                    keys.insert_rows(heap, &bm, |row| (seg_id, row))?;
                }
                self.pk.push(RwLock::new(keys));
                // A fresh head, or tuple-first's one segment.
                let c_head = if self.splits() {
                    self.new_segment()?
                } else {
                    SegmentId(0)
                };
                self.set_head(new_b, c_head);
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
                    self.set_live(into, seg, idx, true);
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
        Ok(())
    }

    fn checkpoint(&mut self) -> Result<Vec<u8>> {
        for seg in &mut self.segments {
            seg.heap.flush()?;
            if self.fsync {
                seg.heap.sync()?;
            }
            for (store, _) in seg.stores.get_mut().values_mut() {
                store.flush()?;
                if self.fsync {
                    store.sync()?;
                }
            }
        }
        let mut out = Vec::new();
        checkpoint::write_slice(&mut out, &self.graph.get_mut().to_bytes());
        varint::write_u64(&mut out, self.segments.len() as u64);
        for seg in &self.segments {
            varint::write_u64(&mut out, seg.heap.len());
            out.push(seg.frozen as u8);
            // Local bitmap columns, branch-sorted for a deterministic
            // snapshot.
            let index = seg.index.read();
            let cols = index.branches();
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
        let eng = HybridEngine::init(
            EngineKind::Hybrid,
            dir.path().join("hy"),
            schema,
            &StoreConfig::test_default(),
        )
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
    fn fork_inherits_only_segments_with_live_rows() {
        let (_d, mut eng) = engine();
        eng.insert(BranchId::MASTER, rec(1, 0)).unwrap();
        eng.create_branch("a", BranchId::MASTER.into()).unwrap();
        // Master's new head segment is empty: a second fork skips it.
        let empty_head = eng.head[BranchId::MASTER.index()];
        let b = eng.create_branch("b", BranchId::MASTER.into()).unwrap();
        assert_eq!(eng.segments_of(b), vec![SegmentId(0), eng.head[b.index()]]);
        assert!(!eng.segments[empty_head.index()].index.read().has_branch(b));
        assert_eq!(keys(eng.scan(b.into()).unwrap()), vec![1]);
        // And a fork's first commit writes no store for what it inherited.
        eng.commit(b).unwrap();
        assert!(eng
            .segments
            .iter()
            .all(|s| !s.stores.read().contains_key(&b)));
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
