//! The version-first storage engine (§3.3).
//!
//! "In version-first, each branch is represented by a head segment file
//! storing local modifications to that branch along with a chain of parent
//! head segment files from which it inherits records." Branch points are
//! byte offsets (here: record-slot offsets, since records are fixed width)
//! into the parent segment; "any tuples that appear in the parent segment
//! after the branch point are isolated and not a part of the child branch."
//!
//! There is no bitmap and no key index: updates append new copies, deletes
//! append tombstones, and scans reconstruct liveness by walking segments
//! newest-first while tracking emitted keys in an in-memory set. Scans
//! visit segments in *reverse topological order* (children before parents)
//! — "segments are visited only when all of their children have been
//! scanned" — with ties broken by merge precedence, so a branch's own
//! modifications shadow inherited records and a merge's preferred parent
//! shadows the other.
//!
//! # Concurrency
//!
//! Version-first is the friendliest engine to the sharded commit path:
//! writes are blind appends into per-branch head segments, so disjoint
//! branches touch disjoint heaps and need no shared write structure at
//! all. The only cross-branch state a commit mutates is the version graph
//! and the commit offset map, both behind short [`RwLock`] critical
//! sections; the graph is copy-on-write so readers keep an [`Arc`]
//! snapshot and never block commits. Segment and head vectors are only
//! mutated by `&mut self` operations (branching, merging), which the
//! database serializes under its exclusive store lock.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use decibel_bitmap::Bitmap;
use decibel_common::error::{DbError, Result};
use decibel_common::hash::{FxHashMap, FxHashSet};
use decibel_common::ids::{BranchId, CommitId, RecordIdx, SegmentId};
use decibel_common::record::Record;
use decibel_common::schema::Schema;
use decibel_common::varint;
use decibel_pagestore::{BufferPool, HeapFile, PinnedCursor, StoreConfig};
use decibel_vgraph::VersionGraph;
use parking_lot::RwLock;

use crate::checkpoint;
use crate::engine::scan::{Seg, SegmentedScan};
use crate::merge::{plan_merge, ChangeSet, MergeAction};
use crate::query::plan::{PagePredicate, ScanPlan};
use crate::shard::PreparedCommit;
use crate::store::VersionedStore;
use crate::types::{
    AnnotatedSlot, AnnotatedSlotCursor, DiffResult, EngineKind, MergePolicy, MergeResult,
    SlotCursor, StoreStats, VersionRef,
};

/// One segment file: a heap of appended records plus branch points into its
/// parent segments (in precedence order; merges give a segment two
/// parents).
struct Segment {
    heap: HeapFile,
    /// `(parent, bound)`: this segment inherits the parent's records with
    /// slot `< bound`. First parent has scan precedence.
    parents: Vec<(SegmentId, u64)>,
}

/// A version in segment coordinates: scan this segment up to `bound` slots,
/// then its ancestry.
type SegRef = (SegmentId, u64);

/// The version-first engine.
pub struct VersionFirstEngine {
    dir: PathBuf,
    schema: Schema,
    pool: Arc<BufferPool>,
    segments: Vec<Segment>,
    /// Per-branch current head segment. Only mutated under `&mut self`
    /// (branching/merging); plain reads from `&self` are race-free because
    /// the database holds its store lock exclusively for those mutations.
    head: Vec<SegmentId>,
    /// Copy-on-write version graph: readers clone the [`Arc`] and traverse
    /// without holding the lock; commits briefly take the write lock and
    /// [`Arc::make_mut`] to stamp new versions.
    graph: RwLock<Arc<VersionGraph>>,
    /// "Version-first supports commits by mapping a commit ID to the byte
    /// offset of the latest record that is active in the committing
    /// branch's segment file" (§3.3) — here a record-slot offset.
    commit_map: RwLock<FxHashMap<CommitId, SegRef>>,
    /// Whether checkpoint flushes fsync (from [`StoreConfig::fsync`]).
    fsync: bool,
}

impl VersionFirstEngine {
    /// Initializes a fresh store in `dir` with an empty `master` branch.
    pub fn init(dir: impl AsRef<Path>, schema: Schema, config: &StoreConfig) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        config
            .env
            .create_dir_all(&dir)
            .map_err(|e| DbError::io("creating engine directory", e))?;
        let pool = Arc::new(BufferPool::for_store(config));
        let mut engine = VersionFirstEngine {
            dir,
            schema,
            pool,
            segments: Vec::new(),
            head: Vec::new(),
            graph: RwLock::new(Arc::new(VersionGraph::init())),
            commit_map: RwLock::new(FxHashMap::default()),
            fsync: config.fsync,
        };
        let seg = engine.new_segment(Vec::new())?;
        engine.head.push(seg);
        engine.commit_map.get_mut().insert(CommitId::INIT, (seg, 0));
        Ok(engine)
    }

    /// Reopens an engine from checkpoint-flushed state (segment heap files
    /// plus the snapshot `payload` a previous
    /// [`VersionedStore::checkpoint`] call produced); no journal replay.
    /// Version-first has no bitmaps or key index to rebuild — its entire
    /// derived state is the segment graph and the commit offset map, both
    /// carried in the snapshot.
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
        let n_segments = varint::read_u64(payload, &mut pos)? as usize;
        let mut segments = Vec::with_capacity(n_segments);
        for s in 0..n_segments {
            let heap_len = varint::read_u64(payload, &mut pos)?;
            let heap = HeapFile::open_at(
                Arc::clone(&pool),
                dir.join(format!("seg_{s}.dat")),
                schema.clone(),
                heap_len,
            )?;
            let n_parents = varint::read_u64(payload, &mut pos)? as usize;
            let mut parents = Vec::with_capacity(n_parents);
            for _ in 0..n_parents {
                let p = SegmentId(varint::read_u64(payload, &mut pos)? as u32);
                let bound = varint::read_u64(payload, &mut pos)?;
                if p.index() >= s {
                    return Err(DbError::corrupt("checkpoint segment parent points forward"));
                }
                parents.push((p, bound));
            }
            segments.push(Segment { heap, parents });
        }
        let n_heads = varint::read_u64(payload, &mut pos)? as usize;
        if n_heads != graph.num_branches() {
            return Err(DbError::corrupt(
                "checkpoint head count disagrees with its version graph",
            ));
        }
        let mut head = Vec::with_capacity(n_heads);
        for _ in 0..n_heads {
            let seg = SegmentId(varint::read_u64(payload, &mut pos)? as u32);
            if seg.index() >= n_segments {
                return Err(DbError::corrupt("checkpoint head names unknown segment"));
            }
            head.push(seg);
        }
        let commit_map: FxHashMap<CommitId, SegRef> = checkpoint::read_triples(payload, &mut pos)?
            .into_iter()
            .map(|(c, seg, off)| (CommitId(c), (SegmentId(seg as u32), off)))
            .collect();
        Ok(VersionFirstEngine {
            dir,
            schema,
            pool,
            segments,
            head,
            graph: RwLock::new(Arc::new(graph)),
            commit_map: RwLock::new(commit_map),
            fsync: config.fsync,
        })
    }

    fn new_segment(&mut self, parents: Vec<(SegmentId, u64)>) -> Result<SegmentId> {
        let id = SegmentId(self.segments.len() as u32);
        let heap = HeapFile::create(
            Arc::clone(&self.pool),
            self.dir.join(format!("seg_{}.dat", id.raw())),
            self.schema.clone(),
        )?;
        self.segments.push(Segment { heap, parents });
        Ok(id)
    }

    fn seg(&self, id: SegmentId) -> &Segment {
        &self.segments[id.index()]
    }

    /// Exclusive access to the version graph for `&mut self` paths, which
    /// run under the database's exclusive store lock (no concurrent
    /// readers hold the inner lock).
    fn graph_mut(&mut self) -> &mut VersionGraph {
        Arc::make_mut(self.graph.get_mut())
    }

    fn head_ref(&self, branch: BranchId) -> Result<SegRef> {
        self.graph.read().branch(branch)?;
        let seg = self.head[branch.index()];
        Ok((seg, self.seg(seg).heap.len()))
    }

    fn resolve(&self, version: VersionRef) -> Result<SegRef> {
        match version {
            VersionRef::Branch(b) => self.head_ref(b),
            VersionRef::Commit(c) => self
                .commit_map
                .read()
                .get(&c)
                .copied()
                .ok_or(DbError::UnknownCommit(c.raw())),
        }
    }

    /// Computes the scan order for a version as a list of segment
    /// *portions* `(segment, start_slot, end_slot)`, newest logical data
    /// first.
    ///
    /// Branch points cut segments into portions — the paper builds its
    /// intermediate tables "one for each portion of each segment file ...
    /// (so if two branches, A and B both are taken from a segment S, with A
    /// happening before B, there will be two such hash tables for S, one
    /// for the data from B's branch point to A's branch point, and one from
    /// A to the start of the file)" (§3.3). Portions are ordered
    /// topologically (children before parents — "segments are visited only
    /// when all of their children have been scanned"), with ties broken by
    /// merge precedence: a merge segment's preferred parent chain is
    /// scanned first, so its modifications win conflicts.
    fn scan_order(&self, start: SegRef) -> Vec<(SegmentId, u64, u64)> {
        // Phase 0: resolve *effective* parents. A branch point at offset 0
        // (forking a branch that had no appends yet) contributes none of
        // the parent's data but must still inherit the parent's own
        // ancestry — resolve such pointers transitively.
        let mut eff: FxHashMap<SegmentId, Vec<(SegmentId, u64)>> = FxHashMap::default();
        fn resolve(
            engine: &VersionFirstEngine,
            seg: SegmentId,
            eff: &mut FxHashMap<SegmentId, Vec<(SegmentId, u64)>>,
        ) {
            if eff.contains_key(&seg) {
                return;
            }
            // Insert a placeholder first: parents were created strictly
            // earlier, so recursion terminates without revisiting `seg`.
            eff.insert(seg, Vec::new());
            let mut out = Vec::new();
            for &(p, off) in &engine.seg(seg).parents {
                if off > 0 {
                    out.push((p, off));
                } else {
                    resolve(engine, p, eff);
                    out.extend(eff[&p].iter().copied());
                }
                resolve(engine, p, eff);
            }
            eff.insert(seg, out);
        }
        resolve(self, start.0, &mut eff);

        // Phase 1: reachability and per-segment max bound over effective
        // parent edges.
        let mut bound: FxHashMap<SegmentId, u64> = FxHashMap::default();
        let mut stack = vec![start.0];
        bound.insert(start.0, start.1);
        while let Some(seg) = stack.pop() {
            resolve(self, seg, &mut eff);
            let parents = eff[&seg].clone();
            for (p, off) in parents {
                match bound.get_mut(&p) {
                    Some(e) => *e = (*e).max(off),
                    None => {
                        bound.insert(p, off);
                        stack.push(p);
                    }
                }
            }
        }
        // A second sweep reaches the fixpoint on bounds (a segment first
        // reached via a small branch point may be exposed further by a
        // child discovered later).
        loop {
            let mut changed = false;
            let segs: Vec<SegmentId> = bound.keys().copied().collect();
            for s in segs {
                for &(p, off) in &eff[&s] {
                    let e = bound.get_mut(&p).unwrap();
                    if off > *e {
                        *e = off;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // Phase 2: cut segments into portions at referenced branch points.
        let mut cuts: FxHashMap<SegmentId, Vec<u64>> = FxHashMap::default();
        for (&s, &b) in &bound {
            cuts.entry(s).or_default().push(b);
        }
        for &s in bound.keys() {
            for &(p, off) in &eff[&s] {
                if off > 0 && off <= bound[&p] {
                    cuts.get_mut(&p).unwrap().push(off);
                }
            }
        }
        // Node = one portion; portions of a segment chain bottom-up.
        #[derive(Clone)]
        struct Node {
            seg: SegmentId,
            lo: u64,
            hi: u64,
            parents: Vec<usize>,
        }
        let mut nodes: Vec<Node> = Vec::new();
        // (segment, end) → node index, for attaching branch pointers.
        let mut by_end: FxHashMap<(SegmentId, u64), usize> = FxHashMap::default();
        for (&s, ends) in cuts.iter_mut() {
            ends.sort_unstable();
            ends.dedup();
            ends.retain(|&e| e > 0);
            let mut lo = 0u64;
            let mut below: Option<usize> = None;
            for &hi in ends.iter() {
                let id = nodes.len();
                nodes.push(Node {
                    seg: s,
                    lo,
                    hi,
                    parents: below.into_iter().collect(),
                });
                by_end.insert((s, hi), id);
                below = Some(id);
                lo = hi;
            }
        }
        // An empty start segment (fresh branch, no appends yet) still has
        // ancestry: give it an explicit zero-length portion so its parent
        // pointers anchor the traversal.
        if !by_end.contains_key(&(start.0, start.1)) {
            debug_assert_eq!(start.1, 0);
            let id = nodes.len();
            nodes.push(Node {
                seg: start.0,
                lo: 0,
                hi: 0,
                parents: Vec::new(),
            });
            by_end.insert((start.0, 0), id);
        }
        // Attach each segment's bottom portion to its parent portions (in
        // precedence order).
        #[allow(clippy::needless_range_loop)] // nodes[node_id] is mutated below
        for node_id in 0..nodes.len() {
            if nodes[node_id].lo != 0 {
                continue;
            }
            let seg = nodes[node_id].seg;
            let mut extra = Vec::new();
            for &(p, off) in &eff[&seg] {
                if off > 0 {
                    extra.push(by_end[&(p, off)]);
                }
            }
            // Precedence: pointer parents come after the (nonexistent)
            // same-segment parent; order among pointers is their recorded
            // precedence order.
            nodes[node_id].parents.extend(extra);
        }
        let start_node = by_end[&(start.0, start.1)];
        // Phase 3: precedence ranks via DFS preorder from the start
        // portion, following parents in precedence order.
        let mut rank: FxHashMap<usize, usize> = FxHashMap::default();
        let mut dfs = vec![start_node];
        while let Some(n) = dfs.pop() {
            if rank.contains_key(&n) {
                continue;
            }
            rank.insert(n, rank.len());
            for &p in nodes[n].parents.iter().rev() {
                if !rank.contains_key(&p) {
                    dfs.push(p);
                }
            }
        }
        // Phase 4: Kahn's algorithm, children before parents, ready heap
        // ordered by precedence rank.
        let mut child_count: FxHashMap<usize, usize> = FxHashMap::default();
        for &n in rank.keys() {
            child_count.entry(n).or_insert(0);
            for &p in &nodes[n].parents {
                if rank.contains_key(&p) {
                    *child_count.entry(p).or_insert(0) += 1;
                }
            }
        }
        use std::cmp::Reverse;
        let mut ready: std::collections::BinaryHeap<(Reverse<usize>, usize)> = child_count
            .iter()
            .filter(|(_, &c)| c == 0)
            .map(|(&n, _)| (Reverse(rank[&n]), n))
            .collect();
        let mut order = Vec::with_capacity(rank.len());
        while let Some((_, n)) = ready.pop() {
            let node = &nodes[n];
            order.push((node.seg, node.lo, node.hi));
            for &p in &nodes[n].parents {
                if let Some(c) = child_count.get_mut(&p) {
                    *c -= 1;
                    if *c == 0 {
                        ready.push((Reverse(rank[&p]), p));
                    }
                }
            }
        }
        order
    }

    /// Pass-1 primitive of §3.3's multi-branch scan: the keys (and
    /// tombstone flags) of a segment's slots `[0, bound)`, in slot order —
    /// an "intermediate hash table" input built with one sequential read
    /// through a page-pinned cursor (each page fetched once).
    fn segment_keys(&self, seg: SegmentId, bound: u64) -> Result<Vec<(u64, bool)>> {
        let heap = &self.seg(seg).heap;
        let bound = bound.min(heap.len());
        let mut out = Vec::with_capacity(bound as usize);
        let mut cursor = heap.pinned_cursor();
        for slot in 0..bound {
            out.push(cursor.peek_key(slot)?);
        }
        Ok(out)
    }

    /// The live records of a version as `key → (segment, slot)`, computed
    /// with the in-memory emitted-set walk over per-segment key tables.
    fn live_locations(&self, start: SegRef) -> Result<FxHashMap<u64, (SegmentId, u64)>> {
        let order = self.scan_order(start);
        // One sequential key read per segment (up to its highest portion).
        let mut tables: FxHashMap<SegmentId, Vec<(u64, bool)>> = FxHashMap::default();
        for &(seg, _, hi) in &order {
            let e = tables.entry(seg).or_default();
            if (e.len() as u64) < hi {
                *e = self.segment_keys(seg, hi)?;
            }
        }
        let mut seen: FxHashSet<u64> = FxHashSet::default();
        let mut live = FxHashMap::default();
        for (seg, lo, hi) in order {
            let keys = &tables[&seg];
            let upto = hi.min(keys.len() as u64);
            for slot in (lo..upto).rev() {
                let (key, tombstone) = keys[slot as usize];
                if seen.insert(key) && !tombstone {
                    live.insert(key, (seg, slot));
                }
            }
        }
        Ok(live)
    }

    fn fetch(&self, loc: (SegmentId, u64)) -> Result<Record> {
        self.seg(loc.0).heap.get(RecordIdx(loc.1))
    }

    /// Pass 1 of §3.3's multi-branch scan: per-segment key tables (one
    /// sequential read per unique segment) + in-memory per-branch
    /// resolution into per-segment winner maps. Returns, in ascending
    /// segment order, each segment's winner-liveness bitmap plus the
    /// `slot → branches` annotation map pass 2 emits from.
    #[allow(clippy::type_complexity)]
    fn multi_scan_winners(
        &self,
        branches: &[BranchId],
    ) -> Result<Vec<(SegmentId, Bitmap, FxHashMap<u64, Vec<BranchId>>)>> {
        let mut orders = Vec::with_capacity(branches.len());
        let mut max_bound: FxHashMap<SegmentId, u64> = FxHashMap::default();
        for &b in branches {
            let order = self.scan_order(self.head_ref(b)?);
            for &(seg, _, hi) in &order {
                let e = max_bound.entry(seg).or_insert(0);
                *e = (*e).max(hi);
            }
            orders.push((b, order));
        }
        let mut tables: FxHashMap<SegmentId, Vec<(u64, bool)>> = FxHashMap::default();
        for (&seg, &bound) in &max_bound {
            tables.insert(seg, self.segment_keys(seg, bound)?);
        }
        let mut winners: FxHashMap<SegmentId, FxHashMap<u64, Vec<BranchId>>> = FxHashMap::default();
        let mut seen: FxHashSet<u64> = FxHashSet::default();
        for (b, order) in &orders {
            seen.clear();
            for &(seg, lo, hi) in order {
                let table = &tables[&seg];
                let upto = hi.min(table.len() as u64);
                for slot in (lo..upto).rev() {
                    let (key, tombstone) = table[slot as usize];
                    if seen.insert(key) && !tombstone {
                        winners
                            .entry(seg)
                            .or_default()
                            .entry(slot)
                            .or_default()
                            .push(*b);
                    }
                }
            }
        }
        let mut segs: Vec<(SegmentId, Bitmap, FxHashMap<u64, Vec<BranchId>>)> = winners
            .into_iter()
            .map(|(seg, slots)| {
                let mut bm = Bitmap::new();
                for &slot in slots.keys() {
                    bm.set(slot, true);
                }
                (seg, bm, slots)
            })
            .collect();
        segs.sort_by_key(|(seg, _, _)| *seg);
        Ok(segs)
    }

    /// Appends to a branch's head segment. Safe from concurrent threads on
    /// *different* branches: each branch's head segment heap is distinct,
    /// and the heap tail latch covers the append itself.
    fn append(&self, branch: BranchId, record: &Record) -> Result<RecordIdx> {
        self.graph.read().branch(branch)?;
        let seg = self.head[branch.index()];
        self.seg(seg).heap.append(record)
    }

    /// Commit primitive for internal callers (branching, merging): head
    /// snapshot + graph stamp + offset-map insert. The commit-map entry is
    /// inserted while the graph write guard is still held so no reader can
    /// observe a commit id the map cannot resolve.
    fn do_commit(&self, branch: BranchId, extra_parents: &[CommitId]) -> Result<CommitId> {
        let head = self.head_ref(branch)?;
        let mut graph = self.graph.write();
        let cid = Arc::make_mut(&mut graph).add_commit(branch, extra_parents)?;
        self.commit_map.write().insert(cid, head);
        Ok(cid)
    }

    /// Builds a branch's change set relative to the LCA from the two live
    /// maps (diff by physical location, as in tuple-first's bitmap XOR).
    fn change_set(
        &self,
        side: &FxHashMap<u64, (SegmentId, u64)>,
        base: &FxHashMap<u64, (SegmentId, u64)>,
    ) -> Result<(ChangeSet, u64)> {
        let mut changes = ChangeSet::default();
        let mut bytes = 0u64;
        for (&key, &loc) in side {
            if base.get(&key) != Some(&loc) {
                bytes += self.schema.record_size() as u64;
                changes.insert(key, Some(self.fetch(loc)?));
            }
        }
        for &key in base.keys() {
            if !side.contains_key(&key) {
                bytes += self.schema.record_size() as u64;
                changes.insert(key, None);
            }
        }
        Ok((changes, bytes))
    }
}

impl VersionedStore for VersionFirstEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::VersionFirst
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
        let (from_commit, fork) = match from {
            VersionRef::Branch(b) => {
                // Fork points must be recorded versions; commit implicitly.
                let fork = self.head_ref(b)?;
                let cid = self.do_commit(b, &[])?;
                (cid, fork)
            }
            VersionRef::Commit(c) => (c, self.resolve(VersionRef::Commit(c))?),
        };
        let new_b = self.graph_mut().create_branch(name, from_commit)?;
        // "A new child segment file is created that notes the parent file
        // and the offset of this branch point" (§3.3). The parent keeps
        // appending to its own segment; no new parent segment is made.
        let seg = self.new_segment(vec![(fork.0, fork.1)])?;
        debug_assert_eq!(new_b.index(), self.head.len());
        self.head.push(seg);
        Ok(new_b)
    }

    fn prepare_commit(&self, branch: BranchId) -> Result<PreparedCommit> {
        // Version-first's commit "snapshot" is just the head offset — there
        // is no bitmap to clone or delta to append, so prepare is a
        // metadata read.
        let (seg, bound) = self.head_ref(branch)?;
        Ok(PreparedCommit(vec![(seg.raw() as u64, bound)]))
    }

    fn finalize_commit(&self, branch: BranchId, prep: PreparedCommit) -> Result<CommitId> {
        let &(seg, bound) = prep
            .0
            .first()
            .ok_or_else(|| DbError::Invalid("empty prepared commit".into()))?;
        let head = (SegmentId(seg as u32), bound);
        let mut graph = self.graph.write();
        let cid = Arc::make_mut(&mut graph).add_commit(branch, &[])?;
        self.commit_map.write().insert(cid, head);
        Ok(cid)
    }

    fn checkout_version(&self, commit: CommitId) -> Result<u64> {
        // Checkout in version-first is offset resolution; count the live
        // records as the integrity signal (cheap metadata walk + key scan).
        let start = self.resolve(VersionRef::Commit(commit))?;
        Ok(self.live_locations(start)?.len() as u64)
    }

    fn insert(&self, branch: BranchId, record: Record) -> Result<()> {
        self.schema.check_arity(record.fields().len())?;
        self.append(branch, &record)?;
        Ok(())
    }

    fn update(&self, branch: BranchId, record: Record) -> Result<()> {
        // "Updates are performed by inserting a new copy of the tuple with
        // the same primary key and updated fields; branch scans will ignore
        // the earlier copy" (§3.3). No index exists to validate the key —
        // blind append, as documented on the trait.
        self.schema.check_arity(record.fields().len())?;
        self.append(branch, &record)?;
        Ok(())
    }

    fn delete(&self, branch: BranchId, key: u64) -> Result<bool> {
        // "when a tuple is deleted, we insert a special record with a
        // deleted header bit" (§3.3).
        let tomb = Record::tombstone(key, &self.schema);
        self.append(branch, &tomb)?;
        Ok(true)
    }

    fn get(&self, version: VersionRef, key: u64) -> Result<Option<Record>> {
        let start = self.resolve(version)?;
        // Newest-first walk with early exit on the first sighting of `key`.
        for (seg, lo, hi) in self.scan_order(start) {
            let keys = self.segment_keys(seg, hi)?;
            let upto = hi.min(keys.len() as u64);
            for slot in (lo..upto).rev() {
                let (k, tombstone) = keys[slot as usize];
                if k == key {
                    return if tombstone {
                        Ok(None)
                    } else {
                        Ok(Some(self.fetch((seg, slot))?))
                    };
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
        let start = self.resolve(version)?;
        Ok(Box::new(VfSlotScan {
            engine: self,
            order: self.scan_order(start),
            next_portion: 0,
            cur: None,
            pred: plan.page_predicate(),
            emitted: FxHashSet::default(),
            visited: 0,
            from,
        }))
    }

    fn multi_scan_pipeline(
        &self,
        branches: &[BranchId],
        plan: &ScanPlan,
        from: u64,
    ) -> Result<Box<dyn AnnotatedSlotCursor + '_>> {
        // Pass 1 (the shadowing resolution) cannot be narrowed by the
        // predicate — a failing row still shadows older copies of its key —
        // so it always runs in full; the pushdown accelerates pass 2, where
        // each segment's winner bitmap goes through the shared planned
        // scan (lazy per-word predicate fusion, `(segment, slot)` tokens
        // that resume mid-heap) and survivors are annotated from the
        // winner map.
        let segs = self
            .multi_scan_winners(branches)?
            .into_iter()
            .map(|(id, live, ann)| Seg {
                id,
                heap: &self.seg(id).heap,
                live,
                ann,
            })
            .collect();
        Ok(Box::new(VfWinnerScan(SegmentedScan::new(
            segs,
            plan.page_predicate(),
            from,
        ))))
    }

    fn diff(&self, left: VersionRef, right: VersionRef) -> Result<DiffResult> {
        // "the records that are different are exactly those that appear in
        // the segment files after the lowest common ancestor version"
        // (§3.3) — realized by comparing the two versions' live location
        // maps (multiple passes, as the paper observes for VF diffs, §5.2).
        let lmap = self.live_locations(self.resolve(left)?)?;
        let rmap = self.live_locations(self.resolve(right)?)?;
        let mut out = DiffResult::default();
        let mut left_locs: Vec<(SegmentId, u64)> = lmap
            .iter()
            .filter(|(k, loc)| rmap.get(k) != Some(loc))
            .map(|(_, &loc)| loc)
            .collect();
        left_locs.sort_unstable();
        for loc in left_locs {
            out.left_only.push(self.fetch(loc)?);
        }
        let mut right_locs: Vec<(SegmentId, u64)> = rmap
            .iter()
            .filter(|(k, loc)| lmap.get(k) != Some(loc))
            .map(|(_, &loc)| loc)
            .collect();
        right_locs.sort_unstable();
        for loc in right_locs {
            out.right_only.push(self.fetch(loc)?);
        }
        Ok(out)
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
        let from_head_commit = self.do_commit(from, &[])?;

        let into_ref = self.head_ref(into)?;
        let from_ref = self.head_ref(from)?;
        let lca = {
            let graph = self.graph.read();
            graph.lca(graph.head(into)?, from_head_commit)?
        };
        let lca_ref = self.resolve(VersionRef::Commit(lca))?;

        // "The approach uses the general multi-branch scanner ... to
        // collectively scan the head commits of the branches being merged
        // and the lowest common ancestor commit. ... We materialize the
        // primary keys and segment file/offset pairs of the records in all
        // three commits into in-memory hash tables" (§3.3).
        let into_live = self.live_locations(into_ref)?;
        let from_live = self.live_locations(from_ref)?;
        let lca_live = self.live_locations(lca_ref)?;

        let (left_changes, lbytes) = self.change_set(&into_live, &lca_live)?;
        let (right_changes, rbytes) = self.change_set(&from_live, &lca_live)?;

        let plan = plan_merge(
            policy,
            &left_changes,
            &right_changes,
            self.schema.record_size(),
            |key| match lca_live.get(&key) {
                Some(&loc) => Ok(Some(self.seg(loc.0).heap.get(RecordIdx(loc.1))?)),
                None => Ok(None),
            },
        )?;

        // "merging involves creating a new branch point ... a new child
        // segment ... all that is required is to record the priority of
        // parent branches so that future scans can visit the segments in
        // the appropriate order" (§3.3). The preferred parent comes first;
        // only field-merged records are materialized ("the resultant record
        // is inserted into the new head segment, which must be scanned
        // before either of its parents").
        let parents = if policy.prefer_left() {
            vec![(into_ref.0, into_ref.1), (from_ref.0, from_ref.1)]
        } else {
            vec![(from_ref.0, from_ref.1), (into_ref.0, into_ref.1)]
        };
        let new_seg = self.new_segment(parents)?;
        self.head[into.index()] = new_seg;

        let mut changed = 0u64;
        for (key, action) in &plan.actions {
            match action {
                MergeAction::Materialize(rec) => {
                    self.seg(new_seg).heap.append(rec)?;
                    changed += 1;
                }
                // Scan-order precedence realizes these without writes:
                // adopted copies and winning tombstones live in the parent
                // ancestry that the topological order visits first.
                MergeAction::TakeRight(_) | MergeAction::Delete => {
                    changed += 1;
                    let _ = key;
                }
                MergeAction::KeepLeft => {}
            }
        }

        let commit = self.do_commit(into, &[from_head_commit])?;
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
            index_bytes: 0,
            // The commit-to-offset map is the only commit metadata
            // ("an external structure", §3.3): ~20 bytes per entry.
            commit_store_bytes: self.commit_map.read().len() as u64 * 20,
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
        for seg in &self.segments {
            seg.heap.flush()?;
            if self.fsync {
                seg.heap.sync()?;
            }
        }
        let mut out = Vec::new();
        checkpoint::write_slice(&mut out, &self.graph.get_mut().to_bytes());
        varint::write_u64(&mut out, self.segments.len() as u64);
        for seg in &self.segments {
            varint::write_u64(&mut out, seg.heap.len());
            varint::write_u64(&mut out, seg.parents.len() as u64);
            for &(p, bound) in &seg.parents {
                varint::write_u64(&mut out, p.raw() as u64);
                varint::write_u64(&mut out, bound);
            }
        }
        varint::write_u64(&mut out, self.head.len() as u64);
        for &seg in &self.head {
            varint::write_u64(&mut out, seg.raw() as u64);
        }
        checkpoint::write_triples(
            &mut out,
            self.commit_map
                .get_mut()
                .iter()
                .map(|(c, (seg, off))| (c.raw(), seg.raw() as u64, *off)),
        );
        Ok(out)
    }

    fn drop_caches(&self) {
        self.pool.clear();
    }
}

/// The single-version scan: walks the precedence-topological segment
/// order, newest slot first within each segment, suppressing shadowed keys
/// and tombstones via the emitted set. Liveness comes from key peeks; the
/// lowered predicate is evaluated per slot against pinned page bytes, and
/// passing rows are yielded as their slot bytes.
///
/// Version-first has no bitmap, so its resume tokens count *raw slots
/// walked*: resuming replays the token's prefix with key peeks only — no
/// predicate work — to rebuild the shadowing set (O(prefix) metadata
/// reads; the engines with liveness bitmaps resume in O(1) instead). Rows
/// skipped during replay still enter the emitted set: a predicate-failing
/// or already-delivered copy must keep shadowing older copies of its key.
struct VfSlotScan<'a> {
    engine: &'a VersionFirstEngine,
    order: Vec<(SegmentId, u64, u64)>,
    next_portion: usize,
    /// Current portion: `(cursor, lo, next)` — slots `[lo, next)` remain,
    /// visited in descending order.
    cur: Option<(PinnedCursor<'a>, u64, u64)>,
    pred: PagePredicate,
    emitted: FxHashSet<u64>,
    /// Raw slots walked so far; the resume token of an emitted row.
    visited: u64,
    from: u64,
}

impl VfSlotScan<'_> {
    /// Walks to the next visible, passing slot of the current portion
    /// chain and returns its index (its page is pinned by `cur`'s cursor).
    fn advance(&mut self) -> Result<Option<u64>> {
        loop {
            if let Some((cursor, lo, next)) = &mut self.cur {
                while *next > *lo {
                    *next -= 1;
                    let slot = *next;
                    self.visited += 1;
                    let (key, tombstone) = cursor.peek_key(slot)?;
                    if !self.emitted.insert(key) || tombstone || self.visited <= self.from {
                        continue;
                    }
                    if self.pred.eval_slot(cursor, slot)? {
                        return Ok(Some(slot));
                    }
                }
                self.cur = None;
            }
            let Some(&(seg, lo, hi)) = self.order.get(self.next_portion) else {
                return Ok(None);
            };
            self.next_portion += 1;
            let heap = &self.engine.seg(seg).heap;
            let hi = hi.min(heap.len()).max(lo);
            self.cur = Some((heap.pinned_cursor(), lo, hi));
        }
    }
}

impl SlotCursor for VfSlotScan<'_> {
    fn next_slot(&mut self) -> Result<Option<(u64, &[u8])>> {
        let Some(slot) = self.advance()? else {
            return Ok(None);
        };
        let (cursor, _, _) = self.cur.as_mut().expect("advance left a portion open");
        Ok(Some((self.visited, cursor.slot_bytes(slot)?)))
    }
}

/// Pass 2 of the planned multi-branch scan: the shared [`SegmentedScan`]
/// over each segment's winner bitmap, annotated from its `slot → branches`
/// winner map (see
/// [`VersionFirstEngine::multi_scan_pipeline`](VersionedStore::multi_scan_pipeline)).
struct VfWinnerScan<'a>(SegmentedScan<'a, FxHashMap<u64, Vec<BranchId>>>);

impl AnnotatedSlotCursor for VfWinnerScan<'_> {
    fn next_slot(&mut self) -> Result<Option<AnnotatedSlot<'_>>> {
        let Some((pos, idx)) = self.0.advance()? else {
            return Ok(None);
        };
        let (token, slot, winners) = self.0.row(pos, idx)?;
        let live = winners.get(&idx).map_or(&[][..], Vec::as_slice);
        Ok(Some((token, slot, live)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RecordIter;

    fn engine() -> (tempfile::TempDir, VersionFirstEngine) {
        let dir = tempfile::tempdir().unwrap();
        let schema = Schema::new(4, decibel_common::schema::ColumnType::U32);
        let eng =
            VersionFirstEngine::init(dir.path().join("vf"), schema, &StoreConfig::test_default())
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
    fn update_shadows_older_copy() {
        let (_d, eng) = engine();
        eng.insert(BranchId::MASTER, rec(1, 0)).unwrap();
        eng.update(BranchId::MASTER, rec(1, 50)).unwrap();
        let all: Vec<Record> = eng
            .scan(BranchId::MASTER.into())
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].field(0), 50);
        assert_eq!(
            eng.get(BranchId::MASTER.into(), 1)
                .unwrap()
                .unwrap()
                .field(0),
            50
        );
    }

    #[test]
    fn tombstone_hides_record() {
        let (_d, eng) = engine();
        eng.insert(BranchId::MASTER, rec(1, 0)).unwrap();
        eng.insert(BranchId::MASTER, rec(2, 0)).unwrap();
        eng.delete(BranchId::MASTER, 1).unwrap();
        assert_eq!(keys(eng.scan(BranchId::MASTER.into()).unwrap()), vec![2]);
        assert_eq!(eng.get(BranchId::MASTER.into(), 1).unwrap(), None);
    }

    #[test]
    fn branch_point_isolates_parent_appends() {
        let (_d, mut eng) = engine();
        eng.insert(BranchId::MASTER, rec(1, 0)).unwrap();
        let dev = eng.create_branch("dev", BranchId::MASTER.into()).unwrap();
        // Parent modifications after the branch point are invisible to dev.
        eng.insert(BranchId::MASTER, rec(2, 0)).unwrap();
        eng.update(BranchId::MASTER, rec(1, 99)).unwrap();
        assert_eq!(keys(eng.scan(dev.into()).unwrap()), vec![1]);
        assert_eq!(eng.get(dev.into(), 1).unwrap().unwrap().field(0), 0);
        // And dev's modifications are invisible to master.
        eng.insert(dev, rec(3, 0)).unwrap();
        assert_eq!(keys(eng.scan(BranchId::MASTER.into()).unwrap()), vec![1, 2]);
    }

    #[test]
    fn child_update_shadows_inherited_record() {
        let (_d, mut eng) = engine();
        eng.insert(BranchId::MASTER, rec(1, 0)).unwrap();
        let dev = eng.create_branch("dev", BranchId::MASTER.into()).unwrap();
        eng.update(dev, rec(1, 7)).unwrap();
        assert_eq!(eng.get(dev.into(), 1).unwrap().unwrap().field(0), 7);
        assert_eq!(
            eng.get(BranchId::MASTER.into(), 1)
                .unwrap()
                .unwrap()
                .field(0),
            0
        );
        // Exactly one copy of key 1 is emitted per branch.
        assert_eq!(eng.live_count(dev.into()).unwrap(), 1);
    }

    #[test]
    fn deep_chain_scan() {
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
        // Tail branch sees all 15 records through the chain.
        assert_eq!(
            keys(eng.scan(branch.into()).unwrap()),
            (0..15).collect::<Vec<_>>()
        );
        // Root sees only its own 3.
        assert_eq!(eng.live_count(BranchId::MASTER.into()).unwrap(), 3);
    }

    #[test]
    fn commit_pins_offsets() {
        let (_d, eng) = engine();
        eng.insert(BranchId::MASTER, rec(1, 0)).unwrap();
        let c1 = eng.commit(BranchId::MASTER).unwrap();
        eng.insert(BranchId::MASTER, rec(2, 0)).unwrap();
        eng.update(BranchId::MASTER, rec(1, 9)).unwrap();
        let c2 = eng.commit(BranchId::MASTER).unwrap();

        assert_eq!(keys(eng.scan(c1.into()).unwrap()), vec![1]);
        assert_eq!(eng.get(c1.into(), 1).unwrap().unwrap().field(0), 0);
        assert_eq!(eng.get(c2.into(), 1).unwrap().unwrap().field(0), 9);
        assert_eq!(eng.checkout_version(c1).unwrap(), 1);
        assert_eq!(eng.checkout_version(c2).unwrap(), 2);
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
        eng.insert(old, rec(10, 0)).unwrap();
        assert_eq!(keys(eng.scan(old.into()).unwrap()), vec![1, 10]);
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
    fn multi_scan_shadowing_respects_each_branch() {
        let (_d, mut eng) = engine();
        eng.insert(BranchId::MASTER, rec(1, 0)).unwrap();
        let dev = eng.create_branch("dev", BranchId::MASTER.into()).unwrap();
        eng.update(dev, rec(1, 7)).unwrap();
        let rows: Vec<(u64, u64, Vec<BranchId>)> = eng
            .multi_scan(&[BranchId::MASTER, dev])
            .unwrap()
            .map(|r| {
                let (rec, branches) = r.unwrap();
                (rec.key(), rec.field(0), branches)
            })
            .collect();
        // Two copies of key 1: the base (live in master only) and dev's
        // update (live in dev only).
        assert_eq!(rows.len(), 2);
        let base = rows.iter().find(|(_, f, _)| *f == 0).unwrap();
        assert_eq!(base.2, vec![BranchId::MASTER]);
        let updated = rows.iter().find(|(_, f, _)| *f == 7).unwrap();
        assert_eq!(updated.2, vec![dev]);
    }

    #[test]
    fn two_way_merge_precedence_without_materialization() {
        let (_d, mut eng) = engine();
        eng.insert(BranchId::MASTER, rec(1, 10)).unwrap();
        let dev = eng.create_branch("dev", BranchId::MASTER.into()).unwrap();
        eng.update(BranchId::MASTER, rec(1, 111)).unwrap();
        eng.update(dev, rec(1, 222)).unwrap();
        eng.insert(dev, rec(5, 0)).unwrap();

        let before_bytes = eng.stats().data_bytes;
        let res = eng
            .merge(
                BranchId::MASTER,
                dev,
                MergePolicy::TwoWay { prefer_left: false },
            )
            .unwrap();
        assert_eq!(res.conflicts.len(), 1);
        // No record copies were written: precedence is metadata.
        assert_eq!(eng.stats().data_bytes, before_bytes);
        assert_eq!(
            eng.get(BranchId::MASTER.into(), 1)
                .unwrap()
                .unwrap()
                .field(0),
            222
        );
        assert_eq!(keys(eng.scan(BranchId::MASTER.into()).unwrap()), vec![1, 5]);
    }

    #[test]
    fn three_way_merge_materializes_field_merge() {
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
    fn merge_delete_vs_modify_conflict() {
        let (_d, mut eng) = engine();
        eng.insert(BranchId::MASTER, rec(1, 0)).unwrap();
        let dev = eng.create_branch("dev", BranchId::MASTER.into()).unwrap();
        eng.delete(BranchId::MASTER, 1).unwrap();
        eng.update(dev, rec(1, 5)).unwrap();

        // Deletion side preferred: key stays gone.
        let res = eng
            .merge(
                BranchId::MASTER,
                dev,
                MergePolicy::ThreeWay { prefer_left: true },
            )
            .unwrap();
        assert_eq!(res.conflicts.len(), 1);
        assert_eq!(eng.get(BranchId::MASTER.into(), 1).unwrap(), None);
    }

    #[test]
    fn scan_after_merge_sees_both_sides() {
        let (_d, mut eng) = engine();
        eng.insert(BranchId::MASTER, rec(1, 0)).unwrap();
        let dev = eng.create_branch("dev", BranchId::MASTER.into()).unwrap();
        eng.insert(BranchId::MASTER, rec(2, 0)).unwrap();
        eng.insert(dev, rec(3, 0)).unwrap();
        eng.merge(
            BranchId::MASTER,
            dev,
            MergePolicy::ThreeWay { prefer_left: true },
        )
        .unwrap();
        assert_eq!(
            keys(eng.scan(BranchId::MASTER.into()).unwrap()),
            vec![1, 2, 3]
        );
        // dev is unaffected.
        assert_eq!(keys(eng.scan(dev.into()).unwrap()), vec![1, 3]);
        // And post-merge modifications to dev stay isolated from master.
        eng.insert(dev, rec(4, 0)).unwrap();
        assert_eq!(
            keys(eng.scan(BranchId::MASTER.into()).unwrap()),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn stats_count_segments() {
        let (_d, mut eng) = engine();
        eng.insert(BranchId::MASTER, rec(1, 0)).unwrap();
        let _dev = eng.create_branch("dev", BranchId::MASTER.into()).unwrap();
        let s = eng.stats();
        assert_eq!(s.num_segments, 2);
        assert_eq!(s.index_bytes, 0, "version-first has no bitmap index");
        assert!(s.data_bytes > 0);
    }

    #[test]
    fn disjoint_branch_writers_do_not_corrupt_each_other() {
        use std::sync::{Arc as StdArc, Barrier};

        let (_d, mut eng) = engine();
        eng.insert(BranchId::MASTER, rec(1, 0)).unwrap();
        let branches: Vec<BranchId> = (0..4)
            .map(|i| {
                eng.create_branch(&format!("w{i}"), BranchId::MASTER.into())
                    .unwrap()
            })
            .collect();

        let eng = StdArc::new(eng);
        let barrier = StdArc::new(Barrier::new(branches.len()));
        let mut handles = Vec::new();
        for (i, &b) in branches.iter().enumerate() {
            let eng = StdArc::clone(&eng);
            let barrier = StdArc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                for k in 0..50u64 {
                    eng.insert(b, rec(1000 + i as u64 * 1000 + k, k)).unwrap();
                }
                eng.update(b, rec(1, 900 + i as u64)).unwrap();
                eng.commit(b).unwrap()
            }));
        }
        let commits: Vec<CommitId> = handles.into_iter().map(|h| h.join().unwrap()).collect();

        // Each branch sees exactly its own writes: 50 inserts plus the
        // (updated) inherited record.
        for (i, &b) in branches.iter().enumerate() {
            assert_eq!(eng.live_count(b.into()).unwrap(), 51);
            assert_eq!(
                eng.get(b.into(), 1).unwrap().unwrap().field(0),
                900 + i as u64
            );
        }
        // Every concurrent commit resolved a distinct id and pinned 51
        // live records.
        let graph = eng.graph();
        for &c in &commits {
            graph.commit(c).unwrap();
            assert_eq!(eng.checkout_version(c).unwrap(), 51);
        }
        // Master is untouched by all of it.
        assert_eq!(eng.live_count(BranchId::MASTER.into()).unwrap(), 1);
    }
}
