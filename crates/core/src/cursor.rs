//! Resumable chunked scan cursors: O(chunk) memory, zero lock time
//! between chunks.
//!
//! [`Database::query`](crate::db::Database::query) materializes a scan's
//! full result under one store-lock acquisition — the right shape for an
//! in-process caller that wants the rows anyway, and the wrong shape for
//! a server streaming to a slow socket: the materialized result pins
//! O(result) memory for as long as the client takes to drain it. The
//! cursors here invert that: each [`ScanCursor::stream`] call re-acquires
//! the shared store lock (plus the scanned branch heads' shard read
//! locks), re-opens the engine's planned scan at the resume token of the
//! last delivered row, delivers a bounded number of chunks, and releases
//! every lock before returning. Between calls the cursor holds nothing
//! but plain data — a version ref, a plan, and a resume token — so a
//! stalled consumer blocks no commit, no flush, and no other scan.
//!
//! # Consistency
//!
//! A chunked scan is *read-committed per chunk*, not a single snapshot:
//! commits that land between two `stream` calls are visible to later
//! chunks. The already-emitted prefix stays stable because every engine's
//! storage is append-only within a branch (updates append a new live copy
//! and flip bitmap/tombstone state; nothing is overwritten or compacted
//! in place while the database is open), so re-walking the iterator
//! visits the same prefix in the same order. This is the documented
//! contract of the wire protocol's streamed scans; callers needing one
//! snapshot across the whole result use `query` or hold a session
//! transaction (whose 2PL branch lock blocks writers outright).
//!
//! Deliberately, a cursor takes **no** branch-level 2PL lock: the
//! server's streaming path runs cursors for sessions that may themselves
//! hold the exclusive branch lock (a scan inside an open transaction),
//! and a second acquisition from the cursor would deadlock against its
//! own session. Session-view cursors instead carry a clone of the
//! transaction overlay, exactly like
//! [`Session::scan_with`](crate::session::Session::scan_with).
//!
//! # One driver, two kinds of consumer
//!
//! The engines' planned scan yields each qualifying row as its serialized
//! slot on the pinned heap page
//! ([`SlotCursor`](crate::types::SlotCursor)); a cursor here drives that
//! scan under the locks and hands every slot to a [`RowSink`], telling it
//! where chunks end. That is the one loop:
//!
//! * [`ScanCursor::stream`] / [`MultiScanCursor::stream`] expose it
//!   directly — the **byte sink**. The server's sink copies each slot's
//!   projected image straight into the connection's write buffer, so a
//!   streamed scan builds no `Record`, no `Vec<BranchId>`, and nothing to
//!   free; its allocations are O(chunks), not O(rows).
//! * [`ScanCursor::for_each_chunk`] / [`ScanCursor::next_chunk`] (and the
//!   multi-branch twins) are derived from it with a sink that decodes each
//!   slot under the plan's projection
//!   ([`Record::read_projected`]) — the same decode the engines used to do
//!   internally, now done by the consumer that wants records.
//!
//! **Held across sink calls:** the store read lock, the scanned heads'
//! shard read locks, and the engine cursor's one pinned page — for
//! [`RowSink::row`] (which must only copy or decode) and for
//! [`RowSink::end_chunk`] (which may do bounded, nonblocking work such as
//! a socket write, and ends the acquisition by returning `Ok(false)`).
//! **Not held** once `stream` returns: anything. The `slot` and `live`
//! slices passed to `row` borrow the pinned page and the cursor's reused
//! annotation buffer and are invalid after the call returns.
//!
//! # Resumption cost
//!
//! Resumption rides the engines' scan-pipeline *resume tokens*
//! ([`VersionedStore::scan_pipeline`](crate::store::VersionedStore::scan_pipeline)):
//! the cursor remembers the token of the last delivered row and passes it
//! back as `from` on the next acquisition. For the bitmap engines
//! (tuple-first, hybrid) that re-entry is O(1) — a `(segment, slot)` pair
//! naming a liveness word — not an O(prefix) iterator walk; version-first
//! replays the prefix with key peeks only (it must rebuild its shadowing
//! set; there is no bitmap to jump through). The pipeline also pushes the
//! cursor's predicate down to page bytes, so a filtered chunked scan never
//! touches a non-qualifying row beyond the compared columns. A `stream`
//! call amortizes lock acquisition and scan re-planning across up to
//! `max_chunks` chunks for consumers that are keeping up, releasing
//! everything the moment the sink reports backpressure.

use std::sync::Arc;

use decibel_common::error::Result;
use decibel_common::hash::FxHashMap;
use decibel_common::ids::BranchId;
use decibel_common::record::Record;
use decibel_common::schema::Schema;
use decibel_common::Projection;

use crate::db::Database;
use crate::query::plan::ScanPlan;
use crate::query::Predicate;
use crate::types::VersionRef;

/// Where a chunked scan's rows go — see the [module docs](self) for what
/// is held while these run.
pub trait RowSink {
    /// One qualifying row: its full-width serialized slot
    /// ([`Schema::record_size`] bytes; project it with
    /// [`Record::read_projected`] or [`Record::copy_projected_image`]) and,
    /// for multi-branch scans, the branches it is live in (empty for
    /// single-version scans). Both slices die with the call.
    fn row(&mut self, slot: &[u8], live: &[BranchId]) -> Result<()>;

    /// The `rows` rows delivered since the previous call form one chunk.
    /// Return `Ok(false)` to end this lock acquisition (backpressure).
    fn end_chunk(&mut self, rows: usize) -> Result<bool>;
}

/// The [`RowSink`] behind the record-yielding conveniences: decodes each
/// slot under the plan's projection and hands whole chunks to `f`.
struct DecodeSink<'a, T, F> {
    schema: &'a Schema,
    projection: &'a Projection,
    rows: Vec<T>,
    make: fn(Record, &[BranchId]) -> T,
    f: F,
}

impl<T, F: FnMut(Vec<T>) -> Result<bool>> RowSink for DecodeSink<'_, T, F> {
    fn row(&mut self, slot: &[u8], live: &[BranchId]) -> Result<()> {
        let rec = Record::read_projected(self.schema, slot, self.projection)?;
        self.rows.push((self.make)(rec, live));
        Ok(())
    }

    fn end_chunk(&mut self, _rows: usize) -> Result<bool> {
        (self.f)(std::mem::take(&mut self.rows))
    }
}

/// The branch heads a scan of `version` must shard-lock (commit refs are
/// immutable and need none).
fn shard_branches(version: VersionRef) -> Vec<BranchId> {
    match version {
        VersionRef::Branch(b) => vec![b],
        VersionRef::Commit(_) => Vec::new(),
    }
}

/// A resumable chunked scan of one version, optionally merged with a
/// session overlay. Created by
/// [`Database::chunked_scan`](crate::db::Database::chunked_scan) or
/// [`Session::chunked_scan`](crate::session::Session::chunked_scan).
pub struct ScanCursor {
    db: Arc<Database>,
    schema: Schema,
    version: VersionRef,
    /// Predicate (lowered per acquisition into the engine's page-level
    /// filter) + the projection consumers decode or copy slots under.
    plan: ScanPlan,
    /// Keys shadowed by the session overlay (skipped in the base scan).
    overlay: FxHashMap<u64, Option<Record>>,
    /// Overlay live values, appended after the base scan — the same order
    /// contract as `Session::scan_with` (none).
    pending: Vec<Record>,
    pending_pos: usize,
    /// Resume token of the last delivered base row (`0` = start): passed
    /// back to [`VersionedStore::scan_pipeline`](crate::store::VersionedStore::scan_pipeline)
    /// on the next acquisition.
    resume: u64,
    base_done: bool,
    done: bool,
    emitted: u64,
}

impl ScanCursor {
    pub(crate) fn new(db: Arc<Database>, version: VersionRef, plan: ScanPlan) -> ScanCursor {
        ScanCursor::with_overlay_and_plan(db, version, FxHashMap::default(), plan)
    }

    pub(crate) fn with_overlay(
        db: Arc<Database>,
        version: VersionRef,
        overlay: FxHashMap<u64, Option<Record>>,
    ) -> ScanCursor {
        ScanCursor::with_overlay_and_plan(
            db,
            version,
            overlay,
            ScanPlan::filter_only(Predicate::True),
        )
    }

    fn with_overlay_and_plan(
        db: Arc<Database>,
        version: VersionRef,
        overlay: FxHashMap<u64, Option<Record>>,
        plan: ScanPlan,
    ) -> ScanCursor {
        db.scan_metrics.queries.inc();
        db.scan_metrics.plans_pushdown.inc();
        let pending = overlay.values().flatten().cloned().collect();
        ScanCursor {
            schema: db.schema(),
            db,
            version,
            plan,
            overlay,
            pending,
            pending_pos: 0,
            resume: 0,
            base_done: false,
            done: false,
            emitted: 0,
        }
    }

    /// Produces the next chunk of up to `max_rows` qualifying records, or
    /// `Ok(None)` once the scan is exhausted. Store and shard locks are
    /// held only inside this call.
    pub fn next_chunk(&mut self, max_rows: usize) -> Result<Option<Vec<Record>>> {
        let mut got = None;
        self.for_each_chunk(max_rows, 1, |chunk| {
            got = Some(chunk);
            Ok(false)
        })?;
        Ok(got)
    }

    /// [`ScanCursor::stream`] with every chunk decoded into records
    /// (non-projected fields read `0`) before `sink` sees it.
    pub fn for_each_chunk(
        &mut self,
        max_rows: usize,
        max_chunks: usize,
        sink: impl FnMut(Vec<Record>) -> Result<bool>,
    ) -> Result<bool> {
        let (schema, projection) = (self.schema.clone(), self.plan.projection.clone());
        self.stream(
            max_rows,
            max_chunks,
            &mut DecodeSink {
                schema: &schema,
                projection: &projection,
                rows: Vec::new(),
                make: |rec, _| rec,
                f: sink,
            },
        )
    }

    /// Streams up to `max_chunks` chunks of up to `max_rows` rows each
    /// into `sink` under a **single** lock acquisition, as slot bytes.
    /// Stops early — releasing every lock — the moment
    /// [`RowSink::end_chunk`] returns `Ok(false)` (the consumer is
    /// backpressured). Returns `Ok(true)` once the scan is exhausted,
    /// `Ok(false)` if more remains. On `Err` the sink may have received
    /// rows of a chunk that never ended; it must discard them.
    ///
    /// This is the amortization path for consumers draining at speed:
    /// lock acquisition and scan planning are paid once per call instead
    /// of once per chunk, and row counters are flushed once per chunk.
    pub fn stream(
        &mut self,
        max_rows: usize,
        max_chunks: usize,
        sink: &mut impl RowSink,
    ) -> Result<bool> {
        if self.done {
            return Ok(true);
        }
        let max_rows = max_rows.max(1);
        let mut chunks = 0usize;
        if !self.base_done {
            let store = self.db.store.read();
            let _shards = self.db.shards.read_many(&shard_branches(self.version));
            // The pipeline filters and resumes from the token inside the
            // engine; only overlay shadowing remains here.
            let mut cursor = store.scan_pipeline(self.version, &self.plan, self.resume)?;
            // Hoisted: sessions without writes (and every database-level
            // scan) have an empty overlay, and hashing every key against
            // an empty map is measurable at scan rates.
            let overlay_empty = self.overlay.is_empty();
            while !self.base_done && chunks < max_chunks {
                // Per-chunk tallies, flushed to the shared counters once
                // per chunk — never a shared atomic per row.
                let (mut rows, mut seen) = (0usize, 0u64);
                while rows < max_rows {
                    let Some((token, slot)) = cursor.next_slot()? else {
                        self.base_done = true;
                        break;
                    };
                    self.resume = token;
                    seen += 1;
                    if overlay_empty || !self.overlay.contains_key(&Record::peek_key(slot).0) {
                        sink.row(slot, &[])?;
                        rows += 1;
                    }
                }
                self.db.scan_metrics.rows_scanned.add(seen);
                if rows == 0 {
                    break; // base exhausted with nothing gathered
                }
                self.emitted += rows as u64;
                self.db.scan_metrics.rows_emitted.add(rows as u64);
                chunks += 1;
                if !sink.end_chunk(rows)? {
                    // Backpressure: the guards drop as we return. (The
                    // exhaustion check is inlined — calling a &mut self
                    // method here would conflict with the live guards.)
                    if self.base_done && self.pending_pos == self.pending.len() {
                        self.done = true;
                    }
                    return Ok(self.done);
                }
            }
            if !self.base_done {
                return Ok(false); // chunk budget spent
            }
        }
        // Overlay rows never sat on a page: filter them with the source
        // predicate and serialize them into a scratch slot, so the sink
        // sees one row shape.
        let mut scratch = Vec::new();
        while self.pending_pos < self.pending.len() && chunks < max_chunks {
            let mut rows = 0usize;
            let chunk_start = self.pending_pos;
            while rows < max_rows && self.pending_pos < self.pending.len() {
                let rec = &self.pending[self.pending_pos];
                self.pending_pos += 1;
                if self.plan.predicate.eval(rec) {
                    scratch.resize(self.schema.record_size(), 0);
                    rec.write_to(&self.schema, &mut scratch)?;
                    sink.row(&scratch, &[])?;
                    rows += 1;
                }
            }
            self.db
                .scan_metrics
                .rows_scanned
                .add((self.pending_pos - chunk_start) as u64);
            if rows == 0 {
                break;
            }
            self.emitted += rows as u64;
            self.db.scan_metrics.rows_emitted.add(rows as u64);
            chunks += 1;
            if !sink.end_chunk(rows)? {
                return Ok(self.finished());
            }
        }
        Ok(self.finished())
    }

    /// Marks (and reports) exhaustion: base iterator done and overlay
    /// tail fully drained.
    fn finished(&mut self) -> bool {
        if self.base_done && self.pending_pos == self.pending.len() {
            self.done = true;
        }
        self.done
    }

    /// Rows emitted so far — the scan's terminal row count once
    /// [`ScanCursor::stream`] has returned `true`.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

/// One chunk of an annotated multi-branch scan: each qualifying record
/// with the branches it is live on.
pub type AnnotatedChunk = Vec<(Record, Vec<BranchId>)>;

/// A resumable chunked multi-branch annotated scan (the sequential
/// [`MultiBranchScan`](crate::query::Query::MultiBranchScan) shape).
/// Created by
/// [`Database::chunked_multi_scan`](crate::db::Database::chunked_multi_scan).
pub struct MultiScanCursor {
    db: Arc<Database>,
    schema: Schema,
    branches: Vec<BranchId>,
    /// Predicate lowered into the engines' multi-scan pipeline per
    /// acquisition + the projection consumers decode or copy under.
    plan: ScanPlan,
    /// Resume token of the last delivered row (`0` = start).
    resume: u64,
    done: bool,
    emitted: u64,
}

impl MultiScanCursor {
    pub(crate) fn new(
        db: Arc<Database>,
        branches: Vec<BranchId>,
        plan: ScanPlan,
    ) -> MultiScanCursor {
        db.scan_metrics.queries.inc();
        db.scan_metrics.plans_pushdown.inc();
        MultiScanCursor {
            schema: db.schema(),
            db,
            branches,
            plan,
            resume: 0,
            done: false,
            emitted: 0,
        }
    }

    /// Produces the next chunk of up to `max_rows` qualifying annotated
    /// rows, or `Ok(None)` once exhausted. Locking and consistency match
    /// [`ScanCursor::next_chunk`].
    pub fn next_chunk(&mut self, max_rows: usize) -> Result<Option<AnnotatedChunk>> {
        let mut got = None;
        self.for_each_chunk(max_rows, 1, |chunk| {
            got = Some(chunk);
            Ok(false)
        })?;
        Ok(got)
    }

    /// [`MultiScanCursor::stream`] with every chunk decoded into
    /// annotated records before `sink` sees it.
    pub fn for_each_chunk(
        &mut self,
        max_rows: usize,
        max_chunks: usize,
        sink: impl FnMut(AnnotatedChunk) -> Result<bool>,
    ) -> Result<bool> {
        let (schema, projection) = (self.schema.clone(), self.plan.projection.clone());
        self.stream(
            max_rows,
            max_chunks,
            &mut DecodeSink {
                schema: &schema,
                projection: &projection,
                rows: Vec::new(),
                make: |rec, live| (rec, live.to_vec()),
                f: sink,
            },
        )
    }

    /// Streams up to `max_chunks` chunks into `sink` under a single lock
    /// acquisition, as slot bytes plus branch annotations; the contract
    /// matches [`ScanCursor::stream`].
    pub fn stream(
        &mut self,
        max_rows: usize,
        max_chunks: usize,
        sink: &mut impl RowSink,
    ) -> Result<bool> {
        if self.done {
            return Ok(true);
        }
        let max_rows = max_rows.max(1);
        let mut chunks = 0usize;
        let store = self.db.store.read();
        let _shards = self.db.shards.read_many(&self.branches);
        let mut cursor = store.multi_scan_pipeline(&self.branches, &self.plan, self.resume)?;
        while !self.done && chunks < max_chunks {
            // Per-chunk tallies, flushed once per chunk (see `ScanCursor`).
            let (mut rows, mut seen) = (0usize, 0u64);
            while rows < max_rows {
                let Some((token, slot, live)) = cursor.next_slot()? else {
                    self.done = true;
                    break;
                };
                self.resume = token;
                seen += 1;
                if !live.is_empty() {
                    sink.row(slot, live)?;
                    rows += 1;
                }
            }
            self.db.scan_metrics.rows_scanned.add(seen);
            if rows == 0 {
                break;
            }
            self.emitted += rows as u64;
            self.db.scan_metrics.rows_emitted.add(rows as u64);
            chunks += 1;
            if !sink.end_chunk(rows)? {
                return Ok(self.done);
            }
        }
        Ok(self.done)
    }

    /// Rows emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::EngineKind;
    use decibel_common::ids::BranchId;
    use decibel_common::schema::{ColumnType, Schema};
    use decibel_pagestore::StoreConfig;

    fn db(kind: EngineKind) -> (tempfile::TempDir, Arc<Database>) {
        let dir = tempfile::tempdir().unwrap();
        let db = Database::create(
            dir.path().join("db"),
            kind,
            Schema::new(2, ColumnType::U32),
            &StoreConfig::test_default(),
        )
        .unwrap();
        (dir, db)
    }

    fn rec(k: u64, v: u64) -> Record {
        Record::new(k, vec![v, v])
    }

    fn seed(db: &Arc<Database>, n: u64) {
        let mut s = db.session();
        for k in 0..n {
            s.insert(rec(k, k * 10)).unwrap();
        }
        s.commit().unwrap();
    }

    #[test]
    fn chunked_scan_matches_materialized_scan_at_every_chunk_size() {
        for kind in [
            EngineKind::TupleFirstBranch,
            EngineKind::TupleFirstTuple,
            EngineKind::VersionFirst,
            EngineKind::Hybrid,
        ] {
            let (_d, db) = db(kind);
            seed(&db, 57);
            let full = db
                .read(BranchId::MASTER)
                .filter(Predicate::ColGe(0, 100))
                .collect()
                .unwrap();
            assert!(!full.is_empty());
            for chunk in [1usize, 7, 57, 1000] {
                let mut cursor = db.chunked_scan(
                    VersionRef::Branch(BranchId::MASTER),
                    Predicate::ColGe(0, 100),
                );
                let mut rows = Vec::new();
                while let Some(mut c) = cursor.next_chunk(chunk).unwrap() {
                    assert!(c.len() <= chunk);
                    rows.append(&mut c);
                }
                assert_eq!(rows, full, "{kind:?} chunk={chunk}");
                assert_eq!(cursor.emitted(), full.len() as u64);
                // Exhausted cursors stay exhausted.
                assert!(cursor.next_chunk(chunk).unwrap().is_none());
            }
        }
    }

    #[test]
    fn session_cursor_merges_overlay_and_takes_no_branch_lock() {
        let (_d, db) = db(EngineKind::Hybrid);
        seed(&db, 10);
        let mut s = db.session();
        s.update(rec(3, 999)).unwrap(); // shadow a base row
        assert!(s.delete(4).unwrap()); // hide a base row
        s.insert(rec(100, 1)).unwrap(); // pending insert

        // The session holds master's exclusive 2PL lock here; the cursor
        // must still stream (it takes no branch lock of its own).
        let mut cursor = s.chunked_scan();
        let mut rows = Vec::new();
        while let Some(mut c) = cursor.next_chunk(3).unwrap() {
            rows.append(&mut c);
        }
        assert_eq!(rows.len(), 10); // 10 - deleted + inserted
        assert!(rows.iter().any(|r| r.key() == 100));
        assert!(!rows.iter().any(|r| r.key() == 4));
        assert_eq!(rows.iter().find(|r| r.key() == 3).unwrap().field(0), 999);
        // Matches the blocking session scan exactly (order-insensitive on
        // the overlay tail: both append pending values after the base).
        let mut via_scan = s.scan_collect().unwrap();
        let mut sorted = rows.clone();
        via_scan.sort_by_key(Record::key);
        sorted.sort_by_key(Record::key);
        assert_eq!(sorted, via_scan);
        s.rollback();
    }

    #[test]
    fn no_locks_held_between_chunks() {
        let (_d, db) = db(EngineKind::Hybrid);
        seed(&db, 40);
        let mut cursor = db.chunked_scan(VersionRef::Branch(BranchId::MASTER), Predicate::True);
        let first = cursor.next_chunk(5).unwrap().unwrap();
        assert_eq!(first.len(), 5);
        // Store-exclusive operations must proceed while the cursor is
        // mid-scan: flush takes store.write() + quiesces every shard,
        // create_branch takes store.write(). Either would deadlock if the
        // cursor parked a read guard between chunks.
        db.flush().unwrap();
        db.create_branch("mid-scan", BranchId::MASTER).unwrap();
        // A commit on the scanned branch also proceeds.
        let mut w = db.session();
        w.insert(rec(1000, 1)).unwrap();
        w.commit().unwrap();
        let mut rows = first;
        while let Some(mut c) = cursor.next_chunk(5).unwrap() {
            rows.append(&mut c);
        }
        // Read-committed per chunk: the prefix is stable, and the
        // mid-scan commit is allowed (not required) to appear.
        assert!(rows.len() >= 40);
        let keys: Vec<u64> = rows.iter().take(40).map(Record::key).collect();
        let mut expect: Vec<u64> = (0..40).collect();
        expect.sort_unstable();
        let mut got = keys.clone();
        got.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn for_each_chunk_stops_on_backpressure_and_resumes_exactly() {
        let (_d, db) = db(EngineKind::Hybrid);
        seed(&db, 57);
        let full = db
            .read(BranchId::MASTER)
            .filter(Predicate::True)
            .collect()
            .unwrap();
        let mut cursor = db.chunked_scan(VersionRef::Branch(BranchId::MASTER), Predicate::True);
        let mut rows = Vec::new();
        // A sink that accepts two chunks per acquisition, then reports
        // backpressure — the cursor must release its locks (proved by the
        // flush below) and resume without skipping or repeating rows.
        loop {
            let mut taken = 0;
            let exhausted = cursor
                .for_each_chunk(5, 100, |mut c| {
                    assert!(c.len() <= 5);
                    rows.append(&mut c);
                    taken += 1;
                    Ok(taken < 2)
                })
                .unwrap();
            db.flush().unwrap(); // would deadlock if a read guard leaked
            if exhausted {
                break;
            }
        }
        assert_eq!(rows, full);
        assert_eq!(cursor.emitted(), full.len() as u64);
        // Exhausted cursors report exhaustion without producing.
        assert!(cursor
            .for_each_chunk(5, 100, |_| panic!("produced past exhaustion"))
            .unwrap());

        // The chunk budget also ends an acquisition early, resumably.
        let mut budgeted = db.chunked_scan(VersionRef::Branch(BranchId::MASTER), Predicate::True);
        let mut rows = Vec::new();
        loop {
            let exhausted = budgeted
                .for_each_chunk(5, 3, |mut c| {
                    rows.append(&mut c);
                    Ok(true)
                })
                .unwrap();
            if exhausted {
                break;
            }
        }
        assert_eq!(rows, full);
    }

    #[test]
    fn multi_cursor_matches_annotated_scan() {
        let (_d, db) = db(EngineKind::Hybrid);
        seed(&db, 20);
        let dev = db.create_branch("dev", BranchId::MASTER).unwrap();
        let mut s = db.session();
        s.checkout_branch("dev").unwrap();
        s.insert(rec(500, 5)).unwrap();
        s.commit().unwrap();
        let branches = vec![BranchId::MASTER, dev];
        let full = db
            .read_branches(&branches)
            .filter(Predicate::ColGe(0, 0))
            .annotated()
            .unwrap();
        for chunk in [1usize, 6, 100] {
            let mut cursor = db.chunked_multi_scan(branches.clone(), Predicate::ColGe(0, 0));
            let mut rows = Vec::new();
            while let Some(mut c) = cursor.next_chunk(chunk).unwrap() {
                rows.append(&mut c);
            }
            assert_eq!(rows, full, "chunk={chunk}");
            assert_eq!(cursor.emitted(), full.len() as u64);
        }
    }
}
