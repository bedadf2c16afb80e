//! Streaming a scan through the cursors' byte sink allocates per *batch*,
//! not per row: no `Record`, no `Vec<BranchId>`, no payload vector. Pinned
//! with a counting global allocator (hence its own test binary, one test)
//! that tallies the allocations of the streaming thread only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use decibel::common::ids::BranchId;
use decibel::common::record::Record;
use decibel::common::schema::{ColumnType, Schema};
use decibel::core::cursor::RowSink;
use decibel::core::query::Predicate;
use decibel::core::{Database, EngineKind, VersionRef};
use decibel::pagestore::StoreConfig;
use decibel::wire::proto::{self, BatchStream};
use decibel::{Projection, Result};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers to `System` for every operation; the only addition is a
// thread-local counter bump (const-initialized, no destructor, so it
// neither allocates nor runs after teardown — `try_with` covers the rest).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const ROWS: u64 = 50_000;
const COLS: usize = 12;

/// The server's sink with the socket replaced by "always drained": every
/// finished frame is discarded, as a fast reader would have it.
struct DrainedSink<'a> {
    frames: BatchStream<'a>,
    rows: u64,
}

impl RowSink for DrainedSink<'_> {
    fn row(&mut self, slot: &[u8], live: &[BranchId]) -> Result<()> {
        self.frames.push_row(slot, live);
        Ok(())
    }

    fn end_chunk(&mut self, rows: usize) -> Result<bool> {
        self.frames.end_batch(rows);
        self.frames.out().clear();
        self.rows += rows as u64;
        Ok(true)
    }
}

#[test]
fn streaming_allocates_per_batch_not_per_row() {
    let dir = tempfile::tempdir().unwrap();
    let schema = Schema::new(COLS, ColumnType::U32);
    let mut cfg = StoreConfig::test_default();
    cfg.page_size = 64 << 10;
    cfg.pool_pages = 256; // the whole table stays resident
    let db = Database::create(
        dir.path().join("db"),
        EngineKind::Hybrid,
        schema.clone(),
        &cfg,
    )
    .unwrap();
    let mut s = db.session();
    for k in 0..ROWS {
        s.insert(Record::new(k, vec![k; COLS])).unwrap();
    }
    s.commit().unwrap();
    // Three forks with a few writes each: the 4-branch Q4.
    let mut branches = vec![BranchId::MASTER];
    for i in 0..3u64 {
        s.checkout_branch("master").unwrap();
        branches.push(s.branch(&format!("fork{i}")).unwrap());
        for k in 0..50 {
            s.update(Record::new(k * 97 + i, vec![i; COLS])).unwrap();
        }
        s.commit().unwrap();
    }
    drop(s);

    let projection = Projection::All;
    let max_rows = proto::batch_rows(schema.record_size());
    let mut out = Vec::new();
    // Each scan runs twice: the first pass warms the buffer pool and sizes
    // `out`, the second is measured.
    let mut q1 = || {
        let mut cursor = db.chunked_scan(VersionRef::Branch(BranchId::MASTER), Predicate::True);
        let mut sink = DrainedSink {
            frames: BatchStream::new(&mut out, &schema, &projection, false, max_rows),
            rows: 0,
        };
        let before = allocs();
        while !cursor.stream(max_rows, 32, &mut sink).unwrap() {}
        (sink.rows, allocs() - before)
    };
    q1();
    let (rows, n) = q1();
    assert_eq!(rows, ROWS);
    assert!(
        n < ROWS / 50,
        "Q1 of {ROWS} rows made {n} allocations; the byte sink must be O(batches)"
    );

    let mut out = Vec::new();
    let mut q4 = || {
        let mut cursor = db.chunked_multi_scan(branches.clone(), Predicate::True);
        let mut sink = DrainedSink {
            frames: BatchStream::new(&mut out, &schema, &projection, true, max_rows),
            rows: 0,
        };
        let before = allocs();
        while !cursor.stream(max_rows, 32, &mut sink).unwrap() {}
        (sink.rows, allocs() - before)
    };
    q4();
    let (rows, n) = q4();
    assert_eq!(rows, ROWS + 3 * 50);
    assert!(
        n < ROWS / 50,
        "4-branch Q4 of {rows} rows made {n} allocations; the byte sink must be O(batches)"
    );
}
