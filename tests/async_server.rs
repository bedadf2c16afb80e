//! Integration tests for the event-loop server's asynchronous behavior:
//! chunked scan streaming under client backpressure (O(chunk) memory, no
//! lock held between chunks), stalled streams staying killable and
//! timeout-proof, the 64-idle + 4-hot soak with connection churn, and the
//! shared-secret auth gate over the public facade.
//!
//! The slow-reader tests drive the wire by hand (raw `TcpStream` + frame
//! codec) because the blocking [`Client`] always drains scans eagerly —
//! the whole point here is to *stop* reading mid-stream.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use decibel::common::ids::BranchId;
use decibel::common::record::Record;
use decibel::common::schema::{ColumnType, Schema};
use decibel::core::query::Predicate;
use decibel::core::{Database, EngineKind};
use decibel::pagestore::StoreConfig;
use decibel::server::{Server, ServerHandle};
use decibel::wire::frame::{read_frame, write_frame};
use decibel::wire::proto::{Hello, Reply, Request, Response};
use decibel::{Client, DbError};

/// A wide schema so a modest row count yields a multi-megabyte scan —
/// large against the ~256 KiB chunk budget the server is allowed to pin.
fn wide_schema() -> Schema {
    Schema::new(14, ColumnType::U64)
}

fn wide_rec(k: u64) -> Record {
    Record::new(k, vec![k; 14])
}

/// Creates a database seeded with `rows` wide records on master and an
/// empty sibling branch `"other"`, then serves it.
fn serve_seeded(
    rows: u64,
    configure: impl FnOnce(Server) -> Server,
) -> (tempfile::TempDir, ServerHandle) {
    let dir = tempfile::tempdir().unwrap();
    let db = Database::create(
        dir.path().join("db"),
        EngineKind::Hybrid,
        wide_schema(),
        &StoreConfig::test_default(),
    )
    .unwrap();
    {
        let mut s = db.session();
        for k in 0..rows {
            s.insert(wide_rec(k)).unwrap();
            if k % 20_000 == 19_999 {
                s.commit().unwrap();
            }
        }
        if !rows.is_multiple_of(20_000) {
            s.commit().unwrap();
        }
        s.branch("other").unwrap();
    }
    let server = configure(Server::bind(db, "127.0.0.1:0").unwrap());
    (dir, server.spawn())
}

/// This process's resident set size, from `/proc/self/statm`.
fn rss_bytes() -> usize {
    let statm = std::fs::read_to_string("/proc/self/statm").unwrap();
    let pages: usize = statm.split_whitespace().nth(1).unwrap().parse().unwrap();
    pages * 4096
}

/// Opens a raw connection, requests a full-table scan of master, reads
/// exactly one batch frame to prove streaming started, then stops reading
/// — from here on the client is a stalled slow reader.
fn start_stalled_scan(addr: SocketAddr, schema: &Schema) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    let hello = read_frame(&mut stream).unwrap().unwrap();
    Hello::decode(&hello).unwrap();
    let req = Request::Collect {
        version: BranchId::MASTER.into(),
        predicate: Predicate::True,
        projection: decibel::Projection::All,
    };
    let mut buf = Vec::new();
    write_frame(&mut buf, &req.encode(schema).unwrap()).unwrap();
    stream.write_all(&buf).unwrap();
    let frame = read_frame(&mut stream).unwrap().unwrap();
    match Response::decode(&frame, schema).unwrap() {
        Response::Batch(_, batch) => assert!(!batch.is_empty(), "first chunk must carry rows"),
        other => panic!("expected a batch frame, got {other:?}"),
    }
    stream
}

/// Reads a stalled stream to completion, returning the row total after
/// checking it against the terminal frame.
fn drain_scan(stream: &mut TcpStream, schema: &Schema, already: u64) -> u64 {
    let mut rows = already;
    loop {
        let frame = read_frame(stream).unwrap().unwrap();
        match Response::decode(&frame, schema).unwrap() {
            Response::Batch(_, batch) => rows += batch.len() as u64,
            Response::Ok(Reply::Rows(total)) => {
                assert_eq!(total, rows, "terminal row count disagrees with batches");
                return rows;
            }
            other => panic!("unexpected frame mid-scan: {other:?}"),
        }
    }
}

/// Rows the first batch of a wide-schema scan carries (the stalled-scan
/// helper consumed one batch before stalling).
fn first_batch_rows() -> u64 {
    decibel::wire::proto::batch_rows(wide_schema().record_size()) as u64
}

/// The backpressure contract: a client that stops reading mid-scan must
/// cost the server a small constant of memory (the ~2 MiB stream-ahead
/// cap) — not O(result) — and zero lock time, and the stream must resume
/// exactly where it stalled.
#[test]
fn slow_reader_pins_chunk_memory_and_holds_no_locks() {
    const ROWS: u64 = 200_000; // ~24 MB on the wire against a ~256 KiB chunk
    let (_d, handle) = serve_seeded(ROWS, |s| s);
    let addr = handle.local_addr();
    let schema = wide_schema();

    let baseline = rss_bytes();
    let mut stalled = start_stalled_scan(addr, &schema);
    // Let the event loop push chunks until the socket buffers fill and it
    // parks the stream waiting for writability.
    std::thread::sleep(Duration::from_millis(400));

    // Bounded, not O(result): a server that materialized the scan (or
    // produced chunks into its write buffer without a cap) would grow by
    // the payload size; ours parks at the ~2 MiB stream-ahead cap. Socket
    // buffers are kernel memory, not RSS; the allowance below is the cap
    // plus allocator slack, an order of magnitude under the 24 MB result.
    let grown = rss_bytes().saturating_sub(baseline);
    assert!(
        grown < 8 << 20,
        "stalled scan grew server RSS by {grown} bytes (result is ~24 MB; expected O(256 KiB chunk))"
    );

    // The same bound, read off the server's own gauge: the byte sink
    // parks production once the unsent backlog reaches the stream-ahead
    // cap (8 batches), overshooting by at most the batch that crossed it.
    let batch = decibel::wire::proto::SCAN_BATCH_BYTES as u64;
    let (_, backlog_max) = handle.metrics().gauge("server", "backlog_bytes");
    assert!(
        (8 * batch..10 * batch).contains(&backlog_max),
        "stalled scan's backlog high-water mark is {backlog_max} bytes; STREAM_AHEAD is {}",
        8 * batch
    );

    // Zero lock time between chunks: a commit on a sibling branch and a
    // full checkpoint (which quiesces every shard and takes the store
    // write lock) must both complete while the scan is parked mid-stream.
    let probe_db = Arc::clone(handle.database());
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.checkout_branch("other").unwrap();
        c.insert(wide_rec(5_000_000)).unwrap();
        c.commit().unwrap();
        probe_db.flush().unwrap();
        tx.send(()).unwrap();
    });
    rx.recv_timeout(Duration::from_secs(20))
        .expect("concurrent commit + flush blocked behind a stalled scan");

    // The stall is invisible to correctness: resuming drains every row
    // (the sibling-branch commit never touches master's scan).
    let total = drain_scan(&mut stalled, &schema, first_batch_rows());
    assert_eq!(total, ROWS);
    handle.shutdown().unwrap();
}

/// A stalled stream must not make the server unkillable: shutdown closes
/// the parked connection and completes promptly.
#[test]
fn shutdown_kills_a_stalled_stream() {
    let (_d, handle) = serve_seeded(60_000, |s| s);
    let addr = handle.local_addr();
    let schema = wide_schema();
    let mut stalled = start_stalled_scan(addr, &schema);
    std::thread::sleep(Duration::from_millis(100));

    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        tx.send(handle.shutdown()).unwrap();
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("shutdown hung on a stalled stream")
        .unwrap();

    // The stalled client's stream now ends (EOF or reset after the
    // already-buffered chunks) instead of hanging forever.
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut sink = [0u8; 64 << 10];
    loop {
        match stalled.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => continue,
        }
    }
}

/// The deadline wheel must classify a slow reader draining a scan as
/// *busy*, not idle: stalling longer than the read timeout mid-stream is
/// fine, while a genuinely idle connection still gets the typed timeout.
#[test]
fn slow_reader_is_busy_not_idle_under_read_timeout() {
    const ROWS: u64 = 60_000;
    let (_d, handle) = serve_seeded(ROWS, |s| {
        s.with_read_timeout(Some(Duration::from_millis(200)))
    });
    let addr = handle.local_addr();
    let schema = wide_schema();

    // Stall a stream for 5x the idle timeout, then resume: every row must
    // still arrive — a server that confused "client reads slowly" with
    // "client is idle" would have killed the connection.
    let mut stalled = start_stalled_scan(addr, &schema);
    std::thread::sleep(Duration::from_millis(1_000));
    let total = drain_scan(&mut stalled, &schema, first_batch_rows());
    assert_eq!(total, ROWS);

    // Meanwhile the timeout still has teeth for true idleness (the
    // regression the PR 7 suite pins; asserted here against *this*
    // server's wheel): an idle client's next call reports the typed
    // rollback error.
    let mut idle = Client::connect(addr).unwrap();
    idle.insert(wide_rec(9_000_000)).unwrap();
    std::thread::sleep(Duration::from_millis(700));
    let err = idle.commit().unwrap_err();
    assert!(matches!(err, DbError::Timeout { .. }), "{err}");

    handle.shutdown().unwrap();
}

/// The multiplexing soak: 64 idle connections held open while 4 hot
/// clients hammer disjoint branches and short-lived connections churn —
/// one event loop serves all of it, and every registration is released
/// afterwards (no fd leak).
#[test]
fn sixty_four_idle_plus_four_hot_with_churn() {
    const HOT: u64 = 4;
    const ROUNDS: u64 = 10;
    const PER_ROUND: u64 = 200;

    let dir = tempfile::tempdir().unwrap();
    let db = Database::create(
        dir.path().join("db"),
        EngineKind::Hybrid,
        Schema::new(2, ColumnType::U32),
        &StoreConfig::test_default(),
    )
    .unwrap();
    let handle = Server::bind(db, "127.0.0.1:0").unwrap().spawn();
    let addr = handle.local_addr();

    let mut setup = Client::connect(addr).unwrap();
    for h in 0..HOT {
        setup.checkout_branch("master").unwrap();
        setup.branch(&format!("hot-{h}")).unwrap();
    }

    let idle: Vec<Client> = (0..64).map(|_| Client::connect(addr).unwrap()).collect();

    let hot_threads: Vec<_> = (0..HOT)
        .map(|h| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.checkout_branch(&format!("hot-{h}")).unwrap();
                let mut written = 0u64;
                for round in 0..ROUNDS {
                    for i in 0..PER_ROUND {
                        let key = h * 1_000_000 + round * PER_ROUND + i;
                        c.insert(Record::new(key, vec![key, h])).unwrap();
                    }
                    c.commit().unwrap();
                    written += PER_ROUND;
                    // The streamed session scan sees exactly this branch's
                    // committed rows — isolation holds under full load.
                    assert_eq!(c.scan_collect().unwrap().len() as u64, written);
                }
                written
            })
        })
        .collect();

    // Connection churn while the hot clients run: every short-lived
    // connection does one real round trip so the accept → hello →
    // serve → disconnect path cycles under load.
    for i in 0..30u64 {
        let mut c = Client::connect(addr).unwrap();
        assert!(c.get(i).unwrap().is_none());
    }

    for t in hot_threads {
        assert_eq!(t.join().unwrap(), ROUNDS * PER_ROUND);
    }
    drop(idle);
    drop(setup);

    // Clean deregistration: every disconnect must release its slot. A
    // leak here is the EMFILE time bomb the gauge exists to catch.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let live = handle.live_connections();
        if live == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{live} connections still registered after every client dropped"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.shutdown().unwrap();
}

/// The auth gate over the public facade: the tokened constructor works
/// end to end, and an unauthenticated client is cut off with the typed
/// error before any request is served.
#[test]
fn auth_gate_over_the_facade() {
    let dir = tempfile::tempdir().unwrap();
    let db = Database::create(
        dir.path().join("db"),
        EngineKind::Hybrid,
        Schema::new(2, ColumnType::U32),
        &StoreConfig::test_default(),
    )
    .unwrap();
    let handle = Server::bind(db, "127.0.0.1:0")
        .unwrap()
        .with_auth_token(Some("s3cret".into()))
        .spawn();
    let addr = handle.local_addr();

    let mut ok = Client::connect_with_token(addr, "s3cret").unwrap();
    ok.insert(Record::new(1, vec![1, 1])).unwrap();
    ok.commit().unwrap();
    assert_eq!(ok.scan_collect().unwrap().len(), 1);

    let mut anon = Client::connect(addr).unwrap();
    let err = anon.scan_collect().unwrap_err();
    assert!(matches!(err, DbError::AuthFailed), "{err}");

    handle.shutdown().unwrap();
}

/// Remote streamed results must match the in-process query surface —
/// including the multi-branch scan, which streams through the chunked
/// annotated cursor whatever parallel hint the client sends.
#[test]
fn chunked_streams_match_in_process_results() {
    const ROWS: u64 = 30_000;
    let (_d, handle) = serve_seeded(ROWS, |s| s);
    let addr = handle.local_addr();
    let db = Arc::clone(handle.database());

    // Diverge the sibling branch so the multi-scan has real work.
    {
        let mut s = db.session();
        s.checkout_branch("other").unwrap();
        for k in 0..500u64 {
            s.insert(wide_rec(10_000_000 + k)).unwrap();
        }
        s.commit().unwrap();
    }

    let mut client = Client::connect(addr).unwrap();
    let remote = client
        .read(BranchId::MASTER)
        .filter(Predicate::KeyRange(1_000, 250_000))
        .collect()
        .unwrap();
    let local = db
        .read(BranchId::MASTER)
        .filter(Predicate::KeyRange(1_000, 250_000))
        .collect()
        .unwrap();
    assert_eq!(remote.len(), local.len());
    assert_eq!(remote, local, "streamed scan must match in-process order");

    let master = client.branch_id("master").unwrap();
    let other = client.checkout_branch("other").unwrap();
    let branches = [master, other];
    let sort = |mut rows: Vec<(Record, Vec<BranchId>)>| {
        rows.sort_by_key(|(r, _)| r.key());
        rows
    };
    let local = sort(db.read_branches(&branches).annotated().unwrap());
    // The parallel hint is accepted and ignored: both calls stream through
    // the chunked annotated cursor and must agree with in-process.
    for threads in [1usize, 2] {
        let remote = sort(
            client
                .read_branches(&branches)
                .parallel(threads)
                .annotated()
                .unwrap(),
        );
        assert_eq!(remote, local, "multi-scan parity at parallel={threads}");
    }

    handle.shutdown().unwrap();
}
