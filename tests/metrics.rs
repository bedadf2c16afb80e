//! End-to-end observability suite: metric invariants under concurrency,
//! the `OP_STATS` wire round trip, unknown-opcode behavior against peers
//! that predate the stats opcode, and the append-only snapshot-schema
//! audit against the committed golden file (`BENCH_metrics_schema.txt`).

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use decibel::common::ids::BranchId;
use decibel::common::record::Record;
use decibel::common::schema::{ColumnType, Schema};
use decibel::common::DbError;
use decibel::core::{Database, EngineKind, VersionRef};
use decibel::obs::{family, Snapshot, Value};
use decibel::pagestore::StoreConfig;
use decibel::server::Server;
use decibel::wire::frame::{read_frame, write_frame};
use decibel::wire::proto::{Hello, Reply, Request, Response};
use decibel::Client;

const COLS: usize = 4;

fn rec(key: u64) -> Record {
    Record::new(key, (0..COLS as u64).map(|c| key ^ c).collect())
}

fn create_db(dir: &std::path::Path) -> Arc<Database> {
    Database::create(
        dir.join("db"),
        EngineKind::Hybrid,
        Schema::new(COLS, ColumnType::U32),
        &StoreConfig::test_default(),
    )
    .unwrap()
}

/// Buffer-pool lookup partition: every `get_page` call is exactly one hit
/// or one miss, so two identical scans — one cold, one warm — must report
/// the same hit+miss total, with the warm one all hits.
#[test]
fn pool_hits_plus_misses_equals_lookups() {
    let dir = tempfile::tempdir().unwrap();
    let db = create_db(dir.path());
    let mut session = db.session();
    for k in 0..1_000u64 {
        session.insert(rec(k)).unwrap();
    }
    session.commit().unwrap();
    drop(session);
    db.with_store(|store| store.drop_caches());

    let lookups = |snap: &Snapshot| snap.counter("pool", "hits") + snap.counter("pool", "misses");
    let s0 = db.metrics().snapshot();
    assert_eq!(
        db.read(BranchId::MASTER).collect().unwrap().len(),
        1_000,
        "cold scan sees every row"
    );
    let s1 = db.metrics().snapshot();
    assert_eq!(db.read(BranchId::MASTER).collect().unwrap().len(), 1_000);
    let s2 = db.metrics().snapshot();

    let cold = lookups(&s1) - lookups(&s0);
    let warm = lookups(&s2) - lookups(&s1);
    assert!(cold > 0, "a scan performs page lookups");
    assert_eq!(cold, warm, "identical scans perform identical lookups");
    assert_eq!(
        s2.counter("pool", "misses"),
        s1.counter("pool", "misses"),
        "the warm scan must not miss (dataset fits the pool)"
    );
    assert_eq!(
        s2.counter("pool", "hits") - s1.counter("pool", "hits"),
        warm,
        "every warm lookup is a hit"
    );
}

/// Snapshots taken while commits, scans, and checkpoints race must be
/// internally consistent: counters monotonic across successive snapshots,
/// and every snapshot encodes/decodes to itself (no torn multi-field
/// reads that survive the wire codec).
#[test]
fn snapshot_is_torn_read_safe_under_concurrency() {
    let dir = tempfile::tempdir().unwrap();
    let db = create_db(dir.path());
    for w in 0..2u64 {
        db.create_branch(&format!("w{w}"), VersionRef::Branch(BranchId::MASTER))
            .unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for w in 0..2u64 {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut session = db.session();
            session.checkout_branch(&format!("w{w}")).unwrap();
            let mut k = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for _ in 0..5 {
                    session.insert(rec(1_000_000 * (w + 1) + k)).unwrap();
                    k += 1;
                }
                session.commit().unwrap();
            }
        }));
    }
    {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                db.read(BranchId::MASTER).count().unwrap();
            }
        }));
    }
    {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                db.flush().unwrap();
                std::thread::sleep(Duration::from_millis(5));
            }
        }));
    }

    let deadline = Instant::now() + Duration::from_millis(300);
    let mut prev = db.metrics().snapshot();
    while Instant::now() < deadline {
        let snap = db.metrics().snapshot();
        for entry in snap.entries() {
            if let Value::Counter(v) = &entry.value {
                let before = prev.counter(&entry.family, &entry.name);
                assert!(
                    *v >= before,
                    "counter {}/{} went backwards: {before} -> {v}",
                    entry.family,
                    entry.name
                );
            }
        }
        let decoded = Snapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap, "snapshot must survive its own codec");
        prev = snap;
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
}

/// `.parallel(n)` is accepted and ignored: a parallel multi-branch read
/// takes the planned, streaming path both in process and over the wire —
/// one `scan/plans_pushdown`, no `scan/plans_full_decode` — and returns
/// exactly the rows of the sequential call.
#[test]
fn parallel_hint_takes_the_planned_path_locally_and_remotely() {
    let dir = tempfile::tempdir().unwrap();
    let db = create_db(dir.path());
    let mut session = db.session();
    for k in 0..200u64 {
        session.insert(rec(k)).unwrap();
    }
    session.commit().unwrap();
    let dev = session.branch("dev").unwrap();
    for k in 200..250u64 {
        session.insert(rec(k)).unwrap();
    }
    session.update(Record::new(7, vec![70; COLS])).unwrap();
    session.commit().unwrap();
    drop(session);
    let branches = [BranchId::MASTER, dev];
    let plans = |snap: &Snapshot| {
        (
            snap.counter("scan", "plans_pushdown"),
            snap.counter("scan", "plans_full_decode"),
        )
    };
    let delta = |before: (u64, u64), after: (u64, u64)| (after.0 - before.0, after.1 - before.1);

    let seq = db.read_branches(&branches).annotated().unwrap();
    assert_eq!(
        seq.len(),
        251,
        "200 shared rows + 50 dev inserts + dev's copy of key 7"
    );
    let before = plans(&db.metrics().snapshot());
    let local = db.read_branches(&branches).parallel(4).annotated().unwrap();
    let after = plans(&db.metrics().snapshot());
    assert_eq!(local, seq);
    assert_eq!(
        delta(before, after),
        (1, 0),
        "local (pushdown, full decode)"
    );

    let handle = Server::bind(Arc::clone(&db), "127.0.0.1:0")
        .unwrap()
        .spawn();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let before = plans(&client.stats().unwrap());
    let remote = client
        .read_branches(&branches)
        .parallel(4)
        .annotated()
        .unwrap();
    let after = plans(&client.stats().unwrap());
    assert_eq!(remote, seq);
    assert_eq!(
        delta(before, after),
        (1, 0),
        "remote (pushdown, full decode)"
    );
    drop(client);
    handle.shutdown().unwrap();
}

/// The acceptance-criteria round trip: drive known traffic through a real
/// server and assert the remote snapshot covers all six families with
/// counts matching that traffic.
#[test]
fn op_stats_round_trip_covers_all_six_families() {
    let dir = tempfile::tempdir().unwrap();
    let db = create_db(dir.path());
    let handle = Server::bind(db, "127.0.0.1:0").unwrap().spawn();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    for k in 0..20u64 {
        client.insert(rec(k)).unwrap();
    }
    client.commit().unwrap();
    assert_eq!(client.scan_collect().unwrap().len(), 20);
    client.flush().unwrap();
    let snap = client.stats().unwrap();

    let families = snap.families();
    for fam in family::ALL {
        assert!(
            families.contains(&fam),
            "family {fam:?} missing: {families:?}"
        );
    }
    // Known traffic, known counts.
    assert_eq!(snap.counter("commit", "grouped_txns"), 1, "one commit");
    assert_eq!(snap.counter("checkpoint", "checkpoints"), 1, "one flush");
    assert!(snap.counter("wal", "flushes") >= 1, "the commit flushed");
    assert!(snap.counter("scan", "rows_scanned") >= 20);
    assert!(snap.counter("scan", "rows_emitted") >= 20);
    assert!(snap.counter("scan", "queries") >= 1);
    assert!(
        snap.counter("pool", "heap_appends") >= 1,
        "committed rows reached the heap"
    );
    assert_eq!(snap.counter("server", "conns_total"), 1);
    // 20 inserts + commit + scan + flush + stats itself.
    assert!(snap.counter("server", "requests") >= 24);
    assert!(snap.histogram("commit", "commit_us").unwrap().count >= 1);
    handle.shutdown().unwrap();
}

/// What a stats probe sees against a peer that predates `OP_STATS`: the
/// decode-failure path answers an unknown opcode with a typed protocol
/// error frame and keeps the connection alive — so probing is safe, not
/// fatal. Exercised by sending an opcode this version doesn't know either.
#[test]
fn unknown_opcode_is_a_typed_error_and_the_connection_survives() {
    let dir = tempfile::tempdir().unwrap();
    let db = create_db(dir.path());
    let schema = db.schema();
    let handle = Server::bind(db, "127.0.0.1:0").unwrap().spawn();

    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    let hello = read_frame(&mut stream).unwrap().unwrap();
    Hello::decode(&hello).unwrap();

    // A frame whose opcode no protocol version defines.
    let mut buf = Vec::new();
    write_frame(&mut buf, &[200u8]).unwrap();
    stream.write_all(&buf).unwrap();
    let frame = read_frame(&mut stream).unwrap().unwrap();
    match Response::decode(&frame, &schema).unwrap() {
        Response::Err(err) => {
            assert!(matches!(err, DbError::Protocol { .. }), "{err}");
        }
        other => panic!("expected a typed error, got {other:?}"),
    }

    // The connection still serves real requests afterwards.
    let mut buf = Vec::new();
    write_frame(&mut buf, &Request::Get { key: 1 }.encode(&schema).unwrap()).unwrap();
    stream.write_all(&buf).unwrap();
    let frame = read_frame(&mut stream).unwrap().unwrap();
    assert!(matches!(
        Response::decode(&frame, &schema).unwrap(),
        Response::Ok(Reply::MaybeRecord(None))
    ));
    drop(stream);
    handle.shutdown().unwrap();
}

/// The CI schema audit: every `(family, metric, kind)` triple in the
/// committed golden file must still exist in a full-stack registry — the
/// schema is append-only, so dashboards built on one release keep working
/// on the next. Regenerate the golden (after intentionally *adding*
/// metrics) with `DECIBEL_WRITE_METRICS_SCHEMA=1 cargo test --test
/// metrics snapshot_schema`.
#[test]
fn snapshot_schema_is_append_only_vs_golden() {
    let dir = tempfile::tempdir().unwrap();
    let db = create_db(dir.path());
    let handle = Server::bind(db, "127.0.0.1:0").unwrap().spawn();
    // Every instrument registers at construction, so a freshly spawned
    // stack already exposes the full schema.
    let schema = handle.metrics().schema();
    handle.shutdown().unwrap();

    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_metrics_schema.txt");
    let rendered: String = schema
        .iter()
        .map(|(family, name, kind)| format!("{family} {name} {kind}\n"))
        .collect();
    if std::env::var_os("DECIBEL_WRITE_METRICS_SCHEMA").is_some() {
        std::fs::write(&golden_path, rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("BENCH_metrics_schema.txt missing; regenerate with DECIBEL_WRITE_METRICS_SCHEMA=1");
    for line in golden.lines().filter(|l| !l.trim().is_empty()) {
        let mut parts = line.split_whitespace();
        let (family, name, kind) = (
            parts.next().unwrap().to_string(),
            parts.next().unwrap().to_string(),
            parts.next().unwrap(),
        );
        assert!(
            schema
                .iter()
                .any(|(f, n, k)| *f == family && *n == name && *k == kind),
            "metric {family}/{name} ({kind}) disappeared or changed kind; \
             the snapshot schema is append-only"
        );
    }
}
