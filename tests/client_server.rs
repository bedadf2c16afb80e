//! Integration tests for the TCP surface: N concurrent remote clients
//! against a live in-process server on an ephemeral port — branch
//! isolation between clients, snapshot-consistent remote reads under a
//! committing remote writer, typed errors across the wire, remote
//! parity with the in-process query surface, and reconnect after a
//! server restart recovering from the shutdown checkpoint.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use decibel::common::ids::BranchId;
use decibel::common::record::Record;
use decibel::common::schema::{ColumnType, Schema};
use decibel::core::query::{AggKind, Predicate};
use decibel::core::{Database, EngineKind, MergePolicy};
use decibel::pagestore::StoreConfig;
use decibel::server::{Server, ServerHandle};
use decibel::{Client, DbError};

fn rec(k: u64) -> Record {
    Record::new(k, vec![k, k % 7])
}

fn serve(kind: EngineKind) -> (tempfile::TempDir, ServerHandle) {
    let dir = tempfile::tempdir().unwrap();
    let db = Database::create(
        dir.path().join("db"),
        kind,
        Schema::new(2, ColumnType::U32),
        &StoreConfig::test_default(),
    )
    .unwrap();
    let handle = Server::bind(db, "127.0.0.1:0").unwrap().spawn();
    (dir, handle)
}

/// Retries a remote op while the branch's exclusive lock is contended
/// (the lock manager blocks up to its timeout, then errors).
fn with_lock_retry<T>(mut f: impl FnMut() -> decibel::Result<T>) -> decibel::Result<T> {
    loop {
        match f() {
            Err(DbError::LockContention { .. }) => std::thread::yield_now(),
            other => return other,
        }
    }
}

/// N clients on N disjoint branches write and commit concurrently; every
/// branch ends with exactly its own keys, the base is shared, and no
/// client ever sees a sibling's private rows.
#[test]
fn concurrent_clients_on_disjoint_branches_are_isolated() {
    const CLIENTS: u64 = 4;
    const ROWS: u64 = 60;
    let (_d, handle) = serve(EngineKind::Hybrid);
    let addr = handle.local_addr();

    // Seed a shared base and the per-client branches through one client.
    let mut setup = Client::connect(addr).unwrap();
    for k in 0..10 {
        setup.insert(rec(k)).unwrap();
    }
    setup.commit().unwrap();
    for c in 0..CLIENTS {
        setup.checkout_branch("master").unwrap();
        setup.branch(&format!("worker{c}")).unwrap();
    }

    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || -> decibel::Result<u64> {
                let mut client = Client::connect(addr)?;
                let branch = client.checkout_branch(&format!("worker{c}"))?;
                // Private key space per client: base keys are 0..10.
                let base = 1000 * (c + 1);
                for i in 0..ROWS {
                    client.insert(rec(base + i))?;
                    if i % 20 == 19 {
                        client.commit()?;
                    }
                }
                client.commit()?;
                // The client sees base + its own rows, nobody else's.
                let mine = client.read(branch).count()?;
                assert_eq!(mine, 10 + ROWS);
                Ok(branch.raw() as u64)
            })
        })
        .collect();
    let branches: Vec<u64> = workers
        .into_iter()
        .map(|w| w.join().expect("worker thread").unwrap())
        .collect();

    // Cross-checks from a fresh client: isolation between siblings and an
    // untouched master.
    let mut check = Client::connect(addr).unwrap();
    assert_eq!(check.read(BranchId::MASTER).count().unwrap(), 10);
    for (i, &b) in branches.iter().enumerate() {
        let b = BranchId(b as u32);
        let own_base = 1000 * (i as u64 + 1);
        assert_eq!(
            check
                .read(b)
                .filter(Predicate::KeyRange(own_base, own_base + ROWS))
                .count()
                .unwrap(),
            ROWS
        );
        // A sibling's private range is invisible here.
        let sibling_base = 1000 * (((i + 1) % branches.len()) as u64 + 1);
        assert_eq!(
            check
                .read(b)
                .filter(Predicate::KeyRange(sibling_base, sibling_base + ROWS))
                .count()
                .unwrap(),
            0
        );
    }
    handle.shutdown().unwrap();
}

/// Remote readers scanning through the wire stay snapshot-consistent
/// while a remote writer commits fixed-size batches: every observed count
/// is a whole number of batches and counts are monotone per reader.
#[test]
fn remote_reads_are_snapshot_consistent_under_committing_writer() {
    const BATCH: u64 = 50;
    const COMMITS: u64 = 12;
    const READERS: usize = 3;
    let (_d, handle) = serve(EngineKind::Hybrid);
    let addr = handle.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let progress: Vec<Arc<AtomicU64>> = (0..READERS).map(|_| Arc::new(AtomicU64::new(0))).collect();

    let readers: Vec<_> = progress
        .iter()
        .map(|scans| {
            let stop = stop.clone();
            let scans = scans.clone();
            std::thread::spawn(move || -> decibel::Result<()> {
                let mut client = Client::connect(addr)?;
                let mut last = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Builder reads take no branch lock: no retry needed.
                    let n = client.read(BranchId::MASTER).count()?;
                    assert_eq!(n % BATCH, 0, "remote scan saw a partial commit");
                    assert!(n >= last, "a committed batch disappeared");
                    last = n;
                    scans.fetch_add(1, Ordering::Relaxed);
                }
                Ok(())
            })
        })
        .collect();

    let mut writer = Client::connect(addr).unwrap();
    for batch in 0..COMMITS {
        for i in 0..BATCH {
            with_lock_retry(|| writer.insert(rec(batch * BATCH + i))).unwrap();
        }
        writer.commit().unwrap();
    }
    while progress.iter().any(|s| s.load(Ordering::Relaxed) == 0) {
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    for reader in readers {
        reader.join().expect("reader thread").unwrap();
    }
    assert_eq!(
        writer.read(BranchId::MASTER).count().unwrap(),
        COMMITS * BATCH
    );
    handle.shutdown().unwrap();
}

/// The full session surface over the wire agrees with the in-process
/// surface reading the same database.
#[test]
fn remote_surface_matches_in_process_reads() {
    let (_d, handle) = serve(EngineKind::Hybrid);
    let db = Arc::clone(handle.database());
    let mut client = Client::connect(handle.local_addr()).unwrap();

    for k in 0..40u64 {
        client.insert(rec(k)).unwrap();
    }
    client.commit().unwrap();
    let dev = client.branch("dev").unwrap();
    client.update(Record::new(3, vec![999, 9])).unwrap();
    assert!(client.delete(4).unwrap());
    assert!(!client.delete(4444).unwrap());
    client.insert(rec(100)).unwrap();
    client.commit().unwrap();

    // Point lookups, filtered collects, aggregates, session scans.
    assert_eq!(client.get(3).unwrap().unwrap().field(0), 999);
    assert_eq!(client.get(4).unwrap(), None);
    let remote = client
        .read(dev)
        .filter(Predicate::ColGe(0, 500))
        .collect()
        .unwrap();
    let local = db
        .read(dev)
        .filter(Predicate::ColGe(0, 500))
        .collect()
        .unwrap();
    assert_eq!(remote, local);
    assert_eq!(
        client.read(dev).aggregate(0, AggKind::Max).unwrap(),
        db.read(dev).aggregate(0, AggKind::Max).unwrap()
    );
    let mut session_view = client.scan_collect().unwrap();
    session_view.sort_by_key(Record::key);
    let mut local_view = db.read(dev).collect().unwrap();
    local_view.sort_by_key(Record::key);
    assert_eq!(session_view, local_view);

    // Multi-branch annotated scan parity (the parallel hint is ignored).
    let branches = [BranchId::MASTER, dev];
    let remote = client
        .read_branches(&branches)
        .parallel(4)
        .annotated()
        .unwrap();
    let local = db.read_branches(&branches).parallel(4).annotated().unwrap();
    assert_eq!(remote, local);

    // Remote merge returns the same typed result the local call would.
    let master = client.branch_id("master").unwrap();
    let res = client
        .merge(master, dev, MergePolicy::ThreeWay { prefer_left: false })
        .unwrap();
    assert!(res.records_changed > 0);
    assert_eq!(
        db.read(BranchId::MASTER).collect().unwrap(),
        db.read(dev).collect().unwrap()
    );
    handle.shutdown().unwrap();
}

/// Error kinds survive the wire as typed variants, and transactional
/// session rules (txn-open checkout, read-only commit checkouts) apply
/// remotely.
#[test]
fn remote_errors_are_typed_and_session_rules_hold() {
    let (_d, handle) = serve(EngineKind::TupleFirstBranch);
    let addr = handle.local_addr();
    let mut client = Client::connect(addr).unwrap();

    client.insert(rec(1)).unwrap();
    let c1 = client.commit().unwrap();
    assert!(matches!(
        client.insert(rec(1)).unwrap_err(),
        DbError::DuplicateKey { key: 1 }
    ));
    client.rollback().unwrap();
    assert!(matches!(
        client.update(rec(999)).unwrap_err(),
        DbError::KeyNotFound { key: 999 }
    ));
    assert!(matches!(
        client.checkout_branch("missing").unwrap_err(),
        DbError::UnknownBranch(_)
    ));

    // Open transaction forbids checkout, remotely too.
    client.begin().unwrap();
    client.insert(rec(2)).unwrap();
    assert!(matches!(
        client.checkout_branch("master").unwrap_err(),
        DbError::TxnOpen { .. }
    ));
    client.rollback().unwrap();

    // Writes at a commit checkout are refused with the typed variant.
    client.checkout_commit(c1).unwrap();
    assert!(matches!(
        client.insert(rec(50)).unwrap_err(),
        DbError::ReadOnlyCheckout { .. }
    ));
    client.checkout_branch("master").unwrap();

    // Two clients contending for one branch surface LockContention.
    let mut rival = Client::connect(addr).unwrap();
    client.begin().unwrap();
    client.insert(rec(60)).unwrap();
    assert!(matches!(
        rival.insert(rec(61)).unwrap_err(),
        DbError::LockContention { .. }
    ));
    client.commit().unwrap();
    with_lock_retry(|| rival.insert(rec(61))).unwrap();
    rival.commit().unwrap();
    handle.shutdown().unwrap();
}

/// A client mid-transaction — and its disconnect-triggered rollback —
/// touches only its own branch's locks: a client on an *unrelated* branch
/// commits throughout without ever seeing `LockContention`, both while
/// the doomed transaction is open and while the server is rolling it
/// back. The dropped client's buffered writes are gone, and its branch is
/// immediately writable by a fresh connection.
#[test]
fn disconnect_rollback_never_blocks_unrelated_branches() {
    let (_d, handle) = serve(EngineKind::Hybrid);
    let addr = handle.local_addr();

    let mut setup = Client::connect(addr).unwrap();
    setup.insert(rec(1)).unwrap();
    setup.commit().unwrap();
    setup.branch("doomed").unwrap();
    setup.checkout_branch("master").unwrap();
    setup.branch("healthy").unwrap();
    drop(setup);

    // Doomed client: open transaction on its branch, never committed.
    let mut doomed = Client::connect(addr).unwrap();
    doomed.checkout_branch("doomed").unwrap();
    doomed.begin().unwrap();
    doomed.insert(rec(7_000)).unwrap(); // exclusive lock on "doomed"

    // Unrelated-branch client: every write and commit must succeed on the
    // first try — no retry loop, so any cross-branch blocking fails the
    // test as LockContention instead of hiding behind a spin.
    let mut healthy = Client::connect(addr).unwrap();
    let healthy_branch = healthy.checkout_branch("healthy").unwrap();
    for i in 0..20u64 {
        healthy.insert(rec(8_000 + i)).unwrap();
        healthy.commit().unwrap();
    }

    // Disconnect mid-transaction: the server rolls the session back while
    // the healthy client keeps committing.
    drop(doomed);
    for i in 20..40u64 {
        healthy.insert(rec(8_000 + i)).unwrap();
        healthy.commit().unwrap();
    }
    assert_eq!(healthy.read(healthy_branch).count().unwrap(), 41);

    // The rollback released "doomed"'s lock and discarded its buffer: a
    // fresh client writes the branch immediately (retry only because the
    // server may still be reaping the dropped connection).
    let mut revived = Client::connect(addr).unwrap();
    let doomed_branch = revived.checkout_branch("doomed").unwrap();
    assert_eq!(revived.get(7_000).unwrap(), None, "rolled back on drop");
    with_lock_retry(|| revived.insert(rec(7_001))).unwrap();
    revived.commit().unwrap();
    assert_eq!(revived.read(doomed_branch).count().unwrap(), 2);
    handle.shutdown().unwrap();
}

/// Stop the server (graceful shutdown = checkpoint), restart it on the
/// same directory, reconnect: every commit is there, and the reopen came
/// from the checkpoint (zero journal transactions replayed).
#[test]
fn reconnect_after_restart_recovers_via_checkpoint() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("db");
    let config = StoreConfig::test_default();
    let db = Database::create(
        &path,
        EngineKind::Hybrid,
        Schema::new(2, ColumnType::U32),
        &config,
    )
    .unwrap();
    let handle = Server::bind(db, "127.0.0.1:0").unwrap().spawn();

    let dev;
    {
        let mut client = Client::connect(handle.local_addr()).unwrap();
        for k in 0..30 {
            client.insert(rec(k)).unwrap();
        }
        client.commit().unwrap();
        dev = client.branch("dev").unwrap();
        client.insert(rec(500)).unwrap();
        client.commit().unwrap();
        // An uncommitted write must NOT survive the restart.
        client.insert(rec(900)).unwrap();
    }
    handle.shutdown().unwrap();

    // Restart on the same directory (new ephemeral port — a real restart).
    let db = Database::open(&path, &config).unwrap();
    assert_eq!(
        db.replayed_on_open(),
        0,
        "graceful shutdown checkpoint covers the whole history"
    );
    let handle = Server::bind(db, "127.0.0.1:0").unwrap().spawn();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    assert_eq!(client.read(BranchId::MASTER).count().unwrap(), 30);
    let dev_again = client.checkout_branch("dev").unwrap();
    assert_eq!(dev_again, dev, "branch ids are stable across restarts");
    assert_eq!(client.get(500).unwrap().unwrap().key(), 500);
    assert_eq!(client.get(900).unwrap(), None, "rolled back on disconnect");
    // The restarted server accepts new work.
    client.insert(rec(901)).unwrap();
    client.commit().unwrap();
    handle.shutdown().unwrap();
}

/// A client idle past the server's read timeout has its open transaction
/// rolled back (releasing the branch lock for other clients) and receives
/// a typed [`DbError::Timeout`] on its next interaction.
#[test]
fn idle_connection_times_out_typed_and_rolls_back() {
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
        .with_read_timeout(Some(std::time::Duration::from_millis(200)))
        .spawn();
    let addr = handle.local_addr();

    // Idle client: open a transaction (takes master's exclusive lock),
    // then stall past the timeout without committing.
    let mut idle = Client::connect(addr).unwrap();
    idle.begin().unwrap();
    idle.insert(rec(77)).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(700));

    // The server rolled the stalled transaction back: a fresh client
    // writes master immediately — no lock contention, no retry loop —
    // and the stalled insert is gone.
    let mut fresh = Client::connect(addr).unwrap();
    fresh.insert(rec(78)).unwrap();
    fresh.commit().unwrap();
    assert_eq!(fresh.get(77).unwrap(), None, "timed-out txn rolled back");

    // The idle client's next request surfaces the typed timeout error the
    // server queued before closing the connection.
    let err = idle.commit().unwrap_err();
    assert!(
        matches!(err, DbError::Timeout { .. }),
        "expected typed timeout, got {err:?}"
    );
    handle.shutdown().unwrap();
}

/// Remote projected scans: `.select()` on the client builder round-trips
/// through the wire — the server streams only the chosen columns, the
/// decoded rows equal a local full scan with [`Record::project`] applied,
/// and an unknown column comes back as a typed [`DbError::Invalid`]
/// without killing the connection.
#[test]
fn remote_projected_scans_round_trip_and_reject_unknown_columns() {
    const COLS: usize = 12;
    let wide = |k: u64| Record::new(k, (0..COLS as u64).map(|c| k * 10 + c).collect());

    let dir = tempfile::tempdir().unwrap();
    let db = Database::create(
        dir.path().join("db"),
        EngineKind::Hybrid,
        Schema::new(COLS, ColumnType::U32),
        &StoreConfig::test_default(),
    )
    .unwrap();
    let handle = Server::bind(db, "127.0.0.1:0").unwrap().spawn();
    let db = Arc::clone(handle.database());
    let mut client = Client::connect(handle.local_addr()).unwrap();

    for k in 0..200u64 {
        client.insert(wide(k)).unwrap();
    }
    client.commit().unwrap();
    let dev = client.branch("dev").unwrap();
    client.insert(wide(900)).unwrap();
    client.commit().unwrap();

    // Projected + filtered remote collect equals the local full decode
    // with the same filter, then `project` — the reference semantics.
    let pred = Predicate::ColMod(1, 3, 0);
    let remote = client
        .read(dev)
        .select(&[0, 5])
        .filter(pred.clone())
        .collect()
        .unwrap();
    let mut expected = db.read(dev).filter(pred.clone()).collect().unwrap();
    for r in &mut expected {
        r.project(&decibel::Projection::of(&[0, 5]));
    }
    assert_eq!(remote, expected);
    assert!(!remote.is_empty());
    // Non-selected columns arrive zeroed; selected ones survive.
    for r in &remote {
        assert_eq!(r.field(0), r.key() * 10);
        assert_eq!(r.field(5), r.key() * 10 + 5);
        assert_eq!(r.field(7), 0);
    }

    // Same through the multi-branch annotated path.
    let branches = [BranchId::MASTER, dev];
    let remote = client
        .read_branches(&branches)
        .select(&[2])
        .filter(pred.clone())
        .annotated()
        .unwrap();
    let mut expected = db
        .read_branches(&branches)
        .filter(pred)
        .annotated()
        .unwrap();
    for (r, _) in &mut expected {
        r.project(&decibel::Projection::of(&[2]));
    }
    assert_eq!(remote, expected);

    // Unknown column: typed error over the wire, connection stays up.
    let err = client.read(dev).select(&[COLS]).collect().unwrap_err();
    assert!(
        matches!(err, DbError::Invalid(_)),
        "expected typed Invalid, got {err:?}"
    );
    assert_eq!(client.read(dev).count().unwrap(), 201);
    handle.shutdown().unwrap();
}

/// The same client/server flow works for every engine kind.
#[test]
fn every_engine_serves() {
    for kind in EngineKind::all() {
        let (_d, handle) = serve(kind);
        let mut client = Client::connect(handle.local_addr()).unwrap();
        assert_eq!(client.engine(), kind.name());
        for k in 0..20 {
            client.insert(rec(k)).unwrap();
        }
        client.commit().unwrap();
        assert_eq!(
            client.read(BranchId::MASTER).count().unwrap(),
            20,
            "{kind:?}"
        );
        let rows = client.scan_collect().unwrap();
        assert_eq!(rows.len(), 20, "{kind:?}");
        handle.shutdown().unwrap();
    }
}
