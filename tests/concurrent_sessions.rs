//! Concurrency and recovery properties of the connection-oriented API:
//! many `Send` sessions over one `Arc<Database>`, reads running in
//! parallel under the store's shared lock, snapshot-consistent scans
//! against a committing writer, lock release on session drop, and
//! `Database::open` replaying the journal after a crash.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use decibel::common::ids::BranchId;
use decibel::common::record::Record;
use decibel::common::schema::{ColumnType, Schema};
use decibel::core::{Database, EngineKind, VersionRef};
use decibel::pagestore::StoreConfig;
use decibel::DbError;

const BATCH: u64 = 50;

fn create(kind: EngineKind) -> (tempfile::TempDir, Arc<Database>) {
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

/// High-water mark of commits concurrently inside their shard critical
/// sections: the max of the `commit/in_flight` gauge.
fn max_concurrent_commits(db: &Database) -> u64 {
    db.metrics().snapshot().gauge("commit", "in_flight").1
}

fn rec(k: u64) -> Record {
    Record::new(k, vec![k, k % 7])
}

/// Scans the session's view, retrying while a writer holds the branch's
/// exclusive lock.
fn scan_len(db: &Arc<Database>) -> decibel::Result<u64> {
    loop {
        let mut session = db.session();
        match session.scan_with(|_| {}) {
            Ok(n) => return Ok(n),
            Err(DbError::LockContention { .. }) => std::thread::yield_now(),
            Err(e) => return Err(e),
        }
    }
}

/// N reader threads scan continuously while a writer commits fixed-size
/// batches. Every observed count must be a whole number of batches (no
/// reader ever sees a partially applied commit) and counts must be
/// monotone per reader (commits become visible atomically and stay
/// visible). The test also implicitly asserts no deadlock: it finishes.
#[test]
fn readers_stay_snapshot_consistent_against_committing_writer() {
    const READERS: usize = 4;
    const COMMITS: u64 = 20;
    let (_d, db) = create(EngineKind::Hybrid);
    let stop = Arc::new(AtomicBool::new(false));
    let progress: Vec<Arc<AtomicU64>> = (0..READERS).map(|_| Arc::new(AtomicU64::new(0))).collect();

    let readers: Vec<_> = progress
        .iter()
        .map(|scans| {
            let db = db.clone();
            let stop = stop.clone();
            let scans = scans.clone();
            std::thread::spawn(move || -> decibel::Result<()> {
                let mut last = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let n = scan_len(&db)?;
                    assert_eq!(n % BATCH, 0, "scan saw a partially applied commit");
                    assert!(n >= last, "a committed batch disappeared");
                    last = n;
                    scans.fetch_add(1, Ordering::Relaxed);
                }
                Ok(())
            })
        })
        .collect();

    let mut writer = db.session();
    for batch in 0..COMMITS {
        for i in 0..BATCH {
            loop {
                match writer.insert(rec(batch * BATCH + i)) {
                    Ok(()) => break,
                    Err(DbError::LockContention { .. }) => std::thread::yield_now(),
                    Err(e) => panic!("writer failed: {e}"),
                }
            }
        }
        writer.commit().unwrap();
    }
    // Writing is done; wait until every reader has observed the store at
    // least once (on a single core a reader may not have been scheduled
    // yet) so the consistency assertions actually ran, then stop them.
    while progress.iter().any(|s| s.load(Ordering::Relaxed) == 0) {
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    for reader in readers {
        reader.join().expect("reader thread").unwrap();
    }
    assert_eq!(
        db.read(VersionRef::Branch(BranchId::MASTER))
            .count()
            .unwrap(),
        COMMITS * BATCH
    );
}

/// Concurrent read-only sessions over disjoint and overlapping branch sets
/// all agree with a post-hoc sequential scan: reads under the shared lock
/// are real reads, not stale snapshots.
#[test]
fn parallel_session_scans_agree() {
    let (_d, db) = create(EngineKind::Hybrid);
    let mut setup = db.session();
    for k in 0..500u64 {
        setup.insert(rec(k)).unwrap();
    }
    setup.commit().unwrap();
    let dev = setup.branch("dev").unwrap();
    setup.insert(rec(1_000)).unwrap();
    setup.commit().unwrap();

    let handles: Vec<_> = (0..6)
        .map(|i| {
            let db = db.clone();
            std::thread::spawn(move || -> decibel::Result<(u64, u64)> {
                let mut session = db.session();
                if i % 2 == 0 {
                    session.checkout_branch("dev")?;
                }
                let count = session.scan_with(|_| {})?;
                let annotated = db
                    .read_branches(&[BranchId::MASTER, dev])
                    .parallel(4)
                    .count()?;
                Ok((count, annotated))
            })
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        let (count, annotated) = h.join().expect("scan thread").unwrap();
        let expected = if i % 2 == 0 { 501 } else { 500 };
        assert_eq!(count, expected);
        assert_eq!(annotated, 501, "500 shared rows + 1 dev-only row");
    }
}

/// Direct, scheduler-independent proof that reads are parallel: two
/// sessions rendezvous on a barrier *while both are inside* shared store
/// access. Behind the old store mutex this test would deadlock (the
/// second reader could never enter until the first left); under the
/// reader-writer lock both are inside at once.
#[test]
fn shared_read_lock_admits_simultaneous_readers() {
    let (_d, db) = create(EngineKind::Hybrid);
    let mut setup = db.session();
    for k in 0..100u64 {
        setup.insert(rec(k)).unwrap();
    }
    setup.commit().unwrap();

    let rendezvous = Arc::new(std::sync::Barrier::new(2));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let db = db.clone();
            let rendezvous = rendezvous.clone();
            std::thread::spawn(move || {
                db.with_store(|store| {
                    // Both threads hold the shared lock here at once.
                    rendezvous.wait();
                    store
                        .live_count(VersionRef::Branch(BranchId::MASTER))
                        .unwrap()
                })
            })
        })
        .collect();
    for reader in readers {
        assert_eq!(reader.join().expect("parallel reader"), 100);
    }
}

/// A session dropped mid-transaction (even on another thread) releases its
/// branch locks; the next writer proceeds immediately and the aborted
/// transaction's writes are gone.
#[test]
fn session_drop_releases_locks_across_threads() {
    let (_d, db) = create(EngineKind::TupleFirstBranch);
    {
        let db = db.clone();
        std::thread::spawn(move || {
            let mut doomed = db.session();
            doomed.insert(rec(1)).unwrap(); // exclusive lock on master
                                            // dropped without commit when the thread exits
        })
        .join()
        .expect("doomed writer thread");
    }
    let mut writer = db.session();
    writer.insert(rec(1)).unwrap(); // lock free, key never existed
    writer.commit().unwrap();
    assert_eq!(db.read(BranchId::MASTER).count().unwrap(), 1);
}

/// The crash-recovery contract, for every engine kind: commit through a
/// session, drop every handle without flushing, reopen the directory —
/// journal replay restores the rows.
#[test]
fn open_recovers_unflushed_commits() {
    for kind in EngineKind::all() {
        let dir = tempfile::tempdir().unwrap();
        let config = StoreConfig::test_default();
        {
            let db = Database::create(
                dir.path().join("db"),
                kind,
                Schema::new(2, ColumnType::U32),
                &config,
            )
            .unwrap();
            let mut session = db.session();
            for k in 0..40u64 {
                session.insert(rec(k)).unwrap();
            }
            session.commit().unwrap();
            session.delete(7).unwrap();
            session.update(Record::new(8, vec![888, 8])).unwrap();
            session.commit().unwrap();
            // No flush: the heap tails and version graph never hit disk.
        }
        let db = Database::open(dir.path().join("db"), &config).unwrap();
        assert_eq!(
            db.read(BranchId::MASTER).count().unwrap(),
            39,
            "engine {kind:?}"
        );
        let mut session = db.session();
        assert!(session.get(7).unwrap().is_none(), "engine {kind:?}");
        assert_eq!(
            session.get(8).unwrap().unwrap().field(0),
            888,
            "engine {kind:?}"
        );
    }
}

/// The checkpointed variant of the crash-recovery contract, for every
/// engine kind: flush (checkpoint) mid-history, commit more work, crash.
/// Reopen must replay only the post-checkpoint suffix — asserted via the
/// replay counter — and still see both halves; a flush-then-crash cycle
/// replays nothing at all. (The full crash matrix lives in
/// `tests/recovery.rs`.)
#[test]
fn open_after_checkpoint_replays_only_the_suffix() {
    for kind in EngineKind::all() {
        let dir = tempfile::tempdir().unwrap();
        let config = StoreConfig::test_default();
        {
            let db = Database::create(
                dir.path().join("db"),
                kind,
                Schema::new(2, ColumnType::U32),
                &config,
            )
            .unwrap();
            let mut session = db.session();
            for batch in 0..5u64 {
                for k in 0..10 {
                    session.insert(rec(batch * 10 + k)).unwrap();
                }
                session.commit().unwrap();
            }
            drop(session);
            db.flush().unwrap(); // checkpoint: 5 txns covered
            let mut session = db.session();
            session.insert(rec(1_000)).unwrap();
            session.commit().unwrap();
            // Crash: the last commit lives only in the journal suffix.
        }
        let db = Database::open(dir.path().join("db"), &config).unwrap();
        assert_eq!(db.replayed_on_open(), 1, "engine {kind:?}");
        assert_eq!(
            db.read(BranchId::MASTER).count().unwrap(),
            51,
            "engine {kind:?}"
        );
        db.flush().unwrap();
        drop(db);
        let db = Database::open(dir.path().join("db"), &config).unwrap();
        assert_eq!(
            db.replayed_on_open(),
            0,
            "engine {kind:?}: a fresh checkpoint covers everything"
        );
        assert_eq!(
            db.read(BranchId::MASTER).count().unwrap(),
            51,
            "engine {kind:?}"
        );
    }
}

/// The sharded commit path, positively: commits to *disjoint* branches
/// are inside their commit critical sections simultaneously. Four writer
/// threads rendezvous on a barrier each round and then commit to four
/// different branches; the database's commit gauge (the max of
/// `commit/in_flight`, [`max_concurrent_commits`]) records the high-water
/// mark of commits concurrently past the shard lock. Behind the old
/// store-exclusive commit section that gauge could never exceed 1.
#[test]
fn disjoint_branch_commits_overlap_in_their_critical_sections() {
    const WRITERS: usize = 4;
    const OPS_PER_COMMIT: u64 = 400;
    const MAX_ROUNDS: u64 = 50;
    let (_d, db) = create(EngineKind::Hybrid);
    let mut setup = db.session();
    setup.insert(rec(0)).unwrap();
    setup.commit().unwrap();
    for w in 0..WRITERS {
        db.create_branch(&format!("w{w}"), VersionRef::Branch(BranchId::MASTER))
            .unwrap();
    }
    drop(setup);

    let go = Arc::new(std::sync::Barrier::new(WRITERS));
    let overlapped = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let db = db.clone();
            let go = go.clone();
            let overlapped = overlapped.clone();
            std::thread::spawn(move || {
                let mut session = db.session();
                session.checkout_branch(&format!("w{w}")).unwrap();
                for round in 0..MAX_ROUNDS {
                    go.wait();
                    // Decision window: the flag is only ever stored in the
                    // commit phase below, which is gated behind the second
                    // barrier — so no writer can update it while another
                    // is still deciding, and all four break together.
                    if overlapped.load(Ordering::Relaxed) {
                        break;
                    }
                    // All writers release together, every round: each
                    // commit's apply + prepare section is hundreds of ops
                    // long, so the sections overlap unless something
                    // serializes them.
                    go.wait();
                    let base = 10_000 + (w as u64) * 1_000_000 + round * 1_000;
                    for i in 0..OPS_PER_COMMIT {
                        session.insert(rec(base + i)).unwrap();
                    }
                    session.commit().unwrap();
                    if max_concurrent_commits(&db) >= 2 {
                        overlapped.store(true, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    for w in writers {
        w.join().expect("disjoint writer");
    }
    let max = max_concurrent_commits(&db);
    assert!(
        max >= 2,
        "disjoint-branch commits never overlapped: max in flight {max}"
    );
    // The overlapping commits still produced consistent branches.
    for w in 0..WRITERS {
        let id = db.branch_id(&format!("w{w}")).unwrap();
        let n = db.read(VersionRef::Branch(id)).count().unwrap();
        assert_eq!((n - 1) % OPS_PER_COMMIT, 0, "branch w{w} tore a commit");
        assert!(n > 1, "branch w{w} committed nothing");
    }
}

/// The sharded commit path, negatively: commits to the *same* branch still
/// serialize. Writers contend on one branch; the commit gauge must never
/// see two of them inside the critical section at once (the 2PL branch
/// lock and the shard lock both force this).
#[test]
fn same_branch_commits_still_serialize() {
    const WRITERS: usize = 4;
    const COMMITS_EACH: u64 = 25;
    let (_d, db) = create(EngineKind::Hybrid);
    let writers: Vec<_> = (0..WRITERS as u64)
        .map(|w| {
            let db = db.clone();
            std::thread::spawn(move || {
                let mut session = db.session();
                for i in 0..COMMITS_EACH {
                    let key = w * COMMITS_EACH + i;
                    loop {
                        match session.insert(rec(key)) {
                            Ok(()) => break,
                            Err(DbError::LockContention { .. }) => std::thread::yield_now(),
                            Err(e) => panic!("writer failed: {e}"),
                        }
                    }
                    session.commit().unwrap();
                }
            })
        })
        .collect();
    for w in writers {
        w.join().expect("same-branch writer");
    }
    let max = max_concurrent_commits(&db);
    assert_eq!(
        max, 1,
        "same-branch commits overlapped: max in flight {max}"
    );
    assert_eq!(
        db.read(BranchId::MASTER).count().unwrap(),
        WRITERS as u64 * COMMITS_EACH
    );
}

/// `Database::flush` under concurrent committers: the checkpoint quiesces
/// every commit shard (store-exclusive plus the fixed-order shard sweep),
/// so it must neither deadlock against in-flight commits nor tear the id
/// watermark. Writers hammer disjoint branches while the main thread
/// flushes repeatedly; afterwards a reopen must replay only the
/// post-checkpoint suffix and see every committed row.
#[test]
fn flush_quiesces_concurrent_commits_without_deadlock() {
    const WRITERS: usize = 3;
    const COMMITS_EACH: u64 = 30;
    let dir = tempfile::tempdir().unwrap();
    let config = StoreConfig::test_default();
    let db = Database::create(
        dir.path().join("db"),
        EngineKind::Hybrid,
        Schema::new(2, ColumnType::U32),
        &config,
    )
    .unwrap();
    for w in 0..WRITERS {
        db.create_branch(&format!("w{w}"), VersionRef::Branch(BranchId::MASTER))
            .unwrap();
    }

    // Writers and the flusher leave the barrier together, so the first
    // flush is under way before any writer can have finished.
    let start = Arc::new(std::sync::Barrier::new(WRITERS + 1));
    let writers: Vec<_> = (0..WRITERS as u64)
        .map(|w| {
            let db = db.clone();
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut session = db.session();
                session.checkout_branch(&format!("w{w}")).unwrap();
                start.wait();
                for i in 0..COMMITS_EACH {
                    session.insert(rec(w * 1_000_000 + i)).unwrap();
                    session.commit().unwrap();
                }
            })
        })
        .collect();
    // Checkpoint continuously while the writers commit.
    start.wait();
    loop {
        db.flush().unwrap();
        if writers.iter().all(|w| w.is_finished()) {
            break;
        }
        std::thread::yield_now();
    }
    for w in writers {
        w.join().expect("writer under flush");
    }
    db.flush().unwrap();
    drop(db);

    let db = Database::open(dir.path().join("db"), &config).unwrap();
    assert_eq!(
        db.replayed_on_open(),
        0,
        "final flush checkpointed everything"
    );
    for w in 0..WRITERS as u64 {
        let id = db.branch_id(&format!("w{w}")).unwrap();
        assert_eq!(
            db.read(VersionRef::Branch(id)).count().unwrap(),
            COMMITS_EACH
        );
    }
}

/// Recovery preserves branch topology and commit ids, and a recovered
/// database keeps accepting (and re-recovering) new work — reopen twice.
#[test]
fn open_recovers_branches_and_survives_a_second_crash() {
    let dir = tempfile::tempdir().unwrap();
    let config = StoreConfig::test_default();
    let (dev, pinned) = {
        let db = Database::create(
            dir.path().join("db"),
            EngineKind::Hybrid,
            Schema::new(2, ColumnType::U32),
            &config,
        )
        .unwrap();
        let mut session = db.session();
        for k in 0..10u64 {
            session.insert(rec(k)).unwrap();
        }
        let pinned = session.commit().unwrap();
        let dev = session.branch("dev").unwrap();
        session.insert(rec(100)).unwrap();
        session.commit().unwrap();
        (dev, pinned)
    };
    // First crash + reopen.
    let count_after_first = {
        let db = Database::open(dir.path().join("db"), &config).unwrap();
        assert_eq!(db.branch_id("dev").unwrap(), dev);
        assert_eq!(db.read(VersionRef::Branch(dev)).count().unwrap(), 11);
        assert_eq!(db.read(VersionRef::Commit(pinned)).count().unwrap(), 10);
        // New work on the recovered database…
        let mut session = db.session();
        session.checkout_branch("dev").unwrap();
        session.insert(rec(101)).unwrap();
        session.commit().unwrap();
        db.read(VersionRef::Branch(dev)).count().unwrap()
        // …and crash again (no flush).
    };
    // Second reopen sees both the original and the post-recovery work.
    let db = Database::open(dir.path().join("db"), &config).unwrap();
    assert_eq!(
        db.read(VersionRef::Branch(dev)).count().unwrap(),
        count_after_first
    );
    assert_eq!(
        db.read(VersionRef::Branch(BranchId::MASTER))
            .count()
            .unwrap(),
        10
    );
}
