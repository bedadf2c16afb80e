//! The checkpoint crash matrix.
//!
//! `Database::flush` is a checkpoint with a strict crash ordering:
//! **state** (engine files flushed) → **watermark** (`CHECKPOINT` renamed
//! into place) → **truncate** (WAL emptied). This suite reconstructs the
//! directory a crash would leave between each pair of steps — for every
//! engine kind — and asserts that `Database::open` recovers every cell to
//! the same database: identical per-branch contents, identical historical
//! checkouts, and an identical id sequence for the next transaction
//! (replay determinism).
//!
//! The cells are built from byte-level snapshots of the WAL and the
//! `CHECKPOINT` file taken while the history is generated, then spliced
//! into copies of the final directory:
//!
//! * **after truncate** — the directory as a clean crash leaves it
//!   (checkpoint `cp1`, WAL holding only the post-`cp1` suffix);
//! * **after watermark, before truncate** — `cp1` installed but the WAL
//!   still holding transactions the watermark covers (replay must skip
//!   them by id);
//! * **after state, before watermark** — engine files flushed beyond the
//!   installed checkpoint `cp0` (open must trim every file back to `cp0`
//!   coverage and regenerate the difference from the log);
//! * **no checkpoint** — cold fallback: full-history replay into a cleared
//!   data directory.

use std::path::Path;
use std::sync::Arc;

use decibel::common::ids::BranchId;
use decibel::common::record::Record;
use decibel::common::schema::{ColumnType, Schema};
use decibel::core::{Database, EngineKind, MergePolicy, VersionRef};
use decibel::pagestore::StoreConfig;

fn rec(k: u64, tag: u64) -> Record {
    Record::new(k, vec![tag, k % 13])
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap()
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
}

/// A deterministic text digest of everything recovery must reproduce:
/// commit/branch topology, per-branch live rows, and the checkout of a
/// pinned historical commit.
fn fingerprint(db: &Arc<Database>, pinned: decibel::common::ids::CommitId) -> String {
    let mut out = db.with_store(|s| {
        let g = s.graph();
        let mut head = format!(
            "commits={} branches={}\n",
            g.num_commits(),
            g.num_branches()
        );
        let mut branches: Vec<_> = g
            .iter_branches()
            .map(|b| (b.id, b.name.clone(), b.head))
            .collect();
        branches.sort_by_key(|(id, _, _)| *id);
        for (id, name, head_commit) in branches {
            head += &format!("{name}[{}] head={}\n", id.raw(), head_commit.raw());
        }
        head
    });
    let mut branch_ids: Vec<BranchId> =
        db.with_store(|s| s.graph().iter_branches().map(|b| b.id).collect());
    branch_ids.sort();
    for b in branch_ids {
        let mut rows: Vec<(u64, u64)> = db
            .read(VersionRef::Branch(b))
            .collect()
            .unwrap()
            .into_iter()
            .map(|r| (r.key(), r.field(0)))
            .collect();
        rows.sort_unstable();
        out += &format!("rows[{}]={rows:?}\n", b.raw());
    }
    out += &format!(
        "pinned={}\n",
        db.read(VersionRef::Commit(pinned)).count().unwrap()
    );
    out
}

/// After reopening a cell, run one more identical round of work and digest
/// the ids it produced — a stale or duplicated replay shifts the dense
/// branch/commit id sequence and fails this probe.
fn id_probe(db: &Arc<Database>) -> String {
    let mut s = db.session();
    s.insert(rec(9_000, 9)).unwrap();
    let commit = s.commit().unwrap();
    let probe = s.branch("probe").unwrap();
    format!(
        "commit={} branch={} total={}",
        commit.raw(),
        probe.raw(),
        db.with_store(|st| st.graph().num_commits())
    )
}

struct Matrix {
    /// Directory in its crash-after-truncate (normal) shape.
    dir: tempfile::TempDir,
    db_path: std::path::PathBuf,
    /// WAL bytes for each history slice (the log is truncated at each
    /// checkpoint, so the slices concatenate into any crash shape).
    wal_a: Vec<u8>,
    wal_a1: Vec<u8>,
    wal_b: Vec<u8>,
    /// The first (superseded) checkpoint's bytes.
    cp0: Vec<u8>,
    /// Transaction counts of the A1 and B slices.
    a1_txns: u64,
    b_txns: u64,
    pinned: decibel::common::ids::CommitId,
}

/// Builds the reference history: txns A → checkpoint `cp0` → txns A1 →
/// (reopen from `cp0`) → checkpoint `cp1` → txns B → clean close.
fn build(kind: EngineKind, config: &StoreConfig) -> Matrix {
    let dir = tempfile::tempdir().unwrap();
    let db_path = dir.path().join("db");
    let wal = db_path.join("wal.log");
    let cp = db_path.join("CHECKPOINT");

    // Phase A: branchy history with a merge, then the first checkpoint.
    let pinned = {
        let db = Database::create(&db_path, kind, Schema::new(2, ColumnType::U32), config).unwrap();
        let mut s = db.session();
        for k in 0..20u64 {
            s.insert(rec(k, 1)).unwrap();
        }
        let pinned = s.commit().unwrap();
        let dev = s.branch("dev").unwrap();
        s.update(rec(3, 77)).unwrap();
        s.delete(4).unwrap();
        s.commit().unwrap();
        db.merge(
            BranchId::MASTER,
            dev,
            MergePolicy::ThreeWay { prefer_left: false },
        )
        .unwrap();
        drop(s);
        let wal_a = read(&wal);
        assert!(!wal_a.is_empty());
        db.flush().unwrap(); // cp0
        assert_eq!(
            std::fs::metadata(&wal).unwrap().len(),
            0,
            "{kind:?}: flush must truncate the WAL"
        );
        // Post-cp0 work that only the journal holds.
        let mut s = db.session();
        s.checkout_branch("dev").unwrap();
        for k in 100..110u64 {
            s.insert(rec(k, 2)).unwrap();
        }
        s.commit().unwrap();
        s.checkout_branch("master").unwrap();
        s.update(rec(0, 99)).unwrap();
        s.commit().unwrap();
        (pinned, wal_a)
    };
    let (pinned, wal_a) = pinned;
    let wal_a1 = read(&wal);
    let cp0 = read(&cp);
    let a1_txns = 2;

    // Phase B: reopen lands on the checkpointed fast path (replays only
    // A1), writes the second checkpoint, then post-cp1 work.
    {
        let db = Database::open(&db_path, config).unwrap();
        assert_eq!(
            db.replayed_on_open(),
            a1_txns,
            "{kind:?}: open must replay only the post-cp0 suffix"
        );
        db.flush().unwrap(); // cp1
        let mut s = db.session();
        let late = s.branch("late").unwrap();
        s.insert(rec(500, 5)).unwrap();
        s.commit().unwrap();
        let _ = late;
    }
    let wal_b = read(&wal);
    let b_txns = 2;

    Matrix {
        dir,
        db_path,
        wal_a,
        wal_a1,
        wal_b,
        cp0,
        a1_txns,
        b_txns,
        pinned,
    }
}

#[test]
fn crash_matrix_recovers_identically_for_every_engine() {
    let config = StoreConfig::test_default();
    for kind in EngineKind::all() {
        let m = build(kind, &config);
        let cells = tempfile::tempdir().unwrap();

        // Cell 1 — crash after truncate (the normal shape) is the baseline.
        let c1 = cells.path().join("after_truncate");
        copy_dir(&m.db_path, &c1);
        let db = Database::open(&c1, &config).unwrap();
        assert_eq!(db.replayed_on_open(), m.b_txns, "{kind:?}: cell 1");
        let expected = fingerprint(&db, m.pinned);
        let expected_probe = id_probe(&db);
        drop(db);

        // Cell 2 — crash after the watermark landed but before the WAL was
        // truncated: the log still holds covered transactions, which replay
        // must skip by id.
        let c2 = cells.path().join("before_truncate");
        copy_dir(&m.db_path, &c2);
        let mut full = m.wal_a1.clone();
        full.extend_from_slice(&m.wal_b);
        std::fs::write(c2.join("wal.log"), &full).unwrap();
        let db = Database::open(&c2, &config).unwrap();
        assert_eq!(
            db.replayed_on_open(),
            m.b_txns,
            "{kind:?}: cell 2 must skip the covered prefix"
        );
        assert_eq!(fingerprint(&db, m.pinned), expected, "{kind:?}: cell 2");
        assert_eq!(id_probe(&db), expected_probe, "{kind:?}: cell 2 probe");
        drop(db);

        // Cell 3 — crash after the state flush but before the new watermark:
        // the installed checkpoint is still cp0, while the engine files on
        // disk carry cp1-era bytes that must be trimmed back to cp0
        // coverage and regenerated from the log.
        let c3 = cells.path().join("before_watermark");
        copy_dir(&m.db_path, &c3);
        std::fs::write(c3.join("CHECKPOINT"), &m.cp0).unwrap();
        std::fs::write(c3.join("wal.log"), &full).unwrap();
        let db = Database::open(&c3, &config).unwrap();
        assert_eq!(
            db.replayed_on_open(),
            m.a1_txns + m.b_txns,
            "{kind:?}: cell 3 replays everything past cp0"
        );
        assert_eq!(fingerprint(&db, m.pinned), expected, "{kind:?}: cell 3");
        assert_eq!(id_probe(&db), expected_probe, "{kind:?}: cell 3 probe");
        drop(db);

        // Cell 3b — double crash: reopening cell 3 without flushing in
        // between must land on the same state again (the first open
        // compacted the log to the uncovered suffix).
        let db = Database::open(&c3, &config).unwrap();
        assert_eq!(db.replayed_on_open(), m.a1_txns + m.b_txns + 2);
        drop(db);

        // Cell 4 — no checkpoint at all: cold full-history replay into a
        // cleared data directory, with stale newer engine files present.
        let c4 = cells.path().join("cold");
        copy_dir(&m.db_path, &c4);
        std::fs::remove_file(c4.join("CHECKPOINT")).unwrap();
        let mut history = m.wal_a.clone();
        history.extend_from_slice(&m.wal_a1);
        history.extend_from_slice(&m.wal_b);
        std::fs::write(c4.join("wal.log"), &history).unwrap();
        let db = Database::open(&c4, &config).unwrap();
        assert!(
            db.replayed_on_open() > m.a1_txns + m.b_txns,
            "{kind:?}: cold open replays the full history"
        );
        assert_eq!(fingerprint(&db, m.pinned), expected, "{kind:?}: cell 4");
        assert_eq!(id_probe(&db), expected_probe, "{kind:?}: cell 4 probe");
        drop(db);

        drop(m.dir);
    }
}

/// Group-commit crash interleavings, for every engine kind.
///
/// Under group commit several transactions seal into the shared WAL
/// buffer and one leader flush makes the whole group durable, so two new
/// crash shapes exist that the per-txn-fsync matrix above never produced:
///
/// * **mid-group** — transaction X's group was flushed and fsynced but
///   transaction Y, already *sealed* into the buffer, was still waiting
///   on the leader: the file ends after X, and Y is gone without a trace
///   (its entries never reached disk). Reconstructed with a raw
///   [`Wal`] handle driving the real append/seal/sync machinery: X's
///   ticket is synced, Y's is sealed and abandoned.
/// * **sealed-before-checkpoint** — the whole group is durable but the
///   crash hit before any later checkpoint: the installed watermark
///   predates the group, and replay must restore every grouped txn.
///
/// Both cells end with the id-watermark probe: the next commit must take
/// exactly the first never-durable id (dense ids, no gap, no reuse of a
/// durable one), and a flush → reopen cycle must then replay nothing.
#[test]
fn group_commit_crash_interleavings_recover_for_every_engine() {
    use decibel::common::env::StdEnv;
    use decibel::pagestore::Wal;
    let config = StoreConfig::test_default();
    for kind in EngineKind::all() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("db");
        // History: txn 1 (base rows) → checkpoint → txn X → txn Y → crash.
        let (cx, cy) = {
            let db =
                Database::create(&path, kind, Schema::new(2, ColumnType::U32), &config).unwrap();
            let mut s = db.session();
            for k in 0..20u64 {
                s.insert(rec(k, 1)).unwrap();
            }
            s.commit().unwrap();
            drop(s);
            db.flush().unwrap();
            let mut s = db.session();
            for k in 100..106u64 {
                s.insert(rec(k, 2)).unwrap();
            }
            let cx = s.commit().unwrap();
            for k in 200..206u64 {
                s.insert(rec(k, 3)).unwrap();
            }
            let cy = s.commit().unwrap();
            (cx, cy)
        };
        let suffix = Wal::recover_in(&StdEnv, path.join("wal.log")).unwrap().txns;
        assert_eq!(suffix.len(), 2, "{kind:?}: X and Y live in the suffix");

        // Cell A — crash mid-group: replay X and Y through a raw WAL,
        // syncing only X's ticket. Y's sealed entries die in the buffer.
        let cell_a = dir.path().join("mid_group");
        copy_dir(&path, &cell_a);
        {
            std::fs::remove_file(cell_a.join("wal.log")).unwrap();
            let raw = Wal::open_in(&StdEnv, cell_a.join("wal.log"), false).unwrap();
            for e in &suffix[0].entries {
                raw.append(suffix[0].txn, e).unwrap();
            }
            let durable = raw.seal(suffix[0].txn).unwrap();
            raw.sync(durable).unwrap();
            for e in &suffix[1].entries {
                raw.append(suffix[1].txn, e).unwrap();
            }
            raw.seal(suffix[1].txn).unwrap();
            // No sync: the crash beat the group leader to the flush.
        }
        let db = Database::open(&cell_a, &config).unwrap();
        assert_eq!(
            db.replayed_on_open(),
            1,
            "{kind:?}: only the synced half of the group survives"
        );
        assert_eq!(db.read(BranchId::MASTER).count().unwrap(), 26, "{kind:?}");
        let mut s = db.session();
        assert_eq!(
            s.get(100).unwrap().unwrap().field(0),
            2,
            "{kind:?}: X is durable"
        );
        assert!(s.get(200).unwrap().is_none(), "{kind:?}: Y is gone whole");
        // Id-watermark probe: Y never became durable, so its commit id is
        // the next one handed out — dense, gapless, nothing reused.
        s.insert(rec(9_000, 9)).unwrap();
        let probe = s.commit().unwrap();
        assert_eq!(probe, cy, "{kind:?}: the unsynced commit id is reclaimed");
        drop(s);
        db.flush().unwrap();
        drop(db);
        let db = Database::open(&cell_a, &config).unwrap();
        assert_eq!(
            db.replayed_on_open(),
            0,
            "{kind:?}: the post-crash flush watermark covers the probe"
        );
        assert_eq!(db.read(BranchId::MASTER).count().unwrap(), 27, "{kind:?}");
        drop(db);

        // Cell B — crash between the group's sync and the next checkpoint:
        // exactly what the original crash left on disk. Both grouped txns
        // replay; the probe id follows Y's.
        let cell_b = dir.path().join("sealed_before_checkpoint");
        copy_dir(&path, &cell_b);
        let db = Database::open(&cell_b, &config).unwrap();
        assert_eq!(
            db.replayed_on_open(),
            2,
            "{kind:?}: the durable group replays in full"
        );
        assert_eq!(db.read(BranchId::MASTER).count().unwrap(), 32, "{kind:?}");
        let mut s = db.session();
        assert_eq!(s.get(200).unwrap().unwrap().field(0), 3, "{kind:?}");
        s.insert(rec(9_000, 9)).unwrap();
        let probe = s.commit().unwrap();
        assert_eq!(
            probe.raw(),
            cy.raw() + 1,
            "{kind:?}: ids continue densely past the recovered group"
        );
        let _ = cx;
        drop(s);
        db.flush().unwrap();
        drop(db);
        let db = Database::open(&cell_b, &config).unwrap();
        assert_eq!(db.replayed_on_open(), 0, "{kind:?}");
        assert_eq!(db.read(BranchId::MASTER).count().unwrap(), 33, "{kind:?}");
    }
}

/// The log stays bounded by the post-checkpoint suffix: flushing empties
/// it, new commits grow only the suffix, and reopening does not resurrect
/// covered bytes.
#[test]
fn wal_is_bounded_by_the_post_checkpoint_suffix() {
    let config = StoreConfig::test_default();
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("db");
    let wal = path.join("wal.log");
    let db = Database::create(
        &path,
        EngineKind::Hybrid,
        Schema::new(2, ColumnType::U32),
        &config,
    )
    .unwrap();
    let mut s = db.session();
    for round in 0..5u64 {
        for k in 0..50 {
            s.insert(rec(round * 50 + k, round)).unwrap();
        }
        s.commit().unwrap();
        db.flush().unwrap();
        assert_eq!(std::fs::metadata(&wal).unwrap().len(), 0, "round {round}");
    }
    s.insert(rec(10_000, 0)).unwrap();
    s.commit().unwrap();
    let suffix_len = std::fs::metadata(&wal).unwrap().len();
    assert!(suffix_len > 0);
    drop(s);
    drop(db);
    let db = Database::open(&path, &config).unwrap();
    assert_eq!(db.replayed_on_open(), 1);
    assert!(
        std::fs::metadata(&wal).unwrap().len() <= suffix_len,
        "reopen must not regrow the log past the suffix"
    );
    assert_eq!(db.read(BranchId::MASTER).count().unwrap(), 251);
}

/// A present-but-corrupt checkpoint is a hard error: the WAL was truncated
/// against it, so falling back to full replay would silently lose the
/// covered history.
#[test]
fn corrupt_checkpoint_refuses_to_open() {
    let config = StoreConfig::test_default();
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("db");
    {
        let db = Database::create(
            &path,
            EngineKind::TupleFirstBranch,
            Schema::new(2, ColumnType::U32),
            &config,
        )
        .unwrap();
        let mut s = db.session();
        s.insert(rec(1, 1)).unwrap();
        s.commit().unwrap();
        db.flush().unwrap();
    }
    let cp = path.join("CHECKPOINT");
    let mut bytes = read(&cp);
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&cp, &bytes).unwrap();
    assert!(Database::open(&path, &config).is_err());
}

/// A heap tail torn mid-append (fractional record slot) after a checkpoint
/// is repaired on reopen; the journal suffix restores the lost rows.
#[test]
fn torn_heap_tail_after_checkpoint_recovers() {
    let config = StoreConfig::test_default();
    for kind in EngineKind::all() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("db");
        {
            let db =
                Database::create(&path, kind, Schema::new(2, ColumnType::U32), &config).unwrap();
            let mut s = db.session();
            for k in 0..30u64 {
                s.insert(rec(k, 3)).unwrap();
            }
            s.commit().unwrap();
            db.flush().unwrap();
            s.insert(rec(100, 4)).unwrap();
            s.commit().unwrap();
            // Heap tails for txn 2 were never flushed — only the journal
            // has it. Drop everything (crash).
        }
        // Tear whichever heap file master's rows landed in by appending a
        // fractional slot, as a crash mid-write would.
        let data = path.join("data");
        let heap = std::fs::read_dir(&data)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "dat"))
            .unwrap();
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&heap)
                .unwrap();
            f.write_all(&[0xEE; 7]).unwrap();
        }
        let db = Database::open(&path, &config).unwrap();
        assert_eq!(
            db.read(BranchId::MASTER).count().unwrap(),
            31,
            "{kind:?}: checkpointed rows + journal suffix survive the tear"
        );
        assert_eq!(
            db.with_store(|s| s.get(VersionRef::Branch(BranchId::MASTER), 100))
                .unwrap()
                .unwrap()
                .field(0),
            4,
            "{kind:?}"
        );
    }
}
