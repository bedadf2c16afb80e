//! Reopen equivalence: a checkpointed database reopens to exactly the state
//! it was closed in, on every engine.
//!
//! The primary-key indexes are derived state — never persisted, rebuilt by
//! `open_from` — and a fork's index is rebuilt as a copy-on-write clone of
//! its parent's plus the rows where the two differ. This suite is the check
//! on that rebuild: a history with forks from a branch head *and* from a
//! historical commit, writes on both sides of every fork, and a merge; then
//! every branch must answer `get` for every key ever written, and a full
//! scan, exactly as before the close, and every commit must read the rows
//! it read before. It then keeps writing after the reopen, to show that
//! indexes which share buckets again stay isolated.

use std::collections::BTreeSet;
use std::sync::Arc;

use decibel::common::ids::{BranchId, CommitId};
use decibel::common::record::Record;
use decibel::common::schema::{ColumnType, Schema};
use decibel::core::{Database, EngineKind, MergePolicy, Session};
use decibel::pagestore::StoreConfig;

/// Rows in master before the first fork: enough for the index to hold
/// dozens of buckets, so a fork's writes touch a few and share the rest.
const ROWS: u64 = 1_500;
/// Keys below this are updated, keys from it up to `ROWS` are deleted, so
/// no update names a key some branch no longer has.
const UPDATED: u64 = ROWS - 100;

fn rec(key: u64, tag: u64) -> Record {
    Record::new(key, vec![tag, key % 13, key ^ tag])
}

/// The keys every write of the history touched, and the writes themselves.
struct History {
    session: Session,
    keys: BTreeSet<u64>,
}

impl History {
    fn insert(&mut self, key: u64, tag: u64) {
        self.session.insert(rec(key, tag)).unwrap();
        self.keys.insert(key);
    }

    fn update(&mut self, key: u64, tag: u64) {
        self.session.update(rec(key, tag)).unwrap();
    }

    fn delete(&mut self, key: u64) {
        self.session.delete(key).unwrap();
    }
}

/// What one branch answers: a `get` per key ever written, and its scan.
type BranchState = (Vec<Option<Record>>, Vec<Record>);

fn state(db: &Arc<Database>, branches: &[BranchId], keys: &BTreeSet<u64>) -> Vec<BranchState> {
    branches
        .iter()
        .map(|&b| {
            let gets = db.with_store(|store| {
                keys.iter()
                    .map(|&k| store.get(b.into(), k).unwrap())
                    .collect()
            });
            let mut rows = db.read(b).collect().unwrap();
            rows.sort_by_key(Record::key);
            (gets, rows)
        })
        .collect()
}

/// Every commit's rows, by commit id.
fn commit_rows(db: &Arc<Database>) -> Vec<Vec<Record>> {
    let n = db.with_store(|store| store.graph().num_commits());
    (0..n)
        .map(|c| {
            let mut rows = db.read(CommitId(c)).collect().unwrap();
            rows.sort_by_key(Record::key);
            rows
        })
        .collect()
}

/// Fails on the first key or row two states disagree on (the states are
/// thousands of records; printing them whole would bury the difference).
fn assert_same(want: &[BranchState], got: &[BranchState], keys: &BTreeSet<u64>, what: &str) {
    for (b, (want, got)) in want.iter().zip(got).enumerate() {
        for ((key, want), got) in keys.iter().zip(&want.0).zip(&got.0) {
            assert_eq!(want, got, "{what}: get({key}) on branch {b}");
        }
        assert_eq!(want.1.len(), got.1.len(), "{what}: rows in branch {b}");
        for (want, got) in want.1.iter().zip(&got.1) {
            assert_eq!(want, got, "{what}: scan of branch {b}");
        }
    }
}

/// Builds the history; returns the branches and the keys written.
fn build(db: &Arc<Database>) -> (Vec<BranchId>, BTreeSet<u64>) {
    let mut h = History {
        session: db.session(),
        keys: BTreeSet::new(),
    };
    for k in 0..10 {
        h.insert(k, 1);
    }
    let c0 = h.session.commit().unwrap();
    for k in 10..ROWS {
        h.insert(k, 1);
    }
    let c1 = h.session.commit().unwrap();
    for k in (0..UPDATED).step_by(7) {
        h.update(k, 2);
    }
    for k in (UPDATED..ROWS).step_by(3) {
        h.delete(k);
    }
    h.session.commit().unwrap();

    // A fork from a branch head, then writes on both sides of it.
    let dev = h.session.branch("dev").unwrap();
    for k in (1..UPDATED).step_by(11) {
        h.update(k, 3);
    }
    for k in 0..40 {
        h.insert(ROWS + k, 3);
    }
    h.delete(UPDATED + 1);
    h.session.commit().unwrap();
    h.session.checkout_branch("master").unwrap();
    for k in (2..UPDATED).step_by(13) {
        h.update(k, 4);
    }
    for k in 0..25 {
        h.insert(2 * ROWS + k, 4);
    }
    h.delete(UPDATED + 2);
    h.session.commit().unwrap();

    // Two forks from historical commits master has moved on from: one
    // still mostly master's rows (rebuilt as master's index plus the
    // difference), one sharing almost none (rebuilt from scratch). Then a
    // fork of a fork that writes little, as an agent's branch does.
    let old = db.create_branch("old", c1).unwrap();
    h.session.checkout_branch("old").unwrap();
    for k in (0..UPDATED).step_by(17) {
        h.update(k, 5);
    }
    h.insert(3 * ROWS, 5);
    h.session.commit().unwrap();
    let tiny = db.create_branch("tiny", c0).unwrap();
    h.session.checkout_branch("tiny").unwrap();
    h.update(3, 5);
    h.insert(3 * ROWS + 1, 5);
    h.session.commit().unwrap();
    h.session.checkout_branch("dev").unwrap();
    let feature = h.session.branch("feature").unwrap();
    for k in [4, 500, 900] {
        h.update(k, 6);
    }
    h.insert(4 * ROWS, 6);
    h.session.commit().unwrap();

    // A merge (updates, inserts and a delete flow into master), then more
    // writes on both parents of it.
    let merged = db
        .merge(
            BranchId::MASTER,
            dev,
            MergePolicy::ThreeWay { prefer_left: false },
        )
        .unwrap();
    assert!(merged.records_changed > 0);
    h.session.checkout_branch("master").unwrap();
    h.update(0, 7);
    h.insert(5 * ROWS, 7);
    h.session.commit().unwrap();
    h.session.checkout_branch("dev").unwrap();
    h.update(1, 8);
    h.session.commit().unwrap();

    (vec![BranchId::MASTER, dev, old, feature, tiny], h.keys)
}

#[test]
fn every_engine_reopens_to_the_state_it_closed_in() {
    for kind in EngineKind::all() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("db");
        let db = Database::create(
            &path,
            kind,
            Schema::new(3, ColumnType::U64),
            &StoreConfig::test_default(),
        )
        .unwrap();
        let (branches, keys) = build(&db);
        let before = state(&db, &branches, &keys);
        let history = commit_rows(&db);
        db.flush().unwrap();
        drop(db);

        let db = Database::open(&path, &StoreConfig::test_default()).unwrap();
        assert_eq!(
            db.replayed_on_open(),
            0,
            "{kind:?}: reopened from the checkpoint"
        );
        let after = state(&db, &branches, &keys);
        assert_same(&before, &after, &keys, &format!("{kind:?} after reopen"));
        for (c, (want, got)) in history.iter().zip(commit_rows(&db)).enumerate() {
            assert!(
                *want == got,
                "{kind:?}: commit {c} reads {} rows after reopen, {} before",
                got.len(),
                want.len()
            );
        }

        // One write per branch after the reopen lands on that branch only.
        let mut session = db.session();
        let mut expect = after;
        let names = ["master", "dev", "old", "feature", "tiny"];
        for (i, name) in names.iter().enumerate() {
            session.checkout_branch(name).unwrap();
            let key = 5 + i as u64;
            session.update(rec(key, 9)).unwrap();
            session.commit().unwrap();
            let at = keys.iter().position(|&k| k == key).unwrap();
            expect[i].0[at] = Some(rec(key, 9));
            let row = expect[i].1.iter_mut().find(|r| r.key() == key).unwrap();
            *row = rec(key, 9);
        }
        let got = state(&db, &branches, &keys);
        assert_same(
            &expect,
            &got,
            &keys,
            &format!("{kind:?} writing after reopen"),
        );
    }
}

/// The rebuilt indexes share again: reopening copies fewer entries than one
/// full index per fork, and afterwards a write to a fork still copies a
/// bucket it shares with its parent (`commit/pk_cow_entries` moves), which
/// an index rebuilt from scratch would own outright.
#[test]
fn forks_share_their_parents_index_again_after_reopen() {
    for kind in [
        EngineKind::TupleFirstBranch,
        EngineKind::TupleFirstTuple,
        EngineKind::Hybrid,
    ] {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("db");
        let db = Database::create(
            &path,
            kind,
            Schema::new(3, ColumnType::U64),
            &StoreConfig::test_default(),
        )
        .unwrap();
        build(&db);
        db.flush().unwrap();
        drop(db);

        let db = Database::open(&path, &StoreConfig::test_default()).unwrap();
        let copied = || db.metrics().snapshot().counter("commit", "pk_cow_entries");
        let rebuild = copied();
        assert!(
            rebuild < 2 * ROWS,
            "{kind:?}: reopen copied {rebuild} entries, a full index per fork"
        );
        let mut session = db.session();
        session.checkout_branch("feature").unwrap();
        for key in 20..28 {
            session.update(rec(key, 9)).unwrap();
        }
        session.commit().unwrap();
        assert!(copied() > rebuild, "{kind:?}: feature owned the bucket");
    }
}
