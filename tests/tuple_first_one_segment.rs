//! Tuple-first never splits: it is the segmented engine whose one segment
//! no fork freezes, so every branch lives in "a single shared heap file"
//! (§3.2).
//!
//! On both bitmap orientations, a history with forks from branch heads, a
//! fork from a historical commit, and merges under both policies must
//! leave one segment and one heap file in the data directory, before and
//! after a checkpoint and a reopen. Both orientations, and their reopened
//! copies, must hold the same rows in every branch and at every commit.

use std::path::Path;
use std::sync::Arc;

use decibel::common::ids::{BranchId, CommitId};
use decibel::common::record::Record;
use decibel::common::schema::{ColumnType, Schema};
use decibel::core::{Database, EngineKind, MergePolicy};
use decibel::pagestore::StoreConfig;

fn rec(key: u64, tag: u64) -> Record {
    Record::new(key, vec![tag, key % 7])
}

/// Builds the history and returns its branches, master first.
fn build(db: &Arc<Database>) -> Vec<BranchId> {
    let mut s = db.session();
    for k in 0..200 {
        s.insert(rec(k, 0)).unwrap();
    }
    let c0 = s.commit().unwrap();
    for k in (0..200).step_by(5) {
        s.update(rec(k, 1)).unwrap();
    }
    s.commit().unwrap();

    // Forks from a head: dev from master, feature from dev.
    let dev = s.branch("dev").unwrap();
    for k in (0..200).step_by(3) {
        s.update(rec(k, 2)).unwrap();
    }
    s.delete(199).unwrap();
    s.insert(rec(1_000, 2)).unwrap();
    s.commit().unwrap();
    let feature = s.branch("feature").unwrap();
    s.update(rec(4, 3)).unwrap();
    s.insert(rec(2_000, 3)).unwrap();
    s.commit().unwrap();
    s.checkout_branch("master").unwrap();
    for k in (1..200).step_by(4) {
        s.update(rec(k, 4)).unwrap();
    }
    s.delete(198).unwrap();
    s.commit().unwrap();

    // A fork from a commit master has moved on from.
    let old = db.create_branch("old", c0).unwrap();
    s.checkout_branch("old").unwrap();
    s.update(rec(9, 5)).unwrap();
    s.insert(rec(3_000, 5)).unwrap();
    s.commit().unwrap();

    db.merge(
        BranchId::MASTER,
        dev,
        MergePolicy::ThreeWay { prefer_left: false },
    )
    .unwrap();
    db.merge(old, feature, MergePolicy::TwoWay { prefer_left: true })
        .unwrap();
    s.checkout_branch("master").unwrap();
    s.update(rec(0, 6)).unwrap();
    s.commit().unwrap();
    vec![BranchId::MASTER, dev, feature, old]
}

/// Every branch's rows, then every commit's, each sorted by key.
fn rows(db: &Arc<Database>, branches: &[BranchId]) -> Vec<Vec<Record>> {
    let commits = db.with_store(|store| store.graph().num_commits());
    let versions = branches
        .iter()
        .map(|&b| db.read(b).collect().unwrap())
        .chain((0..commits).map(|c| db.read(CommitId(c)).collect().unwrap()));
    versions
        .map(|mut rows: Vec<Record>| {
            rows.sort_by_key(Record::key);
            rows
        })
        .collect()
}

/// Asserts one segment and exactly one heap file in the data directory.
fn assert_one_segment(db: &Arc<Database>, kind: EngineKind, when: &str) {
    let segments = db.with_store(|store| store.stats().num_segments);
    assert_eq!(segments, 1, "{kind:?} {when}: segments");
    let heaps: Vec<String> = std::fs::read_dir(db.dir().join("data"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".dat"))
        .collect();
    assert_eq!(heaps, ["seg_0.dat"], "{kind:?} {when}: heap files");
}

fn run(kind: EngineKind, dir: &Path) -> Vec<Vec<Record>> {
    let path = dir.join("db");
    let config = StoreConfig::test_default();
    let db = Database::create(&path, kind, Schema::new(2, ColumnType::U32), &config).unwrap();
    let branches = build(&db);
    assert_one_segment(&db, kind, "after the history");
    let before = rows(&db, &branches);
    db.flush().unwrap();
    assert_one_segment(&db, kind, "after a checkpoint");
    drop(db);

    let db = Database::open(&path, &config).unwrap();
    assert_eq!(
        db.replayed_on_open(),
        0,
        "{kind:?}: reopened from the checkpoint"
    );
    assert_one_segment(&db, kind, "after a reopen");
    assert!(
        rows(&db, &branches) == before,
        "{kind:?}: the reopened copy reads other rows"
    );
    before
}

#[test]
fn tuple_first_never_splits() {
    let dir = tempfile::tempdir().unwrap();
    let branch = run(EngineKind::TupleFirstBranch, &dir.path().join("branch"));
    let tuple = run(EngineKind::TupleFirstTuple, &dir.path().join("tuple"));
    assert!(branch == tuple, "the two orientations read other rows");
}
