//! Hybrid at agent scale: what a commit writes follows what changed, not
//! how many forks the database has seen.
//!
//! An agent cycle forks master, updates a few inherited rows, inserts a
//! few, commits, and on even cycles merges back. Each fork adds two head
//! segments (§3.4). If every commit snapshotted every segment its branch
//! inherited, each agent's first commit would create one commit-store file
//! per ancestral segment and `data/` would grow quadratically in cycles.
//! Here the file count must stay within a fixed number per cycle, and every
//! commit must still read back exactly as an in-memory model recorded it.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use decibel::common::ids::{BranchId, CommitId};
use decibel::common::record::Record;
use decibel::common::schema::{ColumnType, Schema};
use decibel::core::{Database, EngineKind, MergePolicy, VersionRef};
use decibel::pagestore::StoreConfig;

const ROWS: u64 = 2_000;
const CYCLES: u64 = 64;
const UPDATES: u64 = 8;
const INSERTS: u64 = 2;
/// Files a cycle may add to `data/`: two head-segment heaps, the agent's
/// stores for the segments it wrote, and master's for the segments a merge
/// changed. A fixed allowance, whatever the cycle number.
const FILES_PER_CYCLE: usize = 8;

type Rows = BTreeMap<u64, Record>;

fn rec(key: u64, tag: u64) -> Record {
    Record::new(key, vec![tag, key % 11, key ^ tag])
}

fn files_in(dir: &Path) -> usize {
    std::fs::read_dir(dir).unwrap().count()
}

fn rows_at(db: &Arc<Database>, version: impl Into<VersionRef>) -> Vec<Record> {
    let mut rows = db.read(version).collect().unwrap();
    rows.sort_by_key(Record::key);
    rows
}

#[test]
fn agent_cycles_add_a_bounded_number_of_files_and_every_commit_reads_back() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("db");
    let db = Database::create(
        &path,
        EngineKind::Hybrid,
        Schema::new(3, ColumnType::U64),
        &StoreConfig::test_default(),
    )
    .unwrap();
    let data = path.join("data");

    // The model: master's rows, and every commit's rows by id.
    let mut master: Rows = BTreeMap::new();
    let mut commits: Vec<Rows> = vec![BTreeMap::new()];
    let mut session = db.session();
    for k in 0..ROWS {
        session.insert(rec(k, 0)).unwrap();
        master.insert(k, rec(k, 0));
    }
    let c = session.commit().unwrap();
    assert_eq!(c.index(), commits.len());
    commits.push(master.clone());
    let setup = files_in(&data);

    let mut next_key = ROWS;
    let mut lcg = 0x2545_f491_4f6c_dd1du64;
    for cycle in 0..CYCLES {
        session.checkout_branch("master").unwrap();
        let agent = session.branch(&format!("agent-{cycle}")).unwrap();
        // Forking from a branch head commits it.
        commits.push(master.clone());
        let mut rows = master.clone();
        let keys: Vec<u64> = rows.keys().copied().collect();
        for _ in 0..UPDATES {
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let key = keys[(lcg >> 33) as usize % keys.len()];
            session.update(rec(key, cycle + 1)).unwrap();
            rows.insert(key, rec(key, cycle + 1));
        }
        for _ in 0..INSERTS {
            session.insert(rec(next_key, cycle + 1)).unwrap();
            rows.insert(next_key, rec(next_key, cycle + 1));
            next_key += 1;
        }
        let c = session.commit().unwrap();
        assert_eq!(c.index(), commits.len(), "cycle {cycle}: dense ids");
        commits.push(rows.clone());
        if cycle % 2 == 0 {
            // Master has not moved since the fork, so the merge takes the
            // agent's rows. It commits both heads, then the merge.
            let merged = db
                .merge(
                    BranchId::MASTER,
                    agent,
                    MergePolicy::ThreeWay { prefer_left: false },
                )
                .unwrap();
            assert_eq!(merged.commit.index(), commits.len() + 2);
            commits.push(master.clone());
            commits.push(rows.clone());
            master = rows.clone();
            commits.push(rows);
        }
        let files = files_in(&data);
        let allowed = setup + FILES_PER_CYCLE * (cycle as usize + 1);
        assert!(
            files <= allowed,
            "cycle {cycle}: {files} files in data/, allowed {allowed}"
        );
    }

    assert_eq!(
        rows_at(&db, BranchId::MASTER),
        Vec::from_iter(master.into_values())
    );
    for (id, want) in commits.iter().enumerate() {
        let got = rows_at(&db, CommitId(id as u64));
        assert!(
            got.iter().eq(want.values()),
            "commit {id}: {} rows read, {} in the model",
            got.len(),
            want.len()
        );
    }
}
