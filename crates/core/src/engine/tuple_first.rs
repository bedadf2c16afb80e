//! The tuple-first storage engine (§3.2).
//!
//! "Tuple-first stores tuples from different branches within a single
//! shared heap file. ... this approach relies on a bitmap index with one
//! bit per branch per tuple to annotate the branches a tuple is active in."
//!
//! That is a hybrid store (§3.4) with one segment that no fork splits, so
//! tuple-first is the [`SegmentedEngine`] run with the tuple-first split
//! policy (see `engine/hybrid.rs`): every branch's head is segment 0, each
//! branch has one compressed commit history (its (segment 0, branch)
//! store), and the paper's per-branch primary-key index "indicating the
//! most recent version of each primary key in each branch" serves updates
//! and deletes. This module names the two bitmap orientations it runs over
//! ([`BranchBitmapIndex`] or [`TupleBitmapIndex`], §3.1).

use decibel_bitmap::{BranchBitmapIndex, TupleBitmapIndex, VersionIndex};

use crate::engine::hybrid::SegmentedEngine;
use crate::types::EngineKind;

/// A bitmap orientation the segmented engine runs over, with the
/// tuple-first [`EngineKind`] it is labelled by.
pub trait IndexOrientation: VersionIndex + Default + 'static {
    /// The tuple-first engine kind for this orientation.
    const KIND: EngineKind;
}

impl IndexOrientation for BranchBitmapIndex {
    const KIND: EngineKind = EngineKind::TupleFirstBranch;
}

impl IndexOrientation for TupleBitmapIndex {
    const KIND: EngineKind = EngineKind::TupleFirstTuple;
}

/// Tuple-first with the paper's evaluation-default branch-oriented bitmap.
pub type TupleFirstBranchEngine = SegmentedEngine<BranchBitmapIndex>;
/// Tuple-first with a tuple-oriented bitmap.
pub type TupleFirstTupleEngine = SegmentedEngine<TupleBitmapIndex>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use crate::store::VersionedStore;
    use crate::types::{MergePolicy, RecordIter};
    use decibel_common::error::DbError;
    use decibel_common::ids::{BranchId, CommitId};
    use decibel_common::record::Record;
    use decibel_common::schema::{ColumnType, Schema};
    use decibel_pagestore::StoreConfig;

    /// A fresh store of each tuple-first kind: every test runs on both
    /// orientations.
    fn engines() -> Vec<(tempfile::TempDir, Box<dyn VersionedStore>)> {
        [EngineKind::TupleFirstBranch, EngineKind::TupleFirstTuple]
            .into_iter()
            .map(|kind| {
                let dir = tempfile::tempdir().unwrap();
                let schema = Schema::new(4, ColumnType::U32);
                let eng = Database::build_store(
                    kind,
                    dir.path().join("tf"),
                    schema,
                    &StoreConfig::test_default(),
                )
                .unwrap();
                assert_eq!(eng.kind(), kind);
                (dir, eng)
            })
            .collect()
    }

    fn rec(key: u64, tag: u64) -> Record {
        Record::new(key, vec![tag, tag + 1, tag + 2, tag + 3])
    }

    fn keys(iter: RecordIter<'_>) -> Vec<u64> {
        let mut v: Vec<u64> = iter.map(|r| r.unwrap().key()).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn insert_scan_master() {
        for (_d, eng) in engines() {
            for k in 0..10 {
                eng.insert(BranchId::MASTER, rec(k, k * 10)).unwrap();
            }
            assert_eq!(
                keys(eng.scan(BranchId::MASTER.into()).unwrap()),
                (0..10).collect::<Vec<_>>()
            );
            assert_eq!(eng.live_count(BranchId::MASTER.into()).unwrap(), 10);
        }
    }

    #[test]
    fn duplicate_insert_rejected() {
        for (_d, eng) in engines() {
            eng.insert(BranchId::MASTER, rec(1, 0)).unwrap();
            assert!(matches!(
                eng.insert(BranchId::MASTER, rec(1, 1)),
                Err(DbError::DuplicateKey { key: 1 })
            ));
        }
    }

    #[test]
    fn update_replaces_and_get_sees_latest() {
        for (_d, eng) in engines() {
            eng.insert(BranchId::MASTER, rec(1, 0)).unwrap();
            eng.update(BranchId::MASTER, rec(1, 99)).unwrap();
            let got = eng.get(BranchId::MASTER.into(), 1).unwrap().unwrap();
            assert_eq!(got.field(0), 99);
            assert_eq!(eng.live_count(BranchId::MASTER.into()).unwrap(), 1);
            assert!(matches!(
                eng.update(BranchId::MASTER, rec(42, 0)),
                Err(DbError::KeyNotFound { key: 42 })
            ));
        }
    }

    #[test]
    fn delete_hides_record() {
        for (_d, eng) in engines() {
            eng.insert(BranchId::MASTER, rec(1, 0)).unwrap();
            assert!(eng.delete(BranchId::MASTER, 1).unwrap());
            assert!(!eng.delete(BranchId::MASTER, 1).unwrap());
            assert_eq!(eng.live_count(BranchId::MASTER.into()).unwrap(), 0);
            assert_eq!(eng.get(BranchId::MASTER.into(), 1).unwrap(), None);
        }
    }

    #[test]
    fn branch_isolation() {
        for (_d, mut eng) in engines() {
            for k in 0..5 {
                eng.insert(BranchId::MASTER, rec(k, k)).unwrap();
            }
            let dev = eng.create_branch("dev", BranchId::MASTER.into()).unwrap();
            // Child sees parent's records.
            assert_eq!(
                keys(eng.scan(dev.into()).unwrap()),
                (0..5).collect::<Vec<_>>()
            );
            // Changes on each side are invisible to the other.
            eng.insert(dev, rec(100, 0)).unwrap();
            eng.update(dev, rec(0, 77)).unwrap();
            eng.insert(BranchId::MASTER, rec(200, 0)).unwrap();
            assert_eq!(
                keys(eng.scan(dev.into()).unwrap()),
                vec![0, 1, 2, 3, 4, 100]
            );
            assert_eq!(
                keys(eng.scan(BranchId::MASTER.into()).unwrap()),
                vec![0, 1, 2, 3, 4, 200]
            );
            assert_eq!(eng.get(dev.into(), 0).unwrap().unwrap().field(0), 77);
            assert_eq!(
                eng.get(BranchId::MASTER.into(), 0)
                    .unwrap()
                    .unwrap()
                    .field(0),
                0
            );
        }
    }

    #[test]
    fn commit_checkout_history() {
        for (_d, eng) in engines() {
            eng.insert(BranchId::MASTER, rec(1, 0)).unwrap();
            let c1 = eng.commit(BranchId::MASTER).unwrap();
            eng.insert(BranchId::MASTER, rec(2, 0)).unwrap();
            eng.update(BranchId::MASTER, rec(1, 50)).unwrap();
            let c2 = eng.commit(BranchId::MASTER).unwrap();
            eng.delete(BranchId::MASTER, 1).unwrap();

            assert_eq!(eng.checkout_version(c1).unwrap(), 1);
            assert_eq!(eng.checkout_version(c2).unwrap(), 2);
            // Scan at a commit reads the historical state.
            assert_eq!(keys(eng.scan(c1.into()).unwrap()), vec![1]);
            let at_c2 = eng.get(c2.into(), 1).unwrap().unwrap();
            assert_eq!(at_c2.field(0), 50);
            // Working head has the delete.
            assert_eq!(keys(eng.scan(BranchId::MASTER.into()).unwrap()), vec![2]);
        }
    }

    #[test]
    fn branch_from_historical_commit() {
        for (_d, mut eng) in engines() {
            eng.insert(BranchId::MASTER, rec(1, 0)).unwrap();
            let c1 = eng.commit(BranchId::MASTER).unwrap();
            eng.insert(BranchId::MASTER, rec(2, 0)).unwrap();
            eng.commit(BranchId::MASTER).unwrap();
            let old = eng.create_branch("old", c1.into()).unwrap();
            assert_eq!(keys(eng.scan(old.into()).unwrap()), vec![1]);
            // The restored branch is writable with a working key index.
            eng.update(old, rec(1, 9)).unwrap();
            eng.insert(old, rec(3, 0)).unwrap();
            assert_eq!(keys(eng.scan(old.into()).unwrap()), vec![1, 3]);
        }
    }

    #[test]
    fn diff_between_branches() {
        for (_d, mut eng) in engines() {
            for k in 0..4 {
                eng.insert(BranchId::MASTER, rec(k, k)).unwrap();
            }
            let dev = eng.create_branch("dev", BranchId::MASTER.into()).unwrap();
            eng.insert(dev, rec(10, 0)).unwrap();
            eng.update(dev, rec(0, 99)).unwrap();
            eng.delete(dev, 3).unwrap();
            let d = eng.diff(dev.into(), BranchId::MASTER.into()).unwrap();
            let mut l: Vec<u64> = d.left_only.iter().map(|r| r.key()).collect();
            l.sort_unstable();
            assert_eq!(l, vec![0, 10], "dev-only copies: new insert + updated copy");
            let mut r: Vec<u64> = d.right_only.iter().map(|r| r.key()).collect();
            r.sort_unstable();
            assert_eq!(
                r,
                vec![0, 3],
                "master-only copies: old copy of 0 + undeleted 3"
            );
        }
    }

    #[test]
    fn multi_scan_annotates_branches() {
        for (_d, mut eng) in engines() {
            eng.insert(BranchId::MASTER, rec(1, 0)).unwrap();
            let dev = eng.create_branch("dev", BranchId::MASTER.into()).unwrap();
            eng.insert(dev, rec(2, 0)).unwrap();
            eng.insert(BranchId::MASTER, rec(3, 0)).unwrap();
            let mut rows: Vec<(u64, usize)> = eng
                .multi_scan(&[BranchId::MASTER, dev])
                .unwrap()
                .map(|r| {
                    let (rec, branches) = r.unwrap();
                    (rec.key(), branches.len())
                })
                .collect();
            rows.sort_unstable();
            assert_eq!(rows, vec![(1, 2), (2, 1), (3, 1)]);
        }
    }

    #[test]
    fn three_way_merge_auto_merges_disjoint_fields() {
        for (_d, mut eng) in engines() {
            eng.insert(BranchId::MASTER, rec(1, 10)).unwrap();
            let dev = eng.create_branch("dev", BranchId::MASTER.into()).unwrap();
            // Disjoint field edits on either side of the fork.
            let mut left = rec(1, 10);
            left.set_field(0, 111);
            eng.update(BranchId::MASTER, left).unwrap();
            let mut right = rec(1, 10);
            right.set_field(3, 333);
            eng.update(dev, right).unwrap();

            let res = eng
                .merge(
                    BranchId::MASTER,
                    dev,
                    MergePolicy::ThreeWay { prefer_left: true },
                )
                .unwrap();
            assert!(res.conflicts.is_empty());
            let merged = eng.get(BranchId::MASTER.into(), 1).unwrap().unwrap();
            assert_eq!(merged.field(0), 111);
            assert_eq!(merged.field(3), 333);
            // The merge commit has two parents.
            let graph = eng.graph();
            let meta = graph.commit(res.commit).unwrap();
            assert_eq!(meta.parents.len(), 2);
        }
    }

    #[test]
    fn merge_precedence_on_overlap() {
        for (_d, mut eng) in engines() {
            eng.insert(BranchId::MASTER, rec(1, 10)).unwrap();
            let dev = eng.create_branch("dev", BranchId::MASTER.into()).unwrap();
            let mut l = rec(1, 10);
            l.set_field(0, 111);
            eng.update(BranchId::MASTER, l).unwrap();
            let mut r = rec(1, 10);
            r.set_field(0, 222);
            eng.update(dev, r).unwrap();

            let res = eng
                .merge(
                    BranchId::MASTER,
                    dev,
                    MergePolicy::ThreeWay { prefer_left: false },
                )
                .unwrap();
            assert_eq!(res.conflicts.len(), 1);
            assert_eq!(res.conflicts[0].fields, vec![0]);
            assert_eq!(
                eng.get(BranchId::MASTER.into(), 1)
                    .unwrap()
                    .unwrap()
                    .field(0),
                222
            );
        }
    }

    #[test]
    fn merge_adopts_source_inserts_and_deletes() {
        for (_d, mut eng) in engines() {
            eng.insert(BranchId::MASTER, rec(1, 0)).unwrap();
            eng.insert(BranchId::MASTER, rec(2, 0)).unwrap();
            let dev = eng.create_branch("dev", BranchId::MASTER.into()).unwrap();
            eng.insert(dev, rec(5, 0)).unwrap();
            eng.delete(dev, 2).unwrap();
            eng.merge(
                BranchId::MASTER,
                dev,
                MergePolicy::ThreeWay { prefer_left: true },
            )
            .unwrap();
            assert_eq!(keys(eng.scan(BranchId::MASTER.into()).unwrap()), vec![1, 5]);
        }
    }

    #[test]
    fn stats_track_growth() {
        for (_d, eng) in engines() {
            let s0 = eng.stats();
            for k in 0..50 {
                eng.insert(BranchId::MASTER, rec(k, k)).unwrap();
            }
            eng.commit(BranchId::MASTER).unwrap();
            let s1 = eng.stats();
            assert!(s1.data_bytes > s0.data_bytes);
            assert!(s1.commit_store_bytes > s0.commit_store_bytes);
            assert_eq!(s1.num_segments, 1);
            assert_eq!(s1.num_commits, 2); // init + explicit
        }
    }

    #[test]
    fn disjoint_branch_writers_do_not_corrupt_each_other() {
        use std::sync::Barrier;
        for (_d, mut eng) in engines() {
            for k in 0..4 {
                eng.insert(BranchId::MASTER, rec(k, k)).unwrap();
            }
            let mut branches = Vec::new();
            for i in 0..4 {
                branches.push(
                    eng.create_branch(&format!("w{i}"), BranchId::MASTER.into())
                        .unwrap(),
                );
            }
            let eng = std::sync::Arc::new(eng);
            let barrier = std::sync::Arc::new(Barrier::new(4));
            let handles: Vec<_> = branches
                .iter()
                .map(|&b| {
                    let eng = std::sync::Arc::clone(&eng);
                    let barrier = std::sync::Arc::clone(&barrier);
                    std::thread::spawn(move || {
                        barrier.wait();
                        for k in 0..50u64 {
                            eng.insert(b, rec(1000 + b.raw() as u64 * 1000 + k, k))
                                .unwrap();
                        }
                        eng.update(b, rec(0, 900 + b.raw() as u64)).unwrap();
                        eng.delete(b, 3).unwrap();
                        eng.commit(b).unwrap()
                    })
                })
                .collect();
            let commits: Vec<CommitId> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            // Each branch sees exactly its own writes; commit snapshots match.
            for (i, &b) in branches.iter().enumerate() {
                assert_eq!(eng.live_count(b.into()).unwrap(), 4 + 50 - 1);
                assert_eq!(
                    eng.get(b.into(), 0).unwrap().unwrap().field(0),
                    900 + b.raw() as u64
                );
                assert_eq!(eng.checkout_version(commits[i]).unwrap(), 53);
            }
            assert_eq!(eng.live_count(BranchId::MASTER.into()).unwrap(), 4);
            // Commit ids are distinct and all stamped in the shared graph.
            let graph = eng.graph();
            let mut ids: Vec<u64> = commits.iter().map(|c| c.raw()).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 4);
            for &c in &commits {
                graph.commit(c).unwrap();
            }
        }
    }
}
