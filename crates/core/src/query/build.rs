//! The fluent query builder — the primary read surface of
//! [`Database`](crate::db::Database).
//!
//! Builders assemble the internal [`Query`] plan and execute it under the
//! database's shared read lock, so concurrent readers proceed in parallel.
//! [`MultiReadBuilder::parallel`] additionally requests *intra*-query
//! parallelism: the plan routes through
//! [`VersionedStore::par_multi_scan`](crate::store::VersionedStore::par_multi_scan)
//! (the hybrid engine's work-stealing per-segment scan) without any
//! downcasting.
//!
//! Each terminal is a single-statement **read-committed snapshot**:
//! transactions apply atomically under the store's write lock, so a
//! terminal never observes a partial transaction — but builders take no
//! branch-level 2PL lock, so two consecutive terminals may observe
//! different commits. For multi-statement reads that must be stable
//! against concurrent committers, use a
//! [`Session`](crate::session::Session), whose reads take the shared
//! branch lock.
//!
//! ```
//! use decibel_core::query::Predicate;
//! use decibel_core::{Database, EngineKind, VersionRef};
//! use decibel_common::ids::BranchId;
//! use decibel_common::record::Record;
//! use decibel_common::schema::{ColumnType, Schema};
//! use decibel_pagestore::StoreConfig;
//!
//! let dir = tempfile::tempdir().unwrap();
//! let db = Database::create(
//!     dir.path(),
//!     EngineKind::Hybrid,
//!     Schema::new(2, ColumnType::U32),
//!     &StoreConfig::default(),
//! )
//! .unwrap();
//! let mut session = db.session();
//! for k in 0..10u64 {
//!     session.insert(Record::new(k, vec![k, k % 2])).unwrap();
//! }
//! session.commit().unwrap();
//! let dev = session.branch("dev").unwrap();
//! session.insert(Record::new(100, vec![7, 1])).unwrap();
//! session.commit().unwrap();
//!
//! // Single-version read with a filter.
//! let evens = db
//!     .read(VersionRef::Branch(BranchId::MASTER))
//!     .filter(Predicate::ColEq(1, 0))
//!     .collect()
//!     .unwrap();
//! assert_eq!(evens.len(), 5);
//!
//! // Multi-branch annotated read, fanned out over 4 scan threads.
//! let rows = db
//!     .read_branches(&[BranchId::MASTER, dev])
//!     .parallel(4)
//!     .annotated()
//!     .unwrap();
//! assert_eq!(rows.len(), 11); // 10 shared rows + 1 dev-only row
//! assert!(rows.iter().any(|(r, live)| r.key() == 100 && live == &vec![dev]));
//! ```

use decibel_common::ids::BranchId;
use decibel_common::record::Record;
use decibel_common::{Projection, Result};

use crate::db::Database;
use crate::query::{execute, AggKind, Predicate, Query, QueryOutput};
use crate::store::VersionedStore;
use crate::types::VersionRef;

/// Combines filters: chaining `.filter(a).filter(b)` means `a AND b`.
fn and(current: Predicate, next: Predicate) -> Predicate {
    if matches!(current, Predicate::True) {
        next
    } else {
        Predicate::And(Box::new(current), Box::new(next))
    }
}

/// A fluent single-version read: created by
/// [`Database::read`](crate::db::Database::read), finished by a terminal
/// ([`collect`](ReadBuilder::collect), [`count`](ReadBuilder::count),
/// [`aggregate`](ReadBuilder::aggregate), [`minus`](ReadBuilder::minus),
/// [`join`](ReadBuilder::join)) that executes under the shared read lock.
#[must_use = "builders do nothing until a terminal method runs them"]
pub struct ReadBuilder<'a> {
    db: &'a Database,
    version: VersionRef,
    predicate: Predicate,
    projection: Projection,
}

impl<'a> ReadBuilder<'a> {
    pub(crate) fn new(db: &'a Database, version: VersionRef) -> Self {
        ReadBuilder {
            db,
            version,
            predicate: Predicate::True,
            projection: Projection::All,
        }
    }

    /// Adds a row filter (chained filters are ANDed).
    pub fn filter(mut self, predicate: Predicate) -> Self {
        self.predicate = and(self.predicate, predicate);
        self
    }

    /// Restricts [`collect`](ReadBuilder::collect) to the given data
    /// columns: the scan decodes only those columns from page bytes, and
    /// non-projected fields of the returned records read `0`. Chained
    /// selects union. Filters still see every column (the predicate runs
    /// against raw page bytes before materialization); an out-of-range
    /// column fails the terminal with
    /// [`DbError::Invalid`](decibel_common::DbError::Invalid).
    pub fn select(mut self, cols: &[usize]) -> Self {
        self.projection = self.projection.narrow(cols);
        self
    }

    /// The internal plan this builder executes (the benchmark's Q1 shape).
    pub fn plan(self) -> Query {
        Query::ScanVersion {
            version: self.version,
            predicate: self.predicate,
            projection: self.projection,
        }
    }

    /// Materializes the qualifying records.
    pub fn collect(self) -> Result<Vec<Record>> {
        let db = self.db;
        match db.query(&self.plan())? {
            QueryOutput::Records(rows) => Ok(rows),
            _ => unreachable!("ScanVersion returns records"),
        }
    }

    /// Counts the qualifying records without materializing them.
    pub fn count(self) -> Result<u64> {
        let q = Query::Aggregate {
            version: self.version,
            column: 0,
            agg: AggKind::Count,
            predicate: self.predicate,
        };
        match self.db.query(&q)? {
            QueryOutput::Scalar(x) => Ok(x as u64),
            _ => unreachable!("Aggregate returns a scalar"),
        }
    }

    /// Runs a single aggregate over data column `column`.
    pub fn aggregate(self, column: usize, agg: AggKind) -> Result<f64> {
        let q = Query::Aggregate {
            version: self.version,
            column,
            agg,
            predicate: self.predicate,
        };
        match self.db.query(&q)? {
            QueryOutput::Scalar(x) => Ok(x),
            _ => unreachable!("Aggregate returns a scalar"),
        }
    }

    /// Positive diff (the benchmark's Q2): qualifying records of this
    /// version whose copy is not live in `right`.
    pub fn minus(self, right: impl Into<VersionRef>) -> Result<Vec<Record>> {
        let q = Query::PositiveDiff {
            left: self.version,
            right: right.into(),
        };
        let rows = match self.db.query(&q)? {
            QueryOutput::Records(rows) => rows,
            _ => unreachable!("PositiveDiff returns records"),
        };
        Ok(rows
            .into_iter()
            .filter(|r| self.predicate.eval(r))
            .collect())
    }

    /// Primary-key join against `right` (the benchmark's Q3); the filter
    /// applies to this (left) side.
    pub fn join(self, right: impl Into<VersionRef>) -> Result<Vec<(Record, Record)>> {
        let q = Query::VersionJoin {
            left: self.version,
            right: right.into(),
            predicate: self.predicate,
        };
        match self.db.query(&q)? {
            QueryOutput::Joined(pairs) => Ok(pairs),
            _ => unreachable!("VersionJoin returns pairs"),
        }
    }
}

/// Which branches a [`MultiReadBuilder`] scans.
pub(crate) enum BranchSel {
    /// An explicit branch list (the generalized Q4).
    Explicit(Vec<BranchId>),
    /// Every branch head, resolved at execution time under the same read
    /// lock as the scan (the paper's Q4).
    Heads {
        /// Restrict to non-retired branches.
        active_only: bool,
    },
}

/// A fluent multi-branch annotated read: created by
/// [`Database::read_branches`](crate::db::Database::read_branches) or
/// [`Database::read_heads`](crate::db::Database::read_heads).
#[must_use = "builders do nothing until a terminal method runs them"]
pub struct MultiReadBuilder<'a> {
    db: &'a Database,
    sel: BranchSel,
    predicate: Predicate,
    parallel: usize,
    projection: Projection,
}

impl<'a> MultiReadBuilder<'a> {
    pub(crate) fn new(db: &'a Database, sel: BranchSel) -> Self {
        MultiReadBuilder {
            db,
            sel,
            predicate: Predicate::True,
            parallel: 1,
            projection: Projection::All,
        }
    }

    /// Adds a row filter (chained filters are ANDed).
    pub fn filter(mut self, predicate: Predicate) -> Self {
        self.predicate = and(self.predicate, predicate);
        self
    }

    /// Restricts [`annotated`](MultiReadBuilder::annotated) to the given
    /// data columns — same semantics as
    /// [`ReadBuilder::select`](ReadBuilder::select). Branch annotations
    /// are computed before projection and are unaffected by it.
    pub fn select(mut self, cols: &[usize]) -> Self {
        self.projection = self.projection.narrow(cols);
        self
    }

    /// Requests intra-query parallelism: fan the scan out over up to
    /// `threads` workers (values ≤ 1 scan sequentially). Engines without a
    /// parallel scan fall back to the sequential path with identical
    /// results.
    pub fn parallel(mut self, threads: usize) -> Self {
        self.parallel = threads;
        self
    }

    /// Materializes the scan: every qualifying record annotated with the
    /// branches it is live in (the paper's Q4 output shape).
    pub fn annotated(self) -> Result<Vec<(Record, Vec<BranchId>)>> {
        let MultiReadBuilder {
            db,
            sel,
            predicate,
            parallel,
            projection,
        } = self;
        db.with_store(|store| {
            let branches = resolve(store, &sel);
            let q = Query::MultiBranchScan {
                branches,
                predicate,
                parallel,
                projection,
            };
            match execute(store, &q)? {
                QueryOutput::Annotated(rows) => Ok(rows),
                _ => unreachable!("MultiBranchScan returns annotated rows"),
            }
        })
    }

    /// Counts the qualifying (record, branch-set) rows by streaming the
    /// sequential scan (slots are counted, never decoded) — the [`parallel`](MultiReadBuilder::parallel) hint (which
    /// exists to parallelize materialization) does not apply here.
    pub fn count(self) -> Result<u64> {
        let MultiReadBuilder {
            db, sel, predicate, ..
        } = self;
        db.with_store(|store| {
            let branches = resolve(store, &sel);
            let plan = crate::query::plan::ScanPlan::filter_only(predicate);
            let mut n = 0u64;
            let mut cursor = store.multi_scan_pipeline(&branches, &plan, 0)?;
            while let Some((_, _, live)) = cursor.next_slot()? {
                n += u64::from(!live.is_empty());
            }
            Ok(n)
        })
    }
}

fn resolve(store: &dyn VersionedStore, sel: &BranchSel) -> Vec<BranchId> {
    match sel {
        BranchSel::Explicit(branches) => branches.clone(),
        BranchSel::Heads { active_only } => store
            .graph()
            .heads(*active_only)
            .into_iter()
            .map(|(b, _)| b)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::EngineKind;
    use decibel_common::schema::{ColumnType, Schema};
    use decibel_pagestore::StoreConfig;
    use std::sync::Arc;

    fn setup() -> (tempfile::TempDir, Arc<Database>, BranchId) {
        let dir = tempfile::tempdir().unwrap();
        let db = Database::create(
            dir.path().join("db"),
            EngineKind::Hybrid,
            Schema::new(2, ColumnType::U32),
            &StoreConfig::test_default(),
        )
        .unwrap();
        let mut s = db.session();
        for k in 0..20u64 {
            s.insert(Record::new(k, vec![k * 10, k % 4])).unwrap();
        }
        s.commit().unwrap();
        let dev = s.branch("dev").unwrap();
        s.update(Record::new(3, vec![999, 9])).unwrap();
        s.insert(Record::new(100, vec![1000, 0])).unwrap();
        s.commit().unwrap();
        (dir, db, dev)
    }

    #[test]
    fn filter_chaining_is_conjunction() {
        let (_d, db, _) = setup();
        let rows = db
            .read(VersionRef::Branch(BranchId::MASTER))
            .filter(Predicate::ColGe(0, 50))
            .filter(Predicate::ColEq(1, 0))
            .collect()
            .unwrap();
        // keys 8, 12, 16 (k*10 >= 50 and k % 4 == 0).
        let keys: Vec<u64> = rows.iter().map(|r| r.key()).collect();
        assert_eq!(keys, vec![8, 12, 16]);
    }

    #[test]
    fn count_and_aggregate_agree_with_collect() {
        let (_d, db, _) = setup();
        let b = || db.read(VersionRef::Branch(BranchId::MASTER));
        assert_eq!(b().count().unwrap(), 20);
        assert_eq!(b().collect().unwrap().len() as u64, b().count().unwrap());
        assert_eq!(b().aggregate(0, AggKind::Max).unwrap(), 190.0);
    }

    #[test]
    fn minus_is_positive_diff() {
        let (_d, db, dev) = setup();
        let mut keys: Vec<u64> = db
            .read(VersionRef::Branch(dev))
            .minus(BranchId::MASTER)
            .unwrap()
            .iter()
            .map(|r| r.key())
            .collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![3, 100]);
    }

    #[test]
    fn join_filters_left_side() {
        let (_d, db, dev) = setup();
        let pairs = db
            .read(VersionRef::Branch(dev))
            .filter(Predicate::ColGe(0, 900))
            .join(BranchId::MASTER)
            .unwrap();
        // Key 3 qualifies on dev and exists in master; key 100 does not
        // exist in master.
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].0.field(0), 999);
        assert_eq!(pairs[0].1.field(0), 30);
    }

    #[test]
    fn parallel_annotated_matches_sequential() {
        let (_d, db, dev) = setup();
        let seq = db
            .read_branches(&[BranchId::MASTER, dev])
            .annotated()
            .unwrap();
        for threads in [2usize, 4, 16] {
            let par = db
                .read_branches(&[BranchId::MASTER, dev])
                .parallel(threads)
                .annotated()
                .unwrap();
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn read_heads_covers_every_branch() {
        let (_d, db, dev) = setup();
        let rows = db.read_heads(true).parallel(4).annotated().unwrap();
        // 19 unchanged rows live in both, key 3 has two copies, key 100 in
        // dev only: 22 rows.
        assert_eq!(rows.len(), 22);
        assert!(rows
            .iter()
            .any(|(r, live)| r.key() == 100 && live == &vec![dev]));
    }
}
