//! Query execution against any [`VersionedStore`].

use decibel_common::hash::FxHashMap;
use decibel_common::ids::BranchId;
use decibel_common::record::Record;
use decibel_common::{DbError, Result};
use decibel_obs::{family, Counter, Histogram, Registry};

use crate::query::plan::ScanPlan;
use crate::query::{AggKind, Query};
use crate::store::VersionedStore;

/// Read-path instruments (the `scan` metric family), shared by the
/// materializing executor and the chunked cursors.
///
/// `rows_scanned` counts slots the engine pipelines yielded to the query
/// layer (candidates that survived page-level filtering, including rows a
/// later liveness/overlay check drops); `rows_emitted` counts rows actually
/// returned to the caller; their ratio is the post-pipeline selectivity,
/// which `selectivity_pct` records per materialized query. Every scan is
/// planned and counts under `plans_pushdown`; no path increments
/// `scan/plans_full_decode` any more — it stays registered for the
/// append-only schema audit. Counting happens in
/// per-query locals and is flushed to the shared counters once per query
/// (or once per cursor chunk), so the per-row cost is a register increment.
#[derive(Clone)]
pub struct ScanMetrics {
    pub(crate) queries: Counter,
    pub(crate) rows_scanned: Counter,
    pub(crate) rows_emitted: Counter,
    pub(crate) plans_pushdown: Counter,
    pub(crate) query_us: Histogram,
    pub(crate) selectivity_pct: Histogram,
}

impl ScanMetrics {
    /// Registers the scan-family instruments in `metrics`.
    pub fn register(metrics: &Registry) -> ScanMetrics {
        // Always zero now; registered so the schema stays append-only.
        metrics.counter(family::SCAN, "plans_full_decode");
        ScanMetrics {
            queries: metrics.counter(family::SCAN, "queries"),
            rows_scanned: metrics.counter(family::SCAN, "rows_scanned"),
            rows_emitted: metrics.counter(family::SCAN, "rows_emitted"),
            plans_pushdown: metrics.counter(family::SCAN, "plans_pushdown"),
            query_us: metrics.histogram(family::SCAN, "query_us"),
            selectivity_pct: metrics.histogram(family::SCAN, "selectivity_pct"),
        }
    }

    /// Instruments bound to no registry — for callers executing queries
    /// outside a [`Database`](crate::db::Database) (engine-level tests,
    /// the benchmark's raw-store harness).
    pub fn detached() -> ScanMetrics {
        ScanMetrics {
            queries: Counter::detached(),
            rows_scanned: Counter::detached(),
            rows_emitted: Counter::detached(),
            plans_pushdown: Counter::detached(),
            query_us: Histogram::detached(),
            selectivity_pct: Histogram::detached(),
        }
    }

    /// Flushes one query's row tallies into the shared counters.
    fn finish_rows(&self, scanned: u64, emitted: u64) {
        self.rows_scanned.add(scanned);
        self.rows_emitted.add(emitted);
        if let Some(pct) = (emitted * 100).checked_div(scanned) {
            self.selectivity_pct.record(pct);
        }
    }
}

/// The result of executing a [`Query`].
#[derive(Debug, Clone)]
pub enum QueryOutput {
    /// Plain record rows (Q1, Q2).
    Records(Vec<Record>),
    /// Records annotated with their containing branches (Q4).
    Annotated(Vec<(Record, Vec<BranchId>)>),
    /// Joined record pairs (Q3).
    Joined(Vec<(Record, Record)>),
    /// A single aggregate value.
    Scalar(f64),
}

impl QueryOutput {
    /// Number of output rows (1 for scalars).
    pub fn len(&self) -> usize {
        match self {
            QueryOutput::Records(v) => v.len(),
            QueryOutput::Annotated(v) => v.len(),
            QueryOutput::Joined(v) => v.len(),
            QueryOutput::Scalar(_) => 1,
        }
    }

    /// True if no rows qualified.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Unwraps plain records, panicking on other shapes (test helper).
    pub fn into_records(self) -> Vec<Record> {
        match self {
            QueryOutput::Records(v) => v,
            other => panic!("expected Records, got {other:?}"),
        }
    }
}

/// Executes a query against a store.
///
/// Scan-shaped queries (`ScanVersion`, `HeadScan`, `MultiBranchScan`,
/// `Aggregate`) route through the planned pipeline
/// ([`VersionedStore::scan_pipeline`]): predicates are evaluated against
/// pinned page bytes and each surviving slot is decoded here, under the
/// query's projection ([`Record::read_projected`]). Aggregates build no
/// record at all: `Count` only counts slots, the others read the one
/// aggregated field off the slot.
pub fn execute(store: &dyn VersionedStore, query: &Query) -> Result<QueryOutput> {
    execute_metered(store, query, &ScanMetrics::detached())
}

/// [`execute`] with row/plan/latency tallies recorded in `m` — the path
/// behind [`Database::query`](crate::db::Database::query). Tallies are
/// accumulated in locals and flushed once per query.
pub fn execute_metered(
    store: &dyn VersionedStore,
    query: &Query,
    m: &ScanMetrics,
) -> Result<QueryOutput> {
    m.queries.inc();
    let span = m.query_us.start();
    let mut scanned = 0u64;
    let out = match query {
        Query::ScanVersion {
            version,
            predicate,
            projection,
        } => {
            projection.validate(store.schema())?;
            let plan = ScanPlan::new(predicate.clone(), projection.clone());
            m.plans_pushdown.inc();
            let schema = store.schema();
            let mut out = Vec::new();
            let mut cursor = store.scan_pipeline(*version, &plan, 0)?;
            while let Some((_, slot)) = cursor.next_slot()? {
                out.push(Record::read_projected(schema, slot, projection)?);
            }
            scanned += out.len() as u64;
            QueryOutput::Records(out)
        }
        Query::PositiveDiff { left, right } => {
            QueryOutput::Records(store.diff(*left, *right)?.left_only)
        }
        Query::VersionJoin {
            left,
            right,
            predicate,
        } => {
            // Hash join on the primary key: build on the right version,
            // probe with the (filtered) left version — the shape the paper
            // uses for Q3 ("we perform a hash join ... and report the
            // intersection incrementally", §5.2).
            let mut build: FxHashMap<u64, Record> = FxHashMap::default();
            for item in store.scan(*right)? {
                let rec = item?;
                scanned += 1;
                build.insert(rec.key(), rec);
            }
            let mut out = Vec::new();
            for item in store.scan(*left)? {
                let rec = item?;
                scanned += 1;
                if predicate.eval(&rec) {
                    if let Some(other) = build.get(&rec.key()) {
                        out.push((rec, other.clone()));
                    }
                }
            }
            QueryOutput::Joined(out)
        }
        Query::HeadScan {
            predicate,
            active_only,
            projection,
        } => {
            projection.validate(store.schema())?;
            let branches: Vec<BranchId> = store
                .graph()
                .heads(*active_only)
                .into_iter()
                .map(|(b, _)| b)
                .collect();
            let plan = ScanPlan::new(predicate.clone(), projection.clone());
            m.plans_pushdown.inc();
            QueryOutput::Annotated(collect_annotated(store, &branches, &plan, &mut scanned)?)
        }
        Query::MultiBranchScan {
            branches,
            predicate,
            projection,
        } => {
            projection.validate(store.schema())?;
            let plan = ScanPlan::new(predicate.clone(), projection.clone());
            m.plans_pushdown.inc();
            QueryOutput::Annotated(collect_annotated(store, branches, &plan, &mut scanned)?)
        }
        Query::Aggregate {
            version,
            column,
            agg,
            predicate,
        } => {
            if *agg != AggKind::Count && *column >= store.schema().num_columns() {
                return Err(DbError::Invalid(format!(
                    "aggregate column {column} out of range"
                )));
            }
            let plan = ScanPlan::filter_only(predicate.clone());
            m.plans_pushdown.inc();
            let schema = store.schema();
            let mut count = 0u64;
            let mut sum = 0f64;
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            let mut cursor = store.scan_pipeline(*version, &plan, 0)?;
            while let Some((_, slot)) = cursor.next_slot()? {
                count += 1;
                if *agg != AggKind::Count {
                    let v = Record::read_raw_field(schema, slot, *column) as f64;
                    sum += v;
                    min = min.min(v);
                    max = max.max(v);
                }
            }
            scanned += count;
            let value = match agg {
                AggKind::Count => count as f64,
                AggKind::Sum => sum,
                AggKind::Min => {
                    if count == 0 {
                        f64::NAN
                    } else {
                        min
                    }
                }
                AggKind::Max => {
                    if count == 0 {
                        f64::NAN
                    } else {
                        max
                    }
                }
                AggKind::Avg => {
                    if count == 0 {
                        f64::NAN
                    } else {
                        sum / count as f64
                    }
                }
            };
            QueryOutput::Scalar(value)
        }
    };
    span.finish();
    m.finish_rows(scanned, out.len() as u64);
    Ok(out)
}

/// Drains the multi-branch pipeline into annotated records,
/// adding the slots it yielded to `scanned`.
fn collect_annotated(
    store: &dyn VersionedStore,
    branches: &[BranchId],
    plan: &ScanPlan,
    scanned: &mut u64,
) -> Result<Vec<(Record, Vec<BranchId>)>> {
    let schema = store.schema();
    let mut out = Vec::new();
    let mut cursor = store.multi_scan_pipeline(branches, plan, 0)?;
    while let Some((_, slot, live)) = cursor.next_slot()? {
        *scanned += 1;
        if !live.is_empty() {
            let rec = Record::read_projected(schema, slot, &plan.projection)?;
            out.push((rec, live.to_vec()));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TupleFirstBranchEngine;
    use crate::query::Predicate;
    use crate::types::VersionRef;
    use decibel_common::ids::BranchId;
    use decibel_common::schema::{ColumnType, Schema};
    use decibel_common::Projection;
    use decibel_pagestore::StoreConfig;

    fn store() -> (tempfile::TempDir, TupleFirstBranchEngine, BranchId) {
        let dir = tempfile::tempdir().unwrap();
        let mut eng = TupleFirstBranchEngine::init(
            crate::types::EngineKind::TupleFirstBranch,
            dir.path().join("q"),
            Schema::new(2, ColumnType::U32),
            &StoreConfig::test_default(),
        )
        .unwrap();
        for k in 0..10u64 {
            eng.insert(BranchId::MASTER, Record::new(k, vec![k * 10, k % 3]))
                .unwrap();
        }
        let dev = eng.create_branch("dev", BranchId::MASTER.into()).unwrap();
        eng.insert(dev, Record::new(100, vec![1000, 0])).unwrap();
        eng.update(dev, Record::new(3, vec![999, 9])).unwrap();
        (dir, eng, dev)
    }

    #[test]
    fn q1_scan_with_predicate() {
        let (_d, eng, _) = store();
        let out = execute(
            &eng,
            &Query::ScanVersion {
                version: VersionRef::Branch(BranchId::MASTER),
                predicate: Predicate::ColEq(1, 0),
                projection: Projection::all(),
            },
        )
        .unwrap();
        // Keys with k % 3 == 0: 0, 3, 6, 9.
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn q2_positive_diff() {
        let (_d, eng, dev) = store();
        let out = execute(
            &eng,
            &Query::PositiveDiff {
                left: VersionRef::Branch(dev),
                right: VersionRef::Branch(BranchId::MASTER),
            },
        )
        .unwrap();
        let mut keys: Vec<u64> = out.into_records().iter().map(|r| r.key()).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![3, 100]);
    }

    #[test]
    fn q3_version_join() {
        let (_d, eng, dev) = store();
        let out = execute(
            &eng,
            &Query::VersionJoin {
                left: VersionRef::Branch(dev),
                right: VersionRef::Branch(BranchId::MASTER),
                predicate: Predicate::ColGe(0, 900),
            },
        )
        .unwrap();
        match out {
            QueryOutput::Joined(pairs) => {
                // Only key 3 passes the predicate on dev AND exists in
                // master (100 does not exist in master).
                assert_eq!(pairs.len(), 1);
                assert_eq!(pairs[0].0.key(), 3);
                assert_eq!(pairs[0].0.field(0), 999);
                assert_eq!(pairs[0].1.field(0), 30);
            }
            other => panic!("expected join output, got {other:?}"),
        }
    }

    #[test]
    fn q4_head_scan() {
        let (_d, eng, dev) = store();
        let out = execute(
            &eng,
            &Query::HeadScan {
                predicate: Predicate::True,
                active_only: true,
                projection: Projection::all(),
            },
        )
        .unwrap();
        match out {
            QueryOutput::Annotated(rows) => {
                // 9 unchanged records live in both branches, key 3 has two
                // distinct copies, key 100 in dev only: 12 rows.
                assert_eq!(rows.len(), 12);
                let both = rows.iter().filter(|(_, b)| b.len() == 2).count();
                assert_eq!(both, 9);
                let dev_only: Vec<u64> = rows
                    .iter()
                    .filter(|(_, b)| b == &vec![dev])
                    .map(|(r, _)| r.key())
                    .collect();
                assert_eq!(dev_only.len(), 2);
                assert!(dev_only.contains(&100));
                assert!(dev_only.contains(&3));
            }
            other => panic!("expected annotated output, got {other:?}"),
        }
    }

    #[test]
    fn aggregates() {
        let (_d, eng, _) = store();
        let v = VersionRef::Branch(BranchId::MASTER);
        let run = |agg, column| match execute(
            &eng,
            &Query::Aggregate {
                version: v,
                column,
                agg,
                predicate: Predicate::True,
            },
        )
        .unwrap()
        {
            QueryOutput::Scalar(x) => x,
            _ => unreachable!(),
        };
        assert_eq!(run(AggKind::Count, 0), 10.0);
        assert_eq!(run(AggKind::Sum, 0), 450.0);
        assert_eq!(run(AggKind::Min, 0), 0.0);
        assert_eq!(run(AggKind::Max, 0), 90.0);
        assert_eq!(run(AggKind::Avg, 0), 45.0);
    }

    #[test]
    fn aggregate_empty_set_is_nan() {
        let (_d, eng, _) = store();
        let out = execute(
            &eng,
            &Query::Aggregate {
                version: VersionRef::Branch(BranchId::MASTER),
                column: 0,
                agg: AggKind::Avg,
                predicate: Predicate::ColGe(0, 1_000_000),
            },
        )
        .unwrap();
        match out {
            QueryOutput::Scalar(x) => assert!(x.is_nan()),
            _ => unreachable!(),
        }
    }
}
