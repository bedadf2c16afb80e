//! The versioned query layer.
//!
//! Decibel "can support arbitrary declarative queries comparing multiple
//! versions" (§2.2.3) through VQuel \[7\]; the paper evaluates the four query
//! classes of Table 1 / §4.3. This module provides a small declarative
//! query AST covering those classes (plus aggregates), executed against any
//! [`VersionedStore`](crate::store::VersionedStore):
//!
//! * [`Query::ScanVersion`] — Table 1 #1 / benchmark Q1: all records of one
//!   version satisfying a predicate;
//! * [`Query::PositiveDiff`] — Table 1 #2 / Q2: records in the left version
//!   whose copy is not in the right;
//! * [`Query::VersionJoin`] — Table 1 #3 / Q3: primary-key join of two
//!   versions with a predicate on the left side;
//! * [`Query::HeadScan`] — Table 1 #4 / Q4: records live in the head of any
//!   branch, annotated with their branches;
//! * [`Query::Aggregate`] — grouped-by-nothing aggregates over a version.
//!
//! The enum is the *internal plan representation*; the primary entry point
//! is the fluent [`build`] module reached through
//! [`Database::read`](crate::db::Database::read) and friends, which
//! assembles these plans and executes them under the database's shared
//! read lock.

pub mod build;
pub mod exec;
pub mod plan;
pub mod predicate;

pub use build::{MultiReadBuilder, ReadBuilder};
pub use exec::{execute, execute_metered, QueryOutput, ScanMetrics};
pub use plan::{PagePredicate, ScanPlan};
pub use predicate::Predicate;

use decibel_common::ids::BranchId;
use decibel_common::Projection;

use crate::types::VersionRef;

/// Aggregate functions over a data column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// Number of qualifying records.
    Count,
    /// Sum of the column.
    Sum,
    /// Minimum of the column.
    Min,
    /// Maximum of the column.
    Max,
    /// Mean of the column.
    Avg,
}

/// A declarative query against a versioned store.
#[derive(Debug, Clone)]
pub enum Query {
    /// `SELECT <projection> FROM R WHERE R.Version = v AND <predicate>`.
    ScanVersion {
        /// The version to scan.
        version: VersionRef,
        /// Row filter.
        predicate: Predicate,
        /// Columns to materialize (non-projected fields read `0`).
        projection: Projection,
    },
    /// `SELECT * FROM R WHERE Version = left AND id NOT IN (SELECT id FROM
    /// R WHERE Version = right)` — by record copy, as the engines diff.
    PositiveDiff {
        /// Version whose exclusive records are returned.
        left: VersionRef,
        /// Version subtracted from the left.
        right: VersionRef,
    },
    /// `SELECT * FROM R r1, R r2 WHERE r1.Version = left AND r2.Version =
    /// right AND r1.id = r2.id AND <predicate>(r1)`.
    VersionJoin {
        /// Left (probe/filter) version.
        left: VersionRef,
        /// Right (build) version.
        right: VersionRef,
        /// Predicate applied to the left record (Table 1 #3 filters one
        /// side, `R1.Name = 'Sam'`).
        predicate: Predicate,
    },
    /// `SELECT * FROM R WHERE HEAD(R.Version) = true AND <predicate>`,
    /// annotated with each record's containing branches.
    HeadScan {
        /// Row filter.
        predicate: Predicate,
        /// Restrict to non-retired branches.
        active_only: bool,
        /// Columns to materialize (non-projected fields read `0`).
        projection: Projection,
    },
    /// A single aggregate over one version.
    Aggregate {
        /// The version to aggregate.
        version: VersionRef,
        /// Data-column index (ignored for `Count`).
        column: usize,
        /// The aggregate function.
        agg: AggKind,
        /// Row filter applied before aggregation.
        predicate: Predicate,
    },
    /// Multi-branch scan over an explicit branch list (the generalized Q4
    /// the storage engines expose).
    MultiBranchScan {
        /// The branches to scan.
        branches: Vec<BranchId>,
        /// Row filter.
        predicate: Predicate,
        /// Columns to materialize (non-projected fields read `0`).
        projection: Projection,
    },
}
