//! Decibel's versioned storage engines and database API.
//!
//! This crate is the paper's primary contribution: a relational storage
//! layer with git-like versioning — branches, commits, checkouts, diffs and
//! merges over tables of records tracked by primary key (§2) — implemented
//! in three interchangeable physical schemes (§3):
//!
//! * tuple-first ([`engine::TupleFirstBranchEngine`],
//!   [`engine::TupleFirstTupleEngine`]) — one shared heap file plus a
//!   per-branch/per-tuple bitmap index, in either bitmap orientation of
//!   §3.1;
//! * [`engine::VersionFirstEngine`] — per-branch segment files chained by
//!   branch points;
//! * [`engine::HybridEngine`] — version-first's segmented layout with
//!   tuple-first's bitmaps attached to each segment plus a global
//!   branch-segment bitmap.
//!
//! Tuple-first and hybrid are one engine, [`engine::SegmentedEngine`]:
//! tuple-first is its configuration whose one segment no fork splits.
//! All of them implement [`store::VersionedStore`]; [`db::Database`] wraps
//! any of them with sessions, branch-level two-phase locking, and the
//! versioned query layer ([`query`]) that expresses the benchmark's four
//! query classes (§4.3).

mod checkpoint;
pub mod cursor;
pub mod db;
pub mod engine;
mod journal;
pub mod merge;
pub mod query;
pub mod session;
pub mod shard;
pub mod store;
pub mod types;

pub use cursor::{MultiScanCursor, ScanCursor};
pub use db::Database;
pub use engine::{
    HybridEngine, SegmentedEngine, TupleFirstBranchEngine, TupleFirstTupleEngine,
    VersionFirstEngine,
};
pub use query::{MultiReadBuilder, ReadBuilder};
pub use session::Session;
pub use shard::{PreparedCommit, SessionOp, ShardSet};
pub use store::VersionedStore;
pub use types::{
    AnnotatedIter, DiffResult, EngineKind, MergePolicy, MergeResult, RecordIter, StoreStats,
    VersionRef,
};
