//! The three physical storage schemes (§3), in two engines: version-first,
//! and the segmented engine, which is hybrid or — as its one-segment
//! configuration — tuple-first.

pub mod hybrid;
mod pk;
pub mod scan;
pub mod tuple_first;
pub mod version_first;

pub use hybrid::{HybridEngine, SegmentedEngine};
pub use tuple_first::{TupleFirstBranchEngine, TupleFirstTupleEngine};
pub use version_first::VersionFirstEngine;
