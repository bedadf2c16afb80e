//! The three physical storage schemes (§3).

pub mod hybrid;
mod pk;
pub mod scan;
pub mod tuple_first;
pub mod version_first;

pub use hybrid::HybridEngine;
pub use tuple_first::{TupleFirstBranchEngine, TupleFirstEngine, TupleFirstTupleEngine};
pub use version_first::VersionFirstEngine;
