//! Bitmap machinery for the Decibel reproduction.
//!
//! Tuple-first "relies on a bitmap index with one bit per branch per tuple
//! to annotate the branches a tuple is active in" (§3.2), and hybrid applies
//! "local bitmap indexes for each of the fragmented heap files as well as a
//! single, global bitmap index" (§3.1). The paper describes two physical
//! orientations (§3.1):
//!
//! * **branch-oriented** ([`branch_index::BranchBitmapIndex`]) — one bitmap
//!   per branch, each in its own growable block of memory;
//! * **tuple-oriented** ([`tuple_index::TupleBitmapIndex`]) — one bit-row per
//!   tuple, all rows in a single block, doubled when the branch count
//!   overflows the row width.
//!
//! Both implement [`index::VersionIndex`], so the segmented engine behind
//! tuple-first and hybrid is generic over orientation and the paper's
//! orientation trade-off (§5: "resolving which tuples are live in a branch
//! is much faster with a branch-oriented bitmap") is an ablation, not a
//! fork of the code.
//!
//! Commit snapshots are persisted by [`commit_store::CommitStore`] using the
//! paper's scheme (§3.2): XOR deltas between consecutive commit bitmaps,
//! run-length encoded ([`rle`]), chained linearly, with a second "layer" of
//! composite deltas to bound checkout chain length.

pub mod bitmap;
pub mod branch_index;
pub mod commit_store;
pub mod index;
pub mod rle;
pub mod tuple_index;

pub use bitmap::Bitmap;
pub use branch_index::BranchBitmapIndex;
pub use commit_store::CommitStore;
pub use index::VersionIndex;
pub use tuple_index::TupleBitmapIndex;
