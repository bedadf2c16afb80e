//! Shared types of the versioned storage API.

use decibel_common::ids::{BranchId, CommitId};
use decibel_common::record::Record;
use decibel_common::Result;

/// Names a version to read: either the working head of a branch or an
/// immutable committed version ("Any version (commit) on any branch may be
/// checked out", §2.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VersionRef {
    /// The current (possibly uncommitted) state of a branch.
    Branch(BranchId),
    /// A committed version.
    Commit(CommitId),
}

impl From<BranchId> for VersionRef {
    fn from(b: BranchId) -> Self {
        VersionRef::Branch(b)
    }
}

impl From<CommitId> for VersionRef {
    fn from(c: CommitId) -> Self {
        VersionRef::Commit(c)
    }
}

/// Streaming record iterator returned by single-version scans.
pub type RecordIter<'a> = Box<dyn Iterator<Item = Result<Record>> + 'a>;

/// Iterator returned by multi-branch scans: each record is annotated with
/// the branches it is live in (Query 4's output is "a list of records
/// annotated with their active branches", §4.3).
pub type AnnotatedIter<'a> = Box<dyn Iterator<Item = Result<(Record, Vec<BranchId>)>> + 'a>;

/// Lending cursor returned by the planned scan pipeline
/// ([`VersionedStore::scan_pipeline`](crate::store::VersionedStore::scan_pipeline)).
///
/// Each step yields a matching row as its **serialized slot on the pinned
/// heap page** ([`Schema::record_size`](decibel_common::schema::Schema::record_size)
/// bytes, valid until the next call) paired with an engine-opaque *resume
/// token* — pass a yielded token back as the pipeline's `from` argument to
/// continue the scan immediately after that row (O(1) for the bitmap
/// engines, key-peeks only for version-first). Nothing is decoded: callers
/// that want a [`Record`] call
/// [`Record::read_projected`], callers that want bytes copy them.
pub trait SlotCursor {
    /// The next matching row, or `None` once the scan is exhausted.
    fn next_slot(&mut self) -> Result<Option<(u64, &[u8])>>;
}

/// Multi-branch variant of [`SlotCursor`] returned by
/// [`VersionedStore::multi_scan_pipeline`](crate::store::VersionedStore::multi_scan_pipeline):
/// each row also carries the requested branches it is live in, in a buffer
/// the cursor reuses from row to row.
pub trait AnnotatedSlotCursor {
    /// The next matching row, or `None` once the scan is exhausted.
    fn next_slot(&mut self) -> Result<Option<AnnotatedSlot<'_>>>;
}

/// What an [`AnnotatedSlotCursor`] lends per row: `(resume token, slot
/// bytes, live branches)`.
pub type AnnotatedSlot<'a> = (u64, &'a [u8], &'a [BranchId]);

/// Result of a [`diff`](crate::store::VersionedStore::diff): the paper's two
/// "temporary tables" (§2.2.3 Difference).
#[derive(Debug, Clone, Default)]
pub struct DiffResult {
    /// Record copies live in the left version but not the right.
    pub left_only: Vec<Record>,
    /// Record copies live in the right version but not the left.
    pub right_only: Vec<Record>,
}

/// Conflict-resolution policy for merges (§2.2.3 Merge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergePolicy {
    /// Tuple-level conflicts: any key whose record copies differ between
    /// the two heads conflicts, and the preferred side's copy wins whole.
    TwoWay {
        /// When true the destination (left) branch takes precedence.
        prefer_left: bool,
    },
    /// Field-level conflicts anchored at the lowest common ancestor:
    /// "non-overlapping field updates are auto-merged and for conflicting
    /// field updates, one branch is given precedence" (§2.2.3).
    ThreeWay {
        /// When true the destination (left) branch wins conflicting fields.
        prefer_left: bool,
    },
}

impl MergePolicy {
    /// Whether the destination branch wins conflicts.
    pub fn prefer_left(self) -> bool {
        match self {
            MergePolicy::TwoWay { prefer_left } | MergePolicy::ThreeWay { prefer_left } => {
                prefer_left
            }
        }
    }
}

/// One conflicting key discovered during a merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict {
    /// The conflicting primary key.
    pub key: u64,
    /// Overlapping field indexes (empty for tuple-level conflicts and for
    /// delete/modify conflicts).
    pub fields: Vec<usize>,
    /// True if the destination branch's values were kept.
    pub resolved_left: bool,
}

/// Outcome of a merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeResult {
    /// The merge commit created on the destination branch.
    pub commit: CommitId,
    /// Conflicts found (already resolved per the policy's precedence).
    pub conflicts: Vec<Conflict>,
    /// Number of records whose destination state changed.
    pub records_changed: u64,
    /// Bytes of record data examined — Table 3 reports merge throughput
    /// "relative to the size of the diff between each pair of branches".
    pub bytes_compared: u64,
}

/// Storage accounting used by the experiment harness (Tables 2, 4, 5, 6).
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreStats {
    /// Bytes of record heap data on disk (including page padding).
    pub data_bytes: u64,
    /// In-memory footprint of live bitmap indexes.
    pub index_bytes: u64,
    /// Aggregate on-disk size of commit history ("pack") files.
    pub commit_store_bytes: u64,
    /// Number of segment files (1 for tuple-first).
    pub num_segments: u32,
    /// Number of commits recorded.
    pub num_commits: u64,
}

/// The storage scheme implemented by an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Tuple-first with a branch-oriented bitmap (§3.1, the paper's default
    /// for evaluation, §5).
    TupleFirstBranch,
    /// Tuple-first with a tuple-oriented bitmap (§3.1).
    TupleFirstTuple,
    /// Version-first segment files (§3.3).
    VersionFirst,
    /// Hybrid segments + bitmaps (§3.4).
    Hybrid,
}

impl EngineKind {
    /// Short label used in benchmark tables (the paper uses TF/VF/HY).
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::TupleFirstBranch => "TF",
            EngineKind::TupleFirstTuple => "TF(tuple)",
            EngineKind::VersionFirst => "VF",
            EngineKind::Hybrid => "HY",
        }
    }

    /// All four engine variants.
    pub fn all() -> [EngineKind; 4] {
        [
            EngineKind::TupleFirstBranch,
            EngineKind::TupleFirstTuple,
            EngineKind::VersionFirst,
            EngineKind::Hybrid,
        ]
    }

    /// Stable identifier used in on-disk manifests (round-trips through
    /// [`EngineKind::from_name`]).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::TupleFirstBranch => "tuple_first_branch",
            EngineKind::TupleFirstTuple => "tuple_first_tuple",
            EngineKind::VersionFirst => "version_first",
            EngineKind::Hybrid => "hybrid",
        }
    }

    /// Parses a manifest identifier written by [`EngineKind::name`].
    pub fn from_name(name: &str) -> Option<EngineKind> {
        EngineKind::all().into_iter().find(|k| k.name() == name)
    }

    /// The three headline engines the paper's figures compare (TF with its
    /// evaluation-default branch-oriented bitmap, §5).
    pub fn headline() -> [EngineKind; 3] {
        [
            EngineKind::TupleFirstBranch,
            EngineKind::VersionFirst,
            EngineKind::Hybrid,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_ref_conversions() {
        assert_eq!(
            VersionRef::from(BranchId(1)),
            VersionRef::Branch(BranchId(1))
        );
        assert_eq!(
            VersionRef::from(CommitId(2)),
            VersionRef::Commit(CommitId(2))
        );
    }

    #[test]
    fn policy_precedence() {
        assert!(MergePolicy::TwoWay { prefer_left: true }.prefer_left());
        assert!(!MergePolicy::ThreeWay { prefer_left: false }.prefer_left());
    }

    #[test]
    fn engine_names_round_trip() {
        for kind in EngineKind::all() {
            assert_eq!(EngineKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(EngineKind::from_name("no_such_engine"), None);
    }

    #[test]
    fn engine_labels_are_paper_labels() {
        assert_eq!(EngineKind::TupleFirstBranch.label(), "TF");
        assert_eq!(EngineKind::VersionFirst.label(), "VF");
        assert_eq!(EngineKind::Hybrid.label(), "HY");
        assert_eq!(EngineKind::all().len(), 4);
        assert_eq!(EngineKind::headline().len(), 3);
    }
}
