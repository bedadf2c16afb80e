//! The version-index abstraction shared by both bitmap orientations.

use std::borrow::Cow;

use decibel_common::ids::BranchId;

use crate::bitmap::Bitmap;

/// A bitmap index mapping (branch, record row) → liveness.
///
/// The segmented engine is generic over this trait so the paper's two
/// physical orientations (§3.1) — branch-oriented and tuple-oriented — can
/// be compared without forking engine code: tuple-first runs on either,
/// hybrid on the branch-oriented one for its per-segment local indexes.
pub trait VersionIndex: Send + Sync {
    /// Number of record rows tracked (rows are dense `0..num_rows`).
    fn num_rows(&self) -> u64;

    /// Number of branches registered.
    fn num_branches(&self) -> usize;

    /// Whether `b` has been registered.
    fn has_branch(&self, b: BranchId) -> bool;

    /// Registers branch `b`. When `parent` is given, the new branch starts
    /// as a copy of the parent's liveness column — the paper's branch
    /// operation "clones the state of the parent branch's bitmap" (§3.2).
    fn add_branch(&mut self, b: BranchId, parent: Option<BranchId>);

    /// Extends the row space to at least `rows` (new rows dead everywhere).
    fn ensure_rows(&mut self, rows: u64);

    /// Sets the liveness bit of `row` in branch `b`.
    fn set(&mut self, b: BranchId, row: u64, v: bool);

    /// Reads the liveness bit of `row` in branch `b`.
    fn get(&self, b: BranchId, row: u64) -> bool;

    /// Materializes branch `b`'s liveness column as a [`Bitmap`].
    ///
    /// Branch-oriented indexes return a clone of the stored column;
    /// tuple-oriented indexes must walk every row — the cost asymmetry the
    /// paper calls out ("in the latter case the entire bitmap must be
    /// scanned", §3.2).
    fn branch_bitmap(&self, b: BranchId) -> Bitmap;

    /// Branch `b`'s liveness column, not padded to `num_rows`, empty for
    /// an unregistered branch: always borrowed (zero-copy) where the
    /// orientation stores columns (branch-oriented), materialized where it
    /// does not (tuple-oriented).
    fn column(&self, b: BranchId) -> Cow<'_, Bitmap>;

    /// Whether branch `b` has a live row.
    fn any_live(&self, b: BranchId) -> bool {
        self.column(b).next_one(0).is_some()
    }

    /// The registered branches, in id order.
    fn branches(&self) -> Vec<BranchId>;

    /// Overwrites branch `b`'s column with `bm`, registering `b` first if
    /// needed (a reopen restores columns from a checkpoint, a fork from a
    /// historical commit restores that commit's). `bm` holds no row past
    /// `num_rows`.
    fn restore_branch(&mut self, b: BranchId, bm: &Bitmap);

    /// Approximate in-memory footprint in bytes.
    fn byte_size(&self) -> usize;
}

/// Materializes the union of several branches' columns.
pub fn union_of(index: &dyn VersionIndex, branches: &[BranchId]) -> Bitmap {
    let mut acc = Bitmap::zeros(index.num_rows());
    for &b in branches {
        acc.or_assign(&index.column(b));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch_index::BranchBitmapIndex;
    use crate::tuple_index::TupleBitmapIndex;

    /// Generic conformance suite run against both orientations.
    fn conformance(index: &mut dyn VersionIndex) {
        let a = BranchId(0);
        let b = BranchId(1);
        index.add_branch(a, None);
        assert!(index.has_branch(a));
        assert!(!index.has_branch(b));

        index.ensure_rows(10);
        index.set(a, 0, true);
        index.set(a, 7, true);
        assert!(index.get(a, 0));
        assert!(!index.get(a, 1));

        // Branching clones the parent column.
        index.add_branch(b, Some(a));
        assert!(index.get(b, 0));
        assert!(index.get(b, 7));

        // Divergence after the branch point.
        index.set(a, 0, false);
        index.ensure_rows(11);
        index.set(b, 10, true);
        assert!(!index.get(a, 0));
        assert!(index.get(b, 0));
        assert!(!index.get(a, 10));

        let col_a = index.branch_bitmap(a);
        let col_b = index.branch_bitmap(b);
        assert_eq!(col_a.iter_ones().collect::<Vec<_>>(), vec![7]);
        assert_eq!(col_b.iter_ones().collect::<Vec<_>>(), vec![0, 7, 10]);

        // A column reads the same borrowed or materialized, and an
        // unregistered branch's is empty.
        assert_eq!(
            index.column(b).iter_ones().collect::<Vec<_>>(),
            vec![0, 7, 10]
        );
        assert_eq!(index.column(BranchId(9)).count_ones(), 0);
        assert_eq!(index.branches(), vec![a, b]);
        assert!(index.any_live(a));
        assert!(!index.any_live(BranchId(9)));

        // Restore rolls a column back to a snapshot.
        index.restore_branch(a, &col_b);
        assert!(index.get(a, 10));

        // Restore registers an unknown branch, so a reopen can rebuild an
        // index from its columns alone.
        let c = BranchId(5);
        index.restore_branch(c, &col_a);
        assert!(index.has_branch(c));
        assert_eq!(index.column(c).iter_ones().collect::<Vec<_>>(), vec![7]);
        assert_eq!(index.branches(), vec![a, b, c]);
        index.restore_branch(c, &Bitmap::new());
        assert!(index.has_branch(c) && !index.any_live(c));

        assert!(index.byte_size() > 0);
        assert_eq!(index.num_branches(), 3);
        assert!(index.num_rows() >= 11);
    }

    #[test]
    fn branch_oriented_conforms() {
        let mut idx = BranchBitmapIndex::new();
        conformance(&mut idx);
    }

    #[test]
    fn tuple_oriented_conforms() {
        let mut idx = TupleBitmapIndex::new();
        conformance(&mut idx);
    }

    #[test]
    fn union_of_merges_columns() {
        for oriented in [true, false] {
            let mut bo = BranchBitmapIndex::new();
            let mut to = TupleBitmapIndex::new();
            let index: &mut dyn VersionIndex = if oriented { &mut bo } else { &mut to };
            index.add_branch(BranchId(0), None);
            index.add_branch(BranchId(1), None);
            index.ensure_rows(5);
            index.set(BranchId(0), 1, true);
            index.set(BranchId(1), 3, true);
            let u = union_of(index, &[BranchId(0), BranchId(1)]);
            assert_eq!(u.iter_ones().collect::<Vec<_>>(), vec![1, 3]);
        }
    }
}
