//! The branch-oriented bitmap index.
//!
//! "In branch-oriented bitmaps, we store B bitmaps, one per branch, where
//! the i-th bit of bitmap Bj indicates whether tuple i is active in branch
//! j. ... each branch's bitmap is stored separately in its own block of
//! memory in order to avoid the issue of needing to expand the entire
//! bitmap when a single branch's bitmap overflows" (§3.1).
//!
//! Branch ids may be sparse (hybrid's per-segment local indexes only
//! register the branches that inherit records in that segment), so columns
//! live in a hash map rather than a dense vector.

use std::borrow::Cow;

use decibel_common::hash::FxHashMap;
use decibel_common::ids::BranchId;

use crate::bitmap::Bitmap;
use crate::index::VersionIndex;

/// One independently growable bitmap per branch.
#[derive(Debug, Clone, Default)]
pub struct BranchBitmapIndex {
    columns: FxHashMap<BranchId, Bitmap>,
    rows: u64,
}

impl BranchBitmapIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        BranchBitmapIndex::default()
    }

    /// Removes a branch's column entirely (hybrid drops a branch's bitmap
    /// from segments it no longer touches).
    pub fn remove_branch(&mut self, b: BranchId) {
        self.columns.remove(&b);
    }
}

impl VersionIndex for BranchBitmapIndex {
    fn num_rows(&self) -> u64 {
        self.rows
    }

    fn num_branches(&self) -> usize {
        self.columns.len()
    }

    fn has_branch(&self, b: BranchId) -> bool {
        self.columns.contains_key(&b)
    }

    fn add_branch(&mut self, b: BranchId, parent: Option<BranchId>) {
        let col = match parent {
            // "A simple memory copy of the parent branch's bitmap can be
            // performed" (§3.2).
            Some(p) => self.columns.get(&p).cloned().unwrap_or_default(),
            None => Bitmap::zeros(self.rows),
        };
        self.columns.insert(b, col);
    }

    fn ensure_rows(&mut self, rows: u64) {
        if rows > self.rows {
            self.rows = rows;
        }
        // Columns grow lazily on their next `set`; reads past a column's
        // end are false by Bitmap semantics.
    }

    fn set(&mut self, b: BranchId, row: u64, v: bool) {
        debug_assert!(
            row < self.rows,
            "row {row} not allocated (rows={})",
            self.rows
        );
        self.columns
            .get_mut(&b)
            .expect("set on unregistered branch")
            .set(row, v);
    }

    fn get(&self, b: BranchId, row: u64) -> bool {
        self.columns.get(&b).is_some_and(|c| c.get(row))
    }

    fn branch_bitmap(&self, b: BranchId) -> Bitmap {
        let mut col = self.columns.get(&b).cloned().unwrap_or_default();
        col.grow(self.rows);
        col
    }

    fn column(&self, b: BranchId) -> Cow<'_, Bitmap> {
        static EMPTY: Bitmap = Bitmap::new();
        Cow::Borrowed(self.columns.get(&b).unwrap_or(&EMPTY))
    }

    fn branches(&self) -> Vec<BranchId> {
        let mut out: Vec<BranchId> = self.columns.keys().copied().collect();
        out.sort_unstable();
        out
    }

    fn restore_branch(&mut self, b: BranchId, bm: &Bitmap) {
        self.columns.insert(b, bm.clone());
    }

    fn byte_size(&self) -> usize {
        self.columns.values().map(|c| c.byte_size()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_grow_independently() {
        let mut idx = BranchBitmapIndex::new();
        idx.add_branch(BranchId(0), None);
        idx.add_branch(BranchId(1), None);
        idx.ensure_rows(1_000_000);
        idx.set(BranchId(0), 999_999, true);
        // Branch 1's column never grew: footprint stays tiny.
        let col0 = idx.column(BranchId(0)).byte_size();
        let col1 = idx.column(BranchId(1)).byte_size();
        assert!(col0 > 100_000);
        assert!(col1 < 100, "untouched column is {col1} bytes");
    }

    #[test]
    fn sparse_branch_ids_work() {
        let mut idx = BranchBitmapIndex::new();
        idx.add_branch(BranchId(42), None);
        idx.ensure_rows(4);
        idx.set(BranchId(42), 3, true);
        assert!(idx.get(BranchId(42), 3));
        assert!(!idx.has_branch(BranchId(0)));
    }

    #[test]
    fn clone_then_diverge() {
        let mut idx = BranchBitmapIndex::new();
        idx.add_branch(BranchId(0), None);
        idx.ensure_rows(3);
        idx.set(BranchId(0), 1, true);
        idx.add_branch(BranchId(1), Some(BranchId(0)));
        idx.set(BranchId(1), 1, false);
        assert!(idx.get(BranchId(0), 1));
        assert!(!idx.get(BranchId(1), 1));
    }

    #[test]
    fn remove_branch_drops_column() {
        let mut idx = BranchBitmapIndex::new();
        idx.add_branch(BranchId(0), None);
        idx.remove_branch(BranchId(0));
        assert_eq!(idx.num_branches(), 0);
        assert!(!idx.get(BranchId(0), 0));
    }

    #[test]
    fn branch_bitmap_pads_to_row_count() {
        let mut idx = BranchBitmapIndex::new();
        idx.add_branch(BranchId(0), None);
        idx.ensure_rows(100);
        let bm = idx.branch_bitmap(BranchId(0));
        assert_eq!(bm.len(), 100);
    }
}
