//! The tuple-oriented bitmap index.
//!
//! "In a tuple-oriented bitmap, we store T bitmaps, one per tuple, where
//! the i-th bit of bitmap Tj indicates whether tuple j is active in branch
//! i. Since we assume that the number of records in a branch will greatly
//! outnumber the number of branches, all rows (one for each tuple) in a
//! tuple-oriented bitmap are stored together in a single block of memory"
//! (§3.1). When the branch count outgrows the per-tuple row width, "the
//! entire bitmap may need to be expanded (and copied) ... via simple growth
//! doubling, amortizing the branching cost" (§3.2).

use std::borrow::Cow;

use decibel_common::hash::FxHashMap;
use decibel_common::ids::BranchId;

use crate::bitmap::Bitmap;
use crate::index::VersionIndex;

/// All tuples' branch-membership rows in one contiguous allocation.
#[derive(Debug, Clone)]
pub struct TupleBitmapIndex {
    /// Row-major bit matrix: `stride` words per tuple row.
    data: Vec<u64>,
    /// Words per tuple row (row holds `stride * 64` branch slots).
    stride: usize,
    rows: u64,
    /// Maps external branch ids to bit slots within a row.
    slots: FxHashMap<BranchId, usize>,
    next_slot: usize,
}

impl Default for TupleBitmapIndex {
    fn default() -> Self {
        TupleBitmapIndex::new()
    }
}

impl TupleBitmapIndex {
    /// Creates an empty index with room for 64 branches per row.
    pub fn new() -> Self {
        TupleBitmapIndex {
            data: Vec::new(),
            stride: 1,
            rows: 0,
            slots: FxHashMap::default(),
            next_slot: 0,
        }
    }

    /// Doubles the row width, copying every row — the whole-bitmap
    /// expansion §3.2 describes.
    fn grow_stride(&mut self) {
        let new_stride = self.stride * 2;
        let mut new_data = vec![0u64; self.rows as usize * new_stride];
        for row in 0..self.rows as usize {
            let src = row * self.stride;
            let dst = row * new_stride;
            new_data[dst..dst + self.stride].copy_from_slice(&self.data[src..src + self.stride]);
        }
        self.data = new_data;
        self.stride = new_stride;
    }

    #[inline]
    fn slot(&self, b: BranchId) -> Option<usize> {
        self.slots.get(&b).copied()
    }
}

impl VersionIndex for TupleBitmapIndex {
    fn num_rows(&self) -> u64 {
        self.rows
    }

    fn num_branches(&self) -> usize {
        self.slots.len()
    }

    fn has_branch(&self, b: BranchId) -> bool {
        self.slots.contains_key(&b)
    }

    fn add_branch(&mut self, b: BranchId, parent: Option<BranchId>) {
        if self.next_slot >= self.stride * 64 {
            self.grow_stride();
        }
        let slot = self.next_slot;
        self.next_slot += 1;
        self.slots.insert(b, slot);
        if let Some(p) = parent {
            if let Some(pslot) = self.slot(p) {
                // Copy the parent's bit in every tuple row.
                for row in 0..self.rows as usize {
                    let base = row * self.stride;
                    let pv = self.data[base + pslot / 64] >> (pslot % 64) & 1;
                    if pv == 1 {
                        self.data[base + slot / 64] |= 1u64 << (slot % 64);
                    }
                }
            }
        }
    }

    fn ensure_rows(&mut self, rows: u64) {
        if rows > self.rows {
            self.rows = rows;
            self.data.resize(rows as usize * self.stride, 0);
        }
    }

    fn set(&mut self, b: BranchId, row: u64, v: bool) {
        debug_assert!(row < self.rows);
        let slot = self.slot(b).expect("set on unregistered branch");
        let word = row as usize * self.stride + slot / 64;
        let mask = 1u64 << (slot % 64);
        if v {
            self.data[word] |= mask;
        } else {
            self.data[word] &= !mask;
        }
    }

    fn get(&self, b: BranchId, row: u64) -> bool {
        if row >= self.rows {
            return false;
        }
        match self.slot(b) {
            Some(slot) => self.data[row as usize * self.stride + slot / 64] >> (slot % 64) & 1 == 1,
            None => false,
        }
    }

    fn branch_bitmap(&self, b: BranchId) -> Bitmap {
        // The paper's cost asymmetry: extracting one branch's column from a
        // tuple-oriented bitmap walks the entire matrix (§3.2).
        let mut out = Bitmap::zeros(self.rows);
        if let Some(slot) = self.slot(b) {
            let word_off = slot / 64;
            let bit = slot % 64;
            for row in 0..self.rows {
                if self.data[row as usize * self.stride + word_off] >> bit & 1 == 1 {
                    out.set(row, true);
                }
            }
        }
        out
    }

    fn column(&self, b: BranchId) -> Cow<'_, Bitmap> {
        Cow::Owned(self.branch_bitmap(b))
    }

    fn any_live(&self, b: BranchId) -> bool {
        // Stops at the first live row instead of materializing the column.
        self.slot(b).is_some_and(|slot| {
            (0..self.rows as usize)
                .any(|row| self.data[row * self.stride + slot / 64] >> (slot % 64) & 1 == 1)
        })
    }

    fn branches(&self) -> Vec<BranchId> {
        let mut out: Vec<BranchId> = self.slots.keys().copied().collect();
        out.sort_unstable();
        out
    }

    fn restore_branch(&mut self, b: BranchId, bm: &Bitmap) {
        if !self.has_branch(b) {
            self.add_branch(b, None);
        }
        let slot = self.slot(b).expect("registered above");
        let word_off = slot / 64;
        let mask = 1u64 << (slot % 64);
        for row in 0..self.rows {
            let w = &mut self.data[row as usize * self.stride + word_off];
            if bm.get(row) {
                *w |= mask;
            } else {
                *w &= !mask;
            }
        }
    }

    fn byte_size(&self) -> usize {
        self.data.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_doubles_past_64_branches() {
        let mut idx = TupleBitmapIndex::new();
        idx.ensure_rows(10);
        for b in 0..65u32 {
            idx.add_branch(BranchId(b), None);
        }
        assert_eq!(idx.stride, 2);
        idx.set(BranchId(64), 5, true);
        assert!(idx.get(BranchId(64), 5));
        assert!(!idx.get(BranchId(63), 5));
    }

    #[test]
    fn expansion_preserves_existing_bits() {
        let mut idx = TupleBitmapIndex::new();
        idx.ensure_rows(100);
        for b in 0..64u32 {
            idx.add_branch(BranchId(b), None);
        }
        for row in 0..100u64 {
            idx.set(BranchId((row % 64) as u32), row, true);
        }
        idx.add_branch(BranchId(64), None); // triggers grow_stride
        for row in 0..100u64 {
            assert!(
                idx.get(BranchId((row % 64) as u32), row),
                "row {row} lost its bit"
            );
        }
    }

    #[test]
    fn parent_clone_copies_every_row() {
        let mut idx = TupleBitmapIndex::new();
        idx.add_branch(BranchId(0), None);
        idx.ensure_rows(1000);
        for row in (0..1000).step_by(7) {
            idx.set(BranchId(0), row, true);
        }
        idx.add_branch(BranchId(1), Some(BranchId(0)));
        for row in 0..1000 {
            assert_eq!(idx.get(BranchId(1), row), row % 7 == 0);
        }
    }

    #[test]
    fn rows_added_after_branches_start_dead() {
        let mut idx = TupleBitmapIndex::new();
        idx.add_branch(BranchId(0), None);
        idx.ensure_rows(5);
        idx.set(BranchId(0), 4, true);
        idx.ensure_rows(10);
        assert!(idx.get(BranchId(0), 4));
        for row in 5..10 {
            assert!(!idx.get(BranchId(0), row));
        }
    }

    #[test]
    fn branch_bitmap_matches_bits() {
        let mut idx = TupleBitmapIndex::new();
        idx.add_branch(BranchId(3), None);
        idx.ensure_rows(200);
        idx.set(BranchId(3), 0, true);
        idx.set(BranchId(3), 199, true);
        let bm = idx.branch_bitmap(BranchId(3));
        assert_eq!(bm.iter_ones().collect::<Vec<_>>(), vec![0, 199]);
        assert_eq!(bm.len(), 200);
    }

    #[test]
    fn unknown_branch_reads_false() {
        let idx = TupleBitmapIndex::new();
        assert!(!idx.get(BranchId(9), 0));
        assert_eq!(idx.branch_bitmap(BranchId(9)).count_ones(), 0);
    }
}
