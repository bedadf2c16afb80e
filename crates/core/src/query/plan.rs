//! Scan planning: column projection and page-level predicate pushdown.
//!
//! This module is the split between *planning* and *execution* on the read
//! path. A [`ScanPlan`] pairs the row filter with the column subset the
//! query materializes; [`PagePredicate`] is the filter lowered into a form
//! evaluable directly against pinned page bytes — fixed-width comparisons
//! read only the compared column's bytes per slot
//! ([`PinnedCursor::read_field`]) and produce word-aligned match bitmaps
//! that fuse straight into the liveness words driving a scan
//! ([`Bitmap::try_retain_words`](decibel_bitmap::Bitmap::try_retain_words)).
//!
//! # Pushdown always applies
//!
//! Every atom of the [`Predicate`] grammar compares the key or a
//! fixed-width data column against constants, so every predicate lowers
//! ([`PagePredicate::lower`] is infallible) and the engines' planned scans
//! have one path: filter slots on the page, yield the survivors' bytes.
//! Decoding the record, [`Predicate::eval`], then
//! [`Record::project`](decibel_common::record::Record::project) is the
//! reference the property tests hold that path to.

use decibel_common::error::Result;
use decibel_common::projection::Projection;
use decibel_pagestore::PinnedCursor;

use super::predicate::Predicate;

/// A planned scan: the row filter plus the column subset to materialize.
///
/// Built by the fluent builder (`db.read(v).select(&cols).filter(p)`) and
/// consumed by
/// [`VersionedStore::scan_pipeline`](crate::store::VersionedStore::scan_pipeline).
/// Non-projected fields of yielded records read as `0` (see [`Projection`]).
#[derive(Debug, Clone, Default)]
pub struct ScanPlan {
    /// Row filter, in source form (lowered per scan by
    /// [`ScanPlan::page_predicate`]).
    pub predicate: Predicate,
    /// Columns the caller wants materialized.
    pub projection: Projection,
}

impl ScanPlan {
    /// Plans a scan filtering by `predicate` and materializing `projection`.
    pub fn new(predicate: Predicate, projection: Projection) -> ScanPlan {
        ScanPlan {
            predicate,
            projection,
        }
    }

    /// Plans a whole-record scan filtering by `predicate`.
    pub fn filter_only(predicate: Predicate) -> ScanPlan {
        ScanPlan::new(predicate, Projection::All)
    }

    /// Lowers the filter for evaluation against pinned page bytes.
    pub fn page_predicate(&self) -> PagePredicate {
        PagePredicate::lower(&self.predicate)
    }
}

/// A row filter lowered for evaluation against pinned page bytes.
///
/// Column atoms read exactly one fixed-width field per slot
/// ([`PinnedCursor::read_field`]); key atoms read the 8-byte key. Nothing
/// is materialized: [`PagePredicate::eval_word`] turns 64 slots at a time
/// into a match word, and conjunctions narrow the candidate mask left to
/// right so the right side only ever touches slots the left side passed.
#[derive(Debug, Clone)]
pub enum PagePredicate {
    /// Matches every slot.
    True,
    /// Key equality.
    KeyEq(u64),
    /// Key in `[lo, hi)`.
    KeyRange(u64, u64),
    /// Column comparison against a constant.
    Col(usize, ColOp),
    /// Both sides match (right side sees only the left side's matches).
    And(Box<PagePredicate>, Box<PagePredicate>),
    /// Either side matches (right side sees only the left side's misses).
    Or(Box<PagePredicate>, Box<PagePredicate>),
    /// The inner predicate misses.
    Not(Box<PagePredicate>),
}

/// A fixed-width column comparison.
#[derive(Debug, Clone, Copy)]
pub enum ColOp {
    /// `col == v`
    Eq(u64),
    /// `col != v`
    Ne(u64),
    /// `col < v`
    Lt(u64),
    /// `col >= v`
    Ge(u64),
    /// `col % m == r`
    Mod(u64, u64),
}

impl ColOp {
    #[inline]
    fn test(self, x: u64) -> bool {
        match self {
            ColOp::Eq(v) => x == v,
            ColOp::Ne(v) => x != v,
            ColOp::Lt(v) => x < v,
            ColOp::Ge(v) => x >= v,
            ColOp::Mod(m, r) => m != 0 && x % m == r,
        }
    }
}

impl PagePredicate {
    /// Lowers a [`Predicate`] for page-level evaluation.
    pub fn lower(p: &Predicate) -> PagePredicate {
        match p {
            Predicate::True => PagePredicate::True,
            Predicate::KeyEq(k) => PagePredicate::KeyEq(*k),
            Predicate::KeyRange(lo, hi) => PagePredicate::KeyRange(*lo, *hi),
            Predicate::ColEq(c, v) => PagePredicate::Col(*c, ColOp::Eq(*v)),
            Predicate::ColNe(c, v) => PagePredicate::Col(*c, ColOp::Ne(*v)),
            Predicate::ColLt(c, v) => PagePredicate::Col(*c, ColOp::Lt(*v)),
            Predicate::ColGe(c, v) => PagePredicate::Col(*c, ColOp::Ge(*v)),
            Predicate::ColMod(c, m, r) => PagePredicate::Col(*c, ColOp::Mod(*m, *r)),
            Predicate::And(a, b) => {
                PagePredicate::And(Box::new(Self::lower(a)), Box::new(Self::lower(b)))
            }
            Predicate::Or(a, b) => {
                PagePredicate::Or(Box::new(Self::lower(a)), Box::new(Self::lower(b)))
            }
            Predicate::Not(a) => PagePredicate::Not(Box::new(Self::lower(a))),
        }
    }

    /// Evaluates one atom against slot `idx`.
    #[inline]
    fn eval_leaf(&self, cursor: &mut PinnedCursor<'_>, idx: u64) -> Result<bool> {
        match self {
            PagePredicate::True => Ok(true),
            PagePredicate::KeyEq(k) => Ok(cursor.peek_key(idx)?.0 == *k),
            PagePredicate::KeyRange(lo, hi) => {
                let key = cursor.peek_key(idx)?.0;
                Ok((*lo..*hi).contains(&key))
            }
            PagePredicate::Col(c, op) => Ok(op.test(cursor.read_field(idx, *c)?)),
            _ => unreachable!("eval_leaf called on a combinator"),
        }
    }

    /// Evaluates the predicate against slot `idx` — the per-slot shape the
    /// version-first engine uses (its scan order is per-record, newest
    /// first, so there is no 64-slot chunk to batch over).
    pub fn eval_slot(&self, cursor: &mut PinnedCursor<'_>, idx: u64) -> Result<bool> {
        match self {
            PagePredicate::And(a, b) => Ok(a.eval_slot(cursor, idx)? && b.eval_slot(cursor, idx)?),
            PagePredicate::Or(a, b) => Ok(a.eval_slot(cursor, idx)? || b.eval_slot(cursor, idx)?),
            PagePredicate::Not(a) => Ok(!a.eval_slot(cursor, idx)?),
            leaf => leaf.eval_leaf(cursor, idx),
        }
    }

    /// Evaluates the predicate over the 64 slots starting at `base`,
    /// restricted to the candidate mask `live`, returning the match word
    /// (`bit i` set ⇔ slot `base + i` is a candidate and passes).
    ///
    /// Combinators work on whole words: `And` narrows the candidate mask
    /// through both sides, `Or` sends only the left side's misses to the
    /// right, `Not` subtracts from the candidates — so a conjunction's
    /// second column is read only for slots the first column passed.
    pub fn eval_word(&self, cursor: &mut PinnedCursor<'_>, base: u64, live: u64) -> Result<u64> {
        if live == 0 {
            return Ok(0);
        }
        match self {
            PagePredicate::True => Ok(live),
            PagePredicate::And(a, b) => {
                let m = a.eval_word(cursor, base, live)?;
                b.eval_word(cursor, base, m)
            }
            PagePredicate::Or(a, b) => {
                let m = a.eval_word(cursor, base, live)?;
                Ok(m | b.eval_word(cursor, base, live & !m)?)
            }
            PagePredicate::Not(a) => Ok(live & !a.eval_word(cursor, base, live)?),
            leaf => {
                let mut out = 0u64;
                let mut cur = live;
                while cur != 0 {
                    let bit = cur.trailing_zeros();
                    cur &= cur - 1;
                    if leaf.eval_leaf(cursor, base + bit as u64)? {
                        out |= 1u64 << bit;
                    }
                }
                Ok(out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decibel_common::record::Record;
    use decibel_common::schema::{ColumnType, Schema};
    use decibel_pagestore::{BufferPool, HeapFile};
    use std::sync::Arc;

    fn heap_fixture() -> (tempfile::TempDir, HeapFile) {
        let dir = tempfile::tempdir().unwrap();
        let pool = Arc::new(BufferPool::new(256, 8));
        let schema = Schema::new(3, ColumnType::U32);
        let heap = HeapFile::create(pool, dir.path().join("h"), schema).unwrap();
        for k in 0..100u64 {
            heap.append(&Record::new(k, vec![k % 7, k * 2, 100 - k]))
                .unwrap();
        }
        (dir, heap)
    }

    fn preds() -> Vec<Predicate> {
        vec![
            Predicate::True,
            Predicate::KeyEq(17),
            Predicate::KeyRange(10, 40),
            Predicate::ColEq(0, 3),
            Predicate::ColNe(0, 3),
            Predicate::ColLt(1, 50),
            Predicate::ColGe(2, 60),
            Predicate::ColMod(1, 6, 2),
            Predicate::ColLt(1, 80).and(Predicate::ColGe(2, 40)),
            Predicate::KeyRange(0, 20).or(Predicate::ColEq(0, 5)),
            Predicate::ColGe(1, 100).not(),
            Predicate::KeyRange(5, 95)
                .and(Predicate::ColMod(0, 2, 1).or(Predicate::ColLt(2, 30).not())),
        ]
    }

    #[test]
    fn eval_word_matches_record_eval() {
        let (_d, heap) = heap_fixture();
        for p in preds() {
            let pp = PagePredicate::lower(&p);
            let mut cursor = heap.pinned_cursor();
            for (word_i, mask) in [
                (0usize, u64::MAX),
                (1, u64::MAX),
                (0, 0x0f0f_0f0f_dead_beef),
            ] {
                let base = word_i as u64 * 64;
                // Candidate masks come from liveness bitmaps and are
                // in-bounds by invariant; keep the fixture honest.
                let in_bounds = if base + 64 <= heap.len() {
                    u64::MAX
                } else {
                    (1u64 << (heap.len() - base)) - 1
                };
                let live = mask & in_bounds;
                let got = pp.eval_word(&mut cursor, base, live).unwrap();
                let mut expect = 0u64;
                for bit in 0..64u64 {
                    let idx = base + bit;
                    if live >> bit & 1 == 1 && idx < heap.len() {
                        let rec = heap.get(decibel_common::RecordIdx(idx)).unwrap();
                        if p.eval(&rec) {
                            expect |= 1 << bit;
                        }
                    }
                }
                assert_eq!(got, expect, "{p:?} word {word_i}");
            }
        }
    }

    #[test]
    fn eval_slot_matches_record_eval() {
        let (_d, heap) = heap_fixture();
        for p in preds() {
            let pp = PagePredicate::lower(&p);
            let mut cursor = heap.pinned_cursor();
            for idx in 0..heap.len() {
                let rec = heap.get(decibel_common::RecordIdx(idx)).unwrap();
                assert_eq!(
                    pp.eval_slot(&mut cursor, idx).unwrap(),
                    p.eval(&rec),
                    "{p:?} slot {idx}"
                );
            }
        }
    }
}
