//! Bitmap-driven heap scan cursors shared by tuple-first and hybrid.
//!
//! All cursors here are *word-level*: they walk the liveness bitmap 64 bits
//! at a time via [`Bitmap::iter_words`]-style chunking (skipping all-dead
//! words outright), and resolve records through a page-pinned
//! [`PinnedCursor`] so each heap page is fetched from the buffer pool once
//! per scan, with records decoded directly from the pinned page.

use decibel_bitmap::Bitmap;
use decibel_common::ids::{BranchId, RecordIdx, SegmentId};
use decibel_common::record::Record;
use decibel_common::Result;
use decibel_pagestore::{HeapFile, PinnedCursor};

use crate::query::plan::PagePredicate;
use crate::types::{AnnotatedSlot, AnnotatedSlotCursor, SlotCursor};

/// Bits of a segmented resume token holding the `slot + 1` part; the
/// segment id occupies the bits above. 2^40 slots per segment is far
/// beyond any heap the segmented engines address, so the packing is
/// lossless in practice (and `debug_assert`ed).
const SEG_SLOT_BITS: u32 = 40;
const SEG_SLOT_MASK: u64 = (1 << SEG_SLOT_BITS) - 1;

/// Packs a `(segment, slot)` scan position into an opaque resume token.
#[inline]
fn seg_token(seg: SegmentId, slot: u64) -> u64 {
    debug_assert!(slot < SEG_SLOT_MASK);
    ((seg.raw() as u64) << SEG_SLOT_BITS) | (slot + 1)
}

/// Splits a resume token into (first segment id, first slot within it).
#[inline]
fn seg_resume(from: u64) -> (u32, u64) {
    ((from >> SEG_SLOT_BITS) as u32, from & SEG_SLOT_MASK)
}

/// Streams the records whose slots are set in a liveness bitmap. The
/// bitmap is consumed a 64-bit word per step; within a word, set bits are
/// popped with `trailing_zeros`, so per-record overhead is a few ALU ops.
/// Pages with no live slots are never read — which is exactly why
/// tuple-first single-branch scans degrade under interleaved loading
/// (nearly every page has *some* live record, §5.2) while clustered
/// loading lets them skip cold pages.
pub struct BitmapScan<'a> {
    cursor: PinnedCursor<'a>,
    bm: Bitmap,
    /// Next word of `bm` to load into `cur`.
    word_idx: usize,
    /// Base slot index of the word currently in `cur`.
    base: u64,
    /// Remaining set bits of the current word.
    cur: u64,
}

impl<'a> BitmapScan<'a> {
    /// Creates a cursor over `heap` restricted to set bits of `bm`.
    pub fn new(heap: &'a HeapFile, bm: Bitmap) -> Self {
        BitmapScan {
            cursor: heap.pinned_cursor(),
            bm,
            word_idx: 0,
            base: 0,
            cur: 0,
        }
    }

    /// The liveness bitmap driving this scan.
    pub fn bitmap(&self) -> &Bitmap {
        &self.bm
    }
}

impl Iterator for BitmapScan<'_> {
    type Item = Result<(RecordIdx, Record)>;

    fn next(&mut self) -> Option<Self::Item> {
        while self.cur == 0 {
            if self.word_idx >= self.bm.num_words() {
                return None;
            }
            self.base = self.word_idx as u64 * 64;
            self.cur = self.bm.word(self.word_idx);
            self.word_idx += 1;
        }
        let idx = self.base + self.cur.trailing_zeros() as u64;
        self.cur &= self.cur - 1;
        Some(self.cursor.read(idx).map(|r| (RecordIdx(idx), r)))
    }
}

/// The predicate-pushed, slot-yielding variant of [`BitmapScan`]: one
/// heap's share of a planned scan.
///
/// Liveness words are refined *lazily*, one 64-slot chunk at a time: when
/// the scan advances to the next nonzero liveness word it runs the lowered
/// predicate against the pinned page bytes of just that chunk
/// ([`PagePredicate::eval_word`]) and walks the resulting match word — so
/// filtering never materializes a record and chunks the stream has not
/// reached cost nothing (flow-controlled cursors stop mid-bitmap). A
/// matching row is handed out as its slot bytes on the pinned page
/// ([`PipelineScan::slot`]); decoding, if any, is the consumer's.
///
/// `from` makes resumption O(1): the scan starts at the liveness word
/// containing slot `from` with the lower bits of that word masked off, so
/// a cursor that stopped after yielding slot `i` resumes at `from = i + 1`
/// without re-walking (or re-filtering) the prefix.
pub struct PipelineScan<'a> {
    cursor: PinnedCursor<'a>,
    bm: Bitmap,
    word_idx: usize,
    /// Word containing `from`; its sub-`from` bits are masked out.
    start_word: usize,
    start_mask: u64,
    base: u64,
    cur: u64,
}

impl<'a> PipelineScan<'a> {
    /// Creates a pipeline scan over `heap` restricted to set bits of `bm`
    /// at or past slot `from`.
    pub fn new(heap: &'a HeapFile, bm: Bitmap, from: u64) -> Self {
        PipelineScan {
            cursor: heap.pinned_cursor(),
            bm,
            word_idx: (from / 64) as usize,
            start_word: (from / 64) as usize,
            start_mask: u64::MAX << (from % 64),
            base: 0,
            cur: 0,
        }
    }

    /// Advances to the next live slot passing `pred` and returns its
    /// index, or `None` at the end of the bitmap.
    #[inline]
    pub fn advance(&mut self, pred: &PagePredicate) -> Result<Option<u64>> {
        while self.cur == 0 {
            if self.word_idx >= self.bm.num_words() {
                return Ok(None);
            }
            let mut w = self.bm.word(self.word_idx);
            if self.word_idx == self.start_word {
                w &= self.start_mask;
            }
            if w != 0 {
                self.base = self.word_idx as u64 * 64;
                self.cur = pred.eval_word(&mut self.cursor, self.base, w)?;
            }
            self.word_idx += 1;
        }
        let idx = self.base + self.cur.trailing_zeros() as u64;
        self.cur &= self.cur - 1;
        Ok(Some(idx))
    }

    /// The bytes of slot `idx` on the pinned page (already pinned when
    /// `idx` is what [`PipelineScan::advance`] just returned).
    #[inline]
    pub fn slot(&mut self, idx: u64) -> Result<&[u8]> {
        self.cursor.slot_bytes(idx)
    }
}

/// One heap of a planned scan: its id (the high half of the rows' resume
/// tokens), the liveness bitmap to walk, and whatever the scan needs to
/// annotate that heap's rows with (`()` for single-version scans).
pub struct Seg<'a, A = ()> {
    pub id: SegmentId,
    pub heap: &'a HeapFile,
    pub live: Bitmap,
    pub ann: A,
}

/// The engines' planned scan: one [`PipelineScan`] per [`Seg`], visited in
/// the order given (ascending segment id), with `(segment, slot)` resume
/// tokens ([`seg_token`]) — restarting is O(1): whole segments before the
/// token are dropped by id and the token's own segment starts at the token
/// slot's liveness word. Tuple-first is the one-segment case (segment 0,
/// so its tokens are `slot + 1`).
pub struct SegmentedScan<'a, A = ()> {
    segs: Vec<Seg<'a, A>>,
    /// Segments opened so far; `segs[opened - 1]` feeds `inner`.
    opened: usize,
    pred: PagePredicate,
    resume: (u32, u64),
    inner: Option<PipelineScan<'a>>,
}

impl<'a, A> SegmentedScan<'a, A> {
    /// Plans a scan of `segs` filtered through `pred`, resuming after the
    /// row whose token is `from` (`0` = from the start).
    pub fn new(mut segs: Vec<Seg<'a, A>>, pred: PagePredicate, from: u64) -> Self {
        let resume = seg_resume(from);
        segs.retain(|s| s.id.raw() >= resume.0);
        SegmentedScan {
            segs,
            opened: 0,
            pred,
            resume,
            inner: None,
        }
    }

    /// Advances to the next matching row: `(position of its segment, slot
    /// index)`, to be passed to [`SegmentedScan::row`].
    #[inline]
    pub fn advance(&mut self) -> Result<Option<(usize, u64)>> {
        loop {
            if let Some(scan) = &mut self.inner {
                if let Some(idx) = scan.advance(&self.pred)? {
                    return Ok(Some((self.opened - 1, idx)));
                }
                self.inner = None;
            }
            let Some(seg) = self.segs.get_mut(self.opened) else {
                return Ok(None);
            };
            self.opened += 1;
            let start = if seg.id.raw() == self.resume.0 {
                self.resume.1
            } else {
                0
            };
            self.inner = Some(PipelineScan::new(
                seg.heap,
                std::mem::take(&mut seg.live),
                start,
            ));
        }
    }

    /// The row [`SegmentedScan::advance`] just returned: its resume token,
    /// its slot bytes on the pinned page, and its segment's annotation.
    #[inline]
    pub fn row(&mut self, pos: usize, idx: u64) -> Result<(u64, &[u8], &A)> {
        let seg = &self.segs[pos];
        let scan = self.inner.as_mut().expect("row follows advance");
        Ok((seg_token(seg.id, idx), scan.slot(idx)?, &seg.ann))
    }
}

impl SlotCursor for SegmentedScan<'_> {
    fn next_slot(&mut self) -> Result<Option<(u64, &[u8])>> {
        let Some((pos, idx)) = self.advance()? else {
            return Ok(None);
        };
        let (token, slot, ()) = self.row(pos, idx)?;
        Ok(Some((token, slot)))
    }
}

/// Multi-branch [`SegmentedScan`] for the bitmap engines: each segment is
/// driven by the union of the requested branches' columns and annotated
/// with the branches whose column has the row's bit set, from per-chunk
/// cached column words into a reused buffer.
pub struct ColumnAnnotatedScan<'a> {
    scan: SegmentedScan<'a, Vec<(BranchId, Bitmap)>>,
    col_words: Vec<u64>,
    /// `(segment position, word index)` the cached `col_words` belong to.
    cached: (usize, usize),
    live: Vec<BranchId>,
}

impl<'a> ColumnAnnotatedScan<'a> {
    /// Plans the scan; each segment's `live` is the union of its `ann`
    /// columns.
    pub fn new(
        segs: Vec<Seg<'a, Vec<(BranchId, Bitmap)>>>,
        pred: PagePredicate,
        from: u64,
    ) -> Self {
        ColumnAnnotatedScan {
            scan: SegmentedScan::new(segs, pred, from),
            col_words: Vec::new(),
            cached: (usize::MAX, usize::MAX),
            live: Vec::new(),
        }
    }
}

impl AnnotatedSlotCursor for ColumnAnnotatedScan<'_> {
    fn next_slot(&mut self) -> Result<Option<AnnotatedSlot<'_>>> {
        let Some((pos, idx)) = self.scan.advance()? else {
            return Ok(None);
        };
        let (token, slot, cols) = self.scan.row(pos, idx)?;
        let wi = (idx / 64) as usize;
        if self.cached != (pos, wi) {
            self.col_words.clear();
            self.col_words
                .extend(cols.iter().map(|(_, col)| col.word(wi)));
            self.cached = (pos, wi);
        }
        let bit = (idx % 64) as u32;
        self.live.clear();
        for (&(b, _), w) in cols.iter().zip(&self.col_words) {
            if w >> bit & 1 == 1 {
                self.live.push(b);
            }
        }
        Ok(Some((token, slot, &self.live)))
    }
}

/// Word-batched multi-branch scan over one heap: streams the records
/// selected by a union liveness bitmap, annotating each with the branches
/// whose column has its bit set.
///
/// Membership is tested against *cached column words*: when the scan
/// advances to the next 64-slot chunk it loads one word per branch column,
/// and every record in the chunk resolves its branch list with shifts and
/// masks — not one `Bitmap::get` per branch per row.
pub struct AnnotatedScan<'a> {
    cursor: PinnedCursor<'a>,
    union: Bitmap,
    cols: Vec<(BranchId, Bitmap)>,
    /// Current word of each column, aligned with `base`.
    col_words: Vec<u64>,
    word_idx: usize,
    base: u64,
    cur: u64,
}

impl<'a> AnnotatedScan<'a> {
    /// Creates a scan over `heap` driven by `union`, annotating from the
    /// per-branch `cols`.
    pub fn new(heap: &'a HeapFile, union: Bitmap, cols: Vec<(BranchId, Bitmap)>) -> Self {
        AnnotatedScan {
            cursor: heap.pinned_cursor(),
            col_words: vec![0; cols.len()],
            union,
            cols,
            word_idx: 0,
            base: 0,
            cur: 0,
        }
    }

    /// Branch list for the bit `bit` of the currently cached chunk.
    #[inline]
    fn live_at(&self, bit: u32) -> Vec<BranchId> {
        live_branches(&self.cols, &self.col_words, bit)
    }
}

impl Iterator for AnnotatedScan<'_> {
    type Item = Result<(RecordIdx, Record, Vec<BranchId>)>;

    fn next(&mut self) -> Option<Self::Item> {
        while self.cur == 0 {
            if self.word_idx >= self.union.num_words() {
                return None;
            }
            let w = self.union.word(self.word_idx);
            if w != 0 {
                self.base = self.word_idx as u64 * 64;
                self.cur = w;
                for (j, (_, col)) in self.cols.iter().enumerate() {
                    self.col_words[j] = col.word(self.word_idx);
                }
            }
            self.word_idx += 1;
        }
        let bit = self.cur.trailing_zeros();
        self.cur &= self.cur - 1;
        let idx = self.base + bit as u64;
        let live = self.live_at(bit);
        Some(self.cursor.read(idx).map(|r| (RecordIdx(idx), r, live)))
    }
}

/// Builds a row's branch list from the cached column words in two passes:
/// a mask-test count, then an exact-capacity fill — one allocation per row
/// instead of the `Vec` grow chain (rows live in many branches would
/// otherwise reallocate twice or more).
#[inline]
fn live_branches(cols: &[(BranchId, Bitmap)], col_words: &[u64], bit: u32) -> Vec<BranchId> {
    let n = col_words
        .iter()
        .map(|w| (w >> bit & 1) as usize)
        .sum::<usize>();
    let mut live = Vec::with_capacity(n);
    for (j, &(b, _)) in cols.iter().enumerate() {
        if col_words[j] >> bit & 1 == 1 {
            live.push(b);
        }
    }
    live
}

/// Materializing, word-batched scan for pre-sized outputs: writes each
/// selected record with its branch annotations into consecutive cells of
/// `out`, which must hold exactly `union.count_ones()` cells, in slot
/// order. Parallel scans carve one such slice per segment out of the
/// final result vector's spare capacity, so rows are materialized once,
/// in place — no per-task intermediate vector and no flatten copy. The
/// plan's bitmaps are borrowed (no per-task clones).
///
/// Returns only after initializing every cell; on `Err` some prefix of
/// `out` may be initialized and is reported via the returned count so the
/// caller can avoid leaking it.
pub fn scan_annotated_slice(
    heap: &HeapFile,
    union: &Bitmap,
    cols: &[(BranchId, Bitmap)],
    out: &mut [std::mem::MaybeUninit<(Record, Vec<BranchId>)>],
) -> std::result::Result<(), (usize, decibel_common::DbError)> {
    let mut cursor = heap.pinned_cursor();
    let mut col_words = vec![0u64; cols.len()];
    let mut filled = 0usize;
    for (base, mut word) in union.iter_words() {
        let wi = (base / 64) as usize;
        for (j, (_, col)) in cols.iter().enumerate() {
            col_words[j] = col.word(wi);
        }
        while word != 0 {
            let bit = word.trailing_zeros();
            word &= word - 1;
            let live = live_branches(cols, &col_words, bit);
            let rec = match cursor.read(base + bit as u64) {
                Ok(r) => r,
                Err(e) => return Err((filled, e)),
            };
            out[filled].write((rec, live));
            filled += 1;
        }
    }
    debug_assert_eq!(filled, out.len(), "union popcount must match slice size");
    if filled != out.len() {
        return Err((
            filled,
            decibel_common::DbError::Invalid(format!(
                "scan slice expected {} rows, produced {filled}",
                out.len()
            )),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use decibel_common::schema::{ColumnType, Schema};
    use decibel_pagestore::BufferPool;
    use std::sync::Arc;

    #[test]
    fn scan_visits_only_set_bits_and_skips_pages() {
        let dir = tempfile::tempdir().unwrap();
        let pool = Arc::new(BufferPool::new(128, 8));
        let schema = Schema::new(3, ColumnType::U32); // 21-byte records, 6/page
        let heap = HeapFile::create(Arc::clone(&pool), dir.path().join("h"), schema).unwrap();
        for k in 0..30u64 {
            heap.append(&Record::new(k, vec![k, k, k])).unwrap();
        }
        // Only records on the first and last pages are live.
        let mut bm = Bitmap::zeros(30);
        bm.set(1, true);
        bm.set(2, true);
        bm.set(29, true);
        pool.clear();
        let before = pool.stats();
        let got: Vec<u64> = BitmapScan::new(&heap, bm)
            .map(|r| r.unwrap().1.key())
            .collect();
        assert_eq!(got, vec![1, 2, 29]);
        let after = pool.stats();
        // 30 records at 6/page = exactly 5 full pages; only pages 0 and 4
        // hold live slots, so the middle three are never read.
        assert_eq!(after.misses - before.misses, 2);
    }

    #[test]
    fn empty_bitmap_reads_nothing() {
        let dir = tempfile::tempdir().unwrap();
        let pool = Arc::new(BufferPool::new(128, 8));
        let schema = Schema::new(3, ColumnType::U32);
        let heap = HeapFile::create(Arc::clone(&pool), dir.path().join("h"), schema).unwrap();
        for k in 0..10u64 {
            heap.append(&Record::new(k, vec![0, 0, 0])).unwrap();
        }
        pool.clear();
        assert_eq!(BitmapScan::new(&heap, Bitmap::zeros(10)).count(), 0);
        assert_eq!(pool.stats().misses, 0);
    }

    #[test]
    fn scan_crosses_word_boundaries() {
        let dir = tempfile::tempdir().unwrap();
        let pool = Arc::new(BufferPool::new(4096, 8));
        let schema = Schema::new(3, ColumnType::U32);
        let heap = HeapFile::create(pool, dir.path().join("h"), schema).unwrap();
        for k in 0..200u64 {
            heap.append(&Record::new(k, vec![k, k, k])).unwrap();
        }
        let mut bm = Bitmap::zeros(200);
        let expect: Vec<u64> = vec![0, 63, 64, 65, 127, 128, 190, 199];
        for &i in &expect {
            bm.set(i, true);
        }
        let got: Vec<u64> = BitmapScan::new(&heap, bm)
            .map(|r| r.unwrap().1.key())
            .collect();
        assert_eq!(got, expect);
    }

    fn annotated_fixture() -> (
        tempfile::TempDir,
        Arc<BufferPool>,
        HeapFile,
        Bitmap,
        Vec<(BranchId, Bitmap)>,
    ) {
        let dir = tempfile::tempdir().unwrap();
        let pool = Arc::new(BufferPool::new(4096, 8));
        let schema = Schema::new(3, ColumnType::U32);
        let heap = HeapFile::create(Arc::clone(&pool), dir.path().join("h"), schema).unwrap();
        for k in 0..150u64 {
            heap.append(&Record::new(k, vec![k, k, k])).unwrap();
        }
        // Branch 0 owns multiples of 2, branch 1 multiples of 3.
        let mut c0 = Bitmap::zeros(150);
        let mut c1 = Bitmap::zeros(150);
        for i in 0..150u64 {
            if i % 2 == 0 {
                c0.set(i, true);
            }
            if i % 3 == 0 {
                c1.set(i, true);
            }
        }
        let mut union = c0.clone();
        union.or_assign(&c1);
        let cols = vec![(BranchId(0), c0), (BranchId(1), c1)];
        (dir, pool, heap, union, cols)
    }

    #[test]
    fn annotated_scan_matches_per_row_membership() {
        let (_d, _p, heap, union, cols) = annotated_fixture();
        for item in AnnotatedScan::new(&heap, union.clone(), cols.clone()) {
            let (idx, rec, live) = item.unwrap();
            assert_eq!(idx.raw(), rec.key());
            let expect: Vec<BranchId> = cols
                .iter()
                .filter(|(_, c)| c.get(idx.raw()))
                .map(|&(b, _)| b)
                .collect();
            assert_eq!(live, expect, "row {}", idx.raw());
            assert!(!live.is_empty());
        }
        assert_eq!(
            AnnotatedScan::new(&heap, union.clone(), cols.clone()).count() as u64,
            union.count_ones()
        );
    }

    #[test]
    fn scan_annotated_slice_matches_streaming() {
        let (_d, _p, heap, union, cols) = annotated_fixture();
        let total = union.count_ones() as usize;
        let mut out: Vec<(Record, Vec<BranchId>)> = Vec::with_capacity(total);
        scan_annotated_slice(&heap, &union, &cols, &mut out.spare_capacity_mut()[..total]).unwrap();
        // SAFETY: scan_annotated_slice returned Ok, so all cells are init.
        unsafe { out.set_len(total) };
        let streamed: Vec<(Record, Vec<BranchId>)> = AnnotatedScan::new(&heap, union, cols)
            .map(|r| r.map(|(_, rec, live)| (rec, live)))
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(out, streamed);
    }

    /// Drains a planned single-heap scan into `(token, projected record)`.
    fn drain(
        heap: &HeapFile,
        bm: Bitmap,
        pred: &crate::query::Predicate,
        proj: &decibel_common::Projection,
        from: u64,
    ) -> Vec<(u64, Record)> {
        let seg = Seg {
            id: SegmentId(0),
            heap,
            live: bm,
            ann: (),
        };
        let mut scan = SegmentedScan::new(vec![seg], PagePredicate::lower(pred), from);
        let mut out = Vec::new();
        while let Some((token, slot)) = scan.next_slot().unwrap() {
            out.push((
                token,
                Record::read_projected(heap.schema(), slot, proj).unwrap(),
            ));
        }
        out
    }

    #[test]
    fn pipeline_scan_matches_filter_then_project() {
        use crate::query::Predicate;
        use decibel_common::Projection;
        let (_d, _p, heap, union, _cols) = annotated_fixture();
        let pred = Predicate::ColMod(0, 5, 0).and(Predicate::KeyRange(10, 120));
        let proj = Projection::of(&[1]);
        let got = drain(&heap, union.clone(), &pred, &proj, 0);
        let expect: Vec<(u64, Record)> = BitmapScan::new(&heap, union)
            .map(|r| r.unwrap())
            .filter(|(_, rec)| pred.eval(rec))
            .map(|(idx, mut rec)| {
                rec.project(&proj);
                (idx.raw() + 1, rec)
            })
            .collect();
        assert_eq!(got, expect);
        assert!(!got.is_empty());
    }

    #[test]
    fn pipeline_scan_resumes_in_place_from_any_position() {
        use crate::query::Predicate;
        use decibel_common::Projection;
        let (_d, _p, heap, union, _cols) = annotated_fixture();
        let pred = Predicate::ColMod(0, 3, 1);
        let all = drain(&heap, union.clone(), &pred, &Projection::All, 0);
        // Resuming from any yielded row's token returns exactly the rest.
        for cut in 0..all.len() {
            let rest = drain(&heap, union.clone(), &pred, &Projection::All, all[cut].0);
            assert_eq!(rest, all[cut + 1..], "resume after row {cut}");
        }
    }

    #[test]
    fn pipeline_annotated_matches_annotated_scan() {
        use crate::query::Predicate;
        use decibel_common::Projection;
        let (_d, _p, heap, union, cols) = annotated_fixture();
        let pred = Predicate::KeyRange(20, 130);
        let proj = Projection::of(&[0, 2]);
        let seg = Seg {
            id: SegmentId(0),
            heap: &heap,
            live: union.clone(),
            ann: cols.clone(),
        };
        let mut scan = ColumnAnnotatedScan::new(vec![seg], PagePredicate::lower(&pred), 0);
        let mut got = Vec::new();
        while let Some((token, slot, live)) = scan.next_slot().unwrap() {
            let rec = Record::read_projected(heap.schema(), slot, &proj).unwrap();
            got.push((token - 1, rec, live.to_vec()));
        }
        let expect: Vec<(u64, Record, Vec<BranchId>)> = AnnotatedScan::new(&heap, union, cols)
            .map(|r| r.unwrap())
            .filter(|(_, rec, _)| pred.eval(rec))
            .map(|(idx, mut rec, live)| {
                rec.project(&proj);
                (idx.raw(), rec, live)
            })
            .collect();
        assert_eq!(got, expect);
        assert!(!got.is_empty());
    }

    #[test]
    fn scan_annotated_slice_reports_failure_prefix() {
        let (_d, _p, heap, _union, cols) = annotated_fixture();
        // A union bit past the heap bounds fails mid-scan; the reported
        // prefix count lets callers drop exactly the initialized cells.
        let mut bad = Bitmap::zeros(heap.len() + 64);
        bad.set(0, true);
        bad.set(2, true);
        bad.set(heap.len() + 10, true);
        let mut out: Vec<(Record, Vec<BranchId>)> = Vec::with_capacity(3);
        let err = scan_annotated_slice(&heap, &bad, &cols, &mut out.spare_capacity_mut()[..3])
            .unwrap_err();
        assert_eq!(err.0, 2, "two rows decoded before the failure");
        for cell in &mut out.spare_capacity_mut()[..2] {
            // SAFETY: the reported prefix count certifies initialization.
            unsafe { cell.assume_init_drop() };
        }
    }
}
