//! The bitmap engines' planned scan, shared by tuple-first and hybrid.
//!
//! Scans are *word-level*: they walk the liveness bitmap 64 bits at a time
//! (skipping all-dead words outright), fuse the lowered predicate into each
//! word on the pinned page bytes, and yield surviving rows as slot bytes
//! through a page-pinned [`PinnedCursor`], so each heap page is fetched
//! from the buffer pool once per scan and nothing is decoded here.

use decibel_bitmap::Bitmap;
use decibel_common::ids::{BranchId, SegmentId};
use decibel_common::record::Record;
use decibel_common::schema::Schema;
use decibel_common::{Projection, Result};
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

/// One heap's share of a planned scan: streams the slots set in a
/// liveness bitmap that pass a lowered predicate. The bitmap is consumed a
/// 64-bit word per step; within a word, set bits are popped with
/// `trailing_zeros`, so per-row overhead is a few ALU ops. Pages with no
/// live slots are never read — which is exactly why tuple-first
/// single-branch scans degrade under interleaved loading (nearly every
/// page has *some* live record, §5.2) while clustered loading lets them
/// skip cold pages.
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
/// tokens — restarting is O(1): whole segments before the token are
/// dropped by id and the token's own segment starts at the token slot's
/// liveness word. Tuple-first is the one-segment case (segment 0, so its
/// tokens are `slot + 1`).
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

/// Decodes every row set in the segments' liveness bitmaps, whole, in
/// `(segment, slot)` order — the record-materialising reads (`diff`, merge
/// change sets) of the bitmap engines. The unfiltered [`SegmentedScan`]
/// minus its resume tokens: each segment's [`PipelineScan`] is drained
/// directly, which cut a warm-pool hybrid diff decoding 30k rows from
/// ~1.45 ms through [`SlotCursor::next_slot`] to ~1.1 ms (2-vCPU x86_64).
pub fn decode_rows(segs: Vec<Seg<'_>>, schema: &Schema) -> Result<Vec<Record>> {
    let mut out = Vec::new();
    for seg in segs {
        let mut scan = PipelineScan::new(seg.heap, seg.live, 0);
        while let Some(idx) = scan.advance(&PagePredicate::True)? {
            out.push(Record::read_projected(
                schema,
                scan.slot(idx)?,
                &Projection::All,
            )?);
        }
    }
    Ok(out)
}

/// Multi-branch [`SegmentedScan`] for the bitmap engines: each segment is
/// driven by the union of the requested branches' columns and annotated
/// with the branches whose column has the row's bit set, from per-chunk
/// cached column words into a reused buffer.
pub struct BranchColumnScan<'a> {
    scan: SegmentedScan<'a, Vec<(BranchId, Bitmap)>>,
    col_words: Vec<u64>,
    /// `(segment position, word index)` the cached `col_words` belong to.
    cached: (usize, usize),
    live: Vec<BranchId>,
}

impl<'a> BranchColumnScan<'a> {
    /// Plans the scan; each segment's `live` is the union of its `ann`
    /// columns.
    pub fn new(
        segs: Vec<Seg<'a, Vec<(BranchId, Bitmap)>>>,
        pred: PagePredicate,
        from: u64,
    ) -> Self {
        BranchColumnScan {
            scan: SegmentedScan::new(segs, pred, from),
            col_words: Vec::new(),
            cached: (usize::MAX, usize::MAX),
            live: Vec::new(),
        }
    }
}

impl AnnotatedSlotCursor for BranchColumnScan<'_> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Predicate;
    use decibel_common::ids::RecordIdx;
    use decibel_common::schema::ColumnType;
    use decibel_pagestore::BufferPool;
    use std::sync::Arc;

    /// A heap of `n` 21-byte records (key `k` in slot `k`) behind a fresh
    /// pool of `page_size`-byte pages.
    fn heap_of(page_size: usize, n: u64) -> (tempfile::TempDir, Arc<BufferPool>, HeapFile) {
        let dir = tempfile::tempdir().unwrap();
        let pool = Arc::new(BufferPool::new(page_size, 8));
        let schema = Schema::new(3, ColumnType::U32);
        let heap = HeapFile::create(Arc::clone(&pool), dir.path().join("h"), schema).unwrap();
        for k in 0..n {
            heap.append(&Record::new(k, vec![k, k, k])).unwrap();
        }
        (dir, pool, heap)
    }

    fn bitmap(len: u64, ones: &[u64]) -> Bitmap {
        let mut bm = Bitmap::zeros(len);
        for &i in ones {
            bm.set(i, true);
        }
        bm
    }

    /// First-principles reference: every set bit of `bm`, read by index.
    fn reference(heap: &HeapFile, bm: &Bitmap) -> Vec<(u64, Record)> {
        bm.iter_ones()
            .map(|i| (i, heap.get(RecordIdx(i)).unwrap()))
            .collect()
    }

    /// Drains a planned single-heap scan into `(token, projected record)`.
    fn drain(
        heap: &HeapFile,
        bm: Bitmap,
        pred: &Predicate,
        proj: &Projection,
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

    fn keys(rows: &[(u64, Record)]) -> Vec<u64> {
        rows.iter().map(|(_, rec)| rec.key()).collect()
    }

    #[test]
    fn scan_visits_only_set_bits_and_skips_pages() {
        let (_d, pool, heap) = heap_of(128, 30);
        // Only records on the first and last pages are live.
        let bm = bitmap(30, &[1, 2, 29]);
        pool.clear();
        let before = pool.stats();
        let got = drain(&heap, bm, &Predicate::True, &Projection::All, 0);
        assert_eq!(keys(&got), vec![1, 2, 29]);
        let after = pool.stats();
        // 30 records at 6/page = exactly 5 full pages; only pages 0 and 4
        // hold live slots, so the middle three are never read.
        assert_eq!(after.misses - before.misses, 2);
    }

    #[test]
    fn empty_bitmap_reads_nothing() {
        let (_d, pool, heap) = heap_of(128, 10);
        pool.clear();
        let got = drain(
            &heap,
            Bitmap::zeros(10),
            &Predicate::True,
            &Projection::All,
            0,
        );
        assert!(got.is_empty());
        assert_eq!(pool.stats().misses, 0);
    }

    #[test]
    fn scan_crosses_word_boundaries() {
        let (_d, _p, heap) = heap_of(4096, 200);
        let bm = bitmap(200, &[0, 63, 64, 65, 127, 128, 190, 199]);
        let got = drain(&heap, bm.clone(), &Predicate::True, &Projection::All, 0);
        let expect: Vec<(u64, Record)> = reference(&heap, &bm)
            .into_iter()
            .map(|(i, rec)| (i + 1, rec))
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
        let (dir, pool, heap) = heap_of(4096, 150);
        // Branch 0 owns multiples of 2, branch 1 multiples of 3.
        let c0 = bitmap(150, &(0..150).step_by(2).collect::<Vec<_>>());
        let c1 = bitmap(150, &(0..150).step_by(3).collect::<Vec<_>>());
        let mut union = c0.clone();
        union.or_assign(&c1);
        let cols = vec![(BranchId(0), c0), (BranchId(1), c1)];
        (dir, pool, heap, union, cols)
    }

    /// Drains a planned annotated scan into `(slot, projected record,
    /// branches)`.
    fn drain_annotated(
        heap: &HeapFile,
        union: Bitmap,
        cols: Vec<(BranchId, Bitmap)>,
        pred: &Predicate,
        proj: &Projection,
    ) -> Vec<(u64, Record, Vec<BranchId>)> {
        let seg = Seg {
            id: SegmentId(0),
            heap,
            live: union,
            ann: cols,
        };
        let mut scan = BranchColumnScan::new(vec![seg], PagePredicate::lower(pred), 0);
        let mut out = Vec::new();
        while let Some((token, slot, live)) = scan.next_slot().unwrap() {
            let rec = Record::read_projected(heap.schema(), slot, proj).unwrap();
            out.push((token - 1, rec, live.to_vec()));
        }
        out
    }

    /// Reference annotation: the branches whose column has bit `i` set.
    fn members(cols: &[(BranchId, Bitmap)], i: u64) -> Vec<BranchId> {
        cols.iter()
            .filter(|(_, c)| c.get(i))
            .map(|&(b, _)| b)
            .collect()
    }

    #[test]
    fn annotated_scan_matches_per_row_membership() {
        let (_d, _p, heap, union, cols) = annotated_fixture();
        let got = drain_annotated(
            &heap,
            union.clone(),
            cols.clone(),
            &Predicate::True,
            &Projection::All,
        );
        let expect: Vec<(u64, Record, Vec<BranchId>)> = reference(&heap, &union)
            .into_iter()
            .map(|(i, rec)| (i, rec, members(&cols, i)))
            .collect();
        assert_eq!(got, expect);
        assert!(got.iter().all(|(_, _, live)| !live.is_empty()));
        assert_eq!(got.len() as u64, union.count_ones());
    }

    #[test]
    fn pipeline_scan_matches_filter_then_project() {
        let (_d, _p, heap, union, _cols) = annotated_fixture();
        let pred = Predicate::ColMod(0, 5, 0).and(Predicate::KeyRange(10, 120));
        let proj = Projection::of(&[1]);
        let got = drain(&heap, union.clone(), &pred, &proj, 0);
        let expect: Vec<(u64, Record)> = reference(&heap, &union)
            .into_iter()
            .filter(|(_, rec)| pred.eval(rec))
            .map(|(i, mut rec)| {
                rec.project(&proj);
                (i + 1, rec)
            })
            .collect();
        assert_eq!(got, expect);
        assert!(!got.is_empty());
    }

    #[test]
    fn decode_rows_is_every_segment_in_order() {
        let (_d, _p, heap, union, cols) = annotated_fixture();
        let c0 = cols[0].1.clone();
        let seg = |id, live| Seg {
            id: SegmentId(id),
            heap: &heap,
            live,
            ann: (),
        };
        let got = decode_rows(
            vec![seg(0, union.clone()), seg(1, c0.clone())],
            heap.schema(),
        );
        let expect: Vec<Record> = reference(&heap, &union)
            .into_iter()
            .chain(reference(&heap, &c0))
            .map(|(_, rec)| rec)
            .collect();
        assert_eq!(got.unwrap(), expect);
    }

    #[test]
    fn pipeline_scan_resumes_in_place_from_any_position() {
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
    fn pipeline_annotated_matches_filter_then_project() {
        let (_d, _p, heap, union, cols) = annotated_fixture();
        let pred = Predicate::KeyRange(20, 130);
        let proj = Projection::of(&[0, 2]);
        let got = drain_annotated(&heap, union.clone(), cols.clone(), &pred, &proj);
        let expect: Vec<(u64, Record, Vec<BranchId>)> = reference(&heap, &union)
            .into_iter()
            .filter(|(_, rec)| pred.eval(rec))
            .map(|(i, mut rec)| {
                rec.project(&proj);
                (i, rec, members(&cols, i))
            })
            .collect();
        assert_eq!(got, expect);
        assert!(!got.is_empty());
    }
}
