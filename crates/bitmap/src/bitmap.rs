//! A growable bitset with word-level bulk operations.

/// A dynamically sized bitset backed by `u64` words.
///
/// Used for branch liveness columns, commit snapshots, and diff results.
/// Bulk operations (`or`, `xor`, `and_not`, ...) work a word at a time —
/// the property that makes multi-branch queries cheap in the tuple-first
/// and hybrid schemes ("Bitmaps are space-efficient and can be quickly
/// intersected for multi-branch operations", §3.1).
#[derive(Debug, Clone, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    /// Logical length in bits (bits at or past `len` are zero).
    len: u64,
}

impl PartialEq for Bitmap {
    /// Logical equality: same length, same bits. (The backing word vector
    /// may carry different amounts of zero padding from growth doubling.)
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        let n = self.len.div_ceil(64) as usize;
        (0..n).all(|i| {
            self.words.get(i).copied().unwrap_or(0) == other.words.get(i).copied().unwrap_or(0)
        })
    }
}

impl Eq for Bitmap {}

impl Bitmap {
    /// Creates an empty bitmap.
    pub const fn new() -> Self {
        Bitmap {
            words: Vec::new(),
            len: 0,
        }
    }

    /// Creates a bitmap of `len` zero bits.
    pub fn zeros(len: u64) -> Self {
        Bitmap {
            words: vec![0; len.div_ceil(64) as usize],
            len,
        }
    }

    /// Logical length in bits.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the logical length is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Grows the logical length to at least `len` bits (zero-filled).
    pub fn grow(&mut self, len: u64) {
        if len > self.len {
            self.len = len;
            let need = len.div_ceil(64) as usize;
            if need > self.words.len() {
                // Amortized doubling, as §3.2 prescribes for branch clones.
                let target = need.max(self.words.len() * 2);
                self.words.resize(target, 0);
            }
        }
    }

    /// Sets the logical length to exactly `len`: grows zero-filled like
    /// [`Bitmap::grow`], or truncates and clears every bit at or past the
    /// new end.
    pub fn resize(&mut self, len: u64) {
        if len >= self.len {
            self.grow(len);
        } else {
            *self = Bitmap::from_words(std::mem::take(&mut self.words), len);
        }
    }

    /// Sets bit `i` to `v`, growing the bitmap if needed. Clearing a bit at
    /// or past the end is a no-op (bits there already read as false), so it
    /// never grows or reallocates.
    #[inline]
    pub fn set(&mut self, i: u64, v: bool) {
        if !v && i >= self.len {
            return;
        }
        self.grow(i + 1);
        let word = (i / 64) as usize;
        let mask = 1u64 << (i % 64);
        if v {
            self.words[word] |= mask;
        } else {
            self.words[word] &= !mask;
        }
    }

    /// Returns bit `i` (bits past the end read as false).
    #[inline]
    pub fn get(&self, i: u64) -> bool {
        if i >= self.len {
            return false;
        }
        self.words[(i / 64) as usize] >> (i % 64) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Returns the index of the first set bit at or after `from`, skipping
    /// zero words — the primitive owned (self-contained) scan cursors use.
    pub fn next_one(&self, from: u64) -> Option<u64> {
        if from >= self.len {
            return None;
        }
        let mut word_idx = (from / 64) as usize;
        let mut word = self.words[word_idx] & (u64::MAX << (from % 64));
        loop {
            if word != 0 {
                let idx = word_idx as u64 * 64 + word.trailing_zeros() as u64;
                return if idx < self.len { Some(idx) } else { None };
            }
            word_idx += 1;
            if word_idx >= self.words.len() {
                return None;
            }
            word = self.words[word_idx];
        }
    }

    /// Iterates the indexes of set bits in ascending order.
    pub fn iter_ones(&self) -> OnesIter<'_> {
        OnesIter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
            len: self.len,
        }
    }

    fn binary_op(&self, other: &Bitmap, f: impl Fn(u64, u64) -> u64) -> Bitmap {
        let len = self.len.max(other.len);
        let nwords = len.div_ceil(64) as usize;
        let mut words = Vec::with_capacity(nwords);
        for i in 0..nwords {
            let a = self.words.get(i).copied().unwrap_or(0);
            let b = other.words.get(i).copied().unwrap_or(0);
            words.push(f(a, b));
        }
        Bitmap { words, len }
    }

    /// Bitwise OR (union of live sets).
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        self.binary_op(other, |a, b| a | b)
    }

    /// Bitwise AND (records live in both branches).
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        self.binary_op(other, |a, b| a & b)
    }

    /// Bitwise XOR — the paper's diff primitive ("we simply XOR bitmaps
    /// together", §3.2) and its commit-delta encoding.
    pub fn xor(&self, other: &Bitmap) -> Bitmap {
        self.binary_op(other, |a, b| a ^ b)
    }

    /// Bitwise AND-NOT: records live in `self` but not `other` (positive
    /// diff).
    pub fn and_not(&self, other: &Bitmap) -> Bitmap {
        self.binary_op(other, |a, b| a & !b)
    }

    /// In-place XOR, used when replaying commit delta chains.
    pub fn xor_assign(&mut self, other: &Bitmap) {
        let len = self.len.max(other.len);
        self.grow(len);
        for (i, &w) in other.words.iter().enumerate() {
            if w != 0 {
                self.words[i] ^= w;
            }
        }
    }

    /// In-place OR: `self |= other`. Equivalent to [`Bitmap::or`] without
    /// allocating a result vector — the primitive multi-branch scan
    /// planning uses to build union liveness bitmaps.
    pub fn or_assign(&mut self, other: &Bitmap) {
        self.grow(other.len);
        for (i, &w) in other.words.iter().enumerate() {
            if w != 0 {
                self.words[i] |= w;
            }
        }
    }

    /// In-place AND: `self &= other`. Matches [`Bitmap::and`] (the result
    /// length is the max of the two, with every bit past the shorter
    /// operand cleared).
    pub fn and_assign(&mut self, other: &Bitmap) {
        self.grow(other.len);
        let n = self.len.div_ceil(64) as usize;
        for i in 0..n {
            let w = other.words.get(i).copied().unwrap_or(0);
            self.words[i] &= w;
        }
    }

    /// In-place AND-NOT: `self &= !other`. Matches [`Bitmap::and_not`].
    pub fn and_not_assign(&mut self, other: &Bitmap) {
        self.grow(other.len);
        let n = (self.len.div_ceil(64) as usize).min(other.words.len());
        for i in 0..n {
            let w = other.words[i];
            if w != 0 {
                self.words[i] &= !w;
            }
        }
    }

    /// Overwrites `self` with a copy of `src`, reusing `self`'s word
    /// allocation — the scratch-buffer primitive for loops that derive one
    /// bitmap per iteration (`scratch.copy_from(a); scratch.and_not_assign(b)`
    /// computes `a \ b` with zero steady-state allocation).
    pub fn copy_from(&mut self, src: &Bitmap) {
        self.words.clear();
        self.words.extend_from_slice(&src.words);
        self.len = src.len;
    }

    /// Clears every bit, keeping length and allocation.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Access to the backing words (for codecs). Trailing words may be zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of words covering the logical length.
    #[inline]
    pub fn num_words(&self) -> usize {
        self.len.div_ceil(64) as usize
    }

    /// Word `wi` of the backing storage (64 liveness bits starting at bit
    /// `wi * 64`). Words past the end read as zero, so word-batched loops
    /// need no per-column bounds handling. Bits at or past `len` are zero
    /// by invariant.
    #[inline]
    pub fn word(&self, wi: usize) -> u64 {
        self.words.get(wi).copied().unwrap_or(0)
    }

    /// Iterates the nonzero word chunks as `(base_bit, word)` pairs —
    /// callers consume 64 liveness bits per step instead of probing
    /// `get(i)` per row, and all-dead chunks are skipped outright.
    pub fn iter_words(&self) -> WordChunks<'_> {
        WordChunks {
            words: &self.words[..self.num_words().min(self.words.len())],
            next: 0,
        }
    }

    /// Refines the bitmap in place by ANDing each nonzero word with the
    /// mask `f(base_bit, word)` returns — the fusion point between
    /// page-level predicate evaluation and liveness: the evaluator builds a
    /// 64-slot match word from pinned page bytes and this folds it straight
    /// into the liveness word, so filtering stays branch-free and
    /// word-batched. `f` sees only the currently set bits (its result is
    /// intersected, never unioned) and its first error aborts the walk.
    pub fn try_retain_words<E>(
        &mut self,
        mut f: impl FnMut(u64, u64) -> std::result::Result<u64, E>,
    ) -> std::result::Result<(), E> {
        let n = self.num_words().min(self.words.len());
        for wi in 0..n {
            let w = self.words[wi];
            if w != 0 {
                self.words[wi] = w & f(wi as u64 * 64, w)?;
            }
        }
        Ok(())
    }

    /// Rebuilds from raw words and a logical length. Bits at or past `len`
    /// are cleared to maintain the invariant word-batched readers rely on.
    pub fn from_words(words: Vec<u64>, len: u64) -> Bitmap {
        let mut b = Bitmap { words, len };
        let need = len.div_ceil(64) as usize;
        b.words.resize(need.max(b.words.len()), 0);
        for w in &mut b.words[need..] {
            *w = 0;
        }
        let tail_bits = len % 64;
        if tail_bits != 0 {
            if let Some(last) = b.words.get_mut(need - 1) {
                *last &= (1u64 << tail_bits) - 1;
            }
        }
        b
    }

    /// Approximate heap footprint in bytes (for the paper's index-size
    /// accounting).
    pub fn byte_size(&self) -> usize {
        self.words.len() * 8
    }
}

/// Iterator over nonzero 64-bit word chunks: yields `(base_bit, word)`.
pub struct WordChunks<'a> {
    words: &'a [u64],
    next: usize,
}

impl Iterator for WordChunks<'_> {
    type Item = (u64, u64);

    #[inline]
    fn next(&mut self) -> Option<(u64, u64)> {
        while self.next < self.words.len() {
            let wi = self.next;
            self.next += 1;
            let w = self.words[wi];
            if w != 0 {
                return Some((wi as u64 * 64, w));
            }
        }
        None
    }
}

/// Iterator over set-bit indexes, ascending.
pub struct OnesIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
    len: u64,
}

impl Iterator for OnesIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as u64;
                self.current &= self.current - 1;
                let idx = self.word_idx as u64 * 64 + bit;
                if idx >= self.len {
                    return None;
                }
                return Some(idx);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_grow() {
        let mut b = Bitmap::new();
        assert!(!b.get(100));
        b.set(100, true);
        assert!(b.get(100));
        assert_eq!(b.len(), 101);
        b.set(100, false);
        assert!(!b.get(100));
        assert_eq!(b.len(), 101);
    }

    #[test]
    fn resize_grows_and_truncates() {
        let mut b = Bitmap::new();
        for i in [3u64, 64, 130] {
            b.set(i, true);
        }
        b.resize(65);
        assert_eq!(b.len(), 65);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![3, 64]);
        b.resize(200);
        assert_eq!(b.len(), 200);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![3, 64]);
        let mut expect = Bitmap::zeros(200);
        expect.set(3, true);
        expect.set(64, true);
        assert_eq!(b, expect);
    }

    #[test]
    fn count_and_iter() {
        let mut b = Bitmap::new();
        for i in [0u64, 63, 64, 65, 1000] {
            b.set(i, true);
        }
        assert_eq!(b.count_ones(), 5);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![0, 63, 64, 65, 1000]);
    }

    #[test]
    fn iter_empty() {
        assert_eq!(Bitmap::new().iter_ones().count(), 0);
        assert_eq!(Bitmap::zeros(200).iter_ones().count(), 0);
    }

    #[test]
    fn binary_ops_on_unequal_lengths() {
        let mut a = Bitmap::new();
        a.set(1, true);
        a.set(200, true);
        let mut b = Bitmap::new();
        b.set(1, true);
        b.set(2, true);
        assert_eq!(a.or(&b).iter_ones().collect::<Vec<_>>(), vec![1, 2, 200]);
        assert_eq!(a.and(&b).iter_ones().collect::<Vec<_>>(), vec![1]);
        assert_eq!(a.xor(&b).iter_ones().collect::<Vec<_>>(), vec![2, 200]);
        assert_eq!(a.and_not(&b).iter_ones().collect::<Vec<_>>(), vec![200]);
        assert_eq!(b.and_not(&a).iter_ones().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn xor_assign_matches_xor() {
        let mut a = Bitmap::new();
        a.set(5, true);
        a.set(70, true);
        let mut b = Bitmap::new();
        b.set(70, true);
        b.set(128, true);
        let expect = a.xor(&b);
        a.xor_assign(&b);
        assert_eq!(
            a.iter_ones().collect::<Vec<_>>(),
            expect.iter_ones().collect::<Vec<_>>()
        );
    }

    #[test]
    fn xor_is_involutive() {
        let mut a = Bitmap::new();
        let mut b = Bitmap::new();
        for i in 0..500 {
            if i % 3 == 0 {
                a.set(i, true);
            }
            if i % 5 == 0 {
                b.set(i, true);
            }
        }
        let mut c = a.clone();
        c.xor_assign(&b);
        c.xor_assign(&b);
        for i in 0..500 {
            assert_eq!(c.get(i), a.get(i));
        }
    }

    #[test]
    fn from_words_roundtrip() {
        let mut a = Bitmap::new();
        a.set(3, true);
        a.set(90, true);
        let b = Bitmap::from_words(a.words().to_vec(), a.len());
        assert_eq!(a, b);
    }

    #[test]
    fn next_one_matches_iter() {
        let mut b = Bitmap::new();
        for i in [0u64, 3, 64, 65, 190, 191] {
            b.set(i, true);
        }
        let mut collected = Vec::new();
        let mut pos = 0;
        while let Some(i) = b.next_one(pos) {
            collected.push(i);
            pos = i + 1;
        }
        assert_eq!(collected, b.iter_ones().collect::<Vec<_>>());
        assert_eq!(b.next_one(192), None);
        assert_eq!(b.next_one(66), Some(190));
    }

    #[test]
    fn grow_is_monotonic() {
        let mut b = Bitmap::new();
        b.grow(10);
        b.grow(5);
        assert_eq!(b.len(), 10);
    }

    #[test]
    fn clearing_past_end_is_a_noop() {
        let mut b = Bitmap::zeros(10);
        b.set(1000, false);
        assert_eq!(b.len(), 10);
        assert_eq!(b.words().len(), 1);
        let mut empty = Bitmap::new();
        empty.set(0, false);
        assert!(empty.is_empty());
        assert_eq!(empty.words().len(), 0);
    }

    fn ragged_pair() -> (Bitmap, Bitmap) {
        let mut a = Bitmap::new();
        let mut b = Bitmap::new();
        for i in [0u64, 5, 63, 64, 130, 300] {
            a.set(i, true);
        }
        for i in [5u64, 64, 65, 500] {
            b.set(i, true);
        }
        (a, b)
    }

    #[test]
    fn in_place_ops_match_allocating() {
        for swap in [false, true] {
            let (mut a, mut b) = ragged_pair();
            if swap {
                std::mem::swap(&mut a, &mut b);
            }
            let mut v = a.clone();
            v.or_assign(&b);
            assert_eq!(v, a.or(&b));
            let mut v = a.clone();
            v.and_assign(&b);
            assert_eq!(v, a.and(&b));
            let mut v = a.clone();
            v.and_not_assign(&b);
            assert_eq!(v, a.and_not(&b));
        }
    }

    #[test]
    fn copy_from_reuses_allocation() {
        let (a, b) = ragged_pair();
        let mut scratch = a.clone();
        let cap = scratch.words().len();
        scratch.copy_from(&b);
        assert_eq!(scratch, b);
        scratch.copy_from(&a);
        scratch.and_not_assign(&b);
        assert_eq!(scratch, a.and_not(&b));
        assert!(scratch.words().len() >= cap.min(scratch.num_words()));
        scratch.clear_all();
        assert_eq!(scratch.count_ones(), 0);
    }

    #[test]
    fn word_chunks_cover_all_ones() {
        let (a, _) = ragged_pair();
        let mut from_words = Vec::new();
        for (base, mut w) in a.iter_words() {
            while w != 0 {
                from_words.push(base + w.trailing_zeros() as u64);
                w &= w - 1;
            }
        }
        assert_eq!(from_words, a.iter_ones().collect::<Vec<_>>());
        // Zero chunks are skipped: only words 0, 1, 2, 4 hold bits.
        assert_eq!(a.iter_words().count(), 4);
        assert_eq!(Bitmap::zeros(640).iter_words().count(), 0);
    }

    #[test]
    fn word_accessor_is_total() {
        let mut b = Bitmap::new();
        b.set(70, true);
        assert_eq!(b.word(1), 1u64 << 6);
        assert_eq!(b.word(0), 0);
        assert_eq!(b.word(99), 0);
        assert_eq!(b.num_words(), 2);
    }

    #[test]
    fn try_retain_words_intersects_and_skips_zero_words() {
        let (a, _) = ragged_pair(); // bits 0,5,63,64,130,300
        let mut b = a.clone();
        let mut seen = Vec::new();
        b.try_retain_words::<()>(|base, w| {
            seen.push((base, w));
            // Keep only even bit positions.
            Ok(0x5555_5555_5555_5555)
        })
        .unwrap();
        let evens: Vec<u64> = a.iter_ones().filter(|i| i % 2 == 0).collect();
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), evens);
        // Zero words (word 3) are never visited.
        assert_eq!(
            seen.iter().map(|&(base, _)| base).collect::<Vec<_>>(),
            vec![0, 64, 128, 256]
        );
        // Errors abort and surface.
        let mut c = a.clone();
        assert_eq!(c.try_retain_words(|_, _| Err("boom")), Err("boom"));
    }

    #[test]
    fn from_words_masks_stray_tail_bits() {
        let b = Bitmap::from_words(vec![u64::MAX], 10);
        assert_eq!(b.count_ones(), 10);
        assert_eq!(b.iter_ones().max(), Some(9));
        assert_eq!(b.iter_words().map(|(_, w)| w).next(), Some(0x3ff));
    }
}
