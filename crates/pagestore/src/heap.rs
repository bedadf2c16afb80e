//! Append-only heap files of fixed-width record slots.
//!
//! Every physical structure in the paper is one of these: the tuple-first
//! shared heap file (§3.2, "stores tuples from all branches together in a
//! single shared heap file"), and the per-branch segment files of the
//! version-first and hybrid schemes (§3.3–3.4). Records are fixed width
//! (header + key + columns, see [`decibel_common::record`]), so a record's
//! slot index determines its byte offset directly:
//!
//! ```text
//! offset(i) = (i / slots_per_page) * page_size + (i % slots_per_page) * record_size
//! ```
//!
//! Records never straddle pages; the tail of each page is padding plus a
//! CRC-32 trailer ([`PAGE_TRAILER_LEN`] bytes) written when the page fills
//! and verified whenever the buffer pool re-reads the page from disk, so a
//! torn or bit-flipped full page surfaces as a typed corruption error
//! instead of a garbage decode. Pages are immutable once full. The partial
//! tail page lives in an in-memory append buffer owned by the file (flushed
//! on demand), so readers never observe a torn page; its disk image is not
//! checksummed — a torn tail is truncated back to a whole slot on open and
//! the lost suffix is restored by journal replay.
//!
//! All file IO goes through the pool's [`DiskEnv`], so fault injection
//! covers every heap write, read, truncate, and fsync.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use decibel_common::crc::crc32;
use decibel_common::env::{DiskFile, OpenMode};
use decibel_common::error::{DbError, IoResultExt, Result};
use decibel_common::ids::RecordIdx;
use decibel_common::projection::Projection;
use decibel_common::record::Record;
use decibel_common::schema::Schema;
use decibel_obs::{family, Counter};
use parking_lot::Mutex;

use crate::buffer_pool::{BufferPool, FileId};
use crate::config::{try_slots_for, PAGE_TRAILER_LEN};

#[cfg(doc)]
use decibel_common::env::DiskEnv;

struct Tail {
    /// Number of pages fully written to disk.
    full_pages: u64,
    /// Serialized records of the current partial page.
    buf: Vec<u8>,
    /// Bytes of `buf` already flushed to disk.
    flushed: usize,
}

/// An append-only file of fixed-width record slots, cached through a shared
/// [`BufferPool`].
pub struct HeapFile {
    schema: Schema,
    record_size: usize,
    slots_per_page: usize,
    page_size: usize,
    pool: Arc<BufferPool>,
    file_id: FileId,
    file: Arc<dyn DiskFile>,
    path: PathBuf,
    tail: Mutex<Tail>,
    /// Full-page reads served to this file (cache hits and misses alike).
    page_reads: Counter,
    /// Record slots appended to this file.
    appends: Counter,
    /// Pages pinned for scans (full pages and tail snapshots alike);
    /// registered under the `scan` family — it measures read-path page
    /// traffic, not pool behavior.
    scan_pins: Counter,
}

impl HeapFile {
    /// Creates a new, empty heap file at `path`.
    pub fn create(pool: Arc<BufferPool>, path: impl AsRef<Path>, schema: Schema) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = pool
            .env()
            .open(&path, OpenMode::Truncate)
            .ctx("creating heap file")?;
        Self::from_file(pool, path, schema, file)
    }

    /// Opens an existing heap file, recovering the record count from the
    /// file length (full pages are `page_size` bytes; a partial tail page is
    /// a whole number of record slots).
    ///
    /// A torn tail write — a crash mid-append leaving a non-whole number of
    /// record slots — is repaired by truncating the file back to the last
    /// whole slot; the lost suffix is exactly what journal replay restores.
    pub fn open(pool: Arc<BufferPool>, path: impl AsRef<Path>, schema: Schema) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = Self::open_existing(&pool, &path)?;
        Self::from_file(pool, path, schema, file)
    }

    /// Opens `path` read-write, erroring (rather than creating an empty
    /// file) when it does not exist — a missing heap file at open time is a
    /// recovery bug, not a fresh store.
    fn open_existing(pool: &BufferPool, path: &Path) -> Result<Arc<dyn DiskFile>> {
        if !pool.env().exists(path) {
            return Err(DbError::io(
                "opening heap file",
                std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    format!("{} does not exist", path.display()),
                ),
            ));
        }
        pool.env()
            .open(path, OpenMode::ReadWrite)
            .ctx("opening heap file")
    }

    /// Opens an existing heap file at a checkpoint-recorded coverage of
    /// exactly `records` slots, truncating any bytes beyond it.
    ///
    /// Used by the engines' open-from-checkpoint path: appends that happened
    /// after the checkpoint was taken (flushed tails, crash garbage, a torn
    /// write) are discarded here and regenerated by replaying the journal
    /// suffix, so the in-memory record count always matches the snapshot
    /// the checkpoint's bitmaps and offsets were taken against.
    pub fn open_at(
        pool: Arc<BufferPool>,
        path: impl AsRef<Path>,
        schema: Schema,
        records: u64,
    ) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = Self::open_existing(&pool, &path)?;
        let record_size = schema.record_size();
        let page_size = pool.page_size();
        let slots_per_page = match try_slots_for(page_size, record_size) {
            Some(s) => s as u64,
            None => {
                return Err(DbError::Invalid(format!(
                    "record size {record_size} exceeds page size {page_size}"
                )))
            }
        };
        // Full pages are padded (and checksummed) to page_size on disk; only
        // the partial tail page is a bare run of record slots.
        let covered = (records / slots_per_page) * page_size as u64
            + (records % slots_per_page) * record_size as u64;
        let len = file.len().ctx("stat heap file")?;
        if len < covered {
            return Err(DbError::corrupt(format!(
                "heap file {} shorter than its checkpoint coverage ({len} < {covered} bytes)",
                path.display()
            )));
        }
        if len > covered {
            file.set_len(covered).ctx("truncating heap to checkpoint")?;
        }
        Self::from_file(pool, path, schema, file)
    }

    fn from_file(
        pool: Arc<BufferPool>,
        path: PathBuf,
        schema: Schema,
        file: Arc<dyn DiskFile>,
    ) -> Result<Self> {
        let record_size = schema.record_size();
        let page_size = pool.page_size();
        let slots_per_page = match try_slots_for(page_size, record_size) {
            Some(s) => s,
            None => {
                return Err(DbError::Invalid(format!(
                    "record size {record_size} exceeds page size {page_size}"
                )))
            }
        };
        let mut len = file.len().ctx("stat heap file")?;
        let torn = (len % page_size as u64) % record_size as u64;
        if torn != 0 {
            // Torn tail: a crash mid-append left a fractional record slot.
            // Rounding the count down while leaving the bytes in place would
            // misalign every later append, so cut the file back to the last
            // whole slot; journal replay restores the lost suffix.
            len -= torn;
            file.set_len(len).ctx("truncating torn heap tail")?;
        }
        let full_pages = len / page_size as u64;
        let tail_bytes = (len % page_size as u64) as usize;
        let mut buf = vec![0u8; tail_bytes];
        if tail_bytes > 0 {
            file.read_exact_at(&mut buf, full_pages * page_size as u64)
                .ctx("reading heap tail")?;
        }
        let file_id = pool.register(Arc::clone(&file));
        let page_reads = pool.registry().counter(family::POOL, "heap_page_reads");
        let appends = pool.registry().counter(family::POOL, "heap_appends");
        let scan_pins = pool.registry().counter(family::SCAN, "pages_pinned");
        let heap = HeapFile {
            schema,
            record_size,
            slots_per_page,
            page_size,
            pool,
            file_id,
            file,
            path,
            tail: Mutex::new(Tail {
                full_pages,
                flushed: buf.len(),
                buf,
            }),
            page_reads,
            appends,
            scan_pins,
        };
        {
            // A crash can tear a *full-page* write down to exactly
            // slots_per_page whole slots; reloading those bytes as a tail
            // would leave the append buffer already at capacity and every
            // later flush misaligned. Re-flush them as the full page they
            // are (re-deriving padding and checksum).
            let mut tail = heap.tail.lock();
            if !tail.buf.is_empty() && tail.buf.len() == heap.slots_per_page * heap.record_size {
                heap.flush_full_page(&mut tail)?;
            }
        }
        Ok(heap)
    }

    /// The relation schema records in this file conform to.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Filesystem path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of records (live + superseded + tombstones) in the file.
    pub fn len(&self) -> u64 {
        let tail = self.tail.lock();
        tail.full_pages * self.slots_per_page as u64 + (tail.buf.len() / self.record_size) as u64
    }

    /// True if no records have been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// On-disk size in bytes once flushed (used by the storage-size tables).
    pub fn byte_size(&self) -> u64 {
        let tail = self.tail.lock();
        tail.full_pages * self.page_size as u64 + tail.buf.len() as u64
    }

    /// Appends a record, returning its slot index.
    pub fn append(&self, record: &Record) -> Result<RecordIdx> {
        let mut slot = vec![0u8; self.record_size];
        record.write_to(&self.schema, &mut slot)?;
        self.append_bytes(&slot)
    }

    /// Appends a pre-serialized record slot.
    pub fn append_bytes(&self, slot: &[u8]) -> Result<RecordIdx> {
        debug_assert_eq!(slot.len(), self.record_size);
        self.appends.inc();
        let mut tail = self.tail.lock();
        let idx = tail.full_pages * self.slots_per_page as u64
            + (tail.buf.len() / self.record_size) as u64;
        tail.buf.extend_from_slice(slot);
        if tail.buf.len() / self.record_size == self.slots_per_page {
            self.flush_full_page(&mut tail)?;
        }
        Ok(RecordIdx(idx))
    }

    /// Writes the (now full) tail page, padded to `page_size` with its
    /// CRC-32 in the trailer, and installs it in the buffer pool so
    /// load-then-scan stays warm.
    fn flush_full_page(&self, tail: &mut Tail) -> Result<()> {
        let mut page = std::mem::take(&mut tail.buf);
        page.resize(self.page_size, 0);
        let split = self.page_size - PAGE_TRAILER_LEN;
        let crc = crc32(&page[..split]);
        page[split..].copy_from_slice(&crc.to_le_bytes());
        self.file
            .write_all_at(&page, tail.full_pages * self.page_size as u64)
            .ctx("writing full heap page")?;
        self.pool
            .put_page(self.file_id, tail.full_pages, Arc::new(page));
        tail.full_pages += 1;
        tail.flushed = 0;
        Ok(())
    }

    /// Flushes any partial tail page to disk (records stay readable either
    /// way; this is for durability and for size accounting).
    pub fn flush(&self) -> Result<()> {
        let mut tail = self.tail.lock();
        if tail.flushed < tail.buf.len() {
            let start = tail.flushed;
            self.file
                .write_all_at(
                    &tail.buf[start..],
                    tail.full_pages * self.page_size as u64 + start as u64,
                )
                .ctx("writing heap tail")?;
            tail.flushed = tail.buf.len();
        }
        Ok(())
    }

    /// Forces flushed bytes to stable storage (`fdatasync`). Checkpoints
    /// call this after [`HeapFile::flush`] so the coverage they record is
    /// durable, not just in the page cache.
    pub fn sync(&self) -> Result<()> {
        self.file.sync_data().ctx("fsyncing heap file")
    }

    /// Checks a full page's CRC-32 trailer; run by the buffer pool on every
    /// disk read of a full page. Partial tail pages (shorter buffers) pass
    /// unchecked — their integrity is enforced by torn-tail truncation plus
    /// journal replay.
    fn verify_page(&self, page_no: u64, page: &[u8]) -> Result<()> {
        if page.len() != self.page_size {
            return Ok(());
        }
        let split = self.page_size - PAGE_TRAILER_LEN;
        let stored = u32::from_le_bytes(page[split..].try_into().expect("4-byte page trailer"));
        if crc32(&page[..split]) != stored {
            return Err(DbError::corrupt(format!(
                "heap page {page_no} of {} failed checksum (torn or bit-flipped page)",
                self.path.display()
            )));
        }
        Ok(())
    }

    fn read_full_page(&self, page_no: u64) -> Result<Arc<Vec<u8>>> {
        self.page_reads.inc();
        let verify = |page: &[u8]| self.verify_page(page_no, page);
        self.pool
            .get_page_with(self.file_id, page_no, self.page_size, Some(&verify))
    }

    /// Reads the record at `idx`.
    pub fn get(&self, idx: RecordIdx) -> Result<Record> {
        self.with_slot(idx, |slot| Record::read_from(&self.schema, slot))?
    }

    /// Reads only the key and tombstone flag at `idx` (cheaper than
    /// [`HeapFile::get`] for filters that reject most slots).
    pub fn peek_key(&self, idx: RecordIdx) -> Result<(u64, bool)> {
        self.with_slot(idx, Record::peek_key)
    }

    /// Runs `f` over the raw bytes of slot `idx`.
    fn with_slot<T>(&self, idx: RecordIdx, f: impl FnOnce(&[u8]) -> T) -> Result<T> {
        let page_no = idx.0 / self.slots_per_page as u64;
        let slot_in_page = (idx.0 % self.slots_per_page as u64) as usize;
        let off = slot_in_page * self.record_size;
        let tail = self.tail.lock();
        if page_no == tail.full_pages {
            // Tail page: serve from the append buffer.
            if off + self.record_size > tail.buf.len() {
                return Err(DbError::corrupt(format!(
                    "record index {} out of bounds",
                    idx.0
                )));
            }
            return Ok(f(&tail.buf[off..off + self.record_size]));
        }
        if page_no > tail.full_pages {
            return Err(DbError::corrupt(format!(
                "record index {} out of bounds",
                idx.0
            )));
        }
        drop(tail);
        let page = self.read_full_page(page_no)?;
        Ok(f(&page[off..off + self.record_size]))
    }

    /// Streams records `[start, end)` in slot order.
    pub fn scan(&self, start: RecordIdx, end: RecordIdx) -> HeapScan<'_> {
        let end = end.0.min(self.len());
        HeapScan {
            cursor: self.pinned_cursor(),
            next: start.0,
            end,
        }
    }

    /// Streams all records in slot order.
    pub fn scan_all(&self) -> HeapScan<'_> {
        self.scan(RecordIdx(0), RecordIdx(u64::MAX))
    }

    fn load_scan_page(&self, page_no: u64) -> Result<Arc<Vec<u8>>> {
        self.scan_pins.inc();
        let tail = self.tail.lock();
        if page_no >= tail.full_pages {
            // Snapshot the tail buffer.
            return Ok(Arc::new(tail.buf.clone()));
        }
        drop(tail);
        self.read_full_page(page_no)
    }

    /// Loads one page for an external filtered scan (engines drive scans by
    /// liveness bitmaps and cache the returned page across adjacent slots).
    pub fn page(&self, page_no: u64) -> Result<Arc<Vec<u8>>> {
        self.load_scan_page(page_no)
    }

    /// A page-pinned cursor for slot-addressed reads: each page is pinned
    /// from the buffer pool once and every selected slot on it is decoded
    /// directly from the pinned bytes — the batched primitive bitmap-driven
    /// scans use instead of per-record [`HeapFile::get`] calls.
    pub fn pinned_cursor(&self) -> PinnedCursor<'_> {
        PinnedCursor {
            heap: self,
            page_no: u64::MAX,
            page: None,
        }
    }

    /// Record slots per page.
    #[inline]
    pub fn slots_per_page(&self) -> usize {
        self.slots_per_page
    }

    /// Serialized record width in bytes.
    #[inline]
    pub fn record_size(&self) -> usize {
        self.record_size
    }
}

/// A batched, page-pinned scan cursor over a [`HeapFile`].
///
/// Slot reads are served from the currently pinned page; a new page is
/// pinned from the buffer pool only when the requested slot crosses a page
/// boundary. Monotonically increasing slot sequences (the common case for
/// bitmap-driven scans) therefore cost one pool lookup per *page*, not per
/// record, and records decode directly from the pinned bytes with no
/// intermediate copy.
pub struct PinnedCursor<'a> {
    heap: &'a HeapFile,
    page_no: u64,
    page: Option<Arc<Vec<u8>>>,
}

impl PinnedCursor<'_> {
    /// Raw bytes of slot `idx`, pinning its page if not already pinned.
    #[inline]
    pub fn slot_bytes(&mut self, idx: u64) -> Result<&[u8]> {
        let spp = self.heap.slots_per_page as u64;
        let page_no = idx / spp;
        if self.page.is_none() || self.page_no != page_no {
            self.page = Some(self.heap.load_scan_page(page_no)?);
            self.page_no = page_no;
        }
        let rs = self.heap.record_size;
        let off = (idx % spp) as usize * rs;
        let page = self.page.as_ref().expect("scan page loaded above");
        if off + rs > page.len() {
            return Err(DbError::corrupt(format!("slot {idx} beyond page bounds")));
        }
        Ok(&page[off..off + rs])
    }

    /// Decodes the record at slot `idx` from the pinned page.
    #[inline]
    pub fn read(&mut self, idx: u64) -> Result<Record> {
        let schema = &self.heap.schema;
        self.slot_bytes(idx)
            .and_then(|slot| Record::read_from(schema, slot))
    }

    /// Key and tombstone flag of slot `idx` (header-only decode).
    #[inline]
    pub fn peek_key(&mut self, idx: u64) -> Result<(u64, bool)> {
        Ok(Record::peek_key(self.slot_bytes(idx)?))
    }

    /// Reads data column `col` of slot `idx` straight off the pinned page
    /// bytes, without decoding the record around it. This is the primitive
    /// page-level predicate evaluation is built on: a fixed-width comparison
    /// touches only the compared column's 4 or 8 bytes per slot.
    #[inline]
    pub fn read_field(&mut self, idx: u64, col: usize) -> Result<u64> {
        let schema = &self.heap.schema;
        self.slot_bytes(idx)
            .map(|slot| Record::read_raw_field(schema, slot, col))
    }

    /// Decodes only the projected columns of slot `idx` from the pinned
    /// page; non-projected fields of the returned record read as `0`
    /// (see [`Projection`]).
    #[inline]
    pub fn read_projected(&mut self, idx: u64, projection: &Projection) -> Result<Record> {
        let schema = &self.heap.schema;
        self.slot_bytes(idx)
            .and_then(|slot| Record::read_projected(schema, slot, projection))
    }
}

/// Streaming iterator over a slot range of a [`HeapFile`].
///
/// Yields `(slot index, record)` pairs; I/O errors surface as `Err` items.
pub struct HeapScan<'a> {
    cursor: PinnedCursor<'a>,
    /// Next slot to yield.
    next: u64,
    /// Exclusive end.
    end: u64,
}

impl Iterator for HeapScan<'_> {
    type Item = Result<(RecordIdx, Record)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.end {
            return None;
        }
        let idx = self.next;
        self.next += 1;
        Some(self.cursor.read(idx).map(|r| (RecordIdx(idx), r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decibel_common::schema::ColumnType;

    fn setup(cols: usize) -> (tempfile::TempDir, Arc<BufferPool>, Schema) {
        let dir = tempfile::tempdir().unwrap();
        // Tiny pages so a handful of records spans multiple pages.
        let pool = Arc::new(BufferPool::new(128, 8));
        let schema = Schema::new(cols, ColumnType::U32);
        (dir, pool, schema)
    }

    fn rec(k: u64, cols: usize) -> Record {
        Record::new(k, (0..cols as u64).map(|c| k * 100 + c).collect())
    }

    #[test]
    fn append_get_roundtrip_across_pages() {
        let (dir, pool, schema) = setup(3);
        // record_size = 1+8+12 = 21; (128-4)/21 = 5 slots per page (the 4
        // reserved bytes hold the page checksum).
        let heap = HeapFile::create(pool, dir.path().join("h"), schema).unwrap();
        let mut idxs = Vec::new();
        for k in 0..20 {
            idxs.push(heap.append(&rec(k, 3)).unwrap());
        }
        assert_eq!(heap.len(), 20);
        for (k, idx) in idxs.iter().enumerate() {
            let r = heap.get(*idx).unwrap();
            assert_eq!(r.key(), k as u64);
            assert_eq!(r.field(1), k as u64 * 100 + 1);
        }
    }

    #[test]
    fn indices_are_dense_and_sequential() {
        let (dir, pool, schema) = setup(3);
        let heap = HeapFile::create(pool, dir.path().join("h"), schema).unwrap();
        for k in 0..15 {
            assert_eq!(heap.append(&rec(k, 3)).unwrap(), RecordIdx(k));
        }
    }

    #[test]
    fn forward_scan_yields_all_in_order() {
        let (dir, pool, schema) = setup(3);
        let heap = HeapFile::create(pool, dir.path().join("h"), schema).unwrap();
        for k in 0..25 {
            heap.append(&rec(k, 3)).unwrap();
        }
        let keys: Vec<u64> = heap.scan_all().map(|r| r.unwrap().1.key()).collect();
        assert_eq!(keys, (0..25).collect::<Vec<_>>());
    }

    #[test]
    fn range_scans_respect_bounds() {
        let (dir, pool, schema) = setup(3);
        let heap = HeapFile::create(pool, dir.path().join("h"), schema).unwrap();
        for k in 0..30 {
            heap.append(&rec(k, 3)).unwrap();
        }
        let keys: Vec<u64> = heap
            .scan(RecordIdx(5), RecordIdx(10))
            .map(|r| r.unwrap().1.key())
            .collect();
        assert_eq!(keys, vec![5, 6, 7, 8, 9]);
    }

    #[test]
    fn reopen_recovers_count_and_content() {
        let (dir, pool, schema) = setup(3);
        let path = dir.path().join("h");
        {
            let heap = HeapFile::create(Arc::clone(&pool), &path, schema.clone()).unwrap();
            for k in 0..17 {
                heap.append(&rec(k, 3)).unwrap();
            }
            heap.flush().unwrap();
        }
        let heap = HeapFile::open(pool, &path, schema).unwrap();
        assert_eq!(heap.len(), 17);
        assert_eq!(heap.get(RecordIdx(16)).unwrap().key(), 16);
        // Appending after reopen continues the sequence.
        assert_eq!(heap.append(&rec(17, 3)).unwrap(), RecordIdx(17));
    }

    #[test]
    fn torn_tail_truncates_to_last_whole_slot() {
        let (dir, pool, schema) = setup(3);
        let path = dir.path().join("h");
        {
            let heap = HeapFile::create(Arc::clone(&pool), &path, schema.clone()).unwrap();
            // 5 slots/page at 21-byte records: one full page + 3 tail slots.
            for k in 0..8 {
                heap.append(&rec(k, 3)).unwrap();
            }
            heap.flush().unwrap();
        }
        // Crash mid-append: a fractional record slot at the tail.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&[0xAA; 5]).unwrap();
        }
        let heap = HeapFile::open(Arc::clone(&pool), &path, schema.clone()).unwrap();
        assert_eq!(heap.len(), 8, "torn bytes must not round into a slot");
        assert_eq!(heap.get(RecordIdx(7)).unwrap().key(), 7);
        // Appends continue aligned after the repair.
        assert_eq!(heap.append(&rec(8, 3)).unwrap(), RecordIdx(8));
        assert_eq!(heap.get(RecordIdx(8)).unwrap().key(), 8);
    }

    #[test]
    fn open_at_trims_records_past_coverage() {
        let (dir, pool, schema) = setup(3);
        let path = dir.path().join("h");
        {
            let heap = HeapFile::create(Arc::clone(&pool), &path, schema.clone()).unwrap();
            for k in 0..10 {
                heap.append(&rec(k, 3)).unwrap();
            }
            heap.flush().unwrap();
        }
        // Records 7..10 were appended after the checkpoint recorded 7.
        let heap = HeapFile::open_at(Arc::clone(&pool), &path, schema.clone(), 7).unwrap();
        assert_eq!(heap.len(), 7);
        assert_eq!(heap.get(RecordIdx(6)).unwrap().key(), 6);
        assert_eq!(heap.append(&rec(77, 3)).unwrap(), RecordIdx(7));
        drop(heap);
        // Coverage beyond the file is corruption, not silent acceptance.
        assert!(HeapFile::open_at(pool, &path, schema, 1_000).is_err());
    }

    #[test]
    fn unflushed_tail_is_readable() {
        let (dir, pool, schema) = setup(3);
        let heap = HeapFile::create(pool, dir.path().join("h"), schema).unwrap();
        let idx = heap.append(&rec(42, 3)).unwrap();
        // No flush: record must still be served from the append buffer.
        assert_eq!(heap.get(idx).unwrap().key(), 42);
        let all: Vec<_> = heap.scan_all().map(|r| r.unwrap().1.key()).collect();
        assert_eq!(all, vec![42]);
    }

    #[test]
    fn out_of_bounds_get_errors() {
        let (dir, pool, schema) = setup(3);
        let heap = HeapFile::create(pool, dir.path().join("h"), schema).unwrap();
        heap.append(&rec(1, 3)).unwrap();
        assert!(heap.get(RecordIdx(5)).is_err());
    }

    #[test]
    fn tombstones_survive_storage() {
        let (dir, pool, schema) = setup(3);
        let heap = HeapFile::create(pool, dir.path().join("h"), schema.clone()).unwrap();
        let idx = heap.append(&Record::tombstone(9, &schema)).unwrap();
        assert!(heap.get(idx).unwrap().is_tombstone());
        assert_eq!(heap.peek_key(idx).unwrap(), (9, true));
    }

    #[test]
    fn pinned_cursor_pins_each_page_once() {
        let (dir, pool, schema) = setup(3);
        // 5 slots/page at 21-byte records, 128-byte pages.
        let heap = HeapFile::create(Arc::clone(&pool), dir.path().join("h"), schema).unwrap();
        for k in 0..30 {
            heap.append(&rec(k, 3)).unwrap();
        }
        pool.clear();
        let before = pool.stats();
        let mut cursor = heap.pinned_cursor();
        // Five slots on page 0, then two on page 2: exactly two pool misses.
        for idx in [0u64, 1, 2, 3, 4, 10, 11] {
            assert_eq!(cursor.read(idx).unwrap().key(), idx);
            assert_eq!(cursor.peek_key(idx).unwrap(), (idx, false));
        }
        let after = pool.stats();
        assert_eq!(after.misses - before.misses, 2);
        assert_eq!(after.hits, before.hits);
    }

    #[test]
    fn pinned_cursor_raw_field_and_projected_reads() {
        let (dir, pool, schema) = setup(3);
        let heap = HeapFile::create(Arc::clone(&pool), dir.path().join("h"), schema).unwrap();
        for k in 0..12 {
            heap.append(&rec(k, 3)).unwrap();
        }
        pool.clear();
        let before = pool.stats();
        let mut cursor = heap.pinned_cursor();
        let proj = Projection::of(&[0, 2]);
        for idx in [0u64, 1, 5, 6] {
            assert_eq!(cursor.read_field(idx, 1).unwrap(), idx * 100 + 1);
            let r = cursor.read_projected(idx, &proj).unwrap();
            assert_eq!(r.key(), idx);
            assert_eq!(r.fields(), &[idx * 100, 0, idx * 100 + 2]);
        }
        // Slots 0,1 on page 0 and 5,6 on page 1: still one pin per page.
        let after = pool.stats();
        assert_eq!(after.misses - before.misses, 2);
        assert!(cursor.read_field(99, 0).is_err());
    }

    #[test]
    fn pinned_cursor_reads_unflushed_tail() {
        let (dir, pool, schema) = setup(3);
        let heap = HeapFile::create(pool, dir.path().join("h"), schema).unwrap();
        for k in 0..7 {
            heap.append(&rec(k, 3)).unwrap();
        }
        // Slot 6 lives in the in-memory tail buffer (5 slots/page).
        let mut cursor = heap.pinned_cursor();
        assert_eq!(cursor.read(6).unwrap().key(), 6);
        assert_eq!(cursor.read(0).unwrap().key(), 0);
        assert!(cursor.read(99).is_err());
    }

    #[test]
    fn byte_size_accounts_padding() {
        let (dir, pool, schema) = setup(3);
        let heap = HeapFile::create(pool, dir.path().join("h"), schema).unwrap();
        // 5 slots/page at 21-byte records, 128-byte pages.
        for k in 0..5 {
            heap.append(&rec(k, 3)).unwrap();
        }
        assert_eq!(heap.byte_size(), 128); // one padded+checksummed page
        heap.append(&rec(5, 3)).unwrap();
        assert_eq!(heap.byte_size(), 128 + 21);
    }

    #[test]
    fn bit_flipped_full_page_is_detected_as_corrupt() {
        let (dir, pool, schema) = setup(3);
        let path = dir.path().join("h");
        let heap = HeapFile::create(Arc::clone(&pool), &path, schema).unwrap();
        for k in 0..10 {
            heap.append(&rec(k, 3)).unwrap();
        }
        // Flip one bit inside a record of page 0 on disk.
        {
            use std::io::{Read, Seek, SeekFrom, Write};
            let mut f = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
                .unwrap();
            let mut b = [0u8; 1];
            f.seek(SeekFrom::Start(30)).unwrap();
            f.read_exact(&mut b).unwrap();
            b[0] ^= 0x40;
            f.seek(SeekFrom::Start(30)).unwrap();
            f.write_all(&b).unwrap();
        }
        pool.clear(); // force the next read to hit disk
        let err = heap.get(RecordIdx(0)).unwrap_err();
        assert!(matches!(err, DbError::Corrupt { .. }), "got {err:?}");
        assert!(err.to_string().contains("checksum"));
    }

    #[test]
    fn full_page_worth_of_tail_slots_reflushes_as_page() {
        // A torn full-page write can leave exactly slots_per_page whole
        // slots on disk; reopening must re-flush them as a full page so
        // later appends stay aligned.
        let (dir, pool, schema) = setup(3);
        let path = dir.path().join("h");
        {
            let heap = HeapFile::create(Arc::clone(&pool), &path, schema.clone()).unwrap();
            for k in 0..5 {
                heap.append(&rec(k, 3)).unwrap();
            }
        }
        // Simulate the tear: cut the 128-byte page back to its 105 record
        // bytes (padding and checksum lost).
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(105).unwrap();
        drop(f);
        pool.clear();
        let heap = HeapFile::open(Arc::clone(&pool), &path, schema).unwrap();
        assert_eq!(heap.len(), 5);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 128);
        for k in 5..12 {
            assert_eq!(heap.append(&rec(k, 3)).unwrap(), RecordIdx(k));
        }
        pool.clear();
        for k in 0..12 {
            assert_eq!(heap.get(RecordIdx(k)).unwrap().key(), k);
        }
    }
}
