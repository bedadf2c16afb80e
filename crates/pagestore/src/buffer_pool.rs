//! A shared page cache with LRU eviction.
//!
//! Heap files in this reproduction are append-only: a page becomes immutable
//! the moment it is full, and only the partial tail page of each file is ever
//! rewritten (by the owning [`HeapFile`](crate::heap::HeapFile), which keeps
//! the tail in its own append buffer until the page fills). The pool can
//! therefore be a read-only cache of immutable full pages — no dirty-page
//! write-back — which keeps it trivially safe to share across the scan
//! threads the hybrid engine spawns (§3.4: the branch-segment index "allows
//! for parallelization of segment scanning").

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use decibel_common::env::{DiskEnv, DiskFile, StdEnv};
use decibel_common::error::{IoResultExt, Result};
use decibel_common::hash::FxHashMap;
use decibel_obs::{family, Counter, Registry};
use parking_lot::Mutex;

use crate::config::StoreConfig;

/// Identifies a file registered with the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileId(pub u32);

/// Hit/miss counters, used by tests and by benchmark diagnostics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Pages served from the cache.
    pub hits: u64,
    /// Pages read from disk.
    pub misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
}

struct Frame {
    data: Arc<Vec<u8>>,
    last_used: u64,
}

struct PoolInner {
    frames: FxHashMap<(FileId, u64), Frame>,
    files: Vec<Arc<dyn DiskFile>>,
    stats: PoolStats,
    /// The last evicted full page nobody else still held: the next full-page
    /// miss reads into it instead of allocating (and zeroing) a new one.
    spare: Option<Vec<u8>>,
}

/// Integrity check run against a freshly read page before it is cached
/// (see [`BufferPool::get_page_with`]).
pub type PageVerifier<'a> = &'a dyn Fn(&[u8]) -> Result<()>;

/// A process-wide page cache shared by every heap file of an engine.
///
/// `capacity` bounds the number of cached pages; eviction is exact LRU
/// (tracked with a logical clock — adequate at the pool sizes the paper
/// uses, where eviction is rare compared to page reads).
pub struct BufferPool {
    page_size: usize,
    capacity: usize,
    clock: AtomicU64,
    env: Arc<dyn DiskEnv>,
    registry: Registry,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    crc_verifies: Counter,
    inner: Mutex<PoolInner>,
}

impl BufferPool {
    /// Creates a pool caching at most `capacity` pages of `page_size` bytes,
    /// opening files through the real filesystem.
    pub fn new(page_size: usize, capacity: usize) -> Self {
        Self::with_env(Arc::new(StdEnv), page_size, capacity)
    }

    /// [`BufferPool::new`] with an explicit disk environment. Heap files
    /// attached to the pool open their backing files through it, so a
    /// store's entire IO stream can be redirected at fault injection.
    pub fn with_env(env: Arc<dyn DiskEnv>, page_size: usize, capacity: usize) -> Self {
        Self::with_env_metered(env, page_size, capacity, Registry::new())
    }

    /// A pool configured exactly as `config` says: its environment, page
    /// geometry, capacity, and metrics registry. The constructor every
    /// engine uses.
    pub fn for_store(config: &StoreConfig) -> Self {
        Self::with_env_metered(
            Arc::clone(&config.env),
            config.page_size,
            config.pool_pages,
            config.metrics.clone(),
        )
    }

    /// [`BufferPool::with_env`] registering the pool's counters (and its
    /// heap files' — see [`BufferPool::registry`]) with `registry` under
    /// the [`family::POOL`] family.
    pub fn with_env_metered(
        env: Arc<dyn DiskEnv>,
        page_size: usize,
        capacity: usize,
        registry: Registry,
    ) -> Self {
        assert!(capacity > 0, "pool needs at least one frame");
        BufferPool {
            page_size,
            capacity,
            clock: AtomicU64::new(0),
            env,
            hits: registry.counter(family::POOL, "hits"),
            misses: registry.counter(family::POOL, "misses"),
            evictions: registry.counter(family::POOL, "evictions"),
            crc_verifies: registry.counter(family::POOL, "crc_verifies"),
            registry,
            inner: Mutex::new(PoolInner {
                frames: FxHashMap::default(),
                files: Vec::new(),
                stats: PoolStats::default(),
                spare: None,
            }),
        }
    }

    /// The registry this pool's counters live in. Heap files attached to
    /// the pool register their own instruments here, so one registry
    /// covers a store's whole physical layer.
    #[inline]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Bytes per page.
    #[inline]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// The disk environment files attached to this pool are opened through.
    #[inline]
    pub fn env(&self) -> &Arc<dyn DiskEnv> {
        &self.env
    }

    /// Registers a file; subsequent [`BufferPool::get_page`] calls may use
    /// the returned id.
    pub fn register(&self, file: Arc<dyn DiskFile>) -> FileId {
        let mut inner = self.inner.lock();
        let id = FileId(inner.files.len() as u32);
        inner.files.push(file);
        id
    }

    /// Returns page `page_no` of `file`, reading `valid_len` bytes from disk
    /// on a miss (`valid_len < page_size` only for a file's final page).
    ///
    /// The returned buffer is always `valid_len` bytes.
    pub fn get_page(&self, file: FileId, page_no: u64, valid_len: usize) -> Result<Arc<Vec<u8>>> {
        self.get_page_with(file, page_no, valid_len, None)
    }

    /// [`BufferPool::get_page`] with an integrity check: on a disk read
    /// (cache miss), `verify` sees the freshly read page before it is
    /// cached or returned, so a torn or bit-flipped page surfaces as the
    /// verifier's typed error instead of garbage decode. Cache hits skip
    /// verification — cached frames were verified (or freshly written) on
    /// the way in.
    pub fn get_page_with(
        &self,
        file: FileId,
        page_no: u64,
        valid_len: usize,
        verify: Option<PageVerifier<'_>>,
    ) -> Result<Arc<Vec<u8>>> {
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        {
            let mut inner = self.inner.lock();
            if let Some(frame) = inner.frames.get_mut(&(file, page_no)) {
                // A previously-cached partial tail page may have grown on
                // disk since; serve it only if it still covers the request.
                if frame.data.len() >= valid_len {
                    frame.last_used = now;
                    let data = Arc::clone(&frame.data);
                    inner.stats.hits += 1;
                    self.hits.inc();
                    if data.len() == valid_len {
                        return Ok(data);
                    }
                    return Ok(Arc::new(data[..valid_len].to_vec()));
                }
                inner.frames.remove(&(file, page_no));
            }
        }
        // Miss: read outside the lock so concurrent scans overlap their I/O.
        let (handle, spare) = {
            let mut inner = self.inner.lock();
            let spare = inner.spare.take_if(|buf| buf.len() == valid_len);
            (Arc::clone(&inner.files[file.0 as usize]), spare)
        };
        // A reused buffer needs no zeroing: the read overwrites every byte
        // or fails, and a failed read caches and returns nothing.
        let mut buf = spare.unwrap_or_else(|| vec![0u8; valid_len]);
        handle
            .read_exact_at(&mut buf, page_no * self.page_size as u64)
            .ctx("reading page from heap file")?;
        if let Some(check) = verify {
            self.crc_verifies.inc();
            check(&buf)?;
        }
        let data = Arc::new(buf);
        let mut inner = self.inner.lock();
        inner.stats.misses += 1;
        self.misses.inc();
        self.make_room(&mut inner);
        inner.frames.insert(
            (file, page_no),
            Frame {
                data: Arc::clone(&data),
                last_used: now,
            },
        );
        Ok(data)
    }

    /// Inserts a freshly written page (used by heap files when a tail page
    /// fills, so sequential load-then-scan workloads stay warm).
    pub fn put_page(&self, file: FileId, page_no: u64, data: Arc<Vec<u8>>) {
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock();
        self.make_room(&mut inner);
        inner.frames.insert(
            (file, page_no),
            Frame {
                data,
                last_used: now,
            },
        );
    }

    /// Evicts the least recently used frame if the pool is full. A full
    /// page no reader still holds becomes the spare; one still held stays
    /// with its readers (reusing it would overwrite bytes they see).
    fn make_room(&self, inner: &mut PoolInner) {
        if inner.frames.len() < self.capacity {
            return;
        }
        let victim = inner.frames.iter().min_by_key(|(_, f)| f.last_used);
        let Some(frame) = victim
            .map(|(&key, _)| key)
            .and_then(|key| inner.frames.remove(&key))
        else {
            return;
        };
        inner.stats.evictions += 1;
        self.evictions.inc();
        if let Ok(buf) = Arc::try_unwrap(frame.data) {
            if buf.len() == self.page_size {
                inner.spare = Some(buf);
            }
        }
    }

    /// Drops every cached page. Benchmarks call this before measured
    /// queries to emulate the paper's "flush disk caches prior to each
    /// operation" methodology (§5).
    pub fn clear(&self) {
        self.inner.lock().frames.clear();
    }

    /// Snapshot of hit/miss/eviction counters.
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().stats
    }

    /// Number of pages currently cached.
    pub fn cached_pages(&self) -> usize {
        self.inner.lock().frames.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::File;
    use std::io::Write;

    fn file_with(bytes: &[u8]) -> (tempfile::TempDir, Arc<File>) {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("f");
        let mut f = File::create(&path).unwrap();
        f.write_all(bytes).unwrap();
        f.flush().unwrap();
        (dir, Arc::new(File::open(&path).unwrap()))
    }

    #[test]
    fn miss_then_hit() {
        let (_d, f) = file_with(&[7u8; 64]);
        let pool = BufferPool::new(32, 4);
        let id = pool.register(f);
        let p = pool.get_page(id, 0, 32).unwrap();
        assert_eq!(&p[..], &[7u8; 32]);
        let _ = pool.get_page(id, 1, 32).unwrap();
        let _ = pool.get_page(id, 0, 32).unwrap();
        let s = pool.stats();
        assert_eq!(s.misses, 2);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn eviction_respects_lru() {
        let (_d, f) = file_with(&[1u8; 4 * 16]);
        let pool = BufferPool::new(16, 2);
        let id = pool.register(f);
        let _ = pool.get_page(id, 0, 16).unwrap();
        let _ = pool.get_page(id, 1, 16).unwrap();
        let _ = pool.get_page(id, 0, 16).unwrap(); // touch 0 so 1 is LRU
        let _ = pool.get_page(id, 2, 16).unwrap(); // evicts 1
        assert_eq!(pool.stats().evictions, 1);
        let _ = pool.get_page(id, 0, 16).unwrap(); // still cached
        assert_eq!(pool.stats().hits, 2);
    }

    #[test]
    fn partial_tail_page_grows() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("f");
        let mut w = File::create(&path).unwrap();
        w.write_all(&[9u8; 10]).unwrap();
        let pool = BufferPool::new(32, 4);
        let id = pool.register(Arc::new(File::open(&path).unwrap()));
        assert_eq!(pool.get_page(id, 0, 10).unwrap().len(), 10);
        // File grows; a larger request must re-read, not serve stale bytes.
        w.write_all(&[8u8; 10]).unwrap();
        w.flush().unwrap();
        let p = pool.get_page(id, 0, 20).unwrap();
        assert_eq!(p.len(), 20);
        assert_eq!(p[15], 8);
        // A shorter request may be served from cache, truncated.
        assert_eq!(pool.get_page(id, 0, 5).unwrap().len(), 5);
    }

    #[test]
    fn clear_empties_cache() {
        let (_d, f) = file_with(&[0u8; 64]);
        let pool = BufferPool::new(32, 4);
        let id = pool.register(f);
        let _ = pool.get_page(id, 0, 32).unwrap();
        assert_eq!(pool.cached_pages(), 1);
        pool.clear();
        assert_eq!(pool.cached_pages(), 0);
        let _ = pool.get_page(id, 0, 32).unwrap();
        assert_eq!(pool.stats().misses, 2);
    }

    #[test]
    fn verify_runs_on_miss_only_and_blocks_caching() {
        let (_d, f) = file_with(&[5u8; 64]);
        let pool = BufferPool::new(32, 4);
        let id = pool.register(f);
        let reject =
            |_: &[u8]| -> Result<()> { Err(decibel_common::DbError::corrupt("bad page (test)")) };
        // A failing verifier surfaces its error and caches nothing.
        assert!(pool.get_page_with(id, 0, 32, Some(&reject)).is_err());
        assert_eq!(pool.cached_pages(), 0);
        // A clean read caches the page; hits then bypass the verifier.
        let _ = pool.get_page(id, 0, 32).unwrap();
        let _ = pool.get_page_with(id, 0, 32, Some(&reject)).unwrap();
    }

    /// Four 16-byte pages; page `i` is filled with byte `i + 1`.
    fn four_pages() -> (tempfile::TempDir, Arc<File>) {
        let bytes: Vec<u8> = (0..64).map(|i| i / 16 + 1).collect();
        file_with(&bytes)
    }

    #[test]
    fn evicted_page_is_reused_only_once_no_reader_holds_it() {
        let (_d, f) = four_pages();
        let pool = BufferPool::new(16, 1);
        let id = pool.register(f);
        let a = pool.get_page(id, 0, 16).unwrap();
        // Evicting A while `a` still holds it must not make it the spare.
        let b = pool.get_page(id, 1, 16).unwrap();
        let b_addr = b.as_ptr();
        drop(b);
        let c = pool.get_page(id, 2, 16).unwrap(); // evicts B, nobody holds it
        let d = pool.get_page(id, 3, 16).unwrap(); // reads into B's buffer
        assert_eq!(d.as_ptr(), b_addr, "the unheld victim was not reused");
        assert_ne!(c.as_ptr(), a.as_ptr());
        assert_ne!(d.as_ptr(), a.as_ptr());
        assert_eq!(&a[..], &[1u8; 16]);
        assert_eq!(&c[..], &[3u8; 16]);
        assert_eq!(&d[..], &[4u8; 16]);
        // A held victim never comes back as a buffer either.
        drop(c);
        let a2 = pool.get_page(id, 0, 16).unwrap();
        assert_ne!(a2.as_ptr(), a.as_ptr());
        assert_eq!(&a[..], &[1u8; 16]);
        assert_eq!(&a2[..], &[1u8; 16]);
    }

    #[test]
    fn failed_read_into_spare_caches_nothing_and_next_read_is_fresh() {
        let (_d, f) = four_pages();
        let pool = BufferPool::new(16, 1);
        let id = pool.register(f);
        let reject =
            |_: &[u8]| -> Result<()> { Err(decibel_common::DbError::corrupt("bad page (test)")) };
        let _ = pool.get_page(id, 0, 16).unwrap();
        let _ = pool.get_page(id, 1, 16).unwrap(); // page 0 becomes the spare
        assert!(pool.get_page_with(id, 2, 16, Some(&reject)).is_err());
        assert!(pool.get_page(id, 9, 16).is_err()); // past end of file
        assert_eq!(pool.cached_pages(), 1);
        assert_eq!(&pool.get_page(id, 2, 16).unwrap()[..], &[3u8; 16]);
        assert_eq!(&pool.get_page(id, 3, 16).unwrap()[..], &[4u8; 16]);
        assert_eq!(&pool.get_page(id, 1, 16).unwrap()[..], &[2u8; 16]);
    }

    #[test]
    fn every_verified_miss_is_checked_whether_or_not_its_buffer_is_reused() {
        let (_d, f) = four_pages();
        let pool = BufferPool::new(16, 1);
        let id = pool.register(f);
        let seen = Mutex::new(Vec::new());
        let check = |page: &[u8]| -> Result<()> {
            seen.lock().push(page[0]);
            Ok(())
        };
        let pages = [0, 1, 2, 3, 0, 0, 1];
        for page in pages {
            let got = pool.get_page_with(id, page, 16, Some(&check)).unwrap();
            assert_eq!(got[0], page as u8 + 1);
        }
        // One verify per miss, each on the page's own fresh bytes.
        assert_eq!(*seen.lock(), [1, 2, 3, 4, 1, 2]);
        let s = pool.stats();
        assert_eq!((s.misses, s.hits, s.evictions), (6, 1, 5));
        let snap = pool.registry().snapshot();
        assert_eq!(snap.counter(family::POOL, "crc_verifies"), 6);
    }

    #[test]
    fn concurrent_readers() {
        let (_d, f) = file_with(&[3u8; 1024]);
        let pool = Arc::new(BufferPool::new(64, 8));
        let id = pool.register(f);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for page in 0..16u64 {
                        let p = pool.get_page(id, page, 64).unwrap();
                        assert_eq!(p[0], 3);
                    }
                });
            }
        });
    }
}
