//! Compressed commit histories.
//!
//! "Since we assume that operations on historical commits will be less
//! frequent than those on the head of a branch, we keep historical commit
//! data out of the bitmap index, instead storing this information in
//! separate, compressed commit history files for each branch. ... When a
//! commit is made, the delta from the prior commit (computed by doing an
//! XOR of the two bitmaps) is RLE compressed and written to the end of the
//! file. To checkout a commit (version), we deserialize all commit deltas
//! linearly up to the commit of interest, performing an XOR on each of them
//! in sequence to recreate the commit. To speed retrieval, we aggregate
//! runs of deltas together into a higher 'layer' of composite deltas so
//! that the total number of chained deltas is reduced, at the cost of some
//! extra space. ... our implementation uses only two \[layers\]" (§3.2).
//!
//! Tuple-first keeps one store per branch; hybrid keeps one per
//! (branch, segment) pair — which is why hybrid's aggregate "pack file"
//! sizes in Table 2 are smaller: each store's bitmaps cover one segment.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use decibel_common::crc::crc32;
use decibel_common::env::{DiskEnv, DiskFile, OpenMode};
use decibel_common::error::{DbError, IoResultExt, Result};
use decibel_common::varint;

use crate::bitmap::Bitmap;
use crate::rle;

const KIND_BASE: u8 = 1;
const KIND_COMPOSITE: u8 = 2;

/// On-disk entry layout: `kind (1B) · varint payload_len · crc32 (4B LE) ·
/// payload`, except that *empty* entries (payload_len = 0, the buffered
/// empty-delta headers) omit the CRC — a flipped bit in their 2-byte header
/// is caught by the framing (bad kind or impossible length), and keeping
/// them at 2 bytes preserves the pending-empties size accounting.
const ENTRY_CRC_LEN: usize = 4;

#[derive(Debug, Clone, Copy)]
struct EntryMeta {
    offset: u64,
    len: u32,
    /// CRC-32 of the RLE payload (0 for empty entries, which have none).
    crc: u32,
}

/// An append-only file of RLE-compressed XOR deltas with a second
/// composite-delta layer every `layer_interval` commits.
///
/// Writes go through a persistent handle, opened lazily on the first real
/// delta and held for the store's lifetime: reopening the file per entry
/// (the previous scheme) both cost a syscall per commit and left no handle
/// for the checkpoint to `fdatasync` — and once a checkpoint records this
/// file's length as trusted coverage, an unsynced delta is a correctness
/// bug, not a perf wart. Stores whose history is all empty deltas never
/// open a handle (or create a file) at all, so branch-heavy workloads with
/// many untouched (branch, segment) stores still hold no descriptors.
pub struct CommitStore {
    env: Arc<dyn DiskEnv>,
    path: PathBuf,
    write_pos: u64,
    /// Lazily opened persistent write handle (`None` until the first real
    /// delta hits disk; see the struct docs).
    write_file: Option<Arc<dyn DiskFile>>,
    base: Vec<EntryMeta>,
    composite: Vec<EntryMeta>,
    /// Bitmap as of the latest commit (delta source for the next one).
    last: Bitmap,
    /// Bitmap as of the latest composite boundary.
    group_start: Bitmap,
    layer_interval: usize,
    /// Empty-delta headers owed to disk. Hybrid snapshots every live
    /// (branch, segment) pair at each commit, but most segments are
    /// untouched between commits; their empty deltas are buffered here
    /// and written together with the next real entry, so an unchanged
    /// segment costs no file I/O per commit. Checkpoints record this count
    /// instead of forcing the headers out, preserving the optimization.
    pending_empties: u32,
}

impl CommitStore {
    /// Default composite-layer interval.
    pub const DEFAULT_LAYER_INTERVAL: usize = 16;

    /// Creates an empty store at `path` in `env`. The file itself is
    /// created lazily on the first real delta write, so stores tracking
    /// only empty histories cost no file-system objects.
    pub fn create_in(
        env: Arc<dyn DiskEnv>,
        path: impl AsRef<Path>,
        layer_interval: usize,
    ) -> Result<CommitStore> {
        assert!(layer_interval >= 1);
        let path = path.as_ref().to_path_buf();
        Ok(CommitStore {
            env,
            path,
            write_pos: 0,
            write_file: None,
            base: Vec::new(),
            composite: Vec::new(),
            last: Bitmap::new(),
            group_start: Bitmap::new(),
            layer_interval,
            pending_empties: 0,
        })
    }

    fn open_read(&self) -> Result<Arc<dyn DiskFile>> {
        self.env
            .open(&self.path, OpenMode::Read)
            .ctx("opening commit store for read")
    }

    /// Reopens an existing store in `env`, rebuilding entry metadata and
    /// the tail state by replaying the delta chain.
    pub fn open_in(
        env: Arc<dyn DiskEnv>,
        path: impl AsRef<Path>,
        layer_interval: usize,
    ) -> Result<CommitStore> {
        let len = env.file_len(path.as_ref()).ctx("stat commit store")?;
        Self::open_at_in(env, path, layer_interval, len, 0)
    }

    /// Reopens a store in `env` at a checkpoint-recorded coverage: exactly
    /// `covered` on-disk bytes (anything beyond — entries written after the
    /// checkpoint, crash garbage — is truncated away and regenerated by
    /// journal suffix replay) plus `pending` buffered empty-delta headers
    /// that the checkpoint recorded instead of forcing to disk.
    pub fn open_at_in(
        env: Arc<dyn DiskEnv>,
        path: impl AsRef<Path>,
        layer_interval: usize,
        covered: u64,
        pending: u32,
    ) -> Result<CommitStore> {
        let path = path.as_ref().to_path_buf();
        let mut bytes = vec![0u8; covered as usize];
        if covered > 0 {
            // Stores whose entire history was empty deltas never created a
            // file; a zero coverage therefore skips the filesystem wholly.
            let file = env
                .open(&path, OpenMode::Read)
                .ctx("opening commit store")?;
            let len = file.len().ctx("stat commit store")?;
            if len < covered {
                return Err(DbError::corrupt(format!(
                    "commit store {} shorter than its checkpoint coverage ({len} < {covered})",
                    path.display()
                )));
            }
            if len > covered {
                let rw = env
                    .open(&path, OpenMode::ReadWrite)
                    .ctx("opening commit store")?;
                rw.set_len(covered).ctx("truncating commit store")?;
            }
            file.read_exact_at(&mut bytes, 0)
                .ctx("reading commit store")?;
        }
        let mut store = CommitStore {
            env,
            path,
            write_pos: covered,
            write_file: None,
            base: Vec::new(),
            composite: Vec::new(),
            last: Bitmap::new(),
            group_start: Bitmap::new(),
            layer_interval,
            pending_empties: pending,
        };
        let mut pos = 0usize;
        while pos < bytes.len() {
            let kind = bytes[pos];
            let mut p = pos + 1;
            let payload_len = varint::read_u64(&bytes, &mut p)? as usize;
            let meta = if payload_len == 0 {
                EntryMeta {
                    offset: p as u64,
                    len: 0,
                    crc: 0,
                }
            } else {
                if p + ENTRY_CRC_LEN + payload_len > bytes.len() {
                    return Err(DbError::corrupt("commit store truncated"));
                }
                let stored =
                    u32::from_le_bytes(bytes[p..p + ENTRY_CRC_LEN].try_into().expect("4 bytes"));
                p += ENTRY_CRC_LEN;
                let payload = &bytes[p..p + payload_len];
                if crc32(payload) != stored {
                    return Err(DbError::corrupt(format!(
                        "commit store entry at offset {pos} failed checksum (torn or \
                         bit-flipped entry)"
                    )));
                }
                EntryMeta {
                    offset: p as u64,
                    len: payload_len as u32,
                    crc: stored,
                }
            };
            match kind {
                KIND_BASE => store.base.push(meta),
                KIND_COMPOSITE => store.composite.push(meta),
                other => return Err(DbError::corrupt(format!("bad commit entry kind {other}"))),
            }
            pos = p + payload_len;
        }
        // Re-buffer the owed empty deltas behind the on-disk entries.
        for _ in 0..pending {
            store.base.push(EntryMeta {
                offset: 0,
                len: 0,
                crc: 0,
            });
        }
        if !store.base.is_empty() {
            store.last = store.checkout(store.base.len() as u64 - 1)?;
            let boundary = (store.base.len() / layer_interval) * layer_interval;
            store.group_start = if boundary == 0 {
                Bitmap::new()
            } else if boundary == store.base.len() {
                store.last.clone()
            } else {
                store.checkout(boundary as u64 - 1)?
            };
        }
        Ok(store)
    }

    fn write_entry(&mut self, kind: u8, payload: &[u8]) -> Result<EntryMeta> {
        if self.write_file.is_none() {
            // No truncate: positions are tracked by `write_pos`, and stale
            // bytes past it (from a pre-crash future) are overwritten here
            // and trimmed by the next checkpoint's coverage.
            let file = self
                .env
                .open(&self.path, OpenMode::ReadWrite)
                .ctx("opening commit store for write")?;
            self.write_file = Some(file);
        }
        let file = self.write_file.as_ref().expect("write handle opened above");
        // Owed empty-delta headers first, then this entry, in one write.
        let crc = crc32(payload);
        let mut buf = Vec::with_capacity(payload.len() + 2 * self.pending_empties as usize + 14);
        for _ in 0..self.pending_empties {
            buf.push(KIND_BASE);
            varint::write_u64(&mut buf, 0);
        }
        self.pending_empties = 0;
        buf.push(kind);
        varint::write_u64(&mut buf, payload.len() as u64);
        buf.extend_from_slice(&crc.to_le_bytes());
        let header_end = self.write_pos + buf.len() as u64;
        buf.extend_from_slice(payload);
        file.write_all_at(&buf, self.write_pos)
            .ctx("writing commit entry")?;
        self.write_pos += buf.len() as u64;
        Ok(EntryMeta {
            offset: header_end,
            len: payload.len() as u32,
            crc,
        })
    }

    /// Forces every delta written through the persistent handle to stable
    /// storage. A no-op for stores that never wrote a real delta (no file
    /// exists to sync). Checkpoints call this before recording
    /// [`CommitStore::on_disk_len`] as trusted coverage.
    pub fn sync(&self) -> Result<()> {
        if let Some(file) = &self.write_file {
            file.sync_data().ctx("fsyncing commit store")?;
        }
        Ok(())
    }

    /// An empty delta: recorded in memory, headers owed to disk.
    fn note_empty(&mut self, kind_is_composite: bool) -> EntryMeta {
        debug_assert!(
            !kind_is_composite,
            "composites with empty deltas stay base-aligned"
        );
        self.pending_empties += 1;
        EntryMeta {
            offset: 0,
            len: 0,
            crc: 0,
        }
    }

    /// Records a commit whose branch bitmap is `bm`; returns the commit's
    /// ordinal within this store.
    pub fn append_commit(&mut self, bm: &Bitmap) -> Result<u64> {
        let delta = bm.xor(&self.last);
        if delta.count_ones() == 0 && delta.len() == self.last.len() {
            // Unchanged since the previous commit: no file I/O now.
            let meta = self.note_empty(false);
            self.base.push(meta);
        } else {
            let payload = rle::encode(&delta);
            let meta = self.write_entry(KIND_BASE, &payload)?;
            self.base.push(meta);
            self.last = bm.clone();
        }
        if self.base.len().is_multiple_of(self.layer_interval) {
            let comp = bm.xor(&self.group_start);
            let payload = rle::encode(&comp);
            let meta = self.write_entry(KIND_COMPOSITE, &payload)?;
            self.composite.push(meta);
            self.group_start = bm.clone();
        }
        Ok(self.base.len() as u64 - 1)
    }

    fn read_entry(&self, file: &mut Option<Arc<dyn DiskFile>>, meta: EntryMeta) -> Result<Bitmap> {
        if meta.len == 0 {
            return Ok(Bitmap::new());
        }
        let handle = match file {
            Some(f) => f,
            None => file.insert(self.open_read()?),
        };
        let mut buf = vec![0u8; meta.len as usize];
        handle
            .read_exact_at(&mut buf, meta.offset)
            .ctx("reading commit entry")?;
        if crc32(&buf) != meta.crc {
            return Err(DbError::corrupt(format!(
                "commit store entry at offset {} failed checksum (bit-flipped on disk)",
                meta.offset
            )));
        }
        rle::decode(&buf)
    }

    /// Reconstructs the branch bitmap at commit `ordinal` by applying
    /// composite deltas for whole groups and base deltas for the remainder.
    pub fn checkout(&self, ordinal: u64) -> Result<Bitmap> {
        let ordinal = ordinal as usize;
        if ordinal >= self.base.len() {
            return Err(DbError::UnknownCommit(ordinal as u64));
        }
        let mut file = None;
        let mut state = Bitmap::new();
        let full_groups = (ordinal + 1) / self.layer_interval;
        for g in 0..full_groups {
            let d = self.read_entry(&mut file, self.composite[g])?;
            state.xor_assign(&d);
        }
        for i in full_groups * self.layer_interval..=ordinal {
            let d = self.read_entry(&mut file, self.base[i])?;
            state.xor_assign(&d);
        }
        Ok(state)
    }

    /// Reconstructs `ordinal` using only base deltas — the 1-layer scheme,
    /// kept for the checkout-cost ablation of §3.2's layering decision.
    pub fn checkout_unlayered(&self, ordinal: u64) -> Result<Bitmap> {
        let ordinal = ordinal as usize;
        if ordinal >= self.base.len() {
            return Err(DbError::UnknownCommit(ordinal as u64));
        }
        let mut file = None;
        let mut state = Bitmap::new();
        for i in 0..=ordinal {
            let d = self.read_entry(&mut file, self.base[i])?;
            state.xor_assign(&d);
        }
        Ok(state)
    }

    /// Number of commits stored.
    pub fn commit_count(&self) -> u64 {
        self.base.len() as u64
    }

    /// On-disk size in bytes — the paper's "aggregate pack file size"
    /// metric (Table 2).
    pub fn file_size(&self) -> u64 {
        self.write_pos + 2 * self.pending_empties as u64
    }

    /// Bytes actually on disk (excluding buffered empty-delta headers) —
    /// the coverage a checkpoint records for [`CommitStore::open_at_in`].
    pub fn on_disk_len(&self) -> u64 {
        self.write_pos
    }

    /// Buffered empty-delta headers not yet written to disk; recorded by
    /// checkpoints alongside [`CommitStore::on_disk_len`].
    pub fn pending_empty_count(&self) -> u32 {
        self.pending_empties
    }

    /// Filesystem path of the store.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decibel_common::env::std_env;
    use decibel_common::rng::DetRng;

    fn random_history(n: usize, seed: u64) -> Vec<Bitmap> {
        // Simulate a growing branch: each commit appends rows and flips a
        // few existing bits, like inserts + updates.
        let mut rng = DetRng::seed_from_u64(seed);
        let mut current = Bitmap::new();
        let mut out = Vec::new();
        let mut rows = 0u64;
        for _ in 0..n {
            for _ in 0..rng.range(1, 50) {
                current.set(rows, true);
                rows += 1;
            }
            for _ in 0..rng.below(10) {
                if rows > 0 {
                    let r = rng.below(rows);
                    current.set(r, !current.get(r));
                }
            }
            out.push(current.clone());
        }
        out
    }

    #[test]
    fn checkout_reconstructs_every_commit() {
        let dir = tempfile::tempdir().unwrap();
        let mut store = CommitStore::create_in(std_env(), dir.path().join("c"), 4).unwrap();
        let history = random_history(25, 7);
        for bm in &history {
            store.append_commit(bm).unwrap();
        }
        for (i, bm) in history.iter().enumerate() {
            let got = store.checkout(i as u64).unwrap();
            assert_eq!(
                got.iter_ones().collect::<Vec<_>>(),
                bm.iter_ones().collect::<Vec<_>>(),
                "commit {i}"
            );
        }
    }

    #[test]
    fn layered_equals_unlayered() {
        let dir = tempfile::tempdir().unwrap();
        let mut store = CommitStore::create_in(std_env(), dir.path().join("c"), 4).unwrap();
        let history = random_history(20, 13);
        for bm in &history {
            store.append_commit(bm).unwrap();
        }
        for i in 0..history.len() as u64 {
            assert_eq!(
                store.checkout(i).unwrap(),
                store.checkout_unlayered(i).unwrap(),
                "commit {i}"
            );
        }
    }

    #[test]
    fn reopen_preserves_history_and_appends() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("c");
        let history = random_history(10, 5);
        {
            let mut store = CommitStore::create_in(std_env(), &path, 4).unwrap();
            for bm in &history[..7] {
                store.append_commit(bm).unwrap();
            }
        }
        let mut store = CommitStore::open_in(std_env(), &path, 4).unwrap();
        assert_eq!(store.commit_count(), 7);
        for bm in &history[7..] {
            store.append_commit(bm).unwrap();
        }
        for (i, bm) in history.iter().enumerate() {
            assert_eq!(store.checkout(i as u64).unwrap(), *bm, "commit {i}");
        }
    }

    #[test]
    fn unknown_ordinal_errors() {
        let dir = tempfile::tempdir().unwrap();
        let store = CommitStore::create_in(std_env(), dir.path().join("c"), 4).unwrap();
        assert!(store.checkout(0).is_err());
    }

    #[test]
    fn file_grows_with_commits() {
        let dir = tempfile::tempdir().unwrap();
        let mut store = CommitStore::create_in(std_env(), dir.path().join("c"), 16).unwrap();
        let mut bm = Bitmap::new();
        bm.set(0, true);
        store.append_commit(&bm).unwrap();
        let s1 = store.file_size();
        bm.set(1, true);
        store.append_commit(&bm).unwrap();
        assert!(store.file_size() > s1);
        assert_eq!(store.commit_count(), 2);
    }

    #[test]
    fn identical_consecutive_commits_are_cheap() {
        let dir = tempfile::tempdir().unwrap();
        let mut store = CommitStore::create_in(std_env(), dir.path().join("c"), 16).unwrap();
        let mut bm = Bitmap::zeros(1_000_000);
        for i in (0..1_000_000).step_by(3) {
            bm.set(i, true);
        }
        store.append_commit(&bm).unwrap();
        let s1 = store.file_size();
        store.append_commit(&bm).unwrap(); // empty delta
        assert!(
            store.file_size() - s1 < 32,
            "empty delta should be bytes, not KBs"
        );
        assert_eq!(store.checkout(1).unwrap().count_ones(), bm.count_ones());
    }

    #[test]
    fn open_at_truncates_to_coverage_and_restores_pending_empties() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("c");
        let history = random_history(9, 11);
        let mut store = CommitStore::create_in(std_env(), &path, 4).unwrap();
        for bm in &history {
            store.append_commit(bm).unwrap();
        }
        // An unchanged commit buffers an empty delta instead of writing.
        let tail = history.last().unwrap().clone();
        store.append_commit(&tail).unwrap();
        let covered = store.on_disk_len();
        let pending = store.pending_empty_count();
        assert_eq!(pending, 1, "unchanged commit should stay buffered");
        let n = store.commit_count();
        store.sync().unwrap();
        drop(store);
        // Bytes past the recorded coverage (a post-checkpoint append that
        // the journal suffix will regenerate) must be trimmed on reopen.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&[1, 4, 0xde, 0xad, 0xbe, 0xef]).unwrap();
        }
        let mut store = CommitStore::open_at_in(std_env(), &path, 4, covered, pending).unwrap();
        assert_eq!(store.commit_count(), n);
        for (i, bm) in history.iter().enumerate() {
            assert_eq!(store.checkout(i as u64).unwrap(), *bm, "commit {i}");
        }
        assert_eq!(store.checkout(n - 1).unwrap(), tail);
        // Appending continues the chain (and first flushes the owed empty).
        let mut next = tail.clone();
        next.set(next.len() + 3, true);
        store.append_commit(&next).unwrap();
        assert_eq!(store.checkout(n).unwrap(), next);
        assert_eq!(store.pending_empty_count(), 0);
    }

    #[test]
    fn open_at_zero_coverage_needs_no_file() {
        let dir = tempfile::tempdir().unwrap();
        let store = CommitStore::open_at_in(std_env(), dir.path().join("absent"), 4, 0, 3).unwrap();
        assert_eq!(store.commit_count(), 3);
        assert_eq!(store.checkout(2).unwrap().count_ones(), 0);
        // Syncing a fileless store is a no-op, not an error.
        store.sync().unwrap();
    }

    #[test]
    fn open_at_rejects_short_file() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("c");
        let mut store = CommitStore::create_in(std_env(), &path, 4).unwrap();
        let mut bm = Bitmap::new();
        bm.set(5, true);
        store.append_commit(&bm).unwrap();
        let covered = store.on_disk_len();
        drop(store);
        assert!(CommitStore::open_at_in(std_env(), &path, 4, covered + 10, 0).is_err());
    }

    /// Flips one bit of the byte at `offset` from the end of the file.
    fn flip_bit_at_end(path: &Path, back: u64) {
        let f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .unwrap();
        let len = f.metadata().unwrap().len();
        let off = len - back;
        let mut b = [0u8];
        DiskFile::read_exact_at(&f, &mut b, off).unwrap();
        b[0] ^= 0x10;
        DiskFile::write_all_at(&f, &b, off).unwrap();
    }

    #[test]
    fn bit_flipped_entry_is_rejected_at_open() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("c");
        let mut store = CommitStore::create_in(std_env(), &path, 4).unwrap();
        for bm in &random_history(6, 17) {
            store.append_commit(bm).unwrap();
        }
        store.sync().unwrap();
        drop(store);
        // The file ends with the last entry's RLE payload; flip a bit in it.
        flip_bit_at_end(&path, 1);
        let err = match CommitStore::open_in(std_env(), &path, 4) {
            Ok(_) => panic!("bit-flipped store must not open cleanly"),
            Err(e) => e,
        };
        assert!(
            matches!(err, DbError::Corrupt { .. }),
            "expected typed corruption, got {err:?}"
        );
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn bit_flip_after_open_is_caught_on_checkout() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("c");
        let mut store = CommitStore::create_in(std_env(), &path, 4).unwrap();
        let history = random_history(6, 19);
        for bm in &history {
            store.append_commit(bm).unwrap();
        }
        store.sync().unwrap();
        // Corrupt the disk *after* the metadata was built: checkout's
        // read path must re-verify, not trust the in-memory CRC blindly.
        flip_bit_at_end(&path, 1);
        let err = store.checkout(store.commit_count() - 1).unwrap_err();
        assert!(
            matches!(err, DbError::Corrupt { .. }),
            "expected typed corruption, got {err:?}"
        );
    }

    #[test]
    fn layer_interval_one_means_all_composites() {
        let dir = tempfile::tempdir().unwrap();
        let mut store = CommitStore::create_in(std_env(), dir.path().join("c"), 1).unwrap();
        let history = random_history(5, 3);
        for bm in &history {
            store.append_commit(bm).unwrap();
        }
        for (i, bm) in history.iter().enumerate() {
            assert_eq!(store.checkout(i as u64).unwrap(), *bm);
        }
    }
}
