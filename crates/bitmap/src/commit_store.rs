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
//! [`CommitStore::checkout_layered`] is that forward walk. The default
//! [`CommitStore::checkout`] deviates: deltas are XORs, hence self-inverse,
//! so the state at commit `o` is also the head state the store already
//! holds in memory XORed with every base delta newer than `o`. Checkout
//! counts, from entry metadata alone, the non-empty entries each walk
//! would read and takes the cheaper one. The common historical read — a
//! merge's lowest common ancestor, which after a fork-and-merge has only
//! empty deltas above it — becomes a clone of the head state and reads
//! no file. Both walks return the same bitmap, length included, and every
//! entry either walk reads is CRC-verified.
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
    /// Bit length of the decoded delta (the payload's length varint; 0 for
    /// empty entries). A replay is as long as the longest delta it applies,
    /// so this lets the backward walk return the forward walk's length.
    bits: u64,
}

impl EntryMeta {
    /// An empty delta: no payload, nothing to read.
    const EMPTY: EntryMeta = EntryMeta {
        offset: 0,
        len: 0,
        crc: 0,
        bits: 0,
    };
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
    /// Empty-delta headers owed to disk. A hybrid branch appends to every
    /// store it holds at each commit, but most of its columns are
    /// untouched between commits; their empty deltas are buffered here
    /// and written together with the next real entry, so an unchanged
    /// column costs no file I/O per commit. Checkpoints record this count
    /// instead of forcing the headers out, preserving the optimization.
    pending_empties: u32,
    /// Encoded entries not yet written, which go to `write_pos` ahead of
    /// the pending empties. Only [`CommitStore::seeded_in`] leaves any
    /// here; every append writes them out.
    unwritten: Vec<u8>,
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
        Ok(Self::seeded_in(
            env,
            path,
            layer_interval,
            &Bitmap::new(),
            0,
        ))
    }

    /// A store whose first `commits` snapshots are all `seed`, created
    /// without IO: the entries stay in memory until the next append or
    /// [`CommitStore::flush`] writes them, and checkouts meanwhile are
    /// served from memory. Hybrid uses it when a branch first changes a
    /// column it inherited, so the store covers the branch's earlier
    /// commits.
    pub fn seeded_in(
        env: Arc<dyn DiskEnv>,
        path: impl AsRef<Path>,
        layer_interval: usize,
        seed: &Bitmap,
        commits: u64,
    ) -> CommitStore {
        assert!(layer_interval >= 1);
        let mut store = CommitStore {
            env,
            path: path.as_ref().to_path_buf(),
            write_pos: 0,
            write_file: None,
            base: Vec::new(),
            composite: Vec::new(),
            last: Bitmap::new(),
            group_start: Bitmap::new(),
            layer_interval,
            pending_empties: 0,
            unwritten: Vec::new(),
        };
        if commits > 0 {
            store.record(seed);
            for _ in 1..commits {
                store.record_unchanged();
            }
        }
        store
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
            unwritten: Vec::new(),
        };
        let mut pos = 0usize;
        while pos < bytes.len() {
            let kind = bytes[pos];
            let mut p = pos + 1;
            let payload_len = varint::read_u64(&bytes, &mut p)? as usize;
            let meta = if payload_len == 0 {
                EntryMeta::EMPTY
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
                // The payload opens with its codec tag, then the bit length.
                let mut q = 1;
                EntryMeta {
                    offset: p as u64,
                    len: payload_len as u32,
                    crc: stored,
                    bits: varint::read_u64(payload, &mut q)?,
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
        store
            .base
            .extend(std::iter::repeat_n(EntryMeta::EMPTY, pending as usize));
        if !store.base.is_empty() {
            store.last = store.checkout_layered(store.base.len() as u64 - 1)?;
            let boundary = (store.base.len() / layer_interval) * layer_interval;
            store.group_start = if boundary == 0 {
                Bitmap::new()
            } else if boundary == store.base.len() {
                store.last.clone()
            } else {
                store.checkout_layered(boundary as u64 - 1)?
            };
        }
        Ok(store)
    }

    /// Encodes `delta` as one entry of `kind` behind the owed empty-delta
    /// headers, into the unwritten buffer.
    fn encode_entry(&mut self, kind: u8, delta: &Bitmap) -> EntryMeta {
        let payload = rle::encode(delta);
        let crc = crc32(&payload);
        let buf = &mut self.unwritten;
        for _ in 0..self.pending_empties {
            buf.push(KIND_BASE);
            varint::write_u64(buf, 0);
        }
        self.pending_empties = 0;
        buf.push(kind);
        varint::write_u64(buf, payload.len() as u64);
        buf.extend_from_slice(&crc.to_le_bytes());
        let offset = self.write_pos + buf.len() as u64;
        buf.extend_from_slice(&payload);
        EntryMeta {
            offset,
            len: payload.len() as u32,
            crc,
            bits: delta.len(),
        }
    }

    /// Writes the unwritten entries at `write_pos`, in one write.
    pub fn flush(&mut self) -> Result<()> {
        if self.unwritten.is_empty() {
            return Ok(());
        }
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
        file.write_all_at(&self.unwritten, self.write_pos)
            .ctx("writing commit entry")?;
        self.write_pos += self.unwritten.len() as u64;
        self.unwritten.clear();
        Ok(())
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
        EntryMeta::EMPTY
    }

    /// Records a commit whose branch bitmap is `bm`; returns the commit's
    /// ordinal within this store.
    pub fn append_commit(&mut self, bm: &Bitmap) -> Result<u64> {
        self.record(bm);
        self.flush()?;
        Ok(self.base.len() as u64 - 1)
    }

    /// Records a commit at which the bitmap did not change, without
    /// comparing it: an empty delta, no file I/O unless a composite is due
    /// or seeded entries are still buffered.
    pub fn append_unchanged(&mut self) -> Result<u64> {
        self.record_unchanged();
        self.flush()?;
        Ok(self.base.len() as u64 - 1)
    }

    /// [`CommitStore::append_commit`] without the write.
    fn record(&mut self, bm: &Bitmap) {
        let delta = bm.xor(&self.last);
        if delta.count_ones() == 0 && delta.len() == self.last.len() {
            // Unchanged since the previous commit: no file I/O now.
            let meta = self.note_empty(false);
            self.base.push(meta);
        } else {
            let meta = self.encode_entry(KIND_BASE, &delta);
            self.base.push(meta);
            self.last = bm.clone();
        }
        self.close_group(bm);
    }

    /// [`CommitStore::append_unchanged`] without the write.
    fn record_unchanged(&mut self) {
        let meta = self.note_empty(false);
        self.base.push(meta);
        let last = std::mem::take(&mut self.last);
        self.close_group(&last);
        self.last = last;
    }

    /// Encodes the composite delta when the base entry just recorded,
    /// whose bitmap is `bm`, ends a layer group.
    fn close_group(&mut self, bm: &Bitmap) {
        if self.base.len().is_multiple_of(self.layer_interval) {
            let comp = bm.xor(&self.group_start);
            let meta = self.encode_entry(KIND_COMPOSITE, &comp);
            self.composite.push(meta);
            self.group_start = bm.clone();
        }
    }

    fn read_entry(&self, file: &mut Option<Arc<dyn DiskFile>>, meta: EntryMeta) -> Result<Bitmap> {
        if meta.len == 0 {
            return Ok(Bitmap::new());
        }
        let mut buf = vec![0u8; meta.len as usize];
        if let Some(at) = meta.offset.checked_sub(self.write_pos) {
            // Still in the unwritten buffer.
            let at = at as usize;
            buf.copy_from_slice(&self.unwritten[at..at + meta.len as usize]);
        } else {
            let handle = match file {
                Some(f) => f,
                None => file.insert(self.open_read()?),
            };
            handle
                .read_exact_at(&mut buf, meta.offset)
                .ctx("reading commit entry")?;
        }
        if crc32(&buf) != meta.crc {
            return Err(DbError::corrupt(format!(
                "commit store entry at offset {} failed checksum (bit-flipped on disk)",
                meta.offset
            )));
        }
        rle::decode(&buf)
    }

    /// Reconstructs the branch bitmap at commit `ordinal` by whichever of
    /// the two walks reads fewer non-empty entries (counted from metadata,
    /// no IO): the forward layered replay ([`CommitStore::checkout_layered`])
    /// or the backward walk from the head state, `last ⊕ Δ(ordinal+1) ⊕ … ⊕
    /// Δ(newest)`. Ties go forward, which needs no head-state clone. Both
    /// give the same bits and length.
    pub fn checkout(&self, ordinal: u64) -> Result<Bitmap> {
        let (groups, tail) = self.layered_walk(ordinal)?;
        let newer = &self.base[ordinal as usize + 1..];
        let reads = |entries: &[EntryMeta]| entries.iter().filter(|m| m.len > 0).count();
        if reads(newer) >= reads(groups) + reads(tail) {
            return self.replay(Bitmap::new(), groups.iter().chain(tail));
        }
        let mut state = self.replay(self.last.clone(), newer.iter())?;
        state.resize(layered_len(groups, tail));
        Ok(state)
    }

    /// Reconstructs the branch bitmap at commit `ordinal` as §3.2 does:
    /// composite deltas for whole groups, then base deltas for the
    /// remainder, replayed forward from the empty bitmap. [`CommitStore::open_at_in`]
    /// rebuilds the head state this way; it is also the layered arm of the
    /// checkout-cost ablation.
    pub fn checkout_layered(&self, ordinal: u64) -> Result<Bitmap> {
        let (groups, tail) = self.layered_walk(ordinal)?;
        self.replay(Bitmap::new(), groups.iter().chain(tail))
    }

    /// The entries the layered forward walk to `ordinal` applies: whole
    /// composite groups, then the base deltas after the last boundary.
    fn layered_walk(&self, ordinal: u64) -> Result<(&[EntryMeta], &[EntryMeta])> {
        let ordinal = ordinal as usize;
        if ordinal >= self.base.len() {
            return Err(DbError::UnknownCommit(ordinal as u64));
        }
        let full_groups = (ordinal + 1) / self.layer_interval;
        Ok((
            &self.composite[..full_groups],
            &self.base[full_groups * self.layer_interval..=ordinal],
        ))
    }

    /// XORs `entries` in order onto `state`; empty entries read nothing.
    fn replay<'a>(
        &self,
        mut state: Bitmap,
        entries: impl Iterator<Item = &'a EntryMeta>,
    ) -> Result<Bitmap> {
        let mut file = None;
        for &meta in entries {
            state.xor_assign(&self.read_entry(&mut file, meta)?);
        }
        Ok(state)
    }

    /// Reconstructs `ordinal` using only base deltas — the 1-layer scheme,
    /// kept for the checkout-cost ablation of §3.2's layering decision.
    /// Its result has the layered walk's length: base deltas a shrunk
    /// column has outgrown would otherwise leave it longer.
    pub fn checkout_unlayered(&self, ordinal: u64) -> Result<Bitmap> {
        let (groups, tail) = self.layered_walk(ordinal)?;
        let mut state = self.replay(Bitmap::new(), self.base[..=ordinal as usize].iter())?;
        state.resize(layered_len(groups, tail));
        Ok(state)
    }

    /// Number of commits stored.
    pub fn commit_count(&self) -> u64 {
        self.base.len() as u64
    }

    /// On-disk size in bytes — the paper's "aggregate pack file size"
    /// metric (Table 2).
    pub fn file_size(&self) -> u64 {
        self.write_pos + self.unwritten.len() as u64 + 2 * self.pending_empties as u64
    }

    /// Bytes actually on disk (excluding buffered entries and empty-delta
    /// headers) — the coverage a checkpoint records for
    /// [`CommitStore::open_at_in`] after a [`CommitStore::flush`].
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

/// The length of a forward replay: that of the longest delta it applies.
fn layered_len(groups: &[EntryMeta], tail: &[EntryMeta]) -> u64 {
    groups.iter().chain(tail).map(|m| m.bits).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decibel_common::env::{std_env, FaultEnv};
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
        // The flipped entry is the newest delta, which the head commit's
        // checkout never reads (it is served from memory); the commit
        // before it walks back through exactly that entry.
        flip_bit_at_end(&path, 1);
        let err = store.checkout(store.commit_count() - 2).unwrap_err();
        assert!(
            matches!(err, DbError::Corrupt { .. }),
            "expected typed corruption, got {err:?}"
        );
    }

    /// Both walks and the unlayered replay agree with each other in bits
    /// and length, and with the committed history in bits, at every
    /// ordinal.
    fn assert_walks_agree(store: &CommitStore, history: &[Bitmap]) {
        assert_eq!(store.commit_count(), history.len() as u64);
        for (o, bm) in history.iter().enumerate() {
            let o64 = o as u64;
            let forward = store.checkout_layered(o64).unwrap();
            let got = store.checkout(o64).unwrap();
            assert_eq!(got.len(), forward.len(), "commit {o}");
            assert_eq!(got, forward, "commit {o}");
            let unlayered = store.checkout_unlayered(o64).unwrap();
            assert_eq!(unlayered.len(), got.len(), "commit {o}");
            assert_eq!(unlayered, got, "commit {o}");
            assert!(got.iter_ones().eq(bm.iter_ones()), "commit {o}");
        }
    }

    /// Derives the next commit's bitmap from the previous one.
    fn step(bm: &mut Bitmap, op: u8, rng: &mut DetRng) {
        match op {
            // Unchanged: an empty delta.
            0 => {}
            // Appended rows.
            1 => {
                for _ in 0..rng.range(1, 40) {
                    bm.set(bm.len(), true);
                }
            }
            // Updates and deletes of existing rows.
            2 => {
                for _ in 0..rng.range(1, 8) {
                    if !bm.is_empty() {
                        let r = rng.below(bm.len());
                        bm.set(r, !bm.get(r));
                    }
                }
            }
            // A length-only delta: the column grows, no bit changes.
            3 => bm.grow(bm.len() + rng.range(1, 100)),
            // A shrinking column (its trailing bits may be set or not).
            _ => bm.resize(bm.len() - rng.below(bm.len() / 2 + 1)),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig {
            cases: 48,
            ..Default::default()
        })]

        #[test]
        fn backward_checkout_equals_forward_replay(
            ops in proptest::collection::vec(0u8..5, 1..80),
            interval in 0usize..3,
            split in 0usize..80,
            seed in 0u64..u64::MAX,
        ) {
            let interval = [1, 4, 16][interval];
            let dir = tempfile::tempdir().unwrap();
            let path = dir.path().join("c");
            let mut rng = DetRng::seed_from_u64(seed);
            let mut store = CommitStore::create_in(std_env(), &path, interval).unwrap();
            let mut bm = Bitmap::new();
            let mut history = Vec::new();
            for (i, &op) in ops.iter().enumerate() {
                if i == split % ops.len() {
                    // An empty run, then a reopen at checkpoint coverage
                    // with its empty headers still owed.
                    for _ in 0..rng.range(1, 4) {
                        store.append_commit(&bm).unwrap();
                        history.push(bm.clone());
                    }
                    let (covered, pending) = (store.on_disk_len(), store.pending_empty_count());
                    store.sync().unwrap();
                    drop(store);
                    store = CommitStore::open_at_in(std_env(), &path, interval, covered, pending)
                        .unwrap();
                    assert_walks_agree(&store, &history);
                }
                step(&mut bm, op, &mut rng);
                store.append_commit(&bm).unwrap();
                history.push(bm.clone());
            }
            assert_walks_agree(&store, &history);
        }
    }

    #[test]
    fn checkout_reads_only_the_entries_its_walk_takes() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("c");
        let env = FaultEnv::new();
        let mut store = CommitStore::create_in(Arc::new(env.clone()), &path, 4).unwrap();
        let history = random_history(6, 23);
        for bm in &history {
            store.append_commit(bm).unwrap();
        }
        // A fork-and-merge leaves the head unchanged: three empty deltas.
        for _ in 0..3 {
            store.append_commit(history.last().unwrap()).unwrap();
        }
        store.sync().unwrap();
        let reference = CommitStore::open_at_in(
            std_env(),
            &path,
            4,
            store.on_disk_len(),
            store.pending_empty_count(),
        )
        .unwrap();
        // Nothing has been read through `env` yet: its next read, whatever
        // it is, comes back with a payload bit flipped.
        env.flip_bit_in_read(0, 3);
        for o in (5..store.commit_count()).rev() {
            // Every newer delta is empty: served from the head state.
            assert_eq!(
                store.checkout(o).unwrap(),
                reference.checkout_layered(o).unwrap(),
                "commit {o}"
            );
        }
        // Commit 4 walks back through commit 5's delta, the flipped read.
        let err = store.checkout(4).unwrap_err();
        assert!(
            matches!(err, DbError::Corrupt { .. }),
            "expected typed corruption, got {err:?}"
        );
        // The flip was one-shot: the same walk now verifies clean.
        assert_eq!(
            store.checkout(4).unwrap(),
            reference.checkout_layered(4).unwrap()
        );
    }

    /// A seeded store does no IO until its next append, serves every
    /// seeded ordinal from memory meanwhile, and then writes exactly the
    /// bytes a store fed the same commits one by one would have written.
    #[test]
    fn seeded_store_defers_its_entries_and_writes_the_eager_bytes() {
        let dir = tempfile::tempdir().unwrap();
        let history = random_history(2, 29);
        let (seed, next) = (&history[0], &history[1]);
        let commits = 20; // crosses one composite boundary at interval 4
        let env = FaultEnv::new();
        let seeded_path = dir.path().join("seeded");
        let mut seeded =
            CommitStore::seeded_in(Arc::new(env.clone()), &seeded_path, 4, seed, commits);
        assert_eq!(seeded.commit_count(), commits);
        for o in 0..commits {
            assert_eq!(seeded.checkout(o).unwrap(), *seed, "commit {o}");
        }
        assert_eq!(env.ops(), 0, "seeding wrote");
        assert!(!seeded_path.exists());

        let eager_path = dir.path().join("eager");
        let mut eager = CommitStore::create_in(std_env(), &eager_path, 4).unwrap();
        for _ in 0..commits {
            eager.append_commit(seed).unwrap();
        }
        assert_eq!(seeded.file_size(), eager.file_size());
        seeded.append_commit(next).unwrap();
        eager.append_commit(next).unwrap();
        assert_eq!(
            std::fs::read(&seeded_path).unwrap(),
            std::fs::read(&eager_path).unwrap()
        );
        seeded.sync().unwrap();
        let reopened = CommitStore::open_at_in(
            std_env(),
            &seeded_path,
            4,
            seeded.on_disk_len(),
            seeded.pending_empty_count(),
        )
        .unwrap();
        assert_walks_agree(
            &reopened,
            &[vec![seed.clone(); commits as usize], vec![next.clone()]].concat(),
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
