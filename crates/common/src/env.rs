//! Fault-injectable disk IO environment.
//!
//! Every durability-bearing path in the system (WAL, heap files, commit
//! stores, version graph, checkpoint) performs its file IO through a
//! [`DiskEnv`] — a small trait over open/read/write/fsync/rename/truncate/
//! dir-sync — instead of calling `std::fs` directly. Production code runs
//! on [`StdEnv`], a zero-cost passthrough to the OS. Tests run on
//! [`FaultEnv`], which wraps the real filesystem but can inject the crash
//! shapes that matter for a storage engine:
//!
//! * **crash after the k-th IO op** — op `k` optionally lands a torn
//!   prefix, then every subsequent operation fails, modelling process
//!   death at an arbitrary point in the IO stream (the SQLite test-VFS
//!   technique). Run a workload once to count ops, then re-run it once
//!   per `k` and assert recovery invariants after reopening.
//! * **fsync failures** — the n-th `sync_data`/`sync_all`/`sync_dir`
//!   call returns an error, exercising the journal-poison contract.
//! * **short / torn writes** — a write lands only a prefix of its buffer
//!   and reports failure.
//! * **ENOSPC** — writes beyond a budget fail, as on a full disk.
//! * **read bit-flips** — a chosen read returns its buffer with one bit
//!   flipped, exercising checksum detection paths.
//!
//! The environment is threaded through `StoreConfig`, so a whole
//! `Database` (all four engines, WAL, checkpoints) can be pointed at a
//! `FaultEnv` without any test-only code in the engines themselves.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// How a file should be opened by [`DiskEnv::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// Read-only; the file must exist.
    Read,
    /// Read + write; created if missing, existing contents preserved.
    ReadWrite,
    /// Read + write; created if missing, truncated to zero if present.
    Truncate,
}

/// An open file handle behind a [`DiskEnv`].
///
/// All access is positional (`read_exact_at` / `write_all_at`) so a handle
/// can be shared between threads without a seek cursor race; callers that
/// append track their own offset.
// `len` returns `io::Result<u64>`, so clippy's `is_empty` pairing
// (which expects a plain `bool`) does not apply.
#[allow(clippy::len_without_is_empty)]
pub trait DiskFile: Send + Sync {
    /// Reads exactly `buf.len()` bytes at `offset`, erroring on EOF.
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()>;
    /// Writes the whole buffer at `offset`.
    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()>;
    /// Flushes file data (and as little metadata as possible) to disk.
    fn sync_data(&self) -> io::Result<()>;
    /// Flushes file data and metadata to disk.
    fn sync_all(&self) -> io::Result<()>;
    /// Truncates or extends the file to `len` bytes.
    fn set_len(&self, len: u64) -> io::Result<()>;
    /// Current file length in bytes.
    fn len(&self) -> io::Result<u64>;
}

/// A filesystem as seen by the storage layer.
///
/// [`StdEnv`] passes every call straight to the OS; [`FaultEnv`] interposes
/// fault injection. Paths are interpreted exactly as `std::fs` would.
pub trait DiskEnv: Send + Sync {
    /// Opens (or creates, per `mode`) the file at `path`.
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Arc<dyn DiskFile>>;
    /// Renames `from` to `to` (atomic replacement on POSIX).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes the file at `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Fsyncs the directory at `path`, making renames/removals durable.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
    /// Creates `path` and all missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Recursively removes the directory at `path`.
    fn remove_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Whether `path` exists.
    fn exists(&self, path: &Path) -> bool;
    /// Length of the file at `path` in bytes.
    fn file_len(&self, path: &Path) -> io::Result<u64>;

    /// Reads the whole file at `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let file = self.open(path, OpenMode::Read)?;
        let len = file.len()?;
        let mut buf = vec![0u8; len as usize];
        if !buf.is_empty() {
            file.read_exact_at(&mut buf, 0)?;
        }
        Ok(buf)
    }

    /// Writes (create + truncate) the whole file at `path`. Not durable on
    /// its own — pair with `sync_data`/`sync_dir` where durability matters.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let file = self.open(path, OpenMode::Truncate)?;
        if !bytes.is_empty() {
            file.write_all_at(bytes, 0)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// StdEnv — zero-cost passthrough
// ---------------------------------------------------------------------------

/// The real filesystem: every [`DiskEnv`] call maps 1:1 to `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdEnv;

/// Convenience: a fresh `Arc<dyn DiskEnv>` over the real filesystem.
pub fn std_env() -> Arc<dyn DiskEnv> {
    Arc::new(StdEnv)
}

impl DiskFile for File {
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        FileExt::read_exact_at(self, buf, offset)
    }
    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        FileExt::write_all_at(self, buf, offset)
    }
    fn sync_data(&self) -> io::Result<()> {
        File::sync_data(self)
    }
    fn sync_all(&self) -> io::Result<()> {
        File::sync_all(self)
    }
    fn set_len(&self, len: u64) -> io::Result<()> {
        File::set_len(self, len)
    }
    fn len(&self) -> io::Result<u64> {
        Ok(self.metadata()?.len())
    }
}

fn std_open(path: &Path, mode: OpenMode) -> io::Result<File> {
    match mode {
        OpenMode::Read => OpenOptions::new().read(true).open(path),
        OpenMode::ReadWrite => OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path),
        OpenMode::Truncate => OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path),
    }
}

impl DiskEnv for StdEnv {
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Arc<dyn DiskFile>> {
        Ok(Arc::new(std_open(path, mode)?))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        File::open(path)?.sync_all()
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_dir_all(path)
    }
    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
    fn file_len(&self, path: &Path) -> io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }
}

// ---------------------------------------------------------------------------
// FaultEnv — fault injection over the real filesystem
// ---------------------------------------------------------------------------

/// Counters and fault triggers shared by all files of a [`FaultEnv`].
#[derive(Debug, Default)]
struct FaultState {
    /// Mutating IO ops performed so far (writes, fsyncs, set_len, rename,
    /// remove, dir-sync). Reads and opens are not counted: a crash "after a
    /// read" is indistinguishable on disk from a crash after the previous
    /// mutating op.
    ops: u64,
    /// Crash fires when the op counter reaches this index (0-based).
    crash_at: Option<u64>,
    /// Once set, every IO call (including reads/opens) fails: the process
    /// is dead as far as this environment is concerned.
    crashed: bool,
    /// If the crashing op is a write, land `len/2` bytes before failing.
    torn_crash: bool,
    /// 0-based index (into the fsync sub-counter) of a one-shot injected
    /// fsync failure. Covers `sync_data`, `sync_all`, and `sync_dir`.
    fail_fsync_at: Option<u64>,
    fsyncs: u64,
    /// Writes with sub-index >= this fail with a simulated ENOSPC.
    enospc_after_writes: Option<u64>,
    writes: u64,
    /// `(nth_read, bit)`: the nth `read_exact_at` (0-based) has `bit`
    /// (numbered from the start of the returned buffer) flipped.
    flip_read: Option<(u64, u64)>,
    reads: u64,
}

enum Gate {
    Proceed,
    /// Write a prefix of this many bytes, then fail with a crash error.
    Torn(usize),
}

fn crash_error() -> io::Error {
    io::Error::other("simulated crash: IO op past crash point")
}

impl FaultState {
    /// Accounts one mutating op; decides whether it proceeds, tears, or fails.
    fn gate(&mut self, is_write: bool, write_len: usize) -> io::Result<Gate> {
        if self.crashed {
            return Err(crash_error());
        }
        let idx = self.ops;
        self.ops += 1;
        if self.crash_at == Some(idx) {
            self.crashed = true;
            if is_write && self.torn_crash && write_len > 1 {
                return Ok(Gate::Torn(write_len / 2));
            }
            return Err(crash_error());
        }
        if is_write {
            let w = self.writes;
            self.writes += 1;
            if let Some(limit) = self.enospc_after_writes {
                if w >= limit {
                    return Err(io::Error::other("injected ENOSPC: no space left on device"));
                }
            }
        }
        Ok(Gate::Proceed)
    }

    /// Accounts one fsync (also a mutating op for crash purposes).
    fn gate_fsync(&mut self) -> io::Result<()> {
        match self.gate(false, 0)? {
            Gate::Proceed => {}
            Gate::Torn(_) => unreachable!("fsync is not a write"),
        }
        let idx = self.fsyncs;
        self.fsyncs += 1;
        if self.fail_fsync_at == Some(idx) {
            return Err(io::Error::other("injected fsync failure"));
        }
        Ok(())
    }

    fn gate_read(&mut self) -> io::Result<Option<u64>> {
        if self.crashed {
            return Err(crash_error());
        }
        let idx = self.reads;
        self.reads += 1;
        match self.flip_read {
            Some((n, bit)) if n == idx => Ok(Some(bit)),
            _ => Ok(None),
        }
    }

    fn gate_passive(&self) -> io::Result<()> {
        if self.crashed {
            return Err(crash_error());
        }
        Ok(())
    }
}

/// A [`DiskEnv`] over the real filesystem with injectable faults.
///
/// Cloneable handles share one fault state: keep an `Arc<FaultEnv>` in the
/// test, hand it to `StoreConfig.env`, and drive the knobs / read the
/// counters from outside while the database runs on it. See the module
/// docs for the fault catalogue and [`FaultEnv::crash_after`] for the
/// crash-point enumeration workflow.
#[derive(Clone, Default)]
pub struct FaultEnv {
    state: Arc<Mutex<FaultState>>,
}

impl fmt::Debug for FaultEnv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.state.lock().unwrap();
        f.debug_struct("FaultEnv")
            .field("ops", &s.ops)
            .field("crash_at", &s.crash_at)
            .field("crashed", &s.crashed)
            .finish()
    }
}

impl FaultEnv {
    /// A fresh environment with no faults armed — counts ops only.
    pub fn new() -> Self {
        Self::default()
    }

    fn state(&self) -> std::sync::MutexGuard<'_, FaultState> {
        // Fault state is plain data; a poisoned mutex only happens if an
        // assertion failed mid-update in this module, which cannot occur.
        self.state.lock().unwrap()
    }

    /// Mutating IO ops performed so far. Run the workload once on an
    /// unarmed env to learn `N`, then once per `k in 0..N` with
    /// [`crash_after`](Self::crash_after) armed.
    pub fn ops(&self) -> u64 {
        self.state().ops
    }

    /// Whether the armed crash point has fired.
    pub fn crashed(&self) -> bool {
        self.state().crashed
    }

    /// Arms a crash at mutating op `k` (0-based): op `k` fails (landing a
    /// torn half-write first if `torn` and it is a write), and every IO
    /// call after it fails too.
    pub fn crash_after(&self, k: u64, torn: bool) {
        let mut s = self.state();
        s.crash_at = Some(k);
        s.torn_crash = torn;
    }

    /// Makes the `n`-th fsync (0-based; data/all/dir syncs all count)
    /// return an injected error once.
    pub fn fail_nth_fsync(&self, n: u64) {
        self.state().fail_fsync_at = Some(n);
    }

    /// Makes every write after the first `n` fail with a simulated ENOSPC.
    pub fn enospc_after_writes(&self, n: u64) {
        self.state().enospc_after_writes = Some(n);
    }

    /// Flips bit `bit` of the buffer returned by the `n`-th read (0-based).
    pub fn flip_bit_in_read(&self, n: u64, bit: u64) {
        self.state().flip_read = Some((n, bit));
    }
}

struct FaultFile {
    inner: File,
    state: Arc<Mutex<FaultState>>,
}

impl FaultFile {
    fn state(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.state.lock().unwrap()
    }
}

impl DiskFile for FaultFile {
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let flip = self.state().gate_read()?;
        FileExt::read_exact_at(&self.inner, buf, offset)?;
        if let Some(bit) = flip {
            let byte = (bit / 8) as usize;
            if byte < buf.len() {
                buf[byte] ^= 1 << (bit % 8);
            }
        }
        Ok(())
    }

    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        match self.state().gate(true, buf.len())? {
            Gate::Proceed => FileExt::write_all_at(&self.inner, buf, offset),
            Gate::Torn(prefix) => {
                FileExt::write_all_at(&self.inner, &buf[..prefix], offset)?;
                Err(crash_error())
            }
        }
    }

    fn sync_data(&self) -> io::Result<()> {
        self.state().gate_fsync()?;
        self.inner.sync_data()
    }

    fn sync_all(&self) -> io::Result<()> {
        self.state().gate_fsync()?;
        self.inner.sync_all()
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        match self.state().gate(false, 0)? {
            Gate::Proceed => self.inner.set_len(len),
            Gate::Torn(_) => unreachable!("set_len is not a write"),
        }
    }

    fn len(&self) -> io::Result<u64> {
        self.state().gate_passive()?;
        Ok(self.inner.metadata()?.len())
    }
}

impl DiskEnv for FaultEnv {
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Arc<dyn DiskFile>> {
        // Opening with truncate destroys data, so it is gated as a mutating
        // op; plain opens are passive.
        match mode {
            OpenMode::Truncate => match self.state().gate(false, 0)? {
                Gate::Proceed => {}
                Gate::Torn(_) => unreachable!(),
            },
            _ => self.state().gate_passive()?,
        }
        let inner = std_open(path, mode)?;
        Ok(Arc::new(FaultFile {
            inner,
            state: Arc::clone(&self.state),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.state().gate(false, 0)? {
            Gate::Proceed => std::fs::rename(from, to),
            Gate::Torn(_) => unreachable!(),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match self.state().gate(false, 0)? {
            Gate::Proceed => std::fs::remove_file(path),
            Gate::Torn(_) => unreachable!(),
        }
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.state().gate_fsync()?;
        File::open(path)?.sync_all()
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.state().gate_passive()?;
        std::fs::create_dir_all(path)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        match self.state().gate(false, 0)? {
            Gate::Proceed => std::fs::remove_dir_all(path),
            Gate::Torn(_) => unreachable!(),
        }
    }

    fn exists(&self, path: &Path) -> bool {
        !self.state().crashed && path.exists()
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.state().gate_passive()?;
        Ok(std::fs::metadata(path)?.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(env: &dyn DiskEnv, path: &Path) -> Arc<dyn DiskFile> {
        env.open(path, OpenMode::ReadWrite).unwrap()
    }

    #[test]
    fn std_env_round_trips() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("f");
        let env = StdEnv;
        let f = file(&env, &path);
        f.write_all_at(b"hello", 0).unwrap();
        f.sync_data().unwrap();
        assert_eq!(f.len().unwrap(), 5);
        let mut buf = [0u8; 5];
        f.read_exact_at(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"hello");
        assert_eq!(env.read(&path).unwrap(), b"hello");
        env.rename(&path, &dir.path().join("g")).unwrap();
        assert!(env.exists(&dir.path().join("g")));
        env.sync_dir(dir.path()).unwrap();
    }

    #[test]
    fn crash_after_k_fails_everything_past_k() {
        let dir = tempfile::tempdir().unwrap();
        let env = FaultEnv::new();
        env.crash_after(2, false);
        let f = file(&env, &dir.path().join("f"));
        f.write_all_at(b"a", 0).unwrap(); // op 0
        f.write_all_at(b"b", 1).unwrap(); // op 1
        assert!(f.write_all_at(b"c", 2).is_err()); // op 2: crash fires
        assert!(f.write_all_at(b"d", 3).is_err()); // dead forever after
        assert!(f.sync_data().is_err());
        let mut buf = [0u8; 1];
        assert!(f.read_exact_at(&mut buf, 0).is_err());
        assert!(env.crashed());
        // Only the pre-crash bytes landed.
        assert_eq!(std::fs::read(dir.path().join("f")).unwrap(), b"ab");
    }

    #[test]
    fn torn_crash_lands_half_the_buffer() {
        let dir = tempfile::tempdir().unwrap();
        let env = FaultEnv::new();
        env.crash_after(0, true);
        let f = file(&env, &dir.path().join("f"));
        assert!(f.write_all_at(b"abcdefgh", 0).is_err());
        assert_eq!(std::fs::read(dir.path().join("f")).unwrap(), b"abcd");
    }

    #[test]
    fn nth_fsync_fails_once() {
        let dir = tempfile::tempdir().unwrap();
        let env = FaultEnv::new();
        env.fail_nth_fsync(1);
        let f = file(&env, &dir.path().join("f"));
        f.sync_data().unwrap();
        assert!(f.sync_data().is_err());
        f.sync_data().unwrap(); // one-shot
    }

    #[test]
    fn enospc_after_write_budget() {
        let dir = tempfile::tempdir().unwrap();
        let env = FaultEnv::new();
        env.enospc_after_writes(1);
        let f = file(&env, &dir.path().join("f"));
        f.write_all_at(b"ok", 0).unwrap();
        let err = f.write_all_at(b"no", 2).unwrap_err();
        assert!(err.to_string().contains("ENOSPC"));
    }

    #[test]
    fn read_bit_flip_corrupts_exactly_one_bit() {
        let dir = tempfile::tempdir().unwrap();
        let env = FaultEnv::new();
        let f = file(&env, &dir.path().join("f"));
        f.write_all_at(&[0u8; 4], 0).unwrap();
        env.flip_bit_in_read(0, 17); // byte 2, bit 1
        let mut buf = [0u8; 4];
        f.read_exact_at(&mut buf, 0).unwrap();
        assert_eq!(buf, [0, 0, 2, 0]);
        f.read_exact_at(&mut buf, 0).unwrap(); // next read is clean
        assert_eq!(buf, [0, 0, 0, 0]);
    }

    #[test]
    fn ops_counts_mutations_not_reads() {
        let dir = tempfile::tempdir().unwrap();
        let env = FaultEnv::new();
        let f = file(&env, &dir.path().join("f"));
        assert_eq!(env.ops(), 0);
        f.write_all_at(b"x", 0).unwrap();
        f.sync_data().unwrap();
        let mut buf = [0u8; 1];
        f.read_exact_at(&mut buf, 0).unwrap();
        assert_eq!(env.ops(), 2);
    }
}
