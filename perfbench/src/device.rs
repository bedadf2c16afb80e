//! The device every workload's database lives on: files kept in memory,
//! each flush a fixed wait.
//!
//! The sandbox's virtual disk and its file system decide too much of a run
//! by themselves (measured here). One `fsync` swings by a factor of two from
//! one minute to the next: the median fsynced fork of the same database took
//! 0.86 ms in one run and 1.95 ms in the next. Creating a file costs 20 us in
//! an empty directory and 380 us in one that holds 350 files, and a fork
//! creates several: forks of one database took 0.4 ms in one replica of a run
//! and 1.6 ms in the next. A benchmark on that disk reports the neighbours' IO
//! and the file system's directory code, with a run-to-run spread no
//! regression bound can cover.
//!
//! So the databases of the four workloads live on a [`MemDisk`]: a
//! `DiskEnv` whose files are byte vectors, which Decibel reaches through the
//! same calls as the real one (`StoreConfig::with_env`). Reads and writes
//! cost a copy, as they do from the operating system's cache. The durable
//! workloads keep `StoreConfig::fsync = true` — every flush call site runs,
//! commits wait for their group's flush, groups form — and `sync_data`,
//! `sync_all` and `sync_dir` sleep for [`FLUSH_LATENCY`]: the thread blocks
//! and its core is free, as during a real flush. What is reported is the
//! latency of the code on a device with free reads and a steady 100 us flush,
//! not the sandbox disk's; the per-layer `pagestore.*` micros still run on
//! the real one.
//!
//! A sleep is only as steady as the timer behind it. Under the kernel's
//! default 50 us timer slack a 100 us sleep took 162-180 us;
//! [`precise_timers`] sets the slack to its minimum, after which it takes
//! 112-117 us whether the CPUs are idle or busy. A yielding busy wait is exact
//! when the CPUs are idle but waits whole time slices (4 ms) when they are
//! not, and a plain busy wait holds a core: with two clients committing on
//! two cores, `txn_per_s` of `remote_commit_durable` then spread 12-18 % over
//! ten seeds.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

use decibel::common::env::{DiskEnv, DiskFile, OpenMode};

/// What one flush of the simulated device costs its caller.
pub const FLUSH_LATENCY: Duration = Duration::from_micros(100);

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// Sets the timer slack of the calling thread, and of every thread started
/// from it afterwards, to 1 ns. Call before any thread exists.
pub fn precise_timers() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only changes
    // how precisely this thread's timers expire.
    if unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) } != 0 {
        eprintln!("perfbench: cannot set the timer slack; simulated flushes will be less steady");
    }
}

fn flush() -> io::Result<()> {
    std::thread::sleep(FLUSH_LATENCY);
    Ok(())
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("{}: no such file on the simulated device", path.display()),
    )
}

#[derive(Default)]
struct MemFile(RwLock<Vec<u8>>);

impl MemFile {
    fn bytes(&self) -> RwLockReadGuard<'_, Vec<u8>> {
        self.0.read().expect("a writer of this file panicked")
    }

    fn bytes_mut(&self) -> RwLockWriteGuard<'_, Vec<u8>> {
        self.0.write().expect("a writer of this file panicked")
    }
}

impl DiskFile for MemFile {
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let bytes = self.bytes();
        let start = usize::try_from(offset).unwrap_or(usize::MAX);
        match start
            .checked_add(buf.len())
            .and_then(|end| bytes.get(start..end))
        {
            Some(found) => {
                buf.copy_from_slice(found);
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "read past the end of a file on the simulated device",
            )),
        }
    }

    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        let mut bytes = self.bytes_mut();
        let start = offset as usize;
        let end = start + buf.len();
        if bytes.len() < end {
            bytes.resize(end, 0);
        }
        bytes[start..end].copy_from_slice(buf);
        Ok(())
    }

    fn sync_data(&self) -> io::Result<()> {
        flush()
    }

    fn sync_all(&self) -> io::Result<()> {
        flush()
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.bytes_mut().resize(len as usize, 0);
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.bytes().len() as u64)
    }
}

/// An in-memory file system with fixed-latency flushes. An open file stays
/// readable after it is removed or renamed, as on a real one.
#[derive(Default)]
pub struct MemDisk {
    files: Mutex<BTreeMap<PathBuf, Arc<MemFile>>>,
    dirs: Mutex<BTreeSet<PathBuf>>,
}

impl MemDisk {
    fn files(&self) -> MutexGuard<'_, BTreeMap<PathBuf, Arc<MemFile>>> {
        self.files.lock().expect("no panic while the map is held")
    }

    fn dirs(&self) -> MutexGuard<'_, BTreeSet<PathBuf>> {
        self.dirs.lock().expect("no panic while the set is held")
    }

    /// Total bytes of the files under `dir`.
    pub fn tree_bytes(&self, dir: &Path) -> u64 {
        self.files()
            .iter()
            .filter(|(path, _)| path.starts_with(dir))
            .map(|(_, file)| file.bytes().len() as u64)
            .sum()
    }

    /// Copies every file under `from` to the same place under `to`: what a
    /// crash would leave of a quiescent database.
    pub fn copy_tree(&self, from: &Path, to: &Path) {
        let mut files = self.files();
        let copies: Vec<(PathBuf, Arc<MemFile>)> = files
            .iter()
            .filter_map(|(path, file)| {
                let rest = path.strip_prefix(from).ok()?;
                let copy = MemFile(RwLock::new(file.bytes().clone()));
                Some((to.join(rest), Arc::new(copy)))
            })
            .collect();
        files.extend(copies);
        self.dirs().insert(to.to_path_buf());
    }
}

impl DiskEnv for MemDisk {
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Arc<dyn DiskFile>> {
        let mut files = self.files();
        let file = match mode {
            OpenMode::Read => files.get(path).ok_or_else(|| not_found(path))?,
            OpenMode::ReadWrite => files.entry(path.to_path_buf()).or_default(),
            OpenMode::Truncate => {
                let file = files.entry(path.to_path_buf()).or_default();
                file.bytes_mut().clear();
                file
            }
        };
        Ok(Arc::clone(file) as Arc<dyn DiskFile>)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut files = self.files();
        let file = files.remove(from).ok_or_else(|| not_found(from))?;
        files.insert(to.to_path_buf(), file);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.files()
            .remove(path)
            .map(drop)
            .ok_or_else(|| not_found(path))
    }

    fn sync_dir(&self, _path: &Path) -> io::Result<()> {
        flush()
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.dirs().insert(path.to_path_buf());
        Ok(())
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        self.files().retain(|file, _| !file.starts_with(path));
        self.dirs().retain(|dir| !dir.starts_with(path));
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        self.files().contains_key(path) || self.dirs().contains(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        match self.files().get(path) {
            Some(file) => file.len(),
            None => Err(not_found(path)),
        }
    }
}
