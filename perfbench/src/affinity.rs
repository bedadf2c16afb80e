//! Confining the process to one core while a single client probes it.
//!
//! A request and its reply hop between threads: client, event loop, often a
//! worker. In the sandbox a hop to a thread on the *other* virtual CPU wakes
//! that CPU from halt, 30-40 us; a hop on the same CPU is a context switch.
//! Where the scheduler happens to put the threads holds for a whole run, so a
//! lone closed-loop client measures a round trip of 80 us in most runs and
//! 20 us in some, and a 26-round-trip transaction differs fourfold. With two
//! busy clients both CPUs stay awake and the effect averages out; with one it
//! decides the result. So the single-client probe rounds run with every thread
//! of the process on one CPU, and the native phases with all of them free.

use std::fs;

/// `cpu_set_t`: 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this process may run on, as found at start.
pub struct Cpus {
    allowed: CpuSet,
}

impl Cpus {
    /// Reads the calling thread's affinity; `None` if the kernel refuses.
    pub fn allowed() -> Option<Cpus> {
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: `allowed` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc =
            unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), allowed.as_mut_ptr()) };
        (rc == 0).then_some(Cpus { allowed })
    }

    /// Puts every thread of the process on the first allowed CPU until the
    /// returned guard is dropped.
    pub fn confine(&self) -> Confined<'_> {
        let mut one: CpuSet = [0; 16];
        if let Some(word) = self.allowed.iter().position(|w| *w != 0) {
            one[word] = 1 << self.allowed[word].trailing_zeros();
            set_all_threads(&one);
        }
        Confined(self)
    }
}

/// While this lives, the process runs on one CPU; dropping it lets every
/// thread run on all allowed CPUs again.
pub struct Confined<'a>(&'a Cpus);

impl Drop for Confined<'_> {
    fn drop(&mut self) {
        set_all_threads(&self.0.allowed);
    }
}

/// Applies `mask` to every thread of the process (threads started later
/// inherit their creator's). A thread that ends meanwhile is skipped.
fn set_all_threads(mask: &CpuSet) {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return;
    };
    for tid in tasks
        .flatten()
        .filter_map(|t| t.file_name().to_str()?.parse::<i32>().ok())
    {
        // SAFETY: `mask` is a readable buffer of exactly the size passed, and
        // the call only changes scheduling of a thread of this process.
        unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), mask.as_ptr()) };
    }
}
