//! Page/heap-file storage substrate for the Decibel reproduction.
//!
//! Decibel's storage layer "reads in data from one of the storage schemes,
//! storing pages in a fairly conventional buffer pool architecture (with 4 MB
//! pages) ... The buffer pool also encompasses a lock manager used for
//! concurrency control" (§2.1). This crate is that substrate:
//!
//! * [`config::StoreConfig`] — page size, buffer-pool capacity, cold-scan
//!   emulation;
//! * [`heap::HeapFile`] — append-only files of fixed-width record slots, the
//!   physical shape shared by the tuple-first shared heap (§3.2) and the
//!   version-first / hybrid segment files (§3.3–3.4);
//! * [`buffer_pool::BufferPool`] — a shared page cache with LRU eviction and
//!   hit/miss accounting;
//! * [`lock::LockManager`] — two-phase locking on branches ("Concurrent
//!   transactions by multiple users on the same version ... are isolated from
//!   each other through two-phase locking", §2.2.3);
//! * [`wal::Wal`] — a write-ahead log used to make commits atomically visible
//!   and to roll back uncommitted work after a crash (§2.2.3).

pub mod buffer_pool;
pub mod config;
pub mod heap;
pub mod lock;
pub mod wal;

pub use buffer_pool::{BufferPool, FileId, PoolStats};
pub use config::StoreConfig;
pub use heap::{HeapFile, HeapScan, PinnedCursor};
pub use lock::{LockManager, LockMode, TxnLocks};
pub use wal::{crc32, RecoveredTxn, Wal, WalRecovery};
