//! A group-commit write-ahead log for atomic commit visibility.
//!
//! Decibel's updates "are issued as a part of a single transaction, such
//! that they become atomically visible at the time the commit is made, and
//! are rolled back if the client crashes or disconnects before committing"
//! (§2.2.3), and the paper notes that "fault tolerance and recovery can be
//! done by employing standard write-ahead logging techniques on writes"
//! (§2.1). This module is that standard technique: a sequential log of
//! length-prefixed, CRC-protected entries. Transactions append payload
//! entries and seal them with a commit marker; recovery replays only
//! transactions whose commit marker made it to disk, discarding torn or
//! uncommitted suffixes.
//!
//! # Group commit
//!
//! Sealing and durability are split so concurrent committers can share one
//! fsync. [`Wal::seal`] appends a commit marker to the in-memory buffer and
//! returns a monotone *ticket*; [`Wal::sync`] makes every seal up to that
//! ticket durable. The first syncer to arrive becomes the *group leader*:
//! it steals the sealed prefix of the buffer, writes and flushes it in one
//! batch while holding only the file lock, then publishes the new durable
//! ticket and wakes the followers, whose seals rode along in the batch.
//! Transactions sealed while a flush is in flight simply form the next
//! group. [`Wal::commit`] (seal + sync of one transaction) remains the
//! single-writer convenience path.
//!
//! Tickets order *seals*, not transaction ids: the log's replay order is
//! seal order, and the database seals inside its sequencing critical
//! section so seal order equals transaction-id order.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use decibel_common::env::{DiskEnv, DiskFile, OpenMode};
use decibel_common::error::{DbError, IoResultExt, Result};
use decibel_common::fsio::sync_parent_dir_in;
use decibel_common::varint;
use decibel_obs::{family, Counter, Histogram, Registry};
use parking_lot::{Condvar, Mutex};

/// Entry kinds in the log.
const KIND_DATA: u8 = 1;
const KIND_COMMIT: u8 = 2;

/// CRC-32 (IEEE 802.3) — used over every WAL entry's kind, txn id, and
/// payload, and reused by the core crate's checkpoint file format.
pub use decibel_common::crc::crc32;

/// Buffer-side state, guarded by one mutex. The file handle lives behind a
/// *separate* mutex so the group leader flushes without blocking sealers:
/// new transactions keep appending and sealing into `pending` while the
/// previous group's bytes are in flight.
struct BufState {
    /// Buffered bytes not yet handed to the file: a *sealed* prefix
    /// (`..sealed_len`, covered by commit markers, eligible for the next
    /// group flush) and an unsealed tail (entries whose transaction has not
    /// sealed yet).
    pending: Vec<u8>,
    /// Length of the sealed prefix of `pending`.
    sealed_len: usize,
    /// Total bytes ever drained out of `pending` toward the file. Together
    /// with `pending.len()` this gives a monotone "total appended" offset
    /// that [`Wal::mark`] / [`Wal::truncate_to`] use, immune to concurrent
    /// group drains shifting the buffer.
    drained: u64,
    /// Ticket of the most recent seal.
    sealed_ticket: u64,
    /// Highest ticket whose bytes are durable (or covered by a checkpoint
    /// truncation).
    durable_ticket: u64,
    /// Whether a group leader currently owns an in-flight flush.
    syncing: bool,
    /// Sticky failure: once a group flush fails, the log's tail state is
    /// unknowable and every later append/sync fails until reopen. Carries
    /// the leader's original error text so followers woken off the condvar
    /// (and all later callers) surface the real cause, not a generic
    /// "flush failed earlier".
    failed: Option<String>,
}

/// The log's file handle plus the append offset. Positional writes through
/// [`DiskFile`] have no shared cursor, so the offset is tracked explicitly
/// and both live behind the file mutex.
struct WalFile {
    file: Arc<dyn DiskFile>,
    offset: u64,
}

/// A sequential write-ahead log with group commit.
pub struct Wal {
    buf: Mutex<BufState>,
    file: Mutex<WalFile>,
    cv: Condvar,
    path: PathBuf,
    fsync: bool,
    /// Number of physical flush batches (one per group, not per txn).
    flushes: Counter,
    /// Number of `fsync` calls actually issued (zero when fsync is off).
    fsyncs: Counter,
    /// Number of times a failed group flush poisoned the log.
    poisons: Counter,
    /// Seals covered per group flush (group-commit batching factor).
    group_txns: Histogram,
    /// Wall time of each group flush (write + optional fsync), in µs.
    flush_us: Histogram,
}

/// A transaction recovered from the log: its id and payload entries in
/// append order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredTxn {
    /// The transaction id assigned by the writer.
    pub txn: u64,
    /// Payload entries, in the order they were appended.
    pub entries: Vec<Vec<u8>>,
}

/// The outcome of scanning a log with [`Wal::recover_in`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecovery {
    /// Committed transactions, in commit order.
    pub txns: Vec<RecoveredTxn>,
    /// Highest transaction id seen anywhere in the log — including data
    /// entries whose commit marker never made it to disk (e.g. a commit
    /// torn by a full disk). Recovery groups entries by transaction id, so
    /// a writer that reuses an orphaned id would seal the stale entries
    /// under its own commit marker; allocate new ids strictly above this.
    /// Zero when the log holds no parseable entries.
    pub max_txn: u64,
    /// True when the log is exactly its committed history: every parsed
    /// entry belongs to a committed transaction and no torn tail was
    /// discarded. A clean log can be appended to as-is; an unclean one
    /// must be compacted with [`Wal::rewrite_in`] before reuse (new appends
    /// would land after torn bytes, and a commit marker could adopt
    /// orphaned entries that share its transaction id).
    pub clean: bool,
}

impl Wal {
    /// Opens (creating if necessary) the log at `path` through `env`.
    /// `fsync` controls whether group flushes force data to stable storage.
    pub fn open_in(env: &dyn DiskEnv, path: impl AsRef<Path>, fsync: bool) -> Result<Wal> {
        Self::open_in_metered(env, path, fsync, &Registry::new())
    }

    /// [`Wal::open_in`] with its instruments registered in `metrics` (under
    /// the `wal` family) instead of a private throwaway registry.
    pub fn open_in_metered(
        env: &dyn DiskEnv,
        path: impl AsRef<Path>,
        fsync: bool,
        metrics: &Registry,
    ) -> Result<Wal> {
        let path = path.as_ref().to_path_buf();
        let file = env.open(&path, OpenMode::ReadWrite).ctx("opening WAL")?;
        let offset = file.len().ctx("stat WAL")?;
        Ok(Wal {
            buf: Mutex::new(BufState {
                pending: Vec::new(),
                sealed_len: 0,
                drained: 0,
                sealed_ticket: 0,
                durable_ticket: 0,
                syncing: false,
                failed: None,
            }),
            file: Mutex::new(WalFile { file, offset }),
            cv: Condvar::new(),
            path,
            fsync,
            flushes: metrics.counter(family::WAL, "flushes"),
            fsyncs: metrics.counter(family::WAL, "fsyncs"),
            poisons: metrics.counter(family::WAL, "poisons"),
            group_txns: metrics.histogram(family::WAL, "group_txns"),
            flush_us: metrics.histogram(family::WAL, "flush_us"),
        })
    }

    fn encode_entry(out: &mut Vec<u8>, kind: u8, txn: u64, payload: &[u8]) {
        let mut body = Vec::with_capacity(payload.len() + 12);
        body.push(kind);
        varint::write_u64(&mut body, txn);
        body.extend_from_slice(payload);
        varint::write_u64(out, body.len() as u64);
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
    }

    fn failed_err(detail: &str) -> DbError {
        DbError::Invalid(format!(
            "WAL flush failed earlier ({detail}); log state unknown until reopen"
        ))
    }

    /// Appends a payload entry for transaction `txn` (buffered; becomes
    /// durable once the transaction is sealed and a group flush covering
    /// its ticket completes).
    pub fn append(&self, txn: u64, payload: &[u8]) -> Result<()> {
        let mut buf = self.buf.lock();
        if let Some(detail) = &buf.failed {
            return Err(Self::failed_err(detail));
        }
        let mut bytes = std::mem::take(&mut buf.pending);
        Self::encode_entry(&mut bytes, KIND_DATA, txn, payload);
        buf.pending = bytes;
        Ok(())
    }

    /// Seals transaction `txn` with a commit marker and returns the seal's
    /// ticket. The seal is *not yet durable*: pass the ticket to
    /// [`Wal::sync`] (typically after releasing commit-path locks, so the
    /// fsync is shared with concurrently sealing transactions).
    pub fn seal(&self, txn: u64) -> Result<u64> {
        let mut buf = self.buf.lock();
        if let Some(detail) = &buf.failed {
            return Err(Self::failed_err(detail));
        }
        let mut bytes = std::mem::take(&mut buf.pending);
        Self::encode_entry(&mut bytes, KIND_COMMIT, txn, &[]);
        buf.sealed_len = bytes.len();
        buf.pending = bytes;
        buf.sealed_ticket += 1;
        Ok(buf.sealed_ticket)
    }

    /// Blocks until every seal up to `ticket` is durable (group commit).
    /// The caller either becomes the group leader — writing and flushing
    /// the whole sealed prefix in one batch — or waits for a leader whose
    /// batch covers its ticket.
    pub fn sync(&self, ticket: u64) -> Result<()> {
        let mut buf = self.buf.lock();
        loop {
            if let Some(detail) = &buf.failed {
                return Err(Self::failed_err(detail));
            }
            if buf.durable_ticket >= ticket {
                return Ok(());
            }
            if buf.syncing {
                // A leader's flush is in flight; it (or a later group's
                // leader) will cover this ticket.
                self.cv.wait(&mut buf);
                continue;
            }
            // Become the leader: steal the sealed prefix and every ticket
            // it covers, then flush outside the buffer lock so sealers are
            // never blocked on the fsync.
            buf.syncing = true;
            let sealed = buf.sealed_len;
            let batch: Vec<u8> = buf.pending.drain(..sealed).collect();
            let batch_ticket = buf.sealed_ticket;
            let group = batch_ticket.saturating_sub(buf.durable_ticket);
            buf.drained += batch.len() as u64;
            buf.sealed_len = 0;
            drop(buf);

            let span = self.flush_us.start();
            let write_result = (|| -> Result<()> {
                let mut wf = self.file.lock();
                let off = wf.offset;
                wf.file.write_all_at(&batch, off).ctx("writing WAL")?;
                wf.offset += batch.len() as u64;
                if self.fsync {
                    wf.file.sync_data().ctx("fsyncing WAL")?;
                    self.fsyncs.inc();
                }
                Ok(())
            })();
            span.finish();
            self.flushes.inc();
            self.group_txns.record(group);

            buf = self.buf.lock();
            buf.syncing = false;
            match write_result {
                Ok(()) => {
                    buf.durable_ticket = buf.durable_ticket.max(batch_ticket);
                    self.cv.notify_all();
                    // Loop: the batch covered our ticket unless we raced a
                    // truncation, which also marks it durable-by-coverage.
                }
                Err(e) => {
                    // Poison with the real cause and wake every follower:
                    // their seals rode in the failed batch, so they must
                    // surface this error, not block on the condvar forever.
                    self.poisons.inc();
                    buf.failed = Some(e.to_string());
                    self.cv.notify_all();
                    return Err(e);
                }
            }
        }
    }

    /// Seals and makes durable in one step — the single-writer convenience
    /// path (admin operations and tests).
    pub fn commit(&self, txn: u64) -> Result<()> {
        let ticket = self.seal(txn)?;
        self.sync(ticket)
    }

    /// Number of physical flush batches performed so far. With group
    /// commit this counts one per *group*, so it grows slower than the
    /// number of committed transactions under concurrency.
    pub fn flush_count(&self) -> u64 {
        self.flushes.value()
    }

    /// Discards buffered entries that are not yet sealed. Sealed bytes
    /// belonging to concurrently committing transactions are untouched.
    pub fn rollback(&self) {
        let mut buf = self.buf.lock();
        let sealed = buf.sealed_len;
        buf.pending.truncate(sealed);
    }

    /// Returns a restore point covering everything appended so far, for
    /// [`Wal::truncate_to`]. Callers must hold whatever exclusion prevents
    /// *other* writers from appending between `mark` and `truncate_to`
    /// (the database's admin operations hold the store write lock);
    /// concurrent group *flushes* are safe.
    pub fn mark(&self) -> u64 {
        let buf = self.buf.lock();
        buf.drained + buf.pending.len() as u64
    }

    /// Discards every unsealed byte appended after `mark` was taken —
    /// rollback for a failed multi-entry operation whose entries were
    /// appended but never sealed.
    pub fn truncate_to(&self, mark: u64) {
        let mut buf = self.buf.lock();
        let local = mark.saturating_sub(buf.drained) as usize;
        let keep = local.max(buf.sealed_len);
        buf.pending.truncate(keep);
    }

    /// Replays the log at `path` through `env`, returning committed
    /// transactions in commit order plus the highest transaction id seen in
    /// any entry (committed or not — see [`WalRecovery::max_txn`]). Torn
    /// trailing entries (from a crash mid-write) are ignored; corrupt CRCs
    /// before the tail are an error.
    pub fn recover_in(env: &dyn DiskEnv, path: impl AsRef<Path>) -> Result<WalRecovery> {
        let empty = WalRecovery {
            txns: Vec::new(),
            max_txn: 0,
            clean: true,
        };
        let bytes = match env.read(path.as_ref()) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(empty),
            Err(e) => return Err(DbError::io("reading WAL for recovery", e)),
        };
        let mut pos = 0usize;
        let mut open: Vec<(u64, Vec<Vec<u8>>)> = Vec::new();
        let mut committed = Vec::new();
        let mut max_txn = 0u64;
        let mut torn = false;
        while pos < bytes.len() {
            let entry_start = pos;
            let len = match varint::read_u64(&bytes, &mut pos) {
                Ok(l) => l as usize,
                Err(_) => {
                    torn = true; // torn length at tail
                    break;
                }
            };
            if pos + 4 + len > bytes.len() {
                // Torn entry at the tail: discard it and everything after.
                let _ = entry_start;
                torn = true;
                break;
            }
            let stored_crc =
                u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4-byte record crc"));
            pos += 4;
            let body = &bytes[pos..pos + len];
            pos += len;
            if crc32(body) != stored_crc {
                return Err(DbError::corrupt(format!(
                    "WAL CRC mismatch at offset {entry_start}"
                )));
            }
            let kind = body[0];
            let mut bpos = 1usize;
            let txn = varint::read_u64(body, &mut bpos)?;
            max_txn = max_txn.max(txn);
            match kind {
                KIND_DATA => {
                    let payload = body[bpos..].to_vec();
                    match open.iter_mut().find(|(t, _)| *t == txn) {
                        Some((_, entries)) => entries.push(payload),
                        None => open.push((txn, vec![payload])),
                    }
                }
                KIND_COMMIT => {
                    let entries = open
                        .iter()
                        .position(|(t, _)| *t == txn)
                        .map(|i| open.remove(i).1)
                        .unwrap_or_default();
                    committed.push(RecoveredTxn { txn, entries });
                }
                other => {
                    return Err(DbError::corrupt(format!("unknown WAL entry kind {other}")));
                }
            }
        }
        Ok(WalRecovery {
            txns: committed,
            max_txn,
            clean: !torn && open.is_empty(),
        })
    }

    /// Atomically rewrites the log at `path` so it contains exactly `txns`
    /// (in order), each sealed with its commit marker — a post-recovery
    /// compaction that drops orphaned uncommitted entries and torn tails.
    /// Without it, later appends extend a log whose dead entries would be
    /// regrouped under any commit marker that reuses their transaction id.
    ///
    /// The new log is written through `env` to a sibling temp file and
    /// renamed into place, so a crash mid-rewrite leaves the original log
    /// untouched.
    pub fn rewrite_in(
        env: &dyn DiskEnv,
        path: impl AsRef<Path>,
        txns: &[RecoveredTxn],
        fsync: bool,
    ) -> Result<()> {
        let path = path.as_ref();
        let mut buf = Vec::new();
        for txn in txns {
            for entry in &txn.entries {
                Self::encode_entry(&mut buf, KIND_DATA, txn.txn, entry);
            }
            Self::encode_entry(&mut buf, KIND_COMMIT, txn.txn, &[]);
        }
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| DbError::Invalid("WAL path has no file name".into()))?;
        let tmp = path.with_file_name(format!("{name}.rewrite"));
        let file = env
            .open(&tmp, OpenMode::Truncate)
            .ctx("creating rewritten WAL")?;
        file.write_all_at(&buf, 0).ctx("writing rewritten WAL")?;
        if fsync {
            file.sync_data().ctx("fsyncing rewritten WAL")?;
        }
        drop(file);
        env.rename(&tmp, path).ctx("installing rewritten WAL")?;
        if fsync {
            // The rename is only durable once the directory entry is: sync
            // the parent directory, or a crash could roll wal.log back to
            // the pre-rewrite inode and drop later fsynced commits with it.
            sync_parent_dir_in(env, path)?;
        }
        Ok(())
    }

    /// Truncates the log (after a checkpoint has made its effects durable
    /// elsewhere). Waits out any in-flight group flush, then discards the
    /// buffer and marks every existing seal durable-by-coverage — the
    /// checkpoint that triggered the truncation already persisted those
    /// transactions' effects, so blocked [`Wal::sync`] callers are woken
    /// with success. When the log is in fsync mode the truncation itself is
    /// synced, so a crash cannot resurrect pre-checkpoint entries that the
    /// checkpoint watermark already covers.
    pub fn truncate(&self) -> Result<()> {
        let mut buf = self.buf.lock();
        while buf.syncing {
            self.cv.wait(&mut buf);
        }
        let cleared = buf.pending.len() as u64;
        buf.pending.clear();
        buf.sealed_len = 0;
        buf.drained += cleared; // keep the total-appended offset monotone
        buf.durable_ticket = buf.sealed_ticket;
        self.cv.notify_all();
        let mut wf = self.file.lock();
        wf.file.set_len(0).ctx("truncating WAL")?;
        wf.offset = 0; // subsequent group flushes start at the head
        if self.fsync {
            wf.file.sync_all().ctx("fsyncing truncated WAL")?;
        }
        Ok(())
    }

    /// Filesystem path of the log (used in diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decibel_common::env::{FaultEnv, StdEnv};
    use std::fs::OpenOptions;
    use std::io::Write;

    fn wal_path() -> (tempfile::TempDir, PathBuf) {
        let dir = tempfile::tempdir().unwrap();
        let p = dir.path().join("wal");
        (dir, p)
    }

    #[test]
    fn committed_txns_recover_in_order() {
        let (_d, p) = wal_path();
        {
            let wal = Wal::open_in(&StdEnv, &p, false).unwrap();
            wal.append(1, b"a").unwrap();
            wal.append(1, b"b").unwrap();
            wal.commit(1).unwrap();
            wal.append(2, b"c").unwrap();
            wal.commit(2).unwrap();
        }
        let txns = Wal::recover_in(&StdEnv, &p).unwrap().txns;
        assert_eq!(txns.len(), 2);
        assert_eq!(txns[0].txn, 1);
        assert_eq!(txns[0].entries, vec![b"a".to_vec(), b"b".to_vec()]);
        assert_eq!(txns[1].entries, vec![b"c".to_vec()]);
    }

    #[test]
    fn uncommitted_buffered_entries_are_invisible() {
        let (_d, p) = wal_path();
        {
            let wal = Wal::open_in(&StdEnv, &p, false).unwrap();
            wal.append(1, b"a").unwrap();
            wal.commit(1).unwrap();
            wal.append(2, b"lost").unwrap();
            // no commit(2); buffered bytes never hit disk
        }
        let txns = Wal::recover_in(&StdEnv, &p).unwrap().txns;
        assert_eq!(txns.len(), 1);
        assert_eq!(txns[0].txn, 1);
    }

    #[test]
    fn rollback_discards_pending() {
        let (_d, p) = wal_path();
        let wal = Wal::open_in(&StdEnv, &p, false).unwrap();
        wal.append(1, b"x").unwrap();
        wal.rollback();
        wal.append(2, b"y").unwrap();
        wal.commit(2).unwrap();
        let txns = Wal::recover_in(&StdEnv, &p).unwrap().txns;
        assert_eq!(txns.len(), 1);
        assert_eq!(txns[0].txn, 2);
    }

    #[test]
    fn torn_tail_is_ignored() {
        let (_d, p) = wal_path();
        {
            let wal = Wal::open_in(&StdEnv, &p, false).unwrap();
            wal.append(1, b"good").unwrap();
            wal.commit(1).unwrap();
        }
        // Simulate a crash mid-write of the next entry.
        {
            let mut f = OpenOptions::new().append(true).open(&p).unwrap();
            f.write_all(&[200, 1, 2]).unwrap(); // length varint + garbage, truncated
        }
        let rec = Wal::recover_in(&StdEnv, &p).unwrap();
        assert_eq!(rec.txns.len(), 1);
        assert!(!rec.clean);
    }

    #[test]
    fn corrupt_crc_is_detected() {
        let (_d, p) = wal_path();
        {
            let wal = Wal::open_in(&StdEnv, &p, false).unwrap();
            wal.append(1, b"data").unwrap();
            wal.commit(1).unwrap();
            wal.append(2, b"tail").unwrap();
            wal.commit(2).unwrap();
        }
        // Flip a byte inside the first entry's body (offset 0 is the length
        // varint, 1..5 the CRC, 5.. the body) so the CRC check must fire.
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[6] ^= 0xFF;
        std::fs::write(&p, &bytes).unwrap();
        assert!(Wal::recover_in(&StdEnv, &p).is_err());
    }

    #[test]
    fn recover_missing_file_is_empty() {
        let (_d, p) = wal_path();
        assert!(Wal::recover_in(&StdEnv, &p).unwrap().txns.is_empty());
    }

    #[test]
    fn truncate_resets_log() {
        let (_d, p) = wal_path();
        let wal = Wal::open_in(&StdEnv, &p, false).unwrap();
        wal.append(1, b"a").unwrap();
        wal.commit(1).unwrap();
        wal.truncate().unwrap();
        assert!(Wal::recover_in(&StdEnv, &p).unwrap().txns.is_empty());
        wal.append(2, b"b").unwrap();
        wal.commit(2).unwrap();
        let txns = Wal::recover_in(&StdEnv, &p).unwrap().txns;
        assert_eq!(txns.len(), 1);
        assert_eq!(txns[0].txn, 2);
    }

    #[test]
    fn max_txn_covers_orphaned_uncommitted_entries() {
        let (_d, p) = wal_path();
        {
            let wal = Wal::open_in(&StdEnv, &p, false).unwrap();
            wal.append(1, b"a").unwrap();
            wal.commit(1).unwrap();
            // Orphan: txn 7's data entry reaches disk because the next
            // commit flushes the shared buffer, but no marker for 7 exists
            // (the shape a torn commit leaves behind).
            wal.append(7, b"orphan").unwrap();
            wal.commit(1).unwrap();
        }
        let rec = Wal::recover_in(&StdEnv, &p).unwrap();
        assert!(rec.txns.iter().all(|t| t.txn == 1));
        assert_eq!(rec.max_txn, 7);
        assert!(!rec.clean);
    }

    #[test]
    fn rewrite_compacts_away_orphaned_entries() {
        let (_d, p) = wal_path();
        {
            let wal = Wal::open_in(&StdEnv, &p, false).unwrap();
            wal.append(1, b"a").unwrap();
            wal.commit(1).unwrap();
            wal.append(7, b"orphan").unwrap();
            wal.commit(1).unwrap(); // flushes the orphan, seals only txn 1
        }
        let rec = Wal::recover_in(&StdEnv, &p).unwrap();
        Wal::rewrite_in(&StdEnv, &p, &rec.txns, false).unwrap();
        let clean = Wal::recover_in(&StdEnv, &p).unwrap();
        assert_eq!(clean.txns, rec.txns);
        assert_eq!(clean.max_txn, 1);
        assert!(clean.clean);
        // A new transaction reusing the orphan's id is safe now: its commit
        // marker can only seal its own entries.
        {
            let wal = Wal::open_in(&StdEnv, &p, false).unwrap();
            wal.append(7, b"fresh").unwrap();
            wal.commit(7).unwrap();
        }
        let after = Wal::recover_in(&StdEnv, &p).unwrap();
        let t7 = after.txns.iter().find(|t| t.txn == 7).unwrap();
        assert_eq!(t7.entries, vec![b"fresh".to_vec()]);
    }

    #[test]
    fn rewrite_preserves_empty_commits() {
        let (_d, p) = wal_path();
        {
            let wal = Wal::open_in(&StdEnv, &p, false).unwrap();
            wal.commit(1).unwrap(); // snapshot-point commit, no entries
            wal.append(2, b"x").unwrap();
            wal.commit(2).unwrap();
        }
        let rec = Wal::recover_in(&StdEnv, &p).unwrap();
        Wal::rewrite_in(&StdEnv, &p, &rec.txns, false).unwrap();
        assert_eq!(Wal::recover_in(&StdEnv, &p).unwrap(), rec);
    }

    #[test]
    fn interleaved_txns_recover_their_own_entries() {
        let (_d, p) = wal_path();
        {
            let wal = Wal::open_in(&StdEnv, &p, false).unwrap();
            wal.append(1, b"a1").unwrap();
            wal.append(2, b"b1").unwrap();
            wal.append(1, b"a2").unwrap();
            wal.commit(1).unwrap();
            wal.commit(2).unwrap();
        }
        let txns = Wal::recover_in(&StdEnv, &p).unwrap().txns;
        assert_eq!(txns[0].txn, 1);
        assert_eq!(txns[0].entries, vec![b"a1".to_vec(), b"a2".to_vec()]);
        assert_eq!(txns[1].txn, 2);
        assert_eq!(txns[1].entries, vec![b"b1".to_vec()]);
    }

    #[test]
    fn one_flush_covers_a_whole_group() {
        let (_d, p) = wal_path();
        let wal = std::sync::Arc::new(Wal::open_in(&StdEnv, &p, false).unwrap());
        // Four transactions sealed before anyone syncs: whichever syncer
        // arrives first drains the entire sealed prefix, so exactly one
        // flush makes all four durable.
        let mut tickets = Vec::new();
        for t in 1..=4u64 {
            wal.append(t, format!("payload{t}").as_bytes()).unwrap();
            tickets.push(wal.seal(t).unwrap());
        }
        let handles: Vec<_> = tickets
            .into_iter()
            .map(|ticket| {
                let wal = std::sync::Arc::clone(&wal);
                std::thread::spawn(move || wal.sync(ticket).unwrap())
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(wal.flush_count(), 1, "one group flush for four txns");
        let txns = Wal::recover_in(&StdEnv, &p).unwrap().txns;
        assert_eq!(txns.iter().map(|t| t.txn).collect::<Vec<_>>(), [1, 2, 3, 4]);
    }

    #[test]
    fn sealed_but_unsynced_txns_are_lost_on_drop() {
        let (_d, p) = wal_path();
        {
            let wal = Wal::open_in(&StdEnv, &p, false).unwrap();
            wal.append(1, b"durable").unwrap();
            let t1 = wal.seal(1).unwrap();
            wal.sync(t1).unwrap();
            wal.append(2, b"buffered").unwrap();
            wal.seal(2).unwrap();
            // no sync(t2): the seal never left the buffer — a crash here
            // loses txn 2 entirely (atomicity preserved, durability not).
        }
        let txns = Wal::recover_in(&StdEnv, &p).unwrap().txns;
        assert_eq!(txns.iter().map(|t| t.txn).collect::<Vec<_>>(), [1]);
    }

    #[test]
    fn truncate_marks_pending_seals_durable_by_coverage() {
        let (_d, p) = wal_path();
        let wal = Wal::open_in(&StdEnv, &p, false).unwrap();
        wal.append(1, b"covered").unwrap();
        let t = wal.seal(1).unwrap();
        // Checkpoint path: truncation covers the sealed-but-unflushed txn.
        wal.truncate().unwrap();
        wal.sync(t).unwrap(); // returns immediately, durable by coverage
        assert!(Wal::recover_in(&StdEnv, &p).unwrap().txns.is_empty());
    }

    #[test]
    fn truncate_to_discards_unsealed_tail_only() {
        let (_d, p) = wal_path();
        let wal = Wal::open_in(&StdEnv, &p, false).unwrap();
        wal.append(1, b"keep").unwrap();
        let t1 = wal.seal(1).unwrap();
        let mark = wal.mark();
        wal.append(2, b"discard").unwrap();
        wal.truncate_to(mark);
        wal.sync(t1).unwrap();
        let rec = Wal::recover_in(&StdEnv, &p).unwrap();
        assert_eq!(rec.txns.len(), 1);
        assert_eq!(rec.txns[0].entries, vec![b"keep".to_vec()]);
        assert_eq!(rec.max_txn, 1, "discarded entry never reached disk");
        assert!(rec.clean);
    }

    #[test]
    fn failed_leader_flush_wakes_followers_with_its_error() {
        let (_d, p) = wal_path();
        let env = FaultEnv::new();
        // The WAL's first fsync is the first fsync this env sees.
        env.fail_nth_fsync(0);
        let wal = std::sync::Arc::new(Wal::open_in(&env, &p, true).unwrap());
        wal.append(1, b"a").unwrap();
        let t1 = wal.seal(1).unwrap();
        wal.append(2, b"b").unwrap();
        let t2 = wal.seal(2).unwrap();
        // Both syncers race; one becomes the leader and hits the injected
        // fsync failure. The other must be woken with the same poison error
        // — not left blocked on the condvar, not handed a generic message.
        let results: Vec<DbError> = std::thread::scope(|s| {
            let a = s.spawn(|| wal.sync(t1).unwrap_err());
            let b = s.spawn(|| wal.sync(t2).unwrap_err());
            vec![a.join().unwrap(), b.join().unwrap()]
        });
        for err in &results {
            assert!(
                err.to_string().contains("injected fsync failure"),
                "follower must see the leader's real error, got: {err}"
            );
        }
        // The log stays poisoned with the original cause until reopen.
        let err = wal.append(3, b"c").unwrap_err();
        assert!(err.to_string().contains("injected fsync failure"));
        assert!(wal.seal(3).is_err());
    }

    #[test]
    fn rollback_preserves_sealed_prefix() {
        let (_d, p) = wal_path();
        let wal = Wal::open_in(&StdEnv, &p, false).unwrap();
        wal.append(1, b"sealed").unwrap();
        let t1 = wal.seal(1).unwrap();
        wal.append(2, b"abandoned").unwrap();
        wal.rollback(); // only txn 2's unsealed bytes go
        wal.sync(t1).unwrap();
        let rec = Wal::recover_in(&StdEnv, &p).unwrap();
        assert_eq!(rec.txns.len(), 1);
        assert_eq!(rec.txns[0].txn, 1);
        assert!(rec.clean);
    }
}
