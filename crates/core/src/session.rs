//! Sessions: per-user checkout state and transactional writes.
//!
//! A session buffers its modifications and applies them to the store when
//! the transaction commits — "Updates made as a part of a commit are issued
//! as a part of a single transaction, such that they become atomically
//! visible at the time the commit is made, and are rolled back if the
//! client crashes or disconnects before committing" (§2.2.3). Buffered
//! writes are visible to the session itself (read-your-writes) through an
//! overlay, journaled to the WAL at commit, and guarded by branch-level
//! two-phase locks: the session takes a shared lock on every *branch* it
//! reads (momentary for auto-committed reads, held to transaction end
//! inside a transaction) and an exclusive lock on the branch it writes,
//! all released when the transaction ends. Reads of committed versions
//! (`VersionRef::Commit`) take no branch lock: commits are immutable
//! (§2.2.2), so there is nothing a concurrent writer could change under
//! the reader.
//!
//! Sessions own an `Arc` to their [`Database`] and are `Send + 'static`:
//! the server shape the paper describes — many users, one session each —
//! maps onto one session per thread, all sharing one database handle.
//! Read-only operations from different sessions run concurrently (the
//! store sits behind a reader-writer lock); writers serialize per branch
//! via 2PL, and commits to *disjoint* branches run their apply/prepare
//! work concurrently through the sharded commit path, meeting only in
//! the short global sequencing section and the shared group fsync (see
//! the [`db`](crate::db) module docs).

use std::sync::Arc;

use decibel_common::error::{DbError, Result};
use decibel_common::hash::FxHashMap;
use decibel_common::ids::{BranchId, CommitId};
use decibel_common::record::Record;
use decibel_pagestore::{LockMode, TxnLocks};

use crate::cursor::ScanCursor;
use crate::db::Database;
use crate::journal;
use crate::shard::SessionOp;
use crate::store::VersionedStore;
use crate::types::VersionRef;

/// A user session: a checkout position plus an optional open transaction.
///
/// ```
/// use decibel_core::{Database, EngineKind};
/// use decibel_common::record::Record;
/// use decibel_common::schema::{ColumnType, Schema};
/// use decibel_pagestore::StoreConfig;
///
/// let dir = tempfile::tempdir().unwrap();
/// let db = Database::create(
///     dir.path(),
///     EngineKind::Hybrid,
///     Schema::new(2, ColumnType::U32),
///     &StoreConfig::default(),
/// )
/// .unwrap();
///
/// // Sessions are Send + 'static: move one into each worker thread.
/// let handle = {
///     let mut session = db.session();
///     std::thread::spawn(move || {
///         session.insert(Record::new(1, vec![10, 20])).unwrap();
///         session.commit().unwrap();
///     })
/// };
/// handle.join().unwrap();
/// assert_eq!(db.session().get(1).unwrap().unwrap().field(0), 10);
/// ```
pub struct Session {
    db: Arc<Database>,
    /// What the session reads (and, for branches, writes).
    at: VersionRef,
    /// Open transaction state.
    txn: Option<Txn>,
}

struct Txn {
    locks: TxnLocks,
    ops: Vec<SessionOp>,
    /// Read-your-writes overlay: key → pending live copy (`None` =
    /// pending delete).
    overlay: FxHashMap<u64, Option<Record>>,
}

impl Session {
    pub(crate) fn new(db: Arc<Database>) -> Self {
        Session {
            db,
            at: VersionRef::Branch(BranchId::MASTER),
            txn: None,
        }
    }

    /// The database this session is connected to.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The session's current checkout position.
    pub fn current(&self) -> VersionRef {
        self.at
    }

    /// Checks out a branch by name ("which simply modifies the user's
    /// current session state to point to that version", §2.2.3).
    pub fn checkout_branch(&mut self, name: &str) -> Result<BranchId> {
        self.require_no_txn("checkout")?;
        let id = self.db.branch_id(name)?;
        self.at = VersionRef::Branch(id);
        Ok(id)
    }

    /// Checks out a historical commit (read-only position).
    pub fn checkout_commit(&mut self, commit: CommitId) -> Result<()> {
        self.require_no_txn("checkout")?;
        self.db
            .with_store(|s| s.graph().commit(commit).map(|_| ()))?;
        self.at = VersionRef::Commit(commit);
        Ok(())
    }

    /// Creates a branch rooted at the session's current position and checks
    /// it out (journaled through the database).
    pub fn branch(&mut self, name: &str) -> Result<BranchId> {
        self.require_no_txn("branch")?;
        let id = self.db.create_branch(name, self.at)?;
        self.at = VersionRef::Branch(id);
        Ok(id)
    }

    fn require_no_txn(&self, what: &str) -> Result<()> {
        if self.txn.is_some() {
            return Err(DbError::TxnOpen { what: what.into() });
        }
        Ok(())
    }

    fn write_branch(&self) -> Result<BranchId> {
        match self.at {
            VersionRef::Branch(b) => Ok(b),
            VersionRef::Commit(c) => Err(DbError::ReadOnlyCheckout { commit: c.raw() }),
        }
    }

    /// Opens a transaction explicitly (writes auto-begin one).
    pub fn begin(&mut self) -> Result<()> {
        if self.txn.is_some() {
            return Ok(());
        }
        let branch = self.write_branch()?;
        self.db.journal_writable()?;
        let mut locks = self.db.locks.begin();
        locks.lock(branch, LockMode::Exclusive)?;
        // The WAL transaction id is not allocated here: ids are handed out
        // inside the journal's critical section at commit time, so they
        // seal in increasing order (the checkpoint watermark depends on
        // this — see `Database::journaled`).
        self.txn = Some(Txn {
            locks,
            ops: Vec::new(),
            overlay: FxHashMap::default(),
        });
        Ok(())
    }

    /// Whether an explicit or auto-begun transaction is open. While this
    /// is `true` the session holds the branch's exclusive 2PL lock, so
    /// further writes and reads on this session cannot block on lock
    /// acquisition — callers (like the server's event loop) can use that
    /// to run them inline instead of parking them on a worker thread.
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    fn txn_mut(&mut self) -> Result<&mut Txn> {
        if self.txn.is_none() {
            self.begin()?;
        }
        Ok(self.txn.as_mut().unwrap())
    }

    /// Runs a read against the store under the 2PL contract: branch reads
    /// take a shared lock on the branch — held to transaction end inside a
    /// transaction, momentary otherwise — while committed versions are
    /// immutable and read lock-free.
    fn locked_read<T>(&mut self, f: impl FnOnce(&dyn VersionedStore) -> Result<T>) -> Result<T> {
        match self.at {
            VersionRef::Branch(branch) => {
                if let Some(txn) = &mut self.txn {
                    // Growing phase: the lock joins the transaction's scope
                    // (a no-op when the exclusive write lock is held).
                    txn.locks.lock(branch, LockMode::Shared)?;
                    self.db.with_store(f)
                } else {
                    let mut locks = self.db.locks.begin();
                    locks.lock(branch, LockMode::Shared)?;
                    self.db.with_store(f)
                }
            }
            VersionRef::Commit(_) => self.db.with_store(f),
        }
    }

    /// Current value of `key` as this session sees it (overlay first).
    pub fn get(&mut self, key: u64) -> Result<Option<Record>> {
        if let Some(txn) = &self.txn {
            if let Some(pending) = txn.overlay.get(&key) {
                return Ok(pending.clone());
            }
        }
        let at = self.at;
        self.locked_read(|s| s.get(at, key))
    }

    /// Auto-begins a transaction around a buffered write. The transaction
    /// — and with it the exclusive branch lock — opens *before* `f`
    /// validates, so an existence check cannot go stale between validation
    /// and commit (2PL: the validating read is part of the transaction).
    /// If this call opened the transaction and `f` then buffered nothing
    /// (failed validation or a no-op), the empty transaction is rolled
    /// back: a rejected write must not leave the session silently holding
    /// the exclusive branch lock.
    fn buffered_write<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        let was_open = self.txn.is_some();
        self.begin()?;
        let result = f(self);
        if !was_open && self.txn.as_ref().is_some_and(|t| t.ops.is_empty()) {
            self.rollback();
        }
        result
    }

    /// Buffers an insert, validated against the session's view inside the
    /// transaction: the branch's exclusive lock is taken first, so the
    /// check cannot go stale before the commit.
    pub fn insert(&mut self, record: Record) -> Result<()> {
        self.buffered_write(|session| {
            let key = record.key();
            if session.get(key)?.is_some() {
                return Err(DbError::DuplicateKey { key });
            }
            let txn = session.txn_mut()?;
            txn.overlay.insert(key, Some(record.clone()));
            txn.ops.push(SessionOp::Insert(record));
            Ok(())
        })
    }

    /// Buffers an update (the key must be visible to the session; like
    /// [`Session::insert`], validation happens inside the transaction).
    pub fn update(&mut self, record: Record) -> Result<()> {
        self.buffered_write(|session| {
            let key = record.key();
            if session.get(key)?.is_none() {
                return Err(DbError::KeyNotFound { key });
            }
            let txn = session.txn_mut()?;
            txn.overlay.insert(key, Some(record.clone()));
            txn.ops.push(SessionOp::Update(record));
            Ok(())
        })
    }

    /// Buffers a delete (like [`Session::insert`], validation happens
    /// inside the transaction; deleting an absent key is a no-op that does
    /// not hold the transaction open).
    pub fn delete(&mut self, key: u64) -> Result<bool> {
        self.buffered_write(|session| {
            let existed = session.get(key)?.is_some();
            if existed {
                let txn = session.txn_mut()?;
                txn.overlay.insert(key, None);
                txn.ops.push(SessionOp::Delete(key));
            }
            Ok(existed)
        })
    }

    /// Visits the session's view of every live record (base version merged
    /// with the transaction overlay).
    pub fn scan_with(&mut self, mut f: impl FnMut(&Record)) -> Result<u64> {
        let at = self.at;
        let overlay: FxHashMap<u64, Option<Record>> = match &self.txn {
            Some(t) => t.overlay.clone(),
            None => FxHashMap::default(),
        };
        let mut n = 0u64;
        self.locked_read(|s| -> Result<()> {
            for item in s.scan(at)? {
                let rec = item?;
                if !overlay.contains_key(&rec.key()) {
                    f(&rec);
                    n += 1;
                }
                // Keys in the overlay were replaced or deleted there.
            }
            Ok(())
        })?;
        for pending in overlay.values().flatten() {
            f(pending);
            n += 1;
        }
        Ok(n)
    }

    /// Opens a resumable chunked scan of the session's view: the base
    /// version merged with a *snapshot* of the transaction overlay, the
    /// same semantics as [`Session::scan_with`] but emitted in bounded
    /// chunks with no lock held between them (see [`crate::cursor`]).
    ///
    /// The cursor takes no branch-level 2PL lock — deliberately, so it
    /// works while this session holds the branch exclusively inside an
    /// open transaction — and is independent of the session afterwards:
    /// writes buffered after this call do not appear in later chunks.
    pub fn chunked_scan(&self) -> ScanCursor {
        let overlay = match &self.txn {
            Some(t) => t.overlay.clone(),
            None => FxHashMap::default(),
        };
        ScanCursor::with_overlay(Arc::clone(&self.db), self.at, overlay)
    }

    /// Materializes the session's view (convenience for tests/examples).
    pub fn scan_collect(&mut self) -> Result<Vec<Record>> {
        let mut out = Vec::new();
        self.scan_with(|r| out.push(r.clone()))?;
        Ok(out)
    }

    /// Applies the buffered transaction to the store, journals it, and
    /// creates a commit — the point of atomic visibility (§2.2.3).
    ///
    /// Commits go through the database's sharded group-commit path: the
    /// journal entries are sealed inside the same critical section that
    /// stamps the commit into the version graph, so journal order always
    /// matches commit order (what
    /// [`Database::open`](crate::db::Database::open) replays is exactly
    /// what happened), while the apply/prepare work and the fsync run
    /// concurrently with commits on disjoint branches. Empty transactions
    /// are journaled too: they still create a commit, and replay must
    /// reproduce the commit-id sequence.
    pub fn commit(&mut self) -> Result<CommitId> {
        let branch = self.write_branch()?;
        let (ops, _locks) = match self.txn.take() {
            Some(t) => (t.ops, t.locks),
            None => {
                // Empty transaction: still a legal commit (snapshot point),
                // and still guarded by the branch's exclusive lock.
                let mut locks = self.db.locks.begin();
                locks.lock(branch, LockMode::Exclusive)?;
                (Vec::new(), locks)
            }
        };
        let schema = self.db.with_store(|s| s.schema().clone());
        let mut entries = Vec::with_capacity(ops.len() + 1);
        entries.push(journal::encode_begin(branch));
        for op in &ops {
            entries.push(match op {
                SessionOp::Insert(r) => journal::encode_insert(r, &schema)?,
                SessionOp::Update(r) => journal::encode_update(r, &schema)?,
                SessionOp::Delete(k) => journal::encode_delete(*k),
            });
        }
        self.db.commit_txn(branch, &entries, &ops)
        // _locks drop here: shrinking phase, after the commit is sealed
        // (the fsync wait inside commit_txn happens before we return, so
        // the exclusive branch lock outlives the durability point).
    }

    /// Discards the buffered transaction ("rolled back if the client
    /// crashes or disconnects before committing"). Nothing reaches the
    /// journal until commit, so rollback is purely local.
    pub fn rollback(&mut self) {
        if let Some(txn) = self.txn.take() {
            drop(txn.locks);
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // Disconnect without commit: roll back.
        self.rollback();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::EngineKind;
    use decibel_common::schema::{ColumnType, Schema};
    use decibel_pagestore::StoreConfig;

    fn db(kind: EngineKind) -> (tempfile::TempDir, Arc<Database>) {
        let dir = tempfile::tempdir().unwrap();
        let db = Database::create(
            dir.path().join("db"),
            kind,
            Schema::new(2, ColumnType::U32),
            &StoreConfig::test_default(),
        )
        .unwrap();
        (dir, db)
    }

    fn rec(k: u64, v: u64) -> Record {
        Record::new(k, vec![v, v])
    }

    #[test]
    fn writes_invisible_until_commit() {
        let (_d, database) = db(EngineKind::Hybrid);
        let mut writer = database.session();
        writer.insert(rec(1, 10)).unwrap();
        // The store itself has nothing yet.
        assert_eq!(
            database.with_store(|s| s.live_count(VersionRef::Branch(BranchId::MASTER)).unwrap()),
            0
        );
        // But the writing session reads its own write.
        assert_eq!(writer.get(1).unwrap().unwrap().field(0), 10);
        writer.commit().unwrap();
        assert_eq!(
            database.with_store(|s| s.live_count(VersionRef::Branch(BranchId::MASTER)).unwrap()),
            1
        );
    }

    #[test]
    fn rollback_discards_buffered_ops() {
        let (_d, database) = db(EngineKind::TupleFirstBranch);
        let mut s = database.session();
        s.insert(rec(1, 10)).unwrap();
        s.rollback();
        assert_eq!(s.get(1).unwrap(), None);
        s.commit().unwrap(); // empty commit is fine
        assert_eq!(
            database.with_store(|st| st.live_count(VersionRef::Branch(BranchId::MASTER)).unwrap()),
            0
        );
    }

    #[test]
    fn drop_rolls_back_and_releases_locks() {
        let (_d, database) = db(EngineKind::Hybrid);
        {
            let mut s = database.session();
            s.insert(rec(1, 1)).unwrap();
            // dropped without commit
        }
        let mut s2 = database.session();
        s2.insert(rec(1, 2)).unwrap(); // lock is free again, key never existed
        s2.commit().unwrap();
        assert_eq!(s2.get(1).unwrap().unwrap().field(0), 2);
    }

    #[test]
    fn session_scan_merges_overlay() {
        let (_d, database) = db(EngineKind::VersionFirst);
        let mut setup = database.session();
        setup.insert(rec(1, 1)).unwrap();
        setup.insert(rec(2, 2)).unwrap();
        setup.commit().unwrap();

        let mut s = database.session();
        s.update(rec(1, 99)).unwrap();
        s.delete(2).unwrap();
        s.insert(rec(3, 3)).unwrap();
        let mut view = s.scan_collect().unwrap();
        view.sort_by_key(|r| r.key());
        assert_eq!(view.len(), 2);
        assert_eq!(view[0].key(), 1);
        assert_eq!(view[0].field(0), 99);
        assert_eq!(view[1].key(), 3);
    }

    #[test]
    fn branch_and_checkout_flow() {
        let (_d, database) = db(EngineKind::Hybrid);
        let mut s = database.session();
        s.insert(rec(1, 1)).unwrap();
        let c1 = s.commit().unwrap();
        let dev = s.branch("dev").unwrap();
        assert_eq!(s.current(), VersionRef::Branch(dev));
        s.insert(rec(2, 2)).unwrap();
        s.commit().unwrap();
        // Master is untouched.
        s.checkout_branch("master").unwrap();
        assert_eq!(s.scan_collect().unwrap().len(), 1);
        // Historical checkout is read-only.
        s.checkout_commit(c1).unwrap();
        assert!(s.insert(rec(9, 9)).is_err());
    }

    #[test]
    fn conflicting_writers_block_or_timeout() {
        let (_d, database) = db(EngineKind::TupleFirstBranch);
        let mut a = database.session();
        a.insert(rec(1, 1)).unwrap(); // holds exclusive lock on master
        let mut b = database.session();
        let err = b.insert(rec(2, 2)).unwrap_err();
        assert!(matches!(err, DbError::LockContention { .. }));
        a.commit().unwrap();
        b.insert(rec(2, 2)).unwrap();
        b.commit().unwrap();
    }

    #[test]
    fn duplicate_validation_through_overlay() {
        let (_d, database) = db(EngineKind::Hybrid);
        let mut s = database.session();
        s.insert(rec(1, 1)).unwrap();
        assert!(matches!(
            s.insert(rec(1, 2)),
            Err(DbError::DuplicateKey { key: 1 })
        ));
        assert!(matches!(
            s.update(rec(5, 0)),
            Err(DbError::KeyNotFound { key: 5 })
        ));
        s.delete(1).unwrap();
        // Deleted in overlay → reinsert is legal.
        s.insert(rec(1, 3)).unwrap();
        s.commit().unwrap();
        assert_eq!(s.get(1).unwrap().unwrap().field(0), 3);
    }

    #[test]
    fn failed_or_noop_writes_do_not_hold_the_branch_lock() {
        let (_d, database) = db(EngineKind::Hybrid);
        let mut setup = database.session();
        setup.insert(rec(1, 1)).unwrap();
        setup.commit().unwrap();
        drop(setup);

        let mut a = database.session();
        // Each of these auto-begins a transaction, fails validation (or
        // no-ops), buffers nothing — and must release the exclusive lock.
        assert!(matches!(
            a.insert(rec(1, 2)),
            Err(DbError::DuplicateKey { key: 1 })
        ));
        assert!(matches!(
            a.update(rec(9, 0)),
            Err(DbError::KeyNotFound { key: 9 })
        ));
        assert!(!a.delete(9).unwrap());
        // Another session can write immediately: no lock is stuck behind
        // session `a`'s rejected writes.
        let mut b = database.session();
        b.insert(rec(2, 2)).unwrap();
        b.commit().unwrap();

        // Inside an open transaction, a rejected or no-op write keeps the
        // lock (2PL: the validating reads joined the transaction's scope).
        a.insert(rec(3, 3)).unwrap();
        assert!(!a.delete(9).unwrap());
        assert!(matches!(
            b.insert(rec(4, 4)).unwrap_err(),
            DbError::LockContention { .. }
        ));
        a.commit().unwrap();
        b.insert(rec(4, 4)).unwrap();
        b.commit().unwrap();
    }

    #[test]
    fn wal_records_committed_txns() {
        let (_d, database) = db(EngineKind::Hybrid);
        let mut s = database.session();
        s.insert(rec(1, 1)).unwrap();
        s.commit().unwrap();
        drop(s);
        let wal = database.dir().join("wal.log");
        let txns = decibel_pagestore::Wal::recover_in(&decibel_common::env::StdEnv, wal)
            .unwrap()
            .txns;
        assert_eq!(txns.len(), 1);
        assert_eq!(txns[0].entries.len(), 2);
        assert_eq!(txns[0].entries[0][0], 0u8); // branch header
        assert_eq!(txns[0].entries[1][0], 1u8); // insert opcode
    }

    #[test]
    fn in_txn_reads_keep_branch_locked() {
        let (_d, database) = db(EngineKind::Hybrid);
        let mut a = database.session();
        a.insert(rec(1, 1)).unwrap();
        let _ = a.get(1).unwrap(); // read inside the open transaction
                                   // A second session cannot even read the branch while the writer's
                                   // transaction is open (writer holds the exclusive branch lock).
        let mut b = database.session();
        assert!(matches!(
            b.scan_collect().unwrap_err(),
            DbError::LockContention { .. }
        ));
        a.commit().unwrap();
        assert_eq!(b.scan_collect().unwrap().len(), 1);
    }

    #[test]
    fn commit_checkout_reads_are_lock_free() {
        let (_d, database) = db(EngineKind::Hybrid);
        let mut setup = database.session();
        setup.insert(rec(1, 1)).unwrap();
        let c1 = setup.commit().unwrap();
        // A writer holds the exclusive branch lock...
        let mut writer = database.session();
        writer.insert(rec(2, 2)).unwrap();
        // ...but reading the immutable commit needs no branch lock.
        let mut reader = database.session();
        reader.checkout_commit(c1).unwrap();
        assert_eq!(reader.scan_collect().unwrap().len(), 1);
        writer.commit().unwrap();
    }
}
