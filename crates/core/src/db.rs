//! The `Database`: a shared, concurrency-first handle over a versioned
//! store.
//!
//! "Users interact with Decibel by opening a connection to the Decibel
//! server, which creates a session. A session captures the user's state,
//! i.e., the commit (or the branch) that the operations the user issues
//! will read or modify. Concurrent transactions by multiple users on the
//! same version (but different sessions) are isolated from each other
//! through two-phase locking" (§2.2.3).
//!
//! # Concurrency model: the sharded commit path
//!
//! Commits no longer serialize on one store-wide write lock. The lock
//! hierarchy, outermost first:
//!
//! 1. **Branch 2PL** ([`LockManager`]) — the paper's isolation mechanism,
//!    taken by sessions before anything below, so the levels cannot
//!    deadlock against each other.
//! 2. **Store lock** — commits and reads hold it *shared*; only
//!    engine-structural admin work (branch creation, merge, checkpoint,
//!    the `with_store_mut` escape hatch) holds it *exclusive*. Because
//!    every lower-level lock is only ever taken under the shared store
//!    lock, acquiring it exclusively quiesces the whole commit path.
//! 3. **Shard lock** ([`ShardSet`]) — each committing session holds the
//!    write lock of its branch's shard across apply + prepare + sequence,
//!    so commits to *disjoint* branches (different shards) run their
//!    engine work concurrently while same-branch commits serialize.
//!    Non-session reads of branch heads take shard *read* locks, keeping
//!    every builder terminal a read-committed snapshot.
//! 4. **Sequencing mutex** — a short global critical section in which the
//!    transaction id is allocated, journal entries are appended, the
//!    commit is stamped into the version graph, and the WAL transaction
//!    is sealed. Ids therefore seal in strictly increasing order — the
//!    invariant the checkpoint watermark rests on — while all per-branch
//!    heavy lifting stays outside it.
//! 5. **Engine-interior locks** — fine-grained structure locks inside each
//!    engine (see the engine module docs); leaves of the hierarchy.
//!
//! Group commit: sealed transactions accumulate in a shared WAL buffer,
//! and the *fsync happens outside every lock above*. The first committer
//! to reach [`Wal::sync`] becomes the group leader and flushes every
//! sealed transaction in one write + fsync; the others observe their
//! seal already durable and return without touching the disk. Under k
//! concurrent committers one fsync amortizes over up to k transactions
//! (`commit/grouped_txns` over `wal/flushes` in [`Database::metrics`]).
//!
//! Use a [`Session`] (whose reads take the shared branch lock) when a
//! sequence of reads must be stable against concurrent committers.
//!
//! [`Database::create`] and [`Database::open`] return `Arc<Database>`;
//! sessions own a clone of that `Arc` and are `Send + 'static`, which makes
//! the one-session-per-thread server shape expressible directly.
//!
//! # Durability
//!
//! Every state-changing operation on the public surface — session commits,
//! [`Database::create_branch`], [`Database::merge`] — is journaled to the
//! WAL as a logical redo record (see the `journal` module) and sealed in the
//! same sequencing critical section that stamps it into the version graph,
//! so the journal's commit order always matches the store's commit order.
//! [`Database::flush`] is a full checkpoint: it persists every engine
//! structure, records the covered journal watermark in the `CHECKPOINT`
//! file, and truncates the WAL — bounding both the log and the cost of
//! reopening. [`Database::open`] loads the checkpointed state and replays
//! only the journal suffix past the watermark (the full history when no
//! checkpoint exists), which recovers transactions that committed but
//! were never flushed. [`Database::with_store_mut`] is the one escape
//! hatch that bypasses the journal; state written through it survives a
//! reopen only if a later `flush` checkpointed it.
//!
//! If a commit marker itself fails to persist (e.g. the disk fills while
//! sealing), or a transaction fails partway through mutating the store,
//! the store state can no longer be represented in the journal; the
//! database then refuses further journaled writes — reads keep working —
//! until the directory is reopened, which restores the journaled prefix
//! of history.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use decibel_common::env::DiskEnv;
use decibel_common::error::{DbError, Result};
use decibel_common::fsio::sync_parent_dir_in;
use decibel_common::ids::{BranchId, CommitId};
use decibel_common::schema::{ColumnType, Schema};
use decibel_common::Projection;
use decibel_obs::{family, Counter, Gauge, Histogram, Registry};
use decibel_pagestore::{LockManager, LockMode, StoreConfig, Wal};
use parking_lot::{Mutex, RwLock};

use crate::checkpoint;
use crate::cursor::{MultiScanCursor, ScanCursor};
use crate::engine::{
    HybridEngine, TupleFirstBranchEngine, TupleFirstTupleEngine, VersionFirstEngine,
};
use crate::journal;
use crate::query::build::{BranchSel, MultiReadBuilder, ReadBuilder};
use crate::query::plan::ScanPlan;
use crate::query::{execute_metered, Predicate, Query, QueryOutput, ScanMetrics};
use crate::session::Session;
use crate::shard::{SessionOp, ShardSet};
use crate::store::VersionedStore;
use crate::types::{DiffResult, EngineKind, MergePolicy, MergeResult, VersionRef};

/// Manifest file recording the engine kind and schema of a database
/// directory, so [`Database::open`] needs no out-of-band knowledge.
const MANIFEST: &str = "MANIFEST";
/// WAL file name inside a database directory.
const WAL_FILE: &str = "wal.log";
/// Engine data subdirectory inside a database directory.
const DATA_DIR: &str = "data";

/// A Decibel database instance: one versioned relation stored under a
/// directory by the chosen engine, shared by any number of sessions.
///
/// Constructors return `Arc<Database>`; clone the `Arc` (or call
/// [`Database::session`], which clones it for you) to hand the database to
/// other threads.
pub struct Database {
    pub(crate) store: RwLock<Box<dyn VersionedStore>>,
    pub(crate) locks: Arc<LockManager>,
    pub(crate) wal: Wal,
    pub(crate) next_txn: AtomicU64,
    /// Per-branch commit shards: disjoint branches commit concurrently,
    /// same-branch (and same-shard) commits serialize. Level 3 of the lock
    /// hierarchy (see the module docs). `pub(crate)` for the chunked scan
    /// cursor ([`crate::cursor`]), which re-acquires store + shard read
    /// locks per chunk.
    pub(crate) shards: ShardSet,
    /// The global sequencing mutex (level 4): id allocation + journal
    /// append + graph stamp + WAL seal, and nothing slower.
    seq: Mutex<()>,
    /// The metrics registry the whole stack registers its instruments
    /// with — adopted from [`StoreConfig::metrics`], so the buffer pool,
    /// heap files, and WAL of this database's engine share it. Exposed
    /// through [`Database::metrics`].
    metrics: Registry,
    /// Commit- and checkpoint-family instruments (see [`CoreMetrics`]).
    obs: CoreMetrics,
    /// Scan-family instruments, shared with the chunked cursors.
    pub(crate) scan_metrics: ScanMetrics,
    /// `DECIBEL_SLOW_MS` threshold parsed once at create/open: operations
    /// slower than this log a one-line summary to stderr.
    slow: Option<Duration>,
    /// False once the store diverged from the journal — a commit marker
    /// failed to persist, or an apply failed after mutating the store —
    /// so further journaled writes are refused (see
    /// [`Database::journaled`]).
    journal_intact: AtomicBool,
    /// Whether checkpoint installation fsyncs (from [`StoreConfig::fsync`]).
    fsync: bool,
    /// Disk environment every database-level file (manifest, WAL,
    /// checkpoint) goes through (from [`StoreConfig::env`]); engines hold
    /// their own clone via their buffer pools.
    env: Arc<dyn DiskEnv>,
    /// Journal transactions replayed by the `open` that built this handle
    /// (zero for [`Database::create`]); see [`Database::replayed_on_open`].
    replayed: u64,
    dir: PathBuf,
}

impl Database {
    /// Creates a fresh database in `dir` using the given storage scheme.
    ///
    /// Writes a manifest so the directory can later be reopened with
    /// [`Database::open`]. Any stale journal in `dir` is discarded — a
    /// created database starts from empty history.
    pub fn create(
        dir: impl AsRef<Path>,
        kind: EngineKind,
        schema: Schema,
        config: &StoreConfig,
    ) -> Result<Arc<Database>> {
        let dir = dir.as_ref().to_path_buf();
        let env = Arc::clone(&config.env);
        env.create_dir_all(&dir)
            .map_err(|e| DbError::io("creating database dir", e))?;
        // Discard prior state *before* the manifest goes down: a crash
        // after writing the manifest must not leave it pointing at a stale
        // journal, checkpoint, or engine data from the previous database,
        // which a later `open` would replay — possibly under a different
        // schema. The checkpoint goes first: a stale `CHECKPOINT` paired
        // with a fresh (empty) WAL would reopen as the *old* database.
        let stale_checkpoint = dir.join(checkpoint::FILE);
        if env.exists(&stale_checkpoint) {
            env.remove_file(&stale_checkpoint)
                .map_err(|e| DbError::io("clearing stale checkpoint", e))?;
            if config.fsync {
                sync_parent_dir_in(env.as_ref(), &stale_checkpoint)?;
            }
        }
        let data = clear_engine_data(env.as_ref(), &dir)?;
        let wal_path = dir.join(WAL_FILE);
        if env.exists(&wal_path) {
            env.remove_file(&wal_path)
                .map_err(|e| DbError::io("clearing stale WAL", e))?;
            if config.fsync {
                sync_parent_dir_in(env.as_ref(), &wal_path)?;
            }
        }
        write_manifest(env.as_ref(), &dir, kind, &schema)?;
        let store = Self::build_store(kind, data, schema, config)?;
        let metrics = config.metrics.clone();
        let wal = Wal::open_in_metered(env.as_ref(), wal_path, config.fsync, &metrics)?;
        Ok(Arc::new(Database {
            store: RwLock::new(store),
            locks: Arc::new(LockManager::new(Duration::from_secs(2))),
            wal,
            next_txn: AtomicU64::new(1),
            shards: ShardSet::new(),
            seq: Mutex::new(()),
            obs: CoreMetrics::register(&metrics),
            scan_metrics: ScanMetrics::register(&metrics),
            metrics,
            slow: slow_threshold(),
            journal_intact: AtomicBool::new(true),
            fsync: config.fsync,
            env,
            replayed: 0,
            dir,
        }))
    }

    /// Reopens a database directory created by [`Database::create`],
    /// restoring every transaction that committed through the public API —
    /// including commits that were never [`flush`](Database::flush)ed.
    ///
    /// # Checkpointed recovery
    ///
    /// When the directory holds a `CHECKPOINT` (written by
    /// [`Database::flush`]), the engine is reopened directly from its
    /// flushed on-disk state — heap files opened at the checkpoint's
    /// recorded coverage (any later bytes trimmed), bitmap columns and
    /// commit offsets decoded from the checkpoint snapshot — and only
    /// journal entries **above the checkpoint's watermark** transaction id
    /// are replayed. Reopen cost is therefore O(state + delta since last
    /// flush), not O(total history), and the WAL on disk is bounded by
    /// the post-checkpoint suffix. With no checkpoint (a never-flushed
    /// database), the store is rebuilt by replaying the logical journal
    /// from the beginning of history; either way, engines allocate branch
    /// and commit ids deterministically, so the recovered store is
    /// identical to the one that crashed.
    ///
    /// The crash ordering of [`Database::flush`] (state → watermark → log
    /// truncate) makes every interleaving recoverable: a crash before the
    /// watermark lands reopens from the previous checkpoint (the newer
    /// flushed bytes are cut back to its coverage and regenerated from the
    /// log); a crash after the watermark but before the truncate skips the
    /// covered prefix by id; a crash after the truncate finds only the
    /// suffix. A `CHECKPOINT` that is present but unreadable is a hard
    /// error — the log was truncated against it, so falling back to full
    /// replay would silently lose the covered history.
    ///
    /// Writes that bypassed the journal via [`Database::with_store_mut`]
    /// are recovered only if a later `flush` checkpointed them. On success
    /// an unclean or partially-covered journal is compacted down to
    /// exactly the uncovered committed suffix, so orphaned entries from a
    /// torn commit cannot be resurrected by a later transaction.
    ///
    /// ```
    /// use decibel_core::{Database, EngineKind};
    /// use decibel_common::record::Record;
    /// use decibel_common::schema::{ColumnType, Schema};
    /// use decibel_pagestore::StoreConfig;
    ///
    /// let dir = tempfile::tempdir().unwrap();
    /// let config = StoreConfig::default();
    /// let schema = Schema::new(2, ColumnType::U32);
    /// {
    ///     let db = Database::create(dir.path(), EngineKind::Hybrid, schema, &config).unwrap();
    ///     let mut session = db.session();
    ///     session.insert(Record::new(1, vec![10, 20])).unwrap();
    ///     session.commit().unwrap();
    ///     // dropped without flush: the commit lives only in the journal
    /// }
    /// let db = Database::open(dir.path(), &config).unwrap();
    /// let rows = db.read(decibel_core::VersionRef::Branch(
    ///     decibel_common::ids::BranchId::MASTER,
    /// ))
    /// .collect()
    /// .unwrap();
    /// assert_eq!(rows.len(), 1);
    /// assert_eq!(rows[0].field(1), 20);
    /// ```
    pub fn open(dir: impl AsRef<Path>, config: &StoreConfig) -> Result<Arc<Database>> {
        let dir = dir.as_ref().to_path_buf();
        let env = Arc::clone(&config.env);
        let (kind, schema) = read_manifest(env.as_ref(), &dir)?;
        // Recover the journal first — it is read-only, so an unreadable or
        // corrupt WAL fails the open before anything is destroyed.
        let wal_path = dir.join(WAL_FILE);
        let recovery = Wal::recover_in(env.as_ref(), &wal_path)?;
        let cp = checkpoint::load(env.as_ref(), &dir)?;
        let (mut store, watermark, replay_from) = match cp {
            Some(cp) => {
                if cp.kind != kind {
                    return Err(DbError::corrupt(format!(
                        "checkpoint engine {} disagrees with manifest engine {}",
                        cp.kind.name(),
                        kind.name()
                    )));
                }
                // Reopen from the flushed state the checkpoint describes;
                // replay resumes past the watermark. Ids seal in increasing
                // order (see `journaled`), so the uncovered transactions
                // are a suffix of the commit-ordered recovery.
                let store =
                    Self::open_store(kind, dir.join(DATA_DIR), schema, config, &cp.payload)?;
                let from = recovery
                    .txns
                    .iter()
                    .position(|t| t.txn > cp.watermark)
                    .unwrap_or(recovery.txns.len());
                debug_assert!(
                    recovery.txns[from..].iter().all(|t| t.txn > cp.watermark),
                    "sealed transaction ids must be monotone"
                );
                (store, cp.watermark, from)
            }
            None => {
                // No checkpoint: the data directory is derived state (the
                // journal is the whole truth); rebuild it from scratch.
                let data = clear_engine_data(env.as_ref(), &dir)?;
                (Self::build_store(kind, data, schema, config)?, 0, 0)
            }
        };
        let suffix = &recovery.txns[replay_from..];
        let replay_started = Instant::now();
        let replayed = journal::replay(store.as_mut(), suffix)?;
        store.flush()?;
        // Compact the log down to exactly the uncovered committed suffix.
        // A torn commit leaves orphaned data entries recovery ignores, but
        // a later commit marker reusing their transaction id would seal
        // them as phantom ops; and entries at or below the watermark are
        // already in the checkpointed state, so neither may survive the
        // reopen. A clean, fully-uncovered log — the common case — is
        // appended to as-is.
        if !recovery.clean || replay_from > 0 {
            Wal::rewrite_in(env.as_ref(), &wal_path, suffix, config.fsync)?;
        }
        // Belt and braces: allocate past every id the log ever saw
        // (committed or orphaned) and past the checkpoint watermark.
        let next_txn = recovery.max_txn.max(watermark) + 1;
        let metrics = config.metrics.clone();
        let wal = Wal::open_in_metered(env.as_ref(), &wal_path, config.fsync, &metrics)?;
        let obs = CoreMetrics::register(&metrics);
        obs.recovery_us.record_duration(replay_started.elapsed());
        obs.replayed_txns.add(replayed);
        Ok(Arc::new(Database {
            store: RwLock::new(store),
            locks: Arc::new(LockManager::new(Duration::from_secs(2))),
            wal,
            next_txn: AtomicU64::new(next_txn),
            shards: ShardSet::new(),
            seq: Mutex::new(()),
            obs,
            scan_metrics: ScanMetrics::register(&metrics),
            metrics,
            slow: slow_threshold(),
            journal_intact: AtomicBool::new(true),
            fsync: config.fsync,
            env,
            replayed,
            dir,
        }))
    }

    /// Initializes a bare engine of the given kind under `dir` — the single
    /// factory behind [`Database::create`], also used by the benchmark
    /// harness, which measures storage engines below the connection layer.
    pub fn build_store(
        kind: EngineKind,
        dir: impl AsRef<Path>,
        schema: Schema,
        config: &StoreConfig,
    ) -> Result<Box<dyn VersionedStore>> {
        let dir = dir.as_ref();
        Ok(match kind {
            EngineKind::TupleFirstBranch => {
                Box::new(TupleFirstBranchEngine::init(dir, schema, config)?)
            }
            EngineKind::TupleFirstTuple => {
                Box::new(TupleFirstTupleEngine::init(dir, schema, config)?)
            }
            EngineKind::VersionFirst => Box::new(VersionFirstEngine::init(dir, schema, config)?),
            EngineKind::Hybrid => Box::new(HybridEngine::init(dir, schema, config)?),
        })
    }

    /// Reopens an engine of the given kind from checkpoint-flushed state
    /// under `dir` — the open-path counterpart of [`Database::build_store`].
    /// `snapshot` is the engine payload a [`VersionedStore::checkpoint`]
    /// call produced (carried by the `CHECKPOINT` file).
    fn open_store(
        kind: EngineKind,
        dir: impl AsRef<Path>,
        schema: Schema,
        config: &StoreConfig,
        snapshot: &[u8],
    ) -> Result<Box<dyn VersionedStore>> {
        let dir = dir.as_ref();
        Ok(match kind {
            EngineKind::TupleFirstBranch => Box::new(TupleFirstBranchEngine::open_from(
                dir, schema, config, snapshot,
            )?),
            EngineKind::TupleFirstTuple => Box::new(TupleFirstTupleEngine::open_from(
                dir, schema, config, snapshot,
            )?),
            EngineKind::VersionFirst => Box::new(VersionFirstEngine::open_from(
                dir, schema, config, snapshot,
            )?),
            EngineKind::Hybrid => Box::new(HybridEngine::open_from(dir, schema, config, snapshot)?),
        })
    }

    /// Opens a session, initially checked out at the head of `master`.
    ///
    /// The session owns an `Arc` to this database, so it can be moved to
    /// another thread; open one session per connection/thread.
    pub fn session(self: &Arc<Self>) -> Session {
        Session::new(Arc::clone(self))
    }

    /// Starts a fluent single-version read:
    /// `db.read(v).filter(p).collect()`.
    pub fn read(&self, version: impl Into<VersionRef>) -> ReadBuilder<'_> {
        ReadBuilder::new(self, version.into())
    }

    /// Starts a fluent multi-branch read over an explicit branch list:
    /// `db.read_branches(&ids).filter(p).annotated()`.
    pub fn read_branches(&self, branches: &[BranchId]) -> MultiReadBuilder<'_> {
        MultiReadBuilder::new(self, BranchSel::Explicit(branches.to_vec()))
    }

    /// Starts a fluent multi-branch read over every branch head (the
    /// paper's Q4 shape); `active_only` restricts to non-retired branches.
    pub fn read_heads(&self, active_only: bool) -> MultiReadBuilder<'_> {
        MultiReadBuilder::new(self, BranchSel::Heads { active_only })
    }

    /// Opens a resumable chunked scan of `version`: each
    /// [`ScanCursor::next_chunk`](crate::cursor::ScanCursor::next_chunk)
    /// re-acquires the store + shard read locks, emits up to the requested
    /// rows, and releases them — O(chunk) memory and zero lock time
    /// between chunks, at read-committed-per-chunk consistency (see
    /// [`crate::cursor`]). Scans run through the engine's projected
    /// pipeline: rows resume O(1) from engine tokens, the predicate is
    /// pushed to page level where it lowers, and only the projected
    /// columns are decoded.
    pub fn chunked_scan(
        self: &Arc<Self>,
        version: impl Into<VersionRef>,
        predicate: Predicate,
    ) -> ScanCursor {
        self.chunked_scan_projected(version, predicate, Projection::All)
    }

    /// [`Database::chunked_scan`] with an explicit column projection
    /// (non-projected fields of the streamed records read `0`).
    pub fn chunked_scan_projected(
        self: &Arc<Self>,
        version: impl Into<VersionRef>,
        predicate: Predicate,
        projection: Projection,
    ) -> ScanCursor {
        ScanCursor::new(
            Arc::clone(self),
            version.into(),
            ScanPlan::new(predicate, projection),
        )
    }

    /// Opens a resumable chunked multi-branch annotated scan — the
    /// streaming counterpart of
    /// [`Database::read_branches`]`.filter(p).annotated()`.
    pub fn chunked_multi_scan(
        self: &Arc<Self>,
        branches: Vec<BranchId>,
        predicate: Predicate,
    ) -> MultiScanCursor {
        self.chunked_multi_scan_projected(branches, predicate, Projection::All)
    }

    /// [`Database::chunked_multi_scan`] with an explicit column projection.
    pub fn chunked_multi_scan_projected(
        self: &Arc<Self>,
        branches: Vec<BranchId>,
        predicate: Predicate,
        projection: Projection,
    ) -> MultiScanCursor {
        MultiScanCursor::new(
            Arc::clone(self),
            branches,
            ScanPlan::new(predicate, projection),
        )
    }

    /// Runs a declarative query plan under the shared store lock, plus
    /// shard *read* locks for every branch head the plan touches — so the
    /// result is a read-committed snapshot even while commits to other
    /// branches proceed concurrently. Historical commits are immutable and
    /// need no shard lock.
    ///
    /// The fluent builders ([`Database::read`] / [`Database::read_branches`]
    /// / [`Database::read_heads`]) produce these plans; use `query` directly
    /// when you already hold a [`Query`] value.
    pub fn query(&self, query: &Query) -> Result<QueryOutput> {
        let started = Instant::now();
        let store = self.store.read();
        let branches = Self::query_branches(store.as_ref(), query);
        let _shards = self.shards.read_many(&branches);
        let out = execute_metered(store.as_ref(), query, &self.scan_metrics)?;
        self.note_slow("query", started.elapsed(), || format!("rows={}", out.len()));
        Ok(out)
    }

    /// The branch heads a query plan reads — the shards [`Database::query`]
    /// locks shared. Commit refs are immutable and contribute nothing.
    fn query_branches(store: &dyn VersionedStore, query: &Query) -> Vec<BranchId> {
        fn push(out: &mut Vec<BranchId>, v: VersionRef) {
            if let VersionRef::Branch(b) = v {
                out.push(b);
            }
        }
        let mut out = Vec::new();
        match query {
            Query::ScanVersion { version, .. } | Query::Aggregate { version, .. } => {
                push(&mut out, *version)
            }
            Query::PositiveDiff { left, right } | Query::VersionJoin { left, right, .. } => {
                push(&mut out, *left);
                push(&mut out, *right);
            }
            Query::HeadScan { .. } => {
                let n = store.graph().num_branches();
                out.extend((0..n).map(|b| BranchId(b as u32)));
            }
            Query::MultiBranchScan { branches, .. } => out.extend_from_slice(branches),
        }
        out
    }

    /// Materializes the symmetric difference of two versions (§2.2.3
    /// Difference) under the shared store lock and the shard read locks of
    /// any branch-head side.
    pub fn diff(
        &self,
        left: impl Into<VersionRef>,
        right: impl Into<VersionRef>,
    ) -> Result<DiffResult> {
        let (left, right) = (left.into(), right.into());
        let store = self.store.read();
        let mut branches = Vec::new();
        for v in [left, right] {
            if let VersionRef::Branch(b) = v {
                branches.push(b);
            }
        }
        let _shards = self.shards.read_many(&branches);
        store.diff(left, right)
    }

    /// Looks up a branch id by name.
    pub fn branch_id(&self, name: &str) -> Result<BranchId> {
        self.with_store(|s| s.graph().branch_by_name(name).map(|b| b.id))
    }

    /// The relation's schema (immutable for the life of the database, so
    /// callers — the wire server hands it to every connection — may clone
    /// it once and keep it).
    pub fn schema(&self) -> Schema {
        self.with_store(|s| s.schema().clone())
    }

    /// The storage scheme backing this database.
    pub fn engine_kind(&self) -> EngineKind {
        self.with_store(|s| s.kind())
    }

    /// Creates a branch named `name` rooted at `from` (journaled).
    pub fn create_branch(&self, name: &str, from: impl Into<VersionRef>) -> Result<BranchId> {
        let from = from.into();
        self.journaled(&[journal::encode_branch(name, from)], |store, dirty| {
            // Validate before the first mutation, so a duplicate name or
            // unknown source fails clean — without marking the journal
            // diverged.
            let graph = store.graph();
            graph.check_name_free(name)?;
            match from {
                VersionRef::Branch(b) => {
                    graph.branch(b)?;
                }
                VersionRef::Commit(c) => {
                    graph.commit(c)?;
                }
            }
            *dirty = true;
            store.create_branch(name, from)
        })
    }

    /// Merges branch `from` into branch `into` under `policy` (journaled).
    ///
    /// Takes the paper's branch-level locks — exclusive on the destination,
    /// shared on the source — for the duration of the merge.
    pub fn merge(
        &self,
        into: BranchId,
        from: BranchId,
        policy: MergePolicy,
    ) -> Result<MergeResult> {
        let mut locks = self.locks.begin();
        locks.lock(into, LockMode::Exclusive)?;
        locks.lock(from, LockMode::Shared)?;
        self.journaled(
            &[journal::encode_merge(into, from, policy)],
            |store, dirty| {
                store.graph().branch(into)?;
                store.graph().branch(from)?;
                *dirty = true;
                store.merge(into, from, policy)
            },
        )
    }

    /// Commits one session transaction through the sharded group-commit
    /// path — the hot path behind
    /// [`Session::commit`](crate::session::Session::commit).
    ///
    /// Under the **shared** store lock and the **exclusive** shard lock of
    /// `branch` (so disjoint branches run this concurrently, same-branch
    /// commits serialize), it:
    ///
    /// 1. applies the session's buffered `ops` to the branch's working
    ///    state ([`VersionedStore::apply_ops`]);
    /// 2. snapshots the branch state into its commit store
    ///    ([`VersionedStore::prepare_commit`]) — the per-branch heavy
    ///    lifting, still outside any global lock;
    /// 3. enters the sequencing mutex and, inside it, allocates the WAL
    ///    transaction id, appends `entries` under it, stamps the prepared
    ///    snapshot into the shared version graph
    ///    ([`VersionedStore::finalize_commit`]), and seals the WAL
    ///    transaction — so journal order, transaction-id order, and
    ///    commit-id order all agree, which is what replay determinism and
    ///    the checkpoint watermark rest on;
    /// 4. drops every lock and joins the WAL sync group: one fsync makes
    ///    the whole group of concurrently sealed transactions durable.
    ///
    /// The id is allocated only *after* apply + prepare succeeded, so a
    /// cleanly rejected transaction consumes no id and the watermark
    /// (`next_txn - 1`) stays exact. Any failure after the first mutation
    /// marks the journal diverged, exactly like [`Database::journaled`].
    pub(crate) fn commit_txn(
        &self,
        branch: BranchId,
        entries: &[Vec<u8>],
        ops: &[SessionOp],
    ) -> Result<CommitId> {
        let span = self.obs.commit_us.start();
        let store = self.store.read();
        self.journal_writable()?;
        // Probe the shard without blocking first, purely so contended
        // acquisitions are countable; the blocking fallback is the same
        // lock, and `lock_wait_us` covers both outcomes.
        let wait = Instant::now();
        let shard = match self.shards.try_write(branch) {
            Some(guard) => guard,
            None => {
                self.obs.shard_contention.inc();
                self.shards.write(branch)
            }
        };
        self.obs.lock_wait_us.record_duration(wait.elapsed());
        let gauge = self.obs.in_flight.enter();
        // 1. Apply the buffered writes to the branch's working state. The
        // ops were pre-validated under the exclusive branch lock, so a
        // failure here after the first mutation is divergence, not a clean
        // rejection.
        let mut dirty = false;
        if let Err(e) = store.apply_ops(branch, ops, &mut dirty) {
            if dirty {
                self.journal_intact.store(false, Ordering::Release);
            }
            return Err(e);
        }
        // 2. Per-branch commit snapshot, concurrent across shards.
        let prep = match store.prepare_commit(branch) {
            Ok(p) => p,
            Err(e) => {
                // The applied ops are no longer representable in the
                // journal (nothing was appended for them).
                self.journal_intact.store(false, Ordering::Release);
                return Err(e);
            }
        };
        // 3. Global sequencing: short critical section.
        let (ticket, cid) = {
            let _seq = self.seq.lock();
            // Re-check under the mutex: a concurrent committer may have
            // diverged the journal since the entry check.
            self.journal_writable()?;
            let txn = self.next_txn.fetch_add(1, Ordering::Relaxed);
            let sequenced = (|| {
                for entry in entries {
                    self.wal.append(txn, entry)?;
                }
                let cid = store.finalize_commit(branch, prep)?;
                let ticket = self.wal.seal(txn)?;
                Ok((ticket, cid))
            })();
            match sequenced {
                Ok(v) => v,
                Err(e) => {
                    // Applied-but-unjournaled store state: roll the
                    // unsealed entries out of the buffer and poison.
                    self.wal.rollback();
                    self.journal_intact.store(false, Ordering::Release);
                    return Err(e);
                }
            }
        };
        // 4. Group fsync outside every lock: drop the critical-section
        // guards first so other commits (and the group leader's flush)
        // proceed while we wait for durability.
        drop(gauge);
        drop(shard);
        drop(store);
        self.obs.grouped_txns.inc();
        self.wal.sync(ticket).inspect_err(|_| {
            self.journal_intact.store(false, Ordering::Release);
        })?;
        let elapsed = span.finish();
        self.note_slow("commit", elapsed, || {
            format!("branch={} entries={}", branch.raw(), entries.len())
        });
        Ok(cid)
    }

    /// The metrics registry every layer of this database registers its
    /// instruments with: buffer pool and heap files (`pool`, part of
    /// `scan`), WAL (`wal`), the commit and checkpoint paths (`commit`,
    /// `checkpoint`), and the query layer (`scan`). Call
    /// [`Registry::snapshot`](decibel_obs::Registry::snapshot) for a
    /// consistent point-in-time reading, and
    /// [`Snapshot::diff`](decibel_obs::Snapshot::diff) to measure an
    /// interval.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Logs a one-line summary to stderr when `elapsed` crosses the
    /// `DECIBEL_SLOW_MS` threshold (no-op unless the variable was set at
    /// create/open time). `detail` is only rendered on the slow path.
    fn note_slow(&self, op: &str, elapsed: Duration, detail: impl FnOnce() -> String) {
        if let Some(threshold) = self.slow {
            if elapsed >= threshold {
                let detail = detail();
                if detail.is_empty() {
                    eprintln!("[decibel slow] {op} took {}ms", elapsed.as_millis());
                } else {
                    eprintln!(
                        "[decibel slow] {op} took {}ms ({detail})",
                        elapsed.as_millis()
                    );
                }
            }
        }
    }

    /// Runs one journaled **admin** transaction — the exclusive-store
    /// critical section behind [`Database::create_branch`] and
    /// [`Database::merge`] (session commits use the sharded
    /// [`Database::commit_txn`] path instead).
    ///
    /// Inside one store write-lock scope it (1) verifies the journal is
    /// intact, (2) allocates the transaction id and appends `entries`
    /// under it, (3) applies `apply` to the store, and (4) seals the
    /// transaction — so journal commit order always matches store mutation
    /// order, and the intact check cannot go stale between check and seal
    /// (a concurrent seal failure flips the flag while *it* holds the same
    /// lock). Allocating the id *inside* the critical section makes ids
    /// seal in strictly increasing order, which is what lets a checkpoint
    /// record a single id watermark (see [`Database::flush`]): every
    /// transaction at or below it is in the flushed state, every one above
    /// it is not.
    ///
    /// `apply` receives a dirty flag it must set **before its first
    /// mutating store call** (validation that only reads the store goes
    /// before the flag). On apply failure the appended entries are
    /// discarded (nothing else appends without this lock) and the store
    /// error is returned; if the flag was already set, the store may hold
    /// partial mutations the rolled-back journal never saw, so the journal
    /// is additionally marked diverged — exactly as on a seal failure —
    /// and every later journaled write is refused (reads keep working)
    /// until the directory is reopened, which restores the journaled
    /// prefix.
    pub(crate) fn journaled<T>(
        &self,
        entries: &[Vec<u8>],
        apply: impl FnOnce(&mut dyn VersionedStore, &mut bool) -> Result<T>,
    ) -> Result<T> {
        let mut store = self.store.write();
        self.journal_writable()?;
        let txn = self.alloc_txn();
        for entry in entries {
            self.wal.append(txn, entry)?;
        }
        let mut dirty = false;
        match apply(store.as_mut(), &mut dirty) {
            Ok(value) => {
                self.wal.commit(txn).inspect_err(|_| {
                    self.journal_intact.store(false, Ordering::Release);
                })?;
                Ok(value)
            }
            Err(e) => {
                self.wal.rollback();
                if dirty {
                    self.journal_intact.store(false, Ordering::Release);
                }
                Err(e)
            }
        }
    }

    /// Fails if the store previously diverged from the journal — a commit
    /// marker that failed to persist, or an apply that failed after it
    /// began mutating the store (see [`Database::journaled`]). Checked
    /// inside every journaled critical section; sessions also check it
    /// when opening a transaction so doomed work fails early.
    pub(crate) fn journal_writable(&self) -> Result<()> {
        if self.journal_intact.load(Ordering::Acquire) {
            Ok(())
        } else {
            Err(DbError::JournalDiverged)
        }
    }

    /// Runs `f` with shared access to the store (reads, stats, scans that
    /// are consumed inside the closure). Concurrent callers proceed in
    /// parallel; only writers are excluded.
    pub fn with_store<T>(&self, f: impl FnOnce(&dyn VersionedStore) -> T) -> T {
        let store = self.store.read();
        f(store.as_ref())
    }

    /// Runs `f` with exclusive access to the store.
    ///
    /// This is an administrative escape hatch (bulk loads, experiment
    /// harnesses): mutations made here bypass the journal, so they survive
    /// [`Database::open`] only if a later [`Database::flush`] checkpointed
    /// them — on a crash before the next checkpoint they are gone (and,
    /// because they are invisible to replay, they can also skew the
    /// deterministic id sequence journaled transactions rely on if they
    /// create branches or commits). Prefer sessions,
    /// [`Database::create_branch`], and [`Database::merge`] for durable
    /// writes.
    pub fn with_store_mut<T>(&self, f: impl FnOnce(&mut dyn VersionedStore) -> T) -> T {
        let mut store = self.store.write();
        f(store.as_mut())
    }

    /// Allocates a WAL transaction id for the **admin** path. Only called
    /// with the store write lock held (inside [`Database::journaled`]);
    /// session commits allocate inline under the sequencing mutex in
    /// [`Database::commit_txn`]. Both paths allocate inside their critical
    /// section, so ids seal in strictly increasing order — the property
    /// the checkpoint watermark rests on.
    pub(crate) fn alloc_txn(&self) -> u64 {
        self.next_txn.fetch_add(1, Ordering::Relaxed)
    }

    /// The database directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Journal transactions the `open` that built this handle replayed
    /// (zero for a freshly created database, and zero after a clean
    /// `flush → close → open` cycle, since the checkpoint covered
    /// everything). Exposed so recovery tests and operators can verify
    /// that reopen cost scales with the post-checkpoint delta, not with
    /// total history.
    pub fn replayed_on_open(&self) -> u64 {
        self.replayed
    }

    /// Checkpoints the database: flushes every engine structure to disk,
    /// records the journal watermark, and truncates the WAL.
    ///
    /// Under the store write lock (no transaction can be mid-seal) it:
    ///
    /// 1. **state** — flushes heap tails, the version graph, and
    ///    commit-store deltas (each fsynced when the store was configured
    ///    with [`StoreConfig::fsync`]) and takes the engine's snapshot;
    /// 2. **watermark** — atomically installs the `CHECKPOINT` file
    ///    pairing that snapshot with the highest sealed transaction id;
    /// 3. **truncate** — empties the WAL, whose every transaction the
    ///    watermark now covers.
    ///
    /// A crash between any two steps is recoverable (see
    /// [`Database::open`]); the steps must not be reordered. After a
    /// successful flush the on-disk log is empty and grows only with
    /// post-checkpoint transactions, and `open` replays exactly that
    /// suffix.
    ///
    /// Refused when the store has diverged from the journal (a commit
    /// marker failed to persist, or a transaction failed partway through
    /// mutating the store): checkpointing would promote the diverged state
    /// to durable truth; reopen the directory instead.
    pub fn flush(&self) -> Result<()> {
        let span = self.obs.checkpoint_us.start();
        let mut store = self.store.write();
        // Quiesce the commit shards in fixed index order. Committers hold
        // the store lock in shared mode across their whole critical
        // section, so store-exclusive already implies no commit is mid-
        // flight; taking every shard write lock on top makes the ordering
        // contract explicit and keeps this path correct if the store lock
        // is ever weakened.
        let _quiesced = self.shards.quiesce();
        self.journal_writable()?;
        let payload = store.checkpoint()?;
        // Sealed ids are exactly 1..next_txn (allocation happens under the
        // write lock we hold), so the watermark is the last allocated id.
        let watermark = self.next_txn.load(Ordering::Relaxed) - 1;
        checkpoint::save(
            self.env.as_ref(),
            &self.dir,
            &checkpoint::Checkpoint {
                watermark,
                kind: store.kind(),
                payload,
            },
            self.fsync,
        )?;
        self.wal.truncate()?;
        self.obs.checkpoints.inc();
        let elapsed = span.finish();
        self.note_slow("checkpoint", elapsed, String::new);
        Ok(())
    }
}

/// The commit- and checkpoint-family instruments a [`Database`] owns,
/// bound once at create/open so the hot paths touch plain atomics.
///
/// * `commit/grouped_txns`, `commit/shard_contention` — counters;
/// * `commit/in_flight` — gauge whose max is the concurrency high-water
///   mark: above 1 only when disjoint-branch commits truly overlapped
///   inside their shard critical sections;
/// * `commit/lock_wait_us`, `commit/commit_us` — latency histograms;
/// * `checkpoint/checkpoints`, `checkpoint/replayed_txns` — counters;
/// * `checkpoint/checkpoint_us`, `checkpoint/recovery_us` — durations.
struct CoreMetrics {
    grouped_txns: Counter,
    shard_contention: Counter,
    in_flight: Gauge,
    lock_wait_us: Histogram,
    commit_us: Histogram,
    checkpoints: Counter,
    replayed_txns: Counter,
    checkpoint_us: Histogram,
    recovery_us: Histogram,
}

impl CoreMetrics {
    fn register(metrics: &Registry) -> CoreMetrics {
        CoreMetrics {
            grouped_txns: metrics.counter(family::COMMIT, "grouped_txns"),
            shard_contention: metrics.counter(family::COMMIT, "shard_contention"),
            in_flight: metrics.gauge(family::COMMIT, "in_flight"),
            lock_wait_us: metrics.histogram(family::COMMIT, "lock_wait_us"),
            commit_us: metrics.histogram(family::COMMIT, "commit_us"),
            checkpoints: metrics.counter(family::CHECKPOINT, "checkpoints"),
            replayed_txns: metrics.counter(family::CHECKPOINT, "replayed_txns"),
            checkpoint_us: metrics.histogram(family::CHECKPOINT, "checkpoint_us"),
            recovery_us: metrics.histogram(family::CHECKPOINT, "recovery_us"),
        }
    }
}

/// Parses `DECIBEL_SLOW_MS` once (at create/open). Unset, empty, or
/// unparsable values disable slow-operation logging.
fn slow_threshold() -> Option<Duration> {
    std::env::var("DECIBEL_SLOW_MS")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(Duration::from_millis)
}

/// Removes any stale engine data under `dir` (the data directory is
/// derived state — the journal is the truth) and returns its path for the
/// engine to rebuild into. Shared by [`Database::create`] and
/// [`Database::open`].
fn clear_engine_data(env: &dyn DiskEnv, dir: &Path) -> Result<PathBuf> {
    let data = dir.join(DATA_DIR);
    if env.exists(&data) {
        env.remove_dir_all(&data)
            .map_err(|e| DbError::io("clearing stale engine data", e))?;
    }
    Ok(data)
}

fn write_manifest(env: &dyn DiskEnv, dir: &Path, kind: EngineKind, schema: &Schema) -> Result<()> {
    let ctype = match schema.column_type() {
        ColumnType::U32 => "u32",
        ColumnType::U64 => "u64",
    };
    let body = format!(
        "decibel v1\nengine={}\ncolumns={}\ncolumn_type={}\n",
        kind.name(),
        schema.num_columns(),
        ctype
    );
    env.write(&dir.join(MANIFEST), body.as_bytes())
        .map_err(|e| DbError::io("writing manifest", e))
}

fn read_manifest(env: &dyn DiskEnv, dir: &Path) -> Result<(EngineKind, Schema)> {
    let path = dir.join(MANIFEST);
    let bytes = env
        .read(&path)
        .map_err(|e| DbError::io("reading manifest (is this a database directory?)", e))?;
    let body = String::from_utf8(bytes).map_err(|_| DbError::corrupt("manifest: not UTF-8"))?;
    let corrupt = |what: &str| DbError::corrupt(format!("manifest: {what}"));
    let mut lines = body.lines();
    if lines.next() != Some("decibel v1") {
        return Err(corrupt("unknown header"));
    }
    let mut kind = None;
    let mut columns = None;
    let mut ctype = None;
    for line in lines {
        match line.split_once('=') {
            Some(("engine", v)) => kind = EngineKind::from_name(v),
            Some(("columns", v)) => columns = v.parse::<usize>().ok(),
            Some(("column_type", "u32")) => ctype = Some(ColumnType::U32),
            Some(("column_type", "u64")) => ctype = Some(ColumnType::U64),
            _ => {} // unknown keys are ignored for forward compatibility
        }
    }
    let kind = kind.ok_or_else(|| corrupt("missing or unknown engine"))?;
    let columns = columns.ok_or_else(|| corrupt("missing columns"))?;
    let ctype = ctype.ok_or_else(|| corrupt("missing column_type"))?;
    Ok((kind, Schema::new(columns, ctype)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Predicate;
    use crate::types::VersionRef;
    use decibel_common::ids::{BranchId, CommitId};
    use decibel_common::record::Record;
    use decibel_common::schema::ColumnType;

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

    #[test]
    fn create_all_engine_kinds() {
        for kind in EngineKind::all() {
            let (_d, database) = db(kind);
            assert_eq!(database.with_store(|s| s.kind()), kind);
        }
    }

    #[test]
    fn query_through_database() {
        let (_d, database) = db(EngineKind::Hybrid);
        database.with_store_mut(|s| {
            for k in 0..5u64 {
                s.insert(BranchId::MASTER, Record::new(k, vec![k, k]))
                    .unwrap();
            }
        });
        let out = database
            .query(&Query::ScanVersion {
                version: VersionRef::Branch(BranchId::MASTER),
                predicate: Predicate::ColGe(0, 3),
                projection: decibel_common::Projection::all(),
            })
            .unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn flush_succeeds() {
        let (_d, database) = db(EngineKind::VersionFirst);
        database.with_store_mut(|s| {
            s.insert(BranchId::MASTER, Record::new(1, vec![0, 0]))
                .unwrap()
        });
        database.flush().unwrap();
        assert!(database.dir().join("data").join("graph.dvg").exists());
    }

    #[test]
    fn open_writes_graph_only_through_its_disk_env() {
        use decibel_common::env::FaultEnv;
        for kind in EngineKind::all() {
            let (_d, database) = db(kind);
            let mut s = database.session();
            s.insert(Record::new(1, vec![1, 1])).unwrap();
            s.commit().unwrap();
            drop(s);
            database.flush().unwrap();
            let dir = database.dir().to_path_buf();
            drop(database);
            let graph = dir.join(DATA_DIR).join("graph.dvg");
            std::fs::remove_file(&graph).unwrap();
            // Every mutating op of a crashed environment fails, so the
            // open may fail — but it must not write past its environment.
            let env = FaultEnv::new();
            env.crash_after(0, false);
            let config = StoreConfig::test_default().with_env(Arc::new(env));
            let _ = Database::open(&dir, &config);
            assert!(
                !graph.exists(),
                "{kind:?}: graph.dvg written past the DiskEnv"
            );
        }
    }

    #[test]
    fn manifest_round_trips() {
        for kind in EngineKind::all() {
            let (_d, database) = db(kind);
            let (k, schema) = read_manifest(&decibel_common::env::StdEnv, database.dir()).unwrap();
            assert_eq!(k, kind);
            assert_eq!(schema, Schema::new(2, ColumnType::U32));
        }
    }

    #[test]
    fn open_rejects_non_database_dirs() {
        let dir = tempfile::tempdir().unwrap();
        assert!(Database::open(dir.path(), &StoreConfig::test_default()).is_err());
    }

    #[test]
    fn open_replays_sessions_branches_and_merges() {
        let dir = tempfile::tempdir().unwrap();
        let config = StoreConfig::test_default();
        let (master_count, dev, merged_head) = {
            let db = Database::create(
                dir.path().join("db"),
                EngineKind::Hybrid,
                Schema::new(2, ColumnType::U32),
                &config,
            )
            .unwrap();
            let mut s = db.session();
            for k in 0..10u64 {
                s.insert(Record::new(k, vec![k, k])).unwrap();
            }
            s.commit().unwrap();
            let dev = s.branch("dev").unwrap();
            s.update(Record::new(3, vec![333, 3])).unwrap();
            s.delete(4).unwrap();
            s.commit().unwrap();
            db.merge(
                BranchId::MASTER,
                dev,
                MergePolicy::ThreeWay { prefer_left: false },
            )
            .unwrap();
            let count = db
                .with_store(|st| st.live_count(VersionRef::Branch(BranchId::MASTER)))
                .unwrap();
            let head = db
                .with_store(|st| st.graph().head(BranchId::MASTER))
                .unwrap();
            // Dropped without flush: everything lives only in the journal.
            (count, dev, head)
        };
        let db = Database::open(dir.path().join("db"), &config).unwrap();
        assert_eq!(
            db.with_store(|st| st.live_count(VersionRef::Branch(BranchId::MASTER)))
                .unwrap(),
            master_count
        );
        assert_eq!(db.branch_id("dev").unwrap(), dev);
        assert_eq!(
            db.with_store(|st| st.graph().head(BranchId::MASTER))
                .unwrap(),
            merged_head
        );
        let merged = db
            .with_store(|st| st.get(VersionRef::Branch(BranchId::MASTER), 3))
            .unwrap()
            .unwrap();
        assert_eq!(merged.field(0), 333);
        // A reopened database accepts new transactions.
        let mut s = db.session();
        s.insert(Record::new(100, vec![1, 2])).unwrap();
        s.commit().unwrap();
    }

    #[test]
    fn create_resets_stale_engine_data() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("db");
        let config = StoreConfig::test_default();
        let schema = Schema::new(2, ColumnType::U32);
        {
            let db = Database::create(&path, EngineKind::Hybrid, schema.clone(), &config).unwrap();
            let mut s = db.session();
            s.insert(Record::new(1, vec![1, 1])).unwrap();
            s.commit().unwrap();
            drop(s);
            db.flush().unwrap();
            assert!(path.join(DATA_DIR).join("graph.dvg").exists());
        }
        // Re-creating over the same directory starts from a clean slate:
        // no stale engine files, no rows.
        let db = Database::create(&path, EngineKind::Hybrid, schema, &config).unwrap();
        assert!(!path.join(DATA_DIR).join("graph.dvg").exists());
        assert_eq!(
            db.with_store(|s| s.live_count(VersionRef::Branch(BranchId::MASTER)).unwrap()),
            0
        );
    }

    #[test]
    fn create_removes_stale_checkpoint() {
        // The crash-pairing hazard: `create` over a directory holding an
        // old CHECKPOINT must remove it before the manifest goes down —
        // otherwise a crash right after the manifest write leaves a fresh
        // database whose next `open` reopens the *previous* database's
        // checkpointed state.
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("db");
        let config = StoreConfig::test_default();
        let schema = Schema::new(2, ColumnType::U32);
        {
            let db = Database::create(&path, EngineKind::Hybrid, schema.clone(), &config).unwrap();
            let mut s = db.session();
            s.insert(Record::new(1, vec![1, 1])).unwrap();
            s.commit().unwrap();
            drop(s);
            db.flush().unwrap();
            assert!(path.join("CHECKPOINT").exists());
        }
        let db = Database::create(&path, EngineKind::Hybrid, schema, &config).unwrap();
        assert!(
            !path.join("CHECKPOINT").exists(),
            "stale checkpoint must not pair with the fresh manifest"
        );
        drop(db);
        // And the reopened fresh database really is empty.
        let db = Database::open(&path, &config).unwrap();
        assert_eq!(
            db.with_store(|s| s.live_count(VersionRef::Branch(BranchId::MASTER)).unwrap()),
            0
        );
    }

    #[test]
    fn flush_checkpoint_then_open_skips_replay() {
        let (_d, database) = db(EngineKind::TupleFirstTuple);
        let mut s = database.session();
        s.insert(Record::new(7, vec![70, 7])).unwrap();
        s.commit().unwrap();
        drop(s);
        database.flush().unwrap();
        let dir = database.dir().to_path_buf();
        drop(database);
        let config = StoreConfig::test_default();
        let db = Database::open(&dir, &config).unwrap();
        assert_eq!(db.replayed_on_open(), 0);
        assert_eq!(
            db.with_store(|s| s.get(VersionRef::Branch(BranchId::MASTER), 7))
                .unwrap()
                .unwrap()
                .field(0),
            70
        );
    }

    #[test]
    fn open_does_not_resurrect_orphaned_wal_entries() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("db");
        let config = StoreConfig::test_default();
        let schema = Schema::new(2, ColumnType::U32);
        {
            let db = Database::create(&path, EngineKind::Hybrid, schema.clone(), &config).unwrap();
            let mut s = db.session();
            s.insert(Record::new(1, vec![1, 1])).unwrap();
            s.commit().unwrap(); // txn 1
        }
        // Simulate a torn commit of txn 2: its data entries reached the
        // log, its commit marker did not (the disk-full shape that
        // journal_intact + reopen is documented to recover from). Sealing
        // the already-committed txn 1 again flushes the shared buffer
        // without committing txn 2.
        {
            let wal =
                Wal::open_in(&decibel_common::env::StdEnv, path.join("wal.log"), false).unwrap();
            wal.append(2, &journal::encode_begin(BranchId::MASTER))
                .unwrap();
            wal.append(
                2,
                &journal::encode_insert(&Record::new(99, vec![9, 9]), &schema).unwrap(),
            )
            .unwrap();
            wal.commit(1).unwrap();
        }
        let master = VersionRef::Branch(BranchId::MASTER);
        let db = Database::open(&path, &config).unwrap();
        // The orphan is invisible after recovery...
        assert!(db.with_store(|s| s.get(master, 99)).unwrap().is_none());
        // ...and a fresh transaction must not adopt its id: commit one,
        // reopen, and check the orphan ops were not sealed under the new
        // commit marker as phantom ops.
        let mut s = db.session();
        s.insert(Record::new(100, vec![2, 2])).unwrap();
        s.commit().unwrap();
        drop(s);
        drop(db);
        let db = Database::open(&path, &config).unwrap();
        assert!(db.with_store(|s| s.get(master, 99)).unwrap().is_none());
        assert_eq!(
            db.with_store(|s| s.get(master, 100)).unwrap().unwrap(),
            Record::new(100, vec![2, 2])
        );
        assert_eq!(
            db.with_store(|s| s.get(master, 1)).unwrap().unwrap().key(),
            1
        );
    }

    #[test]
    fn failed_apply_poisons_journal_until_reopen() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("db");
        let config = StoreConfig::test_default();
        let schema = Schema::new(2, ColumnType::U32);
        let master = VersionRef::Branch(BranchId::MASTER);
        {
            let db = Database::create(&path, EngineKind::Hybrid, schema, &config).unwrap();
            let mut setup = db.session();
            setup.insert(Record::new(1, vec![1, 1])).unwrap();
            setup.commit().unwrap();
            drop(setup);

            let mut s = db.session();
            s.insert(Record::new(2, vec![2, 2])).unwrap();
            s.insert(Record::new(3, vec![3, 3])).unwrap();
            // Sabotage through the unjournaled escape hatch: key 3 now
            // exists in the store, so the commit's second op fails *after*
            // the first has already mutated the store.
            db.with_store_mut(|st| {
                st.insert(BranchId::MASTER, Record::new(3, vec![0, 0]))
                    .unwrap()
            });
            assert!(matches!(
                s.commit().unwrap_err(),
                DbError::DuplicateKey { key: 3 }
            ));
            drop(s);

            // The store diverged from the journal: writes are refused with
            // a pointer at reopening, reads keep working.
            let mut s2 = db.session();
            let err = s2.insert(Record::new(50, vec![5, 5])).unwrap_err();
            assert!(err.to_string().contains("reopen"));
            assert!(db.with_store(|st| st.get(master, 1)).unwrap().is_some());
        }
        // Reopen restores the journaled prefix: the half-applied
        // transaction (key 2) and the unjournaled backdoor write (key 3)
        // are both gone, and writes are accepted again.
        let db = Database::open(&path, &config).unwrap();
        assert!(db.with_store(|st| st.get(master, 1)).unwrap().is_some());
        assert!(db.with_store(|st| st.get(master, 2)).unwrap().is_none());
        assert!(db.with_store(|st| st.get(master, 3)).unwrap().is_none());
        let mut s = db.session();
        s.insert(Record::new(4, vec![4, 4])).unwrap();
        s.commit().unwrap();
    }

    #[test]
    fn engine_duplicate_branch_name_leaves_no_dangling_commit() {
        // Direct store-level check, one per engine: a duplicate-name
        // create_branch must fail before the implicit parent commit, so
        // the commit-id sequence stays in lockstep with the journal.
        for kind in EngineKind::all() {
            let dir = tempfile::tempdir().unwrap();
            let mut store = Database::build_store(
                kind,
                dir.path(),
                Schema::new(2, ColumnType::U32),
                &StoreConfig::test_default(),
            )
            .unwrap();
            store
                .insert(BranchId::MASTER, Record::new(1, vec![1, 1]))
                .unwrap();
            store.commit(BranchId::MASTER).unwrap();
            store
                .create_branch("dev", VersionRef::Branch(BranchId::MASTER))
                .unwrap();
            let head = store.graph().head(BranchId::MASTER).unwrap();
            assert!(store
                .create_branch("dev", VersionRef::Branch(BranchId::MASTER))
                .is_err());
            assert_eq!(
                store.graph().head(BranchId::MASTER).unwrap(),
                head,
                "{} left a dangling commit behind the duplicate-name error",
                kind.name()
            );
        }
    }

    #[test]
    fn duplicate_branch_name_fails_cleanly() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("db");
        let config = StoreConfig::test_default();
        let schema = Schema::new(2, ColumnType::U32);
        let head_after = {
            let db = Database::create(&path, EngineKind::Hybrid, schema, &config).unwrap();
            let mut s = db.session();
            s.insert(Record::new(1, vec![1, 1])).unwrap();
            s.commit().unwrap();
            db.create_branch("dev", VersionRef::Branch(BranchId::MASTER))
                .unwrap();
            // A duplicate name is a clean validation error: no store
            // mutation (in particular no dangling parent commit), journal
            // still writable.
            assert!(db
                .create_branch("dev", VersionRef::Branch(BranchId::MASTER))
                .is_err());
            assert!(db
                .create_branch("other", VersionRef::Commit(CommitId(u64::MAX)))
                .is_err());
            s.insert(Record::new(2, vec![2, 2])).unwrap();
            s.commit().unwrap();
            db.with_store(|st| st.graph().head(BranchId::MASTER))
                .unwrap()
        };
        // Replay reproduces the same commit-id sequence — a dangling
        // commit from the failed create_branch would have shifted it.
        let db = Database::open(&path, &config).unwrap();
        assert_eq!(
            db.with_store(|st| st.graph().head(BranchId::MASTER))
                .unwrap(),
            head_after
        );
        assert!(db.branch_id("dev").is_ok());
    }
}
