//! The system under test and the clients that drive it.
//!
//! A [`World`] is one database — master plus a few side branches forked
//! from it — with its model, optionally served by an in-process
//! [`Server`]. An [`Actor`] is one closed-loop client: a connection (remote
//! `Client` or in-process `Session` + `Database`), its latency samples, and
//! the operations every workload is built from. Each operation times the
//! call, checks the result against the model, and counts a mismatch or an
//! error as failed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use decibel::common::env::DiskEnv;
use decibel::common::ids::BranchId;
use decibel::common::record::Record;
use decibel::common::rng::DetRng;
use decibel::common::schema::{ColumnType, Schema};
use decibel::core::query::Predicate;
use decibel::core::types::MergeResult;
use decibel::core::{Database, EngineKind, MergePolicy, Session};
use decibel::obs::Snapshot;
use decibel::pagestore::StoreConfig;
use decibel::server::{Server, ServerHandle};
use decibel::{Client, DbError, Result};

use crate::device::MemDisk;
use crate::gen::{self, Branch, Gen, Sum, COLS, SELECT_COLS};
use crate::harness::{Samples, Tracer};

/// Bytes per page in every workload.
pub const PAGE_BYTES: usize = 256 << 10;
/// Share of master's keys each side branch updates, and again inserts.
const SIDE_CHANGE_PCT: u64 = 5;
/// Writes of one transaction: 5 inserts + 20 updates.
pub const TXN_INSERTS: u64 = 5;
pub const TXN_UPDATES: u64 = 20;
/// Writes of one agent cycle: 8 updates + 2 inserts, then 5 reads back.
const CYCLE_UPDATES: u64 = 8;
const CYCLE_INSERTS: u64 = 2;
const CYCLE_GETS: usize = 5;
pub const THREE_WAY: MergePolicy = MergePolicy::ThreeWay { prefer_left: false };

/// Sizes and policies of one workload's database.
#[derive(Clone, Copy)]
pub struct Config {
    pub rows: u64,
    pub side_branches: usize,
    pub pool_pages: usize,
    pub fsync: bool,
    /// Serve the database over TCP and drive it with `Client`s; otherwise
    /// actors call the `Database` in-process.
    pub remote: bool,
    /// Replicas of an untraced run: databases set up one after the other,
    /// each with a probe round and its share of the native phase.
    pub replicas: usize,
}

impl Config {
    /// A fresh `StoreConfig` (own metrics registry) for this workload's
    /// database on `disk` (see [`crate::device`]).
    pub fn store(&self, disk: &Arc<MemDisk>) -> StoreConfig {
        StoreConfig {
            page_size: PAGE_BYTES,
            pool_pages: self.pool_pages,
            cold_scans: false,
            fsync: self.fsync,
            ..StoreConfig::bench_default()
        }
        .with_env(Arc::clone(disk) as _)
    }
}

pub struct World {
    pub cfg: Config,
    pub gen: Gen,
    /// The simulated device the database lives on, freed with the world.
    pub disk: Arc<MemDisk>,
    /// The directory the database's paths point into. `Database::open`
    /// writes `data/graph.dvg` past its `DiskEnv` (through a non-`_in` twin
    /// that ROADMAP item 2 deletes), so a database is opened at a path that
    /// also exists on the real file system; nothing else lands there.
    dir: tempfile::TempDir,
    pub db: Arc<Database>,
    pub server: Option<ServerHandle>,
    /// Branch ids, names and models, master first.
    pub ids: Vec<BranchId>,
    pub names: Vec<String>,
    pub model: Vec<Branch>,
}

impl World {
    /// Loads master, forks and edits the side branches, checkpoints, starts
    /// the server and touches every page once. Returns the world and the
    /// time this took (`setup_s`).
    pub fn setup(cfg: Config, gen: Gen) -> Result<(World, Duration)> {
        let start = Instant::now();
        let disk = Arc::new(MemDisk::default());
        let dir = tempfile::tempdir().map_err(|e| DbError::io("creating the database dir", e))?;
        let db = Database::create(
            dir.path().join("db"),
            EngineKind::Hybrid,
            Schema::new(COLS, ColumnType::U32),
            &cfg.store(&disk),
        )?;
        let mut session = db.session();
        let mut master = Branch::default();
        for i in 0..cfg.rows {
            let key = gen.key(i);
            session.insert(gen.record(key, 0))?;
            master.put(&gen, key, 0);
            if i % 50_000 == 49_999 {
                session.commit()?;
            }
        }
        session.commit()?;
        let mut world = World {
            cfg,
            gen,
            disk,
            dir,
            db,
            server: None,
            ids: vec![BranchId::MASTER],
            names: vec!["master".into()],
            model: vec![master],
        };
        let step = 100 / SIDE_CHANGE_PCT;
        let changes = cfg.rows / step;
        for b in 0..cfg.side_branches as u64 {
            let name = format!("side-{b}");
            session.checkout_branch("master")?;
            let id = session.branch(&name)?;
            let mut model = world.model[0].clone();
            let tag = 1 + b as u32;
            for j in 0..changes {
                let key = gen.key((j * step + b) % cfg.rows);
                session.update(gen.record(key, tag))?;
                model.put(&gen, key, tag);
                let key = gen.key(cfg.rows + b * changes + j);
                session.insert(gen.record(key, tag))?;
                model.put(&gen, key, tag);
            }
            session.commit()?;
            world.ids.push(id);
            world.names.push(name);
            world.model.push(model);
        }
        drop(session);
        world.db.flush()?;
        if cfg.remote {
            world.server = Some(Server::bind(Arc::clone(&world.db), "127.0.0.1:0")?.spawn());
        }
        // Warm-up: one pass over every branch fills the pool (as far as it
        // goes) and finishes lazy set-up before anything is timed.
        let mut warm = world.actor(0, Instant::now(), false)?;
        for b in 0..world.ids.len() {
            let rows = warm.conn.q1(world.ids[b])?;
            if Sum::of(&rows) != world.model[b].full() {
                return Err(DbError::Invalid(format!(
                    "set-up of {} is wrong",
                    world.names[b]
                )));
            }
        }
        Ok((world, start.elapsed()))
    }

    /// Key indexes at or above this are free for actors to allocate.
    fn first_free_index(&self) -> u64 {
        self.cfg.rows * 2
    }

    /// Opens actor `n`'s connection. Actors draw new key indexes and tags
    /// from disjoint ranges, so concurrent writers never collide.
    pub fn actor(&self, n: u64, epoch: Instant, traced: bool) -> Result<Actor> {
        let conn = match &self.server {
            Some(server) => Conn::Remote(Client::connect(server.local_addr())?),
            None => Conn::Local {
                db: Arc::clone(&self.db),
                session: self.db.session(),
            },
        };
        Ok(Actor {
            conn,
            gen: self.gen,
            rng: DetRng::seed_from_u64(self.gen.key(n) ^ (n << 32)),
            tracer: Tracer::new(epoch, traced),
            samples: Default::default(),
            attempted: 0,
            failed: 0,
            scan_rows: 0,
            last_scan_end: None,
            stall_max: Duration::ZERO,
            next_index: self.first_free_index() + (n << 36),
            next_tag: ((n as u32 + 1) << 24) + 1000,
        })
    }

    /// Bytes of the database directory.
    pub fn db_bytes(&self) -> u64 {
        self.disk.tree_bytes(&self.dir.path().join("db"))
    }

    /// Copies the quiescent database directory — a crash image: whatever
    /// the WAL and the last checkpoint hold, and nothing newer — opens the
    /// copy, samples the open time, and checks every modelled branch in it.
    pub fn reopen_copy(&self, actor: &mut Actor) -> Result<()> {
        let copy = self.dir.path().join("copy");
        std::fs::create_dir_all(copy.join("data"))
            .map_err(|e| DbError::io("creating the copy's dir", e))?;
        self.disk.copy_tree(&self.dir.path().join("db"), &copy);
        let config = self.cfg.store(&self.disk);
        let start = Instant::now();
        let opened = actor
            .tracer
            .span("core.open", || Database::open(&copy, &config));
        actor.samples[Kind::Reopen as usize].push(start.elapsed());
        let ok = match opened {
            Ok(db) => self.ids.iter().zip(&self.model).all(|(id, model)| {
                matches!(db.read(*id).collect(), Ok(rows) if Sum::of(&rows) == model.full())
            }),
            Err(e) => {
                eprintln!("perfbench: reopen failed: {e}");
                false
            }
        };
        actor.check("reopen", ok);
        self.disk
            .remove_dir_all(&copy)
            .map_err(|e| DbError::io("removing the copy", e))
    }

    /// Stops the server (which checkpoints) or checkpoints directly, then
    /// closes the database and deletes its directory.
    pub fn retire(mut self) -> Result<()> {
        match self.server.take() {
            Some(server) => server.shutdown(),
            None => self.db.flush(),
        }
    }
}

/// One access path to the database. `Client` mirrors `Session` and the read
/// builders one for one, so both arms of every method read the same.
pub enum Conn {
    Remote(Client),
    Local { db: Arc<Database>, session: Session },
}

impl Conn {
    pub fn q1(&mut self, b: BranchId) -> Result<Vec<Record>> {
        match self {
            Conn::Remote(c) => c.read(b).collect(),
            Conn::Local { db, .. } => db.read(b).collect(),
        }
    }

    pub fn selective(&mut self, b: BranchId, pred: Predicate) -> Result<Vec<Record>> {
        match self {
            Conn::Remote(c) => c.read(b).select(&SELECT_COLS).filter(pred).collect(),
            Conn::Local { db, .. } => db.read(b).select(&SELECT_COLS).filter(pred).collect(),
        }
    }

    pub fn q4(&mut self, bs: &[BranchId]) -> Result<Vec<(Record, Vec<BranchId>)>> {
        match self {
            Conn::Remote(c) => c.read_branches(bs).annotated(),
            Conn::Local { db, .. } => db.read_branches(bs).annotated(),
        }
    }

    pub fn count(&mut self, b: BranchId, pred: Predicate) -> Result<u64> {
        match self {
            Conn::Remote(c) => c.read(b).filter(pred).count(),
            Conn::Local { db, .. } => db.read(b).filter(pred).count(),
        }
    }

    pub fn checkout(&mut self, name: &str) -> Result<BranchId> {
        match self {
            Conn::Remote(c) => c.checkout_branch(name),
            Conn::Local { session, .. } => session.checkout_branch(name),
        }
    }

    pub fn branch(&mut self, name: &str) -> Result<BranchId> {
        match self {
            Conn::Remote(c) => c.branch(name),
            Conn::Local { session, .. } => session.branch(name),
        }
    }

    pub fn insert(&mut self, r: Record) -> Result<()> {
        match self {
            Conn::Remote(c) => c.insert(r),
            Conn::Local { session, .. } => session.insert(r),
        }
    }

    pub fn update(&mut self, r: Record) -> Result<()> {
        match self {
            Conn::Remote(c) => c.update(r),
            Conn::Local { session, .. } => session.update(r),
        }
    }

    pub fn get(&mut self, key: u64) -> Result<Option<Record>> {
        match self {
            Conn::Remote(c) => c.get(key),
            Conn::Local { session, .. } => session.get(key),
        }
    }

    pub fn commit(&mut self) -> Result<()> {
        match self {
            Conn::Remote(c) => c.commit().map(drop),
            Conn::Local { session, .. } => session.commit().map(drop),
        }
    }

    pub fn merge(&mut self, into: BranchId, from: BranchId) -> Result<MergeResult> {
        match self {
            Conn::Remote(c) => c.merge(into, from, THREE_WAY),
            Conn::Local { db, .. } => db.merge(into, from, THREE_WAY),
        }
    }

    pub fn flush(&mut self) -> Result<()> {
        match self {
            Conn::Remote(c) => c.flush(),
            Conn::Local { db, .. } => db.flush(),
        }
    }

    /// A metrics snapshot of the whole stack: through the wire when served
    /// (database + server families), from the database otherwise.
    pub fn stats(&mut self) -> Result<Snapshot> {
        match self {
            Conn::Remote(c) => c.stats(),
            Conn::Local { db, .. } => Ok(db.metrics().snapshot()),
        }
    }
}

/// Operation kinds that are sampled.
#[derive(Clone, Copy)]
pub enum Kind {
    Q1,
    Selective,
    Q4,
    Get,
    /// `commit` of a 25-write transaction.
    Commit,
    /// A whole transaction: 25 buffered writes and the commit.
    Txn,
    Fork,
    /// `commit` of an agent cycle's 10 writes, the first on its new branch.
    CycleCommit,
    /// A cycle's read-back of a record it just committed.
    CycleGet,
    Merge,
    /// Two agent cycles in a row, one merged and one abandoned. A cycle's
    /// time depends on which it is, so single cycles have two modes and no
    /// steady median.
    CyclePair,
    Diff,
    Reopen,
}
pub const KINDS: usize = 13;

/// One agent cycle as the model needs to remember it: the versions its
/// branch wrote, and whether it was merged into master.
pub struct CycleRec {
    pub writes: Vec<(u64, u32)>,
    pub merged: bool,
}

/// Master's states while merges race a concurrent reader: state `j` is
/// master after `j` merges. A merge's state is pushed, and `issued` raised,
/// before the merge is sent; `acked` is raised once it is acknowledged. A
/// scan that saw `acked == a` when it started and `issued == i` when it
/// finished must equal one of `states[a..=i]`.
pub struct MasterHistory {
    pub states: Mutex<Vec<Sum>>,
    pub issued: AtomicUsize,
    pub acked: AtomicUsize,
}

impl MasterHistory {
    pub fn new(initial: Sum) -> MasterHistory {
        MasterHistory {
            states: Mutex::new(vec![initial]),
            issued: AtomicUsize::new(0),
            acked: AtomicUsize::new(0),
        }
    }
}

/// Master's model as agent cycles see it: the branch model, plus the count
/// of rows matching the cycle's count predicate, kept incrementally so a
/// cycle's filtered count can be checked without a pass over the model.
pub struct CycleMaster<'a> {
    pub master: &'a mut Branch,
    pub pred: Predicate,
    pub matching: u64,
    /// Master's key count at set-up: cycle `i` updates the block of master
    /// key indexes `[8i, 8i + 8)` modulo this.
    pub rows: u64,
    /// Where merges are published for a concurrent reader's checks.
    pub history: Option<&'a MasterHistory>,
}

impl<'a> CycleMaster<'a> {
    pub fn new(gen: &Gen, master: &'a mut Branch, pred: Predicate, rows: u64) -> Self {
        let matching = master
            .versions()
            .filter(|(k, t)| pred.eval(&gen.record(*k, *t)))
            .count() as u64;
        CycleMaster {
            master,
            pred,
            matching,
            rows,
            history: None,
        }
    }
}

/// One closed-loop client.
pub struct Actor {
    pub conn: Conn,
    pub gen: Gen,
    pub rng: DetRng,
    pub tracer: Tracer,
    pub samples: [Samples; KINDS],
    pub attempted: u64,
    pub failed: u64,
    /// Rows delivered by scan operations.
    pub scan_rows: u64,
    last_scan_end: Option<Instant>,
    /// Longest gap between two completed scans.
    pub stall_max: Duration,
    next_index: u64,
    next_tag: u32,
}

impl Actor {
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: FAILED {what}");
            }
        }
    }

    fn new_key(&mut self) -> u64 {
        self.next_index += 1;
        self.gen.key(self.next_index)
    }

    fn new_tag(&mut self) -> u32 {
        self.next_tag += 1;
        self.next_tag
    }

    fn scan_done(&mut self, rows: usize) {
        let now = Instant::now();
        if let Some(last) = self.last_scan_end {
            self.stall_max = self.stall_max.max(now - last);
        }
        self.last_scan_end = Some(now);
        self.scan_rows += rows as u64;
    }

    /// Forgets the last scan's end, so the pause between two phases is not
    /// reported as a reader stall.
    pub fn reset_stall_clock(&mut self) {
        self.last_scan_end = None;
    }

    /// Times `call` inside a span, samples it under `kind`, and unwraps the
    /// result, logging an error.
    fn timed<T>(
        &mut self,
        kind: Kind,
        span: &'static str,
        call: impl FnOnce(&mut Conn) -> Result<T>,
    ) -> Option<T> {
        let conn = &mut self.conn;
        let start = Instant::now();
        let out = self.tracer.span(span, || call(conn));
        self.samples[kind as usize].push(start.elapsed());
        self.logged(span, out)
    }

    fn logged<T>(&mut self, what: &str, out: Result<T>) -> Option<T> {
        out.map_err(|e| {
            if self.failed < 5 {
                eprintln!("perfbench: {what}: {e}");
            }
        })
        .ok()
    }

    /// Untimed call inside a span.
    fn call<T>(
        &mut self,
        span: &'static str,
        call: impl FnOnce(&mut Conn) -> Result<T>,
    ) -> Option<T> {
        let conn = &mut self.conn;
        let out = self.tracer.span(span, || call(conn));
        self.logged(span, out)
    }

    /// Full single-branch scan (the paper's Q1); `accept` judges its sum.
    pub fn q1(&mut self, b: BranchId, accept: impl FnOnce(Sum) -> bool) {
        self.tracer.next_request();
        let rows = self.timed(Kind::Q1, "client.collect", |c| c.q1(b));
        self.scan_done(rows.as_ref().map_or(0, Vec::len));
        self.check("q1 scan", rows.is_some_and(|rows| accept(Sum::of(&rows))));
    }

    /// Two-column projected scan with a pushed-down predicate.
    pub fn selective(&mut self, b: BranchId, pred: &Predicate, expect: Sum) {
        self.tracer.next_request();
        let rows = self.timed(Kind::Selective, "client.collect_selective", |c| {
            c.selective(b, pred.clone())
        });
        self.scan_done(rows.as_ref().map_or(0, Vec::len));
        self.check(
            "selective scan",
            rows.is_some_and(|rows| Sum::of(&rows) == expect),
        );
    }

    /// Multi-branch annotated scan (the paper's Q4).
    pub fn q4(&mut self, bs: &[BranchId], expect: Sum) {
        self.tracer.next_request();
        let rows = self.timed(Kind::Q4, "client.annotated", |c| c.q4(bs));
        self.scan_done(rows.as_ref().map_or(0, Vec::len));
        let ok = rows.is_some_and(|rows| {
            let mut sum = Sum::default();
            for (r, live) in &rows {
                let mask = live.iter().fold(0u64, |m, b| m | 1 << b.raw());
                sum.add(gen::annotated_hash(gen::row_hash(r), mask));
            }
            sum == expect
        });
        self.check("q4 scan", ok);
    }

    /// Point lookup at the session's checkout.
    pub fn get(&mut self, key: u64, expect: Option<u32>) {
        self.tracer.next_request();
        self.get_checked(Kind::Get, key, expect);
    }

    fn get_checked(&mut self, kind: Kind, key: u64, expect: Option<u32>) {
        let got = self.timed(kind, "client.get", |c| c.get(key));
        let want = expect.map(|tag| self.gen.record(key, tag));
        self.check("get", got.is_some_and(|got| got == want));
    }

    /// `Database::diff(left, right)`, always in-process: diff is not on
    /// the wire.
    pub fn diff(&mut self, db: &Database, left: BranchId, right: BranchId, expect: (Sum, Sum)) {
        self.tracer.next_request();
        let out = self.timed(Kind::Diff, "core.diff", |_| db.diff(left, right));
        let ok = out.is_some_and(|d| (Sum::of(&d.left_only), Sum::of(&d.right_only)) == expect);
        self.check("diff", ok);
    }

    /// One transaction on the checked-out branch: 5 inserts and 20 updates
    /// of distinct keys inherited from master, then `commit`. The model
    /// changes only once the commit is acknowledged. Returns whether it was.
    pub fn txn(&mut self, model: &mut Branch, master_rows: u64) -> bool {
        self.tracer.next_request();
        let span = self.tracer.begin("op.txn");
        let start = Instant::now();
        let mut writes: Vec<(u64, u32)> = Vec::with_capacity((TXN_INSERTS + TXN_UPDATES) as usize);
        let mut ok = true;
        for _ in 0..TXN_INSERTS {
            let (key, tag) = (self.new_key(), self.new_tag());
            let rec = self.gen.record(key, tag);
            ok &= self.call("client.insert", |c| c.insert(rec)).is_some();
            writes.push((key, tag));
        }
        while writes.len() < (TXN_INSERTS + TXN_UPDATES) as usize {
            let key = self.gen.key(self.rng.below(master_rows));
            if writes.iter().any(|(k, _)| *k == key) {
                continue;
            }
            let tag = self.new_tag();
            let rec = self.gen.record(key, tag);
            ok &= self.call("client.update", |c| c.update(rec)).is_some();
            writes.push((key, tag));
        }
        ok &= self
            .timed(Kind::Commit, "client.commit", Conn::commit)
            .is_some();
        self.samples[Kind::Txn as usize].push(start.elapsed());
        if ok {
            for (key, tag) in writes {
                model.put(&self.gen, key, tag);
            }
        }
        self.tracer.end(span);
        self.check("transaction", ok);
        ok
    }

    /// One agent cycle: checkout master, fork `name`, 8 updates on the key
    /// block private to cycle `i` plus 2 inserts, commit, read 5 of the
    /// writes back, a filtered count over the whole branch, then merge into
    /// master (`merge`) or abandon.
    pub fn cycle(
        &mut self,
        m: &mut CycleMaster<'_>,
        i: u64,
        name: &str,
        merge: bool,
    ) -> Option<CycleRec> {
        self.tracer.next_request();
        let span = self.tracer.begin("op.cycle");
        let rec = self.cycle_steps(m, i, name, merge);
        self.tracer.end(span);
        self.check("agent cycle", rec.is_some());
        rec
    }

    fn cycle_steps(
        &mut self,
        m: &mut CycleMaster<'_>,
        i: u64,
        name: &str,
        merge: bool,
    ) -> Option<CycleRec> {
        let gen = self.gen;
        self.call("client.checkout", |c| c.checkout("master"))?;
        let id = self.timed(Kind::Fork, "client.branch", |c| c.branch(name))?;
        let mut writes = Vec::with_capacity((CYCLE_UPDATES + CYCLE_INSERTS) as usize);
        // Rows of the branch matching the count predicate: master's, minus
        // the replaced versions that matched, plus the new ones that do.
        let mut matching = m.matching;
        for j in 0..CYCLE_UPDATES {
            let key = gen.key((i * CYCLE_UPDATES + j) % m.rows);
            let tag = self.new_tag();
            let rec = gen.record(key, tag);
            let old = m.master.tag(key).expect("master keeps its set-up keys");
            matching -= m.pred.eval(&gen.record(key, old)) as u64;
            matching += m.pred.eval(&rec) as u64;
            self.call("client.update", |c| c.update(rec))?;
            writes.push((key, tag));
        }
        for _ in 0..CYCLE_INSERTS {
            let (key, tag) = (self.new_key(), self.new_tag());
            let rec = gen.record(key, tag);
            matching += m.pred.eval(&rec) as u64;
            self.call("client.insert", |c| c.insert(rec))?;
            writes.push((key, tag));
        }
        self.timed(Kind::CycleCommit, "client.commit", Conn::commit)?;
        for &(key, tag) in writes.iter().rev().take(CYCLE_GETS) {
            self.get_checked(Kind::CycleGet, key, Some(tag));
        }
        let pred = m.pred.clone();
        let counted = self.call("client.count", |c| c.count(id, pred));
        self.check("filtered count", counted == Some(matching));
        if merge {
            for &(key, tag) in &writes {
                m.master.put(&gen, key, tag);
            }
            m.matching = matching;
            if let Some(h) = m.history {
                h.states.lock().expect("history lock").push(m.master.full());
                h.issued.fetch_add(1, Ordering::SeqCst);
            }
            let merged = self.timed(Kind::Merge, "client.merge", |c| {
                c.merge(BranchId::MASTER, id)
            })?;
            if let Some(h) = m.history {
                h.acked.fetch_add(1, Ordering::SeqCst);
            }
            self.check("merge", merged.conflicts.is_empty());
        }
        Some(CycleRec {
            writes,
            merged: merge,
        })
    }
}
