//! Per-layer micro loops: each times calls into one crate's public
//! functions at a stated size, from outside, inside a span. They run only
//! in the traced run: those on fixtures of their own before the workload,
//! those on the workload's database after it.

use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use decibel::bitmap::{Bitmap, BranchBitmapIndex, VersionIndex};
use decibel::common::env::{std_env, StdEnv};
use decibel::common::ids::BranchId;
use decibel::common::record::Record;
use decibel::common::schema::{ColumnType, Schema};
use decibel::core::query::Predicate;
use decibel::core::{Database, EngineKind, Session};
use decibel::netio::{Events, Poll, Token, Waker};
use decibel::pagestore::{BufferPool, HeapFile, StoreConfig, Wal};
use decibel::server::Server;
use decibel::vgraph::VersionGraph;
use decibel::wire::frame::{read_frame, write_frame, FrameDecoder};
use decibel::wire::proto::batch_rows;
use decibel::wire::{Request, Response};
use decibel::{Client, DbError, Projection, Result};

use crate::affinity::Cpus;
use crate::gen::{Gen, COLS, RECORD_BYTES, SELECT_COLS};
use crate::harness::{dir_bytes, timed_loop, Samples, Tracer};
use crate::world::{World, PAGE_BYTES, THREE_WAY, TXN_INSERTS, TXN_UPDATES};

/// Time each throughput loop runs.
const LOOP: Duration = Duration::from_millis(25);
/// Bits per bitmap operand.
const BITMAP_BITS: u64 = 1 << 20;
/// Rows in the per-engine, merge and checkpoint databases.
const ENGINE_ROWS: u64 = 100_000;
/// Rows in the session databases.
const SESSION_ROWS: u64 = 20_000;
/// Branches in the version-graph micro.
const GRAPH_BRANCHES: u32 = 1000;

type Metrics = Vec<(&'static str, f64)>;

fn schema() -> Schema {
    Schema::new(COLS, ColumnType::U32)
}

fn store(fsync: bool) -> StoreConfig {
    StoreConfig {
        page_size: PAGE_BYTES,
        pool_pages: 512,
        cold_scans: false,
        fsync,
        ..StoreConfig::bench_default()
    }
}

fn io_err(what: &'static str) -> impl FnOnce(std::io::Error) -> DbError {
    move |e| DbError::io(what, e)
}

/// Runs transactions of 5 inserts + 20 updates on `session`'s branch and
/// samples `commit`. Keys come from `gen`: updates hit the first `rows` key
/// indexes, inserts take fresh indexes from `*next`.
fn session_txns(
    session: &mut Session,
    gen: &Gen,
    rows: u64,
    next: &mut u64,
    n: u64,
) -> Result<Samples> {
    let mut commits = Samples::default();
    for _ in 0..n {
        for _ in 0..TXN_INSERTS {
            *next += 1;
            session.insert(gen.record(gen.key(*next), *next as u32))?;
        }
        for j in 0..TXN_UPDATES {
            *next += 1;
            session.update(gen.record(gen.key((*next * 31 + j) % rows), *next as u32))?;
        }
        let start = Instant::now();
        session.commit()?;
        commits.push(start.elapsed());
    }
    Ok(commits)
}

/// Bulk-loads `rows` records into master and checkpoints. It goes through
/// the store, not a session: a session checks every insert for a duplicate
/// key, which version-first (no key index) answers with a scan.
fn load(db: &Arc<Database>, gen: &Gen, rows: u64) -> Result<()> {
    db.with_store_mut(|store| -> Result<()> {
        for i in 0..rows {
            store.insert(BranchId::MASTER, gen.record(gen.key(i), 0))?;
        }
        store.commit(BranchId::MASTER).map(drop)
    })?;
    db.flush()
}

// ---------------------------------------------------------------------
// Micros on the workload's own database
// ---------------------------------------------------------------------

/// Measurements on the workload's database, remote and in-process side by
/// side, one client on one CPU: the inputs of `wire.scan_tax_ratio`,
/// `server.commit_handoff_us` and the two stage budgets. All times are
/// medians in microseconds.
pub struct OnWorld {
    pub empty_rtt_us: f64,
    pub remote_q1_us: f64,
    pub local_q1_us: f64,
    /// Dropping the rows of one in-process Q1: the server does it batch by
    /// batch inside a remote Q1, `local_q1_us` leaves it out.
    pub free_q1_us: f64,
    pub q1_rows: f64,
    pub q4_parallel_over_seq: f64,
    pub remote_commit_us: f64,
    pub local_commit_us: f64,
    pub remote_empty_commit_us: f64,
    pub local_empty_commit_us: f64,
    /// Framed bytes through a loopback TCP connection, writer and reader on
    /// their own threads of one CPU (a stage of the Q1 budget, not a metric).
    pub loopback_mib_per_s: f64,
}

pub fn on_world(world: &mut World, tracer: &mut Tracer, cpus: Option<&Cpus>) -> Result<OnWorld> {
    // One client at a time: on one CPU, as in the probe rounds.
    let _one_cpu = cpus.map(Cpus::confine);
    if world.server.is_none() {
        world.server = Some(Server::bind(Arc::clone(&world.db), "127.0.0.1:0")?.spawn());
    }
    let addr = world.server.as_ref().expect("just ensured").local_addr();
    let mut client = Client::connect(addr)?;
    let db = Arc::clone(&world.db);
    let master = world.ids[0];
    let span = tracer.begin("micro.on_world");

    let mut rtt = Samples::default();
    for _ in 0..2000 {
        let start = Instant::now();
        client.branch_id("master")?;
        rtt.push(start.elapsed());
    }
    let (mut remote_q1, mut local_q1, mut free_q1) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut q1_rows = 0;
    for _ in 0..7 {
        let start = Instant::now();
        q1_rows = client.read(master).collect()?.len();
        remote_q1.push(start.elapsed());
        let start = Instant::now();
        let rows = db.read(master).collect()?;
        local_q1.push(start.elapsed());
        let start = Instant::now();
        drop(rows);
        free_q1.push(start.elapsed());
    }
    let (mut seq, mut par) = (Samples::default(), Samples::default());
    for _ in 0..5 {
        let start = Instant::now();
        let rows = db.read_branches(&world.ids).annotated()?;
        seq.push(start.elapsed());
        drop(rows);
        let start = Instant::now();
        let rows = db.read_branches(&world.ids).parallel(2).annotated()?;
        par.push(start.elapsed());
        drop(rows);
    }

    // Commits: the same 25-write transaction through the wire and through a
    // local session, then empty commits both ways (the hand-off estimate).
    let gen = world.gen;
    let rows = world.cfg.rows;
    let mut next = 9 << 36;
    let mut session = db.session();
    session.checkout_branch(&world.names[1])?;
    let local_commit = session_txns(&mut session, &gen, rows, &mut next, 30)?;
    let mut local_empty = Samples::default();
    for _ in 0..30 {
        let start = Instant::now();
        session.commit()?;
        local_empty.push(start.elapsed());
    }
    drop(session);
    client.checkout_branch(&world.names[1])?;
    let (mut remote_commit, mut remote_empty) = (Samples::default(), Samples::default());
    for _ in 0..30 {
        for _ in 0..TXN_INSERTS {
            next += 1;
            client.insert(gen.record(gen.key(next), next as u32))?;
        }
        for j in 0..TXN_UPDATES {
            next += 1;
            client.update(gen.record(gen.key((next * 31 + j) % rows), next as u32))?;
        }
        let start = Instant::now();
        client.commit()?;
        remote_commit.push(start.elapsed());
    }
    for _ in 0..30 {
        let start = Instant::now();
        client.commit()?;
        remote_empty.push(start.elapsed());
    }
    let loopback_mib_per_s = loopback_mib_per_s()?;
    tracer.end(span);
    Ok(OnWorld {
        loopback_mib_per_s,
        empty_rtt_us: rtt.p50_us(),
        remote_q1_us: remote_q1.p50_us(),
        local_q1_us: local_q1.p50_us(),
        free_q1_us: free_q1.p50_us(),
        q1_rows: q1_rows as f64,
        q4_parallel_over_seq: par.p50_us() / seq.p50_us(),
        remote_commit_us: remote_commit.p50_us(),
        local_commit_us: local_commit.p50_us(),
        remote_empty_commit_us: remote_empty.p50_us(),
        local_empty_commit_us: local_empty.p50_us(),
    })
}

/// Streams scan-batch-sized frames through a loopback TCP connection, one
/// thread writing and one reading, as a scan's server and client do.
fn loopback_mib_per_s() -> Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io_err("binding loopback"))?;
    let addr = listener.local_addr().map_err(io_err("loopback address"))?;
    let frames = 200;
    let payload = vec![0x5au8; 256 << 10];
    std::thread::scope(|s| {
        let reader = s.spawn(move || -> Result<()> {
            let (stream, _) = listener.accept().map_err(io_err("accepting loopback"))?;
            let mut stream = std::io::BufReader::new(stream);
            while read_frame(&mut stream)?.is_some() {}
            Ok(())
        });
        let stream = TcpStream::connect(addr).map_err(io_err("connecting loopback"))?;
        let mut writer = std::io::BufWriter::new(stream);
        let start = Instant::now();
        for _ in 0..frames {
            write_frame(&mut writer, &payload)?;
        }
        drop(
            writer
                .into_inner()
                .map_err(|e| DbError::io("flushing loopback", e.into_error()))?,
        );
        reader.join().expect("loopback reader")?;
        Ok((frames * payload.len()) as f64 / start.elapsed().as_secs_f64() / (1 << 20) as f64)
    })
}

/// Prints the stage budget of one remote commit and one remote Q1 next to
/// the measured wall time: codec + empty round trip + in-process call, then
/// the worker hand-off (commit) or freeing the rows + batch encode + socket +
/// framing + batch decode (Q1).
pub fn print_budgets(w: &OnWorld, metrics: &[(&'static str, f64)]) {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|m| m.0 == name)
            .expect("micro metric")
            .1
    };
    let codec_us = get("wire.request_codec_ns") / 1e3;
    let handoff_us = (w.remote_empty_commit_us - w.local_empty_commit_us - w.empty_rtt_us).max(0.0);
    let commit = [
        ("request codec", codec_us),
        ("empty round trip", w.empty_rtt_us),
        ("in-process commit", w.local_commit_us),
        ("worker hand-off (from empty commits)", handoff_us),
    ];
    print_budget("remote commit", &commit, w.remote_commit_us);
    let image_mib = w.q1_rows * RECORD_BYTES as f64 / (1 << 20) as f64;
    // Measured on one CPU, where the server's and the client's work do not
    // overlap: the stages add up.
    let q1 = [
        ("request codec", codec_us),
        ("empty round trip", w.empty_rtt_us),
        ("in-process Q1", w.local_q1_us),
        ("freeing its rows", w.free_q1_us),
        (
            "batch encode",
            w.q1_rows / get("wire.batch_encode_m_rows_per_s"),
        ),
        ("socket, both ends", image_mib / w.loopback_mib_per_s * 1e6),
        (
            "framing",
            image_mib / get("wire.frame_write_read_mib_per_s") * 1e6,
        ),
        (
            "batch decode",
            w.q1_rows / get("wire.batch_decode_m_rows_per_s"),
        ),
    ];
    print_budget("remote Q1", &q1, w.remote_q1_us);
}

fn print_budget(what: &str, stages: &[(&str, f64)], measured_us: f64) {
    println!("stage budget, {what}:");
    for (name, us) in stages {
        println!("  {name:<40} {us:>12.1} us");
    }
    let sum: f64 = stages.iter().map(|s| s.1).sum();
    println!("  {:<40} {sum:>12.1} us", "sum of stages");
    println!(
        "  {:<40} {:>12.1} us",
        "residual (not attributed)",
        measured_us - sum
    );
    println!(
        "  {:<40} {measured_us:>12.1} us  (stages explain {:.0} %)",
        "measured wall time",
        sum / measured_us * 100.0
    );
}

// ---------------------------------------------------------------------
// Micros on their own fixtures
// ---------------------------------------------------------------------

/// Every micro that needs no workload: bitmap, common, pagestore, vgraph,
/// the three engines, query planning, session, merge, checkpoint, wire,
/// netio and obs. Fixtures live under one temporary directory.
pub fn layers(tracer: &mut Tracer) -> Result<Metrics> {
    let dir = tempfile::tempdir().map_err(io_err("creating the micro dir"))?;
    let mut out = Metrics::new();
    let mut add = |tracer: &mut Tracer,
                   name: &'static str,
                   f: &mut dyn FnMut(&Path) -> Result<Metrics>|
     -> Result<()> {
        let span = tracer.begin(name);
        let got = f(dir.path());
        tracer.end(span);
        out.extend(got?);
        Ok(())
    };
    add(tracer, "micro.bitmap", &mut |_| Ok(bitmap()))?;
    add(tracer, "micro.common", &mut |_| common())?;
    add(tracer, "micro.pagestore", &mut pagestore)?;
    add(tracer, "micro.vgraph", &mut |_| vgraph())?;
    add(tracer, "micro.core.engine", &mut engines)?;
    add(tracer, "micro.core.session", &mut session)?;
    add(tracer, "micro.wire", &mut |_| wire())?;
    add(tracer, "micro.netio", &mut |_| netio())?;
    Ok(out)
}

fn bitmap() -> Metrics {
    let fill = |salt: u64| {
        let gen = Gen::new(salt);
        let mut bm = Bitmap::zeros(BITMAP_BITS);
        for i in 0..BITMAP_BITS {
            bm.set(i, gen.key(i) & 1 == 1);
        }
        bm
    };
    let (a, b) = (fill(1), fill(2));
    let words = a.num_words() as u64;
    let mut scratch = a.clone();
    let mut word_op = |op: &mut dyn FnMut(&mut Bitmap, &Bitmap)| {
        let (units, secs) = timed_loop(LOOP, || {
            op(&mut scratch, &b);
            black_box(&scratch);
            words
        });
        units / secs / 1e6
    };
    let and = word_op(&mut |x, y| x.and_assign(y));
    let or = word_op(&mut |x, y| x.or_assign(y));
    let and_not = word_op(&mut |x, y| x.and_not_assign(y));
    let (ones, secs) = timed_loop(LOOP, || {
        let mut n = 0;
        for i in a.iter_ones() {
            n += 1;
            black_box(i);
        }
        n
    });
    let mut scratch = Bitmap::zeros(BITMAP_BITS);
    let (bytes, copy_secs) = timed_loop(LOOP, || {
        scratch.copy_from(&a);
        black_box(&scratch);
        BITMAP_BITS / 8
    });
    // Fork as the bitmap layer sees it: clone the parent's column.
    let mut index = BranchBitmapIndex::new();
    index.add_branch(BranchId::MASTER, None);
    index.ensure_rows(BITMAP_BITS);
    for i in a.iter_ones() {
        index.set(BranchId::MASTER, i, true);
    }
    let mut forks = Samples::default();
    for child in 1..=50 {
        let start = Instant::now();
        index.add_branch(BranchId(child), Some(BranchId::MASTER));
        forks.push(start.elapsed());
        index.remove_branch(BranchId(child));
    }
    vec![
        ("bitmap.and_mwords_per_s", and),
        ("bitmap.or_mwords_per_s", or),
        ("bitmap.and_not_mwords_per_s", and_not),
        ("bitmap.iter_ones_m_per_s", ones / secs / 1e6),
        (
            "bitmap.copy_from_gib_per_s",
            bytes / copy_secs / (1u64 << 30) as f64,
        ),
        ("bitmap.branch_index_add_branch_us", forks.p50_us()),
    ]
}

fn common() -> Result<Metrics> {
    let (schema, gen) = (schema(), Gen::new(3));
    let records: Vec<Record> = (0..1024).map(|i| gen.record(gen.key(i), 0)).collect();
    let mut slot = vec![0u8; schema.record_size()];
    let projection = Projection::of(&SELECT_COLS);
    let rate = |(units, secs): (f64, f64)| units / secs / 1e6;
    let encode = rate(timed_loop(LOOP, || {
        for r in &records {
            r.write_to(&schema, &mut slot)
                .expect("record fits its slot");
        }
        black_box(&slot);
        records.len() as u64
    }));
    let decode = rate(timed_loop(LOOP, || {
        for _ in 0..records.len() {
            black_box(Record::read_from(&schema, black_box(&slot)).expect("slot decodes"));
        }
        records.len() as u64
    }));
    let project = rate(timed_loop(LOOP, || {
        for _ in 0..records.len() {
            black_box(
                Record::read_projected(&schema, black_box(&slot), &projection)
                    .expect("slot decodes"),
            );
        }
        records.len() as u64
    }));
    Ok(vec![
        ("common.record_encode_m_per_s", encode),
        ("common.record_decode_m_per_s", decode),
        ("common.record_project_m_per_s", project),
    ])
}

fn pagestore(dir: &Path) -> Result<Metrics> {
    let (schema, gen) = (schema(), Gen::new(4));
    let rows = 200_000u64;
    let path = dir.join("micro.heap");
    let pool = Arc::new(BufferPool::with_env(std_env(), PAGE_BYTES, 512));
    let heap = HeapFile::create(Arc::clone(&pool), &path, schema.clone())?;
    let records: Vec<Record> = (0..rows).map(|i| gen.record(gen.key(i), 0)).collect();
    let start = Instant::now();
    for r in &records {
        heap.append(r)?;
    }
    let append = rows as f64 / start.elapsed().as_secs_f64() / 1e6;
    heap.flush()?;
    let projection = Projection::of(&SELECT_COLS);
    let cursor_rate = |read: &mut dyn FnMut(
        &mut decibel::pagestore::PinnedCursor<'_>,
        u64,
    ) -> Result<()>|
     -> Result<f64> {
        let start = Instant::now();
        let mut cursor = heap.pinned_cursor();
        for idx in 0..rows {
            read(&mut cursor, idx)?;
        }
        Ok(rows as f64 / start.elapsed().as_secs_f64() / 1e6)
    };
    let read = cursor_rate(&mut |c, i| c.read(i).map(|r| drop(black_box(r))))?;
    let read_field = cursor_rate(&mut |c, i| {
        c.read_field(i, 3).map(|v| {
            black_box(v);
        })
    })?;
    let read_projected =
        cursor_rate(&mut |c, i| c.read_projected(i, &projection).map(|r| drop(black_box(r))))?;
    let (hits, hit_secs) = timed_loop(LOOP, || {
        for _ in 0..1000 {
            black_box(heap.page(0).expect("resident page"));
        }
        1000
    });
    // A one-frame pool over the same file: alternating two pages makes every
    // access a miss with an eviction, a read and a CRC check.
    let small = Arc::new(BufferPool::with_env(std_env(), PAGE_BYTES, 1));
    let cold = HeapFile::open(small, &path, schema)?;
    let mut page = 0;
    let (misses, miss_secs) = timed_loop(LOOP, || {
        page ^= 1;
        black_box(cold.page(page).expect("page on disk"));
        1
    });

    let payload = [7u8; RECORD_BYTES as usize];
    let wal = Wal::open_in(&StdEnv, dir.join("micro-nosync.wal"), false)?;
    let mut seal = Duration::ZERO;
    let txns = 2000u64;
    for txn in 1..=txns {
        let start = Instant::now();
        for _ in 0..TXN_INSERTS + TXN_UPDATES {
            wal.append(txn, &payload)?;
        }
        let ticket = wal.seal(txn)?;
        seal += start.elapsed();
        wal.sync(ticket)?;
    }
    let wal = Wal::open_in(&StdEnv, dir.join("micro-sync.wal"), true)?;
    let mut syncs = Samples::default();
    for txn in 1..=100 {
        wal.append(txn, &payload)?;
        let ticket = wal.seal(txn)?;
        let start = Instant::now();
        wal.sync(ticket)?;
        syncs.push(start.elapsed());
    }
    Ok(vec![
        ("pagestore.heap_append_m_per_s", append),
        ("pagestore.cursor_read_m_per_s", read),
        ("pagestore.cursor_read_field_m_per_s", read_field),
        ("pagestore.cursor_read_projected_m_per_s", read_projected),
        ("pagestore.pool_hit_ns", hit_secs / hits * 1e9),
        ("pagestore.pool_miss_us", miss_secs / misses * 1e6),
        (
            "pagestore.wal_append_seal_us",
            seal.as_secs_f64() * 1e6 / txns as f64,
        ),
        ("pagestore.wal_sync_us", syncs.p50_us()),
    ])
}

fn vgraph() -> Result<Metrics> {
    let mut graph = VersionGraph::init();
    let mut creates = Samples::default();
    for b in 1..=GRAPH_BRANCHES {
        // Fork from the head of an earlier branch, then give the new
        // branch a commit of its own, so the graph is a deep tree.
        let from = graph.head(BranchId(b / 2))?;
        let start = Instant::now();
        let id = graph.create_branch(&format!("b{b}"), from)?;
        creates.push(start.elapsed());
        graph.add_commit(id, &[])?;
    }
    let gen = Gen::new(5);
    let mut lcas = Samples::default();
    for i in 0..2000u64 {
        let a = graph.head(BranchId((gen.key(i) % GRAPH_BRANCHES as u64) as u32))?;
        let b = graph.head(BranchId((gen.key(i + 5000) % GRAPH_BRANCHES as u64) as u32))?;
        let start = Instant::now();
        black_box(graph.lca(a, b)?);
        lcas.push(start.elapsed());
    }
    Ok(vec![
        ("vgraph.create_branch_us", creates.p50_us()),
        ("vgraph.lca_us", lcas.p50_us()),
    ])
}

/// Load, scan, commit, fork and space for each engine through `Database`,
/// then merge, diff and the checkpoint cycle on the hybrid one.
fn engines(dir: &Path) -> Result<Metrics> {
    let gen = Gen::new(6);
    let mut out = Metrics::new();
    let kinds = [
        (EngineKind::TupleFirstBranch, "tuple_first"),
        (EngineKind::VersionFirst, "version_first"),
        (EngineKind::Hybrid, "hybrid"),
    ];
    let names: [[&'static str; 5]; 3] = [
        [
            "core.engine.tuple_first.load_m_rows_per_s",
            "core.engine.tuple_first.scan_m_rows_per_s",
            "core.engine.tuple_first.commit_us",
            "core.engine.tuple_first.fork_us",
            "core.engine.tuple_first.bytes_per_user_byte",
        ],
        [
            "core.engine.version_first.load_m_rows_per_s",
            "core.engine.version_first.scan_m_rows_per_s",
            "core.engine.version_first.commit_us",
            "core.engine.version_first.fork_us",
            "core.engine.version_first.bytes_per_user_byte",
        ],
        [
            "core.engine.hybrid.load_m_rows_per_s",
            "core.engine.hybrid.scan_m_rows_per_s",
            "core.engine.hybrid.commit_us",
            "core.engine.hybrid.fork_us",
            "core.engine.hybrid.bytes_per_user_byte",
        ],
    ];
    for ((kind, label), names) in kinds.into_iter().zip(names) {
        let path = dir.join(label);
        let db = Database::create(&path, kind, schema(), &store(false))?;
        let start = Instant::now();
        load(&db, &gen, ENGINE_ROWS)?;
        let load_rate = ENGINE_ROWS as f64 / start.elapsed().as_secs_f64() / 1e6;
        let mut scans = Samples::default();
        for _ in 0..3 {
            let start = Instant::now();
            let rows = db.read(BranchId::MASTER).collect()?;
            scans.push(start.elapsed());
            drop(rows);
        }
        let mut next = ENGINE_ROWS * 2;
        let mut session = db.session();
        let txns = 30;
        let commits = session_txns(&mut session, &gen, ENGINE_ROWS, &mut next, txns)?;
        let mut forks = Samples::default();
        for f in 0..10 {
            session.checkout_branch("master")?;
            let start = Instant::now();
            session.branch(&format!("fork-{f}"))?;
            forks.push(start.elapsed());
        }
        drop(session);
        db.flush()?;
        // Every head holds the same versions: the load plus the inserts.
        let user_bytes = (ENGINE_ROWS + txns * TXN_INSERTS) * RECORD_BYTES;
        out.extend([
            (names[0], load_rate),
            (names[1], ENGINE_ROWS as f64 / scans.p50_us()),
            (names[2], commits.p50_us()),
            (names[3], forks.p50_us()),
            (
                names[4],
                dir_bytes(&path).map_err(io_err("sizing an engine"))? as f64 / user_bytes as f64,
            ),
        ]);
        if kind == EngineKind::Hybrid {
            out.extend(merge_and_checkpoint(db, &path, &gen, &mut next)?);
        }
    }
    Ok(out)
}

/// On the loaded hybrid database: three branches with 5 % updates and 5 %
/// inserts each are diffed against and merged into master; then flush,
/// clean reopen, and a reopen that replays a WAL suffix.
fn merge_and_checkpoint(
    db: Arc<Database>,
    path: &Path,
    gen: &Gen,
    next: &mut u64,
) -> Result<Metrics> {
    let (mut diffs, mut merges) = (Samples::default(), Samples::default());
    let changes = ENGINE_ROWS / 20;
    for b in 0..3u64 {
        let mut session = db.session();
        session.checkout_branch("master")?;
        let id = session.branch(&format!("merge-{b}"))?;
        for j in 0..changes {
            *next += 1;
            session.update(gen.record(gen.key(j * 20 + b), *next as u32))?;
            session.insert(gen.record(gen.key(*next), 0))?;
        }
        session.commit()?;
        drop(session);
        let start = Instant::now();
        black_box(db.diff(BranchId::MASTER, id)?);
        diffs.push(start.elapsed());
        let start = Instant::now();
        db.merge(BranchId::MASTER, id, THREE_WAY)?;
        merges.push(start.elapsed());
    }
    let start = Instant::now();
    db.flush()?;
    let flush_ms = start.elapsed().as_secs_f64() * 1e3;
    drop(db);
    let config = store(false);
    let mut clean = Samples::default();
    for _ in 0..2 {
        let start = Instant::now();
        let db = Database::open(path, &config)?;
        clean.push(start.elapsed());
        drop(db);
    }
    let db = Database::open(path, &config)?;
    let mut session = db.session();
    session_txns(&mut session, gen, ENGINE_ROWS, next, 300)?;
    drop(session);
    drop(db);
    // `open` times its own journal replay into `checkpoint/recovery_us`.
    let config = store(false);
    let db = Database::open(path, &config)?;
    let replay_us = db
        .metrics()
        .snapshot()
        .histogram("checkpoint", "recovery_us")
        .map_or(0, |h| h.sum);
    Ok(vec![
        ("core.merge.diff_ms", diffs.p50_ms()),
        ("core.merge.three_way_ms", merges.p50_ms()),
        ("core.checkpoint.flush_ms", flush_ms),
        ("core.checkpoint.reopen_clean_ms", clean.p50_ms()),
        (
            "core.checkpoint.replay_k_txn_per_s",
            db.replayed_on_open() as f64 / replay_us.max(1) as f64 * 1e3,
        ),
    ])
}

/// In-process `Session` on a small hybrid database: commit with and
/// without fsync, point reads, WAL bytes per user byte, plus query
/// planning and a registry snapshot.
fn session(dir: &Path) -> Result<Metrics> {
    let gen = Gen::new(7);
    let mut commit_us = [0.0; 2];
    let mut out = Metrics::new();
    for (slot, fsync) in [false, true].into_iter().enumerate() {
        let path = dir.join(if fsync { "session-fsync" } else { "session" });
        let db = Database::create(&path, EngineKind::Hybrid, schema(), &store(fsync))?;
        load(&db, &gen, SESSION_ROWS)?;
        db.flush()?;
        let mut next = SESSION_ROWS * 2;
        let mut session = db.session();
        let txns = 50;
        commit_us[slot] = session_txns(&mut session, &gen, SESSION_ROWS, &mut next, txns)?.p50_us();
        if fsync {
            continue;
        }
        let wal_bytes = std::fs::metadata(path.join("wal.log"))
            .map_err(io_err("sizing the WAL"))?
            .len();
        let user_bytes = txns * (TXN_INSERTS + TXN_UPDATES) * RECORD_BYTES;
        let (gets, get_secs) = timed_loop(LOOP, || {
            for i in 0..1000 {
                black_box(session.get(gen.key(i * 7 % SESSION_ROWS)).expect("get"));
            }
            1000
        });
        let pred = Predicate::ColLt(3, 1 << 27);
        let (plans, plan_secs) = timed_loop(LOOP, || {
            for _ in 0..1000 {
                black_box(
                    db.read(BranchId::MASTER)
                        .filter(pred.clone())
                        .select(&SELECT_COLS)
                        .plan(),
                );
            }
            1000
        });
        let (snaps, snap_secs) = timed_loop(LOOP, || {
            black_box(db.metrics().snapshot());
            1
        });
        out.extend([
            (
                "pagestore.wal_bytes_per_user_byte",
                wal_bytes as f64 / user_bytes as f64,
            ),
            ("core.session.get_us", get_secs / gets * 1e6),
            ("core.query.plan_us", plan_secs / plans * 1e6),
            ("obs.snapshot_us", snap_secs / snaps * 1e6),
        ]);
    }
    out.extend([
        ("core.session.commit_nofsync_us", commit_us[0]),
        ("core.session.commit_fsync_us", commit_us[1]),
    ]);
    Ok(out)
}

fn wire() -> Result<Metrics> {
    let (schema, gen) = (schema(), Gen::new(8));
    let payload = vec![0xabu8; 256 << 10];
    let mib = |(units, secs): (f64, f64)| units / secs / (1 << 20) as f64;
    let mut framed = Vec::with_capacity(payload.len() + 8);
    let write_read = mib(timed_loop(LOOP, || {
        framed.clear();
        write_frame(&mut framed, &payload).expect("writing to a Vec");
        black_box(read_frame(&mut framed.as_slice()).expect("framed payload"));
        payload.len() as u64
    }));
    let decoder = mib(timed_loop(LOOP, || {
        let mut decoder = FrameDecoder::new();
        for chunk in framed.chunks(64 << 10) {
            decoder.feed(chunk);
        }
        black_box(decoder.next_frame().expect("framed payload"));
        payload.len() as u64
    }));
    let request = Request::Insert {
        record: gen.record(gen.key(1), 0),
    };
    let (codecs, codec_secs) = timed_loop(LOOP, || {
        for _ in 0..1000 {
            let bytes = request.encode(&schema).expect("request encodes");
            black_box(Request::decode(&bytes, &schema).expect("request decodes"));
        }
        1000
    });
    let n = batch_rows(schema.record_size()) as u64;
    let batch = Response::Batch(
        Projection::all(),
        (0..n).map(|i| gen.record(gen.key(i), 0)).collect(),
    );
    let rate = |(units, secs): (f64, f64)| units / secs / 1e6;
    let encode = rate(timed_loop(LOOP, || {
        black_box(batch.encode(&schema).expect("batch encodes"));
        n
    }));
    // As in the client, decoded rows outlive the timed call: freeing them
    // is not part of decoding.
    let bytes = batch.encode(&schema)?;
    let mut decode_secs = 0.0;
    let mut decoded = Vec::new();
    for _ in 0..20 {
        let start = Instant::now();
        decoded.push(Response::decode(&bytes, &schema)?);
        decode_secs += start.elapsed().as_secs_f64();
    }
    let decode = rate(((n * 20) as f64, decode_secs));
    Ok(vec![
        ("wire.frame_write_read_mib_per_s", write_read),
        ("wire.frame_decoder_mib_per_s", decoder),
        ("wire.request_codec_ns", codec_secs / codecs * 1e9),
        ("wire.batch_encode_m_rows_per_s", encode),
        ("wire.batch_decode_m_rows_per_s", decode),
    ])
}

fn netio() -> Result<Metrics> {
    let poll = Poll::new().map_err(io_err("creating a poll"))?;
    let waker = Waker::new(&poll, Token(0)).map_err(io_err("creating a waker"))?;
    let mut events = Events::with_capacity(4);
    let (wakes, secs) = timed_loop(LOOP, || {
        for _ in 0..100 {
            waker.wake().expect("wake");
            poll.poll(&mut events, Some(Duration::from_secs(1)))
                .expect("poll");
            waker.drain();
        }
        100
    });
    Ok(vec![("netio.waker_roundtrip_us", secs / wakes * 1e6)])
}
