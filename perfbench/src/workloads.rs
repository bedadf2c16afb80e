//! The four workloads.
//!
//! Every run has the same shape: a few *replicas*, one after the other. A
//! replica sets a fresh database up (`setup_s`), runs a fixed-count *probe
//! round* on it — the operations the workload's own phase does not perform,
//! one client, one operation at a time, so that each workload reports every
//! end-to-end metric in its own configuration — and then its share of the
//! workload's *native* phase: its own client count and operation mix, for
//! `--seconds` divided by the number of replicas. Every metric is computed
//! per replica and the run reports the steadiest summary of those values
//! (see [`crate::harness::across_replicas`]). The metrics registry is read
//! across the native phase only, after a checkpoint, so a read workload's
//! registry shows no writes.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use decibel::core::query::Predicate;
use decibel::obs::Snapshot;
use decibel::{DbError, Result};

use crate::affinity::Cpus;
use crate::gen::{self, Branch, Gen, Sum, RECORD_BYTES, SELECT_COLS};
use crate::harness::{across_replicas, peak_rss_mib, Report, Samples, Tracer};
use crate::micro;
use crate::spec;
use crate::world::{Actor, Config, CycleMaster, CycleRec, Kind, MasterHistory, World, KINDS};

/// Distinct selective predicates (one column each).
const PREDICATES: u64 = 4;
/// Selectivity of the selective scan and the cycle's filtered count: 5 %.
const SELECTIVITY_PERMILLE: u64 = 50;
/// `remote_commit_durable`: client 0 checkpoints every this many of its commits.
const FLUSH_EVERY: u64 = 300;
/// `remote_commit_durable`: transactions per client before space is measured.
const SPACE_TXNS: u64 = 500;
/// `remote_commit_durable`: transactions per client after the last
/// checkpoint, so every crash image has the same WAL suffix to replay.
const TAIL_TXNS: u64 = 200;
/// `remote_commit_durable`: crash-image copies reopened per replica.
const CRASH_REOPENS: u64 = 3;
/// `agentic_mixed`: cycles per epoch. An epoch runs on a fresh database and
/// is one replica of the run. A database keeps every branch it ever forked
/// (a clone of the parent's key map and two segments each), so one long run
/// would measure an ever larger database and no two stretches of it alike.
const EPOCH_CYCLES: u64 = 100;

/// Operation counts of one probe round. A traced run does a quarter.
#[derive(Clone, Copy)]
struct ProbeCounts {
    scans: u64,
    gets: u64,
    diffs: u64,
    txns: u64,
    cycles: u64,
    reopens: u64,
}

/// One round per replica (four or six a run).
const ROUND: ProbeCounts = ProbeCounts {
    scans: 18,
    gets: 300,
    diffs: 18,
    txns: 48,
    cycles: 24,
    reopens: 2,
};
/// `agentic_mixed` has a fresh database every epoch (about twelve a run), so
/// its rounds are small.
const EPOCH_ROUND: ProbeCounts = ProbeCounts {
    scans: 6,
    gets: 0,
    diffs: 6,
    txns: 12,
    cycles: 0,
    reopens: 1,
};

pub fn config(workload: &str) -> Config {
    match workload {
        "remote_read_warm" => Config {
            rows: 200_000,
            side_branches: 8,
            pool_pages: 512,
            fsync: false,
            remote: true,
            replicas: 4,
        },
        "remote_commit_durable" => Config {
            rows: 20_000,
            side_branches: 2,
            pool_pages: 512,
            fsync: true,
            remote: true,
            replicas: 6,
        },
        "local_scan_cold" => Config {
            rows: 240_000,
            side_branches: 4,
            pool_pages: 18,
            fsync: false,
            remote: false,
            replicas: 4,
        },
        "agentic_mixed" => Config {
            rows: 20_000,
            side_branches: 4,
            pool_pages: 512,
            fsync: true,
            remote: true,
            replicas: 1, // unused: one per epoch
        },
        other => panic!("unknown workload {other}"),
    }
}

/// Work done in a native phase and the wall time it took. A workload whose
/// native phase does no such work leaves it empty, and the metric comes from
/// the probes' median durations instead.
#[derive(Default, Clone, Copy)]
struct Rate {
    work: f64,
    secs: f64,
}

impl Rate {
    fn add(&mut self, work: f64, secs: f64) {
        self.work += work;
        self.secs += secs;
    }

    fn per_s(&self) -> Option<f64> {
        (self.secs > 0.0).then(|| self.work / self.secs)
    }
}

/// What one replica measured.
#[derive(Default)]
struct Replica {
    setup_s: f64,
    samples: [Samples; KINDS],
    /// Native-phase throughputs.
    scan: Rate,
    txn: Rate,
    cycle: Rate,
    /// Rows the probe scans delivered.
    probe_scan_rows: u64,
    bytes_per_user_byte: f64,
}

impl Replica {
    fn sample(&self, kind: Kind) -> &Samples {
        &self.samples[kind as usize]
    }

    /// Operations per second from the median duration of `kind`: what a
    /// closed-loop client sustains, robust to a stall during a short probe.
    fn per_s_from_p50(&self, kind: Kind) -> f64 {
        1e6 / self.sample(kind).p50_us()
    }

    /// The end-to-end metrics of this replica (all but `peak_rss_mib`, which
    /// the process has one of). `agentic` takes `commit_p50_ms` and
    /// `get_p50_us` from its cycles' commits and read-backs; the others from
    /// 25-write transactions and random point reads.
    fn end_to_end(&self, agentic: bool) -> Vec<(&'static str, f64)> {
        let scan_rows_per_s = self.scan.per_s().unwrap_or_else(|| {
            let busy_us: f64 = [Kind::Q1, Kind::Selective, Kind::Q4]
                .iter()
                .map(|k| self.sample(*k).len() as f64 * self.sample(*k).p50_us())
                .sum();
            self.probe_scan_rows as f64 / busy_us * 1e6
        });
        let (commit, get) = if agentic {
            (Kind::CycleCommit, Kind::CycleGet)
        } else {
            (Kind::Commit, Kind::Get)
        };
        vec![
            ("setup_s", self.setup_s),
            ("scan_rows_per_s", scan_rows_per_s),
            ("q1_scan_p50_ms", self.sample(Kind::Q1).p50_ms()),
            ("q_selective_p50_ms", self.sample(Kind::Selective).p50_ms()),
            ("q4_multi_p50_ms", self.sample(Kind::Q4).p50_ms()),
            ("get_p50_us", self.sample(get).p50_us()),
            (
                "txn_per_s",
                self.txn
                    .per_s()
                    .unwrap_or_else(|| self.per_s_from_p50(Kind::Txn)),
            ),
            ("commit_p50_ms", self.sample(commit).p50_ms()),
            ("fork_p50_us", self.sample(Kind::Fork).p50_us()),
            ("merge_p50_ms", self.sample(Kind::Merge).p50_ms()),
            ("diff_p50_ms", self.sample(Kind::Diff).p50_ms()),
            (
                "cycle_per_s",
                self.cycle
                    .per_s()
                    .unwrap_or_else(|| 2.0 * self.per_s_from_p50(Kind::CyclePair)),
            ),
            ("reopen_p50_ms", self.sample(Kind::Reopen).p50_ms()),
            ("bytes_per_user_byte", self.bytes_per_user_byte),
        ]
    }
}

/// State of one run, across its replicas.
struct Ctx {
    gen: Gen,
    cfg: Config,
    seconds: f64,
    traced: bool,
    epoch: Instant,
    replicas: Vec<Replica>,
    attempted: u64,
    failed: u64,
    stall_max: Duration,
    tracers: Vec<Tracer>,
    /// Registry delta across the (traced) native phase.
    registry: Snapshot,
    /// Native-phase work rates: untraced reference, traced.
    rates: Vec<f64>,
    /// For confining the process to one CPU during probe rounds.
    cpus: Option<Cpus>,
}

impl Ctx {
    /// Replicas of a run; a traced run has one.
    fn replica_count(&self) -> usize {
        if self.traced {
            1
        } else {
            self.cfg.replicas
        }
    }

    /// Seconds one native phase lasts: a replica's share of `--seconds`, or
    /// a quarter of `--seconds` in a traced run (which runs it twice,
    /// untraced then traced).
    fn budget(&self) -> f64 {
        if self.traced {
            self.seconds / 4.0
        } else {
            self.seconds / self.cfg.replicas as f64
        }
    }

    fn count(&self, n: u64) -> u64 {
        if self.traced {
            n.div_ceil(4)
        } else {
            n
        }
    }

    /// Runs the replicas of a workload whose databases are set up alike: set
    /// a database up, run one probe round on it, then `native` — the
    /// replica's native phase and whatever the workload checks and measures
    /// after it; it is handed client 0 and returns every client it used.
    /// Returns the last database.
    fn replicas(
        &mut self,
        probes: &[Probe],
        mut native: impl FnMut(&mut Ctx, &mut World, Actor, &Cycles, &mut Replica) -> Result<Vec<Actor>>,
    ) -> Result<World> {
        let rounds = self.replica_count();
        for round in 1..=rounds {
            let (mut world, took) = World::setup(self.cfg, self.gen)?;
            let mut replica = Replica {
                setup_s: took.as_secs_f64(),
                ..Replica::default()
            };
            let mut first = world.actor(0, self.epoch, self.traced)?;
            let cycles = probe_round(self, &mut replica, &mut world, &mut first, probes, ROUND)?;
            first.tracer.set_enabled(false);
            let actors = native(self, &mut world, first, &cycles, &mut replica)?;
            for a in actors {
                self.absorb(a, &mut replica);
            }
            self.replicas.push(replica);
            if round == rounds {
                return Ok(world);
            }
            world.retire()?;
        }
        unreachable!("at least one replica")
    }

    /// Runs a replica's native phase: for its budget untraced, or in a traced
    /// run a quarter of `--seconds` untraced and then a quarter traced,
    /// reading the registry across the traced part. `phase` returns the work
    /// it did, in its own unit, and the seconds it took.
    fn native(
        &mut self,
        actors: &mut [Actor],
        mut phase: impl FnMut(&mut [Actor], Duration) -> (f64, f64),
    ) -> Result<()> {
        let budget = Duration::from_secs_f64(self.budget());
        if self.traced {
            // Warm-up, so the untraced reference below is not the slower
            // for having gone first.
            phase(actors, budget / 2);
        }
        let (work, secs) = phase(actors, budget);
        self.rates.push(work / secs);
        if self.traced {
            for a in actors.iter_mut() {
                a.tracer.set_enabled(true);
                a.reset_stall_clock();
            }
            let before = actors[0].conn.stats()?;
            let (work, secs) = phase(actors, budget);
            self.rates.push(work / secs);
            self.registry = actors[0].conn.stats()?.diff(&before);
        }
        Ok(())
    }

    /// What the WAL did during the traced native phase (a read workload's
    /// control: nothing).
    fn print_wal_activity(&self) {
        let r = &self.registry;
        println!(
            "registry across the native phase: wal/flushes {}, wal/fsyncs {}, commit/grouped_txns {}, pool/hits {}, pool/misses {}",
            r.counter("wal", "flushes"),
            r.counter("wal", "fsyncs"),
            r.counter("commit", "grouped_txns"),
            r.counter("pool", "hits"),
            r.counter("pool", "misses"),
        );
    }

    /// Folds a finished actor's samples into its replica and its counts
    /// into the run.
    fn absorb(&mut self, actor: Actor, replica: &mut Replica) {
        for (mine, theirs) in replica.samples.iter_mut().zip(&actor.samples) {
            mine.extend(theirs);
        }
        self.attempted += actor.attempted;
        self.failed += actor.failed;
        self.stall_max = self.stall_max.max(actor.stall_max);
        self.tracers.push(actor.tracer);
    }

    /// Every sample of `kind` in the run (the tails are taken over these).
    fn pooled(&self, kind: Kind) -> Samples {
        let mut all = Samples::default();
        for r in &self.replicas {
            all.extend(r.sample(kind));
        }
        all
    }

    /// The end-to-end metrics of the run: each replica's value of each
    /// metric, and the run's value over them.
    fn end_to_end(&self, agentic: bool) -> Vec<(&'static str, f64, Vec<f64>)> {
        let per_replica: Vec<_> = self
            .replicas
            .iter()
            .map(|r| r.end_to_end(agentic))
            .collect();
        let mut out: Vec<(&'static str, f64, Vec<f64>)> = (0..per_replica[0].len())
            .map(|m| {
                let name = per_replica[0][m].0;
                let values: Vec<f64> = per_replica.iter().map(|r| r[m].1).collect();
                (name, across_replicas(&values, spec::better(name)), values)
            })
            .collect();
        let rss = peak_rss_mib();
        out.push(("peak_rss_mib", rss, vec![rss]));
        out
    }
}

/// The agent cycles run against one database, with master's model as it was
/// before the first of them — what `distinct_versions` needs to rebuild the
/// head of every cycle branch.
#[derive(Default)]
struct Cycles {
    master_before: Option<Branch>,
    recs: Vec<CycleRec>,
}

/// Distinct record versions live at any branch head: the modelled heads
/// plus the head of every cycle branch (master as it was at the fork, with
/// the cycle's writes on top).
fn distinct_versions(heads: &[Branch], cycles: &Cycles) -> u64 {
    let mut seen: HashSet<(u64, u32)> = HashSet::new();
    for b in heads {
        seen.extend(b.versions());
    }
    if let Some(before) = &cycles.master_before {
        let gen = Gen::new(0); // `put` wants one for its checksum, unused here
        let mut master = before.clone();
        for rec in &cycles.recs {
            let written: HashSet<u64> = rec.writes.iter().map(|w| w.0).collect();
            seen.extend(master.versions().filter(|(k, _)| !written.contains(k)));
            seen.extend(rec.writes.iter().copied());
            if rec.merged {
                for &(key, tag) in &rec.writes {
                    master.put(&gen, key, tag);
                }
            }
        }
    }
    seen.len() as u64
}

/// The database directory's bytes over the bytes of the distinct record
/// versions live at any branch head.
fn bytes_per_user_byte(world: &World, cycles: &Cycles) -> f64 {
    let versions = distinct_versions(&world.model, cycles);
    world.db_bytes() as f64 / (versions * RECORD_BYTES) as f64
}

fn checkpoint(actor: &mut Actor) {
    let flushed = actor.conn.flush().is_ok();
    actor.check("checkpoint", flushed);
}

/// Checkpoints, then checks every modelled branch head against the model
/// with a full scan.
fn checkpoint_and_verify(world: &World, actor: &mut Actor) {
    checkpoint(actor);
    for (id, model) in world.ids.iter().zip(&world.model) {
        let ok = matches!(actor.conn.q1(*id), Ok(rows) if Sum::of(&rows) == model.full());
        actor.check("state of a branch head", ok);
    }
}

fn selective_predicate(gen: &Gen, p: u64) -> Predicate {
    gen.predicate(p % PREDICATES, SELECTIVITY_PERMILLE)
}

/// The predicate of the agent cycle's filtered count.
fn count_predicate(gen: &Gen) -> Predicate {
    gen.predicate(PREDICATES, SELECTIVITY_PERMILLE)
}

// ---------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------

/// Fixed-count operation groups of a probe round.
#[derive(Clone, Copy, PartialEq)]
enum Probe {
    /// Q1, selective and Q4 scans over the set-up branches.
    Scans,
    /// Selective and Q4 only (Q1 is native to the workload).
    ScansNoQ1,
    Get,
    Diff,
    Txn,
    Cycle,
    Reopen,
}

/// Runs `probes` in order with one client — the whole process confined to
/// one CPU meanwhile (see [`crate::affinity`]) — then checkpoints.
/// Expectations are computed from the model right before each operation,
/// outside its timing. Returns the cycles it ran.
fn probe_round(
    ctx: &Ctx,
    replica: &mut Replica,
    world: &mut World,
    actor: &mut Actor,
    probes: &[Probe],
    counts: ProbeCounts,
) -> Result<Cycles> {
    let gen = world.gen;
    let n_branches = world.ids.len();
    let mut cycles = Cycles::default();
    let _one_cpu = ctx.cpus.as_ref().map(Cpus::confine);
    for &probe in probes {
        match probe {
            Probe::Scans | Probe::ScansNoQ1 => {
                let rows0 = actor.scan_rows;
                let heads: Vec<(u32, &Branch)> = world
                    .ids
                    .iter()
                    .map(|b| b.raw())
                    .zip(&world.model)
                    .collect();
                let q4 = gen::annotated(&gen, &heads);
                for i in 0..ctx.count(counts.scans) {
                    let b = i as usize % n_branches;
                    if probe == Probe::Scans {
                        actor.q1(world.ids[b], |sum| sum == world.model[b].full());
                    }
                    let pred = selective_predicate(&gen, i);
                    let expect = world.model[b].selected(&gen, &pred, &SELECT_COLS);
                    actor.selective(world.ids[b], &pred, expect);
                    actor.q4(&world.ids, q4);
                }
                replica.probe_scan_rows += actor.scan_rows - rows0;
            }
            Probe::Get => {
                actor.conn.checkout(&world.names[1])?;
                for _ in 0..ctx.count(counts.gets) {
                    let key = gen.key(actor.rng.below(world.cfg.rows));
                    actor.get(key, world.model[1].tag(key));
                }
            }
            Probe::Diff => {
                let expect: Vec<(Sum, Sum)> = world
                    .model
                    .iter()
                    .map(|side| gen::diff(&gen, &world.model[0], side))
                    .collect();
                for i in 0..ctx.count(counts.diffs) {
                    let side = 1 + i as usize % (n_branches - 1);
                    actor.diff(&world.db, world.ids[0], world.ids[side], expect[side]);
                }
            }
            Probe::Txn => {
                actor.conn.checkout(&world.names[1])?;
                for _ in 0..ctx.count(counts.txns) {
                    actor.txn(&mut world.model[1], world.cfg.rows);
                }
            }
            Probe::Cycle => {
                cycles.master_before = Some(world.model[0].clone());
                let mut master = CycleMaster::new(
                    &gen,
                    &mut world.model[0],
                    count_predicate(&gen),
                    world.cfg.rows,
                );
                for pair in 0..ctx.count(counts.cycles) / 2 {
                    let start = Instant::now();
                    for i in [2 * pair, 2 * pair + 1] {
                        let rec = actor.cycle(&mut master, i, &format!("probe-{i}"), i % 2 == 0);
                        cycles.recs.extend(rec);
                    }
                    actor.samples[Kind::CyclePair as usize].push(start.elapsed());
                }
            }
            Probe::Reopen => {
                for _ in 0..ctx.count(counts.reopens) {
                    world.reopen_copy(actor)?;
                }
            }
        }
    }
    checkpoint(actor);
    Ok(cycles)
}

// ---------------------------------------------------------------------
// Read phases: remote_read_warm and local_scan_cold
// ---------------------------------------------------------------------

/// Cached expectations for a read-only phase: branches do not change, so
/// every scan's count and checksum is computed once, outside the timing.
struct ReadOracle {
    predicates: Vec<Predicate>,
    /// `[branch][predicate]`
    selected: Vec<Vec<Sum>>,
    q4: Sum,
    /// `diff(master, branch)` per side branch (index 0 unused).
    diffs: Vec<(Sum, Sum)>,
}

impl ReadOracle {
    fn new(world: &World) -> ReadOracle {
        let gen = &world.gen;
        let predicates: Vec<Predicate> = (0..PREDICATES)
            .map(|p| selective_predicate(gen, p))
            .collect();
        let heads: Vec<(u32, &Branch)> = world
            .ids
            .iter()
            .map(|b| b.raw())
            .zip(&world.model)
            .collect();
        ReadOracle {
            selected: world
                .model
                .iter()
                .map(|b| {
                    predicates
                        .iter()
                        .map(|p| b.selected(gen, p, &SELECT_COLS))
                        .collect()
                })
                .collect(),
            q4: gen::annotated(gen, &heads),
            diffs: world
                .model
                .iter()
                .map(|b| gen::diff(gen, &world.model[0], b))
                .collect(),
            predicates,
        }
    }
}

#[derive(Clone, Copy)]
enum ReadOp {
    Q1,
    Selective,
    Q4,
    Get,
    Diff,
}

/// One client of a read phase: shuffles `mix` and runs it, round after
/// round, until `deadline`. `home` is the branch the actor has checked out
/// (point reads go there).
fn read_client(
    world: &World,
    oracle: &ReadOracle,
    actor: &mut Actor,
    home: usize,
    mix: &[ReadOp],
    deadline: Instant,
) {
    let mut round = mix.to_vec();
    let branches = world.ids.len() as u64;
    loop {
        actor.rng.shuffle(&mut round);
        for op in &round {
            if Instant::now() >= deadline {
                return;
            }
            let b = actor.rng.below(branches) as usize;
            match op {
                ReadOp::Q1 => actor.q1(world.ids[b], |sum| sum == world.model[b].full()),
                ReadOp::Selective => {
                    let p = actor.rng.below(PREDICATES) as usize;
                    actor.selective(world.ids[b], &oracle.predicates[p], oracle.selected[b][p]);
                }
                ReadOp::Q4 => actor.q4(&world.ids, oracle.q4),
                ReadOp::Get => {
                    let key = world.gen.key(actor.rng.below(world.cfg.rows));
                    actor.get(key, world.model[home].tag(key));
                }
                ReadOp::Diff => {
                    let side = 1 + actor.rng.below(branches - 1) as usize;
                    actor.diff(&world.db, world.ids[0], world.ids[side], oracle.diffs[side]);
                }
            }
        }
    }
}

/// A read workload: per replica a probe round, then every actor runs `mix`
/// in its own thread until the replica's budget is spent. Scan throughput is
/// rows delivered over the phase's wall time.
fn read_workload(ctx: &mut Ctx, clients: u64, mix: &[ReadOp], probes: &[Probe]) -> Result<World> {
    ctx.replicas(probes, |ctx, world, first, cycles, replica| {
        let oracle = ReadOracle::new(world);
        let mut actors = vec![first];
        for n in 1..clients {
            actors.push(world.actor(n, ctx.epoch, false)?);
        }
        for (n, a) in actors.iter_mut().enumerate() {
            a.conn.checkout(&world.names[n + 1])?;
        }
        ctx.native(&mut actors, |actors, budget| {
            let rows0: u64 = actors.iter().map(|a| a.scan_rows).sum();
            let start = Instant::now();
            let deadline = start + budget;
            std::thread::scope(|s| {
                for (n, actor) in actors.iter_mut().enumerate() {
                    let (world, oracle) = (&*world, &oracle);
                    s.spawn(move || read_client(world, oracle, actor, n + 1, mix, deadline));
                }
            });
            let secs = start.elapsed().as_secs_f64();
            let rows = (actors.iter().map(|a| a.scan_rows).sum::<u64>() - rows0) as f64;
            replica.scan.add(rows, secs);
            (rows, secs)
        })?;
        checkpoint_and_verify(world, &mut actors[0]);
        replica.bytes_per_user_byte = bytes_per_user_byte(world, cycles);
        Ok(actors)
    })
}

fn remote_read_warm(ctx: &mut Ctx) -> Result<World> {
    let mut mix = vec![ReadOp::Q1; 4];
    mix.extend([ReadOp::Selective; 8]);
    mix.extend([ReadOp::Q4; 2]);
    mix.extend([ReadOp::Get; 40]);
    read_workload(
        ctx,
        2,
        &mix,
        &[Probe::Diff, Probe::Txn, Probe::Cycle, Probe::Reopen],
    )
}

fn local_scan_cold(ctx: &mut Ctx) -> Result<World> {
    let mut mix = vec![ReadOp::Q1; 4];
    mix.extend([ReadOp::Selective; 8]);
    mix.extend([ReadOp::Q4; 2]);
    mix.extend([ReadOp::Diff; 2]);
    read_workload(
        ctx,
        1,
        &mix,
        &[Probe::Get, Probe::Txn, Probe::Cycle, Probe::Reopen],
    )
}

// ---------------------------------------------------------------------
// remote_commit_durable
// ---------------------------------------------------------------------

/// Both clients run `n` transactions each, side by side, unsampled.
fn unsampled_txns(actors: &mut [Actor], models: &mut [Branch], rows: u64, n: u64) {
    std::thread::scope(|s| {
        for (actor, model) in actors.iter_mut().zip(models.iter_mut()) {
            s.spawn(move || {
                let kept = std::mem::take(&mut actor.samples);
                for _ in 0..n {
                    actor.txn(model, rows);
                }
                actor.samples = kept;
            });
        }
    });
}

fn remote_commit_durable(ctx: &mut Ctx) -> Result<World> {
    let probes = [Probe::Scans, Probe::Get, Probe::Diff, Probe::Cycle];
    ctx.replicas(&probes, |ctx, world, first, cycles, replica| {
        let rows = world.cfg.rows;
        let mut actors = vec![first, world.actor(1, ctx.epoch, false)?];
        for (n, a) in actors.iter_mut().enumerate() {
            a.conn.checkout(&world.names[n + 1])?;
        }
        // Space is measured after a fixed number of transactions and a
        // checkpoint, so that it repeats; what the timed phase adds depends
        // on how fast the box is today.
        unsampled_txns(
            &mut actors,
            &mut world.model[1..],
            rows,
            ctx.count(SPACE_TXNS),
        );
        checkpoint(&mut actors[0]);
        replica.bytes_per_user_byte = bytes_per_user_byte(world, cycles);
        // Each client owns one side branch and its model for the whole phase.
        let models = &mut world.model[1..];
        ctx.native(&mut actors, |actors, budget| {
            let start = Instant::now();
            let deadline = start + budget;
            let acked = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for (n, (actor, model)) in actors.iter_mut().zip(models.iter_mut()).enumerate() {
                    let acked = &acked;
                    s.spawn(move || {
                        let mut mine = 0u64;
                        while Instant::now() < deadline {
                            if actor.txn(model, rows) {
                                acked.fetch_add(1, Ordering::Relaxed);
                            }
                            mine += 1;
                            if n == 0 && mine.is_multiple_of(FLUSH_EVERY) {
                                checkpoint(actor);
                            }
                        }
                    });
                }
            });
            let secs = start.elapsed().as_secs_f64();
            let txns = acked.into_inner() as f64;
            replica.txn.add(txns, secs);
            (txns, secs)
        })?;
        // A fixed tail after one last checkpoint, so the crash image always
        // has the same number of transactions to replay.
        checkpoint(&mut actors[0]);
        unsampled_txns(&mut actors, models, rows, ctx.count(TAIL_TXNS));
        // The crash image: the quiescent directory as it is, no final
        // checkpoint. Every acknowledged commit must be in each reopened copy.
        for _ in 0..ctx.count(CRASH_REOPENS) {
            world.reopen_copy(&mut actors[0])?;
        }
        checkpoint_and_verify(world, &mut actors[0]);
        Ok(actors)
    })
}

// ---------------------------------------------------------------------
// agentic_mixed
// ---------------------------------------------------------------------

/// One epoch's cycles: client A runs `EPOCH_CYCLES` agent cycles (even:
/// merge into master, odd: abandon) while client B scans master until A is
/// done. Returns the seconds A took.
fn agentic_cycles(
    replica: &mut Replica,
    world: &mut World,
    a: &mut Actor,
    b: &mut Actor,
    cycles: &mut Cycles,
) -> f64 {
    let gen = world.gen;
    let master_id = world.ids[0];
    let history = MasterHistory::new(world.model[0].full());
    cycles.master_before = Some(world.model[0].clone());
    let mut master = CycleMaster::new(
        &gen,
        &mut world.model[0],
        count_predicate(&gen),
        world.cfg.rows,
    );
    master.history = Some(&history);
    let stop = AtomicBool::new(false);
    let go = Barrier::new(2);
    let rows0 = b.scan_rows;
    b.reset_stall_clock();
    let secs = std::thread::scope(|s| {
        s.spawn(|| {
            go.wait();
            while !stop.load(Ordering::Acquire) {
                let first = history.acked.load(Ordering::SeqCst);
                b.q1(master_id, |sum| {
                    let last = history.issued.load(Ordering::SeqCst);
                    history.states.lock().expect("history lock")[first..=last].contains(&sum)
                });
            }
        });
        go.wait();
        let start = Instant::now();
        for i in 0..EPOCH_CYCLES {
            let rec = a.cycle(&mut master, i, &format!("agent-{i}"), i % 2 == 0);
            cycles.recs.extend(rec);
        }
        let secs = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Release);
        secs
    });
    replica.cycle.add(EPOCH_CYCLES as f64, secs);
    replica.scan.add((b.scan_rows - rows0) as f64, secs);
    secs
}

/// Epochs until `budget` seconds of cycle time are spent. Each epoch is a
/// replica: it sets a fresh database up, runs a small probe round, then the
/// cycles; checkpoints, checks the heads and measures space. Returns the
/// last epoch's database.
fn agentic_epochs(ctx: &mut Ctx, budget: f64, traced: bool) -> Result<World> {
    let probes = [Probe::ScansNoQ1, Probe::Diff, Probe::Txn, Probe::Reopen];
    let mut spent = 0.0;
    let mut epochs = 0.0;
    loop {
        let (mut world, took) = World::setup(ctx.cfg, ctx.gen)?;
        let mut replica = Replica {
            setup_s: took.as_secs_f64(),
            ..Replica::default()
        };
        let mut a = world.actor(0, ctx.epoch, traced)?;
        let mut b = world.actor(1, ctx.epoch, traced)?;
        probe_round(ctx, &mut replica, &mut world, &mut a, &probes, EPOCH_ROUND)?;
        let before = a.conn.stats()?;
        let mut cycles = Cycles::default();
        spent += agentic_cycles(&mut replica, &mut world, &mut a, &mut b, &mut cycles);
        epochs += 1.0;
        ctx.registry = a.conn.stats()?.diff(&before);
        checkpoint_and_verify(&world, &mut a);
        replica.bytes_per_user_byte = bytes_per_user_byte(&world, &cycles);
        ctx.absorb(a, &mut replica);
        ctx.absorb(b, &mut replica);
        ctx.replicas.push(replica);
        if spent >= budget {
            ctx.rates.push(epochs * EPOCH_CYCLES as f64 / spent);
            return Ok(world);
        }
        world.retire()?;
    }
}

fn agentic_mixed(ctx: &mut Ctx) -> Result<World> {
    if ctx.traced {
        // Warm-up epoch (see `Ctx::native`).
        agentic_epochs(ctx, 0.0, false)?.retire()?;
        ctx.rates.clear();
    }
    let budget = if ctx.traced {
        ctx.budget()
    } else {
        ctx.seconds
    };
    let mut world = agentic_epochs(ctx, budget, false)?;
    if ctx.traced {
        world.retire()?;
        world = agentic_epochs(ctx, budget, true)?;
    }
    Ok(world)
}

// ---------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------

/// Runs `workload` once and reports its metrics: end-to-end when untraced,
/// per-layer (plus `trace.json` and the stage budgets) when traced.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    out_dir: &std::path::Path,
) -> Result<Report> {
    let mut ctx = Ctx {
        gen: Gen::new(seed),
        cfg: config(workload),
        seconds,
        traced,
        epoch: Instant::now(),
        replicas: Vec::new(),
        attempted: 0,
        failed: 0,
        stall_max: Duration::ZERO,
        tracers: Vec::new(),
        registry: Snapshot::empty(),
        rates: Vec::new(),
        cpus: Cpus::allowed(),
    };
    // The micro loops go first, on a fresh heap: after a workload the
    // allocator's free lists are long, and a loop that allocates (batch
    // decode) ran 3.5 times slower there.
    let mut tracer = Tracer::new(ctx.epoch, true);
    let layers = if traced {
        micro::layers(&mut tracer)?
    } else {
        Vec::new()
    };
    let mut world = match workload {
        "remote_read_warm" => remote_read_warm(&mut ctx),
        "remote_commit_durable" => remote_commit_durable(&mut ctx),
        "local_scan_cold" => local_scan_cold(&mut ctx),
        "agentic_mixed" => agentic_mixed(&mut ctx),
        other => panic!("unknown workload {other}"),
    }?;
    let end_to_end = ctx.end_to_end(workload == "agentic_mixed");
    let mut metrics: Vec<(&'static str, f64)> =
        end_to_end.iter().map(|(name, v, _)| (*name, *v)).collect();
    if traced {
        let on_world = micro::on_world(&mut world, &mut tracer, ctx.cpus.as_ref())?;
        metrics.extend(layers);
        metrics.extend(per_layer_from_run(&ctx, &on_world));
        ctx.tracers.push(tracer);
        ctx.print_wal_activity();
        micro::print_budgets(&on_world, &metrics);
        crate::harness::write_trace(&out_dir.join("trace.json"), &ctx.tracers)
            .map_err(|e| DbError::io("writing trace.json", e))?;
        crate::harness::print_span_summary(&ctx.tracers);
    }
    world.retire()?;
    Ok(Report {
        correct: ctx.failed == 0,
        attempted: ctx.attempted,
        failed: ctx.failed,
        metrics,
        replicas: end_to_end
            .into_iter()
            .map(|(name, _, values)| (name, values))
            .collect(),
    })
}

/// Per-layer metrics that come from the run itself: registry deltas across
/// the traced native phase, latency tails, and tracing overhead.
fn per_layer_from_run(ctx: &Ctx, on_world: &micro::OnWorld) -> Vec<(&'static str, f64)> {
    let r = &ctx.registry;
    let ratio = |num: u64, den: u64, empty: f64| {
        if den == 0 {
            empty
        } else {
            num as f64 / den as f64
        }
    };
    let (hits, misses) = (r.counter("pool", "hits"), r.counter("pool", "misses"));
    let (pushdown, full) = (
        r.counter("scan", "plans_pushdown"),
        r.counter("scan", "plans_full_decode"),
    );
    let p50 = |family, name| r.histogram(family, name).map_or(0, |h| h.quantile(0.5)) as f64;
    let (reference, with_trace) = (ctx.rates[0], ctx.rates[1]);
    vec![
        ("pagestore.pool_hit_ratio", ratio(hits, hits + misses, 1.0)),
        (
            "pagestore.pool_evictions",
            r.counter("pool", "evictions") as f64,
        ),
        (
            "pagestore.pool_crc_verifies",
            r.counter("pool", "crc_verifies") as f64,
        ),
        (
            "pagestore.wal_txns_per_fsync",
            ratio(
                r.counter("commit", "grouped_txns"),
                r.counter("wal", "fsyncs"),
                0.0,
            ),
        ),
        (
            "core.query.rows_scanned_per_emitted",
            ratio(
                r.counter("scan", "rows_scanned"),
                r.counter("scan", "rows_emitted"),
                0.0,
            ),
        ),
        (
            "core.query.pages_pinned_per_query",
            ratio(
                r.counter("scan", "pages_pinned"),
                r.counter("scan", "queries"),
                0.0,
            ),
        ),
        (
            "core.query.pushdown_share",
            ratio(pushdown, pushdown + full, 0.0),
        ),
        (
            "core.session.lock_wait_p50_us",
            p50("commit", "lock_wait_us"),
        ),
        (
            "core.session.shard_contention",
            r.counter("commit", "shard_contention") as f64,
        ),
        ("server.poll_p50_us", p50("server", "poll_us")),
        ("server.requests", r.counter("server", "requests") as f64),
        (
            "server.stream_parks",
            r.counter("server", "stream_parks") as f64,
        ),
        (
            "server.workers_busy_max",
            r.gauge("server", "workers_busy").1 as f64,
        ),
        (
            "server.backlog_max_bytes",
            r.gauge("server", "backlog_bytes").1 as f64,
        ),
        (
            "server.pipeline_depth_max",
            r.gauge("server", "pipeline_depth").1 as f64,
        ),
        ("client.commit_p99_ms", ctx.pooled(Kind::Commit).p99_ms()),
        ("client.q1_scan_p99_ms", ctx.pooled(Kind::Q1).p99_ms()),
        ("client.merge_p99_ms", ctx.pooled(Kind::Merge).p99_ms()),
        (
            "client.reader_stall_max_ms",
            ctx.stall_max.as_secs_f64() * 1e3,
        ),
        (
            "core.query.local_q1_m_rows_per_s",
            on_world.q1_rows / on_world.local_q1_us,
        ),
        (
            "core.query.q4_parallel_over_seq",
            on_world.q4_parallel_over_seq,
        ),
        ("server.empty_rtt_us", on_world.empty_rtt_us),
        (
            "wire.scan_tax_ratio",
            on_world.remote_q1_us / on_world.local_q1_us,
        ),
        (
            "server.commit_handoff_us",
            on_world.remote_commit_us - on_world.local_commit_us - on_world.empty_rtt_us,
        ),
        (
            "trace.overhead_pct",
            (reference - with_trace) / reference * 100.0,
        ),
    ]
}
