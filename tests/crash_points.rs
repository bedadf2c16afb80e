//! Exhaustive crash-point enumeration over the durability path.
//!
//! For every engine kind the harness runs a fixed multi-branch workload
//! (commits on two branches, a merge, two checkpoints) on a [`FaultEnv`]
//! twice over:
//!
//! 1. **Profile pass** — the env is unarmed and only counts mutating IO
//!    ops (writes, fsyncs, renames, truncations, dir syncs). This yields
//!    the op index `k0` where `Database::create` finished and the total
//!    op count `N`, plus the reference fingerprint after every
//!    transaction.
//! 2. **Crash pass, one per op index** — for each `k in k0..N` a fresh
//!    copy of the workload runs with `crash_after(k)` armed: op `k` fails
//!    (landing a torn half-write first on odd `k`) and all IO after it
//!    fails too. The directory is then reopened with the real [`StdEnv`]
//!    and must satisfy the durability contract:
//!
//!    * `Database::open` succeeds — no panic, no unrecoverable state;
//!    * the recovered database equals **some prefix** of the committed
//!      states, at least as long as the prefix of workload steps that
//!      returned `Ok` (an `Ok` commit is fsync-durable and must survive;
//!      a commit whose fsync was the crashed op may legitimately
//!      surface, since its journal record already landed);
//!    * the reopened database accepts one more transaction whose ids
//!      continue the sequence (monotone txn ids — a stale or duplicated
//!      replay would shift them and change the probe fingerprint).
//!
//! `DECIBEL_CRASH_STRIDE` (default 1) subsamples the op indices so CI
//! can trade coverage for time; stride 1 enumerates every op. Each
//! engine's run appends a summary line to
//! `target/crash-matrix-<engine>.json` for the CI artifact.

use std::path::Path;
use std::sync::Arc;

use decibel::common::env::FaultEnv;
use decibel::common::ids::BranchId;
use decibel::common::record::Record;
use decibel::common::schema::{ColumnType, Schema};
use decibel::core::{Database, EngineKind, MergePolicy, VersionRef};
use decibel::pagestore::StoreConfig;
use decibel::DbError;

fn rec(k: u64, tag: u64) -> Record {
    Record::new(k, vec![tag, k % 13])
}

fn schema() -> Schema {
    Schema::new(2, ColumnType::U32)
}

fn fault_config(env: &FaultEnv) -> StoreConfig {
    StoreConfig {
        fsync: true,
        ..StoreConfig::test_default()
    }
    .with_env(Arc::new(env.clone()))
}

/// A deterministic digest of everything recovery must reproduce:
/// branch topology (names, ids, heads) and per-branch live rows.
fn fingerprint(db: &Arc<Database>) -> Result<String, DbError> {
    let mut out = db.with_store(|s| {
        let g = s.graph();
        let mut head = format!(
            "commits={} branches={}\n",
            g.num_commits(),
            g.num_branches()
        );
        let mut branches: Vec<_> = g
            .iter_branches()
            .map(|b| (b.id, b.name.clone(), b.head))
            .collect();
        branches.sort_by_key(|(id, _, _)| *id);
        for (id, name, head_commit) in branches {
            head += &format!("{name}[{}] head={}\n", id.raw(), head_commit.raw());
        }
        head
    });
    let mut branch_ids: Vec<BranchId> =
        db.with_store(|s| s.graph().iter_branches().map(|b| b.id).collect());
    branch_ids.sort();
    for b in branch_ids {
        let mut rows: Vec<(u64, u64)> = db
            .read(VersionRef::Branch(b))
            .collect()?
            .into_iter()
            .map(|r| (r.key(), r.field(0)))
            .collect();
        rows.sort_unstable();
        out += &format!("rows[{}]={rows:?}\n", b.raw());
    }
    Ok(out)
}

/// One workload step: at most **one** journaled transaction, so the set
/// of fingerprints taken after each `Ok` step covers every state a crash
/// can recover to.
type Step = fn(&Arc<Database>) -> Result<(), DbError>;

fn commit_on(
    db: &Arc<Database>,
    branch: &str,
    f: impl FnOnce(&mut decibel::core::Session) -> Result<(), DbError>,
) -> Result<(), DbError> {
    let mut s = db.session();
    s.checkout_branch(branch)?;
    f(&mut s)?;
    s.commit()?;
    Ok(())
}

fn steps() -> Vec<Step> {
    vec![
        |db| {
            commit_on(db, "master", |s| {
                (0..6u64).try_for_each(|k| s.insert(rec(k, 1)))
            })
        },
        |db| {
            let mut s = db.session();
            s.branch("dev")?;
            Ok(())
        },
        |db| {
            commit_on(db, "dev", |s| {
                (10..14u64).try_for_each(|k| s.insert(rec(k, 2)))
            })
        },
        |db| {
            commit_on(db, "master", |s| {
                (20..24u64).try_for_each(|k| s.insert(rec(k, 3)))
            })
        },
        |db| db.flush(),
        |db| {
            commit_on(db, "dev", |s| {
                s.update(rec(10, 77))?;
                s.delete(11).map(|_| ())
            })
        },
        |db| {
            let dev = db.branch_id("dev")?;
            db.merge(
                BranchId::MASTER,
                dev,
                MergePolicy::ThreeWay { prefer_left: false },
            )
            .map(|_| ())
        },
        // dev's first write into the segment it inherited from master,
        // after dev already has commits: that column's history starts
        // here, and the next checkpoint records it.
        |db| commit_on(db, "dev", |s| s.update(rec(0, 6))),
        |db| {
            commit_on(db, "master", |s| {
                (30..33u64).try_for_each(|k| s.insert(rec(k, 4)))
            })
        },
        |db| db.flush(),
        |db| {
            commit_on(db, "master", |s| {
                (40..42u64).try_for_each(|k| s.insert(rec(k, 5)))
            })
        },
    ]
}

struct RunResult {
    /// Number of steps that returned `Ok` before the workload stopped.
    ok_steps: usize,
    /// `states[i]` = fingerprint after `i` successful steps
    /// (`states[0]` is the post-create empty database).
    states: Vec<String>,
    /// Op count right after `Database::create` returned.
    k0: u64,
}

/// Runs create + workload on `env`, stopping at the first error (the
/// armed crash). Never panics: every IO failure surfaces as a typed
/// error from the step.
fn run_workload(kind: EngineKind, path: &Path, env: &FaultEnv) -> RunResult {
    let config = fault_config(env);
    let mut out = RunResult {
        ok_steps: 0,
        states: Vec::new(),
        k0: 0,
    };
    let db = match Database::create(path, kind, schema(), &config) {
        Ok(db) => db,
        Err(_) => return out,
    };
    out.k0 = env.ops();
    match fingerprint(&db) {
        Ok(fp) => out.states.push(fp),
        Err(_) => return out,
    }
    for step in steps() {
        if step(&db).is_err() {
            return out;
        }
        match fingerprint(&db) {
            Ok(fp) => {
                out.states.push(fp);
                out.ok_steps += 1;
            }
            Err(_) => return out,
        }
    }
    out
}

fn stride() -> u64 {
    std::env::var("DECIBEL_CRASH_STRIDE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(1)
}

/// After reopening, one more transaction must succeed and be readable —
/// a duplicated or stale replay shifts the id sequence and breaks the
/// commit itself or the read-back.
fn probe_writable(db: &Arc<Database>) {
    let mut s = db.session();
    s.checkout_branch("master").unwrap();
    s.insert(rec(900, 9)).unwrap();
    s.commit().unwrap();
    let rows: Vec<u64> = db
        .read(VersionRef::Branch(BranchId::MASTER))
        .collect()
        .unwrap()
        .into_iter()
        .map(|r| r.key())
        .collect();
    assert!(
        rows.contains(&900),
        "post-recovery commit not visible on master"
    );
}

fn crash_matrix(kind: EngineKind) {
    // Profile pass: unarmed env counts the mutating IO ops and records
    // the reference state after every transaction.
    let profile_dir = tempfile::tempdir().unwrap();
    let env = FaultEnv::new();
    let profile = run_workload(kind, &profile_dir.path().join("db"), &env);
    let total = env.ops();
    assert_eq!(
        profile.ok_steps,
        steps().len(),
        "{kind:?}: profile pass must complete cleanly"
    );
    assert!(
        total > profile.k0,
        "{kind:?}: workload performed no IO past create"
    );

    // Crashes *inside* `Database::create` leave a half-built directory;
    // there is nothing committed to recover, but reopening must still
    // fail with a typed error rather than panic.
    for k in 0..profile.k0 {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("db");
        let env = FaultEnv::new();
        env.crash_after(k, k % 2 == 1);
        let crashed = run_workload(kind, &path, &env);
        assert_eq!(crashed.ok_steps, 0, "{kind:?} k={k}: create-path crash");
        let _ = Database::open(&path, &StoreConfig::test_default());
    }

    let stride = stride();
    let mut tested = 0u64;
    for k in (profile.k0..total).step_by(stride as usize) {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("db");
        let env = FaultEnv::new();
        // Torn half-writes on odd indices, clean op failure on even.
        env.crash_after(k, k % 2 == 1);
        let crashed = run_workload(kind, &path, &env);
        assert!(
            env.crashed(),
            "{kind:?} k={k}: crash point never fired (profile drift?)"
        );
        assert!(
            crashed.ok_steps < steps().len() || k >= total,
            "{kind:?} k={k}: workload completed despite armed crash"
        );
        // The states seen before the crash must replay the profile run
        // exactly — otherwise op indices don't line up across passes.
        assert_eq!(
            crashed.states,
            profile.states[..crashed.states.len()],
            "{kind:?} k={k}: pre-crash states diverge from profile"
        );

        // Recovery with the real filesystem env.
        let std_config = StoreConfig::test_default();
        let db = match Database::open(&path, &std_config) {
            Ok(db) => db,
            Err(e) => panic!("{kind:?} k={k}: recovery failed: {e}"),
        };
        let recovered = fingerprint(&db)
            .unwrap_or_else(|e| panic!("{kind:?} k={k}: recovered database unreadable: {e}"));
        let matched = profile.states[crashed.ok_steps..]
            .iter()
            .position(|s| *s == recovered);
        assert!(
            matched.is_some(),
            "{kind:?} k={k}: recovered state is not a committed prefix at or past \
             the {} durable steps.\nrecovered:\n{recovered}",
            crashed.ok_steps
        );
        probe_writable(&db);
        tested += 1;
    }

    write_matrix_summary(kind, profile.k0, total, stride, tested);
}

/// One JSON summary per engine under `target/` for the CI artifact.
fn write_matrix_summary(kind: EngineKind, k0: u64, total: u64, stride: u64, tested: u64) {
    let dir = std::env::var("DECIBEL_CRASH_MATRIX_DIR").unwrap_or_else(|_| "target".into());
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let name = format!("{kind:?}").to_lowercase();
    let body = format!(
        "{{\"engine\":\"{kind:?}\",\"create_ops\":{k0},\"total_ops\":{total},\
         \"stride\":{stride},\"crash_points_tested\":{tested},\"violations\":0}}\n"
    );
    let _ = std::fs::write(
        Path::new(&dir).join(format!("crash-matrix-{name}.json")),
        body,
    );
}

#[test]
fn crash_points_tuple_first_branch() {
    crash_matrix(EngineKind::TupleFirstBranch);
}

#[test]
fn crash_points_tuple_first_tuple() {
    crash_matrix(EngineKind::TupleFirstTuple);
}

#[test]
fn crash_points_version_first() {
    crash_matrix(EngineKind::VersionFirst);
}

#[test]
fn crash_points_hybrid() {
    crash_matrix(EngineKind::Hybrid);
}
