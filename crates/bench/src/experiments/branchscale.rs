//! Branch-count scaling: what one more branch costs once a database has
//! forked thousands of times.
//!
//! The paper's branch-count experiment (fig6) stops at 100 branches; agent
//! workloads fork far more often. One cycle forks master, updates one row
//! on the child and commits it, in-process on the [`Database`] facade. At
//! every `step` branches the table reports, per engine: the mean µs per
//! cycle over the step, the files in the engine's `data/` directory, the
//! process's open descriptors (`/proc/self/fd`) and resident set
//! (`/proc/self/status`), the engine's [`StoreStats`], and how long a
//! checkpoint (`Database::flush`) and a reopen from it take. Engines run
//! one after another in one process, so RSS is the process's, earlier
//! engines' freed memory included.
//!
//! [`StoreStats`]: decibel_core::types::StoreStats

use std::path::Path;
use std::time::Instant;

use decibel_common::record::Record;
use decibel_common::schema::{ColumnType, Schema};
use decibel_common::Result;
use decibel_core::types::EngineKind;
use decibel_core::Database;
use decibel_pagestore::StoreConfig;

use crate::experiments::Ctx;
use crate::report::Table;

/// Rows in master before the first fork, at scale 1.
const ROWS: f64 = 20_000.0;

fn rec(key: u64, tag: u64) -> Record {
    Record::new(key, vec![tag, key % 97, key ^ tag, 1])
}

/// Entries of a directory, 0 when it cannot be read.
fn entries(dir: &Path) -> usize {
    std::fs::read_dir(dir).map(|d| d.count()).unwrap_or(0)
}

/// The process's resident set in MiB (0 where `/proc` has no answer).
fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Fork → write → commit cycles up to `ctx.branches` branches on every
/// engine, one row per `ctx.step` branches (default: four steps).
pub fn branchscale(ctx: &Ctx) -> Result<Table> {
    let rows = (ROWS * ctx.scale).max(100.0) as u64;
    let step = ctx.step.unwrap_or((ctx.branches / 4).max(1)).max(1);
    let mut table = Table::new(
        format!(
            "Branch scaling: fork master, update one row, commit ({rows} rows, StoreConfig::default())"
        ),
        &[
            "engine",
            "branches",
            "us/cycle",
            "files",
            "fds",
            "RSS (MiB)",
            "index (KiB)",
            "commit stores (KiB)",
            "flush (ms)",
            "reopen (ms)",
        ],
    );
    for kind in EngineKind::all() {
        let dir = tempfile::tempdir().expect("tempdir");
        let path = dir.path().join("db");
        let config = StoreConfig::default();
        let schema = Schema::new(4, ColumnType::U32);
        let mut db = Database::create(&path, kind, schema, &config)?;
        let mut session = db.session();
        for k in 0..rows {
            session.insert(rec(k, 0))?;
        }
        session.commit()?;
        let mut done = 0u64;
        while done < ctx.branches {
            let n = step.min(ctx.branches - done);
            let start = Instant::now();
            for i in done..done + n {
                session.checkout_branch("master")?;
                session.branch(&format!("b{i}"))?;
                session.update(rec((i * 7919) % rows, i + 1))?;
                session.commit()?;
            }
            let per_cycle = start.elapsed().as_secs_f64() * 1e6 / n as f64;
            done += n;
            let stats = db.with_store(|s| s.stats());
            let (files, fds, rss) = (
                entries(&path.join("data")),
                entries(Path::new("/proc/self/fd")),
                rss_mib(),
            );
            let t = Instant::now();
            db.flush()?;
            let flush_ms = t.elapsed().as_secs_f64() * 1e3;
            drop(session);
            drop(db);
            let t = Instant::now();
            db = Database::open(&path, &config)?;
            let reopen_ms = t.elapsed().as_secs_f64() * 1e3;
            session = db.session();
            table.row(vec![
                kind.label().to_string(),
                done.to_string(),
                format!("{per_cycle:.0}"),
                files.to_string(),
                fds.to_string(),
                format!("{rss:.0}"),
                (stats.index_bytes / 1024).to_string(),
                (stats.commit_store_bytes / 1024).to_string(),
                format!("{flush_ms:.1}"),
                format!("{reopen_ms:.1}"),
            ]);
        }
    }
    Ok(table)
}
