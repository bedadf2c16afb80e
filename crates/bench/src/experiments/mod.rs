//! One module per paper table/figure (the index is the `decibel-bench`
//! binary's experiment list).

pub mod ablate;
pub mod branchscale;
pub mod commits;
pub mod gitcmp;
pub mod load;
pub mod merges;
pub mod queries;
pub mod scaling;
pub mod tablewise;

use std::path::Path;

use decibel_common::Result;
use decibel_core::store::VersionedStore;
use decibel_core::types::EngineKind;
use decibel_core::Database;

use crate::loader::{load, LoadReport};
use crate::spec::WorkloadSpec;

/// Run-wide knobs shared by every experiment.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Dataset volume multiplier (1.0 ≈ seconds per experiment).
    pub scale: f64,
    /// Measured repetitions per cell (means are reported).
    pub repeats: usize,
    /// Drop page caches before each measured query (§5's methodology).
    pub cold: bool,
    /// Branches `branchscale` forks per engine.
    pub branches: u64,
    /// Branches between two `branchscale` rows (default: a quarter).
    pub step: Option<u64>,
}

impl Default for Ctx {
    fn default() -> Self {
        Ctx {
            scale: 1.0,
            repeats: 3,
            cold: true,
            branches: 2000,
            step: None,
        }
    }
}

impl Ctx {
    /// A tiny context for tests and criterion benches.
    pub fn smoke() -> Ctx {
        Ctx {
            scale: 0.05,
            repeats: 1,
            cold: true,
            ..Ctx::default()
        }
    }
}

/// Builds a fresh store of the given kind under `dir`, through the same
/// engine factory `Database` uses (the harness measures storage engines
/// below the connection layer, so it takes the bare store).
pub fn build_store(
    kind: EngineKind,
    spec: &WorkloadSpec,
    dir: &Path,
) -> Result<Box<dyn VersionedStore>> {
    let sub = dir.join(format!(
        "{}-{}",
        kind.label().replace(['(', ')'], "_"),
        spec.strategy
    ));
    Database::build_store(kind, sub, spec.schema(), &spec.store_config())
}

/// Builds and loads a store, returning it with its load report.
pub fn build_loaded(
    kind: EngineKind,
    spec: &WorkloadSpec,
    dir: &Path,
) -> Result<(Box<dyn VersionedStore>, LoadReport)> {
    let mut store = build_store(kind, spec, dir)?;
    let report = load(store.as_mut(), spec)?;
    Ok((store, report))
}

/// Most loads [`build_loaded_many`] runs at once.
const MAX_LOAD_THREADS: usize = 8;

/// Builds and loads one store per entry, on one scoped thread per entry
/// (at most eight at a time) — the multi-engine experiments
/// (one dataset per engine, identical op stream) no longer pay
/// engine-count × load-time on multi-core machines. Loads are independent
/// (separate directories, per-load deterministic RNG streams), so the
/// loaded stores are byte-identical to sequential loading; results come
/// back in entry order. Entries whose `(kind, strategy)` coincide must
/// point at distinct directories.
pub fn build_loaded_many(
    entries: &[(EngineKind, WorkloadSpec, &Path)],
) -> Result<Vec<(Box<dyn VersionedStore>, LoadReport)>> {
    let mut out = Vec::with_capacity(entries.len());
    for chunk in entries.chunks(MAX_LOAD_THREADS) {
        std::thread::scope(|s| {
            let loads: Vec<_> = chunk
                .iter()
                .map(|(kind, spec, dir)| s.spawn(move || build_loaded(*kind, spec, dir)))
                .collect();
            for load in loads {
                out.push(load.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
            }
        });
    }
    out.into_iter().collect()
}

/// Mean of a sampling closure run `repeats` times, in milliseconds.
pub fn mean_ms(repeats: usize, mut f: impl FnMut() -> Result<f64>) -> Result<f64> {
    let mut total = 0.0;
    for _ in 0..repeats.max(1) {
        total += f()?;
    }
    Ok(total / repeats.max(1) as f64)
}
