//! Ablations of Decibel's design choices (beyond the paper's headline
//! figures).

use std::time::Instant;

use decibel_bitmap::{Bitmap, CommitStore};
use decibel_common::env::std_env;
use decibel_common::rng::DetRng;
use decibel_common::Result;
use decibel_core::types::EngineKind;

use crate::experiments::{build_loaded, mean_ms, Ctx};
use crate::queries::{all_heads, pick_branch, q1, q4, Pick};
use crate::report::{ms, Table};
use crate::spec::WorkloadSpec;
use crate::strategy::Strategy;

/// Bitmap orientation ablation (§3.1/§5): branch-oriented vs
/// tuple-oriented tuple-first on single- and multi-branch scans.
pub fn ablate_bitmap(ctx: &Ctx) -> Result<Table> {
    let mut table = Table::new(
        format!(
            "Ablation: bitmap orientation (FLAT, 50 branches, scale={})",
            ctx.scale
        ),
        &["orientation", "Q1 child (ms)", "Q4 heads (ms)"],
    );
    let spec = WorkloadSpec::scaled(Strategy::Flat, 50, ctx.scale);
    for kind in [EngineKind::TupleFirstBranch, EngineKind::TupleFirstTuple] {
        let dir = tempfile::tempdir().expect("tempdir");
        let (store, report) = build_loaded(kind, &spec, dir.path())?;
        let mut rng = DetRng::seed_from_u64(31);
        let q1ms = mean_ms(ctx.repeats, || {
            let b = pick_branch(&report, Pick::FlatChild, &mut rng)?;
            Ok(q1(store.as_ref(), b.into(), ctx.cold)?.ms())
        })?;
        let heads = all_heads(store.as_ref());
        let q4ms = mean_ms(ctx.repeats, || {
            Ok(q4(store.as_ref(), &heads, ctx.cold)?.ms())
        })?;
        table.row(vec![kind.label().to_string(), ms(q1ms), ms(q4ms)]);
    }
    Ok(table)
}

/// Commit-layer ablation (§3.2): checkout latency with the two-layer
/// composite-delta chain vs a single base-delta chain, as commit depth
/// grows.
pub fn ablate_commit_layers(ctx: &Ctx) -> Result<Table> {
    let mut table = Table::new(
        "Ablation: commit-history layering (checkout of deepest commit)".to_string(),
        &["commits", "layered (ms)", "unlayered (ms)", "file (KB)"],
    );
    let rows_per_commit = (200.0 * ctx.scale).max(10.0) as u64;
    for n_commits in [16u64, 64, 256] {
        let dir = tempfile::tempdir().expect("tempdir");
        let mut store = CommitStore::create_in(std_env(), dir.path().join("c"), 16)?;
        let mut rng = DetRng::seed_from_u64(41);
        let mut bm = Bitmap::new();
        let mut rows = 0u64;
        for _ in 0..n_commits {
            // A commit interval's worth of inserts + a few updates.
            for _ in 0..rows_per_commit {
                bm.set(rows, true);
                rows += 1;
            }
            for _ in 0..rows_per_commit / 5 {
                let r = rng.below(rows);
                bm.set(r, !bm.get(r));
            }
            store.append_commit(&bm)?;
        }
        let layered = mean_ms(ctx.repeats, || {
            let t = Instant::now();
            store.checkout(n_commits - 1)?;
            Ok(t.elapsed().as_secs_f64() * 1e3)
        })?;
        let unlayered = mean_ms(ctx.repeats, || {
            let t = Instant::now();
            store.checkout_unlayered(n_commits - 1)?;
            Ok(t.elapsed().as_secs_f64() * 1e3)
        })?;
        table.row(vec![
            n_commits.to_string(),
            ms(layered),
            ms(unlayered),
            (store.file_size() / 1024).to_string(),
        ]);
    }
    Ok(table)
}

/// Loading-mode ablation (§4.2): clustered vs interleaved tuple-first
/// loading on flat, which Figure 7's TF-clustered bar summarizes.
pub fn ablate_clustered(ctx: &Ctx) -> Result<Table> {
    let mut table = Table::new(
        format!(
            "Ablation: clustered vs interleaved TF load (FLAT, scale={})",
            ctx.scale
        ),
        &["mode", "Q1 child (ms)", "load (s)"],
    );
    for clustered in [false, true] {
        let mut spec = WorkloadSpec::scaled(Strategy::Flat, 50, ctx.scale);
        spec.clustered = clustered;
        let dir = tempfile::tempdir().expect("tempdir");
        let (store, report) = build_loaded(EngineKind::TupleFirstBranch, &spec, dir.path())?;
        let mut rng = DetRng::seed_from_u64(43);
        let q1ms = mean_ms(ctx.repeats, || {
            let b = pick_branch(&report, Pick::FlatChild, &mut rng)?;
            Ok(q1(store.as_ref(), b.into(), ctx.cold)?.ms())
        })?;
        table.row(vec![
            if clustered {
                "clustered"
            } else {
                "interleaved"
            }
            .to_string(),
            ms(q1ms),
            format!("{:.2}", report.duration.as_secs_f64()),
        ]);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablations_smoke() {
        let ctx = Ctx::smoke();
        assert!(ablate_bitmap(&ctx).unwrap().render().contains("TF(tuple)"));
        assert!(ablate_commit_layers(&ctx).unwrap().render().contains("256"));
        assert!(ablate_clustered(&ctx)
            .unwrap()
            .render()
            .contains("clustered"));
    }
}
