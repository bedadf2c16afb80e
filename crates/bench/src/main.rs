//! The `decibel-bench` binary: regenerates every table and figure from the
//! paper's evaluation (§5) plus three ablations of this implementation's
//! own design choices.
//!
//! ```text
//! decibel-bench <experiment|all> [--scale F] [--repeats N] [--warm] [--json DIR]
//!               [--branches N] [--step S]
//! ```
//!
//! Experiments: fig6a fig6b fig7 fig8 fig9 fig10 fig11 table2 table3
//! table4 table5 table6 table7 ablate-bitmap ablate-commit-layers
//! ablate-clustered, and `branchscale` (fork-write-commit cycles to
//! `--branches` branches, default 2000, one row per `--step`; not part of
//! `all`). Scale 1.0 keeps each experiment in the seconds-to-
//! minutes range; the paper's shapes (who wins, by what factor) are the
//! reproduction target, not absolute numbers. `--json DIR` writes each
//! experiment's table as `DIR/<name>.json`.
//!
//! This binary reproduces the paper; the repo's own performance record —
//! end-to-end and per-layer, local and over the wire — is `perfbench/`
//! (see README "Benchmark").

use decibel_bench::experiments::{self, Ctx};
use decibel_bench::report::Table;
use decibel_common::Result;

const EXPERIMENTS: &[&str] = &[
    "fig6a",
    "fig6b",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "ablate-bitmap",
    "ablate-commit-layers",
    "ablate-clustered",
];

fn run_one(name: &str, ctx: &Ctx) -> Result<Table> {
    match name {
        "fig6a" => experiments::scaling::fig6a(ctx),
        "fig6b" => experiments::scaling::fig6b(ctx),
        "fig7" => experiments::queries::fig7(ctx),
        "fig8" => experiments::queries::fig8(ctx),
        "fig9" => experiments::queries::fig9(ctx),
        "fig10" => experiments::queries::fig10(ctx),
        "fig11" => experiments::tablewise::fig11(ctx),
        "table2" => experiments::commits::table2(ctx),
        "table3" => experiments::merges::table3(ctx),
        "table4" => experiments::tablewise::table4(ctx),
        "table5" => experiments::load::table5(ctx),
        "table6" => experiments::gitcmp::table6(ctx),
        "table7" => experiments::gitcmp::table7(ctx),
        "ablate-bitmap" => experiments::ablate::ablate_bitmap(ctx),
        "ablate-commit-layers" => experiments::ablate::ablate_commit_layers(ctx),
        "ablate-clustered" => experiments::ablate::ablate_clustered(ctx),
        "branchscale" => experiments::branchscale::branchscale(ctx),
        other => Err(decibel_common::DbError::Invalid(format!(
            "unknown experiment {other:?}; known: {} branchscale",
            EXPERIMENTS.join(" ")
        ))),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        eprintln!(
            "usage: decibel-bench <experiment|all> [--scale F] [--repeats N] [--warm] [--json DIR] \
             [--branches N] [--step S]"
        );
        eprintln!("experiments: {} branchscale", EXPERIMENTS.join(" "));
        std::process::exit(2);
    }
    let mut ctx = Ctx::default();
    let mut names: Vec<String> = Vec::new();
    let mut json_dir: Option<std::path::PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                i += 1;
                json_dir = Some(args.get(i).map(Into::into).unwrap_or_else(|| {
                    eprintln!("--json needs a directory");
                    std::process::exit(2);
                }));
            }
            "--scale" => {
                i += 1;
                ctx.scale = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--scale needs a number");
                    std::process::exit(2);
                });
            }
            "--repeats" => {
                i += 1;
                ctx.repeats = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--repeats needs a number");
                    std::process::exit(2);
                });
            }
            "--branches" => {
                i += 1;
                ctx.branches = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--branches needs a number");
                    std::process::exit(2);
                });
            }
            "--step" => {
                i += 1;
                ctx.step = Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--step needs a number");
                    std::process::exit(2);
                }));
            }
            "--warm" => ctx.cold = false,
            name => names.push(name.to_string()),
        }
        i += 1;
    }
    if names.iter().any(|n| n == "all") {
        names = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    for name in &names {
        let start = std::time::Instant::now();
        match run_one(name, &ctx) {
            Ok(table) => {
                table.print();
                if let Some(dir) = &json_dir {
                    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| {
                        std::fs::write(dir.join(format!("{name}.json")), table.to_json())
                    }) {
                        eprintln!("writing {name}.json failed: {e}");
                        std::process::exit(1);
                    }
                }
                eprintln!(
                    "[{name} completed in {:.1}s]\n",
                    start.elapsed().as_secs_f64()
                );
            }
            Err(e) => {
                eprintln!("{name} failed: {e}");
                std::process::exit(1);
            }
        }
    }
}
