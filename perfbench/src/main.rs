//! `perfbench`: the repo's benchmark. See README.md.
//!
//! ```text
//! perfbench run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! perfbench spec        # prints BENCHMARK.json
//! ```
//!
//! Each workload runs in a child process of its own (the runner re-executes
//! itself), which ends its standard output with one JSON result line.

mod affinity;
mod device;
mod gen;
mod harness;
mod micro;
mod spec;
mod workloads;
mod world;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use spec::{Better, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn usage() -> String {
    let mut text = String::from(
        "usage: perfbench run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n       perfbench spec\n\nworkloads:\n",
    );
    for w in &WORKLOADS {
        text += &format!("  {:<24} {}\n", w.name, w.why);
    }
    text += "\nend-to-end metrics (--trace 0), with the bound each may worsen by:\n";
    for (m, bound) in &END_TO_END {
        text += &format!("  {:<24} {:<9} {:>4.0} %\n", m.name, m.unit, bound * 100.0);
    }
    text += "\nper-layer metrics (--trace 1):\n";
    for m in &PER_LAYER {
        text += &format!("  {:<48} {}\n", m.name, m.unit);
    }
    text
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        traced: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.iter().any(|w| w.name == value) {
                    return Err(bad("no such workload"));
                }
                parsed.workload = Some(value.clone());
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err(bad("must be in (0, 60]"));
                }
            }
            "--trace" => {
                parsed.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

/// `perfbench/out`: results, the trace, and temporary directories.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run_one(workload: &str, args: &Args) -> Result<bool, String> {
    let out = out_dir();
    let tmp = out.join("tmp");
    // A killed earlier run may have left its directories behind.
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).map_err(|e| format!("creating {}: {e}", tmp.display()))?;
    // Every temporary directory goes under `out/tmp` (the tempfile shim
    // reads TMPDIR); set before any thread exists.
    std::env::set_var("TMPDIR", &tmp);
    device::precise_timers();
    harness::prefault();
    let machine = harness::machine_json();
    println!(
        "== {workload} seed={} seconds={} trace={} machine={machine}",
        args.seed, args.seconds, args.traced as u8
    );
    let report = workloads::run(workload, args.seed, args.seconds, args.traced, &out)
        .map_err(|e| e.to_string())?;
    // Tab-separated: workload, name, value, unit, bound, direction
    // (check_repeat.sh reads these lines).
    for (m, v) in report.rows(args.traced) {
        assert!(v.is_finite(), "{} is not a number", m.name);
        let better = if m.better == Better::Higher {
            "higher"
        } else {
            "lower"
        };
        let bound = END_TO_END
            .iter()
            .find(|(e, _)| e.name == m.name)
            .map_or("-".to_string(), |(_, b)| b.to_string());
        println!(
            "{workload}\t{:<48}\t{v:.6}\t{}\tbound={bound}\t{better} is better",
            m.name, m.unit
        );
    }
    println!(
        "{workload}: attempted {} operations, {} failed",
        report.attempted, report.failed
    );
    let line = report.json_line(args.traced);
    let file = out.join(format!(
        "result-{workload}-seed{}-trace{}.json",
        args.seed, args.traced as u8
    ));
    let replicas: Vec<String> = report
        .replicas
        .iter()
        .map(|(name, values)| format!("\"{name}\": {values:?}"))
        .collect();
    let full = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"machine\": {machine}, \"result\": {line}, \"replicas\": {{{}}}}}\n",
        args.seed,
        args.seconds,
        replicas.join(", ")
    );
    std::fs::write(&file, full).map_err(|e| format!("writing {}: {e}", file.display()))?;
    println!("{line}");
    Ok(report.correct)
}

/// Marks a process as the child that runs one workload.
const CHILD: &str = "PERFBENCH_CHILD";

/// Runs the named workload, or all four, each in a child process of its
/// own, so set-up time and peak memory are per workload — and so the child
/// starts under a pinned allocator policy. glibc serves a large allocation
/// either from its heap or from a fresh `mmap`, by a threshold that moves
/// with what was freed before; a fork of a 200 000-row master clones an 8 MB
/// key map, and costs 0.9 ms from memory the process kept and 3.5 ms from
/// fresh pages (2 000 page faults). Which it is would be luck unless the
/// threshold is fixed: here at its maximum, with freed memory kept, the state
/// a long-running server settles into. (One arena for all threads would pin
/// it further, and makes two clients' scans 3.5 times slower.)
fn run_children(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut correct = true;
    for w in WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name))
    {
        let status = Command::new(&exe)
            .args(["run", "--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .env(CHILD, "1")
            .env("MALLOC_MMAP_THRESHOLD_", (32u64 << 20).to_string())
            .env("MALLOC_TRIM_THRESHOLD_", (16u64 << 30).to_string())
            .status()
            .map_err(|e| format!("running {}: {e}", w.name))?;
        correct &= status.success();
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            Ok(true)
        }
        Some("run") => parse(&args[1..]).and_then(|parsed| match &parsed.workload {
            Some(w) if std::env::var_os(CHILD).is_some() => run_one(w, &parsed),
            _ => run_children(&parsed),
        }),
        Some("--help" | "-h" | "help") => {
            print!("{}", usage());
            Ok(true)
        }
        _ => Err(usage()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}
