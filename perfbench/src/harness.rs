//! Measurement plumbing shared by the workloads and the micro loops:
//! latency samples and quantiles, the span tracer, process and directory
//! facts, and the result printer.

use std::fs;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::spec::{Better, Metric, END_TO_END, PER_LAYER};

/// Latency samples of one operation kind, in microseconds.
#[derive(Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e6);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// The `q`-quantile in microseconds (nearest rank); panics when empty,
    /// because a workload that reports a metric must have sampled it.
    pub fn quantile_us(&self, q: f64) -> f64 {
        assert!(!self.0.is_empty(), "quantile of an empty sample set");
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v[((v.len() - 1) as f64 * q).round() as usize]
    }

    pub fn p50_us(&self) -> f64 {
        self.quantile_us(0.5)
    }

    pub fn p50_ms(&self) -> f64 {
        self.p50_us() / 1e3
    }

    pub fn p99_ms(&self) -> f64 {
        self.quantile_us(0.99) / 1e3
    }
}

/// The run's value of an end-to-end metric, from its replicas' values: their
/// first quartile counted from the better end (linear interpolation; of three
/// values, the mean of the better two).
///
/// A replica is slower than the code for reasons that have nothing to do with
/// it — the box runs a quarter slower for half a minute, the first replica of
/// a process touches its memory for the first time — and never faster. The median of the replicas moves when half of them are disturbed;
/// the quartile on the good side only when three quarters are. Within a
/// replica every timing is still the median of its samples.
pub fn across_replicas(values: &[f64], better: Better) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if better == Better::Higher {
        v.reverse();
    }
    let pos = (v.len() - 1) as f64 / 4.0;
    let (below, share) = (pos.floor() as usize, pos.fract());
    match v.get(below + 1) {
        Some(next) => v[below] + share * (next - v[below]),
        None => v[below],
    }
}

/// Runs `f` (which returns the units of work it did) until `budget` has
/// passed, at least once; returns (units, seconds).
pub fn timed_loop(budget: Duration, mut f: impl FnMut() -> u64) -> (f64, f64) {
    let start = Instant::now();
    let mut units = 0u64;
    loop {
        units += f();
        let elapsed = start.elapsed();
        if elapsed >= budget {
            return (units as f64, elapsed.as_secs_f64());
        }
    }
}

// ---------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------

/// One recorded span. Times are nanoseconds since the tracer's epoch.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// The operation (request) this span belongs to.
    pub request: u64,
}

/// In-memory span recorder of one client thread. Disabled tracers record
/// nothing, so the untraced run pays one branch per call.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Starts a new request: the outermost spans opened from now on share
    /// its id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes the span `begin` returned (and any left open inside it).
    pub fn end(&mut self, span: Option<usize>) {
        if let Some(idx) = span {
            self.open
                .truncate(self.open.iter().position(|&i| i == idx).unwrap_or(0));
            self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name);
        let out = f();
        self.end(span);
        out
    }
}

/// Per-name totals over the given tracers: (name, count, total s, self s),
/// where self time is a span's duration minus its children's.
pub fn span_summary(tracers: &[Tracer]) -> Vec<(&'static str, u64, f64, f64)> {
    let mut rows: Vec<(&'static str, u64, f64, f64)> = Vec::new();
    for t in tracers {
        let mut child_ns = vec![0u64; t.spans.len()];
        for s in &t.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        for (i, s) in t.spans.iter().enumerate() {
            let total = (s.end_ns - s.start_ns) as f64 / 1e9;
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 / 1e9;
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += total;
                    r.3 += own;
                }
                None => rows.push((s.name, 1, total, own)),
            }
        }
    }
    rows.sort_by(|a, b| b.3.total_cmp(&a.3));
    rows
}

/// Prints the per-layer self-time table of a traced run.
pub fn print_span_summary(tracers: &[Tracer]) {
    println!("spans (self time = span minus its children):");
    println!(
        "  {:<28} {:>9} {:>12} {:>12}",
        "name", "count", "total s", "self s"
    );
    for (name, count, total, own) in span_summary(tracers) {
        println!("  {name:<28} {count:>9} {total:>12.4} {own:>12.4}");
    }
}

/// Writes every span as one JSON array (thread = index of its tracer).
pub fn write_trace(path: &Path, tracers: &[Tracer]) -> io::Result<()> {
    use std::io::Write;
    let mut out = io::BufWriter::new(fs::File::create(path)?);
    writeln!(out, "[")?;
    let mut first = true;
    for (thread, t) in tracers.iter().enumerate() {
        for (id, s) in t.spans.iter().enumerate() {
            if !first {
                writeln!(out, ",")?;
            }
            first = false;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{{\"thread\": {thread}, \"id\": {id}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    writeln!(out, "\n]")?;
    out.flush()
}

// ---------------------------------------------------------------------
// Process, directory and machine facts
// ---------------------------------------------------------------------

fn proc_field(file: &str, field: &str) -> Option<u64> {
    let text = fs::read_to_string(file).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Touches and frees a block of memory, then resets the peak-RSS counter.
///
/// The sandbox's host backs guest memory lazily: the first touch of a page
/// the guest has never used costs several times a later one, and which pages
/// the kernel hands out next is luck. Left alone, that decides whether an
/// allocation-heavy operation (a fork clones a key map) takes 3 ms or 5 ms
/// for a whole run. Touching more memory than any workload needs, once,
/// before anything is timed, puts backed pages on the kernel's free list.
pub fn prefault() {
    let available_mib = proc_field("/proc/meminfo", "MemAvailable:").unwrap_or(0) / 1024;
    let mib = (available_mib / 4).min(2048) as usize;
    let mut block = vec![0u8; mib << 20];
    for i in (0..block.len()).step_by(4096) {
        block[i] = 1;
    }
    drop(std::hint::black_box(block));
    // "5" resets VmHWM to the current RSS, so `peak_rss_mib` is the
    // workload's and not this block's.
    if let Err(e) = fs::write("/proc/self/clear_refs", "5") {
        eprintln!(
            "perfbench: cannot reset peak RSS ({e}); peak_rss_mib includes {mib} MiB of warm-up"
        );
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// `nproc`, kernel release and RAM, read at run time.
pub fn machine_json() -> String {
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let ram_mib = proc_field("/proc/meminfo", "MemTotal:").unwrap_or(0) / 1024;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"kernel\": \"{}\", \"ram_mib\": {ram_mib}}}",
        kernel.trim()
    )
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

// ---------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------

/// What one run of one workload reports.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Each replica's value of each end-to-end metric.
    pub replicas: Vec<(&'static str, Vec<f64>)>,
}

impl Report {
    pub fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"))
            .1
    }

    fn ordered<'a>(&self, specs: impl Iterator<Item = &'a Metric>) -> Vec<(&'a Metric, f64)> {
        specs.map(|spec| (spec, self.value(spec.name))).collect()
    }

    /// The metrics this run must print: every end-to-end metric untraced,
    /// every per-layer metric traced, in spec order.
    pub fn rows(&self, traced: bool) -> Vec<(&'static Metric, f64)> {
        if traced {
            self.ordered(PER_LAYER.iter())
        } else {
            self.ordered(END_TO_END.iter().map(|(spec, _)| spec))
        }
    }

    /// The contract's result line.
    pub fn json_line(&self, traced: bool) -> String {
        let metrics: Vec<String> = self
            .rows(traced)
            .iter()
            .map(|(spec, v)| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    spec.name, spec.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
