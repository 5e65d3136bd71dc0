//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <spec-exec|bug-matrix|sweep-daemon|sweep-sharded> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! runs the workload untraced for half the budget, replays the same
//! operations (at most [`REPLAY_CAP`]) with spans around every call into
//! a layer, and prints the per-layer metrics (span self times, exact
//! counters, tracing overhead).  The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.  See README.md.

mod layers;
mod runpath;
mod sweeppath;
mod trace;
mod util;

use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::layers::Layers;
use crate::trace::Tracer;
use crate::util::{latency_metrics, median, print_table, Metric};

/// Environment variables that change what the program does or how it
/// reports; the benchmark and every process it starts run without them.
const PINNED_ENV: &[&str] = &[
    "SAN_TRACE",
    "SWEEP_TRACE",
    "SWEEP_CHAOS",
    "SAN_NO_HOIST",
    "SAN_BACKENDS",
    "SAN_PARALLEL",
    "SAN_WORKER",
    "SWEEP_TOKEN",
    "SWEEP_HEARTBEAT_MS",
    "SWEEP_WORKER_BIN",
    "SCALE",
];
const PINNED_PREFIXES: &[&str] = &["SWEEP_BACKOFF_", "SWEEP_TEST_"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SpecExec,
    BugMatrix,
    SweepDaemon,
    SweepSharded,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::SpecExec,
        Workload::BugMatrix,
        Workload::SweepDaemon,
        Workload::SweepSharded,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::SpecExec => "spec-exec",
            Workload::BugMatrix => "bug-matrix",
            Workload::SweepDaemon => "sweep-daemon",
            Workload::SweepSharded => "sweep-sharded",
        }
    }
}

/// The measured phase of a run.
pub struct Phase {
    /// Benchmark × backend results delivered.
    pub cells: u64,
    /// Time spent inside operations (the client's own checking and
    /// bookkeeping between operations is excluded).
    pub elapsed: Duration,
    /// One sample per operation: a cell on the run path, a request on
    /// the sweep path.  Kept as `f32` so the benchmark's own memory stays
    /// small next to the program's in `peak_rss_mb`.
    pub latencies_ms: Vec<f32>,
}

/// Everything one run measured.
pub struct RunSummary {
    pub setups: Vec<Duration>,
    pub rss_kb: u64,
    pub rss_processes: u64,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub phase: Option<Phase>,
    pub layers: Option<Layers>,
    pub tracer: Option<Tracer>,
}

impl RunSummary {
    pub fn new(setups: Vec<Duration>) -> RunSummary {
        RunSummary {
            setups,
            rss_kb: 0,
            rss_processes: 0,
            attempted: 0,
            failures: Vec::new(),
            phase: None,
            layers: None,
            tracer: None,
        }
    }

    /// Record the measured phase, the number of operations attempted in
    /// the whole run, and every failure seen.
    pub fn finish(&mut self, phase: Phase, attempted: u64, failures: Vec<String>) {
        self.phase = Some(phase);
        self.attempted = attempted;
        self.failures = failures;
    }

    fn end_to_end(&self) -> (Vec<Metric>, bool) {
        let phase = self.phase.as_ref().expect("finished run");
        let setups: Vec<f64> = self.setups.iter().map(Duration::as_secs_f64).collect();
        let (p50, p90, p90_backed) = latency_metrics(&phase.latencies_ms);
        let metrics = vec![
            Metric::new("setup_s", "s", median(&setups), setups.len() as u64),
            Metric::new(
                "cells_per_s",
                "1/s",
                phase.cells as f64 / phase.elapsed.as_secs_f64(),
                phase.cells,
            ),
            p50,
            p90,
            Metric::new(
                "peak_rss_mb",
                "MB",
                self.rss_kb as f64 / 1024.0,
                self.rss_processes,
            ),
        ];
        (metrics, p90_backed)
    }
}

/// Every untraced phase runs at least this many operations, so p90 has
/// ten samples beyond it.
pub const MIN_OPS: usize = 100;

/// Drive `op` over `items` until the time spent inside operations
/// reaches `budget` (the first `first_round` items, and at least
/// [`MIN_OPS`], always run), or over exactly `replay` items.  `op` gets
/// the item's index and returns the time the operation itself took;
/// anything it does outside that window (checking the output,
/// bookkeeping) is not counted.  Returns the operations' total time.
pub fn drive<X>(
    items: impl Iterator<Item = X>,
    first_round: usize,
    budget: Duration,
    replay: Option<usize>,
    mut op: impl FnMut(usize, X) -> Duration,
) -> Duration {
    let mut busy = Duration::ZERO;
    for (ran, item) in items.enumerate() {
        let stop = match replay {
            Some(n) => ran >= n,
            None => ran >= first_round.max(MIN_OPS) && busy >= budget,
        };
        if stop {
            break;
        }
        busy += op(ran, item);
    }
    busy
}

/// The traced replay covers at most this many operations, which bounds
/// the trace file (a bug-matrix cell takes ~0.1 ms and records six spans).
pub const REPLAY_CAP: usize = 5000;

/// How many operations of the traced replay came out differently from
/// the same operations of the untraced phase (compared by digest).
pub fn count_mismatches(plain: &[u64], traced: &[u64]) -> usize {
    plain.iter().zip(traced).filter(|(a, b)| a != b).count()
}

/// Tracing overhead in percent: the traced replay's loss of throughput
/// against the untraced phase over the same operations (the replay is a
/// prefix of the untraced phase).
pub fn overhead_pct(plain_latencies_ms: &[f32], traced: Duration) -> f64 {
    let plain_ms: f64 = plain_latencies_ms.iter().map(|&l| f64::from(l)).sum();
    (1.0 - plain_ms / (traced.as_secs_f64() * 1e3)) * 100.0
}

/// The determinism self-check: the untraced and the traced phase ran the
/// same seeded first round, so their exact counters must match bit for
/// bit.
pub fn self_check(traced: &Layers, plain: &Layers, failures: &mut Vec<String>) {
    for ((name, a), (_, b)) in traced.exact().into_iter().zip(plain.exact()) {
        if a.to_bits() != b.to_bits() {
            failures.push(format!(
                "exact counter {name} differs between two runs of one seed: {a} vs {b}"
            ));
        }
    }
}

fn pin_environment() {
    for (key, _) in std::env::vars_os() {
        let Some(key) = key.to_str() else { continue };
        if PINNED_ENV.contains(&key) || PINNED_PREFIXES.iter().any(|p| key.starts_with(p)) {
            std::env::remove_var(key);
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The repository root this binary was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// FNV-1a over the paths and contents of the program's sources, so a
/// result can be tied to the code it measured when no commit id is
/// available (the benchmark may run from an exported tree).
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .into_owned();
        let bytes = std::fs::read(&file).unwrap_or_default();
        for b in rel.as_bytes().iter().chain(&bytes) {
            hash = (hash ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn environment_line() -> String {
    let root = repo_root();
    format!(
        "env commit={} source_digest={} nproc={} rustc=\"{}\"",
        command_line("git", &["rev-parse", "HEAD"], &root).unwrap_or_else(|| "none".to_string()),
        source_digest(&root),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        command_line("rustc", &["--version"], &root).unwrap_or_else(|| "unknown".to_string()),
    )
}

/// Where traces are written: next to the binary, inside the build
/// directory.
fn trace_path(workload: Workload, seed: u64) -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."));
    dir.join("perfbench-traces")
        .join(format!("{}-seed{seed}.jsonl", workload.name()))
}

fn run(args: &Args) -> Result<(), String> {
    let env_line = environment_line();
    println!("{env_line}");
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut summary = match args.workload {
        Workload::SpecExec | Workload::BugMatrix => {
            runpath::run(args.workload, args.seed, args.seconds, args.trace)?
        }
        Workload::SweepDaemon | Workload::SweepSharded => {
            sweeppath::run(args.workload, args.seed, args.seconds, args.trace)?
        }
    };
    let (e2e, p90_backed) = summary.end_to_end();
    let layers = summary.layers.take().map(Layers::into_metrics);
    for m in e2e.iter().chain(layers.iter().flatten()) {
        if !m.value.is_finite() {
            summary
                .failures
                .push(format!("metric {} is not a number", m.name));
        }
    }
    let failed = (summary.failures.len() as u64).min(summary.attempted);
    let failed_frac = failed as f64 / summary.attempted.max(1) as f64;

    println!(
        "end-to-end ({}):",
        if args.trace {
            "of the traced replay; untraced figures come from --trace 0"
        } else {
            "untraced"
        }
    );
    print_table(&e2e);
    println!(
        "  {:<40} {:>16.6} {:<9} n={}",
        "failed_frac", failed_frac, "ratio", summary.attempted
    );
    if !p90_backed {
        println!("  note: fewer than ten samples beyond p90 in this run");
    }
    for failure in summary.failures.iter().take(20) {
        println!("FAIL {failure}");
    }
    let metrics = if args.trace {
        let layers = layers.expect("traced runs fill the per-layer metrics");
        println!("per-layer (traced replay):");
        print_table(&layers);
        if let Some(tracer) = &summary.tracer {
            let path = trace_path(args.workload, args.seed);
            let header = format!("{{\"env\": \"{}\"}}", env_line.replace('"', "\\\""));
            match tracer.write_jsonl(&path, &header) {
                Ok(()) => println!(
                    "trace: {} spans written to {}",
                    tracer.spans().len(),
                    path.display()
                ),
                Err(e) => println!("trace: could not write {}: {e}", path.display()),
            }
        }
        layers
    } else {
        e2e
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                if m.value.is_finite() { m.value } else { 0.0 },
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        summary.failures.is_empty(),
        summary.attempted.max(1),
        failed,
        body.join(", ")
    );
    Ok(())
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; use `cargo run --release`");
        std::process::exit(2);
    }
    pin_environment();
    if let Some(code) = sweeppath::child_role() {
        std::process::exit(code);
    }
    let code = match parse_args().and_then(|args| run(&args)) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}
