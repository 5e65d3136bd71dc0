//! The perf-trajectory smoke benchmark: a fixed benchmark × backend
//! subset timed with best-of-N wall clock, written to `BENCH_interp.json`
//! so interpreter throughput is tracked across PRs.
//!
//! The subset is deliberately check-heavy (pointer-chasing, tree walks,
//! string/DOM-style code) — the paths the O(1) check hot path targets —
//! plus the uninstrumented baseline for reference.  The benchmark and
//! backend sets are fixed so the JSON is comparable across revisions;
//! only `PERF_SMOKE_REPS` (default 3) and the output path (first CLI
//! argument, default `BENCH_interp.json`) can be overridden.
//!
//! `perf_smoke --compare old.json new.json` diffs two such files and
//! prints a warning for any cell whose `instructions_per_sec` dropped by
//! more than 15%, alongside the per-cell `checks_elided` delta so elision
//! regressions are visible, not just wall-clock ones.  It always exits 0
//! (timing on shared CI runners is noisy, so the comparison is advisory,
//! never gating); only unreadable or malformed input exits non-zero.
//!
//! The hot-site profile of the same matrix is `table_profile`'s job:
//! `table_profile --benchmarks mcf,gobmk,astar,xalancbmk none EffectiveSan
//! EffectiveSan-bounds asan` at the default (Small) scale.
//!
//! Caching and interning change *nothing* observable: the deterministic
//! cost model (`RunReport::cost`) sees identical check counts with or
//! without them, so `cost` rows stay bit-comparable across PRs while
//! `wall_ns` tracks real interpreter speed.  Cache hit rates are reported
//! so the per-site check cache's effect is visible.

use std::time::Instant;

use effective_san::workloads::SpecBenchmark;
use effective_san::{minic, run_program, RunConfig, RunReport, SanitizerKind, Scale};
use sweep::json::json_escape;

/// The fixed benchmark subset (see module docs).
const BENCHMARKS: &[&str] = &["mcf", "gobmk", "astar", "xalancbmk"];

/// The fixed backend subset: uninstrumented reference, the headline
/// EffectiveSan-full backend, the reduced-instrumentation variant, and one
/// baseline comparison tool.
const BACKENDS: &[SanitizerKind] = &[
    SanitizerKind::None,
    SanitizerKind::EffectiveFull,
    SanitizerKind::EffectiveBounds,
    SanitizerKind::AddressSanitizer,
];

struct Row {
    benchmark: &'static str,
    backend: SanitizerKind,
    wall_ns: u128,
    report: RunReport,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        let (Some(old), Some(new)) = (args.get(1), args.get(2)) else {
            eprintln!("usage: perf_smoke --compare <old.json> <new.json>");
            std::process::exit(2);
        };
        std::process::exit(compare(old, new));
    }
    let out_path = args
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_interp.json".to_string());
    let reps: usize = std::env::var("PERF_SMOKE_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r > 0)
        .unwrap_or(3);
    let scale = Scale::Small;

    let mut rows: Vec<Row> = Vec::new();
    for &name in BENCHMARKS {
        let bench = SpecBenchmark::by_name(name)
            .unwrap_or_else(|| panic!("unknown perf_smoke benchmark `{name}`"));
        let source = bench.source(scale);
        let program = minic::compile(&source)
            .unwrap_or_else(|e| panic!("workload {name} failed to compile: {e}"));
        for &backend in BACKENDS {
            let config = RunConfig::for_sanitizer(backend);
            let mut best: Option<(u128, RunReport)> = None;
            for _ in 0..reps {
                let start = Instant::now();
                let report = run_program(&program, "bench_main", &[scale.n()], &config);
                let wall_ns = start.elapsed().as_nanos();
                if best.as_ref().is_none_or(|(b, _)| wall_ns < *b) {
                    best = Some((wall_ns, report));
                }
            }
            let (wall_ns, report) = best.expect("reps >= 1");
            rows.push(Row {
                benchmark: name,
                backend,
                wall_ns,
                report,
            });
        }
    }

    let json = render_json(&rows, reps);
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));

    print_summary(&rows, reps, &out_path);
}

/// Relative throughput drop that triggers a warning in `--compare` mode.
/// Wall-clock noise on shared CI runners sits well under this.
const REGRESSION_THRESHOLD: f64 = 0.15;

/// `--compare old.json new.json`: warn (exit 0 — advisory, never gating)
/// when any benchmark × backend cell lost more than
/// [`REGRESSION_THRESHOLD`] of its `instructions_per_sec`.  Exits 2 only
/// when a file cannot be read or parsed, so CI notices a broken setup.
fn compare(old_path: &str, new_path: &str) -> i32 {
    let (old, new) = match (parse_rows(old_path), parse_rows(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perf_smoke --compare: {e}");
            return 2;
        }
    };
    let mut warned = false;
    println!("perf_smoke — throughput comparison ({old_path} -> {new_path})\n");
    println!(
        "{:<12} {:<22} {:>12} {:>12} {:>9} {:>13}",
        "benchmark", "backend", "old Mi/s", "new Mi/s", "delta", "elided Δ"
    );
    bench::rule(86);
    for (key, cell) in &old {
        let Some(new_cell) = new.get(key) else {
            println!("{:<12} {:<22} missing from {new_path}", key.0, key.1);
            warned = true;
            continue;
        };
        let (old_ips, old_elided) = *cell;
        let (new_ips, new_elided) = *new_cell;
        let delta = (new_ips - old_ips) / old_ips.max(1.0);
        let elided_delta = new_elided as i64 - old_elided as i64;
        let flag = if delta < -REGRESSION_THRESHOLD {
            warned = true;
            "  <-- WARNING: regression"
        } else {
            ""
        };
        println!(
            "{:<12} {:<22} {:>12.1} {:>12.1} {:>+8.1}% {:>+13}{flag}",
            key.0,
            key.1,
            old_ips / 1e6,
            new_ips / 1e6,
            delta * 100.0,
            elided_delta,
        );
    }
    bench::rule(86);
    if warned {
        println!(
            "WARNING: at least one cell regressed by more than {:.0}% \
             instructions/sec (advisory only — timing on shared runners is noisy; \
             rerun locally with PERF_SMOKE_REPS=5 before acting on this)",
            REGRESSION_THRESHOLD * 100.0
        );
    } else {
        println!(
            "no cell regressed by more than {:.0}%",
            REGRESSION_THRESHOLD * 100.0
        );
    }
    0
}

/// Extract `(benchmark, backend) -> (instructions_per_sec, checks_elided)`
/// from a `BENCH_interp.json`.  The file is machine-written one row per
/// line (see [`render_json`]), so a line scan is sufficient and avoids a
/// JSON parser dependency.
#[allow(clippy::type_complexity)]
fn parse_rows(
    path: &str,
) -> Result<std::collections::BTreeMap<(String, String), (f64, u64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut rows = std::collections::BTreeMap::new();
    for line in text.lines() {
        let Some(benchmark) = str_field(line, "benchmark") else {
            continue;
        };
        let backend = str_field(line, "backend")
            .ok_or_else(|| format!("{path}: row without backend: {line}"))?;
        let ips = num_field(line, "instructions_per_sec")
            .ok_or_else(|| format!("{path}: row without instructions_per_sec: {line}"))?;
        // Rows written before wire v5 lack the field; treat as zero so
        // old baselines stay comparable.
        let elided = num_field(line, "checks_elided").unwrap_or(0.0) as u64;
        rows.insert((benchmark, backend), (ips, elided));
    }
    if rows.is_empty() {
        return Err(format!("{path}: no benchmark rows found"));
    }
    Ok(rows)
}

fn str_field(line: &str, key: &str) -> Option<String> {
    let rest = &line[line.find(&format!("\"{key}\":\""))? + key.len() + 4..];
    Some(rest[..rest.find('"')?].to_string())
}

fn num_field(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn instructions_of(r: &RunReport) -> u64 {
    r.exec.instructions + r.exec.check_instructions
}

fn instructions_per_sec(r: &Row) -> f64 {
    if r.wall_ns == 0 {
        return 0.0;
    }
    instructions_of(&r.report) as f64 / (r.wall_ns as f64 / 1e9)
}

fn render_json(rows: &[Row], reps: usize) -> String {
    let mut body: Vec<String> = Vec::new();
    for r in rows {
        let c = &r.report.checks;
        body.push(format!(
            "  {{\"benchmark\":\"{}\",\"backend\":\"{}\",\"wall_ns\":{},\
             \"instructions\":{},\"instructions_per_sec\":{:.1},\
             \"total_checks\":{},\"check_cache_hits\":{},\"check_cache_misses\":{},\
             \"check_cache_hit_rate\":{:.6},\"cost\":{:.1},\"distinct_issues\":{},\
             \"tier_promotions\":{},\"fast_calls\":{},\"checks_elided\":{}}}",
            json_escape(r.benchmark),
            json_escape(r.backend.name()),
            r.wall_ns,
            instructions_of(&r.report),
            instructions_per_sec(r),
            c.total_checks(),
            c.check_cache_hits,
            c.check_cache_misses,
            c.check_cache_hit_rate(),
            r.report.cost,
            r.report.errors.distinct_issues,
            r.report.exec.tier_promotions,
            r.report.exec.fast_calls,
            r.report.exec.checks_elided,
        ));
    }
    let full_total: u128 = rows
        .iter()
        .filter(|r| r.backend == SanitizerKind::EffectiveFull)
        .map(|r| r.wall_ns)
        .sum();
    let base_total: u128 = rows
        .iter()
        .filter(|r| r.backend == SanitizerKind::None)
        .map(|r| r.wall_ns)
        .sum();
    format!(
        "{{\n\"schema\":\"effective-san-perf-smoke/1\",\n\"scale\":\"small\",\n\
         \"reps\":{reps},\n\"effective_full_total_wall_ns\":{full_total},\n\
         \"uninstrumented_total_wall_ns\":{base_total},\n\"rows\":[\n{}\n]\n}}\n",
        body.join(",\n")
    )
}

fn print_summary(rows: &[Row], reps: usize, out_path: &str) {
    println!("perf_smoke — interpreter throughput (scale Small, best of {reps})\n");
    println!(
        "{:<12} {:<22} {:>12} {:>14} {:>10} {:>12}",
        "benchmark", "backend", "wall ms", "Minstr/s", "cache hit", "elided"
    );
    bench::rule(88);
    for r in rows {
        let hitrate = r.report.checks.check_cache_hit_rate();
        println!(
            "{:<12} {:<22} {:>12.2} {:>14.1} {:>9.1}% {:>12}",
            r.benchmark,
            r.backend.name(),
            r.wall_ns as f64 / 1e6,
            instructions_per_sec(r) / 1e6,
            hitrate * 100.0,
            r.report.exec.checks_elided,
        );
    }
    bench::rule(88);
    let full: Vec<&Row> = rows
        .iter()
        .filter(|r| r.backend == SanitizerKind::EffectiveFull)
        .collect();
    let total_ms: f64 = full.iter().map(|r| r.wall_ns as f64 / 1e6).sum();
    println!("EffectiveSan-full total: {total_ms:.2} ms  (wrote {out_path})");
}
