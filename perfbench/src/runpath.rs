//! The run path: source text → `RunReport`, in process.
//!
//! * `spec-exec` — SPEC-like benchmark × backend cells at
//!   `Scale::Reference`.  Round `r` runs every benchmark once, in a seeded
//!   order, under backend `(offset[b] + r) mod 13` with a seeded offset
//!   per benchmark, so consecutive rounds walk the whole matrix.
//! * `bug-matrix` — seeded-bug catalogue entry × backend cells; round `r`
//!   is a seeded permutation of the whole matrix, and each entry function
//!   gets a seeded argument.
//!
//! Untimed: source generation, the slow-tier references.  Timed: each
//! cell from source text to its `RunReport` (`compile` + `run_program`).
//! The traced phase replays the same cells through the public calls
//! `run_program` is made of (`compile`, `instrument`, `Vm::new`,
//! `Vm::run`, `finish`), each inside a span.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use effective_san::effective_runtime::{ReporterConfig, RuntimeConfig};
use effective_san::lowfat::AllocatorConfig;
use effective_san::vm::{Value, Vm, VmConfig, VmError};
use effective_san::workloads::{catalogue, Scale, SpecBenchmark};
use effective_san::{
    compile, instrument, run_program, ErrorKind, RunConfig, RunReport, SanitizerKind,
};

use crate::layers::{Delivered, Layers, VmSample};
use crate::trace::Tracer;
use crate::util::{digest, ms, vm_hwm_kb, Rng};
use crate::{drive, Phase, RunSummary, Workload};

/// One program the draw can pick.
pub struct Source {
    pub name: String,
    pub text: String,
    pub entry: &'static str,
    /// The error class EffectiveSan-full must report (bug-matrix only).
    pub expected: Option<ErrorKind>,
}

/// One cell of the draw.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Cell {
    pub source: usize,
    pub kind: SanitizerKind,
    pub arg: i64,
}

/// A seeded draw: the sources and a deterministic sequence of rounds.
pub struct Draw {
    pub sources: Vec<Source>,
    workload: Workload,
    seed: u64,
    offsets: Vec<usize>,
    args: Vec<i64>,
}

const KINDS: [SanitizerKind; 13] = SanitizerKind::ALL;

/// How many times a run performs its set-up; `setup_s` is the median.
const SETUP_REPS: usize = 9;

impl Draw {
    pub fn new(workload: Workload, seed: u64) -> Draw {
        let sources: Vec<Source> = match workload {
            Workload::SpecExec => SpecBenchmark::all()
                .into_iter()
                .map(|b| Source {
                    name: b.name.to_string(),
                    text: b.source(Scale::Reference),
                    entry: "bench_main",
                    expected: None,
                })
                .collect(),
            Workload::BugMatrix => catalogue()
                .into_iter()
                .map(|bug| Source {
                    name: bug.id.to_string(),
                    text: format!(
                        "{}\nint probe_main(int n) {{ {}(); return n; }}\n",
                        bug.decls, bug.entry
                    ),
                    entry: "probe_main",
                    expected: Some(bug.expected),
                })
                .collect(),
            _ => unreachable!("run-path draw for a sweep workload"),
        };
        let mut offsets = Rng::new(seed, 1);
        let mut args = Rng::new(seed, 2);
        Draw {
            offsets: sources.iter().map(|_| offsets.below(KINDS.len())).collect(),
            args: sources
                .iter()
                .map(|_| match workload {
                    Workload::SpecExec => Scale::Reference.n(),
                    _ => 1 + args.below(1000) as i64,
                })
                .collect(),
            sources,
            workload,
            seed,
        }
    }

    /// The cells of round `r`.
    pub fn round(&self, r: usize) -> Vec<Cell> {
        let mut rng = Rng::new(self.seed, 1000 + r as u64);
        let mut cells: Vec<Cell> = match self.workload {
            Workload::SpecExec => (0..self.sources.len())
                .map(|s| Cell {
                    source: s,
                    kind: KINDS[(self.offsets[s] + r) % KINDS.len()],
                    arg: self.args[s],
                })
                .collect(),
            _ => (0..self.sources.len())
                .flat_map(|s| {
                    KINDS.iter().map(move |&kind| Cell {
                        source: s,
                        kind,
                        arg: self.args[s],
                    })
                })
                .collect(),
        };
        rng.shuffle(&mut cells);
        cells
    }
}

/// The `VmConfig` `run_program` builds for `RunConfig::for_sanitizer`.
fn vm_config(kind: SanitizerKind, slow_tier: bool) -> VmConfig {
    let run = RunConfig::for_sanitizer(kind);
    let mut config = VmConfig {
        sanitizer: kind,
        runtime: RuntimeConfig {
            reporter: ReporterConfig {
                mode: run.report_mode,
                abort_after: run.abort_after,
            },
            allocator: AllocatorConfig {
                quarantine_blocks: run.quarantine_blocks,
            },
        },
        max_instructions: run.max_instructions,
        profile: run.profile,
        ..Default::default()
    };
    if slow_tier {
        config.promote_after_calls = u32::MAX;
    }
    config
}

/// `run_program` taken apart into its public calls, each in a span.
/// Returns the report and the IR sizes before and after instrumentation.
fn run_decomposed(
    source: &Source,
    cell: Cell,
    slow_tier: bool,
    tracer: &mut Tracer,
    group: u64,
) -> Result<(RunReport, usize, usize), String> {
    let kind = Some(cell.kind);
    let program = tracer
        .span("minic.compile", kind, group, || compile(&source.text))
        .map_err(|e| format!("{}: compile error: {e}", source.name))?;
    let instrumented = tracer.span("instrument", kind, group, || {
        instrument(&program, cell.kind)
    });
    let (ir_before, ir_after) = (
        program.instruction_count(),
        instrumented.instruction_count(),
    );
    let static_checks = instrumented.check_count();
    let run = RunConfig::for_sanitizer(cell.kind);
    let mut vm = tracer.span("vm.new", kind, group, || {
        Vm::new(Arc::new(instrumented), vm_config(cell.kind, slow_tier))
    });
    let started = Instant::now();
    let outcome = tracer.span("vm.run", kind, group, || {
        vm.run(source.entry, &[Value::Int(cell.arg)])
    });
    let wall_time = started.elapsed();
    let (result, vm_error) = match outcome {
        Ok(v) => (Some(v.as_int()), None),
        Err(VmError::Halted) => (None, Some(VmError::Halted.to_string())),
        Err(e) => (None, Some(e.to_string())),
    };
    let exec = vm.stats();
    let checks = vm.backend().stats();
    let errors = vm.backend().error_stats();
    let diagnostics = tracer.span("san_api.finish", kind, group, || vm.backend_mut().finish());
    let cost = run.cost_model.cost(&exec, &checks);
    let legacy_check_fraction = if checks.type_checks > 0 {
        checks.legacy_type_checks as f64 / checks.type_checks as f64
    } else {
        0.0
    };
    let report = RunReport {
        sanitizer: cell.kind,
        result,
        vm_error,
        exec,
        checks,
        errors,
        diagnostics,
        wall_time,
        cost,
        peak_memory_bytes: vm.peak_memory_bytes(),
        legacy_check_fraction,
        static_checks,
    };
    Ok((report, ir_before, ir_after))
}

/// Digest of everything the slow tier must agree on: the report minus
/// wall time, the tier counters and the cost estimate (which prices
/// executed checks), with the fast tier's check elision folded back in —
/// executed + elided bounds/access checks equal the slow tier's executed
/// ones.
fn canonical_digest(report: &RunReport) -> u64 {
    let mut r = report.clone();
    r.checks.bounds_checks += r.checks.access_checks + r.exec.checks_elided;
    r.checks.access_checks = 0;
    r.exec.checks_elided = 0;
    r.exec.tier_promotions = 0;
    r.exec.fast_calls = 0;
    r.cost = 0.0;
    report_digest(&r)
}

/// Digest of a whole report except its wall time.
fn report_digest(report: &RunReport) -> u64 {
    let mut r = report.clone();
    r.wall_time = Duration::ZERO;
    let mut lines = Vec::new();
    sweep::wire::encode_run_report(&r, &mut lines);
    digest(&lines)
}

/// One timed cell, as `run_program` would have reported it.
struct Timed {
    report: Result<RunReport, String>,
    latency: Duration,
    ir: Option<(usize, usize)>,
}

fn run_untraced(source: &Source, cell: Cell) -> Timed {
    let started = Instant::now();
    let report = compile(&source.text)
        .map(|program| {
            run_program(
                &program,
                source.entry,
                &[cell.arg],
                &RunConfig::for_sanitizer(cell.kind),
            )
        })
        .map_err(|e| format!("{}: compile error: {e}", source.name));
    Timed {
        report,
        latency: started.elapsed(),
        ir: None,
    }
}

fn run_traced(source: &Source, cell: Cell, tracer: &mut Tracer, group: u64) -> Timed {
    let started = Instant::now();
    let root = tracer.begin("cell", Some(cell.kind), group);
    let out = run_decomposed(source, cell, false, tracer, group);
    tracer.end(root);
    let latency = started.elapsed();
    match out {
        Ok((report, before, after)) => Timed {
            report: Ok(report),
            latency,
            ir: Some((before, after)),
        },
        Err(e) => Timed {
            report: Err(e),
            latency,
            ir: None,
        },
    }
}

/// Everything kept from one phase: compact per-cell records, plus the
/// full reports of the first round.
#[derive(Default)]
struct Log {
    latencies_ms: Vec<f32>,
    busy: Duration,
    failures: Vec<String>,
    digests: Vec<u64>,
    first_round: Vec<Delivered>,
    ir: Vec<(usize, usize)>,
    samples: Vec<VmSample>,
}

/// Check one cell against its slow-tier reference (computed once per
/// distinct cell), and against the expected detection.
fn check(
    draw: &Draw,
    cell: Cell,
    report: &RunReport,
    references: &mut BTreeMap<Cell, Result<u64, String>>,
) -> Option<String> {
    let source = &draw.sources[cell.source];
    let what = format!("{} under {}", source.name, cell.kind.name());
    if let Some(e) = &report.vm_error {
        return Some(format!("{what}: VM error: {e}"));
    }
    let reference = references.entry(cell).or_insert_with(|| {
        run_decomposed(source, cell, true, &mut Tracer::new(false), 0)
            .map(|(slow, _, _)| canonical_digest(&slow))
    });
    match reference {
        Err(e) => return Some(format!("{what}: reference run failed: {e}")),
        Ok(digest) if *digest != canonical_digest(report) => {
            return Some(format!("{what}: differs from the slow-tier reference"))
        }
        Ok(_) => {}
    }
    match (source.expected, cell.kind) {
        (Some(expected), SanitizerKind::EffectiveFull)
            if report.errors.issues_of(expected) == 0 =>
        {
            Some(format!("{what}: expected a {} report", expected.name()))
        }
        _ => None,
    }
}

/// Run one phase: rounds of the draw until `budget` is spent inside
/// cells, or a replay of exactly `replay` cells.  Each cell is checked
/// right after it is timed.  A traced run (`traced_run`) also keeps each
/// cell's digest, and its replay the VM timing samples.
fn phase(
    draw: &Draw,
    budget: Duration,
    replay: Option<usize>,
    traced_run: bool,
    references: &mut BTreeMap<Cell, Result<u64, String>>,
    mut run: impl FnMut(&Source, Cell, u64) -> Timed,
) -> Log {
    let first_round = draw.round(0).len();
    let mut log = Log::default();
    let cells = (0..).flat_map(|r| draw.round(r));
    let busy = drive(cells, first_round, budget, replay, |i, cell| {
        let source = &draw.sources[cell.source];
        let timed = run(source, cell, i as u64);
        log.latencies_ms.push(ms(timed.latency) as f32);
        match &timed.report {
            Err(e) => {
                log.failures.push(e.clone());
                if traced_run {
                    log.digests.push(0);
                }
            }
            Ok(report) => {
                log.failures.extend(check(draw, cell, report, references));
                if traced_run {
                    log.digests.push(report_digest(report));
                }
                if i < first_round {
                    log.first_round.push(Delivered {
                        bench: source.name.clone(),
                        report: report.clone(),
                    });
                    log.ir.extend(timed.ir);
                }
                if traced_run && replay.is_some() {
                    log.samples.push(VmSample::of(&source.name, report));
                }
            }
        }
        timed.latency
    });
    log.busy = busy;
    log
}

/// Set-up: generate the sources, then warm up: compile each source, and
/// instrument it and build its VM for every backend.  On `bug-matrix`,
/// where a cell is cheap, every cell of the first round also runs once.
/// Returns the draw.
fn setup(workload: Workload, seed: u64) -> Result<Draw, String> {
    let draw = Draw::new(workload, seed);
    for source in &draw.sources {
        let program =
            compile(&source.text).map_err(|e| format!("{}: compile error: {e}", source.name))?;
        for kind in KINDS {
            let vm = Vm::new(Arc::new(instrument(&program, kind)), vm_config(kind, false));
            std::hint::black_box(vm);
        }
    }
    if workload == Workload::BugMatrix {
        for cell in draw.round(0) {
            std::hint::black_box(run_untraced(&draw.sources[cell.source], cell));
        }
    }
    Ok(draw)
}

pub fn run(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Result<RunSummary, String> {
    let mut setups = Vec::new();
    let mut draw = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        draw = Some(setup(workload, seed)?);
        setups.push(t.elapsed());
    }
    let draw = draw.expect("at least one setup");
    let budget = Duration::from_secs(seconds);
    let mut summary = RunSummary::new(setups);
    summary.rss_processes = 1;
    let mut references = BTreeMap::new();

    if !trace {
        let log = phase(
            &draw,
            budget,
            None,
            false,
            &mut references,
            |source, cell, _| run_untraced(source, cell),
        );
        summary.rss_kb = vm_hwm_kb("self").unwrap_or(0);
        let n = log.latencies_ms.len() as u64;
        summary.finish(
            Phase {
                cells: n,
                elapsed: log.busy,
                latencies_ms: log.latencies_ms,
            },
            n,
            log.failures,
        );
        return Ok(summary);
    }

    // Traced run: the untraced loop for half the budget, then the same
    // cells again inside spans.
    let plain = phase(
        &draw,
        budget / 2,
        None,
        true,
        &mut references,
        |source, cell, _| run_untraced(source, cell),
    );
    let mut tracer = Tracer::new(true);
    let traced = phase(
        &draw,
        budget,
        Some(plain.latencies_ms.len().min(crate::REPLAY_CAP)),
        true,
        &mut references,
        |source, cell, group| run_traced(source, cell, &mut tracer, group),
    );
    summary.rss_kb = vm_hwm_kb("self").unwrap_or(0);
    let mut failures = plain.failures.clone();
    failures.extend(traced.failures.iter().cloned());
    let mismatched = crate::count_mismatches(&plain.digests, &traced.digests);
    if mismatched > 0 {
        failures.push(format!(
            "{mismatched} traced cell outcomes differ from the untraced ones"
        ));
    }

    let mut layers = Layers::new();
    let mut plain_layers = Layers::new();
    layers.set_counters(&traced.first_round);
    plain_layers.set_counters(&plain.first_round);
    crate::self_check(&layers, &plain_layers, &mut failures);
    let different = Draw::new(workload, seed.wrapping_add(1));
    if different.round(0) == draw.round(0) && different.args == draw.args {
        failures.push("a different seed gave the same draw".to_string());
    }
    let n = traced.ir.len() as u64;
    let mean = |f: fn(&(usize, usize)) -> usize| {
        traced.ir.iter().map(|i| f(i) as f64).sum::<f64>() / n.max(1) as f64
    };
    layers.set("minic.ir_instrs", mean(|i| i.0), n);
    layers.set("instrument.ir_instrs", mean(|i| i.1), n);
    layers.set_vm_timings(&traced.samples);
    layers.set_span(&tracer, "minic.compile", "minic.compile_ms", 1e-6);
    layers.set_span(&tracer, "instrument", "instrument.ms", 1e-6);
    layers.set_span(&tracer, "vm.new", "vm.new_ms", 1e-6);
    layers.set_span(&tracer, "san_api.finish", "san_api.finish_ms", 1e-6);
    let ops = plain.latencies_ms.len();
    let replayed = traced.latencies_ms.len();
    let overhead = crate::overhead_pct(&plain.latencies_ms[..replayed], traced.busy);
    layers.set("trace.overhead_pct", overhead, replayed as u64);
    summary.tracer = Some(tracer);
    summary.layers = Some(layers);
    let n = traced.latencies_ms.len() as u64;
    summary.finish(
        Phase {
            cells: n,
            elapsed: traced.busy,
            latencies_ms: traced.latencies_ms,
        },
        (ops as u64) + n,
        failures,
    );
    Ok(summary)
}
