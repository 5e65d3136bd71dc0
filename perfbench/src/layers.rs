//! The per-layer metrics of the traced run.
//!
//! Every traced run reports every metric named here, on every workload.
//! A layer the workload's client cannot observe (compile time inside a
//! sweep worker, say) reads 0; README.md lists which workload each
//! metric belongs to and which end-to-end metric it should move.
//!
//! Exact counters are per-report means over the *first round* of the
//! draw, which every run executes in full, so they repeat bit for bit for
//! a given seed.  Timings are means over the traced phase.

use std::collections::BTreeMap;

use effective_san::{RunReport, SanitizerKind};

use crate::trace::Tracer;
use crate::util::Metric;

/// Fixed per-layer metrics: name and unit.
pub const FIXED: &[(&str, &str)] = &[
    ("minic.compile_ms", "ms"),
    ("minic.ir_instrs", "count"),
    ("instrument.ms", "ms"),
    ("instrument.ir_instrs", "count"),
    ("instrument.static_checks", "count"),
    ("vm.new_ms", "ms"),
    ("vm.minstr_per_s", "Minstr/s"),
    ("vm.guest_instrs", "count"),
    ("vm.check_instrs", "count"),
    ("vm.checks_elided", "count"),
    ("vm.tier_promotions", "count"),
    ("vm.fast_calls", "count"),
    ("vm.cost", "cycles"),
    ("runtime.checks", "count"),
    ("runtime.check_cache_hit_rate", "ratio"),
    ("runtime.distinct_issues", "count"),
    ("lowfat.peak_memory_bytes", "bytes"),
    ("san_api.finish_ms", "ms"),
    ("net.connect_ms", "ms"),
    ("serve.accept_ms", "ms"),
    ("serve.first_row_ms", "ms"),
    ("serve.stream_ms", "ms"),
    ("worker.compute_ms", "ms"),
    ("sweep.non_compute_ms", "ms"),
    ("wire.bytes_per_row", "bytes"),
    ("wire.encode_us_per_row", "us"),
    ("wire.decode_us_per_row", "us"),
    ("coordinator.sweep_ms", "ms"),
    ("coordinator.non_compute_ms", "ms"),
    ("serve.shards_done", "count"),
    ("serve.shards_failed", "count"),
    ("serve.steals", "count"),
    ("serve.busy_rejected", "count"),
    ("trace.overhead_pct", "%"),
];

/// The exact counters of the determinism self-check.
pub const EXACT: &[&str] = &[
    "vm.guest_instrs",
    "vm.check_instrs",
    "vm.checks_elided",
    "instrument.static_checks",
    "vm.cost",
    "wire.bytes_per_row",
];

pub fn run_ms_name(kind: SanitizerKind) -> String {
    format!("vm.run_ms.{}", kind.name())
}

pub fn hooks_name(kind: SanitizerKind) -> String {
    format!("hooks.extra_ms.{}", kind.name())
}

/// Every per-layer metric, in report order: name and unit.
pub fn all() -> Vec<(String, &'static str)> {
    let mut out: Vec<_> = FIXED.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for kind in SanitizerKind::ALL {
        out.push((run_ms_name(kind), "ms"));
    }
    for kind in SanitizerKind::ALL.into_iter().skip(1) {
        out.push((hooks_name(kind), "ms"));
    }
    out
}

/// One report delivered to the client, tagged with its benchmark (SPEC
/// name or seeded-bug id).
#[derive(Clone, Debug)]
pub struct Delivered {
    pub bench: String,
    pub report: RunReport,
}

/// What the VM timings need from one report.
pub struct VmSample {
    pub bench: String,
    pub kind: SanitizerKind,
    pub run_ms: f64,
    pub instrs: u64,
}

impl VmSample {
    pub fn of(bench: &str, report: &RunReport) -> VmSample {
        VmSample {
            bench: bench.to_string(),
            kind: report.sanitizer,
            run_ms: report.wall_time.as_secs_f64() * 1e3,
            instrs: report.exec.instructions + report.exec.check_instructions,
        }
    }
}

/// The per-layer metric set of one run, pre-filled with zeros.
pub struct Layers {
    metrics: BTreeMap<String, Metric>,
}

impl Layers {
    pub fn new() -> Layers {
        Layers {
            metrics: all()
                .into_iter()
                .map(|(name, unit)| (name.clone(), Metric::new(name, unit, 0.0, 0)))
                .collect(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        let metric = self
            .metrics
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown per-layer metric `{name}`"));
        metric.value = value;
        metric.samples = samples;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics[name].value
    }

    /// The exact counters, for the determinism self-check.
    pub fn exact(&self) -> Vec<(&'static str, f64)> {
        EXACT.iter().map(|&n| (n, self.get(n))).collect()
    }

    pub fn into_metrics(self) -> Vec<Metric> {
        let order = all();
        let mut metrics = self.metrics;
        order
            .into_iter()
            .map(|(name, _)| metrics.remove(&name).expect("every metric pre-filled"))
            .collect()
    }

    /// Exact counters: per-report means over the first round.
    pub fn set_counters(&mut self, first_round: &[Delivered]) {
        let n = first_round.len() as u64;
        let mean = |f: &dyn Fn(&RunReport) -> f64| {
            first_round.iter().map(|d| f(&d.report)).sum::<f64>() / n.max(1) as f64
        };
        self.set("vm.guest_instrs", mean(&|r| r.exec.instructions as f64), n);
        self.set(
            "vm.check_instrs",
            mean(&|r| r.exec.check_instructions as f64),
            n,
        );
        self.set(
            "vm.checks_elided",
            mean(&|r| r.exec.checks_elided as f64),
            n,
        );
        self.set(
            "vm.tier_promotions",
            mean(&|r| r.exec.tier_promotions as f64),
            n,
        );
        self.set("vm.fast_calls", mean(&|r| r.exec.fast_calls as f64), n);
        self.set("vm.cost", mean(&|r| r.cost), n);
        self.set(
            "instrument.static_checks",
            mean(&|r| r.static_checks as f64),
            n,
        );
        self.set("runtime.checks", mean(&|r| r.total_checks() as f64), n);
        self.set(
            "runtime.distinct_issues",
            mean(&|r| r.errors.distinct_issues as f64),
            n,
        );
        self.set(
            "lowfat.peak_memory_bytes",
            mean(&|r| r.peak_memory_bytes as f64),
            n,
        );
        let hits: u64 = first_round
            .iter()
            .map(|d| d.report.checks.check_cache_hits)
            .sum();
        let misses: u64 = first_round
            .iter()
            .map(|d| d.report.checks.check_cache_misses)
            .sum();
        if hits + misses > 0 {
            self.set(
                "runtime.check_cache_hit_rate",
                hits as f64 / (hits + misses) as f64,
                hits + misses,
            );
        }
    }

    /// VM timings from the reports' own `wall_time` (time in `Vm::run`):
    /// per-backend means, the hook estimate against `uninstrumented` on
    /// the same benchmarks, and the instruction rate.
    pub fn set_vm_timings(&mut self, samples: &[VmSample]) {
        let mut per_cell: BTreeMap<(SanitizerKind, &str), (f64, u64)> = BTreeMap::new();
        for s in samples {
            let e = per_cell.entry((s.kind, &s.bench)).or_default();
            e.0 += s.run_ms;
            e.1 += 1;
        }
        for kind in SanitizerKind::ALL {
            let runs: Vec<f64> = samples
                .iter()
                .filter(|s| s.kind == kind)
                .map(|s| s.run_ms)
                .collect();
            if !runs.is_empty() {
                let mean = runs.iter().sum::<f64>() / runs.len() as f64;
                self.set(&run_ms_name(kind), mean, runs.len() as u64);
            }
            if kind == SanitizerKind::None {
                continue;
            }
            // Mean over benchmarks seen under both this backend and the
            // uninstrumented baseline.
            let extras: Vec<f64> = per_cell
                .iter()
                .filter(|((k, _), _)| *k == kind)
                .filter_map(|((_, bench), (sum, n))| {
                    let (base_sum, base_n) = per_cell.get(&(SanitizerKind::None, *bench))?;
                    Some(sum / *n as f64 - base_sum / *base_n as f64)
                })
                .collect();
            if !extras.is_empty() {
                let mean = extras.iter().sum::<f64>() / extras.len() as f64;
                self.set(&hooks_name(kind), mean, extras.len() as u64);
            }
        }
        let instrs: u64 = samples.iter().map(|s| s.instrs).sum();
        let run_ms: f64 = samples.iter().map(|s| s.run_ms).sum();
        if run_ms > 0.0 {
            self.set(
                "vm.minstr_per_s",
                instrs as f64 / run_ms / 1e3,
                samples.len() as u64,
            );
        }
    }

    /// Mean self time per span of `span` (all backend tags together),
    /// scaled from ns by `per_ns` (1e-6 for ms, 1e-3 for us).
    pub fn set_span(&mut self, tracer: &Tracer, span: &str, metric: &str, per_ns: f64) {
        let (count, self_ns) = tracer
            .self_times()
            .iter()
            .filter(|((name, _), _)| *name == span)
            .fold((0, 0), |(c, t), (_, s)| (c + s.count, t + s.self_ns));
        if count > 0 {
            self.set(metric, self_ns as f64 / count as f64 * per_ns, count);
        }
    }
}
