//! Two-tier differential suite: the slow tier is the semantic oracle for
//! the fast tier.
//!
//! Every program here runs twice per backend — once with tiering forced
//! on as aggressively as possible (promotion on the first call, on-stack
//! replacement on the first backward jump, so *every* activation and
//! every loop exercises the fast tier and the OSR entry path), and once
//! with tiering disabled entirely.  Everything observable must be
//! bit-identical: the run result or `VmError`, every `ExecStats` counter
//! except the two tier counters themselves, the backend's unified check
//! statistics, its error statistics, the rendered diagnostics, and the
//! program's `print` output.
//!
//! There is no relaxation: every check site makes its backend call in
//! both tiers, so the raw `bounds_checks` and `access_checks` counts match
//! exactly and `checks_elided` is 0 in both.
//!
//! The corpus is deliberately the adversarial end of the repo: all ten
//! conformance scenarios (which fault, halt and quarantine) across all
//! 13 registered backends, the C assignment forms (`op=`, prefix and
//! postfix `++`/`--`, multi-declarators) across all 13 backends, the spec
//! workloads at test scale (loop-heavy, so OSR actually fires), an
//! abort-after-one run that makes the fast tier halt mid-function,
//! instruction budgets that expire inside a promoted loop, and generated
//! straight-line runs of repeated checks interleaved with opaque calls
//! and `free`s, which change check outcomes between otherwise repeated
//! checks.

use std::sync::Arc;

use effective_san::effective_runtime::{ErrorStats, ReporterConfig, RuntimeConfig};
use effective_san::minic::Program;
use effective_san::vm::{ExecStats, Value, Vm, VmConfig, VmError};
use effective_san::workloads::SpecBenchmark;
use effective_san::{instrument, minic, Diagnostic, ReportMode, SanStats, SanitizerKind, Scale};
use proptest::prelude::*;

/// Everything observable about one execution, minus the tier counters.
#[derive(Debug, PartialEq)]
struct Observed {
    result: Result<Value, VmError>,
    exec: ExecStats,
    checks: SanStats,
    errors: ErrorStats,
    diagnostics: Vec<Diagnostic>,
    output: Vec<String>,
}

fn run_once(
    program: &Arc<Program>,
    kind: SanitizerKind,
    entry: &str,
    args: &[Value],
    abort_after: Option<u64>,
    fast: bool,
) -> Observed {
    let (promote, osr) = if fast { (1, 1) } else { (u32::MAX, u32::MAX) };
    let config = VmConfig {
        sanitizer: kind,
        runtime: RuntimeConfig {
            reporter: ReporterConfig {
                mode: ReportMode::Log,
                abort_after,
            },
            ..Default::default()
        },
        promote_after_calls: promote,
        osr_after_backjumps: osr,
        ..Default::default()
    };
    let mut vm = Vm::new(program.clone(), config);
    let result = vm.run(entry, args);
    let mut exec = vm.stats();
    if fast {
        assert!(
            exec.tier_promotions > 0,
            "aggressive config never promoted — the fast tier was not exercised"
        );
    } else {
        assert_eq!(exec.tier_promotions, 0, "disabled config promoted anyway");
        assert_eq!(exec.fast_calls, 0, "disabled config ran the fast tier");
    }
    assert_eq!(exec.checks_elided, 0, "no tier elides a check");
    // The tier counters are the only fields allowed to differ freely.
    exec.tier_promotions = 0;
    exec.fast_calls = 0;
    Observed {
        result,
        exec,
        checks: vm.backend().stats(),
        errors: vm.backend().error_stats(),
        diagnostics: vm.backend_mut().finish(),
        output: vm.output().to_vec(),
    }
}

fn assert_tiers_agree(source: &str, kind: SanitizerKind, args: &[Value], abort_after: Option<u64>) {
    let program = minic::compile(source).expect("compile");
    let instrumented = Arc::new(instrument(&program, kind));
    let fast = run_once(&instrumented, kind, "run", args, abort_after, true);
    let slow = run_once(&instrumented, kind, "run", args, abort_after, false);
    assert_eq!(
        fast, slow,
        "fast and slow tier disagree under {kind} (abort_after={abort_after:?})"
    );
}

/// The conformance scenarios (same sources as `conformance.rs`), chosen
/// because between them they fault in every way the runtime can fault:
/// spatial and temporal errors, type confusion, faults inside a builtin,
/// quarantine churn, and clean completion.
const FAULTING_SOURCES: &[&str] = &[
    // oob-write
    "int run(int n) {
        int *a = (int *)malloc(16 * sizeof(int));
        a[16] = n;
        free(a);
        return 0;
    }",
    // oob-read in a loop (OSR fires mid-scan)
    "int run(int n) {
        int *a = (int *)malloc(16 * sizeof(int));
        int s = 0;
        for (int i = 0; i <= 16; i++) { s += a[i]; }
        free(a);
        return s + n;
    }",
    // use-after-free
    "struct uaf_obj { int payload[4]; };
    int uaf_read(struct uaf_obj *o) { return o->payload[0]; }
    int run(int n) {
        struct uaf_obj *o = (struct uaf_obj *)malloc(sizeof(struct uaf_obj));
        o->payload[0] = n;
        free(o);
        return uaf_read(o);
    }",
    // bad downcast
    "class Grammar { virtual int gtype(); int gkind; };
    class SchemaGrammar : public Grammar { int schema_info; };
    class DTDGrammar : public Grammar { int dtd_info; };
    Grammar *next_element(void) {
        DTDGrammar *d = new DTDGrammar;
        d->gkind = 2;
        return (Grammar *)d;
    }
    int run(int n) {
        Grammar *g = next_element();
        SchemaGrammar *sg = (SchemaGrammar *)g;
        int x = sg->schema_info;
        sg->gkind = x + n;
        return 0;
    }",
    // sub-object overflow
    "struct account { int number[8]; float balance; };
    int run(int n) {
        struct account *a = (struct account *)malloc(sizeof(struct account));
        int *num = a->number;
        num[8] = n;
        free(a);
        return 0;
    }",
    // red-zone skip
    "int run(int n) {
        int *a = (int *)malloc(16 * sizeof(int));
        a[24] = n;
        free(a);
        return 0;
    }",
    // far-OOB memcpy (faults inside the builtin, between fast-tier ticks)
    "int run(int n) {
        int *a = (int *)malloc(16 * sizeof(int));
        int *b = (int *)malloc(16 * sizeof(int));
        b[0] = n;
        memcpy(a, b, 256);
        free(b);
        free(a);
        return 0;
    }",
    // quarantine exhaustion
    "int qread(int *p) { return p[0]; }
    int run(int n) {
        int **blocks = (int **)malloc(80 * sizeof(int *));
        for (int i = 0; i < 80; i++) {
            blocks[i] = (int *)malloc(16 * sizeof(int));
        }
        int *first = blocks[0];
        first[0] = n;
        for (int i = 0; i < 80; i++) { free(blocks[i]); }
        free(blocks);
        return qread(first);
    }",
    // uaf-between-dominated-checks: the second `d->a` access looks
    // covered by the first, but the intervening `free(dead)` can rebind
    // the very allocation `d` points into (the last call passes dead ==
    // d), so both accesses must consult the allocator in both tiers.
    "struct duo { int a; int b; };
    int touch(struct duo *d, struct duo *dead) {
        d->a = d->a + 1;
        free(dead);
        return d->a;
    }
    int run(int n) {
        struct duo *s1 = (struct duo *)malloc(sizeof(struct duo));
        struct duo *s2 = (struct duo *)malloc(sizeof(struct duo));
        struct duo *v = (struct duo *)malloc(sizeof(struct duo));
        v->a = n;
        touch(v, s1);
        touch(v, s2);
        return touch(v, v);
    }",
    // same-type reuse-after-free
    "struct same_obj { int field[6]; };
    int same_read(struct same_obj *o) { return o->field[0]; }
    int run(int n) {
        struct same_obj *a = (struct same_obj *)malloc(sizeof(struct same_obj));
        a->field[0] = n;
        free(a);
        struct same_obj *b = (struct same_obj *)malloc(sizeof(struct same_obj));
        b->field[0] = 5;
        int v = same_read(a);
        free(b);
        return v;
    }",
];

#[test]
fn faulting_scenarios_agree_across_all_backends() {
    for kind in SanitizerKind::ALL {
        for source in FAULTING_SOURCES {
            assert_tiers_agree(source, kind, &[Value::Int(1)], None);
        }
    }
}

/// Programs over every assignment form, each returning a value that the
/// C semantics fix: compound assignment and `++` on an lvalue with a side
/// effect (evaluated once: 106), the postfix value (5) against the prefix
/// one (6), pointer `p++` scaled by the element size, and declarations
/// with several declarators in locals, globals, fields and `for` init.
const UPDATE_SOURCES: &[(&str, i64)] = &[
    (
        "int calls;
        int pick(void) { calls = calls + 1; return 0; }
        int run(int n) {
            int a[2];
            a[0] = 5;
            a[pick()] += n;
            return calls * 100 + a[0];
        }",
        106,
    ),
    (
        "int calls;
        int pick(void) { calls = calls + 1; return 0; }
        int run(int n) {
            int *a = (int *)malloc(2 * sizeof(int));
            a[0] = 5;
            ++a[pick()];
            int v = calls * 100 + a[0];
            free(a);
            return v;
        }",
        106,
    ),
    (
        "int run(int n) { int i = 4 + n; int j = i++; return j * 10 + i; }",
        56,
    ),
    (
        "int run(int n) { int i = 4 + n; int j = ++i; return j * 10 + i; }",
        66,
    ),
    (
        "int run(int n) { int i = 4 + n; int j = i--; return j * 10 + i; }",
        54,
    ),
    (
        "int run(int n) { int i = 4 + n; int j = --i; return j * 10 + i; }",
        44,
    ),
    (
        "int run(int n) {
            long *a = (long *)malloc(3 * sizeof(long));
            a[0] = 1; a[1] = 2; a[2] = 3;
            long *p = a;
            p++;
            long *q = p++;
            int v = (int)(*q * 10 + *p) + (int)(p - a);
            free(a);
            return v;
        }",
        25,
    ),
    (
        "struct S { int *a, b; int c; };
        int g = 1, *gp, h = 3;
        int run(int n) {
            int a, b;
            a = n;
            int c = 2, *p = &c, d = 4;
            b = *p;
            int s = 0;
            for (int i = 0, j = 5; i < j; i++) { s += i; }
            return (int)sizeof(struct S) * 1000 + (a + b + c + d + g + h) * 10 + s;
        }",
        16_000 + 130 + 10,
    ),
];

#[test]
fn assignment_forms_agree_across_all_backends() {
    for kind in SanitizerKind::ALL {
        for &(source, want) in UPDATE_SOURCES {
            assert_tiers_agree(source, kind, &[Value::Int(1)], None);
            let program = Arc::new(instrument(&minic::compile(source).unwrap(), kind));
            let observed = run_once(&program, kind, "run", &[Value::Int(1)], None, true);
            assert_eq!(observed.result, Ok(Value::Int(want)), "{kind}:\n{source}");
        }
    }
}

#[test]
fn abort_after_halts_identically_in_both_tiers() {
    // A loop that faults on every iteration: with abort_after=1 the
    // backend halts the VM mid-loop, which in the aggressive config
    // happens inside the fast tier (and inside a fused superinstruction's
    // check half).  The halt point, counters and diagnostics must match
    // the slow tier exactly.
    let source = "int run(int n) {
        int *a = (int *)malloc(16 * sizeof(int));
        int s = 0;
        for (int i = 0; i < 64; i++) { s += a[16 + i]; }
        free(a);
        return s + n;
    }";
    for kind in [
        SanitizerKind::EffectiveFull,
        SanitizerKind::EffectiveBounds,
        SanitizerKind::AddressSanitizer,
        SanitizerKind::Memcheck,
    ] {
        assert_tiers_agree(source, kind, &[Value::Int(1)], Some(1));
    }
}

#[test]
fn spec_workloads_agree_on_the_check_heavy_backends() {
    // Loop-heavy real workloads at test scale: promotion and OSR both
    // fire, every superinstruction form is exercised, and the full
    // check-count surface (SanStats) must still match to the last event.
    for name in ["mcf", "gobmk", "astar", "xalancbmk"] {
        let bench = SpecBenchmark::by_name(name).expect("known benchmark");
        let source = bench.source(Scale::Test);
        let program = minic::compile(&source).expect("workload compiles");
        for kind in [
            SanitizerKind::None,
            SanitizerKind::EffectiveFull,
            SanitizerKind::EffectiveBounds,
            SanitizerKind::AddressSanitizer,
        ] {
            let instrumented = Arc::new(instrument(&program, kind));
            let args = [Value::Int(Scale::Test.n())];
            let fast = run_once(&instrumented, kind, "bench_main", &args, None, true);
            let slow = run_once(&instrumented, kind, "bench_main", &args, None, false);
            assert_eq!(fast, slow, "{name} under {kind}: tiers disagree");
        }
    }
}

#[test]
fn instruction_limit_fires_at_the_same_instruction() {
    // Exhaust the budget mid-loop: the fast tier's register-resident
    // budget counter must cut off after exactly as many counted events as
    // the slow tier's per-instruction comparison.
    let source = "int run(int n) {
        int s = 0;
        for (int i = 0; i < 100000; i++) { s += i; }
        return s + n;
    }";
    let program = minic::compile(source).expect("compile");
    for kind in [SanitizerKind::None, SanitizerKind::EffectiveFull] {
        let instrumented = Arc::new(instrument(&program, kind));
        for budget in [1u64, 7, 64, 1000, 4096] {
            let mut observed = Vec::new();
            for fast in [true, false] {
                let (promote, osr) = if fast { (1, 1) } else { (u32::MAX, u32::MAX) };
                let config = VmConfig {
                    sanitizer: kind,
                    max_instructions: budget,
                    promote_after_calls: promote,
                    osr_after_backjumps: osr,
                    ..Default::default()
                };
                let mut vm = Vm::new(instrumented.clone(), config);
                let result = vm.run("run", &[Value::Int(1)]);
                let mut exec = vm.stats();
                assert_eq!(exec.checks_elided, 0, "no tier elides a check");
                exec.tier_promotions = 0;
                exec.fast_calls = 0;
                observed.push((result, exec));
            }
            assert_eq!(
                observed[0], observed[1],
                "budget {budget} under {kind}: limit fired differently"
            );
        }
    }
}

/// Array length of each heap base; indices range over `0..OOB_SPAN`, so
/// indices `LEN..` are out-of-bounds accesses.
const LEN: u64 = 8;
const OOB_SPAN: u64 = 12;

#[derive(Clone, Copy, Debug)]
enum Op {
    /// `s += p<base>[idx];`
    Load { base: usize, idx: u64 },
    /// `p<base>[idx] = s + idx;`
    Store { base: usize, idx: u64 },
    /// An opaque call — a clobber between otherwise repeated checks.
    Call,
    /// `free(p<base>)` — later accesses to that base are use-after-free.
    Free { base: usize },
}

/// Raw sampled tuples → a well-formed op sequence: each base is freed at
/// most once (later `Free`s of the same base degrade to `Call`, keeping
/// the clobber without the double-free).
fn decode_ops(raw: Vec<(u64, u64, u64)>, monotone: bool) -> Vec<Op> {
    let mut freed = [false, false];
    let mut ops: Vec<Op> = raw
        .into_iter()
        .map(|(kind, base, idx)| {
            let base = (base % 2) as usize;
            let idx = idx % OOB_SPAN;
            match kind % 8 {
                0..=2 => Op::Load { base, idx },
                3..=5 => Op::Store { base, idx },
                6 => Op::Call,
                _ => {
                    if freed[base] {
                        Op::Call
                    } else {
                        freed[base] = true;
                        Op::Free { base }
                    }
                }
            }
        })
        .collect();
    if monotone {
        // Sort accesses by offset (stable, clobbers keep their slots) so
        // runs of monotone offsets, where each check covers the next, are
        // also covered.
        let mut idxs: Vec<u64> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Load { idx, .. } | Op::Store { idx, .. } => Some(*idx),
                _ => None,
            })
            .collect();
        idxs.sort_unstable();
        let mut next = idxs.into_iter();
        for op in &mut ops {
            match op {
                Op::Load { idx, .. } | Op::Store { idx, .. } => {
                    *idx = next.next().expect("one sorted idx per access");
                }
                _ => {}
            }
        }
    }
    ops
}

/// Render the op sequence as a straight-line miniC `run` body.
fn build_source(ops: &[Op]) -> String {
    let mut body = String::new();
    let mut freed = [false, false];
    for op in ops {
        match *op {
            Op::Load { base, idx } => {
                body.push_str(&format!("        s += p{base}[{idx}];\n"));
            }
            Op::Store { base, idx } => {
                body.push_str(&format!("        p{base}[{idx}] = s + {idx};\n"));
            }
            Op::Call => body.push_str("        s += sink(s);\n"),
            Op::Free { base } => {
                freed[base] = true;
                body.push_str(&format!("        free(p{base});\n"));
            }
        }
    }
    for (base, freed) in freed.iter().enumerate() {
        if !freed {
            body.push_str(&format!("        free(p{base});\n"));
        }
    }
    format!(
        "int sink(int x) {{ return x + 1; }}\n\
         int run(int n) {{\n\
        \x20       int *p0 = (int *)malloc({LEN} * sizeof(int));\n\
        \x20       int *p1 = (int *)malloc({LEN} * sizeof(int));\n\
        \x20       p0[0] = n;\n\
        \x20       p1[0] = n + 1;\n\
        \x20       int s = 0;\n\
         {body}\
        \x20       return s;\n\
         }}\n"
    )
}

fn ops_strategy() -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..24)
}

fn assert_check_runs_agree(ops: &[Op]) {
    let source = build_source(ops);
    // The check-heavy backends plus the temporal ones whose detections
    // depend on re-consulting allocator state at every access — exactly
    // the ones a skipped check would silence.
    for kind in [
        SanitizerKind::EffectiveFull,
        SanitizerKind::EffectiveBounds,
        SanitizerKind::AddressSanitizer,
        SanitizerKind::Memcheck,
    ] {
        assert_tiers_agree(&source, kind, &[Value::Int(3)], None);
    }
}

proptest! {
    /// Random orders, bases and offsets with interleaved clobbers: the
    /// fast tier must keep every detection the slow tier makes.
    #[test]
    fn random_check_runs_lose_no_detections(raw in ops_strategy()) {
        assert_check_runs_agree(&decode_ops(raw, false));
    }

    /// The same programs with offsets made monotone per run — runs of
    /// checks that each cover the next — must also stay faithful.
    #[test]
    fn monotone_check_runs_lose_no_detections(raw in ops_strategy()) {
        assert_check_runs_agree(&decode_ops(raw, true));
    }
}
