//! Property suite for straight-line check runs in the fast tier: randomly
//! generated runs of repeated checks must never lose a detection.
//!
//! Each sampled case builds a miniC program whose `run` body is one long
//! straight-line sequence of loads and stores over two heap arrays —
//! random base choice, random offsets (both monotone and non-monotone
//! orders, in and out of bounds) — interleaved with the two clobbers that
//! change check outcomes: opaque calls and `free`s of one of the bases
//! (so accesses after the free are use-after-free).  The program
//! runs once with tiering forced on (promotion and OSR on the first
//! opportunity) and once with tiering off; the slow tier is the oracle.
//!
//! The assertion is the exact tier contract of `tiered_differential.rs`:
//! every check site makes its backend call in both tiers, so the raw
//! `bounds_checks` and `access_checks` counts, the result, every error
//! counter, every diagnostic and the `print` output are bit-identical,
//! and `checks_elided` is 0 in both.  A fast tier that skipped or merged
//! a check would show up here as a fast/slow mismatch.

use std::sync::Arc;

use effective_san::effective_runtime::ErrorStats;
use effective_san::minic::Program;
use effective_san::vm::{Value, Vm, VmConfig, VmError};
use effective_san::{instrument, minic, Diagnostic, SanitizerKind};
use proptest::prelude::*;

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
        // the monotone-offset shape the issue calls out is also covered.
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

/// Everything that must match between the tiers.
#[derive(Debug, PartialEq)]
struct Observed {
    result: Result<Value, VmError>,
    bounds_checks: u64,
    access_checks: u64,
    check_instructions: u64,
    errors: ErrorStats,
    diagnostics: Vec<Diagnostic>,
    output: Vec<String>,
}

fn observe(program: &Arc<Program>, kind: SanitizerKind, fast: bool) -> Observed {
    let (promote, osr) = if fast { (1, 1) } else { (u32::MAX, u32::MAX) };
    let mut vm = Vm::new(
        program.clone(),
        VmConfig {
            sanitizer: kind,
            promote_after_calls: promote,
            osr_after_backjumps: osr,
            ..Default::default()
        },
    );
    let result = vm.run("run", &[Value::Int(3)]);
    let exec = vm.stats();
    assert_eq!(exec.checks_elided, 0, "no tier elides a check");
    let checks = vm.backend().stats();
    Observed {
        result,
        bounds_checks: checks.bounds_checks,
        access_checks: checks.access_checks,
        check_instructions: exec.check_instructions,
        errors: vm.backend().error_stats(),
        diagnostics: vm.backend_mut().finish(),
        output: vm.output().to_vec(),
    }
}

fn ops_strategy() -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..24)
}

fn assert_no_detection_lost(ops: &[Op]) {
    let source = build_source(ops);
    let program = minic::compile(&source)
        .unwrap_or_else(|e| panic!("generated program must compile: {e}\n{source}"));
    // The check-heavy backends plus the temporal ones whose detections
    // depend on re-consulting allocator state at every access — exactly
    // the ones a skipped check would silence.
    for kind in [
        SanitizerKind::EffectiveFull,
        SanitizerKind::EffectiveBounds,
        SanitizerKind::AddressSanitizer,
        SanitizerKind::Memcheck,
    ] {
        let instrumented = Arc::new(instrument(&program, kind));
        let fast = observe(&instrumented, kind, true);
        let slow = observe(&instrumented, kind, false);
        assert_eq!(fast, slow, "tiers disagree under {kind} for:\n{source}");
    }
}

proptest! {
    /// Random orders, bases and offsets with interleaved clobbers: the
    /// fast tier must keep every detection the slow tier makes.
    #[test]
    fn random_check_runs_lose_no_detections(raw in ops_strategy()) {
        assert_no_detection_lost(&decode_ops(raw, false));
    }

    /// The same programs with offsets made monotone per run — runs of
    /// checks that each cover the next — must also stay faithful.
    #[test]
    fn monotone_check_runs_lose_no_detections(raw in ops_strategy()) {
        assert_no_detection_lost(&decode_ops(raw, true));
    }
}
