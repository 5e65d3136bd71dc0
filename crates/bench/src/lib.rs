//! # bench
//!
//! Benchmark harnesses that regenerate every table and figure of the
//! paper's evaluation on the synthetic workloads (the README's "Quick
//! start" shows how to run them).
//!
//! * Criterion benches (`cargo bench -p bench`): micro-benchmarks of the
//!   layout hash table and the runtime checks, plus a small SPEC-slice
//!   timing comparison.
//! * Figure/table binaries (`cargo run -p bench --bin figure7_spec_summary`
//!   etc.): print the corresponding table with both the paper's reported
//!   numbers and the measured ones.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use effective_san::{Parallelism, SanitizerKind, Scale};

/// Resolve the workload scale from the `SCALE` environment variable
/// (any spelling `Scale`'s `FromStr` accepts: `test`, `small`, `ref` or
/// `reference`; unset or empty means `small`).  An unknown value prints
/// the accepted spellings and exits with status 2 rather than silently
/// benchmarking another scale.
pub fn scale_from_env() -> Scale {
    match std::env::var("SCALE") {
        Ok(v) if !v.is_empty() => v.parse().unwrap_or_else(|e| {
            eprintln!("invalid SCALE value: {e}");
            std::process::exit(2);
        }),
        _ => Scale::Small,
    }
}

/// Parse explicit backend names (every spelling `SanitizerKind`'s
/// `FromStr` accepts: registry names, `asan`, `full`, `bounds`,
/// `memcheck`, `mpx`, `escapes-off`, …).  On an unknown name, prints the
/// error (which lists the registered backends) and exits with status 2;
/// a duplicated backend — even under two spellings — is likewise rejected
/// rather than silently run twice.
pub fn parse_backend_names(names: &[String]) -> Vec<SanitizerKind> {
    let mut kinds: Vec<SanitizerKind> = Vec::new();
    for arg in names {
        let kind: SanitizerKind = arg.parse().unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
        if kinds.contains(&kind) {
            let err = effective_san::BackendListError::Duplicate {
                name: arg.clone(),
                kind,
            };
            eprintln!("{err}");
            std::process::exit(2);
        }
        kinds.push(kind);
    }
    kinds
}

/// Parse sanitizer backend names from the command line
/// ([`parse_backend_names`] over the arguments), falling back to the
/// `SAN_BACKENDS` environment variable when no arguments were given.
/// Returns an empty list when neither selects anything; unknown or
/// duplicated names print the error and exit with status 2.
pub fn backends_from_args() -> Vec<SanitizerKind> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !args.is_empty() {
        return parse_backend_names(&args);
    }
    match std::env::var("SAN_BACKENDS") {
        Ok(list) => effective_san::parse_backend_list(&list).unwrap_or_else(|e| {
            eprintln!("invalid SAN_BACKENDS value `{list}`: {e}");
            std::process::exit(2);
        }),
        Err(_) => Vec::new(),
    }
}

/// Resolve the sweep execution mode from the `SAN_PARALLEL` environment
/// variable (`sequential`/`off`/… disable the per-backend threads; the
/// default is parallel).  An unrecognised value panics with the accepted
/// spellings rather than silently selecting a mode.
pub fn parallelism_from_env() -> Parallelism {
    Parallelism::from_env()
}

/// Print a horizontal rule of the given width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}
