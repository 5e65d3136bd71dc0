//! Hot-site / hot-function profile tables from the VM's tier profiler.
//!
//! Runs the selected benchmarks under the selected backends with
//! [`RunConfig::profile`] enabled and renders the merged profile: the
//! top-N check sites with per-site hit/miss counts, the top-N functions
//! with slow/fast tier residency, and the tier promotion/OSR event count.
//!
//! Usage: `table_profile [--json] [--top N] [--benchmarks a,b,c] [backend...]`
//!
//! Backend-name arguments select which backends run (default:
//! EffectiveSan-full); `SCALE` selects the workload scale as in the other
//! bins.  With `--json` the full merged profile (every site, every
//! function, every event) is emitted as one JSON object.

use effective_san::obs::ProfileReport;
use effective_san::workloads::SpecBenchmark;
use effective_san::{minic, run_program_profiled, RunConfig, SanitizerKind};

fn main() {
    let scale = bench::scale_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let mut top_n: usize = 12;
    let mut benchmarks: Option<Vec<String>> = None;
    let mut named: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => {}
            "--top" => {
                let v = it.next().unwrap_or_else(|| usage("--top needs a value"));
                top_n = v
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad --top value `{v}`")));
            }
            "--benchmarks" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage("--benchmarks needs a value"));
                benchmarks = Some(v.split(',').map(|s| s.trim().to_string()).collect());
            }
            other => named.push(other.to_string()),
        }
    }
    let backends = if named.is_empty() {
        vec![SanitizerKind::EffectiveFull]
    } else {
        bench::parse_backend_names(&named)
    };
    let benchmarks: Vec<SpecBenchmark> = match &benchmarks {
        Some(names) => names
            .iter()
            .map(|n| {
                SpecBenchmark::by_name(n)
                    .unwrap_or_else(|| usage(&format!("unknown benchmark `{n}`")))
            })
            .collect(),
        None => SpecBenchmark::all(),
    };

    let mut merged = ProfileReport::default();
    for bench_def in &benchmarks {
        let source = bench_def.source(scale);
        let program = minic::compile(&source)
            .unwrap_or_else(|e| panic!("workload {} failed to compile: {e}", bench_def.name));
        for &backend in &backends {
            let config = RunConfig {
                profile: true,
                ..RunConfig::for_sanitizer(backend)
            };
            let (_, prof) = run_program_profiled(&program, "bench_main", &[scale.n()], &config);
            if let Some(prof) = prof {
                merged.merge(&prof);
            }
        }
    }

    if json {
        println!(
            "{{\"schema\":\"effective-san-profile/2\",\"scale\":\"{scale:?}\",\"profile\":{}}}",
            merged.to_json()
        );
        return;
    }

    let backend_names: Vec<&str> = backends.iter().map(|b| b.name()).collect();
    println!(
        "site/tier profile (scale {scale:?}, backends {}, top {top_n})\n",
        backend_names.join(",")
    );
    print!("{}", merged.render_table(top_n));
    println!(
        "\n{} check sites, {} functions, {} tier events",
        merged.sites.len(),
        merged.funcs.len(),
        merged.events.len()
    );
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "table_profile: {msg}\n\
         usage: table_profile [--json] [--top N] [--benchmarks a,b,c] [backend...]"
    );
    std::process::exit(2);
}
