//! Determinism contract of the **process-sharded** sweep: sharding the
//! (benchmark × backend) matrix across worker OS processes, shipping the
//! results through the versioned wire format, and merging the fragments
//! must produce results indistinguishable — bit for bit, including every
//! `f64` — from both the thread-parallel and the sequential in-process
//! runs, for **every** backend in the registry.  Only wall-clock time may
//! differ, so it is the one field the comparison skips.
//!
//! The suite also proves the failure-handling half of the coordinator
//! contract: a worker killed mid-shard has its shard re-run on a fresh
//! process without corrupting the merged results, and a shard that keeps
//! crashing surfaces a structured [`SweepError::ShardExhausted`] instead
//! of hanging or returning partial data.
//!
//! (Registered on the `sweep` crate so `CARGO_BIN_EXE_sweep_worker`
//! resolves to the worker binary under test.)

use std::path::PathBuf;
use std::time::Duration;

use effective_san::{spec_experiment, Parallelism, SpecExperiment};
use san_api::SanitizerKind;
use sweep::coordinator::{ShardStrategy, SweepConfig, SweepError, WorkerLaunch};
use sweep::worker::{CRASH_BENCH_ENV, CRASH_ONCE_PATH_ENV, HANG_BENCH_ENV, HANG_ONCE_PATH_ENV};
use sweep::{diff_experiments, sharded_spec_experiment};
use workloads::Scale;

/// Benchmarks chosen to cover a clean C workload plus the seeded C and C++
/// bug profiles (the same pair `tests/parallel_sweep.rs` uses), so the
/// wire format carries real diagnostics, not just zero counters.
const BENCHMARKS: [&str; 2] = ["h264ref", "xalancbmk"];

fn worker_bin() -> WorkerLaunch {
    WorkerLaunch::Bin(PathBuf::from(env!("CARGO_BIN_EXE_sweep_worker")))
}

fn config(workers: usize) -> SweepConfig {
    SweepConfig {
        workers,
        strategy: ShardStrategy::WorkQueue,
        max_attempts: 3,
        scale: Scale::Test,
        parallelism: Parallelism::Parallel,
        worker: worker_bin(),
        worker_env: Vec::new(),
        shard_timeout: None,
        silence_timeout: None,
        token: None,
    }
}

/// Assert two experiments are identical in every field but wall time,
/// with a per-field breakdown on failure.
fn assert_identical(context: &str, a: &SpecExperiment, b: &SpecExperiment) {
    let diffs = diff_experiments(a, b);
    assert!(
        diffs.is_empty(),
        "{context}: {} differences:\n  {}",
        diffs.len(),
        diffs.join("\n  ")
    );
}

#[test]
fn sharded_sweep_is_byte_identical_to_parallel_and_sequential() {
    let sequential = spec_experiment(
        Some(&BENCHMARKS),
        Scale::Test,
        &SanitizerKind::ALL,
        Parallelism::Sequential,
    );
    let parallel = spec_experiment(
        Some(&BENCHMARKS),
        Scale::Test,
        &SanitizerKind::ALL,
        Parallelism::Parallel,
    );
    assert_identical("parallel vs sequential", &parallel, &sequential);

    // 2 workers ≤ 2 benchmarks: one shard per benchmark, pulled from the
    // shared work queue.
    let sharded_2 = sharded_spec_experiment(Some(&BENCHMARKS), &SanitizerKind::ALL, &config(2))
        .expect("2-worker sharded sweep");
    assert_identical("sharded(2, queue) vs parallel", &sharded_2, &parallel);
    assert_identical("sharded(2, queue) vs sequential", &sharded_2, &sequential);

    // 4 workers > 2 benchmarks: the planner splits the backend axis too.
    let sharded_4 = sharded_spec_experiment(Some(&BENCHMARKS), &SanitizerKind::ALL, &config(4))
        .expect("4-worker sharded sweep");
    assert_identical("sharded(4, queue) vs parallel", &sharded_4, &parallel);

    // The merged shape really is the in-process shape: rows in request
    // order, reports in `SanitizerKind::ALL` order.
    assert_eq!(sharded_2.rows.len(), BENCHMARKS.len());
    for (row, name) in sharded_2.rows.iter().zip(BENCHMARKS) {
        assert_eq!(row.name, name);
        let kinds: Vec<SanitizerKind> = row.reports.iter().map(|r| r.sanitizer).collect();
        assert_eq!(kinds, SanitizerKind::ALL.to_vec());
    }
}

#[test]
fn killed_worker_shard_is_recovered_without_corrupting_results() {
    let flag = std::env::temp_dir().join(format!(
        "effective-san-sweep-crash-once-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&flag);

    // The first worker handed an `h264ref` shard dies mid-shard (exit code
    // 101, after the handshake, before any result bytes); the retry on a
    // fresh process must succeed and the merge must come out clean.
    let mut config = config(2);
    config.worker_env = vec![
        (CRASH_BENCH_ENV.to_string(), "h264ref".to_string()),
        (
            CRASH_ONCE_PATH_ENV.to_string(),
            flag.to_string_lossy().into_owned(),
        ),
    ];
    let backends = [
        SanitizerKind::None,
        SanitizerKind::EffectiveFull,
        SanitizerKind::AddressSanitizer,
    ];
    let sharded = sharded_spec_experiment(Some(&BENCHMARKS), &backends, &config)
        .expect("sweep recovers from a crashed worker");
    assert!(
        flag.exists(),
        "the injected crash never fired — the test exercised nothing"
    );
    let _ = std::fs::remove_file(&flag);

    let in_process = spec_experiment(
        Some(&BENCHMARKS),
        Scale::Test,
        &backends,
        Parallelism::Parallel,
    );
    assert_identical("recovered sharded vs in-process", &sharded, &in_process);
}

#[test]
fn persistently_crashing_shard_surfaces_a_structured_error() {
    let mut config = config(2);
    config.max_attempts = 2;
    // No once-path: every worker given an `h264ref` shard dies.
    config.worker_env = vec![(CRASH_BENCH_ENV.to_string(), "h264ref".to_string())];

    let err = sharded_spec_experiment(
        Some(&BENCHMARKS),
        &[SanitizerKind::None, SanitizerKind::EffectiveFull],
        &config,
    )
    .expect_err("a persistently crashing shard must fail the sweep");
    match err {
        SweepError::ShardExhausted {
            benchmark,
            attempts,
            ref last_error,
            ..
        } => {
            assert_eq!(benchmark, "h264ref");
            assert_eq!(attempts, 2);
            assert!(
                last_error.contains("101") || last_error.contains("exited"),
                "last error should describe the worker death, got: {last_error}"
            );
        }
        other => panic!("expected ShardExhausted, got: {other}"),
    }
}

#[test]
fn hung_worker_is_timed_out_and_its_shard_recovered() {
    let flag = std::env::temp_dir().join(format!(
        "effective-san-sweep-hang-once-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&flag);

    // The first worker handed an `mcf` shard wedges forever while holding
    // it; only the shard budget can notice (the process is alive, so
    // there is no EOF).  The worker is torn down, the retry on a fresh
    // process succeeds, and the merge still comes out clean.
    let mut config = config(2);
    config.shard_timeout = Some(Duration::from_secs(5));
    config.worker_env = vec![
        (HANG_BENCH_ENV.to_string(), "mcf".to_string()),
        (
            HANG_ONCE_PATH_ENV.to_string(),
            flag.to_string_lossy().into_owned(),
        ),
    ];
    let backends = [SanitizerKind::None, SanitizerKind::EffectiveFull];
    let benchmarks = ["mcf", "h264ref"];
    let sharded = sharded_spec_experiment(Some(&benchmarks), &backends, &config)
        .expect("sweep recovers from a hung worker");
    assert!(
        flag.exists(),
        "the injected hang never fired — the test exercised nothing"
    );
    let _ = std::fs::remove_file(&flag);

    let in_process = spec_experiment(
        Some(&benchmarks),
        Scale::Test,
        &backends,
        Parallelism::Parallel,
    );
    assert_identical(
        "recovered-from-hang sharded vs in-process",
        &sharded,
        &in_process,
    );
}

#[test]
fn persistently_hung_shard_surfaces_shard_timed_out() {
    let mut config = config(1);
    config.max_attempts = 2;
    config.shard_timeout = Some(Duration::from_millis(500));
    // No once-path: every worker given an `mcf` shard hangs forever.
    config.worker_env = vec![(HANG_BENCH_ENV.to_string(), "mcf".to_string())];

    let err = sharded_spec_experiment(Some(&["mcf"]), &[SanitizerKind::None], &config)
        .expect_err("a persistently hung shard must fail the sweep, not block it");
    match err {
        SweepError::ShardTimedOut {
            benchmark,
            attempts,
            timeout,
            ..
        } => {
            assert_eq!(benchmark, "mcf");
            assert_eq!(attempts, 2);
            assert_eq!(timeout, Duration::from_millis(500));
        }
        other => panic!("expected ShardTimedOut, got: {other}"),
    }
}

#[test]
fn single_worker_and_single_benchmark_degenerate_cases_hold() {
    // One worker, one benchmark, backend axis split across 2 chunks by the
    // planner (2 × 1 worker target): still byte-identical.
    let sharded = sharded_spec_experiment(Some(&["mcf"]), &SanitizerKind::ALL, &config(1))
        .expect("single-worker sweep");
    let in_process = spec_experiment(
        Some(&["mcf"]),
        Scale::Test,
        &SanitizerKind::ALL,
        Parallelism::Sequential,
    );
    assert_identical("sharded(1) vs sequential", &sharded, &in_process);
}
