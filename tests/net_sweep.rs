//! Determinism contract of the **networked** sweep: carrying the shard
//! protocol over TCP sockets — whether driven directly by the coordinator
//! (`WorkerLaunch::Tcp`) or through the `sweep serve` daemon and its
//! streaming client — must produce results indistinguishable, bit for
//! bit, from the process-sharded, thread-parallel and sequential
//! in-process runs, for **every** backend in the registry.
//!
//! The suite also proves the fleet-failure half of the contract: a TCP
//! worker killed mid-sweep (its process dies while holding a shard) has
//! its shard re-queued onto the surviving fleet, and two clients sweeping
//! one daemon concurrently both receive byte-identical merged results.
//!
//! (Registered on the `sweep` crate so `CARGO_BIN_EXE_sweep_worker` and
//! `CARGO_BIN_EXE_sweep` resolve to the binaries under test.)

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use effective_san::{spec_experiment, Parallelism, SpecExperiment};
use san_api::SanitizerKind;
use sweep::coordinator::{ShardStrategy, SweepConfig, WorkerLaunch};
use sweep::worker::CRASH_BENCH_ENV;
use sweep::{client_sweep, diff_experiments, sharded_spec_experiment, SweepRequest};
use workloads::Scale;

const BENCHMARKS: [&str; 2] = ["h264ref", "xalancbmk"];

/// A spawned service process (worker or daemon) that announced its
/// resolved address on stdout; killed on drop so failing tests do not
/// leak listeners.
struct Service {
    child: Child,
    addr: String,
}

impl Drop for Service {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawn a process and read its `<announce> <addr>` line from stdout.
fn spawn_service(mut command: Command, announce: &str) -> Service {
    let mut child = command
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn service process");
    let stdout = child.stdout.take().expect("service stdout piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read service announce line");
    let addr = line
        .trim()
        .strip_prefix(announce)
        .unwrap_or_else(|| panic!("expected `{announce}<addr>`, got `{line}`"))
        .to_string();
    Service { child, addr }
}

/// A `sweep_worker --listen` on an ephemeral port, with extra env.
fn spawn_worker(env: &[(&str, &str)]) -> Service {
    let mut command = Command::new(env!("CARGO_BIN_EXE_sweep_worker"));
    command.args(["--listen", "127.0.0.1:0"]);
    for (key, value) in env {
        command.env(key, value);
    }
    spawn_service(command, "listening ")
}

/// A `sweep serve` daemon over the given worker fleet.
fn spawn_daemon(workers: &[&Service]) -> Service {
    let fleet: Vec<&str> = workers.iter().map(|w| w.addr.as_str()).collect();
    let mut command = Command::new(env!("CARGO_BIN_EXE_sweep"));
    command.args([
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--tcp-workers",
        &fleet.join(","),
    ]);
    spawn_service(command, "serving ")
}

fn tcp_config(fleet: Vec<String>) -> SweepConfig {
    SweepConfig {
        workers: fleet.len(),
        strategy: ShardStrategy::WorkQueue,
        max_attempts: 3,
        scale: Scale::Test,
        parallelism: Parallelism::Parallel,
        worker: WorkerLaunch::Tcp(fleet),
        worker_env: Vec::new(),
        shard_timeout: None,
        // A dead TCP peer has no EOF-observable child process, so the
        // silence deadline is the liveness signal (heartbeats reset it).
        silence_timeout: Some(Duration::from_secs(30)),
        token: None,
    }
}

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
fn tcp_sharded_sweep_is_byte_identical_across_every_execution_mode() {
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
    let process_sharded = sharded_spec_experiment(
        Some(&BENCHMARKS),
        &SanitizerKind::ALL,
        &SweepConfig {
            worker: WorkerLaunch::Bin(env!("CARGO_BIN_EXE_sweep_worker").into()),
            ..tcp_config(Vec::new())
        },
    )
    .expect("process-sharded sweep");

    let workers = [spawn_worker(&[]), spawn_worker(&[])];
    let tcp_sharded = sharded_spec_experiment(
        Some(&BENCHMARKS),
        &SanitizerKind::ALL,
        &tcp_config(workers.iter().map(|w| w.addr.clone()).collect()),
    )
    .expect("TCP-sharded sweep");

    assert_identical("parallel vs sequential", &parallel, &sequential);
    assert_identical("process-sharded vs parallel", &process_sharded, &parallel);
    assert_identical(
        "TCP-sharded vs process-sharded",
        &tcp_sharded,
        &process_sharded,
    );
    assert_identical("TCP-sharded vs sequential", &tcp_sharded, &sequential);
}

#[test]
fn killing_a_tcp_worker_mid_sweep_recovers_onto_the_surviving_fleet() {
    // The first fleet member dies the moment it is handed an `h264ref`
    // shard (the crash hook calls `exit` inside the listener process, so
    // the whole worker vanishes — connection reset, then refused).  Its
    // shard must be re-queued onto the survivor and the merge stay clean.
    // Sweeping `h264ref` alone makes every shard a crash trigger: its 3
    // backends split into 3 shards for 2 slots, so whichever shard the
    // doomed worker's slot takes kills it.
    let mut doomed = spawn_worker(&[(CRASH_BENCH_ENV, "h264ref")]);
    let survivor = spawn_worker(&[]);
    let backends = [
        SanitizerKind::None,
        SanitizerKind::EffectiveFull,
        SanitizerKind::AddressSanitizer,
    ];
    let mut config = tcp_config(vec![doomed.addr.clone(), survivor.addr.clone()]);
    config.max_attempts = 4;
    let sharded = sharded_spec_experiment(Some(&["h264ref"]), &backends, &config)
        .expect("sweep survives a fleet member dying mid-sweep");
    // The injected kill really happened: the doomed worker process is
    // gone (polled, so a hook that never fired fails the test instead of
    // blocking it in `wait`).
    let mut reaped = None;
    for _ in 0..100 {
        reaped = doomed.child.try_wait().expect("poll the doomed worker");
        if reaped.is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let status = reaped.expect("the doomed worker never died — the kill hook never fired");
    assert!(
        !status.success(),
        "the doomed worker exited cleanly instead of being killed mid-shard"
    );

    let in_process = spec_experiment(
        Some(&["h264ref"]),
        Scale::Test,
        &backends,
        Parallelism::Parallel,
    );
    assert_identical(
        "fleet-recovered sharded vs in-process",
        &sharded,
        &in_process,
    );
}

#[test]
fn two_concurrent_daemon_clients_stream_byte_identical_results() {
    let workers = [spawn_worker(&[]), spawn_worker(&[])];
    let daemon = spawn_daemon(&[&workers[0], &workers[1]]);

    let request = SweepRequest {
        scale: Scale::Test,
        parallelism: Parallelism::Parallel,
        benchmarks: vec!["mcf".into(), "h264ref".into(), "soplex".into()],
        backends: vec![
            SanitizerKind::None,
            SanitizerKind::EffectiveFull,
            SanitizerKind::AddressSanitizer,
        ],
    };
    let (first, second) = std::thread::scope(|scope| {
        let run = |tag: &'static str| {
            let addr = daemon.addr.clone();
            let request = request.clone();
            scope.spawn(move || {
                let mut streamed_indices = Vec::new();
                let experiment = client_sweep(&addr, &request, |index, row| {
                    streamed_indices.push((index, row.name.clone()));
                })
                .unwrap_or_else(|e| panic!("client {tag}: {e}"));
                // Rows stream in completion order but carry request-order
                // indices, and every row arrives exactly once.
                streamed_indices.sort();
                let named: Vec<(usize, String)> =
                    request.benchmarks.iter().cloned().enumerate().collect();
                assert_eq!(streamed_indices, named, "client {tag} stream");
                experiment
            })
        };
        let first = run("one");
        let second = run("two");
        (
            first.join().expect("client one"),
            second.join().expect("client two"),
        )
    });

    assert_identical("client one vs client two", &first, &second);
    let in_process = spec_experiment(
        Some(&["mcf", "h264ref", "soplex"]),
        Scale::Test,
        &request.backends,
        Parallelism::Parallel,
    );
    assert_identical("streamed vs in-process", &first, &in_process);
}
