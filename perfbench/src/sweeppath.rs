//! The sweep path: client request → last streamed row.
//!
//! * `sweep-daemon` — small requests (1–2 SPEC-like benchmarks × 2–4
//!   backends at `Scale::Test`, in the fixed shapes of `DAEMON_SHAPES`) to a
//!   `sweep serve` daemon over loopback TCP, backed by two TCP workers.
//!   A seeded pool of 16 requests; each round is a seeded permutation of
//!   the pool.
//! * `sweep-sharded` — `sharded_spec_experiment` over two pipe workers:
//!   every SPEC-like benchmark (seeded order) × a seeded pair of
//!   backends at `Scale::Small`; round `r`'s call `j` takes the pair at
//!   positions `2j, 2j+1` (mod 13) of a seeded backend permutation, so a
//!   round uses every backend twice.
//!
//! The daemon and its workers are this binary re-executed in a child
//! role (`PERFBENCH_ROLE`), calling the same library entry points as the
//! `sweep serve` and `sweep_worker --listen` binaries.  They bind port 0
//! and report the bound address on their first stdout line.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use effective_san::workloads::{Scale, SpecBenchmark};
use effective_san::{spec_experiment, Parallelism, SanitizerKind, SpecExperiment, SpecRow};
use sweep::coordinator::{ShardStrategy, SweepConfig, WorkerLaunch};
use sweep::net::{DeadlineLines, TcpTransport, Transport};
use sweep::serve::{serve_forever, ServeOptions};
use sweep::wire::{self, ServiceEvent, SweepRequest};
use sweep::{client_shutdown, client_stats_with, client_sweep_with, ClientOptions};

use crate::layers::{Delivered, Layers, VmSample};
use crate::trace::Tracer;
use crate::util::{digest, ms, vm_hwm_kb, Rng};
use crate::{drive, Phase, RunSummary, Workload};

const ROLE_ENV: &str = "PERFBENCH_ROLE";
const FLEET_ENV: &str = "PERFBENCH_FLEET";
const HWM_DIR_ENV: &str = "PERFBENCH_HWM_DIR";

/// Fleet size: one worker per core of the 2-core reference box.
const WORKERS: usize = 2;
/// The daemon pool's request shapes: (how many, benchmarks, backends).
/// The daemon splits a one-benchmark request into up to 2 × workers
/// backend chunks and a larger one into one shard per benchmark, so the
/// shape fixes how many scheduling waves a request takes over two
/// workers: 12 of the 16 take one wave, 4 take two.  A fixed mix keeps
/// p50 and p90 each inside one wave count, and the cells per round
/// constant, for every seed; the seed picks the benchmarks and backends.
const DAEMON_SHAPES: [(usize, usize, usize); 3] = [(8, 1, 2), (4, 2, 3), (4, 1, 4)];
/// How many times a run performs its set-up; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// Run as a child role if this process was started as one; returns the
/// exit code.
pub fn child_role() -> Option<i32> {
    let role = std::env::var(ROLE_ENV).ok()?;
    if role != "pipe-worker" {
        // The benchmark holds this process's stdin open; end with it, so
        // no daemon or worker outlives a benchmark that was killed.
        std::thread::spawn(|| {
            let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
            std::process::exit(0);
        });
    }
    Some(match role.as_str() {
        "tcp-worker" => sweep::worker::run_listener("127.0.0.1:0", None),
        "daemon" => {
            let workers = std::env::var(FLEET_ENV)
                .unwrap_or_default()
                .split(',')
                .filter(|a| !a.is_empty())
                .map(str::to_string)
                .collect();
            match serve_forever(ServeOptions::new("127.0.0.1:0".to_string(), workers)) {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("perfbench daemon: {e}");
                    1
                }
            }
        }
        "pipe-worker" => {
            let code = sweep::worker::run_stdio();
            // Pipe workers are reaped by the coordinator, so each leaves
            // its peak RSS behind for the benchmark to read.
            if let (Ok(dir), Some(kb)) = (std::env::var(HWM_DIR_ENV), vm_hwm_kb("self")) {
                let _ = std::fs::write(
                    Path::new(&dir).join(std::process::id().to_string()),
                    kb.to_string(),
                );
            }
            code
        }
        other => {
            eprintln!("perfbench: unknown child role `{other}`");
            2
        }
    })
}

fn own_exe() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("cannot locate the benchmark binary: {e}"))
}

/// A child process that is killed and reaped when dropped.
struct ChildProc {
    child: std::process::Child,
    drain: Option<JoinHandle<()>>,
}

impl ChildProc {
    /// Spawn this binary in `role` and wait for its first stdout line,
    /// `<word> <addr>`; returns the process and the address.
    fn spawn(role: &str, env: &[(&str, String)]) -> Result<(ChildProc, String), String> {
        let mut cmd = Command::new(own_exe()?);
        cmd.env(ROLE_ENV, role)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        for (k, v) in env {
            cmd.env(k, v);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {role}: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // Reads the address line, then drains stdout until the child ends.
        let drain = std::thread::spawn(move || {
            let mut lines = BufReader::new(stdout).lines();
            let _ = tx.send(lines.next());
            for _ in lines {}
        });
        let mut proc = ChildProc {
            child,
            drain: Some(drain),
        };
        let line = match rx.recv_timeout(Duration::from_secs(20)) {
            Ok(Some(Ok(line))) => line,
            _ => {
                proc.kill();
                return Err(format!("{role} did not report its address"));
            }
        };
        let addr = line
            .split_whitespace()
            .nth(1)
            .ok_or_else(|| format!("{role} printed `{line}` instead of its address"))?
            .to_string();
        Ok((proc, addr))
    }

    fn hwm_kb(&self) -> u64 {
        vm_hwm_kb(&self.child.id().to_string()).unwrap_or(0)
    }

    /// Wait up to `grace` for the child to exit on its own.
    fn wait_for_exit(&mut self, grace: Duration) -> bool {
        let deadline = Instant::now() + grace;
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for ChildProc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// A daemon and its TCP workers.
struct Fleet {
    addr: String,
    daemon: ChildProc,
    workers: Vec<ChildProc>,
}

fn client_options() -> ClientOptions {
    ClientOptions {
        token: None,
        ..ClientOptions::default()
    }
}

impl Fleet {
    /// Start the workers, then the daemon over them, and wait until the
    /// daemon answers a stats query.
    fn launch() -> Result<Fleet, String> {
        let mut workers = Vec::new();
        let mut addrs = Vec::new();
        for _ in 0..WORKERS {
            let (proc, addr) = ChildProc::spawn("tcp-worker", &[])?;
            workers.push(proc);
            addrs.push(addr);
        }
        let (daemon, addr) = ChildProc::spawn("daemon", &[(FLEET_ENV, addrs.join(","))])?;
        let fleet = Fleet {
            addr,
            daemon,
            workers,
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match client_stats_with(&fleet.addr, &client_options()) {
                Ok(_) => return Ok(fleet),
                Err(e) if Instant::now() > deadline => {
                    return Err(format!("daemon never answered a stats probe: {e}"))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    /// Peak RSS of the daemon and the workers, in kB.
    fn hwm_kb(&self) -> u64 {
        self.daemon.hwm_kb() + self.workers.iter().map(ChildProc::hwm_kb).sum::<u64>()
    }
}

impl Drop for Fleet {
    /// Graceful shutdown of the daemon; the workers (and a daemon that
    /// did not exit) are then killed as the fields drop.
    fn drop(&mut self) {
        if client_shutdown(&self.addr, &client_options()).is_ok() {
            self.daemon.wait_for_exit(Duration::from_secs(10));
        }
    }
}

/// One sweep operation of the draw.
#[derive(Clone, Debug, PartialEq)]
struct Request {
    benchmarks: Vec<String>,
    backends: Vec<SanitizerKind>,
    scale: Scale,
}

impl Request {
    fn cells(&self) -> u64 {
        (self.benchmarks.len() * self.backends.len()) as u64
    }

    fn wire(&self) -> SweepRequest {
        SweepRequest {
            scale: self.scale,
            parallelism: Parallelism::Sequential,
            benchmarks: self.benchmarks.clone(),
            backends: self.backends.clone(),
        }
    }
}

/// The seeded pool of requests and the order rounds visit it in.
struct Draw {
    pool: Vec<Request>,
    seed: u64,
}

impl Draw {
    fn new(workload: Workload, seed: u64) -> Draw {
        let names = SpecBenchmark::names();
        let kinds = SanitizerKind::ALL;
        let mut rng = Rng::new(seed, 3);
        let pool = match workload {
            Workload::SweepDaemon => DAEMON_SHAPES
                .iter()
                .flat_map(|&(count, nb, nk)| vec![(nb, nk); count])
                .map(|(nb, nk)| {
                    let mut benches: Vec<&str> = names.clone();
                    rng.shuffle(&mut benches);
                    let mut backends = kinds.to_vec();
                    rng.shuffle(&mut backends);
                    Request {
                        benchmarks: benches[..nb].iter().map(|s| s.to_string()).collect(),
                        backends: backends[..nk].to_vec(),
                        scale: Scale::Test,
                    }
                })
                .collect(),
            _ => {
                let mut perm = kinds.to_vec();
                rng.shuffle(&mut perm);
                (0..kinds.len())
                    .map(|j| {
                        let mut benches: Vec<&str> = names.clone();
                        rng.shuffle(&mut benches);
                        Request {
                            benchmarks: benches.iter().map(|s| s.to_string()).collect(),
                            backends: vec![
                                perm[(2 * j) % kinds.len()],
                                perm[(2 * j + 1) % kinds.len()],
                            ],
                            scale: Scale::Small,
                        }
                    })
                    .collect()
            }
        };
        Draw { pool, seed }
    }

    /// Pool indices of round `r`.
    fn round(&self, r: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.pool.len()).collect();
        Rng::new(self.seed, 2000 + r as u64).shuffle(&mut order);
        order
    }
}

/// The daemon request as a user issues it: `client_sweep_with`.
fn daemon_request(addr: &str, request: &Request) -> Timed {
    let started = Instant::now();
    let outcome = client_sweep_with(addr, &client_options(), &request.wire(), |_, _| {})
        .map_err(|e| format!("client error: {e}"));
    Timed {
        outcome,
        latency: started.elapsed(),
    }
}

/// The same request spoken with the public `net`/`wire` calls, one span
/// per protocol stage: connect + handshake, request sent → `accepted`,
/// → first `srow`, → `sdone`.
fn daemon_request_traced(addr: &str, request: &Request, tracer: &mut Tracer, group: u64) -> Timed {
    let started = Instant::now();
    let root = tracer.begin("request", None, group);
    let outcome = speak(addr, request, tracer, group);
    tracer.end(root);
    Timed {
        outcome,
        latency: started.elapsed(),
    }
}

fn speak(
    addr: &str,
    request: &Request,
    tracer: &mut Tracer,
    group: u64,
) -> Result<SpecExperiment, String> {
    let wire_err = |e: wire::WireError| format!("wire error: {e}");
    let span = tracer.begin("net.connect", None, group);
    let mut transport =
        TcpTransport::connect(addr, Some(Duration::from_secs(30))).map_err(wire_err)?;
    transport.send_line(wire::HANDSHAKE).map_err(wire_err)?;
    let hello = transport.recv_line(None).map_err(wire_err)?;
    wire::check_handshake(hello.as_deref().unwrap_or("")).map_err(wire_err)?;
    tracer.end(span);

    let span = tracer.begin("serve.accept", None, group);
    for line in wire::encode_request(&request.wire()) {
        transport.send_line(&line).map_err(wire_err)?;
    }
    let line = transport
        .recv_line(None)
        .map_err(wire_err)?
        .ok_or("daemon closed the connection before accepting")?;
    if let Some(busy) = wire::parse_busy(&line) {
        return Err(format!("daemon busy: {busy:?}"));
    }
    let accepted = wire::decode_accepted(&line).map_err(wire_err)?;
    tracer.end(span);

    let mut rows: Vec<Option<SpecRow>> = vec![None; accepted];
    let mut lines = DeadlineLines::new(&mut transport, None, None);
    let mut span = tracer.begin("serve.first_row", None, group);
    let mut first = true;
    loop {
        match wire::decode_service_event(&mut lines).map_err(wire_err)? {
            ServiceEvent::Row { index, row } => {
                let slot = rows
                    .get_mut(index)
                    .ok_or_else(|| format!("row index {index} out of range"))?;
                *slot = Some(row);
                if first {
                    first = false;
                    tracer.end(span);
                    span = tracer.begin("serve.stream", None, group);
                }
            }
            ServiceEvent::Failed { message } => return Err(format!("sweep failed: {message}")),
            ServiceEvent::Done { .. } => break,
        }
    }
    tracer.end(span);
    Ok(SpecExperiment {
        scale: request.scale,
        rows: rows
            .into_iter()
            .enumerate()
            .map(|(i, row)| row.ok_or_else(|| format!("row {i} never arrived")))
            .collect::<Result<_, _>>()?,
        sanitizers: request.backends.clone(),
    })
}

fn sharded_config(hwm_dir: &Path) -> Result<SweepConfig, String> {
    Ok(SweepConfig {
        workers: WORKERS,
        strategy: ShardStrategy::default(),
        max_attempts: 3,
        scale: Scale::Small,
        parallelism: Parallelism::Sequential,
        worker: WorkerLaunch::Bin(own_exe()?),
        worker_env: vec![
            (ROLE_ENV.to_string(), "pipe-worker".to_string()),
            (HWM_DIR_ENV.to_string(), hwm_dir.display().to_string()),
        ],
        shard_timeout: None,
        silence_timeout: None,
        token: None,
    })
}

fn sharded_request(config: &SweepConfig, req: &Request) -> Timed {
    let names: Vec<&str> = req.benchmarks.iter().map(String::as_str).collect();
    let config = SweepConfig {
        scale: req.scale,
        ..config.clone()
    };
    let started = Instant::now();
    let outcome = sweep::sharded_spec_experiment(Some(&names), &req.backends, &config)
        .map_err(|e| format!("sharded sweep failed: {e}"));
    Timed {
        outcome,
        latency: started.elapsed(),
    }
}

/// One timed operation.
struct Timed {
    outcome: Result<SpecExperiment, String>,
    latency: Duration,
}

/// Diff a delivered experiment against the in-process sequential
/// `spec_experiment` of the same request (computed once per distinct
/// request).
fn check(
    req: &Request,
    got: &SpecExperiment,
    reference: &mut Option<SpecExperiment>,
) -> Option<String> {
    let reference = reference.get_or_insert_with(|| {
        let names: Vec<&str> = req.benchmarks.iter().map(String::as_str).collect();
        spec_experiment(
            Some(&names),
            req.scale,
            &req.backends,
            Parallelism::Sequential,
        )
    });
    let diffs = sweep::diff_experiments(got, reference);
    (!diffs.is_empty()).then(|| {
        format!(
            "request {:?} × {:?}: {}",
            req.benchmarks,
            req.backends.iter().map(|k| k.name()).collect::<Vec<_>>(),
            diffs.join("; ")
        )
    })
}

/// Rows with wall time zeroed: the deterministic part of a result.
fn canonical_rows(experiment: &SpecExperiment) -> Vec<SpecRow> {
    experiment
        .rows
        .iter()
        .cloned()
        .map(|mut row| {
            for report in &mut row.reports {
                report.wall_time = Duration::ZERO;
            }
            row
        })
        .collect()
}

fn compute_ms(experiment: &SpecExperiment) -> f64 {
    experiment
        .rows
        .iter()
        .flat_map(|r| &r.reports)
        .map(|r| ms(r.wall_time))
        .sum()
}

/// Everything kept from one phase.
#[derive(Default)]
struct Log {
    latencies_ms: Vec<f32>,
    busy: Duration,
    cells: u64,
    failures: Vec<String>,
    digests: Vec<u64>,
    /// Reports and canonical rows of the first round.
    first_round: Vec<Delivered>,
    first_rows: Vec<SpecRow>,
    /// Per delivered request: (latency, compute) in ms.
    compute: Vec<(f64, f64)>,
    samples: Vec<VmSample>,
    rows: Vec<SpecRow>,
}

/// Run one phase: rounds of the draw until `budget` is spent inside
/// requests, or a replay of exactly `replay` requests.  Each result is
/// checked right after it is timed.
fn phase(
    draw: &Draw,
    budget: Duration,
    replay: Option<usize>,
    keep: bool,
    references: &mut [Option<SpecExperiment>],
    mut run: impl FnMut(&Request, u64) -> Timed,
) -> Log {
    let round_len = draw.pool.len();
    let mut log = Log::default();
    let requests = (0..).flat_map(|r| draw.round(r));
    let busy = drive(requests, round_len, budget, replay, |i, index| {
        let req = &draw.pool[index];
        let timed = run(req, i as u64);
        log.latencies_ms.push(ms(timed.latency) as f32);
        let got = match timed.outcome {
            Ok(got) => got,
            Err(e) => {
                log.failures.push(e);
                log.digests.push(0);
                return timed.latency;
            }
        };
        log.cells += req.cells();
        log.failures
            .extend(check(req, &got, &mut references[index]));
        let rows = canonical_rows(&got);
        let mut lines = Vec::new();
        for row in &rows {
            wire::encode_spec_row(row, &mut lines);
        }
        log.digests.push(digest(&lines));
        let delivered = got.rows.iter().flat_map(|row| {
            row.reports.iter().map(|report| Delivered {
                bench: row.name.clone(),
                report: report.clone(),
            })
        });
        if i < round_len {
            log.first_round.extend(delivered);
            log.first_rows.extend(rows.iter().cloned());
        }
        if keep {
            log.compute.push((ms(timed.latency), compute_ms(&got)));
            for row in &got.rows {
                log.samples
                    .extend(row.reports.iter().map(|r| VmSample::of(&row.name, r)));
            }
            log.rows.extend(rows);
        }
        timed.latency
    });
    log.busy = busy;
    log
}

/// Mean encoded bytes per row.
fn bytes_per_row(rows: &[SpecRow]) -> f64 {
    let mut bytes = 0usize;
    for row in rows {
        let mut lines = Vec::new();
        wire::encode_spec_row(row, &mut lines);
        bytes += lines.iter().map(|l| l.len() + 1).sum::<usize>();
    }
    bytes as f64 / rows.len().max(1) as f64
}

/// Encode and decode every row inside spans; a row that does not come
/// back identical is a failure.
fn wire_round_trip(rows: &[SpecRow], tracer: &mut Tracer) -> Vec<String> {
    let mut failures = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let mut lines = Vec::new();
        tracer.span("wire.encode", None, i as u64, || {
            wire::encode_spec_row(row, &mut lines)
        });
        let decoded = tracer.span("wire.decode", None, i as u64, || {
            wire::decode_spec_row(&mut wire::SliceLines::new(&lines))
        });
        if decoded.as_ref().ok() != Some(row) {
            failures.push(format!(
                "row {} does not survive a wire round trip",
                row.name
            ));
        }
    }
    failures
}

/// A directory pipe workers leave their peak RSS in, removed on drop.
struct HwmDir(PathBuf);

impl HwmDir {
    fn create() -> Result<HwmDir, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = own_exe()?
            .parent()
            .ok_or("the benchmark binary has no directory")?
            .join(format!(
                "perfbench-hwm-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(HwmDir(dir))
    }

    /// Peak RSS of the pipe workers reaped so far (the largest one, once
    /// per worker slot), in kB.
    fn workers_kb(&self) -> u64 {
        let largest = std::fs::read_dir(&self.0)
            .map(|entries| {
                entries
                    .flatten()
                    .filter_map(|e| {
                        std::fs::read_to_string(e.path())
                            .ok()?
                            .trim()
                            .parse::<u64>()
                            .ok()
                    })
                    .max()
                    .unwrap_or(0)
            })
            .unwrap_or(0);
        largest * WORKERS as u64
    }
}

impl Drop for HwmDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What a sweep workload's operations go through.
enum Fixture {
    Daemon(Fleet),
    Sharded { config: SweepConfig, hwm: HwmDir },
}

impl Fixture {
    fn op(&self, req: &Request) -> Timed {
        match self {
            Fixture::Daemon(fleet) => daemon_request(&fleet.addr, req),
            Fixture::Sharded { config, .. } => sharded_request(config, req),
        }
    }

    /// Record peak RSS and the daemon's counters, then tear down.
    fn finish(self, summary: &mut RunSummary) -> Option<wire::ServiceStats> {
        let self_kb = vm_hwm_kb("self").unwrap_or(0);
        match self {
            Fixture::Daemon(fleet) => {
                summary.rss_kb = self_kb + fleet.hwm_kb();
                summary.rss_processes = 2 + WORKERS as u64;
                client_stats_with(&fleet.addr, &client_options()).ok()
            }
            Fixture::Sharded { hwm, .. } => {
                summary.rss_kb = self_kb + hwm.workers_kb();
                summary.rss_processes = 1 + WORKERS as u64;
                None
            }
        }
    }
}

/// Set-up: draw the requests and bring the fixture up.  On
/// `sweep-daemon` it ends when the daemon answers its first stats probe;
/// on `sweep-sharded` it ends with one warm-up call (the first request of
/// the pool), which spawns and retires a pair of pipe workers.
fn setup(workload: Workload, seed: u64) -> Result<(Draw, Fixture), String> {
    let draw = Draw::new(workload, seed);
    let fixture = match workload {
        Workload::SweepDaemon => Fixture::Daemon(Fleet::launch()?),
        _ => {
            let hwm = HwmDir::create()?;
            let fixture = Fixture::Sharded {
                config: sharded_config(&hwm.0)?,
                hwm,
            };
            fixture
                .op(&draw.pool[0])
                .outcome
                .map_err(|e| format!("warm-up call failed: {e}"))?;
            fixture
        }
    };
    Ok((draw, fixture))
}

pub fn run(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Result<RunSummary, String> {
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let fresh = setup(workload, seed)?;
        setups.push(t.elapsed());
        // The previous fixture is torn down outside the timed set-up.
        drop(ready.replace(fresh));
    }
    let (draw, fixture) = ready.expect("at least one setup");
    let mut summary = RunSummary::new(setups);
    let budget = Duration::from_secs(seconds);
    let mut references: Vec<Option<SpecExperiment>> = vec![None; draw.pool.len()];

    if !trace {
        let log = phase(&draw, budget, None, false, &mut references, |req, _| {
            fixture.op(req)
        });
        fixture.finish(&mut summary);
        let attempted = log.latencies_ms.len() as u64;
        summary.finish(
            Phase {
                cells: log.cells,
                elapsed: log.busy,
                latencies_ms: log.latencies_ms,
            },
            attempted,
            log.failures,
        );
        return Ok(summary);
    }

    let plain = phase(&draw, budget / 2, None, false, &mut references, |req, _| {
        fixture.op(req)
    });
    let replay = Some(plain.digests.len().min(crate::REPLAY_CAP));
    let mut tracer = Tracer::new(true);
    let traced = match &fixture {
        Fixture::Daemon(fleet) => phase(
            &draw,
            budget,
            replay,
            true,
            &mut references,
            |req, group| daemon_request_traced(&fleet.addr, req, &mut tracer, group),
        ),
        Fixture::Sharded { config, .. } => phase(
            &draw,
            budget,
            replay,
            true,
            &mut references,
            |req, group| {
                tracer.span("coordinator.sweep", None, group, || {
                    sharded_request(config, req)
                })
            },
        ),
    };
    let stats = fixture.finish(&mut summary);

    let mut failures = plain.failures.clone();
    failures.extend(traced.failures.iter().cloned());
    let mismatched = crate::count_mismatches(&plain.digests, &traced.digests);
    if mismatched > 0 {
        failures.push(format!(
            "{mismatched} traced request outcomes differ from the untraced ones"
        ));
    }
    let mut layers = Layers::new();
    let mut plain_layers = Layers::new();
    for (layers, log) in [(&mut layers, &traced), (&mut plain_layers, &plain)] {
        layers.set_counters(&log.first_round);
        let n = log.first_rows.len() as u64;
        layers.set("wire.bytes_per_row", bytes_per_row(&log.first_rows), n);
    }
    crate::self_check(&layers, &plain_layers, &mut failures);
    let different = Draw::new(workload, seed.wrapping_add(1));
    if different.pool == draw.pool && different.round(0) == draw.round(0) {
        failures.push("a different seed gave the same draw".to_string());
    }
    failures.extend(wire_round_trip(&traced.rows, &mut tracer));
    layers.set_span(&tracer, "wire.encode", "wire.encode_us_per_row", 1e-3);
    layers.set_span(&tracer, "wire.decode", "wire.decode_us_per_row", 1e-3);

    layers.set_vm_timings(&traced.samples);
    let n = traced.compute.len() as u64;
    let mean = |f: &dyn Fn(&(f64, f64)) -> f64| {
        traced.compute.iter().map(f).sum::<f64>() / n.max(1) as f64
    };
    let non_compute = mean(&|(latency, compute)| latency - compute / WORKERS as f64);
    layers.set("worker.compute_ms", mean(&|c| c.1), n);
    layers.set("sweep.non_compute_ms", non_compute, n);
    if workload == Workload::SweepSharded {
        layers.set_span(&tracer, "coordinator.sweep", "coordinator.sweep_ms", 1e-6);
        layers.set("coordinator.non_compute_ms", non_compute, n);
    }
    layers.set_span(&tracer, "net.connect", "net.connect_ms", 1e-6);
    layers.set_span(&tracer, "serve.accept", "serve.accept_ms", 1e-6);
    layers.set_span(&tracer, "serve.first_row", "serve.first_row_ms", 1e-6);
    layers.set_span(&tracer, "serve.stream", "serve.stream_ms", 1e-6);
    if let Some(stats) = stats {
        let sum =
            |f: fn(&wire::WorkerStats) -> u64| stats.workers.iter().map(f).sum::<u64>() as f64;
        layers.set("serve.shards_done", sum(|w| w.completed), 1);
        layers.set("serve.shards_failed", sum(|w| w.failed), 1);
        layers.set("serve.steals", sum(|w| w.steals), 1);
        layers.set("serve.busy_rejected", stats.rejected_busy as f64, 1);
    } else if workload == Workload::SweepDaemon {
        failures.push("the daemon did not answer the final stats query".to_string());
    }
    let ops = plain.digests.len();
    let replayed = traced.digests.len();
    let overhead = crate::overhead_pct(&plain.latencies_ms[..replayed], traced.busy);
    layers.set("trace.overhead_pct", overhead, replayed as u64);
    summary.tracer = Some(tracer);
    summary.layers = Some(layers);
    let attempted = (ops + traced.latencies_ms.len()) as u64;
    summary.finish(
        Phase {
            cells: traced.cells,
            elapsed: traced.busy,
            latencies_ms: traced.latencies_ms,
        },
        attempted,
        failures,
    );
    Ok(summary)
}
