//! The sweep scheduler, and the `sweep serve` daemon built on it: a
//! long-running coordinator that accepts sweep requests from many
//! concurrent clients over TCP and schedules their shards across a
//! `sweep_worker` fleet.
//!
//! The scheduler is the only one in the crate.  A one-shot sweep
//! ([`crate::sharded_spec_experiment`], the `sweep` CLI) builds a private
//! `Scheduler` with no listeners, submits its matrix as one request and
//! collects the rows through the same driver the daemon's client threads
//! use; the daemon keeps one scheduler for its lifetime.
//!
//! Architecture: one slot thread per worker slot holds a persistent
//! [`WorkerConn`]; a request is planned with [`crate::shard::plan_shards`]
//! and its shards pushed onto a **global** work queue all requests share.
//! Idle slots pull from that queue (work-stealing), with **result
//! affinity**: the first worker to run a chunk of a `(request,
//! benchmark)` pair claims the pair, and its remaining chunks prefer
//! that worker — stolen only when a thief has nothing else to do, which
//! moves the claim wholesale.
//!
//! Every slot runs the same loop; its `SlotKind` decides where its
//! worker comes from and what a failed attempt costs.  **Pipe** and
//! **TCP** slots serve one-shot sweeps: a pipe slot respawns its worker
//! process after every failure, a TCP slot whose address refuses a
//! connection retires for the rest of the sweep.  **Dial-out** slots are
//! the daemon's static `--tcp-workers` list: they redial forever (under
//! the shared [`Backoff`] schedule), so the slot is permanently live.
//! **Registered** slots are created at runtime when a `sweep_worker
//! --join` process dials the daemon's `--register-listen` address: the
//! slot joins the fleet immediately (picking up already-queued jobs)
//! and retires when its connection dies, re-queueing its in-flight
//! shard under the request's existing attempts budget.
//!
//! Every connection class — client, dial-out worker, registered worker —
//! is gated by the optional shared token (wire-v7 `auth` frame): a
//! mismatch gets a structured `authfail` before any capability exchange,
//! and the token itself never appears in traces, stats, or errors.
//! Admission control bounds the daemon's intake: past `--max-pending`
//! requests or `--max-queued-jobs` planned jobs, new requests are turned
//! away with a structured `busy` frame carrying a retry hint instead of
//! being queued without bound.  A `shutdown` control frame (token-gated
//! like everything else) stops intake, drains in-flight requests to
//! their structured end, releases the fleet, and lets the process exit 0.
//!
//! Rows stream back to each client incrementally: as soon as every chunk
//! of one benchmark has arrived, the fragments are merged (the same
//! [`crate::shard::merge_experiment`] path as in-process sharding) and
//! the row goes out as an `srow` event tagged with its request-order
//! index — the byte-identical-merge SLA, kept one row at a time.  A
//! failed shard is re-queued under the request's `max_attempts` budget; a
//! shard that exhausts it fails only its own request (`sfail`), never the
//! daemon.  A dead or silent worker's connection is torn down and
//! re-established by its slot (dial-out) or retired (registered); a
//! client that disconnects mid-stream has its request cancelled and its
//! queued shards dropped.
//!
//! Fault isolation: a panic in one client or slot thread fails only the
//! affected request — slot threads convert panics into failed shard
//! attempts, client threads answer theirs with a structured `sfail` —
//! and the shared board recovers from mutex poisoning instead of letting
//! one dead thread wedge every other request behind a poisoned lock.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use effective_san::{Parallelism, SpecExperiment, SpecRow};
use obs::{sweep_tracer, Counter, Gauge, Histogram};
use workloads::{Scale, SpecBenchmark};

use crate::backoff::{Backoff, BACKOFF_BASE, BACKOFF_CAP};
use crate::coordinator::WorkerLaunch;
use crate::net::{
    protocol_handle, token_from_env, AttemptError, PipeTransport, TcpTransport, WorkerConn,
};
use crate::shard::{merge_experiment, plan_shards, MergeError, Shard};
use crate::wire::{self, IoLines, LineSource, ServiceEvent, ShardSpec, SweepRequest};

/// Configuration of a [`serve_forever`] daemon.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Address to accept client connections on (`host:port`; port `0`
    /// binds an ephemeral port, printed in the `serving` line).
    pub listen: String,
    /// Address to accept `sweep_worker --join` registrations on
    /// (printed in the `registering` line).  `None` disables dial-in
    /// registration.
    pub register_listen: Option<String>,
    /// Dial-out worker fleet addresses (each a `sweep_worker --listen`
    /// process).  May be empty when `register_listen` is set.
    pub workers: Vec<String>,
    /// Shared auth token required of every connection (worker, client,
    /// registration).  `None` disables authentication.
    pub token: Option<String>,
    /// Attempts per shard before its request fails.
    pub max_attempts: usize,
    /// Per-attempt budget for one shard (heartbeats do not extend it).
    pub shard_timeout: Option<Duration>,
    /// Per-read silence deadline on worker connections; heartbeats reset
    /// it, so it catches dead peers, not slow shards.
    pub silence_timeout: Option<Duration>,
    /// Bound on concurrently admitted requests; past it new requests
    /// get a structured `busy` reject.  `None` means unbounded.
    pub max_pending: Option<usize>,
    /// Bound on planned jobs (queued + in flight); a request whose
    /// shards would exceed it gets a `busy` reject — unless the daemon
    /// is idle, which always admits (no request may be unservable
    /// merely for being larger than the bound).  `None` means unbounded.
    pub max_queued_jobs: Option<usize>,
}

impl ServeOptions {
    /// Defaults for a daemon at `listen` over `workers`: 3 attempts per
    /// shard, no shard budget, a 10s silence deadline (workers heartbeat
    /// every [`crate::net::HEARTBEAT_INTERVAL`] while busy, so only a
    /// dead peer can go silent that long), no registration listener, no
    /// admission bounds, and the token from [`crate::net::TOKEN_ENV`].
    pub fn new(listen: String, workers: Vec<String>) -> ServeOptions {
        ServeOptions {
            listen,
            register_listen: None,
            workers,
            token: token_from_env(),
            max_attempts: 3,
            shard_timeout: None,
            silence_timeout: Some(Duration::from_secs(10)),
            max_pending: None,
            max_queued_jobs: None,
        }
    }
}

/// Render a `catch_unwind` payload for a structured service error (the
/// standard payloads are `&str` / `String`; anything else gets a generic
/// description rather than being dropped).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One schedulable unit on the global queue: a shard of one request.
struct Job {
    req_id: u64,
    scale: Scale,
    parallelism: Parallelism,
    shard: Shard,
    attempts: usize,
}

impl Job {
    fn spec(&self) -> ShardSpec {
        ShardSpec {
            id: self.shard.id,
            chunk: self.shard.chunk,
            scale: self.scale,
            parallelism: self.parallelism,
            benchmark: self.shard.benchmark.clone(),
            backends: self.shard.backends.clone(),
        }
    }
}

/// What a slot reports back to a request's driver.
enum JobOutcome {
    /// One chunk's fragment, ready for per-benchmark merging.
    Fragment {
        benchmark: String,
        chunk: usize,
        row: SpecRow,
    },
    /// The request cannot complete.
    Failed(RequestFailure),
}

/// Why a request ended without all of its rows.
pub(crate) enum RequestFailure {
    /// A shard ran out of attempts.
    Exhausted {
        shard_id: usize,
        benchmark: String,
        attempts: usize,
        /// The last attempt's failure.
        error: AttemptError,
    },
    /// No slot is left that could run the request's queued work.
    Stranded(String),
    /// A benchmark's fragments did not reassemble.
    Merge {
        benchmark: String,
        error: MergeError,
    },
    /// The row consumer went away (a client hung up mid-stream).
    ClientGone,
}

impl std::fmt::Display for RequestFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestFailure::Exhausted {
                benchmark,
                attempts,
                error,
                ..
            } => write!(
                f,
                "shard of benchmark `{benchmark}` failed after {attempts} attempts: {}",
                error.message()
            ),
            RequestFailure::Stranded(message) => f.write_str(message),
            RequestFailure::Merge { benchmark, .. } => write!(
                f,
                "merging benchmark `{benchmark}` failed: worker fragments disagree"
            ),
            RequestFailure::ClientGone => f.write_str("the client hung up mid-stream"),
        }
    }
}

/// A request whose shards are on the board, with the channel its
/// outcomes arrive on.
struct Submitted {
    jobs: usize,
    outcomes: mpsc::Receiver<JobOutcome>,
}

/// Progress of one live request, maintained alongside its result channel
/// and surfaced through the `stats` frame.
struct Progress {
    benchmarks: u64,
    jobs_total: u64,
    jobs_done: u64,
}

#[derive(Default)]
struct Board {
    queue: VecDeque<Job>,
    /// Jobs checked out by fleet threads and not yet delivered or
    /// re-queued — what the shutdown drain waits on.
    in_flight: usize,
    /// `(req_id, benchmark)` → the worker slot that claimed the pair.
    affinity: HashMap<(u64, String), usize>,
    /// Live requests' result channels, keyed by request id.  A request
    /// is live exactly while it is in here: `submit` inserts it under the
    /// lock that queues its jobs, `cancel` removes it, and a job of a
    /// request no longer here (re-queued after its client vanished or
    /// its sweep failed) is dropped instead of run.
    requests: HashMap<u64, mpsc::Sender<JobOutcome>>,
    /// Live requests' job progress, keyed by request id.
    progress: HashMap<u64, Progress>,
}

/// Why the admission gate turned one incoming request away.
#[derive(Debug)]
enum Rejection {
    /// Turn it away with a structured `busy` frame.
    Busy {
        retry_after_ms: u64,
        message: String,
    },
    /// The daemon is draining; answer with a structured `sfail`.
    ShuttingDown,
}

/// Where a slot's worker sessions come from.  The kind alone decides
/// what a failed attempt costs ([`SlotKind::on_failure`]).
#[derive(Clone)]
pub(crate) enum SlotKind {
    /// A one-shot sweep's worker process, spawned and spoken to over
    /// stdio pipes; respawned after every failure.
    Pipe {
        launch: WorkerLaunch,
        env: Vec<(String, String)>,
    },
    /// A one-shot sweep's `sweep_worker --listen` address: one that
    /// refuses a connection is gone for the rest of the sweep.
    Tcp(String),
    /// A daemon's `--tcp-workers` address, redialled forever.
    DialOut(String),
    /// A worker that dialled the daemon's registration port; its slot
    /// retires when the connection dies.
    Registered,
}

/// What one failed shard attempt costs a slot.
struct FailureCost {
    /// Charge the job's attempt budget.
    burn: bool,
    /// Wait out the slot's backoff before taking the next job.
    back_off: bool,
    /// Leave the fleet.
    retire: bool,
}

impl SlotKind {
    /// The cost of a failed attempt.  A connect failure (which never
    /// reached a worker) is free only for a dial-out slot, whose worker
    /// may just be restarting; it retires a one-shot TCP slot and is an
    /// ordinary failure for a pipe slot.  A failed shard always burns an
    /// attempt, retires a registered slot, and backs off before the next
    /// one-shot attempt.
    fn on_failure(&self, failure: &AttemptError) -> FailureCost {
        let connect = matches!(failure, AttemptError::Spawn(_));
        let (burn, back_off, retire) = match self {
            SlotKind::Pipe { .. } => (true, true, false),
            SlotKind::Tcp(_) => (true, !connect, connect),
            SlotKind::DialOut(_) => (!connect, connect, false),
            SlotKind::Registered => (true, false, true),
        };
        FailureCost {
            burn,
            back_off,
            retire,
        }
    }

    /// Open a fresh worker session: spawn-and-handshake for a pipe slot,
    /// connect-and-handshake for a TCP one.  A registered slot cannot
    /// reconnect; its worker has to dial in again.
    fn connect(
        &self,
        silence: Option<Duration>,
        token: Option<&str>,
    ) -> Result<WorkerConn, String> {
        let transport: Box<dyn crate::net::Transport> = match self {
            SlotKind::Pipe { launch, env } => {
                Box::new(PipeTransport::new(launch.spawn(env, token)?))
            }
            SlotKind::Tcp(addr) | SlotKind::DialOut(addr) => Box::new(
                TcpTransport::connect(addr, Some(Duration::from_secs(10)))
                    .map_err(|e| e.to_string())?,
            ),
            SlotKind::Registered => return Err("the registered worker has departed".to_string()),
        };
        WorkerConn::establish(transport, silence, token)
    }

    /// The slot's address as the stats and traces show it.
    fn label(&self) -> &str {
        match self {
            SlotKind::Pipe { .. } => "pipe",
            SlotKind::Tcp(addr) | SlotKind::DialOut(addr) => addr,
            SlotKind::Registered => "registered",
        }
    }
}

/// Lock-cheap live telemetry for one worker slot: every field is an
/// atomic `obs` primitive, so fleet threads update them without touching
/// the board lock and the stats snapshot reads them without stalling
/// anyone.
struct WorkerTelemetry {
    /// The worker's address as the daemon dials it (dial-out) or saw it
    /// connect (registered).
    addr: String,
    /// Whether the slot joined via the registration listener.
    registered: bool,
    /// 1 while the slot is serviceable.  Dial-out slots stay live (their
    /// fleet thread redials forever); a registered slot goes 0 when its
    /// worker departs.
    live: Gauge,
    /// 1 while the slot is running a shard attempt, 0 while idle.
    busy: Gauge,
    /// Shards this slot completed successfully.
    completed: Counter,
    /// Shard attempts this slot failed (retries and exhaustions alike).
    failed: Counter,
    /// Jobs this slot stole from another slot's claimed pair.
    steals: Counter,
    /// Heartbeat arrival gaps on this slot's connection, in µs (shared
    /// with the slot's [`WorkerConn`] via [`WorkerConn::observe_heartbeats`]).
    hb_gaps: Arc<Histogram>,
    /// Per-shard wall latency on this slot, in µs.
    latency: Histogram,
}

impl WorkerTelemetry {
    fn new(addr: &str, registered: bool) -> WorkerTelemetry {
        let live = Gauge::new();
        live.set(1);
        WorkerTelemetry {
            addr: addr.to_string(),
            registered,
            live,
            busy: Gauge::new(),
            completed: Counter::new(),
            failed: Counter::new(),
            steals: Counter::new(),
            hb_gaps: Arc::new(Histogram::new()),
            latency: Histogram::new(),
        }
    }
}

/// The queue, its condvar, the options every thread needs, and the
/// daemon's live telemetry (all-atomic, read by the `stats` frame).
struct Scheduler {
    board: Mutex<Board>,
    work_ready: Condvar,
    options: ServeOptions,
    /// One telemetry block per fleet slot, in slot order.  Append-only:
    /// dial-out slots at construction, registered slots as workers join
    /// (a departed slot keeps its index, with `live` at 0).
    telemetry: Mutex<Vec<Arc<WorkerTelemetry>>>,
    /// Set once by the `shutdown` control frame; every loop drains.
    shutting_down: AtomicBool,
    /// The daemon's own bound addresses, self-connected on shutdown to
    /// wake the blocking accept loops.
    wake_addrs: Mutex<Vec<String>>,
    /// Client connections accepted since the daemon started.
    clients_total: Counter,
    /// Sweep requests accepted since the daemon started.
    requests_total: Counter,
    /// Requests that ended in a structured `sfail`.
    requests_failed: Counter,
    /// Requests cancelled because their client vanished mid-stream.
    requests_cancelled: Counter,
    /// Requests turned away with a `busy` frame.
    rejected_busy: Counter,
}

impl Scheduler {
    fn new(options: ServeOptions) -> Scheduler {
        let telemetry = options
            .workers
            .iter()
            .map(|addr| Arc::new(WorkerTelemetry::new(addr, false)))
            .collect();
        Scheduler {
            board: Mutex::new(Board::default()),
            work_ready: Condvar::new(),
            options,
            telemetry: Mutex::new(telemetry),
            shutting_down: AtomicBool::new(false),
            wake_addrs: Mutex::new(Vec::new()),
            clients_total: Counter::new(),
            requests_total: Counter::new(),
            requests_failed: Counter::new(),
            requests_cancelled: Counter::new(),
            rejected_busy: Counter::new(),
        }
    }

    /// Lock the board, recovering from poisoning.  Every board mutation
    /// is completed before its guard drops (no invariant is ever left
    /// half-updated across a call that can panic), so a thread that dies
    /// while holding the lock leaves a consistent board behind — clearing
    /// the poison keeps the daemon and every other request alive instead
    /// of cascading one thread's panic into a fleet-wide wedge.
    fn lock_board(&self) -> MutexGuard<'_, Board> {
        self.board.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The telemetry block of one slot (the vec is append-only, so the
    /// index is stable for the slot's lifetime).
    fn telemetry(&self, slot: usize) -> Arc<WorkerTelemetry> {
        let telemetry = self
            .telemetry
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        telemetry[slot].clone()
    }

    /// A point-in-time copy of every slot's telemetry handle.
    fn telemetry_snapshot(&self) -> Vec<Arc<WorkerTelemetry>> {
        self.telemetry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Append a new fleet slot (a registered worker joining at runtime)
    /// and return its index and telemetry.
    fn add_slot(&self, addr: &str, registered: bool) -> (usize, Arc<WorkerTelemetry>) {
        let mut telemetry = self
            .telemetry
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let slot = telemetry.len();
        let block = Arc::new(WorkerTelemetry::new(addr, registered));
        telemetry.push(block.clone());
        (slot, block)
    }

    /// How many slots are currently serviceable.
    fn live_workers(&self) -> usize {
        self.telemetry_snapshot()
            .iter()
            .filter(|t| t.live.get() != 0)
            .count()
    }

    fn shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Put the board into draining mode: admission stops, and each slot
    /// gets the drain signal from [`Scheduler::next_for`] once the queue
    /// is empty and nothing is in flight.  Returns `false` when the board
    /// was already draining.  The flag flips under the board lock, so a
    /// slot between its drain check and its wait cannot miss the wakeup
    /// and sit out the poll interval.
    fn drain(&self) -> bool {
        let board = self.lock_board();
        let first = !self.shutting_down.swap(true, Ordering::SeqCst);
        drop(board);
        self.work_ready.notify_all();
        first
    }

    /// No slot is left that could run the queued work: drop it and fail
    /// every live request with `message`.
    fn strand(&self, message: &str) {
        let mut board = self.lock_board();
        board.queue.clear();
        for tx in board.requests.values() {
            let _ = tx.send(JobOutcome::Failed(RequestFailure::Stranded(
                message.to_string(),
            )));
        }
    }

    /// Flip the daemon into draining mode (idempotent): stop admitting,
    /// wake every parked loop, and — when no worker could ever drain the
    /// queue — fail the pending requests instead of hanging them.
    fn initiate_shutdown(&self) {
        if !self.drain() {
            return;
        }
        eprintln!("sweep serve: shutdown requested; draining in-flight work");
        sweep_tracer().event(
            "serve_shutdown",
            &[("live_workers", self.live_workers().into())],
        );
        if self.live_workers() == 0 {
            self.strand("daemon is shutting down with no live workers");
        }
        // Accept loops block in `incoming()`; a throwaway self-connect
        // makes them return once so they can observe the flag.
        let wake = self
            .wake_addrs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        for addr in wake {
            let _ = TcpStream::connect(&addr);
        }
    }

    /// Pull the next job slot `slot` should run: first a job whose
    /// `(request, benchmark)` this slot already claimed, then an
    /// unclaimed one (claiming it), then — with nothing better to do —
    /// steal a claimed pair wholesale.  Blocks until work arrives;
    /// `None` is the drain signal (the board is draining and every job
    /// has been delivered), upon which the slot releases its worker and
    /// exits.
    fn next_for(&self, slot: usize) -> Option<Job> {
        let mut board = self.lock_board();
        loop {
            while let Some(idx) = Self::pick(&board, slot) {
                let job = board.queue.remove(idx).expect("picked index in range");
                if !board.requests.contains_key(&job.req_id) {
                    continue;
                }
                let prior = board
                    .affinity
                    .insert((job.req_id, job.shard.benchmark.clone()), slot);
                board.in_flight += 1;
                // A pair previously claimed by another slot moves here
                // wholesale: that is a steal, worth counting and tracing.
                if let Some(victim) = prior.filter(|&p| p != slot) {
                    self.telemetry(slot).steals.inc();
                    sweep_tracer().event(
                        "serve_steal",
                        &[
                            ("req", job.req_id.into()),
                            ("benchmark", job.shard.benchmark.as_str().into()),
                            ("from_slot", victim.into()),
                            ("to_slot", slot.into()),
                        ],
                    );
                }
                return Some(job);
            }
            if self.shutting_down() && board.queue.is_empty() && board.in_flight == 0 {
                return None;
            }
            board = match self
                .work_ready
                .wait_timeout(board, Duration::from_millis(200))
            {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }

    fn pick(board: &Board, slot: usize) -> Option<usize> {
        let claim = |job: &Job| {
            board
                .affinity
                .get(&(job.req_id, job.shard.benchmark.clone()))
                .copied()
        };
        board
            .queue
            .iter()
            .position(|job| claim(job) == Some(slot))
            .or_else(|| board.queue.iter().position(|job| claim(job).is_none()))
            .or(if board.queue.is_empty() {
                None
            } else {
                Some(0)
            })
    }

    /// Deliver a job outcome to its request, if the request still exists.
    fn deliver(&self, req_id: u64, outcome: JobOutcome) {
        let mut board = self.lock_board();
        board.in_flight = board.in_flight.saturating_sub(1);
        if matches!(outcome, JobOutcome::Fragment { .. }) {
            if let Some(progress) = board.progress.get_mut(&req_id) {
                progress.jobs_done += 1;
            }
        }
        if let Some(tx) = board.requests.get(&req_id) {
            // A dead receiver means the client thread is gone; its
            // deregistration will cancel the request.
            let _ = tx.send(outcome);
        }
        drop(board);
        // The drain condition (`in_flight == 0`) may have just become
        // true; parked slots need to wake to see it.
        if self.shutting_down() {
            self.work_ready.notify_all();
        }
    }

    /// One shard attempt failed: burn an attempt (when the slot kind
    /// charges this failure), then exhaust the request or put the job
    /// back on the queue for any slot to take over.
    fn finish_failure(&self, slot: usize, mut job: Job, burned: bool, error: AttemptError) {
        if burned {
            job.attempts += 1;
        }
        if job.attempts >= self.options.max_attempts {
            self.deliver(
                job.req_id,
                JobOutcome::Failed(RequestFailure::Exhausted {
                    shard_id: job.shard.id,
                    benchmark: job.shard.benchmark,
                    attempts: job.attempts,
                    error,
                }),
            );
        } else {
            let message = error.message();
            sweep_tracer().event(
                "serve_requeue",
                &[
                    ("req", job.req_id.into()),
                    ("benchmark", job.shard.benchmark.as_str().into()),
                    ("slot", slot.into()),
                    ("attempts", job.attempts.into()),
                    ("burned", burned.into()),
                    ("error", message.as_str().into()),
                ],
            );
            let mut board = self.lock_board();
            board.in_flight = board.in_flight.saturating_sub(1);
            // Shed the claim so any worker may take over.
            board
                .affinity
                .remove(&(job.req_id, job.shard.benchmark.clone()));
            board.queue.push_back(job);
            drop(board);
            self.work_ready.notify_all();
        }
    }

    /// Gate one incoming request carrying `incoming_jobs` planned shards
    /// against the admission bounds, under the caller's board lock.
    fn admission(&self, board: &Board, incoming_jobs: usize) -> Result<(), Rejection> {
        if self.shutting_down() {
            return Err(Rejection::ShuttingDown);
        }
        let pending = board.requests.len();
        let retry_after_ms = (100 + 50 * pending as u64).min(1_000);
        if let Some(max_pending) = self.options.max_pending {
            if pending >= max_pending {
                return Err(Rejection::Busy {
                    retry_after_ms,
                    message: format!("{pending} requests already pending (limit {max_pending})"),
                });
            }
        }
        if let Some(max_queued) = self.options.max_queued_jobs {
            let load = board.queue.len() + board.in_flight;
            // Livelock guard: an idle daemon admits any request, even
            // one alone bigger than the bound — otherwise it could never
            // run at all.
            if load > 0 && load + incoming_jobs > max_queued {
                return Err(Rejection::Busy {
                    retry_after_ms,
                    message: format!(
                        "{load} jobs already queued or running, {incoming_jobs} more would \
                         exceed the limit of {max_queued}"
                    ),
                });
            }
        }
        Ok(())
    }

    /// Plan `request` over `width` slots and queue its shards.  Admission
    /// and enqueue share one board lock, so two requests arriving
    /// together cannot race past a bound.
    fn submit(
        &self,
        req_id: u64,
        request: &SweepRequest,
        width: usize,
    ) -> Result<Submitted, Rejection> {
        let shards = plan_shards(&request.benchmarks, &request.backends, width);
        let jobs = shards.len();
        let (tx, outcomes) = mpsc::channel();
        let mut board = self.lock_board();
        self.admission(&board, jobs)?;
        board.requests.insert(req_id, tx);
        board.progress.insert(
            req_id,
            Progress {
                benchmarks: request.benchmarks.len() as u64,
                jobs_total: jobs as u64,
                jobs_done: 0,
            },
        );
        board.queue.extend(shards.into_iter().map(|shard| Job {
            req_id,
            scale: request.scale,
            parallelism: request.parallelism,
            shard,
            attempts: 0,
        }));
        drop(board);
        self.work_ready.notify_all();
        Ok(Submitted { jobs, outcomes })
    }

    /// Collect a submitted request's outcomes.  As soon as every chunk
    /// of one benchmark has arrived, the fragments are merged (through
    /// [`merge_experiment`], one benchmark at a time) and the row handed
    /// to `on_row` with its request-order index; `on_row` returns `false`
    /// when its consumer is gone.
    fn collect(
        &self,
        submitted: Submitted,
        request: &SweepRequest,
        mut on_row: impl FnMut(usize, SpecRow) -> bool,
    ) -> Result<(), RequestFailure> {
        // The planner gives every benchmark the same number of chunks.
        let chunks_per_bench = (submitted.jobs / request.benchmarks.len().max(1)).max(1);
        let index_of: HashMap<&str, usize> = request
            .benchmarks
            .iter()
            .enumerate()
            .map(|(i, name)| (name.as_str(), i))
            .collect();
        let mut fragments: HashMap<String, Vec<(String, usize, SpecRow)>> = HashMap::new();
        for _ in 0..submitted.jobs {
            let (benchmark, chunk, row) = match submitted.outcomes.recv() {
                Ok(JobOutcome::Fragment {
                    benchmark,
                    chunk,
                    row,
                }) => (benchmark, chunk, row),
                Ok(JobOutcome::Failed(failure)) => return Err(failure),
                // Every sender is gone with fragments still owed: the
                // daemon is shutting down.
                Err(_) => {
                    return Err(RequestFailure::Stranded(
                        "sweep service shut down mid-request".to_string(),
                    ))
                }
            };
            let parts = fragments.entry(benchmark.clone()).or_default();
            parts.push((benchmark.clone(), chunk, row));
            if parts.len() < chunks_per_bench {
                continue;
            }
            let parts = fragments.remove(&benchmark).expect("entry just filled");
            let mut merged = merge_experiment(
                request.scale,
                std::slice::from_ref(&benchmark),
                &request.backends,
                parts,
            )
            .map_err(|error| RequestFailure::Merge {
                benchmark: benchmark.clone(),
                error,
            })?;
            if !on_row(index_of[benchmark.as_str()], merged.rows.remove(0)) {
                return Err(RequestFailure::ClientGone);
            }
        }
        Ok(())
    }

    fn cancel(&self, req_id: u64) {
        let mut board = self.lock_board();
        board.requests.remove(&req_id);
        board.progress.remove(&req_id);
        board.queue.retain(|job| job.req_id != req_id);
        board.affinity.retain(|(id, _), _| *id != req_id);
    }

    /// Cancel a request whose client hung up, counting and logging the
    /// cancellation (the plain [`Scheduler::cancel`] also runs on normal
    /// completion, where no cancellation happened).
    fn cancel_gone_client(&self, req_id: u64, when: &str) {
        self.requests_cancelled.inc();
        eprintln!("sweep serve: request {req_id} cancelled: client hung up {when}");
        sweep_tracer().event(
            "serve_request_cancel",
            &[("req", req_id.into()), ("when", when.into())],
        );
        self.cancel(req_id);
    }

    /// Snapshot the daemon's live statistics for a `stats` reply.  One
    /// board lock for the queue/progress view; every per-worker figure is
    /// atomic, read without blocking the fleet.
    fn snapshot_stats(&self) -> wire::ServiceStats {
        let telemetry = self.telemetry_snapshot();
        let board = self.lock_board();
        let queued_jobs = board.queue.len() as u64;
        let pending_requests = board.requests.len() as u64;
        let mut claimed = vec![0u64; telemetry.len()];
        let mut queued_of: HashMap<u64, u64> = HashMap::new();
        for job in &board.queue {
            *queued_of.entry(job.req_id).or_default() += 1;
            if let Some(&slot) = board
                .affinity
                .get(&(job.req_id, job.shard.benchmark.clone()))
            {
                if let Some(n) = claimed.get_mut(slot) {
                    *n += 1;
                }
            }
        }
        let mut requests: Vec<wire::RequestProgress> = board
            .progress
            .iter()
            .map(|(&req_id, p)| wire::RequestProgress {
                req_id,
                benchmarks: p.benchmarks,
                jobs_total: p.jobs_total,
                jobs_done: p.jobs_done,
                jobs_queued: queued_of.get(&req_id).copied().unwrap_or(0),
            })
            .collect();
        drop(board);
        requests.sort_by_key(|r| r.req_id);
        let workers = telemetry
            .iter()
            .enumerate()
            .map(|(slot, t)| wire::WorkerStats {
                slot,
                addr: t.addr.clone(),
                live: t.live.get() != 0,
                registered: t.registered,
                busy: t.busy.get() != 0,
                queued: claimed[slot],
                completed: t.completed.get(),
                failed: t.failed.get(),
                steals: t.steals.get(),
                heartbeat_gap_us: t.hb_gaps.snapshot().summary(),
                shard_latency_us: t.latency.snapshot().summary(),
            })
            .collect();
        wire::ServiceStats {
            queued_jobs,
            clients_total: self.clients_total.get(),
            requests_total: self.requests_total.get(),
            requests_failed: self.requests_failed.get(),
            requests_cancelled: self.requests_cancelled.get(),
            pending_requests,
            rejected_busy: self.rejected_busy.get(),
            workers,
            requests,
        }
    }

    /// One slot: pull a job, run it on the slot's worker session
    /// (connecting first when there is none), then deliver the fragment
    /// or charge the failure as the slot's kind dictates.  Returns on the
    /// drain signal, releasing the worker, or when the slot retires.
    fn slot_loop(&self, slot: usize, kind: SlotKind, mut conn: Option<WorkerConn>) {
        let telemetry = self.telemetry(slot);
        let mut backoff = Backoff::new(BACKOFF_BASE, BACKOFF_CAP, 0xD1A1_0007 ^ slot as u64);
        while let Some(job) = self.next_for(slot) {
            let spec = job.spec();
            // A panic anywhere in the attempt (connection handling, the
            // wire decoder, shard plumbing) must not kill this slot with
            // the job checked out — that would shrink the fleet forever
            // and wedge the job's request.  Convert it to a failed attempt
            // so the normal retry/exhaust path fails only the affected
            // request.
            telemetry.busy.set(1);
            let attempt_started = Instant::now();
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                if conn.is_none() {
                    let mut fresh = kind
                        .connect(self.options.silence_timeout, self.options.token.as_deref())
                        .map_err(AttemptError::Spawn)?;
                    fresh.observe_heartbeats(telemetry.hb_gaps.clone());
                    conn = Some(fresh);
                }
                conn.as_mut().expect("connected above").run_shard(
                    &spec,
                    self.options.shard_timeout,
                    self.options.silence_timeout,
                )
            }))
            .unwrap_or_else(|payload| {
                Err(AttemptError::Failed(format!(
                    "fleet thread panicked while running the shard: {}",
                    panic_message(payload.as_ref())
                )))
            });
            telemetry.busy.set(0);
            let failure = match attempt {
                Ok((chunk, row)) => {
                    backoff.reset();
                    telemetry.completed.inc();
                    telemetry
                        .latency
                        .record(attempt_started.elapsed().as_micros() as u64);
                    self.deliver(
                        job.req_id,
                        JobOutcome::Fragment {
                            benchmark: job.shard.benchmark,
                            chunk,
                            row,
                        },
                    );
                    continue;
                }
                Err(failure) => failure,
            };
            telemetry.failed.inc();
            // The session (if any) is in an unknown protocol state:
            // replace it before anyone retries.
            if let Some(dead) = conn.take() {
                dead.kill();
            }
            let cost = kind.on_failure(&failure);
            let message = failure.message();
            self.finish_failure(slot, job, cost.burn, failure);
            if cost.retire {
                self.retire(slot, &telemetry, &message);
                return;
            }
            if cost.back_off {
                std::thread::sleep(backoff.next_delay());
            }
        }
        // Drained: release the worker politely and exit.
        telemetry.live.set(0);
        if let Some(live) = conn.take() {
            live.shutdown();
        }
        if telemetry.registered {
            eprintln!(
                "sweep serve: registered worker {} released at shutdown",
                telemetry.addr
            );
        }
    }

    /// Take a slot out of the fleet after its worker failed for good.  A
    /// fleet that cannot grow (no registration listener) and has no live
    /// slot left can never run the queued work, so it is stranded.
    fn retire(&self, slot: usize, telemetry: &WorkerTelemetry, message: &str) {
        telemetry.live.set(0);
        if telemetry.registered {
            eprintln!(
                "sweep serve: registered worker {} departed: {message}",
                telemetry.addr
            );
        }
        sweep_tracer().event(
            "serve_worker_depart",
            &[
                ("slot", slot.into()),
                ("addr", telemetry.addr.as_str().into()),
                ("error", message.into()),
            ],
        );
        if self.options.register_listen.is_none() && self.live_workers() == 0 {
            self.strand(&format!(
                "every TCP worker became unreachable with work remaining; last error: {message}"
            ));
        }
    }

    /// One client connection: handshake, authenticate, decode the
    /// request (or answer a `stats` / `shutdown` control frame), enqueue
    /// its shards, merge and stream rows as benchmarks complete.
    fn client_loop(&self, stream: TcpStream, req_id: u64) {
        let mut write_half = match protocol_handle(&stream) {
            Ok(w) => w,
            Err(_) => return,
        };
        let mut send = |lines: &[String]| wire::write_frame(&mut write_half, lines).is_ok();
        let mut lines = IoLines::new(BufReader::new(stream));
        if !send(&[wire::HANDSHAKE.to_string()]) {
            return;
        }
        match lines.next_line() {
            Ok(Some(line)) if line == wire::HANDSHAKE => {}
            _ => return, // wrong version or vanished client: nothing to salvage
        }
        // v7: the optional `auth` frame rides right after the version
        // line; with a daemon token configured it is mandatory, and a
        // mismatch ends the conversation before any capability exchange.
        // The rejection (and its trace) names the failure, never the
        // token.
        let first = match wire::auth_gate(&mut lines, self.options.token.as_deref()) {
            Ok(wire::AuthGate::Accepted { leftover }) => leftover,
            Ok(wire::AuthGate::Rejected { reason }) => {
                eprintln!(
                    "sweep serve: client of request {req_id} failed authentication: {reason}"
                );
                sweep_tracer().event(
                    "serve_auth_reject",
                    &[("req", req_id.into()), ("reason", reason.into())],
                );
                send(&[wire::encode_auth_reject(reason)]);
                // Drain what the peer already wrote before closing:
                // dropping a socket with unread data resets it, which
                // could wipe the reject frame out from under a client
                // still mid-request-write.
                let _ = write_half.shutdown(std::net::Shutdown::Write);
                let _ = write_half.set_read_timeout(Some(Duration::from_secs(2)));
                while let Ok(Some(_)) = lines.next_line() {}
                return;
            }
            Err(_) => return,
        };
        // A bare `stats` line in place of the request block queries the
        // daemon's live statistics; a `shutdown` line asks the daemon to
        // drain and exit.  Any other first line is handed back to the
        // request decoder.
        let first = match first {
            Some(line) => line,
            None => match lines.next_line() {
                Ok(Some(line)) => line,
                _ => return,
            },
        };
        if first == wire::STATS_REQUEST {
            send(&wire::encode_stats(&self.snapshot_stats()));
            return;
        }
        if first == wire::SHUTDOWN_REQUEST {
            send(&[wire::SHUTDOWN_ACK.to_string()]);
            self.initiate_shutdown();
            return;
        }
        let mut lines = wire::PrependedLine::new(Some(first), lines);
        let request = match wire::decode_request(&mut lines) {
            Ok(Some(request)) => request,
            Ok(None) => return,
            Err(e) => {
                self.requests_failed.inc();
                send(&wire::encode_service_event(&ServiceEvent::Failed {
                    message: e.to_string(),
                }));
                return;
            }
        };
        if let Err(message) = validate(&request) {
            self.requests_failed.inc();
            send(&wire::encode_service_event(&ServiceEvent::Failed {
                message,
            }));
            return;
        }

        let submitted = match self.submit(req_id, &request, self.live_workers().max(1)) {
            Ok(submitted) => submitted,
            Err(Rejection::ShuttingDown) => {
                self.requests_failed.inc();
                send(&wire::encode_service_event(&ServiceEvent::Failed {
                    message: "sweep service is shutting down".to_string(),
                }));
                return;
            }
            Err(Rejection::Busy {
                retry_after_ms,
                message,
            }) => {
                self.rejected_busy.inc();
                eprintln!("sweep serve: request {req_id} turned away busy: {message}");
                sweep_tracer().event(
                    "serve_busy_reject",
                    &[
                        ("req", req_id.into()),
                        ("retry_after_ms", retry_after_ms.into()),
                        ("message", message.as_str().into()),
                    ],
                );
                send(&[wire::encode_busy(retry_after_ms, &message)]);
                return;
            }
        };
        let total_jobs = submitted.jobs;
        self.requests_total.inc();
        eprintln!(
            "sweep serve: request {req_id} accepted ({} benchmarks × {} backends, {total_jobs} jobs)",
            request.benchmarks.len(),
            request.backends.len()
        );
        sweep_tracer().event(
            "serve_request_accept",
            &[
                ("req", req_id.into()),
                ("benchmarks", request.benchmarks.len().into()),
                ("backends", request.backends.len().into()),
                ("jobs", total_jobs.into()),
            ],
        );
        if !send(&[wire::encode_accepted(request.benchmarks.len())]) {
            self.cancel_gone_client(req_id, "before the accept line was written");
            return;
        }

        let outcome = self.collect(submitted, &request, |index, row| {
            send(&wire::encode_service_event(&ServiceEvent::Row {
                index,
                row,
            }))
        });
        match outcome {
            Ok(()) => {
                send(&wire::encode_service_event(&ServiceEvent::Done {
                    rows: request.benchmarks.len(),
                }));
            }
            Err(RequestFailure::ClientGone) => {
                // Client hung up mid-stream: stop feeding it.
                self.cancel_gone_client(req_id, "mid-stream");
                return;
            }
            Err(failure) => {
                let message = failure.to_string();
                self.requests_failed.inc();
                eprintln!("sweep serve: request {req_id} failed: {message}");
                send(&wire::encode_service_event(&ServiceEvent::Failed {
                    message,
                }));
            }
        }
        self.cancel(req_id);
    }
}

/// Reject a request the scheduler could never complete, before accepting
/// it: unknown benchmarks, an empty benchmark list, no backends.
fn validate(request: &wire::SweepRequest) -> Result<(), String> {
    if request.benchmarks.is_empty() {
        return Err("request names no benchmarks".to_string());
    }
    if request.backends.is_empty() {
        return Err("request names no backends".to_string());
    }
    for name in &request.benchmarks {
        if SpecBenchmark::by_name(name).is_none() {
            return Err(format!(
                "unknown SPEC-like benchmark `{name}` (known: {})",
                SpecBenchmark::names().join(", ")
            ));
        }
    }
    let mut seen = HashSet::new();
    for name in &request.benchmarks {
        if !seen.insert(name.as_str()) {
            return Err(format!("benchmark `{name}` requested twice"));
        }
    }
    Ok(())
}

/// One accepted registration connection: authenticate the dialling
/// worker (every rejection is structured, sent before any capability
/// exchange), give it a fresh fleet slot, and serve jobs on it until it
/// departs.
fn register_worker(scheduler: &Scheduler, stream: TcpStream) {
    let peer = stream
        .peer_addr()
        .map_or_else(|_| "unknown".to_string(), |a| a.to_string());
    let transport = match TcpTransport::from_stream(stream, peer.clone()) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("sweep serve: registration from {peer} failed: {e}");
            return;
        }
    };
    match WorkerConn::establish(
        Box::new(transport),
        scheduler.options.silence_timeout,
        scheduler.options.token.as_deref(),
    ) {
        Ok(mut conn) => {
            let (slot, telemetry) = scheduler.add_slot(&peer, true);
            conn.observe_heartbeats(telemetry.hb_gaps.clone());
            eprintln!("sweep serve: worker {peer} registered as slot {slot}");
            sweep_tracer().event(
                "serve_worker_register",
                &[("slot", slot.into()), ("peer", peer.as_str().into())],
            );
            scheduler.work_ready.notify_all();
            scheduler.slot_loop(slot, SlotKind::Registered, Some(conn));
        }
        Err(e) => {
            // `establish` already answered the worker with a structured
            // `authfail` when credentials were the problem; the error
            // string never carries the token.
            eprintln!("sweep serve: registration from {peer} rejected: {e}");
            sweep_tracer().event(
                "serve_worker_reject",
                &[("peer", peer.as_str().into()), ("error", e.as_str().into())],
            );
        }
    }
}

/// Run the sweep service: bind `options.listen` (and, when configured,
/// `options.register_listen`), print `serving <addr>` — then
/// `registering <addr>` — to stdout, spawn the worker fleet threads, and
/// accept client connections until a `shutdown` control frame drains the
/// daemon (then return `Ok`, i.e. exit 0).
///
/// # Errors
///
/// [`crate::SweepError::Config`] when the options are unusable (no
/// dial-out fleet and no registration listener) or an address cannot be
/// bound; once serving, per-request failures go to their clients as
/// `sfail` events and never tear the daemon down.
pub fn serve_forever(options: ServeOptions) -> Result<(), crate::SweepError> {
    if options.workers.is_empty() && options.register_listen.is_none() {
        return Err(crate::SweepError::Config {
            message: "sweep serve needs at least one worker address or a --register-listen"
                .to_string(),
        });
    }
    let listener = TcpListener::bind(&options.listen).map_err(|e| crate::SweepError::Config {
        message: format!("cannot listen on {}: {e}", options.listen),
    })?;
    match listener.local_addr() {
        Ok(local) => println!("serving {local}"),
        Err(_) => println!("serving {}", options.listen),
    }
    let registrations = match &options.register_listen {
        Some(addr) => {
            let reg = TcpListener::bind(addr).map_err(|e| crate::SweepError::Config {
                message: format!("cannot accept registrations on {addr}: {e}"),
            })?;
            match reg.local_addr() {
                Ok(local) => println!("registering {local}"),
                Err(_) => println!("registering {addr}"),
            }
            Some(reg)
        }
        None => None,
    };
    let _ = std::io::stdout().flush();

    let scheduler = Scheduler::new(options);
    {
        let mut wake = scheduler
            .wake_addrs
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Ok(local) = listener.local_addr() {
            wake.push(local.to_string());
        }
        if let Some(local) = registrations.as_ref().and_then(|r| r.local_addr().ok()) {
            wake.push(local.to_string());
        }
    }
    serve_loop(&scheduler, listener, registrations);
    eprintln!("sweep serve: drained, exiting");
    Ok(())
}

fn serve_loop(scheduler: &Scheduler, listener: TcpListener, registrations: Option<TcpListener>) {
    std::thread::scope(|scope| {
        for (slot, addr) in scheduler.options.workers.iter().enumerate() {
            scope.spawn(move || scheduler.slot_loop(slot, SlotKind::DialOut(addr.clone()), None));
        }
        if let Some(reg) = registrations {
            scope.spawn(move || {
                for stream in reg.incoming() {
                    if scheduler.shutting_down() {
                        break;
                    }
                    match stream {
                        Ok(stream) => {
                            scope.spawn(move || {
                                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
                                    register_worker(scheduler, stream)
                                })) {
                                    eprintln!(
                                        "sweep serve: registration thread panicked: {}",
                                        panic_message(payload.as_ref())
                                    );
                                }
                            });
                        }
                        Err(e) => eprintln!("sweep serve: registration accept failed: {e}"),
                    }
                }
            });
        }
        let mut next_req_id = 0u64;
        for stream in listener.incoming() {
            if scheduler.shutting_down() {
                break;
            }
            match stream {
                Ok(stream) => {
                    let req_id = next_req_id;
                    next_req_id += 1;
                    let peer = stream
                        .peer_addr()
                        .map_or_else(|_| "unknown".to_string(), |a| a.to_string());
                    scheduler.clients_total.inc();
                    eprintln!("sweep serve: client {peer} connected (request id {req_id})");
                    sweep_tracer().event(
                        "serve_client_connect",
                        &[("req", req_id.into()), ("peer", peer.as_str().into())],
                    );
                    scope.spawn(move || {
                        // A panic while serving one client must fail only
                        // that request: cancel its shards and, when the
                        // socket is still writable, tell the client why
                        // with a structured `sfail` instead of a hangup.
                        let mut write_half = stream.try_clone().ok();
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            scheduler.client_loop(stream, req_id)
                        }));
                        if let Err(payload) = outcome {
                            scheduler.cancel(req_id);
                            if let Some(w) = write_half.as_mut() {
                                let event = ServiceEvent::Failed {
                                    message: format!(
                                        "internal error while serving this request: {}",
                                        panic_message(payload.as_ref())
                                    ),
                                };
                                let _ = wire::write_frame(w, &wire::encode_service_event(&event));
                            }
                        }
                        eprintln!("sweep serve: client {peer} disconnected (request id {req_id})");
                        sweep_tracer().event(
                            "serve_client_disconnect",
                            &[("req", req_id.into()), ("peer", peer.as_str().into())],
                        );
                    });
                }
                Err(e) => eprintln!("sweep serve: accept failed: {e}"),
            }
        }
    });
}

/// Run one sweep to completion on a private board: submit `request`,
/// planned over the whole `fleet` (one [`SlotKind`] per configured slot,
/// at least one), serve it with as many of those slots as it has shards,
/// and assemble the rows the driver merged into one [`SpecExperiment`].
/// Once the last row is in (or the request has failed), the board
/// drains: queued work is dropped, in-flight attempts finish, and every
/// slot releases its worker and exits.
pub(crate) fn run_one_shot(
    options: ServeOptions,
    request: &SweepRequest,
    fleet: Vec<SlotKind>,
) -> Result<SpecExperiment, RequestFailure> {
    const REQ_ID: u64 = 0;
    let scheduler = Scheduler::new(options);
    let submitted = scheduler
        .submit(REQ_ID, request, fleet.len())
        .expect("a one-shot board has no admission bounds");
    let slots = fleet.len().clamp(1, submitted.jobs.max(1));
    let mut rows: Vec<Option<SpecRow>> = vec![None; request.benchmarks.len()];
    let outcome = std::thread::scope(|scope| {
        let scheduler = &scheduler;
        for kind in fleet.into_iter().take(slots) {
            let (slot, _) = scheduler.add_slot(kind.label(), false);
            scope.spawn(move || scheduler.slot_loop(slot, kind, None));
        }
        let outcome = scheduler.collect(submitted, request, |index, row| {
            rows[index] = Some(row);
            true
        });
        scheduler.cancel(REQ_ID);
        scheduler.drain();
        outcome
    });

    // Summarise each slot into the sweep tracer (`SWEEP_TRACE`); one
    // event per slot even when no heartbeat arrived, so a traced run
    // always documents its fleet.
    let tracer = sweep_tracer();
    if tracer.enabled() {
        for (slot, t) in scheduler.telemetry_snapshot().iter().enumerate() {
            let gaps = t.hb_gaps.snapshot().summary();
            let latency = t.latency.snapshot().summary();
            tracer.event(
                "sweep_worker_hb",
                &[
                    ("slot", slot.into()),
                    ("gap_count", gaps.count.into()),
                    ("gap_min_us", gaps.min.into()),
                    ("gap_p50_us", gaps.p50.into()),
                    ("gap_p99_us", gaps.p99.into()),
                    ("gap_max_us", gaps.max.into()),
                    ("completed", t.completed.get().into()),
                    ("failed", t.failed.get().into()),
                    ("shard_p50_us", latency.p50.into()),
                    ("shard_p99_us", latency.p99.into()),
                ],
            );
        }
    }

    outcome?;
    let rows = rows
        .into_iter()
        .zip(&request.benchmarks)
        .map(|(row, benchmark)| {
            // Only a benchmark named twice leaves a row unfilled.
            row.ok_or_else(|| RequestFailure::Merge {
                benchmark: benchmark.clone(),
                error: MergeError::Incomplete {
                    benchmark: benchmark.clone(),
                    detail: "no fragments".to_string(),
                },
            })
        })
        .collect::<Result<_, _>>()?;
    Ok(SpecExperiment {
        scale: request.scale,
        rows,
        sanitizers: request.backends.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheduler() -> Scheduler {
        let mut options = ServeOptions::new(
            "127.0.0.1:0".to_string(),
            vec!["unused-a".to_string(), "unused-b".to_string()],
        );
        options.token = None;
        Scheduler::new(options)
    }

    fn job(req_id: u64, benchmark: &str) -> Job {
        Job {
            req_id,
            scale: Scale::Test,
            parallelism: Parallelism::Sequential,
            shard: Shard {
                id: 0,
                chunk: 0,
                benchmark: benchmark.to_string(),
                backends: Vec::new(),
            },
            attempts: 0,
        }
    }

    #[test]
    fn stats_snapshot_reflects_board_and_steals() {
        let s = scheduler();
        {
            let mut board = s.lock_board();
            board.queue.push_back(job(1, "mcf"));
            board.queue.push_back(job(1, "gcc"));
            // Slot 1 claimed `gcc`; slot 0 will steal it after draining
            // the unclaimed job.
            board.affinity.insert((1, "gcc".to_string()), 1);
            board.progress.insert(
                1,
                Progress {
                    benchmarks: 2,
                    jobs_total: 2,
                    jobs_done: 0,
                },
            );
        }
        let stats = s.snapshot_stats();
        assert_eq!(stats.queued_jobs, 2);
        assert_eq!(stats.workers.len(), 2);
        assert_eq!(stats.workers[1].queued, 1, "slot 1 claimed one queued job");
        assert!(stats.workers[0].live && !stats.workers[0].registered);
        assert_eq!(stats.requests.len(), 1);
        assert_eq!(stats.requests[0].jobs_total, 2);
        assert_eq!(stats.requests[0].jobs_queued, 2);
        assert_eq!(stats.pending_requests, 0, "no result channel registered");
        assert_eq!(stats.rejected_busy, 0);

        // Only a live request's jobs run: register request 1 first.
        let (tx, _rx) = mpsc::channel();
        s.lock_board().requests.insert(1, tx);
        let first = s.next_for(0).expect("queued job");
        assert_eq!(first.shard.benchmark, "mcf", "unclaimed job first");
        assert_eq!(s.telemetry(0).steals.get(), 0);
        let second = s.next_for(0).expect("queued job");
        assert_eq!(second.shard.benchmark, "gcc");
        assert_eq!(
            s.telemetry(0).steals.get(),
            1,
            "taking slot 1's claimed pair is a steal"
        );
    }

    #[test]
    fn board_operations_survive_mutex_poisoning() {
        let s = scheduler();
        // Poison the lock the way a real bug would: die while holding it.
        let died = catch_unwind(AssertUnwindSafe(|| {
            let _guard = s.board.lock().unwrap();
            panic!("thread died holding the board");
        }));
        assert!(died.is_err());
        assert!(s.board.is_poisoned());
        // Every scheduler entry point keeps working for other requests
        // instead of propagating the poison.
        s.cancel(7);
        s.deliver(
            7,
            JobOutcome::Failed(RequestFailure::Stranded("gone".to_string())),
        );
        assert!(s.lock_board().queue.is_empty());
        // An attempt of the cancelled request that fails afterwards is
        // re-queued, but never handed to a worker: the next job out is
        // the live request's, and the cancelled one is gone.
        s.finish_failure(
            0,
            job(7, "mcf"),
            true,
            AttemptError::Failed("worker died".to_string()),
        );
        let (tx, _rx) = mpsc::channel();
        s.lock_board().requests.insert(8, tx);
        s.lock_board().queue.push_back(job(8, "gcc"));
        let next = s.next_for(0).expect("the live request's job");
        assert_eq!((next.req_id, next.shard.benchmark.as_str()), (8, "gcc"));
        assert!(s.lock_board().queue.is_empty());
    }

    #[test]
    fn client_connections_run_with_nodelay() {
        let s = scheduler();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        let probe = stream.try_clone().expect("clone");
        assert!(!probe.nodelay().expect("nodelay"), "off by default");
        std::thread::scope(|scope| {
            scope.spawn(|| s.client_loop(stream, 0));
            // The daemon greets first; by then its socket is set up.
            let mut greeting = String::new();
            std::io::BufRead::read_line(&mut BufReader::new(&client), &mut greeting)
                .expect("handshake");
            assert_eq!(greeting.trim_end(), wire::HANDSHAKE);
            assert!(probe.nodelay().expect("nodelay"));
            drop(client);
        });
    }

    #[test]
    fn panic_messages_render_standard_payloads() {
        let formatted = catch_unwind(|| panic!("boom {}", 2)).unwrap_err();
        assert_eq!(panic_message(formatted.as_ref()), "boom 2");
        let literal = catch_unwind(|| panic!("just a literal")).unwrap_err();
        assert_eq!(panic_message(literal.as_ref()), "just a literal");
    }

    #[test]
    fn registered_slots_join_and_retire_in_telemetry() {
        let s = scheduler();
        assert_eq!(s.live_workers(), 2, "dial-out slots are live from birth");
        let (slot, telemetry) = s.add_slot("10.0.0.9:1234", true);
        assert_eq!(slot, 2, "registered slots append after the dial-out fleet");
        assert_eq!(s.live_workers(), 3);
        telemetry.live.set(0);
        assert_eq!(s.live_workers(), 2, "a departed slot no longer counts");
        let stats = s.snapshot_stats();
        assert_eq!(stats.workers.len(), 3, "retired slots stay visible");
        assert!(stats.workers[2].registered);
        assert!(!stats.workers[2].live);
    }

    #[test]
    fn admission_turns_requests_away_only_under_load() {
        let mut options = ServeOptions::new("127.0.0.1:0".to_string(), vec!["w".to_string()]);
        options.token = None;
        options.max_pending = Some(1);
        options.max_queued_jobs = Some(2);
        let s = Scheduler::new(options);
        // The idle daemon admits anything — even a request bigger than
        // the whole queue bound (the livelock guard).
        {
            let board = s.lock_board();
            assert!(s.admission(&board, 100).is_ok());
        }
        // One job on the queue: the queue bound now bites…
        {
            let mut board = s.lock_board();
            board.queue.push_back(job(1, "mcf"));
            match s.admission(&board, 2) {
                Err(Rejection::Busy {
                    retry_after_ms,
                    message,
                }) => {
                    assert!(retry_after_ms >= 100);
                    assert!(message.contains("exceed the limit"), "{message}");
                }
                _ => panic!("over-bound request on a loaded daemon must be busy"),
            }
            // …but a request that still fits is admitted.
            assert!(s.admission(&board, 1).is_ok());
        }
        // A pending request exhausts `max_pending` regardless of size.
        {
            let mut board = s.lock_board();
            board.queue.clear();
            let (tx, _rx) = mpsc::channel();
            board.requests.insert(9, tx);
            match s.admission(&board, 1) {
                Err(Rejection::Busy { message, .. }) => {
                    assert!(message.contains("pending"), "{message}");
                }
                _ => panic!("past max_pending every request is busy"),
            }
        }
        // Shutdown trumps everything.
        s.shutting_down.store(true, Ordering::SeqCst);
        let board = s.lock_board();
        assert!(matches!(
            s.admission(&board, 1),
            Err(Rejection::ShuttingDown)
        ));
    }

    #[test]
    fn shutdown_drains_the_queue_then_parks_the_fleet() {
        let s = scheduler();
        let (tx, _rx) = mpsc::channel();
        {
            let mut board = s.lock_board();
            board.requests.insert(1, tx);
            board.queue.push_back(job(1, "mcf"));
        }
        s.initiate_shutdown();
        s.initiate_shutdown(); // idempotent
        let drained = s.next_for(0);
        assert!(drained.is_some(), "queued work still runs during drain");
        // Delivering the checked-out job is the last in-flight work;
        // after it the fleet gets the drain signal instead of blocking.
        s.deliver(
            1,
            JobOutcome::Failed(RequestFailure::Stranded("done draining".to_string())),
        );
        assert!(s.next_for(0).is_none(), "drained fleet threads exit");
        assert!(s.next_for(1).is_none(), "every slot sees the drain");
    }

    #[test]
    fn drain_wakes_parked_slots_without_waiting_out_the_poll() {
        // A one-shot sweep drains its board after the last row; a slot
        // parked on an empty queue must see that at once, not after the
        // 200ms `wait_timeout` that bounds every park.
        let s = scheduler();
        std::thread::scope(|scope| {
            let s = &s;
            let parked: Vec<_> = (0..2)
                .map(|slot| scope.spawn(move || s.next_for(slot).is_none()))
                .collect();
            // Give the slots time to park.  A slot that has not parked
            // yet sees the flag on its first check, so the sleep cannot
            // make the assertion below fail; it only makes it bite.
            std::thread::sleep(Duration::from_millis(20));
            let drained = Instant::now();
            assert!(s.drain(), "the first drain flips the board");
            for slot in parked {
                assert!(slot.join().expect("slot thread"), "drain signal, not a job");
            }
            assert!(
                drained.elapsed() < Duration::from_millis(100),
                "parked slots took {:?} to see the drain",
                drained.elapsed()
            );
        });
        assert!(!s.drain(), "draining twice is a no-op");
    }

    #[test]
    fn slot_kind_alone_prices_a_failed_attempt() {
        let connect = AttemptError::Spawn("refused".to_string());
        let shard = AttemptError::Failed("worker died".to_string());
        let pipe = SlotKind::Pipe {
            launch: WorkerLaunch::ReExec,
            env: Vec::new(),
        };
        let cost = |kind: &SlotKind, failure: &AttemptError| {
            let c = kind.on_failure(failure);
            (c.burn, c.back_off, c.retire)
        };
        // (burn an attempt, back off, retire the slot)
        assert_eq!(cost(&pipe, &connect), (true, true, false));
        assert_eq!(cost(&pipe, &shard), (true, true, false));
        let tcp = SlotKind::Tcp("w".to_string());
        assert_eq!(cost(&tcp, &connect), (true, false, true));
        assert_eq!(cost(&tcp, &shard), (true, true, false));
        let dial = SlotKind::DialOut("w".to_string());
        assert_eq!(cost(&dial, &connect), (false, true, false));
        assert_eq!(cost(&dial, &shard), (true, false, false));
        assert_eq!(cost(&SlotKind::Registered, &shard), (true, false, true));
    }
}
