//! Network-capable transports for the coordinator↔worker protocol, plus
//! the streaming client of the `sweep serve` daemon.
//!
//! The wire format is line-oriented over *any* byte stream, so the
//! process-sharded sweep can hop machines; this module is that hop.  A
//! [`Transport`] carries protocol lines over either a worker process's
//! stdio pipes ([`PipeTransport`]) or a TCP socket ([`TcpTransport`]),
//! and a [`WorkerConn`] layers the session opening (handshake version
//! check, the [`wire::auth_gate`] token gate, [`wire::Hello`]
//! capabilities), heartbeat-aware read deadlines, and shard execution on
//! top — the coordinator and the `sweep serve` daemon drive workers
//! through the same type.
//!
//! Reads are pumped through a dedicated thread per connection
//! ([`LinePump`]) so deadlines work uniformly: blocking pipe reads have no
//! native timeout, and socket timeouts would tear lines apart mid-read.
//! The worker side of a session ([`crate::worker`]) reads its peer
//! through a pump too, for the same reason.

use std::io::{BufRead, BufReader};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::process::{Child, ChildStdin};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use effective_san::{SpecExperiment, SpecRow};

use crate::backoff::{Backoff, BACKOFF_BASE, BACKOFF_CAP};
use crate::chaos::{Chaos, LineFate};
use crate::wire::{self, Hello, LineSource, Reply, ShardSpec, SweepRequest, WireError};

/// Name of the shared-auth-token environment variable.  When set, every
/// connection this process initiates or accepts carries/requires the
/// wire-v7 `auth` frame.  The token itself never reaches trace events,
/// stats output or error messages.
pub const TOKEN_ENV: &str = "SWEEP_TOKEN";

/// The shared auth token resolved from [`TOKEN_ENV`] (empty = unset).
pub fn token_from_env() -> Option<String> {
    std::env::var(TOKEN_ENV).ok().filter(|t| !t.is_empty())
}

/// Cadence of worker heartbeats (pipe and TCP alike) while a shard
/// executes.
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(500);

/// Ready a TCP socket entering the protocol and return a second handle
/// to it, so one handle can read while the other writes.  Turns
/// `TCP_NODELAY` on: together with one write per frame
/// ([`wire::write_frame`]) that keeps a frame's tail from waiting out the
/// peer's delayed ACK.  Every protocol socket passes through here — both
/// ends of every client, worker and registration connection.  A socket
/// that refuses the option still speaks the protocol, only slower.
pub(crate) fn protocol_handle(stream: &TcpStream) -> std::io::Result<TcpStream> {
    let _ = stream.set_nodelay(true);
    stream.try_clone()
}

/// A reader thread pumping protocol lines into a channel, so the consumer
/// can apply per-read deadlines with `recv_timeout` regardless of whether
/// the underlying stream is a pipe or a socket.
pub struct LinePump {
    rx: mpsc::Receiver<Result<Option<String>, WireError>>,
    finished: bool,
}

impl LinePump {
    /// Spawn the pump thread over a buffered reader.  The thread exits at
    /// end of stream, on a read error, or when the pump is dropped.
    ///
    /// This is one of the two chaos seams ([`crate::chaos`]): with
    /// `SWEEP_CHAOS` armed, a received line may be delivered late or the
    /// whole connection may be reported dropped mid-stream.
    pub fn spawn<R: BufRead + Send + 'static>(mut reader: R) -> LinePump {
        let (tx, rx) = mpsc::channel();
        std::thread::Builder::new()
            .name("sweep-line-pump".to_string())
            .spawn(move || loop {
                let mut line = String::new();
                match reader.read_line(&mut line) {
                    Ok(0) => {
                        let _ = tx.send(Ok(None));
                        break;
                    }
                    Ok(_) => {
                        while line.ends_with('\n') || line.ends_with('\r') {
                            line.pop();
                        }
                        match Chaos::global().map(|plan| plan.fate(line.len())) {
                            Some(LineFate::Drop { .. }) => {
                                let _ = tx.send(Err(WireError::Io {
                                    message: "chaos: injected connection drop".to_string(),
                                }));
                                break;
                            }
                            Some(LineFate::DeliverAfter(wait)) => std::thread::sleep(wait),
                            Some(LineFate::Deliver) | None => {}
                        }
                        if tx.send(Ok(Some(line))).is_err() {
                            break;
                        }
                    }
                    Err(e) => {
                        let _ = tx.send(Err(WireError::Io {
                            message: e.to_string(),
                        }));
                        break;
                    }
                }
            })
            .expect("spawn line-pump thread");
        LinePump {
            rx,
            finished: false,
        }
    }

    /// The next line; `None` at end of stream, [`WireError::Timeout`] when
    /// no line arrives within `timeout` (`None` = wait forever).
    pub fn recv(&mut self, timeout: Option<Duration>) -> Result<Option<String>, WireError> {
        if self.finished {
            return Ok(None);
        }
        let received = match timeout {
            None => self.rx.recv().map_err(|_| None),
            Some(t) => self.rx.recv_timeout(t).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => Some(t),
                mpsc::RecvTimeoutError::Disconnected => None,
            }),
        };
        match received {
            Ok(Ok(Some(line))) => Ok(Some(line)),
            Ok(Ok(None)) | Err(None) => {
                // EOF, or the pump thread is gone: the stream is over.
                self.finished = true;
                Ok(None)
            }
            Ok(Err(e)) => {
                self.finished = true;
                Err(e)
            }
            Err(Some(t)) => Err(WireError::Timeout {
                waited_ms: t.as_millis() as u64,
            }),
        }
    }
}

/// A bidirectional line carrier for one protocol peer.
pub trait Transport: Send {
    /// Send `lines` as one frame: terminators added, one write, flushed
    /// ([`wire::write_frame`]).
    fn send_frame(&mut self, lines: &[String]) -> Result<(), WireError>;
    /// Send one line (terminator added, flushed): a one-line frame.
    fn send_line(&mut self, line: &str) -> Result<(), WireError> {
        self.send_frame(&[line.to_string()])
    }
    /// Receive one line within `timeout` (`None` = block); `Ok(None)` at
    /// end of stream.
    fn recv_line(&mut self, timeout: Option<Duration>) -> Result<Option<String>, WireError>;
    /// Fold peer-specific post-mortem detail (a child's exit status, the
    /// peer address) into an error description for the retry log.
    fn describe_death(&mut self, error: &WireError) -> String;
    /// Tear the connection down hard (kill the child / drop the socket).
    fn kill(&mut self);
    /// Close politely after a `done` command (wait for a child to exit,
    /// shut a socket down).
    fn finish(&mut self);
}

/// [`Transport`] over a worker child process's stdio pipes.
pub struct PipeTransport {
    child: Child,
    stdin: Option<ChildStdin>,
    pump: LinePump,
}

impl PipeTransport {
    /// Wrap a spawned worker whose stdin/stdout are piped.
    ///
    /// # Panics
    ///
    /// Panics if the child's stdin or stdout was not piped.
    pub fn new(mut child: Child) -> PipeTransport {
        let stdin = child.stdin.take().expect("worker stdin piped");
        let stdout = child.stdout.take().expect("worker stdout piped");
        PipeTransport {
            child,
            stdin: Some(stdin),
            pump: LinePump::spawn(BufReader::new(stdout)),
        }
    }
}

impl Transport for PipeTransport {
    fn send_frame(&mut self, lines: &[String]) -> Result<(), WireError> {
        let Some(stdin) = self.stdin.as_mut() else {
            return Err(WireError::Io {
                message: "worker stdin already closed".to_string(),
            });
        };
        wire::write_frame(stdin, lines).map_err(|e| WireError::Io {
            message: e.to_string(),
        })
    }

    fn recv_line(&mut self, timeout: Option<Duration>) -> Result<Option<String>, WireError> {
        self.pump.recv(timeout)
    }

    /// EOF on the pipe can be observed a beat before the child becomes
    /// reapable, so poll `try_wait` briefly; a child that is genuinely
    /// still alive (e.g. it garbled a line but keeps running) falls
    /// through to the protocol error alone.
    fn describe_death(&mut self, error: &WireError) -> String {
        for _ in 0..50 {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    return format!("worker exited with {status} mid-shard ({error})")
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(_) => break,
            }
        }
        error.to_string()
    }

    fn kill(&mut self) {
        self.stdin = None;
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    fn finish(&mut self) {
        self.stdin = None;
        let _ = self.child.wait();
    }
}

/// [`Transport`] over a TCP connection to a `sweep_worker --listen`
/// process (or any peer speaking the protocol).
pub struct TcpTransport {
    stream: TcpStream,
    pump: LinePump,
    peer: String,
}

impl TcpTransport {
    /// Connect to `addr` within `timeout` and wrap the stream.
    pub fn connect(addr: &str, timeout: Option<Duration>) -> Result<TcpTransport, WireError> {
        let io_err = |e: std::io::Error| WireError::Io {
            message: format!("connecting to {addr}: {e}"),
        };
        let stream = match timeout {
            None => TcpStream::connect(addr).map_err(io_err)?,
            Some(t) => {
                let resolved = addr
                    .to_socket_addrs()
                    .map_err(io_err)?
                    .next()
                    .ok_or_else(|| WireError::Io {
                        message: format!("address `{addr}` resolved to nothing"),
                    })?;
                TcpStream::connect_timeout(&resolved, t).map_err(io_err)?
            }
        };
        TcpTransport::from_stream(stream, addr.to_string())
    }

    /// Wrap an already established stream, with `TCP_NODELAY` on.
    /// [`TcpTransport::connect`] ends here, and so do the daemon's
    /// registered-worker connections.
    pub fn from_stream(stream: TcpStream, peer: String) -> Result<TcpTransport, WireError> {
        let reader = protocol_handle(&stream).map_err(|e| WireError::Io {
            message: format!("cloning stream to {peer}: {e}"),
        })?;
        Ok(TcpTransport {
            stream,
            pump: LinePump::spawn(BufReader::new(reader)),
            peer,
        })
    }
}

impl Transport for TcpTransport {
    fn send_frame(&mut self, lines: &[String]) -> Result<(), WireError> {
        wire::write_frame(&mut self.stream, lines).map_err(|e| WireError::Io {
            message: format!("writing to {}: {e}", self.peer),
        })
    }

    fn recv_line(&mut self, timeout: Option<Duration>) -> Result<Option<String>, WireError> {
        self.pump.recv(timeout)
    }

    fn describe_death(&mut self, error: &WireError) -> String {
        format!("connection to {}: {error}", self.peer)
    }

    fn kill(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    fn finish(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Unblock the pump thread; a clone of the stream keeps the read
        // half open even after this handle is gone.
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// Why one attempt at running a shard on a worker failed — the retry
/// machinery treats the classes differently (a dead TCP address retires
/// its slot, a shard timeout has its own terminal error).
#[derive(Clone, Debug)]
pub enum AttemptError {
    /// The worker could not be spawned / connected at all.
    Spawn(String),
    /// The shard's overall deadline ([`crate::SweepConfig::shard_timeout`])
    /// expired with the worker still holding it.
    TimedOut(Duration),
    /// The worker died, went silent, garbled the protocol, or reported a
    /// structured error.
    Failed(String),
}

impl AttemptError {
    /// The rendered failure, for retry logs and terminal errors.
    pub fn message(&self) -> String {
        match self {
            AttemptError::Spawn(m) | AttemptError::Failed(m) => m.clone(),
            AttemptError::TimedOut(t) => {
                format!("shard timed out after {}ms", t.as_millis())
            }
        }
    }
}

/// Observes heartbeat arrival gaps on one connection: heartbeats are
/// still swallowed by [`DeadlineLines`], but the gap between consecutive
/// arrivals is recorded (in microseconds) before the line is dropped —
/// the raw signal behind the `stats` frame's per-worker heartbeat
/// summaries.  Purely read-only: attaching a probe never changes which
/// lines a decoder sees.
pub struct HeartbeatProbe<'a> {
    /// Gap histogram the observed arrival gaps are recorded into (µs).
    pub gaps: &'a obs::Histogram,
    /// Arrival instant of the previous heartbeat on this connection
    /// (`None` before the first one; reset per shard by the caller).
    pub last: &'a mut Option<Instant>,
}

/// A [`LineSource`] over a transport that enforces two deadlines and
/// skips heartbeat lines: `deadline` is the absolute instant the whole
/// message must be complete by (the shard budget — heartbeats do *not*
/// extend it), `silence` is the per-line gap after which a worker that
/// sends nothing at all counts as dead (heartbeats *do* reset it).
pub struct DeadlineLines<'t> {
    transport: &'t mut dyn Transport,
    deadline: Option<Instant>,
    silence: Option<Duration>,
    probe: Option<HeartbeatProbe<'t>>,
}

impl<'t> DeadlineLines<'t> {
    /// Wrap `transport` with the given deadlines (either may be `None`).
    pub fn new(
        transport: &'t mut dyn Transport,
        deadline: Option<Instant>,
        silence: Option<Duration>,
    ) -> Self {
        DeadlineLines {
            transport,
            deadline,
            silence,
            probe: None,
        }
    }

    /// Attach an optional heartbeat-gap probe (builder style).
    pub fn with_probe(mut self, probe: Option<HeartbeatProbe<'t>>) -> Self {
        self.probe = probe;
        self
    }
}

impl LineSource for DeadlineLines<'_> {
    fn next_line(&mut self) -> Result<Option<String>, WireError> {
        loop {
            let remaining = self
                .deadline
                .map(|d| d.saturating_duration_since(Instant::now()));
            if remaining == Some(Duration::ZERO) {
                return Err(WireError::Timeout { waited_ms: 0 });
            }
            let per_read = match (remaining, self.silence) {
                (None, None) => None,
                (Some(r), None) => Some(r),
                (None, Some(s)) => Some(s),
                (Some(r), Some(s)) => Some(r.min(s)),
            };
            match self.transport.recv_line(per_read)? {
                Some(line) if wire::is_heartbeat(&line) => {
                    if let Some(probe) = self.probe.as_mut() {
                        let now = Instant::now();
                        if let Some(last) = probe.last.replace(now) {
                            probe
                                .gaps
                                .record(now.duration_since(last).as_micros() as u64);
                        }
                    }
                    continue;
                }
                other => return Ok(other),
            }
        }
    }
}

/// A live protocol session with one worker: transport + the capabilities
/// it advertised in its [`Hello`].  Both the in-process coordinator and
/// the `sweep serve` daemon drive workers through this type.
pub struct WorkerConn {
    transport: Box<dyn Transport>,
    /// The worker's capability advertisement (backend list, core count).
    pub hello: Hello,
    /// Heartbeat-gap histogram (µs) shared with the owner's telemetry;
    /// `None` = gaps are not observed on this connection.
    hb_gaps: Option<Arc<obs::Histogram>>,
    /// Arrival instant of the previous heartbeat, reset per shard.
    last_hb: Option<Instant>,
}

impl WorkerConn {
    /// Open a session on a fresh transport: exchange handshake lines
    /// (rejecting version skew loudly), run the wire-v7 token gate in
    /// both directions, and read the worker's [`Hello`].  `silence`
    /// bounds each read, so a wedged peer cannot hang the caller.
    ///
    /// When `token` is set, this side sends its `auth` frame right after
    /// the handshake line and runs [`wire::auth_gate`] over the worker's
    /// next line.  The worker withholds its hello until it has verified
    /// us, so the line after its optional `auth` is deterministically
    /// either the hello or a structured `authfail`.  Error strings never
    /// contain the token.
    pub fn establish(
        mut transport: Box<dyn Transport>,
        silence: Option<Duration>,
        token: Option<&str>,
    ) -> Result<WorkerConn, String> {
        let result = (|| -> Result<Hello, String> {
            let mut opening = vec![wire::HANDSHAKE.to_string()];
            opening.extend(token.map(wire::encode_auth));
            transport
                .send_frame(&opening)
                .map_err(|e| format!("handshake write: {e}"))?;
            let mut lines = DeadlineLines::new(transport.as_mut(), None, silence);
            let next = |lines: &mut DeadlineLines, what: &str| match lines.next_line() {
                Ok(Some(line)) => Ok(line),
                Ok(None) => Err(format!("worker closed the stream before {what}")),
                Err(e) => Err(e.to_string()),
            };
            wire::check_handshake(&next(&mut lines, "the handshake")?)
                .map_err(|e| e.to_string())?;
            let leftover = match wire::auth_gate(&mut lines, token) {
                Ok(wire::AuthGate::Accepted { leftover }) => leftover,
                Ok(wire::AuthGate::Rejected { reason }) => {
                    let _ = transport.send_line(&wire::encode_auth_reject(reason));
                    return Err(format!("worker failed authentication: {reason}"));
                }
                Err(e) => return Err(e.to_string()),
            };
            let line = match leftover {
                Some(line) => line,
                None => next(&mut lines, "its hello")?,
            };
            if let Some(reason) = wire::parse_auth_reject(&line) {
                return Err(format!("worker rejected this connection: {reason}"));
            }
            wire::decode_hello(&line).map_err(|e| e.to_string())
        })();
        match result {
            Ok(hello) => Ok(WorkerConn {
                transport,
                hello,
                hb_gaps: None,
                last_hb: None,
            }),
            Err(e) => {
                transport.kill();
                Err(e)
            }
        }
    }

    /// Record this connection's heartbeat arrival gaps (µs) into `gaps`
    /// from now on.  Observation is read-only: the reply stream a shard
    /// decodes is unchanged.
    pub fn observe_heartbeats(&mut self, gaps: Arc<obs::Histogram>) {
        self.hb_gaps = Some(gaps);
    }

    /// Send one shard and block until its reply, under the configured
    /// deadlines.  Any failure — I/O, protocol, worker death, silence, or
    /// the shard budget expiring — comes back as a classified
    /// [`AttemptError`] for the retry machinery.
    pub fn run_shard(
        &mut self,
        spec: &ShardSpec,
        shard_timeout: Option<Duration>,
        silence: Option<Duration>,
    ) -> Result<(usize, SpecRow), AttemptError> {
        self.transport
            .send_line(&wire::encode_command(&wire::Command::Shard(spec.clone())))
            .map_err(|e| AttemptError::Failed(format!("writing shard to worker: {e}")))?;
        let started = Instant::now();
        let deadline = shard_timeout.map(|t| started + t);
        // Gaps are per-shard: the idle stretch between shards is not a
        // heartbeat gap, so the previous-arrival marker resets here.
        self.last_hb = None;
        let probe = self.hb_gaps.as_deref().map(|gaps| HeartbeatProbe {
            gaps,
            last: &mut self.last_hb,
        });
        let mut lines =
            DeadlineLines::new(self.transport.as_mut(), deadline, silence).with_probe(probe);
        match wire::decode_reply(&mut lines) {
            Ok(Reply::Result { id, chunk, row }) if id == spec.id => Ok((chunk, row)),
            Ok(Reply::Result { id, .. }) => Err(AttemptError::Failed(format!(
                "worker answered shard {id}, expected {}",
                spec.id
            ))),
            Ok(Reply::Error { message, .. }) => {
                Err(AttemptError::Failed(format!("worker reported: {message}")))
            }
            Err(WireError::Timeout { .. }) => {
                if let Some(t) = shard_timeout {
                    if started.elapsed() >= t {
                        return Err(AttemptError::TimedOut(t));
                    }
                }
                let waited = silence.unwrap_or(Duration::ZERO);
                Err(AttemptError::Failed(format!(
                    "worker went silent: no line (not even a heartbeat) within {}ms",
                    waited.as_millis()
                )))
            }
            Err(e) => Err(AttemptError::Failed(self.transport.describe_death(&e))),
        }
    }

    /// Tear the session down hard (the worker is in an unknown state).
    pub fn kill(mut self) {
        self.transport.kill();
    }

    /// Close politely: send `done`, then let the transport wind down.
    pub fn shutdown(mut self) {
        let _ = self
            .transport
            .send_line(&wire::encode_command(&wire::Command::Done));
        self.transport.finish();
    }
}

/// Errors surfaced by the [`client_sweep`] streaming client.
#[derive(Clone, Debug)]
pub enum ClientError {
    /// Connecting or speaking the protocol failed.
    Wire(WireError),
    /// The daemon rejected or aborted the sweep.
    Service(String),
    /// The stream ended without delivering every promised row.
    Incomplete(String),
    /// The daemon rejected this client's credentials (wire-v7 `authfail`
    /// — the carried reason never contains a token).
    Unauthorized(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Service(m) => write!(f, "sweep service failed: {m}"),
            ClientError::Incomplete(m) => write!(f, "incomplete stream: {m}"),
            ClientError::Unauthorized(m) => {
                write!(f, "sweep service rejected this client: {m}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// Knobs for the streaming client: credentials and the two bounded retry
/// windows (connect refusals, `busy` admission rejects).
#[derive(Clone, Debug)]
pub struct ClientOptions {
    /// Shared auth token; defaults to [`TOKEN_ENV`].
    pub token: Option<String>,
    /// Connection attempts before a refused/unreachable daemon is fatal
    /// (scripted launches race the daemon's bind; a few backed-off
    /// attempts absorb that).
    pub connect_attempts: u32,
    /// How many `busy` rejects to absorb (sleeping each frame's
    /// retry-after hint) before giving up.
    pub busy_retries: u32,
    /// Per-attempt TCP connect timeout.
    pub connect_timeout: Duration,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            token: token_from_env(),
            connect_attempts: 4,
            busy_retries: 8,
            connect_timeout: Duration::from_secs(30),
        }
    }
}

/// Connect to `addr`, retrying refused attempts under the shared
/// [`Backoff`] schedule (bounded by `options.connect_attempts`).
fn connect_with_retry(addr: &str, options: &ClientOptions) -> Result<TcpTransport, WireError> {
    let attempts = options.connect_attempts.max(1);
    let mut backoff = Backoff::new(BACKOFF_BASE, BACKOFF_CAP, 0x00C1_1E57);
    let mut last = None;
    for attempt in 0..attempts {
        match TcpTransport::connect(addr, Some(options.connect_timeout)) {
            Ok(transport) => return Ok(transport),
            Err(e) => {
                last = Some(e);
                if attempt + 1 < attempts {
                    std::thread::sleep(backoff.next_delay());
                }
            }
        }
    }
    Err(last.unwrap_or(WireError::Io {
        message: format!("no connection attempts made to {addr}"),
    }))
}

/// Open a connection to the daemon and run the client side of the
/// handshake + token exchange.
fn client_connect(addr: &str, options: &ClientOptions) -> Result<TcpTransport, ClientError> {
    let mut transport = connect_with_retry(addr, options)?;
    let mut opening = vec![wire::HANDSHAKE.to_string()];
    opening.extend(options.token.as_deref().map(wire::encode_auth));
    transport.send_frame(&opening)?;
    match transport.recv_line(None)? {
        Some(line) => wire::check_handshake(&line)?,
        None => {
            return Err(ClientError::Incomplete(
                "daemon closed the connection before the handshake".to_string(),
            ))
        }
    }
    Ok(transport)
}

/// The two ways one submission attempt can end short of failure.
enum SweepOutcome {
    /// The daemon is saturated; retry the whole request after the hint.
    Busy {
        retry_after_ms: u64,
        message: String,
    },
    /// The sweep streamed to completion.
    Done(SpecExperiment),
}

/// Submit a sweep to a `sweep serve` daemon at `addr` and reassemble the
/// streamed rows into the canonical [`SpecExperiment`] shape.
///
/// `on_row` fires for every row as it arrives (in completion order, with
/// its index in the request's benchmark order), so callers can render
/// incrementally; the returned experiment has rows in request order and
/// is byte-identical to the in-process run by the service's SLA.
///
/// # Errors
///
/// [`ClientError::Wire`] on connection/protocol failures,
/// [`ClientError::Service`] when the daemon rejects or aborts the sweep,
/// [`ClientError::Incomplete`] if the stream closes early.
pub fn client_sweep<F: FnMut(usize, &SpecRow)>(
    addr: &str,
    request: &SweepRequest,
    on_row: F,
) -> Result<SpecExperiment, ClientError> {
    client_sweep_with(addr, &ClientOptions::default(), request, on_row)
}

/// [`client_sweep`] with explicit [`ClientOptions`]: auth token, bounded
/// connect retries against a daemon that has not bound yet, and `busy`
/// retry-after honoring when the daemon sheds load.
pub fn client_sweep_with<F: FnMut(usize, &SpecRow)>(
    addr: &str,
    options: &ClientOptions,
    request: &SweepRequest,
    mut on_row: F,
) -> Result<SpecExperiment, ClientError> {
    let mut busy_left = options.busy_retries;
    loop {
        match sweep_once(addr, options, request, &mut on_row)? {
            SweepOutcome::Done(experiment) => return Ok(experiment),
            SweepOutcome::Busy {
                retry_after_ms,
                message,
            } => {
                if busy_left == 0 {
                    return Err(ClientError::Service(format!(
                        "daemon still busy after {} retries: {message}",
                        options.busy_retries
                    )));
                }
                busy_left -= 1;
                std::thread::sleep(Duration::from_millis(retry_after_ms.min(5_000)));
            }
        }
    }
}

/// One full submission attempt (fresh connection, fresh request).
fn sweep_once<F: FnMut(usize, &SpecRow)>(
    addr: &str,
    options: &ClientOptions,
    request: &SweepRequest,
    mut on_row: F,
) -> Result<SweepOutcome, ClientError> {
    let mut transport = client_connect(addr, options)?;
    if let Err(e) = transport.send_frame(&wire::encode_request(request)) {
        // The daemon may have rejected this connection (authfail, busy)
        // and closed while the request was still being written; the
        // structured frame beats the raw broken pipe when it survived.
        if let Ok(Some(line)) = transport.recv_line(Some(Duration::from_secs(5))) {
            if let Some(reason) = wire::parse_auth_reject(&line) {
                return Err(ClientError::Unauthorized(reason));
            }
            if let Some(busy) = wire::parse_busy(&line) {
                let (retry_after_ms, message) = busy?;
                return Ok(SweepOutcome::Busy {
                    retry_after_ms,
                    message,
                });
            }
        }
        return Err(e.into());
    }
    let accepted = {
        let Some(line) = transport.recv_line(None)? else {
            return Err(ClientError::Incomplete(
                "daemon closed the connection before accepting the request".to_string(),
            ));
        };
        if let Some(reason) = wire::parse_auth_reject(&line) {
            return Err(ClientError::Unauthorized(reason));
        }
        if let Some(busy) = wire::parse_busy(&line) {
            let (retry_after_ms, message) = busy?;
            return Ok(SweepOutcome::Busy {
                retry_after_ms,
                message,
            });
        }
        if line.starts_with("sfail\t") {
            let lines = vec![line];
            let mut src = wire::SliceLines::new(&lines);
            match wire::decode_service_event(&mut src)? {
                wire::ServiceEvent::Failed { message } => {
                    return Err(ClientError::Service(message))
                }
                _ => unreachable!("sfail lines decode to Failed"),
            }
        }
        wire::decode_accepted(&line)?
    };
    // The count is the daemon's claim: anything but one row per
    // requested benchmark is rejected before it sizes an allocation.
    if accepted != request.benchmarks.len() {
        return Err(ClientError::Wire(WireError::Field {
            field: "row-count",
            value: accepted.to_string(),
            reason: format!("the request has {} benchmarks", request.benchmarks.len()),
        }));
    }
    let mut rows: Vec<Option<SpecRow>> = vec![None; accepted];
    let mut lines = DeadlineLines::new(&mut transport, None, None);
    loop {
        match wire::decode_service_event(&mut lines)? {
            wire::ServiceEvent::Row { index, row } => {
                if index >= accepted {
                    return Err(ClientError::Incomplete(format!(
                        "row index {index} out of range (accepted {accepted} rows)"
                    )));
                }
                on_row(index, &row);
                rows[index] = Some(row);
            }
            wire::ServiceEvent::Failed { message } => return Err(ClientError::Service(message)),
            wire::ServiceEvent::Done { .. } => break,
        }
    }
    let mut out = Vec::with_capacity(accepted);
    for (index, row) in rows.into_iter().enumerate() {
        match row {
            Some(row) => out.push(row),
            None => {
                return Err(ClientError::Incomplete(format!(
                    "daemon finished without streaming row {index}"
                )))
            }
        }
    }
    Ok(SweepOutcome::Done(SpecExperiment {
        scale: request.scale,
        rows: out,
        sanitizers: request.backends.clone(),
    }))
}

/// Query a `sweep serve` daemon's live statistics: handshake, send the
/// bare [`wire::STATS_REQUEST`] line instead of a request block, decode
/// the `stats`/`wstat`/`rstat` reply.  Read-only — issuing it never
/// perturbs the daemon's scheduling or any in-flight request.
///
/// # Errors
///
/// [`ClientError::Wire`] on connection/protocol failures,
/// [`ClientError::Incomplete`] when the daemon hangs up early.
pub fn client_stats(addr: &str) -> Result<wire::ServiceStats, ClientError> {
    client_stats_with(addr, &ClientOptions::default())
}

/// [`client_stats`] with explicit [`ClientOptions`].
pub fn client_stats_with(
    addr: &str,
    options: &ClientOptions,
) -> Result<wire::ServiceStats, ClientError> {
    let mut transport = client_connect(addr, options)?;
    transport.send_line(wire::STATS_REQUEST)?;
    let first = match transport.recv_line(None)? {
        Some(line) => line,
        None => {
            return Err(ClientError::Incomplete(
                "daemon closed the connection before answering the stats query".to_string(),
            ))
        }
    };
    if let Some(reason) = wire::parse_auth_reject(&first) {
        return Err(ClientError::Unauthorized(reason));
    }
    let lines = DeadlineLines::new(&mut transport, None, None);
    let mut lines = wire::PrependedLine::new(Some(first), lines);
    Ok(wire::decode_stats(&mut lines)?)
}

/// Ask a `sweep serve` daemon to shut down gracefully: it acknowledges
/// with [`wire::SHUTDOWN_ACK`], stops accepting new requests, drains
/// every in-flight job to its client, and exits 0.  Token-gated like any
/// other client connection.
///
/// # Errors
///
/// [`ClientError::Unauthorized`] when the daemon carries a token this
/// client lacks; [`ClientError::Wire`] / [`ClientError::Incomplete`] on
/// transport trouble.
pub fn client_shutdown(addr: &str, options: &ClientOptions) -> Result<(), ClientError> {
    let mut transport = client_connect(addr, options)?;
    transport.send_line(wire::SHUTDOWN_REQUEST)?;
    match transport.recv_line(Some(Duration::from_secs(30)))? {
        Some(line) if line == wire::SHUTDOWN_ACK => Ok(()),
        Some(line) => match wire::parse_auth_reject(&line) {
            Some(reason) => Err(ClientError::Unauthorized(reason)),
            None => Err(ClientError::Wire(WireError::UnexpectedLine {
                expected: "a `shutdown-ok` acknowledgement",
                got: line,
            })),
        },
        None => Err(ClientError::Incomplete(
            "daemon closed the connection before acknowledging shutdown".to_string(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    #[test]
    fn line_pump_times_out_then_delivers() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let writer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            std::thread::sleep(Duration::from_millis(120));
            writeln!(stream, "late-line").expect("write");
        });
        let mut transport = TcpTransport::connect(&addr.to_string(), Some(Duration::from_secs(5)))
            .expect("connect");
        let err = transport
            .recv_line(Some(Duration::from_millis(10)))
            .expect_err("first read must time out");
        assert!(matches!(err, WireError::Timeout { .. }), "{err}");
        let line = transport
            .recv_line(Some(Duration::from_secs(5)))
            .expect("second read");
        assert_eq!(line.as_deref(), Some("late-line"));
        writer.join().expect("writer thread");
    }

    #[test]
    fn tcp_transports_run_with_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let dialled = TcpTransport::connect(
            &listener.local_addr().expect("addr").to_string(),
            Some(Duration::from_secs(5)),
        )
        .expect("connect");
        let (accepted, peer) = listener.accept().expect("accept");
        assert!(!accepted.nodelay().expect("nodelay"), "off by default");
        let accepted = TcpTransport::from_stream(accepted, peer.to_string()).expect("wrap");
        assert!(dialled.stream.nodelay().expect("nodelay"));
        assert!(accepted.stream.nodelay().expect("nodelay"));
    }

    #[test]
    fn establish_rejects_version_skew_with_a_diagnosable_message() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let imposter = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            // A stale v2 worker: right greeting shape, wrong version.
            writeln!(stream, "effective-san-sweep-wire 2").expect("write");
            let mut sink = String::new();
            let _ = BufReader::new(stream).read_line(&mut sink);
        });
        let transport = TcpTransport::connect(&addr.to_string(), Some(Duration::from_secs(5)))
            .expect("connect");
        let err = WorkerConn::establish(Box::new(transport), Some(Duration::from_secs(5)), None)
            .err()
            .expect("a v2 worker must be rejected");
        assert!(err.contains("version 2"), "{err}");
        assert!(err.contains(&wire::WIRE_VERSION.to_string()), "{err}");
        imposter.join().expect("imposter thread");
    }

    #[test]
    fn heartbeat_probe_records_gaps_without_changing_lines() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let writer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            for seq in 0..3u64 {
                writeln!(stream, "{}", wire::encode_heartbeat(seq)).expect("write");
                std::thread::sleep(Duration::from_millis(10));
            }
            writeln!(stream, "data-line").expect("write");
        });
        let mut transport = TcpTransport::connect(&addr.to_string(), Some(Duration::from_secs(5)))
            .expect("connect");
        let gaps = obs::Histogram::new();
        let mut last = None;
        let mut lines = DeadlineLines::new(&mut transport, None, Some(Duration::from_secs(5)))
            .with_probe(Some(HeartbeatProbe {
                gaps: &gaps,
                last: &mut last,
            }));
        // The probe must not change what the decoder sees: heartbeats
        // are still skipped, the data line still comes through.
        assert_eq!(
            lines.next_line().expect("line").as_deref(),
            Some("data-line")
        );
        let summary = gaps.snapshot().summary();
        assert_eq!(summary.count, 2, "3 heartbeats → 2 arrival gaps");
        assert!(
            summary.min >= 1_000,
            "10ms apart → gaps of at least 1ms, got {summary:?}"
        );
        writer.join().expect("writer thread");
    }

    #[test]
    fn deadline_lines_skip_heartbeats_but_not_the_budget() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let chatterbox = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            // Heartbeats forever, never a data line.
            for seq in 0..200u64 {
                if writeln!(stream, "{}", wire::encode_heartbeat(seq)).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let mut transport = TcpTransport::connect(&addr.to_string(), Some(Duration::from_secs(5)))
            .expect("connect");
        let deadline = Instant::now() + Duration::from_millis(100);
        let mut lines =
            DeadlineLines::new(&mut transport, Some(deadline), Some(Duration::from_secs(5)));
        let started = Instant::now();
        let err = lines.next_line().expect_err("budget must expire");
        assert!(matches!(err, WireError::Timeout { .. }), "{err}");
        assert!(
            started.elapsed() >= Duration::from_millis(90),
            "deadline fired early: {:?}",
            started.elapsed()
        );
        drop(transport);
        chatterbox.join().expect("chatterbox thread");
    }

    #[test]
    fn client_rejects_an_accepted_count_the_request_cannot_have() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let daemon = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            // 2^40 rows: sized as a row buffer, this aborts the process.
            writeln!(stream, "{}", wire::HANDSHAKE).expect("write");
            writeln!(stream, "{}", wire::encode_accepted(1 << 40)).expect("write");
            let mut sink = String::new();
            let _ = BufReader::new(stream).read_to_string(&mut sink);
        });
        let request = SweepRequest {
            scale: workloads::Scale::Test,
            parallelism: effective_san::Parallelism::Sequential,
            benchmarks: vec!["mcf".to_string()],
            backends: vec![san_api::SanitizerKind::None],
        };
        let options = ClientOptions {
            token: None,
            ..ClientOptions::default()
        };
        let err = client_sweep_with(&addr.to_string(), &options, &request, |_, _| {})
            .expect_err("a 2^40-row accept for one benchmark must be refused");
        assert!(
            matches!(
                &err,
                ClientError::Wire(WireError::Field {
                    field: "row-count",
                    ..
                })
            ),
            "{err}"
        );
        daemon.join().expect("daemon thread");
    }
}
