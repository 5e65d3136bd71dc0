//! The worker side of the coordinator/worker protocol.
//!
//! A worker is an ordinary OS process (the `sweep_worker` bin, or any bin
//! re-executed with `SAN_WORKER=1` — the `sweep` CLI does this) that
//! speaks the [`crate::wire`] protocol to one peer at a time over its
//! stdin/stdout ([`run_stdio`]), or to many over TCP: accepted
//! connections ([`run_listener`]) or a session it dials itself
//! ([`run_joiner`]).  Every transport runs the same session: handshake,
//! token gate, hello, then a loop of `shard` commands answered with
//! `result` blocks (heartbeating while a shard runs), until `done` or
//! end-of-input.
//!
//! Each shard runs through the ordinary in-process sweep
//! (`effective_san::spec_experiment` restricted to one benchmark and the
//! shard's backend chunk), so a worker's reports are — by the
//! determinism contract — bit-identical to the ones the coordinator
//! would have produced itself.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use effective_san::spec_experiment;
use san_api::SanitizerKind;

use crate::backoff::{Backoff, BACKOFF_BASE, BACKOFF_CAP};
use crate::chaos::{Chaos, LineFate};
use crate::net::{token_from_env, LinePump, HEARTBEAT_INTERVAL};
use crate::wire::{self, AuthGate, Command, Hello, LineSource, Reply, ShardSpec, WireError};

/// How long a token-bearing worker waits for the peer's `auth` frame
/// before rejecting it.  A compliant token-bearing peer sends its auth
/// in the same write batch as its handshake, so in the happy path this
/// deadline is never even approached; a tokenless peer sends nothing
/// after its handshake, and without the deadline both sides would sit
/// out each other's (much longer) silence budgets.
const AUTH_GATE_TIMEOUT: Duration = Duration::from_secs(5);

/// Name of the environment variable that switches a cooperating binary
/// into worker mode (checked by the `sweep` CLI before argument parsing).
pub const WORKER_ENV: &str = "SAN_WORKER";

/// Test hook: when set to a benchmark name, the worker aborts (exit code
/// [`CRASH_EXIT_CODE`]) instead of running a shard of that benchmark.  If
/// [`CRASH_ONCE_PATH_ENV`] is also set, the crash happens only while that
/// path does not exist (the worker creates it right before dying), so the
/// coordinator's retry succeeds — the shape of a transient worker failure.
pub const CRASH_BENCH_ENV: &str = "SWEEP_TEST_CRASH_BENCH";

/// Companion to [`CRASH_BENCH_ENV`]: flag-file path making the crash fire
/// once instead of on every attempt.
pub const CRASH_ONCE_PATH_ENV: &str = "SWEEP_TEST_CRASH_ONCE_PATH";

/// Test hook: when set to a benchmark name, the worker hangs forever
/// (sleeping, without writing anything) instead of running a shard of
/// that benchmark — the shape of a wedged worker, distinguishable from a
/// crash only by the coordinator's deadlines.  Combine with
/// [`HANG_ONCE_PATH_ENV`] for a transient hang.
pub const HANG_BENCH_ENV: &str = "SWEEP_TEST_HANG_BENCH";

/// Companion to [`HANG_BENCH_ENV`]: flag-file path making the hang fire
/// once instead of on every attempt.
pub const HANG_ONCE_PATH_ENV: &str = "SWEEP_TEST_HANG_ONCE_PATH";

/// Exit code used by the crash test hook (distinct from panics and clean
/// protocol exits, so tests can assert the failure mode they injected).
pub const CRASH_EXIT_CODE: i32 = 101;

fn maybe_crash(spec: &ShardSpec) {
    let Ok(bench) = std::env::var(CRASH_BENCH_ENV) else {
        return;
    };
    if bench != spec.benchmark {
        return;
    }
    match std::env::var(CRASH_ONCE_PATH_ENV) {
        Ok(path) => {
            if !std::path::Path::new(&path).exists() {
                // Leave the flag so the retry survives, then die mid-shard.
                let _ = std::fs::write(&path, b"crashed");
                std::process::exit(CRASH_EXIT_CODE);
            }
        }
        Err(_) => std::process::exit(CRASH_EXIT_CODE),
    }
}

fn maybe_hang(spec: &ShardSpec) {
    let Ok(bench) = std::env::var(HANG_BENCH_ENV) else {
        return;
    };
    if bench != spec.benchmark {
        return;
    }
    if let Ok(path) = std::env::var(HANG_ONCE_PATH_ENV) {
        if std::path::Path::new(&path).exists() {
            return;
        }
        let _ = std::fs::write(&path, b"hung");
    }
    // Wedge while holding the shard: the coordinator's shard/silence
    // deadline has to notice — nothing else will, because the process is
    // alive and still heartbeating.
    loop {
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The capability advertisement this worker sends after the handshake.
fn hello() -> Hello {
    Hello {
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        backends: SanitizerKind::ALL.to_vec(),
    }
}

fn run_shard(spec: &ShardSpec) -> Reply {
    maybe_crash(spec);
    maybe_hang(spec);
    // `spec_experiment` panics on unknown benchmarks / compile failures;
    // catching the panic turns it into a structured `error` reply the
    // coordinator can surface instead of a bare nonzero exit.
    let result = std::panic::catch_unwind(|| {
        spec_experiment(
            Some(&[spec.benchmark.as_str()]),
            spec.scale,
            &spec.backends,
            spec.parallelism,
        )
    });
    match result {
        Ok(experiment) => {
            let row = experiment
                .rows
                .into_iter()
                .next()
                .expect("one benchmark in, one row out");
            Reply::Result {
                id: spec.id,
                chunk: spec.chunk,
                row,
            }
        }
        Err(panic) => {
            let message = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "worker panicked".to_string());
            Reply::Error {
                id: spec.id,
                message,
            }
        }
    }
}

/// The write half of a worker session.
trait SessionOutput: Write + Send {
    /// Cut the connection under the peer: the chaos seam's mid-line drop.
    /// A pipe has nothing to cut short of the process exiting, which the
    /// failed session then leads to.
    fn sever(&mut self) {}
}

impl SessionOutput for std::io::Stdout {}

impl SessionOutput for &TcpStream {
    fn sever(&mut self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

/// Write a block of protocol lines atomically (one lock, one flush) so a
/// concurrent heartbeat can interleave between blocks but never inside
/// one.
///
/// This is the writer-side chaos seam ([`crate::chaos`]): with
/// `SWEEP_CHAOS` armed, a line may be delayed (a late heartbeat looks
/// exactly like a slow worker) or the connection severed after a random
/// prefix of the line — a mid-block, mid-line truncation from the
/// peer's point of view.
fn send_block<W: SessionOutput>(writer: &Mutex<W>, lines: &[String]) -> bool {
    let mut out = writer.lock().expect("worker writer lock");
    for line in lines {
        match Chaos::global().map(|plan| plan.fate(line.len())) {
            Some(LineFate::Drop { keep_bytes }) => {
                let _ = out.write_all(&line.as_bytes()[..keep_bytes]);
                let _ = out.flush();
                out.sever();
                return false;
            }
            Some(LineFate::DeliverAfter(wait)) => std::thread::sleep(wait),
            Some(LineFate::Deliver) | None => {}
        }
        if writeln!(out, "{line}").is_err() {
            return false;
        }
    }
    out.flush().is_ok()
}

/// [`LineSource`] over a [`LinePump`], each read bounded by `timeout`
/// (`None` = block).
struct PumpLines {
    pump: LinePump,
    timeout: Option<Duration>,
}

impl LineSource for PumpLines {
    fn next_line(&mut self) -> Result<Option<String>, WireError> {
        self.pump.recv(self.timeout)
    }
}

/// How often the heartbeat thread looks at the shard-in-flight flag.
const TICK: Duration = Duration::from_millis(25);

/// Emit heartbeats every [`HEARTBEAT_INTERVAL`] while a
/// shard is executing (`active`), so the peer's silence deadline can
/// tell a slow shard from a dead worker; returns once `stop` hangs up.
fn heartbeat<W: SessionOutput>(writer: &Mutex<W>, active: &AtomicBool, stop: Receiver<()>) {
    let interval = HEARTBEAT_INTERVAL;
    let mut seq = 0u64;
    let mut last = Instant::now() - interval;
    while let Err(RecvTimeoutError::Timeout) = stop.recv_timeout(interval.min(TICK)) {
        if active.load(Ordering::SeqCst) && last.elapsed() >= interval {
            if !send_block(writer, &[wire::encode_heartbeat(seq)]) {
                return;
            }
            seq += 1;
            last = Instant::now();
        }
    }
}

/// Serve one peer until `done` or end of input: the one worker session,
/// whatever the transport.  Returns the exit code (0 on a clean run, 2
/// on a protocol or auth error — which is also printed to stderr).
///
/// The worker sends its handshake (plus its own `auth` frame when it
/// carries a token) eagerly.  A token-bearing worker then runs
/// [`wire::auth_gate`] over the peer's next line, bounded by
/// [`AUTH_GATE_TIMEOUT`], and withholds its `hello` until the peer
/// passed — so an unauthorized peer receives a structured `authfail`
/// before any capability exchange.  A tokenless worker says hello
/// first (its peer sends nothing more until it has the hello) and runs
/// the gate unbounded, which swallows a stray `auth` line.
fn session<R, W>(input: R, output: W, token: Option<&str>) -> i32
where
    R: BufRead + Send + 'static,
    W: SessionOutput,
{
    let writer = Mutex::new(output);
    let mut lines = PumpLines {
        pump: LinePump::spawn(input),
        timeout: None,
    };
    let mut opening = vec![wire::HANDSHAKE.to_string()];
    opening.extend(token.map(wire::encode_auth));
    if !send_block(&writer, &opening) {
        return 2;
    }
    let opened = lines
        .next_line()
        .and_then(|line| wire::check_handshake(line.as_deref().unwrap_or("<eof>")));
    if let Err(e) = opened {
        eprintln!("sweep_worker: {e}");
        return 2;
    }
    let greeting = [wire::encode_hello(&hello())];
    if token.is_none() && !send_block(&writer, &greeting) {
        return 2;
    }
    lines.timeout = token.map(|_| AUTH_GATE_TIMEOUT);
    let leftover = match wire::auth_gate(&mut lines, token) {
        Ok(AuthGate::Accepted { leftover }) => leftover,
        Ok(AuthGate::Rejected { reason }) => {
            let _ = send_block(&writer, &[wire::encode_auth_reject(reason)]);
            eprintln!("sweep_worker: rejected peer: {reason}");
            return 2;
        }
        Err(e) => {
            eprintln!("sweep_worker: {e}");
            return 2;
        }
    };
    lines.timeout = None;
    if token.is_some() && !send_block(&writer, &greeting) {
        return 2;
    }
    let first = match leftover {
        Some(line) => Some(line),
        None => match lines.next_line() {
            Ok(line) => line,
            Err(e) => {
                eprintln!("sweep_worker: {e}");
                return 2;
            }
        },
    };
    if let Some(reason) = first.as_deref().and_then(wire::parse_auth_reject) {
        eprintln!("sweep_worker: peer rejected this worker: {reason}");
        return 2;
    }
    let mut lines = wire::PrependedLine::new(first, lines);

    let active = AtomicBool::new(false);
    let (stop, stopped) = mpsc::channel();
    std::thread::scope(|scope| {
        let (writer, active) = (&writer, &active);
        scope.spawn(move || heartbeat(writer, active, stopped));
        let code = loop {
            let command = match wire::decode_command(&mut lines) {
                Ok(Some(command)) => command,
                // A vanished peer reads as end-of-input: exit cleanly.
                Ok(None) => break 0,
                Err(e) => {
                    eprintln!("sweep_worker: {e}");
                    break 2;
                }
            };
            match command {
                Command::Done => break 0,
                Command::Shard(spec) => {
                    active.store(true, Ordering::SeqCst);
                    let reply = run_shard(&spec);
                    active.store(false, Ordering::SeqCst);
                    if !send_block(writer, &wire::encode_reply(&reply)) {
                        break 2;
                    }
                }
            }
        };
        drop(stop);
        code
    })
}

/// Serve the worker protocol on this process's stdin/stdout, with the
/// token from [`crate::net::TOKEN_ENV`] — the entire body of the
/// `sweep_worker` bin and of `SAN_WORKER=1` re-exec mode.
pub fn run_stdio() -> i32 {
    let input = BufReader::new(std::io::stdin());
    session(input, std::io::stdout(), token_from_env().as_deref())
}

/// Serve one peer over a TCP connection, then close it (which also ends
/// the session's reader thread).
fn serve_stream(stream: TcpStream, token: Option<&str>) -> i32 {
    let Ok(read_half) = stream.try_clone() else {
        return 2;
    };
    let code = session(BufReader::new(read_half), &stream, token);
    let _ = stream.shutdown(Shutdown::Both);
    code
}

/// Bind `addr` and serve coordinator connections, forever: the body of
/// `sweep_worker --listen <addr>`.  Prints `listening <addr>` (with the
/// resolved port, so `--listen 127.0.0.1:0` is scriptable) to stdout once
/// ready.  Returns only on a bind failure.
///
/// Connections are served concurrently (one thread each): a daemon keeps
/// its worker connections open while idle, and serially accepting would
/// leave any second coordinator stuck in the backlog behind it.  Every
/// shard runs in its own isolated simulated address space, so concurrent
/// peers never affect each other's bytes.
pub fn run_listener(addr: &str, token: Option<String>) -> i32 {
    let listener = match TcpListener::bind(addr) {
        Ok(listener) => listener,
        Err(e) => {
            eprintln!("sweep_worker: cannot listen on {addr}: {e}");
            return 2;
        }
    };
    match listener.local_addr() {
        Ok(local) => println!("listening {local}"),
        Err(_) => println!("listening {addr}"),
    }
    let _ = std::io::stdout().flush();
    for stream in listener.incoming() {
        match stream {
            Ok(stream) => {
                let token = token.clone();
                std::thread::spawn(move || serve_stream(stream, token.as_deref()));
            }
            Err(e) => eprintln!("sweep_worker: accept failed: {e}"),
        }
    }
    0
}

/// Dial in to a `sweep serve --register-listen` daemon and serve it,
/// forever: the body of `sweep_worker --join <addr>`.  Prints
/// `joining <addr>` to stdout once, then keeps a session open to the
/// daemon, reconnecting on bounded exponential backoff + jitter
/// ([`Backoff`]) whenever the daemon is unreachable or the session ends
/// abnormally — so a restarting daemon reabsorbs its fleet without any
/// worker hot-spinning the connect path.
pub fn run_joiner(addr: &str, token: Option<String>) -> i32 {
    println!("joining {addr}");
    let _ = std::io::stdout().flush();
    let mut backoff = Backoff::new(BACKOFF_BASE, BACKOFF_CAP, 0x4A01_4E52);
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                if serve_stream(stream, token.as_deref()) == 0 {
                    // A clean session (daemon drained us out politely):
                    // the next reconnect attempt starts fresh.
                    backoff.reset();
                }
            }
            Err(e) => eprintln!("sweep_worker: joining {addr}: {e}"),
        }
        std::thread::sleep(backoff.next_delay());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::SliceLines;
    use effective_san::Parallelism;
    use san_api::SanitizerKind;
    use std::io::{Cursor, Read};
    use workloads::Scale;

    impl SessionOutput for &mut Vec<u8> {}

    /// The session's output without heartbeat lines, whose number
    /// depends on how long a shard happened to take.
    fn without_heartbeats(output: &[u8]) -> String {
        let text = String::from_utf8(output.to_vec()).unwrap();
        text.lines()
            .filter(|line| !wire::is_heartbeat(line))
            .map(|line| format!("{line}\n"))
            .collect()
    }

    /// Run one session over an in-memory input; its exit code and
    /// output (heartbeats dropped).
    fn serve_in_memory(input: &str, token: Option<&str>) -> (i32, String) {
        let mut output = Vec::new();
        let code = session(Cursor::new(input.as_bytes().to_vec()), &mut output, token);
        (code, without_heartbeats(&output))
    }

    /// Run one session over a loopback TCP connection fed `input`; its
    /// exit code and output (heartbeats dropped).  The client keeps its
    /// write half open, so the worker sees no end of input before it
    /// ends the session itself.
    fn serve_over_tcp(input: &str, token: Option<&str>) -> (i32, String) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        let token = token.map(str::to_string);
        let worker = std::thread::spawn(move || serve_stream(stream, token.as_deref()));
        client.write_all(input.as_bytes()).expect("write input");
        let mut output = Vec::new();
        client.read_to_end(&mut output).expect("read output");
        (
            worker.join().expect("worker thread"),
            without_heartbeats(&output),
        )
    }

    #[test]
    fn serve_answers_a_shard_and_exits_on_done() {
        let spec = ShardSpec {
            id: 0,
            chunk: 0,
            scale: Scale::Test,
            parallelism: Parallelism::Sequential,
            benchmark: "mcf".to_string(),
            backends: vec![SanitizerKind::None, SanitizerKind::EffectiveFull],
        };
        let input = format!(
            "{}\n{}\n{}\n",
            wire::HANDSHAKE,
            wire::encode_command(&Command::Shard(spec)),
            wire::encode_command(&Command::Done)
        );
        let (code, text) = serve_in_memory(&input, None);
        assert_eq!(code, 0);

        let lines: Vec<String> = text.lines().map(|l| l.to_string()).collect();
        assert_eq!(lines[0], wire::HANDSHAKE);
        let advertised = wire::decode_hello(&lines[1]).expect("hello after handshake");
        assert_eq!(advertised.backends, SanitizerKind::ALL.to_vec());
        assert!(advertised.cores >= 1);
        let mut src = SliceLines::new(&lines[2..]);
        match wire::decode_reply(&mut src).unwrap() {
            Reply::Result { id, chunk, row } => {
                assert_eq!((id, chunk), (0, 0));
                assert_eq!(row.name, "mcf");
                assert_eq!(row.reports.len(), 2);
                assert_eq!(row.reports[0].sanitizer, SanitizerKind::None);
                assert_eq!(row.reports[1].sanitizer, SanitizerKind::EffectiveFull);
            }
            other => panic!("expected a result reply, got {other:?}"),
        }
    }

    #[test]
    fn unknown_benchmarks_become_error_replies_not_crashes() {
        let spec = ShardSpec {
            id: 4,
            chunk: 0,
            scale: Scale::Test,
            parallelism: Parallelism::Sequential,
            benchmark: "no-such-benchmark".to_string(),
            backends: vec![SanitizerKind::None],
        };
        let input = format!(
            "{}\n{}\ndone\n",
            wire::HANDSHAKE,
            wire::encode_command(&Command::Shard(spec))
        );
        let (code, text) = serve_in_memory(&input, None);
        assert_eq!(code, 0);
        let lines: Vec<String> = text.lines().map(|l| l.to_string()).collect();
        let mut src = SliceLines::new(&lines[2..]);
        match wire::decode_reply(&mut src).unwrap() {
            Reply::Error { id, message } => {
                assert_eq!(id, 4);
                assert!(message.contains("no-such-benchmark"), "{message}");
            }
            other => panic!("expected an error reply, got {other:?}"),
        }
    }

    #[test]
    fn bad_handshake_is_rejected() {
        assert_eq!(serve_in_memory("not-a-handshake\n", None).0, 2);
    }

    #[test]
    fn token_worker_rejects_wrong_and_missing_tokens_before_hello() {
        // Wrong token: structured authfail, no hello, no shard ran.
        let input = format!(
            "{}\n{}\ndone\n",
            wire::HANDSHAKE,
            wire::encode_auth("wrong")
        );
        let (code, text) = serve_in_memory(&input, Some("right"));
        assert_eq!(code, 2);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], wire::HANDSHAKE);
        assert!(wire::is_auth(lines[1]), "worker sends its own auth: {text}");
        assert_eq!(
            wire::parse_auth_reject(lines[2]).as_deref(),
            Some("auth token mismatch")
        );
        assert!(!text.contains("hello"), "no capability exchange: {text}");
        // The worker's own `auth` frame is the one legitimate carrier of
        // its token; no other line — in particular the rejection — may
        // echo it.
        for (i, line) in lines.iter().enumerate() {
            assert!(
                i == 1 || !line.contains("right"),
                "token leaked outside the auth frame: {text}"
            );
        }

        // Missing token: same gate, different reason.
        let input = format!("{}\ndone\n", wire::HANDSHAKE);
        let (code, text) = serve_in_memory(&input, Some("right"));
        assert_eq!(code, 2);
        assert!(text.contains("authfail"), "{text}");
        assert!(!text.contains("hello"), "{text}");
    }

    #[test]
    fn matching_tokens_run_shards_and_stray_auth_is_tolerated() {
        let spec = ShardSpec {
            id: 1,
            chunk: 0,
            scale: Scale::Test,
            parallelism: Parallelism::Sequential,
            benchmark: "mcf".to_string(),
            backends: vec![SanitizerKind::None],
        };
        // Both sides carry the token.
        let input = format!(
            "{}\n{}\n{}\ndone\n",
            wire::HANDSHAKE,
            wire::encode_auth("tok\twith\ttabs"),
            wire::encode_command(&Command::Shard(spec.clone()))
        );
        let (code, text) = serve_in_memory(&input, Some("tok\twith\ttabs"));
        assert_eq!(code, 0);
        assert!(text.contains("hello"), "{text}");
        assert!(text.contains("result\t1\t0"), "{text}");

        // A token-bearing peer talking to a tokenless worker: the stray
        // auth line is swallowed, the shard still runs (the *peer* is
        // the side that will reject, from its own gate).
        let input = format!(
            "{}\n{}\n{}\ndone\n",
            wire::HANDSHAKE,
            wire::encode_auth("whatever"),
            wire::encode_command(&Command::Shard(spec))
        );
        let (code, text) = serve_in_memory(&input, None);
        assert_eq!(code, 0);
        assert!(text.contains("result\t1\t0"), "{text}");
    }

    #[test]
    fn pipes_and_tcp_run_the_same_session() {
        let spec = ShardSpec {
            id: 2,
            chunk: 0,
            scale: Scale::Test,
            parallelism: Parallelism::Sequential,
            benchmark: "mcf".to_string(),
            backends: vec![SanitizerKind::None],
        };
        let shard = wire::encode_command(&Command::Shard(spec));
        let cases = [
            (None, format!("{}\n{shard}\ndone\n", wire::HANDSHAKE)),
            (
                Some("s3cret"),
                format!(
                    "{}\n{}\n{shard}\ndone\n",
                    wire::HANDSHAKE,
                    wire::encode_auth("s3cret")
                ),
            ),
            (
                Some("s3cret"),
                format!(
                    "{}\n{}\ndone\n",
                    wire::HANDSHAKE,
                    wire::encode_auth("wrong")
                ),
            ),
            (None, "not-a-handshake\n".to_string()),
        ];
        // Wall time is the one report field that may differ run to run.
        let timeless = |(code, text): (i32, String)| {
            let lines: Vec<String> = text
                .lines()
                .map(|line| match line.strip_prefix("report\t") {
                    Some(rest) => {
                        let mut f: Vec<&str> = rest.split('\t').collect();
                        f[3] = "<wall>";
                        format!("report\t{}", f.join("\t"))
                    }
                    None => line.to_string(),
                })
                .collect();
            (code, lines)
        };
        for (token, input) in cases {
            let piped = timeless(serve_in_memory(&input, token));
            let networked = timeless(serve_over_tcp(&input, token));
            assert_eq!(piped, networked, "token {token:?}, input:\n{input}");
        }
    }

    /// A reader that yields `opening`, then blocks — a peer that stays
    /// connected but silent — until its sender is dropped.
    struct SilentAfter {
        opening: Cursor<Vec<u8>>,
        hang_up: mpsc::Receiver<()>,
    }

    impl Read for SilentAfter {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.opening.read(buf)? {
                0 => {
                    let _ = self.hang_up.recv();
                    Ok(0)
                }
                n => Ok(n),
            }
        }
    }

    #[test]
    fn silent_tokenless_peer_gets_authfail_on_both_transports() {
        let opening = format!("{}\n", wire::HANDSHAKE);
        let check = |code: i32, text: &str, elapsed: Duration, transport: &str| {
            assert_eq!(code, 2, "{transport}: {text}");
            let last = text.lines().last().unwrap_or_default();
            assert_eq!(
                wire::parse_auth_reject(last).as_deref(),
                Some("peer presented no auth token"),
                "{transport}: {text}"
            );
            assert!(!text.contains("hello"), "{transport}: {text}");
            assert!(
                elapsed < AUTH_GATE_TIMEOUT + Duration::from_secs(3),
                "{transport}: the gate waited {elapsed:?}"
            );
        };
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let (hang_up, silent) = mpsc::channel();
                let input = SilentAfter {
                    opening: Cursor::new(opening.as_bytes().to_vec()),
                    hang_up: silent,
                };
                let started = Instant::now();
                let mut output = Vec::new();
                let code = session(BufReader::new(input), &mut output, Some("s3cret"));
                check(
                    code,
                    &without_heartbeats(&output),
                    started.elapsed(),
                    "pipe",
                );
                drop(hang_up);
            });
            scope.spawn(|| {
                let started = Instant::now();
                let (code, text) = serve_over_tcp(&opening, Some("s3cret"));
                check(code, &text, started.elapsed(), "tcp");
            });
        });
    }
}
