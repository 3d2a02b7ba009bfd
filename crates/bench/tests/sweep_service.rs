//! In-process integration tests for the sweep service: each test binds a
//! real Unix socket via [`Server::start`], talks the wire protocol
//! through ordinary `UnixStream` clients, and asserts the failure
//! semantics the module promises — single-flight dedup, bounded-queue
//! shedding, panic isolation, deadline park + resume, graceful drain,
//! malformed-input hardening, and the read path: what the engine already
//! knows is answered where the request is read, whatever the workers and
//! the queue are doing.

use adacomm_bench::server::protocol::{
    encode_request, parse_response, Command, ErrorKind, Request, Response, ResponseBody,
    RunRequest, StatsBody,
};
use adacomm_bench::server::{Server, ServerConfig, ServerHandle, MAX_LINE_BYTES};
use adacomm_bench::store::RunStore;
use adacomm_bench::supervisor;
use adacomm_bench::sweep::SweepEngine;
use adacomm_bench::Scale;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A unique socket path per test so the suite can run in parallel.
fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("adacomm-svc-{}-{tag}.sock", std::process::id()))
}

fn start(tag: &str, workers: usize, queue_limit: usize, engine: SweepEngine) -> ServerHandle {
    let path = socket_path(tag);
    let _ = std::fs::remove_file(&path);
    let config = ServerConfig {
        socket_path: path,
        workers,
        queue_limit,
        scale: Scale::Quick,
        ..ServerConfig::default()
    };
    Server::start(config, Arc::new(engine)).expect("start server")
}

/// One client connection: a buffered read half plus a raw write half.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn connect(path: &Path) -> Client {
        let stream = UnixStream::connect(path).expect("connect to service");
        let writer = stream.try_clone().expect("clone stream");
        Client {
            reader: BufReader::new(stream),
            writer,
        }
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("write request");
        self.writer.flush().expect("flush request");
    }

    fn send(&mut self, request: &Request) {
        let mut line = encode_request(request);
        line.push('\n');
        self.send_raw(line.as_bytes());
    }

    fn recv(&mut self) -> Response {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        assert!(!line.is_empty(), "server closed the connection");
        parse_response(line.trim()).expect("parse response line")
    }

    fn call(&mut self, request: &Request) -> Response {
        self.send(request);
        self.recv()
    }
}

/// A concept-scenario run request; wall time scales with `budget` (at
/// `tau = 1` the simulated-seconds budget is also the round count), so
/// tests pick small budgets for instant runs and large ones for runs
/// that reliably outlive the surrounding orchestration.
fn run_request(id: u64, budget: f64, deadline_ms: Option<u64>, panic: bool) -> Request {
    Request {
        id: Some(id),
        cmd: Command::Run(RunRequest {
            scenario: "concept".into(),
            scheduler: "fixed".into(),
            tau: 1,
            budget: Some((budget, budget)),
            deadline_ms,
            panic,
        }),
    }
}

fn ping(id: u64) -> Request {
    Request {
        id: Some(id),
        cmd: Command::Ping,
    }
}

fn stats(id: u64) -> Request {
    Request {
        id: Some(id),
        cmd: Command::Stats,
    }
}

fn error_kind(response: &Response) -> Option<ErrorKind> {
    match &response.body {
        ResponseBody::Error { kind, .. } => Some(*kind),
        _ => None,
    }
}

fn stats_of(client: &mut Client) -> StatsBody {
    match client.call(&stats(0)).body {
        ResponseBody::Stats(s) => s,
        other => panic!("expected stats, got {other:?}"),
    }
}

/// Asserts a successful `run` reply and returns its `source` label.
fn run_source(response: &Response) -> String {
    match &response.body {
        ResponseBody::Run(run) => run.source.clone(),
        other => panic!("expected a run result, got {other:?}"),
    }
}

/// Occupies the server's only worker with a run far longer than any test
/// and returns once the worker has taken it off the queue. Only a drain
/// ends it, or `deadline_ms` when given, which holds the worker for the
/// same time however fast the build simulates.
fn pin_the_worker(path: &Path, deadline_ms: Option<u64>) -> Client {
    let mut pin = Client::connect(path);
    pin.send(&run_request(1, 100_000.0, deadline_ms, false));
    let mut admin = Client::connect(path);
    let deadline = Instant::now() + Duration::from_secs(10);
    while stats_of(&mut admin).queue_depth > 0 {
        assert!(Instant::now() < deadline, "the worker never took the pin");
        std::thread::sleep(Duration::from_millis(5));
    }
    pin
}

/// A client whose reads fail after one second: a reply that has to wait
/// for the pinned worker never arrives in time.
fn impatient_client(path: &Path) -> Client {
    let client = Client::connect(path);
    client
        .reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(1)))
        .expect("set read timeout");
    client
}

/// Inline commands, and a `figure` request's three outcomes as the
/// service surfaces `figures::run_figure`'s: an unknown name is refused
/// where it is read, a healthy figure renders, and a figure whose body
/// panics degrades that one response.
#[test]
fn ping_stats_and_unknown_figure() {
    adacomm_bench::report::set_results_subdir("tests");
    // No run meets a zero deadline: a figure that asks this engine for a
    // run panics with the supervisor's reason; an analytic one is healthy.
    // (Sequential, so the body fails at its first run, not after a wave.)
    let doomed = SweepEngine::with_parallelism(false).with_run_deadline(Duration::ZERO);
    let handle = start("basic", 1, 8, doomed);
    let mut client = Client::connect(handle.socket_path());

    let pong = client.call(&ping(1));
    assert_eq!(pong.id, Some(1));
    assert!(matches!(pong.body, ResponseBody::Pong));

    let response = client.call(&stats(2));
    match response.body {
        ResponseBody::Stats(s) => {
            assert_eq!(s.requests, 2, "ping + this stats call");
            assert!(!s.draining);
        }
        other => panic!("expected stats, got {other:?}"),
    }

    let mut figure = |id: u64, name: &str| {
        client.call(&Request {
            id: Some(id),
            cmd: Command::Figure { name: name.into() },
        })
    };
    let response = figure(3, "no-such-figure");
    assert_eq!(error_kind(&response), Some(ErrorKind::BadRequest));

    match figure(4, "fig04_speedup").body {
        ResponseBody::Figure { name, .. } => assert_eq!(name, "fig04_speedup"),
        other => panic!("expected a rendered figure, got {other:?}"),
    }

    match figure(5, "fig01_concept").body {
        ResponseBody::Error { kind, message } => {
            assert_eq!(kind, ErrorKind::Panic);
            assert!(message.contains("deadline exceeded"), "{message}");
        }
        other => panic!("expected a panic error, got {other:?}"),
    }
    assert_eq!(stats_of(&mut client).request_panics, 1);

    handle.join();
}

/// While the single worker is pinned, a storm of 100 identical requests
/// on 100 connections joins one flight: every client receives the same
/// result, the engine computes it once, and each joiner counts as a dedup
/// hit.
#[test]
fn identical_requests_share_one_flight() {
    let handle = start("dedup", 1, 8, SweepEngine::default());
    let path = handle.socket_path().to_path_buf();

    // The pin is far longer than the test and ends by its own deadline,
    // so it holds the worker for the same two seconds in a debug and a
    // release build; the pong says it was admitted ahead of the storm.
    let mut pin = Client::connect(&path);
    pin.send(&run_request(1, 100_000.0, Some(2_000), false));
    assert!(matches!(pin.call(&ping(2)).body, ResponseBody::Pong));

    let mut clients: Vec<Client> = (0..100).map(|_| Client::connect(&path)).collect();
    for (i, client) in clients.iter_mut().enumerate() {
        client.send(&run_request(10 + i as u64, 6.0, None, false));
    }
    let responses: Vec<Response> = clients.iter_mut().map(Client::recv).collect();

    let mut losses = Vec::new();
    for (i, response) in responses.iter().enumerate() {
        assert_eq!(response.id, Some(10 + i as u64), "ids echo per waiter");
        match &response.body {
            ResponseBody::Run(run) => losses.push(run.final_loss),
            other => panic!("expected a run result, got {other:?}"),
        }
    }
    assert!(
        losses.windows(2).all(|w| w[0] == w[1]),
        "all waiters share one computation's result: {losses:?}"
    );

    assert_eq!(error_kind(&pin.recv()), Some(ErrorKind::Deadline));
    let s = stats_of(&mut pin);
    assert_eq!(s.dedup_hits, 99, "99 of 100 identical requests joined");
    assert_eq!(s.unique_runs, 1, "one shared computation; the pin was cut");

    handle.join();
}

/// With the worker pinned and a queue of 2, a pipelined burst of 6
/// distinct requests sheds exactly 4 with `overloaded`; the 2 admitted
/// ones complete normally once the pin's deadline frees the worker.
#[test]
fn full_queue_sheds_with_overloaded() {
    let handle = start("shed", 1, 2, SweepEngine::default());
    let path = handle.socket_path().to_path_buf();

    let _pin = pin_the_worker(&path, Some(2_000));

    let mut burst = Client::connect(&path);
    for i in 0..6u64 {
        // Distinct budgets -> distinct spec keys -> no dedup.
        burst.send(&run_request(100 + i, 6.0 + i as f64, None, false));
    }
    let (mut ok, mut shed) = (0, 0);
    for _ in 0..6 {
        let response = burst.recv();
        match response.body {
            ResponseBody::Run(_) => ok += 1,
            ResponseBody::Error {
                kind: ErrorKind::Overloaded,
                ref message,
            } => {
                assert!(message.contains("queue full"), "unexpected: {message}");
                shed += 1;
            }
            other => panic!("expected run or overloaded, got {other:?}"),
        }
    }
    assert_eq!((ok, shed), (2, 4), "queue_limit=2 admits 2, sheds 4");

    handle.join();
}

/// A forced-panic drill degrades exactly one response; the process, the
/// connection, and subsequent requests all survive.
#[test]
fn request_panic_is_isolated() {
    let handle = start("panic", 1, 8, SweepEngine::default());
    let mut client = Client::connect(handle.socket_path());

    let response = client.call(&run_request(1, 6.0, None, true));
    assert_eq!(error_kind(&response), Some(ErrorKind::Panic));

    // Same connection still serves; a fresh connection too.
    assert!(matches!(client.call(&ping(2)).body, ResponseBody::Pong));
    let mut fresh = Client::connect(handle.socket_path());
    match fresh.call(&run_request(3, 6.0, None, false)).body {
        ResponseBody::Run(_) => {}
        other => panic!("service degraded after panic: {other:?}"),
    }
    match fresh.call(&stats(4)).body {
        ResponseBody::Stats(s) => assert_eq!(s.request_panics, 1),
        other => panic!("expected stats, got {other:?}"),
    }

    handle.join();
}

/// A run that overruns its deadline is cancelled, parked in the store,
/// and answered `deadline`; re-requesting the same spec resumes the
/// parked progress instead of starting over.
#[test]
fn deadline_parks_then_resumes() {
    let store_dir =
        std::env::temp_dir().join(format!("adacomm-svc-{}-deadline-store", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let engine = SweepEngine::default().with_store(RunStore::new(&store_dir));
    let handle = start("deadline", 1, 8, engine);
    let mut client = Client::connect(handle.socket_path());

    let response = client.call(&run_request(1, 5000.0, Some(150), false));
    match &response.body {
        ResponseBody::Error {
            kind: ErrorKind::Deadline,
            message,
        } => assert!(message.contains("parked"), "unexpected: {message}"),
        other => panic!("expected a deadline error, got {other:?}"),
    }

    let response = client.call(&run_request(2, 5000.0, None, false));
    match &response.body {
        ResponseBody::Run(run) => assert_eq!(run.source, "resumed", "parked progress must resume"),
        other => panic!("expected the resumed run, got {other:?}"),
    }
    match client.call(&stats(3)).body {
        ResponseBody::Stats(s) => assert_eq!(s.deadline_misses, 1),
        other => panic!("expected stats, got {other:?}"),
    }

    handle.join();
    let _ = std::fs::remove_dir_all(&store_dir);
}

/// Drain answers everything: the in-flight run is cooperatively
/// cancelled and its waiter told `draining`, queued jobs are answered
/// `draining` without running, and `join` returns with the socket file
/// gone.
#[test]
fn drain_answers_in_flight_and_queued() {
    let handle = start("drain", 1, 8, SweepEngine::default());
    let path = handle.socket_path().to_path_buf();

    let mut pin = Client::connect(&path);
    // Far larger than the test could ever wait out: only cooperative
    // cancellation can answer this one.
    pin.send(&run_request(1, 100_000.0, None, false));
    std::thread::sleep(Duration::from_millis(300));

    let mut queued: Vec<Client> = (0..2).map(|_| Client::connect(&path)).collect();
    for (i, client) in queued.iter_mut().enumerate() {
        client.send(&run_request(
            10 + i as u64,
            90_000.0 + i as f64,
            None,
            false,
        ));
    }
    std::thread::sleep(Duration::from_millis(100));

    handle.join();

    assert_eq!(error_kind(&pin.recv()), Some(ErrorKind::Draining));
    for client in &mut queued {
        assert_eq!(error_kind(&client.recv()), Some(ErrorKind::Draining));
    }
    assert!(!path.exists(), "join removes the socket file");
    assert!(
        UnixStream::connect(&path).is_err(),
        "no listener after join"
    );
}

/// Garbage on the wire — invalid JSON, oversized lines, split writes —
/// never desyncs framing or kills the connection.
#[test]
fn malformed_input_keeps_the_connection_alive() {
    let handle = start("garbage", 1, 8, SweepEngine::default());
    let mut client = Client::connect(handle.socket_path());

    client.send_raw(b"this is not json\n");
    assert_eq!(error_kind(&client.recv()), Some(ErrorKind::BadRequest));

    client.send_raw(b"{\"id\":7,\"cmd\":\"warp\"}\n");
    let response = client.recv();
    assert_eq!(response.id, Some(7), "id recovered from a bad command");
    assert_eq!(error_kind(&response), Some(ErrorKind::BadRequest));

    // An oversized line is consumed whole; framing survives.
    let mut huge = vec![b'x'; MAX_LINE_BYTES + 16];
    huge.push(b'\n');
    client.send_raw(&huge);
    let response = client.recv();
    match &response.body {
        ResponseBody::Error {
            kind: ErrorKind::BadRequest,
            message,
        } => assert!(message.contains("exceeds"), "unexpected: {message}"),
        other => panic!("expected bad_request for oversized line, got {other:?}"),
    }

    // A request split across writes with a pause in between still parses
    // once its newline lands.
    let line = encode_request(&ping(9));
    let bytes = line.as_bytes();
    client.send_raw(&bytes[..bytes.len() / 2]);
    std::thread::sleep(Duration::from_millis(100));
    client.send_raw(&bytes[bytes.len() / 2..]);
    client.send_raw(b"\n");
    let response = client.recv();
    assert_eq!(response.id, Some(9));
    assert!(matches!(response.body, ResponseBody::Pong));

    // Blank lines are skipped, not answered.
    client.send_raw(b"\n\n");
    assert!(matches!(client.call(&ping(10)).body, ResponseBody::Pong));

    handle.join();
}

/// A live daemon on the socket path refuses a second bind; a stale
/// socket file (nothing accepting) is reclaimed.
#[test]
fn socket_binding_is_exclusive_but_reclaims_stale() {
    let handle = start("bind", 1, 8, SweepEngine::default());
    let path = handle.socket_path().to_path_buf();

    let config = ServerConfig {
        socket_path: path.clone(),
        workers: 1,
        queue_limit: 8,
        scale: Scale::Quick,
        ..ServerConfig::default()
    };
    let err = Server::start(config, Arc::new(SweepEngine::default()))
        .err()
        .expect("second bind on a live daemon must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);

    handle.join();

    // Leave a stale socket file behind (bound once, listener dropped):
    // a fresh start must reclaim it.
    let stale = socket_path("bind-stale");
    let _ = std::fs::remove_file(&stale);
    drop(std::os::unix::net::UnixListener::bind(&stale).expect("bind stale"));
    assert!(stale.exists(), "dropped listener leaves its socket file");
    let config = ServerConfig {
        socket_path: stale,
        workers: 1,
        queue_limit: 8,
        scale: Scale::Quick,
        ..ServerConfig::default()
    };
    let handle =
        Server::start(config, Arc::new(SweepEngine::default())).expect("reclaim stale socket");
    let mut client = Client::connect(handle.socket_path());
    assert!(matches!(client.call(&ping(1)).body, ResponseBody::Pong));
    handle.join();
}

/// A spec the engine already holds is answered on the connection thread:
/// with the only worker pinned and the queue full — a cold request is
/// shed — the warmed spec still gets `ok` from memory within a second,
/// deadline or not.
#[test]
fn known_spec_is_answered_past_a_pinned_worker_and_a_full_queue() {
    let handle = start("readpath", 1, 1, SweepEngine::default());
    let path = handle.socket_path().to_path_buf();

    let mut warm = Client::connect(&path);
    assert_eq!(
        run_source(&warm.call(&run_request(2, 6.0, None, false))),
        "computed"
    );

    let _pin = pin_the_worker(&path, None);
    let mut filler = Client::connect(&path);
    filler.send(&run_request(3, 90_000.0, None, false));

    let mut probe = impatient_client(&path);
    // The queue really is full: cold work is refused.
    let deadline = Instant::now() + Duration::from_secs(10);
    while stats_of(&mut probe).queue_depth < 1 {
        assert!(Instant::now() < deadline, "the filler never queued");
        std::thread::sleep(Duration::from_millis(5));
    }
    let shed = probe.call(&run_request(4, 7.0, None, false));
    assert_eq!(error_kind(&shed), Some(ErrorKind::Overloaded));

    let hit = probe.call(&run_request(5, 6.0, None, false));
    assert_eq!(hit.id, Some(5));
    assert_eq!(run_source(&hit), "memory");
    // An answer available on arrival meets any deadline.
    let hit = probe.call(&run_request(6, 6.0, Some(0), false));
    assert_eq!(run_source(&hit), "memory");
    let after = stats_of(&mut probe);
    assert_eq!(after.deadline_misses, 0, "a hit is not a deadline miss");
    assert_eq!(after.shed, 1, "only the cold request was shed");

    handle.join();
}

/// A drain refuses hits too, and a panic drill for a warmed spec still
/// panics — and leaves the real key answerable.
#[test]
fn drain_and_drill_are_not_answered_from_the_engine() {
    let handle = start("readpath-drain", 1, 8, SweepEngine::default());
    let mut client = Client::connect(handle.socket_path());
    assert_eq!(
        run_source(&client.call(&run_request(1, 6.0, None, false))),
        "computed"
    );

    let drill = client.call(&run_request(2, 6.0, None, true));
    assert_eq!(error_kind(&drill), Some(ErrorKind::Panic));
    assert_eq!(
        run_source(&client.call(&run_request(3, 6.0, None, false))),
        "memory"
    );

    handle.initiate_drain();
    let refused = client.call(&run_request(4, 6.0, None, false));
    assert_eq!(error_kind(&refused), Some(ErrorKind::Draining));
    handle.join();
}

/// A key in the engine's failure map gets the same error from the
/// connection thread (the worker is pinned when the repeat arrives) as
/// it got from the worker that ran it, and counts as a request panic
/// both times.
#[test]
fn known_failed_key_is_answered_in_place_with_the_same_error() {
    let engine = SweepEngine::default();
    // The injection hook is process-global: this budget appears in no
    // other test's spec key.
    supervisor::inject_panics("Some((7125, 7125))", 1);
    let handle = start("readpath-failed", 1, 8, engine);
    let path = handle.socket_path().to_path_buf();

    let mut client = Client::connect(&path);
    let from_worker = client.call(&run_request(1, 7.125, None, false));
    assert_eq!(error_kind(&from_worker), Some(ErrorKind::Panic));

    let _pin = pin_the_worker(&path, None);
    let mut probe = impatient_client(&path);
    let in_place = probe.call(&run_request(2, 7.125, None, false));
    assert_eq!(in_place.body, from_worker.body, "same kind, same message");
    assert_eq!(stats_of(&mut probe).request_panics, 2);

    handle.join();
}

/// Closed connections give their descriptors back: 300 one-shot clients
/// (what 300 `sweepctl` calls are to a long-lived daemon) leave the
/// process about where it started. The allowance covers the sockets and
/// store files of the tests running beside this one.
#[cfg(target_os = "linux")]
#[test]
fn closed_connections_release_their_descriptors() {
    let handle = start("fds", 1, 8, SweepEngine::default());
    let path = handle.socket_path().to_path_buf();
    let open_fds = || std::fs::read_dir("/proc/self/fd").expect("procfs").count();
    let allowance = 100;

    let before = open_fds();
    for i in 0..300 {
        let mut client = Client::connect(&path);
        assert!(matches!(client.call(&ping(i)).body, ResponseBody::Pong));
    }
    // Each connection thread sees its client's EOF on its own schedule.
    let deadline = Instant::now() + Duration::from_secs(10);
    while open_fds() >= before + allowance && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let after = open_fds();
    assert!(
        after < before + allowance,
        "{before} descriptors before 300 closed connections, {after} after"
    );

    handle.join();
}
