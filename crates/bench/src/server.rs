//! The sweep service: a crash-safe long-running daemon over a Unix-domain
//! socket, serving scenario requests out of the persistent run store and
//! the sweep engine.
//!
//! The protocol is newline-delimited JSON (std-only, no new
//! dependencies): each request line is one JSON object with an optional
//! integer `id` (echoed back) and a `cmd`; each response is one JSON
//! object with the echoed `id` and either `"ok": true` plus a result or
//! `"ok": false` plus a structured error (`kind` + `message`). See
//! [`protocol`] for the exact shapes.
//!
//! A `run` request whose outcome the engine already knows — the trace is
//! in the memo map or valid in the run store, or the key failed
//! terminally before ([`SweepEngine::lookup`]) — is **answered where it is
//! read**, on the connection thread: there is no work to queue, bound,
//! deduplicate or recover, so it takes no queue slot, no journal record
//! and no worker, cannot be shed, and does not wait behind unrelated
//! runs. Everything below is about requests that have to execute.
//!
//! Failure semantics are the point of this module:
//!
//! * **Deadlines** — a `run` request may carry `deadline_ms`; a run that
//!   overruns is cooperatively cancelled at the next round boundary, its
//!   partial work parked resumably in the store
//!   ([`RunStore::park`](crate::store::RunStore::park)), and the request
//!   answered with a `deadline` error. A later request for the same spec
//!   resumes the parked work bit-identically. The deadline bounds queued
//!   and executing work: an answer available on arrival meets any
//!   deadline, `deadline_ms: 0` included.
//! * **Backpressure** — the queue of computations waiting for a worker is
//!   bounded ([`ServerConfig::queue_limit`]); when it is full a request
//!   that needs a computation is shed with an explicit `overloaded` error
//!   instead of growing the queue without bound.
//! * **Single-flight dedup** — concurrent requests for the same
//!   content-addressed spec key attach to one in-flight computation and
//!   all receive its result; only the first occupies a queue slot.
//! * **Panic isolation** — each run executes under the [`supervisor`]
//!   and each figure body under [`figures::run_figure`] — a panicking
//!   run or figure degrades exactly one response (`panic` error), never
//!   the process.
//! * **Malformed input** — a garbage line (invalid JSON, oversized,
//!   wrong field types) yields a structured `bad_request` error on the
//!   same connection; the reader never panics and never desyncs framing.
//! * **Graceful drain** — [`ServerHandle::initiate_drain`] (wired to
//!   SIGTERM and the `shutdown` command by `sweepd`) stops accepting,
//!   answers queued requests with `draining`, checkpoints in-flight runs
//!   into the store, then joins every thread so the process can flush
//!   telemetry and exit 0. A drain refuses every `run`, known or not.
//! * **Crash consistency** — with a [`ServerConfig::journal_path`], every
//!   run/figure job admitted to the queue is recorded in an append-only,
//!   CRC-framed, fsync'd [`journal`] before a worker can see it and
//!   discharged when its flight completes: *journaled ⇔ admitted*. (A
//!   request answered on arrival has nothing to recover and is not
//!   recorded; panic drills are never recorded.) After a SIGKILL,
//!   [`recover`] replays the journal's pending set — resuming parked
//!   checkpoints where the store has them, recomputing deterministically
//!   otherwise — so no accepted request is ever lost and the recovered
//!   results are bit-identical to the runs the crash interrupted.
//!
//! Everything reports through the telemetry crate: `server.requests`,
//! `server.inline_hits` (requests answered on arrival), `server.shed`,
//! `server.dedup_hits`, `server.deadline_misses`,
//! `server.request_panics`, `server.recovered_runs`,
//! `server.journal_replays`, `server.gc_orphans` counters, the
//! `server.queue_depth` gauge, and on the admitted path only the
//! `server.queue_wait_us` (admission to worker pick-up) and
//! `server.journal_append_us` (one accept or done record, fsync
//! included) histograms plus a `phase.server_request` span per *executed
//! job* — not per request: joiners and requests answered on arrival open
//! none — all surfaced by `obs_report`.

use crate::failpoint;
use crate::figures::{self, FigureError};
use crate::supervisor;
use crate::sweep::{CancellableRun, Known, SweepEngine, TraceSource};
use crate::Scale;
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

pub mod journal;
pub mod protocol;

use journal::Journal;
use protocol::{Command, ErrorKind, Request, Response, ResponseBody, RunStats, StatsBody};

/// Hard cap on one protocol line (1 MiB). A line that exceeds it is
/// consumed to its newline (framing stays intact) and answered with a
/// `bad_request` error; the connection keeps working.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Configuration for one [`Server`] instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Unix-domain socket path to listen on.
    pub socket_path: PathBuf,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Bounded queue: at most this many *distinct* jobs may be waiting
    /// (joiners of an in-flight job never occupy a slot, and a request
    /// the engine can answer on arrival never queues). Requests that
    /// need a computation beyond it are shed with an `overloaded` error.
    pub queue_limit: usize,
    /// Scale every served scenario is built at (must match the batch
    /// reproduction it is compared against).
    pub scale: Scale,
    /// Crash-consistency journal file. `None` disables journaling (e.g.
    /// a cache-less daemon has nothing durable to recover into anyway).
    pub journal_path: Option<PathBuf>,
    /// Age past which a parked checkpoint frame is GC debris rather than
    /// paused work (startup sweep and the `gc` command).
    pub gc_max_parked_age: Duration,
    /// Counters from the recovery pass that ran before this server
    /// started, reported through `stats`.
    pub recovery: RecoveryCounters,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            socket_path: PathBuf::from("/tmp/adacomm-sweepd.sock"),
            workers: 2,
            queue_limit: 64,
            scale: Scale::Quick,
            journal_path: None,
            gc_max_parked_age: Duration::from_secs(24 * 60 * 60),
            recovery: RecoveryCounters::default(),
        }
    }
}

/// Startup recovery results carried into the server's `stats` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryCounters {
    /// Interrupted runs completed by journal recovery.
    pub recovered_runs: u64,
    /// Journal accept records found pending and replayed.
    pub journal_replays: u64,
    /// Orphaned files reclaimed by the startup GC sweep.
    pub gc_orphans: u64,
}

/// Aggregated service counters (also mirrored to telemetry).
#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    shed: AtomicU64,
    dedup_hits: AtomicU64,
    deadline_misses: AtomicU64,
    request_panics: AtomicU64,
    /// Seeded with the startup GC's reclaim count, grown by `gc` requests.
    gc_orphans: AtomicU64,
}

/// A client waiting on a flight's outcome.
struct Waiter {
    id: Option<u64>,
    out: Arc<Mutex<UnixStream>>,
}

/// What a queued job executes.
#[derive(Clone)]
enum JobKind {
    /// A scenario run through the engine's cancellable path. The spec is
    /// boxed to keep the enum (cloned per dispatch) small.
    Run {
        spec: Box<crate::sweep::SweepSpec>,
        forced_panic: bool,
    },
    /// A whole registry figure rendered against the shared engine (CSV
    /// outputs land in the active results directory, byte-identical to
    /// batch mode). Its runs are ordinary engine runs: memoized, stored
    /// and periodically parked like those of `Run` jobs.
    Figure { name: String },
}

/// One enqueued unit of work plus its leader's deadline. Joiners inherit
/// the leader's deadline: single-flight means one computation with one
/// budget, and every waiter shares its fate.
#[derive(Clone)]
struct Job {
    kind: JobKind,
    deadline: Option<Instant>,
}

/// An in-flight (queued or executing) job and everyone awaiting it.
struct Flight {
    job: Job,
    waiters: Vec<Waiter>,
    /// When the job entered the queue (`server.queue_wait_us`).
    admitted: Instant,
}

/// Mutable server state behind one mutex: the bounded queue (keys into
/// `flights`), the single-flight table, and the live connections (for
/// shutdown on drain), each under the id its thread removes it by when
/// the client goes away.
struct State {
    queue: VecDeque<String>,
    flights: HashMap<String, Flight>,
    conns: HashMap<u64, UnixStream>,
}

struct Shared {
    engine: Arc<SweepEngine>,
    config: ServerConfig,
    journal: Option<Journal>,
    state: Mutex<State>,
    job_ready: Condvar,
    draining: AtomicBool,
    shutdown_requested: AtomicBool,
    counters: Counters,
    conn_handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// The sweep service. [`Server::start`] binds the socket and spawns the
/// accept loop plus worker pool; the returned [`ServerHandle`] drives
/// drain and join. Startable in-process, so integration tests exercise
/// the real socket path without a child process.
pub struct Server;

/// A running server: owns its threads and the listening socket file.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `config.socket_path` and starts serving on background
    /// threads. A stale socket file from a crashed daemon (nothing
    /// accepting on it) is removed and rebound; a *live* daemon on the
    /// same path is an [`io::ErrorKind::AddrInUse`] error.
    ///
    /// # Errors
    ///
    /// Returns the bind error (bad path, permissions, live daemon).
    pub fn start(config: ServerConfig, engine: Arc<SweepEngine>) -> io::Result<ServerHandle> {
        let listener = bind_socket(&config.socket_path)?;
        listener.set_nonblocking(true)?;
        let workers = config.workers.max(1);
        let journal = match &config.journal_path {
            Some(path) => Some(Journal::open(path)?),
            None => None,
        };
        let counters = Counters {
            gc_orphans: AtomicU64::new(config.recovery.gc_orphans),
            ..Counters::default()
        };
        let shared = Arc::new(Shared {
            engine,
            config,
            journal,
            state: Mutex::new(State {
                queue: VecDeque::new(),
                flights: HashMap::new(),
                conns: HashMap::new(),
            }),
            job_ready: Condvar::new(),
            draining: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            counters,
            conn_handles: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("sweepd-accept".into())
            .spawn(move || accept_loop(&accept_shared, &listener))
            .expect("spawn accept thread");
        let worker_threads = (0..workers)
            .map(|i| {
                let worker_shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sweepd-worker-{i}"))
                    .spawn(move || worker_loop(&worker_shared))
                    .expect("spawn worker thread")
            })
            .collect();
        Ok(ServerHandle {
            shared,
            accept_thread: Some(accept_thread),
            workers: worker_threads,
        })
    }
}

impl ServerHandle {
    /// The socket path this server listens on.
    pub fn socket_path(&self) -> &Path {
        &self.shared.config.socket_path
    }

    /// Whether a client asked the daemon to shut down (the `shutdown`
    /// command). The owner polls this and calls
    /// [`ServerHandle::initiate_drain`] + [`ServerHandle::join`].
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Begins the graceful drain: stop accepting new connections, answer
    /// queued jobs with `draining` errors, and cooperatively cancel
    /// in-flight runs (their progress parks in the store). Idempotent.
    pub fn initiate_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        // Wake every idle worker so it can observe the drain and exit.
        self.shared.job_ready.notify_all();
    }

    /// Drains (if not already draining) and joins every thread: accept
    /// loop, workers (which first answer everything still queued), then
    /// connection readers (their sockets are shut down so blocked reads
    /// return). Removes the socket file last. After `join` returns, no
    /// server thread is running and telemetry counters are final.
    pub fn join(mut self) {
        self.initiate_drain();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        {
            let state = self.shared.state.lock().expect("server state poisoned");
            for conn in state.conns.values() {
                let _ = conn.shutdown(std::net::Shutdown::Both);
            }
        }
        let handles = std::mem::take(
            &mut *self
                .shared
                .conn_handles
                .lock()
                .expect("connection handles poisoned"),
        );
        for t in handles {
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.shared.config.socket_path);
    }

    /// A snapshot of the service counters plus queue/engine gauges — what
    /// the `stats` command reports, available in-process for `sweepd`'s
    /// exit summary.
    pub fn stats(&self) -> StatsBody {
        stats_body(&self.shared)
    }
}

/// Binds `path`, reclaiming a stale socket file (one nothing accepts on).
fn bind_socket(path: &Path) -> io::Result<UnixListener> {
    if path.exists() {
        if UnixStream::connect(path).is_ok() {
            return Err(io::Error::new(
                io::ErrorKind::AddrInUse,
                format!("{} already has a live daemon", path.display()),
            ));
        }
        // A leftover from a crashed daemon: nothing is accepting, so
        // rebinding is safe.
        std::fs::remove_file(path)?;
    }
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    UnixListener::bind(path)
}

/// Accepts connections until drain. The listener is nonblocking and
/// polled: SIGTERM must be able to stop the loop, and a blocking
/// `accept` would sit in the kernel until the *next* client connects.
fn accept_loop(shared: &Arc<Shared>, listener: &UnixListener) {
    let mut next_conn_id = 0u64;
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                let conn_id = next_conn_id;
                next_conn_id += 1;
                if let Ok(clone) = stream.try_clone() {
                    shared
                        .state
                        .lock()
                        .expect("server state poisoned")
                        .conns
                        .insert(conn_id, clone);
                }
                let conn_shared = Arc::clone(shared);
                let handle = std::thread::Builder::new()
                    .name("sweepd-conn".into())
                    .spawn(move || {
                        connection_loop(&conn_shared, stream);
                        // The client is gone: drop the drain's handle on
                        // its socket, or a long-lived daemon runs out of
                        // descriptors one closed connection at a time.
                        conn_shared
                            .state
                            .lock()
                            .expect("server state poisoned")
                            .conns
                            .remove(&conn_id);
                    })
                    .expect("spawn connection thread");
                // Reap the threads of connections that have closed since
                // (joining a finished thread does not block); `join` on
                // drain takes whatever is still live.
                let mut handles = shared
                    .conn_handles
                    .lock()
                    .expect("connection handles poisoned");
                for finished in handles.extract_if(.., |t| t.is_finished()) {
                    let _ = finished.join();
                }
                handles.push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => {
                // Transient accept failure (e.g. aborted handshake):
                // keep serving unless we are draining.
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// Reads one `\n`-terminated line with a byte cap. Oversized lines are
/// consumed to their newline but their bytes discarded; the returned
/// flag says so. `Ok(None)` is clean EOF with no pending bytes.
fn read_line_capped<R: BufRead>(reader: &mut R, cap: usize) -> io::Result<Option<(Vec<u8>, bool)>> {
    let mut buf = Vec::new();
    let mut truncated = false;
    let mut saw_any = false;
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            if !saw_any {
                return Ok(None);
            }
            return Ok(Some((buf, truncated)));
        }
        saw_any = true;
        if let Some(pos) = available.iter().position(|&b| b == b'\n') {
            if !truncated {
                if buf.len() + pos > cap {
                    truncated = true;
                    buf.clear();
                } else {
                    buf.extend_from_slice(&available[..pos]);
                }
            }
            reader.consume(pos + 1);
            return Ok(Some((buf, truncated)));
        }
        let len = available.len();
        if !truncated {
            if buf.len() + len > cap {
                truncated = true;
                buf.clear();
            } else {
                buf.extend_from_slice(available);
            }
        }
        reader.consume(len);
    }
}

/// Serves one client connection: reads request lines, answers inline
/// commands and runs the engine already knows, enqueues the other
/// run/figure jobs. Responses to in-flight jobs are
/// written by worker threads through the shared write half; a client
/// pipelining requests may therefore see responses in completion order —
/// the echoed `id` is the correlation.
fn connection_loop(shared: &Arc<Shared>, stream: UnixStream) {
    let out = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        match read_line_capped(&mut reader, MAX_LINE_BYTES) {
            Ok(None) | Err(_) => return,
            Ok(Some((buf, truncated))) => {
                if truncated {
                    shared.counters.requests.fetch_add(1, Ordering::SeqCst);
                    telemetry::counter("server.requests").inc();
                    respond(
                        &out,
                        &Response::error(
                            None,
                            ErrorKind::BadRequest,
                            &format!("line exceeds {MAX_LINE_BYTES} bytes"),
                        ),
                    );
                    continue;
                }
                let line = String::from_utf8_lossy(&buf);
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                shared.counters.requests.fetch_add(1, Ordering::SeqCst);
                telemetry::counter("server.requests").inc();
                handle_line(shared, &out, line);
            }
        }
    }
}

/// Parses and dispatches one nonempty request line.
fn handle_line(shared: &Arc<Shared>, out: &Arc<Mutex<UnixStream>>, line: &str) {
    let request = match protocol::parse_request(line) {
        Ok(request) => request,
        Err((id, message)) => {
            respond(out, &Response::error(id, ErrorKind::BadRequest, &message));
            return;
        }
    };
    let Request { id, cmd } = request;
    match cmd {
        Command::Ping => respond(out, &Response::ok(id, ResponseBody::Pong)),
        Command::Stats => respond(
            out,
            &Response::ok(id, ResponseBody::Stats(stats_body(shared))),
        ),
        Command::Shutdown => {
            respond(out, &Response::ok(id, ResponseBody::ShuttingDown));
            shared.shutdown_requested.store(true, Ordering::SeqCst);
        }
        Command::Gc => match shared.engine.store() {
            Some(store) => {
                let stats = store.gc(shared.config.gc_max_parked_age);
                shared
                    .counters
                    .gc_orphans
                    .fetch_add(stats.reclaimed(), Ordering::SeqCst);
                telemetry::counter("server.gc_orphans").add(stats.reclaimed());
                respond(
                    out,
                    &Response::ok(
                        id,
                        ResponseBody::Gc {
                            tmp_removed: stats.tmp_removed,
                            parked_removed: stats.parked_removed,
                            parked_kept: stats.parked_kept,
                        },
                    ),
                );
            }
            None => respond(
                out,
                &Response::error(
                    id,
                    ErrorKind::Failed,
                    "no run store attached; nothing to garbage-collect",
                ),
            ),
        },
        Command::Figure { name } => {
            if !figures::registry().iter().any(|f| f.name == name) {
                respond(
                    out,
                    &Response::error(
                        id,
                        ErrorKind::BadRequest,
                        &format!("unknown figure \"{name}\""),
                    ),
                );
                return;
            }
            let journal_as = Request {
                id: None,
                cmd: Command::Figure { name: name.clone() },
            };
            let job = Job {
                kind: JobKind::Figure { name: name.clone() },
                deadline: None,
            };
            enqueue(
                shared,
                format!("figure|{name}"),
                job,
                Waiter {
                    id,
                    out: Arc::clone(out),
                },
                Some(journal_as),
            );
        }
        Command::Run(run) => {
            let spec = match run.sweep_spec(shared.config.scale) {
                Ok(spec) => spec,
                Err(message) => {
                    respond(out, &Response::error(id, ErrorKind::BadRequest, &message));
                    return;
                }
            };
            if refuse_if_draining(shared, out, id) {
                return;
            }
            let started = Instant::now();
            let deadline = run
                .deadline_ms
                .map(|ms| started + Duration::from_millis(ms));
            let key = spec.key();
            // What the engine already knows is answered here, on the
            // connection thread: there is no work to queue, to bound, to
            // deduplicate or to recover after a crash, so the request
            // takes no queue slot and no journal record — and an answer
            // available on arrival meets any deadline. The drill is never
            // answered from the engine (it must panic, not hit).
            let known = if run.panic {
                None
            } else {
                shared.engine.lookup(&key)
            };
            if let Some(known) = known {
                telemetry::counter("server.inline_hits").inc();
                let body = engine_body(shared, known, started);
                respond(out, &Response { id, body });
                return;
            }
            // A forced-panic drill must never dedup against (or poison)
            // the real run for the same spec: distinct flight key. It is
            // also never journaled — replaying a drill after a crash
            // would be a self-inflicted crash loop.
            let journal_as = (!run.panic).then(|| Request {
                id: None,
                cmd: Command::Run(protocol::RunRequest {
                    deadline_ms: None,
                    ..run.clone()
                }),
            });
            let flight_key = if run.panic {
                format!("panic|{key}")
            } else {
                key
            };
            let job = Job {
                kind: JobKind::Run {
                    spec: Box::new(spec),
                    forced_panic: run.panic,
                },
                deadline,
            };
            enqueue(
                shared,
                flight_key,
                job,
                Waiter {
                    id,
                    out: Arc::clone(out),
                },
                journal_as,
            );
        }
    }
}

/// Refuses a request that arrived during a drain; `true` when it did.
fn refuse_if_draining(shared: &Shared, out: &Arc<Mutex<UnixStream>>, id: Option<u64>) -> bool {
    let draining = shared.draining.load(Ordering::SeqCst);
    if draining {
        respond(
            out,
            &Response::error(id, ErrorKind::Draining, "server is draining"),
        );
    }
    draining
}

/// Admission control for work that has to execute: single-flight join,
/// else bounded-queue insert, else shed. An admitted job with a
/// `journal_as` request is journaled (fsync'd) *before* it becomes
/// visible to workers, so the crash-time pending set always covers every
/// job a worker might have started — *journaled ⇔ admitted to the queue*.
/// Requests the engine could answer on arrival never get here (see
/// [`handle_line`]), so `queue_limit` bounds computations waiting for a
/// worker, not requests.
fn enqueue(
    shared: &Arc<Shared>,
    key: String,
    job: Job,
    waiter: Waiter,
    journal_as: Option<Request>,
) {
    if refuse_if_draining(shared, &waiter.out, waiter.id) {
        return;
    }
    let mut state = shared.state.lock().expect("server state poisoned");
    if let Some(flight) = state.flights.get_mut(&key) {
        flight.waiters.push(waiter);
        shared.counters.dedup_hits.fetch_add(1, Ordering::SeqCst);
        telemetry::counter("server.dedup_hits").inc();
        return;
    }
    if state.queue.len() >= shared.config.queue_limit {
        shared.counters.shed.fetch_add(1, Ordering::SeqCst);
        telemetry::counter("server.shed").inc();
        drop(state);
        respond(
            &waiter.out,
            &Response::error(
                waiter.id,
                ErrorKind::Overloaded,
                &format!(
                    "queue full ({} distinct jobs waiting); retry later",
                    shared.config.queue_limit
                ),
            ),
        );
        return;
    }
    if let (Some(journal), Some(request)) = (&shared.journal, &journal_as) {
        let appending = Instant::now();
        let appended = journal.append_accept(&key, request);
        observe_micros("server.journal_append_us", appending);
        if let Err(e) = appended {
            // Journaling is best-effort: the request still runs, only its
            // crash-recoverability is degraded. Surface it loudly.
            telemetry::counter("server.journal_errors").inc();
            telemetry::emit(|| telemetry::schema::warning_line("journal", &e.to_string()));
        }
        failpoint::abort_if("server.journal.post_append_abort");
    }
    state.flights.insert(
        key.clone(),
        Flight {
            job,
            waiters: vec![waiter],
            admitted: Instant::now(),
        },
    );
    state.queue.push_back(key);
    telemetry::gauge("server.queue_depth").set(state.queue.len() as i64);
    drop(state);
    shared.job_ready.notify_one();
}

/// Executes queued jobs until drained. During a drain the queue is still
/// emptied — each remaining job is answered with a `draining` error
/// instead of running — so no waiter is ever left hanging.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let key = {
            let mut state = shared.state.lock().expect("server state poisoned");
            loop {
                if let Some(key) = state.queue.pop_front() {
                    telemetry::gauge("server.queue_depth").set(state.queue.len() as i64);
                    break key;
                }
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                state = shared.job_ready.wait(state).expect("server state poisoned");
            }
        };
        let job = shared
            .state
            .lock()
            .expect("server state poisoned")
            .flights
            .get(&key)
            .map(|flight| (flight.job.clone(), flight.admitted));
        let Some((job, admitted)) = job else { continue };
        observe_micros("server.queue_wait_us", admitted);
        let body = execute_job(shared, &job);
        let flight = shared
            .state
            .lock()
            .expect("server state poisoned")
            .flights
            .remove(&key);
        if let Some(flight) = flight {
            for waiter in flight.waiters {
                respond(
                    &waiter.out,
                    &Response {
                        id: waiter.id,
                        body: body.clone(),
                    },
                );
            }
        }
        // Terminal outcomes discharge the journal entry. Deadline and
        // draining answers deliberately do not: their work is parked (or
        // never ran), and the next daemon instance owes it — restart
        // recovery finishes what this process could not.
        let terminal = match &body {
            ResponseBody::Run(_) | ResponseBody::Figure { .. } => true,
            ResponseBody::Error { kind, .. } => matches!(
                kind,
                ErrorKind::Panic | ErrorKind::Failed | ErrorKind::BadRequest
            ),
            _ => false,
        };
        if terminal {
            if let Some(journal) = &shared.journal {
                let appending = Instant::now();
                let appended = journal.append_done(&key);
                observe_micros("server.journal_append_us", appending);
                if appended.is_err() {
                    telemetry::counter("server.journal_errors").inc();
                }
            }
        }
    }
}

/// Runs one job to a response body (shared by every waiter).
fn execute_job(shared: &Arc<Shared>, job: &Job) -> ResponseBody {
    let _span = telemetry::span("phase.server_request");
    // The chaos drill's SIGKILL-equivalent: die the instant a worker
    // picks up a request, after it was journaled.
    failpoint::abort_if("server.request.abort");
    if shared.draining.load(Ordering::SeqCst) {
        return ResponseBody::Error {
            kind: ErrorKind::Draining,
            message: "server drained before this request ran".into(),
        };
    }
    if job.deadline.is_some_and(|d| Instant::now() >= d) {
        shared
            .counters
            .deadline_misses
            .fetch_add(1, Ordering::SeqCst);
        telemetry::counter("server.deadline_misses").inc();
        return ResponseBody::Error {
            kind: ErrorKind::Deadline,
            message: "deadline expired while queued".into(),
        };
    }
    match &job.kind {
        JobKind::Run { spec, forced_panic } => {
            if *forced_panic {
                // The drill deliberately bypasses the engine: routing it
                // through `try_trace_for` would poison the engine's
                // failed-key map for a spec other clients legitimately
                // want.
                let result = supervisor::run_supervised(None, "server.request_drill", || {
                    panic!("forced panic (request drill)")
                });
                let reason = result.expect_err("the drill always panics");
                shared
                    .counters
                    .request_panics
                    .fetch_add(1, Ordering::SeqCst);
                telemetry::counter("server.request_panics").inc();
                return ResponseBody::Error {
                    kind: ErrorKind::Panic,
                    message: reason,
                };
            }
            let started = Instant::now();
            let deadline = job.deadline;
            let stop = move || {
                shared.draining.load(Ordering::SeqCst)
                    || deadline.is_some_and(|d| Instant::now() >= d)
            };
            match shared.engine.try_trace_cancellable(spec, Some(&stop)) {
                Ok(CancellableRun::Done { trace, source }) => {
                    engine_body(shared, Ok((trace, source)), started)
                }
                Ok(CancellableRun::Cancelled) => {
                    if shared.draining.load(Ordering::SeqCst) {
                        ResponseBody::Error {
                            kind: ErrorKind::Draining,
                            message: "drained mid-run; progress parked for resume".into(),
                        }
                    } else {
                        shared
                            .counters
                            .deadline_misses
                            .fetch_add(1, Ordering::SeqCst);
                        telemetry::counter("server.deadline_misses").inc();
                        ResponseBody::Error {
                            kind: ErrorKind::Deadline,
                            message: format!(
                                "deadline exceeded after {:.0} ms; progress parked for resume",
                                started.elapsed().as_secs_f64() * 1e3
                            ),
                        }
                    }
                }
                Err(reason) => engine_body(shared, Err(reason), started),
            }
        }
        JobKind::Figure { name } => {
            let started = Instant::now();
            let (scale, engine) = (shared.config.scale, &shared.engine);
            match figures::run_figure(name, scale, engine, &mut String::new()) {
                Ok(()) => ResponseBody::Figure {
                    name: name.clone(),
                    wall_ms: started.elapsed().as_secs_f64() * 1e3,
                },
                Err(e) => {
                    let kind = match e {
                        // `handle_line` refuses these where the request is
                        // read, before a queue slot and a journal record.
                        FigureError::Unknown(_) => ErrorKind::BadRequest,
                        FigureError::Io(_) => ErrorKind::Failed,
                        FigureError::Panicked(_) => {
                            shared
                                .counters
                                .request_panics
                                .fetch_add(1, Ordering::SeqCst);
                            telemetry::counter("server.request_panics").inc();
                            ErrorKind::Panic
                        }
                    };
                    ResponseBody::Error {
                        kind,
                        message: e.to_string(),
                    }
                }
            }
        }
    }
}

/// The response body for a run the engine resolved (a trace and where it
/// came from) or gave up on (its terminal failure reason) — one mapping
/// for the worker that executed the run and the connection thread that
/// found the outcome already known. `started` is when this request began
/// being served.
fn engine_body(shared: &Shared, outcome: Known, started: Instant) -> ResponseBody {
    match outcome {
        Ok((trace, source)) => ResponseBody::Run(RunStats {
            source: source.label().to_string(),
            rounds: trace.rounds,
            points: trace.points.len() as u64,
            final_loss: f64::from(trace.final_loss()),
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
        }),
        Err(reason) => {
            let kind = if reason.contains("panic") {
                shared
                    .counters
                    .request_panics
                    .fetch_add(1, Ordering::SeqCst);
                telemetry::counter("server.request_panics").inc();
                ErrorKind::Panic
            } else {
                ErrorKind::Failed
            };
            ResponseBody::Error {
                kind,
                message: reason,
            }
        }
    }
}

/// Records the microseconds elapsed since `since` in histogram `name`.
fn observe_micros(name: &'static str, since: Instant) {
    telemetry::histogram(name).observe(since.elapsed().as_secs_f64() * 1e6);
}

/// Builds the `stats` response from live state.
fn stats_body(shared: &Arc<Shared>) -> StatsBody {
    let queue_depth = shared
        .state
        .lock()
        .expect("server state poisoned")
        .queue
        .len() as u64;
    StatsBody {
        requests: shared.counters.requests.load(Ordering::SeqCst),
        shed: shared.counters.shed.load(Ordering::SeqCst),
        dedup_hits: shared.counters.dedup_hits.load(Ordering::SeqCst),
        deadline_misses: shared.counters.deadline_misses.load(Ordering::SeqCst),
        request_panics: shared.counters.request_panics.load(Ordering::SeqCst),
        unique_runs: shared.engine.unique_runs() as u64,
        queue_depth,
        draining: shared.draining.load(Ordering::SeqCst),
        recovered_runs: shared.config.recovery.recovered_runs,
        journal_replays: shared.config.recovery.journal_replays,
        gc_orphans: shared.counters.gc_orphans.load(Ordering::SeqCst),
    }
}

/// Outcome of one [`recover`] pass.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Pending accept records found in the journal (work a previous
    /// instance accepted but never completed).
    pub replayed: u64,
    /// Interrupted scenario runs completed by this pass.
    pub recovered_runs: u64,
    /// Of those, runs that continued a parked mid-run checkpoint instead
    /// of recomputing from round zero.
    pub resumed_runs: u64,
    /// Interrupted figure renders completed by this pass.
    pub recovered_figures: u64,
    /// Whether the journal ended in a torn record — the normal signature
    /// of a crash mid-append, discarded after the valid prefix.
    pub torn_tail: bool,
    /// Jobs that could not be recovered: `(key, reason)`.
    pub failed: Vec<(String, String)>,
}

impl RecoveryReport {
    /// Folds this report (plus the startup GC's reclaim count) into the
    /// counters a [`ServerConfig`] carries into `stats`.
    pub fn counters(&self, gc_orphans: u64) -> RecoveryCounters {
        RecoveryCounters {
            recovered_runs: self.recovered_runs + self.recovered_figures,
            journal_replays: self.replayed,
            gc_orphans,
        }
    }
}

/// Replays the crash-consistency journal at `journal_path` and completes
/// every pending job against `engine` — the daemon calls this after
/// acquiring the store lock and *before* binding the socket, so a
/// restarted service already owns the results its predecessor promised.
///
/// Runs resume from parked checkpoints when the store holds one
/// (bit-identical by the resume contract) and recompute deterministically
/// otherwise; figures re-render, overwriting any partially-written CSVs
/// with complete byte-identical ones. The journal is discarded afterwards
/// — recovered work lives in the store now, and the server's own journal
/// starts a fresh epoch.
pub fn recover(journal_path: &Path, engine: &SweepEngine, scale: Scale) -> RecoveryReport {
    let replay = Journal::replay(journal_path);
    let mut report = RecoveryReport {
        replayed: replay.pending.len() as u64,
        torn_tail: replay.torn_tail,
        ..RecoveryReport::default()
    };
    for (key, request) in replay.pending {
        match request.cmd {
            Command::Run(run) => match run.sweep_spec(scale) {
                Ok(spec) => match engine.try_trace_cancellable(&spec, None) {
                    Ok(CancellableRun::Done { source, .. }) => {
                        report.recovered_runs += 1;
                        if source == TraceSource::Resumed {
                            report.resumed_runs += 1;
                        }
                    }
                    Ok(CancellableRun::Cancelled) => {
                        // Unreachable without a stop predicate; recorded
                        // defensively rather than silently dropped.
                        report
                            .failed
                            .push((key, "cancelled during recovery".into()));
                    }
                    Err(reason) => report.failed.push((key, reason)),
                },
                Err(reason) => report.failed.push((key, reason)),
            },
            Command::Figure { name } => {
                match figures::run_figure(&name, scale, engine, &mut String::new()) {
                    Ok(()) => report.recovered_figures += 1,
                    Err(e) => report.failed.push((key, e.to_string())),
                }
            }
            // Non-job commands never carry accept records; a foreign one
            // in the journal is ignorable debris.
            _ => {}
        }
    }
    telemetry::counter("server.journal_replays").add(report.replayed);
    telemetry::counter("server.recovered_runs")
        .add(report.recovered_runs + report.recovered_figures);
    journal::discard(journal_path);
    report
}

/// Writes one response line; errors mean the client is gone and are
/// dropped (the server never fails because a client did).
fn respond(out: &Arc<Mutex<UnixStream>>, response: &Response) {
    let line = protocol::encode_response(response);
    let mut stream = out.lock().expect("response stream poisoned");
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.write_all(b"\n");
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_line_capped_handles_split_and_oversize() {
        let mut input: Vec<u8> = Vec::new();
        input.extend_from_slice(b"short line\n");
        input.extend_from_slice(&[b'a'; 64]);
        input.push(b'\n');
        input.extend_from_slice(b"after\n");
        input.extend_from_slice(b"trailing-without-newline");
        let mut reader = BufReader::with_capacity(7, io::Cursor::new(input));

        let (line, truncated) = read_line_capped(&mut reader, 32).unwrap().unwrap();
        assert_eq!(line, b"short line");
        assert!(!truncated);

        let (line, truncated) = read_line_capped(&mut reader, 32).unwrap().unwrap();
        assert!(truncated, "64 bytes over a 32-byte cap must truncate");
        assert!(line.is_empty());

        // Framing survives the oversized line.
        let (line, truncated) = read_line_capped(&mut reader, 32).unwrap().unwrap();
        assert_eq!(line, b"after");
        assert!(!truncated);

        // EOF with pending bytes yields them as a final line.
        let (line, _) = read_line_capped(&mut reader, 32).unwrap().unwrap();
        assert_eq!(line, b"trailing-without-newline");
        assert!(read_line_capped(&mut reader, 32).unwrap().is_none());
    }
}
