//! The two drills that need a real `sweepd` *process*: a SIGTERM that
//! lands mid-burst, and a death between a request's journal append and
//! its execution. The rest of the service contract is asserted in-process
//! (`sweep_service.rs`, `crash_recovery.rs`); the real `kill -9` is the
//! CI chaos drill. Each drill's daemons run in a scratch directory of
//! their own — socket, run store (`results/smoke/cache`), trace — so the
//! drills share nothing with each other or with the repository.

use adacomm_bench::server::protocol::{
    encode_request, parse_response, Command, ErrorKind, Request, Response, ResponseBody,
    RunRequest, StatsBody,
};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command as Proc, Stdio};
use std::time::{Duration, Instant};

/// Upper bound on any single wait; a daemon that hangs fails the drill
/// here instead of hanging `cargo test`.
const PATIENCE: Duration = Duration::from_secs(60);

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adacomm-sweepd-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// `sweepd --smoke` with two workers and a queue of eight, rooted in
/// `dir`: without cargo's variable the store resolves under the working
/// directory.
fn sweepd(dir: &Path) -> Proc {
    let mut cmd = Proc::new(env!("CARGO_BIN_EXE_sweepd"));
    cmd.args(["--smoke", "--workers", "2", "--queue-limit", "8"])
        .args(["--socket", "sweepd.sock"])
        .current_dir(dir)
        .env_remove("CARGO_MANIFEST_DIR")
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    cmd
}

/// A spawned daemon; a drill that fails half-way must not leak it.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `cmd` and returns once its socket accepts: recovery and the
/// bind are behind it.
fn serving(mut cmd: Proc, dir: &Path) -> Daemon {
    let mut child = Daemon(cmd.spawn().expect("spawn sweepd"));
    let deadline = Instant::now() + PATIENCE;
    while UnixStream::connect(dir.join("sweepd.sock")).is_err() {
        let gone = child.0.try_wait().expect("poll sweepd");
        assert!(gone.is_none(), "sweepd exited before serving: {gone:?}");
        assert!(Instant::now() < deadline, "sweepd never bound its socket");
        std::thread::sleep(Duration::from_millis(10));
    }
    child
}

/// The daemon's exit code (`None` when a signal killed it).
fn exit_code(mut child: Daemon) -> Option<i32> {
    let deadline = Instant::now() + PATIENCE;
    loop {
        if let Some(status) = child.0.try_wait().expect("poll sweepd") {
            return status.code();
        }
        assert!(Instant::now() < deadline, "sweepd still running");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Sends one request on a fresh connection and leaves the reply unread.
fn send(dir: &Path, id: u64, cmd: Command) -> UnixStream {
    let mut stream = UnixStream::connect(dir.join("sweepd.sock")).expect("connect to sweepd");
    stream
        .set_read_timeout(Some(PATIENCE))
        .expect("set read timeout");
    let line = encode_request(&Request { id: Some(id), cmd }) + "\n";
    stream.write_all(line.as_bytes()).expect("send request");
    stream
}

/// The reply on `stream`, or `None` if the daemon closed it unanswered.
/// A read that times out is the hang the drills exist to catch.
fn reply(stream: &UnixStream) -> Option<Response> {
    let mut line = String::new();
    let read = BufReader::new(stream).read_line(&mut line);
    match read.expect("a connection hung without a reply or EOF") {
        0 => None,
        _ => Some(parse_response(line.trim()).expect("well-formed response line")),
    }
}

fn call(dir: &Path, cmd: Command) -> Option<ResponseBody> {
    reply(&send(dir, 0, cmd)).map(|response| response.body)
}

fn stats(dir: &Path) -> StatsBody {
    match call(dir, Command::Stats) {
        Some(ResponseBody::Stats(stats)) => stats,
        other => panic!("expected stats, got {other:?}"),
    }
}

/// A concept run at `tau = 1`: the budget is the round count, so 6 is
/// instant and 100 000 outlives the drill (only a drain ends it).
fn run(budget: f64, panic: bool) -> Command {
    Command::Run(RunRequest {
        scenario: "concept".into(),
        scheduler: "fixed".into(),
        tau: 1,
        budget: Some((budget, budget)),
        deadline_ms: None,
        panic,
    })
}

/// SIGTERM while both workers are busy and the queue is full: the daemon
/// drains — every connection is answered or closed, none hangs — exits 0,
/// and its drain writes the service profile, panic drill included.
#[test]
fn sigterm_mid_burst_drains_and_exits_zero() {
    let dir = scratch("term");
    let mut cmd = sweepd(&dir);
    if cfg!(feature = "trace") {
        cmd.args(["--trace", "trace"]);
    }
    let child = serving(cmd, &dir);

    match call(&dir, run(6.0, true)) {
        Some(ResponseBody::Error { kind, .. }) => assert_eq!(kind, ErrorKind::Panic),
        other => panic!("expected a panic error, got {other:?}"),
    }

    // Twelve distinct endless runs: two execute, eight queue, two shed.
    let burst: Vec<UnixStream> = (0..12)
        .map(|i| send(&dir, i, run(100_000.0 + i as f64, false)))
        .collect();
    let deadline = Instant::now() + PATIENCE;
    while stats(&dir).queue_depth < 8 {
        assert!(Instant::now() < deadline, "the queue never filled");
        std::thread::sleep(Duration::from_millis(10));
    }
    let killed = Proc::new("kill")
        .args(["-TERM", &child.0.id().to_string()])
        .status()
        .expect("run kill");
    assert!(killed.success(), "kill -TERM failed");

    assert_eq!(exit_code(child), Some(0), "SIGTERM must drain to 0");
    let answered = burst.iter().filter_map(reply).count();
    assert!(answered >= 8, "queued waiters are answered: {answered}");

    #[cfg(feature = "trace")]
    {
        use telemetry::schema::{parse_line, Record};
        let profile = std::fs::read_to_string(dir.join("trace/sweepd.jsonl"))
            .expect("the drain writes the service profile");
        let panics = profile.lines().find_map(|line| match parse_line(line) {
            Ok(Record::Counter { name, value }) if name == "server.request_panics" => Some(value),
            _ => None,
        });
        assert!(panics >= Some(1.0), "server.request_panics: {panics:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A daemon that dies right after journaling an accept loses nothing: its
/// successor on the same socket replays the journal, finishes the run,
/// sweeps the debris, and serves a re-request from the recovered state.
#[cfg(feature = "failpoints")]
#[test]
fn abort_after_journal_append_is_replayed_by_the_successor() {
    let dir = scratch("abort");
    let mut armed = sweepd(&dir);
    armed.env("ADACOMM_FAILPOINTS", "server.journal.post_append_abort=1");
    let child = serving(armed, &dir);
    let fate = call(&dir, run(6.0, false));
    assert!(fate.is_none(), "the armed daemon dies unanswered: {fate:?}");
    assert_ne!(exit_code(child), Some(0), "abort, not a clean exit");

    let store = dir.join("results/smoke/cache");
    std::fs::write(store.join("junk.tmp.999"), b"debris").expect("plant an orphan temp");

    let child = serving(sweepd(&dir), &dir);
    let recovered = stats(&dir);
    assert!(recovered.journal_replays >= 1, "{recovered:?}");
    assert!(recovered.recovered_runs >= 1, "{recovered:?}");
    assert!(recovered.gc_orphans >= 1, "{recovered:?}");
    match call(&dir, run(6.0, false)) {
        Some(ResponseBody::Run(run)) => assert_ne!(run.source, "computed"),
        other => panic!("expected the recovered run, got {other:?}"),
    }
    let debris = std::fs::read_dir(&store)
        .expect("read the store")
        .flatten()
        .filter(|entry| entry.file_name().to_string_lossy().contains(".tmp."))
        .count();
    assert_eq!(debris, 0, "no temp file survives recovery");

    let bye = call(&dir, Command::Shutdown);
    assert!(matches!(bye, Some(ResponseBody::ShuttingDown)), "{bye:?}");
    assert_eq!(exit_code(child), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}
