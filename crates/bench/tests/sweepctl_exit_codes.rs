//! The `sweepctl` exit-code contract, exercised against a real in-process
//! sweep service and the real binary. CI chaos drills branch on these
//! codes, so each one is pinned here:
//!
//! | code | meaning                                        |
//! |------|------------------------------------------------|
//! | 0    | ok response                                    |
//! | 1    | terminal error (`failed`, `panic`, `bad_request`) |
//! | 2    | usage error / connection failure               |
//! | 3    | `overloaded` (after any retries)               |
//! | 4    | `draining` (after any retries)                 |
//! | 5    | `deadline` (run parked resumably)              |

use adacomm_bench::server::protocol::{self, Command, Request, RunRequest};
use adacomm_bench::server::{Server, ServerConfig, ServerHandle};
use adacomm_bench::sweep::SweepEngine;
use adacomm_bench::{RunStore, Scale};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::Command as Proc;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("adacomm-ctl-{}-{tag}.sock", std::process::id()))
}

fn start(tag: &str, queue_limit: usize, engine: SweepEngine) -> ServerHandle {
    let path = socket_path(tag);
    let _ = std::fs::remove_file(&path);
    let config = ServerConfig {
        socket_path: path,
        workers: 1,
        queue_limit,
        scale: Scale::Quick,
        ..ServerConfig::default()
    };
    Server::start(config, Arc::new(engine)).expect("start server")
}

/// Runs the real `sweepctl` binary against `socket` and returns
/// `(exit code, stdout, stderr)`.
fn sweepctl(socket: &Path, args: &[&str]) -> (i32, String, String) {
    let output = Proc::new(env!("CARGO_BIN_EXE_sweepctl"))
        .arg("--socket")
        .arg(socket)
        .args(args)
        .output()
        .expect("run sweepctl");
    (
        output.status.code().expect("sweepctl exit code"),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn ok_response_exits_zero() {
    let handle = start("ok", 8, SweepEngine::default());
    let (code, stdout, stderr) = sweepctl(handle.socket_path(), &["ping"]);
    assert_eq!(code, 0, "stdout: {stdout} stderr: {stderr}");
    assert!(stdout.contains("pong"), "stdout: {stdout}");
    handle.join();
}

#[test]
fn terminal_panic_exits_one() {
    let handle = start("panic", 8, SweepEngine::default());
    let (code, stdout, _) = sweepctl(
        handle.socket_path(),
        &["run", "concept", "--budget", "6", "2", "--panic"],
    );
    assert_eq!(code, 1, "stdout: {stdout}");
    assert!(stdout.contains("error [panic]"), "stdout: {stdout}");
    handle.join();
}

#[test]
fn usage_and_connection_failures_exit_two() {
    // Usage error: no daemon involved at all.
    let (code, _, stderr) = sweepctl(Path::new("/nonexistent.sock"), &["frobnicate"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("unknown command"), "stderr: {stderr}");

    // Connection failure, with retries: still 2 once they are exhausted,
    // and the retry attempts are visible on stderr.
    let (code, _, stderr) = sweepctl(
        Path::new("/nonexistent.sock"),
        &["--retries", "2", "--retry-base-ms", "1", "ping"],
    );
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("retrying"), "stderr: {stderr}");
    assert!(stderr.contains("cannot connect"), "stderr: {stderr}");
}

#[test]
fn overloaded_exits_three() {
    // queue_limit 0: every distinct job sheds immediately.
    let handle = start("shed", 0, SweepEngine::default());
    let (code, stdout, _) = sweepctl(
        handle.socket_path(),
        &["run", "concept", "--budget", "6", "2"],
    );
    assert_eq!(code, 3, "stdout: {stdout}");
    assert!(stdout.contains("error [overloaded]"), "stdout: {stdout}");
    handle.join();
}

#[test]
fn draining_exits_four() {
    let handle = start("drain", 8, SweepEngine::default());
    let path = handle.socket_path().to_path_buf();

    // Pin the single worker with a run only the drain ends, over a raw
    // connection, so the client's request stays queued when the drain
    // begins.
    let pin = UnixStream::connect(&path).expect("connect pin");
    let request = Request {
        id: Some(1),
        cmd: Command::Run(RunRequest {
            scenario: "concept".into(),
            scheduler: "fixed".into(),
            tau: 4,
            budget: Some((100_000.0, 10.0)),
            deadline_ms: None,
            panic: false,
        }),
    };
    let mut writer = &pin;
    writer
        .write_all(protocol::encode_request(&request).as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .expect("send pin request");

    // The client (distinct budget => distinct key) queues behind it.
    let client =
        std::thread::spawn(move || sweepctl(&path, &["run", "concept", "--budget", "7", "2"]));
    // Both request lines must have been read: a queue depth of one alone
    // can still be the pin, not yet picked up by the worker, and a drain
    // then can reach the server before the client's request does.
    let deadline = Instant::now() + Duration::from_secs(30);
    while {
        let stats = handle.stats();
        stats.requests < 2 || stats.queue_depth == 0
    } {
        assert!(Instant::now() < deadline, "client request never queued");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Drain: the queued request must be answered `draining`, exit 4.
    handle.initiate_drain();
    let (code, stdout, _) = client.join().expect("client thread");
    assert_eq!(code, 4, "stdout: {stdout}");
    assert!(stdout.contains("error [draining]"), "stdout: {stdout}");

    // The pinned connection gets a drain-class answer too, then the
    // server joins cleanly.
    let mut reply = String::new();
    let _ = BufReader::new(&pin).read_line(&mut reply);
    handle.join();
}

#[test]
fn deadline_exits_five_and_rerequest_resumes() {
    let store_dir =
        std::env::temp_dir().join(format!("adacomm-ctl-{}-deadline-store", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let engine = SweepEngine::default().with_store(RunStore::new(&store_dir));
    let handle = start("deadline", 8, engine);

    let (code, stdout, _) = sweepctl(
        handle.socket_path(),
        &[
            "run",
            "concept",
            "--budget",
            "5000",
            "5",
            "--deadline-ms",
            "150",
        ],
    );
    assert_eq!(code, 5, "stdout: {stdout}");
    assert!(stdout.contains("error [deadline]"), "stdout: {stdout}");

    // The contract's promise behind exit 5: re-requesting resumes the
    // parked progress and completes with exit 0.
    let (code, stdout, _) = sweepctl(
        handle.socket_path(),
        &["run", "concept", "--budget", "5000", "5"],
    );
    assert_eq!(code, 0, "stdout: {stdout}");
    assert!(stdout.contains("source resumed"), "stdout: {stdout}");

    handle.join();
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn gc_verb_reports_reclaims() {
    let store_dir =
        std::env::temp_dir().join(format!("adacomm-ctl-{}-gc-store", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    std::fs::create_dir_all(&store_dir).expect("mk store dir");
    std::fs::write(store_dir.join("junk.tmp.123"), b"debris").expect("plant orphan");
    let engine = SweepEngine::default().with_store(RunStore::new(&store_dir));
    let handle = start("gc", 8, engine);

    let (code, stdout, _) = sweepctl(handle.socket_path(), &["gc"]);
    assert_eq!(code, 0, "stdout: {stdout}");
    assert!(
        stdout.contains("1 temp files"),
        "orphan must be reclaimed: {stdout}"
    );

    handle.join();
    let _ = std::fs::remove_dir_all(&store_dir);
}
