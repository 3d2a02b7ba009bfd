//! Journaled crash recovery, in process: accepts written by a (simulated)
//! killed daemon are replayed by `server::recover`, the interrupted runs
//! complete — resuming parked checkpoints bit-identically where they
//! exist — and the journal is discarded so the next epoch starts clean.
//! The real-process versions of this contract run in `sweepd_process.rs`
//! (abort after the journal append) and the CI chaos drill (`kill -9`);
//! this file pins the library-level semantics deterministically.

use adacomm_bench::server::journal::{self, Journal};
use adacomm_bench::server::protocol::{self, Command, Request, Response, ResponseBody, RunRequest};
use adacomm_bench::server::{self, Server, ServerConfig};
use adacomm_bench::supervisor::SupervisorPolicy;
use adacomm_bench::sweep::SweepEngine;
use adacomm_bench::{CancellableRun, LoadOutcome, RunStore, Scale};
use pasgd_sim::RunTrace;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn dir_for(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("crash_recovery_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_request(tau: u64, budget: f64) -> RunRequest {
    RunRequest {
        scenario: "concept".into(),
        scheduler: "fixed".into(),
        tau,
        budget: Some((budget, budget / 4.0)),
        deadline_ms: None,
        panic: false,
    }
}

fn request(run: RunRequest) -> Request {
    Request {
        id: None,
        cmd: Command::Run(run),
    }
}

fn trace_bits(t: &RunTrace) -> Vec<u64> {
    let mut v = vec![t.peak_payload_bytes.to_bits(), t.rounds];
    for p in &t.points {
        v.extend([
            p.clock.to_bits(),
            p.iterations,
            u64::from(p.train_loss.to_bits()),
        ]);
    }
    v
}

/// A journal holding accepts a dead daemon never discharged: recovery
/// completes each one into the store, reports the counts, and discards
/// the journal so a second pass finds nothing.
#[test]
fn recover_replays_pending_and_discards_journal() {
    let dir = dir_for("replay");
    let journal_path = dir.join("journal.log");
    let scale = Scale::Quick;

    let (run_a, run_b, run_done) = (
        run_request(2, 20.0),
        run_request(4, 20.0),
        run_request(8, 20.0),
    );
    let key = |run: &RunRequest| run.sweep_spec(scale).expect("valid spec").key();
    {
        let journal = Journal::open(&journal_path).expect("open journal");
        journal
            .append_accept(&key(&run_a), &request(run_a.clone()))
            .unwrap();
        journal
            .append_accept(&key(&run_b), &request(run_b.clone()))
            .unwrap();
        journal
            .append_accept(&key(&run_done), &request(run_done.clone()))
            .unwrap();
        journal.append_done(&key(&run_done)).unwrap();
    }

    let engine = SweepEngine::with_parallelism(false).with_store(RunStore::new(&dir));
    let report = server::recover(&journal_path, &engine, scale);
    assert_eq!(report.replayed, 2, "one accept was discharged by its done");
    assert_eq!(report.recovered_runs, 2);
    assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
    assert!(!journal_path.exists(), "recovery must discard the journal");

    // The recovered work is durable: both entries load from the store.
    let store = RunStore::new(&dir);
    for run in [&run_a, &run_b] {
        assert!(
            matches!(store.load(&key(run)), LoadOutcome::Hit(_)),
            "recovered run must be in the store"
        );
    }

    // A second pass over the discarded journal is a no-op.
    let again = server::recover(&journal_path, &engine, scale);
    assert_eq!(again.replayed, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovery of a run whose progress was parked mid-flight resumes the
/// checkpoint (reported as `resumed`) and the result is bit-identical to
/// an uninterrupted run of the same spec in a pristine store.
#[test]
fn recover_resumes_parked_progress_bit_identically() {
    let scale = Scale::Quick;
    let run = run_request(3, 40.0);
    let spec = run.sweep_spec(scale).expect("valid spec");
    let key = spec.key();

    // Golden: the uninterrupted run.
    let golden_dir = dir_for("resume_golden");
    let golden_engine = SweepEngine::with_parallelism(false).with_store(RunStore::new(&golden_dir));
    let golden = golden_engine.run(std::slice::from_ref(&spec)).remove(0);

    // Crash site: the run is cancelled mid-flight, parking a checkpoint —
    // the state a SIGKILL between slices leaves behind — and the accept
    // is still in the journal.
    let dir = dir_for("resume");
    let journal_path = dir.join("journal.log");
    let engine = SweepEngine::with_parallelism(false).with_store(RunStore::new(&dir));
    match engine.try_trace_cancellable(&spec, Some(&|| true)) {
        Ok(CancellableRun::Cancelled) => {}
        other => panic!("expected a cancelled run, got {other:?}"),
    }
    Journal::open(&journal_path)
        .expect("open journal")
        .append_accept(&key, &request(run))
        .unwrap();

    // A fresh engine (fresh process after the kill) recovers it.
    let fresh = SweepEngine::with_parallelism(false).with_store(RunStore::new(&dir));
    let report = server::recover(&journal_path, &fresh, scale);
    assert_eq!(report.replayed, 1);
    assert_eq!(report.recovered_runs, 1);
    assert_eq!(report.resumed_runs, 1, "the parked checkpoint must resume");

    match RunStore::new(&dir).load(&key) {
        LoadOutcome::Hit(trace) => assert_eq!(
            trace_bits(&trace),
            trace_bits(&golden),
            "resumed recovery must be bit-identical to the uninterrupted run"
        ),
        other => panic!("recovered run must be stored, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&golden_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pending `figure` accepts replay through `figures::run_figure`: a healthy
/// figure is recovered, and one that is unknown to this build's registry
/// or whose body panics is reported as failed with the reason — never a
/// crashed recovery pass.
#[test]
fn recover_reports_each_figure_outcome() {
    adacomm_bench::report::set_results_subdir("tests");
    let dir = dir_for("figures");
    let journal_path = dir.join("journal.log");
    {
        let journal = Journal::open(&journal_path).expect("open journal");
        for name in ["fig04_speedup", "fig99_removed", "fig01_concept"] {
            let accept = Request {
                id: None,
                cmd: Command::Figure { name: name.into() },
            };
            journal
                .append_accept(&format!("figure|{name}"), &accept)
                .unwrap();
        }
    }
    // No run meets a zero deadline, so the one figure that asks the engine
    // for a run panics with the supervisor's reason.
    let doomed = SweepEngine::with_parallelism(false).with_supervisor(SupervisorPolicy {
        deadline: Some(std::time::Duration::ZERO),
        ..SupervisorPolicy::default()
    });
    let mut report = server::recover(&journal_path, &doomed, Scale::Smoke);
    assert_eq!(report.replayed, 3);
    assert_eq!(report.recovered_figures, 1, "fig04 is analytic: healthy");
    report.failed.sort();
    let [(panicked_key, panicked), (unknown_key, unknown)] = &report.failed[..] else {
        panic!("expected two failed figures, got {:?}", report.failed);
    };
    assert_eq!(panicked_key, "figure|fig01_concept");
    assert!(panicked.contains("deadline exceeded"), "{panicked}");
    assert_eq!(unknown_key, "figure|fig99_removed");
    assert!(unknown.contains("unknown figure"), "{unknown}");
    assert!(!journal_path.exists(), "recovery must discard the journal");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The counters a recovery pass reports surface verbatim through a live
/// server's `stats`, and a journaled daemon discharges completed work:
/// after a run completes, its journal has no pending records — while a
/// panic drill never enters the journal at all.
#[test]
fn server_journals_accepts_and_discharges_completions() {
    let dir = dir_for("server");
    let journal_path = dir.join("journal.log");
    let socket = std::env::temp_dir().join(format!(
        "adacomm-recovery-{}-server.sock",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&socket);
    let engine = SweepEngine::default().with_store(RunStore::new(&dir));
    let config = ServerConfig {
        socket_path: socket.clone(),
        workers: 1,
        queue_limit: 8,
        scale: Scale::Quick,
        journal_path: Some(journal_path.clone()),
        recovery: server::RecoveryCounters {
            recovered_runs: 7,
            journal_replays: 5,
            gc_orphans: 3,
        },
        ..ServerConfig::default()
    };
    let handle = Server::start(config, Arc::new(engine)).expect("start server");

    let stream = UnixStream::connect(&socket).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut call = |request: &Request| -> Response {
        let mut writer = &stream;
        writer
            .write_all(protocol::encode_request(request).as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .expect("send");
        let mut line = String::new();
        reader.read_line(&mut line).expect("recv");
        protocol::parse_response(line.trim()).expect("parse response")
    };

    // A completed run leaves records but zero pending entries.
    let response = call(&Request {
        id: Some(1),
        cmd: Command::Run(run_request(2, 10.0)),
    });
    assert!(matches!(response.body, ResponseBody::Run(_)));

    // A panic drill must never be journaled: replaying it after a crash
    // would crash-loop the daemon.
    let response = call(&Request {
        id: Some(2),
        cmd: Command::Run(RunRequest {
            panic: true,
            ..run_request(2, 10.0)
        }),
    });
    assert!(matches!(response.body, ResponseBody::Error { .. }));

    // Recovery counters pass through stats verbatim.
    match call(&Request {
        id: Some(3),
        cmd: Command::Stats,
    })
    .body
    {
        ResponseBody::Stats(s) => {
            assert_eq!(
                (s.recovered_runs, s.journal_replays, s.gc_orphans),
                (7, 5, 3),
                "recovery counters must surface through stats"
            );
        }
        other => panic!("expected stats, got {other:?}"),
    }

    handle.initiate_drain();
    handle.join();

    let replay = Journal::replay(&journal_path);
    assert!(replay.records >= 2, "accept + done must be journaled");
    assert!(
        replay.pending.is_empty(),
        "completed work must be discharged: {:?}",
        replay.pending.iter().map(|(k, _)| k).collect::<Vec<_>>()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journaled in-process server over the store at `dir`, plus one
/// connected client.
struct Service {
    handle: server::ServerHandle,
    stream: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Service {
    fn start(dir: &Path, journal_path: &Path, tag: &str) -> Service {
        let socket = std::env::temp_dir().join(format!(
            "adacomm-recovery-{}-{tag}.sock",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&socket);
        let config = ServerConfig {
            socket_path: socket.clone(),
            workers: 1,
            queue_limit: 8,
            scale: Scale::Quick,
            journal_path: Some(journal_path.to_path_buf()),
            ..ServerConfig::default()
        };
        let engine = SweepEngine::default().with_store(RunStore::new(dir));
        let handle = Server::start(config, Arc::new(engine)).expect("start server");
        let stream = UnixStream::connect(&socket).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Service {
            handle,
            stream,
            reader,
        }
    }

    /// Runs `run` and returns the reply's `source` label.
    fn run(&mut self, run: RunRequest) -> String {
        let mut line = protocol::encode_request(&Request {
            id: Some(1),
            cmd: Command::Run(run),
        });
        line.push('\n');
        self.stream.write_all(line.as_bytes()).expect("send");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("recv");
        match protocol::parse_response(reply.trim())
            .expect("parse response")
            .body
        {
            ResponseBody::Run(stats) => stats.source,
            other => panic!("expected a run result, got {other:?}"),
        }
    }
}

/// Journaled ⇔ admitted to the queue: a cold request leaves exactly its
/// accept and done records, hits leave the journal file byte-for-byte
/// alone, and a fresh daemon serving the same store from disk journals
/// nothing at all.
#[test]
fn only_admitted_requests_are_journaled() {
    let dir = dir_for("read_path");
    let journal_path = dir.join("journal.log");
    let records = || Journal::replay(&journal_path).records;
    let bytes = || {
        std::fs::metadata(&journal_path)
            .expect("journal file")
            .len()
    };

    let mut service = Service::start(&dir, &journal_path, "read-path");
    assert_eq!(records(), 0);
    assert_eq!(service.run(run_request(2, 10.0)), "computed");
    // The worker appends `done` after it has replied.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while records() < 2 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(records(), 2, "one cold request: accept + done");

    let settled = bytes();
    for _ in 0..50 {
        assert_eq!(service.run(run_request(2, 10.0)), "memory");
    }
    assert_eq!(bytes(), settled, "hits must not touch the journal");
    service.handle.join();

    // The next daemon on the same store (its journal starts a fresh epoch,
    // as after `recover`).
    journal::discard(&journal_path);
    let mut service = Service::start(&dir, &journal_path, "read-path-2");
    assert_eq!(service.run(run_request(2, 10.0)), "disk");
    assert_eq!(service.run(run_request(2, 10.0)), "memory");
    service.handle.join();
    assert_eq!(records(), 0, "store and memo hits are never journaled");
    let _ = std::fs::remove_dir_all(&dir);
}
