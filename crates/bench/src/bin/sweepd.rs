//! `sweepd` — the sweep service daemon.
//!
//! ```sh
//! cargo run --release -p adacomm-bench --bin sweepd -- \
//!     [--socket PATH] [--workers N] [--queue-limit N] \
//!     [--smoke|--full] [--no-cache] [--trace DIR] \
//!     [--park-every-rounds N] [--gc-age-secs N]
//! ```
//!
//! Binds a Unix-domain socket (default `/tmp/adacomm-sweepd.sock`) and
//! serves scenario runs and whole registry figures out of the in-process
//! sweep engine, backed by the persistent run store — so a figure served
//! by the daemon writes CSVs byte-identical to a batch `reproduce_all`
//! at the same scale. Talk to it with `sweepctl`.
//!
//! Lifecycle and failure semantics live in `adacomm_bench::server`; this
//! binary adds the process glue:
//!
//! * **Store lock** — the daemon holds the run store's lock for its
//!   whole lifetime, so a concurrent batch `reproduce_all` against the
//!   same cache fails fast instead of interleaving writes. It is the
//!   kernel's advisory lock on the store's `.lock` file: a crashed
//!   daemon cannot leave it held, and two restarting daemons contending
//!   for it produce exactly one winner.
//! * **Crash recovery** — before serving, the daemon garbage-collects
//!   orphaned temp files and aged parked frames from the store, then
//!   replays the crash-consistency journal: every request a killed
//!   predecessor accepted but never answered is re-executed (resuming
//!   parked checkpoints where they exist), so a `SIGKILL` loses zero
//!   accepted work. The recovery counters surface through `stats`.
//! * **SIGTERM / SIGINT → graceful drain** — stop accepting, answer
//!   queued requests with `draining`, park in-flight runs resumably,
//!   flush telemetry, remove the socket, exit 0. The `shutdown` protocol
//!   command takes the identical path.
//! * **`--park-every-rounds N`** — long runs, whether requested by
//!   `run` or by a `figure` body, park a resumable checkpoint every N
//!   simulated rounds (default 256), bounding how much progress a
//!   `SIGKILL` can destroy to N rounds — crash recovery's re-executed
//!   runs included.
//! * **`ADACOMM_FAILPOINTS`** — seeded fault-injection sites for chaos
//!   drills (see `adacomm_bench::failpoint`); unknown names are a usage
//!   error at startup, not a silent no-op.
//! * **`--trace DIR`** — on exit, write one JSONL telemetry profile
//!   (`DIR/sweepd.jsonl`) covering the serving window, headed by a
//!   *service* meta line: `obs_report --check` validates it without
//!   applying the phase-coverage rule (a daemon is mostly idle and its
//!   workers overlap, so span self-times never tile the wall clock).

use adacomm_bench::server::{self, Server, ServerConfig};
use adacomm_bench::{cli, failpoint, RunStore, Scale, SweepEngine};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage: sweepd [--socket PATH] [--workers N] [--queue-limit N]
              [--smoke|--full] [--no-cache] [--trace DIR]
              [--park-every-rounds N] [--gc-age-secs N]

  --socket PATH      Unix-domain socket to listen on
                     (default /tmp/adacomm-sweepd.sock)
  --workers N        request worker threads (default 2)
  --queue-limit N    bounded queue: distinct jobs waiting before requests
                     are shed with `overloaded` (default 64)
  --smoke / --full   scale served scenarios are built at (default quick);
                     --smoke also redirects CSVs to results/smoke/
  --no-cache         serve without the persistent run store (no lockfile,
                     no parking, no journal, no crash recovery)
  --park-every-rounds N
                     park a resumable checkpoint every N simulated rounds
                     during long runs so a SIGKILL loses at most N
                     rounds (default 256; 0 disables)
  --gc-age-secs N    startup GC removes parked checkpoint frames older
                     than N seconds (default 86400)
  --trace DIR        write DIR/sweepd.jsonl (telemetry profile of the
                     serving window) during shutdown
  --help             print this help

environment:
  ADACOMM_FAILPOINTS  arm seeded fault-injection sites, e.g.
                      \"store.save.torn=1;server.request.abort=2:1\"
                      (see adacomm_bench::failpoint for the site table)

SIGTERM, SIGINT, and the `shutdown` protocol command all drain
gracefully: queued requests are answered with `draining`, in-flight runs
park their progress resumably in the store, and the process exits 0.
After a SIGKILL, the next start replays the crash-consistency journal
and completes every request the killed daemon had accepted.";

/// Set by the signal handler; polled by the main loop. Signal-handler
/// safe: a relaxed atomic store is all that happens in handler context.
static TERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term(_sig: i32) {
    TERM.store(true, Ordering::Relaxed);
}

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

const SIGTERM: i32 = 15;
const SIGINT: i32 = 2;

/// Flags that take a value, with their value count and what the value is
/// (for the error).
const VALUE_FLAGS: [(&str, usize, &str); 6] = [
    ("--socket", 1, "a socket path"),
    ("--workers", 1, "a non-negative integer"),
    ("--queue-limit", 1, "a non-negative integer"),
    ("--trace", 1, "a directory argument"),
    ("--park-every-rounds", 1, "a non-negative integer"),
    ("--gc-age-secs", 1, "a non-negative integer"),
];

const SWITCHES: [&str; 3] = ["--smoke", "--full", "--no-cache"];

fn numeric_flag(args: &[String], flag: &str, default: u64) -> u64 {
    match cli::value_of(args, flag) {
        None => default,
        Some(raw) => raw.parse().unwrap_or_else(|_| {
            eprintln!("{flag} requires a non-negative integer, got {raw:?}");
            std::process::exit(2);
        }),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    // Before the store lock, journal recovery and the bind: a misspelt
    // `--socket` must not serve on the default path.
    if let Err(complaint) = cli::check_args(&args, &VALUE_FLAGS, &SWITCHES, 0) {
        eprintln!("sweepd: {complaint}\n{USAGE}");
        std::process::exit(2);
    }
    match failpoint::init_from_env() {
        Ok(0) => {}
        Ok(n) => eprintln!(
            "sweepd: {n} failpoint site(s) armed from {}",
            failpoint::ENV_VAR
        ),
        Err(e) => {
            eprintln!("sweepd: bad {}: {e}", failpoint::ENV_VAR);
            std::process::exit(2);
        }
    }
    let scale = Scale::from_env_and_args();
    if scale.is_smoke() {
        adacomm_bench::report::set_results_subdir("smoke");
    }
    let trace_dir = cli::value_of(&args, "--trace").map(PathBuf::from);
    let park_every = numeric_flag(&args, "--park-every-rounds", 256);
    let gc_age = Duration::from_secs(numeric_flag(&args, "--gc-age-secs", 24 * 60 * 60));
    let workers = numeric_flag(&args, "--workers", 2) as usize;
    let queue_limit = numeric_flag(&args, "--queue-limit", 64) as usize;

    // The engine owns the store; the daemon holds the store's lockfile
    // for its whole lifetime so batch writers against the same cache
    // fail fast instead of interleaving. Dropped (= released) on every
    // exit path below; after a SIGKILL the kernel releases it, so the
    // restarted daemon locks at once.
    let mut engine = SweepEngine::default();
    // Before recovery: the runs it re-executes are the long ones a
    // SIGKILL interrupted, and they park like any other.
    if park_every > 0 {
        engine = engine.with_periodic_park(park_every);
    }
    let mut _store_lock = None;
    let mut journal_path = None;
    let mut recovery = server::RecoveryCounters::default();
    if !args.iter().any(|a| a == "--no-cache") {
        let store_dir = RunStore::default_dir();
        let store = RunStore::new(&store_dir);
        match store.lock("sweepd") {
            Ok(lock) => _store_lock = Some(lock),
            Err(e) => {
                eprintln!("cannot lock run store: {e}");
                std::process::exit(1);
            }
        }

        engine = engine.with_store(store);

        // Startup crash recovery, strictly before the socket binds: GC
        // the debris a killed predecessor left, then replay its journal
        // so every accepted-but-unanswered request completes now.
        let gc = engine.store().expect("store just attached").gc(gc_age);
        let path = store_dir.join("journal.log");
        let report = server::recover(&path, &engine, scale);
        recovery = report.counters(gc.reclaimed());
        eprintln!(
            "sweepd: recovery: journal_replays={} recovered_runs={} resumed={} \
             figures={} failed={} torn_tail={} gc_tmp={} gc_parked={} gc_kept={}",
            report.replayed,
            report.recovered_runs,
            report.resumed_runs,
            report.recovered_figures,
            report.failed.len(),
            report.torn_tail,
            gc.tmp_removed,
            gc.parked_removed,
            gc.parked_kept,
        );
        for (key, reason) in &report.failed {
            eprintln!("sweepd: recovery failed for {key}: {reason}");
        }

        journal_path = Some(path);
    }
    let config = ServerConfig {
        socket_path: cli::value_of(&args, "--socket")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("/tmp/adacomm-sweepd.sock")),
        workers,
        queue_limit,
        scale,
        journal_path,
        gc_max_parked_age: gc_age,
        recovery,
    };

    // SAFETY: installing a handler that only stores a relaxed atomic.
    unsafe {
        signal(SIGTERM, on_term as extern "C" fn(i32) as usize);
        signal(SIGINT, on_term as extern "C" fn(i32) as usize);
    }

    let profile = trace_dir.map(|dir| (dir, telemetry::Profiler::start()));
    let started = Instant::now();

    let handle = match Server::start(config, Arc::new(engine)) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("sweepd: cannot start: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "sweepd: serving on {} (scale {scale}); SIGTERM or `sweepctl shutdown` drains",
        handle.socket_path().display()
    );

    while !TERM.load(Ordering::Relaxed) && !handle.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(25));
    }
    let why = if TERM.load(Ordering::Relaxed) {
        "signal"
    } else {
        "shutdown command"
    };
    eprintln!("sweepd: draining ({why})");
    handle.initiate_drain();
    let stats = handle.stats();
    handle.join();

    let wall_secs = started.elapsed().as_secs_f64();
    if let Some((dir, mut profiler)) = profile {
        let meta = telemetry::schema::meta_service_line("sweepd", &format!("{scale}"), wall_secs);
        if let Err(e) = profiler.cut(&dir.join("sweepd.jsonl"), meta) {
            eprintln!("sweepd: failed to write telemetry trace: {e}");
        }
    }

    println!(
        "sweepd: drained after {wall_secs:.2} s — {} requests ({} shed, {} dedup hits, \
         {} deadline misses, {} request panics), {} unique runs, \
         {} recovered, {} journal replays, {} gc orphans",
        stats.requests,
        stats.shed,
        stats.dedup_hits,
        stats.deadline_misses,
        stats.request_panics,
        stats.unique_runs,
        stats.recovered_runs,
        stats.journal_replays,
        stats.gc_orphans
    );
}
