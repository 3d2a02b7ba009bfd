//! `sweepctl` — command-line client for the `sweepd` sweep service.
//!
//! ```sh
//! sweepctl [--socket PATH] [--retries N] [--retry-base-ms N] ping
//! sweepctl [--socket PATH] stats
//! sweepctl [--socket PATH] gc
//! sweepctl [--socket PATH] shutdown
//! sweepctl [--socket PATH] figure NAME
//! sweepctl [--socket PATH] run SCENARIO [--scheduler fixed|adacomm]
//!          [--tau N] [--budget TOTAL RECORD] [--deadline-ms N] [--panic]
//! ```
//!
//! Sends one request over the daemon's Unix-domain socket and prints the
//! response. With `--retries N`, *retryable* outcomes — a refused or
//! dropped connection (daemon restarting), `overloaded` (queue full),
//! `draining` (daemon shutting down) — are retried up to N times with the
//! workspace's one seeded [`backoff`], keyed by the request line. This is
//! safe to do blindly: requests
//! are idempotent on the server (content-addressed single-flight keys),
//! so a retry either attaches to the surviving flight or recomputes the
//! identical bytes.
//!
//! The exit-code contract is the scripting surface — CI chaos drills
//! branch on it:
//!
//! | code | meaning                                                    |
//! |------|------------------------------------------------------------|
//! | 0    | `ok` response                                              |
//! | 1    | terminal error response (`failed`, `panic`, `bad_request`) |
//! | 2    | usage error or connection failure (retries exhausted)      |
//! | 3    | `overloaded` — shed by backpressure (retries exhausted)    |
//! | 4    | `draining` — daemon shutting down (retries exhausted)      |
//! | 5    | `deadline` — run parked resumably; re-request to resume    |

use adacomm_bench::cli;
use adacomm_bench::server::protocol::{
    self, Command, ErrorKind, Request, Response, ResponseBody, RunRequest,
};
use adacomm_bench::supervisor::backoff;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::str::FromStr;

const USAGE: &str = "\
usage: sweepctl [--socket PATH] [--retries N] [--retry-base-ms N] COMMAND

commands:
  ping                  liveness probe
  stats                 service counters (requests, shed, recovery, ...)
  gc                    sweep the daemon's store for orphaned temp files
                        and aged parked frames; prints what was reclaimed
  shutdown              ask the daemon to drain gracefully and exit
  figure NAME           render one registry figure (CSVs land in the
                        daemon's results directory, byte-identical to a
                        batch reproduce_all at the same scale)
  run SCENARIO          execute one scenario run; scenarios: concept,
                        canonical-vgg, canonical-resnet, compression
    --scheduler S       fixed (default) or adacomm
    --tau N             tau (fixed) or tau0 (adacomm); default 4
    --budget T R        override simulated budget: total secs, record secs
    --deadline-ms N     per-request deadline; an overrunning run parks its
                        progress resumably and answers `deadline`
    --panic             forced-panic drill (isolated to this request)

  --socket PATH         daemon socket (default /tmp/adacomm-sweepd.sock)
  --retries N           retry retryable outcomes (connection refused/lost,
                        overloaded, draining) up to N times with seeded
                        exponential backoff, at most 2 s each (default 0);
                        safe because requests are idempotent on the server
  --retry-base-ms N     backoff base delay in milliseconds (default 50)

exit status:
  0 ok response
  1 terminal error response (failed, panic, bad_request)
  2 usage error or connection failure (after retries)
  3 overloaded — request shed by backpressure (after retries)
  4 draining — daemon is shutting down (after retries)
  5 deadline — partial progress parked; re-request to resume";

fn usage_error(message: &str) -> ! {
    eprintln!("sweepctl: {message}\n{USAGE}");
    std::process::exit(2);
}

/// Flags every command takes, with their value count and what the values
/// are (for the complaint).
const GLOBAL_FLAGS: [(&str, usize, &str); 3] = [
    ("--socket", 1, "a path"),
    ("--retries", 1, "a non-negative integer"),
    ("--retry-base-ms", 1, "a non-negative integer"),
];

/// The flags only `run` takes (besides its `--panic` switch).
const RUN_FLAGS: [(&str, usize, &str); 4] = [
    ("--scheduler", 1, "fixed or adacomm"),
    ("--tau", 1, "an integer"),
    ("--budget", 2, "TOTAL and RECORD seconds"),
    ("--deadline-ms", 1, "an integer"),
];

/// `raw`, the value of `flag`, parsed as `what`.
fn parse<T: FromStr>(flag: &str, raw: &str, what: &str) -> T {
    raw.parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag} must be {what}, got {raw:?}")))
}

/// The value of `flag` parsed as `what`, or `default` without the flag.
fn flag_or<T: FromStr>(args: &[String], flag: &str, what: &str, default: T) -> T {
    cli::value_of(args, flag).map_or(default, |raw| parse(flag, raw, what))
}

/// Validates the whole command line and returns the command it asks for.
fn parse_command(args: &[String]) -> Command {
    let check = |flags: &[(&str, usize, &str)], switches: &[&str], positionals| {
        cli::check_args(args, flags, switches, positionals)
            .unwrap_or_else(|complaint| usage_error(&complaint))
    };
    // Find the command over every flag, then admit only the ones it takes.
    let all_flags = [&GLOBAL_FLAGS[..], &RUN_FLAGS].concat();
    let free = match check(&all_flags, &["--panic"], 2).first().copied() {
        Some("run") => check(&all_flags, &["--panic"], 2),
        Some("figure") => check(&GLOBAL_FLAGS, &[], 2),
        Some("ping" | "stats" | "gc" | "shutdown") => check(&GLOBAL_FLAGS, &[], 1),
        Some(other) => usage_error(&format!("unknown command {other:?}")),
        None => usage_error("a command is required"),
    };
    match free[..] {
        ["ping"] => Command::Ping,
        ["stats"] => Command::Stats,
        ["gc"] => Command::Gc,
        ["shutdown"] => Command::Shutdown,
        ["figure", name] => Command::Figure { name: name.into() },
        ["figure"] => usage_error("figure requires a registry name"),
        ["run", scenario] => Command::Run(RunRequest {
            scenario: scenario.into(),
            scheduler: cli::value_of(args, "--scheduler").unwrap_or("fixed").into(),
            tau: flag_or(args, "--tau", "an integer", 4),
            budget: cli::values_of(args, "--budget", 2).map(|v| {
                let number = |raw: &String| parse("--budget", raw, "a number of seconds");
                (number(&v[0]), number(&v[1]))
            }),
            deadline_ms: cli::value_of(args, "--deadline-ms")
                .map(|raw| parse("--deadline-ms", raw, "an integer")),
            panic: args.iter().any(|a| a == "--panic"),
        }),
        ["run"] => usage_error("run requires a scenario name"),
        _ => unreachable!("check_args admits one command and at most its argument"),
    }
}

/// One attempt's outcome, classified for the retry loop.
enum Attempt {
    /// A parsed response arrived (any body, including errors).
    Answered(Response),
    /// The transport failed in a way a daemon restart will cure.
    ConnectionFailed(String),
}

fn attempt(socket: &Path, request: &Request) -> Attempt {
    let stream = match UnixStream::connect(socket) {
        Ok(stream) => stream,
        Err(e) => {
            return Attempt::ConnectionFailed(format!(
                "cannot connect to {}: {e}",
                socket.display()
            ))
        }
    };
    let line = protocol::encode_request(request);
    let mut writer = &stream;
    if writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .and_then(|()| writer.flush())
        .is_err()
    {
        return Attempt::ConnectionFailed("connection lost while sending".into());
    }
    let mut reply = String::new();
    match BufReader::new(&stream).read_line(&mut reply) {
        Ok(n) if n > 0 => {}
        _ => {
            return Attempt::ConnectionFailed(
                "daemon closed the connection without replying".into(),
            )
        }
    }
    match protocol::parse_response(reply.trim()) {
        Ok(response) => Attempt::Answered(response),
        Err(e) => {
            eprintln!("sweepctl: unparseable response ({e}): {}", reply.trim());
            std::process::exit(2);
        }
    }
}

/// Whether a structured error is worth retrying: transient service
/// states, not verdicts about the request itself.
fn retryable(kind: ErrorKind) -> bool {
    matches!(kind, ErrorKind::Overloaded | ErrorKind::Draining)
}

/// The documented exit code for an error response.
fn exit_code(kind: ErrorKind) -> i32 {
    match kind {
        ErrorKind::Overloaded => 3,
        ErrorKind::Draining => 4,
        ErrorKind::Deadline => 5,
        ErrorKind::BadRequest | ErrorKind::Panic | ErrorKind::Failed => 1,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let cmd = parse_command(&args);
    let socket = Path::new(cli::value_of(&args, "--socket").unwrap_or("/tmp/adacomm-sweepd.sock"));
    let non_negative = "a non-negative integer";
    let retries: u64 = flag_or(&args, "--retries", non_negative, 0);
    let retry_base_ms = flag_or(&args, "--retry-base-ms", non_negative, 50u64).max(1);

    let request = Request { id: Some(1), cmd };
    let request_line = protocol::encode_request(&request);
    let mut tries = 0u32;
    loop {
        let out_of_retries = u64::from(tries) >= retries;
        let failure = match attempt(socket, &request) {
            Attempt::Answered(response) => match response.body {
                ResponseBody::Error { kind, ref message } if retryable(kind) && !out_of_retries => {
                    format!("{}: {message}", kind.as_str())
                }
                _ => {
                    // Final answer (ok, terminal error, or a retryable
                    // error with retries exhausted): print it and exit
                    // under the documented contract.
                    print_response(&response);
                    let code = match response.body {
                        ResponseBody::Error { kind, .. } => exit_code(kind),
                        _ => 0,
                    };
                    std::process::exit(code);
                }
            },
            Attempt::ConnectionFailed(reason) => {
                if out_of_retries {
                    eprintln!("sweepctl: {reason}");
                    std::process::exit(2);
                }
                reason
            }
        };
        let wait = backoff(retry_base_ms, &request_line, tries);
        eprintln!(
            "sweepctl: {failure}; retrying in {} ms ({}/{retries})",
            wait.as_millis(),
            tries + 1
        );
        std::thread::sleep(wait);
        tries += 1;
    }
}

fn print_response(response: &Response) {
    match &response.body {
        ResponseBody::Pong => println!("pong"),
        ResponseBody::ShuttingDown => println!("shutting down (drain follows)"),
        ResponseBody::Stats(s) => {
            println!(
                "requests {}  shed {}  dedup_hits {}  deadline_misses {}  request_panics {}",
                s.requests, s.shed, s.dedup_hits, s.deadline_misses, s.request_panics
            );
            println!(
                "unique_runs {}  queue_depth {}  draining {}",
                s.unique_runs, s.queue_depth, s.draining
            );
            println!(
                "recovered_runs {}  journal_replays {}  gc_orphans {}",
                s.recovered_runs, s.journal_replays, s.gc_orphans
            );
        }
        ResponseBody::Gc {
            tmp_removed,
            parked_removed,
            parked_kept,
        } => {
            println!(
                "gc: {tmp_removed} temp files and {parked_removed} aged parked frames \
                 reclaimed, {parked_kept} parked frames kept"
            );
        }
        ResponseBody::Figure { name, wall_ms } => {
            println!("figure {name} rendered in {wall_ms:.0} ms");
        }
        ResponseBody::Run(r) => {
            println!(
                "run ok (source {}): {} rounds, {} points, final loss {:.6}, {:.0} ms",
                r.source, r.rounds, r.points, r.final_loss, r.wall_ms
            );
        }
        ResponseBody::Error { kind, message } => {
            println!("error [{}]: {message}", kind.as_str());
        }
    }
}
