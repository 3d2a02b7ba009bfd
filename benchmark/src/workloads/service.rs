//! `service_hits` and `service_distinct`: a real `sweepd` child at smoke
//! scale, driven by one generator with two closed-loop connections —
//! `sweepctl`-style callers that wait for each reply before sending the
//! next request. Latency is timed from send.
//!
//! The daemon's state (socket, store, journal, CSVs) lives in the state
//! directory inside the checkout — memory-backed where `statefs` could
//! mount it: the daemon is started with that directory as its working
//! directory, which is where `sweepd` roots its `results/` tree when it is
//! not launched through cargo.

use super::{timed_setups, Checks, EndToEnd, RunConfig};
use crate::spans::Recorder;
use crate::util::{self, derive_seed, Digest};
use adacomm_bench::server::journal::Journal;
use adacomm_bench::server::protocol::{
    self, Command, Request, Response, ResponseBody, RunRequest, StatsBody,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command as Process, Stdio};
use std::time::{Duration, Instant};

/// Closed-loop connections (and daemon workers): one per core of the
/// 2-core box the bounds were proven on.
pub const CONNECTIONS: usize = 2;
const DAEMON_WORKERS: &str = "2";
/// Concept-suite cluster size (steps = rounds × τ × workers).
const CONCEPT_WORKERS: u64 = 4;
/// Specs the hit mix cycles over, split evenly between the connections:
/// two connections never ask for the same spec at once, so no request is a
/// single-flight join (which would skip the journal, by timing luck) and
/// every hit takes the whole admission path.
const HIT_SPECS: u64 = 8;
const HIT_SPECS_PER_CONNECTION: u64 = HIT_SPECS / CONNECTIONS as u64;
/// Distinct keys available to one run: 1000 budgets × 64 record cadences.
const DISTINCT_KEYS: u64 = 64_000;
/// Coprime with [`DISTINCT_KEYS`], so `n ↦ base + n·stride` visits every
/// key once before repeating.
const DISTINCT_STRIDE: u64 = 7919;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mix {
    /// Requests cycle over the warmed specs in seeded order: every one is
    /// a memo hit.
    Hits,
    /// Every request carries a never-seen key of (near-)identical work.
    Distinct,
}

fn concept(tau: u64, total_ms: u64, record_ms: u64) -> RunRequest {
    RunRequest {
        scenario: "concept".into(),
        scheduler: "fixed".into(),
        tau,
        budget: Some((total_ms as f64 / 1e3, record_ms as f64 / 1e3)),
        deadline_ms: None,
        panic: false,
    }
}

fn hit_spec(k: u64) -> RunRequest {
    concept(1 + k, 40_000, 10_000)
}

/// The `n`-th distinct request of a run: τ = 4, budget 10.000–10.999 s,
/// record cadence 2.000–2.063 s. Budget and cadence are part of the
/// content-addressed key; the work varies by under 10 %.
fn distinct_spec(base: u64, n: u64) -> RunRequest {
    let idx = (base + n * DISTINCT_STRIDE) % DISTINCT_KEYS;
    concept(4, 10_000 + idx % 1000, 2_000 + idx / 1000)
}

/// The parts of a `run` reply that must be equal for equal specs.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Reply {
    rounds: u64,
    points: u64,
    loss_bits: u64,
}

pub struct Daemon {
    child: Child,
    dir: PathBuf,
}

impl Daemon {
    /// Wipes `dir` and starts `sweepd` in it; returns once the socket
    /// accepts.
    pub fn start(dir: &Path) -> io::Result<Daemon> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir)?;
        let exe = sweepd_path()?;
        let log = std::fs::File::create(dir.join("sweepd.log"))?;
        let child = Process::new(exe)
            .args(["--socket", "s.sock", "--workers", DAEMON_WORKERS, "--smoke"])
            .current_dir(dir)
            // Not launched through cargo: `results/` roots at the cwd.
            .env_remove("CARGO_MANIFEST_DIR")
            .env_remove("ADACOMM_FAILPOINTS")
            .env("RAYON_NUM_THREADS", DAEMON_WORKERS)
            .stdin(Stdio::null())
            .stdout(Stdio::from(log.try_clone()?))
            .stderr(Stdio::from(log))
            .spawn()?;
        let daemon = Daemon {
            child,
            dir: dir.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while UnixStream::connect(daemon.socket()).is_err() {
            if Instant::now() > deadline {
                return Err(io::Error::other(
                    "sweepd did not bind its socket within 30 s",
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(daemon)
    }

    pub fn socket(&self) -> PathBuf {
        self.dir.join("s.sock")
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    fn journal_path(&self) -> PathBuf {
        self.dir.join("results/smoke/cache/journal.log")
    }

    /// Asks for a drain and waits for a clean exit.
    pub fn stop(mut self) -> bool {
        let asked = Client::connect(&self.socket())
            .and_then(|mut c| c.call(Command::Shutdown))
            .is_ok();
        let deadline = Instant::now() + Duration::from_secs(20);
        while asked && Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(_) => break,
            }
        }
        false // Drop kills and reaps.
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `sweepd` is built next to this binary (same target directory and
/// profile; see `ensure_sweepd` in `main.rs`).
fn sweepd_path() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let path = exe
        .parent()
        .map(|d| d.join("sweepd"))
        .filter(|p| p.exists())
        .ok_or_else(|| io::Error::other("sweepd is not built next to the benchmark binary"))?;
    Ok(path)
}

struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
    next_id: u64,
    line: String,
}

impl Client {
    fn connect(socket: &Path) -> io::Result<Client> {
        let writer = UnixStream::connect(socket)?;
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            writer,
            reader,
            next_id: 1,
            line: String::new(),
        })
    }

    /// One request, one reply. An `id` that is not echoed is an error.
    fn call(&mut self, cmd: Command) -> io::Result<Response> {
        let id = self.next_id;
        self.next_id += 1;
        let mut line = protocol::encode_request(&Request { id: Some(id), cmd });
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::other("daemon closed the connection"));
        }
        let response = protocol::parse_response(self.line.trim_end()).map_err(io::Error::other)?;
        if response.id != Some(id) {
            return Err(io::Error::other(format!(
                "reply id {:?} does not echo request id {id}",
                response.id
            )));
        }
        Ok(response)
    }

    fn run(&mut self, request: &RunRequest) -> Result<Reply, String> {
        match self.call(Command::Run(request.clone())) {
            Ok(Response {
                body: ResponseBody::Run(r),
                ..
            }) => Ok(Reply {
                rounds: r.rounds,
                points: r.points,
                loss_bits: r.final_loss.to_bits(),
            }),
            Ok(other) => Err(format!("not an ok run reply: {:?}", other.body)),
            Err(e) => Err(e.to_string()),
        }
    }

    fn stats(&mut self) -> Option<StatsBody> {
        match self.call(Command::Stats).ok()?.body {
            ResponseBody::Stats(s) => Some(s),
            _ => None,
        }
    }
}

/// One completed request, as the generator saw it.
struct Sample {
    done_s: f64,
    latency_ms: f64,
    rounds: u64,
    steps: u64,
}

/// What one connection thread did during the timed phase.
struct ConnOut {
    samples: Vec<Sample>,
    /// `(spec index k or request index n, reply)` per answered request, for
    /// the equal-specs check.
    replies: Vec<(u64, Reply)>,
    /// Requests that were refused, failed or mismatched.
    failed: u64,
    /// The first few failure reasons.
    errors: Vec<String>,
    rec: Recorder,
}

/// A started daemon with the hit specs warmed and their replies recorded.
pub struct Service {
    mix: Mix,
    seed: u64,
    dir: PathBuf,
    daemon: Option<Daemon>,
    warm: Vec<Reply>,
}

/// What the timed phase measured (`e2e.setup_s` is left 0 for the caller).
pub struct Phase {
    pub e2e: EndToEnd,
    pub layer: Vec<(&'static str, f64)>,
}

impl Service {
    pub fn new(mix: Mix, cfg: &RunConfig) -> Self {
        Service {
            mix,
            seed: cfg.seed,
            dir: cfg.state.join("svc"),
            daemon: None,
            warm: Vec::new(),
        }
    }

    /// Daemon start plus warm-up: the hit specs are computed once (both
    /// mixes, so both daemons start from the same state).
    pub fn setup(&mut self) -> Result<(), String> {
        if let Some(old) = self.daemon.take() {
            old.stop();
        }
        let daemon = Daemon::start(&self.dir).map_err(|e| format!("cannot start sweepd: {e}"))?;
        let mut client = Client::connect(&daemon.socket()).map_err(|e| e.to_string())?;
        self.warm = (0..HIT_SPECS)
            .map(|k| client.run(&hit_spec(k)))
            .collect::<Result<_, _>>()?;
        self.daemon = Some(daemon);
        Ok(())
    }

    pub fn setup_median(&mut self, count: usize) -> Result<f64, String> {
        timed_setups(count, || self.setup())
    }

    /// Where this run's distinct-key sequence starts.
    fn distinct_base(&self) -> u64 {
        derive_seed(self.seed, 40) % DISTINCT_KEYS
    }

    fn request(&self, conn: u64, base: u64, n: u64, order: &mut StdRng) -> (RunRequest, u64) {
        match self.mix {
            Mix::Hits => {
                let k =
                    conn * HIT_SPECS_PER_CONNECTION + order.gen_range(0..HIT_SPECS_PER_CONNECTION);
                (hit_spec(k), k)
            }
            Mix::Distinct => (distinct_spec(base, n), n),
        }
    }

    fn connection(&self, conn: u64, seconds: f64, start: Instant, rec: Recorder) -> ConnOut {
        let mut out = ConnOut {
            samples: Vec::new(),
            replies: Vec::new(),
            failed: 0,
            errors: Vec::new(),
            rec,
        };
        let socket = self.daemon.as_ref().expect("setup ran").socket();
        let mut client = match Client::connect(&socket) {
            Ok(client) => client,
            Err(e) => {
                out.failed = 1;
                out.errors.push(format!("connection {conn}: {e}"));
                return out;
            }
        };
        let base = self.distinct_base();
        let mut order = StdRng::seed_from_u64(derive_seed(self.seed, 30 + conn));
        let mut k = 0u64;
        while start.elapsed().as_secs_f64() < seconds {
            // Connections interleave the request sequence: n = conn, conn+C, …
            let n = conn + k * CONNECTIONS as u64;
            k += 1;
            let (request, tag) = self.request(conn, base, n, &mut order);
            let sent = Instant::now();
            let span = out.rec.enter("server.request");
            let reply = client.run(&request);
            out.rec.exit(span);
            let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
            match reply {
                Ok(reply) => {
                    out.samples.push(Sample {
                        done_s: start.elapsed().as_secs_f64(),
                        latency_ms,
                        rounds: reply.rounds,
                        steps: reply.rounds * request.tau * CONCEPT_WORKERS,
                    });
                    out.replies.push((tag, reply));
                }
                Err(e) => {
                    out.failed += 1;
                    if out.errors.len() < 5 {
                        out.errors.push(e);
                    }
                }
            }
        }
        out
    }

    /// The timed phase: `seconds` of closed-loop traffic on
    /// [`CONNECTIONS`] connections, then the output checks.
    pub fn measure(
        &mut self,
        seconds: f64,
        rec: &mut Recorder,
        checks: &mut Checks,
    ) -> Result<Phase, String> {
        let daemon = self.daemon.as_ref().ok_or("service was not set up")?;
        let mut admin = Client::connect(&daemon.socket()).map_err(|e| e.to_string())?;
        let stats0 = admin.stats().ok_or("stats request failed")?;
        let journal0 = Journal::replay(&daemon.journal_path()).records;
        let journal_bytes0 = std::fs::metadata(daemon.journal_path()).map_or(0, |m| m.len());
        let cpu0 = util::cpu_secs(Some(daemon.pid())).unwrap_or_default();

        let phase_span = rec.enter("bench.traffic");
        let start = Instant::now();
        let outs: Vec<ConnOut> = std::thread::scope(|scope| {
            let this = &*self;
            let handles: Vec<_> = (0..CONNECTIONS as u64)
                .map(|conn| {
                    let fork = rec.fork();
                    scope.spawn(move || this.connection(conn, seconds, start, fork))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("connection thread panicked"))
                .collect()
        });
        rec.exit(phase_span);

        let stats1 = admin.stats().ok_or("stats request failed")?;
        let cpu1 = util::cpu_secs(Some(daemon.pid())).unwrap_or_default();
        // A worker appends a job's `done` record after it has replied, so
        // let the journal settle before counting records exactly.
        let journal_len = || std::fs::metadata(daemon.journal_path()).map_or(0, |m| m.len());
        let mut journal_bytes1 = journal_len();
        for _ in 0..50 {
            std::thread::sleep(Duration::from_millis(20));
            let now = journal_len();
            if now == journal_bytes1 {
                break;
            }
            journal_bytes1 = now;
        }
        let journal1 = Journal::replay(&daemon.journal_path()).records;

        // Every response must be ok with its id echoed…
        let mut samples = Vec::new();
        let mut replies = Vec::new();
        let mut failed = 0;
        for out in outs {
            for e in &out.errors {
                checks.messages.push(format!("service: {e}"));
            }
            failed += out.failed;
            samples.extend(out.samples);
            replies.extend(out.replies);
            rec.absorb(out.rec);
        }
        let answered = samples.len() as u64;
        let attempted = answered + failed;
        checks.attempted += attempted;
        checks.failed += failed;
        if answered == 0 {
            return Err("no request was answered".to_string());
        }

        // …and equal specs must return equal traces.
        let mut digest = Digest::new();
        replies.sort_by_key(|&(tag, _)| tag);
        match self.mix {
            Mix::Hits => {
                for &(k, reply) in &replies {
                    checks.check(reply == self.warm[k as usize], || {
                        format!(
                            "hit on spec {k} returned {reply:?}, warm-up saw {:?}",
                            self.warm[k as usize]
                        )
                    });
                }
                // How often each spec was hit depends on speed; what a hit
                // returns does not.
                for warm in &self.warm {
                    digest.word(warm.rounds);
                    digest.word(warm.points);
                    digest.word(warm.loss_bits);
                }
            }
            Mix::Distinct => {
                let base = self.distinct_base();
                // Re-request an evenly spread sample; the daemon must
                // answer from its memo with the identical trace.
                let stride = (replies.len() / 16).max(1);
                for &(n, first) in replies.iter().step_by(stride) {
                    let again = admin.run(&distinct_spec(base, n));
                    checks.check(again.as_ref() == Ok(&first), || {
                        format!("distinct request {n}: first {first:?}, again {again:?}")
                    });
                }
                // The first requests every speed reaches.
                for &(_, reply) in replies.iter().take(64) {
                    digest.word(reply.rounds);
                    digest.word(reply.points);
                    digest.word(reply.loss_bits);
                }
            }
        }

        // Windowed throughput: medians over whole one-second windows.
        let window = seconds.min(1.0);
        let n_windows = ((seconds / window).floor() as usize).max(1);
        let mut windows = vec![(0u64, 0u64, 0u64); n_windows];
        for s in &samples {
            if let Some(w) = windows.get_mut((s.done_s / window) as usize) {
                w.0 += 1;
                w.1 += s.rounds;
                w.2 += s.steps;
            }
        }
        let rates = |pick: fn(&(u64, u64, u64)) -> u64| -> Vec<f64> {
            windows.iter().map(|w| pick(w) as f64 / window).collect()
        };
        let req_rates = rates(|w| w.0);
        let mut latencies: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
        latencies.sort_by(f64::total_cmp);
        let p50 = util::quantile_sorted(&latencies, 0.5);
        let p99 = util::quantile_sorted(&latencies, 0.99);
        let max = *latencies.last().expect("answered > 0");
        let served = answered as f64;
        let (lo, hi) = req_rates
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), &r| {
                (lo.min(r), hi.max(r))
            });

        let e2e = EndToEnd {
            setup_s: 0.0,
            steps_per_s: util::median(&rates(|w| w.2)),
            rounds_per_s: util::median(&rates(|w| w.1)),
            req_per_s: util::median(&req_rates),
            latency_p50_ms: p50,
            peak_rss_mb: util::peak_rss_mb(Some(daemon.pid())).unwrap_or(0.0),
            digest,
            notes: vec![
                format!(
                    "{answered} of {attempted} requests answered on {CONNECTIONS} closed-loop connections in {seconds} s; \
                     windows: n = {n_windows}, min {lo:.0} req/s, max {hi:.0} req/s"
                ),
                format!(
                    "latency from send: p50 {p50:.4} ms, p99 {p99:.4} ms (n = {}, {} beyond), max {max:.4} ms",
                    latencies.len(),
                    latencies.len() / 100
                ),
                format!("sim.digest {:016x}", digest.value()),
            ],
        };
        let layer = vec![
            ("server.latency_p99_ms", p99),
            ("server.latency_max_ms", max),
            (
                "server.requests",
                (stats1.requests - stats0.requests) as f64,
            ),
            (
                "server.dedup_hits",
                (stats1.dedup_hits - stats0.dedup_hits) as f64,
            ),
            ("server.shed", (stats1.shed - stats0.shed) as f64),
            ("server.unique_runs", stats1.unique_runs as f64),
            (
                "journal.records_per_req",
                (journal1 - journal0) as f64 / served,
            ),
            (
                "journal.bytes_per_req",
                (journal_bytes1 - journal_bytes0) as f64 / served,
            ),
            ("server.cpu_user_s", cpu1.0 - cpu0.0),
            ("server.cpu_sys_s", cpu1.1 - cpu0.1),
            (
                "sim.rounds",
                samples.iter().map(|s| s.rounds).sum::<u64>() as f64,
            ),
            (
                "sim.local_steps",
                samples.iter().map(|s| s.steps).sum::<u64>() as f64,
            ),
        ];
        checks.check(stats1.shed == stats0.shed, || {
            format!("{} requests were shed", stats1.shed - stats0.shed)
        });
        // Hits simulate nothing; every distinct request simulates once.
        let simulated = stats1.unique_runs - stats0.unique_runs;
        let expected = match self.mix {
            Mix::Hits => 0,
            Mix::Distinct => answered,
        };
        checks.check(simulated == expected, || {
            format!(
                "{:?} mix: {simulated} runs simulated for {answered} requests",
                self.mix
            )
        });
        Ok(Phase { e2e, layer })
    }

    /// Drains the daemon; a daemon that does not exit 0 is a failure.
    pub fn finish(&mut self, checks: &mut Checks) {
        if let Some(daemon) = self.daemon.take() {
            checks.check(daemon.stop(), || {
                "sweepd did not drain and exit 0".to_string()
            });
        }
    }
}
