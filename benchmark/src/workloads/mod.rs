//! The five workloads and the two runners (in-process and service) that
//! apply the timing rule to them.

pub mod conv_full;
pub mod parts;
pub mod round_paths;
pub mod service;
pub mod sweep_cold;

use crate::spans::Recorder;
use crate::util::{self, Digest};
use pasgd_sim::RunTrace;
use std::path::PathBuf;
use std::time::Instant;

/// How many times one run sets up (the median is `setup_s`).
const SETUPS_PER_RUN: usize = 5;

/// What a run was asked to do.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub seed: u64,
    /// Seconds of measured work.
    pub seconds: f64,
    /// One-tenth-size bodies for `smoke.sh` (schema and checks only).
    pub smoke: bool,
    /// Where this pass may write on the checkout's disk (run stores, the
    /// span dump).
    pub scratch: PathBuf,
    /// The service-state directory (socket, store, journal): a private
    /// tmpfs inside the checkout where the kernel allows one (see
    /// `statefs`), else a plain directory.
    pub state: PathBuf,
}

impl RunConfig {
    /// Set-ups per run: several, so `setup_s` is a median — one in a smoke
    /// run, which judges no timing.
    pub fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUPS_PER_RUN
        }
    }
}

/// Output checks. Every figure, run, response and explicit comparison is
/// one attempted operation; `failed / attempted` is `fail_share`.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(what());
            }
        }
    }

    /// A trace is sane when every loss is finite and it ends below its
    /// start.
    pub fn trace(&mut self, context: &str, trace: &RunTrace) {
        let finite = trace.points.iter().all(|p| p.train_loss.is_finite());
        let improved = match (trace.points.first(), trace.points.last()) {
            (Some(first), Some(last)) => last.train_loss < first.train_loss,
            _ => false,
        };
        self.check(finite && improved, || {
            format!(
                "{context}: trace {} has a non-finite loss or did not improve: {:?}",
                trace.name,
                trace
                    .points
                    .iter()
                    .map(|p| p.train_loss)
                    .collect::<Vec<_>>()
            )
        });
    }

    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What one repetition of an in-process body did.
pub struct BodyOut {
    /// Seconds spent inside the measured calls (checks excluded).
    pub wall: f64,
    /// Worker-local SGD steps in the traces delivered (Σ iterations × m).
    pub steps: u64,
    /// Averaging rounds in the traces delivered.
    pub rounds: u64,
    /// Cumulative per-worker payload bytes of the traces delivered.
    pub comm_bytes: f64,
    /// Wall milliseconds of each operation (figure or run) answered.
    pub op_ms: Vec<f64>,
    pub digest: Digest,
    /// Workload-specific layer values (`engine.*`, `figures.*`).
    pub layer: Vec<(&'static str, f64)>,
}

/// An in-process workload: a set-up (with warm-up) and a fixed body.
pub trait Batch {
    fn setup(&mut self);
    fn body(&mut self, rec: &mut Recorder, checks: &mut Checks) -> BodyOut;
}

/// The numbers a user of the system would see, one set per run.
pub struct EndToEnd {
    pub setup_s: f64,
    pub steps_per_s: f64,
    pub rounds_per_s: f64,
    pub req_per_s: f64,
    pub latency_p50_ms: f64,
    pub peak_rss_mb: f64,
    pub digest: Digest,
    /// Human-readable detail lines (min/max/n, digest, p99 …).
    pub notes: Vec<String>,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("setup_s", self.setup_s),
            ("steps_per_s", self.steps_per_s),
            ("rounds_per_s", self.rounds_per_s),
            ("req_per_s", self.req_per_s),
            ("latency_p50_ms", self.latency_p50_ms),
            ("peak_rss_mb", self.peak_rss_mb),
        ]
    }
}

/// Sets up `count` times; returns the median seconds. The last set-up is
/// the one the measurement then runs on.
pub fn timed_setups(
    count: usize,
    mut setup: impl FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    let mut times = Vec::with_capacity(count);
    for _ in 0..count {
        let t0 = Instant::now();
        setup()?;
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok(util::median(&times))
}

/// The in-process timing rule: set up, then repeat the fixed body until
/// `seconds` of it are timed (to the nearest whole repetition, at least
/// one), and report medians over the repetitions.
pub fn run_batch(workload: &mut dyn Batch, cfg: &RunConfig, checks: &mut Checks) -> EndToEnd {
    let setup_s = timed_setups(cfg.setups(), || {
        workload.setup();
        Ok(())
    })
    .expect("an in-process set-up reports no errors");
    let mut rec = Recorder::new(false);
    let mut reps: Vec<BodyOut> = Vec::new();
    let mut timed = 0.0;
    // Peak memory is read after the first body: what one invocation costs
    // a user. Later repetitions only add allocator retention, which varies
    // with the parallel engine's scheduling (177–235 MiB over three
    // `sweep_cold` bodies against 167–169 MiB after one).
    let mut peak_rss_mb = 0.0;
    // Stop once another repetition would overshoot by more than it
    // undershoots: n = round(seconds / body).
    while reps.is_empty() || timed + 0.5 * timed / reps.len() as f64 <= cfg.seconds {
        let out = workload.body(&mut rec, checks);
        timed += out.wall;
        if reps.is_empty() {
            peak_rss_mb = util::peak_rss_mb(None).unwrap_or(0.0);
        }
        reps.push(out);
    }
    let first = &reps[0];
    checks.check(reps.iter().all(|r| r.digest == first.digest), || {
        "sim.digest differs between repetitions of the same body".to_string()
    });
    let walls: Vec<f64> = reps.iter().map(|r| r.wall).collect();
    let wall = util::median(&walls);
    // Operations differ in kind (a Top-K run is not an identity run), so
    // the latency is the median over operations of each operation's own
    // median across repetitions — pooling would put the median on the
    // boundary between two kinds.
    let op_medians: Vec<f64> = (0..first.op_ms.len())
        .map(|op| util::median(&reps.iter().map(|r| r.op_ms[op]).collect::<Vec<_>>()))
        .collect();
    let (lo, hi) = walls.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &w| {
        (lo.min(w), hi.max(w))
    });
    EndToEnd {
        setup_s,
        steps_per_s: first.steps as f64 / wall,
        rounds_per_s: first.rounds as f64 / wall,
        req_per_s: first.op_ms.len() as f64 / wall,
        latency_p50_ms: util::median(&op_medians),
        peak_rss_mb,
        digest: first.digest,
        notes: vec![
            format!(
                "body wall: median {wall:.4} s, min {lo:.4} s, max {hi:.4} s, n = {} ({})",
                walls.len(),
                walls
                    .iter()
                    .map(|w| format!("{w:.3}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
            format!(
                "per body: {} worker-steps, {} rounds, {} operations; sim.digest {:016x}",
                first.steps,
                first.rounds,
                first.op_ms.len(),
                first.digest.value()
            ),
            format!(
                "operation ms, first body: {}",
                first
                    .op_ms
                    .iter()
                    .map(|ms| format!("{ms:.1}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
        ],
    }
}

/// Folds a set of delivered traces into the counts a [`BodyOut`] carries.
pub fn tally(traces: &[RunTrace], workers: u64) -> (u64, u64, f64, Digest) {
    let mut digest = Digest::new();
    let (mut steps, mut rounds, mut bytes) = (0u64, 0u64, 0.0f64);
    for t in traces {
        digest.trace(t);
        rounds += t.rounds;
        if let Some(last) = t.points.last() {
            steps += last.iterations * workers;
            bytes += last.comm_bytes;
        }
    }
    (steps, rounds, bytes, digest)
}
