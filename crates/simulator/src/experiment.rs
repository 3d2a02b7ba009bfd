//! The interval-based experiment driver: wall-clock intervals of length
//! `T0`, scheduler consultation at each boundary, learning-rate schedules,
//! and trace recording.

use crate::checkpoint::RunCheckpoint;
use crate::{ClusterConfig, FaultConfig, MomentumMode, PasgdCluster};
use adacomm::{CommSchedule, LrSchedule, ScheduleContext};
use data::TrainTestSplit;
use delay::RuntimeModel;
use gradcomp::CodecSpec;
use nn::Network;

/// One recorded point of a training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Simulated wall-clock time in seconds.
    pub clock: f64,
    /// Local iterations per worker completed so far.
    pub iterations: u64,
    /// Epochs of the global dataset processed.
    pub epoch: f64,
    /// Training loss of the synchronized model (evaluation subset).
    pub train_loss: f32,
    /// Test accuracy of the synchronized model.
    pub test_accuracy: f64,
    /// Communication period in effect when the point was recorded.
    pub tau: usize,
    /// Learning rate in effect.
    pub lr: f32,
    /// Cumulative per-worker communication payload in bytes (grows by one
    /// encoded message per averaging round; see
    /// [`PasgdCluster::comm_bytes`]).
    pub comm_bytes: f64,
}

/// A complete training trace for one method.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTrace {
    /// Scheduler name (e.g. `"adacomm"`, `"tau=20"`, `"sync-sgd"`).
    pub name: String,
    /// Recorded points, in time order (first point is at `t = 0`).
    pub points: Vec<TracePoint>,
    /// Largest per-worker encoded message transmitted in any single
    /// averaging round of the run (see
    /// [`PasgdCluster::peak_payload_bytes`]).
    pub peak_payload_bytes: f64,
    /// Total averaging rounds completed over the run.
    pub rounds: u64,
}

impl RunTrace {
    /// Final training loss.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn final_loss(&self) -> f32 {
        self.points.last().expect("non-empty trace").train_loss
    }

    /// Best (highest) test accuracy over the run — the paper's Table 1
    /// metric ("we report the best accuracy within a time budget").
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn best_test_accuracy(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.test_accuracy)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// First wall-clock time at which the training loss reached `target`,
    /// or `None` if it never did. This is the paper's "X minutes to reach
    /// loss Y" speed-up metric.
    pub fn time_to_loss(&self, target: f32) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.train_loss <= target)
            .map(|p| p.clock)
    }

    /// The sequence of `(clock, tau)` pairs — the communication-period
    /// trace plotted under every figure.
    pub fn tau_trace(&self) -> Vec<(f64, usize)> {
        self.points.iter().map(|p| (p.clock, p.tau)).collect()
    }

    /// Minimum training loss seen over the run.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn min_loss(&self) -> f32 {
        self.points
            .iter()
            .map(|p| p.train_loss)
            .fold(f32::INFINITY, f32::min)
    }
}

/// Configuration of an interval-driven experiment.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Interval length `T0` in simulated seconds (paper: 60 s).
    pub interval_secs: f64,
    /// Total simulated training budget in seconds.
    pub total_secs: f64,
    /// Record a trace point roughly every this many simulated seconds.
    pub record_every_secs: f64,
    /// Apply the paper's "decay τ to 1 before decaying η" gating
    /// (Section 4.3.2). Only meaningful with a non-constant [`LrSchedule`].
    pub gate_lr_on_tau: bool,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            interval_secs: 60.0,
            total_secs: 600.0,
            record_every_secs: 10.0,
            gate_lr_on_tau: true,
        }
    }
}

/// Drives a [`PasgdCluster`] under a communication scheduler and a
/// learning-rate schedule, producing a [`RunTrace`].
///
/// This is the top-level API the examples and every figure harness use.
///
/// # Example
///
/// ```
/// use pasgd_sim::{run_experiment, ClusterConfig, ExperimentConfig};
/// use adacomm::{FixedComm, LrSchedule};
/// use data::GaussianMixture;
/// use delay::{CommModel, DelayDistribution, RuntimeModel};
/// use nn::models;
///
/// let split = GaussianMixture::small_test().generate(1);
/// let runtime = RuntimeModel::new(
///     DelayDistribution::constant(0.1),
///     CommModel::constant(0.05),
///     2,
/// );
/// let trace = run_experiment(
///     models::mlp_classifier(8, &[16], 3, 0),
///     split,
///     runtime,
///     ClusterConfig { workers: 2, batch_size: 8, ..ClusterConfig::default() },
///     &mut FixedComm::new(4),
///     &LrSchedule::constant(0.05),
///     &ExperimentConfig {
///         interval_secs: 5.0,
///         total_secs: 20.0,
///         record_every_secs: 2.0,
///         gate_lr_on_tau: false,
///     },
/// );
/// assert!(trace.points.len() > 2);
/// assert!(trace.final_loss() < trace.points[0].train_loss);
/// ```
#[allow(clippy::too_many_arguments)]
pub fn run_experiment(
    model: Network,
    split: TrainTestSplit,
    runtime: RuntimeModel,
    cluster_config: ClusterConfig,
    scheduler: &mut dyn CommSchedule,
    lr_schedule: &LrSchedule,
    config: &ExperimentConfig,
) -> RunTrace {
    run_experiment_cancellable(
        model,
        split,
        runtime,
        cluster_config,
        scheduler,
        lr_schedule,
        config,
        None,
        None,
        None,
    )
    .expect("a fresh run has no checkpoint to reject")
    .into_completed()
}

/// Emits one enriched `"point"` JSONL event to the telemetry sink (if one
/// is installed): the recorded [`TracePoint`] plus the cluster's simulated
/// compute/communication time split, which the `TracePoint` wire format
/// deliberately does not carry. The closure is lazy, so with no sink this
/// costs one relaxed atomic load and zero allocation.
fn emit_point_event(scheduler: &dyn CommSchedule, point: &TracePoint, cluster: &PasgdCluster) {
    telemetry::emit(|| {
        let mut obj = telemetry::json::ObjectBuilder::new();
        obj.str_field("type", "point");
        obj.str_field("run", &scheduler.name());
        obj.num_field("clock", point.clock);
        obj.num_field("iterations", point.iterations as f64);
        obj.num_field("epoch", point.epoch);
        obj.num_field("train_loss", f64::from(point.train_loss));
        obj.num_field("test_accuracy", point.test_accuracy);
        obj.num_field("tau", point.tau as f64);
        obj.num_field("lr", f64::from(point.lr));
        obj.num_field("comm_bytes", point.comm_bytes);
        obj.num_field("compute_secs", cluster.compute_time());
        obj.num_field("comm_secs", cluster.comm_time());
        obj.finish()
    });
}

/// How a resumable experiment run ended.
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// The simulated time budget was exhausted; the full trace follows.
    Completed(RunTrace),
    /// The requested round limit was reached mid-run; the snapshot resumes
    /// the run bit-identically via the `resume` argument of
    /// [`run_experiment_cancellable`].
    Checkpointed(Box<RunCheckpoint>),
}

impl RunOutcome {
    /// The trace of a run that was given neither a round limit nor a stop
    /// predicate, and therefore cannot have parked.
    fn into_completed(self) -> RunTrace {
        match self {
            RunOutcome::Completed(trace) => trace,
            RunOutcome::Checkpointed(_) => unreachable!("no round limit was requested"),
        }
    }
}

/// [`run_experiment`] with mid-run checkpoint/resume and a cooperative
/// stop predicate.
///
/// * `resume` — continue from a [`RunCheckpoint`] instead of starting at
///   `t = 0`. The scheduler is `reset()` and fed the checkpoint's exported
///   state, the cluster is rebuilt from the same model/data/seed and then
///   restored, so the continuation is **bit-identical** to the run that
///   produced the checkpoint. The caller must pass the same model, split,
///   runtime and configuration as the original run; structural mismatches
///   are rejected with `Err` (and the run should be recomputed fresh).
/// * `stop_after_rounds` — return [`RunOutcome::Checkpointed`] once the
///   cluster has completed this many averaging rounds **in total** (resumed
///   rounds included), unless the time budget is exhausted first.
/// * `stop` — polled at every averaging-round boundary (the only points
///   where the cluster state is checkpointable); once it returns `true`
///   while simulated time remains, the run returns
///   [`RunOutcome::Checkpointed`] exactly as if a round limit had been
///   hit. The checkpoint resumes bit-identically, so a deadline-cancelled
///   or drain-preempted run loses no work — the predicate only decides
///   *when* the run parks, never *what* it computes. A run whose final
///   round exhausts the budget completes normally even if `stop` fires on
///   the same round.
///
/// Fresh runs (`resume = None`) never return `Err`.
#[allow(clippy::too_many_arguments)]
pub fn run_experiment_cancellable(
    model: Network,
    split: TrainTestSplit,
    runtime: RuntimeModel,
    cluster_config: ClusterConfig,
    scheduler: &mut dyn CommSchedule,
    lr_schedule: &LrSchedule,
    config: &ExperimentConfig,
    resume: Option<&RunCheckpoint>,
    stop_after_rounds: Option<u64>,
    stop: Option<&(dyn Fn() -> bool + Sync)>,
) -> Result<RunOutcome, String> {
    assert!(
        config.interval_secs > 0.0 && config.total_secs > 0.0,
        "experiment durations must be positive"
    );
    // Root span of a run: its *self* time is the driver-loop and
    // scheduler overhead left over after the compute/codec/average/eval
    // phases inside claim theirs.
    let _run_span = telemetry::span("phase.simulate");
    telemetry::counter("sim.runs").inc();
    let mut cluster = PasgdCluster::new(model, split, runtime, cluster_config);

    let mut points;
    let mut interval;
    let mut last_loss;
    let mut tau;
    let mut next_record;
    let initial_loss;
    let initial_lr;
    if let Some(ck) = resume {
        cluster.restore(&ck.cluster)?;
        if ck.points.is_empty() {
            return Err("checkpoint records no trace points".to_string());
        }
        if ck.tau == 0 {
            return Err("checkpoint has a zero communication period".to_string());
        }
        if !(ck.next_record.is_finite() && ck.next_record > 0.0) {
            return Err(format!("invalid recording deadline {}", ck.next_record));
        }
        scheduler.reset();
        scheduler.import_state(&ck.scheduler);
        points = ck.points.clone();
        interval = ck.interval;
        last_loss = ck.last_loss;
        tau = ck.tau;
        next_record = ck.next_record;
        initial_loss = ck.initial_loss;
        initial_lr = ck.initial_lr;
    } else {
        initial_lr = lr_schedule.initial();
        cluster.set_lr(initial_lr);

        initial_loss = f64::from(cluster.eval_train_loss());
        points = vec![TracePoint {
            clock: 0.0,
            iterations: 0,
            epoch: 0.0,
            train_loss: initial_loss as f32,
            test_accuracy: cluster.eval_test_accuracy(),
            tau: 0,
            lr: initial_lr,
            comm_bytes: 0.0,
        }];

        interval = 0usize;
        last_loss = initial_loss;
        let initial_ctx = ScheduleContext {
            interval_index: 0,
            wall_clock: 0.0,
            current_loss: initial_loss,
            initial_loss,
            current_lr: initial_lr,
            initial_lr,
            degraded_frac: 0.0,
        };
        tau = scheduler.next_tau(&initial_ctx);
        if let Some(codec) = scheduler.codec_override(&initial_ctx) {
            cluster.set_codec(codec);
        }
        points[0].tau = tau;
        next_record = config.record_every_secs;
    }

    while cluster.clock() < config.total_secs {
        // Interval boundary: consult the scheduler with the latest loss.
        let boundary = (interval + 1) as f64 * config.interval_secs;
        if cluster.clock() >= boundary {
            interval = (cluster.clock() / config.interval_secs) as usize;
            // The boundary loss feeds only the scheduler; skip the
            // evaluation forward pass for schedulers that never read it
            // (fixed-τ baselines). `last_loss` then carries the most
            // recent recorded loss, which such schedulers ignore.
            if scheduler.needs_loss() {
                last_loss = f64::from(cluster.eval_train_loss());
            }
            let ctx = ScheduleContext {
                interval_index: interval,
                wall_clock: cluster.clock(),
                current_loss: last_loss,
                initial_loss,
                current_lr: cluster.lr(),
                initial_lr,
                degraded_frac: cluster.degraded_frac(),
            };
            tau = scheduler.next_tau(&ctx);
            if let Some(codec) = scheduler.codec_override(&ctx) {
                cluster.set_codec(codec);
            }
        }

        // Learning-rate schedule (optionally gated on tau reaching 1).
        let epoch = cluster.epochs();
        let lr = if config.gate_lr_on_tau {
            lr_schedule.lr_at_gated(epoch, tau)
        } else {
            lr_schedule.lr_at(epoch)
        };
        if (lr - cluster.lr()).abs() > f32::EPSILON * lr.abs() {
            cluster.set_lr(lr);
        }

        let _ = cluster.run_round(tau);

        if cluster.clock() >= next_record {
            points.push(TracePoint {
                clock: cluster.clock(),
                iterations: cluster.iterations(),
                epoch: cluster.epochs(),
                train_loss: cluster.eval_train_loss(),
                test_accuracy: cluster.eval_test_accuracy(),
                tau,
                lr: cluster.lr(),
                comm_bytes: cluster.comm_bytes(),
            });
            emit_point_event(&*scheduler, points.last().expect("just pushed"), &cluster);
            while next_record <= cluster.clock() {
                next_record += config.record_every_secs;
            }
            last_loss = f64::from(points.last().expect("just pushed").train_loss);
        }

        // Round-boundary checkpoint: only while the budget has time left —
        // a run whose last round exhausted the budget completes normally.
        if cluster.clock() < config.total_secs {
            let limit_hit = stop_after_rounds.is_some_and(|limit| cluster.rounds() >= limit);
            let cancelled = !limit_hit && stop.is_some_and(|s| s());
            if cancelled {
                telemetry::counter("sim.cancelled_runs").inc();
            }
            if limit_hit || cancelled {
                return Ok(RunOutcome::Checkpointed(Box::new(RunCheckpoint {
                    points,
                    interval,
                    last_loss,
                    tau,
                    next_record,
                    initial_loss,
                    initial_lr,
                    scheduler: scheduler.export_state(),
                    cluster: cluster.checkpoint(),
                })));
            }
        }
    }
    // Always record the terminal state.
    points.push(TracePoint {
        clock: cluster.clock(),
        iterations: cluster.iterations(),
        epoch: cluster.epochs(),
        train_loss: cluster.eval_train_loss(),
        test_accuracy: cluster.eval_test_accuracy(),
        tau,
        lr: cluster.lr(),
        comm_bytes: cluster.comm_bytes(),
    });
    emit_point_event(&*scheduler, points.last().expect("just pushed"), &cluster);
    let _ = last_loss;

    Ok(RunOutcome::Completed(RunTrace {
        name: scheduler.name(),
        points,
        peak_payload_bytes: cluster.peak_payload_bytes(),
        rounds: cluster.rounds(),
    }))
}

/// Everything needed to build identical clusters for a family of methods —
/// the comparison harness behind Figures 9–13.
///
/// Each call to [`ExperimentSuite::run`] constructs a fresh cluster from the
/// same model/data/seed so that methods differ *only* in their scheduler,
/// learning-rate schedule and momentum mode.
pub struct ExperimentSuite {
    model: Network,
    split: TrainTestSplit,
    runtime: RuntimeModel,
    cluster_config: ClusterConfig,
    experiment_config: ExperimentConfig,
}

impl ExperimentSuite {
    /// Creates a suite with shared model, data and delay model.
    pub fn new(
        model: Network,
        split: TrainTestSplit,
        runtime: RuntimeModel,
        cluster_config: ClusterConfig,
        experiment_config: ExperimentConfig,
    ) -> Self {
        ExperimentSuite {
            model,
            split,
            runtime,
            cluster_config,
            experiment_config,
        }
    }

    /// Runs one method with the suite's configuration and returns its
    /// trace.
    pub fn run(&self, scheduler: &mut dyn CommSchedule, lr_schedule: &LrSchedule) -> RunTrace {
        self.run_configured(scheduler, lr_schedule, None, None, None, None, None)
    }

    /// Runs one method with per-run overrides; `None` keeps the suite's
    /// configured value. `momentum` exists because the momentum figures
    /// give τ = 1 plain momentum but PASGD block momentum; `gate_lr_on_tau`
    /// because the paper's "decay τ to 1 before decaying η" policy
    /// (Section 4.3.2) applies to the *adaptive* method, while fixed-τ
    /// baselines decay the learning rate at the scheduled epochs
    /// unconditionally; `codec` applies one gradient-compression codec to
    /// every averaging message; `budget` is `(total_secs,
    /// record_every_secs)`.
    #[allow(clippy::too_many_arguments)]
    pub fn run_configured(
        &self,
        scheduler: &mut dyn CommSchedule,
        lr_schedule: &LrSchedule,
        momentum: Option<MomentumMode>,
        gate_lr_on_tau: Option<bool>,
        codec: Option<CodecSpec>,
        budget: Option<(f64, f64)>,
        fault: Option<FaultConfig>,
    ) -> RunTrace {
        self.run_configured_cancellable(
            scheduler,
            lr_schedule,
            momentum,
            gate_lr_on_tau,
            codec,
            budget,
            fault,
            None,
            None,
            None,
        )
        .expect("a fresh run has no checkpoint to reject")
        .into_completed()
    }

    /// [`ExperimentSuite::run_configured`] with mid-run checkpoint/resume
    /// and a cooperative stop predicate — see
    /// [`run_experiment_cancellable`] for the `resume` /
    /// `stop_after_rounds` / `stop` semantics. A resumed run must pass the
    /// same overrides as the run that produced the checkpoint. This is the
    /// entry point the sweep engine executes a declarative `SweepSpec`
    /// through, and the one the sweep service's deadline- and
    /// drain-preemptible runs use.
    #[allow(clippy::too_many_arguments)]
    pub fn run_configured_cancellable(
        &self,
        scheduler: &mut dyn CommSchedule,
        lr_schedule: &LrSchedule,
        momentum: Option<MomentumMode>,
        gate_lr_on_tau: Option<bool>,
        codec: Option<CodecSpec>,
        budget: Option<(f64, f64)>,
        fault: Option<FaultConfig>,
        resume: Option<&RunCheckpoint>,
        stop_after_rounds: Option<u64>,
        stop: Option<&(dyn Fn() -> bool + Sync)>,
    ) -> Result<RunOutcome, String> {
        let mut cluster_config = self.cluster_config.clone();
        if let Some(m) = momentum {
            cluster_config.momentum = m;
        }
        if let Some(c) = codec {
            cluster_config.codec = c;
        }
        if let Some(f) = fault {
            cluster_config.fault = f;
        }
        let mut experiment_config = self.experiment_config.clone();
        if let Some(g) = gate_lr_on_tau {
            experiment_config.gate_lr_on_tau = g;
        }
        if let Some((total_secs, record_every_secs)) = budget {
            assert!(
                total_secs > 0.0 && record_every_secs > 0.0,
                "budget durations must be positive"
            );
            experiment_config.total_secs = total_secs;
            experiment_config.record_every_secs = record_every_secs;
        }
        run_experiment_cancellable(
            self.model.clone(),
            self.split.clone(),
            self.runtime,
            cluster_config,
            scheduler,
            lr_schedule,
            &experiment_config,
            resume,
            stop_after_rounds,
            stop,
        )
    }

    /// The experiment configuration (for reporting).
    pub fn experiment_config(&self) -> &ExperimentConfig {
        &self.experiment_config
    }

    /// The runtime (delay) model runs execute under (for reporting).
    pub fn runtime(&self) -> &RuntimeModel {
        &self.runtime
    }

    /// Trainable parameter count of the shared model — the size one
    /// full-precision averaging message is priced on.
    pub fn model_param_count(&self) -> usize {
        self.model.param_count()
    }

    /// Returns the suite with a replaced simulated-time budget and
    /// recording cadence — the hook the perf harness uses to run smoke
    /// slices of the canonical scenarios without rebuilding them.
    ///
    /// # Panics
    ///
    /// Panics if either duration is not positive.
    pub fn with_budget(mut self, total_secs: f64, record_every_secs: f64) -> Self {
        assert!(
            total_secs > 0.0 && record_every_secs > 0.0,
            "budget durations must be positive"
        );
        self.experiment_config.total_secs = total_secs;
        self.experiment_config.record_every_secs = record_every_secs;
        self
    }

    /// Returns the suite with a replaced scheduler-consultation interval
    /// `T0` — the knob the interval-length ablation sweeps.
    ///
    /// # Panics
    ///
    /// Panics if `interval_secs` is not positive.
    pub fn with_interval(mut self, interval_secs: f64) -> Self {
        assert!(interval_secs > 0.0, "interval must be positive");
        self.experiment_config.interval_secs = interval_secs;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adacomm::{AdaComm, FixedComm};
    use data::GaussianMixture;
    use delay::{CommModel, DelayDistribution};

    fn quick_suite(seed: u64) -> ExperimentSuite {
        let split = GaussianMixture::small_test().generate(seed);
        let runtime = RuntimeModel::new(
            DelayDistribution::constant(0.1),
            CommModel::constant(0.1),
            2,
        );
        ExperimentSuite::new(
            nn::models::mlp_classifier(8, &[16], 3, 5),
            split,
            runtime,
            ClusterConfig {
                workers: 2,
                batch_size: 8,
                lr: 0.05,
                weight_decay: 0.0,
                momentum: MomentumMode::None,
                averaging: crate::AveragingStrategy::FullAverage,
                codec: gradcomp::CodecSpec::Identity,
                seed,
                eval_subset: 96,
                fault: FaultConfig::NONE,
            },
            ExperimentConfig {
                interval_secs: 4.0,
                total_secs: 24.0,
                record_every_secs: 2.0,
                gate_lr_on_tau: false,
            },
        )
    }

    #[test]
    fn trace_is_time_ordered_and_loss_drops() {
        let suite = quick_suite(1);
        let trace = suite.run(&mut FixedComm::new(4), &adacomm::LrSchedule::constant(0.05));
        assert!(trace.points.len() >= 4);
        for w in trace.points.windows(2) {
            assert!(w[1].clock >= w[0].clock, "trace must be time-ordered");
            assert!(w[1].iterations >= w[0].iterations);
        }
        assert!(trace.final_loss() < trace.points[0].train_loss);
        assert_eq!(trace.name, "tau=4");
    }

    #[test]
    fn budget_is_respected() {
        let suite = quick_suite(2);
        let trace = suite.run(&mut FixedComm::new(2), &adacomm::LrSchedule::constant(0.05));
        let last = trace.points.last().unwrap();
        // The run can overshoot by at most one round.
        assert!(
            last.clock >= 24.0 && last.clock < 30.0,
            "clock {}",
            last.clock
        );
    }

    #[test]
    fn adacomm_tau_decreases_over_run() {
        let suite = quick_suite(3);
        let trace = suite.run(
            &mut AdaComm::with_tau0(8),
            &adacomm::LrSchedule::constant(0.05),
        );
        let taus: Vec<usize> = trace.tau_trace().iter().map(|&(_, t)| t).collect();
        assert_eq!(*taus.first().unwrap(), 8);
        assert!(
            taus.last().unwrap() < taus.first().unwrap(),
            "tau should decrease: {taus:?}"
        );
        // Monotone non-increasing under fixed lr.
        for w in taus.windows(2) {
            assert!(w[1] <= w[0], "tau increased: {taus:?}");
        }
    }

    #[test]
    fn time_to_loss_is_monotone_in_target() {
        let suite = quick_suite(4);
        let trace = suite.run(&mut FixedComm::new(4), &adacomm::LrSchedule::constant(0.05));
        let loose = trace.time_to_loss(trace.points[0].train_loss);
        let tight = trace.time_to_loss(trace.min_loss());
        assert!(loose.unwrap() <= tight.unwrap());
        assert_eq!(trace.time_to_loss(-1.0), None);
    }

    #[test]
    fn identical_seeds_give_identical_traces() {
        let t1 = quick_suite(5).run(&mut FixedComm::new(4), &adacomm::LrSchedule::constant(0.05));
        let t2 = quick_suite(5).run(&mut FixedComm::new(4), &adacomm::LrSchedule::constant(0.05));
        assert_eq!(t1, t2);
    }

    #[test]
    fn momentum_override_applies() {
        let suite = quick_suite(6);
        let plain = suite.run(&mut FixedComm::new(4), &adacomm::LrSchedule::constant(0.05));
        let block = suite.run_configured(
            &mut FixedComm::new(4),
            &adacomm::LrSchedule::constant(0.05),
            Some(MomentumMode::paper_block()),
            None,
            None,
            None,
            None,
        );
        assert_ne!(plain, block, "momentum must change the trajectory");
    }

    #[test]
    fn best_accuracy_at_least_first() {
        let suite = quick_suite(7);
        let trace = suite.run(&mut FixedComm::new(2), &adacomm::LrSchedule::constant(0.05));
        assert!(trace.best_test_accuracy() >= trace.points[0].test_accuracy);
    }

    #[test]
    fn cancelled_run_resumes_bit_identically() {
        use std::sync::atomic::{AtomicU32, Ordering};

        let lr = adacomm::LrSchedule::constant(0.05);
        let straight = quick_suite(8).run(&mut FixedComm::new(4), &lr);

        // Cancel after the stop predicate has been polled three times
        // (i.e. at the third round boundary), then resume to completion.
        let polls = AtomicU32::new(0);
        let stop = move || polls.fetch_add(1, Ordering::SeqCst) + 1 >= 3;
        let suite = quick_suite(8);
        let outcome = suite
            .run_configured_cancellable(
                &mut FixedComm::new(4),
                &lr,
                None,
                None,
                None,
                None,
                None,
                None,
                None,
                Some(&stop),
            )
            .expect("fresh run");
        let ck = match outcome {
            RunOutcome::Checkpointed(ck) => ck,
            RunOutcome::Completed(_) => panic!("stop predicate must park the run"),
        };
        assert!(ck.cluster.clock < 24.0, "parked mid-run");

        let resumed = suite
            .run_configured_cancellable(
                &mut FixedComm::new(4),
                &lr,
                None,
                None,
                None,
                None,
                None,
                Some(&ck),
                None,
                None,
            )
            .expect("checkpoint matches the suite");
        match resumed {
            RunOutcome::Completed(trace) => assert_eq!(trace, straight),
            RunOutcome::Checkpointed(_) => panic!("no stop requested on resume"),
        }
    }

    #[test]
    fn stop_predicate_never_fires_means_completed() {
        let lr = adacomm::LrSchedule::constant(0.05);
        let straight = quick_suite(9).run(&mut FixedComm::new(4), &lr);
        let stop = || false;
        let outcome = quick_suite(9)
            .run_configured_cancellable(
                &mut FixedComm::new(4),
                &lr,
                None,
                None,
                None,
                None,
                None,
                None,
                None,
                Some(&stop),
            )
            .expect("fresh run");
        match outcome {
            RunOutcome::Completed(trace) => assert_eq!(trace, straight),
            RunOutcome::Checkpointed(_) => panic!("predicate never fired"),
        }
    }
}
