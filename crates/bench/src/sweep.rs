//! The declarative sweep engine: run-level parallelism as a subsystem.
//!
//! Every training run a figure/ablation/extension executes is described by
//! a [`SweepSpec`] — scenario, scheduler, learning-rate mode, momentum,
//! codec, budget — instead of an imperative loop. A [`SweepEngine`]
//! executes batches of specs **concurrently in-process** on the shared
//! worker pool (each run's inner worker fan-out nests inside the outer
//! run-level parallelism; a blocked join runs only its own chunks, so a
//! run never stacks another queued run on its stack), with:
//!
//! * **deterministic output ordering** — results come back in spec order
//!   regardless of execution interleaving;
//! * **deterministic seeding** — every run derives its RNG streams from
//!   the spec itself (scenario seeds), and runs share no mutable state, so
//!   a parallel sweep is bit-identical to running the same specs one by
//!   one;
//! * **content-addressed memoization** — identical specs (across figures,
//!   not just within one) execute once; e.g. Table 1 re-reports the very
//!   runs Figures 9/10 plot, and the engine hands it the cached traces.
//!
//! The scenario registry ([`ScenarioSpec`]) is the declarative counterpart
//! for *suites*: each variant names one shared model/data/delay
//! configuration, built once and reused (read-only) by every run that
//! references it.

use crate::scenarios::{scenario, ModelFamily};
use crate::store::{CacheStats, LoadOutcome, ParkedOutcome, RunStore};
use crate::supervisor::{self, SupervisorPolicy};
use crate::Scale;
use adacomm::{
    AdaComm, AdaCommCompress, AdaCommConfig, CommSchedule, FixedComm, LrCoupling, LrSchedule,
};
use data::GaussianMixture;
use delay::{CommModel, DelayDistribution, RuntimeModel};
use gradcomp::CodecSpec;
use nn::models;
use pasgd_sim::{
    AveragingStrategy, ClusterConfig, ExperimentConfig, ExperimentSuite, FaultConfig, MomentumMode,
    RunCheckpoint, RunOutcome, RunTrace,
};
use rayon::prelude::*;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// A shared experiment suite a sweep run executes in. Each variant is one
/// model/data/delay configuration; the engine builds it once and shares it
/// (read-only) across every run that references it.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioSpec {
    /// The canonical paper scenario (see [`crate::scenarios::scenario`]).
    Canonical {
        /// Architecture family (delay profile + τ grid).
        family: ModelFamily,
        /// 10 (CIFAR-10-like) or 100 (CIFAR-100-like).
        classes: usize,
        /// Cluster size (4 in the main figures, 8 in the appendix).
        workers: usize,
        /// Quick/full/smoke scale.
        scale: Scale,
    },
    /// Canonical with an overridden scheduler-consultation interval `T0`
    /// (the interval-length ablation).
    CanonicalT0 {
        /// Architecture family.
        family: ModelFamily,
        /// Task classes.
        classes: usize,
        /// Cluster size.
        workers: usize,
        /// Experiment scale.
        scale: Scale,
        /// The overridden interval length in simulated seconds. Stored as
        /// bits so the spec is `Eq`-like and hashes stably.
        interval_millis: u64,
    },
    /// Figure 1's small conceptual suite (α = 4, 5-class mixture).
    Concept,
    /// The averaging-strategy extension's suite.
    Averaging {
        /// How local models are combined at synchronization points.
        strategy: AveragingStrategy,
        /// Experiment scale.
        scale: Scale,
    },
    /// The compression extension's bytes-aware suite (90% of the mean
    /// communication delay is bandwidth).
    Compression {
        /// Architecture family.
        family: ModelFamily,
        /// Experiment scale.
        scale: Scale,
    },
}

/// A scenario built into an executable form: the shared suite plus the
/// learning-rate schedules [`LrSpec`] resolves against.
pub struct BuiltScenario {
    /// The shared (read-only) experiment suite.
    pub suite: ExperimentSuite,
    /// The scenario's constant learning-rate schedule.
    pub fixed_lr: LrSchedule,
    /// The scenario's step schedule.
    pub variable_lr: LrSchedule,
}

impl ScenarioSpec {
    /// Convenience constructor for the `T0` ablation variant.
    pub fn canonical_t0(
        family: ModelFamily,
        classes: usize,
        workers: usize,
        scale: Scale,
        interval_secs: f64,
    ) -> Self {
        ScenarioSpec::CanonicalT0 {
            family,
            classes,
            workers,
            scale,
            interval_millis: (interval_secs * 1000.0).round() as u64,
        }
    }

    /// Builds the scenario's suite and learning-rate schedules.
    pub fn build(&self) -> BuiltScenario {
        match *self {
            ScenarioSpec::Canonical {
                family,
                classes,
                workers,
                scale,
            } => {
                let sc = scenario(family, classes, workers, scale);
                BuiltScenario {
                    suite: sc.suite,
                    fixed_lr: sc.fixed_lr,
                    variable_lr: sc.variable_lr,
                }
            }
            ScenarioSpec::CanonicalT0 {
                family,
                classes,
                workers,
                scale,
                interval_millis,
            } => {
                let sc = scenario(family, classes, workers, scale);
                BuiltScenario {
                    suite: sc.suite.with_interval(interval_millis as f64 / 1000.0),
                    fixed_lr: sc.fixed_lr,
                    variable_lr: sc.variable_lr,
                }
            }
            ScenarioSpec::Concept => build_concept(),
            ScenarioSpec::Averaging { strategy, scale } => build_averaging(strategy, scale),
            ScenarioSpec::Compression { family, scale } => build_compression(family, scale),
        }
    }
}

/// Figure 1's suite: communication-bound constant delays where the
/// iterations-vs-wall-clock x-axis change matters most.
fn build_concept() -> BuiltScenario {
    let workers = 4;
    let runtime = RuntimeModel::new(
        DelayDistribution::constant(0.05),
        CommModel::constant(0.2),
        workers,
    );
    let split = GaussianMixture {
        num_classes: 5,
        dim: 64,
        train_size: 2048,
        test_size: 512,
        separation: 2.5,
        noise_std: 1.3,
        warp: true,
        label_noise: 0.05,
    }
    .generate(21);
    let suite = ExperimentSuite::new(
        nn::models::mlp_classifier(64, &[32], 5, 3),
        split,
        runtime,
        ClusterConfig {
            workers,
            batch_size: 16,
            lr: 0.1,
            weight_decay: 0.0,
            momentum: MomentumMode::None,
            averaging: AveragingStrategy::FullAverage,
            codec: CodecSpec::Identity,
            seed: 17,
            eval_subset: 512,
            fault: FaultConfig::NONE,
        },
        ExperimentConfig {
            interval_secs: 20.0,
            total_secs: 240.0,
            record_every_secs: 8.0,
            gate_lr_on_tau: false,
        },
    );
    let lr = LrSchedule::constant(0.1);
    BuiltScenario {
        suite,
        fixed_lr: lr.clone(),
        variable_lr: lr,
    }
}

/// The averaging-strategy extension's suite (shifted-exponential compute,
/// constant communication).
fn build_averaging(strategy: AveragingStrategy, scale: Scale) -> BuiltScenario {
    let workers = 4;
    let runtime = RuntimeModel::new(
        DelayDistribution::shifted_exponential(0.13, 0.05),
        CommModel::constant(0.72),
        workers,
    );
    let split = GaussianMixture::cifar10_like().generate(77);
    let total_secs = if scale.is_full() { 1200.0 } else { 480.0 };
    let suite = ExperimentSuite::new(
        nn::models::mlp_classifier(256, &[64], 10, 31),
        split,
        runtime,
        ClusterConfig {
            workers,
            batch_size: 32,
            lr: 0.2,
            weight_decay: 5e-4,
            momentum: MomentumMode::None,
            averaging: strategy,
            codec: CodecSpec::Identity,
            seed: 9,
            eval_subset: 1024,
            fault: FaultConfig::NONE,
        },
        ExperimentConfig {
            interval_secs: 20.0,
            total_secs,
            record_every_secs: total_secs / 30.0,
            gate_lr_on_tau: false,
        },
    );
    let lr = LrSchedule::constant(0.2);
    BuiltScenario {
        suite,
        fixed_lr: lr.clone(),
        variable_lr: lr,
    }
}

/// The compression extension's bytes-aware suite: 90% of the profile's
/// mean communication delay is bandwidth, calibrated so a full-precision
/// message costs exactly the profile's original delay.
fn build_compression(family: ModelFamily, scale: Scale) -> BuiltScenario {
    let workers = 4usize;
    let time_scale = if scale.is_full() { 1.0 } else { 4.0 };
    let profile = family.profile().time_scaled(time_scale);
    let classes = 100usize;
    let model = match (family, scale) {
        (ModelFamily::VggLike, Scale::Full) => models::vgg_like(1, 16, classes, 77),
        (ModelFamily::ResnetLike, Scale::Full) => models::resnet_like(1, 16, classes, 77),
        (_, _) => models::mlp_classifier(256, &[64], classes, 77),
    };
    let full_bytes: usize = model.param_count() * 4;
    let runtime = profile.bytes_aware_runtime_model(workers, 0.9, full_bytes as f64);
    let split = GaussianMixture::cifar100_like().generate(1244);
    let total_secs = match scale {
        Scale::Full => 2100.0,
        Scale::Quick => 600.0,
        Scale::Smoke => 90.0,
    };
    let lr0 = 0.1f32;
    let suite = ExperimentSuite::new(
        model,
        split,
        runtime,
        ClusterConfig {
            workers,
            batch_size: 32,
            lr: lr0,
            weight_decay: 5e-4,
            seed: 42,
            eval_subset: 1024,
            ..ClusterConfig::default()
        },
        ExperimentConfig {
            interval_secs: if scale.is_full() { 60.0 } else { 20.0 },
            total_secs,
            record_every_secs: total_secs / 40.0,
            gate_lr_on_tau: false,
        },
    );
    let lr = LrSchedule::constant(lr0);
    BuiltScenario {
        suite,
        fixed_lr: lr.clone(),
        variable_lr: lr,
    }
}

/// Which communication scheduler a sweep run uses.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulerSpec {
    /// Fixed-τ baseline (`tau == 1` is fully synchronous SGD).
    Fixed {
        /// The communication period.
        tau: usize,
    },
    /// The paper's adaptive scheduler.
    AdaComm {
        /// Initial period.
        tau0: usize,
        /// Rule-18 multiplicative decay.
        gamma: f64,
        /// Learning-rate coupling (eqs. 19/20).
        lr_coupling: LrCoupling,
        /// Period cap.
        max_tau: usize,
    },
    /// The τ × compression co-adaptive schedule.
    AdaCommCompress {
        /// Initial period.
        tau0: usize,
        /// Rule-18 multiplicative decay.
        gamma: f64,
        /// Period cap.
        max_tau: usize,
        /// Starting codec.
        codec: CodecSpec,
    },
}

impl SchedulerSpec {
    /// The paper's AdaComm configuration for a scenario τ0: γ = 1/2, no lr
    /// coupling, period capped at `max(256, τ0)`.
    pub fn adacomm(tau0: usize) -> Self {
        SchedulerSpec::AdaComm {
            tau0,
            gamma: 0.5,
            lr_coupling: LrCoupling::None,
            max_tau: 256.max(tau0),
        }
    }

    /// AdaComm with an explicit lr coupling.
    pub fn adacomm_coupled(tau0: usize, lr_coupling: LrCoupling) -> Self {
        SchedulerSpec::AdaComm {
            tau0,
            gamma: 0.5,
            lr_coupling,
            max_tau: 256.max(tau0),
        }
    }

    /// Builds a fresh scheduler for one run.
    pub fn build(&self) -> Box<dyn CommSchedule> {
        match *self {
            SchedulerSpec::Fixed { tau } => Box::new(FixedComm::new(tau)),
            SchedulerSpec::AdaComm {
                tau0,
                gamma,
                lr_coupling,
                max_tau,
            } => Box::new(AdaComm::new(AdaCommConfig {
                tau0,
                gamma,
                lr_coupling,
                max_tau,
                ..AdaCommConfig::default()
            })),
            SchedulerSpec::AdaCommCompress {
                tau0,
                gamma,
                max_tau,
                codec,
            } => Box::new(AdaCommCompress::new(
                AdaCommConfig {
                    tau0,
                    gamma,
                    max_tau,
                    ..AdaCommConfig::default()
                },
                codec,
            )),
        }
    }
}

/// Which learning-rate schedule a run uses, resolved against its scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum LrSpec {
    /// The scenario's constant rate.
    Fixed,
    /// The scenario's step schedule.
    Variable,
    /// The constant rate scaled by a factor (stored as `f32` bits for a
    /// stable key); momentum panels run at a tenth of the plain rate.
    FixedScaled(u32),
    /// The step schedule scaled by a factor.
    VariableScaled(u32),
}

impl LrSpec {
    /// Scenario constant rate times `factor`.
    pub fn fixed_scaled(factor: f32) -> Self {
        LrSpec::FixedScaled(factor.to_bits())
    }

    /// Scenario step schedule times `factor`.
    pub fn variable_scaled(factor: f32) -> Self {
        LrSpec::VariableScaled(factor.to_bits())
    }

    fn resolve(&self, built: &BuiltScenario) -> LrSchedule {
        match *self {
            LrSpec::Fixed => built.fixed_lr.clone(),
            LrSpec::Variable => built.variable_lr.clone(),
            LrSpec::FixedScaled(bits) => built.fixed_lr.scaled(f32::from_bits(bits)),
            LrSpec::VariableScaled(bits) => built.variable_lr.scaled(f32::from_bits(bits)),
        }
    }
}

/// One declaratively-specified training run. Two specs with equal
/// semantic fields *are the same run* — the engine executes them once and
/// shares the trace (the display `rename` is excluded from the identity).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Trace-name override for reports (`None` keeps the scheduler name).
    pub rename: Option<String>,
    /// The shared suite this run executes in.
    pub scenario: ScenarioSpec,
    /// The communication scheduler.
    pub scheduler: SchedulerSpec,
    /// The learning-rate schedule.
    pub lr: LrSpec,
    /// The momentum mode (canonicalized — no "scenario default").
    pub momentum: MomentumMode,
    /// The paper's "decay τ to 1 before decaying η" gating.
    pub gate_lr_on_tau: bool,
    /// Gradient-compression codec for every averaging message.
    pub codec: CodecSpec,
    /// Optional `(total_secs, record_every_secs)` budget override, stored
    /// as millisecond integers for a stable identity.
    pub budget_millis: Option<(u64, u64)>,
    /// Seeded fault-injection plan plus aggregation policy for the run
    /// ([`FaultConfig::NONE`] — the default — is a provable no-op on the
    /// simulation and is excluded from the memoization key, so fault-free
    /// specs keep their pre-fault-layer cache entries).
    pub fault: FaultConfig,
}

impl SweepSpec {
    /// A run with the common defaults: no momentum, no gating, identity
    /// codec, the scenario's own budget.
    pub fn new(scenario: ScenarioSpec, scheduler: SchedulerSpec, lr: LrSpec) -> Self {
        SweepSpec {
            rename: None,
            scenario,
            scheduler,
            lr,
            momentum: MomentumMode::None,
            gate_lr_on_tau: false,
            codec: CodecSpec::Identity,
            budget_millis: None,
            fault: FaultConfig::NONE,
        }
    }

    /// Renames the resulting trace for reports.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.rename = Some(name.into());
        self
    }

    /// Sets the momentum mode.
    pub fn with_momentum(mut self, momentum: MomentumMode) -> Self {
        self.momentum = momentum;
        self
    }

    /// Enables or disables τ-gated learning-rate decay.
    pub fn with_gate(mut self, gate: bool) -> Self {
        self.gate_lr_on_tau = gate;
        self
    }

    /// Sets the compression codec.
    pub fn with_codec(mut self, codec: CodecSpec) -> Self {
        self.codec = codec;
        self
    }

    /// Sets the fault-injection plan and aggregation policy.
    pub fn with_faults(mut self, fault: FaultConfig) -> Self {
        self.fault = fault;
        self
    }

    /// Overrides the simulated budget and recording cadence.
    pub fn with_budget(mut self, total_secs: f64, record_every_secs: f64) -> Self {
        self.budget_millis = Some((
            (total_secs * 1000.0).round() as u64,
            (record_every_secs * 1000.0).round() as u64,
        ));
        self
    }

    /// The memoization key: every semantic field, excluding the display
    /// rename. `Debug` formatting is stable and loss-free here (floats are
    /// stored as integer millis/bits where they appear). Public because
    /// the persistent run store addresses its on-disk entries by this
    /// same key (hashed for the filename, echoed in full inside the
    /// frame), and tests corrupt specific entries by key.
    pub fn key(&self) -> String {
        let mut key = format!(
            "{:?}|{:?}|{:?}|{:?}|{}|{:?}|{:?}",
            self.scenario,
            self.scheduler,
            self.lr,
            self.momentum,
            self.gate_lr_on_tau,
            self.codec,
            self.budget_millis,
        );
        // The fault segment appears only for active plans: a `NONE` plan
        // is a provable no-op on the run, so fault-free specs keep the
        // exact keys (and on-disk store entries) they had before the
        // fault layer existed.
        if self.fault.is_active() {
            use std::fmt::Write as _;
            let _ = write!(key, "|{:?}", self.fault);
        }
        key
    }

    /// Executes this spec against its built scenario (no caching),
    /// optionally continuing `resume`, stopping after a round count or
    /// when the cooperative `stop` predicate fires — the one primitive
    /// behind every engine run, batch or preemptible.
    fn execute_cancellable(
        &self,
        built: &BuiltScenario,
        resume: Option<&RunCheckpoint>,
        stop_after_rounds: Option<u64>,
        stop: Option<&(dyn Fn() -> bool + Sync)>,
    ) -> Result<RunOutcome, String> {
        let mut scheduler = self.scheduler.build();
        let lr = self.lr.resolve(built);
        let budget = self
            .budget_millis
            .map(|(t, r)| (t as f64 / 1000.0, r as f64 / 1000.0));
        built.suite.run_configured_cancellable(
            scheduler.as_mut(),
            &lr,
            Some(self.momentum),
            Some(self.gate_lr_on_tau),
            Some(self.codec),
            budget,
            self.fault.is_active().then_some(self.fault),
            resume,
            stop_after_rounds,
            stop,
        )
    }
}

/// Where [`SweepEngine::try_trace_cancellable`] got its trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceSource {
    /// The in-process memoization map.
    Memory,
    /// A validated persistent-store entry.
    Disk,
    /// Simulated fresh in this call.
    Computed,
    /// Simulated in this call, continuing a parked checkpoint.
    Resumed,
}

impl TraceSource {
    /// Stable lowercase label (protocol responses, logs).
    pub fn label(self) -> &'static str {
        match self {
            TraceSource::Memory => "memory",
            TraceSource::Disk => "disk",
            TraceSource::Computed => "computed",
            TraceSource::Resumed => "resumed",
        }
    }
}

/// Outcome of [`SweepEngine::try_trace_cancellable`].
#[derive(Debug)]
pub enum CancellableRun {
    /// The trace was produced (possibly from cache).
    Done {
        /// The run's trace, renamed per the spec if requested.
        trace: RunTrace,
        /// Which layer satisfied the request.
        source: TraceSource,
    },
    /// The stop predicate fired mid-run; the partial work is parked in
    /// the store (when one is attached and the park write succeeded) and
    /// a later request for the same key resumes it.
    Cancelled,
}

/// What [`SweepEngine::lookup`] knows about a key without executing
/// anything: the cached trace (under the scheduler's own name) and where
/// it was found — [`TraceSource::Memory`] or [`TraceSource::Disk`] — or
/// the reason the key failed terminally on this engine.
pub type Known = Result<(RunTrace, TraceSource), String>;

/// Executes [`SweepSpec`] batches with run-level parallelism, global
/// memoization and deterministic output ordering (see the module docs).
/// With [`SweepEngine::with_store`], the memoization extends to disk:
/// uncached keys are first looked up in a persistent [`RunStore`], and
/// computed traces are saved back for the next process.
pub struct SweepEngine {
    parallel: bool,
    scenarios: Mutex<HashMap<String, Arc<BuiltScenario>>>,
    /// The memo. Ordered rather than hashed: it only grows, and a hash
    /// table's doubling briefly holds the old and the new table at once,
    /// so a daemon's peak RSS would jump by 2× its table each time it
    /// crosses a power of two.
    runs: Mutex<BTreeMap<String, RunTrace>>,
    store: Option<RunStore>,
    /// Disk hits and misses count a key's first insertion into `runs`;
    /// every other resolution — including the racing duplicates the
    /// check-compute-insert cache tolerates — is a memory hit.
    traffic: Mutex<CacheStats>,
    warnings: Mutex<Vec<String>>,
    supervisor: SupervisorPolicy,
    /// Keys whose supervised execution failed terminally (all attempts
    /// panicked, or the deadline was exceeded), with the reason. A failed
    /// key never re-executes on this engine: repeat requests fail fast
    /// with the recorded reason.
    failed: Mutex<HashMap<String, String>>,
    /// Crash-consistency knob: when set (and a store is attached),
    /// runs execute in slices of this many rounds, parking a
    /// resumable checkpoint after each slice — a SIGKILL at any moment
    /// loses at most one slice of progress.
    park_every_rounds: Option<u64>,
}

/// Whether run-level parallelism pays on this machine: it needs more than
/// one executor. On a single core the pool worker and the joining
/// submitter would merely timeslice, thrashing the shared cache between
/// different runs' working sets (measured ≈9% slower end-to-end), so the
/// engine goes sequential there — results are bit-identical either way.
/// Asks the worker pool itself, so the answer always agrees with the
/// pool's own sizing rules (including its `RAYON_NUM_THREADS` override).
pub fn hardware_parallelism() -> bool {
    rayon::current_num_threads() > 1
}

/// Counts one batch handed to an engine ([`SweepEngine::run`] or
/// [`SweepEngine::warm`]) and records the pool size it runs on.
fn note_batch() {
    telemetry::counter("sweep.batches").inc();
    telemetry::gauge("sweep.pool_threads").set(rayon::current_num_threads() as i64);
}

impl SweepEngine {
    /// An engine with the hardware-appropriate parallelism (see
    /// [`hardware_parallelism`]) — the default for the daemon and tools.
    pub fn new() -> Self {
        SweepEngine::with_parallelism(hardware_parallelism())
    }

    /// An engine with explicit run-level parallelism. `false` executes
    /// specs strictly one after another — the reference mode the
    /// determinism test compares the parallel engine against (results
    /// must be bit-identical).
    pub fn with_parallelism(parallel: bool) -> Self {
        SweepEngine {
            parallel,
            scenarios: Mutex::new(HashMap::new()),
            runs: Mutex::new(BTreeMap::new()),
            store: None,
            traffic: Mutex::new(CacheStats::default()),
            warnings: Mutex::new(Vec::new()),
            supervisor: SupervisorPolicy::default(),
            failed: Mutex::new(HashMap::new()),
            park_every_rounds: None,
        }
    }

    /// Overrides the supervision policy (attempts, backoff, deadline)
    /// every run on this engine executes under.
    pub fn with_supervisor(mut self, policy: SupervisorPolicy) -> Self {
        self.supervisor = policy;
        self
    }

    /// Attaches a persistent run store: uncached keys consult the store
    /// before simulating, and computed traces are saved back
    /// (best-effort — a failed save leaves the cache cold, never fails
    /// the run).
    pub fn with_store(mut self, store: RunStore) -> Self {
        self.store = Some(store);
        self
    }

    /// The attached persistent store, if any.
    pub fn store(&self) -> Option<&RunStore> {
        self.store.as_ref()
    }

    /// Enables periodic parking: every `rounds` averaging rounds, an
    /// in-flight run checkpoints into the attached store (no-op without a
    /// store). Trades a little write traffic for
    /// crash-consistency — after a SIGKILL, recovery resumes from the
    /// last slice boundary instead of round zero, bit-identically.
    pub fn with_periodic_park(mut self, rounds: u64) -> Self {
        self.park_every_rounds = Some(rounds.max(1));
        self
    }

    /// Cache-traffic counters so far: memory hits, disk hits, misses and
    /// rejected (evicted) disk entries. Disk hits and misses are counted
    /// once per distinct key; every further request for a resolved key is
    /// a memory hit.
    pub fn cache_stats(&self) -> CacheStats {
        *self.traffic.lock().expect("traffic counters poisoned")
    }

    /// Memoizes a resolved trace and returns the memo's copy. The key's
    /// first insertion is its disk hit or miss; a key already present (a
    /// racing duplicate compute) counts as a memory hit like any other
    /// repeat request. The same outcomes feed the telemetry registry
    /// (`sweep.cache.*`), so trace files and `--json` reports carry the
    /// cache traffic as real metrics.
    fn memoize(&self, key: &str, trace: RunTrace, from_disk: bool) -> RunTrace {
        let (trace, first) = match self
            .runs
            .lock()
            .expect("run cache poisoned")
            .entry(key.to_string())
        {
            Entry::Vacant(slot) => (slot.insert(trace).clone(), true),
            Entry::Occupied(memo) => (memo.get().clone(), false),
        };
        let mut t = self.traffic.lock().expect("traffic counters poisoned");
        if !first {
            t.mem_hits += 1;
            telemetry::counter("sweep.cache.mem_hits").inc();
        } else if from_disk {
            t.disk_hits += 1;
            telemetry::counter("sweep.cache.disk_hits").inc();
        } else {
            t.misses += 1;
            telemetry::counter("sweep.cache.misses").inc();
        }
        trace
    }

    /// Records an out-of-band diagnostic (e.g. a rejected store entry).
    /// Buffered rather than printed: pool threads must never write to the
    /// process's streams mid-figure, or lines garble under `--parallel`
    /// with the figures' own buffered output. Drivers drain the buffer
    /// with [`SweepEngine::take_warnings`] at a safe point.
    fn warn(&self, message: String) {
        self.warnings
            .lock()
            .expect("warning buffer poisoned")
            .push(message);
    }

    /// Drains the buffered diagnostics accumulated so far (oldest first).
    pub fn take_warnings(&self) -> Vec<String> {
        std::mem::take(&mut *self.warnings.lock().expect("warning buffer poisoned"))
    }

    /// Executes `specs`, returning their traces in spec order.
    ///
    /// Identical specs (within this batch or from any earlier batch on
    /// this engine) execute once; every caller gets a clone of the cached
    /// trace, renamed per its own spec.
    pub fn run(&self, specs: &[SweepSpec]) -> Vec<RunTrace> {
        if self.parallel {
            // Warm the cache over the batch first, so duplicates assemble
            // from the cache below instead of blocking a pool thread;
            // failures swallowed there surface when the assembly loop
            // re-requests the failed key.
            self.warm(specs);
        } else {
            note_batch();
        }
        let mut traces: Vec<RunTrace> = specs.iter().map(|spec| self.trace_for(spec)).collect();
        for (trace, spec) in traces.iter_mut().zip(specs) {
            if let Some(name) = &spec.rename {
                trace.name = name.clone();
            }
        }
        traces
    }

    /// Executes one spec, returning a clone of its (possibly cached)
    /// trace with the scheduler's own name.
    ///
    /// # Panics
    ///
    /// Panics when the supervised execution fails terminally (see
    /// [`SweepEngine::try_trace_for`]); a figure body requesting a failed
    /// run fails with the supervisor's reason, which `reproduce_all`
    /// reports in its per-figure failure table.
    fn trace_for(&self, spec: &SweepSpec) -> RunTrace {
        match self.try_trace_for(spec) {
            Ok(trace) => trace,
            Err(reason) => panic!("supervised run failed terminally: {reason}"),
        }
    }

    /// What this engine already knows about `key` (a [`SweepSpec::key`]),
    /// consulting the failure map, the memo map and the persistent store,
    /// in that order, and never executing anything; `None` when producing
    /// the trace means executing the run. This is the cache head of
    /// [`SweepEngine::try_trace_for`] and
    /// [`SweepEngine::try_trace_cancellable`]; the sweep service also calls
    /// it where a request is read, so what is already known is answered
    /// without queueing. Every outcome is counted here, once: a memo hit
    /// is a memory hit, a validated store entry is promoted into the memo
    /// and counted as its key's disk hit, and an entry that fails
    /// validation is evicted, warned about and counted as a reject (the
    /// next lookup finds it absent).
    pub fn lookup(&self, key: &str) -> Option<Known> {
        if let Some(reason) = self.failed.lock().expect("failure map poisoned").get(key) {
            return Some(Err(reason.clone()));
        }
        let cached = self
            .runs
            .lock()
            .expect("run cache poisoned")
            .get(key)
            .cloned();
        if let Some(trace) = cached {
            let mut t = self.traffic.lock().expect("traffic counters poisoned");
            t.mem_hits += 1;
            telemetry::counter("sweep.cache.mem_hits").inc();
            return Some(Ok((trace, TraceSource::Memory)));
        }
        // Cold in memory: consult the persistent store before simulating.
        // A validated entry is bit-exact (the determinism tests prove the
        // wire format and the runs themselves), so serving it is
        // indistinguishable from recomputing — just thousands of times
        // cheaper. Anything less than fully valid is evicted and
        // recomputed; the store never gets to produce a wrong figure.
        let store = self.store.as_ref()?;
        let mut outcome = store.load(key);
        // An *unreadable* entry is a transient I/O failure (EINTR, a
        // racing writer, a briefly-unavailable filesystem), not a
        // validation verdict — retry the read before giving up on the
        // entry. Validation rejections are deterministic and never
        // retried.
        for _ in 0..2 {
            match &outcome {
                LoadOutcome::Rejected(reason) if reason.starts_with("unreadable entry") => {
                    telemetry::counter("store.load_retries").inc();
                    outcome = store.load(key);
                }
                _ => break,
            }
        }
        match outcome {
            LoadOutcome::Hit(trace) => {
                Some(Ok((self.memoize(key, trace, true), TraceSource::Disk)))
            }
            LoadOutcome::Rejected(reason) => {
                self.warn(format!(
                    "run store: rejected entry for a sweep key ({reason}); recomputing"
                ));
                telemetry::emit(|| telemetry::schema::warning_line("run_store", &reason));
                store.evict(key);
                let mut t = self.traffic.lock().expect("traffic counters poisoned");
                t.rejects += 1;
                telemetry::counter("sweep.cache.rejects").inc();
                None
            }
            LoadOutcome::Absent => None,
        }
    }

    /// Executes one spec under supervision, returning a clone of its
    /// (possibly cached) trace — or the terminal failure reason when
    /// every supervised attempt panicked or the run overran its deadline.
    /// A failed key is remembered and fails fast on re-request.
    ///
    /// This is [`SweepEngine::try_trace_cancellable`] without a stop
    /// predicate: a batch run is the never-cancelled case of the
    /// cancellable run. So with a store attached a batch engine also
    /// continues (and then removes) a parked checkpoint a cancelled
    /// request left for the key, and parks periodically when
    /// [`SweepEngine::with_periodic_park`] is set — both bit-identical to
    /// an uninterrupted run by the resume contract.
    ///
    /// # Errors
    ///
    /// Returns the supervisor's failure reason (panic message or deadline
    /// report) when the run cannot be produced.
    pub fn try_trace_for(&self, spec: &SweepSpec) -> Result<RunTrace, String> {
        match self.try_trace_cancellable(spec, None)? {
            CancellableRun::Done { trace, .. } => Ok(trace),
            CancellableRun::Cancelled => unreachable!("no stop predicate, so nothing cancels"),
        }
    }

    /// Produces the trace for `spec` with cooperative cancellation and
    /// park/resume through the attached store — the one way this engine
    /// executes a run ([`SweepEngine::try_trace_for`] is the `stop = None`
    /// case; the sweep service passes its deadline/drain predicate).
    ///
    /// [`SweepEngine::lookup`] answers what is already known. A key it
    /// does not know then checks the store for a *parked* mid-run
    /// checkpoint — the remainder of a previous deadline- or
    /// drain-cancelled request — and resumes it bit-identically instead of
    /// starting over (a checkpoint that fails structural validation is
    /// discarded with a warning and the run starts fresh). The `stop`
    /// predicate is polled at round boundaries; when it fires, the partial
    /// run is parked back to the store and [`CancellableRun::Cancelled`]
    /// is returned — the request lost, the work kept.
    ///
    /// Beyond the lookup the cache is check-compute-insert, never
    /// blocking: two threads racing on the *same* uncached key both
    /// compute it (runs are deterministic, so the values are identical and
    /// first-insert wins). Blocking the losers on a once-cell would be a
    /// deadlock hazard on the help-stealing pool — a thread
    /// mid-computation can steal a job that re-requests the very key its
    /// own stack is initializing. The redundant compute is also rare by
    /// construction: `run` pre-dedups each batch, and `reproduce_all`'s
    /// sweep wave warms the cross-figure keys before figure bodies run
    /// concurrently.
    ///
    /// # Errors
    ///
    /// Returns the supervisor's failure reason (panic message or deadline
    /// report) when the run cannot be produced; the key is remembered and
    /// fails fast on re-request.
    pub fn try_trace_cancellable(
        &self,
        spec: &SweepSpec,
        stop: Option<&(dyn Fn() -> bool + Sync)>,
    ) -> Result<CancellableRun, String> {
        let key = spec.key();
        if let Some(known) = self.lookup(&key) {
            return known.map(|(trace, source)| CancellableRun::Done { trace, source });
        }
        // Cold everywhere: is there parked work to continue?
        let resume_ck: Option<Box<RunCheckpoint>> = match &self.store {
            Some(store) => match store.load_parked(&key) {
                ParkedOutcome::Hit(ck) => Some(ck),
                ParkedOutcome::Rejected(reason) => {
                    self.warn(format!(
                        "run store: rejected parked checkpoint ({reason}); running fresh"
                    ));
                    store.unpark(&key);
                    None
                }
                ParkedOutcome::Absent => None,
            },
            None => None,
        };
        let supervised = supervisor::run_supervised(&self.supervisor, &key, || {
            let built = self.scenario(&spec.scenario);
            let inflight = telemetry::gauge("sweep.inflight_runs");
            inflight.add(1);
            let run_started = std::time::Instant::now();
            // With periodic parking enabled, the run executes in
            // `park_every` round slices, persisting a resumable
            // checkpoint between slices; otherwise one uninterrupted
            // call. Either way the final trace is bit-identical (resume
            // round-trips are exact by construction).
            let park_every = if self.store.is_some() {
                self.park_every_rounds
            } else {
                None
            };
            let mut resumed = resume_ck.is_some();
            let mut mine: Option<Box<RunCheckpoint>> = None;
            let mut use_initial = resumed;
            let (outcome, resumed) = loop {
                let resume_ref: Option<&RunCheckpoint> = if use_initial {
                    resume_ck.as_deref()
                } else {
                    mine.as_deref()
                };
                let limit = park_every.map(|n| resume_ref.map_or(0, |ck| ck.cluster.rounds) + n);
                match spec.execute_cancellable(&built, resume_ref, limit, stop) {
                    Ok(RunOutcome::Completed(trace)) => {
                        break (RunOutcome::Completed(trace), resumed)
                    }
                    Ok(RunOutcome::Checkpointed(ck)) => {
                        if stop.is_some_and(|s| s()) {
                            // The cooperative stop fired: this is a real
                            // cancellation, handled by the caller.
                            break (RunOutcome::Checkpointed(ck), resumed);
                        }
                        // Slice boundary: persist progress (best-effort)
                        // and keep running.
                        if let Some(store) = &self.store {
                            if store.park(&key, &ck).is_ok() {
                                telemetry::counter("sweep.periodic_parks").inc();
                            }
                        }
                        use_initial = false;
                        mine = Some(ck);
                    }
                    Err(reason) if use_initial => {
                        // A structurally-mismatched checkpoint (different
                        // build semantics, foreign spec): discard and
                        // start over. Fresh runs never fail.
                        self.warn(format!(
                            "run store: parked checkpoint unusable on resume ({reason}); \
                             running fresh"
                        ));
                        use_initial = false;
                        resumed = false;
                    }
                    Err(reason) => {
                        // A checkpoint this very process produced failed
                        // to resume — should be impossible; degrade to a
                        // fresh uninterrupted run rather than loop.
                        self.warn(format!(
                            "run store: mid-run slice checkpoint unusable ({reason}); \
                             restarting the run uninterrupted"
                        ));
                        break (
                            spec.execute_cancellable(&built, None, None, stop)
                                .expect("fresh runs never fail"),
                            false,
                        );
                    }
                }
            };
            telemetry::histogram("sweep.run_secs").observe(run_started.elapsed().as_secs_f64());
            inflight.add(-1);
            (outcome, resumed)
        });
        let (outcome, resumed) = match supervised {
            Ok(pair) => pair,
            Err(reason) => {
                // A panicked attempt bails out before its `inflight.add(-1)`;
                // rebalance so the gauge stays truthful for live dashboards.
                telemetry::gauge("sweep.inflight_runs").set(0);
                self.warn(format!("run failed under supervision ({reason}): {key}"));
                self.failed
                    .lock()
                    .expect("failure map poisoned")
                    .insert(key, reason.clone());
                return Err(reason);
            }
        };
        match outcome {
            RunOutcome::Completed(trace) => {
                if resumed {
                    telemetry::counter("sweep.resumed").inc();
                }
                if let Some(store) = &self.store {
                    if let Err(e) = store.save_with_retry(&key, &trace, 3) {
                        self.warn(format!(
                            "run store: save failed after retries ({e}); cache stays cold \
                             for this key"
                        ));
                    }
                    // The run is complete; any parked remainder is obsolete.
                    store.unpark(&key);
                }
                Ok(CancellableRun::Done {
                    trace: self.memoize(&key, trace, false),
                    source: if resumed {
                        TraceSource::Resumed
                    } else {
                        TraceSource::Computed
                    },
                })
            }
            RunOutcome::Checkpointed(ck) => {
                telemetry::counter("sweep.parked").inc();
                match &self.store {
                    Some(store) => {
                        if let Err(e) = store.park(&key, &ck) {
                            self.warn(format!(
                                "run store: park failed ({e}); cancelled progress is lost"
                            ));
                        }
                    }
                    None => self.warn(format!(
                        "no store attached; cancelled progress is lost: {key}"
                    )),
                }
                Ok(CancellableRun::Cancelled)
            }
        }
    }

    /// Warms the cache over `specs` (deduplicated), swallowing terminal
    /// run failures instead of propagating them — the degraded-mode
    /// counterpart of [`SweepEngine::run`] that `reproduce_all`'s sweep
    /// wave uses so one poisoned run cannot abort the whole wave. Failed
    /// keys are recorded (see [`SweepEngine::run_failures`]) and fail
    /// fast when a figure body later requests them.
    pub fn warm(&self, specs: &[SweepSpec]) {
        note_batch();
        // Unique specs in first-occurrence order; on a parallel engine one
        // pool job each, so heterogeneous run lengths load-balance.
        let mut seen = HashSet::new();
        let mut unique: Vec<&SweepSpec> = specs
            .iter()
            .filter(|spec| seen.insert(spec.key()))
            .collect();
        let queue_depth = telemetry::gauge("sweep.queue_depth");
        queue_depth.add(unique.len() as i64);
        let resolve = |spec: &mut &SweepSpec| {
            let _ = self.try_trace_for(spec);
            queue_depth.add(-1);
        };
        if self.parallel {
            unique.par_iter_mut().with_max_len(1).for_each(resolve);
        } else {
            unique.iter_mut().for_each(resolve);
        }
    }

    /// Keys whose supervised execution failed terminally so far, with
    /// reasons, sorted by key for deterministic reporting.
    pub fn run_failures(&self) -> Vec<(String, String)> {
        let mut failures: Vec<(String, String)> = self
            .failed
            .lock()
            .expect("failure map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        failures.sort();
        failures
    }

    /// Builds (or reuses) a scenario suite by spec. Public so free-form
    /// figures can run schedulers whose state must be read back after the
    /// run (e.g. the co-adaptive schedule's final codec) against the same
    /// shared suite the engine's cached runs used. Check-compute-insert
    /// like the run cache (see [`SweepEngine::run`]'s internals): racing
    /// builders of one scenario duplicate the (deterministic) build
    /// rather than risk blocking the pool.
    pub fn scenario(&self, spec: &ScenarioSpec) -> Arc<BuiltScenario> {
        let key = format!("{spec:?}");
        if let Some(built) = self
            .scenarios
            .lock()
            .expect("scenario cache poisoned")
            .get(&key)
        {
            return built.clone();
        }
        let built = {
            let _phase = telemetry::span("phase.scenario_build");
            Arc::new(spec.build())
        };
        let mut scenarios = self.scenarios.lock().expect("scenario cache poisoned");
        scenarios.entry(key).or_insert(built).clone()
    }

    /// Number of distinct runs executed so far (cache size).
    pub fn unique_runs(&self) -> usize {
        self.runs.lock().expect("run cache poisoned").len()
    }

    /// Whether this engine executes batches with run-level parallelism.
    pub fn is_parallel(&self) -> bool {
        self.parallel
    }
}

impl Default for SweepEngine {
    fn default() -> Self {
        SweepEngine::new()
    }
}

/// The specs behind the paper's standard method family on a canonical
/// scenario panel: the scenario's fixed-τ baselines (τ = 1 first), then
/// AdaComm — the declarative form of the old imperative
/// `run_standard_panel` loop, one spec per method.
///
/// `with_momentum` reproduces the paper's Section 5.3.1 assignment: τ = 1
/// gets plain momentum 0.9, PASGD methods get block momentum, and every
/// momentum run uses a tenth of the plain learning rate (no batch norm to
/// absorb the 1/(1−β) step-size inflation; see EXPERIMENTS.md).
pub fn standard_panel_specs(
    family: ModelFamily,
    classes: usize,
    workers: usize,
    scale: Scale,
    variable_lr: bool,
    with_momentum: bool,
) -> Vec<SweepSpec> {
    let scenario_spec = ScenarioSpec::Canonical {
        family,
        classes,
        workers,
        scale,
    };
    let lr = |momentum: bool| match (variable_lr, momentum) {
        (false, false) => LrSpec::Fixed,
        (true, false) => LrSpec::Variable,
        (false, true) => LrSpec::fixed_scaled(0.1),
        (true, true) => LrSpec::variable_scaled(0.1),
    };
    let mut specs = Vec::new();
    for &tau in &family.paper_taus() {
        let momentum = if !with_momentum {
            MomentumMode::None
        } else if tau == 1 {
            MomentumMode::Local {
                beta: 0.9,
                reset_at_sync: false,
            }
        } else {
            MomentumMode::paper_block()
        };
        specs.push(
            SweepSpec::new(
                scenario_spec.clone(),
                SchedulerSpec::Fixed { tau },
                lr(with_momentum),
            )
            .with_momentum(momentum)
            // Fixed-τ baselines decay the lr at the scheduled epochs
            // unconditionally; the τ-gating policy belongs to AdaComm.
            .with_gate(false),
        );
    }
    let tau0 = family.tau0();
    let coupling = if variable_lr {
        LrCoupling::Sqrt
    } else {
        LrCoupling::None
    };
    let momentum = if with_momentum {
        MomentumMode::paper_block()
    } else {
        MomentumMode::None
    };
    specs.push(
        SweepSpec::new(
            scenario_spec,
            SchedulerSpec::adacomm_coupled(tau0, coupling),
            lr(with_momentum),
        )
        .with_momentum(momentum)
        .with_gate(true),
    );
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(tau: usize) -> SweepSpec {
        SweepSpec::new(
            ScenarioSpec::Concept,
            SchedulerSpec::Fixed { tau },
            LrSpec::Fixed,
        )
        .with_budget(40.0, 10.0)
    }

    #[test]
    fn identical_specs_execute_once_and_share_the_trace() {
        let engine = SweepEngine::new();
        let specs = vec![tiny_spec(4), tiny_spec(4).named("again"), tiny_spec(8)];
        let traces = engine.run(&specs);
        assert_eq!(engine.unique_runs(), 2, "tau=4 must be deduplicated");
        assert_eq!(traces[0].points, traces[1].points);
        assert_eq!(traces[1].name, "again");
        assert_ne!(traces[0].points, traces[2].points);
    }

    #[test]
    fn results_come_back_in_spec_order() {
        let engine = SweepEngine::new();
        let specs: Vec<SweepSpec> = [1usize, 16, 2].iter().map(|&t| tiny_spec(t)).collect();
        let traces = engine.run(&specs);
        assert_eq!(traces[0].name, "sync-sgd");
        assert_eq!(traces[1].name, "tau=16");
        assert_eq!(traces[2].name, "tau=2");
    }

    #[test]
    fn rename_does_not_fork_the_cache() {
        let a = tiny_spec(4);
        let b = tiny_spec(4).named("x");
        assert_eq!(a.key(), b.key());
        assert_ne!(a.key(), tiny_spec(5).key());
    }

    #[test]
    fn standard_panel_has_sync_baselines_then_adacomm() {
        let specs = standard_panel_specs(ModelFamily::VggLike, 10, 4, Scale::Quick, false, false);
        assert_eq!(specs.len(), 4);
        assert_eq!(specs[0].scheduler, SchedulerSpec::Fixed { tau: 1 });
        assert!(matches!(
            specs.last().unwrap().scheduler,
            SchedulerSpec::AdaComm { tau0: 24, .. }
        ));
        // Momentum panels: plain momentum for sync, block for PASGD.
        let momentum = standard_panel_specs(ModelFamily::VggLike, 10, 4, Scale::Quick, true, true);
        assert!(matches!(momentum[0].momentum, MomentumMode::Local { .. }));
        assert_eq!(momentum[1].momentum, MomentumMode::paper_block());
    }
}
