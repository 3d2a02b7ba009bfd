//! The PASGD cluster: local-update rounds, periodic averaging, and the
//! simulated wall clock.

use crate::checkpoint::ClusterCheckpoint;
use crate::fault::FaultState;
use crate::{AveragingStrategy, BlockMomentum, FaultConfig, FaultStats, MomentumMode, Worker};
use delay::RuntimeModel;
use gradcomp::CodecSpec;
use nn::{Network, Sgd};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::sync::Arc;
use tensor::Tensor;

/// Rows per evaluation chunk job. Evaluation sets larger than one chunk
/// run their forward passes as parallel pool jobs (see
/// [`PasgdCluster::eval_train_loss`]); the fixed chunk size keeps the
/// row partition — and therefore every float — independent of the
/// machine's core count.
const EVAL_CHUNK_ROWS: usize = 256;

/// An evaluation set pre-split into row chunks for pool jobs.
struct EvalSet {
    chunks: Vec<(Tensor, Vec<usize>)>,
    rows: usize,
}

impl EvalSet {
    fn gather(ds: &data::Dataset, rows: usize) -> Self {
        let mut chunks = Vec::new();
        let mut start = 0;
        while start < rows {
            let end = (start + EVAL_CHUNK_ROWS).min(rows);
            chunks.push(ds.gather(&(start..end).collect::<Vec<_>>()));
            start = end;
        }
        EvalSet { chunks, rows }
    }
}

/// Adds `n` fault events to the telemetry counter `name`; a counter that
/// never fired stays absent from the profile.
fn count_faults(name: &'static str, n: u64) {
    if n > 0 {
        telemetry::counter(name).add(n);
    }
}

/// One chunked-evaluation pool job: a model replica and its row chunk.
struct EvalJob<'a> {
    model: &'a mut Network,
    x: &'a Tensor,
    labels: &'a [usize],
}

/// Static configuration of a [`PasgdCluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of workers `m`.
    pub workers: usize,
    /// Per-worker mini-batch size.
    pub batch_size: usize,
    /// Initial learning rate `η0`.
    pub lr: f32,
    /// L2 weight decay (paper: 5e-4).
    pub weight_decay: f32,
    /// Momentum scheme.
    pub momentum: MomentumMode,
    /// How local models are combined at synchronization points.
    pub averaging: AveragingStrategy,
    /// Gradient-compression codec applied to every averaging message
    /// ([`CodecSpec::Identity`] reproduces the paper's full-precision
    /// setting exactly).
    pub codec: CodecSpec,
    /// Base RNG seed; worker RNGs and the delay stream derive from it.
    pub seed: u64,
    /// Cap on the number of examples used when evaluating training loss
    /// (keeps evaluation cheap; 0 means the full training set).
    pub eval_subset: usize,
    /// Fault injection and degradation policy. The default
    /// ([`FaultConfig::NONE`]) is provably a no-op: the cluster builds no
    /// fault state, so every round covers the whole cluster with zero
    /// extra RNG draws.
    pub fault: FaultConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workers: 4,
            batch_size: 32,
            lr: 0.1,
            weight_decay: 5e-4,
            momentum: MomentumMode::None,
            averaging: AveragingStrategy::FullAverage,
            codec: CodecSpec::Identity,
            seed: 0,
            eval_subset: 1024,
            fault: FaultConfig::NONE,
        }
    }
}

/// An `m`-worker periodic-averaging SGD cluster with a simulated wall clock.
///
/// The *training mathematics* is real — every worker runs genuine SGD on its
/// own shard and the models are genuinely averaged — while *time* comes from
/// the paper's delay model ([`RuntimeModel`]): a round of `τ` local steps
/// advances the clock by `max_i(Σ_k Y_{i,k}) + D`.
///
/// The cluster is deliberately scheduler-agnostic: callers decide `τ` per
/// round (see [`ExperimentSuite`](crate::ExperimentSuite) for the
/// interval-based driver).
///
/// # Example
///
/// ```
/// use pasgd_sim::{ClusterConfig, PasgdCluster};
/// use data::GaussianMixture;
/// use delay::{CommModel, DelayDistribution, RuntimeModel};
/// use nn::models;
///
/// let split = GaussianMixture::small_test().generate(1);
/// let runtime = RuntimeModel::new(
///     DelayDistribution::constant(1.0),
///     CommModel::constant(0.5),
///     2,
/// );
/// let mut cluster = PasgdCluster::new(
///     models::mlp_classifier(8, &[16], 3, 0),
///     split,
///     runtime,
///     ClusterConfig { workers: 2, ..ClusterConfig::default() },
/// );
/// let loss = cluster.run_round(4);
/// assert!(loss > 0.0);
/// assert!((cluster.clock() - 4.5).abs() < 1e-9); // 4 steps + 0.5 comm
/// ```
pub struct PasgdCluster {
    workers: Vec<Worker>,
    runtime: RuntimeModel,
    momentum: MomentumMode,
    averaging: AveragingStrategy,
    codec: CodecSpec,
    block: Option<BlockMomentum>,
    /// Active fault-injection state, or `None` under the
    /// [`FaultConfig::NONE`] default: [`PasgdCluster::run_round`] then runs
    /// the same code over the `everyone` list, with no fault RNG to draw
    /// from.
    fault: Option<FaultState>,
    fault_config: FaultConfig,
    /// The full-cluster participant list `0..m`, built once.
    everyone: Arc<[usize]>,
    /// Reused buffer for a round's per-worker compute times.
    worker_times: Vec<f64>,
    delay_rng: StdRng,
    clock: f64,
    iterations: u64,
    rounds: u64,
    comm_time: f64,
    compute_time: f64,
    comm_bytes: f64,
    peak_payload_bytes: f64,
    full_payload_bytes: usize,
    current_lr: f32,
    batch_size: usize,
    train_eval: EvalSet,
    test_eval: EvalSet,
    /// Model replicas for chunked evaluation (one per chunk job, empty
    /// when every evaluation set fits a single chunk).
    eval_replicas: Vec<Network>,
    /// `(worker, iterations, rounds)` the replicas were last synced from;
    /// consecutive loss + accuracy evaluations at one trace point skip the
    /// second parameter copy.
    eval_synced_for: Option<(usize, u64, u64)>,
    /// Memoized evaluation results keyed by the same training state: the
    /// experiment driver evaluates at interval boundaries *and* at trace
    /// points, and when both fall between the same two rounds the second
    /// forward pass would recompute identical numbers.
    eval_loss_cache: Option<((usize, u64, u64), f32)>,
    eval_acc_cache: Option<((usize, u64, u64), f64)>,
    /// Output width of the model's logits (the MSE row-loss divisor).
    eval_classes: usize,
    train_size: usize,
    /// Per-tensor segment lengths of the flat parameter plane.
    param_sizes: Vec<usize>,
    /// One reused message plane per worker (averaging messages / mixing).
    msg_planes: Vec<Vec<f32>>,
    /// Reused averaging accumulator, which doubles as the broadcast plane.
    accum: Vec<f32>,
    /// Reused general scratch plane (block momentum output, evaluation
    /// replica sync).
    scratch: Vec<f32>,
}

impl PasgdCluster {
    /// Builds a cluster: shards the training split across workers (each
    /// worker gets an equal slice, reshuffled locally every epoch), clones
    /// the initial model onto every worker (the paper's common
    /// initialisation `x₁`), and prepares evaluation sets.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero workers/batch, more
    /// workers than examples, invalid momentum factors) or the runtime
    /// model's worker count differs from `config.workers`.
    pub fn new(
        model: Network,
        split: data::TrainTestSplit,
        runtime: RuntimeModel,
        config: ClusterConfig,
    ) -> Self {
        assert!(config.workers > 0, "need at least one worker");
        assert_eq!(
            runtime.workers(),
            config.workers,
            "runtime model is for {} workers but the cluster has {}",
            runtime.workers(),
            config.workers
        );
        config.momentum.validate();
        config.averaging.validate();
        config.codec.validate();
        config.fault.validate();
        assert!(
            matches!(config.averaging, AveragingStrategy::FullAverage)
                || !matches!(config.momentum, MomentumMode::Block { .. }),
            "block momentum is defined over the all-node average (eq. 24); \
             use MomentumMode::None or Local with other averaging strategies"
        );
        assert!(
            !config.fault.is_active() || !matches!(config.momentum, MomentumMode::Block { .. }),
            "block momentum is defined over the all-node average (eq. 24), \
             which partial/faulty aggregation cannot guarantee; use \
             MomentumMode::None or Local with an active FaultConfig"
        );
        let train = split.train;
        let test = split.test;
        let train_size = train.len();

        let shards = train.shard(config.workers);
        let base_opt = {
            let mut opt = Sgd::new(config.lr).with_weight_decay(config.weight_decay);
            let beta = config.momentum.local_beta();
            if beta > 0.0 {
                opt = opt.with_momentum(beta);
            }
            opt
        };
        let mut workers: Vec<Worker> = shards
            .into_iter()
            .enumerate()
            .map(|(id, shard)| {
                Worker::new(
                    id,
                    model.clone(),
                    base_opt.clone(),
                    shard,
                    config.batch_size,
                    config.seed,
                )
            })
            .collect();
        if !matches!(config.codec, CodecSpec::Identity) {
            for w in &mut workers {
                w.set_reference_tracking(true);
            }
        }

        let block = match config.momentum {
            MomentumMode::Block { global, .. } => {
                Some(BlockMomentum::new(global, model.params_flat()))
            }
            _ => None,
        };

        let eval_n = if config.eval_subset == 0 {
            train_size
        } else {
            config.eval_subset.min(train_size)
        };
        let train_eval = EvalSet::gather(&train, eval_n);
        let test_eval = EvalSet::gather(&test, test.len());
        let max_chunks = train_eval.chunks.len().max(test_eval.chunks.len());
        let eval_replicas = if max_chunks > 1 {
            vec![model.clone(); max_chunks]
        } else {
            Vec::new()
        };
        // Probe the logits width once (MSE's row-loss divisor).
        let eval_classes = {
            let mut probe = model.clone();
            let (one_x, _) = train.gather(&[0]);
            probe.forward(&one_x).dims()[1]
        };

        let plane_len = model.param_count();
        let full_payload_bytes = plane_len * std::mem::size_of::<f32>();
        let param_sizes = model.param_sizes();
        PasgdCluster {
            workers,
            runtime,
            momentum: config.momentum,
            averaging: config.averaging,
            codec: config.codec,
            block,
            fault: config
                .fault
                .is_active()
                .then(|| FaultState::new(config.seed, config.workers)),
            fault_config: config.fault,
            everyone: (0..config.workers).collect(),
            worker_times: Vec::with_capacity(config.workers),
            delay_rng: StdRng::seed_from_u64(config.seed ^ 0xD15C_0C1C_D15C_0C1C),
            clock: 0.0,
            iterations: 0,
            rounds: 0,
            comm_time: 0.0,
            compute_time: 0.0,
            comm_bytes: 0.0,
            peak_payload_bytes: 0.0,
            full_payload_bytes,
            current_lr: config.lr,
            batch_size: config.batch_size,
            train_eval,
            test_eval,
            eval_replicas,
            eval_synced_for: None,
            eval_loss_cache: None,
            eval_acc_cache: None,
            eval_classes,
            train_size,
            param_sizes,
            msg_planes: vec![vec![0.0f32; plane_len]; config.workers],
            accum: vec![0.0f32; plane_len],
            scratch: vec![0.0f32; plane_len],
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Simulated wall-clock time in seconds.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Local iterations completed per worker (the paper's `k`).
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Averaging rounds completed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Cumulative simulated communication time.
    pub fn comm_time(&self) -> f64 {
        self.comm_time
    }

    /// Cumulative simulated computation time (slowest-worker path).
    pub fn compute_time(&self) -> f64 {
        self.compute_time
    }

    /// Cumulative per-worker communication payload in bytes: the sum over
    /// rounds of the (largest) encoded message one worker transmitted.
    pub fn comm_bytes(&self) -> f64 {
        self.comm_bytes
    }

    /// Largest per-worker encoded message transmitted in any single
    /// averaging round so far (equals [`PasgdCluster::full_payload_bytes`]
    /// for full-precision runs).
    pub fn peak_payload_bytes(&self) -> f64 {
        self.peak_payload_bytes
    }

    /// Size in bytes of one full-precision averaging message (4 bytes per
    /// model parameter).
    pub fn full_payload_bytes(&self) -> usize {
        self.full_payload_bytes
    }

    /// The codec currently applied to averaging messages.
    pub fn codec(&self) -> CodecSpec {
        self.codec
    }

    /// Replaces the codec for subsequent averaging steps — the hook a
    /// τ×compression co-adaptive schedule uses at interval boundaries.
    ///
    /// Error-feedback residuals are kept across ratio changes within the
    /// same codec family (they remain valid compensation state) and
    /// dropped when the codec family changes.
    ///
    /// # Panics
    ///
    /// Panics if `codec` has invalid parameters.
    pub fn set_codec(&mut self, codec: CodecSpec) {
        codec.validate();
        let same_family = std::mem::discriminant(&self.codec) == std::mem::discriminant(&codec);
        if !same_family {
            for w in &mut self.workers {
                w.reset_feedback();
            }
        }
        // Reference tracking follows the codec: compressed runs need the
        // per-worker sync reference, full-precision runs should not pay
        // for the duplicate parameter copy. Enabling is a no-op when
        // already on (the stored reference stays anchored).
        let tracking = !matches!(codec, CodecSpec::Identity);
        for w in &mut self.workers {
            w.set_reference_tracking(tracking);
        }
        self.codec = codec;
    }

    /// Mean error-feedback residual norm across workers (0 under the
    /// identity codec).
    pub fn mean_residual_norm(&self) -> f32 {
        let total: f32 = self.workers.iter().map(Worker::residual_norm).sum();
        total / self.workers.len() as f32
    }

    /// Number of workers.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Epochs of the global dataset processed so far (total samples
    /// consumed across workers divided by the training-set size).
    pub fn epochs(&self) -> f64 {
        let consumed: u64 = self
            .workers
            .iter()
            .map(|w| w.steps_taken() * self.batch_size() as u64)
            .sum();
        consumed as f64 / self.train_size as f64
    }

    /// Per-worker batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.current_lr
    }

    /// The runtime (delay) model in use.
    pub fn runtime(&self) -> &RuntimeModel {
        &self.runtime
    }

    /// Cumulative fault-event counters (all zero without a fault state).
    pub fn fault_stats(&self) -> FaultStats {
        self.fault.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// Fraction of completed rounds that were averaged over a strict
    /// subset of the cluster (0 without a fault state). Schedulers
    /// consult this through
    /// [`ScheduleContext::degraded_frac`](adacomm::ScheduleContext) to
    /// hold the communication period steady while the cluster is degraded.
    pub fn degraded_frac(&self) -> f64 {
        if self.rounds == 0 {
            return 0.0;
        }
        self.fault_stats().degraded_rounds as f64 / self.rounds as f64
    }

    // ------------------------------------------------------------------
    // Training
    // ------------------------------------------------------------------

    /// Sets the learning rate on every worker.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive and finite.
    pub fn set_lr(&mut self, lr: f32) {
        for w in &mut self.workers {
            w.set_lr(lr);
        }
        self.current_lr = lr;
    }

    /// Runs one PASGD round: `tau` local steps on every up worker (in
    /// parallel), then an averaging step (eq. 3) over the round's
    /// participants, block momentum if configured, and the clock advance
    /// `max_i(Σ Y) + D`.
    ///
    /// There is one round path. Without a fault state (the
    /// [`FaultConfig::NONE`] default) every list below is the full cluster
    /// and steps 1, 2, 5, 7 and the spikes of step 4 do not exist; with
    /// one, each of them draws a deterministic number of values from the
    /// dedicated fault RNG stream given the cluster state:
    ///
    /// 1. rejoin sweep — crashed workers whose downtime elapsed come back
    ///    up with the stale parameters they last held;
    /// 2. crash draws — one Bernoulli per up worker in worker order, with
    ///    a deterministic survivor guarantee (never zero up workers);
    /// 3. `tau` local steps on the up workers only (a down worker's batch
    ///    stream does not advance until it rejoins);
    /// 4. per-worker compute times from the delay model, plus straggler
    ///    spikes;
    /// 5. the [`AggregationPolicy`](crate::AggregationPolicy) picks the
    ///    participant set from the up workers' times and staleness;
    /// 6. under a codec the participants encode their updates in parallel
    ///    on the pool (each into its own message plane, from its own
    ///    state only); the participants' messages are averaged and the
    ///    result broadcast *to the participants*; everyone else keeps its
    ///    local model;
    /// 7. drop/corrupt draws per participant charge retransmit cost
    ///    through the bytes-aware comm model;
    /// 8. the clock advances by the slowest *participant* plus the round's
    ///    communication delays, and the staleness table updates.
    ///
    /// The fault layer covers only this entry point: the mid-round probes
    /// [`PasgdCluster::average_now`] and [`PasgdCluster::run_local_only`]
    /// always act on the full cluster, and evaluation still reads worker 0
    /// (whose model can be stale while worker 0 is down).
    ///
    /// Returns the mean local training loss observed during the round.
    /// This observational mean is folded inside the parallel map, so its
    /// last float bits can vary with the machine's core count (unlike the
    /// training state and clock, which are bit-deterministic per seed;
    /// compare with [`PasgdCluster::eval_train_loss`] for a
    /// parameter-derived loss).
    ///
    /// # Panics
    ///
    /// Panics if `tau == 0`.
    pub fn run_round(&mut self, tau: usize) -> f32 {
        assert!(tau >= 1, "communication period must be at least 1");
        let FaultConfig { spec, policy } = self.fault_config;
        let round_index = self.rounds;
        let everyone = Arc::clone(&self.everyone);
        // take/put-back: neither can stay borrowed while `&mut self` round
        // methods run.
        let mut fault = self.fault.take();
        let mut times = std::mem::take(&mut self.worker_times);

        let survivors = fault.as_mut().map(|f| {
            count_faults("sim.faults.rejoins", f.sweep_rejoins(round_index));
            count_faults("sim.faults.crashes", f.draw_crashes(round_index, &spec));
            f.up_workers(round_index)
        });
        let up = survivors.as_deref().unwrap_or(&everyone);
        debug_assert!(!up.is_empty(), "survivor guarantee violated");

        let mean_loss = self.local_fanout(tau, up);

        // Delay-stream order. Every round draws m·τ compute times (whole
        // cluster, worker order), one comm delay, and whatever the mix
        // draws (partial participation shuffles with this same stream). A
        // fault state has to see the times *before* the average, because
        // its participant set depends on them; without one they are drawn
        // after it, where the fused sampler always drew them. Each case
        // keeps its order: swapping either changes every seeded trace.
        let selected = fault.as_mut().map(|f| {
            self.runtime
                .sample_worker_compute_times(tau, &mut times, &mut self.delay_rng);
            count_faults(
                "sim.faults.stragglers",
                f.spike_stragglers(&spec, up, &mut times),
            );
            policy.select(up, &times, &f.missed)
        });
        let participants = selected.as_deref().unwrap_or(&everyone);
        let degraded = participants.len() < self.workers.len();

        let bytes = {
            let _degraded_phase = degraded.then(|| telemetry::span("phase.degraded"));
            self.average(tau, participants)
        };
        if fault.is_none() {
            self.runtime
                .sample_worker_compute_times(tau, &mut times, &mut self.delay_rng);
        }
        telemetry::counter("sim.rounds").inc();
        telemetry::histogram("sim.round_tau").observe(tau as f64);
        telemetry::histogram("sim.round_payload_bytes").observe(bytes);

        let retransmits = fault.as_mut().map_or(0, |f| {
            if degraded {
                telemetry::counter("sim.degraded_rounds").inc();
                f.stats.degraded_rounds += 1;
            }
            let (drops, corruptions) = f.draw_upload_losses(&spec, participants.len());
            count_faults("sim.faults.drops", drops);
            count_faults("sim.faults.corruptions", corruptions);
            count_faults("sim.faults.retransmits", drops + corruptions);
            f.note_participants(participants);
            drops + corruptions
        });

        // Clock advance: the round waits for its slowest participant, then
        // pays one communication delay over the participant group plus one
        // per retransmit.
        let elapsed_compute = participants
            .iter()
            .map(|&i| times[i])
            .fold(f64::NEG_INFINITY, f64::max);
        let comm_model = self.runtime.comm();
        let mut comm = comm_model.sample_bytes(participants.len(), bytes, &mut self.delay_rng);
        let mut round_bytes = bytes;
        for _ in 0..retransmits {
            comm += comm_model.sample_bytes(participants.len(), bytes, &mut self.delay_rng);
            round_bytes += bytes;
        }
        self.clock += elapsed_compute + comm;
        self.compute_time += elapsed_compute;
        self.comm_time += comm;
        self.comm_bytes += round_bytes;
        self.peak_payload_bytes = self.peak_payload_bytes.max(bytes);
        self.rounds += 1;

        self.fault = fault;
        self.worker_times = times;
        mean_loss
    }

    /// Runs `steps` local steps on every worker *without* averaging,
    /// advancing the clock by the slowest worker's compute time only.
    /// Used by the Figure 14 experiment to probe local-model quality
    /// mid-round. The returned mean loss carries the same core-count
    /// caveat as [`PasgdCluster::run_round`].
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0`.
    pub fn run_local_only(&mut self, steps: usize) -> f32 {
        assert!(steps >= 1, "must take at least one step");
        let everyone = Arc::clone(&self.everyone);
        let mean_loss = self.local_fanout(steps, &everyone);
        let round = self.runtime.sample_round(steps, &mut self.delay_rng);
        self.clock += round.compute; // no communication happened
        self.compute_time += round.compute;
        mean_loss
    }

    /// The local-update fan-out: the `up` workers (ascending indices) take
    /// `steps` local SGD steps in parallel on the persistent pool, and
    /// their losses are folded inside the parallel map (no per-round
    /// `Vec`). A worker not in `up` does nothing — its batch stream does
    /// not advance — but the iteration counter still moves by the nominal
    /// `steps`, keeping the paper's iteration axis meaningful. Returns the
    /// mean local training loss over the workers that stepped.
    fn local_fanout(&mut self, steps: usize, up: &[usize]) -> f32 {
        let _phase = telemetry::span("phase.compute");
        telemetry::counter("sim.local_steps").add((steps * up.len()) as u64);
        let total: f32 = self
            .workers
            .par_iter_mut()
            .map(|w| match up.binary_search(&w.id()) {
                Ok(_) => w.local_steps(steps),
                Err(_) => 0.0,
            })
            .sum();
        self.iterations += steps as u64;
        total / up.len() as f32
    }

    /// Performs the averaging step immediately (eq. 3's first case),
    /// including block momentum and local-momentum resets, and pays one
    /// communication delay.
    pub fn average_now(&mut self) {
        let everyone = Arc::clone(&self.everyone);
        // A direct averaging call closes whatever local stretch preceded
        // it; treat it as a genuine local-update period for momentum
        // purposes.
        let bytes = self.average(2, &everyone);
        let d =
            self.runtime
                .comm()
                .sample_bytes(self.runtime.workers(), bytes, &mut self.delay_rng);
        self.clock += d;
        self.comm_time += d;
        self.comm_bytes += bytes;
        self.peak_payload_bytes = self.peak_payload_bytes.max(bytes);
        self.rounds += 1;
    }

    /// The averaging step over the `participants` (ascending worker
    /// indices, non-empty; the whole cluster except in a degraded round):
    /// collects each participant's averaging message (compressing it when
    /// a codec is configured), applies the averaging strategy among them,
    /// and broadcasts the result to them. Every other worker keeps its
    /// local — possibly stale — parameters. Returns the round's per-worker
    /// payload in bytes, the size the communication model charges for.
    ///
    /// The entire path runs over reused flat parameter planes: in steady
    /// state a full-precision round performs no heap allocation. All
    /// averaging reduces through the one shared
    /// [`mean_plane_into`](crate::topology::mean_plane_into) helper, whose
    /// per-element float sequence matches the old snapshot-based path
    /// exactly, so full-precision results are bit-identical (golden-trace
    /// test).
    fn average(&mut self, tau: usize, participants: &[usize]) -> f64 {
        debug_assert!(!participants.is_empty(), "no participants to average");
        let _phase = telemetry::span("phase.average");
        let identity = matches!(self.codec, CodecSpec::Identity);
        let full_average = matches!(self.averaging, AveragingStrategy::FullAverage);
        let count = participants.len();
        let mut payload_bytes = self.full_payload_bytes as f64;

        // Fast path: full-precision full averaging accumulates straight
        // from the participants' models into the reused accumulator — same
        // per-element float sequence as staging each worker's plane first
        // (participant order, then one 1/count scale), minus two plane
        // passes per worker per round.
        if identity && full_average {
            self.workers[participants[0]].copy_params_into(&mut self.accum);
            for &i in &participants[1..] {
                self.workers[i].add_params_to(&mut self.accum);
            }
            let inv = 1.0 / count as f32;
            for a in self.accum.iter_mut() {
                *a *= inv;
            }
            self.broadcast_accum(tau, participants);
            return payload_bytes;
        }

        // Fill one message plane per participant. Under the identity codec
        // the parameters are the messages; under a codec each worker
        // encodes its delta (error feedback included) into its plane.
        if identity {
            for &i in participants {
                self.workers[i].copy_params_into(&mut self.msg_planes[i]);
            }
        } else {
            // Codec encode/decode is its own phase nested inside averaging:
            // `phase.average` self time excludes it. Each participant
            // encodes into its own plane on the pool, like the local
            // fan-out; the payload is an integer max, so no bit depends on
            // the thread count.
            let _codec_phase = telemetry::span("phase.codec");
            let codec = self.codec;
            let segments = &self.param_sizes;
            let mut senders: Vec<(&mut Worker, &mut Vec<f32>)> = self
                .workers
                .iter_mut()
                .zip(&mut self.msg_planes)
                .filter(|(w, _)| participants.binary_search(&w.id()).is_ok())
                .collect();
            let sizes: Vec<usize> = senders
                .par_iter_mut()
                .map(|(w, plane)| w.encode_update_into(&codec, segments, plane))
                .collect();
            payload_bytes = sizes.into_iter().max().unwrap_or(0) as f64;
        }

        if !full_average {
            // Extension strategies (ring gossip, partial participation,
            // elastic averaging) mix in place and are momentum-agnostic.
            // They run on a compacted view: the participants' planes are
            // swapped into the leading slots, mixed as a `count`-worker
            // cluster, and swapped back (reverse order restores the layout
            // exactly because `slot ≤ participants[slot]` for ascending
            // indices; with the whole cluster every swap is a no-op).
            //
            // Under a codec, a worker the mix left untouched (e.g. a
            // partial-participation non-participant) must keep its exact
            // local parameters: its lossy self-reconstruction was a
            // message for *others*, and overwriting the worker with it
            // would discard real local progress nothing compensates. Its
            // error-feedback residual is cleared rather than kept — the
            // worker was not re-anchored, so the un-transmitted mass is
            // still wholly contained in its next delta, and carrying the
            // residual too would double-count it.
            let compressed = !identity;
            for (slot, &i) in participants.iter().enumerate() {
                self.msg_planes.swap(slot, i);
            }
            let touched = self
                .averaging
                .mix(&mut self.msg_planes[..count], &mut self.delay_rng);
            for (slot, &i) in participants.iter().enumerate().rev() {
                self.msg_planes.swap(slot, i);
            }
            for (&i, touched) in participants.iter().zip(touched) {
                let w = &mut self.workers[i];
                if touched {
                    w.load_params_from(&self.msg_planes[i]);
                } else if compressed {
                    w.reset_feedback();
                }
                if self.momentum.resets_local_at_sync(tau) {
                    w.reset_momentum();
                }
            }
            return payload_bytes;
        }

        // Full average of the participants' (reconstructed) messages into
        // the reused accumulator, in participant order — the shared
        // reduction that keeps results bit-identical to snapshot averaging.
        let planes = &self.msg_planes;
        crate::topology::mean_plane_into(
            &mut self.accum,
            &planes[participants[0]],
            participants[1..].iter().map(|&i| planes[i].as_slice()),
            count,
        );
        self.broadcast_accum(tau, participants);
        payload_bytes
    }

    /// Applies block momentum to the averaged plane in `self.accum` (if
    /// configured — the constructor rejects it for fault-active clusters,
    /// so it only ever sees the all-node average of eq. 24) and broadcasts
    /// the result to the `participants`.
    fn broadcast_accum(&mut self, tau: usize, participants: &[usize]) {
        let broadcast: &[f32] = match &mut self.block {
            // The global buffer only accumulates over genuine local-update
            // periods; with tau = 1 the scheme degenerates to plain
            // momentum SGD (Section 5.3.1).
            Some(block) if tau > 1 => {
                block.apply_into(&self.accum, self.current_lr, &mut self.scratch);
                &self.scratch
            }
            Some(block) => {
                block.observe_sync(&self.accum);
                &self.accum
            }
            None => &self.accum,
        };
        for &i in participants {
            let w = &mut self.workers[i];
            w.load_params_from(broadcast);
            if self.momentum.resets_local_at_sync(tau) {
                w.reset_momentum();
            }
        }
    }

    // ------------------------------------------------------------------
    // Evaluation
    // ------------------------------------------------------------------

    /// Training loss of the synchronized model on the evaluation subset.
    ///
    /// Callers should invoke this right after a round (models agree then);
    /// mid-round it reports worker 0's local model.
    ///
    /// Evaluation sets beyond one 256-row chunk run as parallel
    /// pool chunk jobs (one model replica per chunk) whose per-row losses
    /// are reduced in row order — bit-identical to a single whole-batch
    /// forward pass (see [`nn::Network::eval_row_losses`]), on any number
    /// of pool threads.
    pub fn eval_train_loss(&mut self) -> f32 {
        let state = (0usize, self.iterations, self.rounds);
        if let Some((cached_state, loss)) = self.eval_loss_cache {
            if cached_state == state {
                return loss;
            }
        }
        let loss = self.eval_train_loss_uncached();
        self.eval_loss_cache = Some((state, loss));
        loss
    }

    fn eval_train_loss_uncached(&mut self) -> f32 {
        let _phase = telemetry::span("phase.eval");
        if self.train_eval.chunks.len() <= 1 {
            let (x, y) = &self.train_eval.chunks[0];
            return self.workers[0].model_mut().eval_loss(x, y);
        }
        self.sync_eval_replicas(0);
        let per_chunk: Vec<Vec<f64>> = {
            let mut jobs: Vec<EvalJob> = self
                .eval_replicas
                .iter_mut()
                .zip(&self.train_eval.chunks)
                .map(|(model, (x, labels))| EvalJob { model, x, labels })
                .collect();
            jobs.par_iter_mut()
                .with_max_len(1)
                .map(|j| j.model.eval_row_losses(j.x, j.labels))
                .collect()
        };
        let rows: Vec<f64> = per_chunk.concat();
        let kind = self.workers[0].model().loss_kind();
        kind.reduce_rows(&rows, self.eval_classes)
    }

    /// Test accuracy of the synchronized model (worker 0's replica).
    ///
    /// Chunked and pooled like [`PasgdCluster::eval_train_loss`]; the
    /// reduction is an integer match count, so chunking is trivially
    /// exact.
    pub fn eval_test_accuracy(&mut self) -> f64 {
        let state = (0usize, self.iterations, self.rounds);
        if let Some((cached_state, acc)) = self.eval_acc_cache {
            if cached_state == state {
                return acc;
            }
        }
        let acc = self.test_accuracy_of(0);
        self.eval_acc_cache = Some((state, acc));
        acc
    }

    /// Test accuracy of one worker's *local* model (differs from the
    /// synchronized model mid-round) — the Figure 14 probe.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn eval_local_test_accuracy(&mut self, worker: usize) -> f64 {
        assert!(worker < self.workers.len(), "worker {worker} out of range");
        self.test_accuracy_of(worker)
    }

    /// Shared test-accuracy path: evaluates `worker`'s model over the test
    /// chunks (in parallel when there is more than one chunk).
    fn test_accuracy_of(&mut self, worker: usize) -> f64 {
        let _phase = telemetry::span("phase.eval");
        if self.test_eval.chunks.len() <= 1 {
            let (x, y) = &self.test_eval.chunks[0];
            return self.workers[worker].model_mut().accuracy(x, y);
        }
        self.sync_eval_replicas(worker);
        let correct: usize = {
            let mut jobs: Vec<EvalJob> = self
                .eval_replicas
                .iter_mut()
                .zip(&self.test_eval.chunks)
                .map(|(model, (x, labels))| EvalJob { model, x, labels })
                .collect();
            jobs.par_iter_mut()
                .with_max_len(1)
                .map(|j| j.model.correct_count(j.x, j.labels))
                .sum()
        };
        correct as f64 / self.test_eval.rows as f64
    }

    /// Loads `worker`'s current parameters into every evaluation replica
    /// (via the reused scratch plane; no allocation in steady state).
    /// Skipped entirely when the replicas already hold this worker's
    /// parameters at the current training state — the common
    /// loss-then-accuracy pair at a trace point pays one copy, not two.
    fn sync_eval_replicas(&mut self, worker: usize) {
        let state = (worker, self.iterations, self.rounds);
        if self.eval_synced_for == Some(state) {
            return;
        }
        self.workers[worker].copy_params_into(&mut self.scratch);
        for replica in &mut self.eval_replicas {
            replica.load_params_from(&self.scratch);
        }
        self.eval_synced_for = Some(state);
    }

    // ------------------------------------------------------------------
    // Checkpoint / resume
    // ------------------------------------------------------------------

    /// Captures the cluster's complete mutable state — counters, clock,
    /// codec, delay stream, block-momentum planes, and every worker — for
    /// a run checkpoint taken at a round boundary.
    pub fn checkpoint(&self) -> ClusterCheckpoint {
        let _phase = telemetry::span("phase.checkpoint");
        ClusterCheckpoint {
            clock: self.clock,
            iterations: self.iterations,
            rounds: self.rounds,
            comm_time: self.comm_time,
            compute_time: self.compute_time,
            comm_bytes: self.comm_bytes,
            peak_payload_bytes: self.peak_payload_bytes,
            current_lr: self.current_lr,
            codec: self.codec,
            delay_rng: self.delay_rng.state(),
            block: self.block.as_ref().map(|b| {
                let (buffer, prev_sync) = b.state();
                (buffer.to_vec(), prev_sync.to_vec())
            }),
            fault: self.fault.as_ref().map(|f| f.export_checkpoint()),
            workers: self.workers.iter().map(Worker::export_checkpoint).collect(),
        }
    }

    /// Restores state captured by [`PasgdCluster::checkpoint`] onto a
    /// freshly built cluster of the *same* configuration, after which
    /// training continues bit-identically to the uninterrupted run.
    ///
    /// Structural mismatches (worker count, plane lengths, block-momentum
    /// or fault-state presence, invalid learning rate or codec parameters,
    /// a codec that disagrees with the workers' sync-reference tracking)
    /// return `Err` —
    /// callers must treat the cluster as unusable on failure and recompute
    /// from scratch. Evaluation memoization is dropped so no stale cached
    /// figure can survive a restore.
    pub fn restore(&mut self, ck: &ClusterCheckpoint) -> Result<(), String> {
        if ck.workers.len() != self.workers.len() {
            return Err(format!(
                "checkpoint has {} workers but the cluster has {}",
                ck.workers.len(),
                self.workers.len()
            ));
        }
        if !(ck.current_lr > 0.0 && ck.current_lr.is_finite()) {
            return Err(format!(
                "invalid checkpointed learning rate {}",
                ck.current_lr
            ));
        }
        let codec_ok = match ck.codec {
            CodecSpec::TopK { ratio } | CodecSpec::RandomK { ratio } => {
                ratio.is_finite() && ratio > 0.0 && ratio <= 1.0
            }
            CodecSpec::Qsgd { bits } => (1..=16).contains(&bits),
            CodecSpec::Identity | CodecSpec::Sign => true,
        };
        if !codec_ok {
            return Err(format!("invalid checkpointed codec {:?}", ck.codec));
        }
        // A lossy codec encodes deltas against each worker's sync
        // reference and the identity codec keeps none: a frame that
        // disagrees with the checkpointed codec would panic in the next
        // round's encode.
        let lossy = !matches!(ck.codec, CodecSpec::Identity);
        if let Some(i) = ck.workers.iter().position(|w| w.track_reference != lossy) {
            return Err(format!(
                "worker {i} has sync-reference tracking {} under checkpointed codec {:?}",
                if lossy { "off" } else { "on" },
                ck.codec
            ));
        }
        match (&self.block, &ck.block) {
            (Some(_), Some(_)) | (None, None) => {}
            (Some(_), None) => {
                return Err("block momentum configured but absent from checkpoint".to_string())
            }
            (None, Some(_)) => {
                return Err("checkpoint has block momentum but the cluster does not".to_string())
            }
        }
        match (&self.fault, &ck.fault) {
            (Some(_), Some(_)) | (None, None) => {}
            (Some(_), None) => {
                return Err("fault injection configured but absent from checkpoint".to_string())
            }
            (None, Some(_)) => {
                return Err("checkpoint has fault state but the cluster does not".to_string())
            }
        }
        if let Some(fck) = &ck.fault {
            if fck.down_until.len() != self.workers.len() || fck.missed.len() != self.workers.len()
            {
                return Err(format!(
                    "fault checkpoint tables sized for {}/{} workers but the cluster has {}",
                    fck.down_until.len(),
                    fck.missed.len(),
                    self.workers.len()
                ));
            }
        }
        for (w, wck) in self.workers.iter_mut().zip(&ck.workers) {
            w.restore_checkpoint(wck)?;
        }
        if let (Some(block), Some((buffer, prev_sync))) = (&mut self.block, &ck.block) {
            block.restore_state(buffer.clone(), prev_sync.clone())?;
        }
        if let (Some(fault), Some(fck)) = (&mut self.fault, &ck.fault) {
            fault.restore_checkpoint(fck);
        }
        self.clock = ck.clock;
        self.iterations = ck.iterations;
        self.rounds = ck.rounds;
        self.comm_time = ck.comm_time;
        self.compute_time = ck.compute_time;
        self.comm_bytes = ck.comm_bytes;
        self.peak_payload_bytes = ck.peak_payload_bytes;
        self.codec = ck.codec;
        self.delay_rng = StdRng::from_state(ck.delay_rng);
        self.set_lr(ck.current_lr);
        self.eval_synced_for = None;
        self.eval_loss_cache = None;
        self.eval_acc_cache = None;
        Ok(())
    }

    /// Mean pairwise parameter distance between local models (a direct
    /// measure of the model discrepancy that grows with `τ`, Figure 2).
    ///
    /// A pair's distance is taken segment by segment over the parameter
    /// planes (one segment per parameter tensor, see
    /// [`nn::Network::param_sizes`]): each segment's distance is the square
    /// root of a left-to-right `f32` sum of squared differences, and the
    /// squared segment distances are summed in segment order before the
    /// final square root. The golden traces pin this order bit for bit.
    pub fn model_discrepancy(&self) -> f32 {
        let planes: Vec<Vec<f32>> = self
            .workers
            .iter()
            .map(|w| w.model().params_flat())
            .collect();
        if planes.len() < 2 {
            return 0.0;
        }
        let mut total = 0.0f32;
        let mut pairs = 0u32;
        for i in 0..planes.len() {
            for j in i + 1..planes.len() {
                let mut offset = 0usize;
                let dist_sq: f32 = self
                    .param_sizes
                    .iter()
                    .map(|&len| {
                        let seg = offset..offset + len;
                        offset += len;
                        let d = planes[i][seg.clone()]
                            .iter()
                            .zip(&planes[j][seg])
                            .map(|(&a, &b)| (a - b) * (a - b))
                            .sum::<f32>()
                            .sqrt();
                        d * d
                    })
                    .sum();
                total += dist_sq.sqrt();
                pairs += 1;
            }
        }
        total / pairs as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use data::GaussianMixture;
    use delay::{CommModel, DelayDistribution};
    use nn::models;

    fn constant_runtime(y: f64, d: f64, m: usize) -> RuntimeModel {
        RuntimeModel::new(DelayDistribution::constant(y), CommModel::constant(d), m)
    }

    fn toy_cluster(momentum: MomentumMode, seed: u64) -> PasgdCluster {
        let split = GaussianMixture::small_test().generate(3);
        PasgdCluster::new(
            models::mlp_classifier(8, &[16], 3, 11),
            split,
            constant_runtime(1.0, 0.5, 2),
            ClusterConfig {
                workers: 2,
                batch_size: 8,
                lr: 0.05,
                weight_decay: 0.0,
                momentum,
                averaging: crate::AveragingStrategy::FullAverage,
                codec: gradcomp::CodecSpec::Identity,
                seed,
                eval_subset: 64,
                fault: FaultConfig::NONE,
            },
        )
    }

    #[test]
    fn clock_advances_by_delay_model() {
        let mut c = toy_cluster(MomentumMode::None, 0);
        c.run_round(4);
        // Constant delays: 4 * 1.0 compute + 0.5 comm.
        assert!((c.clock() - 4.5).abs() < 1e-9);
        assert_eq!(c.iterations(), 4);
        assert_eq!(c.rounds(), 1);
        c.run_round(1);
        assert!((c.clock() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn comm_and_compute_time_split() {
        let mut c = toy_cluster(MomentumMode::None, 0);
        c.run_round(10);
        assert!((c.compute_time() - 10.0).abs() < 1e-9);
        assert!((c.comm_time() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn models_agree_after_round() {
        let mut c = toy_cluster(MomentumMode::None, 1);
        c.run_round(5);
        assert!(
            c.model_discrepancy() < 1e-6,
            "post-averaging discrepancy {}",
            c.model_discrepancy()
        );
    }

    #[test]
    fn discrepancy_grows_during_local_steps() {
        let mut c = toy_cluster(MomentumMode::None, 2);
        c.run_round(1); // sync first
        let d0 = c.model_discrepancy();
        c.run_local_only(5);
        let d5 = c.model_discrepancy();
        assert!(d5 > d0, "discrepancy should grow: {d0} -> {d5}");
        c.average_now();
        assert!(c.model_discrepancy() < 1e-6);
    }

    #[test]
    fn training_reduces_loss() {
        let mut c = toy_cluster(MomentumMode::None, 3);
        let before = c.eval_train_loss();
        for _ in 0..30 {
            c.run_round(4);
        }
        let after = c.eval_train_loss();
        assert!(after < before * 0.8, "loss {before} -> {after}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut c = toy_cluster(MomentumMode::None, seed);
            for _ in 0..5 {
                c.run_round(3);
            }
            (c.eval_train_loss(), c.clock())
        };
        let (l1, t1) = run(7);
        let (l2, t2) = run(7);
        assert_eq!(l1, l2);
        assert_eq!(t1, t2);
        let (l3, _) = run(8);
        assert_ne!(l1, l3);
    }

    #[test]
    fn block_momentum_runs_and_syncs() {
        let mut c = toy_cluster(MomentumMode::paper_block(), 4);
        for _ in 0..10 {
            c.run_round(4);
        }
        assert!(c.model_discrepancy() < 1e-6);
        assert!(c.eval_train_loss().is_finite());
    }

    #[test]
    fn block_momentum_with_zero_global_matches_plain_averaging() {
        // With beta_glob = 0 and local momentum 0, block momentum reduces to
        // plain PASGD exactly.
        let mk = |momentum| {
            let split = GaussianMixture::small_test().generate(5);
            PasgdCluster::new(
                models::mlp_classifier(8, &[8], 3, 13),
                split,
                constant_runtime(1.0, 0.5, 2),
                ClusterConfig {
                    workers: 2,
                    batch_size: 8,
                    lr: 0.05,
                    weight_decay: 0.0,
                    momentum,
                    averaging: crate::AveragingStrategy::FullAverage,
                    codec: gradcomp::CodecSpec::Identity,
                    seed: 21,
                    eval_subset: 64,
                    fault: FaultConfig::NONE,
                },
            )
        };
        let mut plain = mk(MomentumMode::None);
        let mut block = mk(MomentumMode::Block {
            global: 0.0,
            local: 0.0,
        });
        for _ in 0..4 {
            plain.run_round(3);
            block.run_round(3);
        }
        let dl = (plain.eval_train_loss() - block.eval_train_loss()).abs();
        assert!(dl < 1e-5, "losses diverged by {dl}");
    }

    #[test]
    fn set_lr_applies_to_all_workers() {
        let mut c = toy_cluster(MomentumMode::None, 6);
        c.set_lr(0.005);
        assert_eq!(c.lr(), 0.005);
        c.run_round(2); // must not panic, workers updated
    }

    #[test]
    fn epochs_track_consumed_samples() {
        let mut c = toy_cluster(MomentumMode::None, 9);
        // 96 training examples, 2 workers x batch 8: one round of 6 steps
        // consumes 96 samples = 1 epoch.
        c.run_round(6);
        assert!((c.epochs() - 1.0).abs() < 1e-9, "epochs {}", c.epochs());
    }

    #[test]
    fn eval_accuracy_in_unit_range() {
        let mut c = toy_cluster(MomentumMode::None, 10);
        let acc = c.eval_test_accuracy();
        assert!((0.0..=1.0).contains(&acc));
        let local = c.eval_local_test_accuracy(1);
        assert!((0.0..=1.0).contains(&local));
    }

    #[test]
    fn compressed_round_synchronizes_and_shrinks_payload() {
        let split = GaussianMixture::small_test().generate(3);
        let mut c = PasgdCluster::new(
            models::mlp_classifier(8, &[16], 3, 11),
            split,
            constant_runtime(1.0, 0.5, 2),
            ClusterConfig {
                workers: 2,
                batch_size: 8,
                codec: CodecSpec::TopK { ratio: 0.1 },
                seed: 4,
                eval_subset: 64,
                ..ClusterConfig::default()
            },
        );
        c.run_round(4);
        assert!(
            c.model_discrepancy() < 1e-6,
            "full averaging of reconstructions must still synchronize"
        );
        assert!(c.mean_residual_norm() > 0.0, "Top-K must leave a residual");
        let full = c.full_payload_bytes() as f64;
        assert!(
            c.comm_bytes() < 0.25 * full,
            "10% Top-K payload {} must be far below full {}",
            c.comm_bytes(),
            full
        );
    }

    #[test]
    fn bandwidth_model_makes_compressed_rounds_cheaper() {
        let run = |codec| {
            let split = GaussianMixture::small_test().generate(3);
            // Bandwidth-dominated regime: 5 ms latency, ~78 ms transfer
            // for the ~195-parameter toy model at 0.1 ms/byte.
            let comm = CommModel::constant(0.005).with_bandwidth(1e-4);
            let mut c = PasgdCluster::new(
                models::mlp_classifier(8, &[16], 3, 11),
                split,
                RuntimeModel::new(DelayDistribution::constant(1.0), comm, 2),
                ClusterConfig {
                    workers: 2,
                    batch_size: 8,
                    codec,
                    seed: 4,
                    eval_subset: 64,
                    ..ClusterConfig::default()
                },
            );
            for _ in 0..3 {
                c.run_round(4);
            }
            (c.clock(), c.comm_time())
        };
        let (full_clock, full_comm) = run(CodecSpec::Identity);
        let (sparse_clock, sparse_comm) = run(CodecSpec::TopK { ratio: 0.01 });
        assert!(
            sparse_comm < full_comm * 0.2,
            "compressed comm {sparse_comm} vs full {full_comm}"
        );
        assert!(sparse_clock < full_clock);
    }

    #[test]
    fn compressed_training_still_reduces_loss() {
        let split = GaussianMixture::small_test().generate(5);
        let mut c = PasgdCluster::new(
            models::mlp_classifier(8, &[16], 3, 11),
            split,
            constant_runtime(1.0, 0.5, 2),
            ClusterConfig {
                workers: 2,
                batch_size: 8,
                lr: 0.05,
                weight_decay: 0.0,
                codec: CodecSpec::TopK { ratio: 0.25 },
                seed: 3,
                eval_subset: 64,
                ..ClusterConfig::default()
            },
        );
        let before = c.eval_train_loss();
        for _ in 0..30 {
            c.run_round(4);
        }
        let after = c.eval_train_loss();
        assert!(
            after < before * 0.8,
            "error feedback must keep Top-K converging: {before} -> {after}"
        );
    }

    #[test]
    fn compression_composes_with_extension_averaging() {
        for averaging in [
            crate::AveragingStrategy::Ring,
            crate::AveragingStrategy::Elastic { alpha: 0.5 },
            crate::AveragingStrategy::PartialParticipation { fraction: 0.5 },
        ] {
            let split = GaussianMixture::small_test().generate(6);
            let mut c = PasgdCluster::new(
                models::mlp_classifier(8, &[16], 3, 11),
                split,
                constant_runtime(1.0, 0.5, 4),
                ClusterConfig {
                    workers: 4,
                    batch_size: 8,
                    averaging,
                    codec: CodecSpec::Sign,
                    seed: 8,
                    eval_subset: 64,
                    ..ClusterConfig::default()
                },
            );
            for _ in 0..3 {
                c.run_round(2);
            }
            assert!(c.eval_train_loss().is_finite(), "{averaging:?} diverged");
            assert!(c.comm_bytes() > 0.0);
            assert!(c.comm_bytes() < 0.2 * 3.0 * c.full_payload_bytes() as f64);
        }
    }

    #[test]
    fn unbiased_codec_leaves_non_participants_untouched() {
        // PartialParticipation with fraction 0.25 of 4 workers samples a
        // single participant, whose "average" is itself — so no worker's
        // parameters may change at the sync point. With the n/k-scaled
        // Random-K at 1%, overwriting idle workers with their own lossy
        // self-reconstruction (the pre-fix behaviour) injects ~100x-variance
        // noise every round and visibly blows the loss up.
        let split = GaussianMixture::small_test().generate(9);
        let mut c = PasgdCluster::new(
            models::mlp_classifier(8, &[16], 3, 11),
            split,
            constant_runtime(1.0, 0.5, 4),
            ClusterConfig {
                workers: 4,
                batch_size: 8,
                lr: 0.05,
                weight_decay: 0.0,
                averaging: crate::AveragingStrategy::PartialParticipation { fraction: 0.25 },
                codec: CodecSpec::RandomK { ratio: 0.01 },
                seed: 10,
                eval_subset: 64,
                ..ClusterConfig::default()
            },
        );
        let before = c.eval_train_loss();
        for _ in 0..12 {
            c.run_round(3);
        }
        let after = c.eval_train_loss();
        // With nobody actually mixing, this is local-only SGD: the loss
        // must improve, not explode under self-reconstruction noise.
        assert!(
            after.is_finite() && after < before,
            "idle workers were noised by their own codec: {before} -> {after}"
        );
        // The messages were still priced on the wire.
        assert!(c.comm_bytes() > 0.0);
    }

    #[test]
    fn set_codec_keeps_residuals_within_family_and_drops_across() {
        let split = GaussianMixture::small_test().generate(7);
        let mut c = PasgdCluster::new(
            models::mlp_classifier(8, &[16], 3, 11),
            split,
            constant_runtime(1.0, 0.5, 2),
            ClusterConfig {
                workers: 2,
                batch_size: 8,
                codec: CodecSpec::TopK { ratio: 0.05 },
                seed: 9,
                eval_subset: 64,
                ..ClusterConfig::default()
            },
        );
        c.run_round(2);
        assert!(c.mean_residual_norm() > 0.0);
        // Ratio change within Top-K keeps the compensation state.
        c.set_codec(CodecSpec::TopK { ratio: 0.2 });
        assert!(c.mean_residual_norm() > 0.0);
        assert_eq!(c.codec(), CodecSpec::TopK { ratio: 0.2 });
        // Family change drops it.
        c.set_codec(CodecSpec::Qsgd { bits: 4 });
        assert_eq!(c.mean_residual_norm(), 0.0);
    }

    #[test]
    #[should_panic(expected = "communication period must be at least 1")]
    fn zero_tau_rejected() {
        let mut c = toy_cluster(MomentumMode::None, 11);
        let _ = c.run_round(0);
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    use crate::{AggregationPolicy, FaultSpec};

    fn faulty_cluster(seed: u64, fault: FaultConfig, m: usize) -> PasgdCluster {
        let split = GaussianMixture::small_test().generate(3);
        PasgdCluster::new(
            models::mlp_classifier(8, &[16], 3, 11),
            split,
            constant_runtime(1.0, 0.5, m),
            ClusterConfig {
                workers: m,
                batch_size: 8,
                lr: 0.05,
                weight_decay: 0.0,
                seed,
                eval_subset: 64,
                fault,
                ..ClusterConfig::default()
            },
        )
    }

    #[test]
    fn crashes_rejoin_and_training_survives() {
        let fault = FaultConfig {
            spec: FaultSpec {
                crash_prob: 0.3,
                rejoin_after: 2,
                ..FaultSpec::NONE
            },
            policy: AggregationPolicy::FullBarrier,
        };
        let mut c = faulty_cluster(5, fault, 4);
        for _ in 0..20 {
            c.run_round(3);
        }
        let stats = c.fault_stats();
        assert!(
            stats.crashes > 0,
            "crash_prob 0.3 over 20 rounds: {stats:?}"
        );
        assert!(stats.rejoins > 0, "rejoin_after 2 must fire: {stats:?}");
        assert!(stats.degraded_rounds > 0);
        assert!(c.degraded_frac() > 0.0 && c.degraded_frac() <= 1.0);
        assert!(c.eval_train_loss().is_finite());
    }

    #[test]
    fn faulty_runs_are_deterministic_given_seed() {
        let fault = FaultConfig {
            spec: FaultSpec {
                crash_prob: 0.2,
                rejoin_after: 2,
                drop_prob: 0.1,
                corrupt_prob: 0.05,
                straggler_prob: 0.2,
                straggler_factor: 4.0,
            },
            policy: AggregationPolicy::Quorum {
                quorum: 3,
                deadline_secs: 50.0,
            },
        };
        let run = |seed| {
            let mut c = faulty_cluster(seed, fault, 4);
            for _ in 0..12 {
                c.run_round(2);
            }
            (c.eval_train_loss(), c.clock(), c.fault_stats())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn quorum_policy_caps_straggler_compute_time() {
        // Same seed and spec, two policies: the fault draws are identical,
        // so the quorum run must wait strictly less compute time whenever
        // a straggler fired.
        let spec = FaultSpec {
            straggler_prob: 0.3,
            straggler_factor: 100.0,
            ..FaultSpec::NONE
        };
        let run = |policy| {
            let mut c = faulty_cluster(11, FaultConfig { spec, policy }, 4);
            for _ in 0..10 {
                c.run_round(2);
            }
            (c.compute_time(), c.fault_stats())
        };
        let (barrier_time, barrier_stats) = run(AggregationPolicy::FullBarrier);
        let (quorum_time, quorum_stats) = run(AggregationPolicy::Quorum {
            quorum: 3,
            deadline_secs: 1000.0,
        });
        assert_eq!(barrier_stats.stragglers, quorum_stats.stragglers);
        assert!(barrier_stats.stragglers > 0, "seed 11 must straggle");
        assert!(
            quorum_time < barrier_time,
            "quorum {quorum_time} vs barrier {barrier_time}"
        );
        assert!(quorum_stats.degraded_rounds > 0);
    }

    #[test]
    fn bounded_staleness_forces_slow_workers_back_in() {
        let spec = FaultSpec {
            straggler_prob: 0.4,
            straggler_factor: 50.0,
            ..FaultSpec::NONE
        };
        let mut c = faulty_cluster(
            13,
            FaultConfig {
                spec,
                policy: AggregationPolicy::BoundedStaleness {
                    quorum: 2,
                    max_staleness: 2,
                },
            },
            4,
        );
        for _ in 0..15 {
            c.run_round(2);
        }
        // The staleness bound means nobody can miss 3+ consecutive
        // averages; with quorum 2 of 4 there must be degraded rounds.
        assert!(c.fault_stats().degraded_rounds > 0);
        assert!(c.eval_train_loss().is_finite());
    }

    #[test]
    fn retransmits_charge_extra_bytes_and_comm_time() {
        let spec = FaultSpec {
            drop_prob: 0.5,
            corrupt_prob: 0.2,
            ..FaultSpec::NONE
        };
        let mut c = faulty_cluster(
            17,
            FaultConfig {
                spec,
                policy: AggregationPolicy::FullBarrier,
            },
            2,
        );
        for _ in 0..10 {
            c.run_round(2);
        }
        let stats = c.fault_stats();
        assert!(stats.drops > 0 && stats.corruptions > 0);
        assert_eq!(stats.retransmits, stats.drops + stats.corruptions);
        let full = c.full_payload_bytes() as f64;
        assert!(
            c.comm_bytes() > 10.0 * full,
            "retransmits must charge extra bytes: {} vs base {}",
            c.comm_bytes(),
            10.0 * full
        );
        // One 0.5 s constant delay per round plus one per retransmit.
        let want = 0.5 * (10 + stats.retransmits) as f64;
        assert!((c.comm_time() - want).abs() < 1e-9);
    }

    #[test]
    fn down_workers_keep_stale_models() {
        let fault = FaultConfig {
            spec: FaultSpec {
                crash_prob: 0.5,
                rejoin_after: 3,
                ..FaultSpec::NONE
            },
            policy: AggregationPolicy::FullBarrier,
        };
        let mut c = faulty_cluster(19, fault, 4);
        let mut saw_degraded = false;
        for _ in 0..20 {
            let before = c.fault_stats().degraded_rounds;
            c.run_round(2);
            if c.fault_stats().degraded_rounds > before {
                saw_degraded = true;
                assert!(
                    c.model_discrepancy() > 0.0,
                    "a down worker must hold stale parameters after a degraded round"
                );
                break;
            }
        }
        assert!(saw_degraded, "seed 19 must produce a degraded round");
    }

    #[test]
    fn fault_state_survives_checkpoint_restore() {
        let fault = FaultConfig {
            spec: FaultSpec {
                crash_prob: 0.25,
                rejoin_after: 2,
                drop_prob: 0.2,
                straggler_prob: 0.2,
                straggler_factor: 8.0,
                ..FaultSpec::NONE
            },
            policy: AggregationPolicy::Quorum {
                quorum: 3,
                deadline_secs: 500.0,
            },
        };
        let mut golden = faulty_cluster(23, fault, 4);
        let mut interrupted = faulty_cluster(23, fault, 4);
        for _ in 0..6 {
            golden.run_round(2);
            interrupted.run_round(2);
        }
        let ck = interrupted.checkpoint();
        assert!(ck.fault.is_some(), "active faults must checkpoint state");
        let mut resumed = faulty_cluster(23, fault, 4);
        resumed.restore(&ck).expect("restore must succeed");
        for _ in 0..6 {
            golden.run_round(2);
            resumed.run_round(2);
        }
        assert_eq!(golden.clock(), resumed.clock());
        assert_eq!(golden.eval_train_loss(), resumed.eval_train_loss());
        assert_eq!(golden.fault_stats(), resumed.fault_stats());
    }

    #[test]
    fn restore_rejects_fault_presence_mismatch() {
        let fault = FaultConfig {
            spec: FaultSpec {
                crash_prob: 0.2,
                ..FaultSpec::NONE
            },
            policy: AggregationPolicy::FullBarrier,
        };
        let mut plain = toy_cluster(MomentumMode::None, 1);
        let mut faulty = faulty_cluster(1, fault, 2);
        let ck_plain = plain.checkpoint();
        let ck_faulty = faulty.checkpoint();
        assert!(faulty.restore(&ck_plain).is_err());
        assert!(plain.restore(&ck_faulty).is_err());
    }

    #[test]
    fn inert_fault_state_matches_fault_free_round() {
        // An active config that can never change a round — nothing
        // injected, a quorum of everyone, an unreachable deadline — builds
        // a fault state and takes every fault-guarded step, yet must land
        // on the fault-free bits: same models, same clock. (Partial
        // participation is excluded on purpose: its shuffle shares the
        // delay stream, whose draw order differs between the two cases —
        // see `run_round`.)
        let m = 4;
        let inert = FaultConfig {
            spec: FaultSpec::NONE,
            policy: AggregationPolicy::Quorum {
                quorum: m,
                deadline_secs: 1e300,
            },
        };
        assert!(inert.is_active());
        for averaging in [
            crate::AveragingStrategy::FullAverage,
            crate::AveragingStrategy::Ring,
            crate::AveragingStrategy::Elastic { alpha: 0.5 },
        ] {
            let build = |fault| {
                PasgdCluster::new(
                    models::mlp_classifier(8, &[16], 3, 11),
                    GaussianMixture::small_test().generate(3),
                    RuntimeModel::new(
                        DelayDistribution::exponential(0.5),
                        CommModel::constant(0.3),
                        m,
                    ),
                    ClusterConfig {
                        workers: m,
                        batch_size: 8,
                        averaging,
                        seed: 31,
                        eval_subset: 64,
                        fault,
                        ..ClusterConfig::default()
                    },
                )
            };
            let mut plain = build(FaultConfig::NONE);
            let mut guarded = build(inert);
            for tau in [1, 4, 2, 3] {
                plain.run_round(tau);
                guarded.run_round(tau);
                assert_eq!(
                    plain.eval_train_loss().to_bits(),
                    guarded.eval_train_loss().to_bits(),
                    "{averaging:?}"
                );
                assert_eq!(plain.clock().to_bits(), guarded.clock().to_bits());
            }
            assert_eq!(guarded.fault_stats(), FaultStats::default());
            assert_eq!(plain.fault_stats().degraded_rounds, 0);
            assert!(guarded.checkpoint().fault.is_some());
            assert!(plain.checkpoint().fault.is_none());
        }
    }

    #[test]
    fn restore_rejects_codec_tracking_mismatch() {
        // A CRC-valid frame whose codec was rewritten: lossy codec over
        // workers that hold no sync reference (and the reverse). Both used
        // to pass restore; the first then panicked in the next encode.
        let lossy_cluster = || {
            let mut c = toy_cluster(MomentumMode::None, 1);
            c.set_codec(CodecSpec::Sign);
            c
        };
        let mut hostile = toy_cluster(MomentumMode::None, 1).checkpoint();
        hostile.codec = CodecSpec::Sign;
        let err = lossy_cluster().restore(&hostile).unwrap_err();
        assert!(err.contains("sync-reference tracking off"), "{err}");

        let mut hostile = lossy_cluster().checkpoint();
        hostile.codec = CodecSpec::Identity;
        let err = toy_cluster(MomentumMode::None, 1)
            .restore(&hostile)
            .unwrap_err();
        assert!(err.contains("sync-reference tracking on"), "{err}");

        // The honest frames still restore and run.
        let mut c = lossy_cluster();
        c.restore(&lossy_cluster().checkpoint()).expect("restore");
        c.run_round(2);
    }

    #[test]
    #[should_panic(expected = "block momentum is defined over the all-node average")]
    fn block_momentum_rejected_with_active_faults() {
        let fault = FaultConfig {
            spec: FaultSpec {
                crash_prob: 0.1,
                ..FaultSpec::NONE
            },
            policy: AggregationPolicy::FullBarrier,
        };
        let _ = faulty_cluster_with_momentum(fault);
    }

    fn faulty_cluster_with_momentum(fault: FaultConfig) -> PasgdCluster {
        let split = GaussianMixture::small_test().generate(3);
        PasgdCluster::new(
            models::mlp_classifier(8, &[16], 3, 11),
            split,
            constant_runtime(1.0, 0.5, 2),
            ClusterConfig {
                workers: 2,
                batch_size: 8,
                momentum: MomentumMode::paper_block(),
                seed: 1,
                eval_subset: 64,
                fault,
                ..ClusterConfig::default()
            },
        )
    }

    #[test]
    fn subset_averaging_composes_with_codecs_and_strategies() {
        // Degraded rounds through the compressed mix path and the shared
        // mean reduction must keep training finite for every strategy.
        for (averaging, codec) in [
            (crate::AveragingStrategy::FullAverage, CodecSpec::Identity),
            (
                crate::AveragingStrategy::FullAverage,
                CodecSpec::TopK { ratio: 0.25 },
            ),
            (crate::AveragingStrategy::Ring, CodecSpec::Sign),
            (
                crate::AveragingStrategy::Elastic { alpha: 0.5 },
                CodecSpec::Identity,
            ),
            (
                crate::AveragingStrategy::PartialParticipation { fraction: 0.5 },
                CodecSpec::Identity,
            ),
        ] {
            let split = GaussianMixture::small_test().generate(6);
            let mut c = PasgdCluster::new(
                models::mlp_classifier(8, &[16], 3, 11),
                split,
                constant_runtime(1.0, 0.5, 4),
                ClusterConfig {
                    workers: 4,
                    batch_size: 8,
                    averaging,
                    codec,
                    seed: 8,
                    eval_subset: 64,
                    fault: FaultConfig {
                        spec: FaultSpec {
                            crash_prob: 0.3,
                            rejoin_after: 2,
                            ..FaultSpec::NONE
                        },
                        policy: AggregationPolicy::FullBarrier,
                    },
                    ..ClusterConfig::default()
                },
            );
            for _ in 0..6 {
                c.run_round(2);
            }
            assert!(
                c.eval_train_loss().is_finite(),
                "{averaging:?}/{codec:?} diverged under faults"
            );
            assert!(
                c.fault_stats().degraded_rounds > 0,
                "{averaging:?}/{codec:?}: seed 8 must degrade at least one round"
            );
        }
    }
}
