//! Runtime-per-iteration model for synchronous SGD and PASGD
//! (Section 3.1–3.2 of the paper, eqs. 7–12).

use crate::order_stats::{expected_max_exponential, mc_expected_max, mc_expected_max_mean};
use crate::{CommModel, DelayDistribution};
use rand::Rng;

/// Default Monte-Carlo sample count for expectations without a closed form.
const DEFAULT_MC_SAMPLES: usize = 20_000;

/// One simulated PASGD round: `τ` local steps on every worker followed by an
/// all-node averaging step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundSample {
    /// Time until the slowest worker finished its `τ` local steps.
    pub compute: f64,
    /// Communication delay of the averaging step.
    pub comm: f64,
}

impl RoundSample {
    /// Total wall-clock duration of the round.
    pub fn total(&self) -> f64 {
        self.compute + self.comm
    }
}

/// The paper's runtime model: `m` workers with i.i.d. per-step computation
/// times `Y ~ F_Y` and a communication delay `D` per averaging step.
///
/// Fully synchronous SGD (τ = 1) pays `max_i(Y_i) + D` per iteration
/// (eq. 7); PASGD with period `τ` pays `max_i(Ȳ_i) + D/τ` per iteration on
/// average (eq. 10).
///
/// # Example
///
/// ```
/// use delay::{CommModel, DelayDistribution, RuntimeModel};
///
/// let model = RuntimeModel::new(
///     DelayDistribution::constant(1.0),
///     CommModel::constant(0.9),
///     4,
/// );
/// // eq. 12 with alpha = 0.9, tau = 10: (1 + 0.9) / (1 + 0.09)
/// let s = model.speedup_vs_sync(10, &mut rand::thread_rng());
/// assert!((s - 1.9 / 1.09).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeModel {
    compute: DelayDistribution,
    comm: CommModel,
    workers: usize,
}

impl RuntimeModel {
    /// Creates a runtime model for `workers` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(compute: DelayDistribution, comm: CommModel, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        RuntimeModel {
            compute,
            comm,
            workers,
        }
    }

    /// The per-step computation time distribution `F_Y`.
    pub fn compute(&self) -> &DelayDistribution {
        &self.compute
    }

    /// The communication model.
    pub fn comm(&self) -> &CommModel {
        &self.comm
    }

    /// Number of workers `m`.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The communication/computation ratio `α = E[D] / E[Y]`.
    ///
    /// Returns `f64::INFINITY` when the mean computation time is zero.
    pub fn alpha(&self) -> f64 {
        let y = self.compute.mean();
        if y == 0.0 {
            f64::INFINITY
        } else {
            self.comm.mean_delay(self.workers) / y
        }
    }

    // ------------------------------------------------------------------
    // Sampling
    // ------------------------------------------------------------------

    /// Samples one full PASGD round of `tau` local steps (eq. 10's
    /// numerator): the slowest worker's total compute time plus one
    /// communication delay.
    ///
    /// # Panics
    ///
    /// Panics if `tau == 0`.
    pub fn sample_round<R: Rng + ?Sized>(&self, tau: usize, rng: &mut R) -> RoundSample {
        self.sample_round_bytes(tau, 0.0, rng)
    }

    /// Samples one PASGD round whose averaging step carries `bytes` of
    /// payload per worker: the slowest worker's compute time plus one
    /// bytes-aware communication delay (see [`CommModel::sample_bytes`]).
    ///
    /// With a latency-only [`CommModel`] (`β = 0`) this is identical to
    /// [`RuntimeModel::sample_round`]; with a positive bandwidth term a
    /// compressed round is genuinely cheaper on the simulated clock.
    ///
    /// # Panics
    ///
    /// Panics if `tau == 0` or `bytes` is negative or non-finite.
    pub fn sample_round_bytes<R: Rng + ?Sized>(
        &self,
        tau: usize,
        bytes: f64,
        rng: &mut R,
    ) -> RoundSample {
        assert!(tau > 0, "communication period must be positive");
        let mut slowest = f64::NEG_INFINITY;
        for _ in 0..self.workers {
            let total: f64 = (0..tau).map(|_| self.compute.sample(rng)).sum();
            slowest = slowest.max(total);
        }
        RoundSample {
            compute: slowest,
            comm: self.comm.sample_bytes(self.workers, bytes, rng),
        }
    }

    /// Samples every worker's compute time for one round of `tau` local
    /// steps into `times` (cleared first; worker order), so a caller that
    /// samples every round reuses one buffer.
    ///
    /// This is the decomposed form of [`RuntimeModel::sample_round_bytes`]:
    /// drawing all `m` per-worker totals here and then taking the slowest
    /// (or a partial-aggregation cutoff over them) consumes exactly the
    /// same RNG stream as the fused sampler, so the cluster's round — which
    /// needs per-worker times for straggler spikes and quorum policies —
    /// stays draw-for-draw compatible with it.
    ///
    /// # Panics
    ///
    /// Panics if `tau == 0`.
    pub fn sample_worker_compute_times<R: Rng + ?Sized>(
        &self,
        tau: usize,
        times: &mut Vec<f64>,
        rng: &mut R,
    ) {
        assert!(tau > 0, "communication period must be positive");
        times.clear();
        times.extend(
            (0..self.workers).map(|_| (0..tau).map(|_| self.compute.sample(rng)).sum::<f64>()),
        );
    }

    /// Samples the *per-iteration* runtime of PASGD with period `tau`
    /// (round total divided by `tau`). With `tau = 1` this is exactly the
    /// synchronous-SGD iteration time of eq. 7.
    ///
    /// # Panics
    ///
    /// Panics if `tau == 0`.
    pub fn sample_per_iteration<R: Rng + ?Sized>(&self, tau: usize, rng: &mut R) -> f64 {
        self.sample_round(tau, rng).total() / tau as f64
    }

    /// Draws `n` per-iteration runtimes, e.g. to histogram Figure 5.
    ///
    /// # Panics
    ///
    /// Panics if `tau == 0`.
    pub fn per_iteration_samples<R: Rng + ?Sized>(
        &self,
        tau: usize,
        n: usize,
        rng: &mut R,
    ) -> Vec<f64> {
        (0..n)
            .map(|_| self.sample_per_iteration(tau, rng))
            .collect()
    }

    // ------------------------------------------------------------------
    // Expectations (eqs. 8 and 11)
    // ------------------------------------------------------------------

    /// Expected runtime per iteration of fully synchronous SGD,
    /// `E[T_sync] = E[Y_{m:m}] + E[D]` (eq. 8).
    ///
    /// Exact for constant and exponential `F_Y`; Monte-Carlo otherwise.
    pub fn expected_sync_iteration<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.expected_max_compute(1, rng) + self.comm.mean_delay(self.workers)
    }

    /// Expected runtime per iteration of PASGD with period `tau`,
    /// `E[T_PAvg] = E[Ȳ_{m:m}] + E[D]/τ` (eq. 11).
    ///
    /// # Panics
    ///
    /// Panics if `tau == 0`.
    pub fn expected_per_iteration<R: Rng + ?Sized>(&self, tau: usize, rng: &mut R) -> f64 {
        assert!(tau > 0, "communication period must be positive");
        self.expected_max_compute(tau, rng) + self.comm.mean_delay(self.workers) / tau as f64
    }

    /// `E[max_i Ȳ_i]` where `Ȳ` is the mean of `tau` local-step times.
    fn expected_max_compute<R: Rng + ?Sized>(&self, tau: usize, rng: &mut R) -> f64 {
        match (&self.compute, tau) {
            (DelayDistribution::Constant { value }, _) => *value,
            (DelayDistribution::Exponential { mean }, 1) => {
                expected_max_exponential(*mean, self.workers)
            }
            (dist, 1) => mc_expected_max(dist, self.workers, DEFAULT_MC_SAMPLES, rng),
            (dist, tau) => mc_expected_max_mean(dist, self.workers, tau, DEFAULT_MC_SAMPLES, rng),
        }
    }

    /// The runtime speed-up of PASGD over fully synchronous SGD,
    /// `E[T_sync] / E[T_PAvg]` (eq. 12 generalised to random delays).
    ///
    /// # Panics
    ///
    /// Panics if `tau == 0`.
    pub fn speedup_vs_sync<R: Rng + ?Sized>(&self, tau: usize, rng: &mut R) -> f64 {
        self.expected_sync_iteration(rng) / self.expected_per_iteration(tau, rng)
    }
}

/// The closed-form speed-up `(1 + α) / (1 + α/τ)` for constant delays
/// (eq. 12, Figure 4).
///
/// # Panics
///
/// Panics if `alpha < 0` or `tau == 0`.
///
/// # Example
///
/// ```
/// use delay::speedup_constant;
///
/// // With alpha = 0.9 and large tau the speed-up approaches 1.9.
/// assert!((speedup_constant(0.9, 100) - 1.9 / 1.009).abs() < 1e-12);
/// ```
pub fn speedup_constant(alpha: f64, tau: usize) -> f64 {
    assert!(alpha >= 0.0, "alpha must be non-negative");
    assert!(tau > 0, "tau must be positive");
    (1.0 + alpha) / (1.0 + alpha / tau as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn constant_model(y: f64, d: f64, m: usize) -> RuntimeModel {
        RuntimeModel::new(DelayDistribution::constant(y), CommModel::constant(d), m)
    }

    #[test]
    fn eq12_exact_for_constant_delays() {
        let model = constant_model(1.0, 0.9, 16);
        let mut rng = StdRng::seed_from_u64(0);
        for tau in [1usize, 2, 10, 100] {
            let got = model.speedup_vs_sync(tau, &mut rng);
            let want = speedup_constant(0.9, tau);
            assert!((got - want).abs() < 1e-12, "tau={tau}: {got} vs {want}");
        }
    }

    #[test]
    fn speedup_is_one_at_tau_one() {
        assert_eq!(speedup_constant(0.5, 1), 1.0);
        let model = constant_model(1.0, 0.5, 4);
        let mut rng = StdRng::seed_from_u64(1);
        assert!((model.speedup_vs_sync(1, &mut rng) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn speedup_monotone_in_tau_and_alpha() {
        // Figure 4's two monotonicity claims.
        let mut prev = 0.0;
        for tau in 1..=100 {
            let s = speedup_constant(0.9, tau);
            assert!(s >= prev);
            prev = s;
        }
        assert!(speedup_constant(0.9, 50) > speedup_constant(0.5, 50));
        assert!(speedup_constant(0.5, 50) > speedup_constant(0.1, 50));
    }

    #[test]
    fn speedup_bounded_by_one_plus_alpha() {
        for alpha in [0.1, 0.5, 0.9, 4.0] {
            assert!(speedup_constant(alpha, 10_000) < 1.0 + alpha);
        }
    }

    #[test]
    fn expected_sync_uses_harmonic_for_exponential() {
        let model = RuntimeModel::new(
            DelayDistribution::exponential(1.0),
            CommModel::constant(1.0),
            16,
        );
        let mut rng = StdRng::seed_from_u64(2);
        let got = model.expected_sync_iteration(&mut rng);
        let want = expected_max_exponential(1.0, 16) + 1.0;
        assert!((got - want).abs() < 1e-12);
    }

    #[test]
    fn pasgd_beats_sync_per_iteration_with_stragglers() {
        // Figure 5's setting: D = 1, y = 1, m = 16, tau = 10.
        let model = RuntimeModel::new(
            DelayDistribution::exponential(1.0),
            CommModel::constant(1.0),
            16,
        );
        let mut rng = StdRng::seed_from_u64(3);
        let sync = model.expected_sync_iteration(&mut rng);
        let pasgd = model.expected_per_iteration(10, &mut rng);
        // The paper reports roughly 2x between the means.
        let ratio = sync / pasgd;
        assert!(
            ratio > 1.7 && ratio < 2.6,
            "expected ~2x mean gap, got {ratio} ({sync} vs {pasgd})"
        );
    }

    #[test]
    fn sample_round_accumulates_tau_steps() {
        let model = constant_model(0.5, 0.25, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let round = model.sample_round(4, &mut rng);
        assert!((round.compute - 2.0).abs() < 1e-12);
        assert!((round.comm - 0.25).abs() < 1e-12);
        assert!((round.total() - 2.25).abs() < 1e-12);
    }

    #[test]
    fn per_iteration_amortises_comm() {
        let model = constant_model(1.0, 1.0, 2);
        let mut rng = StdRng::seed_from_u64(5);
        assert!((model.sample_per_iteration(1, &mut rng) - 2.0).abs() < 1e-12);
        assert!((model.sample_per_iteration(10, &mut rng) - 1.1).abs() < 1e-12);
    }

    #[test]
    fn alpha_ratio() {
        let model = constant_model(2.0, 1.0, 4);
        assert_eq!(model.alpha(), 0.5);
    }

    #[test]
    fn per_iteration_samples_count() {
        let model = constant_model(1.0, 1.0, 2);
        let mut rng = StdRng::seed_from_u64(6);
        assert_eq!(model.per_iteration_samples(5, 32, &mut rng).len(), 32);
    }

    #[test]
    fn bytes_round_charges_bandwidth() {
        let model = RuntimeModel::new(
            DelayDistribution::constant(1.0),
            CommModel::constant(0.5).with_bandwidth(1e-6),
            3,
        );
        let mut rng = StdRng::seed_from_u64(8);
        let full = model.sample_round_bytes(4, 1_000_000.0, &mut rng);
        let compressed = model.sample_round_bytes(4, 10_000.0, &mut rng);
        // 1 MB at 1 µs/byte adds 1.0 s; 10 kB adds 0.01 s.
        assert!((full.comm - 1.5).abs() < 1e-12);
        assert!((compressed.comm - 0.51).abs() < 1e-12);
        assert!(compressed.total() < full.total());
    }

    #[test]
    fn zero_bytes_round_matches_plain_round() {
        let model = constant_model(1.0, 0.5, 2);
        let mut rng = StdRng::seed_from_u64(9);
        let a = model.sample_round(3, &mut rng);
        let mut rng = StdRng::seed_from_u64(9);
        let b = model.sample_round_bytes(3, 0.0, &mut rng);
        assert_eq!(a, b);
    }

    #[test]
    fn worker_times_match_fused_round_stream() {
        // The decomposed sampler must consume the RNG exactly like the
        // fused one: per-worker totals in worker order, then one comm draw
        // — for every tau, with a random comm base, and over consecutive
        // rounds on one stream and one reused buffer.
        let model = RuntimeModel::new(
            DelayDistribution::exponential(1.0),
            CommModel::new(
                DelayDistribution::exponential(0.5),
                crate::CommScaling::Constant,
            )
            .with_bandwidth(1e-7),
            4,
        );
        let mut fused_rng = StdRng::seed_from_u64(10);
        let mut split_rng = StdRng::seed_from_u64(10);
        let mut times = Vec::new();
        for tau in [1usize, 3, 8, 2] {
            let round = model.sample_round_bytes(tau, 2048.0, &mut fused_rng);
            model.sample_worker_compute_times(tau, &mut times, &mut split_rng);
            let comm = model.comm().sample_bytes(4, 2048.0, &mut split_rng);
            assert_eq!(times.len(), 4);
            let slowest = times.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(round.compute, slowest, "tau={tau}");
            assert_eq!(round.comm, comm, "tau={tau}");
        }
        assert_eq!(fused_rng.state(), split_rng.state());
    }

    #[test]
    #[should_panic(expected = "communication period must be positive")]
    fn zero_tau_rejected() {
        let model = constant_model(1.0, 1.0, 2);
        let mut rng = StdRng::seed_from_u64(7);
        let _ = model.sample_round(0, &mut rng);
    }
}
