//! Seeded, deterministic fault injection and graceful-degradation
//! aggregation for the PASGD cluster.
//!
//! The paper's premise is that local-update SGD must tolerate "inherent
//! system variability", yet the baseline simulator models a perfect
//! cluster. This module adds the missing failure modes as a *pure function
//! of the run's seed*:
//!
//! * **crashes** — a worker goes down mid-round and rejoins `k` rounds
//!   later with stale parameters (it missed the intervening averages);
//! * **upload loss** — a worker's averaging message is dropped or
//!   corrupted in flight; the transport detects it and retransmits, so the
//!   round's average is unchanged but the simulated clock and byte counters
//!   are charged one extra bytes-aware communication delay per retransmit;
//! * **stragglers** — a worker's compute time for the round is multiplied
//!   by a spike factor.
//!
//! Paired with the fault model is an [`AggregationPolicy`] deciding *who*
//! is averaged each round: the classic full barrier, quorum-of-m partial
//! averaging with a per-round deadline, or bounded-staleness inclusion
//! that force-includes workers left behind too many rounds.
//!
//! Determinism contract: all fault draws come from a dedicated
//! `StdRng` seeded with `config.seed ^` [`FAULT_SEED_SALT`], advanced a
//! fixed number of times per round given the cluster state, and the whole
//! fault state (RNG words, downtime table, staleness table, counters) is
//! captured in [`FaultCheckpoint`] so a resumed run replays bit-identically
//! even when a fault fires in the round straddling the checkpoint. A
//! [`FaultConfig`] that [`FaultConfig::is_active`] returns `false` for is
//! **provably a no-op**: the cluster never constructs the fault state, so
//! the one round path ([`PasgdCluster::run_round`](crate::PasgdCluster::run_round))
//! runs over the everyone-list with zero fault-RNG draws and the delay
//! stream in its fault-free order (mix, compute times, comm delay; a
//! fault state draws the compute times first, because its participant set
//! depends on them). The three golden-trace fixtures in
//! `tests/golden_trace.rs` prove both halves: the fault-free quick fixture
//! predates the fault layer, and the fault-active one was recorded from
//! the separate faulty round path this module once had.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// XOR salt applied to the run seed to derive the fault RNG stream,
/// keeping it independent of the model, data, and delay streams.
pub const FAULT_SEED_SALT: u64 = 0xFA17_FA17_FA17_FA17;

/// Per-round fault probabilities and magnitudes, all drawn from the run's
/// dedicated fault RNG stream.
///
/// The default ([`FaultSpec::NONE`]) injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Per-round probability that an up worker crashes before the round.
    pub crash_prob: f64,
    /// Rounds a crashed worker stays down before rejoining with stale
    /// parameters. Must be at least 1.
    pub rejoin_after: u64,
    /// Per-participant probability that an upload is dropped in flight
    /// (detected and retransmitted at full cost).
    pub drop_prob: f64,
    /// Per-participant probability that an upload arrives corrupted
    /// (checksum fails; retransmitted at full cost).
    pub corrupt_prob: f64,
    /// Per-round probability that an up worker straggles this round.
    pub straggler_prob: f64,
    /// Multiplier applied to a straggler's compute time. Must be ≥ 1.
    pub straggler_factor: f64,
}

impl FaultSpec {
    /// The no-fault spec: every probability zero.
    pub const NONE: FaultSpec = FaultSpec {
        crash_prob: 0.0,
        rejoin_after: 1,
        drop_prob: 0.0,
        corrupt_prob: 0.0,
        straggler_prob: 0.0,
        straggler_factor: 1.0,
    };

    /// Whether this spec injects nothing at all.
    pub fn is_noop(&self) -> bool {
        self.crash_prob == 0.0
            && self.drop_prob == 0.0
            && self.corrupt_prob == 0.0
            && self.straggler_prob == 0.0
    }

    /// Validates the spec.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1)`, `rejoin_after == 0`,
    /// or `straggler_factor < 1`.
    pub fn validate(&self) {
        for (name, p) in [
            ("crash_prob", self.crash_prob),
            ("drop_prob", self.drop_prob),
            ("corrupt_prob", self.corrupt_prob),
            ("straggler_prob", self.straggler_prob),
        ] {
            assert!(
                p.is_finite() && (0.0..1.0).contains(&p),
                "{name} must be in [0, 1), got {p}"
            );
        }
        assert!(self.rejoin_after >= 1, "rejoin_after must be at least 1");
        assert!(
            self.straggler_factor.is_finite() && self.straggler_factor >= 1.0,
            "straggler_factor must be at least 1, got {}",
            self.straggler_factor
        );
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::NONE
    }
}

/// Who gets averaged each round when workers are slow or down.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AggregationPolicy {
    /// Wait for every up worker (the paper's eq. 3 barrier).
    #[default]
    FullBarrier,
    /// Average the fastest `quorum` up workers, but never wait past
    /// `deadline_secs` of round compute time; workers that miss the cutoff
    /// are excluded from this round's average.
    Quorum {
        /// Workers to wait for (clamped to the number currently up).
        quorum: usize,
        /// Per-round compute-time deadline in simulated seconds.
        deadline_secs: f64,
    },
    /// Quorum cutoff plus forced inclusion of any up worker that has
    /// already missed `max_staleness` consecutive averages, bounding how
    /// stale a worker's contribution can get.
    BoundedStaleness {
        /// Workers to wait for (clamped to the number currently up).
        quorum: usize,
        /// Missed-round bound that forces a late worker into the average.
        max_staleness: u64,
    },
}

impl AggregationPolicy {
    /// Validates the policy.
    ///
    /// # Panics
    ///
    /// Panics if a quorum is zero, a deadline is not positive and finite,
    /// or `max_staleness == 0`.
    pub fn validate(&self) {
        match *self {
            AggregationPolicy::FullBarrier => {}
            AggregationPolicy::Quorum {
                quorum,
                deadline_secs,
            } => {
                assert!(quorum >= 1, "quorum must be at least 1");
                assert!(
                    deadline_secs.is_finite() && deadline_secs > 0.0,
                    "deadline_secs must be positive and finite, got {deadline_secs}"
                );
            }
            AggregationPolicy::BoundedStaleness {
                quorum,
                max_staleness,
            } => {
                assert!(quorum >= 1, "quorum must be at least 1");
                assert!(max_staleness >= 1, "max_staleness must be at least 1");
            }
        }
    }

    /// Selects the participant set for one round.
    ///
    /// `up` lists the indices of up workers in ascending order, `times[i]`
    /// is worker `i`'s compute time for the round, and `missed[i]` counts
    /// how many consecutive averages worker `i` has missed. Returns
    /// participant indices in ascending order; the set is never empty when
    /// `up` is non-empty (a quorum that nobody meets degrades to the single
    /// fastest worker).
    pub fn select(&self, up: &[usize], times: &[f64], missed: &[u64]) -> Vec<usize> {
        if up.is_empty() {
            return Vec::new();
        }
        match *self {
            AggregationPolicy::FullBarrier => up.to_vec(),
            AggregationPolicy::Quorum {
                quorum,
                deadline_secs,
            } => {
                let cutoff = Self::quorum_cutoff(up, times, quorum).min(deadline_secs);
                let mut chosen: Vec<usize> =
                    up.iter().copied().filter(|&i| times[i] <= cutoff).collect();
                if chosen.is_empty() {
                    chosen.push(Self::fastest(up, times));
                }
                chosen
            }
            AggregationPolicy::BoundedStaleness {
                quorum,
                max_staleness,
            } => {
                let cutoff = Self::quorum_cutoff(up, times, quorum);
                let mut chosen: Vec<usize> = up
                    .iter()
                    .copied()
                    .filter(|&i| times[i] <= cutoff || missed[i] >= max_staleness)
                    .collect();
                if chosen.is_empty() {
                    chosen.push(Self::fastest(up, times));
                }
                chosen
            }
        }
    }

    /// Compute time of the `quorum`-th fastest up worker (ties broken by
    /// worker index), with the quorum clamped into `[1, up.len()]`.
    fn quorum_cutoff(up: &[usize], times: &[f64], quorum: usize) -> f64 {
        let q = quorum.min(up.len()).max(1);
        let mut order: Vec<usize> = up.to_vec();
        order.sort_by(|&a, &b| times[a].total_cmp(&times[b]).then(a.cmp(&b)));
        times[order[q - 1]]
    }

    /// The up worker with the smallest compute time (ties → lowest index).
    fn fastest(up: &[usize], times: &[f64]) -> usize {
        *up.iter()
            .min_by(|&&a, &&b| times[a].total_cmp(&times[b]).then(a.cmp(&b)))
            .expect("fastest() requires a non-empty up set")
    }
}

/// The full fault-injection configuration attached to a cluster: what can
/// go wrong ([`FaultSpec`]) and how aggregation degrades when it does
/// ([`AggregationPolicy`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultConfig {
    /// What faults fire, and how often.
    pub spec: FaultSpec,
    /// Who is averaged each round.
    pub policy: AggregationPolicy,
}

impl FaultConfig {
    /// The default fault-free configuration: no injection, full barrier.
    pub const NONE: FaultConfig = FaultConfig {
        spec: FaultSpec::NONE,
        policy: AggregationPolicy::FullBarrier,
    };

    /// Whether this configuration changes cluster behaviour at all. When
    /// `false` the cluster builds no fault state: every round covers the
    /// whole cluster, with zero extra RNG draws.
    pub fn is_active(&self) -> bool {
        !self.spec.is_noop() || self.policy != AggregationPolicy::FullBarrier
    }

    /// Validates both halves.
    ///
    /// # Panics
    ///
    /// Panics if either the spec or the policy is invalid.
    pub fn validate(&self) {
        self.spec.validate();
        self.policy.validate();
    }
}

/// Cumulative fault-event counters for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Workers crashed.
    pub crashes: u64,
    /// Workers rejoined after a crash.
    pub rejoins: u64,
    /// Uploads dropped in flight.
    pub drops: u64,
    /// Uploads corrupted in flight.
    pub corruptions: u64,
    /// Straggler spikes applied.
    pub stragglers: u64,
    /// Retransmissions charged (one per drop or corruption).
    pub retransmits: u64,
    /// Rounds averaged over a strict subset of the cluster.
    pub degraded_rounds: u64,
}

/// The resumable fault state captured in a cluster checkpoint: the fault
/// RNG words plus the downtime/staleness tables and counters.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCheckpoint {
    /// Raw xoshiro256++ state of the fault RNG.
    pub rng: [u64; 4],
    /// Per-worker round index before which the worker stays down
    /// (0 = up, since a crash at round `r` sets this to `r + k ≥ 1`).
    pub down_until: Vec<u64>,
    /// Per-worker count of consecutive missed averages.
    pub missed: Vec<u64>,
    /// Cumulative fault counters.
    pub stats: FaultStats,
}

/// Live fault-injection state owned by a cluster with an active
/// [`FaultConfig`].
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    pub(crate) rng: StdRng,
    pub(crate) down_until: Vec<u64>,
    pub(crate) missed: Vec<u64>,
    pub(crate) stats: FaultStats,
}

impl FaultState {
    /// Creates the fault state for `workers` nodes from the run seed.
    pub(crate) fn new(seed: u64, workers: usize) -> Self {
        FaultState {
            rng: StdRng::seed_from_u64(seed ^ FAULT_SEED_SALT),
            down_until: vec![0; workers],
            missed: vec![0; workers],
            stats: FaultStats::default(),
        }
    }

    /// Indices of up workers in ascending order at round `round_index`.
    pub(crate) fn up_workers(&self, round_index: u64) -> Vec<usize> {
        (0..self.down_until.len())
            .filter(|&i| round_index >= self.down_until[i])
            .collect()
    }

    /// Rejoin sweep at the start of round `round_index`: any worker whose
    /// downtime has elapsed comes back up (with whatever stale parameters
    /// it last held).
    pub(crate) fn sweep_rejoins(&mut self, round_index: u64) -> u64 {
        let mut rejoined = 0;
        for down in self.down_until.iter_mut() {
            if *down != 0 && round_index >= *down {
                *down = 0;
                rejoined += 1;
            }
        }
        self.stats.rejoins += rejoined;
        rejoined
    }

    /// Crash draws for round `round_index`: one Bernoulli draw per up
    /// worker in worker order. If every worker would be down afterwards the
    /// first up worker is deterministically revived so training can
    /// continue (a cluster with zero survivors has no meaningful round).
    pub(crate) fn draw_crashes(&mut self, round_index: u64, spec: &FaultSpec) -> u64 {
        let mut crashed = 0;
        let mut survivor: Option<usize> = None;
        for i in 0..self.down_until.len() {
            if round_index < self.down_until[i] {
                continue; // already down
            }
            if self.rng.gen_bool(spec.crash_prob) {
                self.down_until[i] = round_index + spec.rejoin_after;
                crashed += 1;
            } else if survivor.is_none() {
                survivor = Some(i);
            }
        }
        if survivor.is_none() {
            if let Some(first) = self
                .down_until
                .iter()
                .position(|&down| down == round_index + spec.rejoin_after)
            {
                self.down_until[first] = 0;
                crashed -= 1;
            }
        }
        self.stats.crashes += crashed;
        crashed
    }

    /// Straggler spikes for one round: one Bernoulli draw per up worker in
    /// worker order (none at all when the probability is zero); a hit
    /// multiplies that worker's compute time by the spike factor. Returns
    /// the number of spikes applied.
    pub(crate) fn spike_stragglers(
        &mut self,
        spec: &FaultSpec,
        up: &[usize],
        times: &mut [f64],
    ) -> u64 {
        let mut stragglers = 0;
        if spec.straggler_prob > 0.0 {
            for &i in up {
                if self.rng.gen_bool(spec.straggler_prob) {
                    times[i] *= spec.straggler_factor;
                    stragglers += 1;
                }
            }
        }
        self.stats.stragglers += stragglers;
        stragglers
    }

    /// Transport faults for one round: each of the `participants` uploads
    /// may be dropped or corrupted in flight (one draw of each kind per
    /// participant; none at all when both probabilities are zero). The
    /// transport detects every loss and retransmits, so the round's average
    /// is unaffected and the caller charges one extra communication delay
    /// per loss. Returns `(drops, corruptions)`.
    pub(crate) fn draw_upload_losses(
        &mut self,
        spec: &FaultSpec,
        participants: usize,
    ) -> (u64, u64) {
        let (mut drops, mut corruptions) = (0, 0);
        if spec.drop_prob > 0.0 || spec.corrupt_prob > 0.0 {
            for _ in 0..participants {
                if self.rng.gen_bool(spec.drop_prob) {
                    drops += 1;
                }
                if self.rng.gen_bool(spec.corrupt_prob) {
                    corruptions += 1;
                }
            }
        }
        self.stats.drops += drops;
        self.stats.corruptions += corruptions;
        self.stats.retransmits += drops + corruptions;
        (drops, corruptions)
    }

    /// Updates the staleness table after a round: participants reset to
    /// zero, everyone else (down workers included) accrues one miss.
    pub(crate) fn note_participants(&mut self, participants: &[usize]) {
        for m in self.missed.iter_mut() {
            *m += 1;
        }
        for &i in participants {
            self.missed[i] = 0;
        }
    }

    /// Captures the state for a checkpoint.
    pub(crate) fn export_checkpoint(&self) -> FaultCheckpoint {
        FaultCheckpoint {
            rng: self.rng.state(),
            down_until: self.down_until.clone(),
            missed: self.missed.clone(),
            stats: self.stats,
        }
    }

    /// Restores state captured by [`FaultState::export_checkpoint`].
    pub(crate) fn restore_checkpoint(&mut self, frame: &FaultCheckpoint) {
        self.rng = StdRng::from_state(frame.rng);
        self.down_until = frame.down_until.clone();
        self.missed = frame.missed.clone();
        self.stats = frame.stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_inactive() {
        let config = FaultConfig::default();
        assert!(!config.is_active());
        assert!(config.spec.is_noop());
        config.validate();
        assert_eq!(config, FaultConfig::NONE);
    }

    #[test]
    fn any_probability_activates() {
        for spec in [
            FaultSpec {
                crash_prob: 0.1,
                ..FaultSpec::NONE
            },
            FaultSpec {
                drop_prob: 0.1,
                ..FaultSpec::NONE
            },
            FaultSpec {
                corrupt_prob: 0.1,
                ..FaultSpec::NONE
            },
            FaultSpec {
                straggler_prob: 0.1,
                straggler_factor: 4.0,
                ..FaultSpec::NONE
            },
        ] {
            let config = FaultConfig {
                spec,
                policy: AggregationPolicy::FullBarrier,
            };
            assert!(config.is_active(), "{spec:?}");
            config.validate();
        }
    }

    #[test]
    fn non_barrier_policy_activates_without_faults() {
        let config = FaultConfig {
            spec: FaultSpec::NONE,
            policy: AggregationPolicy::Quorum {
                quorum: 2,
                deadline_secs: 10.0,
            },
        };
        assert!(config.is_active());
    }

    #[test]
    #[should_panic(expected = "crash_prob must be in [0, 1)")]
    fn crash_prob_one_rejected() {
        FaultSpec {
            crash_prob: 1.0,
            ..FaultSpec::NONE
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "rejoin_after must be at least 1")]
    fn zero_rejoin_rejected() {
        FaultSpec {
            rejoin_after: 0,
            ..FaultSpec::NONE
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "straggler_factor must be at least 1")]
    fn shrinking_straggler_rejected() {
        FaultSpec {
            straggler_factor: 0.5,
            ..FaultSpec::NONE
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "quorum must be at least 1")]
    fn zero_quorum_rejected() {
        AggregationPolicy::Quorum {
            quorum: 0,
            deadline_secs: 1.0,
        }
        .validate();
    }

    #[test]
    fn full_barrier_selects_all_up() {
        let policy = AggregationPolicy::FullBarrier;
        let times = [3.0, 1.0, 2.0, 4.0];
        assert_eq!(policy.select(&[0, 2, 3], &times, &[0; 4]), vec![0, 2, 3]);
        assert!(policy.select(&[], &times, &[0; 4]).is_empty());
    }

    #[test]
    fn quorum_takes_fastest_q() {
        let policy = AggregationPolicy::Quorum {
            quorum: 2,
            deadline_secs: 100.0,
        };
        let times = [3.0, 1.0, 2.0, 4.0];
        // Fastest two of all four are workers 1 (1.0) and 2 (2.0).
        assert_eq!(policy.select(&[0, 1, 2, 3], &times, &[0; 4]), vec![1, 2]);
    }

    #[test]
    fn quorum_ties_admit_equal_times() {
        let policy = AggregationPolicy::Quorum {
            quorum: 1,
            deadline_secs: 100.0,
        };
        // Both workers tie at the cutoff: both get in (cutoff is a time,
        // not a head-count), keeping selection order-independent.
        let times = [2.0, 2.0];
        assert_eq!(policy.select(&[0, 1], &times, &[0; 2]), vec![0, 1]);
    }

    #[test]
    fn quorum_deadline_beats_quorum_time() {
        let policy = AggregationPolicy::Quorum {
            quorum: 3,
            deadline_secs: 2.5,
        };
        let times = [3.0, 1.0, 2.0, 4.0];
        // The 3rd-fastest time is 3.0 but the deadline is 2.5, so only
        // workers under 2.5 participate.
        assert_eq!(policy.select(&[0, 1, 2, 3], &times, &[0; 4]), vec![1, 2]);
    }

    #[test]
    fn quorum_never_empty() {
        let policy = AggregationPolicy::Quorum {
            quorum: 2,
            deadline_secs: 0.5,
        };
        let times = [3.0, 1.0, 2.0];
        // Nobody beats the deadline: degrade to the single fastest worker.
        assert_eq!(policy.select(&[0, 1, 2], &times, &[0; 3]), vec![1]);
    }

    #[test]
    fn quorum_clamps_to_up_count() {
        let policy = AggregationPolicy::Quorum {
            quorum: 8,
            deadline_secs: 100.0,
        };
        let times = [3.0, 1.0];
        assert_eq!(policy.select(&[0, 1], &times, &[0; 2]), vec![0, 1]);
    }

    #[test]
    fn bounded_staleness_forces_late_workers_in() {
        let policy = AggregationPolicy::BoundedStaleness {
            quorum: 1,
            max_staleness: 2,
        };
        let times = [1.0, 5.0, 9.0];
        let missed = [0, 2, 1];
        // Quorum of 1 admits only worker 0, but worker 1 hit the staleness
        // bound and is forced in; worker 2 (1 miss) still waits.
        assert_eq!(policy.select(&[0, 1, 2], &times, &missed), vec![0, 1]);
    }

    #[test]
    fn fault_state_round_trips_through_checkpoint() {
        let spec = FaultSpec {
            crash_prob: 0.5,
            rejoin_after: 2,
            ..FaultSpec::NONE
        };
        let mut state = FaultState::new(42, 4);
        for round in 0..6 {
            state.sweep_rejoins(round);
            state.draw_crashes(round, &spec);
            let up = state.up_workers(round);
            assert!(!up.is_empty(), "survivor guarantee violated");
            state.note_participants(&up);
        }
        let frame = state.export_checkpoint();
        let mut restored = FaultState::new(7, 4);
        restored.restore_checkpoint(&frame);
        assert_eq!(restored.export_checkpoint(), frame);
        // Both replicas must draw identically from here on.
        let mut a = state;
        let mut b = restored;
        for round in 6..12 {
            a.sweep_rejoins(round);
            b.sweep_rejoins(round);
            assert_eq!(a.draw_crashes(round, &spec), b.draw_crashes(round, &spec));
            assert_eq!(a.up_workers(round), b.up_workers(round));
        }
    }

    #[test]
    fn survivor_guarantee_revives_first_crashed_worker() {
        let spec = FaultSpec {
            crash_prob: 0.999,
            rejoin_after: 3,
            ..FaultSpec::NONE
        };
        let mut state = FaultState::new(1, 3);
        for round in 0..50 {
            state.sweep_rejoins(round);
            state.draw_crashes(round, &spec);
            assert!(
                !state.up_workers(round).is_empty(),
                "round {round}: every worker down"
            );
        }
    }

    #[test]
    fn staleness_table_tracks_missed_rounds() {
        let mut state = FaultState::new(3, 3);
        state.note_participants(&[0, 2]);
        assert_eq!(state.missed, vec![0, 1, 0]);
        state.note_participants(&[0]);
        assert_eq!(state.missed, vec![0, 2, 1]);
        state.note_participants(&[0, 1, 2]);
        assert_eq!(state.missed, vec![0, 0, 0]);
    }
}
