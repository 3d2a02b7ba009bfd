//! Averaging strategies beyond the paper's all-node broadcast.
//!
//! The paper's concluding remarks note that adapting the communication
//! frequency "can be easily extended to other SGD frameworks including
//! elastic-averaging, decentralized SGD (e.g., adapting network sparsity)
//! and parameter server-based training". This module implements those
//! synchronization patterns so the extension experiments can compare them
//! under the same schedulers.
//!
//! Strategies operate on **flat parameter planes** — one `Vec<f32>` per
//! worker, the concatenation of that worker's parameter tensors — which is
//! how the cluster's zero-allocation averaging path represents models.

use rand::seq::SliceRandom;
use rand::Rng;

/// How local models are combined at a synchronization point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AveragingStrategy {
    /// The paper's PASGD: every worker receives the all-node average
    /// (eq. 3).
    FullAverage,
    /// Federated-averaging-style partial participation: only a sampled
    /// subset of workers takes part in the round's average; the rest keep
    /// their local models (McMahan et al., 2016).
    PartialParticipation {
        /// Fraction of workers sampled per synchronization, in `(0, 1]`.
        fraction: f64,
    },
    /// Decentralized ring gossip (Lian et al., 2017): worker `i` mixes with
    /// its ring neighbours using the doubly stochastic weights
    /// `[1/3, 1/3, 1/3]`. Models agree only in the limit of many rounds.
    Ring,
    /// Elastic averaging (Zhang et al., 2015): every worker moves a step
    /// `α` toward the group mean, `x_i ← x_i − α (x_i − x̄)`, retaining some
    /// exploration around it.
    Elastic {
        /// Elasticity in `(0, 1]`; `1` recovers full averaging.
        alpha: f32,
    },
}

impl AveragingStrategy {
    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics if a fraction/elasticity is outside `(0, 1]`.
    pub fn validate(&self) {
        match *self {
            AveragingStrategy::FullAverage | AveragingStrategy::Ring => {}
            AveragingStrategy::PartialParticipation { fraction } => {
                assert!(
                    fraction > 0.0 && fraction <= 1.0,
                    "participation fraction must be in (0, 1], got {fraction}"
                );
            }
            AveragingStrategy::Elastic { alpha } => {
                assert!(
                    alpha > 0.0 && alpha <= 1.0,
                    "elasticity must be in (0, 1], got {alpha}"
                );
            }
        }
    }

    /// Whether this strategy leaves all workers with identical parameters
    /// after every synchronization.
    pub fn fully_synchronizes(&self) -> bool {
        matches!(self, AveragingStrategy::FullAverage)
            || matches!(self, AveragingStrategy::Elastic { alpha } if *alpha >= 1.0)
    }

    /// Applies the strategy to the per-worker parameter planes in place
    /// and reports which workers the synchronization touched:
    /// `touched[i]` is true iff worker `i`'s plane was (re)written. `rng`
    /// drives participant sampling for
    /// [`AveragingStrategy::PartialParticipation`], which leaves
    /// sampled-out workers untouched; a degenerate participant group of
    /// one exchanges nothing and counts as untouched too. The
    /// compressed-averaging path uses the mask to decide which workers
    /// adopt a mixed (lossy) model and which keep their exact local
    /// parameters.
    ///
    /// # Panics
    ///
    /// Panics if `planes` is empty or the plane lengths differ.
    pub fn mix<R: Rng + ?Sized>(&self, planes: &mut [Vec<f32>], rng: &mut R) -> Vec<bool> {
        assert!(!planes.is_empty(), "no models to mix");
        let m = planes.len();
        let n = planes[0].len();
        for p in planes.iter() {
            assert_eq!(p.len(), n, "inconsistent plane lengths: {} vs {n}", p.len());
        }
        match *self {
            AveragingStrategy::FullAverage => {
                let avg = average_planes(planes, (0..m).collect::<Vec<_>>().as_slice());
                for p in planes.iter_mut() {
                    p.copy_from_slice(&avg);
                }
                vec![true; m]
            }
            AveragingStrategy::PartialParticipation { fraction } => {
                let k = ((fraction * m as f64).round() as usize).clamp(1, m);
                let mut touched = vec![false; m];
                let mut ids: Vec<usize> = (0..m).collect();
                ids.shuffle(rng);
                ids.truncate(k);
                if k < 2 {
                    // One participant averages with nobody; the round
                    // moves no parameters. (The sampling draw above still
                    // happens, keeping the RNG stream identical.)
                    return touched;
                }
                let avg = average_planes(planes, &ids);
                for &i in &ids {
                    planes[i].copy_from_slice(&avg);
                    touched[i] = true;
                }
                touched
            }
            AveragingStrategy::Ring => {
                if m < 3 {
                    // A ring of 1 or 2 degenerates to full averaging.
                    let avg = average_planes(planes, (0..m).collect::<Vec<_>>().as_slice());
                    for p in planes.iter_mut() {
                        p.copy_from_slice(&avg);
                    }
                    return vec![true; m];
                }
                let originals: Vec<Vec<f32>> = planes.to_vec();
                for (i, plane) in planes.iter_mut().enumerate() {
                    let left = &originals[(i + m - 1) % m];
                    let mid = &originals[i];
                    let right = &originals[(i + 1) % m];
                    for (((t, &l), &c), &r) in plane.iter_mut().zip(left).zip(mid).zip(right) {
                        let mut mixed = l;
                        mixed += c;
                        mixed += r;
                        *t = mixed * (1.0 / 3.0);
                    }
                }
                vec![true; m]
            }
            AveragingStrategy::Elastic { alpha } => {
                let avg = average_planes(planes, (0..m).collect::<Vec<_>>().as_slice());
                for p in planes.iter_mut() {
                    for (t, &a) in p.iter_mut().zip(&avg) {
                        *t += alpha * (a - *t);
                    }
                }
                vec![true; m]
            }
        }
    }
}

/// The one shared mean reduction every averaging path uses: `acc` is
/// overwritten with `first`, the `rest` planes are accumulated **in
/// iteration order**, and the result is scaled by `1/count`.
///
/// The golden-trace bit-exactness guarantee depends on this exact
/// per-element float sequence (it matches the seed's tensor-based
/// `tensor::average`): copy, add in order, multiply by the reciprocal.
/// Keep every averaging site on this helper rather than hand-rolling the
/// loop.
///
/// # Panics
///
/// Panics if `count` disagrees with the number of planes provided.
pub(crate) fn mean_plane_into<'a>(
    acc: &mut [f32],
    first: &[f32],
    rest: impl Iterator<Item = &'a [f32]>,
    count: usize,
) {
    acc.copy_from_slice(first);
    let mut seen = 1usize;
    for plane in rest {
        for (a, &p) in acc.iter_mut().zip(plane) {
            *a += p;
        }
        seen += 1;
    }
    assert_eq!(seen, count, "mean over {count} planes but {seen} provided");
    let inv = 1.0 / count as f32;
    for a in acc.iter_mut() {
        *a *= inv;
    }
}

/// Averages the planes selected by `ids`, in `ids` order, into a fresh
/// plane (see [`mean_plane_into`]).
fn average_planes(planes: &[Vec<f32>], ids: &[usize]) -> Vec<f32> {
    let mut acc = vec![0.0f32; planes[ids[0]].len()];
    mean_plane_into(
        &mut acc,
        &planes[ids[0]],
        ids[1..].iter().map(|&i| planes[i].as_slice()),
        ids.len(),
    );
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn planes(values: &[f32]) -> Vec<Vec<f32>> {
        values.iter().map(|&v| vec![v; 2]).collect()
    }

    fn firsts(planes: &[Vec<f32>]) -> Vec<f32> {
        planes.iter().map(|p| p[0]).collect()
    }

    #[test]
    fn full_average_synchronizes() {
        let mut snaps = planes(&[0.0, 2.0, 4.0]);
        let mut rng = StdRng::seed_from_u64(0);
        AveragingStrategy::FullAverage.mix(&mut snaps, &mut rng);
        assert_eq!(firsts(&snaps), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn ring_preserves_global_mean() {
        let mut snaps = planes(&[0.0, 3.0, 6.0, 9.0]);
        let mut rng = StdRng::seed_from_u64(1);
        AveragingStrategy::Ring.mix(&mut snaps, &mut rng);
        let vals = firsts(&snaps);
        let mean: f32 = vals.iter().sum::<f32>() / 4.0;
        assert!((mean - 4.5).abs() < 1e-6, "ring must preserve the mean");
        // Not fully synchronized after one round.
        assert!(vals.iter().any(|&v| (v - 4.5).abs() > 1e-6));
    }

    #[test]
    fn ring_contracts_toward_consensus() {
        let mut snaps = planes(&[0.0, 4.0, 8.0, 12.0]);
        let mut rng = StdRng::seed_from_u64(2);
        let spread = |snaps: &[Vec<f32>]| {
            let v = firsts(snaps);
            let max = v.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let min = v.iter().copied().fold(f32::INFINITY, f32::min);
            max - min
        };
        let before = spread(&snaps);
        for _ in 0..20 {
            AveragingStrategy::Ring.mix(&mut snaps, &mut rng);
        }
        assert!(
            spread(&snaps) < before * 0.05,
            "repeated gossip must reach near-consensus"
        );
    }

    #[test]
    fn ring_of_two_is_full_average() {
        let mut snaps = planes(&[1.0, 3.0]);
        let mut rng = StdRng::seed_from_u64(3);
        AveragingStrategy::Ring.mix(&mut snaps, &mut rng);
        assert_eq!(firsts(&snaps), vec![2.0, 2.0]);
    }

    #[test]
    fn elastic_moves_partway() {
        let mut snaps = planes(&[0.0, 4.0]);
        let mut rng = StdRng::seed_from_u64(4);
        AveragingStrategy::Elastic { alpha: 0.5 }.mix(&mut snaps, &mut rng);
        assert_eq!(firsts(&snaps), vec![1.0, 3.0]);
    }

    #[test]
    fn elastic_with_alpha_one_is_full_average() {
        let mut snaps = planes(&[0.0, 4.0, 8.0]);
        let mut rng = StdRng::seed_from_u64(5);
        AveragingStrategy::Elastic { alpha: 1.0 }.mix(&mut snaps, &mut rng);
        assert_eq!(firsts(&snaps), vec![4.0, 4.0, 4.0]);
    }

    #[test]
    fn partial_participation_touches_only_sampled_workers() {
        let mut snaps = planes(&[0.0, 10.0, 20.0, 30.0]);
        let mut rng = StdRng::seed_from_u64(6);
        AveragingStrategy::PartialParticipation { fraction: 0.5 }.mix(&mut snaps, &mut rng);
        let vals = firsts(&snaps);
        // Exactly two workers share a new common value; two keep theirs.
        let originals = [0.0f32, 10.0, 20.0, 30.0];
        let kept = vals
            .iter()
            .zip(originals.iter())
            .filter(|(v, o)| (**v - **o).abs() < 1e-6)
            .count();
        assert_eq!(kept, 2, "half the workers must be untouched: {vals:?}");
    }

    #[test]
    fn full_participation_fraction_is_full_average() {
        let mut snaps = planes(&[1.0, 2.0, 3.0]);
        let mut rng = StdRng::seed_from_u64(7);
        AveragingStrategy::PartialParticipation { fraction: 1.0 }.mix(&mut snaps, &mut rng);
        assert_eq!(firsts(&snaps), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "participation fraction must be in (0, 1]")]
    fn zero_fraction_rejected() {
        AveragingStrategy::PartialParticipation { fraction: 0.0 }.validate();
    }

    #[test]
    fn mix_tracked_reports_participants() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut snaps = planes(&[0.0, 1.0, 2.0]);
        assert_eq!(
            AveragingStrategy::FullAverage.mix(&mut snaps, &mut rng),
            vec![true; 3]
        );
        assert_eq!(
            AveragingStrategy::Ring.mix(&mut snaps, &mut rng),
            vec![true; 3]
        );
        let mut snaps = planes(&[0.0, 10.0, 20.0, 30.0]);
        let touched =
            AveragingStrategy::PartialParticipation { fraction: 0.5 }.mix(&mut snaps, &mut rng);
        assert_eq!(touched.iter().filter(|&&t| t).count(), 2);
        // Untouched workers keep their exact values.
        for (i, t) in touched.iter().enumerate() {
            if !t {
                assert_eq!(snaps[i][0], [0.0, 10.0, 20.0, 30.0][i]);
            }
        }
    }

    #[test]
    fn lone_participant_touches_nobody() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut snaps = planes(&[1.0, 2.0, 3.0, 4.0]);
        let touched =
            AveragingStrategy::PartialParticipation { fraction: 0.25 }.mix(&mut snaps, &mut rng);
        assert_eq!(touched, vec![false; 4]);
        assert_eq!(firsts(&snaps), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn fully_synchronizes_flags() {
        assert!(AveragingStrategy::FullAverage.fully_synchronizes());
        assert!(!AveragingStrategy::Ring.fully_synchronizes());
        assert!(!AveragingStrategy::Elastic { alpha: 0.5 }.fully_synchronizes());
    }

    #[test]
    #[should_panic(expected = "inconsistent plane lengths")]
    fn mismatched_planes_rejected() {
        let mut snaps = vec![vec![0.0f32; 2], vec![0.0f32; 3]];
        let mut rng = StdRng::seed_from_u64(10);
        AveragingStrategy::FullAverage.mix(&mut snaps, &mut rng);
    }
}
