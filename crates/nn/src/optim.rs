//! Stochastic-gradient-descent optimizers.

use crate::Network;
use tensor::Tensor;

/// SGD with optional heavy-ball momentum and decoupled weight decay —
/// exactly the local optimizer the paper runs on each worker.
///
/// The momentum buffer follows the common deep-learning convention
/// (`v ← β·v + g; p ← p − η·v`). [`Sgd::reset_momentum`] clears the buffers,
/// which the simulator calls at every averaging step when running the
/// paper's block-momentum scheme ("local momentum buffer will be cleared at
/// the beginning of each local update period", Section 5.3.1).
///
/// # Example
///
/// ```
/// use nn::{models, Sgd};
/// use tensor::Tensor;
///
/// let mut net = models::mlp_classifier(4, &[8], 2, 0);
/// let mut opt = Sgd::new(0.1).with_momentum(0.9).with_weight_decay(5e-4);
/// let x = Tensor::zeros(&[2, 4]);
/// let before = net.params_snapshot();
/// net.train_step(&x, &[0, 1]);
/// opt.step(&mut net);
/// assert_ne!(net.params_snapshot(), before);
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    buffers: Vec<Tensor>,
}

impl Sgd {
    /// Plain SGD with the given learning rate.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive and finite.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0 && lr.is_finite(), "invalid learning rate {lr}");
        Sgd {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
            buffers: Vec::new(),
        }
    }

    /// Enables heavy-ball momentum with factor `beta ∈ [0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `beta` is outside `[0, 1)`.
    pub fn with_momentum(mut self, beta: f32) -> Self {
        assert!((0.0..1.0).contains(&beta), "invalid momentum {beta}");
        self.momentum = beta;
        self
    }

    /// Enables L2 weight decay with the given coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `wd` is negative or non-finite.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        assert!(wd >= 0.0 && wd.is_finite(), "invalid weight decay {wd}");
        self.weight_decay = wd;
        self
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Updates the learning rate (for decay schedules).
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive and finite.
    pub fn set_lr(&mut self, lr: f32) {
        assert!(lr > 0.0 && lr.is_finite(), "invalid learning rate {lr}");
        self.lr = lr;
    }

    /// Momentum factor.
    pub fn momentum(&self) -> f32 {
        self.momentum
    }

    /// Clears the momentum buffers (no-op for momentum 0).
    pub fn reset_momentum(&mut self) {
        for b in &mut self.buffers {
            b.fill_zero();
        }
    }

    /// The momentum buffers, one per parameter tensor — empty until the
    /// first momentum step (they are created lazily). Exposed so run
    /// checkpoints can capture optimizer state.
    pub fn momentum_buffers(&self) -> &[Tensor] {
        &self.buffers
    }

    /// Restores momentum buffers captured by [`Sgd::momentum_buffers`].
    /// An empty vector returns the optimizer to its pre-first-step state;
    /// shape agreement with the network is enforced by the next
    /// [`Sgd::step`], which panics on parameter-structure changes.
    pub fn restore_momentum_buffers(&mut self, buffers: Vec<Tensor>) {
        self.buffers = buffers;
    }

    /// Applies one update using the gradients currently stored in `net`.
    ///
    /// # Panics
    ///
    /// Panics if the network's parameter structure changed since the first
    /// `step` (buffer shapes no longer match).
    pub fn step(&mut self, net: &mut Network) {
        let lr = self.lr;
        let momentum = self.momentum;
        let wd = self.weight_decay;
        if momentum == 0.0 {
            let decay = 1.0 - lr * wd;
            net.visit_param_grad_pairs(&mut |p, g| {
                if wd > 0.0 {
                    // p ← p − η(g + wd·p), fused into one pass: per
                    // element this is exactly `scale(1 − η·wd)` followed
                    // by `axpy(−η, g)`, so results are bit-identical to
                    // the two-pass form at half the parameter traffic.
                    for (a, &b) in p.as_mut_slice().iter_mut().zip(g.as_slice()) {
                        *a = *a * decay + -lr * b;
                    }
                } else {
                    p.axpy(-lr, g);
                }
            });
            return;
        }
        // Lazily create buffers on first use.
        if self.buffers.is_empty() {
            net.visit_param_grad_pairs(&mut |_, g| {
                self.buffers.push(Tensor::zeros(g.dims()));
            });
        }
        let mut idx = 0;
        let buffers = &mut self.buffers;
        net.visit_param_grad_pairs(&mut |p, g| {
            assert!(
                idx < buffers.len(),
                "parameter structure changed after first step"
            );
            let buf = &mut buffers[idx];
            // v ← β·v + (g + wd·p)
            buf.scale(momentum);
            buf.axpy(1.0, g);
            if wd > 0.0 {
                buf.axpy(wd, p);
            }
            p.axpy(-lr, buf);
            idx += 1;
        });
        assert_eq!(idx, buffers.len(), "parameter structure changed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::Tensor;

    fn toy_batch(seed: u64) -> (Tensor, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        (
            Tensor::randn(&[8, 4], 1.0, &mut rng),
            vec![0, 1, 1, 0, 1, 0, 0, 1],
        )
    }

    #[test]
    fn sgd_reduces_loss_on_fixed_batch() {
        let mut net = models::mlp_classifier(4, &[16], 2, 0);
        let mut opt = Sgd::new(0.1);
        let (x, y) = toy_batch(1);
        let first = net.train_step(&x, &y);
        opt.step(&mut net);
        for _ in 0..50 {
            net.train_step(&x, &y);
            opt.step(&mut net);
        }
        let last = net.eval_loss(&x, &y);
        assert!(last < first * 0.5, "loss {first} -> {last}");
    }

    #[test]
    fn momentum_accelerates_on_fixed_batch() {
        let (x, y) = toy_batch(2);
        let run = |beta: f32| {
            let mut net = models::mlp_classifier(4, &[16], 2, 7);
            let mut opt = Sgd::new(0.02);
            if beta > 0.0 {
                opt = opt.with_momentum(beta);
            }
            for _ in 0..40 {
                net.train_step(&x, &y);
                opt.step(&mut net);
            }
            net.eval_loss(&x, &y)
        };
        let plain = run(0.0);
        let heavy = run(0.9);
        assert!(
            heavy < plain,
            "momentum should help on a smooth problem: {plain} vs {heavy}"
        );
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut net = models::mlp_classifier(4, &[8], 2, 3);
        let norm_before: f32 = net.params_snapshot().iter().map(Tensor::norm_sq).sum();
        let mut opt = Sgd::new(0.1).with_weight_decay(0.1);
        // Zero gradients: only decay acts.
        net.zero_grads();
        for _ in 0..10 {
            opt.step(&mut net);
        }
        let norm_after: f32 = net.params_snapshot().iter().map(Tensor::norm_sq).sum();
        assert!(norm_after < norm_before * 0.9);
    }

    #[test]
    fn reset_momentum_clears_buffers() {
        let mut net = models::mlp_classifier(4, &[8], 2, 4);
        let mut opt = Sgd::new(0.1).with_momentum(0.9);
        let (x, y) = toy_batch(5);
        net.train_step(&x, &y);
        opt.step(&mut net);
        opt.reset_momentum();
        // After reset with zero grads, a step must not move parameters
        // (other than nothing: buffers are zero, grads are stale but we
        // zero them first).
        net.zero_grads();
        let before = net.params_snapshot();
        opt.step(&mut net);
        let after = net.params_snapshot();
        for (a, b) in before.iter().zip(after.iter()) {
            assert!(a.distance(b) < 1e-7);
        }
    }

    #[test]
    fn restored_momentum_buffers_reproduce_the_trajectory() {
        let (x, y) = toy_batch(6);
        // Straight-through run.
        let mut net_a = models::mlp_classifier(4, &[8], 2, 11);
        let mut opt_a = Sgd::new(0.05).with_momentum(0.9);
        // Interrupted run: identical up to step 5, then checkpointed.
        let mut net_b = models::mlp_classifier(4, &[8], 2, 11);
        let mut opt_b = Sgd::new(0.05).with_momentum(0.9);
        for _ in 0..5 {
            net_a.train_step(&x, &y);
            opt_a.step(&mut net_a);
            net_b.train_step(&x, &y);
            opt_b.step(&mut net_b);
        }
        let buffers = opt_b.momentum_buffers().to_vec();
        let params = net_b.params_flat();
        // "Resume" into fresh objects.
        let mut net_c = models::mlp_classifier(4, &[8], 2, 11);
        net_c.load_params_from(&params);
        let mut opt_c = Sgd::new(0.05).with_momentum(0.9);
        opt_c.restore_momentum_buffers(buffers);
        for _ in 0..5 {
            net_a.train_step(&x, &y);
            opt_a.step(&mut net_a);
            net_c.train_step(&x, &y);
            opt_c.step(&mut net_c);
        }
        for (a, c) in net_a
            .params_snapshot()
            .iter()
            .zip(net_c.params_snapshot().iter())
        {
            assert_eq!(a.as_slice(), c.as_slice(), "resume diverged");
        }
    }

    #[test]
    fn set_lr_takes_effect() {
        let mut opt = Sgd::new(0.1);
        opt.set_lr(0.01);
        assert_eq!(opt.lr(), 0.01);
    }

    #[test]
    #[should_panic(expected = "invalid learning rate")]
    fn zero_lr_rejected() {
        let _ = Sgd::new(0.0);
    }
}
