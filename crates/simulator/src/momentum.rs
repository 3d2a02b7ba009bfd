//! Momentum handling at averaging steps, including the paper's block
//! momentum (Section 5.3.1, eqs. 24–25).

/// How momentum interacts with periodic averaging.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MomentumMode {
    /// No momentum anywhere (the paper's Section 5.2 setting).
    None,
    /// Plain local momentum on every worker.
    ///
    /// With `reset_at_sync = false` this is the *naive* scheme the paper
    /// warns about: the buffer built before an averaging step "can
    /// side-track the SGD descent direction" right after it. Kept for the
    /// ablation benches. With `reset_at_sync = true`, buffers are cleared at
    /// every averaging step but no global momentum is added.
    Local {
        /// Momentum factor β for the local buffers.
        beta: f32,
        /// Whether to clear local buffers at each averaging step.
        reset_at_sync: bool,
    },
    /// The paper's block momentum (eqs. 24–25): a *global* buffer over the
    /// accumulated per-round step, plus local momentum that restarts at
    /// every averaging step.
    Block {
        /// Global momentum factor `β_glob` (paper: 0.3).
        global: f32,
        /// Local momentum factor (paper: 0.9), reset at each sync.
        local: f32,
    },
}

impl MomentumMode {
    /// The paper's block-momentum configuration (`β_glob = 0.3`,
    /// local `0.9`), following Lin et al. (2018).
    pub fn paper_block() -> Self {
        MomentumMode::Block {
            global: 0.3,
            local: 0.9,
        }
    }

    /// The local momentum factor workers should run with (0 for `None`).
    pub fn local_beta(&self) -> f32 {
        match *self {
            MomentumMode::None => 0.0,
            MomentumMode::Local { beta, .. } => beta,
            MomentumMode::Block { local, .. } => local,
        }
    }

    /// Whether worker momentum buffers are cleared at an averaging step
    /// that closed a local-update period of length `tau`.
    ///
    /// For block momentum the reset only applies to genuine local-update
    /// periods (`tau > 1`): the paper notes that "in the fully synchronous
    /// case, there is no need to introduce the block momentum", and
    /// clearing the buffer after every single step would strip a τ = 1
    /// phase of momentum entirely.
    pub fn resets_local_at_sync(&self, tau: usize) -> bool {
        match *self {
            MomentumMode::None => false,
            MomentumMode::Local { reset_at_sync, .. } => reset_at_sync && tau > 1,
            MomentumMode::Block { .. } => tau > 1,
        }
    }

    /// Validates the factors.
    ///
    /// # Panics
    ///
    /// Panics if any factor is outside `[0, 1)`.
    pub fn validate(&self) {
        let check = |v: f32, name: &str| {
            assert!(
                (0.0..1.0).contains(&v),
                "{name} momentum factor must be in [0, 1), got {v}"
            );
        };
        match *self {
            MomentumMode::None => {}
            MomentumMode::Local { beta, .. } => check(beta, "local"),
            MomentumMode::Block { global, local } => {
                check(global, "global");
                check(local, "local");
            }
        }
    }
}

/// State for the global (block) momentum buffer of eqs. 24–25.
///
/// At the `j`-th averaging step, with `x_sync` the parameters broadcast at
/// the previous step and `x_avg` the plain average of the local models, the
/// accumulated round gradient is `G_j = (x_sync − x_avg)/η`. The update is
///
/// ```text
/// u_j     = β_glob · u_{j−1} + G_j          (24)
/// x_next  = x_sync − η · u_j                 (25)
/// ```
///
/// With `β_glob = 0` this reduces exactly to plain averaging.
///
/// The state lives on flat parameter planes (see
/// [`Network::copy_params_into`](nn::Network::copy_params_into)); the
/// per-element float sequence matches the earlier tensor-by-tensor
/// implementation exactly, so block-momentum runs are bit-identical across
/// the flat-plane refactor.
#[derive(Debug, Clone)]
pub struct BlockMomentum {
    global_beta: f32,
    buffer: Vec<f32>,
    prev_sync: Vec<f32>,
}

impl BlockMomentum {
    /// Creates block-momentum state anchored at the initial synchronized
    /// parameter plane.
    ///
    /// # Panics
    ///
    /// Panics if `global_beta` is outside `[0, 1)` or `initial` is empty.
    pub fn new(global_beta: f32, initial: Vec<f32>) -> Self {
        assert!(
            (0.0..1.0).contains(&global_beta),
            "global momentum factor must be in [0, 1), got {global_beta}"
        );
        assert!(!initial.is_empty(), "empty parameter snapshot");
        BlockMomentum {
            global_beta,
            buffer: vec![0.0f32; initial.len()],
            prev_sync: initial,
        }
    }

    /// Records a τ = 1 synchronization without applying global momentum,
    /// keeping the anchor point current so a later τ > 1 period computes
    /// its accumulated step `G_j` from the right base.
    ///
    /// # Panics
    ///
    /// Panics if the parameter plane length changed.
    pub fn observe_sync(&mut self, averaged: &[f32]) {
        assert_eq!(
            averaged.len(),
            self.prev_sync.len(),
            "parameter structure changed between rounds"
        );
        self.prev_sync.copy_from_slice(averaged);
    }

    /// Applies eqs. 24–25 into `out`: consumes the plain average of the
    /// local models and writes the parameters to broadcast, updating the
    /// momentum buffer and anchor in place (no allocation).
    ///
    /// `lr` must be the learning rate the workers used during the round
    /// (needed to reconstruct `G_j` from the parameter displacement).
    ///
    /// # Panics
    ///
    /// Panics if the lengths mismatch or `lr` is not positive.
    pub fn apply_into(&mut self, averaged: &[f32], lr: f32, out: &mut [f32]) {
        assert!(lr > 0.0 && lr.is_finite(), "invalid learning rate {lr}");
        assert_eq!(
            averaged.len(),
            self.prev_sync.len(),
            "parameter structure changed between rounds"
        );
        assert_eq!(out.len(), self.prev_sync.len(), "output plane length");
        let beta = self.global_beta;
        let inv_lr = 1.0 / lr;
        for ((prev, &avg), (buf, o)) in self
            .prev_sync
            .iter_mut()
            .zip(averaged)
            .zip(self.buffer.iter_mut().zip(out.iter_mut()))
        {
            // G_j = (prev − avg)/η.
            let g = (*prev - avg) * inv_lr;
            // u = β·u + G.
            *buf = *buf * beta + g;
            // x_next = prev − η·u.
            let x = *prev + (-lr) * *buf;
            *o = x;
            *prev = x;
        }
    }

    /// Borrows the `(buffer, prev_sync)` planes for a run checkpoint.
    pub fn state(&self) -> (&[f32], &[f32]) {
        (&self.buffer, &self.prev_sync)
    }

    /// Restores planes captured by [`BlockMomentum::state`].
    ///
    /// Returns an error (leaving the state untouched) if either plane's
    /// length disagrees with the anchored parameter plane — corrupted
    /// checkpoints must surface as recoverable failures, not panics.
    pub fn restore_state(&mut self, buffer: Vec<f32>, prev_sync: Vec<f32>) -> Result<(), String> {
        let n = self.prev_sync.len();
        if buffer.len() != n || prev_sync.len() != n {
            return Err(format!(
                "block-momentum planes of {}/{} entries for a model of {n} parameters",
                buffer.len(),
                prev_sync.len()
            ));
        }
        self.buffer = buffer;
        self.prev_sync = prev_sync;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One block-momentum step into a fresh plane.
    fn apply(bm: &mut BlockMomentum, averaged: &[f32], lr: f32) -> Vec<f32> {
        let mut out = vec![0.0f32; averaged.len()];
        bm.apply_into(averaged, lr, &mut out);
        out
    }

    #[test]
    fn zero_global_beta_is_plain_averaging() {
        let mut bm = BlockMomentum::new(0.0, vec![1.0, 1.0]);
        let avg = [0.5f32, 0.7];
        let out = apply(&mut bm, &avg, 0.1);
        for (o, a) in out.iter().zip(avg.iter()) {
            assert!((o - a).abs() < 1e-6, "got {out:?}");
        }
    }

    #[test]
    fn momentum_amplifies_consistent_progress() {
        // Two rounds moving in the same direction: with beta > 0 the second
        // broadcast overshoots the plain average (heavy-ball behaviour).
        let mut bm = BlockMomentum::new(0.5, vec![1.0]);
        let lr = 0.1;
        let first = apply(&mut bm, &[0.8], lr);
        assert!((first[0] - 0.8).abs() < 1e-6, "first round unchanged");
        // Second round: plain average would be 0.6.
        let second = apply(&mut bm, &[0.6], lr);
        assert!(
            second[0] < 0.6 - 1e-6,
            "expected overshoot below 0.6, got {}",
            second[0]
        );
        // Exactly: G1 = (1-0.8)/.1 = 2, u1 = 2, x1 = 0.8.
        // G2 = (0.8-0.6)/.1 = 2, u2 = 0.5*2+2 = 3, x2 = 0.8 - 0.3 = 0.5.
        assert!((second[0] - 0.5).abs() < 1e-5);
    }

    #[test]
    fn paper_block_factors() {
        let m = MomentumMode::paper_block();
        assert_eq!(m.local_beta(), 0.9);
        assert!(m.resets_local_at_sync(5));
        assert!(!m.resets_local_at_sync(1));
        m.validate();
    }

    #[test]
    fn local_mode_flags() {
        let naive = MomentumMode::Local {
            beta: 0.9,
            reset_at_sync: false,
        };
        assert!(!naive.resets_local_at_sync(5));
        assert_eq!(naive.local_beta(), 0.9);
        assert_eq!(MomentumMode::None.local_beta(), 0.0);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1)")]
    fn invalid_global_beta_rejected() {
        let _ = BlockMomentum::new(1.0, vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "parameter structure changed")]
    fn structure_change_detected() {
        let mut bm = BlockMomentum::new(0.3, vec![0.0]);
        let _ = apply(&mut bm, &[0.0, 1.0], 0.1);
    }
}
