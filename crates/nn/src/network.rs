//! A trainable network: a layer stack plus a loss.

use crate::{Layer, Loss, Sequential};
use tensor::Tensor;

/// A supervised classification model: a [`Sequential`] feature extractor
/// producing class logits, trained against a [`Loss`].
///
/// `Network` is what the PASGD simulator replicates onto each worker: it
/// exposes its parameters as one flat plane (copy, accumulate and load,
/// for model averaging), a combined forward+backward training step, and
/// evaluation helpers.
///
/// # Example
///
/// ```
/// use nn::{models, Network};
/// use tensor::Tensor;
///
/// let mut net = models::mlp_classifier(8, &[16], 3, 42);
/// let x = Tensor::zeros(&[4, 8]);
/// let loss = net.train_step(&x, &[0, 1, 2, 0]);
/// assert!(loss > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    stack: Sequential,
    loss: Loss,
}

impl Network {
    /// Creates a network from a layer stack and a loss.
    pub fn new(stack: Sequential, loss: Loss) -> Self {
        Network { stack, loss }
    }

    /// The loss this network optimises.
    pub fn loss_kind(&self) -> Loss {
        self.loss
    }

    /// Borrow the underlying layer stack.
    pub fn stack(&self) -> &Sequential {
        &self.stack
    }

    /// Mutably borrow the underlying layer stack.
    pub fn stack_mut(&mut self) -> &mut Sequential {
        &mut self.stack
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        let mut count = 0;
        self.stack.visit_params(&mut |p| count += p.len());
        count
    }

    /// Forward pass producing logits, in training mode.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        self.stack.forward(x, true)
    }

    /// One training step: forward, loss, backward. Parameter gradients are
    /// left in the layers for an optimizer to consume; returns the batch
    /// loss.
    ///
    /// # Panics
    ///
    /// Panics if the batch shapes disagree with the network.
    pub fn train_step(&mut self, x: &Tensor, labels: &[usize]) -> f32 {
        let logits = self.stack.forward(x, true);
        let (loss, dlogits) = self.loss.loss_and_grad(&logits, labels);
        // The first layer's input gradient feeds nothing in a training
        // step; backward_param_only lets it skip that GEMM.
        let _ = self.stack.backward_param_only(&dlogits);
        loss
    }

    /// Mean loss on a batch without computing gradients (evaluation mode).
    pub fn eval_loss(&mut self, x: &Tensor, labels: &[usize]) -> f32 {
        let logits = self.stack.forward(x, false);
        self.loss.loss(&logits, labels)
    }

    /// Per-row loss summands on a batch (evaluation mode), in row order —
    /// the chunkable half of [`Network::eval_loss`]. Because the forward
    /// pass and the per-row loss are row-independent, evaluating a batch
    /// as row chunks and reducing the concatenated summands with
    /// [`Loss::reduce_rows`](crate::Loss::reduce_rows) is bit-identical
    /// to one whole-batch [`Network::eval_loss`] call; the PASGD cluster
    /// relies on this to run trace-point evaluation as parallel chunk
    /// jobs.
    pub fn eval_row_losses(&mut self, x: &Tensor, labels: &[usize]) -> Vec<f64> {
        let logits = self.stack.forward(x, false);
        self.loss.row_losses(&logits, labels)
    }

    /// Predicted class per row (argmax of logits), evaluation mode.
    pub fn predict(&mut self, x: &Tensor) -> Vec<usize> {
        self.stack.forward(x, false).argmax_rows()
    }

    /// Fraction of rows whose argmax prediction matches the label.
    pub fn accuracy(&mut self, x: &Tensor, labels: &[usize]) -> f64 {
        let preds = self.predict(x);
        crate::metrics::accuracy(&preds, labels)
    }

    /// Number of rows whose argmax prediction matches the label — the
    /// chunkable (integer, order-free) half of [`Network::accuracy`].
    pub fn correct_count(&mut self, x: &Tensor, labels: &[usize]) -> usize {
        self.predict(x)
            .iter()
            .zip(labels)
            .filter(|(p, l)| p == l)
            .count()
    }

    // ------------------------------------------------------------------
    // Parameter plumbing for distributed averaging
    // ------------------------------------------------------------------

    /// Snapshots every parameter tensor, in visitor order — the shapes
    /// behind the flat plane's segments, for diagnostics and tests. It
    /// copies the whole model; to read only dims, visit the stack.
    pub fn params_snapshot(&self) -> Vec<Tensor> {
        let mut out = Vec::new();
        self.stack.visit_params(&mut |p| out.push(p.clone()));
        out
    }

    /// Lengths of every parameter tensor in visitor order — the segment
    /// layout of the flat parameter plane used by
    /// [`Network::copy_params_into`] / [`Network::load_params_from`].
    pub fn param_sizes(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.stack.visit_params(&mut |p| out.push(p.len()));
        out
    }

    /// Copies every parameter into the flat plane `out` (row-major within
    /// each tensor, visitor order across tensors). The PASGD cluster keeps
    /// one preallocated plane per worker and refills it every round.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from [`Network::param_count`].
    pub fn copy_params_into(&self, out: &mut [f32]) {
        let mut offset = 0;
        self.stack.visit_params(&mut |p| {
            let next = offset + p.len();
            assert!(
                next <= out.len(),
                "flat plane holds {} values but the network has more",
                out.len()
            );
            out[offset..next].copy_from_slice(p.as_slice());
            offset = next;
        });
        assert_eq!(
            offset,
            out.len(),
            "flat plane holds {} values but the network has {offset}",
            out.len()
        );
    }

    /// Adds every parameter into the flat plane `acc` (`acc[i] += p[i]` in
    /// the [`Network::copy_params_into`] layout) — the accumulate half of
    /// distributed averaging, reading parameters in place instead of
    /// materialising a flat copy first.
    ///
    /// # Panics
    ///
    /// Panics if `acc.len()` differs from [`Network::param_count`].
    pub fn add_params_to(&self, acc: &mut [f32]) {
        let mut offset = 0;
        self.stack.visit_params(&mut |p| {
            let next = offset + p.len();
            assert!(
                next <= acc.len(),
                "flat plane holds {} values but the network has more",
                acc.len()
            );
            for (a, &v) in acc[offset..next].iter_mut().zip(p.as_slice()) {
                *a += v;
            }
            offset = next;
        });
        assert_eq!(
            offset,
            acc.len(),
            "flat plane holds {} values but the network has {offset}",
            acc.len()
        );
    }

    /// Allocating convenience around [`Network::copy_params_into`].
    pub fn params_flat(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.param_count()];
        self.copy_params_into(&mut out);
        out
    }

    /// Overwrites every parameter from the flat plane `src` (the layout
    /// produced by [`Network::copy_params_into`]) — the broadcast half of
    /// model averaging.
    ///
    /// # Panics
    ///
    /// Panics if `src.len()` differs from [`Network::param_count`].
    pub fn load_params_from(&mut self, src: &[f32]) {
        let mut offset = 0;
        self.stack.visit_params_mut(&mut |p| {
            let next = offset + p.len();
            assert!(
                next <= src.len(),
                "flat snapshot holds {} values but the network has more",
                src.len()
            );
            p.as_mut_slice().copy_from_slice(&src[offset..next]);
            offset = next;
        });
        assert_eq!(
            offset,
            src.len(),
            "flat snapshot holds {} values but the network has {offset}",
            src.len()
        );
    }

    /// Squared L2 norm of the current gradient.
    pub fn grad_sq_norm(&mut self) -> f32 {
        let mut total = 0.0;
        self.stack
            .visit_param_grad_pairs(&mut |_, g| total += g.norm_sq());
        total
    }

    /// Sets all gradients to zero.
    pub fn zero_grads(&mut self) {
        self.stack.zero_grads();
    }

    /// Visits `(parameter, gradient)` pairs — the optimizer entry point.
    pub fn visit_param_grad_pairs(&mut self, f: &mut dyn FnMut(&mut Tensor, &Tensor)) {
        self.stack.visit_param_grad_pairs(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn snapshot_load_roundtrip() {
        let net = models::mlp_classifier(4, &[6], 3, 0);
        let plane = net.params_flat();
        let mut other = models::mlp_classifier(4, &[6], 3, 99);
        assert_ne!(other.params_flat(), plane);
        other.load_params_from(&plane);
        assert_eq!(other.params_snapshot(), net.params_snapshot());
    }

    #[test]
    fn identical_params_give_identical_predictions() {
        let mut a = models::mlp_classifier(4, &[6], 3, 0);
        let mut b = models::mlp_classifier(4, &[6], 3, 1);
        b.load_params_from(&a.params_flat());
        let mut rng = StdRng::seed_from_u64(2);
        let x = tensor::Tensor::randn(&[8, 4], 1.0, &mut rng);
        assert_eq!(a.predict(&x), b.predict(&x));
    }

    #[test]
    fn train_step_populates_gradients() {
        let mut net = models::mlp_classifier(4, &[6], 3, 0);
        let mut rng = StdRng::seed_from_u64(3);
        let x = tensor::Tensor::randn(&[8, 4], 1.0, &mut rng);
        let loss = net.train_step(&x, &[0, 1, 2, 0, 1, 2, 0, 1]);
        assert!(loss > 0.0);
        assert!(net.grad_sq_norm() > 0.0);
        net.zero_grads();
        assert_eq!(net.grad_sq_norm(), 0.0);
    }

    #[test]
    fn flat_plane_roundtrip_matches_snapshot() {
        let net = models::mlp_classifier(4, &[6], 3, 0);
        let plane = net.params_flat();
        assert_eq!(plane.len(), net.param_count());
        assert_eq!(net.param_sizes(), vec![24, 6, 18, 3]);
        // The plane is the concatenation of the snapshot tensors.
        let concat: Vec<f32> = net
            .params_snapshot()
            .iter()
            .flat_map(|t| t.as_slice().to_vec())
            .collect();
        assert_eq!(plane, concat);
        let mut other = models::mlp_classifier(4, &[6], 3, 99);
        other.load_params_from(&plane);
        assert_eq!(other.params_flat(), plane);
        assert_eq!(other.params_snapshot(), net.params_snapshot());
    }

    #[test]
    #[should_panic(expected = "flat snapshot holds")]
    fn load_from_rejects_short_plane() {
        let mut net = models::mlp_classifier(4, &[6], 3, 0);
        net.load_params_from(&[0.0; 3]);
    }

    #[test]
    fn chunked_eval_is_bit_identical_to_whole_batch() {
        // The contract trace-point parallel evaluation rests on: forward
        // passes and per-row losses are row-independent, so evaluating a
        // batch as row chunks and reducing the concatenated summands
        // matches the whole-batch loss bit for bit.
        let mut rng = StdRng::seed_from_u64(11);
        let x = tensor::Tensor::randn(&[70, 4], 1.0, &mut rng);
        let labels: Vec<usize> = (0..70).map(|i| i % 3).collect();
        for loss in [crate::Loss::CrossEntropy, crate::Loss::MeanSquaredError] {
            let mut net = models::mlp_classifier(4, &[6], 3, 5);
            let mut net = Network::new(net.stack_mut().clone(), loss);
            let whole = net.eval_loss(&x, &labels);
            let mut rows = Vec::new();
            let mut correct = 0usize;
            for start in (0..70).step_by(16) {
                let end = (start + 16).min(70);
                let idx: Vec<usize> = ((start * 4)..(end * 4)).collect();
                let cx = tensor::Tensor::from_vec(
                    idx.iter().map(|&i| x.as_slice()[i]).collect(),
                    &[end - start, 4],
                )
                .unwrap();
                // A fresh replica per chunk, like the cluster's eval pool.
                let mut replica = net.clone();
                rows.extend(replica.eval_row_losses(&cx, &labels[start..end]));
                correct += replica.correct_count(&cx, &labels[start..end]);
            }
            let chunked = loss.reduce_rows(&rows, 3);
            assert_eq!(
                whole.to_bits(),
                chunked.to_bits(),
                "{loss:?} chunked eval diverged"
            );
            let whole_acc = net.accuracy(&x, &labels);
            assert_eq!(whole_acc, correct as f64 / 70.0);
        }
    }

    #[test]
    fn param_count_matches_architecture() {
        let net = models::mlp_classifier(4, &[6], 3, 0);
        // dense(4->6): 24+6, dense(6->3): 18+3.
        assert_eq!(net.param_count(), 24 + 6 + 18 + 3);
    }
}
