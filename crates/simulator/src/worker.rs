//! A single PASGD worker: local model replica, optimizer, data shard, and
//! per-worker gradient-compression state (error feedback + sync reference).

use crate::checkpoint::WorkerCheckpoint;
use data::{BatchIter, Dataset};
use gradcomp::{Compressor, ErrorFeedback};
use nn::{Network, Sgd};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::Tensor;

/// One worker node: a model replica, a local SGD optimizer and a shuffled
/// batch iterator over the worker's data shard.
///
/// Workers are deliberately self-contained (own RNG, own shard) so that the
/// cluster can run their local-update phases on independent threads with
/// bit-identical results regardless of scheduling.
///
/// For compressed averaging each worker additionally keeps the
/// gradient-compression state that is local by construction: the
/// error-feedback residual memory ([`ErrorFeedback`]) and the *sync
/// reference* — the parameters the worker held right after the previous
/// averaging step, against which the transmitted model delta is formed.
/// The reference is only recorded while tracking is enabled
/// ([`Worker::set_reference_tracking`]), so full-precision runs never pay
/// the extra parameter copy.
#[derive(Debug, Clone)]
pub struct Worker {
    id: usize,
    model: Network,
    optimizer: Sgd,
    batches: BatchIter,
    rng: StdRng,
    /// RNG driving stochastic codecs (Random-K, QSGD). Separate from the
    /// batch RNG so enabling compression never perturbs the data order.
    comm_rng: StdRng,
    feedback: ErrorFeedback,
    /// Last post-averaging parameters as a flat plane; empty unless
    /// tracking is on.
    sync_reference: Vec<f32>,
    /// Reused buffer holding the model delta during encoding.
    delta_scratch: Vec<f32>,
    /// Reused buffer holding the error-compensated target during encoding.
    feedback_scratch: Vec<f32>,
    /// Reused mini-batch buffers for the per-step hot loop.
    batch_x: Tensor,
    batch_y: Vec<usize>,
    track_reference: bool,
    steps_taken: u64,
}

impl Worker {
    /// Creates a worker from a model replica and its data shard.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is empty or `batch_size == 0` (via [`BatchIter`]).
    pub fn new(
        id: usize,
        model: Network,
        optimizer: Sgd,
        shard: Dataset,
        batch_size: usize,
        seed: u64,
    ) -> Self {
        let batch_x = Tensor::zeros(&[batch_size, shard.feature_dim()]);
        Worker {
            id,
            model,
            optimizer,
            batches: BatchIter::new(shard, batch_size),
            batch_x,
            batch_y: Vec::with_capacity(batch_size),
            // Worker RNGs are decorrelated by id; the golden ratio constant
            // avoids accidental seed collisions between adjacent ids.
            rng: StdRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            comm_rng: StdRng::seed_from_u64(
                seed ^ (id as u64).wrapping_mul(0xC0DE_C0DE_C0DE_C0DF) ^ 0x6772_6164_636F_6D70,
            ),
            feedback: ErrorFeedback::new(),
            sync_reference: Vec::new(),
            delta_scratch: Vec::new(),
            feedback_scratch: Vec::new(),
            track_reference: false,
            steps_taken: 0,
        }
    }

    /// Worker id (0-based).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of local SGD steps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.steps_taken
    }

    /// Epochs completed over this worker's shard.
    pub fn epochs_completed(&self) -> usize {
        self.batches.epochs_completed()
    }

    /// Borrow the local model.
    pub fn model(&self) -> &Network {
        &self.model
    }

    /// Mutably borrow the local model (used by evaluation helpers).
    pub fn model_mut(&mut self) -> &mut Network {
        &mut self.model
    }

    /// Performs `count` local mini-batch SGD steps (eq. 2 applied locally),
    /// returning the mean training loss over those batches.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn local_steps(&mut self, count: usize) -> f32 {
        assert!(count > 0, "must take at least one local step");
        let mut total = 0.0f64;
        for _ in 0..count {
            // Reused batch buffers: the per-step loop allocates nothing.
            self.batches
                .next_batch_into(&mut self.rng, &mut self.batch_x, &mut self.batch_y);
            let loss = self.model.train_step(&self.batch_x, &self.batch_y);
            self.optimizer.step(&mut self.model);
            total += f64::from(loss);
            self.steps_taken += 1;
        }
        (total / count as f64) as f32
    }

    /// Updates the learning rate of the local optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive and finite.
    pub fn set_lr(&mut self, lr: f32) {
        self.optimizer.set_lr(lr);
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.optimizer.lr()
    }

    /// Clears the local momentum buffer (the paper's restart-at-sync rule
    /// for block momentum, Section 5.3.1).
    pub fn reset_momentum(&mut self) {
        self.optimizer.reset_momentum();
    }

    /// Snapshot of the local model parameters.
    pub fn params_snapshot(&self) -> Vec<Tensor> {
        self.model.params_snapshot()
    }

    /// Copies the local model parameters into the flat plane `out` — the
    /// allocation-free counterpart of [`Worker::params_snapshot`].
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the model's parameter count.
    pub fn copy_params_into(&self, out: &mut [f32]) {
        self.model.copy_params_into(out);
    }

    /// Adds the local model parameters into the flat plane `acc` — the
    /// accumulate half of full averaging (see
    /// [`nn::Network::add_params_to`]).
    ///
    /// # Panics
    ///
    /// Panics if `acc.len()` differs from the model's parameter count.
    pub fn add_params_to(&self, acc: &mut [f32]) {
        self.model.add_params_to(acc);
    }

    /// Overwrites the local model with `params` (the post-averaging
    /// broadcast). While reference tracking is enabled they are also
    /// recorded as the new sync reference for the next compressed round.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot does not match the model structure.
    pub fn load_params(&mut self, params: &[Tensor]) {
        self.model.load_params(params);
        if self.track_reference {
            self.sync_reference.resize(self.model.param_count(), 0.0);
            self.model.copy_params_into(&mut self.sync_reference);
        }
    }

    /// Overwrites the local model from the flat broadcast plane `plane`
    /// (the layout of [`Worker::copy_params_into`]), re-anchoring the sync
    /// reference when tracking is on — the cluster's zero-allocation
    /// broadcast path.
    ///
    /// # Panics
    ///
    /// Panics if `plane.len()` differs from the model's parameter count.
    pub fn load_params_from(&mut self, plane: &[f32]) {
        self.model.load_params_from(plane);
        if self.track_reference {
            self.sync_reference.resize(plane.len(), 0.0);
            self.sync_reference.copy_from_slice(plane);
        }
    }

    /// Turns sync-reference tracking on or off. Enabling snapshots the
    /// *current* parameters as the reference (callers do this at a
    /// synchronization point, where they equal the last broadcast);
    /// disabling drops the stored copy so full-precision runs hold no
    /// duplicate parameter set.
    pub fn set_reference_tracking(&mut self, on: bool) {
        if on && !self.track_reference {
            self.sync_reference = self.model.params_flat();
        } else if !on {
            self.sync_reference = Vec::new();
        }
        self.track_reference = on;
    }

    /// Encodes this worker's averaging message under `codec` into the flat
    /// plane `out`: the model delta since the last sync reference is
    /// compressed segment-by-segment (`segments` is the model's parameter
    /// layout, see [`nn::Network::param_sizes`]), and `out` receives the
    /// *reconstruction* the receivers would decode — `reference +
    /// transmitted`. Returns the encoded payload size in bytes.
    ///
    /// Biased codecs (Top-K, sign) go through the worker's error-feedback
    /// memory (whose compensated target is formed in a worker-owned
    /// scratch plane), which assumes the codec is norm-contractive;
    /// whatever is dropped is compensated on the next round. Unbiased
    /// codecs (Random-K, QSGD) are applied directly — their compensation
    /// is in expectation, and feeding their (non-contractive) error into
    /// the residual memory would make it oscillate.
    ///
    /// The encode reads and writes only this worker's state — model, sync
    /// reference, error-feedback residual, `comm_rng` and its own scratch
    /// planes — plus `out`, so the cluster encodes its participants in
    /// parallel and every bit is the same on any number of threads and in
    /// any completion order.
    ///
    /// The caller (the cluster) mixes the reconstructions and broadcasts
    /// the result back via [`Worker::load_params_from`], which re-anchors
    /// the reference. In steady state this path allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if reference tracking is not enabled (see
    /// [`Worker::set_reference_tracking`]) or the plane lengths disagree.
    pub fn encode_update_into(
        &mut self,
        codec: &dyn Compressor,
        segments: &[usize],
        out: &mut [f32],
    ) -> usize {
        assert!(
            self.track_reference,
            "encode_update requires sync-reference tracking; \
             call set_reference_tracking(true) at a synchronization point first"
        );
        let n = self.sync_reference.len();
        assert_eq!(out.len(), n, "message plane length mismatch");
        self.delta_scratch.resize(n, 0.0);
        self.model.copy_params_into(&mut self.delta_scratch);
        for (d, &r) in self.delta_scratch.iter_mut().zip(&self.sync_reference) {
            *d -= r;
        }
        let bytes = if codec.is_unbiased() {
            let mut bytes = 0usize;
            let mut offset = 0usize;
            for &len in segments {
                bytes += codec.compress_slice(
                    &self.delta_scratch[offset..offset + len],
                    &mut out[offset..offset + len],
                    &mut self.comm_rng,
                );
                offset += len;
            }
            assert_eq!(offset, n, "segments must cover the parameter plane");
            bytes
        } else {
            self.feedback_scratch.resize(n, 0.0);
            self.feedback.compress_flat(
                codec,
                &self.delta_scratch,
                segments,
                &mut self.feedback_scratch,
                out,
                &mut self.comm_rng,
            )
        };
        // Build the reconstruction in the transmitted plane (sent +
        // reference) rather than copying the reference again.
        for (o, &r) in out.iter_mut().zip(&self.sync_reference) {
            *o += r;
        }
        bytes
    }

    /// Tensor-based convenience around [`Worker::encode_update_into`]
    /// (used by tests and diagnostics; the cluster uses the flat entry
    /// point).
    ///
    /// # Panics
    ///
    /// Panics if reference tracking is not enabled.
    pub fn encode_update(&mut self, codec: &dyn Compressor) -> (Vec<Tensor>, usize) {
        let segments = self.model.param_sizes();
        let n: usize = segments.iter().sum();
        let mut out = vec![0.0f32; n];
        let bytes = self.encode_update_into(codec, &segments, &mut out);
        let shapes: Vec<Vec<usize>> = self
            .model
            .params_snapshot()
            .iter()
            .map(|t| t.dims().to_vec())
            .collect();
        let mut sent = Vec::with_capacity(shapes.len());
        let mut offset = 0usize;
        for dims in shapes {
            let len: usize = dims.iter().product();
            sent.push(
                Tensor::from_vec(out[offset..offset + len].to_vec(), &dims)
                    .expect("segment matches tensor shape"),
            );
            offset += len;
        }
        (sent, bytes)
    }

    /// Total `ℓ2` norm of the error-feedback residual (0 when compression
    /// has not run or the codec is lossless).
    pub fn residual_norm(&self) -> f32 {
        self.feedback.residual_norm()
    }

    /// Drops the error-feedback residuals (e.g. when the codec family
    /// changes mid-run).
    pub fn reset_feedback(&mut self) {
        self.feedback.reset();
    }

    /// Captures the worker's complete training state for a run checkpoint:
    /// parameters, momentum buffers, both RNG streams, the batch-shuffle
    /// state, error-feedback residuals and the sync reference.
    pub fn export_checkpoint(&self) -> WorkerCheckpoint {
        let (order, cursor, epochs) = self.batches.shuffle_state();
        WorkerCheckpoint {
            params: self.model.params_flat(),
            momentum_buffers: self.optimizer.momentum_buffers().to_vec(),
            rng: self.rng.state(),
            comm_rng: self.comm_rng.state(),
            steps_taken: self.steps_taken,
            shuffle_order: order.to_vec(),
            shuffle_cursor: cursor,
            epochs_completed: epochs,
            feedback: self.feedback.clone(),
            sync_reference: self.sync_reference.clone(),
            track_reference: self.track_reference,
        }
    }

    /// Restores state captured by [`Worker::export_checkpoint`], making the
    /// worker continue bit-identically to the uninterrupted run.
    ///
    /// Every structural property is validated against *this* worker's model
    /// and shard before anything is applied: parameter-plane and
    /// sync-reference lengths, momentum-buffer shapes, the error-feedback
    /// segment layout, and the shuffle permutation. A checkpoint that fails
    /// any check returns `Err` with the worker untouched — corrupted or
    /// mismatched checkpoints degrade to recompute, never a panic.
    pub fn restore_checkpoint(&mut self, ck: &WorkerCheckpoint) -> Result<(), String> {
        let n = self.model.param_count();
        if ck.params.len() != n {
            return Err(format!(
                "parameter plane of {} entries for a model of {n}",
                ck.params.len()
            ));
        }
        if !ck.momentum_buffers.is_empty() {
            let shapes = self.model.params_snapshot();
            if ck.momentum_buffers.len() != shapes.len() {
                return Err(format!(
                    "{} momentum buffers for {} parameter tensors",
                    ck.momentum_buffers.len(),
                    shapes.len()
                ));
            }
            for (buf, p) in ck.momentum_buffers.iter().zip(&shapes) {
                if buf.dims() != p.dims() {
                    return Err(format!(
                        "momentum buffer shape {:?} does not match parameter {:?}",
                        buf.dims(),
                        p.dims()
                    ));
                }
            }
        }
        if ck.track_reference {
            if ck.sync_reference.len() != n {
                return Err(format!(
                    "sync reference of {} entries for a model of {n}",
                    ck.sync_reference.len()
                ));
            }
        } else if !ck.sync_reference.is_empty() {
            return Err("sync reference recorded without tracking".to_string());
        }
        if !ck.feedback.is_empty() && ck.feedback.segments() != self.model.param_sizes() {
            return Err("error-feedback segment layout does not match the model".to_string());
        }
        // Fallible mutation first: the batch iterator validates and leaves
        // itself untouched on rejection, so a failure here still leaves the
        // whole worker unmodified.
        self.batches.restore_shuffle_state(
            ck.shuffle_order.clone(),
            ck.shuffle_cursor,
            ck.epochs_completed,
        )?;
        self.model.load_params_from(&ck.params);
        self.optimizer
            .restore_momentum_buffers(ck.momentum_buffers.clone());
        self.rng = StdRng::from_state(ck.rng);
        self.comm_rng = StdRng::from_state(ck.comm_rng);
        self.steps_taken = ck.steps_taken;
        self.feedback = ck.feedback.clone();
        // Assign the reference directly rather than via
        // set_reference_tracking: the checkpointed reference is the last
        // *broadcast*, which mid-restore need not equal the current params.
        self.sync_reference = ck.sync_reference.clone();
        self.track_reference = ck.track_reference;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use data::GaussianMixture;
    use nn::models;

    fn toy_worker(id: usize, seed: u64) -> Worker {
        let split = GaussianMixture::small_test().generate(7);
        Worker::new(
            id,
            models::mlp_classifier(8, &[16], 3, 42),
            Sgd::new(0.05),
            split.train,
            8,
            seed,
        )
    }

    #[test]
    fn local_steps_advance_the_model() {
        let mut w = toy_worker(0, 1);
        let before = w.params_snapshot();
        let loss = w.local_steps(5);
        assert!(loss > 0.0 && loss.is_finite());
        assert_eq!(w.steps_taken(), 5);
        let after = w.params_snapshot();
        assert_ne!(before, after);
    }

    #[test]
    fn workers_with_same_seed_and_id_are_identical() {
        let mut a = toy_worker(0, 1);
        let mut b = toy_worker(0, 1);
        let la = a.local_steps(3);
        let lb = b.local_steps(3);
        assert_eq!(la, lb);
        assert_eq!(a.params_snapshot(), b.params_snapshot());
    }

    #[test]
    fn workers_with_different_ids_diverge() {
        // Same model init, same shard, but decorrelated batch order.
        let mut a = toy_worker(0, 1);
        let mut b = toy_worker(1, 1);
        a.local_steps(3);
        b.local_steps(3);
        assert_ne!(a.params_snapshot(), b.params_snapshot());
    }

    #[test]
    fn load_params_synchronises() {
        let mut a = toy_worker(0, 1);
        let mut b = toy_worker(1, 1);
        a.local_steps(2);
        b.load_params(&a.params_snapshot());
        assert_eq!(a.params_snapshot(), b.params_snapshot());
    }

    #[test]
    fn set_lr_propagates() {
        let mut w = toy_worker(0, 2);
        w.set_lr(0.5);
        assert_eq!(w.lr(), 0.5);
    }

    #[test]
    fn identity_encoding_is_lossless() {
        let mut w = toy_worker(0, 4);
        w.set_reference_tracking(true);
        w.local_steps(3);
        let snapshot = w.params_snapshot();
        let (reconstruction, bytes) = w.encode_update(&gradcomp::Identity);
        // reference + (x − reference) re-associates float additions, so
        // compare up to rounding noise.
        let drift: f32 = reconstruction
            .iter()
            .zip(snapshot.iter())
            .map(|(a, b)| a.distance(b))
            .sum();
        assert!(drift < 1e-6, "identity roundtrip drifted by {drift}");
        let total: usize = snapshot.iter().map(|t| t.len() * 4).sum();
        assert_eq!(bytes, total);
        assert_eq!(w.residual_norm(), 0.0);
    }

    #[test]
    fn biased_encoding_leaves_residual_and_shrinks_payload() {
        let mut w = toy_worker(0, 5);
        w.set_reference_tracking(true);
        w.local_steps(3);
        let snapshot = w.params_snapshot();
        let full: usize = snapshot.iter().map(|t| t.len() * 4).sum();
        let (reconstruction, bytes) = w.encode_update(&gradcomp::TopK::new(0.05));
        assert!(bytes < full / 5, "payload {bytes} vs full {full}");
        assert_ne!(reconstruction, snapshot);
        assert!(w.residual_norm() > 0.0);
        // Re-anchoring at the reconstruction then encoding a zero delta
        // flushes residual mass, not nothing.
        w.load_params(&reconstruction);
        let (flushed, _) = w.encode_update(&gradcomp::TopK::new(0.05));
        assert_ne!(flushed, reconstruction);
    }

    #[test]
    fn reset_feedback_clears_residual() {
        let mut w = toy_worker(0, 6);
        w.set_reference_tracking(true);
        w.local_steps(2);
        let _ = w.encode_update(&gradcomp::SignOneBit);
        assert!(w.residual_norm() > 0.0);
        w.reset_feedback();
        assert_eq!(w.residual_norm(), 0.0);
    }

    #[test]
    #[should_panic(expected = "requires sync-reference tracking")]
    fn encode_without_tracking_rejected() {
        let mut w = toy_worker(0, 7);
        w.local_steps(1);
        let _ = w.encode_update(&gradcomp::Identity);
    }

    #[test]
    fn training_reduces_loss_over_time() {
        let mut w = toy_worker(0, 3);
        let early = w.local_steps(5);
        for _ in 0..20 {
            w.local_steps(5);
        }
        let late = w.local_steps(5);
        assert!(
            late < early,
            "loss should drop on an easy task: {early} -> {late}"
        );
    }
}
