//! A single PASGD worker: local model replica, optimizer, data shard, and
//! per-worker gradient-compression state (error feedback + sync reference).

use crate::checkpoint::WorkerCheckpoint;
use data::{BatchIter, Dataset};
use gradcomp::{Compressor, ErrorFeedback};
use nn::{Layer, Network, Sgd};
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

    /// Copies the local model parameters into the flat plane `out`.
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
            "encode_update_into requires sync-reference tracking; \
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
            // Dims are read in place: the visitor walks the parameters in
            // buffer order and keeps the first mismatch.
            let (mut tensors, mut mismatch) = (0, None);
            self.model.stack().visit_params(&mut |p| {
                if let Some(buf) = ck.momentum_buffers.get(tensors) {
                    if mismatch.is_none() && buf.dims() != p.dims() {
                        mismatch = Some(format!(
                            "momentum buffer shape {:?} does not match parameter {:?}",
                            buf.dims(),
                            p.dims()
                        ));
                    }
                }
                tensors += 1;
            });
            if ck.momentum_buffers.len() != tensors {
                return Err(format!(
                    "{} momentum buffers for {tensors} parameter tensors",
                    ck.momentum_buffers.len()
                ));
            }
            if let Some(err) = mismatch {
                return Err(err);
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
    use binio::{fnv1a64, ByteWriter};
    use data::GaussianMixture;
    use gradcomp::CodecSpec;
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

    /// One encode of the worker's update into a fresh plane: the
    /// reconstruction and the payload bytes.
    fn encode(w: &mut Worker, codec: &dyn Compressor) -> (Vec<f32>, usize) {
        let segments = w.model().param_sizes();
        let mut out = vec![0.0f32; w.model().param_count()];
        let bytes = w.encode_update_into(codec, &segments, &mut out);
        (out, bytes)
    }

    #[test]
    fn local_steps_advance_the_model() {
        let mut w = toy_worker(0, 1);
        let before = w.model().params_flat();
        let loss = w.local_steps(5);
        assert!(loss > 0.0 && loss.is_finite());
        assert_eq!(w.steps_taken(), 5);
        let after = w.model().params_flat();
        assert_ne!(before, after);
    }

    #[test]
    fn workers_with_same_seed_and_id_are_identical() {
        let mut a = toy_worker(0, 1);
        let mut b = toy_worker(0, 1);
        let la = a.local_steps(3);
        let lb = b.local_steps(3);
        assert_eq!(la, lb);
        assert_eq!(a.model().params_flat(), b.model().params_flat());
    }

    #[test]
    fn workers_with_different_ids_diverge() {
        // Same model init, same shard, but decorrelated batch order.
        let mut a = toy_worker(0, 1);
        let mut b = toy_worker(1, 1);
        a.local_steps(3);
        b.local_steps(3);
        assert_ne!(a.model().params_flat(), b.model().params_flat());
    }

    #[test]
    fn load_params_synchronises() {
        let mut a = toy_worker(0, 1);
        let mut b = toy_worker(1, 1);
        a.local_steps(2);
        b.load_params_from(&a.model().params_flat());
        assert_eq!(a.model().params_flat(), b.model().params_flat());
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
        let params = w.model().params_flat();
        let (reconstruction, bytes) = encode(&mut w, &gradcomp::Identity);
        // reference + (x − reference) re-associates float additions, so
        // compare up to rounding noise: the summed per-tensor distance.
        let mut offset = 0;
        let drift: f32 = w
            .model()
            .param_sizes()
            .iter()
            .map(|&len| {
                let seg = offset..offset + len;
                offset += len;
                reconstruction[seg.clone()]
                    .iter()
                    .zip(&params[seg])
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f32>()
                    .sqrt()
            })
            .sum();
        assert!(drift < 1e-6, "identity roundtrip drifted by {drift}");
        assert_eq!(bytes, params.len() * 4);
        assert_eq!(w.residual_norm(), 0.0);
    }

    #[test]
    fn biased_encoding_leaves_residual_and_shrinks_payload() {
        let mut w = toy_worker(0, 5);
        w.set_reference_tracking(true);
        w.local_steps(3);
        let params = w.model().params_flat();
        let full = params.len() * 4;
        let (reconstruction, bytes) = encode(&mut w, &gradcomp::TopK::new(0.05));
        assert!(bytes < full / 5, "payload {bytes} vs full {full}");
        assert_ne!(reconstruction, params);
        assert!(w.residual_norm() > 0.0);
        // Re-anchoring at the reconstruction then encoding a zero delta
        // flushes residual mass, not nothing.
        w.load_params_from(&reconstruction);
        let (flushed, _) = encode(&mut w, &gradcomp::TopK::new(0.05));
        assert_ne!(flushed, reconstruction);
    }

    #[test]
    fn reset_feedback_clears_residual() {
        let mut w = toy_worker(0, 6);
        w.set_reference_tracking(true);
        w.local_steps(2);
        let _ = encode(&mut w, &gradcomp::SignOneBit);
        assert!(w.residual_norm() > 0.0);
        w.reset_feedback();
        assert_eq!(w.residual_norm(), 0.0);
    }

    #[test]
    #[should_panic(expected = "requires sync-reference tracking")]
    fn encode_without_tracking_rejected() {
        let mut w = toy_worker(0, 7);
        w.local_steps(1);
        let _ = encode(&mut w, &gradcomp::Identity);
    }

    /// One encode round as bits: FNV-1a of the message plane and of the
    /// error-feedback state (segment map + residual plane), the payload
    /// bytes, and FNV-1a of the `comm_rng` state afterwards.
    type EncodePin = (u64, u64, usize, u64);

    fn encode_rounds(codec: CodecSpec) -> Vec<EncodePin> {
        let split = GaussianMixture {
            train_size: 512,
            test_size: 32,
            ..GaussianMixture::cifar100_like()
        }
        .generate(21);
        let mut w = Worker::new(
            1,
            models::mlp_classifier(256, &[64], 100, 77),
            Sgd::new(0.05),
            split.train,
            32,
            9,
        );
        w.set_reference_tracking(true);
        let segments = w.model().param_sizes();
        let mut plane = vec![0.0f32; w.model().param_count()];
        (0..3)
            .map(|_| {
                w.local_steps(2);
                let bytes = w.encode_update_into(&codec, &segments, &mut plane);
                let mut sent = ByteWriter::new();
                sent.put_f32_slice(&plane);
                let mut residual = ByteWriter::new();
                w.feedback.write_state(&mut residual);
                let mut rng = ByteWriter::new();
                for word in w.comm_rng.state() {
                    rng.put_u64(word);
                }
                let pin = (
                    fnv1a64(sent.as_slice()),
                    fnv1a64(residual.as_slice()),
                    bytes,
                    fnv1a64(&rng.into_vec()),
                );
                w.load_params_from(&plane);
                pin
            })
            .collect()
    }

    #[test]
    fn encode_rounds_are_pinned_bitwise() {
        // Three rounds of the worker's encode path on the 256-64-100 MLP
        // (22 948 parameters in four segments), for each codec family the
        // simulator runs. Any drift in a codec kernel's values, the
        // error-feedback bookkeeping or the `comm_rng` draw order changes a
        // hash here, before averaging can hide it in a whole-run trace.
        // The plane holds reference + transmitted, which folds a `-0.0`
        // codec output into `+0.0`; gradcomp's
        // `fused_codecs_match_kernel_pipeline` pins the sign of zeros.
        let cases: [(CodecSpec, [EncodePin; 3]); 4] = [
            (
                CodecSpec::TopK { ratio: 0.01 },
                [
                    (
                        0x61d9585f7fd6f9d5,
                        0xf189d763c8a28dea,
                        1840,
                        0xce32936bd3f9ceb1,
                    ),
                    (
                        0xba7abdf8551cfd5e,
                        0xef13926d6b16069d,
                        1840,
                        0xce32936bd3f9ceb1,
                    ),
                    (
                        0xc50f348250992c02,
                        0x733b70d008e96fd2,
                        1840,
                        0xce32936bd3f9ceb1,
                    ),
                ],
            ),
            (
                CodecSpec::Sign,
                [
                    (
                        0x12bdb8c53421a75b,
                        0x4d0530c066af234d,
                        2885,
                        0xce32936bd3f9ceb1,
                    ),
                    (
                        0xc2c21ecbe68455cf,
                        0xbcb350d7a3647a93,
                        2885,
                        0xce32936bd3f9ceb1,
                    ),
                    (
                        0xa20b8355ea718145,
                        0xea6ed8e4e6a512bc,
                        2885,
                        0xce32936bd3f9ceb1,
                    ),
                ],
            ),
            (
                CodecSpec::Qsgd { bits: 4 },
                [
                    (
                        0xf1cc35a3ad9f405b,
                        0x88201fb960ff6465,
                        14531,
                        0xb2356b58a0e8fd3c,
                    ),
                    (
                        0x42b367746fabdf7a,
                        0x88201fb960ff6465,
                        14531,
                        0x535c4f113df2d806,
                    ),
                    (
                        0xc52f73290afbb891,
                        0x88201fb960ff6465,
                        14531,
                        0x0ab04034beda1107,
                    ),
                ],
            ),
            (
                CodecSpec::RandomK { ratio: 0.05 },
                [
                    (
                        0x466abb3c6085b9ce,
                        0x88201fb960ff6465,
                        9192,
                        0x16ca954764937a70,
                    ),
                    (
                        0xe22b2da031ccc77e,
                        0x88201fb960ff6465,
                        9192,
                        0xd6f0b964985e1f57,
                    ),
                    (
                        0x5221927375ff3def,
                        0x88201fb960ff6465,
                        9192,
                        0x35fb67357072db7a,
                    ),
                ],
            ),
        ];
        for (codec, expected) in cases {
            assert_eq!(
                encode_rounds(codec),
                expected,
                "{} encode drifted",
                codec.name()
            );
        }
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

    /// A momentum worker after a few steps, so its checkpoint carries one
    /// momentum buffer per parameter tensor.
    fn momentum_worker() -> Worker {
        let split = GaussianMixture::small_test().generate(7);
        let model = models::mlp_classifier(8, &[16], 3, 42);
        let opt = Sgd::new(0.05).with_momentum(0.9);
        let mut w = Worker::new(0, model, opt, split.train, 8, 1);
        w.local_steps(2);
        w
    }

    /// Restores `ck` into a worker that has moved on, and checks that the
    /// rejection left that worker exactly as it was.
    fn rejected_restore(ck: &WorkerCheckpoint) -> String {
        let mut w = momentum_worker();
        w.local_steps(1);
        let before = w.export_checkpoint();
        let err = w.restore_checkpoint(ck).unwrap_err();
        let after = w.export_checkpoint();
        assert_eq!(after.params, before.params, "rejection moved the model");
        assert_eq!(after.momentum_buffers, before.momentum_buffers);
        assert_eq!(after.steps_taken, before.steps_taken);
        err
    }

    #[test]
    fn restore_rejects_a_wrong_momentum_buffer_count() {
        let mut ck = momentum_worker().export_checkpoint();
        assert_eq!(ck.momentum_buffers.len(), 4);
        ck.momentum_buffers.pop();
        assert_eq!(
            rejected_restore(&ck),
            "3 momentum buffers for 4 parameter tensors"
        );
    }

    #[test]
    fn restore_rejects_a_wrong_momentum_buffer_shape() {
        let mut ck = momentum_worker().export_checkpoint();
        // Same length, other shape: the first weight [8, 16] seen as [16, 8].
        ck.momentum_buffers[0] = Tensor::zeros(&[16, 8]);
        assert_eq!(
            rejected_restore(&ck),
            "momentum buffer shape [16, 8] does not match parameter [8, 16]"
        );
    }
}
