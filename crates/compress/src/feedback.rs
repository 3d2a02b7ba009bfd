//! Error-feedback residual memory (Seide et al., 2014; Stich et al., 2018).
//!
//! Biased codecs (Top-K, sign) drop part of every update; error feedback
//! keeps the dropped part locally and adds it back before the next
//! compression, so the bias cancels over rounds and convergence is
//! restored.
//!
//! The memory is stored as one contiguous flat plane segmented like the
//! model's parameter plane, so the simulator's flat averaging path runs
//! compensation without any per-round allocation
//! ([`ErrorFeedback::compress_flat`]).

use crate::codec::Compressor;
use binio::{ByteReader, ByteWriter, ReadError, ReadResult};
use rand::rngs::StdRng;

/// Per-worker residual memory: one flat residual plane, segmented per
/// parameter tensor (codecs are applied segment by segment).
///
/// The memory is lazily shaped on first use and validates the segment
/// layout on every subsequent round.
///
/// # Example
///
/// ```
/// use gradcomp::{ErrorFeedback, TopK};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut ef = ErrorFeedback::new();
/// let mut rng = StdRng::seed_from_u64(0);
/// let update = [1.0, -0.1, 0.2, 3.0];
/// let (mut scratch, mut sent) = ([0.0; 4], [0.0; 4]);
/// let codec = TopK::new(0.25);
/// let bytes = ef.compress_flat(&codec, &update, &[4], &mut scratch, &mut sent, &mut rng);
/// // Only the largest entry went through; the rest is remembered.
/// assert_eq!(sent, [0.0, 0.0, 0.0, 3.0]);
/// assert!(bytes < 16);
/// assert!(ef.residual_norm() > 0.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ErrorFeedback {
    residual: Vec<f32>,
    segments: Vec<usize>,
}

impl ErrorFeedback {
    /// Creates an empty residual memory.
    pub fn new() -> Self {
        ErrorFeedback::default()
    }

    /// Flat-plane compression with error feedback — the simulator's
    /// allocation-free entry point.
    ///
    /// `update` is the flat concatenation of per-tensor segments
    /// (`segments` lists their lengths, summing to `update.len()`). Each
    /// segment is compensated with its stored residual (the target
    /// `update + residual` is formed in `scratch`), compressed with
    /// `codec`, and the reconstruction written into `out`; the new
    /// residual is whatever the codec dropped. Returns the total payload
    /// bytes.
    ///
    /// # Panics
    ///
    /// Panics if the segment layout differs from the previous round, the
    /// segment lengths do not sum to `update.len()`, or the buffer lengths
    /// disagree.
    pub fn compress_flat(
        &mut self,
        codec: &dyn Compressor,
        update: &[f32],
        segments: &[usize],
        scratch: &mut [f32],
        out: &mut [f32],
        rng: &mut StdRng,
    ) -> usize {
        assert_eq!(
            segments.iter().sum::<usize>(),
            update.len(),
            "segment lengths must sum to the plane length"
        );
        assert_eq!(scratch.len(), update.len(), "scratch plane length mismatch");
        assert_eq!(out.len(), update.len(), "output plane length mismatch");
        if self.residual.is_empty() {
            self.residual = vec![0.0f32; update.len()];
            self.segments = segments.to_vec();
        }
        assert_eq!(
            self.segments.len(),
            segments.len(),
            "error-feedback memory holds {} tensors but the update has {}",
            self.segments.len(),
            segments.len()
        );
        assert_eq!(
            self.segments, segments,
            "error-feedback segment layout changed between rounds"
        );
        let mut bytes = 0usize;
        let mut offset = 0usize;
        for &len in segments {
            let range = offset..offset + len;
            let residual = &mut self.residual[range.clone()];
            let target = &mut scratch[range.clone()];
            // target = update + residual (the compensated message).
            for ((t, &u), &r) in target
                .iter_mut()
                .zip(&update[range.clone()])
                .zip(residual.iter())
            {
                *t = u + r;
            }
            bytes += codec.compress_slice(target, &mut out[range], rng);
            // residual = target - transmitted.
            for ((r, &t), &sent) in residual
                .iter_mut()
                .zip(target.iter())
                .zip(out[offset..offset + len].iter())
            {
                *r = t - sent;
            }
            offset += len;
        }
        bytes
    }

    /// Total `ℓ2` norm of the stored residual plane (0 before the first
    /// round).
    pub fn residual_norm(&self) -> f32 {
        self.residual.iter().map(|r| r * r).sum::<f32>().sqrt()
    }

    /// Drops the stored residuals (e.g. when the codec changes family).
    pub fn reset(&mut self) {
        self.residual.clear();
        self.segments.clear();
    }

    /// Whether any residual is stored yet.
    pub fn is_empty(&self) -> bool {
        self.residual.is_empty()
    }

    /// The per-tensor segment layout the residual was recorded under
    /// (empty until the first compressed round) — lets a checkpoint
    /// restore confirm the memory still matches the model's layout.
    pub fn segments(&self) -> &[usize] {
        &self.segments
    }

    /// Appends the residual memory as a binary state frame (segment map
    /// followed by the raw-bit residual plane) — used by run checkpoints.
    pub fn write_state(&self, w: &mut ByteWriter) {
        w.put_len_slice(&self.segments);
        w.put_f32_slice(&self.residual);
    }

    /// Reads a state frame written by [`ErrorFeedback::write_state`],
    /// validating that the segment lengths sum to the residual length.
    pub fn read_state(r: &mut ByteReader<'_>) -> ReadResult<ErrorFeedback> {
        let segments = r.len_vec()?;
        let residual = r.f32_vec()?;
        let mut total = 0usize;
        for &s in &segments {
            total = total.checked_add(s).ok_or(ReadError::BadLength(s as u64))?;
        }
        if total != residual.len() {
            return Err(ReadError::BadLength(residual.len() as u64));
        }
        Ok(ErrorFeedback { residual, segments })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Identity, SignOneBit, TopK};
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    /// One compensated round of `update` (laid out as `segments`) on a
    /// fresh `rng()`: the transmitted plane and the payload bytes.
    fn send(
        ef: &mut ErrorFeedback,
        codec: &dyn Compressor,
        update: &[f32],
        segments: &[usize],
    ) -> (Vec<f32>, usize) {
        let mut scratch = vec![0.0f32; update.len()];
        let mut out = vec![0.0f32; update.len()];
        let bytes = ef.compress_flat(codec, update, segments, &mut scratch, &mut out, &mut rng());
        (out, bytes)
    }

    #[test]
    fn identity_codec_leaves_no_residual() {
        let mut ef = ErrorFeedback::new();
        let update = [1.0, -2.0, 3.0];
        let (sent, bytes) = send(&mut ef, &Identity, &update, &[3]);
        assert_eq!(sent, update);
        assert_eq!(bytes, 12);
        assert_eq!(ef.residual_norm(), 0.0);
    }

    #[test]
    fn dropped_mass_is_remembered_and_resent() {
        let mut ef = ErrorFeedback::new();
        let codec = TopK::new(0.25); // keeps 1 of 4 entries
        let (sent, _) = send(&mut ef, &codec, &[1.0, 0.5, 0.25, 4.0], &[4]);
        assert_eq!(sent, [0.0, 0.0, 0.0, 4.0]);
        // Next round sends a zero update; the residual alone drives what is
        // transmitted, and its largest entry (1.0) goes through.
        let (sent2, _) = send(&mut ef, &codec, &[0.0; 4], &[4]);
        assert_eq!(sent2, [1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn residuals_sum_with_updates() {
        // Transmitted-plus-residual always equals update-plus-old-residual:
        // nothing is lost, only delayed.
        let mut ef = ErrorFeedback::new();
        let codec = SignOneBit;
        for step in 0..5 {
            let update = [0.3 * step as f32, -1.0, 2.0 - step as f32];
            let before = if ef.is_empty() {
                vec![0.0f32; 3]
            } else {
                ef.residual.clone()
            };
            let (sent, _) = send(&mut ef, &codec, &update, &[3]);
            for (i, &b) in before.iter().enumerate() {
                let total = update[i] + b;
                let roundtrip = sent[i] + ef.residual[i];
                assert_eq!(roundtrip, total, "mass lost at entry {i}");
            }
        }
    }

    #[test]
    fn reset_clears_memory() {
        let mut ef = ErrorFeedback::new();
        let _ = send(&mut ef, &TopK::new(0.5), &[1.0, 2.0], &[2]);
        assert!(!ef.is_empty());
        ef.reset();
        assert!(ef.is_empty());
        assert_eq!(ef.residual_norm(), 0.0);
    }

    #[test]
    #[should_panic(expected = "error-feedback memory holds")]
    fn tensor_count_mismatch_rejected() {
        let mut ef = ErrorFeedback::new();
        let _ = send(&mut ef, &Identity, &[0.0; 2], &[2]);
        let _ = send(&mut ef, &Identity, &[0.0; 4], &[2, 2]);
    }

    #[test]
    #[should_panic(expected = "segment layout changed")]
    fn segment_reshape_rejected() {
        let mut ef = ErrorFeedback::new();
        let mut scratch = vec![0.0f32; 4];
        let mut out = vec![0.0f32; 4];
        let _ = ef.compress_flat(
            &Identity,
            &[1.0, 2.0, 3.0, 4.0],
            &[2, 2],
            &mut scratch,
            &mut out,
            &mut rng(),
        );
        let _ = ef.compress_flat(
            &Identity,
            &[1.0, 2.0, 3.0, 4.0],
            &[3, 1],
            &mut scratch,
            &mut out,
            &mut rng(),
        );
    }
}
