//! Property-based tests for the compression codecs: unbiasedness of the
//! stochastic codecs, contraction/idempotence of Top-K, and boundedness of
//! the error-feedback residual.

use gradcomp::{Compressor, ErrorFeedback, Qsgd, RandomK, SignOneBit, TopK};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A strategy for small non-degenerate input vectors.
fn vector() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-4.0f32..4.0, 4..24)
}

/// One encode of `x`: the reconstruction and the payload bytes.
fn compress(codec: &dyn Compressor, x: &[f32], rng: &mut StdRng) -> (Vec<f32>, usize) {
    let mut out = vec![0.0f32; x.len()];
    let bytes = codec.compress_slice(x, &mut out, rng);
    (out, bytes)
}

/// One error-feedback round of a single-segment `update`.
fn compensated(ef: &mut ErrorFeedback, codec: &dyn Compressor, update: &[f32], rng: &mut StdRng) {
    let mut scratch = vec![0.0f32; update.len()];
    let mut out = vec![0.0f32; update.len()];
    let _ = ef.compress_flat(codec, update, &[update.len()], &mut scratch, &mut out, rng);
}

fn norm(v: &[f32]) -> f64 {
    v.iter()
        .map(|&x| f64::from(x) * f64::from(x))
        .sum::<f64>()
        .sqrt()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_k_is_unbiased_in_expectation(values in vector(), seed in 0u64..1000) {
        let codec = RandomK::new(0.5);
        let mut rng = StdRng::seed_from_u64(seed);
        let rounds = 4000usize;
        let mut mean = vec![0.0f64; values.len()];
        for _ in 0..rounds {
            let (out, _) = compress(&codec, &values, &mut rng);
            for (m, v) in mean.iter_mut().zip(&out) {
                *m += f64::from(*v);
            }
        }
        let scale_bound = norm(&values).max(1.0);
        for (m, v) in mean.iter().zip(values.iter()) {
            let avg = m / rounds as f64;
            // Monte-Carlo tolerance: the per-entry estimator has variance
            // ~|x_i|^2/rounds after the n/k scaling.
            prop_assert!(
                (avg - f64::from(*v)).abs() < 0.15 * scale_bound,
                "biased reconstruction: {avg} vs {v}"
            );
        }
    }

    #[test]
    fn qsgd_is_unbiased_in_expectation(values in vector(), seed in 0u64..1000) {
        let codec = Qsgd::new(2);
        let mut rng = StdRng::seed_from_u64(seed);
        let rounds = 4000usize;
        let mut mean = vec![0.0f64; values.len()];
        for _ in 0..rounds {
            let (out, _) = compress(&codec, &values, &mut rng);
            for (m, v) in mean.iter_mut().zip(&out) {
                *m += f64::from(*v);
            }
        }
        let scale_bound = norm(&values).max(1.0);
        for (m, v) in mean.iter().zip(values.iter()) {
            let avg = m / rounds as f64;
            prop_assert!(
                (avg - f64::from(*v)).abs() < 0.1 * scale_bound,
                "biased quantization: {avg} vs {v}"
            );
        }
    }

    #[test]
    fn top_k_is_idempotent(values in vector(), ratio in 0.05f64..1.0) {
        let codec = TopK::new(ratio);
        let mut rng = StdRng::seed_from_u64(0);
        let (once, _) = compress(&codec, &values, &mut rng);
        let (twice, _) = compress(&codec, &once, &mut rng);
        prop_assert_eq!(
            &once,
            &twice,
            "compressing a Top-K output again must be a no-op"
        );
    }

    #[test]
    fn top_k_is_norm_contractive(values in vector(), ratio in 0.05f64..1.0) {
        let codec = TopK::new(ratio);
        let mut rng = StdRng::seed_from_u64(1);
        let (out, _) = compress(&codec, &values, &mut rng);
        let out_norm = norm(&out);
        let in_norm = norm(&values);
        prop_assert!(
            out_norm <= in_norm * (1.0 + 1e-6),
            "Top-K must not grow the norm: {out_norm} > {in_norm}"
        );
        // And the dropped part is no larger than the input either.
        let residual: Vec<f32> = values
            .iter()
            .zip(&out)
            .map(|(a, b)| a - b)
            .collect();
        prop_assert!(norm(&residual) <= in_norm * (1.0 + 1e-6));
    }

    #[test]
    fn error_feedback_residual_stays_bounded(
        values in vector(),
        ratio in 0.1f64..0.9,
        seed in 0u64..1000,
    ) {
        // Feed the same bounded update for many rounds; for a contractive
        // codec with factor (1 - delta), the residual norm is bounded by
        // (1 - delta)/delta * max update norm, so it must not blow up.
        let codec = TopK::new(ratio);
        let update_norm = norm(&values);
        let mut ef = ErrorFeedback::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut peak = 0.0f64;
        for _ in 0..60 {
            compensated(&mut ef, &codec, &values, &mut rng);
            peak = peak.max(f64::from(ef.residual_norm()));
        }
        // delta >= ratio/2 for Top-K (k = ceil(ratio n) of n entries), so
        // a generous uniform bound is 2 (1/ratio) * update norm + slack.
        let bound = 2.0 / ratio * update_norm + 1e-3;
        prop_assert!(
            peak <= bound,
            "residual {peak} exceeded bound {bound} (ratio {ratio})"
        );
    }

    #[test]
    fn sign_error_feedback_residual_stays_bounded(values in vector(), seed in 0u64..1000) {
        let update_norm = norm(&values).max(1e-6);
        let mut ef = ErrorFeedback::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut peak = 0.0f64;
        for _ in 0..60 {
            compensated(&mut ef, &SignOneBit, &values, &mut rng);
            peak = peak.max(f64::from(ef.residual_norm()));
        }
        // Sign compression with the mean-|x| scale is crude, but its EF
        // residual still stays within a small constant of the update norm.
        prop_assert!(
            peak <= 8.0 * update_norm,
            "sign residual {peak} vs update norm {update_norm}"
        );
    }

    #[test]
    fn payload_bytes_shrink_with_ratio(values in vector()) {
        let mut rng = StdRng::seed_from_u64(2);
        let full = values.len() * 4;
        let sparse = compress(&TopK::new(0.25), &values, &mut rng).1;
        let sparser = compress(&TopK::new(0.05), &values, &mut rng).1;
        prop_assert!(sparser <= sparse);
        prop_assert!(compress(&SignOneBit, &values, &mut rng).1 < full);
    }
}
