//! Property-based tests for the neural-network substrate.

use nn::{models, Loss, Sgd};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::Tensor;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cross_entropy_is_non_negative(seed in 0u64..500, label in 0usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let logits = Tensor::randn(&[1, 4], 3.0, &mut rng);
        let (loss, _) = Loss::CrossEntropy.loss_and_grad(&logits, &[label]);
        prop_assert!(loss >= 0.0 && loss.is_finite());
    }

    #[test]
    fn softmax_grad_has_zero_row_sums(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let logits = Tensor::randn(&[3, 5], 2.0, &mut rng);
        let (_, grad) = Loss::CrossEntropy.loss_and_grad(&logits, &[0, 2, 4]);
        for r in 0..3 {
            let s: f32 = grad.row(r).iter().sum();
            prop_assert!(s.abs() < 1e-5);
        }
    }

    #[test]
    fn sgd_step_moves_against_gradient(seed in 0u64..100) {
        // One step on a fixed batch must not increase the loss for a small
        // enough learning rate (descent direction property).
        let mut net = models::mlp_classifier(5, &[8], 2, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let x = Tensor::randn(&[16, 5], 1.0, &mut rng);
        let labels: Vec<usize> = (0..16).map(|i| i % 2).collect();
        let before = net.train_step(&x, &labels);
        let mut opt = Sgd::new(1e-3);
        opt.step(&mut net);
        let after = net.eval_loss(&x, &labels);
        prop_assert!(after <= before + 1e-5, "loss went up: {before} -> {after}");
    }

    #[test]
    fn prediction_is_deterministic(seed in 0u64..100) {
        let mut net = models::mlp_classifier(5, &[6], 3, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::randn(&[7, 5], 1.0, &mut rng);
        prop_assert_eq!(net.predict(&x), net.predict(&x));
    }

    #[test]
    fn snapshot_load_roundtrip_any_model(seed in 0u64..50) {
        let net = models::mlp_classifier(4, &[3, 3], 2, seed);
        let plane = net.params_flat();
        let mut fresh = models::mlp_classifier(4, &[3, 3], 2, seed + 1);
        fresh.load_params_from(&plane);
        prop_assert_eq!(fresh.params_snapshot(), net.params_snapshot());
    }

    #[test]
    fn grad_norm_zero_after_zeroing(seed in 0u64..50) {
        let mut net = models::mlp_classifier(4, &[6], 2, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::randn(&[4, 4], 1.0, &mut rng);
        net.train_step(&x, &[0, 1, 0, 1]);
        net.zero_grads();
        prop_assert_eq!(net.grad_sq_norm(), 0.0);
    }
}
