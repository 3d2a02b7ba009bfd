//! Property-based tests for the PASGD simulator.

use data::GaussianMixture;
use delay::{CommModel, DelayDistribution, RuntimeModel};
use nn::models;
use pasgd_sim::{AveragingStrategy, ClusterConfig, MomentumMode, PasgdCluster};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cluster(workers: usize, seed: u64, y: f64, d: f64) -> PasgdCluster {
    let split = GaussianMixture::small_test().generate(17);
    PasgdCluster::new(
        models::mlp_classifier(8, &[8], 3, 23),
        split,
        RuntimeModel::new(
            DelayDistribution::constant(y),
            CommModel::constant(d),
            workers,
        ),
        ClusterConfig {
            workers,
            batch_size: 8,
            lr: 0.05,
            weight_decay: 0.0,
            momentum: MomentumMode::None,
            averaging: pasgd_sim::AveragingStrategy::FullAverage,
            codec: gradcomp::CodecSpec::Identity,
            seed,
            eval_subset: 48,
            fault: pasgd_sim::FaultConfig::NONE,
        },
    )
}

/// One full-average synchronization of `planes` — the mix a
/// full-averaging round applies, reducing through the shared mean helper
/// a compressed round uses.
fn full_average(planes: &mut [Vec<f32>]) {
    let touched = AveragingStrategy::FullAverage.mix(planes, &mut StdRng::seed_from_u64(0));
    assert!(
        touched.iter().all(|&t| t),
        "full averaging touches every worker"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn averaging_identical_models_is_identity(seed in 0u64..100) {
        let net = models::mlp_classifier(6, &[4], 3, seed);
        let plane = net.params_flat();
        let mut planes = vec![plane.clone(); 3];
        full_average(&mut planes);
        // (x + x + x) / 3 may round: compare each parameter tensor's
        // segment up to float noise.
        for averaged in &planes {
            let mut offset = 0;
            for len in net.param_sizes() {
                let seg = offset..offset + len;
                offset += len;
                let distance = averaged[seg.clone()]
                    .iter()
                    .zip(&plane[seg])
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f32>()
                    .sqrt();
                prop_assert!(distance < 1e-6, "segment drifted by {distance}");
            }
        }
    }

    #[test]
    fn averaging_is_permutation_invariant(s1 in 0u64..50, s2 in 50u64..100) {
        let a = models::mlp_classifier(6, &[4], 3, s1).params_flat();
        let b = models::mlp_classifier(6, &[4], 3, s2).params_flat();
        let mut ab = vec![a.clone(), b.clone()];
        let mut ba = vec![b, a];
        full_average(&mut ab);
        full_average(&mut ba);
        // IEEE addition is commutative, so swapping two planes changes no
        // bit of the mean.
        let bits = |p: &[f32]| p.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        prop_assert_eq!(bits(&ab[0]), bits(&ba[0]));
        prop_assert_eq!(bits(&ab[1]), bits(&ba[1]));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn clock_is_monotone_and_exact_for_constants(
        taus in proptest::collection::vec(1usize..6, 1..5),
        y in 0.1f64..2.0,
        d in 0.0f64..2.0,
    ) {
        let mut c = cluster(2, 0, y, d);
        let mut prev = 0.0;
        let mut expected = 0.0;
        for &tau in &taus {
            c.run_round(tau);
            expected += y * tau as f64 + d;
            prop_assert!(c.clock() > prev);
            prop_assert!((c.clock() - expected).abs() < 1e-9);
            prev = c.clock();
        }
        let total_iters: u64 = taus.iter().map(|&t| t as u64).sum();
        prop_assert_eq!(c.iterations(), total_iters);
        prop_assert_eq!(c.rounds(), taus.len() as u64);
    }

    #[test]
    fn averaging_collapses_discrepancy(tau in 1usize..8, seed in 0u64..20) {
        let mut c = cluster(3, seed, 0.5, 0.1);
        c.run_round(tau);
        prop_assert!(c.model_discrepancy() < 1e-6);
    }

    #[test]
    fn same_seed_same_trajectory(tau in 1usize..5) {
        let run = |seed: u64| {
            let mut c = cluster(2, seed, 1.0, 0.5);
            for _ in 0..3 {
                c.run_round(tau);
            }
            c.eval_train_loss()
        };
        prop_assert_eq!(run(5), run(5));
    }

    #[test]
    fn loss_is_always_finite(tau in 1usize..10, seed in 0u64..10) {
        let mut c = cluster(2, seed, 1.0, 0.5);
        for _ in 0..4 {
            let loss = c.run_round(tau);
            prop_assert!(loss.is_finite(), "round loss not finite");
        }
        prop_assert!(c.eval_train_loss().is_finite());
    }

    #[test]
    fn epochs_are_consistent_with_iterations(tau in 1usize..6) {
        let mut c = cluster(2, 3, 1.0, 0.1);
        for _ in 0..3 {
            c.run_round(tau);
        }
        // 2 workers x batch 8 x iterations samples consumed; train size 96.
        let expected = (2 * 8 * c.iterations()) as f64 / 96.0;
        prop_assert!((c.epochs() - expected).abs() < 1e-9);
    }
}
