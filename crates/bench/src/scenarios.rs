//! Canonical experiment scenarios shared by the figures.
//!
//! Each paper figure compares the same model/dataset/delay profile across
//! schedulers; these builders centralise that configuration so Figures
//! 9–13 and Table 1 stay consistent with one another.

use crate::Scale;
use adacomm::LrSchedule;
use data::GaussianMixture;
use delay::{resnet50_profile, vgg16_profile, HardwareProfile};
use nn::{models, Network};
use pasgd_sim::{ClusterConfig, ExperimentConfig, ExperimentSuite, MomentumMode};

/// Which architecture family a scenario models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelFamily {
    /// Communication-bound VGG-16-like setting (α ≈ 4).
    VggLike,
    /// Computation-bound ResNet-50-like setting (α < 1).
    ResnetLike,
}

impl ModelFamily {
    /// The calibrated delay profile for this family.
    pub fn profile(&self) -> HardwareProfile {
        match self {
            ModelFamily::VggLike => vgg16_profile(),
            ModelFamily::ResnetLike => resnet50_profile(),
        }
    }

    /// The fixed-τ baselines the paper plots for this family.
    pub fn paper_taus(&self) -> Vec<usize> {
        match self {
            ModelFamily::VggLike => vec![1, 20, 100],
            ModelFamily::ResnetLike => vec![1, 5, 100],
        }
    }

    /// AdaComm's initial period τ0 (the paper grid-searches this over short
    /// trial runs, Section 4.2; a large τ0 only pays off when communication
    /// dominates, so the computation-bound ResNet family gets a small one).
    pub fn tau0(&self) -> usize {
        match self {
            ModelFamily::VggLike => 24,
            ModelFamily::ResnetLike => 5,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ModelFamily::VggLike => "VGG-16",
            ModelFamily::ResnetLike => "ResNet-50",
        }
    }

    fn build_model(&self, scale: Scale, classes: usize, seed: u64) -> Network {
        match (self, scale) {
            // Quick/smoke scale: MLPs (the delay profile carries the
            // systems behaviour; see the substitution policy in
            // EXPERIMENTS.md). Full scale: the real conv
            // families.
            (ModelFamily::VggLike, Scale::Full) => models::vgg_like(1, 16, classes, seed),
            (ModelFamily::ResnetLike, Scale::Full) => models::resnet_like(1, 16, classes, seed),
            (_, _) => models::mlp_classifier(256, &[64], classes, seed),
        }
    }
}

/// A fully specified figure scenario.
pub struct Scenario {
    /// Scenario label, e.g. `"VGG-16 / CIFAR10-like / 4 workers"`.
    pub name: String,
    /// The experiment suite (shared model/data/delays across methods).
    pub suite: ExperimentSuite,
    /// Fixed-τ baselines for the figure.
    pub fixed_taus: Vec<usize>,
    /// AdaComm initial period.
    pub tau0: usize,
    /// Constant learning-rate schedule for the fixed-lr panels.
    pub fixed_lr: LrSchedule,
    /// Step schedule for the variable-lr panels.
    pub variable_lr: LrSchedule,
}

/// Builds the canonical scenario for a model family.
///
/// `classes` selects the CIFAR-10-like (10) or CIFAR-100-like (100) task;
/// `workers` is 4 in the main figures and 8 in the appendix ones.
///
/// # Panics
///
/// Panics if `classes` is not 10 or 100, or `workers == 0`.
pub fn scenario(family: ModelFamily, classes: usize, workers: usize, scale: Scale) -> Scenario {
    assert!(classes == 10 || classes == 100, "classes must be 10 or 100");
    assert!(workers > 0, "need at least one worker");
    let spec = if classes == 10 {
        GaussianMixture::cifar10_like()
    } else {
        GaussianMixture::cifar100_like()
    };
    let split = spec.generate(1234 + classes as u64);

    // Time-scale the profile so the run needs laptop-sized iteration counts
    // while preserving the paper's comm/comp ratio.
    let time_scale = if scale.is_full() { 1.0 } else { 4.0 };
    let profile = family.profile().time_scaled(time_scale);
    let runtime = profile.runtime_model(workers);

    // ResNet-50 iterations are slower but its runs cover more epochs in the
    // paper; give the computation-bound family a proportionally longer
    // budget so the post-annealing phase can reach the sync floor. Smoke
    // budgets are just long enough for a few scheduler intervals.
    let total_secs = match (scale, family) {
        (Scale::Full, _) => 2100.0,
        (Scale::Quick, ModelFamily::VggLike) => 600.0,
        (Scale::Quick, ModelFamily::ResnetLike) => 900.0,
        (Scale::Smoke, ModelFamily::VggLike) => 90.0,
        (Scale::Smoke, ModelFamily::ResnetLike) => 120.0,
    };
    // Per-worker batch: paper uses 128 with 4 workers, 64 with 8.
    let batch_size = match (scale, workers) {
        (Scale::Full, w) if w >= 8 => 64,
        (Scale::Full, _) => 128,
        (_, _) => 32,
    };

    // The paper uses 0.2 (VGG-16) and 0.4 (ResNet-50 with batch norm).
    // Our substitute models have no batch norm, so both families use the
    // VGG rate; 0.4 would inflate the local-update noise term
    // eta^2 L^2 sigma^2 (tau-1) fourfold and distort the comparison
    // (documented in EXPERIMENTS.md).
    let lr0 = 0.2;
    // Epoch milestones for the step schedule, scaled from the paper's
    // 80/120/160/200 (CIFAR, 200+ epochs) to the shorter simulated budget.
    let milestones = if scale.is_full() {
        vec![80.0, 120.0, 160.0, 200.0]
    } else {
        vec![12.0, 24.0, 36.0, 48.0]
    };

    // The paper uses T0 = 60 s on ~35-minute runs; keep the interval the
    // same *fraction* of the training budget at quick scale so AdaComm gets
    // a comparable number of adaptation opportunities.
    let interval_secs = if scale.is_full() { 60.0 } else { 20.0 };
    let suite = ExperimentSuite::new(
        family.build_model(scale, classes, 77),
        split,
        runtime,
        ClusterConfig {
            workers,
            batch_size,
            lr: lr0,
            weight_decay: 5e-4,
            momentum: MomentumMode::None,
            averaging: pasgd_sim::AveragingStrategy::FullAverage,
            codec: gradcomp::CodecSpec::Identity,
            seed: 42,
            eval_subset: 1024,
            fault: pasgd_sim::FaultConfig::NONE,
        },
        ExperimentConfig {
            interval_secs,
            total_secs,
            record_every_secs: total_secs / 40.0,
            gate_lr_on_tau: true,
        },
    );

    Scenario {
        name: format!(
            "{} / CIFAR{classes}-like / {workers} workers ({scale})",
            family.name()
        ),
        suite,
        fixed_taus: family.paper_taus(),
        tau0: family.tau0(),
        fixed_lr: LrSchedule::constant(lr0),
        variable_lr: LrSchedule::step(lr0, 0.1, milestones),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vgg_scenario_is_communication_bound() {
        let profile = ModelFamily::VggLike.profile();
        assert!(profile.alpha(4) > 3.0);
    }

    #[test]
    fn resnet_scenario_is_compute_bound() {
        let profile = ModelFamily::ResnetLike.profile();
        assert!(profile.alpha(4) < 1.0);
    }

    #[test]
    fn paper_taus_match_figures() {
        assert_eq!(ModelFamily::VggLike.paper_taus(), vec![1, 20, 100]);
        assert_eq!(ModelFamily::ResnetLike.paper_taus(), vec![1, 5, 100]);
    }

    #[test]
    fn scenario_builds_for_all_combinations() {
        for family in [ModelFamily::VggLike, ModelFamily::ResnetLike] {
            for classes in [10usize, 100] {
                let s = scenario(family, classes, 4, Scale::Quick);
                assert!(s.name.contains(family.name()));
                assert!(!s.fixed_taus.is_empty());
            }
        }
    }

    #[test]
    #[should_panic(expected = "classes must be 10 or 100")]
    fn bad_classes_rejected() {
        let _ = scenario(ModelFamily::VggLike, 7, 4, Scale::Quick);
    }
}
