//! Seeded experiment parts. The figure scenarios in `adacomm_bench` pin
//! their own dataset and cluster seeds; the benchmark's `--seed` must
//! drive both, so these builders assemble the same model, delay profile
//! and hyper-parameters from the crates' public pieces and take the two
//! seeds as inputs. Model initialisation keeps the scenarios' seed (77):
//! the seed varies the inputs, not the program.

use adacomm::LrSchedule;
use adacomm_bench::scenarios::ModelFamily;
use data::{GaussianMixture, TrainTestSplit};
use delay::RuntimeModel;
use nn::{models, Network};
use pasgd_sim::{ClusterConfig, ExperimentConfig, ExperimentSuite, PasgdCluster};

pub const WORKERS: usize = 4;
const MODEL_SEED: u64 = 77;

/// Everything an `ExperimentSuite` or a `PasgdCluster` is built from.
#[derive(Clone)]
pub struct Parts {
    pub model: Network,
    pub split: TrainTestSplit,
    pub runtime: RuntimeModel,
    pub cluster: ClusterConfig,
    pub experiment: ExperimentConfig,
    pub lr: LrSchedule,
}

impl Parts {
    pub fn suite(&self) -> ExperimentSuite {
        ExperimentSuite::new(
            self.model.clone(),
            self.split.clone(),
            self.runtime,
            self.cluster.clone(),
            self.experiment.clone(),
        )
    }

    pub fn cluster(&self) -> PasgdCluster {
        PasgdCluster::new(
            self.model.clone(),
            self.split.clone(),
            self.runtime,
            self.cluster.clone(),
        )
    }

    pub fn full_payload_bytes(&self) -> f64 {
        (self.model.param_count() * std::mem::size_of::<f32>()) as f64
    }
}

/// The compression extension's quick-scale suite (`ScenarioSpec::
/// Compression{VggLike, Quick}`): a 256-64-100 MLP on the CIFAR-100-like
/// mixture under the bytes-aware VGG-16 delay profile, where 90 % of the
/// mean communication delay is bandwidth.
pub fn compression_quick(data_seed: u64, cluster_seed: u64, total_secs: f64) -> Parts {
    let model = models::mlp_classifier(256, &[64], 100, MODEL_SEED);
    let full_bytes = model.param_count() * std::mem::size_of::<f32>();
    let runtime = ModelFamily::VggLike
        .profile()
        .time_scaled(4.0)
        .bytes_aware_runtime_model(WORKERS, 0.9, full_bytes as f64);
    let lr0 = 0.1f32;
    Parts {
        model,
        split: GaussianMixture::cifar100_like().generate(data_seed),
        runtime,
        cluster: ClusterConfig {
            workers: WORKERS,
            batch_size: 32,
            lr: lr0,
            weight_decay: 5e-4,
            seed: cluster_seed,
            eval_subset: 1024,
            ..ClusterConfig::default()
        },
        experiment: ExperimentConfig {
            interval_secs: 20.0,
            total_secs,
            record_every_secs: total_secs / 8.0,
            gate_lr_on_tau: false,
        },
        lr: LrSchedule::constant(lr0),
    }
}

/// The canonical full-scale scenario (`scenario(family, 10, 4, Full)`):
/// the real conv family on the CIFAR-10-like mixture, batch 128, the
/// unscaled delay profile — except the learning rate, 0.02 here against
/// the scenario's 0.2. At 0.2 about one (data, cluster) seed pair in ten
/// diverges to a saturated loss within the first 30 steps, and a workload
/// must not fail on any seed; the arithmetic per step is the same.
pub fn canonical_full(
    family: ModelFamily,
    data_seed: u64,
    cluster_seed: u64,
    total_secs: f64,
) -> Parts {
    let model = match family {
        ModelFamily::VggLike => models::vgg_like(1, 16, 10, MODEL_SEED),
        ModelFamily::ResnetLike => models::resnet_like(1, 16, 10, MODEL_SEED),
    };
    let lr0 = 0.02f32;
    Parts {
        model,
        split: GaussianMixture::cifar10_like().generate(data_seed),
        runtime: family.profile().runtime_model(WORKERS),
        cluster: ClusterConfig {
            workers: WORKERS,
            batch_size: 128,
            lr: lr0,
            weight_decay: 5e-4,
            seed: cluster_seed,
            eval_subset: 1024,
            ..ClusterConfig::default()
        },
        experiment: ExperimentConfig {
            interval_secs: 60.0,
            total_secs,
            record_every_secs: total_secs / 2.0,
            gate_lr_on_tau: true,
        },
        lr: LrSchedule::constant(lr0),
    }
}
