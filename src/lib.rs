//! # adacomm-repro
//!
//! A complete Rust reproduction of **Wang & Joshi, "Adaptive Communication
//! Strategies to Achieve the Best Error-Runtime Trade-off in Local-Update
//! SGD" (SysML 2019)** — the ADACOMM adaptive communication-period
//! scheduler for periodic-averaging SGD, together with every substrate it
//! needs: a tensor library, a from-scratch neural-network stack, synthetic
//! datasets, a stochastic delay model, and a multi-worker training
//! simulator.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! name and provides a [`prelude`] for the examples. See `README.md` for
//! the architecture overview and `EXPERIMENTS.md` for the paper-vs-measured
//! comparison of every figure and table.
//!
//! # Quickstart
//!
//! ```
//! use adacomm_repro::prelude::*;
//!
//! // A tiny end-to-end run: AdaComm on a synthetic task with 2 workers.
//! let split = GaussianMixture::small_test().generate(1);
//! let runtime = RuntimeModel::new(
//!     DelayDistribution::constant(0.1),
//!     CommModel::constant(0.1),
//!     2,
//! );
//! let suite = ExperimentSuite::new(
//!     models::mlp_classifier(8, &[16], 3, 0),
//!     split,
//!     runtime,
//!     ClusterConfig { workers: 2, batch_size: 8, ..ClusterConfig::default() },
//!     ExperimentConfig {
//!         interval_secs: 5.0,
//!         total_secs: 15.0,
//!         record_every_secs: 5.0,
//!         gate_lr_on_tau: false,
//!     },
//! );
//! let trace = suite.run(&mut AdaComm::with_tau0(8), &LrSchedule::constant(0.05));
//! assert!(trace.final_loss().is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use adacomm;
pub use data;
pub use delay;
pub use gradcomp;
pub use nn;
pub use pasgd_sim;
pub use tensor;

/// Commonly used items for examples and downstream experiments.
pub mod prelude {
    pub use adacomm::theory::{
        error_floor, error_runtime_bound, tau_star, tau_star_int, Round, ScheduleConvergence,
        TheoryParams,
    };
    pub use adacomm::{
        select_tau0, AdaComm, AdaCommCompress, AdaCommConfig, CommSchedule, FixedComm, LrCoupling,
        LrSchedule, ScheduleContext,
    };
    pub use data::{BatchIter, Dataset, GaussianMixture, LinearRegressionTask, TrainTestSplit};
    pub use delay::{
        resnet50_profile, speedup_constant, vgg16_profile, CommModel, CommScaling,
        DelayDistribution, HardwareProfile, Histogram, RuntimeModel,
    };
    pub use gradcomp::{CodecSpec, Compressor, ErrorFeedback};
    pub use nn::{models, Loss, Network, Sgd};
    pub use pasgd_sim::{
        AggregationPolicy, AveragingStrategy, ClusterConfig, ExperimentConfig, ExperimentSuite,
        FaultConfig, FaultSpec, MomentumMode, PasgdCluster, RunTrace, TracePoint,
    };
    pub use tensor::Tensor;
}
