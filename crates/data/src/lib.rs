//! Synthetic datasets, worker sharding and batch iteration for the AdaComm
//! reproduction.
//!
//! The paper evaluates on CIFAR-10/CIFAR-100, which are unavailable in this
//! offline environment. Following the substitution policy in
//! `EXPERIMENTS.md`, this crate generates seeded synthetic classification
//! problems whose SGD dynamics exercise the same code paths:
//!
//! * [`GaussianMixture`] — a `k`-class Gaussian-mixture classification task
//!   (optionally warped through a random nonlinearity so that linear models
//!   cannot solve it), standing in for CIFAR-10 (`k = 10`) and CIFAR-100
//!   (`k = 100`);
//! * [`LinearRegressionTask`] — a least-squares problem with known optimum,
//!   Lipschitz constant and gradient-noise level, used to validate the
//!   paper's Theorems 1–3 quantitatively.
//!
//! Datasets are sharded across workers exactly as in the paper's setup
//! ("each worker machine is assigned with a partition which will be randomly
//! shuffled after every epoch").
//!
//! # Example
//!
//! ```
//! use data::GaussianMixture;
//!
//! let split = GaussianMixture::cifar10_like().generate(42);
//! let shards = split.train.shard(4);
//! assert_eq!(shards.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod dataset;
mod regression;
mod synthetic;

pub use batch::BatchIter;
pub use dataset::{Dataset, TrainTestSplit};
pub use regression::{LinearRegressionProblem, LinearRegressionTask};
pub use synthetic::GaussianMixture;
