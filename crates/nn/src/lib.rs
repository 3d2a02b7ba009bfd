//! From-scratch neural-network substrate for the AdaComm reproduction.
//!
//! The paper trains VGG-16 and ResNet-50 in PyTorch; this offline
//! reproduction needs a self-contained trainable-model stack, so this crate
//! implements one: layers with explicit forward/backward passes
//! ([`Dense`], [`Conv2d`], [`MaxPool2d`], [`Relu`], [`Tanh`], [`Residual`]),
//! losses ([`Loss`]), an SGD optimizer with momentum and weight decay
//! ([`Sgd`]), and a [`Network`] container exposing the parameter
//! snapshot/load plumbing that periodic model averaging needs.
//!
//! The [`models`] module provides the architectures the experiments use:
//! [`models::vgg_like`] (plain conv stack, heavy dense head —
//! communication-bound) and [`models::resnet_like`] (residual blocks, small
//! head — computation-bound), plus MLP/softmax baselines.
//!
//! Convolution is zero-copy: [`Conv2d`] stores each image as zero-bordered
//! planes, in which every im2col row is a contiguous slice, and runs its
//! forward, weight-gradient and input-gradient products as `tensor`'s
//! windowed GEMM kernels over an offset table — no packing, no column
//! matrix, col2im fused into the product, and bit-identical to the
//! materialised-im2col formulation (see [`Conv2d`]).
//!
//! # Example
//!
//! ```
//! use nn::{models, Sgd};
//! use tensor::Tensor;
//!
//! let mut net = models::mlp_classifier(8, &[16], 3, 42);
//! let mut opt = Sgd::new(0.1).with_momentum(0.9);
//! let x = Tensor::zeros(&[4, 8]);
//! let labels = [0, 1, 2, 0];
//! let loss_before = net.train_step(&x, &labels);
//! opt.step(&mut net);
//! let loss_after = net.eval_loss(&x, &labels);
//! assert!(loss_after <= loss_before);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod conv;
mod dense;
mod layer;
mod loss;
pub mod metrics;
mod network;
mod optim;
mod residual;
mod sequential;
mod zoo;

pub use activation::{Relu, Tanh};
pub use conv::{Conv2d, ImageDims, MaxPool2d};
pub use dense::Dense;
pub use layer::{param_count, Layer};
pub use loss::Loss;
pub use network::{average_params, Network};
pub use optim::Sgd;
pub use residual::Residual;
pub use sequential::Sequential;

/// The model zoo used by the reproduction experiments.
pub mod models {
    pub use crate::zoo::{mlp_classifier, resnet_like, softmax_regression, vgg_like};
}
