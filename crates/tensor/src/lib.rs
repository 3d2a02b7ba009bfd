//! Minimal dense tensor library backing the AdaComm reproduction.
//!
//! This crate provides exactly the numerical substrate the rest of the
//! workspace needs: a row-major dense [`Tensor`] of `f32` values with the
//! linear-algebra kernels required to train small neural networks from
//! scratch (matrix multiplication in all transpose combinations, elementwise
//! arithmetic, reductions, and seeded random initialisation).
//!
//! Beside the GEMM sit the *windowed* GEMM kernels
//! ([`window_gemm_tn_into`], [`window_gemm_per_lane_into`],
//! [`window_gemm_tn_add`]): products whose im2col-style operand is an
//! offset table into a flat buffer, so `nn`'s convolution never packs or
//! materialises it. The two row-by-window products run on the GEMM's
//! register tile (`tile.rs`), and every
//! kernel keeps one contract: each output element is a single
//! `f32::mul_add` accumulator reduced in ascending index, so results are
//! bit-identical at any vector width and thread count.
//!
//! It is deliberately small — no broadcasting DSL, no autograd, no unsafe —
//! because the paper under reproduction ([Wang & Joshi, SysML 2019]) does not
//! depend on any of that; the interesting systems behaviour lives in the
//! `delay`, `adacomm` and `pasgd-sim` crates.
//!
//! # Example
//!
//! ```
//! use tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.as_slice(), a.as_slice());
//! ```
//!
//! [Wang & Joshi, SysML 2019]: https://arxiv.org/abs/1810.08313

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod init;
mod linalg;
mod matmul;
pub mod serde;
mod shape;
mod tensor;
mod tile;
mod window;

pub use error::TensorError;
pub use init::Init;
pub use linalg::average;
pub use matmul::{matmul_into, matmul_nt_into, matmul_tn_into};
pub use shape::Shape;
pub use tensor::Tensor;
pub use window::{window_gemm_per_lane_into, window_gemm_tn_add, window_gemm_tn_into, LANES};

/// Convenience result alias for fallible tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;
