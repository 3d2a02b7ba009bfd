//! **gradcomp** — gradient/model-update compression for communication-
//! efficient local-update SGD.
//!
//! The source paper adapts the communication *frequency* τ; this crate adds
//! the other half of the communication budget: the *size* of each averaging
//! message. It provides:
//!
//! * [`Compressor`] — the shared codec interface: compress one flat `f32`
//!   slice into a reconstruction buffer, report the encoded payload in
//!   bytes;
//! * [`TopK`] / [`RandomK`] — sparsification (value + index per kept
//!   entry), biased/unbiased respectively;
//! * [`SignOneBit`] — 1-bit sign compression with a mean-magnitude scale
//!   (Seide et al., 2014);
//! * [`Qsgd`] — unbiased stochastic `b`-bit quantization (Alistarh et al.,
//!   2017);
//! * [`ErrorFeedback`] — per-worker residual memory so biased codecs still
//!   converge (Stich et al., 2018);
//! * [`CodecSpec`] — a `Copy` description of a codec for configuration
//!   structs and for schedules that adapt the compression ratio at run
//!   time;
//! * [`kernels`] — the low-level Top-K select / sign pack / quantize
//!   primitives, exported for micro-benchmarks.
//!
//! Payload sizes feed the bytes-aware communication model in the `delay`
//! crate, so compression changes both the training mathematics and the
//! simulated wall clock.
//!
//! # Example
//!
//! ```
//! use gradcomp::{CodecSpec, Compressor};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let x = [4.0, -0.5, 0.25, 0.125];
//! let mut decoded = [0.0; 4];
//! let bytes = CodecSpec::TopK { ratio: 0.25 }.compress_slice(&x, &mut decoded, &mut rng);
//! assert_eq!(decoded, [4.0, 0.0, 0.0, 0.0]);
//! assert!(bytes < 16, "1 of 4 entries: 8 bytes, not 16");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod feedback;
pub mod kernels;
pub mod wire;

pub use codec::{
    CodecSpec, Compressor, Identity, Qsgd, RandomK, SignOneBit, TopK, QSGD_DEFAULT_BUCKET,
};
pub use feedback::ErrorFeedback;
