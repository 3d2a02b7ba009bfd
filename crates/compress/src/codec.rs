//! The [`Compressor`] trait and the four codecs: Top-K, Random-K, 1-bit
//! sign and QSGD-style stochastic quantization.

use crate::kernels::top_k_indices;
use rand::rngs::StdRng;
use rand::Rng;

/// Bytes of an `f32` payload entry.
const F32_BYTES: usize = 4;
/// Bytes of a `u32` sparse index.
const INDEX_BYTES: usize = 4;

/// A gradient/model-update compression codec.
///
/// Implementations compress one flat `f32` slice at a time (the simulator
/// passes one parameter tensor's segment of a worker's parameter plane)
/// and report the encoded payload size. The trait is object-safe (`&mut StdRng` rather than a
/// generic RNG) so workers can hold `Box<dyn Compressor>` or dispatch
/// through [`CodecSpec`].
pub trait Compressor: Send + Sync + std::fmt::Debug {
    /// Compresses `input`, writing the reconstruction the receiver would
    /// decode into `output` and returning the encoded payload size in
    /// bytes. The simulator trains on the reconstruction (so compression
    /// genuinely perturbs the mathematics) and charges the bytes to the
    /// communication clock (so compression genuinely changes the
    /// runtime).
    ///
    /// # Panics
    ///
    /// Panics if `output.len() != input.len()`.
    fn compress_slice(&self, input: &[f32], output: &mut [f32], rng: &mut StdRng) -> usize;

    /// Whether `E[decode(encode(x))] = x` (Random-K, QSGD, identity).
    /// Biased codecs (Top-K, sign) need error feedback to converge.
    fn is_unbiased(&self) -> bool;

    /// Short name used in reports, e.g. `"topk(0.01)"`.
    fn name(&self) -> String;
}

fn check_output_len(input: &[f32], output: &[f32]) {
    assert_eq!(
        input.len(),
        output.len(),
        "reconstruction buffer holds {} values but the input has {}",
        output.len(),
        input.len()
    );
}

/// The no-op codec: full-precision payloads (4 bytes per entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Identity;

impl Compressor for Identity {
    fn compress_slice(&self, input: &[f32], output: &mut [f32], _rng: &mut StdRng) -> usize {
        check_output_len(input, output);
        output.copy_from_slice(input);
        input.len() * F32_BYTES
    }

    fn is_unbiased(&self) -> bool {
        true
    }

    fn name(&self) -> String {
        "full".to_string()
    }
}

/// Top-K sparsification: keep the `⌈ratio·n⌉` largest-magnitude entries,
/// zero the rest. Biased but norm-contractive; the standard partner of
/// error feedback (Stich et al., 2018).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopK {
    ratio: f64,
}

impl TopK {
    /// Creates a Top-K codec keeping a `ratio` fraction of entries.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is outside `(0, 1]`.
    pub fn new(ratio: f64) -> Self {
        assert!(
            ratio > 0.0 && ratio <= 1.0,
            "sparsification ratio must be in (0, 1], got {ratio}"
        );
        TopK { ratio }
    }

    /// The kept fraction.
    pub fn ratio(&self) -> f64 {
        self.ratio
    }
}

/// `⌈ratio·n⌉` clamped into `[1, n]`.
fn kept_count(ratio: f64, n: usize) -> usize {
    ((ratio * n as f64).ceil() as usize).clamp(1, n)
}

/// Sparse payload size: value + index per kept entry, capped at the dense
/// 4-bytes-per-entry encoding a real encoder would fall back to once
/// `k > n/2` (matches [`CodecSpec::payload_fraction`]'s cap at 1).
fn sparse_bytes(k: usize, n: usize) -> usize {
    (k * (F32_BYTES + INDEX_BYTES)).min(n * F32_BYTES)
}

impl Compressor for TopK {
    fn compress_slice(&self, input: &[f32], output: &mut [f32], _rng: &mut StdRng) -> usize {
        check_output_len(input, output);
        let k = kept_count(self.ratio, input.len());
        let keep = top_k_indices(input, k);
        output.fill(0.0);
        for &i in &keep {
            output[i as usize] = input[i as usize];
        }
        sparse_bytes(k, input.len())
    }

    fn is_unbiased(&self) -> bool {
        false
    }

    fn name(&self) -> String {
        format!("topk({})", self.ratio)
    }
}

/// Random-K sparsification: keep `⌈ratio·n⌉` uniformly sampled entries,
/// scaled by `n/k` so the reconstruction is unbiased.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomK {
    ratio: f64,
}

impl RandomK {
    /// Creates a Random-K codec keeping a `ratio` fraction of entries.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is outside `(0, 1]`.
    pub fn new(ratio: f64) -> Self {
        assert!(
            ratio > 0.0 && ratio <= 1.0,
            "sparsification ratio must be in (0, 1], got {ratio}"
        );
        RandomK { ratio }
    }

    /// The kept fraction.
    pub fn ratio(&self) -> f64 {
        self.ratio
    }
}

impl Compressor for RandomK {
    fn compress_slice(&self, input: &[f32], output: &mut [f32], rng: &mut StdRng) -> usize {
        check_output_len(input, output);
        let n = input.len();
        let k = kept_count(self.ratio, n);
        // Partial Fisher-Yates: one index vector, shuffled only over the
        // first k positions — a uniform k-subset without the extra
        // allocations of a full shuffle.
        let mut indices: Vec<u32> = (0..n as u32).collect();
        for j in 0..k {
            let r = rng.gen_range(j..n);
            indices.swap(j, r);
        }
        let scale = n as f32 / k as f32;
        output.fill(0.0);
        for &i in &indices[..k] {
            output[i as usize] = input[i as usize] * scale;
        }
        sparse_bytes(k, n)
    }

    fn is_unbiased(&self) -> bool {
        true
    }

    fn name(&self) -> String {
        format!("randk({})", self.ratio)
    }
}

/// 1-bit sign compression (Seide et al., 2014; signSGD): each entry is
/// replaced by `±scale` with `scale` the mean absolute value, packed one
/// bit per entry plus the 4-byte scale. Biased; pair with error feedback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignOneBit;

impl Compressor for SignOneBit {
    fn compress_slice(&self, input: &[f32], output: &mut [f32], _rng: &mut StdRng) -> usize {
        check_output_len(input, output);
        let n = input.len();
        let scale = input.iter().map(|v| v.abs()).sum::<f32>() / n as f32;
        // Pack-then-unpack semantics without materialising the bit words: a
        // set bit (strictly negative entry) decodes to -scale, everything
        // else to +scale (see `kernels::pack_signs`/`unpack_signs`).
        for (o, &v) in output.iter_mut().zip(input) {
            *o = if v.is_sign_negative() && v != 0.0 {
                -scale
            } else {
                scale
            };
        }
        F32_BYTES + n.div_ceil(8)
    }

    fn is_unbiased(&self) -> bool {
        false
    }

    fn name(&self) -> String {
        "sign".to_string()
    }
}

/// QSGD-style stochastic quantization (Alistarh et al., 2017): entries are
/// stochastically rounded onto `2^bits − 1` uniform levels of the bucket's
/// `ℓ2` norm, so reconstruction is unbiased. Quantizing in buckets (default
/// 512 entries) bounds the relative variance by `sqrt(bucket)/levels`
/// instead of `sqrt(n)/levels` — the deployment trick from the QSGD paper,
/// without which few-bit quantization of large tensors diverges. Payload:
/// one 4-byte norm per bucket plus `bits + 1` bits per entry (level +
/// sign).
///
/// The encode is bit-for-bit the kernel pair
/// [`quantize_stochastic`](crate::kernels::quantize_stochastic) +
/// [`dequantize`](crate::kernels::dequantize) per bucket, RNG stream
/// included:
///
/// * **Draw order.** One uniform `f32` per entry, in entry order, bucket
///   after bucket; a zero-norm bucket draws none. The encode draws them a
///   block of 64 at a time onto the stack, then quantizes and dequantizes
///   the block in one branch-free `f32` pass, so the count and order of
///   draws are the kernel's.
/// * **Levels stay in `f32`.** A level is `⌊p⌋` or `⌊p⌋ + 1.0`, an exact
///   integer below `2^16`, so it equals the kernel's `i32` level converted.
/// * **`+0.0` rule.** The signed level gets `+ 0.0`: a negative entry that
///   rounds to level 0 then reconstructs as `+0.0`, as the kernel's
///   `0i32 as f32` does, not as `-0.0`.
///
/// Bucket norms are reduced 16 buckets side by side; each is still its own
/// left-to-right `f32` sum of squares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Qsgd {
    bits: u8,
    bucket: usize,
}

/// Default quantization bucket size (entries sharing one norm).
pub const QSGD_DEFAULT_BUCKET: usize = 512;

/// Uniforms drawn ahead of each branch-free quantize pass.
const QSGD_DRAW_BLOCK: usize = 64;

/// Buckets whose norms are reduced side by side.
const QSGD_NORM_GROUP: usize = 16;

impl Qsgd {
    /// Creates a stochastic quantizer with `bits` bits per level and the
    /// default bucket size ([`QSGD_DEFAULT_BUCKET`]).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `[1, 16]`.
    pub fn new(bits: u8) -> Self {
        assert!(
            (1..=16).contains(&bits),
            "quantization bits must be in [1, 16], got {bits}"
        );
        Qsgd {
            bits,
            bucket: QSGD_DEFAULT_BUCKET,
        }
    }

    /// Returns a copy quantizing in buckets of `bucket` entries.
    ///
    /// # Panics
    ///
    /// Panics if `bucket == 0`.
    pub fn with_bucket(mut self, bucket: usize) -> Self {
        assert!(bucket >= 1, "bucket size must be at least 1");
        self.bucket = bucket;
        self
    }

    /// Bits per quantization level.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Entries sharing one quantization norm.
    pub fn bucket(&self) -> usize {
        self.bucket
    }

    /// Number of positive magnitude levels, `2^bits − 1`.
    fn levels(&self) -> u32 {
        (1u32 << self.bits) - 1
    }
}

/// The `ℓ2` norms of the buckets of `group` (at most
/// [`QSGD_NORM_GROUP`] of them, the last possibly short). A full group is
/// reduced side by side; every norm is the same left-to-right sum of
/// squares as `chunk.iter().map(|v| v * v).sum::<f32>()`.
fn bucket_norms(group: &[f32], bucket: usize) -> [f32; QSGD_NORM_GROUP] {
    let mut sums = [0.0f32; QSGD_NORM_GROUP];
    if group.len() == bucket * QSGD_NORM_GROUP {
        for j in 0..bucket {
            for (b, sum) in sums.iter_mut().enumerate() {
                let v = group[b * bucket + j];
                *sum += v * v;
            }
        }
    } else {
        for (sum, chunk) in sums.iter_mut().zip(group.chunks(bucket)) {
            *sum = chunk.iter().map(|v| v * v).sum::<f32>();
        }
    }
    sums.map(f32::sqrt)
}

/// Quantizes and dequantizes one bucket with a non-zero `norm`: a block of
/// uniforms first, then one branch-free pass over the block.
fn quantize_bucket(input: &[f32], output: &mut [f32], norm: f32, levels: f32, rng: &mut StdRng) {
    let mut draws = [0.0f32; QSGD_DRAW_BLOCK];
    for (block, out_block) in input
        .chunks(QSGD_DRAW_BLOCK)
        .zip(output.chunks_mut(QSGD_DRAW_BLOCK))
    {
        let draws = &mut draws[..block.len()];
        for u in draws.iter_mut() {
            *u = rng.gen::<f32>();
        }
        for ((o, &v), &u) in out_block.iter_mut().zip(block).zip(draws.iter()) {
            let p = (v.abs() / norm).min(1.0) * levels;
            let lo = p.floor();
            let level = if u < p - lo { lo + 1.0 } else { lo };
            let signed = if v < 0.0 { -level } else { level } + 0.0;
            *o = norm * signed / levels;
        }
    }
}

impl Compressor for Qsgd {
    fn compress_slice(&self, input: &[f32], output: &mut [f32], rng: &mut StdRng) -> usize {
        check_output_len(input, output);
        let levels = self.levels() as f32;
        let group = self.bucket * QSGD_NORM_GROUP;
        let mut buckets = 0usize;
        for (group_in, group_out) in input.chunks(group).zip(output.chunks_mut(group)) {
            let norms = bucket_norms(group_in, self.bucket);
            for ((chunk, out_chunk), &norm) in group_in
                .chunks(self.bucket)
                .zip(group_out.chunks_mut(self.bucket))
                .zip(&norms)
            {
                // Same guard as `kernels::quantize_stochastic`: a diverged
                // (inf/NaN) update must fail fast, not quantize into silent
                // NaN broadcasts.
                assert!(
                    norm >= 0.0 && norm.is_finite(),
                    "invalid quantization norm {norm}"
                );
                if norm == 0.0 {
                    // Matches `kernels::quantize_stochastic`: a zero norm
                    // quantizes everything to level 0 without consuming RNG.
                    out_chunk.fill(0.0);
                } else {
                    quantize_bucket(chunk, out_chunk, norm, levels, rng);
                }
                buckets += 1;
            }
        }
        let payload_bits = input.len() * (usize::from(self.bits) + 1);
        buckets * F32_BYTES + payload_bits.div_ceil(8)
    }

    fn is_unbiased(&self) -> bool {
        true
    }

    fn name(&self) -> String {
        format!("qsgd{}bit", self.bits)
    }
}

/// A plain-data description of a codec, used to thread the choice through
/// configuration structs (`Copy`, `PartialEq`) and to rebuild codecs per
/// interval when a schedule adapts the compression ratio.
///
/// `CodecSpec` itself implements [`Compressor`] by delegating to the codec
/// it describes, so call sites never need boxing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum CodecSpec {
    /// Full-precision payloads ([`Identity`]).
    #[default]
    Identity,
    /// Top-K sparsification keeping a `ratio` fraction of entries.
    TopK {
        /// Kept fraction, in `(0, 1]`.
        ratio: f64,
    },
    /// Random-K sparsification keeping a `ratio` fraction of entries.
    RandomK {
        /// Kept fraction, in `(0, 1]`.
        ratio: f64,
    },
    /// 1-bit sign compression.
    Sign,
    /// Stochastic quantization with `bits` bits per level.
    Qsgd {
        /// Bits per quantization level, in `[1, 16]`.
        bits: u8,
    },
}

impl CodecSpec {
    /// Validates the parameters (same conditions as the codec
    /// constructors).
    ///
    /// # Panics
    ///
    /// Panics if a ratio is outside `(0, 1]` or bits outside `[1, 16]`.
    pub fn validate(&self) {
        match *self {
            CodecSpec::Identity | CodecSpec::Sign => {}
            CodecSpec::TopK { ratio } => {
                let _ = TopK::new(ratio);
            }
            CodecSpec::RandomK { ratio } => {
                let _ = RandomK::new(ratio);
            }
            CodecSpec::Qsgd { bits } => {
                let _ = Qsgd::new(bits);
            }
        }
    }

    /// The payload fraction this codec keeps relative to full precision
    /// (approximate for quantizers: bits-per-entry over 32).
    pub fn payload_fraction(&self) -> f64 {
        match *self {
            CodecSpec::Identity => 1.0,
            // Value + index per kept entry: 8 of 4 bytes.
            CodecSpec::TopK { ratio } | CodecSpec::RandomK { ratio } => (2.0 * ratio).min(1.0),
            CodecSpec::Sign => 1.0 / 32.0,
            CodecSpec::Qsgd { bits } => f64::from(bits + 1) / 32.0,
        }
    }

    /// The sparsification keep-ratio, if this codec has one (Top-K and
    /// Random-K only).
    pub fn ratio(&self) -> Option<f64> {
        match *self {
            CodecSpec::TopK { ratio } | CodecSpec::RandomK { ratio } => Some(ratio),
            _ => None,
        }
    }

    /// Returns a copy of this spec with its sparsification ratio replaced
    /// by `ratio` — the hook a τ×compression co-adaptive schedule uses.
    /// Non-sparsifying codecs (identity, sign, QSGD) have no continuous
    /// ratio knob and are returned unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is outside `(0, 1]`.
    pub fn with_ratio(self, ratio: f64) -> Self {
        assert!(
            ratio > 0.0 && ratio <= 1.0,
            "sparsification ratio must be in (0, 1], got {ratio}"
        );
        match self {
            CodecSpec::TopK { .. } => CodecSpec::TopK { ratio },
            CodecSpec::RandomK { .. } => CodecSpec::RandomK { ratio },
            other => other,
        }
    }
}

impl Compressor for CodecSpec {
    fn compress_slice(&self, input: &[f32], output: &mut [f32], rng: &mut StdRng) -> usize {
        // Flat kernel timer, live only under telemetry's `profile`
        // feature — this dispatch is the per-worker-per-round codec entry.
        let _t = telemetry::kernel_timer("kernel.codec_compress");
        match *self {
            CodecSpec::Identity => Identity.compress_slice(input, output, rng),
            CodecSpec::TopK { ratio } => TopK::new(ratio).compress_slice(input, output, rng),
            CodecSpec::RandomK { ratio } => RandomK::new(ratio).compress_slice(input, output, rng),
            CodecSpec::Sign => SignOneBit.compress_slice(input, output, rng),
            CodecSpec::Qsgd { bits } => Qsgd::new(bits).compress_slice(input, output, rng),
        }
    }

    fn is_unbiased(&self) -> bool {
        match *self {
            CodecSpec::Identity => Identity.is_unbiased(),
            CodecSpec::TopK { .. } => false,
            CodecSpec::RandomK { .. } => true,
            CodecSpec::Sign => false,
            CodecSpec::Qsgd { .. } => true,
        }
    }

    fn name(&self) -> String {
        match *self {
            CodecSpec::Identity => Identity.name(),
            CodecSpec::TopK { ratio } => TopK::new(ratio).name(),
            CodecSpec::RandomK { ratio } => RandomK::new(ratio).name(),
            CodecSpec::Sign => SignOneBit.name(),
            CodecSpec::Qsgd { bits } => Qsgd::new(bits).name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    const SAMPLE: [f32; 8] = [0.5, -3.0, 0.1, 2.0, -0.2, 0.0, 1.5, -1.0];

    /// Compresses `x` on a fresh `rng()`: the reconstruction and the
    /// payload bytes.
    fn encode(codec: &dyn Compressor, x: &[f32]) -> (Vec<f32>, usize) {
        let mut out = vec![0.0f32; x.len()];
        let bytes = codec.compress_slice(x, &mut out, &mut rng());
        (out, bytes)
    }

    fn l2(v: &[f32]) -> f32 {
        v.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    #[test]
    fn identity_is_lossless_and_full_size() {
        let (out, bytes) = encode(&Identity, &SAMPLE);
        assert_eq!(out, SAMPLE);
        assert_eq!(bytes, 8 * 4);
    }

    #[test]
    fn topk_keeps_largest_and_counts_bytes() {
        let (out, bytes) = encode(&TopK::new(0.25), &SAMPLE);
        // k = ceil(0.25 * 8) = 2 entries: -3.0 and 2.0.
        assert_eq!(bytes, 2 * 8);
        let kept: Vec<f32> = out.iter().copied().filter(|v| *v != 0.0).collect();
        assert_eq!(kept, vec![-3.0, 2.0]);
    }

    #[test]
    fn topk_full_ratio_is_lossless() {
        assert_eq!(encode(&TopK::new(1.0), &SAMPLE).0, SAMPLE);
    }

    #[test]
    fn sparse_payload_never_exceeds_dense() {
        // Above a keep-ratio of 1/2 the value+index encoding would cost
        // more than dense; a real encoder falls back, and so do the bytes.
        let dense = SAMPLE.len() * 4;
        for ratio in [0.75, 1.0] {
            assert_eq!(encode(&TopK::new(ratio), &SAMPLE).1, dense);
            assert_eq!(encode(&RandomK::new(ratio), &SAMPLE).1, dense);
        }
        assert!(encode(&TopK::new(0.5), &SAMPLE).1 <= dense);
    }

    #[test]
    fn randk_keeps_k_scaled_entries() {
        let (out, bytes) = encode(&RandomK::new(0.5), &SAMPLE);
        assert_eq!(bytes, 4 * 8);
        let kept = out.iter().filter(|v| **v != 0.0).count();
        // x itself has one zero entry, which may or may not be sampled.
        assert!(kept <= 4, "kept {kept} of 4 sampled entries");
    }

    #[test]
    fn sign_payload_is_one_bit_per_entry() {
        let (out, bytes) = encode(&SignOneBit, &SAMPLE);
        assert_eq!(bytes, 4 + 1); // scale + 8 bits
        let scale = SAMPLE.iter().map(|v| v.abs()).sum::<f32>() / 8.0;
        for (orig, rec) in SAMPLE.iter().zip(&out) {
            assert_eq!(rec.abs(), scale);
            if *orig != 0.0 {
                assert_eq!(orig.is_sign_negative(), rec.is_sign_negative());
            }
        }
    }

    #[test]
    fn qsgd_respects_norm_bound_and_bytes() {
        let (out, bytes) = encode(&Qsgd::new(4), &SAMPLE);
        assert_eq!(bytes, 4 + 8 * 5 / 8); // norm + 5 bits/entry
        let norm = l2(&SAMPLE);
        for v in &out {
            assert!(v.abs() <= norm * 1.001);
        }
    }

    #[test]
    fn qsgd_buckets_bound_bytes_and_noise() {
        let n = 1030usize;
        let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
        let (out, bytes) = encode(&Qsgd::new(4), &x);
        // 3 buckets of <= 512 entries: 3 norms + 5 bits/entry.
        assert_eq!(bytes, 3 * 4 + (n * 5).div_ceil(8));
        // Each reconstructed entry is bounded by its own bucket's norm,
        // which is far below the whole-tensor norm for n >> bucket.
        let full_norm = l2(&x);
        for (chunk_in, chunk_out) in x.chunks(512).zip(out.chunks(512)) {
            let bucket_norm = chunk_in.iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!(bucket_norm < full_norm);
            for v in chunk_out {
                assert!(v.abs() <= bucket_norm * 1.001);
            }
        }
        // A tiny bucket size degrades gracefully too.
        let fine = encode(&Qsgd::new(4).with_bucket(8), &x).1;
        assert_eq!(fine, n.div_ceil(8) * 4 + (n * 5).div_ceil(8));
    }

    /// An input that reaches every QSGD branch under buckets of 1, 7 and
    /// 512: a run of `±0.0` long enough to give zero-norm buckets, `-0.0`
    /// and tiny negative entries inside non-zero buckets (level 0 on the
    /// negative side), and a length that leaves a short last bucket.
    fn awkward_plane() -> Vec<f32> {
        (0..1030)
            .map(|i| match i {
                512..=1023 if i % 2 == 0 => 0.0,
                512..=1023 => -0.0,
                _ if i % 11 == 0 => -0.0,
                _ if i % 13 == 0 => -1e-30,
                _ => ((i * 37) as f32 * 0.013).sin(),
            })
            .collect()
    }

    fn bits_of(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fused_codecs_match_kernel_pipeline() {
        // The fused slice codecs re-implement the kernels inline for
        // zero-allocation operation; this pins them to the kernel pair so
        // the two copies of the math cannot drift apart. Bits, not values:
        // `-0.0 == 0.0`, so a value compare would miss a sign flip on a
        // zero reconstruction.
        use crate::kernels::{dequantize, pack_signs, quantize_stochastic, unpack_signs};
        let x = awkward_plane();

        // QSGD: same buckets, same RNG stream, same reconstruction, same
        // payload bytes.
        for bits in [1u8, 4, 16] {
            for bucket in [1usize, 7, 512] {
                let q = Qsgd::new(bits).with_bucket(bucket);
                let levels = (1u32 << bits) - 1;
                let mut fused = vec![0.0f32; x.len()];
                let mut fused_rng = rng();
                let bytes = q.compress_slice(&x, &mut fused, &mut fused_rng);
                let mut kernel_rng = rng();
                let mut via_kernels = Vec::with_capacity(x.len());
                for chunk in x.chunks(bucket) {
                    let norm = chunk.iter().map(|v| v * v).sum::<f32>().sqrt();
                    let q = quantize_stochastic(chunk, norm, levels, &mut kernel_rng);
                    via_kernels.extend(dequantize(&q, norm, levels));
                }
                assert_eq!(
                    bits_of(&fused),
                    bits_of(&via_kernels),
                    "qsgd{bits}bit/{bucket} fused loop drifted from kernels"
                );
                assert_eq!(
                    fused_rng, kernel_rng,
                    "qsgd{bits}bit/{bucket} drew a different RNG stream"
                );
                let payload_bits = x.len() * (usize::from(bits) + 1);
                assert_eq!(
                    bytes,
                    x.len().div_ceil(bucket) * 4 + payload_bits.div_ceil(8),
                    "qsgd{bits}bit/{bucket} payload bytes"
                );
            }
        }

        // Sign: same scale, same pack/unpack decode, no RNG draws.
        let mut fused = vec![0.0f32; x.len()];
        let mut fused_rng = rng();
        let _ = SignOneBit.compress_slice(&x, &mut fused, &mut fused_rng);
        let scale = x.iter().map(|v| v.abs()).sum::<f32>() / x.len() as f32;
        let via_kernels = unpack_signs(&pack_signs(&x), x.len(), scale);
        assert_eq!(
            bits_of(&fused),
            bits_of(&via_kernels),
            "sign fused loop drifted from kernels"
        );
        assert_eq!(fused_rng, rng(), "sign drew from the RNG");
    }

    #[test]
    #[should_panic(expected = "invalid quantization norm")]
    fn qsgd_rejects_non_finite_input() {
        let _ = encode(&Qsgd::new(4), &[1.0, f32::INFINITY]);
    }

    #[test]
    fn qsgd_one_bit_still_works() {
        let (out, _) = encode(&Qsgd::new(1), &SAMPLE);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn spec_delegates_to_codecs() {
        let spec = CodecSpec::TopK { ratio: 0.25 };
        assert_eq!(encode(&TopK::new(0.25), &SAMPLE), encode(&spec, &SAMPLE));
        assert_eq!(spec.name(), "topk(0.25)");
        assert!(!spec.is_unbiased());
        assert!(CodecSpec::Qsgd { bits: 4 }.is_unbiased());
    }

    #[test]
    fn spec_ratio_override_only_touches_sparsifiers() {
        assert_eq!(
            CodecSpec::TopK { ratio: 0.5 }.with_ratio(0.1),
            CodecSpec::TopK { ratio: 0.1 }
        );
        assert_eq!(
            CodecSpec::RandomK { ratio: 0.5 }.with_ratio(0.1),
            CodecSpec::RandomK { ratio: 0.1 }
        );
        assert_eq!(CodecSpec::Sign.with_ratio(0.1), CodecSpec::Sign);
        assert_eq!(CodecSpec::Identity.with_ratio(0.1), CodecSpec::Identity);
    }

    #[test]
    fn spec_dispatch_matches_each_codec() {
        // Every `CodecSpec` variant encodes exactly like the codec it
        // describes: same reconstruction bits, payload bytes and RNG
        // stream.
        let x: Vec<f32> = (0..1030).map(|i| ((i * 37) as f32 * 0.013).sin()).collect();
        let cases: [(CodecSpec, &dyn Compressor); 5] = [
            (CodecSpec::Identity, &Identity),
            (CodecSpec::TopK { ratio: 0.05 }, &TopK::new(0.05)),
            (CodecSpec::RandomK { ratio: 0.05 }, &RandomK::new(0.05)),
            (CodecSpec::Sign, &SignOneBit),
            (CodecSpec::Qsgd { bits: 4 }, &Qsgd::new(4)),
        ];
        for (spec, codec) in cases {
            let mut via_spec = vec![0.0f32; x.len()];
            let mut spec_rng = rng();
            let spec_bytes = spec.compress_slice(&x, &mut via_spec, &mut spec_rng);
            let mut direct = vec![0.0f32; x.len()];
            let mut codec_rng = rng();
            let codec_bytes = codec.compress_slice(&x, &mut direct, &mut codec_rng);
            assert_eq!(bits_of(&via_spec), bits_of(&direct), "{}", spec.name());
            assert_eq!(spec_bytes, codec_bytes, "{} byte mismatch", spec.name());
            assert_eq!(spec_rng, codec_rng, "{} RNG stream", spec.name());
            assert_eq!(spec.name(), codec.name());
            assert_eq!(spec.is_unbiased(), codec.is_unbiased());
        }
    }

    #[test]
    #[should_panic(expected = "reconstruction buffer holds")]
    fn slice_entry_point_rejects_bad_output_len() {
        let mut out = vec![0.0f32; 3];
        let _ = Identity.compress_slice(&[1.0, 2.0], &mut out, &mut rng());
    }

    #[test]
    fn payload_fractions_ordered() {
        assert!(
            CodecSpec::Sign.payload_fraction() < CodecSpec::Qsgd { bits: 4 }.payload_fraction()
        );
        assert!(
            CodecSpec::TopK { ratio: 0.01 }.payload_fraction()
                < CodecSpec::Identity.payload_fraction()
        );
    }

    #[test]
    #[should_panic(expected = "ratio must be in (0, 1]")]
    fn zero_ratio_rejected() {
        let _ = TopK::new(0.0);
    }

    #[test]
    #[should_panic(expected = "bits must be in [1, 16]")]
    fn zero_bits_rejected() {
        let _ = Qsgd::new(0);
    }
}
