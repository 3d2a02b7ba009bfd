//! Low-level compression kernels: Top-K selection, sign bit packing and
//! stochastic quantization.
//!
//! The codecs ([`crate::TopK`], [`crate::SignOneBit`], [`crate::Qsgd`])
//! are thin wrappers around these functions; they are exported separately
//! so the micro-benchmarks can time each kernel in isolation.

use rand::rngs::StdRng;
use rand::Rng;

/// Sample stride of the Top-K candidate floor: every 32nd magnitude.
const FLOOR_STRIDE: usize = 32;

/// Entries the Top-K candidate pass compares into one `u64` mask.
const COLLECT_BLOCK: usize = 64;

/// Returns the indices of the `k` largest-magnitude entries of `x`,
/// sorted ascending.
///
/// The order is total: integer magnitude (the bits with the sign cleared)
/// descending, then index ascending. For finite values and `±0` that is
/// exactly the order of `abs()`; `±inf` ranks above every finite value and
/// NaN above `±inf`. Ties therefore go to the lower index, which makes the
/// selection — and Top-K compression — deterministic and idempotent.
///
/// The select runs only among candidates. A fixed-stride sample of the
/// magnitudes (every 32nd entry) sets a floor: the sample's
/// `⌈4k·s/n⌉`-th largest magnitude, for a sample of `s`. One pass collects
/// the `(!magnitude, index)` keys at or above the floor — about `4k` of
/// them — and `select_nth_unstable` picks the `k` smallest keys among
/// those. Every entry below the floor ranks after every candidate, so
/// when at least `k` entries pass, the top `k` are all candidates. When
/// fewer pass, the collection reruns with floor 0, which takes every
/// entry. Cost: `O(n)` for the sample and the collecting pass, plus the
/// select over the candidates and an `O(k log k)` sort of the result.
///
/// # Panics
///
/// Panics if `k == 0` or `k > x.len()`.
pub fn top_k_indices(x: &[f32], k: usize) -> Vec<u32> {
    assert!(k >= 1, "k must be at least 1");
    assert!(k <= x.len(), "k = {k} exceeds length {}", x.len());
    let mut keys = Vec::with_capacity((4 * k).min(x.len()));
    collect_candidates(x, candidate_floor(x, k), &mut keys);
    if keys.len() < k {
        collect_candidates(x, 0, &mut keys);
    }
    if k < keys.len() {
        keys.select_nth_unstable(k - 1);
        keys.truncate(k);
    }
    let mut order: Vec<u32> = keys.iter().map(|&key| key as u32).collect();
    order.sort_unstable();
    order
}

/// Replaces `keys` with the `(!magnitude, index)` key of every entry of
/// `x` whose magnitude is at least `floor`, in index order. Each block of
/// [`COLLECT_BLOCK`] entries is compared at once into a bit mask, and only
/// its set bits are visited.
fn collect_candidates(x: &[f32], floor: u32, keys: &mut Vec<u64>) {
    let key = |i: usize, v: f32| (u64::from(!magnitude(v)) << 32) | i as u64;
    keys.clear();
    let mut blocks = x.chunks_exact(COLLECT_BLOCK);
    let mut base = 0usize;
    for block in &mut blocks {
        let block: &[f32; COLLECT_BLOCK] = block.try_into().expect("exact chunk");
        let mut hits = 0u64;
        for (j, &v) in block.iter().enumerate() {
            hits |= u64::from(magnitude(v) >= floor) << j;
        }
        while hits != 0 {
            let j = hits.trailing_zeros() as usize;
            keys.push(key(base + j, block[j]));
            hits &= hits - 1;
        }
        base += COLLECT_BLOCK;
    }
    for (j, &v) in blocks.remainder().iter().enumerate() {
        if magnitude(v) >= floor {
            keys.push(key(base + j, v));
        }
    }
}

/// The integer magnitude Top-K ranks by: the bits with the sign cleared.
fn magnitude(v: f32) -> u32 {
    v.to_bits() & 0x7FFF_FFFF
}

/// The Top-K candidate floor: the `⌈4k·s/n⌉`-th largest magnitude of every
/// [`FLOOR_STRIDE`]-th entry (`s` of them), or 0 when that rank exceeds
/// the sample.
fn candidate_floor(x: &[f32], k: usize) -> u32 {
    let mut sample: Vec<u32> = x
        .iter()
        .step_by(FLOOR_STRIDE)
        .map(|&v| magnitude(v))
        .collect();
    let rank = (4 * k * sample.len()).div_ceil(x.len());
    if rank > sample.len() {
        return 0;
    }
    *sample.select_nth_unstable_by(rank - 1, |a, b| b.cmp(a)).1
}

/// Packs the signs of `x` into 64-bit words, least-significant bit first.
/// A set bit means the entry is negative; zero packs as non-negative.
pub fn pack_signs(x: &[f32]) -> Vec<u64> {
    let mut words = vec![0u64; x.len().div_ceil(64)];
    for (i, &v) in x.iter().enumerate() {
        if v.is_sign_negative() && v != 0.0 {
            words[i / 64] |= 1u64 << (i % 64);
        }
    }
    words
}

/// Unpacks `n` signs from `words` (see [`pack_signs`]) into `±scale`
/// values.
///
/// # Panics
///
/// Panics if `words` holds fewer than `n` bits.
pub fn unpack_signs(words: &[u64], n: usize, scale: f32) -> Vec<f32> {
    assert!(
        words.len() * 64 >= n,
        "need {n} bits but only {} packed",
        words.len() * 64
    );
    (0..n)
        .map(|i| {
            if words[i / 64] >> (i % 64) & 1 == 1 {
                -scale
            } else {
                scale
            }
        })
        .collect()
}

/// Stochastically quantizes `x` onto `levels + 1` uniform magnitude levels
/// per sign, QSGD-style: entry `x_i` with `p = |x_i|/norm · levels` rounds
/// down to `⌊p⌋` with probability `1 − (p − ⌊p⌋)` and up otherwise, so the
/// reconstruction [`dequantize`] is unbiased.
///
/// Returns the per-entry levels; negative entries get negative levels.
/// `norm` should be the tensor's `ℓ2` norm (or any positive scale bounding
/// `|x_i|`); a zero `norm` quantizes everything to level 0.
///
/// # Panics
///
/// Panics if `levels == 0` or `norm` is negative/non-finite.
pub fn quantize_stochastic(x: &[f32], norm: f32, levels: u32, rng: &mut StdRng) -> Vec<i32> {
    assert!(levels >= 1, "need at least one quantization level");
    assert!(
        norm >= 0.0 && norm.is_finite(),
        "invalid quantization norm {norm}"
    );
    if norm == 0.0 {
        return vec![0; x.len()];
    }
    x.iter()
        .map(|&v| {
            let p = (v.abs() / norm).min(1.0) * levels as f32;
            let lo = p.floor();
            let level = if rng.gen::<f32>() < p - lo {
                lo as i32 + 1
            } else {
                lo as i32
            };
            if v < 0.0 {
                -level
            } else {
                level
            }
        })
        .collect()
}

/// Reconstructs quantized values: level `ℓ` maps to `norm · ℓ / levels`.
///
/// # Panics
///
/// Panics if `levels == 0`.
pub fn dequantize(levels_per_entry: &[i32], norm: f32, levels: u32) -> Vec<f32> {
    assert!(levels >= 1, "need at least one quantization level");
    levels_per_entry
        .iter()
        .map(|&l| norm * l as f32 / levels as f32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// The full select [`top_k_indices`] replaced: every index in one
    /// vector, `select_nth_unstable_by_key` over all `n` of them with the
    /// same `(!magnitude, index)` key. The reference for the candidate
    /// select.
    fn top_k_reference(x: &[f32], k: usize) -> Vec<u32> {
        let mut order: Vec<u32> = (0..x.len() as u32).collect();
        let key = |&i: &u32| {
            let magnitude = x[i as usize].to_bits() & 0x7FFF_FFFF;
            ((!magnitude as u64) << 32) | u64::from(i)
        };
        if k < x.len() {
            order.select_nth_unstable_by_key(k - 1, key);
            order.truncate(k);
        }
        order.sort_unstable();
        order
    }

    /// Entries mixing ordinary values with ties, `±0`, `±inf`, NaNs of
    /// both signs and subnormals.
    fn awkward_entry() -> impl Strategy<Value = f32> {
        (0usize..16, -4.0f32..4.0).prop_map(|(pick, v)| match pick {
            0 => 0.0,
            1 => -0.0,
            2 => f32::INFINITY,
            3 => f32::NEG_INFINITY,
            4 => f32::NAN,
            5 => -f32::NAN,
            6 => f32::from_bits(1),
            7 => -f32::from_bits(3),
            8 => v * 1e-39,
            9 => 1.0,
            10 => -1.0,
            _ => v,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn top_k_matches_full_select(
            x in proptest::collection::vec(awkward_entry(), 1..5001),
            finite in proptest::collection::vec(-4.0f32..4.0, 1..5001),
            short in proptest::collection::vec(awkward_entry(), 1..100),
        ) {
            for x in [&x, &finite, &short] {
                let n = x.len();
                for k in [1, n.div_ceil(100), n / 2, n] {
                    if k == 0 {
                        continue;
                    }
                    prop_assert_eq!(
                        top_k_indices(x, k),
                        top_k_reference(x, k),
                        "n = {}, k = {}",
                        n,
                        k
                    );
                }
            }
        }
    }

    #[test]
    fn top_k_reruns_below_a_sampled_floor_that_admits_too_few() {
        // Only the sampled entries (every 32nd) are large, so the floor —
        // the 4th largest of the 100 sampled — admits 4 entries for k = 32
        // and the collection reruns at floor 0.
        let x: Vec<f32> = (0..3200)
            .map(|i| {
                if i % FLOOR_STRIDE == 0 {
                    100.0 + i as f32
                } else {
                    1e-3 * (i % 7) as f32
                }
            })
            .collect();
        let k = 32;
        let floor = candidate_floor(&x, k);
        let admitted = x.iter().filter(|&&v| magnitude(v) >= floor).count();
        assert!(admitted < k, "the floor admits {admitted} of k = {k}");
        assert_eq!(top_k_indices(&x, k), top_k_reference(&x, k));
    }

    #[test]
    fn top_k_finds_largest_magnitudes() {
        let x = [0.1, -5.0, 2.0, -0.3, 4.0];
        assert_eq!(top_k_indices(&x, 2), vec![1, 4]);
        assert_eq!(top_k_indices(&x, 5), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn top_k_breaks_ties_by_index() {
        let x = [1.0, -1.0, 1.0];
        assert_eq!(top_k_indices(&x, 2), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "exceeds length")]
    fn top_k_rejects_oversized_k() {
        let _ = top_k_indices(&[1.0], 2);
    }

    #[test]
    fn signs_roundtrip() {
        let x = [1.5, -0.25, 0.0, -7.0, 3.0];
        let packed = pack_signs(&x);
        let back = unpack_signs(&packed, x.len(), 2.0);
        assert_eq!(back, vec![2.0, -2.0, 2.0, -2.0, 2.0]);
    }

    #[test]
    fn signs_pack_across_word_boundaries() {
        let x: Vec<f32> = (0..130)
            .map(|i| if i % 3 == 0 { -1.0 } else { 1.0 })
            .collect();
        let packed = pack_signs(&x);
        assert_eq!(packed.len(), 3);
        let back = unpack_signs(&packed, x.len(), 1.0);
        for (i, v) in back.iter().enumerate() {
            assert_eq!(*v < 0.0, i % 3 == 0, "sign mismatch at {i}");
        }
    }

    #[test]
    fn quantize_is_unbiased_on_average() {
        let mut rng = StdRng::seed_from_u64(0);
        let x = [0.3f32, -0.7, 0.5];
        let norm = 1.0;
        let n = 20_000;
        let mut sums = [0.0f64; 3];
        for _ in 0..n {
            let q = quantize_stochastic(&x, norm, 4, &mut rng);
            let d = dequantize(&q, norm, 4);
            for (s, v) in sums.iter_mut().zip(d.iter()) {
                *s += f64::from(*v);
            }
        }
        for (s, v) in sums.iter().zip(x.iter()) {
            let mean = s / f64::from(n);
            assert!(
                (mean - f64::from(*v)).abs() < 0.01,
                "biased reconstruction: {mean} vs {v}"
            );
        }
    }

    #[test]
    fn quantize_zero_norm_gives_zero_levels() {
        let mut rng = StdRng::seed_from_u64(1);
        let q = quantize_stochastic(&[1.0, -1.0], 0.0, 4, &mut rng);
        assert_eq!(q, vec![0, 0]);
    }

    #[test]
    fn dequantize_maps_levels_linearly() {
        assert_eq!(dequantize(&[0, 2, -4], 2.0, 4), vec![0.0, 1.0, -2.0]);
    }
}
