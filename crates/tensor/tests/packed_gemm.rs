//! Property-based bit-identity tests for the packed GEMM kernels.
//!
//! The panel-tiled kernels in `tensor::matmul` document a reduction
//! order — per output element, a single `f32::mul_add` accumulator in
//! ascending-`k` order — and these properties pin all three entry points
//! to a naive reference implementing exactly that order, bit for bit, on
//! awkward shapes: m/k/n on and around every tile, panel, transpose-strip
//! and reduction-block boundary, m = 1 matvec shapes, k = 0, and
//! ReLU-sparse zero blocks.

use proptest::prelude::*;
use tensor::{matmul_into, matmul_nt_into, matmul_tn_into};

fn vec_of(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-100.0f32..100.0, len)
}

/// The documented reduction order of the packed GEMM kernels: per output
/// element, one `f32::mul_add` accumulator updated in ascending-`k` order.
/// The packed kernels must match this bit for bit on finite inputs.
fn reference_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc = a[i * k + kk].mul_add(b[kk * n + j], acc);
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// An operand strategy sprinkling exact zeros (ReLU-sparse blocks) through
/// otherwise-random values.
fn sparse_vec_of(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(
        prop_oneof![(-100.0f32..100.0).boxed(), proptest::Just(0.0f32).boxed()],
        len,
    )
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Either any size in `any` or one of `edges`, the sizes at which the
/// driver hands over between tile or panel classes.
fn size_with_edges(
    any: std::ops::Range<usize>,
    edges: &'static [usize],
) -> impl Strategy<Value = usize> {
    prop_oneof![
        any.boxed(),
        (0..edges.len()).prop_map(move |i| edges[i]).boxed()
    ]
}

/// Shared body of the shape property: builds operands deterministically
/// from `seed`, optionally zeroing ~a quarter of the entries, and pins
/// all three entry points to the reference bit for bit.
fn check_all_entry_points(m: usize, k: usize, n: usize, seed: u64, sparse: bool) {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state >> 40) as f32 / 1e5) - 0.08
    };
    // Zeroed entries exercise ReLU-sparse blocks: zeros must flow through
    // the FMA chain, not be skipped differently from the reference.
    let mut gen = |len: usize| -> Vec<f32> {
        (0..len)
            .map(|_| {
                let v = next();
                if sparse && v < -0.04 {
                    0.0
                } else {
                    v
                }
            })
            .collect()
    };
    let a = gen(m * k);
    let b = gen(k * n);
    let expected = reference_matmul(&a, &b, m, k, n);

    // Stale output values must be overwritten, so seed with garbage.
    let mut out = vec![f32::NAN; m * n];
    matmul_into(&a, &b, &mut out, m, k, n);
    assert_eq!(bits(&out), bits(&expected), "matmul_into {m}x{k}x{n}");

    // a^T stored as [k, m]: at[kk*m + i] = a[i*k + kk].
    let mut at = vec![0.0f32; k * m];
    for i in 0..m {
        for kk in 0..k {
            at[kk * m + i] = a[i * k + kk];
        }
    }
    let mut out_tn = vec![f32::NAN; m * n];
    matmul_tn_into(&at, &b, &mut out_tn, k, m, n);
    assert_eq!(bits(&out_tn), bits(&expected), "matmul_tn_into {m}x{k}x{n}");

    // b^T stored as [n, k]: bt[j*k + kk] = b[kk*n + j].
    let mut bt = vec![0.0f32; n * k];
    for kk in 0..k {
        for j in 0..n {
            bt[j * k + kk] = b[kk * n + j];
        }
    }
    let mut out_nt = vec![f32::NAN; m * n];
    matmul_nt_into(&a, &bt, &mut out_nt, m, k, n);
    assert_eq!(bits(&out_nt), bits(&expected), "matmul_nt_into {m}x{k}x{n}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Bit-identity on awkward shapes: half the draws land m/k/n exactly on
    // a hand-off of the driver — a row tail after a 4-row tile, the
    // 64 → 32 → 16 → padded-tail panel sequence, `tn` reading its last four
    // columns (including m = 1 matvec shapes and k = 0) — and all three
    // entry points must agree with the documented ascending-k FMA
    // reduction exactly, not approximately.
    #[test]
    fn packed_kernels_bit_match_reference(
        m in 1usize..20,
        k in size_with_edges(0..70, &[0, 1, 3, 4, 5, 9, 15, 17, 32, 257]),
        n in size_with_edges(
            1..70,
            &[1, 9, 15, 16, 17, 31, 32, 33, 47, 48, 49, 63, 64, 65, 80, 96, 100, 112, 127, 128, 129],
        ),
        seed in 0u64..1 << 48,
        sparse_flag in 0usize..2,
    ) {
        check_all_entry_points(m, k, n, seed, sparse_flag == 1);
    }

    // Reductions around the driver's 96-step block: one step short, one
    // block, one step over (a one-step second block) and two blocks and a
    // step. Every block after the first starts from the partial rows the
    // one before stored, in every panel class and on the padded tail.
    #[test]
    fn packed_kernels_bit_match_across_reduction_blocks(
        m in 4usize..12,
        k in (0usize..4).prop_map(|i| [95, 96, 97, 193][i]),
        n in (0usize..4).prop_map(|i| [16, 64, 100, 129][i]),
        seed in 0u64..1 << 48,
        sparse_flag in 0usize..2,
    ) {
        check_all_entry_points(m, k, n, seed, sparse_flag == 1);
    }

    // Whole zero k-blocks (the ReLU-saturated case the PR 4 kernels
    // special-cased) reduce exactly like the reference.
    #[test]
    fn packed_kernels_bit_match_on_zero_blocks(
        a in sparse_vec_of(9 * 24),
        b in vec_of(24 * 33),
    ) {
        let (m, k, n) = (9usize, 24usize, 33usize);
        let expected = reference_matmul(&a, &b, m, k, n);
        let mut out = vec![f32::NAN; m * n];
        matmul_into(&a, &b, &mut out, m, k, n);
        prop_assert_eq!(&out, &expected);
    }
}
