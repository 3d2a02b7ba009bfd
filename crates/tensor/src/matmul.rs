//! Matrix-multiplication kernels: a panel-tiled GEMM over the crate's one
//! register tile.
//!
//! All three transpose combinations needed for dense-layer backpropagation
//! are provided so callers never have to materialise an explicit transpose:
//!
//! * forward:            `y = x · W`           — [`Tensor::matmul`]
//! * weight gradient:    `dW = xᵀ · dy`        — [`Tensor::matmul_tn`]
//! * input gradient:     `dx = dy · Wᵀ`        — [`Tensor::matmul_nt`]
//!
//! # Design
//!
//! One driver walks the output in column panels — 32 wide, then at most
//! one of 16, then at most one zero-padded panel for the last `n % 16`
//! columns — and runs every panel through `tile.rs`: register tiles of
//! 4 rows × the panel width, then single rows, each tile's accumulators
//! held in registers across the whole reduction. So every output shape,
//! including `m < 4`, `n < 16` and the classifier heads that are no
//! multiple of anything, takes the same constant-width loops. The entry
//! points differ only in how a reduction step's operands are read:
//!
//! * **Left operand** — never packed. `a · …` gathers one scalar from each
//!   of a tile's four row slices; `aᵀ · …` finds a step's four values
//!   adjacent in the row-major `[k, m]` operand and reads them in place.
//! * **Right operand** — a row-major `[k, n]` operand is read in place,
//!   panel by panel; only its sub-16 column tail is copied, zero-padded to
//!   width 16, into a reused thread-local panel buffer. `· bᵀ` transposes
//!   each panel of its `[n, k]` operand into that same buffer right before
//!   the panel is consumed, so the scratch footprint is one `k × 32` panel
//!   and no whole matrix is ever materialised.
//!
//! Convolution does not come through here: its im2col operand is an offset
//! table over a flat buffer; see `window.rs`, which drives the same tile.
//!
//! # Bit-exactness contract
//!
//! Every output element is reduced with a **single accumulator in
//! ascending-`k` order via fused multiply-add** (`f32::mul_add`, one
//! rounding per term instead of two). Panel widths and tile heights change
//! which elements are computed together, never the sequence of float
//! operations per element — so results are bit-identical to the FMA-folded
//! textbook three-loop kernel at any vector width, on any machine with
//! hardware FMA, and (because each GEMM call is single-threaded with
//! thread-local scratch) on any thread count or pool size. The
//! golden-trace fixtures in the simulator crate and every figure CSV pin
//! this. Inputs that have already diverged to inf/NaN carry no bit
//! contract (zero-padded tail lanes can turn `0·inf` into `NaN` in
//! *discarded* lanes only; valid elements never mix with padding).
//!
//! The `*_into` free functions are the allocation-free entry points used
//! by the `nn` layer workspaces; the `Tensor` methods wrap them with a
//! fresh output buffer.

use crate::tile::{matrix_rows, panel_rows, LeftCols, LeftRows, LeftSteps};
use crate::{Result, Tensor, TensorError};
use std::cell::RefCell;

thread_local! {
    /// The reused right-operand panel buffer; grows to the longest
    /// reduction seen on this thread, so steady-state GEMMs allocate
    /// nothing.
    static PANEL_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// How the driver reads the right operand, a logical `[k, n]` matrix.
#[derive(Clone, Copy)]
enum Rhs<'a> {
    /// Stored row-major `[k, n]`: full-width panels are read in place.
    Rows(&'a [f32]),
    /// Stored row-major `[n, k]` (the `· bᵀ` case): every panel is
    /// transposed into the panel buffer.
    Transposed(&'a [f32]),
}

impl Rhs<'_> {
    /// Packs logical columns `j0..j0 + width` into `dst` in panel layout:
    /// element `(kk, j0 + jj)` lands at `dst[kk * nr + jj]`.
    ///
    /// `dst` has `k * nr` slots and every one is written (the `width..nr`
    /// column pad with zeros), because the buffer is reused across calls.
    fn pack_panel(self, k: usize, n: usize, j0: usize, width: usize, nr: usize, dst: &mut [f32]) {
        if width < nr {
            dst.fill(0.0);
        }
        match self {
            Rhs::Rows(b) => {
                for (row, b_row) in dst.chunks_exact_mut(nr).zip(b.chunks_exact(n)) {
                    row[..width].copy_from_slice(&b_row[j0..j0 + width]);
                }
            }
            // Read `b` rows contiguously, scatter into the panel at
            // stride `nr`.
            Rhs::Transposed(b) => {
                for (jj, b_row) in b[j0 * k..(j0 + width) * k].chunks_exact(k).enumerate() {
                    for (kk, &v) in b_row.iter().enumerate() {
                        dst[kk * nr + jj] = v;
                    }
                }
            }
        }
    }
}

/// The panel driver shared by every entry point: `out = left · rhs` for
/// `m` output rows, reduction length `k` and `n` output columns.
fn gemm(left: impl LeftSteps, rhs: Rhs<'_>, out: &mut [f32], m: usize, k: usize, n: usize) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    PANEL_SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        let mut j0 = 0;
        while j0 < n {
            // `w` valid columns computed as an `nb`-wide panel; they
            // differ only on the zero-padded sub-16 tail.
            let w = match n - j0 {
                32.. => 32,
                16.. => 16,
                tail => tail,
            };
            let nb = w.max(16);
            let (b, stride, at) = match rhs {
                Rhs::Rows(b) if w == nb => (b, n, j0),
                _ => {
                    if scratch.len() < k * nb {
                        scratch.resize(k * nb, 0.0);
                    }
                    let panel = &mut scratch[..k * nb];
                    rhs.pack_panel(k, n, j0, w, nb, panel);
                    (&*panel, nb, 0)
                }
            };
            // Full panels store at constant width; only the tail pays for
            // a variable-width copy.
            match (nb, w) {
                (32, _) => panel_rows::<32>(left, m, matrix_rows(b, stride, at), |i, row| {
                    out[i * n + j0..][..32].copy_from_slice(row)
                }),
                (_, 16) => panel_rows::<16>(left, m, matrix_rows(b, stride, at), |i, row| {
                    out[i * n + j0..][..16].copy_from_slice(row)
                }),
                _ => panel_rows::<16>(left, m, matrix_rows(b, stride, at), |i, row| {
                    out[i * n + j0..][..w].copy_from_slice(&row[..w])
                }),
            }
            j0 += w;
        }
    });
}

/// Writes `a · b` into `out` for row-major `a: [m, k]`, `b: [k, n]`,
/// `out: [m, n]`, overwriting `out` entirely.
///
/// # Panics
///
/// Panics if any slice length disagrees with its dimensions.
pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let _t = telemetry::kernel_timer("kernel.gemm_nn");
    check_len("a", a.len(), m, k);
    check_len("b", b.len(), k, n);
    check_len("out", out.len(), m, n);
    gemm(LeftRows { a, k }, Rhs::Rows(b), out, m, k, n);
}

/// Writes `aᵀ · b` into `out` for row-major `a: [k, m]`, `b: [k, n]`,
/// `out: [m, n]`, overwriting `out` entirely.
///
/// # Panics
///
/// Panics if any slice length disagrees with its dimensions.
pub fn matmul_tn_into(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize, n: usize) {
    let _t = telemetry::kernel_timer("kernel.gemm_tn");
    check_len("a", a.len(), k, m);
    check_len("b", b.len(), k, n);
    check_len("out", out.len(), m, n);
    gemm(LeftCols { a, m }, Rhs::Rows(b), out, m, k, n);
}

/// Writes `a · bᵀ` into `out` for row-major `a: [m, k]`, `b: [n, k]`,
/// `out: [m, n]`, overwriting `out` entirely.
///
/// # Panics
///
/// Panics if any slice length disagrees with its dimensions.
pub fn matmul_nt_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let _t = telemetry::kernel_timer("kernel.gemm_nt");
    check_len("a", a.len(), m, k);
    check_len("b", b.len(), n, k);
    check_len("out", out.len(), m, n);
    gemm(LeftRows { a, k }, Rhs::Transposed(b), out, m, k, n);
}

pub(crate) fn check_len(name: &str, len: usize, rows: usize, cols: usize) {
    assert_eq!(
        len,
        rows * cols,
        "{name} slice holds {len} values but the shape is {rows}x{cols}"
    );
}

impl Tensor {
    /// Matrix product `self · other` for rank-2 tensors.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not rank-2 or the inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        self.try_matmul(other)
            .unwrap_or_else(|e| panic!("matmul failed: {e}"))
    }

    /// Checked matrix product `self · other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if either operand is not rank-2
    /// and [`TensorError::MatmulDimMismatch`] if the inner dimensions differ.
    pub fn try_matmul(&self, other: &Tensor) -> Result<Tensor> {
        let (m, k) = rank2_dims(self)?;
        let (k2, n) = rank2_dims(other)?;
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                left: (m, k),
                right: (k2, n),
            });
        }
        let mut out = vec![0.0f32; m * n];
        matmul_into(self.as_slice(), other.as_slice(), &mut out, m, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    /// `selfᵀ · other` without materialising the transpose.
    ///
    /// For `self: [k, m]` and `other: [k, n]` the result is `[m, n]`.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not rank-2 or the shared dimension differs.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let (k, m) = rank2_dims(self).unwrap_or_else(|e| panic!("matmul_tn: {e}"));
        let (k2, n) = rank2_dims(other).unwrap_or_else(|e| panic!("matmul_tn: {e}"));
        assert_eq!(
            k,
            k2,
            "matmul_tn shared dimension mismatch: {k} vs {k2} (shapes {} and {})",
            self.shape(),
            other.shape()
        );
        let mut out = vec![0.0f32; m * n];
        matmul_tn_into(self.as_slice(), other.as_slice(), &mut out, k, m, n);
        Tensor::from_vec(out, &[m, n]).expect("internal: shape volume matches")
    }

    /// `self · otherᵀ` without materialising the transpose.
    ///
    /// For `self: [m, k]` and `other: [n, k]` the result is `[m, n]`.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not rank-2 or the shared dimension differs.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let (m, k) = rank2_dims(self).unwrap_or_else(|e| panic!("matmul_nt: {e}"));
        let (n, k2) = rank2_dims(other).unwrap_or_else(|e| panic!("matmul_nt: {e}"));
        assert_eq!(
            k,
            k2,
            "matmul_nt shared dimension mismatch: {k} vs {k2} (shapes {} and {})",
            self.shape(),
            other.shape()
        );
        let mut out = vec![0.0f32; m * n];
        matmul_nt_into(self.as_slice(), other.as_slice(), &mut out, m, k, n);
        Tensor::from_vec(out, &[m, n]).expect("internal: shape volume matches")
    }

    /// Matrix–vector product `self · v` for `self: [m, k]`, `v: [k]`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not rank-2 or the dimensions disagree.
    pub fn matvec(&self, v: &Tensor) -> Tensor {
        let (m, k) = rank2_dims(self).unwrap_or_else(|e| panic!("matvec: {e}"));
        assert_eq!(
            v.len(),
            k,
            "matvec dimension mismatch: matrix has {k} columns, vector has {} elements",
            v.len()
        );
        let a = self.as_slice();
        let x = v.as_slice();
        let mut out = vec![0.0f32; m];
        for i in 0..m {
            let row = &a[i * k..(i + 1) * k];
            // Same FMA-folded ascending-k reduction as the GEMM kernels.
            out[i] = row
                .iter()
                .zip(x.iter())
                .fold(0.0f32, |acc, (&av, &xv)| av.mul_add(xv, acc));
        }
        Tensor::from_slice(&out)
    }
}

fn rank2_dims(t: &Tensor) -> Result<(usize, usize)> {
    if t.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: t.shape().rank(),
        });
    }
    Ok((t.shape().dim(0), t.shape().dim(1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(data: &[f32], r: usize, c: usize) -> Tensor {
        Tensor::from_vec(data.to_vec(), &[r, c]).unwrap()
    }

    /// The FMA-folded textbook i-k-j kernel the packed ones must match
    /// bit-for-bit (one `mul_add` per term, ascending `k`).
    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                let av = a.as_slice()[i * k + kk];
                for j in 0..n {
                    let o = &mut out[i * n + j];
                    *o = av.mul_add(b.as_slice()[kk * n + j], *o);
                }
            }
        }
        Tensor::from_vec(out, &[m, n]).unwrap()
    }

    #[test]
    fn matmul_2x3_times_3x2() {
        let a = mat(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        let b = mat(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], 3, 2);
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = mat(&[1.0, 2.0, 3.0, 4.0], 2, 2);
        assert_eq!(a.matmul(&Tensor::eye(2)), a);
        assert_eq!(Tensor::eye(2).matmul(&a), a);
    }

    #[test]
    fn try_matmul_rejects_bad_dims() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(matches!(
            a.try_matmul(&b),
            Err(TensorError::MatmulDimMismatch { .. })
        ));
        let v = Tensor::zeros(&[3]);
        assert!(matches!(
            a.try_matmul(&v),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = mat(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3, 2);
        let b = mat(&[1.0, 0.0, 2.0, 1.0, 0.0, 3.0], 3, 2);
        let expected = a.transpose().matmul(&b);
        assert_eq!(a.matmul_tn(&b), expected);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = mat(&[1.0, 2.0, 3.0, 4.0], 2, 2);
        let b = mat(&[5.0, 6.0, 7.0, 8.0, 9.0, 10.0], 3, 2);
        let expected = a.matmul(&b.transpose());
        assert_eq!(a.matmul_nt(&b), expected);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = mat(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        let v = Tensor::from_slice(&[1.0, 0.5, 2.0]);
        let got = a.matvec(&v);
        let expected = a.matmul(&v.reshape(&[3, 1]));
        assert_eq!(got.as_slice(), expected.as_slice());
    }

    #[test]
    fn matmul_with_zero_rows() {
        let a = Tensor::zeros(&[0, 3]);
        let b = Tensor::zeros(&[3, 4]);
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[0, 4]);
        assert!(c.is_empty());
    }

    #[test]
    fn matmul_with_zero_k_is_all_zeros() {
        // k = 0: the driver never runs the panel core and must still
        // overwrite stale output with zeros.
        let a = Tensor::zeros(&[3, 0]);
        let b = Tensor::zeros(&[0, 5]);
        let mut out = vec![7.0f32; 15];
        matmul_into(a.as_slice(), b.as_slice(), &mut out, 3, 0, 5);
        assert_eq!(out, vec![0.0; 15]);
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn packed_kernels_are_bit_identical_to_naive() {
        // Every hand-off in the driver: a row tail after a 4-row tile and
        // rows that never fill one (m), the 32 → 16 → padded-tail panel
        // sequence with each class present and absent (n), and reductions
        // of nothing, one step, and lengths around a multiple of four (k).
        // For `tn`, m = 4 and m = 8 read `a[kk][i..i + 4]` with `i + 4 == m`.
        // Dense and ReLU-sparse (about half the entries exactly zero).
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 40) as f32 / 1e5 - 0.08
        };
        let edges = (1..=9).flat_map(|m| {
            [0, 1, 3, 4, 5, 32, 257].into_iter().flat_map(move |k| {
                [1, 15, 16, 17, 31, 32, 33, 47, 48, 49, 63, 64, 65, 80, 100]
                    .into_iter()
                    .map(move |n| (m, k, n))
            })
        });
        // Larger shapes: many row tiles per panel, many panels per row.
        let large = [(33, 31, 64), (16, 256, 40), (2, 3, 130), (32, 37, 10)];
        for (m, k, n) in edges.chain(large) {
            for sparse in [false, true] {
                let mut gen = |len: usize| -> Vec<f32> {
                    (0..len)
                        .map(|_| next())
                        .map(|v| if sparse && v < 0.0 { 0.0 } else { v })
                        .collect()
                };
                let a = Tensor::from_vec(gen(m * k), &[m, k]).unwrap();
                let b = Tensor::from_vec(gen(k * n), &[k, n]).unwrap();
                let naive = bits(naive_matmul(&a, &b).as_slice());
                let case = format!("shape {m}x{k}x{n}, sparse {sparse}");
                assert_eq!(bits(a.matmul(&b).as_slice()), naive, "nn {case}");
                // tn/nt agree with their transpose definitions bitwise too:
                // per-element single-accumulator ascending-k order all around.
                let at = a.transpose();
                assert_eq!(bits(at.matmul_tn(&b).as_slice()), naive, "tn {case}");
                let bt = b.transpose();
                assert_eq!(bits(a.matmul_nt(&bt).as_slice()), naive, "nt {case}");
            }
        }
    }

    #[test]
    fn stale_panel_scratch_never_reaches_a_valid_lane() {
        // The panel buffer is reused across calls on a thread. Fill it with
        // a long, wide `nt` product, then run small products whose panels
        // are packed (a padded column tail; every `nt` panel) and compare
        // them with the same products on a thread whose buffer is new.
        fn small_products() -> Vec<u32> {
            let a: Vec<f32> = (0..5 * 7).map(|i| i as f32 * 0.37 - 6.0).collect();
            let b: Vec<f32> = (0..7 * 19).map(|i| 4.0 - i as f32 * 0.11).collect();
            let mut tailed = vec![f32::NAN; 5 * 3];
            matmul_into(&a, &b[..7 * 3], &mut tailed, 5, 7, 3);
            let mut tn = vec![f32::NAN; 7 * 3];
            matmul_tn_into(&a, &b[..5 * 3], &mut tn, 5, 7, 3);
            let mut nt = vec![f32::NAN; 5 * 19];
            matmul_nt_into(&a, &b, &mut nt, 5, 7, 19);
            bits(&[tailed, tn, nt].concat())
        }
        let (m, k, n) = (8, 300, 40);
        let a = vec![1.5f32; m * k];
        let b = vec![-2.5f32; n * k];
        let mut out = vec![0.0f32; m * n];
        matmul_nt_into(&a, &b, &mut out, m, k, n);
        let reused = small_products();
        let fresh = std::thread::spawn(small_products).join().unwrap();
        assert_eq!(reused, fresh);
    }

    #[test]
    fn sparse_left_operand_matches_naive() {
        // A ReLU-sparse left operand: whole k-blocks of zeros must reduce
        // exactly like the dense path (zeros flow through the FMA chain).
        let mut a = Tensor::zeros(&[2, 8]);
        a.as_mut_slice()[5] = 2.0;
        a.as_mut_slice()[8] = -1.5;
        let b = mat(
            &(0..8 * 3)
                .map(|i| (i as f32) * 0.25 - 1.0)
                .collect::<Vec<_>>(),
            8,
            3,
        );
        assert_eq!(a.matmul(&b), naive_matmul(&a, &b));
    }

    #[test]
    fn into_kernels_overwrite_stale_output() {
        let a = mat(&[1.0, 2.0, 3.0, 4.0], 2, 2);
        let b = Tensor::eye(2);
        let mut out = vec![99.0f32; 4];
        matmul_into(a.as_slice(), b.as_slice(), &mut out, 2, 2, 2);
        assert_eq!(out, a.as_slice());
        let mut out_nt = vec![-7.0f32; 4];
        matmul_nt_into(a.as_slice(), b.as_slice(), &mut out_nt, 2, 2, 2);
        assert_eq!(out_nt, a.as_slice());
        let mut out_tn = vec![3.5f32; 4];
        matmul_tn_into(b.as_slice(), a.as_slice(), &mut out_tn, 2, 2, 2);
        assert_eq!(out_tn, a.as_slice());
    }

    #[test]
    #[should_panic(expected = "slice holds")]
    fn into_kernel_rejects_bad_lengths() {
        let mut out = vec![0.0f32; 3];
        matmul_into(&[1.0, 2.0], &[1.0, 2.0], &mut out, 2, 1, 2);
    }
}
