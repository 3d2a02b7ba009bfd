//! Matrix-multiplication kernels: a packed-panel GEMM with pack-on-demand
//! operands.
//!
//! All three transpose combinations needed for dense-layer backpropagation
//! are provided so callers never have to materialise an explicit transpose:
//!
//! * forward:            `y = x · W`           — [`Tensor::matmul`]
//! * weight gradient:    `dW = xᵀ · dy`        — [`Tensor::matmul_tn`]
//! * input gradient:     `dx = dy · Wᵀ`        — [`Tensor::matmul_nt`]
//!
//! # Packed-panel design
//!
//! One register-blocked core ([`accumulate_panel`]) computes an
//! `R × NB` output tile from four ascending-`k` slices per pass, with the
//! row count `R ∈ {4, 2, 1}` and panel width `NB ∈ {64, 32, 16}` selected
//! by dispatch so every output shape runs through constant-width loops
//! (the PR 4 kernels fell back to a slow runtime-width tail for
//! `n % 64 != 0`, which is every classifier head in the workspace).
//! Operands are *packed on demand* into reused thread-local scratch:
//!
//! * **A micro-panels** — the `ᵀ·` entry packs the left operand into
//!   `MR`-tall column-major micro-panels (`apack[bi·MR·k + kk·MR + r]`)
//!   so the kernel's per-`k` reads are contiguous; the strided access
//!   happens once, in the packer. Row-major left operands are read
//!   directly — packing them would only relocate already-contiguous rows.
//! * **B micro-panels** — the `·ᵀ` entry packs the right operand into
//!   `NB`-wide row-major micro-panels (`bpack[kk·NB + jj]`), zero-padded
//!   to width 16 on the final sub-16 column tail; this panel-sized
//!   transpose replaces the PR 4 whole-matrix scratch. Row-major right
//!   operands are again read directly (full-width panels are contiguous
//!   in place), so the plain `a · b` hot path packs nothing but a
//!   possible column tail.
//!
//! Convolution does not come through here: its im2col operand is never
//! packed or built; see the windowed kernels in `window.rs`.
//!
//! # Bit-exactness contract
//!
//! Every output element is reduced with a **single accumulator in
//! ascending-`k` order via fused multiply-add** (`f32::mul_add`, one
//! rounding per term instead of two). Packing, panel dispatch and tiling
//! change memory traffic — which elements are computed together, never
//! the sequence of float operations per element — so results are
//! bit-identical to the FMA-folded textbook three-loop kernel at any
//! vector width, on any machine with hardware FMA, and (because each GEMM
//! call is single-threaded with thread-local scratch) on any thread count
//! or pool size. This is the same contract as the PR 4 register-blocked
//! kernels: the packed rewrite preserves it exactly, so the golden-trace
//! fixture in the simulator crate and every figure CSV are unchanged
//! (verified by regenerating the fixture once — a byte-identical no-op).
//! Inputs that have already diverged to inf/NaN carry no bit contract
//! (zero-padded tail lanes can turn `0·inf` into `NaN` in *discarded*
//! lanes only; valid elements never mix with padding).
//!
//! The `*_into` free functions are the allocation-free entry points used
//! by the `nn` layer workspaces; the `Tensor` methods wrap them with a
//! fresh output buffer.

use crate::{Result, Tensor, TensorError};
use std::cell::RefCell;

/// Output rows per A micro-panel (the tallest register-block height; row
/// tails dispatch to 2- and 1-row instantiations of the same core).
const MR: usize = 4;

thread_local! {
    /// Reused packing scratch `(apack, bpack)`; grows to the largest
    /// operands seen on this thread, so steady-state GEMMs allocate
    /// nothing.
    static PACK_SCRATCH: RefCell<(Vec<f32>, Vec<f32>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// A right-hand GEMM operand that can pack itself into `NB`-wide column
/// panels.
///
/// Implementations describe a *logical* row-major `[k, n]` matrix; the
/// driver asks for one panel at a time.
trait PackRhs {
    /// Reduction length (logical row count).
    fn k(&self) -> usize;
    /// Output columns (logical column count).
    fn n(&self) -> usize;
    /// Packs columns `j0..j0 + width` into `dst` in panel layout: logical
    /// element `(kk, j0 + jj)` lands at `dst[kk * nr + jj]`.
    ///
    /// `dst` has `k() * nr` slots; implementations must write **every**
    /// slot (zero-filling the `width..nr` column pad) because the scratch
    /// buffer is reused across calls.
    fn pack_panel(&self, j0: usize, width: usize, nr: usize, dst: &mut [f32]);
}

/// A plain row-major `[k, n]` slice as a [`PackRhs`] (used for column
/// tails of direct operands).
struct RowMajorRhs<'a> {
    data: &'a [f32],
    k: usize,
    n: usize,
}

impl PackRhs for RowMajorRhs<'_> {
    fn k(&self) -> usize {
        self.k
    }

    fn n(&self) -> usize {
        self.n
    }

    fn pack_panel(&self, j0: usize, width: usize, nr: usize, dst: &mut [f32]) {
        if width < nr {
            dst.fill(0.0);
        }
        for kk in 0..self.k {
            dst[kk * nr..kk * nr + width]
                .copy_from_slice(&self.data[kk * self.n + j0..kk * self.n + j0 + width]);
        }
    }
}

/// A row-major `[n, k]` slice packed as its transpose (the `· bᵀ` case).
struct TransposedRhs<'a> {
    data: &'a [f32],
    k: usize,
    n: usize,
}

impl PackRhs for TransposedRhs<'_> {
    fn k(&self) -> usize {
        self.k
    }

    fn n(&self) -> usize {
        self.n
    }

    fn pack_panel(&self, j0: usize, width: usize, nr: usize, dst: &mut [f32]) {
        if width < nr {
            dst.fill(0.0);
        }
        // Read `b` rows contiguously, scatter into the panel at stride
        // `nr`; this panel-sized transpose replaces the PR 4 whole-matrix
        // scratch.
        for (jj, row) in self.data[j0 * self.k..(j0 + width) * self.k]
            .chunks_exact(self.k)
            .enumerate()
        {
            for (kk, &v) in row.iter().enumerate() {
                dst[kk * nr + jj] = v;
            }
        }
    }
}

/// The register-blocked core: accumulates an `R × NB` output tile over
/// the full reduction, four ascending-`k` slices per pass.
///
/// Addressing is fully parameterised so one body serves every operand
/// mode: logical A element `(r, kk)` lives at
/// `a[a_off + r·a_row_step + kk·a_stride]` (direct rows: step `k`,
/// stride 1; packed micro-panels: step 1, stride `MR`) and logical B row
/// `kk` starts at `b[b_off + kk·b_stride]` (direct: stride `n`; packed
/// panel: stride `NB`). The first `w ≤ NB` tile columns are written to
/// `out` rows at `out_off`/`out_stride`.
///
/// Per output element this performs a single-accumulator ascending-`k`
/// FMA reduction — the entire bit-exactness contract lives in this loop.
#[allow(clippy::too_many_arguments)]
#[inline]
fn accumulate_panel<const R: usize, const NB: usize>(
    a: &[f32],
    a_off: usize,
    a_row_step: usize,
    a_stride: usize,
    b: &[f32],
    b_off: usize,
    b_stride: usize,
    k: usize,
    out: &mut [f32],
    out_off: usize,
    out_stride: usize,
    w: usize,
) {
    let mut acc = [[0.0f32; NB]; R];
    let mut kk = 0;
    while kk + 4 <= k {
        let b0 = &b[b_off + kk * b_stride..b_off + kk * b_stride + NB];
        let b1 = &b[b_off + (kk + 1) * b_stride..b_off + (kk + 1) * b_stride + NB];
        let b2 = &b[b_off + (kk + 2) * b_stride..b_off + (kk + 2) * b_stride + NB];
        let b3 = &b[b_off + (kk + 3) * b_stride..b_off + (kk + 3) * b_stride + NB];
        for (r, accr) in acc.iter_mut().enumerate() {
            let base = a_off + r * a_row_step + kk * a_stride;
            let a0 = a[base];
            let a1 = a[base + a_stride];
            let a2 = a[base + 2 * a_stride];
            let a3 = a[base + 3 * a_stride];
            for j in 0..NB {
                let mut t = accr[j];
                t = a0.mul_add(b0[j], t);
                t = a1.mul_add(b1[j], t);
                t = a2.mul_add(b2[j], t);
                t = a3.mul_add(b3[j], t);
                accr[j] = t;
            }
        }
        kk += 4;
    }
    for kr in kk..k {
        let b_row = &b[b_off + kr * b_stride..b_off + kr * b_stride + NB];
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = a[a_off + r * a_row_step + kr * a_stride];
            for (o, &bv) in accr.iter_mut().zip(b_row) {
                *o = av.mul_add(bv, *o);
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        out[out_off + r * out_stride..out_off + r * out_stride + w].copy_from_slice(&accr[..w]);
    }
}

/// How the driver reads the left operand.
#[derive(Clone, Copy)]
enum AMode {
    /// Row-major `[m, k]` rows read in place.
    Direct,
    /// `[k, m]` columns packed into `MR`-tall micro-panels first (`ᵀ·`).
    Packed,
}

/// Runs the `R`-dispatch row loop over one column panel.
#[allow(clippy::too_many_arguments)]
#[inline]
fn run_panel<const NB: usize>(
    a: &[f32],
    m: usize,
    k: usize,
    a_mode: AMode,
    b: &[f32],
    b_off: usize,
    b_stride: usize,
    out: &mut [f32],
    out_col: usize,
    n: usize,
    w: usize,
) {
    // Per-mode addressing of A row `i`: `a[off(i) + kk * stride]`.
    let (row_step, stride) = match a_mode {
        AMode::Direct => (k, 1),
        AMode::Packed => (1, MR),
    };
    let block_off = |i: usize| match a_mode {
        AMode::Direct => i * k,
        // Packed panels are MR-tall even when fewer rows are valid; row
        // `i` lives in panel `i / MR` at lane `i % MR`.
        AMode::Packed => (i / MR) * MR * k + (i % MR),
    };
    let mut i = 0;
    while i + 4 <= m {
        accumulate_panel::<4, NB>(
            a,
            block_off(i),
            row_step,
            stride,
            b,
            b_off,
            b_stride,
            k,
            out,
            i * n + out_col,
            n,
            w,
        );
        i += 4;
    }
    if m - i >= 2 {
        accumulate_panel::<2, NB>(
            a,
            block_off(i),
            row_step,
            stride,
            b,
            b_off,
            b_stride,
            k,
            out,
            i * n + out_col,
            n,
            w,
        );
        i += 2;
    }
    if m - i == 1 {
        accumulate_panel::<1, NB>(
            a,
            block_off(i),
            row_step,
            stride,
            b,
            b_off,
            b_stride,
            k,
            out,
            i * n + out_col,
            n,
            w,
        );
    }
}

/// Width class for the next column panel of `rem` remaining columns.
#[inline]
fn panel_nb(rem: usize) -> usize {
    if rem >= 64 {
        64
    } else if rem >= 32 {
        32
    } else {
        16
    }
}

/// The packed-panel driver shared by every entry point.
///
/// `direct_b` supplies the raw row-major slice when the right operand can
/// be read in place (only its sub-16 column tail is packed); otherwise
/// every panel is packed through `rhs`. The left operand is packed first
/// when `a_mode` is [`AMode::Packed`].
fn gemm_driver<P: PackRhs>(
    a: &[f32],
    m: usize,
    a_mode: AMode,
    rhs: &P,
    direct_b: Option<&[f32]>,
    out: &mut [f32],
) {
    let k = rhs.k();
    let n = rhs.n();
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let n_full = n - n % 16;
    let tail = n % 16;
    PACK_SCRATCH.with(|scratch| {
        let (apack, bpack) = &mut *scratch.borrow_mut();
        let a = match a_mode {
            AMode::Direct => a,
            AMode::Packed => {
                // `a` is `[k, m]`; panel `bi` holds its columns
                // `bi·MR..bi·MR + h` (`h ≤ MR`) at `[kk·MR + r]`. Lanes
                // beyond `h` are never read (the row dispatch stops at
                // `m`), so they may hold stale scratch.
                apack.resize(m.div_ceil(MR) * MR * k, 0.0);
                for (bi, panel) in apack.chunks_exact_mut(MR * k).enumerate() {
                    let i0 = bi * MR;
                    let h = MR.min(m - i0);
                    for kk in 0..k {
                        panel[kk * MR..kk * MR + h]
                            .copy_from_slice(&a[kk * m + i0..kk * m + i0 + h]);
                    }
                }
                apack.as_slice()
            }
        };
        // One reused panel buffer for everything the compute loop cannot
        // read in place (logical-only rhs panels and the padded column
        // tail): each panel is packed right before it is consumed, so the
        // scratch footprint stays one k x NB panel — no full column
        // matrix is ever materialised, for any rhs.
        if direct_b.is_none() || tail > 0 {
            bpack.resize(k * 64, 0.0);
        }
        let mut j0 = 0;
        while j0 < n {
            // Full-width panels over n_full, then one zero-padded sub-16
            // tail panel covering the last `tail` columns.
            let (nb, w) = if j0 < n_full {
                let nb = panel_nb(n_full - j0);
                (nb, nb)
            } else {
                (16, tail)
            };
            let (b, b_off, b_stride) = match direct_b {
                Some(raw) if w == nb => (raw, j0, n),
                _ => {
                    let panel = &mut bpack[..k * nb];
                    rhs.pack_panel(j0, w, nb, panel);
                    (&*panel, 0, nb)
                }
            };
            match nb {
                64 => run_panel::<64>(a, m, k, a_mode, b, b_off, b_stride, out, j0, n, w),
                32 => run_panel::<32>(a, m, k, a_mode, b, b_off, b_stride, out, j0, n, w),
                _ => run_panel::<16>(a, m, k, a_mode, b, b_off, b_stride, out, j0, n, w),
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
    gemm_driver(
        a,
        m,
        AMode::Direct,
        &RowMajorRhs { data: b, k, n },
        Some(b),
        out,
    );
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
    gemm_driver(
        a,
        m,
        AMode::Packed,
        &RowMajorRhs { data: b, k, n },
        Some(b),
        out,
    );
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
    gemm_driver(
        a,
        m,
        AMode::Direct,
        &TransposedRhs { data: b, k, n },
        None,
        out,
    );
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

    #[test]
    fn packed_kernels_are_bit_identical_to_naive() {
        // Awkward sizes exercise every dispatch path: row tails (m % 4),
        // each panel width class (64/32/16) and the padded sub-16 column
        // tail, single-row (matvec-shaped) outputs, and k remainders.
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 40) as f32 / 1e5 - 0.08
        };
        for (m, k, n) in [
            (1, 1, 1),
            (1, 37, 100),
            (3, 5, 7),
            (4, 8, 4),
            (7, 13, 9),
            (32, 37, 10),
            (8, 6, 32),
            (9, 6, 33),
            (8, 9, 64),
            (13, 16, 21),
            (33, 31, 64),
            (6, 10, 96),
            (5, 9, 112),
            (16, 256, 40),
            (2, 3, 130),
        ] {
            let a = Tensor::from_vec((0..m * k).map(|_| next()).collect(), &[m, k]).unwrap();
            let b = Tensor::from_vec((0..k * n).map(|_| next()).collect(), &[k, n]).unwrap();
            let packed = a.matmul(&b);
            let naive = naive_matmul(&a, &b);
            assert_eq!(packed.as_slice(), naive.as_slice(), "shape {m}x{k}x{n}");
            // tn/nt agree with their transpose definitions bitwise too:
            // per-element single-accumulator ascending-k order all around.
            let at = a.transpose();
            assert_eq!(
                at.matmul_tn(&b).as_slice(),
                naive.as_slice(),
                "tn shape {m}x{k}x{n}"
            );
            let bt = b.transpose();
            assert_eq!(
                a.matmul_nt(&bt).as_slice(),
                naive_matmul(&a, &b).as_slice(),
                "nt shape {m}x{k}x{n}"
            );
        }
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
