//! Windowed GEMM kernels: matrix products whose im2col-style operand is
//! never built, because each of its rows is a contiguous *window* of a flat
//! buffer.
//!
//! A window operand is a flat slice `src` plus an **offset table** `off`:
//! logical row `kk` is `src[off[kk]..off[kk] + n]`, and windows may overlap
//! freely. `nn`'s convolution stores each image as zero-bordered planes,
//! which makes every im2col row exactly such a window (see `nn::conv`), so
//! all three convolution products run here with no packing, no
//! materialised matrix and no scatter:
//!
//! * [`window_gemm_tn_into`] — `out = aᵀ · windows` (convolution forward);
//! * [`window_gemm_lanes_into`] — the products of every window with every
//!   row of a left operand given *transposed*, vector lanes running across
//!   those rows (weight gradient, with the bias gradient as column sums);
//! * [`window_gemm_tn_add`] — `windows += aᵀ · b`, the product accumulated
//!   *into* overlapping windows (input gradient with col2im fused in).
//!
//! The two row-by-window products run on the register tile and row loop
//! of `tile.rs`, the same ones the GEMM in `matmul.rs` runs on: their left
//! operand is a transposed row-major matrix read in place, and only the
//! source of the right-operand rows (a window table, or a plain matrix)
//! and the store (overwrite, or add into a window) are theirs. The lane
//! kernel keeps its own block: its vector lanes run across the left
//! operand, which that tile does not do.
//!
//! # Bit-exactness contract
//!
//! The same contract as the GEMM in `matmul.rs`: every product element is
//! reduced by a **single accumulator, from `+0.0`, in ascending reduction
//! index, one `f32::mul_add` per term**. Tiling only chooses which
//! elements are computed together. The accumulate-into kernel adds one
//! more ordering rule, stated on [`window_gemm_tn_add`]. Inputs that
//! already hold inf/NaN carry no bit contract.

use crate::matmul::check_len;
use crate::tile::{array_at, matrix_rows, panel_rows, LeftCols};

/// Column granularity of the tiled kernels: window widths are multiples of
/// this, so every tile runs through constant-width loops. Callers round
/// their logical width up and ignore the extra columns.
pub const WINDOW_PANEL: usize = 16;

/// Walks `n` columns as panels of 32 and then at most one of 16, calling
/// `f(j0, width)`; right to left when `reverse`.
#[inline(always)]
fn for_each_panel(n: usize, reverse: bool, mut f: impl FnMut(usize, usize)) {
    let wide = n / 32;
    let panels = wide + (n % 32) / WINDOW_PANEL;
    for p in 0..panels {
        let p = if reverse { panels - 1 - p } else { p };
        f(p * 32, if p < wide { 32 } else { WINDOW_PANEL });
    }
}

/// Columns `j0..j0 + NB` of every window, in table order: the right-operand
/// rows of one panel.
#[inline(always)]
fn window_rows<'a, const NB: usize>(
    src: &'a [f32],
    off: &'a [usize],
    j0: usize,
) -> impl Iterator<Item = [f32; NB]> + Clone + 'a {
    off.iter().map(move |&o| array_at(src, o + j0))
}

/// Writes `aᵀ · windows` into `out`: for row-major `a: [off.len(), m]`,
///
/// `out[i·n + j] = Σ_kk a[kk][i] · src[off[kk] + j]`
///
/// reduced per the module contract (`kk` ascending, one accumulator).
/// `out: [m, n]` is overwritten entirely.
///
/// # Panics
///
/// Panics if `n` is not a multiple of [`WINDOW_PANEL`], a slice length
/// disagrees with its dimensions, or a window runs past the end of `src`.
pub fn window_gemm_tn_into(
    a: &[f32],
    src: &[f32],
    off: &[usize],
    out: &mut [f32],
    m: usize,
    n: usize,
) {
    let _t = telemetry::kernel_timer("kernel.window_gemm_tn");
    check_width(n);
    check_len("a", a.len(), off.len(), m);
    check_len("out", out.len(), m, n);
    check_windows(src, off, n);
    if m == 0 {
        return;
    }
    if off.is_empty() {
        out.fill(0.0);
        return;
    }
    let left = LeftCols { a, m };
    for_each_panel(n, false, |j0, nb| match nb {
        32 => panel_rows::<32>(left, m, window_rows(src, off, j0), |i, row| {
            out[i * n + j0..i * n + j0 + 32].copy_from_slice(row)
        }),
        _ => panel_rows::<16>(left, m, window_rows(src, off, j0), |i, row| {
            out[i * n + j0..i * n + j0 + 16].copy_from_slice(row)
        }),
    });
}

/// Accumulates `aᵀ · b` into overlapping windows of `dst`: for row-major
/// `a: [k, off.len()]` and `b: [k, n]`,
///
/// `dst[off[i] + j] += Σ_kk a[kk][i] · b[kk][j]`
///
/// where each product element is first reduced per the module contract
/// and then added, once, to its `dst` element.
///
/// **Ordering rule.** Windows overlap, so one `dst` element receives
/// addends from several rows `i`; it receives them **in ascending `i`**.
/// `off` must be strictly ascending, which is what lets the kernel tile
/// freely and still honour this: the element at `off[i] + j` pairs a
/// larger `i` with a smaller `j`, so walking column panels right to left,
/// and rows in ascending order within a panel, visits every element's
/// addends in ascending `i`. (Rows outermost would also do; panels left to
/// right would not.)
///
/// # Panics
///
/// Panics if `n` is not a multiple of [`WINDOW_PANEL`], `off` is not
/// strictly ascending, a slice length disagrees with its dimensions, or a
/// window runs past the end of `dst`.
pub fn window_gemm_tn_add(
    a: &[f32],
    b: &[f32],
    off: &[usize],
    dst: &mut [f32],
    k: usize,
    n: usize,
) {
    let _t = telemetry::kernel_timer("kernel.window_gemm_tn_add");
    check_width(n);
    check_len("a", a.len(), k, off.len());
    check_len("b", b.len(), k, n);
    assert!(
        off.windows(2).all(|w| w[0] < w[1]),
        "window offsets must be strictly ascending"
    );
    check_windows(dst, off, n);
    if off.is_empty() || n == 0 {
        return;
    }
    let m = off.len();
    let left = LeftCols { a, m };
    for_each_panel(n, true, |j0, nb| match nb {
        32 => panel_rows::<32>(left, m, matrix_rows(b, n, j0), |i, row| {
            add_row(&mut dst[off[i] + j0..off[i] + j0 + 32], row)
        }),
        _ => panel_rows::<16>(left, m, matrix_rows(b, n, j0), |i, row| {
            add_row(&mut dst[off[i] + j0..off[i] + j0 + 16], row)
        }),
    });
}

#[inline(always)]
fn add_row(dst: &mut [f32], row: &[f32]) {
    for (d, &t) in dst.iter_mut().zip(row) {
        *d += t;
    }
}

/// Window rows per block of the lane kernel: with 8 or 16 lanes, 9 or 18
/// vector accumulators stay in registers across the whole reduction (and
/// a 3×3 convolution's rows come in nines). A final short block repeats
/// its last row to fill the block (recomputed, never stored), so one
/// block shape serves every row count.
const LANE_BLOCK: usize = 9;

/// Writes the window products reduced against a *lane-major* left operand:
/// for `at: [n, lanes]` (the left matrix transposed, so one reduction step
/// reads one contiguous vector of `lanes` rows),
///
/// `out[kk·lanes + l] = Σ_q at[q][l] · src[off[kk] + q]`
///
/// and, riding the same pass, the column sums `sums[l] = Σ_q at[q][l]`
/// (a sequential `+` chain from `+0.0`). Both reduce over `q` ascending
/// with one accumulator per element, per the module contract; vector
/// lanes run across `l`, so no element's chain is ever split.
///
/// `lanes` must be a multiple of 8; callers zero-pad and ignore the dead
/// lanes. `n` is the reduction length here and may be any value.
///
/// # Panics
///
/// Panics if `off` is empty, `lanes` is not a multiple of 8, a slice
/// length disagrees with its dimensions, or a window runs past the end of
/// `src`.
pub fn window_gemm_lanes_into(
    at: &[f32],
    src: &[f32],
    off: &[usize],
    out: &mut [f32],
    sums: &mut [f32],
    lanes: usize,
    n: usize,
) {
    let _t = telemetry::kernel_timer("kernel.window_gemm_lanes");
    assert!(!off.is_empty(), "no windows to reduce against");
    assert!(
        lanes > 0 && lanes.is_multiple_of(8),
        "lane count {lanes} is not a positive multiple of 8"
    );
    check_len("at", at.len(), n, lanes);
    check_len("out", out.len(), off.len(), lanes);
    check_len("sums", sums.len(), 1, lanes);
    check_windows(src, off, n);
    let mut l0 = 0;
    while l0 < lanes {
        let width = if lanes - l0 >= 16 { 16 } else { 8 };
        for kk0 in (0..off.len()).step_by(LANE_BLOCK) {
            let rows = std::array::from_fn(|r| {
                let o = off[(kk0 + r).min(off.len() - 1)];
                &src[o..o + n]
            });
            let out = &mut out[kk0 * lanes..];
            match (width, kk0 == 0) {
                (16, true) => lanes_block::<16, true>(at, rows, out, sums, lanes, l0),
                (16, false) => lanes_block::<16, false>(at, rows, out, sums, lanes, l0),
                (_, true) => lanes_block::<8, true>(at, rows, out, sums, lanes, l0),
                (_, false) => lanes_block::<8, false>(at, rows, out, sums, lanes, l0),
            }
        }
        l0 += width;
    }
}

/// [`LANE_BLOCK`] window `rows` × `L` lanes from `l0`, the accumulators in
/// registers across the whole reduction; `SUMS` blocks also carry the
/// column sums. Stores as many rows as `out` has left.
#[inline]
fn lanes_block<const L: usize, const SUMS: bool>(
    at: &[f32],
    rows: [&[f32]; LANE_BLOCK],
    out: &mut [f32],
    sums: &mut [f32],
    lanes: usize,
    l0: usize,
) {
    let mut acc = [[0.0f32; L]; LANE_BLOCK];
    let mut s = [0.0f32; L];
    for (q, at_row) in at.chunks_exact(lanes).enumerate() {
        let d = &at_row[l0..l0 + L];
        if SUMS {
            for (sv, &dv) in s.iter_mut().zip(d) {
                *sv += dv;
            }
        }
        for (accr, row) in acc.iter_mut().zip(&rows) {
            let xv = row[q];
            for (o, &dv) in accr.iter_mut().zip(d) {
                *o = dv.mul_add(xv, *o);
            }
        }
    }
    // A constant-trip loop: indexing `acc` by a runtime count would force
    // it out of registers for the whole reduction.
    let valid = out.len() / lanes;
    for (r, accr) in acc.iter().enumerate() {
        if r < valid {
            out[r * lanes + l0..r * lanes + l0 + L].copy_from_slice(accr);
        }
    }
    if SUMS {
        sums[l0..l0 + L].copy_from_slice(&s);
    }
}

fn check_width(n: usize) {
    assert_eq!(
        n % WINDOW_PANEL,
        0,
        "window width {n} is not a multiple of {WINDOW_PANEL}"
    );
}

/// Panics unless every window `src[off[kk]..off[kk] + n]` is in bounds.
fn check_windows(src: &[f32], off: &[usize], n: usize) {
    if let Some(&last) = off.iter().max() {
        assert!(
            last + n <= src.len(),
            "window at offset {last} of width {n} runs past {} values",
            src.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic values in about ±80 with exact zeros mixed in.
    fn values(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state.is_multiple_of(5) {
                    0.0
                } else {
                    (state >> 40) as f32 / 1e5 - 80.0
                }
            })
            .collect()
    }

    /// Overlapping, strictly ascending offsets shaped like a convolution's
    /// (`taps` neighbours per row of `row`, rows `row` apart), plus the
    /// source length that keeps width-`n` windows in bounds.
    fn conv_like_offsets(k: usize, taps: usize, row: usize, n: usize) -> (Vec<usize>, usize) {
        let off: Vec<usize> = (0..k).map(|kk| kk / taps * row + kk % taps).collect();
        let len = off[k - 1] + n;
        (off, len)
    }

    /// The contract, spelled out over the materialised windows.
    fn reference_tn(a: &[f32], src: &[f32], off: &[usize], m: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for (kk, &o) in off.iter().enumerate() {
                    acc = a[kk * m + i].mul_add(src[o + j], acc);
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    #[test]
    fn tn_into_matches_materialized_windows() {
        // Row counts around the 4-row tile, widths around both panel
        // classes, reduction lengths 1 and up.
        for (m, k, n) in [
            (1, 1, 16),
            (3, 9, 32),
            (4, 9, 48),
            (5, 25, 80),
            (8, 72, 288),
            (10, 27, 96),
            (16, 72, 80),
        ] {
            let (off, len) = conv_like_offsets(k, 3, 11, n);
            let a = values(k * m, 1);
            let src = values(len, 2);
            let mut out = vec![f32::NAN; m * n];
            window_gemm_tn_into(&a, &src, &off, &mut out, m, n);
            assert_eq!(out, reference_tn(&a, &src, &off, m, n), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn tn_into_with_no_windows_is_all_zeros() {
        let mut out = vec![7.0f32; 2 * 16];
        window_gemm_tn_into(&[], &[], &[], &mut out, 2, 16);
        assert_eq!(out, vec![0.0; 32]);
    }

    #[test]
    fn lanes_into_matches_materialized_windows() {
        // Lane groups of 16 and 8, window rows around the 9-row block,
        // any reduction length.
        for (lanes, k, n) in [
            (8, 1, 1),
            (8, 9, 78),
            (8, 10, 7),
            (16, 9, 286),
            (16, 25, 30),
            (24, 72, 33),
        ] {
            let (off, len) = conv_like_offsets(k, 3, 11, n);
            let at = values(n * lanes, 3);
            let src = values(len, 4);
            let mut out = vec![f32::NAN; k * lanes];
            let mut sums = vec![f32::NAN; lanes];
            window_gemm_lanes_into(&at, &src, &off, &mut out, &mut sums, lanes, n);
            for l in 0..lanes {
                for (kk, &o) in off.iter().enumerate() {
                    let want =
                        (0..n).fold(0.0f32, |acc, q| at[q * lanes + l].mul_add(src[o + q], acc));
                    assert_eq!(out[kk * lanes + l], want, "{lanes}x{k}x{n} at ({kk}, {l})");
                }
                let want = (0..n).fold(0.0f32, |acc, q| acc + at[q * lanes + l]);
                assert_eq!(sums[l], want, "{lanes}x{k}x{n} sum {l}");
            }
        }
    }

    #[test]
    fn tn_add_adds_rows_into_overlapping_windows_in_ascending_order() {
        // Several column panels with heavily overlapping windows: almost
        // every element collects addends from rows computed in different
        // panels, so any other visiting order shows up in the low bits.
        for (m, k, n) in [
            (1, 1, 16),
            (9, 8, 48),
            (10, 3, 80),
            (72, 8, 288),
            (25, 16, 96),
        ] {
            let (off, len) = conv_like_offsets(m, 3, 11, n);
            let a = values(k * m, 5);
            let b = values(k * n, 6);
            let start = values(len, 7);
            let mut want = start.clone();
            let prod = reference_tn(&a, &b, &(0..k).map(|kk| kk * n).collect::<Vec<_>>(), m, n);
            for (i, &o) in off.iter().enumerate() {
                for j in 0..n {
                    want[o + j] += prod[i * n + j];
                }
            }
            let mut dst = start;
            window_gemm_tn_add(&a, &b, &off, &mut dst, k, n);
            assert_eq!(dst, want, "{m}x{k}x{n}");
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn tn_add_rejects_unordered_offsets() {
        let mut dst = vec![0.0f32; 32];
        window_gemm_tn_add(&[1.0, 1.0], &[0.0; 16], &[4, 4], &mut dst, 1, 16);
    }

    #[test]
    #[should_panic(expected = "not a multiple of 16")]
    fn rejects_ragged_width() {
        let mut out = vec![0.0f32; 10];
        window_gemm_tn_into(&[1.0], &[0.0; 10], &[0], &mut out, 1, 10);
    }

    #[test]
    #[should_panic(expected = "runs past")]
    fn rejects_window_past_the_end() {
        let mut out = vec![0.0f32; 16];
        window_gemm_tn_into(&[1.0], &[0.0; 20], &[5], &mut out, 1, 16);
    }
}
