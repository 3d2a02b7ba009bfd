//! Windowed GEMM kernels: matrix products whose im2col-style operand is
//! never built, because each of its rows is a contiguous *window* of a flat
//! buffer.
//!
//! A window operand is a flat slice `src` plus an **offset table** `off`:
//! logical row `kk` is `src[off[kk]..off[kk] + n]`, and windows may overlap
//! freely. `nn`'s convolution stores each group of 16 images as
//! zero-bordered planes with the images side by side in the lanes,
//! `[c][H'][W'][16]`, which makes every im2col row of all 16 images
//! exactly such a window (see `nn::conv`), so all three convolution
//! products run here, one call per group, with no packing, no
//! materialised matrix and no scatter:
//!
//! * [`window_gemm_tn_into`] — `out = aᵀ · windows` (convolution forward);
//! * [`window_gemm_per_lane_into`] — per vector lane `l`, the products of
//!   every window with every row of a left operand laid out in the same
//!   lanes (weight gradient of 16 images at once, with the bias gradient
//!   as lane sums);
//! * [`window_gemm_tn_add`] — `windows += aᵀ · b`, the product accumulated
//!   *into* overlapping windows (input gradient with col2im fused in).
//!
//! The two row-by-window products run on the register tile and row loop
//! of `tile.rs`, the same ones the GEMM in `matmul.rs` runs on: their left
//! operand is a transposed row-major matrix read in place, and only the
//! source of the right-operand rows (a window table, or a plain matrix)
//! and the store (overwrite, or add into a window) are theirs. With 16
//! images in the lanes they see nothing new: a column is one lane of one
//! pixel, and the offsets are scaled by 16. The per-lane kernel keeps its
//! own tile: its reduction runs along the lanes' own axis, each lane an
//! independent product, which that tile does not do.
//!
//! # Bit-exactness contract
//!
//! The same contract as the GEMM in `matmul.rs`: every product element is
//! reduced by a **single accumulator, from `+0.0`, in ascending reduction
//! index, one `f32::mul_add` per term**. Tiling only chooses which
//! elements are computed together; a reduction split into blocks of steps
//! continues each chain from the partial the previous block stored. No
//! kernel ever combines two lanes, so a lane computes exactly what the
//! same product of one image would. The accumulate-into kernel adds one
//! more ordering rule, stated on [`window_gemm_tn_add`]. Inputs that
//! already hold inf/NaN carry no bit contract.

use crate::matmul::check_len;
use crate::tile::{array_at, matrix_rows, panel_rows, LeftCols, WIDE};

/// Column granularity of the tiled kernels: window widths are multiples of
/// this, so every tile runs through constant-width loops.
const WINDOW_PANEL: usize = 16;

/// Walks `n` columns as panels of [`WIDE`], then at most one of 32 and
/// at most one of 16, calling `f(j0, width)`; right to left when `reverse`.
#[inline(always)]
fn for_each_panel(n: usize, reverse: bool, mut f: impl FnMut(usize, usize)) {
    let tail16 = n % 32;
    let tail32 = n % WIDE - tail16;
    let wide = n - tail32 - tail16;
    let panels = (0..wide / WIDE)
        .map(|p| (p * WIDE, WIDE))
        .chain((tail32 > 0).then_some((wide, 32)))
        .chain((tail16 > 0).then_some((wide + tail32, WINDOW_PANEL)));
    if reverse {
        panels.rev().for_each(|(j0, nb)| f(j0, nb));
    } else {
        panels.for_each(|(j0, nb)| f(j0, nb));
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
/// Panics if `n` is not a multiple of 16 (the panel width), a slice length
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
    let (left, ks) = (LeftCols { a, m }, 0..off.len());
    for_each_panel(n, false, |j0, nb| match nb {
        _ if nb == WIDE => {
            let rows = window_rows(src, off, j0);
            panel_rows::<WIDE>(left, ks.clone(), rows, out, m, zeros, |out, i, row| {
                out[i * n + j0..i * n + j0 + WIDE].copy_from_slice(row)
            })
        }
        32 => {
            let rows = window_rows(src, off, j0);
            panel_rows::<32>(left, ks.clone(), rows, out, m, zeros, |out, i, row| {
                out[i * n + j0..i * n + j0 + 32].copy_from_slice(row)
            })
        }
        _ => {
            let rows = window_rows(src, off, j0);
            panel_rows::<16>(left, ks.clone(), rows, out, m, zeros, |out, i, row| {
                out[i * n + j0..i * n + j0 + 16].copy_from_slice(row)
            })
        }
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
/// Panics if `n` is not a multiple of 16 (the panel width), `off` is not
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
        _ if nb == WIDE => {
            let rows = matrix_rows(b, n, j0);
            panel_rows::<WIDE>(left, 0..k, rows, dst, m, zeros, |dst, i, row| {
                add_row(&mut dst[off[i] + j0..off[i] + j0 + WIDE], row)
            })
        }
        32 => {
            let rows = matrix_rows(b, n, j0);
            panel_rows::<32>(left, 0..k, rows, dst, m, zeros, |dst, i, row| {
                add_row(&mut dst[off[i] + j0..off[i] + j0 + 32], row)
            })
        }
        _ => {
            let rows = matrix_rows(b, n, j0);
            panel_rows::<16>(left, 0..k, rows, dst, m, zeros, |dst, i, row| {
                add_row(&mut dst[off[i] + j0..off[i] + j0 + 16], row)
            })
        }
    });
}

/// The accumulators of a reduction run in one block: every product here
/// starts from `+0.0`.
#[inline(always)]
fn zeros<const NB: usize>(_: &[f32], _: usize) -> [f32; NB] {
    [0.0; NB]
}

#[inline(always)]
fn add_row(dst: &mut [f32], row: &[f32]) {
    for (d, &t) in dst.iter_mut().zip(row) {
        *d += t;
    }
}

/// Vector lanes of [`window_gemm_per_lane_into`]: 16 `f32`, one 512-bit
/// register (two 256-bit ones). `nn`'s convolution keeps 16 images side by
/// side in these lanes.
pub const LANES: usize = 16;

/// Output rows (and windows) per register tile of the per-lane kernel:
/// 4 × 4 tiles hold 16 lane-vector accumulators, and each reduction step
/// loads 4 rows and 4 windows for 16 FMAs.
const LANE_TILE: usize = 4;

/// Reduction steps per block of the per-lane kernel. Every tile of one
/// block reads the same 32 steps of the left rows and of windows that
/// overlap heavily, about 50 KB for a 3×3 convolution over 8 channels, so
/// the block is reused from L1 rather than each tile streaming its whole
/// reduction from L2 (that convolution's weight gradient over 8 groups:
/// 0.44–0.55 ms blocked against 0.65 ms unblocked, one pinned core).
const LANE_STEPS: usize = 32;

/// Writes the per-lane window products: for a left operand
/// `dy: [m, n·LANES]` (row `c` is `n` steps of [`LANES`] lanes) and
/// windows `src[off[kk]..off[kk] + n·LANES]`,
///
/// `out[(c·k + kk)·LANES + l] = Σ_q dy[c][q·LANES + l] · src[off[kk] + q·LANES + l]`
///
/// for `k = off.len()`, and, riding the same pass, the lane sums
/// `sums[c·LANES + l] = Σ_q dy[c][q·LANES + l]` (a sequential `+` chain
/// from `+0.0`). Both reduce over `q` ascending with one accumulator per
/// element, per the module contract; the reduction runs in blocks of
/// steps, each continuing from the partials the previous block stored.
/// Lanes never meet: lane `l` of the output reads only lane `l` of its
/// operands, so each lane is an independent product, computed 16 at a
/// time.
///
/// # Panics
///
/// Panics if `off` is empty, a slice length disagrees with its dimensions,
/// an offset is not a multiple of [`LANES`], or a window runs past the end
/// of `src`.
pub fn window_gemm_per_lane_into(
    dy: &[f32],
    src: &[f32],
    off: &[usize],
    out: &mut [f32],
    sums: &mut [f32],
    m: usize,
    n: usize,
) {
    let _t = telemetry::kernel_timer("kernel.window_gemm_per_lane");
    assert!(!off.is_empty(), "no windows to reduce against");
    assert!(
        off.iter().all(|o| o.is_multiple_of(LANES)),
        "window offsets must be whole steps of {LANES} lanes"
    );
    check_len("dy", dy.len(), m, n * LANES);
    check_len("out", out.len(), m * off.len(), LANES);
    check_len("sums", sums.len(), m, LANES);
    check_windows(src, off, n * LANES);
    let k = off.len();
    let (rows, _) = dy.as_chunks::<LANES>();
    let (steps, _) = src.as_chunks::<LANES>();
    let (outs, _) = out.as_chunks_mut::<LANES>();
    let (sums, _) = sums.as_chunks_mut::<LANES>();
    outs.fill([0.0; LANES]);
    sums.fill([0.0; LANES]);
    for q0 in (0..n).step_by(LANE_STEPS) {
        let qs = q0..n.min(q0 + LANE_STEPS);
        let row = |c: usize| &rows[c * n..(c + 1) * n][qs.clone()];
        let window = |kk: usize| &steps[off[kk] / LANES..][qs.clone()];
        let mut c0 = 0;
        while c0 < m {
            let ct = if m - c0 >= LANE_TILE { LANE_TILE } else { 1 };
            let mut kk0 = 0;
            while kk0 < k {
                let kt = if k - kk0 >= LANE_TILE { LANE_TILE } else { 1 };
                let tile = Tile {
                    outs: &mut *outs,
                    sums: (kk0 == 0).then_some(&mut sums[c0..c0 + ct]),
                    k,
                    c0,
                    kk0,
                };
                match (ct, kt) {
                    (LANE_TILE, LANE_TILE) => tile.run::<LANE_TILE, LANE_TILE>(
                        std::array::from_fn(|i| row(c0 + i)),
                        std::array::from_fn(|j| window(kk0 + j)),
                    ),
                    (LANE_TILE, _) => tile
                        .run::<LANE_TILE, 1>(std::array::from_fn(|i| row(c0 + i)), [window(kk0)]),
                    (_, LANE_TILE) => tile
                        .run::<1, LANE_TILE>([row(c0)], std::array::from_fn(|j| window(kk0 + j))),
                    _ => tile.run::<1, 1>([row(c0)], [window(kk0)]),
                }
                kk0 += kt;
            }
            c0 += ct;
        }
    }
}

/// Where one tile of [`window_gemm_per_lane_into`] starts and ends: output
/// rows from `c0`, windows from `kk0`, the partials in `outs` (and, for a
/// tile of the first windows, the lane sums of its rows in `sums`).
struct Tile<'a> {
    outs: &'a mut [[f32; LANES]],
    sums: Option<&'a mut [[f32; LANES]]>,
    k: usize,
    c0: usize,
    kk0: usize,
}

impl Tile<'_> {
    /// Continues the tile's partials over one block of steps and stores
    /// them back.
    #[inline(always)]
    fn run<const C: usize, const K: usize>(
        self,
        rows: [&[[f32; LANES]]; C],
        windows: [&[[f32; LANES]]; K],
    ) {
        let at = |i: usize, j: usize| (self.c0 + i) * self.k + self.kk0 + j;
        let acc = std::array::from_fn(|i| std::array::from_fn(|j| self.outs[at(i, j)]));
        let acc = match self.sums {
            Some(sums) => {
                let s = std::array::from_fn(|i| sums[i]);
                let (acc, s) = per_lane_reduce::<C, K, true>(acc, s, rows, windows);
                sums.copy_from_slice(&s);
                acc
            }
            None => per_lane_reduce::<C, K, false>(acc, [[0.0; LANES]; C], rows, windows).0,
        };
        for (i, accr) in acc.iter().enumerate() {
            for (j, a) in accr.iter().enumerate() {
                self.outs[at(i, j)] = *a;
            }
        }
    }
}

/// The reduction of one tile over one block of steps, its `C·K`
/// lane-vector accumulators (and, for `SUMS`, the `C` lane sums) in
/// registers across every step.
#[inline(always)]
fn per_lane_reduce<const C: usize, const K: usize, const SUMS: bool>(
    mut acc: [[[f32; LANES]; K]; C],
    mut s: [[f32; LANES]; C],
    rows: [&[[f32; LANES]]; C],
    windows: [&[[f32; LANES]]; K],
) -> ([[[f32; LANES]; K]; C], [[f32; LANES]; C]) {
    let n = rows[0].len();
    // Re-sliced to exactly `n` steps, so the loop indexes without checks.
    let rows: [&[[f32; LANES]]; C] = std::array::from_fn(|i| &rows[i][..n]);
    let windows: [&[[f32; LANES]]; K] = std::array::from_fn(|j| &windows[j][..n]);
    for q in 0..n {
        let d: [[f32; LANES]; C] = std::array::from_fn(|i| rows[i][q]);
        let x: [[f32; LANES]; K] = std::array::from_fn(|j| windows[j][q]);
        if SUMS {
            for (sv, dv) in s.iter_mut().zip(&d) {
                for (o, &v) in sv.iter_mut().zip(dv) {
                    *o += v;
                }
            }
        }
        for (accr, dv) in acc.iter_mut().zip(&d) {
            for (a, xv) in accr.iter_mut().zip(&x) {
                for ((o, &dl), &xl) in a.iter_mut().zip(dv).zip(xv) {
                    *o = dl.mul_add(xl, *o);
                }
            }
        }
    }
    (acc, s)
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
        // Row counts around the 4-row tile, widths around every panel
        // class (64, 32, 16), reduction lengths 1 and up.
        for (m, k, n) in [
            (1, 1, 16),
            (3, 9, 32),
            (4, 9, 48),
            (5, 25, 80),
            (8, 72, 288),
            (10, 27, 96),
            (16, 72, 80),
            (6, 9, 64),
            (7, 18, 112),
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
    fn per_lane_into_matches_materialized_windows() {
        // Rows and windows around the 4 × 4 tile (full tiles, single-row
        // and single-window remainders), any reduction length.
        for (m, k, n) in [
            (1, 1, 1),
            (4, 4, 7),
            (8, 9, 78),
            (3, 10, 7),
            (5, 9, 30),
            (16, 72, 33),
            (10, 27, 19),
        ] {
            let (off, len) = conv_like_offsets(k, 3, 11, n);
            let off: Vec<usize> = off.iter().map(|o| o * LANES).collect();
            let dy = values(m * n * LANES, 3);
            let src = values(len * LANES, 4);
            let mut out = vec![f32::NAN; m * k * LANES];
            let mut sums = vec![f32::NAN; m * LANES];
            window_gemm_per_lane_into(&dy, &src, &off, &mut out, &mut sums, m, n);
            for c in 0..m {
                for l in 0..LANES {
                    let d = |q: usize| dy[(c * n + q) * LANES + l];
                    for (kk, &o) in off.iter().enumerate() {
                        let want =
                            (0..n).fold(0.0f32, |acc, q| d(q).mul_add(src[o + q * LANES + l], acc));
                        let got = out[(c * k + kk) * LANES + l];
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{m}x{k}x{n} ({c}, {kk}, {l})"
                        );
                    }
                    let want = (0..n).fold(0.0f32, |acc, q| acc + d(q));
                    let got = sums[c * LANES + l];
                    assert_eq!(got.to_bits(), want.to_bits(), "{m}x{k}x{n} sum ({c}, {l})");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "whole steps")]
    fn per_lane_rejects_offsets_inside_a_step() {
        let (mut out, mut sums) = (vec![0.0f32; LANES], vec![0.0f32; LANES]);
        let src = vec![0.0f32; 3 * LANES];
        window_gemm_per_lane_into(&[0.0; LANES], &src, &[1], &mut out, &mut sums, 1, 1);
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
            (13, 9, 112),
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
