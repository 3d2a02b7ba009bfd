//! The one register tile every GEMM in this crate runs through, and the
//! row loop that drives it over a column panel.
//!
//! `matmul.rs` and `window.rs` differ only in where a reduction step's
//! operands come from: four (or one) left values and an `NB`-wide right
//! row, both handed to [`fma_tile`] **by value** as fixed-size arrays. That
//! is what keeps the tile fast without `unsafe`: the loop body indexes
//! nothing, so it has no bounds check, and the accumulators stay in
//! registers across the whole reduction block.
//!
//! **Register budget.** A full tile is 4 rows × [`WIDE`] columns: 16
//! accumulator registers, plus the 4 registers of one right row and a
//! broadcast, which is 21 of the 32 vector registers of an AVX-512 host,
//! so nothing spills. Per step that is 16 FMAs against 4 loads, 4
//! broadcasts and the loop control. With 512-bit registers `WIDE` is 64;
//! the 32-column panel the driver falls back to is then 8 zmm accumulators,
//! which leaves the two FMA ports too few independent chains to hide
//! their latency (the 32×256×64 product ran at 55–70 GFLOP/s that way,
//! against an FMA peak of about 140). Taller tiles are ruled out, see
//! [`TILE_ROWS`].
//!
//! The bit-exactness contract of the crate lives in [`fma_tile`]'s loop:
//! every output element is one accumulator from `+0.0`, one `f32::mul_add`
//! per term, in the order the steps arrive (ascending reduction index). A
//! reduction may run in blocks of steps: the tile then starts from the
//! partial row the previous block stored. That continues the same chain,
//! because an `f32` stored to memory and loaded back is the same value.

use std::ops::Range;

/// Columns of the widest panel: four vector registers per tile row, so a
/// full tile holds 16 accumulator registers. That is 64 columns where the
/// build has 512-bit registers (AVX-512, which `.cargo/config.toml` lets
/// the autovectoriser use at full width) and 32 with 256-bit ones. The
/// same 64 columns in 256-bit registers would need all 32 of them for
/// accumulators alone and spill.
pub(crate) const WIDE: usize = if cfg!(target_feature = "avx512f") {
    64
} else {
    32
};

/// Output rows per register tile. Rows left over after the 4-row tiles run
/// one at a time. Taller is not faster: at 8 rows the autovectoriser turns
/// the tile into gathers and scatters (measured 5 GFLOP/s against 80 at
/// 32×256×64, and a 14× slower MLP training step).
const TILE_ROWS: usize = 4;

/// The register tile: folds `acc[r][j] = fma(a[r], b[j], acc[r][j])` over
/// the reduction `steps` in the order they arrive, each step supplying `R`
/// left-operand values and an `NB`-wide right-operand row, starting from
/// the accumulators `acc` (zeros, or the partial rows of earlier steps).
///
/// Steps arrive as fixed-size arrays and the tile is returned by value, so
/// the loop body has no bounds check and the tile stays in registers; each
/// caller applies its own store.
#[inline(always)]
fn fma_tile<const R: usize, const NB: usize>(
    mut acc: [[f32; NB]; R],
    steps: impl Iterator<Item = ([f32; R], [f32; NB])>,
) -> [[f32; NB]; R] {
    for (a, b) in steps {
        for (accr, &av) in acc.iter_mut().zip(&a) {
            for (o, &bv) in accr.iter_mut().zip(&b) {
                *o = av.mul_add(bv, *o);
            }
        }
    }
    acc
}

/// `v[at..at + N]` as an array.
#[inline(always)]
pub(crate) fn array_at<const N: usize>(v: &[f32], at: usize) -> [f32; N] {
    v[at..at + N].try_into().expect("slice has N elements")
}

/// Columns `j0..j0 + NB` of every row of a row-major matrix `stride`
/// columns wide: the right-operand rows of one panel read in place.
#[inline(always)]
pub(crate) fn matrix_rows<const NB: usize>(
    b: &[f32],
    stride: usize,
    j0: usize,
) -> impl Iterator<Item = [f32; NB]> + Clone + '_ {
    b.chunks_exact(stride).map(move |row| array_at(row, j0))
}

/// How a product reads its left operand: the values of `R` consecutive
/// output rows at each reduction step, in ascending step order.
pub(crate) trait LeftSteps: Copy {
    /// Steps `ks` of output rows `i..i + R`.
    fn steps<const R: usize>(self, i: usize, ks: Range<usize>) -> impl Iterator<Item = [f32; R]>;
}

/// A row-major `[m, k]` left operand (`a · …`): output row `i` is the
/// contiguous slice `a[i·k..(i+1)·k]`, so a step gathers one scalar from
/// each of `R` rows. The row slices are bounds-checked once per tile.
#[derive(Clone, Copy)]
pub(crate) struct LeftRows<'a> {
    pub a: &'a [f32],
    pub k: usize,
}

impl LeftSteps for LeftRows<'_> {
    #[inline(always)]
    fn steps<const R: usize>(self, i: usize, ks: Range<usize>) -> impl Iterator<Item = [f32; R]> {
        let (k, len) = (self.k, ks.len());
        let rows: [&[f32]; R] = std::array::from_fn(|r| &self.a[(i + r) * k + ks.start..][..len]);
        (0..len).map(move |kk| std::array::from_fn(|r| rows[r][kk]))
    }
}

/// A row-major `[k, m]` left operand read transposed (`aᵀ · …`): the `R`
/// values of one step are adjacent, `a[kk][i..i + R]`, so nothing is packed
/// or gathered.
#[derive(Clone, Copy)]
pub(crate) struct LeftCols<'a> {
    pub a: &'a [f32],
    pub m: usize,
}

impl LeftSteps for LeftCols<'_> {
    #[inline(always)]
    fn steps<const R: usize>(self, i: usize, ks: Range<usize>) -> impl Iterator<Item = [f32; R]> {
        self.a[ks.start * self.m..ks.end * self.m]
            .chunks_exact(self.m)
            .map(move |a_row| array_at(a_row, i))
    }
}

/// Reduction steps `ks` of one `NB`-wide column panel of a product with `m`
/// output rows: computes the rows in ascending order (register tiles of
/// [`TILE_ROWS`], then single rows), each from the accumulators
/// `init(out, i)` gives it, and hands each finished row to
/// `emit(out, i, row)`. `right` yields the panel's right-operand rows of
/// those steps in ascending order and is replayed once per tile. `out` is
/// passed through to both, so `init` may read the partial row an earlier
/// block of steps stored there.
#[inline(always)]
pub(crate) fn panel_rows<const NB: usize>(
    left: impl LeftSteps,
    ks: Range<usize>,
    right: impl Iterator<Item = [f32; NB]> + Clone,
    out: &mut [f32],
    m: usize,
    init: impl Fn(&[f32], usize) -> [f32; NB],
    mut emit: impl FnMut(&mut [f32], usize, &[f32; NB]),
) {
    let mut i = 0;
    while i + TILE_ROWS <= m {
        let acc = std::array::from_fn(|r| init(out, i + r));
        let tile: [_; TILE_ROWS] = fma_tile(acc, left.steps(i, ks.clone()).zip(right.clone()));
        for (r, row) in tile.iter().enumerate() {
            emit(out, i + r, row);
        }
        i += TILE_ROWS;
    }
    while i < m {
        let [row] = fma_tile([init(out, i)], left.steps(i, ks.clone()).zip(right.clone()));
        emit(out, i, &row);
        i += 1;
    }
}
