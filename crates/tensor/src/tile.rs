//! The one register tile every GEMM in this crate runs through, and the
//! row loop that drives it over a column panel.
//!
//! `matmul.rs` and `window.rs` differ only in where a reduction step's
//! operands come from: four (or one) left values and an `NB`-wide right
//! row, both handed to [`fma_tile`] **by value** as fixed-size arrays. That
//! is what keeps the tile fast without `unsafe`: the loop body indexes
//! nothing, so it has no bounds check, and the 4×32 accumulator block (16
//! 256-bit registers) plus one right row and a broadcast fit the 32
//! vector registers of an AVX-512 host, so nothing spills. Per step that
//! is 16 FMAs against 4 loads, 4 broadcasts and the loop control.
//!
//! The bit-exactness contract of the crate lives in [`fma_tile`]'s loop:
//! every output element is one accumulator from `+0.0`, one `f32::mul_add`
//! per term, in the order the steps arrive (ascending reduction index).

/// Output rows per register tile. Rows left over after the 4-row tiles run
/// one at a time. Taller is not faster: at 8 rows the autovectoriser turns
/// the tile into gathers and scatters (measured 5 GFLOP/s against 80 at
/// 32×256×64).
const TILE_ROWS: usize = 4;

/// The register tile: folds `acc[r][j] = fma(a[r], b[j], acc[r][j])` over
/// the reduction `steps` in the order they arrive, each step supplying `R`
/// left-operand values and an `NB`-wide right-operand row.
///
/// Steps arrive as fixed-size arrays and the tile is returned by value, so
/// the loop body has no bounds check and the tile stays in registers; each
/// caller applies its own store.
#[inline(always)]
fn fma_tile<const R: usize, const NB: usize>(
    steps: impl Iterator<Item = ([f32; R], [f32; NB])>,
) -> [[f32; NB]; R] {
    let mut acc = [[0.0f32; NB]; R];
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
    /// The steps of output rows `i..i + R`.
    fn steps<const R: usize>(self, i: usize) -> impl Iterator<Item = [f32; R]>;
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
    fn steps<const R: usize>(self, i: usize) -> impl Iterator<Item = [f32; R]> {
        let k = self.k;
        let rows: [&[f32]; R] = std::array::from_fn(|r| &self.a[(i + r) * k..][..k]);
        (0..k).map(move |kk| std::array::from_fn(|r| rows[r][kk]))
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
    fn steps<const R: usize>(self, i: usize) -> impl Iterator<Item = [f32; R]> {
        self.a
            .chunks_exact(self.m)
            .map(move |a_row| array_at(a_row, i))
    }
}

/// One `NB`-wide column panel of a product with `m` output rows: computes
/// the rows in ascending order (register tiles of [`TILE_ROWS`], then
/// single rows) and hands each finished row to `emit(i, row)`. `right`
/// yields the panel's right-operand rows in ascending reduction order and
/// is replayed once per tile.
#[inline(always)]
pub(crate) fn panel_rows<const NB: usize>(
    left: impl LeftSteps,
    m: usize,
    right: impl Iterator<Item = [f32; NB]> + Clone,
    mut emit: impl FnMut(usize, &[f32; NB]),
) {
    let mut i = 0;
    while i + TILE_ROWS <= m {
        let tile: [_; TILE_ROWS] = fma_tile(left.steps(i).zip(right.clone()));
        for (r, row) in tile.iter().enumerate() {
            emit(i + r, row);
        }
        i += TILE_ROWS;
    }
    while i < m {
        let [row] = fma_tile(left.steps(i).zip(right.clone()));
        emit(i, &row);
        i += 1;
    }
}
