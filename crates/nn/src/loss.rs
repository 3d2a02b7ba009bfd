//! Loss functions: softmax cross-entropy and mean squared error.

use tensor::Tensor;

/// Which loss a [`Network`](crate::Network) optimises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loss {
    /// Softmax + cross-entropy over class logits (classification).
    CrossEntropy,
    /// Mean squared error against one-hot targets (used for regression-style
    /// heads and in tests).
    MeanSquaredError,
}

impl Loss {
    /// Computes the mean loss over a batch and the gradient w.r.t. the
    /// logits.
    ///
    /// `logits` is `[batch, classes]`; `labels` has one class index per row.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree or a label is out of range.
    pub fn loss_and_grad(&self, logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
        match self {
            Loss::CrossEntropy => cross_entropy(logits, labels),
            Loss::MeanSquaredError => mse_one_hot(logits, labels),
        }
    }

    /// Computes only the mean loss (no gradient). Reduces
    /// [`Loss::row_losses`] with [`Loss::reduce_rows`], skipping the
    /// gradient work and its allocation entirely — the evaluation path.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree or a label is out of range.
    pub fn loss(&self, logits: &Tensor, labels: &[usize]) -> f32 {
        let (_, classes) = check(logits, labels);
        self.reduce_rows(&self.row_losses(logits, labels), classes)
    }

    /// The per-row loss summands, in row order.
    ///
    /// The batch loss is defined as `reduce_rows(row_losses)`; splitting a
    /// batch into row chunks, computing `row_losses` per chunk and reducing
    /// the concatenation gives **bit-identical** results to the one-shot
    /// batch loss (the float sequence per row and the row-order reduction
    /// are unchanged), which is what lets trace-point evaluation run as
    /// parallel chunk jobs.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree or a label is out of range.
    pub fn row_losses(&self, logits: &Tensor, labels: &[usize]) -> Vec<f64> {
        let (_, classes) = check(logits, labels);
        match self {
            Loss::CrossEntropy => {
                let mut cols = vec![[0.0f32; LANES]; classes];
                let mut rows = Vec::with_capacity(labels.len());
                for (r0, block) in (0..).step_by(LANES).zip(labels.chunks(LANES)) {
                    let sums = softmax_block(block_rows(logits, r0, block.len()), &mut cols);
                    rows.extend(
                        (block.iter().enumerate()).map(|(r, &l)| label_loss(cols[l][r], sums[r])),
                    );
                }
                rows
            }
            Loss::MeanSquaredError => labels
                .iter()
                .enumerate()
                .map(|(r, &label)| {
                    let row = logits.row(r);
                    let mut row_total = 0.0f64;
                    for (c, &v) in row.iter().enumerate() {
                        let target = if c == label { 1.0 } else { 0.0 };
                        let diff = v - target;
                        row_total += f64::from(diff * diff);
                    }
                    row_total
                })
                .collect(),
        }
    }

    /// Reduces per-row loss summands (from [`Loss::row_losses`], possibly
    /// concatenated across row chunks) to the mean batch loss.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or `classes == 0`.
    pub fn reduce_rows(&self, rows: &[f64], classes: usize) -> f32 {
        assert!(
            !rows.is_empty() && classes > 0,
            "cannot reduce an empty batch"
        );
        let total: f64 = rows.iter().fold(0.0f64, |acc, &v| acc + v);
        match self {
            Loss::CrossEntropy => (total / rows.len() as f64) as f32,
            Loss::MeanSquaredError => (total / (rows.len() * classes) as f64) as f32,
        }
    }
}

/// Numerically stable softmax cross-entropy.
///
/// Returns `(mean loss, d loss / d logits)` with the gradient already
/// averaged over the batch (`(softmax − onehot)/batch`).
fn cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    let (batch, classes) = check(logits, labels);
    let mut grad = Tensor::zeros(&[batch, classes]);
    let mut total = 0.0f64;
    let mut cols = vec![[0.0f32; LANES]; classes];
    for (r0, block) in (0..).step_by(LANES).zip(labels.chunks(LANES)) {
        let sums = softmax_block(block_rows(logits, r0, block.len()), &mut cols);
        let label: [usize; LANES] =
            std::array::from_fn(|r| block.get(r).copied().unwrap_or(usize::MAX));
        for (r, &l) in block.iter().enumerate() {
            total += label_loss(cols[l][r], sums[r]);
        }
        // `(softmax − onehot)/batch` a column at a time, then back into
        // the gradient rows.
        for (c, col) in cols.iter_mut().enumerate() {
            *col = std::array::from_fn(|r| {
                let onehot = if c == label[r] { 1.0 } else { 0.0 };
                (col[r] / sums[r] - onehot) / batch as f32
            });
        }
        let grad_rows = &mut grad.as_mut_slice()[r0 * classes..(r0 + block.len()) * classes];
        for (r, grow) in grad_rows.chunks_exact_mut(classes).enumerate() {
            for (g, col) in grow.iter_mut().zip(&cols) {
                *g = col[r];
            }
        }
    }
    ((total / batch as f64) as f32, grad)
}

/// The logits of rows `r0..r0 + rows`, flat.
fn block_rows(logits: &Tensor, r0: usize, rows: usize) -> &[f32] {
    let classes = logits.dims()[1];
    &logits.as_slice()[r0 * classes..(r0 + rows) * classes]
}

/// The one softmax kernel behind [`cross_entropy`] and
/// [`Loss::row_losses`], over a block of at most [`LANES`] logit `rows`
/// (flat, `cols.len()` classes each): leaves `exp(v − max)` of logit `c`
/// of row `r` in `cols[c][r]` and returns the row sums, each added left to
/// right in `f32`.
///
/// One lane per row: the block is loaded column by column, so the rows'
/// exponentials and add chains advance together rather than one
/// latency-bound row at a time, and each row still sees the float
/// operations of the one-row loop (its max, one [`expf`] per logit, its
/// own left-to-right sum). The max order is free: the max reaches the
/// output only through `exp(v − max)`, which is the same for either zero
/// sign, and `f32::max` drops a NaN in any order. Lanes past the block's
/// rows repeat its last row and are never read.
fn softmax_block(rows: &[f32], cols: &mut [[f32; LANES]]) -> [f32; LANES] {
    let classes = cols.len();
    let last = rows.len() / classes - 1;
    let row: [&[f32]; LANES] = std::array::from_fn(|r| &rows[r.min(last) * classes..][..classes]);
    for (c, col) in cols.iter_mut().enumerate() {
        *col = std::array::from_fn(|r| row[r][c]);
    }
    let max = cols.iter().fold([f32::NEG_INFINITY; LANES], |m, col| {
        std::array::from_fn(|r| m[r].max(col[r]))
    });
    let mut sums = [0.0f32; LANES];
    for col in cols.iter_mut() {
        *col = exp_lanes(std::array::from_fn(|r| col[r] - max[r]));
        for (s, &e) in sums.iter_mut().zip(col.iter()) {
            *s += e;
        }
    }
    sums
}

/// One row's loss summand, `−ln softmax[label]`, from the label's
/// exponential and the row sum of [`softmax_block`].
fn label_loss(exp_label: f32, sum: f32) -> f64 {
    -f64::from((exp_label / sum).max(f32::MIN_POSITIVE).ln())
}

/// Rows per block of [`softmax_block`], and values per call of
/// [`exp_lanes`].
const LANES: usize = 16;

/// [`expf`] on every lane. The array comes and goes by value and `expf`
/// has no branch, so the loop vectorises.
#[inline(always)]
fn exp_lanes(x: [f32; LANES]) -> [f32; LANES] {
    let mut out = [0.0f32; LANES];
    for (o, &v) in out.iter_mut().zip(&x) {
        *o = expf(v);
    }
    out
}

/// Table size of the port, `2^EXP2F_TABLE_BITS`: `2^(k/N)` comes from a
/// table of `N` entries.
const N: f64 = 32.0;
/// `0x1.c6af84b912394p-5 / N³`
const C0: f64 = f64::from_bits(0x3fac_6af8_4b91_2394) / (N * N * N);
/// `0x1.ebfce50fac4f3p-3 / N²`
const C1: f64 = f64::from_bits(0x3fce_bfce_50fa_c4f3) / (N * N);
/// `0x1.62e42ff0c52d6p-1 / N`
const C2: f64 = f64::from_bits(0x3fe6_2e42_ff0c_52d6) / N;
/// `0x1.71547652b82fep+0 · N`, `N / ln 2`.
const INV_LN2_N: f64 = f64::from_bits(0x3ff7_1547_652b_82fe) * N;
/// `0x1.8p+52`: adding it rounds to an integer, ties to even.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// Above this (`0x1.62e42ep6`, ≈ 88.72) the result overflows to `+inf`.
const OVERFLOW: f32 = f32::from_bits(0x42b1_7217);
/// Below this (`−0x1.9fe368p6`, ≈ −103.97) the result underflows to `0`.
const UNDERFLOW: f32 = f32::from_bits(0xc2cf_f1b4);
/// `T[i] = bits(2^(i/N)) − (i << 47)`: adding `k << 47` to entry `k % N`
/// gives the bits of `2^(k/N)`.
const T: [u64; 32] = [
    0x3ff0_0000_0000_0000,
    0x3fef_d9b0_d315_8574,
    0x3fef_b558_6cf9_890f,
    0x3fef_9301_d012_5b51,
    0x3fef_72b8_3c7d_517b,
    0x3fef_5487_3168_b9aa,
    0x3fef_387a_6e75_6238,
    0x3fef_1e9d_f51f_dee1,
    0x3fef_06fe_0a31_b715,
    0x3fee_f1a7_373a_a9cb,
    0x3fee_dea6_4c12_3422,
    0x3fee_ce08_6061_892d,
    0x3fee_bfda_d536_2a27,
    0x3fee_b42b_569d_4f82,
    0x3fee_ab07_dd48_5429,
    0x3fee_a47e_b03a_5585,
    0x3fee_a09e_667f_3bcd,
    0x3fee_9f75_e8ec_5f74,
    0x3fee_a114_73eb_0187,
    0x3fee_a589_994c_ce13,
    0x3fee_ace5_422a_a0db,
    0x3fee_b737_b0cd_c5e5,
    0x3fee_c491_82a3_f090,
    0x3fee_d503_b23e_255d,
    0x3fee_e89f_995a_d3ad,
    0x3fee_ff76_f2fb_5e47,
    0x3fef_199b_dd85_529c,
    0x3fef_3720_dcef_9069,
    0x3fef_5818_dcfb_a487,
    0x3fef_7c97_337b_9b5f,
    0x3fef_a4af_a2a4_90da,
    0x3fef_d076_5b6e_4540,
];

/// `e^x`, equal bit for bit to the `expf` of glibc ≥ 2.28 (ARM's
/// optimized-routines, built with fused multiply-add) on every input: a
/// safe-Rust port, all in `f64`.
///
/// It writes `x·N/ln 2 = k + r` with integer `k` and `|r| ≤ 1/2`, takes
/// `2^(k/N)` from [`T`] and `2^(r/N)` from a cubic, and rounds their
/// product to `f32` once. Out-of-range and NaN inputs are three selects
/// rather than branches, so a loop over it vectorises.
///
/// Because the softmax exponentials come from here and not from the
/// platform's `expf` (musl's and macOS's differ from glibc's in the last
/// bit), the cross-entropy gradient bits no longer depend on the host's
/// libm. The loss value still takes one libm `ln` per row.
#[inline(always)]
fn expf(x: f32) -> f32 {
    let xd = f64::from(x);
    let k = INV_LN2_N.mul_add(xd, SHIFT);
    let ki = k.to_bits();
    let kd = k - SHIFT;
    let r = INV_LN2_N.mul_add(xd, -kd);
    let s = f64::from_bits(T[(ki % 32) as usize].wrapping_add(ki << 47));
    let y = C0.mul_add(r, C1).mul_add(r * r, C2.mul_add(r, 1.0));
    let e = (y * s) as f32;
    let e = if x > OVERFLOW { f32::INFINITY } else { e };
    let e = if x < UNDERFLOW { 0.0 } else { e };
    if x.is_nan() {
        x + x
    } else {
        e
    }
}

/// MSE against one-hot targets: `mean((logits − onehot)²)`.
fn mse_one_hot(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    let (batch, classes) = check(logits, labels);
    let n = (batch * classes) as f32;
    let mut grad = Tensor::zeros(&[batch, classes]);
    let mut total = 0.0f64;
    for (r, &label) in labels.iter().enumerate() {
        let row = logits.row(r);
        let grow = grad.row_mut(r);
        for c in 0..classes {
            let target = if c == label { 1.0 } else { 0.0 };
            let diff = row[c] - target;
            total += f64::from(diff * diff);
            grow[c] = 2.0 * diff / n;
        }
    }
    ((total / f64::from(n)) as f32, grad)
}

fn check(logits: &Tensor, labels: &[usize]) -> (usize, usize) {
    assert_eq!(
        logits.shape().rank(),
        2,
        "logits must be [batch, classes], got {}",
        logits.shape()
    );
    let (batch, classes) = (logits.dims()[0], logits.dims()[1]);
    assert_eq!(
        batch,
        labels.len(),
        "batch size {batch} does not match {} labels",
        labels.len()
    );
    if let Some(&bad) = labels.iter().find(|&&l| l >= classes) {
        panic!("label {bad} out of range for {classes} classes");
    }
    (batch, classes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let logits = Tensor::from_vec(vec![10.0, -10.0, -10.0], &[1, 3]).unwrap();
        let (loss, _) = Loss::CrossEntropy.loss_and_grad(&logits, &[0]);
        assert!(loss < 1e-6, "loss {loss}");
    }

    #[test]
    fn cross_entropy_of_uniform_logits_is_log_k() {
        let logits = Tensor::zeros(&[2, 4]);
        let (loss, _) = Loss::CrossEntropy.loss_and_grad(&logits, &[1, 3]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradient_rows_sum_to_zero() {
        let logits = Tensor::from_vec(vec![0.3, -0.2, 0.9, 0.1, 0.1, 0.4], &[2, 3]).unwrap();
        let (_, grad) = Loss::CrossEntropy.loss_and_grad(&logits, &[2, 0]);
        for r in 0..2 {
            let s: f32 = grad.row(r).iter().sum();
            assert!(s.abs() < 1e-6, "row {r} sums to {s}");
        }
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let logits = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.1], &[2, 2]).unwrap();
        let labels = [1usize, 0];
        let (_, grad) = Loss::CrossEntropy.loss_and_grad(&logits, &labels);
        let eps = 1e-3f32;
        for idx in 0..4 {
            let mut lp = logits.clone();
            lp.as_mut_slice()[idx] += eps;
            let mut lm = logits.clone();
            lm.as_mut_slice()[idx] -= eps;
            let fp = Loss::CrossEntropy.loss(&lp, &labels);
            let fm = Loss::CrossEntropy.loss(&lm, &labels);
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (fd - grad.at(idx)).abs() < 1e-3,
                "idx {idx}: fd {fd} vs {}",
                grad.at(idx)
            );
        }
    }

    #[test]
    fn mse_gradient_matches_finite_difference() {
        let logits = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.1], &[2, 2]).unwrap();
        let labels = [1usize, 0];
        let (_, grad) = Loss::MeanSquaredError.loss_and_grad(&logits, &labels);
        let eps = 1e-3f32;
        for idx in 0..4 {
            let mut lp = logits.clone();
            lp.as_mut_slice()[idx] += eps;
            let mut lm = logits.clone();
            lm.as_mut_slice()[idx] -= eps;
            let fp = Loss::MeanSquaredError.loss(&lp, &labels);
            let fm = Loss::MeanSquaredError.loss(&lm, &labels);
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (fd - grad.at(idx)).abs() < 1e-3,
                "idx {idx}: fd {fd} vs {}",
                grad.at(idx)
            );
        }
    }

    #[test]
    fn mse_zero_at_exact_one_hot() {
        let logits = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]).unwrap();
        let (loss, grad) = Loss::MeanSquaredError.loss_and_grad(&logits, &[1]);
        assert_eq!(loss, 0.0);
        assert_eq!(grad.norm(), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn label_out_of_range_panics() {
        let logits = Tensor::zeros(&[1, 2]);
        let _ = Loss::CrossEntropy.loss_and_grad(&logits, &[5]);
    }

    /// Softmax cross-entropy as the crate first computed it, one scalar
    /// pass per step: fold max, `f32::exp` per logit, left-to-right `f32`
    /// sum. Returns the per-row losses and the batch-averaged gradient.
    fn reference_cross_entropy(logits: &Tensor, labels: &[usize]) -> (Vec<f64>, Vec<f32>) {
        let (batch, classes) = (logits.dims()[0], logits.dims()[1]);
        let mut rows = Vec::new();
        let mut grad = Vec::new();
        for (r, &label) in labels.iter().enumerate() {
            let row = logits.row(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f32> = row.iter().map(|&v| (v - max).exp()).collect();
            let sum = exps.iter().fold(0.0f32, |acc, &e| acc + e);
            rows.push(-f64::from((exps[label] / sum).max(f32::MIN_POSITIVE).ln()));
            for (c, &e) in exps.iter().enumerate() {
                let onehot = if c == label { 1.0 } else { 0.0 };
                grad.push((e / sum - onehot) / batch as f32);
            }
        }
        assert_eq!(grad.len(), batch * classes);
        (rows, grad)
    }

    /// `to_bits` of every value, with every NaN mapped to one pattern: a
    /// NaN's payload is whichever operand the hardware picked, which no
    /// source order pins.
    fn canonical_bits(v: impl IntoIterator<Item = f64>) -> Vec<u64> {
        v.into_iter()
            .map(|x| if x.is_nan() { u64::MAX } else { x.to_bits() })
            .collect()
    }

    #[test]
    fn cross_entropy_is_bit_identical_to_the_scalar_reference() {
        // Every lane remainder of an 8- or 16-wide pass (classes); batches
        // 1..=33, 47, 48, 49 and the 256-row eval chunk, so full, partial
        // and several 16-row blocks; and rows that stress the max and the
        // exponentials: ties, ±0, -inf (also a whole row of it), spreads of
        // 1e4, a NaN, the last two inside every full block.
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for classes in [1usize, 2, 7, 8, 9, 10, 16, 100, 101] {
            for batch in (1..=33usize).chain([47, 48, 49, 256]) {
                let mut logits = Vec::with_capacity(batch * classes);
                for r in 0..batch {
                    for c in 0..classes {
                        let u = (next() >> 40) as f32 / (1u64 << 24) as f32;
                        logits.push(match r % 8 {
                            0 => u * 8.0 - 4.0,
                            1 => (u * 4.0).floor(),
                            2 => [0.0, -0.0][c % 2],
                            3 if c % 3 == 0 => f32::NEG_INFINITY,
                            4 => f32::NEG_INFINITY,
                            5 => (u - 0.5) * 2e4,
                            6 if c == classes / 2 => f32::NAN,
                            _ => u * 60.0 - 30.0,
                        });
                    }
                }
                let labels: Vec<usize> = (0..batch).map(|_| next() as usize % classes).collect();
                let logits = Tensor::from_vec(logits, &[batch, classes]).unwrap();
                let (rows, grad) = reference_cross_entropy(&logits, &labels);
                let total = rows.iter().fold(0.0f64, |acc, &v| acc + v);
                let mean = (total / batch as f64) as f32;

                let case = format!("classes {classes}, batch {batch}");
                let got_rows = Loss::CrossEntropy.row_losses(&logits, &labels);
                assert_eq!(
                    canonical_bits(got_rows),
                    canonical_bits(rows),
                    "rows, {case}"
                );
                let (loss, got_grad) = Loss::CrossEntropy.loss_and_grad(&logits, &labels);
                assert_eq!(
                    canonical_bits([f64::from(loss)]),
                    canonical_bits([f64::from(mean)]),
                    "loss, {case}"
                );
                assert_eq!(
                    canonical_bits(got_grad.as_slice().iter().map(|&g| f64::from(g))),
                    canonical_bits(grad.iter().map(|&g| f64::from(g))),
                    "grad, {case}"
                );
            }
        }
    }

    /// Runs [`exp_lanes`], the shipped vectorised path, over `inputs` and
    /// asserts each result equals `f32::exp` bit for bit, or both are NaN.
    /// glibc's `expf` is the routine the port reproduces, so other C
    /// libraries are no reference.
    #[cfg(target_env = "gnu")]
    fn assert_exp_matches_libm(inputs: impl Iterator<Item = f32>) {
        let check = |xs: [f32; LANES]| {
            for (x, got) in xs.into_iter().zip(exp_lanes(xs)) {
                let want = x.exp();
                assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "expf({x:e} = {:#010x}) = {got:e}, libm {want:e}",
                    x.to_bits()
                );
            }
        };
        let mut xs = [0.0f32; LANES];
        let mut filled = 0;
        for x in inputs {
            xs[filled] = x;
            filled += 1;
            if filled == LANES {
                check(xs);
                filled = 0;
            }
        }
        check(xs);
    }

    #[test]
    fn exp_table_is_two_to_the_i_over_n() {
        for (i, &t) in (0u64..).zip(&T) {
            assert_eq!(t, (i as f64 / N).exp2().to_bits() - (i << 47), "T[{i}]");
        }
    }

    #[test]
    #[cfg(target_env = "gnu")]
    fn exp_port_matches_libm_on_a_sample_and_every_edge() {
        let bits = |from: u32, to: u32| (from..=to).map(f32::from_bits);
        let around = |x: f32| bits(x.to_bits() - 4, x.to_bits() + 4);
        // Every 4 099th pattern (prime stride: every exponent, both signs,
        // varied mantissas), the specials, both thresholds and their
        // neighbours, the `|x| ≥ 88` entry of glibc's slow path, and every
        // input whose result is subnormal (−103.97 < x < −87.34). The last
        // two patterns in `specials` round differently if `r` is computed
        // without a fused multiply-add.
        let sample = (0..=u32::MAX).step_by(4_099).map(f32::from_bits);
        let specials = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
        ]
        .into_iter()
        .chain(
            [
                0x7f80_0001,
                0x7fc0_1234,
                0xffbf_ffff,
                0xff80_0001,
                0x4202_422f,
                0xc27c_65d9,
            ]
            .map(f32::from_bits),
        );
        let subnormal = bits((-87.33f32).to_bits(), UNDERFLOW.to_bits());
        assert_exp_matches_libm(
            sample
                .chain(specials)
                .chain(around(OVERFLOW))
                .chain(around(UNDERFLOW))
                .chain(around(88.0))
                .chain(around(-88.0))
                .chain(subnormal),
        );
    }

    /// All 2³² inputs, split over two threads: about 20 s in the release
    /// build. `cargo test --release -p nn -- --ignored`.
    #[test]
    #[ignore = "exhaustive over every f32; run in the release build"]
    #[cfg(target_env = "gnu")]
    fn exp_port_matches_libm_on_every_input() {
        std::thread::scope(|s| {
            for half in [0u32, 1 << 31] {
                s.spawn(move || {
                    assert_exp_matches_libm((half..=half | 0x7fff_ffff).map(f32::from_bits))
                });
            }
        });
    }

    #[test]
    fn cross_entropy_is_stable_for_large_logits() {
        let logits = Tensor::from_vec(vec![1e4, -1e4], &[1, 2]).unwrap();
        let (loss, grad) = Loss::CrossEntropy.loss_and_grad(&logits, &[0]);
        assert!(loss.is_finite());
        assert!(!grad.has_non_finite());
    }
}
