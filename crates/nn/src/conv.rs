//! 2-D convolution and max-pooling over flattened `[batch, c·h·w]` tensors.
//!
//! Images travel through the network flattened row-major as `[c, h, w]`;
//! each spatial layer carries its own input geometry, so no tensor-level
//! NCHW machinery is needed.
//!
//! # Zero-copy convolution
//!
//! [`Conv2d`] copies each image once into **zero-bordered planes** — per
//! channel an `H' × W'` grid, `H' = h + 2·pad`, `W' = w + 2·pad`, the image
//! in the middle and `+0.0` around it. In that layout im2col row
//! `kk = (ch, ky, kx)` *is* the contiguous slice starting at
//! `off[kk] = ch·H'W' + ky·W' + kx`, indexed by the **padded-flat** output
//! pixel `q = oy·W' + ox`: `plane[off[kk] + q]` is input pixel
//! `(ch, oy + ky, ox + kx)` of the bordered image. So the im2col matrix
//! never exists, in any form: all three convolution products are the
//! windowed GEMM kernels of `tensor` ([`tensor::window_gemm_tn_into`] and
//! its siblings) over the offset table `off`, with no packing and no
//! scatter.
//!
//! Padded-flat rows are `W'` wide but only `ow = W' − k + 1` pixels of each
//! are outputs; the other `k − 1` are **wrap columns** (the window has run
//! over the right border into the next row). Forward computes them and
//! drops them at the store (12 % extra FMAs at 16×16); the gradient planes
//! hold `+0.0` there, so they contribute nothing.
//!
//! # Why the bits do not change
//!
//! Every output element sees the same ordered float operations as the
//! materialised-im2col formulation (the test-only reference in this file):
//!
//! 1. **Forward** — `y[co][q] = Σ_kk W[co][kk] · plane[off[kk] + q]`, one
//!    FMA accumulator from `+0.0`, `kk` ascending; border terms are
//!    `fma(w, +0, acc)`, exactly the zeros im2col holds at padding.
//! 2. **Weight gradient** — vector lanes run across *output channels*, so
//!    each `(co, kk)` element is still one accumulator reduced over pixels
//!    in ascending order; a wrap column adds `fma(+0, x, acc)`, which
//!    leaves a finite `acc` unchanged. Per-image `dW` is then added into
//!    `grad_weight` in image order. The bias gradient is the same pass's
//!    column sums.
//! 3. **Input gradient** — col2im is fused into the product: row `kk` of
//!    `Wᵀ·dy` is added straight into the window at `off[kk]` of a
//!    zero-bordered gradient plane. An input pixel receives its `(ky, kx)`
//!    contributions in ascending `kk` (the kernel's ordering rule, see
//!    [`tensor::window_gemm_tn_add`]), as the col2im loop delivered them;
//!    wrap columns add `+0.0`.
//!
//! Accumulators start at `+0.0` and every gradient buffer is zero-filled,
//! so a `−0.0` that an extra `+0.0` term could flip never reaches a stored
//! value. Inputs that already hold inf/NaN carry no bit contract.

use crate::Layer;
use rand::Rng;
use tensor::{
    window_gemm_lanes_into, window_gemm_tn_add, window_gemm_tn_into, Init, Tensor, WINDOW_PANEL,
};

/// The `(channels, height, width)` geometry of a flattened image tensor.
pub type ImageDims = (usize, usize, usize);

/// Sizes of one layer's padded-flat layout (see the module docs).
#[derive(Debug, Clone, Copy)]
struct Layout {
    /// Input geometry `(c, h, w)`.
    dims: ImageDims,
    pad: usize,
    /// Output spatial size `(oh, ow)`.
    out_hw: (usize, usize),
    /// Bordered row length `W'`.
    row: usize,
    /// One image's bordered planes, `c·H'·W'`.
    plane_len: usize,
    /// Padded-flat output pixels, `(oh − 1)·W' + ow`.
    pixels: usize,
    /// `pixels` rounded up to the window kernels' panel width.
    width: usize,
    /// Output channels rounded up to the lane kernel's vector width.
    lanes: usize,
}

impl Layout {
    fn new(dims: ImageDims, out_channels: usize, kernel: usize, pad: usize) -> Self {
        let (c, h, w) = dims;
        let (rows, row) = (h + 2 * pad, w + 2 * pad);
        let (oh, ow) = (rows - kernel + 1, row - kernel + 1);
        let pixels = (oh - 1) * row + ow;
        let width = pixels.next_multiple_of(WINDOW_PANEL);
        Layout {
            dims,
            pad,
            out_hw: (oh, ow),
            row,
            plane_len: c * rows * row,
            pixels,
            width,
            lanes: out_channels.next_multiple_of(8),
        }
    }

    /// Length of a buffer of `images` bordered planes: the planes plus
    /// `width − pixels` trailing zeros, so that a full-width window at the
    /// largest offset of the last image stays in bounds.
    fn planes_len(self, images: usize) -> usize {
        images * self.plane_len + self.width - self.pixels
    }

    /// Where each image row starts inside the bordered planes, in
    /// flattened-image row order `(ch, iy)`.
    fn interior_rows(self) -> impl Iterator<Item = usize> {
        let (c, h, _) = self.dims;
        let rows = h + 2 * self.pad;
        (0..c).flat_map(move |ch| {
            (0..h).map(move |iy| (ch * rows + iy + self.pad) * self.row + self.pad)
        })
    }

    /// Copies a flattened image into the interior of its bordered planes.
    fn fill_planes(self, img: &[f32], planes: &mut [f32]) {
        let w = self.dims.2;
        for (src, at) in img.chunks_exact(w).zip(self.interior_rows()) {
            planes[at..at + w].copy_from_slice(src);
        }
    }
}

/// 3×3-style 2-D convolution with stride 1 and symmetric zero padding.
///
/// Input: `[batch, c_in·h·w]`; output `[batch, c_out·h'·w']` with
/// `h' = h + 2·pad − k + 1`.
///
/// Every geometry runs the same zero-copy path: each image is copied once
/// into zero-bordered `(h + 2·pad) × (w + 2·pad)` planes, where im2col row
/// `(ch, ky, kx)` is the contiguous slice at `ch·H'W' + ky·W' + kx`, and
/// the forward, weight-gradient and input-gradient products are
/// [`tensor::window_gemm_tn_into`], [`tensor::window_gemm_lanes_into`] and
/// [`tensor::window_gemm_tn_add`] over that offset table. No im2col or
/// gradient-column matrix is ever built; steady state, `forward` allocates
/// only its output and `backward` only `dx`. Results are bit-identical to
/// the materialised-im2col formulation (per element: one FMA accumulator
/// from `+0.0` in ascending `(ch, ky, kx)` / pixel order; per-image `dW`
/// added in image order; `dx` contributions in ascending `(ky, kx)`). The
/// training-mode cache is the bordered batch.
///
/// # Example
///
/// ```
/// use nn::{Conv2d, Layer};
/// use rand::SeedableRng;
/// use tensor::Tensor;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// // 1×8×8 input, 4 output channels, 3×3 kernel, padding 1 => 4×8×8 output.
/// let mut conv = Conv2d::new((1, 8, 8), 4, 3, 1, &mut rng);
/// let y = conv.forward(&Tensor::zeros(&[2, 64]), true);
/// assert_eq!(y.dims(), &[2, 4 * 8 * 8]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    out_channels: usize,
    weight: Tensor, // [c_out, c_in*k*k]
    bias: Tensor,   // [c_out]
    grad_weight: Tensor,
    grad_bias: Tensor,
    lay: Layout,
    // Window offset table: im2col row kk starts at off[kk] of an image's
    // bordered planes.
    off: Vec<usize>,
    // Backward cache: the training-mode batch as bordered planes, image b
    // at b·plane_len (`Layout::planes_len`); reused across batches of the
    // same size.
    cached_planes: Vec<f32>,
    cached_batch: usize,
    // Per-layer workspaces, sized by the first pass that needs them (an
    // evaluation replica never pays for the backward ones), so that steady
    // state the passes allocate only their returned tensors. Borders, wrap
    // columns, trailing zeros and dead lanes are +0.0 from allocation and
    // no pass ever writes them (dx_planes is re-zeroed whole per image).
    eval_planes: Vec<f32>, // one image's bordered planes
    weight_t: Vec<f32>,    // [c_in*k*k, c_out]: forward's transposed weights
    y_rows: Vec<f32>,      // [c_out, width]: padded-flat forward rows
    dy_lanes: Vec<f32>,    // [pixels, lanes]: dy transposed
    dy_rows: Vec<f32>,     // [c_out, width]: padded-flat dy
    dw_lanes: Vec<f32>,    // [c_in*k*k, lanes]: one image's dW
    db_lanes: Vec<f32>,    // [lanes]: one image's db
    dx_planes: Vec<f32>,   // one image's bordered dx planes
}

impl Conv2d {
    /// Creates a convolution layer.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or the kernel (after padding) does
    /// not fit in the input.
    pub fn new<R: Rng + ?Sized>(
        input_dims: ImageDims,
        out_channels: usize,
        kernel: usize,
        pad: usize,
        rng: &mut R,
    ) -> Self {
        let (c, h, w) = input_dims;
        assert!(c > 0 && h > 0 && w > 0, "degenerate input geometry");
        assert!(out_channels > 0 && kernel > 0, "degenerate convolution");
        assert!(
            h + 2 * pad >= kernel && w + 2 * pad >= kernel,
            "kernel {kernel} does not fit input {h}x{w} with padding {pad}"
        );
        let fan_in = c * kernel * kernel;
        let lay = Layout::new(input_dims, out_channels, kernel, pad);
        let taps = kernel * kernel;
        let off = (0..fan_in)
            .map(|kk| {
                let (ch, ky, kx) = (kk / taps, kk % taps / kernel, kk % kernel);
                ch * (lay.plane_len / c) + ky * lay.row + kx
            })
            .collect();
        Conv2d {
            out_channels,
            weight: Init::KaimingUniform { fan_in }.init(&[out_channels, fan_in], rng),
            bias: Tensor::zeros(&[out_channels]),
            grad_weight: Tensor::zeros(&[out_channels, fan_in]),
            grad_bias: Tensor::zeros(&[out_channels]),
            lay,
            off,
            cached_planes: Vec::new(),
            cached_batch: 0,
            eval_planes: Vec::new(),
            weight_t: Vec::new(),
            y_rows: Vec::new(),
            dy_lanes: Vec::new(),
            dy_rows: Vec::new(),
            dw_lanes: Vec::new(),
            db_lanes: Vec::new(),
            dx_planes: Vec::new(),
        }
    }

    /// Output geometry `(c_out, h', w')`.
    pub fn output_dims(&self) -> ImageDims {
        let (oh, ow) = self.lay.out_hw;
        (self.out_channels, oh, ow)
    }

    /// The parameter-gradient half shared by `backward` and
    /// `backward_param_only`: per batch element, `dW` and `db` through the
    /// lane kernel, added into the preallocated gradient buffers in image
    /// order. Returns the batch size.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode `forward` or the batch size
    /// changed.
    fn accumulate_param_grads(&mut self, grad_out: &Tensor) -> usize {
        assert!(self.cached_batch > 0, "backward called before forward");
        let batch = grad_out.dims()[0];
        assert_eq!(
            batch, self.cached_batch,
            "batch size changed between forward and backward"
        );
        let lay = self.lay;
        let (oh, ow) = lay.out_hw;
        let fan_in = self.off.len();
        self.grad_weight.fill_zero();
        self.grad_bias.fill_zero();
        self.dy_lanes.resize(lay.pixels * lay.lanes, 0.0);
        self.dw_lanes.resize(fan_in * lay.lanes, 0.0);
        self.db_lanes.resize(lay.lanes, 0.0);
        for b in 0..batch {
            // dy transposed to [pixel, channel lane].
            for (ch, dy_ch) in grad_out.row(b).chunks_exact(oh * ow).enumerate() {
                for (oy, dy_row) in dy_ch.chunks_exact(ow).enumerate() {
                    let at = oy * lay.row * lay.lanes + ch;
                    for (ox, &v) in dy_row.iter().enumerate() {
                        self.dy_lanes[at + ox * lay.lanes] = v;
                    }
                }
            }
            window_gemm_lanes_into(
                &self.dy_lanes,
                &self.cached_planes[b * lay.plane_len..],
                &self.off,
                &mut self.dw_lanes,
                &mut self.db_lanes,
                lay.lanes,
                lay.pixels,
            );
            let gw = self.grad_weight.as_mut_slice();
            for (ch, gw_row) in gw.chunks_exact_mut(fan_in).enumerate() {
                for (g, dw) in gw_row.iter_mut().zip(self.dw_lanes.chunks_exact(lay.lanes)) {
                    *g += dw[ch];
                }
            }
            for (g, &db) in self.grad_bias.as_mut_slice().iter_mut().zip(&self.db_lanes) {
                *g += db;
            }
        }
        batch
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let lay = self.lay;
        let (c, h, w) = lay.dims;
        let flat = c * h * w;
        assert_eq!(
            x.dims().last().copied(),
            Some(flat),
            "conv expects {flat} features ({c}x{h}x{w}), got shape {}",
            x.shape()
        );
        let batch = x.dims()[0];
        let (co, (oh, ow)) = (self.out_channels, lay.out_hw);
        let row_len = oh * ow;
        let fan_in = self.off.len();
        self.weight_t.resize(fan_in * co, 0.0);
        self.y_rows.resize(co * lay.width, 0.0);
        for (ch, w_row) in self.weight.as_slice().chunks_exact(fan_in).enumerate() {
            for (kk, &v) in w_row.iter().enumerate() {
                self.weight_t[kk * co + ch] = v;
            }
        }
        // Only backward reads the cache, so evaluation-mode forwards leave
        // it alone and border one image at a time in a small scratch (the
        // trace-point evaluation path is forward-only); same policy as
        // `Dense`.
        if !train {
            self.eval_planes.resize(lay.planes_len(1), 0.0);
        } else if self.cached_batch != batch {
            self.cached_planes = vec![0.0; lay.planes_len(batch)];
            self.cached_batch = batch;
        }
        let mut out = vec![0.0f32; batch * co * row_len];
        for (b, dst) in out.chunks_exact_mut(co * row_len).enumerate() {
            let planes = if train {
                &mut self.cached_planes[b * lay.plane_len..]
            } else {
                &mut self.eval_planes[..]
            };
            lay.fill_planes(x.row(b), planes);
            window_gemm_tn_into(
                &self.weight_t,
                planes,
                &self.off,
                &mut self.y_rows,
                co,
                lay.width,
            );
            // Drop the wrap columns and add the bias in the same copy.
            for (ch, dst_ch) in dst.chunks_exact_mut(row_len).enumerate() {
                let bias = self.bias.at(ch);
                let y_ch = &self.y_rows[ch * lay.width..];
                for (oy, dst_row) in dst_ch.chunks_exact_mut(ow).enumerate() {
                    for (o, &y) in dst_row.iter_mut().zip(&y_ch[oy * lay.row..]) {
                        *o = y + bias;
                    }
                }
            }
        }
        Tensor::from_vec(out, &[batch, co * row_len]).expect("volume matches")
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let batch = self.accumulate_param_grads(grad_out);
        let lay = self.lay;
        let (c, h, w) = lay.dims;
        let (oh, ow) = lay.out_hw;
        self.dy_rows.resize(self.out_channels * lay.width, 0.0);
        self.dx_planes.resize(lay.planes_len(1), 0.0);
        let mut dx = vec![0.0f32; batch * c * h * w];
        for (b, dx_img) in dx.chunks_exact_mut(c * h * w).enumerate() {
            // dy as padded-flat rows.
            for (ch, dy_ch) in grad_out.row(b).chunks_exact(oh * ow).enumerate() {
                for (oy, dy_row) in dy_ch.chunks_exact(ow).enumerate() {
                    let at = ch * lay.width + oy * lay.row;
                    self.dy_rows[at..at + ow].copy_from_slice(dy_row);
                }
            }
            // dx planes += Wᵀ · dy, row kk into the window at off[kk]:
            // col2im without the column matrix.
            self.dx_planes.fill(0.0);
            window_gemm_tn_add(
                self.weight.as_slice(),
                &self.dy_rows,
                &self.off,
                &mut self.dx_planes,
                self.out_channels,
                lay.width,
            );
            for (dst, at) in dx_img.chunks_exact_mut(w).zip(lay.interior_rows()) {
                dst.copy_from_slice(&self.dx_planes[at..at + w]);
            }
        }
        Tensor::from_vec(dx, &[batch, c * h * w]).expect("volume matches")
    }

    fn backward_param_only(&mut self, grad_out: &Tensor) -> Tensor {
        let _ = self.accumulate_param_grads(grad_out);
        // Skip the Wᵀ·dy product entirely: nothing reads the input
        // gradient of a model's first layer.
        Tensor::zeros(&[0])
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Tensor)) {
        f(&self.weight);
        f(&self.bias);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn visit_param_grad_pairs(&mut self, f: &mut dyn FnMut(&mut Tensor, &Tensor)) {
        f(&mut self.weight, &self.grad_weight);
        f(&mut self.bias, &self.grad_bias);
    }

    fn zero_grads(&mut self) {
        self.grad_weight.fill_zero();
        self.grad_bias.fill_zero();
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }
}

/// 2×2 max pooling with stride 2.
///
/// Input `[batch, c·h·w]` with even `h`, `w`; output `[batch, c·(h/2)·(w/2)]`.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    input_dims: ImageDims,
    argmax: Vec<usize>, // flat input index chosen for each output element
    batch: usize,
}

impl MaxPool2d {
    /// Creates a 2×2/stride-2 max-pool layer for the given input geometry.
    ///
    /// # Panics
    ///
    /// Panics if `h` or `w` is odd or zero.
    pub fn new(input_dims: ImageDims) -> Self {
        let (c, h, w) = input_dims;
        assert!(c > 0 && h > 0 && w > 0, "degenerate input geometry");
        assert!(
            h % 2 == 0 && w % 2 == 0,
            "max-pool 2x2 requires even spatial dims, got {h}x{w}"
        );
        MaxPool2d {
            input_dims,
            argmax: Vec::new(),
            batch: 0,
        }
    }

    /// Output geometry `(c, h/2, w/2)`.
    pub fn output_dims(&self) -> ImageDims {
        let (c, h, w) = self.input_dims;
        (c, h / 2, w / 2)
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let (c, h, w) = self.input_dims;
        let flat = c * h * w;
        assert_eq!(
            x.dims().last().copied(),
            Some(flat),
            "max-pool expects {flat} features, got shape {}",
            x.shape()
        );
        let batch = x.dims()[0];
        let (oc, oh, ow) = self.output_dims();
        let per_out = oc * oh * ow;
        self.batch = batch;
        // Every slot is overwritten below, so the resize only sets the
        // length; capacity carries over between calls.
        self.argmax.resize(batch * per_out, 0);
        let mut out = vec![0.0f32; batch * per_out];
        let rows = out
            .chunks_exact_mut(ow)
            .zip(self.argmax.chunks_exact_mut(ow));
        for (r, (out_row, arg_row)) in rows.enumerate() {
            // Output row r = (b, ch, oy) reads image rows 2·oy and 2·oy + 1
            // of channel ch.
            let (b, ch, oy) = (r / (oc * oh), r / oh % oc, r % oh);
            let top = ch * h * w + 2 * oy * w;
            let (upper, lower) = x.row(b)[top..top + 2 * w].split_at(w);
            let windows = upper.chunks_exact(2).zip(lower.chunks_exact(2));
            for (ox, ((o, arg), (up, low))) in
                out_row.iter_mut().zip(arg_row).zip(windows).enumerate()
            {
                let first = top + 2 * ox;
                let (mut best, mut best_idx) = (up[0], first);
                for (v, idx) in [
                    (up[1], first + 1),
                    (low[0], first + w),
                    (low[1], first + w + 1),
                ] {
                    if v > best {
                        (best, best_idx) = (v, idx);
                    }
                }
                *o = best;
                *arg = best_idx;
            }
        }
        Tensor::from_vec(out, &[batch, oc * oh * ow]).expect("volume matches")
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(self.batch > 0, "backward called before forward");
        let (c, h, w) = self.input_dims;
        let (oc, oh, ow) = self.output_dims();
        let per_out = oc * oh * ow;
        assert_eq!(grad_out.dims(), &[self.batch, per_out], "gradient shape");
        let mut dx = vec![0.0f32; self.batch * c * h * w];
        for b in 0..self.batch {
            let g = grad_out.row(b);
            for (o, &gv) in g.iter().enumerate() {
                let src = self.argmax[b * per_out + o];
                dx[b * c * h * w + src] += gv;
            }
        }
        Tensor::from_vec(dx, &[self.batch, c * h * w]).expect("volume matches")
    }

    fn visit_params(&self, _f: &mut dyn FnMut(&Tensor)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Tensor)) {}
    fn visit_param_grad_pairs(&mut self, _f: &mut dyn FnMut(&mut Tensor, &Tensor)) {}
    fn zero_grads(&mut self) {}

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "maxpool2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_kernel_preserves_image() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new((1, 4, 4), 1, 3, 1, &mut rng);
        // Kernel = delta at centre.
        let mut w = vec![0.0f32; 9];
        w[4] = 1.0;
        conv.weight = Tensor::from_vec(w, &[1, 9]).unwrap();
        conv.bias = Tensor::zeros(&[1]);
        let img: Vec<f32> = (0..16).map(|v| v as f32).collect();
        let x = Tensor::from_vec(img.clone(), &[1, 16]).unwrap();
        let y = conv.forward(&x, true);
        assert_eq!(y.as_slice(), img.as_slice());
    }

    #[test]
    fn conv_output_geometry() {
        let mut rng = StdRng::seed_from_u64(1);
        let conv = Conv2d::new((3, 8, 8), 16, 3, 1, &mut rng);
        assert_eq!(conv.output_dims(), (16, 8, 8));
        let unpadded = Conv2d::new((3, 8, 8), 16, 3, 0, &mut rng);
        assert_eq!(unpadded.output_dims(), (16, 6, 6));
    }

    /// im2col, the PR 4 loop verbatim: `[c·k·k, oh·ow]`, zeros at padding.
    fn im2col(
        (c, h, w): ImageDims,
        (oh, ow): (usize, usize),
        kernel: usize,
        pad: usize,
        img: &[f32],
    ) -> Vec<f32> {
        let row_len = oh * ow;
        let mut col = vec![0.0f32; c * kernel * kernel * row_len];
        let padi = pad as isize;
        for ch in 0..c {
            for ky in 0..kernel {
                for kx in 0..kernel {
                    let col_row = (ch * kernel * kernel + ky * kernel + kx) * row_len;
                    for oy in 0..oh {
                        let iy = oy as isize + ky as isize - padi;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for ox in 0..ow {
                            let ix = ox as isize + kx as isize - padi;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            col[col_row + oy * ow + ox] =
                                img[ch * h * w + iy as usize * w + ix as usize];
                        }
                    }
                }
            }
        }
        col
    }

    /// col2im, the PR 4 loop verbatim: scatter-add a `[c·k·k, oh·ow]`
    /// gradient into a zeroed flattened image gradient, `(ch, ky, kx)`
    /// ascending.
    fn col2im(
        (c, h, w): ImageDims,
        (oh, ow): (usize, usize),
        k: usize,
        pad: usize,
        col: &[f32],
        img: &mut [f32],
    ) {
        let pad = pad as isize;
        let row_len = oh * ow;
        for ch in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    let col_row = (ch * k * k + ky * k + kx) * row_len;
                    for oy in 0..oh {
                        let iy = oy as isize + ky as isize - pad;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for ox in 0..ow {
                            let ix = ox as isize + kx as isize - pad;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            img[ch * h * w + iy as usize * w + ix as usize] +=
                                col[col_row + oy * ow + ox];
                        }
                    }
                }
            }
        }
    }

    /// `out[i][j] = Σ_kk a(i, kk) · b(kk, j)`: one FMA accumulator from
    /// `+0.0`, `kk` ascending — the GEMM contract, spelled out.
    fn fma_chain_gemm(
        m: usize,
        k: usize,
        n: usize,
        a: impl Fn(usize, usize) -> f32,
        b: impl Fn(usize, usize) -> f32,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc = a(i, kk).mul_add(b(kk, j), acc);
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    /// What one training pass produces.
    #[derive(Debug, PartialEq)]
    struct PassBits {
        y: Vec<u32>,
        grad_weight: Vec<u32>,
        grad_bias: Vec<u32>,
        dx: Vec<u32>,
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The layer's own forward + full backward.
    fn layer_pass(conv: &mut Conv2d, x: &Tensor, dy: &Tensor) -> PassBits {
        let y = conv.forward(x, true);
        let dx = conv.backward(dy);
        PassBits {
            y: bits(y.as_slice()),
            grad_weight: bits(conv.grad_weight.as_slice()),
            grad_bias: bits(conv.grad_bias.as_slice()),
            dx: bits(dx.as_slice()),
        }
    }

    /// The same pass in the materialised-im2col formulation the layer
    /// replaced (PR 4/5: `y = W·col + b`, `dW += dy·colᵀ`, `db += Σ dy`,
    /// `dx = col2im(Wᵀ·dy)`), every product an explicit FMA chain.
    fn reference_pass(
        conv: &Conv2d,
        dims: ImageDims,
        kernel: usize,
        pad: usize,
        x: &Tensor,
        dy: &Tensor,
    ) -> PassBits {
        let (c, h, w) = dims;
        let (co, oh, ow) = conv.output_dims();
        let (fan_in, row_len) = (c * kernel * kernel, oh * ow);
        let wt = conv.weight.as_slice();
        let batch = x.dims()[0];
        let mut y = Vec::new();
        let mut gw = vec![0.0f32; co * fan_in];
        let mut gb = vec![0.0f32; co];
        let mut dx = vec![0.0f32; batch * c * h * w];
        for b in 0..batch {
            let col = im2col(dims, (oh, ow), kernel, pad, x.row(b));
            let dyb = dy.row(b);
            let prod = fma_chain_gemm(
                co,
                fan_in,
                row_len,
                |i, kk| wt[i * fan_in + kk],
                |kk, j| col[kk * row_len + j],
            );
            for (ch, row) in prod.chunks_exact(row_len).enumerate() {
                y.extend(row.iter().map(|v| v + conv.bias.at(ch)));
            }
            let dw = fma_chain_gemm(
                co,
                row_len,
                fan_in,
                |i, pix| dyb[i * row_len + pix],
                |pix, kk| col[kk * row_len + pix],
            );
            for (g, d) in gw.iter_mut().zip(&dw) {
                *g += d;
            }
            for (g, dy_ch) in gb.iter_mut().zip(dyb.chunks_exact(row_len)) {
                *g += dy_ch.iter().sum::<f32>();
            }
            let dcol = fma_chain_gemm(
                fan_in,
                co,
                row_len,
                |kk, i| wt[i * fan_in + kk],
                |i, pix| dyb[i * row_len + pix],
            );
            let dx_img = &mut dx[b * c * h * w..(b + 1) * c * h * w];
            col2im(dims, (oh, ow), kernel, pad, &dcol, dx_img);
        }
        PassBits {
            y: bits(&y),
            grad_weight: bits(&gw),
            grad_bias: bits(&gb),
            dx: bits(&dx),
        }
    }

    /// Deterministic operands with exact zeros (ReLU-sparse) and `-0.0`
    /// sprinkled through otherwise-random values.
    fn sparse_tensor(dims: &[usize], seed: u64) -> Tensor {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let data = (0..dims.iter().product())
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                match state % 8 {
                    0 | 1 => 0.0,
                    2 => -0.0,
                    _ => (state >> 40) as f32 / 4e6 - 2.0,
                }
            })
            .collect();
        Tensor::from_vec(data, dims).unwrap()
    }

    /// Forward, `dW`, `db` and `dx` are bit-identical to the materialised
    /// reference on every geometry class `Conv2d::new` accepts: channel
    /// counts off the lane and tile sizes, 1×1 to 5×5 kernels, padding
    /// below, at and above "same", non-square images, several images.
    #[test]
    fn matches_materialized_im2col_reference_bit_for_bit() {
        let mut seed = 0u64;
        let mut cases = Vec::new();
        for c in [1usize, 3, 8] {
            for co in [1usize, 3, 8, 10, 16] {
                for kernel in [1usize, 3, 5] {
                    for pad in [0usize, 1, 2] {
                        cases.push(((c, 6, 5), co, kernel, pad, 2));
                    }
                }
            }
        }
        // The benchmark's widest layer shape: many column panels.
        cases.push(((8, 16, 16), 8, 3, 1, 3));
        for (dims, co, kernel, pad, batch) in cases {
            seed += 1;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut conv = Conv2d::new(dims, co, kernel, pad, &mut rng);
            conv.bias = sparse_tensor(&[co], seed + 1000);
            let (c, h, w) = dims;
            let (_, oh, ow) = conv.output_dims();
            let x = sparse_tensor(&[batch, c * h * w], seed + 2000);
            let dy = sparse_tensor(&[batch, co * oh * ow], seed + 3000);
            let want = reference_pass(&conv, dims, kernel, pad, &x, &dy);
            let got = layer_pass(&mut conv, &x, &dy);
            assert_eq!(got, want, "{dims:?} -> {co}, kernel {kernel}, pad {pad}");
            // The first-layer path computes the same parameter gradients.
            let _ = conv.backward_param_only(&dy);
            assert_eq!(bits(conv.grad_weight.as_slice()), want.grad_weight);
            assert_eq!(bits(conv.grad_bias.as_slice()), want.grad_bias);
            // Evaluation mode is the same forward.
            assert_eq!(bits(conv.forward(&x, false).as_slice()), want.y);
        }
    }

    /// Borders, wrap columns, trailing zeros and dead lanes never pick up
    /// stale values: a layer that has already seen other batches (of
    /// another size, in both modes) computes exactly what a fresh layer
    /// does.
    #[test]
    fn reused_scratch_matches_fresh_layer() {
        let mut rng = StdRng::seed_from_u64(5);
        let dims = (3, 6, 5);
        let mut used = Conv2d::new(dims, 10, 3, 1, &mut rng);
        let fresh = used.clone();
        let (co, oh, ow) = used.output_dims();
        for (batch, seed) in [(3usize, 1u64), (2, 2)] {
            let x = sparse_tensor(&[batch, 3 * 6 * 5], seed);
            let dy = sparse_tensor(&[batch, co * oh * ow], seed + 10);
            let _ = used.forward(&sparse_tensor(&[4, 3 * 6 * 5], seed + 20), false);
            let got = layer_pass(&mut used, &x, &dy);
            assert_eq!(
                got,
                layer_pass(&mut fresh.clone(), &x, &dy),
                "batch {batch}"
            );
        }
    }

    #[test]
    fn conv_gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut conv = Conv2d::new((2, 4, 4), 3, 3, 1, &mut rng);
        let x = Tensor::randn(&[2, 32], 1.0, &mut rng);
        let y = conv.forward(&x, true);
        let dx = conv.backward(&Tensor::ones(y.dims()));

        let eps = 1e-2f32;
        // Weight gradient spot-check.
        let mut pairs = Vec::new();
        conv.visit_param_grad_pairs(&mut |p, g| pairs.push((p.clone(), g.clone())));
        let (w, gw) = &pairs[0];
        for idx in [0usize, 10, 25] {
            let mut cp = conv.clone();
            let mut wp = w.clone();
            wp.as_mut_slice()[idx] += eps;
            cp.weight = wp;
            let mut cm = conv.clone();
            let mut wm = w.clone();
            wm.as_mut_slice()[idx] -= eps;
            cm.weight = wm;
            let fd = (cp.forward(&x, true).sum() - cm.forward(&x, true).sum()) / (2.0 * eps);
            assert!(
                (fd - gw.at(idx)).abs() < 5e-2 * (1.0 + fd.abs()),
                "dW[{idx}]: fd {fd} vs analytic {}",
                gw.at(idx)
            );
        }
        // Input gradient spot-check.
        for idx in [0usize, 17, 40] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fd = (conv.clone().forward(&xp, true).sum()
                - conv.clone().forward(&xm, true).sum())
                / (2.0 * eps);
            assert!(
                (fd - dx.at(idx)).abs() < 5e-2 * (1.0 + fd.abs()),
                "dx[{idx}]: fd {fd} vs analytic {}",
                dx.at(idx)
            );
        }
        // Bias gradient: each output position contributes 1 per channel.
        let (_, gb) = &pairs[1];
        let (_, oh, ow) = conv.output_dims();
        let expected = (2 * oh * ow) as f32; // batch of 2
        for ch in 0..3 {
            assert!((gb.at(ch) - expected).abs() < 1e-3);
        }
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn conv_backward_requires_forward() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut conv = Conv2d::new((1, 4, 4), 1, 3, 1, &mut rng);
        let _ = conv.backward(&Tensor::zeros(&[1, 16]));
    }

    #[test]
    fn maxpool_picks_maximum() {
        let mut pool = MaxPool2d::new((1, 2, 2));
        let x = Tensor::from_vec(vec![1.0, 5.0, 3.0, 2.0], &[1, 4]).unwrap();
        let y = pool.forward(&x, true);
        assert_eq!(y.as_slice(), &[5.0]);
        let dx = pool.backward(&Tensor::from_vec(vec![2.0], &[1, 1]).unwrap());
        assert_eq!(dx.as_slice(), &[0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_halves_spatial_dims() {
        let pool = MaxPool2d::new((4, 8, 6));
        assert_eq!(pool.output_dims(), (4, 4, 3));
    }

    #[test]
    fn maxpool_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut pool = MaxPool2d::new((2, 4, 4));
        let x = Tensor::randn(&[1, 32], 1.0, &mut rng);
        let y = pool.forward(&x, true);
        let dx = pool.backward(&Tensor::ones(y.dims()));
        let eps = 1e-3f32;
        for idx in [0usize, 5, 20, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fd = (pool.clone().forward(&xp, true).sum()
                - pool.clone().forward(&xm, true).sum())
                / (2.0 * eps);
            assert!(
                (fd - dx.at(idx)).abs() < 0.51,
                "dx[{idx}]: fd {fd} vs analytic {}",
                dx.at(idx)
            );
        }
    }

    #[test]
    #[should_panic(expected = "even spatial dims")]
    fn maxpool_rejects_odd_dims() {
        let _ = MaxPool2d::new((1, 3, 4));
    }
}
