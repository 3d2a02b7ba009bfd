//! 2-D convolution and max-pooling over **lane groups**: 16 images side by
//! side in the vector lanes.
//!
//! # Layout
//!
//! Spatial layers run inside a [`LaneStack`](crate::LaneStack), which turns
//! a `[batch, c·h·w]` batch into a `[groups, c·h·w, 16]` tensor: image
//! `g·16 + l` is lane `l` of group `g`, and a group is `[c][h][w][16]`,
//! the 16 images' values of one pixel adjacent. The last group is padded
//! with zero images. Every spatial layer takes and returns lane groups and
//! carries its own input geometry, so no tensor-level NCHW machinery is
//! needed; a 2-D input panics.
//!
//! # Zero-copy convolution
//!
//! [`Conv2d`] copies each group once into **zero-bordered planes** — per
//! channel an `H' × W'` grid of 16-lane pixels, `H' = h + 2·pad`,
//! `W' = w + 2·pad`, the images in the middle and `+0.0` around them. In
//! that layout im2col row `kk = (ch, ky, kx)` of all 16 images *is* the
//! contiguous slice starting at `off[kk] = 16·(ch·H'W' + ky·W' + kx)`,
//! indexed by `16·q + l` for the **padded-flat** output pixel
//! `q = oy·W' + ox` and lane `l`: `plane[off[kk] + 16·q + l]` is input
//! pixel `(ch, oy + ky, ox + kx)` of image `l`. So the im2col matrix never
//! exists, in any form, and all three convolution products are one
//! windowed kernel call of `tensor` per group over the offset table `off`,
//! 16 images wide: the forward [`tensor::window_gemm_tn_into`] and the
//! input gradient [`tensor::window_gemm_tn_add`], `n = 16·pixels` columns
//! wide, and the weight gradient [`tensor::window_gemm_per_lane_into`].
//!
//! Padded-flat rows are `W'` wide but only `ow = W' − k + 1` pixels of each
//! are outputs; the other `k − 1` are **wrap columns** (the window has run
//! over the right border into the next row). Forward computes them and
//! drops them at the store (12 % extra FMAs at 16×16); the gradient rows
//! hold `+0.0` there, so they contribute nothing.
//!
//! # Why the bits do not change
//!
//! A lane is an image, and no kernel ever mixes lanes, so every output
//! element sees the same ordered float operations as the materialised
//! im2col formulation run one image at a time (the test-only reference in
//! this file):
//!
//! 1. **Forward** — `y[co][16q + l] = Σ_kk W[co][kk] · plane[off[kk] + 16q + l]`,
//!    one FMA accumulator from `+0.0`, `kk` ascending; border terms are
//!    `fma(w, +0, acc)`, exactly the zeros im2col holds at padding.
//! 2. **Weight gradient** — per lane,
//!    `dW_l[co][kk] = Σ_q dy[co][q][l] · plane[off[kk] + 16q + l]`, one
//!    accumulator reduced over pixels in ascending order; a wrap column
//!    adds `fma(+0, x, acc)`, which leaves a finite `acc` unchanged. The
//!    live lanes' `dW_l` are then added into `grad_weight` in image order,
//!    as the per-image partials were. The bias gradient is the same pass's
//!    lane sums. Padded lanes are never added.
//! 3. **Input gradient** — col2im is fused into the product: row `kk` of
//!    `Wᵀ·dy` is added straight into the window at `off[kk]` of a
//!    zero-bordered gradient plane. An input pixel receives its `(ky, kx)`
//!    contributions in ascending `kk` (the kernel's ordering rule, see
//!    [`tensor::window_gemm_tn_add`]; the offsets, all scaled by 16, are
//!    still strictly ascending), as the col2im loop delivered them; wrap
//!    columns add `+0.0`.
//!
//! Accumulators start at `+0.0` and every gradient plane is zero-filled,
//! so a `−0.0` that an extra `+0.0` term could flip never reaches a stored
//! value. Inputs that already hold inf/NaN carry no bit contract.
//!
//! # Memory traffic
//!
//! - Every buffer a window kernel reads or writes — the bordered planes,
//!   the padded-flat rows, the per-lane partials and the training cache —
//!   starts on a 64-byte boundary, so no 16-lane vector straddles two cache
//!   lines (see `AlignedBuf`).
//! - A ReLU after a convolution runs inside it ([`Conv2d::with_relu`]):
//!   `max(y + b, 0)` in the copy that drops the wrap columns and adds the
//!   bias, and the `y + b > 0` mask applied in the copy that stages `dy`
//!   into padded-flat rows. Same expressions as [`Relu`](crate::Relu), same
//!   bits, one pass over the activation fewer each way.
//! - The returned outputs and input gradients of both layers are built
//!   without a zero fill: every element is written once.

use crate::activation::{relu, relu_grad, relu_passes};
use crate::Layer;
use rand::Rng;
use std::cell::RefCell;
use tensor::{
    window_gemm_per_lane_into, window_gemm_tn_add, window_gemm_tn_into, Init, Tensor, LANES,
};

/// The `(channels, height, width)` geometry of a flattened image tensor.
pub type ImageDims = (usize, usize, usize);

/// Checks that `x` is lane groups `[groups, features, 16]` and returns the
/// group count.
fn lane_groups(x: &Tensor, features: usize, layer: &str) -> usize {
    let dims = x.dims();
    assert!(
        dims.len() == 3 && dims[1] == features && dims[2] == LANES,
        "{layer} expects lane groups [groups, {features}, {LANES}], got shape {}",
        x.shape()
    );
    dims[0]
}

/// Sizes of one layer's padded-flat layout (see the module docs), in
/// pixels; a pixel is 16 lanes.
#[derive(Debug, Clone, Copy)]
struct Layout {
    /// Input geometry `(c, h, w)`.
    dims: ImageDims,
    pad: usize,
    /// Output spatial size `(oh, ow)`.
    out_hw: (usize, usize),
    /// Bordered row length `W'`.
    row: usize,
    /// One group's bordered planes, `c·H'·W'`.
    plane_len: usize,
    /// Padded-flat output pixels, `(oh − 1)·W' + ow`. The window at the
    /// largest offset ends exactly at `plane_len`.
    pixels: usize,
}

impl Layout {
    fn new(dims: ImageDims, kernel: usize, pad: usize) -> Self {
        let (c, h, w) = dims;
        let (rows, row) = (h + 2 * pad, w + 2 * pad);
        let (oh, ow) = (rows - kernel + 1, row - kernel + 1);
        Layout {
            dims,
            pad,
            out_hw: (oh, ow),
            row,
            plane_len: c * rows * row,
            pixels: (oh - 1) * row + ow,
        }
    }

    /// Where each image row starts inside the bordered planes, in pixels,
    /// in flattened-image row order `(ch, iy)`.
    fn interior_rows(self) -> impl Iterator<Item = usize> {
        let (c, h, _) = self.dims;
        let rows = h + 2 * self.pad;
        (0..c).flat_map(move |ch| {
            (0..h).map(move |iy| (ch * rows + iy + self.pad) * self.row + self.pad)
        })
    }

    /// Copies one lane group into the interior of its bordered planes.
    fn fill_planes(self, group: &[f32], planes: &mut [f32]) {
        let w = self.dims.2 * LANES;
        for (src, at) in group.chunks_exact(w).zip(self.interior_rows()) {
            planes[at * LANES..at * LANES + w].copy_from_slice(src);
        }
    }
}

/// 3×3-style 2-D convolution with stride 1 and symmetric zero padding.
///
/// Input: lane groups `[groups, c_in·h·w, 16]`; output
/// `[groups, c_out·h'·w', 16]` with `h' = h + 2·pad − k + 1` (see the
/// module docs; a [`LaneStack`](crate::LaneStack) makes and unmakes lane
/// groups).
///
/// Every geometry runs the same zero-copy path: each group is copied once
/// into zero-bordered `(h + 2·pad) × (w + 2·pad)` planes, where im2col row
/// `(ch, ky, kx)` of all 16 images is the contiguous slice at
/// `16·(ch·H'W' + ky·W' + kx)`, and the forward, weight-gradient and
/// input-gradient products are [`tensor::window_gemm_tn_into`],
/// [`tensor::window_gemm_per_lane_into`] and [`tensor::window_gemm_tn_add`]
/// over that offset table, one call per group each. No im2col or
/// gradient-column matrix is ever built; steady state, `forward` allocates
/// only its output and `backward` only `dx`, neither zero-filled. Results
/// are bit-identical to the materialised-im2col formulation run image by
/// image (per element: one FMA accumulator from `+0.0` in ascending
/// `(ch, ky, kx)` / pixel order; per-image `dW` added in image order; `dx`
/// contributions in ascending `(ky, kx)`). The training-mode cache is the
/// bordered batch. [`Conv2d::with_relu`] fuses a following ReLU.
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
/// // One lane group: up to 16 images.
/// let y = conv.forward(&Tensor::zeros(&[1, 64, 16]), true);
/// assert_eq!(y.dims(), &[1, 4 * 8 * 8, 16]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    out_channels: usize,
    weight: Tensor, // [c_out, c_in*k*k]
    bias: Tensor,   // [c_out]
    grad_weight: Tensor,
    grad_bias: Tensor,
    lay: Layout,
    // Window offset table: im2col row kk of a group starts at off[kk] of
    // its bordered planes (in floats, 16 per pixel).
    off: Vec<usize>,
    // The fused ReLU epilogue (`with_relu`), and its training-mode mask,
    // one flag per output element.
    relu: bool,
    mask: Vec<bool>,
    // Images in the lane groups of the next pass (`Layer::set_images`);
    // lanes from here on are padding. Until told, every lane is an image.
    images: usize,
    // Backward cache: the training-mode batch as bordered planes, group g
    // at g·plane_len·16, and its image count; reused across batches of
    // the same group count.
    cached_planes: AlignedBuf,
    cached_groups: usize,
    cached_images: usize,
}

/// Floats per 64-byte cache line, one 16-lane vector.
const LINE: usize = 64 / std::mem::size_of::<f32>();

/// A float buffer whose contents start on a 64-byte (cache-line)
/// boundary, so that a 16-lane vector at any whole-pixel offset lies in
/// one cache line instead of straddling two. It is a `Vec` over-allocated
/// by `LINE − 1` floats and sliced from the allocation's first boundary,
/// found by address arithmetic. Every buffer a window kernel reads or
/// writes is one of these (or a whole-group slice of one).
///
/// The boundary belongs to the allocation, and a clone's allocation can
/// sit at another offset. [`AlignedBuf::get`] notices and moves the
/// contents to the new boundary, so a clone holds exactly what the
/// original held (borders included).
#[derive(Debug, Clone)]
struct AlignedBuf {
    raw: Vec<f32>,
    start: usize,
    len: usize,
}

impl AlignedBuf {
    const fn new() -> Self {
        AlignedBuf {
            raw: Vec::new(),
            start: 0,
            len: 0,
        }
    }

    /// Floats from the start of `raw` to its first 64-byte boundary (`0`
    /// for no allocation).
    fn boundary(raw: &[f32]) -> usize {
        if raw.is_empty() {
            return 0;
        }
        (raw.as_ptr() as usize).wrapping_neg() % 64 / std::mem::size_of::<f32>()
    }

    /// The contents, at the allocation's boundary.
    fn get(&mut self) -> &mut [f32] {
        let at = Self::boundary(&self.raw);
        if at != self.start {
            self.raw.copy_within(self.start..self.start + self.len, at);
            self.start = at;
        }
        &mut self.raw[at..at + self.len]
    }

    /// Resizes to `len` floats of unspecified value and returns them,
    /// reusing the allocation when it is large enough.
    fn resize(&mut self, len: usize) -> &mut [f32] {
        self.len = len;
        if self.raw.len() < len + LINE - 1 {
            self.raw = vec![0.0; len + LINE - 1];
            self.start = Self::boundary(&self.raw);
        }
        self.get()
    }

    /// Resizes to `len` floats, all `+0.0`, and returns them.
    fn zeroed(&mut self, len: usize) -> &mut [f32] {
        let buf = self.resize(len);
        buf.fill(0.0);
        buf
    }
}

/// The transient buffers of a convolution pass. A pass sizes them for its
/// layer, and one that needs their borders or wrap columns at `+0.0`
/// zeroes them first; nothing in them outlives the pass. So one set per
/// thread serves every layer of every model replica that thread runs: it
/// grows to the largest layer's sizes once, and steady state the passes
/// allocate only their returned tensors.
struct Workspace {
    planes: AlignedBuf,   // one group's bordered planes: eval input, or dx
    rows: AlignedBuf,     // [c_out, pixels*16]: padded-flat y, or dy
    weight_t: Vec<f32>,   // [c_in*k*k, c_out]: forward's transposed weights
    dw_lanes: AlignedBuf, // [c_out*c_in*k*k, 16]: one group's per-image dW
    db_lanes: AlignedBuf, // [c_out, 16]: one group's per-image db
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = const {
        RefCell::new(Workspace {
            planes: AlignedBuf::new(),
            rows: AlignedBuf::new(),
            weight_t: Vec::new(),
            dw_lanes: AlignedBuf::new(),
            db_lanes: AlignedBuf::new(),
        })
    };
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
        let lay = Layout::new(input_dims, kernel, pad);
        let taps = kernel * kernel;
        let off = (0..fan_in)
            .map(|kk| {
                let (ch, ky, kx) = (kk / taps, kk % taps / kernel, kk % kernel);
                (ch * (lay.plane_len / c) + ky * lay.row + kx) * LANES
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
            relu: false,
            mask: Vec::new(),
            images: usize::MAX,
            cached_planes: AlignedBuf::new(),
            cached_groups: 0,
            cached_images: usize::MAX,
        }
    }

    /// Fuses a ReLU into the layer's output: the layer computes
    /// `max(y + b, 0)` in the copy that adds the bias, and its backward
    /// masks the incoming gradient by `y + b > 0` in the copy that stages
    /// it for the products. The expressions are [`Relu`](crate::Relu)'s,
    /// so the layer is bit-identical to this convolution followed by a
    /// `Relu`, with one pass over the output fewer each way.
    pub fn with_relu(mut self) -> Self {
        self.relu = true;
        self
    }

    /// Output geometry `(c_out, h', w')`.
    pub fn output_dims(&self) -> ImageDims {
        let (oh, ow) = self.lay.out_hw;
        (self.out_channels, oh, ow)
    }

    /// Both backward passes: per group, `dW` and `db` of its 16 images
    /// through the per-lane kernel, the live lanes added into the gradient
    /// buffers in image order, and, when `dx` is given, the input gradient
    /// of the group appended to it.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode `forward` or the group
    /// count changed.
    fn backward_groups(&mut self, grad_out: &Tensor, dx: Option<&mut Vec<f32>>) {
        WORKSPACE.with_borrow_mut(|ws| self.backward_groups_in(ws, grad_out, dx));
    }

    /// [`Conv2d::backward_groups`] over this thread's workspace.
    fn backward_groups_in(
        &mut self,
        ws: &mut Workspace,
        grad_out: &Tensor,
        mut dx: Option<&mut Vec<f32>>,
    ) {
        assert!(self.cached_groups > 0, "backward called before forward");
        let lay = self.lay;
        let (co, (oh, ow)) = (self.out_channels, lay.out_hw);
        let groups = lane_groups(grad_out, co * oh * ow, "conv backward");
        assert_eq!(
            groups, self.cached_groups,
            "batch size changed between forward and backward"
        );
        let fan_in = self.off.len();
        let (plane, n) = (lay.plane_len * LANES, lay.pixels * LANES);
        self.grad_weight.fill_zero();
        self.grad_bias.fill_zero();
        let Workspace {
            planes,
            rows,
            dw_lanes,
            db_lanes,
            ..
        } = ws;
        // dy rows: the wrap columns stay +0.0 across groups.
        let rows = rows.zeroed(co * n);
        let dw_lanes = dw_lanes.resize(co * fan_in * LANES);
        let db_lanes = db_lanes.resize(co * LANES);
        let planes = planes.resize(if dx.is_some() { plane } else { 0 });
        let cache = self.cached_planes.get();
        let (row_len, group_len) = (ow * LANES, co * oh * ow * LANES);
        // The fused ReLU's mask, laid out as the output and its gradient.
        let mask = self.relu.then_some(self.mask.as_slice());
        if let Some(mask) = mask {
            assert_eq!(mask.len(), grad_out.len(), "ReLU mask length");
        }
        let dy_groups = grad_out.as_slice().chunks_exact(group_len);
        for (g, dy) in dy_groups.enumerate() {
            // dy as padded-flat rows, through the fused ReLU's mask.
            for (r, dy_row) in dy.chunks_exact(row_len).enumerate() {
                let at = r / oh * n + r % oh * lay.row * LANES;
                let dst = &mut rows[at..at + row_len];
                match mask {
                    Some(mask) => {
                        let m = &mask[g * group_len + r * row_len..][..row_len];
                        for ((d, &gv), &m) in dst.iter_mut().zip(dy_row).zip(m) {
                            *d = relu_grad(gv, m);
                        }
                    }
                    None => dst.copy_from_slice(dy_row),
                }
            }
            window_gemm_per_lane_into(
                rows,
                &cache[g * plane..(g + 1) * plane],
                &self.off,
                dw_lanes,
                db_lanes,
                co,
                lay.pixels,
            );
            let live = self.cached_images.saturating_sub(g * LANES).min(LANES);
            add_lanes(self.grad_weight.as_mut_slice(), dw_lanes, live);
            add_lanes(self.grad_bias.as_mut_slice(), db_lanes, live);
            let Some(dx) = dx.as_deref_mut() else {
                continue;
            };
            // dx planes += Wᵀ · dy, row kk into the window at off[kk]:
            // col2im without the column matrix.
            planes.fill(0.0);
            window_gemm_tn_add(self.weight.as_slice(), rows, &self.off, planes, co, n);
            let w = lay.dims.2 * LANES;
            for at in lay.interior_rows() {
                dx.extend_from_slice(&planes[at * LANES..at * LANES + w]);
            }
        }
    }

    /// [`Layer::forward`] over this thread's workspace.
    fn forward_in(&mut self, ws: &mut Workspace, x: &Tensor, train: bool) -> Tensor {
        let lay = self.lay;
        let (c, h, w) = lay.dims;
        let groups = lane_groups(x, c * h * w, "conv");
        if self.images != usize::MAX {
            assert_eq!(
                self.images.div_ceil(LANES),
                groups,
                "{} images do not fill {groups} lane groups",
                self.images
            );
        }
        let (co, (oh, ow)) = (self.out_channels, lay.out_hw);
        let fan_in = self.off.len();
        let (plane, n) = (lay.plane_len * LANES, lay.pixels * LANES);
        ws.weight_t.resize(fan_in * co, 0.0);
        for (ch, w_row) in self.weight.as_slice().chunks_exact(fan_in).enumerate() {
            for (kk, &v) in w_row.iter().enumerate() {
                ws.weight_t[kk * co + ch] = v;
            }
        }
        let rows = ws.rows.resize(co * n);
        // Only backward reads the cache (and the mask), so evaluation-mode
        // forwards leave them alone and border one group at a time in a
        // small scratch (the trace-point evaluation path is forward-only);
        // same policy as `Dense`.
        let (planes, step) = if !train {
            // Borders at +0.0; the groups only overwrite the interior.
            (ws.planes.zeroed(plane), 0)
        } else {
            self.cached_images = self.images;
            self.mask.clear();
            if self.cached_groups != groups {
                self.cached_groups = groups;
                (self.cached_planes.zeroed(groups * plane), plane)
            } else {
                (self.cached_planes.get(), plane)
            }
        };
        let mut out = Vec::with_capacity(groups * co * oh * ow * LANES);
        let x_groups = x.as_slice().chunks_exact(c * h * w * LANES);
        for (g, src) in x_groups.enumerate() {
            let planes = &mut planes[g * step..g * step + plane];
            lay.fill_planes(src, planes);
            window_gemm_tn_into(&ws.weight_t, planes, &self.off, rows, co, n);
            // Drop the wrap columns and add the bias (and apply the fused
            // ReLU) in the same copy.
            for (ch, y_ch) in rows.chunks_exact(n).enumerate() {
                let bias = self.bias.at(ch);
                for y_row in y_ch.chunks(lay.row * LANES) {
                    let pre = y_row[..ow * LANES].iter().map(|&y| y + bias);
                    if !self.relu {
                        out.extend(pre);
                        continue;
                    }
                    out.extend(pre.clone().map(relu));
                    if train {
                        self.mask.extend(pre.map(relu_passes));
                    }
                }
            }
        }
        Tensor::from_vec(out, &[groups, co * oh * ow, LANES]).expect("volume matches")
    }
}

/// Adds lanes `0..live` of every 16-lane partial in `lanes` into `acc`,
/// lane by lane: each element of `acc` receives its images' partials in
/// image order, and one lane's pass runs across all elements at once.
fn add_lanes(acc: &mut [f32], lanes: &[f32], live: usize) {
    let (lanes, _) = lanes.as_chunks::<LANES>();
    let lanes = &lanes[..acc.len()];
    for l in 0..live {
        for (a, lane) in acc.iter_mut().zip(lanes) {
            *a += lane[l];
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        WORKSPACE.with_borrow_mut(|ws| self.forward_in(ws, x, train))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (c, h, w) = self.lay.dims;
        let groups = self.cached_groups;
        let mut dx = Vec::with_capacity(groups * c * h * w * LANES);
        self.backward_groups(grad_out, Some(&mut dx));
        Tensor::from_vec(dx, &[groups, c * h * w, LANES]).expect("volume matches")
    }

    fn backward_param_only(&mut self, grad_out: &Tensor) -> Tensor {
        // Skip the Wᵀ·dy product entirely: nothing reads the input
        // gradient of a model's first layer.
        self.backward_groups(grad_out, None);
        Tensor::zeros(&[0])
    }

    fn set_images(&mut self, images: usize) {
        self.images = images;
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
/// Input lane groups `[groups, c·h·w, 16]` with even `h`, `w`; output
/// `[groups, c·(h/2)·(w/2), 16]`. Each lane is pooled on its own with the
/// comparisons of the image-at-a-time pool: the window's upper-left value,
/// replaced by a strictly greater one in the order upper-right,
/// lower-left, lower-right (so ties keep the earlier value and a NaN
/// upper-left wins). The gradient of an input is `+0.0 + g` at the chosen
/// one and `+0.0` elsewhere.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    input_dims: ImageDims,
    // Per output value, which window position won: 0 upper-left,
    // 1 upper-right, 2 lower-left, 3 lower-right.
    argmax: Vec<u32>,
    groups: usize,
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
            groups: 0,
        }
    }

    /// Output geometry `(c, h/2, w/2)`.
    pub fn output_dims(&self) -> ImageDims {
        let (c, h, w) = self.input_dims;
        (c, h / 2, w / 2)
    }
}

/// The 16-lane values of one pixel.
type Pixel = [f32; LANES];

impl Layer for MaxPool2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let (c, h, w) = self.input_dims;
        let groups = lane_groups(x, c * h * w, "max-pool");
        let (oc, oh, ow) = self.output_dims();
        let outputs = groups * oc * oh * ow * LANES;
        // Only backward reads the argmax, so evaluation-mode forwards
        // leave it (and the group count it belongs to) alone.
        if train {
            self.groups = groups;
            self.argmax.clear();
            self.argmax.reserve(outputs);
        }
        let mut out = Vec::with_capacity(outputs);
        let (src, _) = x.as_slice().as_chunks::<LANES>();
        // Output row r = (group, ch, oy) reads input rows 2·oy and 2·oy + 1
        // of the same (group, ch): input rows 2r and 2r + 1.
        for rows in src.chunks_exact(2 * w) {
            let (upper, lower) = rows.split_at(w);
            for (up, low) in upper.chunks_exact(2).zip(lower.chunks_exact(2)) {
                let (best, arg) = pool_window([&up[0], &up[1], &low[0], &low[1]]);
                out.extend_from_slice(&best);
                if train {
                    self.argmax.extend_from_slice(&arg);
                }
            }
        }
        Tensor::from_vec(out, &[groups, oc * oh * ow, LANES]).expect("volume matches")
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(self.groups > 0, "backward called before forward");
        let (c, h, w) = self.input_dims;
        let (oc, oh, ow) = self.output_dims();
        assert_eq!(
            grad_out.dims(),
            &[self.groups, oc * oh * ow, LANES],
            "gradient shape"
        );
        let mut dx = Vec::with_capacity(self.groups * c * h * w * LANES);
        let (g, _) = grad_out.as_slice().as_chunks::<LANES>();
        let (arg, _) = self.argmax.as_chunks::<LANES>();
        // Output row r's windows cover input rows 2r (positions 0 and 1 of
        // each window) and 2r + 1 (positions 2 and 3): every input value
        // is the chosen one's `+0.0 + g` or `+0.0`, selected lane by lane.
        for (g_row, arg_row) in g.chunks_exact(ow).zip(arg.chunks_exact(ow)) {
            for pair in [[0u32, 1], [2, 3]] {
                for (gv, a) in g_row.iter().zip(arg_row) {
                    for pos in pair {
                        let select = gv.iter().zip(a);
                        dx.extend(select.map(|(&gl, &al)| if al == pos { 0.0 + gl } else { 0.0 }));
                    }
                }
            }
        }
        Tensor::from_vec(dx, &[self.groups, c * h * w, LANES]).expect("volume matches")
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

/// One 2×2 window of 16 lanes, in the order upper-left, upper-right,
/// lower-left, lower-right: per lane the maximum by strict `>` from the
/// first value on, and the position that won.
#[inline(always)]
fn pool_window(window: [&Pixel; 4]) -> (Pixel, [u32; LANES]) {
    let mut best = *window[0];
    let mut arg = [0u32; LANES];
    for (pos, v) in (1u32..).zip(&window[1..]) {
        for ((b, a), &vl) in best.iter_mut().zip(&mut arg).zip(v.iter()) {
            let greater = vl > *b;
            *b = if greater { vl } else { *b };
            *a = if greater { pos } else { *a };
        }
    }
    (best, arg)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{LaneStack, Relu, Sequential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One spatial layer behind the lane boundary.
    fn lane_stack(layer: impl Layer + 'static) -> LaneStack {
        LaneStack::new(Sequential::new(vec![Box::new(layer)]))
    }

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
        let y = lane_stack(conv).forward(&x, true);
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

    pub(crate) fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The `(weight, bias)` gradients of a stack holding one convolution.
    fn conv_grads(stack: &mut LaneStack) -> (Vec<u32>, Vec<u32>) {
        let mut grads = Vec::new();
        stack.visit_param_grad_pairs(&mut |_, g| grads.push(bits(g.as_slice())));
        let [gw, gb] = <[Vec<u32>; 2]>::try_from(grads).expect("one convolution");
        (gw, gb)
    }

    /// The layer's own forward + full backward, through the lane boundary.
    fn layer_pass(stack: &mut LaneStack, x: &Tensor, dy: &Tensor) -> PassBits {
        let y = stack.forward(x, true);
        let dx = stack.backward(dy);
        let (grad_weight, grad_bias) = conv_grads(stack);
        PassBits {
            y: bits(y.as_slice()),
            grad_weight,
            grad_bias,
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
    pub(crate) fn sparse_tensor(dims: &[usize], seed: u64) -> Tensor {
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
    /// reference run image by image, on every geometry class `Conv2d::new`
    /// accepts — channel counts off the tile sizes, 1×1 to 5×5 kernels,
    /// padding below, at and above "same", non-square images — and at
    /// batch sizes that fill a lane group partly, exactly, and spill one
    /// or more images into the next.
    #[test]
    fn matches_materialized_im2col_reference_bit_for_bit() {
        let mut seed = 0u64;
        let mut cases = Vec::new();
        for c in [1usize, 3, 8] {
            for co in [1usize, 3, 8, 10, 16] {
                for kernel in [1usize, 3, 5] {
                    for pad in [0usize, 1, 2] {
                        cases.push(((c, 6, 5), co, kernel, pad));
                    }
                }
            }
        }
        // The benchmark's widest layer shape: many column panels.
        cases.push(((8, 16, 16), 8, 3, 1));
        for (dims, co, kernel, pad) in cases {
            for batch in [1usize, 2, 15, 16, 17, 33] {
                seed += 1;
                let mut rng = StdRng::seed_from_u64(seed);
                let mut conv = Conv2d::new(dims, co, kernel, pad, &mut rng);
                conv.bias = sparse_tensor(&[co], seed + 1000);
                let (c, h, w) = dims;
                let (_, oh, ow) = conv.output_dims();
                let x = sparse_tensor(&[batch, c * h * w], seed + 2000);
                let dy = sparse_tensor(&[batch, co * oh * ow], seed + 3000);
                let want = reference_pass(&conv, dims, kernel, pad, &x, &dy);
                let mut stack = lane_stack(conv);
                let got = layer_pass(&mut stack, &x, &dy);
                let case = format!("{dims:?} -> {co}, kernel {kernel}, pad {pad}, batch {batch}");
                assert_eq!(got, want, "{case}");
                // The first-layer path computes the same parameter gradients.
                let _ = stack.backward_param_only(&dy);
                let (gw, gb) = conv_grads(&mut stack);
                assert_eq!((gw, gb), (want.grad_weight, want.grad_bias), "{case}");
                // Evaluation mode is the same forward.
                assert_eq!(bits(stack.forward(&x, false).as_slice()), want.y, "{case}");
            }
        }
    }

    /// Padded lanes never reach the parameter gradients, whatever they
    /// hold: a group whose lanes past the last image carry garbage in `x`
    /// and `dy` yields the gradients of the same group with zeros there,
    /// also when an evaluation pass that fills every lane runs between the
    /// training forward and its backward.
    #[test]
    fn padded_lanes_never_reach_parameter_gradients() {
        let mut rng = StdRng::seed_from_u64(9);
        let dims = (3, 6, 5);
        let fresh = Conv2d::new(dims, 5, 3, 1, &mut rng);
        let (co, oh, ow) = fresh.output_dims();
        let images = 21; // lanes 5..16 of the second group are padding
        let garbage = |t: &Tensor, seed: u64| {
            let noise = sparse_tensor(t.dims(), seed);
            let mut t = t.clone();
            let features = t.dims()[1];
            for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
                let image = i / (features * LANES) * LANES + i % LANES;
                if image >= images {
                    *v = 1e3 * noise.at(i) + 7.0;
                }
            }
            t
        };
        let x = crate::lanes::to_lanes(&sparse_tensor(&[images, 3 * 6 * 5], 1));
        let dy = crate::lanes::to_lanes(&sparse_tensor(&[images, co * oh * ow], 2));
        let mut grads = Vec::new();
        let cases = [(x.clone(), dy.clone()), (garbage(&x, 3), garbage(&dy, 4))];
        for ((x, dy), eval_between) in cases.iter().flat_map(|c| [(c, false), (c, true)]) {
            let mut conv = fresh.clone();
            conv.set_images(images);
            let _ = conv.forward(x, true);
            if eval_between {
                conv.set_images(2 * LANES);
                let _ = conv.forward(x, false);
            }
            let _ = conv.backward(dy);
            grads.push((
                bits(conv.grad_weight.as_slice()),
                bits(conv.grad_bias.as_slice()),
            ));
            let _ = conv.backward_param_only(dy);
            grads.push((
                bits(conv.grad_weight.as_slice()),
                bits(conv.grad_bias.as_slice()),
            ));
        }
        assert!(grads.iter().all(|g| *g == grads[0]));
    }

    /// Borders, wrap columns and padded lanes never pick up stale values:
    /// a layer that has already seen other batches (of another group
    /// count, in both modes) computes exactly what a fresh layer does.
    #[test]
    fn reused_scratch_matches_fresh_layer() {
        let mut rng = StdRng::seed_from_u64(5);
        let dims = (3, 6, 5);
        let conv = Conv2d::new(dims, 10, 3, 1, &mut rng);
        let (co, oh, ow) = conv.output_dims();
        let mut used = lane_stack(conv);
        let fresh = used.clone();
        for (batch, seed) in [(20usize, 1u64), (3, 2), (18, 3)] {
            let x = sparse_tensor(&[batch, 3 * 6 * 5], seed);
            let dy = sparse_tensor(&[batch, co * oh * ow], seed + 10);
            let _ = used.forward(&sparse_tensor(&[40, 3 * 6 * 5], seed + 20), false);
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
        let mut conv = lane_stack(Conv2d::new((2, 4, 4), 3, 3, 1, &mut rng));
        let x = Tensor::randn(&[2, 32], 1.0, &mut rng);
        let y = conv.forward(&x, true);
        let dx = conv.backward(&Tensor::ones(y.dims()));

        let eps = 1e-2f32;
        // Weight gradient spot-check.
        let mut pairs = Vec::new();
        conv.visit_param_grad_pairs(&mut |p, g| pairs.push((p.clone(), g.clone())));
        let (w, gw) = &pairs[0];
        let with_weight = |weight: &Tensor| {
            let mut c = conv.clone();
            let mut first = true;
            c.visit_params_mut(&mut |p| {
                if std::mem::take(&mut first) {
                    p.copy_from(weight);
                }
            });
            c
        };
        for idx in [0usize, 10, 25] {
            let mut wp = w.clone();
            wp.as_mut_slice()[idx] += eps;
            let mut wm = w.clone();
            wm.as_mut_slice()[idx] -= eps;
            let (mut cp, mut cm) = (with_weight(&wp), with_weight(&wm));
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
        let expected = (2 * 4 * 4) as f32; // batch of 2, 4×4 outputs
        for ch in 0..3 {
            assert!((gb.at(ch) - expected).abs() < 1e-3);
        }
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn conv_backward_requires_forward() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut conv = Conv2d::new((1, 4, 4), 1, 3, 1, &mut rng);
        let _ = conv.backward(&Tensor::zeros(&[1, 16, LANES]));
    }

    #[test]
    #[should_panic(expected = "conv expects lane groups")]
    fn conv_rejects_a_2d_input() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut conv = Conv2d::new((1, 4, 4), 1, 3, 1, &mut rng);
        let _ = conv.forward(&Tensor::zeros(&[1, 16]), true);
    }

    #[test]
    #[should_panic(expected = "max-pool expects lane groups")]
    fn maxpool_rejects_a_2d_input() {
        let mut pool = MaxPool2d::new((1, 2, 2));
        let _ = pool.forward(&Tensor::zeros(&[1, 4]), true);
    }

    #[test]
    fn maxpool_picks_maximum() {
        let mut pool = lane_stack(MaxPool2d::new((1, 2, 2)));
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
        let mut pool = lane_stack(MaxPool2d::new((2, 4, 4)));
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

    /// The image-at-a-time pool the lane pool replaced, verbatim: per
    /// output, the window's upper-left value and flat index, replaced on a
    /// strictly greater value in the order upper-right, lower-left,
    /// lower-right; backward adds each gradient into a zeroed `dx` at the
    /// chosen index.
    fn per_image_pool((c, h, w): ImageDims, x: &Tensor, g: &Tensor) -> (Vec<u32>, Vec<u32>) {
        let (oh, ow) = (h / 2, w / 2);
        let batch = x.dims()[0];
        let (mut y, mut dx) = (Vec::new(), vec![0.0f32; batch * c * h * w]);
        for b in 0..batch {
            for (r, gr) in g.row(b).chunks_exact(ow).enumerate() {
                let (ch, oy) = (r / oh, r % oh);
                let top = ch * h * w + 2 * oy * w;
                for (ox, &gv) in gr.iter().enumerate() {
                    let first = top + 2 * ox;
                    let (mut best, mut best_idx) = (x.row(b)[first], first);
                    for idx in [first + 1, first + w, first + w + 1] {
                        if x.row(b)[idx] > best {
                            (best, best_idx) = (x.row(b)[idx], idx);
                        }
                    }
                    y.push(best);
                    dx[b * c * h * w + best_idx] += gv;
                }
            }
        }
        (bits(&y), bits(&dx))
    }

    /// The lane pool is bit-identical to the image-at-a-time pool on
    /// inputs full of ties (signed zeros among them), with NaNs in every
    /// window position and `−0.0` gradients, at batch sizes around a lane
    /// group.
    #[test]
    fn maxpool_matches_per_image_pool_bit_for_bit() {
        let dims = (3, 4, 6);
        let (c, h, w) = dims;
        let (oh, ow) = (h / 2, w / 2);
        for (batch, seed) in [(1usize, 1u64), (16, 2), (17, 3), (33, 4)] {
            let mut x = sparse_tensor(&[batch, c * h * w], seed);
            for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
                match i % 11 {
                    // Few distinct values, so most windows hold ties.
                    0..=4 => *v = (*v * 2.0).round() / 2.0,
                    5 => *v = f32::NAN,
                    _ => {}
                }
            }
            let g = sparse_tensor(&[batch, c * oh * ow], seed + 100);
            assert!(g
                .as_slice()
                .iter()
                .any(|v| v.to_bits() == (-0.0f32).to_bits()));
            let mut pool = lane_stack(MaxPool2d::new(dims));
            let y = pool.forward(&x, true);
            let dx = pool.backward(&g);
            assert_eq!(
                (bits(y.as_slice()), bits(dx.as_slice())),
                per_image_pool(dims, &x, &g),
                "batch {batch}"
            );
        }
    }

    /// [`sparse_tensor`] with NaNs and ties added: every 29th value NaN,
    /// and a third of the rest rounded to halves, so that pooling windows
    /// hold equal values.
    pub(crate) fn edge_tensor(dims: &[usize], seed: u64) -> Tensor {
        let mut t = sparse_tensor(dims, seed);
        for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
            match i % 29 {
                0 => *v = f32::NAN,
                1..=9 => *v = (*v * 2.0).round() / 2.0,
                _ => {}
            }
        }
        t
    }

    /// Every output bit of a stack's training pass and evaluation forward:
    /// forward, `dx`, every parameter gradient, the parameter gradients of
    /// the first-layer path, and the evaluation output.
    pub(crate) fn stack_pass_bits(stack: &mut dyn Layer, x: &Tensor, dy: &Tensor) -> Vec<Vec<u32>> {
        let grads = |stack: &mut dyn Layer, out: &mut Vec<Vec<u32>>| {
            stack.visit_param_grad_pairs(&mut |_, g| out.push(bits(g.as_slice())))
        };
        let mut out = vec![bits(stack.forward(x, true).as_slice())];
        out.push(bits(stack.backward(dy).as_slice()));
        grads(stack, &mut out);
        let _ = stack.forward(x, true);
        let _ = stack.backward_param_only(dy);
        grads(stack, &mut out);
        out.push(bits(stack.forward(x, false).as_slice()));
        out
    }

    /// A convolution with the fused ReLU is bit-identical to the same
    /// convolution followed by a `Relu` layer, in training and evaluation
    /// forwards, `dx`, `dW` and `db`: on inputs and gradients with exact
    /// zeros, `−0.0`, NaNs and ties, on an output channel whose
    /// pre-activations are all exact zeros, and at batch sizes that leave
    /// padded lanes.
    #[test]
    fn fused_relu_matches_conv_then_relu_bit_for_bit() {
        let mut seed = 100u64;
        for (dims, co, kernel, pad) in [((3, 6, 5), 4, 3, 1), ((2, 8, 8), 8, 3, 0)] {
            for batch in [1usize, 15, 17, 33] {
                seed += 1;
                let mut rng = StdRng::seed_from_u64(seed);
                let mut conv = Conv2d::new(dims, co, kernel, pad, &mut rng);
                let (c, h, w) = dims;
                let fan_in = c * kernel * kernel;
                // Channel 0 computes `+0.0 + b` with b = ±0: ReLU ties.
                conv.weight.as_mut_slice()[..fan_in].fill(0.0);
                conv.bias = edge_tensor(&[co], seed + 1000);
                conv.bias.as_mut_slice()[0] = -0.0;
                let (_, oh, ow) = conv.output_dims();
                let x = edge_tensor(&[batch, c * h * w], seed + 2000);
                let dy = edge_tensor(&[batch, co * oh * ow], seed + 3000);
                let mut fused = lane_stack(conv.clone().with_relu());
                let mut separate =
                    LaneStack::new(Sequential::new(vec![Box::new(conv), Box::new(Relu::new())]));
                assert_eq!(
                    stack_pass_bits(&mut fused, &x, &dy),
                    stack_pass_bits(&mut separate, &x, &dy),
                    "{dims:?} -> {co}, kernel {kernel}, pad {pad}, batch {batch}"
                );
            }
        }
    }

    /// Every buffer a window kernel reads or writes starts on a 64-byte
    /// boundary: this thread's workspace after each kind of pass, and the
    /// bordered-plane cache of a layer, of its clones and after its group
    /// count changed. The kernels take whole-group slices of these, at
    /// multiples of a group's planes, and those are whole cache lines.
    #[test]
    fn window_kernel_buffers_start_on_cache_lines() {
        // An empty buffer hands nothing to a kernel.
        let aligned =
            |buf: &mut AlignedBuf| buf.len == 0 || (buf.get().as_ptr() as usize).is_multiple_of(64);
        let workspace_aligned = || {
            WORKSPACE.with_borrow_mut(|ws| {
                [
                    &mut ws.planes,
                    &mut ws.rows,
                    &mut ws.dw_lanes,
                    &mut ws.db_lanes,
                ]
                .into_iter()
                .all(aligned)
            })
        };
        let mut rng = StdRng::seed_from_u64(11);
        let dims = (3, 6, 5);
        let mut conv = Conv2d::new(dims, 5, 3, 1, &mut rng).with_relu();
        assert!((conv.lay.plane_len * LANES * 4).is_multiple_of(64));
        let (co, oh, ow) = conv.output_dims();
        let mut clones = Vec::new();
        for (groups, seed) in [(1usize, 1u64), (3, 2), (2, 3)] {
            let x = sparse_tensor(&[groups, 3 * 6 * 5, LANES], seed);
            let dy = sparse_tensor(&[groups, co * oh * ow, LANES], seed + 10);
            let _ = conv.forward(&x, true);
            assert!(aligned(&mut conv.cached_planes) && workspace_aligned());
            let _ = conv.backward(&dy);
            assert!(workspace_aligned());
            let _ = conv.backward_param_only(&dy);
            assert!(workspace_aligned());
            let _ = conv.forward(&x, false);
            assert!(workspace_aligned());
            clones.push(conv.clone());
        }
        for mut clone in clones {
            assert!(aligned(&mut clone.cached_planes));
        }
    }

    /// Contents that sit at another offset than their allocation's
    /// boundary, as a clone's do when its allocation lands elsewhere
    /// relative to a cache line, are moved to the boundary before they are
    /// handed out, borders and all.
    #[test]
    fn contents_move_to_the_boundary_of_their_allocation() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut conv = Conv2d::new((2, 4, 4), 3, 3, 1, &mut rng);
        let _ = conv.forward(&sparse_tensor(&[2, 2 * 4 * 4, LANES], 1), true);
        let want = bits(conv.cached_planes.get());
        for shift in 1..LINE {
            let mut moved = conv.cached_planes.clone();
            let at = (AlignedBuf::boundary(&moved.raw) + shift) % LINE;
            moved.raw.fill(f32::NAN);
            moved.raw[at..at + want.len()]
                .iter_mut()
                .zip(&want)
                .for_each(|(v, &b)| *v = f32::from_bits(b));
            moved.start = at;
            assert_eq!(bits(moved.get()), want, "contents {shift} floats off");
            assert!((moved.get().as_ptr() as usize).is_multiple_of(64));
        }
    }
}
