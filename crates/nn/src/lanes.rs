//! The lane boundary: runs a stack of spatial layers on groups of 16
//! images held side by side in the vector lanes.

use crate::{Layer, Sequential};
use tensor::{Tensor, LANES};

/// Runs `inner` — convolutions, pools, activations and residual blocks —
/// on **lane groups**: a `[batch, f]` input is turned into a
/// `[groups, f, 16]` tensor, `groups = ⌈batch / 16⌉`, in which image
/// `g·16 + l` is lane `l` of group `g` and each group holds its images'
/// features in row-major order with the 16 images side by side. The last
/// group is padded with zero images. The output is turned back into
/// `[batch, f']`, dropping the padded lanes.
///
/// Inside the stack every convolution product is one vector-wide kernel
/// call per group instead of one call per image (see [`Conv2d`]); the
/// conversion happens once at each edge of the stack, not at every layer.
/// Each image's values go through the same float operations as with one
/// image at a time, so the stack is bit-identical to running its layers
/// image by image.
///
/// Parameters, their visit order and their gradients are exactly those of
/// `inner`; the container has none of its own.
///
/// [`Conv2d`]: crate::Conv2d
///
/// # Example
///
/// ```
/// use nn::{Conv2d, LaneStack, Layer, MaxPool2d, Sequential};
/// use rand::SeedableRng;
/// use tensor::Tensor;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut stack = LaneStack::new(Sequential::new(vec![
///     Box::new(Conv2d::new((1, 8, 8), 4, 3, 1, &mut rng).with_relu()),
///     Box::new(MaxPool2d::new((4, 8, 8))),
/// ]));
/// let y = stack.forward(&Tensor::zeros(&[3, 64]), true);
/// assert_eq!(y.dims(), &[3, 4 * 4 * 4]);
/// ```
#[derive(Clone)]
pub struct LaneStack {
    inner: Sequential,
    /// Images in the last training-mode batch, the one backward sees.
    images: usize,
}

impl LaneStack {
    /// Wraps the spatial layers `inner`.
    pub fn new(inner: Sequential) -> Self {
        LaneStack { inner, images: 0 }
    }
}

impl std::fmt::Debug for LaneStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaneStack")
            .field("inner_layers", &self.inner.len())
            .finish()
    }
}

/// `[batch, f]` rows as lane groups `[⌈batch/16⌉, f, 16]`, padded lanes
/// `+0.0`.
pub(crate) fn to_lanes(x: &Tensor) -> Tensor {
    let (batch, f) = x.matrix_dims();
    let groups = batch.div_ceil(LANES);
    let mut out = vec![0.0f32; groups * f * LANES];
    for (b, row) in x.as_slice().chunks_exact(f).enumerate() {
        let group = &mut out[b / LANES * f * LANES..][..f * LANES];
        for (slot, &v) in group.chunks_exact_mut(LANES).zip(row) {
            slot[b % LANES] = v;
        }
    }
    Tensor::from_vec(out, &[groups, f, LANES]).expect("volume matches")
}

/// The first `images` lanes of lane groups `[groups, f, 16]` as rows
/// `[images, f]`.
pub(crate) fn from_lanes(lanes: &Tensor, images: usize) -> Tensor {
    let dims = lanes.dims();
    assert!(
        dims.len() == 3 && dims[2] == LANES && images <= dims[0] * LANES,
        "{images} images do not fit lane groups of shape {}",
        lanes.shape()
    );
    let f = dims[1];
    let mut out = vec![0.0f32; images * f];
    for (b, row) in out.chunks_exact_mut(f).enumerate() {
        let group = &lanes.as_slice()[b / LANES * f * LANES..][..f * LANES];
        for (o, slot) in row.iter_mut().zip(group.chunks_exact(LANES)) {
            *o = slot[b % LANES];
        }
    }
    Tensor::from_vec(out, &[images, f]).expect("volume matches")
}

impl Layer for LaneStack {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(
            x.dims().len(),
            2,
            "lane stack expects [batch, features], got shape {}",
            x.shape()
        );
        // Every pass tells the layers its own image count, but only a
        // training pass replaces the count its backward needs.
        let images = x.dims()[0];
        if train {
            self.images = images;
        }
        self.inner.set_images(images);
        let y = self.inner.forward(&to_lanes(x), train);
        from_lanes(&y, images)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self.inner.backward(&to_lanes(grad_out));
        from_lanes(&g, self.images)
    }

    fn backward_param_only(&mut self, grad_out: &Tensor) -> Tensor {
        // The input gradient feeds nothing: skip turning it back.
        self.inner.backward_param_only(&to_lanes(grad_out))
    }

    fn set_images(&mut self, _images: usize) {
        // A nested stack counts its own images at its own boundary.
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Tensor)) {
        self.inner.visit_params(f);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.inner.visit_params_mut(f);
    }

    fn visit_param_grad_pairs(&mut self, f: &mut dyn FnMut(&mut Tensor, &Tensor)) {
        self.inner.visit_param_grad_pairs(f);
    }

    fn zero_grads(&mut self) {
        self.inner.zero_grads();
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "lane_stack"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_round_trip_and_pad_with_zeros() {
        for batch in [1usize, 15, 16, 17, 33] {
            let data: Vec<f32> = (0..batch * 3).map(|v| v as f32 + 1.0).collect();
            let x = Tensor::from_vec(data, &[batch, 3]).unwrap();
            let lanes = to_lanes(&x);
            let groups = batch.div_ceil(LANES);
            assert_eq!(lanes.dims(), &[groups, 3, LANES]);
            // Image b, feature e sits at lane b % 16 of group b / 16.
            for b in 0..groups * LANES {
                for e in 0..3 {
                    let at = (b / LANES * 3 + e) * LANES + b % LANES;
                    let want = if b < batch { x.at(b * 3 + e) } else { 0.0 };
                    assert_eq!(lanes.at(at).to_bits(), want.to_bits(), "batch {batch}");
                }
            }
            assert_eq!(from_lanes(&lanes, batch), x);
        }
    }
}
