//! Residual (skip-connection) wrapper, the defining block of ResNets.

use crate::activation::{relu, relu_grad, relu_passes};
use crate::{Layer, Sequential};
use tensor::Tensor;

/// A residual block `y = F(x) + x` where `F` is an inner stack of layers
/// whose output shape equals its input shape; with
/// [`Residual::with_relu`], `y = max(F(x) + x, 0)`.
///
/// # Example
///
/// ```
/// use nn::{Dense, Layer, Relu, Residual, Sequential};
/// use rand::SeedableRng;
/// use tensor::Tensor;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let inner = Sequential::new(vec![
///     Box::new(Dense::new(4, 4, &mut rng)),
///     Box::new(Relu::new()),
/// ]);
/// let mut block = Residual::new(inner);
/// let x = Tensor::zeros(&[2, 4]);
/// assert_eq!(block.forward(&x, true).dims(), &[2, 4]);
/// ```
#[derive(Clone)]
pub struct Residual {
    inner: Sequential,
    // The fused post-add ReLU (`with_relu`), and its training-mode mask.
    relu: bool,
    mask: Vec<bool>,
}

impl Residual {
    /// Wraps `inner` with an identity skip connection.
    pub fn new(inner: Sequential) -> Self {
        Residual {
            inner,
            relu: false,
            mask: Vec::new(),
        }
    }

    /// Fuses a ReLU after the add: forward computes `max(F(x) + x, 0)` in
    /// one pass, and backward masks the incoming gradient once, then feeds
    /// it to both the inner stack and the skip. The expressions are
    /// [`Relu`](crate::Relu)'s, so the block is bit-identical to this
    /// block followed by a `Relu`, with one pass over the output fewer
    /// each way.
    pub fn with_relu(mut self) -> Self {
        self.relu = true;
        self
    }

    /// Borrow the inner stack.
    pub fn inner(&self) -> &Sequential {
        &self.inner
    }
}

impl std::fmt::Debug for Residual {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Residual")
            .field("inner_layers", &self.inner.len())
            .finish()
    }
}

impl Layer for Residual {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut y = self.inner.forward(x, train);
        assert_eq!(
            y.shape(),
            x.shape(),
            "residual inner stack changed shape {} -> {}",
            x.shape(),
            y.shape()
        );
        let sums = y.as_mut_slice().iter_mut().zip(x.as_slice());
        match (self.relu, train) {
            (false, _) => sums.for_each(|(v, &s)| *v += s),
            (true, false) => sums.for_each(|(v, &s)| *v = relu(*v + s)),
            (true, true) => {
                // Only backward reads the mask: evaluation passes leave it.
                self.mask.resize(x.len(), false);
                for ((v, &s), m) in sums.zip(&mut self.mask) {
                    let sum = *v + s;
                    *m = relu_passes(sum);
                    *v = relu(sum);
                }
            }
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // d(F(x) + x) = F'(x)·g + g, for g the gradient through the ReLU.
        let masked;
        let g = if self.relu {
            assert_eq!(self.mask.len(), grad_out.len(), "ReLU mask length");
            let gs = grad_out.as_slice().iter().zip(&self.mask);
            let data = gs.map(|(&gv, &m)| relu_grad(gv, m)).collect();
            masked = Tensor::from_vec(data, grad_out.dims()).expect("same shape");
            &masked
        } else {
            grad_out
        };
        let mut through = self.inner.backward(g);
        assert_eq!(through.shape(), g.shape(), "residual gradient shape");
        for (t, &gv) in through.as_mut_slice().iter_mut().zip(g.as_slice()) {
            *t += gv;
        }
        through
    }

    fn set_images(&mut self, images: usize) {
        self.inner.set_images(images);
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
        "residual"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dense;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn block(seed: u64) -> Residual {
        let mut rng = StdRng::seed_from_u64(seed);
        Residual::new(Sequential::new(vec![
            Box::new(Dense::new(3, 3, &mut rng)),
            Box::new(crate::Relu::new()),
            Box::new(Dense::new(3, 3, &mut rng)),
        ]))
    }

    #[test]
    fn zero_inner_weights_give_identity() {
        let mut b = block(0);
        b.visit_params_mut(&mut |p| p.fill_zero());
        let x = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[1, 3]).unwrap();
        let y = b.forward(&x, true);
        assert_eq!(y, x);
    }

    #[test]
    fn gradient_flows_through_skip_even_when_inner_is_dead() {
        // With all-zero inner weights and ReLU dead, the skip still passes
        // gradient 1:1 — the vanishing-gradient fix ResNets exist for.
        let mut b = block(1);
        b.visit_params_mut(&mut |p| p.fill_zero());
        let x = Tensor::from_vec(vec![1.0, 1.0, 1.0], &[1, 3]).unwrap();
        let _ = b.forward(&x, true);
        let dx = b.backward(&Tensor::ones(&[1, 3]));
        assert_eq!(dx.as_slice(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut b = block(2);
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::randn(&[2, 3], 1.0, &mut rng);
        let _ = b.forward(&x, true);
        let dx = b.backward(&Tensor::ones(&[2, 3]));
        let eps = 1e-2f32;
        for idx in [0usize, 3, 5] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fd = (b.clone().forward(&xp, true).sum() - b.clone().forward(&xm, true).sum())
                / (2.0 * eps);
            assert!(
                (fd - dx.at(idx)).abs() < 5e-2 * (1.0 + fd.abs()),
                "dx[{idx}]: fd {fd} vs analytic {}",
                dx.at(idx)
            );
        }
    }

    #[test]
    #[should_panic(expected = "changed shape")]
    fn shape_changing_inner_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut b = Residual::new(Sequential::new(vec![Box::new(Dense::new(3, 4, &mut rng))]));
        let _ = b.forward(&Tensor::zeros(&[1, 3]), true);
    }

    /// A residual block with the fused ReLU is bit-identical to the same
    /// block followed by a `Relu` layer, in training and evaluation
    /// forwards, `dx` and every parameter gradient, on inputs and
    /// gradients with exact zeros, `−0.0`, NaNs and ties, at batch sizes
    /// that leave padded lanes.
    #[test]
    fn fused_relu_matches_block_then_relu_bit_for_bit() {
        use crate::conv::tests::{edge_tensor, stack_pass_bits};
        use crate::{Conv2d, LaneStack, Relu};
        let dims = (3, 6, 4);
        let features = 3 * 6 * 4;
        for (batch, seed) in [(1usize, 1u64), (15, 2), (17, 3), (33, 4)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let block = Residual::new(Sequential::new(vec![
                Box::new(Conv2d::new(dims, 3, 3, 1, &mut rng).with_relu()),
                Box::new(Conv2d::new(dims, 3, 3, 1, &mut rng)),
            ]));
            let x = edge_tensor(&[batch, features], seed + 10);
            let dy = edge_tensor(&[batch, features], seed + 20);
            let mut fused =
                LaneStack::new(Sequential::new(vec![Box::new(block.clone().with_relu())]));
            let mut separate = LaneStack::new(Sequential::new(vec![
                Box::new(block),
                Box::new(Relu::new()),
            ]));
            assert_eq!(
                stack_pass_bits(&mut fused, &x, &dy),
                stack_pass_bits(&mut separate, &x, &dy),
                "batch {batch}"
            );
        }
    }
}
