//! Parameter-free activation layers.

use crate::Layer;
use tensor::Tensor;

/// The ReLU of a pre-activation `v`: `max(v, 0)`. [`Relu`] and every
/// layer with a fused ReLU ([`Conv2d::with_relu`](crate::Conv2d::with_relu),
/// [`Residual::with_relu`](crate::Residual::with_relu)) use these three
/// expressions, so a fused ReLU is bit-identical to the separate layer.
#[inline(always)]
pub(crate) fn relu(v: f32) -> f32 {
    v.max(0.0)
}

/// Whether the ReLU at pre-activation `v` passes gradient: `v > 0`.
#[inline(always)]
pub(crate) fn relu_passes(v: f32) -> bool {
    v > 0.0
}

/// The gradient `g` through a ReLU that did (`passed`) or did not pass.
#[inline(always)]
pub(crate) fn relu_grad(g: f32, passed: bool) -> f32 {
    if passed {
        g
    } else {
        0.0
    }
}

/// Rectified linear unit, `y = max(0, x)`.
///
/// # Example
///
/// ```
/// use nn::{Layer, Relu};
/// use tensor::Tensor;
///
/// let mut relu = Relu::new();
/// let y = relu.forward(&Tensor::from_slice(&[-1.0, 2.0]), true);
/// assert_eq!(y.as_slice(), &[0.0, 2.0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu { mask: None }
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if train {
            // Reuse the mask allocation across batches (clear keeps
            // capacity). Only backward reads it, so evaluation-mode
            // forwards skip the fill.
            let mask = self.mask.get_or_insert_with(Vec::new);
            mask.clear();
            mask.extend(x.as_slice().iter().map(|&v| relu_passes(v)));
        }
        x.map(relu)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.mask.as_ref().expect("backward called before forward");
        assert_eq!(
            mask.len(),
            grad_out.len(),
            "gradient length {} does not match cached activation length {}",
            grad_out.len(),
            mask.len()
        );
        let data: Vec<f32> = grad_out
            .as_slice()
            .iter()
            .zip(mask.iter())
            .map(|(&g, &m)| relu_grad(g, m))
            .collect();
        Tensor::from_vec(data, grad_out.dims()).expect("same shape as input")
    }

    fn visit_params(&self, _f: &mut dyn FnMut(&Tensor)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Tensor)) {}
    fn visit_param_grad_pairs(&mut self, _f: &mut dyn FnMut(&mut Tensor, &Tensor)) {}
    fn zero_grads(&mut self) {}

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "relu"
    }
}

/// Hyperbolic tangent activation.
#[derive(Debug, Clone, Default)]
pub struct Tanh {
    cached_output: Option<Tensor>,
}

impl Tanh {
    /// Creates a tanh layer.
    pub fn new() -> Self {
        Tanh {
            cached_output: None,
        }
    }
}

impl Layer for Tanh {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let y = x.map(f32::tanh);
        // Only backward reads the cache, so an evaluation-mode forward
        // between a training forward and its backward leaves it alone.
        if train {
            match &mut self.cached_output {
                Some(c) if c.dims() == y.dims() => c.copy_from(&y),
                c => *c = Some(y.clone()),
            }
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let y = self
            .cached_output
            .as_ref()
            .expect("backward called before forward");
        // d tanh = 1 - tanh².
        grad_out.zip_map(y, |g, t| g * (1.0 - t * t))
    }

    fn visit_params(&self, _f: &mut dyn FnMut(&Tensor)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Tensor)) {}
    fn visit_param_grad_pairs(&mut self, _f: &mut dyn FnMut(&mut Tensor, &Tensor)) {}
    fn zero_grads(&mut self) {}

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "tanh"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_zeroes_negatives() {
        let mut r = Relu::new();
        let y = r.forward(&Tensor::from_slice(&[-2.0, 0.0, 3.0]), true);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 3.0]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let mut r = Relu::new();
        let _ = r.forward(&Tensor::from_slice(&[-1.0, 1.0]), true);
        let dx = r.backward(&Tensor::from_slice(&[5.0, 5.0]));
        assert_eq!(dx.as_slice(), &[0.0, 5.0]);
    }

    #[test]
    fn relu_gradient_at_zero_is_zero() {
        // We use the subgradient 0 at exactly 0.
        let mut r = Relu::new();
        let _ = r.forward(&Tensor::from_slice(&[0.0]), true);
        let dx = r.backward(&Tensor::from_slice(&[1.0]));
        assert_eq!(dx.as_slice(), &[0.0]);
    }

    #[test]
    fn tanh_matches_finite_difference() {
        let mut t = Tanh::new();
        let x = Tensor::from_slice(&[0.3, -0.7, 1.2]);
        let _ = t.forward(&x, true);
        let dx = t.backward(&Tensor::ones(&[3]));
        let eps = 1e-3f32;
        for i in 0..3 {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let fd = (xp.map(f32::tanh).sum() - xm.map(f32::tanh).sum()) / (2.0 * eps);
            assert!((fd - dx.at(i)).abs() < 1e-3, "i={i}: {fd} vs {}", dx.at(i));
        }
    }

    #[test]
    fn eval_forward_between_train_forward_and_backward_changes_nothing() {
        // Train forward on `x`, backward: the gradient every layer must
        // give. Again with an evaluation forward in between, on other input
        // of the same batch size and of another (for the lane stack, one
        // that fills another number of lane groups).
        use crate::conv::tests::sparse_tensor;
        use crate::{Conv2d, Dense, LaneStack, MaxPool2d, Residual, Sequential};
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let spatial = LaneStack::new(Sequential::new(vec![
            Box::new(Conv2d::new((2, 4, 4), 3, 3, 1, &mut rng).with_relu()),
            Box::new(Conv2d::new((3, 4, 4), 2, 3, 1, &mut rng)),
            Box::new(
                Residual::new(Sequential::new(vec![
                    Box::new(Conv2d::new((2, 4, 4), 2, 3, 1, &mut rng).with_relu()),
                    Box::new(Conv2d::new((2, 4, 4), 2, 3, 1, &mut rng)),
                ]))
                .with_relu(),
            ),
            Box::new(MaxPool2d::new((2, 4, 4))),
        ]));
        // (layer, input features, output features)
        let cases: [(Box<dyn Layer>, usize, usize); 4] = [
            (Box::new(Dense::new(3, 3, &mut rng)), 3, 3),
            (Box::new(Relu::new()), 3, 3),
            (Box::new(Tanh::new()), 3, 3),
            (Box::new(spatial), 32, 8),
        ];
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (layer, fin, fout) in cases {
            let x = sparse_tensor(&[3, fin], 1);
            let g = sparse_tensor(&[3, fout], 2);
            let mut plain = layer.clone_box();
            let _ = plain.forward(&x, true);
            let want = plain.backward(&g);
            for other in [sparse_tensor(&[3, fin], 3), sparse_tensor(&[20, fin], 4)] {
                let mut interleaved = layer.clone_box();
                let _ = interleaved.forward(&x, true);
                let _ = interleaved.forward(&other, false);
                let got = interleaved.backward(&g);
                let case = format!("{}, eval batch {}", layer.name(), other.dims()[0]);
                assert_eq!(bits(&got), bits(&want), "{case}");
            }
        }
    }

    #[test]
    fn activations_have_no_params() {
        let r = Relu::new();
        let mut count = 0;
        r.visit_params(&mut |_| count += 1);
        assert_eq!(count, 0);
    }
}
