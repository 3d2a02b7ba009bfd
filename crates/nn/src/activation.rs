//! Parameter-free activation layers.

use crate::Layer;
use tensor::Tensor;

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
            mask.extend(x.as_slice().iter().map(|&v| v > 0.0));
        }
        x.map(|v| v.max(0.0))
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
            .map(|(&g, &m)| if m { g } else { 0.0 })
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
        // give. Again with an evaluation forward on other input in between.
        use crate::Dense;
        use rand::SeedableRng;
        let x = Tensor::from_vec(vec![0.3, -0.7, 1.2, 0.05, -1.5, 0.8], &[2, 3]).unwrap();
        let other = Tensor::from_vec(vec![2.0, 0.4, -0.9, -3.0, 1.1, 0.6], &[2, 3]).unwrap();
        let g = Tensor::from_vec(vec![1.0, -0.5, 0.25, 0.75, 2.0, -1.25], &[2, 3]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let layers: [Box<dyn Layer>; 3] = [
            Box::new(Dense::new(3, 3, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Tanh::new()),
        ];
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for layer in layers {
            let (mut plain, mut interleaved) = (layer.clone_box(), layer);
            let _ = plain.forward(&x, true);
            let want = plain.backward(&g);
            let _ = interleaved.forward(&x, true);
            let _ = interleaved.forward(&other, false);
            let got = interleaved.backward(&g);
            assert_eq!(bits(&got), bits(&want), "{}", interleaved.name());
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
