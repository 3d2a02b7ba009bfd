//! Residual (skip-connection) wrapper, the defining block of ResNets.

use crate::{Layer, Sequential};
use tensor::Tensor;

/// A residual block `y = x + F(x)` where `F` is an inner stack of layers
/// whose output shape equals its input shape.
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
}

impl Residual {
    /// Wraps `inner` with an identity skip connection.
    pub fn new(inner: Sequential) -> Self {
        Residual { inner }
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
        let fx = self.inner.forward(x, train);
        assert_eq!(
            fx.shape(),
            x.shape(),
            "residual inner stack changed shape {} -> {}",
            x.shape(),
            fx.shape()
        );
        fx.add(x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // d(x + F(x)) = grad_out + F'(x)·grad_out.
        let through = self.inner.backward(grad_out);
        through.add(grad_out)
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
}
