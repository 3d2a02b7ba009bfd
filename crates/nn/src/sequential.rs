//! Ordered container of layers.

use crate::Layer;
use tensor::Tensor;

/// A stack of layers applied in order.
///
/// `Sequential` itself implements [`Layer`], so stacks nest (residual
/// blocks contain a `Sequential`, models contain the outer one).
///
/// # Example
///
/// ```
/// use nn::{Dense, Layer, Relu, Sequential};
/// use rand::SeedableRng;
/// use tensor::Tensor;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut net = Sequential::new(vec![
///     Box::new(Dense::new(8, 16, &mut rng)),
///     Box::new(Relu::new()),
///     Box::new(Dense::new(16, 3, &mut rng)),
/// ]);
/// let logits = net.forward(&Tensor::zeros(&[5, 8]), true);
/// assert_eq!(logits.dims(), &[5, 3]);
/// ```
#[derive(Clone, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates a stack from boxed layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential { layers }
    }

    /// Creates an empty stack (push layers with [`Sequential::push`]).
    pub fn empty() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer to the end of the stack.
    pub fn push(&mut self, layer: Box<dyn Layer>) -> &mut Self {
        self.layers.push(layer);
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Layer names in order, for debugging.
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("layers", &self.layer_names())
            .finish()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        // Feed the input straight into the first layer instead of cloning
        // it; only the empty stack still needs the identity copy.
        let mut layers = self.layers.iter_mut();
        let Some(first) = layers.next() else {
            return x.clone();
        };
        let mut h = first.forward(x, train);
        for layer in layers {
            h = layer.forward(&h, train);
        }
        h
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut layers = self.layers.iter_mut().rev();
        let Some(last) = layers.next() else {
            return grad_out.clone();
        };
        let mut g = last.backward(grad_out);
        for layer in layers {
            g = layer.backward(&g);
        }
        g
    }

    fn backward_param_only(&mut self, grad_out: &Tensor) -> Tensor {
        // All layers but the first back-propagate normally; the first
        // layer's input gradient feeds nothing, so it may skip its dx GEMM
        // (recursing into a nested Sequential head, if any).
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return grad_out.clone();
        };
        let mut layers = rest.iter_mut().rev();
        let Some(last) = layers.next() else {
            return first.backward_param_only(grad_out);
        };
        let mut g = last.backward(grad_out);
        for layer in layers {
            g = layer.backward(&g);
        }
        first.backward_param_only(&g)
    }

    fn set_images(&mut self, images: usize) {
        for layer in &mut self.layers {
            layer.set_images(images);
        }
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Tensor)) {
        for layer in &self.layers {
            layer.visit_params(f);
        }
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_params_mut(f);
        }
    }

    fn visit_param_grad_pairs(&mut self, f: &mut dyn FnMut(&mut Tensor, &Tensor)) {
        for layer in &mut self.layers {
            layer.visit_param_grad_pairs(f);
        }
    }

    fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "sequential"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dense, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_composes_layers() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = Sequential::new(vec![
            Box::new(Dense::new(2, 3, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(3, 1, &mut rng)),
        ]);
        let y = net.forward(&Tensor::ones(&[4, 2]), true);
        assert_eq!(y.dims(), &[4, 1]);
    }

    #[test]
    fn empty_sequential_is_identity() {
        let mut net = Sequential::empty();
        let x = Tensor::from_slice(&[1.0, 2.0]).reshape(&[1, 2]);
        assert_eq!(net.forward(&x, true), x);
        assert_eq!(net.backward(&x), x);
    }

    #[test]
    fn push_builds_incrementally() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = Sequential::empty();
        net.push(Box::new(Dense::new(2, 2, &mut rng)))
            .push(Box::new(Relu::new()));
        assert_eq!(net.len(), 2);
        assert_eq!(net.layer_names(), vec!["dense", "relu"]);
    }

    #[test]
    fn visitors_cover_all_layers() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = Sequential::new(vec![
            Box::new(Dense::new(2, 3, &mut rng)),
            Box::new(Dense::new(3, 4, &mut rng)),
        ]);
        let mut count = 0;
        net.visit_params(&mut |_| count += 1);
        assert_eq!(count, 4); // two weights + two biases
    }

    #[test]
    fn backward_runs_in_reverse() {
        // A two-dense stack: gradient shapes confirm ordering.
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Sequential::new(vec![
            Box::new(Dense::new(5, 3, &mut rng)),
            Box::new(Dense::new(3, 2, &mut rng)),
        ]);
        let _ = net.forward(&Tensor::zeros(&[1, 5]), true);
        let dx = net.backward(&Tensor::ones(&[1, 2]));
        assert_eq!(dx.dims(), &[1, 5]);
    }
}
