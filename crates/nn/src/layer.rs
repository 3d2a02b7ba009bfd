//! The layer abstraction: forward/backward passes plus parameter visitors.

use tensor::Tensor;

/// A differentiable layer.
///
/// Layers cache whatever they need during [`Layer::forward`] so that
/// [`Layer::backward`] can compute input gradients and (over)write parameter
/// gradients. The parameter/gradient *visitor* methods let containers,
/// optimizers and the PASGD averaging step walk a model's state without the
/// layer exposing its internals.
///
/// This trait is object-safe; models are built as `Vec<Box<dyn Layer>>`
/// (see [`Sequential`](crate::Sequential)).
pub trait Layer: Send + Sync {
    /// Computes the layer output for a `[batch, …]` input.
    ///
    /// `train` distinguishes training-mode from evaluation-mode behaviour
    /// (e.g. batch-norm statistics); pure layers may ignore it.
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Back-propagates `grad_out` (gradient w.r.t. this layer's output),
    /// storing parameter gradients internally and returning the gradient
    /// w.r.t. the layer's input.
    ///
    /// # Panics
    ///
    /// Implementations panic if called before `forward` (no cached
    /// activations).
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Like [`Layer::backward`], but the caller promises never to read the
    /// returned input gradient. Parameter gradients must still be computed
    /// in full; the return value is unspecified (layers with an expensive
    /// input-gradient GEMM, like [`Dense`](crate::Dense) and
    /// [`Conv2d`](crate::Conv2d), return an empty tensor instead of paying
    /// for it). The training loop uses this for the *first* layer of a
    /// model, whose input gradient nothing consumes.
    fn backward_param_only(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward(grad_out)
    }

    /// Inside a [`LaneStack`](crate::LaneStack): how many images the lane
    /// groups of the next passes hold; lanes from image `images` on are
    /// padding. Layers that reduce across images
    /// ([`Conv2d`](crate::Conv2d)'s parameter gradients) keep it, and
    /// containers pass it on. The default ignores it.
    fn set_images(&mut self, _images: usize) {}

    /// Visits every parameter tensor (immutably), outermost layer first.
    fn visit_params(&self, f: &mut dyn FnMut(&Tensor));

    /// Visits every parameter tensor mutably.
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor));

    /// Visits every `(parameter, gradient)` pair mutably (parameters
    /// mutable, gradients read-only) in the same order as
    /// [`Layer::visit_params`].
    fn visit_param_grad_pairs(&mut self, f: &mut dyn FnMut(&mut Tensor, &Tensor));

    /// Sets all stored gradients to zero.
    fn zero_grads(&mut self);

    /// Clones the layer into a box (layers are cloned when the simulator
    /// replicates a model across workers).
    fn clone_box(&self) -> Box<dyn Layer>;

    /// Short human-readable layer name for debugging output.
    fn name(&self) -> &'static str;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Counts the parameters of any layer via the visitor.
pub fn param_count(layer: &dyn Layer) -> usize {
    let mut count = 0;
    layer.visit_params(&mut |p| count += p.len());
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dense;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn param_count_counts_weights_and_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let dense = Dense::new(3, 5, &mut rng);
        assert_eq!(param_count(&dense), 3 * 5 + 5);
    }

    #[test]
    fn boxed_layer_clones() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer: Box<dyn Layer> = Box::new(Dense::new(2, 2, &mut rng));
        let copy = layer.clone();
        assert_eq!(param_count(layer.as_ref()), param_count(copy.as_ref()));
    }
}
