//! Model zoo: the architectures used by the reproduction experiments.
//!
//! The paper trains VGG-16 (~138 M parameters) and ResNet-50 (~25.6 M). We
//! keep the architectural *families* — a plain deep conv stack with large
//! dense head (VGG-like) and a residual conv network (ResNet-like) — at a
//! scale where the full figure suite runs on a laptop. Wall-clock behaviour
//! is supplied by the calibrated delay profiles in the `delay` crate, not by
//! the raw FLOPs of these networks (see the substitution policy in
//! `EXPERIMENTS.md`).

use crate::{Conv2d, Dense, LaneStack, Loss, MaxPool2d, Network, Relu, Residual, Sequential};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A multi-layer perceptron classifier with ReLU activations.
///
/// `hidden` lists the hidden-layer widths; an empty slice yields softmax
/// regression (a single affine layer).
///
/// # Panics
///
/// Panics if `input_dim == 0` or `classes == 0`.
///
/// # Example
///
/// ```
/// use nn::models::mlp_classifier;
///
/// let net = mlp_classifier(256, &[128, 64], 10, 0);
/// assert!(net.param_count() > 256 * 128);
/// ```
pub fn mlp_classifier(input_dim: usize, hidden: &[usize], classes: usize, seed: u64) -> Network {
    assert!(input_dim > 0 && classes > 0, "degenerate classifier");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stack = Sequential::empty();
    let mut dim = input_dim;
    for &h in hidden {
        stack.push(Box::new(Dense::new(dim, h, &mut rng)));
        stack.push(Box::new(Relu::new()));
        dim = h;
    }
    stack.push(Box::new(Dense::new(dim, classes, &mut rng)));
    Network::new(stack, Loss::CrossEntropy)
}

/// Softmax regression: a single affine layer plus cross-entropy. The
/// smallest convex-ish workload; used for fast theory-facing experiments.
pub fn softmax_regression(input_dim: usize, classes: usize, seed: u64) -> Network {
    mlp_classifier(input_dim, &[], classes, seed)
}

/// A VGG-style network: plain 3×3 conv blocks, max-pooling, and a large
/// dense head — the communication-heavy architecture family of the paper.
///
/// Input is a flattened `[channels, side, side]` image; `side` must be
/// divisible by 4.
///
/// # Panics
///
/// Panics if `side % 4 != 0`, or any dimension is zero.
pub fn vgg_like(channels: usize, side: usize, classes: usize, seed: u64) -> Network {
    assert!(
        channels > 0 && side > 0 && classes > 0,
        "degenerate network"
    );
    assert_eq!(side % 4, 0, "side must be divisible by 4, got {side}");
    let mut rng = StdRng::seed_from_u64(seed);
    let s2 = side / 2;
    let s4 = side / 4;
    // The spatial layers run on lane groups of 16 images.
    let spatial = Sequential::new(vec![
        // Block 1: conv-relu-conv-relu-pool, each ReLU fused into its conv.
        Box::new(Conv2d::new((channels, side, side), 8, 3, 1, &mut rng).with_relu()),
        Box::new(Conv2d::new((8, side, side), 8, 3, 1, &mut rng).with_relu()),
        Box::new(MaxPool2d::new((8, side, side))),
        // Block 2: conv-relu-pool.
        Box::new(Conv2d::new((8, s2, s2), 16, 3, 1, &mut rng).with_relu()),
        Box::new(MaxPool2d::new((16, s2, s2))),
    ]);
    let mut stack = Sequential::empty();
    stack.push(Box::new(LaneStack::new(spatial)));
    // Large dense head — the VGG signature that makes the model
    // communication-bound.
    let flat = 16 * s4 * s4;
    stack.push(Box::new(Dense::new(flat, 128, &mut rng)));
    stack.push(Box::new(Relu::new()));
    stack.push(Box::new(Dense::new(128, classes, &mut rng)));
    Network::new(stack, Loss::CrossEntropy)
}

/// A ResNet-style network: an initial conv, two residual blocks with
/// identity skips, pooling, and a small dense head.
///
/// # Panics
///
/// Panics if `side % 4 != 0`, or any dimension is zero.
pub fn resnet_like(channels: usize, side: usize, classes: usize, seed: u64) -> Network {
    assert!(
        channels > 0 && side > 0 && classes > 0,
        "degenerate network"
    );
    assert_eq!(side % 4, 0, "side must be divisible by 4, got {side}");
    let mut rng = StdRng::seed_from_u64(seed);
    let s2 = side / 2;
    let s4 = side / 4;
    // The spatial layers run on lane groups of 16 images; every ReLU is
    // fused into the conv or residual add before it.
    let spatial = Sequential::new(vec![
        Box::new(Conv2d::new((channels, side, side), 8, 3, 1, &mut rng).with_relu()),
        // Residual block 1 at full resolution: conv-relu-conv, add, relu.
        Box::new(
            Residual::new(Sequential::new(vec![
                Box::new(Conv2d::new((8, side, side), 8, 3, 1, &mut rng).with_relu()),
                Box::new(Conv2d::new((8, side, side), 8, 3, 1, &mut rng)),
            ]))
            .with_relu(),
        ),
        Box::new(MaxPool2d::new((8, side, side))),
        // Residual block 2 at half resolution.
        Box::new(
            Residual::new(Sequential::new(vec![
                Box::new(Conv2d::new((8, s2, s2), 8, 3, 1, &mut rng).with_relu()),
                Box::new(Conv2d::new((8, s2, s2), 8, 3, 1, &mut rng)),
            ]))
            .with_relu(),
        ),
        Box::new(MaxPool2d::new((8, s2, s2))),
    ]);
    let mut stack = Sequential::empty();
    stack.push(Box::new(LaneStack::new(spatial)));
    // Small dense head — ResNets avoid VGG's parameter-heavy head.
    stack.push(Box::new(Dense::new(8 * s4 * s4, classes, &mut rng)));
    Network::new(stack, Loss::CrossEntropy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::Tensor;

    #[test]
    fn mlp_shapes() {
        let mut net = mlp_classifier(10, &[20, 5], 3, 0);
        let y = net.forward(&Tensor::zeros(&[2, 10]));
        assert_eq!(y.dims(), &[2, 3]);
    }

    #[test]
    fn softmax_regression_is_single_layer() {
        let net = softmax_regression(10, 3, 0);
        assert_eq!(net.param_count(), 10 * 3 + 3);
    }

    #[test]
    fn vgg_like_forward_shape() {
        let mut net = vgg_like(1, 8, 10, 0);
        let y = net.forward(&Tensor::zeros(&[2, 64]));
        assert_eq!(y.dims(), &[2, 10]);
    }

    #[test]
    fn resnet_like_forward_shape() {
        let mut net = resnet_like(1, 8, 10, 0);
        let y = net.forward(&Tensor::zeros(&[2, 64]));
        assert_eq!(y.dims(), &[2, 10]);
    }

    #[test]
    fn vgg_has_heavier_head_than_resnet() {
        // The defining difference the paper leans on: VGG's dense head makes
        // it parameter- (and thus communication-) heavy relative to ResNet.
        let vgg = vgg_like(1, 8, 10, 0);
        let resnet = resnet_like(1, 8, 10, 0);
        assert!(
            vgg.param_count() > 2 * resnet.param_count(),
            "vgg {} vs resnet {}",
            vgg.param_count(),
            resnet.param_count()
        );
    }

    #[test]
    fn deterministic_construction() {
        let a = mlp_classifier(6, &[4], 2, 11);
        let b = mlp_classifier(6, &[4], 2, 11);
        assert_eq!(a.params_snapshot(), b.params_snapshot());
    }

    #[test]
    fn conv_models_train_one_step() {
        for mut net in [vgg_like(1, 8, 3, 1), resnet_like(1, 8, 3, 1)] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(2);
            use rand::SeedableRng;
            let x = Tensor::randn(&[4, 64], 1.0, &mut rng);
            let loss = net.train_step(&x, &[0, 1, 2, 0]);
            assert!(loss.is_finite() && loss > 0.0);
            assert!(net.grad_sq_norm() > 0.0);
        }
    }

    /// A replica cloned from a trained model steps to the same bits as the
    /// model. Each clone's bordered-plane caches are new allocations, which
    /// can sit at another offset from a 64-byte boundary than the
    /// original's; odd-sized allocations between the clones move them
    /// across those offsets.
    #[test]
    fn cloned_conv_models_step_to_the_same_bits() {
        use rand::SeedableRng;
        for mut net in [vgg_like(1, 8, 3, 1), resnet_like(1, 8, 3, 1)] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(3);
            let labels: Vec<usize> = (0..20).map(|i| i % 3).collect();
            let _ = net.train_step(&Tensor::randn(&[20, 64], 1.0, &mut rng), &labels);
            let mut spacers = Vec::new();
            let mut clones = Vec::new();
            for i in 0..8 {
                spacers.push(vec![0u8; 16 * i + 1]);
                clones.push(net.clone());
            }
            let x = Tensor::randn(&[20, 64], 1.0, &mut rng);
            let step = |net: &mut Network| {
                let loss = net.train_step(&x, &labels);
                let mut bits = vec![loss.to_bits()];
                net.visit_param_grad_pairs(&mut |_, g| {
                    bits.extend(g.as_slice().iter().map(|v| v.to_bits()))
                });
                bits
            };
            let want = step(&mut net);
            for (i, mut clone) in clones.into_iter().enumerate() {
                assert!(step(&mut clone) == want, "clone {i}");
            }
        }
    }
}
