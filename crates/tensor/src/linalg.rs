//! Vector-space helpers used across the workspace.

use crate::Tensor;

impl Tensor {
    /// Dot product of two same-shape tensors (flattened).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(
            self.shape(),
            other.shape(),
            "dot shape mismatch: {} vs {}",
            self.shape(),
            other.shape()
        );
        self.as_slice()
            .iter()
            .zip(other.as_slice().iter())
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// Euclidean distance between two same-shape tensors.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn distance(&self, other: &Tensor) -> f32 {
        assert_eq!(
            self.shape(),
            other.shape(),
            "distance shape mismatch: {} vs {}",
            self.shape(),
            other.shape()
        );
        self.as_slice()
            .iter()
            .zip(other.as_slice().iter())
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt()
    }

    /// Clips every element into `[-bound, bound]`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is negative or NaN.
    pub fn clip(&self, bound: f32) -> Tensor {
        assert!(bound >= 0.0, "clip bound must be non-negative, got {bound}");
        self.map(|v| v.clamp(-bound, bound))
    }
}

/// Averages a set of same-shape tensors, the core model-averaging primitive
/// of PASGD (eq. 3 of the paper).
///
/// # Panics
///
/// Panics if `tensors` is empty or the shapes differ.
///
/// # Example
///
/// ```
/// use tensor::{average, Tensor};
///
/// let models = vec![Tensor::full(&[2], 1.0), Tensor::full(&[2], 3.0)];
/// let avg = average(&models);
/// assert_eq!(avg.as_slice(), &[2.0, 2.0]);
/// ```
pub fn average(tensors: &[Tensor]) -> Tensor {
    assert!(!tensors.is_empty(), "cannot average zero tensors");
    let mut acc = tensors[0].clone();
    for t in &tensors[1..] {
        acc.add_assign(t);
    }
    acc.scale(1.0 / tensors.len() as f32);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_of_orthogonal_vectors_is_zero() {
        let a = Tensor::from_slice(&[1.0, 0.0]);
        let b = Tensor::from_slice(&[0.0, 1.0]);
        assert_eq!(a.dot(&b), 0.0);
        assert_eq!(a.dot(&a), 1.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Tensor::from_slice(&[0.0, 0.0]);
        let b = Tensor::from_slice(&[3.0, 4.0]);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(b.distance(&a), 5.0);
    }

    #[test]
    fn clip_bounds_elements() {
        let a = Tensor::from_slice(&[-5.0, 0.5, 5.0]);
        assert_eq!(a.clip(1.0).as_slice(), &[-1.0, 0.5, 1.0]);
    }

    #[test]
    fn average_of_identical_is_identity() {
        let t = Tensor::from_slice(&[1.0, 2.0]);
        let avg = average(&[t.clone(), t.clone(), t.clone()]);
        assert_eq!(avg, t);
    }

    #[test]
    fn average_matches_manual_mean() {
        let a = Tensor::from_slice(&[1.0, 5.0]);
        let b = Tensor::from_slice(&[3.0, 7.0]);
        let avg = average(&[a, b]);
        assert_eq!(avg.as_slice(), &[2.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "cannot average zero tensors")]
    fn average_of_nothing_panics() {
        let _ = average(&[]);
    }
}
