//! Dense vector helpers.
//!
//! [`Vector`] is a thin newtype over `Vec<f64>` giving the handful of operations the
//! classifiers need (dot products, norms, axpy) without pulling in a full array
//! library. It intentionally converts to/from `Vec<f64>` freely.

use serde::{Deserialize, Serialize};
use std::ops::{Deref, DerefMut, Index, IndexMut};

/// A dense `f64` vector.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Vector(pub Vec<f64>);

impl Vector {
    /// Vector of `n` zeros.
    pub fn zeros(n: usize) -> Self {
        Self(vec![0.0; n])
    }

    /// Vector filled with `value`.
    pub fn filled(n: usize, value: f64) -> Self {
        Self(vec![value; n])
    }

    /// Build from a `Vec<f64>`.
    pub fn from_vec(v: Vec<f64>) -> Self {
        Self(v)
    }

    /// Length of the vector.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Dot product. Panics on length mismatch.
    pub fn dot(&self, other: &Vector) -> f64 {
        assert_eq!(
            self.len(),
            other.len(),
            "dot: length mismatch {} vs {}",
            self.len(),
            other.len()
        );
        self.0.iter().zip(&other.0).map(|(a, b)| a * b).sum()
    }

    /// Dot product against a plain slice.
    pub fn dot_slice(&self, other: &[f64]) -> f64 {
        assert_eq!(self.len(), other.len(), "dot_slice: length mismatch");
        self.0.iter().zip(other).map(|(a, b)| a * b).sum()
    }

    /// Euclidean (L2) norm.
    pub fn norm(&self) -> f64 {
        self.0.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// L1 norm.
    pub fn norm_l1(&self) -> f64 {
        self.0.iter().map(|x| x.abs()).sum()
    }

    /// Sum of elements.
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Mean of elements (0 for an empty vector).
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f64
        }
    }

    /// In-place `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f64, other: &Vector) {
        assert_eq!(self.len(), other.len(), "axpy: length mismatch");
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a += alpha * b;
        }
    }

    /// Scaled copy.
    pub fn scaled(&self, s: f64) -> Vector {
        Vector(self.0.iter().map(|x| x * s).collect())
    }

    /// Normalise to unit L2 norm (no-op on the zero vector).
    pub fn normalized(&self) -> Vector {
        let n = self.norm();
        if n == 0.0 {
            self.clone()
        } else {
            self.scaled(1.0 / n)
        }
    }

    /// Cosine similarity with another vector (0 if either is the zero vector).
    pub fn cosine(&self, other: &Vector) -> f64 {
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            0.0
        } else {
            self.dot(other) / denom
        }
    }

    /// Index of the maximum element (first on ties); `None` if empty.
    pub fn argmax(&self) -> Option<usize> {
        crate::stats::argmax(&self.0)
    }

    /// Underlying data.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }
}

impl Deref for Vector {
    type Target = Vec<f64>;
    fn deref(&self) -> &Vec<f64> {
        &self.0
    }
}

impl DerefMut for Vector {
    fn deref_mut(&mut self) -> &mut Vec<f64> {
        &mut self.0
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.0[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.0[i]
    }
}

impl From<Vec<f64>> for Vector {
    fn from(v: Vec<f64>) -> Self {
        Self(v)
    }
}

impl From<Vector> for Vec<f64> {
    fn from(v: Vector) -> Self {
        v.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        let a = Vector::from_vec(vec![3.0, 4.0]);
        let b = Vector::from_vec(vec![1.0, 2.0]);
        assert_eq!(a.dot(&b), 11.0);
        assert!((a.norm() - 5.0).abs() < 1e-12);
        assert_eq!(a.norm_l1(), 7.0);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut a = Vector::zeros(3);
        let g = Vector::from_vec(vec![1.0, 2.0, 3.0]);
        a.axpy(-2.0, &g);
        assert_eq!(a.as_slice(), &[-2.0, -4.0, -6.0]);
    }

    #[test]
    fn cosine_similarity() {
        let a = Vector::from_vec(vec![1.0, 0.0]);
        let b = Vector::from_vec(vec![0.0, 1.0]);
        let c = Vector::from_vec(vec![2.0, 0.0]);
        assert!((a.cosine(&b)).abs() < 1e-12);
        assert!((a.cosine(&c) - 1.0).abs() < 1e-12);
        assert_eq!(a.cosine(&Vector::zeros(2)), 0.0);
    }

    #[test]
    fn normalization() {
        let a = Vector::from_vec(vec![3.0, 4.0]).normalized();
        assert!((a.norm() - 1.0).abs() < 1e-12);
        assert_eq!(Vector::zeros(2).normalized(), Vector::zeros(2));
    }

    #[test]
    fn argmax_and_mean() {
        let a = Vector::from_vec(vec![0.1, 0.7, 0.2]);
        assert_eq!(a.argmax(), Some(1));
        assert!((a.mean() - (1.0 / 3.0)).abs() < 1e-9);
        assert_eq!(Vector::zeros(0).argmax(), None);
        assert_eq!(Vector::zeros(0).mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = Vector::zeros(2).dot(&Vector::zeros(3));
    }
}
