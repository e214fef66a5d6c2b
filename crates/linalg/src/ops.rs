//! Numerically careful element-wise and reduction operations.
//!
//! Softmax / log-sum-exp appear in three places — multinomial logistic regression,
//! the transformer attention weights, and the cross-entropy loss — so they live here
//! once, implemented with max-subtraction to stay finite for large logits.

use crate::matrix::Matrix;
use std::ops::AddAssign;

/// Numerically stable log-sum-exp of a slice. Returns `-inf` for an empty slice.
pub fn logsumexp(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NEG_INFINITY;
    }
    let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !m.is_finite() {
        return m;
    }
    let sum: f64 = xs.iter().map(|&x| (x - m).exp()).sum();
    m + sum.ln()
}

/// Numerically stable softmax of a slice. Returns an empty vector for empty input.
pub fn softmax(xs: &[f64]) -> Vec<f64> {
    let mut out = xs.to_vec();
    softmax_in_place(&mut out);
    out
}

/// [`softmax`] overwriting its input.
pub fn softmax_in_place(xs: &mut [f64]) {
    let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if m.is_finite() {
        for x in xs.iter_mut() {
            *x = (*x - m).exp();
        }
        let sum: f64 = xs.iter().sum();
        if sum != 0.0 {
            for x in xs.iter_mut() {
                *x /= sum;
            }
            return;
        }
    }
    // All inputs are -inf (or NaN): no finite maximum, fall back to uniform.
    let uniform = 1.0 / xs.len() as f64;
    xs.fill(uniform);
}

/// Row-wise softmax of a matrix.
pub fn softmax_rows(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    for r in 0..out.rows() {
        softmax_in_place(out.row_mut(r));
    }
    out
}

/// Row-wise log-softmax of a matrix.
pub fn log_softmax_rows(m: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), m.cols());
    for r in 0..m.rows() {
        let lse = logsumexp(m.row(r));
        let row: Vec<f64> = m.row(r).iter().map(|&x| x - lse).collect();
        out.set_row(r, &row);
    }
    out
}

/// Logistic sigmoid.
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Rectified linear unit.
pub fn relu(x: f64) -> f64 {
    x.max(0.0)
}

/// Element-wise tanh of a slice.
pub fn tanh_vec(xs: &[f64]) -> Vec<f64> {
    xs.iter().map(|&x| x.tanh()).collect()
}

/// GELU activation (tanh approximation), used by the transformer feed-forward blocks.
pub fn gelu(x: f64) -> f64 {
    0.5 * x * (1.0 + ((2.0 / std::f64::consts::PI).sqrt() * (x + 0.044715 * x.powi(3))).tanh())
}

/// Normalise one row in place to zero mean and unit variance, then apply the
/// gain `gamma` and bias `beta` (the transformer's layer norm).
pub fn layer_norm_in_place(row: &mut [f64], gamma: &[f64], beta: &[f64], eps: f64) {
    let mean = row.iter().sum::<f64>() / row.len() as f64;
    let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / row.len() as f64;
    let std = (var + eps).sqrt();
    for ((v, g), b) in row.iter_mut().zip(gamma).zip(beta) {
        *v = (*v - mean) / std * g + b;
    }
}

/// Add the bias row `bias` to every `bias.len()`-wide row of `data`.
pub fn add_row_broadcast<T: Copy + AddAssign>(data: &mut [T], bias: &[T]) {
    for row in data.chunks_exact_mut(bias.len().max(1)) {
        for (v, &b) in row.iter_mut().zip(bias) {
            *v += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one_and_preserves_order() {
        let s = softmax(&[1.0, 2.0, 3.0]);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(s[2] > s[1] && s[1] > s[0]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[1001.0, 1002.0, 1003.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn softmax_handles_extreme_values() {
        let s = softmax(&[-1e9, 0.0, 1e9]);
        assert!(s.iter().all(|x| x.is_finite()));
        assert!((s[2] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn softmax_empty_and_all_neg_inf() {
        assert!(softmax(&[]).is_empty());
        let s = softmax(&[f64::NEG_INFINITY, f64::NEG_INFINITY]);
        assert!((s[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn logsumexp_matches_naive_for_small_values() {
        let xs: [f64; 3] = [0.5, -0.2, 1.3];
        let naive = xs.iter().map(|x| x.exp()).sum::<f64>().ln();
        assert!((logsumexp(&xs) - naive).abs() < 1e-12);
        assert_eq!(logsumexp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn sigmoid_symmetry_and_stability() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!((sigmoid(5.0) + sigmoid(-5.0) - 1.0).abs() < 1e-12);
        assert!(sigmoid(1000.0).is_finite());
        assert!(sigmoid(-1000.0) >= 0.0);
    }

    #[test]
    fn row_softmax_rows_sum_to_one() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![0.0, 0.0, 0.0]]);
        let s = softmax_rows(&m);
        for r in 0..s.rows() {
            assert!((s.row(r).iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn log_softmax_is_log_of_softmax() {
        let m = Matrix::from_rows(&[vec![0.3, -1.2, 2.0]]);
        let ls = log_softmax_rows(&m);
        let s = softmax_rows(&m);
        for c in 0..3 {
            assert!((ls[(0, c)] - s[(0, c)].ln()).abs() < 1e-9);
        }
    }

    #[test]
    fn relu_and_gelu_basic() {
        assert_eq!(relu(-2.0), 0.0);
        assert_eq!(relu(3.0), 3.0);
        assert!(gelu(0.0).abs() < 1e-12);
        assert!(gelu(3.0) > 2.9);
        assert!(gelu(-3.0).abs() < 0.01);
    }
}
