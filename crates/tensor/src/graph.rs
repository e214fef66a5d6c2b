//! Tape-based reverse-mode autograd graph.
//!
//! A [`Graph`] records every operation of one forward pass as a node in an arena.
//! Calling [`Graph::backward`] on a scalar output walks the tape in reverse, applying
//! each op's adjoint rule, and accumulates parameter gradients into the associated
//! [`ParamStore`]. Node handles are plain indices ([`NodeId`]), so graphs are cheap to
//! build and `Send`.
//!
//! The gradient formulas are verified against central finite differences in this
//! module's tests for every op.

use crate::params::{ParamId, ParamStore};
use holistix_linalg::ops::{add_row_broadcast, gelu, layer_norm_in_place};
use holistix_linalg::{softmax, softmax_rows, CsrBuilder, Matrix};
use std::collections::BTreeMap;

/// Handle to a node in a [`Graph`].
pub type NodeId = usize;

/// The operation that produced a node.
#[derive(Debug, Clone)]
enum Op {
    /// Input constant (no gradient) or parameter leaf (gradient flows to the store).
    Leaf { param: Option<ParamId> },
    /// Matrix product `A · B`.
    Matmul(NodeId, NodeId),
    /// Element-wise sum of same-shape matrices.
    Add(NodeId, NodeId),
    /// Add a `1 × cols` bias row to every row of `A`.
    AddRowBroadcast(NodeId, NodeId),
    /// Element-wise (Hadamard) product.
    Mul(NodeId, NodeId),
    /// Multiply by a scalar constant.
    Scale(NodeId, f64),
    /// Add a constant matrix (no gradient to the constant) — used for attention masks.
    AddConst(NodeId),
    /// Rectified linear unit.
    Relu(NodeId),
    /// GELU activation (tanh approximation).
    Gelu(NodeId),
    /// Hyperbolic tangent.
    Tanh(NodeId),
    /// Row-wise softmax.
    SoftmaxRows(NodeId),
    /// Row-wise layer normalisation with gain and bias (`1 × cols` parameters).
    LayerNorm {
        x: NodeId,
        gamma: NodeId,
        beta: NodeId,
        eps: f64,
    },
    /// Embedding lookup: select rows of `table` by token id.
    Gather { table: NodeId, indices: Vec<usize> },
    /// Embedding lookup straight from a parameter table: the table is never
    /// materialised as a graph node, and the backward pass folds per-position
    /// row gradients through a sparse (CSR) accumulator before touching the
    /// store — one row per *distinct* token instead of a dense `vocab × hidden`
    /// scratch matrix.
    GatherParam { param: ParamId, indices: Vec<usize> },
    /// Mean over rows, producing a `1 × cols` matrix.
    MeanRows(NodeId),
    /// Select a single row, producing a `1 × cols` matrix.
    RowSelect(NodeId, usize),
    /// Matrix transpose.
    Transpose(NodeId),
    /// Dropout with a pre-sampled binary mask (already scaled by 1/keep).
    Dropout { x: NodeId, mask: Matrix },
    /// Fused mean softmax-cross-entropy over rows of logits against target classes.
    CrossEntropy { logits: NodeId, targets: Vec<usize> },
    /// Sum of all elements, producing a `1 × 1` matrix.
    Sum(NodeId),
}

#[derive(Debug, Clone)]
struct Node {
    value: Matrix,
    grad: Matrix,
    op: Op,
}

/// A single forward pass's computation tape.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    /// New empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The value of a node.
    pub fn value(&self, id: NodeId) -> &Matrix {
        &self.nodes[id].value
    }

    /// The gradient of a node (zero until `backward` has run).
    pub fn grad(&self, id: NodeId) -> &Matrix {
        &self.nodes[id].grad
    }

    fn push(&mut self, value: Matrix, op: Op) -> NodeId {
        let grad = Matrix::zeros(value.rows(), value.cols());
        self.nodes.push(Node { value, grad, op });
        self.nodes.len() - 1
    }

    // ----- leaf constructors -------------------------------------------------------

    /// A constant input (no gradient).
    pub fn constant(&mut self, value: Matrix) -> NodeId {
        self.push(value, Op::Leaf { param: None })
    }

    /// A parameter leaf: the node's value is copied from the store and its gradient is
    /// accumulated back into the store by `backward`.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> NodeId {
        self.push(store.value(id).clone(), Op::Leaf { param: Some(id) })
    }

    // ----- ops ---------------------------------------------------------------------

    /// Matrix product.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let value = self.nodes[a].value.matmul(&self.nodes[b].value);
        self.push(value, Op::Matmul(a, b))
    }

    /// Element-wise sum (same shapes).
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let value = &self.nodes[a].value + &self.nodes[b].value;
        self.push(value, Op::Add(a, b))
    }

    /// Add a `1 × cols` bias row to every row of `a`.
    pub fn add_row_broadcast(&mut self, a: NodeId, bias: NodeId) -> NodeId {
        let mut value = self.nodes[a].value.clone();
        add_row_broadcast(value.data_mut(), self.nodes[bias].value.row(0));
        self.push(value, Op::AddRowBroadcast(a, bias))
    }

    /// Element-wise product (same shapes).
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let value = self.nodes[a].value.hadamard(&self.nodes[b].value);
        self.push(value, Op::Mul(a, b))
    }

    /// Scale by a constant.
    pub fn scale(&mut self, a: NodeId, c: f64) -> NodeId {
        let value = self.nodes[a].value.scale(c);
        self.push(value, Op::Scale(a, c))
    }

    /// Add a constant matrix (e.g. an attention mask of 0 / −1e9 values).
    pub fn add_const(&mut self, a: NodeId, constant: &Matrix) -> NodeId {
        let value = &self.nodes[a].value + constant;
        self.push(value, Op::AddConst(a))
    }

    /// ReLU activation.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let value = self.nodes[a].value.map(|x| x.max(0.0));
        self.push(value, Op::Relu(a))
    }

    /// GELU activation (tanh approximation).
    pub fn gelu(&mut self, a: NodeId) -> NodeId {
        let value = self.nodes[a].value.map(gelu);
        self.push(value, Op::Gelu(a))
    }

    /// Tanh activation.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let value = self.nodes[a].value.map(f64::tanh);
        self.push(value, Op::Tanh(a))
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: NodeId) -> NodeId {
        let value = softmax_rows(&self.nodes[a].value);
        self.push(value, Op::SoftmaxRows(a))
    }

    /// Row-wise layer normalisation with learned gain `gamma` and bias `beta`
    /// (both `1 × cols`).
    pub fn layer_norm(&mut self, x: NodeId, gamma: NodeId, beta: NodeId, eps: f64) -> NodeId {
        let mut value = self.nodes[x].value.clone();
        let (g, b) = (
            self.nodes[gamma].value.row(0),
            self.nodes[beta].value.row(0),
        );
        for r in 0..value.rows() {
            layer_norm_in_place(value.row_mut(r), g, b, eps);
        }
        self.push(
            value,
            Op::LayerNorm {
                x,
                gamma,
                beta,
                eps,
            },
        )
    }

    /// Embedding lookup: output row `i` is row `indices[i]` of `table`.
    pub fn gather(&mut self, table: NodeId, indices: &[usize]) -> NodeId {
        let t = &self.nodes[table].value;
        let mut value = Matrix::zeros(indices.len(), t.cols());
        for (i, &idx) in indices.iter().enumerate() {
            assert!(
                idx < t.rows(),
                "gather index {idx} out of range ({} rows)",
                t.rows()
            );
            value.set_row(i, t.row(idx));
        }
        self.push(
            value,
            Op::Gather {
                table,
                indices: indices.to_vec(),
            },
        )
    }

    /// Embedding lookup straight from a parameter table: output row `i` is row
    /// `indices[i]` of `store.value(param)`.
    ///
    /// Functionally identical to `gather(param(store, id), indices)` but skips both
    /// the dense table clone on the forward pass and the dense `vocab × hidden`
    /// gradient scratch on the backward pass; see `Op::GatherParam`'s backward rule.
    /// Gradients accumulate into the store bit-identically to the dense formulation
    /// (same per-position fold order, see the `gather_param_matches_dense_gather`
    /// test).
    pub fn gather_param(
        &mut self,
        store: &ParamStore,
        param: ParamId,
        indices: &[usize],
    ) -> NodeId {
        let t = store.value(param);
        let mut value = Matrix::zeros(indices.len(), t.cols());
        for (i, &idx) in indices.iter().enumerate() {
            assert!(
                idx < t.rows(),
                "gather_param index {idx} out of range ({} rows)",
                t.rows()
            );
            value.set_row(i, t.row(idx));
        }
        self.push(
            value,
            Op::GatherParam {
                param,
                indices: indices.to_vec(),
            },
        )
    }

    /// Mean over rows (`n × d` → `1 × d`).
    pub fn mean_rows(&mut self, a: NodeId) -> NodeId {
        let m = &self.nodes[a].value;
        let mut value = Matrix::zeros(1, m.cols());
        if m.rows() > 0 {
            let means = m.col_means();
            value.set_row(0, &means);
        }
        self.push(value, Op::MeanRows(a))
    }

    /// Select row `row` (`n × d` → `1 × d`).
    pub fn row_select(&mut self, a: NodeId, row: usize) -> NodeId {
        let m = &self.nodes[a].value;
        assert!(row < m.rows(), "row_select {row} out of range");
        let mut value = Matrix::zeros(1, m.cols());
        value.set_row(0, m.row(row));
        self.push(value, Op::RowSelect(a, row))
    }

    /// Transpose.
    pub fn transpose(&mut self, a: NodeId) -> NodeId {
        let value = self.nodes[a].value.transpose();
        self.push(value, Op::Transpose(a))
    }

    /// Dropout with keep probability `keep`, using a pre-sampled uniform matrix
    /// `noise` (same shape as `a`, values in `[0,1)`); scaling by `1/keep` is applied
    /// so evaluation needs no rescaling. Pass `keep = 1.0` to disable.
    pub fn dropout(&mut self, a: NodeId, noise: &Matrix, keep: f64) -> NodeId {
        assert!(
            keep > 0.0 && keep <= 1.0,
            "dropout keep probability must be in (0,1]"
        );
        let shape = self.nodes[a].value.shape();
        assert_eq!(noise.shape(), shape, "dropout noise shape mismatch");
        let mut mask = Matrix::zeros(shape.0, shape.1);
        for (m, &n) in mask.data_mut().iter_mut().zip(noise.data()) {
            *m = if n < keep { 1.0 / keep } else { 0.0 };
        }
        let value = self.nodes[a].value.hadamard(&mask);
        self.push(value, Op::Dropout { x: a, mask })
    }

    /// Mean softmax-cross-entropy loss of `logits` (`n × classes`) against `targets`
    /// (`n` dense class ids). Produces a `1 × 1` node.
    pub fn cross_entropy(&mut self, logits: NodeId, targets: &[usize]) -> NodeId {
        let l = &self.nodes[logits].value;
        assert_eq!(
            l.rows(),
            targets.len(),
            "cross_entropy: row/target count mismatch"
        );
        assert!(!targets.is_empty(), "cross_entropy: empty targets");
        let mut loss = 0.0;
        for (r, &t) in targets.iter().enumerate() {
            assert!(
                t < l.cols(),
                "target {t} out of range for {} classes",
                l.cols()
            );
            let probs = softmax(l.row(r));
            loss -= probs[t].max(1e-15).ln();
        }
        loss /= targets.len() as f64;
        let value = Matrix::from_vec(1, 1, vec![loss]);
        self.push(
            value,
            Op::CrossEntropy {
                logits,
                targets: targets.to_vec(),
            },
        )
    }

    /// Sum of all elements (`n × d` → `1 × 1`). Useful for scalarising test outputs.
    pub fn sum(&mut self, a: NodeId) -> NodeId {
        let value = Matrix::from_vec(1, 1, vec![self.nodes[a].value.sum()]);
        self.push(value, Op::Sum(a))
    }

    /// The scalar value of a `1 × 1` node.
    pub fn scalar(&self, id: NodeId) -> f64 {
        let v = &self.nodes[id].value;
        assert_eq!(v.shape(), (1, 1), "scalar() on a non-scalar node");
        v[(0, 0)]
    }

    // ----- backward ----------------------------------------------------------------

    /// Run reverse-mode differentiation from the scalar node `output`, accumulating
    /// parameter gradients into `store`.
    pub fn backward(&mut self, output: NodeId, store: &mut ParamStore) {
        assert_eq!(
            self.nodes[output].value.shape(),
            (1, 1),
            "backward must start from a scalar (1x1) node"
        );
        self.nodes[output].grad = Matrix::from_vec(1, 1, vec![1.0]);

        for id in (0..=output).rev() {
            let grad = self.nodes[id].grad.clone();
            if grad.data().iter().all(|&g| g == 0.0) {
                continue;
            }
            match self.nodes[id].op.clone() {
                Op::Leaf { param } => {
                    if let Some(pid) = param {
                        store.grad_mut(pid).add_scaled(&grad, 1.0);
                    }
                }
                Op::Matmul(a, b) => {
                    let a_val = self.nodes[a].value.clone();
                    let b_val = self.nodes[b].value.clone();
                    let da = grad.matmul(&b_val.transpose());
                    let db = a_val.transpose().matmul(&grad);
                    self.nodes[a].grad.add_scaled(&da, 1.0);
                    self.nodes[b].grad.add_scaled(&db, 1.0);
                }
                Op::Add(a, b) => {
                    self.nodes[a].grad.add_scaled(&grad, 1.0);
                    self.nodes[b].grad.add_scaled(&grad, 1.0);
                }
                Op::AddRowBroadcast(a, bias) => {
                    self.nodes[a].grad.add_scaled(&grad, 1.0);
                    let col_sums = grad.col_sums();
                    let bias_grad = Matrix::from_vec(1, col_sums.len(), col_sums);
                    self.nodes[bias].grad.add_scaled(&bias_grad, 1.0);
                }
                Op::Mul(a, b) => {
                    let da = grad.hadamard(&self.nodes[b].value);
                    let db = grad.hadamard(&self.nodes[a].value);
                    self.nodes[a].grad.add_scaled(&da, 1.0);
                    self.nodes[b].grad.add_scaled(&db, 1.0);
                }
                Op::Scale(a, c) => {
                    self.nodes[a].grad.add_scaled(&grad, c);
                }
                Op::AddConst(a) => {
                    self.nodes[a].grad.add_scaled(&grad, 1.0);
                }
                Op::Relu(a) => {
                    let mut da = grad.clone();
                    for (g, &x) in da.data_mut().iter_mut().zip(self.nodes[a].value.data()) {
                        if x <= 0.0 {
                            *g = 0.0;
                        }
                    }
                    self.nodes[a].grad.add_scaled(&da, 1.0);
                }
                Op::Gelu(a) => {
                    let mut da = grad.clone();
                    for (g, &x) in da.data_mut().iter_mut().zip(self.nodes[a].value.data()) {
                        *g *= gelu_derivative(x);
                    }
                    self.nodes[a].grad.add_scaled(&da, 1.0);
                }
                Op::Tanh(a) => {
                    let mut da = grad.clone();
                    for (g, &y) in da.data_mut().iter_mut().zip(self.nodes[id].value.data()) {
                        *g *= 1.0 - y * y;
                    }
                    self.nodes[a].grad.add_scaled(&da, 1.0);
                }
                Op::SoftmaxRows(a) => {
                    let y = self.nodes[id].value.clone();
                    let mut da = Matrix::zeros(y.rows(), y.cols());
                    for r in 0..y.rows() {
                        let yr = y.row(r);
                        let gr = grad.row(r);
                        let dot: f64 = yr.iter().zip(gr).map(|(yi, gi)| yi * gi).sum();
                        let out = da.row_mut(r);
                        for j in 0..yr.len() {
                            out[j] = yr[j] * (gr[j] - dot);
                        }
                    }
                    self.nodes[a].grad.add_scaled(&da, 1.0);
                }
                Op::LayerNorm {
                    x,
                    gamma,
                    beta,
                    eps,
                } => {
                    let xv = self.nodes[x].value.clone();
                    let g = self.nodes[gamma].value.row(0).to_vec();
                    let d = xv.cols() as f64;
                    let mut dx = Matrix::zeros(xv.rows(), xv.cols());
                    let mut dgamma = vec![0.0; xv.cols()];
                    let mut dbeta = vec![0.0; xv.cols()];
                    for r in 0..xv.rows() {
                        let row = xv.row(r);
                        let mean = row.iter().sum::<f64>() / d;
                        let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / d;
                        let std = (var + eps).sqrt();
                        let xhat: Vec<f64> = row.iter().map(|v| (v - mean) / std).collect();
                        let gr = grad.row(r);
                        // Accumulate parameter gradients.
                        for j in 0..row.len() {
                            dgamma[j] += gr[j] * xhat[j];
                            dbeta[j] += gr[j];
                        }
                        // dL/dxhat
                        let dxhat: Vec<f64> = (0..row.len()).map(|j| gr[j] * g[j]).collect();
                        let mean_dxhat = dxhat.iter().sum::<f64>() / d;
                        let mean_dxhat_xhat =
                            dxhat.iter().zip(&xhat).map(|(a, b)| a * b).sum::<f64>() / d;
                        let out = dx.row_mut(r);
                        for j in 0..row.len() {
                            out[j] = (dxhat[j] - mean_dxhat - xhat[j] * mean_dxhat_xhat) / std;
                        }
                    }
                    self.nodes[x].grad.add_scaled(&dx, 1.0);
                    let dgamma = Matrix::from_vec(1, dgamma.len(), dgamma);
                    let dbeta = Matrix::from_vec(1, dbeta.len(), dbeta);
                    self.nodes[gamma].grad.add_scaled(&dgamma, 1.0);
                    self.nodes[beta].grad.add_scaled(&dbeta, 1.0);
                }
                Op::Gather { table, indices } => {
                    let cols = grad.cols();
                    let mut dtable = Matrix::zeros(self.nodes[table].value.rows(), cols);
                    for (i, &idx) in indices.iter().enumerate() {
                        let src = grad.row(i).to_vec();
                        let dst = dtable.row_mut(idx);
                        for (d, s) in dst.iter_mut().zip(&src) {
                            *d += s;
                        }
                    }
                    self.nodes[table].grad.add_scaled(&dtable, 1.0);
                }
                Op::GatherParam { param, indices } => {
                    // Fold repeated tokens first (in increasing position order, matching
                    // the dense `Gather` scatter), round the folded rows through a CSR
                    // matrix, then apply each distinct row to the store exactly once.
                    let cols = grad.cols();
                    let mut folded: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
                    for (i, &idx) in indices.iter().enumerate() {
                        let src = grad.row(i);
                        let dst = folded.entry(idx).or_insert_with(|| vec![0.0; cols]);
                        for (d, s) in dst.iter_mut().zip(src) {
                            *d += s;
                        }
                    }
                    let mut builder = CsrBuilder::new(cols);
                    let mut rows = Vec::with_capacity(folded.len());
                    let mut scratch: Vec<(usize, f64)> = Vec::new();
                    for (row, values) in &folded {
                        scratch.clear();
                        scratch.extend(values.iter().copied().enumerate());
                        builder.push_row(&mut scratch);
                        rows.push(*row);
                    }
                    let sparse = builder.finish();
                    let table = store.grad_mut(param);
                    for (i, &row) in rows.iter().enumerate() {
                        let dst = table.row_mut(row);
                        for (c, v) in sparse.row_entries(i) {
                            dst[c] += v;
                        }
                    }
                }
                Op::MeanRows(a) => {
                    let rows = self.nodes[a].value.rows().max(1) as f64;
                    let mut da = Matrix::zeros(self.nodes[a].value.rows(), grad.cols());
                    let g_row = grad.row(0).to_vec();
                    for r in 0..da.rows() {
                        let out = da.row_mut(r);
                        for (o, g) in out.iter_mut().zip(&g_row) {
                            *o = g / rows;
                        }
                    }
                    self.nodes[a].grad.add_scaled(&da, 1.0);
                }
                Op::RowSelect(a, row) => {
                    let mut da = Matrix::zeros(self.nodes[a].value.rows(), grad.cols());
                    da.set_row(row, grad.row(0));
                    self.nodes[a].grad.add_scaled(&da, 1.0);
                }
                Op::Transpose(a) => {
                    let da = grad.transpose();
                    self.nodes[a].grad.add_scaled(&da, 1.0);
                }
                Op::Dropout { x, mask } => {
                    let da = grad.hadamard(&mask);
                    self.nodes[x].grad.add_scaled(&da, 1.0);
                }
                Op::CrossEntropy { logits, targets } => {
                    let l = self.nodes[logits].value.clone();
                    let upstream = grad[(0, 0)];
                    let n = targets.len() as f64;
                    let mut dl = Matrix::zeros(l.rows(), l.cols());
                    for (r, &t) in targets.iter().enumerate() {
                        let probs = softmax(l.row(r));
                        let out = dl.row_mut(r);
                        for (j, p) in probs.iter().enumerate() {
                            let indicator = if j == t { 1.0 } else { 0.0 };
                            out[j] = upstream * (p - indicator) / n;
                        }
                    }
                    self.nodes[logits].grad.add_scaled(&dl, 1.0);
                }
                Op::Sum(a) => {
                    let upstream = grad[(0, 0)];
                    let shape = self.nodes[a].value.shape();
                    let da = Matrix::filled(shape.0, shape.1, upstream);
                    self.nodes[a].grad.add_scaled(&da, 1.0);
                }
            }
        }
    }
}

fn gelu_derivative(x: f64) -> f64 {
    let c = (2.0 / std::f64::consts::PI).sqrt();
    let inner = c * (x + 0.044715 * x.powi(3));
    let t = inner.tanh();
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * c * (1.0 + 3.0 * 0.044715 * x * x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use holistix_linalg::Rng64;

    /// Numerically check d(loss)/d(param) for a scalar-producing forward function.
    fn finite_difference_check<F>(
        store: &mut ParamStore,
        param: ParamId,
        forward: F,
        tolerance: f64,
    ) where
        F: Fn(&mut Graph, &ParamStore) -> NodeId,
    {
        // Analytic gradient.
        store.zero_grads();
        let mut graph = Graph::new();
        let out = forward(&mut graph, store);
        graph.backward(out, store);
        let analytic = store.grad(param).clone();

        // Numeric gradient, element by element.
        let eps = 1e-5;
        let (rows, cols) = store.value(param).shape();
        for r in 0..rows {
            for c in 0..cols {
                let original = store.value(param)[(r, c)];
                store.value_mut(param)[(r, c)] = original + eps;
                let mut g_plus = Graph::new();
                let out_plus = forward(&mut g_plus, store);
                let f_plus = g_plus.scalar(out_plus);
                store.value_mut(param)[(r, c)] = original - eps;
                let mut g_minus = Graph::new();
                let out_minus = forward(&mut g_minus, store);
                let f_minus = g_minus.scalar(out_minus);
                store.value_mut(param)[(r, c)] = original;
                let numeric = (f_plus - f_minus) / (2.0 * eps);
                let diff = (analytic[(r, c)] - numeric).abs();
                let scale = analytic[(r, c)].abs().max(numeric.abs()).max(1.0);
                assert!(
                    diff / scale < tolerance,
                    "gradient mismatch at ({r},{c}): analytic {} vs numeric {}",
                    analytic[(r, c)],
                    numeric
                );
            }
        }
    }

    fn random_param(
        store: &mut ParamStore,
        name: &str,
        rows: usize,
        cols: usize,
        seed: u64,
    ) -> ParamId {
        let mut rng = Rng64::new(seed);
        let mut m = Matrix::zeros(rows, cols);
        for v in m.data_mut() {
            *v = rng.uniform(-1.0, 1.0);
        }
        store.add(name, m)
    }

    #[test]
    fn forward_values_match_manual_computation() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        let mut g = Graph::new();
        let x = g.constant(Matrix::from_rows(&[vec![1.0, 1.0]]));
        let wp = g.param(&store, w);
        let y = g.matmul(x, wp);
        assert_eq!(g.value(y).row(0), &[4.0, 6.0]);
        let s = g.sum(y);
        assert_eq!(g.scalar(s), 10.0);
    }

    #[test]
    fn matmul_gradient_matches_finite_differences() {
        let mut store = ParamStore::new();
        let w = random_param(&mut store, "w", 3, 4, 1);
        let x_data = {
            let mut rng = Rng64::new(2);
            let mut m = Matrix::zeros(2, 3);
            for v in m.data_mut() {
                *v = rng.uniform(-1.0, 1.0);
            }
            m
        };
        finite_difference_check(
            &mut store,
            w,
            |g, s| {
                let x = g.constant(x_data.clone());
                let wp = g.param(s, w);
                let y = g.matmul(x, wp);
                g.sum(y)
            },
            1e-5,
        );
    }

    #[test]
    fn activation_gradients_match_finite_differences() {
        for activation in ["relu", "gelu", "tanh"] {
            let mut store = ParamStore::new();
            let w = random_param(&mut store, "w", 2, 3, 7);
            finite_difference_check(
                &mut store,
                w,
                |g, s| {
                    let wp = g.param(s, w);
                    let y = match activation {
                        "relu" => g.relu(wp),
                        "gelu" => g.gelu(wp),
                        _ => g.tanh(wp),
                    };
                    // Square via hadamard to make the loss non-linear in the activation.
                    let y2 = g.mul(y, y);
                    g.sum(y2)
                },
                1e-4,
            );
        }
    }

    #[test]
    fn softmax_and_cross_entropy_gradients_match() {
        let mut store = ParamStore::new();
        let w = random_param(&mut store, "logits", 4, 3, 11);
        finite_difference_check(
            &mut store,
            w,
            |g, s| {
                let wp = g.param(s, w);
                g.cross_entropy(wp, &[0, 2, 1, 2])
            },
            1e-5,
        );
        // Softmax rows used standalone.
        let mut store2 = ParamStore::new();
        let w2 = random_param(&mut store2, "x", 2, 4, 13);
        finite_difference_check(
            &mut store2,
            w2,
            |g, s| {
                let wp = g.param(s, w2);
                let sm = g.softmax_rows(wp);
                let sq = g.mul(sm, sm);
                g.sum(sq)
            },
            1e-4,
        );
    }

    #[test]
    fn layer_norm_gradients_match() {
        let mut store = ParamStore::new();
        let x = random_param(&mut store, "x", 3, 5, 17);
        let gamma = store.add_filled("gamma", 1, 5, 1.0);
        let beta = store.add_zeros("beta", 1, 5);
        for target in [x, gamma, beta] {
            finite_difference_check(
                &mut store,
                target,
                |g, s| {
                    let xp = g.param(s, x);
                    let gp = g.param(s, gamma);
                    let bp = g.param(s, beta);
                    let y = g.layer_norm(xp, gp, bp, 1e-5);
                    let y2 = g.mul(y, y);
                    g.sum(y2)
                },
                1e-4,
            );
        }
    }

    #[test]
    fn gather_and_pooling_gradients_match() {
        let mut store = ParamStore::new();
        let table = random_param(&mut store, "emb", 6, 4, 19);
        finite_difference_check(
            &mut store,
            table,
            |g, s| {
                let t = g.param(s, table);
                let seq = g.gather(t, &[1, 3, 1, 5]);
                let pooled = g.mean_rows(seq);
                let sq = g.mul(pooled, pooled);
                g.sum(sq)
            },
            1e-5,
        );
    }

    #[test]
    fn broadcast_bias_and_row_select_gradients_match() {
        let mut store = ParamStore::new();
        let bias = random_param(&mut store, "b", 1, 4, 23);
        let x_data = {
            let mut rng = Rng64::new(29);
            let mut m = Matrix::zeros(3, 4);
            for v in m.data_mut() {
                *v = rng.uniform(-1.0, 1.0);
            }
            m
        };
        finite_difference_check(
            &mut store,
            bias,
            |g, s| {
                let x = g.constant(x_data.clone());
                let b = g.param(s, bias);
                let y = g.add_row_broadcast(x, b);
                let first = g.row_select(y, 1);
                let sq = g.mul(first, first);
                g.sum(sq)
            },
            1e-5,
        );
    }

    #[test]
    fn attention_like_composition_gradient_matches() {
        // A miniature attention block: softmax(Q K^T / sqrt(d)) V with shared weights,
        // exercising matmul, transpose, scale and softmax together.
        let mut store = ParamStore::new();
        let wq = random_param(&mut store, "wq", 4, 4, 31);
        let wk = random_param(&mut store, "wk", 4, 4, 37);
        let wv = random_param(&mut store, "wv", 4, 4, 41);
        let x_data = {
            let mut rng = Rng64::new(43);
            let mut m = Matrix::zeros(3, 4);
            for v in m.data_mut() {
                *v = rng.uniform(-1.0, 1.0);
            }
            m
        };
        for target in [wq, wk, wv] {
            finite_difference_check(
                &mut store,
                target,
                |g, s| {
                    let x = g.constant(x_data.clone());
                    let q = {
                        let w = g.param(s, wq);
                        g.matmul(x, w)
                    };
                    let k = {
                        let w = g.param(s, wk);
                        g.matmul(x, w)
                    };
                    let v = {
                        let w = g.param(s, wv);
                        g.matmul(x, w)
                    };
                    let kt = g.transpose(k);
                    let scores = g.matmul(q, kt);
                    let scaled = g.scale(scores, 0.5);
                    let attn = g.softmax_rows(scaled);
                    let out = g.matmul(attn, v);
                    let sq = g.mul(out, out);
                    g.sum(sq)
                },
                1e-4,
            );
        }
    }

    #[test]
    fn dropout_mask_scales_and_blocks_gradient() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::filled(1, 4, 2.0));
        let mut g = Graph::new();
        let wp = g.param(&store, w);
        // Noise chosen so elements 0,1 are kept (<0.5) and 2,3 dropped.
        let noise = Matrix::from_vec(1, 4, vec![0.1, 0.2, 0.9, 0.8]);
        let y = g.dropout(wp, &noise, 0.5);
        assert_eq!(g.value(y).row(0), &[4.0, 4.0, 0.0, 0.0]);
        let s = g.sum(y);
        g.backward(s, &mut store);
        assert_eq!(store.grad(w).row(0), &[2.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn gradients_accumulate_across_backward_calls() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::filled(1, 2, 1.0));
        for _ in 0..2 {
            let mut g = Graph::new();
            let wp = g.param(&store, w);
            let s = g.sum(wp);
            g.backward(s, &mut store);
        }
        assert_eq!(store.grad(w).row(0), &[2.0, 2.0]);
        store.zero_grads();
        assert_eq!(store.grad(w).row(0), &[0.0, 0.0]);
    }

    #[test]
    fn constants_receive_no_parameter_gradient() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::filled(1, 2, 1.0));
        let mut g = Graph::new();
        let c = g.constant(Matrix::filled(1, 2, 5.0));
        let wp = g.param(&store, w);
        let y = g.mul(c, wp);
        let s = g.sum(y);
        g.backward(s, &mut store);
        assert_eq!(store.grad(w).row(0), &[5.0, 5.0]);
        assert_eq!(store.len(), 1);
    }

    #[test]
    #[should_panic(expected = "must start from a scalar")]
    fn backward_from_non_scalar_panics() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::filled(2, 2, 1.0));
        let mut g = Graph::new();
        let wp = g.param(&store, w);
        g.backward(wp, &mut store);
    }

    #[test]
    #[should_panic(expected = "gather index")]
    fn gather_out_of_range_panics() {
        let mut store = ParamStore::new();
        let t = store.add("t", Matrix::zeros(3, 2));
        let mut g = Graph::new();
        let tp = g.param(&store, t);
        let _ = g.gather(tp, &[5]);
    }

    #[test]
    fn gather_param_gradient_matches_finite_differences() {
        let mut store = ParamStore::new();
        let table = random_param(&mut store, "emb", 6, 4, 47);
        finite_difference_check(
            &mut store,
            table,
            |g, s| {
                // Repeated indices exercise the fold-before-apply path.
                let seq = g.gather_param(s, table, &[1, 3, 1, 5, 3]);
                let pooled = g.mean_rows(seq);
                let sq = g.mul(pooled, pooled);
                g.sum(sq)
            },
            1e-5,
        );
    }

    #[test]
    fn gather_param_matches_dense_gather_bitwise() {
        // The sparse path must leave the store with *bit-identical* gradients to the
        // dense `param` + `gather` formulation, including across multiple sequences
        // in one graph and repeated token ids within a sequence.
        let sequences: [&[usize]; 3] = [&[1, 3, 1, 5], &[0, 0, 2], &[5, 4, 3, 2, 1]];
        let run = |sparse: bool| -> (Vec<Matrix>, Vec<f64>) {
            let mut store = ParamStore::new();
            let table = random_param(&mut store, "emb", 6, 4, 61);
            let proj = random_param(&mut store, "proj", 4, 2, 67);
            let mut g = Graph::new();
            let mut total: Option<NodeId> = None;
            for seq in sequences {
                let emb = if sparse {
                    g.gather_param(&store, table, seq)
                } else {
                    let t = g.param(&store, table);
                    g.gather(t, seq)
                };
                let p = g.param(&store, proj);
                let h = g.matmul(emb, p);
                let act = g.gelu(h);
                let pooled = g.mean_rows(act);
                let sq = g.mul(pooled, pooled);
                let s = g.sum(sq);
                total = Some(match total {
                    None => s,
                    Some(acc) => g.add(acc, s),
                });
            }
            let loss = total.unwrap();
            g.backward(loss, &mut store);
            let grads = vec![store.grad(table).clone(), store.grad(proj).clone()];
            (grads, vec![g.scalar(loss)])
        };
        let (dense_grads, dense_loss) = run(false);
        let (sparse_grads, sparse_loss) = run(true);
        assert_eq!(dense_loss, sparse_loss);
        for (d, s) in dense_grads.iter().zip(&sparse_grads) {
            assert_eq!(d.data(), s.data(), "store gradients must be bit-identical");
        }
    }

    #[test]
    fn gather_param_skips_untouched_rows() {
        // Rows never gathered must keep an exactly-zero gradient.
        let mut store = ParamStore::new();
        let table = random_param(&mut store, "emb", 8, 3, 71);
        let mut g = Graph::new();
        let seq = g.gather_param(&store, table, &[2, 2, 6]);
        let s = g.sum(seq);
        g.backward(s, &mut store);
        let grad = store.grad(table);
        for r in [0, 1, 3, 4, 5, 7] {
            assert!(grad.row(r).iter().all(|&v| v == 0.0), "row {r} touched");
        }
        assert_eq!(grad.row(2), &[2.0, 2.0, 2.0]);
        assert_eq!(grad.row(6), &[1.0, 1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "gather_param index")]
    fn gather_param_out_of_range_panics() {
        let mut store = ParamStore::new();
        let t = store.add("t", Matrix::zeros(3, 2));
        let mut g = Graph::new();
        let _ = g.gather_param(&store, t, &[5]);
    }
}
