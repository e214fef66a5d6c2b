//! The inference forward: one graph-free pass shared by the f64 classifier and
//! its i8 sibling. The autograd tape (`holistix-tensor`'s `Graph`) is for
//! training; this forward builds no graph, allocates no gradient buffers and
//! reads the weights where they live. It is generic over the activation
//! [`Scalar`] (f64, or f32 for the i8 model) and over the weight types (a
//! `&Matrix` borrowed from the `ParamStore`, or i8 `QuantLinear` and
//! `QuantEmbedding`). The f64 per-scalar ops are the functions the tape's ops
//! compute their values with, run in the tape's order, so the f64 forward is
//! bit-identical to `softmax(forward_logits(..))`.
//!
//! Each sequence is scored alone, and the forward skips two sets of rows that
//! the tape computes, neither of which changes a bit of the answer:
//!
//! * **The padded tail.** Padding is always a suffix, a masked key's softmax
//!   weight is exactly zero (`exp(-1e9)` underflows), [`matmul_accumulate`]
//!   skips zero weights and every pooling mode ignores pads.
//! * **The last layer's unpooled rows.** Past the key and value projections,
//!   every op of a layer is row-wise: a query row's scores, softmax,
//!   context, output projection, residuals, layer norms and feed-forward
//!   block read only that row and the shared keys and values, summed in the
//!   same [`matmul_accumulate`] order whatever rows are computed beside it.
//!   So the last layer produces only the rows its pooling reads (the first
//!   for CLS, the last for last-token, all of them for mean); every earlier
//!   layer produces all rows, because the next layer's keys and values read
//!   them.

use crate::attention::MASK_VALUE;
use crate::config::{AttentionKind, ModelConfig, Pooling};
use holistix_linalg::ops::{add_row_broadcast, gelu, layer_norm_in_place, softmax_in_place};
use holistix_linalg::{matmul_accumulate, softmax, Matrix};
use std::borrow::Cow;
use std::ops::{Add, AddAssign, Div, Mul, Range};

/// The activation scalar: its per-scalar ops (GELU, softmax, layer norm) are
/// the only arithmetic that differs between the f64 and the f32 forward;
/// every product runs through [`matmul_accumulate`] for both.
pub(crate) trait Scalar:
    Copy
    + Default
    + PartialEq
    + Add<Output = Self>
    + AddAssign
    + Mul<Output = Self>
    + Div<Output = Self>
    + Into<f64>
{
    fn from_f64(x: f64) -> Self;
    fn gelu(self) -> Self;
    fn softmax(row: &mut [Self]);
    fn layer_norm(row: &mut [Self], gamma: &[Self], beta: &[Self], eps: Self);
}

impl Scalar for f64 {
    fn from_f64(x: f64) -> f64 {
        x
    }

    fn gelu(self) -> f64 {
        gelu(self)
    }

    fn softmax(row: &mut [f64]) {
        softmax_in_place(row);
    }

    fn layer_norm(row: &mut [f64], gamma: &[f64], beta: &[f64], eps: f64) {
        layer_norm_in_place(row, gamma, beta, eps);
    }
}

/// The `rows × n` attention scores `q · kᵀ` of one head, as the tape's
/// `matmul(q, transpose(k))`; `q` is `rows × head_dim` and `k` is
/// `n × head_dim`, row-major.
fn scores<S: Scalar>(q: &[S], k: &[S], head_dim: usize) -> Vec<S> {
    let n = k.len() / head_dim;
    let mut kt = vec![S::default(); k.len()];
    for (j, row) in k.chunks_exact(head_dim).enumerate() {
        for (d, &v) in row.iter().enumerate() {
            kt[d * n + j] = v;
        }
    }
    let mut out = vec![S::default(); q.len() / head_dim * n];
    matmul_accumulate(q, head_dim, &kt, n, &mut out);
    out
}

/// A linear layer: `x · W` for every row of `x`.
pub(crate) trait Linear<S> {
    /// `x` is `n × d_in`, row-major; the result is `n × d_out`.
    fn apply_rows(&self, x: &[S]) -> Vec<S>;
}

/// A `d_in × d_out` weight read in place, through the tape's matmul loop.
impl Linear<f64> for &Matrix {
    fn apply_rows(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; x.len() / self.rows() * self.cols()];
        matmul_accumulate(x, self.rows(), self.data(), self.cols(), &mut out);
        out
    }
}

/// An embedding table.
pub(crate) trait Embedding<S> {
    /// Write row `row` of the table into `out`.
    fn lookup(&self, row: usize, out: &mut [S]);
}

impl Embedding<f64> for &Matrix {
    fn lookup(&self, row: usize, out: &mut [f64]) {
        out.copy_from_slice(self.row(row));
    }
}

/// Layer-norm gain, bias and epsilon.
#[derive(Debug, Clone)]
pub(crate) struct LayerNorm<'a, S: Clone> {
    pub(crate) gamma: Cow<'a, [S]>,
    pub(crate) beta: Cow<'a, [S]>,
    pub(crate) eps: S,
}

impl<S: Scalar> LayerNorm<'_, S> {
    /// Normalise every row of `x` in place.
    fn apply(&self, x: &mut [S]) {
        for row in x.chunks_exact_mut(self.gamma.len()) {
            S::layer_norm(row, &self.gamma, &self.beta, self.eps);
        }
    }
}

/// Multi-head self-attention: per head the Q, K, V and output projections,
/// then the output bias and, for XLNet, the `max_len × max_len` relative
/// position bias (row-major).
#[derive(Debug, Clone)]
pub(crate) struct Attention<'a, S: Clone, L> {
    pub(crate) heads: Vec<[L; 4]>,
    pub(crate) bias: Cow<'a, [S]>,
    pub(crate) relative_bias: Option<Cow<'a, [S]>>,
}

impl<S: Scalar, L: Linear<S>> Attention<'_, S, L> {
    /// Attend from the query rows `rows` of `x` (`n × hidden`) over all `n`
    /// rows; the result holds the queried rows only (`rows.len() × hidden`).
    /// Keys and values are projected from every row, and a query row's
    /// causal mask and relative bias are those of its absolute position.
    fn forward(&self, config: &ModelConfig, x: &[S], rows: Range<usize>) -> Vec<S> {
        let hidden = config.hidden_dim;
        let n = x.len() / hidden;
        let queries = &x[rows.start * hidden..rows.end * hidden];
        let head_dim = config.head_dim();
        let scale = S::from_f64(1.0 / (head_dim as f64).sqrt());
        let causal = config.attention == AttentionKind::Causal;
        let heads = self.heads.iter().map(|[wq, wk, wv, wo]| {
            let mut weights = scores(&wq.apply_rows(queries), &wk.apply_rows(x), head_dim);
            for (i, row) in rows.clone().zip(weights.chunks_exact_mut(n)) {
                for (j, s) in row.iter_mut().enumerate() {
                    *s = *s * scale;
                    if let Some(relative) = &self.relative_bias {
                        *s += relative[i * config.max_len + j];
                    }
                    if causal && j > i {
                        *s += S::from_f64(MASK_VALUE);
                    }
                }
                S::softmax(row);
            }
            let mut context = vec![S::default(); rows.len() * head_dim];
            matmul_accumulate(&weights, n, &wv.apply_rows(x), head_dim, &mut context);
            wo.apply_rows(&context)
        });
        let mut out = heads
            .reduce(|mut sum, projected| {
                add_into(&projected, &mut sum);
                sum
            })
            .expect("attention block must have at least one head");
        add_row_broadcast(&mut out, &self.bias);
        out
    }
}

/// Position-wise feed-forward block: `GELU(x W1 + b1) W2 + b2`.
#[derive(Debug, Clone)]
pub(crate) struct FeedForward<'a, S: Clone, L> {
    pub(crate) w1: L,
    pub(crate) b1: Cow<'a, [S]>,
    pub(crate) w2: L,
    pub(crate) b2: Cow<'a, [S]>,
}

impl<S: Scalar, L: Linear<S>> FeedForward<'_, S, L> {
    fn forward(&self, x: &[S]) -> Vec<S> {
        let mut h = self.w1.apply_rows(x);
        add_row_broadcast(&mut h, &self.b1);
        for v in &mut h {
            *v = v.gelu();
        }
        let mut out = self.w2.apply_rows(&h);
        add_row_broadcast(&mut out, &self.b2);
        out
    }
}

/// One encoder layer with post-layer-norm residuals.
#[derive(Debug, Clone)]
pub(crate) struct Layer<'a, S: Clone, L> {
    pub(crate) attention: Attention<'a, S, L>,
    pub(crate) ln_attention: LayerNorm<'a, S>,
    pub(crate) feed_forward: FeedForward<'a, S, L>,
    pub(crate) ln_feed_forward: LayerNorm<'a, S>,
}

impl<S: Scalar, L: Linear<S>> Layer<'_, S, L> {
    /// `x ← LN(x + Attn(x)); x ← LN(x + FFN(x))` for the rows `rows` of `x`
    /// (`n × hidden`), attending over all `n`; returns those rows only.
    fn forward(&self, config: &ModelConfig, x: &[S], rows: Range<usize>) -> Vec<S> {
        let hidden = config.hidden_dim;
        let residual = &x[rows.start * hidden..rows.end * hidden];
        let mut normed = self.attention.forward(config, x, rows);
        add_into(residual, &mut normed);
        self.ln_attention.apply(&mut normed);
        let mut out = self.feed_forward.forward(&normed);
        add_into(&normed, &mut out);
        self.ln_feed_forward.apply(&mut out);
        out
    }
}

/// `out ← x + out`, elementwise.
fn add_into<S: Scalar>(x: &[S], out: &mut [S]) {
    for (o, &v) in out.iter_mut().zip(x) {
        *o = v + *o;
    }
}

/// A classifier's weights in the form the forward reads: the f64 model
/// borrows them from its `ParamStore` per call, the i8 model owns its
/// quantized copy.
#[derive(Debug, Clone)]
pub(crate) struct Weights<'a, S: Clone, L, E> {
    pub(crate) token_embedding: E,
    pub(crate) position_embedding: E,
    pub(crate) embedding_norm: LayerNorm<'a, S>,
    pub(crate) layers: Vec<Layer<'a, S, L>>,
    /// The GELU bottleneck before the head (Flan-T5).
    pub(crate) bottleneck: Option<(L, Cow<'a, [S]>)>,
    pub(crate) head: L,
    pub(crate) head_bias: Cow<'a, [S]>,
}

/// The f64 classifier's weights, borrowed from its `ParamStore`.
pub(crate) type StoreWeights<'a> = Weights<'a, f64, &'a Matrix, &'a Matrix>;

impl<S: Scalar, L: Linear<S>, E: Embedding<S>> Weights<'_, S, L, E> {
    /// Class probabilities for one encoded, `max_len`-padded sequence. The
    /// sequence must start with a real token, as every encoding does. Only
    /// its `n` real tokens are embedded; every layer but the last produces
    /// all `n` rows, and the last only the rows the pooling reads: row 0
    /// for CLS, row `n − 1` for last-token, all `n` for mean pooling.
    pub(crate) fn probabilities(
        &self,
        config: &ModelConfig,
        tokens: &[usize],
        pad_id: usize,
    ) -> Vec<f64> {
        let n = tokens
            .iter()
            .position(|&t| t == pad_id)
            .unwrap_or(tokens.len());
        let hidden = config.hidden_dim;
        let mut x = vec![S::default(); n * hidden];
        let mut position = vec![S::default(); hidden];
        for (i, (row, &token)) in x.chunks_exact_mut(hidden).zip(tokens).enumerate() {
            self.token_embedding.lookup(token, row);
            self.position_embedding.lookup(i, &mut position);
            for (v, &p) in row.iter_mut().zip(&position) {
                *v += p;
            }
        }
        self.embedding_norm.apply(&mut x);
        let (last, layers) = self
            .layers
            .split_last()
            .expect("an encoder has at least one layer");
        for layer in layers {
            x = layer.forward(config, &x, 0..n);
        }
        let pooled_rows = match config.pooling {
            Pooling::Cls => 0..1,
            Pooling::LastToken => n - 1..n,
            Pooling::Mean => 0..n,
        };
        x = last.forward(config, &x, pooled_rows);
        let mut pooled = match config.pooling {
            // The last layer produced the pooled row alone.
            Pooling::Cls | Pooling::LastToken => x,
            Pooling::Mean => {
                let mut sum = vec![S::default(); hidden];
                for row in x.chunks_exact(hidden) {
                    for (s, &v) in sum.iter_mut().zip(row) {
                        *s += v;
                    }
                }
                let count = S::from_f64(n as f64);
                sum.into_iter().map(|s| s / count).collect()
            }
        };
        if let Some((w, b)) = &self.bottleneck {
            pooled = w.apply_rows(&pooled);
            add_row_broadcast(&mut pooled, b);
            for v in &mut pooled {
                *v = v.gelu();
            }
        }
        let mut logits = self.head.apply_rows(&pooled);
        add_row_broadcast(&mut logits, &self.head_bias);
        softmax(&logits.into_iter().map(Into::into).collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelKind;
    use crate::model::TransformerClassifier;
    use crate::quant::quantize;
    use holistix_linalg::Rng64;
    use holistix_text::SubwordVocabBuilder;

    /// An untrained model with every parameter drawn at random, so biases,
    /// layer-norm gains and the relative bias are all nonzero.
    fn random_model(kind: ModelKind) -> TransformerClassifier {
        let mut builder = SubwordVocabBuilder::new(60);
        builder.add_words(&["i", "feel", "alone", "and", "tired"]);
        let mut config = ModelConfig::for_kind(kind, 6);
        config.hidden_dim = 8;
        config.n_heads = 2;
        config.ff_dim = 16;
        config.max_len = 10;
        let mut model = TransformerClassifier::new(config, kind.name(), builder.build(), 3);
        let mut rng = Rng64::new(kind as u64 + 1);
        for id in model.store().ids() {
            for v in model.store_mut().value_mut(id).data_mut() {
                *v = rng.uniform(-1.0, 1.0);
            }
        }
        model
    }

    /// For every layer, every `n` up to `max_len` and every row `r` of a
    /// random `n × hidden` input, the layer run for `r..r + 1` yields row `r`
    /// of its run for `0..n`, bit for bit.
    fn assert_rows_are_independent<S: Scalar, L: Linear<S>, E>(
        label: &str,
        weights: &Weights<'_, S, L, E>,
        config: &ModelConfig,
        rng: &mut Rng64,
    ) {
        let hidden = config.hidden_dim;
        let bits = |rows: &[S]| -> Vec<u64> {
            rows.iter()
                .map(|&v| Into::<f64>::into(v).to_bits())
                .collect()
        };
        for (l, layer) in weights.layers.iter().enumerate() {
            for n in 1..=config.max_len {
                let x: Vec<S> = (0..n * hidden)
                    .map(|_| S::from_f64(rng.uniform(-2.0, 2.0)))
                    .collect();
                let all = layer.forward(config, &x, 0..n);
                assert_eq!(all.len(), n * hidden);
                for r in 0..n {
                    assert_eq!(
                        bits(&layer.forward(config, &x, r..r + 1)),
                        bits(&all[r * hidden..(r + 1) * hidden]),
                        "{label}: layer {l}, n = {n}, row {r}"
                    );
                }
            }
        }
    }

    /// The last layer runs for the pooled row only, which is exact because
    /// each output row of a layer depends on its own row and the shared
    /// keys and values alone. The causal mask and the relative bias are
    /// indexed by the absolute row. Only GPT-2, which has no relative bias,
    /// asks a layer for rows that start past 0 (XLNet pools CLS), so this is
    /// the only test that reads the relative bias for such a range.
    #[test]
    fn every_layer_computes_each_row_independently() {
        for kind in [
            ModelKind::Bert,   // bidirectional
            ModelKind::Gpt2,   // causal
            ModelKind::Xlnet,  // relative position bias
            ModelKind::FlanT5, // mean pooling, every row pooled
        ] {
            let model = random_model(kind);
            let weights = model.weights();
            let mut rng = Rng64::new(kind as u64);
            assert_rows_are_independent(
                &format!("{kind:?} f64"),
                &weights,
                model.config(),
                &mut rng,
            );
            assert_rows_are_independent(
                &format!("{kind:?} i8"),
                &quantize(&weights),
                model.config(),
                &mut rng,
            );
        }
    }
}
