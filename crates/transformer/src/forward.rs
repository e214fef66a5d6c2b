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
//! Each sequence is scored alone with its padded tail dropped, which changes
//! no bit: padding is always a suffix, a masked key's softmax weight is
//! exactly zero (`exp(-1e9)` underflows), [`matmul_accumulate`] skips zero
//! weights and every pooling mode ignores pads.

use crate::attention::MASK_VALUE;
use crate::config::{AttentionKind, ModelConfig, Pooling};
use holistix_linalg::ops::{add_row_broadcast, gelu, layer_norm_in_place, softmax_in_place};
use holistix_linalg::{matmul_accumulate, softmax, Matrix};
use std::borrow::Cow;
use std::ops::{Add, AddAssign, Div, Mul};

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

/// The `n × n` attention scores `q · kᵀ` of one head, as the tape's
/// `matmul(q, transpose(k))`; `q` and `k` are `n × head_dim`, row-major.
fn scores<S: Scalar>(q: &[S], k: &[S], head_dim: usize) -> Vec<S> {
    let n = k.len() / head_dim;
    let mut kt = vec![S::default(); k.len()];
    for (j, row) in k.chunks_exact(head_dim).enumerate() {
        for (d, &v) in row.iter().enumerate() {
            kt[d * n + j] = v;
        }
    }
    let mut out = vec![S::default(); n * n];
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
    /// Attend over the `n` rows of `x` (`n × hidden`).
    fn forward(&self, config: &ModelConfig, x: &[S]) -> Vec<S> {
        let n = x.len() / config.hidden_dim;
        let head_dim = config.head_dim();
        let scale = S::from_f64(1.0 / (head_dim as f64).sqrt());
        let causal = config.attention == AttentionKind::Causal;
        let heads = self.heads.iter().map(|[wq, wk, wv, wo]| {
            let mut weights = scores(&wq.apply_rows(x), &wk.apply_rows(x), head_dim);
            for (i, row) in weights.chunks_exact_mut(n).enumerate() {
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
            let mut context = vec![S::default(); n * head_dim];
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
    /// `x ← LN(x + Attn(x)); x ← LN(x + FFN(x))`.
    fn forward(&self, config: &ModelConfig, x: &[S]) -> Vec<S> {
        let mut normed = self.attention.forward(config, x);
        add_into(x, &mut normed);
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
    /// sequence must start with a real token, as every encoding does.
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
        for layer in &self.layers {
            x = layer.forward(config, &x);
        }
        let mut pooled = match config.pooling {
            Pooling::Cls => x[..hidden].to_vec(),
            Pooling::LastToken => x[(n - 1) * hidden..].to_vec(),
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
