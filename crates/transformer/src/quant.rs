//! Weight-only i8 quantized inference for fitted transformer classifiers.
//!
//! [`QuantizedTransformer`] is built by quantizing a fitted
//! [`TransformerClassifier`](crate::model::TransformerClassifier): every weight
//! matrix (embeddings, Q/K/V/O projections, feed-forward, bottleneck, head) is
//! stored as **per-output-row symmetric i8** with one f32 scale per row, activations
//! and accumulation run in f32, and f64 appears only at the final class-softmax
//! boundary.
//!
//! Per-row (rather than per-tensor) scaling is the right granularity here: the
//! Xavier-initialised projections drift apart per column during fine-tuning, so a
//! single tensor-wide absmax lets one outlier column crush the resolution of every
//! other row. Per-row scales cost `d_out` extra f32s per matrix — noise next to the
//! i8 payload — and keep the quantization error of each output coordinate
//! proportional to its own row's range.
//!
//! What stays f32 (unquantized): layer-norm gains/biases, additive biases and the
//! XLNet relative-position bias. They are `O(hidden)`-sized (the relative bias is
//! `max_len²`), so quantizing them saves almost nothing while directly injecting
//! error into the normalisation statistics.
//!
//! The i8 model runs the same graph-free forward as the f64 one
//! ([`crate::forward`], padded-tail skip included); this module supplies its
//! weight types and its f32 arithmetic. What it gains over the f64 model is
//! f32 dot products over eight independent accumulator lanes and a weight
//! working set about 8× smaller.
//!
//! The end-to-end probability drift versus the f64 path is bounded by
//! [`MAX_PROBABILITY_DRIFT`] (asserted in tests and in the `holistix-core`
//! equivalence suite; label agreement on the seeded Table IV task is exactly 100 %).

use crate::config::ModelConfig;
use crate::forward::{
    Attention, Embedding, FeedForward, Layer, LayerNorm, Linear, Scalar, StoreWeights, Weights,
};
use crate::model::{words, TransformerClassifier};
use holistix_linalg::Matrix;
use holistix_text::SubwordTokenizer;
use std::borrow::Cow;

/// Documented bound on `max |p_i8 - p_f64|` over class probabilities, for the
/// tiny-to-`Fast`-profile models this crate trains. Asserted by the equivalence
/// tests here and in `holistix-core`.
pub const MAX_PROBABILITY_DRIFT: f64 = 0.05;

/// A weight matrix quantized to per-output-row symmetric i8.
///
/// Stored transposed relative to the f64 graph convention: the source matrix maps
/// `d_in → d_out` as `x · W` with `W: d_in × d_out`; here row `j` holds the i8
/// weights of output `j` (`d_out × d_in`, row-major) so the inner product walks
/// contiguous memory.
#[derive(Debug, Clone)]
struct QuantLinear {
    out_dim: usize,
    in_dim: usize,
    weights: Vec<i8>,
    scales: Vec<f32>,
}

impl QuantLinear {
    /// Quantize a `d_in × d_out` f64 weight matrix.
    fn from_matrix(w: &Matrix) -> Self {
        let in_dim = w.rows();
        let out_dim = w.cols();
        let mut weights = vec![0i8; out_dim * in_dim];
        let mut scales = vec![0f32; out_dim];
        for j in 0..out_dim {
            let absmax = (0..in_dim).fold(0.0f64, |m, i| m.max(w[(i, j)].abs()));
            // An all-zero output row quantizes to zeros with any scale; 1.0 avoids
            // a 0/0 in the round.
            let scale = if absmax == 0.0 { 1.0 } else { absmax / 127.0 };
            scales[j] = scale as f32;
            for i in 0..in_dim {
                let q = (w[(i, j)] / scale).round().clamp(-127.0, 127.0);
                weights[j * in_dim + i] = q as i8;
            }
        }
        Self {
            out_dim,
            in_dim,
            weights,
            scales,
        }
    }

    /// `out = scale ⊙ (Q · x)`, accumulating in f32.
    ///
    /// Each output is a dot product; a single running accumulator would chain
    /// every FP add behind the previous one (one multiply-add per FP-add
    /// latency), so the loop runs eight independent lanes and folds them at
    /// the end — the same reassociation a SIMD reduction performs. The fold
    /// order differs from a sequential sum, which is fine: the i8 path is
    /// bounded by the probability-drift tests, not bit-identity.
    fn apply(&self, x: &[f32], out: &mut [f32]) {
        debug_assert_eq!(x.len(), self.in_dim);
        debug_assert_eq!(out.len(), self.out_dim);
        for (j, out_j) in out.iter_mut().enumerate() {
            let row = &self.weights[j * self.in_dim..(j + 1) * self.in_dim];
            let mut acc = [0.0f32; 8];
            let mut w8 = row.chunks_exact(8);
            let mut x8 = x.chunks_exact(8);
            for (w, v) in (&mut w8).zip(&mut x8) {
                for l in 0..8 {
                    acc[l] += w[l] as f32 * v[l];
                }
            }
            let mut total: f32 = acc.iter().sum();
            for (&q, &v) in w8.remainder().iter().zip(x8.remainder()) {
                total += q as f32 * v;
            }
            *out_j = total * self.scales[j];
        }
    }

    fn n_weights(&self) -> usize {
        self.weights.len()
    }
}

impl Linear<f32> for QuantLinear {
    fn apply_rows(&self, x: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; x.len() / self.in_dim * self.out_dim];
        for (row, out_row) in x
            .chunks_exact(self.in_dim)
            .zip(out.chunks_exact_mut(self.out_dim))
        {
            self.apply(row, out_row);
        }
        out
    }
}

/// An embedding table quantized to per-row symmetric i8 (one scale per vocabulary
/// row — the natural unit, since a lookup touches exactly one row).
#[derive(Debug, Clone)]
struct QuantEmbedding {
    cols: usize,
    weights: Vec<i8>,
    scales: Vec<f32>,
}

impl QuantEmbedding {
    fn from_matrix(w: &Matrix) -> Self {
        let (rows, cols) = w.shape();
        let mut weights = vec![0i8; rows * cols];
        let mut scales = vec![0f32; rows];
        for r in 0..rows {
            let row = w.row(r);
            let absmax = row.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
            let scale = if absmax == 0.0 { 1.0 } else { absmax / 127.0 };
            scales[r] = scale as f32;
            for (c, &v) in row.iter().enumerate() {
                weights[r * cols + c] = (v / scale).round().clamp(-127.0, 127.0) as i8;
            }
        }
        Self {
            cols,
            weights,
            scales,
        }
    }

    fn n_weights(&self) -> usize {
        self.weights.len()
    }
}

impl Embedding<f32> for QuantEmbedding {
    /// Dequantize row `r` into `out`.
    fn lookup(&self, r: usize, out: &mut [f32]) {
        let scale = self.scales[r];
        for (o, &q) in out
            .iter_mut()
            .zip(&self.weights[r * self.cols..(r + 1) * self.cols])
        {
            *o = q as f32 * scale;
        }
    }
}

/// The f32 arithmetic of the i8 model.
impl Scalar for f32 {
    fn from_f64(x: f64) -> f32 {
        x as f32
    }

    fn gelu(self) -> f32 {
        let x = self;
        0.5 * x * (1.0 + ((2.0 / std::f32::consts::PI).sqrt() * (x + 0.044_715 * x * x * x)).tanh())
    }

    fn softmax(row: &mut [f32]) {
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }

    fn layer_norm(row: &mut [f32], gamma: &[f32], beta: &[f32], eps: f32) {
        let dim = row.len();
        let mean = row.iter().sum::<f32>() / dim as f32;
        let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / dim as f32;
        let std = (var + eps).sqrt();
        for (j, v) in row.iter_mut().enumerate() {
            *v = (*v - mean) / std * gamma[j] + beta[j];
        }
    }

    fn scores(q: &[f32], k: &[f32], head_dim: usize) -> Vec<f32> {
        q.chunks_exact(head_dim)
            .flat_map(|qi| k.chunks_exact(head_dim).map(move |kj| dot_f32(qi, kj)))
            .collect()
    }
}

/// f32 dot product over eight independent accumulator lanes (see
/// [`QuantLinear::apply`] for why a single accumulator would serialize).
fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 8];
    let mut a8 = a.chunks_exact(8);
    let mut b8 = b.chunks_exact(8);
    for (x, y) in (&mut a8).zip(&mut b8) {
        for l in 0..8 {
            acc[l] += x[l] * y[l];
        }
    }
    let mut total: f32 = acc.iter().sum();
    for (x, y) in a8.remainder().iter().zip(b8.remainder()) {
        total += x * y;
    }
    total
}

/// The i8 model's weights: quantized matrices, f32 vectors.
type QuantWeights = Weights<'static, f32, QuantLinear, QuantEmbedding>;

fn vector(v: &[f64]) -> Cow<'static, [f32]> {
    Cow::Owned(v.iter().map(|&x| x as f32).collect())
}

fn layer_norm(ln: &LayerNorm<'_, f64>) -> LayerNorm<'static, f32> {
    LayerNorm {
        gamma: vector(&ln.gamma),
        beta: vector(&ln.beta),
        eps: ln.eps as f32,
    }
}

fn quantize(w: &StoreWeights<'_>) -> QuantWeights {
    let layers = w
        .layers
        .iter()
        .map(|layer| Layer {
            attention: Attention {
                heads: layer
                    .attention
                    .heads
                    .iter()
                    .map(|head| head.map(QuantLinear::from_matrix))
                    .collect(),
                bias: vector(&layer.attention.bias),
                relative_bias: layer.attention.relative_bias.as_deref().map(vector),
            },
            ln_attention: layer_norm(&layer.ln_attention),
            feed_forward: FeedForward {
                w1: QuantLinear::from_matrix(layer.feed_forward.w1),
                b1: vector(&layer.feed_forward.b1),
                w2: QuantLinear::from_matrix(layer.feed_forward.w2),
                b2: vector(&layer.feed_forward.b2),
            },
            ln_feed_forward: layer_norm(&layer.ln_feed_forward),
        })
        .collect();
    Weights {
        token_embedding: QuantEmbedding::from_matrix(w.token_embedding),
        position_embedding: QuantEmbedding::from_matrix(w.position_embedding),
        embedding_norm: layer_norm(&w.embedding_norm),
        layers,
        bottleneck: w
            .bottleneck
            .as_ref()
            .map(|(m, b)| (QuantLinear::from_matrix(m), vector(b))),
        head: QuantLinear::from_matrix(w.head),
        head_bias: vector(&w.head_bias),
    }
}

/// A fitted transformer classifier with i8-quantized weights, f32 activations and
/// f64 only at the class-softmax boundary. See the module docs for the scheme.
#[derive(Debug, Clone)]
pub struct QuantizedTransformer {
    config: ModelConfig,
    name: String,
    tokenizer: SubwordTokenizer,
    weights: QuantWeights,
}

impl QuantizedTransformer {
    /// Quantize a fitted classifier. The original model is left untouched.
    pub fn from_classifier(model: &TransformerClassifier) -> Self {
        Self {
            weights: quantize(&model.weights()),
            name: format!("{}-i8", model.name()),
            tokenizer: model.tokenizer().clone(),
            config: model.config().clone(),
        }
    }

    /// The model's display name (`<original>-i8`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The architecture configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Number of i8-quantized scalar weights.
    pub fn n_quantized_weights(&self) -> usize {
        let w = &self.weights;
        let mut n =
            w.token_embedding.n_weights() + w.position_embedding.n_weights() + w.head.n_weights();
        for layer in &w.layers {
            n += layer
                .attention
                .heads
                .iter()
                .flatten()
                .map(QuantLinear::n_weights)
                .sum::<usize>();
            n += layer.feed_forward.w1.n_weights() + layer.feed_forward.w2.n_weights();
        }
        if let Some((b, _)) = &w.bottleneck {
            n += b.n_weights();
        }
        n
    }

    /// Class-probability vector for a raw text (f64 only at this softmax).
    pub fn predict_proba_text(&self, text: &str) -> Vec<f64> {
        let tokens = self
            .tokenizer
            .encode_for_classification(&words(text), self.config.max_len);
        self.weights
            .probabilities(&self.config, &tokens, self.tokenizer.pad_id())
    }

    /// Class-probability vectors for a batch of texts, one row per text.
    pub fn predict_proba_texts(&self, texts: &[&str]) -> Vec<Vec<f64>> {
        texts.iter().map(|t| self.predict_proba_text(t)).collect()
    }

    /// Hard prediction for a raw text.
    pub fn predict_text(&self, text: &str) -> usize {
        holistix_linalg::argmax(&self.predict_proba_text(text)).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelKind;
    use crate::pretrain::PretrainConfig;
    use crate::trainer::{FineTuneConfig, Trainer};

    fn tiny_task() -> (Vec<&'static str>, Vec<usize>) {
        let texts = vec![
            "my job drains me and the money is gone",
            "work deadlines and my boss are crushing me",
            "i lost my job and cannot pay rent",
            "unemployed again and the career feels over",
            "my salary is tiny and the bills keep coming",
            "work is exhausting and the money never lasts",
            "i feel alone and my friends ignore me",
            "nobody talks to me and i feel invisible",
            "my relationship ended and i am so lonely",
            "i have no friends and feel excluded",
            "everyone left me and i feel isolated",
            "my family ignores me and i feel alone",
        ];
        let labels = vec![1, 1, 1, 1, 1, 1, 4, 4, 4, 4, 4, 4];
        (texts, labels)
    }

    fn fitted(kind: ModelKind, seed: u64) -> Trainer {
        let (texts, labels) = tiny_task();
        let mut model = crate::config::ModelConfig::for_kind(kind, 6);
        model.hidden_dim = 16;
        model.n_heads = 2;
        model.ff_dim = 32;
        model.max_len = 12;
        model.dropout = 0.0;
        let finetune = FineTuneConfig {
            learning_rate: 3e-3,
            batch_size: 4,
            epochs: 12,
            subword_vocab_size: 300,
            seed,
            ..FineTuneConfig::default()
        };
        let mut trainer = Trainer::new(kind, model, finetune);
        trainer.fit(&texts, &labels);
        trainer
    }

    #[test]
    fn quantized_probabilities_stay_within_drift_bound() {
        // Cover all attention patterns, poolings and the bottleneck head.
        for kind in [
            ModelKind::MentalBert,
            ModelKind::FlanT5,
            ModelKind::Gpt2,
            ModelKind::Xlnet,
        ] {
            let trainer = fitted(kind, 3);
            let model = trainer.model().unwrap();
            let quant = QuantizedTransformer::from_classifier(model);
            let (texts, _) = tiny_task();
            for text in texts {
                let exact = model.predict_proba_text(text);
                let approx = quant.predict_proba_text(text);
                assert_eq!(approx.len(), 6);
                assert!((approx.iter().sum::<f64>() - 1.0).abs() < 1e-6);
                let drift = exact
                    .iter()
                    .zip(&approx)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max);
                assert!(
                    drift <= MAX_PROBABILITY_DRIFT,
                    "{kind:?} drift {drift} over bound for {text:?}"
                );
            }
        }
    }

    #[test]
    fn quantized_labels_agree_on_the_seeded_task() {
        let trainer = fitted(ModelKind::MentalBert, 3);
        let model = trainer.model().unwrap();
        let quant = QuantizedTransformer::from_classifier(model);
        let (texts, _) = tiny_task();
        for text in texts {
            assert_eq!(
                model.predict_text(text),
                quant.predict_text(text),
                "label flipped for {text:?}"
            );
        }
    }

    #[test]
    fn quantization_survives_a_pretrained_model() {
        let (texts, labels) = tiny_task();
        let mut model = crate::config::ModelConfig::for_kind(ModelKind::MentalBert, 6);
        model.hidden_dim = 16;
        model.n_heads = 2;
        model.ff_dim = 32;
        model.max_len = 12;
        model.dropout = 0.0;
        let finetune = FineTuneConfig {
            learning_rate: 3e-3,
            batch_size: 4,
            epochs: 6,
            subword_vocab_size: 300,
            pretrain: Some(PretrainConfig {
                epochs: 1,
                max_sequences: Some(8),
                ..PretrainConfig::in_domain()
            }),
            seed: 5,
            ..FineTuneConfig::default()
        };
        let mut trainer = Trainer::new(ModelKind::MentalBert, model, finetune);
        trainer.fit(&texts, &labels);
        let quant = QuantizedTransformer::from_classifier(trainer.model().unwrap());
        let proba = quant.predict_proba_text(texts[0]);
        assert_eq!(proba.len(), 6);
        assert!(proba.iter().all(|p| p.is_finite()));
        assert!(quant.n_quantized_weights() > 0);
        assert!(quant.name().ends_with("-i8"));
    }
}
