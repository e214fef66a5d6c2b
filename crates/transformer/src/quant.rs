//! Weight-only i8 quantized inference for fitted transformer classifiers.
//!
//! [`QuantizedTransformer`] is built by quantizing a fitted
//! [`TransformerClassifier`]: every weight
//! matrix (embeddings, Q/K/V/O projections, feed-forward, bottleneck, head) is
//! stored as **per-output symmetric i8** with one f32 scale per output,
//! activations and accumulation run in f32, and f64 appears only at the final
//! class-softmax boundary.
//!
//! Per-output (rather than per-tensor) scaling is the right grain here:
//! the Xavier-initialised projections drift apart per output column during
//! fine-tuning, so a single tensor-wide absmax lets one outlier column crush
//! the resolution of every other one. Per-output scales cost `d_out` extra f32s
//! per matrix — noise next to the i8 payload — and keep the quantization error
//! of each output coordinate proportional to its own column's range.
//!
//! What stays f32 (unquantized): layer-norm gains/biases, additive biases and the
//! XLNet relative-position bias. They are `O(hidden)`-sized (the relative bias is
//! `max_len²`), so quantizing them saves almost nothing while directly injecting
//! error into the normalisation statistics.
//!
//! The i8 model runs the same graph-free forward as the f64 one
//! (the private `forward` module), so it too skips the padded tail and the last
//! layer's unpooled rows; this module supplies its weight types and its f32
//! arithmetic. Its matrices keep the f64 graph's `d_in × d_out` layout, so
//! every product runs the same i-k-j loop (`matmul_accumulate`) in f32 over
//! the i8 matrix widened once per call: what i8 buys is a weight store 8×
//! smaller than f64's, on a loop that vectorizes twice as many f32 lanes per
//! instruction, and a GELU whose tanh costs one `expf`.
//!
//! The end-to-end probability drift versus the f64 path is bounded by
//! [`MAX_PROBABILITY_DRIFT`] (asserted in tests and in the `holistix-core`
//! equivalence suite; label agreement on the seeded Table IV task is exactly 100 %).

use crate::config::ModelConfig;
use crate::forward::{
    Attention, Embedding, FeedForward, Layer, LayerNorm, Linear, Scalar, StoreWeights, Weights,
};
use crate::model::{words, TransformerClassifier};
use holistix_linalg::{matmul_accumulate, Matrix};
use holistix_text::SubwordTokenizer;
use std::borrow::Cow;

/// Documented bound on `max |p_i8 - p_f64|` over class probabilities, for the
/// tiny-to-`Fast`-profile models this crate trains. Asserted by the equivalence
/// tests here and in `holistix-core`.
pub const MAX_PROBABILITY_DRIFT: f64 = 0.05;

/// A weight matrix quantized to per-output symmetric i8.
///
/// Kept in the f64 graph's own layout: the source maps `d_in → d_out` as
/// `x · W` with `W: d_in × d_out`, and `weights` holds the rounded
/// `W[i][j] / scales[j]` row-major in that same shape, one absmax/127 scale
/// per output column `j`.
#[derive(Debug, Clone)]
pub(crate) struct QuantLinear {
    in_dim: usize,
    weights: Vec<i8>,
    scales: Vec<f32>,
}

impl QuantLinear {
    /// Quantize a `d_in × d_out` f64 weight matrix.
    fn from_matrix(w: &Matrix) -> Self {
        let (in_dim, out_dim) = w.shape();
        let scales: Vec<f64> = (0..out_dim)
            .map(|j| {
                let absmax = (0..in_dim).fold(0.0f64, |m, i| m.max(w[(i, j)].abs()));
                // An all-zero output column quantizes to zeros with any
                // scale; 1.0 avoids a 0/0 in the round.
                if absmax == 0.0 {
                    1.0
                } else {
                    absmax / 127.0
                }
            })
            .collect();
        // Row-major, so entry `k` lies in column `k % out_dim`.
        let weights = w
            .data()
            .iter()
            .zip(scales.iter().cycle())
            .map(|(&v, &scale)| (v / scale).round().clamp(-127.0, 127.0) as i8)
            .collect();
        Self {
            in_dim,
            weights,
            scales: scales.iter().map(|&s| s as f32).collect(),
        }
    }

    fn n_weights(&self) -> usize {
        self.weights.len()
    }
}

impl Linear<f32> for QuantLinear {
    /// `(x · Q) ⊙ scale`: the i8 matrix is widened to f32 once per call and
    /// multiplied through the f64 forward's i-k-j loop, whose contiguous
    /// inner loop the compiler vectorizes; each output column is scaled
    /// after its sum. Rounding to i8 and summing in f32 move the result off
    /// the f64 model's, which is fine: the i8 path is bounded by the
    /// probability-drift tests, not bit-identity.
    fn apply_rows(&self, x: &[f32]) -> Vec<f32> {
        let out_dim = self.scales.len();
        let widened: Vec<f32> = self.weights.iter().map(|&q| f32::from(q)).collect();
        let mut out = vec![0.0f32; x.len() / self.in_dim * out_dim];
        matmul_accumulate(x, self.in_dim, &widened, out_dim, &mut out);
        for row in out.chunks_exact_mut(out_dim) {
            for (o, &scale) in row.iter_mut().zip(&self.scales) {
                *o *= scale;
            }
        }
        out
    }
}

/// An embedding table quantized to per-row symmetric i8 (one scale per vocabulary
/// row — the natural unit, since a lookup touches exactly one row).
#[derive(Debug, Clone)]
pub(crate) struct QuantEmbedding {
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
        0.5 * x * (1.0 + tanh((2.0 / std::f32::consts::PI).sqrt() * (x + 0.044_715 * x * x * x)))
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
}

/// `tanh(u) = 1 − 2/(exp(2u) + 1)`: one `expf`, several times cheaper than
/// libm's `tanhf`, within 5e-7 of the exact value, and exactly ±1 once
/// `exp(2u)` overflows to ∞ or underflows to 0.
fn tanh(u: f32) -> f32 {
    1.0 - 2.0 / ((2.0 * u).exp() + 1.0)
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

pub(crate) fn quantize(w: &StoreWeights<'_>) -> QuantWeights {
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
    use holistix_linalg::Rng64;

    #[test]
    fn apply_rows_matches_the_dequantized_f64_product() {
        // Shapes off the vectorizer's lane multiples, an all-zero output
        // column (the scale = 1.0 branch) and zero inputs (the zero skip).
        for (in_dim, out_dim, zero_col) in [(1, 1, None), (3, 5, Some(2)), (13, 7, Some(0))] {
            let mut rng = Rng64::new(in_dim as u64);
            let mut w = Matrix::zeros(in_dim, out_dim);
            for i in 0..in_dim {
                for j in (0..out_dim).filter(|&j| zero_col != Some(j)) {
                    w[(i, j)] = rng.uniform(-2.0, 2.0);
                }
            }
            let quant = QuantLinear::from_matrix(&w);
            let dequantized = |i: usize, j: usize| {
                f64::from(quant.weights[i * out_dim + j]) * f64::from(quant.scales[j])
            };
            for i in 0..in_dim {
                for j in 0..out_dim {
                    let step = f64::from(quant.scales[j]);
                    assert!((dequantized(i, j) - w[(i, j)]).abs() <= step * 0.501);
                }
            }
            if let Some(j) = zero_col {
                assert_eq!(quant.scales[j], 1.0);
            }

            let n = 4;
            let mut x: Vec<f32> = (0..n * in_dim)
                .map(|_| rng.uniform(-3.0, 3.0) as f32)
                .collect();
            x[in_dim..2 * in_dim].fill(0.0);
            x[0] = 0.0;
            let got = quant.apply_rows(&x);
            assert_eq!(got.len(), n * out_dim);
            for (r, row) in x.chunks_exact(in_dim).enumerate() {
                for j in 0..out_dim {
                    let terms = row
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| f64::from(v) * dequantized(i, j));
                    let want: f64 = terms.clone().sum();
                    let magnitude: f64 = terms.map(f64::abs).sum();
                    let tolerance = (in_dim as f64 + 2.0) * f64::from(f32::EPSILON) * magnitude;
                    let got = f64::from(got[r * out_dim + j]);
                    assert!(
                        (got - want).abs() <= tolerance,
                        "{in_dim}x{out_dim} row {r} col {j}: {got} vs {want}"
                    );
                    if r == 1 || zero_col == Some(j) {
                        assert_eq!(got, 0.0);
                    }
                }
            }
        }
    }

    #[test]
    fn gelu_tanh_matches_f64_tanh() {
        let steps = 240_000;
        for k in 0..=steps {
            let u = (-12.0 + 24.0 * k as f64 / steps as f64) as f32;
            let error = (f64::from(tanh(u)) - f64::from(u).tanh()).abs();
            assert!(error <= 5e-7, "tanh({u}) off by {error}");
        }
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        assert!(tanh(f32::NAN).is_nan());
    }

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
