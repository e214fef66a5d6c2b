//! Encoder building blocks: feed-forward networks, layer-norm parameter bundles and
//! the full encoder layer (attention + FFN with post-layer-norm residuals).

use crate::attention::MultiHeadAttention;
use crate::config::ModelConfig;
use crate::forward;
use holistix_linalg::{Matrix, Rng64};
use holistix_tensor::{Graph, NodeId, ParamId, ParamStore};
use std::borrow::Cow;

/// Position-wise feed-forward block: `GELU(x W1 + b1) W2 + b2`.
#[derive(Debug, Clone)]
pub struct FeedForward {
    w1: ParamId,
    b1: ParamId,
    w2: ParamId,
    b2: ParamId,
}

impl FeedForward {
    /// Register the block's parameters.
    pub fn new(
        config: &ModelConfig,
        layer_index: usize,
        store: &mut ParamStore,
        rng: &mut Rng64,
    ) -> Self {
        let prefix = format!("layer{layer_index}.ffn");
        Self {
            w1: store.add_xavier(
                &format!("{prefix}.w1"),
                config.hidden_dim,
                config.ff_dim,
                rng,
            ),
            b1: store.add_zeros(&format!("{prefix}.b1"), 1, config.ff_dim),
            w2: store.add_xavier(
                &format!("{prefix}.w2"),
                config.ff_dim,
                config.hidden_dim,
                rng,
            ),
            b2: store.add_zeros(&format!("{prefix}.b2"), 1, config.hidden_dim),
        }
    }

    /// Forward pass on a `seq × hidden` node.
    pub fn forward(&self, graph: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        let w1 = graph.param(store, self.w1);
        let b1 = graph.param(store, self.b1);
        let w2 = graph.param(store, self.w2);
        let b2 = graph.param(store, self.b2);
        let h = graph.matmul(x, w1);
        let h = graph.add_row_broadcast(h, b1);
        let h = graph.gelu(h);
        let h = graph.matmul(h, w2);
        graph.add_row_broadcast(h, b2)
    }
}

/// Learnable layer-norm gain and bias.
#[derive(Debug, Clone)]
pub struct LayerNormParams {
    gamma: ParamId,
    beta: ParamId,
    eps: f64,
}

impl LayerNormParams {
    /// Register gain (initialised to 1) and bias (initialised to 0).
    pub fn new(name: &str, dim: usize, eps: f64, store: &mut ParamStore) -> Self {
        Self {
            gamma: store.add_filled(&format!("{name}.gamma"), 1, dim, 1.0),
            beta: store.add_zeros(&format!("{name}.beta"), 1, dim),
            eps,
        }
    }

    /// Apply layer normalisation to a `seq × hidden` node.
    pub fn forward(&self, graph: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        let gamma = graph.param(store, self.gamma);
        let beta = graph.param(store, self.beta);
        graph.layer_norm(x, gamma, beta, self.eps)
    }

    /// Gain, bias and epsilon for the inference forward, read in place from `store`.
    pub(crate) fn weights<'a>(&self, store: &'a ParamStore) -> forward::LayerNorm<'a, f64> {
        forward::LayerNorm {
            gamma: Cow::Borrowed(store.value(self.gamma).row(0)),
            beta: Cow::Borrowed(store.value(self.beta).row(0)),
            eps: self.eps,
        }
    }
}

/// One transformer encoder layer with post-layer-norm residual connections:
/// `x ← LN(x + Attn(x)); x ← LN(x + FFN(x))`.
#[derive(Debug, Clone)]
pub struct EncoderLayer {
    attention: MultiHeadAttention,
    ln_attention: LayerNormParams,
    feed_forward: FeedForward,
    ln_feed_forward: LayerNormParams,
}

impl EncoderLayer {
    /// Register all of the layer's parameters.
    pub fn new(
        config: &ModelConfig,
        layer_index: usize,
        store: &mut ParamStore,
        rng: &mut Rng64,
    ) -> Self {
        Self {
            attention: MultiHeadAttention::new(config, layer_index, store, rng),
            ln_attention: LayerNormParams::new(
                &format!("layer{layer_index}.ln_attn"),
                config.hidden_dim,
                config.layer_norm_eps,
                store,
            ),
            feed_forward: FeedForward::new(config, layer_index, store, rng),
            ln_feed_forward: LayerNormParams::new(
                &format!("layer{layer_index}.ln_ffn"),
                config.hidden_dim,
                config.layer_norm_eps,
                store,
            ),
        }
    }

    /// The attention mask builder for this layer (delegates to the attention block).
    pub fn build_mask(&self, is_padding: &[bool]) -> Matrix {
        self.attention.build_mask(is_padding)
    }

    /// Forward pass on a `seq × hidden` node.
    pub fn forward(
        &self,
        graph: &mut Graph,
        store: &ParamStore,
        x: NodeId,
        mask: &Matrix,
    ) -> NodeId {
        let attended = self.attention.forward(graph, store, x, mask);
        let residual = graph.add(x, attended);
        let normed = self.ln_attention.forward(graph, store, residual);
        let ff = self.feed_forward.forward(graph, store, normed);
        let residual2 = graph.add(normed, ff);
        self.ln_feed_forward.forward(graph, store, residual2)
    }

    /// The layer's weights for the inference forward, read in place from `store`.
    pub(crate) fn weights<'a>(&self, store: &'a ParamStore) -> forward::Layer<'a, f64, &'a Matrix> {
        let ff = &self.feed_forward;
        forward::Layer {
            attention: self.attention.weights(store),
            ln_attention: self.ln_attention.weights(store),
            feed_forward: forward::FeedForward {
                w1: store.value(ff.w1),
                b1: Cow::Borrowed(store.value(ff.b1).row(0)),
                w2: store.value(ff.w2),
                b2: Cow::Borrowed(store.value(ff.b2).row(0)),
            },
            ln_feed_forward: self.ln_feed_forward.weights(store),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelKind;

    fn tiny_config() -> ModelConfig {
        let mut c = ModelConfig::for_kind(ModelKind::Bert, 6);
        c.hidden_dim = 8;
        c.n_heads = 2;
        c.ff_dim = 16;
        c.max_len = 5;
        c
    }

    fn random_input(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = Rng64::new(seed);
        let mut m = Matrix::zeros(rows, cols);
        for v in m.data_mut() {
            *v = rng.uniform(-1.0, 1.0);
        }
        m
    }

    #[test]
    fn feed_forward_preserves_shape() {
        let config = tiny_config();
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(1);
        let ffn = FeedForward::new(&config, 0, &mut store, &mut rng);
        let mut g = Graph::new();
        let x = g.constant(random_input(5, 8, 2));
        let y = ffn.forward(&mut g, &store, x);
        assert_eq!(g.value(y).shape(), (5, 8));
    }

    #[test]
    fn layer_norm_output_is_normalised_before_affine() {
        let mut store = ParamStore::new();
        let ln = LayerNormParams::new("ln", 8, 1e-5, &mut store);
        let mut g = Graph::new();
        let x = g.constant(random_input(3, 8, 3));
        let y = ln.forward(&mut g, &store, x);
        // With gamma=1, beta=0 each output row has ~zero mean and ~unit variance.
        for r in 0..3 {
            let row = g.value(y).row(r);
            let mean: f64 = row.iter().sum::<f64>() / 8.0;
            let var: f64 = row.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / 8.0;
            assert!(mean.abs() < 1e-9);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn encoder_layer_forward_and_backward() {
        let config = tiny_config();
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(5);
        let layer = EncoderLayer::new(&config, 0, &mut store, &mut rng);
        let mask = layer.build_mask(&[false, false, false, true, true]);
        let mut g = Graph::new();
        let x = g.constant(random_input(5, 8, 6));
        let y = layer.forward(&mut g, &store, x, &mask);
        assert_eq!(g.value(y).shape(), (5, 8));
        assert!(!g.value(y).has_non_finite());
        let sq = g.mul(y, y);
        let loss = g.sum(sq);
        g.backward(loss, &mut store);
        assert!(store.grad_norm() > 0.0);
        assert!(!store.has_non_finite());
    }

    #[test]
    fn parameter_count_scales_with_layers() {
        let config = tiny_config();
        let mut rng = Rng64::new(7);
        let mut store1 = ParamStore::new();
        let _ = EncoderLayer::new(&config, 0, &mut store1, &mut rng);
        let one_layer = store1.n_weights();
        let mut store2 = ParamStore::new();
        let _ = EncoderLayer::new(&config, 0, &mut store2, &mut rng);
        let _ = EncoderLayer::new(&config, 1, &mut store2, &mut rng);
        assert_eq!(store2.n_weights(), 2 * one_layer);
    }
}
