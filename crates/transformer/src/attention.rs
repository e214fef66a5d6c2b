//! Multi-head self-attention.
//!
//! Each head owns its own projection matrices (`hidden → head_dim`), and head outputs
//! are projected back to `hidden` and summed — algebraically identical to the usual
//! concat-then-project formulation but expressible with the 2-D ops of the autograd
//! graph. Three attention patterns are supported, matching the model zoo:
//!
//! * **bidirectional** (BERT/DistilBERT/MentalBERT/Flan-T5): padding mask only,
//! * **causal** (GPT-2): upper-triangular mask added to the padding mask,
//! * **relative** (XLNet stand-in): a learned `max_len × max_len` additive position
//!   bias on the attention scores.
//!
//! All sequences are padded/truncated to `max_len`, so the masks and the relative bias
//! are fixed-size and can be passed as constants / single parameters.

use crate::config::{AttentionKind, ModelConfig};
use crate::forward;
use holistix_linalg::{Matrix, Rng64};
use holistix_tensor::{Graph, NodeId, ParamId, ParamStore};
use std::borrow::Cow;

/// Additive value used to mask out attention logits.
pub(crate) const MASK_VALUE: f64 = -1e9;

/// Parameters of one attention head.
#[derive(Debug, Clone)]
struct HeadParams {
    wq: ParamId,
    wk: ParamId,
    wv: ParamId,
    wo: ParamId,
}

/// A multi-head self-attention block.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    heads: Vec<HeadParams>,
    output_bias: ParamId,
    relative_bias: Option<ParamId>,
    kind: AttentionKind,
    head_dim: usize,
}

impl MultiHeadAttention {
    /// Register the block's parameters in `store`.
    pub fn new(
        config: &ModelConfig,
        layer_index: usize,
        store: &mut ParamStore,
        rng: &mut Rng64,
    ) -> Self {
        let mut heads = Vec::with_capacity(config.n_heads);
        for h in 0..config.n_heads {
            let prefix = format!("layer{layer_index}.attn.head{h}");
            heads.push(HeadParams {
                wq: store.add_xavier(
                    &format!("{prefix}.wq"),
                    config.hidden_dim,
                    config.head_dim(),
                    rng,
                ),
                wk: store.add_xavier(
                    &format!("{prefix}.wk"),
                    config.hidden_dim,
                    config.head_dim(),
                    rng,
                ),
                wv: store.add_xavier(
                    &format!("{prefix}.wv"),
                    config.hidden_dim,
                    config.head_dim(),
                    rng,
                ),
                wo: store.add_xavier(
                    &format!("{prefix}.wo"),
                    config.head_dim(),
                    config.hidden_dim,
                    rng,
                ),
            });
        }
        let output_bias = store.add_zeros(
            &format!("layer{layer_index}.attn.bias"),
            1,
            config.hidden_dim,
        );
        let relative_bias = if config.attention == AttentionKind::Relative {
            Some(store.add_zeros(
                &format!("layer{layer_index}.attn.rel_bias"),
                config.max_len,
                config.max_len,
            ))
        } else {
            None
        };
        Self {
            heads,
            output_bias,
            relative_bias,
            kind: config.attention,
            head_dim: config.head_dim(),
        }
    }

    /// The additive attention mask for a padded sequence of `max_len` positions where
    /// `is_padding[j]` marks padding columns. Causal masking is folded in when the
    /// block is causal.
    pub fn build_mask(&self, is_padding: &[bool]) -> Matrix {
        let n = is_padding.len();
        let mut mask = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let blocked = is_padding[j] || (self.kind == AttentionKind::Causal && j > i);
                if blocked {
                    mask[(i, j)] = MASK_VALUE;
                }
            }
        }
        mask
    }

    /// Forward pass: `x` is a `max_len × hidden` node; returns a `max_len × hidden`
    /// node. `mask` must come from [`build_mask`](Self::build_mask) for the same
    /// sequence.
    pub fn forward(
        &self,
        graph: &mut Graph,
        store: &ParamStore,
        x: NodeId,
        mask: &Matrix,
    ) -> NodeId {
        let scale = 1.0 / (self.head_dim as f64).sqrt();
        let mut combined: Option<NodeId> = None;
        for head in &self.heads {
            let wq = graph.param(store, head.wq);
            let wk = graph.param(store, head.wk);
            let wv = graph.param(store, head.wv);
            let wo = graph.param(store, head.wo);
            let q = graph.matmul(x, wq);
            let k = graph.matmul(x, wk);
            let v = graph.matmul(x, wv);
            let kt = graph.transpose(k);
            let scores = graph.matmul(q, kt);
            let mut scores = graph.scale(scores, scale);
            if let Some(rel) = self.relative_bias {
                let rel_node = graph.param(store, rel);
                scores = graph.add(scores, rel_node);
            }
            let masked = graph.add_const(scores, mask);
            let attn = graph.softmax_rows(masked);
            let context = graph.matmul(attn, v);
            let projected = graph.matmul(context, wo);
            combined = Some(match combined {
                None => projected,
                Some(acc) => graph.add(acc, projected),
            });
        }
        let summed = combined.expect("attention block must have at least one head");
        let bias = graph.param(store, self.output_bias);
        graph.add_row_broadcast(summed, bias)
    }

    /// The block's weights for the inference forward, read in place from `store`.
    pub(crate) fn weights<'a>(
        &self,
        store: &'a ParamStore,
    ) -> forward::Attention<'a, f64, &'a Matrix> {
        forward::Attention {
            heads: self
                .heads
                .iter()
                .map(|h| [h.wq, h.wk, h.wv, h.wo].map(|id| store.value(id)))
                .collect(),
            bias: Cow::Borrowed(store.value(self.output_bias).row(0)),
            relative_bias: self
                .relative_bias
                .map(|id| Cow::Borrowed(store.value(id).data())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelKind;
    use holistix_tensor::Optimizer;

    fn tiny_config(kind: ModelKind) -> ModelConfig {
        let mut c = ModelConfig::for_kind(kind, 6);
        c.hidden_dim = 8;
        c.n_heads = 2;
        c.ff_dim = 16;
        c.max_len = 6;
        c
    }

    fn random_input(max_len: usize, hidden: usize, seed: u64) -> Matrix {
        let mut rng = Rng64::new(seed);
        let mut m = Matrix::zeros(max_len, hidden);
        for v in m.data_mut() {
            *v = rng.uniform(-1.0, 1.0);
        }
        m
    }

    #[test]
    fn forward_shape_is_preserved() {
        let config = tiny_config(ModelKind::Bert);
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(1);
        let attn = MultiHeadAttention::new(&config, 0, &mut store, &mut rng);
        let mut g = Graph::new();
        let x = g.constant(random_input(6, 8, 2));
        let mask = attn.build_mask(&[false; 6]);
        let out = attn.forward(&mut g, &store, x, &mask);
        assert_eq!(g.value(out).shape(), (6, 8));
        assert!(!g.value(out).has_non_finite());
    }

    #[test]
    fn padding_mask_blocks_padded_positions() {
        // With position 5 marked as padding, changing its input must not change the
        // output at non-padding positions.
        let config = tiny_config(ModelKind::Bert);
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(3);
        let attn = MultiHeadAttention::new(&config, 0, &mut store, &mut rng);
        let mask = attn.build_mask(&[false, false, false, false, false, true]);

        let base = random_input(6, 8, 4);
        let mut altered = base.clone();
        for c in 0..8 {
            altered[(5, c)] = 9.0;
        }
        let run = |input: Matrix| {
            let mut g = Graph::new();
            let x = g.constant(input);
            let out = attn.forward(&mut g, &store, x, &mask);
            g.value(out).clone()
        };
        let out_base = run(base);
        let out_altered = run(altered);
        for r in 0..5 {
            for c in 0..8 {
                assert!(
                    (out_base[(r, c)] - out_altered[(r, c)]).abs() < 1e-9,
                    "padding leaked into position {r}"
                );
            }
        }
    }

    #[test]
    fn causal_mask_prevents_looking_ahead() {
        let config = tiny_config(ModelKind::Gpt2);
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(5);
        let attn = MultiHeadAttention::new(&config, 0, &mut store, &mut rng);
        let mask = attn.build_mask(&[false; 6]);
        // Changing the last token must not affect the first position's output.
        let base = random_input(6, 8, 6);
        let mut altered = base.clone();
        for c in 0..8 {
            altered[(5, c)] = -7.0;
        }
        let run = |input: Matrix| {
            let mut g = Graph::new();
            let x = g.constant(input);
            let out = attn.forward(&mut g, &store, x, &mask);
            g.value(out).clone()
        };
        let a = run(base);
        let b = run(altered);
        for c in 0..8 {
            assert!(
                (a[(0, c)] - b[(0, c)]).abs() < 1e-9,
                "causal mask leaked future info"
            );
        }
        // ...but it must affect the last position itself.
        assert!((0..8).any(|c| (a[(5, c)] - b[(5, c)]).abs() > 1e-9));
    }

    #[test]
    fn relative_variant_registers_a_bias_parameter() {
        let config = tiny_config(ModelKind::Xlnet);
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(7);
        let before = store.len();
        let attn = MultiHeadAttention::new(&config, 0, &mut store, &mut rng);
        assert!(attn.relative_bias.is_some());
        assert!(store.len() > before);
        // Bidirectional variant does not.
        let mut store2 = ParamStore::new();
        let attn2 =
            MultiHeadAttention::new(&tiny_config(ModelKind::Bert), 0, &mut store2, &mut rng);
        assert!(attn2.relative_bias.is_none());
    }

    #[test]
    fn gradients_flow_to_attention_parameters() {
        let config = tiny_config(ModelKind::Bert);
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(9);
        let attn = MultiHeadAttention::new(&config, 0, &mut store, &mut rng);
        let mask = attn.build_mask(&[false; 6]);
        let mut g = Graph::new();
        let x = g.constant(random_input(6, 8, 10));
        let out = attn.forward(&mut g, &store, x, &mask);
        let sq = g.mul(out, out);
        let loss = g.sum(sq);
        g.backward(loss, &mut store);
        assert!(store.grad_norm() > 0.0);
        // A training step should reduce this simple loss.
        let before = g.scalar(loss);
        let mut opt = holistix_tensor::Sgd::new(0.01, 0.0);
        opt.step(&mut store);
        store.zero_grads();
        let mut g2 = Graph::new();
        let x2 = g2.constant(random_input(6, 8, 10));
        let out2 = attn.forward(&mut g2, &store, x2, &mask);
        let sq2 = g2.mul(out2, out2);
        let loss2 = g2.sum(sq2);
        assert!(
            g2.scalar(loss2) < before,
            "loss should decrease after a step"
        );
    }
}
