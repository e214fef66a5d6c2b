//! The end-to-end transformer classifier.
//!
//! Pipeline: subword ids → token + position embeddings → embedding layer-norm (and
//! dropout during training) → a stack of [`EncoderLayer`]s → pooling (CLS / mean /
//! last-token, per model kind) → an optional GELU bottleneck → a linear head over the
//! six wellness dimensions.
//!
//! The same hidden states also feed the masked-LM head used by the pre-initialisation
//! stage ([`crate::pretrain`]), with the language-model logits tied to the token
//! embedding matrix (weight tying), exactly as the original BERT does.

use crate::config::{ModelConfig, Pooling};
use crate::forward::{StoreWeights, Weights};
use crate::layers::{EncoderLayer, LayerNormParams};
use holistix_linalg::{Matrix, Rng64};
use holistix_tensor::{Graph, NodeId, ParamId, ParamStore};
use holistix_text::SubwordTokenizer;
use std::borrow::Cow;

/// The words the subword encoder sees: a text's non-punctuation tokens,
/// lowercased. Fitting the vocabulary and encoding a text both split with it.
pub(crate) fn words(text: &str) -> Vec<String> {
    holistix_text::tokenize(text)
        .into_iter()
        .filter(|t| t.kind != holistix_text::TokenKind::Punctuation)
        .map(|t| t.lower())
        .collect()
}

/// A trainable transformer classifier over subword token sequences.
#[derive(Debug, Clone)]
pub struct TransformerClassifier {
    config: ModelConfig,
    name: String,
    store: ParamStore,
    tokenizer: SubwordTokenizer,
    token_embedding: ParamId,
    position_embedding: ParamId,
    embedding_norm: LayerNormParams,
    layers: Vec<EncoderLayer>,
    bottleneck: Option<(ParamId, ParamId)>,
    head_weight: ParamId,
    head_bias: ParamId,
    sparse_embedding_grad: bool,
}

impl TransformerClassifier {
    /// Build a model with freshly initialised parameters.
    ///
    /// `tokenizer` must already be fitted on the training corpus (the trainer does
    /// this); its vocabulary size overrides `config.vocab_size`.
    pub fn new(
        mut config: ModelConfig,
        name: &str,
        tokenizer: SubwordTokenizer,
        seed: u64,
    ) -> Self {
        config.vocab_size = tokenizer.vocab_size();
        config.validate();
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(seed);
        let token_embedding = store.add_xavier(
            "embeddings.token",
            config.vocab_size,
            config.hidden_dim,
            &mut rng,
        );
        let position_embedding = store.add_xavier(
            "embeddings.position",
            config.max_len,
            config.hidden_dim,
            &mut rng,
        );
        let embedding_norm = LayerNormParams::new(
            "embeddings.ln",
            config.hidden_dim,
            config.layer_norm_eps,
            &mut store,
        );
        let layers = (0..config.n_layers)
            .map(|i| EncoderLayer::new(&config, i, &mut store, &mut rng))
            .collect();
        let bottleneck = if config.bottleneck_head {
            Some((
                store.add_xavier(
                    "head.bottleneck.w",
                    config.hidden_dim,
                    config.hidden_dim,
                    &mut rng,
                ),
                store.add_zeros("head.bottleneck.b", 1, config.hidden_dim),
            ))
        } else {
            None
        };
        let head_weight = store.add_xavier("head.w", config.hidden_dim, config.n_classes, &mut rng);
        let head_bias = store.add_zeros("head.b", 1, config.n_classes);
        Self {
            config,
            name: name.to_string(),
            store,
            tokenizer,
            token_embedding,
            position_embedding,
            embedding_norm,
            layers,
            bottleneck,
            head_weight,
            head_bias,
            sparse_embedding_grad: true,
        }
    }

    /// Whether fine-tuning accumulates embedding gradients sparsely (the default).
    pub fn sparse_embedding_grad(&self) -> bool {
        self.sparse_embedding_grad
    }

    /// Switch the embedding-gradient path. Sparse (the default) folds one gradient
    /// row per *distinct* token through a CSR accumulator; dense materialises the
    /// whole `vocab × hidden` table per sequence. Both are bit-identical — the dense
    /// path survives as the benchmark/property-test reference.
    pub fn set_sparse_embedding_grad(&mut self, enabled: bool) {
        self.sparse_embedding_grad = enabled;
    }

    /// The model's display name (Table IV row label).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The architecture configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The parameter store (read access).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable parameter store (used by the trainer and the pre-initialisation stage).
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// The fitted subword tokenizer.
    pub fn tokenizer(&self) -> &SubwordTokenizer {
        &self.tokenizer
    }

    /// The id of the token-embedding parameter (weight-tied LM head).
    pub fn token_embedding_param(&self) -> ParamId {
        self.token_embedding
    }

    /// Total number of scalar weights.
    pub fn n_parameters(&self) -> usize {
        self.store.n_weights()
    }

    /// Encode a text into a fixed-length (`max_len`) subword id sequence.
    pub fn encode(&self, text: &str) -> Vec<usize> {
        self.tokenizer
            .encode_for_classification(&words(text), self.config.max_len)
    }

    /// Which positions of an encoded sequence are padding.
    pub fn padding_mask(&self, tokens: &[usize]) -> Vec<bool> {
        tokens
            .iter()
            .map(|&t| t == self.tokenizer.pad_id())
            .collect()
    }

    /// Run the encoder stack on a token sequence, returning the `max_len × hidden`
    /// hidden-state node. When `train` is true, dropout is applied to the embeddings
    /// using noise drawn from `rng`.
    pub fn encode_hidden(
        &self,
        graph: &mut Graph,
        tokens: &[usize],
        train: bool,
        rng: &mut Rng64,
    ) -> NodeId {
        assert_eq!(
            tokens.len(),
            self.config.max_len,
            "token sequence must be padded to max_len"
        );
        let is_padding = self.padding_mask(tokens);
        let position_indices: Vec<usize> = (0..tokens.len()).collect();
        let (token_emb, position_emb) = if self.sparse_embedding_grad {
            (
                graph.gather_param(&self.store, self.token_embedding, tokens),
                graph.gather_param(&self.store, self.position_embedding, &position_indices),
            )
        } else {
            let token_table = graph.param(&self.store, self.token_embedding);
            let position_table = graph.param(&self.store, self.position_embedding);
            (
                graph.gather(token_table, tokens),
                graph.gather(position_table, &position_indices),
            )
        };
        let summed = graph.add(token_emb, position_emb);
        let mut hidden = self.embedding_norm.forward(graph, &self.store, summed);
        if train && self.config.dropout > 0.0 {
            let keep = 1.0 - self.config.dropout;
            let mut noise = Matrix::zeros(tokens.len(), self.config.hidden_dim);
            for v in noise.data_mut() {
                *v = rng.next_f64();
            }
            hidden = graph.dropout(hidden, &noise, keep);
        }
        for layer in &self.layers {
            let mask = layer.build_mask(&is_padding);
            hidden = layer.forward(graph, &self.store, hidden, &mask);
        }
        hidden
    }

    /// Pool hidden states into a single `1 × hidden` vector per the configured strategy.
    fn pool(&self, graph: &mut Graph, hidden: NodeId, tokens: &[usize]) -> NodeId {
        let is_padding = self.padding_mask(tokens);
        match self.config.pooling {
            Pooling::Cls => graph.row_select(hidden, 0),
            Pooling::Mean => {
                let non_pad: Vec<usize> = (0..tokens.len()).filter(|&i| !is_padding[i]).collect();
                let selected = graph.gather(hidden, &non_pad);
                graph.mean_rows(selected)
            }
            Pooling::LastToken => {
                let last = (0..tokens.len())
                    .rev()
                    .find(|&i| !is_padding[i])
                    .unwrap_or(0);
                graph.row_select(hidden, last)
            }
        }
    }

    /// Forward pass producing the `1 × n_classes` logits node for one sequence.
    pub fn forward_logits(
        &self,
        graph: &mut Graph,
        tokens: &[usize],
        train: bool,
        rng: &mut Rng64,
    ) -> NodeId {
        let hidden = self.encode_hidden(graph, tokens, train, rng);
        let mut pooled = self.pool(graph, hidden, tokens);
        if let Some((w, b)) = self.bottleneck {
            let wn = graph.param(&self.store, w);
            let bn = graph.param(&self.store, b);
            let h = graph.matmul(pooled, wn);
            let h = graph.add_row_broadcast(h, bn);
            pooled = graph.gelu(h);
        }
        let w = graph.param(&self.store, self.head_weight);
        let b = graph.param(&self.store, self.head_bias);
        let logits = graph.matmul(pooled, w);
        graph.add_row_broadcast(logits, b)
    }

    /// Mean classification loss over a batch of `(tokens, label)` pairs.
    /// Returns the scalar loss node; the caller runs `backward` and the optimiser.
    pub fn batch_loss(
        &self,
        graph: &mut Graph,
        batch: &[(Vec<usize>, usize)],
        rng: &mut Rng64,
    ) -> NodeId {
        assert!(!batch.is_empty(), "batch_loss on an empty batch");
        let mut total: Option<NodeId> = None;
        for (tokens, label) in batch {
            let logits = self.forward_logits(graph, tokens, true, rng);
            let loss = graph.cross_entropy(logits, &[*label]);
            total = Some(match total {
                None => loss,
                Some(acc) => graph.add(acc, loss),
            });
        }
        let summed = total.expect("non-empty batch");
        graph.scale(summed, 1.0 / batch.len() as f64)
    }

    /// The weights as the inference forward reads them, borrowed from the store.
    pub(crate) fn weights(&self) -> StoreWeights<'_> {
        let store = &self.store;
        Weights {
            token_embedding: store.value(self.token_embedding),
            position_embedding: store.value(self.position_embedding),
            embedding_norm: self.embedding_norm.weights(store),
            layers: self.layers.iter().map(|l| l.weights(store)).collect(),
            bottleneck: self
                .bottleneck
                .map(|(w, b)| (store.value(w), Cow::Borrowed(store.value(b).row(0)))),
            head: store.value(self.head_weight),
            head_bias: Cow::Borrowed(store.value(self.head_bias).row(0)),
        }
    }

    /// Class-probability vector for a raw text, through the graph-free
    /// inference forward; bit-identical to the softmax of
    /// [`forward_logits`](Self::forward_logits) without dropout.
    pub fn predict_proba_text(&self, text: &str) -> Vec<f64> {
        self.weights()
            .probabilities(&self.config, &self.encode(text), self.tokenizer.pad_id())
    }

    /// Hard prediction for a raw text.
    pub fn predict_text(&self, text: &str) -> usize {
        holistix_linalg::argmax(&self.predict_proba_text(text)).unwrap_or(0)
    }

    /// Class-probability vectors for a batch of raw texts, one row per text:
    /// [`predict_proba_text`](Self::predict_proba_text) on each, with the
    /// weight view built once for the call.
    pub fn predict_proba_texts(&self, texts: &[&str]) -> Vec<Vec<f64>> {
        let weights = self.weights();
        let pad = self.tokenizer.pad_id();
        texts
            .iter()
            .map(|text| weights.probabilities(&self.config, &self.encode(text), pad))
            .collect()
    }

    /// Masked-LM logits for the given positions of a hidden-state node
    /// (`positions.len() × vocab` via the weight-tied embedding matrix).
    pub fn lm_logits(&self, graph: &mut Graph, hidden: NodeId, positions: &[usize]) -> NodeId {
        let selected = graph.gather(hidden, positions);
        let table = graph.param(&self.store, self.token_embedding);
        let table_t = graph.transpose(table);
        graph.matmul(selected, table_t)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::ModelKind;
    use holistix_tensor::{Adam, Optimizer};
    use holistix_text::SubwordVocabBuilder;

    fn tiny_model(kind: ModelKind) -> TransformerClassifier {
        let mut config = ModelConfig::for_kind(kind, 6);
        config.hidden_dim = 16;
        config.n_heads = 2;
        config.ff_dim = 32;
        config.max_len = 12;
        config.dropout = 0.1;
        let mut builder = SubwordVocabBuilder::new(300);
        for text in [
            "i feel exhausted and cannot sleep",
            "my job drains me and money is tight",
            "i feel alone without my friends",
            "life feels meaningless and empty",
            "i cannot concentrate on my exams",
            "i cry all the time and feel overwhelmed",
        ] {
            let words: Vec<&str> = text.split_whitespace().collect();
            builder.add_words(&words);
        }
        TransformerClassifier::new(config, kind.name(), builder.build(), 7)
    }

    #[test]
    fn encode_produces_fixed_length_sequences() {
        let model = tiny_model(ModelKind::Bert);
        let tokens = model.encode("I feel exhausted and cannot sleep at all lately");
        assert_eq!(tokens.len(), 12);
        let padding = model.padding_mask(&tokens);
        assert!(!padding[0], "CLS position must not be padding");
    }

    #[test]
    fn forward_logits_shape_and_probabilities() {
        for kind in [
            ModelKind::Bert,
            ModelKind::FlanT5,
            ModelKind::Gpt2,
            ModelKind::Xlnet,
        ] {
            let model = tiny_model(kind);
            let proba = model.predict_proba_text("i feel exhausted and cannot sleep");
            assert_eq!(proba.len(), 6);
            assert!((proba.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(proba.iter().all(|p| p.is_finite()));
        }
    }

    #[test]
    fn prediction_is_deterministic_at_inference() {
        let model = tiny_model(ModelKind::MentalBert);
        let a = model.predict_proba_text("my job drains me");
        let b = model.predict_proba_text("my job drains me");
        assert_eq!(a, b);
    }

    #[test]
    fn a_few_training_steps_reduce_loss() {
        let model = tiny_model(ModelKind::DistilBert);
        let mut model = model;
        let examples = [
            ("i feel exhausted and cannot sleep", 3usize),
            ("my job drains me and money is tight", 1),
            ("i feel alone without my friends", 4),
            ("life feels meaningless and empty", 2),
        ];
        let batch: Vec<(Vec<usize>, usize)> = examples
            .iter()
            .map(|(t, l)| (model.encode(t), *l))
            .collect();
        let mut rng = Rng64::new(3);
        let mut optimizer = Adam::with_lr(5e-3);
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..15 {
            model.store_mut().zero_grads();
            let mut graph = Graph::new();
            let loss = model.batch_loss(&mut graph, &batch, &mut rng);
            last_loss = graph.scalar(loss);
            if first_loss.is_none() {
                first_loss = Some(last_loss);
            }
            graph.backward(loss, model.store_mut());
            optimizer.step(model.store_mut());
        }
        assert!(
            last_loss < first_loss.unwrap(),
            "loss did not decrease: {} -> {last_loss}",
            first_loss.unwrap()
        );
        assert!(!model.store().has_non_finite());
    }

    #[test]
    fn lm_logits_have_vocab_width() {
        let model = tiny_model(ModelKind::MentalBert);
        let tokens = model.encode("i feel alone");
        let mut rng = Rng64::new(1);
        let mut graph = Graph::new();
        let hidden = model.encode_hidden(&mut graph, &tokens, false, &mut rng);
        let logits = model.lm_logits(&mut graph, hidden, &[1, 2]);
        assert_eq!(
            graph.value(logits).shape(),
            (2, model.tokenizer().vocab_size())
        );
    }

    #[test]
    fn parameter_counts_differ_between_architectures() {
        let bert = tiny_model(ModelKind::Bert);
        let distil = tiny_model(ModelKind::DistilBert);
        let t5 = tiny_model(ModelKind::FlanT5);
        assert!(distil.n_parameters() < bert.n_parameters());
        assert!(t5.n_parameters() > bert.n_parameters()); // bottleneck head adds weights
    }

    #[test]
    #[should_panic(expected = "padded to max_len")]
    fn unpadded_sequence_panics() {
        let model = tiny_model(ModelKind::Bert);
        let mut rng = Rng64::new(1);
        let mut graph = Graph::new();
        let _ = model.encode_hidden(&mut graph, &[1, 2, 3], false, &mut rng);
    }

    /// The tape's inference answer: softmax of `forward_logits` without dropout.
    pub(crate) fn tape_probabilities(model: &TransformerClassifier, text: &str) -> Vec<f64> {
        let mut graph = Graph::new();
        let logits =
            model.forward_logits(&mut graph, &model.encode(text), false, &mut Rng64::new(0));
        holistix_linalg::softmax(graph.value(logits).row(0))
    }

    #[test]
    fn batched_prediction_is_bit_identical_to_per_text() {
        // Every pooling strategy and attention pattern must match the tape,
        // through the batch entry and the single-text entry.
        for kind in [
            ModelKind::Bert,   // CLS pooling, bidirectional
            ModelKind::FlanT5, // mean pooling, bottleneck head
            ModelKind::Gpt2,   // last-token pooling, causal
            ModelKind::Xlnet,  // relative position bias
        ] {
            let model = tiny_model(kind);
            let texts = [
                "i feel exhausted and cannot sleep",
                "my job drains me and money is tight and everything keeps piling up",
                "alone",
            ];
            let batched = model.predict_proba_texts(&texts);
            assert_eq!(batched.len(), texts.len());
            for (text, row) in texts.iter().zip(&batched) {
                let tape = tape_probabilities(&model, text);
                assert_eq!(&tape, row, "{kind:?} batched row diverged for {text:?}");
                assert_eq!(tape, model.predict_proba_text(text), "{kind:?} on {text:?}");
            }
        }
    }

    #[test]
    fn batched_prediction_of_empty_input_is_empty() {
        let model = tiny_model(ModelKind::Bert);
        assert!(model.predict_proba_texts(&[]).is_empty());
    }

    #[test]
    fn sparse_and_dense_embedding_grads_are_bit_identical() {
        // One training step with each embedding-gradient path must leave bitwise
        // identical gradients in the store.
        let examples = [
            ("i feel exhausted and cannot sleep", 3usize),
            ("my job drains me and money is tight", 1),
        ];
        let run = |sparse: bool| {
            let mut model = tiny_model(ModelKind::MentalBert);
            model.set_sparse_embedding_grad(sparse);
            let batch: Vec<(Vec<usize>, usize)> = examples
                .iter()
                .map(|(t, l)| (model.encode(t), *l))
                .collect();
            let mut rng = Rng64::new(11);
            model.store_mut().zero_grads();
            let mut graph = Graph::new();
            let loss = model.batch_loss(&mut graph, &batch, &mut rng);
            graph.backward(loss, model.store_mut());
            let grads: Vec<Vec<f64>> = model
                .store()
                .ids()
                .into_iter()
                .map(|id| model.store().grad(id).data().to_vec())
                .collect();
            (graph.scalar(loss), grads)
        };
        let (dense_loss, dense_grads) = run(false);
        let (sparse_loss, sparse_grads) = run(true);
        assert_eq!(dense_loss, sparse_loss);
        assert_eq!(dense_grads, sparse_grads);
    }
}
