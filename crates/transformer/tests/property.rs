//! Property-based tests for the transformer fast path: sparse embedding
//! gradients must be bit-identical to the dense scatter across random corpora
//! and seeds, the graph-free inference forward must match the autograd tape
//! bitwise, and quantized i8 probabilities must stay within the documented
//! drift bound for arbitrary inputs.

use std::sync::OnceLock;

use holistix_linalg::{softmax, Rng64};
use holistix_tensor::Graph;
use holistix_text::SubwordVocabBuilder;
use holistix_transformer::{
    FineTuneConfig, ModelConfig, ModelKind, QuantizedTransformer, Trainer, TransformerClassifier,
    MAX_PROBABILITY_DRIFT,
};
use proptest::prelude::*;

/// The tape's inference answer: softmax of `forward_logits` without dropout.
fn tape_probabilities(model: &TransformerClassifier, text: &str) -> Vec<f64> {
    let mut graph = Graph::new();
    let logits = model.forward_logits(&mut graph, &model.encode(text), false, &mut Rng64::new(0));
    softmax(graph.value(logits).row(0))
}

/// A deliberately tiny configuration so a full two-way fit per proptest case
/// stays in the milliseconds range.
fn tiny_config(seed: u64, epochs: usize) -> (ModelConfig, FineTuneConfig) {
    let mut model = ModelConfig::for_kind(ModelKind::MentalBert, 6);
    model.hidden_dim = 8;
    model.n_heads = 2;
    model.ff_dim = 16;
    model.max_len = 10;
    model.dropout = 0.0;
    let finetune = FineTuneConfig {
        learning_rate: 3e-3,
        batch_size: 4,
        epochs,
        subword_vocab_size: 120,
        pretrain: None,
        seed,
        ..FineTuneConfig::default()
    };
    (model, finetune)
}

/// Random lowercase corpora: 6–10 short texts with labels in 0..6. A small
/// alphabet keeps the subword vocabulary dense so embedding rows actually
/// repeat within a batch — the case the sparse fold has to get right.
fn corpus() -> impl Strategy<Value = Vec<(String, usize)>> {
    proptest::collection::vec(("[a-f]{1,5}( [a-f]{1,5}){0,6}", 0usize..6), 6..11)
}

fn fit_both_ways(corpus: &[(String, usize)], seed: u64) -> (Trainer, Trainer, Vec<f64>, Vec<f64>) {
    let texts: Vec<&str> = corpus.iter().map(|(t, _)| t.as_str()).collect();
    let labels: Vec<usize> = corpus.iter().map(|(_, l)| *l).collect();

    let (model_config, finetune) = tiny_config(seed, 3);
    let mut sparse = Trainer::new(ModelKind::MentalBert, model_config, finetune);
    sparse.set_sparse_embedding_grad(true);
    sparse.fit(&texts, &labels);

    let (model_config, finetune) = tiny_config(seed, 3);
    let mut dense = Trainer::new(ModelKind::MentalBert, model_config, finetune);
    dense.set_sparse_embedding_grad(false);
    dense.fit(&texts, &labels);

    let sparse_losses = sparse.summary().unwrap().epoch_losses.clone();
    let dense_losses = dense.summary().unwrap().epoch_losses.clone();
    (sparse, dense, sparse_losses, dense_losses)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Fine-tuning with sparse one-row-per-token embedding gradients is
    /// bit-identical to the dense scatter at every step: same per-epoch
    /// losses, same probabilities afterwards, for any corpus and seed.
    #[test]
    fn sparse_and_dense_fit_are_bit_identical(
        corpus in corpus(),
        seed in 0u64..1_000,
    ) {
        let (sparse, dense, sparse_losses, dense_losses) = fit_both_ways(&corpus, seed);
        prop_assert_eq!(sparse_losses, dense_losses);
        for (text, _) in &corpus {
            let a = sparse.predict_proba(text);
            let b = dense.predict_proba(text);
            prop_assert_eq!(a, b);
        }
    }
}

/// One fitted model shared across the inference-side properties below; the
/// fit itself is exercised per-case by `sparse_and_dense_fit_are_bit_identical`.
fn fitted() -> &'static (Trainer, QuantizedTransformer) {
    static FITTED: OnceLock<(Trainer, QuantizedTransformer)> = OnceLock::new();
    FITTED.get_or_init(|| {
        let texts = [
            "my job drains me and the money is gone",
            "work deadlines and my boss are crushing me",
            "i lost my job and cannot pay rent",
            "i feel alone and my friends ignore me",
            "nobody talks to me and i feel invisible",
            "my relationship ended and i am so lonely",
        ];
        let labels = [1, 1, 1, 4, 4, 4];
        let (model_config, finetune) = tiny_config(7, 8);
        let mut trainer = Trainer::new(ModelKind::MentalBert, model_config, finetune);
        trainer.fit(&texts, &labels);
        let quantized = QuantizedTransformer::from_classifier(trainer.model().unwrap());
        (trainer, quantized)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Quantized i8 probabilities are valid distributions and never drift
    /// more than `MAX_PROBABILITY_DRIFT` from the f64 reference, even on
    /// inputs far from the training corpus (including out-of-vocabulary
    /// words the tokenizer shreds into bytes).
    #[test]
    fn quantized_drift_is_bounded_on_random_inputs(
        text in "[a-z]{1,8}( [a-z]{1,8}){0,8}",
    ) {
        let (trainer, quantized) = fitted();
        let reference = trainer.predict_proba(&text);
        let fast = quantized.predict_proba_text(&text);
        prop_assert_eq!(reference.len(), fast.len());
        let sum: f64 = fast.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9, "probabilities sum to {sum}");
        for (r, q) in reference.iter().zip(&fast) {
            prop_assert!(q.is_finite() && *q >= 0.0);
            prop_assert!(
                (r - q).abs() <= MAX_PROBABILITY_DRIFT,
                "drift {} exceeds bound {} on {:?}",
                (r - q).abs(),
                MAX_PROBABILITY_DRIFT,
                text
            );
        }
    }

    /// Batched prediction is bit-identical to the tape scoring each text
    /// alone, whatever the batch mix.
    #[test]
    fn batched_prediction_is_bit_identical_for_random_batches(
        texts in proptest::collection::vec("[a-z]{1,8}( [a-z]{1,8}){0,6}", 1..7),
    ) {
        let (trainer, quantized) = fitted();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let batched = trainer.predict_proba_batch(&refs);
        prop_assert_eq!(batched.len(), refs.len());
        let model = trainer.model().unwrap();
        for (text, row) in refs.iter().zip(&batched) {
            prop_assert_eq!(&tape_probabilities(model, text), row);
        }
        let q_batched = quantized.predict_proba_texts(&refs);
        for (text, row) in refs.iter().zip(&q_batched) {
            prop_assert_eq!(&quantized.predict_proba_text(text), row);
        }
    }
}

/// The architecture variants the forward branches on.
const VARIANTS: [ModelKind; 5] = [
    ModelKind::Bert,       // CLS pooling, bidirectional attention
    ModelKind::DistilBert, // one layer: its first layer is the pooled one
    ModelKind::FlanT5,     // mean pooling, bottleneck head
    ModelKind::Gpt2,       // causal attention, last-token pooling
    ModelKind::Xlnet,      // relative position bias
];

/// A word the shared tokenizer keeps as one piece.
const ONE_PIECE: &str = "feel";

/// One untrained model per variant with every parameter drawn at random, so
/// biases, layer-norm gains and the relative bias are all nonzero.
fn random_models() -> &'static [TransformerClassifier] {
    static MODELS: OnceLock<Vec<TransformerClassifier>> = OnceLock::new();
    MODELS.get_or_init(|| {
        let mut builder = SubwordVocabBuilder::new(200);
        for text in [
            "i feel exhausted and cannot sleep",
            "my job drains me and money is tight",
            "i feel alone without my friends",
            "life feels meaningless and i feel empty",
        ] {
            builder.add_words(&text.split_whitespace().collect::<Vec<_>>());
        }
        let tokenizer = builder.build();
        VARIANTS
            .iter()
            .map(|&kind| {
                let mut config = ModelConfig::for_kind(kind, 6);
                config.hidden_dim = 8;
                config.n_heads = 2;
                config.ff_dim = 16;
                config.max_len = 10;
                let mut model =
                    TransformerClassifier::new(config, kind.name(), tokenizer.clone(), 3);
                let mut rng = Rng64::new(kind as u64 + 1);
                for id in model.store().ids() {
                    for v in model.store_mut().value_mut(id).data_mut() {
                        *v = rng.uniform(-1.0, 1.0);
                    }
                }
                model
            })
            .collect()
    })
}

/// Every entry into the inference forward agrees with the tape, bit for bit.
fn assert_forward_matches_tape(text: &str) {
    for model in random_models() {
        let tape = tape_probabilities(model, text);
        assert_eq!(
            model.predict_proba_text(text),
            tape,
            "{} on {text:?}",
            model.name()
        );
        assert_eq!(model.predict_proba_texts(&[text]), vec![tape]);
    }
}

#[test]
fn forward_matches_tape_at_the_length_edges() {
    let model = &random_models()[0];
    let max_len = model.config().max_len;
    let pad = model.tokenizer().pad_id();
    assert_eq!(model.tokenizer().encode_word(ONE_PIECE).len(), 1);
    let repeat = |n: usize| vec![ONE_PIECE; n].join(" ");
    // `[CLS]` + `max_len - 2` pieces + `[SEP]`: nothing to drop.
    let exact = repeat(max_len - 2);
    assert!(!model.encode(&exact).contains(&pad));
    assert!(model.encode(&repeat(max_len - 3)).contains(&pad));
    for text in ["", ONE_PIECE, exact.as_str(), repeat(3 * max_len).as_str()] {
        assert_forward_matches_tape(text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The graph-free forward, which skips the padded tail and the last
    /// layer's unpooled rows, equals `softmax(forward_logits(..))` bit for
    /// bit on random texts, from empty to truncated, for every architecture
    /// variant.
    #[test]
    fn forward_matches_tape_on_random_texts(
        words in proptest::collection::vec("[a-z]{1,7}", 0..14),
    ) {
        assert_forward_matches_tape(&words.join(" "));
    }
}
