//! Fine-tuning loop for the transformer classifiers.
//!
//! Mirrors the paper's procedure: build the tokenizer on the training split, (pre-)
//! initialise the model, then fine-tune for a fixed number of epochs with the
//! per-model batch size and learning rate. Optimisation is Adam with global-norm
//! gradient clipping; mini-batch order is reshuffled every epoch from the seed, so a
//! `(texts, labels, seed)` triple always produces the same fitted model.

use crate::config::{ModelConfig, ModelKind};
use crate::model::{words, TransformerClassifier};
use crate::pretrain::{pretrain_masked_lm, PretrainConfig, PretrainSummary};
use holistix_linalg::Rng64;
use holistix_tensor::{clip_gradients, Adam, Graph, Optimizer};
use holistix_text::SubwordVocabBuilder;
use serde::{Deserialize, Serialize};

/// Fine-tuning hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FineTuneConfig {
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Mini-batch size (sequences per optimiser step).
    pub batch_size: usize,
    /// Number of fine-tuning epochs.
    pub epochs: usize,
    /// Target subword vocabulary size for the tokenizer built on the training split.
    pub subword_vocab_size: usize,
    /// Global gradient-norm clip.
    pub gradient_clip: f64,
    /// Optional masked-LM pre-initialisation stage.
    pub pretrain: Option<PretrainConfig>,
    /// RNG seed (weight init, batch order, dropout, masking).
    pub seed: u64,
}

impl Default for FineTuneConfig {
    fn default() -> Self {
        Self {
            learning_rate: 1e-3,
            batch_size: 16,
            epochs: 10,
            subword_vocab_size: 1200,
            gradient_clip: 5.0,
            pretrain: None,
            seed: 42,
        }
    }
}

/// What happened during training — useful for the experiment logs and the benches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingSummary {
    /// Mean training loss per epoch, in epoch order.
    pub epoch_losses: Vec<f64>,
    /// Pre-initialisation summary, if the stage ran.
    pub pretrain: Option<PretrainSummary>,
    /// Number of trainable parameters.
    pub n_parameters: usize,
}

/// Builds, (pre)trains and serves one transformer classifier.
#[derive(Debug, Clone)]
pub struct Trainer {
    kind: ModelKind,
    model_config: ModelConfig,
    finetune: FineTuneConfig,
    model: Option<TransformerClassifier>,
    summary: Option<TrainingSummary>,
    sparse_embedding_grad: bool,
}

impl Trainer {
    /// A trainer with explicit architecture and fine-tuning configurations.
    pub fn new(kind: ModelKind, model_config: ModelConfig, finetune: FineTuneConfig) -> Self {
        model_config.validate();
        Self {
            kind,
            model_config,
            finetune,
            model: None,
            summary: None,
            sparse_embedding_grad: true,
        }
    }

    /// Switch the embedding-gradient path for the next `fit` (sparse by default;
    /// bit-identical either way — see
    /// [`TransformerClassifier::set_sparse_embedding_grad`]).
    pub fn set_sparse_embedding_grad(&mut self, enabled: bool) {
        self.sparse_embedding_grad = enabled;
        if let Some(model) = self.model.as_mut() {
            model.set_sparse_embedding_grad(enabled);
        }
    }

    /// The model kind being trained.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// The fitted model, if `fit` has run.
    pub fn model(&self) -> Option<&TransformerClassifier> {
        self.model.as_ref()
    }

    /// The training summary, if `fit` has run.
    pub fn summary(&self) -> Option<&TrainingSummary> {
        self.summary.as_ref()
    }

    /// The fine-tuning configuration.
    pub fn finetune_config(&self) -> &FineTuneConfig {
        &self.finetune
    }

    /// Fit on raw training texts and dense labels.
    pub fn fit(&mut self, texts: &[&str], labels: &[usize]) {
        assert_eq!(texts.len(), labels.len(), "texts/labels length mismatch");
        assert!(
            !texts.is_empty(),
            "cannot fine-tune on an empty training set"
        );

        // 1. Tokenizer from the training split.
        let mut vocab_builder = SubwordVocabBuilder::new(self.finetune.subword_vocab_size);
        for text in texts {
            vocab_builder.add_words(&words(text));
        }
        let tokenizer = vocab_builder.build();

        // 2. Fresh model.
        let mut model = TransformerClassifier::new(
            self.model_config.clone(),
            self.kind.name(),
            tokenizer,
            self.finetune.seed,
        );
        model.set_sparse_embedding_grad(self.sparse_embedding_grad);

        // 3. Optional masked-LM pre-initialisation on the (unlabeled) training texts.
        let pretrain_summary = self
            .finetune
            .pretrain
            .as_ref()
            .map(|config| pretrain_masked_lm(&mut model, texts, config));

        // 4. Fine-tune.
        let encoded: Vec<(Vec<usize>, usize)> = texts
            .iter()
            .zip(labels)
            .map(|(t, &l)| (model.encode(t), l))
            .collect();
        let mut rng = Rng64::new(self.finetune.seed ^ 0xF1E2_D3C4);
        let mut optimizer = Adam::with_lr(self.finetune.learning_rate);
        let mut epoch_losses = Vec::with_capacity(self.finetune.epochs);
        let mut order: Vec<usize> = (0..encoded.len()).collect();
        for _epoch in 0..self.finetune.epochs {
            rng.shuffle(&mut order);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for chunk in order.chunks(self.finetune.batch_size.max(1)) {
                let batch: Vec<(Vec<usize>, usize)> =
                    chunk.iter().map(|&i| encoded[i].clone()).collect();
                model.store_mut().zero_grads();
                let mut graph = Graph::new();
                let loss = model.batch_loss(&mut graph, &batch, &mut rng);
                epoch_loss += graph.scalar(loss);
                batches += 1;
                graph.backward(loss, model.store_mut());
                clip_gradients(model.store_mut(), self.finetune.gradient_clip);
                optimizer.step(model.store_mut());
            }
            epoch_losses.push(if batches == 0 {
                0.0
            } else {
                epoch_loss / batches as f64
            });
        }

        self.summary = Some(TrainingSummary {
            epoch_losses,
            pretrain: pretrain_summary,
            n_parameters: model.n_parameters(),
        });
        self.model = Some(model);
    }

    /// Predict dense class indices for texts. Panics if `fit` has not run.
    pub fn predict(&self, texts: &[&str]) -> Vec<usize> {
        let model = self
            .model
            .as_ref()
            .expect("Trainer::predict called before fit");
        model
            .predict_proba_texts(texts)
            .iter()
            .map(|p| holistix_linalg::argmax(p).unwrap_or(0))
            .collect()
    }

    /// Class-probability vector for one text. Panics if `fit` has not run.
    pub fn predict_proba(&self, text: &str) -> Vec<f64> {
        let model = self
            .model
            .as_ref()
            .expect("Trainer::predict_proba called before fit");
        model.predict_proba_text(text)
    }

    /// Class-probability vectors for a batch of texts, one row per text.
    /// The batch entry point of both transformer scorers (the serving
    /// layer's `Scorer` seam and the baseline pipeline): each text runs the
    /// graph-free inference forward alone, so each row equals
    /// [`predict_proba`](Self::predict_proba) on that text exactly. Panics if
    /// `fit` has not run.
    pub fn predict_proba_batch(&self, texts: &[&str]) -> Vec<Vec<f64>> {
        let model = self
            .model
            .as_ref()
            .expect("Trainer::predict_proba_batch called before fit");
        model.predict_proba_texts(texts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny, lexically separable two-ish-class task drawn from the paper's domain.
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

    fn fast_config(seed: u64, pretrain: Option<PretrainConfig>) -> (ModelConfig, FineTuneConfig) {
        let mut model = ModelConfig::for_kind(ModelKind::MentalBert, 6);
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
            pretrain,
            seed,
            ..FineTuneConfig::default()
        };
        (model, finetune)
    }

    #[test]
    fn fine_tuning_learns_a_separable_task() {
        let (texts, labels) = tiny_task();
        let (model_config, finetune) = fast_config(3, None);
        let mut trainer = Trainer::new(ModelKind::MentalBert, model_config, finetune);
        trainer.fit(&texts, &labels);
        let preds = trainer.predict(&texts);
        let acc =
            preds.iter().zip(&labels).filter(|(a, b)| a == b).count() as f64 / labels.len() as f64;
        assert!(acc >= 0.75, "training-set accuracy {acc}");
        let summary = trainer.summary().unwrap();
        assert_eq!(summary.epoch_losses.len(), 12);
        assert!(summary.epoch_losses.last().unwrap() < summary.epoch_losses.first().unwrap());
    }

    #[test]
    fn pretraining_stage_runs_when_configured() {
        let (texts, labels) = tiny_task();
        let (model_config, finetune) = fast_config(
            5,
            Some(PretrainConfig {
                epochs: 1,
                max_sequences: Some(8),
                ..PretrainConfig::in_domain()
            }),
        );
        let mut trainer = Trainer::new(ModelKind::MentalBert, model_config, finetune);
        trainer.fit(&texts, &labels);
        assert!(trainer.summary().unwrap().pretrain.is_some());
        assert!(trainer.model().unwrap().n_parameters() > 0);
    }

    #[test]
    fn training_is_deterministic_for_a_seed() {
        let (texts, labels) = tiny_task();
        let run = |seed| {
            let (model_config, finetune) = fast_config(seed, None);
            let mut trainer = Trainer::new(ModelKind::MentalBert, model_config, finetune);
            trainer.fit(&texts, &labels);
            trainer.predict_proba(texts[0])
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn probabilities_are_well_formed() {
        let (texts, labels) = tiny_task();
        let (model_config, finetune) = fast_config(9, None);
        let mut trainer = Trainer::new(ModelKind::MentalBert, model_config, finetune);
        trainer.fit(&texts, &labels);
        let proba = trainer.predict_proba("my job and money situation is hopeless");
        assert_eq!(proba.len(), 6);
        assert!((proba.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sparse_and_dense_fine_tuning_agree_bitwise() {
        let (texts, labels) = tiny_task();
        let run = |sparse: bool| {
            let (model_config, finetune) = fast_config(13, None);
            let mut trainer = Trainer::new(ModelKind::MentalBert, model_config, finetune);
            trainer.set_sparse_embedding_grad(sparse);
            trainer.fit(&texts, &labels);
            (
                trainer.summary().unwrap().epoch_losses.clone(),
                trainer.predict_proba(texts[0]),
            )
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn batch_prediction_matches_per_text_prediction() {
        let (texts, labels) = tiny_task();
        let (model_config, finetune) = fast_config(17, None);
        let mut trainer = Trainer::new(ModelKind::MentalBert, model_config, finetune);
        trainer.fit(&texts, &labels);
        let batched = trainer.predict_proba_batch(&texts);
        let model = trainer.model().unwrap();
        for (text, row) in texts.iter().zip(&batched) {
            assert_eq!(&crate::model::tests::tape_probabilities(model, text), row);
            assert_eq!(&trainer.predict_proba(text), row);
        }
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn predict_before_fit_panics() {
        let (model_config, finetune) = fast_config(1, None);
        let trainer = Trainer::new(ModelKind::Bert, model_config, finetune);
        let _ = trainer.predict(&["hello"]);
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_set_panics() {
        let (model_config, finetune) = fast_config(1, None);
        let mut trainer = Trainer::new(ModelKind::Bert, model_config, finetune);
        trainer.fit(&[], &[]);
    }
}
