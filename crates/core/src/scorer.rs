//! The unified inference seam: one object-safe trait every servable model
//! implements.
//!
//! The serving layer (`holistix-serve`) used to be hard-wired to
//! [`FittedBaseline`]: its registry, batcher and handlers all named the
//! concrete type, so heterogeneous backends (a classical sparse pipeline next
//! to a transformer analogue) could not share the stack, and there was no seam
//! for per-model batch queues. [`Scorer`] is that seam:
//!
//! * [`probabilities`](Scorer::probabilities) — the one batched entry point;
//!   every row depends only on that row's text, so batched output is
//!   bit-for-bit identical to text-at-a-time scoring (the property the
//!   micro-batcher relies on);
//! * [`labels`](Scorer::labels) — the class labels the probability columns map
//!   to (the six wellness-dimension codes for every paper model);
//! * [`kind`](Scorer::kind) — which Table IV baseline the scorer serves, the
//!   registry key.
//!
//! Three implementations ship here: [`FittedBaseline`] (classical sparse path
//! *and* the trainer-backed transformer arm), [`TransformerScorer`], a thin
//! scorer around a fine-tuned [`Trainer`] from `holistix-transformer` for
//! deployments that train transformers outside the baseline pipeline, and
//! [`QuantizedScorer`], its i8 sibling. Both f64 transformer scorers score
//! through [`Trainer::predict_proba_batch`], and all three transformer paths
//! run `holistix-transformer`'s graph-free inference forward one text at a
//! time; the autograd tape is for training only. Any future backend
//! (distilled models, remote scorers) plugs into serving by implementing this
//! trait — nothing in `holistix-serve` names a concrete model type anymore.

use crate::pipeline::{BaselineKind, FittedBaseline, SpeedProfile};
use holistix_corpus::ALL_DIMENSIONS;
use holistix_explain::ProbabilityModel;
use holistix_transformer::{ModelKind, QuantizedTransformer, Trainer};
use std::sync::Arc;
use std::time::Duration;

/// An object-safe, thread-shareable scorer: the only interface the serving
/// stack (registry, batch queues, explain jobs) knows about.
pub trait Scorer: Send + Sync {
    /// Class-probability vectors, one row of 6 per text. Rows must depend only
    /// on their own text, so batching never changes answers.
    fn probabilities(&self, texts: &[&str]) -> Vec<Vec<f64>>;

    /// Which Table IV baseline this scorer serves (the registry key).
    fn kind(&self) -> BaselineKind;

    /// Unused: nothing in the workspace reads it. It survives, returning
    /// zero, only because the `holibench` benchmark's scorer wrapper
    /// implements it, and goes when that benchmark is next redefined.
    fn cost_hint(&self) -> Duration {
        Duration::ZERO
    }

    /// The class labels the probability columns map to, in column order. Every
    /// paper model scores the six wellness dimensions; a scorer for a
    /// different label space overrides this.
    fn labels(&self) -> Vec<String> {
        ALL_DIMENSIONS
            .iter()
            .map(|d| d.code().to_string())
            .collect()
    }

    /// Convenience: the probability row for one text.
    fn probabilities_one(&self, text: &str) -> Vec<f64> {
        self.probabilities(&[text])
            .into_iter()
            .next()
            .unwrap_or_else(|| vec![0.0; self.labels().len()])
    }
}

/// Any scorer is a LIME-explainable probability model, so `/explain` works
/// against `Arc<dyn Scorer>` without knowing the backend. The class count
/// comes from [`labels`](Scorer::labels), so a scorer with a non-paper label
/// space explains consistently too.
impl ProbabilityModel for dyn Scorer {
    fn predict_proba(&self, texts: &[&str]) -> Vec<Vec<f64>> {
        self.probabilities(texts)
    }

    fn n_classes(&self) -> usize {
        self.labels().len()
    }
}

impl Scorer for FittedBaseline {
    fn probabilities(&self, texts: &[&str]) -> Vec<Vec<f64>> {
        FittedBaseline::probabilities(self, texts)
    }

    fn kind(&self) -> BaselineKind {
        match self {
            FittedBaseline::Classical { kind, .. } => *kind,
            FittedBaseline::Transformer { trainer } => BaselineKind::Transformer(trainer.kind()),
        }
    }
}

/// A scorer around a fine-tuned transformer [`Trainer`] from
/// `holistix-transformer`.
///
/// [`FittedBaseline`] can already hold a trainer, but only by going through
/// the baseline fit pipeline. This wrapper is the seam for transformers
/// trained elsewhere — a zoo checkpoint, a custom fine-tune, an
/// experiment's survivor — to serve behind the same registry and batch
/// queues as everything else.
pub struct TransformerScorer {
    trainer: Trainer,
}

impl TransformerScorer {
    /// Wrap an already fine-tuned trainer. Panics if the trainer has not been
    /// fitted — an unfitted scorer would panic on its first request instead.
    pub fn from_trainer(trainer: Trainer) -> Self {
        assert!(
            trainer.model().is_some(),
            "TransformerScorer requires a fitted Trainer"
        );
        Self { trainer }
    }

    /// Fine-tune a fresh analogue of `model_kind` under `profile` and wrap it.
    /// Uses the same recipe as the [`FittedBaseline`] transformer arm, so the
    /// two paths train bit-identical models for the same inputs.
    pub fn fit(
        model_kind: ModelKind,
        profile: SpeedProfile,
        texts: &[&str],
        labels: &[usize],
        seed: u64,
    ) -> Self {
        let mut trainer = FittedBaseline::transformer_recipe(model_kind, profile, seed).build();
        trainer.fit(texts, labels);
        Self { trainer }
    }

    /// The wrapped trainer.
    pub fn trainer(&self) -> &Trainer {
        &self.trainer
    }
}

impl Scorer for TransformerScorer {
    fn probabilities(&self, texts: &[&str]) -> Vec<Vec<f64>> {
        self.trainer.predict_proba_batch(texts)
    }

    fn kind(&self) -> BaselineKind {
        BaselineKind::Transformer(self.trainer.kind())
    }
}

/// A [`Scorer`] serving a fitted transformer through weight-only i8 quantized
/// inference (`holistix-transformer`'s [`QuantizedTransformer`]).
///
/// Built by quantizing an already-fitted [`TransformerScorer`], so the f64
/// reference and its quantized sibling can serve side by side (kinds differ:
/// [`BaselineKind::QuantizedTransformer`], name `<model>-i8`). Class
/// probabilities drift from the f64 scorer by at most
/// [`holistix_transformer::MAX_PROBABILITY_DRIFT`]; labels agree exactly on
/// the seeded evaluation task (both asserted in tests).
pub struct QuantizedScorer {
    quantized: QuantizedTransformer,
    kind: BaselineKind,
}

impl QuantizedScorer {
    /// Quantize a fitted transformer scorer. The f64 scorer is left untouched
    /// (quantization reads the parameter store; it never mutates it).
    pub fn from_transformer(scorer: &TransformerScorer) -> Self {
        let model = scorer
            .trainer()
            .model()
            .expect("TransformerScorer always holds a fitted trainer");
        Self {
            quantized: QuantizedTransformer::from_classifier(model),
            kind: BaselineKind::QuantizedTransformer(scorer.trainer().kind()),
        }
    }

    /// The quantized model.
    pub fn model(&self) -> &QuantizedTransformer {
        &self.quantized
    }
}

impl Scorer for QuantizedScorer {
    fn probabilities(&self, texts: &[&str]) -> Vec<Vec<f64>> {
        self.quantized.predict_proba_texts(texts)
    }

    fn kind(&self) -> BaselineKind {
        self.kind
    }
}

/// Fit the right scorer for a baseline kind: classical kinds go through the
/// sharded sparse fit of [`FittedBaseline`] (`n_threads` vectoriser shards),
/// transformer kinds through [`TransformerScorer`] (epoch-sequential, the
/// thread knob does not apply), quantized kinds by fitting the f64 transformer
/// and quantizing it. This is the registry's one fit entry point.
pub fn fit_scorer(
    kind: BaselineKind,
    profile: SpeedProfile,
    texts: &[&str],
    labels: &[usize],
    seed: u64,
    n_threads: usize,
) -> Arc<dyn Scorer> {
    match kind {
        BaselineKind::Transformer(model_kind) => Arc::new(TransformerScorer::fit(
            model_kind, profile, texts, labels, seed,
        )),
        BaselineKind::QuantizedTransformer(model_kind) => {
            let f64_scorer = TransformerScorer::fit(model_kind, profile, texts, labels, seed);
            Arc::new(QuantizedScorer::from_transformer(&f64_scorer))
        }
        classical => Arc::new(FittedBaseline::fit_with_threads(
            classical, profile, texts, labels, seed, n_threads,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holistix_corpus::HolistixCorpus;

    fn training_data(n: usize, seed: u64) -> (Vec<String>, Vec<usize>) {
        let corpus = HolistixCorpus::generate_small(n, seed);
        (
            corpus.posts.iter().map(|p| p.post.text.clone()).collect(),
            corpus.label_indices(),
        )
    }

    #[test]
    fn fitted_baseline_scores_identically_through_the_trait() {
        let (texts, labels) = training_data(120, 3);
        let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        let fitted = FittedBaseline::fit(
            BaselineKind::LogisticRegression,
            SpeedProfile::Tiny,
            &refs,
            &labels,
            1,
        );
        let direct = fitted.probabilities(&refs[..5]);
        let scorer: &dyn Scorer = &fitted;
        assert_eq!(scorer.probabilities(&refs[..5]), direct);
        assert_eq!(scorer.probabilities_one(refs[0]), direct[0]);
        assert_eq!(scorer.kind(), BaselineKind::LogisticRegression);
        assert_eq!(scorer.labels().len(), 6);
    }

    #[test]
    fn transformer_scorer_matches_the_baseline_transformer_arm() {
        let (texts, labels) = training_data(60, 5);
        let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        let baseline = FittedBaseline::fit(
            BaselineKind::Transformer(ModelKind::DistilBert),
            SpeedProfile::Tiny,
            &refs,
            &labels,
            2,
        );
        let scorer =
            TransformerScorer::fit(ModelKind::DistilBert, SpeedProfile::Tiny, &refs, &labels, 2);
        // Same recipe, same seed, same data: the two paths train bit-identical
        // models, so the Scorer seam adds heterogeneity without changing answers.
        assert_eq!(
            scorer.probabilities(&refs[..3]),
            baseline.probabilities(&refs[..3])
        );
        assert_eq!(
            scorer.kind(),
            BaselineKind::Transformer(ModelKind::DistilBert)
        );
    }

    #[test]
    fn fit_scorer_dispatches_on_kind() {
        let (texts, labels) = training_data(90, 7);
        let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        let classical = fit_scorer(
            BaselineKind::GaussianNb,
            SpeedProfile::Tiny,
            &refs,
            &labels,
            7,
            2,
        );
        assert_eq!(classical.kind(), BaselineKind::GaussianNb);
        assert_eq!(classical.probabilities_one(refs[0]).len(), 6);
    }

    #[test]
    fn dyn_scorer_is_a_probability_model() {
        let (texts, labels) = training_data(80, 9);
        let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        let fitted = FittedBaseline::fit(
            BaselineKind::LogisticRegression,
            SpeedProfile::Tiny,
            &refs,
            &labels,
            1,
        );
        let scorer: Arc<dyn Scorer> = Arc::new(fitted);
        let model: &dyn Scorer = &*scorer;
        assert_eq!(ProbabilityModel::n_classes(model), 6);
        let proba = ProbabilityModel::predict_proba(model, &[refs[0]]);
        assert_eq!(proba, scorer.probabilities(&[refs[0]]));
    }

    #[test]
    #[should_panic(expected = "fitted Trainer")]
    fn unfitted_trainer_is_rejected() {
        let recipe =
            FittedBaseline::transformer_recipe(ModelKind::Bert, SpeedProfile::Tiny, 1).build();
        let _ = TransformerScorer::from_trainer(recipe);
    }

    #[test]
    fn quantized_scorer_agrees_with_f64_on_the_seeded_eval_set() {
        // The Table IV task at test scale: fit a transformer on the seeded
        // corpus, quantize it, and hold the i8 path to the documented gates —
        // 100 % label agreement and probability drift within the bound.
        let (texts, labels) = training_data(60, 5);
        let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        let f64_scorer =
            TransformerScorer::fit(ModelKind::MentalBert, SpeedProfile::Tiny, &refs, &labels, 2);
        let quant = QuantizedScorer::from_transformer(&f64_scorer);
        assert_eq!(
            quant.kind(),
            BaselineKind::QuantizedTransformer(ModelKind::MentalBert)
        );
        assert_eq!(quant.kind().name(), "MentalBERT-i8");

        let exact = f64_scorer.probabilities(&refs);
        let approx = quant.probabilities(&refs);
        let mut max_drift = 0.0f64;
        for (text, (e, a)) in refs.iter().zip(exact.iter().zip(&approx)) {
            let exact_label = holistix_linalg::argmax(e).unwrap();
            let approx_label = holistix_linalg::argmax(a).unwrap();
            assert_eq!(exact_label, approx_label, "label flipped for {text:?}");
            for (pe, pa) in e.iter().zip(a) {
                max_drift = max_drift.max((pe - pa).abs());
            }
        }
        assert!(
            max_drift <= holistix_transformer::MAX_PROBABILITY_DRIFT,
            "probability drift {max_drift} exceeds the documented bound"
        );
        // Batched scoring equals one-at-a-time scoring through the trait.
        assert_eq!(quant.probabilities_one(refs[0]), approx[0]);
    }

    #[test]
    fn fit_scorer_dispatches_quantized_kinds() {
        let (texts, labels) = training_data(40, 13);
        let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        let scorer = fit_scorer(
            BaselineKind::QuantizedTransformer(ModelKind::DistilBert),
            SpeedProfile::Tiny,
            &refs,
            &labels,
            4,
            1,
        );
        assert_eq!(
            scorer.kind(),
            BaselineKind::QuantizedTransformer(ModelKind::DistilBert)
        );
        let proba = scorer.probabilities_one(refs[0]);
        assert_eq!(proba.len(), 6);
        assert!((proba.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }
}
