//! The unified baseline registry and pipeline adapters.
//!
//! Table IV of the paper compares nine models: three classical (TF-IDF + LR /
//! Linear SVM / Gaussian NB) and six transformers. [`BaselineKind`] enumerates them
//! with the paper's row names, [`FittedBaseline`] is the result of training any of
//! them, and [`BaselinePipeline`] adapts the whole family to the cross-validation
//! driver of `holistix-ml` so one harness produces the entire table.
//!
//! [`FittedBaseline`] also implements the explainability crate's
//! [`ProbabilityModel`] trait, so a fitted model can be handed directly to the LIME
//! explainer for the Table V experiment.

use holistix_explain::ProbabilityModel;
use holistix_linalg::{CsrMatrix, FeatureMatrix, Matrix};
use holistix_ml::{
    scoped_map, Classifier, GaussianNaiveBayes, LinearSvm, LinearSvmConfig, LogisticRegression,
    LogisticRegressionConfig, TextPipeline, TfidfVectorizer, VectorizerOptions,
};
use holistix_transformer::{FineTuneRecipe, ModelKind, Trainer};
use serde::{Deserialize, Serialize};

/// The nine Table IV baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BaselineKind {
    /// TF-IDF + multinomial logistic regression ("LR").
    LogisticRegression,
    /// TF-IDF + one-vs-rest linear SVM ("Linear SVM").
    LinearSvm,
    /// TF-IDF + Gaussian Naive Bayes ("Gaussian NB").
    GaussianNb,
    /// A fine-tuned transformer analogue.
    Transformer(ModelKind),
    /// A fine-tuned transformer analogue served through weight-only i8
    /// quantized inference (see `holistix-transformer`'s `quant` module). Not a
    /// Table IV row — a serving-side sibling of [`BaselineKind::Transformer`].
    QuantizedTransformer(ModelKind),
}

impl BaselineKind {
    /// All nine baselines in the order Table IV lists them.
    pub const ALL: [BaselineKind; 9] = [
        BaselineKind::LogisticRegression,
        BaselineKind::LinearSvm,
        BaselineKind::GaussianNb,
        BaselineKind::Transformer(ModelKind::Bert),
        BaselineKind::Transformer(ModelKind::DistilBert),
        BaselineKind::Transformer(ModelKind::MentalBert),
        BaselineKind::Transformer(ModelKind::FlanT5),
        BaselineKind::Transformer(ModelKind::Xlnet),
        BaselineKind::Transformer(ModelKind::Gpt2),
    ];

    /// The three classical baselines.
    pub const CLASSICAL: [BaselineKind; 3] = [
        BaselineKind::LogisticRegression,
        BaselineKind::LinearSvm,
        BaselineKind::GaussianNb,
    ];

    /// The six quantized serving siblings of the transformer rows. Not part of
    /// [`ALL`](Self::ALL): Table IV sweeps stay f64; these exist for serving
    /// and the inference benches.
    pub const QUANTIZED: [BaselineKind; 6] = [
        BaselineKind::QuantizedTransformer(ModelKind::Bert),
        BaselineKind::QuantizedTransformer(ModelKind::DistilBert),
        BaselineKind::QuantizedTransformer(ModelKind::MentalBert),
        BaselineKind::QuantizedTransformer(ModelKind::FlanT5),
        BaselineKind::QuantizedTransformer(ModelKind::Xlnet),
        BaselineKind::QuantizedTransformer(ModelKind::Gpt2),
    ];

    /// The paper's row label (quantized kinds append `-i8`).
    pub fn name(&self) -> String {
        match self {
            BaselineKind::LogisticRegression => "LR".to_string(),
            BaselineKind::LinearSvm => "Linear SVM".to_string(),
            BaselineKind::GaussianNb => "Gaussian NB".to_string(),
            BaselineKind::Transformer(kind) => kind.name().to_string(),
            BaselineKind::QuantizedTransformer(kind) => format!("{}-i8", kind.name()),
        }
    }

    /// Whether the baseline is a transformer (quantized or not).
    pub fn is_transformer(&self) -> bool {
        matches!(
            self,
            BaselineKind::Transformer(_) | BaselineKind::QuantizedTransformer(_)
        )
    }

    /// Coarse scorer family, the `scorer_kind` label in the serving metrics.
    pub fn scorer_family(&self) -> &'static str {
        match self {
            BaselineKind::LogisticRegression
            | BaselineKind::LinearSvm
            | BaselineKind::GaussianNb => "classical",
            BaselineKind::Transformer(_) => "transformer",
            BaselineKind::QuantizedTransformer(_) => "quantized",
        }
    }
}

/// How much compute to spend on training. The `Paper` profile follows the paper's
/// hyper-parameters; `Fast` shrinks the transformers so full-table sweeps finish in a
/// benchmark run; `Tiny` is for unit and integration tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpeedProfile {
    /// Paper-faithful hyper-parameters (10 epochs, full-size analogues).
    Paper,
    /// Reduced-cost profile preserving relative model ordering.
    Fast,
    /// Minimal profile for tests.
    Tiny,
}

/// A trained classical classifier (the three scikit-learn-style baselines).
#[derive(Debug, Clone)]
pub enum ClassicalClassifier {
    /// Multinomial logistic regression.
    LogisticRegression(LogisticRegression),
    /// One-vs-rest linear SVM.
    LinearSvm(LinearSvm),
    /// Gaussian Naive Bayes.
    GaussianNb(GaussianNaiveBayes),
}

impl ClassicalClassifier {
    fn as_classifier(&self) -> &(dyn Classifier + Sync) {
        match self {
            ClassicalClassifier::LogisticRegression(m) => m,
            ClassicalClassifier::LinearSvm(m) => m,
            ClassicalClassifier::GaussianNb(m) => m,
        }
    }
}

/// Texts per scoring batch: large enough to amortise per-batch overhead, small
/// enough that a LIME perturbation set (200 samples) spreads across threads.
const SCORE_BATCH: usize = 64;

/// Split `texts` into at most `available_parallelism` contiguous chunks of at
/// least [`SCORE_BATCH`] texts, score each chunk on its own thread with
/// [`scoped_map`], and return the per-chunk results in order. Each chunk is
/// vectorised to CSR and scored independently; since every row's features and
/// scores depend only on that row's text, the result is bit-for-bit identical
/// to scoring texts one at a time.
fn score_chunked<T, F>(texts: &[&str], score: F) -> Vec<T>
where
    T: Send,
    F: Fn(&[&str]) -> T + Sync,
{
    if texts.len() <= SCORE_BATCH {
        return vec![score(texts)];
    }
    // Asked only past the short-circuit: std re-reads the cgroup CPU quota on
    // every call, which costs more than scoring one classical text.
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if threads < 2 {
        return vec![score(texts)];
    }
    let n_chunks = threads.min(texts.len().div_ceil(SCORE_BATCH));
    let chunk_size = texts.len().div_ceil(n_chunks);
    let chunks: Vec<&[&str]> = texts.chunks(chunk_size).collect();
    scoped_map(&chunks, |chunk| score(chunk))
}

/// Class probabilities for classical baselines: sparse vectorisation + sparse
/// scoring, parallel across chunks.
fn classical_predict_proba(
    vectorizer: &TfidfVectorizer,
    classifier: &ClassicalClassifier,
    texts: &[&str],
) -> Matrix {
    let blocks = score_chunked(texts, |chunk| {
        let features = FeatureMatrix::Sparse(vectorizer.transform_sparse(chunk));
        classifier.as_classifier().predict_proba_features(&features)
    });
    let refs: Vec<&Matrix> = blocks.iter().collect();
    Matrix::vstack(&refs)
}

/// Hard predictions for classical baselines, batched and parallel like
/// [`classical_predict_proba`].
fn classical_predict(
    vectorizer: &TfidfVectorizer,
    classifier: &ClassicalClassifier,
    texts: &[&str],
) -> Vec<usize> {
    score_chunked(texts, |chunk| {
        let features = FeatureMatrix::Sparse(vectorizer.transform_sparse(chunk));
        classifier.as_classifier().predict_features(&features)
    })
    .into_iter()
    .flatten()
    .collect()
}

/// A fitted baseline: ready to predict and to be explained with LIME.
pub enum FittedBaseline {
    /// TF-IDF features + a classical classifier. The vectoriser is boxed for
    /// the same reason the trainer below is: fitted baselines move through
    /// registries and CV fold vectors by value, so the enum stays pointer-thin.
    Classical {
        /// Which baseline this is.
        kind: BaselineKind,
        /// The vectoriser fitted on the training split.
        vectorizer: Box<TfidfVectorizer>,
        /// The trained classifier.
        classifier: ClassicalClassifier,
    },
    /// A fine-tuned transformer analogue. Boxed: the trainer (model, Adam
    /// state, batch scratch) dwarfs the classical variant, and fitted
    /// baselines move through registries and CV fold vectors by value.
    Transformer {
        /// The trainer holding the fitted model.
        trainer: Box<Trainer>,
    },
}

impl FittedBaseline {
    /// Number of epochs the classical SGD classifiers train for under each profile.
    fn classical_epochs(profile: SpeedProfile) -> usize {
        match profile {
            SpeedProfile::Paper => 200,
            SpeedProfile::Fast => 120,
            SpeedProfile::Tiny => 60,
        }
    }

    /// The transformer recipe for a kind under a profile. `pub(crate)` so the
    /// [`crate::scorer::TransformerScorer`] fit path trains the same analogue
    /// the [`FittedBaseline::Transformer`] arm would.
    pub(crate) fn transformer_recipe(
        kind: ModelKind,
        profile: SpeedProfile,
        seed: u64,
    ) -> FineTuneRecipe {
        match profile {
            SpeedProfile::Paper => FineTuneRecipe::paper(kind, 6, seed),
            SpeedProfile::Fast => FineTuneRecipe::fast(kind, 6, seed),
            SpeedProfile::Tiny => {
                let mut recipe = FineTuneRecipe::fast(kind, 6, seed);
                recipe.model.hidden_dim = 16;
                recipe.model.n_heads = 2;
                recipe.model.ff_dim = 32;
                recipe.model.max_len = 16;
                recipe.model.dropout = 0.0;
                recipe.finetune.epochs = 2;
                recipe.finetune.subword_vocab_size = 400;
                if let Some(pretrain) = &mut recipe.finetune.pretrain {
                    pretrain.epochs = 1;
                    pretrain.max_sequences = Some(40);
                }
                recipe
            }
        }
    }

    /// Train a baseline on raw texts and dense labels (single-shard case of
    /// [`fit_with_threads`](Self::fit_with_threads)).
    pub fn fit(
        kind: BaselineKind,
        profile: SpeedProfile,
        texts: &[&str],
        labels: &[usize],
        seed: u64,
    ) -> Self {
        Self::fit_with_threads(kind, profile, texts, labels, seed, 1)
    }

    /// Train a baseline with the classical feature fit sharded across
    /// `n_threads` threads (the map-reduce fit of
    /// [`TfidfVectorizer::fit_transform_sparse_parallel`], one tokenisation
    /// pass). Fitted models are bit-identical for every `n_threads`.
    /// Transformer baselines ignore the knob — their training loop is
    /// epoch-sequential by construction.
    pub fn fit_with_threads(
        kind: BaselineKind,
        profile: SpeedProfile,
        texts: &[&str],
        labels: &[usize],
        seed: u64,
        n_threads: usize,
    ) -> Self {
        assert_eq!(texts.len(), labels.len(), "texts/labels length mismatch");
        assert!(
            !texts.is_empty(),
            "cannot fit a baseline on an empty training set"
        );
        match kind {
            BaselineKind::Transformer(model_kind)
            | BaselineKind::QuantizedTransformer(model_kind) => {
                // The quantized kind trains the same f64 model; quantization is a
                // serving-time transform (`QuantizedScorer` in `scorer`).
                let mut trainer = Self::transformer_recipe(model_kind, profile, seed).build();
                trainer.fit(texts, labels);
                FittedBaseline::Transformer {
                    trainer: Box::new(trainer),
                }
            }
            classical => {
                // CSR end to end: the dense documents × vocabulary grid is never
                // materialised, for training or for any later prediction — and the
                // fit tokenises the corpus exactly once.
                let (vectorizer, features) = TfidfVectorizer::fit_transform_sparse_parallel(
                    texts,
                    VectorizerOptions::paper_default(),
                    n_threads,
                );
                let features = FeatureMatrix::Sparse(features);
                let epochs = Self::classical_epochs(profile);
                let classifier = match classical {
                    BaselineKind::LogisticRegression => {
                        let mut model = LogisticRegression::new(LogisticRegressionConfig {
                            epochs,
                            seed,
                            ..LogisticRegressionConfig::default()
                        });
                        model.fit_features(&features, labels);
                        ClassicalClassifier::LogisticRegression(model)
                    }
                    BaselineKind::LinearSvm => {
                        let mut model = LinearSvm::new(LinearSvmConfig {
                            epochs,
                            seed,
                            ..LinearSvmConfig::default()
                        });
                        model.fit_features(&features, labels);
                        ClassicalClassifier::LinearSvm(model)
                    }
                    BaselineKind::GaussianNb => {
                        let mut model = GaussianNaiveBayes::default_config();
                        model.fit_features(&features, labels);
                        ClassicalClassifier::GaussianNb(model)
                    }
                    BaselineKind::Transformer(_) | BaselineKind::QuantizedTransformer(_) => {
                        unreachable!("handled above")
                    }
                };
                FittedBaseline::Classical {
                    kind: classical,
                    vectorizer: Box::new(vectorizer),
                    classifier,
                }
            }
        }
    }

    /// The Table IV row label of the fitted model.
    pub fn name(&self) -> String {
        match self {
            FittedBaseline::Classical { kind, .. } => kind.name(),
            FittedBaseline::Transformer { trainer } => trainer.kind().name().to_string(),
        }
    }

    /// Hard class predictions for texts. Classical baselines vectorise to CSR and
    /// score in parallel batches; large inputs (CV test folds, LIME perturbation
    /// sets) fan out across threads with bit-identical results.
    pub fn predict(&self, texts: &[&str]) -> Vec<usize> {
        match self {
            FittedBaseline::Classical {
                vectorizer,
                classifier,
                ..
            } => classical_predict(vectorizer, classifier, texts),
            FittedBaseline::Transformer { trainer } => trainer.predict(texts),
        }
    }

    /// Class-probability vectors for texts (always 6 columns, padded if a training
    /// fold happened to miss a class). Classical baselines use the batched
    /// parallel sparse path of [`predict`](Self::predict).
    pub fn probabilities(&self, texts: &[&str]) -> Vec<Vec<f64>> {
        match self {
            FittedBaseline::Classical {
                vectorizer,
                classifier,
                ..
            } => {
                let proba = classical_predict_proba(vectorizer, classifier, texts);
                (0..proba.rows())
                    .map(|r| {
                        let mut row = proba.row(r).to_vec();
                        row.resize(6, 0.0);
                        row
                    })
                    .collect()
            }
            FittedBaseline::Transformer { trainer } => trainer.predict_proba_batch(texts),
        }
    }

    /// Convenience: probability vector for one text.
    pub fn probabilities_one(&self, text: &str) -> Vec<f64> {
        self.probabilities(&[text])
            .into_iter()
            .next()
            .unwrap_or_else(|| vec![0.0; 6])
    }
}

impl ProbabilityModel for FittedBaseline {
    fn predict_proba(&self, texts: &[&str]) -> Vec<Vec<f64>> {
        self.probabilities(texts)
    }

    fn n_classes(&self) -> usize {
        6
    }
}

/// Adapter that lets any [`BaselineKind`] run inside the `holistix-ml`
/// cross-validation driver (one fresh model per fold).
pub struct BaselinePipeline {
    kind: BaselineKind,
    profile: SpeedProfile,
    seed: u64,
    fit_threads: usize,
    fitted: Option<FittedBaseline>,
}

impl BaselinePipeline {
    /// A new, unfitted pipeline.
    pub fn new(kind: BaselineKind, profile: SpeedProfile, seed: u64) -> Self {
        Self {
            kind,
            profile,
            seed,
            fit_threads: 1,
            fitted: None,
        }
    }

    /// The fitted baseline, if `fit` has run.
    pub fn fitted(&self) -> Option<&FittedBaseline> {
        self.fitted.as_ref()
    }

    /// The baseline kind.
    pub fn kind(&self) -> BaselineKind {
        self.kind
    }
}

impl TextPipeline for BaselinePipeline {
    fn fit(&mut self, texts: &[&str], labels: &[usize]) {
        self.fitted = Some(FittedBaseline::fit_with_threads(
            self.kind,
            self.profile,
            texts,
            labels,
            self.seed,
            self.fit_threads,
        ));
    }

    fn predict(&self, texts: &[&str]) -> Vec<usize> {
        self.fitted
            .as_ref()
            .expect("BaselinePipeline::predict called before fit")
            .predict(texts)
    }

    fn name(&self) -> String {
        self.kind.name()
    }

    fn set_fit_threads(&mut self, n_threads: usize) {
        self.fit_threads = n_threads.max(1);
    }
}

/// Convenience for the LIME explainer when only raw probability closures are handy:
/// wraps a `Fn(&str) -> Vec<f64>`.
pub struct FnProbabilityModel<F: Fn(&str) -> Vec<f64>> {
    function: F,
    n_classes: usize,
}

impl<F: Fn(&str) -> Vec<f64>> FnProbabilityModel<F> {
    /// Wrap a closure.
    pub fn new(function: F, n_classes: usize) -> Self {
        Self {
            function,
            n_classes,
        }
    }
}

impl<F: Fn(&str) -> Vec<f64>> ProbabilityModel for FnProbabilityModel<F> {
    fn predict_proba(&self, texts: &[&str]) -> Vec<Vec<f64>> {
        texts.iter().map(|t| (self.function)(t)).collect()
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

/// Dense feature matrix helper shared by ablation benches: TF-IDF transform of texts
/// with the paper-default options. Production code paths use
/// [`tfidf_features_sparse`]; this dense variant exists for benches that measure
/// the dense/sparse gap and for ablation studies over raw matrices.
pub fn tfidf_features(texts: &[&str]) -> (TfidfVectorizer, Matrix) {
    let vectorizer = TfidfVectorizer::fit(texts, VectorizerOptions::paper_default());
    let features = vectorizer.transform(texts);
    (vectorizer, features)
}

/// Sparse counterpart of [`tfidf_features`]: CSR TF-IDF of texts with the
/// paper-default options, never allocating the dense grid.
pub fn tfidf_features_sparse(texts: &[&str]) -> (TfidfVectorizer, CsrMatrix) {
    let vectorizer = TfidfVectorizer::fit(texts, VectorizerOptions::paper_default());
    let features = vectorizer.transform_sparse(texts);
    (vectorizer, features)
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
    fn registry_names_match_table4_rows() {
        let names: Vec<String> = BaselineKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec![
                "LR",
                "Linear SVM",
                "Gaussian NB",
                "BERT",
                "DistilBERT",
                "MentalBERT",
                "Flan-T5",
                "XLNet",
                "GPT-2.0"
            ]
        );
        assert!(BaselineKind::Transformer(ModelKind::Bert).is_transformer());
        assert!(!BaselineKind::LogisticRegression.is_transformer());
    }

    #[test]
    fn classical_baselines_fit_and_predict() {
        let (texts, labels) = training_data(120, 3);
        let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        for kind in BaselineKind::CLASSICAL {
            let fitted = FittedBaseline::fit(kind, SpeedProfile::Tiny, &refs, &labels, 1);
            let preds = fitted.predict(&refs[..10]);
            assert_eq!(preds.len(), 10);
            assert!(preds.iter().all(|&p| p < 6));
            let proba = fitted.probabilities(&refs[..3]);
            assert!(proba.iter().all(|p| p.len() == 6));
            assert_eq!(fitted.name(), kind.name());
        }
    }

    #[test]
    fn transformer_baseline_fits_under_tiny_profile() {
        let (texts, labels) = training_data(60, 5);
        let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        let fitted = FittedBaseline::fit(
            BaselineKind::Transformer(ModelKind::DistilBert),
            SpeedProfile::Tiny,
            &refs,
            &labels,
            2,
        );
        let proba = fitted.probabilities_one(refs[0]);
        assert_eq!(proba.len(), 6);
        assert!((proba.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        assert_eq!(fitted.name(), "DistilBERT");
    }

    #[test]
    fn pipeline_adapter_plugs_into_cross_validation() {
        use holistix_corpus::splits::kfold_stratified;
        use holistix_ml::cross_validate;
        let (texts, labels) = training_data(150, 7);
        let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        let folds = kfold_stratified(&labels, 6, 3, 1);
        let report = cross_validate(
            &refs,
            &labels,
            6,
            &folds,
            || BaselinePipeline::new(BaselineKind::LogisticRegression, SpeedProfile::Tiny, 1),
            true,
        );
        assert_eq!(report.model_name, "LR");
        assert!(report.averaged.accuracy > 0.35);
    }

    #[test]
    fn fitted_baseline_is_a_probability_model() {
        let (texts, labels) = training_data(80, 9);
        let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        let fitted = FittedBaseline::fit(
            BaselineKind::LogisticRegression,
            SpeedProfile::Tiny,
            &refs,
            &labels,
            1,
        );
        let model: &dyn ProbabilityModel = &fitted;
        assert_eq!(model.n_classes(), 6);
        let proba = model.predict_proba(&[refs[0]]);
        assert!((proba[0].iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn fn_probability_model_wraps_closures() {
        let model = FnProbabilityModel::new(|_t| vec![0.5, 0.5], 2);
        assert_eq!(model.n_classes(), 2);
        assert_eq!(model.predict_proba(&["x"]).len(), 1);
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn pipeline_predict_before_fit_panics() {
        let pipeline = BaselinePipeline::new(BaselineKind::GaussianNb, SpeedProfile::Tiny, 1);
        let _ = pipeline.predict(&["text"]);
    }

    /// The acceptance bar for the batched parallel scorer: a large batch (forcing
    /// the multi-threaded chunked path) must reproduce one-text-at-a-time scoring
    /// bit for bit, for every classical baseline.
    #[test]
    fn batched_parallel_scoring_matches_single_text_bitwise() {
        let (texts, labels) = training_data(420, 17);
        let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        for kind in BaselineKind::CLASSICAL {
            let fitted =
                FittedBaseline::fit(kind, SpeedProfile::Tiny, &refs[..200], &labels[..200], 3);
            let batched = fitted.probabilities(&refs);
            assert_eq!(batched.len(), refs.len());
            for (i, text) in refs.iter().enumerate().step_by(29) {
                let single = fitted.probabilities_one(text);
                assert_eq!(batched[i], single, "{} row {i} diverged", kind.name());
            }
            let batched_preds = fitted.predict(&refs);
            for (i, text) in refs.iter().enumerate().step_by(41) {
                assert_eq!(batched_preds[i], fitted.predict(&[text])[0]);
            }
        }
    }

    #[test]
    fn sharded_fit_produces_bit_identical_baselines() {
        let (texts, labels) = training_data(140, 11);
        let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        for kind in BaselineKind::CLASSICAL {
            let sequential = FittedBaseline::fit(kind, SpeedProfile::Tiny, &refs, &labels, 5);
            let expected = sequential.probabilities(&refs[..12]);
            for n_threads in [2, 4] {
                let sharded = FittedBaseline::fit_with_threads(
                    kind,
                    SpeedProfile::Tiny,
                    &refs,
                    &labels,
                    5,
                    n_threads,
                );
                assert_eq!(
                    sharded.probabilities(&refs[..12]),
                    expected,
                    "{} diverged at {n_threads} fit shards",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn sparse_and_dense_feature_helpers_agree() {
        let (texts, _) = training_data(60, 23);
        let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        let (_, dense) = tfidf_features(&refs);
        let (_, sparse) = tfidf_features_sparse(&refs);
        assert_eq!(sparse.to_dense(), dense);
        assert!(
            sparse.density() < 0.2,
            "synthetic posts should be sparse, got {}",
            sparse.density()
        );
    }
}
