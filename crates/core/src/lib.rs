//! # holistix
//!
//! The top-level crate of the Holistix reproduction: a complete, from-scratch Rust
//! implementation of the systems behind *"Holistix: A Dataset for Holistic Wellness
//! Dimensions Analysis in Mental Health Narratives"* (ICDE 2025).
//!
//! The paper introduces a 1,420-post mental-health forum corpus annotated with six
//! wellness dimensions (Intellectual, Vocational, Spiritual, Physical, Social,
//! Emotional) plus explanatory text spans, and evaluates nine classification baselines
//! with 10-fold cross-validation and LIME-based explanation quality. This crate ties
//! the substrate crates together and exposes:
//!
//! * [`pipeline`] — the unified baseline registry ([`BaselineKind`]) covering the
//!   three classical models and six transformer analogues, a single
//!   [`BaselinePipeline`] type that plugs into the cross-validation driver, and the
//!   fitted-model type used for prediction and LIME explanation;
//! * [`scorer`] — the object-safe [`Scorer`] trait every servable model implements
//!   (batched probabilities + kind), the seam the `holistix-serve`
//!   registry and per-kind batch queues are built on, with implementations for
//!   [`FittedBaseline`] and the trainer-wrapping [`TransformerScorer`];
//! * [`experiments`] — one runner per table/figure of the paper: dataset statistics
//!   (Table II), frequent span words (Table III), the baseline comparison (Table IV),
//!   LIME explanation quality (Table V), the inter-annotator agreement study (§II-E /
//!   Fig. 2) and the single-post walkthrough of Fig. 1;
//! * re-exports of the substrate crates, so `use holistix::prelude::*` is enough for
//!   most applications.
//!
//! ## Performance architecture
//!
//! The classical-baseline stack is built around two decisions that let it scale far
//! past the paper's 1,420 posts:
//!
//! 1. **Sparse features end to end.** TF-IDF design matrices are >99% zeros at
//!    realistic vocabulary sizes, so `holistix_ml`'s vectorisers build
//!    [`linalg::CsrMatrix`] rows directly from token
//!    counts (`transform_sparse`) and the three classical classifiers train and
//!    score over [`linalg::FeatureMatrix`] without
//!    ever materialising the dense `documents × vocabulary` grid. Within a row,
//!    CSR stores entries in increasing column order, so linear operations are
//!    bit-identical to their dense counterparts — property tests in `holistix-ml`
//!    and `holistix-linalg` assert exact equality.
//!
//! 2. **Batched parallel inference.** [`FittedBaseline::predict`] and
//!    [`FittedBaseline::probabilities`] split large inputs into contiguous batches
//!    and score them on scoped threads (`holistix_ml::scoped_map`, the fan-out
//!    the cross-validation driver uses for folds). Each row's features and scores
//!    depend only on that row's text, so batched parallel output is bit-for-bit
//!    identical to one-text-at-a-time scoring. The LIME explainer feeds its
//!    perturbation sets (200 variants per explanation by default) through this
//!    path in chunks, which is the hot loop of the Table V reproduction.
//!
//! The `sparse_vs_dense_inference` bench in `holistix-bench` tracks the speedup of
//! this path over the dense one on a 1k-post corpus with a paper-scale (12k-term)
//! vocabulary. The `holistix-serve` crate builds the online story on top: fitted
//! baselines stay warm in a model registry and concurrent HTTP requests are
//! coalesced into scoring batches by a micro-batching scheduler, which is exactly
//! the workload the batched parallel path exists for.
//!
//! ## Quick start
//!
//! ```
//! use holistix::prelude::*;
//!
//! // A small synthetic Holistix corpus (deterministic for a seed).
//! let corpus = HolistixCorpus::generate_small(120, 42);
//!
//! // Fit the logistic-regression baseline on a stratified split.
//! let labels = corpus.label_indices();
//! let split = holistix::corpus::splits::paper_split(&labels, 6, 42);
//! let texts = corpus.texts();
//! let train_texts: Vec<&str> = split.train.iter().map(|&i| texts[i]).collect();
//! let train_labels: Vec<usize> = split.train.iter().map(|&i| labels[i]).collect();
//! let fitted = FittedBaseline::fit(
//!     BaselineKind::LogisticRegression,
//!     SpeedProfile::Tiny,
//!     &train_texts,
//!     &train_labels,
//!     42,
//! );
//!
//! // Classify one held-out post.
//! let post = &corpus.posts[split.test[0]];
//! let predicted = fitted.predict(&[post.post.text.as_str()])[0];
//! assert!(predicted < 6);
//! ```

pub mod experiments;
pub mod pipeline;
pub mod scorer;

/// Re-export of the dataset substrate.
pub use holistix_corpus as corpus;
/// Re-export of the explainability stack.
pub use holistix_explain as explain;
/// Re-export of the linear-algebra substrate.
pub use holistix_linalg as linalg;
/// Re-export of the classical-ML stack.
pub use holistix_ml as ml;
/// Re-export of the autograd engine.
pub use holistix_tensor as tensor;
/// Re-export of the text substrate.
pub use holistix_text as text;
/// Re-export of the transformer stack.
pub use holistix_transformer as transformer;

pub use experiments::{
    run_annotation_study, run_fig1_walkthrough, run_table2, run_table3, run_table4, run_table5,
    EvaluationConfig, Fig1Walkthrough, Table4Result, Table4Row, Table5Config, Table5Result,
};
pub use pipeline::{BaselineKind, BaselinePipeline, FittedBaseline, SpeedProfile};
pub use scorer::{fit_scorer, QuantizedScorer, Scorer, TransformerScorer};

/// The things most applications need.
pub mod prelude {
    pub use crate::experiments::{
        run_annotation_study, run_fig1_walkthrough, run_table2, run_table3, run_table4, run_table5,
        EvaluationConfig, Table4Result, Table5Config,
    };
    pub use crate::pipeline::{BaselineKind, BaselinePipeline, FittedBaseline, SpeedProfile};
    pub use crate::scorer::{fit_scorer, QuantizedScorer, Scorer, TransformerScorer};
    pub use holistix_corpus::{
        AnnotatedPost, CorpusStatistics, HolistixCorpus, Post, Span, WellnessDimension,
        ALL_DIMENSIONS,
    };
    pub use holistix_explain::{LimeConfig, LimeExplainer, ProbabilityModel};
    pub use holistix_ml::{ClassificationReport, Classifier};
    pub use holistix_transformer::ModelKind;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_main_types() {
        let corpus = HolistixCorpus::generate_small(30, 1);
        assert_eq!(corpus.class_counts().iter().sum::<usize>(), corpus.len());
        assert_eq!(ALL_DIMENSIONS.len(), 6);
        assert_eq!(BaselineKind::ALL.len(), 9);
    }
}
