//! # holistix-ml
//!
//! Classical machine-learning baselines for the Holistix reproduction.
//!
//! §III-A of the paper establishes traditional baselines — TF-IDF features fed into
//! logistic regression, a linear SVM and Gaussian Naive Bayes (scikit-learn) — and
//! evaluates them with per-class precision/recall/F1 and accuracy averaged over
//! 10-fold cross-validation (Table IV). This crate reimplements that entire stack from
//! scratch:
//!
//! * [`features`] — TF-IDF and raw-count vectorisers with configurable analyzers
//!   (stop-word removal, stemming, n-grams, vocabulary caps). Fitting is a
//!   sharded map-reduce over document chunks
//!   ([`TfidfVectorizer::fit_parallel`](features::TfidfVectorizer::fit_parallel)):
//!   per-shard analyzers + vocabulary builders on scoped threads, an
//!   integer-exact merge, one IDF computation — bit-identical to the
//!   sequential fit for every shard count, with a one-tokenisation-pass
//!   fit + CSR transform
//!   ([`fit_transform_sparse_parallel`](features::TfidfVectorizer::fit_transform_sparse_parallel)),
//! * [`classifier`] — the [`Classifier`] trait shared by every
//!   baseline (classical and transformer alike, via the core crate's adapters),
//! * [`logistic`] — multinomial logistic regression trained with mini-batch SGD + L2,
//! * [`svm`] — one-vs-rest linear SVM with hinge loss (the `LinearSVC`-style baseline),
//! * [`naive_bayes`] — Gaussian Naive Bayes with variance smoothing,
//! * [`metrics`] — confusion matrices, per-class precision/recall/F1, macro and
//!   weighted averages, accuracy,
//! * [`cv`] — the stratified k-fold cross-validation driver that produces the
//!   Table IV rows (per-class metrics averaged over folds), with optional parallel
//!   fold execution and a [`ThreadBudget`] shared between
//!   concurrent folds and each fold's sharded vectoriser fit
//!   (`folds × shards ≤ budget`).

pub mod classifier;
pub mod cv;
pub mod features;
pub mod logistic;
pub mod metrics;
pub mod naive_bayes;
pub mod parallel;
pub mod svm;

pub use classifier::Classifier;
pub use cv::{
    cross_validate, cross_validate_budgeted, CrossValidationReport, FoldOutcome, TextPipeline,
    TfidfPipeline, ThreadBudget,
};
pub use features::{CountVectorizer, TfidfVectorizer, VectorizerOptions};
pub use logistic::{LogisticRegression, LogisticRegressionConfig};
pub use metrics::{ClassMetrics, ClassificationReport, ConfusionMatrix};
pub use naive_bayes::{GaussianNaiveBayes, GaussianNbConfig};
pub use parallel::{scoped_map, tree_reduce};
pub use svm::{LinearSvm, LinearSvmConfig};
