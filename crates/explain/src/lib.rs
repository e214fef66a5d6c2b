//! # holistix-explain
//!
//! Post-hoc explainability for the Holistix reproduction.
//!
//! §III-B of the paper applies LIME to the two best models (logistic regression and
//! fine-tuned MentalBERT) and scores the LIME-selected keywords against the gold
//! explanation spans with F1, precision, recall, ROUGE and BLEU (Table V). This crate
//! provides that whole stack:
//!
//! * [`lime`] — LIME for text: word-masking perturbations, exponential-kernel sample
//!   weighting, a weighted ridge surrogate and top-k token attributions;
//! * [`rouge`] — ROUGE-1 and ROUGE-L;
//! * [`bleu`](mod@bleu) — BLEU-n with brevity penalty;
//! * [`span_eval`] — token-overlap precision/recall/F1 between a predicted keyword set
//!   and a gold explanation span, plus the aggregated Table V report.
//!
//! The explainer works against the [`ProbabilityModel`] trait, so the classical
//! TF-IDF pipelines and the transformer classifiers plug in identically.

pub mod bleu;
pub mod lime;
pub mod rouge;
pub mod span_eval;

pub use bleu::{bleu, bleu_n};
pub use lime::{
    interpretable_features, LimeConfig, LimeExplainer, LimeExplanation, Perturbations,
    ProbabilityModel,
};
pub use rouge::{rouge_1, rouge_l, RougeScore};
pub use span_eval::{evaluate_explanations, ExplanationMetrics, ExplanationReport};
