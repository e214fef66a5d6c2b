//! Explanation-vs-gold-span evaluation (Table V).
//!
//! The paper "calculate\[s\] the similarity score between the LIME-generated predictions
//! and the annotated explanation spans using keywords" and reports F1, precision,
//! recall, ROUGE and BLEU. Here one evaluation item is a pair of
//! `(predicted keywords, gold explanation span text)`; keywords are compared against
//! the span's content words (stop-words removed, case-folded), ROUGE/BLEU are computed
//! over the same token lists, and the report averages every metric over items.

use crate::bleu::bleu;
use crate::rouge::rouge_1;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Metrics for a single explanation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExplanationMetrics {
    /// Token-set precision of the predicted keywords against the gold span words.
    pub precision: f64,
    /// Token-set recall.
    pub recall: f64,
    /// Token-set F1.
    pub f1: f64,
    /// ROUGE-1 F-measure.
    pub rouge: f64,
    /// BLEU score.
    pub bleu: f64,
}

impl ExplanationMetrics {
    /// Score one explanation: `predicted` keywords against the raw `gold_span` text.
    pub fn score<S: AsRef<str>>(predicted: &[S], gold_span: &str) -> Self {
        let predicted: Vec<String> = predicted
            .iter()
            .map(|t| t.as_ref().to_lowercase())
            .filter(|t| !t.is_empty())
            .collect();
        let gold: Vec<String> = holistix_text::content_words(gold_span);
        if predicted.is_empty() || gold.is_empty() {
            return Self {
                precision: 0.0,
                recall: 0.0,
                f1: 0.0,
                rouge: 0.0,
                bleu: 0.0,
            };
        }
        let predicted_set: HashSet<&String> = predicted.iter().collect();
        let gold_set: HashSet<&String> = gold.iter().collect();
        let overlap = predicted_set.intersection(&gold_set).count() as f64;
        let precision = overlap / predicted_set.len() as f64;
        let recall = overlap / gold_set.len() as f64;
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        Self {
            precision,
            recall,
            f1,
            rouge: rouge_1(&predicted, &gold).f1,
            bleu: bleu(&predicted, &gold),
        }
    }
}

/// The aggregate Table V row for one model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExplanationReport {
    /// Model display name.
    pub model_name: String,
    /// Number of explanations evaluated.
    pub n_items: usize,
    /// Mean token-set F1.
    pub f1: f64,
    /// Mean token-set precision.
    pub precision: f64,
    /// Mean token-set recall.
    pub recall: f64,
    /// Mean ROUGE-1 F-measure.
    pub rouge: f64,
    /// Mean BLEU.
    pub bleu: f64,
}

impl ExplanationReport {
    /// Render the report as a Table V style row.
    pub fn to_table_row(&self) -> String {
        format!(
            "{:<12} {:>8.4} {:>10.4} {:>8.4} {:>8.4} {:>8.4}",
            self.model_name, self.f1, self.precision, self.recall, self.rouge, self.bleu
        )
    }
}

/// Average explanation metrics over `(predicted keywords, gold span)` pairs.
pub fn evaluate_explanations<S: AsRef<str>>(
    model_name: &str,
    items: &[(Vec<S>, String)],
) -> ExplanationReport {
    let scores: Vec<ExplanationMetrics> = items
        .iter()
        .map(|(predicted, gold)| ExplanationMetrics::score(predicted, gold))
        .collect();
    let n = scores.len();
    let mean = |f: fn(&ExplanationMetrics) -> f64| {
        if n == 0 {
            0.0
        } else {
            scores.iter().map(f).sum::<f64>() / n as f64
        }
    };
    ExplanationReport {
        model_name: model_name.to_string(),
        n_items: n,
        f1: mean(|m| m.f1),
        precision: mean(|m| m.precision),
        recall: mean(|m| m.recall),
        rouge: mean(|m| m.rouge),
        bleu: mean(|m| m.bleu),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_keywords_score_high() {
        let gold = "I feel exhausted and cannot sleep";
        let m = ExplanationMetrics::score(&["exhausted", "sleep", "feel"], gold);
        assert!((m.recall - 1.0).abs() < 1e-12, "recall {}", m.recall);
        assert!((m.precision - 1.0).abs() < 1e-12);
        assert!(m.rouge > 0.5);
    }

    #[test]
    fn irrelevant_keywords_score_zero_overlap() {
        let m = ExplanationMetrics::score(&["job", "money"], "I feel exhausted and cannot sleep");
        assert_eq!(m.f1, 0.0);
        assert_eq!(m.precision, 0.0);
    }

    #[test]
    fn partial_overlap_hand_computed() {
        // Gold content words: {feel, exhausted, sleep}; predicted {exhausted, job}.
        // precision 1/2, recall 1/3, f1 = 0.4
        let m =
            ExplanationMetrics::score(&["exhausted", "job"], "I feel exhausted and cannot sleep");
        assert!((m.precision - 0.5).abs() < 1e-12);
        assert!((m.recall - 1.0 / 3.0).abs() < 1e-12);
        assert!((m.f1 - 0.4).abs() < 1e-12);
        assert!(m.bleu >= 0.0 && m.bleu <= 1.0);
    }

    #[test]
    fn empty_inputs_score_zero() {
        assert_eq!(ExplanationMetrics::score::<&str>(&[], "gold span").f1, 0.0);
        assert_eq!(ExplanationMetrics::score(&["word"], "").f1, 0.0);
        // A span made only of stop-words has no content words.
        assert_eq!(ExplanationMetrics::score(&["word"], "and the of").f1, 0.0);
    }

    #[test]
    fn report_averages_items() {
        let items = vec![
            (
                vec!["exhausted", "sleep"],
                "I feel exhausted and cannot sleep".to_string(),
            ),
            (vec!["job"], "my job drains me".to_string()),
            (vec!["zzz"], "I feel alone".to_string()),
        ];
        let report = evaluate_explanations("LR", &items);
        assert_eq!(report.n_items, 3);
        assert!(report.f1 > 0.0 && report.f1 < 1.0);
        assert!(report.precision >= report.f1 * 0.5);
        assert!(report.to_table_row().contains("LR"));
    }

    #[test]
    fn empty_report_is_zero() {
        let report = evaluate_explanations::<&str>("none", &[]);
        assert_eq!(report.n_items, 0);
        assert_eq!(report.f1, 0.0);
    }

    #[test]
    fn keyword_case_is_folded() {
        let m = ExplanationMetrics::score(&["EXHAUSTED"], "I feel exhausted");
        assert!(m.recall > 0.0);
    }
}
