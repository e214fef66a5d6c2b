//! Dataset statistics (Table II) and frequent-word analysis (Table III).

use crate::post::{AnnotatedPost, WellnessDimension, ALL_DIMENSIONS};
use holistix_text::StopwordFilter;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// The statistics the paper reports in Table II.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusStatistics {
    /// Total number of posts.
    pub total_posts: usize,
    /// Total number of word tokens across all posts.
    pub total_words: usize,
    /// Maximum word count in a single post.
    pub max_words_per_post: usize,
    /// Total number of sentences across all posts.
    pub total_sentences: usize,
    /// Maximum sentence count in a single post.
    pub max_sentences_per_post: usize,
    /// Posts per wellness dimension, in table order.
    pub class_counts: [usize; 6],
}

impl CorpusStatistics {
    /// Compute statistics over a set of annotated posts.
    pub fn compute(posts: &[AnnotatedPost]) -> Self {
        let mut total_words = 0;
        let mut max_words = 0;
        let mut total_sentences = 0;
        let mut max_sentences = 0;
        let mut class_counts = [0usize; 6];
        for p in posts {
            let wc = p.post.word_count();
            let sc = p.post.sentence_count();
            total_words += wc;
            total_sentences += sc;
            max_words = max_words.max(wc);
            max_sentences = max_sentences.max(sc);
            class_counts[p.label.index()] += 1;
        }
        Self {
            total_posts: posts.len(),
            total_words,
            max_words_per_post: max_words,
            total_sentences,
            max_sentences_per_post: max_sentences,
            class_counts,
        }
    }

    /// The reference values the paper reports (Table II).
    pub fn paper_reference() -> Self {
        Self {
            total_posts: 1420,
            total_words: 37082,
            max_words_per_post: 115,
            total_sentences: 2271,
            max_sentences_per_post: 9,
            class_counts: [155, 150, 190, 296, 406, 223],
        }
    }

    /// Class distribution as percentages, in table order (the §II-C figures:
    /// IA 10.91 %, VA 10.56 %, SpiA 13.38 %, PA 20.84 %, SA 28.59 %, EA 15.70 %).
    pub fn class_percentages(&self) -> [f64; 6] {
        let total = self.total_posts.max(1) as f64;
        let mut out = [0.0; 6];
        for (i, &c) in self.class_counts.iter().enumerate() {
            out[i] = 100.0 * c as f64 / total;
        }
        out
    }

    /// Mean words per post.
    pub fn mean_words_per_post(&self) -> f64 {
        if self.total_posts == 0 {
            0.0
        } else {
            self.total_words as f64 / self.total_posts as f64
        }
    }

    /// Relative deviation of a measured statistic from the paper reference, as a map
    /// from statistic name to `|measured - paper| / paper`.
    pub fn relative_deviation_from_paper(&self) -> HashMap<&'static str, f64> {
        let paper = Self::paper_reference();
        let rel = |m: f64, p: f64| if p == 0.0 { 0.0 } else { (m - p).abs() / p };
        let mut out = HashMap::new();
        out.insert(
            "total_posts",
            rel(self.total_posts as f64, paper.total_posts as f64),
        );
        out.insert(
            "total_words",
            rel(self.total_words as f64, paper.total_words as f64),
        );
        out.insert(
            "max_words_per_post",
            rel(
                self.max_words_per_post as f64,
                paper.max_words_per_post as f64,
            ),
        );
        out.insert(
            "total_sentences",
            rel(self.total_sentences as f64, paper.total_sentences as f64),
        );
        out.insert(
            "max_sentences_per_post",
            rel(
                self.max_sentences_per_post as f64,
                paper.max_sentences_per_post as f64,
            ),
        );
        out
    }

    /// Render the statistics in the shape of the paper's Table II.
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        s.push_str("Measure                      Count    | Wellness Dimension  Count\n");
        s.push_str("---------------------------- -------- | ------------------- -----\n");
        let rows = [
            ("Total posts", self.total_posts),
            ("Total words count", self.total_words),
            ("Max. word count per post", self.max_words_per_post),
            ("Total sentence count", self.total_sentences),
            ("Max. sentences per post", self.max_sentences_per_post),
            ("", 0),
        ];
        for (i, dim) in ALL_DIMENSIONS.iter().enumerate() {
            let (name, value) = rows[i];
            let left = if name.is_empty() {
                format!("{:37}", "")
            } else {
                format!("{name:<28} {value:<8}")
            };
            s.push_str(&format!(
                "{left} | {:<19} {}\n",
                dim.code(),
                self.class_counts[i]
            ));
        }
        s
    }
}

impl fmt::Display for CorpusStatistics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_table())
    }
}

/// The per-dimension frequent-word analysis of Table III.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrequentWords {
    /// For each dimension (table order): the top words in its explanation spans with
    /// their total counts, most frequent first.
    pub by_dimension: Vec<(WellnessDimension, Vec<(String, usize)>)>,
}

impl FrequentWords {
    /// Top `k` words per dimension.
    pub fn top_k(&self, k: usize) -> Vec<(WellnessDimension, Vec<(String, usize)>)> {
        self.by_dimension
            .iter()
            .map(|(d, words)| (*d, words.iter().take(k).cloned().collect()))
            .collect()
    }

    /// The top words for one dimension.
    pub fn for_dimension(&self, dim: WellnessDimension) -> &[(String, usize)] {
        &self.by_dimension[dim.index()].1
    }

    /// Render in the shape of the paper's Table III (top 7 words with counts).
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        s.push_str("Wellness Dimension   Most Frequent Words (Count)\n");
        s.push_str("-------------------- -----------------------------------------------\n");
        for (dim, words) in self.top_k(7) {
            let rendered: Vec<String> = words
                .iter()
                .map(|(word, count)| format!("{word}({count})"))
                .collect();
            s.push_str(&format!("{:<20} {}\n", dim.name(), rendered.join(", ")));
        }
        s
    }
}

impl fmt::Display for FrequentWords {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_table())
    }
}

/// Compute the Table III analysis: the most frequent stop-word-filtered span words per
/// dimension.
pub fn frequent_span_words(posts: &[AnnotatedPost]) -> FrequentWords {
    let filter = StopwordFilter::english();
    let mut by_dimension = Vec::with_capacity(6);
    for dim in ALL_DIMENSIONS {
        let mut counts: HashMap<String, usize> = HashMap::new();
        for p in posts.iter().filter(|p| p.label == dim) {
            for token in holistix_text::tokenize(p.span_text()) {
                if token.kind != holistix_text::TokenKind::Word {
                    continue;
                }
                let word = token.lower();
                if filter.is_stopword(&word) {
                    continue;
                }
                *counts.entry(word).or_insert(0) += 1;
            }
        }
        let mut words: Vec<(String, usize)> = counts.into_iter().collect();
        words.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        by_dimension.push((dim, words));
    }
    FrequentWords { by_dimension }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::HolistixCorpus;
    use crate::post::{Post, Span};

    fn tiny_posts() -> Vec<AnnotatedPost> {
        let make =
            |id: usize, text: &str, label: WellnessDimension, s: usize, e: usize| AnnotatedPost {
                post: Post {
                    id,
                    text: text.to_string(),
                    category: "Anxiety".to_string(),
                },
                label,
                span: Span::new(s, e),
            };
        vec![
            make(
                0,
                "I lost my job. I feel awful.",
                WellnessDimension::Vocational,
                0,
                13,
            ),
            make(
                1,
                "I cannot sleep and my anxiety is bad.",
                WellnessDimension::Physical,
                0,
                36,
            ),
            make(
                2,
                "I feel so alone without my friends.",
                WellnessDimension::Social,
                0,
                34,
            ),
        ]
    }

    #[test]
    fn statistics_of_tiny_corpus() {
        let stats = CorpusStatistics::compute(&tiny_posts());
        assert_eq!(stats.total_posts, 3);
        assert_eq!(stats.class_counts[WellnessDimension::Vocational.index()], 1);
        assert_eq!(stats.max_sentences_per_post, 2);
        assert!(stats.total_words > 15);
        assert!(stats.mean_words_per_post() > 5.0);
    }

    #[test]
    fn empty_corpus_statistics_are_zero() {
        let stats = CorpusStatistics::compute(&[]);
        assert_eq!(stats.total_posts, 0);
        assert_eq!(stats.mean_words_per_post(), 0.0);
        assert_eq!(stats.class_percentages(), [0.0; 6]);
    }

    #[test]
    fn paper_reference_percentages_match_section_2c() {
        let stats = CorpusStatistics::paper_reference();
        let pct = stats.class_percentages();
        assert!((pct[WellnessDimension::Intellectual.index()] - 10.91).abs() < 0.05);
        assert!((pct[WellnessDimension::Social.index()] - 28.59).abs() < 0.05);
        assert!((pct[WellnessDimension::Physical.index()] - 20.84).abs() < 0.05);
    }

    #[test]
    fn generated_corpus_reproduces_table2_shape() {
        let corpus = HolistixCorpus::generate(42);
        let stats = CorpusStatistics::compute(&corpus.posts);
        assert_eq!(stats.total_posts, 1420);
        assert_eq!(stats.class_counts, [155, 150, 190, 296, 406, 223]);
        // Word/sentence volume within a reasonable band of the paper's values.
        let dev = stats.relative_deviation_from_paper();
        assert!(
            dev["total_words"] < 0.35,
            "total_words deviation {}",
            dev["total_words"]
        );
        assert!(
            dev["total_sentences"] < 0.6,
            "total_sentences deviation {}",
            dev["total_sentences"]
        );
        assert!(stats.max_sentences_per_post <= 9);
    }

    #[test]
    fn frequent_words_reflect_span_content() {
        let fw = frequent_span_words(&tiny_posts());
        let voc = fw.for_dimension(WellnessDimension::Vocational);
        assert!(voc.iter().any(|(w, _)| w == "job"));
        let pa = fw.for_dimension(WellnessDimension::Physical);
        assert!(pa.iter().any(|(w, _)| w == "sleep" || w == "anxiety"));
        // Intellectual has no posts in the tiny corpus.
        assert!(fw.for_dimension(WellnessDimension::Intellectual).is_empty());
    }

    #[test]
    fn generated_frequent_words_match_table3_leaders() {
        let corpus = HolistixCorpus::generate_small(400, 9);
        let fw = frequent_span_words(&corpus.posts);
        let top = |d: WellnessDimension, k: usize| -> Vec<String> {
            fw.for_dimension(d)
                .iter()
                .take(k)
                .map(|(w, _)| w.clone())
                .collect()
        };
        // The headline Table III words should appear among the top span words.
        assert!(top(WellnessDimension::Vocational, 5)
            .iter()
            .any(|w| w == "job" || w == "work"));
        assert!(top(WellnessDimension::Physical, 6)
            .iter()
            .any(|w| w == "anxiety" || w == "sleep"));
        assert!(top(WellnessDimension::Social, 8)
            .iter()
            .any(|w| w == "feel" || w == "alone" || w == "friends"));
    }

    #[test]
    fn tables_render_without_panicking() {
        let corpus = HolistixCorpus::generate_small(60, 1);
        let stats = CorpusStatistics::compute(&corpus.posts);
        let fw = frequent_span_words(&corpus.posts);
        assert!(stats.to_table().contains("Total posts"));
        assert!(fw.to_table().contains("Wellness Dimension"));
    }
}
