//! Table I indicator lexicons and per-dimension phrase inventories.
//!
//! Table I of the paper lists, for every wellness dimension, the textual indicators an
//! annotator should look for (e.g. PA: "fatigue, sleep issues, body image concerns…")
//! together with example phrases. Table III lists the most frequent content words in
//! the gold explanation spans. This module encodes both:
//!
//! * [`IndicatorLexicon`] — weighted keyword lists per dimension, with the Table III
//!   words given weights proportional to their reported average counts, so the
//!   synthetic corpus reproduces the same lexical profile;
//! * phrase templates per dimension — short first-person clauses built around those
//!   indicators, used by the corpus generator to assemble posts and their explanation
//!   spans;
//! * shared *ambiguity* phrases — clauses that plausibly belong to more than one
//!   dimension (the EA↔SA and EA↔SpiA overlaps the Limitations section describes),
//!   which is what makes EA and SpiA hard for every model in Table IV.

use crate::post::{WellnessDimension, ALL_DIMENSIONS};
use std::collections::HashMap;

/// A keyword with a sampling weight (proportional to the Table III average counts for
/// words the paper reports, and 1.0 for supporting vocabulary).
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedWord {
    /// Lower-cased keyword.
    pub word: &'static str,
    /// Relative sampling weight.
    pub weight: f64,
}

/// The keyword lexicon of a single wellness dimension.
#[derive(Debug, Clone)]
pub struct DimensionLexicon {
    /// The dimension this lexicon describes.
    pub dimension: WellnessDimension,
    /// Weighted indicator keywords (Table III words plus supporting vocabulary).
    pub keywords: Vec<WeightedWord>,
    /// First-person clause templates; `{}` is replaced with a sampled keyword.
    pub templates: Vec<&'static str>,
    /// Indicator description, quoted from Table I.
    pub indicators: &'static str,
    /// Example phrase from Table I.
    pub example: &'static str,
}

impl DimensionLexicon {
    /// Whether a (lower-cased) word is one of this dimension's indicator keywords.
    pub fn contains(&self, word: &str) -> bool {
        self.keywords.iter().any(|w| w.word == word)
    }
}

fn w(word: &'static str, weight: f64) -> WeightedWord {
    WeightedWord { word, weight }
}

/// The full Table I / Table III lexicon for all six dimensions.
#[derive(Debug, Clone)]
pub struct IndicatorLexicon {
    lexicons: Vec<DimensionLexicon>,
    /// Ambiguous clauses that fit more than one dimension, with the set of dimensions
    /// they could plausibly be labelled as. The first listed dimension is the one the
    /// perplexity guidelines would call "dominant".
    ambiguous: Vec<(&'static str, Vec<WellnessDimension>)>,
}

impl Default for IndicatorLexicon {
    fn default() -> Self {
        Self::new()
    }
}

impl IndicatorLexicon {
    /// Build the built-in lexicon.
    pub fn new() -> Self {
        use WellnessDimension::*;
        let lexicons = vec![
            DimensionLexicon {
                dimension: Intellectual,
                keywords: vec![
                    w("future", 10.0),
                    w("feel", 9.0),
                    w("hard", 9.0),
                    w("thoughts", 7.0),
                    w("lack", 7.0),
                    w("think", 6.0),
                    w("struggling", 5.0),
                    w("exams", 3.0),
                    w("study", 3.0),
                    w("studying", 2.5),
                    w("smart", 2.5),
                    w("learning", 2.0),
                    w("concentrate", 2.0),
                    w("focus", 2.0),
                    w("grades", 2.0),
                    w("university", 1.5),
                    w("assignments", 1.5),
                    w("failing", 1.5),
                    w("brain", 1.0),
                    w("stupid", 1.0),
                    w("understand", 1.0),
                    w("school", 1.0),
                ],
                templates: vec![
                    "I feel like I'll never be {} enough to pass my exams",
                    "I keep struggling to {} on my assignments and my grades are slipping",
                    "studying feels so hard and my {} just will not cooperate",
                    "I think about my {} and I feel like I lack what it takes",
                    "every lecture goes over my head and I feel {} compared to everyone",
                    "my thoughts go blank when I try to {} for the exam",
                    "I failed another test and I feel my {} is hopeless",
                    "I can't concentrate on my {} no matter how hard I try",
                ],
                indicators: "Discussions about academic stress, feelings of intellectual \
                             inadequacy, frustration with learning.",
                example: "I feel like I'll never be smart enough to pass my exams.",
            },
            DimensionLexicon {
                dimension: Vocational,
                keywords: vec![
                    w("job", 45.0),
                    w("work", 43.0),
                    w("money", 8.0),
                    w("career", 7.0),
                    w("financial", 7.0),
                    w("struggling", 6.0),
                    w("unemployed", 6.0),
                    w("boss", 3.0),
                    w("workplace", 2.5),
                    w("shifts", 2.0),
                    w("salary", 2.0),
                    w("redundant", 1.5),
                    w("deadlines", 2.0),
                    w("overworked", 1.5),
                    w("bills", 2.0),
                    w("fired", 1.5),
                    w("promotion", 1.0),
                    w("colleagues", 1.5),
                    w("interview", 1.0),
                    w("centrelink", 1.0),
                    w("rent", 1.5),
                ],
                templates: vec![
                    "my 9-5 {} drains me and I don't see the point in trying anymore",
                    "I lost my {} last month and the financial stress is crushing me",
                    "my boss keeps piling on {} and I can't keep up at work",
                    "I've been unemployed for months and the {} worries never stop",
                    "work is draining every bit of me and the {} barely covers rent",
                    "I dread going to {} every single morning",
                    "my career feels stuck and the {} pressure keeps building",
                    "I'm struggling to pay the {} since my hours got cut at work",
                ],
                indicators: "Workplace dissatisfaction, career struggles, financial burdens \
                             related to work or dissatisfaction with career progression.",
                example: "My 9-5 job drains me, and I don't see the point in trying anymore.",
            },
            DimensionLexicon {
                dimension: Spiritual,
                keywords: vec![
                    w("feel", 40.0),
                    w("life", 31.0),
                    w("thoughts", 9.0),
                    w("suicide", 8.0),
                    w("struggling", 7.0),
                    w("feeling", 6.0),
                    w("purpose", 4.0),
                    w("meaningless", 3.0),
                    w("pointless", 3.0),
                    w("empty", 3.0),
                    w("hopeless", 3.0),
                    w("lost", 2.5),
                    w("existence", 2.0),
                    w("meaning", 2.5),
                    w("worthless", 2.0),
                    w("faith", 1.5),
                    w("numb", 1.5),
                    w("direction", 1.5),
                    w("reason", 1.5),
                    w("living", 1.5),
                ],
                templates: vec![
                    "I don't know what my {} is anymore and everything feels meaningless",
                    "life feels completely {} and I keep asking why I am even here",
                    "I feel lost and my {} seems to have no direction at all",
                    "dark thoughts about {} keep creeping in when everything feels empty",
                    "I'm struggling to find any {} in my existence lately",
                    "nothing matters anymore and my {} feels hollow",
                    "I keep questioning whether my {} has any meaning left",
                    "I feel hopeless about {} and can't see a reason to keep going",
                ],
                indicators: "Expressions of hopelessness, self-doubt, existential crises, or \
                             struggling with purpose in life.",
                example:
                    "I don't know what my purpose is anymore, and everything feels meaningless.",
            },
            DimensionLexicon {
                dimension: Physical,
                keywords: vec![
                    w("anxiety", 42.0),
                    w("sleep", 30.0),
                    w("depression", 28.0),
                    w("disorder", 17.0),
                    w("diagnosed", 14.0),
                    w("bad", 11.0),
                    w("exhausted", 5.0),
                    w("tired", 4.0),
                    w("insomnia", 3.0),
                    w("medication", 4.0),
                    w("body", 4.0),
                    w("weight", 3.0),
                    w("eating", 3.0),
                    w("pain", 3.0),
                    w("panic", 3.0),
                    w("fatigue", 2.5),
                    w("appetite", 2.0),
                    w("headaches", 2.0),
                    w("nauseous", 1.5),
                    w("doctor", 2.0),
                    w("mirror", 1.5),
                    w("disgusting", 1.5),
                ],
                templates: vec![
                    "I feel exhausted all the time and can't even {} properly",
                    "I hate my {} and feel disgusting when I look in the mirror",
                    "the doctor diagnosed me with an anxiety {} and the medication makes me tired",
                    "my {} has been so bad that I barely sleep three hours a night",
                    "I've gained so much {} and I can't stand how my body looks",
                    "panic attacks leave my {} shaking and my heart racing",
                    "the insomnia and constant {} are wearing my body down",
                    "my depression makes even getting out of bed and {} feel impossible",
                ],
                indicators: "Mentions of fatigue, sleep issues, body image concerns, diet \
                             struggles, illness, or medication. Phrases related to body shaming, \
                             physical deterioration, weight concerns, or health anxiety.",
                example: "I feel exhausted all the time and can't even sleep properly.",
            },
            DimensionLexicon {
                dimension: Social,
                keywords: vec![
                    w("me", 48.0),
                    w("feel", 43.0),
                    w("people", 35.0),
                    w("talk", 21.0),
                    w("alone", 18.0),
                    w("friends", 17.0),
                    w("relationship", 17.0),
                    w("lonely", 5.0),
                    w("family", 6.0),
                    w("breakup", 4.0),
                    w("invisible", 3.0),
                    w("isolated", 3.0),
                    w("excluded", 2.5),
                    w("bullying", 2.5),
                    w("belong", 3.0),
                    w("partner", 3.0),
                    w("divorce", 2.0),
                    w("ignored", 2.0),
                    w("connection", 2.0),
                    w("social", 2.5),
                    w("circle", 1.5),
                    w("marriage", 1.5),
                ],
                templates: vec![
                    "I have no real {} and I feel invisible at school",
                    "ever since my breakup I feel like I've lost my entire social {}",
                    "nobody wants to {} to me and I spend every weekend alone",
                    "my {} keeps fighting with me and I feel so isolated at home",
                    "people around me have {} but I just feel excluded from everything",
                    "I feel like I don't {} anywhere and no one would notice if I left",
                    "the bullying at school makes me avoid {} completely",
                    "my relationship ended and now the loneliness and missing my {} is unbearable",
                ],
                indicators: "Mentions of loneliness, strained relationships, loss of social \
                             support, feeling excluded or isolated. Discussions about family, \
                             friends, breakups, bullying, or lack of belonging.",
                example: "I have no real friends, and I feel invisible at school.",
            },
            DimensionLexicon {
                dimension: Emotional,
                keywords: vec![
                    w("feel", 41.0),
                    w("anxiety", 23.0),
                    w("feeling", 18.0),
                    w("me", 9.0),
                    w("sad", 8.0),
                    w("crying", 7.0),
                    w("hard", 7.0),
                    w("overwhelmed", 4.0),
                    w("cope", 4.0),
                    w("angry", 3.0),
                    w("hate", 3.0),
                    w("scared", 3.0),
                    w("emotions", 3.0),
                    w("breakdown", 2.5),
                    w("tears", 2.5),
                    w("hopeless", 2.0),
                    w("mood", 2.0),
                    w("unstable", 1.5),
                    w("exhausted", 2.0),
                    w("worthless", 2.0),
                    w("guilt", 1.5),
                    w("shame", 1.5),
                ],
                templates: vec![
                    "I hate myself and don't think I {} in this world",
                    "I burst into tears over nothing and can't {} with my feelings",
                    "the sadness is so {} that I cry myself to sleep most nights",
                    "I feel so overwhelmed that even small things make {} break down",
                    "my emotions swing wildly and the {} never really goes away",
                    "I'm constantly on edge and the {} makes everything feel impossible",
                    "everything feels too hard and I just keep {} for no reason",
                    "the guilt and shame make me feel completely {} inside",
                ],
                indicators: "Emotional instability, feelings of emotional exhaustion, inability \
                             to cope, or extreme sadness.",
                example: "I hate myself and don't think I belong in this world.",
            },
        ];

        // Clauses that the Limitations section describes as ambiguous across dimensions.
        let ambiguous = vec![
            ("I don't belong anywhere", vec![Social, Emotional]),
            ("I feel lost", vec![Spiritual, Emotional]),
            ("I feel overwhelmed", vec![Emotional, Vocational]),
            ("I haven't left my room in days", vec![Social, Physical]),
            (
                "everything feels too much lately",
                vec![Emotional, Spiritual],
            ),
            ("I just feel empty inside", vec![Spiritual, Emotional]),
            (
                "I can't stop crying when I'm alone",
                vec![Emotional, Social],
            ),
            (
                "I feel like giving up on everything",
                vec![Spiritual, Emotional],
            ),
        ];

        Self {
            lexicons,
            ambiguous,
        }
    }

    /// The lexicon for a dimension.
    pub fn for_dimension(&self, dimension: WellnessDimension) -> &DimensionLexicon {
        &self.lexicons[dimension.index()]
    }

    /// All six per-dimension lexicons in table order.
    pub fn all(&self) -> &[DimensionLexicon] {
        &self.lexicons
    }

    /// Ambiguous clauses with the dimensions they could be labelled as (dominant first).
    pub fn ambiguous_clauses(&self) -> &[(&'static str, Vec<WellnessDimension>)] {
        &self.ambiguous
    }

    /// Map every keyword to the set of dimensions whose lexicon contains it. Useful
    /// for measuring lexical overlap (why EA is hard: its top words also appear in
    /// SA, PA and SpiA lexicons).
    pub fn keyword_dimension_map(&self) -> HashMap<&'static str, Vec<WellnessDimension>> {
        let mut map: HashMap<&'static str, Vec<WellnessDimension>> = HashMap::new();
        for lex in &self.lexicons {
            for kw in &lex.keywords {
                map.entry(kw.word).or_default().push(lex.dimension);
            }
        }
        map
    }

    /// Fraction of a dimension's keywords that are unique to it.
    pub fn distinctiveness(&self, dimension: WellnessDimension) -> f64 {
        let map = self.keyword_dimension_map();
        let lex = self.for_dimension(dimension);
        if lex.keywords.is_empty() {
            return 0.0;
        }
        let unique = lex
            .keywords
            .iter()
            .filter(|kw| map.get(kw.word).map(|ds| ds.len() == 1).unwrap_or(false))
            .count();
        unique as f64 / lex.keywords.len() as f64
    }

    /// Score a text against each dimension by counting (weighted) keyword hits — the
    /// rule-based "annotation guideline" classifier used to sanity-check the corpus
    /// and as the weak baseline in the ablation benches. Returns scores in table order.
    pub fn indicator_scores(&self, text: &str) -> [f64; 6] {
        let words = holistix_text::content_words(text);
        let mut scores = [0.0; 6];
        for lex in &self.lexicons {
            for kw in &lex.keywords {
                let hits = words.iter().filter(|wd| wd.as_str() == kw.word).count();
                scores[lex.dimension.index()] += hits as f64 * kw.weight.sqrt();
            }
        }
        scores
    }

    /// The dimension with the highest indicator score, or `None` if no keyword hits.
    pub fn classify_by_indicators(&self, text: &str) -> Option<WellnessDimension> {
        let scores = self.indicator_scores(text);
        if scores.iter().all(|&s| s == 0.0) {
            return None;
        }
        let idx = holistix_linalg_argmax(&scores);
        Some(ALL_DIMENSIONS[idx])
    }
}

// A tiny local argmax so `corpus` does not need to depend on `linalg`.
fn holistix_linalg_argmax(xs: &[f64; 6]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use WellnessDimension::*;

    #[test]
    fn every_dimension_has_a_lexicon() {
        let lex = IndicatorLexicon::new();
        assert_eq!(lex.all().len(), 6);
        for d in ALL_DIMENSIONS {
            let dl = lex.for_dimension(d);
            assert_eq!(dl.dimension, d);
            assert!(dl.keywords.len() >= 10, "{d} lexicon too small");
            assert!(dl.templates.len() >= 6, "{d} needs templates");
            assert!(!dl.indicators.is_empty());
            assert!(!dl.example.is_empty());
        }
    }

    #[test]
    fn table3_top_words_present_with_reported_weights() {
        let lex = IndicatorLexicon::new();
        let va = lex.for_dimension(Vocational);
        assert!(va
            .keywords
            .iter()
            .any(|k| k.word == "job" && k.weight == 45.0));
        let pa = lex.for_dimension(Physical);
        assert!(pa
            .keywords
            .iter()
            .any(|k| k.word == "anxiety" && k.weight == 42.0));
        let sa = lex.for_dimension(Social);
        assert!(sa
            .keywords
            .iter()
            .any(|k| k.word == "me" && k.weight == 48.0));
    }

    #[test]
    fn templates_have_a_placeholder() {
        let lex = IndicatorLexicon::new();
        for dl in lex.all() {
            for t in &dl.templates {
                assert!(t.contains("{}"), "template missing placeholder: {t}");
            }
        }
    }

    #[test]
    fn indicator_scores_pick_obvious_dimension() {
        let lex = IndicatorLexicon::new();
        assert_eq!(
            lex.classify_by_indicators(
                "I lost my job and the financial stress about money is unbearable"
            ),
            Some(Vocational)
        );
        assert_eq!(
            lex.classify_by_indicators(
                "my insomnia and medication leave me exhausted and my sleep is bad"
            ),
            Some(Physical)
        );
        assert_eq!(
            lex.classify_by_indicators("completely unrelated words xyz"),
            None
        );
    }

    #[test]
    fn emotional_is_less_distinctive_than_vocational() {
        // This is the structural reason EA is the hardest class in Table IV.
        let lex = IndicatorLexicon::new();
        assert!(lex.distinctiveness(Emotional) < lex.distinctiveness(Vocational));
    }

    #[test]
    fn ambiguous_clauses_span_multiple_dimensions() {
        let lex = IndicatorLexicon::new();
        assert!(!lex.ambiguous_clauses().is_empty());
        for (clause, dims) in lex.ambiguous_clauses() {
            assert!(dims.len() >= 2, "clause {clause:?} should be ambiguous");
        }
    }

    #[test]
    fn keyword_dimension_map_contains_shared_words() {
        let lex = IndicatorLexicon::new();
        let map = lex.keyword_dimension_map();
        // "feel" appears in several dimensions per Table III.
        assert!(map.get("feel").map(|d| d.len() >= 3).unwrap_or(false));
    }
}
