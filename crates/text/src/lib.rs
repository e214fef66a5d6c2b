//! # holistix-text
//!
//! Text-processing substrate for the Holistix reproduction.
//!
//! The Holistix paper classifies free-form mental-health forum posts into six
//! wellness dimensions. Every downstream component — the TF-IDF baselines, the
//! transformer models, LIME perturbation, and the span-overlap metrics — needs a
//! consistent view of what a *token*, a *sentence*, and a *vocabulary* are. This
//! crate provides that view without any third-party NLP dependencies:
//!
//! * [`tokenize`](mod@tokenize) — Unicode-aware word tokenisation and sentence splitting,
//! * [`normalize`](mod@normalize) — case folding, punctuation stripping, whitespace cleanup,
//! * [`stopwords`] — an English stop-word list tuned for social-media text,
//! * [`stem`](mod@stem) — a light Porter-style suffix stripper,
//! * [`vocab`] — frequency-counted vocabularies with id mapping,
//! * [`intern`] — per-fit string interning so hot loops allocate once per
//!   distinct term instead of once per token occurrence,
//! * [`ngrams`](mod@ngrams) — n-gram extraction used by the BLEU metric and feature ablations,
//! * [`subword`] — a WordPiece-style subword tokeniser used by the transformer
//!   baselines (greedy longest-match with `##` continuation pieces).
//!
//! All functions are deterministic and allocation-conscious; the tokenisers are the
//! inner loop of corpus generation and vectorisation, so they avoid per-token regex
//! work and operate on `char` boundaries directly.

pub mod intern;
pub mod ngrams;
pub mod normalize;
pub mod stem;
pub mod stopwords;
pub mod subword;
pub mod tokenize;
pub mod vocab;

pub use intern::{Interner, Sym};
pub use ngrams::{char_ngrams, ngrams, NGram};
pub use normalize::{normalize, NormalizeOptions};
pub use stem::stem;
pub use stopwords::{is_stopword, StopwordFilter};
pub use subword::{SubwordTokenizer, SubwordVocabBuilder};
pub use tokenize::{sentences, token_spans, tokenize, tokenize_with_spans, Token, TokenKind};
pub use vocab::{Vocabulary, VocabularyBuilder};

/// Convenience: lower-cased word tokens with stop-words removed — the
/// representation used by the Table III frequent-word analysis and by the
/// TF-IDF vectoriser's default analyzer.
pub fn content_words(text: &str) -> Vec<String> {
    let filter = StopwordFilter::english();
    tokenize(text)
        .into_iter()
        .filter(|t| t.kind == TokenKind::Word)
        .map(|t| t.text.to_lowercase())
        .filter(|w| !filter.is_stopword(w))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_words_filters_stopwords_and_punctuation() {
        let words = content_words("I feel exhausted, and I can't even sleep properly!");
        assert!(words.contains(&"exhausted".to_string()));
        assert!(words.contains(&"sleep".to_string()));
        assert!(!words.contains(&"and".to_string()));
        assert!(!words.contains(&",".to_string()));
    }

    #[test]
    fn content_words_empty_input() {
        assert!(content_words("").is_empty());
        assert!(content_words("   \n\t ").is_empty());
    }
}
