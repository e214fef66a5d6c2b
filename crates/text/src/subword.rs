//! WordPiece-style subword tokenisation.
//!
//! The paper fine-tunes BERT-family models, which operate on subword pieces rather
//! than whole words. Our transformer analogues do the same: a subword vocabulary is
//! learned from the corpus with a frequency-driven pair-merging procedure (a small
//! BPE/WordPiece hybrid), and encoding uses greedy longest-match-first with `##`
//! continuation pieces, exactly like the original WordPiece tokeniser. Unknown
//! characters fall back to `<unk>`.

use crate::vocab::{CLS_TOKEN, MASK_TOKEN, PAD_TOKEN, SEP_TOKEN, UNK_TOKEN};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Builds a subword vocabulary from word frequency counts.
#[derive(Debug, Clone)]
pub struct SubwordVocabBuilder {
    word_counts: HashMap<String, u64>,
    target_size: usize,
    min_pair_count: u64,
}

impl SubwordVocabBuilder {
    /// New builder targeting a vocabulary of roughly `target_size` pieces.
    pub fn new(target_size: usize) -> Self {
        Self {
            word_counts: HashMap::new(),
            target_size,
            min_pair_count: 2,
        }
    }

    /// Add a document's words (lower-cased by the caller or not — counts are exact).
    pub fn add_words<S: AsRef<str>>(&mut self, words: &[S]) {
        for w in words {
            *self.word_counts.entry(w.as_ref().to_string()).or_insert(0) += 1;
        }
    }

    /// Learn merges and freeze the tokeniser.
    pub fn build(&self) -> SubwordTokenizer {
        // Start from characters; first piece of a word is the bare char, continuation
        // pieces carry the "##" prefix.
        let mut pieces: HashMap<String, u64> = HashMap::new();
        // word -> current segmentation
        let mut segmentations: HashMap<String, Vec<String>> = HashMap::new();
        for (word, &count) in &self.word_counts {
            let segs: Vec<String> = word
                .chars()
                .enumerate()
                .map(|(i, c)| {
                    if i == 0 {
                        c.to_string()
                    } else {
                        format!("##{c}")
                    }
                })
                .collect();
            for s in &segs {
                *pieces.entry(s.clone()).or_insert(0) += count;
            }
            segmentations.insert(word.clone(), segs);
        }

        // Iteratively merge the most frequent adjacent pair until the target size is
        // reached or no pair is frequent enough.
        while pieces.len() < self.target_size {
            let mut pair_counts: HashMap<(String, String), u64> = HashMap::new();
            for (word, segs) in &segmentations {
                let count = self.word_counts[word];
                for pair in segs.windows(2) {
                    *pair_counts
                        .entry((pair[0].clone(), pair[1].clone()))
                        .or_insert(0) += count;
                }
            }
            let best = pair_counts
                .into_iter()
                .filter(|(_, c)| *c >= self.min_pair_count)
                .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)));
            let Some(((left, right), _)) = best else {
                break;
            };
            let merged = format!("{}{}", left, right.trim_start_matches("##"));
            pieces.entry(merged.clone()).or_insert(0);
            for segs in segmentations.values_mut() {
                let mut i = 0;
                while i + 1 < segs.len() {
                    if segs[i] == left && segs[i + 1] == right {
                        segs[i] = merged.clone();
                        segs.remove(i + 1);
                    } else {
                        i += 1;
                    }
                }
            }
            // Recompute piece counts cheaply: only existence matters for encoding, but
            // keep counts roughly updated for the size check.
            if pieces.len() >= self.target_size {
                break;
            }
        }

        let mut vocab: Vec<String> = vec![
            PAD_TOKEN.to_string(),
            UNK_TOKEN.to_string(),
            CLS_TOKEN.to_string(),
            SEP_TOKEN.to_string(),
            MASK_TOKEN.to_string(),
        ];
        let mut learned: Vec<String> = pieces.keys().cloned().collect();
        learned.sort();
        vocab.extend(learned);
        let ids = vocab
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i))
            .collect();
        SubwordTokenizer { vocab, ids }
    }
}

/// Greedy longest-match WordPiece tokeniser.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubwordTokenizer {
    vocab: Vec<String>,
    ids: HashMap<String, usize>,
}

impl SubwordTokenizer {
    /// Build directly from a list of pieces (specials are prepended automatically if
    /// missing). Intended for tests and for the character-level fallback tokeniser.
    pub fn from_pieces<I, S>(pieces: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut vocab: Vec<String> = vec![
            PAD_TOKEN.to_string(),
            UNK_TOKEN.to_string(),
            CLS_TOKEN.to_string(),
            SEP_TOKEN.to_string(),
            MASK_TOKEN.to_string(),
        ];
        for p in pieces {
            let p = p.as_ref().to_string();
            if !vocab.contains(&p) {
                vocab.push(p);
            }
        }
        let ids = vocab
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i))
            .collect();
        Self { vocab, ids }
    }

    /// Vocabulary size including special tokens.
    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// Piece string for an id.
    pub fn piece(&self, id: usize) -> Option<&str> {
        self.vocab.get(id).map(|s| s.as_str())
    }

    /// Id of the padding token.
    pub fn pad_id(&self) -> usize {
        self.ids[PAD_TOKEN]
    }

    /// Id of the unknown token.
    pub fn unk_id(&self) -> usize {
        self.ids[UNK_TOKEN]
    }

    /// Id of the classification token.
    pub fn cls_id(&self) -> usize {
        self.ids[CLS_TOKEN]
    }

    /// Id of the separator token.
    pub fn sep_id(&self) -> usize {
        self.ids[SEP_TOKEN]
    }

    /// Id of the mask token.
    pub fn mask_id(&self) -> usize {
        self.ids[MASK_TOKEN]
    }

    /// Segment a single word into pieces with greedy longest-match-first.
    pub fn encode_word(&self, word: &str) -> Vec<usize> {
        if word.is_empty() {
            return Vec::new();
        }
        if let Some(&id) = self.ids.get(word) {
            return vec![id];
        }
        let chars: Vec<char> = word.chars().collect();
        let mut out = Vec::new();
        let mut start = 0usize;
        while start < chars.len() {
            let mut end = chars.len();
            let mut found: Option<usize> = None;
            while end > start {
                let mut candidate: String = chars[start..end].iter().collect();
                if start > 0 {
                    candidate = format!("##{candidate}");
                }
                if let Some(&id) = self.ids.get(&candidate) {
                    found = Some(id);
                    break;
                }
                end -= 1;
            }
            match found {
                Some(id) => {
                    out.push(id);
                    start = end;
                }
                None => {
                    // Character unknown to the vocabulary: emit <unk> for the whole
                    // remaining word, matching WordPiece behaviour.
                    return vec![self.unk_id()];
                }
            }
        }
        out
    }

    /// Encode a sequence of words into piece ids (no special tokens added).
    pub fn encode_words<S: AsRef<str>>(&self, words: &[S]) -> Vec<usize> {
        words
            .iter()
            .flat_map(|w| self.encode_word(w.as_ref()))
            .collect()
    }

    /// Encode a sequence of words for classification: `[CLS] pieces... [SEP]`,
    /// truncated/padded to exactly `max_len` ids.
    pub fn encode_for_classification<S: AsRef<str>>(
        &self,
        words: &[S],
        max_len: usize,
    ) -> Vec<usize> {
        let mut ids = vec![self.cls_id()];
        ids.extend(self.encode_words(words));
        ids.truncate(max_len.saturating_sub(1));
        ids.push(self.sep_id());
        while ids.len() < max_len {
            ids.push(self.pad_id());
        }
        ids
    }

    /// Decode piece ids back to a readable string (continuation pieces are glued).
    pub fn decode(&self, ids: &[usize]) -> String {
        let mut out = String::new();
        for &id in ids {
            let Some(p) = self.piece(id) else { continue };
            if p == PAD_TOKEN || p == CLS_TOKEN || p == SEP_TOKEN {
                continue;
            }
            if let Some(cont) = p.strip_prefix("##") {
                out.push_str(cont);
            } else {
                if !out.is_empty() {
                    out.push(' ');
                }
                out.push_str(p);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trained_tokenizer() -> SubwordTokenizer {
        let mut b = SubwordVocabBuilder::new(200);
        let corpus = [
            "i feel exhausted and alone",
            "i feel anxious about my job",
            "my job drains me and i feel exhausted",
            "sleeping is hard and i feel anxious",
            "feeling alone and exhausted again",
        ];
        for doc in corpus {
            let words: Vec<&str> = doc.split_whitespace().collect();
            b.add_words(&words);
        }
        b.build()
    }

    #[test]
    fn frequent_words_become_single_pieces_or_few_pieces() {
        let t = trained_tokenizer();
        let ids = t.encode_word("feel");
        assert!(!ids.is_empty());
        assert!(ids.len() <= 4);
        assert!(ids.iter().all(|&i| i != t.unk_id()));
    }

    #[test]
    fn unknown_characters_map_to_unk() {
        let t = trained_tokenizer();
        assert_eq!(t.encode_word("数"), vec![t.unk_id()]);
    }

    #[test]
    fn decode_round_trips_known_words() {
        let t = trained_tokenizer();
        let ids = t.encode_words(&["i", "feel", "alone"]);
        let decoded = t.decode(&ids);
        assert_eq!(decoded.replace(' ', ""), "ifeelalone");
    }

    #[test]
    fn classification_encoding_has_fixed_length() {
        let t = trained_tokenizer();
        let ids = t.encode_for_classification(&["i", "feel", "exhausted"], 16);
        assert_eq!(ids.len(), 16);
        assert_eq!(ids[0], t.cls_id());
        assert!(ids.contains(&t.sep_id()));
        assert_eq!(*ids.last().unwrap(), t.pad_id());
    }

    #[test]
    fn classification_encoding_truncates_long_input() {
        let t = trained_tokenizer();
        let many: Vec<String> = (0..200).map(|_| "exhausted".to_string()).collect();
        let ids = t.encode_for_classification(&many, 32);
        assert_eq!(ids.len(), 32);
        assert_eq!(*ids.last().unwrap(), t.sep_id());
    }

    #[test]
    fn from_pieces_respects_specials() {
        let t = SubwordTokenizer::from_pieces(["feel", "##ing"]);
        assert_eq!(t.pad_id(), 0);
        assert_eq!(t.unk_id(), 1);
        let ids = t.encode_word("feeling");
        assert_eq!(ids.len(), 2);
        assert_eq!(t.decode(&ids), "feeling");
    }

    #[test]
    fn empty_word_is_empty_encoding() {
        let t = trained_tokenizer();
        assert!(t.encode_word("").is_empty());
    }
}
