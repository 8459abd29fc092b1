//! The §4.3.5 preprocessing pipeline.
//!
//! Before running TF-IDF the paper "filtered out all words that have less
//! than 5 characters, and remov\[ed\] all known header-related words, for
//! instance 'delivered' and 'charset', honey email handles, and also
//! signaling information that our monitoring infrastructure introduced".
//! This module is that pipeline: a lowercasing alphabetic tokenizer, the
//! length filter, the header stoplist, and caller-supplied extra stop
//! terms (handles and monitor markers).

use std::collections::HashSet;

/// Minimum term length kept by the pipeline.
pub const MIN_TERM_LEN: usize = 5;

/// Header-related words stripped before analysis. Deliberately *excludes*
/// "transfer": the paper's Table 2 ranks `transfer` as the most important
/// corpus word, so `Content-Transfer-Encoding` fragments must be handled
/// by stripping `encoding`/`content`, not the word itself.
pub const HEADER_STOPWORDS: &[&str] = &[
    "delivered",
    "charset",
    "received",
    "content",
    "encoding",
    "boundary",
    "multipart",
    "quoted",
    "printable",
    "mailto",
    "subject",
    "message",
    "mailer",
    "precedence",
    "return",
    "sender",
];

/// A reusable tokenizer configuration.
#[derive(Clone, Debug, Default)]
pub struct Tokenizer {
    extra_stop: HashSet<String>,
}

impl Tokenizer {
    /// A tokenizer with only the built-in header stoplist.
    pub fn new() -> Tokenizer {
        Tokenizer::default()
    }

    /// Add extra stop terms: honey handles, monitor signal markers.
    /// Terms are matched lowercase.
    pub fn with_extra_stopwords<I, S>(mut self, words: I) -> Tokenizer
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        for w in words {
            self.extra_stop.insert(w.as_ref().to_lowercase());
        }
        self
    }

    /// Tokenize `text` into filtered lowercase terms.
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        let mut terms = Vec::new();
        self.for_each_term(text, |t| terms.push(t.to_string()));
        terms
    }

    /// Call `f` on each filtered lowercase term of `text`, in order — the
    /// terms [`Tokenizer::tokenize`] returns, without allocating one
    /// string per term: each is lowercased into one reused buffer.
    pub fn for_each_term(&self, text: &str, mut f: impl FnMut(&str)) {
        let mut term = String::new();
        for word in text.split(|c: char| !c.is_ascii_alphabetic()) {
            if word.len() < MIN_TERM_LEN {
                continue;
            }
            term.clear();
            term.push_str(word);
            // Words are ASCII-alphabetic runs, so ASCII lowercasing is
            // exact.
            term.make_ascii_lowercase();
            if !HEADER_STOPWORDS.contains(&term.as_str()) && !self.extra_stop.contains(&term) {
                f(&term);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drops_short_words() {
        let t = Tokenizer::new();
        let toks = t.tokenize("the cat sat on the energy market desk");
        assert_eq!(toks, vec!["energy", "market"]);
    }

    #[test]
    fn strips_header_words_but_keeps_transfer() {
        let t = Tokenizer::new();
        let toks = t.tokenize("Content-Transfer-Encoding: quoted-printable transfer charset=utf8");
        assert_eq!(toks, vec!["transfer", "transfer"]);
    }

    #[test]
    fn lowercases_and_splits_on_punctuation() {
        let t = Tokenizer::new();
        let toks = t.tokenize("PAYMENT!!! seller,family;bitcoin_wallet");
        assert_eq!(
            toks,
            vec!["payment", "seller", "family", "bitcoin", "wallet"]
        );
    }

    #[test]
    fn extra_stopwords_remove_handles() {
        let t = Tokenizer::new().with_extra_stopwords(["james", "smith", "honeymail"]);
        let toks = t.tokenize("james.smith@honeymail.example discussed payment");
        assert_eq!(toks, vec!["example", "discussed", "payment"]);
    }

    #[test]
    fn numbers_are_not_terms() {
        let t = Tokenizer::new();
        let toks = t.tokenize("12345 67890abcde payment99999");
        // "abcde" survives (alphabetic run of 5), digits never do.
        assert_eq!(toks, vec!["abcde", "payment"]);
    }

    #[test]
    fn for_each_term_visits_the_tokenized_terms_in_order() {
        let t = Tokenizer::new().with_extra_stopwords(["smith"]);
        let text = "Smith wrote: PAYMENT due, charset=utf8; transfer Transfer";
        let mut seen = Vec::new();
        t.for_each_term(text, |w| seen.push(w.to_string()));
        assert_eq!(seen, t.tokenize(text));
        assert_eq!(seen, vec!["wrote", "payment", "transfer", "transfer"]);
    }

    #[test]
    fn empty_input_yields_no_terms() {
        assert!(Tokenizer::new().tokenize("").is_empty());
        assert!(Tokenizer::new().tokenize("a b c d").is_empty());
    }
}
