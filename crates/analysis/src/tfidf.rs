//! TF-IDF keyword inference (§4.3.5, Table 2).
//!
//! The paper ranks terms in a two-document corpus — `d_A` (all emails in
//! the honey accounts) and `d_R` (the emails attackers opened) — and
//! takes `TFIDF_R − TFIDF_A` as the signal of what attackers searched
//! for. With the textbook `idf = log(N/df)` every term present in both
//! documents would score exactly zero, yet the paper's Table 2 shows
//! non-zero weights for shared terms — so, like the standard tooling the
//! authors evidently used, we use the smoothed variant with L2-normalized
//! vectors:
//!
//! ```text
//! tf(t, d)  = raw count of t in d
//! idf(t)    = ln((1 + N) / (1 + df(t))) + 1        (N = 2 documents)
//! tfidf     = tf · idf, then each document vector L2-normalized
//! ```
//!
//! Values land in [0, 1] and shared terms stay comparable across the two
//! documents, exactly matching the paper's table semantics.

use pwnd_corpus::tokenize::{TermCounts, Tokenizer};
use std::borrow::Borrow;
use std::collections::BTreeMap;

/// One row of the Table 2 data.
#[derive(Clone, Debug, PartialEq)]
pub struct TermScore {
    /// The term.
    pub term: String,
    /// Weight in the opened-emails document (`TFIDF_R`).
    pub tfidf_r: f64,
    /// Weight in the all-emails document (`TFIDF_A`).
    pub tfidf_a: f64,
}

impl TermScore {
    /// `TFIDF_R − TFIDF_A` — the "searched-for" signal.
    pub fn diff(&self) -> f64 {
        self.tfidf_r - self.tfidf_a
    }
}

/// The full term table over the two-document corpus.
#[derive(Clone, Debug)]
pub struct TfidfTable {
    scores: Vec<TermScore>,
}

fn counts(tokens: &[String]) -> BTreeMap<&str, f64> {
    let mut m: BTreeMap<&str, f64> = BTreeMap::new();
    for t in tokens {
        *m.entry(t.as_str()).or_insert(0.0) += 1.0;
    }
    m
}

/// `doc`'s terms under `tokenizer`, with their counts as exact `f64`s.
fn term_counts(doc: &TermCounts, tokenizer: &Tokenizer) -> BTreeMap<String, f64> {
    doc.terms(tokenizer)
        .into_iter()
        .map(|(t, c)| (t, c as f64))
        .collect()
}

impl TfidfTable {
    /// Build from the word counts of all emails (`d_A`) and the raw text
    /// of the opened emails (`d_R`), both read through `tokenizer`. Equal
    /// to [`TfidfTable::from_tokens`] over `tokenizer.tokenize` of both
    /// documents' text: counts are exact integers, and case folding and
    /// stop terms apply per word.
    pub fn build(d_a: &TermCounts, opened_text: &str, tokenizer: &Tokenizer) -> TfidfTable {
        let mut d_r = TermCounts::new();
        d_r.add(opened_text);
        Self::from_counts(&term_counts(d_a, tokenizer), &term_counts(&d_r, tokenizer))
    }

    /// Build from pre-tokenized documents.
    pub fn from_tokens(tokens_a: &[String], tokens_r: &[String]) -> TfidfTable {
        Self::from_counts(&counts(tokens_a), &counts(tokens_r))
    }

    fn from_counts<K: Borrow<str> + Ord>(
        ca: &BTreeMap<K, f64>,
        cr: &BTreeMap<K, f64>,
    ) -> TfidfTable {
        let mut vocab: Vec<&str> = ca.keys().chain(cr.keys()).map(Borrow::borrow).collect();
        vocab.sort_unstable();
        vocab.dedup();

        let n_docs = 2.0f64;
        let mut rows: Vec<(String, f64, f64)> = Vec::with_capacity(vocab.len());
        for term in vocab {
            let tfa = ca.get(term).copied().unwrap_or(0.0);
            let tfr = cr.get(term).copied().unwrap_or(0.0);
            let df = f64::from(u8::from(tfa > 0.0)) + f64::from(u8::from(tfr > 0.0));
            let idf = ((1.0 + n_docs) / (1.0 + df)).ln() + 1.0;
            rows.push((term.to_string(), tfr * idf, tfa * idf));
        }
        // L2-normalize each document vector.
        let norm_r = rows.iter().map(|r| r.1 * r.1).sum::<f64>().sqrt();
        let norm_a = rows.iter().map(|r| r.2 * r.2).sum::<f64>().sqrt();
        let scores = rows
            .into_iter()
            .map(|(term, r, a)| TermScore {
                term,
                tfidf_r: if norm_r > 0.0 { r / norm_r } else { 0.0 },
                tfidf_a: if norm_a > 0.0 { a / norm_a } else { 0.0 },
            })
            .collect();
        TfidfTable { scores }
    }

    /// All rows.
    pub fn scores(&self) -> &[TermScore] {
        &self.scores
    }

    /// Top `n` terms by `TFIDF_R − TFIDF_A` — the inferred searched-for
    /// words (Table 2, left).
    pub fn top_searched(&self, n: usize) -> Vec<&TermScore> {
        let mut v: Vec<&TermScore> = self.scores.iter().collect();
        v.sort_by(|a, b| b.diff().partial_cmp(&a.diff()).expect("finite"));
        v.truncate(n);
        v
    }

    /// Top `n` terms by `TFIDF_A` — the most important corpus words
    /// (Table 2, right).
    pub fn top_corpus(&self, n: usize) -> Vec<&TermScore> {
        let mut v: Vec<&TermScore> = self.scores.iter().collect();
        v.sort_by(|a, b| b.tfidf_a.partial_cmp(&a.tfidf_a).expect("finite"));
        v.truncate(n);
        v
    }

    /// Look up one term.
    pub fn get(&self, term: &str) -> Option<&TermScore> {
        self.scores.iter().find(|s| s.term == term)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counted(text: &str) -> TermCounts {
        let mut c = TermCounts::new();
        c.add(text);
        c
    }

    fn table() -> TfidfTable {
        // d_A: business corpus dominated by "energy"/"transfer".
        let all = "energy transfer company energy transfer schedule energy \
                   power company please would transfer information about \
                   payment account energy power transfer company original";
        // d_R: opened emails dominated by sensitive + bitcoin terms.
        let opened = "payment account bitcoin bitcoin family seller \
                      localbitcoins payment account bitcoins below listed \
                      energy transfer";
        TfidfTable::build(&counted(all), opened, &Tokenizer::new())
    }

    #[test]
    fn searched_terms_rank_by_difference() {
        let t = table();
        let top: Vec<&str> = t.top_searched(10).iter().map(|s| s.term.as_str()).collect();
        assert!(top.contains(&"bitcoin"), "{top:?}");
        assert!(
            top.contains(&"payment") || top.contains(&"account"),
            "{top:?}"
        );
        // Corpus-dominant terms must NOT rank as searched.
        assert!(!top.contains(&"energy"));
        assert!(!top.contains(&"transfer"));
    }

    #[test]
    fn corpus_terms_rank_by_tfidf_a() {
        let t = table();
        let top: Vec<&str> = t.top_corpus(3).iter().map(|s| s.term.as_str()).collect();
        assert!(top.contains(&"energy"), "{top:?}");
        assert!(top.contains(&"transfer"), "{top:?}");
    }

    #[test]
    fn shared_terms_have_nonzero_weights_in_both() {
        // The smoothed idf keeps shared terms visible (paper Table 2
        // semantics: "transfer" has weight in both columns).
        let t = table();
        let s = t.get("energy").unwrap();
        assert!(s.tfidf_a > 0.0);
        assert!(s.tfidf_r > 0.0);
    }

    #[test]
    fn corpus_only_terms_have_negative_diff() {
        let t = table();
        let s = t.get("company").unwrap();
        assert_eq!(s.tfidf_r, 0.0);
        assert!(s.diff() < 0.0);
    }

    #[test]
    fn weights_are_normalized() {
        let t = table();
        let sum_r: f64 = t.scores().iter().map(|s| s.tfidf_r * s.tfidf_r).sum();
        let sum_a: f64 = t.scores().iter().map(|s| s.tfidf_a * s.tfidf_a).sum();
        assert!((sum_r - 1.0).abs() < 1e-9);
        assert!((sum_a - 1.0).abs() < 1e-9);
        for s in t.scores() {
            assert!((0.0..=1.0).contains(&s.tfidf_r));
            assert!((0.0..=1.0).contains(&s.tfidf_a));
        }
    }

    #[test]
    fn empty_documents_are_safe() {
        let t = TfidfTable::build(&TermCounts::new(), "", &Tokenizer::new());
        assert!(t.scores().is_empty());
        assert!(t.top_searched(10).is_empty());
    }

    #[test]
    fn case_and_stop_terms_apply_to_counted_d_a() {
        let tokenizer = Tokenizer::new().with_extra_stopwords(["james"]);
        let t = TfidfTable::build(&counted("James ENERGY energy"), "james payment", &tokenizer);
        assert!(t.get("james").is_none());
        assert_eq!(t.get("energy").unwrap().tfidf_a, 1.0);
    }

    #[test]
    fn preprocessing_is_applied() {
        // Short words and header words never appear as terms.
        let t = TfidfTable::build(
            &counted("the charset energy"),
            "the delivered payment",
            &Tokenizer::new(),
        );
        assert!(t.get("charset").is_none());
        assert!(t.get("delivered").is_none());
        assert!(t.get("the").is_none());
        assert!(t.get("energy").is_some());
    }
}
