//! Vocabulary pools for the synthetic corporate corpus.
//!
//! The TF-IDF analysis of §4.3.5 (Table 2) compares term importance in
//! *all* seeded emails against term importance in the emails attackers
//! opened. Two vocabulary strata matter:
//!
//! * **Corpus-dominant terms** — the everyday business-of-energy words
//!   that dominate the whole mailbox ("transfer", "company", "energy",
//!   "power", "information", …). These must be frequent everywhere so
//!   they rank high in `TFIDF_A` (right column of Table 2).
//! * **Sensitive terms** — the financially interesting words that appear
//!   in only a few messages ("account", "payment", "seller", "family",
//!   "listed", "below", "results"). Gold diggers search for these, so
//!   they dominate the *opened* set and rank high in `TFIDF_R − TFIDF_A`
//!   (left column of Table 2). The bitcoin-family terms are deliberately
//!   absent: the paper notes they entered the opened-set only through the
//!   blackmailer's abandoned drafts, and our blackmailer case study is
//!   what introduces them.

/// Business words that dominate the corpus (each ≥ 5 characters so they
/// survive the tokenizer's length filter).
pub const CORE_BUSINESS: &[&str] = &[
    "transfer",
    "please",
    "original",
    "company",
    "would",
    "energy",
    "information",
    "about",
    "email",
    "power",
    "schedule",
    "meeting",
    "report",
    "market",
    "trading",
    "contract",
    "project",
    "quarter",
    "review",
    "attached",
    "agreement",
    "capacity",
    "delivery",
    "pipeline",
    "forecast",
    "revenue",
    "management",
    "operations",
    "customer",
    "service",
];

/// Sensitive terms that gold diggers search for. Kept rare in the corpus
/// (they appear in roughly one message in twenty) so that attacker
/// searches concentrate them in the opened set.
pub const SENSITIVE: &[&str] = &[
    "account",
    "payment",
    "seller",
    "family",
    "listed",
    "below",
    "results",
    "banking",
    "salary",
    "invoice",
    "password",
    "statement",
];

/// Generic filler vocabulary (Zipf-weighted). A mix of ≥5-char words that
/// survive tokenization and short words that exercise the length filter.
pub const FILLER: &[&str] = &[
    // Head of the Zipf distribution: short function words. The tokenizer
    // drops them (< 5 chars), which keeps the surviving content words'
    // frequencies flat — important so TF-IDF noise does not drown the
    // searched-term signal of Table 2.
    "with",
    "this",
    "that",
    "from",
    "will",
    "have",
    "been",
    "your",
    "know",
    "need",
    "good",
    "well",
    "send",
    "sent",
    "also",
    "note",
    "plan",
    "work",
    "week",
    "time",
    "next",
    "last",
    "call",
    "team",
    "desk",
    // Content fillers (≥ 5 chars, survive tokenization).
    "regarding",
    "following",
    "discussed",
    "yesterday",
    "tomorrow",
    "morning",
    "afternoon",
    "available",
    "possible",
    "question",
    "update",
    "changes",
    "numbers",
    "position",
    "group",
    "system",
    "process",
    "issues",
    "details",
    "thanks",
    "regards",
    "draft",
    "final",
    "today",
    "letter",
    "office",
    "monday",
    "friday",
    "counterparty",
    "settlement",
    "exposure",
    "curves",
    "volumes",
    "points",
    "basis",
    "storage",
];

/// Subject-line templates. `{}` slots are filled from [`CORE_BUSINESS`].
/// A `static`, so the one table [`TermCounts`](crate::tokenize::TermCounts)
/// counts template uses against has one address.
pub static SUBJECT_TEMPLATES: [&str; 8] = [
    "RE: {} {} schedule",
    "FW: {} update",
    "{} {} meeting notes",
    "Q3 {} review",
    "{} agreement - draft",
    "Weekly {} report",
    "{} desk summary",
    "Action required: {} {}",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_right_column_terms_are_core() {
        // Every "common word" from the paper's Table 2 must be in the
        // corpus-dominant stratum.
        for w in [
            "transfer",
            "please",
            "original",
            "company",
            "would",
            "energy",
            "information",
            "about",
            "email",
            "power",
        ] {
            assert!(CORE_BUSINESS.contains(&w), "missing core term {w}");
        }
    }

    #[test]
    fn table2_searchable_terms_are_sensitive() {
        for w in [
            "account", "payment", "seller", "family", "listed", "below", "results",
        ] {
            assert!(SENSITIVE.contains(&w), "missing sensitive term {w}");
        }
    }

    #[test]
    fn bitcoin_terms_absent_from_corpus_vocab() {
        // The paper: "Originally, the Enron dataset had no 'bitcoin' term."
        for pool in [CORE_BUSINESS, SENSITIVE, FILLER] {
            assert!(pool.iter().all(|w| !w.contains("bitcoin")));
        }
    }

    #[test]
    fn core_terms_survive_length_filter() {
        for w in CORE_BUSINESS {
            assert!(w.len() >= 5, "{w} would be dropped by the tokenizer");
        }
        for w in SENSITIVE {
            assert!(w.len() >= 5, "{w} would be dropped by the tokenizer");
        }
    }
}
