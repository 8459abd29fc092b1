//! Mailbox search plus provider-side query logs.
//!
//! Gold diggers find sensitive mail by *searching*, and the paper's key
//! limitation (§4.3.5) is that researchers could only observe the emails
//! attackers **opened**, never the query strings — those live in logs only
//! the provider can read. We reproduce both halves: [`search`] serves
//! ranked results, and the service appends every query to a ground-truth
//! [`QueryLogEntry`] log that the monitor crate has no access to (tests
//! use it to validate the TF-IDF keyword-inference pipeline against what
//! was really searched).
//!
//! ## Scanning instead of indexing
//!
//! A paper run seeds ~1.3M tokens across 100 mailboxes and answers about
//! a hundred searches, so there is no inverted index: each query scans
//! every message outside the Sent folder (seeded and delivered mail and
//! drafts), reading each subject and body in place from the mailbox's
//! text arena (see [`crate::mailbox`]). Per email, the two are copied
//! into one reused buffer, joined by a space and folded to ASCII
//! lowercase, and each query term is found with `match_indices` and
//! accepted only where the bytes on both sides are not
//! ASCII-alphanumeric. That is exact for the
//! search token model — a term is a maximal run of ASCII alphanumerics,
//! compared ASCII-case-insensitively — because ASCII case folding never
//! moves a run boundary and every byte of a multi-byte UTF-8 character
//! is a separator.

use crate::mailbox::{Folder, Mailbox};
use pwnd_corpus::email::EmailId;
use pwnd_sim::SimTime;

/// One logged query (provider-side ground truth).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryLogEntry {
    /// When the query ran.
    pub at: SimTime,
    /// The raw query string.
    pub query: String,
    /// How many results it returned.
    pub hits: usize,
}

/// Whether `text` holds `term` as a whole token: a match whose
/// neighbouring bytes (if any) are not ASCII-alphanumeric. `term` is a
/// non-empty ASCII-alphanumeric run, so a match that straddles a valid
/// one is impossible and non-overlapping `match_indices` misses nothing.
fn contains_token(text: &str, term: &str) -> bool {
    // `str::contains` has a SIMD fast path that `match_indices` lacks,
    // and most emails hold no occurrence at all: reject those first.
    if !text.contains(term) {
        return false;
    }
    let bytes = text.as_bytes();
    text.match_indices(term).any(|(start, _)| {
        let end = start + term.len();
        (start == 0 || !bytes[start - 1].is_ascii_alphanumeric())
            && (end == bytes.len() || !bytes[end].is_ascii_alphanumeric())
    })
}

/// Run `query` over the mail in `mailbox` outside the Sent folder:
/// conjunctive term match, case-insensitive, results ranked
/// newest-first (Gmail's default) with the id as tie-break. A query with no terms matches nothing.
/// Logging the query is the caller's job.
// lint:hot-root
pub fn search(mailbox: &Mailbox, query: &str) -> Vec<EmailId> {
    let mut terms: Vec<String> = query
        .split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| t.to_ascii_lowercase())
        .collect();
    if terms.is_empty() {
        return Vec::new();
    }
    terms.sort_unstable();
    terms.dedup();
    let mut text = String::new();
    let mut hits = Vec::new();
    for (id, m) in mailbox.messages().filter(|(_, m)| m.folder != Folder::Sent) {
        text.clear();
        text.push_str(m.subject);
        text.push(' ');
        text.push_str(m.body);
        text.make_ascii_lowercase();
        if terms.iter().all(|t| contains_token(&text, t)) {
            hits.push((std::cmp::Reverse(m.timestamp), id));
        }
    }
    hits.sort_unstable();
    hits.into_iter().map(|(_, id)| id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwnd_corpus::email::{Email, MailTime};

    fn mk(id: u64, subject: &str, body: &str) -> Email {
        Email {
            id: EmailId(id),
            from: "f@x".into(),
            to: vec!["t@x".into()],
            subject: subject.into(),
            body: body.into(),
            // Higher ids are newer, so recency ranking mirrors id order
            // in these fixtures.
            timestamp: MailTime(-1_000 + id as i64),
        }
    }

    fn mailbox() -> Mailbox {
        let mut mb = Mailbox::new();
        mb.deliver(&mk(
            1,
            "Payment schedule",
            "the wire transfer payment is due",
        ));
        mb.deliver(&mk(2, "Lunch", "see you at noon"));
        mb.deliver(&mk(3, "Account payment", "account number attached"));
        mb
    }

    #[test]
    fn single_term_search_newest_first() {
        assert_eq!(search(&mailbox(), "payment"), vec![EmailId(3), EmailId(1)]);
    }

    #[test]
    fn conjunctive_multi_term() {
        assert_eq!(search(&mailbox(), "account payment"), vec![EmailId(3)]);
    }

    #[test]
    fn case_insensitive() {
        assert_eq!(search(&mailbox(), "PAYMENT").len(), 2);
    }

    #[test]
    fn no_hits_and_empty_query() {
        assert!(search(&mailbox(), "bitcoin").is_empty());
        assert!(search(&mailbox(), "  ").is_empty());
    }

    #[test]
    fn matches_whole_tokens_only() {
        let mut mb = Mailbox::new();
        mb.deliver(&mk(1, "prepayment", "payments x2payment"));
        mb.deliver(&mk(2, "re:Payment!", "naïvepayment"));
        mb.deliver(&mk(3, "pay", "ment"));
        // Only mail 2 holds "payment" as a whole token: punctuation and
        // the multi-byte `ï` both separate tokens; the subject/body seam
        // never glues two tokens together.
        assert_eq!(search(&mb, "payment"), vec![EmailId(2)]);
        assert!(search(&mb, "payme").is_empty());
        assert!(search(&mb, "payment2").is_empty());
        assert_eq!(search(&mb, "x2payment"), vec![EmailId(1)]);
    }

    #[test]
    fn recency_ranking_overrides_id_order_and_ties_break_by_id() {
        let mut mb = Mailbox::new();
        let mut new = mk(1, "payment new", "");
        new.timestamp = MailTime(100);
        let mut old = mk(2, "payment old", "");
        old.timestamp = MailTime(-100);
        let mut tie = mk(3, "payment tie", "");
        tie.timestamp = MailTime(100);
        mb.deliver(&old);
        mb.deliver(&tie);
        mb.deliver(&new);
        assert_eq!(
            search(&mb, "payment"),
            vec![EmailId(1), EmailId(3), EmailId(2)]
        );
    }
}
