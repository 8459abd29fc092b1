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
//! A paper run answers about a hundred searches, so there is no
//! inverted index: each query scans one mailbox's messages outside the
//! Sent folder. A term is a maximal run of ASCII alphanumerics, compared
//! ASCII-case-insensitively: text is folded to ASCII lowercase in one
//! reused buffer, and a term is found with `match_indices` and accepted
//! only where the bytes on both sides are not ASCII-alphanumeric. That
//! is exact: ASCII case folding never moves a run boundary, and every
//! byte of a multi-byte UTF-8 character is a separator.
//!
//! A seeded body holds a term exactly when one of its pieces does (see
//! [`pwnd_corpus::generator`]), so it is never rendered: each term
//! becomes a 256-bit mask of the code-table pieces holding it, and only
//! the subject and the frame (the body without its codes: greeting,
//! owner's first name, signature) are folded. A term's mask depends only
//! on the code table, so [`PieceMasks`] keeps it for every later search.
//! A seeded message's subject line is its thread's and its frame is its
//! sender's, so one search folds and scans each subject once per thread
//! and each frame once per sender, not once per message. Subject and
//! frame are separate texts in the scan: a space joins them in the
//! rendered message, and no token spans a space.

use crate::mailbox::{Body, Folder, Mailbox};
use pwnd_corpus::email::EmailId;
use pwnd_corpus::generator::SeededBody;
use pwnd_corpus::Archetype;
use pwnd_sim::SimTime;
use std::collections::{BTreeMap, BTreeSet};

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

/// Bit `k` is set when code `k`'s piece of `archetype` holds `term`.
fn piece_mask(archetype: Archetype, term: &str) -> [u64; 4] {
    let mut mask = [0; 4];
    let mut piece_text = String::new();
    for (k, piece) in archetype.code_table().iter().enumerate() {
        piece_text.clear();
        piece_text.push_str(piece);
        piece_text.make_ascii_lowercase();
        if contains_token(&piece_text, term) {
            mask[k / 64] |= 1 << (k % 64);
        }
    }
    mask
}

/// Bit `i` is set when the text `write` puts in `buf`, folded, holds
/// `terms[i]`.
fn terms_written(buf: &mut String, terms: &[String], write: impl FnOnce(&mut String)) -> u64 {
    buf.clear();
    write(buf);
    buf.make_ascii_lowercase();
    let held = terms.iter().map(|term| contains_token(buf, term));
    held.enumerate()
        .fold(0, |found, (i, held)| found | u64::from(held) << i)
}

/// Run `query` over the mail in `mailbox` outside the Sent folder:
/// conjunctive term match, case-insensitive, results ranked
/// newest-first (Gmail's default) with the id as tie-break. A query with no terms matches nothing.
/// Logging the query is the caller's job. A caller that searches more
/// than once keeps a [`PieceMasks`] and calls [`PieceMasks::search`].
pub fn search(mailbox: &Mailbox, query: &str) -> Vec<EmailId> {
    PieceMasks::default().search(mailbox, query)
}

/// Each searched term's piece mask for each archetype, kept from one
/// search to the next.
#[derive(Clone, Debug, Default)]
pub struct PieceMasks {
    masks: BTreeMap<Archetype, BTreeMap<String, [u64; 4]>>,
}

impl PieceMasks {
    /// [`search`], reading and keeping the piece masks here.
    pub fn search(&mut self, mailbox: &Mailbox, query: &str) -> Vec<EmailId> {
        let mut terms: Vec<String> = query
            .split(|c: char| !c.is_ascii_alphanumeric())
            .filter(|t| !t.is_empty())
            .map(str::to_ascii_lowercase)
            .collect();
        if terms.is_empty() {
            return Vec::new();
        }
        terms.sort_unstable();
        terms.dedup();
        self.search_terms(mailbox, &terms)
    }

    /// The mail holding every one of `terms`, ranked: a scan for the
    /// first 64 terms (one bit each), the rest kept by a search of their
    /// own.
    fn search_terms(&mut self, mailbox: &Mailbox, terms: &[String]) -> Vec<EmailId> {
        let (head, rest) = terms.split_at(terms.len().min(64));
        let mut hits = self.scan(mailbox, head);
        if !rest.is_empty() {
            let also: BTreeSet<EmailId> = self.search_terms(mailbox, rest).into_iter().collect();
            hits.retain(|id| also.contains(id));
        }
        hits
    }

    /// The piece mask of `term` for `archetype`, computed the first time
    /// it is asked for.
    fn mask(&mut self, archetype: Archetype, term: &str) -> [u64; 4] {
        let masks = self.masks.entry(archetype).or_default();
        match masks.get(term) {
            Some(&mask) => mask,
            None => *masks
                .entry(term.to_string())
                .or_insert_with(|| piece_mask(archetype, term)),
        }
    }

    /// The ranked mail holding every one of `terms` (at most 64).
    fn scan(&mut self, mailbox: &Mailbox, terms: &[String]) -> Vec<EmailId> {
        let all = u64::MAX >> (64 - terms.len());
        // Fits a seeded frame.
        let mut buf = String::with_capacity(128);
        // For the archetype last seen, the terms each code's piece holds.
        let mut pieces: Option<(Archetype, [u64; 256])> = None;
        // The terms the last seeded subject line holds.
        let mut subject: Option<(&str, u64)> = None;
        // The terms each seeded frame holds, by batch and sender.
        let mut frames: BTreeMap<(u16, u16), u64> = BTreeMap::new();
        let mut hits = Vec::new();
        let messages = mailbox.messages_with_frames();
        for (id, m, frame) in messages.filter(|(_, m, _)| m.folder != Folder::Sent) {
            let found = match (m.body, frame) {
                (Body::Seeded(body), Some(frame)) => {
                    if pieces.as_ref().is_none_or(|p| p.0 != body.archetype) {
                        let mut by_code = [0u64; 256];
                        for (i, term) in terms.iter().enumerate() {
                            let mask = self.mask(body.archetype, term);
                            for (code, bits) in by_code.iter_mut().enumerate() {
                                *bits |= (mask[code / 64] >> (code % 64) & 1) << i;
                            }
                        }
                        pieces = Some((body.archetype, by_code));
                    }
                    let by_code = &pieces.as_ref().expect("built above").1;
                    let codes = body.codes.iter();
                    let mut found = codes.fold(0, |f, &c| f | by_code[usize::from(c)]);
                    if found != all {
                        let held = match subject {
                            Some((line, held)) if std::ptr::eq(line, m.subject) => held,
                            _ => {
                                let held = terms_written(&mut buf, terms, |buf| {
                                    buf.push_str(m.subject);
                                });
                                subject = Some((m.subject, held));
                                held
                            }
                        };
                        found |= held;
                    }
                    if found != all {
                        found |= *frames.entry(frame).or_insert_with(|| {
                            terms_written(&mut buf, terms, |buf| {
                                SeededBody { codes: &[], ..body }.write_text(buf);
                            })
                        });
                    }
                    found
                }
                (body, _) => terms_written(&mut buf, terms, |buf| {
                    buf.push_str(m.subject);
                    buf.push(' ');
                    body.write_text(buf);
                }),
            };
            if found == all {
                hits.push((std::cmp::Reverse(m.timestamp), id));
            }
        }
        hits.sort_unstable();
        hits.into_iter().map(|(_, id)| id).collect()
    }
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
    fn queries_past_sixty_four_terms_need_every_term() {
        let words: Vec<String> = (0..70).map(|i| format!("w{i}")).collect();
        let mut mb = Mailbox::new();
        mb.deliver(&mk(1, "all", &words.join(" ")));
        mb.deliver(&mk(2, "all but the last", &words[..69].join(" ")));
        mb.deliver(&mk(3, "all but the first", &words[1..].join(" ")));
        assert_eq!(search(&mb, &words.join(" ")), vec![EmailId(1)]);
        assert_eq!(
            search(&mb, &words[1..69].join(",")),
            vec![EmailId(3), EmailId(2), EmailId(1)]
        );
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
