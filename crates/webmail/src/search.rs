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
//! ## Codes instead of text
//!
//! A paper run answers about a hundred searches, so there is no inverted
//! index: each query reads one mailbox's messages outside the Sent
//! folder. A term is a maximal run of ASCII alphanumerics, compared
//! ASCII-case-insensitively, and a text holds it when one of its own
//! runs equals it. That needs no folded copy: every byte of a
//! multi-byte UTF-8 character separates runs.
//!
//! Seeded mail is decided by bit masks; its text is never rendered or
//! folded. A seeded message holds a term exactly when one of its pieces
//! does (see [`pwnd_corpus::generator`]): a code-table piece of its body
//! or of its subject's slots, its subject template, or its frame (the
//! body without its codes: greeting, owner's first name, signature). So:
//!
//! - each term gets a mask of the code-table pieces and of the templates
//!   holding it, which depends only on the archetype, and [`PieceMasks`]
//!   keeps it for every later search;
//! - the mailbox keeps each seeded message's codes, body and subject
//!   slots, as one mask, with its template and frame, built at its first
//!   search and kept (its search index; [`Mailbox::file`] adds text mail
//!   to it);
//! - a search reads each frame once per sender, as the runs of its
//!   names and of the parts every frame of the batch shares.
//!
//! A seeded message then costs a lookup of its frame and template and an
//! `AND` per term. Text mail (delivered, drafts) is read as its subject,
//! a space and its body, so no token spans the seam.

use crate::mailbox::Mailbox;
use pwnd_corpus::email::EmailId;
use pwnd_corpus::generator::{GREETING, SIGN_OFF, SUBJECT_PREFIX};
use pwnd_corpus::vocab::SUBJECT_TEMPLATES;
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

/// Bit `i` is set when `text` holds `terms[i]` (ASCII lowercase) as a
/// whole token: one of its maximal runs of ASCII alphanumerics, in any
/// ASCII case. Every byte of a multi-byte character separates runs.
fn tokens_held(text: &str, terms: &[String]) -> u64 {
    let runs = text.as_bytes().split(|b| !b.is_ascii_alphanumeric());
    runs.filter(|run| !run.is_empty()).fold(0, |found, run| {
        let terms = terms.iter().enumerate();
        terms.fold(found, |found, (i, term)| {
            found | u64::from(run.eq_ignore_ascii_case(term.as_bytes())) << i
        })
    })
}

/// Which pieces of an archetype's seeded mail hold a term.
#[derive(Clone, Copy, Debug)]
struct TermMask {
    /// Bit `k` is set when code `k`'s piece holds the term.
    pieces: u128,
    /// Bit `t` is set when [`SUBJECT_PREFIX`] and template `t` hold it.
    templates: u64,
}

impl TermMask {
    fn new(archetype: Archetype, term: &str) -> TermMask {
        let term = [term.to_string()];
        let holds = |text: &str| tokens_held(text, &term) != 0;
        let mut pieces = 0;
        for (k, piece) in archetype.code_table().iter().enumerate() {
            pieces |= u128::from(holds(piece)) << k;
        }
        let mut templates = 0;
        for (t, template) in SUBJECT_TEMPLATES.iter().enumerate() {
            let held = holds(SUBJECT_PREFIX) || holds(template);
            templates |= u64::from(held) << t;
        }
        TermMask { pieces, templates }
    }
}

/// Run `query` over the mail in `mailbox` outside the Sent folder:
/// conjunctive term match, case-insensitive, results ranked
/// newest-first (Gmail's default) with the id as tie-break. A query with no terms matches nothing.
/// Logging the query is the caller's job. A caller that searches more
/// than once keeps a [`PieceMasks`] and calls [`PieceMasks::search`].
pub fn search(mailbox: &Mailbox, query: &str) -> Vec<EmailId> {
    PieceMasks::default().search(mailbox, query)
}

/// Each searched term's masks for each archetype, kept from one search
/// to the next.
#[derive(Clone, Debug, Default)]
pub struct PieceMasks {
    masks: BTreeMap<Archetype, BTreeMap<String, TermMask>>,
}

impl PieceMasks {
    /// [`search`], reading and keeping the term masks here.
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

    /// The masks of `term` for `archetype`, made the first time they are
    /// asked for.
    fn mask(&mut self, archetype: Archetype, term: &str) -> TermMask {
        let masks = self.masks.entry(archetype).or_default();
        match masks.get(term) {
            Some(&mask) => mask,
            None => *masks
                .entry(term.to_string())
                .or_insert_with(|| TermMask::new(archetype, term)),
        }
    }

    /// The ranked mail holding every one of `terms` (at most 64).
    fn scan(&mut self, mailbox: &Mailbox, terms: &[String]) -> Vec<EmailId> {
        let all = u64::MAX >> (64 - terms.len());
        let index = mailbox.search_index();
        // Per batch, each term's piece mask; per frame, the terms it
        // holds and its batch; per template, the terms it holds.
        let mut pieces = Vec::with_capacity(mailbox.batches().len() * terms.len());
        let mut frames = Vec::new();
        let mut templates = [0u64; SUBJECT_TEMPLATES.len()];
        for (batch, bodies) in mailbox.batches().enumerate() {
            for (i, term) in terms.iter().enumerate() {
                let mask = self.mask(bodies.archetype, term);
                pieces.push(mask.pieces);
                for (t, bits) in templates.iter_mut().enumerate() {
                    *bits |= (mask.templates >> t & 1) << i;
                }
            }
            // A frame's tokens are those of its parts, the sender's
            // names and the parts every frame of the batch shares.
            let shared = [
                GREETING,
                bodies.owner_first,
                SIGN_OFF,
                bodies.archetype.organization(),
            ];
            let shared = shared
                .iter()
                .fold(0, |held, part| held | tokens_held(part, terms));
            for &(first, last) in &bodies.names {
                let held = tokens_held(first, terms) | tokens_held(last, terms);
                frames.push((shared | held, batch));
            }
        }
        let mut hits = Vec::new();
        let coded = index.seeded.iter().zip(&index.codes).zip(&index.keys);
        for ((&rank, &codes), &key) in coded {
            let key = key as usize;
            let (held, batch) = frames[key / templates.len()];
            let mut found = held | templates[key % templates.len()];
            if found != all {
                let masks = &pieces[batch * terms.len()..][..terms.len()];
                for (i, &mask) in masks.iter().enumerate() {
                    found |= u64::from(codes & mask != 0) << i;
                }
            }
            if found == all {
                hits.push(rank);
            }
        }
        // A space joins subject and body, so no token spans the seam.
        let mut buf = String::new();
        for &id in &index.text {
            let m = mailbox.message(id).expect("indexed mail is stored");
            buf.clear();
            m.subject.write_text(&mut buf);
            buf.push(' ');
            m.body.write_text(&mut buf);
            if tokens_held(&buf, terms) == all {
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
