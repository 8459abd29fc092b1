//! Mailbox synthesis: Enron-like corporate threads with translated
//! timestamps.
//!
//! The paper sent each honey account 200–300 sanitized Enron messages,
//! translating the original early-2000s timestamps into recent times
//! "slightly earlier than our experiment start date" while preserving
//! their relative order. We synthesize equivalent threads directly, then
//! run them through the same order-preserving timestamp translation the
//! paper describes (exposed as [`translate_timestamps`] so it can be
//! tested on its own).
//!
//! A mailbox is one [`SeededMail`]. A body is [`GREETING`], the owner's
//! first name, sentences of an [`OPENERS`] entry and vocabulary words,
//! [`SIGN_OFF`], the sender's name and the organization. Only the
//! sentences vary, so a body is stored as `u8` codes into its
//! archetype's [code table](Archetype::code_table) and rendered only
//! where a message leaves its mailbox ([`SeededBody::write_text`]).
//! Subject lines stay text, a thread's `RE:` line stored once.
//!
//! The generator counts TF-IDF document `d_A` (§4.3.5) from its draws,
//! and search matches a body by its codes. Both are exact because one
//! byte at every join of pieces is a space, comma, full stop or newline,
//! so no [word](crate::tokenize::for_each_word) or search token crosses
//! a join (`tests/piece_joins.rs` checks every piece and name).

use crate::archetype::Archetype;
use crate::email::{Email, EmailId, MailTime};
use crate::persona::Persona;
use crate::tokenize::TermCounts;
use crate::vocab::{FILLER, SUBJECT_TEMPLATES};
use pwnd_sim::dist::Zipf;
use pwnd_sim::Rng;
use std::ops::Range;

/// How many days of mailbox history precede the leak.
pub const HISTORY_WINDOW_DAYS: f64 = 90.0;

/// Codes and subject bytes reserved per email: above the means of about
/// 34 and 10, so a mailbox's seldom grow.
const CODES_PER_EMAIL: usize = 40;
const SUBJECT_BYTES_PER_EMAIL: usize = 16;

/// Probability that a given message carries a sensitive term.
const SENSITIVE_MESSAGE_RATE: f64 = 0.05;

/// What every body starts with, before the owner's first name.
pub const GREETING: &str = "Hi ";

/// How every sentence starts.
pub const OPENERS: [&str; 6] = [
    "Please find",
    "As discussed,",
    "Following up on",
    "Attached is",
    "Quick note about",
    "We would like to review",
];

/// What comes between a body's last sentence and the sender's name.
pub const SIGN_OFF: &str = "\nThanks,\n";

/// Order-preserving timestamp translation (§3.2): map original timestamps
/// (arbitrary units, e.g. seconds in 2001) onto the `window_days` window
/// ending one hour before the epoch. Given `t1 < t2` in the input, the
/// output preserves `T1 < T2` up to rounding.
pub fn translate_timestamps(original: &[i64], window_days: f64) -> Vec<MailTime> {
    if original.is_empty() {
        return Vec::new();
    }
    let lo = *original.iter().min().expect("non-empty");
    let hi = *original.iter().max().expect("non-empty");
    let span = (hi - lo).max(1) as f64;
    let window_secs = window_days * 86_400.0;
    let end = -3_600.0; // one hour before the leak
    let start = end - window_secs;
    original
        .iter()
        .map(|&t| {
            let frac = (t - lo) as f64 / span;
            MailTime((start + frac * window_secs) as i64)
        })
        .collect()
}

/// One seeded email: where its subject and body lie in its batch and
/// who sent and received it, as indices into the batch's address table.
#[derive(Clone, Debug)]
pub struct SeededEmail {
    /// Message id.
    pub id: EmailId,
    /// Send time.
    pub timestamp: MailTime,
    /// Sender, an index into [`SeededMail::addresses`].
    pub from: u16,
    /// The one recipient, an index into [`SeededMail::addresses`].
    pub to: u16,
    /// The subject line's bytes in [`SeededMail::subjects`].
    pub subject: Range<u32>,
    /// The body's piece codes in [`SeededBodies::codes`].
    pub body: Range<u32>,
}

/// A batch's bodies: sentences as piece codes, and the names around them.
#[derive(Clone, Debug, Default)]
pub struct SeededBodies {
    /// Whose code table the codes index.
    pub archetype: Archetype,
    /// Every body's [`Archetype::code_table`] indices, back to back.
    pub codes: Vec<u8>,
    /// The owner's first name, in every greeting.
    pub owner_first: &'static str,
    /// The first and last name of each address, in its signatures.
    pub names: Vec<(&'static str, &'static str)>,
}

impl SeededBodies {
    /// The body whose sentences are `codes`, sent by address `from`.
    pub fn body(&self, from: u16, codes: &Range<u32>) -> SeededBody<'_> {
        SeededBody {
            codes: &self.codes[codes.start as usize..codes.end as usize],
            archetype: self.archetype,
            owner_first: self.owner_first,
            sender: self.names[usize::from(from)],
        }
    }
}

/// One generated mailbox: its bodies, subject lines, address table and
/// one record per email, in chronological order.
#[derive(Clone, Debug, Default)]
pub struct SeededMail {
    /// Every body, as piece codes.
    pub bodies: SeededBodies,
    /// Every subject line, back to back.
    pub subjects: String,
    /// Index 0 is the owner, then the peers in the order given.
    pub addresses: Vec<String>,
    /// One record per email.
    pub emails: Vec<SeededEmail>,
}

/// The bytes of `range` in `text`.
pub fn slice<'a>(text: &'a str, range: &Range<u32>) -> &'a str {
    &text[range.start as usize..range.end as usize]
}

impl SeededMail {
    /// Every email as an owned [`Email`], in order, its body rendered.
    pub fn to_emails(&self) -> Vec<Email> {
        let address = |i: u16| self.addresses[usize::from(i)].clone();
        let emails = self.emails.iter().map(|e| Email {
            id: e.id,
            from: address(e.from),
            to: vec![address(e.to)],
            subject: slice(&self.subjects, &e.subject).to_string(),
            body: {
                let mut body = String::new();
                self.bodies.body(e.from, &e.body).write_text(&mut body);
                body
            },
            timestamp: e.timestamp,
        });
        emails.collect()
    }
}

/// A seeded body, borrowed. Its text is `GREETING owner_first,`, each
/// sentence on its own line (an opener code starts one; pieces joined by
/// spaces, then a full stop), then `SIGN_OFF first last\norganization`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeededBody<'a> {
    /// The sentences, as [`Archetype::code_table`] indices.
    pub codes: &'a [u8],
    /// Whose code table and organization.
    pub archetype: Archetype,
    /// The mailbox owner's first name.
    pub owner_first: &'a str,
    /// The sender's first and last name.
    pub sender: (&'a str, &'a str),
}

impl SeededBody<'_> {
    /// Call `f` on each piece and separator of the text, in order.
    fn for_each_part(&self, mut f: impl FnMut(&str)) {
        let table = self.archetype.code_table();
        for part in [GREETING, self.owner_first, ","] {
            f(part);
        }
        for (i, &code) in self.codes.iter().enumerate() {
            let opener = usize::from(code) < OPENERS.len();
            f(match (opener, i) {
                (true, 0) => "\n",
                (true, _) => ".\n",
                (false, _) => " ",
            });
            f(table[usize::from(code)]);
        }
        if !self.codes.is_empty() {
            f(".");
        }
        let ((first, last), org) = (self.sender, self.archetype.organization());
        for part in [SIGN_OFF, first, " ", last, "\n", org] {
            f(part);
        }
    }

    /// Append the text to `out`.
    pub fn write_text(&self, out: &mut String) {
        self.for_each_part(|part| out.push_str(part));
    }

    /// The byte length of the text, without writing it.
    pub fn text_len(&self) -> usize {
        let mut len = 0;
        self.for_each_part(|part| len += part.len());
        len
    }
}

/// Generates seeded mailboxes for honey accounts.
pub struct CorpusGenerator {
    next_id: u64,
    filler: Zipf,
    archetype: Archetype,
}

impl Default for CorpusGenerator {
    fn default() -> Self {
        Self::new()
    }
}

impl CorpusGenerator {
    /// A fresh generator (ids start at 1).
    pub fn new() -> CorpusGenerator {
        CorpusGenerator::with_archetype(Archetype::CorporateEmployee)
    }

    /// A generator producing mailboxes for a specific persona archetype
    /// (the §5 activist-scenario extension).
    pub fn with_archetype(archetype: Archetype) -> CorpusGenerator {
        CorpusGenerator {
            next_id: 1,
            filler: Zipf::new(FILLER.len(), 1.05),
            archetype,
        }
    }

    fn fresh_id(&mut self) -> EmailId {
        let id = EmailId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Append one sentence's codes: an opener, core words, sensitive
    /// words when `sensitive`, then filler. Every code table fits a `u8`.
    fn sentence(&self, rng: &mut Rng, sensitive: bool, codes: &mut Vec<u8>) {
        codes.push(rng.index(OPENERS.len()) as u8);
        let core = self.archetype.core_vocab();
        let mut base = OPENERS.len();
        let n_core = rng.range_u64(2, 5) as usize;
        for _ in 0..n_core {
            codes.push((base + rng.index(core.len())) as u8);
        }
        base += core.len();
        if sensitive {
            let pool = self.archetype.sensitive_vocab();
            let n_sensitive = rng.range_u64(2, 5) as usize;
            for _ in 0..n_sensitive {
                codes.push((base + rng.index(pool.len())) as u8);
            }
        }
        base += self.archetype.sensitive_vocab().len();
        let n_fill = rng.range_u64(3, 9) as usize;
        for _ in 0..n_fill {
            codes.push((base + self.filler.sample(rng)) as u8);
        }
    }

    /// Append a thread's subject line (`RE: `, then a drawn subject) to
    /// `text`; returns its range.
    fn subject(&self, rng: &mut Rng, text: &mut String) -> Range<u32> {
        let start = text.len() as u32;
        text.push_str("RE: ");
        let mut rest = *rng.choose(SUBJECT_TEMPLATES);
        while let Some(pos) = rest.find("{}") {
            let word = *rng.choose(self.archetype.core_vocab());
            text.push_str(&rest[..pos]);
            text.push_str(word);
            rest = &rest[pos + 2..];
        }
        text.push_str(rest);
        start..text.len() as u32
    }

    /// Append one body's sentences to `codes`; returns their range.
    fn body(&self, rng: &mut Rng, codes: &mut Vec<u8>) -> Range<u32> {
        let start = codes.len() as u32;
        let n_sentences = rng.range_u64(2, 6) as usize;
        for _ in 0..n_sentences {
            let sensitive = rng.chance(SENSITIVE_MESSAGE_RATE);
            self.sentence(rng, sensitive, codes);
        }
        start..codes.len() as u32
    }

    /// Generate one seeded mailbox for `owner`, exchanging mail with
    /// `peers` (other personas at the same company). Produces between
    /// `min_emails` and `max_emails` messages whose timestamps all fall in
    /// the [`HISTORY_WINDOW_DAYS`] window before the epoch, in
    /// chronological order.
    ///
    /// Counts the mailbox into TF-IDF document `d_a` as each email's
    /// subject line, then its body (what [`TermCounts::add_email`] of
    /// each email would count), from the pieces drawn rather than the
    /// text they render to; see the module docs for why that is exact.
    // lint:hot-root
    pub fn generate_mailbox(
        &mut self,
        owner: &Persona,
        peers: &[Persona],
        min_emails: usize,
        max_emails: usize,
        rng: &mut Rng,
        d_a: &mut TermCounts,
    ) -> SeededMail {
        assert!(min_emails <= max_emails && min_emails > 0);
        assert!(!peers.is_empty(), "mailbox needs at least one peer");
        let target = rng.range_u64(min_emails as u64, max_emails as u64 + 1) as usize;

        // First synthesize "original era" timestamps (seconds in a fake
        // 2001), then translate them — the same two-step the paper ran on
        // Enron data.
        let mut originals: Vec<i64> = Vec::with_capacity(target);
        let mut cursor: i64 = 0;
        let mut plans: Vec<(usize, bool)> = Vec::with_capacity(target); // (peer idx, owner_sends)
        while plans.len() < target {
            // A thread: 1–4 messages, alternating direction.
            let peer_idx = rng.index(peers.len());
            let thread_len = (rng.range_u64(1, 5) as usize).min(target - plans.len());
            let mut owner_sends = rng.chance(0.4);
            for _ in 0..thread_len {
                cursor += rng.range_u64(1_800, 86_400 * 3) as i64;
                originals.push(cursor);
                plans.push((peer_idx, owner_sends));
                owner_sends = !owner_sends;
            }
        }
        let times = translate_timestamps(&originals, HISTORY_WINDOW_DAYS);

        // Addresses are formatted once per mailbox. The owner
        // is address 0, peer `p` address `p + 1`.
        assert!(peers.len() < usize::from(u16::MAX), "too many peers");
        let domain = self.archetype.domain();
        let mut addresses = Vec::with_capacity(peers.len() + 1);
        addresses.push(owner.webmail_address());
        addresses.extend(peers.iter().map(|p| format!("{}@{domain}", p.handle)));
        let names = std::iter::once(owner)
            .chain(peers)
            .map(|p| (p.first, p.last))
            .collect();

        let mut mail = SeededMail {
            bodies: SeededBodies {
                archetype: self.archetype,
                codes: Vec::with_capacity(target * CODES_PER_EMAIL),
                owner_first: owner.first,
                names,
            },
            subjects: String::with_capacity(target * SUBJECT_BYTES_PER_EMAIL),
            addresses,
            emails: Vec::with_capacity(target),
        };
        // This first subject is drawn but never carried: the first email
        // always starts a new one, which overwrites it.
        let mut subject = self.subject(rng, &mut mail.subjects);
        let mut carried = 0;
        let mut last_peer = usize::MAX;
        for (i, &(peer_idx, owner_sends)) in plans.iter().enumerate() {
            if peer_idx != last_peer {
                // "RE: " has no word and ends in a space, so an email's
                // subject line has the words of the thread's subject.
                d_a.add_times(slice(&mail.subjects, &subject), carried);
                if carried == 0 {
                    mail.subjects.truncate(subject.start as usize);
                }
                subject = self.subject(rng, &mut mail.subjects);
                carried = 0;
                last_peer = peer_idx;
            }
            carried += 1;
            let peer = peer_idx as u16 + 1;
            let (from, to) = if owner_sends { (0, peer) } else { (peer, 0) };
            let id = self.fresh_id();
            let body = self.body(rng, &mut mail.bodies.codes);
            mail.emails.push(SeededEmail {
                id,
                timestamp: times[i],
                from,
                to,
                subject: subject.start..subject.end,
                body,
            });
        }
        d_a.add_times(slice(&mail.subjects, &subject), carried);

        let emails = &mail.emails;
        let bytes = emails
            .iter()
            .map(|e| e.subject.len() + mail.bodies.body(e.from, &e.body).text_len() + 2);
        d_a.add_len(bytes.sum());
        let mut uses = [0u64; 256];
        for &code in &mail.bodies.codes {
            uses[usize::from(code)] += 1;
        }
        for (piece, &n) in self.archetype.code_table().iter().zip(&uses) {
            d_a.add_times(piece, n);
        }
        // A space joins the names, so they count as the full name would.
        for (a, &(first, last)) in mail.bodies.names.iter().enumerate() {
            let n = emails.iter().filter(|e| usize::from(e.from) == a).count() as u64;
            d_a.add_times(first, n);
            d_a.add_times(last, n);
        }
        let n = emails.len() as u64;
        for piece in [
            GREETING,
            owner.first,
            SIGN_OFF,
            self.archetype.organization(),
        ] {
            d_a.add_times(piece, n);
        }
        mail
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persona::PersonaFactory;

    fn setup() -> (Persona, Vec<Persona>, Rng) {
        let mut rng = Rng::seed_from(42);
        let mut f = PersonaFactory::new();
        let owner = f.generate(None, &mut rng);
        let peers = f.generate_batch(8, |_| None, &mut rng);
        (owner, peers, rng)
    }

    #[test]
    fn mailbox_size_in_paper_range() {
        let (owner, peers, mut rng) = setup();
        let mut g = CorpusGenerator::new();
        let mb = g
            .generate_mailbox(&owner, &peers, 200, 300, &mut rng, &mut TermCounts::new())
            .to_emails();
        assert!((200..=300).contains(&mb.len()), "{}", mb.len());
    }

    #[test]
    fn timestamps_sorted_and_before_epoch() {
        let (owner, peers, mut rng) = setup();
        let mut g = CorpusGenerator::new();
        let mb = g
            .generate_mailbox(&owner, &peers, 200, 300, &mut rng, &mut TermCounts::new())
            .to_emails();
        assert!(mb.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
        for e in &mb {
            assert!(e.timestamp.0 < 0, "seeded email after epoch");
            assert!(e.timestamp.as_days_f64() >= -(HISTORY_WINDOW_DAYS + 1.0));
        }
    }

    #[test]
    fn threads_share_one_subject_line_and_nothing_else_is_stored() {
        let (owner, peers, mut rng) = setup();
        let mut d_a = TermCounts::new();
        let mb =
            CorpusGenerator::new().generate_mailbox(&owner, &peers, 200, 300, &mut rng, &mut d_a);
        // A thread's emails are consecutive and share one range.
        let mut lines: Vec<&Range<u32>> = mb.emails.iter().map(|e| &e.subject).collect();
        lines.dedup();
        assert!(lines.len() < mb.emails.len(), "no thread has a reply");
        let written: usize = lines.iter().map(|r| r.len()).sum();
        assert_eq!(written, mb.subjects.len());
        let coded: usize = mb.emails.iter().map(|e| e.body.len()).sum();
        assert_eq!(coded, mb.bodies.codes.len());
        // `d_a` still counts each email's own subject line and its
        // rendered body, whose length `text_len` gives unrendered.
        let emails = mb.to_emails();
        assert!(emails.iter().all(|e| e.subject.starts_with("RE: ")));
        for (e, record) in emails.iter().zip(&mb.emails) {
            assert_eq!(
                e.body.len(),
                mb.bodies.body(record.from, &record.body).text_len()
            );
        }
        let per_email: usize = emails.iter().map(|e| e.full_text().len() + 1).sum();
        assert_eq!(d_a.len(), per_email);
        let mut counted = TermCounts::new();
        emails.iter().for_each(|e| counted.add_email(e));
        assert_eq!(d_a, counted);
    }

    #[test]
    fn bodies_render_the_greeting_sentences_and_signature() {
        let body = SeededBody {
            codes: &[0, 6, 36, 1, 48],
            archetype: Archetype::CorporateEmployee,
            owner_first: "Mary",
            sender: ("John", "Smith"),
        };
        // Opener 0, core word 0, sensitive word 0; opener 1, filler 0.
        let text = "Hi Mary,\nPlease find transfer account.\nAs discussed, with.\n\
                    Thanks,\nJohn Smith\nMeridian Power Group";
        let mut rendered = String::new();
        body.write_text(&mut rendered);
        assert_eq!(rendered, text);
        assert_eq!(body.text_len(), text.len());
    }

    #[test]
    fn translation_preserves_order() {
        let orig = vec![500, 100, 100_000, 2_000];
        let translated = translate_timestamps(&orig, 30.0);
        assert!(translated[1] < translated[0]);
        assert!(translated[0] < translated[3]);
        assert!(translated[3] < translated[2]);
        for t in &translated {
            assert!(t.0 < 0);
        }
    }

    #[test]
    fn translation_handles_degenerate_inputs() {
        assert!(translate_timestamps(&[], 30.0).is_empty());
        let same = translate_timestamps(&[7, 7, 7], 30.0);
        assert_eq!(same.len(), 3);
        assert!(same.iter().all(|t| t.0 < 0));
    }

    #[test]
    fn every_message_involves_owner() {
        let (owner, peers, mut rng) = setup();
        let mut g = CorpusGenerator::new();
        let mb = g
            .generate_mailbox(&owner, &peers, 200, 250, &mut rng, &mut TermCounts::new())
            .to_emails();
        let addr = owner.webmail_address();
        for e in &mb {
            assert!(e.from == addr || e.to.contains(&addr));
        }
    }

    #[test]
    fn corpus_mentions_energy_but_never_bitcoin_or_enron() {
        let (owner, peers, mut rng) = setup();
        let mut g = CorpusGenerator::new();
        let mb = g
            .generate_mailbox(&owner, &peers, 250, 300, &mut rng, &mut TermCounts::new())
            .to_emails();
        let all: String = mb.iter().map(|e| e.full_text().to_lowercase()).collect();
        assert!(all.contains("energy"));
        assert!(all.contains("transfer"));
        assert!(!all.contains("bitcoin"));
        assert!(!all.contains("enron"));
    }

    #[test]
    fn sensitive_terms_are_rare_but_present() {
        let (owner, peers, mut rng) = setup();
        let mut g = CorpusGenerator::new();
        let mb = g
            .generate_mailbox(&owner, &peers, 250, 300, &mut rng, &mut TermCounts::new())
            .to_emails();
        let with_payment = mb
            .iter()
            .filter(|e| {
                ["payment", "account"]
                    .iter()
                    .any(|w| e.subject.contains(w) || e.body.contains(w))
            })
            .count();
        assert!(with_payment > 0, "no sensitive messages at all");
        assert!(
            (with_payment as f64) < mb.len() as f64 * 0.35,
            "sensitive messages too common: {with_payment}/{}",
            mb.len()
        );
    }

    #[test]
    fn activist_mail_is_signed_by_the_coalition() {
        let (owner, peers, mut rng) = setup();
        let mut g = CorpusGenerator::with_archetype(Archetype::Activist);
        let mb = g
            .generate_mailbox(&owner, &peers, 20, 30, &mut rng, &mut TermCounts::new())
            .to_emails();
        for e in &mb {
            assert!(e.body.ends_with("\nOpen Voices Coalition"), "{}", e.body);
            assert!(!e.body.contains("Meridian Power Group"));
        }
    }

    #[test]
    fn ids_are_unique_across_mailboxes() {
        let (owner, peers, mut rng) = setup();
        let mut g = CorpusGenerator::new();
        let a = g
            .generate_mailbox(&owner, &peers, 200, 210, &mut rng, &mut TermCounts::new())
            .to_emails();
        let b = g
            .generate_mailbox(&owner, &peers, 200, 210, &mut rng, &mut TermCounts::new())
            .to_emails();
        let mut ids: Vec<u64> = a.iter().chain(&b).map(|e| e.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), a.len() + b.len());
    }
}
