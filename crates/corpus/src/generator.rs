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
//! where a message leaves its mailbox ([`SeededBody::write_text`]). A
//! subject line is [`SUBJECT_PREFIX`] and one of [`SUBJECT_TEMPLATES`]
//! whose slots hold core-vocabulary words, so it is stored as
//! [`SubjectCodes`]: the template's index and each word's code in the
//! same table, rendered on read as a [`SeededSubject`].
//!
//! The generator counts TF-IDF document `d_A` (§4.3.5) from its draws,
//! and search matches a message by its codes. Both are exact because one
//! byte at every join of pieces is a space, comma, full stop or newline,
//! so no [word](crate::tokenize::for_each_word) or search token crosses
//! a join (`tests/piece_joins.rs` checks every piece, template and
//! name). A mailbox adds its code-table pieces and subject templates to
//! `d_A` as use counts, each code tallied as it is drawn, which
//! [`TermCounts`] sums over the run and splits into words once, when
//! read; its byte length is arithmetic on those counts, not a walk of
//! each rendered message or of the drawn codes.

use crate::archetype::{Archetype, MAX_CODES};
use crate::email::{Email, EmailId, MailTime};
use crate::persona::Persona;
use crate::tokenize::TermCounts;
use crate::vocab::{FILLER, SUBJECT_TEMPLATES};
use pwnd_sim::dist::Zipf;
use pwnd_sim::Rng;
use std::ops::Range;
use std::sync::Arc;

/// How many days of mailbox history precede the leak.
pub const HISTORY_WINDOW_DAYS: f64 = 90.0;

/// Codes reserved per email: above the mean of about 34, so a
/// mailbox's seldom grow.
const CODES_PER_EMAIL: usize = 40;

/// The most codes one sentence takes: an opener, four core words, four
/// sensitive words and eight filler words.
const MAX_SENTENCE_CODES: usize = 17;

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

/// What every subject line starts with, before its template.
pub const SUBJECT_PREFIX: &str = "RE: ";

/// The most `{}` slots a subject template has.
pub const SUBJECT_WORDS: usize = 2;

/// How many `{}` slots each of [`SUBJECT_TEMPLATES`] has.
static SUBJECT_SLOTS: [u8; SUBJECT_TEMPLATES.len()] = subject_slots(&SUBJECT_TEMPLATES);

/// The `{}` slots of each template, checked to fit [`SUBJECT_WORDS`].
const fn subject_slots<const N: usize>(templates: &[&str; N]) -> [u8; N] {
    let mut slots = [0; N];
    let mut t = 0;
    while t < N {
        let bytes = templates[t].as_bytes();
        let mut i = 0;
        while i + 1 < bytes.len() {
            if bytes[i] == b'{' && bytes[i + 1] == b'}' {
                slots[t] += 1;
            }
            i += 1;
        }
        assert!(
            slots[t] as usize <= SUBJECT_WORDS,
            "a template fits SUBJECT_WORDS"
        );
        t += 1;
    }
    slots
}

/// How often each code-table piece was written, by code.
type Uses = [u64; MAX_CODES];

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

/// One seeded email: its subject and where its body lies in its batch,
/// and who sent and received it, as [`SeededMail::address`] indices.
#[derive(Clone, Debug)]
pub struct SeededEmail {
    /// Message id.
    pub id: EmailId,
    /// Send time.
    pub timestamp: MailTime,
    /// Sender: 0 the owner, `p + 1` peer `p`.
    pub from: u16,
    /// The one recipient, numbered as the sender.
    pub to: u16,
    /// The subject line, as codes.
    pub subject: SubjectCodes,
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

    /// The subject line whose codes are `codes`.
    pub fn subject(&self, codes: SubjectCodes) -> SeededSubject {
        SeededSubject {
            codes,
            archetype: self.archetype,
        }
    }
}

/// One generated mailbox: its bodies, its addresses and one record per
/// email, in chronological order.
#[derive(Clone, Debug, Default)]
pub struct SeededMail {
    /// Every body, as piece codes.
    pub bodies: SeededBodies,
    /// The owner's address, address 0.
    pub owner: String,
    /// Peer `p`'s address, address `p + 1`: formatted once per
    /// generator and shared by every mailbox that writes to those peers.
    pub peers: Arc<[String]>,
    /// One record per email.
    pub emails: Vec<SeededEmail>,
}

/// The bytes of `range` in `text`.
pub fn slice<'a>(text: &'a str, range: &Range<u32>) -> &'a str {
    &text[range.start as usize..range.end as usize]
}

impl SeededMail {
    /// Address `i`: 0 the owner, `p + 1` peer `p`.
    pub fn address(&self, i: u16) -> &String {
        match i.checked_sub(1) {
            None => &self.owner,
            Some(p) => &self.peers[usize::from(p)],
        }
    }

    /// Every email as an owned [`Email`], in order, its subject and
    /// body rendered.
    pub fn to_emails(&self) -> Vec<Email> {
        let emails = self.emails.iter().map(|e| Email {
            id: e.id,
            from: self.address(e.from).clone(),
            to: vec![self.address(e.to).clone()],
            subject: {
                let mut subject = String::new();
                self.bodies.subject(e.subject).write_text(&mut subject);
                subject
            },
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

/// A subject line as codes: [`SUBJECT_PREFIX`], then
/// `SUBJECT_TEMPLATES[template]` with its `{}` slots filled, in order, by
/// the [code-table](Archetype::code_table) pieces of `words`. A slot past
/// the template's count is unused; the generator leaves it 0.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct SubjectCodes {
    /// An index into [`SUBJECT_TEMPLATES`].
    pub template: u8,
    /// The slots' code-table indices.
    pub words: [u8; SUBJECT_WORDS],
}

impl SubjectCodes {
    /// The codes of the template's slots, in order.
    pub fn words(&self) -> &[u8] {
        &self.words[..usize::from(SUBJECT_SLOTS[usize::from(self.template)])]
    }
}

/// A seeded subject line: its codes and whose code table they index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeededSubject {
    /// The template and words.
    pub codes: SubjectCodes,
    /// Whose code table the words index.
    pub archetype: Archetype,
}

impl SeededSubject {
    /// Call `f` on each piece of the text, in order: the prefix, then
    /// the template's text between slots and the words in them.
    fn for_each_part(&self, mut f: impl FnMut(&str)) {
        let table = self.archetype.code_table();
        f(SUBJECT_PREFIX);
        let mut parts = SUBJECT_TEMPLATES[usize::from(self.codes.template)].split("{}");
        f(parts.next().expect("split yields a first part"));
        for (part, &word) in parts.zip(self.codes.words()) {
            f(table[usize::from(word)]);
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
    /// The addresses of the peers last written to, kept for the next
    /// mailbox that writes to the same peers.
    peer_addresses: Arc<[String]>,
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
            peer_addresses: Arc::default(),
        }
    }

    fn fresh_id(&mut self) -> EmailId {
        let id = EmailId(self.next_id);
        self.next_id += 1;
        id
    }

    /// The addresses of `peers` at this archetype's domain, formatted
    /// only when they are not the peers of the last call.
    fn peer_addresses(&mut self, peers: &[Persona]) -> Arc<[String]> {
        let domain = self.archetype.domain();
        let at = |address: &str, handle: &str| {
            let host = address
                .strip_prefix(handle)
                .and_then(|a| a.strip_prefix('@'));
            host == Some(domain)
        };
        let kept = self.peer_addresses.len() == peers.len()
            && (self.peer_addresses.iter())
                .zip(peers)
                .all(|(a, p)| at(a, &p.handle));
        if !kept {
            let addresses = peers.iter().map(|p| format!("{}@{domain}", p.handle));
            self.peer_addresses = addresses.collect();
        }
        Arc::clone(&self.peer_addresses)
    }

    /// Append one sentence's codes: an opener, core words, sensitive
    /// words when `sensitive`, then filler. Each code is counted into
    /// `uses` as it is drawn. Every code table fits a `u8`.
    fn sentence(&self, rng: &mut Rng, sensitive: bool, codes: &mut Vec<u8>, uses: &mut Uses) {
        let mut sentence = [0u8; MAX_SENTENCE_CODES];
        let mut n = 0;
        let mut push = |code: usize| {
            sentence[n] = code as u8;
            uses[code] += 1;
            n += 1;
        };
        push(rng.index(OPENERS.len()));
        let core = self.archetype.core_vocab();
        let mut base = OPENERS.len();
        let n_core = rng.range_u64(2, 5) as usize;
        for _ in 0..n_core {
            push(base + rng.index(core.len()));
        }
        base += core.len();
        if sensitive {
            let pool = self.archetype.sensitive_vocab();
            let n_sensitive = rng.range_u64(2, 5) as usize;
            for _ in 0..n_sensitive {
                push(base + rng.index(pool.len()));
            }
        }
        base += self.archetype.sensitive_vocab().len();
        let n_fill = rng.range_u64(3, 9) as usize;
        for _ in 0..n_fill {
            push(base + self.filler.sample(rng));
        }
        codes.extend_from_slice(&sentence[..n]);
    }

    /// Draw a thread's subject line: a template, then a core word for
    /// each of its slots, in order.
    fn subject(&self, rng: &mut Rng) -> SubjectCodes {
        let template = rng.index(SUBJECT_TEMPLATES.len());
        let core = self.archetype.core_vocab().len();
        let mut subject = SubjectCodes {
            template: template as u8,
            ..SubjectCodes::default()
        };
        let slots = usize::from(SUBJECT_SLOTS[template]);
        for word in &mut subject.words[..slots] {
            *word = (OPENERS.len() + rng.index(core)) as u8;
        }
        subject
    }

    /// Append one body's sentences to `codes`, counting them into
    /// `uses`; returns their range.
    fn body(&self, rng: &mut Rng, codes: &mut Vec<u8>, uses: &mut Uses) -> Range<u32> {
        let start = codes.len() as u32;
        let n_sentences = rng.range_u64(2, 6) as usize;
        for _ in 0..n_sentences {
            let sensitive = rng.chance(SENSITIVE_MESSAGE_RATE);
            self.sentence(rng, sensitive, codes, uses);
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
    /// The code-table pieces and subject templates go in as use counts
    /// ([`TermCounts::add_piece_uses`]).
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

        // The owner is address 0, peer `p` address `p + 1`.
        assert!(peers.len() < usize::from(u16::MAX), "too many peers");
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
            owner: owner.webmail_address(),
            peers: self.peer_addresses(peers),
            emails: Vec::with_capacity(target),
        };
        // How often each template and each code-table word was written
        // in a subject line: a thread's subject once per email.
        let mut template_uses = [0u64; SUBJECT_TEMPLATES.len()];
        let mut subject_uses: Uses = [0; MAX_CODES];
        // How often each code-table piece was written in a body.
        let mut uses: Uses = [0; MAX_CODES];
        // This first subject is drawn but never carried: the first email
        // always starts a thread, which draws its own.
        self.subject(rng);
        let mut subject = SubjectCodes::default();
        let mut last_peer = usize::MAX;
        for (i, &(peer_idx, owner_sends)) in plans.iter().enumerate() {
            if peer_idx != last_peer {
                subject = self.subject(rng);
                last_peer = peer_idx;
            }
            template_uses[usize::from(subject.template)] += 1;
            for &word in subject.words() {
                subject_uses[usize::from(word)] += 1;
            }
            let peer = peer_idx as u16 + 1;
            let (from, to) = if owner_sends { (0, peer) } else { (peer, 0) };
            let id = self.fresh_id();
            let body = self.body(rng, &mut mail.bodies.codes, &mut uses);
            mail.emails.push(SeededEmail {
                id,
                timestamp: times[i],
                from,
                to,
                subject,
                body,
            });
        }

        let table = self.archetype.code_table();
        let (uses, subject_uses) = (&uses[..table.len()], &subject_uses[..table.len()]);
        // `SUBJECT_PREFIX` holds no word, and a template's `{}` joins no
        // two words, so a template counts as the words between its slots.
        d_a.add_piece_uses(&SUBJECT_TEMPLATES, &template_uses);
        d_a.add_piece_uses(table, subject_uses);
        d_a.add_piece_uses(table, uses);
        let emails = &mail.emails;
        let mut sent = vec![0u64; mail.bodies.names.len()];
        for e in emails {
            sent[usize::from(e.from)] += 1;
        }
        // A space joins the names, so they count as the full name would.
        for (&(first, last), &n) in mail.bodies.names.iter().zip(&sent) {
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
        let subject_bytes = Self::subject_bytes(table, &template_uses, subject_uses);
        d_a.add_len(subject_bytes + Self::body_bytes(&mail, uses, &sent));
        mail
    }

    /// The bytes of the subject lines written `template_uses` times with
    /// words written `word_uses` times: each template once per use, less
    /// its slots, plus the prefix, and each word once per use.
    fn subject_bytes(table: &[&str], template_uses: &[u64], word_uses: &[u64]) -> usize {
        let templates: u64 = (SUBJECT_TEMPLATES.iter())
            .zip(&SUBJECT_SLOTS)
            .zip(template_uses)
            .map(|((t, &slots), &n)| {
                n * (SUBJECT_PREFIX.len() + t.len() - 2 * usize::from(slots)) as u64
            })
            .sum();
        let words: u64 = table
            .iter()
            .zip(word_uses)
            .map(|(w, &n)| n * w.len() as u64)
            .sum();
        (templates + words) as usize
    }

    /// The bytes `mail`'s emails add to `d_A` besides their subject
    /// lines, each its body and a newline after subject and body, from
    /// how often each piece was used (`uses`) and each address sent
    /// (`sent`), without rendering or walking a body. Every body holds
    /// sentences, and each starts with an opener: its pieces and the
    /// separator before each, then one byte more per opener (`.\n` before
    /// each one after the first is a byte longer than a space, and one
    /// full stop ends the body).
    fn body_bytes(mail: &SeededMail, uses: &[u64], sent: &[u64]) -> usize {
        let bodies = &mail.bodies;
        let table = bodies.archetype.code_table();
        let pieces: u64 = table
            .iter()
            .zip(uses)
            .map(|(p, &n)| n * (p.len() as u64 + 1))
            .sum();
        let openers: u64 = uses[..OPENERS.len()].iter().sum();
        let signatures: u64 = bodies
            .names
            .iter()
            .zip(sent)
            .map(|(&(first, last), &n)| n * (first.len() + 1 + last.len()) as u64)
            .sum();
        // Each email's fixed parts: the greeting, the owner's name and
        // its comma, the sign-off, the line before the organization and
        // the organization, and the newlines after subject and body.
        let frame = GREETING.len()
            + bodies.owner_first.len()
            + 1
            + SIGN_OFF.len()
            + 1
            + bodies.archetype.organization().len()
            + 2;
        mail.emails.len() * frame + (pieces + openers + signatures) as usize
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
        // A thread's emails are consecutive and share one subject.
        let mut lines: Vec<SubjectCodes> = mb.emails.iter().map(|e| e.subject).collect();
        lines.dedup();
        assert!(lines.len() < mb.emails.len(), "no thread has a reply");
        let coded: usize = mb.emails.iter().map(|e| e.body.len()).sum();
        assert_eq!(coded, mb.bodies.codes.len());
        // `d_a` still counts each email's own subject line and its
        // rendered body, whose lengths `text_len` gives unrendered.
        let emails = mb.to_emails();
        assert!(emails.iter().all(|e| e.subject.starts_with("RE: ")));
        for (e, record) in emails.iter().zip(&mb.emails) {
            assert_eq!(
                e.subject.len(),
                mb.bodies.subject(record.subject).text_len()
            );
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
    fn subjects_render_the_prefix_template_and_words() {
        let table = Archetype::CorporateEmployee.code_table();
        let word = |w: &str| table.iter().position(|&p| p == w).unwrap() as u8;
        for (template, words, text) in [
            (
                0,
                [word("energy"), word("power")],
                "RE: RE: energy power schedule",
            ),
            (1, [word("market"), 0], "RE: FW: market update"),
            (
                7,
                [word("please"), word("about")],
                "RE: Action required: please about",
            ),
        ] {
            let subject = SeededSubject {
                codes: SubjectCodes { template, words },
                archetype: Archetype::CorporateEmployee,
            };
            let mut rendered = String::new();
            subject.write_text(&mut rendered);
            assert_eq!(rendered, text);
            assert_eq!(subject.text_len(), text.len());
        }
        assert_eq!(SUBJECT_SLOTS, [2, 1, 2, 1, 1, 1, 1, 2]);
    }

    /// A thread's subject line as the generator wrote it before subject
    /// lines were codes: text, drawn as it was drawn then.
    fn written_subject(archetype: Archetype, rng: &mut Rng) -> String {
        let mut text = String::from("RE: ");
        let mut rest = *rng.choose(&SUBJECT_TEMPLATES);
        while let Some(pos) = rest.find("{}") {
            let word = *rng.choose(archetype.core_vocab());
            text.push_str(&rest[..pos]);
            text.push_str(word);
            rest = &rest[pos + 2..];
        }
        text.push_str(rest);
        text
    }

    proptest::proptest! {
        /// Subject codes render the text the text-writing generator wrote
        /// from the same draws, and take the same draws.
        #[test]
        fn subject_codes_render_the_written_subject(seed in proptest::prelude::any::<u64>(), activist in proptest::prelude::any::<bool>()) {
            let archetype = [Archetype::CorporateEmployee, Archetype::Activist][usize::from(activist)];
            let generator = CorpusGenerator::with_archetype(archetype);
            let (mut coded, mut written) = (Rng::seed_from(seed), Rng::seed_from(seed));
            for _ in 0..32 {
                let codes = generator.subject(&mut coded);
                let mut text = String::new();
                SeededSubject { codes, archetype }.write_text(&mut text);
                proptest::prop_assert_eq!(text, written_subject(archetype, &mut written));
            }
            proptest::prop_assert_eq!(coded.next_u64(), written.next_u64());
        }
    }

    #[test]
    fn mailboxes_of_the_same_peers_share_their_addresses() {
        let (owner, peers, mut rng) = setup();
        let mut g = CorpusGenerator::new();
        let mut d_a = TermCounts::new();
        let a = g.generate_mailbox(&owner, &peers, 5, 5, &mut rng, &mut d_a);
        let b = g.generate_mailbox(&owner, &peers, 5, 5, &mut rng, &mut d_a);
        assert!(Arc::ptr_eq(&a.peers, &b.peers));
        let c = g.generate_mailbox(&owner, &peers[1..], 5, 5, &mut rng, &mut d_a);
        assert!(!Arc::ptr_eq(&a.peers, &c.peers));
        assert_eq!(a.peers[1..], c.peers[..]);
        assert_eq!(a.address(0), &owner.webmail_address());
        assert_eq!(
            a.address(1),
            &format!("{}@meridianpower.example", peers[0].handle)
        );
    }

    #[test]
    fn mailboxes_counted_into_one_document_count_as_their_text() {
        let (owner, peers, mut rng) = setup();
        let mut d_a = TermCounts::new();
        let mut text = TermCounts::new();
        for archetype in [Archetype::CorporateEmployee, Archetype::Activist] {
            let mut g = CorpusGenerator::with_archetype(archetype);
            for (min, max) in [(20, 40), (1, 3), (60, 90)] {
                let mb = g.generate_mailbox(&owner, &peers[..3], min, max, &mut rng, &mut d_a);
                mb.to_emails().iter().for_each(|e| text.add_email(e));
            }
        }
        let tokenizer = crate::tokenize::Tokenizer::new();
        assert_eq!(d_a.len(), text.len());
        assert_eq!(d_a.terms(&tokenizer), text.terms(&tokenizer));
        assert_eq!(d_a.get("transfer"), text.get("transfer"));
        assert_eq!(d_a, text);
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
