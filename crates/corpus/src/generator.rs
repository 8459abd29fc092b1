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
//! A mailbox is one [`SeededMail`]: subjects and bodies written straight
//! into one text arena (a thread's `RE:` line once, shared by its
//! emails), an address table, and a fixed-size [`SeededEmail`] record of
//! ranges and indices per message, with no heap string per field.
//!
//! The generator also counts TF-IDF document `d_A` (§4.3.5) from its
//! own draws, so the text it writes is never read back. This is exact
//! because every subject and body is a sequence of pieces — a fixed
//! piece ([`GREETING`], an [`OPENERS`] entry, [`SIGN_OFF`]), a
//! vocabulary word, a name, the organization — joined so that at least
//! one of the two bytes at every join is not a letter (a space, comma,
//! full stop or newline). No run of letters crosses a join, so the
//! [words](crate::tokenize::for_each_word) of a text are the words of
//! its pieces, and counting each piece as often as it was written
//! counts the text.

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

/// Arena bytes reserved per email: above the mean body plus its share of
/// a subject line, so an arena seldom grows.
const ARENA_BYTES_PER_EMAIL: usize = 352;

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

/// One seeded email: where its text lies in its batch's arena and who
/// sent and received it, as indices into the batch's address table.
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
    /// The subject line's bytes in [`SeededMail::text`], shared by a thread.
    pub subject: Range<u32>,
    /// The body's bytes in [`SeededMail::text`].
    pub body: Range<u32>,
}

/// One generated mailbox: its text arena, its address table and one
/// record per email, in chronological order.
#[derive(Clone, Debug, Default)]
pub struct SeededMail {
    /// Every subject line and body, back to back.
    pub text: String,
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
    /// Every email as an owned [`Email`], in order.
    pub fn to_emails(&self) -> Vec<Email> {
        let address = |i: u16| self.addresses[usize::from(i)].clone();
        let emails = self.emails.iter().map(|e| Email {
            id: e.id,
            from: address(e.from),
            to: vec![address(e.to)],
            subject: slice(&self.text, &e.subject).to_string(),
            body: slice(&self.text, &e.body).to_string(),
            timestamp: e.timestamp,
        });
        emails.collect()
    }
}

/// How many times one mailbox's bodies used each vocabulary slot. The
/// greeting, sign-off and organization appear once per email, so they
/// need no tally of their own.
struct Tally {
    openers: [u64; OPENERS.len()],
    core: Vec<u64>,
    sensitive: Vec<u64>,
    /// By filler rank.
    filler: Vec<u64>,
    owner_signatures: u64,
    /// By peer.
    peer_signatures: Vec<u64>,
}

impl Tally {
    fn new(archetype: Archetype) -> Tally {
        Tally {
            openers: [0; OPENERS.len()],
            core: vec![0; archetype.core_vocab().len()],
            sensitive: vec![0; archetype.sensitive_vocab().len()],
            filler: vec![0; FILLER.len()],
            owner_signatures: 0,
            peer_signatures: Vec::new(),
        }
    }

    /// Zero every slot, with one signature slot for each of `peers`
    /// peers.
    fn reset(&mut self, peers: usize) {
        self.openers = [0; OPENERS.len()];
        self.core.fill(0);
        self.sensitive.fill(0);
        self.filler.fill(0);
        self.owner_signatures = 0;
        self.peer_signatures.clear();
        self.peer_signatures.resize(peers, 0);
    }
}

/// Generates seeded mailboxes for honey accounts.
pub struct CorpusGenerator {
    next_id: u64,
    filler: Zipf,
    archetype: Archetype,
    tally: Tally,
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
            tally: Tally::new(archetype),
        }
    }

    fn fresh_id(&mut self) -> EmailId {
        let id = EmailId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Append one sentence to `s`, tallying each piece by its slot.
    /// Words go straight into the body being written: no per-word or
    /// per-sentence `String`, no join.
    fn sentence(&mut self, rng: &mut Rng, sensitive: bool, s: &mut String) {
        let opener = rng.index(OPENERS.len());
        self.tally.openers[opener] += 1;
        s.push_str(OPENERS[opener]);
        let core = self.archetype.core_vocab();
        let n_core = rng.range_u64(2, 5) as usize;
        for _ in 0..n_core {
            let k = rng.index(core.len());
            self.tally.core[k] += 1;
            s.push(' ');
            s.push_str(core[k]);
        }
        if sensitive {
            let pool = self.archetype.sensitive_vocab();
            let n_sensitive = rng.range_u64(2, 5) as usize;
            for _ in 0..n_sensitive {
                let k = rng.index(pool.len());
                self.tally.sensitive[k] += 1;
                s.push(' ');
                s.push_str(pool[k]);
            }
        }
        let n_fill = rng.range_u64(3, 9) as usize;
        for _ in 0..n_fill {
            let k = self.filler.sample(rng);
            self.tally.filler[k] += 1;
            s.push(' ');
            s.push_str(FILLER[k]);
        }
        s.push('.');
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

    /// Append one body (greeting, sentences, signature) to `text`;
    /// returns its range.
    fn body(
        &mut self,
        rng: &mut Rng,
        owner_first: &str,
        sender_name: &str,
        text: &mut String,
    ) -> Range<u32> {
        let start = text.len() as u32;
        let n_sentences = rng.range_u64(2, 6) as usize;
        text.push_str(GREETING);
        text.push_str(owner_first);
        text.push(',');
        for _ in 0..n_sentences {
            let sensitive = rng.chance(SENSITIVE_MESSAGE_RATE);
            text.push('\n');
            self.sentence(rng, sensitive, text);
        }
        text.push_str(SIGN_OFF);
        text.push_str(sender_name);
        text.push('\n');
        text.push_str(self.archetype.organization());
        start..text.len() as u32
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
    /// text written; see the module docs for why that is exact.
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

        // Addresses and names are formatted once per mailbox. The owner
        // is address 0, peer `p` address `p + 1`.
        assert!(peers.len() < usize::from(u16::MAX), "too many peers");
        let owner_name = owner.full_name();
        let domain = self.archetype.domain();
        let mut addresses = Vec::with_capacity(peers.len() + 1);
        addresses.push(owner.webmail_address());
        addresses.extend(peers.iter().map(|p| format!("{}@{domain}", p.handle)));
        let peer_names: Vec<String> = peers.iter().map(Persona::full_name).collect();

        self.tally.reset(peers.len());
        let mut text = String::with_capacity(target * ARENA_BYTES_PER_EMAIL);
        let mut bytes = 0;
        // This first subject is drawn but never carried: the first email
        // always starts a new one, which overwrites it.
        let mut subject = self.subject(rng, &mut text);
        let mut carried = 0;
        let mut last_peer = usize::MAX;
        let mut emails = Vec::with_capacity(target);
        for (i, &(peer_idx, owner_sends)) in plans.iter().enumerate() {
            if peer_idx != last_peer {
                // "RE: " has no word and ends in a space, so an email's
                // subject line has the words of the thread's subject.
                d_a.add_times(slice(&text, &subject), carried);
                if carried == 0 {
                    text.truncate(subject.start as usize);
                }
                subject = self.subject(rng, &mut text);
                carried = 0;
                last_peer = peer_idx;
            }
            carried += 1;
            let peer = peer_idx as u16 + 1;
            let (from, to, sender_name) = if owner_sends {
                self.tally.owner_signatures += 1;
                (0, peer, &owner_name)
            } else {
                self.tally.peer_signatures[peer_idx] += 1;
                (peer, 0, &peer_names[peer_idx])
            };
            let id = self.fresh_id();
            let body = self.body(rng, owner.first, sender_name, &mut text);
            bytes += subject.len() + 1 + body.len() + 1;
            emails.push(SeededEmail {
                id,
                timestamp: times[i],
                from,
                to,
                subject: subject.start..subject.end,
                body,
            });
        }
        d_a.add_times(slice(&text, &subject), carried);

        let tally = &self.tally;
        for (pieces, counts) in [
            (&OPENERS[..], &tally.openers[..]),
            (self.archetype.core_vocab(), &tally.core),
            (self.archetype.sensitive_vocab(), &tally.sensitive),
            (FILLER, &tally.filler),
        ] {
            for (piece, &n) in pieces.iter().zip(counts) {
                d_a.add_times(piece, n);
            }
        }
        d_a.add_times(&owner_name, tally.owner_signatures);
        for (name, &n) in peer_names.iter().zip(&tally.peer_signatures) {
            d_a.add_times(name, n);
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
        d_a.add_len(bytes);
        SeededMail {
            text,
            addresses,
            emails,
        }
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
    fn threads_share_one_subject_line_and_the_arena_holds_nothing_else() {
        let (owner, peers, mut rng) = setup();
        let mut d_a = TermCounts::new();
        let mb =
            CorpusGenerator::new().generate_mailbox(&owner, &peers, 200, 300, &mut rng, &mut d_a);
        // A thread's emails are consecutive and share one range.
        let mut lines: Vec<&Range<u32>> = mb.emails.iter().map(|e| &e.subject).collect();
        lines.dedup();
        assert!(lines.len() < mb.emails.len(), "no thread has a reply");
        let written: usize = lines.iter().map(|r| r.len()).sum::<usize>()
            + mb.emails.iter().map(|e| e.body.len()).sum::<usize>();
        assert_eq!(written, mb.text.len());
        // `d_a` still counts each email's own subject line.
        let emails = mb.to_emails();
        assert!(emails.iter().all(|e| e.subject.starts_with("RE: ")));
        let per_email: usize = emails.iter().map(|e| e.full_text().len() + 1).sum();
        assert_eq!(d_a.len(), per_email);
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
