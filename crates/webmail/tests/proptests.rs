//! Property-based tests for the webmail service: random operation
//! sequences must preserve the service's invariants.

use proptest::prelude::*;
use pwnd_corpus::email::{Email, EmailId, MailTime};
use pwnd_corpus::generator::{CorpusGenerator, GREETING, SIGN_OFF, SUBJECT_PREFIX};
use pwnd_corpus::names::{FIRST_NAMES, LAST_NAMES};
use pwnd_corpus::persona::PersonaFactory;
use pwnd_corpus::tokenize::TermCounts;
use pwnd_corpus::vocab::SUBJECT_TEMPLATES;
use pwnd_corpus::Archetype;
use pwnd_net::access::ConnectionInfo;
use pwnd_net::geo::GeoDb;
use pwnd_net::geolocate::Geolocator;
use pwnd_net::ip::AddressPlan;
use pwnd_net::tor::TorDirectory;
use pwnd_net::useragent::{Browser, ClientConfig, Os};
use pwnd_sim::{Rng, SimDuration, SimTime};
use pwnd_webmail::account::AccountId;
use pwnd_webmail::activity::ActivityPage;
use pwnd_webmail::mailbox::{Body, Folder, Mailbox, Message, Subject};
use pwnd_webmail::search::search;
use pwnd_webmail::service::{OpError, ServiceConfig, WebmailService};
use std::collections::BTreeMap;

#[derive(Clone, Debug)]
enum Op {
    Deliver(u64, i64),
    Open(u64),
    Star(u64),
    Draft(u64, i64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..40, -500i64..500).prop_map(|(i, t)| Op::Deliver(i, t)),
        (0u64..40).prop_map(Op::Open),
        (0u64..40).prop_map(Op::Star),
        (0u64..40, -500i64..500).prop_map(|(i, t)| Op::Draft(i, t)),
    ]
}

fn email(id: u64, ts: i64) -> Email {
    Email {
        id: EmailId(id),
        from: "a@x".into(),
        to: vec!["b@x".into()],
        subject: format!("s{id}"),
        body: "body".into(),
        timestamp: MailTime(ts),
    }
}

/// `e`'s parts, as filed in `folder`.
fn message(e: &Email, folder: Folder) -> Message<'_> {
    Message {
        timestamp: e.timestamp,
        from: &e.from,
        to: &e.to,
        subject: Subject::Text(&e.subject),
        body: Body::Text(&e.body),
        folder,
    }
}

proptest! {
    /// Any operation sequence leaves the mailbox consistent: folders
    /// partition the entries, listings are sorted newest-first, unread ⊆
    /// inbox.
    #[test]
    fn mailbox_invariants_under_random_ops(ops in proptest::collection::vec(op(), 0..120)) {
        let mut mb = Mailbox::new();
        for o in ops {
            match o {
                Op::Deliver(i, t) => mb.deliver(&email(i, t)),
                Op::Open(i) => { let _ = mb.mark_read(EmailId(i)); }
                Op::Star(i) => { let _ = mb.star(EmailId(i)); }
                Op::Draft(i, t) => mb.file(EmailId(i), message(&email(i, t), Folder::Drafts)),
            }
        }
        let inbox = mb.list(Folder::Inbox);
        let sent = mb.list(Folder::Sent);
        let drafts = mb.list(Folder::Drafts);
        prop_assert_eq!(inbox.len() + sent.len() + drafts.len(), mb.len());
        // Listings are sorted newest-first.
        for folder in [Folder::Inbox, Folder::Sent, Folder::Drafts] {
            let ids = mb.list(folder);
            for w in ids.windows(2) {
                let a = mb.get(w[0]).unwrap().timestamp;
                let b = mb.get(w[1]).unwrap().timestamp;
                prop_assert!(a >= b);
            }
        }
        // Unread is a subset of the inbox and none of them are read.
        for id in mb.unread() {
            let e = mb.get(id).unwrap();
            prop_assert_eq!(e.folder, Folder::Inbox);
            prop_assert!(!e.read);
        }
        // Opened messages are read.
        // (Re-open everything and check.)
        let all: Vec<EmailId> = inbox.iter().chain(&sent).chain(&drafts).copied().collect();
        for id in all {
            prop_assert!(mb.mark_read(id));
            prop_assert!(mb.get(id).unwrap().read);
        }
    }

    /// Logins with the wrong password never succeed, never mint cookies,
    /// and never appear on the activity page — for arbitrary passwords.
    #[test]
    fn bad_credentials_never_authenticate(pw in ".{0,24}", seed in any::<u64>()) {
        prop_assume!(pw != "correct-horse");
        let geo = GeoDb::new();
        let plan = AddressPlan::new(&geo);
        let mut rng = Rng::seed_from(seed);
        let tor = TorDirectory::generate(32, &mut rng);
        let mut svc = WebmailService::new(ServiceConfig::default(), Geolocator::new(plan, geo, tor));
        svc.create_account(
            "h@honeymail.example",
            "correct-horse",
            std::net::Ipv4Addr::new(198, 51, 0, 1),
            SimTime::ZERO,
        )
        .unwrap();
        let ip = svc.geolocator().plan().sample_host("DE", &mut rng);
        let loc = svc.geolocator().locate(ip);
        let conn = ConnectionInfo::new(ip, ClientConfig::plain(Browser::Chrome, Os::Windows), loc.point);
        let res = svc.login("h@honeymail.example", &pw, &conn, SimTime::from_secs(10));
        prop_assert!(res.is_err());
        // And the failed attempt emitted no events.
        prop_assert!(svc.drain_events().is_empty());
    }

    /// The content scanner flags extortion regardless of the surrounding
    /// text, and never flags plain business mail.
    #[test]
    fn extortion_flagging(prefix in "[a-z ]{0,40}", suffix in "[a-z ]{0,40}") {
        // Route through the public API: send a message and check how fast
        // abuse accumulates. We only verify the classifier's monotonicity
        // here: ransom text must never be *less* alarming than the same
        // envelope without it.
        let geo = GeoDb::new();
        let plan = AddressPlan::new(&geo);
        let mut rng = Rng::seed_from(1);
        let tor = TorDirectory::generate(16, &mut rng);
        let mut svc = WebmailService::new(ServiceConfig::default(), Geolocator::new(plan, geo, tor));
        let _ = svc
            .create_account("h@honeymail.example", "pw", std::net::Ipv4Addr::new(198, 51, 0, 1), SimTime::ZERO)
            .unwrap();
        svc.set_send_from_override(pwnd_webmail::account::AccountId(0), "sink@x");
        let ip = svc.geolocator().plan().sample_host("US", &mut rng);
        let loc = svc.geolocator().locate(ip);
        let conn = ConnectionInfo::new(ip, ClientConfig::plain(Browser::Chrome, Os::Windows), loc.point);
        let (session, _) = svc
            .login("h@honeymail.example", "pw", &conn, SimTime::from_secs(1))
            .unwrap();
        let ransom = format!("{prefix} send 2 bitcoin now {suffix}");
        let mut sends = 0;
        for i in 0..30u64 {
            match svc.send_email(session, &["v@x".into()], "hi", &ransom, SimTime::from_secs(10 + i)) {
                Ok(_) => sends += 1,
                Err(_) => break,
            }
        }
        // Extortion content must block within a dozen sends no matter the
        // padding around the keyword.
        prop_assert!(sends <= 12, "ransom survived {sends} sends");
    }
}

/// Small vocabulary so multi-term queries actually intersect; the last
/// entries are rare or absent, exercising the empty-posting short
/// circuit.
const VOCAB: &[&str] = &[
    "payment",
    "invoice",
    "account",
    "password",
    "meeting",
    "report",
    "wire",
    "transfer",
    "lunch",
    "bitcoin",
    "zzzunseen",
];

fn vocab_text(idxs: &[usize]) -> String {
    idxs.iter()
        .map(|&i| VOCAB[i % VOCAB.len()])
        .collect::<Vec<_>>()
        .join(" ")
}

/// The naive reference: an email matches iff it contains every distinct
/// query term; rank newest-first with the id as tie-break. This is
/// exactly what the pre-optimization clone-every-posting-set
/// `SearchIndex::search` computed.
fn naive_search(emails: &[Email], query: &str) -> Vec<EmailId> {
    let terms: Vec<String> = query
        .split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| t.to_lowercase())
        .collect();
    if terms.is_empty() {
        return Vec::new();
    }
    let mut hits: Vec<EmailId> = emails
        .iter()
        .filter(|e| {
            let text = format!("{}\n{}", e.subject, e.body).to_lowercase();
            let words: std::collections::HashSet<&str> = text
                .split(|c: char| !c.is_ascii_alphanumeric())
                .filter(|t| !t.is_empty())
                .collect();
            terms.iter().all(|t| words.contains(t.as_str()))
        })
        .map(|e| e.id)
        .collect();
    hits.sort_by_key(|&id| {
        let ts = emails
            .iter()
            .find(|e| e.id == id)
            .map(|e| e.timestamp)
            .unwrap_or(MailTime(i64::MIN));
        (std::cmp::Reverse(ts), id)
    });
    hits
}

proptest! {
    /// The fold-and-find scan in `search::search` agrees with the naive
    /// tokenize-every-email reference on arbitrary mailboxes and queries
    /// (including repeated terms, case changes, punctuation, and terms no
    /// email contains).
    #[test]
    fn optimized_search_matches_naive_reference(
        specs in proptest::collection::vec(
            (proptest::collection::vec(0usize..VOCAB.len(), 0..6),
             proptest::collection::vec(0usize..VOCAB.len(), 0..12),
             -500i64..500),
            0..25,
        ),
        queries in proptest::collection::vec(
            proptest::collection::vec(0usize..VOCAB.len() + 2, 0..4),
            1..8,
        ),
    ) {
        let emails: Vec<Email> = specs
            .iter()
            .enumerate()
            .map(|(i, (subj, body, ts))| Email {
                id: EmailId(i as u64),
                from: "a@x".into(),
                to: vec!["b@x".into()],
                subject: vocab_text(subj),
                body: vocab_text(body),
                timestamp: MailTime(*ts),
            })
            .collect();
        let mut mb = Mailbox::new();
        for e in &emails {
            mb.deliver(e);
        }
        for (qi, q) in queries.iter().enumerate() {
            // Indexes past VOCAB map to an unindexed word; odd slots get
            // uppercase + punctuation noise to exercise normalization.
            let mut words: Vec<String> = q
                .iter()
                .map(|&i| VOCAB.get(i).copied().unwrap_or("neverwritten").to_string())
                .collect();
            if qi % 2 == 1 {
                words = words.iter().map(|w| w.to_uppercase()).collect();
            }
            let query = words.join(if qi % 3 == 0 { " " } else { ", " });
            let got = search(&mb, &query);
            let want = naive_search(&emails, &query);
            prop_assert_eq!(got, want, "query {:?}", query);
        }
    }
}

proptest! {
    /// Token boundaries agree with the reference on raw text: a tiny
    /// alphabet makes query terms collide with prefixes, suffixes and
    /// infixes of longer runs, mixed with digits, punctuation and
    /// multi-byte characters (whose bytes all separate tokens).
    #[test]
    fn scan_token_boundaries_match_naive_reference(
        texts in proptest::collection::vec(("[abAB1 ,.éÜ]{0,12}", "[abAB1 ,.éÜ]{0,30}"), 0..12),
        queries in proptest::collection::vec("[abAB1 ,!é]{0,8}", 1..8),
    ) {
        let emails: Vec<Email> = texts
            .iter()
            .enumerate()
            .map(|(i, (subject, body))| Email {
                id: EmailId(i as u64),
                from: "a@x".into(),
                to: vec!["b@x".into()],
                subject: subject.clone(),
                body: body.clone(),
                timestamp: MailTime((i as i64 * 7) % 5),
            })
            .collect();
        let mut mb = Mailbox::new();
        for e in &emails {
            mb.deliver(e);
        }
        for query in &queries {
            prop_assert_eq!(search(&mb, query), naive_search(&emails, query), "query {:?}", query);
        }
    }
}

/// One step that changes a mailbox, for the stored-form equivalence
/// case.
#[derive(Clone, Debug)]
enum MailOp {
    /// A batch from `generate_mailbox`: the seed of its personas and
    /// draws, whether the activist archetype, and its size.
    Seed(u64, bool, usize),
    /// Inbound mail from the `usize`-th sender to `usize` recipients.
    Deliver(u64, i64, String, String, usize, usize),
    /// A draft to `usize` recipients.
    Draft(u64, i64, String, String, usize),
    /// Mail composed and sent in one step.
    Send(u64, i64, String, String),
}

/// Text from a tiny alphabet, so query terms collide with prefixes,
/// suffixes and infixes of longer runs, mixed with digits, punctuation,
/// newlines and multi-byte characters.
const MAIL_TEXT: &str = "[abAB1 ,.\néÜ]{0,14}";
const SENDERS: [&str; 3] = ["ab@x", "owner@honeymail.example", "Ü@x"];
const ARCHETYPES: [Archetype; 2] = [Archetype::CorporateEmployee, Archetype::Activist];

fn mail_op() -> impl Strategy<Value = MailOp> {
    // Generated ids start at 1, so seeded, delivered and filed mail
    // replace one another.
    let id = || 0u64..40;
    let time = || -400i64..400;
    prop_oneof![
        (any::<u64>(), any::<bool>(), 1usize..12)
            .prop_map(|(seed, activist, n)| MailOp::Seed(seed, activist, n)),
        ((id(), time()), MAIL_TEXT, MAIL_TEXT, 0usize..3, 0usize..3)
            .prop_map(|((i, t), s, b, from, to)| MailOp::Deliver(i, t, s, b, from, to)),
        (id(), time(), MAIL_TEXT, MAIL_TEXT, 0usize..3)
            .prop_map(|(i, t, s, b, to)| MailOp::Draft(i, t, s, b, to)),
        (id(), time(), MAIL_TEXT, MAIL_TEXT).prop_map(|(i, t, s, b)| MailOp::Send(i, t, s, b)),
    ]
}

/// A code-table piece of either archetype.
fn piece() -> impl Strategy<Value = String> {
    (0usize..2, 0usize..256).prop_map(|(a, k)| {
        let table = ARCHETYPES[a].code_table();
        table[k % table.len()].to_string()
    })
}

/// A run of a subject template's text or of the prefix: a term only a
/// seeded subject's template holds, or one it shares with the codes.
fn template_run() -> impl Strategy<Value = String> {
    (0..=SUBJECT_TEMPLATES.len(), any::<usize>()).prop_map(|(t, k)| {
        let text = SUBJECT_TEMPLATES.get(t).unwrap_or(&SUBJECT_PREFIX);
        let runs: Vec<&str> = runs(text).collect();
        runs[k % runs.len()].to_string()
    })
}

/// One query fragment: a code-table piece (twice as likely as the
/// rest), a subject template's word, a persona name, a word of the
/// shared frame, or arbitrary text.
fn query_part() -> impl Strategy<Value = String> {
    prop_oneof![
        piece(),
        piece(),
        template_run(),
        (0..FIRST_NAMES.len()).prop_map(|i| FIRST_NAMES[i].to_string()),
        (0..LAST_NAMES.len()).prop_map(|i| LAST_NAMES[i].to_string()),
        (0usize..5).prop_map(|i| {
            let frame = [GREETING, SIGN_OFF, "Meridian", "Coalition", "RE:"];
            frame[i].to_string()
        }),
        "[abAB1 ,!éÜ]{0,8}",
    ]
}

/// A query of one to three fragments, in one of four cases and joined
/// by a space or punctuation.
fn query() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec(query_part(), 1..4),
        0u8..4,
        any::<bool>(),
    )
        .prop_map(|(parts, case, punctuated)| {
            let query = parts.join(if punctuated { ", " } else { " " });
            match case {
                0 => query,
                1 => query.to_ascii_lowercase(),
                2 => query.to_ascii_uppercase(),
                _ => format!("({query})!"),
            }
        })
}

fn owned(id: u64, t: i64, subject: &str, body: &str, from: usize, to: usize) -> Email {
    Email {
        id: EmailId(id),
        from: SENDERS[from].into(),
        to: SENDERS[..to].iter().map(|a| a.to_string()).collect(),
        subject: subject.into(),
        body: body.into(),
        timestamp: MailTime(t),
    }
}

/// What one stored message is, as an owned email, and its folder.
type Stored = (Email, Folder);

/// A message read back out of a mailbox, owned, its body rendered.
fn read_back(id: EmailId, m: Message<'_>) -> Stored {
    let (mut subject, mut body) = (String::new(), String::new());
    m.subject.write_text(&mut subject);
    m.body.write_text(&mut body);
    let email = Email {
        id,
        from: m.from.into(),
        to: m.to.to_vec(),
        subject,
        body,
        timestamp: m.timestamp,
    };
    (email, m.folder)
}

/// The old per-`Email` search: fold the subject of each email outside
/// Sent, a space and its body to ASCII lowercase, split the result into
/// ASCII-alphanumeric runs and keep the emails holding every query
/// term; newest first, ids breaking ties.
fn per_email_search(mail: &BTreeMap<EmailId, Stored>, query: &str) -> Vec<EmailId> {
    let terms: Vec<String> = query
        .split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| t.to_ascii_lowercase())
        .collect();
    if terms.is_empty() {
        return Vec::new();
    }
    let mut hits: Vec<(std::cmp::Reverse<MailTime>, EmailId)> = mail
        .iter()
        .filter(|(_, (e, folder))| {
            let text = format!("{} {}", e.subject, e.body).to_ascii_lowercase();
            let words: std::collections::HashSet<&str> = text
                .split(|c: char| !c.is_ascii_alphanumeric())
                .filter(|w| !w.is_empty())
                .collect();
            *folder != Folder::Sent && terms.iter().all(|t| words.contains(t.as_str()))
        })
        .map(|(&id, (e, _))| (std::cmp::Reverse(e.timestamp), id))
        .collect();
    hits.sort();
    hits.into_iter().map(|(_, id)| id).collect()
}

proptest! {
    /// Search over a mailbox's stored forms (seeded subjects and bodies
    /// as codes, other mail as arena text) equals the old per-`Email`
    /// scan of the rendered mail, and every stored message reads back, as
    /// a borrowed view and as full text, as the email that went in: for
    /// mailboxes built from any mix of generated batches, delivered
    /// mail, drafts and sent mail, with ids that collide and replace.
    /// Queries mix code-table pieces, subject template words, names and
    /// arbitrary text in any case and with punctuation. Each seeded
    /// batch adds its owner's first name, each sender's names and the
    /// words in its first subject's slots, and one query joins the end
    /// of a subject to the start of a body, a term no email holds
    /// because the two are separate texts. The first query also runs
    /// after every step, so the search index the mailbox keeps from one
    /// search to the next is checked as each step extends or replaces
    /// what it indexed.
    #[test]
    fn arena_search_equals_per_email_search(
        ops in proptest::collection::vec(mail_op(), 0..12),
        queries in proptest::collection::vec(query(), 1..8),
        seam in any::<u64>(),
    ) {
        let mut mb = Mailbox::new();
        let mut model: BTreeMap<EmailId, Stored> = BTreeMap::new();
        let mut queries = queries;
        for op in ops {
            match op {
                MailOp::Seed(seed, activist, n) => {
                    let mut rng = Rng::seed_from(seed);
                    let mut personas = PersonaFactory::new();
                    let owner = personas.generate(None, &mut rng);
                    let peers = personas.generate_batch(3, |_| None, &mut rng);
                    let mut generator = CorpusGenerator::with_archetype(ARCHETYPES[usize::from(activist)]);
                    let mail = generator.generate_mailbox(&owner, &peers, n, n, &mut rng, &mut TermCounts::new());
                    for e in mail.to_emails() {
                        model.insert(e.id, (e, Folder::Inbox));
                    }
                    queries.push(mail.bodies.owner_first.to_ascii_uppercase());
                    for &(first, last) in &mail.bodies.names {
                        queries.extend([format!("{first} {last}"), last.to_string()]);
                    }
                    let table = mail.bodies.archetype.code_table();
                    let slots = mail.emails.first().map_or(&[][..], |e| e.subject.words());
                    queries.extend(slots.iter().map(|&w| table[usize::from(w)].to_string()));
                    mb.seed(mail);
                }
                MailOp::Deliver(id, t, subject, body, from, to) => {
                    let e = owned(id, t, &subject, &body, from, to);
                    mb.deliver(&e);
                    model.insert(e.id, (e, Folder::Inbox));
                }
                MailOp::Draft(id, t, subject, body, to) => {
                    let e = owned(id, t, &subject, &body, 1, to);
                    mb.file(e.id, message(&e, Folder::Drafts));
                    model.insert(e.id, (e, Folder::Drafts));
                }
                MailOp::Send(id, t, subject, body) => {
                    let e = owned(id, t, &subject, &body, 1, 1);
                    mb.file(e.id, message(&e, Folder::Sent));
                    model.insert(e.id, (e, Folder::Sent));
                }
            }
            prop_assert_eq!(search(&mb, &queries[0]), per_email_search(&model, &queries[0]));
        }
        prop_assert_eq!(mb.len(), model.len());
        for (&id, stored) in &model {
            let m = mb.message(id).expect("stored");
            prop_assert_eq!(&read_back(id, m), stored);
            prop_assert_eq!(mb.full_text(id), Some(stored.0.full_text()));
        }
        // A term across the seam of some stored email's subject and body.
        if let Some((e, _)) = model.values().nth(seam as usize % model.len().max(1)) {
            let tail: String = e.subject.chars().rev().take_while(char::is_ascii_alphanumeric).collect();
            let head: String = e.body.chars().take_while(char::is_ascii_alphanumeric).collect();
            queries.push(tail.chars().rev().collect::<String>() + &head);
        }
        for query in &queries {
            prop_assert_eq!(search(&mb, query), per_email_search(&model, query), "query {:?}", query);
        }
    }
}

/// One step of the entry-model case.
#[derive(Clone, Debug)]
enum EntryOp {
    /// A generated batch of `n` emails renumbered `first`, `first +
    /// step`, …, in reverse when the flag is set: below, among or above
    /// the ids already stored, rising, falling or (step 0) all one id.
    Seed(u64, usize, u64, u64, bool),
    /// Inbound mail.
    Deliver(u64, i64),
    /// Mail filed in a folder.
    File(u64, i64, Folder),
    MarkRead(u64),
    Star(u64),
    Label(u64, usize),
}

const LABELS: [&str; 2] = ["reports", "meetings"];

fn entry_op() -> impl Strategy<Value = EntryOp> {
    let id = || 0u64..80;
    let folder = (0usize..3).prop_map(|f| [Folder::Inbox, Folder::Sent, Folder::Drafts][f]);
    prop_oneof![
        (any::<u64>(), 1usize..10, id(), 0u64..3, any::<bool>())
            .prop_map(|(seed, n, first, step, back)| EntryOp::Seed(seed, n, first, step, back)),
        (id(), -400i64..400).prop_map(|(i, t)| EntryOp::Deliver(i, t)),
        (id(), -400i64..400, folder).prop_map(|(i, t, f)| EntryOp::File(i, t, f)),
        id().prop_map(EntryOp::MarkRead),
        id().prop_map(EntryOp::Star),
        (id(), 0usize..2).prop_map(|(i, l)| EntryOp::Label(i, l)),
    ]
}

/// What the model keeps of an entry: the message, its read and starred
/// flags and its labels.
type Modelled = (Stored, bool, bool, Vec<String>);

/// Ids newest first, the lower id first among equal times, of the
/// modelled entries `keep` accepts.
fn model_list(
    model: &BTreeMap<EmailId, Modelled>,
    keep: impl Fn(&Modelled) -> bool,
) -> Vec<EmailId> {
    let mut v: Vec<_> = (model.iter())
        .filter(|(_, m)| keep(m))
        .map(|(&id, ((e, _), ..))| (std::cmp::Reverse(e.timestamp), id))
        .collect();
    v.sort();
    v.into_iter().map(|(_, id)| id).collect()
}

proptest! {
    /// The mailbox's id-sorted entries behave as a map from id to entry:
    /// after any mix of seeded batches (appended past the last id or
    /// placed among the others), filed and delivered mail under repeated
    /// and out-of-order ids, and flag and label changes, every read
    /// matches a `BTreeMap` model. A later entry under an id replaces the
    /// earlier and drops its flags and labels.
    #[test]
    fn sorted_entries_match_a_map_model(ops in proptest::collection::vec(entry_op(), 0..40)) {
        let mut mb = Mailbox::new();
        let mut model: BTreeMap<EmailId, Modelled> = BTreeMap::new();
        for op in ops {
            match op {
                EntryOp::Seed(seed, n, first, step, back) => {
                    let mut rng = Rng::seed_from(seed);
                    let mut personas = PersonaFactory::new();
                    let owner = personas.generate(None, &mut rng);
                    let peers = personas.generate_batch(2, |_| None, &mut rng);
                    let mut mail = CorpusGenerator::new()
                        .generate_mailbox(&owner, &peers, n, n, &mut rng, &mut TermCounts::new());
                    for (k, e) in mail.emails.iter_mut().enumerate() {
                        let k = if back { n - 1 - k } else { k } as u64;
                        e.id = EmailId(first + k * step);
                    }
                    for e in mail.to_emails() {
                        model.insert(e.id, ((e, Folder::Inbox), false, false, Vec::new()));
                    }
                    mb.seed(mail);
                }
                EntryOp::Deliver(id, t) => {
                    let e = email(id, t);
                    mb.deliver(&e);
                    model.insert(e.id, ((e, Folder::Inbox), false, false, Vec::new()));
                }
                EntryOp::File(id, t, folder) => {
                    let e = email(id, t);
                    mb.file(e.id, message(&e, folder));
                    let read = folder != Folder::Inbox;
                    model.insert(e.id, ((e, folder), read, false, Vec::new()));
                }
                EntryOp::MarkRead(id) => {
                    let m = model.get_mut(&EmailId(id)).map(|m| m.1 = true);
                    prop_assert_eq!(mb.mark_read(EmailId(id)), m.is_some());
                }
                EntryOp::Star(id) => {
                    let m = model.get_mut(&EmailId(id)).map(|m| m.2 = true);
                    prop_assert_eq!(mb.star(EmailId(id)), m.is_some());
                }
                EntryOp::Label(id, l) => {
                    let m = model.get_mut(&EmailId(id)).map(|m| {
                        if !m.3.iter().any(|x| x == LABELS[l]) {
                            m.3.push(LABELS[l].to_string());
                        }
                    });
                    prop_assert_eq!(mb.label(EmailId(id), LABELS[l]), m.is_some());
                }
            }
        }
        prop_assert_eq!(mb.len(), model.len());
        prop_assert_eq!(mb.is_empty(), model.is_empty());
        let read: Vec<(EmailId, Stored)> = mb.messages().map(|(id, m)| (id, read_back(id, m))).collect();
        let want: Vec<(EmailId, Stored)> = model.iter().map(|(&id, (stored, ..))| (id, stored.clone())).collect();
        prop_assert_eq!(read, want);
        for id in (0..200).map(EmailId) {
            let (m, e) = (model.get(&id), mb.get(id));
            prop_assert_eq!(mb.message(id).map(|m| read_back(id, m)), m.map(|m| m.0.clone()));
            prop_assert_eq!(e.map(|e| (e.timestamp, e.folder, e.read, e.starred)),
                m.map(|((e, folder), read, starred, _)| (e.timestamp, *folder, *read, *starred)));
            prop_assert_eq!(mb.labels(id), m.map_or(&[][..], |m| &m.3[..]));
        }
        for folder in [Folder::Inbox, Folder::Sent, Folder::Drafts] {
            prop_assert_eq!(mb.list(folder), model_list(&model, |((_, f), ..)| *f == folder));
        }
        prop_assert_eq!(mb.unread(), model_list(&model, |((_, f), read, ..)| *f == Folder::Inbox && !read));
    }
}

/// Words for the delivered mail and drafts of the kept-masks case: code
/// pieces, organization and frame words, and words no seeded mail holds.
const TEXT_WORDS: &[&str] = &[
    "transfer",
    "account",
    "energy",
    "with",
    "Meridian",
    "Coalition",
    "Thanks",
    "Hi",
    "payment",
    "neverseeded",
    "RE",
    "x2",
];

/// The alphanumeric runs of `text`.
fn runs(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|w| !w.is_empty())
}

proptest! {
    /// A service answering every query twice, its term masks and the
    /// mailbox's search index kept from one search to the next, gives
    /// what the per-email scan of the rendered mail gives. The mailbox holds two to four seeded batches
    /// of one archetype (several senders each, threads sharing one
    /// subject line) beside delivered text mail and drafts; the queries
    /// hold terms found only in a sender's name, only in the
    /// organization, only in a subject template, in a subject's slot
    /// words or only in the codes, alone and two at a time. Mail
    /// delivered between the two rounds must be found in the second.
    #[test]
    fn kept_masks_search_equals_per_email_search(
        activist in any::<bool>(),
        batches in proptest::collection::vec((any::<u64>(), 3usize..6, 4usize..20), 2..5),
        texts in proptest::collection::vec(
            (proptest::collection::vec(0..TEXT_WORDS.len(), 0..4),
             proptest::collection::vec(0..TEXT_WORDS.len(), 0..8),
             any::<bool>()),
            0..6,
        ),
        picks in proptest::collection::vec(any::<usize>(), 9..10),
    ) {
        let geo = GeoDb::new();
        let plan = AddressPlan::new(&geo);
        let mut rng = Rng::seed_from(7);
        let tor = TorDirectory::generate(16, &mut rng);
        let mut svc = WebmailService::new(ServiceConfig::default(), Geolocator::new(plan, geo, tor));
        let account = svc
            .create_account("h@honeymail.example", "pw", std::net::Ipv4Addr::new(198, 51, 0, 1), SimTime::ZERO)
            .unwrap();
        let archetype = ARCHETYPES[usize::from(activist)];
        // One generator for every batch, so ids stay distinct.
        let mut generator = CorpusGenerator::with_archetype(archetype);
        let (mut names, mut subject_words, mut code_words) = (Vec::new(), Vec::new(), Vec::new());
        let mut slot_words = Vec::new();
        for &(seed, peers, n) in &batches {
            let mut batch_rng = Rng::seed_from(seed);
            let mut personas = PersonaFactory::new();
            let owner = personas.generate(None, &mut batch_rng);
            let peers = personas.generate_batch(peers, |_| None, &mut batch_rng);
            let mail = generator.generate_mailbox(&owner, &peers, n, n, &mut batch_rng, &mut TermCounts::new());
            names.extend(mail.bodies.names.iter().map(|&(_, last)| last.to_string()));
            for e in &mail.emails {
                let mut line = String::new();
                mail.bodies.subject(e.subject).write_text(&mut line);
                subject_words.extend(runs(&line).map(str::to_string));
                let words = e.subject.words().iter();
                slot_words.extend(words.map(|&w| archetype.code_table()[usize::from(w)]));
            }
            code_words.extend(mail.bodies.codes.iter().map(|&c| archetype.code_table()[usize::from(c)]));
            svc.seed_mailbox(account, mail);
        }
        let pieces: std::collections::BTreeSet<String> = ARCHETYPES
            .iter()
            .flat_map(|a| a.code_table().iter().flat_map(|p| runs(p)))
            .map(str::to_ascii_lowercase)
            .collect();
        subject_words.retain(|w| !pieces.contains(&w.to_ascii_lowercase()));
        let ip = svc.geolocator().plan().sample_host("GB", &mut rng);
        let loc = svc.geolocator().locate(ip);
        let conn = ConnectionInfo::new(ip, ClientConfig::plain(Browser::Chrome, Os::Windows), loc.point);
        let (session, _) = svc.login("h@honeymail.example", "pw", &conn, SimTime::from_secs(1)).unwrap();
        for (i, (subject, body, draft)) in texts.iter().enumerate() {
            let words = |ws: &[usize]| ws.iter().map(|&w| TEXT_WORDS[w]).collect::<Vec<_>>().join(" ");
            let (subject, body) = (words(subject), words(body));
            let at = SimTime::from_secs(2 + i as u64);
            if *draft {
                svc.create_draft(session, &["x@y.example".to_string()], &subject, &body, at).unwrap();
            } else {
                let email = Email {
                    id: EmailId(50_000_000 + i as u64),
                    from: "ab@x".into(),
                    to: vec!["h@honeymail.example".into()],
                    subject,
                    body,
                    timestamp: MailTime(i as i64 * 60 - 3_000),
                };
                svc.deliver(account, email);
            }
        }

        let pick = |words: &[String], i: usize| words[picks[i] % words.len()].clone();
        let name = pick(&names, 0);
        let org = ["Meridian", "Coalition", "Voices"][picks[1] % 3].to_string();
        let code = code_words[picks[2] % code_words.len()].to_string();
        let mut queries = vec![name.clone(), org.clone(), code.clone(), pick(&names, 3)];
        queries.extend([format!("{name} {code}"), format!("{org}, {code}"), format!("{name} {org}")]);
        if !subject_words.is_empty() {
            let subject = pick(&subject_words, 4);
            queries.extend([subject.clone(), format!("{subject} {code}"), format!("{subject} {name}")]);
        }
        let slot = slot_words[picks[5] % slot_words.len()];
        queries.extend([slot.to_string(), format!("{slot} {code}"), format!("{slot} {name}")]);
        for round in 0..2u64 {
            if round == 1 {
                // Mail filed after the first search goes into the index
                // the mailbox kept from it.
                let email = Email {
                    id: EmailId(60_000_000),
                    from: "ab@x".into(),
                    to: vec!["h@honeymail.example".into()],
                    subject: format!("{slot} {org}"),
                    body: format!("{name} {code}"),
                    timestamp: MailTime(-10),
                };
                svc.deliver(account, email);
            }
            let mail: BTreeMap<EmailId, Stored> = svc
                .mailbox(account)
                .messages()
                .map(|(id, m)| (id, read_back(id, m)))
                .collect();
            let want: Vec<Vec<EmailId>> = queries.iter().map(|q| per_email_search(&mail, q)).collect();
            for (i, (query, want)) in queries.iter().zip(&want).enumerate() {
                let at = SimTime::from_secs(100 + round * 100 + i as u64);
                let got = svc.search(session, query, at).unwrap();
                prop_assert_eq!(&got, want, "round {} query {:?}", round, query);
            }
        }
    }
}

/// The honey accounts of an equivalence case; both share one password.
const HONEY: [&str; 2] = ["a@honeymail.example", "h@honeymail.example"];
const HONEY_PASSWORD: &str = "pw";
/// Where non-Tor attacker logins come from: all far from the scraper's
/// London infrastructure, so a scrape after them scores as risky.
const ATTACKER_COUNTRIES: &[&str] = &["RU", "BR", "US", "NG", "CN", "IN"];

/// One step of an equivalence case.
#[derive(Clone, Debug)]
enum Visit {
    /// An attacker logs in to a honey account through a Tor exit or not,
    /// from one of [`ATTACKER_COUNTRIES`], presenting the last cookie the
    /// service issued (a known device) or none (a new one).
    Attacker {
        account: usize,
        tor: bool,
        country: usize,
        known_cookie: bool,
    },
    /// The scraper reads a honey account's activity page, presenting the
    /// last issued cookie or none.
    Scrape { account: usize, known_cookie: bool },
}

fn visit() -> impl Strategy<Value = Visit> {
    // Four in five visits are attacker logins, one in three of them
    // through Tor and the rest from far away, so long sequences push the
    // abuse detector over its threshold. Scrapes are rare enough that the
    // infrastructure drops out of the habitual locations, so some scrapes
    // are the login that trips it.
    let attacker = || {
        (
            0usize..2,
            0u8..3,
            0..ATTACKER_COUNTRIES.len(),
            any::<bool>(),
        )
            .prop_map(|(account, route, country, known_cookie)| Visit::Attacker {
                account,
                tor: route == 0,
                country,
                known_cookie,
            })
    };
    prop_oneof![
        attacker(),
        attacker(),
        attacker(),
        attacker(),
        (0usize..2, any::<bool>()).prop_map(|(account, known_cookie)| Visit::Scrape {
            account,
            known_cookie
        }),
    ]
}

/// A service with the two honey accounts, built the same way every call.
/// Only the last two login locations count as habitual, so a scrape from
/// the infrastructure soon after far-away logins scores as risky.
fn honey_service() -> WebmailService {
    let geo = GeoDb::new();
    let plan = AddressPlan::new(&geo);
    let tor = TorDirectory::generate(32, &mut Rng::seed_from(4));
    let config = ServiceConfig {
        habitual_window: 2,
        ..ServiceConfig::default()
    };
    let mut svc = WebmailService::new(config, Geolocator::new(plan, geo, tor));
    for address in HONEY {
        svc.create_account(
            address,
            HONEY_PASSWORD,
            std::net::Ipv4Addr::new(198, 51, 0, 1),
            SimTime::ZERO,
        )
        .unwrap();
    }
    svc
}

/// A connection from the scraper's infrastructure.
fn infra_conn(svc: &WebmailService, rng: &mut Rng) -> ConnectionInfo {
    ConnectionInfo::new(
        AddressPlan::sample_infra(rng),
        ClientConfig::plain(Browser::Chrome, Os::Linux),
        svc.geolocator().infra().point,
    )
}

/// Everything a page shows, in a comparable form.
fn page_rows(page: &ActivityPage) -> String {
    format!("{:?}", page.rows().collect::<Vec<_>>())
}

proptest! {
    /// The scraper's session-free read leaves exactly the state that a
    /// login, a page read and a logout leave, after any mix of attacker
    /// logins and earlier reads: the same result, cookie and page (none
    /// when the read's own login blocked the account), the same access
    /// counts, abuse scores, account states and events, and the next
    /// login gets the same session id.
    #[test]
    fn read_activity_matches_login_page_logout(
        visits in proptest::collection::vec(visit(), 0..48),
        last in (0usize..2, any::<bool>()),
        seed in any::<u64>(),
    ) {
        let mut rng = Rng::seed_from(seed);
        let mut reference = honey_service();
        let mut svc = honey_service();
        let mut last_cookie = None;
        let mut at = SimTime::ZERO;
        let (account, known_cookie) = last;
        let mut visits = visits;
        visits.push(Visit::Scrape { account, known_cookie });
        for visit in visits {
            at += SimDuration::minutes(5);
            match visit {
                Visit::Attacker { account, tor, country, known_cookie } => {
                    let geo = svc.geolocator();
                    let ip = if tor {
                        geo.tor().sample_exit(&mut rng)
                    } else {
                        geo.plan().sample_host(ATTACKER_COUNTRIES[country], &mut rng)
                    };
                    let client = ClientConfig::plain(Browser::Firefox, Os::Windows);
                    let mut conn = ConnectionInfo::new(ip, client, geo.locate(ip).point);
                    if let Some(cookie) = last_cookie.filter(|_| known_cookie) {
                        conn = conn.with_cookie(cookie);
                    }
                    let want = reference.login(HONEY[account], HONEY_PASSWORD, &conn, at);
                    prop_assert_eq!(svc.login(HONEY[account], HONEY_PASSWORD, &conn, at), want);
                    if let Ok((_, cookie)) = want {
                        last_cookie = Some(cookie);
                    }
                }
                Visit::Scrape { account, known_cookie } => {
                    let mut conn = infra_conn(&svc, &mut rng);
                    if let Some(cookie) = last_cookie.filter(|_| known_cookie) {
                        conn = conn.with_cookie(cookie);
                    }
                    let want = reference
                        .login(HONEY[account], HONEY_PASSWORD, &conn, at)
                        .map(|(session, cookie)| {
                            let page = match reference.activity_page(session) {
                                Ok(page) => Some(page_rows(page)),
                                Err(e) => {
                                    assert_eq!(e, OpError::AccountBlocked);
                                    None
                                }
                            };
                            reference.logout(session);
                            (cookie, page)
                        });
                    let got = svc
                        .read_activity(AccountId(account as u32), HONEY_PASSWORD, &conn, at)
                        .map(|(cookie, page)| (cookie, page.map(page_rows)));
                    if let Ok((cookie, _)) = want {
                        last_cookie = Some(cookie);
                    }
                    prop_assert_eq!(got, want);
                }
            }
            for id in [AccountId(0), AccountId(1)] {
                prop_assert_eq!(svc.total_accesses_recorded(id), reference.total_accesses_recorded(id));
                prop_assert_eq!(svc.abuse_score(id).to_bits(), reference.abuse_score(id).to_bits());
                prop_assert_eq!(svc.account(id).state, reference.account(id).state);
            }
            prop_assert_eq!(svc.drain_events(), reference.drain_events());
        }
        // The next login draws the same session id from both services.
        let conn = infra_conn(&svc, &mut rng);
        at += SimDuration::minutes(5);
        prop_assert_eq!(
            svc.login(HONEY[0], HONEY_PASSWORD, &conn, at),
            reference.login(HONEY[0], HONEY_PASSWORD, &conn, at)
        );
    }
}
