//! Per-account mailbox: folders, flags, drafts.
//!
//! Mirrors the Gmail surface described in the paper's §2: an Inbox with
//! unread messages in boldface (the `read` flag), starring, labels,
//! a Drafts folder for unsent content, and a Sent folder.
//!
//! A mailbox keeps its text in one append-only arena and its addresses
//! in one table; an [`Entry`] holds ranges and indices into them. Its
//! entries are one `Vec` kept sorted by id and looked up by binary
//! search. An entry whose id is above the last, as the fresh, rising
//! ids of a generated batch and of sent mail are, is pushed on the end
//! without a search; any other lands at its sorted place or replaces
//! its id's entry in place. It keeps a [`SeededMail`] batch as it came:
//! subjects and bodies as codes, rendered only where a message leaves
//! the mailbox, and the peer addresses its generator shares. Every
//! other message enters through [`Mailbox::file`], which copies
//! borrowed parts into the arena and the table. Every read is a
//! borrowed [`Message`], never an [`Email`].
//!
//! Search reads an index of the mailbox, built at its first search and
//! kept: each seeded message's codes as one bit mask, with its frame and
//! subject template, and the ids of the text mail search reads as text.
//! [`Mailbox::file`] adds to it; a replaced entry or a new batch drops
//! it, to be built again.

use pwnd_corpus::archetype::MAX_CODES;
use pwnd_corpus::email::{Email, EmailId, MailTime};
use pwnd_corpus::generator::{
    slice, SeededBodies, SeededBody, SeededMail, SeededSubject, SubjectCodes,
};
use pwnd_corpus::vocab::SUBJECT_TEMPLATES;
use std::cell::OnceCell;
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// The folder an entry lives in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Folder {
    /// Received mail.
    #[default]
    Inbox,
    /// Sent mail.
    Sent,
    /// Unsent drafts.
    Drafts,
}

/// A message's mailbox metadata and where its parts are.
#[derive(Clone, Debug)]
pub struct Entry {
    /// Send (or draft-creation) time.
    pub timestamp: MailTime,
    content: Content,
    /// Which folder it lives in.
    pub folder: Folder,
    /// Whether it has been opened.
    pub read: bool,
    /// Whether it is starred.
    pub starred: bool,
}

/// Where a message's parts are.
#[derive(Clone, Debug)]
enum Content {
    /// Filed mail: sender and recipients in the address table, subject
    /// and body in the arena.
    Text {
        from: u32,
        to: Range<u32>,
        subject: Range<u32>,
        body: Range<u32>,
    },
    /// Seeded mail: its batch, sender and recipient as
    /// [`SeededMail::address`] indices, subject codes and the range of
    /// its body's codes.
    Seeded {
        batch: u16,
        from: u16,
        to: u16,
        subject: SubjectCodes,
        body: Range<u32>,
    },
}

/// A seeded batch as the mailbox keeps it.
#[derive(Clone, Debug)]
struct Batch {
    bodies: SeededBodies,
    /// The owner's address in the address table.
    owner: u32,
    peers: Arc<[String]>,
}

/// A subject line, borrowed: text in place, or codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Subject<'a> {
    /// Text.
    Text(&'a str),
    /// A seeded subject line.
    Seeded(SeededSubject),
}

impl Subject<'_> {
    /// Append the text to `out`.
    pub fn write_text(&self, out: &mut String) {
        match self {
            Subject::Text(text) => out.push_str(text),
            Subject::Seeded(subject) => subject.write_text(out),
        }
    }

    /// The byte length of the text, without writing it.
    pub fn text_len(&self) -> usize {
        match self {
            Subject::Text(text) => text.len(),
            Subject::Seeded(subject) => subject.text_len(),
        }
    }
}

/// A message body, borrowed: text in place, or piece codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Body<'a> {
    /// Text.
    Text(&'a str),
    /// A seeded body.
    Seeded(SeededBody<'a>),
}

impl Body<'_> {
    /// Append the text to `out`.
    pub fn write_text(&self, out: &mut String) {
        match self {
            Body::Text(text) => out.push_str(text),
            Body::Seeded(body) => body.write_text(out),
        }
    }

    /// The byte length of the text, without writing it.
    pub fn text_len(&self) -> usize {
        match self {
            Body::Text(text) => text.len(),
            Body::Seeded(body) => body.text_len(),
        }
    }
}

/// A message's parts, borrowed: what [`Mailbox::file`] stores and what
/// [`Mailbox::message`] reads back in place.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Message<'a> {
    /// Send (or draft-creation) time.
    pub timestamp: MailTime,
    /// Sender address.
    pub from: &'a str,
    /// Recipient addresses.
    pub to: &'a [String],
    /// Subject line.
    pub subject: Subject<'a>,
    /// Body.
    pub body: Body<'a>,
    /// Which folder it lives in.
    pub folder: Folder,
}

/// What search reads of a mailbox: every message outside Sent, a seeded
/// one as its codes and a text one by id.
#[derive(Clone, Debug, Default)]
pub(crate) struct SearchIndex {
    /// Seeded mail in id order, each with its place in a ranking:
    /// newest first, the id breaking ties.
    pub(crate) seeded: Vec<(Reverse<MailTime>, EmailId)>,
    /// Each seeded message's codes: bit `k` is set when code `k` is in
    /// its body or fills a slot of its subject.
    pub(crate) codes: Vec<u128>,
    /// Each seeded message's frame (greeting and signature, fixed by
    /// batch and sender; frames are numbered batch by batch) times the
    /// template count, plus its subject template.
    pub(crate) keys: Vec<u32>,
    /// Text mail, in id order up to the build and in filing order after
    /// it.
    pub(crate) text: Vec<EmailId>,
}

/// Code `k`'s bit in a code mask: a lookup, which sets a bit faster than
/// a variable shift of a `u128`.
static CODE_BITS: [u128; MAX_CODES] = {
    let mut bits = [0; MAX_CODES];
    let mut k = 0;
    while k < MAX_CODES {
        bits[k] = 1 << k;
        k += 1;
    }
    bits
};

/// A single account's mail store.
#[derive(Clone, Debug, Default)]
pub struct Mailbox {
    /// Every text subject and body; a replaced entry's text stays.
    text: String,
    addresses: Vec<String>,
    /// Each seeded batch; a replaced entry's codes stay.
    batches: Vec<Batch>,
    /// Every message, in id order, each id once.
    entries: Vec<(EmailId, Entry)>,
    /// User-assigned labels, each once, in the order applied: kept
    /// beside the entries, since few messages carry one.
    labels: BTreeMap<EmailId, Vec<String>>,
    /// Built at the first search.
    index: OnceCell<SearchIndex>,
}

impl Mailbox {
    /// An empty mailbox.
    pub fn new() -> Mailbox {
        Mailbox::default()
    }

    /// Deliver a generated batch into the Inbox, unread.
    pub fn seed(&mut self, mail: SeededMail) {
        self.index.take();
        let batch = u16::try_from(self.batches.len()).expect("under 65,536 batches");
        self.addresses.push(mail.owner);
        self.batches.push(Batch {
            bodies: mail.bodies,
            owner: self.addresses.len() as u32 - 1,
            peers: mail.peers,
        });
        self.entries.reserve(mail.emails.len());
        for e in mail.emails {
            let entry = Entry {
                timestamp: e.timestamp,
                content: Content::Seeded {
                    batch,
                    from: e.from,
                    to: e.to,
                    subject: e.subject,
                    body: e.body,
                },
                folder: Folder::Inbox,
                read: false,
                starred: false,
            };
            self.labels.remove(&e.id);
            self.put(e.id, entry);
        }
    }

    /// Put `entry` under `id`, in place of any entry it had; returns
    /// whether it replaced one. Generated and sent mail take fresh,
    /// rising ids, so most entries land past the last without a search.
    fn put(&mut self, id: EmailId, entry: Entry) -> bool {
        if self.entries.last().is_none_or(|&(last, _)| last < id) {
            self.entries.push((id, entry));
            return false;
        }
        match self.find(id) {
            Ok(i) => {
                self.entries[i].1 = entry;
                true
            }
            Err(i) => {
                self.entries.insert(i, (id, entry));
                false
            }
        }
    }

    /// Where `id`'s entry is, or where it would go.
    fn find(&self, id: EmailId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&id, |&(id, _)| id)
    }

    /// `id`'s entry, to change in place.
    fn entry_mut(&mut self, id: EmailId) -> Option<&mut Entry> {
        let i = self.find(id).ok()?;
        Some(&mut self.entries[i].1)
    }

    /// Store a message under `id`, replacing any entry it had: its
    /// addresses go to the table and its subject and rendered body to
    /// the arena. A sender equal to table entry 0 (a seeded mailbox's
    /// owner) is filed as index 0 rather than copied again. Mail filed
    /// in the Inbox is unread; drafts and sent mail are read.
    pub fn file(&mut self, id: EmailId, message: Message<'_>) {
        let from = if self.addresses.first().is_some_and(|a| a == message.from) {
            0
        } else {
            self.addresses.push(message.from.to_string());
            self.addresses.len() as u32 - 1
        };
        let to_start = self.addresses.len() as u32;
        self.addresses.extend_from_slice(message.to);
        let to = to_start..self.addresses.len() as u32;
        let start = self.text.len() as u32;
        message.subject.write_text(&mut self.text);
        let middle = self.text.len() as u32;
        message.body.write_text(&mut self.text);
        let entry = Entry {
            timestamp: message.timestamp,
            content: Content::Text {
                from,
                to,
                subject: start..middle,
                body: middle..self.text.len() as u32,
            },
            folder: message.folder,
            read: message.folder != Folder::Inbox,
            starred: false,
        };
        self.labels.remove(&id);
        if self.put(id, entry) {
            self.index.take();
        } else if let Some(index) = self.index.get_mut() {
            if message.folder != Folder::Sent {
                index.text.push(id);
            }
        }
    }

    /// Deliver a copy of `email` into the Inbox, unread.
    pub fn deliver(&mut self, email: &Email) {
        let message = Message {
            timestamp: email.timestamp,
            from: &email.from,
            to: &email.to,
            subject: Subject::Text(&email.subject),
            body: Body::Text(&email.body),
            folder: Folder::Inbox,
        };
        self.file(email.id, message);
    }

    /// A message's parts, read in place. `None` if absent.
    pub fn message(&self, id: EmailId) -> Option<Message<'_>> {
        self.get(id).map(|e| self.view(e))
    }

    /// Every message in id order, read in place.
    pub fn messages(&self) -> impl Iterator<Item = (EmailId, Message<'_>)> {
        self.entries.iter().map(|(id, e)| (*id, self.view(e)))
    }

    fn view<'a>(&'a self, e: &'a Entry) -> Message<'a> {
        let (from, to, subject, body) = match &e.content {
            Content::Text {
                from,
                to,
                subject,
                body,
            } => (
                &self.addresses[*from as usize],
                &self.addresses[to.start as usize..to.end as usize],
                Subject::Text(slice(&self.text, subject)),
                Body::Text(slice(&self.text, body)),
            ),
            Content::Seeded {
                batch,
                from,
                to,
                subject,
                body,
            } => {
                let batch_mail = &self.batches[usize::from(*batch)];
                (
                    self.seeded_address(batch_mail, *from),
                    std::slice::from_ref(self.seeded_address(batch_mail, *to)),
                    Subject::Seeded(batch_mail.bodies.subject(*subject)),
                    Body::Seeded(batch_mail.bodies.body(*from, body)),
                )
            }
        };
        Message {
            timestamp: e.timestamp,
            from,
            to,
            subject,
            body,
            folder: e.folder,
        }
    }

    /// Address `i` of `batch`: 0 the owner, `p + 1` peer `p`.
    fn seeded_address<'a>(&'a self, batch: &'a Batch, i: u16) -> &'a String {
        match i.checked_sub(1) {
            None => &self.addresses[batch.owner as usize],
            Some(p) => &batch.peers[usize::from(p)],
        }
    }

    /// Exactly [`Email::full_text`] of a message. `None` if absent.
    pub fn full_text(&self, id: EmailId) -> Option<String> {
        let m = self.message(id)?;
        let mut text = String::with_capacity(m.subject.text_len() + 1 + m.body.text_len());
        m.subject.write_text(&mut text);
        text.push('\n');
        m.body.write_text(&mut text);
        Some(text)
    }

    /// What search reads, built the first time it is asked for.
    pub(crate) fn search_index(&self) -> &SearchIndex {
        self.index.get_or_init(|| {
            // Seeded mail outside Sent is at most every entry.
            let n = self.entries.len();
            let mut index = SearchIndex {
                seeded: Vec::with_capacity(n),
                codes: Vec::with_capacity(n),
                keys: Vec::with_capacity(n),
                text: Vec::new(),
            };
            let mut frame_base = Vec::with_capacity(self.batches.len());
            let mut frames = 0;
            for b in &self.batches {
                frame_base.push(frames);
                frames += b.bodies.names.len() as u32;
            }
            let outside_sent = (self.entries.iter()).filter(|(_, e)| e.folder != Folder::Sent);
            for &(id, ref e) in outside_sent {
                let Content::Seeded {
                    batch,
                    from,
                    subject,
                    body,
                    ..
                } = &e.content
                else {
                    index.text.push(id);
                    continue;
                };
                let bodies = &self.batches[usize::from(*batch)].bodies;
                let or = |mask: u128, &code: &u8| mask | CODE_BITS[usize::from(code)];
                let body_codes = &bodies.codes[body.start as usize..body.end as usize];
                let mask = body_codes.iter().fold(0, or);
                let mask = subject.words().iter().fold(mask, or);
                let frame = frame_base[usize::from(*batch)] + u32::from(*from);
                index.seeded.push((Reverse(e.timestamp), id));
                index.codes.push(mask);
                let templates = SUBJECT_TEMPLATES.len() as u32;
                index
                    .keys
                    .push(frame * templates + u32::from(subject.template));
            }
            index
        })
    }

    /// Each seeded batch's bodies, in batch order.
    pub(crate) fn batches(&self) -> impl ExactSizeIterator<Item = &SeededBodies> {
        self.batches.iter().map(|b| &b.bodies)
    }

    /// Mark a message read (opened). Returns `false` if absent.
    pub fn mark_read(&mut self, id: EmailId) -> bool {
        self.entry_mut(id).map(|e| e.read = true).is_some()
    }

    /// Star a message. Returns `false` if absent.
    pub fn star(&mut self, id: EmailId) -> bool {
        self.entry_mut(id).map(|e| e.starred = true).is_some()
    }

    /// Apply a label (once). Returns `false` if absent.
    pub fn label(&mut self, id: EmailId, label: &str) -> bool {
        if self.find(id).is_err() {
            return false;
        }
        let labels = self.labels.entry(id).or_default();
        if !labels.iter().any(|l| l == label) {
            labels.push(label.to_string());
        }
        true
    }

    /// A message's labels, each once, in the order applied.
    pub fn labels(&self, id: EmailId) -> &[String] {
        self.labels.get(&id).map_or(&[], Vec::as_slice)
    }

    /// Look up without side effects.
    pub fn get(&self, id: EmailId) -> Option<&Entry> {
        let i = self.find(id).ok()?;
        Some(&self.entries[i].1)
    }

    /// Ids in a folder, newest first (Gmail's default ordering).
    pub fn list(&self, folder: Folder) -> Vec<EmailId> {
        self.newest_first(|e| e.folder == folder)
    }

    /// Unread ids in the Inbox (the boldface messages), newest first.
    pub fn unread(&self) -> Vec<EmailId> {
        self.newest_first(|e| e.folder == Folder::Inbox && !e.read)
    }

    /// The ids of the entries `keep` accepts, newest first, the lower id
    /// first among equal times.
    fn newest_first(&self, keep: impl Fn(&Entry) -> bool) -> Vec<EmailId> {
        let kept = self.entries.iter().filter(|(_, e)| keep(e));
        let mut v: Vec<_> = kept.map(|(id, e)| (Reverse(e.timestamp), *id)).collect();
        v.sort_unstable();
        v.into_iter().map(|(_, id)| id).collect()
    }

    /// Message count across all folders.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the mailbox is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwnd_corpus::email::MailTime;

    fn email(id: u64, ts: i64) -> Email {
        Email {
            id: EmailId(id),
            from: "x@example.com".into(),
            to: vec!["y@example.com".into()],
            subject: format!("msg {id}"),
            body: "body".into(),
            timestamp: MailTime(ts),
        }
    }

    fn composed(ts: i64, folder: Folder) -> Message<'static> {
        Message {
            timestamp: MailTime(ts),
            from: "x@example.com",
            to: &[],
            subject: Subject::Text("composed"),
            body: Body::Text("body"),
            folder,
        }
    }

    #[test]
    fn delivered_mail_is_unread_in_inbox() {
        let mut mb = Mailbox::new();
        mb.deliver(&email(1, -100));
        assert_eq!(mb.unread(), vec![EmailId(1)]);
        assert_eq!(mb.list(Folder::Inbox), vec![EmailId(1)]);
        assert!(mb.list(Folder::Sent).is_empty());
    }

    #[test]
    fn open_marks_read() {
        let mut mb = Mailbox::new();
        mb.deliver(&email(1, -100));
        assert!(mb.mark_read(EmailId(1)));
        assert!(mb.unread().is_empty());
        assert!(!mb.mark_read(EmailId(99)));
    }

    #[test]
    fn inbox_lists_newest_first() {
        let mut mb = Mailbox::new();
        mb.deliver(&email(1, -300));
        mb.deliver(&email(2, -100));
        mb.deliver(&email(3, -200));
        assert_eq!(
            mb.list(Folder::Inbox),
            vec![EmailId(2), EmailId(3), EmailId(1)]
        );
    }

    #[test]
    fn star_and_label() {
        let mut mb = Mailbox::new();
        mb.deliver(&email(1, 0));
        assert!(mb.star(EmailId(1)));
        assert!(mb.label(EmailId(1), "important"));
        let e = mb.get(EmailId(1)).unwrap();
        assert!(e.starred);
        assert!(mb.label(EmailId(1), "important"));
        assert_eq!(mb.labels(EmailId(1)), ["important"]);
        assert!(!mb.star(EmailId(2)));
        assert!(!mb.label(EmailId(2), "x"));
    }

    #[test]
    fn draft_lifecycle() {
        let mut mb = Mailbox::new();
        mb.file(EmailId(5), composed(10, Folder::Drafts));
        assert_eq!(mb.list(Folder::Drafts), vec![EmailId(5)]);
        assert_eq!(mb.message(EmailId(5)), Some(composed(10, Folder::Drafts)));
        // Filing under a draft's id replaces it.
        mb.file(EmailId(5), composed(20, Folder::Sent));
        assert!(mb.list(Folder::Drafts).is_empty());
        assert_eq!(mb.list(Folder::Sent), vec![EmailId(5)]);
        assert_eq!(mb.len(), 1);
    }

    #[test]
    fn record_sent_lands_in_sent() {
        let mut mb = Mailbox::new();
        mb.file(EmailId(7), composed(20, Folder::Sent));
        assert_eq!(mb.list(Folder::Sent), vec![EmailId(7)]);
        assert!(mb.get(EmailId(7)).unwrap().read);
    }

    #[test]
    fn mail_from_the_owner_reuses_table_entry_zero() {
        let mut mb = Mailbox::new();
        mb.seed(SeededMail {
            owner: "x@example.com".into(),
            peers: Arc::from(["peer@example.com".to_string()]),
            ..SeededMail::default()
        });
        let to = ["y@example.com".to_string(), "z@example.com".to_string()];
        let sent = Message {
            to: &to,
            ..composed(20, Folder::Sent)
        };
        mb.file(EmailId(7), sent);
        // Only the two recipients were added, as one run after the
        // owner; the peers stay in the batch.
        assert_eq!(mb.addresses.len(), 3);
        assert_eq!(mb.message(EmailId(7)), Some(sent));
        // A sender other than the owner is still copied in.
        mb.file(
            EmailId(8),
            Message {
                from: "peer@example.com",
                ..composed(30, Folder::Drafts)
            },
        );
        assert_eq!(mb.addresses.len(), 4);
        assert_eq!(
            mb.message(EmailId(8)).map(|m| m.from),
            Some("peer@example.com")
        );
    }
}
