//! Per-account mailbox: folders, flags, drafts.
//!
//! Mirrors the Gmail surface described in the paper's §2: an Inbox with
//! unread messages in boldface (the `read` flag), starring, labels,
//! a Drafts folder for unsent content, and a Sent folder.
//!
//! A mailbox keeps its text in one append-only arena and its addresses
//! in one table; an [`Entry`] holds ranges and indices into them. It
//! takes a [`SeededMail`] batch's subject lines whole, so a thread's
//! subject stays stored once, and its bodies as codes, rendered only
//! where a message leaves the mailbox. Every other message enters
//! through [`Mailbox::file`], which copies borrowed parts into the arena
//! and the table. Every read is a borrowed [`Message`], never an [`Email`].

use pwnd_corpus::email::{Email, EmailId, MailTime};
use pwnd_corpus::generator::{slice, SeededBodies, SeededBody, SeededMail};
use std::collections::BTreeMap;
use std::ops::Range;

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

/// A message's mailbox metadata. Its sender and recipients are indices
/// into the mailbox's address table, its subject and body byte ranges
/// of the mailbox's arena, but a seeded body's a range of batch codes.
#[derive(Clone, Debug, Default)]
pub struct Entry {
    /// Send (or draft-creation) time.
    pub timestamp: MailTime,
    from: u32,
    to: Range<u32>,
    subject: Range<u32>,
    body: Range<u32>,
    /// A seeded body's batch and the sender's index in it.
    seeded: Option<(u16, u16)>,
    /// Which folder it lives in.
    pub folder: Folder,
    /// Whether it has been opened.
    pub read: bool,
    /// Whether it is starred.
    pub starred: bool,
    /// User-assigned labels, each once, in the order applied; no heap
    /// block until one lands.
    pub labels: Vec<String>,
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
    pub subject: &'a str,
    /// Body.
    pub body: Body<'a>,
    /// Which folder it lives in.
    pub folder: Folder,
}

/// A single account's mail store.
#[derive(Clone, Debug, Default)]
pub struct Mailbox {
    /// Every subject and text body; a replaced entry's text stays.
    text: String,
    addresses: Vec<String>,
    /// Each seeded batch's bodies; a replaced entry's codes stay.
    batches: Vec<SeededBodies>,
    entries: BTreeMap<EmailId, Entry>,
}

impl Mailbox {
    /// An empty mailbox.
    pub fn new() -> Mailbox {
        Mailbox::default()
    }

    /// Deliver a generated batch into the Inbox, unread.
    pub fn seed(&mut self, mail: SeededMail) {
        let (base, address_base) = (self.text.len() as u32, self.addresses.len() as u32);
        let shift = |r: Range<u32>| r.start + base..r.end + base;
        if self.text.is_empty() {
            self.text = mail.subjects;
        } else {
            self.text.push_str(&mail.subjects);
        }
        self.addresses.extend(mail.addresses);
        let batch = u16::try_from(self.batches.len()).expect("under 65,536 batches");
        self.batches.push(mail.bodies);
        for e in mail.emails {
            let to = address_base + u32::from(e.to);
            let entry = Entry {
                timestamp: e.timestamp,
                from: address_base + u32::from(e.from),
                to: to..to + 1,
                subject: shift(e.subject),
                body: e.body,
                seeded: Some((batch, e.from)),
                ..Entry::default()
            };
            self.entries.insert(e.id, entry);
        }
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
        self.text.push_str(message.subject);
        let middle = self.text.len() as u32;
        message.body.write_text(&mut self.text);
        let entry = Entry {
            timestamp: message.timestamp,
            from,
            to,
            subject: start..middle,
            body: middle..self.text.len() as u32,
            folder: message.folder,
            read: message.folder != Folder::Inbox,
            ..Entry::default()
        };
        self.entries.insert(id, entry);
    }

    /// Deliver a copy of `email` into the Inbox, unread.
    pub fn deliver(&mut self, email: &Email) {
        let message = Message {
            timestamp: email.timestamp,
            from: &email.from,
            to: &email.to,
            subject: &email.subject,
            body: Body::Text(&email.body),
            folder: Folder::Inbox,
        };
        self.file(email.id, message);
    }

    /// A message's parts, read in place. `None` if absent.
    pub fn message(&self, id: EmailId) -> Option<Message<'_>> {
        self.entries.get(&id).map(|e| self.view(e))
    }

    /// Every message in id order, read in place.
    pub fn messages(&self) -> impl Iterator<Item = (EmailId, Message<'_>)> {
        self.entries.iter().map(|(&id, e)| (id, self.view(e)))
    }

    /// [`Mailbox::messages`], a seeded message with its batch and its
    /// sender's index there: the pair fixes its body's frame (greeting
    /// and signature), so a reader can handle each frame once.
    pub fn messages_with_frames(
        &self,
    ) -> impl Iterator<Item = (EmailId, Message<'_>, Option<(u16, u16)>)> {
        self.entries
            .iter()
            .map(|(&id, e)| (id, self.view(e), e.seeded))
    }

    fn view<'a>(&'a self, e: &Entry) -> Message<'a> {
        let body = match e.seeded {
            None => Body::Text(slice(&self.text, &e.body)),
            Some((batch, from)) => {
                Body::Seeded(self.batches[usize::from(batch)].body(from, &e.body))
            }
        };
        Message {
            timestamp: e.timestamp,
            from: &self.addresses[e.from as usize],
            to: &self.addresses[e.to.start as usize..e.to.end as usize],
            subject: slice(&self.text, &e.subject),
            body,
            folder: e.folder,
        }
    }

    /// Exactly [`Email::full_text`] of a message. `None` if absent.
    pub fn full_text(&self, id: EmailId) -> Option<String> {
        let m = self.message(id)?;
        let body_len = match m.body {
            Body::Text(text) => text.len(),
            Body::Seeded(body) => body.text_len(),
        };
        let mut text = String::with_capacity(m.subject.len() + 1 + body_len);
        text.push_str(m.subject);
        text.push('\n');
        m.body.write_text(&mut text);
        Some(text)
    }

    /// Mark a message read (opened). Returns `false` if absent.
    pub fn mark_read(&mut self, id: EmailId) -> bool {
        self.entries.get_mut(&id).map(|e| e.read = true).is_some()
    }

    /// Star a message. Returns `false` if absent.
    pub fn star(&mut self, id: EmailId) -> bool {
        self.entries
            .get_mut(&id)
            .map(|e| e.starred = true)
            .is_some()
    }

    /// Apply a label (once). Returns `false` if absent.
    pub fn label(&mut self, id: EmailId, label: &str) -> bool {
        match self.entries.get_mut(&id) {
            Some(e) => {
                if !e.labels.iter().any(|l| l == label) {
                    e.labels.push(label.to_string());
                }
                true
            }
            None => false,
        }
    }

    /// Look up without side effects.
    pub fn get(&self, id: EmailId) -> Option<&Entry> {
        self.entries.get(&id)
    }

    /// Ids in a folder, newest first (Gmail's default ordering).
    pub fn list(&self, folder: Folder) -> Vec<EmailId> {
        let mut v: Vec<(&EmailId, &Entry)> = self
            .entries
            .iter()
            .filter(|(_, e)| e.folder == folder)
            .collect();
        v.sort_by_key(|(_, e)| std::cmp::Reverse(e.timestamp));
        v.into_iter().map(|(id, _)| *id).collect()
    }

    /// Unread ids in the Inbox (the boldface messages).
    pub fn unread(&self) -> Vec<EmailId> {
        self.list(Folder::Inbox)
            .into_iter()
            .filter(|id| !self.entries[id].read)
            .collect()
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
            subject: "composed",
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
        let e = mb.get(EmailId(1)).unwrap();
        assert_eq!(e.labels, ["important"]);
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
            addresses: vec!["x@example.com".into(), "peer@example.com".into()],
            ..SeededMail::default()
        });
        let to = ["y@example.com".to_string(), "z@example.com".to_string()];
        let sent = Message {
            to: &to,
            ..composed(20, Folder::Sent)
        };
        mb.file(EmailId(7), sent);
        // Only the two recipients were added, as one run after the seed.
        assert_eq!(mb.addresses.len(), 4);
        assert_eq!(mb.message(EmailId(7)), Some(sent));
        // A sender other than the owner is still copied in.
        mb.file(
            EmailId(8),
            Message {
                from: "peer@example.com",
                ..composed(30, Folder::Drafts)
            },
        );
        assert_eq!(mb.addresses.len(), 5);
        assert_eq!(
            mb.message(EmailId(8)).map(|m| m.from),
            Some("peer@example.com")
        );
    }
}
