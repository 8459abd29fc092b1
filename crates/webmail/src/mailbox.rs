//! Per-account mailbox: folders, flags, drafts.
//!
//! Mirrors the Gmail surface described in the paper's §2: an Inbox with
//! unread messages in boldface (the `read` flag), starring, labels,
//! a Drafts folder for unsent content, and a Sent folder.
//!
//! A mailbox keeps all its text in one append-only arena and all its
//! addresses in one table; an [`Entry`] holds ranges and indices into
//! them. It takes a [`SeededMail`] batch's arena over whole, so a
//! thread's subject line stays stored once. Search and rules read the
//! arena in place; an owned [`Email`] is built only where one is handed
//! out ([`Mailbox::open`], [`Mailbox::email`], [`Mailbox::promote_draft`]).

use pwnd_corpus::email::{Email, EmailId, MailTime};
use pwnd_corpus::generator::{slice, SeededMail};
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
/// of the mailbox's arena.
#[derive(Clone, Debug, Default)]
pub struct Entry {
    /// Send (or draft-creation) time.
    pub timestamp: MailTime,
    from: u32,
    to: Range<u32>,
    subject: Range<u32>,
    body: Range<u32>,
    /// Which folder it lives in.
    pub folder: Folder,
    /// Whether it has been opened.
    pub read: bool,
    /// Whether it is starred.
    pub starred: bool,
    /// User-assigned labels, each once, in the order applied; no heap
    /// block until one lands.
    pub labels: Vec<String>,
    /// Whether provider search sees it: delivered mail and drafts are
    /// searchable (a draft stays so after it is sent); mail composed and
    /// sent in one step is not.
    pub searchable: bool,
}

/// A single account's mail store.
#[derive(Clone, Debug, Default)]
pub struct Mailbox {
    /// Every subject and body; a replaced entry's text stays.
    text: String,
    addresses: Vec<String>,
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
        if self.text.is_empty() {
            self.text = mail.text;
        } else {
            self.text.push_str(&mail.text);
        }
        self.addresses.extend(mail.addresses);
        let shift = |r: Range<u32>| r.start + base..r.end + base;
        for e in mail.emails {
            let to = address_base + u32::from(e.to);
            let entry = Entry {
                timestamp: e.timestamp,
                from: address_base + u32::from(e.from),
                to: to..to + 1,
                subject: shift(e.subject),
                body: shift(e.body),
                searchable: true,
                ..Entry::default()
            };
            self.entries.insert(e.id, entry);
        }
    }

    /// Append `email`'s addresses and text, then file it.
    fn insert(&mut self, email: Email, folder: Folder, searchable: bool) {
        let from = self.addresses.len() as u32;
        self.addresses.push(email.from);
        self.addresses.extend(email.to);
        let to = from + 1..self.addresses.len() as u32;
        let mut push = |s: &str| {
            let start = self.text.len() as u32;
            self.text.push_str(s);
            start..self.text.len() as u32
        };
        let (subject, body) = (push(&email.subject), push(&email.body));
        let entry = Entry {
            timestamp: email.timestamp,
            from,
            to,
            subject,
            body,
            folder,
            read: folder != Folder::Inbox,
            searchable,
            ..Entry::default()
        };
        self.entries.insert(email.id, entry);
    }

    /// Deliver a message into the Inbox, unread.
    pub fn deliver(&mut self, email: Email) {
        self.insert(email, Folder::Inbox, true);
    }

    /// Store a draft.
    pub fn store_draft(&mut self, email: Email) {
        self.insert(email, Folder::Drafts, true);
    }

    /// Record a sent message in the Sent folder. A sent draft replaces
    /// its draft entry and stays searchable.
    pub fn record_sent(&mut self, email: Email) {
        let searchable = self.entries.get(&email.id).is_some_and(|e| e.searchable);
        self.insert(email, Folder::Sent, searchable);
    }

    /// Open a message: marks it read, returns a copy. `None` if absent.
    pub fn open(&mut self, id: EmailId) -> Option<Email> {
        self.entries.get_mut(&id)?.read = true;
        self.email(id)
    }

    /// A copy of a message, without side effects. `None` if absent.
    pub fn email(&self, id: EmailId) -> Option<Email> {
        let e = self.entries.get(&id)?;
        let (from, subject, body) = self.parts(id)?;
        let to = &self.addresses[e.to.start as usize..e.to.end as usize];
        Some(Email {
            id,
            from: from.to_string(), // lint:allow(alloc-hot): a message is handed out as an owned copy
            to: to.to_vec(), // lint:allow(alloc-hot): a message is handed out as an owned copy
            subject: subject.to_string(), // lint:allow(alloc-hot): a message is handed out as an owned copy
            body: body.to_string(), // lint:allow(alloc-hot): a message is handed out as an owned copy
            timestamp: e.timestamp,
        })
    }

    /// A message's sender, subject and body, read in place.
    pub(crate) fn parts(&self, id: EmailId) -> Option<(&str, &str, &str)> {
        let e = self.entries.get(&id)?;
        let (subject, body) = (slice(&self.text, &e.subject), slice(&self.text, &e.body));
        Some((&self.addresses[e.from as usize], subject, body))
    }

    /// Exactly [`Email::full_text`] of a message. `None` if absent.
    pub fn full_text(&self, id: EmailId) -> Option<String> {
        let (_, subject, body) = self.parts(id)?;
        Some([subject, body].join("\n"))
    }

    /// Star a message. Returns `false` if absent.
    pub fn star(&mut self, id: EmailId) -> bool {
        match self.entries.get_mut(&id) {
            Some(e) => {
                e.starred = true;
                true
            }
            None => false,
        }
    }

    /// Apply a label (once). Returns `false` if absent.
    pub fn label(&mut self, id: EmailId, label: &str) -> bool {
        match self.entries.get_mut(&id) {
            Some(e) => {
                if !e.labels.iter().any(|l| l == label) {
                    e.labels.push(label.to_string()); // lint:allow(alloc-hot): the mailbox owns its label strings
                }
                true
            }
            None => false,
        }
    }

    /// Move a draft out of Drafts into Sent (on successful send).
    /// Returns the message, or `None` if `id` is not a draft.
    pub fn promote_draft(&mut self, id: EmailId) -> Option<Email> {
        match self.entries.get_mut(&id) {
            Some(e) if e.folder == Folder::Drafts => {
                e.folder = Folder::Sent;
                self.email(id)
            }
            _ => None,
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

    /// What provider search scans, in id order: each searchable
    /// message's id, time, subject and body.
    pub fn searchable(&self) -> impl Iterator<Item = (EmailId, MailTime, &str, &str)> {
        let text = &self.text;
        self.entries
            .iter()
            .filter(|(_, e)| e.searchable)
            .map(|(&id, e)| {
                (
                    id,
                    e.timestamp,
                    slice(text, &e.subject),
                    slice(text, &e.body),
                )
            })
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

    #[test]
    fn delivered_mail_is_unread_in_inbox() {
        let mut mb = Mailbox::new();
        mb.deliver(email(1, -100));
        assert_eq!(mb.unread(), vec![EmailId(1)]);
        assert_eq!(mb.list(Folder::Inbox), vec![EmailId(1)]);
        assert!(mb.list(Folder::Sent).is_empty());
    }

    #[test]
    fn open_marks_read() {
        let mut mb = Mailbox::new();
        mb.deliver(email(1, -100));
        assert!(mb.open(EmailId(1)).is_some());
        assert!(mb.unread().is_empty());
        assert!(mb.open(EmailId(99)).is_none());
    }

    #[test]
    fn inbox_lists_newest_first() {
        let mut mb = Mailbox::new();
        mb.deliver(email(1, -300));
        mb.deliver(email(2, -100));
        mb.deliver(email(3, -200));
        assert_eq!(
            mb.list(Folder::Inbox),
            vec![EmailId(2), EmailId(3), EmailId(1)]
        );
    }

    #[test]
    fn star_and_label() {
        let mut mb = Mailbox::new();
        mb.deliver(email(1, 0));
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
        mb.store_draft(email(5, 10));
        assert_eq!(mb.list(Folder::Drafts), vec![EmailId(5)]);
        let sent = mb.promote_draft(EmailId(5)).unwrap();
        assert_eq!(sent.id, EmailId(5));
        assert!(mb.list(Folder::Drafts).is_empty());
        assert_eq!(mb.list(Folder::Sent), vec![EmailId(5)]);
        // Promoting a non-draft is a no-op.
        assert!(mb.promote_draft(EmailId(5)).is_none());
    }

    #[test]
    fn record_sent_lands_in_sent() {
        let mut mb = Mailbox::new();
        mb.record_sent(email(7, 20));
        assert_eq!(mb.list(Folder::Sent), vec![EmailId(7)]);
        assert!(mb.get(EmailId(7)).unwrap().read);
    }
}
