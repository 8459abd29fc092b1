//! Per-account mailbox: folders, flags, drafts.
//!
//! Mirrors the Gmail surface described in the paper's §2: an Inbox with
//! unread messages in boldface (the `read` flag), starring, labels,
//! a Drafts folder for unsent content, and a Sent folder.

use pwnd_corpus::email::{Email, EmailId};
use std::collections::{BTreeMap, HashSet};

/// The folder an entry lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Folder {
    /// Received mail.
    Inbox,
    /// Sent mail.
    Sent,
    /// Unsent drafts.
    Drafts,
}

/// A message plus its mailbox metadata.
#[derive(Clone, Debug)]
pub struct Entry {
    /// The message.
    pub email: Email,
    /// Which folder it lives in.
    pub folder: Folder,
    /// Whether it has been opened.
    pub read: bool,
    /// Whether it is starred.
    pub starred: bool,
    /// User-assigned labels.
    pub labels: HashSet<String>,
    /// Whether provider search sees it: delivered mail and drafts are
    /// searchable (a draft stays so after it is sent); mail composed and
    /// sent in one step is not.
    pub searchable: bool,
}

/// A single account's mail store.
#[derive(Clone, Debug, Default)]
pub struct Mailbox {
    entries: BTreeMap<EmailId, Entry>,
}

impl Mailbox {
    /// An empty mailbox.
    pub fn new() -> Mailbox {
        Mailbox::default()
    }

    /// Deliver a message into the Inbox, unread.
    pub fn deliver(&mut self, email: Email) {
        let id = email.id;
        self.entries.insert(
            id,
            Entry {
                email,
                folder: Folder::Inbox,
                read: false,
                starred: false,
                labels: HashSet::new(), // lint:allow(alloc-hot): empty label set; allocates only when a label lands
                searchable: true,
            },
        );
    }

    /// Store a draft.
    pub fn store_draft(&mut self, email: Email) {
        let id = email.id;
        self.entries.insert(
            id,
            Entry {
                email,
                folder: Folder::Drafts,
                read: true,
                starred: false,
                labels: HashSet::new(),
                searchable: true,
            },
        );
    }

    /// Record a sent message in the Sent folder. A sent draft replaces
    /// its draft entry and stays searchable.
    pub fn record_sent(&mut self, email: Email) {
        let id = email.id;
        let searchable = self.entries.get(&id).is_some_and(|e| e.searchable);
        self.entries.insert(
            id,
            Entry {
                email,
                folder: Folder::Sent,
                read: true,
                starred: false,
                labels: HashSet::new(), // lint:allow(alloc-hot): empty label set; allocates only when a label lands
                searchable,
            },
        );
    }

    /// Open a message: marks it read, returns it. `None` if absent.
    pub fn open(&mut self, id: EmailId) -> Option<&Email> {
        let e = self.entries.get_mut(&id)?;
        e.read = true;
        Some(&e.email)
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

    /// Apply a label. Returns `false` if absent.
    pub fn label(&mut self, id: EmailId, label: &str) -> bool {
        match self.entries.get_mut(&id) {
            Some(e) => {
                e.labels.insert(label.to_string()); // lint:allow(alloc-hot): the mailbox owns its label strings
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
                Some(e.email.clone())
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
        v.sort_by_key(|(_, e)| std::cmp::Reverse(e.email.timestamp));
        v.into_iter().map(|(id, _)| *id).collect()
    }

    /// Unread ids in the Inbox (the boldface messages).
    pub fn unread(&self) -> Vec<EmailId> {
        self.list(Folder::Inbox)
            .into_iter()
            .filter(|id| !self.entries[id].read)
            .collect()
    }

    /// All entries, in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Entry> {
        self.entries.values()
    }

    /// The messages provider search scans, in id order.
    pub fn searchable(&self) -> impl Iterator<Item = &Email> {
        self.entries
            .values()
            .filter(|e| e.searchable)
            .map(|e| &e.email)
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
        assert!(e.labels.contains("important"));
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
