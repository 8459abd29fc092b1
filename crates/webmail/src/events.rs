//! The service-side event stream.
//!
//! Google Apps Script hooks fire on mailbox activity; our monitor crate
//! consumes these events to synthesize the notifications the paper's
//! scripts sent ("whenever an email is opened, sent, or starred", plus
//! draft copies). Nothing else is an event: logins, password changes and
//! blocks are invisible to Apps Script, and ground truth reads them from
//! account state and the visitor-activity page.

use crate::account::AccountId;
use pwnd_corpus::email::EmailId;
use pwnd_net::access::CookieId;
use pwnd_sim::SimTime;

/// Something observable happened inside the service.
#[derive(Clone, Debug, PartialEq)]
pub enum WebmailEvent {
    /// An email was opened (read).
    EmailOpened {
        /// Account.
        account: AccountId,
        /// Message opened.
        email: EmailId,
        /// Device cookie of the session.
        cookie: CookieId,
        /// When.
        at: SimTime,
    },
    /// An email was starred.
    EmailStarred {
        /// Account.
        account: AccountId,
        /// Message starred.
        email: EmailId,
        /// Device cookie.
        cookie: CookieId,
        /// When.
        at: SimTime,
    },
    /// An email was sent.
    EmailSent {
        /// Account.
        account: AccountId,
        /// Message sent.
        email: EmailId,
        /// Device cookie.
        cookie: CookieId,
        /// When.
        at: SimTime,
        /// Number of intended recipients.
        recipients: usize,
    },
    /// A draft was created.
    DraftCreated {
        /// Account.
        account: AccountId,
        /// Draft id.
        email: EmailId,
        /// Device cookie.
        cookie: CookieId,
        /// When.
        at: SimTime,
    },
}

impl WebmailEvent {
    /// The account this event concerns.
    pub fn account(&self) -> AccountId {
        match *self {
            WebmailEvent::EmailOpened { account, .. }
            | WebmailEvent::EmailStarred { account, .. }
            | WebmailEvent::EmailSent { account, .. }
            | WebmailEvent::DraftCreated { account, .. } => account,
        }
    }

    /// When the event happened.
    pub fn at(&self) -> SimTime {
        match *self {
            WebmailEvent::EmailOpened { at, .. }
            | WebmailEvent::EmailStarred { at, .. }
            | WebmailEvent::EmailSent { at, .. }
            | WebmailEvent::DraftCreated { at, .. } => at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_cover_all_variants() {
        let a = AccountId(5);
        let t = SimTime::from_secs(99);
        let c = CookieId(1);
        let events = vec![
            WebmailEvent::EmailOpened {
                account: a,
                email: EmailId(1),
                cookie: c,
                at: t,
            },
            WebmailEvent::EmailStarred {
                account: a,
                email: EmailId(1),
                cookie: c,
                at: t,
            },
            WebmailEvent::EmailSent {
                account: a,
                email: EmailId(1),
                cookie: c,
                at: t,
                recipients: 2,
            },
            WebmailEvent::DraftCreated {
                account: a,
                email: EmailId(1),
                cookie: c,
                at: t,
            },
        ];
        for e in events {
            assert_eq!(e.account(), a);
            assert_eq!(e.at(), t);
        }
    }
}
