//! The sinkhole mailserver.
//!
//! The researchers changed each honey account's default send-from address
//! to point at a mailserver under their control: every message an
//! attacker sends is delivered *only* to that sinkhole, which "simply
//! dumps the emails to disk and does not forward them to the intended
//! destination" (§3.1). [`Sinkhole`] is the dump-to-disk store
//! (in-memory here, exportable). Mail from an account without the
//! override is recorded as sent and goes nowhere: the simulated provider
//! delivers no mail beyond its own mailboxes.

use crate::account::AccountId;
use pwnd_corpus::email::Email;
use pwnd_sim::SimTime;

/// A message captured by the sinkhole.
#[derive(Clone, Debug)]
pub struct SinkholedMessage {
    /// Which account sent it.
    pub from_account: AccountId,
    /// When it was sent.
    pub at: SimTime,
    /// The message (with its intended recipients intact, for analysis).
    pub email: Email,
}

/// The researchers' catch-all mailserver.
#[derive(Clone, Debug, Default)]
pub struct Sinkhole {
    messages: Vec<SinkholedMessage>,
}

impl Sinkhole {
    /// An empty sinkhole.
    pub fn new() -> Sinkhole {
        Sinkhole::default()
    }

    /// Dump a message.
    pub fn capture(&mut self, msg: SinkholedMessage) {
        self.messages.push(msg);
    }

    /// Everything captured so far.
    pub fn messages(&self) -> &[SinkholedMessage] {
        &self.messages
    }

    /// Count of captured messages.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// Whether nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwnd_corpus::email::{EmailId, MailTime};

    fn email(to: Vec<&str>) -> Email {
        Email {
            id: EmailId(1),
            from: "honey@honeymail.example".into(),
            to: to.into_iter().map(String::from).collect(),
            subject: "s".into(),
            body: "b".into(),
            timestamp: MailTime(0),
        }
    }

    #[test]
    fn override_sinkholes_everything() {
        let mut sink = Sinkhole::new();
        assert!(sink.is_empty());
        sink.capture(SinkholedMessage {
            from_account: AccountId(1),
            at: SimTime::ZERO,
            email: email(vec!["victim@gmail.example", "other@x.example"]),
        });
        assert_eq!(sink.len(), 1);
        // Intended recipients are preserved for analysis.
        assert_eq!(sink.messages()[0].email.to.len(), 2);
    }
}
