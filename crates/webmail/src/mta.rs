//! The sinkhole mailserver.
//!
//! The researchers changed each honey account's default send-from address
//! to point at a mailserver under their control: every message an
//! attacker sends is delivered *only* to that sinkhole, which "simply
//! dumps the emails to disk and does not forward them to the intended
//! destination" (§3.1). [`Sinkhole`] is the dump-to-disk log: it records
//! which account sent which message when, and the message itself, with
//! its intended recipients, is the sender's Sent entry (see
//! [`crate::mailbox`]). Mail from an account without the override is
//! filed in Sent and goes nowhere: the simulated provider delivers no
//! mail beyond its own mailboxes.

use crate::account::AccountId;
use pwnd_corpus::email::EmailId;
use pwnd_sim::SimTime;

/// A message captured by the sinkhole.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SinkholedMessage {
    /// Which account sent it.
    pub from_account: AccountId,
    /// When it was sent.
    pub at: SimTime,
    /// The message: an entry in the sender's Sent folder, intended
    /// recipients intact.
    pub email: EmailId,
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

    #[test]
    fn override_sinkholes_everything() {
        let mut sink = Sinkhole::new();
        assert!(sink.is_empty());
        let first = SinkholedMessage {
            from_account: AccountId(1),
            at: SimTime::ZERO,
            email: EmailId(7),
        };
        let second = SinkholedMessage {
            from_account: AccountId(2),
            at: SimTime::from_secs(5),
            email: EmailId(3),
        };
        sink.capture(first);
        sink.capture(second);
        assert_eq!(sink.len(), 2);
        assert!(!sink.is_empty());
        // Every captured send is kept, in capture order; the intended
        // recipients stay on the sender's Sent entry the record names.
        assert_eq!(sink.messages(), &[first, second]);
    }
}
