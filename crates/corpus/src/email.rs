//! The email message type shared across the workspace.

use std::fmt;

/// Seconds relative to the experiment epoch (the leak instant). Negative
/// values are the seeded mailbox history — the paper translated old Enron
/// timestamps into the weeks *before* the experiment start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct MailTime(pub i64);

impl MailTime {
    /// A time `days` before the epoch.
    pub fn days_before_epoch(days: f64) -> MailTime {
        MailTime(-(days * 86_400.0) as i64)
    }

    /// Convert a non-negative simulation instant.
    pub fn from_sim(t: pwnd_sim::SimTime) -> MailTime {
        MailTime(t.as_secs() as i64)
    }

    /// Fractional days relative to the epoch (negative = before the leak).
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / 86_400.0
    }
}

impl fmt::Display for MailTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:+.2}d", self.as_days_f64())
    }
}

/// Unique message identifier, assigned by the generator or the service.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EmailId(pub u64);

impl fmt::Debug for EmailId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "msg#{}", self.0)
    }
}

/// An email message. Header-level only — the monitoring infrastructure and
/// the analyses never look below the (from, to, subject, body, time) tuple.
#[derive(Clone, Debug, PartialEq)]
pub struct Email {
    /// Message id.
    pub id: EmailId,
    /// Sender address.
    pub from: String,
    /// Recipient addresses.
    pub to: Vec<String>,
    /// Subject line.
    pub subject: String,
    /// Plain-text body.
    pub body: String,
    /// Send (or draft-creation) time.
    pub timestamp: MailTime,
}

impl Email {
    /// Subject plus body — the text the tokenizer consumes.
    pub fn full_text(&self) -> String {
        format!("{}\n{}", self.subject, self.body)
    }

    /// Whether this message mentions `needle` as a case-insensitive
    /// substring of its subject or body.
    pub fn contains_term(&self, needle: &str) -> bool {
        let n = needle.to_lowercase();
        self.subject.to_lowercase().contains(&n) || self.body.to_lowercase().contains(&n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwnd_sim::{SimDuration, SimTime};

    fn email() -> Email {
        Email {
            id: EmailId(1),
            from: "a@example.com".into(),
            to: vec!["b@example.com".into()],
            subject: "Quarterly Transfer".into(),
            body: "The energy transfer schedule is attached.".into(),
            timestamp: MailTime::days_before_epoch(10.0),
        }
    }

    #[test]
    fn mail_time_ordering_spans_epoch() {
        let before = MailTime::days_before_epoch(5.0);
        let after = MailTime::from_sim(SimTime::ZERO + SimDuration::days(5));
        assert!(before < MailTime(0));
        assert!(MailTime(0) < after);
        assert!((before.as_days_f64() + 5.0).abs() < 1e-9);
    }

    #[test]
    fn contains_term_is_case_insensitive() {
        let e = email();
        assert!(e.contains_term("TRANSFER"));
        assert!(e.contains_term("energy"));
        assert!(!e.contains_term("bitcoin"));
    }

    #[test]
    fn full_text_includes_subject_and_body() {
        let t = email().full_text();
        assert!(t.contains("Quarterly"));
        assert!(t.contains("attached"));
    }
}
