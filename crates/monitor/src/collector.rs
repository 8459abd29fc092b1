//! The dedicated collector account that receives script notifications.
//!
//! Delivery from the in-account scripts is *at-least-once*: the fault
//! layer can lose a notification outright or redeliver it, so the
//! collector deduplicates on the `(account, seq)` delivery id every
//! script stamps on its messages. Both that dedup index and the
//! last-heartbeat index (which block detection and the dead-window
//! coverage analysis read) are dense tables indexed by account id, so
//! receiving a notification touches no tree.

use pwnd_corpus::email::EmailId;
use pwnd_faults::{FaultPlan, NotificationFate};
use pwnd_net::access::CookieId;
use pwnd_sim::{SimDuration, SimTime};
use pwnd_telemetry::TelemetrySink;
use pwnd_webmail::account::AccountId;

/// What a notification reports.
#[derive(Clone, Debug, PartialEq)]
pub enum NotificationKind {
    /// An email was opened; carries a snapshot of its text (the script
    /// reads the message it was notified about).
    Opened {
        /// The opened message.
        email: EmailId,
        /// Subject + body snapshot, the raw material of the TF-IDF study.
        text: String,
    },
    /// An email was starred.
    Starred {
        /// The starred message.
        email: EmailId,
    },
    /// An email was sent.
    Sent {
        /// The sent message.
        email: EmailId,
        /// Number of intended recipients.
        recipients: usize,
    },
    /// A draft was created; the script forwards a full copy.
    DraftCopy {
        /// The draft.
        email: EmailId,
        /// Subject + body snapshot.
        text: String,
    },
    /// Daily liveness heartbeat.
    Heartbeat,
}

/// One notification email received by the collector.
#[derive(Clone, Debug, PartialEq)]
pub struct Notification {
    /// Which honey account emitted it.
    pub account: AccountId,
    /// When the triggering activity happened.
    pub at: SimTime,
    /// Per-script delivery sequence number. Redeliveries reuse it, which
    /// is how the collector recognizes duplicates.
    pub seq: u64,
    /// Access cookie of the actor, when the event has one (heartbeats
    /// don't).
    pub cookie: Option<CookieId>,
    /// Payload.
    pub kind: NotificationKind,
}

/// The collector mailbox: an append-only notification store with the
/// query methods the dataset builder and analyses need.
#[derive(Clone, Debug, Default)]
pub struct NotificationCollector {
    notifications: Vec<Notification>,
    /// Per-account indexes, indexed by account id (ids are dense).
    accounts: Vec<AccountIndex>,
    fault_plan: FaultPlan,
    duplicates: u64,
    lost: u64,
    telemetry: TelemetrySink,
}

/// What the collector indexes about one account as notifications arrive.
#[derive(Clone, Debug, Default)]
struct AccountIndex {
    /// Sequence numbers already stored, ascending, for at-least-once
    /// dedup. A script's seqs come from one increasing counter, so a
    /// first delivery is an append; anything else is binary-searched,
    /// which keeps exact set semantics for any arrival order.
    seqs: Vec<u64>,
    /// The latest heartbeat received (the dataset builder queries it
    /// once per account).
    last_heartbeat: Option<SimTime>,
}

impl AccountIndex {
    /// Record `seq`; false when it was already stored.
    fn insert_seq(&mut self, seq: u64) -> bool {
        if self.seqs.last().is_none_or(|&last| seq > last) {
            self.seqs.push(seq);
            return true;
        }
        match self.seqs.binary_search(&seq) {
            Ok(_) => false,
            Err(at) => {
                self.seqs.insert(at, seq);
                true
            }
        }
    }
}

impl NotificationCollector {
    /// An empty collector.
    pub fn new() -> NotificationCollector {
        NotificationCollector::default()
    }

    /// Attach a telemetry sink (`monitor.notifications{kind}`,
    /// `monitor.duplicate_notifications`, `faults.injected{...}`).
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.telemetry = sink;
    }

    /// Attach the run's fault plan. In-transit loss and redelivery are
    /// decided per notification as it arrives; the default plan delivers
    /// everything exactly once.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan;
    }

    /// Receive one notification, applying in-transit faults: the message
    /// may be lost, delivered once, or delivered twice (at-least-once).
    /// Duplicates are detected by delivery id and dropped.
    pub fn receive(&mut self, n: Notification) {
        match self.fault_plan.notification_fate(n.account.0, n.seq) {
            NotificationFate::Deliver => self.deliver(n),
            NotificationFate::Lose => {
                self.lost += 1;
                self.telemetry
                    .count_labeled("faults.injected", "notification_loss");
            }
            NotificationFate::DeliverTwice => {
                self.telemetry
                    .count_labeled("faults.injected", "notification_dup");
                self.deliver(n.clone());
                self.deliver(n);
            }
        }
    }

    fn deliver(&mut self, n: Notification) {
        let idx = n.account.0 as usize;
        if self.accounts.len() <= idx {
            self.accounts.resize_with(idx + 1, AccountIndex::default);
        }
        let Some(index) = self.accounts.get_mut(idx) else {
            return;
        };
        if !index.insert_seq(n.seq) {
            self.duplicates += 1;
            self.telemetry.count("monitor.duplicate_notifications");
            return;
        }
        let kind = match n.kind {
            NotificationKind::Opened { .. } => "opened",
            NotificationKind::Starred { .. } => "starred",
            NotificationKind::Sent { .. } => "sent",
            NotificationKind::DraftCopy { .. } => "draft_copy",
            NotificationKind::Heartbeat => "heartbeat",
        };
        self.telemetry.count_labeled("monitor.notifications", kind);
        if matches!(n.kind, NotificationKind::Heartbeat) {
            index.last_heartbeat = index.last_heartbeat.max(Some(n.at));
        }
        self.notifications.push(n);
    }

    /// All notifications, in arrival order.
    pub fn all(&self) -> &[Notification] {
        &self.notifications
    }

    /// Notifications for one account.
    pub fn for_account(&self, account: AccountId) -> impl Iterator<Item = &Notification> {
        self.notifications
            .iter()
            .filter(move |n| n.account == account)
    }

    /// The last heartbeat seen from an account, if any. O(1): served
    /// from the index maintained on receive.
    pub fn last_heartbeat(&self, account: AccountId) -> Option<SimTime> {
        self.accounts
            .get(account.0 as usize)
            .and_then(|index| index.last_heartbeat)
    }

    /// Internal heartbeat dead windows for one account: spans between
    /// two *received* consecutive heartbeats further apart than
    /// `min_gap`. A dead window means monitoring was blind while the
    /// account was demonstrably still alive (a later heartbeat arrived),
    /// so it is a known coverage gap, not censoring. The trailing
    /// silence before the horizon is deliberately excluded — that is the
    /// block-detection signal, handled separately.
    pub fn heartbeat_gaps(
        &self,
        account: AccountId,
        min_gap: SimDuration,
    ) -> Vec<(SimTime, SimTime)> {
        let mut beats: Vec<SimTime> = self
            .for_account(account)
            .filter(|n| matches!(n.kind, NotificationKind::Heartbeat))
            .map(|n| n.at)
            .collect();
        beats.sort_unstable();
        beats
            .iter()
            .zip(beats.iter().skip(1))
            .filter(|(a, b)| b.since(**a) > min_gap)
            .map(|(a, b)| (*a, *b))
            .collect()
    }

    /// Notifications lost in transit (infrastructure-side count, used by
    /// ground truth and the chaos report — analyses never read it).
    pub fn lost_in_transit(&self) -> u64 {
        self.lost
    }

    /// Redelivered notifications caught by dedup.
    pub fn duplicates_detected(&self) -> u64 {
        self.duplicates
    }

    /// Text snapshots of every opened email (document `d_R` of §4.3.5).
    pub fn opened_texts(&self) -> Vec<&str> {
        self.notifications
            .iter()
            .filter_map(|n| match &n.kind {
                NotificationKind::Opened { text, .. } => Some(text.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Count of non-heartbeat notifications (activity volume).
    pub fn activity_count(&self) -> usize {
        self.notifications
            .iter()
            .filter(|n| !matches!(n.kind, NotificationKind::Heartbeat))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwnd_faults::FaultProfile;

    fn note(acct: u32, at: u64, seq: u64, kind: NotificationKind) -> Notification {
        Notification {
            account: AccountId(acct),
            at: SimTime::from_secs(at),
            seq,
            cookie: Some(CookieId(1)),
            kind,
        }
    }

    #[test]
    fn collects_and_filters_by_account() {
        let mut c = NotificationCollector::new();
        c.receive(note(1, 10, 0, NotificationKind::Heartbeat));
        c.receive(note(
            2,
            20,
            1,
            NotificationKind::Starred { email: EmailId(5) },
        ));
        c.receive(note(1, 30, 2, NotificationKind::Heartbeat));
        assert_eq!(c.all().len(), 3);
        assert_eq!(c.for_account(AccountId(1)).count(), 2);
        assert_eq!(c.last_heartbeat(AccountId(1)), Some(SimTime::from_secs(30)));
        assert_eq!(c.last_heartbeat(AccountId(3)), None);
        assert_eq!(c.activity_count(), 1);
    }

    #[test]
    fn opened_texts_collects_snapshots() {
        let mut c = NotificationCollector::new();
        c.receive(note(
            1,
            10,
            0,
            NotificationKind::Opened {
                email: EmailId(1),
                text: "payment details".into(),
            },
        ));
        c.receive(note(
            1,
            20,
            1,
            NotificationKind::DraftCopy {
                email: EmailId(2),
                text: "bitcoin ransom".into(),
            },
        ));
        assert_eq!(c.opened_texts(), vec!["payment details"]);
    }

    #[test]
    fn duplicate_deliveries_are_dropped() {
        let mut c = NotificationCollector::new();
        c.receive(note(1, 10, 7, NotificationKind::Heartbeat));
        c.receive(note(1, 10, 7, NotificationKind::Heartbeat));
        assert_eq!(c.all().len(), 1);
        assert_eq!(c.duplicates_detected(), 1);
        // Same seq on a different account is not a duplicate.
        c.receive(note(2, 10, 7, NotificationKind::Heartbeat));
        assert_eq!(c.all().len(), 2);
    }

    #[test]
    fn lossy_plan_drops_some_and_dedup_absorbs_redelivery() {
        let profile = FaultProfile {
            notification_loss_rate: 0.3,
            notification_dup_rate: 0.3,
            ..FaultProfile::none()
        };
        let mut c = NotificationCollector::new();
        c.set_fault_plan(FaultPlan::compile(5, &profile, SimDuration::days(30)));
        for s in 0..200 {
            c.receive(note(1, 10 + s, s, NotificationKind::Heartbeat));
        }
        let stored = c.all().len() as u64;
        assert!(c.lost_in_transit() > 0);
        assert!(c.duplicates_detected() > 0);
        // Every non-lost notification is stored exactly once.
        assert_eq!(stored, 200 - c.lost_in_transit());
    }

    #[test]
    fn heartbeat_gaps_report_internal_silence_only() {
        let mut c = NotificationCollector::new();
        let day = 86_400u64;
        // Beats on days 0, 1, 5, 6 — a 4-day internal hole.
        for (s, d) in [0u64, 1, 5, 6].iter().enumerate() {
            c.receive(note(1, d * day, s as u64, NotificationKind::Heartbeat));
        }
        let gaps = c.heartbeat_gaps(AccountId(1), SimDuration::days(2));
        assert_eq!(gaps.len(), 1);
        assert_eq!(gaps[0].0, SimTime::from_secs(day));
        assert_eq!(gaps[0].1, SimTime::from_secs(5 * day));
        // No beats at all: no internal gaps (the tail is block detection's
        // problem).
        assert!(c
            .heartbeat_gaps(AccountId(9), SimDuration::days(2))
            .is_empty());
    }
}
