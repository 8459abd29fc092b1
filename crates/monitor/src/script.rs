//! The in-account Apps-Script runtime.
//!
//! Each honey account carries a script, hidden inside a Google-Docs
//! spreadsheet so attackers are unlikely to find it (§3.1). The runtime
//! subscribes to the service's event stream and converts mailbox activity
//! into collector notifications. It also models two real-world failure
//! modes the paper hit:
//!
//! * **Execution quota** — scripts consume "computer time" per trigger;
//!   exceeding the daily quota makes the platform email a "using too much
//!   computer time" notice *into the honey account itself*, where an
//!   attacker may open it (§4.4 observed exactly that, twice).
//! * **Discovery** — an attacker who rummages through the account's
//!   documents can find and delete the script, silencing monitoring for
//!   that account (§5 limitations).

use crate::collector::{Notification, NotificationCollector, NotificationKind};
use pwnd_corpus::email::{Email, EmailId, MailTime};
use pwnd_faults::FaultPlan;
use pwnd_sim::{SimDuration, SimTime};
use pwnd_telemetry::TelemetrySink;
use pwnd_webmail::account::AccountId;
use pwnd_webmail::events::WebmailEvent;
use pwnd_webmail::service::WebmailService;

/// Where the script hides.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScriptLocation {
    /// Embedded in a spreadsheet in the account's documents (the paper's
    /// choice — hard to stumble upon).
    HiddenSpreadsheet,
    /// Installed as a visible account script (easier to find; used by the
    /// discovery-probability ablation).
    Visible,
}

/// Per-account script state.
#[derive(Clone, Debug)]
pub struct ScriptState {
    /// Where it hides.
    pub location: ScriptLocation,
    /// Deleted by an attacker?
    pub deleted: bool,
    /// Execution seconds consumed today.
    pub used_today: f64,
    /// Day index the quota window refers to.
    pub quota_day: u64,
    /// Whether a quota notice has already been delivered today.
    pub quota_notified_today: bool,
    /// Day index of the last delivered quota notice (platform digests
    /// are throttled).
    pub last_notice_day: Option<u64>,
    /// Per-account daily polling cost (seconds); scales with mailbox
    /// size, so the largest mailboxes exceed quota persistently — the
    /// §4.4 "two accounts received notifications" pattern.
    pub polling_cost: f64,
    /// Total notifications emitted over the script's lifetime.
    pub emitted: u64,
}

/// Runtime configuration.
#[derive(Clone, Debug)]
pub struct ScriptConfig {
    /// Seconds of execution each trigger costs.
    pub cost_per_trigger: f64,
    /// Seconds of execution the script's time-driven polling burns every
    /// day regardless of activity. Apps Script at the time could not hook
    /// mailbox events directly — the paper's scripts polled for changes,
    /// which is why two accounts hit the "too much computer time" notice
    /// on busy days (§4.4).
    pub daily_polling_cost: f64,
    /// Daily execution allowance before the platform complains.
    pub daily_quota: f64,
    /// Probability that one thorough (gold-digger) session discovers a
    /// hidden script. Visible scripts are found 20× as easily.
    pub discovery_probability: f64,
    /// Minimum days between quota notices to one account (the platform
    /// digests failures instead of spamming the owner).
    pub notice_cooldown_days: u64,
}

impl Default for ScriptConfig {
    fn default() -> Self {
        ScriptConfig {
            cost_per_trigger: 45.0,
            daily_polling_cost: 85.0 * 60.0,
            // Apps Script consumer quota at the time: 90 minutes/day.
            daily_quota: 90.0 * 60.0,
            discovery_probability: 0.01,
            notice_cooldown_days: 10,
        }
    }
}

/// The runtime driving all per-account scripts.
pub struct ScriptRuntime {
    config: ScriptConfig,
    /// Per-account scripts, indexed by account id (`None` where none is
    /// installed).
    scripts: Vec<Option<ScriptState>>,
    next_quota_email_id: u64,
    quota_notices_sent: u64,
    /// Delivery sequence stamped on every emitted notification, so the
    /// collector can deduplicate at-least-once redeliveries.
    next_seq: u64,
    fault_plan: FaultPlan,
    telemetry: TelemetrySink,
}

impl ScriptRuntime {
    /// A runtime with the given configuration.
    pub fn new(config: ScriptConfig) -> ScriptRuntime {
        ScriptRuntime {
            config,
            scripts: Vec::new(),
            next_quota_email_id: 20_000_000,
            quota_notices_sent: 0,
            next_seq: 0,
            fault_plan: FaultPlan::none(),
            telemetry: TelemetrySink::disabled(),
        }
    }

    /// Attach a telemetry sink (`monitor.scripts_deleted`,
    /// `monitor.quota_notices`, and one `heartbeat` trace per tick).
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.telemetry = sink;
    }

    /// Attach the run's fault plan (daily trigger misfires).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan;
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Install the monitoring script on an account.
    pub fn install(&mut self, account: AccountId, location: ScriptLocation) {
        let idx = account.0 as usize;
        if self.scripts.len() <= idx {
            self.scripts.resize_with(idx + 1, || None);
        }
        self.scripts[idx] = Some(ScriptState {
            location,
            deleted: false,
            used_today: 0.0,
            quota_day: 0,
            quota_notified_today: false,
            last_notice_day: None,
            polling_cost: self.config.daily_polling_cost,
            emitted: 0,
        });
    }

    /// Set the account's daily polling cost (seconds). The experiment
    /// derives it from mailbox size: reading a bigger mailbox takes the
    /// polling trigger longer.
    pub fn set_polling_cost(&mut self, account: AccountId, cost: f64) {
        if let Some(s) = state_mut(&mut self.scripts, account) {
            s.polling_cost = cost;
        }
    }

    /// Script state for an account.
    pub fn state(&self, account: AccountId) -> Option<&ScriptState> {
        self.scripts.get(account.0 as usize)?.as_ref()
    }

    /// Whether the script on `account` is installed and alive.
    pub fn is_alive(&self, account: AccountId) -> bool {
        self.state(account).is_some_and(|s| !s.deleted)
    }

    /// An attacker session rummages through the account. Returns `true`
    /// if it found and deleted the script. `roll` is a uniform [0,1) draw
    /// supplied by the caller (keeps the runtime RNG-free).
    pub fn attacker_rummage(&mut self, account: AccountId, roll: f64) -> bool {
        let Some(s) = state_mut(&mut self.scripts, account) else {
            return false;
        };
        if s.deleted {
            return false;
        }
        let p = match s.location {
            ScriptLocation::HiddenSpreadsheet => self.config.discovery_probability,
            ScriptLocation::Visible => (self.config.discovery_probability * 20.0).min(1.0),
        };
        if roll < p {
            s.deleted = true;
            self.telemetry.count("monitor.scripts_deleted");
            true
        } else {
            false
        }
    }

    fn charge_polling(&mut self, account: AccountId, at: SimTime) -> QuotaStatus {
        let quota = self.config.daily_quota;
        let cooldown = self.config.notice_cooldown_days;
        let Some(s) = state_mut(&mut self.scripts, account) else {
            return QuotaStatus::Ok;
        };
        let day = at.day_index();
        if day != s.quota_day {
            s.quota_day = day;
            s.used_today = 0.0;
            s.quota_notified_today = false;
        }
        s.used_today += s.polling_cost;
        let throttled = s
            .last_notice_day
            .is_some_and(|d| day.saturating_sub(d) < cooldown);
        if s.used_today > quota && !s.quota_notified_today && !throttled {
            s.quota_notified_today = true;
            s.last_notice_day = Some(day);
            QuotaStatus::Exceeded
        } else {
            QuotaStatus::Ok
        }
    }

    fn charge(&mut self, account: AccountId, at: SimTime) -> QuotaStatus {
        let cost = self.config.cost_per_trigger;
        let quota = self.config.daily_quota;
        let Some(s) = state_mut(&mut self.scripts, account) else {
            return QuotaStatus::Ok;
        };
        let day = at.day_index();
        if day != s.quota_day {
            s.quota_day = day;
            s.used_today = 0.0;
            s.quota_notified_today = false;
        }
        s.used_today += cost;
        let throttled = s
            .last_notice_day
            .is_some_and(|d| day.saturating_sub(d) < self.config.notice_cooldown_days);
        if s.used_today > quota && !s.quota_notified_today && !throttled {
            s.quota_notified_today = true;
            s.last_notice_day = Some(day);
            QuotaStatus::Exceeded
        } else {
            QuotaStatus::Ok
        }
    }

    /// Process a batch of service events: emit notifications for accounts
    /// with live scripts, charge quota, and deliver platform quota notices
    /// into over-quota accounts.
    pub fn process_events(
        &mut self,
        events: &[WebmailEvent],
        service: &mut WebmailService,
        collector: &mut NotificationCollector,
    ) {
        for ev in events {
            let account = ev.account();
            if !self.is_alive(account) {
                continue;
            }
            // Blocked accounts stop running scripts — but only from the
            // moment of the block: triggers that fired earlier in the
            // same batch (e.g. the spam burst that *caused* the block)
            // were already queued and still deliver.
            if let pwnd_webmail::account::AccountState::Blocked { at } =
                service.account(account).state
            {
                if ev.at() > at {
                    continue;
                }
            }
            let (kind, at, cookie) = match *ev {
                WebmailEvent::EmailOpened {
                    email, at, cookie, ..
                } => {
                    let text = service
                        .mailbox(account)
                        .full_text(email)
                        .unwrap_or_default();
                    (NotificationKind::Opened { email, text }, at, cookie)
                }
                WebmailEvent::EmailStarred {
                    email, at, cookie, ..
                } => (NotificationKind::Starred { email }, at, cookie),
                WebmailEvent::EmailSent {
                    email,
                    at,
                    cookie,
                    recipients,
                    ..
                } => (NotificationKind::Sent { email, recipients }, at, cookie),
                WebmailEvent::DraftCreated {
                    email, at, cookie, ..
                } => {
                    let text = service
                        .mailbox(account)
                        .full_text(email)
                        .unwrap_or_default();
                    (NotificationKind::DraftCopy { email, text }, at, cookie)
                }
            };
            let seq = self.next_seq();
            collector.receive(Notification {
                account,
                at,
                seq,
                cookie: Some(cookie),
                kind,
            });
            if let Some(s) = state_mut(&mut self.scripts, account) {
                s.emitted += 1;
            }
            if self.charge(account, at) == QuotaStatus::Exceeded {
                self.deliver_quota_notice(account, at, service);
            }
        }
    }

    /// Emit daily heartbeats for every account whose script still runs.
    /// The heartbeat is itself a trigger and costs quota.
    pub fn heartbeat_tick(
        &mut self,
        at: SimTime,
        service: &mut WebmailService,
        collector: &mut NotificationCollector,
    ) {
        let mut beating = 0u64;
        for idx in 0..self.scripts.len() {
            let account = AccountId(idx as u32);
            if !self.is_alive(account) || !service.account(account).state.is_active() {
                continue;
            }
            // A misfired time-driven trigger simply never runs that day:
            // no heartbeat, no quota charge, nothing to retry (the
            // platform offers no redelivery for time triggers).
            if self.fault_plan.trigger_misfires(account.0, at.day_index()) {
                self.telemetry
                    .count_labeled("faults.injected", "trigger_misfire");
                continue;
            }
            beating += 1;
            let seq = self.next_seq();
            collector.receive(Notification {
                account,
                at,
                seq,
                cookie: None,
                kind: NotificationKind::Heartbeat,
            });
            // The heartbeat rides on the daily time-driven execution,
            // which also burns the polling budget.
            if self.charge_polling(account, at) == QuotaStatus::Exceeded {
                self.deliver_quota_notice(account, at, service);
            }
            let _ = self.charge(account, at);
            if let Some(s) = state_mut(&mut self.scripts, account) {
                s.emitted += 1;
            }
        }
        // One trace record per daily tick, not per account.
        self.telemetry
            .trace_with(at.as_secs(), "heartbeat", None, || {
                format!("accounts={beating}")
            });
    }

    /// Number of "too much computer time" notices delivered so far.
    pub fn quota_notices_sent(&self) -> u64 {
        self.quota_notices_sent
    }

    fn deliver_quota_notice(
        &mut self,
        account: AccountId,
        at: SimTime,
        service: &mut WebmailService,
    ) {
        let id = EmailId(self.next_quota_email_id);
        self.next_quota_email_id += 1;
        self.quota_notices_sent += 1;
        self.telemetry.count("monitor.quota_notices");
        // The platform emails the account owner directly; the notice lands
        // in the honey inbox where an attacker may open it (§4.4).
        service.deliver(
            account,
            Email {
                id,
                from: "apps-script-notifications@platform.example".into(),
                to: vec![service.account(account).address.clone()],
                subject: "Summary of failures for Apps Script".into(),
                body: "Your script is using too much computer time. \
                       Executions exceeded the daily quota for this account."
                    .into(),
                timestamp: MailTime::from_sim(at),
            },
        );
    }

    /// Accounts whose last heartbeat is older than `silence`, judged at
    /// `now` — the detection signal the researchers watched for blocked
    /// accounts.
    pub fn silent_accounts(
        &self,
        collector: &NotificationCollector,
        now: SimTime,
        silence: SimDuration,
    ) -> Vec<AccountId> {
        self.scripts
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .map(|(idx, _)| AccountId(idx as u32))
            .filter(|&a| match collector.last_heartbeat(a) {
                Some(t) => now.since(t) > silence,
                None => true,
            })
            .collect()
    }
}

/// The installed script for `account` in an id-indexed table.
fn state_mut(scripts: &mut [Option<ScriptState>], account: AccountId) -> Option<&mut ScriptState> {
    scripts.get_mut(account.0 as usize)?.as_mut()
}

#[derive(PartialEq, Eq)]
enum QuotaStatus {
    Ok,
    Exceeded,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwnd_net::access::ConnectionInfo;
    use pwnd_net::geo::GeoDb;
    use pwnd_net::geolocate::Geolocator;
    use pwnd_net::ip::AddressPlan;
    use pwnd_net::tor::TorDirectory;
    use pwnd_net::useragent::{Browser, ClientConfig, Os};
    use pwnd_sim::Rng;
    use pwnd_webmail::service::{ServiceConfig, SessionId};

    fn world() -> (WebmailService, ScriptRuntime, NotificationCollector, Rng) {
        let geo = GeoDb::new();
        let plan = AddressPlan::new(&geo);
        let mut rng = Rng::seed_from(5);
        let tor = TorDirectory::generate(50, &mut rng);
        let svc = WebmailService::new(ServiceConfig::default(), Geolocator::new(plan, geo, tor));
        (
            svc,
            ScriptRuntime::new(ScriptConfig::default()),
            NotificationCollector::new(),
            rng,
        )
    }

    fn honey(svc: &mut WebmailService, rt: &mut ScriptRuntime) -> AccountId {
        let id = svc
            .create_account(
                "h@honeymail.example",
                "pw",
                std::net::Ipv4Addr::new(198, 51, 0, 1),
                SimTime::ZERO,
            )
            .unwrap();
        svc.deliver(
            id,
            Email {
                id: EmailId(1),
                from: "p@x".into(),
                to: vec!["h@honeymail.example".into()],
                subject: "payment".into(),
                body: "account payment details".into(),
                timestamp: MailTime(-100),
            },
        );
        rt.install(id, ScriptLocation::HiddenSpreadsheet);
        id
    }

    fn attacker_session(svc: &mut WebmailService, rng: &mut Rng, at: SimTime) -> SessionId {
        let ip = svc.geolocator().plan().sample_host("RU", rng);
        let loc = svc.geolocator().locate(ip);
        let conn = ConnectionInfo::new(
            ip,
            ClientConfig::plain(Browser::Firefox, Os::Windows),
            loc.point,
        );
        svc.login("h@honeymail.example", "pw", &conn, at).unwrap().0
    }

    #[test]
    fn open_produces_notification_with_text() {
        let (mut svc, mut rt, mut col, mut rng) = world();
        let acct = honey(&mut svc, &mut rt);
        let s = attacker_session(&mut svc, &mut rng, SimTime::from_secs(10));
        svc.open_email(s, EmailId(1), SimTime::from_secs(20))
            .unwrap();
        let events = svc.drain_events();
        rt.process_events(&events, &mut svc, &mut col);
        let opened: Vec<_> = col
            .for_account(acct)
            .filter(|n| matches!(n.kind, NotificationKind::Opened { .. }))
            .collect();
        assert_eq!(opened.len(), 1);
        match &opened[0].kind {
            NotificationKind::Opened { text, .. } => assert!(text.contains("payment")),
            _ => unreachable!(),
        }
        assert!(opened[0].cookie.is_some());
    }

    #[test]
    fn deleted_script_goes_silent() {
        let (mut svc, mut rt, mut col, mut rng) = world();
        let acct = honey(&mut svc, &mut rt);
        assert!(rt.attacker_rummage(acct, 0.0)); // roll under p: found
        assert!(!rt.is_alive(acct));
        let s = attacker_session(&mut svc, &mut rng, SimTime::from_secs(10));
        svc.open_email(s, EmailId(1), SimTime::from_secs(20))
            .unwrap();
        let events = svc.drain_events();
        rt.process_events(&events, &mut svc, &mut col);
        assert_eq!(col.activity_count(), 0);
        // Deleting twice reports false.
        assert!(!rt.attacker_rummage(acct, 0.0));
    }

    #[test]
    fn hidden_script_usually_survives_rummage() {
        let (mut svc, mut rt, _, _) = world();
        let acct = honey(&mut svc, &mut rt);
        assert!(!rt.attacker_rummage(acct, 0.5)); // roll above p: missed
        assert!(rt.is_alive(acct));
    }

    #[test]
    fn heartbeats_fire_daily_and_stop_when_blocked() {
        let (mut svc, mut rt, mut col, _) = world();
        let acct = honey(&mut svc, &mut rt);
        rt.heartbeat_tick(SimTime::from_secs(100), &mut svc, &mut col);
        assert_eq!(col.last_heartbeat(acct), Some(SimTime::from_secs(100)));
        svc.admin_block(acct, SimTime::from_secs(200));
        rt.heartbeat_tick(SimTime::from_secs(300), &mut svc, &mut col);
        assert_eq!(col.last_heartbeat(acct), Some(SimTime::from_secs(100)));
        let silent = rt.silent_accounts(
            &col,
            SimTime::ZERO + SimDuration::days(2),
            SimDuration::days(1),
        );
        assert_eq!(silent, vec![acct]);
    }

    #[test]
    fn sparse_installs_beat_in_id_order() {
        let (mut svc, mut rt, mut col, _) = world();
        for i in 0..8u8 {
            svc.create_account(
                &format!("h{i}@honeymail.example"),
                "pw",
                std::net::Ipv4Addr::new(198, 51, 1, i),
                SimTime::ZERO,
            )
            .unwrap();
        }
        for id in [7u32, 2, 5, 0] {
            rt.install(AccountId(id), ScriptLocation::HiddenSpreadsheet);
        }
        for gap in [1u32, 3, 4, 6, 8, u32::MAX] {
            assert!(!rt.is_alive(AccountId(gap)), "{gap}");
            assert!(rt.state(AccountId(gap)).is_none(), "{gap}");
        }
        rt.heartbeat_tick(SimTime::from_secs(100), &mut svc, &mut col);
        let beats: Vec<(u32, u64)> = col.all().iter().map(|n| (n.account.0, n.seq)).collect();
        assert_eq!(beats, vec![(0, 0), (2, 1), (5, 2), (7, 3)]);

        // A blocked account and a deleted script stop beating, but both
        // stay among the accounts watched for silence.
        svc.admin_block(AccountId(5), SimTime::from_secs(200));
        assert!(rt.attacker_rummage(AccountId(2), 0.0));
        let day = SimTime::ZERO + SimDuration::days(1);
        rt.heartbeat_tick(day, &mut svc, &mut col);
        let beats: Vec<(u32, u64)> = col.all()[4..]
            .iter()
            .map(|n| (n.account.0, n.seq))
            .collect();
        assert_eq!(beats, vec![(0, 4), (7, 5)]);
        let silent = rt.silent_accounts(&col, day + SimDuration::hours(12), SimDuration::hours(18));
        assert_eq!(silent, vec![AccountId(2), AccountId(5)]);
    }

    #[test]
    fn quota_exhaustion_delivers_platform_notice() {
        let (mut svc, mut rt, mut col, mut rng) = world();
        let acct = honey(&mut svc, &mut rt);
        let s = attacker_session(&mut svc, &mut rng, SimTime::from_secs(10));
        // 90min/day at 45s per trigger = 120 triggers to exhaust.
        let before = svc.mailbox(acct).len();
        for i in 0..130u64 {
            svc.open_email(s, EmailId(1), SimTime::from_secs(20 + i))
                .unwrap();
            let events = svc.drain_events();
            rt.process_events(&events, &mut svc, &mut col);
        }
        let after = svc.mailbox(acct).len();
        assert_eq!(after, before + 1, "exactly one quota notice per day");
        let notice_id = svc
            .mailbox(acct)
            .list(pwnd_webmail::mailbox::Folder::Inbox)
            .into_iter()
            .find(|&id| {
                svc.mailbox(acct)
                    .full_text(id)
                    .unwrap()
                    .contains("Apps Script")
            })
            .unwrap();
        // An attacker can open the notice — and that open is itself
        // reported (the §4.4 case study).
        svc.open_email(s, notice_id, SimTime::from_secs(500))
            .unwrap();
        let events = svc.drain_events();
        rt.process_events(&events, &mut svc, &mut col);
        assert!(col.all().iter().any(|n| matches!(
            &n.kind,
            NotificationKind::Opened { text, .. } if text.contains("too much computer time")
        )));
    }

    #[test]
    fn quota_notices_respect_cooldown() {
        let (mut svc, mut rt, mut col, mut rng) = world();
        let acct = honey(&mut svc, &mut rt);
        let s = attacker_session(&mut svc, &mut rng, SimTime::from_secs(10));
        let exhaust = |svc: &mut WebmailService,
                       rt: &mut ScriptRuntime,
                       col: &mut NotificationCollector,
                       base: SimTime| {
            for i in 0..130u64 {
                svc.open_email(s, EmailId(1), base + SimDuration::from_secs(20 + i))
                    .unwrap();
                let ev = svc.drain_events();
                rt.process_events(&ev, svc, col);
            }
        };
        exhaust(&mut svc, &mut rt, &mut col, SimTime::ZERO);
        let day1 = svc.mailbox(acct).len();
        // Next day: quota resets, but the platform digest is throttled —
        // no second notice inside the cooldown window.
        exhaust(
            &mut svc,
            &mut rt,
            &mut col,
            SimTime::ZERO + SimDuration::days(1),
        );
        assert_eq!(svc.mailbox(acct).len(), day1);
        // After the cooldown (default 10 days) a new notice is delivered.
        exhaust(
            &mut svc,
            &mut rt,
            &mut col,
            SimTime::ZERO + SimDuration::days(11),
        );
        assert_eq!(svc.mailbox(acct).len(), day1 + 1);
    }
}
