//! The webmail service façade.
//!
//! [`WebmailService`] is the single entry point both populations use: the
//! researchers (account creation, corpus seeding, send-from overrides,
//! periodic activity-page scrapes) and the attackers (logins, searches,
//! opens, stars, drafts, sends, password changes). It owns every
//! subsystem — mailboxes, search query logs, activity pages, the risk
//! engine, the abuse detector, the sinkhole — and emits
//! [`WebmailEvent`]s that the monitoring crate turns into script
//! notifications.

use crate::account::{Account, AccountId, AccountState};
use crate::activity::{ActivityPage, ActivityRow};
use crate::events::WebmailEvent;
use crate::mailbox::{Body, Folder, Mailbox, Message, Subject};
use crate::mta::{Sinkhole, SinkholedMessage};
use crate::rules::{Rule, RuleAction, RuleSet};
use crate::search::{PieceMasks, QueryLogEntry};
use crate::security::{AbuseDetector, ContentFlags, LoginSignals, RiskEngine, SecurityPolicy};
use pwnd_corpus::email::{Email, EmailId, MailTime};
use pwnd_corpus::generator::SeededMail;
use pwnd_net::access::{ConnectionInfo, CookieId};
use pwnd_net::geo::{nearest_km, GeoPoint};
use pwnd_net::geolocate::Geolocator;
use pwnd_net::ip::AddressPlan;
use pwnd_net::useragent::{self, Fingerprint};
use pwnd_sim::intern::Interner;
use pwnd_sim::SimTime;
use pwnd_telemetry::TelemetrySink;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Login session handle.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SessionId(pub u64);

/// Why an account could not be created.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SignupError {
    /// Too many signups from this IP: the provider demands phone
    /// verification (§3.2: "Google also rate-limits the creation of new
    /// accounts from the same IP address by presenting a phone
    /// verification page").
    PhoneVerificationRequired,
    /// Address already registered.
    AddressTaken,
}

/// Why a login failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoginError {
    /// Wrong address or password (including post-hijack scraper logins).
    BadCredentials,
    /// The account is suspended.
    AccountBlocked,
    /// Rejected by the location-based login filter (only when the filter
    /// is enabled; never for the paper-configured honey accounts).
    SuspiciousLogin,
    /// The provider is in a maintenance window: nobody — attacker or
    /// monitoring scraper — can log in until it ends. Transient; callers
    /// with a retry budget should back off and try again.
    Maintenance,
}

/// Why a mailbox operation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpError {
    /// Unknown or stale session.
    InvalidSession,
    /// The account was blocked mid-session.
    AccountBlocked,
    /// No such message in this mailbox.
    NoSuchEmail,
}

/// Why a send failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendError {
    /// Session problem (see [`OpError`]).
    Op(OpError),
    /// No recipients given.
    NoRecipients,
}

/// Service-wide configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Security policy (login filter, abuse thresholds).
    pub security: SecurityPolicy,
    /// Rows kept on each visitor-activity page.
    pub activity_page_capacity: usize,
    /// Signups allowed per source IP before phone verification.
    pub signups_per_ip: u32,
    /// How many recent login locations count as "habitual".
    pub habitual_window: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            security: SecurityPolicy::default(),
            activity_page_capacity: crate::activity::DEFAULT_CAPACITY,
            signups_per_ip: 4,
            habitual_window: 10,
        }
    }
}

struct Session {
    account: AccountId,
    cookie: CookieId,
    via_tor: bool,
}

/// A quiet streak on one account. It opens when a full login from the
/// monitoring infrastructure leaves the account active, and closes at
/// the next full login, password change or block. While it is open, the
/// same device's repeat logins are queued, not applied (see
/// [`WebmailService::relogin`]).
struct Streak {
    cookie: CookieId,
    fingerprint: Fingerprint,
    /// Repeat logins queued since the streak opened or last settled.
    queued: u64,
    /// The account's ring slot the next queued login goes to.
    next: usize,
    /// How many more repeat logins the page takes before one would
    /// evict another device's row.
    room: u64,
}

/// Phrases that mark a sent message as extortion, in lowercase.
const EXTORTION_KEYWORDS: [&str; 4] = ["bitcoin", "ransom", "expose you", "payment or"];

/// The simulated webmail provider.
pub struct WebmailService {
    config: ServiceConfig,
    geolocator: Geolocator,
    accounts: Vec<Account>,
    mailboxes: Vec<Mailbox>,
    /// Provider-side search log per account.
    query_logs: Vec<Vec<QueryLogEntry>>,
    /// Every searched term's piece masks, kept for later searches.
    piece_masks: PieceMasks,
    /// Interned account addresses. Only account addresses are interned,
    /// in creation order, so a symbol's id is its account's id.
    addresses: Interner,
    rules: Vec<RuleSet>,
    activity: Vec<ActivityPage>,
    habitual: Vec<Vec<GeoPoint>>,
    /// Each account's open quiet streak, if any.
    streaks: Vec<Option<Streak>>,
    /// The `(time, address)` of the queued repeat logins: a ring of
    /// `activity_page_capacity` slots per account, all in one `Vec`.
    queued: Vec<(SimTime, Ipv4Addr)>,
    /// Live attacker sessions, ordered so that they allocate the same way
    /// on every run. The scraper reads its page through
    /// [`WebmailService::read_activity`] and never holds one.
    sessions: BTreeMap<SessionId, Session>,
    risk: RiskEngine,
    abuse: AbuseDetector,
    sinkhole: Sinkhole,
    events: Vec<WebmailEvent>,
    signup_counts: BTreeMap<Ipv4Addr, u32>,
    maintenance: Vec<(SimTime, SimTime)>,
    next_session: u64,
    next_cookie: u64,
    next_email_id: u64,
    /// Reused buffer for [`WebmailService::content_flags`]' folded text.
    scratch: String,
    telemetry: TelemetrySink,
}

impl WebmailService {
    /// Bring up the service.
    pub fn new(config: ServiceConfig, geolocator: Geolocator) -> WebmailService {
        let risk = RiskEngine::new(config.security.clone());
        let abuse = AbuseDetector::new(config.security.clone());
        WebmailService {
            config,
            geolocator,
            accounts: Vec::new(),
            mailboxes: Vec::new(),
            query_logs: Vec::new(),
            piece_masks: PieceMasks::default(),
            addresses: Interner::new(),
            rules: Vec::new(),
            activity: Vec::new(),
            habitual: Vec::new(),
            streaks: Vec::new(),
            queued: Vec::new(),
            sessions: BTreeMap::new(),
            risk,
            abuse,
            sinkhole: Sinkhole::new(),
            events: Vec::new(),
            signup_counts: BTreeMap::new(),
            maintenance: Vec::new(),
            next_session: 1,
            next_cookie: 1,
            // High base so attacker-composed mail never collides with
            // corpus-generated ids.
            next_email_id: 10_000_000,
            scratch: String::new(),
            telemetry: TelemetrySink::disabled(),
        }
    }

    /// Attach a telemetry sink, shared with the risk engine and abuse
    /// detector. Login outcomes, mailbox operations, hijacks, and blocks
    /// feed `webmail.*` counters and the trace.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.risk.set_telemetry(sink.clone());
        self.abuse.set_telemetry(sink.clone());
        self.telemetry = sink;
    }

    /// Schedule provider maintenance windows (`[start, end)` spans).
    /// Logins inside a window fail with [`LoginError::Maintenance`]. The
    /// fault layer injects these; an empty list (the default) restores
    /// the always-up provider.
    pub fn set_maintenance(&mut self, windows: Vec<(SimTime, SimTime)>) {
        self.maintenance = windows;
    }

    // ------------------------------------------------------------------
    // Researcher-facing API (account setup)
    // ------------------------------------------------------------------

    /// Create an account. Rate-limited per source IP.
    pub fn create_account(
        &mut self,
        address: &str,
        password: &str,
        from_ip: Ipv4Addr,
        at: SimTime,
    ) -> Result<AccountId, SignupError> {
        if self.addresses.lookup(address).is_some() {
            return Err(SignupError::AddressTaken);
        }
        let count = self.signup_counts.entry(from_ip).or_insert(0);
        if *count >= self.config.signups_per_ip {
            return Err(SignupError::PhoneVerificationRequired);
        }
        *count += 1;
        let id = AccountId(self.accounts.len() as u32);
        self.accounts.push(Account {
            id,
            address: address.to_string(),
            password: password.to_string(),
            original_password: password.to_string(),
            state: AccountState::Active,
            created_at: at,
            send_from_override: None,
            password_changes: 0,
            last_password_change: None,
        });
        let sym = self.addresses.intern(address);
        debug_assert_eq!(sym.id(), id.0, "address symbols are account ids");
        self.mailboxes.push(Mailbox::new());
        self.query_logs.push(Vec::new());
        self.rules.push(RuleSet::new());
        self.activity.push(ActivityPage::with_capacity(
            self.config.activity_page_capacity,
        ));
        self.habitual.push(Vec::new());
        self.streaks.push(None);
        let slots = self.queued.len() + self.config.activity_page_capacity;
        self.queued
            .resize(slots, (SimTime::ZERO, Ipv4Addr::UNSPECIFIED));
        Ok(id)
    }

    /// Complete phone verification for `ip`, resetting its signup counter
    /// (the manual step the researchers performed when rate-limited).
    pub fn complete_phone_verification(&mut self, ip: Ipv4Addr) {
        self.signup_counts.insert(ip, 0);
    }

    /// Seed a mailbox with a generated batch (researcher setup step).
    /// Each message runs through the account's automation rules, exactly
    /// as a real incoming message would (§2: rules "automatically process
    /// received emails").
    pub fn seed_mailbox(&mut self, account: AccountId, mail: SeededMail) {
        let idx = account.0 as usize;
        let ids: Vec<EmailId> = if self.rules[idx].is_empty() {
            Vec::new()
        } else {
            mail.emails.iter().map(|e| e.id).collect()
        };
        self.mailboxes[idx].seed(mail);
        for id in ids {
            self.apply_rules(idx, id);
        }
    }

    /// Deliver one message into an account's Inbox, through its
    /// automation rules.
    pub fn deliver(&mut self, account: AccountId, email: Email) {
        let idx = account.0 as usize;
        self.mailboxes[idx].deliver(&email);
        self.apply_rules(idx, email.id);
    }

    /// Run the account's rules over one message, in rule order. A
    /// seeded subject and body are rendered for them into a scratch
    /// buffer.
    fn apply_rules(&mut self, idx: usize, id: EmailId) {
        let mailbox = &mut self.mailboxes[idx];
        let Some(m) = mailbox.message(id) else {
            return;
        };
        let mut scratch = String::new();
        let (subject, body) = match (m.subject, m.body) {
            (Subject::Text(subject), Body::Text(body)) => (subject, body),
            (subject, body) => {
                subject.write_text(&mut scratch);
                let middle = scratch.len();
                body.write_text(&mut scratch);
                (&scratch[..middle], &scratch[middle..])
            }
        };
        for action in self.rules[idx].actions_for(m.from, subject, body) {
            match action {
                RuleAction::ApplyLabel(label) => {
                    mailbox.label(id, label);
                }
                RuleAction::MarkRead => {
                    mailbox.mark_read(id);
                }
                RuleAction::Star => {
                    mailbox.star(id);
                }
            }
        }
    }

    /// Install an automation rule on an account (owner-level setup; the
    /// researchers add a few so the mailbox looks lived-in).
    pub fn add_rule(&mut self, account: AccountId, rule: Rule) {
        self.rules[account.0 as usize].add(rule);
    }

    /// Number of automation rules installed on an account.
    pub fn rule_count(&self, account: AccountId) -> usize {
        self.rules[account.0 as usize].len()
    }

    /// Point the account's send-from at the sinkhole.
    pub fn set_send_from_override(&mut self, account: AccountId, address: &str) {
        self.accounts[account.0 as usize].send_from_override = Some(address.to_string());
    }

    // ------------------------------------------------------------------
    // Authentication
    // ------------------------------------------------------------------

    /// Attempt a login. On success returns a session plus the cookie that
    /// now identifies this device (reused if the device presented one).
    pub fn login(
        &mut self,
        address: &str,
        password: &str,
        conn: &ConnectionInfo,
        at: SimTime,
    ) -> Result<(SessionId, CookieId), LoginError> {
        let account = self
            .addresses
            .lookup(address)
            .map(|sym| AccountId(sym.id()));
        let (account, cookie, via_tor) = self.authenticate(account, password, conn, at)?;
        let session = SessionId(self.next_session);
        self.next_session += 1;
        self.sessions.insert(
            session,
            Session {
                account,
                cookie,
                via_tor,
            },
        );
        Ok((session, cookie))
    }

    /// Log in to `account` by id and read its visitor-activity page, the
    /// researchers' scrape. It is the same login as [`WebmailService::login`]:
    /// it is recorded on the page and feeds the abuse detector. But it
    /// opens no session. An id with no account fails with
    /// [`LoginError::BadCredentials`], as an unknown address does.
    ///
    /// Returns the cookie that identifies the device, and the page unless
    /// this very login tripped the abuse detector and blocked the account.
    pub fn read_activity(
        &mut self,
        account: AccountId,
        password: &str,
        conn: &ConnectionInfo,
        at: SimTime,
    ) -> Result<(CookieId, Option<&ActivityPage>), LoginError> {
        let (account, cookie, _) = self.authenticate(Some(account), password, conn, at)?;
        // Every login draws a session id, so attackers' sessions are
        // numbered the same whether or not the scraper holds sessions.
        self.next_session += 1;
        let idx = account.0 as usize;
        let page = self.accounts[idx]
            .state
            .is_active()
            .then(|| &self.activity[idx]);
        Ok((cookie, page))
    }

    /// The monitor's repeat login on `account` while its quiet streak is
    /// open: the streak's device (its `cookie`, and the client it logged
    /// in with) back from an infrastructure address with the right
    /// password, outside any maintenance window, with room on the page
    /// (its row would push no other device's row off). Nothing has read
    /// or changed the account since the streak opened, so the login
    /// scores 0 (a known device at a habitual location), moves no risk or
    /// abuse state, and leaves the other devices' rows as they were. It
    /// draws a session id and, with a live sink, counts and traces as an
    /// `ok` login, as [`WebmailService::read_activity`] would. Its page
    /// row and habitual point are queued, and the service applies them
    /// before anything reads or changes the account.
    ///
    /// Returns `false`, having changed nothing, when the login does not
    /// qualify; the caller then logs in with `read_activity`.
    pub fn relogin(
        &mut self,
        account: AccountId,
        password: &str,
        cookie: CookieId,
        ip: Ipv4Addr,
        at: SimTime,
    ) -> bool {
        if !AddressPlan::is_infra(ip) || self.in_maintenance(at) {
            return false;
        }
        let idx = account.0 as usize;
        let Some(streak) = self
            .streaks
            .get_mut(idx)
            .and_then(Option::as_mut)
            .filter(|streak| streak.cookie == cookie && streak.room > 0)
        else {
            return false;
        };
        if self.accounts[idx].password != password {
            return false;
        }
        let capacity = self.config.activity_page_capacity;
        self.queued[idx * capacity + streak.next] = (at, ip);
        streak.next = if streak.next + 1 == capacity {
            0
        } else {
            streak.next + 1
        };
        streak.queued += 1;
        streak.room -= 1;
        self.next_session += 1;
        // A disabled sink would ignore these calls; skipping them keeps
        // an untraced run's queued login a ring push.
        if self.telemetry.is_enabled() {
            let score = self.risk.score(LoginSignals {
                via_tor: false,
                distance_from_habitual_km: Some(0.0),
                new_device: false,
            });
            self.note_login_ok(account, score, at);
        }
        true
    }

    /// Apply the repeat logins queued on the account at `idx`, leaving
    /// the state they would have left one by one. The page records the
    /// last `capacity` of them, and only counts the rest (they were
    /// evicted unseen). The habitual window takes one infrastructure
    /// point per login, up to its size.
    fn settle(&mut self, idx: usize) {
        let Some(streak) = self.streaks[idx].as_mut() else {
            return;
        };
        let queued = std::mem::take(&mut streak.queued);
        if queued == 0 {
            return;
        }
        let capacity = self.config.activity_page_capacity;
        let infra = self.geolocator.infra();
        let page = &mut self.activity[idx];
        let shown = queued.min(capacity as u64);
        page.record_evicted(queued - shown);
        let ring = &self.queued[idx * capacity..][..capacity];
        let oldest = (streak.next + capacity - shown as usize) % capacity;
        for n in 0..shown as usize {
            let (at, ip) = ring[(oldest + n) % capacity];
            page.record(ActivityRow {
                cookie: streak.cookie,
                at,
                ip,
                location: infra,
                fingerprint: streak.fingerprint,
            });
        }
        let window = self.config.habitual_window;
        let pushed = queued.min(window as u64) as usize;
        let hab = &mut self.habitual[idx];
        hab.drain(..hab.len().saturating_sub(window - pushed));
        hab.extend(std::iter::repeat_n(infra.point, pushed));
    }

    /// Settle the account's queued logins and close its streak.
    fn close_streak(&mut self, idx: usize) {
        self.settle(idx);
        self.streaks[idx] = None;
    }

    fn in_maintenance(&self, at: SimTime) -> bool {
        self.maintenance.iter().any(|&(s, e)| s <= at && at < e)
    }

    /// Count and trace a successful login that scored `score`.
    fn note_login_ok(&self, account: AccountId, score: f64, at: SimTime) {
        self.telemetry.count_labeled("webmail.logins", "ok");
        self.telemetry
            .trace_with(at.as_secs(), "login", Some(account.0), || {
                format!("ok risk={score:.2}")
            });
    }

    /// The login both populations share, on an already resolved account
    /// (`None`, or an id with no account, when the address is unknown).
    /// Settles the account's queued logins and closes its streak, then
    /// checks maintenance, credentials, account state and risk, and
    /// records the access. A login from the infrastructure that leaves
    /// the account active opens a new streak. Returns the account, the
    /// device's cookie, and whether the login came through Tor.
    fn authenticate(
        &mut self,
        account: Option<AccountId>,
        password: &str,
        conn: &ConnectionInfo,
        at: SimTime,
    ) -> Result<(AccountId, CookieId, bool), LoginError> {
        let account = account.filter(|id| (id.0 as usize) < self.accounts.len());
        if let Some(id) = account {
            self.close_streak(id.0 as usize);
        }
        // Maintenance is checked before credentials: a provider that is
        // down reveals nothing about the account and records nothing on
        // the activity page.
        if self.in_maintenance(at) {
            self.telemetry
                .count_labeled("webmail.logins", "maintenance");
            self.telemetry
                .count_labeled("faults.injected", "maintenance");
            return Err(LoginError::Maintenance);
        }
        let Some(id) = account else {
            self.telemetry
                .count_labeled("webmail.logins", "bad_credentials");
            self.telemetry.trace(at.as_secs(), "login", None);
            return Err(LoginError::BadCredentials);
        };
        let idx = id.0 as usize;
        if self.accounts[idx].password != password {
            self.telemetry
                .count_labeled("webmail.logins", "bad_credentials");
            self.telemetry
                .trace_with(at.as_secs(), "login", Some(id.0), || {
                    "bad_credentials".to_string()
                });
            return Err(LoginError::BadCredentials);
        }
        if !self.accounts[idx].state.is_active() {
            self.telemetry.count_labeled("webmail.logins", "blocked");
            self.telemetry
                .trace_with(at.as_secs(), "login", Some(id.0), || "blocked".to_string());
            return Err(LoginError::AccountBlocked);
        }

        let via_tor = self.geolocator.is_tor_exit(conn.ip);
        let loc = self.geolocator.locate(conn.ip);
        let distance = nearest_km(&self.habitual[idx], loc.point);
        let signals = LoginSignals {
            via_tor,
            distance_from_habitual_km: distance,
            new_device: conn.cookie.is_none(),
        };
        // Scored exactly once per attempt (the score call also feeds the
        // risk histogram when telemetry is live).
        let score = self.risk.score(signals);
        if self.config.security.login_filter_enabled
            && score >= self.config.security.login_reject_threshold
        {
            self.telemetry.count_labeled("webmail.logins", "rejected");
            self.telemetry
                .trace_with(at.as_secs(), "login", Some(id.0), || {
                    format!("rejected risk={score:.2}")
                });
            return Err(LoginError::SuspiciousLogin);
        }

        let cookie = match conn.cookie {
            Some(c) => c,
            None => {
                let c = CookieId(self.next_cookie);
                self.next_cookie += 1;
                c
            }
        };

        // Record on the activity page.
        let fingerprint = useragent::fingerprint(&conn.client);
        self.activity[idx].record(ActivityRow {
            cookie,
            at,
            ip: conn.ip,
            location: loc,
            fingerprint,
        });
        // Update habitual locations (bounded window).
        let hab = &mut self.habitual[idx];
        hab.push(loc.point);
        let window = self.config.habitual_window;
        if hab.len() > window {
            let excess = hab.len() - window;
            hab.drain(..excess);
        }

        self.note_login_ok(id, score, at);
        // Even allowed logins feed the abuse detector's trickle.
        if self.abuse.note_login_risk(id, score) {
            self.block_account(id, at);
        }
        // The infrastructure is a habitual location from here on, so this
        // device's repeat logins from it score 0 until something else
        // touches the account. They may fill the page until the next one
        // would evict the oldest row of another device.
        if AddressPlan::is_infra(conn.ip) && self.accounts[idx].state.is_active() {
            let page = &self.activity[idx];
            let free = self.config.activity_page_capacity - page.len();
            let room = page
                .rows()
                .position(|row| row.cookie != cookie)
                .map_or(u64::MAX, |oldest| (free + oldest) as u64);
            self.streaks[idx] = Some(Streak {
                cookie,
                fingerprint,
                queued: 0,
                next: 0,
                room,
            });
        }
        Ok((id, cookie, via_tor))
    }

    /// End a session. Later operations on it fail with
    /// [`OpError::InvalidSession`]; ending an unknown session does nothing.
    pub fn logout(&mut self, session: SessionId) {
        self.sessions.remove(&session);
    }

    fn session(&self, session: SessionId) -> Result<(AccountId, CookieId, bool), OpError> {
        let s = self.sessions.get(&session).ok_or(OpError::InvalidSession)?;
        if !self.accounts[s.account.0 as usize].state.is_active() {
            return Err(OpError::AccountBlocked);
        }
        Ok((s.account, s.cookie, s.via_tor))
    }

    // ------------------------------------------------------------------
    // Mailbox operations (attacker- and monitor-facing)
    // ------------------------------------------------------------------

    /// List message ids in a folder, newest first.
    pub fn list_folder(&self, session: SessionId, folder: Folder) -> Result<Vec<EmailId>, OpError> {
        let (account, _, _) = self.session(session)?;
        Ok(self.mailboxes[account.0 as usize].list(folder))
    }

    /// Open (read) a message: marks it read. Emits
    /// [`WebmailEvent::EmailOpened`].
    pub fn open_email(
        &mut self,
        session: SessionId,
        id: EmailId,
        at: SimTime,
    ) -> Result<(), OpError> {
        let (account, cookie, _) = self.session(session)?;
        if !self.mailboxes[account.0 as usize].mark_read(id) {
            return Err(OpError::NoSuchEmail);
        }
        self.events.push(WebmailEvent::EmailOpened {
            account,
            email: id,
            cookie,
            at,
        });
        self.telemetry.count("webmail.opens");
        Ok(())
    }

    /// Star a message. Emits [`WebmailEvent::EmailStarred`].
    pub fn star_email(
        &mut self,
        session: SessionId,
        id: EmailId,
        at: SimTime,
    ) -> Result<(), OpError> {
        let (account, cookie, _) = self.session(session)?;
        if !self.mailboxes[account.0 as usize].star(id) {
            return Err(OpError::NoSuchEmail);
        }
        self.events.push(WebmailEvent::EmailStarred {
            account,
            email: id,
            cookie,
            at,
        });
        self.telemetry.count("webmail.stars");
        Ok(())
    }

    /// Search the mailbox's mail outside Sent: seeded and delivered mail
    /// and drafts (see [`crate::search::search`]). The query is logged
    /// provider-side only.
    pub fn search(
        &mut self,
        session: SessionId,
        query: &str,
        at: SimTime,
    ) -> Result<Vec<EmailId>, OpError> {
        let (account, _, _) = self.session(session)?;
        self.telemetry.count("webmail.searches");
        let idx = account.0 as usize;
        let hits = self.piece_masks.search(&self.mailboxes[idx], query);
        self.query_logs[idx].push(QueryLogEntry {
            at,
            query: query.to_string(),
            hits: hits.len(),
        });
        Ok(hits)
    }

    fn fresh_email_id(&mut self) -> EmailId {
        let id = EmailId(self.next_email_id);
        self.next_email_id += 1;
        id
    }

    /// Create a draft. Emits [`WebmailEvent::DraftCreated`].
    pub fn create_draft(
        &mut self,
        session: SessionId,
        to: &[String],
        subject: &str,
        body: &str,
        at: SimTime,
    ) -> Result<EmailId, OpError> {
        let (account, cookie, _) = self.session(session)?;
        let idx = account.0 as usize;
        let id = self.fresh_email_id();
        let draft = Message {
            timestamp: MailTime::from_sim(at),
            from: &self.accounts[idx].address,
            to,
            subject: Subject::Text(subject),
            body: Body::Text(body),
            folder: Folder::Drafts,
        };
        self.mailboxes[idx].file(id, draft);
        self.events.push(WebmailEvent::DraftCreated {
            account,
            email: id,
            cookie,
            at,
        });
        self.telemetry.count("webmail.drafts");
        Ok(id)
    }

    /// Flag a message's content. The subject and body are joined by a
    /// space, since a keyword may span the seam, and folded to ASCII
    /// lowercase in `scratch`. That flags exactly what a Unicode fold
    /// would: the one non-ASCII character that lowercases to a keyword
    /// letter, `İ`, becomes `i` plus U+0307, so it could only end a
    /// match, and no keyword ends in `i`.
    fn content_flags(
        scratch: &mut String,
        subject: &str,
        body: &str,
        recipients: usize,
    ) -> ContentFlags {
        scratch.clear();
        scratch.push_str(subject);
        scratch.push(' ');
        scratch.push_str(body);
        scratch.make_ascii_lowercase();
        let extortion = EXTORTION_KEYWORDS.iter().any(|kw| scratch.contains(kw));
        ContentFlags {
            extortion,
            bulk_recipients: recipients > 5,
        }
    }

    /// Compose and send a message: it is filed in Sent and, from an
    /// account with the send-from override, logged by the sinkhole.
    /// Emits [`WebmailEvent::EmailSent`]; may trigger an abuse block.
    pub fn send_email(
        &mut self,
        session: SessionId,
        to: &[String],
        subject: &str,
        body: &str,
        at: SimTime,
    ) -> Result<EmailId, SendError> {
        if to.is_empty() {
            return Err(SendError::NoRecipients);
        }
        let (account, cookie, _) = self.session(session).map_err(SendError::Op)?;
        let idx = account.0 as usize;
        let id = self.fresh_email_id();
        let sent = Message {
            timestamp: MailTime::from_sim(at),
            from: &self.accounts[idx].address,
            to,
            subject: Subject::Text(subject),
            body: Body::Text(body),
            folder: Folder::Sent,
        };
        self.mailboxes[idx].file(id, sent);
        if self.accounts[idx].send_from_override.is_some() {
            self.sinkhole.capture(SinkholedMessage {
                from_account: account,
                at,
                email: id,
            });
        }
        let recipients = to.len();
        self.events.push(WebmailEvent::EmailSent {
            account,
            email: id,
            cookie,
            at,
            recipients,
        });
        self.telemetry.count("webmail.sends");
        let flags = Self::content_flags(&mut self.scratch, subject, body, recipients);
        if self.abuse.note_send(account, at, recipients, flags) {
            self.block_account(account, at);
        }
        Ok(id)
    }

    /// Change the account password (hijack when done by an attacker).
    /// Existing sessions stay alive — matching Gmail at the time — but new
    /// logins need the new password, which is what kills the scraper.
    pub fn change_password(
        &mut self,
        session: SessionId,
        new_password: &str,
        at: SimTime,
    ) -> Result<(), OpError> {
        let (account, _, via_tor) = self.session(session)?;
        self.close_streak(account.0 as usize);
        let acct = &mut self.accounts[account.0 as usize];
        acct.password = new_password.to_string();
        acct.password_changes += 1;
        acct.last_password_change = Some(at);
        self.telemetry.count("webmail.hijacks");
        self.telemetry
            .trace_with(at.as_secs(), "hijack", Some(account.0), || {
                format!("password change via_tor={via_tor}")
            });
        if self.abuse.note_password_change(account, via_tor) {
            self.block_account(account, at);
        }
        Ok(())
    }

    /// The visitor-activity page, with any queued logins applied.
    pub fn activity_page(&mut self, session: SessionId) -> Result<&ActivityPage, OpError> {
        let (account, _, _) = self.session(session)?;
        let idx = account.0 as usize;
        self.settle(idx);
        Ok(&self.activity[idx])
    }

    // ------------------------------------------------------------------
    // Administrative / ground truth
    // ------------------------------------------------------------------

    fn block_account(&mut self, account: AccountId, at: SimTime) {
        let idx = account.0 as usize;
        if self.accounts[idx].state.is_active() {
            self.close_streak(idx);
            self.accounts[idx].state = AccountState::Blocked { at };
            self.telemetry.count("webmail.blocks");
            self.telemetry.trace(at.as_secs(), "block", Some(account.0));
        }
    }

    /// Force-block an account (used by the experiment's "report to Google"
    /// path and by tests).
    pub fn admin_block(&mut self, account: AccountId, at: SimTime) {
        self.block_account(account, at);
    }

    /// Account record (ground truth).
    pub fn account(&self, id: AccountId) -> &Account {
        &self.accounts[id.0 as usize]
    }

    /// Mailbox (ground truth; the monitor goes through sessions instead).
    pub fn mailbox(&self, id: AccountId) -> &Mailbox {
        &self.mailboxes[id.0 as usize]
    }

    /// Provider-side search log (ground truth; *not* monitor-visible).
    pub fn query_log(&self, id: AccountId) -> &[QueryLogEntry] {
        &self.query_logs[id.0 as usize]
    }

    /// The sinkhole store.
    pub fn sinkhole(&self) -> &Sinkhole {
        &self.sinkhole
    }

    /// The geolocator (shared with analyses).
    pub fn geolocator(&self) -> &Geolocator {
        &self.geolocator
    }

    /// The abuse detector's combined score for an account (ground truth;
    /// 0 for an account it has never scored).
    pub fn abuse_score(&self, id: AccountId) -> f64 {
        self.abuse.score_of(id)
    }

    /// Lifetime access count on an account's activity page, queued
    /// logins included (ground truth).
    pub fn total_accesses_recorded(&self, id: AccountId) -> u64 {
        let idx = id.0 as usize;
        let queued = self.streaks[idx].as_ref().map_or(0, |streak| streak.queued);
        self.activity[idx].total_recorded() + queued
    }

    /// Drain all pending events (the monitor runtime consumes these).
    pub fn drain_events(&mut self) -> Vec<WebmailEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use pwnd_corpus::generator::{SeededBodies, SeededEmail, SubjectCodes};
    use pwnd_net::geo::GeoDb;
    use pwnd_net::ip::AddressPlan;
    use pwnd_net::tor::TorDirectory;
    use pwnd_net::useragent::{Browser, ClientConfig, Os};
    use pwnd_sim::Rng;

    fn service_with(config: ServiceConfig) -> (WebmailService, Rng) {
        let geo = GeoDb::new();
        let plan = AddressPlan::new(&geo);
        let mut rng = Rng::seed_from(11);
        let tor = TorDirectory::generate(100, &mut rng);
        (
            WebmailService::new(config, Geolocator::new(plan, geo, tor)),
            rng,
        )
    }

    fn service() -> (WebmailService, Rng) {
        service_with(ServiceConfig::default())
    }

    fn conn(svc: &WebmailService, rng: &mut Rng, country: &str) -> ConnectionInfo {
        let ip = svc.geolocator().plan().sample_host(country, rng);
        let loc = svc.geolocator().locate(ip);
        ConnectionInfo::new(
            ip,
            ClientConfig::plain(Browser::Chrome, Os::Windows),
            loc.point,
        )
    }

    fn seeded_email(id: u64, body: &str) -> Email {
        Email {
            id: EmailId(id),
            from: "peer@meridianpower.example".into(),
            to: vec!["honey@honeymail.example".into()],
            subject: format!("mail {id}"),
            body: body.into(),
            timestamp: MailTime(-1000 - id as i64),
        }
    }

    fn setup_account(svc: &mut WebmailService) -> AccountId {
        let id = svc
            .create_account(
                "honey@honeymail.example",
                "pw123456",
                Ipv4Addr::new(198, 51, 0, 1),
                SimTime::ZERO,
            )
            .unwrap();
        svc.deliver(id, seeded_email(1, "quarterly energy transfer report"));
        svc.deliver(id, seeded_email(2, "the payment account details are below"));
        svc.set_send_from_override(id, "sinkhole@monitor.example");
        id
    }

    #[test]
    fn signup_rate_limit_and_verification() {
        let (mut svc, _) = service();
        let ip = Ipv4Addr::new(198, 51, 0, 9);
        for i in 0..4 {
            assert!(svc
                .create_account(&format!("a{i}@honeymail.example"), "pw", ip, SimTime::ZERO)
                .is_ok());
        }
        assert_eq!(
            svc.create_account("a4@honeymail.example", "pw", ip, SimTime::ZERO),
            Err(SignupError::PhoneVerificationRequired)
        );
        svc.complete_phone_verification(ip);
        assert!(svc
            .create_account("a4@honeymail.example", "pw", ip, SimTime::ZERO)
            .is_ok());
        assert_eq!(
            svc.create_account(
                "a0@honeymail.example",
                "pw",
                Ipv4Addr::new(1, 1, 1, 1),
                SimTime::ZERO
            ),
            Err(SignupError::AddressTaken)
        );
    }

    #[test]
    fn login_open_search_star_flow() {
        let (mut svc, mut rng) = service();
        let id = setup_account(&mut svc);
        let c = conn(&svc, &mut rng, "GB");
        let (session, cookie) = svc
            .login(
                "honey@honeymail.example",
                "pw123456",
                &c,
                SimTime::from_secs(60),
            )
            .unwrap();
        assert!(cookie.0 > 0);

        let inbox = svc.list_folder(session, Folder::Inbox).unwrap();
        assert_eq!(inbox.len(), 2);

        let hits = svc
            .search(session, "payment", SimTime::from_secs(70))
            .unwrap();
        assert_eq!(hits, vec![EmailId(2)]);
        svc.open_email(session, hits[0], SimTime::from_secs(80))
            .unwrap();
        let opened = svc.mailbox(id).full_text(hits[0]).unwrap();
        assert!(opened.contains("payment"));
        assert!(svc.mailbox(id).get(hits[0]).unwrap().read);
        svc.star_email(session, hits[0], SimTime::from_secs(85))
            .unwrap();

        let events = svc.drain_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, WebmailEvent::EmailOpened { email, .. } if *email == EmailId(2))));
        assert!(events
            .iter()
            .any(|e| matches!(e, WebmailEvent::EmailStarred { .. })));
        // Search queries never appear in the event stream (monitor can't
        // see them) but they are in the provider log.
        assert_eq!(svc.query_log(id).len(), 1);
    }

    #[test]
    fn wrong_password_rejected() {
        let (mut svc, mut rng) = service();
        setup_account(&mut svc);
        let c = conn(&svc, &mut rng, "GB");
        assert_eq!(
            svc.login("honey@honeymail.example", "nope", &c, SimTime::ZERO),
            Err(LoginError::BadCredentials)
        );
        assert_eq!(
            svc.login("ghost@honeymail.example", "pw", &c, SimTime::ZERO),
            Err(LoginError::BadCredentials)
        );
    }

    #[test]
    fn cookie_reuse_identifies_device() {
        let (mut svc, mut rng) = service();
        setup_account(&mut svc);
        let c = conn(&svc, &mut rng, "GB");
        let (_, cookie1) = svc
            .login(
                "honey@honeymail.example",
                "pw123456",
                &c,
                SimTime::from_secs(1),
            )
            .unwrap();
        let c2 = c.clone().with_cookie(cookie1);
        let (_, cookie2) = svc
            .login(
                "honey@honeymail.example",
                "pw123456",
                &c2,
                SimTime::from_secs(100),
            )
            .unwrap();
        assert_eq!(cookie1, cookie2);
        let c3 = conn(&svc, &mut rng, "GB");
        let (_, cookie3) = svc
            .login(
                "honey@honeymail.example",
                "pw123456",
                &c3,
                SimTime::from_secs(200),
            )
            .unwrap();
        assert_ne!(cookie1, cookie3);
    }

    #[test]
    fn sends_are_sinkholed_and_hijack_kills_scraper_login() {
        let (mut svc, mut rng) = service();
        let id = setup_account(&mut svc);
        let c = conn(&svc, &mut rng, "RU");
        let (session, _) = svc
            .login(
                "honey@honeymail.example",
                "pw123456",
                &c,
                SimTime::from_secs(10),
            )
            .unwrap();
        svc.send_email(
            session,
            &["victim@other.example".into()],
            "hello",
            "legit message",
            SimTime::from_secs(20),
        )
        .unwrap();
        assert_eq!(svc.sinkhole().len(), 1);

        svc.change_password(session, "attacker-pw", SimTime::from_secs(30))
            .unwrap();
        assert!(svc.account(id).is_hijacked());
        // Scraper tries the original password: locked out.
        let scraper = conn(&svc, &mut rng, "GB");
        assert_eq!(
            svc.login(
                "honey@honeymail.example",
                "pw123456",
                &scraper,
                SimTime::from_secs(40)
            ),
            Err(LoginError::BadCredentials)
        );
        // Attacker's new password works.
        assert!(svc
            .login(
                "honey@honeymail.example",
                "attacker-pw",
                &scraper,
                SimTime::from_secs(50)
            )
            .is_ok());
    }

    #[test]
    fn spam_burst_blocks_account_and_sessions() {
        let (mut svc, mut rng) = service();
        let id = setup_account(&mut svc);
        let c = conn(&svc, &mut rng, "US");
        let (session, _) = svc
            .login(
                "honey@honeymail.example",
                "pw123456",
                &c,
                SimTime::from_secs(10),
            )
            .unwrap();
        let mut blocked = false;
        for i in 0..200 {
            let at = SimTime::from_secs(20 + i * 10);
            match svc.send_email(
                session,
                &[format!("v{i}@spamtarget.example")],
                "ca$h now",
                "click here",
                at,
            ) {
                Ok(_) => {}
                Err(SendError::Op(OpError::AccountBlocked)) => {
                    blocked = true;
                    break;
                }
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(blocked, "burst spam must block the account");
        assert!(!svc.account(id).state.is_active());
        let c2 = conn(&svc, &mut rng, "US");
        assert_eq!(
            svc.login(
                "honey@honeymail.example",
                "pw123456",
                &c2,
                SimTime::from_secs(9_999)
            ),
            Err(LoginError::AccountBlocked)
        );
    }

    #[test]
    fn activity_page_records_fingerprint_and_location() {
        let (mut svc, mut rng) = service();
        setup_account(&mut svc);
        let ip = svc.geolocator().plan().sample_host("FR", &mut rng);
        let loc = svc.geolocator().locate(ip);
        let c = ConnectionInfo::new(
            ip,
            ClientConfig::stealth(Browser::Firefox, Os::Linux),
            loc.point,
        );
        let (session, cookie) = svc
            .login(
                "honey@honeymail.example",
                "pw123456",
                &c,
                SimTime::from_secs(5),
            )
            .unwrap();
        let rows: Vec<&ActivityRow> = svc.activity_page(session).unwrap().rows().collect();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].cookie, cookie);
        assert_eq!(rows[0].location.country, Some("FR"));
        assert_eq!(rows[0].fingerprint.browser, Browser::Unknown);
        assert_eq!(rows[0].fingerprint.os, Os::Linux);
    }

    #[test]
    fn enabled_login_filter_blocks_tor() {
        let config = ServiceConfig {
            security: SecurityPolicy {
                login_filter_enabled: true,
                ..SecurityPolicy::default()
            },
            ..ServiceConfig::default()
        };
        let (mut svc, mut rng) = service_with(config);
        setup_account(&mut svc);
        let tor_ip = {
            let t = svc.geolocator().tor();
            let mut r = rng.fork(1);
            t.sample_exit(&mut r)
        };
        let loc = svc.geolocator().locate(tor_ip);
        let c = ConnectionInfo::new(
            tor_ip,
            ClientConfig::stealth(Browser::Firefox, Os::Windows),
            loc.point,
        );
        assert_eq!(
            svc.login(
                "honey@honeymail.example",
                "pw123456",
                &c,
                SimTime::from_secs(5)
            ),
            Err(LoginError::SuspiciousLogin)
        );
    }

    #[test]
    fn sinkhole_logs_overridden_sends_as_sent_entries() {
        let (mut svc, mut rng) = service();
        let honey = setup_account(&mut svc);
        let plain = svc
            .create_account(
                "plain@honeymail.example",
                "pw123456",
                Ipv4Addr::new(198, 51, 0, 2),
                SimTime::ZERO,
            )
            .unwrap();
        let c = conn(&svc, &mut rng, "GB");
        let to = ["victim@gmail.example".to_string(), "other@x.example".into()];
        for (i, address) in ["honey@honeymail.example", "plain@honeymail.example"]
            .into_iter()
            .enumerate()
        {
            let at = SimTime::from_secs(10 * i as u64 + 1);
            let (session, _) = svc.login(address, "pw123456", &c, at).unwrap();
            svc.send_email(session, &to, "hello", "body", at).unwrap();
            assert_eq!(
                svc.open_email(session, EmailId(999), at),
                Err(OpError::NoSuchEmail)
            );
        }
        // Only the overridden account's send is logged, and the record
        // names its Sent entry, every intended recipient intact.
        let [record] = svc.sinkhole().messages() else {
            panic!("want one sinkhole record: {:?}", svc.sinkhole().messages());
        };
        assert_eq!(
            (record.from_account, record.at),
            (honey, SimTime::from_secs(1))
        );
        let mailbox = svc.mailbox(honey);
        assert_eq!(mailbox.get(record.email).unwrap().folder, Folder::Sent);
        let sent = mailbox.message(record.email).unwrap();
        assert_eq!(
            (sent.from, sent.to, sent.subject),
            ("honey@honeymail.example", &to[..], Subject::Text("hello"))
        );
        assert_eq!(svc.mailbox(plain).list(Folder::Sent).len(), 1);
    }

    #[test]
    fn search_sees_seeded_mail_and_drafts_but_not_direct_sends() {
        let (mut svc, mut rng) = service();
        let id = setup_account(&mut svc);
        let c = conn(&svc, &mut rng, "GB");
        let (session, _) = svc
            .login(
                "honey@honeymail.example",
                "pw123456",
                &c,
                SimTime::from_secs(1),
            )
            .unwrap();
        let to = ["x@y.example".to_string()];
        let draft = svc
            .create_draft(
                session,
                &to,
                "Payment draft",
                "wire the PAYMENT today",
                SimTime::from_secs(2),
            )
            .unwrap();
        svc.send_email(
            session,
            &to,
            "payment",
            "payment account energy",
            SimTime::from_secs(5),
        )
        .unwrap();

        let queries: [(&str, Vec<EmailId>); 5] = [
            // Drafts carry sim-time stamps, so they outrank seeded mail.
            ("PAYMENT", vec![draft, EmailId(2)]),
            ("payment, Account!", vec![EmailId(2)]),
            ("Energy-Transfer", vec![EmailId(1)]),
            ("payme", vec![]),
            ("?!", vec![]),
        ];
        for (i, (query, want)) in queries.iter().enumerate() {
            let at = SimTime::from_secs(10 + i as u64);
            assert_eq!(&svc.search(session, query, at).unwrap(), want, "{query}");
        }
        let log: Vec<(SimTime, &str, usize)> = svc
            .query_log(id)
            .iter()
            .map(|q| (q.at, q.query.as_str(), q.hits))
            .collect();
        let want: Vec<(SimTime, &str, usize)> = queries
            .iter()
            .enumerate()
            .map(|(i, (q, hits))| (SimTime::from_secs(10 + i as u64), *q, hits.len()))
            .collect();
        assert_eq!(log, want);
    }

    #[test]
    fn invalid_session_is_rejected_everywhere() {
        let (mut svc, _) = service();
        setup_account(&mut svc);
        let bogus = SessionId(999);
        assert_eq!(
            svc.open_email(bogus, EmailId(1), SimTime::ZERO),
            Err(OpError::InvalidSession)
        );
        assert_eq!(
            svc.search(bogus, "x", SimTime::ZERO),
            Err(OpError::InvalidSession)
        );
        assert_eq!(
            svc.activity_page(bogus).unwrap_err(),
            OpError::InvalidSession
        );
    }

    #[test]
    fn logout_ends_only_that_session() {
        let (mut svc, mut rng) = service();
        setup_account(&mut svc);
        let c = conn(&svc, &mut rng, "GB");
        let login = |svc: &mut WebmailService, at| {
            svc.login(
                "honey@honeymail.example",
                "pw123456",
                &c,
                SimTime::from_secs(at),
            )
            .unwrap()
            .0
        };
        let ended = login(&mut svc, 1);
        let kept = login(&mut svc, 2);
        svc.logout(ended);
        let at = SimTime::from_secs(3);
        assert_eq!(
            svc.open_email(ended, EmailId(1), at),
            Err(OpError::InvalidSession)
        );
        assert_eq!(
            svc.search(ended, "payment", at),
            Err(OpError::InvalidSession)
        );
        assert_eq!(
            svc.activity_page(ended).unwrap_err(),
            OpError::InvalidSession
        );
        // Logging out twice is harmless, and other sessions stay alive.
        svc.logout(ended);
        assert_eq!(svc.search(kept, "payment", at), Ok(vec![EmailId(2)]));
        assert_eq!(svc.activity_page(kept).unwrap().len(), 2);
    }

    #[test]
    fn read_activity_opens_no_session_and_checks_credentials() {
        let (mut svc, mut rng) = service();
        let id = setup_account(&mut svc);
        let c = conn(&svc, &mut rng, "GB");
        let at = SimTime::from_secs(5);
        let (cookie, page) = svc.read_activity(id, "pw123456", &c, at).unwrap();
        let rows: Vec<CookieId> = page.unwrap().rows().map(|r| r.cookie).collect();
        assert_eq!(rows, vec![cookie]);
        // The read drew session id 1 but opened nothing under it.
        assert_eq!(
            svc.activity_page(SessionId(1)).unwrap_err(),
            OpError::InvalidSession
        );
        let (session, _) = svc
            .login("honey@honeymail.example", "pw123456", &c, at)
            .unwrap();
        assert_eq!(session, SessionId(2));
        // A wrong password and an id with no account fail alike.
        for (account, password) in [(id, "nope"), (AccountId(1), "pw123456")] {
            assert_eq!(
                svc.read_activity(account, password, &c, at).unwrap_err(),
                LoginError::BadCredentials
            );
        }
        assert_eq!(svc.total_accesses_recorded(id), 2);
    }

    #[test]
    fn automation_rules_apply_at_delivery() {
        let (mut svc, _) = service();
        let id = svc
            .create_account(
                "r@honeymail.example",
                "pw",
                Ipv4Addr::new(198, 51, 0, 3),
                SimTime::ZERO,
            )
            .unwrap();
        svc.add_rule(
            id,
            crate::rules::Rule {
                matcher: crate::rules::Matcher::SubjectContains("agreement".into()),
                action: crate::rules::RuleAction::ApplyLabel("finance".into()),
            },
        );
        svc.add_rule(
            id,
            crate::rules::Rule {
                matcher: crate::rules::Matcher::FromContains("noreply@".into()),
                action: crate::rules::RuleAction::MarkRead,
            },
        );
        assert_eq!(svc.rule_count(id), 2);
        svc.deliver(
            id,
            Email {
                id: EmailId(1),
                from: "peer@x".into(),
                to: vec!["r@honeymail.example".into()],
                subject: "Agreement attached".into(),
                body: "see attachment".into(),
                timestamp: MailTime(-50),
            },
        );
        // A seeded batch runs through the same rules: its one email
        // comes from a noreply sender, its rendered subject names an
        // agreement and its rendered body asks the reader to find
        // something.
        svc.add_rule(
            id,
            crate::rules::Rule {
                matcher: crate::rules::Matcher::BodyContains("please find".into()),
                action: crate::rules::RuleAction::Star,
            },
        );
        svc.seed_mailbox(
            id,
            SeededMail {
                bodies: SeededBodies {
                    archetype: pwnd_corpus::Archetype::CorporateEmployee,
                    // "Please find", then "transfer".
                    codes: vec![0, 6],
                    owner_first: "Rae",
                    names: vec![("Rae", "Owner"), ("Weekly", "Digest")],
                },
                owner: "r@honeymail.example".into(),
                peers: std::sync::Arc::from(["noreply@newsletter.example".to_string()]),
                emails: vec![SeededEmail {
                    id: EmailId(2),
                    timestamp: MailTime(-40),
                    from: 1,
                    to: 0,
                    // "{} agreement - draft" around "contract".
                    subject: SubjectCodes {
                        template: 4,
                        words: [21, 0],
                    },
                    body: 0..2,
                }],
            },
        );
        let labelled = svc.mailbox(id).get(EmailId(1)).unwrap();
        assert_eq!(svc.mailbox(id).labels(EmailId(1)), ["finance"]);
        assert!(!labelled.read);
        assert!(!labelled.starred);
        let digested = svc.mailbox(id).get(EmailId(2)).unwrap();
        assert!(digested.read, "MarkRead rule must have fired");
        assert!(digested.starred, "the rule must see the rendered body");
        assert_eq!(svc.mailbox(id).labels(EmailId(2)), ["finance"]);
        let opened = svc.mailbox(id).message(EmailId(2)).unwrap();
        assert_eq!(
            (opened.from, opened.to),
            (
                "noreply@newsletter.example",
                &["r@honeymail.example".to_string()][..],
            )
        );
        assert_eq!(
            svc.mailbox(id).full_text(EmailId(2)).unwrap(),
            "RE: contract agreement - draft\nHi Rae,\nPlease find transfer.\nThanks,\nWeekly Digest\n\
             Meridian Power Group"
        );
    }

    #[test]
    fn extortion_draft_burst_blocks_faster() {
        let (mut svc, mut rng) = service();
        let id = setup_account(&mut svc);
        let c = conn(&svc, &mut rng, "NG");
        let (session, _) = svc
            .login(
                "honey@honeymail.example",
                "pw123456",
                &c,
                SimTime::from_secs(1),
            )
            .unwrap();
        let mut sends = 0;
        for i in 0..30 {
            sends = i + 1;
            let r = svc.send_email(
                session,
                &[format!("victim{i}@am.example")],
                "I know what you did",
                "send 2 bitcoin to wallet 1abc or I expose you",
                SimTime::from_secs(10 + i * 5),
            );
            if r.is_err() {
                break;
            }
        }
        assert!(sends <= 12, "extortion spam lasted {sends} sends");
        assert!(!svc.account(id).state.is_active());
    }

    #[test]
    fn content_flags_match_across_the_seam_and_ignore_dotted_capital_i() {
        let mut scratch = String::new();
        let mut flagged = |subject: &str, body: &str| {
            WebmailService::content_flags(&mut scratch, subject, body, 1).extortion
        };
        assert!(flagged("Or I will EXPOSE", "You"));
        assert!(flagged("", "send BitCoin now"));
        assert!(!flagged("B\u{130}TCOIN", ""));
        assert!(!flagged("invoice", "payment"));
    }

    /// One piece of message text: a keyword with random case (its `i`s
    /// sometimes written `İ`), `İ`, the Kelvin sign, ASCII, or any
    /// scalar value.
    fn piece() -> impl Strategy<Value = String> {
        prop_oneof![
            (0..EXTORTION_KEYWORDS.len(), any::<u64>()).prop_map(|(k, bits)| {
                EXTORTION_KEYWORDS[k]
                    .chars()
                    .enumerate()
                    .map(|(i, c)| match (bits >> (2 * i)) & 3 {
                        0 if c == 'i' => '\u{130}',
                        1 => c.to_ascii_uppercase(),
                        _ => c,
                    })
                    .collect()
            }),
            Just("\u{130}".to_string()),
            Just("\u{212A}".to_string()),
            "[a-zA-Z ]{1,3}",
            (0u32..0x11_0000).prop_map(|v| char::from_u32(v).unwrap_or('\u{FFFD}').to_string()),
        ]
    }

    fn text() -> impl Strategy<Value = String> {
        proptest::collection::vec(piece(), 0..8).prop_map(|pieces| pieces.concat())
    }

    proptest! {
        /// Folding `subject + ' ' + body` to ASCII lowercase flags
        /// exactly the texts that Unicode `to_lowercase` flags.
        #[test]
        fn ascii_fold_flags_what_the_unicode_fold_flags(
            messages in proptest::collection::vec((text(), text()), 1..40),
        ) {
            let mut scratch = String::new();
            for (subject, body) in &messages {
                let unicode = format!("{subject} {body}").to_lowercase();
                let expected = EXTORTION_KEYWORDS.iter().any(|kw| unicode.contains(kw));
                let flags = WebmailService::content_flags(&mut scratch, subject, body, 1);
                prop_assert_eq!(flags.extortion, expected, "{:?} / {:?}", subject, body);
            }
        }
    }
}
