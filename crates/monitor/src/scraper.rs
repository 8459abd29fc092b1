//! The external activity-page scraper.
//!
//! Apps Script cannot see login IPs or geolocation, so the paper drove a
//! browser from the monitoring infrastructure, logged into each honey
//! account on a schedule, navigated to the visitor-activity page, and
//! dumped it to disk for offline parsing. This scraper parses in line
//! instead: each page whose foreign rows changed is folded into the
//! run's [`Sightings`] and not kept. The scraper is also how the
//! researchers *detect* hijacks (its login starts failing) and blocks
//! (the provider refuses the login with a suspension error).
//!
//! Real scraping infrastructure fails: the driver times out, the
//! provider is in maintenance, the whole scraper host goes down for
//! hours. The scraper therefore retries transient failures with
//! exponential backoff (in simulated time), refuses to classify an
//! account as hijacked or blocked until the same hard failure repeats
//! `confirm_failures` times in consecutive sweeps, and records every
//! known blind window as a gap for the coverage analysis.

use crate::dataset::Sightings;
use pwnd_faults::{FaultPlan, RetryPolicy};
use pwnd_net::access::{ConnectionInfo, CookieId};
use pwnd_net::ip::AddressPlan;
use pwnd_net::useragent::{Browser, ClientConfig, Os};
use pwnd_sim::{Rng, SimTime};
use pwnd_telemetry::TelemetrySink;
use pwnd_webmail::account::AccountId;
use pwnd_webmail::activity::ActivityRow;
use pwnd_webmail::service::{LoginError, WebmailService};

/// Result of one scrape attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScrapeOutcome {
    /// Page read successfully (and folded into the sightings if it
    /// changed; see [`Scraper::take_sightings`]).
    Ok,
    /// Login failed with the researcher password — the account has been
    /// hijacked (password changed by an attacker).
    HijackDetected,
    /// The provider suspended the account.
    BlockedDetected,
    /// A hard login failure was observed but has not yet repeated
    /// `confirm_failures` times, so no classification is made.
    FailurePending,
    /// Every attempt failed transiently (driver flake or provider
    /// maintenance), or the account was never registered; the sweep
    /// learned nothing about this account.
    GaveUp,
}

/// The two hard-failure classes the scraper confirms before declaring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum HardFailure {
    Hijack,
    Blocked,
}

/// Everything the scraper keeps about one account. Account ids are dense,
/// so the scraper holds one slot per id.
#[derive(Default)]
struct Slot {
    /// The password the researchers recorded; `None` for an id that was
    /// never registered. The scraper logs in by account id.
    password: Option<String>,
    /// One stable browser cookie (the scraper is a device too; its rows
    /// are left out of every fold, so it never reaches the dataset).
    cookie: Option<CookieId>,
    /// Fingerprint of the last folded page's foreign rows, so identical
    /// consecutive scrapes are not folded twice (a 7-month run scrapes
    /// tens of thousands of unchanged pages).
    last_page: Option<Vec<(u64, u64)>>,
    /// The page's lifetime access count at the last read that returned
    /// a page.
    last_recorded: u64,
    hijack_detected: Option<SimTime>,
    block_detected: Option<SimTime>,
    /// Consecutive hard failures of the same class awaiting confirmation.
    /// Reset by any successful scrape; transient give-ups leave it
    /// untouched (they carry no information either way).
    pending_failure: Option<(HardFailure, u32)>,
    /// Open blind window: when the scraper last stopped seeing the page.
    gap_open: Option<SimTime>,
}

impl Slot {
    /// Registered and neither hijacked nor blocked: still worth scraping.
    fn monitored(&self) -> bool {
        self.password.is_some() && self.hijack_detected.is_none() && self.block_detected.is_none()
    }
}

/// The scraping driver.
pub struct Scraper {
    /// Per-account state, indexed by account id.
    slots: Vec<Slot>,
    /// Every changed page's foreign rows, folded per (account, cookie).
    sightings: Sightings,
    /// Consecutive same-class hard failures required before classifying.
    /// 1 (the default) reproduces the historical trust-the-first-error
    /// behavior; raising it makes a transient provider error no longer
    /// able to mislabel an account as hijacked.
    confirm_failures: u32,
    /// Closed blind windows, in close order.
    gaps: Vec<(AccountId, SimTime, SimTime)>,
    fault_plan: FaultPlan,
    retry: RetryPolicy,
    rng: Rng,
    telemetry: TelemetrySink,
}

impl Scraper {
    /// A scraper with its own RNG stream (for infra IP jitter).
    pub fn new(rng: Rng) -> Scraper {
        Scraper {
            slots: Vec::new(),
            sightings: Sightings::default(),
            confirm_failures: 1,
            gaps: Vec::new(),
            fault_plan: FaultPlan::none(),
            retry: RetryPolicy::default(),
            rng,
            telemetry: TelemetrySink::disabled(),
        }
    }

    /// Attach a telemetry sink: `monitor.scrapes`, `monitor.scrape_dumps`
    /// (one per changed page folded), detection counters, retry
    /// histograms, and one `scrape` trace per sweep.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.telemetry = sink;
    }

    /// Attach the run's fault plan (outage windows, login flakes, and the
    /// deterministic jitter rolls the backoff uses).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan;
    }

    /// Replace the transient-failure retry policy.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Require `n` consecutive same-class hard failures before declaring a
    /// hijack or block (clamped to at least 1).
    pub fn set_confirm_failures(&mut self, n: u32) {
        self.confirm_failures = n.max(1);
    }

    /// Register an account's researcher-held password, replacing any
    /// recorded earlier.
    pub fn register(&mut self, account: AccountId, password: &str) {
        let idx = account.0 as usize;
        if self.slots.len() <= idx {
            self.slots.resize_with(idx + 1, Slot::default);
        }
        if let Some(slot) = self.slots.get_mut(idx) {
            slot.password = Some(password.to_string());
        }
    }

    /// All registered accounts, in id order.
    pub fn accounts(&self) -> impl Iterator<Item = AccountId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.password.is_some())
            .map(|(idx, _)| AccountId(idx as u32))
    }

    /// Scrape one account now, retrying transient failures with backoff.
    /// Retries advance simulated time, so a scrape that flakes twice reads
    /// the page a few minutes after `at`.
    pub fn scrape(
        &mut self,
        service: &mut WebmailService,
        account: AccountId,
        at: SimTime,
    ) -> ScrapeOutcome {
        let registered = self
            .slots
            .get(account.0 as usize)
            .is_some_and(|slot| slot.password.is_some());
        if !registered {
            // An unregistered account is a driver bug, but the monitor
            // must keep sweeping the rest of the fleet rather than die.
            self.telemetry
                .count_labeled("monitor.scrapes", "unknown_account");
            return ScrapeOutcome::GaveUp;
        }
        self.telemetry.count("monitor.scrapes");
        let mut t = at;
        let mut attempt = 0u32;
        loop {
            // First attempts ride the sweep-level "poll" span; every
            // fault-driven repeat gets its own "retry" attribution span
            // (covering the backoff arithmetic at the bottom too).
            let _retry = (attempt > 0).then(|| self.telemetry.subspan("retry", &[]));
            // A scraper-side flake (driver timeout, dropped connection)
            // means the login never reached the provider.
            let transient = if self.fault_plan.login_flakes(account.0, t, attempt) {
                self.telemetry
                    .count_labeled("faults.injected", "scraper_flake");
                true
            } else {
                match self.try_login(service, account, t) {
                    Ok(()) => {
                        if attempt > 0 {
                            self.telemetry.observe("scraper.retries", attempt as u64);
                        }
                        if let Some(slot) = self.slots.get_mut(account.0 as usize) {
                            slot.pending_failure = None;
                        }
                        self.close_gap(account, t);
                        return ScrapeOutcome::Ok;
                    }
                    Err(LoginError::Maintenance) => true,
                    Err(LoginError::BadCredentials) => {
                        if attempt > 0 {
                            self.telemetry.observe("scraper.retries", attempt as u64);
                        }
                        let _classify = self.telemetry.subspan("classify", &[]);
                        return self.note_hard_failure(account, HardFailure::Hijack, t);
                    }
                    Err(LoginError::AccountBlocked) | Err(LoginError::SuspiciousLogin) => {
                        // Infra logins are habitual; SuspiciousLogin only
                        // happens in the filter-enabled ablation. Treat
                        // like a block for data purposes: the scraper can
                        // no longer observe the page.
                        if attempt > 0 {
                            self.telemetry.observe("scraper.retries", attempt as u64);
                        }
                        let _classify = self.telemetry.subspan("classify", &[]);
                        return self.note_hard_failure(account, HardFailure::Blocked, t);
                    }
                }
            };
            debug_assert!(transient);
            if attempt + 1 >= self.retry.max_attempts {
                // Out of attempts: the sweep learned nothing. The blind
                // window stays open until a later sweep sees the page.
                self.telemetry.observe("scraper.retries", attempt as u64);
                self.telemetry.count_labeled("monitor.scrapes", "gave_up");
                self.open_gap(account, at);
                return ScrapeOutcome::GaveUp;
            }
            let roll = self.fault_plan.jitter_roll(account.0, t, attempt);
            t += self.retry.delay(attempt, roll);
            attempt += 1;
        }
    }

    /// One actual login + page read. The service opens no session for it;
    /// the page is borrowed from the service, and its foreign rows are
    /// folded into the sightings only when they changed since the last
    /// fold.
    fn try_login(
        &mut self,
        service: &mut WebmailService,
        account: AccountId,
        at: SimTime,
    ) -> Result<(), LoginError> {
        let ip = AddressPlan::sample_infra(&mut self.rng);
        let Some(slot) = self.slots.get_mut(account.0 as usize) else {
            // `scrape` only calls this for registered accounts.
            return Err(LoginError::BadCredentials);
        };
        let Some(password) = &slot.password else {
            return Err(LoginError::BadCredentials);
        };
        let mut conn = ConnectionInfo::new(
            ip,
            ClientConfig::plain(Browser::Chrome, Os::Linux),
            service.geolocator().infra().point,
        );
        if let Some(cookie) = slot.cookie {
            conn = conn.with_cookie(cookie);
        }
        let (cookie, page) = service.read_activity(account, password, &conn, at)?;
        slot.cookie = Some(cookie);
        // "parse" covers digesting the activity page (fingerprint, dedupe,
        // fold) — the per-account unit of work.
        let _parse = self.telemetry.subspan("parse", &[]);
        // The scrape's own login can trip the abuse detector and block the
        // account before the page loads. The retry loop treats that as a
        // transient flake; its next login sees the block.
        let Some(page) = page else {
            return Err(LoginError::Maintenance);
        };
        // A quiet account needs no walk: when the last page had no
        // foreign rows and exactly one access (this login) was recorded
        // since, the page still has none. Rows only leave by eviction,
        // so no foreign row can appear without a recorded access.
        let recorded = std::mem::replace(&mut slot.last_recorded, page.total_recorded());
        if recorded + 1 == page.total_recorded()
            && slot.last_page.as_ref().is_some_and(Vec::is_empty)
        {
            return Ok(());
        }
        // The scraper's own login mutates the page; only foreign rows are
        // fingerprinted (so quiet accounts dedupe) and folded (so the
        // scraper's cookie never reaches the dataset).
        let foreign = || page.rows().filter(|r| r.cookie != cookie);
        let key = |r: &ActivityRow| (r.cookie.0, r.at.as_secs());
        let unchanged = slot
            .last_page
            .as_ref()
            .is_some_and(|last| last.iter().copied().eq(foreign().map(key)));
        if !unchanged {
            let last = slot.last_page.get_or_insert_with(Vec::new);
            last.clear();
            last.extend(foreign().map(key));
            self.sightings.fold_page(account, foreign());
            self.telemetry.count("monitor.scrape_dumps");
        }
        Ok(())
    }

    /// Record a hard failure and classify once it has repeated enough.
    fn note_hard_failure(
        &mut self,
        account: AccountId,
        kind: HardFailure,
        at: SimTime,
    ) -> ScrapeOutcome {
        let Some(slot) = self.slots.get_mut(account.0 as usize) else {
            return ScrapeOutcome::GaveUp;
        };
        let count = match slot.pending_failure {
            Some((pending, n)) if pending == kind => n + 1,
            _ => 1,
        };
        if count < self.confirm_failures {
            slot.pending_failure = Some((kind, count));
            // Not confirmed yet; the page is unreadable, so the blind
            // window opens here.
            self.open_gap(account, at);
            return ScrapeOutcome::FailurePending;
        }
        slot.pending_failure = None;
        let (detected, counter, outcome) = match kind {
            HardFailure::Hijack => (
                &mut slot.hijack_detected,
                "monitor.hijack_detections",
                ScrapeOutcome::HijackDetected,
            ),
            HardFailure::Blocked => (
                &mut slot.block_detected,
                "monitor.block_detections",
                ScrapeOutcome::BlockedDetected,
            ),
        };
        if detected.is_none() {
            *detected = Some(at);
            self.telemetry.count(counter);
        }
        // Monitoring of this account ends now; close its blind window at
        // the moment of classification.
        self.close_gap(account, at);
        outcome
    }

    fn open_gap(&mut self, account: AccountId, at: SimTime) {
        if let Some(slot) = self.slots.get_mut(account.0 as usize) {
            slot.gap_open.get_or_insert(at);
        }
    }

    fn close_gap(&mut self, account: AccountId, at: SimTime) {
        let open = self.slots.get_mut(account.0 as usize);
        if let Some(start) = open.and_then(|slot| slot.gap_open.take()) {
            if at > start {
                self.telemetry
                    .trace_with(start.as_secs(), "gap", Some(account.0), || {
                        format!("scraper blind until t={}", at.as_secs())
                    });
                self.gaps.push((account, start, at));
            }
        }
    }

    /// Scrape every registered account. During a scraper outage the whole
    /// sweep is skipped and every still-monitored account's blind window
    /// opens (if not already open).
    pub fn scrape_all(&mut self, service: &mut WebmailService, at: SimTime) {
        // One "poll" span per sweep: the poll operation is one pass
        // over the whole account population. Its children attribute
        // the per-account work (parse, retry, classify).
        let _poll = self.telemetry.subspan("poll", &[]);
        if self.fault_plan.scraper_outage_at(at) {
            self.telemetry
                .count_labeled("faults.injected", "scraper_outage");
            for slot in self.slots.iter_mut().filter(|slot| slot.monitored()) {
                slot.gap_open.get_or_insert(at);
            }
            self.telemetry
                .trace_with(at.as_secs(), "scrape", None, || "skipped: outage".into());
            return;
        }
        let mut attempted = 0u64;
        for idx in 0..self.slots.len() {
            // Once hijacked or blocked there is nothing more to scrape.
            if !self.slots.get(idx).is_some_and(Slot::monitored) {
                continue;
            }
            let _ = self.scrape(service, AccountId(idx as u32), at);
            attempted += 1;
        }
        // One trace record per sweep, not per account: a 7-month run
        // scrapes 100 accounts every few hours.
        self.telemetry.trace_with(at.as_secs(), "scrape", None, || {
            format!("accounts={attempted}")
        });
    }

    /// Close every still-open blind window at the end of the run, so the
    /// coverage analysis sees gaps that never recovered.
    pub fn finish(&mut self, at: SimTime) {
        for idx in 0..self.slots.len() {
            self.close_gap(AccountId(idx as u32), at);
        }
    }

    /// Hand over the sightings folded so far, leaving none behind: what
    /// [`DatasetBuilder`](crate::DatasetBuilder) turns into accesses.
    pub fn take_sightings(&mut self) -> Sightings {
        std::mem::take(&mut self.sightings)
    }

    /// When the scraper first noticed a hijack on `account`, if it did.
    pub fn hijack_detected_at(&self, account: AccountId) -> Option<SimTime> {
        self.slots
            .get(account.0 as usize)
            .and_then(|slot| slot.hijack_detected)
    }

    /// When the scraper first noticed a block on `account`, if it did.
    pub fn block_detected_at(&self, account: AccountId) -> Option<SimTime> {
        self.slots
            .get(account.0 as usize)
            .and_then(|slot| slot.block_detected)
    }

    /// Closed blind windows `(account, from, until)`, in close order.
    /// Call [`Scraper::finish`] first to flush windows still open at the
    /// horizon.
    pub fn gaps(&self) -> &[(AccountId, SimTime, SimTime)] {
        &self.gaps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwnd_corpus::email::{Email, EmailId, MailTime};
    use pwnd_faults::FaultProfile;
    use pwnd_net::geo::GeoDb;
    use pwnd_net::geolocate::Geolocator;
    use pwnd_net::tor::TorDirectory;
    use pwnd_sim::SimDuration;
    use pwnd_webmail::account::AccountState;
    use pwnd_webmail::service::{OpError, ServiceConfig, SessionId};

    fn world() -> (WebmailService, Scraper, AccountId) {
        world_with(ServiceConfig::default())
    }

    fn world_with(config: ServiceConfig) -> (WebmailService, Scraper, AccountId) {
        let geo = GeoDb::new();
        let plan = AddressPlan::new(&geo);
        let mut rng = Rng::seed_from(3);
        let tor = TorDirectory::generate(50, &mut rng);
        let mut svc = WebmailService::new(config, Geolocator::new(plan, geo, tor));
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
                subject: "s".into(),
                body: "b".into(),
                timestamp: MailTime(-5),
            },
        );
        let mut scraper = Scraper::new(rng.fork(9));
        scraper.register(id, "pw");
        (svc, scraper, id)
    }

    /// Changed pages folded so far (`monitor.scrape_dumps`).
    fn folded(sink: &TelemetrySink) -> u64 {
        sink.report().metrics.counter("monitor.scrape_dumps")
    }

    /// The scraper's own cookie on `account`, once it has logged in.
    fn own_cookie(scraper: &Scraper, account: AccountId) -> Option<CookieId> {
        scraper.slots.get(account.0 as usize)?.cookie
    }

    fn hijack(svc: &mut WebmailService, at: u64) {
        let ip = svc
            .geolocator()
            .plan()
            .sample_host("RO", &mut Rng::seed_from(2));
        let loc = svc.geolocator().locate(ip);
        let conn = ConnectionInfo::new(
            ip,
            ClientConfig::plain(Browser::Opera, Os::Windows),
            loc.point,
        );
        let (session, _) = svc
            .login("h@honeymail.example", "pw", &conn, SimTime::from_secs(at))
            .unwrap();
        svc.change_password(session, "stolen", SimTime::from_secs(at + 10))
            .unwrap();
    }

    #[test]
    fn scrape_sees_attacker_access() {
        let (mut svc, mut scraper, id) = world();
        // Attacker logs in from Brazil.
        let ip = svc
            .geolocator()
            .plan()
            .sample_host("BR", &mut Rng::seed_from(1));
        let loc = svc.geolocator().locate(ip);
        let conn = ConnectionInfo::new(
            ip,
            ClientConfig::plain(Browser::Chrome, Os::Windows),
            loc.point,
        );
        svc.login("h@honeymail.example", "pw", &conn, SimTime::from_secs(100))
            .unwrap();

        assert_eq!(
            scraper.scrape(&mut svc, id, SimTime::from_secs(200)),
            ScrapeOutcome::Ok
        );
        let mut rows = scraper.sightings.rows();
        assert!(rows.any(|(account, r)| account == id.0 && r.location.country == Some("BR")));
    }

    #[test]
    fn scraper_session_ends_after_the_page_is_read() {
        let (mut svc, mut scraper, id) = world();
        assert_eq!(
            scraper.scrape(&mut svc, id, SimTime::from_secs(10)),
            ScrapeOutcome::Ok
        );
        // The scraper's login drew the service's first session id but
        // opened no session under it.
        assert_eq!(
            svc.activity_page(SessionId(1)).unwrap_err(),
            OpError::InvalidSession
        );
        // Holding no session does not end the device: the next login
        // presents the same cookie, so the page shows one device.
        assert_eq!(
            scraper.scrape(&mut svc, id, SimTime::from_secs(20)),
            ScrapeOutcome::Ok
        );
        let own = own_cookie(&scraper, id).unwrap();
        assert_eq!(svc.total_accesses_recorded(id), 2);
        let conn = ConnectionInfo::new(
            AddressPlan::sample_infra(&mut Rng::seed_from(5)),
            ClientConfig::plain(Browser::Chrome, Os::Linux),
            svc.geolocator().infra().point,
        );
        let (session, _) = svc
            .login("h@honeymail.example", "pw", &conn, SimTime::from_secs(30))
            .unwrap();
        let page: Vec<CookieId> = svc
            .activity_page(session)
            .unwrap()
            .rows()
            .map(|r| r.cookie)
            .collect();
        assert_eq!(page[..2], [own, own]);
    }

    #[test]
    fn scraper_uses_stable_cookie() {
        let (mut svc, mut scraper, id) = world();
        scraper.scrape(&mut svc, id, SimTime::from_secs(10));
        let first = own_cookie(&scraper, id);
        assert!(first.is_some());
        scraper.scrape(&mut svc, id, SimTime::from_secs(20));
        assert_eq!(own_cookie(&scraper, id), first);
    }

    #[test]
    fn own_cookie_is_never_folded_and_unchanged_pages_fold_once() {
        let (mut svc, mut scraper, id) = world();
        let sink = TelemetrySink::enabled();
        scraper.set_telemetry(sink.clone());
        // The first read folds the page even with no foreign row on it.
        scraper.scrape_all(&mut svc, SimTime::from_secs(10));
        assert_eq!(folded(&sink), 1);
        // The scraper's own logins alone leave the foreign rows as they
        // were: nothing folds again.
        for t in [20u64, 30, 40] {
            scraper.scrape_all(&mut svc, SimTime::from_secs(t));
        }
        assert_eq!(folded(&sink), 1);
        // A foreign login changes the page: one more fold.
        let ip = svc
            .geolocator()
            .plan()
            .sample_host("BR", &mut Rng::seed_from(1));
        let loc = svc.geolocator().locate(ip);
        let conn = ConnectionInfo::new(
            ip,
            ClientConfig::plain(Browser::Chrome, Os::Windows),
            loc.point,
        );
        svc.login("h@honeymail.example", "pw", &conn, SimTime::from_secs(45))
            .unwrap();
        for t in [50u64, 60, 70] {
            scraper.scrape_all(&mut svc, SimTime::from_secs(t));
        }
        assert_eq!(folded(&sink), 2);
        let own = own_cookie(&scraper, id).unwrap();
        let cookies: Vec<CookieId> = scraper.sightings.rows().map(|(_, r)| r.cookie).collect();
        assert_eq!(cookies.len(), 1);
        assert!(!cookies.contains(&own));
    }

    /// A new device logging in from `country` at `at`; its cookie.
    fn foreign_login(svc: &mut WebmailService, country: &str, at: u64) -> CookieId {
        let ip = svc
            .geolocator()
            .plan()
            .sample_host(country, &mut Rng::seed_from(at));
        let loc = svc.geolocator().locate(ip);
        let conn = ConnectionInfo::new(
            ip,
            ClientConfig::plain(Browser::Firefox, Os::Windows),
            loc.point,
        );
        let (_, cookie) = svc
            .login("h@honeymail.example", "pw", &conn, SimTime::from_secs(at))
            .unwrap();
        cookie
    }

    #[test]
    fn quiet_sweeps_skip_the_walk_until_a_foreign_login() {
        let (mut svc, mut scraper, id) = world();
        let sink = TelemetrySink::enabled();
        scraper.set_telemetry(sink.clone());
        let first = foreign_login(&mut svc, "BR", 100);
        let second = foreign_login(&mut svc, "RO", 110);
        // The first read folds the two foreign rows (and the scraper's).
        scraper.scrape_all(&mut svc, SimTime::from_secs(200));
        assert_eq!(folded(&sink), 1);
        // Each quiet sweep adds one scraper row. The foreign rows stay
        // until the page is full and they are evicted, one a sweep: two
        // more folds, the last of a page with no foreign row left. The
        // sweeps after that take the no-walk path and fold nothing.
        let capacity = ServiceConfig::default().activity_page_capacity;
        let quiet = capacity as u64 + 2;
        for sweep in 1..=quiet {
            scraper.scrape_all(&mut svc, SimTime::from_secs(200 + 100 * sweep));
        }
        assert_eq!(folded(&sink), 3);
        // A foreign login between two sweeps records two accesses before
        // the next read, so that read walks the page and folds it; the
        // one after walks it again (a foreign row is still on it) and
        // finds nothing new.
        let third = foreign_login(&mut svc, "US", 2_000);
        scraper.scrape_all(&mut svc, SimTime::from_secs(2_100));
        scraper.scrape_all(&mut svc, SimTime::from_secs(2_200));
        assert_eq!(folded(&sink), 4);
        let rows: Vec<(CookieId, u64)> = scraper
            .sightings
            .rows()
            .map(|(account, r)| {
                assert_eq!(account, id.0);
                (r.cookie, r.at.as_secs())
            })
            .collect();
        assert_eq!(rows, [(first, 100), (second, 110), (third, 2_000)]);
        assert_eq!(sink.report().metrics.counter("monitor.scrapes"), quiet + 3);
    }

    #[test]
    fn hijack_is_detected_and_scraping_stops() {
        let (mut svc, mut scraper, id) = world();
        hijack(&mut svc, 50);

        match scraper.scrape(&mut svc, id, SimTime::from_secs(100)) {
            ScrapeOutcome::HijackDetected => {}
            other => panic!("expected hijack, got {other:?}"),
        }
        assert_eq!(
            scraper.hijack_detected_at(id),
            Some(SimTime::from_secs(100))
        );
        // scrape_all skips it afterwards.
        let sink = TelemetrySink::enabled();
        scraper.set_telemetry(sink.clone());
        scraper.scrape_all(&mut svc, SimTime::from_secs(200));
        assert_eq!(sink.report().metrics.counter("monitor.scrapes"), 0);
        assert_eq!(folded(&sink), 0);
    }

    #[test]
    fn block_is_detected() {
        let (mut svc, mut scraper, id) = world();
        svc.admin_block(id, SimTime::from_secs(10));
        match scraper.scrape(&mut svc, id, SimTime::from_secs(20)) {
            ScrapeOutcome::BlockedDetected => {}
            other => panic!("expected blocked, got {other:?}"),
        }
        assert_eq!(scraper.block_detected_at(id), Some(SimTime::from_secs(20)));
    }

    #[test]
    fn block_tripped_by_the_scrape_itself_is_detected_on_the_retry() {
        // So low a threshold that the scraper's first login, a new device,
        // is enough for the abuse detector to block the account.
        let mut config = ServiceConfig::default();
        config.security.anomaly_block_threshold = 0.05;
        let (mut svc, mut scraper, id) = world_with(config);
        let at = SimTime::from_secs(100);
        assert_eq!(
            scraper.scrape(&mut svc, id, at),
            ScrapeOutcome::BlockedDetected
        );
        // The login went through and blocked the account before the page
        // was read: nothing was folded, but the scraper's device is known.
        assert_eq!(svc.account(id).state, AccountState::Blocked { at });
        assert_eq!(svc.total_accesses_recorded(id), 1);
        assert_eq!(scraper.sightings.rows().count(), 0);
        assert!(own_cookie(&scraper, id).is_some());
        // The unread page counted as a transient failure, and the retry's
        // login found the block, stamped at the retried time.
        let retry = RetryPolicy::default();
        let retried = at + retry.delay(0, FaultPlan::none().jitter_roll(id.0, at, 0));
        assert!(retried > at);
        assert_eq!(scraper.block_detected_at(id), Some(retried));
        assert_eq!(scraper.hijack_detected_at(id), None);
    }

    #[test]
    fn confirmation_defers_classification() {
        let (mut svc, mut scraper, id) = world();
        scraper.set_confirm_failures(3);
        hijack(&mut svc, 50);

        // Two failures: still pending, nothing declared.
        for t in [100u64, 200] {
            match scraper.scrape(&mut svc, id, SimTime::from_secs(t)) {
                ScrapeOutcome::FailurePending => {}
                other => panic!("expected pending, got {other:?}"),
            }
        }
        assert_eq!(scraper.hijack_detected_at(id), None);
        // Third consecutive failure confirms, stamped at the confirming
        // sweep.
        match scraper.scrape(&mut svc, id, SimTime::from_secs(300)) {
            ScrapeOutcome::HijackDetected => {}
            other => panic!("expected hijack, got {other:?}"),
        }
        assert_eq!(
            scraper.hijack_detected_at(id),
            Some(SimTime::from_secs(300))
        );
        // The unreadable stretch is recorded as a blind window.
        assert_eq!(
            scraper.gaps(),
            &[(id, SimTime::from_secs(100), SimTime::from_secs(300))]
        );
    }

    #[test]
    fn successful_scrape_resets_confirmation_count() {
        let (mut svc, mut scraper, id) = world();
        scraper.set_confirm_failures(2);
        // A healthy scrape first.
        scraper.scrape(&mut svc, id, SimTime::from_secs(10));
        hijack(&mut svc, 50);
        match scraper.scrape(&mut svc, id, SimTime::from_secs(100)) {
            ScrapeOutcome::FailurePending => {}
            other => panic!("expected pending, got {other:?}"),
        }
        // The researchers recover the credentials out of band: the next
        // scrape succeeds and wipes the pending count.
        scraper.register(id, "stolen");
        assert_eq!(
            scraper.scrape(&mut svc, id, SimTime::from_secs(200)),
            ScrapeOutcome::Ok
        );
        // The password changes again behind their back; the count starts
        // over from one instead of classifying immediately.
        scraper.register(id, "wrong");
        match scraper.scrape(&mut svc, id, SimTime::from_secs(300)) {
            ScrapeOutcome::FailurePending => {}
            other => panic!("expected pending again, got {other:?}"),
        }
        assert_eq!(scraper.hijack_detected_at(id), None);
    }

    #[test]
    fn flaky_logins_are_retried_and_succeed() {
        let (mut svc, mut scraper, id) = world();
        // Flake rate high enough that retries fire, attempts generous
        // enough that a scrape eventually lands.
        scraper.set_fault_plan(FaultPlan::compile(
            11,
            &FaultProfile {
                scraper_flake_rate: 0.5,
                ..FaultProfile::none()
            },
            SimDuration::days(30),
        ));
        scraper.set_retry_policy(RetryPolicy {
            max_attempts: 12,
            ..RetryPolicy::default()
        });
        let mut oks = 0;
        for day in 0..20u64 {
            if scraper.scrape(&mut svc, id, SimTime::from_secs(day * 86_400)) == ScrapeOutcome::Ok {
                oks += 1;
            }
        }
        assert!(oks >= 15, "most scrapes should survive retries, got {oks}");
        assert_eq!(scraper.hijack_detected_at(id), None);
    }

    #[test]
    fn outage_skips_sweep_and_records_gap() {
        let (mut svc, mut scraper, id) = world();
        // Compile plans until one has an outage window (deterministic
        // search over seeds, not a random test).
        let profile = FaultProfile {
            scraper_outages_per_30d: 2.0,
            scraper_outage_hours: 12.0,
            ..FaultProfile::none()
        };
        let plan = (0..64)
            .map(|s| FaultPlan::compile(s, &profile, SimDuration::days(30)))
            .find(|p| !p.scraper_outages().is_empty())
            .expect("some seed yields an outage");
        let window = plan.scraper_outages()[0];
        scraper.set_fault_plan(plan);
        let sink = TelemetrySink::enabled();
        scraper.set_telemetry(sink.clone());
        scraper.scrape_all(&mut svc, window.start);
        assert_eq!(
            sink.report().metrics.counter("monitor.scrapes"),
            0,
            "outage sweep must not scrape"
        );
        // Next sweep after the outage closes the blind window.
        let after = window.end + SimDuration::hours(1);
        scraper.scrape_all(&mut svc, after);
        assert_eq!(scraper.gaps(), &[(id, window.start, after)]);
    }

    #[test]
    fn unregistered_ids_give_up_without_panicking() {
        let (mut svc, mut scraper, id) = world();
        let sink = TelemetrySink::enabled();
        scraper.set_telemetry(sink.clone());
        // A hole below the last registered id, and ids past the end of
        // the slots.
        scraper.register(AccountId(3), "pw");
        for stray in [AccountId(2), AccountId(4), AccountId(u32::MAX)] {
            assert_eq!(
                scraper.scrape(&mut svc, stray, SimTime::from_secs(10)),
                ScrapeOutcome::GaveUp
            );
            assert_eq!(scraper.hijack_detected_at(stray), None);
            assert_eq!(scraper.block_detected_at(stray), None);
        }
        let metrics = sink.report().metrics;
        assert_eq!(
            metrics.counters.get("monitor.scrapes{unknown_account}"),
            Some(&3)
        );
        assert_eq!(metrics.counter("monitor.scrapes"), 3);
        assert_eq!(folded(&sink), 0);
        assert_eq!(
            scraper.accounts().collect::<Vec<_>>(),
            vec![id, AccountId(3)]
        );
    }

    #[test]
    fn accounts_are_listed_in_id_order() {
        let mut scraper = Scraper::new(Rng::seed_from(1));
        for id in [7u32, 2, 5, 0] {
            scraper.register(AccountId(id), "pw");
        }
        let ids: Vec<u32> = scraper.accounts().map(|a| a.0).collect();
        assert_eq!(ids, vec![0, 2, 5, 7]);
    }

    #[test]
    fn scrape_all_covers_registered_accounts() {
        let (mut svc, mut scraper, _) = world();
        let sink = TelemetrySink::enabled();
        scraper.set_telemetry(sink.clone());
        scraper.scrape_all(&mut svc, SimTime::ZERO + SimDuration::hours(1));
        assert_eq!(folded(&sink), 1);
    }
}
