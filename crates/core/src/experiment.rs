//! The end-to-end experiment driver.

use crate::config::ExperimentConfig;
use crate::output::{GroundTruth, RunOutput};
use pwnd_attacker::arrivals::{forum_arrivals, malware_arrivals, paste_arrivals};
use pwnd_attacker::case_studies;
use pwnd_attacker::identity::{IdentityPools, OriginPolicy};
use pwnd_attacker::plan::{build_access_plan, AccessPlan, Action};
use pwnd_attacker::profiles::OutletProfile;
use pwnd_corpus::decoy::generate_decoys;
use pwnd_corpus::email::{Email, EmailId, MailTime};
use pwnd_corpus::generator::CorpusGenerator;
use pwnd_corpus::persona::{DecoyRegion, Persona, PersonaFactory};
use pwnd_corpus::tokenize::TermCounts;
use pwnd_faults::FaultPlan;
use pwnd_leak::forum::{generate_inquiries, Forum, SellerAccount, TeaserThread};
use pwnd_leak::malware::{
    liveness_filter, sample_pool, Campaign, CncId, InfectionOutcome, Sandbox,
};
use pwnd_leak::market::{Market, Sale};
use pwnd_leak::paste::PasteSite;
use pwnd_leak::plan::{LeakContent, LeakRecord, OutletKind};
use pwnd_monitor::collector::NotificationCollector;
use pwnd_monitor::dataset::{AccountRecord, Dataset, DatasetBuilder, GapRecord};
use pwnd_monitor::scraper::Scraper;
use pwnd_monitor::script::{ScriptConfig, ScriptLocation, ScriptRuntime};
use pwnd_net::access::{ConnectionInfo, CookieId};
use pwnd_net::dnsbl::{Blacklist, ListingReason};
use pwnd_net::geo::GeoDb;
use pwnd_net::geolocate::Geolocator;
use pwnd_net::ip::AddressPlan;
use pwnd_net::tor::TorDirectory;
use pwnd_sim::event::EventQueue;
use pwnd_sim::{Rng, SimDuration, SimTime};
use pwnd_telemetry::TelemetrySink;
use pwnd_webmail::account::AccountId;
use pwnd_webmail::mailbox::Folder;
use pwnd_webmail::service::{
    LoginError, OpError, SendError, ServiceConfig, SessionId, SignupError, WebmailService,
};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Per-account malware custody: the stealing C&C, the exfiltration time,
/// and the market's planned sale waves.
type SalesByAccount = BTreeMap<u32, (CncId, SimTime, Vec<Sale>)>;

/// A runnable experiment.
pub struct Experiment {
    config: ExperimentConfig,
    telemetry: TelemetrySink,
}

#[derive(Clone, Debug)]
enum Event {
    /// Execute visit `visit` of access plan `access`.
    Visit { access: usize, visit: usize },
    /// Scrape every account's activity page.
    Scrape,
    /// Daily script heartbeats.
    Heartbeat,
}

struct AccessState {
    plan: AccessPlan,
    actor: Actor,
}

/// What an access's actor carries from one visit to the next.
struct Actor {
    /// Device cookie, assigned at the first successful login.
    cookie: Option<CookieId>,
    /// Stable origin IP for city-origin identities.
    ip: Option<Ipv4Addr>,
    /// Password this actor knows (the leaked one, or their own after a
    /// hijack).
    known_password: String,
    /// Whether this actor's IP was pre-listed on the DNSBL.
    pre_blacklisted: bool,
    last_opened: Option<EmailId>,
}

struct HoneyAccount {
    id: AccountId,
    persona: Persona,
    address: String,
    password: String,
    outlet: OutletKind,
    site: String,
    russian: bool,
    advertised: Option<DecoyRegion>,
    leaked_at: SimTime,
}

impl Experiment {
    /// Create an experiment from a configuration. Telemetry starts
    /// disabled: the default run pays nothing for observability.
    pub fn new(config: ExperimentConfig) -> Experiment {
        Experiment {
            config,
            telemetry: TelemetrySink::disabled(),
        }
    }

    /// Attach a telemetry sink. The sink is threaded through every layer
    /// (event queue, webmail service, monitor, leak outlets) and collects
    /// metrics, trace records, and the span tree for the whole run.
    /// Telemetry never touches simulation RNG or state: enabling it
    /// cannot change the dataset a seed produces.
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Experiment {
        self.telemetry = sink;
        self
    }

    /// Run the experiment to completion and collect everything.
    pub fn run(self) -> RunOutput {
        let cfg = &self.config;
        let mut master = Rng::seed_from(cfg.seed);
        let mut rng_setup = master.fork(1);
        let mut rng_corpus = master.fork(2);
        let mut rng_leak = master.fork(3);
        let mut rng_attack = master.fork(4);
        let rng_scraper = master.fork(5);
        let mut rng_bl = master.fork(6);

        // --- Substrate -------------------------------------------------
        let geo = GeoDb::new();
        let plan = AddressPlan::new(&geo);
        let tor = TorDirectory::generate(cfg.tor_exits, &mut rng_setup);
        let geolocator = Geolocator::new(plan, geo.clone(), tor);
        let service_config = ServiceConfig {
            security: cfg.security_policy(),
            activity_page_capacity: cfg.activity_page_capacity,
            ..ServiceConfig::default()
        };
        let mut service = WebmailService::new(service_config, geolocator.clone());
        let mut runtime = ScriptRuntime::new(ScriptConfig::default());
        let mut collector = NotificationCollector::new();
        let mut scraper = Scraper::new(rng_scraper);
        let mut blacklist = Blacklist::new();
        service.set_telemetry(self.telemetry.clone());
        runtime.set_telemetry(self.telemetry.clone());
        collector.set_telemetry(self.telemetry.clone());
        scraper.set_telemetry(self.telemetry.clone());

        // The fault plan compiles from a salted copy of the master seed
        // and never touches the simulation streams forked above: with
        // `FaultProfile::none()` every consumer below sees an empty plan
        // and the run is byte-identical to one without the fault layer.
        let fault_plan = FaultPlan::compile(
            cfg.seed,
            &cfg.faults.profile,
            SimDuration::days(cfg.observation_days),
        );
        scraper.set_fault_plan(fault_plan.clone());
        scraper.set_retry_policy(cfg.faults.retry.clone());
        scraper.set_confirm_failures(cfg.faults.confirm_failures);
        collector.set_fault_plan(fault_plan.clone());
        runtime.set_fault_plan(fault_plan.clone());
        service.set_maintenance(fault_plan.maintenance_spans());

        // --- Account setup ----------------------------------------------
        let horizon = SimTime::ZERO + SimDuration::days(cfg.observation_days);
        let span = self.telemetry.span("corpus");
        let (mut accounts, d_a, extra_stopwords) = self.setup_accounts(
            &mut service,
            &mut runtime,
            &mut scraper,
            &mut rng_setup,
            &mut rng_corpus,
        );
        drop(span);

        // --- Leaks -------------------------------------------------------
        let span = self.telemetry.span("leaks");
        let (leaks, malware_sales, mut ground_truth) =
            self.leak_credentials(&mut accounts, &mut rng_leak);
        drop(span);

        // --- Attacker access plans ----------------------------------------
        let span = self.telemetry.span("attack-plans");
        let mut pools = IdentityPools::new(&geo);
        let mut accesses = self.build_accesses(
            &accounts,
            &malware_sales,
            horizon,
            &mut pools,
            &mut rng_attack,
        );
        if cfg.case_studies {
            accesses.extend(self.case_study_accesses(&accounts, &geo, &mut rng_attack));
        }
        drop(span);
        ground_truth.attempted_accesses = accesses.len();
        let mut states: Vec<AccessState> = accesses
            .into_iter()
            .map(|plan| {
                let account = &accounts[plan.account as usize];
                let pre_blacklisted = matches!(plan.identity.origin, OriginPolicy::City(_))
                    && rng_bl.chance(cfg.blacklist_prevalence);
                AccessState {
                    plan,
                    actor: Actor {
                        cookie: None,
                        ip: None,
                        known_password: account.password.clone(),
                        pre_blacklisted,
                        last_opened: None,
                    },
                }
            })
            .collect();

        // --- Event loop ----------------------------------------------------
        let loop_span = self.telemetry.span("event-loop");
        let mut queue: EventQueue<Event> = EventQueue::new()
            .with_telemetry(self.telemetry.clone())
            .with_labeler(|e| match e {
                Event::Visit { .. } => "visit",
                Event::Scrape => "scrape",
                Event::Heartbeat => "heartbeat",
            });
        let sched_span = self.telemetry.subspan("schedule", &[]);
        for (ai, st) in states.iter().enumerate() {
            for (vi, v) in st.plan.visits.iter().enumerate() {
                if v.start < horizon {
                    queue.schedule(
                        v.start,
                        Event::Visit {
                            access: ai,
                            visit: vi,
                        },
                    );
                }
            }
        }
        queue.schedule(SimTime::ZERO + SimDuration::hours(1), Event::Scrape);
        queue.schedule(SimTime::ZERO + SimDuration::minutes(30), Event::Heartbeat);
        drop(sched_span);

        let scrape_gap = SimDuration::hours(cfg.scrape_interval_hours);
        while let Some((t, ev)) = queue.pop() {
            if t >= horizon {
                break;
            }
            // Attribute the dispatch — including the notification drain
            // below — to its event kind, and for visits to the acting
            // attacker class (Figure 5's taxonomy).
            let ev_span = match &ev {
                Event::Visit { access, .. } => self.telemetry.subspan(
                    "event",
                    &[
                        ("kind", "visit"),
                        ("class", states[*access].plan.class.label()),
                    ],
                ),
                Event::Scrape => self.telemetry.subspan("event", &[("kind", "scrape")]),
                Event::Heartbeat => self.telemetry.subspan("event", &[("kind", "heartbeat")]),
            };
            ev_span.sim(t.as_secs());
            match ev {
                Event::Scrape => {
                    let scrape_span = self.telemetry.span("scrape");
                    scraper.scrape_all(&mut service, t);
                    drop(scrape_span);
                    queue.schedule(t + scrape_gap, Event::Scrape);
                }
                Event::Heartbeat => {
                    runtime.heartbeat_tick(t, &mut service, &mut collector);
                    queue.schedule(t + SimDuration::days(1), Event::Heartbeat);
                }
                Event::Visit { access, visit } => {
                    execute_visit(
                        &mut states[access],
                        visit,
                        &accounts,
                        &mut service,
                        &mut runtime,
                        &geolocator,
                        &mut blacklist,
                        &mut rng_attack,
                        horizon,
                    );
                }
            }
            let events = service.drain_events();
            runtime.process_events(&events, &mut service, &mut collector);
            drop(ev_span);
        }
        // One final scrape right at the horizon, as the researchers would
        // do before ending data collection.
        let scrape_span = self.telemetry.span("scrape");
        scraper.scrape_all(&mut service, horizon);
        drop(scrape_span);
        scraper.finish(horizon);
        drop(loop_span);

        // --- Ground truth ---------------------------------------------------
        for acct in &accounts {
            let rec = service.account(acct.id);
            if rec.is_hijacked() {
                ground_truth.hijacked_accounts.push(acct.id.0);
            }
            if let pwnd_webmail::account::AccountState::Blocked { at } = rec.state {
                ground_truth
                    .blocked_accounts
                    .push((acct.id.0, at.as_days_f64()));
            }
            ground_truth
                .provider_access_counts
                .push((acct.id.0, service.total_accesses_recorded(acct.id)));
            for q in service.query_log(acct.id) {
                ground_truth.searched_queries.push(q.query.clone());
            }
            if !runtime.is_alive(acct.id) {
                ground_truth.scripts_deleted.push(acct.id.0);
            }
        }
        ground_truth.sinkholed_messages = service.sinkhole().len();
        ground_truth.quota_notices_delivered = runtime.quota_notices_sent();
        ground_truth.notifications_lost = collector.lost_in_transit();
        ground_truth.duplicate_notifications = collector.duplicates_detected();

        // --- Dataset ----------------------------------------------------------
        let span = self.telemetry.span("dataset");
        let account_records: Vec<AccountRecord> = accounts
            .iter()
            .map(|a| AccountRecord {
                account: a.id.0,
                outlet: a.outlet.label().to_string(),
                advertised_region: a.advertised.map(|r| {
                    match r {
                        DecoyRegion::Uk => "UK",
                        DecoyRegion::Us => "US",
                    }
                    .to_string()
                }),
                leaked_at_secs: a.leaked_at.as_secs(),
                hijack_detected_secs: scraper.hijack_detected_at(a.id).map(|t| t.as_secs()),
                // Block detection is what the daily heartbeats are *for*
                // (§3.1: "to attest that the account was still functional
                // and had not been blocked by Google"): a heartbeat
                // silence longer than two days before the horizon means
                // the script stopped running — the account was suspended
                // (or, rarely, the script was found and deleted; the
                // researchers could not tell those apart either).
                block_detected_secs: collector.last_heartbeat(a.id).and_then(|hb| {
                    if horizon.since(hb) > SimDuration::days(2) {
                        Some((hb + SimDuration::days(1)).as_secs())
                    } else {
                        None
                    }
                }),
                // Filled in by the builder when gaps are tracked.
                coverage: None,
            })
            .collect();
        // Known monitoring blind windows, from all three sources. Only
        // assembled under a non-trivial profile: a fault-free run keeps
        // the legacy dataset shape (no gaps, no coverage fields).
        let mut builder = DatasetBuilder::new(&geolocator, scraper.take_sightings(), &collector)
            .with_accounts(account_records);
        if !fault_plan.is_none() {
            let mut gaps: Vec<GapRecord> = Vec::new();
            for &(acct, from, until) in scraper.gaps() {
                gaps.push(GapRecord {
                    account: acct.0,
                    kind: "scraper".to_string(),
                    from_secs: from.as_secs(),
                    until_secs: until.as_secs(),
                });
            }
            for acct in &accounts {
                for (from, until) in collector.heartbeat_gaps(acct.id, SimDuration::days(2)) {
                    gaps.push(GapRecord {
                        account: acct.id.0,
                        kind: "heartbeat".to_string(),
                        from_secs: from.as_secs(),
                        until_secs: until.as_secs(),
                    });
                }
                for w in fault_plan.maintenance_windows() {
                    gaps.push(GapRecord {
                        account: acct.id.0,
                        kind: "maintenance".to_string(),
                        from_secs: w.start.as_secs(),
                        until_secs: w.end.as_secs(),
                    });
                }
            }
            gaps.sort_by(|a, b| {
                (a.account, a.from_secs, a.until_secs, &a.kind).cmp(&(
                    b.account,
                    b.from_secs,
                    b.until_secs,
                    &b.kind,
                ))
            });
            ground_truth.monitoring_gaps = gaps.len();
            builder = builder.with_gaps(gaps, horizon.as_secs());
        }
        let dataset: Dataset = builder.build();
        drop(span);

        RunOutput {
            dataset,
            ground_truth,
            leaks,
            corpus_text: d_a,
            extra_stopwords,
            blacklist,
            telemetry: self.telemetry.clone(),
        }
    }

    fn setup_accounts(
        &self,
        service: &mut WebmailService,
        runtime: &mut ScriptRuntime,
        scraper: &mut Scraper,
        rng_setup: &mut Rng,
        rng_corpus: &mut Rng,
    ) -> (Vec<HoneyAccount>, TermCounts, Vec<String>) {
        let cfg = &self.config;
        let mut factory = PersonaFactory::new();
        let mut generator = CorpusGenerator::with_archetype(cfg.archetype);
        let mut accounts: Vec<HoneyAccount> = Vec::new();
        // Document `d_A` counts words as written: the honey and peer names
        // only become stop terms once every persona exists, and
        // `TfidfTable::build` drops them then.
        let mut d_a = TermCounts::new();
        let mut stopwords: Vec<String> =
            vec!["honeymail".into(), "example".into(), "meridianpower".into()];

        // Peer personas: the "colleagues" honey accounts exchange mail
        // with. Not honey accounts themselves.
        let peers: Vec<Persona> = factory.generate_batch(12, |_| None, rng_setup);

        // Setup happened in the weeks before the leak.
        let creation_time = SimTime::ZERO;
        let mut signup_ip = AddressPlan::sample_infra(rng_setup);

        for group in &cfg.plan.groups {
            for i in 0..group.count {
                let region = if group.with_location {
                    Some(if i % 2 == 0 {
                        DecoyRegion::Uk
                    } else {
                        DecoyRegion::Us
                    })
                } else {
                    None
                };
                // Sub-phase attribution: persona + signup ("addresses"),
                // email synthesis with the mailbox's TF-IDF `d_A` counts
                // ("bodies"), the decoys' `d_A` counting ("vocab"), and
                // mailbox/rule/script insertion ("index"). Guards never
                // reorder the RNG draws they wrap.
                let (persona, address, password, id) = {
                    let _stage = self.telemetry.subspan("addresses", &[]);
                    let persona = factory.generate(region, rng_setup);
                    let address = persona.webmail_address();
                    let password = format!("hp-{:08x}", rng_setup.next_u64() as u32);

                    // Account creation hits the provider's per-IP signup
                    // rate limit; complete phone verification and
                    // continue, as the researchers did manually.
                    let id = loop {
                        match service.create_account(&address, &password, signup_ip, creation_time)
                        {
                            Ok(id) => break id,
                            Err(SignupError::PhoneVerificationRequired) => {
                                service.complete_phone_verification(signup_ip);
                                signup_ip = AddressPlan::sample_infra(rng_setup);
                            }
                            Err(SignupError::AddressTaken) => {
                                unreachable!("persona handles are unique")
                            }
                        }
                    };
                    (persona, address, password, id)
                };

                let mailbox = {
                    let _stage = self.telemetry.subspan("bodies", &[]);
                    generator.generate_mailbox(
                        &persona,
                        &peers,
                        cfg.min_emails,
                        cfg.max_emails,
                        rng_corpus,
                        &mut d_a,
                    )
                };
                let mailbox_len = mailbox.emails.len();
                {
                    let _stage = self.telemetry.subspan("index", &[]);
                    service.seed_mailbox(id, mailbox);
                }
                if cfg.seed_decoys {
                    let decoys = {
                        let _stage = self.telemetry.subspan("bodies", &[]);
                        generate_decoys(&persona, 5_000_000 + id.0 as u64 * 10, rng_corpus)
                    };
                    {
                        let _stage = self.telemetry.subspan("vocab", &[]);
                        for d in &decoys {
                            d_a.add_email(&d.email);
                        }
                    }
                    let _stage = self.telemetry.subspan("index", &[]);
                    for d in decoys {
                        service.deliver(id, d.email);
                    }
                }
                let index_stage = self.telemetry.subspan("index", &[]);
                service.set_send_from_override(id, "sinkhole@monitor.example");
                // A lived-in mailbox has a couple of owner rules (§2).
                // They are installed after seeding, so they never touch
                // the seeded mail; only mail delivered later (an
                // external service's registration confirmation) runs
                // through them.
                service.add_rule(
                    id,
                    pwnd_webmail::rules::Rule {
                        matcher: pwnd_webmail::rules::Matcher::SubjectContains("report".into()),
                        action: pwnd_webmail::rules::RuleAction::ApplyLabel("reports".into()),
                    },
                );
                if rng_setup.chance(0.5) {
                    service.add_rule(
                        id,
                        pwnd_webmail::rules::Rule {
                            matcher: pwnd_webmail::rules::Matcher::SubjectContains(
                                "meeting".into(),
                            ),
                            action: pwnd_webmail::rules::RuleAction::ApplyLabel("meetings".into()),
                        },
                    );
                }
                runtime.install(id, ScriptLocation::HiddenSpreadsheet);
                // The polling trigger reads the whole mailbox: its daily
                // cost scales with mailbox size, so only the largest
                // mailboxes (≈ 299+ messages) persistently exceed the
                // 90-minute quota — reproducing the paper's "two accounts
                // received 'too much computer time' notices".
                runtime.set_polling_cost(id, 1_800.0 + 12.1 * mailbox_len as f64);
                scraper.register(id, &password);
                drop(index_stage);

                stopwords.push(persona.first.to_lowercase());
                stopwords.push(persona.last.to_lowercase());

                accounts.push(HoneyAccount {
                    id,
                    address,
                    password,
                    outlet: group.kind,
                    site: String::new(),
                    russian: false,
                    advertised: region,
                    leaked_at: SimTime::ZERO,
                    persona,
                });
            }
        }
        for p in &peers {
            stopwords.push(p.first.to_lowercase());
            stopwords.push(p.last.to_lowercase());
        }
        stopwords.sort_unstable();
        stopwords.dedup();
        (accounts, d_a, stopwords)
    }

    fn leak_credentials(
        &self,
        accounts: &mut [HoneyAccount],
        rng: &mut Rng,
    ) -> (Vec<LeakRecord>, SalesByAccount, GroundTruth) {
        let cfg = &self.config;
        let popular = PasteSite::popular();
        let russian = PasteSite::russian();
        let forums = Forum::all();
        let mut ground_truth = GroundTruth::default();

        // Malware pipeline: pool → liveness test → assign one live sample
        // per account, cycling; the campaign runs the sandbox cycles back
        // to back and keeps the full VM log.
        let pool = sample_pool(200, 12, rng);
        let live = liveness_filter(pool);
        assert!(!live.is_empty(), "liveness filter must keep some samples");
        let mut campaign = Campaign::new(Sandbox::default());
        campaign.set_telemetry(self.telemetry.clone());
        let market = Market::default();

        let mut leaks = Vec::new();
        // Per-forum credential samples, batched into one teaser thread
        // per forum (the Stone-Gross modus operandi).
        let mut forum_samples: std::collections::BTreeMap<&'static str, Vec<(String, SimTime)>> =
            std::collections::BTreeMap::new();
        let mut paste_idx = 0usize;
        let mut russian_left_in_group;
        let mut forum_idx = 0usize;
        let mut malware_cycle = 0u64;
        let mut acct_cursor = 0usize;

        for group in &cfg.plan.groups {
            russian_left_in_group = group.russian_paste;
            for _ in 0..group.count {
                let account = &mut accounts[acct_cursor];
                acct_cursor += 1;
                // Small stagger: postings spread over the leak day.
                let at = SimTime::ZERO + SimDuration::minutes(10 * acct_cursor as u64);
                let advertised = account
                    .advertised
                    .map(|r| (r, account.persona.home_city.name.to_string()));
                let content = LeakContent {
                    address: account.address.clone(),
                    password: account.password.clone(),
                    advertised,
                    dob: account.advertised.map(|_| account.persona.dob.to_string()),
                };
                let (site, russian, leak_at) = match group.kind {
                    OutletKind::Paste => {
                        if russian_left_in_group > 0 {
                            russian_left_in_group -= 1;
                            let s = &russian[paste_idx % russian.len()];
                            paste_idx += 1;
                            (s.name.to_string(), true, at)
                        } else {
                            let s = &popular[paste_idx % popular.len()];
                            paste_idx += 1;
                            (s.name.to_string(), false, at)
                        }
                    }
                    OutletKind::Forum => {
                        let f = &forums[forum_idx % forums.len()];
                        forum_idx += 1;
                        forum_samples
                            .entry(f.name)
                            .or_default()
                            .push((content.render(), at));
                        (f.name.to_string(), false, at)
                    }
                    OutletKind::Malware => {
                        // One sandbox cycle per credential, back to back.
                        let sample = &live[malware_cycle as usize % live.len()];
                        let start = SimTime::ZERO + SimDuration::hours(malware_cycle);
                        malware_cycle += 1;
                        match campaign.expose(sample, account.id.0, start) {
                            InfectionOutcome::Exfiltrated { cnc, at } => {
                                (format!("{}@{:?}", sample.family.label(), cnc), false, at)
                            }
                            // Liveness-filtered samples always exfiltrate.
                            other => unreachable!("live sample failed: {other:?}"),
                        }
                    }
                };
                account.site = site.clone();
                account.russian = russian;
                account.leaked_at = leak_at;
                leaks.push(LeakRecord {
                    account: account.id.0,
                    kind: group.kind,
                    site,
                    at: leak_at,
                    content,
                    russian,
                });
            }
        }

        // Post the forum teaser threads: register a seller per forum,
        // post one thread carrying that forum's samples, and collect the
        // inquiries into the seller's PM inbox (logged, never answered).
        for forum in &forums {
            let Some(samples) = forum_samples.remove(forum.name) else {
                continue;
            };
            let posted_at = samples.iter().map(|&(_, t)| t).min().expect("non-empty");
            let seller = SellerAccount::register(forum, SimTime::ZERO, rng);
            let lines = samples.into_iter().map(|(l, _)| l).collect();
            let thread = TeaserThread::post(&seller, lines, posted_at, rng);
            let inquiries = generate_inquiries(forum, posted_at, rng);
            for inq in &inquiries {
                self.telemetry.count("leak.forum_inquiries");
                self.telemetry
                    .trace_with(inq.at.as_secs(), "forum_inquiry", None, || {
                        format!("{} on {}", inq.from_handle, forum.name)
                    });
            }
            ground_truth.inquiries.extend(inquiries);
            ground_truth.sellers.push(seller);
            ground_truth.teaser_threads.push(thread);
        }

        // Market sales per C&C (the campaign's loot map is ordered).
        let mut sales_per_account: SalesByAccount = BTreeMap::new();
        for (&cnc, loot) in campaign.loot() {
            let (sales, _unsold) = market.plan_sales(loot.entries(), rng);
            for sale in &sales {
                self.telemetry.count("leak.market_sales");
                self.telemetry
                    .trace_with(sale.at.as_secs(), "market_sale", None, || {
                        format!(
                            "cnc={} wave={} accounts={}",
                            cnc.0,
                            sale.wave,
                            sale.accounts.len()
                        )
                    });
            }
            for &(acct, stolen_at) in loot.entries() {
                sales_per_account.insert(acct, (cnc, stolen_at, sales.clone()));
            }
        }
        ground_truth.malware_cycles = campaign.log().to_vec();
        (leaks, sales_per_account, ground_truth)
    }

    fn build_accesses(
        &self,
        accounts: &[HoneyAccount],
        malware_sales: &SalesByAccount,
        horizon: SimTime,
        pools: &mut IdentityPools<'_>,
        rng: &mut Rng,
    ) -> Vec<AccessPlan> {
        let popular = PasteSite::popular();
        let russian = PasteSite::russian();
        let forums = Forum::all();
        let mut out = Vec::new();
        for account in accounts {
            match account.outlet {
                OutletKind::Paste => {
                    let sites: &[PasteSite] = if account.russian { &russian } else { &popular };
                    let site = sites
                        .iter()
                        .find(|s| s.name == account.site)
                        .expect("leak site known");
                    let profile = self.profile_for(OutletProfile::paste());
                    for t in paste_arrivals(site, account.leaked_at, horizon, rng) {
                        self.telemetry.count_labeled("leak.paste_views", site.name);
                        self.telemetry.trace_with(
                            t.as_secs(),
                            "paste_view",
                            Some(account.id.0),
                            || site.name.to_string(),
                        );
                        out.push(build_access_plan(
                            &profile,
                            account.id.0,
                            account.advertised,
                            t,
                            pools,
                            rng,
                        ));
                    }
                }
                OutletKind::Forum => {
                    let forum = forums
                        .iter()
                        .find(|f| f.name == account.site)
                        .expect("leak forum known");
                    let profile = self.profile_for(OutletProfile::forum());
                    for t in forum_arrivals(forum, account.leaked_at, horizon, rng) {
                        out.push(build_access_plan(
                            &profile,
                            account.id.0,
                            account.advertised,
                            t,
                            pools,
                            rng,
                        ));
                    }
                }
                OutletKind::Malware => {
                    let (_, stolen_at, sales) = &malware_sales[&account.id.0];
                    let botmaster = self.profile_for(OutletProfile::malware());
                    let buyer = self.profile_for(OutletProfile::malware_buyer());
                    for a in malware_arrivals(account.id.0, *stolen_at, sales, horizon, rng) {
                        let profile = if a.buyer { &buyer } else { &botmaster };
                        out.push(build_access_plan(
                            profile,
                            account.id.0,
                            None,
                            a.at,
                            pools,
                            rng,
                        ));
                    }
                }
            }
        }
        out
    }

    /// Specialize an outlet profile to the configured scenario.
    fn profile_for(&self, base: OutletProfile) -> OutletProfile {
        match self.config.archetype {
            pwnd_corpus::archetype::Archetype::CorporateEmployee => base,
            pwnd_corpus::archetype::Archetype::Activist => base.targeting_activists(),
        }
    }

    fn case_study_accesses(
        &self,
        accounts: &[HoneyAccount],
        geo: &GeoDb,
        rng: &mut Rng,
    ) -> Vec<AccessPlan> {
        // The blackmailer used three accounts; pick the first three
        // popular-paste accounts. The registrar used one forum account.
        let paste_targets: Vec<u32> = accounts
            .iter()
            .filter(|a| a.outlet == OutletKind::Paste && !a.russian)
            .take(3)
            .map(|a| a.id.0)
            .collect();
        let forum_target = accounts
            .iter()
            .find(|a| a.outlet == OutletKind::Forum)
            .map(|a| a.id.0);
        let mut out = case_studies::blackmailer_plans(
            &paste_targets,
            SimTime::ZERO + SimDuration::days(3),
            geo,
            rng,
        );
        if let Some(acct) = forum_target {
            out.push(case_studies::forum_registrar_plan(
                acct,
                SimTime::ZERO + SimDuration::days(20),
                geo,
                rng,
            ));
        }
        out
    }
}

/// Execute one visit of one access plan against the service.
#[allow(clippy::too_many_arguments)]
fn execute_visit(
    state: &mut AccessState,
    visit_idx: usize,
    accounts: &[HoneyAccount],
    service: &mut WebmailService,
    runtime: &mut ScriptRuntime,
    geolocator: &Geolocator,
    blacklist: &mut Blacklist,
    rng: &mut Rng,
    horizon: SimTime,
) {
    let AccessState { plan, actor } = state;
    let visit = &plan.visits[visit_idx];
    let account = &accounts[plan.account as usize];

    // Resolve the origin IP: Tor picks a fresh exit per login; a fixed
    // city keeps a stable address (same device, same network).
    let ip = match plan.identity.origin {
        OriginPolicy::Tor => geolocator.tor().sample_exit(rng),
        OriginPolicy::City(city) => match actor.ip {
            Some(ip) => ip,
            None => {
                let ip = geolocator.sample_host_in_city(city, rng);
                if actor.pre_blacklisted {
                    // An already-infected residential machine: listed
                    // before our experiment ever saw it.
                    blacklist.list(ip, SimTime::ZERO, ListingReason::InfectedHost);
                }
                actor.ip = Some(ip);
                ip
            }
        },
    };
    let mut conn = ConnectionInfo::new(
        ip,
        plan.identity.client.clone(),
        match plan.identity.origin {
            OriginPolicy::Tor => plan.identity.home_city.point,
            OriginPolicy::City(c) => c.point,
        },
    );
    if let Some(cookie) = actor.cookie {
        conn = conn.with_cookie(cookie);
    }

    let session = match service.login(&account.address, &actor.known_password, &conn, visit.start) {
        Ok((session, cookie)) => {
            actor.cookie = Some(cookie);
            session
        }
        // Someone else hijacked the account, the provider blocked it or
        // is down for maintenance, or (filter-enabled ablation) the
        // login looked too suspicious. Attackers don't retry a visit.
        Err(
            LoginError::BadCredentials
            | LoginError::AccountBlocked
            | LoginError::SuspiciousLogin
            | LoginError::Maintenance,
        ) => {
            return;
        }
    };

    // Spread actions across the visit.
    let n = visit.actions.len().max(1) as u64;
    let step = (visit.length.as_secs() / (n + 1)).max(1);
    let mut t = visit.start;
    let id = AccountId(plan.account);
    for action in &visit.actions {
        t += SimDuration::from_secs(step);
        if t >= horizon {
            break;
        }
        if run_action(actor, id, action, session, service, runtime, rng, t).is_err() {
            break; // account blocked mid-visit
        }
    }
}

// The event loop's per-event dispatch: one call = one simulated action.
#[allow(clippy::too_many_arguments)]
fn run_action(
    actor: &mut Actor,
    account: AccountId,
    action: &Action,
    session: SessionId,
    service: &mut WebmailService,
    runtime: &mut ScriptRuntime,
    rng: &mut Rng,
    t: SimTime,
) -> Result<(), ()> {
    let blocked = |e: OpError| match e {
        OpError::AccountBlocked | OpError::InvalidSession => Err(()),
        OpError::NoSuchEmail => Ok(()),
    };
    match action {
        Action::ListInbox => {
            service
                .list_folder(session, Folder::Inbox)
                .map_err(|_| ())?;
        }
        Action::Search { query, open_top } => {
            let hits = match service.search(session, query, t) {
                Ok(h) => h,
                Err(e) => return blocked(e),
            };
            for &id in hits.iter().take(*open_top) {
                match service.open_email(session, id, t) {
                    Ok(()) => actor.last_opened = Some(id),
                    Err(e) => return blocked(e),
                }
            }
        }
        Action::OpenUnread { max } => {
            let inbox = match service.list_folder(session, Folder::Inbox) {
                Ok(v) => v,
                Err(e) => return blocked(e),
            };
            for &id in inbox.iter().take(*max) {
                match service.open_email(session, id, t) {
                    Ok(()) => actor.last_opened = Some(id),
                    Err(e) => return blocked(e),
                }
            }
        }
        Action::OpenDrafts { max } => {
            let drafts = match service.list_folder(session, Folder::Drafts) {
                Ok(v) => v,
                Err(e) => return blocked(e),
            };
            for &id in drafts.iter().take(*max) {
                match service.open_email(session, id, t) {
                    Ok(()) => actor.last_opened = Some(id),
                    Err(e) => return blocked(e),
                }
            }
        }
        Action::StarLastOpened => {
            if let Some(id) = actor.last_opened {
                if let Err(e) = service.star_email(session, id, t) {
                    return blocked(e);
                }
            }
        }
        Action::CreateDraft { to, subject, body } => {
            if let Err(e) = service.create_draft(session, to, subject, body, t) {
                return blocked(e);
            }
        }
        Action::SendEmail { to, subject, body } => {
            match service.send_email(session, to, subject, body, t) {
                Ok(_) | Err(SendError::NoRecipients) => {}
                Err(SendError::Op(e)) => return blocked(e),
            }
        }
        Action::SendBurst {
            count,
            subject,
            body,
            interval_secs,
        } => {
            let mut st = t;
            for _ in 0..*count {
                // Each burst message gets a fresh unique recipient.
                let to = [format!(
                    "mark{:06x}@spamlist.example",
                    rng.next_u64() as u32
                )];
                match service.send_email(session, &to, subject, body, st) {
                    Ok(_) => {}
                    Err(SendError::Op(_)) => return Err(()), // blocked: burst over
                    Err(SendError::NoRecipients) => unreachable!(),
                }
                st += SimDuration::from_secs(*interval_secs);
            }
        }
        Action::ChangePassword { new_password } => {
            match service.change_password(session, new_password, t) {
                Ok(()) => actor.known_password = new_password.clone(),
                Err(e) => return blocked(e),
            }
        }
        Action::Rummage { intensity } => {
            // Effective discovery probability = base × intensity.
            let roll = if *intensity > 0.0 {
                rng.f64() / intensity
            } else {
                1.0
            };
            let _found = runtime.attacker_rummage(account, roll);
        }
        Action::RegisterExternal { service: svc_name } => {
            // The external service emails a registration confirmation
            // into the honey inbox; the attacker then reads it (the next
            // OpenUnread in the plan).
            let addr = service.account(account).address.clone();
            service.deliver(
                account,
                Email {
                    id: EmailId(30_000_000 + account.0 as u64),
                    from: format!("no-reply@{svc_name}"),
                    to: vec![addr],
                    subject: format!("Welcome to {svc_name} - confirm your registration"),
                    body: "Click the confirmation link to activate your forum account.".into(),
                    timestamp: MailTime::from_sim(t),
                },
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn quick_experiment_produces_plausible_world() {
        let out = Experiment::new(ExperimentConfig::quick(7)).run();
        // 100 accounts, Table 1 groups intact.
        assert_eq!(out.dataset.accounts.len(), 100);
        assert_eq!(out.leaks.len(), 100);
        // Accesses happened and were observed.
        assert!(
            out.dataset.accesses.len() > 50,
            "{}",
            out.dataset.accesses.len()
        );
        // Spam was sent and sinkholed, never delivered.
        assert!(out.ground_truth.sinkholed_messages > 0);
        // Some accounts got hijacked, some blocked.
        assert!(!out.ground_truth.hijacked_accounts.is_empty());
        assert!(!out.ground_truth.blocked_accounts.is_empty());
        // Attackers really searched (provider-side ground truth).
        assert!(!out.ground_truth.searched_queries.is_empty());
        // Corpus text exists for TF-IDF.
        assert!(out.corpus_text.len() > 10_000);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = Experiment::new(ExperimentConfig::quick(99)).run();
        let b = Experiment::new(ExperimentConfig::quick(99)).run();
        assert_eq!(a.dataset.accesses.len(), b.dataset.accesses.len());
        assert_eq!(a.dataset.accesses, b.dataset.accesses);
        assert_eq!(
            a.ground_truth.sinkholed_messages,
            b.ground_truth.sinkholed_messages
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = Experiment::new(ExperimentConfig::quick(1)).run();
        let b = Experiment::new(ExperimentConfig::quick(2)).run();
        assert_ne!(a.dataset.accesses, b.dataset.accesses);
    }

    #[test]
    fn fault_machinery_does_not_perturb_a_fault_free_run() {
        use crate::config::FaultSettings;
        use pwnd_faults::RetryPolicy;

        // The retry machinery must be inert while no faults fire: retries
        // only trigger on transient failures, which a none profile never
        // produces, so even an aggressive policy leaves the published
        // artifact byte-identical. (confirm_failures is deliberately NOT
        // inert — raising it defers detection of *genuine* hijacks by
        // extra scrape sweeps — so only its default of 1 preserves the
        // historical output.)
        let plain = Experiment::new(ExperimentConfig::quick(42)).run();
        let mut cfg = ExperimentConfig::quick(42);
        cfg.faults = FaultSettings {
            retry: RetryPolicy {
                max_attempts: 8,
                ..RetryPolicy::default()
            },
            ..FaultSettings::default()
        };
        let hardened = Experiment::new(cfg).run();
        assert_eq!(plain.dataset_json(), hardened.dataset_json());
        assert_eq!(hardened.ground_truth.notifications_lost, 0);
        assert_eq!(hardened.ground_truth.duplicate_notifications, 0);
        assert_eq!(hardened.ground_truth.monitoring_gaps, 0);
        // And the legacy JSON shape is preserved exactly.
        assert!(!plain.dataset_json().contains("\"coverage\""));
        assert!(!plain.dataset_json().contains("\"gaps\""));
    }

    #[test]
    fn faulted_runs_are_reproducible_and_report_coverage() {
        use crate::config::FaultSettings;
        use pwnd_faults::FaultProfile;

        let cfg = || {
            let mut c = ExperimentConfig::quick(42);
            c.faults = FaultSettings {
                profile: FaultProfile::heavy(),
                confirm_failures: 3,
                ..FaultSettings::default()
            };
            c
        };
        let a = Experiment::new(cfg()).run();
        let b = Experiment::new(cfg()).run();
        assert_eq!(a.dataset_json(), b.dataset_json());
        // The heavy profile visibly degrades monitoring...
        assert!(a.ground_truth.notifications_lost > 0);
        assert!(a.ground_truth.monitoring_gaps > 0);
        assert!(a
            .dataset
            .accounts
            .iter()
            .any(|m| m.coverage.is_some_and(|c| c < 1.0)));
        // ...and every coverage fraction is a sane [0, 1] value.
        assert!(a
            .dataset
            .accounts
            .iter()
            .all(|m| m.coverage.is_some_and(|c| (0.0..=1.0).contains(&c))));
    }

    #[test]
    fn telemetry_does_not_perturb_the_run() {
        // A traced run of quick(42) and the JSONL bytes its trace
        // streamed.
        let traced_run = || {
            let bytes = Arc::new(Mutex::new(String::new()));
            let out = Arc::clone(&bytes);
            let sink = TelemetrySink::with_trace(move |e| {
                let mut out = out.lock().unwrap();
                e.write_json_line(&mut out);
                out.push('\n');
            });
            let run = Experiment::new(ExperimentConfig::quick(42))
                .with_telemetry(sink)
                .run();
            let trace = std::mem::take(&mut *bytes.lock().unwrap());
            (run, trace)
        };
        let plain = Experiment::new(ExperimentConfig::quick(42)).run();
        let (traced, trace) = traced_run();
        // The published artifact must be byte-identical whether or not
        // the run was instrumented.
        assert_eq!(plain.dataset_json(), traced.dataset_json());

        // Two instrumented runs of the same seed agree on every metric
        // (report equality ignores wall-clock span totals) and stream
        // the same trace, byte for byte.
        let (traced2, trace2) = traced_run();
        assert_eq!(traced.telemetry_report(), traced2.telemetry_report());
        assert_eq!(trace, trace2);

        // And the instrumentation actually observed the run.
        let report = traced.telemetry_report();
        assert!(report.counter("sim.events_dispatched") > 0);
        assert!(report.counter("webmail.logins") > 0);
        assert!(report.counter("monitor.scrapes") > 0);
        assert_eq!(report.trace_events, trace.lines().count() as u64);
        assert!(report.trace_events > 0);

        // The span tree's deterministic structure — paths, entry
        // counts, sim ranges — is identical run to run, and a disabled
        // sink recorded no tree at all (the no-op contract extends to
        // hierarchical spans).
        let report2 = traced2.telemetry_report();
        assert_eq!(report.spans.structure(), report2.spans.structure());
        assert!(plain.telemetry_report().spans.is_empty());
        let events = report
            .spans
            .nodes
            .iter()
            .filter(|n| n.leaf_base() == "event" && n.parent_path() == Some("event-loop"))
            .count();
        assert!(events >= 3, "event kinds attributed under the loop");
        // The sim-annotated root phase leaves its deterministic span
        // trace event (path + sim range, no wall clock).
        assert!(trace
            .lines()
            .any(|l| l.contains(r#""kind":"span","detail":"event-loop sim="#)));
    }
}
