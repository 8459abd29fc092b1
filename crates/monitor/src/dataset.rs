//! The parsed access-metadata dataset.
//!
//! The paper publishes "a dataset containing the parsed metadata of the
//! accesses received from our honey accounts". [`DatasetBuilder`] produces
//! the equivalent: it folds the scraper's archived activity pages and the
//! collector's script notifications into one [`ParsedAccess`] record per
//! (account, cookie) pair, then applies the paper's §4.1 filters —
//! dropping accesses made from the monitoring infrastructure's IPs and
//! from the city where the infrastructure is located.
//!
//! Activity rows stay typed through the fold: each cookie keeps the row
//! visited last (the newest row of the latest page), the filters test its
//! address and city as they are, and strings are made once, only for
//! the accesses that survive.
//!
//! The dataset is the *censored* view: hijacked accounts contribute
//! nothing after the hijack (the scraper is locked out), blocked accounts
//! nothing after the block, and an access that only ever appeared in the
//! activity-page ring between two scrapes is lost. Analyses operate on
//! this view, exactly as the paper's did.

use crate::collector::{NotificationCollector, NotificationKind};
use pwnd_net::geolocate::{Geolocator, INFRA_CITY};
use pwnd_net::ip::AddressPlan;
use pwnd_telemetry::json::{Json, JsonError};
use pwnd_webmail::account::AccountId;
use pwnd_webmail::activity::ActivityRow;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// One unique access: a device cookie observed on a honey account.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedAccess {
    /// Account index.
    pub account: u32,
    /// Cookie identifier.
    pub cookie: u64,
    /// First time this cookie was observed (seconds since epoch).
    pub first_seen_secs: u64,
    /// Last time this cookie was observed.
    pub last_seen_secs: u64,
    /// Source IP (dotted quad), `0.0.0.0` when no activity row survived.
    pub ip: String,
    /// Geolocated country code, if any.
    pub country: Option<String>,
    /// Geolocated city name.
    pub city: String,
    /// Geolocated latitude.
    pub lat: f64,
    /// Geolocated longitude.
    pub lon: f64,
    /// Fingerprinted browser label.
    pub browser: String,
    /// Fingerprinted OS label.
    pub os: String,
    /// Whether the source IP is a Tor exit.
    pub via_tor: bool,
    /// Emails opened by this cookie (from notifications).
    pub opened: u32,
    /// Emails sent by this cookie.
    pub sent: u32,
    /// Drafts created by this cookie.
    pub drafts: u32,
    /// Emails starred by this cookie.
    pub starred: u32,
    /// Whether this access is charged with the account's password change.
    pub hijacker: bool,
    /// Whether at least one scraped activity row backed this record (if
    /// not, location fields are placeholders).
    pub has_location_row: bool,
}

impl ParsedAccess {
    /// Access duration: `t_last − t_0`, in seconds. A lower bound, as the
    /// paper notes (observation stops at hijack/block).
    pub fn duration_secs(&self) -> u64 {
        self.last_seen_secs.saturating_sub(self.first_seen_secs)
    }
}

/// Per-account metadata attached by the experiment driver.
#[derive(Clone, Debug, PartialEq)]
pub struct AccountRecord {
    /// Account index.
    pub account: u32,
    /// Leak outlet label (e.g. `"paste"`, `"forum"`, `"malware"`).
    pub outlet: String,
    /// Advertised decoy region (`"UK"` / `"US"`), when the leak included
    /// location information.
    pub advertised_region: Option<String>,
    /// When the credentials were leaked.
    pub leaked_at_secs: u64,
    /// When the scraper first observed a hijack, if ever.
    pub hijack_detected_secs: Option<u64>,
    /// When the scraper first observed a block, if ever.
    pub block_detected_secs: Option<u64>,
    /// Fraction of this account's observation window (leak to
    /// detection/horizon) not covered by a known monitoring gap.
    /// `None` when the run tracked no gaps (fault-free runs omit the
    /// field entirely from exports, keeping them byte-identical to
    /// pre-coverage output).
    pub coverage: Option<f64>,
}

/// One known monitoring blind window, attributed to its cause.
#[derive(Clone, Debug, PartialEq)]
pub struct GapRecord {
    /// Account index.
    pub account: u32,
    /// What caused the gap: `"scraper"` (outage, give-up, or unconfirmed
    /// failure stretch), `"heartbeat"` (script dead window), or
    /// `"maintenance"` (provider downtime).
    pub kind: String,
    /// Gap start (seconds).
    pub from_secs: u64,
    /// Gap end (seconds).
    pub until_secs: u64,
}

/// The full published dataset.
#[derive(Clone, Debug, Default)]
pub struct Dataset {
    /// One record per unique (account, cookie) access, post-filtering.
    pub accesses: Vec<ParsedAccess>,
    /// One record per honey account.
    pub accounts: Vec<AccountRecord>,
    /// Text snapshots of every email the attackers opened (document `d_R`
    /// of the TF-IDF analysis).
    pub opened_texts: Vec<String>,
    /// Known monitoring blind windows (empty — and absent from exports —
    /// in fault-free runs).
    pub gaps: Vec<GapRecord>,
}

impl Dataset {
    /// Serialize to pretty JSON (the export format). The `gaps` key is
    /// emitted only when gaps were tracked, so fault-free exports are
    /// byte-identical to the pre-coverage format.
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            (
                "accesses".to_string(),
                Json::Arr(
                    self.accesses
                        .iter()
                        .map(ParsedAccess::to_json_value)
                        .collect(),
                ),
            ),
            (
                "accounts".to_string(),
                Json::Arr(
                    self.accounts
                        .iter()
                        .map(AccountRecord::to_json_value)
                        .collect(),
                ),
            ),
            (
                "opened_texts".to_string(),
                Json::Arr(
                    self.opened_texts
                        .iter()
                        .map(|t| Json::Str(t.clone()))
                        .collect(),
                ),
            ),
        ];
        if !self.gaps.is_empty() {
            fields.push((
                "gaps".to_string(),
                Json::Arr(self.gaps.iter().map(GapRecord::to_json_value).collect()),
            ));
        }
        Json::Obj(fields).pretty()
    }

    /// Accesses belonging to accounts with a given outlet label.
    pub fn accesses_for_outlet<'a>(
        &'a self,
        outlet: &'a str,
    ) -> impl Iterator<Item = &'a ParsedAccess> {
        let accounts: BTreeSet<u32> = self
            .accounts
            .iter()
            .filter(|a| a.outlet == outlet)
            .map(|a| a.account)
            .collect();
        self.accesses
            .iter()
            .filter(move |x| accounts.contains(&x.account))
    }

    /// The account record for an access.
    pub fn account_record(&self, account: u32) -> Option<&AccountRecord> {
        self.accounts.iter().find(|a| a.account == account)
    }

    /// Number of distinct accounts that received at least one access.
    pub fn accounts_with_accesses(&self) -> usize {
        self.accesses
            .iter()
            .map(|a| a.account)
            .collect::<BTreeSet<_>>()
            .len()
    }
}

fn type_err(field: &str, expected: &str) -> JsonError {
    JsonError {
        msg: format!("field {field}: expected {expected}"),
        at: 0,
    }
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, JsonError> {
    v.get(key).ok_or_else(|| JsonError {
        msg: format!("missing field {key}"),
        at: 0,
    })
}

fn u64_field(v: &Json, key: &str) -> Result<u64, JsonError> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| type_err(key, "integer"))
}

fn u32_field(v: &Json, key: &str) -> Result<u32, JsonError> {
    u32::try_from(u64_field(v, key)?).map_err(|_| type_err(key, "u32"))
}

fn f64_field(v: &Json, key: &str) -> Result<f64, JsonError> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| type_err(key, "number"))
}

fn str_field(v: &Json, key: &str) -> Result<String, JsonError> {
    field(v, key)?
        .as_str()
        .map(String::from)
        .ok_or_else(|| type_err(key, "string"))
}

fn bool_field(v: &Json, key: &str) -> Result<bool, JsonError> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| type_err(key, "bool"))
}

fn opt_str_field(v: &Json, key: &str) -> Result<Option<String>, JsonError> {
    let f = field(v, key)?;
    if f.is_null() {
        Ok(None)
    } else {
        f.as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| type_err(key, "string or null"))
    }
}

fn opt_u64_field(v: &Json, key: &str) -> Result<Option<u64>, JsonError> {
    let f = field(v, key)?;
    if f.is_null() {
        Ok(None)
    } else {
        f.as_u64()
            .map(Some)
            .ok_or_else(|| type_err(key, "integer or null"))
    }
}

fn opt_str_json(v: &Option<String>) -> Json {
    match v {
        Some(s) => Json::Str(s.clone()),
        None => Json::Null,
    }
}

impl ParsedAccess {
    pub(crate) fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            ("account".to_string(), Json::U(u64::from(self.account))),
            ("cookie".to_string(), Json::U(self.cookie)),
            ("first_seen_secs".to_string(), Json::U(self.first_seen_secs)),
            ("last_seen_secs".to_string(), Json::U(self.last_seen_secs)),
            ("ip".to_string(), Json::Str(self.ip.clone())),
            ("country".to_string(), opt_str_json(&self.country)),
            ("city".to_string(), Json::Str(self.city.clone())),
            ("lat".to_string(), Json::F(self.lat)),
            ("lon".to_string(), Json::F(self.lon)),
            ("browser".to_string(), Json::Str(self.browser.clone())),
            ("os".to_string(), Json::Str(self.os.clone())),
            ("via_tor".to_string(), Json::Bool(self.via_tor)),
            ("opened".to_string(), Json::U(u64::from(self.opened))),
            ("sent".to_string(), Json::U(u64::from(self.sent))),
            ("drafts".to_string(), Json::U(u64::from(self.drafts))),
            ("starred".to_string(), Json::U(u64::from(self.starred))),
            ("hijacker".to_string(), Json::Bool(self.hijacker)),
            (
                "has_location_row".to_string(),
                Json::Bool(self.has_location_row),
            ),
        ])
    }

    /// Parse one access from its JSON value (the `"value"` of an
    /// `"access"` JSONL line). Streaming consumers — the fleet store's
    /// `pwnd report` path — use this to process records one line at a
    /// time without materializing a [`Dataset`].
    pub fn from_json_value(v: &Json) -> Result<ParsedAccess, JsonError> {
        Ok(ParsedAccess {
            account: u32_field(v, "account")?,
            cookie: u64_field(v, "cookie")?,
            first_seen_secs: u64_field(v, "first_seen_secs")?,
            last_seen_secs: u64_field(v, "last_seen_secs")?,
            ip: str_field(v, "ip")?,
            country: opt_str_field(v, "country")?,
            city: str_field(v, "city")?,
            lat: f64_field(v, "lat")?,
            lon: f64_field(v, "lon")?,
            browser: str_field(v, "browser")?,
            os: str_field(v, "os")?,
            via_tor: bool_field(v, "via_tor")?,
            opened: u32_field(v, "opened")?,
            sent: u32_field(v, "sent")?,
            drafts: u32_field(v, "drafts")?,
            starred: u32_field(v, "starred")?,
            hijacker: bool_field(v, "hijacker")?,
            has_location_row: bool_field(v, "has_location_row")?,
        })
    }
}

impl AccountRecord {
    pub(crate) fn to_json_value(&self) -> Json {
        let mut fields = vec![
            ("account".to_string(), Json::U(u64::from(self.account))),
            ("outlet".to_string(), Json::Str(self.outlet.clone())),
            (
                "advertised_region".to_string(),
                opt_str_json(&self.advertised_region),
            ),
            ("leaked_at_secs".to_string(), Json::U(self.leaked_at_secs)),
            (
                "hijack_detected_secs".to_string(),
                self.hijack_detected_secs.map_or(Json::Null, Json::U),
            ),
            (
                "block_detected_secs".to_string(),
                self.block_detected_secs.map_or(Json::Null, Json::U),
            ),
        ];
        // Omitted (not null) when untracked: fault-free exports keep the
        // historical byte-exact shape.
        if let Some(c) = self.coverage {
            fields.push(("coverage".to_string(), Json::F(c)));
        }
        Json::Obj(fields)
    }

    /// Parse one account record from its JSON value (the `"value"` of
    /// an `"account"` JSONL line); see
    /// [`ParsedAccess::from_json_value`].
    pub fn from_json_value(v: &Json) -> Result<AccountRecord, JsonError> {
        let coverage = match v.get("coverage") {
            None => None,
            Some(f) if f.is_null() => None,
            Some(f) => Some(f.as_f64().ok_or_else(|| type_err("coverage", "number"))?),
        };
        Ok(AccountRecord {
            account: u32_field(v, "account")?,
            outlet: str_field(v, "outlet")?,
            advertised_region: opt_str_field(v, "advertised_region")?,
            leaked_at_secs: u64_field(v, "leaked_at_secs")?,
            hijack_detected_secs: opt_u64_field(v, "hijack_detected_secs")?,
            block_detected_secs: opt_u64_field(v, "block_detected_secs")?,
            coverage,
        })
    }
}

impl GapRecord {
    pub(crate) fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            ("account".to_string(), Json::U(u64::from(self.account))),
            ("kind".to_string(), Json::Str(self.kind.clone())),
            ("from_secs".to_string(), Json::U(self.from_secs)),
            ("until_secs".to_string(), Json::U(self.until_secs)),
        ])
    }

    /// Parse one gap record from its JSON value (the `"value"` of a
    /// `"gap"` JSONL line); see [`ParsedAccess::from_json_value`].
    pub fn from_json_value(v: &Json) -> Result<GapRecord, JsonError> {
        Ok(GapRecord {
            account: u32_field(v, "account")?,
            kind: str_field(v, "kind")?,
            from_secs: u64_field(v, "from_secs")?,
            until_secs: u64_field(v, "until_secs")?,
        })
    }
}

/// What the monitor saw of one (account, cookie): the time span of its
/// rows and notifications, the row visited last, and the notification
/// counts.
#[derive(Default)]
struct PerCookie {
    first: Option<u64>,
    last: Option<u64>,
    /// The row visited last: the newest row of the latest changed page.
    row: Option<ActivityRow>,
    opened: u32,
    sent: u32,
    drafts: u32,
    starred: u32,
}

impl PerCookie {
    /// Widen the seen span to cover `t`.
    fn see(&mut self, t: u64) {
        self.first = Some(self.first.map_or(t, |f| f.min(t)));
        self.last = Some(self.last.map_or(t, |l| l.max(t)));
    }
}

/// The scraped activity of a run, folded per (account, cookie) as the
/// pages arrive. The scraper folds each page whose foreign rows changed
/// and keeps nothing else of it; a row seen on many pages folds to the
/// same span, so repeats need no dedupe here.
#[derive(Default)]
pub struct Sightings {
    per: BTreeMap<(u32, u64), PerCookie>,
}

impl Sightings {
    /// Fold one page's rows, oldest first (as `ActivityPage::rows` yields
    /// them): each cookie's span widens to the row's time and its row
    /// visited last becomes this one.
    pub fn fold_page<'r>(
        &mut self,
        account: AccountId,
        rows: impl IntoIterator<Item = &'r ActivityRow>,
    ) {
        for row in rows {
            let e = self.per.entry((account.0, row.cookie.0)).or_default();
            e.see(row.at.as_secs());
            e.row = Some(*row);
        }
    }

    /// The row visited last of every (account, cookie), in key order.
    #[cfg(test)]
    pub(crate) fn rows(&self) -> impl Iterator<Item = (u32, &ActivityRow)> {
        self.per
            .iter()
            .filter_map(|(&(account, _), e)| e.row.as_ref().map(|r| (account, r)))
    }
}

/// Builds a [`Dataset`] from the monitoring outputs.
pub struct DatasetBuilder<'a> {
    geolocator: &'a Geolocator,
    sightings: Sightings,
    collector: &'a NotificationCollector,
    meta: Vec<AccountRecord>,
    gaps: Vec<GapRecord>,
    coverage_horizon_secs: Option<u64>,
}

impl<'a> DatasetBuilder<'a> {
    /// Start a build over the monitoring outputs. The builder does not
    /// look for the scraper's own cookie: the scraper never folds it
    /// into `sightings`, and no notification carries it (the script
    /// reports opens, stars, sends and drafts, and the scraper does none
    /// of these).
    pub fn new(
        geolocator: &'a Geolocator,
        sightings: Sightings,
        collector: &'a NotificationCollector,
    ) -> DatasetBuilder<'a> {
        DatasetBuilder {
            geolocator,
            sightings,
            collector,
            meta: Vec::new(),
            gaps: Vec::new(),
            coverage_horizon_secs: None,
        }
    }

    /// Attach per-account metadata (outlet labels, leak times, detection
    /// times).
    pub fn with_accounts(mut self, meta: Vec<AccountRecord>) -> Self {
        self.meta = meta;
        self
    }

    /// Attach the run's known monitoring gaps and enable per-account
    /// coverage computation against the given run horizon. Not calling
    /// this leaves `coverage` unset and `gaps` empty — the fault-free
    /// export shape.
    pub fn with_gaps(mut self, gaps: Vec<GapRecord>, horizon_secs: u64) -> Self {
        self.gaps = gaps;
        self.coverage_horizon_secs = Some(horizon_secs);
        self
    }

    /// Produce the dataset.
    pub fn build(self) -> Dataset {
        let mut per = self.sightings.per;

        // Notification counts per cookie, into the scraped sightings.
        for n in self.collector.all() {
            let Some(cookie) = n.cookie else { continue };
            let e = per.entry((n.account.0, cookie.0)).or_default();
            e.see(n.at.as_secs());
            match n.kind {
                NotificationKind::Opened { .. } => e.opened += 1,
                NotificationKind::Sent { .. } => e.sent += 1,
                NotificationKind::DraftCopy { .. } => e.drafts += 1,
                NotificationKind::Starred { .. } => e.starred += 1,
                NotificationKind::Heartbeat => {}
            }
        }

        // Hijack attribution: the last foreign cookie seen on the account
        // before the scraper noticed the hijack.
        let hijack_time: BTreeMap<u32, u64> = self
            .meta
            .iter()
            .filter_map(|m| m.hijack_detected_secs.map(|t| (m.account, t)))
            .collect();
        let mut hijacker_of: BTreeMap<u32, u64> = BTreeMap::new();
        for (&(account, cookie), e) in &per {
            if let (Some(&ht), Some(last)) = (hijack_time.get(&account), e.last) {
                if last <= ht {
                    let slot = hijacker_of.entry(account).or_insert(cookie);
                    // lint:allow(panic-hazard): (account, *slot) was inserted into `per` by the loop above; a miss is a logic bug, not bad input
                    let best_last = per[&(account, *slot)].last.unwrap_or(0);
                    if last >= best_last {
                        *slot = cookie;
                    }
                }
            }
        }

        let mut accesses = Vec::new();
        for ((account, cookie), e) in per {
            let row = e.row.as_ref();
            let via_tor = row.is_some_and(|r| self.geolocator.is_tor_exit(r.ip));
            // Paranoid IP-level filter (the paper filtered by IP *and* by
            // the infrastructure's city).
            if row.is_some_and(|r| {
                AddressPlan::is_infra(r.ip) || (r.location.city == INFRA_CITY && !via_tor)
            }) {
                continue;
            }
            let first = e.first.unwrap_or(0);
            let last = e.last.unwrap_or(first);
            // The only strings of the build: one set per surviving access.
            accesses.push(ParsedAccess {
                account,
                cookie,
                first_seen_secs: first,
                last_seen_secs: last,
                has_location_row: row.is_some(),
                ip: row.map_or(Ipv4Addr::UNSPECIFIED, |r| r.ip).to_string(),
                country: row.and_then(|r| r.location.country).map(String::from),
                city: row.map_or("Unknown", |r| r.location.city).to_string(),
                lat: row.map_or(0.0, |r| r.location.point.lat),
                lon: row.map_or(0.0, |r| r.location.point.lon),
                browser: row
                    .map_or("Unknown", |r| r.fingerprint.browser.label())
                    .to_string(),
                os: row
                    .map_or("Unknown", |r| r.fingerprint.os.label())
                    .to_string(),
                via_tor,
                opened: e.opened,
                sent: e.sent,
                drafts: e.drafts,
                starred: e.starred,
                hijacker: hijacker_of.get(&account) == Some(&cookie),
            });
        }

        let opened_texts = self
            .collector
            .opened_texts()
            .into_iter()
            .map(String::from)
            .collect();

        let mut accounts = self.meta;
        if let Some(horizon) = self.coverage_horizon_secs {
            for m in &mut accounts {
                m.coverage = Some(account_coverage(m, &self.gaps, horizon));
            }
        }

        Dataset {
            accesses,
            accounts,
            opened_texts,
            gaps: self.gaps,
        }
    }
}

/// Coverage of one account's observation window: the window runs from
/// the leak to the first detection (hijack or block) or the run horizon,
/// and every known gap clipped into it counts as blind time. Overlapping
/// gaps (say a provider maintenance inside a scraper outage) are merged
/// before measuring, so blind time is never double-counted.
fn account_coverage(m: &AccountRecord, gaps: &[GapRecord], horizon_secs: u64) -> f64 {
    let lo = m.leaked_at_secs;
    let hi = [m.hijack_detected_secs, m.block_detected_secs]
        .into_iter()
        .flatten()
        .min()
        .unwrap_or(horizon_secs)
        .min(horizon_secs);
    if hi <= lo {
        return 1.0;
    }
    let mut clipped: Vec<(u64, u64)> = gaps
        .iter()
        .filter(|g| g.account == m.account)
        .filter_map(|g| {
            let s = g.from_secs.max(lo);
            let e = g.until_secs.min(hi);
            (s < e).then_some((s, e))
        })
        .collect();
    clipped.sort_unstable();
    let mut blind = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                blind += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        blind += ce - cs;
    }
    1.0 - blind as f64 / (hi - lo) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Notification;
    use crate::export::{read_jsonl, DatasetWriter};
    use pwnd_net::access::CookieId;
    use pwnd_net::geo::GeoDb;
    use pwnd_net::tor::TorDirectory;
    use pwnd_net::useragent::{Browser, Fingerprint, Os};
    use pwnd_sim::{Rng, SimTime};

    fn geolocator() -> Geolocator {
        let geo = GeoDb::new();
        let plan = AddressPlan::new(&geo);
        let mut rng = Rng::seed_from(1);
        let tor = TorDirectory::generate(50, &mut rng);
        Geolocator::new(plan, geo, tor)
    }

    fn row(geo: &Geolocator, cookie: u64, at: u64, country: &str, rng: &mut Rng) -> ActivityRow {
        let ip = geo.plan().sample_host(country, rng);
        let loc = geo.locate(ip);
        ActivityRow {
            cookie: CookieId(cookie),
            at: SimTime::from_secs(at),
            ip,
            location: loc,
            fingerprint: Fingerprint {
                browser: Browser::Chrome,
                os: Os::Windows,
            },
        }
    }

    /// Sightings of account 0 from the given pages, in scrape order.
    fn pages(pages: &[&[ActivityRow]]) -> Sightings {
        let mut seen = Sightings::default();
        for rows in pages {
            seen.fold_page(AccountId(0), rows.iter());
        }
        seen
    }

    /// `ds` streamed through `DatasetWriter` and read back with
    /// `read_jsonl`, checked to lose nothing of the pretty export.
    fn through_jsonl(ds: &Dataset) -> Dataset {
        let mut writer = DatasetWriter::new(Vec::new());
        writer.write_dataset(ds).unwrap();
        let bytes = writer.finish().unwrap();
        let read = read_jsonl("stream", &bytes[..]).unwrap();
        assert_eq!(read.to_json(), ds.to_json());
        read
    }

    fn meta(account: u32) -> AccountRecord {
        AccountRecord {
            account,
            outlet: "paste".into(),
            advertised_region: None,
            leaked_at_secs: 0,
            hijack_detected_secs: None,
            block_detected_secs: None,
            coverage: None,
        }
    }

    #[test]
    fn merges_dumps_and_notifications() {
        let geo = geolocator();
        let mut rng = Rng::seed_from(2);
        let seen = pages(&[
            &[row(&geo, 7, 50, "BR", &mut rng)],
            &[row(&geo, 7, 150, "BR", &mut rng)],
        ]);
        let mut col = NotificationCollector::new();
        col.receive(Notification {
            account: AccountId(0),
            at: SimTime::from_secs(170),
            seq: 0,
            cookie: Some(CookieId(7)),
            kind: NotificationKind::Opened {
                email: pwnd_corpus::email::EmailId(1),
                text: "payment info".into(),
            },
        });
        let ds = DatasetBuilder::new(&geo, seen, &col)
            .with_accounts(vec![meta(0)])
            .build();
        assert_eq!(ds.accesses.len(), 1);
        let a = &ds.accesses[0];
        assert_eq!(a.cookie, 7);
        assert_eq!(a.first_seen_secs, 50);
        assert_eq!(a.last_seen_secs, 170);
        assert_eq!(a.opened, 1);
        assert_eq!(a.country.as_deref(), Some("BR"));
        assert_eq!(ds.opened_texts, vec!["payment info".to_string()]);
    }

    #[test]
    fn the_row_visited_last_locates_the_access() {
        let geo = geolocator();
        let mut rng = Rng::seed_from(9);
        let with_browser = |mut r: ActivityRow, browser| {
            r.fingerprint.browser = browser;
            r
        };
        let early = with_browser(row(&geo, 7, 40, "BR", &mut rng), Browser::Chrome);
        let middle = with_browser(row(&geo, 7, 150, "DE", &mut rng), Browser::Firefox);
        let newest = with_browser(row(&geo, 7, 190, "RU", &mut rng), Browser::Opera);
        assert_ne!(early.ip, newest.ip);
        assert_ne!(early.location.city, newest.location.city);
        // A Tor exit that geolocates to the infrastructure's own city.
        let tor_ip = geo.tor().sample_exit(&mut rng);
        let tor_row = ActivityRow {
            cookie: CookieId(8),
            at: SimTime::from_secs(120),
            ip: tor_ip,
            location: geo.infra(),
            fingerprint: Fingerprint {
                browser: Browser::Unknown,
                os: Os::Linux,
            },
        };
        assert_eq!(tor_row.location.city, INFRA_CITY);
        // Rows run oldest first, as `ActivityPage::rows` yields them.
        let seen = pages(&[&[early], &[tor_row, middle, newest]]);
        let col = NotificationCollector::new();
        let ds = DatasetBuilder::new(&geo, seen, &col)
            .with_accounts(vec![meta(0)])
            .build();
        assert_eq!(ds.accesses.len(), 2);
        let a = &ds.accesses[0];
        assert_eq!(a.cookie, 7);
        assert_eq!((a.first_seen_secs, a.last_seen_secs), (40, 190));
        assert_eq!(a.ip, newest.ip.to_string());
        assert_eq!(a.country.as_deref(), Some("RU"));
        assert_eq!(a.city, newest.location.city);
        assert_eq!(a.lat, newest.location.point.lat);
        assert_eq!(a.browser, "Opera");
        assert!(a.has_location_row);
        assert!(!a.via_tor);
        let t = &ds.accesses[1];
        assert_eq!(t.cookie, 8);
        assert_eq!(t.city, INFRA_CITY);
        assert_eq!(t.ip, tor_ip.to_string());
        assert!(t.via_tor, "a Tor exit in the infrastructure's city is kept");
    }

    #[test]
    fn infra_accesses_are_filtered() {
        let geo = geolocator();
        let mut rng = Rng::seed_from(3);
        let infra_ip = AddressPlan::sample_infra(&mut rng);
        let infra_row = ActivityRow {
            cookie: CookieId(99),
            at: SimTime::from_secs(10),
            ip: infra_ip,
            location: geo.locate(infra_ip),
            fingerprint: Fingerprint {
                browser: Browser::Chrome,
                os: Os::Linux,
            },
        };
        let seen = pages(&[&[infra_row, row(&geo, 5, 15, "US", &mut rng)]]);
        let col = NotificationCollector::new();
        let ds = DatasetBuilder::new(&geo, seen, &col)
            .with_accounts(vec![meta(0)])
            .build();
        assert_eq!(ds.accesses.len(), 1);
        assert_eq!(ds.accesses[0].cookie, 5);
    }

    #[test]
    fn infra_city_accesses_dropped_even_with_foreign_cookie() {
        let geo = geolocator();
        let mut rng = Rng::seed_from(4);
        // A GB host that happens to geolocate to the infra city (London).
        let mut london_row = None;
        for _ in 0..500 {
            let r = row(&geo, 6, 15, "GB", &mut rng);
            if r.location.city == INFRA_CITY {
                london_row = Some(r);
                break;
            }
        }
        let london_row = london_row.expect("London is the heaviest GB city");
        let seen = pages(&[&[london_row]]);
        let col = NotificationCollector::new();
        let ds = DatasetBuilder::new(&geo, seen, &col)
            .with_accounts(vec![meta(0)])
            .build();
        assert!(ds.accesses.is_empty());
    }

    #[test]
    fn tor_exit_accesses_flagged() {
        let geo = geolocator();
        let mut rng = Rng::seed_from(5);
        let tor_ip = geo.tor().sample_exit(&mut rng);
        let tor_row = ActivityRow {
            cookie: CookieId(8),
            at: SimTime::from_secs(30),
            ip: tor_ip,
            location: geo.locate(tor_ip),
            fingerprint: Fingerprint {
                browser: Browser::Unknown,
                os: Os::Windows,
            },
        };
        let seen = pages(&[&[tor_row]]);
        let col = NotificationCollector::new();
        let ds = DatasetBuilder::new(&geo, seen, &col)
            .with_accounts(vec![meta(0)])
            .build();
        assert_eq!(ds.accesses.len(), 1);
        assert!(ds.accesses[0].via_tor);
        assert_eq!(ds.accesses[0].browser, "Unknown");
    }

    #[test]
    fn hijack_attributed_to_last_cookie_before_detection() {
        let geo = geolocator();
        let mut rng = Rng::seed_from(6);
        let seen = pages(&[&[
            row(&geo, 1, 50, "US", &mut rng),
            row(&geo, 2, 200, "RU", &mut rng),
        ]]);
        let col = NotificationCollector::new();
        let mut m = meta(0);
        m.hijack_detected_secs = Some(250);
        let ds = DatasetBuilder::new(&geo, seen, &col)
            .with_accounts(vec![m])
            .build();
        let hijackers: Vec<u64> = ds
            .accesses
            .iter()
            .filter(|a| a.hijacker)
            .map(|a| a.cookie)
            .collect();
        assert_eq!(hijackers, vec![2]);
    }

    #[test]
    fn json_roundtrip() {
        let geo = geolocator();
        let mut rng = Rng::seed_from(7);
        let seen = pages(&[&[row(&geo, 5, 15, "DE", &mut rng)]]);
        let col = NotificationCollector::new();
        let ds = DatasetBuilder::new(&geo, seen, &col)
            .with_accounts(vec![meta(0)])
            .build();
        let back = through_jsonl(&ds);
        assert_eq!(back.accesses, ds.accesses);
        assert_eq!(back.accounts, ds.accounts);
    }

    #[test]
    fn coverage_reflects_clipped_merged_gaps() {
        let geo = geolocator();
        let col = NotificationCollector::new();
        let mut m = meta(0);
        m.leaked_at_secs = 100;
        // Observation window [100, 1100); two overlapping gaps and one
        // outside the window.
        let gaps = vec![
            GapRecord {
                account: 0,
                kind: "scraper".into(),
                from_secs: 200,
                until_secs: 400,
            },
            GapRecord {
                account: 0,
                kind: "maintenance".into(),
                from_secs: 300,
                until_secs: 500,
            },
            GapRecord {
                account: 0,
                kind: "scraper".into(),
                from_secs: 5_000,
                until_secs: 6_000,
            },
        ];
        let ds = DatasetBuilder::new(&geo, Sightings::default(), &col)
            .with_accounts(vec![m])
            .with_gaps(gaps, 1_100)
            .build();
        // Merged blind time is [200, 500) = 300s of a 1000s window.
        let cov = ds.accounts[0].coverage.unwrap();
        assert!((cov - 0.7).abs() < 1e-9, "coverage {cov}");
        assert_eq!(ds.gaps.len(), 3);
    }

    #[test]
    fn coverage_window_ends_at_detection() {
        let geo = geolocator();
        let col = NotificationCollector::new();
        let mut m = meta(0);
        m.hijack_detected_secs = Some(600);
        // Gap [400, 800) clips to [400, 600): 200s of a 600s window.
        let gaps = vec![GapRecord {
            account: 0,
            kind: "scraper".into(),
            from_secs: 400,
            until_secs: 800,
        }];
        let ds = DatasetBuilder::new(&geo, Sightings::default(), &col)
            .with_accounts(vec![m])
            .with_gaps(gaps, 10_000)
            .build();
        let cov = ds.accounts[0].coverage.unwrap();
        assert!((cov - 2.0 / 3.0).abs() < 1e-9, "coverage {cov}");
    }

    #[test]
    fn gapless_build_keeps_legacy_json_shape() {
        let geo = geolocator();
        let col = NotificationCollector::new();
        let ds = DatasetBuilder::new(&geo, Sightings::default(), &col)
            .with_accounts(vec![meta(0)])
            .build();
        let json = ds.to_json();
        assert!(!json.contains("\"gaps\""));
        assert!(!json.contains("\"coverage\""));
        let back = through_jsonl(&ds);
        assert_eq!(back.accounts, ds.accounts);
        assert!(back.gaps.is_empty());
    }

    #[test]
    fn json_roundtrip_with_gaps_and_coverage() {
        let geo = geolocator();
        let col = NotificationCollector::new();
        let gaps = vec![GapRecord {
            account: 0,
            kind: "heartbeat".into(),
            from_secs: 10,
            until_secs: 20,
        }];
        let ds = DatasetBuilder::new(&geo, Sightings::default(), &col)
            .with_accounts(vec![meta(0)])
            .with_gaps(gaps, 100)
            .build();
        let json = ds.to_json();
        assert!(json.contains("\"gaps\""));
        let back = through_jsonl(&ds);
        assert_eq!(back.gaps, ds.gaps);
        assert_eq!(back.accounts, ds.accounts);
    }

    #[test]
    fn outlet_filtering_and_counts() {
        let geo = geolocator();
        let mut rng = Rng::seed_from(8);
        let mut seen = Sightings::default();
        seen.fold_page(AccountId(0), &[row(&geo, 5, 15, "DE", &mut rng)]);
        seen.fold_page(AccountId(1), &[row(&geo, 6, 16, "FR", &mut rng)]);
        let col = NotificationCollector::new();
        let mut m1 = meta(0);
        m1.outlet = "malware".into();
        let ds = DatasetBuilder::new(&geo, seen, &col)
            .with_accounts(vec![m1, meta(1)])
            .build();
        assert_eq!(ds.accesses_for_outlet("malware").count(), 1);
        assert_eq!(ds.accesses_for_outlet("paste").count(), 1);
        assert_eq!(ds.accounts_with_accesses(), 2);
    }
}
