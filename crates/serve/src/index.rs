//! The in-memory query index the daemon answers from.
//!
//! Ingest reads a verified store once and builds every structure the
//! `/v1` endpoints need, so no request ever touches the disk:
//!
//! * **Interned strings** — repeated access fields (IP, city, browser,
//!   OS, outlet) are stored once in a [`pwnd_sim::intern::Interner`]
//!   and referenced by 4-byte symbols; the per-access row is a fixed-
//!   size struct.
//! * **Per-account timelines** — each account's record, its accesses
//!   sorted by `(first_seen, cookie)`, and its monitoring gaps, keyed
//!   in a `BTreeMap` (deterministic iteration; the `HASH_ORDER` lint
//!   banishes hash maps from observable output everywhere else, and
//!   the serving layer holds itself to the same rule).
//! * **Aggregate tables** — the §4.1 overview (built with the same
//!   [`OverviewBuilder`] that powers `pwnd report`, so `/v1/stats` can
//!   never drift from the offline numbers), per-outlet rollups, and a
//!   dominant-class partition per the §4.2 taxonomy.
//! * **Range buckets** — HIBP-style k-anonymity lookup: each account's
//!   credential fingerprint is `SHA-256("pwnd:account:<id>")` in
//!   uppercase hex; `/v1/range/{prefix}` takes the first
//!   [`RANGE_PREFIX_LEN`] hex characters and returns every suffix in
//!   that bucket, so a client can check membership without revealing
//!   which account it holds.
//!
//! Every response-rendering method returns a fully formatted JSON body
//! (pretty-printed, trailing newline) that is a pure function of the
//! ingested records — no timestamps, no host state.

use crate::store::VerifiedStore;
use pwnd_analysis::stream::OverviewBuilder;
use pwnd_analysis::tables::Overview;
use pwnd_analysis::taxonomy::{classify, AccessClasses};
use pwnd_core::hash::Sha256;
use pwnd_monitor::dataset::{Dataset, GapRecord};
use pwnd_monitor::export::{Record, RecordTag};
use pwnd_sim::intern::{Interner, Symbol};
use pwnd_telemetry::json::Json;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Hex characters of the credential-hash prefix a range query names.
/// Five characters ≈ one million buckets — the HIBP constant — so a
/// bucket stays small while revealing nothing useful about the account.
pub const RANGE_PREFIX_LEN: usize = 5;

/// Provenance of the data an index was built from, echoed by
/// `/v1/healthz` and `/v1/stats` so clients can pin responses to an
/// exact store build.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreMeta {
    /// The fleet's master seed.
    pub seed: u64,
    /// Template config fingerprint of the fleet that built the store.
    pub template_sha256: String,
    /// Shard files ingested.
    pub shards: usize,
    /// Total JSONL records the manifest claims.
    pub records: u64,
}

impl StoreMeta {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "format".to_string(),
                Json::Str(crate::store::MANIFEST_FORMAT.to_string()),
            ),
            ("seed".to_string(), Json::U(self.seed)),
            (
                "template_config_sha256".to_string(),
                Json::Str(self.template_sha256.clone()),
            ),
            ("shards".to_string(), Json::U(self.shards as u64)),
            ("records".to_string(), Json::U(self.records)),
        ])
    }
}

/// One ingested access: fixed-size, strings behind interner symbols.
struct AccessRow {
    cookie: u64,
    first_seen_secs: u64,
    last_seen_secs: u64,
    ip: Symbol,
    country: Option<Symbol>,
    city: Symbol,
    lat: f64,
    lon: f64,
    browser: Symbol,
    os: Symbol,
    via_tor: bool,
    opened: u32,
    sent: u32,
    drafts: u32,
    starred: u32,
    classes: AccessClasses,
}

/// One account's slice of the index.
struct AccountEntry {
    outlet: Symbol,
    advertised_region: Option<Symbol>,
    leaked_at_secs: u64,
    hijack_detected_secs: Option<u64>,
    block_detected_secs: Option<u64>,
    accesses: Vec<AccessRow>,
    gaps: Vec<GapRecord>,
}

/// Per-outlet rollup for `/v1/outlets`.
#[derive(Default)]
struct OutletAggregate {
    accounts: u64,
    accounts_accessed: u64,
    accesses: u64,
    emails_opened: u64,
    emails_sent: u64,
    drafts_created: u64,
    accounts_hijacked: u64,
    accounts_blocked: u64,
    tor_accesses: u64,
    /// Dominant-class partition in [`AccessClasses::LABELS`] order.
    by_class: [u64; 4],
}

/// [`AccessClasses::LABELS`] index of an access's dominant class.
fn dominant_index(c: AccessClasses) -> usize {
    AccessClasses::LABELS
        .iter()
        .position(|&l| l == c.dominant())
        .expect("dominant() returns a LABELS member")
}

/// The immutable, fully-built query index. Shared read-only across the
/// server's worker threads (`Arc<QueryIndex>`) — no locks on the read
/// path.
pub struct QueryIndex {
    strings: Interner,
    accounts: BTreeMap<u32, AccountEntry>,
    overview: Overview,
    class_totals: [u64; 4],
    outlets: BTreeMap<String, OutletAggregate>,
    /// prefix → sorted `(suffix, access count)` bucket.
    ranges: BTreeMap<String, Vec<(String, u64)>>,
    meta: StoreMeta,
}

impl QueryIndex {
    /// Ingest a verified fleet store directory.
    ///
    /// Opens the store with full hash verification
    /// ([`VerifiedStore::open`]), then streams every shard line once,
    /// indexing account, access, and gap records (opened-text records
    /// are not served and are skipped). A line with no known record tag
    /// or that does not decode fails the ingest.
    ///
    /// ```no_run
    /// use pwnd_serve::index::QueryIndex;
    /// use std::path::Path;
    ///
    /// let index = QueryIndex::from_store(Path::new("fleet-store"))?;
    /// println!("{}", index.healthz_json());
    /// # std::io::Result::Ok(())
    /// ```
    pub fn from_store(dir: &Path) -> io::Result<QueryIndex> {
        let store = VerifiedStore::open(dir)?;
        let mut ds = Dataset::default();
        let served = [RecordTag::Account, RecordTag::Access, RecordTag::Gap];
        store.for_each_record(&served, |record| match record {
            Record::Account(a) => ds.accounts.push(a),
            Record::Access(a) => ds.accesses.push(a),
            Record::Gap(g) => ds.gaps.push(g),
            Record::OpenedText(_) => {}
        })?;
        let m = store.manifest();
        let meta = StoreMeta {
            seed: m.seed,
            template_sha256: m.template_sha256.clone(),
            shards: m.shards.len(),
            records: m.records(),
        };
        Ok(QueryIndex::from_dataset(&ds, meta))
    }

    /// Build an index directly from an in-memory dataset — what
    /// `from_store` does after decoding the store, useful for
    /// tests and for serving a just-finished run without a store round
    /// trip.
    ///
    /// ```
    /// use pwnd_monitor::dataset::Dataset;
    /// use pwnd_serve::index::{QueryIndex, StoreMeta};
    ///
    /// let index = QueryIndex::from_dataset(&Dataset::default(), StoreMeta::default());
    /// assert!(index.account_ids().is_empty());
    /// assert!(index.healthz_json().contains("\"status\": \"ok\""));
    /// ```
    pub fn from_dataset(ds: &Dataset, meta: StoreMeta) -> QueryIndex {
        let (accounts, accesses, gaps) = (&ds.accounts, &ds.accesses, &ds.gaps);
        // The overview `pwnd report` prints, from the same records.
        let mut ob = OverviewBuilder::new();
        let mut strings = Interner::new();
        let mut table: BTreeMap<u32, AccountEntry> = BTreeMap::new();
        let mut outlets: BTreeMap<String, OutletAggregate> = BTreeMap::new();
        for rec in accounts {
            ob.add_account(rec);
            let outlet = strings.intern(&rec.outlet);
            table.insert(
                rec.account,
                AccountEntry {
                    outlet,
                    advertised_region: rec.advertised_region.as_deref().map(|r| strings.intern(r)),
                    leaked_at_secs: rec.leaked_at_secs,
                    hijack_detected_secs: rec.hijack_detected_secs,
                    block_detected_secs: rec.block_detected_secs,
                    accesses: Vec::new(),
                    gaps: Vec::new(),
                },
            );
            // One key per distinct outlet: allocate only for a new one.
            let agg = match outlets.get_mut(rec.outlet.as_str()) {
                Some(agg) => agg,
                None => outlets.entry(rec.outlet.clone()).or_default(),
            };
            agg.accounts += 1;
            if rec.hijack_detected_secs.is_some() {
                agg.accounts_hijacked += 1;
            }
            if rec.block_detected_secs.is_some() {
                agg.accounts_blocked += 1;
            }
        }

        let mut class_totals = [0u64; 4];
        let mut range_accesses: BTreeMap<u32, u64> = BTreeMap::new();
        for a in accesses {
            ob.add_access(a);
            let classes = classify(a);
            class_totals[dominant_index(classes)] += 1;
            *range_accesses.entry(a.account).or_insert(0) += 1;
            let row = AccessRow {
                cookie: a.cookie,
                first_seen_secs: a.first_seen_secs,
                last_seen_secs: a.last_seen_secs,
                ip: strings.intern(&a.ip),
                country: a.country.as_deref().map(|c| strings.intern(c)),
                city: strings.intern(&a.city),
                lat: a.lat,
                lon: a.lon,
                browser: strings.intern(&a.browser),
                os: strings.intern(&a.os),
                via_tor: a.via_tor,
                opened: a.opened,
                sent: a.sent,
                drafts: a.drafts,
                starred: a.starred,
                classes,
            };
            if let Some(entry) = table.get_mut(&a.account) {
                entry.accesses.push(row);
                // The account loop above made every outlet's aggregate.
                let Some(agg) = outlets.get_mut(strings.resolve(entry.outlet)) else {
                    continue;
                };
                agg.accesses += 1;
                agg.emails_opened += u64::from(a.opened);
                agg.emails_sent += u64::from(a.sent);
                agg.drafts_created += u64::from(a.drafts);
                if a.via_tor {
                    agg.tor_accesses += 1;
                }
                agg.by_class[dominant_index(classes)] += 1;
            }
        }
        for entry in table.values_mut() {
            entry
                .accesses
                .sort_by_key(|r| (r.first_seen_secs, r.cookie));
            if entry.accesses.is_empty() {
                continue;
            }
            if let Some(agg) = outlets.get_mut(strings.resolve(entry.outlet)) {
                agg.accounts_accessed += 1;
            }
        }
        for g in gaps {
            if let Some(entry) = table.get_mut(&g.account) {
                entry.gaps.push(g.clone());
            }
        }
        for entry in table.values_mut() {
            entry.gaps.sort_by_key(|g| (g.from_secs, g.until_secs));
        }

        // k-anonymity buckets: every known account gets a fingerprint,
        // accessed or not (a range query must not leak which accounts
        // saw traffic by omission).
        let mut ranges: BTreeMap<String, Vec<(String, u64)>> = BTreeMap::new();
        for &id in table.keys() {
            let digest = credential_hash(id);
            let (prefix, suffix) = digest.split_at(RANGE_PREFIX_LEN);
            ranges.entry(prefix.to_string()).or_default().push((
                suffix.to_string(),
                range_accesses.get(&id).copied().unwrap_or(0),
            ));
        }
        for bucket in ranges.values_mut() {
            bucket.sort();
        }

        QueryIndex {
            strings,
            accounts: table,
            overview: ob.finish(),
            class_totals,
            outlets,
            ranges,
            meta,
        }
    }

    // ---- introspection (used by the load generator and tests) ---------

    /// Every known account id, ascending.
    pub fn account_ids(&self) -> Vec<u32> {
        self.accounts.keys().copied().collect()
    }

    /// Every non-empty range-bucket prefix, ascending.
    pub fn range_prefixes(&self) -> Vec<String> {
        self.ranges.keys().cloned().collect()
    }

    /// The shared §4.1 overview the index was built with — identical to
    /// `pwnd report --input` over the same store.
    pub fn overview(&self) -> &Overview {
        &self.overview
    }

    /// The store provenance echoed in responses.
    pub fn meta(&self) -> &StoreMeta {
        &self.meta
    }

    // ---- response bodies ----------------------------------------------

    /// `GET /v1/healthz` body.
    pub fn healthz_json(&self) -> String {
        let total: u64 = self.class_totals.iter().sum();
        render(Json::Obj(vec![
            ("status".to_string(), Json::Str("ok".to_string())),
            ("api".to_string(), Json::Str("v1".to_string())),
            ("store".to_string(), self.meta.to_json()),
            ("accounts".to_string(), Json::U(self.accounts.len() as u64)),
            ("accesses".to_string(), Json::U(total)),
        ]))
    }

    /// `GET /v1/stats` body.
    pub fn stats_json(&self) -> String {
        let o = &self.overview;
        let by = |m: &BTreeMap<String, usize>| {
            Json::Obj(
                m.iter()
                    .map(|(k, v)| (k.clone(), Json::U(*v as u64)))
                    .collect(),
            )
        };
        let overview = Json::Obj(vec![
            (
                "total_accesses".to_string(),
                Json::U(o.total_accesses as u64),
            ),
            ("emails_opened".to_string(), Json::U(o.emails_opened)),
            ("emails_sent".to_string(), Json::U(o.emails_sent)),
            ("drafts_created".to_string(), Json::U(o.drafts_created)),
            (
                "accounts_accessed".to_string(),
                Json::U(o.accounts_accessed as u64),
            ),
            ("accessed_by_outlet".to_string(), by(&o.accessed_by_outlet)),
            ("accesses_by_outlet".to_string(), by(&o.accesses_by_outlet)),
            (
                "accounts_blocked".to_string(),
                Json::U(o.accounts_blocked as u64),
            ),
            (
                "accounts_hijacked".to_string(),
                Json::U(o.accounts_hijacked as u64),
            ),
        ]);
        let classes = Json::Obj(
            AccessClasses::LABELS
                .iter()
                .zip(self.class_totals.iter())
                .map(|(label, n)| (label.to_string(), Json::U(*n)))
                .collect(),
        );
        render(Json::Obj(vec![
            ("overview".to_string(), overview),
            ("classes".to_string(), classes),
            ("store".to_string(), self.meta.to_json()),
        ]))
    }

    /// `GET /v1/outlets` body.
    pub fn outlets_json(&self) -> String {
        let outlets = self
            .outlets
            .iter()
            .map(|(name, agg)| {
                let classes = Json::Obj(
                    AccessClasses::LABELS
                        .iter()
                        .zip(agg.by_class.iter())
                        .map(|(label, n)| (label.to_string(), Json::U(*n)))
                        .collect(),
                );
                Json::Obj(vec![
                    ("outlet".to_string(), Json::Str(name.clone())),
                    ("accounts".to_string(), Json::U(agg.accounts)),
                    (
                        "accounts_accessed".to_string(),
                        Json::U(agg.accounts_accessed),
                    ),
                    ("accesses".to_string(), Json::U(agg.accesses)),
                    ("emails_opened".to_string(), Json::U(agg.emails_opened)),
                    ("emails_sent".to_string(), Json::U(agg.emails_sent)),
                    ("drafts_created".to_string(), Json::U(agg.drafts_created)),
                    (
                        "accounts_hijacked".to_string(),
                        Json::U(agg.accounts_hijacked),
                    ),
                    (
                        "accounts_blocked".to_string(),
                        Json::U(agg.accounts_blocked),
                    ),
                    ("tor_accesses".to_string(), Json::U(agg.tor_accesses)),
                    ("classes".to_string(), classes),
                ])
            })
            .collect();
        render(Json::Obj(vec![("outlets".to_string(), Json::Arr(outlets))]))
    }

    /// `GET /v1/account/{id}/timeline` body; `None` when the account is
    /// unknown (the router answers 404).
    pub fn timeline_json(&self, id: u32) -> Option<String> {
        let entry = self.accounts.get(&id)?;
        let mut events: Vec<(u64, Json)> = Vec::new();
        events.push((
            entry.leaked_at_secs,
            Json::Obj(vec![
                ("t_secs".to_string(), Json::U(entry.leaked_at_secs)),
                ("event".to_string(), Json::Str("leaked".to_string())),
            ]),
        ));
        for r in &entry.accesses {
            events.push((
                r.first_seen_secs,
                Json::Obj(vec![
                    ("t_secs".to_string(), Json::U(r.first_seen_secs)),
                    ("event".to_string(), Json::Str("access".to_string())),
                    ("cookie".to_string(), Json::U(r.cookie)),
                    (
                        "duration_secs".to_string(),
                        Json::U(r.last_seen_secs.saturating_sub(r.first_seen_secs)),
                    ),
                    (
                        "class".to_string(),
                        Json::Str(r.classes.dominant().to_string()),
                    ),
                ]),
            ));
        }
        for g in &entry.gaps {
            events.push((
                g.from_secs,
                Json::Obj(vec![
                    ("t_secs".to_string(), Json::U(g.from_secs)),
                    ("event".to_string(), Json::Str("gap".to_string())),
                    ("kind".to_string(), Json::Str(g.kind.clone())),
                    ("until_secs".to_string(), Json::U(g.until_secs)),
                ]),
            ));
        }
        if let Some(t) = entry.hijack_detected_secs {
            events.push((
                t,
                Json::Obj(vec![
                    ("t_secs".to_string(), Json::U(t)),
                    (
                        "event".to_string(),
                        Json::Str("hijack_detected".to_string()),
                    ),
                ]),
            ));
        }
        if let Some(t) = entry.block_detected_secs {
            events.push((
                t,
                Json::Obj(vec![
                    ("t_secs".to_string(), Json::U(t)),
                    ("event".to_string(), Json::Str("block_detected".to_string())),
                ]),
            ));
        }
        // Stable sort: same-instant events keep the build order above
        // (leaked, accesses, gaps, detections), so the body is
        // deterministic.
        events.sort_by_key(|(t, _)| *t);
        Some(render(Json::Obj(vec![
            ("account".to_string(), Json::U(u64::from(id))),
            (
                "outlet".to_string(),
                Json::Str(self.strings.resolve(entry.outlet).to_string()),
            ),
            (
                "advertised_region".to_string(),
                entry
                    .advertised_region
                    .map(|s| Json::Str(self.strings.resolve(s).to_string()))
                    .unwrap_or(Json::Null),
            ),
            (
                "events".to_string(),
                Json::Arr(events.into_iter().map(|(_, e)| e).collect()),
            ),
        ])))
    }

    /// `GET /v1/account/{id}/accesses` body; `None` when the account is
    /// unknown.
    pub fn accesses_json(&self, id: u32) -> Option<String> {
        let entry = self.accounts.get(&id)?;
        let s = |sym: Symbol| Json::Str(self.strings.resolve(sym).to_string());
        let rows = entry
            .accesses
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("cookie".to_string(), Json::U(r.cookie)),
                    ("first_seen_secs".to_string(), Json::U(r.first_seen_secs)),
                    ("last_seen_secs".to_string(), Json::U(r.last_seen_secs)),
                    ("ip".to_string(), s(r.ip)),
                    (
                        "country".to_string(),
                        r.country.map(s).unwrap_or(Json::Null),
                    ),
                    ("city".to_string(), s(r.city)),
                    ("lat".to_string(), Json::F(r.lat)),
                    ("lon".to_string(), Json::F(r.lon)),
                    ("browser".to_string(), s(r.browser)),
                    ("os".to_string(), s(r.os)),
                    ("via_tor".to_string(), Json::Bool(r.via_tor)),
                    ("opened".to_string(), Json::U(u64::from(r.opened))),
                    ("sent".to_string(), Json::U(u64::from(r.sent))),
                    ("drafts".to_string(), Json::U(u64::from(r.drafts))),
                    ("starred".to_string(), Json::U(u64::from(r.starred))),
                    (
                        "classes".to_string(),
                        Json::Arr(
                            AccessClasses::LABELS
                                .iter()
                                .zip(r.classes.as_array().iter())
                                .filter(|(_, &member)| member)
                                .map(|(label, _)| Json::Str(label.to_string()))
                                .collect(),
                        ),
                    ),
                    (
                        "dominant".to_string(),
                        Json::Str(r.classes.dominant().to_string()),
                    ),
                ])
            })
            .collect();
        Some(render(Json::Obj(vec![
            ("account".to_string(), Json::U(u64::from(id))),
            (
                "outlet".to_string(),
                Json::Str(self.strings.resolve(entry.outlet).to_string()),
            ),
            ("accesses".to_string(), Json::Arr(rows)),
        ])))
    }

    /// `GET /v1/range/{prefix}` body. The prefix must already be
    /// validated ([`RANGE_PREFIX_LEN`] uppercase hex characters — the
    /// router answers 400 otherwise); an unknown prefix is a valid
    /// empty bucket, exactly like HIBP.
    pub fn range_json(&self, prefix: &str) -> String {
        let bucket = self.ranges.get(prefix).map(Vec::as_slice).unwrap_or(&[]);
        render(Json::Obj(vec![
            ("prefix".to_string(), Json::Str(prefix.to_string())),
            ("count".to_string(), Json::U(bucket.len() as u64)),
            (
                "suffixes".to_string(),
                Json::Arr(
                    bucket
                        .iter()
                        .map(|(suffix, accesses)| {
                            Json::Obj(vec![
                                ("suffix".to_string(), Json::Str(suffix.clone())),
                                ("accesses".to_string(), Json::U(*accesses)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]))
    }
}

/// The credential fingerprint of an account: uppercase hex
/// `SHA-256("pwnd:account:<id>")`. The simulation has no real
/// passwords; the fixed derivation stands in for "hash of the leaked
/// credential" and keeps range responses deterministic.
pub fn credential_hash(id: u32) -> String {
    Sha256::digest_hex(format!("pwnd:account:{id}").as_bytes()).to_uppercase()
}

/// Pretty-print with the canonical trailing newline every endpoint
/// body carries.
fn render(v: Json) -> String {
    let mut text = v.pretty();
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwnd_monitor::dataset::{AccountRecord, ParsedAccess};

    fn access(account: u32, cookie: u64, first: u64, sent: u32) -> ParsedAccess {
        ParsedAccess {
            account,
            cookie,
            first_seen_secs: first,
            last_seen_secs: first + 60,
            ip: "10.0.0.1".into(),
            country: Some("BR".into()),
            city: "Rio".into(),
            lat: -22.9,
            lon: -43.2,
            browser: "Firefox".into(),
            os: "Linux".into(),
            via_tor: false,
            opened: 0,
            sent,
            drafts: 0,
            starred: 0,
            hijacker: false,
            has_location_row: true,
        }
    }

    fn account(id: u32, outlet: &str) -> AccountRecord {
        AccountRecord {
            account: id,
            outlet: outlet.into(),
            advertised_region: None,
            leaked_at_secs: 100,
            hijack_detected_secs: None,
            block_detected_secs: None,
            coverage: None,
        }
    }

    fn sample() -> QueryIndex {
        let ds = Dataset {
            accounts: vec![account(0, "paste"), account(1, "forum")],
            accesses: vec![
                access(0, 9, 500, 0),
                access(0, 3, 200, 5),
                access(1, 1, 300, 0),
            ],
            opened_texts: vec![],
            gaps: vec![GapRecord {
                account: 1,
                kind: "scraper".into(),
                from_secs: 400,
                until_secs: 450,
            }],
        };
        QueryIndex::from_dataset(&ds, StoreMeta::default())
    }

    #[test]
    fn stats_match_shared_overview() {
        let idx = sample();
        assert_eq!(idx.overview().total_accesses, 3);
        let stats = idx.stats_json();
        assert!(stats.contains("\"total_accesses\": 3"));
        assert!(stats.contains("\"Spammer\": 1"));
        assert!(stats.contains("\"Curious\": 2"));
    }

    #[test]
    fn timeline_sorts_events_and_reports_leak_first() {
        let idx = sample();
        let body = idx.timeline_json(0).unwrap();
        let leaked = body.find("\"leaked\"").unwrap();
        let a200 = body.find("\"t_secs\": 200").unwrap();
        let a500 = body.find("\"t_secs\": 500").unwrap();
        assert!(leaked < a200 && a200 < a500, "{body}");
        assert!(idx.timeline_json(77).is_none());
    }

    #[test]
    fn accesses_are_sorted_by_first_seen_then_cookie() {
        let idx = sample();
        let body = idx.accesses_json(0).unwrap();
        let c3 = body.find("\"cookie\": 3").unwrap();
        let c9 = body.find("\"cookie\": 9").unwrap();
        assert!(c3 < c9, "{body}");
    }

    #[test]
    fn every_account_lands_in_exactly_one_range_bucket() {
        let idx = sample();
        let total: usize = idx
            .range_prefixes()
            .iter()
            .map(|p| {
                let v = Json::parse(&idx.range_json(p)).unwrap();
                v.get("count").and_then(Json::as_u64).unwrap() as usize
            })
            .sum();
        assert_eq!(total, 2);
        // Unknown prefixes are empty buckets, not errors.
        assert!(idx.range_json("00000").contains("\"count\": 0"));
    }

    #[test]
    fn credential_hash_is_stable_uppercase_hex() {
        let h = credential_hash(0);
        assert_eq!(h.len(), 64);
        assert_eq!(h, h.to_uppercase());
        assert_eq!(h, credential_hash(0));
        assert_ne!(h, credential_hash(1));
    }
}
