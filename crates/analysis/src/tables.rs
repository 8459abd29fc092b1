//! The §4.1 overview numbers, Table 1, and the origin statistics.

use pwnd_monitor::dataset::Dataset;
use pwnd_net::dnsbl::Blacklist;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// The §4.1 headline statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct Overview {
    /// Unique accesses observed (paper: 326).
    pub total_accesses: usize,
    /// Emails opened (paper: 147).
    pub emails_opened: u64,
    /// Emails sent (paper: 845).
    pub emails_sent: u64,
    /// Unique draft emails composed (paper: 12).
    pub drafts_created: u64,
    /// Accounts that received at least one access (paper: 90).
    pub accounts_accessed: usize,
    /// Per-outlet accessed-account counts (paper: 41 paste / 30 forum /
    /// 19 malware).
    pub accessed_by_outlet: BTreeMap<String, usize>,
    /// Per-outlet unique-access counts (paper: 144 / 125 / 57).
    pub accesses_by_outlet: BTreeMap<String, usize>,
    /// Accounts blocked by the provider (paper: 42).
    pub accounts_blocked: usize,
    /// Accounts hijacked — password changed (paper: 36).
    pub accounts_hijacked: usize,
}

/// Compute the overview from the dataset — a thin wrapper over the
/// streaming [`OverviewBuilder`](crate::stream::OverviewBuilder), so
/// the in-memory and store-streaming paths share one implementation.
pub fn overview(ds: &Dataset) -> Overview {
    let mut b = crate::stream::OverviewBuilder::new();
    for rec in &ds.accounts {
        b.add_account(rec);
    }
    for a in &ds.accesses {
        b.add_access(a);
    }
    b.finish()
}

/// One Table 1 row.
#[derive(Clone, Debug, PartialEq)]
pub struct Table1Row {
    /// Group number (1-based, Table 1 order).
    pub group: usize,
    /// Accounts in the group.
    pub accounts: usize,
    /// Outlet description, e.g. "paste websites (with location)".
    pub outlet: String,
}

/// Reconstruct Table 1 from the dataset's account records.
pub fn table1(ds: &Dataset) -> Vec<Table1Row> {
    // Group key: (outlet, with_location). Order mirrors the paper.
    let order: [(&str, bool); 5] = [
        ("paste", false),
        ("paste", true),
        ("forum", false),
        ("forum", true),
        ("malware", false),
    ];
    order
        .iter()
        .enumerate()
        .map(|(i, &(outlet, with_loc))| {
            let n = ds
                .accounts
                .iter()
                .filter(|r| r.outlet == outlet && r.advertised_region.is_some() == with_loc)
                .count();
            let site = match outlet {
                "paste" => "paste websites",
                "forum" => "forums",
                _ => "malware",
            };
            let loc = if with_loc {
                "with location"
            } else {
                "no location"
            };
            Table1Row {
                group: i + 1,
                accounts: n,
                outlet: format!("{site} ({loc})"),
            }
        })
        .collect()
}

/// §4.3.4 origin statistics: Tor usage, blacklist hits, country spread.
#[derive(Clone, Debug, PartialEq)]
pub struct OriginStats {
    /// Per outlet: (total accesses, accesses via Tor). Paper: paste
    /// 28/144, forum 48/125, malware 56/57; overall 132/326.
    pub tor_by_outlet: BTreeMap<String, (usize, usize)>,
    /// Total accesses via Tor.
    pub tor_total: usize,
    /// Distinct countries among non-Tor located accesses (paper: 29).
    pub countries: usize,
    /// Distinct origin IPs found in the blacklist (paper: 20 in
    /// Spamhaus).
    pub blacklisted_ips: usize,
}

/// Compute origin statistics; `blacklist` is the post-hoc Spamhaus check.
pub fn origin_stats(ds: &Dataset, blacklist: Option<&Blacklist>) -> OriginStats {
    let mut tor_by_outlet: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    let mut countries: BTreeSet<String> = BTreeSet::new();
    let mut blacklisted: BTreeSet<Ipv4Addr> = BTreeSet::new();
    for a in &ds.accesses {
        let outlet = ds
            .account_record(a.account)
            .map(|r| r.outlet.clone())
            .unwrap_or_else(|| "unknown".into());
        let e = tor_by_outlet.entry(outlet).or_insert((0, 0));
        e.0 += 1;
        if a.via_tor {
            e.1 += 1;
        } else if let Some(c) = &a.country {
            countries.insert(c.clone());
        }
        if let (Some(bl), Ok(ip)) = (blacklist, a.ip.parse::<Ipv4Addr>()) {
            if bl.is_ever_listed(ip) {
                blacklisted.insert(ip);
            }
        }
    }
    OriginStats {
        tor_total: tor_by_outlet.values().map(|&(_, t)| t).sum(),
        tor_by_outlet,
        countries: countries.len(),
        blacklisted_ips: blacklisted.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwnd_monitor::dataset::{AccountRecord, ParsedAccess};
    use pwnd_sim::SimTime;

    fn access(account: u32, cookie: u64, tor: bool, country: &str, ip: &str) -> ParsedAccess {
        ParsedAccess {
            account,
            cookie,
            first_seen_secs: 100,
            last_seen_secs: 200,
            ip: ip.into(),
            country: Some(country.into()),
            city: "X".into(),
            lat: 0.0,
            lon: 0.0,
            browser: "Chrome".into(),
            os: "Windows".into(),
            via_tor: tor,
            opened: 2,
            sent: 1,
            drafts: 1,
            starred: 0,
            hijacker: false,
            has_location_row: true,
        }
    }

    fn account(
        idx: u32,
        outlet: &str,
        region: Option<&str>,
        hijacked: bool,
        blocked: bool,
    ) -> AccountRecord {
        AccountRecord {
            account: idx,
            outlet: outlet.into(),
            advertised_region: region.map(String::from),
            leaked_at_secs: 0,
            hijack_detected_secs: hijacked.then_some(500),
            block_detected_secs: blocked.then_some(600),
            coverage: None,
        }
    }

    fn dataset() -> Dataset {
        Dataset {
            gaps: Vec::new(),
            accesses: vec![
                access(0, 1, false, "US", "50.0.0.1"),
                access(0, 2, true, "DE", "171.0.0.1"),
                access(1, 3, false, "BR", "60.0.0.1"),
            ],
            accounts: vec![
                account(0, "paste", Some("UK"), true, true),
                account(1, "forum", None, false, false),
                account(2, "malware", None, false, false),
            ],
            opened_texts: vec![],
        }
    }

    #[test]
    fn overview_counts() {
        let o = overview(&dataset());
        assert_eq!(o.total_accesses, 3);
        assert_eq!(o.emails_opened, 6);
        assert_eq!(o.emails_sent, 3);
        assert_eq!(o.drafts_created, 3);
        assert_eq!(o.accounts_accessed, 2);
        assert_eq!(o.accessed_by_outlet["paste"], 1);
        assert_eq!(o.accesses_by_outlet["paste"], 2);
        assert_eq!(o.accounts_blocked, 1);
        assert_eq!(o.accounts_hijacked, 1);
    }

    #[test]
    fn table1_reconstructs_groups() {
        let t = table1(&dataset());
        assert_eq!(t.len(), 5);
        assert_eq!(t[1].accounts, 1); // paste with location
        assert_eq!(t[2].accounts, 1); // forum no location
        assert_eq!(t[4].accounts, 1); // malware
        assert_eq!(t[0].accounts, 0); // paste no location
        assert!(t[1].outlet.contains("with location"));
    }

    #[test]
    fn origin_stats_counts_tor_and_countries() {
        let mut bl = Blacklist::new();
        bl.list(
            "50.0.0.1".parse().unwrap(),
            SimTime::ZERO,
            pwnd_net::dnsbl::ListingReason::InfectedHost,
        );
        let s = origin_stats(&dataset(), Some(&bl));
        assert_eq!(s.tor_total, 1);
        assert_eq!(s.tor_by_outlet["paste"], (2, 1));
        assert_eq!(s.countries, 2); // US + BR; DE is behind Tor
        assert_eq!(s.blacklisted_ips, 1);
    }

    #[test]
    fn origin_stats_without_blacklist() {
        let s = origin_stats(&dataset(), None);
        assert_eq!(s.blacklisted_ips, 0);
    }
}
