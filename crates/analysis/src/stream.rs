//! Streaming analysis over large stores.
//!
//! The in-memory [`overview`](crate::tables::overview) walks a complete
//! [`Dataset`](pwnd_monitor::dataset::Dataset); at fleet-store scale the
//! dataset never exists in RAM — records arrive one at a time from
//! per-shard JSONL files. [`OverviewBuilder`] accepts exactly those
//! records incrementally, in any order, and produces the same
//! [`Overview`]: it tallies accesses per account as they arrive and
//! attributes the tallies to outlets only in
//! [`finish`](OverviewBuilder::finish), so one pass over a store or a
//! merged JSONL file is enough. `overview()` itself is a thin wrapper
//! over this builder, so the streaming and in-memory paths cannot
//! drift apart.

use crate::tables::Overview;
use pwnd_monitor::dataset::{AccountRecord, ParsedAccess};
use std::collections::BTreeMap;

/// Incremental [`Overview`] accumulator; records may arrive in any
/// order.
///
/// ```
/// use pwnd_analysis::stream::OverviewBuilder;
/// let b = OverviewBuilder::new();
/// let o = b.finish();
/// assert_eq!(o.total_accesses, 0);
/// ```
#[derive(Default)]
pub struct OverviewBuilder {
    /// account id → outlet, from the account records seen so far (a
    /// later record for the same account wins).
    outlets: BTreeMap<u32, String>,
    /// account id → accesses seen so far.
    accesses_per_account: BTreeMap<u32, usize>,
    total_accesses: usize,
    emails_opened: u64,
    emails_sent: u64,
    drafts_created: u64,
    accounts_blocked: usize,
    accounts_hijacked: usize,
}

impl OverviewBuilder {
    /// An empty accumulator.
    pub fn new() -> OverviewBuilder {
        OverviewBuilder::default()
    }

    /// Absorb one per-account metadata record. An access whose account
    /// has no record counts in the totals but in no outlet.
    pub fn add_account(&mut self, rec: &AccountRecord) {
        self.outlets.insert(rec.account, rec.outlet.clone());
        if rec.block_detected_secs.is_some() {
            self.accounts_blocked += 1;
        }
        if rec.hijack_detected_secs.is_some() {
            self.accounts_hijacked += 1;
        }
    }

    /// Absorb one unique access.
    pub fn add_access(&mut self, a: &ParsedAccess) {
        self.total_accesses += 1;
        self.emails_opened += u64::from(a.opened);
        self.emails_sent += u64::from(a.sent);
        self.drafts_created += u64::from(a.drafts);
        *self.accesses_per_account.entry(a.account).or_insert(0) += 1;
    }

    /// The finished §4.1 overview: each account's access tally goes
    /// to the outlet of its account record.
    pub fn finish(self) -> Overview {
        let mut per_outlet: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
        for (account, &accesses) in &self.accesses_per_account {
            if let Some(outlet) = self.outlets.get(account) {
                let (accounts, total) = per_outlet.entry(outlet).or_default();
                *accounts += 1;
                *total += accesses;
            }
        }
        let (accessed_by_outlet, accesses_by_outlet) = per_outlet
            .into_iter()
            .map(|(o, (accounts, accesses))| ((o.to_string(), accounts), (o.to_string(), accesses)))
            .unzip();
        Overview {
            total_accesses: self.total_accesses,
            emails_opened: self.emails_opened,
            emails_sent: self.emails_sent,
            drafts_created: self.drafts_created,
            accounts_accessed: self.accesses_per_account.len(),
            accessed_by_outlet,
            accesses_by_outlet,
            accounts_blocked: self.accounts_blocked,
            accounts_hijacked: self.accounts_hijacked,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::overview;
    use pwnd_monitor::dataset::Dataset;

    fn access(account: u32, opened: u32) -> ParsedAccess {
        ParsedAccess {
            account,
            cookie: 1,
            first_seen_secs: 10,
            last_seen_secs: 20,
            ip: "10.0.0.1".into(),
            country: None,
            city: "Rio".into(),
            lat: 0.0,
            lon: 0.0,
            browser: "Firefox".into(),
            os: "Linux".into(),
            via_tor: false,
            opened,
            sent: 1,
            drafts: 0,
            starred: 0,
            hijacker: false,
            has_location_row: false,
        }
    }

    fn account(id: u32, outlet: &str, blocked: bool) -> AccountRecord {
        AccountRecord {
            account: id,
            outlet: outlet.into(),
            advertised_region: None,
            leaked_at_secs: 0,
            hijack_detected_secs: None,
            block_detected_secs: blocked.then_some(500),
            coverage: None,
        }
    }

    #[test]
    fn streaming_overview_matches_in_memory_overview() {
        let ds = Dataset {
            accesses: vec![access(0, 2), access(1, 0), access(0, 1), access(9, 5)],
            accounts: vec![
                account(0, "paste", true),
                account(1, "forum", false),
                account(2, "malware", false),
            ],
            opened_texts: vec![],
            gaps: vec![],
        };
        let streamed = overview(&ds);
        // Accesses before accounts, and the two kinds interleaved, give
        // the same overview as accounts first.
        let mut b = OverviewBuilder::new();
        ds.accesses.iter().for_each(|a| b.add_access(a));
        ds.accounts.iter().for_each(|r| b.add_account(r));
        assert_eq!(b.finish(), streamed);
        let mut b = OverviewBuilder::new();
        for (a, r) in ds.accesses.iter().zip(&ds.accounts) {
            b.add_access(a);
            b.add_account(r);
        }
        b.add_access(&ds.accesses[3]);
        assert_eq!(b.finish(), streamed);
        // Account 9 has no record: counted in totals, absent per outlet.
        assert_eq!(streamed.total_accesses, 4);
        assert_eq!(streamed.accounts_accessed, 3);
        assert_eq!(streamed.accesses_by_outlet.get("paste"), Some(&2));
        assert_eq!(streamed.accessed_by_outlet.get("forum"), Some(&1));
        assert_eq!(streamed.accesses_by_outlet.get("malware"), None);
        assert_eq!(streamed.accounts_blocked, 1);
    }
}
