//! A DNS blacklist (Spamhaus-style) with listing dynamics.
//!
//! The paper checked every observed origin IP against the Spamhaus
//! blacklist and found 20 hits, interpreting them as malware-infected
//! residential machines used as stepping stones. We model a blacklist
//! that (a) carries a pre-seeded population of listed residential
//! addresses and (b) lists additional addresses when abuse reports arrive
//! (e.g. an address observed emitting spam), with timestamps so analyses
//! can ask "was this IP listed at access time?".

use pwnd_sim::SimTime;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Why an address was listed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ListingReason {
    /// Known botnet-infected residential host (pre-seeded listings).
    InfectedHost,
    /// Observed emitting spam during the experiment.
    SpamSource,
    /// Listed exploit/proxy host.
    OpenProxy,
}

/// A single blacklist entry.
#[derive(Clone, Copy, Debug)]
pub struct Listing {
    /// When the address was listed.
    pub since: SimTime,
    /// Why it was listed.
    pub reason: ListingReason,
}

/// An append-only IP blacklist.
#[derive(Clone, Debug, Default)]
pub struct Blacklist {
    entries: BTreeMap<Ipv4Addr, Listing>,
}

impl Blacklist {
    /// An empty blacklist.
    pub fn new() -> Blacklist {
        Blacklist::default()
    }

    /// List `ip` at `at` for `reason`. Re-listing keeps the earliest entry
    /// (Spamhaus listings persist; the first listing time is what matters
    /// for "was it listed when we saw it").
    pub fn list(&mut self, ip: Ipv4Addr, at: SimTime, reason: ListingReason) {
        self.entries
            .entry(ip)
            .or_insert(Listing { since: at, reason });
    }

    /// Whether `ip` is listed at time `at`.
    pub fn is_listed(&self, ip: Ipv4Addr, at: SimTime) -> bool {
        self.entries.get(&ip).is_some_and(|l| l.since <= at)
    }

    /// Whether `ip` is listed at any time (the paper's post-hoc check ran
    /// once, after data collection).
    pub fn is_ever_listed(&self, ip: Ipv4Addr) -> bool {
        self.entries.contains_key(&ip)
    }

    /// The listing entry for `ip`, if any.
    pub fn entry(&self, ip: Ipv4Addr) -> Option<&Listing> {
        self.entries.get(&ip)
    }

    /// Number of listed addresses.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no address is listed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwnd_sim::SimDuration;

    fn ip(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(100, 0, 0, n)
    }

    #[test]
    fn listing_takes_effect_at_time() {
        let mut bl = Blacklist::new();
        let t = SimTime::ZERO + SimDuration::days(5);
        bl.list(ip(1), t, ListingReason::SpamSource);
        assert!(!bl.is_listed(ip(1), SimTime::ZERO));
        assert!(bl.is_listed(ip(1), t));
        assert!(bl.is_listed(ip(1), t + SimDuration::days(1)));
        assert!(bl.is_ever_listed(ip(1)));
    }

    #[test]
    fn relisting_keeps_earliest() {
        let mut bl = Blacklist::new();
        let t1 = SimTime::from_secs(100);
        let t2 = SimTime::from_secs(200);
        bl.list(ip(2), t1, ListingReason::InfectedHost);
        bl.list(ip(2), t2, ListingReason::SpamSource);
        let e = bl.entry(ip(2)).unwrap();
        assert_eq!(e.since, t1);
        assert_eq!(e.reason, ListingReason::InfectedHost);
        assert_eq!(bl.len(), 1);
    }

    #[test]
    fn unlisted_addresses_report_false() {
        let bl = Blacklist::new();
        assert!(!bl.is_listed(ip(3), SimTime::from_secs(1_000_000)));
        assert!(!bl.is_ever_listed(ip(3)));
        assert!(bl.is_empty());
    }
}
