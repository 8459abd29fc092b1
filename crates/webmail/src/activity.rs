//! The visitor-activity page.
//!
//! Gmail's "Last account activity" page lists recent accesses with a
//! cookie identifier, access time, IP-derived geolocation, and the
//! fingerprinted system configuration. The paper's external scripts log
//! in periodically and scrape this page — it is the *only* source of
//! location and device information in the study. The page is a bounded
//! ring: if more accesses happen between two scrapes than the page holds,
//! the oldest are lost (a real censoring effect we preserve).

use pwnd_net::access::CookieId;
use pwnd_net::geolocate::GeoLocation;
use pwnd_net::useragent::Fingerprint;
use pwnd_sim::SimTime;
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// One row of the activity page.
#[derive(Clone, Copy, Debug)]
pub struct ActivityRow {
    /// The access cookie (one per unique device).
    pub cookie: CookieId,
    /// When the access happened.
    pub at: SimTime,
    /// Source address.
    pub ip: Ipv4Addr,
    /// Provider geolocation of the source address.
    pub location: GeoLocation,
    /// Fingerprinted browser/OS.
    pub fingerprint: Fingerprint,
}

/// Default number of rows Gmail shows (10 at the time of the study).
pub const DEFAULT_CAPACITY: usize = 10;

/// A bounded activity page, held oldest first: a new access evicts the
/// oldest row once the page is full.
#[derive(Clone, Debug)]
pub struct ActivityPage {
    rows: VecDeque<ActivityRow>,
    capacity: usize,
    total_recorded: u64,
}

impl Default for ActivityPage {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl ActivityPage {
    /// A page holding at most `capacity` rows.
    pub fn with_capacity(capacity: usize) -> ActivityPage {
        assert!(capacity > 0, "activity page needs at least one row");
        ActivityPage {
            rows: VecDeque::with_capacity(capacity),
            capacity,
            total_recorded: 0,
        }
    }

    /// Record an access (evicting the oldest row when full).
    pub fn record(&mut self, row: ActivityRow) {
        if self.rows.len() == self.capacity {
            self.rows.pop_front();
        }
        self.rows.push_back(row);
        self.total_recorded += 1;
    }

    /// Count `n` accesses that were recorded and then evicted by later
    /// ones before the page was read: the lifetime count grows, the rows
    /// do not change.
    pub fn record_evicted(&mut self, n: u64) {
        self.total_recorded += n;
    }

    /// Current rows, oldest first.
    pub fn rows(&self) -> impl Iterator<Item = &ActivityRow> {
        self.rows.iter()
    }

    /// Number of rows currently visible.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the page is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Lifetime count of recorded accesses (ground truth; the scraper only
    /// ever sees the visible window).
    pub fn total_recorded(&self) -> u64 {
        self.total_recorded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwnd_net::geo::GeoPoint;
    use pwnd_net::useragent::{Browser, Os};

    fn row(n: u64) -> ActivityRow {
        ActivityRow {
            cookie: CookieId(n),
            at: SimTime::from_secs(n),
            ip: Ipv4Addr::new(1, 2, 3, 4),
            location: GeoLocation {
                country: Some("GB"),
                city: "London",
                point: GeoPoint {
                    lat: 51.5,
                    lon: -0.1,
                },
            },
            fingerprint: Fingerprint {
                browser: Browser::Chrome,
                os: Os::Windows,
            },
        }
    }

    #[test]
    fn records_in_order() {
        let mut p = ActivityPage::default();
        for n in 0..5 {
            p.record(row(n));
        }
        let cookies: Vec<u64> = p.rows().map(|r| r.cookie.0).collect();
        assert_eq!(cookies, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn evicts_oldest_when_full() {
        let mut p = ActivityPage::with_capacity(3);
        for n in 0..10 {
            p.record(row(n));
        }
        let cookies: Vec<u64> = p.rows().map(|r| r.cookie.0).collect();
        assert_eq!(cookies, vec![7, 8, 9]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.total_recorded(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn zero_capacity_rejected() {
        ActivityPage::with_capacity(0);
    }
}
