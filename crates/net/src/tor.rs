//! A Tor exit-node directory.
//!
//! 132 of the paper's 326 accesses arrived through Tor exits — including
//! 56 of the 57 malware-outlet accesses. The analysis classifies an access
//! as Tor by matching its IP against the public exit list, then removes it
//! from the location analysis (an exit node's geolocation says nothing
//! about the criminal). We model a directory of exit nodes parked in a
//! dedicated address block, weighted toward the countries that actually
//! host large exits (DE, NL, FR, US, ...).

use crate::ip::TOR_BLOCK;
use pwnd_sim::Rng;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Countries hosting exit relays, with rough consensus-weight shares.
const EXIT_COUNTRIES: &[(&str, f64)] = &[
    ("DE", 0.30),
    ("NL", 0.15),
    ("FR", 0.12),
    ("US", 0.12),
    ("SE", 0.06),
    ("CH", 0.06),
    ("RO", 0.05),
    ("GB", 0.05),
    ("AT", 0.04),
    ("FI", 0.03),
    ("CZ", 0.02),
];

/// A snapshot of the Tor exit list, queryable by IP.
#[derive(Clone, Debug)]
pub struct TorDirectory {
    exits: Vec<Ipv4Addr>,
    countries: HashMap<Ipv4Addr, &'static str>,
}

impl TorDirectory {
    /// Generate a directory of `n` exit nodes. Addresses live in the
    /// reserved [`TOR_BLOCK`] /8 so they never collide with national
    /// allocations.
    pub fn generate(n: usize, rng: &mut Rng) -> TorDirectory {
        assert!(n > 0 && n <= 60_000, "exit count out of range");
        let weights: Vec<f64> = EXIT_COUNTRIES.iter().map(|&(_, w)| w).collect();
        let mut exits = Vec::with_capacity(n);
        let mut countries = HashMap::with_capacity(n);
        let mut used = std::collections::HashSet::with_capacity(n);
        while exits.len() < n {
            let ip = Ipv4Addr::new(
                TOR_BLOCK,
                rng.below(256) as u8,
                rng.below(256) as u8,
                (1 + rng.below(254)) as u8,
            );
            if !used.insert(ip) {
                continue;
            }
            let country = EXIT_COUNTRIES[rng.choose_weighted(&weights)].0;
            countries.insert(ip, country);
            exits.push(ip);
        }
        TorDirectory { exits, countries }
    }

    /// Whether `ip` is a known exit node.
    pub fn is_exit(&self, ip: Ipv4Addr) -> bool {
        self.exit_country(ip).is_some()
    }

    /// Country hosting the exit, if `ip` is one. Every exit lies in
    /// [`TOR_BLOCK`], so any other address is answered without a lookup.
    pub fn exit_country(&self, ip: Ipv4Addr) -> Option<&'static str> {
        if ip.octets()[0] != TOR_BLOCK {
            return None;
        }
        self.countries.get(&ip).copied()
    }

    /// Sample an exit uniformly (a Tor client picks exits by bandwidth
    /// weight; uniform over our weighted-by-country pool approximates it).
    pub fn sample_exit(&self, rng: &mut Rng) -> Ipv4Addr {
        *rng.choose(&self.exits)
    }

    /// Number of exits in the directory.
    pub fn len(&self) -> usize {
        self.exits.len()
    }

    /// Whether the directory is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.exits.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip::AddressPlan;

    #[test]
    fn generated_exits_are_recognized() {
        let mut rng = Rng::seed_from(1);
        let dir = TorDirectory::generate(500, &mut rng);
        assert_eq!(dir.len(), 500);
        for _ in 0..100 {
            let ip = dir.sample_exit(&mut rng);
            assert!(dir.is_exit(ip));
            assert!(dir.exit_country(ip).is_some());
            assert!(AddressPlan::in_tor_block(ip));
        }
    }

    #[test]
    fn non_exits_are_rejected() {
        let mut rng = Rng::seed_from(2);
        let dir = TorDirectory::generate(100, &mut rng);
        assert!(!dir.is_exit(Ipv4Addr::new(8, 8, 8, 8)));
        assert!(dir.exit_country(Ipv4Addr::new(1, 2, 3, 4)).is_none());
    }

    #[test]
    fn exits_disjoint_from_country_space() {
        let mut rng = Rng::seed_from(3);
        let dir = TorDirectory::generate(300, &mut rng);
        let plan = AddressPlan::new(&crate::geo::GeoDb::new());
        for _ in 0..100 {
            let ip = dir.sample_exit(&mut rng);
            assert_eq!(plan.country_of(ip), None);
            assert!(!AddressPlan::is_infra(ip));
        }
    }

    #[test]
    fn exit_countries_weighted_toward_de() {
        let mut rng = Rng::seed_from(4);
        let dir = TorDirectory::generate(5_000, &mut rng);
        let de = dir.countries.values().filter(|&&c| c == "DE").count();
        let cz = dir.countries.values().filter(|&&c| c == "CZ").count();
        assert!(de > cz * 5, "de {de} cz {cz}");
    }

    #[test]
    fn exits_are_unique() {
        let mut rng = Rng::seed_from(5);
        let dir = TorDirectory::generate(2_000, &mut rng);
        let mut v = dir.exits.clone();
        v.sort_unstable();
        v.dedup();
        assert_eq!(v.len(), 2_000);
    }
}
