//! IP geolocation as the webmail provider performs it.
//!
//! The paper reads locations off the Gmail account-activity page, i.e. it
//! sees *Google's* geolocation of the source IP, not the criminal's true
//! position. [`Geolocator`] reproduces that: country from the address
//! plan, a deterministic city within the country (a real geolocation DB
//! maps a block to one city, consistently), Tor exits resolved to their
//! host country, and the monitoring infrastructure pinned to a fixed city
//! so that the paper's "remove accesses from our infrastructure's city"
//! filter has something to act on.

use crate::geo::{City, GeoDb, GeoPoint};
use crate::ip::AddressPlan;
use crate::tor::TorDirectory;
use std::net::Ipv4Addr;

/// The city hosting the monitoring infrastructure. The paper's filter
/// removes both infra IPs and all accesses geolocated to this city.
pub const INFRA_CITY: &str = "London";

/// What the provider's geolocation database returns for one address.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GeoLocation {
    /// ISO country code, if the block is mapped.
    pub country: Option<&'static str>,
    /// City name shown on the activity page.
    pub city: &'static str,
    /// Coordinates of that city.
    pub point: GeoPoint,
}

/// A provider-side geolocation service.
#[derive(Clone, Debug)]
pub struct Geolocator {
    plan: AddressPlan,
    geo: GeoDb,
    tor: TorDirectory,
    /// Where every infrastructure address geolocates: [`INFRA_CITY`],
    /// looked up once instead of on every scrape.
    infra: GeoLocation,
}

impl Geolocator {
    /// Assemble from the substrate pieces.
    pub fn new(plan: AddressPlan, geo: GeoDb, tor: TorDirectory) -> Geolocator {
        let c = geo.by_name(INFRA_CITY).expect("infra city in gazetteer");
        let infra = GeoLocation {
            country: Some(c.country),
            city: c.name,
            point: c.point,
        };
        Geolocator {
            plan,
            geo,
            tor,
            infra,
        }
    }

    /// Where the monitoring infrastructure's addresses geolocate.
    pub fn infra(&self) -> GeoLocation {
        self.infra
    }

    /// Access to the underlying address plan.
    pub fn plan(&self) -> &AddressPlan {
        &self.plan
    }

    /// Access to the gazetteer.
    pub fn geo(&self) -> &GeoDb {
        &self.geo
    }

    /// Access to the Tor directory.
    pub fn tor(&self) -> &TorDirectory {
        &self.tor
    }

    /// Whether this address is a Tor exit.
    pub fn is_tor_exit(&self, ip: Ipv4Addr) -> bool {
        self.tor.is_exit(ip)
    }

    /// Deterministically pick the city a block geolocates to: a real geo
    /// database maps each block to one fixed city, weighted toward the
    /// large ones. We hash the /24 so hosts in one block co-locate.
    fn city_for(&self, country: &str, ip: Ipv4Addr) -> &'static City {
        let pool = self
            .geo
            .country(country)
            .unwrap_or_else(|| panic!("country {country} has no cities"));
        let o = ip.octets();
        let h = (o[0] as u64) << 16 | (o[1] as u64) << 8 | o[2] as u64;
        // Weight by city weight using the hash as a fixed-point fraction.
        let mut target = (h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 / (1u64 << 53) as f64
            * pool.total();
        let cities = pool.cities();
        for c in cities {
            target -= c.weight;
            if target < 0.0 {
                return c;
            }
        }
        cities[cities.len() - 1]
    }

    /// Sample a host address that geolocates to (or as near as the address
    /// plan allows to) the given city. Attackers exhibiting *location
    /// malleability* (§4.3.4) pick proxies in a target city; this is how
    /// the simulation gives them one. Rejection-samples within the city's
    /// country and falls back to the closest hit found.
    pub fn sample_host_in_city(&self, city: &City, rng: &mut pwnd_sim::Rng) -> Ipv4Addr {
        let mut best: Option<(f64, Ipv4Addr)> = None;
        for _ in 0..64 {
            let ip = self.plan.sample_host(city.country, rng);
            let loc = self.locate(ip);
            if loc.city == city.name {
                return ip;
            }
            let d = crate::geo::haversine_km(loc.point, city.point);
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, ip));
            }
        }
        best.expect("at least one sample drawn").1
    }

    /// Geolocate `ip` exactly as the provider's activity page would.
    pub fn locate(&self, ip: Ipv4Addr) -> GeoLocation {
        if AddressPlan::is_infra(ip) {
            return self.infra;
        }
        if let Some(country) = self.tor.exit_country(ip) {
            let c = self.city_for(country, ip);
            return GeoLocation {
                country: Some(country),
                city: c.name,
                point: c.point,
            };
        }
        match self.plan.country_of(ip) {
            Some(country) => {
                let c = self.city_for(country, ip);
                GeoLocation {
                    country: Some(country),
                    city: c.name,
                    point: c.point,
                }
            }
            None => {
                // Unmapped space: the provider shows "Unknown"; we pin the
                // coordinates to null island and no country.
                GeoLocation {
                    country: None,
                    city: "Unknown",
                    point: GeoPoint { lat: 0.0, lon: 0.0 },
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwnd_sim::Rng;

    fn locator() -> Geolocator {
        let geo = GeoDb::new();
        let plan = AddressPlan::new(&geo);
        let mut rng = Rng::seed_from(1);
        let tor = TorDirectory::generate(200, &mut rng);
        Geolocator::new(plan, geo, tor)
    }

    #[test]
    fn national_hosts_resolve_to_their_country() {
        let l = locator();
        let mut rng = Rng::seed_from(2);
        for country in ["GB", "US", "RU", "NG", "BR"] {
            let ip = l.plan().sample_host(country, &mut rng);
            let loc = l.locate(ip);
            assert_eq!(loc.country, Some(country));
            assert_ne!(loc.city, "Unknown");
        }
    }

    #[test]
    fn geolocation_is_deterministic_per_block() {
        let l = locator();
        let a = l.locate(Ipv4Addr::new(50, 1, 2, 3));
        let b = l.locate(Ipv4Addr::new(50, 1, 2, 200));
        assert_eq!(a, b, "same /24 must co-locate");
    }

    #[test]
    fn tor_exits_locate_to_exit_country() {
        let l = locator();
        let mut rng = Rng::seed_from(3);
        for _ in 0..50 {
            let ip = l.tor().sample_exit(&mut rng);
            let loc = l.locate(ip);
            assert!(l.is_tor_exit(ip));
            assert_eq!(loc.country, l.tor().exit_country(ip));
        }
    }

    #[test]
    fn infra_pins_to_infra_city() {
        let l = locator();
        let mut rng = Rng::seed_from(4);
        let ip = AddressPlan::sample_infra(&mut rng);
        let loc = l.locate(ip);
        assert_eq!(loc.city, INFRA_CITY);
    }

    #[test]
    fn sample_host_in_city_lands_in_or_near_city() {
        let l = locator();
        let mut rng = Rng::seed_from(9);
        let london = l.geo().by_name("London").unwrap();
        for _ in 0..50 {
            let ip = l.sample_host_in_city(london, &mut rng);
            let loc = l.locate(ip);
            assert_eq!(loc.country, Some("GB"));
            // Either exactly London or the nearest block the plan offers.
            let d = crate::geo::haversine_km(loc.point, london.point);
            assert!(d < 700.0, "got {} at {d} km", loc.city);
        }
    }

    #[test]
    fn unmapped_space_is_unknown() {
        let l = locator();
        // 224.x is multicast: never allocated by the plan, not Tor/infra.
        let loc = l.locate(Ipv4Addr::new(224, 0, 0, 5));
        assert_eq!(loc.country, None);
        assert_eq!(loc.city, "Unknown");
    }
}
