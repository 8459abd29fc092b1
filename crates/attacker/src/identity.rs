//! Attacker identities: who connects, from where, with what device.

use crate::profiles::{OutletProfile, EUROPE_RADIUS_KM};
use pwnd_corpus::persona::DecoyRegion;
use pwnd_net::geo::{City, GeoDb, NearPool, UK_MIDPOINT};
use pwnd_net::useragent::{self, Browser, ClientConfig, Os};
use pwnd_sim::Rng;

/// Where an attacker's logins originate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OriginPolicy {
    /// Through Tor: a random exit per login, location analysis useless.
    Tor,
    /// From a fixed city (the attacker's home, or a proxy near the
    /// advertised decoy midpoint for location-malleable attackers).
    City(&'static City),
}

/// One attacker: a stable device plus an origin policy. The same identity
/// reused across visits is what makes the access "unique" — one cookie.
#[derive(Clone, Debug)]
pub struct AttackerIdentity {
    /// Where the attacker actually lives (ground truth; may differ from
    /// where they connect from).
    pub home_city: &'static City,
    /// Where their logins appear to come from.
    pub origin: OriginPolicy,
    /// Their browser/OS configuration.
    pub client: ClientConfig,
    /// Whether this identity deliberately connected near the advertised
    /// midpoint (ground truth for malleability analyses).
    pub malleable: bool,
}

/// Countries the worldwide criminal population draws homes from, with
/// relative weights. Deliberately a *subset* of the gazetteer: the paper
/// observed origins from 29 countries, not from everywhere — criminal
/// populations concentrate.
pub const ATTACKER_COUNTRIES: &[(&str, f64)] = &[
    ("RU", 3.0),
    ("UA", 2.0),
    ("NG", 2.5),
    ("BR", 2.0),
    ("RO", 1.5),
    ("US", 2.5),
    ("CN", 1.5),
    ("IN", 1.5),
    ("VN", 1.2),
    ("ID", 1.2),
    ("MA", 1.0),
    ("TR", 1.2),
    ("PH", 1.0),
    ("MX", 0.8),
];

/// [`ATTACKER_COUNTRIES`]' weights, in order.
const ATTACKER_WEIGHTS: [f64; ATTACKER_COUNTRIES.len()] = {
    let mut weights = [0.0; ATTACKER_COUNTRIES.len()];
    let mut i = 0;
    while i < weights.len() {
        weights[i] = ATTACKER_COUNTRIES[i].1;
        i += 1;
    }
    weights
};

/// The gazetteer pools an attacker population draws its cities from,
/// built once and held for a run: the Europe-clustered homes, and each
/// region's malleable proxies within each radius a profile uses (built
/// the first time that radius is drawn from).
#[derive(Clone, Debug)]
pub struct IdentityPools<'g> {
    geo: &'g GeoDb,
    europe: NearPool,
    /// Proxy pools by region and radius (its bits).
    proxies: Vec<(DecoyRegion, u64, NearPool)>,
}

impl<'g> IdentityPools<'g> {
    /// The pools over `geo`.
    pub fn new(geo: &'g GeoDb) -> IdentityPools<'g> {
        IdentityPools {
            geo,
            europe: geo.near(UK_MIDPOINT, EUROPE_RADIUS_KM),
            proxies: Vec::new(),
        }
    }

    /// The cities within `radius_km` of `region`'s midpoint.
    fn proxies(&mut self, region: DecoyRegion, radius_km: f64) -> &NearPool {
        let key = (region, radius_km.to_bits());
        let i = match self.proxies.iter().position(|p| (p.0, p.1) == key) {
            Some(i) => i,
            None => {
                let pool = self.geo.near(region.midpoint(), radius_km);
                self.proxies.push((key.0, key.1, pool));
                self.proxies.len() - 1
            }
        };
        &self.proxies[i].2
    }
}

/// Sample an attacker's home city: Europe-clustered with the profile's
/// probability, otherwise from the worldwide criminal-population pool.
pub fn sample_home(
    profile: &OutletProfile,
    pools: &IdentityPools<'_>,
    rng: &mut Rng,
) -> &'static City {
    if rng.chance(profile.europe_home_probability) {
        pools.europe.sample(rng)
    } else {
        let country = ATTACKER_COUNTRIES[rng.choose_weighted(&ATTACKER_WEIGHTS)].0;
        pools.geo.sample_in(country, rng)
    }
}

/// Sample a device per the profile's mix.
pub fn sample_device(profile: &OutletProfile, rng: &mut Rng) -> ClientConfig {
    let (browser, os) = if rng.chance(profile.devices.fixed_windows_probability) {
        (
            *rng.choose(&[Browser::Firefox, Browser::Chrome, Browser::Explorer]),
            Os::Windows,
        )
    } else {
        useragent::sample_consumer_client(rng)
    };
    if rng.chance(profile.devices.hide_ua_probability) {
        ClientConfig::stealth(browser, os)
    } else {
        ClientConfig::plain(browser, os)
    }
}

/// Build a full identity for an access to an account whose leak may have
/// advertised a decoy region.
pub fn sample_identity(
    profile: &OutletProfile,
    advertised: Option<DecoyRegion>,
    pools: &mut IdentityPools<'_>,
    rng: &mut Rng,
) -> AttackerIdentity {
    let home_city = sample_home(profile, pools, rng);
    let client = sample_device(profile, rng);
    if rng.chance(profile.tor_probability) {
        return AttackerIdentity {
            home_city,
            origin: OriginPolicy::Tor,
            client,
            malleable: false,
        };
    }
    if let Some(region) = advertised {
        if rng.chance(profile.location_malleability) {
            let radius = match region {
                DecoyRegion::Uk => profile.malleable_radius_uk_km,
                DecoyRegion::Us => profile.malleable_radius_us_km,
            };
            let proxy = pools.proxies(region, radius).sample(rng);
            return AttackerIdentity {
                home_city,
                origin: OriginPolicy::City(proxy),
                client,
                malleable: true,
            };
        }
    }
    AttackerIdentity {
        home_city,
        origin: OriginPolicy::City(home_city),
        client,
        malleable: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwnd_net::geo::haversine_km;

    #[test]
    fn malware_identities_are_tor_and_cloaked() {
        let mut rng = Rng::seed_from(1);
        let geo = GeoDb::new();
        let mut pools = IdentityPools::new(&geo);
        let p = OutletProfile::malware();
        let mut tor = 0;
        for _ in 0..500 {
            let id = sample_identity(&p, None, &mut pools, &mut rng);
            if id.origin == OriginPolicy::Tor {
                tor += 1;
            }
            assert!(id.client.hide_user_agent, "malware UA always hidden");
        }
        assert!(tor >= 480, "tor {tor}/500");
    }

    #[test]
    fn malleable_paste_attackers_connect_near_midpoint() {
        let mut rng = Rng::seed_from(2);
        let geo = GeoDb::new();
        let mut pools = IdentityPools::new(&geo);
        let p = OutletProfile::paste();
        let mut malleable = 0;
        let mut total_non_tor = 0;
        for _ in 0..1_000 {
            let id = sample_identity(&p, Some(DecoyRegion::Us), &mut pools, &mut rng);
            if id.origin == OriginPolicy::Tor {
                continue;
            }
            total_non_tor += 1;
            if id.malleable {
                malleable += 1;
                if let OriginPolicy::City(c) = id.origin {
                    let d = haversine_km(c.point, DecoyRegion::Us.midpoint());
                    assert!(d <= p.malleable_radius_us_km, "{} at {d}", c.name);
                }
            }
        }
        let frac = malleable as f64 / total_non_tor as f64;
        assert!((0.65..0.85).contains(&frac), "malleable frac {frac}");
    }

    #[test]
    fn no_advertised_location_means_no_malleability() {
        let mut rng = Rng::seed_from(3);
        let geo = GeoDb::new();
        let mut pools = IdentityPools::new(&geo);
        let p = OutletProfile::paste();
        for _ in 0..300 {
            let id = sample_identity(&p, None, &mut pools, &mut rng);
            assert!(!id.malleable);
            if let OriginPolicy::City(c) = id.origin {
                assert_eq!(c.name, id.home_city.name);
            }
        }
    }

    #[test]
    fn homes_are_europe_heavy() {
        let mut rng = Rng::seed_from(4);
        let geo = GeoDb::new();
        let pools = IdentityPools::new(&geo);
        let p = OutletProfile::paste();
        let near = (0..1_000)
            .filter(|_| {
                let h = sample_home(&p, &pools, &mut rng);
                haversine_km(h.point, UK_MIDPOINT) <= EUROPE_RADIUS_KM
            })
            .count();
        // forced-Europe fraction plus whatever the world draw adds.
        assert!(near > 450, "{near}/1000 in Europe");
    }

    #[test]
    fn forum_devices_less_cloaked_than_paste() {
        let mut rng = Rng::seed_from(5);
        let hidden = |p: &OutletProfile, rng: &mut Rng| {
            (0..1_000)
                .filter(|_| sample_device(p, rng).hide_user_agent)
                .count()
        };
        let paste = hidden(&OutletProfile::paste(), &mut rng);
        let forum = hidden(&OutletProfile::forum(), &mut rng);
        assert!(paste > forum, "paste {paste} forum {forum}");
    }
}
