//! Property-based tests for the network substrate.

use proptest::prelude::*;
use pwnd_net::geo::{haversine_km, nearest_km, City, GeoDb, GeoPoint, NearPool, CITIES};
use pwnd_net::ip::AddressPlan;
use pwnd_net::tor::TorDirectory;
use pwnd_net::useragent::{parse_browser, parse_os, render_user_agent, Browser, Os};
use pwnd_sim::Rng;
use std::net::Ipv4Addr;

fn lat() -> impl Strategy<Value = f64> {
    -89.0..89.0f64
}
fn lon() -> impl Strategy<Value = f64> {
    -180.0..180.0f64
}
fn point() -> impl Strategy<Value = GeoPoint> {
    (lat(), lon()).prop_map(|(lat, lon)| GeoPoint { lat, lon })
}

/// A draw near `center` as it was made before pools were held: filter
/// the gazetteer, collect the weights, draw; the nearest city and no
/// draw when none is in range.
fn filter_and_draw(center: GeoPoint, max_km: f64, rng: &mut Rng) -> &'static City {
    let pool: Vec<&'static City> = CITIES
        .iter()
        .filter(|c| haversine_km(c.point, center) <= max_km)
        .collect();
    if pool.is_empty() {
        return CITIES
            .iter()
            .min_by(|a, b| {
                haversine_km(a.point, center)
                    .partial_cmp(&haversine_km(b.point, center))
                    .expect("finite distances")
            })
            .expect("non-empty gazetteer");
    }
    let weights: Vec<f64> = pool.iter().map(|c| c.weight).collect();
    pool[rng.choose_weighted(&weights)]
}

proptest! {
    /// Haversine is a metric (up to numerical noise): non-negative,
    /// symmetric, exactly zero on the diagonal, triangle inequality.
    #[test]
    fn haversine_is_a_metric(la in lat(), lo in lon(), lb in lat(), ob in lon(), lc in lat(), oc in lon()) {
        let a = GeoPoint { lat: la, lon: lo };
        let b = GeoPoint { lat: lb, lon: ob };
        let c = GeoPoint { lat: lc, lon: oc };
        let ab = haversine_km(a, b);
        let ba = haversine_km(b, a);
        let ac = haversine_km(a, c);
        let cb = haversine_km(c, b);
        prop_assert!(ab >= 0.0);
        prop_assert!((ab - ba).abs() < 1e-9);
        prop_assert_eq!(haversine_km(a, a).to_bits(), 0.0f64.to_bits());
        prop_assert!(ab <= ac + cb + 1e-6, "triangle: {ab} > {ac} + {cb}");
        // Upper bound: half the Earth's circumference.
        prop_assert!(ab <= 20_038.0);
    }

    /// `nearest_km`'s early exit on an exact match gives the same bits as
    /// the plain minimum over every distance, with and without `p` among
    /// the points.
    #[test]
    fn nearest_km_is_the_plain_minimum(
        mut points in proptest::collection::vec(point(), 0..12),
        p in point(),
        insert_p in any::<bool>(),
        at in any::<usize>(),
    ) {
        if insert_p {
            points.insert(at % (points.len() + 1), p);
        }
        let naive = points
            .iter()
            .map(|&q| haversine_km(q, p))
            .min_by(|a, b| a.partial_cmp(b).expect("finite distances"));
        prop_assert_eq!(nearest_km(&points, p).map(f64::to_bits), naive.map(f64::to_bits));
    }

    /// Every host the plan samples maps back to its own country, and
    /// never collides with Tor or infra space.
    #[test]
    fn address_plan_roundtrips(seed in any::<u64>()) {
        let geo = GeoDb::new();
        let plan = AddressPlan::new(&geo);
        let mut rng = Rng::seed_from(seed);
        let countries = plan.countries();
        for _ in 0..16 {
            let country = *rng.choose(&countries);
            let ip = plan.sample_host(country, &mut rng);
            prop_assert_eq!(plan.country_of(ip), Some(country));
            prop_assert!(!AddressPlan::is_infra(ip));
            prop_assert!(!AddressPlan::in_tor_block(ip));
        }
    }

    /// A held pool draws the same city as filtering the gazetteer and
    /// drawing, draw after draw from one RNG state, for any center and
    /// radius; a radius of a kilometre in the South Atlantic holds no
    /// city and takes the nearest-city fallback.
    #[test]
    fn held_near_pool_draws_as_filter_and_draw(
        center in point(),
        max_km in 0.0..6_000.0f64,
        empty in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (center, max_km) = if empty {
            (GeoPoint { lat: -40.0, lon: -20.0 }, 1.0)
        } else {
            (center, max_km)
        };
        let pool = GeoDb::new().near(center, max_km);
        if empty {
            prop_assert!(matches!(pool, NearPool::Nearest(_)));
        }
        let mut held = Rng::seed_from(seed);
        let mut filtered = Rng::seed_from(seed);
        for _ in 0..8 {
            prop_assert_eq!(pool.sample(&mut held).name, filter_and_draw(center, max_km, &mut filtered).name);
        }
        prop_assert_eq!(held.next_u64(), filtered.next_u64());
    }

    /// The per-country index holds each country's cities in gazetteer
    /// order, its weight total is their sum bit for bit, and a draw from
    /// it is the draw from the filtered weights.
    #[test]
    fn country_index_matches_the_filtered_gazetteer(seed in any::<u64>()) {
        let geo = GeoDb::new();
        let mut codes: Vec<&str> = CITIES.iter().map(|c| c.country).collect();
        codes.sort_unstable();
        codes.dedup();
        prop_assert_eq!(geo.country_count(), codes.len());
        let mut held = Rng::seed_from(seed);
        let mut filtered = Rng::seed_from(seed);
        for code in codes {
            let cities: Vec<&'static City> = CITIES.iter().filter(|c| c.country == code).collect();
            prop_assert_eq!(geo.cities_in(code), &cities[..]);
            let weights: Vec<f64> = cities.iter().map(|c| c.weight).collect();
            let total: f64 = cities.iter().map(|c| c.weight).sum();
            let pool = geo.country(code).expect("indexed");
            prop_assert_eq!(pool.total().to_bits(), total.to_bits());
            prop_assert_eq!(
                geo.sample_in(code, &mut held).name,
                cities[filtered.choose_weighted(&weights)].name
            );
        }
        prop_assert!(geo.cities_in("ZZ").is_empty());
        prop_assert!(geo.country("ZZ").is_none());
    }

    /// UA render → parse is the identity on (browser, os) for all
    /// identifiable pairs.
    #[test]
    fn user_agent_roundtrip(bi in 0usize..7, oi in 0usize..5) {
        let browser = Browser::IDENTIFIABLE[bi];
        let os = Os::IDENTIFIABLE[oi];
        let ua = render_user_agent(browser, os);
        prop_assert_eq!(parse_browser(&ua), browser);
        prop_assert_eq!(parse_os(&ua), os);
    }

    /// Parsing arbitrary garbage never panics and yields *some* label.
    #[test]
    fn parser_is_total(s in ".{0,120}") {
        let _ = parse_browser(&s);
        let _ = parse_os(&s);
    }

    /// Tor exit membership is consistent: sampled exits are recognized,
    /// and arbitrary non-Tor-block addresses are not.
    #[test]
    fn tor_membership_consistent(seed in any::<u64>(), a in 1u8..170, b in any::<u8>(), c in any::<u8>(), d in 1u8..255) {
        let mut rng = Rng::seed_from(seed);
        let dir = TorDirectory::generate(64, &mut rng);
        let exit = dir.sample_exit(&mut rng);
        prop_assert!(dir.is_exit(exit));
        let outside = Ipv4Addr::new(a, b, c, d);
        prop_assert!(!dir.is_exit(outside), "{outside} misclassified");
    }
}
