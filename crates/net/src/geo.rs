//! World gazetteer and great-circle geometry.
//!
//! The paper computes, for every non-Tor access, the haversine distance
//! from the login's geolocated city to the advertised decoy midpoint
//! (London for UK leaks, Pontiac for US leaks) and reports the median as
//! a circle radius (Figures 6a/6b). This module supplies the coordinates:
//! a fixed gazetteer of real-world cities across ~30 countries, with
//! population-style sampling weights so attacker origins look like a
//! plausible mix of large population centres.
//!
//! ## Pools built once
//!
//! Personas' homes and attackers' proxies are drawn from the cities near
//! a midpoint, and attackers' homes and geolocated blocks from the
//! cities of one country. Those city sets depend only on the gazetteer,
//! so they are built once and held, never filtered again per draw:
//! [`GeoDb`] indexes every country's cities when it is made, and
//! [`GeoDb::near`] returns a [`NearPool`] a caller keeps for the run. A
//! [`CityPool`] keeps its weights' total, summed in gazetteer order as
//! [`Rng::choose_weighted`] would sum them, so a draw from a held pool
//! takes the same random number and returns the same city as filtering
//! the gazetteer and drawing would.

use pwnd_sim::Rng;

/// A latitude/longitude pair in degrees.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GeoPoint {
    /// Latitude in degrees, positive north.
    pub lat: f64,
    /// Longitude in degrees, positive east.
    pub lon: f64,
}

/// Mean Earth radius in kilometres (IUGG).
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// Great-circle distance between two points, in kilometres (haversine).
pub fn haversine_km(a: GeoPoint, b: GeoPoint) -> f64 {
    let lat1 = a.lat.to_radians();
    let lat2 = b.lat.to_radians();
    let dlat = (b.lat - a.lat).to_radians();
    let dlon = (b.lon - a.lon).to_radians();
    let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_KM * h.sqrt().asin()
}

/// The smallest great-circle distance from any of `points` to `p`, in
/// kilometres, or `None` when `points` is empty.
///
/// A point equal to `p` short-circuits to `0.0` without any trigonometry:
/// every term of [`haversine_km`] is then `+0.0`, so the full minimum
/// would be the same bits. Logins from a habitual place (every scraper
/// login) take this path.
pub fn nearest_km(points: &[GeoPoint], p: GeoPoint) -> Option<f64> {
    if points.contains(&p) {
        return Some(0.0);
    }
    points
        .iter()
        .map(|&q| haversine_km(q, p))
        .min_by(|a, b| a.partial_cmp(b).expect("finite distances"))
}

/// A gazetteer city: name, ISO-3166 alpha-2 country code, coordinates, and
/// a relative sampling weight (roughly proportional to metro population).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct City {
    /// City name.
    pub name: &'static str,
    /// ISO-3166 alpha-2 country code.
    pub country: &'static str,
    /// Coordinates.
    pub point: GeoPoint,
    /// Relative sampling weight.
    pub weight: f64,
}

const fn city(name: &'static str, country: &'static str, lat: f64, lon: f64, weight: f64) -> City {
    City {
        name,
        country,
        point: GeoPoint { lat, lon },
        weight,
    }
}

/// The UK decoy midpoint advertised in location-bearing leaks: London.
pub const UK_MIDPOINT: GeoPoint = GeoPoint {
    lat: 51.5074,
    lon: -0.1278,
};

/// The US decoy midpoint advertised in location-bearing leaks: Pontiac, MI.
/// (The paper used Pontiac as the midpoint of its advertised US locations.)
pub const US_MIDPOINT: GeoPoint = GeoPoint {
    lat: 42.6389,
    lon: -83.2910,
};

/// Static gazetteer. Coordinates are real; weights are order-of-magnitude
/// metro populations. Countries were chosen to give the experiment a pool
/// comparable to the paper's "29 countries" of observed origins.
pub const CITIES: &[City] = &[
    // United Kingdom
    city("London", "GB", 51.5074, -0.1278, 9.0),
    city("Birmingham", "GB", 52.4862, -1.8904, 2.6),
    city("Manchester", "GB", 53.4808, -2.2426, 2.7),
    city("Glasgow", "GB", 55.8642, -4.2518, 1.7),
    city("Leeds", "GB", 53.8008, -1.5491, 1.9),
    // United States
    city("New York", "US", 40.7128, -74.0060, 19.0),
    city("Los Angeles", "US", 34.0522, -118.2437, 13.0),
    city("Chicago", "US", 41.8781, -87.6298, 9.5),
    city("Houston", "US", 29.7604, -95.3698, 7.0),
    city("Detroit", "US", 42.3314, -83.0458, 4.3),
    city("Pontiac", "US", 42.6389, -83.2910, 0.6),
    city("Miami", "US", 25.7617, -80.1918, 6.1),
    city("Seattle", "US", 47.6062, -122.3321, 4.0),
    city("Atlanta", "US", 33.7490, -84.3880, 6.0),
    // Western Europe
    city("Paris", "FR", 48.8566, 2.3522, 11.0),
    city("Marseille", "FR", 43.2965, 5.3698, 1.8),
    city("Berlin", "DE", 52.5200, 13.4050, 3.7),
    city("Frankfurt", "DE", 50.1109, 8.6821, 2.3),
    city("Munich", "DE", 48.1351, 11.5820, 1.5),
    city("Amsterdam", "NL", 52.3676, 4.9041, 2.4),
    city("Rotterdam", "NL", 51.9244, 4.4777, 1.0),
    city("Brussels", "BE", 50.8503, 4.3517, 2.1),
    city("Madrid", "ES", 40.4168, -3.7038, 6.6),
    city("Barcelona", "ES", 41.3851, 2.1734, 5.6),
    city("Lisbon", "PT", 38.7223, -9.1393, 2.9),
    city("Rome", "IT", 41.9028, 12.4964, 4.3),
    city("Milan", "IT", 45.4642, 9.1900, 3.2),
    city("Zurich", "CH", 47.3769, 8.5417, 1.4),
    city("Vienna", "AT", 48.2082, 16.3738, 1.9),
    city("Dublin", "IE", 53.3498, -6.2603, 1.2),
    city("Stockholm", "SE", 59.3293, 18.0686, 1.6),
    city("Oslo", "NO", 59.9139, 10.7522, 1.0),
    city("Copenhagen", "DK", 55.6761, 12.5683, 1.3),
    city("Helsinki", "FI", 60.1699, 24.9384, 1.2),
    // Eastern Europe
    city("Warsaw", "PL", 52.2297, 21.0122, 1.8),
    city("Prague", "CZ", 50.0755, 14.4378, 1.3),
    city("Budapest", "HU", 47.4979, 19.0402, 1.8),
    city("Bucharest", "RO", 44.4268, 26.1025, 1.8),
    city("Sofia", "BG", 42.6977, 23.3219, 1.2),
    city("Kyiv", "UA", 50.4501, 30.5234, 2.9),
    city("Moscow", "RU", 55.7558, 37.6173, 12.5),
    city("Saint Petersburg", "RU", 59.9311, 30.3609, 5.4),
    city("Minsk", "BY", 53.9006, 27.5590, 2.0),
    // Americas (non-US)
    city("Toronto", "CA", 43.6532, -79.3832, 6.2),
    city("Vancouver", "CA", 49.2827, -123.1207, 2.6),
    city("Mexico City", "MX", 19.4326, -99.1332, 21.0),
    city("Sao Paulo", "BR", -23.5505, -46.6333, 22.0),
    city("Rio de Janeiro", "BR", -22.9068, -43.1729, 13.0),
    city("Buenos Aires", "AR", -34.6037, -58.3816, 15.0),
    city("Bogota", "CO", 4.7110, -74.0721, 10.7),
    // Africa & Middle East
    city("Lagos", "NG", 6.5244, 3.3792, 14.0),
    city("Abuja", "NG", 9.0765, 7.3986, 3.6),
    city("Cairo", "EG", 30.0444, 31.2357, 20.0),
    city("Johannesburg", "ZA", -26.2041, 28.0473, 5.6),
    city("Casablanca", "MA", 33.5731, -7.5898, 3.7),
    city("Istanbul", "TR", 41.0082, 28.9784, 15.0),
    city("Tel Aviv", "IL", 32.0853, 34.7818, 4.0),
    city("Dubai", "AE", 25.2048, 55.2708, 3.3),
    // Asia-Pacific
    city("Mumbai", "IN", 19.0760, 72.8777, 20.0),
    city("Delhi", "IN", 28.7041, 77.1025, 29.0),
    city("Karachi", "PK", 24.8607, 67.0011, 16.0),
    city("Dhaka", "BD", 23.8103, 90.4125, 21.0),
    city("Jakarta", "ID", -6.2088, 106.8456, 10.6),
    city("Manila", "PH", 14.5995, 120.9842, 13.5),
    city("Hanoi", "VN", 21.0285, 105.8542, 8.0),
    city("Bangkok", "TH", 13.7563, 100.5018, 10.5),
    city("Kuala Lumpur", "MY", 3.1390, 101.6869, 7.6),
    city("Singapore", "SG", 1.3521, 103.8198, 5.6),
    city("Hong Kong", "HK", 22.3193, 114.1694, 7.5),
    city("Shanghai", "CN", 31.2304, 121.4737, 27.0),
    city("Beijing", "CN", 39.9042, 116.4074, 20.0),
    city("Seoul", "KR", 37.5665, 126.9780, 9.7),
    city("Tokyo", "JP", 35.6762, 139.6503, 37.0),
    city("Sydney", "AU", -33.8688, 151.2093, 5.3),
    city("Melbourne", "AU", -37.8136, 144.9631, 5.0),
];

/// Cities with their weights, in gazetteer order, and the weights'
/// total summed in that order: what [`Rng::choose_weighted`] draws from,
/// held so each draw neither collects the weights nor sums them.
#[derive(Clone, Debug, PartialEq)]
pub struct CityPool {
    cities: Vec<&'static City>,
    weights: Vec<f64>,
    total: f64,
}

impl CityPool {
    /// The pool of `cities`, kept in the order given. Panics if it is
    /// empty.
    fn new(cities: Vec<&'static City>) -> CityPool {
        assert!(!cities.is_empty(), "a city pool needs a city");
        let weights: Vec<f64> = cities.iter().map(|c| c.weight).collect();
        let total = weights.iter().sum();
        CityPool {
            cities,
            weights,
            total,
        }
    }

    /// The cities, in gazetteer order.
    pub fn cities(&self) -> &[&'static City] {
        &self.cities
    }

    /// The weights' total, summed in gazetteer order.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Draw a city, weighted: one [`Rng::choose_weighted`] draw.
    pub fn sample(&self, rng: &mut Rng) -> &'static City {
        self.cities[rng.choose_weighted_summed(&self.weights, self.total)]
    }
}

/// The cities within a radius of a point, held for repeated draws; see
/// [`GeoDb::near`].
#[derive(Clone, Debug, PartialEq)]
pub enum NearPool {
    /// The cities in range.
    InRange(CityPool),
    /// No city is in range: the nearest one, which a draw returns
    /// without taking a random number.
    Nearest(&'static City),
}

impl NearPool {
    /// Draw a city: a weighted draw from the cities in range, or the
    /// nearest city and no draw when none is.
    pub fn sample(&self, rng: &mut Rng) -> &'static City {
        match self {
            NearPool::InRange(pool) => pool.sample(rng),
            NearPool::Nearest(city) => city,
        }
    }
}

/// A queryable view over the gazetteer with weighted sampling.
#[derive(Clone, Debug)]
pub struct GeoDb {
    cities: &'static [City],
    /// Each country's pool, sorted by country code.
    countries: Vec<(&'static str, CityPool)>,
}

impl Default for GeoDb {
    fn default() -> Self {
        Self::new()
    }
}

impl GeoDb {
    /// The built-in world gazetteer, its per-country index built.
    pub fn new() -> GeoDb {
        let mut codes: Vec<&'static str> = CITIES.iter().map(|c| c.country).collect();
        codes.sort_unstable();
        codes.dedup();
        let countries = codes
            .into_iter()
            .map(|code| {
                let cities = CITIES.iter().filter(|c| c.country == code).collect();
                (code, CityPool::new(cities))
            })
            .collect();
        GeoDb {
            cities: CITIES,
            countries,
        }
    }

    /// All cities.
    pub fn cities(&self) -> &'static [City] {
        self.cities
    }

    /// The pool of `country`'s cities (ISO alpha-2), or `None` if the
    /// gazetteer has none.
    pub fn country(&self, country: &str) -> Option<&CityPool> {
        self.countries
            .binary_search_by(|&(code, _)| code.cmp(country))
            .ok()
            .map(|i| &self.countries[i].1)
    }

    /// All cities in `country` (ISO alpha-2), in gazetteer order.
    pub fn cities_in(&self, country: &str) -> &[&'static City] {
        self.country(country).map_or(&[], CityPool::cities)
    }

    /// Number of distinct countries in the gazetteer.
    pub fn country_count(&self) -> usize {
        self.countries.len()
    }

    /// Look up a city by exact name.
    pub fn by_name(&self, name: &str) -> Option<&'static City> {
        self.cities.iter().find(|c| c.name == name)
    }

    /// Sample a city worldwide, weighted by population weight.
    pub fn sample(&self, rng: &mut Rng) -> &'static City {
        let weights: Vec<f64> = self.cities.iter().map(|c| c.weight).collect();
        &self.cities[rng.choose_weighted(&weights)]
    }

    /// Sample a city within `country`, weighted. Panics if the country has
    /// no cities in the gazetteer.
    pub fn sample_in(&self, country: &str, rng: &mut Rng) -> &'static City {
        self.country(country)
            .unwrap_or_else(|| panic!("no cities for country {country}"))
            .sample(rng)
    }

    /// The cities within `max_km` of `center`, in gazetteer order, or
    /// the globally nearest city if none is within range. A caller that
    /// draws near one point many times holds the pool.
    pub fn near(&self, center: GeoPoint, max_km: f64) -> NearPool {
        let in_range: Vec<&'static City> = self
            .cities
            .iter()
            .filter(|c| haversine_km(c.point, center) <= max_km)
            .collect();
        if !in_range.is_empty() {
            return NearPool::InRange(CityPool::new(in_range));
        }
        let nearest = self
            .cities
            .iter()
            .min_by(|a, b| {
                haversine_km(a.point, center)
                    .partial_cmp(&haversine_km(b.point, center))
                    .expect("distances are finite")
            })
            .expect("gazetteer is non-empty");
        NearPool::Nearest(nearest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haversine_known_distances() {
        let db = GeoDb::new();
        let london = db.by_name("London").unwrap().point;
        let paris = db.by_name("Paris").unwrap().point;
        let ny = db.by_name("New York").unwrap().point;
        // London–Paris ≈ 344 km; London–New York ≈ 5570 km.
        let lp = haversine_km(london, paris);
        let ln = haversine_km(london, ny);
        assert!((330.0..360.0).contains(&lp), "London-Paris {lp}");
        assert!((5500.0..5650.0).contains(&ln), "London-NY {ln}");
    }

    #[test]
    fn haversine_is_symmetric_and_zero_on_diagonal() {
        let a = GeoPoint {
            lat: 10.0,
            lon: 20.0,
        };
        let b = GeoPoint {
            lat: -33.0,
            lon: 151.0,
        };
        assert_eq!(haversine_km(a, a), 0.0);
        let d1 = haversine_km(a, b);
        let d2 = haversine_km(b, a);
        assert!((d1 - d2).abs() < 1e-9);
    }

    #[test]
    fn midpoints_match_gazetteer() {
        let db = GeoDb::new();
        assert_eq!(db.by_name("London").unwrap().point.lat, UK_MIDPOINT.lat);
        assert_eq!(db.by_name("Pontiac").unwrap().point.lon, US_MIDPOINT.lon);
    }

    #[test]
    fn enough_countries_for_paper_scale() {
        // Paper observed accesses from 29 countries; the pool must allow that.
        assert!(GeoDb::new().country_count() >= 29);
    }

    #[test]
    fn sample_in_respects_country() {
        let db = GeoDb::new();
        let mut rng = Rng::seed_from(1);
        for _ in 0..100 {
            assert_eq!(db.sample_in("GB", &mut rng).country, "GB");
        }
    }

    #[test]
    fn sample_near_respects_radius() {
        let db = GeoDb::new();
        let mut rng = Rng::seed_from(2);
        for _ in 0..200 {
            let c = db.near(UK_MIDPOINT, 1000.0).sample(&mut rng);
            assert!(haversine_km(c.point, UK_MIDPOINT) <= 1000.0, "{}", c.name);
        }
    }

    #[test]
    fn sample_near_falls_back_to_nearest() {
        let db = GeoDb::new();
        let mut rng = Rng::seed_from(3);
        // Middle of the South Atlantic with a tiny radius: no city matches.
        let remote = GeoPoint {
            lat: -40.0,
            lon: -20.0,
        };
        let c = db.near(remote, 1.0).sample(&mut rng);
        // Falls back to the nearest gazetteer city rather than panicking.
        assert!(!c.name.is_empty());
    }

    #[test]
    fn weighted_world_sampling_prefers_megacities() {
        let db = GeoDb::new();
        let mut rng = Rng::seed_from(4);
        let mut tokyo = 0;
        let mut pontiac = 0;
        for _ in 0..20_000 {
            match db.sample(&mut rng).name {
                "Tokyo" => tokyo += 1,
                "Pontiac" => pontiac += 1,
                _ => {}
            }
        }
        assert!(tokyo > pontiac * 5, "tokyo {tokyo} pontiac {pontiac}");
    }
}
