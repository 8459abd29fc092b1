//! Fictitious account owners.
//!
//! Each honey account belongs to a persona: a popular first/last name
//! combination, a date of birth, and — for the leak groups that advertise
//! location — a home city chosen so that the advertised cities' midpoint
//! is London (UK) or Pontiac (US), mirroring the paper's §4.3.4 setup
//! ("we chose decoy UK and US locations such that London and Pontiac were
//! the midpoints of those locations").

use crate::names::{COMPANY_DOMAIN, FIRST_NAMES, LAST_NAMES};
use pwnd_net::geo::{City, GeoDb, UK_MIDPOINT, US_MIDPOINT};
use pwnd_sim::Rng;
use std::collections::BTreeSet;

/// Which decoy region a persona is advertised to live in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DecoyRegion {
    /// Advertised around London.
    Uk,
    /// Advertised around Pontiac.
    Us,
}

impl DecoyRegion {
    /// The advertised midpoint for this region.
    pub fn midpoint(self) -> pwnd_net::geo::GeoPoint {
        match self {
            DecoyRegion::Uk => UK_MIDPOINT,
            DecoyRegion::Us => US_MIDPOINT,
        }
    }

    /// ISO country code of the region.
    pub fn country(self) -> &'static str {
        match self {
            DecoyRegion::Uk => "GB",
            DecoyRegion::Us => "US",
        }
    }
}

/// A simple date of birth.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DateOfBirth {
    /// Four-digit year.
    pub year: u32,
    /// Month 1–12.
    pub month: u32,
    /// Day of month (kept ≤ 28 to avoid month-length edge cases in a
    /// purely decorative field).
    pub day: u32,
}

impl std::fmt::Display for DateOfBirth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// A fictitious employee of the fictitious company.
#[derive(Clone, Debug)]
pub struct Persona {
    /// First name, drawn from the popular-names pool.
    pub first: &'static str,
    /// Last name, drawn from the popular-names pool.
    pub last: &'static str,
    /// Mailbox handle, e.g. `james.smith4`.
    pub handle: String,
    /// Date of birth, included in location-bearing leaks.
    pub dob: DateOfBirth,
    /// Decoy region, if this persona advertises a location.
    pub region: Option<DecoyRegion>,
    /// Home city (always set; only *advertised* when `region` is `Some`).
    pub home_city: &'static City,
}

impl Persona {
    /// The persona's webmail address.
    pub fn webmail_address(&self) -> String {
        format!("{}@honeymail.example", self.handle)
    }

    /// The persona's corporate address at the fictitious company.
    pub fn corporate_address(&self) -> String {
        format!("{}@{}", self.handle, COMPANY_DOMAIN)
    }

    /// Full display name.
    pub fn full_name(&self) -> String {
        format!("{} {}", self.first, self.last)
    }
}

/// Generates distinct personas.
pub struct PersonaFactory {
    geo: GeoDb,
    used_handles: BTreeSet<String>,
    counter: u32,
}

impl Default for PersonaFactory {
    fn default() -> Self {
        Self::new()
    }
}

impl PersonaFactory {
    /// A factory over the built-in gazetteer.
    pub fn new() -> PersonaFactory {
        PersonaFactory {
            geo: GeoDb::new(),
            used_handles: BTreeSet::new(),
            counter: 0,
        }
    }

    /// Generate one persona. `region` controls the advertised decoy
    /// location; personas without one still live somewhere (their city is
    /// sampled near a midpoint at 600 km so the account history looks
    /// plausible, but the leak never mentions it).
    pub fn generate(&mut self, region: Option<DecoyRegion>, rng: &mut Rng) -> Persona {
        let first = *rng.choose(FIRST_NAMES);
        let last = *rng.choose(LAST_NAMES);
        let base = format!("{}.{}", first.to_lowercase(), last.to_lowercase());
        let handle = if self.used_handles.contains(&base) {
            loop {
                self.counter += 1;
                let candidate = format!("{base}{}", self.counter);
                if !self.used_handles.contains(&candidate) {
                    break candidate;
                }
            }
        } else {
            base
        };
        self.used_handles.insert(handle.clone());

        let dob = DateOfBirth {
            year: rng.range_u64(1960, 1995) as u32,
            month: rng.range_u64(1, 13) as u32,
            day: rng.range_u64(1, 29) as u32,
        };
        let effective = region.unwrap_or(if rng.chance(0.5) {
            DecoyRegion::Uk
        } else {
            DecoyRegion::Us
        });
        // Advertised decoy cities are picked so the group's centroid is
        // the midpoint; sampling within 600 km of it approximates that.
        let home_city = self.geo.sample_near(effective.midpoint(), 600.0, rng);
        Persona {
            first,
            last,
            handle,
            dob,
            region,
            home_city,
        }
    }

    /// Generate `n` personas with the given region assignment function.
    pub fn generate_batch(
        &mut self,
        n: usize,
        region_of: impl Fn(usize) -> Option<DecoyRegion>,
        rng: &mut Rng,
    ) -> Vec<Persona> {
        (0..n).map(|i| self.generate(region_of(i), rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwnd_net::geo::haversine_km;

    #[test]
    fn handles_are_unique() {
        let mut f = PersonaFactory::new();
        let mut rng = Rng::seed_from(1);
        let batch = f.generate_batch(200, |_| None, &mut rng);
        let handles: BTreeSet<_> = batch.iter().map(|p| p.handle.clone()).collect();
        assert_eq!(handles.len(), 200);
    }

    #[test]
    fn uk_personas_live_near_london() {
        let mut f = PersonaFactory::new();
        let mut rng = Rng::seed_from(2);
        for _ in 0..50 {
            let p = f.generate(Some(DecoyRegion::Uk), &mut rng);
            let d = haversine_km(p.home_city.point, UK_MIDPOINT);
            assert!(d <= 600.0, "{} at {d} km", p.home_city.name);
        }
    }

    #[test]
    fn us_personas_live_near_pontiac() {
        let mut f = PersonaFactory::new();
        let mut rng = Rng::seed_from(3);
        for _ in 0..50 {
            let p = f.generate(Some(DecoyRegion::Us), &mut rng);
            let d = haversine_km(p.home_city.point, US_MIDPOINT);
            assert!(d <= 600.0, "{} at {d} km", p.home_city.name);
        }
    }

    #[test]
    fn addresses_are_well_formed() {
        let mut f = PersonaFactory::new();
        let mut rng = Rng::seed_from(4);
        let p = f.generate(None, &mut rng);
        assert!(p.webmail_address().ends_with("@honeymail.example"));
        assert!(p.corporate_address().contains('@'));
        assert!(p.full_name().contains(' '));
        assert!(p.region.is_none());
    }

    #[test]
    fn dob_in_plausible_range() {
        let mut f = PersonaFactory::new();
        let mut rng = Rng::seed_from(5);
        for _ in 0..100 {
            let p = f.generate(Some(DecoyRegion::Uk), &mut rng);
            assert!((1960..1995).contains(&p.dob.year));
            assert!((1..=12).contains(&p.dob.month));
            assert!((1..=28).contains(&p.dob.day));
        }
    }
}
