//! Compiling a profile into a concrete, reproducible fault plan.

use crate::profile::FaultProfile;
use pwnd_sim::{Rng, SimDuration, SimTime};

/// Salt mixed into the experiment seed so the fault stream can never
/// collide with a simulation stream (which all fork from the unsalted
/// master generator).
const FAULT_STREAM_SALT: u64 = 0xFA17_5EED_0B5E_55ED;

/// Hash-domain separators for per-event decisions.
const KIND_FLAKE: u64 = 1;
const KIND_NOTE: u64 = 2;
const KIND_MISFIRE: u64 = 3;
const KIND_JITTER: u64 = 4;

/// A half-open `[start, end)` downtime window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Window {
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
}

impl Window {
    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }
}

/// What happens to one notification in transit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NotificationFate {
    /// Delivered exactly once.
    Deliver,
    /// Lost in transit; never arrives.
    Lose,
    /// Delivered, then redelivered (at-least-once semantics: the
    /// collector sees a duplicate and must deduplicate).
    DeliverTwice,
}

/// The per-run fault schedule: downtime windows are materialized at
/// compile time, per-event decisions are pure hashes of the event's
/// identity. Two compilations of the same `(seed, profile, horizon)` are
/// identical ([`PartialEq`] proves it in tests), and no query ever
/// mutates the plan, so call order is irrelevant.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    profile: FaultProfile,
    decision_seed: u64,
    scraper_outages: Vec<Window>,
    maintenance: Vec<Window>,
}

impl FaultPlan {
    /// Compile the plan for one run. `seed` is the experiment's master
    /// seed; the plan salts it into a dedicated stream, so compiling the
    /// plan consumes nothing from the simulation's generators.
    pub fn compile(seed: u64, profile: &FaultProfile, horizon: SimDuration) -> FaultPlan {
        let mut rng = Rng::seed_from(seed ^ FAULT_STREAM_SALT);
        let decision_seed = rng.next_u64();
        let days = horizon.as_days_f64();
        let scraper_outages = sample_windows(
            &mut rng,
            profile.scraper_outages_per_30d,
            profile.scraper_outage_hours,
            days,
        );
        let maintenance = sample_windows(
            &mut rng,
            profile.maintenance_per_30d,
            profile.maintenance_hours,
            days,
        );
        FaultPlan {
            profile: profile.clone(),
            decision_seed,
            scraper_outages,
            maintenance,
        }
    }

    /// A plan that injects nothing (the default wiring everywhere).
    pub fn none() -> FaultPlan {
        FaultPlan::compile(0, &FaultProfile::none(), SimDuration::days(0))
    }

    /// Whether this plan can inject anything at all. Consumers use this
    /// to keep their fault-free fast paths branch-cheap.
    pub fn is_none(&self) -> bool {
        self.profile.is_none()
    }

    /// The profile this plan was compiled from.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// Whole-infrastructure scraper outage windows.
    pub fn scraper_outages(&self) -> &[Window] {
        &self.scraper_outages
    }

    /// Webmail provider maintenance windows.
    pub fn maintenance_windows(&self) -> &[Window] {
        &self.maintenance
    }

    /// Maintenance windows as plain spans, for consumers that must not
    /// depend on this crate (the webmail service takes these).
    pub fn maintenance_spans(&self) -> Vec<(SimTime, SimTime)> {
        self.maintenance.iter().map(|w| (w.start, w.end)).collect()
    }

    /// Is the scraping infrastructure down at `t`?
    pub fn scraper_outage_at(&self, t: SimTime) -> bool {
        self.scraper_outages.iter().any(|w| w.contains(t))
    }

    /// Is the webmail provider in maintenance at `t`?
    pub fn maintenance_at(&self, t: SimTime) -> bool {
        self.maintenance.iter().any(|w| w.contains(t))
    }

    /// Does scraper login attempt number `attempt` (0-based) against
    /// `account` at sweep time `at` fail transiently?
    pub fn login_flakes(&self, account: u32, at: SimTime, attempt: u32) -> bool {
        self.profile.scraper_flake_rate > 0.0
            && self.roll(
                KIND_FLAKE,
                u64::from(account),
                at.as_secs().wrapping_mul(64) + u64::from(attempt),
            ) < self.profile.scraper_flake_rate
    }

    /// The in-transit fate of notification `seq` from `account`.
    pub fn notification_fate(&self, account: u32, seq: u64) -> NotificationFate {
        let loss = self.profile.notification_loss_rate;
        let dup = self.profile.notification_dup_rate;
        if loss == 0.0 && dup == 0.0 {
            return NotificationFate::Deliver;
        }
        let r = self.roll(KIND_NOTE, u64::from(account), seq);
        if r < loss {
            NotificationFate::Lose
        } else if r < loss + dup {
            NotificationFate::DeliverTwice
        } else {
            NotificationFate::Deliver
        }
    }

    /// Does `account`'s daily time-driven trigger misfire on `day`?
    pub fn trigger_misfires(&self, account: u32, day: u64) -> bool {
        self.profile.trigger_misfire_rate > 0.0
            && self.roll(KIND_MISFIRE, u64::from(account), day) < self.profile.trigger_misfire_rate
    }

    /// A uniform `[0, 1)` jitter draw tied to one retry attempt, for
    /// backoff randomization that stays reproducible.
    pub fn jitter_roll(&self, account: u32, at: SimTime, attempt: u32) -> f64 {
        self.roll(
            KIND_JITTER,
            u64::from(account),
            at.as_secs().wrapping_mul(64) + u64::from(attempt),
        )
    }

    /// Pure decision hash: uniform in `[0, 1)`, a function of the plan's
    /// decision seed and the event identity only.
    fn roll(&self, kind: u64, a: u64, b: u64) -> f64 {
        let mut z = self
            .decision_seed
            .wrapping_add(kind.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(a.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(b.wrapping_mul(0x94D0_49BB_1331_11EB));
        // finalizer from SplitMix64
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::none()
    }
}

/// Materialize downtime windows: `per_30d` expected occurrences per 30
/// days over `days`, exponentially distributed durations around
/// `mean_hours`, starts uniform over the horizon, returned sorted.
fn sample_windows(rng: &mut Rng, per_30d: f64, mean_hours: f64, days: f64) -> Vec<Window> {
    if per_30d <= 0.0 || mean_hours <= 0.0 || days <= 0.0 {
        return Vec::new();
    }
    let expected = per_30d * days / 30.0;
    let mut count = expected.floor() as usize;
    if rng.chance(expected - expected.floor()) {
        count += 1;
    }
    let horizon_secs = (days * 86_400.0) as u64;
    let mut windows: Vec<Window> = (0..count)
        .map(|_| {
            let start = rng.below(horizon_secs.max(1));
            // Exponential duration via inverse CDF; clamp the tail so a
            // single window cannot swallow the whole run.
            let u = rng.f64();
            let dur_secs = (-(1.0 - u).ln() * mean_hours * 3_600.0).min(days * 86_400.0 / 4.0);
            Window {
                start: SimTime::from_secs(start),
                end: SimTime::from_secs(start) + SimDuration::from_secs(dur_secs.max(60.0) as u64),
            }
        })
        .collect();
    windows.sort_by_key(|w| (w.start, w.end));
    windows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn horizon() -> SimDuration {
        SimDuration::days(120)
    }

    #[test]
    fn none_plan_injects_nothing() {
        let p = FaultPlan::none();
        assert!(p.is_none());
        assert!(p.scraper_outages().is_empty());
        assert!(p.maintenance_windows().is_empty());
        for t in [0u64, 1_000, 5_000_000] {
            assert!(!p.scraper_outage_at(SimTime::from_secs(t)));
            assert!(!p.maintenance_at(SimTime::from_secs(t)));
            assert!(!p.login_flakes(3, SimTime::from_secs(t), 0));
            assert!(!p.trigger_misfires(3, t));
            assert_eq!(p.notification_fate(3, t), NotificationFate::Deliver);
        }
    }

    #[test]
    fn compile_is_reproducible() {
        let a = FaultPlan::compile(42, &FaultProfile::heavy(), horizon());
        let b = FaultPlan::compile(42, &FaultProfile::heavy(), horizon());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::compile(1, &FaultProfile::heavy(), horizon());
        let b = FaultPlan::compile(2, &FaultProfile::heavy(), horizon());
        assert_ne!(a, b);
    }

    #[test]
    fn heavy_plan_has_windows_and_faults() {
        let p = FaultPlan::compile(7, &FaultProfile::heavy(), horizon());
        assert!(!p.scraper_outages().is_empty());
        assert!(!p.maintenance_windows().is_empty());
        let flakes = (0..1_000)
            .filter(|&i| p.login_flakes(1, SimTime::from_secs(i * 3_600), 0))
            .count();
        // 25% flake rate over 1000 attempts: comfortably non-degenerate.
        assert!((100..500).contains(&flakes), "{flakes}");
        let lost = (0..1_000)
            .filter(|&s| p.notification_fate(1, s) == NotificationFate::Lose)
            .count();
        assert!((50..300).contains(&lost), "{lost}");
        let dup = (0..1_000)
            .filter(|&s| p.notification_fate(1, s) == NotificationFate::DeliverTwice)
            .count();
        assert!(dup > 20, "{dup}");
    }

    #[test]
    fn decisions_are_stateless() {
        let p = FaultPlan::compile(9, &FaultProfile::heavy(), horizon());
        let t = SimTime::from_secs(12_345);
        let first = p.login_flakes(4, t, 1);
        for _ in 0..10 {
            // Interleave other queries: answers never change.
            let _ = p.notification_fate(4, 99);
            let _ = p.trigger_misfires(4, 3);
            assert_eq!(p.login_flakes(4, t, 1), first);
        }
    }

    #[test]
    fn windows_are_sorted_and_bounded() {
        let p = FaultPlan::compile(11, &FaultProfile::heavy(), horizon());
        for pair in p.scraper_outages().windows(2) {
            assert!(pair[0].start <= pair[1].start);
        }
        for w in p.scraper_outages() {
            assert!(w.start < w.end);
            // Tail clamp: no window longer than a quarter of the run.
            assert!(w.end.since(w.start) <= SimDuration::days(30));
        }
    }
}
