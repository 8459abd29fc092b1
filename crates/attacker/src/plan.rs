//! Access plans: the timed action scripts the experiment driver executes.
//!
//! An [`AccessPlan`] is one *unique access* in the paper's sense — one
//! attacker identity (one cookie) acting on one account across one or
//! more timed visits. The driver in `pwnd-core` interprets the actions
//! against the webmail service; this module only *composes* them, so the
//! behavioural model can be tested without a service instance.

use crate::behavior::{SessionShape, TaxonomyClass};
use crate::identity::{AttackerIdentity, IdentityPools};
use crate::profiles::OutletProfile;
use crate::search_model::{sample_queries, sample_queries_from};
use pwnd_corpus::persona::DecoyRegion;
use pwnd_sim::{Rng, SimDuration, SimTime};

/// One action inside a visit.
#[derive(Clone, Debug, PartialEq)]
pub enum Action {
    /// Look at the inbox listing (no observable notification).
    ListInbox,
    /// Search the mailbox and open up to `open_top` of the results.
    Search {
        /// Query string.
        query: String,
        /// How many of the top hits to open.
        open_top: usize,
    },
    /// Open up to `max` unread inbox messages (newest first).
    OpenUnread {
        /// Cap.
        max: usize,
    },
    /// Open up to `max` existing drafts (how later visitors found the
    /// blackmailer's abandoned ransom notes).
    OpenDrafts {
        /// Cap.
        max: usize,
    },
    /// Star the most recently opened message.
    StarLastOpened,
    /// Compose and abandon a draft.
    CreateDraft {
        /// Recipients.
        to: Vec<String>,
        /// Subject.
        subject: String,
        /// Body.
        body: String,
    },
    /// Send one message.
    SendEmail {
        /// Recipients.
        to: Vec<String>,
        /// Subject.
        subject: String,
        /// Body.
        body: String,
    },
    /// Send a burst of messages at a fixed cadence until done or blocked.
    SendBurst {
        /// Number of messages to attempt.
        count: usize,
        /// Subject template.
        subject: String,
        /// Body template.
        body: String,
        /// Seconds between sends.
        interval_secs: u64,
    },
    /// Change the account password (hijack).
    ChangePassword {
        /// The attacker's new password.
        new_password: String,
    },
    /// Rummage through the account's documents — may discover and delete
    /// the monitoring script (probability comes from the outlet profile's
    /// thoroughness; the driver rolls it).
    Rummage {
        /// Discovery-roll intensity in \[0,1\]; multiplies the script
        /// runtime's base discovery probability.
        intensity: f64,
    },
    /// Use the account as the registration address on an external service
    /// (the §4.4 carding-forum case study): a confirmation email arrives
    /// and is opened.
    RegisterExternal {
        /// The external service's name.
        service: String,
    },
}

/// One timed visit.
#[derive(Clone, Debug)]
pub struct VisitPlan {
    /// When the visit's login happens.
    pub start: SimTime,
    /// How long the visit lasts; actions are spread across this span.
    pub length: SimDuration,
    /// Actions in order.
    pub actions: Vec<Action>,
}

/// One unique access: identity + dominant class + visits.
#[derive(Clone, Debug)]
pub struct AccessPlan {
    /// Target account (experiment index).
    pub account: u32,
    /// The acting identity (stable device = one cookie).
    pub identity: AttackerIdentity,
    /// Dominant taxonomy class.
    pub class: TaxonomyClass,
    /// Timed visits, in chronological order.
    pub visits: Vec<VisitPlan>,
}

impl AccessPlan {
    /// Planned `t_last − t_0` across visits (lower-bounds the measured
    /// duration exactly as in the paper).
    pub fn planned_duration(&self) -> SimDuration {
        match (self.visits.first(), self.visits.last()) {
            (Some(first), Some(last)) => (last.start + last.length).since(first.start),
            _ => SimDuration::ZERO,
        }
    }
}

fn gold_digger_actions(profile: &OutletProfile, rng: &mut Rng, first_visit: bool) -> Vec<Action> {
    let mut actions = vec![Action::ListInbox];
    let n_queries = if first_visit {
        1 + usize::from(rng.chance(0.25))
    } else {
        1
    };
    for q in sample_queries_from(profile.query_pool, n_queries, rng) {
        actions.push(Action::Search {
            query: q.to_string(),
            open_top: 1,
        });
    }
    if rng.chance(0.3) {
        // Poke at whatever sits unread at the top of the inbox — this is
        // how the paper's attackers came to open the Apps-Script quota
        // notices (§4.4).
        actions.push(Action::OpenUnread { max: 1 });
    }
    if rng.chance(0.35) {
        actions.push(Action::OpenDrafts {
            max: rng.range_u64(1, 3) as usize,
        });
    }
    if rng.chance(0.12) {
        actions.push(Action::StarLastOpened);
    }
    actions.push(Action::Rummage {
        intensity: profile.thoroughness,
    });
    actions
}

fn spam_subject_body(rng: &mut Rng) -> (String, String) {
    let subjects = [
        "You won't believe these deals",
        "Urgent: your parcel is waiting",
        "Make money from home",
        "Limited offer inside",
    ];
    let bodies = [
        "Click the link to claim your reward now.",
        "Best prices on meds, discreet shipping worldwide.",
        "Your friend recommended this amazing opportunity.",
    ];
    (
        (*rng.choose(&subjects)).to_string(),
        (*rng.choose(&bodies)).to_string(),
    )
}

/// Shift `t` forward into the attacker's local waking window (08:00 to
/// midnight, by home-city longitude) if it falls in their night. Human
/// criminals act on stolen credentials when they are awake; this is what
/// puts diurnal structure into the access timeline.
fn align_to_waking(t: SimTime, lon: f64, rng: &mut Rng) -> SimTime {
    let tz_offset_secs = ((lon / 15.0).round() as i64) * 3600;
    let local = (t.as_secs() as i64 + tz_offset_secs).rem_euclid(86_400);
    let local_hour = local / 3600;
    if (8..24).contains(&local_hour) {
        return t;
    }
    // Asleep: resume at a jittered time during the coming morning.
    let target = 8 * 3600 + rng.range_u64(0, 6 * 3600) as i64;
    let delta = (target - local).rem_euclid(86_400);
    t + SimDuration::from_secs(delta as u64)
}

/// Compose the full plan for one fresh access.
///
/// `advertised` carries the leak's decoy region if one was published;
/// `start` is when the attacker first acts on the credentials.
pub fn build_access_plan(
    profile: &OutletProfile,
    account: u32,
    advertised: Option<DecoyRegion>,
    start: SimTime,
    pools: &mut IdentityPools<'_>,
    rng: &mut Rng,
) -> AccessPlan {
    let identity = crate::identity::sample_identity(profile, advertised, pools, rng);
    let class = profile.sample_taxonomy(rng);
    let shape = SessionShape::for_class(class);

    let n_visits = 1 + shape.sample_return_count(rng);
    let mut visits = Vec::with_capacity(n_visits);
    let lon = identity.home_city.point.lon;
    let mut t = align_to_waking(start, lon, rng);
    for v in 0..n_visits {
        let length = shape.sample_visit_length(rng);
        let first = v == 0;
        let actions: Vec<Action> = match class {
            TaxonomyClass::Curious => {
                // Login, glance, leave. Repeats "to check for new activity".
                if rng.chance(0.6) {
                    vec![Action::ListInbox]
                } else {
                    vec![]
                }
            }
            TaxonomyClass::GoldDigger => {
                if first || rng.chance(0.5) {
                    gold_digger_actions(profile, rng, first)
                } else {
                    // A quick glance for anything new.
                    vec![Action::ListInbox]
                }
            }
            TaxonomyClass::Spammer => {
                let (subject, body) = spam_subject_body(rng);
                let mut acts = Vec::new();
                if first {
                    // No access behaved *exclusively* as spammer (§4.2):
                    // they also dig or hijack.
                    if rng.chance(0.5) {
                        let q = sample_queries(1, rng)[0];
                        acts.push(Action::Search {
                            query: q.to_string(),
                            open_top: 1,
                        });
                    }
                    if rng.chance(0.25) {
                        acts.push(Action::CreateDraft {
                            to: vec![],
                            subject: subject.clone(),
                            body: body.clone(),
                        });
                    }
                    acts.push(Action::SendBurst {
                        count: rng.range_u64(110, 180) as usize,
                        subject,
                        body,
                        interval_secs: rng.range_u64(20, 60),
                    });
                    if rng.chance(0.4) {
                        acts.push(Action::ChangePassword {
                            new_password: format!("spam-{:08x}", rng.next_u64() as u32),
                        });
                    }
                } else {
                    acts.push(Action::SendBurst {
                        count: rng.range_u64(20, 60) as usize,
                        subject,
                        body,
                        interval_secs: rng.range_u64(20, 60),
                    });
                }
                acts
            }
            TaxonomyClass::Hijacker => {
                if first {
                    let mut acts = Vec::new();
                    if rng.chance(0.4) {
                        acts.push(Action::ListInbox);
                    }
                    acts.push(Action::ChangePassword {
                        new_password: format!("owned-{:08x}", rng.next_u64() as u32),
                    });
                    acts
                } else {
                    // Post-hijack use of the spoils.
                    gold_digger_actions(profile, rng, false)
                }
            }
        };
        visits.push(VisitPlan {
            start: t,
            length,
            actions,
        });
        // Next visit: gap, then snapped into the attacker's waking hours
        // (strictly after this visit ends either way).
        let raw = t + length + shape.sample_return_gap(rng);
        t = align_to_waking(raw, lon, rng).max(t + length + SimDuration::minutes(1));
    }

    AccessPlan {
        account,
        identity,
        class,
        visits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwnd_net::geo::GeoDb;

    fn build(class_forcing_seed: u64) -> AccessPlan {
        let mut rng = Rng::seed_from(class_forcing_seed);
        let geo = GeoDb::new();
        build_access_plan(
            &OutletProfile::paste(),
            0,
            Some(DecoyRegion::Uk),
            SimTime::from_secs(1_000),
            &mut IdentityPools::new(&geo),
            &mut rng,
        )
    }

    fn build_class(class: TaxonomyClass) -> AccessPlan {
        // Scan seeds until the sampled class matches; deterministic.
        for seed in 0..500 {
            let p = build(seed);
            if p.class == class {
                return p;
            }
        }
        panic!("no seed produced {class:?}");
    }

    #[test]
    fn visits_are_chronological() {
        for seed in 0..50 {
            let p = build(seed);
            assert!(!p.visits.is_empty());
            for w in p.visits.windows(2) {
                assert!(w[1].start >= w[0].start + w[0].length + SimDuration::minutes(1));
            }
            // The first visit happens at the arrival instant or — if the
            // attacker was asleep — within their next waking day.
            assert!(p.visits[0].start >= SimTime::from_secs(1_000));
            assert!(p.visits[0].start <= SimTime::from_secs(1_000) + SimDuration::days(2));
        }
    }

    #[test]
    fn visits_respect_waking_hours() {
        // All visit starts fall in the attacker's local 08:00-24:00.
        for seed in 0..200 {
            let mut rng = Rng::seed_from(seed);
            let geo = GeoDb::new();
            let p = build_access_plan(
                &OutletProfile::paste(),
                0,
                None,
                SimTime::from_secs(3 * 3600), // 03:00 UTC
                &mut IdentityPools::new(&geo),
                &mut rng,
            );
            let lon = p.identity.home_city.point.lon;
            let tz = ((lon / 15.0).round() as i64) * 3600;
            for v in &p.visits {
                let local = (v.start.as_secs() as i64 + tz).rem_euclid(86_400);
                let hour = local / 3600;
                assert!((8..24).contains(&hour), "seed {seed}: local hour {hour}");
            }
        }
    }

    #[test]
    fn hijacker_changes_password_on_first_visit() {
        let p = build_class(TaxonomyClass::Hijacker);
        assert!(p.visits[0]
            .actions
            .iter()
            .any(|a| matches!(a, Action::ChangePassword { .. })));
    }

    #[test]
    fn spammer_bursts_and_is_never_pure() {
        let p = build_class(TaxonomyClass::Spammer);
        let first = &p.visits[0].actions;
        let has_burst = first.iter().any(|a| matches!(a, Action::SendBurst { .. }));
        assert!(has_burst);
        // §4.2: spammers always do something else too (search, draft, or
        // hijack) — across many sampled spammers at least.
        let mut impure = false;
        for seed in 0..2_000 {
            let p = build(seed);
            if p.class == TaxonomyClass::Spammer {
                impure |= p.visits[0].actions.len() > 1;
            }
        }
        assert!(impure);
    }

    #[test]
    fn gold_digger_searches_sensitive_terms() {
        let p = build_class(TaxonomyClass::GoldDigger);
        let queries: Vec<&str> = p
            .visits
            .iter()
            .flat_map(|v| &v.actions)
            .filter_map(|a| match a {
                Action::Search { query, .. } => Some(query.as_str()),
                _ => None,
            })
            .collect();
        assert!(!queries.is_empty());
        for q in queries {
            assert!(crate::search_model::QUERY_POOL.iter().any(|&(t, _)| t == q));
        }
    }

    #[test]
    fn curious_accesses_do_nothing_substantial() {
        let p = build_class(TaxonomyClass::Curious);
        for v in &p.visits {
            for a in &v.actions {
                assert!(matches!(a, Action::ListInbox), "curious did {a:?}");
            }
        }
    }

    #[test]
    fn planned_duration_spans_visits() {
        for seed in 0..100 {
            let p = build(seed);
            if p.visits.len() > 1 {
                assert!(p.planned_duration() >= SimDuration::hours(4));
                return;
            }
        }
        panic!("no multi-visit plan in 100 seeds");
    }
}
