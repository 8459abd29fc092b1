//! Decoy sensitive emails — the paper's future-work seeding.
//!
//! §5 proposes seeding honey accounts "with some specially crafted emails
//! containing decoy sensitive information, for instance, fake bank account
//! information and login credentials" to widen the net of observable
//! search hits. We implement that extension: optional decoy messages with
//! fake banking details and credentials, each carrying a unique beacon
//! token so an analysis can tell exactly which decoy an attacker opened.

use crate::email::{Email, EmailId, MailTime};
use crate::persona::Persona;
use pwnd_sim::Rng;

/// Kinds of decoy content, each targeting a different gold-digger search.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DecoyKind {
    /// Fake bank account / routing numbers.
    BankAccount,
    /// Fake credentials for another online service.
    ServiceCredentials,
    /// Fake salary / payroll statement.
    PayrollStatement,
}

impl DecoyKind {
    /// All decoy kinds.
    pub const ALL: [DecoyKind; 3] = [
        DecoyKind::BankAccount,
        DecoyKind::ServiceCredentials,
        DecoyKind::PayrollStatement,
    ];
}

/// A generated decoy plus its tracking beacon.
#[derive(Clone, Debug)]
pub struct Decoy {
    /// The decoy message itself.
    pub email: Email,
    /// What kind of bait this is.
    pub kind: DecoyKind,
    /// Unique token embedded in the body; if it ever shows up in an opened
    /// email or an exfiltrated document, we know which decoy leaked.
    pub beacon: String,
}

/// Generate `DecoyKind::ALL`-covering decoys for one account. Ids must not
/// collide with the corpus generator's; callers pass a disjoint id base.
pub fn generate_decoys(owner: &Persona, id_base: u64, rng: &mut Rng) -> Vec<Decoy> {
    DecoyKind::ALL
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            let beacon = format!("dcy{:012x}", rng.next_u64() & 0xFFFF_FFFF_FFFF);
            let (subject, body) = render(kind, owner, &beacon, rng);
            Decoy {
                email: Email {
                    id: EmailId(id_base + i as u64),
                    from: "no-reply@firstmeridianbank.example".into(),
                    to: vec![owner.webmail_address()],
                    subject,
                    body,
                    timestamp: MailTime::days_before_epoch(rng.range_f64(2.0, 30.0)),
                },
                kind,
                beacon,
            }
        })
        .collect()
}

fn render(kind: DecoyKind, owner: &Persona, beacon: &str, rng: &mut Rng) -> (String, String) {
    match kind {
        DecoyKind::BankAccount => (
            "Your account statement is available".into(),
            format!(
                "Dear {},\nYour banking statement is listed below.\n\
                 Account number: {:010}\nRouting number: {:09}\n\
                 Current balance: ${}.00\nReference: {beacon}\n",
                owner.full_name(),
                rng.below(10_000_000_000),
                rng.below(1_000_000_000),
                rng.range_u64(2_000, 90_000),
            ),
        ),
        DecoyKind::ServiceCredentials => (
            "Password reset confirmation".into(),
            format!(
                "Hello {},\nYour new login credentials for the payment portal:\n\
                 username: {}\npassword: hx{:08x}\nKeep this email safe.\nRef: {beacon}\n",
                owner.first,
                owner.handle,
                rng.next_u64() as u32,
            ),
        ),
        DecoyKind::PayrollStatement => (
            "Payroll: salary statement attached".into(),
            format!(
                "Dear {},\nYour salary payment of ${}.00 was processed.\n\
                 Details are listed below in the attached statement.\nRef: {beacon}\n",
                owner.full_name(),
                rng.range_u64(3_000, 12_000),
            ),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persona::PersonaFactory;

    fn owner() -> (Persona, Rng) {
        let mut rng = Rng::seed_from(9);
        let p = PersonaFactory::new().generate(None, &mut rng);
        (p, rng)
    }

    #[test]
    fn covers_all_kinds_with_unique_beacons() {
        let (p, mut rng) = owner();
        let decoys = generate_decoys(&p, 1_000_000, &mut rng);
        assert_eq!(decoys.len(), DecoyKind::ALL.len());
        let mut beacons: Vec<&str> = decoys.iter().map(|d| d.beacon.as_str()).collect();
        beacons.sort_unstable();
        beacons.dedup();
        assert_eq!(beacons.len(), decoys.len());
        for d in &decoys {
            assert!(d.email.body.contains(&d.beacon));
        }
    }

    #[test]
    fn decoys_predate_the_leak() {
        let (p, mut rng) = owner();
        for d in generate_decoys(&p, 5_000, &mut rng) {
            assert!(d.email.timestamp.0 < 0);
        }
    }

    #[test]
    fn decoys_contain_searchable_sensitive_terms() {
        let (p, mut rng) = owner();
        let all: String = generate_decoys(&p, 0, &mut rng)
            .iter()
            .map(|d| d.email.full_text().to_lowercase())
            .collect();
        for term in ["account", "payment", "password", "salary"] {
            assert!(all.contains(term), "missing {term}");
        }
    }

    #[test]
    fn bank_decoy_carries_a_routing_number() {
        let (p, mut rng) = owner();
        let decoys = generate_decoys(&p, 0, &mut rng);
        let bank = decoys
            .iter()
            .find(|d| d.kind == DecoyKind::BankAccount)
            .expect("every kind is generated");
        assert!(bank.email.body.contains("Routing number"));
    }

    #[test]
    fn ids_use_the_requested_base() {
        let (p, mut rng) = owner();
        let decoys = generate_decoys(&p, 77_000, &mut rng);
        assert!(decoys.iter().all(|d| d.email.id.0 >= 77_000));
    }
}
