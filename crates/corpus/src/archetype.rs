//! Persona archetypes — the §5 future-work scenario extension.
//!
//! The paper seeds generic *corporate* accounts and proposes, as future
//! work, "studying attackers who have a specific motivation, for example
//! compromising accounts that belong to political activists". An
//! archetype selects the vocabulary strata the corpus generator draws
//! from, the fictitious organization, and the sensitive terms a targeted
//! attacker would hunt for.

use crate::generator::OPENERS;
use crate::vocab::{self, FILLER};

/// Who the honey personas pretend to be.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Archetype {
    /// Employees of a fictitious energy-trading company (the paper's
    /// setup; Enron-like corpus).
    #[default]
    CorporateEmployee,
    /// Members of a fictitious civil-rights campaign (the paper's
    /// proposed extension).
    Activist,
}

/// Activist-corpus dominant vocabulary (all ≥ 5 chars).
pub const ACTIVIST_CORE: &[&str] = &[
    "campaign",
    "petition",
    "protest",
    "rights",
    "organize",
    "community",
    "volunteers",
    "coalition",
    "statement",
    "press",
    "march",
    "rally",
    "freedom",
    "justice",
    "support",
    "please",
    "would",
    "about",
    "email",
    "information",
    "meeting",
    "network",
    "movement",
    "awareness",
    "solidarity",
];

/// Activist sensitive terms — what a *motivated* attacker hunts for in a
/// dissident's mailbox: identities, funders, travel, safe contacts.
pub const ACTIVIST_SENSITIVE: &[&str] = &[
    "sources",
    "donors",
    "contacts",
    "passport",
    "location",
    "journalist",
    "funding",
    "identity",
    "travel",
    "safehouse",
];

/// `parts` concatenated, checked to fill a table of `u8` codes.
const fn code_table<const N: usize>(parts: [&[&'static str]; 4]) -> [&'static str; N] {
    let (mut table, mut i, mut p, mut k) = ([""; N], 0, 0, 0);
    while p < parts.len() {
        if k < parts[p].len() {
            (table[i], i, k) = (parts[p][k], i + 1, k + 1);
        } else {
            (p, k) = (p + 1, 0);
        }
    }
    assert!(i == N && N <= 256, "the parts fill a table of u8 codes");
    table
}

static CORPORATE_CODES: [&str; 109] =
    code_table([&OPENERS, vocab::CORE_BUSINESS, vocab::SENSITIVE, FILLER]);
static ACTIVIST_CODES: [&str; 102] =
    code_table([&OPENERS, ACTIVIST_CORE, ACTIVIST_SENSITIVE, FILLER]);

impl Archetype {
    /// Seeded sentence pieces by code: [`OPENERS`], core, sensitive, filler.
    pub fn code_table(self) -> &'static [&'static str] {
        match self {
            Archetype::CorporateEmployee => &CORPORATE_CODES,
            Archetype::Activist => &ACTIVIST_CODES,
        }
    }

    /// The corpus-dominant vocabulary for this archetype.
    pub fn core_vocab(self) -> &'static [&'static str] {
        match self {
            Archetype::CorporateEmployee => crate::vocab::CORE_BUSINESS,
            Archetype::Activist => ACTIVIST_CORE,
        }
    }

    /// The sensitive (search-bait) vocabulary for this archetype.
    pub fn sensitive_vocab(self) -> &'static [&'static str] {
        match self {
            Archetype::CorporateEmployee => crate::vocab::SENSITIVE,
            Archetype::Activist => ACTIVIST_SENSITIVE,
        }
    }

    /// The fictitious organization name in signatures.
    pub fn organization(self) -> &'static str {
        match self {
            Archetype::CorporateEmployee => crate::names::COMPANY_NAME,
            Archetype::Activist => "Open Voices Coalition",
        }
    }

    /// The organization's mail domain for peer addresses.
    pub fn domain(self) -> &'static str {
        match self {
            Archetype::CorporateEmployee => crate::names::COMPANY_DOMAIN,
            Archetype::Activist => "openvoices.example",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_tables_are_the_vocabularies_in_order() {
        for a in [Archetype::CorporateEmployee, Archetype::Activist] {
            let parts = [&OPENERS[..], a.core_vocab(), a.sensitive_vocab(), FILLER];
            assert_eq!(a.code_table(), parts.concat());
        }
        assert_eq!(Archetype::CorporateEmployee.code_table().len(), 109);
    }

    #[test]
    fn default_is_the_paper_setup() {
        assert_eq!(Archetype::default(), Archetype::CorporateEmployee);
        assert_eq!(
            Archetype::CorporateEmployee.core_vocab(),
            crate::vocab::CORE_BUSINESS
        );
    }

    #[test]
    fn activist_vocab_survives_tokenizer() {
        for w in ACTIVIST_CORE.iter().chain(ACTIVIST_SENSITIVE) {
            assert!(w.len() >= 5, "{w} would be dropped");
            assert!(w.chars().all(|c| c.is_ascii_lowercase()));
        }
    }

    #[test]
    fn archetypes_have_disjoint_sensitive_strata() {
        for w in ACTIVIST_SENSITIVE {
            // "statement" is core activist vocab but corporate-sensitive;
            // the *sensitive* strata themselves must not overlap, so the
            // scenario comparison in the activist example is meaningful.
            assert!(
                !crate::vocab::SENSITIVE.contains(w),
                "{w} in both sensitive pools"
            );
        }
    }

    #[test]
    fn organizations_differ() {
        assert_ne!(
            Archetype::CorporateEmployee.organization(),
            Archetype::Activist.organization()
        );
        assert_ne!(
            Archetype::CorporateEmployee.domain(),
            Archetype::Activist.domain()
        );
    }
}
