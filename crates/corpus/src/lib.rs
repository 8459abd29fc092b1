#![warn(missing_docs)]

//! # pwnd-corpus — personas and the synthetic corporate email corpus
//!
//! The paper populated each honey account with 200–300 emails from the
//! public Enron corpus, after (a) mapping Enron recipients onto fictitious
//! personas with popular first/last names, (b) replacing the company name,
//! and (c) translating timestamps so the mailbox looked recently active.
//! The Enron corpus itself is not redistributable inside this workspace,
//! so we generate an *Enron-like* corpus instead: corporate email threads
//! about an energy-trading company, with a Zipfian vocabulary whose most
//! important terms ("transfer", "company", "energy", "power", …) match the
//! right-hand column of the paper's Table 2. The TF-IDF analysis only
//! consumes token statistics, so this preserves the behaviour that matters.
//!
//! Provided here:
//!
//! * [`persona`] — fictitious account owners: popular names, date of
//!   birth, and a home city near the advertised UK/US decoy midpoints;
//! * [`email`] — the message type shared by every crate that touches mail;
//! * [`generator`] — mailbox synthesis: threads, reply chains, timestamp
//!   translation into the 90 days before the leak, and the TF-IDF `d_A`
//!   counts of what it wrote, taken from its own draws;
//! * [`tokenize`] — the preprocessing pipeline of §4.3.5 (≥ 5-character
//!   terms, header-word stoplist, handle stripping);
//! * [`decoy`] — optional decoy-sensitive emails (the paper's future-work
//!   seeding: fake bank credentials to attract gold diggers).

pub mod archetype;
pub mod decoy;
pub mod email;
pub mod generator;
pub mod names;
pub mod persona;
pub mod tokenize;
pub mod vocab;

pub use archetype::Archetype;
pub use email::{Email, EmailId, MailTime};
pub use generator::{CorpusGenerator, SeededBodies, SeededEmail, SeededMail};
pub use persona::{DecoyRegion, Persona};
