#![warn(missing_docs)]

//! # pwnd — honey webmail accounts, end to end
//!
//! A full reproduction of *"What Happens After You Are Pwnd:
//! Understanding the Use of Leaked Webmail Credentials in the Wild"*
//! (Onaolapo, Mariconti, Stringhini — IMC 2016) as a deterministic Rust
//! simulation testbed: the webmail service, the Apps-Script-style
//! monitoring, the leak outlets (paste sites, underground forums,
//! information-stealing malware), a calibrated criminal population, and
//! the paper's complete analysis pipeline.
//!
//! This facade crate re-exports every subsystem under one roof:
//!
//! | module | crate | what it is |
//! |---|---|---|
//! | [`sim`] | `pwnd-sim` | discrete-event engine, deterministic RNG |
//! | [`net`] | `pwnd-net` | IP plan, geolocation, Tor, DNSBL, user agents |
//! | [`corpus`] | `pwnd-corpus` | personas + synthetic Enron-like corpus |
//! | [`webmail`] | `pwnd-webmail` | the Gmail-like service simulator |
//! | [`monitor`] | `pwnd-monitor` | scripts, scraper, the published dataset |
//! | [`leak`] | `pwnd-leak` | outlets and the resale market |
//! | [`attacker`] | `pwnd-attacker` | the calibrated criminal population |
//! | [`analysis`] | `pwnd-analysis` | §4 figures, tables, CvM, TF-IDF |
//! | [`telemetry`] | `pwnd-telemetry` | metrics, run tracing, span-tree profiling |
//! | [`faults`] | `pwnd-faults` | deterministic fault injection + retry policy |
//! | [`core`] | `pwnd-core` | experiment orchestration, runner, fleet engine |
//! | [`serve`] | `pwnd-serve` | breach-intelligence query daemon over fleet stores |
//!
//! ## Quickstart
//!
//! ```no_run
//! use pwnd::{Experiment, ExperimentConfig};
//!
//! let output = Experiment::new(ExperimentConfig::paper(2016)).run();
//! println!("{}", output.analysis().render());
//! ```

pub mod cli;
pub mod store;

pub use pwnd_analysis as analysis;
pub use pwnd_attacker as attacker;
pub use pwnd_core as core;
pub use pwnd_corpus as corpus;
pub use pwnd_faults as faults;
pub use pwnd_leak as leak;
pub use pwnd_monitor as monitor;
pub use pwnd_net as net;
pub use pwnd_serve as serve;
pub use pwnd_sim as sim;
pub use pwnd_telemetry as telemetry;
pub use pwnd_webmail as webmail;

pub use pwnd_core::{
    Batch, BatchProfile, Experiment, ExperimentConfig, FleetConfig, FleetOutput, GroundTruth,
    Interner, RunOutput, Runner, Symbol,
};
pub use pwnd_faults::{FaultProfile, RetryPolicy};
