#![warn(missing_docs)]
// The monitor/fault paths must degrade gracefully, never panic;
// test code may unwrap freely.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # pwnd-monitor — the researchers' monitoring infrastructure
//!
//! Faithful to §3.1 of the paper, monitoring has two halves:
//!
//! * **Honey-account instrumentation** ([`script`]): a Google-Apps-Script
//!   runtime hidden in a spreadsheet inside each account. It notifies a
//!   dedicated collector account whenever an email is opened, sent, or
//!   starred, forwards copies of every draft, and sends a daily heartbeat
//!   proving the account is alive. Scripts consume execution-time quota
//!   (two honey accounts received "using too much computer time" notices
//!   in the paper — we reproduce that), and a sufficiently thorough
//!   attacker can discover and delete them.
//! * **External scraping** ([`scraper`]): Apps Script cannot see login IPs
//!   or locations, so external scripts periodically log into each account
//!   from the monitoring infrastructure and read the visitor-activity
//!   page. The paper dumped each page to disk for offline parsing; here
//!   each changed page's rows are folded per (account, cookie) as they
//!   are scraped, and the page itself is not kept.
//!
//! [`dataset`] merges both streams into the parsed access-metadata
//! dataset the paper publishes, applying the same filters (drop accesses
//! from the infrastructure's IPs and city) and inheriting the same
//! censoring (hijacked accounts stop scraping; blocked accounts stop
//! everything). [`export`] streams the same records as JSON Lines so a
//! fleet-scale run never materializes the full export in memory.

pub mod collector;
pub mod dataset;
pub mod export;
pub mod scraper;
pub mod script;

pub use collector::{Notification, NotificationCollector, NotificationKind};
pub use dataset::{Dataset, DatasetBuilder, GapRecord, ParsedAccess, Sightings};
pub use export::DatasetWriter;
pub use scraper::{ScrapeOutcome, Scraper};
pub use script::{ScriptRuntime, ScriptState};
