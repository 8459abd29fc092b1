#![warn(missing_docs)]

//! # pwnd-webmail — a webmail service simulator (the "Gmail" substrate)
//!
//! The paper's measurement infrastructure interacts with Gmail through a
//! small observable surface: logins that are labelled with cookie
//! identifiers, mailbox operations (open / star / search / draft / send),
//! the visitor-activity page listing recent accesses with geolocation and
//! system fingerprint, password changes (hijack), abuse-driven account
//! blocking, signup rate-limiting, and a send-from override that redirects
//! all outbound mail into the researchers' sinkhole. This crate implements
//! that entire surface as a deterministic, single-threaded state machine.
//!
//! Layout (one module per subsystem, smoltcp-style):
//!
//! * [`account`] — account records, credentials, lifecycle states;
//! * [`mailbox`] — folders, read/star flags, drafts;
//! * [`search`] — ranked mailbox search and the provider-side query log
//!   (which the monitor can *not* read — the paper lacked search-log
//!   access);
//! * [`activity`] — the visitor-activity page (bounded ring of accesses);
//! * [`security`] — login risk analysis (the "suspicious login filter"
//!   Google disabled for the honey accounts) and the abuse detector that
//!   blocked 42 of them;
//! * [`mta`] — the sinkhole mailserver;
//! * [`events`] — the event stream Apps-Script hooks subscribe to;
//! * [`service`] — the façade tying everything together.
//!
//! Deliberately not implemented (event-level simulation, per DESIGN.md):
//! real HTTP/OAuth, IMAP/SMTP wire formats, TLS, attachment bodies.

pub mod account;
pub mod activity;
pub mod events;
pub mod mailbox;
pub mod mta;
pub mod rules;
pub mod search;
pub mod security;
pub mod service;

pub use account::{AccountId, AccountState};
pub use events::WebmailEvent;
pub use service::{LoginError, SendError, ServiceConfig, SessionId, SignupError, WebmailService};
