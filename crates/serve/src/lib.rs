#![warn(missing_docs)]

//! # pwnd-serve — the breach-intelligence query daemon
//!
//! Everything below the serving layer answers questions by *re-running*
//! something: a full experiment, a streaming report pass. This crate
//! turns a durable fleet store (`pwnd fleet --out-dir`, format
//! `pwnd-fleet-store/1`) into a long-lived query service:
//!
//! 1. [`store::VerifiedStore`] opens a store directory, verifies every
//!    shard file against the manifest's SHA-256 claims, and streams the
//!    JSONL records — the same trust boundary the offline readers use
//!    (they share this module).
//! 2. [`index::QueryIndex`] ingests those records once into an
//!    in-memory indexed form: interned-symbol string storage, a
//!    per-account timeline index, per-outlet and attacker-class
//!    aggregate tables, and HIBP-style k-anonymity credential-hash
//!    range buckets.
//! 3. [`http::Server`] serves the versioned `/v1` JSON API over plain
//!    HTTP/1.1 (std `TcpListener`, a bounded worker-thread pool,
//!    keep-alive, token-bucket rate limiting with `Retry-After`, and
//!    graceful shutdown). See `API.md` at the workspace root for the
//!    full endpoint reference.
//! 4. [`loadgen::query_mix`] is the deterministic `/v1` request mix
//!    that load against the daemon replays (pwndbench's open loop and
//!    the concurrent-clients test).
//!
//! ## Determinism contract
//!
//! The simulation crates are held to byte-identical replay by
//! `pwnd-lint`; the serving layer is deliberately outside that regime
//! (it may read the wall clock and the network — a daemon cannot not).
//! The contract it keeps instead: **every response body is a pure
//! function of (store bytes, request path)**. Ingest order is shard
//! order, symbol ids are insertion-ordered, every observable map is a
//! `BTreeMap`, and no response contains a timestamp, duration, or
//! anything else host-dependent — so restarting the daemon over the
//! same store reproduces every response byte for byte
//! (`tests/serve_queries.rs` proves it).

pub mod http;
pub mod index;
pub mod loadgen;
pub mod store;

pub use http::{RateLimit, Route, ServeOptions, Server, ROUTES};
pub use index::{QueryIndex, StoreMeta};
pub use store::{
    shard_file_name, Manifest, ShardEntry, ShardState, VerifiedStore, MANIFEST_FILE,
    MANIFEST_FORMAT, MAX_MANIFEST_BYTES,
};
