#![warn(missing_docs)]

//! # pwnd-telemetry — observability for the simulation stack
//!
//! The paper's contribution is *observation*: honey accounts are only as
//! good as the instrumentation watching them. This crate gives the
//! simulator the same treatment — a first-class observability layer with
//! three facets, all reached through one handle, [`TelemetrySink`]:
//!
//! 1. a **metrics registry** ([`metrics`]) of named counters, gauges,
//!    and log-bucketed histograms, optionally labelled
//!    (`webmail.logins{outcome}`, `sim.events_dispatched{kind}`, …);
//! 2. a **structured trace** ([`trace`]) of sim-time-stamped
//!    [`TraceEvent`] records, streamed to one consumer as they happen
//!    ([`TelemetrySink::with_trace`]) and otherwise only counted;
//! 3. a **hierarchical span tree** ([`spantree`]) aggregating nested
//!    spans by path (`event-loop;event{kind=visit}`), with per-path
//!    wall time, entry counts, sim-time ranges, self-vs-child
//!    attribution, and a flamegraph collapsed-stack export. It is the
//!    only record of wall time: its roots are the phase table's rows.
//!
//! ## The zero-overhead contract
//!
//! A disabled sink (the default) holds no allocation at all: every
//! recording method is a single `Option` branch, trace-detail closures
//! are never evaluated, and span guards are empty. An enabled sink
//! with no trace consumer skips those closures too. Crucially, telemetry
//! **never consumes simulation RNG** and never feeds back into the
//! model, so enabling or disabling it cannot change a run's outcome —
//! `crates/core` has a test proving the exported dataset is
//! byte-identical either way.
//!
//! A trace belongs to one run: [`TelemetryReport::merge`] combines
//! metrics and span trees, never traces.
//!
//! The crate sits below `pwnd-sim` in the dependency order, so it speaks
//! raw `u64` seconds rather than `SimTime` and has no dependencies. That
//! makes it the home of the pieces every layer shares: the [`json`]
//! codec, the [`Table`] renderer and the capped JSON Lines reader
//! [`jsonl::for_each_line`].
//!
//! ```
//! use pwnd_telemetry::TelemetrySink;
//!
//! // Each trace event reaches the consumer as it is recorded.
//! let sink = TelemetrySink::with_trace(|e| {
//!     let mut line = String::new();
//!     e.write_json_line(&mut line);
//!     assert_eq!(line, r#"{"t_secs":86400,"kind":"login","account":3}"#);
//! });
//! sink.count_labeled("webmail.logins", "ok");
//! sink.trace(86_400, "login", Some(3));
//! let report = sink.report();
//! assert_eq!(report.counter("webmail.logins"), 1);
//! assert_eq!(report.trace_events, 1);
//! ```

pub mod json;
pub mod jsonl;
pub mod metrics;
pub mod report;
pub mod sink;
pub mod spantree;
pub mod table;
pub mod trace;

pub use json::{Json, JsonError};
pub use metrics::{HistogramSummary, MetricsSnapshot};
pub use report::{format_duration, TelemetryReport};
pub use sink::{SpanGuard, TelemetrySink};
pub use spantree::{SpanAttribution, SpanNode, SpanTree, SpanTreeSnapshot};
pub use table::Table;
pub use trace::TraceEvent;
