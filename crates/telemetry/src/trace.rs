//! The structured trace: sim-time-stamped events, streamed as they
//! happen.
//!
//! Every interesting moment of a run — a login attempt with its risk
//! verdict, a block, a hijack, a paste view, a market sale, a scrape —
//! becomes one [`TraceEvent`], handed to the sink's consumer and then
//! dropped. What to filter, keep or write is the consumer's business; a
//! sink without one only counts the events.

use crate::json::write_escaped;
use std::fmt::{self, Write};

/// One traced moment of the simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation time, seconds since the experiment epoch.
    pub at_secs: u64,
    /// Event kind (`"login"`, `"hijack"`, `"scrape"`, …).
    pub kind: &'static str,
    /// Account index, when the event concerns one account.
    pub account: Option<u32>,
    /// Free-form detail (outcome, outlet, counts), possibly empty.
    pub detail: String,
}

impl TraceEvent {
    /// Append this event as one compact JSON object (one JSONL line, no
    /// newline) to `out`: `t_secs` and `kind`, then `account` and
    /// `detail` when present.
    pub fn write_json_line(&self, out: &mut String) {
        // Writing to a `String` cannot fail.
        let _ = write!(out, "{{\"t_secs\":{},\"kind\":", self.at_secs);
        write_escaped(self.kind, out);
        if let Some(a) = self.account {
            let _ = write!(out, ",\"account\":{a}");
        }
        if !self.detail.is_empty() {
            out.push_str(",\"detail\":");
            write_escaped(&self.detail, out);
        }
        out.push('}');
    }
}

/// The consumer a streaming sink hands each event to.
type Consumer = Box<dyn FnMut(&TraceEvent) + Send>;

/// A sink's trace: how many events it recorded and, when it streams,
/// where each one goes.
#[derive(Default)]
pub(crate) struct TraceStream {
    /// Events recorded so far.
    pub(crate) events: u64,
    /// Where each event goes; with none, no event is ever built.
    pub(crate) consumer: Option<Consumer>,
}

impl TraceStream {
    /// Count one event and, when a consumer is attached, build it and
    /// hand it over.
    pub(crate) fn record(&mut self, event: impl FnOnce() -> TraceEvent) {
        self.events += 1;
        if let Some(consumer) = &mut self.consumer {
            consumer(&event());
        }
    }
}

impl fmt::Debug for TraceStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceStream")
            .field("events", &self.events)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn jsonl_lines_carry_timestamp_and_kind() {
        let mut text = String::new();
        for (at_secs, kind, account, detail) in
            [(42, "login", Some(7), "ok"), (43, "scrape", None, "")]
        {
            let detail = detail.to_string();
            TraceEvent {
                at_secs,
                kind,
                account,
                detail,
            }
            .write_json_line(&mut text);
            text.push('\n');
        }
        assert_eq!(
            text,
            "{\"t_secs\":42,\"kind\":\"login\",\"account\":7,\"detail\":\"ok\"}\n\
             {\"t_secs\":43,\"kind\":\"scrape\"}\n"
        );
        for line in text.lines() {
            let parsed = Json::parse(line).expect("valid json");
            assert!(parsed.get("t_secs").and_then(Json::as_u64).is_some());
            assert!(parsed.get("kind").and_then(Json::as_str).is_some());
        }
    }
}
