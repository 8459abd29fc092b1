//! The structured trace: sim-time-stamped events in a bounded ring.
//!
//! Every interesting moment of a run — a login attempt with its risk
//! verdict, a block, a hijack, a paste view, a market sale, a scrape —
//! becomes one [`TraceEvent`]. The buffer is bounded so a 236-day run
//! cannot exhaust memory; when full, the oldest events are dropped and
//! counted, never silently lost.

use crate::json::Json;

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
    /// Render as one JSON object value.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("t_secs".to_string(), Json::U(self.at_secs)),
            ("kind".to_string(), Json::Str(self.kind.to_string())),
        ];
        if let Some(a) = self.account {
            fields.push(("account".to_string(), Json::U(u64::from(a))));
        }
        if !self.detail.is_empty() {
            fields.push(("detail".to_string(), Json::Str(self.detail.clone())));
        }
        Json::Obj(fields)
    }

    /// Render as one compact JSON object (one JSONL line, no newline).
    pub fn to_json_line(&self) -> String {
        self.to_json().compact()
    }
}

/// Bounded ring buffer of trace events.
#[derive(Clone, Debug)]
pub struct TraceBuffer {
    events: std::collections::VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

/// Default trace capacity: ample for a paper run at the emission rates
/// the instrumentation uses (per-tick, not per-account, for the chatty
/// sources).
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

impl Default for TraceBuffer {
    fn default() -> Self {
        TraceBuffer::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceBuffer {
    /// An empty buffer holding at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> TraceBuffer {
        TraceBuffer {
            events: std::collections::VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Append an event, evicting the oldest when full.
    pub fn push(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Events evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Point-in-time copy of the held events.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.events.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64) -> TraceEvent {
        TraceEvent {
            at_secs: at,
            kind: "login",
            account: Some(7),
            detail: "ok".to_string(),
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut b = TraceBuffer::with_capacity(3);
        for t in 0..5 {
            b.push(ev(t));
        }
        assert_eq!(b.events().count(), 3);
        assert_eq!(b.dropped(), 2);
        let ts: Vec<u64> = b.events().map(|e| e.at_secs).collect();
        assert_eq!(ts, vec![2, 3, 4]);
    }

    #[test]
    fn jsonl_lines_carry_timestamp_and_kind() {
        let mut b = TraceBuffer::default();
        b.push(ev(42));
        b.push(TraceEvent {
            at_secs: 43,
            kind: "scrape",
            account: None,
            detail: String::new(),
        });
        let lines: Vec<String> = b.events().map(TraceEvent::to_json_line).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            r#"{"t_secs":42,"kind":"login","account":7,"detail":"ok"}"#
        );
        assert_eq!(lines[1], r#"{"t_secs":43,"kind":"scrape"}"#);
        for line in lines {
            let parsed = Json::parse(&line).expect("valid json");
            assert!(parsed.get("t_secs").and_then(Json::as_u64).is_some());
            assert!(parsed.get("kind").and_then(Json::as_str).is_some());
        }
    }
}
