//! The one handle everything instruments through.
//!
//! [`TelemetrySink`] is a cheap clonable facade over shared state. A
//! disabled sink (the [`Default`]) holds `None` — no allocation, and
//! every recording call is a single branch. An enabled sink shares one
//! `Arc<Mutex<…>>` across every subsystem of a run, so the webmail
//! service, the scraper, the leak outlets, and the event queue all feed
//! the same registry, trace, and span tree. No sink holds trace events:
//! [`TelemetrySink::enabled`] counts them without building them, and
//! [`TelemetrySink::with_trace`] hands each one to a consumer.
//!
//! ## Spans
//!
//! [`span`](TelemetrySink::span), [`subspan`](TelemetrySink::subspan)
//! and [`SpanGuard::child`] open spans whose wall time is folded into
//! the hierarchical [`SpanTree`], the only record of wall time. Guards
//! keep a per-sink stack of open spans; a span opened while another is
//! live becomes its child in the tree. The tree's roots are the run's
//! phases.

use crate::metrics::Registry;
use crate::report::TelemetryReport;
use crate::spantree::SpanTree;
use crate::trace::{TraceEvent, TraceStream};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

#[derive(Debug, Default)]
struct Inner {
    metrics: Registry,
    trace: TraceStream,
    spans: SpanTree,
    stack: Vec<usize>,
}

fn lock(m: &Mutex<Inner>) -> MutexGuard<'_, Inner> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Render `name{k=v,k=v}`, or just `name` with no labels.
fn labeled_name(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + 8 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
    out.push('}');
    out
}

/// Shared telemetry handle. Clones observe the same underlying state;
/// a disabled sink is a true no-op.
///
/// ```
/// use pwnd_telemetry::TelemetrySink;
///
/// let sink = TelemetrySink::enabled();
/// sink.count("logins");
/// sink.gauge_set("accounts", 100);
/// let report = sink.report();
/// assert_eq!(report.metrics.counter("logins"), 1);
/// assert_eq!(report.metrics.gauge("accounts"), 100);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TelemetrySink {
    inner: Option<Arc<Mutex<Inner>>>,
}

impl TelemetrySink {
    /// A sink that records nothing and costs nothing.
    pub fn disabled() -> TelemetrySink {
        TelemetrySink { inner: None }
    }

    /// A live sink that records metrics and spans and counts trace
    /// events without building them.
    pub fn enabled() -> TelemetrySink {
        TelemetrySink::live(TraceStream::default())
    }

    /// A live sink, like [`enabled`](Self::enabled), that also hands
    /// each trace event to `consumer` as it is recorded, in record
    /// order (see the crate example). The sink's lock is held while
    /// `consumer` runs, so it must not record into the same sink.
    pub fn with_trace(consumer: impl FnMut(&TraceEvent) + Send + 'static) -> TelemetrySink {
        TelemetrySink::live(TraceStream {
            events: 0,
            consumer: Some(Box::new(consumer)),
        })
    }

    fn live(trace: TraceStream) -> TelemetrySink {
        let inner = Inner {
            trace,
            ..Inner::default()
        };
        TelemetrySink {
            inner: Some(Arc::new(Mutex::new(inner))),
        }
    }

    /// Whether this sink records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with<R>(&self, f: impl FnOnce(&mut Inner) -> R) -> Option<R> {
        self.inner.as_ref().map(|m| f(&mut lock(m)))
    }

    // ---- metrics -------------------------------------------------------

    /// Increment a counter by one.
    pub fn count(&self, name: &'static str) {
        self.count_by(name, 1);
    }

    /// Increment a counter by `n`.
    pub fn count_by(&self, name: &'static str, n: u64) {
        self.with(|i| i.metrics.count_by(name, None, n));
    }

    /// Increment a labelled counter (`name{label}`) by one.
    pub fn count_labeled(&self, name: &'static str, label: &'static str) {
        self.count_labeled_by(name, label, 1);
    }

    /// Increment a labelled counter by `n`.
    pub fn count_labeled_by(&self, name: &'static str, label: &'static str, n: u64) {
        self.with(|i| i.metrics.count_by(name, Some(label), n));
    }

    /// Set a gauge.
    pub fn gauge_set(&self, name: &'static str, value: u64) {
        self.with(|i| i.metrics.gauge_set(name, None, value));
    }

    /// Raise a gauge if `value` exceeds it (high-water mark).
    pub fn gauge_max(&self, name: &'static str, value: u64) {
        self.with(|i| i.metrics.gauge_max(name, None, value));
    }

    /// Record a histogram observation.
    pub fn observe(&self, name: &'static str, value: u64) {
        self.with(|i| i.metrics.observe(name, None, value));
    }

    /// Record a labelled histogram observation (`name{label}`) — e.g.
    /// per-endpoint request latencies keyed by route pattern.
    pub fn observe_labeled(&self, name: &'static str, label: &'static str, value: u64) {
        self.with(|i| i.metrics.observe(name, Some(label), value));
    }

    // ---- trace ---------------------------------------------------------

    /// Record a trace event with no detail.
    pub fn trace(&self, at_secs: u64, kind: &'static str, account: Option<u32>) {
        self.trace_with(at_secs, kind, account, String::new);
    }

    /// Record a trace event whose detail string is built only when the
    /// sink streams its trace ([`with_trace`](Self::with_trace)); every
    /// other sink never evaluates `detail`.
    pub fn trace_with(
        &self,
        at_secs: u64,
        kind: &'static str,
        account: Option<u32>,
        detail: impl FnOnce() -> String,
    ) {
        self.with(|i| {
            i.trace.record(|| TraceEvent {
                at_secs,
                kind,
                account,
                detail: detail(),
            })
        });
    }

    // ---- profiling -----------------------------------------------------

    /// Open a wall-clock span under the innermost open span (or at the
    /// root if none is open); the time from now until the guard drops
    /// is folded into the span tree. The same as
    /// [`subspan`](TelemetrySink::subspan) with no labels.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.subspan(name, &[])
    }

    /// Open a wall-clock span under the innermost open span (or at the
    /// root if none is open). Label pairs become part of the tree path
    /// — `subspan("event", &[("kind", "visit")])` records under
    /// `…;event{kind=visit}` — and are only formatted when the sink is
    /// enabled.
    pub fn subspan(&self, name: &'static str, labels: &[(&str, &str)]) -> SpanGuard {
        match &self.inner {
            None => SpanGuard(None),
            Some(m) => SpanGuard::open(m, None, name, labels),
        }
    }

    // ---- export --------------------------------------------------------

    /// Point-in-time report of everything recorded so far: metrics,
    /// span tree and the trace event count. Empty for a disabled sink.
    pub fn report(&self) -> TelemetryReport {
        self.with(|i| TelemetryReport {
            metrics: i.metrics.snapshot(),
            trace_events: i.trace.events,
            spans: i.spans.snapshot(),
        })
        .unwrap_or_default()
    }
}

/// RAII guard for one profiling span (see [`TelemetrySink::span`],
/// [`TelemetrySink::subspan`], and [`SpanGuard::child`]).
///
/// A disabled sink's guard is `None`: it reads no clock and takes no
/// lock, so opening and dropping it costs one branch.
#[must_use = "a span guard records its time when dropped"]
#[derive(Debug)]
pub struct SpanGuard(Option<LiveSpan>);

/// An open span of an enabled sink.
#[derive(Debug)]
struct LiveSpan {
    sink: Arc<Mutex<Inner>>,
    node: usize,
    depth: usize,
    started: Instant,
}

impl SpanGuard {
    /// Open `name{labels}` under `parent`, or under the innermost open
    /// span when `parent` is `None`, and push it on the span stack.
    fn open(
        m: &Arc<Mutex<Inner>>,
        parent: Option<usize>,
        name: &str,
        labels: &[(&str, &str)],
    ) -> SpanGuard {
        // Stamp before the bookkeeping so open-path overhead counts
        // against this span, not its parent's self time.
        let started = Instant::now();
        let (node, depth) = {
            let mut i = lock(m);
            let parent = parent.or_else(|| i.stack.last().copied());
            let node = if labels.is_empty() {
                i.spans.open(parent, name)
            } else {
                i.spans.open(parent, &labeled_name(name, labels))
            };
            i.stack.push(node);
            (node, i.stack.len() - 1)
        };
        SpanGuard(Some(LiveSpan {
            sink: Arc::clone(m),
            node,
            depth,
            started,
        }))
    }

    /// Open a span as an explicit child of this one, independent of
    /// whatever else is on the span stack. Labels join the tree path
    /// exactly as in [`TelemetrySink::subspan`].
    pub fn child(&self, name: &'static str, labels: &[(&str, &str)]) -> SpanGuard {
        match &self.0 {
            None => SpanGuard(None),
            Some(live) => SpanGuard::open(&live.sink, Some(live.node), name, labels),
        }
    }

    /// Annotate this span (and every currently open ancestor) with a
    /// simulation timestamp, widening their sim-time ranges. Root
    /// spans that saw sim time record one deterministic `span` trace
    /// event when they drop.
    pub fn sim(&self, at_secs: u64) {
        if let Some(live) = &self.0 {
            let mut guard = lock(&live.sink);
            let Inner { spans, stack, .. } = &mut *guard;
            // Widening is idempotent, so a node both here and on the
            // stack is simply annotated twice.
            spans.annotate_sim(live.node, at_secs);
            for &idx in stack.iter() {
                spans.annotate_sim(idx, at_secs);
            }
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(LiveSpan {
            sink,
            node,
            depth,
            started,
        }) = self.0.take()
        {
            let elapsed = started.elapsed();
            let mut guard = lock(&sink);
            let Inner {
                spans,
                stack,
                trace,
                ..
            } = &mut *guard;
            // A guard dropped out of LIFO order (or leaked children)
            // still leaves the stack consistent: everything at or
            // above this span's depth is closed with it.
            stack.truncate(depth);
            spans.record(node, elapsed);
            // Only the deterministic facets reach the trace: the path
            // and the sim-time range, never wall clock.
            if depth == 0 {
                if let Some((min, max)) = spans.sim_range(node) {
                    trace.record(|| TraceEvent {
                        at_secs: max,
                        kind: "span",
                        account: None,
                        detail: format!("{} sim={min}..{max}", spans.path_of(node)),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A streaming sink and the events it has handed over so far.
    fn streamed() -> (TelemetrySink, Arc<Mutex<Vec<TraceEvent>>>) {
        let events = Arc::new(Mutex::new(Vec::new()));
        let out = Arc::clone(&events);
        let sink = TelemetrySink::with_trace(move |e| out.lock().unwrap().push(e.clone()));
        (sink, events)
    }

    #[test]
    fn disabled_sink_records_nothing_and_skips_closures() {
        let sink = TelemetrySink::disabled();
        assert!(!sink.is_enabled());
        sink.count("x");
        let mut evaluated = false;
        sink.trace_with(1, "login", None, || {
            evaluated = true;
            "detail".to_string()
        });
        assert!(!evaluated, "detail closure must not run when disabled");
        let guard = sink.span("event-loop");
        let child = guard.child("event", &[("kind", "visit")]);
        child.sim(10);
        drop(child);
        drop(guard);
        drop(sink.subspan("poll", &[]));
        let report = sink.report();
        assert!(report.metrics.counters.is_empty());
        assert_eq!(report.trace_events, 0);
        assert!(report.spans.is_empty());
    }

    #[test]
    fn disabled_guards_hold_no_start_instant() {
        let sink = TelemetrySink::disabled();
        let span = sink.span("event-loop");
        let subspan = sink.subspan("event", &[("kind", "scrape")]);
        let child = span.child("parse", &[]);
        for guard in [&span, &subspan, &child] {
            assert!(guard.0.is_none(), "a disabled guard read the clock");
        }
        let live = TelemetrySink::enabled().span("event-loop");
        assert!(live.0.is_some());
    }

    #[test]
    fn clones_share_state() {
        let sink = TelemetrySink::enabled();
        let other = sink.clone();
        sink.count("a");
        other.count("a");
        other.count_labeled("b", "x");
        assert_eq!(sink.report().metrics.counter("a"), 2);
        assert_eq!(sink.report().metrics.counter("b"), 1);
    }

    #[test]
    fn spans_accumulate_phases() {
        let sink = TelemetrySink::enabled();
        {
            let _outer = sink.span("event-loop");
            let _inner = sink.span("scrape");
        }
        {
            let _again = sink.span("scrape");
        }
        let report = sink.report();
        // Phases are the roots: the nested scrape is not one of them.
        let roots: Vec<(&str, u64)> = report
            .spans
            .roots()
            .map(|n| (n.path.as_str(), n.count))
            .collect();
        assert_eq!(roots, vec![("event-loop", 1), ("scrape", 1)]);
        // The tree keeps the two scrape contexts apart.
        let paths: Vec<&str> = report.spans.nodes.iter().map(|n| n.path.as_str()).collect();
        assert_eq!(paths, vec!["event-loop", "event-loop;scrape", "scrape"]);
    }

    #[test]
    fn nesting_builds_paths_and_subspans_stay_out_of_phases() {
        let (sink, events) = streamed();
        {
            let loop_span = sink.span("event-loop");
            {
                let ev = loop_span.child("event", &[("kind", "visit"), ("class", "Curious")]);
                ev.sim(120);
                drop(ev);
            }
            {
                let _ev = sink.subspan("event", &[("kind", "scrape")]);
            }
            loop_span.sim(240);
        }
        let report = sink.report();
        let roots: Vec<&str> = report.spans.roots().map(|n| n.path.as_str()).collect();
        assert_eq!(
            roots,
            vec!["event-loop"],
            "nested spans must not add phases"
        );
        let paths: Vec<&str> = report.spans.nodes.iter().map(|n| n.path.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                "event-loop",
                "event-loop;event{kind=scrape}",
                "event-loop;event{kind=visit,class=Curious}",
            ]
        );
        // `sim` on the child annotated the open ancestor too.
        let root = report.spans.node("event-loop").unwrap();
        assert_eq!((root.sim_min, root.sim_max), (Some(120), Some(240)));
        // A sim-annotated root phase span leaves one deterministic
        // trace event: path + sim range, no wall clock.
        assert_eq!(report.trace_events, 1);
        let events = events.lock().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "span");
        assert_eq!(events[0].at_secs, 240);
        assert_eq!(events[0].detail, "event-loop sim=120..240");
    }

    #[test]
    fn multi_label_subspan_renders_all_pairs() {
        let sink = TelemetrySink::enabled();
        drop(sink.subspan("event", &[("kind", "visit"), ("class", "Gold Digger")]));
        let report = sink.report();
        assert_eq!(
            report.spans.nodes[0].path,
            "event{kind=visit,class=Gold Digger}"
        );
    }

    #[test]
    fn trace_round_trips_through_report() {
        let (sink, events) = streamed();
        sink.trace(100, "login", Some(4));
        sink.trace_with(200, "sale", None, || "wave=1".to_string());
        assert_eq!(sink.report().trace_events, 2);
        let events = events.lock().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!((events[0].at_secs, events[0].account), (100, Some(4)));
        assert_eq!(events[1].detail, "wave=1");
    }

    #[test]
    fn an_enabled_sink_counts_trace_events_without_building_them() {
        let sink = TelemetrySink::enabled();
        sink.trace(1, "login", None);
        sink.trace_with(2, "login", None, || unreachable!("a counted detail"));
        sink.span("event-loop").sim(3);
        let report = sink.report();
        // Two traced events and the root span's `span` event.
        assert_eq!(report.trace_events, 3);
        assert!(report.render().contains("trace: 3 events"));
    }
}
