//! Point-in-time reports: what a run recorded, rendered for humans.

use crate::metrics::MetricsSnapshot;
use crate::spantree::{SpanNode, SpanTreeSnapshot};
use crate::table::Table;
use std::time::Duration;

/// Everything a sink recorded, frozen at one instant.
///
/// Equality compares metrics only — span durations are wall clock and
/// differ between identical runs by construction. (The span tree's
/// deterministic *structure* can be compared via
/// [`SpanTreeSnapshot::structure`].) The trace events themselves are
/// never here: a sink streams them ([`TelemetrySink::with_trace`]) and
/// keeps only their count.
///
/// [`TelemetrySink::with_trace`]: crate::TelemetrySink::with_trace
#[derive(Clone, Debug, Default)]
pub struct TelemetryReport {
    /// Counter / gauge / histogram snapshot.
    pub metrics: MetricsSnapshot,
    /// Trace events one run recorded; 0 in a merge.
    pub trace_events: u64,
    /// Hierarchical span aggregate, sorted by path.
    pub spans: SpanTreeSnapshot,
}

impl PartialEq for TelemetryReport {
    fn eq(&self, other: &Self) -> bool {
        self.metrics == other.metrics
    }
}

/// Render a duration the way the profile tables do: seconds above 1s,
/// milliseconds above 1ms, whole microseconds below.
pub fn format_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs >= 1.0 {
        format!("{secs:.2}s")
    } else if secs >= 1e-3 {
        format!("{:.2}ms", secs * 1e3)
    } else {
        format!("{:.0}µs", secs * 1e6)
    }
}

impl TelemetryReport {
    /// Sum of all counter series with base name `name` (see
    /// [`MetricsSnapshot::counter`]).
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.counter(name)
    }

    /// Merge per-worker (or per-run) reports into one, deterministically:
    ///
    /// * **counters** and **histograms** sum (order-free combinators);
    /// * **gauges** keep the highest value (high-water semantics);
    /// * **span trees** fold by path — totals and counts add, sim
    ///   ranges widen — an order-free, associative combinator like the
    ///   metric merges.
    ///
    /// Traces are not merged: a trace belongs to one run, so the merged
    /// report counts no trace events. Every rule is order-free and
    /// depends only on the inputs — never on thread scheduling — so the
    /// merged report for a batch is itself a pure function of
    /// `(seeds, configs)`.
    pub fn merge(reports: &[TelemetryReport]) -> TelemetryReport {
        let mut merged = TelemetryReport::default();
        for r in reports {
            merged.metrics.merge_from(&r.metrics);
            merged.spans.merge_from(&r.spans);
        }
        merged
    }

    /// The phase table (`--profile` and `pwnd profile` output): one
    /// row per root span, largest total first (path as the tie-break),
    /// with the self time its child spans leave unexplained. Roots never
    /// nest, so the `total` row, their sum, counts no span twice.
    pub fn phase_table(&self) -> String {
        let mut roots: Vec<&SpanNode> = self.spans.roots().collect();
        roots.sort_by(|a, b| b.total.cmp(&a.total).then_with(|| a.path.cmp(&b.path)));
        let total: Duration = roots.iter().map(|n| n.total).sum();
        let percent = |part: Duration, whole: Duration| {
            if whole.is_zero() {
                "0.0%".to_string()
            } else {
                format!("{:.1}%", 100.0 * part.as_secs_f64() / whole.as_secs_f64())
            }
        };
        let mut t =
            Table::new(&["phase", "entries", "wall time", "self", "coverage", "share"]).numeric();
        for n in roots {
            let children = self.spans.children_total(&n.path);
            t.row([
                n.path.clone(),
                n.count.to_string(),
                format_duration(n.total),
                format_duration(n.total.saturating_sub(children)),
                percent(children, n.total),
                percent(n.total, total),
            ]);
        }
        t.row([
            "total".to_string(),
            String::new(),
            format_duration(total),
            String::new(),
            String::new(),
            String::new(),
        ]);
        t.render()
    }

    /// The metrics summary: counters, gauges, then histograms.
    pub fn metrics_table(&self) -> String {
        let mut out = String::new();
        if !self.metrics.counters.is_empty() {
            let mut t = Table::new(&["counter", "value"]).numeric();
            for (k, v) in &self.metrics.counters {
                t.row([k.clone(), v.to_string()]);
            }
            out.push_str(&t.render());
        }
        if !self.metrics.gauges.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            let mut t = Table::new(&["gauge", "value"]).numeric();
            for (k, v) in &self.metrics.gauges {
                t.row([k.clone(), v.to_string()]);
            }
            out.push_str(&t.render());
        }
        if !self.metrics.histograms.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            let mut t = Table::new(&["histogram", "count", "min", "mean", "max"]).numeric();
            for (k, h) in &self.metrics.histograms {
                let s = h.summary();
                t.row([
                    k.clone(),
                    s.count.to_string(),
                    s.min.to_string(),
                    format!("{:.1}", s.mean),
                    s.max.to_string(),
                ]);
            }
            out.push_str(&t.render());
        }
        out
    }

    /// Full human-readable rendering: phases, metrics, and the trace
    /// event count of one run's report (a merge counts none).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str(&self.phase_table());
            out.push('\n');
        }
        out.push_str(&self.metrics_table());
        if self.trace_events > 0 {
            out.push_str(&format!("\ntrace: {} events\n", self.trace_events));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TelemetrySink;

    #[test]
    fn equality_ignores_phases() {
        let a = TelemetrySink::enabled();
        let b = TelemetrySink::enabled();
        a.count("x");
        b.count("x");
        drop(a.span("corpus"));
        assert_eq!(a.report(), b.report());
    }

    #[test]
    fn render_mentions_each_section() {
        let sink = TelemetrySink::enabled();
        sink.count_labeled("webmail.logins", "ok");
        sink.gauge_max("queue.depth_high_water", 12);
        sink.observe("security.risk_score_milli", 400);
        drop(sink.span("event-loop"));
        sink.trace(5, "login", Some(1));
        let text = sink.report().render();
        assert!(text.contains("event-loop"));
        assert!(text.contains("webmail.logins{ok}"));
        assert!(text.contains("queue.depth_high_water"));
        assert!(text.contains("security.risk_score_milli"));
        assert!(text.contains("trace: 1 events"));
    }

    #[test]
    fn merge_sums_metrics_and_drops_traces() {
        let a = TelemetrySink::enabled();
        let b = TelemetrySink::enabled();
        a.count("runs");
        b.count("runs");
        a.gauge_max("depth", 3);
        b.gauge_max("depth", 7);
        a.trace(10, "login", Some(1));
        b.trace(20, "scrape", None);
        drop(a.span("event-loop"));
        drop(b.span("event-loop"));
        drop(b.span("dataset"));
        let merged = TelemetryReport::merge(&[a.report(), b.report()]);
        assert_eq!(merged.counter("runs"), 2);
        assert_eq!(merged.metrics.gauge("depth"), 7);
        // A trace belongs to one run: the merge counts none, and its
        // rendering has no trace line.
        assert_eq!(merged.trace_events, 0);
        assert!(!merged.render().contains("trace:"));
        // Root spans fold by path.
        let roots: Vec<(&str, u64)> = merged
            .spans
            .roots()
            .map(|n| (n.path.as_str(), n.count))
            .collect();
        assert_eq!(roots, vec![("dataset", 1), ("event-loop", 2)]);
        // Merging is order-free: reversed inputs, same report (equality
        // ignores wall-clock span totals).
        let reversed = TelemetryReport::merge(&[b.report(), a.report()]);
        assert_eq!(merged, reversed);
        assert_eq!(merged.spans.structure(), reversed.spans.structure());
    }

    #[test]
    fn merge_folds_span_trees_by_path() {
        let a = TelemetrySink::enabled();
        let b = TelemetrySink::enabled();
        for sink in [&a, &b] {
            let outer = sink.span("event-loop");
            drop(outer.child("event", &[("kind", "visit")]));
            drop(outer);
        }
        drop(b.span("dataset"));
        let merged = TelemetryReport::merge(&[a.report(), b.report()]);
        let paths: Vec<&str> = merged.spans.nodes.iter().map(|n| n.path.as_str()).collect();
        assert_eq!(
            paths,
            vec!["dataset", "event-loop", "event-loop;event{kind=visit}"]
        );
        assert_eq!(merged.spans.node("event-loop").unwrap().count, 2);
    }

    #[test]
    fn phase_rows_are_the_roots_and_total_counts_no_span_twice() {
        let sink = TelemetrySink::enabled();
        {
            let _outer = sink.span("event-loop");
            drop(sink.span("scrape"));
        }
        drop(sink.span("corpus"));
        let mut report = sink.report();
        // Pin the wall times (nodes are sorted by path) so the table's
        // arithmetic is exact.
        for (n, ms) in report.spans.nodes.iter_mut().zip([60, 100, 40]) {
            n.total = Duration::from_millis(ms);
        }
        assert_eq!(report.spans.nodes[2].path, "event-loop;scrape");
        let text = report.phase_table();
        let rows: Vec<Vec<&str>> = text
            .lines()
            .skip(2)
            .map(|l| l.split_whitespace().collect())
            .collect();
        let names: Vec<&str> = rows.iter().map(|r| r[0]).collect();
        assert_eq!(names, vec!["event-loop", "corpus", "total"]);
        // event-loop: 100ms, 60ms of it self time, 40% covered by
        // children, 62.5% of the total.
        assert_eq!(
            rows[0],
            vec!["event-loop", "1", "100.00ms", "60.00ms", "40.0%", "62.5%"]
        );
        // The total is the sum of the rows, 160ms, not the 200ms of
        // every node.
        assert_eq!(rows[2], vec!["total", "160.00ms"]);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(format_duration(Duration::from_secs(2)), "2.00s");
        assert_eq!(format_duration(Duration::from_millis(15)), "15.00ms");
        assert_eq!(format_duration(Duration::from_micros(120)), "120µs");
    }
}
