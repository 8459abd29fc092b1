//! Point-in-time reports: what a run recorded, rendered for humans.

use crate::json::Json;
use crate::metrics::{Histogram, MetricsSnapshot};
use crate::spantree::{SpanNode, SpanTreeSnapshot};
use crate::table::Table;
use crate::trace::TraceEvent;
use std::collections::BTreeMap;
use std::time::Duration;

/// Everything a sink recorded, frozen at one instant.
///
/// Equality compares metrics and trace only — span durations are wall
/// clock and differ between identical runs by construction. (The span
/// tree's deterministic *structure* can be compared via
/// [`SpanTreeSnapshot::structure`].)
#[derive(Clone, Debug, Default)]
pub struct TelemetryReport {
    /// Counter / gauge / histogram snapshot.
    pub metrics: MetricsSnapshot,
    /// Trace events currently in the ring, oldest first.
    pub trace: Vec<TraceEvent>,
    /// Trace events evicted because the ring was full.
    pub trace_dropped: u64,
    /// Hierarchical span aggregate, sorted by path.
    pub spans: SpanTreeSnapshot,
}

impl PartialEq for TelemetryReport {
    fn eq(&self, other: &Self) -> bool {
        self.metrics == other.metrics
            && self.trace == other.trace
            && self.trace_dropped == other.trace_dropped
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
    /// * **traces** are interleaved by `(t_secs, input index)` — each
    ///   input's trace is already time-ordered, so a stable k-way merge
    ///   keyed on sim time with the submission index as tie-break gives
    ///   one canonical stream, independent of which thread ran what;
    /// * **span trees** fold by path — totals and counts add, sim
    ///   ranges widen — an order-free, associative combinator like the
    ///   metric merges.
    ///
    /// Because every rule depends only on the inputs and their submission
    /// order — never on thread scheduling — the merged report for a batch
    /// is itself a pure function of `(seeds, configs)`.
    pub fn merge(reports: &[TelemetryReport]) -> TelemetryReport {
        let mut metrics = MetricsSnapshot::default();
        let mut trace_dropped = 0u64;
        let mut spans = SpanTreeSnapshot::default();
        for r in reports {
            metrics.merge_from(&r.metrics);
            trace_dropped += r.trace_dropped;
            spans.merge_from(&r.spans);
        }
        // Stable k-way interleave: tag with (t_secs, input index) and
        // sort; stability keeps each input's own order for equal stamps.
        let mut tagged: Vec<(u64, usize, &TraceEvent)> = Vec::new();
        for (i, r) in reports.iter().enumerate() {
            for e in &r.trace {
                tagged.push((e.at_secs, i, e));
            }
        }
        tagged.sort_by_key(|&(t, i, _)| (t, i));
        TelemetryReport {
            metrics,
            trace: tagged.into_iter().map(|(_, _, e)| e.clone()).collect(),
            trace_dropped,
            spans,
        }
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

    /// The top-spans table, sorted by total time descending; `limit`
    /// bounds the rows (0 = all).
    pub fn span_table(&self, limit: usize) -> String {
        self.spans.top_spans_table(limit)
    }

    /// JSON form of the whole report (durations in nanoseconds). The
    /// inverse of [`from_json`](TelemetryReport::from_json).
    pub fn to_json(&self) -> Json {
        let metric_map = |m: &BTreeMap<String, u64>| {
            Json::Obj(m.iter().map(|(k, &v)| (k.clone(), Json::U(v))).collect())
        };
        let histograms = Json::Obj(
            self.metrics
                .histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        Json::Obj(vec![
                            (
                                "buckets".to_string(),
                                Json::Arr(
                                    h.buckets()
                                        .map(|(b, c)| {
                                            Json::Arr(vec![Json::U(u64::from(b)), Json::U(c)])
                                        })
                                        .collect(),
                                ),
                            ),
                            ("count".to_string(), Json::U(h.count())),
                            ("sum".to_string(), Json::U(h.sum())),
                            ("min".to_string(), Json::U(h.min())),
                            ("max".to_string(), Json::U(h.max())),
                        ]),
                    )
                })
                .collect(),
        );
        Json::Obj(vec![
            (
                "schema".to_string(),
                Json::Str("pwnd-telemetry/1".to_string()),
            ),
            ("counters".to_string(), metric_map(&self.metrics.counters)),
            ("gauges".to_string(), metric_map(&self.metrics.gauges)),
            ("histograms".to_string(), histograms),
            (
                "trace".to_string(),
                Json::Arr(self.trace.iter().map(TraceEvent::to_json).collect()),
            ),
            ("trace_dropped".to_string(), Json::U(self.trace_dropped)),
            ("spans".to_string(), self.spans.to_json()),
        ])
    }

    /// Render as one compact JSON line — the fleet `--telemetry-out`
    /// stream format (one report per shard, one line per report).
    pub fn to_json_line(&self) -> String {
        self.to_json().compact()
    }

    /// Parse a [`to_json`](TelemetryReport::to_json) value back into a
    /// report. Round trip is exact: the reparsed report is `==` the
    /// original and has the same span tree. A `phases` key, written by
    /// older binaries, is ignored.
    pub fn from_json(json: &Json) -> Result<TelemetryReport, String> {
        let metric_map = |field: &str| -> Result<BTreeMap<String, u64>, String> {
            match json.get(field) {
                Some(Json::Obj(fields)) => fields
                    .iter()
                    .map(|(k, v)| {
                        v.as_u64()
                            .map(|v| (k.clone(), v))
                            .ok_or_else(|| format!("{field}.{k}: expected integer"))
                    })
                    .collect(),
                None => Ok(BTreeMap::new()),
                Some(_) => Err(format!("{field}: expected object")),
            }
        };
        let mut histograms = BTreeMap::new();
        if let Some(Json::Obj(fields)) = json.get("histograms") {
            for (k, v) in fields {
                let part = |name: &str| {
                    v.get(name)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("histograms.{k}: missing {name}"))
                };
                let mut buckets = Vec::new();
                for pair in v
                    .get("buckets")
                    .and_then(Json::as_array)
                    .ok_or_else(|| format!("histograms.{k}: missing buckets"))?
                {
                    let pair = pair.as_array().ok_or("histogram bucket: expected pair")?;
                    match (
                        pair.first().and_then(Json::as_u64),
                        pair.get(1).and_then(Json::as_u64),
                    ) {
                        (Some(b), Some(c)) => buckets.push((b as u32, c)),
                        _ => return Err("histogram bucket: expected two integers".into()),
                    }
                }
                histograms.insert(
                    k.clone(),
                    Histogram::from_parts(
                        buckets,
                        part("count")?,
                        part("sum")?,
                        part("min")?,
                        part("max")?,
                    ),
                );
            }
        }
        let mut trace = Vec::new();
        if let Some(arr) = json.get("trace").and_then(Json::as_array) {
            for e in arr {
                trace.push(TraceEvent::from_json(e)?);
            }
        }
        let spans = match json.get("spans") {
            Some(s) => SpanTreeSnapshot::from_json(s)?,
            None => SpanTreeSnapshot::default(),
        };
        Ok(TelemetryReport {
            metrics: MetricsSnapshot {
                counters: metric_map("counters")?,
                gauges: metric_map("gauges")?,
                histograms,
            },
            trace,
            trace_dropped: json
                .get("trace_dropped")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            spans,
        })
    }

    /// Parse one streamed JSONL line back into a report.
    pub fn from_json_line(line: &str) -> Result<TelemetryReport, String> {
        let json = Json::parse(line).map_err(|e| e.to_string())?;
        TelemetryReport::from_json(&json)
    }

    /// Full human-readable rendering: phases, metrics, trace volume.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str(&self.phase_table());
            out.push('\n');
        }
        out.push_str(&self.metrics_table());
        out.push_str(&format!(
            "\ntrace: {} events held, {} dropped\n",
            self.trace.len(),
            self.trace_dropped
        ));
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
        assert!(text.contains("trace: 1 events held"));
    }

    #[test]
    fn merge_interleaves_traces_and_sums_metrics() {
        let a = TelemetrySink::enabled();
        let b = TelemetrySink::enabled();
        a.count("runs");
        b.count("runs");
        a.trace(10, "login", Some(1));
        a.trace(30, "login", Some(1));
        b.trace(10, "scrape", None);
        b.trace(20, "scrape", None);
        drop(a.span("event-loop"));
        drop(b.span("event-loop"));
        drop(b.span("dataset"));
        let merged = TelemetryReport::merge(&[a.report(), b.report()]);
        assert_eq!(merged.counter("runs"), 2);
        // Interleaved by time; input 0 wins the t=10 tie.
        let kinds: Vec<&str> = merged.trace.iter().map(|e| e.kind.as_ref()).collect();
        assert_eq!(kinds, vec!["login", "scrape", "scrape", "login"]);
        // Root spans fold by path.
        let roots: Vec<(&str, u64)> = merged
            .spans
            .roots()
            .map(|n| (n.path.as_str(), n.count))
            .collect();
        assert_eq!(roots, vec![("dataset", 1), ("event-loop", 2)]);
        // Merging is submission-order-deterministic: same inputs, same
        // report (equality ignores wall-clock span totals).
        let again = TelemetryReport::merge(&[a.report(), b.report()]);
        assert_eq!(merged, again);
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
    fn json_line_round_trips_exactly() {
        let sink = TelemetrySink::enabled();
        sink.count_labeled("webmail.logins", "ok");
        sink.gauge_max("queue.depth_high_water", 12);
        sink.observe("security.risk_score_milli", 0);
        sink.observe("security.risk_score_milli", 400);
        sink.trace(5, "login", Some(1));
        sink.trace_with(9, "sale", None, || "wave=1".to_string());
        {
            let outer = sink.span("event-loop");
            outer.sim(5);
            drop(outer.child("event", &[("kind", "visit")]));
        }
        let report = sink.report();
        let line = report.to_json_line();
        assert!(!line.contains('\n'));
        let back = TelemetryReport::from_json_line(&line).unwrap();
        assert_eq!(back, report, "metrics and trace survive the round trip");
        assert_eq!(back.spans, report.spans);
        // Serialization itself is deterministic.
        assert_eq!(back.to_json_line(), line);
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
