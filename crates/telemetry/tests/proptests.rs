//! Property tests for [`TelemetryReport::merge`]: the merge must be
//! **associative** (any grouping of the same submission-ordered inputs
//! yields an identical report — this is what lets the runner merge
//! worker reports opportunistically) and **order-insensitive** for the
//! order-free facets — counters, gauges, histograms, and span trees —
//! so sharded fleet telemetry can be folded in any order.
//!
//! Traces and the first-appearance ordering of phases are deliberately
//! submission-order-sensitive, so the permutation property compares
//! metrics and spans, and phases as a name-keyed set.
//!
//! The JSON parser reads bytes from outside the program (store shards,
//! manifests, `--input` files), so it gets properties too: no input
//! panics or overflows the stack, and every value it writes parses
//! back unchanged.

use proptest::prelude::*;
use pwnd_telemetry::json::MAX_DEPTH;
use pwnd_telemetry::{Json, PhaseSummary, TelemetryReport, TelemetrySink};

/// Deterministically interpret `(selector, value)` ops into one report,
/// exercising every mergeable facet including nested spans.
fn build_report(ops: &[(u8, u64)]) -> TelemetryReport {
    let sink = TelemetrySink::enabled();
    for &(sel, v) in ops {
        match sel % 6 {
            0 => sink.count_by("runs", v % 100),
            1 => {
                let label = if v % 2 == 0 { "ok" } else { "blocked" };
                sink.count_labeled_by("webmail.logins", label, v % 10);
            }
            2 => sink.gauge_max("queue.depth_high_water", v % 1_000),
            3 => sink.observe("security.risk_score_milli", v),
            4 => sink.trace(v % 50, "login", Some((v % 5) as u32)),
            _ => {
                let phase = if v % 2 == 0 { "event-loop" } else { "scrape" };
                let outer = sink.span(phase);
                outer.sim(v % 100);
                if v % 3 != 0 {
                    let kind = if v % 4 == 0 { "visit" } else { "scrape" };
                    drop(outer.child("event", &[("kind", kind)]));
                }
            }
        }
    }
    sink.report()
}

/// Deterministically interpret `(selector, value)` ops as one JSON
/// value: every scalar kind, strings with escapes and non-ASCII, and
/// arrays/objects nested up to [`MAX_DEPTH`] deep. `depth` counts the
/// arrays and objects already open around the value.
fn build_value(ops: &mut std::slice::Iter<'_, (u8, u64)>, depth: usize) -> Json {
    let Some(&(sel, v)) = ops.next() else {
        return Json::Null;
    };
    match sel % 8 {
        0 => Json::Null,
        1 => Json::Bool(v % 2 == 0),
        2 => Json::U(v),
        3 => Json::I(-((v % i64::MAX as u64) as i64) - 1),
        4 => Json::F((v as f64 - 5e18) / 1e3),
        5 => {
            let c = char::from_u32((v % 0x800) as u32).expect("below the surrogate range");
            Json::Str(format!("k\"\\{c}\n{v}"))
        }
        6 if depth < MAX_DEPTH => {
            let width = v % 4;
            if v % 8 < 4 {
                Json::Arr((0..width).map(|_| build_value(ops, depth + 1)).collect())
            } else {
                Json::Obj(
                    (0..width)
                        .map(|i| (format!("f{i}"), build_value(ops, depth + 1)))
                        .collect(),
                )
            }
        }
        // A chain of single-element arrays, often right up to the cap.
        7 => {
            let levels = (v as usize % (2 * MAX_DEPTH)).min(MAX_DEPTH - depth);
            let mut value = build_value(ops, depth + levels);
            for _ in 0..levels {
                value = Json::Arr(vec![value]);
            }
            value
        }
        _ => Json::Str(String::new()),
    }
}

/// The pieces a nesting-heavy JSON-ish input is assembled from.
const JSON_PIECES: [&str; 9] = ["[", "]", "{\"a\":", "}", ",", "1", "\"s\"", " ", "-"];

/// Phases as a sorted name-keyed set (ordering is submission-order by
/// design, so permutation comparisons must drop it).
fn phase_set(report: &TelemetryReport) -> Vec<PhaseSummary> {
    let mut phases = report.phases.clone();
    phases.sort_by(|a, b| a.name.cmp(&b.name));
    phases
}

proptest! {
    /// Any grouping of a 3-way merge — flat, left-nested, right-nested —
    /// yields the identical report: metrics, trace interleaving, phase
    /// totals, and span trees (exact `Duration` addition) all agree.
    #[test]
    fn merge_is_associative(ops in proptest::collection::vec((0u8..6, 0u64..10_000), 0..60)) {
        let mut split: [Vec<(u8, u64)>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for (i, op) in ops.iter().enumerate() {
            split[i % 3].push(*op);
        }
        let [a, b, c] = split.map(|ops| build_report(&ops));
        let flat = TelemetryReport::merge(&[a.clone(), b.clone(), c.clone()]);
        let left = TelemetryReport::merge(&[
            TelemetryReport::merge(&[a.clone(), b.clone()]),
            c.clone(),
        ]);
        let right = TelemetryReport::merge(&[
            a.clone(),
            TelemetryReport::merge(&[b.clone(), c.clone()]),
        ]);
        for other in [&left, &right] {
            prop_assert_eq!(&flat, other);
            prop_assert_eq!(&flat.phases, &other.phases);
            prop_assert_eq!(&flat.spans, &other.spans);
        }
    }

    /// Permuting the inputs leaves every order-free facet unchanged:
    /// counters, gauges, histograms, span trees, and the name-keyed
    /// phase totals.
    #[test]
    fn merge_is_order_insensitive_for_order_free_facets(
        ops in proptest::collection::vec((0u8..6, 0u64..10_000), 0..60),
    ) {
        let mut split: [Vec<(u8, u64)>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for (i, op) in ops.iter().enumerate() {
            split[i % 3].push(*op);
        }
        let [a, b, c] = split.map(|ops| build_report(&ops));
        let fwd = TelemetryReport::merge(&[a.clone(), b.clone(), c.clone()]);
        let rev = TelemetryReport::merge(&[c, b, a]);
        prop_assert_eq!(&fwd.metrics, &rev.metrics);
        prop_assert_eq!(&fwd.spans, &rev.spans);
        prop_assert_eq!(fwd.trace_dropped, rev.trace_dropped);
        prop_assert_eq!(phase_set(&fwd), phase_set(&rev));
    }

    /// A streamed report survives the JSONL round trip exactly,
    /// whatever it recorded.
    #[test]
    fn json_line_round_trip_is_exact(ops in proptest::collection::vec((0u8..6, 0u64..10_000), 0..40)) {
        let report = build_report(&ops);
        let line = report.to_json_line();
        let back = TelemetryReport::from_json_line(&line)
            .map_err(TestCaseError::Fail)?;
        prop_assert_eq!(&back, &report);
        prop_assert_eq!(&back.phases, &report.phases);
        prop_assert_eq!(&back.spans, &report.spans);
    }

    /// Arbitrary bytes never panic the parser: every input is a value
    /// or an error.
    #[test]
    fn json_parse_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(value) = Json::parse(&text) {
            prop_assert_eq!(Json::parse(&value.compact()), Ok(value));
        }
    }

    /// Bracket-heavy input, nested far past the cap, is an error rather
    /// than a stack overflow; what does parse still round-trips.
    #[test]
    fn json_parse_survives_deep_nesting(
        pieces in proptest::collection::vec((0usize..9, 1usize..400), 0..40),
    ) {
        let text: String = pieces.iter().map(|&(p, n)| JSON_PIECES[p].repeat(n)).collect();
        if let Ok(value) = Json::parse(&text) {
            prop_assert_eq!(Json::parse(&value.compact()), Ok(value));
        }
    }

    /// Every value the writer produces, compact or pretty, parses back
    /// unchanged, up to the nesting cap.
    #[test]
    fn json_values_round_trip(ops in proptest::collection::vec((0u8..8, any::<u64>()), 0..300)) {
        let value = build_value(&mut ops.iter(), 0);
        prop_assert_eq!(Json::parse(&value.compact()), Ok(value.clone()));
        prop_assert_eq!(Json::parse(&value.pretty()), Ok(value));
    }
}
