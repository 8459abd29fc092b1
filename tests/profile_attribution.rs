//! Attribution quality and non-perturbation of the deep telemetry.
//!
//! Two properties the `pwnd profile` feature rests on:
//!
//! 1. **Attribution is near-total**: on a quick run, the span tree
//!    accounts for ≥95% of the `event-loop`, `scrape` and `analysis`
//!    phase wall time through *named* child spans — the breakdown is not
//!    mostly "unattributed self time".
//! 2. **Observation is free of side effects**: the exported dataset of
//!    a fault-free run is byte-identical with telemetry enabled vs
//!    disabled (the crate-level guarantee, re-proven here at the
//!    integration boundary).

use pwnd::telemetry::TelemetrySink;
use pwnd::{Experiment, ExperimentConfig};
use std::hash::{DefaultHasher, Hash, Hasher};

fn digest(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

#[test]
fn quick_run_attributes_hot_phases_to_named_children() {
    let sink = TelemetrySink::enabled();
    let _ = Experiment::new(ExperimentConfig::quick(2016))
        .with_telemetry(sink.clone())
        .run()
        .analysis();
    let report = sink.report();

    for phase in ["event-loop", "scrape", "analysis"] {
        let attr = report
            .spans
            .attribution(phase)
            .expect("hot phase has span-tree nodes");
        assert!(
            attr.coverage() >= 0.95,
            "{phase}: only {:.1}% of {:?} attributed to child spans",
            100.0 * attr.coverage(),
            attr.total,
        );
    }

    // The event loop's children are the labelled event kinds: at least
    // visit, scrape, and heartbeat must appear, each with entries.
    let event_kinds: Vec<&str> = report
        .spans
        .nodes
        .iter()
        .filter(|n| n.parent_path() == Some("event-loop") && n.leaf_base() == "event")
        .map(|n| n.leaf())
        .collect();
    assert!(
        event_kinds.len() >= 3,
        "expected ≥3 event kinds under event-loop, got {event_kinds:?}"
    );
    assert!(event_kinds.iter().any(|k| k.contains("kind=visit")));
    assert!(event_kinds.iter().any(|k| k.contains("kind=scrape")));
    assert!(event_kinds.iter().any(|k| k.contains("kind=heartbeat")));
    assert!(event_kinds.iter().all(|n| {
        report
            .spans
            .node(&format!("event-loop;{n}"))
            .is_some_and(|node| node.count > 0)
    }));

    // The analysis ran each of its stages once.
    for stage in ["tfidf", "cvm", "figures"] {
        let node = report.spans.node(&format!("analysis;{stage}"));
        assert!(node.is_some_and(|n| n.count == 1), "analysis;{stage}");
    }

    // Scrape operations broke down into the per-operation spans.
    assert!(report
        .spans
        .nodes
        .iter()
        .any(|n| n.path.ends_with(";scrape;poll") && n.count > 0));
    assert!(report
        .spans
        .nodes
        .iter()
        .any(|n| n.path.ends_with(";poll;parse") && n.count > 0));
}

#[test]
fn telemetry_cannot_perturb_the_exported_dataset() {
    // The default quick config runs FaultProfile::none().
    let cfg = ExperimentConfig::quick(2016);
    let plain = Experiment::new(cfg.clone()).run().dataset_json();
    let sink = TelemetrySink::enabled();
    let instrumented = Experiment::new(cfg)
        .with_telemetry(sink.clone())
        .run()
        .dataset_json();
    assert!(!sink.report().spans.is_empty(), "telemetry really ran");
    assert_eq!(
        digest(&plain),
        digest(&instrumented),
        "dataset digests diverge with telemetry on"
    );
    assert_eq!(
        plain, instrumented,
        "dataset bytes diverge with telemetry on"
    );
}
