//! Shared plumbing behind the `pwnd` subcommands.
//!
//! The sweep and chaos commands build their whole config batch up
//! front, submit it through the parallel [`Runner`](pwnd_core::Runner),
//! and render the table from the ordered outputs — so the
//! byte-identity of `--jobs 1` vs `--jobs N` output is a property of
//! *this* code, testable without spawning the binary (see
//! `tests/parallel_runner.rs`).

use pwnd_analysis::tables::overview;
use pwnd_core::{Batch, ExperimentConfig, RunOutput};
use pwnd_faults::FaultProfile;
use pwnd_telemetry::{Table, TelemetryReport, TraceEvent};

/// The fault-rate scale factors the chaos ablation sweeps.
pub const CHAOS_FACTORS: [f64; 4] = [0.0, 0.25, 0.5, 1.0];

/// The config batch behind `pwnd sweep`: consecutive seeds from the
/// base config's own seed.
pub fn sweep_configs(base: &ExperimentConfig, seeds: u64) -> Vec<ExperimentConfig> {
    (0..seeds)
        .map(|s| {
            let mut cfg = base.clone();
            cfg.seed = base.seed + s;
            cfg
        })
        .collect()
}

/// The config batch behind `pwnd chaos`: one run per scale factor of
/// `profile`'s fault rates, with confirmed classification so flakes
/// cannot mislabel an account.
pub fn chaos_configs(base: &ExperimentConfig, profile: &FaultProfile) -> Vec<ExperimentConfig> {
    CHAOS_FACTORS
        .iter()
        .map(|&factor| {
            let mut cfg = base.clone();
            cfg.faults.profile = profile.scaled(factor);
            cfg.faults.confirm_failures = 3;
            cfg
        })
        .collect()
}

/// Render the sweep table from a batch's ordered outputs.
pub fn sweep_table(outputs: &[RunOutput], base_seed: u64) -> String {
    let mut table = Table::new(&[
        "seed", "accesses", "opened", "sent", "blocked", "hijacked", "accounts",
    ])
    .numeric();
    for (i, out) in outputs.iter().enumerate() {
        let ov = overview(&out.dataset);
        table.row([
            (base_seed + i as u64).to_string(),
            ov.total_accesses.to_string(),
            ov.emails_opened.to_string(),
            ov.emails_sent.to_string(),
            ov.accounts_blocked.to_string(),
            ov.accounts_hijacked.to_string(),
            ov.accounts_accessed.to_string(),
        ]);
    }
    table.render()
}

/// Render the chaos data-loss table from a batch's ordered outputs
/// (one per entry of [`CHAOS_FACTORS`]).
pub fn chaos_table(outputs: &[RunOutput]) -> String {
    let mut table = Table::new(&[
        "factor", "accesses", "lost", "dups", "gaps", "mean cov", "min cov",
    ])
    .numeric();
    for (&factor, out) in CHAOS_FACTORS.iter().zip(outputs) {
        let gt = &out.ground_truth;
        let covs: Vec<f64> = out
            .dataset
            .accounts
            .iter()
            .filter_map(|a| a.coverage)
            .collect();
        let (mean, min) = if covs.is_empty() {
            (1.0, 1.0)
        } else {
            (
                covs.iter().sum::<f64>() / covs.len() as f64,
                covs.iter().copied().fold(f64::INFINITY, f64::min),
            )
        };
        table.row([
            format!("{factor:.2}"),
            out.dataset.accesses.len().to_string(),
            gt.notifications_lost.to_string(),
            gt.duplicate_notifications.to_string(),
            gt.monitoring_gaps.to_string(),
            format!("{mean:.4}"),
            format!("{min:.4}"),
        ]);
    }
    table.render()
}

/// The `--profile` breakdown for a batch: the runner's speedup summary
/// followed by the merged telemetry report.
pub fn batch_profile_report(batch: &Batch) -> String {
    let mut out = String::new();
    if let Some(profile) = batch.profile() {
        out.push_str(&profile.render());
    }
    out.push_str(&batch.telemetry.render());
    out
}

// ---- `pwnd profile` and `pwnd trace` rendering ------------------------

/// The `pwnd profile` report: the top-spans table, then the phase
/// table of root spans. `limit` bounds the top-spans rows (0 = all).
pub fn profile_report(report: &TelemetryReport, limit: usize) -> String {
    format!("{}\n{}", report.span_table(limit), report.phase_table())
}

/// Merge streamed `--telemetry-out` JSONL (one report per line, blank
/// lines ignored) back into the fleet's shard-merged report.
pub fn merge_telemetry_jsonl(text: &str) -> Result<TelemetryReport, String> {
    let mut reports = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        reports.push(
            TelemetryReport::from_json_line(line).map_err(|e| format!("line {}: {e}", i + 1))?,
        );
    }
    if reports.is_empty() {
        return Err("no report lines found".to_string());
    }
    Ok(TelemetryReport::merge(&reports))
}

/// The `pwnd trace` JSONL stream: events whose kind or detail contains
/// `filter` (all, when `None`), keeping only the last `limit` matches
/// (0 = all).
pub fn filtered_trace_jsonl(
    report: &TelemetryReport,
    filter: Option<&str>,
    limit: usize,
) -> String {
    let matches =
        |e: &&TraceEvent| filter.is_none_or(|f| e.kind.contains(f) || e.detail.contains(f));
    let kept: Vec<&TraceEvent> = report.trace.iter().filter(matches).collect();
    let start = if limit > 0 && kept.len() > limit {
        kept.len() - limit
    } else {
        0
    };
    let mut out = String::new();
    for e in &kept[start..] {
        out.push_str(&e.to_json_line());
        out.push('\n');
    }
    out
}

// ---- flag validation and the `pwnd report` table ----------------------

/// Validate the batch-execution flags for the multi-run commands.
///
/// `fleet`, `sweep`, and `chaos` all submit work to the parallel
/// runner, and `serve`/`serve-bench` size a worker-thread pool; zero
/// worker threads or a zero-account fleet would otherwise be silently
/// clamped deep inside the engine. Rejecting them here gives the user
/// an actionable message instead. Commands outside the batch family
/// always validate.
pub fn validate_batch_flags(command: &str, jobs: usize, accounts: u32) -> Result<(), String> {
    let batch = matches!(
        command,
        "fleet" | "sweep" | "chaos" | "serve" | "serve-bench"
    );
    if batch && jobs == 0 {
        return Err(format!(
            "pwnd {command}: --jobs must be at least 1 (zero worker threads cannot run anything)"
        ));
    }
    if command == "fleet" && accounts == 0 {
        return Err(
            "pwnd fleet: --accounts must be at least 1 (an empty fleet produces no dataset)"
                .to_string(),
        );
    }
    Ok(())
}

/// Render the §4.1 overview as the `pwnd report` table.
pub fn overview_table(ov: &pwnd_analysis::tables::Overview) -> String {
    let mut table = Table::new(&["metric", "value"]).numeric();
    table.row(["accesses".into(), ov.total_accesses.to_string()]);
    table.row(["emails opened".into(), ov.emails_opened.to_string()]);
    table.row(["emails sent".into(), ov.emails_sent.to_string()]);
    table.row(["drafts created".into(), ov.drafts_created.to_string()]);
    table.row(["accounts accessed".into(), ov.accounts_accessed.to_string()]);
    table.row(["accounts blocked".into(), ov.accounts_blocked.to_string()]);
    table.row(["accounts hijacked".into(), ov.accounts_hijacked.to_string()]);
    for (outlet, n) in &ov.accessed_by_outlet {
        table.row([format!("accounts accessed ({outlet})"), n.to_string()]);
    }
    for (outlet, n) in &ov.accesses_by_outlet {
        table.row([format!("accesses ({outlet})"), n.to_string()]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwnd_core::fleet::{run_fleet, FleetConfig};
    use pwnd_telemetry::TelemetrySink;

    #[test]
    fn sweep_and_chaos_configs_are_built_up_front() {
        let base = ExperimentConfig::quick(100);
        let sweep = sweep_configs(&base, 3);
        assert_eq!(
            sweep.iter().map(|c| c.seed).collect::<Vec<_>>(),
            vec![100, 101, 102]
        );
        let chaos = chaos_configs(&base, &FaultProfile::heavy());
        assert_eq!(chaos.len(), CHAOS_FACTORS.len());
        assert!(chaos.iter().all(|c| c.faults.confirm_failures == 3));
        assert!(
            chaos[0].faults.profile.is_none(),
            "factor 0 injects nothing"
        );
    }

    #[test]
    fn batch_commands_reject_zero_jobs_and_zero_accounts() {
        for cmd in ["fleet", "sweep", "chaos"] {
            let err = validate_batch_flags(cmd, 0, 100).unwrap_err();
            assert!(err.contains(cmd), "error names the command: {err}");
            assert!(err.contains("--jobs"), "error names the flag: {err}");
            assert!(validate_batch_flags(cmd, 1, 100).is_ok());
        }
        let err = validate_batch_flags("fleet", 4, 0).unwrap_err();
        assert!(err.contains("--accounts"), "error names the flag: {err}");
        // Only the fleet sizes itself by --accounts; sweep/chaos ignore it.
        assert!(validate_batch_flags("sweep", 4, 0).is_ok());
        assert!(validate_batch_flags("chaos", 4, 0).is_ok());
        // Non-batch commands never trip the batch validation.
        assert!(validate_batch_flags("run", 0, 0).is_ok());
    }

    #[test]
    fn overview_table_lists_every_headline_metric_and_outlet() {
        let out = run_fleet(&FleetConfig::new(7, 200, 1));
        let ov = overview(&out.dataset);
        let table = overview_table(&ov);
        for label in [
            "accesses",
            "emails opened",
            "emails sent",
            "drafts created",
            "accounts accessed",
            "accounts blocked",
            "accounts hijacked",
        ] {
            assert!(table.contains(label), "missing row {label:?}:\n{table}");
        }
        for outlet in ov.accessed_by_outlet.keys() {
            assert!(table.contains(&format!("accounts accessed ({outlet})")));
        }
        assert!(table.contains(&ov.total_accesses.to_string()));
    }

    #[test]
    fn trace_filter_and_limit_select_the_tail() {
        let sink = TelemetrySink::enabled();
        for t in 0..10u64 {
            sink.trace(t, if t % 2 == 0 { "login" } else { "scrape" }, Some(1));
        }
        let report = sink.report();
        let all = filtered_trace_jsonl(&report, None, 0);
        assert_eq!(all.lines().count(), 10);
        let logins = filtered_trace_jsonl(&report, Some("login"), 0);
        assert_eq!(logins.lines().count(), 5);
        let tail = filtered_trace_jsonl(&report, Some("login"), 2);
        assert_eq!(tail.lines().count(), 2);
        assert!(tail.contains("\"t_secs\":8"));
        assert!(tail.contains("\"t_secs\":6"));
    }

    #[test]
    fn profile_report_renders_spans_and_attribution() {
        let sink = TelemetrySink::enabled();
        {
            let outer = sink.span("event-loop");
            outer.sim(42);
            drop(outer.child("event", &[("kind", "visit")]));
        }
        let text = profile_report(&sink.report(), 0);
        assert!(text.contains("event-loop;event{kind=visit}"));
        assert!(text.contains("coverage") || text.contains('%'));
    }

    #[test]
    fn merge_telemetry_jsonl_round_trips_shard_lines() {
        let shard = |seed: u64| {
            let sink = TelemetrySink::enabled();
            sink.count_by("runs", seed);
            drop(sink.span("event-loop"));
            sink.report()
        };
        let reports = [shard(1), shard(2)];
        let text: String = reports.iter().map(|r| r.to_json_line() + "\n").collect();
        let merged = merge_telemetry_jsonl(&text).unwrap();
        assert_eq!(merged, TelemetryReport::merge(&reports));
        assert_eq!(merged.counter("runs"), 3);
        // Older binaries also wrote a flat `phases` array; it is ignored.
        let old = concat!(
            r#"{"schema":"pwnd-telemetry/1","counters":{"runs":4},"gauges":{},"#,
            r#""histograms":{},"trace":[],"trace_dropped":0,"#,
            r#""phases":[{"name":"event-loop","total_ns":1500,"entries":1}],"#,
            r#""spans":[{"path":"event-loop","total_ns":1500,"count":1}]}"#,
        );
        let with_old = merge_telemetry_jsonl(&format!("{text}{old}\n")).unwrap();
        assert_eq!(with_old.counter("runs"), 7);
        assert_eq!(with_old.spans.node("event-loop").unwrap().count, 3);
        assert!(merge_telemetry_jsonl("").is_err());
        assert!(merge_telemetry_jsonl("not json\n").is_err());
    }
}
