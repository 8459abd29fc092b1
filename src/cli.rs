//! Shared plumbing behind the `pwnd` subcommands.
//!
//! The sweep and chaos commands build their whole config batch up
//! front, submit it through the parallel [`Runner`], and render the
//! table from the ordered outputs — so the byte-identity of `--jobs 1`
//! vs `--jobs N` output is a property of *this* code, testable without
//! spawning the binary (see `tests/parallel_runner.rs`). The bench
//! harness lives here too: it derives every timing from telemetry
//! spans, keeping the host clock out of reach of the deterministic
//! crates (and of this one — the lint gate holds `src/` to the same
//! wall-clock ban).

use pwnd_analysis::tables::overview;
use pwnd_core::fleet::{run_fleet, FleetConfig};
use pwnd_core::{Batch, Experiment, ExperimentConfig, RunOutput, Runner};
use pwnd_corpus::archetype::Archetype;
use pwnd_corpus::email::Email;
use pwnd_corpus::generator::CorpusGenerator;
use pwnd_corpus::persona::PersonaFactory;
use pwnd_faults::FaultProfile;
use pwnd_sim::Rng;
use pwnd_telemetry::{
    Json, PhaseSummary, SpanTreeSnapshot, Table, TelemetryReport, TelemetrySink, TraceEvent,
};
use pwnd_webmail::mailbox::Mailbox;
use pwnd_webmail::search::search;
use std::collections::BTreeMap;
use std::time::Duration;

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

// ---- the `pwnd bench` harness -----------------------------------------

/// Wall time of one closure, read back through a telemetry span (the
/// only sanctioned clock in the workspace).
fn timed(f: impl FnOnce()) -> Duration {
    let sink = TelemetrySink::enabled();
    {
        let _span = sink.span("workload");
        f();
    }
    sink.report()
        .phases
        .iter()
        .find(|p| p.name == "workload")
        .map(|p| p.total)
        .unwrap_or_default()
}

/// One instrumented experiment run: total wall time plus the run's own
/// phase spans (corpus, leaks, event-loop, scrape, dataset, …) and the
/// hierarchical span tree behind them.
fn timed_run(cfg: ExperimentConfig) -> TelemetryReport {
    let sink = TelemetrySink::enabled();
    {
        let _total = sink.span("total");
        let _ = Experiment::new(cfg).with_telemetry(sink.clone()).run();
    }
    sink.report()
}

/// The 300 corporate emails behind the search microbenches, from the
/// same corpus generator the experiment uses.
fn search_fixture() -> Vec<Email> {
    let mut rng = Rng::seed_from(7);
    let mut factory = PersonaFactory::new();
    let peers = factory.generate_batch(12, |_| None, &mut rng);
    let persona = factory.generate(None, &mut rng);
    let mut generator = CorpusGenerator::with_archetype(Archetype::CorporateEmployee);
    generator.generate_mailbox(&persona, &peers, 300, 300, &mut rng)
}

/// Deliver the fixture into a fresh mailbox: all the set-up search
/// needs, since queries scan the mailbox directly.
fn deliver_all(emails: &[Email]) -> Mailbox {
    let mut mailbox = Mailbox::new();
    for e in emails {
        mailbox.deliver(e.clone());
    }
    mailbox
}

/// The query mix gold diggers run (§4.3): single common terms,
/// multi-term conjunctions, and a guaranteed miss for the short-circuit
/// path.
const HOT_QUERIES: &[&str] = &[
    "payment",
    "password",
    "bank account",
    "wire transfer invoice",
    "bitcoin wallet seed",
];

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort_unstable();
    let n = xs.len();
    if n == 0 {
        Duration::ZERO
    } else if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2
    }
}

fn ms(d: Duration) -> Json {
    Json::F(d.as_secs_f64() * 1e3)
}

struct WorkloadStats {
    name: &'static str,
    samples: Vec<Duration>,
    /// Per-phase samples across reps, in first-appearance order.
    phases: Vec<(String, Vec<Duration>)>,
    /// Per-span-path samples across reps (sub-phase granularity), in
    /// first-appearance order.
    spans: Vec<(String, Vec<Duration>)>,
}

impl WorkloadStats {
    fn new(name: &'static str) -> WorkloadStats {
        WorkloadStats {
            name,
            samples: Vec::new(),
            phases: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn push_phases(&mut self, phases: &[PhaseSummary]) {
        for p in phases {
            match self.phases.iter_mut().find(|(n, _)| *n == p.name) {
                Some((_, v)) => v.push(p.total),
                None => self.phases.push((p.name.clone(), vec![p.total])),
            }
        }
    }

    fn push_spans(&mut self, spans: &SpanTreeSnapshot) {
        for n in &spans.nodes {
            match self.spans.iter_mut().find(|(p, _)| *p == n.path) {
                Some((_, v)) => v.push(n.total),
                None => self.spans.push((n.path.clone(), vec![n.total])),
            }
        }
    }

    fn series_json(series: &[(String, Vec<Duration>)], key: &str) -> Json {
        Json::Arr(
            series
                .iter()
                .map(|(name, v)| {
                    Json::Obj(vec![
                        (key.to_string(), Json::Str(name.clone())),
                        ("median_ms".to_string(), ms(median(v.clone()))),
                        (
                            "min_ms".to_string(),
                            ms(v.iter().copied().min().unwrap_or_default()),
                        ),
                    ])
                })
                .collect(),
        )
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name".to_string(), Json::Str(self.name.to_string())),
            ("median_ms".to_string(), ms(median(self.samples.clone()))),
            (
                "min_ms".to_string(),
                ms(self.samples.iter().copied().min().unwrap_or_default()),
            ),
        ];
        if !self.phases.is_empty() {
            fields.push((
                "phases".to_string(),
                Self::series_json(&self.phases, "name"),
            ));
        }
        if !self.spans.is_empty() {
            fields.push(("spans".to_string(), Self::series_json(&self.spans, "path")));
        }
        Json::Obj(fields)
    }
}

/// Run the perf-baseline workloads `reps` times each and report
/// median/min wall-clock per workload (and per phase, where the
/// workload is an instrumented experiment). The parallel sweep pair
/// uses `jobs` workers, recording the machine's speedup alongside the
/// absolute numbers.
pub fn bench_report(reps: u32, jobs: usize) -> Json {
    let reps = reps.max(1);
    let mut workloads = Vec::new();

    let mut quick = WorkloadStats::new("end_to_end_quick");
    let mut paper = WorkloadStats::new("end_to_end_paper");
    for (stats, cfg) in [
        (&mut quick, ExperimentConfig::quick(1)),
        (&mut paper, ExperimentConfig::paper(1)),
    ] {
        for _ in 0..reps {
            let report = timed_run(cfg.clone());
            stats.samples.push(
                report
                    .phases
                    .iter()
                    .find(|p| p.name == "total")
                    .map(|p| p.total)
                    .unwrap_or_default(),
            );
            stats.push_phases(&report.phases);
            stats.push_spans(&report.spans);
        }
        workloads.push(stats.to_json());
    }

    for (name, n_jobs) in [
        ("sweep_quick_8seeds_jobs1", 1),
        ("sweep_quick_8seeds_jobsN", jobs),
    ] {
        let mut stats = WorkloadStats::new(name);
        for _ in 0..reps {
            stats.samples.push(timed(|| {
                let _ = Runner::new(n_jobs).run_all(sweep_configs(&ExperimentConfig::quick(1), 8));
            }));
        }
        workloads.push(stats.to_json());
    }

    // The search rows keep their historical names so `--check` against
    // older baselines still finds them; "build" is now the delivery
    // into a mailbox, the only set-up a scanning search needs.
    let emails = search_fixture();
    let mut build = WorkloadStats::new("search_build_300_emails");
    for _ in 0..reps {
        let mut built = None;
        build.samples.push(timed(|| {
            built = Some(deliver_all(&emails));
        }));
        drop(built);
    }
    workloads.push(build.to_json());

    let mut query = WorkloadStats::new("search_hot_queries_x2000");
    let mailbox = deliver_all(&emails);
    for _ in 0..reps {
        query.samples.push(timed(|| {
            for _ in 0..2_000 {
                for q in HOT_QUERIES {
                    std::hint::black_box(search(&mailbox, q));
                }
            }
        }));
    }
    workloads.push(query.to_json());

    let mut fleet = WorkloadStats::new("fleet_1000_accounts");
    for _ in 0..reps {
        fleet.samples.push(timed(|| {
            let _ = run_fleet(&FleetConfig::new(1, 1_000, jobs));
        }));
    }
    workloads.push(fleet.to_json());

    Json::Obj(vec![
        ("schema".to_string(), Json::Str("pwnd-bench/1".to_string())),
        ("reps".to_string(), Json::U(u64::from(reps))),
        ("jobs".to_string(), Json::U(jobs as u64)),
        ("workloads".to_string(), Json::Arr(workloads)),
    ])
}

// ---- `pwnd bench --check`: the perf-regression gate -------------------

/// Medians below this are too noisy for a multiplicative gate (a
/// single-digit-ms span median drifts tens of percent between identical
/// runs); they are reported informationally but never fail the check.
/// Every workload and hot-phase median sits well above the floor, and a
/// real regression in a small span also moves its gated parent — that
/// is what ≥95% attribution coverage buys.
const CHECK_FLOOR_MS: f64 = 10.0;

/// Flatten a `pwnd-bench/1` document into `(metric, median_ms)` rows:
/// the workload itself, then `workload/phase:NAME` and
/// `workload/span:PATH` for its sub-phase breakdowns.
fn flatten_medians(doc: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let Some(workloads) = doc.get("workloads").and_then(Json::as_array) else {
        return out;
    };
    for w in workloads {
        let Some(name) = w.get("name").and_then(Json::as_str) else {
            continue;
        };
        if let Some(m) = w.get("median_ms").and_then(Json::as_f64) {
            out.push((name.to_string(), m));
        }
        for (field, tag, key) in [("phases", "phase", "name"), ("spans", "span", "path")] {
            let Some(arr) = w.get(field).and_then(Json::as_array) else {
                continue;
            };
            for p in arr {
                let (Some(label), Some(m)) = (
                    p.get(key).and_then(Json::as_str),
                    p.get("median_ms").and_then(Json::as_f64),
                ) else {
                    continue;
                };
                out.push((format!("{name}/{tag}:{label}"), m));
            }
        }
    }
    out
}

/// Outcome of a [`bench_check`]: the full comparison table and the
/// regressions that should fail the gate (empty means pass).
pub struct BenchCheck {
    /// Every compared metric, one row each.
    pub table: String,
    /// Human-readable descriptions of each failure.
    pub regressions: Vec<String>,
}

/// Compare a fresh bench report against a committed baseline: every
/// baseline metric (workload, phase, and span medians) must exist in
/// the current report and stay within `tolerance_pct` percent of its
/// baseline median. Metrics new in the current report are ignored —
/// adding instrumentation never breaks the gate; removing it does.
/// Sub-floor baselines (under `CHECK_FLOOR_MS`, 10 ms) are
/// informational only.
pub fn bench_check(current: &Json, baseline: &Json, tolerance_pct: f64) -> BenchCheck {
    let current_map: BTreeMap<String, f64> = flatten_medians(current).into_iter().collect();
    let mut t = Table::new(&["metric", "baseline ms", "current ms", "delta", "status"]).numeric();
    let mut regressions = Vec::new();
    for (name, base) in flatten_medians(baseline) {
        let Some(&cur) = current_map.get(&name) else {
            regressions.push(format!("{name}: present in baseline, missing from current"));
            t.row([
                name,
                format!("{base:.3}"),
                "-".to_string(),
                "-".to_string(),
                "MISSING".to_string(),
            ]);
            continue;
        };
        let delta = if base > 0.0 {
            100.0 * (cur - base) / base
        } else {
            0.0
        };
        let gated = base >= CHECK_FLOOR_MS;
        let regressed = gated && cur > base * (1.0 + tolerance_pct / 100.0);
        if regressed {
            regressions.push(format!("{name}: {base:.3}ms -> {cur:.3}ms ({delta:+.1}%)"));
        }
        let status = if regressed {
            "REGRESSED"
        } else if gated {
            "ok"
        } else {
            "info"
        };
        t.row([
            name,
            format!("{base:.3}"),
            format!("{cur:.3}"),
            format!("{delta:+.1}%"),
            status.to_string(),
        ]);
    }
    BenchCheck {
        table: t.render(),
        regressions,
    }
}

// ---- `pwnd profile` and `pwnd trace` rendering ------------------------

/// The `pwnd profile` report: the top-spans table, the per-phase
/// attribution breakdown, and the flat phase table. `limit` bounds the
/// top-spans rows (0 = all).
pub fn profile_report(report: &TelemetryReport, limit: usize) -> String {
    let mut out = String::new();
    out.push_str(&report.span_table(limit));
    out.push('\n');
    out.push_str(&report.attribution_table());
    if !report.phases.is_empty() {
        out.push('\n');
        out.push_str(&report.phase_table());
    }
    out
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
    fn median_is_robust_to_order() {
        let d = |n| Duration::from_millis(n);
        assert_eq!(median(vec![d(5), d(1), d(9)]), d(5));
        assert_eq!(median(vec![d(4), d(2)]), d(3));
        assert_eq!(median(Vec::new()), Duration::ZERO);
    }

    #[test]
    fn bench_report_shape() {
        let report = bench_report(1, 2);
        let workloads = report.get("workloads").and_then(Json::as_array).unwrap();
        assert!(workloads.len() >= 6);
        for w in workloads {
            assert!(w.get("median_ms").and_then(Json::as_f64).is_some());
            assert!(w.get("min_ms").and_then(Json::as_f64).is_some());
        }
        // The experiment workloads expose their internal phases and the
        // sub-phase span paths behind them.
        let quick = &workloads[0];
        let phases = quick.get("phases").and_then(Json::as_array).unwrap();
        assert!(phases
            .iter()
            .any(|p| { p.get("name").and_then(Json::as_str) == Some("event-loop") }));
        // The whole run sits under the harness's "total" span, so the
        // event-loop sub-phases appear as "total;event-loop;event{…}".
        let spans = quick.get("spans").and_then(Json::as_array).unwrap();
        assert!(spans.iter().any(|s| {
            s.get("path")
                .and_then(Json::as_str)
                .is_some_and(|p| p.contains("event-loop;event{"))
        }));
    }

    /// A minimal `pwnd-bench/1` document with one workload, one phase,
    /// one span, every median scaled by `scale`.
    fn bench_doc(scale: f64) -> Json {
        let entry = |key: &str, label: &str, m: f64| {
            Json::Obj(vec![
                (key.to_string(), Json::Str(label.to_string())),
                ("median_ms".to_string(), Json::F(m * scale)),
                ("min_ms".to_string(), Json::F(m * scale)),
            ])
        };
        Json::Obj(vec![
            ("schema".to_string(), Json::Str("pwnd-bench/1".to_string())),
            (
                "workloads".to_string(),
                Json::Arr(vec![Json::Obj(vec![
                    (
                        "name".to_string(),
                        Json::Str("end_to_end_quick".to_string()),
                    ),
                    ("median_ms".to_string(), Json::F(100.0 * scale)),
                    ("min_ms".to_string(), Json::F(90.0 * scale)),
                    (
                        "phases".to_string(),
                        Json::Arr(vec![entry("name", "event-loop", 60.0)]),
                    ),
                    (
                        "spans".to_string(),
                        Json::Arr(vec![
                            entry("path", "event-loop;event{kind=visit}", 40.0),
                            // Sub-floor: informational, never gated.
                            entry("path", "event-loop;schedule", 0.01 / scale),
                        ]),
                    ),
                ])]),
            ),
        ])
    }

    #[test]
    fn bench_check_passes_when_flat_or_faster() {
        let base = bench_doc(1.0);
        for current in [bench_doc(1.0), bench_doc(0.5)] {
            let check = bench_check(&current, &base, 25.0);
            assert!(check.regressions.is_empty(), "{:?}", check.regressions);
            assert!(check.table.contains("event_to") || check.table.contains("end_to_end_quick"));
            assert!(check.table.contains("ok"));
            assert!(check.table.contains("info"), "sub-floor span is info-only");
        }
    }

    #[test]
    fn bench_check_fails_a_synthetic_2x_regression() {
        // The negative test the CI gate depends on: a doubled phase
        // time must trip the check and name the offender.
        let check = bench_check(&bench_doc(2.0), &bench_doc(1.0), 25.0);
        assert!(!check.regressions.is_empty());
        assert!(check
            .regressions
            .iter()
            .any(|r| r.contains("end_to_end_quick/phase:event-loop")));
        assert!(check.table.contains("REGRESSED"));
        // The sub-floor span doubled too but stays informational.
        assert!(!check
            .regressions
            .iter()
            .any(|r| r.contains("event-loop;schedule")));
    }

    #[test]
    fn bench_check_fails_on_missing_metric_and_ignores_new_ones() {
        let base = bench_doc(1.0);
        let empty = Json::Obj(vec![("workloads".to_string(), Json::Arr(vec![]))]);
        let check = bench_check(&empty, &base, 25.0);
        assert!(check
            .regressions
            .iter()
            .any(|r| r.contains("missing from current")));
        // The other direction is fine: a richer current report passes
        // against a sparser baseline.
        let check = bench_check(&base, &empty, 25.0);
        assert!(check.regressions.is_empty());
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
        assert!(merge_telemetry_jsonl("").is_err());
        assert!(merge_telemetry_jsonl("not json\n").is_err());
    }
}
