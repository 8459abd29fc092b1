//! Shared plumbing behind the `pwnd` subcommands, and the flag parser.
//!
//! [`parse`] is pure, so tests can feed it any argument vector.
//! The sweep and chaos commands build their whole config batch up
//! front, submit it through the parallel [`Runner`](pwnd_core::Runner),
//! and render the table from the ordered outputs — so the
//! byte-identity of `--jobs 1` vs `--jobs N` output is a property of
//! *this* code, testable without spawning the binary (see
//! `tests/parallel_runner.rs`).

use pwnd_analysis::tables::Overview;
use pwnd_core::{Batch, ExperimentConfig, RunOutput};
use pwnd_faults::FaultProfile;
use pwnd_telemetry::{jsonl, Json, SpanTreeSnapshot, Table, TelemetryReport, TraceEvent};
use std::collections::VecDeque;
use std::io::{self, BufRead, Write};
use std::str::FromStr;

/// The `pwnd --help` text.
pub const USAGE: &str = "\
usage: pwnd <command> [flags]

commands:
  run      full evaluation report (§4 analysis pipeline)
  trace    run with telemetry and emit the JSONL event trace
  profile  deep attribution: top spans, per-phase coverage, flamegraph export
  export   write the censored dataset as JSON
  sweep    headline stats across consecutive seeds
  chaos    data-loss ablation: sweep fault-rate factors over one seed
  fleet    one sharded experiment over a large account population
  report   §4.1 overview of an exported dataset or an on-disk fleet store
  serve    breach-intelligence query daemon: serve the /v1 JSON API over a
           fleet store (see API.md); stops on EOF on stdin
  leaks    the leak plan actually executed
  truth    ground-truth vs observed audit

flags:
  --seed N         RNG seed (default 2016); for sweep, the base seed
  --quick          30-day quick configuration instead of the full paper run
  --filter-on      enable the provider's suspicious-login filter
  --decoys         seed decoy documents into every mailbox
  --faults NAME    fault profile: none | light | heavy (default none);
                   for chaos, the profile whose rates are scaled (default heavy)
  --profile        (run/fleet) print phase timings and the metrics summary;
                   (sweep/chaos) print the runner speedup breakdown too;
                   (run/sweep/chaos/fleet, on Linux) then the peak RSS (VmHWM);
                   (serve) print request telemetry on shutdown
  --jobs N         (sweep/chaos/fleet) worker threads, 1-256 (default: all
                   cores); --jobs 1 is the sequential path, output is identical;
                   (serve) HTTP worker threads (floored at 4), which also
                   bound concurrent connections
  --accounts N     (fleet) honey-account population (default 1000), sharded
                   into 100-account sub-experiments
  --out FILE       (export) output path (default dataset.json);
                   (fleet) stream the merged dataset there as JSON Lines
  --out-dir DIR    (fleet) durable sharded store: write per-shard JSONL files
                   and a manifest there; re-running resumes (verified shards
                   are skipped, corrupt ones quarantined and re-run)
  --trace-out FILE (trace) write the JSONL trace here instead of stdout
  --filter SUBSTR  (trace) keep only events whose kind or detail contains it
  --limit N        (trace) keep only the last N matching events;
                   (profile) bound the top-spans table to N rows
  --collapsed FILE (profile) write the flamegraph collapsed-stack export there
  --input PATH     (profile) analyse a streamed --telemetry-out JSONL file
                   offline instead of running an experiment;
                   (report) a fleet store directory or a JSONL dataset file;
                   (serve) the fleet store directory to serve
  --telemetry-out FILE (fleet) write each shard's span tree there, one JSON
                   line per shard (forces telemetry on)
  --seeds N        (sweep) number of seeds, 1 to 10000 (default 8)
  --addr HOST:PORT (serve) listen address (default 127.0.0.1:8080; port 0
                   binds an ephemeral port, printed on startup)
  --rate N         (serve) token-bucket rate limit: N requests/s sustained
                   with an N-request burst; excess gets 429 with Retry-After
                   (default: unlimited)
  --print-routes   (serve) print the registered /v1 routes and exit
  -h, --help       print this help";

/// Every `pwnd` command name.
pub const COMMANDS: [&str; 11] = [
    "run", "trace", "profile", "export", "sweep", "chaos", "fleet", "report", "serve", "leaks",
    "truth",
];

/// The most `--jobs` a batch command takes: each job is a thread.
pub const MAX_JOBS: usize = 256;

/// The most `sweep --seeds`: each seed is a full run.
pub const MAX_SEEDS: u64 = 10_000;

/// What a `pwnd` command line asks for.
#[derive(Clone, Debug, PartialEq)]
pub enum Invocation {
    /// Print [`USAGE`] to stdout.
    Help,
    /// Run a command (one of [`COMMANDS`]) with its flags.
    Command(String, Box<Args>),
}

/// Every flag of every command; see [`USAGE`] for what each means.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// `--seed N`.
    pub seed: u64,
    /// `--quick`.
    pub quick: bool,
    /// `--filter-on`.
    pub filter_on: bool,
    /// `--decoys`.
    pub decoys: bool,
    /// `--profile`.
    pub profile: bool,
    /// `--faults NAME`.
    pub faults: Option<FaultProfile>,
    /// `--jobs N`, all cores (at most [`MAX_JOBS`]) when not given.
    pub jobs: usize,
    /// `--accounts N`.
    pub accounts: u32,
    /// `--seeds N`, at most [`MAX_SEEDS`].
    pub seeds: u64,
    /// `--limit N`.
    pub limit: usize,
    /// `--out FILE`.
    pub out: Option<String>,
    /// `--out-dir DIR`.
    pub out_dir: Option<String>,
    /// `--trace-out FILE`.
    pub trace_out: Option<String>,
    /// `--filter SUBSTR`.
    pub filter: Option<String>,
    /// `--collapsed FILE`.
    pub collapsed: Option<String>,
    /// `--input PATH`.
    pub input: Option<String>,
    /// `--telemetry-out FILE`.
    pub telemetry_out: Option<String>,
    /// `--addr HOST:PORT`.
    pub addr: String,
    /// `--rate N`.
    pub rate: Option<u32>,
    /// `--print-routes`.
    pub print_routes: bool,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            seed: 2016,
            quick: false,
            filter_on: false,
            decoys: false,
            profile: false,
            faults: None,
            // lint:allow(lock-discipline): one-shot core-count read for a CLI default; no shared state
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_JOBS)),
            accounts: 1_000,
            seeds: 8,
            limit: 0,
            out: None,
            out_dir: None,
            trace_out: None,
            filter: None,
            collapsed: None,
            input: None,
            telemetry_out: None,
            addr: "127.0.0.1:8080".to_string(),
            rate: None,
            print_routes: false,
        }
    }
}

/// Parse the arguments after the program name. A syntax error comes
/// back as its message followed by [`USAGE`]; a value out of its range
/// (or a flag combination that cannot run) as a message alone.
pub fn parse(argv: &[String]) -> Result<Invocation, String> {
    let Some((command, flags)) = argv.split_first() else {
        return Err(USAGE.to_string());
    };
    if matches!(command.as_str(), "--help" | "-h" | "help") {
        return Ok(Invocation::Help);
    }
    let mut a = Args::default();
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let (f, it) = (flag.as_str(), &mut it);
        match f {
            "--help" | "-h" => return Ok(Invocation::Help),
            "--quick" => a.quick = true,
            "--filter-on" => a.filter_on = true,
            "--decoys" => a.decoys = true,
            "--profile" => a.profile = true,
            "--print-routes" => a.print_routes = true,
            "--seed" => a.seed = number(f, it)?,
            "--jobs" => a.jobs = number(f, it)?,
            "--accounts" => a.accounts = number(f, it)?,
            "--seeds" => a.seeds = number(f, it)?,
            "--limit" => a.limit = number(f, it)?,
            "--rate" => a.rate = Some(number(f, it)?),
            "--out" => a.out = Some(value(f, it)?),
            "--out-dir" => a.out_dir = Some(value(f, it)?),
            "--trace-out" => a.trace_out = Some(value(f, it)?),
            "--filter" => a.filter = Some(value(f, it)?),
            "--collapsed" => a.collapsed = Some(value(f, it)?),
            "--input" => a.input = Some(value(f, it)?),
            "--telemetry-out" => a.telemetry_out = Some(value(f, it)?),
            "--addr" => a.addr = value(f, it)?,
            "--faults" => {
                let v = value(f, it)?;
                a.faults = Some(FaultProfile::by_name(&v).ok_or_else(|| {
                    with_usage(format!(
                        "unknown fault profile: {v} (expected none, light, or heavy)"
                    ))
                })?);
            }
            _ => return Err(with_usage(format!("unknown flag: {f}"))),
        }
    }
    if !COMMANDS.contains(&command.as_str()) {
        return Err(with_usage(format!("unknown command: {command}")));
    }
    // Reject here what the engine would otherwise clamp or choke on: the
    // batch commands size a runner or a worker pool by --jobs.
    let batch = matches!(command.as_str(), "fleet" | "sweep" | "chaos" | "serve");
    let bad = if batch && a.jobs == 0 {
        "--jobs must be at least 1 (zero worker threads cannot run anything)".to_string()
    } else if batch && a.jobs > MAX_JOBS {
        format!("--jobs must be at most {MAX_JOBS}")
    } else if command == "sweep" && !(1..=MAX_SEEDS).contains(&a.seeds) {
        format!("--seeds must be 1 to {MAX_SEEDS}")
    } else if command == "fleet" && a.accounts == 0 {
        "--accounts must be at least 1 (an empty fleet produces no dataset)".to_string()
    } else if command == "fleet" && a.out_dir.is_some() && a.telemetry_out.is_some() {
        "--telemetry-out is not supported with --out-dir".to_string()
    } else {
        return Ok(Invocation::Command(command.clone(), Box::new(a)));
    };
    Err(format!("pwnd {command}: {bad}"))
}

fn with_usage(msg: String) -> String {
    format!("{msg}\n{USAGE}")
}

/// The value after `flag`.
fn value(flag: &str, it: &mut std::slice::Iter<'_, String>) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| with_usage(format!("{flag} needs a value")))
}

/// The number after `flag`.
fn number<T: FromStr>(flag: &str, it: &mut std::slice::Iter<'_, String>) -> Result<T, String> {
    let v = value(flag, it)?;
    v.parse()
        .map_err(|_| with_usage(format!("{flag} needs a number, got {v:?}")))
}

// ---- sweep and chaos batches ------------------------------------------

/// The fault-rate scale factors the chaos ablation sweeps.
pub const CHAOS_FACTORS: [f64; 4] = [0.0, 0.25, 0.5, 1.0];

/// The config batch behind `pwnd sweep`: consecutive seeds from the
/// base config's own seed.
pub fn sweep_configs(base: &ExperimentConfig, seeds: u64) -> Vec<ExperimentConfig> {
    (0..seeds)
        .map(|s| {
            let mut cfg = base.clone();
            cfg.seed = base.seed.wrapping_add(s);
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

/// Render the sweep table from each seed's overview, in seed order.
pub fn sweep_table(overviews: &[Overview], base_seed: u64) -> String {
    let mut table = Table::new(&[
        "seed", "accesses", "opened", "sent", "blocked", "hijacked", "accounts",
    ])
    .numeric();
    for (i, ov) in overviews.iter().enumerate() {
        table.row([
            base_seed.wrapping_add(i as u64).to_string(),
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

/// One run's row of the chaos table: accesses, notifications lost and
/// duplicated, monitoring gaps, and the mean and least scrape coverage
/// (1 with no covered account). The worker reduces each run to this, so
/// a batch holds one row per factor, not the runs.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosRow {
    accesses: usize,
    lost: u64,
    dups: u64,
    gaps: usize,
    mean_cov: f64,
    min_cov: f64,
}

impl ChaosRow {
    /// Reduce one chaos run to its table row.
    pub fn of(out: &RunOutput) -> ChaosRow {
        let gt = &out.ground_truth;
        let covs: Vec<f64> = out
            .dataset
            .accounts
            .iter()
            .filter_map(|a| a.coverage)
            .collect();
        ChaosRow {
            accesses: out.dataset.accesses.len(),
            lost: gt.notifications_lost,
            dups: gt.duplicate_notifications,
            gaps: gt.monitoring_gaps,
            mean_cov: match covs.len() {
                0 => 1.0,
                n => covs.iter().sum::<f64>() / n as f64,
            },
            // A coverage is a fraction, so folding from 1 changes nothing.
            min_cov: covs.iter().copied().fold(1.0, f64::min),
        }
    }
}

/// Render the chaos data-loss table from a batch's ordered rows (one
/// per entry of [`CHAOS_FACTORS`]).
pub fn chaos_table(rows: &[ChaosRow]) -> String {
    let mut table = Table::new(&[
        "factor", "accesses", "lost", "dups", "gaps", "mean cov", "min cov",
    ])
    .numeric();
    for (&factor, row) in CHAOS_FACTORS.iter().zip(rows) {
        table.row([
            format!("{factor:.2}"),
            row.accesses.to_string(),
            row.lost.to_string(),
            row.dups.to_string(),
            row.gaps.to_string(),
            format!("{:.4}", row.mean_cov),
            format!("{:.4}", row.min_cov),
        ]);
    }
    table.render()
}

/// The `--profile` breakdown for a batch: the runner's speedup summary
/// followed by the merged telemetry report (phases and metrics; a merge
/// holds no trace).
pub fn batch_profile_report<T>(batch: &Batch<T>) -> String {
    let mut out = String::new();
    if let Some(profile) = batch.profile() {
        out.push_str(&profile.render());
    }
    out.push_str(&batch.telemetry.render());
    out
}

/// The `--profile` line `peak RSS (VmHWM)  N.N MiB`: this process's
/// peak resident set so far, from `/proc/self/status` (Linux only).
pub fn peak_rss_line() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = kib.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(format!("peak RSS (VmHWM)  {:.1} MiB", kib / 1024.0))
}

// ---- `pwnd profile` and `pwnd trace` rendering ------------------------

/// The `pwnd profile` report: the top-spans table, then the phase
/// table of root spans. `limit` bounds the top-spans rows (0 = all).
pub fn profile_report(report: &TelemetryReport, limit: usize) -> String {
    format!(
        "{}\n{}",
        report.spans.top_spans_table(limit),
        report.phase_table()
    )
}

/// Fold a `--telemetry-out` file (one `{"schema":…,"spans":[…]}` object
/// per shard line, blank lines ignored) into the fleet's merged span
/// tree, one line in memory at a time through the capped line reader
/// [`jsonl::for_each_line`]. Keys other than `spans`, such as the
/// counters and trace that older binaries also wrote, are skipped.
/// Errors name `name` and the line.
pub fn merge_telemetry_jsonl(name: &str, reader: impl BufRead) -> Result<SpanTreeSnapshot, String> {
    let mut spans = SpanTreeSnapshot::default();
    let mut lines = 0;
    jsonl::for_each_line(name, reader, |lineno, line| {
        if line.trim().is_empty() {
            return Ok(());
        }
        let error = |what: &str| jsonl::line_error(name, lineno, what);
        let json = Json::parse(line).map_err(|e| error(&e.to_string()))?;
        if !matches!(json, Json::Obj(_)) {
            return Err(error("expected a JSON object"));
        }
        if let Some(tree) = json.get("spans") {
            spans.merge_from(&SpanTreeSnapshot::from_json(tree).map_err(|e| error(&e))?);
        }
        lines += 1;
        Ok(())
    })
    .map_err(|e| e.to_string())?;
    if lines == 0 {
        return Err(format!("{name}: no report lines found"));
    }
    Ok(spans)
}

/// The `pwnd trace` consumer: each event whose kind or detail contains
/// `filter` (every event, when `None`) becomes one JSONL line, written
/// as its event is recorded. With a `limit` of N > 0, only the last N
/// lines are kept, and [`finish`](Self::finish) writes them.
pub struct TraceWriter<W: Write> {
    out: W,
    filter: Option<String>,
    limit: usize,
    /// The kept lines, oldest first; with no limit, the last line
    /// written, whose buffer the next line reuses.
    lines: VecDeque<String>,
    /// Lines written so far, or the first write error (after which
    /// nothing more is written).
    written: io::Result<u64>,
}

impl<W: Write> TraceWriter<W> {
    /// A writer of the events that match `filter` to `out`, keeping only
    /// the last `limit` (0 = all).
    pub fn new(out: W, filter: Option<String>, limit: usize) -> TraceWriter<W> {
        let (lines, written) = (VecDeque::new(), Ok(0));
        TraceWriter {
            out,
            filter,
            limit,
            lines,
            written,
        }
    }

    /// Take one event, as the sink records it.
    pub fn push(&mut self, e: &TraceEvent) {
        let f = self.filter.as_deref();
        if f.is_some_and(|f| !e.kind.contains(f) && !e.detail.contains(f)) {
            return;
        }
        let mut line = if self.lines.len() == self.limit.max(1) {
            self.lines.pop_front().unwrap_or_default()
        } else {
            String::new()
        };
        line.clear();
        e.write_json_line(&mut line);
        line.push('\n');
        if self.limit == 0 {
            self.write(&line);
        }
        self.lines.push_back(line);
    }

    fn write(&mut self, line: &str) {
        if let Ok(n) = self.written {
            self.written = self.out.write_all(line.as_bytes()).map(|()| n + 1);
        }
    }

    /// Write the kept lines and flush: the number of lines written, or
    /// the first write error.
    pub fn finish(&mut self) -> io::Result<u64> {
        if self.limit > 0 {
            for line in std::mem::take(&mut self.lines) {
                self.write(&line);
            }
        }
        let written = std::mem::replace(&mut self.written, Ok(0))?;
        self.out.flush()?;
        Ok(written)
    }
}

// ---- the `pwnd report` table -----------------------------------------

/// Render the §4.1 overview as the `pwnd report` table.
pub fn overview_table(ov: &Overview) -> String {
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
    use pwnd_analysis::tables::overview;
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
    fn sweep_seeds_wrap_past_the_largest_seed() {
        let configs = sweep_configs(&ExperimentConfig::quick(u64::MAX), 2);
        assert_eq!(
            configs.iter().map(|c| c.seed).collect::<Vec<_>>(),
            vec![u64::MAX, 0]
        );
        let batch = pwnd_core::Runner::new(1).run_map(configs, |_, o| overview(&o.dataset));
        let table = sweep_table(&batch.outputs, u64::MAX);
        let seeds: Vec<&str> = table
            .lines()
            .skip(2)
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        assert_eq!(seeds, ["18446744073709551615", "0"], "{table}");
    }

    fn parse_line(line: &str) -> Result<Invocation, String> {
        parse(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn batch_commands_reject_zero_jobs_and_zero_accounts() {
        for cmd in ["fleet", "sweep", "chaos"] {
            let err = parse_line(&format!("{cmd} --jobs 0")).unwrap_err();
            assert!(err.contains(cmd), "error names the command: {err}");
            assert!(err.contains("--jobs"), "error names the flag: {err}");
            assert!(parse_line(&format!("{cmd} --jobs 1")).is_ok());
        }
        let err = parse_line("fleet --jobs 4 --accounts 0").unwrap_err();
        assert!(err.contains("--accounts"), "error names the flag: {err}");
        // Only the fleet sizes itself by --accounts; sweep/chaos ignore it.
        assert!(parse_line("sweep --jobs 4 --accounts 0").is_ok());
        assert!(parse_line("chaos --jobs 4 --accounts 0").is_ok());
        // Non-batch commands never trip the batch validation.
        assert!(parse_line("run --jobs 0 --accounts 0").is_ok());
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
        let written = |filter: Option<&str>, limit: usize| {
            let mut w = TraceWriter::new(Vec::new(), filter.map(str::to_string), limit);
            for t in 0..10u64 {
                w.push(&TraceEvent {
                    at_secs: t,
                    kind: if t % 2 == 0 { "login" } else { "scrape" },
                    account: Some(1),
                    detail: if t == 3 {
                        "after login".into()
                    } else {
                        String::new()
                    },
                });
            }
            let n = w.finish().unwrap();
            let text = String::from_utf8(w.out).unwrap();
            assert_eq!(text.lines().count() as u64, n);
            text
        };
        let all = written(None, 0);
        assert_eq!(all.lines().count(), 10);
        assert_eq!(
            all.lines().next(),
            Some(r#"{"t_secs":0,"kind":"login","account":1}"#)
        );
        // The filter matches a detail as well as a kind.
        let logins = written(Some("login"), 0);
        assert_eq!(logins.lines().count(), 6);
        let tail = written(Some("login"), 2);
        assert_eq!(
            tail,
            "{\"t_secs\":6,\"kind\":\"login\",\"account\":1}\n\
             {\"t_secs\":8,\"kind\":\"login\",\"account\":1}\n"
        );
        // A limit above the matches keeps them all, in order.
        assert_eq!(written(Some("login"), 50), logins);
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
        // Two shards: 100 accounts and a 20-account tail.
        let out = run_fleet(&FleetConfig::new(7, 120, 2).with_telemetry(true));
        let mut text = Vec::new();
        assert_eq!(out.write_telemetry_jsonl(&mut text).unwrap(), 2);
        let merged = merge_telemetry_jsonl("t", &text[..]).unwrap();
        assert_eq!(merged, TelemetryReport::merge(&out.shard_reports).spans);
        assert!(merged.node("event-loop").is_some());
        // Older binaries also wrote counters, a trace and a flat
        // `phases` array on each line; only `spans` is read.
        let old = concat!(
            r#"{"schema":"pwnd-telemetry/1","counters":{"runs":4},"gauges":{},"#,
            r#""histograms":{},"trace":[{"t_secs":5,"kind":"login"}],"trace_dropped":0,"#,
            r#""phases":[{"name":"event-loop","total_ns":1500,"entries":1}],"#,
            r#""spans":[{"path":"event-loop","total_ns":1500,"count":1}]}"#,
        );
        let with_old = [&text[..], old.as_bytes(), b"\n\n"].concat();
        let with_old = merge_telemetry_jsonl("t", &with_old[..]).unwrap();
        assert_eq!(
            with_old.node("event-loop").unwrap().count,
            merged.node("event-loop").unwrap().count + 1
        );
        for (bad, why) in [
            ("", "t: no report lines found"),
            ("\n \n", "t: no report lines found"),
            ("not json\n", "t: line 1: "),
            ("{}\n5\n", "t: line 2: expected a JSON object"),
            ("{\"spans\":{}}\n", "t: line 1: spans: expected array"),
        ] {
            let err = merge_telemetry_jsonl("t", bad.as_bytes()).unwrap_err();
            assert!(err.starts_with(why), "{bad:?}: {err}");
        }
    }
}
