//! The three workloads, each in an untimed-checks / timed-loop shape:
//! `paper_run`, `fleet_store` and `serve_open_loop`.
//!
//! An untraced run measures the end-to-end metrics with telemetry off.
//! A traced run (`--trace 1`) repeats the same work with the program's
//! own telemetry switched on through its public knobs
//! (`Experiment::with_telemetry`, `FleetConfig::with_telemetry`,
//! `ServeOptions::telemetry`), adds harness timings around the public
//! calls it makes, and reports the per-layer metrics.

use crate::affinity;
use crate::alloc;
use crate::openloop::{self, RungReport, Segment};
use crate::report::Outcome;
use crate::stats;
use pwnd::core::fleet::run_fleet;
use pwnd::core::hash::Sha256;
use pwnd::serve::index::QueryIndex;
use pwnd::serve::{loadgen, ServeOptions, Server};
use pwnd::store::{merge_store_jsonl, run_fleet_store, store_overview, FleetStore, VerifiedStore};
use pwnd::telemetry::{TelemetryReport, TelemetrySink};
use pwnd::{Experiment, ExperimentConfig, FleetConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["paper_run", "fleet_store", "serve_open_loop"];

/// sha256 of `dataset_json()` for `ExperimentConfig::paper(2016)`: the
/// reproduced dataset every change must keep byte-identical.
pub const PAPER_DATASET_SHA_2016: &str =
    "33c4e953acdef7a1446be32dbcfc118a372911a2de987b7f3c9ab0addd374387";
/// sha256 of `analysis().render()` for `ExperimentConfig::paper(2016)`
/// (what `pwnd run --seed 2016` prints, without its final newline).
pub const PAPER_REPORT_SHA_2016: &str =
    "e31da7bfb9afb523e612da7b73cd96a734ea87907516994d56ed584d0b8220dc";

/// Honey accounts in the `fleet_store` workload's store (ten shards).
pub const FLEET_ACCOUNTS: u32 = 1000;
/// Honey accounts in the store `serve_open_loop` serves.
pub const SERVE_ACCOUNTS: u32 = 1000;
/// Paths sampled per kind by `loadgen::query_mix`.
pub const MIX_SAMPLES: usize = 32;
/// The ladder's base rate, requests per second: where the latency
/// metrics are read.
pub const BASE_RATE: f64 = 20_000.0;
/// Offered rates above the base, requests per second. The top rung lies
/// above the closed-loop capacity of the daemon pinned to one CPU
/// (`taskset -c 1 pwnd serve-bench --clients 1` gives 90k–105k req/s on
/// a 2-core host).
pub const LADDER: [f64; 10] = [
    25_000.0, 50_000.0, 60_000.0, 70_000.0, 80_000.0, 90_000.0, 100_000.0, 110_000.0, 125_000.0,
    150_000.0,
];
/// Passes over the ladder per run. Each pass visits the base rate and
/// every rung once; a rung's figures fold all its segments, so a
/// disturbance on the host spoils one segment rather than a whole rung.
pub const PASSES: usize = 8;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Fresh-process paper runs per run for `paper_run`'s `setup_s`.
const COLD_RUNS: usize = 5;

/// What every workload needs to know.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Measuring time per run, seconds.
    pub seconds: f64,
    /// Worker threads for the runner.
    pub jobs: usize,
    /// Work directory for stores, under the current directory.
    pub work: PathBuf,
}

impl Ctx {
    fn deadline(&self, share: f64) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds * share)
    }
}

/// Run one workload, traced or not.
pub fn run(name: &str, traced: bool, ctx: &Ctx) -> io::Result<Outcome> {
    match (name, traced) {
        ("paper_run", false) => paper_run(ctx),
        ("paper_run", true) => paper_run_traced(ctx),
        ("fleet_store", false) => fleet_store(ctx),
        ("fleet_store", true) => fleet_store_traced(ctx),
        ("serve_open_loop", false) => serve_open_loop(ctx),
        ("serve_open_loop", true) => serve_open_loop_traced(ctx),
        _ => Err(io::Error::other(format!(
            "unknown workload {name:?} (known: {})",
            WORKLOADS.join(", ")
        ))),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn sha(bytes: &[u8]) -> String {
    Sha256::digest_hex(bytes)
}

/// Peak resident set of this process, MiB (`VmHWM`). Each workload runs
/// in its own process, so this is the workload's own peak.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}

/// `n` timings of `f`, seconds.
fn timings<T>(n: usize, mut f: impl FnMut() -> io::Result<T>) -> io::Result<Vec<f64>> {
    let mut xs = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        black_box(f()?);
        xs.push(t.elapsed().as_secs_f64());
    }
    Ok(xs)
}

/// Set-up timings, ms, for the report.
fn setup_note(xs: &[f64]) -> String {
    let ms: Vec<String> = xs.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
    format!("set-ups (ms): {}", ms.join(" "))
}

/// Relative spread (max - min) / max of repeated counter readings.
fn repeat_spread(xs: &[u64]) -> f64 {
    let (lo, hi) = (xs.iter().min(), xs.iter().max());
    match (lo, hi) {
        (Some(&lo), Some(&hi)) if hi > 0 => (hi - lo) as f64 / hi as f64,
        _ => 0.0,
    }
}

/// Work counters read once per traced repetition, and whether each must
/// repeat exactly (single-threaded, deterministic work) or may spread.
#[derive(Default)]
struct Counters {
    readings: BTreeMap<&'static str, (bool, Vec<u64>)>,
}

impl Counters {
    fn push(&mut self, name: &'static str, exact: bool, value: u64) {
        self.readings
            .entry(name)
            .or_insert((exact, Vec::new()))
            .1
            .push(value);
    }

    /// Check exact counters, record spreads, and copy the first reading
    /// of each counter into the layer metrics.
    fn finish(self, out: &mut Outcome) {
        let mut worst = 0.0f64;
        for (name, (exact, xs)) in self.readings {
            let spread = repeat_spread(&xs);
            worst = worst.max(spread);
            out.layer(name, xs[0] as f64);
            let shown: Vec<String> = xs.iter().map(u64::to_string).collect();
            if exact {
                out.check(
                    &format!("counter {name} repeats exactly"),
                    spread == 0.0,
                    &shown.join(" "),
                );
            } else {
                out.note(format!(
                    "counter {name}: {} (spread {:.4}; not single-threaded)",
                    shown.join(" "),
                    spread
                ));
            }
        }
        out.layer("counters.repeat_spread", worst);
    }
}

/// Span-tree helpers over a telemetry report. Paths are normalized by
/// dropping the harness's own `total;` root, so one name covers a single
/// run (`total;corpus`) and a merged fleet (`corpus`).
struct Spans<'a>(&'a TelemetryReport);

impl Spans<'_> {
    fn strip(path: &str) -> &str {
        path.strip_prefix("total;").unwrap_or(path)
    }

    fn path_ms(&self, path: &str) -> f64 {
        self.0
            .spans
            .nodes
            .iter()
            .filter(|n| Self::strip(&n.path) == path)
            .map(|n| ms(n.total))
            .sum()
    }

    fn leaf_ms(&self, pred: impl Fn(&str) -> bool) -> f64 {
        self.0
            .spans
            .nodes
            .iter()
            .filter(|n| pred(n.leaf()))
            .map(|n| ms(n.total))
            .sum()
    }

    fn leaf_self_ms(&self, leaf: &str) -> f64 {
        self.0
            .spans
            .nodes
            .iter()
            .filter(|n| n.leaf() == leaf)
            .map(|n| ms(self.0.spans.self_time(&n.path)))
            .sum()
    }
}

/// The simulation layers' metrics, read from one run's (or one merged
/// fleet's) telemetry.
fn sim_layers(rep: &TelemetryReport) -> Vec<(&'static str, f64)> {
    let s = Spans(rep);
    let m = &rep.metrics;
    vec![
        ("corpus.ms", s.path_ms("corpus")),
        ("corpus.index_ms", s.path_ms("corpus;index")),
        ("corpus.bodies_ms", s.path_ms("corpus;bodies")),
        ("webmail.logins", m.counter("webmail.logins") as f64),
        ("webmail.searches", m.counter("webmail.searches") as f64),
        ("monitor.scrape_ms", s.leaf_ms(|l| l == "scrape")),
        ("monitor.poll_self_ms", s.leaf_self_ms("poll")),
        ("monitor.parse_ms", s.leaf_ms(|l| l == "parse")),
        ("monitor.scrapes", m.counter("monitor.scrapes") as f64),
        (
            "monitor.retries",
            m.histograms
                .get("scraper.retries")
                .map_or(0.0, |h| h.count() as f64),
        ),
        ("monitor.dataset_ms", s.path_ms("dataset")),
        (
            "attacker.visit_ms",
            s.leaf_ms(|l| l.starts_with("event{kind=visit")),
        ),
        ("attacker.plans_ms", s.path_ms("attack-plans")),
        ("leak.ms", s.path_ms("leaks")),
        ("sim.events", m.counter("sim.events_dispatched") as f64),
        (
            "sim.queue_depth_max",
            m.gauge("queue.depth_high_water") as f64,
        ),
        ("core.event_loop_ms", s.path_ms("event-loop")),
    ]
}

/// Per-metric medians over repeated traced passes.
#[derive(Default)]
struct LayerSamples(BTreeMap<&'static str, Vec<f64>>);

impl LayerSamples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn extend(&mut self, values: Vec<(&'static str, f64)>) {
        for (name, v) in values {
            self.push(name, v);
        }
    }

    fn finish(self, out: &mut Outcome) {
        for (name, xs) in self.0 {
            out.layer(name, stats::median(&xs));
        }
    }
}

// ---- paper_run --------------------------------------------------------

/// One paper run: config to report bytes and dataset bytes.
struct PaperPass {
    secs: f64,
    report_sha: String,
    dataset_sha: String,
    analysis_ms: f64,
    export_ms: f64,
    export_bytes: usize,
    corpus_bytes: usize,
    overview_ms: f64,
    telemetry: TelemetryReport,
}

fn paper_pass(seed: u64, sink: &TelemetrySink) -> PaperPass {
    let t0 = Instant::now();
    let total = sink.span("total");
    let output = Experiment::new(ExperimentConfig::paper(seed))
        .with_telemetry(sink.clone())
        .run();
    let t1 = Instant::now();
    let report = {
        let _s = sink.subspan("render", &[]);
        output.analysis().render()
    };
    let t2 = Instant::now();
    let dataset = {
        let _s = sink.subspan("export", &[]);
        output.dataset_json()
    };
    let t3 = Instant::now();
    drop(total);
    let secs = (t3 - t0).as_secs_f64();
    let mut overview_ms = 0.0;
    if sink.is_enabled() {
        let t = Instant::now();
        black_box(pwnd::analysis::tables::overview(&output.dataset));
        overview_ms = ms(t.elapsed());
    }
    PaperPass {
        secs,
        report_sha: sha(report.as_bytes()),
        dataset_sha: sha(dataset.as_bytes()),
        analysis_ms: ms(t2 - t1),
        export_ms: ms(t3 - t2),
        export_bytes: dataset.len(),
        corpus_bytes: output.corpus_text.len(),
        overview_ms,
        telemetry: sink.report(),
    }
}

/// The untraced paper run a fresh process makes for `setup_s`: seconds
/// from `main` to the output bytes.
pub fn cold_paper_run(seed: u64, since: Instant) -> f64 {
    let pass = paper_pass(seed, &TelemetrySink::disabled());
    black_box(&pass.dataset_sha);
    since.elapsed().as_secs_f64()
}

/// The expected output shas: the recorded goldens at seed 2016, else
/// the first pass's own output (so later passes must repeat it).
fn paper_expected(seed: u64, first: &PaperPass) -> (String, String) {
    if seed == 2016 {
        (
            PAPER_REPORT_SHA_2016.to_string(),
            PAPER_DATASET_SHA_2016.to_string(),
        )
    } else {
        (first.report_sha.clone(), first.dataset_sha.clone())
    }
}

fn paper_accounts(seed: u64) -> f64 {
    ExperimentConfig::paper(seed).plan.total_accounts() as f64
}

fn paper_run(ctx: &Ctx) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    // Set-up: time to the first output in a fresh process, which pays
    // every one-time cost a warm loop would hide.
    let exe = std::env::current_exe()?;
    let mut cold = Vec::with_capacity(COLD_RUNS);
    for _ in 0..COLD_RUNS {
        let o = Command::new(&exe)
            .args(["--cold-run", &ctx.seed.to_string()])
            .output()?;
        let text = String::from_utf8_lossy(&o.stdout);
        let secs = text
            .lines()
            .last()
            .and_then(|l| l.trim().parse::<f64>().ok())
            .filter(|_| o.status.success())
            .ok_or_else(|| io::Error::other(format!("cold run failed: {text}")))?;
        cold.push(secs);
    }

    let disabled = TelemetrySink::disabled();
    let deadline = ctx.deadline(1.0);
    let mut secs = Vec::new();
    let mut expected: Option<(String, String)> = None;
    let mut wrong = String::new();
    while secs.len() < 5 || Instant::now() < deadline {
        let pass = paper_pass(ctx.seed, &disabled);
        let (report, dataset) = expected.get_or_insert_with(|| paper_expected(ctx.seed, &pass));
        out.attempted += 1;
        if pass.report_sha != *report || pass.dataset_sha != *dataset {
            out.failed += 1;
            wrong = format!(
                " (got report {} dataset {})",
                pass.report_sha, pass.dataset_sha
            );
        }
        secs.push(pass.secs);
    }
    let (report, dataset) = expected.unwrap_or_default();
    out.check(
        "every run's report and dataset bytes match",
        out.failed == 0,
        &format!("report {report} dataset {dataset}{wrong}"),
    );

    let ms_samples: Vec<f64> = secs.iter().map(|s| s * 1e3).collect();
    let summary = stats::summarize(&ms_samples);
    out.note(format!(
        "{} paper runs; tail is p{:.1}; cold runs {:?} s",
        summary.n,
        summary.tail_pct * 100.0,
        cold
    ));
    out.metric("setup_s", stats::median(&cold));
    out.metric("op_p50_ms", summary.p50);
    out.metric("op_tail_ms", summary.tail);
    out.metric(
        "throughput_per_s",
        paper_accounts(ctx.seed) * secs.len() as f64 / secs.iter().sum::<f64>(),
    );
    out.metric("peak_rss_mb", peak_rss_mb()?);
    Ok(out)
}

fn paper_run_traced(ctx: &Ctx) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let disabled = TelemetrySink::disabled();

    // Allocation counts of two untraced passes: single-threaded, so
    // they must match.
    let mut counters = Counters::default();
    let mut alloc_bytes = Vec::new();
    for _ in 0..2 {
        let (_, count, bytes) = alloc::counted(|| paper_pass(ctx.seed, &disabled));
        counters.push("alloc.count", true, count);
        alloc_bytes.push(bytes as f64);
    }

    let deadline = ctx.deadline(1.0);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut layers = LayerSamples::default();
    let mut expected: Option<(String, String)> = None;
    let mut wrong = String::new();
    while traced.len() < 3 || Instant::now() < deadline {
        for sink in [TelemetrySink::disabled(), TelemetrySink::enabled()] {
            let pass = paper_pass(ctx.seed, &sink);
            let (report, dataset) = expected.get_or_insert_with(|| paper_expected(ctx.seed, &pass));
            out.attempted += 1;
            if pass.report_sha != *report || pass.dataset_sha != *dataset {
                out.failed += 1;
                wrong = format!(
                    " (got report {} dataset {})",
                    pass.report_sha, pass.dataset_sha
                );
            }
            if !sink.is_enabled() {
                untraced.push(pass.secs);
                continue;
            }
            traced.push(pass.secs);
            let m = &pass.telemetry.metrics;
            counters.push("sim.events", true, m.counter("sim.events_dispatched"));
            counters.push("webmail.logins", true, m.counter("webmail.logins"));
            counters.push("monitor.scrapes", true, m.counter("monitor.scrapes"));
            layers.extend(sim_layers(&pass.telemetry));
            layers.push("corpus.text_bytes", pass.corpus_bytes as f64);
            layers.push("monitor.export_ms", pass.export_ms);
            layers.push("monitor.export_bytes", pass.export_bytes as f64);
            layers.push("analysis.ms", pass.analysis_ms);
            layers.push("analysis.overview_ms", pass.overview_ms);
        }
    }
    let (report, dataset) = expected.unwrap_or_default();
    out.check(
        "traced and untraced outputs byte-equal (and equal the goldens at seed 2016)",
        out.failed == 0,
        &format!("report {report} dataset {dataset}{wrong}"),
    );
    counters.push("store.bytes_written", true, 0);
    counters.finish(&mut out);
    layers.finish(&mut out);
    out.layer("alloc.bytes", stats::median(&alloc_bytes));
    out.layer(
        "telemetry.overhead_share",
        stats::median(&traced) / stats::median(&untraced) - 1.0,
    );
    out.note(format!(
        "{} traced and {} untraced paper runs",
        traced.len(),
        untraced.len()
    ));
    Ok(out)
}

// ---- fleet_store --------------------------------------------------------

/// One fleet pass: a fresh store written, then its overview streamed
/// back.
struct FleetPass {
    write_secs: f64,
    read_secs: f64,
    shards: usize,
    shards_run: usize,
    overview: String,
    manifest_sha: String,
    telemetry: TelemetryReport,
}

fn fleet_config(ctx: &Ctx, accounts: u32, telemetry: bool) -> FleetConfig {
    FleetConfig::new(ctx.seed, accounts, ctx.jobs).with_telemetry(telemetry)
}

fn fresh_dir(dir: &Path) -> io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

fn fleet_pass(ctx: &Ctx, dir: &Path, telemetry: bool) -> io::Result<FleetPass> {
    fresh_dir(dir)?;
    let cfg = fleet_config(ctx, FLEET_ACCOUNTS, telemetry);
    let t0 = Instant::now();
    let run = run_fleet_store(&cfg, dir)?;
    let t1 = Instant::now();
    let overview = store_overview(dir)?;
    let t2 = Instant::now();
    Ok(FleetPass {
        write_secs: (t1 - t0).as_secs_f64(),
        read_secs: (t2 - t1).as_secs_f64(),
        shards: run.shards_total,
        shards_run: run.shards_run,
        overview: pwnd::cli::overview_table(&overview),
        manifest_sha: sha(&std::fs::read(dir.join(pwnd::store::MANIFEST_FILE))?),
        telemetry: run.telemetry,
    })
}

/// Checks one pass against the first: every shard ran, and the store
/// and its overview are byte-identical.
fn fleet_pass_ok(pass: &FleetPass, first: &mut Option<(String, String)>) -> bool {
    let (overview, manifest) =
        first.get_or_insert_with(|| (pass.overview.clone(), pass.manifest_sha.clone()));
    pass.shards_run == pass.shards && pass.overview == *overview && pass.manifest_sha == *manifest
}

fn fleet_store(ctx: &Ctx) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let dir = ctx.work.join("fleet");
    let deadline = ctx.deadline(1.0);
    let mut first = None;
    let (mut total_ms, mut rate) = (Vec::new(), Vec::new());
    while total_ms.len() < 5 || Instant::now() < deadline {
        let pass = fleet_pass(ctx, &dir, false)?;
        out.attempted += 1;
        if !fleet_pass_ok(&pass, &mut first) {
            out.failed += 1;
        }
        total_ms.push((pass.write_secs + pass.read_secs) * 1e3);
        rate.push(f64::from(FLEET_ACCOUNTS) / pass.write_secs);
    }
    out.check(
        "every pass ran every shard; store and overview repeat byte for byte",
        out.failed == 0,
        &first
            .map(|(_, m)| format!("manifest {m}"))
            .unwrap_or_default(),
    );

    // A re-run over the finished store must reuse every shard.
    let rerun = run_fleet_store(&fleet_config(ctx, FLEET_ACCOUNTS, false), &dir)?;
    out.check(
        "a re-run over the finished store skips every shard",
        rerun.shards_run == 0 && rerun.shards_skipped == rerun.shards_total as u64,
        "",
    );
    // Set-up: opening the finished store, which verifies every shard's
    // hash — what `pwnd report --input`, `pwnd serve` and a re-run pay
    // before they read or simulate anything. (A re-run also rewrites
    // the manifest durably; that fsync swings from 5 to 100 ms on a
    // shared disk, so it stays out of the gated figure.)
    let setups = timings(SETUPS, || VerifiedStore::open(&dir))?;

    let summary = stats::summarize(&total_ms);
    out.note(format!(
        "{} passes of {FLEET_ACCOUNTS} accounts on {} jobs; tail is p{:.1}",
        summary.n,
        ctx.jobs,
        summary.tail_pct * 100.0
    ));
    out.note(setup_note(&setups));
    out.metric("setup_s", stats::median(&setups));
    out.metric("op_p50_ms", summary.p50);
    out.metric("op_tail_ms", summary.tail);
    out.metric("throughput_per_s", stats::median(&rate));
    out.metric("peak_rss_mb", peak_rss_mb()?);
    fresh_dir(&dir)?;
    Ok(out)
}

/// Total bytes of the store's files (shards plus manifest).
fn store_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

/// Durably write the finished store's bytes again, the way
/// `run_fleet_store` does (each shard, then the manifest), through the
/// public `FleetStore` — the write path timed apart from the simulation.
fn replay_store_write(dir: &Path, into: &Path) -> io::Result<f64> {
    let verified = VerifiedStore::open(dir)?;
    let manifest = std::fs::read(dir.join(pwnd::store::MANIFEST_FILE))?;
    let shards = verified
        .manifest()
        .shards
        .iter()
        .map(|e| Ok((e.file.clone(), std::fs::read(dir.join(&e.file))?)))
        .collect::<io::Result<Vec<_>>>()?;
    fresh_dir(into)?;
    let store = FleetStore::open(into)?;
    let t = Instant::now();
    store.atomic_write(pwnd::store::MANIFEST_FILE, &manifest)?;
    for (file, bytes) in &shards {
        store.atomic_write(file, bytes)?;
        store.atomic_write(pwnd::store::MANIFEST_FILE, &manifest)?;
    }
    Ok(ms(t.elapsed()))
}

/// Timings of the store's read side: verify, then a raw line scan with
/// no parsing. Returns the verify time, ms.
fn store_read_layers(dir: &Path, layers: &mut LayerSamples) -> io::Result<f64> {
    let t = Instant::now();
    let store = VerifiedStore::open(dir)?;
    let verify_ms = ms(t.elapsed());
    layers.push("store.verify_ms", verify_ms);
    let t = Instant::now();
    store.for_each_line(|_, _, line| {
        black_box(line);
        Ok(())
    })?;
    layers.push("store.scan_ms", ms(t.elapsed()));
    Ok(verify_ms)
}

fn fleet_store_traced(ctx: &Ctx) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let dir = ctx.work.join("fleet");
    let mut counters = Counters::default();
    let mut alloc_bytes = Vec::new();
    for _ in 0..2 {
        let (pass, count, bytes) = alloc::counted(|| fleet_pass(ctx, &dir, false));
        pass?;
        counters.push("alloc.count", false, count);
        alloc_bytes.push(bytes as f64);
    }

    let deadline = ctx.deadline(0.6);
    let mut first = None;
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut layers = LayerSamples::default();
    while traced.len() < 2 || Instant::now() < deadline {
        for telemetry in [false, true] {
            let pass = fleet_pass(ctx, &dir, telemetry)?;
            out.attempted += 1;
            if !fleet_pass_ok(&pass, &mut first) {
                out.failed += 1;
            }
            let op = pass.write_secs + pass.read_secs;
            if !telemetry {
                untraced.push(op);
                continue;
            }
            traced.push(op);
            let rep = &pass.telemetry;
            let m = &rep.metrics;
            counters.push("sim.events", true, m.counter("sim.events_dispatched"));
            counters.push("webmail.logins", true, m.counter("webmail.logins"));
            counters.push("monitor.scrapes", true, m.counter("monitor.scrapes"));
            counters.push("store.bytes_written", true, store_bytes(&dir)?);
            layers.extend(sim_layers(rep));
            let s = Spans(rep);
            let run_ms = s.path_ms("runner.run");
            layers.push("core.runner.run_ms", run_ms);
            layers.push("core.runner.queue_wait_ms", s.path_ms("runner.queue-wait"));
            layers.push(
                "core.runner.busy_share",
                run_ms / (ctx.jobs as f64 * pass.write_secs * 1e3),
            );
            layers.push("store.shards", pass.shards as f64);
            layers.push("analysis.overview_ms", pass.read_secs * 1e3);
        }
    }
    for _ in 0..3 {
        layers.push(
            "store.write_ms",
            replay_store_write(&dir, &ctx.work.join("replay"))?,
        );
    }
    fresh_dir(&ctx.work.join("replay"))?;
    // The daemon over the store just written: the serving layers
    // (`serve_open_loop` is not a benchmark workload; see the README).
    serve_layers(
        ctx,
        &dir,
        ctx.seconds * 0.075,
        &mut out,
        &mut layers,
        &mut counters,
    )?;

    // The store path and the in-memory fleet must agree byte for byte.
    let mut merged = Vec::new();
    merge_store_jsonl(&dir, &mut merged)?;
    let mut direct = Vec::new();
    run_fleet(&fleet_config(ctx, FLEET_ACCOUNTS, false)).write_jsonl(&mut direct)?;
    out.attempted += 1;
    let same = merged == direct;
    if !same {
        out.failed += 1;
    }
    out.check(
        "merge_store_jsonl == FleetOutput::write_jsonl",
        same,
        &format!("{} bytes, sha {}", merged.len(), sha(&merged)),
    );
    out.check(
        "every pass ran every shard; stores repeat",
        first.is_some(),
        "",
    );

    counters.finish(&mut out);
    layers.finish(&mut out);
    out.layer("alloc.bytes", stats::median(&alloc_bytes));
    out.layer(
        "telemetry.overhead_share",
        stats::median(&traced) / stats::median(&untraced) - 1.0,
    );
    out.note(format!(
        "{} traced and {} untraced fleet passes",
        traced.len(),
        untraced.len()
    ));
    fresh_dir(&dir)?;
    Ok(out)
}

// ---- serve_open_loop ----------------------------------------------------

/// The body the daemon must return for `path`, from a direct
/// `QueryIndex` call, and the endpoint name the layer metrics use.
fn direct_call(index: &QueryIndex, path: &str) -> Option<(&'static str, String)> {
    let segs: Vec<&str> = path.trim_matches('/').split('/').collect();
    match segs.as_slice() {
        ["v1", "healthz"] => Some(("healthz", index.healthz_json())),
        ["v1", "stats"] => Some(("stats", index.stats_json())),
        ["v1", "outlets"] => Some(("outlets", index.outlets_json())),
        ["v1", "account", id, "timeline"] => {
            Some(("timeline", index.timeline_json(id.parse().ok()?)?))
        }
        ["v1", "account", id, "accesses"] => {
            Some(("accesses", index.accesses_json(id.parse().ok()?)?))
        }
        ["v1", "range", prefix] => Some(("range", index.range_json(prefix))),
        _ => None,
    }
}

/// The daemon under test plus the request mix and its expected bodies.
struct Daemon {
    index: Arc<QueryIndex>,
    paths: Vec<String>,
    requests: Vec<Vec<u8>>,
    expected: Vec<Vec<u8>>,
}

/// Build the store the daemon serves, in a child process, so the
/// simulation's memory does not count in this workload's peak.
fn build_serve_store(ctx: &Ctx) -> io::Result<PathBuf> {
    let dir = ctx.work.join("serve-store");
    fresh_dir(&dir)?;
    let status = Command::new(std::env::current_exe()?)
        .arg("--build-store")
        .arg(&dir)
        .arg(ctx.seed.to_string())
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!(
            "building the serve store failed: {status}"
        )));
    }
    Ok(dir)
}

/// What `--build-store DIR SEED` runs: the 1000-account store
/// `serve_open_loop` serves.
pub fn build_store(seed: u64, jobs: usize, dir: &Path) -> io::Result<()> {
    run_fleet_store(&FleetConfig::new(seed, SERVE_ACCOUNTS, jobs), dir).map(drop)
}

fn serve_options(ctx: &Ctx, telemetry: TelemetrySink) -> ServeOptions {
    ServeOptions {
        threads: ctx.jobs.max(4),
        rate: None,
        telemetry,
    }
}

/// Daemon start as `pwnd serve` does it: verify the store, build the
/// index, bind. Returns the seconds it took and the running server.
fn start_daemon(
    ctx: &Ctx,
    dir: &Path,
    sink: TelemetrySink,
) -> io::Result<(f64, Arc<QueryIndex>, Server)> {
    let t = Instant::now();
    let index = Arc::new(QueryIndex::from_store(dir)?);
    let server = Server::bind("127.0.0.1:0", Arc::clone(&index), serve_options(ctx, sink))?;
    Ok((t.elapsed().as_secs_f64(), index, server))
}

fn daemon(index: Arc<QueryIndex>) -> io::Result<Daemon> {
    let paths = loadgen::query_mix(&index, MIX_SAMPLES);
    let expected = paths
        .iter()
        .map(|p| {
            direct_call(&index, p)
                .map(|(_, body)| body.into_bytes())
                .ok_or_else(|| io::Error::other(format!("mix path {p} has no direct call")))
        })
        .collect::<io::Result<Vec<_>>>()?;
    Ok(Daemon {
        requests: openloop::requests(&paths),
        paths,
        expected,
        index,
    })
}

/// Generator connections (one thread each). The generator and the
/// daemon share one CPU, where a second connection adds only contention
/// between the generator's own threads.
const CONNECTIONS: usize = 1;

/// One segment of open-loop load on the daemon.
fn segment(d: &Daemon, server: &Server, rate: f64, secs: f64, seed: u64) -> io::Result<Segment> {
    openloop::run_segment(
        server.addr(),
        rate,
        secs,
        seed,
        CONNECTIONS,
        &d.requests,
        Some(&d.expected),
        Duration::from_millis(200),
    )
}

fn rung_line(r: &RungReport) -> String {
    format!(
        "rung {:>7.0} req/s × {:.2} s ({} segments, {} windows): sent {:>7} failed {} unsent {} p50 {:>7.1} us p{:.1} {:>9.1} us late p99 {:>8.1} us backlog max {} end {} achieved {:.0} req/s {}",
        r.rate,
        r.secs,
        r.segments,
        r.windows,
        r.sent,
        r.failed,
        r.unsent,
        r.latency.p50,
        r.latency.tail_pct * 100.0,
        r.latency.tail,
        r.late_p99_us,
        r.backlog_max,
        r.backlog_end,
        r.achieved_rps,
        if r.sustained() { "sustained" } else { "NOT sustained" }
    )
}

fn serve_open_loop(ctx: &Ctx) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let dir = build_serve_store(ctx)?;
    let mut starts = Vec::with_capacity(SETUPS);
    let mut index = None;
    for _ in 0..SETUPS {
        let (secs, idx, server) = start_daemon(ctx, &dir, TelemetrySink::disabled())?;
        starts.push(secs);
        server.shutdown();
        index = Some(idx);
    }
    let d = daemon(index.expect("at least one daemon start"))?;

    // Interleave: every pass runs the base rate, then each rung, so
    // each rate samples the host across the whole run; each pass binds
    // a daemon on the next CPU.
    let base_secs = ctx.seconds * 0.35 / PASSES as f64;
    let rung_secs = ctx.seconds * 0.65 / (PASSES * LADDER.len()) as f64;
    let rates: Vec<(f64, f64)> = std::iter::once((BASE_RATE, base_secs))
        .chain(LADDER.iter().map(|&r| (r, rung_secs)))
        .collect();
    let mut segments: Vec<Vec<Segment>> = vec![Vec::new(); rates.len()];
    let mut cpus = Vec::new();
    for pass in 0..PASSES {
        let pin = affinity::OneCpu::pin(pass);
        cpus.extend(pin.cpu);
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::clone(&d.index),
            serve_options(ctx, TelemetrySink::disabled()),
        )?;
        for (k, &(rate, secs)) in rates.iter().enumerate() {
            let seed = ctx.seed.wrapping_mul(1000) + (pass * rates.len() + k) as u64;
            segments[k].push(segment(&d, &server, rate, secs, seed)?);
        }
        server.shutdown();
    }
    out.note(format!(
        "passes pinned to CPUs {cpus:?} (generator and daemon together)"
    ));
    let rungs: Vec<RungReport> = segments.iter().map(|s| RungReport::combine(s)).collect();
    for r in &rungs {
        out.note(rung_line(r));
        out.attempted += r.sent;
        out.failed += r.failed;
    }
    out.check(
        "every response is 200 and byte-equal to the direct QueryIndex call",
        out.failed == 0,
        &format!("{} paths in the mix", d.paths.len()),
    );
    let base = &rungs[0];
    let per_pass: Vec<String> = segments[0]
        .iter()
        .map(|s| format!("{:.2}", openloop::window_median(&s.windows).p50))
        .collect();
    out.note(format!(
        "base-rate p50 per pass (us): {}",
        per_pass.join(" ")
    ));
    out.check(
        "the base rate is sustained",
        base.sustained(),
        &format!(
            "p{:.1} {:.1} us",
            base.latency.tail_pct * 100.0,
            base.latency.tail
        ),
    );
    let max_rps = openloop::max_sustained_rps(&rungs);
    out.check(
        "some rung is sustained and the top rung is not",
        max_rps.is_some() && !rungs.last().is_some_and(RungReport::sustained),
        "",
    );
    out.note(format!(
        "base rate {BASE_RATE} req/s: {} samples in {} windows, tail is p{:.1}",
        base.latency.n,
        base.windows,
        base.latency.tail_pct * 100.0
    ));
    out.metric("setup_s", stats::median(&starts));
    out.metric("op_p50_ms", base.latency.p50 / 1e3);
    out.metric("op_tail_ms", base.latency.tail / 1e3);
    out.metric("throughput_per_s", max_rps.unwrap_or(f64::NAN));
    out.metric("peak_rss_mb", peak_rss_mb()?);
    fresh_dir(&dir)?;
    Ok(out)
}

fn serve_open_loop_traced(ctx: &Ctx) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let dir = build_serve_store(ctx)?;
    let mut layers = LayerSamples::default();
    let mut counters = Counters::default();
    let trace = serve_layers(
        ctx,
        &dir,
        ctx.seconds * 0.2,
        &mut out,
        &mut layers,
        &mut counters,
    )?;
    for &count in &trace.alloc_counts {
        counters.push("alloc.count", false, count);
    }
    for name in [
        "sim.events",
        "webmail.logins",
        "monitor.scrapes",
        "store.bytes_written",
    ] {
        counters.push(name, true, 0);
    }
    counters.finish(&mut out);
    layers.finish(&mut out);
    out.layer("alloc.bytes", stats::median(&trace.alloc_bytes));
    out.layer(
        "telemetry.overhead_share",
        trace.traced_p50 / trace.untraced_p50 - 1.0,
    );
    fresh_dir(&dir)?;
    Ok(out)
}

/// What [`serve_layers`] hands back beyond the layer metrics it records.
struct ServeTrace {
    /// Median latency against the traced daemon, µs.
    traced_p50: f64,
    /// Median latency against the untraced daemon, µs.
    untraced_p50: f64,
    /// Allocations during each untraced segment.
    alloc_counts: Vec<u64>,
    /// Bytes allocated during each untraced segment.
    alloc_bytes: Vec<f64>,
}

/// The serving layers over the store at `dir`: verify, scan and index
/// build; direct handler calls on the query mix; and, twice, one base-rate
/// segment of `secs` against a traced daemon and one against an untraced
/// daemon (allocation-counted), each repetition on its own CPU as in
/// `serve_open_loop`.
fn serve_layers(
    ctx: &Ctx,
    dir: &Path,
    secs: f64,
    out: &mut Outcome,
    layers: &mut LayerSamples,
    counters: &mut Counters,
) -> io::Result<ServeTrace> {
    for _ in 0..3 {
        let verify_ms = store_read_layers(dir, layers)?;
        let t = Instant::now();
        black_box(QueryIndex::from_store(dir)?);
        layers.push("serve.index_build_ms", ms(t.elapsed()) - verify_ms);
    }

    let (_, index, server) = start_daemon(ctx, dir, TelemetrySink::disabled())?;
    server.shutdown();
    let d = daemon(index)?;
    let mut by_endpoint: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut all_handle = Vec::new();
    for p in &d.paths {
        for _ in 0..50 {
            let t = Instant::now();
            let (endpoint, body) = direct_call(&d.index, p).expect("mix path");
            black_box(body);
            let us = t.elapsed().as_secs_f64() * 1e6;
            by_endpoint.entry(endpoint).or_default().push(us);
            all_handle.push(us);
        }
    }
    for (endpoint, xs) in &by_endpoint {
        let name = match *endpoint {
            "stats" => "serve.handle_us.stats",
            "outlets" => "serve.handle_us.outlets",
            "timeline" => "serve.handle_us.timeline",
            "accesses" => "serve.handle_us.accesses",
            "range" => "serve.handle_us.range",
            _ => continue,
        };
        layers.push(name, stats::median(xs));
    }

    let secs = secs.max(0.5);
    let (mut traced_p50, mut untraced_p50) = (Vec::new(), Vec::new());
    let (mut alloc_counts, mut alloc_bytes) = (Vec::new(), Vec::new());
    let failed_before = out.failed;
    for rep in 0..2 {
        let _pin = affinity::OneCpu::pin(rep);
        let sink = TelemetrySink::enabled();
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::clone(&d.index),
            serve_options(ctx, sink.clone()),
        )?;
        let r = RungReport::combine(&[segment(&d, &server, BASE_RATE, secs, ctx.seed)?]);
        server.shutdown();
        out.note(format!("traced   {}", rung_line(&r)));
        out.attempted += r.sent;
        out.failed += r.failed;
        traced_p50.push(r.latency.p50);
        let rep = sink.report();
        counters.push(
            "serve.requests",
            false,
            rep.metrics.counter("serve.requests"),
        );
        for (endpoint, label) in [
            ("serve.latency_us.healthz", "/v1/healthz"),
            ("serve.latency_us.stats", "/v1/stats"),
            ("serve.latency_us.outlets", "/v1/outlets"),
            ("serve.latency_us.timeline", "/v1/account/{id}/timeline"),
            ("serve.latency_us.accesses", "/v1/account/{id}/accesses"),
            ("serve.latency_us.range", "/v1/range/{prefix}"),
        ] {
            let h = rep
                .metrics
                .histograms
                .get(&format!("serve.latency_us{{{label}}}"));
            layers.push(endpoint, h.map_or(0.0, |h| h.summary().mean));
        }
        layers.push(
            "serve.transport_us",
            r.latency.p50 - stats::median(&all_handle),
        );
        layers.push("serve.response_bytes", r.body_bytes as f64);
        layers.push("loadgen.late_p99_us", r.late_p99_us);
        layers.push("loadgen.backlog_max", r.backlog_max as f64);

        let server = Server::bind(
            "127.0.0.1:0",
            Arc::clone(&d.index),
            serve_options(ctx, TelemetrySink::disabled()),
        )?;
        let (r, count, bytes) = alloc::counted(|| segment(&d, &server, BASE_RATE, secs, ctx.seed));
        let r = RungReport::combine(&[r?]);
        server.shutdown();
        out.note(format!("untraced {}", rung_line(&r)));
        out.attempted += r.sent;
        out.failed += r.failed;
        untraced_p50.push(r.latency.p50);
        alloc_counts.push(count);
        alloc_bytes.push(bytes as f64);
    }
    out.check(
        "every response is 200 and byte-equal to the direct QueryIndex call",
        out.failed == failed_before,
        &format!("{} paths in the mix", d.paths.len()),
    );
    Ok(ServeTrace {
        traced_p50: stats::median(&traced_p50),
        untraced_p50: stats::median(&untraced_p50),
        alloc_counts,
        alloc_bytes,
    })
}
