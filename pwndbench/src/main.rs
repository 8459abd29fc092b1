//! pwndbench — the repository's benchmark.
//!
//! ```text
//! pwndbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//! pwndbench compare [--force] BASE_FILE... --vs NEW_FILE...
//! ```
//!
//! Run it from the repository root, e.g.
//! `cargo run --release --manifest-path pwndbench/Cargo.toml -- --workload all`.
//! Each workload prints a human-readable report, a metadata line and, last,
//! one JSON result line with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics untraced, the per-layer metrics with
//! `--trace 1`. `--workload all` runs each workload in its own process
//! (so peak memory is per workload) and prints every metric. See
//! `pwndbench/README.md` for the workloads and metrics.

mod affinity;
mod alloc;
mod compare;
mod openloop;
mod report;
mod stats;
mod workloads;

use pwnd::telemetry::json::Json;
use report::Outcome;
use std::io::{self, Write};
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;
use workloads::{Ctx, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

const USAGE: &str = "usage: pwndbench [--workload paper_run|fleet_store|serve_open_loop|all] \
[--seed N] [--seconds S] [--trace 0|1]\n       \
pwndbench compare [--force] BASE_FILE... --vs NEW_FILE...";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: "all".to_string(),
        seed: 2016,
        seconds: 10.0,
        traced: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    Ok(a)
}

/// Removes the run's work directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Runner workers and store-building jobs: every CPU, as `pwnd` uses by
/// default.
fn jobs() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn print_outcome(name: &str, a: &Args, out: &Outcome, selected: &[(report::MetricSpec, f64)]) {
    println!(
        "pwndbench {name}: seed {} · {} s · trace {} · {} jobs",
        a.seed,
        a.seconds,
        u8::from(a.traced),
        jobs()
    );
    for (check, passed, detail) in &out.checks {
        println!(
            "  check {:<4} {check} {detail}",
            if *passed { "ok" } else { "FAIL" }
        );
    }
    for line in &out.notes {
        println!("  {line}");
    }
    println!(
        "  attempted {} · failed {} · error_share {}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for (spec, v) in selected {
        println!("  {:<30} {:>18.6} {}", spec.name, v, spec.unit);
    }
}

/// Run one workload in this process and print its report and result.
fn run_one(a: &Args) -> io::Result<bool> {
    let meta = report::meta(&a.workload, a.seed, a.seconds, a.traced, jobs()).compact();
    let work = WorkDir(PathBuf::from(".pwndbench-work").join(std::process::id().to_string()));
    std::fs::create_dir_all(&work.0)?;
    let ctx = Ctx {
        seed: a.seed,
        seconds: a.seconds,
        jobs: jobs(),
        work: work.0.clone(),
    };
    let mut out = workloads::run(&a.workload, a.traced, &ctx)?;
    drop(work);
    let spec = report::spec();
    let selected = out.select(&spec, a.traced);
    print_outcome(&a.workload, a, &out, &selected);
    let correct = out.correct();
    let metrics: Vec<(String, f64, String)> = selected
        .into_iter()
        .map(|(s, v)| (s.name, v, s.unit))
        .collect();
    let result = report::result_line(correct, out.attempted.max(1), out.failed, &metrics);
    println!("{meta}");
    println!("{result}");
    io::stdout().flush()?;
    Ok(correct)
}

/// Run every workload, each in a child process, and print every metric
/// by name and unit, then one combined result line.
fn run_all(a: &Args) -> io::Result<bool> {
    let exe = std::env::current_exe()?;
    let mut summary = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut combined: Vec<(String, f64, String)> = Vec::new();
    for w in WORKLOADS {
        let o = Command::new(&exe)
            .args([
                "--workload",
                w,
                "--seed",
                &a.seed.to_string(),
                "--seconds",
                &a.seconds.to_string(),
                "--trace",
                if a.traced { "1" } else { "0" },
            ])
            .output()?;
        let text = String::from_utf8_lossy(&o.stdout).into_owned();
        print!("{text}");
        io::stderr().write_all(&o.stderr)?;
        let result = text.lines().last().and_then(|l| Json::parse(l).ok());
        let Some(result) = result.filter(|r| r.get("metrics").is_some()) else {
            println!(
                "pwndbench: workload {w} produced no result (exit {:?})",
                o.status.code()
            );
            correct = false;
            continue;
        };
        correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
        attempted += result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += result.get("failed").and_then(Json::as_u64).unwrap_or(0);
        if let Some(Json::Obj(metrics)) = result.get("metrics") {
            for (name, m) in metrics {
                let v = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                summary.push(format!("{w:<16} {name:<30} {v:>18.6} {unit}"));
                combined.push((format!("{w}.{name}"), v, unit));
            }
        }
    }
    println!(
        "\nall workloads ({})",
        if a.traced { "traced" } else { "end to end" }
    );
    for line in summary {
        println!("  {line}");
    }
    println!(
        "{}",
        report::result_line(correct, attempted.max(1), failed, &combined)
    );
    Ok(correct)
}

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        std::process::exit(compare::main(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("--cold-run") {
        // Internal: one paper run in a fresh process, for paper_run's
        // set-up time.
        let seed = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(2016);
        println!("{}", workloads::cold_paper_run(seed, started));
        return;
    }
    if args.first().map(String::as_str) == Some("--build-store") {
        // Internal: build serve_open_loop's store in its own process.
        let dir = args.get(1).map(PathBuf::from).unwrap_or_default();
        let seed = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(2016);
        if let Err(e) = workloads::build_store(seed, jobs(), &dir) {
            eprintln!("pwndbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    if args.iter().any(|a| a == "-h" || a == "--help") {
        println!("{USAGE}");
        return;
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pwndbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = if a.workload == "all" {
        run_all(&a)
    } else {
        run_one(&a)
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("pwndbench: {e}");
            std::process::exit(1);
        }
    }
}
