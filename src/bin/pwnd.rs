//! `pwnd` — command-line front end for the honey-account testbed.
//!
//! ```text
//! pwnd run     [--seed N] [--quick] [--filter-on] [--decoys] [--profile] [--faults NAME]
//! pwnd trace   [--seed N] [--quick] [--trace-out FILE] [--filter SUBSTR] [--limit N]
//! pwnd profile [--seed N] [--quick] [--collapsed FILE] [--input FILE] [--limit N]
//! pwnd export  [--seed N] [--out FILE]
//! pwnd sweep   [--seeds N] [--seed BASE] [--jobs N] [--profile]
//! pwnd chaos   [--seed N] [--quick] [--faults NAME] [--jobs N] [--profile]
//! pwnd fleet   [--accounts N] [--jobs N] [--seed N] [--out FILE] [--out-dir DIR]
//!              [--telemetry-out FILE] [--profile]
//! pwnd report  --input PATH
//! pwnd serve   --input DIR [--addr HOST:PORT] [--jobs N] [--rate N] [--profile]
//! pwnd serve   --print-routes
//! pwnd leaks   [--seed N]
//! pwnd truth   [--seed N]
//! ```

use pwnd::analysis::tables::overview;
use pwnd::cli::{self, Args, Invocation};
use pwnd::core::fleet::{run_fleet, FleetConfig};
use pwnd::telemetry::{Table, TelemetryReport, TelemetrySink};
use pwnd::{Experiment, ExperimentConfig, FaultProfile, RunOutput, Runner};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::ExitCode;
use std::sync::{Arc, PoisonError};

fn config_of(a: &Args) -> ExperimentConfig {
    let mut cfg = if a.quick {
        ExperimentConfig::quick(a.seed)
    } else {
        ExperimentConfig::paper(a.seed)
    };
    cfg.login_filter_enabled = a.filter_on;
    cfg.seed_decoys = a.decoys;
    if let Some(p) = &a.faults {
        cfg.faults.profile = p.clone();
        // A faulted run gets the resilient defaults: confirmed
        // classification so flakes cannot mislabel an account.
        cfg.faults.confirm_failures = 3;
    }
    cfg
}

/// Run the experiment the flags describe, recording telemetry when
/// `traced`.
fn experiment(args: &Args, traced: bool) -> RunOutput {
    let sink = if traced {
        TelemetrySink::enabled()
    } else {
        TelemetrySink::disabled()
    };
    Experiment::new(config_of(args)).with_telemetry(sink).run()
}

/// `pwnd trace`: stream the run's trace events as JSONL lines to stdout
/// or `--trace-out` as the run records them; no event is held unless
/// `--limit` asks for a tail.
fn trace(args: &Args) -> Result<(), String> {
    let name = args.trace_out.as_deref().unwrap_or("stdout");
    let out: Box<dyn Write + Send> = match &args.trace_out {
        Some(path) => {
            Box::new(File::create(path).map_err(|e| format!("cannot write {path}: {e}"))?)
        }
        None => Box::new(std::io::stdout()),
    };
    let writer = cli::TraceWriter::new(BufWriter::new(out), args.filter.clone(), args.limit);
    // lint:allow(lock-discipline): the sink's consumer and this command share the writer; one thread records and then finishes it, so the lock orders nothing
    let writer = Arc::new(std::sync::Mutex::new(writer));
    let consumer = Arc::clone(&writer);
    let sink = TelemetrySink::with_trace(move |e| {
        let mut consumer = consumer.lock().unwrap_or_else(PoisonError::into_inner);
        consumer.push(e);
    });
    let report = Experiment::new(config_of(args))
        .with_telemetry(sink)
        .run()
        .telemetry_report();
    let kept = (writer.lock().unwrap_or_else(PoisonError::into_inner))
        .finish()
        .map_err(|e| format!("cannot write {name}: {e}"))?;
    if args.trace_out.is_some() {
        eprintln!(
            "wrote {name} ({kept} events kept of {})",
            report.trace_events
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = cli::parse(&argv).and_then(|invocation| match invocation {
        Invocation::Help => {
            println!("{}", cli::USAGE);
            Ok(())
        }
        Invocation::Command(command, args) => run(&command, &args),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

/// Run one parsed command; an `Err` is what `main` prints before exiting 1.
fn run(command: &str, args: &Args) -> Result<(), String> {
    match command {
        "run" => {
            let out = experiment(args, args.profile);
            println!("{}", out.analysis().render());
            if args.profile {
                println!("{}", out.telemetry_report().render());
                print_peak_rss();
            }
        }
        "trace" => trace(args)?,
        "profile" => {
            // Where the wall time went, by span path: online (an instrumented
            // run) or offline (a fleet's streamed --telemetry-out JSONL).
            let report = match &args.input {
                Some(path) => {
                    let file = std::fs::File::open(path)
                        .map_err(|e| format!("cannot read {path}: {e}"))?;
                    let reader = std::io::BufReader::new(file);
                    TelemetryReport {
                        spans: cli::merge_telemetry_jsonl(path, reader)?,
                        ..TelemetryReport::default()
                    }
                }
                None => experiment(args, true).telemetry_report(),
            };
            print!("{}", cli::profile_report(&report, args.limit));
            if let Some(path) = &args.collapsed {
                let stacks = report.spans.collapsed();
                std::fs::write(path, &stacks).map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!("wrote {path} ({} stacks)", stacks.lines().count());
            }
        }
        "export" => {
            let path = args.out.as_deref().unwrap_or("dataset.json");
            let out = experiment(args, false);
            let json = out.dataset_json();
            std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!(
                "wrote {path} ({} accesses, {} KiB)",
                out.dataset.accesses.len(),
                json.len() / 1024
            );
        }
        "sweep" => {
            // The batch is built up front and comes back in submission order,
            // so output is byte-identical for any --jobs (tests/parallel_runner.rs).
            let configs = cli::sweep_configs(&config_of(args), args.seeds);
            // Each run is reduced to its overview in the worker, so memory
            // does not grow with --seeds.
            let batch = Runner::new(args.jobs)
                .with_telemetry(args.profile)
                .run_map(configs, |_, out| overview(&out.dataset));
            print!("{}", cli::sweep_table(&batch.outputs, args.seed));
            println!(
                "paper: 326 accesses, 147 opened, 845 sent, 42 blocked, 36 hijacked, 90 accounts"
            );
            if args.profile {
                println!("{}", cli::batch_profile_report(&batch));
                print_peak_rss();
            }
        }
        "chaos" => {
            // Ablation: scale one fault profile's rates and chart how much of
            // the observation the pipeline loses. Deterministic for a seed.
            let base = args.faults.clone().unwrap_or_else(FaultProfile::heavy);
            let configs = cli::chaos_configs(&config_of(args), &base);
            let batch = Runner::new(args.jobs)
                .with_telemetry(args.profile)
                .run_map(configs, |_, out| cli::ChaosRow::of(&out));
            print!("{}", cli::chaos_table(&batch.outputs));
            println!("factor 0.00 injects nothing; rates scale linearly up to the profile's own.");
            if args.profile {
                println!("{}", cli::batch_profile_report(&batch));
                print_peak_rss();
            }
        }
        "fleet" => fleet(args)?,
        "report" => {
            // §4.1 overview in one pass, one record line in memory: a store
            // streams shard by shard, a JSONL file line by line.
            let input = args.input.as_deref().ok_or(
                "pwnd report: --input PATH is required \
                 (a fleet store directory or a JSONL dataset file)",
            )?;
            let path = std::path::Path::new(input);
            let ov = if path.is_dir() {
                pwnd::store::store_overview(path)
            } else {
                pwnd::store::jsonl_overview(path)
            };
            let ov = ov.map_err(|e| format!("pwnd report: {e}"))?;
            print!("{}", cli::overview_table(&ov));
        }
        "serve" => serve(args)?,
        "leaks" => {
            let out = experiment(args, false);
            println!("acct  outlet   site                     day        content");
            for l in &out.leaks {
                println!(
                    "{:<5} {:<8} {:<24} {:<10.1} {}",
                    l.account,
                    l.kind.label(),
                    l.site,
                    l.at.as_days_f64(),
                    l.content.render()
                );
            }
        }
        "truth" => {
            let out = experiment(args, false);
            let gt = &out.ground_truth;
            let mut table = Table::new(&["ground truth", "value"]).numeric();
            table.row(["attempted accesses", &gt.attempted_accesses.to_string()]);
            table.row(["observed accesses", &out.dataset.accesses.len().to_string()]);
            table.row(["hijacked (truth)", &gt.hijacked_accounts.len().to_string()]);
            table.row(["blocked (truth)", &gt.blocked_accounts.len().to_string()]);
            table.row(["sinkholed messages", &gt.sinkholed_messages.to_string()]);
            table.row(["scripts deleted", &gt.scripts_deleted.len().to_string()]);
            table.row(["quota notices", &gt.quota_notices_delivered.to_string()]);
            table.row(["forum inquiries", &gt.inquiries.len().to_string()]);
            print!("{}", table.render());
            let mut q = gt.searched_queries.clone();
            q.sort_unstable();
            q.dedup();
            println!("distinct queries   : {q:?}");
        }
        _ => unreachable!("cli::parse accepts only cli::COMMANDS"),
    }
    Ok(())
}

/// The `--profile` footer: this process's peak RSS, where the OS
/// reports it (Linux).
fn print_peak_rss() {
    if let Some(line) = cli::peak_rss_line() {
        println!("{line}");
    }
}

/// `pwnd fleet`: one logical experiment sharded over the runner. The
/// merge is deterministic, so summary and exports are byte-identical
/// for any --jobs value (tests/fleet_scale.rs proves it).
fn fleet(args: &Args) -> Result<(), String> {
    let cfg = FleetConfig::new(args.seed, args.accounts, args.jobs).with_telemetry(args.profile);
    let create = |path: &str| {
        std::fs::File::create(path)
            .map(std::io::BufWriter::new)
            .map_err(|e| format!("cannot write {path}: {e}"))
    };
    if let Some(dir) = &args.out_dir {
        // Durable sharded store: verified shards are skipped on re-runs and
        // corrupt ones quarantined and re-run; the merged dataset equals an
        // in-memory fleet's (tests/fleet_store.rs proves it).
        let dir = std::path::Path::new(dir);
        let run =
            pwnd::store::run_fleet_store(&cfg, dir).map_err(|e| format!("pwnd fleet: {e}"))?;
        if run.manifest_recovered {
            eprintln!("quarantined unreadable manifest as manifest.json.corrupt; store rebuilt");
        }
        print!("{}", run.summary_table().render());
        if let Some(path) = &args.out {
            let records = pwnd::store::merge_store_jsonl(dir, create(path)?)
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path} ({records} JSONL records)");
        }
        if args.profile {
            println!("{}", run.telemetry.render());
            print_peak_rss();
        }
        return Ok(());
    }
    // --telemetry-out needs the per-shard span trees, so it turns
    // telemetry on. The file is opened before the run so a bad path
    // fails fast, and written after the join.
    let telemetry_file = match &args.telemetry_out {
        Some(path) => Some((path, create(path)?)),
        None => None,
    };
    let out = run_fleet(&cfg.with_telemetry(args.profile || telemetry_file.is_some()));
    if let Some((path, file)) = telemetry_file {
        let lines = out
            .write_telemetry_jsonl(file)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path} ({lines} report lines)");
    }
    print!("{}", out.summary_table().render());
    if let Some(path) = &args.out {
        let records = out
            .write_jsonl(create(path)?)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path} ({records} JSONL records)");
    }
    if args.profile {
        println!("{}", out.telemetry.render());
        print_peak_rss();
    }
    Ok(())
}

/// `pwnd serve`: the /v1 daemon over a fleet store, until stdin closes.
fn serve(args: &Args) -> Result<(), String> {
    if args.print_routes {
        // The machine-checkable route list: CI diffs this against the
        // endpoints API.md documents.
        for r in pwnd::serve::ROUTES {
            println!("{} {}", r.method, r.pattern);
        }
        return Ok(());
    }
    let input = args
        .input
        .as_deref()
        .ok_or("pwnd serve: --input DIR is required (a fleet store directory)")?;
    let index = pwnd::serve::QueryIndex::from_store(std::path::Path::new(input))
        .map(std::sync::Arc::new)
        .map_err(|e| format!("pwnd serve: {e}"))?;
    let sink = if args.profile {
        TelemetrySink::enabled()
    } else {
        TelemetrySink::disabled()
    };
    // A worker owns its connection for that connection's lifetime, so
    // the pool bounds concurrent clients; floor it at 4 even on small
    // machines.
    let threads = args.jobs.clamp(4, 64);
    let opts = pwnd::serve::ServeOptions {
        threads,
        rate: args.rate.map(pwnd::serve::RateLimit::per_second),
        telemetry: sink.clone(),
    };
    let server = pwnd::serve::Server::bind(&args.addr, index, opts)
        .map_err(|e| format!("pwnd serve: cannot bind {}: {e}", args.addr))?;
    eprintln!(
        "pwnd serve: {input} on http://{}/ ({threads} threads{}); EOF on stdin stops it",
        server.addr(),
        match args.rate {
            Some(n) => format!(", rate limit {n}/s"),
            None => String::new(),
        }
    );
    // Graceful-shutdown trigger without signal handling: the daemon runs
    // until its stdin closes (Ctrl-D interactively, pipe closure under a
    // supervisor, `kill` otherwise).
    let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
    server.shutdown();
    eprintln!("pwnd serve: stopped");
    if args.profile {
        println!("{}", sink.report().render());
        print_peak_rss();
    }
    Ok(())
}
