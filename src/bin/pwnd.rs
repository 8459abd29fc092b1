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
//! pwnd serve-bench --input DIR [--clients N] [--requests N] [--jobs N] [--rate N]
//!              [--min-throughput N] [--json FILE]
//! pwnd leaks   [--seed N]
//! pwnd truth   [--seed N]
//! pwnd lint    [--deny] [--json] [--rule ID]...
//! ```

use pwnd::cli;
use pwnd::core::fleet::{run_fleet, run_fleet_streaming, FleetConfig};
use pwnd::telemetry::{Table, TelemetrySink};
use pwnd::{Experiment, ExperimentConfig, FaultProfile, Runner};
use std::process::ExitCode;

const USAGE: &str = "\
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
  serve-bench  load-generate against an in-process daemon over a fleet store
           and report throughput + latency percentiles
  leaks    the leak plan actually executed
  truth    ground-truth vs observed audit
  lint     run the determinism & invariant linter over the workspace

flags:
  --seed N         RNG seed (default 2016); for sweep, the base seed
  --quick          30-day quick configuration instead of the full paper run
  --filter-on      enable the provider's suspicious-login filter
  --decoys         seed decoy documents into every mailbox
  --faults NAME    fault profile: none | light | heavy (default none);
                   for chaos, the profile whose rates are scaled (default heavy)
  --profile        (run/fleet) print phase timings and the metrics summary;
                   (sweep/chaos) print the runner speedup breakdown too;
                   (serve) print request telemetry on shutdown;
                   (lint) print the lint.findings metrics
  --jobs N         (sweep/chaos/fleet) worker threads (default: all
                   cores); --jobs 1 is the sequential path, output is identical;
                   (serve/serve-bench) HTTP worker threads (floored at 4),
                   which also bound concurrent connections
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
                   (serve/serve-bench) the fleet store directory to serve
  --telemetry-out FILE (fleet) stream one telemetry report line per shard
                   there while the fleet runs (forces telemetry on)
  --seeds N        (sweep) number of seeds (default 8)
  --addr HOST:PORT (serve) listen address (default 127.0.0.1:8080; port 0
                   binds an ephemeral port, printed on startup)
  --rate N         (serve/serve-bench) token-bucket rate limit: N requests/s
                   sustained with an N-request burst; excess gets 429 with
                   Retry-After (default: unlimited)
  --print-routes   (serve) print the registered /v1 routes and exit
  --clients N      (serve-bench) concurrent client connections (default 4)
  --requests N     (serve-bench) total requests across all clients
                   (default 10000)
  --min-throughput N (serve-bench) exit nonzero below N requests/s (the CI
                   floor); 5xx responses always fail the run
  --deny           (lint) exit nonzero when any finding survives suppression
  --rule ID        (lint) check only this rule (repeatable); unknown rule
                   ids are an error, never a silent pass
  --json           (lint) emit the machine-readable report;
                   (serve-bench) takes a FILE argument and writes the
                   JSON report there
  -h, --help       print this help";

struct Args {
    seed: u64,
    quick: bool,
    filter_on: bool,
    decoys: bool,
    profile: bool,
    out: String,
    out_given: bool,
    out_dir: Option<String>,
    accounts: u32,
    trace_out: Option<String>,
    seeds: u64,
    faults: Option<FaultProfile>,
    deny: bool,
    json: bool,
    json_out: Option<String>,
    jobs: usize,
    filter: Option<String>,
    limit: usize,
    collapsed: Option<String>,
    input: Option<String>,
    telemetry_out: Option<String>,
    rules: std::collections::BTreeSet<String>,
    addr: String,
    rate: Option<u32>,
    print_routes: bool,
    clients: usize,
    requests: u64,
    min_throughput: Option<f64>,
}

enum Cli {
    Help,
    Invalid,
    Command(String, Box<Args>),
}

fn parse(mut argv: std::env::Args) -> Cli {
    let _bin = argv.next();
    let Some(command) = argv.next() else {
        return Cli::Invalid;
    };
    if matches!(command.as_str(), "--help" | "-h" | "help") {
        return Cli::Help;
    }
    let mut args = Args {
        seed: 2016,
        quick: false,
        filter_on: false,
        decoys: false,
        profile: false,
        out: "dataset.json".to_string(),
        out_given: false,
        out_dir: None,
        accounts: 1_000,
        trace_out: None,
        seeds: 8,
        faults: None,
        deny: false,
        json: false,
        json_out: None,
        // lint:allow(lock-discipline): one-shot core-count read for a CLI default; no shared state
        jobs: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        filter: None,
        limit: 0,
        collapsed: None,
        input: None,
        telemetry_out: None,
        rules: std::collections::BTreeSet::new(),
        addr: "127.0.0.1:8080".to_string(),
        rate: None,
        print_routes: false,
        clients: 4,
        requests: 10_000,
        min_throughput: None,
    };
    let rest: Vec<String> = argv.collect();
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--help" | "-h" => return Cli::Help,
            "--seed" => {
                let Some(v) = rest.get(i + 1).and_then(|s| s.parse().ok()) else {
                    return Cli::Invalid;
                };
                args.seed = v;
                i += 2;
            }
            "--out" => {
                let Some(v) = rest.get(i + 1) else {
                    return Cli::Invalid;
                };
                args.out = v.clone();
                args.out_given = true;
                i += 2;
            }
            "--out-dir" => {
                let Some(v) = rest.get(i + 1) else {
                    return Cli::Invalid;
                };
                args.out_dir = Some(v.clone());
                i += 2;
            }
            "--accounts" => {
                let Some(v) = rest.get(i + 1).and_then(|s| s.parse().ok()) else {
                    return Cli::Invalid;
                };
                args.accounts = v;
                i += 2;
            }
            "--trace-out" => {
                let Some(v) = rest.get(i + 1) else {
                    return Cli::Invalid;
                };
                args.trace_out = Some(v.clone());
                i += 2;
            }
            "--faults" => {
                let Some(v) = rest.get(i + 1) else {
                    return Cli::Invalid;
                };
                let Some(p) = FaultProfile::by_name(v) else {
                    eprintln!("unknown fault profile: {v} (expected none, light, or heavy)");
                    return Cli::Invalid;
                };
                args.faults = Some(p);
                i += 2;
            }
            "--seeds" => {
                let Some(v) = rest.get(i + 1).and_then(|s| s.parse().ok()) else {
                    return Cli::Invalid;
                };
                args.seeds = v;
                i += 2;
            }
            "--jobs" => {
                let Some(v) = rest.get(i + 1).and_then(|s| s.parse().ok()) else {
                    return Cli::Invalid;
                };
                args.jobs = v;
                i += 2;
            }
            "--filter" => {
                let Some(v) = rest.get(i + 1) else {
                    return Cli::Invalid;
                };
                args.filter = Some(v.clone());
                i += 2;
            }
            "--limit" => {
                let Some(v) = rest.get(i + 1).and_then(|s| s.parse().ok()) else {
                    return Cli::Invalid;
                };
                args.limit = v;
                i += 2;
            }
            "--collapsed" => {
                let Some(v) = rest.get(i + 1) else {
                    return Cli::Invalid;
                };
                args.collapsed = Some(v.clone());
                i += 2;
            }
            "--input" => {
                let Some(v) = rest.get(i + 1) else {
                    return Cli::Invalid;
                };
                args.input = Some(v.clone());
                i += 2;
            }
            "--telemetry-out" => {
                let Some(v) = rest.get(i + 1) else {
                    return Cli::Invalid;
                };
                args.telemetry_out = Some(v.clone());
                i += 2;
            }
            "--addr" => {
                let Some(v) = rest.get(i + 1) else {
                    return Cli::Invalid;
                };
                args.addr = v.clone();
                i += 2;
            }
            "--rate" => {
                let Some(v) = rest.get(i + 1).and_then(|s| s.parse().ok()) else {
                    return Cli::Invalid;
                };
                args.rate = Some(v);
                i += 2;
            }
            "--print-routes" => {
                args.print_routes = true;
                i += 1;
            }
            "--clients" => {
                let Some(v) = rest.get(i + 1).and_then(|s| s.parse().ok()) else {
                    return Cli::Invalid;
                };
                args.clients = v;
                i += 2;
            }
            "--requests" => {
                let Some(v) = rest.get(i + 1).and_then(|s| s.parse().ok()) else {
                    return Cli::Invalid;
                };
                args.requests = v;
                i += 2;
            }
            "--min-throughput" => {
                let Some(v) = rest.get(i + 1).and_then(|s| s.parse().ok()) else {
                    return Cli::Invalid;
                };
                args.min_throughput = Some(v);
                i += 2;
            }
            "--quick" => {
                args.quick = true;
                i += 1;
            }
            "--filter-on" => {
                args.filter_on = true;
                i += 1;
            }
            "--decoys" => {
                args.decoys = true;
                i += 1;
            }
            "--profile" => {
                args.profile = true;
                i += 1;
            }
            "--deny" => {
                args.deny = true;
                i += 1;
            }
            "--rule" => {
                let Some(v) = rest.get(i + 1) else {
                    return Cli::Invalid;
                };
                if !pwnd_lint::rules::is_known_rule(v) {
                    eprintln!(
                        "unknown rule `{v}` (known: {})",
                        pwnd_lint::known_rule_ids()
                    );
                    return Cli::Invalid;
                }
                args.rules.insert(v.clone());
                i += 2;
            }
            "--json" => {
                // For serve-bench, --json names the output file;
                // everywhere else it is a boolean switch.
                if command == "serve-bench" {
                    let Some(v) = rest.get(i + 1) else {
                        return Cli::Invalid;
                    };
                    args.json_out = Some(v.clone());
                    i += 2;
                } else {
                    args.json = true;
                    i += 1;
                }
            }
            other => {
                eprintln!("unknown flag: {other}");
                return Cli::Invalid;
            }
        }
    }
    Cli::Command(command, Box::new(args))
}

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

fn main() -> ExitCode {
    let (command, args) = match parse(std::env::args()) {
        Cli::Help => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Cli::Invalid => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
        Cli::Command(command, args) => (command, args),
    };
    if let Err(msg) = cli::validate_batch_flags(&command, args.jobs, args.accounts) {
        eprintln!("{msg}");
        return ExitCode::FAILURE;
    }
    match command.as_str() {
        "run" => {
            if args.profile {
                let sink = TelemetrySink::enabled();
                let out = Experiment::new(config_of(&args))
                    .with_telemetry(sink.clone())
                    .run();
                println!("{}", out.analysis().render());
                println!("{}", out.telemetry_report().render());
            } else {
                let out = Experiment::new(config_of(&args)).run();
                println!("{}", out.analysis().render());
            }
        }
        "trace" => {
            let sink = TelemetrySink::enabled();
            let out = Experiment::new(config_of(&args))
                .with_telemetry(sink.clone())
                .run();
            let report = out.telemetry_report();
            let jsonl = cli::filtered_trace_jsonl(&report, args.filter.as_deref(), args.limit);
            match &args.trace_out {
                Some(path) => {
                    if std::fs::write(path, &jsonl).is_err() {
                        eprintln!("cannot write {path}");
                        return ExitCode::FAILURE;
                    }
                    eprintln!(
                        "wrote {path} ({} events kept of {} held, {} dropped)",
                        jsonl.lines().count(),
                        report.trace.len(),
                        report.trace_dropped
                    );
                }
                None => print!("{jsonl}"),
            }
        }
        "profile" => {
            // Deep attribution: where did the wall time go, by span
            // path. Online (run an instrumented experiment) or offline
            // (re-merge a fleet's streamed --telemetry-out JSONL).
            let report = match &args.input {
                Some(path) => {
                    let text = match std::fs::read_to_string(path) {
                        Ok(t) => t,
                        Err(_) => {
                            eprintln!("cannot read {path}");
                            return ExitCode::FAILURE;
                        }
                    };
                    match cli::merge_telemetry_jsonl(&text) {
                        Ok(r) => r,
                        Err(e) => {
                            eprintln!("{path}: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                None => {
                    let sink = TelemetrySink::enabled();
                    let _ = Experiment::new(config_of(&args))
                        .with_telemetry(sink.clone())
                        .run();
                    sink.report()
                }
            };
            print!("{}", cli::profile_report(&report, args.limit));
            if let Some(path) = &args.collapsed {
                let stacks = report.spans.collapsed();
                if std::fs::write(path, &stacks).is_err() {
                    eprintln!("cannot write {path}");
                    return ExitCode::FAILURE;
                }
                eprintln!("wrote {path} ({} stacks)", stacks.lines().count());
            }
        }
        "export" => {
            let out = Experiment::new(config_of(&args)).run();
            let json = out.dataset_json();
            if std::fs::write(&args.out, &json).is_err() {
                eprintln!("cannot write {}", args.out);
                return ExitCode::FAILURE;
            }
            eprintln!(
                "wrote {} ({} accesses, {} KiB)",
                args.out,
                out.dataset.accesses.len(),
                json.len() / 1024
            );
        }
        "sweep" => {
            // Configs are built once up front, then the whole batch goes
            // through the parallel runner. Outputs come back in
            // submission order, so this output is byte-identical for any
            // --jobs value (tests/parallel_runner.rs proves it).
            let configs = cli::sweep_configs(&config_of(&args), args.seeds);
            let batch = Runner::new(args.jobs)
                .with_telemetry(args.profile)
                .run_all(configs);
            print!("{}", cli::sweep_table(&batch.outputs, args.seed));
            println!(
                "paper: 326 accesses, 147 opened, 845 sent, 42 blocked, 36 hijacked, 90 accounts"
            );
            if args.profile {
                print!("{}", cli::batch_profile_report(&batch));
            }
        }
        "chaos" => {
            // Ablation: scale one fault profile's rates and chart how much
            // of the observation the pipeline loses. Deterministic for a
            // fixed seed — CI runs it twice and diffs the output.
            let base = args.faults.clone().unwrap_or_else(FaultProfile::heavy);
            let configs = cli::chaos_configs(&config_of(&args), &base);
            let batch = Runner::new(args.jobs)
                .with_telemetry(args.profile)
                .run_all(configs);
            print!("{}", cli::chaos_table(&batch.outputs));
            println!("factor 0.00 injects nothing; rates scale linearly up to the profile's own.");
            if args.profile {
                print!("{}", cli::batch_profile_report(&batch));
            }
        }
        "fleet" => {
            // One logical experiment sharded over the runner; the merge
            // is deterministic, so summary and exports are byte-identical
            // for any --jobs value (tests/fleet_scale.rs proves it).
            let cfg =
                FleetConfig::new(args.seed, args.accounts, args.jobs).with_telemetry(args.profile);
            if let Some(dir) = &args.out_dir {
                // Durable sharded store: verified shards are skipped on
                // re-runs, corrupt ones quarantined and re-run, and the
                // merged dataset stays byte-identical to an in-memory
                // fleet (tests/fleet_store.rs proves it).
                if args.telemetry_out.is_some() {
                    eprintln!("pwnd fleet: --telemetry-out is not supported with --out-dir");
                    return ExitCode::FAILURE;
                }
                let dir = std::path::Path::new(dir);
                let run = match pwnd::store::run_fleet_store(&cfg, dir) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("pwnd fleet: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                if run.manifest_recovered {
                    eprintln!(
                        "quarantined unreadable manifest as manifest.json.corrupt; store rebuilt"
                    );
                }
                print!("{}", run.summary_table().render());
                if args.out_given {
                    let file = match std::fs::File::create(&args.out) {
                        Ok(f) => f,
                        Err(_) => {
                            eprintln!("cannot write {}", args.out);
                            return ExitCode::FAILURE;
                        }
                    };
                    match pwnd::store::merge_store_jsonl(dir, std::io::BufWriter::new(file)) {
                        Ok(records) => eprintln!("wrote {} ({records} JSONL records)", args.out),
                        Err(e) => {
                            eprintln!("cannot write {}: {e}", args.out);
                            return ExitCode::FAILURE;
                        }
                    }
                }
                if args.profile {
                    println!("{}", run.telemetry.render());
                }
                return ExitCode::SUCCESS;
            }
            let out = match &args.telemetry_out {
                Some(path) => {
                    // Stream one telemetry report line per shard while
                    // the fleet runs; telemetry is forced on. Memory
                    // stays O(jobs) buffered lines whatever --accounts.
                    let file = match std::fs::File::create(path) {
                        Ok(f) => f,
                        Err(_) => {
                            eprintln!("cannot write {path}");
                            return ExitCode::FAILURE;
                        }
                    };
                    match run_fleet_streaming(&cfg, std::io::BufWriter::new(file)) {
                        Ok(out) => {
                            eprintln!("wrote {path} ({} report lines)", out.shards);
                            out
                        }
                        Err(_) => {
                            eprintln!("cannot write {path}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                None => run_fleet(&cfg),
            };
            print!("{}", out.summary_table().render());
            if args.out_given {
                let file = match std::fs::File::create(&args.out) {
                    Ok(f) => f,
                    Err(_) => {
                        eprintln!("cannot write {}", args.out);
                        return ExitCode::FAILURE;
                    }
                };
                match out.write_jsonl(std::io::BufWriter::new(file)) {
                    Ok(records) => eprintln!("wrote {} ({records} JSONL records)", args.out),
                    Err(_) => {
                        eprintln!("cannot write {}", args.out);
                        return ExitCode::FAILURE;
                    }
                }
            }
            if args.profile {
                println!("{}", out.telemetry.render());
            }
        }
        "report" => {
            // §4.1 overview over an exported dataset without loading it
            // whole: a fleet store directory streams shard by shard; a
            // JSONL file is verified complete before it is summarised.
            let Some(input) = &args.input else {
                eprintln!(
                    "pwnd report: --input PATH is required \
                     (a fleet store directory or a JSONL dataset file)"
                );
                return ExitCode::FAILURE;
            };
            let path = std::path::Path::new(input);
            let ov = if path.is_dir() {
                match pwnd::store::store_overview(path) {
                    Ok(o) => o,
                    Err(e) => {
                        eprintln!("pwnd report: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                let text = match std::fs::read_to_string(path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("pwnd report: cannot read {input}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let read = match pwnd::monitor::export::read_jsonl(&text) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("pwnd report: {input}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                if let Some(t) = &read.truncated {
                    eprintln!(
                        "pwnd report: {input}: truncated write — line {} is a partial \
                         record ({} bytes); re-export the dataset",
                        t.line, t.bytes
                    );
                    return ExitCode::FAILURE;
                }
                pwnd::analysis::tables::overview(&read.dataset)
            };
            print!("{}", cli::overview_table(&ov));
        }
        "serve" => {
            if args.print_routes {
                // The machine-checkable route list: CI diffs this
                // against the endpoints API.md documents.
                for r in pwnd::serve::ROUTES {
                    println!("{} {}", r.method, r.pattern);
                }
                return ExitCode::SUCCESS;
            }
            let Some(input) = &args.input else {
                eprintln!("pwnd serve: --input DIR is required (a fleet store directory)");
                return ExitCode::FAILURE;
            };
            let index = match pwnd::serve::QueryIndex::from_store(std::path::Path::new(input)) {
                Ok(idx) => std::sync::Arc::new(idx),
                Err(e) => {
                    eprintln!("pwnd serve: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let sink = if args.profile {
                TelemetrySink::enabled()
            } else {
                TelemetrySink::disabled()
            };
            // A worker owns its connection for that connection's
            // lifetime, so the pool bounds concurrent clients; floor it
            // at 4 even on small machines.
            let threads = args.jobs.clamp(4, 64);
            let opts = pwnd::serve::ServeOptions {
                threads,
                rate: args.rate.map(pwnd::serve::RateLimit::per_second),
                telemetry: sink.clone(),
            };
            let server = match pwnd::serve::Server::bind(&args.addr, index, opts) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("pwnd serve: cannot bind {}: {e}", args.addr);
                    return ExitCode::FAILURE;
                }
            };
            eprintln!(
                "pwnd serve: {} on http://{}/ ({threads} threads{}); EOF on stdin stops it",
                input,
                server.addr(),
                match args.rate {
                    Some(n) => format!(", rate limit {n}/s"),
                    None => String::new(),
                }
            );
            // Graceful-shutdown trigger without signal handling: the
            // daemon runs until its stdin closes (Ctrl-D interactively,
            // pipe closure under a supervisor, `kill` otherwise).
            let mut sink_hole = String::new();
            loop {
                sink_hole.clear();
                match std::io::Read::read_to_string(&mut std::io::stdin(), &mut sink_hole) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
            }
            server.shutdown();
            eprintln!("pwnd serve: stopped");
            if args.profile {
                println!("{}", sink.report().render());
            }
        }
        "serve-bench" => {
            // Hammer an in-process daemon over the store and report
            // throughput + latency percentiles (the BENCH trajectory's
            // serving numbers).
            let Some(input) = &args.input else {
                eprintln!("pwnd serve-bench: --input DIR is required (a fleet store directory)");
                return ExitCode::FAILURE;
            };
            let index = match pwnd::serve::QueryIndex::from_store(std::path::Path::new(input)) {
                Ok(idx) => std::sync::Arc::new(idx),
                Err(e) => {
                    eprintln!("pwnd serve-bench: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let opts = pwnd::serve::ServeOptions {
                // Every closed-loop client pins a worker for the whole
                // run, so the pool must cover them all.
                threads: args.jobs.clamp(4, 64).max(args.clients),
                rate: args.rate.map(pwnd::serve::RateLimit::per_second),
                telemetry: TelemetrySink::disabled(),
            };
            let server = match pwnd::serve::Server::bind("127.0.0.1:0", index.clone(), opts) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("pwnd serve-bench: cannot bind: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mix = pwnd::serve::loadgen::query_mix(&index, 16);
            let result = pwnd::serve::loadgen::run(
                server.addr(),
                &mix,
                &pwnd::serve::LoadgenOptions {
                    clients: args.clients,
                    requests: args.requests,
                },
            );
            server.shutdown();
            let report = match result {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("pwnd serve-bench: {e}");
                    return ExitCode::FAILURE;
                }
            };
            print!("{}", report.table().render());
            if let Some(path) = &args.json_out {
                if std::fs::write(path, report.to_json()).is_err() {
                    eprintln!("cannot write {path}");
                    return ExitCode::FAILURE;
                }
                eprintln!("wrote {path}");
            }
            if report.server_errors > 0 {
                eprintln!(
                    "pwnd serve-bench: {} server error(s) (5xx) — failing",
                    report.server_errors
                );
                return ExitCode::FAILURE;
            }
            if let Some(floor) = args.min_throughput {
                if report.throughput_rps < floor {
                    eprintln!(
                        "pwnd serve-bench: throughput {:.0} req/s is below the {floor:.0} req/s floor",
                        report.throughput_rps
                    );
                    return ExitCode::FAILURE;
                }
                eprintln!(
                    "pwnd serve-bench: {:.0} req/s clears the {floor:.0} req/s floor",
                    report.throughput_rps
                );
            }
        }
        "leaks" => {
            let out = Experiment::new(config_of(&args)).run();
            println!(
                "{:<5} {:<8} {:<24} {:<10} content",
                "acct", "outlet", "site", "day"
            );
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
            let out = Experiment::new(config_of(&args)).run();
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
        "lint" => {
            let root = match std::env::current_dir()
                .ok()
                .and_then(|d| pwnd_lint::find_workspace_root(&d))
            {
                Some(r) => r,
                None => {
                    eprintln!("pwnd lint: no workspace root found above the current directory");
                    return ExitCode::FAILURE;
                }
            };
            let only = (!args.rules.is_empty()).then_some(&args.rules);
            let report = match pwnd_lint::lint_workspace(&root, only) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("pwnd lint: scan failed under {}: {e}", root.display());
                    return ExitCode::FAILURE;
                }
            };
            let sink = TelemetrySink::enabled();
            for (rule, n) in report.counts_by_rule() {
                for _ in 0..n {
                    sink.count_labeled("lint.findings", &rule);
                }
            }
            if args.json {
                print!("{}", report.render_json());
            } else {
                print!("{}", report.render());
            }
            if args.profile {
                println!("{}", sink.report().render());
            }
            if args.deny && !report.findings.is_empty() {
                return ExitCode::FAILURE;
            }
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
