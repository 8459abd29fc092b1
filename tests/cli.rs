//! The `pwnd` command line: `cli::parse` on arbitrary argument vectors,
//! and the exit codes and streams of the built binary.

use proptest::prelude::*;
use pwnd::cli::{
    merge_telemetry_jsonl, parse, Args, Invocation, COMMANDS, MAX_JOBS, MAX_SEEDS, USAGE,
};
use pwnd::FaultProfile;
use std::process::{Command, Output};

const NUMBER_FLAGS: [&str; 6] = [
    "--seed",
    "--jobs",
    "--accounts",
    "--seeds",
    "--limit",
    "--rate",
];
const TEXT_FLAGS: [&str; 9] = [
    "--out",
    "--out-dir",
    "--trace-out",
    "--filter",
    "--collapsed",
    "--input",
    "--telemetry-out",
    "--addr",
    "--faults",
];
const SWITCHES: [&str; 5] = [
    "--quick",
    "--filter-on",
    "--decoys",
    "--profile",
    "--print-routes",
];

fn pick(list: &'static [&'static str]) -> impl Strategy<Value = String> {
    (0..list.len()).prop_map(move |i| list[i].to_string())
}

/// A word a user might type: a command, a flag, a number, or garbage.
fn word() -> impl Strategy<Value = String> {
    prop_oneof![
        pick(&COMMANDS),
        pick(&NUMBER_FLAGS),
        pick(&TEXT_FLAGS),
        pick(&SWITCHES),
        pick(&["--help", "-h", "help", "--", "-", "", "lint", "--deny", "--rule"]),
        any::<u64>().prop_map(|n| n.to_string()),
        "[0-9]{1,25}",
        ".{0,12}",
    ]
}

/// A value no numeric flag accepts, not even as a float (`inf`, `nan`).
fn non_number() -> impl Strategy<Value = String> {
    prop_oneof![
        "x[a-z!@ ]{0,6}",
        "[0-9]{1,4}[g-z]{1,2}",
        "-[a-z]{1,4}",
        Just(String::new())
    ]
}

/// Apply one valid `flag value` pair to the expected arguments, and
/// return the value as typed.
fn set(a: &mut Args, flag: &str, n: u64) -> String {
    // In range for every numeric flag but --seed, which takes any u64.
    let small = n % 256 + 1;
    let text = format!("v{n}");
    match flag {
        "--seed" => a.seed = n,
        "--jobs" => a.jobs = small as usize,
        "--accounts" => a.accounts = small as u32,
        "--seeds" => a.seeds = small,
        "--limit" => a.limit = small as usize,
        "--rate" => a.rate = Some(small as u32),
        "--out" => a.out = Some(text.clone()),
        "--out-dir" => a.out_dir = Some(text.clone()),
        "--trace-out" => a.trace_out = Some(text.clone()),
        "--filter" => a.filter = Some(text.clone()),
        "--collapsed" => a.collapsed = Some(text.clone()),
        "--input" => a.input = Some(text.clone()),
        "--telemetry-out" => a.telemetry_out = Some(text.clone()),
        "--addr" => a.addr = text.clone(),
        "--faults" => {
            let name = ["none", "light", "heavy"][n as usize % 3];
            a.faults = FaultProfile::by_name(name);
            return name.to_string();
        }
        _ => unreachable!("{flag} takes no value"),
    }
    match flag {
        "--seed" => n.to_string(),
        f if NUMBER_FLAGS.contains(&f) => small.to_string(),
        _ => text,
    }
}

fn first_line(err: &str) -> &str {
    err.lines().next().unwrap_or_default()
}

proptest! {
    #[test]
    fn parse_never_panics_and_checks_what_it_accepts(
        words in proptest::collection::vec(word(), 0..10),
    ) {
        match parse(&words) {
            Ok(Invocation::Help) => {
                prop_assert!(words.iter().any(|w| ["--help", "-h", "help"].contains(&w.as_str())));
            }
            Ok(Invocation::Command(command, a)) => {
                prop_assert!(COMMANDS.contains(&command.as_str()), "{command}");
                if command == "sweep" {
                    prop_assert!((1..=MAX_SEEDS).contains(&a.seeds));
                }
                if ["fleet", "sweep", "chaos", "serve"].contains(&command.as_str()) {
                    prop_assert!((1..=MAX_JOBS).contains(&a.jobs));
                }
            }
            Err(msg) => prop_assert!(!msg.is_empty()),
        }
    }

    #[test]
    fn a_flag_cut_off_before_its_value_is_named(
        command in pick(&COMMANDS),
        switches in proptest::collection::vec(pick(&SWITCHES), 0..3),
        flag in prop_oneof![pick(&NUMBER_FLAGS), pick(&TEXT_FLAGS)],
    ) {
        let mut argv = vec![command];
        argv.extend(switches);
        argv.push(flag.clone());
        let err = parse(&argv).unwrap_err();
        prop_assert_eq!(first_line(&err), format!("{flag} needs a value"));
        prop_assert!(err.ends_with(USAGE));
    }

    #[test]
    fn a_non_number_for_a_numeric_flag_is_named(
        command in pick(&COMMANDS),
        flag in pick(&NUMBER_FLAGS),
        value in non_number(),
    ) {
        let err = parse(&[command, flag.clone(), value]).unwrap_err();
        prop_assert!(first_line(&err).starts_with(&format!("{flag} needs a number")), "{err}");
        prop_assert!(err.ends_with(USAGE));
    }

    #[test]
    fn the_last_value_given_for_each_flag_wins(
        command in pick(&COMMANDS),
        pairs in proptest::collection::vec(
            (prop_oneof![pick(&NUMBER_FLAGS), pick(&TEXT_FLAGS)], any::<u64>()),
            1..12,
        ),
        switches in proptest::collection::vec(pick(&SWITCHES), 0..3),
    ) {
        last_value_wins(command, &pairs, &switches)?;
    }
}

/// Pieces of `--telemetry-out` lines: fragments of well-formed span
/// lines, JSON structure, line breaks and a byte that is not UTF-8, so
/// random input reaches past the line reader and the JSON parser into
/// the span decoder.
const TELEMETRY_PIECES: [&[u8]; 11] = [
    br#"{"schema":"pwnd-telemetry/1","spans":["#,
    br#"{"path":"event-loop","total_ns":1500,"count":1}"#,
    br#"{"path":"event-loop;scrape","total_ns":7,"count":2,"sim_min":1,"sim_max":9}"#,
    br#""counters":{"runs":4},"trace":[{"t_secs":5,"kind":"login"}],"#,
    b"]}",
    b",",
    b"\n",
    b"\r\n",
    b"{",
    b"\"",
    b"\xff",
];

proptest! {
    /// `profile --input`'s reader gives a span tree or an error naming
    /// the file for any bytes, and never panics.
    #[test]
    fn telemetry_reader_survives_garbage(
        pieces in proptest::collection::vec((0usize..12, any::<u8>()), 0..40),
    ) {
        let mut input = Vec::new();
        for (piece, byte) in pieces {
            match TELEMETRY_PIECES.get(piece) {
                Some(bytes) => input.extend_from_slice(bytes),
                None => input.push(byte),
            }
        }
        match merge_telemetry_jsonl("in", &input[..]) {
            Ok(spans) => {
                let text = std::str::from_utf8(&input);
                prop_assert!(text.is_ok());
                prop_assert!(text.unwrap_or_default().lines().any(|l| !l.trim().is_empty()));
                let paths: Vec<&str> = spans.nodes.iter().map(|n| n.path.as_str()).collect();
                prop_assert!(paths.windows(2).all(|w| w[0] < w[1]), "{:?}", paths);
            }
            Err(msg) => prop_assert!(msg.starts_with("in: "), "{}", msg),
        }
    }
}

/// `parse` keeps the last value of each flag in `pairs` and sets every
/// switch. The one combination it refuses for in-range values is
/// `fleet` given both `--out-dir` and `--telemetry-out`.
fn last_value_wins(
    command: String,
    pairs: &[(String, u64)],
    switches: &[String],
) -> Result<(), TestCaseError> {
    let mut expected = Args::default();
    let mut argv = vec![command.clone()];
    for (flag, n) in pairs {
        let value = set(&mut expected, flag, *n);
        argv.extend([flag.clone(), value]);
    }
    for s in switches {
        match s.as_str() {
            "--quick" => expected.quick = true,
            "--filter-on" => expected.filter_on = true,
            "--decoys" => expected.decoys = true,
            "--profile" => expected.profile = true,
            _ => expected.print_routes = true,
        }
        argv.push(s.clone());
    }
    let want =
        if command == "fleet" && expected.out_dir.is_some() && expected.telemetry_out.is_some() {
            Err("pwnd fleet: --telemetry-out is not supported with --out-dir".to_string())
        } else {
            Ok(Invocation::Command(command, Box::new(expected)))
        };
    prop_assert_eq!(parse(&argv), want);
    Ok(())
}

#[test]
fn fleet_with_out_dir_and_telemetry_out_is_refused() {
    let pairs = [
        ("--telemetry-out".to_string(), 1),
        ("--out-dir".to_string(), 2),
        ("--out-dir".to_string(), 3),
    ];
    last_value_wins("fleet".to_string(), &pairs, &[]).unwrap();
    last_value_wins("export".to_string(), &pairs, &[]).unwrap();
}

#[test]
fn batch_sizes_are_bounded() {
    // Parse only: no run starts and no thread is spawned here.
    let parse_line = |line: &str| parse(&line.split(' ').map(String::from).collect::<Vec<_>>());
    let seeds = format!("pwnd sweep: --seeds must be 1 to {MAX_SEEDS}");
    assert_eq!(parse_line("sweep --seeds 0"), Err(seeds.clone()));
    assert_eq!(parse_line("sweep --seeds 10001"), Err(seeds.clone()));
    assert_eq!(parse_line("sweep --seeds 18446744073709551615"), Err(seeds));
    assert!(parse_line("sweep --seeds 10000").is_ok());
    // Only the sweep runs one experiment per seed.
    assert!(parse_line("chaos --seeds 0").is_ok());
    for command in ["fleet", "sweep", "chaos", "serve"] {
        let jobs = format!("pwnd {command}: --jobs must be at most {MAX_JOBS}");
        for n in ["257", "100000", "18446744073709551615"] {
            let line = format!("{command} --jobs {n}");
            assert_eq!(parse_line(&line), Err(jobs.clone()), "{line}");
        }
        assert!(parse_line(&format!("{command} --jobs 256")).is_ok());
    }
    assert_eq!(
        parse_line("fleet --accounts 1000000 --jobs 100000"),
        Err(format!("pwnd fleet: --jobs must be at most {MAX_JOBS}"))
    );
    // Commands that start no worker pool ignore --jobs.
    assert!(parse_line("run --jobs 100000").is_ok());
    // The default is every core, capped like the flag.
    match parse_line("fleet") {
        Ok(Invocation::Command(_, a)) => assert!((1..=MAX_JOBS).contains(&a.jobs)),
        other => panic!("{other:?}"),
    }
}

fn pwnd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pwnd"))
        .args(args)
        .output()
        .expect("spawn pwnd")
}

#[test]
fn help_exits_zero_with_usage_on_stdout() {
    for flag in ["--help", "-h", "help"] {
        let out = pwnd(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), format!("{USAGE}\n"));
        assert!(out.stderr.is_empty());
    }
}

#[test]
fn bad_command_lines_exit_one_with_usage_on_stderr() {
    let cases: [&[&str]; 6] = [
        &[],
        &["lint"],
        &["bogus"],
        &["run", "--bogus"],
        &["run", "--seed"],
        &["run", "--seed", "x"],
    ];
    for args in cases {
        let out = pwnd(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(
            stderr.ends_with(&format!("{USAGE}\n")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn sweep_with_zero_seeds_exits_one() {
    // Out of range is caught at parse time, so no run starts.
    let out = pwnd(&["sweep", "--seeds", "0"]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        format!("pwnd sweep: --seeds must be 1 to {MAX_SEEDS}\n")
    );
    assert!(out.stdout.is_empty());
}

#[test]
fn report_refuses_a_line_longer_than_the_reader_cap() {
    let path = std::env::temp_dir().join(format!("pwnd-cli-{}-long.jsonl", std::process::id()));
    std::fs::write(&path, vec![b'x'; 2 << 20]).unwrap();
    let out = pwnd(&["report", "--input", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.ends_with("-long.jsonl: line 1: line longer than 1 MiB\n"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty());
}

/// `profile --input` refuses a line over the reader's cap, such as the
/// multi-megabyte trace-carrying lines older binaries wrote.
#[test]
fn profile_refuses_a_telemetry_line_longer_than_the_reader_cap() {
    let path = std::env::temp_dir().join(format!("pwnd-cli-{}-long-t.jsonl", std::process::id()));
    let line = format!("{{\"spans\":[],\"trace\":\"{}\"}}\n", "x".repeat(2 << 20));
    std::fs::write(&path, line).unwrap();
    let out = pwnd(&["profile", "--input", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.ends_with("-long-t.jsonl: line 1: line longer than 1 MiB\n"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty());
}

/// `report` and `serve` refuse a store whose manifest is over the
/// reader's cap, and the message names the cap.
#[test]
fn report_and_serve_refuse_an_over_cap_manifest() {
    let dir = std::env::temp_dir().join(format!("pwnd-cli-{}-cap", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = std::fs::File::create(dir.join(pwnd::store::MANIFEST_FILE)).unwrap();
    manifest
        .set_len(pwnd::store::MAX_MANIFEST_BYTES + 1)
        .unwrap();
    let input = dir.to_str().unwrap();
    for args in [
        vec!["report", "--input", input],
        vec!["serve", "--input", input, "--addr", "127.0.0.1:0"],
    ] {
        let out = pwnd(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("pwnd {}: ", args[0])) && stderr.contains("16 MiB cap"),
            "{stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `serve --profile` ends its shutdown report with one peak-RSS footer
/// line, as the batch commands do.
#[cfg(target_os = "linux")]
#[test]
fn serve_profile_prints_its_peak_rss_on_shutdown() {
    use std::process::Stdio;
    let dir = std::env::temp_dir().join(format!("pwnd-cli-{}-serve-rss", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.to_str().unwrap();
    let fleet = pwnd(&[
        "fleet",
        "--accounts",
        "8",
        "--jobs",
        "1",
        "--out-dir",
        store,
    ]);
    assert_eq!(fleet.status.code(), Some(0), "{fleet:?}");
    // Stdin is closed from the start, so the daemon binds, stops and
    // reports.
    let out = Command::new(env!("CARGO_BIN_EXE_pwnd"))
        .args([
            "serve",
            "--input",
            store,
            "--addr",
            "127.0.0.1:0",
            "--profile",
        ])
        .stdin(Stdio::null())
        .output()
        .expect("spawn pwnd");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let footers: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("peak RSS (VmHWM)"))
        .collect();
    assert_eq!(footers.len(), 1, "{stdout}");
    assert!(footers[0].ends_with(" MiB"), "{stdout}");
}

/// The same 2 MiB through a pipe, which shows how much the reader takes:
/// it stops at its 1 MiB line cap, so writing the rest fails.
#[cfg(unix)]
#[test]
fn report_stops_reading_a_long_line_at_the_cap() {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_pwnd"))
        .args(["report", "--input", "/dev/stdin"])
        .stdin(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn pwnd");
    let mut stdin = child.stdin.take().unwrap();
    let chunk = [b'x'; 64 << 10];
    let mut written = 0;
    while written < 2 << 20 && stdin.write_all(&chunk).is_ok() {
        written += chunk.len();
    }
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.ends_with("line 1: line longer than 1 MiB\n"),
        "{stderr}"
    );
    assert!(written < 2 << 20, "the reader took all {written} bytes");
}
