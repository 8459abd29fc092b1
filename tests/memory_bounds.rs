//! Peak-memory bounds on the `pwnd` binary, read from the
//! `peak RSS (VmHWM)` line of its own `--profile` report. `VmHWM` is
//! Linux's, and it starts afresh at `exec`, so the figure is the run's
//! own whatever started it.
#![cfg(target_os = "linux")]

use std::process::Command;

/// Ceiling on the peak resident set of `pwnd run --seed 2016
/// --profile`, MiB: 25% above the 12.3 MiB its test-profile (debug)
/// binary peaks at with rustc 1.95.0 on a 2-vCPU x86-64 Linux VM, once
/// each mailbox kept its entries in one id-sorted `Vec`. It peaked at
/// 13.6 MiB on that host while the entries were a B-tree and the sink
/// already counted trace events instead of holding them, 20.0 MiB while
/// every event sat in a 65,536-slot ring, 22.5 MiB on an earlier host
/// once seeded bodies became piece codes, and 28.3 MiB while every body
/// was stored as text. The release binary peaks at 9.6 MiB (10.7 with
/// B-tree entries, 17.5 with the ring). If this fails, find what grew;
/// do not raise the ceiling.
const PAPER_RUN_PEAK_RSS_MIB: f64 = 15.4;

/// Most that the peak of `pwnd sweep --quick --jobs 2 --profile` may
/// grow from 2 seeds to 16, MiB. Six runs each of the test-profile
/// (debug) binary, rustc 1.95.0 on a 2-vCPU x86-64 Linux VM, peaked at
/// 16.2–18.2 MiB for 2 seeds and 21.9–23.6 MiB for 16: at most 7.4 MiB
/// apart, from two runs in flight and allocator arenas, not from runs
/// kept. While the batch kept each run's trace events it grew about
/// 6.6 MiB a run (25.1 → 132.5 MiB). If this fails, find what the batch
/// keeps per run; do not raise the slack.
const SWEEP_PEAK_RSS_SLACK_MIB: f64 = 12.0;

/// The `peak RSS (VmHWM)` figure, MiB, of `pwnd args…`.
fn peak_rss_mib(args: &[&str]) -> f64 {
    let out = Command::new(env!("CARGO_BIN_EXE_pwnd"))
        .args(args)
        .output()
        .expect("pwnd starts");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 report");
    let lines: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("peak RSS (VmHWM)"))
        .collect();
    let [figure] = lines[..] else {
        panic!("{args:?}: want one peak RSS line, got {lines:?}");
    };
    figure
        .trim()
        .strip_suffix("MiB")
        .and_then(|n| n.trim().parse().ok())
        .unwrap_or_else(|| panic!("unreadable peak RSS figure {figure:?}"))
}

#[test]
fn paper_run_peak_rss_stays_under_its_ceiling() {
    let mib = peak_rss_mib(&["run", "--seed", "2016", "--profile"]);
    assert!(
        mib < PAPER_RUN_PEAK_RSS_MIB,
        "pwnd run --seed 2016 --profile peaked at {mib} MiB, over the {PAPER_RUN_PEAK_RSS_MIB} MiB ceiling"
    );
}

#[test]
fn sweep_peak_rss_does_not_grow_with_seeds() {
    let sweep = |seeds: &str| {
        peak_rss_mib(&[
            "sweep",
            "--seed",
            "2016",
            "--seeds",
            seeds,
            "--jobs",
            "2",
            "--quick",
            "--profile",
        ])
    };
    let (two, sixteen) = (sweep("2"), sweep("16"));
    assert!(
        sixteen - two <= SWEEP_PEAK_RSS_SLACK_MIB,
        "pwnd sweep --quick --profile peaked at {two} MiB for 2 seeds and {sixteen} MiB for 16, \
         more than {SWEEP_PEAK_RSS_SLACK_MIB} MiB apart"
    );
}
