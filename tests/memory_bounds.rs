//! Peak-memory bounds on the `pwnd` binary, read from the
//! `peak RSS (VmHWM)` line of its own `--profile` report. `VmHWM` is
//! Linux's, and it starts afresh at `exec`, so the figure is the run's
//! own whatever started it.
#![cfg(target_os = "linux")]

use std::process::Command;

/// Ceiling on the peak resident set of `pwnd run --seed 2016
/// --profile`, MiB: 25% above the 22.5 MiB its test-profile (debug)
/// binary peaks at with rustc 1.95.0 on x86-64 Linux, once seeded
/// bodies became piece codes. It peaked at 28.3 MiB while every body
/// was stored as text. The release binary peaks at 19.9 MiB (25.8
/// before). If this fails, find what grew; do not raise the ceiling.
const PAPER_RUN_PEAK_RSS_MIB: f64 = 28.1;

#[test]
fn paper_run_peak_rss_stays_under_its_ceiling() {
    let out = Command::new(env!("CARGO_BIN_EXE_pwnd"))
        .args(["run", "--seed", "2016", "--profile"])
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
        panic!("want one peak RSS line, got {lines:?}");
    };
    let mib: f64 = figure
        .trim()
        .strip_suffix("MiB")
        .and_then(|n| n.trim().parse().ok())
        .unwrap_or_else(|| panic!("unreadable peak RSS figure {figure:?}"));
    assert!(
        mib < PAPER_RUN_PEAK_RSS_MIB,
        "pwnd run --seed 2016 --profile peaked at {mib} MiB, over the {PAPER_RUN_PEAK_RSS_MIB} MiB ceiling"
    );
}
