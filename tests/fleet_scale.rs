//! The fleet engine's user-facing contract: a sharded fleet run is a
//! pure function of its config — the merged dataset, the summary
//! table, and the streamed JSONL export are byte-identical whatever
//! `--jobs` was — and the streaming export loses nothing relative to
//! the in-memory JSON artifact.

use pwnd::cli::merge_telemetry_jsonl;
use pwnd::core::fleet::{run_fleet, FleetConfig};
use pwnd::monitor::export::read_jsonl;
use pwnd::telemetry::TelemetryReport;
use pwnd::{Experiment, ExperimentConfig};
use std::collections::BTreeSet;
use std::process::Command;

/// `pwnd fleet --accounts 500`: the merged dataset and every rendered
/// artifact are byte-identical between the sequential and the parallel
/// schedule.
#[test]
fn fleet_500_accounts_is_byte_identical_across_job_counts() {
    let seq = run_fleet(&FleetConfig::new(2016, 500, 1));
    let par = run_fleet(&FleetConfig::new(2016, 500, 4));

    assert_eq!(seq.accounts, 500);
    assert_eq!(seq.shards, 5);
    assert_eq!(seq.dataset_json(), par.dataset_json());

    let mut seq_jsonl = Vec::new();
    let mut par_jsonl = Vec::new();
    seq.write_jsonl(&mut seq_jsonl).unwrap();
    par.write_jsonl(&mut par_jsonl).unwrap();
    assert_eq!(seq_jsonl, par_jsonl);

    // The summary differs only in the jobs row it reports.
    let strip_jobs = |t: String| {
        t.lines()
            .filter(|l| !l.starts_with("jobs"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        strip_jobs(seq.summary_table().render()),
        strip_jobs(par.summary_table().render())
    );
}

/// Longest `--telemetry-out` line allowed, bytes: a shard's span tree
/// is about 2 KiB. A line that also carried the shard's trace events
/// measured 2.2–2.4 MB.
const MAX_TELEMETRY_LINE_BYTES: usize = 16 << 10;

/// `pwnd fleet --telemetry-out` on 300 accounts: one short span-tree line
/// per shard, in shard order whatever the schedule, and the span tree
/// `pwnd profile --input` folds from the file is the in-process merge of
/// the shards' span trees — the same collapsed path set, the same roots.
#[test]
fn streamed_fleet_telemetry_is_ordered_complete_and_remergeable() {
    let lines_of = |jobs: usize| {
        let out = run_fleet(&FleetConfig::new(2016, 300, jobs).with_telemetry(true));
        let mut stream = Vec::new();
        let written = out.write_telemetry_jsonl(&mut stream).unwrap();
        let text = String::from_utf8(stream).unwrap();
        assert_eq!(written, out.shards as u64);
        assert_eq!(text.lines().count(), out.shards, "one line per shard");
        for (i, line) in text.lines().enumerate() {
            assert!(
                line.len() <= MAX_TELEMETRY_LINE_BYTES,
                "line {i} is {} bytes",
                line.len()
            );
        }
        (out, text)
    };
    let (output, text) = lines_of(4);
    let (_, sequential) = lines_of(1);
    let fold = |text: &str| merge_telemetry_jsonl("fleet-t.jsonl", text.as_bytes()).unwrap();

    // Shard order, not completion order: line `i` has the span structure
    // (paths, counts, sim ranges) of the same line from the one-worker
    // fleet. Shards run at different seeds, so a reordered line would
    // differ.
    let lines: Vec<&str> = text.lines().collect();
    let seq_lines: Vec<&str> = sequential.lines().collect();
    assert_ne!(
        fold(seq_lines[0]).structure(),
        fold(seq_lines[1]).structure()
    );
    for (i, (line, seq)) in lines.iter().zip(&seq_lines).enumerate() {
        assert_eq!(fold(line).structure(), fold(seq).structure(), "line {i}");
    }

    // The file folds to the in-process merge of the shard span trees.
    let folded = fold(&text);
    let in_process = TelemetryReport::merge(&output.shard_reports).spans;
    let paths = |collapsed: String| -> BTreeSet<String> {
        collapsed
            .lines()
            .map(|l| l.rsplit_once(' ').unwrap().0.to_string())
            .collect()
    };
    assert_eq!(paths(folded.collapsed()), paths(in_process.collapsed()));
    assert!(folded.roots().eq(in_process.roots()));
    assert!(folded.node("event-loop").is_some());
    assert_eq!(folded, in_process);
    // The shard reports keep their metrics, and the fleet merge sums them.
    let dispatched = TelemetryReport::merge(&output.shard_reports).counter("sim.events_dispatched");
    assert!(dispatched > 0, "shards really dispatched sim events");
    assert_eq!(
        output.telemetry.metrics.counter("sim.events_dispatched"),
        dispatched
    );

    // Telemetry is an observation: the dataset matches the plain run.
    let plain = run_fleet(&FleetConfig::new(2016, 300, 4));
    assert_eq!(plain.dataset_json(), output.dataset_json());
}

/// `pwnd fleet --out` into a directory that does not exist fails, and
/// says why: the OS error reaches stderr.
#[test]
fn fleet_out_to_a_missing_directory_reports_the_os_error() {
    let missing = std::env::temp_dir().join(format!("pwnd-missing-{}", std::process::id()));
    let target = missing.join("x.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_pwnd"))
        .args(["fleet", "--accounts", "100", "--jobs", "1", "--out"])
        .arg(&target)
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "writing under a missing directory must fail"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("cannot write {}: ", target.display())),
        "stderr: {stderr}"
    );
    assert!(
        stderr.contains("os error"),
        "stderr names the OS error: {stderr}"
    );
}

/// Streaming a dataset out as JSON Lines and reassembling it yields the
/// exact in-memory JSON artifact — at the paper's own 100-account
/// scale, through a real (non-fleet) run.
#[test]
fn jsonl_round_trip_matches_in_memory_export_at_paper_scale() {
    let output = Experiment::new(ExperimentConfig::quick(2016)).run();
    let direct = output.dataset_json();

    let mut stream = Vec::new();
    {
        use pwnd::monitor::DatasetWriter;
        let mut writer = DatasetWriter::new(&mut stream);
        writer.write_dataset(&output.dataset).unwrap();
        writer.finish().unwrap();
    }

    let reassembled = read_jsonl("stream", &stream[..]).unwrap();
    assert_eq!(reassembled.to_json(), direct);
}
