//! The fleet engine's user-facing contract: a sharded fleet run is a
//! pure function of its config — the merged dataset, the summary
//! table, and the streamed JSONL export are byte-identical whatever
//! `--jobs` was — and the streaming export loses nothing relative to
//! the in-memory JSON artifact.

use pwnd::core::fleet::{run_fleet, FleetConfig};
use pwnd::monitor::export::read_jsonl;
use pwnd::telemetry::TelemetryReport;
use pwnd::{Experiment, ExperimentConfig};
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

/// `pwnd fleet --telemetry-out`: the per-shard telemetry is one JSONL
/// report line per shard, in shard order whatever the schedule, and
/// re-merging the lines offline reproduces the in-process merge of the
/// shard reports exactly — including the span tree and its roots.
#[test]
fn streamed_fleet_telemetry_is_ordered_complete_and_remergeable() {
    let lines_of = |jobs: usize| {
        let out = run_fleet(&FleetConfig::new(2016, 500, jobs).with_telemetry(true));
        let mut stream = Vec::new();
        let written = out.write_telemetry_jsonl(&mut stream).unwrap();
        let reports: Vec<TelemetryReport> = std::str::from_utf8(&stream)
            .unwrap()
            .lines()
            .map(|l| TelemetryReport::from_json_line(l).unwrap())
            .collect();
        assert_eq!(written, out.shards as u64);
        assert_eq!(reports.len(), out.shards, "one report line per shard");
        (out, reports)
    };
    let (output, reports) = lines_of(4);
    let (_, sequential) = lines_of(1);

    // Shard order, not completion order: line `i` is the report of the
    // same line from the one-worker fleet (report equality compares
    // metrics and trace). Shards run at different seeds, so a reordered
    // line would differ.
    assert_ne!(sequential[0], sequential[1]);
    for (i, (line, seq)) in reports.iter().zip(&sequential).enumerate() {
        assert_eq!(line, seq, "line {i}");
        assert_eq!(line.spans.structure(), seq.spans.structure(), "line {i}");
    }

    // The lines round-trip, and their merge is the in-process merge.
    assert_eq!(reports, output.shard_reports);
    let remerged = TelemetryReport::merge(&reports);
    let in_process = TelemetryReport::merge(&output.shard_reports);
    assert_eq!(remerged, in_process);
    assert_eq!(remerged.spans.structure(), in_process.spans.structure());
    assert!(remerged.spans.roots().eq(in_process.spans.roots()));
    let dispatched = remerged.metrics.counter("sim.events_dispatched");
    assert!(dispatched > 0, "shards really dispatched sim events");
    assert_eq!(
        output.telemetry.metrics.counter("sim.events_dispatched"),
        dispatched
    );

    // Telemetry is an observation: the dataset matches the plain run.
    let plain = run_fleet(&FleetConfig::new(2016, 500, 4));
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
