//! The parallel runner's user-facing contract: everything the CLI
//! prints from a batch — the sweep table, the chaos table, every
//! exported dataset — is byte-identical whatever `--jobs` was.
//!
//! These tests drive the same `pwnd::cli` helpers the binary uses, so
//! the byte-identity claim covers the real rendering path, not a
//! reimplementation of it.

use pwnd::analysis::tables::{overview, Overview};
use pwnd::cli::{chaos_configs, chaos_table, sweep_configs, sweep_table, ChaosRow, CHAOS_FACTORS};
use pwnd::{Batch, ExperimentConfig, FaultProfile, Runner};

/// Each run's overview, as `pwnd sweep` reduces it in the worker.
fn overviews(batch: &Batch) -> Vec<Overview> {
    batch.outputs.iter().map(|o| overview(&o.dataset)).collect()
}

/// Each run's chaos row, as `pwnd chaos` reduces it in the worker.
fn chaos_rows(batch: &Batch) -> Vec<ChaosRow> {
    batch.outputs.iter().map(ChaosRow::of).collect()
}

#[test]
fn sweep_table_is_byte_identical_across_job_counts() {
    let base = ExperimentConfig::quick(2016);
    let seq = Runner::new(1).run_map(sweep_configs(&base, 8), |_, o| o);
    let par = Runner::new(4).run_map(sweep_configs(&base, 8), |_, o| o);

    assert_eq!(
        sweep_table(&overviews(&seq), base.seed),
        sweep_table(&overviews(&par), base.seed)
    );
    // Not just the table: the full censored dataset of every seed.
    for (i, (a, b)) in seq.outputs.iter().zip(&par.outputs).enumerate() {
        assert_eq!(a.dataset_json(), b.dataset_json(), "seed slot {i}");
    }
}

#[test]
fn chaos_table_is_byte_identical_across_job_counts() {
    let base = ExperimentConfig::quick(2016);
    let profile = FaultProfile::heavy();
    let seq = Runner::new(1).run_map(chaos_configs(&base, &profile), |_, o| o);
    let par = Runner::new(4).run_map(chaos_configs(&base, &profile), |_, o| o);

    assert_eq!(seq.outputs.len(), CHAOS_FACTORS.len());
    assert_eq!(
        chaos_table(&chaos_rows(&seq)),
        chaos_table(&chaos_rows(&par))
    );
    // The rows the binary reduces in the worker are the same rows.
    let mapped = Runner::new(4).run_map(chaos_configs(&base, &profile), |_, o| ChaosRow::of(&o));
    assert_eq!(mapped.outputs, chaos_rows(&seq));
    for (i, (a, b)) in seq.outputs.iter().zip(&par.outputs).enumerate() {
        assert_eq!(a.dataset_json(), b.dataset_json(), "factor slot {i}");
        assert_eq!(
            a.ground_truth.notifications_lost, b.ground_truth.notifications_lost,
            "factor slot {i}"
        );
    }
}

#[test]
fn oversubscribed_runner_matches_sequential() {
    // More workers than runs: the queue drains with idle workers, and
    // order must still hold.
    let base = ExperimentConfig::quick(7);
    let seq = Runner::new(1).run_map(sweep_configs(&base, 3), |_, o| o);
    let par = Runner::new(16).run_map(sweep_configs(&base, 3), |_, o| o);
    assert_eq!(
        sweep_table(&overviews(&seq), base.seed),
        sweep_table(&overviews(&par), base.seed)
    );
}
