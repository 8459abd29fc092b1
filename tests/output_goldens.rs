//! Output goldens for the quick run in the forms no other golden pins:
//! the sha256 of `dataset_json()` and of `analysis().render()` for
//! `ExperimentConfig::quick(2016)` as is, with decoys seeded, with the
//! activist archetype, under `FaultProfile::heavy()`, and with the
//! provider's login filter enabled.
//!
//! The first three pairs were recorded before the corpus generator began
//! counting TF-IDF's `d_A` from its own draws and before filler words
//! were sampled from a guide table, so they pin that neither change moved
//! a byte. The fault and filter pairs were recorded before the scraper
//! stopped opening a session per page read and before per-account
//! monitor state moved to dense id-indexed slots; those two paths are the
//! only ones that exercise the scraper's transient and blocked-read
//! handling. A change that means to alter the corpus, the analysis or
//! the monitor updates them and says why.

use pwnd::core::hash::Sha256;
use pwnd::corpus::Archetype;
use pwnd::{Experiment, ExperimentConfig, FaultProfile};

/// Run `config` and return the sha256 of its dataset JSON and of its
/// rendered analysis.
fn shas(config: ExperimentConfig) -> (String, String) {
    let out = Experiment::new(config).run();
    (
        Sha256::digest_hex(out.dataset_json().as_bytes()),
        Sha256::digest_hex(out.analysis().render().as_bytes()),
    )
}

#[test]
fn quick_run_outputs_are_pinned() {
    let (dataset, report) = shas(ExperimentConfig::quick(2016));
    assert_eq!(
        dataset,
        "4b9fabd878b11c650bd80ed65dfaeb71756a62620bc63c4075888a0a66ad6188"
    );
    assert_eq!(
        report,
        "550ce4e67ed2b7c6a0e92209d7e89de4ff32df9120b67cf0034ebc97a9ef8fef"
    );
}

#[test]
fn quick_run_with_decoys_outputs_are_pinned() {
    let (dataset, report) = shas(ExperimentConfig {
        seed_decoys: true,
        ..ExperimentConfig::quick(2016)
    });
    assert_eq!(
        dataset,
        "c8e868c5c37e25bb75b016c7750b3dda0319a62424c51156d3e5ba434ad0f536"
    );
    assert_eq!(
        report,
        "dce84a2628312f72772e3fdd12efbc9693df3c8a85171610f3c59c6533294992"
    );
}

#[test]
fn quick_activist_run_outputs_are_pinned() {
    let (dataset, report) = shas(ExperimentConfig {
        archetype: Archetype::Activist,
        ..ExperimentConfig::quick(2016)
    });
    assert_eq!(
        dataset,
        "d4e0e199d36bc65a0afd0985eddaef6804d95add6bcd0074ac5d24e1a717d9d3"
    );
    assert_eq!(
        report,
        "82f6d701c4786eb390fa6aaf9d48d3d527670b4fb71fa1b57167f101b86d2dd4"
    );
}

#[test]
fn quick_run_under_heavy_faults_outputs_are_pinned() {
    let mut config = ExperimentConfig::quick(2016);
    config.faults.profile = FaultProfile::heavy();
    let (dataset, report) = shas(config);
    assert_eq!(
        dataset,
        "de5ecb62b0d9392580513c4f7c968e3820f6cada4de240bc5d96bca7bd997595"
    );
    assert_eq!(
        report,
        "4e929c3ad8246761fa24412bd2a0d80af901318d83a4811905afab9940779042"
    );
}

#[test]
fn quick_run_with_login_filter_outputs_are_pinned() {
    let (dataset, report) = shas(ExperimentConfig {
        login_filter_enabled: true,
        ..ExperimentConfig::quick(2016)
    });
    assert_eq!(
        dataset,
        "b168fecc9d61b065910e1a0dc241559d9811351ac1d8a66cd4df1cf3a217758a"
    );
    assert_eq!(
        report,
        "93cc173ac0988ba26e67c89a1a11b6cdd6e59f7af3b59eff3b5126d3868bc359"
    );
}
