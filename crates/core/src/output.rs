//! Run outputs: the censored dataset, ground truth, and analysis entry
//! points.

use pwnd_analysis::report::FullAnalysis;
use pwnd_corpus::tokenize::TermCounts;
use pwnd_leak::forum::{Inquiry, SellerAccount, TeaserThread};
use pwnd_leak::malware::CycleRecord;
use pwnd_leak::plan::LeakRecord;
use pwnd_monitor::dataset::Dataset;
use pwnd_net::dnsbl::Blacklist;
use pwnd_telemetry::{TelemetryReport, TelemetrySink};

/// What the simulator knows that the researchers could not observe.
/// Tests use this to validate the censoring logic; analyses never touch
/// it.
#[derive(Clone, Debug, Default)]
pub struct GroundTruth {
    /// Accounts whose password was changed by an attacker.
    pub hijacked_accounts: Vec<u32>,
    /// Accounts blocked by the provider (with block day).
    pub blocked_accounts: Vec<(u32, f64)>,
    /// Messages captured by the sinkhole (none ever delivered).
    pub sinkholed_messages: usize,
    /// Every search query attackers actually ran (provider-side logs the
    /// monitor cannot read — the TF-IDF pipeline must *infer* these).
    pub searched_queries: Vec<String>,
    /// Accounts whose monitoring script was found and deleted.
    pub scripts_deleted: Vec<u32>,
    /// Total accesses the provider recorded (pre-censoring), per account.
    pub provider_access_counts: Vec<(u32, u64)>,
    /// Forum inquiries logged on the teaser threads.
    pub inquiries: Vec<Inquiry>,
    /// The seller accounts registered on each forum.
    pub sellers: Vec<SellerAccount>,
    /// The teaser threads posted (one per forum, carrying the samples).
    pub teaser_threads: Vec<TeaserThread>,
    /// Unique accesses the attacker model *attempted* (some fail against
    /// hijacked or blocked accounts and never appear in the dataset).
    pub attempted_accesses: usize,
    /// "Too much computer time" platform notices delivered into honey
    /// inboxes (the paper saw two, later opened by attackers).
    pub quota_notices_delivered: u64,
    /// Sandbox campaign log: one record per VM infect-and-login cycle.
    pub malware_cycles: Vec<CycleRecord>,
    /// Script notifications lost in transit by the fault layer (zero in
    /// fault-free runs).
    pub notifications_lost: u64,
    /// Redelivered notifications the collector deduplicated.
    pub duplicate_notifications: u64,
    /// Known monitoring blind windows recorded by the run.
    pub monitoring_gaps: usize,
}

/// Everything a run produces.
pub struct RunOutput {
    /// The censored, published dataset (what the paper released).
    pub dataset: Dataset,
    /// Simulator ground truth.
    pub ground_truth: GroundTruth,
    /// Where every credential was leaked.
    pub leaks: Vec<LeakRecord>,
    /// Word counts of every seeded email (TF-IDF document `d_A`),
    /// counted as the mailboxes were seeded. Its `len()` is the byte
    /// length the concatenated corpus text would have; the benchmark
    /// harness reports it as `corpus.text_bytes`.
    pub corpus_text: TermCounts,
    /// Stopwords stripped before TF-IDF (honey handles, infra markers).
    pub extra_stopwords: Vec<String>,
    /// The DNSBL snapshot for the post-hoc blacklist check.
    pub blacklist: Blacklist,
    /// The run's telemetry sink (disabled unless the experiment was built
    /// with [`Experiment::with_telemetry`](crate::experiment::Experiment::with_telemetry)).
    /// Still live: [`RunOutput::analysis`] adds its own root span.
    pub telemetry: TelemetrySink,
}

impl RunOutput {
    /// Run the full §4 analysis pipeline over the dataset, each stage
    /// timed in a child span of `analysis`: `tfidf`, `cvm` and `figures`.
    pub fn analysis(&self) -> FullAnalysis {
        let _span = self.telemetry.span("analysis");
        FullAnalysis::compute(
            &self.dataset,
            &self.corpus_text,
            &self.extra_stopwords,
            Some(&self.blacklist),
            |stage| self.telemetry.span(stage),
        )
    }

    /// Snapshot the run's telemetry (metrics, trace, span tree).
    pub fn telemetry_report(&self) -> TelemetryReport {
        self.telemetry.report()
    }

    /// Export the dataset as JSON (the paper's public-dataset artifact).
    pub fn dataset_json(&self) -> String {
        self.dataset.to_json()
    }
}
