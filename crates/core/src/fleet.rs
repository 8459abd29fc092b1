//! The fleet engine: one logical experiment sharded across the runner.
//!
//! The paper deployed 100 honey accounts; the fleet engine scales that
//! *population* — `pwnd fleet --accounts 20000` — by sharding it into
//! paper-sized sub-experiments, executing the shards on the PR 4
//! [`Runner`] worker pool, and merging the per-shard datasets and
//! telemetry into one fleet-wide view with globally re-numbered account
//! ids.
//!
//! ## Determinism
//!
//! Shard `i` runs `ExperimentConfig` derived purely from
//! `(fleet seed, i)` with a [`LeakPlan::scaled`] plan sized to the
//! shard, so the shard population is a pure function of the fleet
//! config. The runner parks shard outputs in submission order whatever
//! the schedule, and the merge walks shards in index order — the merged
//! dataset and every table are byte-identical for any `--jobs` count
//! (`tests/fleet_scale.rs` proves it).
//!
//! ## One pipeline
//!
//! [`run_fleet_shards`] is the only function here that calls the
//! [`Runner`]. In the worker it rewrites each shard's account ids to
//! the shard's fleet-global range and hands the shard to a sink:
//! [`run_fleet`] keeps the datasets and concatenates them in shard
//! order, and the fleet store (`pwnd::store`) serializes each one to
//! disk. Both paths therefore see the same shard bytes.
//!
//! ## Memory
//!
//! Shards are mapped in-worker ([`Runner::run_map`]) down to what the
//! sink keeps; the mailboxes, corpus text, ground truth and trace never
//! survive the worker. The in-memory fleet holds the merged dataset
//! and, with telemetry on, each shard's metrics and span tree, so its
//! memory grows with the fleet; the store holds only the shards in
//! flight. Memory is measured from outside the program (the process's
//! peak RSS, as `pwndbench` reports it), never counted here, so the
//! summary table stays a pure function of the config.

use crate::config::ExperimentConfig;
use crate::runner::Runner;
use pwnd_leak::plan::LeakPlan;
use pwnd_monitor::dataset::Dataset;
use pwnd_monitor::export::DatasetWriter;
use pwnd_telemetry::{Json, Table, TelemetryReport, TelemetrySink};
use std::io::{self, Write};
use std::sync::Mutex;

/// Accounts per shard: the paper's deployment size, which keeps every
/// shard's calibration (Table 1 proportions, signup rate limits,
/// scraper load) at the scale the constants were tuned for.
pub const SHARD_ACCOUNTS: u32 = 100;

/// Configuration of one fleet run.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Master seed; shard `i` derives its seed as `seed + i`.
    pub seed: u64,
    /// Total honey-account population across all shards.
    pub accounts: u32,
    /// Runner worker threads.
    pub jobs: usize,
    /// Collect per-shard telemetry and merge it (adds the `runner.*`
    /// series and spans; the `fleet.*` gauges are always recorded).
    pub telemetry: bool,
}

impl FleetConfig {
    /// A fleet of `accounts` honey accounts on `jobs` workers.
    pub fn new(seed: u64, accounts: u32, jobs: usize) -> FleetConfig {
        FleetConfig {
            seed,
            accounts,
            jobs,
            telemetry: false,
        }
    }

    /// Enable per-shard telemetry merging.
    pub fn with_telemetry(mut self, enabled: bool) -> FleetConfig {
        self.telemetry = enabled;
        self
    }

    /// Shard sizes, in shard order: full [`SHARD_ACCOUNTS`] shards plus
    /// one tail shard for the remainder.
    pub fn shard_sizes(&self) -> Vec<u32> {
        let full = self.accounts / SHARD_ACCOUNTS;
        let tail = self.accounts % SHARD_ACCOUNTS;
        let mut sizes = vec![SHARD_ACCOUNTS; full as usize];
        if tail > 0 {
            sizes.push(tail);
        }
        sizes
    }

    /// The derived config for shard `index` of `size` accounts: the
    /// quick per-account profile (fleet scale trades per-account email
    /// volume for population size) with a proportionally scaled Table 1
    /// leak plan.
    pub fn shard_config(&self, index: usize, size: u32) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::quick(self.seed.wrapping_add(index as u64));
        cfg.plan = LeakPlan::scaled(size as usize);
        cfg
    }

    /// Every shard this fleet decomposes into, in shard order — the
    /// identity the fleet store records per shard file and re-derives
    /// on resume to decide what can be reused.
    pub fn shard_specs(&self) -> Vec<ShardSpec> {
        self.shard_sizes()
            .into_iter()
            .enumerate()
            .map(|(index, accounts)| {
                let cfg = self.shard_config(index, accounts);
                ShardSpec {
                    index,
                    seed: cfg.seed,
                    accounts,
                    account_base: (index as u32) * SHARD_ACCOUNTS,
                    config_fingerprint: cfg.fingerprint(),
                    fault_profile: cfg.faults.profile.describe().to_string(),
                }
            })
            .collect()
    }

    /// The fingerprint of the fleet's config *template*: shard 0's
    /// config at the canonical shard size with the seed zeroed out.
    /// Every shard of this fleet shares it (shards differ only in seed
    /// and plan size, which the per-shard spec records separately), so
    /// the store can detect "same seed, different experiment" in one
    /// comparison.
    pub fn template_fingerprint(&self) -> String {
        let mut cfg = self.shard_config(0, SHARD_ACCOUNTS);
        cfg.seed = 0;
        cfg.fingerprint()
    }
}

/// The identity of one shard of a fleet: everything that determines the
/// shard's output bytes. Two specs being equal means the shard files
/// are interchangeable — which is exactly the reuse rule the fleet
/// store applies on resume.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// Position in the fleet (0-based).
    pub index: usize,
    /// The shard's derived experiment seed (`fleet seed + index`).
    pub seed: u64,
    /// Honey accounts this shard simulates.
    pub accounts: u32,
    /// First fleet-global account id in the shard's range
    /// (`index * SHARD_ACCOUNTS`).
    pub account_base: u32,
    /// [`ExperimentConfig::fingerprint`] of the shard's full config.
    pub config_fingerprint: String,
    /// Canonical fault-profile name (informational; the fingerprint is
    /// what guards reuse).
    pub fault_profile: String,
}

/// The merged result of a fleet run.
pub struct FleetOutput {
    /// The fleet-wide censored dataset, account ids re-numbered
    /// globally (shard `i` occupies ids `[i * 100, i * 100 + size)`).
    pub dataset: Dataset,
    /// Merged telemetry: per-shard reports (when enabled) plus the
    /// always-on `fleet.*` gauges.
    pub telemetry: TelemetryReport,
    /// Each shard's own report, in shard order, without the in-process
    /// `runner.*` / `fleet.*` series. Empty reports unless telemetry was
    /// enabled.
    pub shard_reports: Vec<TelemetryReport>,
    /// Total honey accounts simulated.
    pub accounts: u32,
    /// Shards the population was split into.
    pub shards: usize,
    /// Worker threads the shards ran across.
    pub jobs: usize,
}

impl FleetOutput {
    /// Export the merged dataset as pretty JSON (same format as a
    /// single run's [`RunOutput::dataset_json`](crate::RunOutput::dataset_json)).
    pub fn dataset_json(&self) -> String {
        self.dataset.to_json()
    }

    /// Stream the merged dataset as JSON Lines into `out`, one record
    /// per line, returning the number of records written. Peak memory
    /// is one record — this is the export path for 100k-account fleets.
    pub fn write_jsonl<W: Write>(&self, out: W) -> io::Result<u64> {
        let mut writer = DatasetWriter::new(out);
        writer.write_dataset(&self.dataset)?;
        let written = writer.records_written();
        writer.finish()?;
        Ok(written)
    }

    /// Write each shard's span tree as JSON Lines into `out`, one
    /// `{"schema":"pwnd-telemetry/1","spans":[…]}` line per shard in
    /// shard order, returning the lines written. `pwnd profile --input`
    /// folds the lines back into the shards' merged span tree.
    pub fn write_telemetry_jsonl<W: Write>(&self, mut out: W) -> io::Result<u64> {
        for report in &self.shard_reports {
            let line = Json::Obj(vec![
                (
                    "schema".to_string(),
                    Json::Str("pwnd-telemetry/1".to_string()),
                ),
                ("spans".to_string(), report.spans.to_json()),
            ]);
            out.write_all(line.compact().as_bytes())?;
            out.write_all(b"\n")?;
        }
        out.flush()?;
        Ok(self.shard_reports.len() as u64)
    }

    /// The fleet summary table: population, shard layout, and access
    /// and detection totals.
    pub fn summary_table(&self) -> Table {
        let hijacks = self
            .dataset
            .accounts
            .iter()
            .filter(|a| a.hijack_detected_secs.is_some())
            .count();
        let blocks = self
            .dataset
            .accounts
            .iter()
            .filter(|a| a.block_detected_secs.is_some())
            .count();
        let opened: u64 = self
            .dataset
            .accesses
            .iter()
            .map(|a| u64::from(a.opened))
            .sum();
        let mut t = Table::new(&["fleet metric", "value"]).numeric();
        t.row(["accounts", &self.accounts.to_string()]);
        t.row(["shards", &self.shards.to_string()]);
        t.row(["jobs", &self.jobs.to_string()]);
        t.row(["unique accesses", &self.dataset.accesses.len().to_string()]);
        t.row([
            "accounts accessed",
            &self.dataset.accounts_with_accesses().to_string(),
        ]);
        t.row(["emails opened", &opened.to_string()]);
        t.row(["hijacks detected", &hijacks.to_string()]);
        t.row(["blocks detected", &blocks.to_string()]);
        t
    }
}

/// Run a whole fleet: shard the population, execute the shards on the
/// runner, merge datasets and telemetry deterministically.
pub fn run_fleet(cfg: &FleetConfig) -> FleetOutput {
    let run = run_fleet_shards(cfg, &cfg.shard_specs(), |_, ds| Ok(ds))
        .expect("an in-memory shard sink cannot fail");

    // Concatenate in shard order; ids are already fleet-global.
    let mut dataset = Dataset::default();
    for shard in run.outputs {
        dataset.accesses.extend(shard.accesses);
        dataset.accounts.extend(shard.accounts);
        dataset.opened_texts.extend(shard.opened_texts);
        dataset.gaps.extend(shard.gaps);
    }

    let fleet_sink = TelemetrySink::enabled();
    fleet_sink.gauge_set("fleet.accounts", u64::from(cfg.accounts));
    fleet_sink.gauge_set("fleet.shards", run.shard_reports.len() as u64);

    FleetOutput {
        dataset,
        telemetry: TelemetryReport::merge(&[run.telemetry, fleet_sink.report()]),
        accounts: cfg.accounts,
        shards: run.shard_reports.len(),
        shard_reports: run.shard_reports,
        jobs: run.jobs,
    }
}

/// What [`run_fleet_shards`] returns: each shard's sink result, the
/// shards' own telemetry and the batch telemetry.
#[derive(Debug)]
pub struct ShardRun<T> {
    /// `on_shard`'s result per spec, in spec order.
    pub outputs: Vec<T>,
    /// Each shard's own report, in spec order (empty reports unless
    /// [`FleetConfig::telemetry`] is on).
    pub shard_reports: Vec<TelemetryReport>,
    /// Merged batch telemetry: the shard reports plus the `runner.*`
    /// series and spans.
    pub telemetry: TelemetryReport,
    /// Worker threads the shards ran across.
    pub jobs: usize,
}

/// Run the given shards of a fleet on the runner. In the worker that
/// ran it, each shard's dataset has its account ids rewritten to the
/// shard's global range (shard `i` occupies `[account_base, account_base
/// + accounts)`) and is handed to `on_shard(spec, dataset)`, whose
/// result lands in [`ShardRun::outputs`] in spec order.
///
/// This is the one fleet pipeline. [`run_fleet`] keeps every dataset in
/// memory; the fleet store writes each one durably the moment it
/// completes, so a crash costs at most the shards in flight. Because
/// ids are global before the sink sees them, shard files merge by
/// per-record-kind concatenation in shard order, byte-identical to
/// [`FleetOutput::write_jsonl`].
///
/// `on_shard` may be called in any completion order; its first error is
/// latched, remaining completions are discarded, and the error is
/// returned after the batch joins.
pub fn run_fleet_shards<T, F>(
    cfg: &FleetConfig,
    specs: &[ShardSpec],
    on_shard: F,
) -> io::Result<ShardRun<T>>
where
    T: Send,
    F: Fn(&ShardSpec, Dataset) -> io::Result<T> + Sync,
{
    let configs: Vec<ExperimentConfig> = specs
        .iter()
        .map(|s| cfg.shard_config(s.index, s.accounts))
        .collect();
    let error: Mutex<Option<io::Error>> = Mutex::new(None);
    let latched = || {
        error
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    };
    let runner = Runner::new(cfg.jobs).with_telemetry(cfg.telemetry);
    let batch = runner.run_map(configs, |slot, output| {
        let spec = &specs[slot];
        let mut dataset = output.dataset;
        for a in &mut dataset.accesses {
            a.account += spec.account_base;
        }
        for a in &mut dataset.accounts {
            a.account += spec.account_base;
        }
        for g in &mut dataset.gaps {
            g.account += spec.account_base;
        }
        // Once the batch is dead, later shards are dropped unseen.
        if latched().is_some() {
            None
        } else {
            on_shard(spec, dataset)
                .map_err(|e| {
                    latched().get_or_insert(e);
                })
                .ok()
        }
    });
    if let Some(e) = error
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
    {
        return Err(e);
    }
    Ok(ShardRun {
        outputs: batch
            .outputs
            .into_iter()
            .map(|kept| kept.expect("no error latched, so every shard was kept"))
            .collect(),
        shard_reports: batch.reports,
        telemetry: batch.telemetry,
        jobs: batch.jobs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwnd_telemetry::SpanTreeSnapshot;

    #[test]
    fn shard_sizes_cover_the_population() {
        let c = FleetConfig::new(1, 250, 2);
        assert_eq!(c.shard_sizes(), vec![100, 100, 50]);
        assert_eq!(FleetConfig::new(1, 100, 1).shard_sizes(), vec![100]);
        assert_eq!(FleetConfig::new(1, 7, 1).shard_sizes(), vec![7]);
        assert!(FleetConfig::new(1, 0, 1).shard_sizes().is_empty());
    }

    #[test]
    fn shard_configs_scale_the_plan_and_derive_seeds() {
        let c = FleetConfig::new(40, 250, 2);
        let s0 = c.shard_config(0, 100);
        let s2 = c.shard_config(2, 50);
        assert_eq!(s0.seed, 40);
        assert_eq!(s2.seed, 42);
        assert_eq!(s0.plan.total_accounts(), 100);
        assert_eq!(s2.plan.total_accounts(), 50);
    }

    #[test]
    fn small_fleet_merges_with_global_account_ids() {
        let out = run_fleet(&FleetConfig::new(7, 150, 2));
        assert_eq!(out.accounts, 150);
        assert_eq!(out.shards, 2);
        assert_eq!(out.dataset.accounts.len(), 150);
        // Account ids are globally unique and shard-ranged.
        let ids: Vec<u32> = out.dataset.accounts.iter().map(|a| a.account).collect();
        assert_eq!(ids.len(), 150);
        assert!(ids.iter().take(100).all(|&id| id < 100));
        assert!(ids.iter().skip(100).all(|&id| (100..150).contains(&id)));
        assert!(out.dataset.accesses.iter().all(|a| a.account < 150));
        assert_eq!(out.telemetry.metrics.gauge("fleet.accounts"), 150);
        let rendered = out.summary_table().render();
        assert!(rendered.contains("accounts"));
        assert!(rendered.contains("150"));
    }

    #[test]
    fn streamed_telemetry_re_merges_into_shard_telemetry_exactly() {
        let out = run_fleet(&FleetConfig::new(9, 250, 3).with_telemetry(true));
        let mut buf = Vec::new();
        let written = out
            .write_telemetry_jsonl(&mut buf)
            .expect("in-memory write cannot fail");
        let text = String::from_utf8(buf).expect("JSONL is UTF-8");
        let parsed: Vec<SpanTreeSnapshot> = text
            .lines()
            .map(|l| {
                let json = Json::parse(l).expect("valid JSON line");
                // A line holds the schema and the span tree, nothing more.
                let Json::Obj(fields) = &json else {
                    panic!("line is an object: {l}");
                };
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["schema", "spans"]);
                SpanTreeSnapshot::from_json(&fields[1].1).expect("valid span tree")
            })
            .collect();
        // One line per shard, each the shard's own span tree, in shard
        // order; span trees, roots (the phases) included, survive exactly.
        assert_eq!(written, 3);
        let shard_spans: Vec<&SpanTreeSnapshot> =
            out.shard_reports.iter().map(|r| &r.spans).collect();
        assert_eq!(parsed.iter().collect::<Vec<_>>(), shard_spans);
        assert!(parsed.iter().all(|s| !s.is_empty()));
        // The shard reports hold each shard's metrics, and the fleet's
        // merge sums them; the in-process-only series stay out of the
        // shard reports.
        let shards = TelemetryReport::merge(&out.shard_reports);
        assert!(shards.counter("webmail.logins") > 0);
        assert_eq!(
            out.telemetry.counter("webmail.logins"),
            shards.counter("webmail.logins")
        );
        assert_eq!(shards.metrics.gauge("fleet.accounts"), 0);
        assert_eq!(shards.counter("runner.runs"), 0);
    }

    #[test]
    fn shard_specs_pin_the_full_shard_identity() {
        let c = FleetConfig::new(40, 250, 2);
        let specs = c.shard_specs();
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[0].seed, 40);
        assert_eq!(specs[2].seed, 42);
        assert_eq!(specs[2].accounts, 50);
        assert_eq!(specs[2].account_base, 200);
        assert_eq!(specs[0].fault_profile, "none");
        // Fingerprints differ across shards (seed and plan size differ)
        // but are reproducible.
        assert_ne!(specs[0].config_fingerprint, specs[1].config_fingerprint);
        assert_eq!(specs, c.shard_specs());
        // The template fingerprint ignores the fleet seed but tracks the
        // experiment shape.
        assert_eq!(
            c.template_fingerprint(),
            FleetConfig::new(99, 250, 8).template_fingerprint()
        );
    }

    #[test]
    fn partial_shard_runs_merge_byte_identically_to_the_in_memory_fleet() {
        let cfg = FleetConfig::new(11, 250, 3);
        let specs = cfg.shard_specs();
        let run = run_fleet_shards(&cfg, &specs, |spec, dataset| {
            let mut writer = DatasetWriter::new(Vec::new());
            writer.write_dataset(&dataset)?;
            Ok((spec.index, writer.finish()?))
        })
        .expect("collecting into memory cannot fail");
        let indices: Vec<usize> = run.outputs.iter().map(|(i, _)| *i).collect();
        assert_eq!(indices, vec![0, 1, 2], "outputs come back in spec order");

        // Merging the shard files is per-record-kind concatenation in
        // shard order — no reparsing, so no float round-trips.
        let mut merged = String::new();
        for tag in ["access", "account", "opened_text", "gap"] {
            let prefix = format!("{{\"record\":\"{tag}\"");
            for (_, bytes) in &run.outputs {
                for line in std::str::from_utf8(bytes).expect("JSONL is UTF-8").lines() {
                    if line.starts_with(&prefix) {
                        merged.push_str(line);
                        merged.push('\n');
                    }
                }
            }
        }
        let mut direct = Vec::new();
        run_fleet(&cfg)
            .write_jsonl(&mut direct)
            .expect("in-memory write cannot fail");
        assert_eq!(merged.into_bytes(), direct);
    }

    #[test]
    fn shard_callback_errors_are_latched_and_returned() {
        let cfg = FleetConfig::new(5, 200, 2);
        let specs = cfg.shard_specs();
        let err = run_fleet_shards(&cfg, &specs, |spec, _| -> io::Result<()> {
            Err(io::Error::other(format!(
                "disk full at shard {}",
                spec.index
            )))
        })
        .expect_err("callback failure must surface");
        assert!(err.to_string().contains("disk full"));
    }

    #[test]
    fn fleet_dataset_is_fault_free_shaped() {
        let out = run_fleet(&FleetConfig::new(3, 120, 2));
        let json = out.dataset_json();
        assert!(!json.contains("\"gaps\""));
        assert!(!json.contains("\"coverage\""));
    }
}
