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
//! ## Memory
//!
//! Shards are mapped in-worker ([`Runner::run_map`]) down to their
//! dataset plus byte accounting; the corpus text and ground truth never
//! survive the worker. `fleet.peak_rss_proxy` reports the high-water
//! per-shard resident state (interner + collections, counted from the
//! data structures — the wall clock and the OS are never consulted),
//! and the merged export can stream as JSONL via
//! [`FleetOutput::write_jsonl`] without re-materializing the JSON text.

use crate::config::ExperimentConfig;
use crate::runner::Runner;
use pwnd_leak::plan::LeakPlan;
use pwnd_monitor::dataset::Dataset;
use pwnd_monitor::export::DatasetWriter;
use pwnd_telemetry::{Table, TelemetryReport, TelemetrySink};
use std::collections::BTreeMap;
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
    /// series and phases; the `fleet.*` gauges are always recorded).
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

/// What one shard contributes to the merge: its censored dataset and
/// its peak-state byte accounting. Everything else a run produces is
/// dropped inside the worker.
struct ShardResult {
    dataset: Dataset,
    rss_proxy_bytes: u64,
}

/// Re-serializes out-of-order submissions into index order.
///
/// Workers complete shards in schedule order, but a streamed telemetry
/// file must read in shard order to be deterministic. Each completed
/// line is submitted under its shard index; lines at the write frontier
/// flush immediately, lines ahead of it park in a `BTreeMap` until the
/// gap fills. Peak buffering is bounded by how far the schedule runs
/// ahead — at most one pending line per in-flight worker — so memory
/// stays O(jobs), not O(shards).
struct OrderedLineWriter<W: Write> {
    state: Mutex<OrderedState<W>>,
}

struct OrderedState<W: Write> {
    out: W,
    next: usize,
    pending: BTreeMap<usize, String>,
    written: u64,
    error: Option<io::Error>,
}

impl<W: Write> OrderedLineWriter<W> {
    fn new(out: W) -> Self {
        OrderedLineWriter {
            state: Mutex::new(OrderedState {
                out,
                next: 0,
                pending: BTreeMap::new(),
                written: 0,
                error: None,
            }),
        }
    }

    /// Submit `line` (without trailing newline) as entry `index`.
    /// Write errors are latched and re-raised by [`Self::finish`].
    fn submit(&self, index: usize, line: String) {
        let mut s = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if s.error.is_some() {
            return;
        }
        s.pending.insert(index, line);
        loop {
            let next = s.next;
            let Some(line) = s.pending.remove(&next) else {
                break;
            };
            if let Err(e) = s
                .out
                .write_all(line.as_bytes())
                .and_then(|()| s.out.write_all(b"\n"))
            {
                s.error = Some(e);
                return;
            }
            s.written += 1;
            s.next += 1;
        }
    }

    /// Flush and surface any latched write error; returns lines written.
    fn finish(self) -> io::Result<u64> {
        let mut s = self
            .state
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(e) = s.error {
            return Err(e);
        }
        s.out.flush()?;
        Ok(s.written)
    }
}

/// The merged result of a fleet run.
pub struct FleetOutput {
    /// The fleet-wide censored dataset, account ids re-numbered
    /// globally (shard `i` occupies ids `[i * 100, i * 100 + size)`).
    pub dataset: Dataset,
    /// Merged telemetry: per-shard reports (when enabled) plus the
    /// always-on `fleet.*` gauges.
    pub telemetry: TelemetryReport,
    /// The merge of *only* the per-shard run reports, in shard order —
    /// exactly what re-merging a streamed `--telemetry-out` file
    /// reproduces (no `runner.*` / `fleet.*` series, which exist only
    /// in-process). Empty unless telemetry was enabled.
    pub shard_telemetry: TelemetryReport,
    /// Total honey accounts simulated.
    pub accounts: u32,
    /// Shards the population was split into.
    pub shards: usize,
    /// Worker threads the shards ran across.
    pub jobs: usize,
    /// High-water per-shard resident state, in bytes (interned webmail
    /// state + built dataset, from collection accounting).
    pub peak_rss_proxy: u64,
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

    /// The fleet summary table: population, shard layout, access and
    /// detection totals, and the peak-state byte accounting.
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
        t.row(["peak shard state (bytes)", &self.peak_rss_proxy.to_string()]);
        t.row([
            "merged dataset (bytes)",
            &self.dataset.heap_bytes().to_string(),
        ]);
        t
    }
}

/// Run a whole fleet: shard the population, execute the shards on the
/// runner, merge datasets and telemetry deterministically.
pub fn run_fleet(cfg: &FleetConfig) -> FleetOutput {
    run_fleet_observed(cfg, |_, _| {})
}

/// [`run_fleet`] that additionally streams each shard's telemetry
/// report as one JSONL line into `telemetry_out`, in shard order,
/// while the fleet is still running. Telemetry is forced on. Peak
/// streaming memory is O(jobs) buffered lines (see
/// `OrderedLineWriter`), so a 100k-account fleet's telemetry leaves
/// the process without ever being held whole.
///
/// The streamed lines re-merge (`TelemetryReport::merge` over
/// `TelemetryReport::from_json_line`) into exactly
/// [`FleetOutput::shard_telemetry`] — `pwnd profile --input` relies on
/// this.
pub fn run_fleet_streaming<W: Write + Send>(
    cfg: &FleetConfig,
    telemetry_out: W,
) -> io::Result<FleetOutput> {
    let cfg = cfg.clone().with_telemetry(true);
    let writer = OrderedLineWriter::new(telemetry_out);
    let out = run_fleet_observed(&cfg, |index, report| {
        writer.submit(index, report.to_json_line());
    });
    let written = writer.finish()?;
    debug_assert_eq!(written, out.shards as u64);
    Ok(out)
}

/// What a store-backed partial fleet run reports: no merged dataset —
/// the shards left the process through the `on_shard` callback — just
/// the batch telemetry and accounting.
#[derive(Debug)]
pub struct ShardRunSummary {
    /// Merged batch telemetry (`runner.*` series plus per-shard reports
    /// when [`FleetConfig::telemetry`] is on).
    pub telemetry: TelemetryReport,
    /// Worker threads the shards ran across.
    pub jobs: usize,
    /// High-water per-shard resident state, in bytes.
    pub peak_rss_proxy: u64,
    /// Shards actually executed.
    pub shards_run: usize,
}

/// Run only the given shards of a fleet, handing each shard's finished
/// JSONL bytes (account ids already rewritten to the shard's global
/// range) to `on_shard` from inside the worker that produced it.
///
/// This is the fleet store's engine: the store decides which shards
/// need (re-)running, and `on_shard` writes each one durably the moment
/// it completes — so a crash costs at most the shards in flight, and
/// peak memory is O(jobs) serialized shards, never the merged fleet.
/// Because ids are globalized before serialization, shard files merge
/// by per-record-kind concatenation in shard order, byte-identical to
/// [`FleetOutput::write_jsonl`] on an in-memory run.
///
/// `on_shard` may be called in any completion order; its first error is
/// latched, remaining completions are discarded, and the error is
/// returned after the batch joins.
pub fn run_fleet_shards<F>(
    cfg: &FleetConfig,
    specs: &[ShardSpec],
    on_shard: F,
) -> io::Result<ShardRunSummary>
where
    F: Fn(&ShardSpec, &[u8]) -> io::Result<()> + Sync,
{
    let configs: Vec<ExperimentConfig> = specs
        .iter()
        .map(|s| cfg.shard_config(s.index, s.accounts))
        .collect();
    let error: Mutex<Option<io::Error>> = Mutex::new(None);
    let runner = Runner::new(cfg.jobs).with_telemetry(cfg.telemetry);
    let batch = runner.run_map(
        configs,
        |slot, output| {
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
            let outcome = (|| {
                let mut bytes = Vec::new();
                let mut writer = DatasetWriter::new(&mut bytes);
                writer.write_dataset(&dataset)?;
                writer.finish()?;
                let failing = error
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .is_some();
                if failing {
                    Ok(()) // the batch is already dead; drop this shard
                } else {
                    on_shard(spec, &bytes)
                }
            })();
            if let Err(e) = outcome {
                error
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .get_or_insert(e);
            }
            output.rss_proxy_bytes
        },
        |_, _| {},
    );
    if let Some(e) = error
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
    {
        return Err(e);
    }
    Ok(ShardRunSummary {
        telemetry: batch.telemetry,
        jobs: batch.jobs,
        peak_rss_proxy: batch.outputs.into_iter().max().unwrap_or(0),
        shards_run: specs.len(),
    })
}

/// Shared fleet body: `observe(index, report)` fires in-worker as each
/// shard completes (completion order, not shard order).
fn run_fleet_observed<O: Fn(usize, &TelemetryReport) + Sync>(
    cfg: &FleetConfig,
    observe: O,
) -> FleetOutput {
    let sizes = cfg.shard_sizes();
    let configs: Vec<ExperimentConfig> = sizes
        .iter()
        .enumerate()
        .map(|(i, &size)| cfg.shard_config(i, size))
        .collect();

    // Keep each shard's own report so `shard_telemetry` (the streamed
    // view) can be merged in shard order after the join.
    let shard_reports: Mutex<Vec<Option<TelemetryReport>>> =
        Mutex::new((0..sizes.len()).map(|_| None).collect());
    let runner = Runner::new(cfg.jobs).with_telemetry(cfg.telemetry);
    let batch = runner.run_map(
        configs,
        |_, output| ShardResult {
            rss_proxy_bytes: output.rss_proxy_bytes,
            dataset: output.dataset,
        },
        |index, report| {
            observe(index, report);
            if cfg.telemetry {
                let mut slots = shard_reports
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                slots[index] = Some(report.clone());
            }
        },
    );
    let shard_telemetry = TelemetryReport::merge(
        &shard_reports
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .into_iter()
            .flatten()
            .collect::<Vec<_>>(),
    );

    // Merge in shard (submission) order, re-numbering account ids into
    // disjoint global ranges.
    let fleet_sink = TelemetrySink::enabled();
    let mut dataset = Dataset::default();
    let mut peak = 0u64;
    for (i, shard) in batch.outputs.into_iter().enumerate() {
        let base = (i as u32) * SHARD_ACCOUNTS;
        peak = peak.max(shard.rss_proxy_bytes);
        for mut a in shard.dataset.accesses {
            a.account += base;
            dataset.accesses.push(a);
        }
        for mut a in shard.dataset.accounts {
            a.account += base;
            dataset.accounts.push(a);
        }
        dataset.opened_texts.extend(shard.dataset.opened_texts);
        for mut g in shard.dataset.gaps {
            g.account += base;
            dataset.gaps.push(g);
        }
    }

    fleet_sink.gauge_set("fleet.accounts", u64::from(cfg.accounts));
    fleet_sink.gauge_set("fleet.shards", sizes.len() as u64);
    fleet_sink.gauge_max("fleet.peak_rss_proxy", peak);
    fleet_sink.gauge_max("fleet.merged_dataset_bytes", dataset.heap_bytes() as u64);

    let telemetry = TelemetryReport::merge(&[batch.telemetry, fleet_sink.report()]);

    FleetOutput {
        dataset,
        telemetry,
        shard_telemetry,
        accounts: cfg.accounts,
        shards: sizes.len(),
        jobs: batch.jobs,
        peak_rss_proxy: peak,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(out.peak_rss_proxy > 0);
        assert_eq!(out.telemetry.metrics.gauge("fleet.accounts"), 150);
        assert!(out.telemetry.metrics.gauge("fleet.peak_rss_proxy") > 0);
        let rendered = out.summary_table().render();
        assert!(rendered.contains("accounts"));
        assert!(rendered.contains("150"));
    }

    #[test]
    fn streamed_telemetry_re_merges_into_shard_telemetry_exactly() {
        let mut buf = Vec::new();
        let out = run_fleet_streaming(&FleetConfig::new(9, 250, 3), &mut buf)
            .expect("in-memory write cannot fail");
        let text = String::from_utf8(buf).expect("JSONL is UTF-8");
        let parsed: Vec<TelemetryReport> = text
            .lines()
            .map(|l| TelemetryReport::from_json_line(l).expect("valid report line"))
            .collect();
        // One line per shard, in shard order (shard sizes are 100/100/50,
        // recoverable from each line's account-indexed counters).
        assert_eq!(parsed.len(), out.shards);
        let merged = TelemetryReport::merge(&parsed);
        assert_eq!(merged, out.shard_telemetry);
        assert_eq!(merged.phases, out.shard_telemetry.phases);
        assert_eq!(merged.spans, out.shard_telemetry.spans);
        assert!(merged.counter("webmail.logins") > 0);
        assert!(!merged.spans.is_empty());
        // The streamed view has no in-process-only series.
        assert_eq!(merged.metrics.gauge("fleet.accounts"), 0);
        assert_eq!(merged.counter("runner.runs"), 0);
    }

    #[test]
    fn ordered_writer_reorders_out_of_order_submissions() {
        let w = OrderedLineWriter::new(Vec::new());
        w.submit(2, "two".to_string());
        w.submit(0, "zero".to_string());
        w.submit(1, "one".to_string());
        let state = w
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        assert_eq!(state.written, 3);
        assert!(state.pending.is_empty());
        drop(state);
        let out = {
            let s = w
                .state
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            s.out
        };
        assert_eq!(String::from_utf8(out).unwrap(), "zero\none\ntwo\n");
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
        let shards: Mutex<BTreeMap<usize, Vec<u8>>> = Mutex::new(BTreeMap::new());
        let summary = run_fleet_shards(&cfg, &specs, |spec, bytes| {
            shards
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .insert(spec.index, bytes.to_vec());
            Ok(())
        })
        .expect("collecting into memory cannot fail");
        assert_eq!(summary.shards_run, 3);
        assert!(summary.peak_rss_proxy > 0);

        // Merging the shard files is per-record-kind concatenation in
        // shard order — no reparsing, so no float round-trips.
        let shards = shards
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut merged = String::new();
        for tag in ["access", "account", "opened_text", "gap"] {
            let prefix = format!("{{\"record\":\"{tag}\"");
            for bytes in shards.values() {
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
        let err = run_fleet_shards(&cfg, &specs, |spec, _| {
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
