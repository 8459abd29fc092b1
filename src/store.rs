//! The crash-safe fleet store: durable sharded datasets on disk.
//!
//! `pwnd fleet --out-dir DIR` persists each shard the moment it
//! completes instead of merging everything in RAM: one JSONL file per
//! shard (account ids already rewritten to the shard's global range)
//! plus a versioned `manifest.json` recording, per shard, the seed,
//! account range, config content-hash, fault profile, and the shard
//! file's SHA-256. The layout makes three things cheap:
//!
//! * **Resume** — on restart, a shard whose manifest entry matches its
//!   spec *and* whose file hashes clean is skipped
//!   (`fleet.shards_skipped`); a `kill -9` mid-fleet costs at most the
//!   shards that were in flight.
//! * **Incremental extension** — `--accounts 1000` over an existing
//!   200-account store reuses the verified shards and runs only the
//!   extension, because shard `i`'s bytes depend only on
//!   `(fleet seed, i, shard size)`.
//! * **Recovery** — a truncated, bit-flipped, or otherwise corrupted
//!   shard fails its hash check, is quarantined as `<file>.corrupt`
//!   (`fleet.shards_recovered`), and is deterministically re-run; the
//!   rebuilt store is byte-identical to an uninterrupted run.
//!
//! This module owns the *write* side of the format. The manifest model
//! and the verified reader ([`VerifiedStore`]) live in
//! [`pwnd_serve::store`] so the query daemon can consume stores without
//! depending on the CLI crate; they are re-exported here unchanged, so
//! existing `pwnd::store::{Manifest, ShardEntry, ...}` imports keep
//! working.
//!
//! ## Atomicity protocol
//!
//! Every durable write — shard file or manifest — goes through
//! [`FleetStore::atomic_write`]: write to `<name>.tmp` in the same
//! directory, `fsync` the file, `rename` over the final name, `fsync`
//! the directory. A crash therefore leaves either the old bytes or the
//! new bytes, never a torn file; the manifest is rewritten after each
//! shard lands, so it never *claims* a shard whose file isn't already
//! durable.
//!
//! The merge ([`merge_store_jsonl`]) streams shard files once per
//! record kind in shard order, copying raw lines — no record is ever
//! reparsed or reserialized, so the merged JSONL is byte-identical to
//! [`FleetOutput::write_jsonl`](pwnd_core::FleetOutput::write_jsonl)
//! on an in-memory run of the same config, and peak memory is one line.

pub use pwnd_serve::store::{
    file_sha256, shard_file_name, shard_state, Manifest, ShardEntry, ShardState, VerifiedStore,
    MANIFEST_FILE, MANIFEST_FORMAT, MAX_MANIFEST_BYTES,
};

use pwnd_analysis::stream::OverviewBuilder;
use pwnd_analysis::tables::Overview;
use pwnd_core::fleet::{run_fleet_shards, FleetConfig, ShardSpec};
use pwnd_core::hash::Sha256;
use pwnd_monitor::export::{self, record_tag, DatasetWriter, Record, RecordTag};
use pwnd_telemetry::{Table, TelemetryReport, TelemetrySink};
use std::fs::{self, File};
use std::io::{self, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex; // lint:allow(lock-discipline): manifest guard for the resumable fleet run

/// A fleet store directory, opened for writing.
pub struct FleetStore {
    dir: PathBuf,
}

impl FleetStore {
    /// Open (creating if needed) the store directory.
    pub fn open(dir: &Path) -> io::Result<FleetStore> {
        fs::create_dir_all(dir)?;
        Ok(FleetStore {
            dir: dir.to_path_buf(),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Absolute path of a file inside the store.
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Durably replace `name` with `bytes`: same-directory temp file,
    /// `fsync`, `rename`, directory `fsync`. A crash at any point
    /// leaves either the previous file or the new one, never a torn
    /// mixture.
    pub fn atomic_write(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.dir.join(format!("{name}.tmp"));
        {
            let mut f = File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.path(name))?;
        // Make the rename itself durable.
        File::open(&self.dir)?.sync_all()?;
        Ok(())
    }

    /// Load the manifest. Returns `(manifest, quarantined)`: a missing
    /// manifest is `(None, false)` (fresh store); one over
    /// [`MAX_MANIFEST_BYTES`], not UTF-8 or malformed is quarantined as
    /// `manifest.json.corrupt` and reported as `(None, true)` — every
    /// shard then re-runs, because without the manifest no shard file
    /// can be trusted.
    pub fn load_manifest(&self) -> io::Result<(Option<Manifest>, bool)> {
        let text = match Manifest::read_text(&self.dir) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((None, false)),
            // Non-UTF-8 bytes, or more than the reader's cap, are
            // corruption like any other, not a reason to refuse to run.
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                self.quarantine(MANIFEST_FILE)?;
                return Ok((None, true));
            }
            Err(e) => return Err(e),
        };
        match Manifest::parse(&text) {
            Some(m) => Ok((Some(m), false)),
            None => {
                self.quarantine(MANIFEST_FILE)?;
                Ok((None, true))
            }
        }
    }

    /// Atomically persist the manifest.
    pub fn write_manifest(&self, m: &Manifest) -> io::Result<()> {
        self.atomic_write(MANIFEST_FILE, m.to_json().as_bytes())
    }

    /// Move `name` aside as `<name>.corrupt` (replacing any previous
    /// quarantine of the same file), preserving the bytes for a
    /// post-mortem instead of silently overwriting them.
    pub fn quarantine(&self, name: &str) -> io::Result<()> {
        fs::rename(self.path(name), self.path(&format!("{name}.corrupt")))
    }

    fn verify_shard(&self, entry: &ShardEntry) -> io::Result<ShardState> {
        shard_state(&self.dir, entry)
    }
}

/// What a store-backed fleet run did.
#[derive(Debug)]
pub struct StoreRun {
    /// The store directory.
    pub dir: PathBuf,
    /// Total honey accounts the store now covers for this config.
    pub accounts: u32,
    /// Shards the population decomposes into.
    pub shards_total: usize,
    /// Shards reused because their manifest entry verified on disk.
    pub shards_skipped: u64,
    /// Corrupted shard files quarantined and deterministically re-run.
    pub shards_recovered: u64,
    /// Shards actually executed this run.
    pub shards_run: usize,
    /// Whether a corrupt manifest was quarantined (forces a full
    /// re-run).
    pub manifest_recovered: bool,
    /// Worker threads used.
    pub jobs: usize,
    /// Merged telemetry: the runner batch (when enabled) plus the
    /// always-on `fleet.*` series, including `fleet.shards_skipped`
    /// and `fleet.shards_recovered`.
    pub telemetry: TelemetryReport,
}

impl StoreRun {
    /// The store summary table (`pwnd fleet --out-dir` output).
    pub fn summary_table(&self) -> Table {
        let mut t = Table::new(&["fleet store metric", "value"]).numeric();
        t.row(["out dir", &self.dir.display().to_string()]);
        t.row(["accounts", &self.accounts.to_string()]);
        t.row(["shards", &self.shards_total.to_string()]);
        t.row([
            "shards skipped (verified)",
            &self.shards_skipped.to_string(),
        ]);
        t.row([
            "shards recovered (corrupt)",
            &self.shards_recovered.to_string(),
        ]);
        t.row(["shards run", &self.shards_run.to_string()]);
        t.row(["jobs", &self.jobs.to_string()]);
        t
    }
}

/// Run a fleet against a persistent store: verify and reuse what's on
/// disk, quarantine what's corrupt, execute only the shards that are
/// missing or stale, and keep the manifest durably in sync after every
/// shard. See the module docs for the full protocol.
pub fn run_fleet_store(cfg: &FleetConfig, dir: &Path) -> io::Result<StoreRun> {
    let store = FleetStore::open(dir)?;
    let specs = cfg.shard_specs();
    let (manifest, manifest_recovered) = store.load_manifest()?;

    if let Some(m) = &manifest {
        if m.seed != cfg.seed {
            return Err(io::Error::other(format!(
                "fleet store {} was built with seed {}; refusing to mix in seed {} \
                 (resume with the original seed or use a fresh --out-dir)",
                dir.display(),
                m.seed,
                cfg.seed,
            )));
        }
        if m.template_sha256 != cfg.template_fingerprint() {
            return Err(io::Error::other(format!(
                "fleet store {} was built from a different experiment config \
                 (template hash {} != {}); use a fresh --out-dir",
                dir.display(),
                m.template_sha256,
                cfg.template_fingerprint(),
            )));
        }
    }

    // Plan: decide per shard between reuse, recovery, and (re-)run.
    let mut pruned = Manifest {
        seed: cfg.seed,
        template_sha256: cfg.template_fingerprint(),
        shards: Vec::new(),
    };
    let mut to_run: Vec<ShardSpec> = Vec::new();
    let mut skipped = 0u64;
    let mut recovered = 0u64;
    for spec in &specs {
        match manifest.as_ref().and_then(|m| m.entry(spec.index)) {
            Some(e) if e.spec == *spec => match store.verify_shard(e)? {
                ShardState::Verified => {
                    pruned.upsert(e.clone());
                    skipped += 1;
                }
                ShardState::Missing => to_run.push(spec.clone()),
                ShardState::Corrupt => {
                    store.quarantine(&e.file)?;
                    recovered += 1;
                    to_run.push(spec.clone());
                }
            },
            // Spec drift (e.g. yesterday's tail shard is a full shard
            // after --accounts grew): not corruption, just stale — the
            // deterministic re-run atomically replaces the file.
            Some(_) => to_run.push(spec.clone()),
            None => to_run.push(spec.clone()),
        }
    }
    // Claims beyond this run's population (a previous, larger run)
    // stay: they are someone else's shards to verify when asked for.
    if let Some(m) = &manifest {
        for e in &m.shards {
            if e.spec.index >= specs.len() {
                pruned.upsert(e.clone());
            }
        }
    }
    // Persist the pruned view before running, so no claim ever points
    // at a quarantined or about-to-be-replaced file.
    store.write_manifest(&pruned)?;

    // Execute. Each completed shard is made durable (file, then
    // manifest) from inside the worker that produced it.
    // lint:allow(lock-discipline): serializes manifest writes from fleet workers; ordering is by shard index, so the run stays deterministic
    let manifest_state = Mutex::new(pruned);
    let run = run_fleet_shards(cfg, &to_run, |spec, dataset| {
        let mut writer = DatasetWriter::new(Vec::new());
        writer.write_dataset(&dataset)?;
        let records = writer.records_written();
        let bytes = writer.finish()?;
        let file = shard_file_name(spec.index);
        store.atomic_write(&file, &bytes)?;
        let entry = ShardEntry {
            spec: spec.clone(),
            sha256: Sha256::digest_hex(&bytes),
            records,
            file,
        };
        let mut m = manifest_state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        m.upsert(entry);
        store.write_manifest(&m)
    })?;

    let sink = TelemetrySink::enabled();
    sink.gauge_set("fleet.accounts", u64::from(cfg.accounts));
    sink.gauge_set("fleet.shards", specs.len() as u64);
    sink.count_by("fleet.shards_skipped", skipped);
    sink.count_by("fleet.shards_recovered", recovered);
    sink.count_by("fleet.shards_run", run.outputs.len() as u64);

    Ok(StoreRun {
        dir: dir.to_path_buf(),
        accounts: cfg.accounts,
        shards_total: specs.len(),
        shards_skipped: skipped,
        shards_recovered: recovered,
        shards_run: run.outputs.len(),
        manifest_recovered,
        jobs: run.jobs,
        telemetry: TelemetryReport::merge(&[run.telemetry, sink.report()]),
    })
}

/// Stream-merge a verified store into one JSONL dataset on `out`,
/// byte-identical to
/// [`FleetOutput::write_jsonl`](pwnd_core::FleetOutput::write_jsonl)
/// of an uninterrupted in-memory run at the same seed/config. Walks
/// the shard files once per record kind in shard order, copying raw
/// lines — peak memory is one line. Returns records written.
pub fn merge_store_jsonl<W: Write>(dir: &Path, mut out: W) -> io::Result<u64> {
    let store = VerifiedStore::open(dir)?;
    let mut written = 0u64;
    for tag in RecordTag::ALL {
        store.for_each_line(|_, _, line| {
            if record_tag(line) == Some(tag) {
                out.write_all(line.as_bytes())?;
                out.write_all(b"\n")?;
                written += 1;
            }
            Ok(())
        })?;
    }
    out.flush()?;
    Ok(written)
}

/// Stream the §4.1 overview out of a verified store without ever
/// materializing the dataset: after [`VerifiedStore::open`]'s hash pass,
/// one pass over every shard file decodes its account and access
/// records.
pub fn store_overview(dir: &Path) -> io::Result<Overview> {
    let store = VerifiedStore::open(dir)?;
    overview_of(|f| store.for_each_record(&[RecordTag::Account, RecordTag::Access], f))
}

/// The §4.1 overview of a JSONL dataset file, such as a merged store,
/// in one pass. Every record line is decoded, so a malformed or cut
/// record is an error naming the file and line.
pub fn jsonl_overview(path: &Path) -> io::Result<Overview> {
    let name = path.display().to_string();
    let file = File::open(path)
        .map_err(|e| io::Error::new(e.kind(), format!("cannot read {name}: {e}")))?;
    overview_of(|f| export::for_each_record(&name, BufReader::new(file), &RecordTag::ALL, f))
}

/// Feed the records `read` yields into one [`OverviewBuilder`].
fn overview_of(
    read: impl FnOnce(&mut dyn FnMut(Record)) -> io::Result<()>,
) -> io::Result<Overview> {
    let mut b = OverviewBuilder::new();
    read(&mut |record| match record {
        Record::Account(a) => b.add_account(&a),
        Record::Access(a) => b.add_access(&a),
        Record::OpenedText(_) | Record::Gap(_) => {}
    })?;
    Ok(b.finish())
}
