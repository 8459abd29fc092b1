//! End-to-end tests of the crash-safe fleet store (`pwnd fleet
//! --out-dir`): durability, resume, incremental extension, corruption
//! recovery, and the property that a mutated store is *detected* —
//! hash mismatch leading to quarantine and re-run — never silently
//! merged.

use proptest::prelude::*;
use pwnd::analysis::tables::overview;
use pwnd::core::fleet::{run_fleet, FleetConfig};
use pwnd::core::hash::Sha256;
use pwnd::serve::QueryIndex;
use pwnd::store::{
    jsonl_overview, merge_store_jsonl, run_fleet_store, shard_file_name, store_overview,
    FleetStore, Manifest, MANIFEST_FILE, MAX_MANIFEST_BYTES,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// A fresh scratch directory under the system temp dir, unique per
/// test name so concurrently running tests never collide.
fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pwnd-fleet-store-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The store's merged JSONL bytes.
fn merged(dir: &Path) -> Vec<u8> {
    let mut out = Vec::new();
    merge_store_jsonl(dir, &mut out).expect("merge over a healthy store");
    out
}

#[test]
fn store_survives_truncation_bitflip_deletion_and_manifest_loss() {
    let cfg = FleetConfig::new(41, 250, 2);
    let dir = test_dir("lifecycle");

    // The uninterrupted in-memory fleet is the reference for both the
    // merged bytes and the streamed overview.
    let reference = run_fleet(&cfg);
    let mut scratch = Vec::new();
    reference.write_jsonl(&mut scratch).unwrap();

    // Fresh build: every shard runs, and the merge is byte-identical
    // to the in-memory run.
    let run = run_fleet_store(&cfg, &dir).unwrap();
    assert_eq!((run.shards_total, run.shards_run), (3, 3));
    assert_eq!((run.shards_skipped, run.shards_recovered), (0, 0));
    assert!(!run.manifest_recovered);
    assert_eq!(merged(&dir), scratch);
    assert_eq!(store_overview(&dir).unwrap(), overview(&reference.dataset));
    // `pwnd report --input` over the merged file reads the same numbers.
    let merged_file = dir.with_extension("jsonl");
    fs::write(&merged_file, &scratch).unwrap();
    assert_eq!(
        jsonl_overview(&merged_file).unwrap(),
        overview(&reference.dataset)
    );
    // No hash vouches for the file, so every record kind is decoded.
    let lineno = scratch.iter().filter(|&&b| b == b'\n').count() + 1;
    fs::write(
        &merged_file,
        [&scratch[..], b"{\"record\":\"gap\"}\n"].concat(),
    )
    .unwrap();
    let err = jsonl_overview(&merged_file).unwrap_err().to_string();
    assert!(
        err.ends_with(&format!(".jsonl: line {lineno}: gap record: missing value")),
        "{err}"
    );
    let _ = fs::remove_file(&merged_file);

    // Resume over a healthy store runs nothing.
    let resume = run_fleet_store(&cfg, &dir).unwrap();
    assert_eq!((resume.shards_run, resume.shards_skipped), (0, 3));
    assert_eq!(merged(&dir), scratch);

    // Truncation: readers refuse, the run quarantines and re-runs
    // exactly the damaged shard, and the rebuilt store is identical.
    let shard1 = dir.join(shard_file_name(1));
    let pristine = fs::read(&shard1).unwrap();
    fs::write(&shard1, &pristine[..pristine.len() / 2]).unwrap();
    let err = merge_store_jsonl(&dir, &mut Vec::new()).unwrap_err();
    assert!(err.to_string().contains(&shard_file_name(1)), "{err}");
    let recover = run_fleet_store(&cfg, &dir).unwrap();
    assert_eq!((recover.shards_run, recover.shards_skipped), (1, 2));
    assert_eq!(recover.shards_recovered, 1);
    assert!(
        dir.join(format!("{}.corrupt", shard_file_name(1))).exists(),
        "damaged bytes are quarantined for post-mortem, not destroyed"
    );
    assert_eq!(merged(&dir), scratch);

    // A single flipped bit is just as fatal and just as recoverable.
    let shard0 = dir.join(shard_file_name(0));
    let mut bytes = fs::read(&shard0).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    fs::write(&shard0, &bytes).unwrap();
    assert!(
        store_overview(&dir).is_err(),
        "readers reject a flipped bit"
    );
    let recover = run_fleet_store(&cfg, &dir).unwrap();
    assert_eq!((recover.shards_run, recover.shards_recovered), (1, 1));
    assert_eq!(merged(&dir), scratch);

    // Deletion (crash before the file landed): missing, not corrupt —
    // re-run without a quarantine.
    fs::remove_file(dir.join(shard_file_name(2))).unwrap();
    let refill = run_fleet_store(&cfg, &dir).unwrap();
    assert_eq!((refill.shards_run, refill.shards_skipped), (1, 2));
    assert_eq!(refill.shards_recovered, 0);
    assert_eq!(merged(&dir), scratch);

    // A mangled manifest is quarantined and the whole store rebuilt —
    // without it, no shard file can be trusted.
    fs::write(dir.join(MANIFEST_FILE), "{ not a manifest").unwrap();
    let rebuild = run_fleet_store(&cfg, &dir).unwrap();
    assert!(rebuild.manifest_recovered);
    assert_eq!(rebuild.shards_run, 3);
    assert!(dir.join(format!("{MANIFEST_FILE}.corrupt")).exists());
    assert_eq!(merged(&dir), scratch);

    let _ = fs::remove_dir_all(&dir);
}

/// A manifest over the reader's cap is quarantined like a corrupt one,
/// without reading it: the writer then starts the store afresh.
#[test]
fn an_over_cap_manifest_is_quarantined_like_a_corrupt_one() {
    let dir = test_dir("over-cap");
    let store = FleetStore::open(&dir).unwrap();
    // Sparse: no byte of it is written.
    let file = fs::File::create(dir.join(MANIFEST_FILE)).unwrap();
    file.set_len(MAX_MANIFEST_BYTES + 1).unwrap();
    assert_eq!(store.load_manifest().unwrap(), (None, true));
    assert!(!dir.join(MANIFEST_FILE).exists());
    let quarantined = fs::metadata(dir.join(format!("{MANIFEST_FILE}.corrupt"))).unwrap();
    assert_eq!(quarantined.len(), MAX_MANIFEST_BYTES + 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn incremental_extension_reuses_verified_shards_and_guards_identity() {
    let dir = test_dir("extend");
    let small = FleetConfig::new(7, 100, 1);
    let first = run_fleet_store(&small, &dir).unwrap();
    assert_eq!((first.shards_total, first.shards_run), (1, 1));

    // Growing the population re-runs only the extension; shard 0's
    // bytes depend solely on (seed, index, shard size), so it is
    // reused as-is.
    let big = FleetConfig::new(7, 300, 2);
    let second = run_fleet_store(&big, &dir).unwrap();
    assert_eq!((second.shards_total, second.shards_run), (3, 2));
    assert_eq!(second.shards_skipped, 1);
    let mut scratch = Vec::new();
    run_fleet(&big).write_jsonl(&mut scratch).unwrap();
    assert_eq!(
        merged(&dir),
        scratch,
        "extended store == from-scratch fleet"
    );

    // Shrinking back skips every needed shard and keeps the extra
    // claims around for the next large run.
    let third = run_fleet_store(&small, &dir).unwrap();
    assert_eq!((third.shards_skipped, third.shards_run), (1, 0));
    let fourth = run_fleet_store(&big, &dir).unwrap();
    assert_eq!((fourth.shards_skipped, fourth.shards_run), (3, 0));

    // A different seed is refused up front, not merged.
    let err = run_fleet_store(&FleetConfig::new(8, 100, 1), &dir).unwrap_err();
    assert!(err.to_string().contains("seed 7"), "{err}");

    // So is a different experiment shape. The stored template hash is
    // edited in place — equivalent to the config changing under us.
    let manifest_path = dir.join(MANIFEST_FILE);
    let text = fs::read_to_string(&manifest_path).unwrap();
    let needle = "\"template_config_sha256\": \"";
    assert!(text.contains(needle), "manifest format changed?\n{text}");
    fs::write(
        &manifest_path,
        text.replacen(needle, "\"template_config_sha256\": \"0000", 1),
    )
    .unwrap();
    let err = run_fleet_store(&small, &dir).unwrap_err();
    assert!(
        err.to_string().contains("different experiment config"),
        "{err}"
    );

    let _ = fs::remove_dir_all(&dir);
}

/// A shard line no reader can place — an unknown tag, or no writer
/// prefix at all — fails every store reader with the shard file and
/// line number, even when the manifest hash vouches for the file.
#[test]
fn every_store_reader_rejects_a_line_it_cannot_classify() {
    let dir = test_dir("unclassified");
    run_fleet_store(&FleetConfig::new(23, 20, 1), &dir).unwrap();
    let shard = dir.join(shard_file_name(0));
    let pristine = fs::read_to_string(&shard).unwrap();
    let lineno = pristine.lines().count() + 1;
    for stray in ["{\"record\":\"bogus\",\"value\":1}", "[1]"] {
        let text = format!("{pristine}{stray}\n");
        fs::write(&shard, &text).unwrap();
        // Re-hash the shard into the manifest, so only the line is wrong.
        let manifest_path = dir.join(MANIFEST_FILE);
        let mut m = Manifest::parse(&fs::read_to_string(&manifest_path).unwrap()).unwrap();
        m.shards[0].sha256 = Sha256::digest_hex(text.as_bytes());
        fs::write(&manifest_path, m.to_json()).unwrap();

        let at = format!("{}: line {lineno}:", shard_file_name(0));
        let errors = [
            merge_store_jsonl(&dir, &mut Vec::new())
                .map(drop)
                .unwrap_err(),
            store_overview(&dir).map(drop).unwrap_err(),
            QueryIndex::from_store(&dir).map(drop).unwrap_err(),
            jsonl_overview(&shard).map(drop).unwrap_err(),
        ];
        for err in errors {
            assert!(err.to_string().contains(&at), "{stray}: {err}");
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A small single-shard store built once per mutation property, plus
/// everything needed to restore it between generated cases.
struct Fixture {
    dir: PathBuf,
    shard: PathBuf,
    shard_bytes: Vec<u8>,
    manifest: PathBuf,
    manifest_bytes: Vec<u8>,
    merged: Vec<u8>,
}

impl Fixture {
    fn build(name: &str) -> Fixture {
        let dir = test_dir(name);
        run_fleet_store(&FleetConfig::new(13, 20, 1), &dir).unwrap();
        let shard = dir.join(shard_file_name(0));
        let manifest = dir.join(MANIFEST_FILE);
        Fixture {
            shard_bytes: fs::read(&shard).unwrap(),
            manifest_bytes: fs::read(&manifest).unwrap(),
            merged: merged(&dir),
            dir,
            shard,
            manifest,
        }
    }

    fn restore(&self) {
        fs::write(&self.shard, &self.shard_bytes).unwrap();
        fs::write(&self.manifest, &self.manifest_bytes).unwrap();
    }
}

fn shard_fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| Fixture::build("prop-shard"))
}

fn manifest_fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| Fixture::build("prop-manifest"))
}

proptest! {
    /// Satellite: any single-byte mutation of a shard file is
    /// detected. Every reader refuses the store outright, and (spot-
    /// checked, since a re-run costs a full shard execution) the write
    /// path quarantines, deterministically re-runs, and converges back
    /// to the pristine bytes.
    #[test]
    fn any_single_byte_shard_mutation_is_detected_never_silently_merged(
        pos_seed in any::<u64>(),
        delta in 1u8..=255,
    ) {
        let f = shard_fixture();
        let pos = (pos_seed % f.shard_bytes.len() as u64) as usize;
        let mut mutated = f.shard_bytes.clone();
        mutated[pos] ^= delta;
        fs::write(&f.shard, &mutated).unwrap();

        let err = merge_store_jsonl(&f.dir, &mut Vec::new()).unwrap_err();
        prop_assert!(
            err.to_string().contains("does not match its manifest hash"),
            "byte {} ^ {:#04x}: {}", pos, delta, err
        );
        prop_assert!(store_overview(&f.dir).is_err());

        if pos.is_multiple_of(13) {
            let run = run_fleet_store(&FleetConfig::new(13, 20, 1), &f.dir).unwrap();
            prop_assert_eq!((run.shards_recovered, run.shards_run), (1, 1));
            prop_assert_eq!(merged(&f.dir), f.merged.clone());
            prop_assert_eq!(fs::read(&f.shard).unwrap(), f.shard_bytes.clone());
        }
        f.restore();
    }

    /// Satellite, manifest half: any single-byte mutation of the
    /// manifest either makes the store unreadable (reported as
    /// corruption) or leaves the merged bytes exactly pristine — never
    /// a third outcome.
    #[test]
    fn any_single_byte_manifest_mutation_is_rejected_or_harmless(
        pos_seed in any::<u64>(),
        delta in 1u8..=255,
    ) {
        let f = manifest_fixture();
        let pos = (pos_seed % f.manifest_bytes.len() as u64) as usize;
        let mut mutated = f.manifest_bytes.clone();
        mutated[pos] ^= delta;
        fs::write(&f.manifest, &mutated).unwrap();

        let mut out = Vec::new();
        match merge_store_jsonl(&f.dir, &mut out) {
            // A mutation that survives parsing *and* hash verification
            // (e.g. inside the `records` count, or JSON whitespace)
            // must not change a single merged byte.
            Ok(_) => prop_assert_eq!(out, f.merged.clone(), "byte {}", pos),
            Err(err) => {
                let msg = err.to_string();
                prop_assert!(
                    msg.contains("corrupt")
                        || msg.contains("does not match its manifest hash")
                        || msg.contains("missing")
                        || msg.contains("incomplete")
                        || msg.contains("not a fleet store"),
                    "byte {} ^ {:#04x}: unexpected error: {}", pos, delta, msg
                );
            }
        }
        f.restore();
    }
}
