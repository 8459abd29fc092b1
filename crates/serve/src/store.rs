//! The read side of the `pwnd-fleet-store/1` on-disk format.
//!
//! The fleet *writer* (crash-safe shard persistence, resume, recovery)
//! lives in the root crate's `store` module; this module owns the parts
//! every reader needs — the manifest model, the shard-file naming rule,
//! hash verification — and [`VerifiedStore`], the one verified entry
//! point all consumers go through: the offline merge and report paths
//! of `pwnd report`, and the [`QueryIndex`](crate::index::QueryIndex)
//! ingest of the serve daemon. Centralizing the reader here means a
//! mutated shard file or manifest entry can never be silently served:
//! every byte is re-hashed against the manifest's SHA-256 claims before
//! a single record is parsed.

use pwnd_core::fleet::ShardSpec;
use pwnd_core::hash::{hex, Sha256};
use pwnd_monitor::export::{self, Record, RecordTag};
use pwnd_telemetry::json::Json;
use std::fs::File;
use std::io::{self, BufReader, Read};
use std::path::{Path, PathBuf};

/// Manifest format tag; bump on any incompatible layout change so old
/// stores are rejected loudly instead of misread.
pub const MANIFEST_FORMAT: &str = "pwnd-fleet-store/1";

/// The manifest file name inside a store directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Largest manifest any reader takes, in bytes. A 30-shard store writes
/// about 11 KB (about 370 B per shard), so the cap fits some 45,000
/// shards; it only bounds what a damaged or hostile file can cost.
pub const MAX_MANIFEST_BYTES: u64 = 16 << 20;

/// The on-disk file name of shard `index`.
pub fn shard_file_name(index: usize) -> String {
    format!("shard-{index:05}.jsonl")
}

/// One verified-shard claim in the manifest: the shard's identity plus
/// the exact bytes its file must hash to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardEntry {
    /// The shard's identity (seed, size, account range, config hash).
    pub spec: ShardSpec,
    /// File name inside the store directory.
    pub file: String,
    /// SHA-256 of the shard file's bytes.
    pub sha256: String,
    /// JSONL records in the file.
    pub records: u64,
}

impl ShardEntry {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("index".to_string(), Json::U(self.spec.index as u64)),
            ("seed".to_string(), Json::U(self.spec.seed)),
            (
                "accounts".to_string(),
                Json::U(u64::from(self.spec.accounts)),
            ),
            (
                "account_base".to_string(),
                Json::U(u64::from(self.spec.account_base)),
            ),
            (
                "config_sha256".to_string(),
                Json::Str(self.spec.config_fingerprint.clone()),
            ),
            (
                "fault_profile".to_string(),
                Json::Str(self.spec.fault_profile.clone()),
            ),
            ("file".to_string(), Json::Str(self.file.clone())),
            ("sha256".to_string(), Json::Str(self.sha256.clone())),
            ("records".to_string(), Json::U(self.records)),
        ])
    }

    fn from_json(v: &Json) -> Option<ShardEntry> {
        let str_of = |key: &str| v.get(key).and_then(Json::as_str).map(String::from);
        Some(ShardEntry {
            spec: ShardSpec {
                index: usize::try_from(v.get("index")?.as_u64()?).ok()?,
                seed: v.get("seed")?.as_u64()?,
                accounts: u32::try_from(v.get("accounts")?.as_u64()?).ok()?,
                account_base: u32::try_from(v.get("account_base")?.as_u64()?).ok()?,
                config_fingerprint: str_of("config_sha256")?,
                fault_profile: str_of("fault_profile")?,
            },
            file: str_of("file")?,
            sha256: str_of("sha256")?,
            records: v.get("records")?.as_u64()?,
        })
    }
}

/// The versioned store manifest: which fleet this store belongs to and
/// which shards are durably on disk.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Manifest {
    /// The fleet's master seed.
    pub seed: u64,
    /// `FleetConfig::template_fingerprint` of the fleet's config shape
    /// — "same seed, different experiment" is refused up front.
    pub template_sha256: String,
    /// Verified shard claims, sorted by shard index, at most one per
    /// index.
    pub shards: Vec<ShardEntry>,
}

impl Manifest {
    /// Serialize as pretty JSON (the manifest is small and hand-read
    /// during debugging; shard files carry the bulk).
    pub fn to_json(&self) -> String {
        let obj = Json::Obj(vec![
            ("format".to_string(), Json::Str(MANIFEST_FORMAT.to_string())),
            ("seed".to_string(), Json::U(self.seed)),
            (
                "template_config_sha256".to_string(),
                Json::Str(self.template_sha256.clone()),
            ),
            (
                "shards".to_string(),
                Json::Arr(self.shards.iter().map(ShardEntry::to_json).collect()),
            ),
        ]);
        let mut text = obj.pretty();
        text.push('\n');
        text
    }

    /// Parse a manifest; `None` for anything malformed or of a foreign
    /// format (callers treat that as corruption, not an error to
    /// propagate — the store quarantines and rebuilds).
    pub fn parse(text: &str) -> Option<Manifest> {
        let v = Json::parse(text).ok()?;
        if v.get("format")?.as_str()? != MANIFEST_FORMAT {
            return None;
        }
        let mut shards = v
            .get("shards")?
            .as_array()?
            .iter()
            .map(ShardEntry::from_json)
            .collect::<Option<Vec<_>>>()?;
        shards.sort_by_key(|e| e.spec.index);
        if shards
            .windows(2)
            .any(|w| w[0].spec.index == w[1].spec.index)
        {
            return None;
        }
        Some(Manifest {
            seed: v.get("seed")?.as_u64()?,
            template_sha256: v.get("template_config_sha256")?.as_str()?.to_string(),
            shards,
        })
    }

    /// Read the manifest text of the store at `dir`, reading no more than
    /// [`MAX_MANIFEST_BYTES`]. A larger file, or one that is not UTF-8, is
    /// an [`io::ErrorKind::InvalidData`] error.
    pub fn read_text(dir: &Path) -> io::Result<String> {
        let file = File::open(dir.join(MANIFEST_FILE))?;
        if file.metadata()?.len() > MAX_MANIFEST_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{MANIFEST_FILE} is over the {} MiB cap",
                    MAX_MANIFEST_BYTES >> 20
                ),
            ));
        }
        let mut text = String::new();
        file.take(MAX_MANIFEST_BYTES).read_to_string(&mut text)?;
        Ok(text)
    }

    /// The shard claim at `index`, if any.
    pub fn entry(&self, index: usize) -> Option<&ShardEntry> {
        self.shards.iter().find(|e| e.spec.index == index)
    }

    /// Insert or replace the claim for `entry`'s index, keeping the
    /// list sorted.
    pub fn upsert(&mut self, entry: ShardEntry) {
        match self
            .shards
            .binary_search_by_key(&entry.spec.index, |e| e.spec.index)
        {
            Ok(pos) => self.shards[pos] = entry,
            Err(pos) => self.shards.insert(pos, entry),
        }
    }

    /// Total JSONL records claimed across every shard.
    pub fn records(&self) -> u64 {
        self.shards.iter().map(|e| e.records).sum()
    }
}

/// How a claimed shard file checked out on disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardState {
    /// File present, hash matches the claim.
    Verified,
    /// File absent (crash before it landed, or deleted).
    Missing,
    /// File present but its bytes don't hash to the claim.
    Corrupt,
}

/// Streaming SHA-256 of a file; `Ok(None)` when it does not exist.
pub fn file_sha256(path: &Path) -> io::Result<Option<String>> {
    let mut f = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut hasher = Sha256::new();
    let mut buf = [0u8; 65536];
    loop {
        let n = f.read(&mut buf)?;
        if n == 0 {
            break;
        }
        hasher.update(&buf[..n]);
    }
    Ok(Some(hex(&hasher.finalize())))
}

/// Verify one shard claim against the file it names inside `dir`.
pub fn shard_state(dir: &Path, entry: &ShardEntry) -> io::Result<ShardState> {
    Ok(match file_sha256(&dir.join(&entry.file))? {
        None => ShardState::Missing,
        Some(actual) if actual == entry.sha256 => ShardState::Verified,
        Some(_) => ShardState::Corrupt,
    })
}

/// A fleet store opened for reading: the manifest parsed and every
/// shard file re-hashed against its claim. Construction fails — with an
/// actionable message naming the repair command — on a missing or
/// corrupt manifest, a gap in the shard range, or any hash mismatch, so
/// no reader can consume tampered or truncated data.
#[derive(Debug)]
pub struct VerifiedStore {
    dir: PathBuf,
    manifest: Manifest,
}

impl VerifiedStore {
    /// Open and fully verify the store at `dir`: the manifest must
    /// exist, parse, and claim a contiguous shard range `0..n` whose
    /// files all hash clean.
    pub fn open(dir: &Path) -> io::Result<VerifiedStore> {
        let text = Manifest::read_text(dir).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!(
                    "{}: not a fleet store (no readable {MANIFEST_FILE}): {e}",
                    dir.display()
                ),
            )
        })?;
        let manifest = Manifest::parse(&text).ok_or_else(|| {
            io::Error::other(format!(
                "{}: {MANIFEST_FILE} is corrupt or of an unknown format; \
                 re-run `pwnd fleet --out-dir` to rebuild the store",
                dir.display()
            ))
        })?;
        for (i, e) in manifest.shards.iter().enumerate() {
            if e.spec.index != i {
                return Err(io::Error::other(format!(
                    "{}: store is incomplete (no verified shard {i}); \
                     re-run `pwnd fleet --out-dir` to fill it",
                    dir.display()
                )));
            }
            match shard_state(dir, e)? {
                ShardState::Verified => {}
                ShardState::Missing => {
                    return Err(io::Error::other(format!(
                        "{}: shard file {} is missing; re-run `pwnd fleet --out-dir`",
                        dir.display(),
                        e.file
                    )))
                }
                ShardState::Corrupt => {
                    return Err(io::Error::other(format!(
                        "{}: shard file {} does not match its manifest hash \
                         (corrupt or tampered); re-run `pwnd fleet --out-dir` to recover",
                        dir.display(),
                        e.file
                    )))
                }
            }
        }
        Ok(VerifiedStore {
            dir: dir.to_path_buf(),
            manifest,
        })
    }

    /// The verified manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Stream every line of every shard file in shard order through
    /// [`export::for_each_line`], calling `f(shard entry, 1-based line
    /// number, line)`; its errors name the shard file and line.
    pub fn for_each_line(
        &self,
        mut f: impl FnMut(&ShardEntry, usize, &str) -> io::Result<()>,
    ) -> io::Result<()> {
        for e in &self.manifest.shards {
            let reader = BufReader::new(File::open(self.dir.join(&e.file))?);
            export::for_each_line(&e.file, reader, |lineno, line| f(e, lineno, line))?;
        }
        Ok(())
    }

    /// Every record of the given `kinds`, in shard order, decoded by
    /// [`export::for_each_record`] in one pass over each shard file.
    pub fn for_each_record(
        &self,
        kinds: &[RecordTag],
        mut f: impl FnMut(Record),
    ) -> io::Result<()> {
        for e in &self.manifest.shards {
            let reader = BufReader::new(File::open(self.dir.join(&e.file))?);
            export::for_each_record(&e.file, reader, kinds, &mut f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::io::BufRead;

    fn sample_manifest() -> Manifest {
        Manifest {
            seed: 11,
            template_sha256: "t".repeat(64),
            shards: vec![ShardEntry {
                spec: ShardSpec {
                    index: 0,
                    seed: 11,
                    accounts: 100,
                    account_base: 0,
                    config_fingerprint: "c".repeat(64),
                    fault_profile: "none".to_string(),
                },
                file: shard_file_name(0),
                sha256: "a".repeat(64),
                records: 42,
            }],
        }
    }

    #[test]
    fn manifest_round_trips() {
        let m = sample_manifest();
        let text = m.to_json();
        assert!(text.contains(MANIFEST_FORMAT));
        assert_eq!(Manifest::parse(&text), Some(m));
    }

    #[test]
    fn foreign_or_malformed_manifests_rejected() {
        assert_eq!(Manifest::parse("not json"), None);
        assert_eq!(Manifest::parse("{}"), None);
        let other = sample_manifest()
            .to_json()
            .replace(MANIFEST_FORMAT, "pwnd-fleet-store/999");
        assert_eq!(Manifest::parse(&other), None);
        // Duplicate shard indices are structural corruption.
        let mut dup = sample_manifest();
        dup.shards.push(dup.shards[0].clone());
        assert_eq!(Manifest::parse(&dup.to_json()), None);
    }

    #[test]
    fn upsert_replaces_by_index_and_keeps_order() {
        let mut m = sample_manifest();
        let mut later = m.shards[0].clone();
        later.spec.index = 2;
        later.file = shard_file_name(2);
        m.upsert(later.clone());
        let mut replacement = m.shards[0].clone();
        replacement.sha256 = "b".repeat(64);
        m.upsert(replacement.clone());
        assert_eq!(m.shards.len(), 2);
        assert_eq!(m.shards[0], replacement);
        assert_eq!(m.shards[1], later);
        assert_eq!(m.records(), 84);
    }

    #[test]
    fn shard_file_names_sort_with_their_indices() {
        assert_eq!(shard_file_name(0), "shard-00000.jsonl");
        assert_eq!(shard_file_name(12345), "shard-12345.jsonl");
        assert!(shard_file_name(9) < shard_file_name(10));
    }

    /// A fresh scratch directory unique to this process and test.
    fn scratch_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pwnd-serve-store-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn file_sha256_streams_past_its_read_buffer() {
        let dir = scratch_dir("file-sha");
        let path = dir.join("big");
        // Longer than the 64 KiB read buffer, and not a whole number of
        // 64-byte blocks.
        let bytes: Vec<u8> = (0..200_003u32).map(|i| (i * 13 % 251) as u8).collect();
        fs::write(&path, &bytes).unwrap();
        assert_eq!(
            file_sha256(&path).unwrap(),
            Some(Sha256::digest_hex(&bytes))
        );
        assert_eq!(file_sha256(&dir.join("absent")).unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn for_each_line_splits_lines_as_bufread_lines_does() {
        let dir = scratch_dir("lines");
        // Store the shard `bytes` under a manifest that vouches for them.
        let store = |bytes: &[u8]| {
            fs::write(dir.join(shard_file_name(0)), bytes).unwrap();
            let mut m = sample_manifest();
            m.shards[0].sha256 = Sha256::digest_hex(bytes);
            fs::write(dir.join(MANIFEST_FILE), m.to_json()).unwrap();
            VerifiedStore::open(&dir).unwrap()
        };
        // Record-tagged lines (the reader checks only the prefix),
        // blank lines, and every line ending.
        let r = "{\"record\":\"gap\"";
        let text = format!("{r}a\r\n{r}b\n\n\r\n{r}c\rd\n \n{r}e\r");
        let mut seen = Vec::new();
        store(text.as_bytes())
            .for_each_line(|_, lineno, line| {
                seen.push((lineno, line.to_string()));
                Ok(())
            })
            .unwrap();
        let lines = text.as_bytes().lines().map(Result::unwrap);
        assert_eq!(seen, (1..).zip(lines).collect::<Vec<_>>());

        // Non-UTF-8 bytes are an error, not a lossy line.
        let bad = [r.as_bytes(), b"\n", r.as_bytes(), b"\xff\xfe\n"].concat();
        let err = store(&bad).for_each_line(|_, _, _| Ok(())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // So is a non-blank line with no record tag.
        let err = store(b"\nnot a record\n")
            .for_each_line(|_, _, _| Ok(()))
            .unwrap_err();
        assert!(
            err.to_string().contains("shard-00000.jsonl: line 2:"),
            "{err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_refuses_a_directory_with_no_manifest() {
        let dir = std::env::temp_dir().join(format!("pwnd-serve-store-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let err = VerifiedStore::open(&dir).unwrap_err();
        assert!(err.to_string().contains("not a fleet store"), "{err}");
    }

    #[test]
    fn open_refuses_an_over_cap_manifest_naming_the_cap() {
        let dir = std::env::temp_dir().join(format!("pwnd-serve-cap-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        // Sparse: no byte of it is written.
        let file = File::create(dir.join(MANIFEST_FILE)).unwrap();
        file.set_len(MAX_MANIFEST_BYTES + 1).unwrap();
        let err = VerifiedStore::open(&dir).unwrap_err();
        assert!(err.to_string().contains("over the 16 MiB cap"), "{err}");
        // At the cap the file is read, and fails as a corrupt manifest.
        file.set_len(MAX_MANIFEST_BYTES).unwrap();
        let err = VerifiedStore::open(&dir).unwrap_err();
        assert!(err.to_string().contains("is corrupt"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
