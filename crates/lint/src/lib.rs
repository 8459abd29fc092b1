//! `pwnd-lint`: workspace determinism and invariant linter.
//!
//! The simulation's core contract is that a run is a pure function of
//! `(seed, config)`. That property is easy to break silently: one
//! `Instant::now()` in a scoring path, one `HashMap` iteration feeding a
//! report, one `thread_rng()` in a constructor, and runs stop being
//! reproducible without any test failing. This crate is a small,
//! dependency-free static-analysis pass that walks every source file in
//! the workspace and enforces the named invariants from DESIGN.md:
//!
//! - [`rules::WALL_CLOCK`] — no host-time reads in deterministic crates.
//! - [`rules::HASH_ORDER`] — no `HashMap`/`HashSet` outside test code;
//!   ordered work uses `BTreeMap`/`BTreeSet`.
//! - [`rules::AMBIENT_RNG`] — all randomness flows from the seeded
//!   streams in `pwnd-sim`.
//! - [`rules::ENV_IO`] — pure crates touch no environment, filesystem,
//!   process, or socket APIs.
//! - [`rules::PANIC_HAZARD`] — the resilient monitor parse/retry paths
//!   stay panic-free.
//!
//! False positives are suppressed *in the source*, with a reason:
//!
//! ```text
//! let v = per[&key]; // lint:allow(panic-hazard): key inserted 3 lines up
//! ```
//!
//! Suppressions are themselves linted: an unknown rule id or a missing
//! reason is a `bad-allow` finding, and a directive that suppresses
//! nothing is `unused-allow`, so stale allows cannot accumulate.
//!
//! There is no `syn` here (the build environment is offline), so the
//! pass runs on a hand-rolled token stream ([`lexer`]) with file-local
//! token checks ([`source`], [`engine`]). The design bias is to
//! over-approximate: a rare false positive costs one explicit, reasoned
//! `lint:allow`; a false negative costs a nondeterministic run that may
//! go unnoticed for months.

pub mod engine;
pub mod findings;
pub mod lexer;
pub mod manifest;
pub mod model;
pub mod rules;
pub mod source;
pub mod workspace_rules;

pub use engine::{analyze_file, lint_files, lint_files_with, lint_models, WorkspaceCtx};
pub use findings::{Finding, LintReport};
pub use rules::{RuleMeta, ALL_RULES};

use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["vendor", "target", ".git", "node_modules"];

/// Subtrees excluded from the workspace scan: the linter's own fixture
/// corpus is *made of* seeded violations.
const SKIP_PREFIXES: &[&str] = &["crates/lint/tests"];

/// Walk upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Collect every `.rs` file under `root` as `(workspace-relative path,
/// contents)`, in sorted path order so the report is stable across
/// hosts and filesystems. Vendored crates, build output, and the lint
/// fixture corpus are excluded.
pub fn scan_root(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            let rel = rel_path(root, &path);
            if path.is_dir() {
                if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                    continue;
                }
                if SKIP_PREFIXES
                    .iter()
                    .any(|p| rel == *p || rel.starts_with(&format!("{p}/")))
                {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let text = std::fs::read_to_string(&path)?;
                files.push((rel, text));
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Reject unknown rule ids before doing any work: a filter that names a
/// rule the engine does not have would otherwise pass vacuously — the
/// exact silent-green failure a CI gate must not allow.
fn validate_rule_filter(only: Option<&BTreeSet<String>>) -> io::Result<()> {
    if let Some(rules) = only {
        for id in rules {
            if !rules::is_known_rule(id) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("unknown rule `{id}` (known: {})", known_rule_ids()),
                ));
            }
        }
    }
    Ok(())
}

/// Comma-separated known rule ids, for error messages.
pub fn known_rule_ids() -> String {
    rules::ALL_RULES
        .iter()
        .map(|r| r.id)
        .collect::<Vec<_>>()
        .join(", ")
}

/// Load the pass-2 workspace context: `LAYERING.toml` and every
/// `Cargo.toml`'s dependency declarations. A missing or unparseable
/// manifest is not an error — it becomes a `layering` finding, so
/// deleting the manifest fails the gate instead of disabling it.
pub fn load_ctx(root: &Path) -> io::Result<WorkspaceCtx> {
    let mut ctx = WorkspaceCtx::default();
    let manifest_path = root.join("LAYERING.toml");
    match std::fs::read_to_string(&manifest_path) {
        Ok(text) => match manifest::LayeringManifest::parse(&text) {
            Ok(m) => ctx.manifest = Some(m),
            Err(e) => ctx.extra.push(Finding {
                path: "LAYERING.toml".to_string(),
                line: 1,
                rule: rules::LAYERING.to_string(),
                message: format!("LAYERING.toml is unparseable ({e}); the layering gate is down"),
            }),
        },
        Err(_) => ctx.extra.push(Finding {
            path: "LAYERING.toml".to_string(),
            line: 1,
            rule: rules::LAYERING.to_string(),
            message: "LAYERING.toml not found at the workspace root — the architecture \
                      manifest is mandatory"
                .to_string(),
        }),
    }
    // Root package + every crates/* package.
    if let Ok(text) = std::fs::read_to_string(root.join("Cargo.toml")) {
        ctx.cargo
            .push(manifest::parse_cargo_deps("bin", "Cargo.toml", &text));
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            let Some(name) = dir.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let manifest_file = dir.join("Cargo.toml");
            if let Ok(text) = std::fs::read_to_string(&manifest_file) {
                ctx.cargo.push(manifest::parse_cargo_deps(
                    name,
                    &format!("crates/{name}/Cargo.toml"),
                    &text,
                ));
            }
        }
    }
    Ok(ctx)
}

/// Scan and lint the whole workspace rooted at `root`, optionally
/// restricted to the rule ids in `only`. Unknown ids in `only` are an
/// `InvalidInput` error, never a silent pass.
pub fn lint_workspace(root: &Path, only: Option<&BTreeSet<String>>) -> io::Result<LintReport> {
    validate_rule_filter(only)?;
    let files = scan_root(root)?;
    let ctx = load_ctx(root)?;
    Ok(engine::lint_files_with(&files, &ctx, only))
}

/// `root`-relative path with forward slashes (the form rule scoping and
/// reports use on every platform).
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_the_workspace_root_from_this_crate() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("Cargo.toml").exists());
        assert!(root.join("crates").is_dir());
    }

    #[test]
    fn scan_skips_vendor_and_fixtures() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        let files = scan_root(&root).expect("scan");
        assert!(!files.is_empty());
        assert!(files.iter().all(|(p, _)| !p.starts_with("vendor/")));
        assert!(files.iter().all(|(p, _)| !p.starts_with("target/")));
        assert!(files
            .iter()
            .all(|(p, _)| !p.starts_with("crates/lint/tests")));
        assert!(files.iter().any(|(p, _)| p == "crates/sim/src/rng.rs"));
        // Sorted, so reports are byte-stable across hosts.
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted);
    }
}
