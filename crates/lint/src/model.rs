//! Pass 1 of the workspace engine: distill each [`SourceFile`] into a
//! compact [`FileModel`].
//!
//! The workspace rules (`layering`, `lock-discipline`) need
//! *cross-file* facts — who imports whom, which modules hold locks —
//! that no single token stream holds. A `FileModel` carries everything
//! pass 2 needs and nothing else (no tokens).

use crate::findings::Finding;
use crate::source::{AllowDirective, BadAllow, SourceFile};
use std::collections::BTreeSet;

/// The distilled view of one source file: everything pass 2 reads.
#[derive(Clone, Debug, Default)]
pub struct FileModel {
    /// Workspace-relative path.
    pub path: String,
    /// Owning crate short name (`monitor`, `bin`, `tests`…).
    pub krate: String,
    /// First-party crates referenced from non-test code: `(short name,
    /// line of first reference)`.
    pub imports: Vec<(String, u32)>,
    /// First-party crates referenced from *anywhere*, including test
    /// code — the evidence that keeps a declared dep from being
    /// reported unused.
    pub all_refs: BTreeSet<String>,
    /// `(line, what)` lock/atomic/thread sites in non-test code.
    pub lock_sites: Vec<(u32, String)>,
    /// Raw pass-1 findings (per-file rules), before suppression.
    pub local_findings: Vec<Finding>,
    /// Valid `lint:allow` directives.
    pub allows: Vec<AllowDirective>,
    /// Malformed `lint:allow` directives.
    pub bad_allows: Vec<BadAllow>,
}

/// Types/fns whose presence means the file holds locks, atomics, or
/// threads. Matched as `::`-path segments.
const LOCK_SEGMENTS: &[&str] = &[
    "Mutex",
    "RwLock",
    "Condvar",
    "Barrier",
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI64",
    "AtomicIsize",
    "mpsc",
    "available_parallelism",
];

/// Distill a lexed+analyzed file into its model. `local_findings` are
/// the pass-1 per-file findings, carried into pass 2 with the model.
pub fn build(sf: &SourceFile, local_findings: Vec<Finding>) -> FileModel {
    let mut m = FileModel {
        path: sf.path.clone(),
        krate: sf.krate.clone(),
        local_findings,
        allows: sf.allows.clone(),
        bad_allows: sf.bad_allows.clone(),
        ..FileModel::default()
    };
    collect_imports(sf, &mut m);
    collect_locks(sf, &mut m);
    m
}

/// First-party crate references: any `pwnd_*` path head.
fn collect_imports(sf: &SourceFile, m: &mut FileModel) {
    let mut seen = BTreeSet::new();
    for (i, t) in sf.tokens.iter().enumerate() {
        let Some(id) = t.ident() else { continue };
        let head = id.split("::").next().unwrap_or(id);
        let Some(short) = head.strip_prefix("pwnd_") else {
            continue;
        };
        m.all_refs.insert(short.to_string());
        if !sf.is_test_token(i) && seen.insert(short.to_string()) {
            m.imports.push((short.to_string(), t.line));
        }
    }
}

/// Lock/atomic/thread sites in non-test code.
fn collect_locks(sf: &SourceFile, m: &mut FileModel) {
    let mut seen = BTreeSet::new();
    for (i, t) in sf.tokens.iter().enumerate() {
        if sf.is_test_token(i) {
            continue;
        }
        let Some(id) = t.ident() else { continue };
        let hit = if id.ends_with("thread::spawn") || id.ends_with("thread::scope") {
            Some(id.rsplit("::").next().unwrap_or(id))
        } else {
            id.split("::").find(|s| LOCK_SEGMENTS.contains(s))
        };
        if let Some(what) = hit {
            if seen.insert((t.line, what.to_string())) {
                m.lock_sites.push((t.line, what.to_string()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_of(path: &str, src: &str) -> FileModel {
        build(&SourceFile::new(path, src), Vec::new())
    }

    #[test]
    fn imports_and_all_refs_split_by_test_context() {
        let src = "use pwnd_sim::Rng;\n\
                   #[cfg(test)]\nmod tests { use pwnd_corpus::words; }\n";
        let m = model_of("crates/net/src/lib.rs", src);
        assert_eq!(m.imports, vec![("sim".to_string(), 1)]);
        assert!(m.all_refs.contains("sim") && m.all_refs.contains("corpus"));
    }

    #[test]
    fn metrics_and_locks_are_collected() {
        // A telemetry call is not a lock site, though the sink locks
        // inside its own crate.
        let src = "\
fn f(sink: &Sink, snap: &Snap) {
    sink.count(\"fleet.accounts\");
    sink.gauge_set(\"fleet.rss\", 1);
    let n = snap.counter(\"fleet.accounts\");
    let m = std::sync::Mutex::new(n);
    drop(m);
}
";
        let m = model_of("src/store.rs", src);
        assert_eq!(m.lock_sites, vec![(5, "Mutex".to_string())]);
    }
}
