//! Pass 1 of the workspace engine: distill each [`SourceFile`] into a
//! compact [`FileModel`].
//!
//! The workspace rules (`layering`, `schema-drift`, `lock-discipline`)
//! need *cross-file* facts — who imports whom, where record tags are
//! defined versus used, which modules hold locks — that no single token
//! stream holds. A `FileModel` carries everything pass 2 needs and
//! nothing else (no tokens).

use crate::findings::Finding;
use crate::lexer::{Token, TokenKind};
use crate::source::{AllowDirective, BadAllow, Role, SourceFile};
use std::collections::BTreeSet;

/// One `const NAME: &str = "value";` inside the item marked
/// `lint:jsonl-tags` — a canonical record-kind tag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TagDef {
    /// The const's identifier (`ACCESS`).
    pub name: String,
    /// The tag string (`access`).
    pub value: String,
    /// 1-based line of the const.
    pub line: u32,
}

/// The distilled view of one function.
#[derive(Clone, Debug, Default)]
pub struct FnModel {
    /// Function name (bare, no path).
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Test code (skipped by every workspace rule).
    pub is_test: bool,
    /// Marked `lint:jsonl-emit`.
    pub jsonl_emit: bool,
    /// Marked `lint:jsonl-consume`.
    pub jsonl_consume: bool,
    /// ALL_CAPS path tails referenced in the body (`tags::ACCESS` →
    /// `ACCESS`) — how emit/consume sites prove they use the tag table.
    pub tag_refs: BTreeSet<String>,
    /// `(value, line)` string literals in the body, for the inline-tag
    /// half of `schema-drift`.
    pub str_lits: Vec<(String, u32)>,
}

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
    /// Functions, in source order.
    pub fns: Vec<FnModel>,
    /// Record tags defined by a `lint:jsonl-tags` item in this file.
    pub tag_defs: Vec<TagDef>,
    /// `(metric name, line)` telemetry emit sites with a literal name.
    pub metric_emits: Vec<(String, u32)>,
    /// `(metric name, line)` telemetry lookup sites with a literal name.
    pub metric_consumes: Vec<(String, u32)>,
    /// `(line, what)` lock/atomic/thread sites in non-test code.
    pub lock_sites: Vec<(u32, String)>,
    /// Raw pass-1 findings (per-file rules), before suppression.
    pub local_findings: Vec<Finding>,
    /// Valid `lint:allow` directives.
    pub allows: Vec<AllowDirective>,
    /// Malformed `lint:allow` directives.
    pub bad_allows: Vec<BadAllow>,
}

/// Telemetry sink methods that *emit* a metric; the literal first
/// argument is the metric name.
const METRIC_EMIT_METHODS: &[&str] = &[
    "count",
    "count_by",
    "count_labeled",
    "count_labeled_by",
    "gauge_set",
    "gauge_max",
    "observe",
    "observe_labeled",
];

/// Snapshot methods that *consume* a metric by name.
const METRIC_CONSUME_METHODS: &[&str] = &["counter", "gauge"];

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
    collect_metrics(sf, &mut m);
    collect_locks(sf, &mut m);
    collect_fns(sf, &mut m);
    collect_tag_defs(sf, &mut m);
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

/// Telemetry metric emit/consume sites with literal names.
fn collect_metrics(sf: &SourceFile, m: &mut FileModel) {
    let toks = &sf.tokens;
    for i in 0..toks.len() {
        if sf.is_test_token(i) {
            continue;
        }
        let Some(id) = toks[i].ident() else { continue };
        let last = id.rsplit("::").next().unwrap_or(id);
        let is_method = i > 0 && toks[i - 1].is_punct('.');
        if !is_method || !toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        let Some(name) = toks.get(i + 2).and_then(Token::str_lit) else {
            continue;
        };
        if METRIC_EMIT_METHODS.contains(&last) {
            m.metric_emits.push((name.to_string(), toks[i].line));
        } else if METRIC_CONSUME_METHODS.contains(&last) {
            m.metric_consumes.push((name.to_string(), toks[i].line));
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

/// Per-fn distillation: roles, tag references, string literals.
fn collect_fns(sf: &SourceFile, m: &mut FileModel) {
    // A role directive marks the first fn at or just below its
    // `applies_to` line (a small gap tolerates attributes between the
    // directive and the `fn`).
    let role_for = |fn_line: u32, role: Role| {
        sf.roles.iter().any(|r| {
            r.role == role
                && r.applies_to <= fn_line
                && fn_line.saturating_sub(r.applies_to) <= 3
                && !sf
                    .fns
                    .iter()
                    .any(|o| o.line >= r.applies_to && o.line < fn_line)
        })
    };
    for f in &sf.fns {
        let mut fm = FnModel {
            name: f.name.clone(),
            line: f.line,
            is_test: f.is_test || sf.is_test_token(f.body.0),
            jsonl_emit: role_for(f.line, Role::JsonlEmit),
            jsonl_consume: role_for(f.line, Role::JsonlConsume),
            ..FnModel::default()
        };
        for t in &sf.tokens[f.body.0 + 1..f.body.1] {
            match &t.kind {
                TokenKind::Str(s) => fm.str_lits.push((s.clone(), t.line)),
                TokenKind::Ident(id) => {
                    // ALL_CAPS path tails (tag-table references).
                    let last = id.rsplit("::").next().unwrap_or(id);
                    if last.len() > 1
                        && last
                            .chars()
                            .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit())
                    {
                        fm.tag_refs.insert(last.to_string());
                    }
                }
                _ => {}
            }
        }
        m.fns.push(fm);
    }
}

/// Extract `const NAME: &str = "value";` defs from the item marked
/// `lint:jsonl-tags` (a `mod` block or a single const).
fn collect_tag_defs(sf: &SourceFile, m: &mut FileModel) {
    let toks = &sf.tokens;
    for r in &sf.roles {
        if r.role != Role::JsonlTags {
            continue;
        }
        let Some(start) = toks.iter().position(|t| t.line >= r.applies_to) else {
            continue;
        };
        // Item extent: matching brace of the first `{`, or the first `;`.
        let mut depth = 0i32;
        let mut end = toks.len();
        for (k, t) in toks.iter().enumerate().skip(start) {
            match t.kind {
                TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct('}') => {
                    depth -= 1;
                    if depth <= 0 {
                        end = k;
                        break;
                    }
                }
                TokenKind::Punct(';') if depth == 0 => {
                    end = k;
                    break;
                }
                _ => {}
            }
        }
        for k in start..end {
            if toks[k].ident() != Some("const") {
                continue;
            }
            let Some(name) = toks.get(k + 1).and_then(Token::ident) else {
                continue;
            };
            // `const NAME: &str = "value"` — find the string before the
            // terminating `;`.
            for t in toks.iter().skip(k + 2).take(8) {
                if t.is_punct(';') {
                    break;
                }
                if let Some(v) = t.str_lit() {
                    m.tag_defs.push(TagDef {
                        name: name.to_string(),
                        value: v.to_string(),
                        line: toks[k].line,
                    });
                    break;
                }
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
    fn fn_roles_calls_and_alloc_sites() {
        let src = "\
// lint:jsonl-emit
pub fn emit(&self) -> String {
    format!(\"{}\", self.name)
}
fn helper(x: String) { drop(x); }
";
        let m = model_of("crates/webmail/src/x.rs", src);
        assert!(m.fns[0].jsonl_emit);
        assert!(!m.fns[0].jsonl_consume);
        assert!(!m.fns[1].jsonl_emit);
    }

    #[test]
    fn tag_defs_and_refs_are_extracted() {
        let src = "\
// lint:jsonl-tags
pub mod tags {
    /// doc
    pub const ACCESS: &str = \"access\";
    pub const GAP: &str = \"gap\";
}
// lint:jsonl-emit
fn emit() { line(tags::ACCESS); }
";
        let m = model_of("crates/monitor/src/x.rs", src);
        assert_eq!(m.tag_defs.len(), 2);
        assert_eq!(m.tag_defs[0].name, "ACCESS");
        assert_eq!(m.tag_defs[0].value, "access");
        let emit = m.fns.iter().find(|f| f.name == "emit").unwrap();
        assert!(emit.jsonl_emit);
        assert!(emit.tag_refs.contains("ACCESS"));
    }

    #[test]
    fn metrics_and_locks_are_collected() {
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
        assert_eq!(m.metric_emits.len(), 2);
        assert_eq!(m.metric_consumes, vec![("fleet.accounts".to_string(), 4)]);
        assert_eq!(m.lock_sites, vec![(5, "Mutex".to_string())]);
    }
}
