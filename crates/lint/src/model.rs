//! Pass 1 of the workspace engine: distill each [`SourceFile`] into a
//! compact [`FileModel`].
//!
//! The workspace rules (`layering`, `alloc-hot`, `schema-drift`,
//! `lock-discipline`) need *cross-file* facts — who imports whom, which
//! functions call which, where record tags are defined versus used —
//! that no single token stream holds. A `FileModel` carries everything
//! pass 2 needs and nothing else (no tokens).
//!
//! Everything here is an over-approximation by design: a call edge that
//! does not really exist only makes `alloc-hot` stricter, and a missed
//! edge costs one explicit `lint:hot-root` closer to the allocation.

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
    /// Marked `lint:hot-root`: an `alloc-hot` reachability anchor.
    pub hot_root: bool,
    /// Marked `lint:jsonl-emit`.
    pub jsonl_emit: bool,
    /// Marked `lint:jsonl-consume`.
    pub jsonl_consume: bool,
    /// Bare names this body calls (stoplist-filtered, lowercase-initial
    /// only), each with whether the call site sits inside a loop — the
    /// cross-file call-graph edges, resolved in pass 2.
    pub calls: BTreeSet<(String, bool)>,
    /// `(line, what, in_loop)` candidate allocation sites in the body.
    /// `alloc-hot` only fires when the allocation repeats: the site is
    /// in a loop, or the fn was reached through an in-loop call edge.
    pub alloc_sites: Vec<(u32, String, bool)>,
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

/// Call-graph stoplist: method names so ubiquitous that a bare-name
/// match would connect everything to everything. Edges through these
/// are dropped; a hot path through one of them needs its own
/// `lint:hot-root` on the callee.
const CALL_STOPLIST: &[&str] = &[
    "new",
    "default",
    "clone",
    "fmt",
    "from",
    "into",
    "try_from",
    "try_into",
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "flatten",
    "and_then",
    "or_else",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "expect",
    "ok",
    "err",
    "ok_or",
    "ok_or_else",
    "collect",
    "extend",
    "contains",
    "contains_key",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "binary_search",
    "binary_search_by",
    "min",
    "max",
    "min_by_key",
    "max_by_key",
    "sum",
    "count",
    "any",
    "all",
    "find",
    "position",
    "fold",
    "for_each",
    "rev",
    "take",
    "skip",
    "zip",
    "chain",
    "enumerate",
    "last",
    "first",
    "split",
    "join",
    "trim",
    "starts_with",
    "ends_with",
    "replace",
    "parse",
    "to_string",
    "to_owned",
    "to_vec",
    "as_str",
    "as_ref",
    "as_bytes",
    "as_slice",
    "entry",
    "or_insert",
    "or_insert_with",
    "keys",
    "values",
    "drain",
    "retain",
    "clear",
    "write",
    "writeln",
    "write_all",
    "flush",
    "push_str",
    "with_capacity",
    "saturating_add",
    "saturating_sub",
    "saturating_mul",
    "wrapping_add",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "checked_div",
    "cmp",
    "partial_cmp",
    "eq",
    "ne",
    "hash",
    "drop",
    "clamp",
    "abs",
    "floor",
    "ceil",
    "round",
    "sqrt",
    "ln",
    "exp",
    "powi",
    "powf",
    "pow",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "copied",
    "cloned",
    "windows",
    "chunks",
    "swap",
    "get_or_insert_with",
    "then",
    "then_some",
    "min_by",
    "max_by",
    "dedup",
    "truncate",
    "resize",
    "partition_point",
    "lock",
    "read",
    "read_to_string",
    "lines",
    "chars",
    "bytes",
    "splitn",
    "split_once",
    "strip_prefix",
    "strip_suffix",
    "to_ascii_lowercase",
    "to_lowercase",
    "to_uppercase",
    "finish",
    "finalize",
    "update",
];

/// Allocation shapes `alloc-hot` flags in hot-reachable code: the
/// remedies (reused buffers, `with_capacity` hoisted out of the loop,
/// borrowing) are deliberately *not* in this list.
const ALLOC_METHODS: &[&str] = &["to_string", "to_owned", "to_vec", "clone"];
const ALLOC_CTORS: &[(&str, &str)] = &[
    ("String", "new"),
    ("String", "from"),
    ("Vec", "new"),
    ("VecDeque", "new"),
    ("HashMap", "new"),
    ("HashSet", "new"),
    ("BTreeMap", "new"),
    ("BTreeSet", "new"),
    ("Box", "new"),
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

/// Whether a bare callee name survives the call-graph filter.
fn is_call_candidate(last: &str) -> bool {
    !CALL_STOPLIST.contains(&last)
        && last
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
}

/// Per-fn distillation: roles, calls, allocation sites, tag references,
/// string literals.
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
            hot_root: role_for(f.line, Role::HotRoot),
            jsonl_emit: role_for(f.line, Role::JsonlEmit),
            jsonl_consume: role_for(f.line, Role::JsonlConsume),
            ..FnModel::default()
        };
        let toks = &sf.tokens;
        // Loop-region tracking: a brace stack where each frame remembers
        // whether its `{` was opened by `for`/`while`/`loop`. An
        // allocation only *repeats* when some enclosing frame is a loop.
        let mut frames: Vec<bool> = Vec::new();
        let mut pending_loop = false;
        for k in f.body.0 + 1..f.body.1 {
            match &toks[k].kind {
                TokenKind::Punct('{') => {
                    frames.push(pending_loop);
                    pending_loop = false;
                }
                TokenKind::Punct('}') => {
                    frames.pop();
                }
                _ => {}
            }
            let in_loop = frames.iter().any(|&l| l);
            match &toks[k].kind {
                TokenKind::Str(s) => fm.str_lits.push((s.clone(), toks[k].line)),
                TokenKind::Ident(id) => {
                    if matches!(id.as_str(), "for" | "while" | "loop") {
                        pending_loop = true;
                    }
                    let last = id.rsplit("::").next().unwrap_or(id);
                    let is_method = k > 0 && toks[k - 1].is_punct('.');
                    let after_fn_kw = k > 0 && toks[k - 1].ident() == Some("fn");
                    let called = toks.get(k + 1).is_some_and(|t| t.is_punct('('));
                    let is_macro = toks.get(k + 1).is_some_and(|t| t.is_punct('!'));
                    // ALL_CAPS path tails (tag-table references).
                    if last.len() > 1
                        && last
                            .chars()
                            .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit())
                    {
                        fm.tag_refs.insert(last.to_string());
                    }
                    // Allocation sites.
                    if is_macro && (last == "format" || last == "vec") {
                        fm.alloc_sites
                            .push((toks[k].line, format!("{last}!"), in_loop));
                    } else if is_method && called && ALLOC_METHODS.contains(&last) {
                        fm.alloc_sites
                            .push((toks[k].line, format!(".{last}()"), in_loop));
                    } else if called {
                        let mut segs = id.rsplit("::");
                        let (tail, head) = (segs.next().unwrap_or(id), segs.next());
                        if let Some(head) = head {
                            if ALLOC_CTORS.iter().any(|&(t, f)| t == head && f == tail) {
                                fm.alloc_sites.push((
                                    toks[k].line,
                                    format!("{head}::{tail}()"),
                                    in_loop,
                                ));
                            }
                        }
                    }
                    // Call-graph edges.
                    if called && !is_macro && !after_fn_kw && is_call_candidate(last) {
                        fm.calls.insert((last.to_string(), in_loop));
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
// lint:hot-root
pub fn hot(&self) -> String {
    let s = self.name.to_string();
    helper(s);
    format!(\"{s}\")
}
fn helper(x: String) { drop(x); }
";
        let m = model_of("crates/webmail/src/x.rs", src);
        let hot = &m.fns[0];
        assert!(hot.hot_root);
        assert!(hot.calls.contains(&("helper".to_string(), false)));
        assert_eq!(hot.alloc_sites.len(), 2, "{:?}", hot.alloc_sites);
        assert!(!m.fns[1].hot_root);
    }

    #[test]
    fn stoplist_drops_ubiquitous_names() {
        let src = "fn f(v: Vec<u32>) { v.len(); v.sort(); scrape_once(); }";
        let m = model_of("crates/monitor/src/x.rs", src);
        assert_eq!(
            m.fns[0].calls.iter().collect::<Vec<_>>(),
            vec![&("scrape_once".to_string(), false)]
        );
    }

    #[test]
    fn loop_regions_mark_repeating_sites() {
        let src = "\
fn f(xs: &[u32]) -> String {
    let once = String::new();
    for x in xs {
        let each = x.to_string();
        step(each);
    }
    finishing_touch();
    once
}
";
        let m = model_of("crates/webmail/src/x.rs", src);
        let f = &m.fns[0];
        assert_eq!(
            f.alloc_sites,
            vec![
                (2, "String::new()".to_string(), false),
                (4, ".to_string()".to_string(), true),
            ]
        );
        assert!(f.calls.contains(&("step".to_string(), true)));
        assert!(f.calls.contains(&("finishing_touch".to_string(), false)));
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
