//! The lint engine: pass 1 distills each source into a [`FileModel`]
//! (running the per-file rules on the way), pass 2 runs the workspace
//! rules over the models, then `lint:allow` suppressions are resolved.
//!
//! Pass 1 is deliberately independent of the `--rule` filter and of any
//! workspace context: its output is a pure function of `(path,
//! content)`. Filtering by rule id happens in [`lint_models`], on
//! findings the models already carry.

use crate::findings::{Finding, LintReport};
use crate::lexer::{has_segment, Token, TokenKind};
use crate::model::{self, FileModel};
use crate::rules;
use crate::source::SourceFile;
pub use crate::workspace_rules::WorkspaceCtx;
use std::collections::BTreeSet;

/// Iterator-producing methods on hash containers: calling one of these
/// starts an order-dependent stream.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
];

/// Chain terminals whose result does not depend on iteration order.
const ORDER_INSENSITIVE: &[&str] = &[
    "count",
    "sum",
    "product",
    "min",
    "max",
    "min_by_key",
    "max_by_key",
    "any",
    "all",
    "len",
    "is_empty",
];

/// Collect targets that neutralize iteration order: re-keyed maps/sets
/// (content equality is order-free) and explicitly ordered containers.
const ORDER_SAFE_COLLECT: &[&str] = &["BTreeMap", "BTreeSet", "HashMap", "HashSet"];

/// Keywords that cannot be the base of an indexing expression.
const NON_INDEX_KEYWORDS: &[&str] = &[
    "in", "let", "mut", "return", "if", "else", "match", "loop", "while", "for", "move", "ref",
    "dyn", "impl", "where", "break", "continue", "as", "use", "pub", "unsafe", "async", "await",
    "static", "const", "type", "enum", "struct", "trait", "mod", "crate", "fn", "box",
];

/// Pass 1 for one file: lex, analyze, run the per-file rules, and
/// distill the result into a [`FileModel`]. Pure in `(path,
/// content)` — no rule filter, no workspace context.
pub fn analyze_file(path: &str, content: &str) -> FileModel {
    let sf = SourceFile::new(path, content);
    let mut raw: Vec<Finding> = Vec::new();
    check_token_bans(&sf, rules::WALL_CLOCK, wall_clock_ban, &mut raw);
    check_token_bans(&sf, rules::AMBIENT_RNG, ambient_rng_ban, &mut raw);
    check_token_bans(&sf, rules::ENV_IO, env_io_ban, &mut raw);
    check_panic_hazard(&sf, &mut raw);
    check_hash_order(&sf, &mut raw);
    raw.sort();
    raw.dedup();
    model::build(&sf, raw)
}

/// Pass 2 + resolution: run the workspace rules over the models, filter
/// by `only`, resolve `lint:allow` suppressions, and report. When
/// `only` is set, the `unused-allow` meta rule is skipped because an
/// allow for a filtered-out rule legitimately suppresses nothing in
/// that run.
pub fn lint_models(
    models: &[FileModel],
    ctx: &WorkspaceCtx,
    only: Option<&BTreeSet<String>>,
) -> LintReport {
    let enabled = |rule: &str| match only {
        Some(s) => s.contains(rule),
        None => true,
    };
    let mut raw: Vec<Finding> = Vec::new();
    for m in models {
        raw.extend(
            m.local_findings
                .iter()
                .filter(|f| enabled(&f.rule))
                .cloned(),
        );
        if enabled(rules::BAD_ALLOW) {
            for b in &m.bad_allows {
                raw.push(Finding {
                    path: m.path.clone(),
                    line: b.line,
                    rule: rules::BAD_ALLOW.to_string(),
                    message: b.why.clone(),
                });
            }
            for a in &m.allows {
                if !rules::is_known_rule(&a.rule) {
                    raw.push(Finding {
                        path: m.path.clone(),
                        line: a.line,
                        rule: rules::BAD_ALLOW.to_string(),
                        message: format!("lint:allow names unknown rule `{}`", a.rule),
                    });
                }
            }
        }
    }
    raw.extend(
        crate::workspace_rules::run(models, ctx)
            .into_iter()
            .filter(|f| enabled(&f.rule)),
    );

    // Resolve suppressions.
    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    let mut used: BTreeSet<(String, u32, String)> = BTreeSet::new();
    for f in raw {
        let m = models.iter().find(|m| m.path == f.path);
        let allow = m.and_then(|m| {
            m.allows
                .iter()
                .find(|a| a.applies_to == f.line && a.rule == f.rule)
        });
        match allow {
            // Meta findings cannot be allowed away.
            Some(a) if f.rule != rules::BAD_ALLOW && f.rule != rules::UNUSED_ALLOW => {
                used.insert((f.path.clone(), a.line, a.rule.clone()));
                suppressed.push(f);
            }
            _ => findings.push(f),
        }
    }
    if only.is_none() {
        for m in models {
            for a in &m.allows {
                if rules::is_known_rule(&a.rule)
                    && !used.contains(&(m.path.clone(), a.line, a.rule.clone()))
                {
                    findings.push(Finding {
                        path: m.path.clone(),
                        line: a.line,
                        rule: rules::UNUSED_ALLOW.to_string(),
                        message: format!(
                            "lint:allow({}) suppresses nothing — remove it or fix the directive",
                            a.rule
                        ),
                    });
                }
            }
        }
    }
    findings.sort();
    findings.dedup();
    LintReport {
        findings,
        suppressed,
        files_scanned: models.len(),
    }
}

/// Lint a set of `(workspace-relative path, content)` sources with no
/// workspace context (no layering manifest, no Cargo metadata): the
/// per-file rules plus the context-free workspace rules.
pub fn lint_files(files: &[(String, String)], only: Option<&BTreeSet<String>>) -> LintReport {
    lint_files_with(files, &WorkspaceCtx::default(), only)
}

/// [`lint_files`] with an explicit workspace context (used by
/// `lint_workspace` and the fixture self-tests).
pub fn lint_files_with(
    files: &[(String, String)],
    ctx: &WorkspaceCtx,
    only: Option<&BTreeSet<String>>,
) -> LintReport {
    let models: Vec<FileModel> = files
        .iter()
        .map(|(path, content)| analyze_file(path, content))
        .collect();
    lint_models(&models, ctx, only)
}

/// Run a per-identifier ban rule over every non-test token in scope.
fn check_token_bans(
    sf: &SourceFile,
    rule: &'static str,
    ban: fn(&str) -> Option<String>,
    out: &mut Vec<Finding>,
) {
    if !rules::applies(rule, &sf.krate, &sf.path) {
        return;
    }
    for (i, t) in sf.tokens.iter().enumerate() {
        if sf.is_test_token(i) {
            continue;
        }
        let Some(id) = t.ident() else { continue };
        if let Some(message) = ban(id) {
            out.push(Finding {
                path: sf.path.clone(),
                line: t.line,
                rule: rule.to_string(),
                message,
            });
        }
    }
}

fn wall_clock_ban(id: &str) -> Option<String> {
    let hit = if has_segment(id, "Instant") {
        "std::time::Instant"
    } else if has_segment(id, "SystemTime") {
        "std::time::SystemTime"
    } else if id.ends_with("thread::sleep") {
        "std::thread::sleep"
    } else if has_segment(id, "chrono") || has_segment(id, "OffsetDateTime") {
        "a wall-clock date/time API"
    } else {
        return None;
    };
    Some(format!(
        "`{id}` reads the host clock ({hit}); deterministic crates must derive \
         all time from SimTime so a run is a pure function of (seed, config)"
    ))
}

fn ambient_rng_ban(id: &str) -> Option<String> {
    let banned = [
        "thread_rng",
        "from_entropy",
        "OsRng",
        "getrandom",
        "RandomState",
    ];
    if banned.iter().any(|b| has_segment(id, b)) || id.ends_with("rand::random") {
        Some(format!(
            "`{id}` draws ambient randomness; all randomness must flow from the \
             seeded xoshiro streams (pwnd_sim::Rng::seed_from / fork)"
        ))
    } else {
        None
    }
}

fn env_io_ban(id: &str) -> Option<String> {
    let prefixes = [
        "std::env",
        "std::fs",
        "std::process",
        "std::io::stdin",
        "std::io::stdout",
        "std::io::stderr",
        "env::",
        "fs::",
    ];
    let segments = ["TcpStream", "TcpListener", "UdpSocket", "OpenOptions"];
    if prefixes.iter().any(|p| id.starts_with(p)) || segments.iter().any(|s| has_segment(id, s)) {
        Some(format!(
            "`{id}` touches the environment/filesystem/network; pure crates compute, \
             the pwnd binary performs IO"
        ))
    } else {
        None
    }
}

/// `unwrap`/`expect`/panic-macros/indexing in the resilient monitor files.
fn check_panic_hazard(sf: &SourceFile, out: &mut Vec<Finding>) {
    if !rules::applies(rules::PANIC_HAZARD, &sf.krate, &sf.path) {
        return;
    }
    let toks = &sf.tokens;
    for i in 0..toks.len() {
        if sf.is_test_token(i) {
            continue;
        }
        let mut push = |line: u32, message: String| {
            out.push(Finding {
                path: sf.path.clone(),
                line,
                rule: rules::PANIC_HAZARD.to_string(),
                message,
            });
        };
        match &toks[i].kind {
            // `.unwrap()` / `.expect(`
            TokenKind::Ident(s)
                if (s == "unwrap" || s == "expect")
                    && i > 0
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('(')) =>
            {
                push(
                    toks[i].line,
                    format!(
                        "`.{s}()` can panic; the resilient monitor paths must degrade \
                         gracefully (return an error, skip the record, or open a gap)"
                    ),
                );
            }
            // `panic!` family.
            TokenKind::Ident(s)
                if ["panic", "unreachable", "todo", "unimplemented"].contains(&s.as_str())
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('!')) =>
            {
                push(
                    toks[i].line,
                    format!("`{s}!` aborts the monitoring pipeline; recover instead"),
                );
            }
            // Indexing `base[…]` — the base must be a value expression.
            TokenKind::Punct('[') if i > 0 => {
                let base_ok = match &toks[i - 1].kind {
                    TokenKind::Ident(s) => !NON_INDEX_KEYWORDS.contains(&s.as_str()),
                    TokenKind::Punct(')' | ']') => true,
                    _ => false,
                };
                if base_ok {
                    push(
                        toks[i].line,
                        "indexing can panic on a missing key or short slice; use \
                         `.get()` and handle the miss"
                            .to_string(),
                    );
                }
            }
            _ => {}
        }
    }
}

/// Statement-ish segmentation of a function body: split at `;` and at
/// block-closing `}` when the bracket depth returns to zero. A `for`
/// loop therefore forms one segment containing its header and body.
fn segments(toks: &[Token], body: (usize, usize)) -> Vec<(usize, usize)> {
    let (open, close) = body;
    let mut segs = Vec::new();
    let mut start = open + 1;
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().take(close).skip(open + 1) {
        match t.kind {
            TokenKind::Punct('(' | '[' | '{') => depth += 1,
            TokenKind::Punct(')' | ']') => depth -= 1,
            TokenKind::Punct('}') => {
                depth -= 1;
                if depth <= 0 {
                    segs.push((start, k));
                    start = k + 1;
                    depth = 0;
                }
            }
            TokenKind::Punct(';') if depth <= 0 => {
                segs.push((start, k));
                start = k + 1;
            }
            _ => {}
        }
    }
    if start < close {
        segs.push((start, close - 1));
    }
    segs.retain(|&(s, e)| s <= e);
    segs
}

/// The `let`-bound name of a segment, if it is a `let` statement.
fn let_binding(toks: &[Token], seg: (usize, usize)) -> Option<String> {
    let mut k = seg.0;
    if toks.get(k).and_then(Token::ident) != Some("let") {
        return None;
    }
    k += 1;
    if toks.get(k).and_then(Token::ident) == Some("mut") {
        k += 1;
    }
    toks.get(k).and_then(Token::ident).map(String::from)
}

/// Whether the segment's `let` ascription names an ordered container.
fn let_type_is_ordered(toks: &[Token], seg: (usize, usize)) -> bool {
    let Some(_) = let_binding(toks, seg) else {
        return false;
    };
    for k in seg.0..=seg.1.min(seg.0 + 12) {
        if !toks[k].is_punct(':') {
            continue;
        }
        // Type window until `=`.
        for t in toks[k + 1..=seg.1].iter() {
            match &t.kind {
                TokenKind::Punct('=') => return false,
                TokenKind::Ident(s) if has_segment(s, "BTreeMap") || has_segment(s, "BTreeSet") => {
                    return true
                }
                _ => {}
            }
        }
    }
    false
}

/// Whether tokens after `pos` within the segment make the iteration
/// order-safe: an order-insensitive terminal, or a collect into an
/// order-safe container (turbofish).
fn chain_is_safe(toks: &[Token], pos: usize, seg_end: usize) -> bool {
    for k in pos..=seg_end {
        if let Some(id) = toks[k].ident() {
            let last = id.rsplit("::").next().unwrap_or(id);
            if ORDER_INSENSITIVE.contains(&last) {
                return true;
            }
            if last == "collect" || id.ends_with("::collect") {
                // `collect::<Target<…>>` — look for the turbofish target.
                for t in toks[k + 1..=seg_end.min(k + 8)].iter() {
                    if let TokenKind::Ident(s) = &t.kind {
                        return ORDER_SAFE_COLLECT.iter().any(|c| has_segment(s, c));
                    }
                    if matches!(t.kind, TokenKind::Punct('(')) {
                        return false; // plain `.collect()` — target unknown
                    }
                }
            }
        }
    }
    false
}

/// Whether one of the next `n` segments sorts the binding `name`.
fn sorted_soon(
    toks: &[Token],
    segs: &[(usize, usize)],
    after: usize,
    name: &str,
    n: usize,
) -> bool {
    for &(s, e) in segs.iter().skip(after + 1).take(n) {
        for k in s..e {
            if toks[k].ident() == Some(name)
                && toks.get(k + 1).is_some_and(|t| t.is_punct('.'))
                && toks
                    .get(k + 2)
                    .and_then(Token::ident)
                    .is_some_and(|m| m.starts_with("sort"))
            {
                return true;
            }
        }
    }
    false
}

/// Hash-order hazard: iteration of a known hash container inside a
/// function that is `pub` or reaches a serialization/display/telemetry
/// sink, unless the chain is order-insensitive, collected into an
/// order-safe container, or sorted within the next two statements.
fn check_hash_order(sf: &SourceFile, out: &mut Vec<Finding>) {
    if !rules::applies(rules::HASH_ORDER, &sf.krate, &sf.path) {
        return;
    }
    for f in &sf.fns {
        if f.is_test || sf.is_test_token(f.body.0) {
            continue;
        }
        if !(f.is_pub || f.reaches_sink) {
            continue;
        }
        let segs = segments(&sf.tokens, f.body);
        for (si, &(s, e)) in segs.iter().enumerate() {
            for hit in iteration_sites(sf, s, e) {
                let safe = match hit.kind {
                    IterKind::Chain => {
                        chain_is_safe(&sf.tokens, hit.pos + 1, e)
                            || let_type_is_ordered(&sf.tokens, (s, e))
                            || let_binding(&sf.tokens, (s, e))
                                .is_some_and(|b| sorted_soon(&sf.tokens, &segs, si, &b, 2))
                    }
                    // A `for` loop body consumes elements in hash order.
                    IterKind::ForLoop => false,
                };
                if !safe {
                    out.push(Finding {
                        path: sf.path.clone(),
                        line: sf.tokens[hit.pos].line,
                        rule: rules::HASH_ORDER.to_string(),
                        message: format!(
                            "iteration over hash container `{}` in `{}` ({}) is \
                             observation-order-dependent; sort the items, use a BTree \
                             container, or collect into an order-safe target",
                            hit.name,
                            f.name,
                            if f.reaches_sink {
                                "reaches serialized/rendered output"
                            } else {
                                "pub — callers may serialize the result"
                            }
                        ),
                    });
                }
            }
        }
    }
}

enum IterKind {
    /// `name.iter()`-style chain.
    Chain,
    /// `for … in [&]name {` loop.
    ForLoop,
}

struct IterSite {
    pos: usize,
    name: String,
    kind: IterKind,
}

/// Find hash-container iteration sites within a segment.
fn iteration_sites(sf: &SourceFile, s: usize, e: usize) -> Vec<IterSite> {
    let toks = &sf.tokens;
    let mut sites = Vec::new();
    let is_for = toks.get(s).and_then(Token::ident) == Some("for");
    let in_pos = if is_for {
        (s..=e).find(|&k| toks[k].ident() == Some("in"))
    } else {
        None
    };
    let header_end = if is_for {
        (s..=e).find(|&k| toks[k].is_punct('{')).unwrap_or(e)
    } else {
        e
    };
    for k in s..=e {
        let Some(name) = toks[k].ident() else {
            continue;
        };
        let projected = k > 0 && toks[k - 1].is_punct('.');
        if !sf.is_hash_base(name, projected) {
            continue;
        }
        // `name.iter()` / `self.name.keys()` …
        if toks.get(k + 1).is_some_and(|t| t.is_punct('.')) {
            if let Some(m) = toks.get(k + 2).and_then(Token::ident) {
                if ITER_METHODS.contains(&m) && toks.get(k + 3).is_some_and(|t| t.is_punct('(')) {
                    // An iterator chain in a `for` header feeds the loop
                    // body element by element — that is loop consumption,
                    // not a chain with a terminal.
                    let kind = if is_for && k < header_end {
                        IterKind::ForLoop
                    } else {
                        IterKind::Chain
                    };
                    sites.push(IterSite {
                        pos: k,
                        name: name.to_string(),
                        kind,
                    });
                    continue;
                }
            }
        }
        // `for pat in &name {` — the hash name is the loop's iterated
        // expression (directly, or behind `&`/`&mut`/`self.`).
        if let Some(ip) = in_pos {
            if k > ip && k < header_end && toks.get(k + 1).is_some_and(|t| t.is_punct('{')) {
                sites.push(IterSite {
                    pos: k,
                    name: name.to_string(),
                    kind: IterKind::ForLoop,
                });
            }
        }
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_one(path: &str, src: &str) -> LintReport {
        lint_files(&[(path.to_string(), src.to_string())], None)
    }

    fn rules_of(r: &LintReport) -> Vec<&str> {
        r.findings.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn segments_split_statements_and_blocks() {
        let sf = SourceFile::new(
            "crates/x/src/lib.rs",
            "fn f() { let a = 1; for x in v { g(x); } let b = 2; }",
        );
        let f = &sf.fns[0];
        let segs = segments(&sf.tokens, f.body);
        assert_eq!(segs.len(), 3, "{segs:?}");
    }

    #[test]
    fn sink_gating_spares_private_pure_fns() {
        let src = "fn quiet(m: &HashMap<u32, u32>) -> Vec<u32> {\n\
                   m.values().copied().collect()\n}";
        let r = lint_one("crates/webmail/src/x.rs", src);
        assert!(rules_of(&r).is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn pub_fn_unsorted_hash_iteration_is_flagged() {
        let src = "pub fn leak(m: &HashMap<u32, u32>) -> Vec<u32> {\n\
                   m.values().copied().collect()\n}";
        let r = lint_one("crates/webmail/src/x.rs", src);
        assert_eq!(rules_of(&r), vec!["hash-order"]);
    }

    #[test]
    fn collect_then_sort_is_safe() {
        let src = "pub fn ordered(m: &HashMap<u32, u32>) -> Vec<u32> {\n\
                   let mut v: Vec<u32> = m.values().copied().collect();\n\
                   v.sort_unstable();\n v\n}";
        let r = lint_one("crates/webmail/src/x.rs", src);
        assert!(rules_of(&r).is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn order_insensitive_terminals_are_safe() {
        let src = "pub fn total(m: &HashMap<u32, u32>) -> u64 {\n\
                   m.values().map(|&v| v as u64).sum()\n}\n\
                   pub fn n(m: &HashSet<u32>) -> usize { m.iter().count() }";
        let r = lint_one("crates/webmail/src/x.rs", src);
        assert!(rules_of(&r).is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn span_instrumentation_is_clean_but_a_literal_clock_read_is_not() {
        // The span API keeps every clock read (including SpanGuard's
        // drop-timing) inside the exempt telemetry crate, so a fully
        // instrumented deterministic fn must produce no findings...
        let instrumented = "pub fn event_loop(sink: &TelemetrySink) {\n\
                            let span = sink.span(\"event-loop\");\n\
                            let _child = span.child(\"event\", &[(\"kind\", \"visit\")]);\n\
                            let _sub = sink.subspan(\"retry\", &[]);\n\
                            span.sim(42);\n}";
        let r = lint_one("crates/sim/src/x.rs", instrumented);
        assert!(rules_of(&r).is_empty(), "{:?}", r.findings);

        // ...while reading the clock directly at the call site is still
        // a wall-clock finding in the same crate.
        let literal = "pub fn event_loop() { let t = Instant::now(); drop(t); }";
        let r = lint_one("crates/sim/src/x.rs", literal);
        assert_eq!(rules_of(&r), vec!["wall-clock"]);
    }

    #[test]
    fn for_loop_over_hash_in_sink_fn_is_flagged() {
        let src = "fn render(m: &HashMap<u32, u32>) -> String {\n\
                   let mut out = String::new();\n\
                   for (k, v) in m { out.push_str(&format!(\"{k}{v}\")); }\n\
                   out\n}";
        let r = lint_one("crates/webmail/src/x.rs", src);
        assert_eq!(rules_of(&r), vec!["hash-order"]);
    }
}
