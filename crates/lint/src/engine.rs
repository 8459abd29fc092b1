//! The lint engine: pass 1 distills each source into a [`FileModel`]
//! (running the per-file rules on the way), pass 2 runs the workspace
//! rules over the models, then `lint:allow` suppressions are resolved.
//!
//! Pass 1 is deliberately independent of the `--rule` filter and of any
//! workspace context: its output is a pure function of `(path,
//! content)`. Filtering by rule id happens in [`lint_models`], on
//! findings the models already carry.

use crate::findings::{Finding, LintReport};
use crate::lexer::{has_segment, TokenKind};
use crate::model::{self, FileModel};
use crate::rules;
use crate::source::SourceFile;
pub use crate::workspace_rules::WorkspaceCtx;
use std::collections::BTreeSet;

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
    check_token_bans(&sf, rules::HASH_ORDER, hash_order_ban, &mut raw);
    check_panic_hazard(&sf, &mut raw);
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

fn hash_order_ban(id: &str) -> Option<String> {
    if has_segment(id, "HashMap") || has_segment(id, "HashSet") {
        Some(format!(
            "`{id}` iterates in a random per-process order; use BTreeMap/BTreeSet, or \
             mark a lookup-only use with a reasoned `lint:allow(hash-order)`"
        ))
    } else {
        None
    }
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
    let type_names = ["TcpStream", "TcpListener", "UdpSocket", "OpenOptions"];
    if prefixes.iter().any(|p| id.starts_with(p)) || type_names.iter().any(|s| has_segment(id, s)) {
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
    fn private_fn_hash_map_is_flagged() {
        let src = "fn quiet(m: &HashMap<u32, u32>) -> Vec<u32> {\n\
                   m.values().copied().collect()\n}";
        let r = lint_one("crates/webmail/src/x.rs", src);
        assert_eq!(rules_of(&r), vec!["hash-order"]);
    }

    #[test]
    fn pub_fn_unsorted_hash_iteration_is_flagged() {
        let src = "pub fn leak(m: &HashMap<u32, u32>) -> Vec<u32> {\n\
                   m.values().copied().collect()\n}";
        let r = lint_one("crates/webmail/src/x.rs", src);
        assert_eq!(rules_of(&r), vec!["hash-order"]);
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
