//! Fixture self-tests for the pass-2 workspace rules. Each rule gets a
//! seeded true positive, an adjacent true negative, and one audited
//! `lint:allow` — the same triple the per-file rules are held to in
//! `rules.rs`. Fixtures are linted under synthetic in-scope paths with
//! a hand-built [`WorkspaceCtx`], so the tests pin the cross-crate
//! behavior (manifest DAG, lock approval)
//! without depending on the real workspace's state.

use pwnd_lint::manifest::{parse_cargo_deps, LayeringManifest};
use pwnd_lint::{lint_files_with, LintReport, WorkspaceCtx};

/// A small architecture: monitor may see core, nothing may see webmail,
/// and only `crates/core/src/fleet.rs` may hold locks.
const MANIFEST: &str = r#"
[deps]
monitor = ["core"]
corpus = []
core = []

[locks]
allow = ["crates/core/src/fleet.rs"]
"#;

fn ctx() -> WorkspaceCtx {
    WorkspaceCtx {
        manifest: Some(LayeringManifest::parse(MANIFEST).expect("fixture manifest")),
        ..WorkspaceCtx::default()
    }
}

fn lint_fixture(ctx: &WorkspaceCtx, path: &str, src: &str) -> LintReport {
    lint_files_with(&[(path.to_string(), src.to_string())], ctx, None)
}

fn lines_for(report: &LintReport, rule: &str) -> Vec<u32> {
    let mut v: Vec<u32> = report
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect();
    v.dedup();
    v
}

fn suppressed_lines_for(report: &LintReport, rule: &str) -> Vec<u32> {
    report
        .suppressed
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[test]
fn layering_rule_fires_on_disallowed_imports() {
    let src = include_str!("fixtures/layering.rs");
    let r = lint_fixture(&ctx(), "crates/monitor/src/bad.rs", src);
    // `pwnd_webmail` is not an edge the manifest grants monitor.
    assert_eq!(lines_for(&r, "layering"), vec![5]);
    // `pwnd_core` (line 4) is allowed; the corpus import is audited.
    assert_eq!(suppressed_lines_for(&r, "layering"), vec![6]);
}

#[test]
fn layering_rule_checks_cargo_declarations() {
    let src = include_str!("fixtures/layering.rs");
    let mut ctx = ctx();
    ctx.cargo.push(parse_cargo_deps(
        "monitor",
        "crates/monitor/Cargo.toml",
        "[dependencies]\npwnd-core = { path = \"../core\" }\npwnd-webmail = { path = \"../webmail\" }\n",
    ));
    let r = lint_fixture(&ctx, "crates/monitor/src/bad.rs", src);
    let cargo_findings: Vec<&pwnd_lint::Finding> = r
        .findings
        .iter()
        .filter(|f| f.path == "crates/monitor/Cargo.toml")
        .collect();
    // The declared `pwnd-webmail` edge (manifest line 3) is disallowed;
    // `pwnd-core` is both allowed and used by the source fixture.
    assert_eq!(cargo_findings.len(), 1, "{cargo_findings:?}");
    assert_eq!(cargo_findings[0].line, 3);
    assert!(cargo_findings[0].message.contains("pwnd-webmail"));
}

#[test]
fn layering_rule_flags_undeclared_crates_and_dead_edges() {
    // A crate absent from the manifest is itself a finding …
    let mut ctx = ctx();
    ctx.cargo.push(parse_cargo_deps(
        "attacker",
        "crates/attacker/Cargo.toml",
        "[dependencies]\n",
    ));
    // … and so is a declared dep the crate never references.
    ctx.cargo.push(parse_cargo_deps(
        "monitor",
        "crates/monitor/Cargo.toml",
        "[dependencies]\npwnd-core = { path = \"../core\" }\n",
    ));
    let r = lint_files_with(
        &[(
            "crates/monitor/src/ok.rs".to_string(),
            "pub fn quiet() {}\n".to_string(),
        )],
        &ctx,
        None,
    );
    let msgs: Vec<&str> = r
        .findings
        .iter()
        .filter(|f| f.rule == "layering")
        .map(|f| f.message.as_str())
        .collect();
    assert!(
        msgs.iter()
            .any(|m| m.contains("not listed in LAYERING.toml")),
        "{msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("remove the dead edge")),
        "{msgs:?}"
    );
}

#[test]
fn lock_discipline_respects_the_manifest_allow_list() {
    let src = include_str!("fixtures/lock_discipline.rs");
    // An unapproved module: the Mutex is a finding, the audited atomic
    // is suppressed.
    let r = lint_fixture(&ctx(), "crates/corpus/src/bad.rs", src);
    assert_eq!(lines_for(&r, "lock-discipline"), vec![4]);
    assert_eq!(suppressed_lines_for(&r, "lock-discipline"), vec![6]);
    // The manifest-approved module: no lock findings at all — and the
    // now-pointless allow is itself reported as unused.
    let r = lint_fixture(&ctx(), "crates/core/src/fleet.rs", src);
    assert!(lines_for(&r, "lock-discipline").is_empty());
    assert_eq!(lines_for(&r, "unused-allow"), vec![6]);
}
