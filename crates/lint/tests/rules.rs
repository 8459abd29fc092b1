//! Fixture self-tests: every rule must fire on its seeded violations and
//! stay quiet on the adjacent safe idioms — this is the linter's own
//! regression suite. Fixtures live under `tests/fixtures/` (excluded
//! from workspace scans) and are linted under synthetic in-scope paths.

use pwnd_lint::{lint_files, LintReport};

fn lint_fixture(path: &str, src: &str) -> LintReport {
    lint_files(&[(path.to_string(), src.to_string())], None)
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

#[test]
fn wall_clock_rule_fires_on_seeded_violations() {
    let src = include_str!("fixtures/wall_clock.rs");
    let r = lint_fixture("crates/sim/src/bad.rs", src);
    let lines = lines_for(&r, "wall-clock");
    // The use statement plus the three calls in `naughty`.
    assert!(lines.contains(&3), "use of std::time: {lines:?}");
    assert!(lines.contains(&6), "Instant::now: {lines:?}");
    assert!(lines.contains(&7), "thread::sleep: {lines:?}");
    assert!(lines.contains(&8), "SystemTime::now: {lines:?}");
    // Nothing in the string literal or the test module.
    assert!(lines.iter().all(|&l| l <= 11), "{lines:?}");
    // The same file in the telemetry crate is out of scope.
    let r = lint_fixture("crates/telemetry/src/bad.rs", src);
    assert!(lines_for(&r, "wall-clock").is_empty());
}

#[test]
fn hash_order_rule_bans_hash_containers_outside_tests() {
    let src = include_str!("fixtures/hash_order.rs");
    let r = lint_fixture("crates/analysis/src/bad.rs", src);
    let lines = lines_for(&r, "hash-order");
    assert!(lines.contains(&6), "pub fn leaky: {lines:?}");
    assert!(lines.contains(&10), "for-loop in render: {lines:?}");
    assert!(lines.contains(&33), "private_helper: {lines:?}");
    // Every line that names a hash container is flagged, however the
    // container is used; the allowed lookup (42), the BTreeMap fn and
    // the test module stay quiet.
    assert_eq!(lines, vec![4, 6, 10, 19, 25, 29, 33, 37], "{lines:?}");
    let suppressed: Vec<u32> = r.suppressed.iter().map(|f| f.line).collect();
    assert_eq!(suppressed, vec![42], "{:?}", r.suppressed);
    // Root test and example trees are out of scope.
    let r = lint_fixture("tests/bad.rs", src);
    assert!(lines_for(&r, "hash-order").is_empty());
}

#[test]
fn ambient_rng_rule_fires_outside_the_rng_home() {
    let src = include_str!("fixtures/ambient_rng.rs");
    let r = lint_fixture("crates/attacker/src/bad.rs", src);
    let lines = lines_for(&r, "ambient-rng");
    assert_eq!(lines, vec![5, 6, 7], "{lines:?}");
    // The salted-stream constructor file itself is exempt.
    let r = lint_fixture("crates/sim/src/rng.rs", src);
    assert!(lines_for(&r, "ambient-rng").is_empty());
}

#[test]
fn env_io_rule_fires_in_pure_crates_only() {
    let src = include_str!("fixtures/env_io.rs");
    let r = lint_fixture("crates/corpus/src/bad.rs", src);
    let lines = lines_for(&r, "env-io");
    assert_eq!(lines, vec![5, 6, 7], "{lines:?}");
    // The binary is the imperative shell and may do IO.
    let r = lint_fixture("src/bin/pwnd.rs", src);
    assert!(lines_for(&r, "env-io").is_empty());
}

#[test]
fn panic_hazard_rule_fires_on_monitor_parse_paths_only() {
    let src = include_str!("fixtures/panic_hazard.rs");
    let r = lint_fixture("crates/monitor/src/dataset.rs", src);
    let lines = lines_for(&r, "panic-hazard");
    assert!(lines.contains(&6), "slice index + unwrap: {lines:?}");
    assert!(lines.contains(&7), "map index: {lines:?}");
    assert!(lines.contains(&8), "expect: {lines:?}");
    assert!(lines.contains(&10), "panic!: {lines:?}");
    assert!(lines.iter().all(|&l| l < 14), "fine() is clean: {lines:?}");
    // The same code outside the resilient monitor files is out of scope.
    let r = lint_fixture("crates/monitor/src/script.rs", src);
    assert!(lines_for(&r, "panic-hazard").is_empty());
}

#[test]
fn allow_directives_suppress_audit_and_expire() {
    let src = include_str!("fixtures/allows.rs");
    let r = lint_fixture("crates/monitor/src/dataset.rs", src);
    // Both placements suppress their violation...
    let hazard = lines_for(&r, "panic-hazard");
    assert!(!hazard.contains(&6), "trailing allow: {hazard:?}");
    assert!(!hazard.contains(&11), "own-line allow: {hazard:?}");
    // ...and the suppressions are recorded, not dropped.
    assert_eq!(r.suppressed.len(), 2, "{:?}", r.suppressed);
    // An unsuppressed twin still fires.
    assert!(hazard.contains(&15), "{hazard:?}");
    // Malformed directives are findings and do not suppress.
    let bad = lines_for(&r, "bad-allow");
    assert_eq!(bad, vec![20, 22], "{bad:?}");
    assert!(hazard.contains(&20) && hazard.contains(&22), "{hazard:?}");
    // A directive that suppresses nothing is flagged for removal.
    assert_eq!(lines_for(&r, "unused-allow"), vec![28]);
}

#[test]
fn rule_filter_limits_the_run() {
    let src = include_str!("fixtures/panic_hazard.rs");
    let only: std::collections::BTreeSet<String> = ["wall-clock".to_string()].into_iter().collect();
    let r = lint_files(
        &[("crates/monitor/src/dataset.rs".to_string(), src.to_string())],
        Some(&only),
    );
    assert!(r.findings.is_empty(), "{:?}", r.findings);
}

#[test]
fn readme_rule_table_names_every_rule() {
    let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = pwnd_lint::find_workspace_root(here).expect("workspace root");
    let readme = std::fs::read_to_string(root.join("README.md")).expect("read README.md");
    let section = readme
        .split("### The determinism & architecture linter")
        .nth(1)
        .expect("README has the linter section");
    // One row per rule, in `ALL_RULES` order; the two suppression-audit
    // rules share the last row as `bad-allow` / `unused-allow`.
    let rows: Vec<Vec<&str>> = section
        .lines()
        .skip_while(|l| !l.starts_with("| rule |"))
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .map(|l| {
            let cell = l.split('|').nth(1).unwrap_or("");
            cell.split('/')
                .map(|id| id.trim().trim_matches('`'))
                .collect()
        })
        .collect();
    let mut expected: Vec<Vec<&str>> = pwnd_lint::ALL_RULES
        .iter()
        .filter(|r| !matches!(r.id, "bad-allow" | "unused-allow"))
        .map(|r| vec![r.id])
        .collect();
    expected.push(vec!["bad-allow", "unused-allow"]);
    assert_eq!(
        rows, expected,
        "README's pwnd-lint rule table is out of date"
    );
}
