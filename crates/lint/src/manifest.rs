//! Workspace metadata for pass 2: the `LAYERING.toml` architecture
//! manifest and per-crate `Cargo.toml` dependency declarations.
//!
//! `LAYERING.toml` is the machine-readable source of truth for the
//! dependency DAG described in ARCHITECTURE.md. The parser below reads
//! the small TOML subset that file uses — `[section]` headers, `key =
//! "string"`, and `key = [ "a", "b" ]` arrays that may span lines — and
//! nothing more. Keeping the grammar this narrow is deliberate: the
//! manifest stays trivially diffable, and a syntax the parser rejects is
//! a `layering` finding rather than a silent pass.

use std::collections::{BTreeMap, BTreeSet};

/// The parsed `LAYERING.toml`: the allowed dependency edges per crate
/// and the modules approved to hold locks/atomics/threads.
#[derive(Clone, Debug, Default)]
pub struct LayeringManifest {
    /// `[deps]`: crate short name → allowed first-party dep short names.
    pub deps: BTreeMap<String, BTreeSet<String>>,
    /// `[locks] allow`: workspace-relative file paths or bare crate
    /// short names exempt from `lock-discipline`.
    pub lock_allow: Vec<String>,
}

impl LayeringManifest {
    /// Parse the TOML subset used by `LAYERING.toml`.
    pub fn parse(text: &str) -> Result<LayeringManifest, String> {
        let mut m = LayeringManifest::default();
        let mut section = String::new();
        let mut lines = text.lines().enumerate().peekable();
        while let Some((n, raw)) = lines.next() {
            let line = strip_comment(raw);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {}: expected `key = value`", n + 1));
            };
            let key = key.trim().to_string();
            let mut value = value.trim().to_string();
            // A `[` array may span lines: accumulate until brackets close.
            if value.starts_with('[') {
                while count(&value, '[') > count(&value, ']') {
                    let Some((_, next)) = lines.next() else {
                        return Err(format!("line {}: unterminated array for `{key}`", n + 1));
                    };
                    value.push(' ');
                    value.push_str(strip_comment(next).trim());
                }
            }
            match section.as_str() {
                "deps" => {
                    let items = parse_string_array(&value)
                        .ok_or_else(|| format!("line {}: `{key}` must be a string array", n + 1))?;
                    m.deps.insert(key, items.into_iter().collect());
                }
                "locks" if key == "allow" => {
                    m.lock_allow = parse_string_array(&value)
                        .ok_or_else(|| format!("line {}: `allow` must be a string array", n + 1))?;
                }
                // `schema = "…"` and any future top-level keys are
                // tolerated so the format can grow without breaking old
                // linters.
                _ => {}
            }
        }
        if m.deps.is_empty() {
            return Err("no [deps] section — the manifest must list every crate".to_string());
        }
        Ok(m)
    }

    /// The allowed first-party deps for `krate`, or `None` if the crate
    /// is absent from the manifest (itself a finding).
    pub fn allowed_deps(&self, krate: &str) -> Option<&BTreeSet<String>> {
        self.deps.get(krate)
    }

    /// Whether the `[locks]` allow list approves this file: either its
    /// exact workspace-relative path or its whole crate is listed.
    pub fn allows_lock(&self, krate: &str, path: &str) -> bool {
        self.lock_allow.iter().any(|e| e == path || e == krate)
    }
}

/// Strip a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn count(s: &str, c: char) -> usize {
    s.chars().filter(|&x| x == c).count()
}

/// Parse `[ "a", "b", ]` (trailing comma tolerated) into its items.
fn parse_string_array(value: &str) -> Option<Vec<String>> {
    let inner = value.strip_prefix('[')?.strip_suffix(']')?;
    let mut items = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let s = part.strip_prefix('"')?.strip_suffix('"')?;
        items.push(s.to_string());
    }
    Some(items)
}

/// One crate's first-party dependency declarations, read from its
/// `Cargo.toml`.
#[derive(Clone, Debug)]
pub struct CrateDeps {
    /// Crate short name (`monitor`), or `"bin"` for the root package.
    pub krate: String,
    /// Workspace-relative path of the Cargo.toml, for findings.
    pub manifest_path: String,
    /// `(dep short name, 1-based line)` for every `pwnd-*` entry in the
    /// exact `[dependencies]` section. `[dev-dependencies]` is test
    /// context and `[workspace.dependencies]` is the version registry;
    /// neither creates an architecture edge.
    pub deps: Vec<(String, u32)>,
}

/// Extract `pwnd-*` dependencies from one Cargo.toml.
pub fn parse_cargo_deps(krate: &str, manifest_path: &str, text: &str) -> CrateDeps {
    let mut deps = Vec::new();
    let mut in_deps = false;
    for (n, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            in_deps = name.trim() == "dependencies";
            continue;
        }
        if !in_deps {
            continue;
        }
        // `pwnd-xxx.workspace = true` or `pwnd-xxx = { … }`.
        let Some(key) = line.split(['=', '.', ' ']).next() else {
            continue;
        };
        if let Some(short) = key.trim().strip_prefix("pwnd-") {
            deps.push((short.to_string(), n as u32 + 1));
        }
    }
    CrateDeps {
        krate: krate.to_string(),
        manifest_path: manifest_path.to_string(),
        deps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_manifest_subset() {
        let text = "\
# comment\n\
schema = \"pwnd-layering/1\"\n\
[deps]\n\
telemetry = []\n\
sim = [\"telemetry\"]  # trailing comment\n\
core = [\n    \"sim\", \"telemetry\",\n]\n\
[locks]\n\
allow = [\"crates/core/src/runner.rs\", \"telemetry\"]\n";
        let m = LayeringManifest::parse(text).expect("parse");
        assert_eq!(m.deps.len(), 3);
        assert!(m.allowed_deps("sim").unwrap().contains("telemetry"));
        assert!(m.allowed_deps("core").unwrap().contains("sim"));
        assert!(m.allowed_deps("telemetry").unwrap().is_empty());
        assert!(m.allows_lock("core", "crates/core/src/runner.rs"));
        assert!(m.allows_lock("telemetry", "crates/telemetry/src/sink.rs"));
        assert!(!m.allows_lock("core", "crates/core/src/fleet.rs"));
    }

    #[test]
    fn rejects_garbage_with_line_numbers() {
        assert!(LayeringManifest::parse("[deps]\nnot a kv pair\n")
            .unwrap_err()
            .contains("line 2"));
        assert!(LayeringManifest::parse("schema = \"x\"\n")
            .unwrap_err()
            .contains("[deps]"));
    }

    #[test]
    fn cargo_deps_read_only_the_real_dependencies_section() {
        let toml = "\
[workspace.dependencies]\n\
pwnd-sim = { path = \"crates/sim\" }\n\
[package]\n\
name = \"pwnd\"\n\
[dependencies]\n\
pwnd-sim.workspace = true\n\
pwnd-core = { path = \"crates/core\" }\n\
serde = \"1\"\n\
[dev-dependencies]\n\
pwnd-lint.workspace = true\n";
        let d = parse_cargo_deps("bin", "Cargo.toml", toml);
        let names: Vec<&str> = d.deps.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["sim", "core"]);
        assert_eq!(d.deps[0].1, 6);
    }
}
