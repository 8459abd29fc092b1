//! Findings and report rendering (text and JSON).

use std::fmt::Write as _;

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id.
    pub rule: String,
    /// Human message.
    pub message: String,
}

/// The result of linting a file set.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// Findings that survived suppression, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Findings silenced by a `lint:allow`, kept for `--json` auditing.
    pub suppressed: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// Render the human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{}:{}: [{}] {}", f.path, f.line, f.rule, f.message);
        }
        let _ = writeln!(
            out,
            "{} finding{} ({} suppressed by lint:allow) across {} files",
            self.findings.len(),
            if self.findings.len() == 1 { "" } else { "s" },
            self.suppressed.len(),
            self.files_scanned
        );
        out
    }

    /// Render as JSON (machine-readable CI artifact).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
                json_str(&f.path),
                f.line,
                json_str(&f.rule),
                json_str(&f.message)
            );
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        let _ = write!(
            out,
            "],\n  \"suppressed\": {},\n  \"files_scanned\": {}\n}}\n",
            self.suppressed.len(),
            self.files_scanned
        );
        out
    }
}

/// Minimal JSON string escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_text_and_json() {
        let r = LintReport {
            findings: vec![Finding {
                path: "crates/x/src/lib.rs".into(),
                line: 3,
                rule: "wall-clock".into(),
                message: "Instant::now in deterministic crate".into(),
            }],
            suppressed: vec![],
            files_scanned: 2,
        };
        let text = r.render();
        assert!(text.contains("crates/x/src/lib.rs:3: [wall-clock]"));
        assert!(text.contains("1 finding (0 suppressed by lint:allow) across 2 files"));
        let json = r.render_json();
        assert!(json.contains("\"rule\": \"wall-clock\""));
        assert!(json.contains("\"files_scanned\": 2"));
    }

    #[test]
    fn json_escapes_quotes() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }
}
