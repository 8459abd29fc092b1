//! Per-file analysis context built on top of the token stream: crate
//! attribution, `#[cfg(test)]` region tracking, and `lint:allow`
//! directive parsing.

use crate::lexer::{self, Comment, Lexed, Token, TokenKind};
use std::collections::BTreeSet;

/// A parsed `// lint:allow(rule-id): reason` directive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowDirective {
    /// Line the directive's comment starts on.
    pub line: u32,
    /// Line the directive applies to: its own line if the comment trails
    /// code, otherwise the next line.
    pub applies_to: u32,
    /// The rule being suppressed.
    pub rule: String,
    /// The mandatory justification.
    pub reason: String,
}

/// A malformed `lint:allow` (reported by the `bad-allow` meta rule).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BadAllow {
    /// Line of the broken directive.
    pub line: u32,
    /// What is wrong with it.
    pub why: String,
}

/// One analyzed source file.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Workspace-relative path.
    pub path: String,
    /// Owning crate short name (`monitor`), `"bin"` for `src/`, or
    /// `"tests"` / `"examples"` for the root test and example trees.
    pub krate: String,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// Per-token flag: inside test code.
    pub in_test: Vec<bool>,
    /// Valid suppression directives.
    pub allows: Vec<AllowDirective>,
    /// Malformed suppression directives.
    pub bad_allows: Vec<BadAllow>,
}

/// Derive the short crate name from a workspace-relative path.
pub fn crate_of(path: &str) -> String {
    if let Some(rest) = path.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or("unknown").to_string()
    } else if path.starts_with("tests/") {
        "tests".to_string()
    } else if path.starts_with("examples/") {
        "examples".to_string()
    } else if path.starts_with("src/") {
        "bin".to_string()
    } else {
        "unknown".to_string()
    }
}

impl SourceFile {
    /// Analyze one file.
    pub fn new(path: &str, src: &str) -> SourceFile {
        let Lexed { tokens, comments } = lexer::lex(src);
        let in_test = mark_test_regions(&tokens, path);
        let (allows, bad_allows) = parse_allows(&comments, &tokens);
        SourceFile {
            path: path.to_string(),
            krate: crate_of(path),
            tokens,
            in_test,
            allows,
            bad_allows,
        }
    }

    /// Whether the token at `idx` is inside test code.
    pub fn is_test_token(&self, idx: usize) -> bool {
        self.in_test.get(idx).copied().unwrap_or(false)
    }
}

/// Mark which tokens are test code: whole-file for `tests/` and
/// `examples/` trees, `#[cfg(test)] mod …` regions, `#[test]`-attributed
/// functions, and `proptest! { … }` macro blocks.
fn mark_test_regions(tokens: &[Token], path: &str) -> Vec<bool> {
    let mut flags = vec![false; tokens.len()];
    if path.starts_with("tests/")
        || path.starts_with("examples/")
        || path.contains("/tests/")
        || path.contains("/examples/")
    {
        flags.iter_mut().for_each(|f| *f = true);
        return flags;
    }
    let mut i = 0usize;
    while i < tokens.len() {
        // An attribute `#[…]`; remember whether it mentions `test`.
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let (attr_end, mentions_test) = scan_attr(tokens, i + 1);
            if mentions_test {
                // Skip any further attributes, then mark the next item.
                let mut j = attr_end;
                while j < tokens.len()
                    && tokens[j].is_punct('#')
                    && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
                {
                    j = scan_attr(tokens, j + 1).0;
                }
                if let Some(body_end) = item_end(tokens, j) {
                    for f in flags.iter_mut().take(body_end + 1).skip(i) {
                        *f = true;
                    }
                    i = body_end + 1;
                    continue;
                }
            }
            i = attr_end;
            continue;
        }
        // `proptest! { … }` blocks are test code.
        if tokens[i].ident() == Some("proptest")
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('!'))
        {
            if let Some(open) = (i..tokens.len()).find(|&k| tokens[k].is_punct('{')) {
                if let Some(close) = matching_brace(tokens, open) {
                    for f in flags.iter_mut().take(close + 1).skip(i) {
                        *f = true;
                    }
                    i = close + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    flags
}

/// Scan an attribute starting at its `[`; return (index past `]`,
/// whether it marks test-only code). `#[cfg(not(test))]` guards *live*
/// code, so a `not` anywhere in the attribute disqualifies it.
fn scan_attr(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut has_test = false;
    let mut has_not = false;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        match &t.kind {
            TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return (k + 1, has_test && !has_not);
                }
            }
            TokenKind::Ident(s) if s == "test" || s.ends_with("::test") => has_test = true,
            TokenKind::Ident(s) if s == "not" => has_not = true,
            _ => {}
        }
    }
    (tokens.len(), has_test && !has_not)
}

/// Find the end of the item starting at `i` (a `mod`/`fn`/`impl` header):
/// the matching `}` of its first `{`, or the terminating `;`.
fn item_end(tokens: &[Token], i: usize) -> Option<usize> {
    for k in i..tokens.len() {
        if tokens[k].is_punct('{') {
            return matching_brace(tokens, k);
        }
        if tokens[k].is_punct(';') {
            return Some(k);
        }
    }
    None
}

/// Index of the `}` matching the `{` at `open`.
fn matching_brace(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        match t.kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// Parse `lint:allow(rule): reason` directives out of comments. A
/// directive on a line with code applies to that line; a directive on a
/// comment-only line applies to the next line.
fn parse_allows(comments: &[Comment], tokens: &[Token]) -> (Vec<AllowDirective>, Vec<BadAllow>) {
    let code_lines: BTreeSet<u32> = tokens.iter().map(|t| t.line).collect();
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for c in comments {
        // Directives live in regular `//` comments only. Doc comments
        // (`///` → text starting with `/`, `//!` → starting with `!`)
        // are prose and may *mention* the syntax without invoking it.
        if c.text.starts_with('/') || c.text.starts_with('!') {
            continue;
        }
        let Some(pos) = c.text.find("lint:allow") else {
            continue;
        };
        let rest = &c.text[pos + "lint:allow".len()..];
        let parsed = (|| {
            let rest = rest.strip_prefix('(')?;
            let close = rest.find(')')?;
            let rule = rest[..close].trim().to_string();
            let after = rest[close + 1..].trim_start();
            let reason = after.strip_prefix(':')?.trim().to_string();
            Some((rule, reason))
        })();
        match parsed {
            Some((rule, _)) if rule.is_empty() => bad.push(BadAllow {
                line: c.line,
                why: "empty rule id".to_string(),
            }),
            Some((rule, reason)) if reason.is_empty() => bad.push(BadAllow {
                line: c.line,
                why: format!("lint:allow({rule}) has no reason — every suppression must say why"),
            }),
            Some((rule, reason)) => {
                let applies_to = if code_lines.contains(&c.line) {
                    c.line
                } else {
                    c.line + 1
                };
                allows.push(AllowDirective {
                    line: c.line,
                    applies_to,
                    rule,
                    reason,
                });
            }
            None => bad.push(BadAllow {
                line: c.line,
                why: "expected `lint:allow(rule-id): reason`".to_string(),
            }),
        }
    }
    (allows, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_attribution() {
        assert_eq!(crate_of("crates/monitor/src/scraper.rs"), "monitor");
        assert_eq!(crate_of("src/bin/pwnd.rs"), "bin");
        assert_eq!(crate_of("tests/determinism.rs"), "tests");
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests { fn helper() {} }\n";
        let f = SourceFile::new("crates/x/src/lib.rs", src);
        let at = |name: &str| {
            f.tokens
                .iter()
                .position(|t| t.ident() == Some(name))
                .unwrap()
        };
        assert!(!f.is_test_token(at("live")));
        assert!(f.is_test_token(at("helper")));
    }

    #[test]
    fn allow_parsing_good_and_bad() {
        let src = "\
// lint:allow(hash-order): keys re-sorted downstream
let a = 1;
let b = 2; // lint:allow(panic-hazard): bounded by construction
// lint:allow(env-io)
// lint:allow(wall-clock):
";
        let f = SourceFile::new("crates/x/src/lib.rs", src);
        assert_eq!(f.allows.len(), 2);
        assert_eq!(f.allows[0].rule, "hash-order");
        assert_eq!(f.allows[0].applies_to, 2);
        assert_eq!(f.allows[1].applies_to, 3);
        assert_eq!(f.bad_allows.len(), 2);
    }
}
