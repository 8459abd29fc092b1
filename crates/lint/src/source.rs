//! Per-file analysis context built on top of the token stream: crate
//! attribution, `#[cfg(test)]` region tracking, function spans, and
//! `lint:allow` and role directive parsing.

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

/// What a role directive marks an item as.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// `lint:hot-root` — this `fn` anchors `alloc-hot` reachability.
    HotRoot,
    /// `lint:jsonl-tags` — this item is the canonical record-tag table.
    JsonlTags,
    /// `lint:jsonl-emit` — this `fn` writes tagged JSONL records.
    JsonlEmit,
    /// `lint:jsonl-consume` — this `fn` reads tagged JSONL records.
    JsonlConsume,
}

impl Role {
    /// The directive spelling, as written in comments.
    pub fn name(self) -> &'static str {
        match self {
            Role::HotRoot => "hot-root",
            Role::JsonlTags => "jsonl-tags",
            Role::JsonlEmit => "jsonl-emit",
            Role::JsonlConsume => "jsonl-consume",
        }
    }
}

/// A parsed `// lint:<role>` directive. Placement follows `lint:allow`:
/// trailing a code line it marks that line's item; on its own line it
/// marks the next line that holds code (doc comments between the
/// directive and the item are skipped).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoleDirective {
    /// Line the directive's comment starts on.
    pub line: u32,
    /// First code line at or below the directive — the marked item.
    pub applies_to: u32,
    /// What the item is marked as.
    pub role: Role,
}

/// One `fn` item found in the file.
#[derive(Clone, Debug)]
pub struct FnInfo {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether it is test code (`#[test]` fn or inside `#[cfg(test)]`).
    pub is_test: bool,
    /// Token index range of the body, inclusive of both braces.
    pub body: (usize, usize),
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
    /// All comments.
    pub comments: Vec<Comment>,
    /// Per-token flag: inside test code.
    pub in_test: Vec<bool>,
    /// Functions in the file.
    pub fns: Vec<FnInfo>,
    /// Valid suppression directives.
    pub allows: Vec<AllowDirective>,
    /// Malformed suppression directives.
    pub bad_allows: Vec<BadAllow>,
    /// Role directives (`lint:hot-root`, `lint:jsonl-…`).
    pub roles: Vec<RoleDirective>,
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
        let fns = find_fns(&tokens, &in_test);
        let (allows, bad_allows) = parse_allows(&comments, &tokens);
        let roles = parse_roles(&comments, &tokens);
        SourceFile {
            path: path.to_string(),
            krate: crate_of(path),
            tokens,
            comments,
            in_test,
            fns,
            allows,
            bad_allows,
            roles,
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

fn find_fns(tokens: &[Token], in_test: &[bool]) -> Vec<FnInfo> {
    let mut fns = Vec::new();
    // Every `fn` token is scanned, including those inside a body: nested
    // fns are items too.
    for (i, t) in tokens.iter().enumerate() {
        if t.ident() != Some("fn") {
            continue;
        }
        let Some(name) = tokens.get(i + 1).and_then(Token::ident) else {
            continue;
        };
        // The body is the first `{` before any `;` (a `;` first means a
        // bodiless trait or extern declaration).
        let body = (i + 2..tokens.len())
            .find(|&k| tokens[k].is_punct('{') || tokens[k].is_punct(';'))
            .filter(|&k| tokens[k].is_punct('{'))
            .and_then(|open| Some((open, matching_brace(tokens, open)?)));
        if let Some(body) = body {
            fns.push(FnInfo {
                name: name.to_string(),
                line: t.line,
                is_test: in_test.get(i).copied().unwrap_or(false),
                body,
            });
        }
    }
    fns
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

/// Parse role directives (`lint:hot-root`, `lint:jsonl-tags`,
/// `lint:jsonl-emit`, `lint:jsonl-consume`) out of regular comments. An
/// optional `: reason` tail is tolerated and ignored. The directive
/// marks the first line at or below it that holds code, so it can sit
/// above an item's doc comment or directly above the item.
fn parse_roles(comments: &[Comment], tokens: &[Token]) -> Vec<RoleDirective> {
    let code_lines: BTreeSet<u32> = tokens.iter().map(|t| t.line).collect();
    const ROLES: &[(&str, Role)] = &[
        ("lint:hot-root", Role::HotRoot),
        ("lint:jsonl-tags", Role::JsonlTags),
        ("lint:jsonl-emit", Role::JsonlEmit),
        ("lint:jsonl-consume", Role::JsonlConsume),
    ];
    let mut roles = Vec::new();
    for c in comments {
        if c.text.starts_with('/') || c.text.starts_with('!') {
            continue; // doc comments are prose
        }
        for &(spelling, role) in ROLES {
            let Some(pos) = c.text.find(spelling) else {
                continue;
            };
            // The directive must end the word there (`lint:hot-rooted`
            // is not a directive; `lint:hot-root: reason` is).
            let after = &c.text[pos + spelling.len()..];
            if after
                .chars()
                .next()
                .is_some_and(|ch| ch.is_ascii_alphanumeric() || ch == '-')
            {
                continue;
            }
            let applies_to = if code_lines.contains(&c.line) {
                c.line
            } else {
                code_lines
                    .range(c.line + 1..)
                    .next()
                    .copied()
                    .unwrap_or(c.line + 1)
            };
            roles.push(RoleDirective {
                line: c.line,
                applies_to,
                role,
            });
        }
    }
    roles
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
        let live = f.fns.iter().find(|f| f.name == "live").unwrap();
        let helper = f.fns.iter().find(|f| f.name == "helper").unwrap();
        assert!(!live.is_test);
        assert!(helper.is_test);
    }

    #[test]
    fn role_directives_attach_past_doc_comments() {
        let src = "\
// lint:hot-root: the search hot loop
/// Doc prose that must not absorb the directive.
pub fn search() {}
pub fn emit() {} // lint:jsonl-emit
// lint:hot-rooted is not a directive
fn other() {}
";
        let f = SourceFile::new("crates/webmail/src/x.rs", src);
        assert_eq!(f.roles.len(), 2, "{:?}", f.roles);
        assert_eq!(f.roles[0].role, Role::HotRoot);
        // Skips the doc-comment line and lands on the fn itself.
        assert_eq!(f.roles[0].applies_to, 3);
        assert_eq!(f.roles[1].role, Role::JsonlEmit);
        assert_eq!(f.roles[1].applies_to, 4);
        let search = f.fns.iter().find(|x| x.name == "search").unwrap();
        assert_eq!(search.line, 3);
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
