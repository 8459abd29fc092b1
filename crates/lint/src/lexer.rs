//! A minimal Rust lexer: enough token structure for invariant linting.
//!
//! The build environment has no crates.io access, so there is no `syn`;
//! instead this scanner produces a flat token stream with line numbers,
//! reducing string/char literals to body-less tokens (so
//! `"Instant::now"` inside a string is not a finding) and collecting
//! comments separately (so `lint:allow` directives can be parsed out of
//! them). Consecutive identifiers joined by `::` are merged into a single
//! path token (`std::time::Instant`), which is what the rules match
//! against.

/// What a token is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier, keyword, or `::`-joined path (`HashMap::new`).
    Ident(String),
    /// A single punctuation character (`.`:`(`:`[`: …). `::` between
    /// identifiers is folded into [`TokenKind::Ident`] paths; a `::`
    /// that is *not* followed by an identifier (turbofish) is emitted as
    /// two `:` puncts.
    Punct(char),
    /// A char, byte, numeric or string (regular, raw, or byte) literal,
    /// its content dropped: no rule matches inside a literal.
    Lit,
}

/// One lexed token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// 1-based source line.
    pub line: u32,
    /// Token payload.
    pub kind: TokenKind,
}

impl Token {
    /// The identifier/path text, if this token is one.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this token is the given punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }
}

/// One comment (line or block), attributed to its starting line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line of the `//` or `/*`.
    pub line: u32,
    /// Comment text without the delimiters.
    pub text: String,
}

/// The result of lexing one file.
#[derive(Clone, Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

/// Whether a path token contains `seg` as one of its `::` segments.
pub fn has_segment(path: &str, seg: &str) -> bool {
    path.split("::").any(|s| s == seg)
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Lex `src` into tokens and comments. Never fails: unexpected bytes are
/// emitted as punctuation and the scan continues, which is the right
/// behavior for a linter (it must not die on the one file it most needs
/// to read).
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if b.get(i + 1) == Some(&'/') => {
                let start = i + 2;
                let mut j = start;
                while j < b.len() && b[j] != '\n' {
                    j += 1;
                }
                out.comments.push(Comment {
                    line,
                    text: b[start..j].iter().collect(),
                });
                i = j;
            }
            '/' if b.get(i + 1) == Some(&'*') => {
                let start_line = line;
                let start = i + 2;
                let mut depth = 1u32;
                let mut j = start;
                while j < b.len() && depth > 0 {
                    if b[j] == '\n' {
                        line += 1;
                        j += 1;
                    } else if b[j] == '/' && b.get(j + 1) == Some(&'*') {
                        depth += 1;
                        j += 2;
                    } else if b[j] == '*' && b.get(j + 1) == Some(&'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                let end = j.saturating_sub(2).max(start);
                out.comments.push(Comment {
                    line: start_line,
                    text: b[start..end].iter().collect(),
                });
                i = j;
            }
            '"' => {
                let start_line = line;
                i = skip_string(&b, i, &mut line);
                out.tokens.push(Token {
                    line: start_line,
                    kind: TokenKind::Lit,
                });
            }
            'r' | 'b' if raw_string_start(&b, i).is_some() => {
                let start_line = line;
                let (body_start, hashes) = raw_string_start(&b, i).unwrap_or((i + 1, 0));
                i = skip_raw_string(&b, body_start, hashes, &mut line);
                out.tokens.push(Token {
                    line: start_line,
                    kind: TokenKind::Lit,
                });
            }
            'b' if b.get(i + 1) == Some(&'"') => {
                let start_line = line;
                i = skip_string(&b, i + 1, &mut line);
                out.tokens.push(Token {
                    line: start_line,
                    kind: TokenKind::Lit,
                });
            }
            'b' if b.get(i + 1) == Some(&'\'') => {
                i = skip_char(&b, i + 1);
                out.tokens.push(Token {
                    line,
                    kind: TokenKind::Lit,
                });
            }
            '\'' => {
                // Char literal or lifetime. `'\x'`, `'a'` are chars;
                // `'static`, `'a` (no closing quote) are lifetimes.
                if b.get(i + 1) == Some(&'\\')
                    || (b.get(i + 1).is_some_and(|&c| c != '\'') && b.get(i + 2) == Some(&'\''))
                {
                    i = skip_char(&b, i);
                    out.tokens.push(Token {
                        line,
                        kind: TokenKind::Lit,
                    });
                } else {
                    // Lifetime: skip the quote and the identifier.
                    i += 1;
                    while i < b.len() && is_ident_continue(b[i]) {
                        i += 1;
                    }
                }
            }
            c if is_ident_start(c) => {
                let start = i;
                while i < b.len() && is_ident_continue(b[i]) {
                    i += 1;
                }
                let word: String = b[start..i].iter().collect();
                // Merge `prev :: word` into one path token.
                let merged = match out.tokens.len().checked_sub(2) {
                    Some(k)
                        if out.tokens[k].is_punct(':')
                            && out.tokens[k + 1].is_punct(':')
                            && k > 0
                            && matches!(out.tokens[k - 1].kind, TokenKind::Ident(_)) =>
                    {
                        Some(k - 1)
                    }
                    _ => None,
                };
                if let Some(k) = merged {
                    let prev = match &out.tokens[k].kind {
                        TokenKind::Ident(s) => s.clone(),
                        _ => unreachable!(),
                    };
                    out.tokens.truncate(k);
                    out.tokens.push(Token {
                        line,
                        kind: TokenKind::Ident(format!("{prev}::{word}")),
                    });
                } else {
                    out.tokens.push(Token {
                        line,
                        kind: TokenKind::Ident(word),
                    });
                }
            }
            c if c.is_ascii_digit() => {
                i += 1;
                while i < b.len()
                    && (is_ident_continue(b[i])
                        || (b[i] == '.' && b.get(i + 1).is_some_and(|c| c.is_ascii_digit())))
                {
                    i += 1;
                }
                out.tokens.push(Token {
                    line,
                    kind: TokenKind::Lit,
                });
            }
            other => {
                out.tokens.push(Token {
                    line,
                    kind: TokenKind::Punct(other),
                });
                i += 1;
            }
        }
    }
    out
}

/// `r"…"`, `r#"…"#`, `br#"…"#` detection. Returns (index of opening
/// quote + 1, number of hashes) when `i` starts a raw string.
fn raw_string_start(b: &[char], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    if b.get(j) == Some(&'b') {
        j += 1;
    }
    if b.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0usize;
    while b.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    (b.get(j) == Some(&'"')).then_some((j + 1, hashes))
}

fn skip_raw_string(b: &[char], mut i: usize, hashes: usize, line: &mut u32) -> usize {
    while i < b.len() {
        if b[i] == '\n' {
            *line += 1;
            i += 1;
        } else if b[i] == '"' && (0..hashes).all(|k| b.get(i + 1 + k) == Some(&'#')) {
            return i + 1 + hashes;
        } else {
            i += 1;
        }
    }
    i
}

/// Skip a `"…"` string starting at the opening quote; returns the index
/// past the closing quote.
fn skip_string(b: &[char], start: usize, line: &mut u32) -> usize {
    let mut i = start + 1;
    while i < b.len() {
        match b[i] {
            '\\' => i += 2,
            '\n' => {
                *line += 1;
                i += 1;
            }
            '"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Skip a `'…'` char literal starting at the opening quote.
fn skip_char(b: &[char], start: usize) -> usize {
    let mut i = start + 1;
    while i < b.len() {
        match b[i] {
            '\\' => i += 2,
            '\'' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(String::from))
            .collect()
    }

    #[test]
    fn merges_paths() {
        assert_eq!(
            idents("use std::time::Instant; Instant::now()"),
            vec!["use", "std::time::Instant", "Instant::now"]
        );
    }

    #[test]
    fn strings_and_chars_are_opaque() {
        let toks = lex(r#"let x = "Instant::now"; let c = 'a'; let l: &'static str = y;"#);
        // A string's contents never lex as identifiers.
        assert_eq!(idents(r#"let x = "Instant::now";"#), vec!["let", "x"]);
        assert!(toks
            .tokens
            .iter()
            .all(|t| t.ident() != Some("Instant::now")));
        // Lifetimes vanish; string and char literals are body-less Lits.
        let lits = toks.tokens.iter().filter(|t| t.kind == TokenKind::Lit);
        assert_eq!(lits.count(), 2);
        assert_eq!(
            idents(r##"f(r#"HashMap"#, b"thread_rng", 'x'); g"##),
            vec!["f", "g"]
        );
    }

    #[test]
    fn string_bodies_are_captured() {
        // A string body, however many lines it spans, is captured in one
        // literal token on the string's first line; what follows it is
        // lexed on its own line.
        let l = lex("let s = \"a\nHashMap\nb\";\nnext");
        let lits: Vec<u32> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lit)
            .map(|t| t.line)
            .collect();
        assert_eq!(lits, vec![1]);
        let next = l.tokens.iter().find(|t| t.ident() == Some("next"));
        assert_eq!(next.map(|t| t.line), Some(4));
        assert!(l.tokens.iter().all(|t| t.ident() != Some("HashMap")));
        let raw = lex("let s = r#\"x\ny\"#; z");
        let z = raw.tokens.iter().find(|t| t.ident() == Some("z"));
        assert_eq!(z.map(|t| t.line), Some(2));
    }

    #[test]
    fn comments_are_collected_with_lines() {
        let l = lex("let a = 1; // trailing note\n// own line\nlet b = 2;");
        assert_eq!(l.comments.len(), 2);
        assert_eq!(l.comments[0].line, 1);
        assert_eq!(l.comments[0].text.trim(), "trailing note");
        assert_eq!(l.comments[1].line, 2);
    }

    #[test]
    fn raw_strings_skipped() {
        let l = lex("let re = r#\"thread_rng \"quoted\" inner\"#; next");
        assert_eq!(
            l.tokens.iter().filter_map(|t| t.ident()).next_back(),
            Some("next")
        );
    }

    #[test]
    fn turbofish_keeps_colons() {
        let l = lex("v.collect::<HashMap<_, _>>()");
        let ids = idents("v.collect::<HashMap<_, _>>()");
        assert_eq!(ids, vec!["v", "collect", "HashMap", "_", "_"]);
        assert!(l.tokens.iter().any(|t| t.is_punct(':')));
    }

    #[test]
    fn has_segment_splits_paths() {
        assert!(has_segment("std::time::Instant", "Instant"));
        assert!(!has_segment("InstantLike", "Instant"));
    }
}
