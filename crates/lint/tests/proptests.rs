//! Property-based tests for the lint lexer and pass-1 analysis.
//!
//! The lexer's documented contract is "never fails": a linter that
//! panics on the one malformed file it most needs to read is useless.
//! These properties hammer that with arbitrary unicode and with
//! adversarial Rust-ish fragments (unterminated strings, nested block
//! comments, stray quotes), and pin span stability: token lines are
//! 1-based, bounded by the input's line count, non-decreasing in source
//! order, and shift by exactly one when a line is prepended.

use proptest::prelude::*;
use pwnd_lint::analyze_file;
use pwnd_lint::lexer::lex;

/// Rust-ish fragments, heavy on the constructs the lexer special-cases.
/// Composing them randomly produces unterminated strings, comment
/// nesting, raw-string edges, and turbofish far more often than
/// uniform random unicode would.
const FRAGMENTS: &[&str] = &[
    "fn f() {",
    "}",
    "\"str with // no comment\"",
    "\"unterminated",
    "r#\"raw \" body\"#",
    "r#\"unterminated raw",
    "b\"bytes\"",
    "'c'",
    "'\\n'",
    "'lifetime",
    "/* block /* nested */ still block */",
    "/* unterminated",
    "// line comment lint:allow(wall-clock): reason",
    "::<Vec<u8>>",
    "std::time::Instant::now()",
    "let x = format!(\"{y}\");",
    "for i in 0..n {",
    "\\u{1F980}",
    "\u{1F980}",
    "\n",
    "\r\n",
    "\t",
    "0xFF_u64",
    "1.5e-3",
    "#[test]",
    "macro_rules! m { () => {} }",
];

fn fragment_soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..FRAGMENTS.len(), 1..40)
        .prop_map(|idxs| idxs.into_iter().map(|i| FRAGMENTS[i]).collect())
}

proptest! {
    /// The lexer accepts any string at all without panicking, and both
    /// passes over it (lex + full pass-1 model build) are total.
    #[test]
    fn lexer_and_analysis_never_panic(src in ".{0,200}") {
        let _ = lex(&src);
        let _ = analyze_file("crates/monitor/src/fuzz.rs", &src);
    }

    /// Same totality under adversarial Rust-ish fragment soup.
    #[test]
    fn lexer_survives_pathological_rust(src in fragment_soup()) {
        let _ = lex(&src);
        let _ = analyze_file("crates/monitor/src/fuzz.rs", &src);
    }

    /// Spans are stable: every token and comment line is 1-based, never
    /// exceeds the number of source lines, and is non-decreasing in
    /// source order.
    #[test]
    fn spans_are_bounded_and_monotone(src in fragment_soup()) {
        let lexed = lex(&src);
        let line_count = src.split('\n').count() as u32;
        let mut last = 1u32;
        for t in &lexed.tokens {
            prop_assert!(t.line >= 1 && t.line <= line_count, "token line {} of {line_count}", t.line);
            prop_assert!(t.line >= last, "token lines went backwards");
            last = t.line;
        }
        let mut last = 1u32;
        for c in &lexed.comments {
            prop_assert!(c.line >= 1 && c.line <= line_count, "comment line {} of {line_count}", c.line);
            prop_assert!(c.line >= last, "comment lines went backwards");
            last = c.line;
        }
    }

    /// Lexing is a pure function: two runs agree exactly.
    #[test]
    fn lexing_is_deterministic(src in fragment_soup()) {
        let a = lex(&src);
        let b = lex(&src);
        prop_assert_eq!(a.tokens, b.tokens);
        prop_assert_eq!(a.comments, b.comments);
    }

    /// Prepending one blank line shifts every span by exactly one and
    /// changes nothing else — the definition of a stable span.
    #[test]
    fn prepended_line_shifts_spans_by_one(src in fragment_soup()) {
        let base = lex(&src);
        let shifted = lex(&format!("\n{src}"));
        prop_assert_eq!(base.tokens.len(), shifted.tokens.len());
        for (a, b) in base.tokens.iter().zip(&shifted.tokens) {
            prop_assert_eq!(&a.kind, &b.kind);
            prop_assert_eq!(a.line + 1, b.line);
        }
        prop_assert_eq!(base.comments.len(), shifted.comments.len());
        for (a, b) in base.comments.iter().zip(&shifted.comments) {
            prop_assert_eq!(&a.text, &b.text);
            prop_assert_eq!(a.line + 1, b.line);
        }
    }
}
