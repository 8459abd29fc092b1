//! A small self-contained JSON tree, writer, and parser.
//!
//! The build environment has no crates.io access, so the workspace
//! serializes its export formats (the published dataset, the trace
//! JSONL) through this module instead of serde. Integers are kept
//! exact: `u64` / `i64` values round-trip without passing through
//! `f64`, which matters for 64-bit cookie identifiers. Floats are
//! written with Rust's shortest-roundtrip `Display`, so parsing
//! recovers the exact bit pattern.

use std::fmt::Write as _;

/// One JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer.
    U(u64),
    /// A negative integer.
    I(i64),
    /// A fractional or exponent-form number.
    F(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved when writing.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: message plus byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    // ---- accessors -----------------------------------------------------

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U(v) => Some(*v),
            Json::I(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as `f64`, for any numeric form.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U(v) => Some(*v as f64),
            Json::I(v) => Some(*v as f64),
            Json::F(v) => Some(*v),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    // ---- writing -------------------------------------------------------

    /// Serialize without whitespace.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serialize with two-space indentation (serde_json pretty style).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Writing to a `String` cannot fail.
            Json::U(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F(v) => write_f64(*v, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline(out, indent, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent, depth + 1);
                    write_escaped(key, out);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    value.write(out, indent, depth + 1);
                }
                newline(out, indent, depth);
                out.push('}');
            }
        }
    }

    // ---- parsing -------------------------------------------------------

    /// Parse one JSON document (trailing whitespace allowed). Arrays
    /// and objects nested more than [`MAX_DEPTH`] deep are an error,
    /// so hostile input cannot exhaust the stack.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(value)
    }
}

/// In pretty mode, a line break and the padding of nesting level
/// `depth`; nothing in compact mode.
fn newline(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
}

/// Shortest-roundtrip float formatting, always number-shaped (a bare
/// integer-valued float gains `.0` so it re-parses as `F`).
fn write_f64(v: f64, out: &mut String) {
    if !v.is_finite() {
        // JSON has no Infinity/NaN; fall back to null, as serde_json does.
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{v}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// `s` as a JSON string literal. Runs that need no escape are copied
/// whole; every escaped character is ASCII, so a run never splits a
/// multi-byte character.
pub(crate) fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// The deepest array/object nesting [`Json::parse`] accepts. Every
/// document the workspace writes nests a handful of levels; the parser
/// recurses once per level, so the cap bounds its stack use.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            msg: msg.to_string(),
            at: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parse one array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':'")?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone surrogate"));
                                }
                                self.pos += 1;
                                self.eat(b'u', "expected \\u for low surrogate")?;
                                let lo = self.hex4()?;
                                let code =
                                    0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00));
                                char::from_u32(code).ok_or_else(|| self.err("bad surrogate"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("bad codepoint"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(slice).map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        if !fractional {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_integers_exactly() {
        let v = Json::Obj(vec![
            ("cookie".to_string(), Json::U(u64::MAX)),
            ("delta".to_string(), Json::I(-42)),
        ]);
        let parsed = Json::parse(&v.compact()).unwrap();
        assert_eq!(parsed.get("cookie").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(parsed.get("delta").unwrap().as_f64(), Some(-42.0));
    }

    #[test]
    fn round_trips_floats_exactly() {
        for f in [0.1, -51.507_222, 1e-12, 3.0, f64::MAX] {
            let s = Json::F(f).compact();
            let back = Json::parse(&s).unwrap();
            assert_eq!(back.as_f64(), Some(f), "via {s}");
        }
    }

    #[test]
    fn escapes_and_unescapes_strings() {
        let s = "line1\nline2\t\"quoted\" \\slash 🦀";
        let json = Json::Str(s.to_string()).compact();
        assert_eq!(Json::parse(&json).unwrap().as_str(), Some(s));
        // Escaped input with a surrogate pair.
        let parsed = Json::parse(r#""🦀 é""#).unwrap();
        assert_eq!(parsed.as_str(), Some("🦀 é"));
    }

    #[test]
    fn writes_escapes_and_numbers_byte_for_byte() {
        let s = "a\u{1}é\"\\\n\r\t🦀\u{1f}z";
        assert_eq!(
            Json::Str(s.to_string()).compact(),
            r#""a\u0001é\"\\\n\r\t🦀\u001fz""#
        );
        let nums = Json::Arr(vec![
            Json::U(u64::MAX),
            Json::I(-3),
            Json::F(1.0),
            Json::F(0.25),
            Json::F(-2.5e-3),
            Json::F(f64::NAN),
        ]);
        assert_eq!(
            nums.compact(),
            "[18446744073709551615,-3,1.0,0.25,-0.0025,null]"
        );
    }

    #[test]
    fn pretty_matches_expected_shape() {
        let v = Json::Obj(vec![
            ("a".to_string(), Json::U(1)),
            (
                "b".to_string(),
                Json::Arr(vec![Json::Bool(true), Json::Null]),
            ),
            ("c".to_string(), Json::Obj(vec![])),
        ]);
        let expected = "{\n  \"a\": 1,\n  \"b\": [\n    true,\n    null\n  ],\n  \"c\": {}\n}";
        assert_eq!(v.pretty(), expected);
        assert_eq!(Json::parse(expected).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("123 45").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for open in ["[", "{\"a\":"] {
            let err = Json::parse(&open.repeat(200_000)).unwrap_err();
            assert_eq!(err.msg, "nesting too deep");
            assert_eq!(err.at, MAX_DEPTH * open.len());
        }
        // Exactly MAX_DEPTH levels still parse.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let too_deep = format!("[{ok}]");
        assert!(Json::parse(&too_deep).is_err());
    }

    #[test]
    fn parses_with_whitespace() {
        let v = Json::parse(" { \"k\" : [ 1 , 2.5 , \"x\" ] } ").unwrap();
        let arr = v.get("k").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_str(), Some("x"));
    }
}
