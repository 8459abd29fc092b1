//! Streaming dataset export: JSON Lines, one record per line.
//!
//! [`Dataset::to_json`] materializes the whole export in memory before a
//! single byte reaches disk — fine at the paper's 100 accounts, fatal at
//! fleet scale (100k accounts of accesses, account records, and opened
//! texts). [`DatasetWriter`] emits the same records *incrementally*: each
//! access/account/opened-text/gap becomes one compact JSON line tagged
//! with its [`RecordTag`], written straight to any [`std::io::Write`]
//! sink, so peak memory is one record, not one dataset.
//!
//! Every reader of such a stream — a fleet-store shard, a merged export —
//! goes through one line reader, [`for_each_line`], which holds one line
//! of at most [`MAX_LINE_BYTES`] in a reused buffer. The stream is
//! lossless: [`read_jsonl`] re-assembles a [`Dataset`] whose
//! [`Dataset::to_json`] is byte-identical to the in-memory export
//! (proven by `tests/fleet_scale.rs`). Record order within a type is
//! preserved; the writer may interleave types freely because re-assembly
//! groups by tag. A stream cut mid-record (a truncated write) is an error
//! naming the cut line, not a shorter dataset.

use crate::dataset::{AccountRecord, Dataset, GapRecord, ParsedAccess};
use pwnd_telemetry::json::{Json, JsonError};
use pwnd_telemetry::jsonl::{self, line_error};
use std::io::{self, BufRead, Write};

/// The kind of one JSONL record line, written as its `"record"` tag.
/// [`DatasetWriter`] writes one tag per kind and [`decode_record`]
/// matches every kind with no catch-all arm, so a new kind without a
/// decoder does not compile. The other readers ([`record_tag`], the
/// fleet store's streaming merge and the daemon's index) take the enum,
/// so none of them can spell a tag of its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordTag {
    /// One parsed access (a session aggregated by the monitor).
    Access,
    /// Per-account metadata (outlet, leak time, hijack/block marks).
    Account,
    /// One opened-email text snapshot (TF-IDF input).
    OpenedText,
    /// One monitoring-gap interval (fault-injection coverage hole).
    Gap,
}

impl RecordTag {
    /// Every tag, in [`Dataset::to_json`] serialization order. The fleet
    /// store's streaming merge walks shard files once per tag in this
    /// order, so concatenation reproduces the in-memory export byte for
    /// byte.
    pub const ALL: [RecordTag; 4] = [
        RecordTag::Access,
        RecordTag::Account,
        RecordTag::OpenedText,
        RecordTag::Gap,
    ];

    /// The tag as written after `"record":`.
    pub fn as_str(self) -> &'static str {
        match self {
            RecordTag::Access => "access",
            RecordTag::Account => "account",
            RecordTag::OpenedText => "opened_text",
            RecordTag::Gap => "gap",
        }
    }

    /// The tag written as `tag`, if any; the match is exact.
    pub fn parse(tag: &str) -> Option<RecordTag> {
        RecordTag::ALL.into_iter().find(|t| t.as_str() == tag)
    }
}

/// Incremental JSONL writer for dataset records.
///
/// Each line is a two-key object `{"record": <tag>, "value": <record>}`
/// with a [`RecordTag`], in the compact JSON rendering. Lines are
/// written (and counted) as records arrive; nothing is buffered beyond
/// the current line.
pub struct DatasetWriter<W: Write> {
    out: W,
    records: u64,
}

impl<W: Write> DatasetWriter<W> {
    /// Wrap a sink. The writer does not buffer; hand it a
    /// `BufWriter` when writing to a file-like sink.
    pub fn new(out: W) -> DatasetWriter<W> {
        DatasetWriter { out, records: 0 }
    }

    fn line(&mut self, tag: RecordTag, value: Json) -> io::Result<()> {
        let obj = Json::Obj(vec![
            ("record".to_string(), Json::Str(tag.as_str().to_string())),
            ("value".to_string(), value),
        ]);
        self.out.write_all(obj.compact().as_bytes())?;
        self.out.write_all(b"\n")?;
        self.records += 1;
        Ok(())
    }

    /// Emit one parsed access.
    pub fn access(&mut self, a: &ParsedAccess) -> io::Result<()> {
        self.line(RecordTag::Access, a.to_json_value())
    }

    /// Emit one per-account metadata record.
    pub fn account(&mut self, a: &AccountRecord) -> io::Result<()> {
        self.line(RecordTag::Account, a.to_json_value())
    }

    /// Emit one opened-email text snapshot.
    pub fn opened_text(&mut self, text: &str) -> io::Result<()> {
        self.line(RecordTag::OpenedText, Json::Str(text.to_string()))
    }

    /// Emit one monitoring-gap record.
    pub fn gap(&mut self, g: &GapRecord) -> io::Result<()> {
        self.line(RecordTag::Gap, g.to_json_value())
    }

    /// Stream every record of an already-built dataset, in the same
    /// order [`Dataset::to_json`] serializes them (accesses, accounts,
    /// opened texts, gaps).
    pub fn write_dataset(&mut self, ds: &Dataset) -> io::Result<()> {
        for a in &ds.accesses {
            self.access(a)?;
        }
        for a in &ds.accounts {
            self.account(a)?;
        }
        for t in &ds.opened_texts {
            self.opened_text(t)?;
        }
        for g in &ds.gaps {
            self.gap(g)?;
        }
        Ok(())
    }

    /// Lines written so far.
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// Flush and hand the sink back.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// The record tag of one JSONL line, without parsing the record — the
/// streaming fleet-store merge classifies millions of lines with this.
/// `None` unless the line starts with the writer's exact
/// `{"record":"<tag>"` prefix and a tag [`RecordTag::parse`] knows.
pub fn record_tag(line: &str) -> Option<RecordTag> {
    let rest = line.strip_prefix(RECORD_PREFIX)?;
    RecordTag::parse(&rest[..rest.find('"')?])
}

const RECORD_PREFIX: &str = "{\"record\":\"";

/// One decoded JSONL record line.
#[derive(Clone, Debug, PartialEq)]
pub enum Record {
    /// A [`RecordTag::Access`] line.
    Access(ParsedAccess),
    /// A [`RecordTag::Account`] line.
    Account(AccountRecord),
    /// A [`RecordTag::OpenedText`] line.
    OpenedText(String),
    /// A [`RecordTag::Gap`] line.
    Gap(GapRecord),
}

/// Decode one JSONL line into its typed record. The exact compact layout
/// [`DatasetWriter`] writes (keys in writer order, no whitespace or
/// string escapes) is read field by field; any other line goes through
/// [`Json::parse`] and `from_json_value`, so the lines accepted and the
/// records given are exactly that generic path's. Errors start
/// `malformed record:` (not JSON), `<kind> record:` or name the tag.
pub fn decode_record(line: &str) -> Result<Record, JsonError> {
    if let Some(record) = decode_compact(line) {
        return Ok(record);
    }
    let error = |msg: String| JsonError { msg, at: 0 };
    let obj = Json::parse(line).map_err(|e| JsonError {
        msg: format!("malformed record: {}", e.msg),
        at: e.at,
    })?;
    let tag = obj.get("record").and_then(Json::as_str);
    let tag = tag.ok_or_else(|| error("missing record tag".to_string()))?;
    let kinded = |e: JsonError| JsonError {
        msg: format!("{tag} record: {}", e.msg),
        at: e.at,
    };
    let value = obj.get("value");
    let value = value.ok_or_else(|| kinded(error("missing value".to_string())))?;
    let Some(kind) = RecordTag::parse(tag) else {
        return Err(error(format!("unknown record tag {tag:?}")));
    };
    match kind {
        RecordTag::Access => ParsedAccess::from_json_value(value).map(Record::Access),
        RecordTag::Account => AccountRecord::from_json_value(value).map(Record::Account),
        RecordTag::OpenedText => value
            .as_str()
            .map(|text| Record::OpenedText(text.to_string()))
            .ok_or_else(|| error("value must be a string".to_string())),
        RecordTag::Gap => GapRecord::from_json_value(value).map(Record::Gap),
    }
    .map_err(kinded)
}

/// [`decode_record`]'s fast path: `None` as soon as the line departs
/// from the writer's layout.
fn decode_compact(line: &str) -> Option<Record> {
    let tag = record_tag(line)?;
    let rest = line.get(RECORD_PREFIX.len() + tag.as_str().len()..)?;
    let rest = rest.strip_prefix("\",\"value\":")?;
    let mut c = Compact { rest, sep: "{" };
    let record = match tag {
        RecordTag::Access => Record::Access(ParsedAccess {
            account: c.key("account")?.u32()?,
            cookie: c.key("cookie")?.u64()?,
            first_seen_secs: c.key("first_seen_secs")?.u64()?,
            last_seen_secs: c.key("last_seen_secs")?.u64()?,
            ip: c.key("ip")?.string()?,
            country: c.key("country")?.opt(Compact::string)?,
            city: c.key("city")?.string()?,
            lat: c.key("lat")?.f64()?,
            lon: c.key("lon")?.f64()?,
            browser: c.key("browser")?.string()?,
            os: c.key("os")?.string()?,
            via_tor: c.key("via_tor")?.bool()?,
            opened: c.key("opened")?.u32()?,
            sent: c.key("sent")?.u32()?,
            drafts: c.key("drafts")?.u32()?,
            starred: c.key("starred")?.u32()?,
            hijacker: c.key("hijacker")?.bool()?,
            has_location_row: c.key("has_location_row")?.bool()?,
        }),
        RecordTag::Account => Record::Account(AccountRecord {
            account: c.key("account")?.u32()?,
            outlet: c.key("outlet")?.string()?,
            advertised_region: c.key("advertised_region")?.opt(Compact::string)?,
            leaked_at_secs: c.key("leaked_at_secs")?.u64()?,
            hijack_detected_secs: c.key("hijack_detected_secs")?.opt(Compact::u64)?,
            block_detected_secs: c.key("block_detected_secs")?.opt(Compact::u64)?,
            coverage: match c.rest {
                "}}" => None,
                _ => Some(c.key("coverage")?.f64()?),
            },
        }),
        RecordTag::OpenedText => Record::OpenedText(c.string()?),
        RecordTag::Gap => Record::Gap(GapRecord {
            account: c.key("account")?.u32()?,
            kind: c.key("kind")?.string()?,
            from_secs: c.key("from_secs")?.u64()?,
            until_secs: c.key("until_secs")?.u64()?,
        }),
    };
    // A bare string value has no object of its own to close.
    let end = if tag == RecordTag::OpenedText {
        "}"
    } else {
        "}}"
    };
    (c.rest == end).then_some(record)
}

/// A cursor over one line in [`DatasetWriter`]'s compact layout: each
/// read gives the value the generic parser reads from the same bytes, or
/// `None` at the first byte the writer would not have put there.
struct Compact<'a> {
    rest: &'a str,
    /// What precedes the next key: `{` before the first, then `,`.
    sep: &'static str,
}

impl<'a> Compact<'a> {
    /// The next key, which must be `key`, and its colon.
    fn key(&mut self, key: &str) -> Option<&mut Self> {
        let rest = self.rest.strip_prefix(self.sep)?.strip_prefix('"')?;
        self.rest = rest.strip_prefix(key)?.strip_prefix("\":")?;
        self.sep = ",";
        Some(self)
    }

    /// `null`, or what `read` reads.
    fn opt<T>(&mut self, read: fn(&mut Self) -> Option<T>) -> Option<Option<T>> {
        match self.rest.strip_prefix("null") {
            Some(rest) => self.rest = rest,
            None => return read(self).map(Some),
        }
        Some(None)
    }

    /// A string with no escapes; the generic parser takes the rest.
    fn string(&mut self) -> Option<String> {
        let body = self.rest.strip_prefix('"')?;
        let end = body.find(|c: char| c == '"' || c == '\\' || c < ' ')?;
        self.rest = body[end..].strip_prefix('"')?;
        Some(body[..end].to_string())
    }

    /// The generic parser's number scan: a `-` or digit, then digits
    /// and `.eE+-`.
    fn number(&mut self) -> Option<&'a str> {
        let unsigned = self.rest.strip_prefix('-').unwrap_or(self.rest);
        let end = unsigned.find(|c: char| !matches!(c, '0'..='9' | '.' | 'e' | 'E' | '+' | '-'));
        let at = self.rest.len() - unsigned.len() + end.unwrap_or(unsigned.len());
        let (text, rest) = self.rest.split_at(at);
        self.rest = rest;
        text.starts_with(|c: char| c == '-' || c.is_ascii_digit())
            .then_some(text)
    }

    /// Plain digits: the generic parser reads a signed or fractional
    /// form as another kind of number.
    fn u64(&mut self) -> Option<u64> {
        let text = self.number()?;
        let digits = text.bytes().all(|b| b.is_ascii_digit());
        digits.then(|| text.parse().ok())?
    }

    fn u32(&mut self) -> Option<u32> {
        u32::try_from(self.u64()?).ok()
    }

    /// A number with a fraction or exponent character after its sign,
    /// which the generic parser reads as a float.
    fn f64(&mut self) -> Option<f64> {
        let text = self.number()?;
        let unsigned = text.strip_prefix('-').unwrap_or(text);
        let fraction = unsigned.contains(['.', 'e', 'E', '+', '-']);
        fraction.then(|| text.parse().ok())?
    }

    fn bool(&mut self) -> Option<bool> {
        let value = self.rest.starts_with('t');
        let word = if value { "true" } else { "false" };
        self.rest = self.rest.strip_prefix(word)?;
        Some(value)
    }
}

pub use pwnd_telemetry::jsonl::MAX_LINE_BYTES;

/// The dataset stream's line reader: [`jsonl::for_each_line`], which
/// refuses a line longer than [`MAX_LINE_BYTES`] and non-UTF-8 bytes,
/// plus one check of its own: a non-blank line without a tag from
/// [`RecordTag::ALL`] is an error too. Each error names `name` and the
/// line. Peak memory is one line, in one reused buffer.
pub fn for_each_line(
    name: &str,
    reader: impl BufRead,
    mut f: impl FnMut(usize, &str) -> io::Result<()>,
) -> io::Result<()> {
    jsonl::for_each_line(name, reader, |lineno, line| {
        if record_tag(line).is_none() && !line.trim().is_empty() {
            let what = format!(
                "no record tag from {:?}",
                RecordTag::ALL.map(RecordTag::as_str)
            );
            return Err(line_error(name, lineno, &what));
        }
        f(lineno, line)
    })
}

/// Every record of the given `kinds` in `reader`, in stream order,
/// decoded by [`decode_record`]. A line that does not decode, such as
/// the last of a stream cut mid-record, fails as in [`for_each_line`].
pub fn for_each_record(
    name: &str,
    reader: impl BufRead,
    kinds: &[RecordTag],
    mut f: impl FnMut(Record),
) -> io::Result<()> {
    for_each_line(name, reader, |lineno, line| {
        if record_tag(line).is_some_and(|tag| kinds.contains(&tag)) {
            let record = decode_record(line).map_err(|e| line_error(name, lineno, &e.msg))?;
            f(record);
        }
        Ok(())
    })
}

/// Re-assemble a [`Dataset`] from a [`DatasetWriter`] stream, every
/// record decoded by [`for_each_record`] and grouped by tag in stream
/// order, so its `to_json()` is byte-identical to the streamed one's.
pub fn read_jsonl(name: &str, reader: impl BufRead) -> io::Result<Dataset> {
    let mut ds = Dataset::default();
    for_each_record(name, reader, &RecordTag::ALL, |record| match record {
        Record::Access(a) => ds.accesses.push(a),
        Record::Account(a) => ds.accounts.push(a),
        Record::OpenedText(t) => ds.opened_texts.push(t),
        Record::Gap(g) => ds.gaps.push(g),
    })?;
    Ok(ds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn sample() -> Dataset {
        Dataset {
            accesses: vec![ParsedAccess {
                account: 3,
                cookie: 7,
                first_seen_secs: 100,
                last_seen_secs: 250,
                ip: "10.1.2.3".into(),
                country: Some("BR".into()),
                city: "Rio de Janeiro".into(),
                lat: -22.9,
                lon: -43.2,
                browser: "Chrome".into(),
                os: "Windows".into(),
                via_tor: false,
                opened: 2,
                sent: 0,
                drafts: 1,
                starred: 0,
                hijacker: false,
                has_location_row: true,
            }],
            accounts: vec![AccountRecord {
                account: 3,
                outlet: "paste".into(),
                advertised_region: None,
                leaked_at_secs: 50,
                hijack_detected_secs: None,
                block_detected_secs: Some(900),
                coverage: None,
            }],
            opened_texts: vec!["payment due\nwire details".into()],
            gaps: vec![GapRecord {
                account: 3,
                kind: "scraper".into(),
                from_secs: 300,
                until_secs: 400,
            }],
        }
    }

    #[test]
    fn stream_round_trips_to_identical_json() {
        let ds = sample();
        let mut w = DatasetWriter::new(Vec::new());
        w.write_dataset(&ds).unwrap();
        assert_eq!(w.records_written(), 4);
        let bytes = w.finish().unwrap();
        let back = read_jsonl("stream", &bytes[..]).unwrap();
        assert_eq!(back.to_json(), ds.to_json());
    }

    #[test]
    fn one_record_per_line_compact() {
        let ds = sample();
        let mut w = DatasetWriter::new(Vec::new());
        w.write_dataset(&ds).unwrap();
        let text = String::from_utf8(w.finish().unwrap()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("{\"record\":\"access\""));
        assert!(lines[1].starts_with("{\"record\":\"account\""));
        assert!(lines[2].starts_with("{\"record\":\"opened_text\""));
        assert!(lines[3].starts_with("{\"record\":\"gap\""));
        // No pretty-printing: a record never spans lines.
        assert!(!text.contains("\n  "));
    }

    #[test]
    fn interleaved_records_regroup_by_tag() {
        let ds = sample();
        let mut w = DatasetWriter::new(Vec::new());
        // Deliberately out of to_json order.
        w.gap(&ds.gaps[0]).unwrap();
        w.account(&ds.accounts[0]).unwrap();
        w.opened_text(&ds.opened_texts[0]).unwrap();
        w.access(&ds.accesses[0]).unwrap();
        let bytes = w.finish().unwrap();
        let back = read_jsonl("stream", &bytes[..]).unwrap();
        assert_eq!(back.to_json(), ds.to_json());
    }

    #[test]
    fn blank_lines_ignored_unknown_tags_rejected() {
        let read = |text: &str| read_jsonl("stream", text.as_bytes());
        assert!(read("\n\n").unwrap().accesses.is_empty());
        let err = read("{\"record\":\"bogus\",\"value\":1}\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "stream: line 1: no record tag from [\"access\", \"account\", \"opened_text\", \"gap\"]"
        );
        assert!(read("{\"value\":1}\n").is_err());
    }

    #[test]
    fn parse_errors_name_the_line_and_record_kind() {
        // A well-formed line followed by an access record missing its
        // fields: the error says which line and which kind.
        let good = {
            let mut w = DatasetWriter::new(Vec::new());
            w.opened_text("hello").unwrap();
            String::from_utf8(w.finish().unwrap()).unwrap()
        };
        let stream = format!("{good}{{\"record\":\"access\",\"value\":{{}}}}\n");
        let err = read_jsonl("stream", stream.as_bytes())
            .unwrap_err()
            .to_string();
        assert!(err.starts_with("stream: line 2: access record:"), "{err}");

        // So is malformed JSON.
        let stream = format!("{{\"record\":\"access\",\"val\n{good}");
        let err = read_jsonl("stream", stream.as_bytes())
            .unwrap_err()
            .to_string();
        assert!(
            err.starts_with("stream: line 1: malformed record:"),
            "{err}"
        );
    }

    #[test]
    fn a_cut_final_line_is_an_error_naming_it() {
        let ds = sample();
        let mut w = DatasetWriter::new(Vec::new());
        w.write_dataset(&ds).unwrap();
        let full = w.finish().unwrap();
        // Cut the stream mid-way through the final record.
        let cut = &full[..full.len() - 20];
        let err = read_jsonl("d.jsonl", cut).unwrap_err().to_string();
        assert!(
            err.starts_with("d.jsonl: line 4: malformed record:"),
            "{err}"
        );
        // Cut inside the tag itself: the line has no record tag.
        let last = full[..full.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap()
            + 1;
        let cut = &full[..last + 5];
        let err = read_jsonl("d.jsonl", cut).unwrap_err().to_string();
        assert!(err.starts_with("d.jsonl: line 4: no record tag"), "{err}");
    }

    #[test]
    fn a_line_longer_than_the_cap_is_an_error_without_reading_on() {
        let tag = "{\"record\":\"gap\"";
        let longest = format!("{tag}{}\n", "x".repeat(MAX_LINE_BYTES - tag.len()));
        let mut seen = 0;
        for_each_line("s", longest.as_bytes(), |_, line| {
            seen = line.len();
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, MAX_LINE_BYTES);
        let longer = format!("{tag}{}\n", "x".repeat(MAX_LINE_BYTES + 1 - tag.len()));
        let err = for_each_line("s", longer.as_bytes(), |_, _| Ok(())).unwrap_err();
        assert_eq!(err.to_string(), "s: line 1: line longer than 1 MiB");
        // Reading stops at the cap: a long line is never buffered whole.
        let mut long = io::BufReader::new(io::repeat(b'x').take(8 << 20));
        let err = for_each_line("s", &mut long, |_, _| Ok(())).unwrap_err();
        assert_eq!(err.to_string(), "s: line 1: line longer than 1 MiB");
        assert!(
            long.get_ref().limit() > 6 << 20,
            "{} left",
            long.get_ref().limit()
        );
    }

    #[test]
    fn every_record_tag_is_written_and_read_back() {
        // One record of each kind: the writer emits every tag, in
        // `RecordTag::ALL` order, and the reader decodes each of them.
        let ds = sample();
        let mut w = DatasetWriter::new(Vec::new());
        w.write_dataset(&ds).unwrap();
        let text = String::from_utf8(w.finish().unwrap()).unwrap();
        let tags: Vec<_> = text.lines().filter_map(record_tag).collect();
        assert_eq!(tags, RecordTag::ALL);
        let back = read_jsonl("stream", text.as_bytes()).unwrap();
        assert_eq!(back.accesses, ds.accesses);
        assert_eq!(back.accounts, ds.accounts);
        assert_eq!(back.opened_texts, ds.opened_texts);
        assert_eq!(back.gaps, ds.gaps);
        for t in RecordTag::ALL {
            assert_eq!(RecordTag::parse(t.as_str()), Some(t));
        }
        for other in ["Access", "", "gaps"] {
            assert_eq!(RecordTag::parse(other), None, "{other:?}");
        }
    }

    #[test]
    fn record_tag_classifies_lines_without_parsing() {
        assert_eq!(
            record_tag("{\"record\":\"gap\",\"value\":1}"),
            Some(RecordTag::Gap)
        );
        assert_eq!(record_tag(""), None);
        assert_eq!(record_tag("{\"value\":1}"), None);
        assert_eq!(record_tag("{\"record\":\"acc"), None);
    }

    #[test]
    fn gapless_stream_reassembles_legacy_shape() {
        let mut ds = sample();
        ds.gaps.clear();
        ds.accounts[0].coverage = None;
        let mut w = DatasetWriter::new(Vec::new());
        w.write_dataset(&ds).unwrap();
        let bytes = w.finish().unwrap();
        let back = read_jsonl("stream", &bytes[..]).unwrap();
        let json = back.to_json();
        assert!(!json.contains("\"gaps\""));
        assert_eq!(json, ds.to_json());
    }
}
