//! The one JSON Lines line reader, for every file the programs read back
//! a line at a time: dataset and store streams (`pwnd-monitor`'s
//! `export`, which adds its record-tag check) and the fleet's
//! `--telemetry-out` span file (`pwnd profile --input`).

use std::io::{self, BufRead, Read};

/// Longest line [`for_each_line`] accepts, in bytes before its `\n`. The
/// longest written lines measure a few KiB (a dataset record under 1 KiB,
/// a `--telemetry-out` span line about 2 KiB), and a line is held whole
/// in memory, so the cap bounds what one line of an outside file takes.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Call `f(1-based line number, line)` for every line of `reader`,
/// endings stripped as [`BufRead::lines`] strips them and blank lines
/// included. A line longer than [`MAX_LINE_BYTES`] and non-UTF-8 bytes
/// are errors naming `name` and the line; reading stops at the cap, so a
/// long line is never buffered whole. Peak memory is one line, in one
/// reused buffer.
pub fn for_each_line(
    name: &str,
    mut reader: impl BufRead,
    mut f: impl FnMut(usize, &str) -> io::Result<()>,
) -> io::Result<()> {
    let mut buf = Vec::new();
    let limit = MAX_LINE_BYTES as u64 + 1;
    for lineno in 1.. {
        buf.clear();
        if reader.by_ref().take(limit).read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        let line = buf.strip_suffix(b"\n");
        if line.is_none() && buf.len() > MAX_LINE_BYTES {
            return Err(line_error(name, lineno, "line longer than 1 MiB"));
        }
        let line = line.map_or(&*buf, |l| l.strip_suffix(b"\r").unwrap_or(l));
        let line = std::str::from_utf8(line).map_err(|_| line_error(name, lineno, "not UTF-8"))?;
        f(lineno, line)?;
    }
    Ok(())
}

/// The error for line `lineno` of `name`: `name: line N: what`.
pub fn line_error(name: &str, lineno: usize, what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{name}: line {lineno}: {what}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_cap_admits_its_own_length_and_no_more() {
        let at_cap = "x".repeat(MAX_LINE_BYTES);
        let mut seen = 0;
        for_each_line("s", at_cap.as_bytes(), |_, line| {
            seen = line.len();
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, MAX_LINE_BYTES);
        let over = io::BufReader::new(io::repeat(b'{').take(MAX_LINE_BYTES as u64 + 1));
        let err = for_each_line("s", over, |_, _| Ok(())).unwrap_err();
        assert_eq!(err.to_string(), "s: line 1: line longer than 1 MiB");
    }

    #[test]
    fn lines_are_numbered_stripped_and_checked_for_utf8() {
        let mut seen = Vec::new();
        for_each_line("s", &b"a\r\n\nb"[..], |n, line| {
            seen.push((n, line.to_string()));
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, [(1, "a".into()), (2, String::new()), (3, "b".into())]);
        let err = for_each_line("s", &b"ok\n\xff\n"[..], |_, _| Ok(())).unwrap_err();
        assert_eq!(err.to_string(), "s: line 2: not UTF-8");
    }
}
