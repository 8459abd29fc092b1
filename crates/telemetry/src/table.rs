//! A small fixed-width table renderer, shared by the CLI (`sweep`,
//! `truth`, `--profile`) and the telemetry report so column layouts
//! stay consistent everywhere.

/// Horizontal alignment of one column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Align {
    /// Pad on the right (text).
    Left,
    /// Pad on the left (numbers).
    Right,
}

/// A header row plus data rows, rendered with padded columns and a
/// dashed rule under the header.
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with left-aligned columns named `headers`.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|h| h.to_string()).collect(),
            aligns: vec![Align::Left; headers.len()],
            rows: Vec::new(),
        }
    }

    /// Right-align every column except the first (the common
    /// label-then-numbers layout).
    pub fn numeric(mut self) -> Table {
        for a in self.aligns.iter_mut().skip(1) {
            *a = Align::Right;
        }
        self
    }

    /// Append a data row; must match the header width.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Table {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "table row width must match header"
        );
        self.rows.push(row);
        self
    }

    /// Whether any data rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with two-space gutters; every line ends with `\n`.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let pad = widths[i] - cell.len();
                let last = i + 1 == cells.len();
                match self.aligns[i] {
                    Align::Left => {
                        out.push_str(cell);
                        if !last {
                            out.push_str(&" ".repeat(pad));
                        }
                    }
                    Align::Right => {
                        out.push_str(&" ".repeat(pad));
                        out.push_str(cell);
                    }
                }
            }
            out.push('\n');
        };
        fmt_row(&self.headers, &mut out);
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        fmt_row(&rule, &mut out);
        for row in &self.rows {
            fmt_row(row, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_padded_columns() {
        let mut t = Table::new(&["phase", "total"]).numeric();
        t.row(["corpus", "12"]);
        t.row(["event-loop", "3"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "phase       total");
        assert_eq!(lines[1], "----------  -----");
        assert_eq!(lines[2], "corpus         12");
        assert_eq!(lines[3], "event-loop      3");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        Table::new(&["a", "b"]).row(["only-one"]);
    }
}
