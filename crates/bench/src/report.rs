//! Fixed-width table formatting for experiment output.

/// A printable results table with a title, column headers, and rows.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cell, width = widths[i]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
        }
        out
    }

    /// Renders and prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
        println!();
    }

    /// Renders the table as machine-readable JSON: an object with the
    /// title and an array of row objects keyed by header. Cells that parse
    /// as numbers are emitted as JSON numbers so downstream tooling can
    /// consume them without re-parsing strings.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"title\": ");
        out.push_str(&json_string(&self.title));
        out.push_str(",\n  \"rows\": [");
        for (r, row) in self.rows.iter().enumerate() {
            if r > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            for (i, (h, cell)) in self.headers.iter().zip(row).enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_string(h));
                out.push_str(": ");
                out.push_str(&json_cell(cell));
            }
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Quotes and escapes a string for JSON.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A cell becomes a JSON number only when it already *is* one in JSON's
/// grammar (Rust's float parser is laxer — it accepts `+1.5`, `.5`, `1.`,
/// `007` — and emitting those unquoted would corrupt the output).
fn json_cell(cell: &str) -> String {
    if is_json_number(cell) {
        cell.to_string()
    } else {
        json_string(cell)
    }
}

/// RFC 8259 `number` grammar: `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
fn is_json_number(s: &str) -> bool {
    let b = s.as_bytes();
    let mut i = 0;
    if b.first() == Some(&b'-') {
        i += 1;
    }
    let int_start = i;
    while i < b.len() && b[i].is_ascii_digit() {
        i += 1;
    }
    let int_len = i - int_start;
    if int_len == 0 || (int_len > 1 && b[int_start] == b'0') {
        return false;
    }
    if i < b.len() && b[i] == b'.' {
        i += 1;
        let frac_start = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        if i == frac_start {
            return false;
        }
    }
    if i < b.len() && (b[i] == b'e' || b[i] == b'E') {
        i += 1;
        if i < b.len() && (b[i] == b'+' || b[i] == b'-') {
            i += 1;
        }
        let exp_start = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        if i == exp_start {
            return false;
        }
    }
    i == b.len()
}

/// Formats a millisecond value compactly.
pub fn ms(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Formats a byte count as MB with one decimal.
pub fn mb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        let r = t.render();
        assert!(r.contains("== Demo =="));
        assert!(r.contains("longer"));
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[should_panic]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only one".into()]);
    }

    #[test]
    fn json_rows_type_cells() {
        let mut t = Table::new("J \"quoted\"", &["name", "ms"]);
        t.row(vec!["q1".into(), "12.5".into()]);
        t.row(vec!["q2".into(), "n/a".into()]);
        let j = t.to_json();
        assert!(j.contains("\"title\": \"J \\\"quoted\\\"\""));
        assert!(j.contains("{\"name\": \"q1\", \"ms\": 12.5}"));
        assert!(j.contains("{\"name\": \"q2\", \"ms\": \"n/a\"}"));
    }

    #[test]
    fn json_numbers_follow_json_grammar_not_rusts() {
        for ok in ["0", "-1", "12.5", "1e9", "1.25E-3", "0.5"] {
            assert_eq!(super::json_cell(ok), ok, "{ok} is a JSON number");
        }
        // Parseable by Rust's f64::from_str, but not JSON numbers — must
        // be quoted or the emitted document is invalid.
        for bad in ["+1.5", ".5", "1.", "007", "inf", "NaN", "1e", "--1", ""] {
            assert!(
                super::json_cell(bad).starts_with('"'),
                "{bad:?} must be quoted"
            );
        }
    }

    #[test]
    fn formatters() {
        assert_eq!(ms(250.4), "250");
        assert_eq!(ms(2.54), "2.5");
        assert_eq!(ms(0.1234), "0.123");
        assert_eq!(mb(10 * 1024 * 1024), "10.0");
    }
}
