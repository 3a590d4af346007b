//! Plain-text tables for `paper_figures`.

use std::fmt::Write as _;

/// A simple left-aligned text table with a header row.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given header.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (cells rendered with `ToString`).
    pub fn row(&mut self, cells: &[&dyn std::fmt::Display]) -> &mut Self {
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
        self
    }

    /// Appends a row of pre-rendered strings.
    pub fn row_strings(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self
            .header
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let _ = write!(out, "| {cell:<w$} ");
            }
            out.push_str("|\n");
        };
        render_row(&mut out, &self.header);
        for w in &widths {
            let _ = write!(out, "|{:-<width$}", "", width = w + 2);
        }
        out.push_str("|\n");
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["protocol", "latency"]);
        t.row(&[&"2PC", &30]);
        t.row(&[&"QC1+TP1", &50]);
        let s = t.render();
        assert!(s.contains("| protocol | latency |"));
        assert!(s.contains("| 2PC      | 30      |"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn handles_ragged_rows() {
        let mut t = Table::new(&["a"]);
        t.row_strings(vec!["x".into(), "y".into()]);
        let s = t.render();
        assert!(s.contains("x"));
        assert!(s.contains("y"));
    }
}
