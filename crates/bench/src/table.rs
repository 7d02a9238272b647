//! Minimal tables for the figure harness.
//!
//! A data figure is a [`Figure`]: a caption, one [`Table`] and optional
//! notes. The table is the only definition of the figure's columns: its
//! text rendering rounds each numeric cell to its column's precision, and
//! its CSV prints the same header and rows at full precision.

/// One table cell.
#[derive(Debug, Clone)]
pub enum Cell {
    /// A label, printed as is.
    Text(String),
    /// A number, rounded to its column's precision in text.
    Num(f64),
    /// A value the experiment did not reach, printed as `-`.
    Missing,
}

impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Self::Num(v)
    }
}

impl From<Option<f64>> for Cell {
    fn from(v: Option<f64>) -> Self {
        v.map_or(Self::Missing, Self::Num)
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Self {
        Self::Text(s)
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Self::Text(s.to_owned())
    }
}

/// A header of `(name, decimals)` columns and rows of cells; `decimals`
/// is the text precision of the column's numeric cells.
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<(String, usize)>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// An empty table with the given columns.
    #[must_use]
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = (S, usize)>) -> Self {
        Self {
            header: header.into_iter().map(|(n, d)| (n.into(), d)).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's width differs from the header's.
    pub fn push(&mut self, row: Vec<Cell>) {
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    fn names(&self) -> Vec<&str> {
        self.header.iter().map(|(n, _)| n.as_str()).collect()
    }

    fn cells(&self, num: impl Fn(f64, usize) -> String) -> Vec<Vec<String>> {
        self.rows
            .iter()
            .map(|row| {
                row.iter()
                    .zip(&self.header)
                    .map(|(cell, &(_, decimals))| match cell {
                        Cell::Text(s) => s.clone(),
                        Cell::Num(v) => num(*v, decimals),
                        Cell::Missing => "-".to_owned(),
                    })
                    .collect()
            })
            .collect()
    }

    /// The aligned text table, each number rounded to its column's
    /// precision.
    #[must_use]
    pub fn text(&self) -> String {
        render(&self.names(), &self.cells(f))
    }

    /// The CSV: the same header and rows, numbers at full precision.
    #[must_use]
    pub fn csv(&self) -> String {
        let escape = |s: &str| -> String {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_owned()
            }
        };
        let line = |cells: Vec<&str>| cells.into_iter().map(escape).collect::<Vec<_>>().join(",");
        let mut out = line(self.names());
        out.push('\n');
        for row in self.cells(|v, _| format!("{v}")) {
            out.push_str(&line(row.iter().map(String::as_str).collect()));
            out.push('\n');
        }
        out
    }
}

/// A data figure: a caption line, its table, and notes printed after
/// the table (empty, or starting with a blank line).
#[derive(Debug, Clone)]
pub struct Figure {
    /// The line above the table.
    pub caption: String,
    /// The figure's data.
    pub table: Table,
    /// Summary lines below the table.
    pub notes: String,
}

impl Figure {
    /// A figure without notes.
    #[must_use]
    pub fn new(caption: impl Into<String>, table: Table) -> Self {
        Self {
            caption: caption.into(),
            table,
            notes: String::new(),
        }
    }

    /// The figure as text: caption, blank line, table, notes.
    #[must_use]
    pub fn text(&self) -> String {
        format!("{}\n\n{}{}", self.caption, self.table.text(), self.notes)
    }
}

/// Renders rows as an aligned text table with a header row.
///
/// # Panics
///
/// Panics if any row's width differs from the header's.
#[must_use]
pub(crate) fn render(header: &[&str], rows: &[Vec<String>]) -> String {
    for row in rows {
        assert_eq!(row.len(), header.len(), "row width mismatch");
    }
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{cell:<w$}"));
        }
        line.trim_end().to_owned()
    };
    out.push_str(&fmt_row(header.to_vec(), &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(String::as_str).collect(), &widths));
        out.push('\n');
    }
    out
}

/// Formats a float with the given number of decimals.
#[must_use]
pub(crate) fn f(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let out = render(
            &["name", "value"],
            &[
                vec!["a".into(), "1.0".into()],
                vec!["longer".into(), "2.5".into()],
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a"));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    fn formats() {
        assert_eq!(f(1.23456, 2), "1.23");
        let mut t = Table::new([("label, quoted", 0), ("min", 1)]);
        t.push(vec!["a".into(), Some(12.34).into()]);
        t.push(vec!["b".into(), None.into()]);
        assert_eq!(t.csv(), "\"label, quoted\",min\na,12.34\nb,-\n");
        assert!(t
            .text()
            .ends_with("a              12.3\nb              -\n"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let _ = render(&["a", "b"], &[vec!["1".into()]]);
    }
}
