//! Minimal text-table rendering for the figure harness.

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

/// Renders rows as CSV with a header row (fields are simple numbers and
/// labels; labels containing commas are quoted).
///
/// # Panics
///
/// Panics if any row's width differs from the header's.
#[must_use]
pub(crate) fn csv(header: &[&str], rows: &[Vec<String>]) -> String {
    let escape = |s: &str| -> String {
        if s.contains(',') || s.contains('"') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_owned()
        }
    };
    let mut out = header
        .iter()
        .map(|h| escape(h))
        .collect::<Vec<_>>()
        .join(",");
    out.push('\n');
    for row in rows {
        assert_eq!(row.len(), header.len(), "row width mismatch");
        out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

/// Formats a float with the given number of decimals.
#[must_use]
pub(crate) fn f(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// Formats an optional duration in minutes ("-" when absent).
#[must_use]
pub(crate) fn opt_min(value: Option<f64>) -> String {
    value.map_or_else(|| "-".to_owned(), |v| format!("{v:.1}"))
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
        assert_eq!(opt_min(None), "-");
        assert_eq!(opt_min(Some(12.34)), "12.3");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let _ = render(&["a", "b"], &[vec!["1".into()]]);
    }
}
