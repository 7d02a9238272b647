//! Every data figure's CSV is its text table at full precision: the same
//! header, the same rows, and each numeric cell rounds to the text cell
//! at the precision the text shows. The prose artifacts have no CSV.

use std::process::{Command, Output};

const PROSE: [&str; 3] = ["table1", "table2", "ablations"];

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures runs")
}

fn stdout(args: &[&str]) -> String {
    let out = figures(args);
    assert!(
        out.status.success(),
        "figures {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The header and rows of the one table in a figure's text: the line
/// above the dashed rule is the header, and its column starts (each
/// after a run of two spaces) cut every row into cells.
fn text_table(text: &str) -> Vec<Vec<String>> {
    let lines: Vec<&str> = text.lines().collect();
    let rule = lines
        .iter()
        .position(|l| !l.is_empty() && l.chars().all(|c| c == '-'))
        .expect("a dashed rule under the header");
    let header: Vec<char> = lines[rule - 1].chars().collect();
    let mut starts = vec![0];
    starts
        .extend((2..header.len()).filter(|&i| header[i] != ' ' && header[i - 2..i] == [' ', ' ']));
    std::iter::once(lines[rule - 1])
        .chain(
            lines[rule + 1..]
                .iter()
                .copied()
                .take_while(|l| !l.is_empty()),
        )
        .map(|line| {
            let chars: Vec<char> = line.chars().collect();
            let cut = |i: usize| starts.get(i).map_or(chars.len(), |&s| s.min(chars.len()));
            (0..starts.len())
                .map(|i| {
                    chars[cut(i)..cut(i + 1)]
                        .iter()
                        .collect::<String>()
                        .trim()
                        .to_owned()
                })
                .collect()
        })
        .collect()
}

/// Splits CSV lines into fields; a quoted field may hold commas and
/// doubled quotes.
fn csv_table(csv: &str) -> Vec<Vec<String>> {
    csv.lines()
        .map(|line| {
            let mut fields = vec![String::new()];
            let mut quoted = false;
            let mut chars = line.chars().peekable();
            while let Some(c) = chars.next() {
                match (c, quoted) {
                    ('"', true) if chars.peek() == Some(&'"') => {
                        chars.next();
                        fields.last_mut().expect("field").push('"');
                    }
                    ('"', _) => quoted = !quoted,
                    (',', false) => fields.push(String::new()),
                    _ => fields.last_mut().expect("field").push(c),
                }
            }
            fields
        })
        .collect()
}

/// Mismatches between a figure's text table and its CSV.
fn mismatches(id: &str, text: &[Vec<String>], csv: &[Vec<String>]) -> Vec<String> {
    let mut out = Vec::new();
    if text[0] != csv[0] {
        out.push(format!(
            "{id}: CSV header {:?} != text header {:?}",
            csv[0], text[0]
        ));
    }
    if text.len() != csv.len() {
        out.push(format!(
            "{id}: CSV has {} rows, text has {}",
            csv.len() - 1,
            text.len() - 1
        ));
    }
    for (r, (t_row, c_row)) in text.iter().zip(csv).enumerate().skip(1) {
        for (t, c) in t_row.iter().zip(c_row) {
            if t == c {
                continue;
            }
            let decimals = t.split_once('.').map_or(0, |(_, frac)| frac.len());
            let rounded = c.parse::<f64>().map(|v| format!("{v:.decimals$}"));
            if rounded.as_deref() != Ok(t.as_str()) {
                out.push(format!(
                    "{id} row {r}: CSV cell {c:?} does not round to text cell {t:?}"
                ));
            }
        }
    }
    out
}

#[test]
fn every_data_figure_csv_matches_its_text_table() {
    let listing = stdout(&[]);
    let ids: Vec<&str> = listing
        .lines()
        .filter_map(|l| l.strip_prefix("  "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert!(ids.len() >= 19, "listing: {listing}");
    let mut problems = Vec::new();
    let mut figures_checked = 0;
    for id in ids {
        if PROSE.contains(&id) {
            let out = figures(&["csv", id]);
            assert_eq!(out.status.code(), Some(1), "{id} is prose and has no CSV");
            assert!(out.stdout.is_empty());
            continue;
        }
        let text = text_table(&stdout(&[id]));
        let csv = csv_table(&stdout(&["csv", id]));
        problems.extend(mismatches(id, &text, &csv));
        figures_checked += 1;
    }
    assert_eq!(figures_checked, 16);
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}
