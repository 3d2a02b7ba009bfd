//! Plain-text tables, ASCII series plots and CSV output for the figures.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// A simple fixed-column text table, printed like the paper's tables.
///
/// # Example
///
/// ```
/// use adacomm_bench::Table;
///
/// let mut t = Table::new(vec!["method".into(), "loss".into()]);
/// t.row(vec!["sync-sgd".into(), "0.0123".into()]);
/// let s = t.render();
/// assert!(s.contains("sync-sgd"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new(headers: Vec<String>) -> Self {
        assert!(!headers.is_empty(), "table needs at least one column");
        Table {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells but the table has {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// Renders the table to a string (headers, rule, rows).
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(cell, w)| format!("{cell:>w$}", w = w))
                .collect::<Vec<_>>()
                .join(" | ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 3 * (cols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Writes the table as CSV to `results/<name>.csv` (see [`write_csv`]).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the results directory or the
    /// file cannot be created.
    pub fn save_csv(&self, name: &str) -> io::Result<PathBuf> {
        let mut csv = self.headers.join(",");
        csv.push('\n');
        for row in &self.rows {
            csv.push_str(&row.join(","));
            csv.push('\n');
        }
        write_csv(name, &csv)
    }
}

/// Redirects CSV output into `results/<subdir>/` for the rest of the
/// process — the smoke reproduction writes to `results/smoke/` so a CI
/// exercise never dirties the committed quick-scale CSVs. First call wins;
/// call before any figure runs.
pub fn set_results_subdir(subdir: &str) {
    let _ = results_subdir().set(subdir.to_string());
}

fn results_subdir() -> &'static OnceLock<String> {
    static SUBDIR: OnceLock<String> = OnceLock::new();
    &SUBDIR
}

/// Writes `content` to `results/<name>.csv` with [`binio::install`],
/// creating the directory if needed, and returns the written path — a
/// reader (or a crash) never sees half a CSV. The path is relative to the
/// workspace root when run via cargo, or to the current directory
/// otherwise.
///
/// # Errors
///
/// Returns the underlying I/O error if the directory or file cannot be
/// created.
pub fn write_csv(name: &str, content: &str) -> io::Result<PathBuf> {
    let dir = results_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.csv"));
    binio::install(&path, content.as_bytes())?;
    Ok(path)
}

/// The directory CSVs (and the run store) land in: `results/` at the
/// workspace root, or `results/<subdir>/` after [`set_results_subdir`] —
/// so a `--smoke` run's cache is isolated exactly like its CSVs.
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR points at crates/bench; the workspace root is two
    // levels up. Fall back to ./results when not run through cargo.
    let base = match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => Path::new(&dir).join("../../results"),
        Err(_) => Path::new("results").to_path_buf(),
    };
    match results_subdir().get() {
        Some(sub) => base.join(sub),
        None => base,
    }
}

/// Renders an ASCII plot of one or more `(x, y)` series on a shared log-y
/// axis — the harness's stand-in for the paper's loss curves. Returns the
/// multi-line plot.
///
/// # Panics
///
/// Panics if `series` is empty or every series is empty.
pub fn ascii_series(series: &[(String, Vec<(f64, f64)>)], width: usize, height: usize) -> String {
    assert!(!series.is_empty(), "nothing to plot");
    let points: Vec<(f64, f64)> = series.iter().flat_map(|(_, s)| s.iter().copied()).collect();
    assert!(!points.is_empty(), "all series are empty");
    let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &points {
        let ly = y.max(1e-12).log10();
        x_min = x_min.min(x);
        x_max = x_max.max(x);
        y_min = y_min.min(ly);
        y_max = y_max.max(ly);
    }
    if (x_max - x_min).abs() < 1e-12 {
        x_max = x_min + 1.0;
    }
    if (y_max - y_min).abs() < 1e-12 {
        y_max = y_min + 1.0;
    }
    let mut grid = vec![vec![b' '; width]; height];
    let marks = [b'*', b'o', b'+', b'x', b'#', b'@'];
    for (si, (_, s)) in series.iter().enumerate() {
        let mark = marks[si % marks.len()];
        for &(x, y) in s {
            let ly = y.max(1e-12).log10();
            let col = (((x - x_min) / (x_max - x_min)) * (width - 1) as f64).round() as usize;
            let row = (((y_max - ly) / (y_max - y_min)) * (height - 1) as f64).round() as usize;
            grid[row.min(height - 1)][col.min(width - 1)] = mark;
        }
    }
    let mut out = String::new();
    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            format!("{:>8.3} ", 10f64.powf(y_max))
        } else if i == height - 1 {
            format!("{:>8.3} ", 10f64.powf(y_min))
        } else {
            " ".repeat(9)
        };
        let _ = writeln!(out, "{label}|{}", String::from_utf8_lossy(row));
    }
    let _ = writeln!(out, "{}+{}", " ".repeat(9), "-".repeat(width));
    let _ = writeln!(
        out,
        "{}{:<10.1}{:>w$.1}",
        " ".repeat(10),
        x_min,
        x_max,
        w = width.saturating_sub(10)
    );
    for (si, (name, _)) in series.iter().enumerate() {
        let _ = writeln!(
            out,
            "          {} = {name}",
            marks[si % marks.len()] as char
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["a".into(), "bb".into()]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["333".into(), "4".into()]);
        let s = t.render();
        assert!(s.contains("333 |  4"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
    }

    #[test]
    #[should_panic(expected = "row has 1 cells")]
    fn arity_checked() {
        let mut t = Table::new(vec!["a".into(), "b".into()]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn ascii_series_contains_marks_and_legend() {
        let s = ascii_series(
            &[
                ("one".into(), vec![(0.0, 1.0), (1.0, 0.1)]),
                ("two".into(), vec![(0.0, 2.0), (1.0, 0.5)]),
            ],
            40,
            10,
        );
        assert!(s.contains('*'));
        assert!(s.contains('o'));
        assert!(s.contains("one"));
        assert!(s.contains("two"));
    }

    #[test]
    fn ascii_handles_flat_series() {
        let s = ascii_series(&[("flat".into(), vec![(0.0, 1.0), (1.0, 1.0)])], 20, 5);
        assert!(s.contains('*'));
    }
}
