//! Shared harness for the figure/table regenerator binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper: it sweeps the same axes, prints the same rows/series to
//! stdout, and drops a CSV under `bench_results/`. Absolute numbers
//! come from this workspace's simulators and codecs, so the *shapes*
//! (who wins, by what factor, where crossovers fall) are the
//! reproduction target — see `EXPERIMENTS.md`.
//!
//! Environment knobs:
//!
//! * `EBLCIO_SCALE` = `tiny` | `small` (default) | `paper` — data size,
//! * `EBLCIO_RUNS`  = `quick` (default) | `paper` — repetition protocol.

#![forbid(unsafe_code)]

use eblcio_core::CampaignRunner;
use eblcio_data::generators::Scale;
use std::path::PathBuf;

/// Data scale selected by `EBLCIO_SCALE` (default `small`).
pub fn scale_from_env() -> Scale {
    match std::env::var("EBLCIO_SCALE").as_deref() {
        Ok("tiny") => Scale::Tiny,
        Ok("paper") => Scale::Paper,
        _ => Scale::Small,
    }
}

/// The integer in environment variable `name`, or `default` when it is
/// unset or does not parse.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Repetition protocol selected by `EBLCIO_RUNS` (default `quick`).
pub fn runner_from_env() -> CampaignRunner {
    match std::env::var("EBLCIO_RUNS").as_deref() {
        Ok("paper") => CampaignRunner::paper(),
        _ => CampaignRunner::quick(),
    }
}

/// Where CSV outputs land (`bench_results/` at the workspace root).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("EBLCIO_RESULTS").unwrap_or_else(|_| "bench_results".into());
    let p = PathBuf::from(dir);
    let _ = std::fs::create_dir_all(&p);
    p
}

/// Fixed-width text table writer for the stdout reports.
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                out.push_str(&format!("{:>w$}  ", c, w = widths[i]));
            }
            out.push('\n');
        };
        line(&mut out, &self.headers);
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Prints to stdout with a title banner.
    pub fn print(&self, title: &str) {
        println!("\n=== {title} ===\n");
        print!("{}", self.render());
    }

    /// Writes the table as CSV to `bench_results/<name>.csv`.
    pub fn write_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        let path = results_dir().join(format!("{name}.csv"));
        let mut s = self.headers.join(",");
        s.push('\n');
        for row in &self.rows {
            s.push_str(&row.join(","));
            s.push('\n');
        }
        std::fs::write(&path, s)?;
        Ok(path)
    }
}

/// Human-readable engineering format (`12.3k`, `4.56M`).
pub fn eng(v: f64) -> String {
    let a = v.abs();
    if a >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if a >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if a >= 1e3 {
        format!("{:.2}k", v / 1e3)
    } else if a >= 1.0 || a == 0.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["codec", "CR"]);
        t.row(vec!["SZ3".into(), "102105.50".into()]);
        t.row(vec!["ZFP".into(), "120.71".into()]);
        let r = t.render();
        assert!(r.contains("codec"));
        assert!(r.contains("102105.50"));
        assert_eq!(r.lines().count(), 4);
    }

    #[test]
    #[should_panic]
    fn row_width_checked() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn eng_formatting() {
        assert_eq!(eng(1234.0), "1.23k");
        assert_eq!(eng(5.6e7), "56.00M");
        assert_eq!(eng(3.2e9), "3.20G");
        assert_eq!(eng(0.5), "0.5000");
        assert_eq!(eng(12.0), "12.00");
    }

    #[test]
    fn env_defaults() {
        // In the absence of env overrides the defaults apply (we cannot
        // mutate env safely in parallel tests, so just exercise them).
        let _ = scale_from_env();
        let r = runner_from_env();
        assert!(r.max_runs >= r.min_runs);
    }
}
