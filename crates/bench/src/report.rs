//! Measurement rows, aligned text tables and JSON output.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::io::Write;
use std::path::Path;

/// One measurement: one algorithm on one workload configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Experiment identifier (e.g. `"fig09-io-anti"`).
    pub experiment: String,
    /// Series name (the algorithm label).
    pub series: String,
    /// Abscissa value of the sweep (e.g. `"D=4"`).
    pub x: String,
    /// I/O accesses on the object R-tree.
    pub io: u64,
    /// I/O accesses on auxiliary structures: SB's TA sorted-list accesses,
    /// SB-alt's disk-resident function lists, Chain's function R-tree.
    pub aux_io: u64,
    /// CPU time in seconds.
    pub cpu_s: f64,
    /// Peak search-structure memory in MiB.
    pub mem_mib: f64,
    /// Number of assigned pairs.
    pub pairs: usize,
    /// Number of algorithm loops.
    pub loops: u64,
}

impl Row {
    /// Total I/O (object tree + auxiliary structures).
    pub fn total_io(&self) -> u64 {
        self.io + self.aux_io
    }
}

/// A collection of measurement rows belonging to one figure.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Report {
    /// Human-readable title (e.g. `"Figure 9: effect of dimensionality"`).
    pub title: String,
    /// Workload description shared by all rows.
    pub setup: String,
    /// The measurements.
    pub rows: Vec<Row>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(title: impl Into<String>, setup: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            setup: setup.into(),
            rows: Vec::new(),
        }
    }

    /// Adds a measurement row.
    pub fn push(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// All distinct series names, in first-appearance order.
    pub fn series(&self) -> Vec<String> {
        let mut out = Vec::new();
        for r in &self.rows {
            if !out.contains(&r.series) {
                out.push(r.series.clone());
            }
        }
        out
    }

    /// All distinct abscissa values, in first-appearance order.
    pub fn xs(&self) -> Vec<String> {
        let mut out = Vec::new();
        for r in &self.rows {
            if !out.contains(&r.x) {
                out.push(r.x.clone());
            }
        }
        out
    }

    /// Looks up a row by experiment / series / x.
    pub fn get(&self, experiment: &str, series: &str, x: &str) -> Option<&Row> {
        self.rows
            .iter()
            .find(|r| r.experiment == experiment && r.series == series && r.x == x)
    }

    /// Renders the report as aligned text tables — one per experiment id and
    /// metric (I/O, CPU, memory) — in the spirit of the paper's charts.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        out.push_str(&format!("setup: {}\n", self.setup));
        let experiments: BTreeSet<String> =
            self.rows.iter().map(|r| r.experiment.clone()).collect();
        for experiment in experiments {
            let rows: Vec<&Row> = self
                .rows
                .iter()
                .filter(|r| r.experiment == experiment)
                .collect();
            let series: Vec<String> = {
                let mut s = Vec::new();
                for r in &rows {
                    if !s.contains(&r.series) {
                        s.push(r.series.clone());
                    }
                }
                s
            };
            let xs: Vec<String> = {
                let mut s = Vec::new();
                for r in &rows {
                    if !s.contains(&r.x) {
                        s.push(r.x.clone());
                    }
                }
                s
            };
            for (metric, fmt) in [
                ("I/O accesses", 0usize),
                ("CPU time (s)", 1),
                ("memory (MiB)", 2),
            ] {
                out.push_str(&format!("\n-- {experiment}: {metric} --\n"));
                out.push_str(&format!("{:<22}", "series \\ x"));
                for x in &xs {
                    out.push_str(&format!("{x:>14}"));
                }
                out.push('\n');
                for s in &series {
                    out.push_str(&format!("{s:<22}"));
                    for x in &xs {
                        let cell = rows
                            .iter()
                            .find(|r| &r.series == s && &r.x == x)
                            .map(|r| match fmt {
                                0 => format!("{}", r.total_io()),
                                1 => format!("{:.3}", r.cpu_s),
                                _ => format!("{:.2}", r.mem_mib),
                            })
                            .unwrap_or_else(|| "-".to_string());
                        out.push_str(&format!("{cell:>14}"));
                    }
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Prints the text tables to stdout.
    pub fn print(&self) {
        print!("{}", self.to_text());
    }

    /// Writes the report as JSON into `dir/<name>.json`, creating the
    /// directory if needed. Returns the path written.
    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "bench report output, not durable state"
    )]
    pub fn write_json(&self, dir: &Path, name: &str) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.json"));
        let mut file = std::fs::File::create(&path)?;
        let json = serde_json::to_string_pretty(self).expect("report serializes");
        file.write_all(json.as_bytes())?;
        Ok(path)
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "the round trip reads back and removes its report"
)]
mod tests {
    use super::*;

    fn row(exp: &str, series: &str, x: &str, io: u64) -> Row {
        Row {
            experiment: exp.into(),
            series: series.into(),
            x: x.into(),
            io,
            aux_io: 0,
            cpu_s: 0.5,
            mem_mib: 1.25,
            pairs: 10,
            loops: 3,
        }
    }

    #[test]
    fn table_contains_every_cell() {
        let mut report = Report::new("Figure X", "test setup");
        report.push(row("io", "SB", "D=3", 100));
        report.push(row("io", "SB", "D=4", 200));
        report.push(row("io", "Chain", "D=3", 10_000));
        let text = report.to_text();
        assert!(text.contains("Figure X"));
        assert!(text.contains("SB"));
        assert!(text.contains("Chain"));
        assert!(text.contains("10000"));
        assert!(text.contains("D=4"));
        // missing cell renders as '-'
        assert!(text.contains('-'));
        assert_eq!(report.series(), vec!["SB".to_string(), "Chain".to_string()]);
        assert_eq!(report.xs(), vec!["D=3".to_string(), "D=4".to_string()]);
    }

    #[test]
    fn json_round_trip() {
        let mut report = Report::new("Figure Y", "setup");
        report.push(row("io", "SB", "1", 42));
        let dir = std::env::temp_dir().join("pref-bench-test");
        let path = report.write_json(&dir, "fig_y").unwrap();
        let loaded: Report =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(loaded.rows.len(), 1);
        assert_eq!(loaded.rows[0].io, 42);
        assert_eq!(loaded.title, "Figure Y");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn total_io_adds_aux() {
        let mut r = row("io", "SB-alt", "1", 10);
        r.aux_io = 5;
        assert_eq!(r.total_io(), 15);
    }
}
