//! The metric catalogue (`BENCHMARK.json`), result files, and `compare`.

use crate::stats::Stat;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// `BENCHMARK.json` is the one catalogue of workload and metric names, units,
/// directions and bounds; the program carries no second copy of it.
const CATALOGUE_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, Deserialize)]
pub struct Catalogue {
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadEntry>,
    pub end_to_end: Vec<EndToEndEntry>,
    pub per_layer: Vec<PerLayerEntry>,
}

#[derive(Debug, Clone, Deserialize)]
pub struct WorkloadEntry {
    pub name: String,
    pub why: String,
}

#[derive(Debug, Clone, Deserialize)]
pub struct EndToEndEntry {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: f64,
}

#[derive(Debug, Clone, Deserialize)]
pub struct PerLayerEntry {
    pub name: String,
    pub unit: String,
    pub better: String,
}

impl Catalogue {
    pub fn load() -> Self {
        serde_json::from_str(CATALOGUE_JSON).expect("BENCHMARK.json parses as the catalogue")
    }

    fn unit_of(&self, name: &str) -> Option<&str> {
        self.end_to_end
            .iter()
            .map(|m| (&m.name, &m.unit))
            .chain(self.per_layer.iter().map(|m| (&m.name, &m.unit)))
            .find(|(n, _)| n.as_str() == name)
            .map(|(_, unit)| unit.as_str())
    }
}

/// Named measurements of one workload run.
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<String, Stat>);

impl Metrics {
    /// Records a metric measured once; a later value replaces an earlier one
    /// (a workload's own stage runs after the short passes that fill in the
    /// layers it does not stress).
    pub fn put(&mut self, name: &str, value: f64) {
        self.put_stat(name, Stat::single(value));
    }

    pub fn put_stat(&mut self, name: &str, stat: Stat) {
        assert!(
            stat.value.is_finite(),
            "metric {name} is not a finite number: {}",
            stat.value
        );
        self.0.insert(name.to_string(), stat);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|s| s.value)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricRecord {
    pub value: f64,
    pub min: f64,
    pub max: f64,
    pub unit: String,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadRecord {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub fail_frac: f64,
    pub wall_s: f64,
    pub metrics: BTreeMap<String, MetricRecord>,
}

/// Where and how a result file was produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fingerprint {
    pub nproc: u64,
    pub threads_default: u64,
    pub client_connections: u64,
    pub profile: String,
    pub commit: String,
    pub seed: u64,
    pub seconds: u64,
    pub smoke: bool,
    pub trace: bool,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResultFile {
    pub fingerprint: Fingerprint,
    pub workloads: BTreeMap<String, WorkloadRecord>,
}

#[derive(Serialize)]
struct ContractMetric {
    value: f64,
    unit: String,
}

#[derive(Serialize)]
struct ContractLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, ContractMetric>,
}

/// Checks a run's metrics against the catalogue and attaches units. A traced
/// run reports every per-layer metric, an untraced one every end-to-end
/// metric, and neither anything else.
pub fn record(
    catalogue: &Catalogue,
    trace: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    wall_s: f64,
    metrics: &Metrics,
) -> Result<WorkloadRecord, String> {
    let wanted: Vec<&str> = if trace {
        catalogue
            .per_layer
            .iter()
            .map(|m| m.name.as_str())
            .collect()
    } else {
        catalogue
            .end_to_end
            .iter()
            .map(|m| m.name.as_str())
            .collect()
    };
    if let Some(missing) = wanted.iter().find(|name| metrics.get(name).is_none()) {
        return Err(format!("metric {missing} was not measured"));
    }
    if let Some(extra) = metrics.names().find(|name| !wanted.contains(name)) {
        return Err(format!("metric {extra} is not in BENCHMARK.json"));
    }
    let metrics = wanted
        .iter()
        .map(|&name| {
            let stat = metrics.0[name];
            let unit = catalogue
                .unit_of(name)
                .expect("wanted names are catalogued");
            (
                name.to_string(),
                MetricRecord {
                    value: stat.value,
                    min: stat.min,
                    max: stat.max,
                    unit: unit.to_string(),
                },
            )
        })
        .collect();
    Ok(WorkloadRecord {
        correct,
        attempted,
        failed,
        fail_frac: failed as f64 / attempted.max(1) as f64,
        wall_s,
        metrics,
    })
}

/// Prints every metric of one workload by name with its unit, in catalogue
/// order, then the one-line JSON result the driver reads.
pub fn print_workload(catalogue: &Catalogue, name: &str, record: &WorkloadRecord) {
    let why = catalogue
        .workloads
        .iter()
        .find(|w| w.name == name)
        .map_or("", |w| w.why.as_str());
    println!("== {name}: {why}");
    println!(
        "   correct={} attempted={} failed={} fail_frac={} wall_s={:.3}",
        record.correct, record.attempted, record.failed, record.fail_frac, record.wall_s
    );
    let order = catalogue
        .end_to_end
        .iter()
        .map(|m| (&m.name, &m.better))
        .chain(catalogue.per_layer.iter().map(|m| (&m.name, &m.better)));
    for (metric, better) in order {
        if let Some(m) = record.metrics.get(metric) {
            println!(
                "{metric:<36} {:>16.4} {:<8} (min {:.4}, max {:.4}; {better} is better)",
                m.value, m.unit, m.min, m.max
            );
        }
    }
    println!("{}", contract_line(record));
}

/// The one JSON object the driver reads from the last line of standard
/// output: exactly `correct`, `attempted`, `failed` and `metrics`.
pub fn contract_line(record: &WorkloadRecord) -> String {
    let line = ContractLine {
        correct: record.correct,
        attempted: record.attempted,
        failed: record.failed,
        metrics: record
            .metrics
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    ContractMetric {
                        value: m.value,
                        unit: m.unit.clone(),
                    },
                )
            })
            .collect(),
    };
    serde_json::to_string(&line).expect("a result line serializes")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// The spread between rounds is wider than the bound and the two runs'
    /// ranges overlap: the metric can be called neither changed nor unchanged.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges metric `b` against its base `a`. `lower_is_better` orients the
/// comparison; `bound` is the share of `a` by which `b` may be worse.
pub fn verdict(a: &MetricRecord, b: &MetricRecord, lower_is_better: bool, bound: f64) -> Verdict {
    // orient everything so that larger means worse
    let (a_lo, a_mid, a_hi, b_lo, b_mid, b_hi) = if lower_is_better {
        (a.min, a.value, a.max, b.min, b.value, b.max)
    } else {
        (-a.max, -a.value, -a.min, -b.max, -b.value, -b.min)
    };
    let scale = a.value.abs().max(f64::MIN_POSITIVE);
    let spread = ((a_hi - a_lo) / scale).max((b_hi - b_lo) / b.value.abs().max(f64::MIN_POSITIVE));
    if spread > bound {
        // only a clean separation of every round resolves a noisy metric
        return if b_hi < a_lo {
            Verdict::Better
        } else if b_lo > a_hi {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = (b_mid - a_mid) / scale;
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// `compare <a.json> <b.json>`: one row per workload × end-to-end metric.
/// Returns whether `b` holds no regression against `a`.
pub fn compare(catalogue: &Catalogue, a: &ResultFile, b: &ResultFile) -> bool {
    let mut clean = true;
    println!(
        "{:<14} {:<12} {:>16} {:>16} {:>9}  verdict (bound)",
        "workload", "metric", "a (base)", "b", "b/a"
    );
    for workload in catalogue.workloads.iter().map(|w| &w.name) {
        let (Some(ra), Some(rb)) = (a.workloads.get(workload), b.workloads.get(workload)) else {
            continue;
        };
        for metric in &catalogue.end_to_end {
            let (Some(ma), Some(mb)) = (ra.metrics.get(&metric.name), rb.metrics.get(&metric.name))
            else {
                continue;
            };
            let v = verdict(ma, mb, metric.better == "lower", metric.bound);
            clean &= v != Verdict::Worse;
            println!(
                "{workload:<14} {:<12} {:>16.4} {:>16.4} {:>9.4}  {} ({}, {} is better, unit {})",
                metric.name,
                ma.value,
                mb.value,
                mb.value / ma.value,
                v.label(),
                metric.bound,
                metric.better,
                metric.unit,
            );
        }
        if rb.fail_frac > ra.fail_frac {
            clean = false;
            println!(
                "{workload:<14} fail_frac rose from {} to {}: worse",
                ra.fail_frac, rb.fail_frac
            );
        }
    }
    clean
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(value: f64, min: f64, max: f64) -> MetricRecord {
        MetricRecord {
            value,
            min,
            max,
            unit: "us".to_string(),
        }
    }

    #[test]
    fn verdicts_follow_bound_and_direction() {
        let base = metric(100.0, 99.0, 101.0);
        assert_eq!(
            verdict(&base, &metric(105.0, 104.0, 106.0), true, 0.10),
            Verdict::Within
        );
        assert_eq!(
            verdict(&base, &metric(115.0, 114.0, 116.0), true, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &metric(80.0, 79.0, 81.0), true, 0.10),
            Verdict::Better
        );
        // the same numbers for a higher-is-better metric flip
        assert_eq!(
            verdict(&base, &metric(115.0, 114.0, 116.0), false, 0.10),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &metric(80.0, 79.0, 81.0), false, 0.10),
            Verdict::Worse
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_separated() {
        let noisy = metric(100.0, 80.0, 120.0);
        assert_eq!(
            verdict(&noisy, &metric(115.0, 95.0, 135.0), true, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &metric(70.0, 60.0, 79.0), true, 0.10),
            Verdict::Better
        );
        assert_eq!(
            verdict(&noisy, &metric(140.0, 121.0, 150.0), true, 0.10),
            Verdict::Worse
        );
    }

    /// The names a driver matches on: letters, digits, `_`, `.`, `-`, used once.
    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// The part of `BENCHMARK.json` only the driver reads.
    #[derive(Deserialize)]
    struct Invocation {
        command: Vec<String>,
        paths: Vec<String>,
    }

    #[test]
    fn the_catalogue_meets_the_contract() {
        let c = Catalogue::load();
        let invocation: Invocation = serde_json::from_str(CATALOGUE_JSON).expect("parses");
        assert_eq!(invocation.paths, ["benchmark"]);
        assert!(invocation.command.len() <= 32);
        assert!(invocation
            .command
            .iter()
            .all(|arg| arg.len() <= 200 && !arg.starts_with('/')));
        assert!((1..=60).contains(&c.run_seconds));
        let workloads: Vec<&str> = c.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(workloads, crate::inputs::WORKLOADS);
        assert!(c
            .workloads
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!((1..=16).contains(&c.end_to_end.len()));
        assert!((1..=128).contains(&c.per_layer.len()));
        let setup = c
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        assert!(c
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= setup.bound));
        assert!(setup.bound <= 0.25);
        let mut names: Vec<&str> = workloads;
        names.extend(c.end_to_end.iter().map(|m| m.name.as_str()));
        names.extend(c.per_layer.iter().map(|m| m.name.as_str()));
        assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        let directions = c
            .end_to_end
            .iter()
            .map(|m| &m.better)
            .chain(c.per_layer.iter().map(|m| &m.better));
        assert!(directions
            .into_iter()
            .all(|b| b == "lower" || b == "higher"));
        assert!(CATALOGUE_JSON.len() <= 64 * 1024);
    }

    #[test]
    fn records_reject_unknown_and_missing_metrics() {
        let c = Catalogue::load();
        let mut metrics = Metrics::default();
        for m in &c.end_to_end {
            metrics.put(&m.name, 1.5);
        }
        let ok = record(&c, false, true, 10, 0, 1.0, &metrics).expect("complete");
        assert_eq!(ok.metrics.len(), c.end_to_end.len());
        assert_eq!(ok.metrics["setup_s"].unit, "s");
        metrics.put("not.in.catalogue", 1.0);
        assert!(record(&c, false, true, 10, 0, 1.0, &metrics).is_err());
        assert!(record(&c, true, true, 10, 0, 1.0, &Metrics::default()).is_err());
    }
}
