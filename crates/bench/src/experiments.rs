//! One function per figure of the paper's evaluation (Section 7).
//!
//! Each function sweeps the same parameter as the corresponding figure, runs
//! the same competitor set and returns a [`Report`] with one row per
//! (algorithm, sweep value). [`EXPERIMENTS`] is the one list of them: the
//! `figures` binary's selectors, its usage text and its `all` sweep read it.

use crate::algorithms::AlgorithmKind;
use crate::params::{Params, Scale};
use crate::report::Report;
use crate::runner::run_cell;
use pref_datagen::ObjectDistribution;

/// Figure 8: effectiveness of the SB optimizations (SB vs SB-UpdateSkyline vs
/// SB-DeltaSky), I/O and CPU versus dimensionality on anti-correlated data
/// with |F| = 1000.
pub fn fig08(scale: Scale) -> Report {
    let mut params = Params::defaults(scale);
    params.num_functions = match scale {
        Scale::Quick => 100,
        Scale::Default => 500,
        Scale::Paper => 1_000,
    };
    // DeltaSky is too slow for high D (as in the paper, which stops at D=5)
    let dims: Vec<usize> = scale.dims_sweep().into_iter().filter(|&d| d <= 5).collect();
    let mut report = Report::new(
        "Figure 8: effect of the optimization techniques",
        params.describe(),
    );
    for &d in &dims {
        let mut p = params.clone();
        p.dims = d;
        for algo in AlgorithmKind::ablation_set() {
            report.push(run_cell("fig08", &format!("D={d}"), &p, algo));
        }
    }
    report
}

/// Figure 9: effect of dimensionality on I/O, CPU and memory for the three
/// competitors, over all three synthetic distributions.
pub fn fig09(scale: Scale) -> Report {
    let params = Params::defaults(scale);
    let mut report = Report::new("Figure 9: effect of dimensionality D", params.describe());
    for dist in [
        ObjectDistribution::Independent,
        ObjectDistribution::Correlated,
        ObjectDistribution::AntiCorrelated,
    ] {
        for &d in &scale.dims_sweep() {
            let mut p = params.clone();
            p.dims = d;
            p.distribution = dist;
            for algo in AlgorithmKind::standard_set() {
                report.push(run_cell(
                    &format!("fig09-{}", dist.label()),
                    &format!("D={d}"),
                    &p,
                    algo,
                ));
            }
        }
    }
    report
}

/// Figure 10: effect of the function cardinality |F| (anti-correlated).
pub fn fig10(scale: Scale) -> Report {
    let params = Params::defaults(scale);
    let mut report = Report::new(
        "Figure 10: effect of function cardinality |F|",
        params.describe(),
    );
    for &nf in &scale.functions_sweep() {
        let mut p = params.clone();
        p.num_functions = nf;
        for algo in AlgorithmKind::standard_set() {
            report.push(run_cell("fig10", &format!("|F|={nf}"), &p, algo));
        }
    }
    report
}

/// Figure 11: effect of the object cardinality |O| (anti-correlated).
pub fn fig11(scale: Scale) -> Report {
    let params = Params::defaults(scale);
    let mut report = Report::new(
        "Figure 11: effect of object cardinality |O|",
        params.describe(),
    );
    for &no in &scale.objects_sweep() {
        let mut p = params.clone();
        p.num_objects = no;
        for algo in AlgorithmKind::standard_set() {
            report.push(run_cell("fig11", &format!("|O|={no}"), &p, algo));
        }
    }
    report
}

/// Figure 12: effect of the preference-weight distribution (C Gaussian
/// clusters, σ = 0.05), anti-correlated objects, D = 4.
pub fn fig12(scale: Scale) -> Report {
    let params = Params::defaults(scale);
    let mut report = Report::new(
        "Figure 12: effect of the function distribution",
        params.describe(),
    );
    for &c in &scale.cluster_sweep() {
        let mut p = params.clone();
        p.dims = 4;
        p.weight_clusters = Some(c);
        for algo in AlgorithmKind::standard_set() {
            report.push(run_cell("fig12", &format!("C={c}"), &p, algo));
        }
    }
    report
}

/// Figure 13: effect of the LRU buffer size (0%–10% of the tree).
pub fn fig13(scale: Scale) -> Report {
    let params = Params::defaults(scale);
    let mut report = Report::new("Figure 13: effect of the buffer size", params.describe());
    for &frac in &scale.buffer_sweep() {
        let mut p = params.clone();
        p.buffer_fraction = frac;
        for algo in AlgorithmKind::standard_set() {
            report.push(run_cell(
                "fig13",
                &format!("buffer={}%", (frac * 100.0).round()),
                &p,
                algo,
            ));
        }
    }
    report
}

/// Figure 14: capacitated assignment — (a, b) function capacities, (c, d)
/// object capacities.
pub fn fig14(scale: Scale) -> Report {
    let params = Params::defaults(scale);
    let mut report = Report::new(
        "Figure 14: effect of function/object capacities",
        params.describe(),
    );
    for &k in &scale.capacity_sweep() {
        let mut p = params.clone();
        p.function_capacity = k;
        for algo in AlgorithmKind::standard_set() {
            report.push(run_cell(
                "fig14-function-capacity",
                &format!("k={k}"),
                &p,
                algo,
            ));
        }
    }
    for &k in &scale.capacity_sweep() {
        let mut p = params.clone();
        p.object_capacity = k;
        for algo in AlgorithmKind::standard_set() {
            report.push(run_cell(
                "fig14-object-capacity",
                &format!("k={k}"),
                &p,
                algo,
            ));
        }
    }
    report
}

/// Figure 15: prioritized preference queries (priorities drawn from [1..γ]),
/// including the two-skyline SB variant.
pub fn fig15(scale: Scale) -> Report {
    let params = Params::defaults(scale);
    let mut report = Report::new(
        "Figure 15: effect of function priorities",
        params.describe(),
    );
    let mut algos = AlgorithmKind::standard_set();
    algos.push(AlgorithmKind::SbTwoSkylines);
    for &gamma in &scale.priority_sweep() {
        let mut p = params.clone();
        p.max_priority = gamma;
        for algo in algos.clone() {
            report.push(run_cell("fig15", &format!("gamma={gamma}"), &p, algo));
        }
    }
    report
}

/// Figure 16: real-data stand-ins — (a, b) Zillow-like objects with varying
/// |O|, (c, d) NBA-like objects with capacitated functions.
pub fn fig16(scale: Scale) -> Report {
    let params = Params::defaults(scale);
    // the setup line must describe the workloads the cells actually run —
    // the real-data stand-ins force D=5 regardless of the configured dims
    let zillow_setup = {
        let mut p = params.clone();
        p.distribution = ObjectDistribution::ZillowLike;
        p.describe()
    };
    let mut report = Report::new(
        "Figure 16: real datasets (synthetic stand-ins)",
        zillow_setup,
    );
    for &no in &scale.objects_sweep() {
        let mut p = params.clone();
        p.distribution = ObjectDistribution::ZillowLike;
        p.num_objects = no;
        for algo in AlgorithmKind::standard_set() {
            report.push(run_cell("fig16-zillow", &format!("|O|={no}"), &p, algo));
        }
    }
    let nba_objects = match scale {
        Scale::Quick => 3_000,
        _ => pref_datagen::NBA_SIZE,
    };
    let nba_functions = match scale {
        Scale::Quick => 200,
        _ => 1_000,
    };
    for &k in &[1u32, 5, 9, 12] {
        if scale == Scale::Quick && k > 5 {
            continue;
        }
        let mut p = params.clone();
        p.distribution = ObjectDistribution::NbaLike;
        p.num_objects = nba_objects;
        p.num_functions = nba_functions;
        p.function_capacity = k;
        for algo in AlgorithmKind::standard_set() {
            report.push(run_cell("fig16-nba", &format!("k={k}"), &p, algo));
        }
    }
    report
}

/// Figure 17: disk-resident function sets — the cardinalities of |F| and |O|
/// are swapped and SB-alt (batch best-pair search) joins the competitor set.
pub fn fig17(scale: Scale) -> Report {
    let base = Params::defaults(scale);
    let mut report = Report::new(
        "Figure 17: disk-resident functions (|F| and |O| swapped)",
        base.describe(),
    );
    for dist in [
        ObjectDistribution::Independent,
        ObjectDistribution::AntiCorrelated,
    ] {
        for &d in &scale.dims_sweep() {
            let mut p = base.clone();
            // swap the cardinalities as in Section 7.6
            p.num_functions = base.num_objects;
            p.num_objects = base.num_functions;
            p.dims = d;
            p.distribution = dist;
            let list_buffer = ((p.num_functions as f64) * 0.02 / 256.0).ceil() as usize;
            let mut algos = AlgorithmKind::standard_set();
            algos.push(AlgorithmKind::SbAlt {
                list_buffer_frames: list_buffer.max(1),
            });
            for algo in algos {
                report.push(run_cell(
                    &format!("fig17-{}", dist.label()),
                    &format!("D={d}"),
                    &p,
                    algo,
                ));
            }
        }
    }
    report
}

/// Ablation: the Ω (candidate-queue capacity) trade-off of the resumable
/// reverse top-1 search (Section 5.1). Not a paper figure, but one of the
/// design choices DESIGN.md calls out.
pub fn ablation_omega(scale: Scale) -> Report {
    let params = Params::defaults(scale);
    let mut report = Report::new(
        "Ablation: Omega fraction of the resumable TA search",
        params.describe(),
    );
    for omega in [0.005, 0.025, 0.1, 1.0] {
        let mut p = params.clone();
        p.omega_fraction = omega;
        report.push(run_cell(
            "ablation-omega",
            &format!("omega={omega}"),
            &p,
            AlgorithmKind::Sb,
        ));
    }
    report
}

/// One experiment: the selector the `figures` binary takes (also its JSON
/// file stem) and the function that runs it.
pub type Experiment = (&'static str, fn(Scale) -> Report);

/// Every experiment, in the order `figures all` runs them.
pub const EXPERIMENTS: [Experiment; 11] = [
    ("fig08", fig08),
    ("fig09", fig09),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("fig16", fig16),
    ("fig17", fig17),
    ("omega", ablation_omega),
];

/// Looks a selector up in [`EXPERIMENTS`] (without running anything).
pub fn by_name(name: &str) -> Option<Experiment> {
    EXPERIMENTS.into_iter().find(|(n, _)| *n == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline claim of the paper, checked end-to-end at quick scale:
    /// SB beats Brute Force and Chain on I/O by a wide margin.
    #[test]
    fn quick_fig09_shape_holds() {
        let report = fig09(Scale::Quick);
        for x in report.xs() {
            for exp in ["fig09-independent", "fig09-anti-correlated"] {
                let sb = report.get(exp, "SB", &x);
                let bf = report.get(exp, "Brute Force", &x);
                let (Some(sb), Some(bf)) = (sb, bf) else {
                    continue;
                };
                // compare the paper's headline metric — object R-tree accesses
                // — since SB's aux_io now charges its sorted-list accesses
                assert!(
                    sb.io * 5 < bf.io,
                    "{exp} {x}: SB {} vs Brute Force {}",
                    sb.io,
                    bf.io
                );
                assert_eq!(sb.pairs, bf.pairs);
            }
        }
    }

    #[test]
    fn quick_fig08_update_skyline_beats_deltasky() {
        let report = fig08(Scale::Quick);
        for x in report.xs() {
            let upd = report.get("fig08", "SB-UpdateSkyline", &x).unwrap();
            let delta = report.get("fig08", "SB-DeltaSky", &x).unwrap();
            assert!(
                upd.total_io() < delta.total_io(),
                "{x}: UpdateSkyline {} vs DeltaSky {}",
                upd.total_io(),
                delta.total_io()
            );
        }
    }

    #[test]
    fn by_name_covers_every_figure() {
        for (name, _) in EXPERIMENTS {
            assert_eq!(by_name(name).map(|(n, _)| n), Some(name));
        }
        // a lookup, not a run: an unknown name is refused before any work
        assert!(by_name("nope").is_none());
        // the Ω ablation has one name, so one JSON file: `omega`
        assert!(by_name("ablation_omega").is_none());
    }
}
