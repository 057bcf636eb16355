//! Experiment harness reproducing the evaluation of the VLDB 2009 paper.
//!
//! Every figure of Section 7 is one entry of [`experiments::EXPERIMENTS`]
//! (`fig08` … `fig17`, plus the `omega` ablation) that sweeps the same
//! parameter, runs the same competitor algorithms, and reports the same
//! series (I/O accesses, CPU time, memory usage) as the paper; the `figures`
//! binary runs them by name. They share the building blocks in this library:
//!
//! * [`Params`] / [`Scale`] — the workload parameters of Table 2, at three
//!   scales (`quick` for smoke runs, `default` for laptop-sized runs, `paper`
//!   for the original parameter values),
//! * [`run_cell`] — generate a workload, build the index, run one
//!   [`pref_assign::Solver`] and produce a [`Row`] of measurements; the
//!   solver's name is the row's series, so the competitors (Brute Force,
//!   Chain, SB, its Figure 8 ablations, SB-TwoSkylines, SB-alt) are named
//!   once, in `pref_assign`'s solver catalogue,
//! * [`Report`] — collects rows, prints an aligned text table and writes
//!   machine-readable JSON next to it.
//!
//! The crate's only other binary is `service_bench`, the open-loop
//! front-door SLO cell, and `benches/micro.rs` holds the criterion
//! micro-benches. Timings of the solvers, the engine and the serving stack
//! are not measured here: they come from the repo's one benchmark
//! (`benchmark/`, declared in `BENCHMARK.json`).

#![warn(missing_docs)]
// No `unused_crate_dependencies` here, unlike every other library crate
// root: the package's bins and benches use dependencies its lib does not,
// and the lint would flag those from the lib.

mod params;
mod report;
mod runner;

pub mod experiments;
pub mod percentile;

pub use params::{Params, Scale};
pub use percentile::{percentile, percentile_us};
pub use report::{Report, Row};
pub use runner::{build_problem, run_cell};

use experiments::{Experiment, EXPERIMENTS};
use std::path::PathBuf;

/// Command line of the `figures` binary:
/// `figures <name>… | all [--quick | --paper-scale] [--out <dir>]`.
#[derive(Debug, Clone)]
pub struct CliOptions {
    /// The selected experiments, in the order given (`all` = the whole
    /// table). Never empty.
    pub experiments: Vec<Experiment>,
    /// Workload scale.
    pub scale: Scale,
    /// Where to write the JSON results (defaults to `results/`).
    pub output_dir: PathBuf,
}

impl CliOptions {
    /// Usage text: the flags plus every selector of [`EXPERIMENTS`].
    pub fn usage() -> String {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        format!(
            "usage: figures <name>... | all [--quick | --paper-scale] [--out <dir>]\n  names: {}\n  --quick | --paper-scale   workload scale (default: laptop scale)\n  --out <dir>               directory for JSON results (default: results/)",
            names.join(" ")
        )
    }

    /// Parses the arguments after the program name. Every selector is
    /// resolved against [`EXPERIMENTS`] here, so a bad command line is
    /// refused before any experiment runs.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut experiments = Vec::new();
        let mut scale = Scale::Default;
        let mut output_dir = PathBuf::from("results");
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => scale = Scale::Quick,
                "--paper-scale" => scale = Scale::Paper,
                "--out" => match args.next() {
                    Some(dir) => output_dir = PathBuf::from(dir),
                    None => return Err("--out requires a path".to_string()),
                },
                "all" => experiments.extend(EXPERIMENTS),
                flag if flag.starts_with('-') => return Err(format!("unknown option {flag}")),
                name => match experiments::by_name(name) {
                    Some(experiment) => experiments.push(experiment),
                    None => return Err(format!("unknown experiment {name}")),
                },
            }
        }
        if experiments.is_empty() {
            return Err("no experiment selected".to_string());
        }
        Ok(Self {
            experiments,
            scale,
            output_dir,
        })
    }

    /// [`CliOptions::parse`] over the process arguments; prints the usage
    /// and exits (0 for `--help`, 2 for a bad command line) instead of
    /// returning an error.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|arg| arg == "--help" || arg == "-h") {
            eprintln!("{}", Self::usage());
            std::process::exit(0);
        }
        Self::parse(args.into_iter()).unwrap_or_else(|err| {
            eprintln!("{err}\n{}", Self::usage());
            std::process::exit(2);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliOptions, String> {
        CliOptions::parse(args.iter().map(|arg| arg.to_string()))
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for (args, complaint) in [
            (&[][..], "no experiment selected"),
            (&["--quick"][..], "no experiment selected"),
            (&["fig08", "fig18"][..], "unknown experiment fig18"),
            (&["fig08", "--out"][..], "--out requires a path"),
            (&["all", "--verbose"][..], "unknown option --verbose"),
        ] {
            assert_eq!(parse(args).unwrap_err(), complaint, "{args:?}");
        }
    }

    #[test]
    fn selectors_scale_and_output_dir_are_parsed() {
        let names = |cli: &CliOptions| -> Vec<&str> {
            cli.experiments.iter().map(|(name, _)| *name).collect()
        };
        let cli = parse(&["all", "--quick", "--out", "d"]).unwrap();
        let table: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        assert_eq!(names(&cli), table);
        assert_eq!(cli.scale, Scale::Quick);
        assert_eq!(cli.output_dir, PathBuf::from("d"));

        let cli = parse(&["omega", "fig08"]).unwrap();
        assert_eq!(names(&cli), ["omega", "fig08"]);
        assert_eq!(cli.scale, Scale::Default);
        assert_eq!(cli.output_dir, PathBuf::from("results"));
        // the usage text names every selector
        let usage = CliOptions::usage();
        assert!(table.iter().all(|name| usage.contains(name)), "{usage}");
    }
}
