//! Regenerates the figures of the paper's evaluation (Section 7) by name:
//! `figures <name>… | all [--quick | --paper-scale] [--out <dir>]`.
//!
//! Each selected experiment prints its measurement tables and writes
//! `<dir>/<name>.json` the moment it completes, so an interrupted sweep
//! keeps the figures finished so far.

use pref_bench::CliOptions;

fn main() {
    let cli = CliOptions::from_args();
    for (name, run) in &cli.experiments {
        eprintln!("=== running {name} ({}) ===", cli.scale.label());
        let report = run(cli.scale);
        report.print();
        match report.write_json(&cli.output_dir, name) {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(err) => eprintln!("could not write JSON results: {err}"),
        }
    }
}
