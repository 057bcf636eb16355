//! The repository's benchmark: five workloads from a cold SB solve to a
//! durable ack over the socket, driven only through public functions of the
//! workspace crates. See `README.md` beside this package for the catalogue.
//!
//! ```text
//! pref_benchmark run [--workload <name>] [--seed <u64>] [--seconds <n>]
//!                    [--trace [0|1]] [--smoke] [--out <file>]
//! pref_benchmark compare <a.json> <b.json>
//! ```

mod churn;
mod inputs;
mod outcome;
mod probes;
mod report;
mod serve;
mod solve;
mod stats;
mod trace;

use inputs::{Budget, Kind, Spec};
use outcome::{Check, Primary};
use report::{Catalogue, Fingerprint, Metrics, ResultFile, WorkloadRecord};
use serve::ServeCfg;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use trace::Tracer;

const DEFAULT_SEED: u64 = 20090824;

/// Connections one process drives closed-loop: two keep both cores of the
/// reference box busy; more would time the scheduler.
const CLIENT_CONNECTIONS: usize = 2;

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

enum Command {
    Run(RunArgs),
    Compare(PathBuf, PathBuf),
}

fn parse(args: &[String]) -> Result<Command, String> {
    let usage = "usage: run [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace [0|1]] \
                 [--smoke] [--out <file>] | compare <a.json> <b.json>";
    match args.first().map(String::as_str) {
        Some("compare") => match args {
            [_, a, b] => Ok(Command::Compare(a.into(), b.into())),
            _ => Err(usage.to_string()),
        },
        Some("run") => {
            let mut run = RunArgs {
                workload: None,
                seed: DEFAULT_SEED,
                seconds: Catalogue::load().run_seconds,
                trace: false,
                smoke: false,
                out: None,
            };
            let mut rest = args[1..].iter().peekable();
            while let Some(flag) = rest.next() {
                let mut value = |what: &str| {
                    rest.next()
                        .cloned()
                        .ok_or_else(|| format!("{flag} needs {what}"))
                };
                match flag.as_str() {
                    "--workload" => run.workload = Some(value("a workload name")?),
                    "--seed" => {
                        run.seed = value("a u64")?
                            .parse()
                            .map_err(|e| format!("--seed: {e}"))?
                    }
                    "--seconds" => {
                        run.seconds = value("a whole number of seconds")?
                            .parse()
                            .map_err(|e| format!("--seconds: {e}"))?
                    }
                    "--out" => run.out = Some(value("a file")?.into()),
                    "--smoke" => run.smoke = true,
                    "--trace" => {
                        run.trace = match rest.peek().map(|s| s.as_str()) {
                            Some("0") => {
                                rest.next();
                                false
                            }
                            Some("1") => {
                                rest.next();
                                true
                            }
                            _ => true,
                        }
                    }
                    other => return Err(format!("unknown option {other}\n{usage}")),
                }
            }
            if !(1..=600).contains(&run.seconds) {
                return Err("--seconds must be between 1 and 600".to_string());
            }
            Ok(Command::Run(run))
        }
        _ => Err(usage.to_string()),
    }
}

/// Scratch for WAL and checkpoint directories, removed when the run ends —
/// normally, with an error, or by a panic unwinding through `main`.
struct Scratch(PathBuf);

impl Scratch {
    fn create(out_dir: &Path) -> Result<Self, String> {
        // unique per process and per call: tests run workloads side by side
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        // ordering: relaxed — only the value's uniqueness matters
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir.join(format!("scratch-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything the benchmark writes goes under `benchmark/target/out/`.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("out")
}

/// The checked-out commit, read from `.git` without running git; a checkout
/// that is not a repository reports `unknown`.
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(".git");
    let read = |path: PathBuf| std::fs::read_to_string(path).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(commit) = read(git.join(reference)) {
        return commit.trim().to_string();
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|line| line.strip_suffix(reference).map(|c| c.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Refuses environments in which the numbers would not mean what the
/// catalogue says they mean.
fn environment_guard() -> Result<usize, String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: run with --release".to_string());
    }
    if std::env::var_os("PREF_THREADS").is_some() {
        return Err(
            "refusing to run with PREF_THREADS set: end-to-end numbers pin one worker \
                    thread and sync.pool_speedup measures the unset default"
                .to_string(),
        );
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < CLIENT_CONNECTIONS {
        return Err(format!(
            "the serving workloads drive {CLIENT_CONNECTIONS} client threads; this box has {nproc} \
             hardware thread(s), and they would time the scheduler"
        ));
    }
    Ok(nproc)
}

struct RunCtx<'a> {
    seed: u64,
    smoke: bool,
    scratch: &'a Path,
}

/// Runs `spec`'s own stage. Its layer metrics go to `layers`.
fn own_stage(
    ctx: &RunCtx,
    spec: &Spec,
    budget: &Budget,
    probe: bool,
    tracer: &mut Tracer,
    layers: &mut Metrics,
) -> Result<(Primary, Check), String> {
    let serve = |readers, writer| ServeCfg {
        spec,
        seed: ctx.seed,
        budget,
        durable: writer,
        readers,
        writer,
        smoke: ctx.smoke,
        probe,
        scratch: ctx.scratch,
    };
    match spec.kind {
        Kind::Solve => {
            let out = solve::solve_stage(spec, ctx.seed, budget.solves, ctx.smoke, tracer);
            solve::put_layers(&out, layers);
            Ok((out.primary, out.check))
        }
        Kind::Churn => Ok(churn::churn_stage(
            spec, ctx.seed, budget, ctx.smoke, tracer, layers,
        )),
        Kind::ServeRead => serve::serve_stage(&serve(CLIENT_CONNECTIONS, false), tracer, layers),
        Kind::ServeAck => serve::serve_stage(&serve(0, true), tracer, layers),
    }
}

/// Short passes of the stages a workload does not itself run, at the
/// workload's own shape, so that a traced run reports every layer.
fn other_stages(
    ctx: &RunCtx,
    spec: &Spec,
    tracer: &mut Tracer,
    layers: &mut Metrics,
) -> Result<Check, String> {
    let short = Budget::short(ctx.smoke);
    let serving = inputs::serving_spec(spec);
    let mut check = Check::default();
    tracer.begin("probe");
    // the solve at the workload's own shape; engine and service at the cut
    for (kind, shape) in [
        (Kind::Solve, *spec),
        (Kind::Churn, serving),
        (Kind::ServeAck, serving),
    ] {
        if spec.kind != kind {
            let stage = Spec { kind, ..shape };
            let (_, c) = own_stage(ctx, &stage, &short, true, tracer, layers)?;
            check.absorb(c);
        }
    }
    tracer.end();
    Ok(check)
}

/// The per-layer metrics that combine what separate stages measured.
fn put_derived(layers: &mut Metrics, default_threads_solve_s: f64, overhead: f64) {
    let get = |name: &str| layers.get(name).unwrap_or(0.0);
    let solve_s = get("core.solve_s");
    let pairs = get("core.pairs_per_loop") * get("core.loops");
    // What the probes' unit costs account for; the rest of a solve is the
    // stable loop itself and is unknown, not fast. An object is searched
    // for afresh when it enters the skyline (the initial skyline, then about
    // one entrant per assigned object); every other search resumes.
    let fresh = (get("skyline.size") + pairs).min(get("core.searches"));
    let attributed_s = get("skyline.bbs_ms") / 1e3
        + get("topk.lists_build_ms") / 1e3
        + fresh * get("topk.reverse_top1_us_p50") / 1e6
        + (get("core.searches") - fresh) * get("topk.resume_us_p50") / 1e6
        + get("core.loops") * get("skyline.update_us_p50") / 1e6;
    let handoff_us = get("service.ack_inproc_us_p50")
        - get("service.log_batch_us_p50")
        - get("service.sync_for_ack_us_p50")
        - get("engine.apply_batch_us_p50")
        - get("engine.export_snapshot_us_p50");
    layers.put("core.solve_attributed_frac", attributed_s / solve_s);
    layers.put("service.handoff_us", handoff_us);
    layers.put("sync.pool_speedup", solve_s / default_threads_solve_s);
    layers.put("trace_overhead_frac", overhead);
}

fn run_workload(
    catalogue: &Catalogue,
    name: &str,
    args: &RunArgs,
    out_dir: &Path,
    scratch: &Path,
) -> Result<WorkloadRecord, String> {
    let spec = inputs::spec(name, args.smoke).ok_or_else(|| {
        format!(
            "unknown workload {name}; the catalogue has {:?}",
            inputs::WORKLOADS
        )
    })?;
    let budget = Budget::new(args.seconds, args.smoke);
    let ctx = RunCtx {
        seed: args.seed,
        smoke: args.smoke,
        scratch,
    };
    let started = Instant::now();
    let mut metrics = Metrics::default();
    let mut check = Check::default();
    let mut off = Tracer::new(false, started, 0);
    if !args.trace {
        let (primary, c) = own_stage(
            &ctx,
            &spec,
            &budget,
            false,
            &mut off,
            &mut Metrics::default(),
        )?;
        primary.put_end_to_end(&mut metrics);
        check.absorb(c);
    } else {
        // the same third of the budget untraced and traced: their ratio is
        // the overhead of tracing; end-to-end numbers never come from this run
        // (a traced engine-churn needs the whole stream: compaction only
        // starts two thirds into it)
        let part = match spec.kind {
            Kind::Churn => budget,
            _ => budget.shrunk(3),
        };
        let (untraced, c) =
            own_stage(&ctx, &spec, &part, false, &mut off, &mut Metrics::default())?;
        check.absorb(c);
        let mut tracer = Tracer::new(true, started, 0);
        let default_threads_solve_s = probes::run(
            &spec,
            args.seed,
            args.smoke,
            scratch,
            &mut tracer,
            &mut metrics,
        )?;
        check.absorb(other_stages(&ctx, &spec, &mut tracer, &mut metrics)?);
        let (traced, c) = own_stage(&ctx, &spec, &part, true, &mut tracer, &mut metrics)?;
        check.absorb(c);
        let overhead = traced.p50_us.value / untraced.p50_us.value - 1.0;
        put_derived(&mut metrics, default_threads_solve_s, overhead);

        let path = out_dir.join(format!("trace-{name}.json"));
        std::fs::write(&path, trace::render(name, tracer.spans()))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("trace written to {}", path.display());
    }
    for note in &check.notes {
        eprintln!("FAILED: {note}");
    }
    report::record(
        catalogue,
        args.trace,
        check.failed == 0,
        check.attempted,
        check.failed,
        started.elapsed().as_secs_f64(),
        &metrics,
    )
}

fn run(args: &RunArgs) -> Result<bool, String> {
    let nproc = environment_guard()?;
    let catalogue = Catalogue::load();
    let out_dir = out_dir();
    let scratch = Scratch::create(&out_dir)?;
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => inputs::WORKLOADS.to_vec(),
    };
    let mut workloads = BTreeMap::new();
    let mut all_correct = true;
    for name in names {
        let record = run_workload(&catalogue, name, args, &out_dir, &scratch.0)?;
        report::print_workload(&catalogue, name, &record);
        all_correct &= record.correct;
        workloads.insert(name.to_string(), record);
    }
    if let Some(out) = &args.out {
        let file = ResultFile {
            fingerprint: Fingerprint {
                nproc: nproc as u64,
                threads_default: pref_sync::resolve_threads(None) as u64,
                client_connections: CLIENT_CONNECTIONS as u64,
                profile: "release".to_string(),
                commit: git_commit(),
                seed: args.seed,
                seconds: args.seconds,
                smoke: args.smoke,
                trace: args.trace,
            },
            workloads,
        };
        let text = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
        std::fs::write(out, text).map_err(|e| format!("write {}: {e}", out.display()))?;
    }
    Ok(all_correct)
}

fn load_result(path: &Path) -> Result<ResultFile, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|command| match command {
        Command::Run(run_args) => run(&run_args),
        Command::Compare(a, b) => Ok(report::compare(
            &Catalogue::load(),
            &load_result(&a)?,
            &load_result(&b)?,
        )),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Apart from the traces of real runs, which the tests must not overwrite.
    fn test_out_dir() -> PathBuf {
        out_dir().join("test")
    }

    fn smoke(workload: &str, trace: bool) -> WorkloadRecord {
        let args = RunArgs {
            workload: Some(workload.to_string()),
            seed: DEFAULT_SEED,
            seconds: 1,
            trace,
            smoke: true,
            out: None,
        };
        let scratch = Scratch::create(&test_out_dir()).expect("scratch directory");
        let record = run_workload(
            &Catalogue::load(),
            workload,
            &args,
            &test_out_dir(),
            &scratch.0,
        )
        .unwrap_or_else(|e| panic!("{workload}: {e}"));
        let dir = scratch.0.clone();
        drop(scratch);
        assert!(!dir.exists(), "scratch is removed when the run ends");
        record
    }

    /// Every workload, at smoke scale through the full-scale code path:
    /// correct (the exact oracle included), and reporting exactly the
    /// catalogued end-to-end metrics, none of them zero.
    #[test]
    fn every_workload_runs_correct_and_reports_the_catalogue() {
        let catalogue = Catalogue::load();
        for workload in inputs::WORKLOADS {
            let record = smoke(workload, false);
            assert!(record.correct && record.failed == 0, "{workload}");
            assert!(record.attempted >= 1);
            let names: Vec<&String> = record.metrics.keys().collect();
            let mut wanted: Vec<&String> = catalogue.end_to_end.iter().map(|m| &m.name).collect();
            wanted.sort();
            assert_eq!(names, wanted, "{workload}");
            assert!(record.metrics.values().all(|m| m.value > 0.0), "{workload}");
        }
    }

    /// A traced run of a solve workload and of a serving workload reports
    /// every per-layer metric (the short passes fill in the layers the
    /// workload does not stress) and writes its trace.
    #[test]
    fn traced_runs_report_every_layer() {
        let catalogue = Catalogue::load();
        for workload in ["solve-wide", "serve-ack"] {
            let record = smoke(workload, true);
            assert!(record.correct, "{workload}");
            assert_eq!(
                record.metrics.len(),
                catalogue.per_layer.len(),
                "{workload}"
            );
            let trace =
                std::fs::read_to_string(test_out_dir().join(format!("trace-{workload}.json")))
                    .expect("the trace file is written");
            assert!(
                trace.contains("\"request.ack\""),
                "the stage replay is traced"
            );
            assert!(trace.contains("\"probe\""));
        }
    }

    /// Timings move and a disturbed run repeats more; what the program
    /// counts for a seed does not.
    #[test]
    fn the_same_seed_gives_the_same_counts() {
        for (workload, counts) in [
            (
                "solve-anti",
                &[
                    "core.object_io",
                    "core.searches",
                    "core.aux_io",
                    "skyline.size",
                    "rtree.pages",
                ][..],
            ),
            (
                "engine-churn",
                &[
                    "engine.update_object_io",
                    "engine.repair_rounds_per_update",
                    "storage.page_writes",
                ][..],
            ),
        ] {
            let (a, b) = (smoke(workload, true), smoke(workload, true));
            for count in counts {
                assert_eq!(a.metrics[*count].value, b.metrics[*count].value, "{count}");
            }
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_contracted_keys() {
        let record = smoke("solve-anti", false);
        let line = report::contract_line(&record);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":"));
        assert!(line.contains(",\"failed\":0,\"metrics\":{"));
        assert!(line.contains("\"setup_s\":{\"value\":"));
        assert!(line.contains(",\"unit\":\"s\"}"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let to_args = |text: &str| text.split(' ').map(String::from).collect::<Vec<_>>();
        let Ok(Command::Run(run)) = parse(&to_args(
            "run --workload serve-ack --seed 7 --seconds 12 --trace 1",
        )) else {
            panic!("driver-style arguments parse");
        };
        assert_eq!(run.workload.as_deref(), Some("serve-ack"));
        assert_eq!((run.seed, run.seconds, run.trace), (7, 12, true));
        let Ok(Command::Run(run)) = parse(&to_args("run --trace 0 --smoke")) else {
            panic!("--trace 0 parses");
        };
        assert!(!run.trace && run.smoke && run.workload.is_none());
        assert_eq!(run.seed, DEFAULT_SEED);
        let Ok(Command::Run(run)) = parse(&to_args("run --trace --out x.json")) else {
            panic!("a bare --trace parses");
        };
        assert!(run.trace && run.out.is_some());
        assert!(parse(&to_args("run --seconds 0")).is_err());
        assert!(parse(&to_args("run --bogus")).is_err());
        assert!(parse(&to_args("compare a.json")).is_err());
        assert!(parse(&[]).is_err());
    }
}
