//! Layer probes of a traced run: timed calls into each layer's public
//! functions, on the inputs the workload itself was generated from.
//!
//! Every probe sits under one `probe` root span. The stage replay at the end
//! walks one ack and one read through their stages on a single thread, so
//! that the order and the cost of the blocking steps show in the trace
//! without the queue hand-offs a real ack also pays (those are what
//! `service.handoff_us` is left with).

use crate::churn::engine_options;
use crate::inputs::{self, Spec, ACK_BATCH, ACK_ID_BASE};
use crate::outcome::{nanos, secs};
use crate::report::Metrics;
use crate::solve::{solver, BUFFER_FRACTION};
use crate::stats::{derive_seed, percentile, percentile_us, Stat};
use crate::trace::Tracer;
use pref_assign::{FunctionId, Problem, Solver};
use pref_datagen::{update_stream, UpdateEvent, UpdateStreamConfig};
use pref_engine::{AssignmentEngine, UpdateOp};
use pref_geom::{kernel, LinearFunction, Point, ScoreTable, SoaBlock};
use pref_net::frame::{self, Frame};
use pref_net::{AdmissionGate, TokenBucketConfig};
use pref_rtree::{DataEntry, RecordId};
use pref_service::{decode_batch, encode_batch, FsyncPolicy, ShardDurability};
use pref_skyline::{compute_skyline_bbs, insert_skyline, update_skyline};
use pref_storage::wal::{self, WalWriter};
use pref_sync::{resolve_threads, WorkStealingPool};
use pref_topk::{best_function_scan, top_k, FunctionLists, ReverseTopOne};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io::Cursor;
use std::path::Path;
use std::time::Instant;

/// Ids minted by the replay and the skyline probe, above every ack id.
const PROBE_ID_BASE: u64 = 4 * ACK_ID_BASE;
const STREAM_PROBES: u64 = 9;

/// Nanoseconds of each of `batches` runs of `body`.
fn time_batches(batches: usize, mut body: impl FnMut()) -> Vec<u64> {
    (0..batches)
        .map(|_| {
            let started = Instant::now();
            body();
            nanos(started.elapsed())
        })
        .collect()
}

fn median_ns(mut samples: Vec<u64>) -> f64 {
    samples.sort_unstable();
    percentile(&samples, 0.5) as f64
}

/// Median cost of one of the `per_batch` operations `body` performs.
fn per_op_ns(batches: usize, per_batch: usize, body: impl FnMut()) -> f64 {
    median_ns(time_batches(batches, body)) / per_batch.max(1) as f64
}

/// Samples of named stages, recorded as spans too.
#[derive(Default)]
struct Stages(BTreeMap<&'static str, Vec<u64>>);

impl Stages {
    fn run<R>(&mut self, tracer: &mut Tracer, name: &'static str, body: impl FnOnce() -> R) -> R {
        tracer.begin(name);
        let started = Instant::now();
        let out = body();
        let ns = nanos(started.elapsed());
        tracer.end();
        self.0.entry(name).or_default().push(ns);
        out
    }

    fn p50_us(&mut self, name: &str) -> f64 {
        self.0
            .get_mut(name)
            .map_or(0.0, |samples| percentile_us(samples, 0.5))
    }
}

/// Runs every layer probe. Returns the wall time, in seconds, of one solve at
/// the default thread count, which the caller sets against its pinned solves.
pub fn run(
    spec: &Spec,
    seed: u64,
    smoke: bool,
    scratch: &Path,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> Result<f64, String> {
    tracer.begin("probe");
    let problem = inputs::problem(spec, seed, 0);
    let serving_spec = inputs::serving_spec(spec);
    let serving = inputs::problem(&serving_spec, seed, 0);
    let functions: Vec<LinearFunction> = problem
        .functions()
        .iter()
        .map(|f| f.function.clone())
        .collect();

    // how many skyline objects a loop of the solver removes at once
    let removed_per_loop = tracer.scope("probe.core", |_| {
        let mut tree = problem.build_tree(None, BUFFER_FRACTION);
        let solved = solver(Some(1)).solve(&problem, &mut tree);
        let loops = solved.metrics.loops.max(1) as usize;
        solved.assignment.len().div_ceil(loops).max(1)
    });
    let skyline_points = tracer.scope("probe.skyline", |_| {
        skyline_probe(spec, &problem, seed, removed_per_loop, metrics)
    });
    tracer.scope("probe.geom", |_| {
        geom_probe(&problem, &functions, &skyline_points, metrics)
    });
    tracer.scope("probe.topk", |_| {
        topk_probe(&functions, &skyline_points, metrics)
    });
    tracer.scope("probe.rtree", |_| {
        rtree_probe(spec, &problem, seed, smoke, metrics)
    });
    tracer.scope("probe.storage", |_| {
        wal_probe(
            &serving_spec,
            &serving,
            smoke,
            &scratch.join("wal"),
            metrics,
        )
    })?;
    codec_probe(&serving_spec, seed, tracer, metrics);
    replay(
        &serving_spec,
        &serving,
        seed,
        smoke,
        &scratch.join("replay"),
        tracer,
        metrics,
    )?;
    let default_threads_solve_s = tracer.scope("probe.sync", |_| sync_probe(&problem, metrics));
    tracer.end();
    Ok(default_threads_solve_s)
}

/// `compute_skyline_bbs`, `update_skyline` after removing as many skyline
/// objects as a loop of the solver does, and `insert_skyline` of fresh
/// arrivals. Returns the skyline's points: the block the `geom` and `topk`
/// probes work on.
fn skyline_probe(
    spec: &Spec,
    problem: &Problem,
    seed: u64,
    removed_per_loop: usize,
    metrics: &mut Metrics,
) -> Vec<Point> {
    let mut bbs_ms = Vec::new();
    let mut built = None;
    for _ in 0..5 {
        let mut tree = problem.build_tree(None, BUFFER_FRACTION);
        let started = Instant::now();
        let skyline = compute_skyline_bbs(&mut tree);
        bbs_ms.push(secs(started.elapsed()) * 1e3);
        built = Some((tree, skyline));
    }
    let (mut tree, mut skyline) = built.expect("five builds ran");
    metrics.put("skyline.bbs_ms", Stat::of_rounds(&bbs_ms).value);
    metrics.put("skyline.bbs_page_reads", tree.stats().physical_reads as f64);
    metrics.put("skyline.size", skyline.len() as f64);
    let points: Vec<Point> = skyline.entry_views().map(|(_, p)| p.clone()).collect();

    let reads_before = tree.stats().physical_reads;
    let mut update_ns = Vec::new();
    for _ in 0..16 {
        let victims: Vec<RecordId> = skyline
            .records()
            .into_iter()
            .take(removed_per_loop)
            .collect();
        let removed = victims
            .iter()
            .map(|r| {
                skyline
                    .remove(*r)
                    .expect("a skyline record is on the skyline")
            })
            .collect();
        let started = Instant::now();
        update_skyline(&mut tree, &mut skyline, removed);
        update_ns.push(nanos(started.elapsed()));
    }
    let update_reads = tree.stats().physical_reads - reads_before;
    metrics.put("skyline.update_us_p50", percentile_us(&mut update_ns, 0.5));
    metrics.put(
        "skyline.update_page_reads",
        update_reads as f64 / update_ns.len() as f64,
    );

    let arrivals = spec
        .distribution
        .generate(256, spec.dims, derive_seed(seed, STREAM_PROBES));
    let mut insert_ns = Vec::with_capacity(arrivals.len());
    for (i, (_, point)) in arrivals.into_iter().enumerate() {
        let entry = DataEntry::new(RecordId(PROBE_ID_BASE + i as u64), point);
        let started = Instant::now();
        black_box(insert_skyline(&mut skyline, entry));
        insert_ns.push(nanos(started.elapsed()));
    }
    insert_ns.sort_unstable();
    metrics.put("skyline.insert_ns_p50", percentile(&insert_ns, 0.5) as f64);
    points
}

/// The scoring kernel over a skyline-sized block at the workload's
/// dimensionality, against a copy of the same footprint as its ceiling.
fn geom_probe(
    problem: &Problem,
    functions: &[LinearFunction],
    skyline_points: &[Point],
    metrics: &mut Metrics,
) {
    let dims = problem.dims();
    let table = ScoreTable::from_functions(functions);
    let mut block = SoaBlock::new();
    for point in skyline_points {
        block.push_point(point);
    }
    let mut out = Vec::new();
    let elems_per_pass = table.len() * block.len();
    let passes = (2_000_000 / elems_per_pass.max(1)).max(1);
    let ns_per_elem = per_op_ns(9, elems_per_pass * passes, || {
        for _ in 0..passes {
            for fi in 0..table.len() {
                table.score_block(fi, &block, &mut out);
                black_box(out.as_slice());
            }
        }
    });
    // one f64 read per dimension and one written per scored element
    let bytes_per_elem = 8.0 * (dims as f64 + 1.0);
    let melem_s = 1e3 / ns_per_elem;
    metrics.put("geom.kernel_melem_s", melem_s);
    metrics.put("geom.kernel_bytes_per_elem", bytes_per_elem);
    metrics.put("geom.kernel_gb_s", melem_s * bytes_per_elem / 1e3);

    let src = vec![1.0f64; (block.len() * dims).max(1)];
    let mut dst = vec![0.0f64; src.len()];
    let copies = (1_000_000 / src.len()).max(1);
    let ns_per_f64 = per_op_ns(9, src.len() * copies, || {
        for _ in 0..copies {
            dst.copy_from_slice(black_box(&src));
            black_box(dst.as_slice());
        }
    });
    metrics.put("geom.copy_gb_s", 16.0 / ns_per_f64);

    let sample: Vec<&Point> = problem
        .objects()
        .iter()
        .map(|o| &o.point)
        .take(2000)
        .collect();
    let ns = per_op_ns(5, sample.len(), || {
        for point in &sample {
            black_box(kernel::first_dominator(&block, point.coords()));
        }
    });
    metrics.put("geom.first_dominator_ns", ns);
}

/// `FunctionLists::new`, then per skyline object one fresh reverse top-1
/// search, the same search resumed after its winner is assigned away (what
/// most of a solve's searches are), and one exhaustive scan.
fn topk_probe(functions: &[LinearFunction], skyline_points: &[Point], metrics: &mut Metrics) {
    let build_ns = time_batches(5, || {
        black_box(FunctionLists::new(functions));
    });
    metrics.put("topk.lists_build_ms", median_ns(build_ns) / 1e6);
    let lists = FunctionLists::new(functions);
    // the candidate queue of the paper's default: Ω = 2.5 % of |F|
    let omega = ((0.025 * functions.len() as f64).ceil() as usize).max(1);
    let objects = &skyline_points[..skyline_points.len().min(2000)];
    let mut search_ns = Vec::with_capacity(objects.len());
    let mut resume_ns = Vec::with_capacity(objects.len());
    let mut scan_ns = Vec::with_capacity(objects.len());
    let (mut accesses, mut restarts) = (0u64, 0u64);
    for point in objects {
        let mut search = ReverseTopOne::new(point.clone(), omega);
        let started = Instant::now();
        let winner = black_box(search.best(&lists));
        search_ns.push(nanos(started.elapsed()));
        accesses += search.sorted_accesses();
        restarts += search.restarts();
        if let Some((function, _)) = winner {
            let mut without_winner = lists.clone();
            without_winner.remove(function);
            let started = Instant::now();
            black_box(search.best(&without_winner));
            resume_ns.push(nanos(started.elapsed()));
        }
        let started = Instant::now();
        black_box(best_function_scan(&lists, point));
        scan_ns.push(nanos(started.elapsed()));
    }
    let n = objects.len().max(1) as f64;
    metrics.put(
        "topk.reverse_top1_us_p50",
        percentile_us(&mut search_ns, 0.5),
    );
    metrics.put("topk.resume_us_p50", percentile_us(&mut resume_ns, 0.5));
    metrics.put("topk.sorted_accesses_per_search", accesses as f64 / n);
    metrics.put("topk.restarts_per_search", restarts as f64 / n);
    metrics.put("topk.scan_us_p50", percentile_us(&mut scan_ns, 0.5));
}

/// Bulk load, then the object side of an update stream replayed straight
/// onto the tree, then top-1 searches for the first 64 functions.
fn rtree_probe(spec: &Spec, problem: &Problem, seed: u64, smoke: bool, metrics: &mut Metrics) {
    let load_ns = time_batches(5, || {
        black_box(problem.build_tree(None, BUFFER_FRACTION));
    });
    metrics.put("rtree.bulk_load_ms", median_ns(load_ns) / 1e6);
    let mut tree = problem.build_tree(None, BUFFER_FRACTION);
    metrics.put("rtree.pages", tree.num_pages() as f64);
    metrics.put("rtree.height", f64::from(tree.height()));

    let logical_before = tree.stats().logical_reads;
    let queries = problem.functions().iter().take(64);
    let asked = queries.len();
    for f in queries {
        black_box(top_k(&mut tree, f.function.clone(), 1));
    }
    metrics.put(
        "rtree.topk_pages_per_query",
        (tree.stats().logical_reads - logical_before) as f64 / asked.max(1) as f64,
    );

    let mut points: HashMap<u64, Point> = problem
        .objects()
        .iter()
        .map(|o| (o.id.0, o.point.clone()))
        .collect();
    let live: Vec<RecordId> = problem.objects().iter().map(|o| o.id).collect();
    let stream = update_stream(
        &UpdateStreamConfig {
            num_events: if smoke { 100 } else { 400 },
            dims: spec.dims,
            distribution: spec.distribution,
            object_fraction: 1.0,
            min_objects: live.len() / 2,
            seed: derive_seed(seed, STREAM_PROBES + 1),
            ..UpdateStreamConfig::default()
        },
        &live,
        &[0],
    );
    let (mut insert_ns, mut delete_ns) = (Vec::new(), Vec::new());
    let (mut splits, mut freed) = (0usize, 0usize);
    for event in &stream {
        match event {
            UpdateEvent::InsertObject { id, point, .. } => {
                points.insert(id.0, point.clone());
                let started = Instant::now();
                let outcome = tree.insert_tracked(*id, point.clone());
                insert_ns.push(nanos(started.elapsed()));
                splits += outcome
                    .expect("stream points have the tree's dimensions")
                    .len();
            }
            UpdateEvent::RemoveObject { id } => {
                let point = points.remove(&id.0).expect("streams only remove live ids");
                let started = Instant::now();
                let outcome = tree.delete_tracked(*id, &point);
                delete_ns.push(nanos(started.elapsed()));
                let outcome = outcome.expect("a live record is in the tree");
                splits += outcome.splits.len();
                freed += outcome.freed.len();
            }
            UpdateEvent::InsertFunction { .. } | UpdateEvent::RemoveFunction { .. } => {}
        }
    }
    metrics.put("rtree.insert_us_p50", percentile_us(&mut insert_ns, 0.5));
    metrics.put("rtree.delete_us_p50", percentile_us(&mut delete_ns, 0.5));
    metrics.put("rtree.splits", splits as f64);
    metrics.put("rtree.freed_pages", freed as f64);
}

fn ack_sized_batch(spec: &Spec) -> Vec<UpdateOp> {
    inputs::ack_plan(spec, 0, 1, PROBE_ID_BASE)
        .pop()
        .expect("a one-ack plan holds one batch")
        .1
}

/// `WalWriter::append` and `sync` on ack-sized records, and
/// `write_checkpoint` on a payload the size of the serving problem.
fn wal_probe(
    spec: &Spec,
    serving: &Problem,
    smoke: bool,
    dir: &Path,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let fail = |e: pref_storage::StorageError| format!("wal probe: {e}");
    wal::ensure_dir(dir).map_err(fail)?;
    let mut writer = WalWriter::create(dir, 0).map_err(fail)?;
    let payload = encode_batch(&ack_sized_batch(spec));
    let records = if smoke { 40 } else { 200 };
    let (mut append_ns, mut sync_ns) = (Vec::new(), Vec::new());
    for _ in 0..records {
        let started = Instant::now();
        writer.append(&payload).map_err(fail)?;
        append_ns.push(nanos(started.elapsed()));
        let started = Instant::now();
        writer.sync().map_err(fail)?;
        sync_ns.push(nanos(started.elapsed()));
    }
    let log_len = std::fs::metadata(writer.path()).map_or(0, |m| m.len());
    metrics.put(
        "storage.wal_append_us_p50",
        percentile_us(&mut append_ns, 0.5),
    );
    metrics.put("storage.wal_sync_us_p50", percentile_us(&mut sync_ns, 0.5));
    metrics.put("storage.wal_bytes", log_len as f64 / records as f64);

    let checkpoint = encode_batch(&inputs::problem_ops(serving));
    let mut write_ms = Vec::new();
    for seq in 1..=5 {
        let started = Instant::now();
        wal::write_checkpoint(dir, seq, &checkpoint).map_err(fail)?;
        write_ms.push(secs(started.elapsed()) * 1e3);
    }
    metrics.put(
        "storage.checkpoint_write_ms",
        Stat::of_rounds(&write_ms).value,
    );
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

fn big_gate() -> AdmissionGate {
    AdmissionGate::new(&TokenBucketConfig {
        rate_per_sec: 1_000_000_000,
        burst: 1_000_000_000,
        slots: 1024,
    })
}

/// The nanosecond-scale steps of a request, batched so that the timer does
/// not outweigh them: frame and batch codecs, the admission gate.
fn codec_probe(spec: &Spec, seed: u64, tracer: &mut Tracer, metrics: &mut Metrics) {
    tracer.begin("probe.codec");
    const PER_BATCH: usize = 10_000;
    let batch = ack_sized_batch(spec);
    let update = Frame::request(frame::OP_UPDATE, seed % 64, encode_batch(&batch));
    let mut wire = Vec::new();
    metrics.put(
        "net.frame_encode_ns",
        per_op_ns(5, PER_BATCH, || {
            for _ in 0..PER_BATCH {
                wire.clear();
                frame::encode(black_box(&update), &mut wire);
            }
        }),
    );
    metrics.put(
        "net.frame_decode_ns",
        per_op_ns(5, PER_BATCH, || {
            for _ in 0..PER_BATCH {
                black_box(frame::read_frame(&mut Cursor::new(wire.as_slice())).is_ok());
            }
        }),
    );
    let gate = big_gate();
    let mut now = 0u64;
    metrics.put(
        "net.admit_ns",
        per_op_ns(5, PER_BATCH, || {
            for tenant in 0..PER_BATCH as u64 {
                now += 1000;
                black_box(gate.admit(tenant % 64, ACK_BATCH as u64, now));
            }
        }),
    );
    metrics.put(
        "service.encode_batch_ns",
        per_op_ns(5, PER_BATCH, || {
            for _ in 0..PER_BATCH {
                black_box(encode_batch(black_box(&batch)));
            }
        }),
    );
    metrics.put(
        "service.decode_batch_ns",
        per_op_ns(5, PER_BATCH, || {
            for _ in 0..PER_BATCH {
                black_box(decode_batch(black_box(&update.payload)).is_ok());
            }
        }),
    );

    // a read on the wire: an 8-byte id out, `[version][found][count][pair]` back
    let request = Frame::request(frame::OP_ASSIGNMENT_OF, 0, vec![0; 8]);
    let reply = Frame::request(
        frame::OP_ASSIGNMENT_OF | frame::OP_REPLY,
        0,
        vec![0; 13 + 16],
    );
    let mut bytes = Vec::new();
    frame::encode(&request, &mut bytes);
    frame::encode(&reply, &mut bytes);
    metrics.put("net.bytes_per_read", bytes.len() as f64);
    tracer.end();
}

/// Walks acks and reads through their stages on one thread, in the order the
/// server and the shard writer run them.
fn replay(
    spec: &Spec,
    serving: &Problem,
    seed: u64,
    smoke: bool,
    dir: &Path,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> Result<(), String> {
    tracer.begin("probe.replay");
    let storage = |e: pref_storage::StorageError| format!("stage replay: {e}");
    let mut engine = AssignmentEngine::new(serving, &engine_options())
        .map_err(|e| format!("stage replay: {e}"))?;
    let initial = engine.export_snapshot();
    let mut durability = ShardDurability::create(
        dir,
        FsyncPolicy::Always,
        256,
        &initial.functions,
        &initial.objects,
    )
    .map_err(storage)?;
    let gate = big_gate();
    let acks = inputs::ack_plan(spec, seed, if smoke { 40 } else { 100 }, PROBE_ID_BASE);
    let mut stages = Stages::default();
    let mut wire = Vec::new();
    for (i, (tenant, batch)) in acks.iter().enumerate() {
        tracer.begin("request.ack");
        stages.run(tracer, "net.frame_encode", || {
            let request = Frame::request(frame::OP_UPDATE, *tenant, encode_batch(batch));
            wire.clear();
            frame::encode(&request, &mut wire);
        });
        let request = stages
            .run(tracer, "net.frame_decode", || {
                frame::read_frame(&mut Cursor::new(wire.as_slice()))
            })
            .map_err(|e| format!("stage replay: {e}"))?;
        stages.run(tracer, "net.admit", || {
            black_box(gate.admit(*tenant, batch.len() as u64, i as u64 * 1000))
        });
        let ops = stages
            .run(tracer, "service.decode_batch", || {
                decode_batch(&request.payload)
            })
            .map_err(storage)?;
        stages
            .run(tracer, "service.log_batch", || durability.log_batch(&ops))
            .map_err(storage)?;
        stages
            .run(tracer, "service.sync_for_ack", || durability.sync_for_ack())
            .map_err(storage)?;
        stages
            .run(tracer, "engine.apply", || {
                ops.iter().try_for_each(|op| op.apply(&mut engine))
            })
            .map_err(|e| format!("stage replay: {e}"))?;
        let exported = stages.run(tracer, "engine.export_snapshot", || {
            engine.export_snapshot()
        });
        let view = stages.run(tracer, "service.build_view", || exported.view());
        stages.run(tracer, "net.reply_encode", || {
            let reply = Frame::request(frame::OP_FLUSH | frame::OP_REPLY, *tenant, Vec::new());
            wire.clear();
            frame::encode(&reply, &mut wire);
        });
        tracer.end();

        tracer.begin("request.read");
        let function = i as u64 % spec.functions as u64;
        stages.run(tracer, "net.frame_encode", || {
            let payload = function.to_le_bytes().to_vec();
            let request = Frame::request(frame::OP_ASSIGNMENT_OF, *tenant, payload);
            wire.clear();
            frame::encode(&request, &mut wire);
        });
        stages
            .run(tracer, "net.frame_decode", || {
                frame::read_frame(&mut Cursor::new(wire.as_slice()))
            })
            .map_err(|e| format!("stage replay: {e}"))?;
        let payload = stages.run(tracer, "service.snapshot_read", || {
            let mut payload = vec![0u8; 13];
            if let Some(objects) = view.objects_of(FunctionId(function as usize)) {
                for (object, score) in objects {
                    payload.extend_from_slice(&object.0.to_le_bytes());
                    payload.extend_from_slice(&score.to_bits().to_le_bytes());
                }
            }
            payload
        });
        stages.run(tracer, "net.reply_encode", || {
            let reply = Frame::request(frame::OP_ASSIGNMENT_OF | frame::OP_REPLY, *tenant, payload);
            wire.clear();
            frame::encode(&reply, &mut wire);
        });
        tracer.end();
    }
    metrics.put(
        "service.log_batch_us_p50",
        stages.p50_us("service.log_batch"),
    );
    metrics.put(
        "service.sync_for_ack_us_p50",
        stages.p50_us("service.sync_for_ack"),
    );
    metrics.put("engine.apply_batch_us_p50", stages.p50_us("engine.apply"));
    drop(durability);
    let _ = std::fs::remove_dir_all(dir);
    tracer.end();
    Ok(())
}

/// The pool the parallel paths run on: what a dispatch costs, and one solve
/// at the default thread count (the caller divides the pinned solve by it).
fn sync_probe(problem: &Problem, metrics: &mut Metrics) -> f64 {
    let threads = resolve_threads(None);
    metrics.put("sync.threads_default", threads as f64);
    let pool = WorkStealingPool::with_threads(threads);
    let mut dispatch_ns = time_batches(200, || {
        let jobs: Vec<fn()> = vec![|| {}; 64];
        pool.run(jobs);
    });
    metrics.put(
        "sync.pool_dispatch_us",
        percentile_us(&mut dispatch_ns, 0.5),
    );
    let mut tree = problem.build_tree(None, BUFFER_FRACTION);
    let started = Instant::now();
    black_box(solver(None).solve(problem, &mut tree));
    secs(started.elapsed())
}
