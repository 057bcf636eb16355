//! The serve stage: a loopback `pref_net::Server` over a `ShardedService`,
//! driven closed-loop by one process.
//!
//! Closed loop, and deliberately so: each connection sends its next request
//! when the previous reply arrives. An open-loop schedule at the rates this
//! box can pace by sleeping measures the hypervisor's wake-up latency, not
//! the program; the open-loop SLO cell stays in `service_bench`.

use crate::churn::engine_options;
use crate::inputs::{self, Budget, Spec, ACK_ID_BASE, TENANTS};
use crate::outcome::{nanos, secs, Check, Primary};
use crate::report::Metrics;
use crate::solve::{solver, Canonical};
use crate::stats::{percentile_us, Stat};
use crate::trace::Tracer;
use pref_assign::{FunctionId, Problem, Solver};
use pref_engine::UpdateOp;
use pref_net::{NetClient, NetError, Server, ServerConfig, TokenBucketConfig};
use pref_service::{encode_batch, DurabilityConfig, ServiceConfig, ShardedService};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// In-process acks minted by the probes use ids above every networked ack.
const INPROC_ID_BASE: u64 = 2 * ACK_ID_BASE;

pub struct ServeCfg<'a> {
    pub spec: &'a Spec,
    pub seed: u64,
    pub budget: &'a Budget,
    /// Per-shard WAL with `FsyncPolicy::Always` and a checkpoint every 256
    /// batches (the service's own defaults), under `scratch`.
    pub durable: bool,
    /// Closed-loop read connections.
    pub readers: usize,
    /// One closed-loop write connection. Any read connections beside it read
    /// for the length of each ack round instead of a fixed count; with none,
    /// a probed stage reads on the write connection once the acks are done.
    pub writer: bool,
    pub smoke: bool,
    /// Also time the in-process paths and bare pings (traced runs).
    pub probe: bool,
    pub scratch: &'a Path,
}

fn service_config(durability_dir: Option<&Path>) -> ServiceConfig {
    ServiceConfig {
        engine: engine_options(),
        durability: durability_dir.map(DurabilityConfig::new),
        ..ServiceConfig::default()
    }
}

/// Admission sized far above what one closed-loop writer can offer: the
/// workloads measure admitted load, and a reject counts as a failure.
fn server_config() -> ServerConfig {
    ServerConfig {
        admission: TokenBucketConfig {
            rate_per_sec: 1_000_000,
            burst: 1_000_000,
            slots: 1024,
        },
        ..ServerConfig::default()
    }
}

#[derive(Default)]
struct ClientTally {
    latencies: Vec<u64>,
    wrong: u64,
    rejects: u64,
    errors: u64,
    wall_s: f64,
}

impl ClientTally {
    fn note(&mut self, outcome: Result<bool, NetError>) {
        match outcome {
            Ok(true) => {}
            Ok(false) => self.wrong += 1,
            Err(e) if e.is_admission_reject() => self.rejects += 1,
            Err(_) => self.errors += 1,
        }
    }

    fn failed(&self) -> u64 {
        self.wrong + self.rejects + self.errors
    }

    /// Adds another tally's samples and counts (not its wall time).
    fn absorb(&mut self, other: &ClientTally) {
        self.latencies.extend_from_slice(&other.latencies);
        self.wrong += other.wrong;
        self.rejects += other.rejects;
        self.errors += other.errors;
    }
}

/// What a read of `(tenant, function)` must answer: the object a pinned
/// `SbSolver` assigns on the tenant's shard. With a writer the matching
/// moves, and only `found` can be checked.
struct Expected {
    tenant_shard: Vec<usize>,
    /// `object_of[shard][function]`, or `None` when the matching moves.
    object_of: Option<Vec<Vec<Option<u64>>>>,
}

impl Expected {
    fn holds(&self, tenant: u64, function: u64, reply: &pref_net::AssignmentReply) -> bool {
        let Some(object_of) = &self.object_of else {
            return reply.found;
        };
        let want = object_of[self.tenant_shard[tenant as usize]][function as usize];
        reply.found && reply.pairs.first().map(|&(object, _)| object) == want
    }
}

/// What a read connection sends: the read itself, or a ping in its place —
/// the same socket and frame cost with no service work behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Request {
    Read,
    Ping,
}

/// Sends `plan` round-robin from `offset`, until `limit` requests are done or
/// `stop` is raised.
#[allow(clippy::too_many_arguments)]
fn read_loop(
    client: &mut NetClient,
    plan: &[(u64, u64)],
    offset: usize,
    limit: usize,
    stop: &AtomicBool,
    expected: &Expected,
    request: Request,
    tracer: &mut Tracer,
) -> ClientTally {
    let mut tally = ClientTally::default();
    let started = Instant::now();
    for &(tenant, function) in plan.iter().cycle().skip(offset % plan.len()).take(limit) {
        // ordering: relaxed — a stop that is seen one read late is fine
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let sent;
        let outcome = match request {
            Request::Read => {
                tracer.begin("net.assignment_of");
                sent = Instant::now();
                let reply = client.assignment_of(tenant, function);
                tally.latencies.push(nanos(sent.elapsed()));
                reply.map(|r| expected.holds(tenant, function, &r))
            }
            Request::Ping => {
                tracer.begin("net.ping");
                sent = Instant::now();
                let reply = client.ping(tenant);
                tally.latencies.push(nanos(sent.elapsed()));
                reply.map(|()| true)
            }
        };
        tracer.end();
        tally.note(outcome);
    }
    tally.wall_s = secs(started.elapsed());
    tally
}

/// One ack = `update` + `flush` on the batch's tenant: the reply to the flush
/// says the batch is logged, fsynced, applied and published.
fn ack_loop(
    client: &mut NetClient,
    acks: &[(u64, Vec<UpdateOp>)],
    tracer: &mut Tracer,
) -> ClientTally {
    let mut tally = ClientTally::default();
    let started = Instant::now();
    for (tenant, batch) in acks {
        tracer.begin("ack");
        let sent = Instant::now();
        let outcome = tracer
            .scope("net.update", |_| client.update(*tenant, batch))
            .and_then(|()| tracer.scope("net.flush", |_| client.flush(*tenant)));
        tally.latencies.push(nanos(sent.elapsed()));
        tracer.end();
        tally.note(outcome.map(|()| true));
    }
    tally.wall_s = secs(started.elapsed());
    tally
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

fn canonical_per_shard(service: &ShardedService) -> Vec<Canonical> {
    (0..service.num_shards())
        .map(|s| {
            let shard = service.shard(s).expect("shard index in range");
            shard.latest().view().canonical()
        })
        .collect()
}

/// Times the paths that need the service in hand, before the server owns it:
/// the snapshot read and the in-process ack (`submit_batch` + `flush_shard`).
/// Returns the user bytes the in-process acks logged.
fn inproc_probes(
    cfg: &ServeCfg,
    service: &ShardedService,
    plan: &[(u64, u64)],
    expected: &Expected,
    check: &mut Check,
    metrics: &mut Metrics,
) -> u64 {
    let batch_reads = if cfg.smoke { 1000 } else { 10_000 };
    let mut reader = service.reader();
    let mut per_read_ns = Vec::new();
    for batch in plan.chunks(batch_reads).take(20) {
        let started = Instant::now();
        for &(tenant, function) in batch {
            let shard = expected.tenant_shard[tenant as usize];
            let snapshot = reader.snapshot(shard).expect("shard index in range");
            black_box(
                snapshot
                    .assignment_of(FunctionId(function as usize))
                    .and_then(|mut objects| objects.next()),
            );
        }
        per_read_ns.push(nanos(started.elapsed()) / batch.len() as u64);
    }
    per_read_ns.sort_unstable();
    metrics.put(
        "service.read_ns_p50",
        crate::stats::percentile(&per_read_ns, 0.5) as f64,
    );
    if !cfg.writer {
        return 0;
    }

    let acks = if cfg.smoke { 40 } else { 100 };
    let mut ack_ns = Vec::with_capacity(acks);
    let mut depth_max = 0usize;
    let mut user_bytes = 0u64;
    for (tenant, batch) in inputs::ack_plan(cfg.spec, cfg.seed, acks, INPROC_ID_BASE) {
        user_bytes += encode_batch(&batch).len() as u64;
        let shard = expected.tenant_shard[tenant as usize];
        let started = Instant::now();
        let submitted = service.submit_batch(shard, batch);
        depth_max = depth_max.max(service.shard(shard).map_or(0, |s| s.queue_depth()));
        let flushed = submitted.and_then(|()| service.flush_shard(shard));
        ack_ns.push(nanos(started.elapsed()));
        check.expect(flushed.err().map(|e| format!("in-process ack: {e}")));
    }
    metrics.put("service.ack_inproc_us_p50", percentile_us(&mut ack_ns, 0.5));
    metrics.put(
        "service.ack_inproc_us_p99",
        percentile_us(&mut ack_ns, 0.99),
    );
    metrics.put("service.queue_depth_max", depth_max as f64);
    user_bytes
}

struct Stack {
    server: Server,
    readers: Vec<NetClient>,
    writer: Option<NetClient>,
    problems: Vec<Problem>,
    expected: Expected,
    /// Seconds this set-up took, the probes between its two halves left out.
    setup_s: f64,
}

impl Stack {
    /// One set-up: problems, service, server, connections. `probes` runs on
    /// the started service before the server takes it over, off the clock.
    fn bring_up(
        cfg: &ServeCfg,
        config: &ServiceConfig,
        tracer: &mut Tracer,
        probes: impl FnOnce(&ShardedService, &Expected),
    ) -> Result<Self, String> {
        let started = Instant::now();
        tracer.begin("setup");
        let problems: Vec<Problem> = tracer.scope("datagen.problem", |_| {
            (0..cfg.spec.shards)
                .map(|shard| inputs::problem(cfg.spec, cfg.seed, shard))
                .collect()
        });
        let service = tracer
            .scope("service.start", |_| {
                ShardedService::start(problems.clone(), config)
            })
            .map_err(|e| format!("service start: {e}"))?;
        tracer.end();
        let mut setup_s = secs(started.elapsed());

        let expected = Expected {
            tenant_shard: (0..TENANTS as u64)
                .map(|t| service.shard_of_key(t))
                .collect(),
            object_of: None,
        };
        probes(&service, &expected);

        let started = Instant::now();
        tracer.begin("setup");
        let server = tracer
            .scope("net.server_start", |_| {
                Server::start(service, &server_config())
            })
            .map_err(|e| format!("server start: {e}"))?;
        let addr = server.local_addr();
        let connect = || NetClient::connect(addr).map_err(|e| format!("connect: {e}"));
        let (readers, writer) = tracer.scope("net.connect", |_| -> Result<_, String> {
            let readers: Vec<NetClient> = (0..cfg.readers)
                .map(|_| connect())
                .collect::<Result<_, _>>()?;
            Ok((readers, cfg.writer.then(connect).transpose()?))
        })?;
        tracer.end();
        setup_s += secs(started.elapsed());
        Ok(Self {
            server,
            readers,
            writer,
            problems,
            expected,
            setup_s,
        })
    }

    fn tear_down(self) -> Result<ShardedService, String> {
        drop(self.readers);
        drop(self.writer);
        self.server.stop().map_err(|e| format!("server stop: {e}"))
    }

    /// One round: every read connection on its own thread, the write
    /// connection (if any) on the caller's. With acks to send, the readers
    /// read until the last ack; without, `read_limit` requests each.
    fn round(
        &mut self,
        plans: &[Vec<(u64, u64)>],
        read_offset: usize,
        read_limit: usize,
        request: Request,
        acks: &[(u64, Vec<UpdateOp>)],
        tracer: &mut Tracer,
    ) -> (ClientTally, Option<ClientTally>) {
        let stop = AtomicBool::new(false);
        let read_limit = if acks.is_empty() {
            read_limit
        } else {
            usize::MAX
        };
        let (reads, acked) = std::thread::scope(|scope| {
            let (stop, expected) = (&stop, &self.expected);
            let handles: Vec<_> = self
                .readers
                .iter_mut()
                .zip(plans)
                .enumerate()
                .map(|(lane, (client, plan))| {
                    let mut forked = tracer.fork(lane as u64 + 1);
                    scope.spawn(move || {
                        let tally = read_loop(
                            client,
                            plan,
                            read_offset,
                            read_limit,
                            stop,
                            expected,
                            request,
                            &mut forked,
                        );
                        (tally, forked)
                    })
                })
                .collect();
            let acked = match (&mut self.writer, acks.is_empty()) {
                (Some(client), false) => {
                    let tally = ack_loop(client, acks, tracer);
                    // ordering: relaxed — see read_loop
                    stop.store(true, Ordering::Relaxed);
                    Some(tally)
                }
                _ => None,
            };
            let reads: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("a read connection panicked"))
                .collect();
            (reads, acked)
        });
        let mut all = ClientTally::default();
        for (tally, forked) in reads {
            tracer.absorb(forked);
            all.wall_s = all.wall_s.max(tally.wall_s);
            all.absorb(&tally);
        }
        (all, acked)
    }

    /// A round of `limit` requests on the write connection: a stack without
    /// read connections still has a read path to time.
    fn round_on_writer(
        &mut self,
        plan: &[(u64, u64)],
        offset: usize,
        limit: usize,
        request: Request,
        tracer: &mut Tracer,
    ) -> ClientTally {
        let never = AtomicBool::new(false);
        match self.writer.as_mut() {
            Some(client) => read_loop(
                client,
                plan,
                offset,
                limit,
                &never,
                &self.expected,
                request,
                tracer,
            ),
            None => ClientTally::default(),
        }
    }
}

/// Per-round `(p50 µs, p99 µs, operations per second)`.
type Round = (f64, f64, f64);

fn round_of(latencies: &mut [u64], wall_s: f64) -> Round {
    (
        percentile_us(latencies, 0.5),
        percentile_us(latencies, 0.99),
        latencies.len() as f64 / wall_s,
    )
}

/// The median round of each column. Unlike a compute-bound stage, a serving
/// round is not only ever slowed by its surroundings: where the scheduler
/// places four ping-ponging threads on two cores, and how long the host takes
/// over an `fdatasync`, move a round both ways, so the median round stands
/// for the run, not the fastest.
fn columns(rounds: &[Round]) -> Option<(Stat, Stat, Stat)> {
    let column =
        |pick: fn(&Round) -> f64| Stat::of_rounds(&rounds.iter().map(pick).collect::<Vec<_>>());
    (!rounds.is_empty()).then(|| (column(|r| r.0), column(|r| r.1), column(|r| r.2)))
}

/// Runs the serve stage and returns its end-to-end numbers: of the acks when
/// there is a writer, of the reads otherwise.
pub fn serve_stage(
    cfg: &ServeCfg,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> Result<(Primary, Check), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let client_threads = cfg.readers + usize::from(cfg.writer);
    assert!(
        client_threads <= nproc,
        "{client_threads} client threads on {nproc} hardware threads would time the scheduler"
    );
    let budget = cfg.budget;
    let mut check = Check::default();
    let durability_dir = cfg.scratch.join("durability");
    let config = service_config(cfg.durable.then_some(durability_dir.as_path()));

    let reads_planned = budget.warmup_reads + budget.rounds * budget.reads_per_round;
    let plans: Vec<Vec<(u64, u64)>> = (0..cfg.readers.max(1))
        .map(|c| inputs::read_plan(cfg.spec, cfg.seed, c, reads_planned))
        .collect();
    let acks: Vec<(u64, Vec<UpdateOp>)> = if cfg.writer {
        let n = budget.rounds * budget.acks_per_round;
        inputs::ack_plan(cfg.spec, cfg.seed, n, ACK_ID_BASE)
    } else {
        Vec::new()
    };
    let mut user_bytes: u64 = acks.iter().map(|(_, b)| encode_batch(b).len() as u64).sum();

    // --- the stack that is driven; further set-ups follow the measurement
    let mut stack = Stack::bring_up(cfg, &config, tracer, |service, expected| {
        if cfg.probe {
            user_bytes += inproc_probes(cfg, service, &plans[0], expected, &mut check, metrics);
        }
    })?;
    let mut setup_s = vec![stack.setup_s];
    if !cfg.writer {
        stack.expected.object_of = Some(
            stack
                .problems
                .iter()
                .map(|problem| {
                    let mut tree = problem.build_tree(None, crate::solve::BUFFER_FRACTION);
                    let assignment = solver(Some(1)).solve(problem, &mut tree).assignment;
                    (0..problem.num_functions())
                        .map(|f| assignment.object_of(FunctionId(f)).map(|o| o.0))
                        .collect()
                })
                .collect(),
        );
    }
    let mut untraced = Tracer::new(false, Instant::now(), 0);

    // --- warm-up, then (probed) the bare round trip at the same concurrency
    let (warm, _) = stack.round(
        &plans,
        0,
        budget.warmup_reads,
        Request::Read,
        &[],
        &mut untraced,
    );
    check.tally(warm.latencies.len() as u64, warm.failed());
    let mut ping_p50_us = None;
    if cfg.probe {
        let pings = budget.reads_per_round;
        let mut tally = if cfg.readers == 0 {
            stack.round_on_writer(&plans[0], 0, pings, Request::Ping, tracer)
        } else {
            stack.round(&plans, 0, pings, Request::Ping, &[], tracer).0
        };
        check.tally(tally.latencies.len() as u64, tally.failed());
        let p50 = percentile_us(&mut tally.latencies, 0.5);
        metrics.put("net.ping_us_p50", p50);
        ping_p50_us = Some(p50);
    }

    // --- the timed rounds
    let mut read_rounds: Vec<Round> = Vec::new();
    let mut ack_rounds: Vec<Round> = Vec::new();
    let mut all_reads = ClientTally::default();
    let mut all_acks = ClientTally::default();
    for round in 0..budget.rounds {
        let read_offset = budget.warmup_reads + round * budget.reads_per_round;
        let ack_slice = acks
            .chunks(budget.acks_per_round.max(1))
            .nth(round)
            .unwrap_or(&[]);
        let (mut reads, acked) = stack.round(
            &plans,
            read_offset,
            budget.reads_per_round,
            Request::Read,
            ack_slice,
            tracer,
        );
        if !reads.latencies.is_empty() {
            all_reads.absorb(&reads);
            read_rounds.push(round_of(&mut reads.latencies, reads.wall_s));
        }
        if let Some(mut tally) = acked {
            all_acks.absorb(&tally);
            ack_rounds.push(round_of(&mut tally.latencies, tally.wall_s));
        }
    }
    if cfg.probe && cfg.readers == 0 {
        // no connection read beside the acks: one read round after them
        // fills in the read path's layer metrics
        let mut tally = stack.round_on_writer(
            &plans[0],
            budget.warmup_reads,
            budget.reads_per_round,
            Request::Read,
            tracer,
        );
        all_reads.absorb(&tally);
        read_rounds.push(round_of(&mut tally.latencies, tally.wall_s));
    }
    check.tally(all_reads.latencies.len() as u64, all_reads.failed());
    check.tally(all_acks.latencies.len() as u64, all_acks.failed());

    // --- stop, verify, recover
    let shards = stack.problems.len() as u64;
    let service = stack.tear_down()?;
    let stats = service.stats();
    for shard in 0..service.num_shards() {
        let latest = service.shard(shard).expect("shard index in range").latest();
        check.expect(
            latest
                .verify()
                .err()
                .map(|v| format!("shard {shard} serves an unstable matching: {v:?}")),
        );
    }
    let before = canonical_per_shard(&service);
    let disk_bytes = dir_bytes(&durability_dir);
    service
        .shutdown()
        .map_err(|e| format!("service shutdown: {e}"))?;
    if cfg.durable {
        let started = Instant::now();
        let recovered = tracer
            .scope("service.recover", |_| ShardedService::recover(&config))
            .map_err(|e| format!("recover: {e}"))?;
        metrics.put("service.recover_ms", secs(started.elapsed()) * 1e3);
        check.expect(
            (canonical_per_shard(&recovered) != before)
                .then(|| "the recovered matching differs from the one shut down".to_string()),
        );
        recovered
            .shutdown()
            .map_err(|e| format!("recovered service shutdown: {e}"))?;
        metrics.put(
            "storage.disk_bytes_per_user_byte",
            disk_bytes as f64 / user_bytes.max(1) as f64,
        );
        let _ = std::fs::remove_dir_all(&durability_dir);
    }

    // --- set-up again for its median; cheap set-ups more often, their
    // median needs it most
    while setup_s.len() < budget.setups
        || (setup_s.len() < 5 * budget.setups && setup_s.iter().sum::<f64>() < 0.25)
    {
        let again = Stack::bring_up(cfg, &config, tracer, |_, _| ())?;
        setup_s.push(again.setup_s);
        again
            .tear_down()?
            .shutdown()
            .map_err(|e| format!("service shutdown: {e}"))?;
        let _ = std::fs::remove_dir_all(&durability_dir);
    }

    // --- metrics
    let over = |tally: &ClientTally, limit_ns: u64| {
        let n = tally.latencies.iter().filter(|&&ns| ns > limit_ns).count();
        n as f64 / tally.latencies.len().max(1) as f64
    };
    let reads = columns(&read_rounds);
    let acked = columns(&ack_rounds);
    if let Some((p50, p99, rate)) = reads {
        metrics.put_stat("net.read_p50_us", p50);
        metrics.put_stat("net.read_p99_us", p99);
        metrics.put_stat("net.reads_per_s", rate);
        metrics.put("net.read_over_1ms_frac", over(&all_reads, 1_000_000));
        if let Some(ping) = ping_p50_us {
            metrics.put("net.read_minus_ping_us", p50.value - ping);
        }
    }
    if let Some((p50, p99, _)) = acked {
        metrics.put_stat("net.ack_p50_us", p50);
        metrics.put_stat("net.ack_p99_us", p99);
        metrics.put("net.ack_over_20ms_frac", over(&all_acks, 20_000_000));
        if let Some(inproc) = metrics.get("service.ack_inproc_us_p50") {
            metrics.put("net.ack_minus_inproc_us", p50.value - inproc);
        }
        // every shard publishes version 1 when it starts
        let publications = stats.published_versions() - shards;
        metrics.put(
            "service.updates_per_publication",
            stats.processed() as f64 / publications.max(1) as f64,
        );
        metrics.put("service.rejected", stats.rejected() as f64);
    }
    metrics.put(
        "net.admission_rejects",
        (all_reads.rejects + all_acks.rejects) as f64,
    );
    metrics.put(
        "net.protocol_errors",
        (all_reads.errors + all_acks.errors + all_reads.wrong) as f64,
    );

    let (p50_us, _, _) = acked
        .or(reads)
        .ok_or("the serve stage drove neither reads nor acks")?;
    Ok((Primary { setup_s, p50_us }, check))
}
