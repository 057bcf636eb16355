//! service_bench — the open-loop front-door SLO cell.
//!
//! Drives the whole stack over the real socket path (`pref_net`'s wire
//! protocol against a live TCP server over a 4-shard service): an
//! *open-loop* load generator schedules request arrivals at a fixed offered
//! rate and measures every latency from the *scheduled* arrival — so
//! queueing delay counts and a stalled server cannot hide behind coordinated
//! omission. Tenants are drawn Zipf-like (a hot tenant concentrates load on
//! one shard), read and update-ack p50/p99/p999 are reported, and the run
//! exits non-zero unless all five gates hold: zero protocol errors, read and
//! ack p999 within their SLOs, and ≥ 80% of the offered read and ack rates
//! sustained. Closed-loop speed, recovery time and the per-layer trace are
//! the benchmark's (`benchmark/`, `BENCHMARK.json`); torn reads, recovery
//! identity and the overload reject are asserted by `stress_service.rs`,
//! `crash_recovery.rs` and `fuzz_protocol.rs`. Usage:
//! `service_bench [--smoke] [--out <path>]`.

use pref_assign::{ObjectRecord, Problem};
use pref_bench::percentile_us;
use pref_datagen::ObjectDistribution;
use pref_engine::EngineOptions;
use pref_geom::Point;
use pref_net::{NetClient, Server, ServerConfig, TokenBucketConfig};
use pref_rtree::RecordId;
use pref_service::{ServiceConfig, ShardedService, UpdateOp};
use serde::Serialize;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DIMS: usize = 3;
const SEED: u64 = 20_090_824;
const NUM_FUNCTIONS: usize = 16;
const NUM_OBJECTS: usize = 120;

/// Reader connections in the open-loop socket cell.
const FRONT_DOOR_READ_CONNS: usize = 4;
/// Open-loop read arrivals: one per connection per this interval (500/s per
/// connection, 2,000/s offered across the fleet).
const FRONT_DOOR_READ_INTERVAL: Duration = Duration::from_millis(2);
/// Open-loop update-ack arrivals (update + flush round trip): 200/s.
const FRONT_DOOR_ACK_INTERVAL: Duration = Duration::from_millis(5);
/// Updates per front-door ack batch.
const FRONT_DOOR_ACK_BATCH: usize = 4;
/// Tenant population for the Zipf draw.
const FRONT_DOOR_TENANTS: usize = 64;
/// Zipf skew (s): tenant k gets weight 1/k^s — the head tenant alone
/// carries ~13% of the offered load onto one shard.
const FRONT_DOOR_ZIPF_S: f64 = 1.1;
/// p999 SLO for reads over the socket (generous: shared CI containers).
const FRONT_DOOR_READ_P999_SLO_US: f64 = 25_000.0;
/// p999 SLO for the networked update-ack (update + flush-to-publication).
const FRONT_DOOR_ACK_P999_SLO_US: f64 = 150_000.0;

/// The front-door cell: the open-loop load harness over the real socket
/// path. Latencies are from the *scheduled* arrival (open-loop: queueing
/// delay counts), in µs.
#[derive(Debug, Clone, Serialize)]
struct FrontDoorRow {
    shards: usize,
    read_connections: usize,
    tenants: usize,
    zipf_s: f64,
    window_s: f64,
    offered_reads_per_s: f64,
    achieved_reads_per_s: f64,
    read_p50_us: f64,
    read_p99_us: f64,
    read_p999_us: f64,
    /// The committed read p999 SLO this run was gated against.
    read_p999_slo_us: f64,
    ack_batch_size: usize,
    offered_acks_per_s: f64,
    achieved_acks_per_s: f64,
    ack_p50_us: f64,
    ack_p99_us: f64,
    ack_p999_us: f64,
    /// The committed ack p999 SLO this run was gated against.
    ack_p999_slo_us: f64,
    /// Requests that failed or answered wrongly over the wire (gated: 0).
    protocol_errors: u64,
}

#[derive(Debug, Clone, Serialize)]
struct BenchReport {
    bench: String,
    scale: String,
    created_unix_s: u64,
    hardware_threads: usize,
    front_door: FrontDoorRow,
}

fn main() {
    let mut smoke = false;
    let mut out = PathBuf::from("results/service_bench.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => match args.next() {
                Some(path) => out = PathBuf::from(path),
                None => {
                    eprintln!("--out requires a path; try --help");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: service_bench [--smoke] [--out <path>]");
                return;
            }
            other => {
                eprintln!("unknown option {other}; try --help");
                std::process::exit(2);
            }
        }
    }

    let front_door = run_front_door_cell(smoke);
    eprintln!(
        "== front door: reads {:.0}/{:.0}/s p999={:.0}us (SLO {:.0}us) | acks {:.0}/{:.0}/s p999={:.0}us (SLO {:.0}us) | {} protocol errors ==",
        front_door.achieved_reads_per_s,
        front_door.offered_reads_per_s,
        front_door.read_p999_us,
        front_door.read_p999_slo_us,
        front_door.achieved_acks_per_s,
        front_door.offered_acks_per_s,
        front_door.ack_p999_us,
        front_door.ack_p999_slo_us,
        front_door.protocol_errors
    );
    let mut failed = false;
    if front_door.protocol_errors > 0 {
        failed = true;
        eprintln!(
            "!! {} front-door requests failed over the wire",
            front_door.protocol_errors
        );
    }
    if front_door.read_p999_us > front_door.read_p999_slo_us {
        failed = true;
        eprintln!(
            "!! front-door read p999 {:.0}us breaches the {:.0}us SLO",
            front_door.read_p999_us, front_door.read_p999_slo_us
        );
    }
    if front_door.ack_p999_us > front_door.ack_p999_slo_us {
        failed = true;
        eprintln!(
            "!! front-door ack p999 {:.0}us breaches the {:.0}us SLO",
            front_door.ack_p999_us, front_door.ack_p999_slo_us
        );
    }
    if front_door.achieved_reads_per_s < 0.8 * front_door.offered_reads_per_s {
        failed = true;
        eprintln!(
            "!! front door sustained only {:.0}/s of the offered {:.0}/s read rate",
            front_door.achieved_reads_per_s, front_door.offered_reads_per_s
        );
    }
    if front_door.achieved_acks_per_s < 0.8 * front_door.offered_acks_per_s {
        failed = true;
        eprintln!(
            "!! front door sustained only {:.0}/s of the offered {:.0}/s ack rate",
            front_door.achieved_acks_per_s, front_door.offered_acks_per_s
        );
    }

    let report = BenchReport {
        bench: "service".to_string(),
        scale: if smoke { "smoke" } else { "default" }.to_string(),
        created_unix_s: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        hardware_threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        front_door,
    };
    if let Some(dir) = out.parent() {
        #[expect(
            clippy::disallowed_methods,
            reason = "bench report output, not durable state"
        )]
        std::fs::create_dir_all(dir).expect("create bench output directory");
    }
    #[expect(
        clippy::disallowed_types,
        reason = "bench report output, not durable state"
    )]
    let file = std::fs::File::create(&out).expect("create bench output file");
    serde_json::to_writer_pretty(std::io::BufWriter::new(file), &report)
        .expect("serialize bench report");
    eprintln!("wrote {}", out.display());

    if failed {
        eprintln!("FAILED: an open-loop gate did not hold (see log above)");
        std::process::exit(1);
    }
}

/// One open-loop generator's outcome: latencies from scheduled arrival.
struct OpenLoopOutcome {
    latencies_ns: Vec<u64>,
    errors: u64,
    wall: Duration,
}

/// xorshift64*: the harness's deterministic request-stream randomness.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    state.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

fn uniform01(state: &mut u64) -> f64 {
    (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// CDF of a Zipf(s) distribution over ranks `1..=n`.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

fn zipf_tenant(cdf: &[f64], state: &mut u64) -> u64 {
    let u = uniform01(state);
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1) as u64
}

/// One open-loop reader connection: `requests` point reads, one per
/// [`FRONT_DOOR_READ_INTERVAL`], against Zipf-drawn tenants. Latency is measured from
/// the *scheduled* arrival, so time spent queued behind a slow server is in
/// the sample (no coordinated omission).
fn front_door_reader(
    addr: SocketAddr,
    seed: u64,
    cdf: Arc<Vec<f64>>,
    requests: usize,
) -> OpenLoopOutcome {
    let mut client = NetClient::connect(addr).expect("front-door reader connects");
    let mut latencies = Vec::with_capacity(requests);
    let mut errors = 0u64;
    let mut state = seed | 1;
    let started = Instant::now();
    for i in 0..requests {
        let scheduled = FRONT_DOOR_READ_INTERVAL * i as u32;
        let now = started.elapsed();
        if scheduled > now {
            std::thread::sleep(scheduled - now);
        }
        let tenant = zipf_tenant(&cdf, &mut state);
        let function = xorshift(&mut state) % NUM_FUNCTIONS as u64;
        match client.assignment_of(tenant, function) {
            // the seed functions exist in every shard: an unknown id is a
            // routing/consistency bug, not a miss
            Ok(reply) if reply.found => {}
            Ok(_) | Err(_) => errors += 1,
        }
        latencies.push(started.elapsed().saturating_sub(scheduled).as_nanos() as u64);
    }
    OpenLoopOutcome {
        latencies_ns: latencies,
        errors,
        wall: started.elapsed(),
    }
}

/// The open-loop update-ack connection: each arrival (one per
/// [`FRONT_DOOR_ACK_INTERVAL`]) submits one batch and immediately flushes — the reply is the full network-visible write ack
/// (admission + queue + apply + publish). Batches alternate between
/// inserting four fresh objects on a Zipf tenant and removing those same
/// four again, so every op is valid and the population stays bounded.
fn front_door_acker(
    addr: SocketAddr,
    seed: u64,
    cdf: Arc<Vec<f64>>,
    batches: usize,
) -> OpenLoopOutcome {
    let mut client = NetClient::connect(addr).expect("front-door acker connects");
    let mut latencies = Vec::with_capacity(batches);
    let mut errors = 0u64;
    let mut state = seed | 1;
    let mut next_id = 10_000_000u64;
    let mut pending: Option<(u64, Vec<u64>)> = None;
    let started = Instant::now();
    for i in 0..batches {
        let scheduled = FRONT_DOOR_ACK_INTERVAL * i as u32;
        let now = started.elapsed();
        if scheduled > now {
            std::thread::sleep(scheduled - now);
        }
        let (tenant, batch) = match pending.take() {
            Some((tenant, ids)) => (
                tenant,
                ids.into_iter()
                    .map(|id| UpdateOp::RemoveObject(RecordId(id)))
                    .collect::<Vec<_>>(),
            ),
            None => {
                let tenant = zipf_tenant(&cdf, &mut state);
                let ids: Vec<u64> = (0..FRONT_DOOR_ACK_BATCH as u64)
                    .map(|_| {
                        next_id += 1;
                        next_id
                    })
                    .collect();
                let batch = ids
                    .iter()
                    .map(|&id| {
                        let coords: Vec<f64> = (0..DIMS).map(|_| uniform01(&mut state)).collect();
                        UpdateOp::InsertObject(ObjectRecord::new(id, Point::from_slice(&coords)))
                    })
                    .collect::<Vec<_>>();
                pending = Some((tenant, ids));
                (tenant, batch)
            }
        };
        let ok = client.update(tenant, &batch).is_ok() && client.flush(tenant).is_ok();
        if !ok {
            errors += 1;
        }
        latencies.push(started.elapsed().saturating_sub(scheduled).as_nanos() as u64);
    }
    OpenLoopOutcome {
        latencies_ns: latencies,
        errors,
        wall: started.elapsed(),
    }
}

/// The front-door cell: a 4-shard service behind a real TCP server, driven
/// by open-loop reader connections plus an update-ack connection.
fn run_front_door_cell(smoke: bool) -> FrontDoorRow {
    let shards = 4usize;
    let problems: Vec<Problem> = (0..shards as u64)
        .map(|s| {
            let functions =
                pref_datagen::uniform_weight_functions(NUM_FUNCTIONS, DIMS, SEED ^ (0xfd00 + s));
            let objects =
                ObjectDistribution::Independent.generate(NUM_OBJECTS, DIMS, SEED ^ (0xfd11 + s));
            Problem::from_parts(functions, objects).expect("generated workload is valid")
        })
        .collect();
    let service = ShardedService::start(
        problems,
        &ServiceConfig {
            queue_capacity: 4096,
            engine: EngineOptions::default(),
            durability: None,
        },
    )
    .expect("front-door service starts");
    let server = Server::start(
        service,
        &ServerConfig {
            // the cell measures latency under *admitted* load: the bucket
            // is sized far above the offered rate
            admission: TokenBucketConfig {
                rate_per_sec: 1_000_000,
                burst: 1_000_000,
                slots: 1024,
            },
            ..ServerConfig::default()
        },
    )
    .expect("front-door server starts");
    let addr = server.local_addr();
    let window_s = if smoke { 1.0 } else { 2.5 };
    let reads_per_conn = (window_s / FRONT_DOOR_READ_INTERVAL.as_secs_f64()) as usize;
    let ack_batches = (window_s / FRONT_DOOR_ACK_INTERVAL.as_secs_f64()) as usize;
    let cdf = Arc::new(zipf_cdf(FRONT_DOOR_TENANTS, FRONT_DOOR_ZIPF_S));

    let readers: Vec<_> = (0..FRONT_DOOR_READ_CONNS)
        .map(|conn| {
            let cdf = Arc::clone(&cdf);
            std::thread::Builder::new()
                .name(format!("front-door-reader-{conn}"))
                .spawn(move || front_door_reader(addr, SEED ^ (conn as u64), cdf, reads_per_conn))
                .expect("spawn front-door reader")
        })
        .collect();
    let acker = {
        let cdf = Arc::clone(&cdf);
        std::thread::Builder::new()
            .name("front-door-acker".into())
            .spawn(move || front_door_acker(addr, SEED ^ 0xacce5, cdf, ack_batches))
            .expect("spawn front-door acker")
    };

    let mut read_latencies: Vec<u64> = Vec::new();
    let mut protocol_errors = 0u64;
    let mut read_wall = Duration::ZERO;
    for handle in readers {
        let outcome = handle.join().expect("front-door reader joins");
        read_latencies.extend(outcome.latencies_ns);
        protocol_errors += outcome.errors;
        read_wall = read_wall.max(outcome.wall);
    }
    read_latencies.sort_unstable();
    let ack_outcome = acker.join().expect("front-door acker joins");
    protocol_errors += ack_outcome.errors;
    let mut ack_latencies = ack_outcome.latencies_ns;
    ack_latencies.sort_unstable();

    server
        .stop()
        .expect("front-door server stops")
        .shutdown()
        .expect("front-door service shutdown");

    FrontDoorRow {
        shards,
        read_connections: FRONT_DOOR_READ_CONNS,
        tenants: FRONT_DOOR_TENANTS,
        zipf_s: FRONT_DOOR_ZIPF_S,
        window_s,
        offered_reads_per_s: FRONT_DOOR_READ_CONNS as f64 / FRONT_DOOR_READ_INTERVAL.as_secs_f64(),
        achieved_reads_per_s: read_latencies.len() as f64 / read_wall.as_secs_f64().max(1e-9),
        read_p50_us: percentile_us(&read_latencies, 0.50),
        read_p99_us: percentile_us(&read_latencies, 0.99),
        read_p999_us: percentile_us(&read_latencies, 0.999),
        read_p999_slo_us: FRONT_DOOR_READ_P999_SLO_US,
        ack_batch_size: FRONT_DOOR_ACK_BATCH,
        offered_acks_per_s: 1.0 / FRONT_DOOR_ACK_INTERVAL.as_secs_f64(),
        achieved_acks_per_s: ack_latencies.len() as f64 / ack_outcome.wall.as_secs_f64().max(1e-9),
        ack_p50_us: percentile_us(&ack_latencies, 0.50),
        ack_p99_us: percentile_us(&ack_latencies, 0.99),
        ack_p999_us: percentile_us(&ack_latencies, 0.999),
        ack_p999_slo_us: FRONT_DOOR_ACK_P999_SLO_US,
        protocol_errors,
    }
}
