//! The five workloads: their shapes, their work counts, and their inputs,
//! every one of them a function of the seed alone.

use crate::stats::{derive_seed, Rng, Zipf};
use pref_assign::{ObjectRecord, Problem};
use pref_datagen::{
    uniform_weight_functions, update_stream, ObjectDistribution, UpdateStreamConfig,
};
use pref_engine::UpdateOp;
use pref_geom::Point;
use pref_rtree::RecordId;

/// Tenants the serving workloads spread their requests over.
pub const TENANTS: usize = 64;
/// Zipf skew of the tenant draw: the head tenant gets ~23 % of the requests.
pub const TENANT_SKEW: f64 = 1.1;
/// Updates per acknowledged batch.
pub const ACK_BATCH: usize = 4;
/// Record ids minted for acked inserts start here, far above any seed id.
pub const ACK_ID_BASE: u64 = 10_000_000;

// input streams of one workload; each gets its own derived seed
const STREAM_FUNCTIONS: u64 = 1;
const STREAM_OBJECTS: u64 = 2;
const STREAM_UPDATES: u64 = 3;
const STREAM_READS: u64 = 4;
const STREAM_ACKS: u64 = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Cold batch solves.
    Solve,
    /// A bare engine under an update stream.
    Churn,
    /// Reads over the socket, no writer.
    ServeRead,
    /// Durable acks over the socket.
    ServeAck,
}

/// Shape of one workload's problem(s).
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub distribution: ObjectDistribution,
    pub dims: usize,
    pub functions: usize,
    pub objects: usize,
    pub shards: usize,
}

pub const WORKLOADS: [&str; 5] = [
    "solve-anti",
    "solve-wide",
    "engine-churn",
    "serve-read",
    "serve-ack",
];

/// The shape of workload `name`; `smoke` shrinks it until the exact oracle
/// is affordable and every stage ends within about a second.
pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    use ObjectDistribution::{AntiCorrelated, Independent};
    let full = |name, kind, distribution, dims, functions, objects, shards| Spec {
        name,
        kind,
        distribution,
        dims,
        functions,
        objects,
        shards,
    };
    let spec = match (name, smoke) {
        ("solve-anti", false) => full(
            "solve-anti",
            Kind::Solve,
            AntiCorrelated,
            4,
            1000,
            20_000,
            1,
        ),
        ("solve-anti", true) => full("solve-anti", Kind::Solve, AntiCorrelated, 4, 60, 1200, 1),
        ("solve-wide", false) => full("solve-wide", Kind::Solve, Independent, 12, 200, 5000, 1),
        ("solve-wide", true) => full("solve-wide", Kind::Solve, Independent, 12, 30, 400, 1),
        ("engine-churn", false) => {
            full("engine-churn", Kind::Churn, AntiCorrelated, 4, 200, 4000, 1)
        }
        ("engine-churn", true) => full("engine-churn", Kind::Churn, AntiCorrelated, 4, 30, 400, 1),
        ("serve-read", false) => full("serve-read", Kind::ServeRead, Independent, 4, 200, 4000, 2),
        ("serve-read", true) => full("serve-read", Kind::ServeRead, Independent, 4, 30, 400, 2),
        // deliberately toy-sized at full scale too: engine apply must stay
        // near 10 µs so that WAL, fsync and hand-off dominate an ack
        ("serve-ack", _) => full("serve-ack", Kind::ServeAck, Independent, 3, 16, 120, 2),
        _ => return None,
    };
    Some(spec)
}

/// The shape the engine, service and net probes of a traced run use: the
/// workload's own when an engine over it builds in well under a second,
/// otherwise the `engine-churn` cut of the same distribution and
/// dimensionality.
pub fn serving_spec(spec: &Spec) -> Spec {
    Spec {
        functions: spec.functions.min(200),
        objects: spec.objects.min(4000),
        shards: 1,
        ..*spec
    }
}

/// Work counts of one run. Fixed operation counts, scaled by `--seconds`
/// from counts that take about ten seconds on the reference box: the same
/// `(workload, seed, seconds)` always does the same work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Timed solves (one untimed warm-up comes first; a disturbed run goes
    /// on to at most twice as many).
    pub solves: usize,
    /// Rounds of every latency workload.
    pub rounds: usize,
    /// Engine updates per round.
    pub updates_per_round: usize,
    /// Warm-up reads per connection.
    pub warmup_reads: usize,
    /// Reads per connection per round (`serve-read`).
    pub reads_per_round: usize,
    /// Acks per round (`serve-ack`).
    pub acks_per_round: usize,
    /// How often set-up is repeated for its median.
    pub setups: usize,
}

impl Budget {
    pub fn new(seconds: u64, smoke: bool) -> Self {
        if smoke {
            return Self {
                solves: 3,
                rounds: 3,
                updates_per_round: 100,
                warmup_reads: 200,
                reads_per_round: 2000,
                acks_per_round: 100,
                setups: 2,
            };
        }
        let scaled = |per_ten_seconds: usize, floor: usize| {
            (per_ten_seconds * seconds as usize / 10).max(floor)
        };
        Self {
            solves: scaled(9, 3),
            rounds: 10,
            updates_per_round: scaled(400, 100),
            warmup_reads: 20_000,
            reads_per_round: scaled(50_000, 2000),
            acks_per_round: scaled(1500, 100),
            setups: 5,
        }
    }

    /// The short passes with which a traced run fills in the layers its
    /// workload does not stress: long enough for a median, no longer.
    pub fn short(smoke: bool) -> Self {
        let pick = |full: usize, smoke_size: usize| if smoke { smoke_size } else { full };
        Self {
            solves: 2,
            rounds: 3,
            updates_per_round: pick(200, 40),
            warmup_reads: pick(500, 100),
            reads_per_round: pick(5000, 500),
            acks_per_round: pick(60, 20),
            setups: 1,
        }
    }

    /// A fraction of this budget, for the untraced and the traced pass of a
    /// traced run.
    pub fn shrunk(&self, divisor: usize) -> Self {
        Self {
            solves: (self.solves / divisor).max(2),
            rounds: self.rounds,
            updates_per_round: (self.updates_per_round / divisor).max(40),
            warmup_reads: (self.warmup_reads / divisor).max(200),
            reads_per_round: (self.reads_per_round / divisor).max(500),
            acks_per_round: (self.acks_per_round / divisor).max(40),
            setups: self.setups.min(2),
        }
    }
}

/// The problem of one shard of a workload.
pub fn problem(spec: &Spec, seed: u64, shard: usize) -> Problem {
    let lane = 16 * shard as u64;
    let functions = uniform_weight_functions(
        spec.functions,
        spec.dims,
        derive_seed(seed, STREAM_FUNCTIONS + lane),
    );
    let objects = spec.distribution.generate(
        spec.objects,
        spec.dims,
        derive_seed(seed, STREAM_OBJECTS + lane),
    );
    Problem::from_parts(functions, objects).expect("generated workloads are valid problems")
}

/// The update stream of `engine-churn` (and of the engine probes): arrivals
/// and departures in equal shares, four in five on the object side, both
/// populations floored at half their starting size.
pub fn churn_ops(spec: &Spec, problem: &Problem, seed: u64, events: usize) -> Vec<UpdateOp> {
    let live_objects: Vec<RecordId> = problem.objects().iter().map(|o| o.id).collect();
    let live_functions: Vec<u64> = problem.functions().iter().map(|f| f.id.0 as u64).collect();
    let config = UpdateStreamConfig {
        num_events: events,
        dims: spec.dims,
        distribution: spec.distribution,
        insert_fraction: 0.5,
        object_fraction: 0.8,
        min_objects: live_objects.len() / 2,
        min_functions: live_functions.len() / 2,
        max_capacity: 1,
        seed: derive_seed(seed, STREAM_UPDATES),
    };
    update_stream(&config, &live_objects, &live_functions)
        .iter()
        .map(UpdateOp::from_event)
        .collect()
}

/// One connection's reads: a Zipf-drawn tenant and a uniformly drawn seed
/// function per read.
pub fn read_plan(spec: &Spec, seed: u64, connection: usize, reads: usize) -> Vec<(u64, u64)> {
    let zipf = Zipf::new(TENANTS, TENANT_SKEW);
    let mut rng = Rng::new(derive_seed(seed, STREAM_READS + 16 * connection as u64));
    (0..reads)
        .map(|_| (zipf.sample(&mut rng), rng.below(spec.functions as u64)))
        .collect()
}

/// The write connection's acks: every even batch inserts [`ACK_BATCH`] fresh
/// objects on a Zipf-drawn tenant, the next removes exactly those, so every
/// update is valid and the populations end where they began.
pub fn ack_plan(spec: &Spec, seed: u64, acks: usize, id_base: u64) -> Vec<(u64, Vec<UpdateOp>)> {
    let zipf = Zipf::new(TENANTS, TENANT_SKEW);
    let mut rng = Rng::new(derive_seed(seed, STREAM_ACKS));
    let mut next_id = id_base;
    let mut plan: Vec<(u64, Vec<UpdateOp>)> = Vec::with_capacity(acks);
    while plan.len() < acks {
        let tenant = zipf.sample(&mut rng);
        let ids: Vec<u64> = (0..ACK_BATCH as u64).map(|i| next_id + i).collect();
        next_id += ACK_BATCH as u64;
        let inserts = ids
            .iter()
            .map(|&id| {
                let coords: Vec<f64> = (0..spec.dims).map(|_| rng.unit()).collect();
                UpdateOp::InsertObject(ObjectRecord::new(id, Point::from_slice(&coords)))
            })
            .collect();
        plan.push((tenant, inserts));
        if plan.len() < acks {
            let removes = ids
                .iter()
                .map(|&id| UpdateOp::RemoveObject(RecordId(id)))
                .collect();
            plan.push((tenant, removes));
        }
    }
    plan
}

/// A problem's populations as arrival updates: the input to the service's
/// bit-exact batch encoding, which stands in for a checkpoint's payload and
/// for "the bytes of a problem".
pub fn problem_ops(problem: &Problem) -> Vec<UpdateOp> {
    let functions = problem.functions().iter();
    let objects = problem.objects().iter();
    functions
        .map(|f| UpdateOp::InsertFunction(f.clone()))
        .chain(objects.map(|o| UpdateOp::InsertObject(o.clone())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pref_service::encode_batch;
    use pref_storage::fnv1a64;

    /// Every input a workload run consumes, as bytes (the service's own
    /// bit-exact batch encoding for problems and updates): equal seeds must
    /// give equal bytes.
    fn input_bytes(spec: &Spec, budget: &Budget, seed: u64) -> Vec<u8> {
        let mut out = Vec::new();
        let mut problems = Vec::new();
        for shard in 0..spec.shards {
            let problem = problem(spec, seed, shard);
            out.extend(encode_batch(&problem_ops(&problem)));
            problems.push(problem);
        }
        match spec.kind {
            Kind::Solve => {}
            Kind::Churn => {
                let events = budget.rounds * budget.updates_per_round;
                out.extend(encode_batch(&churn_ops(spec, &problems[0], seed, events)));
            }
            Kind::ServeRead | Kind::ServeAck => {
                let reads = budget.warmup_reads + budget.rounds * budget.reads_per_round;
                for connection in 0..2 {
                    for (tenant, function) in read_plan(spec, seed, connection, reads) {
                        out.extend(tenant.to_le_bytes());
                        out.extend(function.to_le_bytes());
                    }
                }
                if spec.kind == Kind::ServeAck {
                    let acks = budget.rounds * budget.acks_per_round;
                    for (tenant, batch) in ack_plan(spec, seed, acks, ACK_ID_BASE) {
                        out.extend(tenant.to_le_bytes());
                        out.extend(encode_batch(&batch));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn every_workload_is_a_function_of_the_seed_alone() {
        let budget = Budget::new(10, true);
        for name in WORKLOADS {
            let spec = spec(name, true).expect("catalogued workload");
            let a = input_bytes(&spec, &budget, 20090824);
            let b = input_bytes(&spec, &budget, 20090824);
            let c = input_bytes(&spec, &budget, 20090825);
            assert!(!a.is_empty(), "{name}");
            assert_eq!(a.len(), b.len(), "{name}: identical counts");
            assert_eq!(fnv1a64(&a), fnv1a64(&b), "{name}: identical bytes");
            assert_eq!(a, b, "{name}");
            assert_ne!(a, c, "{name}: another seed gives other inputs");
        }
        assert_eq!(Budget::new(10, false), Budget::new(10, false));
    }

    #[test]
    fn full_scale_shapes_match_the_catalogue() {
        let anti = spec("solve-anti", false).unwrap();
        assert_eq!((anti.dims, anti.functions, anti.objects), (4, 1000, 20_000));
        let wide = spec("solve-wide", false).unwrap();
        assert_eq!((wide.dims, wide.functions, wide.objects), (12, 200, 5000));
        assert!(spec("no-such-workload", false).is_none());
        // the probes' cut of a large workload is the churn shape
        let cut = serving_spec(&anti);
        assert_eq!((cut.functions, cut.objects, cut.shards), (200, 4000, 1));
    }

    #[test]
    fn ack_plans_undo_themselves() {
        let spec = spec("serve-ack", false).unwrap();
        let plan = ack_plan(&spec, 7, 10, ACK_ID_BASE);
        assert_eq!(plan.len(), 10);
        for pair in plan.chunks(2) {
            assert_eq!(pair[0].0, pair[1].0, "a remove follows its insert's tenant");
            let inserted: Vec<u64> = pair[0]
                .1
                .iter()
                .map(|op| match op {
                    UpdateOp::InsertObject(o) => o.id.0,
                    other => panic!("expected an insert, got {other:?}"),
                })
                .collect();
            let removed: Vec<u64> = pair[1]
                .1
                .iter()
                .map(|op| match op {
                    UpdateOp::RemoveObject(id) => id.0,
                    other => panic!("expected a remove, got {other:?}"),
                })
                .collect();
            assert_eq!(inserted, removed);
            assert_eq!(inserted.len(), ACK_BATCH);
        }
    }

    #[test]
    fn budgets_scale_with_seconds_and_never_vanish() {
        let ten = Budget::new(10, false);
        let twenty = Budget::new(20, false);
        assert_eq!(ten.solves, 9);
        assert_eq!(twenty.updates_per_round, 2 * ten.updates_per_round);
        assert_eq!(ten.rounds * ten.updates_per_round, 4000);
        let one = Budget::new(1, false);
        assert!(one.solves >= 3 && one.acks_per_round >= 100);
        let half = ten.shrunk(2);
        assert_eq!(half.rounds, ten.rounds);
        assert!(half.reads_per_round * 2 <= ten.reads_per_round);
    }
}
