//! The sharded front: routing, flush barriers and aggregated stats.

use crate::cell::SnapshotReader;
use crate::durability::{DurabilityConfig, FsyncPolicy, ShardDurability};
use crate::shard::{ShardHandle, ShardStats};
use crate::snapshot::AssignmentSnapshot;
use crate::{ServiceError, UpdateOp};
use pref_assign::Problem;
use pref_engine::{AssignmentEngine, EngineOptions};

/// A durable shard starts a new log segment, opened by a snapshot, every
/// this many logged batches, which bounds what recovery replays.
const CHECKPOINT_EVERY: u64 = 256;

/// Configuration of a [`ShardedService`] (applies to every shard).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bound of each shard's update queue, in queued updates. Producers
    /// block (backpressure) when a shard's queue is full.
    pub queue_capacity: usize,
    /// Engine options for every shard's engine.
    pub engine: EngineOptions,
    /// Per-shard durability (a WAL under a root directory).
    /// `None` (the default) serves purely in memory, exactly as before.
    pub durability: Option<DurabilityConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 1024,
            engine: EngineOptions::default(),
            durability: None,
        }
    }
}

impl ServiceConfig {
    fn validate(&self) -> Result<(), ServiceError> {
        if self.queue_capacity == 0 {
            return Err(ServiceError::InvalidConfig(
                "queue_capacity must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// Aggregated stats of the whole service plus the per-shard breakdown.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardStats>,
}

impl ServiceStats {
    /// Updates submitted across all shards.
    pub fn submitted(&self) -> u64 {
        self.shards.iter().map(|s| s.submitted).sum()
    }

    /// Updates processed (applied + rejected) across all shards.
    pub fn processed(&self) -> u64 {
        self.shards.iter().map(|s| s.processed).sum()
    }

    /// Updates rejected across all shards.
    pub fn rejected(&self) -> u64 {
        self.shards.iter().map(|s| s.rejected).sum()
    }

    /// Live objects across all shards (as of the published snapshots).
    pub fn live_objects(&self) -> u64 {
        self.shards.iter().map(|s| s.engine.live_objects).sum()
    }

    /// Live functions across all shards (as of the published snapshots).
    pub fn live_functions(&self) -> u64 {
        self.shards.iter().map(|s| s.engine.live_functions).sum()
    }

    /// Sum of the published snapshot versions (a coarse progress measure).
    pub fn published_versions(&self) -> u64 {
        self.shards.iter().map(|s| s.published_version).sum()
    }
}

/// The serving front: `N` independent shards, each a single-writer engine
/// with its own queue and snapshot publication.
///
/// Routing is by **shard key**: any `u64` tenant / partition key the caller
/// chooses, mapped onto a shard with [`ShardedService::shard_of_key`].
/// There are no cross-shard transactions and no cross-shard reads — the
/// consistency unit is one shard (read-your-shard after
/// [`ShardedService::flush`]).
#[derive(Debug)]
pub struct ShardedService {
    shards: Vec<ShardHandle>,
}

impl ShardedService {
    /// Starts one shard per initial [`Problem`]: builds each engine,
    /// publishes its version-1 snapshot and spawns its writer thread. A
    /// durable service starts on an empty root: one that holds any
    /// `shard-<i>` directory is refused with [`ServiceError::Durability`]
    /// (recover from it instead, or pick another root).
    pub fn start(problems: Vec<Problem>, config: &ServiceConfig) -> Result<Self, ServiceError> {
        config.validate()?;
        if problems.is_empty() {
            return Err(ServiceError::InvalidConfig(
                "a service needs at least one shard".into(),
            ));
        }
        if let Some(durability) = &config.durability {
            if let Some((_, used)) = durability.existing_shard_dirs()?.first() {
                return Err(ServiceError::Durability(format!(
                    "{} holds {} of an earlier run: recover from it or start on an empty root",
                    durability.dir.display(),
                    used.display()
                )));
            }
        }
        let mut shards = Vec::with_capacity(problems.len());
        for (i, problem) in problems.iter().enumerate() {
            let engine = AssignmentEngine::new(problem, &config.engine)?;
            let log = match &config.durability {
                Some(durability) => {
                    let initial = engine.export_snapshot();
                    Some(ShardDurability::create(
                        &durability.shard_dir(i),
                        FsyncPolicy::Always,
                        CHECKPOINT_EVERY,
                        &initial.functions,
                        &initial.objects,
                    )?)
                }
                None => None,
            };
            shards.push(ShardHandle::spawn(
                engine,
                log,
                config.queue_capacity,
                i,
                None,
            )?);
        }
        Ok(Self { shards })
    }

    /// Recovers a durable service from `config.durability.dir`: rediscovers
    /// the `shard-<i>` subdirectories, restores each shard from its newest
    /// readable snapshot plus the batches after it, and resumes serving. The recovered
    /// state of every shard equals its pre-crash state at some batch
    /// boundary at or after the last acknowledged flush — never a torn
    /// batch. Versions restart at 1 (readers re-pin on the new cells).
    pub fn recover(config: &ServiceConfig) -> Result<Self, ServiceError> {
        config.validate()?;
        let Some(durability) = &config.durability else {
            return Err(ServiceError::InvalidConfig(
                "recover needs a durability config".into(),
            ));
        };
        let dirs = durability.existing_shard_dirs()?;
        if dirs.is_empty() {
            return Err(ServiceError::Durability(format!(
                "no shard-<i> directories under {}",
                durability.dir.display()
            )));
        }
        for (want, &(found, _)) in dirs.iter().enumerate() {
            if found != want as u64 {
                return Err(ServiceError::Durability(format!(
                    "shard directories under {} are not consecutive: expected shard-{want}, found shard-{found}",
                    durability.dir.display()
                )));
            }
        }
        let mut shards = Vec::with_capacity(dirs.len());
        for (i, (_, dir)) in dirs.iter().enumerate() {
            let (engine, log) =
                ShardDurability::recover(dir, CHECKPOINT_EVERY)?.replay(&config.engine)?;
            shards.push(ShardHandle::spawn(
                engine,
                Some(log),
                config.queue_capacity,
                i,
                None,
            )?);
        }
        Ok(Self { shards })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Maps a tenant / shard key onto a shard index.
    pub fn shard_of_key(&self, key: u64) -> usize {
        // splitmix-style finalizer: adjacent tenant keys spread uniformly
        let mut x = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        // widening-multiply range reduction (Lemire): maps the full 64-bit
        // hash onto [0, n) using the *high* bits. The previous `x % n`
        // reduction used only the low bits' residue and carries the classic
        // modulo bias for non-power-of-two shard counts; the multiply is
        // also division-free on the routing hot path.
        ((x as u128 * self.shards.len() as u128) >> 64) as usize
    }

    /// The shard handle at `shard` (e.g. for per-shard readers or stats).
    pub fn shard(&self, shard: usize) -> Result<&ShardHandle, ServiceError> {
        self.shards
            .get(shard)
            .ok_or(ServiceError::UnknownShard(shard))
    }

    /// Submits one update to a shard (blocking on that shard's backpressure).
    pub fn submit(&self, shard: usize, op: UpdateOp) -> Result<(), ServiceError> {
        self.shard(shard)?.submit(op)
    }

    /// Submits a batch to a shard; the batch becomes visible atomically in
    /// one published snapshot.
    pub fn submit_batch(&self, shard: usize, batch: Vec<UpdateOp>) -> Result<(), ServiceError> {
        self.shard(shard)?.submit_batch(batch)
    }

    /// Non-blocking [`ShardedService::submit_batch`]: fails with
    /// [`ServiceError::Overloaded`] instead of parking the caller when the
    /// shard's queue is at capacity (the admission-control entry point).
    pub fn try_submit_batch(&self, shard: usize, batch: Vec<UpdateOp>) -> Result<(), ServiceError> {
        self.shard(shard)?.try_submit_batch(batch)
    }

    /// Blocks until every update submitted (to any shard) before the call
    /// has been applied and published.
    pub fn flush(&self) -> Result<(), ServiceError> {
        for shard in &self.shards {
            shard.flush()?;
        }
        Ok(())
    }

    /// Blocks until one shard has published everything submitted to it.
    pub fn flush_shard(&self, shard: usize) -> Result<(), ServiceError> {
        self.shard(shard)?.flush()
    }

    /// A reader handle spanning every shard (one pinned snapshot per shard).
    pub fn reader(&self) -> ServiceReader {
        ServiceReader {
            readers: self.shards.iter().map(|s| s.reader()).collect(),
        }
    }

    /// Aggregated + per-shard stats as of the latest published snapshots.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            shards: self.shards.iter().map(|s| s.stats()).collect(),
        }
    }

    /// Stops the service: closes every queue, lets the writers drain and
    /// publish their in-flight batches, and joins them. Propagates a writer
    /// panic as [`ServiceError::WriterCrashed`].
    pub fn shutdown(mut self) -> Result<(), ServiceError> {
        for shard in &self.shards {
            shard.close();
        }
        let mut result = Ok(());
        for shard in &mut self.shards {
            if let Err(e) = shard.join() {
                result = Err(e);
            }
        }
        result
    }
}

/// A reader over every shard of a service.
///
/// Each reader thread owns one `ServiceReader`; per shard it behaves exactly
/// like a [`SnapshotReader`] — lock-free revalidation, strictly monotonic
/// versions.
#[derive(Debug)]
pub struct ServiceReader {
    readers: Vec<SnapshotReader>,
}

impl ServiceReader {
    /// Number of shards this reader spans.
    pub fn num_shards(&self) -> usize {
        self.readers.len()
    }

    /// The freshest snapshot of one shard (see [`SnapshotReader::snapshot`]).
    pub fn snapshot(&mut self, shard: usize) -> Result<&AssignmentSnapshot, ServiceError> {
        match self.readers.get_mut(shard) {
            Some(reader) => Ok(reader.snapshot()),
            None => Err(ServiceError::UnknownShard(shard)),
        }
    }

    /// The currently pinned snapshot of one shard, without revalidation.
    pub fn pinned(&self, shard: usize) -> Result<&AssignmentSnapshot, ServiceError> {
        match self.readers.get(shard) {
            Some(reader) => Ok(reader.pinned()),
            None => Err(ServiceError::UnknownShard(shard)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pref_assign::{FunctionId, ObjectRecord};
    use pref_geom::Point;
    use pref_rtree::RecordId;

    fn problem(seed: usize) -> Problem {
        let functions = pref_datagen::uniform_weight_functions(4, 2, seed as u64);
        let objects = pref_datagen::independent_objects(20, 2, seed as u64 + 100);
        Problem::from_parts(functions, objects).unwrap()
    }

    #[test]
    fn two_shards_are_independent_problems() {
        let service =
            ShardedService::start(vec![problem(1), problem(2)], &ServiceConfig::default()).unwrap();
        assert_eq!(service.num_shards(), 2);
        let mut reader = service.reader();
        assert_eq!(reader.num_shards(), 2);

        // an update to shard 1 never shows on shard 0
        let v0 = reader.snapshot(0).unwrap().version();
        service
            .submit(
                1,
                UpdateOp::InsertObject(ObjectRecord::new(999, Point::from_slice(&[0.9, 0.9]))),
            )
            .unwrap();
        service.flush_shard(1).unwrap();
        assert!(reader.snapshot(1).unwrap().version() > 1);
        assert!(reader
            .snapshot(1)
            .unwrap()
            .objects()
            .iter()
            .any(|o| o.id == RecordId(999)));
        assert_eq!(reader.snapshot(0).unwrap().version(), v0);
        assert!(!reader
            .snapshot(0)
            .unwrap()
            .objects()
            .iter()
            .any(|o| o.id == RecordId(999)));
        service.shutdown().unwrap();
    }

    #[test]
    fn shard_keys_route_deterministically_and_cover_all_shards() {
        let service = ShardedService::start(
            vec![problem(1), problem(2), problem(3)],
            &ServiceConfig::default(),
        )
        .unwrap();
        let mut hit = vec![false; service.num_shards()];
        for key in 0..64u64 {
            let shard = service.shard_of_key(key);
            assert_eq!(shard, service.shard_of_key(key), "routing must be stable");
            assert!(shard < service.num_shards());
            hit[shard] = true;
        }
        assert!(hit.iter().all(|&h| h), "64 keys should cover 3 shards");
        service.shutdown().unwrap();
    }

    #[test]
    fn shard_routing_is_uniform_for_non_power_of_two_shard_counts() {
        // pins the widening-multiply range reduction: for shards ∈ {3, 5, 7}
        // (all non-powers-of-two, where a naive modulo reduction is biased),
        // sequential AND strided tenant keys must land within a tight band
        // around the uniform per-shard share
        for num_shards in [3usize, 5, 7] {
            let problems: Vec<Problem> = (0..num_shards).map(problem).collect();
            let service = ShardedService::start(problems, &ServiceConfig::default()).unwrap();
            for (label, stride) in [("sequential", 1u64), ("strided", 0x9e37_79b9)] {
                const KEYS: u64 = 30_000;
                let mut counts = vec![0u64; num_shards];
                for i in 0..KEYS {
                    counts[service.shard_of_key(i.wrapping_mul(stride))] += 1;
                }
                let expect = KEYS as f64 / num_shards as f64;
                for (shard, &count) in counts.iter().enumerate() {
                    let spread = (count as f64 - expect).abs() / expect;
                    assert!(
                        spread < 0.05,
                        "{label} keys over {num_shards} shards: shard {shard} got {count} \
                         of {KEYS} ({:.1}% off the uniform share)",
                        spread * 100.0
                    );
                }
            }
            service.shutdown().unwrap();
        }
    }

    #[test]
    fn try_submit_rejects_with_overloaded_when_the_queue_is_full() {
        let service = ShardedService::start(
            vec![problem(1)],
            &ServiceConfig {
                queue_capacity: 2,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        // wedge the writer behind a storm of batches until a try_submit
        // bounces; the blocking path would park here, the try path must not
        let mut saw_overloaded = false;
        for _ in 0..10_000 {
            match service.try_submit_batch(0, vec![UpdateOp::RemoveObject(RecordId(999))]) {
                Ok(()) => {}
                Err(ServiceError::Overloaded) => {
                    saw_overloaded = true;
                    break;
                }
                Err(e) => panic!("only Overloaded is a legal try_submit rejection, got {e}"),
            }
        }
        assert!(
            saw_overloaded,
            "10k instant submissions against a capacity-2 queue never bounced"
        );
        // the reject is non-destructive: the shard keeps serving
        service.flush().unwrap();
        service
            .submit(0, UpdateOp::RemoveFunction(FunctionId(0)))
            .unwrap();
        service.flush().unwrap();
        service.shutdown().unwrap();
    }

    #[test]
    fn aggregate_stats_sum_over_shards() {
        let service =
            ShardedService::start(vec![problem(1), problem(2)], &ServiceConfig::default()).unwrap();
        service
            .submit(0, UpdateOp::RemoveFunction(FunctionId(0)))
            .unwrap();
        service
            .submit(1, UpdateOp::RemoveFunction(FunctionId(1)))
            .unwrap();
        service
            .submit(1, UpdateOp::RemoveFunction(FunctionId(777))) // rejected
            .unwrap();
        service.flush().unwrap();
        let stats = service.stats();
        assert_eq!(stats.shards.len(), 2);
        assert_eq!(stats.submitted(), 3);
        assert_eq!(stats.processed(), 3);
        assert_eq!(stats.rejected(), 1);
        assert_eq!(stats.live_functions(), 3 + 3);
        assert_eq!(stats.live_objects(), 40);
        assert!(stats.published_versions() >= 2 + 2);
        service.shutdown().unwrap();
    }

    #[test]
    fn invalid_configs_and_shards_are_rejected() {
        assert!(matches!(
            ShardedService::start(vec![], &ServiceConfig::default()),
            Err(ServiceError::InvalidConfig(_))
        ));
        assert!(matches!(
            ShardedService::start(
                vec![problem(1)],
                &ServiceConfig {
                    queue_capacity: 0,
                    ..ServiceConfig::default()
                }
            ),
            Err(ServiceError::InvalidConfig(_))
        ));
        let service = ShardedService::start(vec![problem(1)], &ServiceConfig::default()).unwrap();
        assert_eq!(
            service.submit(5, UpdateOp::RemoveObject(RecordId(0))),
            Err(ServiceError::UnknownShard(5))
        );
        assert!(matches!(
            service.reader().pinned(9),
            Err(ServiceError::UnknownShard(9))
        ));
        service.shutdown().unwrap();
    }
}
