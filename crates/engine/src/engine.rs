//! The incremental engine: state, update operations and the repair loop.

use pref_assign::{
    sb_with_skyline, Assignment, AssignmentView, FunctionId, ObjectRecord, PreferenceFunction,
    Problem, SbOptions,
};
use pref_datagen::UpdateEvent;
use pref_geom::{kernel, LinearFunction, Point, SoaBlock};
use pref_rtree::{DataEntry, NodeEntry, RTree, RecordId};
use pref_skyline::{insert_skyline, update_skyline_filtered, Skyline};
use pref_storage::IoStats;
use std::cmp::Ordering;
use std::collections::{HashMap, VecDeque};

/// LRU buffer size as a fraction of the built tree (the paper's 2 %).
const BUFFER_FRACTION: f64 = 0.02;
/// Compaction runs once more than this fraction of the R-tree's records are
/// tombstoned departures, and leaves the ratio at or below it.
const COMPACTION_THRESHOLD: f64 = 0.25;
/// Most tombstones one compaction batch physically deletes.
const COMPACTION_BATCH: usize = 64;

/// Configuration of an [`AssignmentEngine`].
#[derive(Debug, Clone, Default)]
pub struct EngineOptions {
    /// Ignored beyond validation (`Some(0)` is refused): the SB solve that
    /// [`AssignmentEngine::new`] adopts and every repair after it run on the
    /// calling thread. The field stays only because the benchmark package
    /// still sets it.
    pub threads: Option<usize>,
}

impl EngineOptions {
    /// Validates the options, returning a description of the first problem.
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.threads == Some(0) {
            return Err(EngineError::InvalidOptions(
                "threads must be at least 1 when set".into(),
            ));
        }
        Ok(())
    }
}

/// Errors raised by the engine's update operations.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The arriving object / function does not match the engine's
    /// dimensionality.
    DimensionMismatch {
        /// The engine's dimensionality.
        expected: usize,
        /// The arrival's dimensionality.
        got: usize,
    },
    /// The record id is already registered — alive, or departed but not yet
    /// compacted away. (Rejection of departed ids is best-effort: once
    /// compaction physically deletes a tombstone, its id is forgotten and a
    /// later arrival may legitimately re-use it — the engine purges any
    /// stale pruned-list entry of the predecessor at insertion, so re-use is
    /// safe. `pref_datagen::update_stream` still never re-issues ids.)
    DuplicateObject(RecordId),
    /// The function id is already registered — alive, or departed but its
    /// slot not yet reused (the same best-effort caveat as
    /// [`EngineError::DuplicateObject`] applies).
    DuplicateFunction(FunctionId),
    /// No live object carries this id.
    UnknownObject(RecordId),
    /// No live function carries this id.
    UnknownFunction(FunctionId),
    /// The arriving object carries capacity 0 (capacities are ≥ 1).
    ZeroCapacityObject(RecordId),
    /// The arriving function carries capacity 0 (capacities are ≥ 1).
    ZeroCapacityFunction(FunctionId),
    /// The arriving object has a NaN or infinite coordinate, which
    /// [`pref_geom::Point::from_slice`] lets through.
    NonFiniteObject(RecordId),
    /// The live population is empty, so no problem snapshot exists.
    EmptyProblem,
    /// The [`EngineOptions`] are invalid (message describes the problem).
    InvalidOptions(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            EngineError::DuplicateObject(id) => write!(f, "duplicate object id {id}"),
            EngineError::DuplicateFunction(id) => write!(f, "duplicate function id {id}"),
            EngineError::UnknownObject(id) => write!(f, "unknown object id {id}"),
            EngineError::UnknownFunction(id) => write!(f, "unknown function id {id}"),
            EngineError::ZeroCapacityObject(id) => write!(f, "object {id} has capacity 0"),
            EngineError::ZeroCapacityFunction(id) => write!(f, "function {id} has capacity 0"),
            EngineError::NonFiniteObject(id) => {
                write!(f, "object {id} has a non-finite coordinate")
            }
            EngineError::EmptyProblem => write!(f, "the live population is empty"),
            EngineError::InvalidOptions(msg) => write!(f, "invalid engine options: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Counters of the engine's lifetime (cumulative) plus a snapshot of its
/// live state (gauges; the tombstone and index ones are filled in by
/// [`AssignmentEngine::stats`]), so the tombstone ratio driving the
/// compaction trigger is observable.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineStats {
    /// Updates applied (all four kinds).
    pub updates: u64,
    /// Object arrivals.
    pub object_inserts: u64,
    /// Object departures.
    pub object_removes: u64,
    /// Function arrivals.
    pub function_inserts: u64,
    /// Function departures.
    pub function_removes: u64,
    /// Pairs established, including the initial stabilization.
    pub pairs_established: u64,
    /// Pairs retracted by departures and repairs.
    pub pairs_retracted: u64,
    /// Repair-loop iterations executed (one per established pair).
    pub repair_rounds: u64,
    /// `(function, object)` scores computed by the repair loop's candidate
    /// search — the unit of its cost model. An update that dirties nothing
    /// adds zero.
    pub candidates_scored: u64,
    /// Compaction batches executed.
    pub compaction_batches: u64,
    /// Tombstoned records physically deleted from the R-tree by compaction.
    pub physical_deletes: u64,
    /// Gauge: objects currently alive.
    pub live_objects: u64,
    /// Gauge: functions currently alive.
    pub live_functions: u64,
    /// Gauge: departed objects still resident in the R-tree as tombstones.
    pub tombstoned_objects: u64,
    /// Gauge: records currently indexed by the R-tree (live + tombstoned).
    pub tree_records: u64,
    /// Gauge: R-tree nodes (= live pages of the simulated store).
    pub tree_pages: u64,
}

impl EngineStats {
    /// The fraction of R-tree records that are tombstoned departures; the
    /// compaction trigger fires when this exceeds 25 %.
    pub fn tombstone_ratio(&self) -> f64 {
        if self.tree_records == 0 {
            0.0
        } else {
            self.tombstoned_objects as f64 / self.tree_records as f64
        }
    }
}

/// One update operation against an engine, with the records fully
/// constructed (capacities included).
///
/// This is THE conversion point from [`UpdateEvent`] stream events to engine
/// updates — [`AssignmentEngine::apply`] and the serving tier's submission
/// path both go through it, so the two can never drift on how an event maps
/// to records.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateOp {
    /// A new object (with its capacity) arrives.
    InsertObject(ObjectRecord),
    /// A live object departs.
    RemoveObject(RecordId),
    /// A new preference function (user, with its capacity) arrives.
    InsertFunction(PreferenceFunction),
    /// A live preference function departs.
    RemoveFunction(FunctionId),
}

impl UpdateOp {
    /// Converts a datagen stream event into an applicable op.
    pub fn from_event(event: &UpdateEvent) -> Self {
        match event {
            UpdateEvent::InsertObject {
                id,
                point,
                capacity,
            } => UpdateOp::InsertObject(
                ObjectRecord::new(id.0, point.clone()).with_capacity(*capacity),
            ),
            UpdateEvent::RemoveObject { id } => UpdateOp::RemoveObject(*id),
            UpdateEvent::InsertFunction {
                id,
                function,
                capacity,
            } => UpdateOp::InsertFunction(
                PreferenceFunction::new(*id as usize, function.clone()).with_capacity(*capacity),
            ),
            UpdateEvent::RemoveFunction { id } => {
                UpdateOp::RemoveFunction(FunctionId(*id as usize))
            }
        }
    }

    /// Applies the op to an engine.
    pub fn apply(&self, engine: &mut AssignmentEngine) -> Result<(), EngineError> {
        match self {
            UpdateOp::InsertObject(object) => engine.insert_object(object.clone()),
            UpdateOp::RemoveObject(id) => engine.remove_object(*id),
            UpdateOp::InsertFunction(function) => engine.insert_function(function.clone()),
            UpdateOp::RemoveFunction(id) => engine.remove_function(*id),
        }
    }
}

/// A coherent export of the engine's live state, taken between updates — the
/// publish hook of the serving tier. One call walks the dense slabs once and
/// returns everything a published snapshot needs: the live populations (full
/// records, so the snapshot can rebuild the [`Problem`] for verification or a
/// restart), the current matching as id-level pairs, and the stats gauges at
/// export time.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    /// The live preference functions (arrival order of their dense slots).
    pub functions: Vec<PreferenceFunction>,
    /// The live objects (arrival order of their dense slots).
    pub objects: Vec<ObjectRecord>,
    /// The stable matching as `(function, object, score)` triples.
    pub pairs: Vec<(FunctionId, RecordId, f64)>,
    /// Engine stats (lifetime counters + gauges) at export time.
    pub stats: EngineStats,
}

impl EngineSnapshot {
    /// The export as a [`Problem`] (full capacities), e.g. for stability
    /// verification or an engine restart. `None` when a population is empty.
    pub fn to_problem(&self) -> Option<Problem> {
        Problem::new(self.functions.clone(), self.objects.clone()).ok()
    }

    /// The export's matching as a compact, allocation-free-queryable
    /// [`AssignmentView`] over the live populations.
    #[expect(
        clippy::expect_used,
        reason = "internal invariant: pairs only ever hold live, unique ids"
    )]
    pub fn view(&self) -> AssignmentView {
        AssignmentView::from_pairs(
            self.functions.iter().map(|f| f.id).collect(),
            self.objects.iter().map(|o| o.id).collect(),
            &self.pairs,
        )
        .expect("engine pairs reference live ids and live ids are unique")
    }
}

/// Dense per-object state.
#[derive(Debug, Clone)]
struct ObjState {
    record: ObjectRecord,
    remaining: u32,
    alive: bool,
}

/// Dense per-function state.
#[derive(Debug, Clone)]
struct FunState {
    pref: PreferenceFunction,
    remaining: u32,
    alive: bool,
}

/// Stores `state` in a reclaimed slot of `slab` if `free` has one, else
/// appends it; returns its dense index.
fn place<T>(slab: &mut Vec<T>, free: &mut Vec<usize>, state: T) -> usize {
    match free.pop() {
        Some(slot) => {
            slab[slot] = state;
            slot
        }
        None => {
            slab.push(state);
            slab.len() - 1
        }
    }
}

/// How the repair loop acquires the object slot of a new pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotKind {
    /// The object has free capacity (it is on the free-pool skyline).
    Free,
    /// The object is saturated: its worst-scoring pair is displaced.
    Steal,
}

/// One candidate repair step.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    fi: usize,
    oi: usize,
    score: f64,
    kind: SlotKind,
}

impl Candidate {
    /// Deterministic preference: higher score, then filling a free slot over
    /// displacing a pair, then lowest function / object index — mirroring the
    /// oracle's greedy consumption order. Two distinct candidates never tie
    /// (their `(fi, oi, kind)` differ), so this is a strict total order and
    /// the best of a candidate set does not depend on the order it is
    /// scanned in.
    fn beats(&self, other: &Candidate) -> bool {
        if self.score != other.score {
            return self.score > other.score;
        }
        if self.kind != other.kind {
            return self.kind == SlotKind::Free;
        }
        (self.fi, self.oi) < (other.fi, other.oi)
    }

    /// Folds a candidate into a running best.
    fn offer(best: &mut Option<Candidate>, fi: usize, oi: usize, score: f64, kind: SlotKind) {
        let cand = Candidate {
            fi,
            oi,
            score,
            kind,
        };
        if best.as_ref().is_none_or(|b| cand.beats(b)) {
            *best = Some(cand);
        }
    }
}

/// Reusable buffers of the repair loop's candidate search, refilled every
/// round (thresholds and the saturated set change with each established
/// pair) without reallocating.
#[derive(Debug, Default)]
struct RepairScratch {
    /// Per-function admission threshold, dense by function index: `-inf`
    /// with spare capacity, otherwise the function's worst pair score
    /// (`+inf` for dead slots, which admit nothing).
    f_threshold: Vec<f64>,
    /// `(dense object index, worst pair score)` of the saturated objects —
    /// the displacement targets — in ascending object order.
    steal: Vec<(usize, f64)>,
    /// Columnar mirror of the `steal` rows' points, rebuilt every repair and
    /// only ever scored ([`SoaBlock::for_scoring`]).
    steal_block: SoaBlock,
    /// Score lane.
    scores: Vec<f64>,
}

impl RepairScratch {
    /// Refills the thresholds and the displacement targets from the current
    /// pairs.
    fn prepare(
        &mut self,
        functions: &[FunState],
        objects: &[ObjState],
        pairs: &[(usize, usize, f64)],
    ) {
        self.f_threshold.clear();
        self.f_threshold.extend(functions.iter().map(|f| {
            if f.alive && f.remaining > 0 {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            }
        }));
        self.steal.clear();
        for &(fi, oi, score) in pairs {
            if self.f_threshold[fi] > score {
                self.f_threshold[fi] = score;
            }
            // an object with free capacity is covered by the skyline path
            // without displacing anyone
            if objects[oi].remaining == 0 {
                self.steal.push((oi, score));
            }
        }
        self.steal
            .sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        self.steal.dedup_by_key(|&mut (oi, _)| oi);
        self.steal_block.clear();
        for &(oi, _) in &self.steal {
            self.steal_block.push_point(&objects[oi].record.point);
        }
    }

    /// Scans one function's admissible candidates — free skyline slots, then
    /// saturated displacement targets — folding the best into `best`. The
    /// repair search and the debug-build post-condition share it, so they
    /// cannot drift. Free slots are scored straight off the skyline's own
    /// columnar block; a row's record is resolved to its dense index only
    /// when its score reaches the running maximum.
    fn scan_function(
        &mut self,
        fi: usize,
        function: &LinearFunction,
        skyline: &Skyline,
        obj_index: &HashMap<RecordId, usize>,
        best: &mut Option<Candidate>,
    ) {
        let threshold = self.f_threshold[fi];
        let weights = function.effective_weights();
        // free slots: the free pool's maxima are on the skyline
        kernel::score_block(weights, skyline.block(), &mut self.scores);
        for (row, &score) in self.scores.iter().enumerate() {
            if score <= threshold || best.as_ref().is_some_and(|b| score < b.score) {
                continue;
            }
            // every skyline record is registered
            let oi = obj_index[&skyline.record_at(row)];
            Candidate::offer(best, fi, oi, score, SlotKind::Free);
        }
        // saturated slots: displace an object's worst pair
        kernel::score_block(weights, &self.steal_block, &mut self.scores);
        for (&(oi, worst), &score) in self.steal.iter().zip(self.scores.iter()) {
            if score > threshold && score > worst {
                Candidate::offer(best, fi, oi, score, SlotKind::Steal);
            }
        }
    }
}

/// A long-lived stable-assignment engine.
///
/// Owns the live problem state (functions, objects, capacities), the object
/// R-tree, the maintained skyline of the **free pool** (live objects with
/// unassigned capacity), and the current stable matching. All four update
/// operations re-stabilize incrementally; [`AssignmentEngine::assignment`]
/// always returns a matching that is stable for the current snapshot.
///
/// # Index maintenance strategy
///
/// Arrivals are inserted into the R-tree dynamically
/// ([`RTree::insert_tracked`]); the node splits this causes are patched into
/// the skyline's pruned lists, which keeps the `UpdateSkyline` machinery
/// I/O-optimal and correct across arrivals.
///
/// Departures are *logical* first (tombstoned — zero I/O; departed records
/// are filtered out of the maintenance stream) and *physical* eventually:
/// when more than 25 % of the tree's records are tombstones, the departure
/// that crossed the bar runs incremental compaction inline — tombstones are
/// physically deleted 64 per batch
/// ([`RTree::delete_tracked`]), every structural effect of CondenseTree
/// (freed pages, re-inserted orphans, re-insertion splits, MBR shrinks) is
/// patched into the pruned lists (`Skyline::patch_page_delete`), freed pages
/// are invalidated in the LRU buffer by the paged store, the buffer is
/// re-sized to the shrunken tree, and the records' dense slab slots are
/// reclaimed for future arrivals. The matching is never re-solved:
/// compaction only touches the index and the bookkeeping, so the R-tree node
/// count, the pruned lists and the slabs all stay within a constant factor
/// of the live population under indefinite churn.
#[derive(Debug)]
pub struct AssignmentEngine {
    dims: usize,
    objects: Vec<ObjState>,
    obj_index: HashMap<RecordId, usize>,
    functions: Vec<FunState>,
    fun_index: HashMap<FunctionId, usize>,
    tree: RTree,
    skyline: Skyline,
    /// Current matching as `(dense function index, dense object index, score)`.
    pairs: Vec<(usize, usize, f64)>,
    stats: EngineStats,
    /// Tree I/O at the end of the initial stabilization.
    initial_io: IoStats,
    /// Dense indices of departed objects still resident in the R-tree,
    /// oldest departure first (compaction consumes from the front).
    tombstones: VecDeque<usize>,
    /// Dense object slots reclaimed by compaction, reused by arrivals.
    free_obj_slots: Vec<usize>,
    /// Dense function slots of departed functions, reused by arrivals.
    free_fun_slots: Vec<usize>,
    /// Functions whose admission threshold may have dropped during the
    /// current update, and objects that entered the skyline during it (dense
    /// indices, deduplicated per round; both empty between updates) — see
    /// [`AssignmentEngine::restabilize`].
    dirty_f: Vec<usize>,
    dirty_o: Vec<usize>,
    /// Reusable per-round search buffers.
    repair: RepairScratch,
    /// The largest object id ever put into the R-tree (`None` before the
    /// first). A pruned list can only hold ids that were once in the tree,
    /// so an arrival above it cannot be a re-issued id.
    max_indexed: Option<RecordId>,
}

impl AssignmentEngine {
    /// Builds the engine from an initial problem: bulk-loads the R-tree, runs
    /// **one SB solve** on it and adopts the solver's end state — its
    /// matching, and its skyline of the unexhausted objects, which *is* the
    /// free-pool skyline (pruned lists included) that later updates patch.
    /// Index construction is not charged I/O (as in the batch experiments);
    /// the solve is, and [`AssignmentEngine::update_object_io`] leaves it out.
    pub fn new(problem: &Problem, options: &EngineOptions) -> Result<Self, EngineError> {
        options.validate()?;
        let mut tree = problem.build_tree(None, BUFFER_FRACTION);
        let (solved, skyline) = sb_with_skyline(problem, &mut tree, &SbOptions::default());
        let initial_io = tree.stats();
        // slab order = problem table order
        let mut objects: Vec<ObjState> = problem
            .objects()
            .iter()
            .map(|o| ObjState {
                record: o.clone(),
                remaining: o.capacity,
                alive: true,
            })
            .collect();
        let obj_index: HashMap<RecordId, usize> = objects
            .iter()
            .enumerate()
            .map(|(i, o)| (o.record.id, i))
            .collect();
        let mut functions: Vec<FunState> = problem
            .functions()
            .iter()
            .map(|f| FunState {
                pref: f.clone(),
                remaining: f.capacity,
                alive: true,
            })
            .collect();
        let fun_index: HashMap<FunctionId, usize> = functions
            .iter()
            .enumerate()
            .map(|(i, f)| (f.pref.id, i))
            .collect();
        let mut pairs = Vec::with_capacity(solved.assignment.len());
        for pair in solved.assignment.pairs() {
            let (fi, oi) = (fun_index[&pair.function], obj_index[&pair.object]);
            functions[fi].remaining -= 1;
            objects[oi].remaining -= 1;
            pairs.push((fi, oi, pair.score));
        }
        // The order the greedy trace establishes pairs in from an empty
        // matching (it never displaces there): `worst_pair_index` breaks
        // score ties by position, so the order is part of the state.
        pairs.sort_unstable_by(|a, b| {
            b.2.partial_cmp(&a.2)
                .unwrap_or(Ordering::Equal)
                .then_with(|| (a.0, a.1).cmp(&(b.0, b.1)))
        });
        let established = pairs.len() as u64;
        let max_indexed = objects.iter().map(|o| o.record.id).max();
        Ok(Self {
            dims: problem.dims(),
            stats: EngineStats {
                // what the round-by-round build from empty would have counted
                pairs_established: established,
                repair_rounds: established,
                live_objects: objects.len() as u64,
                live_functions: functions.len() as u64,
                ..EngineStats::default()
            },
            objects,
            obj_index,
            functions,
            fun_index,
            tree,
            skyline,
            pairs,
            initial_io,
            tombstones: VecDeque::new(),
            free_obj_slots: Vec::new(),
            free_fun_slots: Vec::new(),
            dirty_f: Vec::new(),
            dirty_o: Vec::new(),
            repair: RepairScratch {
                steal_block: SoaBlock::for_scoring(),
                ..RepairScratch::default()
            },
            max_indexed,
        })
    }

    /// Dimensionality of the engine's problem.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of live objects.
    pub fn num_objects(&self) -> usize {
        self.stats.live_objects as usize
    }

    /// Number of live functions.
    pub fn num_functions(&self) -> usize {
        self.stats.live_functions as usize
    }

    /// Lifetime counters plus the current live/tombstone/index gauges.
    pub fn stats(&self) -> EngineStats {
        let mut stats = self.stats;
        debug_assert_eq!(
            stats.live_objects as usize,
            self.objects.iter().filter(|o| o.alive).count()
        );
        debug_assert_eq!(
            stats.live_functions as usize,
            self.functions.iter().filter(|f| f.alive).count()
        );
        stats.tombstoned_objects = self.tombstones.len() as u64;
        stats.tree_records = self.tree.len() as u64;
        stats.tree_pages = self.tree.num_pages() as u64;
        stats
    }

    /// The fraction of R-tree records that are tombstoned departures.
    pub fn tombstone_ratio(&self) -> f64 {
        self.stats().tombstone_ratio()
    }

    /// Record ids of the maintained free-pool skyline (observability / test
    /// oracle: must equal a from-scratch skyline of
    /// [`AssignmentEngine::free_pool_records`]).
    pub fn skyline_records(&self) -> Vec<RecordId> {
        self.skyline.records()
    }

    /// The current free pool: live objects with unassigned capacity.
    pub fn free_pool_records(&self) -> Vec<(RecordId, Point)> {
        self.objects
            .iter()
            .filter(|o| o.alive && o.remaining > 0)
            .map(|o| (o.record.id, o.record.point.clone()))
            .collect()
    }

    /// Cumulative object R-tree I/O (initial stabilization + all updates).
    pub fn total_object_io(&self) -> IoStats {
        self.tree.stats()
    }

    /// Object R-tree I/O spent on updates since the initial stabilization.
    pub fn update_object_io(&self) -> IoStats {
        self.tree.stats().since(&self.initial_io)
    }

    /// The current stable matching (pairs in establishment order; functions
    /// with spare capacity or an empty pool may be unmatched, exactly as in
    /// the batch solvers).
    pub fn assignment(&self) -> Assignment {
        let mut assignment = Assignment::new();
        for &(fi, oi, score) in &self.pairs {
            assignment.push(
                self.functions[fi].pref.id,
                self.objects[oi].record.id,
                score,
            );
        }
        assignment
    }

    /// Exports the engine's live state in one pass: populations, matching
    /// and stats, taken together so they are mutually consistent. This is
    /// the publish hook of the serving tier — called by a shard's writer
    /// thread after each applied batch, never concurrently with updates
    /// (the engine itself is single-writer).
    pub fn export_snapshot(&self) -> EngineSnapshot {
        let (functions, objects) = self.live_populations();
        let pairs: Vec<(FunctionId, RecordId, f64)> = self
            .pairs
            .iter()
            .map(|&(fi, oi, score)| {
                (
                    self.functions[fi].pref.id,
                    self.objects[oi].record.id,
                    score,
                )
            })
            .collect();
        EngineSnapshot {
            functions,
            objects,
            pairs,
            stats: self.stats(),
        }
    }

    /// The live functions and objects, in dense slot order.
    fn live_populations(&self) -> (Vec<PreferenceFunction>, Vec<ObjectRecord>) {
        let functions = self.functions.iter().filter(|f| f.alive);
        let objects = self.objects.iter().filter(|o| o.alive);
        (
            functions.map(|f| f.pref.clone()).collect(),
            objects.map(|o| o.record.clone()).collect(),
        )
    }

    /// A [`Problem`] snapshot of the live population (full capacities), e.g.
    /// for oracle comparison or an index rebuild.
    pub fn snapshot_problem(&self) -> Result<Problem, EngineError> {
        let (functions, objects) = self.live_populations();
        Problem::new(functions, objects).map_err(|_| EngineError::EmptyProblem)
    }

    /// Applies one [`UpdateEvent`] from a datagen update stream (via the
    /// shared [`UpdateOp`] conversion).
    pub fn apply(&mut self, event: &UpdateEvent) -> Result<(), EngineError> {
        UpdateOp::from_event(event).apply(self)
    }

    /// An object arrives: it is inserted into the R-tree (splits are patched
    /// into the skyline's pruned lists), classified against the maintained
    /// skyline in memory, and the reverse top-1 repair re-establishes only
    /// the pairs it destabilizes.
    pub fn insert_object(&mut self, object: ObjectRecord) -> Result<(), EngineError> {
        if object.point.dims() != self.dims {
            return Err(EngineError::DimensionMismatch {
                expected: self.dims,
                got: object.point.dims(),
            });
        }
        if object.capacity == 0 {
            return Err(EngineError::ZeroCapacityObject(object.id));
        }
        if !object.point.is_finite() {
            return Err(EngineError::NonFiniteObject(object.id));
        }
        if self.obj_index.contains_key(&object.id) {
            return Err(EngineError::DuplicateObject(object.id));
        }
        // The id may be a re-issue of a compacted departure (the engine
        // forgets compacted ids — remembering them forever would defeat the
        // boundedness compaction buys). Physical deletion removed the
        // predecessor's tree copy, but a pruned list may still hold its data
        // entry; purge it so it cannot resurface under the new bearer's id.
        // An id above every id ever indexed is fresh: nothing to purge.
        if Some(object.id) > self.max_indexed {
            self.max_indexed = Some(object.id);
        } else {
            self.skyline.purge_record(object.id);
        }
        #[expect(
            clippy::expect_used,
            reason = "internal invariant: dimensionality was validated at the API boundary"
        )]
        let splits = self
            .tree
            .insert_tracked(object.id, object.point.clone())
            .expect("dimensionality was checked");
        for split in &splits {
            // Pre-existing entries that moved to the sibling must stay
            // reachable through the pruned lists; the new point's
            // authoritative copy is classified below, and its duplicate
            // tree-resident copy is dropped by the filtered resume loop.
            self.skyline.patch_page_split(
                split.old_page,
                NodeEntry::Child {
                    mbr: split.new_mbr.clone(),
                    page: split.new_page,
                },
            );
        }
        let state = ObjState {
            remaining: object.capacity,
            record: object,
            alive: true,
        };
        let data = DataEntry::new(state.record.id, state.record.point.clone());
        let oi = place(&mut self.objects, &mut self.free_obj_slots, state);
        self.obj_index.insert(data.record, oi);
        if insert_skyline(&mut self.skyline, data).entered() {
            self.dirty_o.push(oi);
        }
        self.stats.updates += 1;
        self.stats.object_inserts += 1;
        self.stats.live_objects += 1;
        self.restabilize();
        Ok(())
    }

    /// An object departs: its pairs are retracted (freeing function
    /// capacity), it is tombstoned in the R-tree, the free-pool skyline is
    /// replenished via `UpdateSkyline`, and the stable loop resumes for the
    /// freed functions. When the departure pushes the tombstone ratio over
    /// 25 %, incremental compaction physically deletes tombstones until the
    /// ratio is restored.
    pub fn remove_object(&mut self, id: RecordId) -> Result<(), EngineError> {
        let oi = match self.obj_index.get(&id) {
            Some(&oi) if self.objects[oi].alive => oi,
            _ => return Err(EngineError::UnknownObject(id)),
        };
        // retract every pair holding the departing object
        let mut i = 0;
        while i < self.pairs.len() {
            if self.pairs[i].1 == oi {
                let (fi, _, _) = self.pairs.swap_remove(i);
                self.functions[fi].remaining += 1;
                self.dirty_f.push(fi);
                self.stats.pairs_retracted += 1;
            } else {
                i += 1;
            }
        }
        self.objects[oi].alive = false;
        self.objects[oi].remaining = 0;
        self.tombstones.push_back(oi);
        if let Some(removed) = self.skyline.remove(id) {
            self.replenish_skyline(vec![removed]);
        }
        self.stats.updates += 1;
        self.stats.object_removes += 1;
        self.stats.live_objects -= 1;
        self.restabilize();
        self.maybe_compact();
        Ok(())
    }

    /// A function (user) arrives: a reverse top-1 probe over the free pool
    /// and the current pairs finds its best attainable object; the
    /// displacement cascade repairs the rest.
    pub fn insert_function(&mut self, function: PreferenceFunction) -> Result<(), EngineError> {
        if function.function.dims() != self.dims {
            return Err(EngineError::DimensionMismatch {
                expected: self.dims,
                got: function.function.dims(),
            });
        }
        if function.capacity == 0 {
            return Err(EngineError::ZeroCapacityFunction(function.id));
        }
        if self.fun_index.contains_key(&function.id) {
            return Err(EngineError::DuplicateFunction(function.id));
        }
        let state = FunState {
            remaining: function.capacity,
            pref: function,
            alive: true,
        };
        let fi = place(&mut self.functions, &mut self.free_fun_slots, state);
        self.fun_index.insert(self.functions[fi].pref.id, fi);
        self.dirty_f.push(fi);
        self.stats.updates += 1;
        self.stats.function_inserts += 1;
        self.stats.live_functions += 1;
        self.restabilize();
        Ok(())
    }

    /// A function departs: its pairs are retracted and the freed objects
    /// return to the free pool (in-memory skyline insertion, no I/O), where
    /// the stable loop re-offers them to the remaining functions. Functions
    /// have no index presence, so their dense slot is reclaimed immediately.
    pub fn remove_function(&mut self, id: FunctionId) -> Result<(), EngineError> {
        let fi = match self.fun_index.get(&id) {
            Some(&fi) if self.functions[fi].alive => fi,
            _ => return Err(EngineError::UnknownFunction(id)),
        };
        let mut i = 0;
        while i < self.pairs.len() {
            if self.pairs[i].0 == fi {
                let (_, oi, _) = self.pairs.swap_remove(i);
                self.free_object_slot(oi);
                self.stats.pairs_retracted += 1;
            } else {
                i += 1;
            }
        }
        self.functions[fi].alive = false;
        self.functions[fi].remaining = 0;
        self.fun_index.remove(&id);
        self.free_fun_slots.push(fi);
        self.stats.updates += 1;
        self.stats.function_removes += 1;
        self.stats.live_functions -= 1;
        self.restabilize();
        Ok(())
    }

    /// Returns one unit of an object's capacity to the free pool; an object
    /// coming back from full saturation re-enters the maintained skyline
    /// in memory.
    fn free_object_slot(&mut self, oi: usize) {
        self.objects[oi].remaining += 1;
        if self.objects[oi].alive && self.objects[oi].remaining == 1 {
            let data = DataEntry::new(
                self.objects[oi].record.id,
                self.objects[oi].record.point.clone(),
            );
            if insert_skyline(&mut self.skyline, data).entered() {
                self.dirty_o.push(oi);
            }
        }
    }

    /// Replenishes the free-pool skyline after removing skyline objects,
    /// filtering departed and saturated records out of the candidate stream.
    /// The entrants — the rows past the pre-call length, since the skyline
    /// only grows inside `update_skyline_filtered` — become dirty.
    fn replenish_skyline(&mut self, removed: Vec<pref_skyline::SkylineObject>) {
        let objects = &self.objects;
        let obj_index = &self.obj_index;
        let drop = |r: RecordId| match obj_index.get(&r) {
            Some(&oi) => !objects[oi].alive || objects[oi].remaining == 0,
            None => true,
        };
        let before = self.skyline.len();
        update_skyline_filtered(&mut self.tree, &mut self.skyline, removed, &drop);
        // (the drop filter only lets registered records through)
        let entrants = before..self.skyline.len();
        self.dirty_o
            .extend(entrants.map(|row| self.obj_index[&self.skyline.record_at(row)]));
    }

    /// `true` when the tombstone ratio exceeds [`COMPACTION_THRESHOLD`].
    fn compaction_due(&self) -> bool {
        !self.tombstones.is_empty()
            && self.tombstones.len() as f64 > COMPACTION_THRESHOLD * self.tree.len() as f64
    }

    /// Runs incremental compaction while the tombstone ratio exceeds
    /// [`COMPACTION_THRESHOLD`]. Each batch physically deletes up to
    /// [`COMPACTION_BATCH`] tombstones; the loop leaves the ratio at or below
    /// the threshold, so the R-tree's record count stays within
    /// `1 / (1 - threshold)` of the live population.
    fn maybe_compact(&mut self) {
        if !self.compaction_due() {
            return;
        }
        while self.compaction_due() {
            self.compact_batch();
        }
        // the tree shrank: re-derive the LRU buffer from the live pages
        self.tree.set_buffer_fraction(BUFFER_FRACTION);
    }

    /// Physically deletes one batch of tombstoned records (oldest departures
    /// first). Every deletion's structural effects — freed pages (also
    /// invalidated in the LRU buffer by the paged store), re-inserted
    /// orphans, re-insertion splits and MBR shrinks — are patched into the
    /// skyline's pruned lists, and the records' dense slab slots are
    /// reclaimed. The matching is untouched: tombstones hold no pairs and
    /// are not on the skyline, so no re-stabilization is needed. The caller
    /// re-sizes the LRU buffer once all batches of the trigger have run.
    fn compact_batch(&mut self) {
        let batch = COMPACTION_BATCH.min(self.tombstones.len());
        for _ in 0..batch {
            #[expect(
                clippy::expect_used,
                reason = "internal invariant: batch size is computed from the queue length"
            )]
            let oi = self
                .tombstones
                .pop_front()
                .expect("batch size is bounded by the queue length");
            let record = self.objects[oi].record.id;
            let point = self.objects[oi].record.point.clone();
            #[expect(
                clippy::expect_used,
                reason = "internal invariant: a tombstone is created only for resident records"
            )]
            let outcome = self
                .tree
                .delete_tracked(record, &point)
                .expect("tombstoned records are resident in the object tree");
            self.skyline.patch_page_delete(&outcome);
            self.obj_index.remove(&record);
            self.free_obj_slots.push(oi);
            self.stats.physical_deletes += 1;
        }
        self.stats.compaction_batches += 1;
    }

    /// The incremental stable loop: repeatedly finds the highest-scoring
    /// admissible pair — a function with spare capacity or an upgrade over a
    /// side's worst pair — and establishes it, displacing at most one pair on
    /// each side. Every established pair outscores everything it displaces,
    /// so the loop replays the tail of the greedy trace of Section 3 and
    /// terminates with the matching of the batch solvers.
    ///
    /// The search follows the change. Invariant: *every admissible candidate
    /// `(f, o)` has `f ∈ dirty_f` or `o ∈ dirty_o`.* It holds when an update
    /// starts (both empty, the matching stable) and every step that can lower
    /// a bar restores it: a function is marked when its threshold can drop
    /// (it arrives, a departing object retracts one of its pairs, `establish`
    /// steals one), an object when it enters the skyline (arrival, re-entry
    /// after a freed slot, `UpdateSkyline` replenishment). Nothing else does:
    /// a gained pair raises its sides' bars, a newly saturated object trades
    /// `-inf` for its worst pair score, demotion and compaction only remove
    /// candidates. Debug builds check the outcome after every update.
    ///
    /// Neither probe touches the R-tree — the only I/O in the repair path is
    /// `UpdateSkyline` replenishment when a free object becomes saturated.
    fn restabilize(&mut self) {
        while let Some(best) = self.best_candidate() {
            self.establish(best);
            self.stats.repair_rounds += 1;
        }
        self.dirty_f.clear();
        self.dirty_o.clear();
        if cfg!(debug_assertions) {
            self.assert_stable();
        }
    }

    /// Finds the highest-scoring admissible candidate, or `None` when the
    /// matching is stable: the best under [`Candidate::beats`] over
    /// `dirty_f × (skyline ∪ saturated)` ∪ `live F × dirty_o`. By the
    /// invariant of [`AssignmentEngine::restabilize`] that set holds the
    /// overall best, and `beats` is a strict total order, so this is the
    /// candidate a scan of all live functions would pick (block and scalar
    /// scores are bit-identical). With nothing dirty, nothing is scored.
    fn best_candidate(&mut self) -> Option<Candidate> {
        if self.dirty_f.is_empty() && self.dirty_o.is_empty() {
            return None;
        }
        for dirty in [&mut self.dirty_f, &mut self.dirty_o] {
            dirty.sort_unstable();
            dirty.dedup();
        }
        self.repair
            .prepare(&self.functions, &self.objects, &self.pairs);
        let mut best: Option<Candidate> = None;
        for &fi in &self.dirty_f {
            let f = &self.functions[fi];
            if f.alive {
                self.repair.scan_function(
                    fi,
                    &f.pref.function,
                    &self.skyline,
                    &self.obj_index,
                    &mut best,
                );
                self.stats.candidates_scored +=
                    (self.skyline.len() + self.repair.steal.len()) as u64;
            }
        }
        let RepairScratch {
            f_threshold, steal, ..
        } = &self.repair;
        for &oi in &self.dirty_o {
            let o = &self.objects[oi];
            // what the object offers now: a free slot while it is still on
            // the skyline, its worst pair once saturated, nothing once it
            // departed or was demoted
            let (kind, bar) = if o.alive && o.remaining > 0 {
                if !self.skyline.contains(o.record.id) {
                    continue;
                }
                (SlotKind::Free, f64::NEG_INFINITY)
            } else {
                match steal.binary_search_by_key(&oi, |&(oi, _)| oi) {
                    Ok(at) => (SlotKind::Steal, steal[at].1),
                    Err(_) => continue,
                }
            };
            for (fi, f) in self.functions.iter().enumerate() {
                if !f.alive {
                    continue;
                }
                let score = f.pref.function.score(&o.record.point);
                if score > f_threshold[fi] && score > bar {
                    Candidate::offer(&mut best, fi, oi, score, kind);
                }
            }
            self.stats.candidates_scored += self.stats.live_functions;
        }
        best
    }

    /// Debug-build post-condition of every update: a scan of all live
    /// functions over `skyline ∪ saturated` finds no admissible candidate.
    fn assert_stable(&mut self) {
        self.repair
            .prepare(&self.functions, &self.objects, &self.pairs);
        let mut best: Option<Candidate> = None;
        for (fi, f) in self.functions.iter().enumerate() {
            if f.alive {
                self.repair.scan_function(
                    fi,
                    &f.pref.function,
                    &self.skyline,
                    &self.obj_index,
                    &mut best,
                );
            }
        }
        assert!(
            best.is_none(),
            "repair stopped with an admissible candidate left: {best:?}"
        );
    }

    /// Establishes a candidate pair, displacing the necessary worst pairs.
    fn establish(&mut self, cand: Candidate) {
        // make room on the function side
        if self.functions[cand.fi].remaining == 0 {
            #[expect(
                clippy::expect_used,
                reason = "internal invariant: a function at capacity has at least one pair"
            )]
            let victim = self
                .worst_pair_index(|&(fi, _, _)| fi == cand.fi)
                .expect("saturated function has pairs");
            let (_, oi, _) = self.pairs.swap_remove(victim);
            self.functions[cand.fi].remaining += 1;
            self.free_object_slot(oi);
            self.stats.pairs_retracted += 1;
        }
        // make room on the object side
        if cand.kind == SlotKind::Steal {
            #[expect(
                clippy::expect_used,
                reason = "internal invariant: a stolen object is assigned, so it has a pair"
            )]
            let victim = self
                .worst_pair_index(|&(_, oi, _)| oi == cand.oi)
                .expect("stolen object has pairs");
            let (fi, _, _) = self.pairs.swap_remove(victim);
            self.functions[fi].remaining += 1;
            self.dirty_f.push(fi);
            self.objects[cand.oi].remaining += 1;
            self.stats.pairs_retracted += 1;
        }
        // establish
        self.functions[cand.fi].remaining -= 1;
        self.objects[cand.oi].remaining -= 1;
        self.pairs.push((cand.fi, cand.oi, cand.score));
        self.stats.pairs_established += 1;
        if self.objects[cand.oi].remaining == 0 {
            let record = self.objects[cand.oi].record.id;
            if let Some(removed) = self.skyline.remove(record) {
                self.replenish_skyline(vec![removed]);
            }
        }
    }

    /// Index of the minimum-score pair among those matching `filter`
    /// (ties: first in pair order, which is deterministic per run).
    fn worst_pair_index(&self, filter: impl Fn(&(usize, usize, f64)) -> bool) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, pair) in self.pairs.iter().enumerate() {
            if !filter(pair) {
                continue;
            }
            if best.is_none_or(|(_, s)| pair.2 < s) {
                best = Some((i, pair.2));
            }
        }
        best.map(|(i, _)| i)
    }
}
