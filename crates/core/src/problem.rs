//! Problem definition: preference functions, objects, capacities, priorities.

use pref_geom::{LinearFunction, Point};
use pref_rtree::{RTree, RTreeConfig, RecordId};
use std::collections::HashMap;

/// Identifier of a preference function (a user / query).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FunctionId(pub usize);

impl std::fmt::Display for FunctionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// A user's preference query: a linear function plus a capacity (how many
/// identical requests this entry stands for, Section 6.1).
#[derive(Debug, Clone, PartialEq)]
pub struct PreferenceFunction {
    /// Identifier of the function.
    pub id: FunctionId,
    /// The scoring function (weights and optional priority γ).
    pub function: LinearFunction,
    /// Number of identical requests represented by this entry (≥ 1).
    pub capacity: u32,
}

impl PreferenceFunction {
    /// A unit-capacity preference function.
    pub fn new(id: usize, function: LinearFunction) -> Self {
        Self {
            id: FunctionId(id),
            function,
            capacity: 1,
        }
    }

    /// Sets the capacity (must be at least 1).
    pub fn with_capacity(mut self, capacity: u32) -> Self {
        assert!(capacity >= 1, "capacity must be at least 1");
        self.capacity = capacity;
        self
    }
}

/// An object of the searched set `O`: a feature vector plus a capacity (how
/// many identical objects this entry stands for).
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectRecord {
    /// Identifier of the object (doubles as the R-tree record id).
    pub id: RecordId,
    /// Feature vector, larger-is-better, normalized to `[0, 1]`.
    pub point: Point,
    /// Number of identical objects represented by this entry (≥ 1).
    pub capacity: u32,
}

impl ObjectRecord {
    /// A unit-capacity object.
    pub fn new(id: u64, point: Point) -> Self {
        Self {
            id: RecordId(id),
            point,
            capacity: 1,
        }
    }

    /// Sets the capacity (must be at least 1).
    pub fn with_capacity(mut self, capacity: u32) -> Self {
        assert!(capacity >= 1, "capacity must be at least 1");
        self.capacity = capacity;
        self
    }
}

/// Errors raised while constructing a [`Problem`].
#[derive(Debug, Clone, PartialEq)]
pub enum ProblemError {
    /// There must be at least one function and one object.
    Empty,
    /// Functions and objects must share one dimensionality.
    DimensionMismatch(String),
    /// Identifiers must be unique within their set.
    DuplicateId(String),
    /// Every function stands for at least one request.
    ZeroCapacityFunction(FunctionId),
    /// Every object stands for at least one copy.
    ZeroCapacityObject(RecordId),
    /// Object coordinates must be finite.
    NonFiniteObject(RecordId),
}

impl std::fmt::Display for ProblemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProblemError::Empty => write!(f, "problem needs at least one function and one object"),
            ProblemError::DimensionMismatch(msg) => write!(f, "dimension mismatch: {msg}"),
            ProblemError::DuplicateId(msg) => write!(f, "duplicate identifier: {msg}"),
            ProblemError::ZeroCapacityFunction(id) => write!(f, "function {id} has capacity 0"),
            ProblemError::ZeroCapacityObject(id) => write!(f, "object {id} has capacity 0"),
            ProblemError::NonFiniteObject(id) => {
                write!(f, "object {id} has a non-finite coordinate")
            }
        }
    }
}

impl std::error::Error for ProblemError {}

/// Sentinel marking an absent slot in a direct-lookup id table.
const NO_INDEX: u32 = u32::MAX;

/// `RecordId → dense index` map, built once per [`Problem`].
///
/// Record ids drawn from a small range (the overwhelmingly common case:
/// generators and loaders assign sequential ids) get a flat lookup table so
/// the solver hot paths pay one bounds-checked array read per translation;
/// genuinely sparse id spaces fall back to hashing.
#[derive(Debug, Clone)]
enum ObjectIndexMap {
    /// `table[id] = dense index`, `NO_INDEX` where absent.
    Direct(Vec<u32>),
    Hashed(HashMap<RecordId, usize>),
}

impl ObjectIndexMap {
    /// Builds the direct table when the id range is at most `2·n + 1024`
    /// slots (bounded waste), the hash map otherwise. Returns `None` when two
    /// objects share an id — this doubles as the duplicate-id check.
    fn build(objects: &[ObjectRecord]) -> Option<Self> {
        let max_id = objects.iter().map(|o| o.id.0).max().unwrap_or(0);
        let budget = 2 * objects.len() as u64 + 1024;
        if max_id < budget && max_id < u64::from(NO_INDEX) {
            let mut table = vec![NO_INDEX; max_id as usize + 1];
            for (i, o) in objects.iter().enumerate() {
                let slot = &mut table[o.id.0 as usize];
                if *slot != NO_INDEX {
                    return None;
                }
                *slot = i as u32;
            }
            Some(ObjectIndexMap::Direct(table))
        } else {
            let mut map = HashMap::with_capacity(objects.len());
            for (i, o) in objects.iter().enumerate() {
                if map.insert(o.id, i).is_some() {
                    return None;
                }
            }
            Some(ObjectIndexMap::Hashed(map))
        }
    }

    #[inline]
    fn get(&self, id: RecordId) -> Option<usize> {
        match self {
            ObjectIndexMap::Direct(table) => match table.get(id.0 as usize) {
                Some(&slot) if slot != NO_INDEX => Some(slot as usize),
                _ => None,
            },
            ObjectIndexMap::Hashed(map) => map.get(&id).copied(),
        }
    }
}

/// A fair-assignment problem instance: the function set `F` (kept in memory)
/// and the object set `O` (to be indexed by an R-tree).
///
/// Both sets are stored in contiguous tables; alongside them the constructor
/// builds, exactly once, the `RecordId → dense index` and
/// `FunctionId → dense index` maps that let the solver hot paths keep all
/// per-object / per-function state in plain `Vec` slabs instead of hashing
/// external ids on every access.
#[derive(Debug, Clone)]
pub struct Problem {
    functions: Vec<PreferenceFunction>,
    objects: Vec<ObjectRecord>,
    /// `RecordId → index into `objects``, built once at construction.
    object_index: ObjectIndexMap,
    /// `FunctionId → index into `functions``, built once at construction.
    function_index: HashMap<FunctionId, usize>,
    dims: usize,
}

impl Problem {
    /// Validates and creates a problem instance: both sets non-empty, one
    /// dimensionality, unique ids, capacities of at least 1 and finite object
    /// coordinates. Struct literals and [`Point::from_slice`] can build
    /// records that break the last two, and every solver would mishandle them.
    pub fn new(
        functions: Vec<PreferenceFunction>,
        objects: Vec<ObjectRecord>,
    ) -> Result<Self, ProblemError> {
        if functions.is_empty() || objects.is_empty() {
            return Err(ProblemError::Empty);
        }
        let dims = functions[0].function.dims();
        for f in &functions {
            if f.function.dims() != dims {
                return Err(ProblemError::DimensionMismatch(format!(
                    "function {} has {} dimensions, expected {dims}",
                    f.id.0,
                    f.function.dims()
                )));
            }
            if f.capacity == 0 {
                return Err(ProblemError::ZeroCapacityFunction(f.id));
            }
        }
        for o in &objects {
            if o.point.dims() != dims {
                return Err(ProblemError::DimensionMismatch(format!(
                    "object {} has {} dimensions, expected {dims}",
                    o.id,
                    o.point.dims()
                )));
            }
            if o.capacity == 0 {
                return Err(ProblemError::ZeroCapacityObject(o.id));
            }
            if !o.point.is_finite() {
                return Err(ProblemError::NonFiniteObject(o.id));
            }
        }
        let mut function_index = HashMap::with_capacity(functions.len());
        for (i, f) in functions.iter().enumerate() {
            if function_index.insert(f.id, i).is_some() {
                return Err(ProblemError::DuplicateId("function ids".into()));
            }
        }
        let object_index = ObjectIndexMap::build(&objects)
            .ok_or_else(|| ProblemError::DuplicateId("object ids".into()))?;
        Ok(Self {
            functions,
            objects,
            object_index,
            function_index,
            dims,
        })
    }

    /// Builds a problem from plain functions and points, assigning sequential
    /// ids and unit capacities. Convenient for generators and tests.
    pub fn from_parts(
        functions: Vec<LinearFunction>,
        objects: Vec<(RecordId, Point)>,
    ) -> Result<Self, ProblemError> {
        let functions = functions
            .into_iter()
            .enumerate()
            .map(|(i, f)| PreferenceFunction::new(i, f))
            .collect();
        let objects = objects
            .into_iter()
            .map(|(id, p)| ObjectRecord {
                id,
                point: p,
                capacity: 1,
            })
            .collect();
        Self::new(functions, objects)
    }

    /// Dimensionality of the problem.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The preference functions.
    pub fn functions(&self) -> &[PreferenceFunction] {
        &self.functions
    }

    /// The objects.
    pub fn objects(&self) -> &[ObjectRecord] {
        &self.objects
    }

    /// Number of functions (not counting capacities).
    pub fn num_functions(&self) -> usize {
        self.functions.len()
    }

    /// Number of objects (not counting capacities).
    pub fn num_objects(&self) -> usize {
        self.objects.len()
    }

    /// Total demand: the sum of function capacities.
    pub(crate) fn total_function_capacity(&self) -> u64 {
        self.functions.iter().map(|f| f.capacity as u64).sum()
    }

    /// Total supply: the sum of object capacities.
    pub(crate) fn total_object_capacity(&self) -> u64 {
        self.objects.iter().map(|o| o.capacity as u64).sum()
    }

    /// Number of pairs the stable assignment will contain:
    /// `min(total demand, total supply)`.
    pub fn expected_pairs(&self) -> u64 {
        self.total_function_capacity()
            .min(self.total_object_capacity())
    }

    /// `true` if any function carries a priority γ ≠ 1.
    pub fn has_priorities(&self) -> bool {
        self.functions
            .iter()
            .any(|f| (f.function.priority() - 1.0).abs() > f64::EPSILON)
    }

    /// Looks up a function by id in `O(1)`.
    pub fn function(&self, id: FunctionId) -> Option<&PreferenceFunction> {
        self.function_index.get(&id).map(|&i| &self.functions[i])
    }

    /// Looks up an object by id in `O(1)`.
    pub fn object(&self, id: RecordId) -> Option<&ObjectRecord> {
        self.object_index.get(id).map(|i| &self.objects[i])
    }

    /// Dense index of an object: its position in [`Problem::objects`]. The map
    /// is built once at construction; the solvers use it to keep per-object
    /// state in contiguous `Vec` slabs. Compact id spaces resolve with one
    /// array read, sparse ones with one hash lookup.
    #[inline]
    pub(crate) fn object_index(&self, id: RecordId) -> Option<usize> {
        self.object_index.get(id)
    }

    /// Score of a function applied to an object, by id. `None` if either id is
    /// unknown.
    pub fn score(&self, f: FunctionId, o: RecordId) -> Option<f64> {
        Some(self.function(f)?.function.score(&self.object(o)?.point))
    }

    /// Bulk-loads the object R-tree with an optional fanout override and an
    /// LRU buffer sized as a fraction of the built tree (the paper's default
    /// is 2%). Construction does not charge I/O.
    pub fn build_tree(&self, fanout: Option<usize>, buffer_fraction: f64) -> RTree {
        let mut config = RTreeConfig::for_dims(self.dims);
        if let Some(fanout) = fanout {
            config = config.with_fanout(fanout);
        }
        let records: Vec<(RecordId, Point)> = self
            .objects
            .iter()
            .map(|o| (o.id, o.point.clone()))
            .collect();
        let mut tree = RTree::bulk_load(config, records).expect("problem dimensions are validated");
        tree.set_buffer_fraction(buffer_fraction);
        tree.reset_stats();
        tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1_problem() -> Problem {
        let functions = vec![
            PreferenceFunction::new(0, LinearFunction::new(vec![0.8, 0.2]).unwrap()),
            PreferenceFunction::new(1, LinearFunction::new(vec![0.2, 0.8]).unwrap()),
            PreferenceFunction::new(2, LinearFunction::new(vec![0.5, 0.5]).unwrap()),
        ];
        let objects = vec![
            ObjectRecord::new(0, Point::from_slice(&[0.5, 0.6])),
            ObjectRecord::new(1, Point::from_slice(&[0.2, 0.7])),
            ObjectRecord::new(2, Point::from_slice(&[0.8, 0.2])),
            ObjectRecord::new(3, Point::from_slice(&[0.4, 0.4])),
        ];
        Problem::new(functions, objects).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let p = figure1_problem();
        assert_eq!(p.dims(), 2);
        assert_eq!(p.num_functions(), 3);
        assert_eq!(p.num_objects(), 4);
        assert_eq!(p.expected_pairs(), 3);
        assert!(!p.has_priorities());
        assert!(p.function(FunctionId(1)).is_some());
        assert!(p.function(FunctionId(9)).is_none());
        assert!(p.object(RecordId(3)).is_some());
        let s = p.score(FunctionId(0), RecordId(2)).unwrap();
        assert!((s - 0.68).abs() < 1e-12);
        assert!(p.score(FunctionId(0), RecordId(99)).is_none());
    }

    #[test]
    fn validation_errors() {
        assert!(matches!(
            Problem::new(vec![], vec![]),
            Err(ProblemError::Empty)
        ));
        let f2 = PreferenceFunction::new(0, LinearFunction::new(vec![0.5, 0.5]).unwrap());
        let f3 = PreferenceFunction::new(1, LinearFunction::new(vec![0.3, 0.3, 0.4]).unwrap());
        let o = ObjectRecord::new(0, Point::from_slice(&[0.5, 0.5]));
        assert!(matches!(
            Problem::new(vec![f2.clone(), f3], vec![o.clone()]),
            Err(ProblemError::DimensionMismatch(_))
        ));
        let o3 = ObjectRecord::new(1, Point::from_slice(&[0.5, 0.5, 0.5]));
        assert!(matches!(
            Problem::new(vec![f2.clone()], vec![o.clone(), o3]),
            Err(ProblemError::DimensionMismatch(_))
        ));
        let dup_f = PreferenceFunction::new(0, LinearFunction::new(vec![0.6, 0.4]).unwrap());
        assert!(matches!(
            Problem::new(vec![f2.clone(), dup_f], vec![o.clone()]),
            Err(ProblemError::DuplicateId(_))
        ));
        let dup_o = ObjectRecord::new(0, Point::from_slice(&[0.1, 0.1]));
        assert!(matches!(
            Problem::new(vec![f2], vec![o, dup_o]),
            Err(ProblemError::DuplicateId(_))
        ));
    }

    #[test]
    fn capacities_feed_expected_pairs() {
        let functions = vec![
            PreferenceFunction::new(0, LinearFunction::new(vec![0.5, 0.5]).unwrap())
                .with_capacity(3),
            PreferenceFunction::new(1, LinearFunction::new(vec![0.6, 0.4]).unwrap()),
        ];
        let objects = vec![
            ObjectRecord::new(0, Point::from_slice(&[0.5, 0.5])).with_capacity(2),
            ObjectRecord::new(1, Point::from_slice(&[0.4, 0.6])),
        ];
        let p = Problem::new(functions, objects).unwrap();
        assert_eq!(p.total_function_capacity(), 4);
        assert_eq!(p.total_object_capacity(), 3);
        assert_eq!(p.expected_pairs(), 3);
    }

    #[test]
    fn build_tree_indexes_all_objects() {
        let p = figure1_problem();
        let mut tree = p.build_tree(None, 0.0);
        assert_eq!(tree.len(), 4);
        assert_eq!(tree.stats().logical_reads, 0);
        assert_eq!(tree.scan().len(), 4);
    }

    #[test]
    fn dense_indices_match_table_positions() {
        let fs = vec![
            LinearFunction::new(vec![0.5, 0.5]).unwrap(),
            LinearFunction::new(vec![0.9, 0.1]).unwrap(),
        ];
        // non-contiguous record ids: dense indices must still be 0, 1, 2
        let os = vec![
            (RecordId(42), Point::from_slice(&[0.5, 0.5])),
            (RecordId(7), Point::from_slice(&[0.2, 0.4])),
            (RecordId(1000), Point::from_slice(&[0.9, 0.1])),
        ];
        let p = Problem::from_parts(fs, os).unwrap();
        for (i, o) in p.objects().iter().enumerate() {
            assert_eq!(p.object_index(o.id), Some(i));
            assert_eq!(p.object(o.id).unwrap().id, o.id);
        }
        assert_eq!(p.object_index(RecordId(9999)), None);
    }

    #[test]
    fn sparse_record_ids_fall_back_to_hashing() {
        // a huge id blows the direct-table budget: the hashed map must give
        // identical answers
        let fs = vec![LinearFunction::new(vec![0.5, 0.5]).unwrap()];
        let os = vec![
            (RecordId(3), Point::from_slice(&[0.5, 0.5])),
            (RecordId(u64::MAX - 1), Point::from_slice(&[0.2, 0.4])),
        ];
        let p = Problem::from_parts(fs, os).unwrap();
        assert_eq!(p.object_index(RecordId(3)), Some(0));
        assert_eq!(p.object_index(RecordId(u64::MAX - 1)), Some(1));
        assert_eq!(p.object_index(RecordId(4)), None);
        assert_eq!(p.object(RecordId(u64::MAX - 1)).unwrap().id.0, u64::MAX - 1);
    }

    #[test]
    fn from_parts_assigns_sequential_ids() {
        let fs = vec![
            LinearFunction::new(vec![0.5, 0.5]).unwrap(),
            LinearFunction::new(vec![0.9, 0.1]).unwrap(),
        ];
        let os = vec![
            (RecordId(10), Point::from_slice(&[0.5, 0.5])),
            (RecordId(11), Point::from_slice(&[0.2, 0.4])),
        ];
        let p = Problem::from_parts(fs, os).unwrap();
        assert_eq!(p.functions()[1].id, FunctionId(1));
        assert_eq!(p.objects()[0].id, RecordId(10));
    }

    #[test]
    fn priorities_detected() {
        let functions = vec![PreferenceFunction::new(
            0,
            LinearFunction::with_priority(vec![0.5, 0.5], 2.0).unwrap(),
        )];
        let objects = vec![ObjectRecord::new(0, Point::from_slice(&[0.5, 0.5]))];
        let p = Problem::new(functions, objects).unwrap();
        assert!(p.has_priorities());
    }

    /// Struct literals and `Point::from_slice` build records every solver
    /// mishandles: with a capacity-0 object the solve panicked in debug
    /// builds (`o_remaining[oi] -= 1`) and assigned it twice in release.
    #[test]
    fn zero_capacities_and_non_finite_points_are_refused() {
        let f = |id, capacity| PreferenceFunction {
            capacity,
            ..PreferenceFunction::new(id, LinearFunction::new(vec![0.6, 0.4]).unwrap())
        };
        let o = |id, coords: [f64; 2], capacity| ObjectRecord {
            capacity,
            ..ObjectRecord::new(id, Point::from_slice(&coords))
        };
        let cases = [
            (
                vec![f(0, 1), f(7, 0)],
                vec![o(0, [0.5, 0.5], 1)],
                ProblemError::ZeroCapacityFunction(FunctionId(7)),
            ),
            (
                vec![f(0, 1), f(1, 1)],
                vec![
                    o(0, [0.9, 0.9], 0),
                    o(1, [0.5, 0.4], 1),
                    o(2, [0.4, 0.5], 1),
                ],
                ProblemError::ZeroCapacityObject(RecordId(0)),
            ),
            (
                vec![f(0, 1)],
                vec![o(0, [0.5, 0.5], 1), o(3, [0.5, f64::NAN], 1)],
                ProblemError::NonFiniteObject(RecordId(3)),
            ),
        ];
        for (functions, objects, want) in cases {
            assert_eq!(Problem::new(functions, objects).unwrap_err(), want);
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_rejected() {
        let _ = ObjectRecord::new(0, Point::from_slice(&[0.5, 0.5])).with_capacity(0);
    }
}
