//! A compact, read-only view of an assignment, built once and queried
//! allocation-free.
//!
//! [`Assignment`] is the mutable, order-preserving representation the solvers
//! and the engine produce; its per-query methods ([`Assignment::objects_of`],
//! [`Assignment::functions_of`]) scan the whole pair list and allocate a
//! fresh `Vec` per call. A serving layer answering millions of point lookups
//! needs the opposite trade-off: pay once at publication time, then answer
//! every `assignment_of(function)` / `functions_of(object)` with a bounds
//! check and a slice — no scan, no allocation. [`AssignmentView`] is that
//! representation: both directions of the matching stored in CSR form
//! (offsets into one flat pair array per side), plus id → dense-index maps
//! for `O(1)` entry.
//!
//! The view also carries the *canonical comparison* used across the repo to
//! compare matchings produced by different algorithms: [`AssignmentView::canonical`]
//! emits exactly the same multiset encoding as [`Assignment::canonical`], so
//! views and assignments are directly comparable.

use crate::matching::{canonical_of, Assignment};
use crate::problem::FunctionId;
use pref_rtree::RecordId;
use std::collections::HashMap;

/// Errors raised while building an [`AssignmentView`].
#[derive(Debug, Clone, PartialEq)]
pub enum ViewError {
    /// A pair references a function id that is not in the view's universe.
    UnknownFunction(FunctionId),
    /// A pair references an object id that is not in the view's universe.
    UnknownObject(RecordId),
    /// The function universe contains a duplicate id.
    DuplicateFunction(FunctionId),
    /// The object universe contains a duplicate id.
    DuplicateObject(RecordId),
}

impl std::fmt::Display for ViewError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViewError::UnknownFunction(id) => write!(f, "pair references unknown function {id}"),
            ViewError::UnknownObject(id) => write!(f, "pair references unknown object {id}"),
            ViewError::DuplicateFunction(id) => write!(f, "duplicate function id {id}"),
            ViewError::DuplicateObject(id) => write!(f, "duplicate object id {id}"),
        }
    }
}

impl std::error::Error for ViewError {}

/// A read-only assignment over a fixed universe of functions and objects,
/// stored as two CSR tables (function → objects and object → functions).
///
/// Unmatched entities are first-class: a function that is in the universe but
/// holds no pair answers with an empty slice, while an id outside the
/// universe answers `None` — the distinction a serving tier needs between
/// "known user, currently unassigned" and "no such user".
#[derive(Debug, Clone, PartialEq)]
pub struct AssignmentView {
    functions: Vec<FunctionId>,
    objects: Vec<RecordId>,
    f_index: HashMap<FunctionId, u32>,
    o_index: HashMap<RecordId, u32>,
    /// `f_offsets[i]..f_offsets[i+1]` indexes `f_pairs` for function `i`.
    f_offsets: Vec<u32>,
    /// `(dense object index, score)`, grouped by function, each group sorted
    /// by descending score (ties: ascending object index).
    f_pairs: Vec<(u32, f64)>,
    /// `o_offsets[i]..o_offsets[i+1]` indexes `o_pairs` for object `i`.
    o_offsets: Vec<u32>,
    /// `(dense function index, score)`, grouped by object, each group sorted
    /// by descending score (ties: ascending function index).
    o_pairs: Vec<(u32, f64)>,
}

impl AssignmentView {
    /// Builds the view from an entity universe and the matched pairs.
    ///
    /// `functions` / `objects` list every entity the view should know about
    /// (matched or not); `pairs` is the matching as
    /// `(function, object, score)` triples. Fails if an id repeats within a
    /// universe or a pair references an id outside it.
    pub fn from_pairs(
        functions: Vec<FunctionId>,
        objects: Vec<RecordId>,
        pairs: &[(FunctionId, RecordId, f64)],
    ) -> Result<Self, ViewError> {
        let mut f_index = HashMap::with_capacity(functions.len());
        for (i, &f) in functions.iter().enumerate() {
            if f_index.insert(f, i as u32).is_some() {
                return Err(ViewError::DuplicateFunction(f));
            }
        }
        let mut o_index = HashMap::with_capacity(objects.len());
        for (i, &o) in objects.iter().enumerate() {
            if o_index.insert(o, i as u32).is_some() {
                return Err(ViewError::DuplicateObject(o));
            }
        }
        // translate once, counting group sizes for both CSR directions
        let mut translated = Vec::with_capacity(pairs.len());
        let mut f_counts = vec![0u32; functions.len()];
        let mut o_counts = vec![0u32; objects.len()];
        for &(f, o, score) in pairs {
            let fi = *f_index.get(&f).ok_or(ViewError::UnknownFunction(f))?;
            let oi = *o_index.get(&o).ok_or(ViewError::UnknownObject(o))?;
            f_counts[fi as usize] += 1;
            o_counts[oi as usize] += 1;
            translated.push((fi, oi, score));
        }
        let f_offsets = prefix_sums(&f_counts);
        let o_offsets = prefix_sums(&o_counts);
        let mut f_pairs = vec![(0u32, 0.0f64); translated.len()];
        let mut o_pairs = vec![(0u32, 0.0f64); translated.len()];
        let mut f_cursor = f_offsets[..functions.len()].to_vec();
        let mut o_cursor = o_offsets[..objects.len()].to_vec();
        for &(fi, oi, score) in &translated {
            let fc = &mut f_cursor[fi as usize];
            f_pairs[*fc as usize] = (oi, score);
            *fc += 1;
            let oc = &mut o_cursor[oi as usize];
            o_pairs[*oc as usize] = (fi, score);
            *oc += 1;
        }
        // deterministic group order: best score first, ties by partner index
        for i in 0..functions.len() {
            let range = f_offsets[i] as usize..f_offsets[i + 1] as usize;
            f_pairs[range].sort_unstable_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.0.cmp(&b.0))
            });
        }
        for i in 0..objects.len() {
            let range = o_offsets[i] as usize..o_offsets[i + 1] as usize;
            o_pairs[range].sort_unstable_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.0.cmp(&b.0))
            });
        }
        Ok(Self {
            functions,
            objects,
            f_index,
            o_index,
            f_offsets,
            f_pairs,
            o_offsets,
            o_pairs,
        })
    }

    /// Every function in the view's universe (matched or not).
    pub fn functions(&self) -> &[FunctionId] {
        &self.functions
    }

    /// Every object in the view's universe (matched or not).
    pub fn objects(&self) -> &[RecordId] {
        &self.objects
    }

    /// Number of matched pairs.
    pub fn len(&self) -> usize {
        self.f_pairs.len()
    }

    /// `true` when no pair is matched.
    pub fn is_empty(&self) -> bool {
        self.f_pairs.is_empty()
    }

    /// The objects assigned to a function, best score first — `None` for a
    /// function outside the universe, an empty iterator for a known but
    /// unmatched function. Allocation-free.
    pub fn objects_of(&self, function: FunctionId) -> Option<AssignedObjects<'_>> {
        let fi = *self.f_index.get(&function)? as usize;
        let range = self.f_offsets[fi] as usize..self.f_offsets[fi + 1] as usize;
        Some(AssignedObjects {
            pairs: &self.f_pairs[range],
            ids: &self.objects,
        })
    }

    /// The functions an object is assigned to, best score first — `None` for
    /// an object outside the universe. Allocation-free.
    pub fn functions_of(&self, object: RecordId) -> Option<AssignedFunctions<'_>> {
        let oi = *self.o_index.get(&object)? as usize;
        let range = self.o_offsets[oi] as usize..self.o_offsets[oi + 1] as usize;
        Some(AssignedFunctions {
            pairs: &self.o_pairs[range],
            ids: &self.functions,
        })
    }

    /// Multiset encoding of the matching, byte-compatible with
    /// [`Assignment::canonical`]: `(function, object, rounded score)` triples
    /// in sorted order. Two matchings are "the same" across the repo exactly
    /// when their canonical forms are equal.
    pub fn canonical(&self) -> Vec<(usize, u64, u64)> {
        canonical_of(self.functions.iter().enumerate().flat_map(|(fi, &f)| {
            let range = self.f_offsets[fi] as usize..self.f_offsets[fi + 1] as usize;
            self.f_pairs[range]
                .iter()
                .map(move |&(oi, score)| (f, self.objects[oi as usize], score))
        }))
    }

    /// Materializes the view back into an [`Assignment`] (pairs in function
    /// order, best score first within a function) — the bridge to
    /// [`crate::verify_stable`] and the other `Assignment`-consuming APIs.
    pub fn to_assignment(&self) -> Assignment {
        let mut assignment = Assignment::new();
        for (fi, &f) in self.functions.iter().enumerate() {
            let range = self.f_offsets[fi] as usize..self.f_offsets[fi + 1] as usize;
            for &(oi, score) in &self.f_pairs[range] {
                assignment.push(f, self.objects[oi as usize], score);
            }
        }
        assignment
    }
}

/// Exclusive prefix sums with a trailing total: `counts = [2, 0, 1]` becomes
/// `[0, 2, 2, 3]`.
fn prefix_sums(counts: &[u32]) -> Vec<u32> {
    let mut offsets = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0u32;
    offsets.push(0);
    for &c in counts {
        acc += c;
        offsets.push(acc);
    }
    offsets
}

/// Iterator over a function's assigned objects (see
/// [`AssignmentView::objects_of`]).
#[derive(Debug, Clone)]
pub struct AssignedObjects<'a> {
    pairs: &'a [(u32, f64)],
    ids: &'a [RecordId],
}

impl Iterator for AssignedObjects<'_> {
    type Item = (RecordId, f64);

    fn next(&mut self) -> Option<Self::Item> {
        let (&(oi, score), rest) = self.pairs.split_first()?;
        self.pairs = rest;
        Some((self.ids[oi as usize], score))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.pairs.len(), Some(self.pairs.len()))
    }
}

impl ExactSizeIterator for AssignedObjects<'_> {}

/// Iterator over an object's assigned functions (see
/// [`AssignmentView::functions_of`]).
#[derive(Debug, Clone)]
pub struct AssignedFunctions<'a> {
    pairs: &'a [(u32, f64)],
    ids: &'a [FunctionId],
}

impl Iterator for AssignedFunctions<'_> {
    type Item = (FunctionId, f64);

    fn next(&mut self) -> Option<Self::Item> {
        let (&(fi, score), rest) = self.pairs.split_first()?;
        self.pairs = rest;
        Some((self.ids[fi as usize], score))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.pairs.len(), Some(self.pairs.len()))
    }
}

impl ExactSizeIterator for AssignedFunctions<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe() -> (Vec<FunctionId>, Vec<RecordId>) {
        (
            vec![FunctionId(0), FunctionId(1), FunctionId(7)],
            vec![RecordId(10), RecordId(11), RecordId(12), RecordId(13)],
        )
    }

    fn sample_pairs() -> Vec<(FunctionId, RecordId, f64)> {
        vec![
            (FunctionId(0), RecordId(12), 0.9),
            (FunctionId(1), RecordId(10), 0.7),
            (FunctionId(0), RecordId(11), 0.4),
        ]
    }

    #[test]
    fn both_directions_answer_consistently() {
        let (fs, os) = universe();
        let view = AssignmentView::from_pairs(fs, os, &sample_pairs()).unwrap();
        assert_eq!(view.len(), 3);
        assert!(!view.is_empty());

        // function 0 holds two pairs, best first
        let got: Vec<_> = view.objects_of(FunctionId(0)).unwrap().collect();
        assert_eq!(got, vec![(RecordId(12), 0.9), (RecordId(11), 0.4)]);

        // known but unmatched entities answer empty, unknown answer None
        assert_eq!(view.objects_of(FunctionId(7)).unwrap().len(), 0);
        assert!(view.objects_of(FunctionId(99)).is_none());
        assert_eq!(view.functions_of(RecordId(13)).unwrap().len(), 0);
        assert!(view.functions_of(RecordId(99)).is_none());

        // reverse direction agrees
        let got: Vec<_> = view.functions_of(RecordId(12)).unwrap().collect();
        assert_eq!(got, vec![(FunctionId(0), 0.9)]);
        let got: Vec<_> = view.functions_of(RecordId(10)).unwrap().collect();
        assert_eq!(got, vec![(FunctionId(1), 0.7)]);
    }

    #[test]
    fn canonical_matches_assignment_canonical() {
        let (fs, os) = universe();
        let mut assignment = Assignment::new();
        for &(f, o, s) in &sample_pairs() {
            assignment.push(f, o, s);
        }
        let view = AssignmentView::from_pairs(fs, os, &sample_pairs()).unwrap();
        assert_eq!(view.canonical(), assignment.canonical());
        assert_eq!(view.to_assignment().canonical(), assignment.canonical());

        // a different matching does not compare equal
        let mut other = Assignment::new();
        other.push(FunctionId(0), RecordId(12), 0.9);
        assert_ne!(view.canonical(), other.canonical());
    }

    #[test]
    fn construction_errors_are_reported() {
        let (fs, os) = universe();
        let bad = vec![(FunctionId(42), RecordId(10), 0.5)];
        assert_eq!(
            AssignmentView::from_pairs(fs.clone(), os.clone(), &bad),
            Err(ViewError::UnknownFunction(FunctionId(42)))
        );
        let bad = vec![(FunctionId(0), RecordId(42), 0.5)];
        assert_eq!(
            AssignmentView::from_pairs(fs.clone(), os.clone(), &bad),
            Err(ViewError::UnknownObject(RecordId(42)))
        );
        assert_eq!(
            AssignmentView::from_pairs(vec![FunctionId(1), FunctionId(1)], os.clone(), &[]),
            Err(ViewError::DuplicateFunction(FunctionId(1)))
        );
        assert_eq!(
            AssignmentView::from_pairs(fs, vec![RecordId(2), RecordId(2)], &[]),
            Err(ViewError::DuplicateObject(RecordId(2)))
        );
    }

    #[test]
    fn empty_view_over_a_universe_is_valid() {
        let (fs, os) = universe();
        let view = AssignmentView::from_pairs(fs, os, &[]).unwrap();
        assert!(view.is_empty());
        assert_eq!(view.canonical(), Vec::<(usize, u64, u64)>::new());
        assert_eq!(view.objects_of(FunctionId(0)).unwrap().len(), 0);
    }

    #[test]
    fn exact_ties_order_deterministically_by_partner_index() {
        let fs = vec![FunctionId(0)];
        let os = vec![RecordId(5), RecordId(3)];
        // equal scores: group order falls back to ascending dense index,
        // i.e. universe order
        let pairs = vec![
            (FunctionId(0), RecordId(3), 0.5),
            (FunctionId(0), RecordId(5), 0.5),
        ];
        let view = AssignmentView::from_pairs(fs, os, &pairs).unwrap();
        let got: Vec<_> = view.objects_of(FunctionId(0)).unwrap().collect();
        assert_eq!(got, vec![(RecordId(5), 0.5), (RecordId(3), 0.5)]);
    }
}
