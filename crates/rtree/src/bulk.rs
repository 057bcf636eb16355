//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! STR tiles a level's entries recursively: order them by dimension 0 and
//! cut them into slabs, order each slab by dimension 1 and cut it again, and
//! so on; the last dimension's order is cut into nodes. Each ordering is a
//! stable sort of the slab it refines, so at dimension `d` the entries stand
//! in the order of `(key_d, key_{d-1}, …, key_0, input position)`. That is
//! one fixed total order per dimension, and a slab is exactly a range of
//! ranks in it.
//!
//! The tiler below works from that invariant instead of re-sorting entries.
//! It reads every sort key once into a column of order-preserving `u64`s,
//! permutes a `u32` index array, cuts each slab by nth-element selection
//! and sorts only the groups it emits. Each record then moves once, from
//! the input into its leaf. The tree is the one a level-by-level stable sort
//! builds, page for page: the same slab counts, the same balanced group
//! sizes, the same entry order and MBR bits, so every I/O counter that
//! reads it is unchanged. Keys compare as `f64::partial_cmp` does, with
//! −0.0 equal to 0.0.

use std::cmp::Ordering;

use crate::entry::{DataEntry, Node, NodeEntry, RecordId};
use crate::tree::{RTree, RTreeConfig, RTreeError};
use pref_geom::Point;

impl RTree {
    /// Builds an R-tree from a batch of records using the STR
    /// (Sort-Tile-Recursive) packing algorithm.
    ///
    /// Construction does **not** charge I/O: the paper's experiments build the
    /// object index up front and measure only the assignment algorithms.
    /// The LRU buffer starts cold; call [`RTree::set_buffer_fraction`]
    /// afterwards to configure it relative to the built tree size.
    pub fn bulk_load(
        config: RTreeConfig,
        records: Vec<(RecordId, Point)>,
    ) -> Result<Self, RTreeError> {
        let mut tree = RTree::new(config);
        if records.is_empty() {
            return Ok(tree);
        }
        let mut keys = Vec::with_capacity(records.len() * tree.config.dims);
        for (_, p) in &records {
            tree.check_dims(p)?;
            keys.extend(p.coords().iter().map(|&c| order_key(c)));
        }
        tree.len = records.len();
        let leaves = tree.pack(0, records, &keys, |(record, point)| {
            NodeEntry::Data(DataEntry::new(record, point))
        });
        tree.pack_upper_levels(leaves);
        Ok(tree)
    }

    /// Packs the levels above the leaves until a single root remains. Upper
    /// levels are tiled on their entries' MBR centres.
    fn pack_upper_levels(&mut self, mut level_entries: Vec<NodeEntry>) {
        let mut level = 0u32;
        while level_entries.len() > 1 {
            level += 1;
            let keys: Vec<u64> = level_entries
                .iter()
                .flat_map(|e| {
                    let (lower, upper) = e.bounds();
                    lower
                        .iter()
                        .zip(upper)
                        .map(|(l, u)| order_key((l + u) / 2.0))
                })
                .collect();
            level_entries = self.pack(level, level_entries, &keys, |e| e);
        }
        // level_entries now holds exactly one entry: the root pointer if the
        // data spanned multiple nodes, or a single leaf.
        let root_entry = level_entries.pop().expect("non-empty input");
        let root_page = root_entry
            .child_page()
            .expect("packed entries are child pointers");
        self.root = Some(root_page);
        self.height = level + 1;
    }

    /// Tiles `items`, whose sort keys `keys` holds `dims` to an item, into
    /// nodes at `level`, allocated without charging I/O. Returns a child
    /// pointer to each node, in tiling order.
    ///
    /// Classic STR packs nodes to full fanout; the balanced chunking of
    /// [`str_partition`] guarantees that every produced node holds at least
    /// `fanout / 2 >= min_entries` entries, so bulk-loaded trees satisfy the
    /// same fill invariants as dynamically built ones.
    fn pack<T>(
        &mut self,
        level: u32,
        items: Vec<T>,
        keys: &[u64],
        entry: impl Fn(T) -> NodeEntry,
    ) -> Vec<NodeEntry> {
        let (order, sizes) = str_partition(keys, self.config.dims, self.config.max_entries);
        let mut items: Vec<Option<T>> = items.into_iter().map(Some).collect();
        let mut order = order.into_iter();
        self.store.with_accounting_paused(|store| {
            sizes
                .into_iter()
                .map(|size| {
                    let entries = order
                        .by_ref()
                        .take(size)
                        .map(|i| entry(items[i as usize].take().expect("each item is placed once")))
                        .collect();
                    let node = Node { level, entries };
                    let mbr = node.mbr();
                    let page = store.allocate(node);
                    NodeEntry::Child { mbr, page }
                })
                .collect()
        })
    }
}

/// Maps a coordinate to a `u64` whose unsigned order is the coordinate's
/// `partial_cmp` order: −0.0 is folded into 0.0, which `partial_cmp` holds
/// equal and `f64::total_cmp` would not.
///
/// Keys are never NaN: points are validated finite where they enter
/// (`Problem`, the engine, the WAL decoder), and an MBR centre of finite
/// corners can at worst overflow to an infinity, which orders correctly.
fn order_key(x: f64) -> u64 {
    debug_assert!(
        !x.is_nan(),
        "sort keys are finite coordinates or their centres"
    );
    let bits = if x == 0.0 { 0.0f64 } else { x }.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// STR tiling of `keys.len() / dims` items into groups of at most
/// `capacity`, where `keys[i * dims + d]` is the [`order_key`] of item `i` in
/// dimension `d`. Returns the items' indices in tiling order and the sizes
/// of the consecutive groups that order is cut into. Each group is in the
/// order of the dimension it was emitted at; see the module docs.
fn str_partition(keys: &[u64], dims: usize, capacity: usize) -> (Vec<u32>, Vec<usize>) {
    let n = u32::try_from(keys.len() / dims).expect("at most u32::MAX entries per level");
    let mut order: Vec<u32> = (0..n).collect();
    let mut tiler = Tiler {
        keys: Keys { keys, dims },
        capacity,
        pairs: Vec::with_capacity(order.len()),
        sizes: Vec::new(),
    };
    tiler.tile(&mut order, 0);
    (order, tiler.sizes)
}

/// The key column, `dims` keys to an item.
struct Keys<'a> {
    keys: &'a [u64],
    dims: usize,
}

impl Keys<'_> {
    /// Orders items `a` and `b` by `(key_{d-1}, …, key_0, index)`, the
    /// tie-break of dimension `d`'s order.
    fn below(&self, a: u32, b: u32, d: usize) -> Ordering {
        let row = |i: u32| &self.keys[i as usize * self.dims..][..d];
        row(a).iter().rev().cmp(row(b).iter().rev()).then(a.cmp(&b))
    }

    /// Dimension `d`'s order on `(key_d, index)` pairs.
    fn order(&self, d: usize) -> impl Fn(&(u64, u32), &(u64, u32)) -> Ordering + '_ {
        move |a, b| a.0.cmp(&b.0).then_with(|| self.below(a.1, b.1, d))
    }
}

struct Tiler<'a> {
    keys: Keys<'a>,
    capacity: usize,
    /// Scratch `(key, index)` pairs of the slab being ordered.
    pairs: Vec<(u64, u32)>,
    /// Sizes of the groups emitted so far.
    sizes: Vec<usize>,
}

impl Tiler<'_> {
    /// Tiles `order`, which holds one slab of dimension `dim - 1` (or every
    /// item, in input order, when `dim` is 0).
    fn tile(&mut self, order: &mut [u32], dim: usize) {
        let dims = self.keys.dims;
        if order.len() <= self.capacity {
            if !order.is_empty() {
                // a group that fits keeps the order of the slab it came from
                if let Some(above) = dim.checked_sub(1) {
                    self.arrange(order, above, None);
                }
                self.sizes.push(order.len());
            }
            return;
        }
        if dim + 1 >= dims {
            // last dimension: emit balanced chunks so no chunk is smaller than
            // half the capacity (which keeps every node above the minimum fill)
            self.arrange(order, dim, None);
            self.sizes
                .extend(balanced_sizes(order.len(), self.capacity));
            return;
        }
        // number of leaf-level groups this call must produce
        let total_groups = order.len().div_ceil(self.capacity);
        // number of slabs along this dimension
        let remaining_dims = dims - dim;
        let slabs = (total_groups as f64)
            .powf(1.0 / remaining_dims as f64)
            .ceil() as usize;
        let slabs = slabs.clamp(1, total_groups.max(1));
        // balanced slab sizes (difference of at most one item between slabs)
        let n = order.len();
        let base = n / slabs;
        let extra = n % slabs;
        let cuts: Vec<usize> = (1..slabs).map(|s| s * base + s.min(extra)).collect();
        self.arrange(order, dim, Some(&cuts));
        let mut start = 0;
        for end in cuts.into_iter().chain([n]) {
            self.tile(&mut order[start..end], dim + 1);
            start = end;
        }
    }

    /// Puts `order` into dimension `dim`'s order: fully, or with `cuts`
    /// only so far that every rank range between two cuts holds its items.
    fn arrange(&mut self, order: &mut [u32], dim: usize, cuts: Option<&[usize]>) {
        let keys = &self.keys;
        let dims = keys.dims;
        self.pairs.clear();
        self.pairs.extend(
            order
                .iter()
                .map(|&i| (keys.keys[i as usize * dims + dim], i)),
        );
        let cmp = keys.order(dim);
        match cuts {
            Some(cuts) => select_cuts(&mut self.pairs, 0, cuts, &cmp),
            None => self.pairs.sort_unstable_by(&cmp),
        }
        for (slot, &(_, i)) in order.iter_mut().zip(&self.pairs) {
            *slot = i;
        }
    }
}

/// Partitions `pairs`, which starts at rank `offset` of a larger slice, so
/// that for each cut `c` (ascending, absolute, inside the slice) the items
/// before `c` are the `c` smallest.
fn select_cuts<F>(pairs: &mut [(u64, u32)], offset: usize, cuts: &[usize], cmp: &F)
where
    F: Fn(&(u64, u32), &(u64, u32)) -> Ordering,
{
    if cuts.is_empty() {
        return;
    }
    let mid = cuts.len() / 2;
    let at = cuts[mid] - offset;
    pairs.select_nth_unstable_by(at, cmp);
    let (left, right) = pairs.split_at_mut(at);
    select_cuts(left, offset, &cuts[..mid], cmp);
    select_cuts(right, cuts[mid], &cuts[mid + 1..], cmp);
}

/// Splits `n` items into `ceil(n / capacity)` chunks whose sizes differ by at
/// most one, so every chunk holds at least `capacity / 2` items when
/// `n > capacity`.
fn balanced_sizes(n: usize, capacity: usize) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    let groups = n.div_ceil(capacity);
    let base = n / groups;
    let extra = n % groups;
    (0..groups).map(|g| base + usize::from(g < extra)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_records(n: u64, dims: usize, seed: u64) -> Vec<(RecordId, Point)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                (
                    RecordId(i),
                    Point::from_slice(
                        &(0..dims)
                            .map(|_| rng.gen_range(0.0..1.0))
                            .collect::<Vec<_>>(),
                    ),
                )
            })
            .collect()
    }

    #[test]
    fn bulk_load_empty_gives_empty_tree() {
        let t = RTree::bulk_load(RTreeConfig::for_dims(2), vec![]).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
    }

    #[test]
    fn bulk_load_small_fits_in_one_leaf() {
        let recs = random_records(10, 2, 1);
        let t = RTree::bulk_load(RTreeConfig::for_dims(2), recs).unwrap();
        assert_eq!(t.len(), 10);
        assert_eq!(t.height(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn bulk_load_large_builds_multi_level_tree() {
        let recs = random_records(5000, 4, 2);
        let t = RTree::bulk_load(RTreeConfig::for_dims(4), recs).unwrap();
        assert_eq!(t.len(), 5000);
        assert!(t.height() >= 2);
        t.check_invariants().unwrap();
        assert_eq!(t.all_data_unaccounted().len(), 5000);
    }

    #[test]
    fn bulk_load_does_not_charge_io() {
        let recs = random_records(2000, 3, 3);
        let t = RTree::bulk_load(RTreeConfig::for_dims(3), recs).unwrap();
        assert_eq!(t.stats().physical_reads, 0);
        assert_eq!(t.stats().logical_reads, 0);
    }

    #[test]
    fn bulk_load_rejects_mixed_dimensions() {
        let recs = vec![
            (RecordId(0), Point::from_slice(&[0.1, 0.2])),
            (RecordId(1), Point::from_slice(&[0.1, 0.2, 0.3])),
        ];
        assert!(RTree::bulk_load(RTreeConfig::for_dims(2), recs).is_err());
    }

    #[test]
    fn bulk_loaded_tree_supports_dynamic_updates() {
        let recs = random_records(800, 2, 5);
        let mut t =
            RTree::bulk_load(RTreeConfig::for_dims(2).with_fanout(16), recs.clone()).unwrap();
        t.check_invariants().unwrap();
        // delete a third, insert some new ones
        for (r, p) in recs.iter().take(250) {
            t.delete(*r, p).unwrap();
        }
        for i in 0..100u64 {
            t.insert(
                RecordId(10_000 + i),
                Point::from_slice(&[0.5 + (i as f64) * 1e-4, 0.5]),
            )
            .unwrap();
        }
        assert_eq!(t.len(), 800 - 250 + 100);
        t.check_invariants().unwrap();
    }

    #[test]
    fn order_key_orders_as_partial_cmp() {
        let xs = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            5e-324,
            0.5,
            1.0,
            1e300,
            f64::INFINITY,
        ];
        for a in xs {
            for b in xs {
                assert_eq!(
                    order_key(a).cmp(&order_key(b)),
                    a.partial_cmp(&b).unwrap(),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn str_partition_groups_respect_capacity() {
        let recs = random_records(1000, 3, 6);
        let keys: Vec<u64> = recs
            .iter()
            .flat_map(|(_, p)| p.coords().iter().map(|&c| order_key(c)))
            .collect();
        let (order, sizes) = str_partition(&keys, 3, 25);
        let mut seen = order.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..1000).collect::<Vec<u32>>());
        assert_eq!(sizes.iter().sum::<usize>(), 1000);
        assert!(sizes.iter().all(|&g| g <= 25 && g > 0));
    }
}
