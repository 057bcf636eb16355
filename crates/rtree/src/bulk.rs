//! Sort-Tile-Recursive (STR) bulk loading.

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
        for (_, p) in &records {
            tree.check_dims(p)?;
        }
        let entries: Vec<DataEntry> = records
            .into_iter()
            .map(|(r, p)| DataEntry::new(r, p))
            .collect();
        let count = entries.len();
        tree.build_from_entries(entries);
        tree.len = count;
        Ok(tree)
    }

    fn build_from_entries(&mut self, entries: Vec<DataEntry>) {
        // Pack the leaf level. Classic STR packs nodes to full fanout; the
        // balanced chunking below guarantees that every produced node holds at
        // least `fanout / 2 >= min_entries` entries, so bulk-loaded trees
        // satisfy the same fill invariants as dynamically built ones.
        let fanout = self.config.max_entries;
        let leaf_capacity = fanout;
        let dims = self.config.dims;

        let mut leaf_groups = str_partition(entries, leaf_capacity, dims, |e: &DataEntry, d| {
            e.point.coord(d)
        });

        // Allocate leaf nodes without charging I/O.
        let mut level_entries: Vec<NodeEntry> = Vec::with_capacity(leaf_groups.len());
        self.store.with_accounting_paused(|store| {
            for group in leaf_groups.drain(..) {
                let node = Node::leaf(group);
                let mbr = node.mbr();
                let page = store.allocate(node);
                level_entries.push(NodeEntry::Child { mbr, page });
            }
        });

        let mut level = 0u32;
        // Pack upper levels until a single root remains.
        while level_entries.len() > 1 {
            level += 1;
            let capacity = fanout;
            let groups = str_partition(level_entries, capacity, dims, |e: &NodeEntry, d| {
                // use the MBR centre for tiling the upper levels
                let (lower, upper) = e.bounds();
                (lower[d] + upper[d]) / 2.0
            });
            let mut next: Vec<NodeEntry> = Vec::with_capacity(groups.len());
            self.store.with_accounting_paused(|store| {
                for group in groups {
                    let node = Node {
                        level,
                        entries: group,
                    };
                    let mbr = node.mbr();
                    let page = store.allocate(node);
                    next.push(NodeEntry::Child { mbr, page });
                }
            });
            level_entries = next;
        }

        // level_entries now holds exactly one entry: the root pointer if the
        // data spanned multiple nodes, or a single leaf.
        let root_entry = level_entries.pop().expect("non-empty input");
        let root_page = root_entry
            .child_page()
            .expect("packed entries are child pointers");
        self.root = Some(root_page);
        let root_level = self.store.peek(root_page).expect("live root").level;
        self.height = root_level + 1;
    }
}

/// Recursive STR tiling: sorts by the first dimension, cuts into vertical
/// slabs, then recursively tiles each slab on the remaining dimensions,
/// finally chunking into groups of at most `capacity`. The `key` callback
/// returns the sort coordinate of an item in a given dimension.
fn str_partition<T, F>(items: Vec<T>, capacity: usize, dims: usize, key: F) -> Vec<Vec<T>>
where
    F: Fn(&T, usize) -> f64 + Copy,
{
    fn recurse<T, F>(
        mut items: Vec<T>,
        capacity: usize,
        dim: usize,
        dims: usize,
        key: F,
        out: &mut Vec<Vec<T>>,
    ) where
        F: Fn(&T, usize) -> f64 + Copy,
    {
        if items.len() <= capacity {
            if !items.is_empty() {
                out.push(items);
            }
            return;
        }
        if dim + 1 >= dims {
            // last dimension: emit balanced chunks so no chunk is smaller than
            // half the capacity (which keeps every node above the minimum fill)
            items.sort_by(|a, b| {
                key(a, dim)
                    .partial_cmp(&key(b, dim))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            for chunk_sizes in balanced_sizes(items.len(), capacity) {
                let rest = items.split_off(chunk_sizes);
                out.push(items);
                items = rest;
            }
            debug_assert!(items.is_empty());
            return;
        }
        // number of leaf-level groups this call must produce
        let total_groups = items.len().div_ceil(capacity);
        // number of slabs along this dimension
        let remaining_dims = dims - dim;
        let slabs = (total_groups as f64)
            .powf(1.0 / remaining_dims as f64)
            .ceil() as usize;
        let slabs = slabs.clamp(1, total_groups.max(1));
        items.sort_by(|a, b| {
            key(a, dim)
                .partial_cmp(&key(b, dim))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        // balanced slab sizes (difference of at most one item between slabs)
        let n = items.len();
        let base = n / slabs;
        let extra = n % slabs;
        for slab_idx in 0..slabs {
            let size = base + usize::from(slab_idx < extra);
            let rest = items.split_off(size);
            let slab = items;
            items = rest;
            recurse(slab, capacity, dim + 1, dims, key, out);
        }
        debug_assert!(items.is_empty());
    }

    let mut out = Vec::new();
    recurse(items, capacity, 0, dims, key, &mut out);
    out
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
    fn str_partition_groups_respect_capacity() {
        let recs = random_records(1000, 3, 6);
        let entries: Vec<DataEntry> = recs
            .into_iter()
            .map(|(r, p)| DataEntry::new(r, p))
            .collect();
        let groups = str_partition(entries, 25, 3, |e: &DataEntry, d| e.point.coord(d));
        let total: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(total, 1000);
        assert!(groups.iter().all(|g| g.len() <= 25 && !g.is_empty()));
    }
}
