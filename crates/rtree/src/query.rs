//! Queries: range search and full scan.

use crate::entry::{DataEntry, NodeEntry};
use crate::tree::RTree;
use pref_geom::Mbr;

impl RTree {
    /// Returns every data entry whose point lies inside `range`
    /// (boundaries included). Node accesses are charged to the I/O stats.
    pub fn range_query(&mut self, range: &Mbr) -> Vec<DataEntry> {
        let mut out = Vec::new();
        let Some(root) = self.root else { return out };
        let mut stack = vec![root];
        while let Some(page) = stack.pop() {
            let (_, entries) = self.node_entries(page);
            for entry in entries {
                match entry {
                    NodeEntry::Data(d) => {
                        if range.contains_point(&d.point) {
                            out.push(d);
                        }
                    }
                    NodeEntry::Child { mbr, page } => {
                        if mbr.intersects(range) {
                            stack.push(page);
                        }
                    }
                }
            }
        }
        out
    }

    /// Returns every data entry by scanning the whole tree; charges I/O.
    pub fn scan(&mut self) -> Vec<DataEntry> {
        let whole = Mbr::new(vec![f64::MIN; self.dims()], vec![f64::MAX; self.dims()])
            .expect("full-space MBR is valid");
        self.range_query(&whole)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::RecordId;
    use crate::tree::RTreeConfig;
    use pref_geom::Point;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn build(n: u64, dims: usize, seed: u64, fanout: usize) -> (RTree, Vec<(RecordId, Point)>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let recs: Vec<(RecordId, Point)> = (0..n)
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
            .collect();
        let tree = RTree::bulk_load(
            RTreeConfig::for_dims(dims).with_fanout(fanout),
            recs.clone(),
        )
        .unwrap();
        (tree, recs)
    }

    #[test]
    fn range_query_matches_linear_scan() {
        let (mut tree, recs) = build(2000, 3, 12, 16);
        let range = Mbr::new(vec![0.2, 0.3, 0.1], vec![0.7, 0.9, 0.6]).unwrap();
        let mut got: Vec<u64> = tree
            .range_query(&range)
            .iter()
            .map(|d| d.record.0)
            .collect();
        got.sort_unstable();
        let mut want: Vec<u64> = recs
            .iter()
            .filter(|(_, p)| range.contains_point(p))
            .map(|(r, _)| r.0)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(
            !got.is_empty(),
            "the range should not be empty for this seed"
        );
    }

    #[test]
    fn empty_range_returns_nothing() {
        let (mut tree, _) = build(500, 2, 13, 8);
        let range = Mbr::new(vec![2.0, 2.0], vec![3.0, 3.0]).unwrap();
        assert!(tree.range_query(&range).is_empty());
    }

    #[test]
    fn range_query_on_empty_tree() {
        let mut tree = RTree::with_dims(2);
        let range = Mbr::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        assert!(tree.range_query(&range).is_empty());
    }

    #[test]
    fn scan_returns_everything() {
        let (mut tree, recs) = build(700, 4, 15, 20);
        let scanned = tree.scan();
        assert_eq!(scanned.len(), recs.len());
    }

    #[test]
    fn range_query_charges_fewer_ios_than_scan() {
        let (mut tree, _) = build(5000, 2, 16, 32);
        tree.reset_stats();
        let small = Mbr::new(vec![0.4, 0.4], vec![0.45, 0.45]).unwrap();
        tree.range_query(&small);
        let small_io = tree.stats().logical_reads;
        tree.reset_stats();
        tree.scan();
        let scan_io = tree.stats().logical_reads;
        assert!(
            small_io < scan_io,
            "selective range ({small_io}) should touch fewer nodes than a scan ({scan_io})"
        );
        assert_eq!(scan_io as usize, tree.num_pages());
    }

    #[test]
    fn buffer_reduces_physical_reads_on_repeated_queries() {
        let (mut tree, _) = build(3000, 2, 17, 16);
        tree.set_buffer_fraction(0.5);
        tree.reset_stats();
        let range = Mbr::new(vec![0.1, 0.1], vec![0.3, 0.3]).unwrap();
        tree.range_query(&range);
        let first = tree.stats().physical_reads;
        tree.range_query(&range);
        let second = tree.stats().physical_reads - first;
        assert!(
            second < first,
            "warm buffer should absorb repeated accesses"
        );
    }
}
