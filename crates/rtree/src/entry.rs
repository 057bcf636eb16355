//! Node and entry types stored in R-tree pages.

use pref_geom::{Mbr, Point};
use pref_storage::PageId;

/// Identifier of a data record (an object of the set `O`, or a preference
/// function when the tree indexes weight vectors for the Chain algorithm).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId(pub u64);

impl RecordId {
    /// The raw identifier.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for RecordId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A leaf-level data entry: a point plus the identifier of the record it
/// represents.
#[derive(Debug, Clone, PartialEq)]
pub struct DataEntry {
    /// The record's feature vector.
    pub point: Point,
    /// The record identifier.
    pub record: RecordId,
}

impl DataEntry {
    /// Creates a data entry.
    pub fn new(record: RecordId, point: Point) -> Self {
        Self { point, record }
    }
}

/// An entry stored inside an R-tree node: either a pointer to a child node
/// (with the MBR of that child's subtree) or a data entry (in a leaf).
#[derive(Debug, Clone, PartialEq)]
pub enum NodeEntry {
    /// A child pointer in a non-leaf node.
    Child {
        /// MBR of the entire subtree rooted at `page`.
        mbr: Mbr,
        /// Page holding the child node.
        page: PageId,
    },
    /// A data record in a leaf node.
    Data(DataEntry),
}

impl NodeEntry {
    /// MBR of the entry (degenerate for data entries).
    pub fn mbr(&self) -> Mbr {
        let (lower, upper) = self.bounds();
        Mbr::from_bounds(lower, upper)
    }

    /// The entry's corners, borrowed: the child's MBR, or the point twice for
    /// a data entry. Same coordinates as `self.mbr()` without building it.
    pub(crate) fn bounds(&self) -> (&[f64], &[f64]) {
        match self {
            NodeEntry::Child { mbr, .. } => (mbr.lower(), mbr.upper()),
            NodeEntry::Data(d) => (d.point.coords(), d.point.coords()),
        }
    }

    /// The entry's best corner, borrowed: the upper corner of a child's MBR,
    /// the point itself for a data entry. Same coordinates as
    /// `self.mbr().top_corner()` without building either.
    pub fn best_corner(&self) -> &[f64] {
        self.bounds().1
    }

    /// `true` iff this entry is a child pointer to the given page.
    pub fn references_page(&self, page: PageId) -> bool {
        matches!(self, NodeEntry::Child { page: p, .. } if *p == page)
    }

    /// The child page, if this is a child-pointer entry.
    pub fn child_page(&self) -> Option<PageId> {
        match self {
            NodeEntry::Child { page, .. } => Some(*page),
            NodeEntry::Data(_) => None,
        }
    }

    /// The data entry, if this is one.
    pub fn as_data(&self) -> Option<&DataEntry> {
        match self {
            NodeEntry::Data(d) => Some(d),
            NodeEntry::Child { .. } => None,
        }
    }
}

/// One R-tree node. Exactly one node is stored per simulated disk page.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Level of the node: `0` for leaves, `height - 1` for the root of a
    /// multi-level tree.
    pub level: u32,
    /// The node's entries (data entries at level 0, child pointers above).
    pub entries: Vec<NodeEntry>,
}

impl Node {
    /// Creates an empty node at the given level.
    pub fn new(level: u32) -> Self {
        Self {
            level,
            entries: Vec::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the node has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The MBR covering every entry of the node.
    ///
    /// # Panics
    /// Panics if the node is empty.
    pub fn mbr(&self) -> Mbr {
        let mut bounds = self.entries.iter().map(NodeEntry::bounds);
        let (lower, upper) = bounds.next().expect("an empty node has no MBR");
        let mut mbr = Mbr::from_bounds(lower, upper);
        for (lower, upper) in bounds {
            mbr.expand_to_bounds(lower, upper);
        }
        mbr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(c: &[f64]) -> Point {
        Point::from_slice(c)
    }

    #[test]
    fn data_entry_mbr_is_degenerate() {
        let e = NodeEntry::Data(DataEntry::new(RecordId(3), p(&[0.2, 0.8])));
        let m = e.mbr();
        assert_eq!(m.lower(), m.upper());
        assert_eq!(e.bounds(), (m.lower(), m.upper()));
        assert_eq!(e.best_corner(), m.top_corner().coords());
        assert!(e.child_page().is_none());
        assert_eq!(e.as_data().unwrap().record, RecordId(3));
    }

    #[test]
    fn child_entry_accessors() {
        let m = Mbr::new(vec![0.0, 0.0], vec![0.5, 0.5]).unwrap();
        let e = NodeEntry::Child {
            mbr: m.clone(),
            page: PageId::new(9),
        };
        assert_eq!(e.child_page(), Some(PageId::new(9)));
        assert!(e.as_data().is_none());
        assert_eq!(e.best_corner(), m.top_corner().coords());
        assert_eq!(e.mbr(), m);
    }

    #[test]
    fn node_mbr_covers_entries() {
        let mut node = Node::new(0);
        node.entries.extend([
            NodeEntry::Data(DataEntry::new(RecordId(0), p(&[0.1, 0.9]))),
            NodeEntry::Data(DataEntry::new(RecordId(1), p(&[0.7, 0.3]))),
        ]);
        assert_eq!(node.level, 0);
        assert_eq!(node.len(), 2);
        let m = node.mbr();
        assert_eq!(m.lower(), &[0.1, 0.3]);
        assert_eq!(m.upper(), &[0.7, 0.9]);
    }

    #[test]
    fn record_id_display() {
        assert_eq!(RecordId(12).to_string(), "r12");
        assert_eq!(RecordId(12).raw(), 12);
    }

    #[test]
    #[should_panic]
    fn empty_node_mbr_panics() {
        let node = Node::new(0);
        assert!(node.is_empty());
        let _ = node.mbr();
    }
}
