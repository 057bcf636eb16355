//! Node and entry types stored in R-tree pages.

use pref_geom::{Mbr, Point};
use pref_storage::PageId;
use serde::{Deserialize, Serialize};

/// Identifier of a data record (an object of the set `O`, or a preference
/// function when the tree indexes weight vectors for the Chain algorithm).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
        match self {
            NodeEntry::Child { mbr, .. } => mbr.clone(),
            NodeEntry::Data(d) => Mbr::from_point(&d.point),
        }
    }

    /// The entry's best corner, borrowed: the upper corner of a child's MBR,
    /// the point itself for a data entry. Same coordinates as
    /// `self.mbr().top_corner()` without building either.
    pub fn best_corner(&self) -> &[f64] {
        match self {
            NodeEntry::Child { mbr, .. } => mbr.upper(),
            NodeEntry::Data(d) => d.point.coords(),
        }
    }

    /// `true` for data entries.
    pub fn is_data(&self) -> bool {
        matches!(self, NodeEntry::Data(_))
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

    /// Creates a leaf node holding the given data entries.
    pub fn leaf(entries: Vec<DataEntry>) -> Self {
        Self {
            level: 0,
            entries: entries.into_iter().map(NodeEntry::Data).collect(),
        }
    }

    /// `true` for leaf nodes.
    pub fn is_leaf(&self) -> bool {
        self.level == 0
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
        let mbrs: Vec<Mbr> = self.entries.iter().map(NodeEntry::mbr).collect();
        Mbr::covering(mbrs.iter())
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
        assert_eq!(e.best_corner(), m.top_corner().coords());
        assert!(e.is_data());
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
        assert!(!e.is_data());
        assert_eq!(e.child_page(), Some(PageId::new(9)));
        assert!(e.as_data().is_none());
        assert_eq!(e.best_corner(), m.top_corner().coords());
        assert_eq!(e.mbr(), m);
    }

    #[test]
    fn node_mbr_covers_entries() {
        let node = Node::leaf(vec![
            DataEntry::new(RecordId(0), p(&[0.1, 0.9])),
            DataEntry::new(RecordId(1), p(&[0.7, 0.3])),
        ]);
        assert!(node.is_leaf());
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
