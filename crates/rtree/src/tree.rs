//! The R-tree structure, configuration, low-level node access and validation.

use crate::entry::{DataEntry, Node, NodeEntry, RecordId};
use pref_geom::{Mbr, Point, SoaBlock};
use pref_storage::{entries_per_page, IoStats, PageId, PagedStore};

/// Configuration of an [`RTree`].
#[derive(Debug, Clone)]
pub struct RTreeConfig {
    /// Dimensionality of the indexed points.
    pub dims: usize,
    /// Maximum number of entries per node. Defaults to the page fanout
    /// derived from the 4 KiB page size ([`pref_storage::entries_per_page`]).
    pub max_entries: usize,
    /// Minimum number of entries per non-root node. Defaults to 40% of
    /// `max_entries`.
    pub min_entries: usize,
    /// Number of LRU buffer frames. Defaults to zero (no buffer); the
    /// experiment harness sets it as a fraction of the built tree size.
    pub buffer_frames: usize,
}

impl RTreeConfig {
    /// The default configuration for a given dimensionality: page-derived
    /// fanout, 40% minimum fill, no buffer.
    pub fn for_dims(dims: usize) -> Self {
        let max_entries = entries_per_page(dims);
        Self {
            dims,
            max_entries,
            min_entries: (max_entries * 2 / 5).max(2),
            buffer_frames: 0,
        }
    }

    /// Overrides the fanout (useful in tests to force deep trees).
    pub fn with_fanout(mut self, max_entries: usize) -> Self {
        assert!(max_entries >= 4, "fanout must be at least 4");
        self.max_entries = max_entries;
        self.min_entries = (max_entries * 2 / 5).max(2);
        self
    }

    /// Overrides the buffer size in frames.
    pub fn with_buffer_frames(mut self, frames: usize) -> Self {
        self.buffer_frames = frames;
        self
    }
}

/// Errors reported by R-tree operations.
#[derive(Debug, Clone, PartialEq)]
pub enum RTreeError {
    /// A point with the wrong dimensionality was supplied.
    DimensionMismatch {
        /// Dimensionality of the tree.
        expected: usize,
        /// Dimensionality of the supplied point.
        got: usize,
    },
    /// The record to delete was not found at the given location.
    RecordNotFound(RecordId),
    /// An invariant check failed (message describes the violation).
    CorruptTree(String),
}

impl std::fmt::Display for RTreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RTreeError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "dimension mismatch: tree has {expected}, point has {got}"
                )
            }
            RTreeError::RecordNotFound(r) => write!(f, "record {r} not found"),
            RTreeError::CorruptTree(msg) => write!(f, "corrupt tree: {msg}"),
        }
    }
}

impl std::error::Error for RTreeError {}

/// A disk-style R-tree storing one node per simulated 4 KiB page of an
/// in-memory [`PagedStore`], whose LRU buffer decides which node accesses
/// are charged as I/O.
#[derive(Debug)]
pub struct RTree {
    pub(crate) store: PagedStore<Node>,
    pub(crate) root: Option<PageId>,
    pub(crate) config: RTreeConfig,
    pub(crate) height: u32,
    pub(crate) len: usize,
}

impl RTree {
    /// Creates an empty tree.
    pub fn new(config: RTreeConfig) -> Self {
        assert!(config.dims > 0, "dimensionality must be positive");
        assert!(
            config.min_entries * 2 <= config.max_entries,
            "min_entries must be at most half of max_entries"
        );
        Self {
            store: PagedStore::new(config.buffer_frames),
            root: None,
            config,
            height: 0,
            len: 0,
        }
    }

    /// Convenience constructor with the default configuration for `dims`.
    pub fn with_dims(dims: usize) -> Self {
        Self::new(RTreeConfig::for_dims(dims))
    }

    /// Number of indexed records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the tree holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (0 when empty, 1 for a single leaf root).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Dimensionality of the indexed points.
    pub fn dims(&self) -> usize {
        self.config.dims
    }

    /// Number of live pages (= number of nodes).
    pub fn num_pages(&self) -> usize {
        self.store.len()
    }

    /// The root page, if the tree is non-empty.
    pub fn root_page(&self) -> Option<PageId> {
        self.root
    }

    /// I/O statistics of the underlying store.
    pub fn stats(&self) -> IoStats {
        self.store.stats()
    }

    /// Resets the I/O statistics.
    pub fn reset_stats(&mut self) {
        self.store.reset_stats();
    }

    /// Sets the LRU buffer size as a fraction of the current tree size,
    /// mirroring the paper's "buffer size X% of the tree size".
    pub fn set_buffer_fraction(&mut self, fraction: f64) {
        self.store.set_buffer_fraction(fraction);
    }

    /// Sets the LRU buffer size in frames.
    pub fn set_buffer_frames(&mut self, frames: usize) {
        self.store.set_buffer_frames(frames);
    }

    /// Current buffer capacity in frames.
    pub fn buffer_frames(&self) -> usize {
        self.store.buffer_frames()
    }

    /// Reads a node and returns a copy of its level and entries, charging one
    /// logical access (and a physical read on a buffer miss). This is the
    /// access path used by the BBS / BRS traversals.
    pub fn node_entries(&mut self, page: PageId) -> (u32, Vec<NodeEntry>) {
        let node = self.store.read(page);
        (node.level, node.entries.clone())
    }

    /// A live node without charging I/O or touching the buffer; `None` for a
    /// freed or unknown page. This is the view of validation and test
    /// oracles.
    pub fn peek_node(&self, page: PageId) -> Option<&Node> {
        self.store.peek(page)
    }

    /// Reads the root node's entries (charging I/O); `None` for an empty tree.
    pub fn root_entries(&mut self) -> Option<(u32, Vec<NodeEntry>)> {
        self.root.map(|r| self.node_entries(r))
    }

    /// Columnar variant of [`RTree::node_entries`]: in addition to the entry
    /// copies, fills `block` (cleared first) with one point per entry in entry
    /// order — the data point for data entries, the MBR's best corner for
    /// child entries — so a caller can batch-score the whole page with the
    /// [`pref_geom::kernel`] lanes. Charges exactly the same single logical
    /// access as `node_entries`; the columnar view is a free by-product of the
    /// page read, not an extra I/O.
    pub fn node_entries_columnar(
        &mut self,
        page: PageId,
        block: &mut SoaBlock,
    ) -> (u32, Vec<NodeEntry>) {
        let node = self.store.read(page);
        block.clear();
        for entry in &node.entries {
            block.push_coords(entry.best_corner());
        }
        (node.level, node.entries.clone())
    }

    /// Columnar variant of [`RTree::root_entries`]; `None` for an empty tree.
    pub fn root_entries_columnar(&mut self, block: &mut SoaBlock) -> Option<(u32, Vec<NodeEntry>)> {
        self.root.map(|r| self.node_entries_columnar(r, block))
    }

    /// Validates the point's dimensionality against the tree's.
    pub(crate) fn check_dims(&self, point: &Point) -> Result<(), RTreeError> {
        if point.dims() != self.config.dims {
            Err(RTreeError::DimensionMismatch {
                expected: self.config.dims,
                got: point.dims(),
            })
        } else {
            Ok(())
        }
    }

    /// Checks the structural invariants of the tree without charging I/O.
    /// Used extensively by tests; returns a description of the first
    /// violation found.
    pub fn check_invariants(&self) -> Result<(), RTreeError> {
        let Some(root) = self.root else {
            if self.len != 0 || self.height != 0 {
                return Err(RTreeError::CorruptTree(
                    "empty tree with non-zero len or height".into(),
                ));
            }
            return Ok(());
        };
        let root_node = self
            .store
            .peek(root)
            .ok_or_else(|| RTreeError::CorruptTree("root page is not live".into()))?;
        if root_node.level + 1 != self.height {
            return Err(RTreeError::CorruptTree(format!(
                "root level {} inconsistent with height {}",
                root_node.level, self.height
            )));
        }
        let mut data_count = 0usize;
        let mut page_count = 0usize;
        self.check_node(root, None, true, &mut data_count, &mut page_count)?;
        if data_count != self.len {
            return Err(RTreeError::CorruptTree(format!(
                "tree reports len {} but contains {} data entries",
                self.len, data_count
            )));
        }
        if page_count != self.store.len() {
            return Err(RTreeError::CorruptTree(format!(
                "tree reaches {page_count} pages but the store holds {}",
                self.store.len()
            )));
        }
        Ok(())
    }

    fn check_node(
        &self,
        page: PageId,
        parent_mbr: Option<&Mbr>,
        is_root: bool,
        data_count: &mut usize,
        page_count: &mut usize,
    ) -> Result<(), RTreeError> {
        let node = self
            .store
            .peek(page)
            .ok_or_else(|| RTreeError::CorruptTree(format!("dangling page {page}")))?;
        *page_count += 1;
        if node.is_empty() {
            return Err(RTreeError::CorruptTree(format!("empty node at {page}")));
        }
        if !is_root && node.len() < self.config.min_entries {
            return Err(RTreeError::CorruptTree(format!(
                "underfull node at {page}: {} < {}",
                node.len(),
                self.config.min_entries
            )));
        }
        if node.len() > self.config.max_entries {
            return Err(RTreeError::CorruptTree(format!(
                "overfull node at {page}: {} > {}",
                node.len(),
                self.config.max_entries
            )));
        }
        if let Some(parent) = parent_mbr {
            if !parent.contains_mbr(&node.mbr()) {
                return Err(RTreeError::CorruptTree(format!(
                    "node {page} MBR not contained in parent entry MBR"
                )));
            }
        }
        for entry in &node.entries {
            match entry {
                NodeEntry::Data(d) => {
                    if node.level != 0 {
                        return Err(RTreeError::CorruptTree(format!(
                            "data entry in non-leaf node {page}"
                        )));
                    }
                    if d.point.dims() != self.config.dims {
                        return Err(RTreeError::CorruptTree(format!(
                            "data entry {} has wrong dimensionality",
                            d.record
                        )));
                    }
                    *data_count += 1;
                }
                NodeEntry::Child { mbr, page: child } => {
                    if node.level == 0 {
                        return Err(RTreeError::CorruptTree(format!(
                            "child pointer in leaf node {page}"
                        )));
                    }
                    let child_node = self.store.peek(*child).ok_or_else(|| {
                        RTreeError::CorruptTree(format!("dangling child {child} of {page}"))
                    })?;
                    if child_node.level + 1 != node.level {
                        return Err(RTreeError::CorruptTree(format!(
                            "child {child} level {} under parent level {}",
                            child_node.level, node.level
                        )));
                    }
                    if child_node.mbr() != *mbr {
                        return Err(RTreeError::CorruptTree(format!(
                            "stale MBR for child {child} of {page}"
                        )));
                    }
                    self.check_node(*child, Some(mbr), false, data_count, page_count)?;
                }
            }
        }
        Ok(())
    }

    /// Collects every data entry without charging I/O (test/diagnostic path).
    pub fn all_data_unaccounted(&self) -> Vec<DataEntry> {
        let mut out = Vec::with_capacity(self.len);
        if let Some(root) = self.root {
            self.collect_data(root, &mut out);
        }
        out
    }

    fn collect_data(&self, page: PageId, out: &mut Vec<DataEntry>) {
        let node = self.store.peek(page).expect("live page");
        for entry in &node.entries {
            match entry {
                NodeEntry::Data(d) => out.push(d.clone()),
                NodeEntry::Child { page: child, .. } => self.collect_data(*child, out),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree_properties() {
        let t = RTree::with_dims(3);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.height(), 0);
        assert_eq!(t.dims(), 3);
        assert!(t.root_page().is_none());
        assert!(t.check_invariants().is_ok());
        assert_eq!(t.num_pages(), 0);
    }

    #[test]
    fn config_defaults_follow_page_size() {
        let c = RTreeConfig::for_dims(4);
        assert_eq!(c.max_entries, 56);
        assert_eq!(c.min_entries, 22);
        let c = c.with_fanout(10);
        assert_eq!(c.max_entries, 10);
        assert_eq!(c.min_entries, 4);
        let c = c.with_buffer_frames(7);
        assert_eq!(c.buffer_frames, 7);
    }

    #[test]
    #[should_panic(expected = "fanout must be at least 4")]
    fn tiny_fanout_rejected() {
        let _ = RTreeConfig::for_dims(2).with_fanout(3);
    }

    #[test]
    fn dimension_check() {
        let t = RTree::with_dims(2);
        assert!(t.check_dims(&Point::from_slice(&[0.1, 0.2])).is_ok());
        let err = t
            .check_dims(&Point::from_slice(&[0.1, 0.2, 0.3]))
            .unwrap_err();
        assert!(matches!(
            err,
            RTreeError::DimensionMismatch {
                expected: 2,
                got: 3
            }
        ));
        assert!(err.to_string().contains("mismatch"));
    }

    #[test]
    fn error_display() {
        assert!(RTreeError::RecordNotFound(RecordId(5))
            .to_string()
            .contains("r5"));
        assert!(RTreeError::CorruptTree("boom".into())
            .to_string()
            .contains("boom"));
    }
}
