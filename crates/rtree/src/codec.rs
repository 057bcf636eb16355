//! Byte-level page serialization of R-tree nodes for the on-disk backend.
//!
//! Layout (all little-endian):
//!
//! ```text
//! [level: u32][dims: u16][count: u32]
//! level == 0 (leaf):      count × [record: u64][coord: f64 × dims]
//! level  > 0 (internal):  count × [page: u64][lower: f64 × dims][upper: f64 × dims]
//! ```
//!
//! No per-entry tag is needed — the node level determines the entry kind —
//! which keeps a full page of child entries within the 4 KiB slot derived by
//! [`pref_storage::entries_per_page`]. Coordinates round-trip bit-exactly via
//! `f64::to_le_bytes`.

use crate::entry::{DataEntry, Node, NodeEntry, RecordId};
use pref_geom::{Mbr, Point};
use pref_storage::{ByteReader, PageCodec, PageId, StorageError, PAGE_SIZE};

const NODE_HEADER: usize = 4 + 2 + 4;
/// Per-slot overhead added by [`pref_storage::FileBackend`] (length + crc).
const SLOT_HEADER: usize = 4 + 8;

/// The file-backend slot size needed for nodes with the given fanout and
/// dimensionality: at least [`PAGE_SIZE`], slightly larger when the node
/// format demands it. A node can transiently hold `max_entries + 1` entries
/// (between an insert and the split it triggers) and may be evicted in that
/// state, so the slot budgets for the overfull shape; the cost *model* still
/// charges one page per node regardless of the physical slot width.
pub fn node_slot_size(dims: usize, max_entries: usize) -> usize {
    // an internal entry (page + full MBR) is the widest variant
    let entry = 8 + 2 * dims * 8;
    let needed = SLOT_HEADER + NODE_HEADER + (max_entries + 1) * entry;
    needed.max(PAGE_SIZE)
}

impl PageCodec for Node {
    fn encode_page(&self, buf: &mut Vec<u8>) {
        let dims = self
            .entries
            .first()
            .map(|e| match e {
                NodeEntry::Child { mbr, .. } => mbr.dims(),
                NodeEntry::Data(d) => d.point.dims(),
            })
            .unwrap_or(0);
        buf.extend_from_slice(&self.level.to_le_bytes());
        buf.extend_from_slice(&(dims as u16).to_le_bytes());
        buf.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for entry in &self.entries {
            match entry {
                NodeEntry::Data(d) => {
                    debug_assert_eq!(self.level, 0, "data entry in internal node");
                    buf.extend_from_slice(&d.record.raw().to_le_bytes());
                    for &c in d.point.coords() {
                        buf.extend_from_slice(&c.to_le_bytes());
                    }
                }
                NodeEntry::Child { mbr, page } => {
                    debug_assert_ne!(self.level, 0, "child entry in leaf node");
                    buf.extend_from_slice(&page.raw().to_le_bytes());
                    for &c in mbr.lower() {
                        buf.extend_from_slice(&c.to_le_bytes());
                    }
                    for &c in mbr.upper() {
                        buf.extend_from_slice(&c.to_le_bytes());
                    }
                }
            }
        }
    }

    fn decode_page(bytes: &[u8]) -> Result<Self, StorageError> {
        let mut r = ByteReader::new(bytes, "node page");
        let level = r.u32()?;
        let dims = r.u16()? as usize;
        let entry = if level == 0 {
            8 + dims * 8
        } else {
            8 + 2 * dims * 8
        };
        let count = r.count(entry)?;
        if count > 0 && dims == 0 {
            return Err(StorageError::Corrupt(
                "non-empty node page with zero dimensionality".into(),
            ));
        }
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            if level == 0 {
                let record = RecordId(r.u64()?);
                let point = Point::from_slice(&r.f64s(dims)?);
                entries.push(NodeEntry::Data(DataEntry::new(record, point)));
            } else {
                let page = PageId::new(r.u64()?);
                let lower = r.f64s(dims)?;
                let upper = r.f64s(dims)?;
                let mbr = Mbr::new(lower, upper).map_err(|e| {
                    StorageError::Corrupt(format!("node page holds an invalid MBR: {e}"))
                })?;
                entries.push(NodeEntry::Child { mbr, page });
            }
        }
        r.finish()?;
        Ok(Node { level, entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(node: &Node) -> Node {
        let mut buf = Vec::new();
        node.encode_page(&mut buf);
        Node::decode_page(&buf).expect("decode")
    }

    #[test]
    fn empty_node_roundtrips() {
        let node = Node::new(0);
        assert_eq!(roundtrip(&node), node);
    }

    #[test]
    fn leaf_roundtrips_bit_exactly() {
        let node = Node::leaf(vec![
            DataEntry::new(RecordId(7), Point::from_slice(&[0.25, 0.5, 1.0 / 3.0])),
            DataEntry::new(
                RecordId(u64::MAX),
                Point::from_slice(&[f64::MIN_POSITIVE, 0.0, 1.0]),
            ),
        ]);
        assert_eq!(roundtrip(&node), node);
    }

    #[test]
    fn internal_node_roundtrips() {
        let mut node = Node::new(2);
        node.entries.push(NodeEntry::Child {
            mbr: Mbr::new(vec![0.0, 0.1], vec![0.5, 0.9]).unwrap(),
            page: PageId::new(42),
        });
        node.entries.push(NodeEntry::Child {
            mbr: Mbr::new(vec![0.4, 0.0], vec![1.0, 0.3]).unwrap(),
            page: PageId::new(77),
        });
        assert_eq!(roundtrip(&node), node);
    }

    #[test]
    fn worst_case_node_fits_its_slot() {
        for dims in [2usize, 3, 4, 6] {
            let fanout = pref_storage::entries_per_page(dims);
            let slot = node_slot_size(dims, fanout);
            // the slot stays within one split-margin of the simulated page
            assert!(slot >= PAGE_SIZE, "dims={dims}");
            assert!(
                slot <= PAGE_SIZE + 8 + 2 * dims * 8 + NODE_HEADER + SLOT_HEADER,
                "dims={dims}: slot {slot} drifts from the 4 KiB page model"
            );
            // the worst shape — an internal node mid-split, fanout+1 wide
            // entries — really encodes within the slot
            let mut node = Node::new(1);
            let lower = vec![0.0; dims];
            let upper = vec![1.0; dims];
            for i in 0..=fanout {
                node.entries.push(NodeEntry::Child {
                    mbr: Mbr::new(lower.clone(), upper.clone()).unwrap(),
                    page: PageId::new(i as u64),
                });
            }
            let mut buf = Vec::new();
            node.encode_page(&mut buf);
            assert!(buf.len() + SLOT_HEADER <= slot, "dims={dims}");
        }
    }

    #[test]
    fn oversized_fanout_gets_a_larger_slot() {
        // entries_per_page floors at 4; at dims=100 those 4 entries do not
        // fit a 4 KiB page, so the slot must grow
        let slot = node_slot_size(100, 4);
        assert!(slot > PAGE_SIZE);
    }

    #[test]
    fn truncated_page_is_rejected() {
        let node = Node::leaf(vec![DataEntry::new(
            RecordId(1),
            Point::from_slice(&[0.1, 0.2]),
        )]);
        let mut buf = Vec::new();
        node.encode_page(&mut buf);
        for cut in 0..buf.len() {
            assert!(
                Node::decode_page(&buf[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
        // trailing garbage is rejected too
        buf.push(0);
        assert!(Node::decode_page(&buf).is_err());
    }

    #[test]
    fn a_lying_entry_count_is_refused_before_allocating() {
        let mut page = 0u32.to_le_bytes().to_vec();
        page.extend(2u16.to_le_bytes());
        page.extend(u32::MAX.to_le_bytes());
        let err = Node::decode_page(&page).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err:?}");
    }
}
