//! Pins the tree itself, not just the answers: a seeded stream of inserts and
//! deletes (node splits, condenses with orphan re-insertion and root shrinks
//! included) must leave exactly the same pages — level, entry order, child
//! pages, record ids, MBR bits — and exactly the same I/O counters.
//!
//! The stream runs with a 4-frame buffer. A change to ChooseSubtree, to the
//! split, to the condense order or to what an update charges moves a pin.
//! The fingerprint itself charges nothing, and the stream tests check that
//! it does not.
//!
//! The `bulk_pin_*` tests pin STR bulk loads the same way: grid points put
//! duplicate points and exact key ties at every tiling level, one set mixes
//! −0.0 with 0.0 in each dimension, and a small fanout stacks four levels. A
//! change to the tiling order, to how ties break or to how −0.0 compares
//! moves a pin.

use pref_geom::Point;
use pref_rtree::{NodeEntry, RTree, RTreeConfig, RecordId};
use pref_storage::{IoStats, PageId};

/// Deterministic pseudo-random stream (splitmix64).
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A coordinate on a 1/32 grid, so equal enlargements (and duplicate
    /// points) are common and every tie-break is exercised.
    fn coord(&mut self) -> f64 {
        (self.next() % 33) as f64 / 32.0
    }

    /// A coordinate on a signed 1/8 grid, with zero in a ninth of draws and
    /// −0.0 in half of those.
    fn signed_coord(&mut self) -> f64 {
        let magnitude = (self.next() % 9) as f64 / 8.0;
        if self.next().is_multiple_of(2) {
            magnitude
        } else {
            -magnitude
        }
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// What the stream made the tree do; each must have happened at least once.
#[derive(Debug, Default)]
struct Events {
    splits: usize,
    freed: usize,
    shrinks: usize,
    root_shrinks: usize,
}

/// A stream in progress: the tree, the records live in it, and what the
/// stream has made the tree do so far.
struct Run<'a> {
    tree: &'a mut RTree,
    dims: usize,
    rng: Stream,
    live: Vec<(RecordId, Point)>,
    next_id: u64,
    events: Events,
}

impl Run<'_> {
    fn insert(&mut self) {
        let coords: Vec<f64> = (0..self.dims).map(|_| self.rng.coord()).collect();
        let point = Point::from_slice(&coords);
        let record = RecordId(self.next_id);
        self.next_id += 1;
        let splits = self.tree.insert_tracked(record, point.clone()).unwrap();
        self.events.splits += splits.len();
        self.live.push((record, point));
    }

    fn delete(&mut self) {
        let (record, point) = self.live.swap_remove(self.rng.below(self.live.len()));
        let height = self.tree.height();
        let outcome = self.tree.delete_tracked(record, &point).unwrap();
        self.events.splits += outcome.splits.len();
        self.events.freed += outcome.freed.len();
        self.events.shrinks += outcome.shrinks.len();
        if self.tree.height() < height {
            self.events.root_shrinks += 1;
        }
    }
}

/// Grows the tree, churns it, deletes it down to 3 records (condensing and
/// shrinking the root) and grows it again.
fn run_stream(tree: &mut RTree, dims: usize, seed: u64) -> Events {
    let mut run = Run {
        tree,
        dims,
        rng: Stream(seed),
        live: Vec::new(),
        next_id: 0,
        events: Events::default(),
    };
    for _ in 0..400 {
        run.insert();
    }
    for _ in 0..800 {
        if run.live.is_empty() || run.rng.below(2) == 0 {
            run.insert();
        } else {
            run.delete();
        }
    }
    while run.live.len() > 3 {
        run.delete();
    }
    for _ in 0..120 {
        run.insert();
    }
    assert_eq!(run.tree.len(), run.live.len());
    run.events
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn coords(&mut self, coords: &[f64]) {
        for c in coords {
            self.word(c.to_bits());
        }
    }
}

fn hash_page(tree: &RTree, page: PageId, h: &mut Fnv) {
    let node = tree.peek_node(page).expect("live page");
    h.word(page.raw());
    h.word(u64::from(node.level));
    h.word(node.entries.len() as u64);
    for entry in &node.entries {
        match entry {
            NodeEntry::Child { mbr, page } => {
                h.word(page.raw());
                h.coords(mbr.lower());
                h.coords(mbr.upper());
            }
            NodeEntry::Data(d) => {
                h.word(d.record.raw());
                h.coords(d.point.coords());
            }
        }
    }
    for entry in &node.entries {
        if let Some(child) = entry.child_page() {
            hash_page(tree, child, h);
        }
    }
}

/// `(hash of every page, hash of the I/O counters)`. The counters are hashed
/// first, and the walk after them is uncharged.
fn fingerprint(tree: &mut RTree) -> (u64, u64) {
    let stats: IoStats = tree.stats();
    let mut s = Fnv(0xcbf2_9ce4_8422_2325);
    for w in [
        stats.logical_reads,
        stats.buffer_hits,
        stats.physical_reads,
        stats.physical_writes,
        stats.pages_allocated,
        stats.pages_freed,
        stats.buffer_invalidations,
        stats.page_writes,
        stats.sync_calls,
    ] {
        s.word(w);
    }
    tree.check_invariants().unwrap();
    let mut p = Fnv(0xcbf2_9ce4_8422_2325);
    p.word(u64::from(tree.height()));
    p.word(tree.len() as u64);
    p.word(tree.num_pages() as u64);
    if let Some(root) = tree.root_page() {
        hash_page(tree, root, &mut p);
    }
    (p.0, s.0)
}

fn config(dims: usize) -> RTreeConfig {
    RTreeConfig::for_dims(dims).with_fanout(8)
}

fn check(tree: &mut RTree, dims: usize, seed: u64, want: (u64, u64)) {
    let events = run_stream(tree, dims, seed);
    assert!(events.splits > 0, "no split: {events:?}");
    assert!(events.freed > 0, "no condense: {events:?}");
    assert!(events.shrinks > 0, "no MBR shrink: {events:?}");
    assert!(events.root_shrinks > 0, "no root shrink: {events:?}");
    let got = fingerprint(tree);
    assert_eq!(
        fingerprint(tree),
        got,
        "the fingerprint walk charged the tree"
    );
    assert_eq!(
        got, want,
        "D={dims} seed {seed}: (pages, io) fingerprint {got:#018x?} != pinned {want:#018x?}"
    );
}

#[test]
fn shape_pin_memory_d4() {
    let mut tree = RTree::new(config(4).with_buffer_frames(4));
    check(&mut tree, 4, 4, PIN_MEMORY_D4);
}

#[test]
fn shape_pin_memory_d12() {
    let mut tree = RTree::new(config(12).with_buffer_frames(4));
    check(&mut tree, 12, 12, PIN_MEMORY_D12);
}

/// `n` seeded records: on the 1/32 grid, or on the signed 1/8 grid.
fn grid_records(n: usize, dims: usize, seed: u64, signed: bool) -> Vec<(RecordId, Point)> {
    let mut rng = Stream(seed);
    (0..n as u64)
        .map(|i| {
            let coords: Vec<f64> = (0..dims)
                .map(|_| {
                    if signed {
                        rng.signed_coord()
                    } else {
                        rng.coord()
                    }
                })
                .collect();
            (RecordId(i), Point::from_slice(&coords))
        })
        .collect()
}

/// Bulk-loads `records` and returns the tree's height and fingerprint.
fn bulk_fingerprint(config: RTreeConfig, records: Vec<(RecordId, Point)>) -> (u32, (u64, u64)) {
    let n = records.len();
    let mut tree = RTree::bulk_load(config, records).unwrap();
    assert_eq!(tree.len(), n);
    (tree.height(), fingerprint(&mut tree))
}

#[test]
fn bulk_pin_d4() {
    let (height, got) = bulk_fingerprint(config(4), grid_records(2000, 4, 4, false));
    assert_eq!(height, 4);
    assert_eq!(got, PIN_BULK_D4, "{got:#018x?}");
}

#[test]
fn bulk_pin_d12() {
    let (height, got) = bulk_fingerprint(config(12), grid_records(2000, 12, 12, false));
    assert_eq!(height, 4);
    assert_eq!(got, PIN_BULK_D12, "{got:#018x?}");
}

#[test]
fn bulk_pin_signed_zero() {
    let records = grid_records(1000, 3, 3, true);
    for d in 0..3 {
        let zeros = |negative: bool| {
            records
                .iter()
                .filter(|(_, p)| p.coord(d) == 0.0 && p.coord(d).is_sign_negative() == negative)
                .count()
        };
        assert!(zeros(true) > 0 && zeros(false) > 0, "dimension {d}");
    }
    let (height, got) = bulk_fingerprint(config(3), records);
    assert!(height >= 3);
    assert_eq!(got, PIN_BULK_SIGNED_ZERO, "{got:#018x?}");
}

/// One record, a single full leaf, and one record too many for a leaf.
#[test]
fn bulk_pin_leaf_sizes() {
    for (n, height, want) in [(1, 1, PIN_BULK_1), (8, 1, PIN_BULK_8), (9, 2, PIN_BULK_9)] {
        let got = bulk_fingerprint(config(4), grid_records(n, 4, 9, false));
        assert_eq!(got, (height, want), "n = {n}: {got:#018x?}");
    }
}

// Taken from the tree before its updates edited pages in place.
const PIN_MEMORY_D4: (u64, u64) = (0x5dd8_ac70_cc03_ac27, 0xb9a5_2f3d_558c_a3a7);
const PIN_MEMORY_D12: (u64, u64) = (0xf9dd_ed78_8816_5721, 0xd776_5ce6_39b0_f026);

// Taken from the tree before STR ranked a key column instead of sorting
// entries level by level.
const PIN_BULK_D4: (u64, u64) = (0xf183_6001_9ec7_4b0f, 0x2277_6dd7_ba8e_3ae3);
const PIN_BULK_D12: (u64, u64) = (0xeaa8_7108_0a58_92d9, 0x2d97_2784_23f9_65db);
const PIN_BULK_SIGNED_ZERO: (u64, u64) = (0xc548_99d5_79c3_8dd4, 0x6017_3825_5015_add1);
const PIN_BULK_1: (u64, u64) = (0xbe67_40f6_f75b_e195, 0xa02f_2b16_e4b1_2424);
const PIN_BULK_8: (u64, u64) = (0x30d6_4fcb_03c7_b019, 0xa02f_2b16_e4b1_2424);
const PIN_BULK_9: (u64, u64) = (0xfded_06dd_9827_724e, 0xdd67_3cab_ca56_5966);
