//! Pins the tree itself, not just the answers: a seeded stream of inserts and
//! deletes (node splits, condenses with orphan re-insertion and root shrinks
//! included) must leave exactly the same pages — level, entry order, child
//! pages, record ids, MBR bits — and exactly the same I/O counters.
//!
//! The stream runs on the in-memory backend and on a page file with a
//! 2-frame buffer, where a node read on the way down is routinely evicted
//! before the way back up. A change to ChooseSubtree, to the split, to the
//! condense order or to what an update charges moves a pin.

#![allow(
    clippy::disallowed_methods,
    reason = "the disk run removes its scratch page file"
)]

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

fn hash_page(tree: &mut RTree, page: PageId, h: &mut Fnv) {
    let (level, entries) = tree.node_entries(page);
    h.word(page.raw());
    h.word(u64::from(level));
    h.word(entries.len() as u64);
    for entry in &entries {
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
    for entry in &entries {
        if let Some(child) = entry.child_page() {
            hash_page(tree, child, h);
        }
    }
}

/// `(hash of every page, hash of the I/O counters)`.
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
    // walk an in-memory fork so the walk charges nothing to `tree`
    let mut fork = tree.fork_in_memory();
    fork.check_invariants().unwrap();
    let mut p = Fnv(0xcbf2_9ce4_8422_2325);
    p.word(u64::from(fork.height()));
    p.word(fork.len() as u64);
    p.word(fork.num_pages() as u64);
    if let Some(root) = fork.root_page() {
        hash_page(&mut fork, root, &mut p);
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
        got, want,
        "D={dims} seed {seed}: (pages, io) fingerprint {got:#018x?} != pinned {want:#018x?}"
    );
}

fn on_disk(dims: usize, name: &str) -> (RTree, std::path::PathBuf) {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "pref_rtree_shape_pin_{}_{name}.pages",
        std::process::id()
    ));
    let tree = RTree::new_on_disk(config(dims).with_buffer_frames(2), &path).unwrap();
    (tree, path)
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

#[test]
fn shape_pin_disk_d4() {
    let (mut tree, path) = on_disk(4, "d4");
    check(&mut tree, 4, 4, PIN_DISK_D4);
    std::fs::remove_file(path).ok();
}

#[test]
fn shape_pin_disk_d12() {
    let (mut tree, path) = on_disk(12, "d12");
    check(&mut tree, 12, 12, PIN_DISK_D12);
    std::fs::remove_file(path).ok();
}

// Taken from the tree before its updates edited pages in place; both
// backends build the same pages, and only the I/O counters differ.
const PIN_MEMORY_D4: (u64, u64) = (0x5dd8_ac70_cc03_ac27, 0xb9a5_2f3d_558c_a3a7);
const PIN_MEMORY_D12: (u64, u64) = (0xf9dd_ed78_8816_5721, 0xd776_5ce6_39b0_f026);
const PIN_DISK_D4: (u64, u64) = (0x5dd8_ac70_cc03_ac27, 0x161c_65bd_357c_6c5c);
const PIN_DISK_D12: (u64, u64) = (0xf9dd_ed78_8816_5721, 0x620d_f592_2416_0a2b);
