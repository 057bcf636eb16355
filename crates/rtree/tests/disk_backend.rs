//! The on-disk backend demo required by the durability milestone: a tree
//! whose data set is much larger than the configured buffer, served from a
//! real page file with real write I/O reported in the stats.

#![allow(
    clippy::disallowed_methods,
    reason = "tests measure and remove their scratch page files"
)]

use pref_geom::Point;
use pref_rtree::{DataEntry, RTree, RTreeConfig, RecordId};
use std::path::PathBuf;

fn temp_file(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "pref_rtree_disk_{}_{name}.pages",
        std::process::id()
    ));
    p
}

/// Deterministic pseudo-random coordinates (splitmix64 -> [0, 1)).
fn coord(seed: &mut u64) -> f64 {
    *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

fn dataset(n: usize, dims: usize) -> Vec<DataEntry> {
    let mut seed = 0xfa17_a551u64;
    (0..n)
        .map(|i| {
            let coords: Vec<f64> = (0..dims).map(|_| coord(&mut seed)).collect();
            DataEntry::new(RecordId(i as u64), Point::from_slice(&coords))
        })
        .collect()
}

#[test]
fn dataset_larger_than_buffer_lives_on_disk() {
    let path = temp_file("larger_than_buffer");
    // tiny fanout + tiny buffer: the tree has far more pages than frames
    let config = RTreeConfig::for_dims(3)
        .with_fanout(8)
        .with_buffer_frames(4);
    let mut tree = RTree::new_on_disk(config, &path).unwrap();
    assert!(tree.is_on_disk());

    let data = dataset(2000, 3);
    for d in &data {
        tree.insert(d.record, d.point.clone()).unwrap();
    }
    assert_eq!(tree.len(), 2000);
    assert!(
        tree.num_pages() > 10 * tree.buffer_frames(),
        "the tree ({} pages) must dwarf the buffer ({} frames)",
        tree.num_pages(),
        tree.buffer_frames()
    );
    let stats = tree.stats();
    assert!(
        stats.page_writes > 0,
        "building past the buffer must cause real page writes"
    );
    assert!(
        stats.physical_reads > 0,
        "cold pages must be faulted back in"
    );
    // the page file on disk really holds the evicted pages
    let file_len = std::fs::metadata(&path).unwrap().len();
    assert!(
        file_len > 0,
        "evictions must have materialized the page file"
    );

    // every record is still found exactly where it was inserted
    for d in data.iter().step_by(97) {
        let range = pref_geom::Mbr::from_point(&d.point);
        let hits = tree.range_query(&range);
        assert!(
            hits.iter().any(|e| e.record == d.record),
            "record {} lost",
            d.record
        );
    }

    // structural invariants hold on a full in-memory materialization,
    // and the materialized fork carries the same data set
    let fork = tree.fork_in_memory();
    fork.check_invariants().unwrap();
    let mut from_disk: Vec<u64> = fork
        .all_data_unaccounted()
        .iter()
        .map(|d| d.record.raw())
        .collect();
    from_disk.sort_unstable();
    let want: Vec<u64> = (0..2000).collect();
    assert_eq!(from_disk, want);

    tree.flush().unwrap();
    assert!(tree.stats().sync_calls > 0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn disk_tree_handles_deletions_and_slot_reuse() {
    let path = temp_file("churn");
    let config = RTreeConfig::for_dims(2)
        .with_fanout(6)
        .with_buffer_frames(3);
    let mut tree = RTree::new_on_disk(config, &path).unwrap();
    let data = dataset(400, 2);
    for d in &data {
        tree.insert(d.record, d.point.clone()).unwrap();
    }
    // delete every other record (condense-tree frees pages, slots get reused)
    for d in data.iter().step_by(2) {
        tree.delete(d.record, &d.point).unwrap();
    }
    assert_eq!(tree.len(), 200);
    for (i, d) in data.iter().enumerate() {
        let range = pref_geom::Mbr::from_point(&d.point);
        let hits = tree.range_query(&range);
        let found = hits.iter().any(|e| e.record == d.record);
        assert_eq!(found, i % 2 == 1, "record {}", d.record);
    }
    let fork = tree.fork_in_memory();
    fork.check_invariants().unwrap();
    std::fs::remove_file(&path).ok();
}

#[test]
fn disk_and_memory_trees_agree_on_queries() {
    let path = temp_file("differential");
    let config = RTreeConfig::for_dims(3).with_fanout(8);
    let mut mem = RTree::new(config.clone().with_buffer_frames(0));
    let mut disk = RTree::new_on_disk(config.with_buffer_frames(2), &path).unwrap();
    let data = dataset(600, 3);
    for d in &data {
        mem.insert(d.record, d.point.clone()).unwrap();
        disk.insert(d.record, d.point.clone()).unwrap();
    }
    let mut seed = 77u64;
    for _ in 0..25 {
        let a: Vec<f64> = (0..3).map(|_| coord(&mut seed)).collect();
        let b: Vec<f64> = (0..3).map(|_| coord(&mut seed)).collect();
        let lo: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x.min(*y)).collect();
        let hi: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x.max(*y)).collect();
        let range = pref_geom::Mbr::new(lo, hi).unwrap();
        let mut want: Vec<u64> = mem
            .range_query(&range)
            .iter()
            .map(|e| e.record.raw())
            .collect();
        let mut got: Vec<u64> = disk
            .range_query(&range)
            .iter()
            .map(|e| e.record.raw())
            .collect();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want);
    }
    std::fs::remove_file(&path).ok();
}
