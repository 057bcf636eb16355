//! The durable-format corpus: shard roots written by earlier builds,
//! committed under `tests/corpus/`, and what this build must do with each.
//!
//! * `v1/` — the layout with a separate checkpoint file per generation,
//!   whose log segments start with a batch. This build refuses it with a typed
//!   error and leaves every byte of it as it was.
//! * `v2/` — the current layout, where record `S` of `wal-<S>.log` is the
//!   shard's snapshot. It recovers to the matching listed in
//!   `v2/expected.txt`, and this build's writer still produces it byte for
//!   byte.
//!
//! Each fixture is a service root whose `shard-0/` rotated twice and was
//! shut down cleanly. `DURABLE_FORMAT_BLESS=1 cargo test -p pref_service
//! --test durable_format` rewrites `v2/` and its `expected.txt` with this
//! build's writer; nothing rewrites `v1/`.

#![allow(
    clippy::disallowed_methods,
    reason = "the corpus test copies, lists and compares shard directories itself"
)]

use pref_assign::{FunctionId, ObjectRecord, PreferenceFunction, Problem};
use pref_engine::{AssignmentEngine, EngineOptions};
use pref_geom::{LinearFunction, Point};
use pref_rtree::RecordId;
use pref_service::{
    AssignmentSnapshot, DurabilityConfig, FsyncPolicy, ServiceConfig, ServiceError,
    ShardDurability, ShardHandle, ShardedService, UpdateOp,
};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Batches per generation of the fixture's shard.
const CHECKPOINT_EVERY: u64 = 4;

fn corpus(version: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus")
        .join(version)
}

fn temp_dir(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("pref_service_format_{}_{name}", std::process::id()));
    let _ = fs::remove_dir_all(&p);
    p
}

/// Coordinates in hundredths, weights in eighths, chosen so that no
/// function scores two objects alike: recovery re-solves from the snapshot,
/// and under an exact tie it may settle on another stable matching than
/// the one the writer served.
fn object(id: u64, x: u32, y: u32) -> ObjectRecord {
    ObjectRecord::new(id, Point::from_slice(&[x as f64 / 100.0, y as f64 / 100.0]))
}

fn function(id: usize, w0: u32) -> PreferenceFunction {
    let w = w0 as f64 / 8.0;
    PreferenceFunction::new(id, LinearFunction::new(vec![w, 1.0 - w]).unwrap())
}

fn problem() -> Problem {
    let functions = vec![
        function(0, 7),
        PreferenceFunction {
            capacity: 2,
            ..function(1, 4)
        },
        function(2, 1),
    ];
    let objects = vec![
        object(0, 52, 46),
        object(1, 23, 71),
        object(2, 88, 12),
        object(3, 9, 81),
        object(4, 64, 29),
    ];
    Problem::new(functions, objects).unwrap()
}

/// Eleven batches: arrivals, departures, function churn, an unknown id
/// (rejected when applied) and a capacity-0 arrival (left out of the
/// record).
fn batches() -> Vec<Vec<UpdateOp>> {
    let insert = |id, x, y| UpdateOp::InsertObject(object(id, x, y));
    let remove = |id| UpdateOp::RemoveObject(RecordId(id));
    vec![
        vec![insert(10, 77, 69), insert(11, 35, 57)],
        vec![remove(0)],
        vec![UpdateOp::InsertFunction(function(3, 6)), insert(12, 71, 26)],
        vec![remove(99)],
        vec![
            UpdateOp::InsertObject(ObjectRecord {
                capacity: 0,
                ..object(13, 14, 11)
            }),
            insert(14, 96, 3),
        ],
        vec![UpdateOp::RemoveFunction(FunctionId(0)), remove(2)],
        vec![insert(15, 4, 97)],
        vec![remove(10), insert(16, 49, 54)],
        vec![UpdateOp::InsertFunction(function(4, 2))],
        vec![remove(1), insert(17, 27, 68)],
        vec![remove(11)],
    ]
}

/// Canonical matching: sorted `(function, object, score bits)` triples.
fn canonical(snap: &AssignmentSnapshot) -> Vec<(usize, u64, u64)> {
    let mut out = Vec::new();
    for f in snap.functions() {
        for (object, score) in snap.assignment_of(f.id).into_iter().flatten() {
            out.push((f.id.0, object.0, score.to_bits()));
        }
    }
    out.sort_unstable();
    out
}

/// Writes the fixture under `root`: one durable shard over `problem()` fed
/// `batches()` one flush at a time, then shut down cleanly. Returns the
/// matching it served last, which a recovery must reproduce.
fn write_fixture(root: &Path) -> Vec<(usize, u64, u64)> {
    let options = EngineOptions::default();
    let engine = AssignmentEngine::new(&problem(), &options).unwrap();
    let initial = engine.export_snapshot();
    let durability = ShardDurability::create(
        &root.join("shard-0"),
        FsyncPolicy::Always,
        CHECKPOINT_EVERY,
        &initial.functions,
        &initial.objects,
    )
    .unwrap();
    let shard = ShardHandle::spawn(engine, Some(durability), 64, 0, None).unwrap();
    for batch in batches() {
        shard.submit_batch(batch).unwrap();
        shard.flush().unwrap();
    }
    let served = canonical(&shard.latest());
    drop(shard); // the writer's clean exit trims the active segment
    served
}

fn render(matching: &[(usize, u64, u64)]) -> String {
    matching
        .iter()
        .map(|(f, o, bits)| format!("{f} {o} {bits:016x}\n"))
        .collect()
}

/// Every file under `dir`, by path relative to it.
fn files(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(at) = pending.pop() {
        for entry in fs::read_dir(&at).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let bytes = fs::read(&path).unwrap();
                out.insert(path.strip_prefix(dir).unwrap().to_path_buf(), bytes);
            }
        }
    }
    out
}

fn copy_of(version: &str) -> (PathBuf, ServiceConfig) {
    let root = temp_dir(version);
    for (name, bytes) in files(&corpus(version)) {
        let path = root.join(name);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, bytes).unwrap();
    }
    let config = ServiceConfig {
        durability: Some(DurabilityConfig::new(&root)),
        ..ServiceConfig::default()
    };
    (root, config)
}

#[test]
fn v1_is_refused_with_a_typed_error_and_left_untouched() {
    let (root, config) = copy_of("v1");
    let before = files(&root);
    assert!(
        before
            .keys()
            .any(|p| p.to_string_lossy().contains("checkpoint-")),
        "v1 holds checkpoint files"
    );
    match ShardedService::recover(&config) {
        Err(ServiceError::Durability(msg)) => assert!(msg.contains("snapshot"), "{msg}"),
        Err(e) => panic!("v1 refused with the wrong error: {e}"),
        Ok(_) => panic!("v1 must be refused"),
    }
    assert!(
        files(&root) == before,
        "a refused root is left byte-identical"
    );
    fs::remove_dir_all(&root).ok();
}

#[test]
fn v2_recovers_to_its_expected_matching() {
    let (root, config) = copy_of("v2");
    let expected = fs::read_to_string(corpus("v2").join("expected.txt")).unwrap();
    let service = ShardedService::recover(&config).unwrap();
    assert_eq!(service.num_shards(), 1);
    let snap = service.shard(0).unwrap().latest();
    snap.verify().unwrap();
    assert_eq!(render(&canonical(&snap)), expected);
    service.shutdown().unwrap();
    fs::remove_dir_all(&root).ok();
}

#[test]
fn v2_is_what_this_build_writes() {
    if std::env::var_os("DURABLE_FORMAT_BLESS").is_some() {
        let dir = corpus("v2");
        let _ = fs::remove_dir_all(&dir);
        let served = write_fixture(&dir);
        fs::write(dir.join("expected.txt"), render(&served)).unwrap();
        return;
    }
    let root = temp_dir("v2_fresh");
    let served = write_fixture(&root);
    fs::write(root.join("expected.txt"), render(&served)).unwrap();
    let (fresh, committed) = (files(&root), files(&corpus("v2")));
    assert_eq!(
        fresh.keys().collect::<Vec<_>>(),
        committed.keys().collect::<Vec<_>>()
    );
    for (name, bytes) in &committed {
        assert!(
            &fresh[name] == bytes,
            "{} differs from what this build writes: a format change needs a new corpus version",
            name.display()
        );
    }
    fs::remove_dir_all(&root).ok();
}
