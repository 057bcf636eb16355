//! Criterion micro-benchmarks for the building blocks of the SB algorithm and
//! the ablations called out in DESIGN.md §6.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pref_assign::{sb, BestPairStrategy, Problem, SbOptions};
use pref_bench::{build_problem, Params, Scale};
use pref_datagen::{anti_correlated_objects, uniform_weight_functions};
use pref_geom::Point;
use pref_rtree::{RTree, RTreeConfig};
use pref_skyline::{compute_skyline_bbs, skyline_bnl, skyline_sfs, update_skyline};
use pref_topk::{FunctionLists, ReverseTopOne};

fn bench_params() -> Params {
    Params {
        num_functions: 300,
        num_objects: 5_000,
        dims: 3,
        ..Params::defaults(Scale::Quick)
    }
}

/// STR bulk load versus one-by-one insertion (design choice #5).
fn rtree_build(c: &mut Criterion) {
    let points = anti_correlated_objects(5_000, 3, 11);
    let mut group = c.benchmark_group("rtree_build");
    group.sample_size(10);
    group.bench_function("str_bulk_load", |b| {
        b.iter(|| {
            RTree::bulk_load(RTreeConfig::for_dims(3), points.clone()).unwrap();
        })
    });
    group.bench_function("insert_one_by_one", |b| {
        b.iter(|| {
            let mut tree = RTree::with_dims(3);
            for (r, p) in &points {
                tree.insert(*r, p.clone()).unwrap();
            }
        })
    });
    group.finish();
}

/// Index-based BBS versus the memory-resident skyline algorithms.
fn skyline_algorithms(c: &mut Criterion) {
    let points = anti_correlated_objects(10_000, 4, 13);
    let mut group = c.benchmark_group("skyline");
    group.sample_size(10);
    group.bench_function("bbs_on_rtree", |b| {
        b.iter_batched(
            || RTree::bulk_load(RTreeConfig::for_dims(4), points.clone()).unwrap(),
            |mut tree| compute_skyline_bbs(&mut tree),
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function("bnl", |b| b.iter(|| skyline_bnl(&points)));
    group.bench_function("sfs", |b| b.iter(|| skyline_sfs(&points)));
    group.finish();
}

/// UpdateSkyline versus DeltaSky over a burst of deletions (design choice #1).
fn skyline_maintenance(c: &mut Criterion) {
    let points = anti_correlated_objects(8_000, 3, 17);
    let mut group = c.benchmark_group("skyline_maintenance");
    group.sample_size(10);
    group.bench_function("update_skyline_100_removals", |b| {
        b.iter_batched(
            || {
                let mut tree = RTree::bulk_load(RTreeConfig::for_dims(3), points.clone()).unwrap();
                let sky = compute_skyline_bbs(&mut tree);
                (tree, sky)
            },
            |(mut tree, mut sky)| {
                for _ in 0..100 {
                    let Some(&victim) = sky.records().iter().min() else {
                        break;
                    };
                    let obj = sky.remove(victim).unwrap();
                    update_skyline(&mut tree, &mut sky, vec![obj]);
                }
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// A fresh reverse top-1 search (TA on its allowance, then the alive-block
/// scan) versus the scalar exhaustive scan (design choices #2 and #3), on
/// both sides of the allowance: 5000×4, where the threshold is tight and TA
/// answers within it, and the `solve-wide` shape 200×12, where it is loose
/// and the search falls back.
fn reverse_top1(c: &mut Criterion) {
    let mut group = c.benchmark_group("reverse_top1");
    for (n, omega, coords) in [
        (5_000, 125, &[0.9, 0.4, 0.7, 0.2][..]),
        (
            200,
            5,
            &[
                0.9, 0.4, 0.7, 0.2, 0.5, 0.3, 0.8, 0.1, 0.6, 0.35, 0.75, 0.25,
            ][..],
        ),
    ] {
        let dims = coords.len();
        let lists = FunctionLists::new(&uniform_weight_functions(n, dims, 19));
        let object = Point::from_slice(coords);
        group.bench_function(format!("bounded_search_{n}x{dims}"), |b| {
            b.iter(|| {
                let mut search = ReverseTopOne::new(object.clone(), omega);
                search.best(&lists)
            })
        });
        group.bench_function(format!("exhaustive_scan_{n}x{dims}"), |b| {
            b.iter(|| lists.best_by_scan(&object))
        });
    }
    group.finish();
}

/// Full SB runs: optimized versus the single-pair and fresh-TA ablations
/// (design choice #4).
fn sb_variants(c: &mut Criterion) {
    let params = bench_params();
    let problem: Problem = build_problem(&params);
    let mut group = c.benchmark_group("sb_variants");
    group.sample_size(10);
    let variants = [
        ("optimized", SbOptions::default()),
        (
            "single_pair",
            SbOptions {
                multiple_pairs_per_loop: false,
                ..SbOptions::default()
            },
        ),
        (
            "fresh_ta",
            SbOptions {
                best_pair: BestPairStrategy::FreshTa,
                ..SbOptions::default()
            },
        ),
    ];
    for (name, opts) in variants {
        group.bench_with_input(BenchmarkId::from_parameter(name), &opts, |b, opts| {
            b.iter_batched(
                || problem.build_tree(None, 0.02),
                |mut tree| sb(&problem, &mut tree, opts),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// End-to-end comparison of the three competitors at quick scale — the
/// microbenchmark twin of Figure 9.
fn competitors(c: &mut Criterion) {
    use pref_bench::AlgorithmKind;
    let params = bench_params();
    let problem: Problem = build_problem(&params);
    let mut group = c.benchmark_group("competitors");
    group.sample_size(10);
    for algo in AlgorithmKind::standard_set() {
        group.bench_with_input(
            BenchmarkId::from_parameter(algo.label()),
            &algo,
            |b, algo| {
                b.iter_batched(
                    || problem.build_tree(None, 0.02),
                    |mut tree| algo.run(&problem, &mut tree, 0.025),
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    rtree_build,
    skyline_algorithms,
    skyline_maintenance,
    reverse_top1,
    sb_variants,
    competitors
);
criterion_main!(benches);
