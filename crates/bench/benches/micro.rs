//! Criterion micro-benchmarks for the building blocks of the SB algorithm
//! (R-tree build, skylines, skyline maintenance, the dominance scan, reverse
//! top-1 search), for SB with one optimization switched off at a time, and for
//! the competitors.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pref_assign::{
    sb, BestPairStrategy, BruteForceSolver, ChainSolver, Problem, SbOptions, SbSolver, Solver,
};
use pref_bench::{build_problem, Params, Scale};
use pref_datagen::{anti_correlated_objects, independent_objects, uniform_weight_functions};
use pref_geom::{kernel, Point};
use pref_rtree::{RTree, RTreeConfig};
use pref_skyline::{compute_skyline_bbs, update_skyline};
use pref_topk::{FunctionLists, ReverseTopOne, ScanTopOne};
use std::hint::black_box;

fn bench_params() -> Params {
    Params {
        num_functions: 300,
        num_objects: 5_000,
        dims: 3,
        ..Params::defaults(Scale::Quick)
    }
}

/// STR bulk load versus one-by-one insertion, and STR bulk load at the object
/// trees of `solve-anti` (anti-correlated D = 4, 20 000 objects) and
/// `solve-wide` (independent D = 12, 5 000 objects).
fn rtree_build(c: &mut Criterion) {
    let points = anti_correlated_objects(5_000, 3, 11);
    let mut group = c.benchmark_group("rtree_build");
    group.sample_size(10);
    group.bench_function("str_bulk_load", |b| {
        b.iter(|| {
            RTree::bulk_load(RTreeConfig::for_dims(3), points.clone()).unwrap();
        })
    });
    for (name, dims, points) in [
        (
            "str_bulk_load_anti_20000_d4",
            4,
            anti_correlated_objects(20_000, 4, 11),
        ),
        (
            "str_bulk_load_indep_5000_d12",
            12,
            independent_objects(5_000, 12, 31),
        ),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || points.clone(),
                |points| RTree::bulk_load(RTreeConfig::for_dims(dims), points).unwrap(),
                criterion::BatchSize::LargeInput,
            )
        });
    }
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

/// Index-based BBS: anti-correlated D = 4, and independent D = 12 at the
/// `solve-wide` shape, where nearly every object is on the skyline and BBS
/// is the largest phase of a solve.
fn skyline_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("skyline");
    group.sample_size(10);
    for (name, dims, points) in [
        ("bbs_on_rtree", 4, anti_correlated_objects(10_000, 4, 13)),
        ("bbs_on_rtree_d12", 12, independent_objects(5_000, 12, 31)),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || RTree::bulk_load(RTreeConfig::for_dims(dims), points.clone()).unwrap(),
                |mut tree| compute_skyline_bbs(&mut tree),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// UpdateSkyline versus DeltaSky over a burst of deletions.
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

/// `kernel::first_dominator` over a skyline block at the two solve shapes:
/// anti-correlated D = 4 (`solve-anti`) and independent D = 12 (`solve-wide`,
/// past the const ladder). A hit query is an object off the skyline, which
/// some row dominates; a miss query is a skyline object, which no row does,
/// so the scan reads the whole block.
fn dominance(c: &mut Criterion) {
    let mut group = c.benchmark_group("dominance");
    group.sample_size(200);
    for (dims, points) in [
        (4, anti_correlated_objects(20_000, 4, 23)),
        (12, independent_objects(5_000, 12, 29)),
    ] {
        let mut tree = RTree::bulk_load(RTreeConfig::for_dims(dims), points.clone()).unwrap();
        let sky = compute_skyline_bbs(&mut tree);
        let (miss, hit): (Vec<&Point>, Vec<&Point>) = points
            .iter()
            .map(|(_, p)| p)
            .partition(|p| kernel::first_dominator(sky.block(), p.coords()).is_none());
        for (name, queries) in [("hit", hit), ("miss", miss)] {
            let queries = &queries[..queries.len().min(256)];
            group.bench_function(format!("{name}_d{dims}"), |b| {
                b.iter(|| {
                    for q in queries {
                        black_box(kernel::first_dominator(sky.block(), black_box(q.coords())));
                    }
                })
            });
        }
    }
    group.finish();
}

/// A fresh reverse top-1 search by the paper's TA versus one by the default
/// columnar scan, at 5000×4, where the knapsack threshold is tight, at the
/// `solve-anti` shape 1000×4, and at the `solve-wide` shape 200×12, where it
/// is loose.
fn reverse_top1(c: &mut Criterion) {
    let mut group = c.benchmark_group("reverse_top1");
    // one search takes microseconds: enough of them to average out the timer
    group.sample_size(1000);
    for (n, omega, coords) in [
        (5_000, 125, &[0.9, 0.4, 0.7, 0.2][..]),
        (1_000, 25, &[0.9, 0.4, 0.7, 0.2][..]),
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
        group.bench_function(format!("ta_{n}x{dims}"), |b| {
            b.iter(|| ReverseTopOne::new(object.clone(), omega).best(&lists))
        });
        group.bench_function(format!("scan_{n}x{dims}"), |b| {
            b.iter(|| ScanTopOne::new(object.clone()).best(lists.functions()))
        });
    }
    group.finish();
}

/// Full SB runs: the default versus the single-pair and fresh-TA ablations.
fn sb_variants(c: &mut Criterion) {
    let params = bench_params();
    let problem: Problem = build_problem(&params);
    let mut group = c.benchmark_group("sb_variants");
    group.sample_size(10);
    let variants = [
        ("default", SbOptions::default()),
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
    let params = bench_params();
    let problem: Problem = build_problem(&params);
    let mut group = c.benchmark_group("competitors");
    group.sample_size(10);
    let solvers: [&dyn Solver; 3] = [
        &BruteForceSolver,
        &ChainSolver,
        &SbSolver::with_omega(params.omega_fraction),
    ];
    for solver in solvers {
        group.bench_with_input(
            BenchmarkId::from_parameter(solver.name()),
            &solver,
            |b, solver| {
                b.iter_batched(
                    || problem.build_tree(None, 0.02),
                    |mut tree| solver.solve(&problem, &mut tree),
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
    dominance,
    reverse_top1,
    sb_variants,
    competitors
);
criterion_main!(benches);
