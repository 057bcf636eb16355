//! Property tests: after any seeded sequence of updates, the engine's
//! incrementally repaired matching is stable and identical to the batch
//! result on the current problem snapshot — checked against the exact oracle
//! after every single update, and against every [`Solver`] variant on the
//! final snapshot.

use pref_assign::{all_solvers, oracle, verify_stable, ObjectRecord, PreferenceFunction, Problem};
use pref_datagen::{
    independent_objects, uniform_weight_functions, update_stream, ObjectDistribution, UpdateEvent,
    UpdateStreamConfig,
};
use pref_engine::{AssignmentEngine, EngineOptions};
use pref_rtree::RecordId;

fn build_problem(num_functions: usize, num_objects: usize, dims: usize, seed: u64) -> Problem {
    let functions = uniform_weight_functions(num_functions, dims, seed);
    let objects = independent_objects(num_objects, dims, seed + 1000);
    Problem::from_parts(functions, objects).unwrap()
}

fn stream_for(problem: &Problem, config: UpdateStreamConfig) -> Vec<UpdateEvent> {
    let live_objects: Vec<RecordId> = problem.objects().iter().map(|o| o.id).collect();
    let live_functions: Vec<u64> = problem.functions().iter().map(|f| f.id.0 as u64).collect();
    update_stream(&config, &live_objects, &live_functions)
}

/// Applies every event, checking stability and oracle equality after each.
fn check_sequence(problem: Problem, config: UpdateStreamConfig) {
    let events = stream_for(&problem, config.clone());
    let mut engine = AssignmentEngine::new(&problem, &EngineOptions::default()).unwrap();
    // the initial stabilization must already match the oracle
    assert_eq!(
        engine.assignment().canonical(),
        oracle(&problem).canonical(),
        "initial stabilization diverges (seed {})",
        config.seed
    );
    for (step, event) in events.iter().enumerate() {
        engine.apply(event).unwrap();
        let snapshot = engine.snapshot_problem().unwrap();
        let assignment = engine.assignment();
        verify_stable(&snapshot, &assignment)
            .unwrap_or_else(|v| panic!("unstable after step {step} ({event:?}): {v}"));
        assert_eq!(
            assignment.canonical(),
            oracle(&snapshot).canonical(),
            "oracle divergence after step {step} ({event:?}) seed {}",
            config.seed
        );
    }
    // the final snapshot re-solved through every Solver variant agrees too
    let snapshot = engine.snapshot_problem().unwrap();
    let want = engine.assignment().canonical();
    for solver in all_solvers() {
        let mut tree = snapshot.build_tree(Some(8), 0.02);
        let result = solver.solve(&snapshot, &mut tree);
        assert_eq!(
            result.assignment.canonical(),
            want,
            "solver {} diverges from the engine on the final snapshot (seed {})",
            solver.name(),
            config.seed
        );
    }
}

#[test]
fn random_update_sequences_match_the_oracle_independent() {
    for seed in [1u64, 2, 3] {
        let problem = build_problem(8, 40, 3, seed * 17);
        check_sequence(
            problem,
            UpdateStreamConfig {
                num_events: 30,
                dims: 3,
                seed,
                ..UpdateStreamConfig::default()
            },
        );
    }
}

#[test]
fn departure_heavy_sequences_match_the_oracle() {
    for seed in [11u64, 12] {
        let problem = build_problem(10, 50, 2, seed * 31);
        check_sequence(
            problem,
            UpdateStreamConfig {
                num_events: 40,
                dims: 2,
                insert_fraction: 0.25,
                min_objects: 2,
                min_functions: 1,
                seed,
                ..UpdateStreamConfig::default()
            },
        );
    }
}

#[test]
fn arrival_heavy_anti_correlated_sequences_match_the_oracle() {
    for seed in [21u64, 22] {
        let problem = build_problem(6, 30, 3, seed * 13);
        check_sequence(
            problem,
            UpdateStreamConfig {
                num_events: 35,
                dims: 3,
                distribution: ObjectDistribution::AntiCorrelated,
                insert_fraction: 0.75,
                seed,
                ..UpdateStreamConfig::default()
            },
        );
    }
}

#[test]
fn function_churn_sequences_match_the_oracle() {
    for seed in [31u64, 32] {
        let problem = build_problem(12, 35, 3, seed * 7);
        check_sequence(
            problem,
            UpdateStreamConfig {
                num_events: 30,
                dims: 3,
                object_fraction: 0.2, // mostly function arrivals/departures
                seed,
                ..UpdateStreamConfig::default()
            },
        );
    }
}

#[test]
fn capacitated_problems_repair_correctly() {
    for seed in [41u64, 42] {
        let functions: Vec<PreferenceFunction> = uniform_weight_functions(6, 3, seed)
            .into_iter()
            .enumerate()
            .map(|(i, f)| PreferenceFunction::new(i, f).with_capacity(1 + (i as u32 % 3)))
            .collect();
        let objects: Vec<ObjectRecord> = independent_objects(30, 3, seed + 5)
            .into_iter()
            .map(|(id, p)| ObjectRecord {
                id,
                point: p,
                capacity: 1 + (id.0 as u32 % 2),
            })
            .collect();
        let problem = Problem::new(functions, objects).unwrap();
        check_sequence(
            problem,
            UpdateStreamConfig {
                num_events: 25,
                dims: 3,
                seed,
                ..UpdateStreamConfig::default()
            },
        );
    }
}

/// Streamed arrivals with capacities > 1 (the `max_capacity` knob) repair to
/// the oracle's matching too: a capacity-3 arrival must be able to take up to
/// three pairs, and a departing capacity-3 object must free all of them.
#[test]
fn capacitated_update_streams_match_the_oracle() {
    for seed in [61u64, 62] {
        let problem = build_problem(8, 35, 3, seed * 23);
        let config = UpdateStreamConfig {
            num_events: 30,
            dims: 3,
            max_capacity: 3,
            seed,
            ..UpdateStreamConfig::default()
        };
        // the knob must actually fire: at least one arrival carries
        // capacity > 1 in each checked stream
        let events = stream_for(&problem, config.clone());
        assert!(
            events.iter().any(|e| matches!(
                e,
                UpdateEvent::InsertObject { capacity, .. }
                | UpdateEvent::InsertFunction { capacity, .. } if *capacity > 1
            )),
            "seed {seed} produced no capacitated arrival"
        );
        check_sequence(problem, config);
    }
}

/// Capacitated arrivals on top of a capacitated initial population: both the
/// base problem and the stream exercise capacities > 1 at once.
#[test]
fn capacitated_streams_over_capacitated_problems_match_the_oracle() {
    let seed = 71u64;
    let functions: Vec<PreferenceFunction> = uniform_weight_functions(6, 2, seed)
        .into_iter()
        .enumerate()
        .map(|(i, f)| PreferenceFunction::new(i, f).with_capacity(1 + (i as u32 % 3)))
        .collect();
    let objects: Vec<ObjectRecord> = independent_objects(25, 2, seed + 5)
        .into_iter()
        .map(|(id, p)| ObjectRecord {
            id,
            point: p,
            capacity: 1 + (id.0 as u32 % 2),
        })
        .collect();
    let problem = Problem::new(functions, objects).unwrap();
    check_sequence(
        problem,
        UpdateStreamConfig {
            num_events: 25,
            dims: 2,
            max_capacity: 4,
            insert_fraction: 0.6,
            seed,
            ..UpdateStreamConfig::default()
        },
    );
}

#[test]
fn engine_update_io_stays_below_full_recompute() {
    // the headline property: repairing across a stream costs less object-tree
    // I/O than re-running SB from scratch on every snapshot
    let problem = build_problem(20, 400, 3, 777);
    let config = UpdateStreamConfig {
        num_events: 40,
        dims: 3,
        seed: 9,
        ..UpdateStreamConfig::default()
    };
    let events = stream_for(&problem, config);
    let mut engine = AssignmentEngine::new(&problem, &EngineOptions::default()).unwrap();
    let mut recompute_io = 0u64;
    for event in &events {
        engine.apply(event).unwrap();
        let snapshot = engine.snapshot_problem().unwrap();
        let mut tree = snapshot.build_tree(None, 0.02);
        let result = pref_assign::SbSolver::default();
        use pref_assign::Solver;
        let r = result.solve(&snapshot, &mut tree);
        recompute_io += r.metrics.object_io.io_accesses();
        assert_eq!(r.assignment.canonical(), engine.assignment().canonical());
    }
    let update_io = engine.update_object_io().io_accesses();
    assert!(
        update_io < recompute_io,
        "incremental update I/O ({update_io}) must undercut full recompute ({recompute_io})"
    );
}

/// The tentpole property: a long 50%-churn stream with compaction enabled
/// keeps (a) the matching stable and oracle-equal after every update, (b) the
/// maintained free-pool skyline equal to a from-scratch skyline of the live
/// free pool after every update — so it stays exact across every compaction
/// batch — and (c) the R-tree record/node count within a constant factor of
/// the live population (vs. the old monotonic growth).
#[test]
fn churn_with_compaction_stays_bounded_and_exact() {
    use pref_skyline::skyline_naive;
    for seed in [51u64, 52, 53] {
        let problem = build_problem(8, 60, 3, seed * 19);
        let config = UpdateStreamConfig {
            num_events: 300,
            dims: 3,
            insert_fraction: 0.5,
            object_fraction: 0.9,
            min_objects: 10,
            min_functions: 2,
            seed,
            ..UpdateStreamConfig::default()
        };
        let events = stream_for(&problem, config);
        let options = EngineOptions {
            compaction_batch: 16,
            ..EngineOptions::default()
        };
        let mut engine = AssignmentEngine::new(&problem, &options).unwrap();
        // update I/O after the first quarter of the stream / before the last
        let quarter = events.len() / 4;
        let mut io_marks = [0u64; 2];
        for (step, event) in events.iter().enumerate() {
            engine.apply(event).unwrap();
            if step + 1 == quarter {
                io_marks[0] = engine.update_object_io().io_accesses();
            }
            if step + 1 == events.len() - quarter {
                io_marks[1] = engine.update_object_io().io_accesses();
            }
            let snapshot = engine.snapshot_problem().unwrap();
            let assignment = engine.assignment();
            verify_stable(&snapshot, &assignment)
                .unwrap_or_else(|v| panic!("unstable after step {step} (seed {seed}): {v}"));
            assert_eq!(
                assignment.canonical(),
                oracle(&snapshot).canonical(),
                "oracle divergence after step {step} (seed {seed})"
            );
            // the maintained skyline must equal a from-scratch skyline of
            // the free pool, including right after compaction batches
            let free_pool = engine.free_pool_records();
            let mut got: Vec<u64> = engine.skyline_records().iter().map(|r| r.0).collect();
            got.sort_unstable();
            let mut want: Vec<u64> = skyline_naive(&free_pool).iter().map(|r| r.0).collect();
            want.sort_unstable();
            assert_eq!(got, want, "skyline drift after step {step} (seed {seed})");
            // boundedness: with threshold 0.25 the tree holds at most
            // live / (1 - 0.25) records once maybe_compact has run
            let stats = engine.stats();
            assert!(
                stats.tree_records * 3 <= stats.live_objects * 4 + 3,
                "unbounded index after step {step} (seed {seed}): {} records for {} live",
                stats.tree_records,
                stats.live_objects
            );
            assert!(stats.tombstone_ratio() <= 0.25 + 1e-9);
        }
        let stats = engine.stats();
        assert!(stats.compaction_batches > 0, "churn never compacted");
        assert!(stats.physical_deletes > 0);
        // a bounded index keeps late updates within a constant factor of
        // early ones (mean object-tree accesses per update)
        let first_q = io_marks[0] as f64 / quarter as f64;
        let last_q =
            (engine.update_object_io().io_accesses() - io_marks[1]) as f64 / quarter as f64;
        assert!(
            last_q <= 3.0 * first_q + 2.0,
            "per-update I/O degraded (seed {seed}): first quarter {first_q:.2}, last {last_q:.2}"
        );
    }
}

/// Compaction must be behaviour-preserving: the same stream through a
/// compacting engine and a tombstone-only engine yields canonically identical
/// matchings at every step, while only the tombstone-only index grows.
#[test]
fn compaction_is_transparent_to_the_matching() {
    let problem = build_problem(10, 50, 2, 4242);
    let config = UpdateStreamConfig {
        num_events: 120,
        dims: 2,
        insert_fraction: 0.4,
        object_fraction: 0.9,
        min_objects: 8,
        min_functions: 2,
        seed: 77,
        ..UpdateStreamConfig::default()
    };
    let events = stream_for(&problem, config);
    let compacting = EngineOptions {
        compaction_threshold: Some(0.2),
        compaction_batch: 8,
        ..EngineOptions::default()
    };
    let tombstoning = EngineOptions {
        compaction_threshold: None,
        ..EngineOptions::default()
    };
    let mut a = AssignmentEngine::new(&problem, &compacting).unwrap();
    let mut b = AssignmentEngine::new(&problem, &tombstoning).unwrap();
    for (step, event) in events.iter().enumerate() {
        a.apply(event).unwrap();
        b.apply(event).unwrap();
        assert_eq!(
            a.assignment().canonical(),
            b.assignment().canonical(),
            "compaction changed the matching at step {step}"
        );
    }
    let sa = a.stats();
    let sb = b.stats();
    assert!(sa.physical_deletes > 0, "threshold 0.2 never fired");
    assert_eq!(sb.physical_deletes, 0);
    // the tombstone-only engine keeps every departure in the tree forever
    assert_eq!(sb.tree_records, sb.live_objects + sb.tombstoned_objects);
    assert_eq!(sb.tombstoned_objects, sb.object_removes);
    assert!(
        sa.tree_records < sb.tree_records,
        "compaction did not shrink the index: {} vs {}",
        sa.tree_records,
        sb.tree_records
    );
}

/// A record id re-issued after its previous bearer was compacted away must
/// not resurrect the predecessor's point: any stale pruned-list entry is
/// purged at insertion, so the engine stays oracle-equal afterwards.
#[test]
fn id_reuse_after_compaction_is_safe() {
    use pref_geom::Point;
    let problem = build_problem(6, 30, 2, 909);
    let eager = EngineOptions {
        compaction_threshold: Some(0.0),
        ..EngineOptions::default()
    };
    let mut engine = AssignmentEngine::new(&problem, &eager).unwrap();
    // depart a batch of objects; eager compaction forgets their ids at once
    for id in [2u64, 5, 11, 17, 23] {
        engine.remove_object(RecordId(id)).unwrap();
    }
    assert_eq!(engine.stats().tombstoned_objects, 0);
    // re-issue the ids with *different* points (dominated and dominating mix)
    for (i, id) in [2u64, 5, 11, 17, 23].into_iter().enumerate() {
        let c = 0.05 + 0.22 * i as f64;
        engine
            .insert_object(ObjectRecord::new(id, Point::from_slice(&[c, 1.0 - c])))
            .unwrap();
        let snapshot = engine.snapshot_problem().unwrap();
        verify_stable(&snapshot, &engine.assignment()).unwrap();
        assert_eq!(
            engine.assignment().canonical(),
            oracle(&snapshot).canonical(),
            "divergence after re-issuing id {id}"
        );
    }
    // and the free-pool skyline is still exact
    use pref_skyline::skyline_naive;
    let mut got: Vec<u64> = engine.skyline_records().iter().map(|r| r.0).collect();
    got.sort_unstable();
    let mut want: Vec<u64> = skyline_naive(&engine.free_pool_records())
        .iter()
        .map(|r| r.0)
        .collect();
    want.sort_unstable();
    assert_eq!(got, want);
}

#[test]
fn invalid_engine_options_are_rejected() {
    use pref_engine::EngineError;
    let problem = build_problem(4, 10, 2, 5);
    for options in [
        EngineOptions {
            buffer_fraction: -0.1,
            ..EngineOptions::default()
        },
        EngineOptions {
            buffer_fraction: 1.5,
            ..EngineOptions::default()
        },
        EngineOptions {
            buffer_fraction: f64::NAN,
            ..EngineOptions::default()
        },
        EngineOptions {
            compaction_threshold: Some(-0.5),
            ..EngineOptions::default()
        },
        EngineOptions {
            compaction_threshold: Some(2.0),
            ..EngineOptions::default()
        },
        EngineOptions {
            compaction_batch: 0,
            ..EngineOptions::default()
        },
    ] {
        assert!(matches!(
            AssignmentEngine::new(&problem, &options),
            Err(EngineError::InvalidOptions(_))
        ));
    }
    // an eager threshold of zero is valid: every departure deletes at once
    let eager = EngineOptions {
        compaction_threshold: Some(0.0),
        ..EngineOptions::default()
    };
    let mut engine = AssignmentEngine::new(&problem, &eager).unwrap();
    engine.remove_object(RecordId(3)).unwrap();
    let stats = engine.stats();
    assert_eq!(stats.physical_deletes, 1);
    assert_eq!(stats.tombstoned_objects, 0);
    assert_eq!(stats.tree_records, stats.live_objects);
}

#[test]
fn engine_rejects_invalid_updates() {
    let problem = build_problem(4, 10, 2, 5);
    let mut engine = AssignmentEngine::new(&problem, &EngineOptions::default()).unwrap();
    use pref_assign::FunctionId;
    use pref_engine::EngineError;
    use pref_geom::{LinearFunction, Point};

    // duplicate object id (ids are never reused)
    assert!(matches!(
        engine.insert_object(ObjectRecord::new(0, Point::from_slice(&[0.5, 0.5]))),
        Err(EngineError::DuplicateObject(_))
    ));
    // wrong dimensionality
    assert!(matches!(
        engine.insert_object(ObjectRecord::new(99, Point::from_slice(&[0.5, 0.5, 0.5]))),
        Err(EngineError::DimensionMismatch { .. })
    ));
    assert!(matches!(
        engine.insert_function(PreferenceFunction::new(
            50,
            LinearFunction::new(vec![0.3, 0.3, 0.4]).unwrap()
        )),
        Err(EngineError::DimensionMismatch { .. })
    ));
    // unknown ids
    assert!(matches!(
        engine.remove_object(RecordId(555)),
        Err(EngineError::UnknownObject(_))
    ));
    assert!(matches!(
        engine.remove_function(FunctionId(555)),
        Err(EngineError::UnknownFunction(_))
    ));
    // removing twice fails the second time
    engine.remove_object(RecordId(3)).unwrap();
    assert!(matches!(
        engine.remove_object(RecordId(3)),
        Err(EngineError::UnknownObject(_))
    ));
    // the state is still coherent afterwards
    let snapshot = engine.snapshot_problem().unwrap();
    verify_stable(&snapshot, &engine.assignment()).unwrap();
}

#[test]
fn threaded_repair_is_canonical_identical_at_any_thread_count() {
    // Large enough that the repair scan clears the parallel work floor
    // (active functions × scan rows ≥ 4096), so the pool path actually runs
    // at thread counts > 1.
    let problem = build_problem(120, 200, 3, 71);
    let events = stream_for(
        &problem,
        UpdateStreamConfig {
            num_events: 25,
            dims: 3,
            seed: 72,
            ..UpdateStreamConfig::default()
        },
    );
    let mut baseline: Option<Vec<String>> = None;
    for threads in [1usize, 2, 4, 8] {
        let options = EngineOptions {
            threads: Some(threads),
            ..EngineOptions::default()
        };
        let mut engine = AssignmentEngine::new(&problem, &options).unwrap();
        let mut trace = vec![format!("{:?}", engine.assignment().canonical())];
        for event in &events {
            engine.apply(event).unwrap();
            trace.push(format!("{:?}", engine.assignment().canonical()));
        }
        let snapshot = engine.snapshot_problem().unwrap();
        verify_stable(&snapshot, &engine.assignment()).unwrap();
        match &baseline {
            None => baseline = Some(trace),
            Some(want) => assert_eq!(&trace, want, "threads={threads}"),
        }
    }
}

#[test]
fn deferred_compaction_drains_to_the_inline_result() {
    let problem = build_problem(10, 60, 2, 81);
    let inline_opts = EngineOptions {
        compaction_threshold: Some(0.2),
        compaction_batch: 8,
        ..EngineOptions::default()
    };
    let deferred_opts = EngineOptions {
        deferred_compaction: true,
        ..inline_opts.clone()
    };
    let mut inline = AssignmentEngine::new(&problem, &inline_opts).unwrap();
    let mut deferred = AssignmentEngine::new(&problem, &deferred_opts).unwrap();
    for id in [
        2u64, 5, 11, 17, 23, 29, 31, 37, 41, 43, 47, 53, 3, 7, 13, 19,
    ] {
        inline.remove_object(RecordId(id)).unwrap();
        deferred.remove_object(RecordId(id)).unwrap();
    }
    // the deferred engine's update path never compacted...
    assert_eq!(deferred.stats().compaction_batches, 0);
    assert_eq!(deferred.stats().physical_deletes, 0);
    assert!(deferred.compaction_due());
    // ...while the inline engine kept the ratio bounded throughout
    assert!(inline.stats().physical_deletes > 0);
    assert!(!inline.compaction_due());
    // draining the debt batch-by-batch reaches the inline engine's state
    let mut batches = 0;
    while deferred.run_compaction_batch() {
        batches += 1;
        assert!(batches < 1000, "compaction failed to converge");
    }
    assert!(!deferred.compaction_due());
    assert!(deferred.stats().tombstone_ratio() <= 0.2);
    // the matching was never touched by compaction on either side
    assert_eq!(
        deferred.assignment().canonical(),
        inline.assignment().canonical()
    );
    let snapshot = deferred.snapshot_problem().unwrap();
    verify_stable(&snapshot, &deferred.assignment()).unwrap();
    // both engines keep absorbing updates after the drain
    for engine in [&mut inline, &mut deferred] {
        engine
            .insert_object(ObjectRecord::new(
                900,
                pref_geom::Point::from_slice(&[0.9, 0.9]),
            ))
            .unwrap();
    }
    assert_eq!(
        deferred.assignment().canonical(),
        inline.assignment().canonical()
    );
}
