//! Pins the paper's machine-independent cost counters on two seeded instances.
//!
//! `aux_io` (function-index entries the reverse top-1 searches read: sorted
//! accesses plus rows scored by a fall-back scan), `object_io` (R-tree page
//! reads), the loop and search counts and the matching itself are functions
//! of the algorithm, not of how fast its inner loops run. A change that
//! claims to be "constant-factor only" must leave every value below
//! untouched; a change that moves one is an algorithmic change and updates
//! the constant with its reason in the same PR.
//!
//! The constants were recorded on the commit before the allocation-free TA
//! search, the record → row index and the chunked dominance kernel landed —
//! except `aux_io`, re-recorded when the search was given its cost bound (a
//! TA allowance of `|alive|·D / 256` entries a call, then one scan of the
//! alive functions): from 159 471, 3 696 858, 110 091 and 1 160 398 sorted
//! accesses, in the order of the tests below. Nothing else moved.

use pref_assign::{sb, Problem, SbOptions};
use pref_datagen::{anti_correlated_objects, independent_objects, uniform_weight_functions};

/// What one solve is held to.
#[derive(Debug, PartialEq, Eq)]
struct Counters {
    aux_io: u64,
    object_io: u64,
    loops: u64,
    searches: u64,
    pairs: usize,
    /// FNV-1a over the canonical (function, object, rounded score) triples.
    matching: u64,
}

fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn solve(problem: &Problem, options: &SbOptions) -> Counters {
    let mut tree = problem.build_tree(None, 0.02);
    let result = sb(problem, &mut tree, options);
    let canonical = result.assignment.canonical();
    Counters {
        aux_io: result.metrics.aux_io.io_accesses(),
        object_io: result.metrics.object_io.io_accesses(),
        loops: result.metrics.loops,
        searches: result.metrics.searches,
        pairs: canonical.len(),
        matching: fnv1a(
            canonical
                .iter()
                .flat_map(|&(f, o, s)| [f as u64, o, s].into_iter()),
        ),
    }
}

/// `solve-anti` in miniature: anti-correlated D=4, a large skyline with heavy
/// pruned lists, thousands of resumed searches.
fn anti_correlated_instance() -> Problem {
    Problem::from_parts(
        uniform_weight_functions(150, 4, 20_090_824),
        anti_correlated_objects(3000, 4, 20_090_825),
    )
    .unwrap()
}

/// `solve-wide` in miniature: independent D=12, past the D ≤ 8 kernels, nearly
/// every object on the skyline.
fn wide_instance() -> Problem {
    Problem::from_parts(
        uniform_weight_functions(40, 12, 1000),
        independent_objects(600, 12, 1001),
    )
    .unwrap()
}

#[test]
fn anti_correlated_d4_default_options() {
    assert_eq!(
        solve(&anti_correlated_instance(), &SbOptions::default()),
        Counters {
            aux_io: 372_559,
            object_io: 55,
            loops: 19,
            searches: 18_648,
            pairs: 150,
            matching: 2_311_512_559_681_268_624,
        }
    );
}

#[test]
fn anti_correlated_d4_update_skyline_only() {
    assert_eq!(
        solve(
            &anti_correlated_instance(),
            &SbOptions::update_skyline_only()
        ),
        Counters {
            aux_io: 10_450_068,
            object_io: 55,
            loops: 150,
            searches: 143_728,
            pairs: 150,
            matching: 2_311_512_559_681_268_624,
        }
    );
}

#[test]
fn independent_d12_default_options() {
    assert_eq!(
        solve(&wide_instance(), &SbOptions::default()),
        Counters {
            aux_io: 43_806,
            object_io: 35,
            loops: 6,
            searches: 3_330,
            pairs: 40,
            matching: 11_494_305_560_952_208_808,
        }
    );
}

#[test]
fn independent_d12_update_skyline_only() {
    assert_eq!(
        solve(&wide_instance(), &SbOptions::update_skyline_only()),
        Counters {
            aux_io: 466_821,
            object_io: 35,
            loops: 40,
            searches: 22_243,
            pairs: 40,
            matching: 11_494_305_560_952_208_808,
        }
    );
}
