//! Differential properties of the flat candidate arena (ISSUE 3): stored
//! diameters match fresh recomputes, ids round-trip the lexicographic
//! enumeration order, and parallel slab fills are byte-identical to the
//! sequential walk. Runs under the CI `RAYON_NUM_THREADS = 1 / 4` matrix,
//! which steers the default thread resolution the solvers use.

use kanon_core::distcache::PairwiseDistances;
use kanon_core::govern::Budget;
use kanon_core::greedy::CandidateArena;
use kanon_core::Dataset;
use proptest::prelude::*;

/// Builds an `n × m` dataset from a flat value pool (the vendored proptest
/// has no `prop_flat_map`, so sizes and cells are drawn independently).
fn dataset_from(flat: &[u32], n: usize, m: usize) -> Dataset {
    Dataset::from_fn(n, m, |i, j| flat[(i * m + j) % flat.len()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every stored diameter equals a fresh `diameter_ids` recompute over
    /// the same rows — the incremental prefix-diameter walk cannot drift.
    #[test]
    fn arena_diameters_match_fresh_recompute(
        flat in proptest::collection::vec(0u32..6, 12 * 4),
        n in 4usize..12,
        m in 2usize..5,
        k in 1usize..=3,
    ) {
        let ds = dataset_from(&flat, n, m);
        let k = k.min(ds.n_rows());
        let cache = PairwiseDistances::build(&ds, Some(1), &Budget::unlimited()).unwrap();
        let arena = CandidateArena::try_materialize(&cache, k, 1, &Budget::unlimited()).unwrap();
        for id in 0..arena.len() {
            prop_assert_eq!(
                arena.diameter(id) as usize,
                cache.diameter_ids(arena.rows(id)),
                "id {}", id
            );
        }
    }

    /// Ids resolve to candidates in global enumeration order: sizes
    /// ascending, strictly increasing row ids within a candidate, and
    /// lexicographically increasing candidates within a size class.
    #[test]
    fn arena_ids_round_trip_lexicographic_order(
        flat in proptest::collection::vec(0u32..6, 12 * 4),
        n in 4usize..12,
        m in 2usize..5,
        k in 1usize..=3,
    ) {
        let ds = dataset_from(&flat, n, m);
        let k = k.min(ds.n_rows());
        let cache = PairwiseDistances::build(&ds, Some(1), &Budget::unlimited()).unwrap();
        let arena = CandidateArena::try_materialize(&cache, k, 1, &Budget::unlimited()).unwrap();
        let mut prev: Option<Vec<u32>> = None;
        for id in 0..arena.len() {
            let rows = arena.rows(id);
            prop_assert!(rows.windows(2).all(|w| w[0] < w[1]), "id {} not ascending", id);
            prop_assert!(rows.len() >= k && rows.len() < 2 * k);
            if let Some(p) = &prev {
                // Size classes ascend; within a class the order is lex.
                prop_assert!(
                    p.len() < rows.len() || (p.len() == rows.len() && p.as_slice() < rows),
                    "id {} out of order", id
                );
            }
            prev = Some(rows.to_vec());
        }
        // The iterator agrees with the per-id accessors.
        let via_iter: Vec<(Vec<u32>, u64)> =
            arena.iter().map(|(r, d)| (r.to_vec(), d)).collect();
        prop_assert_eq!(via_iter.len(), arena.len());
        for (id, (rows, d)) in via_iter.iter().enumerate() {
            prop_assert_eq!(rows.as_slice(), arena.rows(id));
            prop_assert_eq!(*d, arena.diameter(id));
        }
    }

    /// Parallel workers fill disjoint slab ranges of the same pre-sized
    /// arena; the result must be byte-identical to the sequential fill for
    /// any thread count. (These instances sit below the parallel floor and
    /// so also pin the small-instance fallback; the fixed test below forces
    /// the true multi-worker path.)
    #[test]
    fn parallel_arena_equals_sequential_arena(
        flat in proptest::collection::vec(0u32..6, 12 * 4),
        n in 4usize..12,
        m in 2usize..5,
        k in 1usize..=3,
        threads in 2usize..=6,
    ) {
        let ds = dataset_from(&flat, n, m);
        let k = k.min(ds.n_rows());
        let cache = PairwiseDistances::build(&ds, Some(1), &Budget::unlimited()).unwrap();
        let unlimited = Budget::unlimited();
        let seq = CandidateArena::try_materialize(&cache, k, 1, &unlimited).unwrap();
        let par = CandidateArena::try_materialize(&cache, k, threads, &unlimited).unwrap();
        prop_assert_eq!(seq, par);
    }
}

/// Fixed instance large enough — Σ C(20, 3..=5) = 21_489 candidates — to
/// clear the internal parallel floor and run the real disjoint-slab fill.
#[test]
fn parallel_slab_fill_is_byte_identical_above_the_floor() {
    let ds = Dataset::from_fn(20, 4, |i, j| ((i * 13 + j * 7) % 5) as u32);
    let cache = PairwiseDistances::build(&ds, Some(1), &Budget::unlimited()).unwrap();
    let unlimited = Budget::unlimited();
    let seq = CandidateArena::try_materialize(&cache, 3, 1, &unlimited).unwrap();
    assert_eq!(seq.len(), 21_489);
    for threads in [2, 3, 4, 8] {
        let par = CandidateArena::try_materialize(&cache, 3, threads, &unlimited).unwrap();
        assert_eq!(seq, par, "threads = {threads}");
    }
}
