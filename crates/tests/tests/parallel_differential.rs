//! Differential suite: parallel execution must be *invisible* in results.
//!
//! The §4.1 and §4.2 greedy covers advertise a hard determinism contract
//! (see `kanon_core::greedy::full_cover` module docs): ties break on the
//! exact rational ratio, then on lexicographic subset order, so thread
//! count and scheduling can never leak into the output. These tests
//! generate random datasets — mixed row counts, arities, and per-column
//! alphabet sizes — and assert the covers and downstream anonymization
//! costs are **identical** (not merely equal-cost) between:
//!
//! * `parallel: false` and `parallel: true`;
//! * 1 worker and N workers.
//!
//! A companion block re-checks the shared distance cache against the
//! row-scanning reference implementations, since every solver now trusts
//! it for diameters and `ANON` costs.

use kanon_core::distcache::PairwiseDistances;
use kanon_core::greedy::{
    center_greedy_cover, full_greedy_cover, reduce, CenterConfig, FullCoverConfig,
};
use kanon_core::metric::row_distance;
use kanon_core::Budget;
use kanon_core::{diameter, Dataset};
use proptest::prelude::*;

/// Builds a dataset with per-column alphabet sizes in `2..=5`, mixing the
/// sizes across columns so ties and duplicate rows both occur.
fn build_dataset(flat: &[u32], n: usize, m: usize, aseed: usize) -> Dataset {
    Dataset::from_fn(n, m, |i, j| {
        let alphabet = 2 + ((j + aseed) % 4) as u32;
        flat[i * m + j] % alphabet
    })
}

/// `FullCoverConfig` pinned to the sequential path.
fn sequential() -> FullCoverConfig {
    FullCoverConfig {
        parallel: false,
        ..Default::default()
    }
}

/// `FullCoverConfig` pinned to `threads` parallel workers.
fn parallel(threads: usize) -> FullCoverConfig {
    FullCoverConfig {
        parallel: true,
        num_threads: Some(threads),
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Theorem 4.1 cover: sequential ≡ parallel, 1 thread ≡ N threads,
    /// both as covers and as end costs.
    #[test]
    fn full_cover_parallel_equals_sequential(
        flat in proptest::collection::vec(0u32..8, 14 * 4),
        n in 6usize..15,
        m in 2usize..5,
        k in 2usize..5,
        aseed in 0usize..4,
    ) {
        let ds = build_dataset(&flat, n, m, aseed);
        let k = k.min(n / 2).max(2);

        let base = full_greedy_cover(&ds, k, &sequential(), None, &Budget::unlimited()).unwrap();
        let base_cost = reduce(&base, k).unwrap().split_large(k).anonymization_cost(&ds);
        for threads in [1, 2, 4] {
            let par =
                full_greedy_cover(&ds, k, &parallel(threads), None, &Budget::unlimited()).unwrap();
            prop_assert_eq!(&base, &par, "threads = {}", threads);
            let par_cost = reduce(&par, k).unwrap().split_large(k).anonymization_cost(&ds);
            prop_assert_eq!(base_cost, par_cost, "threads = {}", threads);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Theorem 4.2 cover: the per-round center scan splits across threads;
    /// the deterministic `(ratio, center, prefix)` key must hide that.
    #[test]
    fn center_cover_parallel_equals_sequential(
        flat in proptest::collection::vec(0u32..8, 40 * 5),
        n in 8usize..41,
        m in 2usize..6,
        k in 2usize..5,
        aseed in 0usize..4,
    ) {
        let ds = build_dataset(&flat, n, m, aseed);
        let k = k.min(n / 2).max(2);

        let base =
            center_greedy_cover(&ds, k, &CenterConfig::default(), None, &Budget::unlimited()).unwrap();
        let base_cost = reduce(&base, k).unwrap().split_large(k).anonymization_cost(&ds);
        for threads in [2, 4] {
            let config = CenterConfig { threads, ..Default::default() };
            let par = center_greedy_cover(&ds, k, &config, None, &Budget::unlimited()).unwrap();
            prop_assert_eq!(&base, &par, "threads = {}", threads);
            let par_cost = reduce(&par, k).unwrap().split_large(k).anonymization_cost(&ds);
            prop_assert_eq!(base_cost, par_cost, "threads = {}", threads);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The distance cache agrees entry-for-entry with direct Hamming
    /// computation, is symmetric, and its `diameter` / `anon_cost`
    /// shortcuts match the row-scanning implementations on sampled subsets.
    #[test]
    fn distance_cache_matches_row_scans(
        flat in proptest::collection::vec(0u32..8, 20 * 4),
        n in 4usize..21,
        m in 2usize..5,
        aseed in 0usize..4,
        subset in proptest::collection::btree_set(0usize..20, 2..8),
        threads in 1usize..5,
    ) {
        let ds = build_dataset(&flat, n, m, aseed);
        let cache = PairwiseDistances::build(&ds, Some(threads), &Budget::unlimited()).unwrap();

        for i in 0..n {
            prop_assert_eq!(cache.get(i, i), 0);
            for j in 0..n {
                prop_assert_eq!(cache.get(i, j) as usize, row_distance(&ds, i, j));
                prop_assert_eq!(cache.get(i, j), cache.get(j, i));
            }
        }

        let rows: Vec<usize> = subset.into_iter().filter(|&r| r < n).collect();
        prop_assert_eq!(cache.diameter(&rows), diameter::diameter(&ds, &rows));
        prop_assert_eq!(cache.anon_cost(&ds, &rows), diameter::anon_cost(&ds, &rows));
    }
}

/// A parallel full-cover run feeds the same downstream pipeline as the
/// sequential one: identical covers must survive reduce + split + rounding
/// into identical suppressors, not just matching costs.
#[test]
fn parallel_pipeline_is_bit_identical_end_to_end() {
    use kanon_core::rounding::suppressor_for_partition;
    let ds = Dataset::from_fn(24, 4, |i, j| ((i * 13 + j * 7) % 5) as u32);
    let k = 3;
    let base_cover = full_greedy_cover(&ds, k, &sequential(), None, &Budget::unlimited()).unwrap();
    let base_partition = reduce(&base_cover, k).unwrap().split_large(k);
    let base_suppressor = suppressor_for_partition(&ds, &base_partition).unwrap();
    for threads in [1, 2, 3, 8] {
        let cover =
            full_greedy_cover(&ds, k, &parallel(threads), None, &Budget::unlimited()).unwrap();
        let partition = reduce(&cover, k).unwrap().split_large(k);
        let suppressor = suppressor_for_partition(&ds, &partition).unwrap();
        assert_eq!(base_cover, cover, "threads = {threads}");
        assert_eq!(base_partition, partition, "threads = {threads}");
        assert_eq!(
            base_suppressor.cost(),
            suppressor.cost(),
            "threads = {threads}"
        );
    }
}
