//! Cross-crate property tests for the extension modules: weighted
//! objectives, l-diversity, the k-forest comparator, and cell-level
//! generalization — the invariants that must hold however the generators
//! shake the data.

use kanon_baselines::forest::{forest, ForestConfig};
use kanon_baselines::knn_greedy;
use kanon_core::exact::{subset_dp, SubsetDpConfig};
use kanon_core::local_search::{improve_weighted, LocalSearchConfig};
use kanon_core::weighted::{weighted_knn_greedy, weighted_partition_cost, ColumnWeights};
use kanon_core::Budget;
use kanon_privacy::{enforce_l_diversity, is_l_diverse};
use kanon_relation::cellgen::{anonymize_cells, is_table_k_anonymous};
use kanon_relation::{Hierarchy, Schema, Table};
use kanon_workloads::{uniform, zipf, ZipfParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// l-diversity repair always terminates with a feasible, diverse
    /// partition whose cost never drops below the input's.
    #[test]
    fn diversity_repair_invariants(
        seed in 0u64..500,
        k in 2usize..4,
        l in 2usize..4,
        sensitive_alphabet in 3u32..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = uniform(&mut rng, 12, 4, 3);
        let sensitive: Vec<u32> =
            (0..12).map(|i| (i as u32 * 7 + seed as u32) % sensitive_alphabet).collect();
        let distinct = {
            let mut s = sensitive.clone();
            s.sort_unstable();
            s.dedup();
            s.len()
        };
        prop_assume!(distinct >= l);
        let partition = knn_greedy(&ds, k, &Budget::unlimited()).unwrap();
        let before = partition.anonymization_cost(&ds);
        let result = enforce_l_diversity(&ds, &partition, &sensitive, l).unwrap();
        prop_assert!(is_l_diverse(&result.partition, &sensitive, l).unwrap());
        prop_assert!(result.partition.min_block_size().unwrap() >= k);
        prop_assert!(result.cost_after >= result.cost_before);
        prop_assert_eq!(result.cost_before, before);
        let covered: usize = result.partition.blocks().iter().map(Vec::len).sum();
        prop_assert_eq!(covered, 12);
    }

    /// The weighted pipeline never beats the exact optimum on the weighted
    /// objective (checked against a weighted brute force via the subset DP
    /// on uniform weights, where objectives coincide).
    #[test]
    fn weighted_uniform_agrees_with_flat_optimum(
        seed in 0u64..300,
        k in 2usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = uniform(&mut rng, 9, 3, 3);
        let w = ColumnWeights::uniform(3);
        let p = weighted_knn_greedy(&ds, &w, k).unwrap();
        let (improved, _, after) =
            improve_weighted(&ds, &p, k, &w, &LocalSearchConfig::default()).unwrap();
        let opt = subset_dp(&ds, k, &SubsetDpConfig::default(), &Budget::unlimited()).unwrap().cost;
        prop_assert!(after + 1e-9 >= opt as f64, "after {after} < OPT {opt}");
        prop_assert!(
            (weighted_partition_cost(&ds, &w, &improved) - after).abs() < 1e-9
        );
    }

    /// Forest and knn agree on instance feasibility and both respect the
    /// exact optimum.
    #[test]
    fn forest_vs_knn_consistency(
        seed in 0u64..300,
        k in 2usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = zipf(&mut rng, &ZipfParams { n: 11, m: 4, alphabet: 5, exponent: 1.0 });
        let f = forest(&ds, k, &ForestConfig::default()).unwrap();
        let g = knn_greedy(&ds, k, &Budget::unlimited()).unwrap();
        let opt = subset_dp(&ds, k, &SubsetDpConfig::default(), &Budget::unlimited()).unwrap().cost;
        prop_assert!(f.anonymization_cost(&ds) >= opt);
        prop_assert!(g.anonymization_cost(&ds) >= opt);
        prop_assert!(f.min_block_size().unwrap() >= k);
    }

    /// Cell-level generalization always releases a k-anonymous table with
    /// loss in [0, 1], for random tables under mixed hierarchies.
    #[test]
    fn cellgen_always_feasible(
        seed in 0u64..300,
        k in 2usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = uniform(&mut rng, 10, 2, 4);
        let mut t = Table::new(Schema::new(vec!["a", "b"]).unwrap());
        for row in ds.rows() {
            t.push_row(vec![row[0].to_string(), row[1].to_string()]).unwrap();
        }
        let hs = vec![
            Hierarchy::Intervals { widths: vec![2, 4] },
            Hierarchy::SuppressOnly,
        ];
        let out = anonymize_cells(&t, &hs, k, &Default::default()).unwrap();
        prop_assert!(is_table_k_anonymous(&out.released, k));
        prop_assert!((0.0..=1.0).contains(&out.precision_loss));
        for g in &out.groups {
            prop_assert!(g.len() >= k);
        }
    }
}
