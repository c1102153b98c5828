//! Cross-crate property tests: the invariants that tie the whole system
//! together, exercised on generated workloads rather than hand-picked
//! examples.

use kanon_baselines::{knn_greedy, mondrian, random_partition};
use kanon_core::exact::{subset_dp, SubsetDpConfig};
use kanon_core::Budget;
use kanon_core::{algo, Algorithm, Dataset};
use kanon_workloads::{clustered, knn_lower_bound, uniform, zipf, ClusteredParams, ZipfParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every solver is sandwiched: knn-LB ≤ OPT ≤ heuristic, and all
    /// released tables verify.
    #[test]
    fn solver_sandwich_on_random_workloads(
        seed in 0u64..1000,
        k in 2usize..4,
        workload in 0usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ds: Dataset = match workload {
            0 => uniform(&mut rng, 10, 4, 3),
            1 => zipf(&mut rng, &ZipfParams { n: 10, m: 4, alphabet: 5, exponent: 1.0 }),
            _ => clustered(&mut rng, &ClusteredParams {
                n_clusters: 3,
                cluster_size: 4,
                m: 4,
                scatter: 1,
                values_per_cluster: 3,
            }).dataset,
        };
        let opt = subset_dp(&ds, k, &SubsetDpConfig::default(), &Budget::unlimited()).unwrap();
        let lb = knn_lower_bound(&ds, k);
        prop_assert!(lb <= opt.cost, "LB {lb} > OPT {}", opt.cost);

        let center =
            algo::center_greedy(&ds, k, &Default::default(), &Budget::unlimited()).unwrap();
        let center = algo::anonymization_from_partition(&ds, center, k, Algorithm::CenterGreedy)
            .unwrap();
        prop_assert!(center.table.is_k_anonymous(k));
        prop_assert!(center.cost >= opt.cost);

        let knn_cost = knn_greedy(&ds, k, &Budget::unlimited()).unwrap().anonymization_cost(&ds);
        prop_assert!(knn_cost >= opt.cost);
        let mon_cost = mondrian(&ds, k, &Budget::unlimited()).unwrap().anonymization_cost(&ds);
        prop_assert!(mon_cost >= opt.cost);
    }

    /// Anonymity is monotone in k for the exact solver: OPT(k) ≤ OPT(k+1).
    #[test]
    fn optimum_monotone_in_k(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = uniform(&mut rng, 9, 3, 3);
        let mut prev = 0usize;
        for k in 1..=4 {
            let opt = subset_dp(&ds, k, &SubsetDpConfig::default(), &Budget::unlimited()).unwrap();
            prop_assert!(opt.cost >= prev, "OPT({k}) = {} < OPT({}) = {prev}", opt.cost, k-1);
            prev = opt.cost;
        }
    }

    /// The random baseline is (weakly) the worst of the partitioners in
    /// expectation — spot-checked per instance against the best heuristic.
    #[test]
    fn heuristics_beat_random_on_clustered(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = clustered(&mut rng, &ClusteredParams {
            n_clusters: 4,
            cluster_size: 3,
            m: 6,
            scatter: 1,
            values_per_cluster: 4,
        });
        let ds = &inst.dataset;
        let k = 3;
        let best_heuristic = [
            algo::center_greedy(ds, k, &Default::default(), &Budget::unlimited())
                .unwrap()
                .anonymization_cost(ds),
            knn_greedy(ds, k, &Budget::unlimited()).unwrap().anonymization_cost(ds),
        ]
        .into_iter()
        .min()
        .unwrap();
        let rnd = random_partition(&mut rng, ds.n_rows(), k)
            .unwrap()
            .anonymization_cost(ds);
        // On well-separated clusters the random chunking almost surely pays
        // cross-cluster diameters; allow equality for degenerate draws.
        prop_assert!(best_heuristic <= rnd);
    }

    /// Suppression cost of the center greedy never exceeds the trivial
    /// "suppress everything non-constant" solution.
    #[test]
    fn center_never_beats_trivial_bound(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = zipf(&mut rng, &ZipfParams { n: 20, m: 5, alphabet: 4, exponent: 0.8 });
        let k = 4;
        let trivial = kanon_core::diameter::anon_cost(&ds, &(0..20).collect::<Vec<_>>());
        let center =
            algo::center_greedy(&ds, k, &Default::default(), &Budget::unlimited()).unwrap();
        prop_assert!(center.anonymization_cost(&ds) <= trivial);
    }

    /// Encoding a relation and anonymizing is equivalent to anonymizing any
    /// relabeled copy: costs are invariant under per-column renaming.
    #[test]
    fn cost_invariant_under_value_relabeling(seed in 0u64..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = uniform(&mut rng, 10, 4, 3);
        // Relabel: v -> v + 7 (a bijection per column).
        let relabeled = Dataset::from_fn(10, 4, |i, j| ds.get(i, j) + 7);
        let k = 2;
        let a = subset_dp(&ds, k, &SubsetDpConfig::default(), &Budget::unlimited()).unwrap().cost;
        let b =
            subset_dp(&relabeled, k, &SubsetDpConfig::default(), &Budget::unlimited()).unwrap().cost;
        prop_assert_eq!(a, b);
    }
}
