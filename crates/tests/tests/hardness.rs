//! Full hardness-reduction roundtrips across the hypergraph, reductions,
//! and core crates — heavier versions of the reductions' unit tests,
//! including uniformities beyond 3.

use kanon_core::attr::min_suppressed_attributes;
use kanon_core::exact;
use kanon_core::rounding::suppressor_for_partition;
use kanon_core::Budget;
use kanon_hypergraph::generate::{certified_no_matching, planted_matching};
use kanon_hypergraph::matching::{find_perfect_matching, MatchingConfig};
use kanon_reductions::{AttributeReduction, EntryReduction};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn entry_reduction_k3_yes_instances_across_sizes() {
    for (seed, n, noise) in [(1u64, 9usize, 2usize), (2, 12, 4), (3, 15, 5)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let (h, _) = planted_matching(&mut rng, n, 3, noise).unwrap();
        let red = EntryReduction::new(&h, 3).unwrap();
        let opt = exact::optimal(red.dataset(), 3).unwrap();
        assert!(
            opt.cost <= red.threshold(),
            "n = {n}: OPT {} vs threshold {}",
            opt.cost,
            red.threshold()
        );
        let s = suppressor_for_partition(red.dataset(), &opt.partition).unwrap();
        let released = s.apply(red.dataset()).unwrap();
        let matching = red.extract_matching(&released).unwrap();
        assert!(h.is_perfect_matching(&matching));
    }
}

#[test]
fn entry_reduction_k4_generalizes() {
    // The paper proves k = 3 and notes the generalization to larger k.
    let mut rng = StdRng::seed_from_u64(5);
    let (h, _) = planted_matching(&mut rng, 12, 4, 3).unwrap();
    let red = EntryReduction::new(&h, 4).unwrap();
    let opt = exact::optimal(red.dataset(), 4).unwrap();
    assert!(opt.cost <= red.threshold());
    let s = suppressor_for_partition(red.dataset(), &opt.partition).unwrap();
    let released = s.apply(red.dataset()).unwrap();
    let matching = red.extract_matching(&released).unwrap();
    assert!(h.is_perfect_matching(&matching));
}

#[test]
fn entry_reduction_no_instances_exceed_threshold() {
    for seed in [11u64, 12, 13] {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = certified_no_matching(&mut rng, 9, 3, 1, 1000).unwrap();
        let red = EntryReduction::new(&h, 3).unwrap();
        let opt = exact::optimal(red.dataset(), 3).unwrap();
        assert!(opt.cost > red.threshold(), "seed {seed}");
    }
}

#[test]
fn attribute_reduction_k4_generalizes() {
    let mut rng = StdRng::seed_from_u64(21);
    let (h, _) = planted_matching(&mut rng, 12, 4, 5).unwrap();
    let red = AttributeReduction::new(&h, 4).unwrap();
    let (min_suppressed, kept) = min_suppressed_attributes(red.dataset(), 4, 22).unwrap();
    assert_eq!(Some(min_suppressed), red.threshold());
    let matching = red.extract_matching(&kept).unwrap();
    assert!(h.is_perfect_matching(&matching));
}

#[test]
fn both_reductions_agree_with_the_matching_solver() {
    // On random instances of unknown status, the exact matching solver and
    // the two anonymity-side decisions must all coincide.
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let h = kanon_hypergraph::generate::random_uniform(&mut rng, 9, 3, 5).unwrap();
        if h.check_simple().is_err() {
            continue;
        }
        let has_pm = find_perfect_matching(&h, &MatchingConfig::default())
            .unwrap()
            .is_some();

        let entry = EntryReduction::new(&h, 3).unwrap();
        let entry_yes = exact::optimal(entry.dataset(), 3).unwrap().cost <= entry.threshold();
        assert_eq!(
            entry_yes, has_pm,
            "entry reduction disagrees at seed {seed}"
        );

        let attr = AttributeReduction::new(&h, 3).unwrap();
        let (min_suppressed, _) = min_suppressed_attributes(attr.dataset(), 3, 22).unwrap();
        let attr_yes = attr.threshold() == Some(min_suppressed);
        assert_eq!(
            attr_yes, has_pm,
            "attribute reduction disagrees at seed {seed}"
        );
    }
}

#[test]
fn greedy_on_reduction_instances_is_feasible_but_not_exact() {
    // The approximation algorithms still produce valid anonymizations on
    // the adversarial reduction instances (they just cannot decide PM).
    let mut rng = StdRng::seed_from_u64(77);
    let (h, _) = planted_matching(&mut rng, 12, 3, 6).unwrap();
    let red = EntryReduction::new(&h, 3).unwrap();
    let partition = kanon_core::algo::center_greedy(
        red.dataset(),
        3,
        &Default::default(),
        &Budget::unlimited(),
    )
    .unwrap();
    let greedy = kanon_core::algo::anonymization_from_partition(
        red.dataset(),
        partition,
        3,
        kanon_core::Algorithm::CenterGreedy,
    )
    .unwrap();
    assert!(greedy.table.is_k_anonymous(3));
    let opt = exact::optimal(red.dataset(), 3).unwrap();
    assert!(greedy.cost >= opt.cost);
}
