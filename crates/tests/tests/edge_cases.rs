//! Degenerate-shape and failure-injection tests across the whole stack:
//! zero-column tables, single rows, k = n, all-identical data, and solver
//! guard behaviour. These are the shapes that crash systems which only
//! tested the happy path.

use kanon_baselines::forest::{forest, ForestConfig};
use kanon_baselines::{agglomerative, knn_greedy, mondrian};
use kanon_core::exact::{self, subset_dp, SubsetDpConfig};
use kanon_core::{algo, Algorithm, Anonymization, Budget, Dataset, Partition};

/// Rounds a solver's partition into its release (Corollary 4.1).
fn release(ds: &Dataset, partition: Partition, k: usize) -> Anonymization {
    algo::anonymization_from_partition(ds, partition, k, Algorithm::External("test")).unwrap()
}

fn center(ds: &Dataset, k: usize) -> Anonymization {
    let p = algo::center_greedy(ds, k, &Default::default(), &Budget::unlimited()).unwrap();
    release(ds, p, k)
}

fn optimal(ds: &Dataset, k: usize) -> Anonymization {
    release(ds, exact::optimal(ds, k).unwrap().partition, k)
}

#[test]
fn zero_column_table_is_trivially_anonymous() {
    let ds = Dataset::from_rows(vec![vec![], vec![], vec![]]).unwrap();
    assert_eq!(ds.n_cols(), 0);
    for k in 1..=3 {
        let a = center(&ds, k);
        assert_eq!(a.cost, 0, "k = {k}");
        assert!(a.table.is_k_anonymous(k));
        let b = optimal(&ds, k);
        assert_eq!(b.cost, 0);
        let c = algo::exhaustive_greedy(&ds, k, &Default::default(), &Budget::unlimited()).unwrap();
        assert_eq!(release(&ds, c, k).cost, 0);
    }
}

#[test]
fn single_row_table() {
    let ds = Dataset::from_rows(vec![vec![1, 2, 3]]).unwrap();
    assert_eq!(center(&ds, 1).cost, 0);
    assert!(algo::center_greedy(&ds, 2, &Default::default(), &Budget::unlimited()).is_err());
}

#[test]
fn all_identical_rows_cost_zero_everywhere() {
    let ds = Dataset::from_fn(9, 4, |_, _| 7);
    for k in [1usize, 3, 9] {
        assert_eq!(
            algo::center_greedy(&ds, k, &Default::default(), &Budget::unlimited())
                .unwrap()
                .anonymization_cost(&ds),
            0
        );
        assert_eq!(
            knn_greedy(&ds, k, &Budget::unlimited())
                .unwrap()
                .anonymization_cost(&ds),
            0
        );
        assert_eq!(
            mondrian(&ds, k, &Budget::unlimited())
                .unwrap()
                .anonymization_cost(&ds),
            0
        );
        assert_eq!(
            agglomerative(&ds, k, &Budget::unlimited())
                .unwrap()
                .anonymization_cost(&ds),
            0
        );
        assert_eq!(
            forest(&ds, k, &ForestConfig::default())
                .unwrap()
                .anonymization_cost(&ds),
            0
        );
    }
    assert_eq!(
        subset_dp(&ds, 3, &SubsetDpConfig::default(), &Budget::unlimited())
            .unwrap()
            .cost,
        0
    );
}

#[test]
fn maximum_distinctness_forces_full_suppression_at_k_equals_n() {
    // Every row distinct in every column: k = n must suppress everything.
    let ds = Dataset::from_fn(5, 3, |i, j| (i * 3 + j) as u32 * 100);
    let a = center(&ds, 5);
    assert_eq!(a.cost, 15);
    let opt = optimal(&ds, 5);
    assert_eq!(opt.cost, 15);
}

#[test]
fn every_solver_rejects_bad_k_identically() {
    let ds = Dataset::from_fn(4, 2, |i, _| i as u32);
    for k in [0usize, 5] {
        assert!(
            algo::center_greedy(&ds, k, &Default::default(), &Budget::unlimited()).is_err(),
            "{k}"
        );
        assert!(
            algo::exhaustive_greedy(&ds, k, &Default::default(), &Budget::unlimited()).is_err()
        );
        assert!(exact::optimal(&ds, k).is_err());
        assert!(knn_greedy(&ds, k, &Budget::unlimited()).is_err());
        assert!(mondrian(&ds, k, &Budget::unlimited()).is_err());
        assert!(agglomerative(&ds, k, &Budget::unlimited()).is_err());
        assert!(forest(&ds, k, &ForestConfig::default()).is_err());
    }
}

#[test]
fn binary_single_column_table() {
    // m = 1 over {0, 1}: groups must be value classes or merged.
    let ds = Dataset::from_rows(vec![vec![0], vec![0], vec![0], vec![1], vec![1]]).unwrap();
    let opt = optimal(&ds, 2);
    assert_eq!(opt.cost, 0); // classes have sizes 3 and 2
    let opt3 = optimal(&ds, 3);
    // For k = 3 the pair of 1s must merge across values: one option is one
    // block of 5 suppressing everything (cost 5); better is {0,0,0} free +
    // impossible 2-block... the 2-block {1,1} is infeasible, so OPT merges:
    // block of 3 zeros (free) is impossible since the 1s then form a block
    // of 2 < k. Best: all five in one block = 5 stars, or {0,0,0,1,1}...
    // the DP decides; sanity: cost is 5 (single suppressed column for all).
    assert_eq!(opt3.cost, 5);
    let greedy = center(&ds, 3);
    assert!(greedy.cost >= opt3.cost);
    assert!(greedy.table.is_k_anonymous(3));
}

#[test]
fn guards_fail_loudly_not_silently() {
    // Exhaustive greedy on an instance with a huge candidate family.
    let ds = Dataset::from_fn(200, 2, |i, _| i as u32);
    let err =
        algo::exhaustive_greedy(&ds, 5, &Default::default(), &Budget::unlimited()).unwrap_err();
    assert!(err.to_string().contains("too large"), "{err}");
    // Subset DP beyond its bitmask width.
    let err = subset_dp(&ds, 5, &SubsetDpConfig::default(), &Budget::unlimited()).unwrap_err();
    assert!(err.to_string().contains("exceeds limit"), "{err}");
}

#[test]
fn huge_alphabet_codes_are_fine() {
    // Dictionary codes near u32::MAX must not overflow anything.
    let big = u32::MAX - 3;
    let ds = Dataset::from_rows(vec![
        vec![big, big],
        vec![big, big - 1],
        vec![big - 2, big],
        vec![big - 2, big - 1],
    ])
    .unwrap();
    let a = optimal(&ds, 2);
    assert_eq!(a.cost, 4);
    assert!(a.table.is_k_anonymous(2));
}
