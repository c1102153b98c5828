//! Nearest-neighbour greedy grouping.
//!
//! While at least `2k` rows remain unassigned: take the lowest-indexed
//! unassigned row as a seed and group it with its `k − 1` nearest
//! unassigned rows (Hamming distance). The final `k..2k−1` rows form the
//! last block. This is the workhorse heuristic most practical
//! k-anonymizers refine; `O(n²·m)` (dominated by the distance-cache build —
//! the grouping rounds themselves are `O(n² log n)` cache lookups).

use kanon_core::error::Result;
use kanon_core::govern::Budget;
use kanon_core::{Dataset, PairwiseDistances, Partition};

/// Builds a partition by greedy nearest-neighbour grouping. The
/// distance-cache build and every distance lookup in the grouping rounds
/// poll `budget`.
///
/// # Errors
/// Standard `k` validation errors, or
/// [`kanon_core::Error::BudgetExceeded`] when the budget trips.
pub fn knn_greedy(ds: &Dataset, k: usize, budget: &Budget) -> Result<Partition> {
    ds.check_k(k)?;
    budget.check()?;
    let cache = PairwiseDistances::build(ds, Some(1), budget)?;
    let n = ds.n_rows();
    let mut unassigned: Vec<u32> = (0..n as u32).collect();
    let mut blocks: Vec<Vec<u32>> = Vec::new();
    let mut ticker = budget.ticker();

    while unassigned.len() >= 2 * k {
        let seed = unassigned[0];
        // Distances from the seed to every other unassigned row.
        let mut rest = Vec::with_capacity(unassigned.len() - 1);
        for &r in &unassigned[1..] {
            ticker.tick()?;
            rest.push((cache.get(seed as usize, r as usize), r));
        }
        rest.sort_unstable();
        let mut block = vec![seed];
        block.extend(rest.iter().take(k - 1).map(|&(_, r)| r));
        // Remove block members from the pool.
        let member_set: std::collections::HashSet<u32> = block.iter().copied().collect();
        unassigned.retain(|r| !member_set.contains(r));
        blocks.push(block);
    }
    if !unassigned.is_empty() {
        blocks.push(unassigned);
    }
    Partition::new(blocks, n, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kanon_core::Error;

    #[test]
    fn groups_duplicates_together() {
        let ds = Dataset::from_rows(vec![vec![0, 0], vec![9, 9], vec![0, 0], vec![9, 9]]).unwrap();
        let p = knn_greedy(&ds, 2, &Budget::unlimited()).unwrap();
        assert_eq!(p.anonymization_cost(&ds), 0);
    }

    #[test]
    fn remainder_forms_final_block() {
        let ds = Dataset::from_fn(7, 2, |i, _| i as u32);
        let p = knn_greedy(&ds, 3, &Budget::unlimited()).unwrap();
        let mut sizes: Vec<usize> = p.blocks().iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![3, 4]);
    }

    #[test]
    fn k_equals_n() {
        let ds = Dataset::from_fn(4, 2, |i, _| i as u32);
        let p = knn_greedy(&ds, 4, &Budget::unlimited()).unwrap();
        assert_eq!(p.n_blocks(), 1);
    }

    #[test]
    fn bad_k() {
        let ds = Dataset::from_fn(3, 2, |i, _| i as u32);
        assert!(knn_greedy(&ds, 0, &Budget::unlimited()).is_err());
        assert!(knn_greedy(&ds, 4, &Budget::unlimited()).is_err());
    }

    #[test]
    fn governed_unlimited_matches_ungoverned() {
        let roomy = Budget::builder()
            .deadline(std::time::Duration::from_secs(3600))
            .build();
        let ds = Dataset::from_fn(19, 3, |i, j| ((i * 7 + j * 5) % 6) as u32);
        let a = knn_greedy(&ds, 3, &Budget::unlimited()).unwrap();
        let b = knn_greedy(&ds, 3, &roomy).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn governed_cancellation_trips() {
        let ds = Dataset::from_fn(19, 3, |i, j| ((i * 7 + j * 5) % 6) as u32);
        let budget = Budget::unlimited();
        budget.cancel();
        let err = knn_greedy(&ds, 3, &budget).unwrap_err();
        assert!(matches!(err, Error::BudgetExceeded { .. }), "{err}");
    }

    #[test]
    fn beats_random_on_clustered_data() {
        // Two tight clusters; knn should pair within clusters.
        let ds = Dataset::from_rows(vec![
            vec![0, 0, 0],
            vec![9, 9, 9],
            vec![0, 0, 1],
            vec![9, 9, 8],
        ])
        .unwrap();
        let p = knn_greedy(&ds, 2, &Budget::unlimited()).unwrap();
        // Each within-cluster pair suppresses 1 column in 2 rows.
        assert_eq!(p.anonymization_cost(&ds), 4);
    }
}
