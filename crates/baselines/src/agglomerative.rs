//! Bottom-up agglomerative grouping by cheapest `ANON` delta.
//!
//! Start with singletons; while any block is smaller than `k`, merge the
//! pair `(A, B)` — with at least one of them undersized — minimizing
//! `ANON(A ∪ B) − ANON(A) − ANON(B)`. `O(n³·m)` worst case with the naive
//! rescan used here; fine at baseline-comparison sizes. Merge-candidate
//! costs come from a shared [`PairwiseDistances`] cache, whose pair and
//! zero-diameter fast paths cover the bulk of early-round evaluations.

use kanon_core::error::Result;
use kanon_core::govern::Budget;
use kanon_core::{Dataset, PairwiseDistances, Partition};

/// Builds a partition by agglomerative merging. The distance-cache build
/// and every merge-candidate evaluation poll `budget`.
///
/// # Errors
/// Standard `k` validation errors, or
/// [`kanon_core::Error::BudgetExceeded`] when the budget trips.
pub fn agglomerative(ds: &Dataset, k: usize, budget: &Budget) -> Result<Partition> {
    ds.check_k(k)?;
    budget.check()?;
    let cache = PairwiseDistances::build(ds, Some(1), budget)?;
    let n = ds.n_rows();
    let mut blocks: Vec<Vec<u32>> = (0..n as u32).map(|r| vec![r]).collect();
    let mut costs: Vec<usize> = vec![0; n];
    let mut ticker = budget.ticker();

    loop {
        if !blocks.iter().any(|b| b.len() < k) {
            break;
        }
        let mut best: Option<(usize, usize, usize, usize)> = None; // (delta, merged_cost, i, j)
        for i in 0..blocks.len() {
            for j in (i + 1)..blocks.len() {
                ticker.tick()?;
                if blocks[i].len() >= k && blocks[j].len() >= k {
                    continue;
                }
                let mut union: Vec<usize> = blocks[i]
                    .iter()
                    .chain(&blocks[j])
                    .map(|&r| r as usize)
                    .collect();
                union.sort_unstable();
                let merged = cache.anon_cost(ds, &union);
                let delta = merged.saturating_sub(costs[i] + costs[j]);
                let better = match best {
                    None => true,
                    Some((bd, _, _, _)) => delta < bd,
                };
                if better {
                    best = Some((delta, merged, i, j));
                }
            }
        }
        let (_, merged_cost, i, j) = best.expect("an undersized block always has a partner");
        // Merge j into i; remove j (swap-remove keeps indices dense).
        let absorbed = blocks.swap_remove(j);
        costs.swap_remove(j);
        blocks[i].extend(absorbed);
        costs[i] = merged_cost;
    }
    Partition::new(blocks, n, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kanon_core::Error;

    #[test]
    fn merges_duplicates_first() {
        let ds = Dataset::from_rows(vec![vec![1, 1], vec![1, 1], vec![5, 5], vec![5, 5]]).unwrap();
        let p = agglomerative(&ds, 2, &Budget::unlimited()).unwrap();
        assert_eq!(p.anonymization_cost(&ds), 0);
        assert_eq!(p.n_blocks(), 2);
    }

    #[test]
    fn handles_odd_counts() {
        let ds = Dataset::from_fn(5, 3, |i, j| ((i + j) % 3) as u32);
        let p = agglomerative(&ds, 2, &Budget::unlimited()).unwrap();
        assert!(p.min_block_size().unwrap() >= 2);
        let total: usize = p.blocks().iter().map(Vec::len).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn single_block_when_k_equals_n() {
        let ds = Dataset::from_fn(3, 2, |i, _| i as u32);
        let p = agglomerative(&ds, 3, &Budget::unlimited()).unwrap();
        assert_eq!(p.n_blocks(), 1);
    }

    #[test]
    fn never_worse_than_trivial_on_clusters() {
        let ds = Dataset::from_rows(vec![
            vec![0, 0, 0],
            vec![0, 0, 1],
            vec![7, 7, 7],
            vec![7, 7, 8],
        ])
        .unwrap();
        let p = agglomerative(&ds, 2, &Budget::unlimited()).unwrap();
        assert_eq!(p.anonymization_cost(&ds), 4); // two within-cluster pairs
    }

    #[test]
    fn bad_k() {
        let ds = Dataset::from_fn(3, 2, |i, _| i as u32);
        assert!(agglomerative(&ds, 0, &Budget::unlimited()).is_err());
        assert!(agglomerative(&ds, 9, &Budget::unlimited()).is_err());
    }

    #[test]
    fn governed_unlimited_matches_ungoverned() {
        let roomy = Budget::builder()
            .deadline(std::time::Duration::from_secs(3600))
            .build();
        let ds = Dataset::from_fn(17, 3, |i, j| ((i * 11 + j * 3) % 6) as u32);
        let a = agglomerative(&ds, 3, &Budget::unlimited()).unwrap();
        let b = agglomerative(&ds, 3, &roomy).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn governed_cancellation_trips() {
        let ds = Dataset::from_fn(17, 3, |i, j| ((i * 11 + j * 3) % 6) as u32);
        let budget = Budget::unlimited();
        budget.cancel();
        let err = agglomerative(&ds, 3, &budget).unwrap_err();
        assert!(matches!(err, Error::BudgetExceeded { .. }), "{err}");
    }
}
