//! Exact optimum by dynamic programming over row subsets.
//!
//! `dp[mask]` is the minimum total `ANON` cost of partitioning the rows in
//! `mask` into groups of size `k..=2k−1`. To avoid enumerating each
//! partition more than once, the block containing the lowest-indexed row of
//! `mask` is enumerated explicitly:
//!
//! ```text
//! dp[mask] = min over S ⊆ mask, low(mask) ∈ S, k ≤ |S| ≤ 2k−1 of
//!            ANON(S) + dp[mask ∖ S]
//! ```
//!
//! Restricting blocks to at most `2k−1` rows is lossless (§4.1: any larger
//! group can be split without increasing cost). Memory is `2^n` cost slots
//! plus `2^n` parent pointers, so the solver is guarded at `n ≤ 24` by
//! default (20 in the [`SubsetDpConfig::default`]).

use super::Optimal;
use crate::dataset::Dataset;
use crate::diameter::anon_cost;
use crate::error::{Error, Result};
use crate::govern::Budget;
use crate::partition::Partition;

/// Tuning knobs for the subset DP.
#[derive(Clone, Debug)]
pub struct SubsetDpConfig {
    /// Hard cap on `n`; `2^n` table entries are allocated.
    pub max_rows: usize,
}

impl Default for SubsetDpConfig {
    fn default() -> Self {
        SubsetDpConfig { max_rows: 20 }
    }
}

/// Computes the exact optimum. The `2^n`-slot tables are charged against
/// `budget`'s memory cap before allocation and the mask/subset enumeration
/// loops poll it at bounded intervals.
///
/// ```
/// use kanon_core::{Budget, Dataset, exact::{subset_dp, SubsetDpConfig}};
/// let ds = Dataset::from_rows(vec![
///     vec![0, 0], vec![0, 1], vec![5, 5], vec![5, 5],
/// ]).unwrap();
/// let opt = subset_dp(&ds, 2, &SubsetDpConfig::default(), &Budget::unlimited()).unwrap();
/// assert_eq!(opt.cost, 2); // pair {0,1} stars one column each; {2,3} is free
/// assert_eq!(opt.partition.n_blocks(), 2);
/// ```
///
/// # Errors
/// * [`Error::KZero`] / [`Error::KExceedsRows`] on a bad `k`;
/// * [`Error::InstanceTooLarge`] when `n > config.max_rows` or `n > 24`;
/// * [`Error::BudgetExceeded`] when the budget trips.
pub fn subset_dp(
    ds: &Dataset,
    k: usize,
    config: &SubsetDpConfig,
    budget: &Budget,
) -> Result<Optimal> {
    dp_over_blocks(ds, k, config, "subset_dp", budget, |rows| {
        anon_cost(ds, rows) as u64
    })
}

/// The optimal **k-minimum diameter sum** (§4.1): the minimum of
/// `Σ_S d(S)` over all partitions of the rows into blocks of size
/// `k..=2k−1` — exactly the quantity `min_Π d(Π)` in Lemma 4.1 (whose
/// minimum ranges over that same restricted family). Shares the subset-DP
/// engine with [`subset_dp`], only the block cost differs.
///
/// # Errors
/// Same as [`subset_dp`].
pub fn min_diameter_sum(
    ds: &Dataset,
    k: usize,
    config: &SubsetDpConfig,
    budget: &Budget,
) -> Result<Optimal> {
    dp_over_blocks(ds, k, config, "min_diameter_sum", budget, |rows| {
        crate::diameter::diameter(ds, rows) as u64
    })
}

/// Shared DP engine: minimize an additive per-block cost over all
/// partitions into blocks of size `k..=2k−1`.
fn dp_over_blocks(
    ds: &Dataset,
    k: usize,
    config: &SubsetDpConfig,
    solver: &'static str,
    budget: &Budget,
    block_cost: impl Fn(&[usize]) -> u64,
) -> Result<Optimal> {
    ds.check_k(k)?;
    budget.check()?;
    let n = ds.n_rows();
    let hard_cap = 24;
    if n > config.max_rows || n > hard_cap {
        return Err(Error::InstanceTooLarge {
            solver,
            limit: format!("n = {n} exceeds limit {}", config.max_rows.min(hard_cap)),
        });
    }

    let full: u32 = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
    const INF: u64 = u64::MAX / 2;
    // 8-byte dp slot + 4-byte parent pointer per mask.
    budget.try_charge_memory(((full as u64) + 1).saturating_mul(12))?;
    let mut dp = vec![INF; (full as usize) + 1];
    let mut parent = vec![0u32; (full as usize) + 1];
    dp[0] = 0;

    let cost_of = |block_mask: u32| -> u64 {
        let rows: Vec<usize> = (0..n).filter(|&r| block_mask & (1 << r) != 0).collect();
        block_cost(&rows)
    };

    let max_block = (2 * k - 1).min(n);

    let mut ticker = budget.ticker();
    for mask in 1..=(full as usize) {
        ticker.tick()?;
        let mask = mask as u32;
        let pc = mask.count_ones() as usize;
        if pc < k {
            continue; // Unpartitionable remainder; stays INF.
        }
        let low = mask.trailing_zeros();
        let rest = mask & !(1 << low);
        // Bits of `rest` as positions, for combination enumeration.
        let rest_bits: Vec<u32> = (0..n as u32).filter(|&b| rest & (1 << b) != 0).collect();
        let lo_bit = 1u32 << low;

        // Enumerate each subset of `rest_bits` of size k-1 ..= max_block-1
        // exactly once (elements taken in ascending index order).
        let mut best = INF;
        let mut best_block = 0u32;
        let consider = |block: u32, best: &mut u64, best_block: &mut u32| {
            let remainder = mask & !block;
            let rem_cost = dp[remainder as usize];
            if rem_cost < INF {
                let total = cost_of(block) + rem_cost;
                if total < *best {
                    *best = total;
                    *best_block = block;
                }
            }
        };
        if k == 1 {
            consider(lo_bit, &mut best, &mut best_block);
        }
        let l = rest_bits.len();
        // (next start index, chosen bits among rest, chosen count).
        let mut stack: Vec<(usize, u32, usize)> = vec![(0, 0, 0)];
        while let Some((start, chosen, cnt)) = stack.pop() {
            ticker.tick()?;
            #[allow(clippy::needless_range_loop)] // j's *index* feeds the continuation push
            for j in start..l {
                let nc = chosen | (1u32 << rest_bits[j]);
                let size = cnt + 2; // +1 taken bit, +1 for `low`
                if size >= k && size <= max_block {
                    consider(nc | lo_bit, &mut best, &mut best_block);
                }
                // Continue extending if the block may still grow and could
                // still reach size k with the bits after j.
                if size < max_block && j + 1 < l && size + (l - j - 1) >= k {
                    stack.push((j + 1, nc, cnt + 1));
                }
            }
        }
        dp[mask as usize] = best;
        parent[mask as usize] = best_block;
    }

    if dp[full as usize] >= INF {
        // Cannot happen for k ≤ n, but keep the invariant explicit.
        return Err(Error::InvalidPartition(format!(
            "{solver}: DP found no feasible partition"
        )));
    }

    // Reconstruct blocks.
    let mut blocks: Vec<Vec<u32>> = Vec::new();
    let mut mask = full;
    while mask != 0 {
        let block = parent[mask as usize];
        debug_assert!(block != 0 && block & !mask == 0, "corrupt parent chain");
        blocks.push((0..n as u32).filter(|&r| block & (1 << r) != 0).collect());
        mask &= !block;
    }
    let partition = Partition::new(blocks, n, k)?;
    Ok(Optimal {
        cost: dp[full as usize] as usize,
        partition,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diameter::anon_cost as anon;
    use proptest::prelude::*;

    fn solve(rows: Vec<Vec<u32>>, k: usize) -> Optimal {
        let ds = Dataset::from_rows(rows).unwrap();
        subset_dp(&ds, k, &SubsetDpConfig::default(), &Budget::unlimited()).unwrap()
    }

    #[test]
    fn pairs_of_duplicates_cost_zero() {
        let opt = solve(vec![vec![1, 1], vec![1, 1], vec![2, 2], vec![2, 2]], 2);
        assert_eq!(opt.cost, 0);
        assert_eq!(opt.partition.n_blocks(), 2);
    }

    #[test]
    fn forced_merge_pays_disagreement() {
        // Two rows differing in one column must merge for k = 2: 2 stars.
        let opt = solve(vec![vec![0, 0], vec![0, 1]], 2);
        assert_eq!(opt.cost, 2);
    }

    #[test]
    fn optimal_prefers_cheap_pairing() {
        // Rows: a=00, a'=01, b=50 51? Craft so pairing (0,1) and (2,3) beats
        // cross pairings.
        let opt = solve(vec![vec![0, 0], vec![0, 1], vec![9, 0], vec![9, 1]], 2);
        // Pair {0,1} costs 2 (col 1), {2,3} costs 2 → total 4.
        // Cross pairing {0,2} costs 2, {1,3} costs 2 → also 4. Either way 4.
        assert_eq!(opt.cost, 4);
    }

    #[test]
    fn k3_grouping() {
        let opt = solve(
            vec![
                vec![0, 0, 0],
                vec![0, 0, 1],
                vec![0, 0, 2],
                vec![7, 7, 7],
                vec![7, 7, 8],
                vec![7, 7, 9],
            ],
            3,
        );
        // Each triple suppresses its last column: 3 + 3.
        assert_eq!(opt.cost, 6);
        assert_eq!(opt.partition.n_blocks(), 2);
    }

    #[test]
    fn k_equals_n_returns_single_block() {
        let opt = solve(vec![vec![0, 5], vec![1, 5], vec![2, 5]], 3);
        assert_eq!(opt.cost, 3); // column 0 suppressed in all three rows
        assert_eq!(opt.partition.n_blocks(), 1);
    }

    #[test]
    fn k1_is_free() {
        let opt = solve(vec![vec![3], vec![4], vec![5]], 1);
        assert_eq!(opt.cost, 0);
        assert_eq!(opt.partition.n_blocks(), 3);
    }

    #[test]
    fn odd_row_joins_cheapest_group() {
        // 5 rows, k = 2: one block of 3 somewhere.
        let opt = solve(
            vec![
                vec![0, 0],
                vec![0, 0],
                vec![0, 1], // cheapest third wheel for the block above
                vec![9, 9],
                vec![9, 9],
            ],
            2,
        );
        // {0,1,2}: col 1 non-constant → 3 stars; {3,4}: 0. Total 3.
        // Alternative {0,1} + {2,3,4}: both cols differ in second block → 6.
        assert_eq!(opt.cost, 3);
    }

    #[test]
    fn guard_rejects_large_instances() {
        let ds = Dataset::from_fn(21, 1, |i, _| i as u32);
        assert!(matches!(
            subset_dp(&ds, 2, &SubsetDpConfig::default(), &Budget::unlimited()),
            Err(Error::InstanceTooLarge { .. })
        ));
    }

    #[test]
    fn governed_unlimited_matches_and_memory_cap_trips() {
        let roomy = Budget::builder()
            .deadline(std::time::Duration::from_secs(3600))
            .build();
        let ds = Dataset::from_fn(14, 3, |i, j| ((i * 5 + j) % 4) as u32);
        let plain = subset_dp(&ds, 2, &SubsetDpConfig::default(), &Budget::unlimited()).unwrap();
        let governed = subset_dp(&ds, 2, &SubsetDpConfig::default(), &roomy).unwrap();
        assert_eq!(plain.cost, governed.cost);
        assert_eq!(plain.partition, governed.partition);

        // 2^14 masks need 12 B each ≈ 196 KiB; a 1 KiB cap fails up front.
        let starved = Budget::builder().max_memory_bytes(1024).build();
        assert!(matches!(
            subset_dp(&ds, 2, &SubsetDpConfig::default(), &starved),
            Err(Error::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn reported_cost_matches_partition_cost() {
        let ds = Dataset::from_rows(vec![
            vec![0, 1, 2],
            vec![0, 1, 3],
            vec![4, 1, 2],
            vec![4, 5, 2],
            vec![0, 5, 3],
            vec![4, 5, 3],
        ])
        .unwrap();
        let opt = subset_dp(&ds, 2, &SubsetDpConfig::default(), &Budget::unlimited()).unwrap();
        assert_eq!(opt.cost, opt.partition.anonymization_cost(&ds));
        assert!(opt.partition.min_block_size().unwrap() >= 2);
    }

    /// Brute-force reference: enumerate *all* partitions with blocks ≥ k via
    /// restricted-growth strings, no 2k−1 cap, and compare.
    fn brute_force(ds: &Dataset, k: usize) -> usize {
        fn rec(
            ds: &Dataset,
            k: usize,
            assignment: &mut Vec<usize>,
            next_block: usize,
            best: &mut usize,
        ) {
            let n = ds.n_rows();
            if assignment.len() == n {
                let mut blocks: Vec<Vec<usize>> = vec![Vec::new(); next_block];
                for (r, &b) in assignment.iter().enumerate() {
                    blocks[b].push(r);
                }
                if blocks.iter().all(|b| b.len() >= k) {
                    let cost: usize = blocks.iter().map(|b| anon(ds, b)).sum();
                    *best = (*best).min(cost);
                }
                return;
            }
            for b in 0..=next_block.min(assignment.len()) {
                assignment.push(b);
                rec(ds, k, assignment, next_block.max(b + 1), best);
                assignment.pop();
            }
        }
        let mut best = usize::MAX;
        rec(ds, k, &mut Vec::new(), 0, &mut best);
        best
    }

    #[test]
    fn min_diameter_sum_on_clusters() {
        let ds = Dataset::from_rows(vec![
            vec![0, 0, 0],
            vec![0, 0, 1],
            vec![7, 7, 7],
            vec![7, 7, 8],
        ])
        .unwrap();
        let opt =
            min_diameter_sum(&ds, 2, &SubsetDpConfig::default(), &Budget::unlimited()).unwrap();
        // Pairing within clusters: d = 1 + 1.
        assert_eq!(opt.cost, 2);
        assert_eq!(opt.cost, opt.partition.diameter_sum(&ds));
    }

    #[test]
    fn diameter_and_anon_optima_can_differ() {
        // Lemma 4.1 relates but does not equate the two objectives; check
        // both run and the standard sandwich holds on a small instance.
        let ds = Dataset::from_rows(vec![
            vec![0, 0, 0],
            vec![1, 1, 0],
            vec![0, 1, 1],
            vec![2, 2, 2],
            vec![2, 2, 3],
            vec![3, 2, 2],
        ])
        .unwrap();
        let k = 3;
        let dsum =
            min_diameter_sum(&ds, k, &SubsetDpConfig::default(), &Budget::unlimited()).unwrap();
        let opt = subset_dp(&ds, k, &SubsetDpConfig::default(), &Budget::unlimited()).unwrap();
        // Lower bound of Lemma 4.1: (k/2)·dΠ* ≤ OPT.
        assert!(k * dsum.cost <= 2 * opt.cost);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Lemma 4.1 lower bound holds on random instances:
        /// (k/2) · min_Π d(Π) ≤ OPT.
        #[test]
        fn lemma_lower_bound_holds(
            flat in proptest::collection::vec(0u32..3, 6 * 4),
            k in 1usize..4,
        ) {
            let ds = Dataset::from_flat(6, 4, flat).unwrap();
            let dsum =
                min_diameter_sum(&ds, k, &SubsetDpConfig::default(), &Budget::unlimited()).unwrap();
            let opt = subset_dp(&ds, k, &SubsetDpConfig::default(), &Budget::unlimited()).unwrap();
            prop_assert!(k * dsum.cost <= 2 * opt.cost,
                "k = {k}, dΠ* = {}, OPT = {}", dsum.cost, opt.cost);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// subset_dp matches an unconstrained brute force on tiny instances,
        /// confirming the 2k−1 block cap is lossless.
        #[test]
        fn matches_unrestricted_brute_force(
            flat in proptest::collection::vec(0u32..3, 6 * 3),
            k in 1usize..4,
        ) {
            let ds = Dataset::from_flat(6, 3, flat).unwrap();
            let opt = subset_dp(&ds, k, &SubsetDpConfig::default(), &Budget::unlimited()).unwrap();
            prop_assert_eq!(opt.cost, brute_force(&ds, k));
            prop_assert_eq!(opt.cost, opt.partition.anonymization_cost(&ds));
        }
    }
}
