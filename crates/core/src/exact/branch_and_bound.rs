//! Exact optimum by branch and bound over partitions.
//!
//! Rows are assigned in index order; each row either joins an open block
//! (capped at `2k−1` members, which is lossless per §4.1) or opens a new
//! one. Two admissible lower bounds prune the search:
//!
//! * **k-NN bound** — in any feasible solution, row `r`'s group contains
//!   `k−1` other rows, so `r` suppresses at least its distance to its
//!   `(k−1)`-th nearest neighbour (a Lemma 4.1-style argument). Summed over
//!   unassigned rows this bounds their future contribution.
//! * **deficit bound** — every open block with `s < k` members must absorb
//!   `k − s` more rows, each paying at least the block's current
//!   non-constant column count.
//!
//! The search is *anytime*: it seeds its incumbent with the center greedy
//! (Theorem 4.2) and, if the node budget runs out, returns the best found
//! with `proven_optimal = false`.

use crate::dataset::Dataset;
use crate::diameter::GroupCost;
use crate::distcache::PairwiseDistances;
use crate::error::{Error, Result};
use crate::govern::{Budget, PollTicker};
use crate::greedy::{center_greedy_cover, reduce, CenterConfig};
use crate::partition::Partition;

/// Tuning knobs for the branch and bound.
#[derive(Clone, Debug)]
pub struct BranchBoundConfig {
    /// Hard cap on `n` — beyond this the search space is hopeless even with
    /// good bounds.
    pub max_rows: usize,
    /// Node budget; exceeded ⇒ the best incumbent is returned unproven.
    pub max_nodes: u64,
    /// Optional externally supplied upper bound (e.g. from a better
    /// heuristic); the solver still computes its own greedy incumbent and
    /// uses the tighter of the two.
    pub initial_upper_bound: Option<usize>,
}

impl Default for BranchBoundConfig {
    fn default() -> Self {
        BranchBoundConfig {
            max_rows: 48,
            max_nodes: 20_000_000,
            initial_upper_bound: None,
        }
    }
}

/// Outcome of a branch-and-bound run.
#[derive(Clone, Debug)]
pub struct BranchBoundResult {
    /// Best cost found.
    pub cost: usize,
    /// Partition achieving `cost`.
    pub partition: Partition,
    /// Whether the search space was exhausted (making `cost` optimal).
    pub proven_optimal: bool,
    /// Nodes expanded.
    pub nodes: u64,
}

struct Searcher<'a> {
    ds: &'a Dataset,
    k: usize,
    n: usize,
    /// Suffix sums of the per-row k-NN lower bound.
    suffix_lb: Vec<u64>,
    best_cost: u64,
    best_assignment: Option<Vec<usize>>,
    nodes: u64,
    max_nodes: u64,
    exhausted: bool,
    /// Budget poll, one tick per expanded node; a trip unwinds the whole
    /// recursion as `Err`.
    ticker: PollTicker<'a>,
}

impl Searcher<'_> {
    fn run(
        &mut self,
        blocks: &mut Vec<(GroupCost, Vec<u32>)>,
        idx: usize,
        cost: u64,
    ) -> Result<()> {
        self.ticker.tick()?;
        self.nodes += 1;
        if self.nodes > self.max_nodes {
            self.exhausted = false;
            return Ok(());
        }
        if idx == self.n {
            if blocks.iter().all(|(g, _)| g.size() >= self.k) && cost < self.best_cost {
                self.best_cost = cost;
                let mut assignment = vec![0usize; self.n];
                for (b, (_, members)) in blocks.iter().enumerate() {
                    for &r in members {
                        assignment[r as usize] = b;
                    }
                }
                self.best_assignment = Some(assignment);
            }
            return Ok(());
        }

        // Feasibility: open deficits must fit in the remaining rows.
        let unassigned = (self.n - idx) as u64;
        let deficit: u64 = blocks
            .iter()
            .map(|(g, _)| (self.k.saturating_sub(g.size())) as u64)
            .sum();
        if deficit > unassigned {
            return Ok(());
        }

        // Admissible bound on the additional cost.
        let deficit_bound: u64 = blocks
            .iter()
            .map(|(g, _)| (self.k.saturating_sub(g.size()) * g.col_count()) as u64)
            .sum();
        let knn_bound = self.suffix_lb[idx];
        if cost + deficit_bound.max(knn_bound) >= self.best_cost {
            return Ok(());
        }

        // Branch: join each open block (cheapest extension first), then open
        // a new block.
        let mut options: Vec<(u64, usize)> = Vec::with_capacity(blocks.len());
        for (b, (g, _)) in blocks.iter().enumerate() {
            if g.size() < 2 * self.k - 1 {
                let new_cost = g.cost_with(self.ds, idx) as u64;
                let delta = new_cost - g.cost() as u64;
                options.push((delta, b));
            }
        }
        options.sort_unstable();

        for (_, b) in options {
            let saved = blocks[b].clone();
            let old_block_cost = blocks[b].0.cost() as u64;
            blocks[b].0.push(self.ds, idx);
            blocks[b].1.push(idx as u32);
            let new_cost = cost - old_block_cost + blocks[b].0.cost() as u64;
            self.run(blocks, idx + 1, new_cost)?;
            blocks[b] = saved;
            if self.nodes > self.max_nodes {
                return Ok(());
            }
        }

        // Open a new block only if enough rows remain to fill it.
        if unassigned >= self.k as u64 {
            blocks.push((GroupCost::new(self.ds, idx), vec![idx as u32]));
            self.run(blocks, idx + 1, cost)?;
            blocks.pop();
        }
        Ok(())
    }
}

/// Runs the branch and bound. The distance cache, the greedy incumbent and
/// every expanded node poll `budget`; a tripped limit unwinds the whole
/// search as [`Error::BudgetExceeded`] (the soft `max_nodes` cap, by
/// contrast, still returns the incumbent unproven).
///
/// # Errors
/// * [`Error::KZero`] / [`Error::KExceedsRows`] on a bad `k`;
/// * [`Error::InstanceTooLarge`] when `n > config.max_rows`;
/// * [`Error::BudgetExceeded`] / [`Error::Overflow`] from `budget`.
pub fn branch_and_bound(
    ds: &Dataset,
    k: usize,
    config: &BranchBoundConfig,
    budget: &Budget,
) -> Result<BranchBoundResult> {
    ds.check_k(k)?;
    budget.check()?;
    let n = ds.n_rows();
    if n > config.max_rows {
        return Err(Error::InstanceTooLarge {
            solver: "branch_and_bound",
            limit: format!("n = {n} exceeds max_rows = {}", config.max_rows),
        });
    }

    // One shared distance cache serves both the k-NN bound and the greedy
    // incumbent below.
    let dm = PairwiseDistances::build(ds, Some(1), budget)?;
    let lb: Vec<u64> = (0..n)
        .map(|r| u64::from(dm.kth_neighbor_distance(r, k - 1).unwrap_or(0)))
        .collect();
    let mut suffix_lb = vec![0u64; n + 1];
    for r in (0..n).rev() {
        suffix_lb[r] = suffix_lb[r + 1] + lb[r];
    }

    // Greedy incumbent. Its own failures are tolerated (the search can still
    // run from scratch), but a tripped budget is not a solver failure and
    // must propagate.
    let greedy = center_greedy_cover(ds, k, &CenterConfig::default(), Some(&dm), budget)
        .and_then(|c| reduce(&c, k))
        .map(|p| {
            let p = p.split_large(k);
            (p.anonymization_cost(ds) as u64, p)
        });
    let (mut best_cost, mut best_partition) = match greedy {
        Ok((c, p)) => (c, Some(p)),
        Err(e @ (Error::BudgetExceeded { .. } | Error::Overflow { .. })) => return Err(e),
        Err(_) => (u64::MAX / 2, None),
    };
    if let Some(ub) = config.initial_upper_bound {
        // An externally supplied bound can prune but provides no partition;
        // keep the greedy partition as the incumbent artifact.
        best_cost = best_cost.min(ub as u64);
    }

    let mut searcher = Searcher {
        ds,
        k,
        n,
        suffix_lb,
        // +1 so a solution matching the incumbent exactly is re-derived and
        // its assignment captured.
        best_cost: best_cost + 1,
        best_assignment: None,
        nodes: 0,
        max_nodes: config.max_nodes,
        exhausted: true,
        ticker: budget.ticker(),
    };
    let mut blocks: Vec<(GroupCost, Vec<u32>)> = Vec::new();
    searcher.run(&mut blocks, 0, 0)?;

    let (cost, partition) = match searcher.best_assignment {
        Some(a) => {
            let p = Partition::from_assignment(&a);
            (p.anonymization_cost(ds), p)
        }
        None => match best_partition.take() {
            Some(p) => (p.anonymization_cost(ds), p),
            None => {
                return Err(Error::InvalidPartition(
                    "branch and bound found no feasible partition".into(),
                ))
            }
        },
    };

    Ok(BranchBoundResult {
        cost,
        partition,
        proven_optimal: searcher.exhausted,
        nodes: searcher.nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{subset_dp, SubsetDpConfig};
    use proptest::prelude::*;

    fn bb(rows: Vec<Vec<u32>>, k: usize) -> BranchBoundResult {
        let ds = Dataset::from_rows(rows).unwrap();
        branch_and_bound(&ds, k, &BranchBoundConfig::default(), &Budget::unlimited()).unwrap()
    }

    #[test]
    fn trivial_duplicates() {
        let res = bb(vec![vec![1, 1], vec![1, 1], vec![1, 1]], 3);
        assert_eq!(res.cost, 0);
        assert!(res.proven_optimal);
    }

    #[test]
    fn matches_known_optimum() {
        let res = bb(
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
        assert_eq!(res.cost, 6);
        assert!(res.proven_optimal);
    }

    #[test]
    fn handles_moderate_clustered_instance() {
        // 18 rows in 6 tight pairs-of-triples; well within reach.
        let mut rows = Vec::new();
        for c in 0..6u32 {
            for v in 0..3u32 {
                rows.push(vec![c * 10, c * 10 + 1, c * 10 + 2, v]);
            }
        }
        let res = bb(rows, 3);
        assert_eq!(res.cost, 18); // each triple stars its last column
        assert!(res.proven_optimal);
    }

    #[test]
    fn node_budget_returns_incumbent() {
        let ds = Dataset::from_fn(12, 4, |i, j| ((i * 7 + j * 3) % 5) as u32);
        let config = BranchBoundConfig {
            max_nodes: 10,
            ..Default::default()
        };
        let res = branch_and_bound(&ds, 2, &config, &Budget::unlimited()).unwrap();
        assert!(!res.proven_optimal);
        // The incumbent still rounds to a feasible anonymization.
        assert!(res.partition.min_block_size().unwrap() >= 2);
    }

    #[test]
    fn governed_unlimited_matches_and_cancellation_propagates() {
        let roomy = Budget::builder()
            .deadline(std::time::Duration::from_secs(3600))
            .build();
        let ds = Dataset::from_fn(10, 3, |i, j| ((i * 3 + j) % 4) as u32);
        let plain =
            branch_and_bound(&ds, 2, &BranchBoundConfig::default(), &Budget::unlimited()).unwrap();
        let governed = branch_and_bound(&ds, 2, &BranchBoundConfig::default(), &roomy).unwrap();
        assert_eq!(plain.cost, governed.cost);
        assert_eq!(plain.partition, governed.partition);

        let cancelled = Budget::unlimited();
        cancelled.cancel();
        assert!(matches!(
            branch_and_bound(&ds, 2, &BranchBoundConfig::default(), &cancelled),
            Err(Error::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn guard_rejects_large_instances() {
        let ds = Dataset::from_fn(100, 2, |i, _| i as u32);
        assert!(matches!(
            branch_and_bound(&ds, 2, &BranchBoundConfig::default(), &Budget::unlimited()),
            Err(Error::InstanceTooLarge { .. })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Branch and bound agrees with the subset DP.
        #[test]
        fn agrees_with_subset_dp(
            flat in proptest::collection::vec(0u32..3, 8 * 3),
            k in 1usize..4,
        ) {
            let ds = Dataset::from_flat(8, 3, flat).unwrap();
            let dp = subset_dp(&ds, k, &SubsetDpConfig::default(), &Budget::unlimited()).unwrap();
            let bb =
                branch_and_bound(&ds, k, &BranchBoundConfig::default(), &Budget::unlimited()).unwrap();
            prop_assert!(bb.proven_optimal);
            prop_assert_eq!(bb.cost, dp.cost);
        }
    }
}
