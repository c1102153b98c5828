//! Exact optimum by search over suppression *patterns*.
//!
//! An equivalent formulation of optimal k-anonymity (used by Sweeney's exact
//! algorithm for relations of small degree, cited as [8] in the paper):
//! choose for every row `r` a pattern `P_r ⊆ {1..m}` of suppressed columns;
//! rows with the same pattern **and** the same surviving values form a
//! *cell*; every non-empty cell must contain at least `k` rows; minimize
//! `Σ_r |P_r|`. The minimum equals the partition formulation's optimum:
//! rounding a partition gives each block one cell, and conversely the cells
//! of a feasible pattern assignment are a legal partition whose rounding
//! costs no more.
//!
//! For small `m` the universe of candidate cells — `(pattern, projection)`
//! pairs supported by at least `k` rows — is small (`≤ 2^m · n`), so a
//! branch and bound over per-row cell choices is effective. This engine is
//! the designated cross-check for the low-degree regime (`m = O(log n)`),
//! complementing [`super::subset_dp`] which scales in `n` instead.

use std::collections::HashMap;

use super::Optimal;
use crate::dataset::Dataset;
use crate::error::{Error, Result};
use crate::govern::{Budget, PollTicker};
use crate::greedy::{center_greedy_cover, reduce, CenterConfig};
use crate::partition::Partition;

/// Tuning knobs for the pattern search.
#[derive(Clone, Debug)]
pub struct PatternConfig {
    /// Hard cap on `n`.
    pub max_rows: usize,
    /// Hard cap on `m` (the cell universe is `O(2^m · n)`).
    pub max_cols: usize,
    /// Node budget; exhausting it is an error (this engine does not return
    /// unproven incumbents).
    pub max_nodes: u64,
}

impl Default for PatternConfig {
    fn default() -> Self {
        PatternConfig {
            max_rows: 32,
            max_cols: 14,
            max_nodes: 50_000_000,
        }
    }
}

#[derive(Clone, Debug)]
struct Cell {
    price: u64,
    /// Supporting rows, ascending.
    supporters: Vec<u32>,
}

struct Searcher<'a> {
    cells: &'a [Cell],
    row_cells: &'a [Vec<usize>],
    suffix_lb: &'a [u64],
    k: usize,
    n: usize,
    assigned_count: Vec<usize>,
    /// Distinct used cells, in assignment order (DFS stack discipline).
    used_cells: Vec<usize>,
    choice: Vec<usize>,
    best_cost: u64,
    best_choice: Option<Vec<usize>>,
    nodes: u64,
    max_nodes: u64,
    out_of_budget: bool,
    /// Budget poll, one tick per expanded node.
    ticker: PollTicker<'a>,
}

impl Searcher<'_> {
    fn supporters_from(&self, cell: usize, idx: usize) -> usize {
        let sup = &self.cells[cell].supporters;
        let pos = sup.partition_point(|&r| (r as usize) < idx);
        sup.len() - pos
    }

    fn run(&mut self, idx: usize, cost: u64) -> Result<()> {
        self.ticker.tick()?;
        self.nodes += 1;
        if self.nodes > self.max_nodes {
            self.out_of_budget = true;
            return Ok(());
        }
        if idx == self.n {
            // Entry-time checks only prove quotas *reachable*; verify they
            // were actually met before capturing.
            let quotas_met = self
                .used_cells
                .iter()
                .all(|&c| self.assigned_count[c] >= self.k);
            if quotas_met && cost < self.best_cost {
                self.best_cost = cost;
                self.best_choice = Some(self.choice.clone());
            }
            return Ok(());
        }
        if cost + self.suffix_lb[idx] >= self.best_cost {
            return Ok(());
        }
        // Quota feasibility: every used, under-filled cell must still be
        // able to reach k from rows not yet assigned that support it.
        for u in 0..self.used_cells.len() {
            let c = self.used_cells[u];
            let cnt = self.assigned_count[c];
            if cnt < self.k && cnt + self.supporters_from(c, idx) < self.k {
                return Ok(());
            }
        }

        for opt in 0..self.row_cells[idx].len() {
            let c = self.row_cells[idx][opt];
            let price = self.cells[c].price;
            if cost + price + self.suffix_lb[idx + 1] >= self.best_cost {
                // Options are price-sorted; all later ones are no cheaper.
                break;
            }
            if self.assigned_count[c] == 0 {
                self.used_cells.push(c);
            }
            self.assigned_count[c] += 1;
            self.choice[idx] = c;
            self.run(idx + 1, cost + price)?;
            self.assigned_count[c] -= 1;
            if self.assigned_count[c] == 0 {
                let popped = self.used_cells.pop();
                debug_assert_eq!(popped, Some(c));
            }
            if self.out_of_budget {
                return Ok(());
            }
        }
        Ok(())
    }
}

/// Runs the pattern-based exact search. The `2^m`-pattern cell-universe
/// build, the greedy incumbent, and every expanded node poll `budget`.
///
/// # Errors
/// * [`Error::KZero`] / [`Error::KExceedsRows`] on a bad `k`;
/// * [`Error::InstanceTooLarge`] when the guards or the node budget are
///   exceeded;
/// * [`Error::BudgetExceeded`] / [`Error::Overflow`] from `budget`.
pub fn pattern_bb(
    ds: &Dataset,
    k: usize,
    config: &PatternConfig,
    budget: &Budget,
) -> Result<Optimal> {
    ds.check_k(k)?;
    budget.check()?;
    let n = ds.n_rows();
    let m = ds.n_cols();
    if n > config.max_rows || m > config.max_cols {
        return Err(Error::InstanceTooLarge {
            solver: "pattern_bb",
            limit: format!(
                "n = {n}, m = {m} exceed limits (max_rows = {}, max_cols = {})",
                config.max_rows, config.max_cols
            ),
        });
    }

    // Cell universe ≤ 2^m · n entries of (price + supporter id) order.
    budget.try_charge_memory((1u64 << m).saturating_mul(n as u64).saturating_mul(8))?;

    // Build the feasible-cell universe, pattern by pattern.
    let mut universe_ticker = budget.ticker();
    let mut cells: Vec<Cell> = Vec::new();
    let mut row_cells: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut patterns: Vec<u32> = (0..(1u32 << m)).collect();
    patterns.sort_by_key(|p| p.count_ones());
    for pattern in patterns {
        universe_ticker.tick()?;
        let price = u64::from(pattern.count_ones());
        // Group rows by their projection outside the pattern.
        let mut groups: HashMap<Vec<u32>, Vec<u32>> = HashMap::new();
        for r in 0..n {
            let key: Vec<u32> = ds
                .row(r)
                .iter()
                .enumerate()
                .filter(|&(j, _)| pattern & (1 << j) == 0)
                .map(|(_, &v)| v)
                .collect();
            groups.entry(key).or_default().push(r as u32);
        }
        for (_, supporters) in groups {
            if supporters.len() >= k {
                let id = cells.len();
                for &r in &supporters {
                    row_cells[r as usize].push(id);
                }
                cells.push(Cell { price, supporters });
            }
        }
    }
    // Patterns were visited in ascending popcount, so each row's options are
    // already price-sorted.
    debug_assert!(row_cells.iter().all(|cs| cs
        .windows(2)
        .all(|w| cells[w[0]].price <= cells[w[1]].price)));

    let lb: Vec<u64> = row_cells
        .iter()
        .map(|cs| cs.first().map_or(u64::from(u32::MAX), |&c| cells[c].price))
        .collect();
    let mut suffix_lb = vec![0u64; n + 1];
    for r in (0..n).rev() {
        suffix_lb[r] = suffix_lb[r + 1] + lb[r];
    }

    // Incumbent from the polynomial greedy; its failures are tolerated
    // except a tripped budget, which must propagate.
    let incumbent = match center_greedy_cover(ds, k, &CenterConfig::default(), None, budget)
        .and_then(|c| reduce(&c, k))
        .map(|p| p.anonymization_cost(ds) as u64)
    {
        Ok(c) => c,
        Err(e @ (Error::BudgetExceeded { .. } | Error::Overflow { .. })) => return Err(e),
        Err(_) => u64::MAX / 2,
    };

    let mut searcher = Searcher {
        cells: &cells,
        row_cells: &row_cells,
        suffix_lb: &suffix_lb,
        k,
        n,
        assigned_count: vec![0; cells.len()],
        used_cells: Vec::new(),
        choice: vec![usize::MAX; n],
        best_cost: incumbent + 1,
        best_choice: None,
        nodes: 0,
        max_nodes: config.max_nodes,
        out_of_budget: false,
        ticker: budget.ticker(),
    };
    searcher.run(0, 0)?;
    if searcher.out_of_budget {
        return Err(Error::InstanceTooLarge {
            solver: "pattern_bb",
            limit: format!("node budget of {} exhausted", config.max_nodes),
        });
    }

    let choice = searcher.best_choice.ok_or_else(|| {
        Error::InvalidPartition("pattern search found no feasible assignment".into())
    })?;
    // Cells of the assignment are the blocks of the certified partition.
    let mut ids: Vec<usize> = choice.clone();
    ids.sort_unstable();
    ids.dedup();
    let assignment: Vec<usize> = choice
        .iter()
        .map(|c| ids.binary_search(c).expect("id present"))
        .collect();
    let partition = Partition::from_assignment(&assignment);
    let cost = partition.anonymization_cost(ds);
    debug_assert!(cost as u64 <= searcher.best_cost);
    Ok(Optimal { cost, partition })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{subset_dp, SubsetDpConfig};
    use proptest::prelude::*;

    fn pb(rows: Vec<Vec<u32>>, k: usize) -> Optimal {
        let ds = Dataset::from_rows(rows).unwrap();
        pattern_bb(&ds, k, &PatternConfig::default(), &Budget::unlimited()).unwrap()
    }

    #[test]
    fn duplicates_are_free() {
        let opt = pb(vec![vec![1, 2], vec![1, 2], vec![1, 2]], 3);
        assert_eq!(opt.cost, 0);
    }

    #[test]
    fn single_disagreement_column() {
        let opt = pb(vec![vec![0, 0], vec![0, 1]], 2);
        assert_eq!(opt.cost, 2);
    }

    #[test]
    fn two_clusters_k3() {
        let opt = pb(
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
        assert_eq!(opt.cost, 6);
    }

    #[test]
    fn guards_reject_oversize() {
        let wide = Dataset::from_fn(4, 20, |i, j| (i + j) as u32);
        assert!(matches!(
            pattern_bb(&wide, 2, &PatternConfig::default(), &Budget::unlimited()),
            Err(Error::InstanceTooLarge { .. })
        ));
        let tall = Dataset::from_fn(40, 2, |i, _| i as u32);
        assert!(matches!(
            pattern_bb(&tall, 2, &PatternConfig::default(), &Budget::unlimited()),
            Err(Error::InstanceTooLarge { .. })
        ));
    }

    #[test]
    fn governed_unlimited_matches_and_cancellation_propagates() {
        let roomy = Budget::builder()
            .deadline(std::time::Duration::from_secs(3600))
            .build();
        let ds = Dataset::from_fn(8, 3, |i, j| ((i * 3 + j) % 3) as u32);
        let plain = pattern_bb(&ds, 2, &PatternConfig::default(), &Budget::unlimited()).unwrap();
        let governed = pattern_bb(&ds, 2, &PatternConfig::default(), &roomy).unwrap();
        assert_eq!(plain.cost, governed.cost);

        let cancelled = Budget::unlimited();
        cancelled.cancel();
        assert!(matches!(
            pattern_bb(&ds, 2, &PatternConfig::default(), &cancelled),
            Err(Error::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn budget_exhaustion_is_an_error() {
        let ds = Dataset::from_fn(10, 4, |i, j| ((i * 5 + j) % 3) as u32);
        let config = PatternConfig {
            max_nodes: 3,
            ..Default::default()
        };
        assert!(matches!(
            pattern_bb(&ds, 2, &config, &Budget::unlimited()),
            Err(Error::InstanceTooLarge { .. })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// The pattern engine agrees with the subset DP.
        #[test]
        fn agrees_with_subset_dp(
            flat in proptest::collection::vec(0u32..3, 7 * 3),
            k in 1usize..4,
        ) {
            let ds = Dataset::from_flat(7, 3, flat).unwrap();
            let dp = subset_dp(&ds, k, &SubsetDpConfig::default(), &Budget::unlimited()).unwrap();
            let pb = pattern_bb(&ds, k, &PatternConfig::default(), &Budget::unlimited()).unwrap();
            prop_assert_eq!(pb.cost, dp.cost);
        }
    }
}
