//! Local-search post-optimization of partitions.
//!
//! The paper closes by asking whether better approximations exist; a cheap
//! practical step in that direction is hill climbing on the partition the
//! greedy returns. Two move types, both preserving feasibility:
//!
//! * **relocate** — move a row from a block with more than `k` members into
//!   another block (capped at `2k−1`, which never hurts per §4.1);
//! * **swap** — exchange two rows between two blocks.
//!
//! Moves are applied only when they strictly reduce `Σ ANON(S)`, so the
//! search monotonically improves and terminates. This is an *extension*
//! beyond the paper (flagged as such in DESIGN.md); experiment E12 measures
//! how much of the greedy-to-optimal gap it recovers.

use crate::dataset::Dataset;
use crate::diameter::anon_cost;
use crate::error::Result;
use crate::govern::Budget;
use crate::partition::Partition;

/// Tuning knobs for [`improve`].
#[derive(Clone, Debug)]
pub struct LocalSearchConfig {
    /// Maximum full passes over all rows (each pass is `O(n · blocks · m)`).
    pub max_passes: usize,
    /// Cap block growth at `2k−1` (recommended; larger blocks never help).
    pub cap_block_size: bool,
}

impl Default for LocalSearchConfig {
    fn default() -> Self {
        LocalSearchConfig {
            max_passes: 20,
            cap_block_size: true,
        }
    }
}

/// Outcome of a local-search run.
#[derive(Clone, Debug)]
pub struct LocalSearchResult {
    /// The improved (or unchanged) partition.
    pub partition: Partition,
    /// Cost before.
    pub initial_cost: usize,
    /// Cost after.
    pub final_cost: usize,
    /// Number of improving moves applied.
    pub moves: usize,
    /// Number of passes executed.
    pub passes: usize,
}

/// Hill-climbs `partition` under relocate and swap moves. The relocate
/// and swap move-evaluation loops poll `budget` at bounded intervals.
/// Because hill climbing is monotone, interrupting it loses only further
/// improvement — callers that prefer the partial result over the error can
/// keep their own pre-move snapshot.
///
/// ```
/// use kanon_core::{Budget, Dataset, Partition, local_search::{improve, LocalSearchConfig}};
/// let ds = Dataset::from_rows(vec![
///     vec![0, 0], vec![0, 1], vec![9, 9], vec![9, 8],
/// ]).unwrap();
/// // A deliberately crossed pairing costs 8; the fix costs 4.
/// let crossed = Partition::new(vec![vec![0, 2], vec![1, 3]], 4, 2).unwrap();
/// let config = LocalSearchConfig::default();
/// let result = improve(&ds, &crossed, 2, &config, &Budget::unlimited()).unwrap();
/// assert_eq!(result.final_cost, 4);
/// ```
///
/// # Errors
/// Propagates partition validation errors (cannot occur when the input
/// partition is valid for `ds` and `k`), plus
/// [`crate::Error::BudgetExceeded`] when the budget trips.
pub fn improve(
    ds: &Dataset,
    partition: &Partition,
    k: usize,
    config: &LocalSearchConfig,
    budget: &Budget,
) -> Result<LocalSearchResult> {
    let initial_cost = partition.anonymization_cost(ds);
    let (result, moves, passes) = improve_by_cost(ds, partition, k, config, budget, |ds, rows| {
        block_cost(ds, rows) as f64
    })?;
    let final_cost = result.anonymization_cost(ds);
    debug_assert!(final_cost <= initial_cost);
    Ok(LocalSearchResult {
        partition: result,
        initial_cost,
        final_cost,
        moves,
        passes,
    })
}

/// Hill-climbs under the **weighted** objective of [`crate::weighted`]:
/// identical move set, costs priced per column. Returns the improved
/// partition with its weighted before/after costs.
///
/// # Errors
/// Propagates partition validation errors and weight-arity mismatches.
pub fn improve_weighted(
    ds: &Dataset,
    partition: &Partition,
    k: usize,
    weights: &crate::weighted::ColumnWeights,
    config: &LocalSearchConfig,
) -> Result<(Partition, f64, f64)> {
    if weights.len() != ds.n_cols() {
        return Err(crate::error::Error::InvalidPartition(format!(
            "{} weights for {} columns",
            weights.len(),
            ds.n_cols()
        )));
    }
    let initial = crate::weighted::weighted_partition_cost(ds, weights, partition);
    let (result, _, _) = improve_by_cost(
        ds,
        partition,
        k,
        config,
        &Budget::unlimited(),
        |ds, rows| {
            let idx: Vec<usize> = rows.iter().map(|&r| r as usize).collect();
            crate::weighted::weighted_anon_cost(ds, weights, &idx)
        },
    )?;
    let final_cost = crate::weighted::weighted_partition_cost(ds, weights, &result);
    debug_assert!(final_cost <= initial + 1e-9);
    Ok((result, initial, final_cost))
}

/// The shared move engine: relocate and swap under an arbitrary additive
/// per-block cost. Strict improvements only (with a tiny epsilon so
/// floating-point noise cannot cycle), so termination is guaranteed.
fn improve_by_cost(
    ds: &Dataset,
    partition: &Partition,
    k: usize,
    config: &LocalSearchConfig,
    budget: &Budget,
    cost_of: impl Fn(&Dataset, &[u32]) -> f64,
) -> Result<(Partition, usize, usize)> {
    const EPS: f64 = 1e-9;
    budget.check()?;
    let mut ticker = budget.ticker();
    let mut blocks: Vec<Vec<u32>> = partition.blocks().to_vec();
    let mut costs: Vec<f64> = blocks.iter().map(|b| cost_of(ds, b)).collect();
    let max_size = if config.cap_block_size {
        2 * k - 1
    } else {
        usize::MAX
    };

    let mut moves = 0usize;
    let mut passes = 0usize;
    while passes < config.max_passes {
        passes += 1;
        let mut improved = false;

        // Relocate pass.
        for a in 0..blocks.len() {
            if blocks[a].len() <= k {
                continue;
            }
            let mut i = 0;
            while i < blocks[a].len() {
                if blocks[a].len() <= k {
                    break;
                }
                let row = blocks[a][i];
                let mut best: Option<(f64, usize, f64)> = None; // (saving, b, cost_b_grown)
                let removed: Vec<u32> = blocks[a].iter().copied().filter(|&r| r != row).collect();
                let cost_a_removed = cost_of(ds, &removed);
                for b in 0..blocks.len() {
                    ticker.tick()?;
                    if b == a || blocks[b].len() >= max_size {
                        continue;
                    }
                    let mut grown = blocks[b].clone();
                    grown.push(row);
                    let cost_b_grown = cost_of(ds, &grown);
                    let new_total = cost_a_removed + cost_b_grown;
                    let old_total = costs[a] + costs[b];
                    if new_total + EPS < old_total {
                        let saving = old_total - new_total;
                        if best.is_none_or(|(s, _, _)| saving > s) {
                            best = Some((saving, b, cost_b_grown));
                        }
                    }
                }
                if let Some((_, b, cost_b_grown)) = best {
                    blocks[a].swap_remove(i);
                    blocks[b].push(row);
                    costs[a] = cost_a_removed;
                    costs[b] = cost_b_grown;
                    moves += 1;
                    improved = true;
                    // Do not advance i: a new row sits at position i.
                } else {
                    i += 1;
                }
            }
        }

        // Swap pass (first-improvement).
        for a in 0..blocks.len() {
            for b in (a + 1)..blocks.len() {
                let mut done = false;
                for i in 0..blocks[a].len() {
                    if done {
                        break;
                    }
                    for j in 0..blocks[b].len() {
                        ticker.tick()?;
                        let (ra, rb) = (blocks[a][i], blocks[b][j]);
                        let mut new_a = blocks[a].clone();
                        let mut new_b = blocks[b].clone();
                        new_a[i] = rb;
                        new_b[j] = ra;
                        let ca = cost_of(ds, &new_a);
                        let cb = cost_of(ds, &new_b);
                        if ca + cb + EPS < costs[a] + costs[b] {
                            blocks[a] = new_a;
                            blocks[b] = new_b;
                            costs[a] = ca;
                            costs[b] = cb;
                            moves += 1;
                            improved = true;
                            done = true;
                            break;
                        }
                    }
                }
            }
        }

        if !improved {
            break;
        }
    }

    let result = Partition::new(blocks, ds.n_rows(), k)?;
    Ok((result, moves, passes))
}

fn block_cost(ds: &Dataset, rows: &[u32]) -> usize {
    let idx: Vec<usize> = rows.iter().map(|&r| r as usize).collect();
    anon_cost(ds, &idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{subset_dp, SubsetDpConfig};
    use proptest::prelude::*;

    #[test]
    fn fixes_an_obviously_bad_partition() {
        // Two clusters, partition deliberately crossed.
        let ds = Dataset::from_rows(vec![
            vec![0, 0, 0],
            vec![0, 0, 1],
            vec![9, 9, 9],
            vec![9, 9, 8],
        ])
        .unwrap();
        let crossed = Partition::new(vec![vec![0, 2], vec![1, 3]], 4, 2).unwrap();
        assert_eq!(crossed.anonymization_cost(&ds), 12);
        let res = improve(
            &ds,
            &crossed,
            2,
            &LocalSearchConfig::default(),
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(res.final_cost, 4);
        assert!(res.moves >= 1);
        assert_eq!(res.partition.anonymization_cost(&ds), 4);
    }

    #[test]
    fn leaves_an_optimal_partition_alone() {
        let ds = Dataset::from_rows(vec![vec![0, 0], vec![0, 0], vec![5, 5], vec![5, 5]]).unwrap();
        let good = Partition::new(vec![vec![0, 1], vec![2, 3]], 4, 2).unwrap();
        let res = improve(
            &ds,
            &good,
            2,
            &LocalSearchConfig::default(),
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(res.final_cost, 0);
        assert_eq!(res.moves, 0);
        assert_eq!(res.passes, 1);
    }

    #[test]
    fn relocation_respects_min_size() {
        let ds = Dataset::from_rows(vec![vec![0, 0], vec![0, 1], vec![0, 0], vec![0, 0]]).unwrap();
        let p = Partition::new(vec![vec![0, 1], vec![2, 3]], 4, 2).unwrap();
        let res = improve(
            &ds,
            &p,
            2,
            &LocalSearchConfig::default(),
            &Budget::unlimited(),
        )
        .unwrap();
        assert!(res.partition.min_block_size().unwrap() >= 2);
    }

    #[test]
    fn governed_unlimited_matches_and_cancellation_propagates() {
        let roomy = Budget::builder()
            .deadline(std::time::Duration::from_secs(3600))
            .build();
        let ds = Dataset::from_fn(12, 4, |i, j| ((i * 5 + j * 3) % 4) as u32);
        let p = Partition::new(
            vec![
                (0..4u32).collect(),
                (4..8u32).collect(),
                (8..12u32).collect(),
            ],
            12,
            3,
        )
        .unwrap();
        let plain = improve(
            &ds,
            &p,
            3,
            &LocalSearchConfig::default(),
            &Budget::unlimited(),
        )
        .unwrap();
        let governed = improve(&ds, &p, 3, &LocalSearchConfig::default(), &roomy).unwrap();
        assert_eq!(plain.partition, governed.partition);
        assert_eq!(plain.moves, governed.moves);

        let cancelled = Budget::unlimited();
        cancelled.cancel();
        assert!(improve(&ds, &p, 3, &LocalSearchConfig::default(), &cancelled).is_err());
    }

    #[test]
    fn weighted_improvement_reduces_weighted_cost() {
        use crate::weighted::{weighted_partition_cost, ColumnWeights};
        // Heavy first column: the weighted search should restore the
        // pairing that keeps it constant, even though the flat objective
        // is indifferent.
        let ds = Dataset::from_rows(vec![vec![7, 0], vec![7, 1], vec![8, 0], vec![8, 1]]).unwrap();
        let w = ColumnWeights::new(vec![10.0, 0.1]).unwrap();
        let crossed = Partition::new(vec![vec![0, 2], vec![1, 3]], 4, 2).unwrap();
        let (improved, before, after) =
            improve_weighted(&ds, &crossed, 2, &w, &LocalSearchConfig::default()).unwrap();
        assert!(after < before, "{after} vs {before}");
        assert!((weighted_partition_cost(&ds, &w, &improved) - 0.4).abs() < 1e-9);
    }

    #[test]
    fn weighted_rejects_arity_mismatch() {
        use crate::weighted::ColumnWeights;
        let ds = Dataset::from_rows(vec![vec![0, 0], vec![0, 1]]).unwrap();
        let p = Partition::new(vec![vec![0, 1]], 2, 2).unwrap();
        let w = ColumnWeights::uniform(5);
        assert!(improve_weighted(&ds, &p, 2, &w, &LocalSearchConfig::default()).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Local search never worsens cost, never breaks feasibility, and
        /// never undercuts the true optimum.
        #[test]
        fn never_worsens_and_respects_optimum(
            flat in proptest::collection::vec(0u32..3, 9 * 3),
            k in 2usize..4,
            cut in 3usize..7,
        ) {
            let ds = Dataset::from_flat(9, 3, flat).unwrap();
            let cut = cut.clamp(k, 9 - k);
            let p = Partition::new(vec![
                (0..cut as u32).collect(),
                (cut as u32..9).collect(),
            ], 9, k).unwrap();
            let res =
                improve(&ds, &p, k, &LocalSearchConfig::default(), &Budget::unlimited()).unwrap();
            prop_assert!(res.final_cost <= res.initial_cost);
            prop_assert!(res.partition.min_block_size().unwrap() >= k);
            let opt = subset_dp(&ds, k, &SubsetDpConfig::default(), &Budget::unlimited()).unwrap();
            prop_assert!(res.final_cost >= opt.cost);
        }
    }
}
