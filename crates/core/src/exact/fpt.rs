//! Fixed-parameter exact solver over distinct row *patterns*.
//!
//! The paper's hardness results (Theorem 3.1) hold when `n` grows, but the
//! instance only presents `P ≤ |Σ|^m` *distinct rows*; for small degree and
//! alphabet — exactly the regime of the reduction gadgets and of Sweeney's
//! practical tables — `P` is tiny even when `n` is huge. This engine is
//! fixed-parameter tractable in `P`:
//!
//! 1. collapse the multiset of rows into `P` distinct patterns with
//!    multiplicities (a single `O(n·m)` pass);
//! 2. by the §4.1 band observation, restrict attention to solutions whose
//!    *mixed* blocks have size in `[k, 2k−1]` (any block of size ≥ 2k
//!    splits into two blocks of size ≥ k without increasing suppression,
//!    and every integer ≥ k is a sum of integers in that band);
//! 3. memoize an exact search over the vector of remaining multiplicities,
//!    branching over every band-size block that contains a copy of the
//!    scarcest remaining pattern. A state where every remaining pattern
//!    has multiplicity 0 or ≥ k costs nothing: each pattern forms pure
//!    blocks with zero suppressed cells.
//!
//! A block's suppression cost depends only on *which* patterns it mixes
//! (size × columns on which they disagree), never on which concrete rows
//! realize them, so the count-vector state is lossless. The search is
//! therefore exact for any `n`, with work bounded by the number of
//! count-vector states — a function of `P` and `k` alone.

use std::collections::HashMap;

use super::Optimal;
use crate::dataset::Dataset;
use crate::error::{Error, Result};
use crate::govern::{Budget, PollTicker};
use crate::partition::Partition;

/// Tuning knobs for the pattern-collapsed exact search.
#[derive(Clone, Debug)]
pub struct FptConfig {
    /// Hard cap on the number of distinct row patterns `P`. The search is
    /// exponential in `P`, not in `n`; beyond this many patterns the other
    /// engines are the better tool.
    pub max_patterns: usize,
    /// Cap on evaluated (state, block) search nodes; exhausting it is an
    /// error — this engine never returns unproven incumbents.
    pub max_nodes: u64,
    /// Cap on recursion depth (one level per chosen block on a search
    /// path); a backstop against adversarial multiplicity profiles.
    pub max_depth: usize,
}

impl Default for FptConfig {
    fn default() -> Self {
        FptConfig {
            max_patterns: 12,
            max_nodes: 50_000_000,
            max_depth: 4_096,
        }
    }
}

const INF: u64 = u64::MAX / 4;

struct Searcher<'a> {
    /// Distinct patterns, lexicographically sorted.
    patterns: &'a [Vec<u32>],
    m: usize,
    k: usize,
    /// Largest mixed-block size worth considering, `2k − 1`.
    band: usize,
    /// State → (optimal cost, best first block as per-pattern counts).
    memo: HashMap<Vec<u32>, (u64, Vec<u32>)>,
    nodes: u64,
    max_nodes: u64,
    max_depth: usize,
    ticker: PollTicker<'a>,
}

impl Searcher<'_> {
    /// A state is free when every remaining pattern has multiplicity 0 or
    /// ≥ k: pure per-pattern blocks suppress nothing.
    fn is_free(&self, rem: &[u32]) -> bool {
        rem.iter().all(|&c| c == 0 || c as usize >= self.k)
    }

    fn charge_node(&mut self) -> Result<()> {
        self.ticker.tick()?;
        self.nodes += 1;
        if self.nodes > self.max_nodes {
            return Err(Error::InstanceTooLarge {
                solver: "fpt",
                limit: format!("node budget of {} exhausted", self.max_nodes),
            });
        }
        Ok(())
    }

    /// Suppressed cells of a block mixing the patterns with `chosen[j] > 0`:
    /// block size times the number of columns the chosen patterns disagree
    /// on (a block of a single pattern costs zero).
    fn block_cost(&self, chosen: &[u32], size: usize) -> u64 {
        let mut stars = 0u64;
        for col in 0..self.m {
            let mut first: Option<u32> = None;
            for (j, &c) in chosen.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                let v = self.patterns[j][col];
                match first {
                    None => first = Some(v),
                    Some(f) if f != v => {
                        stars += 1;
                        break;
                    }
                    Some(_) => {}
                }
            }
        }
        size as u64 * stars
    }

    /// Exact optimal suppression for the residual multiset `rem`.
    fn solve(&mut self, rem: Vec<u32>, depth: usize) -> Result<u64> {
        if self.is_free(&rem) {
            return Ok(0);
        }
        if let Some(entry) = self.memo.get(&rem) {
            return Ok(entry.0);
        }
        if depth >= self.max_depth {
            return Err(Error::InstanceTooLarge {
                solver: "fpt",
                limit: format!("search depth exceeded {}", self.max_depth),
            });
        }
        let total: usize = rem.iter().map(|&c| c as usize).sum();
        // Pivot: the scarcest remaining pattern. Every partition has a
        // block containing one of its copies, so enumerating only blocks
        // that include the pivot is lossless; picking the *scarcest*
        // pattern retires awkward sub-k leftovers first, which keeps
        // search paths short.
        let pivot = rem
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .min_by_key(|&(_, &c)| c)
            .map(|(j, _)| j)
            .expect("non-free state has a remaining pattern");

        let mut best = INF;
        let mut best_block: Vec<u32> = Vec::new();
        let mut chosen = vec![0u32; rem.len()];
        self.explore(
            &rem,
            total,
            pivot,
            0,
            0,
            depth,
            &mut chosen,
            &mut best,
            &mut best_block,
        )?;
        self.memo.insert(rem, (best, best_block));
        Ok(best)
    }

    /// DFS over per-pattern block counts `chosen[idx..]`, evaluating every
    /// complete band-size block that includes the pivot.
    #[allow(clippy::too_many_arguments)]
    fn explore(
        &mut self,
        rem: &[u32],
        total: usize,
        pivot: usize,
        idx: usize,
        size: usize,
        depth: usize,
        chosen: &mut Vec<u32>,
        best: &mut u64,
        best_block: &mut Vec<u32>,
    ) -> Result<()> {
        if idx == rem.len() {
            if size < self.k || chosen[pivot] == 0 {
                return Ok(());
            }
            let left = total - size;
            if left != 0 && left < self.k {
                return Ok(());
            }
            self.charge_node()?;
            let cost = self.block_cost(chosen, size);
            if cost >= *best {
                return Ok(());
            }
            let mut next: Vec<u32> = rem.to_vec();
            for (j, &c) in chosen.iter().enumerate() {
                next[j] -= c;
            }
            let sub = self.solve(next, depth + 1)?;
            let tot = cost.saturating_add(sub);
            if tot < *best {
                *best = tot;
                best_block.clear();
                best_block.extend_from_slice(chosen);
            }
            return Ok(());
        }
        let cap = (rem[idx] as usize).min(self.band - size) as u32;
        let lo = u32::from(idx == pivot);
        let mut c = lo;
        while c <= cap {
            chosen[idx] = c;
            self.explore(
                rem,
                total,
                pivot,
                idx + 1,
                size + c as usize,
                depth,
                chosen,
                best,
                best_block,
            )?;
            c += 1;
        }
        chosen[idx] = 0;
        Ok(())
    }
}

/// Distinct patterns, lexicographically sorted, paired with the list of
/// concrete row indices realizing each.
type Collapsed = (Vec<Vec<u32>>, Vec<Vec<usize>>);

/// Collapses the dataset into its distinct row patterns.
fn collapse(ds: &Dataset, budget: &Budget) -> Result<Collapsed> {
    let mut ticker = budget.ticker();
    let mut groups: HashMap<&[u32], Vec<usize>> = HashMap::new();
    for r in 0..ds.n_rows() {
        ticker.tick()?;
        groups.entry(ds.row(r)).or_default().push(r);
    }
    let mut pairs: Vec<(Vec<u32>, Vec<usize>)> = groups
        .into_iter()
        .map(|(p, rows)| (p.to_vec(), rows))
        .collect();
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(pairs.into_iter().unzip())
}

/// `true` when the dataset has at most `cap` distinct row patterns; bails
/// out of the scan as soon as the cap is crossed, so this is cheap even on
/// diverse tables. Used by [`super::optimal`] to decide whether this engine
/// applies.
pub(crate) fn pattern_count_within(ds: &Dataset, cap: usize) -> bool {
    let mut seen: std::collections::HashSet<&[u32]> = std::collections::HashSet::new();
    for r in 0..ds.n_rows() {
        seen.insert(ds.row(r));
        if seen.len() > cap {
            return false;
        }
    }
    true
}

/// Runs the pattern-collapsed fixed-parameter exact search. The collapse
/// pass and every evaluated search node poll `budget`.
///
/// # Errors
/// * [`Error::KZero`] / [`Error::KExceedsRows`] on a bad `k`;
/// * [`Error::InstanceTooLarge`] when the pattern cap, node budget, or
///   depth backstop is exceeded;
/// * [`Error::BudgetExceeded`] / [`Error::Overflow`] from `budget`.
pub fn fpt(ds: &Dataset, k: usize, config: &FptConfig, budget: &Budget) -> Result<Optimal> {
    ds.check_k(k)?;
    budget.check()?;
    let (patterns, rows_of) = collapse(ds, budget)?;
    let p = patterns.len();
    if p > config.max_patterns {
        return Err(Error::InstanceTooLarge {
            solver: "fpt",
            limit: format!(
                "{p} distinct row patterns exceed max_patterns = {}",
                config.max_patterns
            ),
        });
    }
    // Patterns + one count-vector per memo state; charge the fixed part.
    budget.try_charge_memory((p as u64) * (ds.n_cols() as u64 + 2) * 8)?;

    let counts: Vec<u32> = rows_of.iter().map(|rows| rows.len() as u32).collect();
    let mut searcher = Searcher {
        patterns: &patterns,
        m: ds.n_cols(),
        k,
        band: 2 * k - 1,
        memo: HashMap::new(),
        nodes: 0,
        max_nodes: config.max_nodes,
        max_depth: config.max_depth,
        ticker: budget.ticker(),
    };
    let best = searcher.solve(counts.clone(), 0)?;
    if best >= INF {
        return Err(Error::InvalidPartition(
            "fpt search found no feasible band partition".into(),
        ));
    }

    // Replay the memoized choices, mapping pattern counts back to concrete
    // row indices (rows of one pattern are interchangeable).
    let mut remaining = counts;
    let mut rows_left = rows_of;
    let mut assignment = vec![usize::MAX; ds.n_rows()];
    let mut block_id = 0usize;
    loop {
        if searcher.is_free(&remaining) {
            for (j, rem) in remaining.iter_mut().enumerate() {
                if *rem > 0 {
                    for r in rows_left[j].drain(..) {
                        assignment[r] = block_id;
                    }
                    *rem = 0;
                    block_id += 1;
                }
            }
            break;
        }
        let (_, block) = searcher
            .memo
            .get(&remaining)
            .expect("optimal path state was memoized");
        let block = block.clone();
        for (j, &c) in block.iter().enumerate() {
            for _ in 0..c {
                let r = rows_left[j].pop().expect("multiplicity tracked");
                assignment[r] = block_id;
            }
            remaining[j] -= c;
        }
        block_id += 1;
    }
    let partition = Partition::from_assignment(&assignment);
    let cost = partition.anonymization_cost(ds);
    debug_assert_eq!(cost as u64, best, "replayed partition realizes the DP cost");
    Ok(Optimal { cost, partition })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{subset_dp, SubsetDpConfig};
    use proptest::prelude::*;

    fn solve(rows: Vec<Vec<u32>>, k: usize) -> Optimal {
        let ds = Dataset::from_rows(rows).unwrap();
        fpt(&ds, k, &FptConfig::default(), &Budget::unlimited()).unwrap()
    }

    #[test]
    fn duplicates_are_free_at_any_scale() {
        // 10_000 identical rows: one pattern, zero cost, instantly.
        let ds = Dataset::from_fn(10_000, 4, |_, j| j as u32);
        let opt = fpt(&ds, 7, &FptConfig::default(), &Budget::unlimited()).unwrap();
        assert_eq!(opt.cost, 0);
        assert!(opt.partition.min_block_size() >= Some(7));
    }

    #[test]
    fn lone_leftover_joins_the_cheapest_mix() {
        // 999 copies of (0,0,0) and one (0,0,1), k = 2: the stray row must
        // share a block with one clone — 2 rows × 1 disagreeing column.
        let mut rows = vec![vec![0, 0, 0]; 999];
        rows.push(vec![0, 0, 1]);
        let opt = solve(rows, 2);
        assert_eq!(opt.cost, 2);
    }

    #[test]
    fn two_clusters_k3() {
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
        assert_eq!(opt.cost, 6);
    }

    #[test]
    fn pattern_cap_rejects_diverse_tables() {
        let ds = Dataset::from_fn(40, 2, |i, _| i as u32);
        assert!(matches!(
            fpt(&ds, 2, &FptConfig::default(), &Budget::unlimited()),
            Err(Error::InstanceTooLarge { .. })
        ));
        assert!(!pattern_count_within(&ds, 12));
        assert!(pattern_count_within(&ds, 40));
    }

    #[test]
    fn node_budget_exhaustion_is_an_error() {
        // All-distinct rows: every pattern has multiplicity 1, so the free
        // shortcut never fires and the search must expand real nodes.
        let ds = Dataset::from_fn(10, 3, |i, j| (i * 3 + j) as u32);
        let config = FptConfig {
            max_nodes: 2,
            ..Default::default()
        };
        assert!(matches!(
            fpt(&ds, 2, &config, &Budget::unlimited()),
            Err(Error::InstanceTooLarge { .. })
        ));
    }

    #[test]
    fn governed_matches_and_cancellation_propagates() {
        let roomy = Budget::builder()
            .deadline(std::time::Duration::from_secs(3600))
            .build();
        let ds = Dataset::from_fn(12, 3, |i, j| ((i * 3 + j) % 3) as u32);
        let plain = fpt(&ds, 2, &FptConfig::default(), &Budget::unlimited()).unwrap();
        let governed = fpt(&ds, 2, &FptConfig::default(), &roomy).unwrap();
        assert_eq!(plain.cost, governed.cost);

        let cancelled = Budget::unlimited();
        cancelled.cancel();
        assert!(matches!(
            fpt(&ds, 2, &FptConfig::default(), &cancelled),
            Err(Error::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn partition_is_consistent_with_reported_cost() {
        let rows = vec![
            vec![0, 0],
            vec![0, 0],
            vec![0, 1],
            vec![1, 1],
            vec![1, 1],
            vec![1, 0],
        ];
        let ds = Dataset::from_rows(rows).unwrap();
        let opt = fpt(&ds, 2, &FptConfig::default(), &Budget::unlimited()).unwrap();
        assert_eq!(opt.partition.anonymization_cost(&ds), opt.cost);
        assert!(opt.partition.min_block_size() >= Some(2));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// The FPT engine agrees with the subset DP in the small-m /
        /// small-alphabet regime it targets.
        #[test]
        fn agrees_with_subset_dp(
            flat in proptest::collection::vec(0u32..3, 8 * 4),
            k in 1usize..5,
        ) {
            let ds = Dataset::from_flat(8, 4, flat).unwrap();
            let dp = subset_dp(&ds, k, &SubsetDpConfig::default(), &Budget::unlimited()).unwrap();
            let ft = fpt(&ds, k, &FptConfig::default(), &Budget::unlimited()).unwrap();
            prop_assert_eq!(ft.cost, dp.cost);
            prop_assert!(ft.partition.min_block_size() >= Some(k));
        }
    }
}
