//! The k-forest partitioner — the direction in which the paper's open
//! question was later resolved.
//!
//! §5 of Meyerson–Williams asks: "Can an approximation algorithm be found
//! whose performance ratio is independent of k?" Follow-up work (Aggarwal,
//! Feder, Kenthapadi, Motwani, Panigrahy, Thomas & Zhu, *Approximation
//! algorithms for k-anonymity*, 2005) answered with an `O(k)`-approximation
//! built on a minimum-style **forest with components of size ≥ k**. This
//! module implements that construction as a comparator (experiment E16
//! measures how its empirical ratio scales with `k` next to the paper's
//! center greedy):
//!
//! 1. start with singleton components; while any component has fewer than
//!    `k` rows, join it to another component via its cheapest outgoing
//!    Hamming edge (the forest's edge cost is lower-bounded by each row's
//!    nearest-neighbour distances, which also lower-bound OPT);
//! 2. decompose each resulting tree into parts of size `k..2k−1` by
//!    accumulating subtrees in post-order, so parts stay local in the tree
//!    and therefore cheap.

use kanon_core::error::{Error, Result};
use kanon_core::{Budget, Dataset, PairwiseDistances, Partition};

/// Union-find over row indices.
struct Dsu {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra] >= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big;
        self.size[big] += self.size[small];
        true
    }
}

/// Tuning knobs for [`forest`].
#[derive(Clone, Debug)]
pub struct ForestConfig {
    /// Row guard — the algorithm stores all `n(n−1)/2` pairwise distances.
    pub max_rows: usize,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig { max_rows: 8_000 }
    }
}

/// Builds a partition via the k-forest construction.
///
/// ```
/// use kanon_core::Dataset;
/// use kanon_baselines::forest::{forest, ForestConfig};
/// let ds = Dataset::from_rows(vec![
///     vec![0, 0], vec![0, 1], vec![9, 9], vec![9, 8],
/// ]).unwrap();
/// let p = forest(&ds, 2, &ForestConfig::default()).unwrap();
/// assert_eq!(p.anonymization_cost(&ds), 4); // within-cluster pairs
/// ```
///
/// # Errors
/// Standard `k` validation errors; [`Error::InstanceTooLarge`] above the
/// row guard.
pub fn forest(ds: &Dataset, k: usize, config: &ForestConfig) -> Result<Partition> {
    ds.check_k(k)?;
    let n = ds.n_rows();
    if n > config.max_rows {
        return Err(Error::InstanceTooLarge {
            solver: "forest",
            limit: format!("n = {n} exceeds max_rows = {}", config.max_rows),
        });
    }
    if k == 1 {
        let blocks: Vec<Vec<u32>> = (0..n as u32).map(|r| vec![r]).collect();
        return Partition::new(blocks, n, 1);
    }

    let dm = PairwiseDistances::build(ds, Some(1), &Budget::unlimited())?;
    let mut dsu = Dsu::new(n);
    let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); n];

    // Phase 1: grow components to size >= k along cheapest outgoing edges.
    loop {
        // The smallest undersized component's root, if any.
        let mut target: Option<usize> = None;
        for v in 0..n {
            let root = dsu.find(v);
            if dsu.size[root] < k {
                let better = match target {
                    None => true,
                    Some(t) => dsu.size[root] < dsu.size[t],
                };
                if better {
                    target = Some(root);
                }
            }
        }
        let Some(root) = target else { break };

        // Cheapest edge leaving this component.
        let mut best: Option<(u32, usize, usize)> = None;
        for u in 0..n {
            if dsu.find(u) != root {
                continue;
            }
            for v in 0..n {
                if dsu.find(v) == root {
                    continue;
                }
                let d = dm.get(u, v);
                let better = match best {
                    None => true,
                    Some((bd, _, _)) => d < bd,
                };
                if better {
                    best = Some((d, u, v));
                }
            }
        }
        let (_, u, v) = best.expect("k <= n guarantees another component exists");
        dsu.union(u, v);
        adjacency[u].push(v);
        adjacency[v].push(u);
    }

    // Phase 2: decompose each component's tree into parts of size k..2k-1.
    let mut blocks: Vec<Vec<usize>> = Vec::new();
    let mut visited = vec![false; n];
    for start in 0..n {
        if visited[start] {
            continue;
        }
        // Iterative post-order over the tree containing `start`.
        let mut leftover = decompose(start, &adjacency, &mut visited, k, &mut blocks);
        if !leftover.is_empty() {
            // Fewer than k roots remain; fold them into the last emitted
            // part (every component has >= k rows, so one exists). The
            // resulting block may exceed 2k-1; the split_large pass below
            // restores the cap without increasing cost (§4.1).
            match blocks.pop() {
                Some(mut last) => {
                    last.append(&mut leftover);
                    blocks.push(last);
                }
                None => blocks.push(leftover),
            }
        }
    }
    let blocks_u32: Vec<Vec<u32>> = blocks
        .into_iter()
        .map(|b| b.into_iter().map(|r| r as u32).collect())
        .collect();
    let partition = Partition::new_unchecked(blocks_u32, n).split_large(k);
    // Re-validate with k to surface any internal mistake loudly.
    Partition::new(partition.blocks().to_vec(), n, k)
}

/// Post-order accumulation: emits parts of size `k..=2k−1` into `blocks`,
/// returns the `< k` leftover bubble for the caller.
fn decompose(
    root: usize,
    adjacency: &[Vec<usize>],
    visited: &mut [bool],
    k: usize,
    blocks: &mut Vec<Vec<usize>>,
) -> Vec<usize> {
    // Iterative DFS with explicit post-order accumulation.
    struct Frame {
        node: usize,
        child_iter: usize,
        acc: Vec<usize>,
    }
    visited[root] = true;
    let mut stack = vec![Frame {
        node: root,
        child_iter: 0,
        acc: vec![root],
    }];
    loop {
        let top = stack.len() - 1;
        let node = stack[top].node;
        let start = stack[top].child_iter;
        let next_child = adjacency[node][start..]
            .iter()
            .position(|&c| !visited[c])
            .map(|off| start + off);
        match next_child {
            Some(pos) => {
                stack[top].child_iter = pos + 1;
                let child = adjacency[node][pos];
                visited[child] = true;
                stack.push(Frame {
                    node: child,
                    child_iter: 0,
                    acc: vec![child],
                });
            }
            None => {
                // Node finished: bubble its accumulator to the parent,
                // cutting a part whenever the bubble reaches k.
                let frame = stack.pop().expect("stack non-empty");
                let mut acc = frame.acc;
                if acc.len() >= k {
                    blocks.push(std::mem::take(&mut acc));
                }
                match stack.last_mut() {
                    Some(parent) => {
                        parent.acc.extend(acc);
                        if parent.acc.len() >= k {
                            blocks.push(std::mem::take(&mut parent.acc));
                            // Parent node itself was already emitted inside
                            // that part; keep its accumulator empty but
                            // remember the node is gone. (The node id stays
                            // in exactly one part because acc sets are
                            // disjoint by construction.)
                        }
                    }
                    None => return acc,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kanon_core::exact::{subset_dp, SubsetDpConfig};
    use kanon_core::Budget;
    use proptest::prelude::*;

    #[test]
    fn pairs_up_obvious_clusters() {
        let ds = Dataset::from_rows(vec![vec![0, 0], vec![0, 1], vec![9, 9], vec![9, 8]]).unwrap();
        let p = forest(&ds, 2, &ForestConfig::default()).unwrap();
        assert_eq!(p.anonymization_cost(&ds), 4);
    }

    #[test]
    fn k1_is_singletons() {
        let ds = Dataset::from_fn(5, 2, |i, _| i as u32);
        let p = forest(&ds, 1, &ForestConfig::default()).unwrap();
        assert_eq!(p.n_blocks(), 5);
        assert_eq!(p.anonymization_cost(&ds), 0);
    }

    #[test]
    fn k_equals_n() {
        let ds = Dataset::from_fn(4, 2, |i, _| i as u32);
        let p = forest(&ds, 4, &ForestConfig::default()).unwrap();
        assert_eq!(p.n_blocks(), 1);
    }

    #[test]
    fn sizes_capped_at_2k_minus_1() {
        let ds = Dataset::from_fn(23, 3, |i, j| ((i * 7 + j) % 5) as u32);
        for k in [2usize, 3, 4] {
            let p = forest(&ds, k, &ForestConfig::default()).unwrap();
            for b in p.blocks() {
                assert!(b.len() >= k && b.len() < 2 * k, "k={k} size={}", b.len());
            }
            let total: usize = p.blocks().iter().map(Vec::len).sum();
            assert_eq!(total, 23);
        }
    }

    #[test]
    fn guard_and_k_validation() {
        let ds = Dataset::from_fn(5, 1, |i, _| i as u32);
        assert!(forest(&ds, 0, &ForestConfig::default()).is_err());
        assert!(forest(&ds, 6, &ForestConfig::default()).is_err());
        let small_guard = ForestConfig { max_rows: 3 };
        assert!(matches!(
            forest(&ds, 2, &small_guard),
            Err(Error::InstanceTooLarge { .. })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Always feasible, never beats the exact optimum, and never worse
        /// than suppressing every non-constant column.
        #[test]
        fn sandwiched_between_opt_and_trivial(
            flat in proptest::collection::vec(0u32..4, 10 * 3),
            k in 2usize..4,
        ) {
            let ds = Dataset::from_flat(10, 3, flat).unwrap();
            let p = forest(&ds, k, &ForestConfig::default()).unwrap();
            prop_assert!(p.min_block_size().unwrap() >= k);
            let cost = p.anonymization_cost(&ds);
            let opt =
                subset_dp(&ds, k, &SubsetDpConfig::default(), &Budget::unlimited()).unwrap().cost;
            prop_assert!(cost >= opt);
            let all: Vec<usize> = (0..10).collect();
            let trivial = kanon_core::diameter::anon_cost(&ds, &all);
            prop_assert!(cost <= trivial);
        }
    }
}
