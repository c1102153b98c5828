//! Planted-cluster instances: ground-truth partitions at any scale.
//!
//! Each cluster gets a *center* record whose values come from a value range
//! private to that cluster, so records from different clusters differ in
//! every column. Members copy their center and then re-draw `scatter`
//! randomly chosen columns within the cluster's private range. The planted
//! partition is therefore feasible, its cost is computable exactly, and —
//! because inter-cluster distances are maximal — it is near-optimal, which
//! makes it a usable OPT proxy at sizes far beyond the exact solvers
//! (experiment E2). For a certified sandwich, pair the planted cost (upper
//! bound) with [`knn_lower_bound`] (lower bound).

use kanon_core::{Budget, Dataset, PairwiseDistances, Partition};
use rand::Rng;

/// Parameters for [`clustered`].
#[derive(Clone, Debug)]
pub struct ClusteredParams {
    /// Number of planted clusters.
    pub n_clusters: usize,
    /// Rows per cluster (the intended `k` is usually this value).
    pub cluster_size: usize,
    /// Number of attributes.
    pub m: usize,
    /// How many columns each member re-draws (0 = exact duplicates).
    pub scatter: usize,
    /// Distinct values available within one cluster's private range.
    pub values_per_cluster: u32,
}

impl Default for ClusteredParams {
    fn default() -> Self {
        ClusteredParams {
            n_clusters: 10,
            cluster_size: 5,
            m: 8,
            scatter: 1,
            values_per_cluster: 4,
        }
    }
}

/// A generated instance with its planted ground truth.
#[derive(Clone, Debug)]
pub struct PlantedInstance {
    /// The records.
    pub dataset: Dataset,
    /// The planted partition (one block per cluster).
    pub partition: Partition,
    /// `Σ ANON(S)` of the planted partition — an upper bound on OPT.
    pub planted_cost: usize,
}

/// Generates a planted-cluster instance.
///
/// ```
/// use kanon_workloads::{clustered, ClusteredParams};
/// use rand::{rngs::StdRng, SeedableRng};
/// let mut rng = StdRng::seed_from_u64(1);
/// let inst = clustered(&mut rng, &ClusteredParams::default());
/// assert_eq!(inst.dataset.n_rows(), 50);
/// // The planted partition is feasible and prices itself.
/// assert_eq!(inst.planted_cost, inst.partition.anonymization_cost(&inst.dataset));
/// ```
///
/// # Panics
/// Panics if `m == 0`, `values_per_cluster == 0`, or `scatter > m`.
pub fn clustered(rng: &mut impl Rng, params: &ClusteredParams) -> PlantedInstance {
    assert!(params.m > 0, "need at least one column");
    assert!(
        params.values_per_cluster > 0,
        "need a non-empty value range"
    );
    assert!(params.scatter <= params.m, "scatter cannot exceed m");

    let n = params.n_clusters * params.cluster_size;
    let mut rows: Vec<Vec<u32>> = Vec::with_capacity(n);
    let mut blocks: Vec<Vec<u32>> = Vec::with_capacity(params.n_clusters);

    for c in 0..params.n_clusters {
        let base = c as u32 * params.values_per_cluster;
        let center: Vec<u32> = (0..params.m)
            .map(|_| base + rng.gen_range(0..params.values_per_cluster))
            .collect();
        let mut block = Vec::with_capacity(params.cluster_size);
        for _ in 0..params.cluster_size {
            let mut row = center.clone();
            // Re-draw `scatter` distinct columns.
            let mut cols: Vec<usize> = (0..params.m).collect();
            for pick in 0..params.scatter {
                let j = rng.gen_range(pick..params.m);
                cols.swap(pick, j);
                row[cols[pick]] = base + rng.gen_range(0..params.values_per_cluster);
            }
            block.push(rows.len() as u32);
            rows.push(row);
        }
        blocks.push(block);
    }

    let dataset = Dataset::from_rows(rows).expect("rectangular by construction");
    let partition = Partition::new(blocks, n, params.cluster_size.min(n))
        .expect("planted blocks are a partition");
    let planted_cost = partition.anonymization_cost(&dataset);
    PlantedInstance {
        dataset,
        partition,
        planted_cost,
    }
}

/// The k-NN lower bound on OPT: every row must suppress at least its
/// distance to its `(k−1)`-th nearest neighbour (its group contains `k−1`
/// other rows, one of which is at least that far). `O(m·n² + n² log n)`.
#[must_use]
pub fn knn_lower_bound(ds: &Dataset, k: usize) -> usize {
    if k <= 1 || ds.n_rows() == 0 {
        return 0;
    }
    let dm = PairwiseDistances::build(ds, Some(1), &Budget::unlimited())
        .expect("an unlimited budget only fails on an n whose triangle overflows usize");
    (0..ds.n_rows())
        .map(|r| dm.kth_neighbor_distance(r, k - 1).unwrap_or(0) as usize)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kanon_core::algo;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn planted_structure_is_valid() {
        let mut rng = StdRng::seed_from_u64(4);
        let params = ClusteredParams::default();
        let inst = clustered(&mut rng, &params);
        assert_eq!(inst.dataset.n_rows(), 50);
        assert_eq!(inst.partition.n_blocks(), 10);
        assert_eq!(inst.partition.min_block_size(), Some(5));
        assert_eq!(
            inst.planted_cost,
            inst.partition.anonymization_cost(&inst.dataset)
        );
    }

    #[test]
    fn zero_scatter_is_free() {
        let mut rng = StdRng::seed_from_u64(5);
        let params = ClusteredParams {
            scatter: 0,
            ..Default::default()
        };
        let inst = clustered(&mut rng, &params);
        assert_eq!(inst.planted_cost, 0);
    }

    #[test]
    fn clusters_are_far_apart() {
        let mut rng = StdRng::seed_from_u64(6);
        let params = ClusteredParams::default();
        let inst = clustered(&mut rng, &params);
        // Rows from different clusters use disjoint value ranges, so they
        // differ in every column.
        let a = inst.dataset.row(0);
        let b = inst.dataset.row(49);
        assert_eq!(kanon_core::metric::hamming(a, b), params.m);
    }

    #[test]
    fn greedy_recovers_planted_cost_regime() {
        let mut rng = StdRng::seed_from_u64(7);
        let params = ClusteredParams {
            n_clusters: 6,
            cluster_size: 3,
            m: 6,
            scatter: 1,
            values_per_cluster: 5,
        };
        let inst = clustered(&mut rng, &params);
        let partition =
            algo::center_greedy(&inst.dataset, 3, &Default::default(), &Budget::unlimited())
                .unwrap();
        let result = algo::anonymization_from_partition(
            &inst.dataset,
            partition,
            3,
            kanon_core::Algorithm::CenterGreedy,
        )
        .unwrap();
        // Never worse than grouping whole clusters pessimally, and the
        // planted partition itself is available, so the greedy should land
        // at or below ~the planted cost times the paper's guarantee. Sanity:
        // it must beat the trivial single-group solution.
        let trivial = inst.dataset.n_rows() * params.m;
        assert!(result.cost < trivial);
        assert!(result.table.is_k_anonymous(3));
    }

    #[test]
    fn knn_bound_sandwiches_planted_cost() {
        let mut rng = StdRng::seed_from_u64(8);
        let params = ClusteredParams::default();
        let inst = clustered(&mut rng, &params);
        let lb = knn_lower_bound(&inst.dataset, params.cluster_size);
        assert!(
            lb <= inst.planted_cost,
            "lower bound {lb} exceeds planted cost {}",
            inst.planted_cost
        );
    }

    #[test]
    fn knn_bound_on_exact_instances() {
        // On a tiny instance, verify lb <= OPT directly.
        let mut rng = StdRng::seed_from_u64(9);
        let params = ClusteredParams {
            n_clusters: 3,
            cluster_size: 3,
            m: 4,
            scatter: 1,
            values_per_cluster: 3,
        };
        let inst = clustered(&mut rng, &params);
        let opt = kanon_core::exact::optimal(&inst.dataset, 3).unwrap();
        let lb = knn_lower_bound(&inst.dataset, 3);
        assert!(lb <= opt.cost);
        assert!(opt.cost <= inst.planted_cost);
    }

    #[test]
    fn knn_bound_trivial_cases() {
        let ds = Dataset::from_rows(vec![vec![0], vec![1]]).unwrap();
        assert_eq!(knn_lower_bound(&ds, 1), 0);
        assert_eq!(knn_lower_bound(&ds, 2), 2);
        let empty = Dataset::from_rows(vec![]).unwrap();
        assert_eq!(knn_lower_bound(&empty, 3), 0);
    }

    #[test]
    #[should_panic(expected = "scatter cannot exceed m")]
    fn scatter_guard() {
        let mut rng = StdRng::seed_from_u64(1);
        let params = ClusteredParams {
            scatter: 99,
            ..Default::default()
        };
        clustered(&mut rng, &params);
    }
}
