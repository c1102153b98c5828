//! Information-loss and utility metrics for released tables.
//!
//! The paper's objective is the raw star count, but the privacy literature
//! evaluates anonymizations on several complementary metrics; implementing
//! them lets the benchmarks compare algorithms the way practitioners would:
//!
//! * **star count / suppression rate** — the paper's objective;
//! * **discernibility metric** `DM = Σ_G |G|²` (Bayardo–Agrawal): penalizes
//!   over-large groups even when they are cheap in stars;
//! * **normalized average group size** `C_AVG = (n / #groups) / k`:
//!   1.0 means every group is as small as privacy permits;
//! * **entropy-weighted loss** — stars weighted by how informative the
//!   suppressed column was (uniform columns cost little real information,
//!   high-entropy columns a lot).

use std::collections::HashMap;

use crate::dataset::Dataset;
use crate::suppression::{AnonymizedTable, Suppressor};

/// Summary metrics of one released table.
#[derive(Clone, Debug, PartialEq)]
pub struct ReleaseStats {
    /// Number of records.
    pub n_rows: usize,
    /// Number of suppressed cells (the paper's objective).
    pub stars: usize,
    /// `stars / (n·m)`, in `[0, 1]`.
    pub suppression_rate: f64,
    /// Number of k-groups in the release.
    pub n_groups: usize,
    /// Smallest group size (the achieved anonymity level); 0 for empty.
    pub anonymity_level: usize,
    /// Discernibility metric `Σ_G |G|²`.
    pub discernibility: u64,
    /// `(n / #groups) / k` — requires the caller's `k`.
    pub normalized_avg_group: f64,
}

/// Computes the release statistics for a table released at privacy level
/// `k` (used only for the normalized average group size).
///
/// ```
/// use kanon_core::{algo, exact, stats::release_stats, Algorithm, Dataset};
/// let ds = Dataset::from_rows(vec![
///     vec![0, 0], vec![0, 1], vec![5, 5], vec![5, 5],
/// ]).unwrap();
/// let optimum = exact::optimal(&ds, 2).unwrap().partition;
/// let released = algo::anonymization_from_partition(&ds, optimum, 2, Algorithm::Exact)
///     .unwrap()
///     .table;
/// let stats = release_stats(&released, 2);
/// assert_eq!(stats.n_groups, 2);
/// assert_eq!(stats.discernibility, 8); // 2^2 + 2^2
/// ```
#[must_use]
pub fn release_stats(table: &AnonymizedTable, k: usize) -> ReleaseStats {
    let groups = table.group_sizes();
    let n = table.n_rows();
    let cells = n * table.n_cols();
    let stars = table.suppressed_cells();
    let discernibility = groups.iter().map(|&(_, s)| (s as u64) * (s as u64)).sum();
    let n_groups = groups.len();
    ReleaseStats {
        n_rows: n,
        stars,
        suppression_rate: if cells == 0 {
            0.0
        } else {
            stars as f64 / cells as f64
        },
        n_groups,
        anonymity_level: groups.iter().map(|&(_, s)| s).min().unwrap_or(0),
        discernibility,
        normalized_avg_group: if n_groups == 0 || k == 0 {
            0.0
        } else {
            (n as f64 / n_groups as f64) / k as f64
        },
    }
}

/// Shannon entropy (bits) of each column's value distribution in the
/// original dataset.
#[must_use]
pub fn column_entropies(ds: &Dataset) -> Vec<f64> {
    let n = ds.n_rows();
    let m = ds.n_cols();
    let mut out = Vec::with_capacity(m);
    for j in 0..m {
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for i in 0..n {
            *counts.entry(ds.get(i, j)).or_insert(0) += 1;
        }
        let h: f64 = counts
            .values()
            .map(|&c| {
                let p = c as f64 / n as f64;
                -p * p.log2()
            })
            .sum();
        out.push(h);
    }
    out
}

/// Entropy-weighted suppression loss: each star costs the entropy of its
/// column, normalized by the total entropy content `n · Σ_j H_j` so the
/// result lies in `[0, 1]` (0 = nothing lost, 1 = every cell of every
/// informative column starred). Zero-entropy columns are free to suppress —
/// they carried no information.
#[must_use]
pub fn entropy_weighted_loss(ds: &Dataset, suppressor: &Suppressor) -> f64 {
    let entropies = column_entropies(ds);
    let total: f64 = entropies.iter().sum::<f64>() * ds.n_rows() as f64;
    if total == 0.0 {
        return 0.0;
    }
    let mut lost = 0.0;
    for i in 0..ds.n_rows() {
        for (j, h) in entropies.iter().enumerate() {
            if suppressor.is_suppressed(i, j) {
                lost += h;
            }
        }
    }
    lost / total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo;

    fn sample() -> Dataset {
        Dataset::from_rows(vec![
            vec![0, 5, 1],
            vec![0, 5, 2],
            vec![1, 5, 3],
            vec![1, 5, 4],
        ])
        .unwrap()
    }

    #[test]
    fn stats_of_a_clean_release() {
        let ds = sample();
        let optimum = crate::exact::optimal(&ds, 2).unwrap().partition;
        let result =
            algo::anonymization_from_partition(&ds, optimum, 2, algo::Algorithm::Exact).unwrap();
        let stats = release_stats(&result.table, 2);
        assert_eq!(stats.n_rows, 4);
        assert_eq!(stats.stars, result.cost);
        assert!(stats.anonymity_level >= 2);
        assert_eq!(stats.n_groups, 2);
        assert!((stats.normalized_avg_group - 1.0).abs() < 1e-12);
        assert_eq!(stats.discernibility, 4 + 4);
        assert!(stats.suppression_rate > 0.0 && stats.suppression_rate < 1.0);
    }

    #[test]
    fn discernibility_prefers_small_groups() {
        // One group of 4 vs two groups of 2 over the same rows.
        let ds = sample();
        let one = crate::Partition::new_unchecked(vec![(0..4).collect()], 4);
        let two = crate::Partition::new(vec![vec![0, 1], vec![2, 3]], 4, 2).unwrap();
        let s1 = crate::rounding::suppressor_for_partition(&ds, &one).unwrap();
        let s2 = crate::rounding::suppressor_for_partition(&ds, &two).unwrap();
        let t1 = s1.apply(&ds).unwrap();
        let t2 = s2.apply(&ds).unwrap();
        assert!(release_stats(&t1, 2).discernibility > release_stats(&t2, 2).discernibility);
    }

    #[test]
    fn entropies_reflect_distributions() {
        let ds = sample();
        let h = column_entropies(&ds);
        assert!((h[0] - 1.0).abs() < 1e-12); // two values, 50/50
        assert_eq!(h[1], 0.0); // constant column
        assert!((h[2] - 2.0).abs() < 1e-12); // four distinct values
    }

    #[test]
    fn entropy_loss_ignores_constant_columns() {
        let ds = sample();
        // Suppress the constant column everywhere: no information lost.
        let mut s = Suppressor::identity(4, 3);
        for i in 0..4 {
            s.suppress(i, 1);
        }
        assert_eq!(entropy_weighted_loss(&ds, &s), 0.0);
        // Suppressing the high-entropy column costs more than column 0.
        let mut s_hi = Suppressor::identity(4, 3);
        let mut s_lo = Suppressor::identity(4, 3);
        for i in 0..4 {
            s_hi.suppress(i, 2);
            s_lo.suppress(i, 0);
        }
        assert!(entropy_weighted_loss(&ds, &s_hi) > entropy_weighted_loss(&ds, &s_lo));
    }

    #[test]
    fn empty_table_edge_cases() {
        let ds = Dataset::from_rows(vec![]).unwrap();
        let t = Suppressor::identity(0, 0).apply(&ds).unwrap();
        let stats = release_stats(&t, 3);
        assert_eq!(stats.n_groups, 0);
        assert_eq!(stats.suppression_rate, 0.0);
        assert_eq!(entropy_weighted_loss(&ds, &Suppressor::identity(0, 0)), 0.0);
    }

    #[test]
    fn full_suppression_loses_everything_informative() {
        let ds = sample();
        let mut s = Suppressor::identity(4, 3);
        for i in 0..4 {
            for j in 0..3 {
                s.suppress(i, j);
            }
        }
        assert!((entropy_weighted_loss(&ds, &s) - 1.0).abs() < 1e-12);
    }
}
