//! k-ANONYMITY ON ATTRIBUTES (§3.1): suppress whole columns.
//!
//! In this variant a suppressor must star either *every* entry of an
//! attribute or none of it, and the objective is the number of suppressed
//! attributes. Theorem 3.2 shows the problem NP-hard for `k > 2` even over
//! binary alphabets; the exact solver here ([`min_suppressed_attributes`])
//! is the decision oracle used by the Theorem 3.2 reduction verifier, and
//! [`greedy_attribute_suppression`] is a practical heuristic companion.

use std::collections::HashMap;

use crate::bitset::BitSet;
use crate::dataset::Dataset;
use crate::error::{Error, Result};

/// Whether keeping exactly the attributes in `kept` (suppressing the rest)
/// makes the table k-anonymous: every projection onto `kept` must occur at
/// least `k` times.
#[must_use]
pub fn is_k_anonymous_with_kept(ds: &Dataset, kept: &BitSet, k: usize) -> bool {
    if k == 0 {
        return false;
    }
    if ds.n_rows() == 0 {
        return true;
    }
    let cols: Vec<usize> = kept.iter().collect();
    let mut counts: HashMap<Vec<u32>, usize> = HashMap::new();
    for i in 0..ds.n_rows() {
        let row = ds.row(i);
        let key: Vec<u32> = cols.iter().map(|&j| row[j]).collect();
        *counts.entry(key).or_insert(0) += 1;
    }
    counts.values().all(|&c| c >= k)
}

/// The exact optimum of the attribute variant: the minimum number of
/// suppressed attributes and a witness kept-set.
///
/// Enumerates kept-sets by descending size (i.e. suppressed count ascending),
/// so the first feasible hit is optimal. Exponential in `m`, guarded.
///
/// ```
/// use kanon_core::{Dataset, attr::min_suppressed_attributes};
/// // Column 0 groups rows into pairs; column 1 makes everyone unique.
/// let ds = Dataset::from_rows(vec![
///     vec![0, 0], vec![0, 1], vec![1, 2], vec![1, 3],
/// ]).unwrap();
/// let (count, kept) = min_suppressed_attributes(&ds, 2, 22).unwrap();
/// assert_eq!(count, 1);
/// assert!(kept.contains(0) && !kept.contains(1));
/// ```
///
/// # Errors
/// * [`Error::KZero`] / [`Error::KExceedsRows`] on a bad `k`;
/// * [`Error::InstanceTooLarge`] when `m > max_cols` (default 22).
pub fn min_suppressed_attributes(
    ds: &Dataset,
    k: usize,
    max_cols: usize,
) -> Result<(usize, BitSet)> {
    ds.check_k(k)?;
    let m = ds.n_cols();
    if m > max_cols || m > 30 {
        return Err(Error::InstanceTooLarge {
            solver: "min_suppressed_attributes",
            limit: format!("m = {m} exceeds limit {}", max_cols.min(30)),
        });
    }

    // Masks grouped by popcount so we scan suppressed-count = 0, 1, 2, ...
    let mut masks: Vec<u32> = (0..(1u32 << m)).collect();
    masks.sort_by_key(|mask| mask.count_ones());
    for mask in masks {
        // `mask` = suppressed columns.
        let mut kept = BitSet::new(m);
        for j in 0..m {
            if mask & (1 << j) == 0 {
                kept.insert(j);
            }
        }
        if is_k_anonymous_with_kept(ds, &kept, k) {
            return Ok((mask.count_ones() as usize, kept));
        }
    }
    unreachable!("suppressing every attribute is always k-anonymous for k <= n")
}

/// Greedy heuristic: repeatedly suppress the attribute whose removal
/// maximizes the smallest group size (ties: fewest violating rows), until
/// k-anonymous. Returns the kept-set.
///
/// # Errors
/// [`Error::KZero`] / [`Error::KExceedsRows`] on a bad `k`.
pub fn greedy_attribute_suppression(ds: &Dataset, k: usize) -> Result<(usize, BitSet)> {
    ds.check_k(k)?;
    let m = ds.n_cols();
    let mut kept = BitSet::full(m);
    let mut suppressed = 0usize;
    while !is_k_anonymous_with_kept(ds, &kept, k) {
        debug_assert!(!kept.is_empty(), "empty kept-set is always k-anonymous");
        let mut best: Option<(usize, usize, usize)> = None; // (min_group, -violations, col) maximized
        for j in kept.to_vec() {
            let mut trial = kept.clone();
            trial.remove(j);
            let (min_group, violations) = group_stats(ds, &trial, k);
            let better = match best {
                None => true,
                Some((bg, bv, _)) => min_group > bg || (min_group == bg && violations < bv),
            };
            if better {
                best = Some((min_group, violations, j));
            }
        }
        let (_, _, col) = best.expect("kept is non-empty");
        kept.remove(col);
        suppressed += 1;
    }
    Ok((suppressed, kept))
}

/// (smallest group size, number of rows in groups smaller than k) for the
/// projection onto `kept`.
fn group_stats(ds: &Dataset, kept: &BitSet, k: usize) -> (usize, usize) {
    let cols: Vec<usize> = kept.iter().collect();
    let mut counts: HashMap<Vec<u32>, usize> = HashMap::new();
    for i in 0..ds.n_rows() {
        let row = ds.row(i);
        let key: Vec<u32> = cols.iter().map(|&j| row[j]).collect();
        *counts.entry(key).or_insert(0) += 1;
    }
    let min_group = counts.values().copied().min().unwrap_or(usize::MAX);
    let violations = counts.values().filter(|&&c| c < k).copied().sum();
    (min_group, violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Two “pair columns”: col 0 splits rows {0,1} vs {2,3}; col 1 splits
    /// {0,2} vs {1,3}. Keeping both isolates every row.
    fn crossed() -> Dataset {
        Dataset::from_rows(vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]).unwrap()
    }

    #[test]
    fn kept_all_vs_none() {
        let ds = crossed();
        assert!(is_k_anonymous_with_kept(&ds, &BitSet::full(2), 1));
        assert!(!is_k_anonymous_with_kept(&ds, &BitSet::full(2), 2));
        assert!(is_k_anonymous_with_kept(&ds, &BitSet::new(2), 4));
    }

    #[test]
    fn exact_needs_one_suppression_for_k2() {
        let ds = crossed();
        let (count, kept) = min_suppressed_attributes(&ds, 2, 22).unwrap();
        assert_eq!(count, 1);
        assert_eq!(kept.count(), 1);
        assert!(is_k_anonymous_with_kept(&ds, &kept, 2));
    }

    #[test]
    fn exact_needs_both_for_k4() {
        let ds = crossed();
        let (count, kept) = min_suppressed_attributes(&ds, 4, 22).unwrap();
        assert_eq!(count, 2);
        assert!(kept.is_empty());
    }

    #[test]
    fn greedy_matches_exact_on_crossed() {
        let ds = crossed();
        let (g, kept) = greedy_attribute_suppression(&ds, 2).unwrap();
        assert_eq!(g, 1);
        assert!(is_k_anonymous_with_kept(&ds, &kept, 2));
    }

    #[test]
    fn zero_suppressions_when_already_anonymous() {
        let ds = Dataset::from_rows(vec![vec![1, 2], vec![1, 2], vec![1, 2]]).unwrap();
        let (count, kept) = min_suppressed_attributes(&ds, 3, 22).unwrap();
        assert_eq!(count, 0);
        assert_eq!(kept.count(), 2);
        let (g, _) = greedy_attribute_suppression(&ds, 3).unwrap();
        assert_eq!(g, 0);
    }

    #[test]
    fn guard_rejects_wide_tables() {
        let ds = Dataset::from_fn(4, 25, |i, j| ((i + j) % 2) as u32);
        assert!(matches!(
            min_suppressed_attributes(&ds, 2, 22),
            Err(Error::InstanceTooLarge { .. })
        ));
    }

    #[test]
    fn empty_dataset_vacuous() {
        let ds = Dataset::from_rows(vec![]).unwrap();
        assert!(is_k_anonymous_with_kept(&ds, &BitSet::new(0), 3));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Greedy is feasible and never better than exact.
        #[test]
        fn greedy_dominated_by_exact(
            flat in proptest::collection::vec(0u32..2, 6 * 4),
            k in 1usize..4,
        ) {
            let ds = Dataset::from_flat(6, 4, flat).unwrap();
            let (exact, kept_e) = min_suppressed_attributes(&ds, k, 22).unwrap();
            let (greedy, kept_g) = greedy_attribute_suppression(&ds, k).unwrap();
            prop_assert!(is_k_anonymous_with_kept(&ds, &kept_e, k));
            prop_assert!(is_k_anonymous_with_kept(&ds, &kept_g, k));
            prop_assert!(exact <= greedy);
        }
    }
}
