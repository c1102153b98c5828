//! Set diameters and the `ANON` cost function (§4, Definition 4.1).
//!
//! For `S ⊆ V` the *diameter* `d(S)` is the maximum Hamming distance between
//! two members. `ANON(S)` is the total number of entries that must be starred
//! to make every member of `S` textually identical — exactly
//! `|S| · |{columns not constant on S}|`, since a column either survives for
//! everyone (it was constant) or is starred for everyone. The two quantities
//! are related by a sandwich in the spirit of Lemma 4.1:
//!
//! ```text
//! |S| · d(S) / 2  ≤  ANON(S)  ≤  |S| · (|S| − 1) · d(S)
//! ```
//!
//! Lower bound: by the triangle inequality each member is at distance at
//! least `d(S)/2` from one endpoint of a diameter-realizing pair, and a
//! member must star every column in which it differs from *any* other member.
//!
//! **Reproduction note.** Lemma 4.1 as printed claims the tighter upper bound
//! `ANON(S) ≤ |S| · d(S)`, but that inequality is false: the three binary
//! records `000, 110, 011` have diameter 2 yet all three columns are
//! non-constant, so `ANON = 9 > 3·2`. The number of non-constant columns is
//! bounded by the *sum* of distances from any fixed member, giving the
//! `(|S|−1)·d(S)` factor above. Every set in the algorithm's partitions has
//! `|S| ≤ 2k−1`, so the corrected chain still yields an `O(k log k)`
//! approximation guarantee, just with a larger constant than the paper's
//! `3k(1+ln k)`. Experiment E4 quantifies both bounds empirically.

use crate::bitset::BitSet;
use crate::dataset::Dataset;
use crate::metric::hamming;

/// Maximum pairwise Hamming distance among `rows` — the paper's `d(S)`.
///
/// `O(|S|² · m)`. An empty or singleton set has diameter 0. Callers that
/// query many subsets of the same dataset should precompute a
/// [`crate::distcache::PairwiseDistances`] and use its `O(|S|²)` cached
/// [`diameter`](crate::distcache::PairwiseDistances::diameter) instead;
/// property tests pin the two implementations to each other.
#[must_use]
pub fn diameter(ds: &Dataset, rows: &[usize]) -> usize {
    let mut best = 0;
    for (a, &i) in rows.iter().enumerate() {
        let ri = ds.row(i);
        for &j in &rows[a + 1..] {
            best = best.max(hamming(ri, ds.row(j)));
        }
    }
    best
}

/// The set of columns on which `rows` do **not** all agree.
///
/// These are precisely the columns a suppressor must star in every member of
/// the group (Corollary 4.1's rounding step).
#[must_use]
pub fn non_constant_columns(ds: &Dataset, rows: &[usize]) -> BitSet {
    let m = ds.n_cols();
    let mut cols = BitSet::new(m);
    let Some((&first, rest)) = rows.split_first() else {
        return cols;
    };
    let base = ds.row(first);
    for &r in rest {
        let row = ds.row(r);
        for j in 0..m {
            if row[j] != base[j] {
                cols.insert(j);
            }
        }
    }
    cols
}

/// `ANON(S)`: entries that must be starred so all of `rows` become identical.
///
/// Equals `|S|` times the number of [`non_constant_columns`].
///
/// ```
/// use kanon_core::{Dataset, diameter::{anon_cost, diameter}};
/// // The paper's §4 example: V = {1010, 1110, 0110}.
/// let ds = Dataset::from_rows(vec![
///     vec![1, 0, 1, 0],
///     vec![1, 1, 1, 0],
///     vec![0, 1, 1, 0],
/// ]).unwrap();
/// assert_eq!(diameter(&ds, &[0, 1, 2]), 2);
/// assert_eq!(anon_cost(&ds, &[0, 1, 2]), 6); // star the first two columns everywhere
/// ```
#[must_use]
pub fn anon_cost(ds: &Dataset, rows: &[usize]) -> usize {
    if rows.is_empty() {
        return 0;
    }
    rows.len() * non_constant_columns(ds, rows).count()
}

/// Incremental tracker for a growing group's non-constant column set.
///
/// Used by the branch-and-bound solver, which repeatedly extends candidate
/// blocks one row at a time and needs `ANON` deltas in `O(m)` rather than
/// recomputing from scratch.
#[derive(Clone, Debug)]
pub struct GroupCost {
    /// Representative (first) row values, captured at creation.
    base: Vec<u32>,
    /// Columns known to be non-constant.
    cols: BitSet,
    /// Number of members.
    size: usize,
}

impl GroupCost {
    /// Starts a group containing the single row `r`.
    #[must_use]
    pub fn new(ds: &Dataset, r: usize) -> Self {
        GroupCost {
            base: ds.row(r).to_vec(),
            cols: BitSet::new(ds.n_cols()),
            size: 1,
        }
    }

    /// Adds row `r`, updating the non-constant column set.
    pub fn push(&mut self, ds: &Dataset, r: usize) {
        let row = ds.row(r);
        for (j, (&b, &v)) in self.base.iter().zip(row).enumerate() {
            if b != v {
                self.cols.insert(j);
            }
        }
        self.size += 1;
    }

    /// Number of members.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of non-constant columns so far.
    #[must_use]
    pub fn col_count(&self) -> usize {
        self.cols.count()
    }

    /// Current `ANON` contribution: `size · col_count`.
    #[must_use]
    pub fn cost(&self) -> usize {
        self.size * self.col_count()
    }

    /// The `ANON` cost this group would have after adding row `r`,
    /// without mutating the tracker.
    #[must_use]
    pub fn cost_with(&self, ds: &Dataset, r: usize) -> usize {
        let row = ds.row(r);
        let mut extra = 0;
        for (j, (&b, &v)) in self.base.iter().zip(row).enumerate() {
            if b != v && !self.cols.contains(j) {
                extra += 1;
            }
        }
        (self.size + 1) * (self.col_count() + extra)
    }

    /// Borrow the non-constant column set.
    #[must_use]
    pub fn columns(&self) -> &BitSet {
        &self.cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn paper_example() -> Dataset {
        // §4 example: V = {1010, 1110, 0110}.
        Dataset::from_rows(vec![vec![1, 0, 1, 0], vec![1, 1, 1, 0], vec![0, 1, 1, 0]]).unwrap()
    }

    #[test]
    fn paper_example_diameter_is_two() {
        let ds = paper_example();
        assert_eq!(diameter(&ds, &[0, 1, 2]), 2);
        assert_eq!(diameter(&ds, &[0, 1]), 1);
        assert_eq!(diameter(&ds, &[0]), 0);
        assert_eq!(diameter(&ds, &[]), 0);
    }

    #[test]
    fn paper_example_anon_cost() {
        let ds = paper_example();
        // Suppressing the first two coordinates of each vector (the map
        // t(b1 b2 b3 b4) = **b3 b4 from the paper) makes all three identical;
        // columns 0 and 1 are non-constant, so ANON = 3 * 2 = 6 stars.
        assert_eq!(non_constant_columns(&ds, &[0, 1, 2]).to_vec(), vec![0, 1]);
        assert_eq!(anon_cost(&ds, &[0, 1, 2]), 6);
    }

    #[test]
    fn identical_rows_cost_nothing() {
        let ds = Dataset::from_rows(vec![vec![5, 5], vec![5, 5], vec![5, 5]]).unwrap();
        assert_eq!(diameter(&ds, &[0, 1, 2]), 0);
        assert_eq!(anon_cost(&ds, &[0, 1, 2]), 0);
        assert!(non_constant_columns(&ds, &[0, 1, 2]).is_empty());
    }

    #[test]
    fn group_cost_matches_batch() {
        let ds = paper_example();
        let mut g = GroupCost::new(&ds, 0);
        assert_eq!(g.cost(), 0);
        assert_eq!(g.cost_with(&ds, 1), anon_cost(&ds, &[0, 1]));
        g.push(&ds, 1);
        assert_eq!(g.cost(), anon_cost(&ds, &[0, 1]));
        assert_eq!(g.cost_with(&ds, 2), anon_cost(&ds, &[0, 1, 2]));
        g.push(&ds, 2);
        assert_eq!(g.cost(), anon_cost(&ds, &[0, 1, 2]));
        assert_eq!(g.size(), 3);
        assert_eq!(g.col_count(), 2);
    }

    proptest! {
        /// Figure 1 / triangle inequality on diameters: for overlapping sets,
        /// d(S_i ∪ S_j) ≤ d(S_i) + d(S_j).
        #[test]
        fn union_diameter_triangle_inequality(
            flat in proptest::collection::vec(0u32..3, 6 * 4),
            split in 1usize..5,
        ) {
            let ds = Dataset::from_flat(6, 4, flat).unwrap();
            // Two sets sharing row `split`.
            let s_i: Vec<usize> = (0..=split).collect();
            let s_j: Vec<usize> = (split..6).collect();
            let union: Vec<usize> = (0..6).collect();
            prop_assert!(
                diameter(&ds, &union) <= diameter(&ds, &s_i) + diameter(&ds, &s_j)
            );
        }

        /// Corrected Lemma 4.1 per-set sandwich:
        /// |S|·d(S)/2 ≤ ANON(S) ≤ |S|·(|S|−1)·d(S).
        #[test]
        fn anon_cost_sandwich(
            flat in proptest::collection::vec(0u32..3, 5 * 6),
        ) {
            let ds = Dataset::from_flat(5, 6, flat).unwrap();
            let rows: Vec<usize> = (0..5).collect();
            let d = diameter(&ds, &rows);
            let a = anon_cost(&ds, &rows);
            prop_assert!(a * 2 >= rows.len() * d, "lower bound violated: {a} vs {d}");
            prop_assert!(a <= rows.len() * (rows.len() - 1) * d || d == 0 && a == 0);
            if d == 0 {
                prop_assert_eq!(a, 0);
            }
        }

        /// The paper's printed upper bound ANON(S) ≤ |S|·d(S) is refuted by a
        /// concrete counterexample (documented at module level); this test
        /// pins the counterexample so the doc claim stays honest.
        #[test]
        fn printed_lemma_bound_counterexample(_x in 0u8..1) {
            let ds = Dataset::from_rows(vec![
                vec![0, 0, 0],
                vec![1, 1, 0],
                vec![0, 1, 1],
            ]).unwrap();
            let rows = [0usize, 1, 2];
            prop_assert_eq!(diameter(&ds, &rows), 2);
            prop_assert_eq!(anon_cost(&ds, &rows), 9);
            prop_assert!(anon_cost(&ds, &rows) > 3 * diameter(&ds, &rows));
        }

        /// Removing an element never increases the diameter (used by Reduce).
        #[test]
        fn diameter_monotone_under_removal(
            flat in proptest::collection::vec(0u32..4, 5 * 3),
            drop_idx in 0usize..5,
        ) {
            let ds = Dataset::from_flat(5, 3, flat).unwrap();
            let full: Vec<usize> = (0..5).collect();
            let reduced: Vec<usize> = (0..5).filter(|&r| r != drop_idx).collect();
            prop_assert!(diameter(&ds, &reduced) <= diameter(&ds, &full));
        }

        #[test]
        fn incremental_tracker_agrees(
            flat in proptest::collection::vec(0u32..3, 6 * 5),
        ) {
            let ds = Dataset::from_flat(6, 5, flat).unwrap();
            let mut g = GroupCost::new(&ds, 0);
            let mut members = vec![0usize];
            for r in 1..6 {
                members.push(r);
                g.push(&ds, r);
                prop_assert_eq!(g.cost(), anon_cost(&ds, &members));
            }
        }
    }
}
