//! Covers of the record set (§4.1): possibly-overlapping groups.
//!
//! The greedy phase of both approximation algorithms produces a
//! `(k, ·)`-**cover** — a family of subsets, each of size at least `k`,
//! whose union is all of `V`. The `Reduce` procedure (§4.2.2, see
//! [`crate::greedy::reduce()`]) then converts it to a partition without
//! increasing the diameter sum.

use crate::dataset::Dataset;
use crate::diameter::diameter;
use crate::error::{Error, Result};

/// A family of row-index sets covering `0..n`, sizes ≥ k, overlaps allowed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cover {
    sets: Vec<Vec<u32>>,
    n: usize,
}

impl Cover {
    /// Builds and validates a cover: every row in `0..n` must appear in some
    /// set, every set must have at least `k` *distinct* members, and members
    /// must be in range. Duplicate members within one set are rejected.
    ///
    /// # Errors
    /// [`Error::InvalidPartition`] describing the first violation found.
    pub fn new(sets: Vec<Vec<u32>>, n: usize, k: usize) -> Result<Self> {
        let mut covered = vec![false; n];
        for (s, set) in sets.iter().enumerate() {
            if set.len() < k {
                return Err(Error::InvalidPartition(format!(
                    "cover set {s} has {} rows, below k = {k}",
                    set.len()
                )));
            }
            let mut sorted = set.clone();
            sorted.sort_unstable();
            if sorted.windows(2).any(|w| w[0] == w[1]) {
                return Err(Error::InvalidPartition(format!(
                    "cover set {s} contains a duplicate row"
                )));
            }
            for &r in set {
                let r = r as usize;
                if r >= n {
                    return Err(Error::InvalidPartition(format!(
                        "cover set {s} references row {r}, but n = {n}"
                    )));
                }
                covered[r] = true;
            }
        }
        if let Some(missing) = covered.iter().position(|&c| !c) {
            return Err(Error::InvalidPartition(format!(
                "row {missing} is not covered"
            )));
        }
        Ok(Cover { sets, n })
    }

    /// Builds and validates a cover from borrowed row-id slices (e.g. the
    /// candidate-arena slices chosen by the greedy), copying each into an
    /// owned set. Same validation as [`Cover::new`].
    ///
    /// # Errors
    /// [`Error::InvalidPartition`] describing the first violation found.
    pub fn from_slices<'a>(
        sets: impl IntoIterator<Item = &'a [u32]>,
        n: usize,
        k: usize,
    ) -> Result<Self> {
        Cover::new(sets.into_iter().map(<[u32]>::to_vec).collect(), n, k)
    }

    /// Number of rows covered.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.n
    }

    /// Borrow the sets.
    #[must_use]
    pub fn sets(&self) -> &[Vec<u32>] {
        &self.sets
    }

    /// Number of sets.
    #[must_use]
    pub fn n_sets(&self) -> usize {
        self.sets.len()
    }

    /// The cover's diameter sum `Σ_S d(S)`.
    #[must_use]
    pub fn diameter_sum(&self, ds: &Dataset) -> usize {
        self.sets
            .iter()
            .map(|s| {
                let rows: Vec<usize> = s.iter().map(|&r| r as usize).collect();
                diameter(ds, &rows)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_cover_with_overlap() {
        let c = Cover::new(vec![vec![0, 1, 2], vec![2, 3]], 4, 2).unwrap();
        assert_eq!(c.n_sets(), 2);
    }

    #[test]
    fn partition_is_a_cover() {
        let c = Cover::new(vec![vec![0, 1], vec![2, 3]], 4, 2).unwrap();
        assert_eq!(c.n_sets(), 2);
    }

    #[test]
    fn uncovered_row_rejected() {
        let err = Cover::new(vec![vec![0, 1]], 3, 2).unwrap_err();
        assert!(err.to_string().contains("row 2 is not covered"));
    }

    #[test]
    fn undersized_set_rejected() {
        let err = Cover::new(vec![vec![0], vec![0, 1, 2]], 3, 2).unwrap_err();
        assert!(err.to_string().contains("below k"));
    }

    #[test]
    fn duplicate_member_rejected() {
        let err = Cover::new(vec![vec![0, 0, 1], vec![1, 2]], 3, 2).unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn out_of_range_rejected() {
        let err = Cover::new(vec![vec![0, 9]], 2, 2).unwrap_err();
        assert!(err.to_string().contains("references row 9"));
    }

    #[test]
    fn diameter_sum_adds_per_set() {
        let ds = Dataset::from_rows(vec![vec![0, 0], vec![0, 1], vec![1, 1], vec![1, 1]]).unwrap();
        let c = Cover::new(vec![vec![0, 1], vec![1, 2], vec![2, 3]], 4, 2).unwrap();
        // d({0,1}) = 1, d({1,2}) = 1, d({2,3}) = 0.
        assert_eq!(c.diameter_sum(&ds), 2);
    }
}
