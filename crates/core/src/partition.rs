//! Partitions of the record set into k-groups (§4.1).
//!
//! Any k-anonymizer induces a partition of `V` into groups of identical
//! suppressed records, each of size at least `k` (the paper's `Π(t, V)`).
//! Conversely, any partition with all blocks of size ≥ k can be rounded to a
//! suppressor (Corollary 4.1, see [`crate::rounding`]). The paper further
//! observes that blocks of size ≥ 2k can be split without increasing cost,
//! so optimal solutions may be assumed to be `(k, 2k−1)`-partitions; this is
//! implemented by [`Partition::split_large`].

use crate::dataset::Dataset;
use crate::diameter::diameter;
use crate::error::{Error, Result};

/// A partition of row indices `0..n` into disjoint blocks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    blocks: Vec<Vec<u32>>,
    n: usize,
}

impl Partition {
    /// Builds a partition from blocks, validating disjointness and coverage
    /// of `0..n` and the minimum block size `k`.
    ///
    /// # Errors
    /// [`Error::InvalidPartition`] on overlap, gap, out-of-range index, or a
    /// block smaller than `k`.
    pub fn new(blocks: Vec<Vec<u32>>, n: usize, k: usize) -> Result<Self> {
        let mut seen = vec![false; n];
        for (b, block) in blocks.iter().enumerate() {
            if block.len() < k {
                return Err(Error::InvalidPartition(format!(
                    "block {b} has {} rows, below k = {k}",
                    block.len()
                )));
            }
            for &r in block {
                let r = r as usize;
                if r >= n {
                    return Err(Error::InvalidPartition(format!(
                        "block {b} references row {r}, but n = {n}"
                    )));
                }
                if seen[r] {
                    return Err(Error::InvalidPartition(format!(
                        "row {r} appears in more than one block"
                    )));
                }
                seen[r] = true;
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(Error::InvalidPartition(format!(
                "row {missing} is not covered by any block"
            )));
        }
        Ok(Partition { blocks, n })
    }

    /// Builds a partition without validation. Intended for solver internals
    /// that construct partitions correct by construction; debug builds still
    /// assert validity.
    #[must_use]
    pub fn new_unchecked(blocks: Vec<Vec<u32>>, n: usize) -> Self {
        #[cfg(debug_assertions)]
        {
            let p = Partition::new(blocks.clone(), n, 1).expect("invalid unchecked partition");
            debug_assert_eq!(p.n, n);
        }
        Partition { blocks, n }
    }

    /// Builds a partition from a per-row block assignment (`assignment[r]`
    /// is the block id of row `r`; ids need not be contiguous).
    #[must_use]
    pub fn from_assignment(assignment: &[usize]) -> Self {
        let mut ids: Vec<usize> = assignment.to_vec();
        ids.sort_unstable();
        ids.dedup();
        let mut blocks: Vec<Vec<u32>> = vec![Vec::new(); ids.len()];
        for (r, &id) in assignment.iter().enumerate() {
            let slot = ids.binary_search(&id).expect("id present");
            blocks[slot].push(r as u32);
        }
        Partition {
            blocks,
            n: assignment.len(),
        }
    }

    /// Number of rows partitioned.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.n
    }

    /// Borrow the blocks.
    #[must_use]
    pub fn blocks(&self) -> &[Vec<u32>] {
        &self.blocks
    }

    /// Consumes the partition, returning its blocks.
    #[must_use]
    pub fn into_blocks(self) -> Vec<Vec<u32>> {
        self.blocks
    }

    /// Number of blocks.
    #[must_use]
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Size of the smallest block (the partition's anonymity level), or
    /// `None` if there are no blocks.
    #[must_use]
    pub fn min_block_size(&self) -> Option<usize> {
        self.blocks.iter().map(Vec::len).min()
    }

    /// The diameter sum `d(Π) = Σ_S d(S)` — the objective of the k-minimum
    /// diameter sum problem.
    #[must_use]
    pub fn diameter_sum(&self, ds: &Dataset) -> usize {
        self.blocks
            .iter()
            .map(|b| {
                let rows: Vec<usize> = b.iter().map(|&r| r as usize).collect();
                diameter(ds, &rows)
            })
            .sum()
    }

    /// Total suppression cost `Σ_S ANON(S)` of rounding this partition:
    /// per block, its size times the columns on which it is not constant
    /// ([`crate::diameter::anon_cost`]), read straight from the blocks.
    #[must_use]
    pub fn anonymization_cost(&self, ds: &Dataset) -> usize {
        let differs = |b: &[u32], j: usize| {
            b.iter()
                .any(|&r| ds.row(r as usize)[j] != ds.row(b[0] as usize)[j])
        };
        let starred = |b: &[u32]| (0..ds.n_cols()).filter(|&j| differs(b, j)).count();
        self.blocks.iter().map(|b| b.len() * starred(b)).sum()
    }

    /// Splits every block of size ≥ 2k into pieces of size in `[k, 2k−1]`.
    ///
    /// The paper notes (§4.1) an arbitrary split never increases the number
    /// of stars needed: each piece's non-constant column set is a subset of
    /// its parent's. The split here is positional (consecutive runs), which
    /// suffices for the guarantee; smarter splits can only do better.
    #[must_use]
    pub fn split_large(&self, k: usize) -> Partition {
        assert!(k >= 1, "k must be positive");
        let mut out: Vec<Vec<u32>> = Vec::with_capacity(self.blocks.len());
        for block in &self.blocks {
            if block.len() < 2 * k {
                out.push(block.clone());
                continue;
            }
            // Cut into q = floor(len / k) pieces: the first (len mod k)
            // pieces get k+1 rows... simpler: repeatedly take k rows while
            // at least 2k remain, then take the rest (k..2k-1 rows).
            let mut rest: &[u32] = block;
            while rest.len() >= 2 * k {
                let (head, tail) = rest.split_at(k);
                out.push(head.to_vec());
                rest = tail;
            }
            out.push(rest.to_vec());
        }
        Partition {
            blocks: out,
            n: self.n,
        }
    }

    /// Disjoint union of partitions: part `i`'s row indices are offset by
    /// the total row count of parts `0..i`, so a list of per-shard
    /// partitions (each over its shard's local indices `0..n_i`) becomes
    /// one partition over the concatenated index space `0..Σn_i`.
    ///
    /// This is the merge step of the sharded pipeline, and the reason
    /// sharding is sound: k-anonymity composes under disjoint union — a
    /// `(k, 2k−1)`-partition of each shard is a `(k, 2k−1)`-partition of
    /// the union (Lemma 4.1 / Cor 4.1 bounds hold per block, hence per
    /// shard, hence overall).
    ///
    /// # Errors
    /// [`Error::Overflow`] when an offset row index would not fit in the
    /// `u32` row-id space.
    pub fn concat_disjoint(parts: impl IntoIterator<Item = Partition>) -> Result<Partition> {
        let mut blocks: Vec<Vec<u32>> = Vec::new();
        let mut offset: usize = 0;
        for part in parts {
            for mut block in part.blocks {
                for r in &mut block {
                    *r = u32::try_from(offset + *r as usize).map_err(|_| Error::Overflow {
                        what: "row index offset in Partition::concat_disjoint",
                    })?;
                }
                blocks.push(block);
            }
            offset += part.n;
        }
        Ok(Partition { blocks, n: offset })
    }

    /// Validates the `(k, 2k−1)` size band every block of a merged
    /// partition must satisfy (§4.1: any block of size ≥ 2k can be split
    /// without increasing cost, so pipeline output is normalized to the
    /// band before merging).
    ///
    /// # Errors
    /// [`Error::InvalidPartition`] naming the first offending block.
    pub fn validate_group_sizes(&self, k: usize) -> Result<()> {
        if k == 0 {
            return Err(Error::KZero);
        }
        for (b, block) in self.blocks.iter().enumerate() {
            if block.len() < k || block.len() > 2 * k - 1 {
                return Err(Error::InvalidPartition(format!(
                    "block {b} has {} rows, outside the (k, 2k-1) band [{k}, {}]",
                    block.len(),
                    2 * k - 1
                )));
            }
        }
        Ok(())
    }

    /// Per-row block ids: `assignment()[r]` is the index of the block
    /// containing row `r`.
    #[must_use]
    pub fn assignment(&self) -> Vec<usize> {
        let mut a = vec![usize::MAX; self.n];
        for (b, block) in self.blocks.iter().enumerate() {
            for &r in block {
                a[r as usize] = b;
            }
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ds6() -> Dataset {
        Dataset::from_rows(vec![
            vec![0, 0, 0],
            vec![0, 0, 1],
            vec![1, 1, 1],
            vec![1, 1, 0],
            vec![2, 2, 2],
            vec![2, 2, 2],
        ])
        .unwrap()
    }

    #[test]
    fn valid_partition_accepted() {
        let p = Partition::new(vec![vec![0, 1], vec![2, 3], vec![4, 5]], 6, 2).unwrap();
        assert_eq!(p.n_blocks(), 3);
        assert_eq!(p.min_block_size(), Some(2));
        assert_eq!(p.n_rows(), 6);
    }

    #[test]
    fn overlap_rejected() {
        let err = Partition::new(vec![vec![0, 1], vec![1, 2]], 3, 1).unwrap_err();
        assert!(err.to_string().contains("more than one block"));
    }

    #[test]
    fn gap_rejected() {
        let err = Partition::new(vec![vec![0, 1]], 3, 1).unwrap_err();
        assert!(err.to_string().contains("not covered"));
    }

    #[test]
    fn small_block_rejected() {
        let err = Partition::new(vec![vec![0], vec![1, 2]], 3, 2).unwrap_err();
        assert!(err.to_string().contains("below k"));
    }

    #[test]
    fn out_of_range_rejected() {
        let err = Partition::new(vec![vec![0, 7]], 2, 1).unwrap_err();
        assert!(err.to_string().contains("references row 7"));
    }

    #[test]
    fn costs_on_known_partition() {
        let ds = ds6();
        let p = Partition::new(vec![vec![0, 1], vec![2, 3], vec![4, 5]], 6, 2).unwrap();
        // Blocks {0,1} and {2,3} each differ in one column; {4,5} identical.
        assert_eq!(p.diameter_sum(&ds), 2);
        assert_eq!(p.anonymization_cost(&ds), 4); // 2 + 2 + 0 per block
    }

    #[test]
    fn from_assignment_roundtrip() {
        let p = Partition::from_assignment(&[0, 0, 5, 5, 2, 2]);
        assert_eq!(p.n_blocks(), 3);
        assert_eq!(p.assignment(), vec![0, 0, 2, 2, 1, 1]);
    }

    #[test]
    fn split_large_produces_legal_sizes() {
        let big = Partition::new_unchecked(vec![(0..10).collect()], 10);
        let split = big.split_large(3);
        for b in split.blocks() {
            assert!(b.len() >= 3 && b.len() <= 5, "size {}", b.len());
        }
        let total: usize = split.blocks().iter().map(Vec::len).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn split_large_leaves_small_blocks_alone() {
        let p = Partition::new(vec![vec![0, 1, 2], vec![3, 4]], 5, 2).unwrap();
        let s = p.split_large(2);
        assert_eq!(s.blocks(), p.blocks());
    }

    #[test]
    fn concat_disjoint_offsets_and_counts() {
        let a = Partition::new(vec![vec![0, 1], vec![2, 3]], 4, 2).unwrap();
        let b = Partition::new(vec![vec![1, 2, 0]], 3, 3).unwrap();
        let merged = Partition::concat_disjoint([a, b]).unwrap();
        assert_eq!(merged.n_rows(), 7);
        assert_eq!(merged.blocks(), &[vec![0, 1], vec![2, 3], vec![5, 6, 4]]);
        // The merged result is a valid partition of 0..7.
        Partition::new(merged.blocks().to_vec(), 7, 2).unwrap();
    }

    #[test]
    fn concat_disjoint_empty_and_single() {
        let empty = Partition::concat_disjoint([]).unwrap();
        assert_eq!(empty.n_rows(), 0);
        assert_eq!(empty.n_blocks(), 0);
        let single =
            Partition::concat_disjoint([Partition::new(vec![vec![0, 1]], 2, 2).unwrap()]).unwrap();
        assert_eq!(single.blocks(), &[vec![0, 1]]);
    }

    #[test]
    fn concat_disjoint_overflow_is_checked() {
        // A fake part claiming u32::MAX rows pushes the next part's
        // indices past the u32 row-id space.
        let huge = Partition {
            blocks: vec![],
            n: u32::MAX as usize,
        };
        let tail = Partition::new(vec![vec![0, 1]], 2, 2).unwrap();
        let err = Partition::concat_disjoint([huge, tail]).unwrap_err();
        assert!(matches!(err, Error::Overflow { .. }), "{err}");
    }

    #[test]
    fn validate_group_sizes_enforces_the_band() {
        let p = Partition::new(vec![vec![0, 1, 2], vec![3, 4]], 5, 2).unwrap();
        assert!(p.validate_group_sizes(2).is_ok());
        // Block of 2 is below k = 3.
        let err = p.validate_group_sizes(3).unwrap_err();
        assert!(err.to_string().contains("outside the (k, 2k-1) band"));
        // Block of 3 exceeds 2k-1 = 1 for k = 1... k = 1 band is [1, 1].
        assert!(p.validate_group_sizes(1).is_err());
        assert!(matches!(p.validate_group_sizes(0), Err(Error::KZero)));
    }

    proptest! {
        /// Splitting never increases the anonymization cost (§4.1 claim).
        #[test]
        fn split_never_increases_cost(
            flat in proptest::collection::vec(0u32..3, 9 * 4),
            k in 2usize..4,
        ) {
            let ds = Dataset::from_flat(9, 4, flat).unwrap();
            let p = Partition::new_unchecked(vec![(0..9).collect()], 9);
            let s = p.split_large(k);
            prop_assert!(s.anonymization_cost(&ds) <= p.anonymization_cost(&ds));
            let by_rows: usize = s
                .blocks()
                .iter()
                .map(|b| {
                    let rows: Vec<usize> = b.iter().map(|&r| r as usize).collect();
                    crate::diameter::anon_cost(&ds, &rows)
                })
                .sum();
            prop_assert_eq!(s.anonymization_cost(&ds), by_rows);
            prop_assert!(s.min_block_size().unwrap_or(0) >= k);
            // Sizes capped at 2k-1.
            for b in s.blocks() {
                prop_assert!(b.len() < 2 * k);
            }
        }

        /// from_assignment always yields a partition covering all rows.
        #[test]
        fn from_assignment_covers(
            assignment in proptest::collection::vec(0usize..4, 1..12),
        ) {
            let p = Partition::from_assignment(&assignment);
            let total: usize = p.blocks().iter().map(Vec::len).sum();
            prop_assert_eq!(total, assignment.len());
            let back = p.assignment();
            // Same grouping: rows with equal original ids share a block.
            for i in 0..assignment.len() {
                for j in 0..assignment.len() {
                    prop_assert_eq!(
                        assignment[i] == assignment[j],
                        back[i] == back[j]
                    );
                }
            }
        }
    }
}
