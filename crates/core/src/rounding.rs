//! Corollary 4.1: rounding a partition into a suppressor.
//!
//! Given a partition into blocks of size ≥ k, the anonymizing suppressor
//! stars, in every member of a block, exactly the columns on which the block
//! disagrees ("over all pairs {u, v} ⊆ S and all j such that u\[j\] ≠ v\[j\],
//! assign w\[j\] := * to every w ∈ S"). The resulting table is k-anonymous by
//! construction and its cost is `Σ_S ANON(S)`.

use crate::dataset::Dataset;
use crate::error::Result;
use crate::partition::Partition;
use crate::suppression::Suppressor;

/// Builds the minimal suppressor that makes every block of `partition`
/// textually uniform.
///
/// # Errors
/// Propagates mask-shape errors (cannot occur for a valid partition over
/// `ds`).
pub fn suppressor_for_partition(ds: &Dataset, partition: &Partition) -> Result<Suppressor> {
    let mut s = Suppressor::identity(ds.n_rows(), ds.n_cols());
    for block in partition.blocks() {
        let first = block.first().map_or(&[][..], |&r| ds.row(r as usize));
        for (j, &v) in first.iter().enumerate() {
            if block.iter().any(|&r| ds.get(r as usize, j) != v) {
                for &r in block {
                    s.suppress(r as usize, j);
                }
            }
        }
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rounding_cost_equals_partition_cost() {
        let ds = Dataset::from_rows(vec![
            vec![1, 0, 1, 0],
            vec![1, 1, 1, 0],
            vec![0, 1, 1, 0],
            vec![0, 1, 1, 0],
        ])
        .unwrap();
        let p = Partition::new(vec![vec![0, 1], vec![2, 3]], 4, 2).unwrap();
        let s = suppressor_for_partition(&ds, &p).unwrap();
        assert_eq!(s.cost(), p.anonymization_cost(&ds));
        let table = s.apply(&ds).unwrap();
        assert_eq!(table.suppressed_cells(), 2);
        assert!(table.is_k_anonymous(2));
    }

    #[test]
    fn single_block_suppresses_all_disagreement() {
        let ds = Dataset::from_rows(vec![vec![0, 0, 0], vec![1, 1, 0], vec![0, 1, 1]]).unwrap();
        let p = Partition::new(vec![vec![0, 1, 2]], 3, 3).unwrap();
        let s = suppressor_for_partition(&ds, &p).unwrap();
        // All three columns are non-constant: 9 stars (the Lemma 4.1
        // counterexample instance).
        assert_eq!(s.cost(), 9);
        let t = s.apply(&ds).unwrap();
        assert!(t.is_k_anonymous(3));
    }

    proptest! {
        /// Rounding any legal partition yields a k-anonymous table whose
        /// star count equals the partition's ANON sum.
        #[test]
        fn rounding_is_always_k_anonymous(
            flat in proptest::collection::vec(0u32..3, 8 * 3),
            pivot in 2usize..6,
        ) {
            let ds = Dataset::from_flat(8, 3, flat).unwrap();
            let blocks = vec![
                (0..pivot as u32).collect::<Vec<_>>(),
                (pivot as u32..8).collect::<Vec<_>>(),
            ];
            let k = blocks.iter().map(Vec::len).min().unwrap();
            let p = Partition::new(blocks, 8, k).unwrap();
            let s = suppressor_for_partition(&ds, &p).unwrap();
            let t = s.apply(&ds).unwrap();
            prop_assert!(t.is_k_anonymous(k));
            prop_assert_eq!(s.cost(), p.anonymization_cost(&ds));
        }
    }
}
