//! # kanon-baselines
//!
//! Baseline k-anonymization partitioners to contrast with the paper's
//! greedy algorithms (experiment E8). Each baseline produces a
//! [`kanon_core::Partition`] with all blocks of size ≥ k; the shared
//! Corollary 4.1 rounding ([`kanon_core::rounding`]) then prices every
//! method with the same suppression-cost objective, so comparisons are
//! apples-to-apples.
//!
//! * [`random_partition`] — shuffle and chunk: the "no algorithm" floor;
//! * [`knn_greedy`] — seed a group, absorb the k−1 nearest unassigned rows
//!   (the classic clustering heuristic k-anonymizers are built on);
//! * [`agglomerative`] — bottom-up merging by cheapest `ANON` delta;
//! * [`mondrian`] — top-down median splits in the style of LeFevre et al.'s
//!   Mondrian (published after this paper; included as the contemporary
//!   comparator), treating dictionary codes as ordered values;
//! * [`forest`] — the k-forest construction from the follow-up
//!   approximation literature, i.e. the direction in which the paper's §5
//!   open question was resolved.
//!
//! The crate also hosts the [`ladder`] module: a resource-governed
//! degradation ladder that tries the paper's algorithms best-guarantee
//! first (exhaustive greedy → center greedy → agglomerative) and falls one
//! rung whenever a [`kanon_core::govern::Budget`] slice trips, so a
//! deadline produces the best answer affordable instead of an error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A module and its primary function intentionally share a name (`uniform`,
// `mondrian`, ...): the module is the namespace, the function the API.
#![allow(rustdoc::broken_intra_doc_links)]

pub mod agglomerative;
pub mod forest;
pub mod knn;
pub mod ladder;
pub mod mondrian;
pub mod random;

pub use agglomerative::agglomerative;
pub use forest::forest;
pub use knn::knn_greedy;
pub use ladder::{run_ladder, LadderConfig, RunReport, Rung, RungOutcome, RungReport};
pub use mondrian::mondrian;
pub use random::random_partition;

#[cfg(test)]
mod tests {
    use kanon_core::rounding::suppressor_for_partition;
    use kanon_core::Budget;
    use kanon_core::Dataset;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every baseline yields a feasible k-anonymization end to end.
    #[test]
    fn all_baselines_round_to_k_anonymous_tables() {
        let mut rng = StdRng::seed_from_u64(99);
        let ds = Dataset::from_fn(23, 4, |i, j| ((i * 31 + j * 7) % 5) as u32);
        let k = 3;
        let partitions = vec![
            super::random_partition(&mut rng, ds.n_rows(), k).unwrap(),
            super::knn_greedy(&ds, k, &Budget::unlimited()).unwrap(),
            super::agglomerative(&ds, k, &Budget::unlimited()).unwrap(),
            super::mondrian(&ds, k, &Budget::unlimited()).unwrap(),
        ];
        for p in partitions {
            assert!(p.min_block_size().unwrap() >= k);
            let s = suppressor_for_partition(&ds, &p).unwrap();
            let table = s.apply(&ds).unwrap();
            assert!(table.is_k_anonymous(k));
        }
    }
}
