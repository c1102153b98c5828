//! # kanon-core
//!
//! A faithful, production-quality implementation of the algorithms and
//! constructions in **Meyerson & Williams, "On the Complexity of Optimal
//! K-Anonymity", PODS 2004**.
//!
//! A database is a multiset of `n` records, each an `m`-dimensional vector
//! over a finite alphabet `Σ` (here: dictionary-coded `u32` values, see
//! [`Dataset`]). A *suppressor* replaces selected entries with a `*`
//! ([`Suppressor`]); the result is *k-anonymous* if every suppressed record
//! is identical to at least `k − 1` others ([`AnonymizedTable::is_k_anonymous`]).
//! The optimization problem is to achieve k-anonymity while suppressing the
//! minimum number of entries. The paper shows this is NP-hard (for `k ≥ 3`,
//! and for the attribute-suppression variant even over binary alphabets) and
//! gives two greedy approximation algorithms, both implemented here:
//!
//! * [`algo::exhaustive_greedy`] — the Theorem 4.1 algorithm: greedy weighted
//!   set cover over **all** subsets of cardinality `k..=2k−1`, followed by the
//!   `Reduce` cover-to-partition conversion. It is a
//!   `3k(1 + ln k)`-approximation but runs in time exponential in `k`
//!   (`O(n^{2k})`), so it is only usable for small instances.
//! * [`algo::center_greedy`] — the Theorem 4.2 algorithm: greedy set cover
//!   restricted to the center/radius family `S_{c,i} = {v : d(c,v) ≤ i}`.
//!   Strongly polynomial (`O(m·n² + n³)`) and a `6k(1 + ln m)`-approximation.
//!
//! Both return a partition; [`algo::anonymization_from_partition`] rounds it
//! into per-group suppression (Corollary 4.1) and verifies the release.
//!
//! To *measure* those approximation ratios the crate also ships exact optimal
//! solvers ([`exact`]): a subset dynamic program over row masks, a
//! branch-and-bound over partitions, and a pattern-based solver for low-arity
//! tables; plus the attribute-suppression variant ([`attr`]) used by the
//! Theorem 3.2 hardness reduction.
//!
//! ## Quick start
//!
//! ```
//! use kanon_core::{algo, Algorithm, Budget, Dataset};
//!
//! // Four 3-attribute records (dictionary-coded values).
//! let ds = Dataset::from_rows(vec![
//!     vec![0, 34, 1],
//!     vec![1, 36, 0],
//!     vec![0, 47, 1],
//!     vec![1, 20, 2],
//! ]).unwrap();
//!
//! // A solver groups the rows; every group holds at least k of them.
//! let groups = algo::center_greedy(&ds, 2, &Default::default(), &Budget::unlimited()).unwrap();
//! // Corollary 4.1 rounds the groups into a released, verified table.
//! let result = algo::anonymization_from_partition(&ds, groups, 2, Algorithm::CenterGreedy).unwrap();
//! assert!(result.table.is_k_anonymous(2));
//! // Cost = number of suppressed cells.
//! assert_eq!(result.cost, result.table.suppressed_cells());
//! ```

// `deny` rather than `forbid`: the SIMD kernels in `kernel.rs` are the one
// sanctioned unsafe island (raw intrinsics behind runtime feature
// detection) and opt in with a scoped `#[allow(unsafe_code)]`. Everything
// else in the crate still refuses unsafe at compile time.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod attr;
pub mod bitset;
pub mod cover;
pub mod dataset;
pub mod diameter;
pub mod distcache;
pub mod error;
pub mod exact;
pub mod govern;
pub mod greedy;
pub mod kernel;
pub mod local_search;
pub mod metric;
pub mod partition;
pub mod rounding;
pub mod scratch;
pub mod stats;
pub mod suppression;
pub mod weighted;

pub use algo::{Algorithm, Anonymization};
pub use bitset::BitSet;
pub use cover::Cover;
pub use dataset::{Dataset, Value};
pub use distcache::PairwiseDistances;
pub use error::{Error, Result};
pub use govern::{Budget, BudgetLease, BudgetPool, Resource};
pub use kernel::Kernel;
pub use partition::Partition;
pub use suppression::{AnonymizedTable, Suppressor};
