//! Flat size-partitioned candidate arena for the §4.2.1 exhaustive greedy.
//!
//! The Theorem 4.1 candidate collection — every subset of `V` with
//! cardinality in `[k, 2k−1]` — used to be a `Vec<(Vec<u32>, u64)>`: one
//! heap allocation *per candidate*, ~`C(n, 2k−1)` of them, plus a 32-byte
//! tuple each. [`CandidateArena`] stores the same collection in `O(k)`
//! allocations: one contiguous `u32` row slab per **size class** (all
//! candidates of one cardinality share a fixed stride) and a parallel
//! diameter array. A candidate is identified by its position in the global
//! enumeration order — sizes ascending, lexicographic within a size — the
//! same index the lazy-greedy heap uses as its deterministic tie-break, so
//! swapping the representation cannot perturb the cover.
//!
//! Because each size class's slab is pre-sized exactly (`C(n, s)` rows of
//! stride `s`), parallel enumeration workers write into **disjoint
//! sub-slices** of the slab — the per-worker `Vec`s and the serial merge
//! step of the previous layout are gone entirely. The
//! `materialization_allocates_o_k_not_o_candidates` test in
//! `crates/tests/tests/alloc_count.rs` pins the allocation count with a
//! counting global allocator.
//!
//! Layout (see DESIGN.md §4.3a):
//!
//! ```text
//! class s = k:    rows: [c₀ c₀ c₀ | c₁ c₁ c₁ | …]   diams: [d₀ d₁ …]
//! class s = k+1:  rows: [c₀ c₀ c₀ c₀ | …]           diams: [d₀ …]
//! …
//! candidate id = class.start + index_within_class
//! ```

use crate::distcache::PairwiseDistances;
use crate::error::Result;
use crate::govern::Budget;

/// One cardinality's worth of candidates: a row slab with fixed stride
/// `size` plus the parallel diameter array.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct SizeClass {
    /// Candidate cardinality; the slab stride.
    pub(crate) size: usize,
    /// Global id of this class's first candidate.
    pub(crate) start: usize,
    /// `count × size` sorted row ids, candidate-major.
    pub(crate) rows: Box<[u32]>,
    /// `count` diameters, one per candidate. `u32` suffices: a diameter is
    /// a Hamming distance, bounded by the column count.
    pub(crate) diams: Box<[u32]>,
}

impl SizeClass {
    /// Number of candidates in this class.
    pub(crate) fn len(&self) -> usize {
        self.diams.len()
    }
}

/// The materialized Theorem 4.1 candidate collection, size-partitioned into
/// contiguous slabs. See the module docs for the layout and the id contract.
///
/// ```
/// use kanon_core::{Dataset, distcache::PairwiseDistances};
/// use kanon_core::greedy::CandidateArena;
/// use kanon_core::govern::Budget;
/// let ds = Dataset::from_rows(vec![vec![0, 0], vec![0, 1], vec![2, 2], vec![2, 2]]).unwrap();
/// let cache = PairwiseDistances::build(&ds, Some(1), &Budget::unlimited()).unwrap();
/// let arena = CandidateArena::try_materialize(&cache, 2, 1, &Budget::unlimited()).unwrap();
/// // k = 2 over n = 4: C(4,2) + C(4,3) = 6 + 4 candidates.
/// assert_eq!(arena.len(), 10);
/// assert_eq!(arena.rows(0), &[0, 1]);          // first size-2 candidate
/// assert_eq!(arena.rows(6), &[0, 1, 2]);       // first size-3 candidate
/// assert_eq!(arena.diameter(5), 0);            // {2, 3} are duplicates
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CandidateArena {
    /// Size classes ascending by `size` (and therefore by `start`).
    pub(crate) classes: Vec<SizeClass>,
    /// Total candidate count, `Σ` class lengths.
    pub(crate) total: usize,
}

impl CandidateArena {
    /// Allocates zero-filled slabs for the given `(size, count)` layout.
    /// Classes must be listed in enumeration order (sizes ascending).
    pub(crate) fn with_layout(layout: &[(usize, usize)]) -> Self {
        let mut classes = Vec::with_capacity(layout.len());
        let mut start = 0usize;
        for &(size, count) in layout {
            classes.push(SizeClass {
                size,
                start,
                rows: vec![0u32; count * size].into_boxed_slice(),
                diams: vec![0u32; count].into_boxed_slice(),
            });
            start += count;
        }
        CandidateArena {
            classes,
            total: start,
        }
    }

    /// Enumerates and stores the whole candidate collection of parameter
    /// `k` over `threads` workers — the public entry point used by the
    /// arena differential and allocation-count tests; the greedy cover
    /// itself calls [`materialize_candidates`](super::full_cover) with a
    /// pre-validated count.
    ///
    /// # Errors
    /// [`crate::error::Error::Overflow`] when `Σ C(n, s)` exceeds `usize`;
    /// [`crate::error::Error::BudgetExceeded`] when `budget` trips.
    pub fn try_materialize(
        cache: &PairwiseDistances,
        k: usize,
        threads: usize,
        budget: &Budget,
    ) -> Result<Self> {
        let count = super::full_cover::candidate_count(cache.n(), k)?;
        super::full_cover::materialize_candidates(cache, k, count, threads, budget)
    }

    /// Total number of candidates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.total
    }

    /// True when the arena holds no candidates.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The class holding global id `id`, and the id's index within it.
    #[inline]
    fn class_of(&self, id: usize) -> (&SizeClass, usize) {
        debug_assert!(id < self.total, "candidate id {id} out of bounds");
        // At most k classes; binary search keeps the heap's pop path O(log k).
        let c = self.classes.partition_point(|c| c.start + c.len() <= id);
        let class = &self.classes[c];
        (class, id - class.start)
    }

    /// The sorted row ids of candidate `id` — a borrowed slice into the
    /// class slab, valid for the arena's lifetime.
    ///
    /// # Panics
    /// Panics if `id >= len()`.
    #[inline]
    #[must_use]
    pub fn rows(&self, id: usize) -> &[u32] {
        let (class, i) = self.class_of(id);
        &class.rows[i * class.size..(i + 1) * class.size]
    }

    /// Candidate `id`'s cached diameter (widened to the `u64` the greedy's
    /// exact `Ratio` arithmetic runs in).
    ///
    /// # Panics
    /// Panics if `id >= len()`.
    #[inline]
    #[must_use]
    pub fn diameter(&self, id: usize) -> u64 {
        let (class, i) = self.class_of(id);
        u64::from(class.diams[i])
    }

    /// Iterates `(rows, diameter)` in global enumeration order — sizes
    /// ascending, lexicographic within a size — without touching the
    /// per-id lookup path.
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], u64)> + '_ {
        self.classes.iter().flat_map(|class| {
            class
                .rows
                .chunks_exact(class.size.max(1))
                .zip(class.diams.iter())
                .map(|(rows, &d)| (rows, u64::from(d)))
        })
    }

    /// Planned-allocation bytes for a `(size, count)` layout, derived from
    /// the actual element types so governance accounting cannot drift from
    /// the representation.
    pub(crate) fn planned_bytes(layout: &[(usize, usize)]) -> u64 {
        let row = std::mem::size_of::<u32>() as u64;
        let diam = std::mem::size_of::<u32>() as u64;
        let mut bytes = 0u64;
        for &(size, count) in layout {
            let per = (size as u64).saturating_mul(row).saturating_add(diam);
            bytes = bytes.saturating_add((count as u64).saturating_mul(per));
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;

    #[test]
    fn layout_assigns_contiguous_ids() {
        let arena = CandidateArena::with_layout(&[(2, 3), (3, 2)]);
        assert_eq!(arena.len(), 5);
        assert_eq!(arena.classes[0].start, 0);
        assert_eq!(arena.classes[1].start, 3);
        assert_eq!(arena.rows(0).len(), 2);
        assert_eq!(arena.rows(3).len(), 3);
        assert_eq!(arena.rows(4).len(), 3);
    }

    #[test]
    fn materialize_matches_enumeration_counts() {
        let ds = Dataset::from_fn(7, 3, |i, j| ((i * 3 + j) % 4) as u32);
        let cache = PairwiseDistances::build(&ds, Some(1), &Budget::unlimited()).unwrap();
        let arena = CandidateArena::try_materialize(&cache, 2, 1, &Budget::unlimited()).unwrap();
        // C(7,2) + C(7,3) = 21 + 35.
        assert_eq!(arena.len(), 56);
        assert!(!arena.is_empty());
        assert_eq!(arena.iter().count(), 56);
        // Every stored diameter agrees with a fresh cache recompute.
        for id in 0..arena.len() {
            assert_eq!(
                arena.diameter(id),
                cache.diameter_ids(arena.rows(id)) as u64,
                "id {id}"
            );
        }
    }

    #[test]
    fn planned_bytes_tracks_element_sizes() {
        // 3 candidates of stride 2 → 3·(2·4 + 4) bytes.
        assert_eq!(CandidateArena::planned_bytes(&[(2, 3)]), 36);
        assert_eq!(CandidateArena::planned_bytes(&[]), 0);
    }
}
