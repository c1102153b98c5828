//! Shared pairwise-distance cache for the §4.2 cover algorithms.
//!
//! Every solver in this workspace ultimately asks the same question over and
//! over: *how far apart are rows `i` and `j`?* The exhaustive greedy
//! (Theorem 4.1) asks it `O(k²)` times per candidate subset across
//! `Σ C(n, k..2k−1)` subsets; the center greedy (Theorem 4.2), the exact
//! branch-and-bound's k-NN bound, local search, and the baseline
//! partitioners each re-derive it from raw rows at `O(m)` per query.
//! [`PairwiseDistances`] computes the full matrix once — `O(m·n²/2)` work,
//! parallelized across OS threads — and serves every later query in `O(1)`.
//!
//! ## Layout
//!
//! Distances are symmetric with a zero diagonal, so only the strict upper
//! triangle is stored: entry `(i, j)` with `i < j` lives at
//! `i·(2n−i−1)/2 + (j−i−1)` in one contiguous `u32` buffer — `4·n(n−1)/2`
//! bytes, half the footprint of a square `n × n` matrix and friendlier to
//! cache lines when scanning a row's suffix.
//!
//! ## Parallel build
//!
//! The triangle is row-contiguous: row `i`'s entries `(i, i+1..n)` form one
//! slice. The parallel build splits rows into bands balanced by *entry
//! count* (row `i` holds `n−1−i` entries, so early rows are longer) and
//! fills disjoint sub-slices via `std::thread::scope` — no locks, no
//! cloning, byte-identical output to the sequential build.
//!
//! Each band computes distances with the column-major packed codec
//! ([`crate::metric::PackedColumns`]) whenever the dataset's dictionary
//! codes fit the packed lanes, the budget affords the packed copy, and the
//! active [`crate::kernel`] tier wants packing (`KANON_FORCE_KERNEL=scalar`
//! disables it): row `i`'s suffix distances are then one batched
//! one-to-many sweep per word-column over contiguous words, dispatched to
//! the SWAR or SIMD kernel resolved at process start, with the budget
//! ticker batched via [`PollTicker::tick_many`] per ≤ 1024-entry segment.
//! Otherwise it falls back to the scalar [`hamming`] scan. All paths
//! produce identical `u32` distances — pinned by the
//! `parallel_differential` and `kernel_equiv` suites and the
//! packed-column agreement tests in [`crate::metric`].
//!
//! The triangle buffer itself is recycled through the thread-local
//! [`crate::scratch`] pool (taken on build, returned on drop), so a
//! pipeline worker's steady state allocates nothing per shard.
//!
//! Thread counts resolve through [`resolve_threads`]: an explicit request
//! wins, then the `RAYON_NUM_THREADS` environment variable (the de-facto
//! convention for capping data-parallel width, honored so CI can pin
//! schedules), then the machine's available parallelism.

use crate::dataset::Dataset;
use crate::error::{Error, Result};
use crate::govern::{Budget, PollTicker, POLL_INTERVAL};
use crate::metric::{hamming, PackedColumns};
use crate::scratch;

/// Checked strict-upper-triangle length `n(n−1)/2`, also validating that
/// every intermediate of the hot [`PairwiseDistances::tri_index`] formula
/// (`i·(2n−i−1)`, bounded by `2n²`) fits a `usize`, so the per-query index
/// arithmetic can stay unchecked.
fn triangle_len(n: usize) -> Result<usize> {
    let overflow = Error::Overflow {
        what: "triangular distance-cache size n(n-1)/2",
    };
    if n < 2 {
        return Ok(0);
    }
    // 2n² fits ⇒ n(n−1) and every i·(2n−i−1) < 2n² fit.
    n.checked_mul(2)
        .and_then(|d| d.checked_mul(n))
        .ok_or(overflow.clone())?;
    n.checked_mul(n - 1).map(|t| t / 2).ok_or(overflow)
}

/// Precomputed pairwise Hamming distances, triangular `u32` storage.
///
/// ```
/// use kanon_core::{Budget, Dataset, distcache::PairwiseDistances};
/// let ds = Dataset::from_rows(vec![
///     vec![1, 0, 1, 0],
///     vec![1, 1, 1, 0],
///     vec![0, 1, 1, 0],
/// ]).unwrap();
/// let cache = PairwiseDistances::build(&ds, Some(1), &Budget::unlimited()).unwrap();
/// assert_eq!(cache.get(0, 2), 2); // the paper's §4 example pair
/// assert_eq!(cache.get(2, 0), 2); // symmetric
/// assert_eq!(cache.get(1, 1), 0); // zero diagonal
/// assert_eq!(cache.diameter(&[0, 1, 2]), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PairwiseDistances {
    n: usize,
    /// Strict upper triangle, row-major: `(0,1), (0,2), …, (n−2,n−1)`.
    /// Taken from (and on drop returned to) the thread-local scratch pool.
    tri: Vec<u32>,
}

impl Drop for PairwiseDistances {
    fn drop(&mut self) {
        scratch::give_u32(std::mem::take(&mut self.tri));
    }
}

impl PairwiseDistances {
    /// Index of `(i, j)` with `i < j` in the triangular buffer.
    ///
    /// Deliberately unchecked on the `O(1)` query path: [`triangle_len`]
    /// proved at construction time that `2n²` — an upper bound on every
    /// intermediate here — fits a `usize`.
    #[inline]
    fn tri_index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n);
        i * (2 * self.n - i - 1) / 2 + (j - i - 1)
    }

    /// Builds the cache across [`resolve_threads`]`(threads)` OS threads
    /// under `budget`: polls it every [`crate::govern::POLL_INTERVAL`]
    /// entries (per worker), charges the `4·n(n−1)/2`-byte triangle against
    /// the memory cap before allocating, and validates the triangular index
    /// arithmetic with checked multiplication. The output is byte-identical
    /// for every thread count.
    ///
    /// # Errors
    /// [`Error::BudgetExceeded`] when a limit trips mid-build;
    /// [`Error::Overflow`] when `n(n−1)/2` does not fit a `usize`.
    pub fn build(ds: &Dataset, threads: Option<usize>, budget: &Budget) -> Result<Self> {
        let threads = resolve_threads(threads);
        let n = ds.n_rows();
        let total = triangle_len(n)?;
        budget.check()?;
        budget.try_charge_memory((total as u64).saturating_mul(4))?;
        let mut tri = scratch::take_u32(total);

        // Column-major packed codec, dispatched to the process-wide kernel
        // tier. Charged against the budget like every other planned
        // allocation, but a refused charge degrades to the scalar row scan
        // instead of failing the build — packing is an optimization, never
        // a requirement. `try_build` itself returns `None` for wide
        // alphabets, and a forced-scalar kernel skips packing entirely so
        // the fallback is genuinely exercised end to end.
        let packed = if crate::kernel::packing_enabled()
            && budget
                .try_charge_memory(PackedColumns::storage_bytes(n, ds.n_cols()))
                .is_ok()
        {
            PackedColumns::try_build(ds)
        } else {
            None
        };
        let packed = packed.as_ref();

        // Small instances: band setup costs more than it saves.
        if threads <= 1 || n < 128 {
            let mut ticker = budget.ticker();
            fill_band(ds, packed, 0, n, n, &mut tri, &mut ticker)?;
            return Ok(PairwiseDistances { n, tri });
        }

        // Band rows so each thread owns roughly `total / threads` entries;
        // row i contributes n−1−i entries, so bands are uneven in rows.
        let per_band = total.div_ceil(threads).max(1);
        let outcomes: Vec<Result<()>> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            let mut rest: &mut [u32] = &mut tri;
            let mut row = 0usize;
            while row < n && !rest.is_empty() {
                let mut band_entries = 0usize;
                let first = row;
                while row < n && band_entries < per_band {
                    band_entries += n - 1 - row;
                    row += 1;
                }
                let band_entries = band_entries.min(rest.len());
                let (chunk, tail) = rest.split_at_mut(band_entries);
                rest = tail;
                let last = row;
                handles.push(scope.spawn(move || -> Result<()> {
                    let mut ticker = budget.ticker();
                    fill_band(ds, packed, first, last, n, chunk, &mut ticker)
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("distance band worker never panics"))
                .collect()
        });
        for outcome in outcomes {
            outcome?;
        }
        Ok(PairwiseDistances { n, tri })
    }

    /// Number of rows the cache covers.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// [`PairwiseDistances::get`] specialized to `i < j`: skips the
    /// ordering branch on the hottest probe path (the candidate walker's
    /// prefix extensions always probe ascending row ids).
    #[inline]
    pub(crate) fn get_lt(&self, i: usize, j: usize) -> u32 {
        debug_assert!(i < j && j < self.n);
        self.tri[self.tri_index(i, j)]
    }

    /// Distance between rows `i` and `j` (symmetric, zero diagonal).
    ///
    /// # Panics
    /// Panics if either index is out of bounds.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> u32 {
        use std::cmp::Ordering;
        match i.cmp(&j) {
            Ordering::Equal => {
                assert!(i < self.n, "row {i} out of bounds for n = {}", self.n);
                0
            }
            Ordering::Less => self.tri[self.tri_index(i, j)],
            Ordering::Greater => self.tri[self.tri_index(j, i)],
        }
    }

    /// Cached diameter: max pairwise distance among `rows` — the paper's
    /// `d(S)`, agreeing with [`crate::diameter::diameter`] but in
    /// `O(|S|²)` instead of `O(|S|²·m)`.
    #[must_use]
    pub fn diameter(&self, rows: &[usize]) -> usize {
        let mut best = 0u32;
        for (a, &i) in rows.iter().enumerate() {
            for &j in &rows[a + 1..] {
                best = best.max(self.get(i, j));
            }
        }
        best as usize
    }

    /// [`PairwiseDistances::diameter`] over `u32` row ids (the greedy's
    /// native candidate representation).
    #[must_use]
    pub fn diameter_ids(&self, rows: &[u32]) -> usize {
        let mut best = 0u32;
        for (a, &i) in rows.iter().enumerate() {
            for &j in &rows[a + 1..] {
                best = best.max(self.get(i as usize, j as usize));
            }
        }
        best as usize
    }

    /// Cached `ANON(S)`: agrees with [`crate::diameter::anon_cost`].
    ///
    /// The cache powers two fast paths — pairs (`ANON = 2·d`) and
    /// zero-diameter sets (all-identical rows cost nothing) — and the
    /// general case falls back to the `O(|S|·m)` column scan, which no
    /// pairwise quantity can replace (non-constant columns are a property
    /// of the whole set, not of any pair).
    #[must_use]
    pub fn anon_cost(&self, ds: &Dataset, rows: &[usize]) -> usize {
        match rows.len() {
            0 | 1 => 0,
            2 => 2 * self.get(rows[0], rows[1]) as usize,
            _ => {
                if self.diameter(rows) == 0 {
                    0
                } else {
                    crate::diameter::anon_cost(ds, rows)
                }
            }
        }
    }

    /// Distance from row `i` to its `t`-th nearest *other* row (`t = 1` is
    /// the nearest neighbour); `None` if `t >= n`.
    ///
    /// `kth_neighbor_distance(i, k-1)` is the per-row lower bound of the
    /// exact branch-and-bound (a Lemma 4.1-style k-NN bound): in any
    /// k-anonymization, row `i`'s group contains `k-1` other rows, so at
    /// least this many of its entries must be suppressed.
    #[must_use]
    pub fn kth_neighbor_distance(&self, i: usize, t: usize) -> Option<u32> {
        if t == 0 {
            return Some(0);
        }
        if t >= self.n {
            return None;
        }
        let mut ds: Vec<u32> = (0..self.n)
            .filter(|&j| j != i)
            .map(|j| self.get(i, j))
            .collect();
        ds.sort_unstable();
        Some(ds[t - 1])
    }
}

/// Fills the triangular entries of rows `first..last` (a contiguous band)
/// into `chunk`, preferring the column-major packed codec when one was
/// built: row `i`'s suffix `(i, i+1..n)` is then computed by batched
/// one-to-many sweeps over ≤ [`POLL_INTERVAL`]-entry segments, with the
/// budget ticker charged per segment via [`PollTicker::tick_many`] (same
/// real-check schedule as per-entry ticking, without the per-entry
/// branch). The scalar fallback keeps the original per-entry tick. Both
/// paths produce identical `u32` distances.
fn fill_band(
    ds: &Dataset,
    packed: Option<&PackedColumns>,
    first: usize,
    last: usize,
    n: usize,
    chunk: &mut [u32],
    ticker: &mut PollTicker<'_>,
) -> Result<()> {
    let mut at = 0usize;
    if let Some(p) = packed {
        for i in first..last {
            let row_out = &mut chunk[at..at + (n - 1 - i)];
            let mut from = i + 1;
            while from < n {
                let to = n.min(from + POLL_INTERVAL as usize);
                ticker.tick_many((to - from) as u64)?;
                p.distances_span(i, from, to, &mut row_out[from - i - 1..to - i - 1]);
                from = to;
            }
            at += n - 1 - i;
        }
    } else {
        for i in first..last {
            let ri = ds.row(i);
            for j in (i + 1)..n {
                ticker.tick()?;
                chunk[at] = hamming(ri, ds.row(j)) as u32;
                at += 1;
            }
        }
    }
    Ok(())
}

/// Resolves a thread-count request: `Some(t)` wins, then the
/// `RAYON_NUM_THREADS` environment variable, then the machine's available
/// parallelism. Always at least 1.
#[must_use]
pub fn resolve_threads(requested: Option<usize>) -> usize {
    if let Some(t) = requested {
        return t.max(1);
    }
    if let Ok(env) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(t) = env.trim().parse::<usize>() {
            if t >= 1 {
                return t;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diameter::{anon_cost, diameter};
    use crate::metric::row_distance;
    use proptest::prelude::*;

    #[test]
    fn matches_direct_hamming_and_symmetry() {
        let ds = Dataset::from_fn(17, 5, |i, j| ((i * 7 + j * 3) % 4) as u32);
        let cache = PairwiseDistances::build(&ds, Some(1), &Budget::unlimited()).unwrap();
        for i in 0..17 {
            for j in 0..17 {
                assert_eq!(cache.get(i, j) as usize, row_distance(&ds, i, j));
                assert_eq!(cache.get(i, j), cache.get(j, i));
            }
            assert_eq!(cache.get(i, i), 0);
        }
    }

    #[test]
    fn parallel_build_is_byte_identical() {
        let ds = Dataset::from_fn(200, 6, |i, j| ((i * 31 + j * 17) % 5) as u32);
        let seq = PairwiseDistances::build(&ds, Some(1), &Budget::unlimited()).unwrap();
        for threads in [1, 2, 3, 4, 7, 16] {
            let par = PairwiseDistances::build(&ds, Some(threads), &Budget::unlimited()).unwrap();
            assert_eq!(seq, par, "threads = {threads}");
        }
    }

    #[test]
    fn single_row_and_pair() {
        let one = Dataset::from_rows(vec![vec![1, 2]]).unwrap();
        let cache = PairwiseDistances::build(&one, Some(1), &Budget::unlimited()).unwrap();
        assert_eq!(cache.get(0, 0), 0);
        assert_eq!(cache.diameter(&[0]), 0);

        let two = Dataset::from_rows(vec![vec![1, 2], vec![3, 2]]).unwrap();
        let cache = PairwiseDistances::build(&two, Some(1), &Budget::unlimited()).unwrap();
        assert_eq!(cache.get(0, 1), 1);
        assert_eq!(cache.anon_cost(&two, &[0, 1]), 2);
    }

    #[test]
    fn kth_neighbor_distance_sorted() {
        let ds = Dataset::from_rows(vec![
            vec![0, 0, 0],
            vec![0, 0, 1],
            vec![1, 1, 1],
            vec![0, 0, 0],
        ])
        .unwrap();
        let cache = PairwiseDistances::build(&ds, Some(1), &Budget::unlimited()).unwrap();
        // Row 0's other-row distances: [1, 3, 0] sorted -> [0, 1, 3].
        assert_eq!(cache.kth_neighbor_distance(0, 1), Some(0));
        assert_eq!(cache.kth_neighbor_distance(0, 2), Some(1));
        assert_eq!(cache.kth_neighbor_distance(0, 3), Some(3));
        assert_eq!(cache.kth_neighbor_distance(0, 4), None);
        assert_eq!(cache.kth_neighbor_distance(0, 0), Some(0));
    }

    #[test]
    fn governed_build_matches_ungoverned_and_respects_budget() {
        let ds = Dataset::from_fn(150, 4, |i, j| ((i * 13 + j * 7) % 6) as u32);
        let plain = PairwiseDistances::build(&ds, Some(4), &Budget::unlimited()).unwrap();
        let roomy = Budget::builder()
            .deadline(std::time::Duration::from_secs(3600))
            .max_memory_bytes(1 << 30)
            .build();
        let governed = PairwiseDistances::build(&ds, Some(4), &roomy).unwrap();
        assert_eq!(plain, governed);

        // The triangle needs 150·149/2·4 = 44 700 bytes; a 1 KiB cap fails
        // before any distance is computed.
        let tight = Budget::builder().max_memory_bytes(1024).build();
        let err = PairwiseDistances::build(&ds, Some(4), &tight).unwrap_err();
        assert!(matches!(
            err,
            Error::BudgetExceeded {
                resource: crate::govern::Resource::Memory,
                ..
            }
        ));

        // A pre-cancelled budget is rejected up front, sequential or banded.
        let cancelled = Budget::unlimited();
        cancelled.cancel();
        for threads in [1, 4] {
            assert!(PairwiseDistances::build(&ds, Some(threads), &cancelled).is_err());
        }
    }

    #[test]
    fn triangle_len_checked() {
        assert_eq!(triangle_len(0).unwrap(), 0);
        assert_eq!(triangle_len(1).unwrap(), 0);
        assert_eq!(triangle_len(5).unwrap(), 10);
        assert!(matches!(
            triangle_len(usize::MAX),
            Err(Error::Overflow { .. })
        ));
    }

    #[test]
    fn resolve_threads_priorities() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1);
        assert!(resolve_threads(None) >= 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Cached get/diameter/anon_cost agree with the row-scanning
        /// reference implementations on random datasets and subsets.
        #[test]
        fn cache_agrees_with_row_scans(
            flat in proptest::collection::vec(0u32..4, 9 * 4),
            subset in proptest::collection::btree_set(0usize..9, 2..7),
        ) {
            let ds = Dataset::from_flat(9, 4, flat).unwrap();
            let cache = PairwiseDistances::build(&ds, Some(1), &Budget::unlimited()).unwrap();
            let rows: Vec<usize> = subset.into_iter().collect();
            prop_assert_eq!(cache.diameter(&rows), diameter(&ds, &rows));
            prop_assert_eq!(cache.anon_cost(&ds, &rows), anon_cost(&ds, &rows));
            for &i in &rows {
                for &j in &rows {
                    prop_assert_eq!(cache.get(i, j) as usize, row_distance(&ds, i, j));
                }
            }
        }
    }
}
