//! The Hamming distance of Definition 4.1.
//!
//! `d(u, v) = |{j : u[j] ≠ v[j]}|` — the number of coordinates in which two
//! records differ, i.e. the minimum number of suppressions needed *in each of
//! the two records* to make them identical. The paper notes this function is
//! a metric; `proptest` checks in this module verify the axioms.
//!
//! ## Packed rows
//!
//! The `O(m·n²)` distance-cache build beneath every solver compares
//! attributes one [`Value`] at a time. Dictionary codes are almost always
//! tiny (census-style alphabets have a handful of values per column), so
//! [`PackedRows`] re-encodes each row with one **byte** per attribute
//! (8 attributes per `u64` word) when every code fits a byte, or one
//! 16-bit lane (4 attributes per word) when every code fits `u16`. The
//! Hamming distance of two packed rows is then `XOR` + a SWAR
//! nonzero-lane test + `popcount` per word — ~8 attribute comparisons per
//! word op — with the scalar [`hamming`] kept as the exact-agreement
//! fallback for wide alphabets. See DESIGN.md §4.2a for the encoding and
//! the lane-width selection rules.
//!
//! ## Kernel dispatch and column-major packing
//!
//! The word-level arithmetic lives in [`crate::kernel`], which resolves a
//! [`Kernel`] tier (scalar / SWAR / AVX2 / NEON) once per process. Both
//! packed codecs capture the tier at build time, so probes pay zero
//! per-call dispatch. [`PackedColumns`] stores the same words
//! **column-major** (`words[w·n + i]`): a one-to-many sweep — the access
//! pattern of the distance-cache build and of every center-greedy radius
//! scan — then streams `n` contiguous words per word-column instead of
//! striding `words_per_row` apart, which is what lets the SIMD tiers run
//! at memory bandwidth. See DESIGN.md §13 for the dispatch rules and the
//! sharded pipeline that sits on top.

use crate::dataset::{Dataset, Value};
use crate::kernel::{self, Kernel};

/// Hamming distance between two equal-length value slices.
///
/// ```
/// use kanon_core::metric::hamming;
/// assert_eq!(hamming(&[1, 0, 1, 0], &[0, 1, 1, 0]), 2); // the paper's §4 example
/// ```
///
/// # Panics
/// Panics in debug builds if the slices have different lengths.
#[must_use]
pub fn hamming(u: &[Value], v: &[Value]) -> usize {
    debug_assert_eq!(u.len(), v.len(), "hamming distance needs equal lengths");
    kernel::hamming_u32(u, v, kernel::kernel())
}

/// Hamming distance with early exit: returns `None` as soon as the distance
/// is known to exceed `limit`, otherwise `Some(distance)`.
///
/// Useful in nearest-neighbour loops where most pairs are far apart.
#[must_use]
pub fn hamming_within(u: &[Value], v: &[Value], limit: usize) -> Option<usize> {
    debug_assert_eq!(u.len(), v.len());
    let mut d = 0;
    for (a, b) in u.iter().zip(v) {
        if a != b {
            d += 1;
            if d > limit {
                return None;
            }
        }
    }
    Some(d)
}

/// Distance between two rows of a dataset.
///
/// # Panics
/// Panics if either index is out of bounds.
#[must_use]
pub fn row_distance(ds: &Dataset, i: usize, j: usize) -> usize {
    hamming(ds.row(i), ds.row(j))
}

/// Lane width of a [`PackedRows`] encoding: how many bits each attribute
/// occupies inside a `u64` word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Lane {
    /// One byte per attribute, 8 attributes per word; usable when every
    /// dictionary code in the dataset is `<= u8::MAX`.
    B8,
    /// One 16-bit lane per attribute, 4 attributes per word; usable when
    /// every code is `<= u16::MAX`.
    B16,
}

/// Picks the narrowest packed lane that holds the dataset's largest
/// dictionary code, or `None` when some code exceeds `u16::MAX` (callers
/// fall back to the scalar [`hamming`], which is exact for any alphabet).
fn pick_lane(ds: &Dataset) -> Option<Lane> {
    match ds.max_value() {
        None => Some(Lane::B8), // empty dataset: nothing to pack or compare
        Some(v) if v <= Value::from(u8::MAX) => Some(Lane::B8),
        Some(v) if v <= Value::from(u16::MAX) => Some(Lane::B16),
        Some(_) => None,
    }
}

/// Packs one row's attribute codes into zero-initialised `u64` words,
/// little-endian within each word. Shared by the row-major and
/// column-major codecs so both produce bit-identical words.
#[inline]
fn pack_lane(lane: Lane, j: usize, v: Value) -> (usize, u64) {
    let (word, shift) = match lane {
        Lane::B8 => (j / 8, (j % 8) * 8),
        Lane::B16 => (j / 4, (j % 4) * 16),
    };
    (word, u64::from(v) << shift)
}

/// Bit-packed row codec: each row's `m` attribute codes packed
/// little-endian into `u64` lanes, with unused tail lanes zeroed (equal in
/// both operands, so they never contribute to a distance).
///
/// [`PackedRows::distance`] agrees **exactly** with the scalar [`hamming`]
/// on the rows it encodes — pinned by a 1 000-random-pair agreement test in
/// this module and a proptest across alphabet widths.
///
/// ```
/// use kanon_core::{Dataset, metric::{hamming, PackedRows}};
/// let ds = Dataset::from_rows(vec![
///     vec![1, 0, 1, 0, 3, 250, 9, 0, 1],  // 9 attrs: 2 words of 8 lanes
///     vec![0, 1, 1, 0, 3, 251, 9, 0, 2],
/// ]).unwrap();
/// let packed = PackedRows::try_build(&ds).unwrap();
/// assert_eq!(packed.distance(0, 1) as usize, hamming(ds.row(0), ds.row(1)));
/// ```
#[derive(Clone, Debug)]
pub struct PackedRows {
    n: usize,
    words_per_row: usize,
    lane: Lane,
    kernel: Kernel,
    words: Box<[u64]>,
}

impl PackedRows {
    /// Packs every row of `ds`, choosing the narrowest lane that holds the
    /// dataset's largest dictionary code. Returns `None` when some code
    /// exceeds `u16::MAX` — callers fall back to the scalar [`hamming`]
    /// (wide-alphabet datasets are rare and the fallback is exact, just
    /// slower). Probes use the process-wide [`kernel::kernel`] tier,
    /// captured at build time.
    #[must_use]
    pub fn try_build(ds: &Dataset) -> Option<Self> {
        Self::try_build_with(ds, kernel::kernel())
    }

    /// [`PackedRows::try_build`] with an explicit kernel tier, so the
    /// differential suites can exercise every tier in one process
    /// regardless of `KANON_FORCE_KERNEL`.
    #[must_use]
    pub fn try_build_with(ds: &Dataset, kernel: Kernel) -> Option<Self> {
        let lane = pick_lane(ds)?;
        let (n, m) = (ds.n_rows(), ds.n_cols());
        let words_per_row = m.div_ceil(lane_count(lane));
        let mut words = vec![0u64; n * words_per_row];
        for (i, row) in ds.rows().enumerate() {
            let out = &mut words[i * words_per_row..(i + 1) * words_per_row];
            for (j, &v) in row.iter().enumerate() {
                let (word, bits) = pack_lane(lane, j, v);
                out[word] |= bits;
            }
        }
        Some(PackedRows {
            n,
            words_per_row,
            lane,
            kernel,
            words: words.into_boxed_slice(),
        })
    }

    /// Number of rows encoded.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bytes of packed storage (for planned-allocation accounting).
    #[must_use]
    pub fn storage_bytes(n: usize, m: usize) -> u64 {
        // Conservative: assume the widest supported lane (4 attrs/word).
        let words_per_row = m.div_ceil(4) as u64;
        (n as u64)
            .saturating_mul(words_per_row)
            .saturating_mul(std::mem::size_of::<u64>() as u64)
    }

    /// Hamming distance between packed rows `i` and `j`: per word,
    /// XOR + nonzero-lane count, via the kernel tier captured at build.
    ///
    /// # Panics
    /// Panics if either index is out of bounds.
    #[inline]
    #[must_use]
    pub fn distance(&self, i: usize, j: usize) -> u32 {
        let w = self.words_per_row;
        let a = &self.words[i * w..(i + 1) * w];
        let b = &self.words[j * w..(j + 1) * w];
        match self.lane {
            Lane::B8 => kernel::diff_words_b8(a, b, self.kernel),
            Lane::B16 => kernel::diff_words_b16(a, b, self.kernel),
        }
    }
}

/// Column-major bit-packed codec: the same per-attribute lanes as
/// [`PackedRows`], but word-column `w` of every row is stored contiguously
/// (`words[w·n + i]`), so the one-to-many distance sweep — the inner loop
/// of the cache build and of every greedy radius scan — reads `n`
/// consecutive words per word-column and the SIMD tiers stream at memory
/// bandwidth instead of striding.
///
/// Agrees **exactly** with the scalar [`hamming`] for every kernel tier
/// (pinned by the `kernel_equiv` differential suite).
///
/// ```
/// use kanon_core::{Dataset, metric::{hamming, PackedColumns}};
/// let ds = Dataset::from_rows(vec![
///     vec![1, 0, 1, 0, 3, 250, 9, 0, 1],
///     vec![0, 1, 1, 0, 3, 251, 9, 0, 2],
///     vec![1, 0, 1, 0, 3, 250, 9, 0, 1],
/// ]).unwrap();
/// let cols = PackedColumns::try_build(&ds).unwrap();
/// let mut out = vec![0u32; 3];
/// cols.distances_one_to_many(0, &mut out);
/// assert_eq!(out[1] as usize, hamming(ds.row(0), ds.row(1)));
/// assert_eq!(out, vec![0, 4, 0]);
/// ```
#[derive(Clone, Debug)]
pub struct PackedColumns {
    n: usize,
    words_per_row: usize,
    lane: Lane,
    kernel: Kernel,
    /// Laid out `words[w * n + i]` for word-column `w`, row `i`.
    words: Vec<u64>,
}

impl PackedColumns {
    /// Packs `ds` column-major with the process-wide kernel tier. Returns
    /// `None` when some code exceeds `u16::MAX` (same fallback contract as
    /// [`PackedRows::try_build`]).
    #[must_use]
    pub fn try_build(ds: &Dataset) -> Option<Self> {
        Self::try_build_with(ds, kernel::kernel())
    }

    /// [`PackedColumns::try_build`] with an explicit kernel tier.
    #[must_use]
    pub fn try_build_with(ds: &Dataset, kernel: Kernel) -> Option<Self> {
        let lane = pick_lane(ds)?;
        let (n, m) = (ds.n_rows(), ds.n_cols());
        let words_per_row = m.div_ceil(lane_count(lane));
        let mut words = crate::scratch::take_u64(n * words_per_row);
        for (i, row) in ds.rows().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                let (word, bits) = pack_lane(lane, j, v);
                words[word * n + i] |= bits;
            }
        }
        Some(PackedColumns {
            n,
            words_per_row,
            lane,
            kernel,
            words,
        })
    }

    /// Number of rows encoded.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bytes of packed storage (for planned-allocation accounting); same
    /// bound as [`PackedRows::storage_bytes`].
    #[must_use]
    pub fn storage_bytes(n: usize, m: usize) -> u64 {
        PackedRows::storage_bytes(n, m)
    }

    /// Fills `out[j - from] = d(i, j)` for every `j in from..to`. The
    /// batched one-to-many entry point: per word-column, one broadcast
    /// word versus `to - from` contiguous words.
    ///
    /// # Panics
    /// Panics if the range or `i` is out of bounds, or if
    /// `out.len() != to - from`.
    pub fn distances_span(&self, i: usize, from: usize, to: usize, out: &mut [u32]) {
        assert!(from <= to && to <= self.n && i < self.n);
        assert_eq!(out.len(), to - from);
        out.fill(0);
        for w in 0..self.words_per_row {
            let base = w * self.n;
            let x = self.words[base + i];
            let col = &self.words[base + from..base + to];
            match self.lane {
                Lane::B8 => kernel::accum_diff_b8(x, col, out, self.kernel),
                Lane::B16 => kernel::accum_diff_b16(x, col, out, self.kernel),
            }
        }
    }

    /// Distances from row `i` to **every** row: `out[j] = d(i, j)`
    /// (`out[i]` is 0). `out.len()` must equal [`PackedColumns::n`].
    pub fn distances_one_to_many(&self, i: usize, out: &mut [u32]) {
        self.distances_span(i, 0, self.n, out);
    }
}

impl Drop for PackedColumns {
    fn drop(&mut self) {
        // Recycle the packed words into the thread-local scratch pool so
        // per-shard rebuilds in the pipeline stop allocating.
        crate::scratch::give_u64(std::mem::take(&mut self.words));
    }
}

/// Attributes per `u64` word for a lane width.
fn lane_count(lane: Lane) -> usize {
    match lane {
        Lane::B8 => 8,
        Lane::B16 => 4,
    }
}

/// The full `n × n` pairwise distance matrix, stored row-major as `u32`.
///
/// Costs `O(m·n²)` time and `4n²` bytes; this is the preprocessing step of
/// the strongly polynomial algorithm (Theorem 4.2).
#[derive(Clone, Debug)]
pub struct DistanceMatrix {
    n: usize,
    entries: Box<[u32]>,
}

impl DistanceMatrix {
    /// Computes all pairwise row distances.
    #[must_use]
    pub fn build(ds: &Dataset) -> Self {
        let n = ds.n_rows();
        let mut entries = vec![0u32; n * n];
        for i in 0..n {
            let ri = ds.row(i);
            for j in (i + 1)..n {
                let d = hamming(ri, ds.row(j)) as u32;
                entries[i * n + j] = d;
                entries[j * n + i] = d;
            }
        }
        DistanceMatrix {
            n,
            entries: entries.into_boxed_slice(),
        }
    }

    /// Like [`DistanceMatrix::build`], splitting the `O(m·n²)` work across
    /// `threads` OS threads. Each thread fills a contiguous band of rows
    /// (recomputing both triangle halves — simpler ownership, same
    /// asymptotics). `threads <= 1` falls back to the sequential build.
    #[must_use]
    pub fn build_parallel(ds: &Dataset, threads: usize) -> Self {
        let n = ds.n_rows();
        if threads <= 1 || n < 64 {
            return Self::build(ds);
        }
        let mut entries = vec![0u32; n * n];
        let rows_per_band = n.div_ceil(threads);
        std::thread::scope(|scope| {
            let mut rest: &mut [u32] = &mut entries;
            let mut start = 0usize;
            while start < n {
                let band = rows_per_band.min(n - start);
                let (chunk, tail) = rest.split_at_mut(band * n);
                rest = tail;
                let first = start;
                scope.spawn(move || {
                    for (local, i) in (first..first + band).enumerate() {
                        let ri = ds.row(i);
                        for j in 0..n {
                            chunk[local * n + j] = hamming(ri, ds.row(j)) as u32;
                        }
                    }
                });
                start += band;
            }
        });
        DistanceMatrix {
            n,
            entries: entries.into_boxed_slice(),
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Distance between rows `i` and `j`.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> u32 {
        self.entries[i * self.n + j]
    }

    /// The row of distances from `i` to every row (including itself, 0).
    #[must_use]
    pub fn row(&self, i: usize) -> &[u32] {
        &self.entries[i * self.n..(i + 1) * self.n]
    }

    /// Distance from row `i` to its `t`-th nearest *other* row
    /// (`t = 1` is the nearest neighbour). Returns `None` if `t >= n`.
    ///
    /// `kth_neighbor_distance(i, k-1)` is the per-row lower bound used by the
    /// exact branch-and-bound: in any k-anonymization, row `i`'s group
    /// contains `k-1` other rows, so at least this many of its entries must
    /// be suppressed.
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_distances() {
        assert_eq!(hamming(&[1, 2, 3], &[1, 2, 3]), 0);
        assert_eq!(hamming(&[1, 2, 3], &[1, 9, 3]), 1);
        assert_eq!(hamming(&[1, 2, 3], &[4, 5, 6]), 3);
        assert_eq!(hamming(&[], &[]), 0);
    }

    #[test]
    fn paper_example_distance() {
        // §4 example: V = {1010, 1110, 0110}; 1010 and 0110 differ in two
        // coordinates.
        let a = [1, 0, 1, 0];
        let b = [0, 1, 1, 0];
        assert_eq!(hamming(&a, &b), 2);
    }

    #[test]
    fn hamming_within_early_exit() {
        assert_eq!(hamming_within(&[1, 2, 3], &[9, 9, 9], 3), Some(3));
        assert_eq!(hamming_within(&[1, 2, 3], &[9, 9, 9], 2), None);
        assert_eq!(hamming_within(&[1, 2, 3], &[1, 2, 3], 0), Some(0));
    }

    #[test]
    fn distance_matrix_symmetric_zero_diagonal() {
        let ds =
            Dataset::from_rows(vec![vec![1, 0, 1, 0], vec![1, 1, 1, 0], vec![0, 1, 1, 0]]).unwrap();
        let dm = DistanceMatrix::build(&ds);
        for i in 0..3 {
            assert_eq!(dm.get(i, i), 0);
            for j in 0..3 {
                assert_eq!(dm.get(i, j), dm.get(j, i));
                assert_eq!(dm.get(i, j) as usize, row_distance(&ds, i, j));
            }
        }
        assert_eq!(dm.get(0, 2), 2);
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
        let dm = DistanceMatrix::build(&ds);
        // Row 0's other-row distances: [1, 3, 0] sorted -> [0, 1, 3].
        assert_eq!(dm.kth_neighbor_distance(0, 1), Some(0));
        assert_eq!(dm.kth_neighbor_distance(0, 2), Some(1));
        assert_eq!(dm.kth_neighbor_distance(0, 3), Some(3));
        assert_eq!(dm.kth_neighbor_distance(0, 4), None);
        assert_eq!(dm.kth_neighbor_distance(0, 0), Some(0));
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let ds = Dataset::from_fn(80, 5, |i, j| ((i * 31 + j * 17) % 4) as u32);
        let seq = DistanceMatrix::build(&ds);
        for threads in [1, 2, 3, 7] {
            let par = DistanceMatrix::build_parallel(&ds, threads);
            for i in 0..80 {
                for j in 0..80 {
                    assert_eq!(seq.get(i, j), par.get(i, j), "threads={threads} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn parallel_build_small_input_falls_back() {
        let ds = Dataset::from_fn(10, 3, |i, j| (i + j) as u32);
        let par = DistanceMatrix::build_parallel(&ds, 8);
        let seq = DistanceMatrix::build(&ds);
        assert_eq!(par.row(3), seq.row(3));
    }

    /// 1 000 random row pairs per alphabet width: the packed SWAR kernel
    /// must agree exactly with the scalar `hamming`. Referenced by the
    /// `packed_hamming` criterion bench, which compares the same kernels
    /// for speed rather than agreement.
    #[test]
    fn packed_distance_agrees_with_scalar_on_1k_random_pairs() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // Alphabet widths straddling both lane selections: tiny binary,
        // byte-boundary (≤ 255 → 8-lane), and u16-boundary (≤ 65535 →
        // 4-lane) codes, across row widths that exercise partial words.
        for (alphabet, m) in [(2u32, 3usize), (6, 8), (250, 9), (256, 16), (60_000, 5)] {
            let mut rng = StdRng::seed_from_u64(u64::from(alphabet) ^ m as u64);
            let n = 2_000; // 1k pairs of adjacent rows
            let ds = Dataset::from_fn(n, m, |_, _| rng.gen_range(0..alphabet));
            let packed = PackedRows::try_build(&ds).expect("codes fit u16 lanes");
            assert_eq!(packed.n(), n);
            for p in 0..1_000 {
                let (i, j) = (2 * p, 2 * p + 1);
                assert_eq!(
                    packed.distance(i, j) as usize,
                    hamming(ds.row(i), ds.row(j)),
                    "alphabet={alphabet} m={m} pair=({i},{j})"
                );
                assert_eq!(packed.distance(i, i), 0);
                assert_eq!(packed.distance(i, j), packed.distance(j, i));
            }
        }
    }

    #[test]
    fn packed_wide_alphabet_falls_back() {
        let ds = Dataset::from_rows(vec![vec![70_000, 1], vec![2, 3]]).unwrap();
        assert!(PackedRows::try_build(&ds).is_none());
    }

    #[test]
    fn packed_edge_cases() {
        // Empty dataset and zero-column rows pack to nothing and compare 0.
        let empty = Dataset::from_rows(vec![]).unwrap();
        assert!(PackedRows::try_build(&empty).is_some());
        let zero_cols = Dataset::from_rows(vec![vec![], vec![]]).unwrap();
        let p = PackedRows::try_build(&zero_cols).unwrap();
        assert_eq!(p.distance(0, 1), 0);
        // Exactly one full word of byte lanes, and one lane over.
        for m in [8usize, 9] {
            let ds = Dataset::from_fn(4, m, |i, j| ((i * 31 + j * 7) % 255) as u32);
            let p = PackedRows::try_build(&ds).unwrap();
            for i in 0..4 {
                for j in 0..4 {
                    assert_eq!(p.distance(i, j) as usize, row_distance(&ds, i, j), "m={m}");
                }
            }
        }
    }

    /// Column-major storage must agree with both the scalar reference and
    /// the row-major codec, for every kernel tier this machine can run,
    /// across lane widths and partial-word row lengths.
    #[test]
    fn packed_columns_agree_with_scalar_for_every_tier() {
        use crate::kernel::{simd_available, Kernel};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for (alphabet, m) in [(2u32, 3usize), (6, 8), (250, 9), (256, 16), (60_000, 5)] {
            let mut rng = StdRng::seed_from_u64(u64::from(alphabet) ^ m as u64);
            let n = 257; // odd, exercises SIMD tails in the column sweep
            let ds = Dataset::from_fn(n, m, |_, _| rng.gen_range(0..alphabet));
            for tier in [Kernel::Scalar, Kernel::Swar, Kernel::Simd] {
                if tier == Kernel::Simd && !simd_available() {
                    continue;
                }
                let cols = PackedColumns::try_build_with(&ds, tier).unwrap();
                assert_eq!(cols.n(), n);
                let mut out = vec![0u32; n];
                for i in [0usize, 1, 17, n - 1] {
                    cols.distances_one_to_many(i, &mut out);
                    for (j, &d) in out.iter().enumerate() {
                        assert_eq!(
                            d as usize,
                            hamming(ds.row(i), ds.row(j)),
                            "alphabet={alphabet} m={m} tier={tier} ({i},{j})"
                        );
                    }
                    // Spans must match the full sweep's slices.
                    let (from, to) = (i, n.min(i + 100));
                    let mut span = vec![0u32; to - from];
                    cols.distances_span(i, from, to, &mut span);
                    assert_eq!(&span, &out[from..to], "span tier={tier} i={i}");
                }
            }
        }
    }

    #[test]
    fn packed_columns_edge_cases() {
        // Wide alphabets refuse to pack; empty and zero-column datasets
        // pack to nothing and compare 0.
        let wide = Dataset::from_rows(vec![vec![70_000, 1], vec![2, 3]]).unwrap();
        assert!(PackedColumns::try_build(&wide).is_none());
        let zero_cols = Dataset::from_rows(vec![vec![], vec![]]).unwrap();
        let p = PackedColumns::try_build(&zero_cols).unwrap();
        let mut out = vec![9u32; 2];
        p.distances_one_to_many(0, &mut out);
        assert_eq!(out, vec![0, 0]);
        let empty = Dataset::from_rows(vec![]).unwrap();
        assert!(PackedColumns::try_build(&empty).is_some());
    }

    proptest! {
        #[test]
        fn packed_agrees_with_hamming_proptest(
            u in proptest::collection::vec(0u32..300, 11),
            v in proptest::collection::vec(0u32..300, 11),
        ) {
            // Alphabet 300 forces the 16-bit lane path; 11 columns leave a
            // partial final word.
            let ds = Dataset::from_rows(vec![u.clone(), v.clone()]).unwrap();
            let p = PackedRows::try_build(&ds).unwrap();
            prop_assert_eq!(p.distance(0, 1) as usize, hamming(&u, &v));
        }

        #[test]
        fn metric_axioms(
            rows in proptest::collection::vec(
                proptest::collection::vec(0u32..4, 6),
                3,
            )
        ) {
            let (u, v, w) = (&rows[0], &rows[1], &rows[2]);
            // Identity of indiscernibles.
            prop_assert_eq!(hamming(u, u), 0);
            prop_assert_eq!(hamming(u, v) == 0, u == v);
            // Symmetry.
            prop_assert_eq!(hamming(u, v), hamming(v, u));
            // Triangle inequality.
            prop_assert!(hamming(u, w) <= hamming(u, v) + hamming(v, w));
        }

        #[test]
        fn hamming_within_agrees_with_hamming(
            u in proptest::collection::vec(0u32..3, 8),
            v in proptest::collection::vec(0u32..3, 8),
            limit in 0usize..10,
        ) {
            let d = hamming(&u, &v);
            let w = hamming_within(&u, &v, limit);
            if d <= limit {
                prop_assert_eq!(w, Some(d));
            } else {
                prop_assert_eq!(w, None);
            }
        }
    }
}
