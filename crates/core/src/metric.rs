//! The Hamming distance of Definition 4.1.
//!
//! `d(u, v) = |{j : u[j] ≠ v[j]}|` — the number of coordinates in which two
//! records differ, i.e. the minimum number of suppressions needed *in each of
//! the two records* to make them identical. The paper notes this function is
//! a metric; `proptest` checks in this module verify the axioms.
//!
//! ## Packed columns
//!
//! The `O(m·n²)` distance-cache build beneath every solver compares
//! attributes one [`Value`] at a time. Dictionary codes are almost always
//! tiny (census-style alphabets have a handful of values per column), so
//! [`PackedColumns`] re-encodes each row with one **byte** per attribute
//! (8 attributes per `u64` word) when every code fits a byte, or one
//! 16-bit lane (4 attributes per word) when every code fits `u16`, with
//! the scalar [`hamming`] kept as the exact fallback for wide alphabets.
//! The words are stored **column-major** (`words[w·n + i]`): a one-to-many
//! sweep — the access pattern of the distance-cache build and of every
//! center-greedy radius scan — then streams `n` contiguous words per
//! word-column, each one `XOR` + a SWAR nonzero-lane test + `popcount`
//! against a broadcast word. See DESIGN.md §4.2a for the encoding and the
//! lane-width selection rules.
//!
//! The word-level arithmetic lives in [`crate::kernel`], which resolves a
//! [`Kernel`] tier (scalar / SWAR / SIMD) once per process; the codec
//! captures the tier at build time, so probes pay zero per-call dispatch.
//! See DESIGN.md §13 for the dispatch rules and the sharded pipeline that
//! sits on top.

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

/// Distance between two rows of a dataset.
///
/// # Panics
/// Panics if either index is out of bounds.
#[must_use]
pub fn row_distance(ds: &Dataset, i: usize, j: usize) -> usize {
    hamming(ds.row(i), ds.row(j))
}

/// Lane width of a [`PackedColumns`] encoding: how many bits each attribute
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

/// The word and bit pattern of attribute `j` holding code `v`: lanes are
/// little-endian within each word, and unused tail lanes stay zero in
/// every row, so they never count as differing.
#[inline]
fn pack_lane(lane: Lane, j: usize, v: Value) -> (usize, u64) {
    let (word, shift) = match lane {
        Lane::B8 => (j / 8, (j % 8) * 8),
        Lane::B16 => (j / 4, (j % 4) * 16),
    };
    (word, u64::from(v) << shift)
}

/// Column-major bit-packed codec: each row's `m` attribute codes packed
/// into `u64` lanes, with word-column `w` of every row stored contiguously
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
    /// Packs `ds` column-major with the process-wide kernel tier, choosing
    /// the narrowest lane that holds the dataset's largest dictionary code.
    /// Returns `None` when some code exceeds `u16::MAX`: callers fall back
    /// to the scalar [`hamming`], which is exact for any alphabet.
    #[must_use]
    pub fn try_build(ds: &Dataset) -> Option<Self> {
        Self::try_build_with(ds, kernel::kernel())
    }

    /// [`PackedColumns::try_build`] with an explicit kernel tier, so the
    /// differential suites can exercise every tier in one process
    /// regardless of `KANON_FORCE_KERNEL`.
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

    /// Bytes of packed storage (for planned-allocation accounting).
    #[must_use]
    pub fn storage_bytes(n: usize, m: usize) -> u64 {
        // Conservative: assume the widest supported lane (4 attrs/word).
        let words_per_row = m.div_ceil(4) as u64;
        (n as u64)
            .saturating_mul(words_per_row)
            .saturating_mul(std::mem::size_of::<u64>() as u64)
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

    /// Column-major storage must agree with the scalar reference for every
    /// kernel tier this machine can run, across lane widths and
    /// partial-word row lengths.
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
    }
}
