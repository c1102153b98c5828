//! Differential equivalence of the distance-kernel tiers: the scalar
//! reference, the SWAR word tier, and the explicit SIMD tier must agree on
//! every Hamming distance — across alphabet sizes (both packed lane
//! widths), odd row lengths that leave partial words, and both entry
//! points (the dispatched `hamming` on raw rows and the column-major
//! `PackedColumns` one-to-many sweep).
//!
//! SIMD cases run only where the hardware supports them
//! (`kanon_core::kernel::simd_available`); on other machines the suite
//! still pins scalar == SWAR, and CI's forced-kernel matrix covers the
//! rest.

use kanon_core::kernel::{self, Kernel};
use kanon_core::metric::{hamming, PackedColumns};
use kanon_core::Dataset;
use proptest::prelude::*;

/// Kernel tiers to compare on this machine.
fn tiers() -> Vec<Kernel> {
    let mut tiers = vec![Kernel::Scalar, Kernel::Swar];
    if kernel::simd_available() {
        tiers.push(Kernel::Simd);
    }
    tiers
}

/// Reference distance: plain per-value comparison, no packing.
fn scalar_distance(ds: &Dataset, i: usize, j: usize) -> u32 {
    ds.row(i)
        .iter()
        .zip(ds.row(j))
        .filter(|(a, b)| a != b)
        .count() as u32
}

/// Alphabet sizes spanning the packing regimes: `<= 256` packs 8 values
/// per word (B8), `<= 65536` packs 4 (B16), larger stays unpacked.
const ALPHABETS: [u32; 6] = [2, 6, 250, 256, 300, 60_000];

/// Builds a dataset from a flat random buffer, reduced modulo the chosen
/// alphabet. Row lengths include odd sizes that leave a partial trailing
/// packed word.
fn build_dataset(flat: &[u32], n: usize, m: usize, alphabet: u32) -> Dataset {
    Dataset::from_fn(n, m, |i, j| flat[i * m + j] % alphabet)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every kernel tier agrees with the scalar reference on every pair of
    /// the packed one-to-many sweep.
    #[test]
    fn packed_tiers_agree_with_scalar_reference(
        flat in proptest::collection::vec(0u32..u32::MAX, 40 * 24),
        n in 1usize..40,
        m in 1usize..24,
        which in 0usize..ALPHABETS.len(),
    ) {
        let ds = build_dataset(&flat, n, m, ALPHABETS[which]);
        for tier in tiers() {
            let cols = PackedColumns::try_build_with(&ds, tier);
            // The codec packs exactly the alphabets whose codes fit 16 bits.
            prop_assert_eq!(cols.is_some(), ALPHABETS[which] <= 65_536);
            let Some(cols) = cols else { continue };
            let mut out = vec![0u32; n];
            for i in 0..n {
                cols.distances_one_to_many(i, &mut out);
                for (j, &col_got) in out.iter().enumerate() {
                    prop_assert_eq!(
                        col_got, scalar_distance(&ds, i, j),
                        "PackedColumns {:?} disagrees at ({}, {})", tier, i, j
                    );
                }
            }
        }
    }

    /// The public `hamming` entry point (whatever kernel the process
    /// resolved, including a `KANON_FORCE_KERNEL` override) matches the
    /// scalar reference.
    #[test]
    fn dispatched_hamming_matches_scalar_reference(
        flat in proptest::collection::vec(0u32..u32::MAX, 24 * 24),
        n in 1usize..24,
        m in 1usize..24,
        which in 0usize..ALPHABETS.len(),
    ) {
        let ds = build_dataset(&flat, n, m, ALPHABETS[which]);
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(
                    hamming(ds.row(i), ds.row(j)) as u32,
                    scalar_distance(&ds, i, j)
                );
            }
        }
    }
}

/// Deterministic boundary sweep: row lengths around every lane and word
/// boundary of both packed widths (8 values/word for B8, 4 for B16), and
/// row counts that leave a tail below the 4-row SIMD stride.
#[test]
fn lane_boundaries_agree_across_tiers() {
    for alphabet in [250u32, 60_000u32] {
        for m in 1..=67 {
            let n = 9;
            let ds = Dataset::from_fn(n, m, |i, j| ((i * 31 + j * 17 + 3) as u32) % alphabet);
            for tier in tiers() {
                let cols = PackedColumns::try_build_with(&ds, tier).expect("alphabet fits packing");
                let mut out = vec![0u32; n];
                for i in 0..n {
                    cols.distances_one_to_many(i, &mut out);
                    for (j, &col_got) in out.iter().enumerate() {
                        let want = scalar_distance(&ds, i, j);
                        assert_eq!(col_got, want, "{tier:?} m={m} ({i},{j})");
                    }
                }
            }
        }
    }
}
