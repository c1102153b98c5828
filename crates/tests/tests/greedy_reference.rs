//! Differential test of Phase 1 of Theorem 4.1 against a reference greedy
//! written from the paper's selection rule, with none of the production
//! machinery (no distance cache, no candidate arena, no bucket queue).
//!
//! The reference enumerates every candidate set of `k..=2k−1` rows in the
//! production enumeration order (sizes ascending, lexicographic within a
//! size), then repeatedly rescans them all and takes the one with the
//! smallest exact ratio `diameter / fresh`, where `fresh` counts rows not
//! yet covered. Ratios are compared by `u128` cross-multiplication, and a
//! tie goes to the lowest candidate index. `full_greedy_cover` must return
//! the same `Cover`: the same sets in the same order, not only the same
//! diameter sum.

use kanon_core::govern::Budget;
use kanon_core::greedy::{full_greedy_cover, FullCoverConfig};
use kanon_core::metric::hamming;
use kanon_core::{Cover, Dataset};
use kanon_workloads::uniform;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every candidate set with its diameter, in enumeration order.
fn candidates(ds: &Dataset, k: usize) -> Vec<(Vec<u32>, u64)> {
    let n = ds.n_rows();
    let mut out = Vec::new();
    for s in k..=(2 * k - 1).min(n) {
        let mut combo: Vec<usize> = (0..s).collect();
        loop {
            let mut diameter = 0;
            for (a, &i) in combo.iter().enumerate() {
                for &j in &combo[a + 1..] {
                    diameter = diameter.max(hamming(ds.row(i), ds.row(j)) as u64);
                }
            }
            out.push((combo.iter().map(|&r| r as u32).collect(), diameter));
            // Advance to the next combination in lexicographic order.
            let Some(i) = (0..s).rev().find(|&i| combo[i] < n - s + i) else {
                break;
            };
            combo[i] += 1;
            for j in i + 1..s {
                combo[j] = combo[j - 1] + 1;
            }
        }
    }
    out
}

/// The greedy cover by naive rescan: minimum `d / fresh`, lowest index on
/// ties.
fn reference_greedy_cover(ds: &Dataset, k: usize) -> Cover {
    let n = ds.n_rows();
    let candidates = candidates(ds, k);
    let mut covered = vec![false; n];
    let mut chosen = Vec::new();
    while covered.contains(&false) {
        let mut best: Option<(u64, u64, usize)> = None;
        for (idx, (rows, d)) in candidates.iter().enumerate() {
            let fresh = rows.iter().filter(|&&r| !covered[r as usize]).count() as u64;
            if fresh == 0 {
                continue;
            }
            let better = best.is_none_or(|(best_d, best_fresh, _)| {
                u128::from(*d) * u128::from(best_fresh) < u128::from(best_d) * u128::from(fresh)
            });
            if better {
                best = Some((*d, fresh, idx));
            }
        }
        let (_, _, idx) = best.expect("the candidates cover every row");
        for &r in &candidates[idx].0 {
            covered[r as usize] = true;
        }
        chosen.push(candidates[idx].0.clone());
    }
    Cover::new(chosen, n, k).expect("the reference greedy builds a valid cover")
}

fn assert_same_cover(ds: &Dataset, k: usize) {
    let cover = full_greedy_cover(
        ds,
        k,
        &FullCoverConfig::default(),
        None,
        &Budget::unlimited(),
    )
    .unwrap();
    assert_eq!(cover, reference_greedy_cover(ds, k));
}

/// Two fixed-seed tables of uniform rows over an alphabet of 4, large
/// enough (up to 759,278 candidates) that ties between equal ratios are
/// common.
#[test]
fn full_greedy_cover_matches_the_reference_on_fixed_instances() {
    for (seed, n, m, k) in [(0xA11CE, 32, 8, 2), (0xB0B, 40, 8, 3)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = uniform(&mut rng, n, m, 4);
        assert_same_cover(&ds, k);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Small random tables, including duplicate rows (diameter-0 sets) and
    /// `k = 1`, where ties are everywhere and only the index breaks them.
    #[test]
    fn full_greedy_cover_matches_the_reference_on_random_tables(
        flat in proptest::collection::vec(0u32..4, 14 * 4),
        n in 2usize..14,
        m in 1usize..5,
        k in 1usize..=3,
    ) {
        let ds = Dataset::from_fn(n, m, |i, j| flat[(i * m + j) % flat.len()]);
        let k = k.min(n);
        assert_same_cover(&ds, k);
    }
}
