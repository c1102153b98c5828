//! Regression pins for the paper's quantitative guarantees.
//!
//! On a fixed-seed workload the three quantities of §4.1 —
//!
//! * `dΠ*` — the optimal k-minimum diameter sum (subset DP over diameters),
//! * `OPT` — the optimal suppression cost (subset DP over `ANON`),
//! * `dΠ̂` — the diameter sum of the Theorem 4.1 greedy cover,
//!
//! must satisfy the Lemma 4.1 sandwich `(k/2)·dΠ* ≤ OPT` together with the
//! `OPT < 3k·dΠ̂` upper chain, and the Corollary 4.1 rounding must turn any
//! partition into a k-anonymous table costing exactly `Σ_S ANON(S)`, with
//! each block obeying the corrected per-set sandwich
//! `|S|·d(S)/2 ≤ ANON(S) ≤ |S|·(|S|−1)·d(S)`.
//!
//! The exact values are pinned, not just the inequalities: any future change
//! to the greedy's tie-breaking, the cache's diameters, or the DP's
//! objective that shifts these numbers should fail loudly here.

use kanon_core::diameter::{anon_cost, diameter};
use kanon_core::exact::{min_diameter_sum, subset_dp, SubsetDpConfig};
use kanon_core::greedy::{full_greedy_cover, FullCoverConfig};
use kanon_core::rounding::suppressor_for_partition;
use kanon_core::Budget;
use kanon_workloads::uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The fixed workload every pin below refers to: 14 uniform rows over a
/// 4-column ternary alphabet, seed 20_260_805.
fn workload() -> kanon_core::Dataset {
    let mut rng = StdRng::seed_from_u64(20_260_805);
    uniform(&mut rng, 14, 4, 3)
}

fn quantities(k: usize) -> (usize, usize, usize) {
    let ds = workload();
    let dp_config = SubsetDpConfig::default();
    let d_star = min_diameter_sum(&ds, k, &dp_config, &Budget::unlimited())
        .unwrap()
        .cost;
    let opt = subset_dp(&ds, k, &dp_config, &Budget::unlimited())
        .unwrap()
        .cost;
    let cover = full_greedy_cover(
        &ds,
        k,
        &FullCoverConfig::default(),
        None,
        &Budget::unlimited(),
    )
    .unwrap();
    let d_hat = cover.diameter_sum(&ds);
    (d_star, opt, d_hat)
}

#[test]
fn lemma_4_1_sandwich_holds_and_is_pinned_k2() {
    let (d_star, opt, d_hat) = quantities(2);
    // Integer form of (k/2)·dΠ* ≤ OPT.
    assert!(2 * d_star <= 2 * opt, "(k/2)·dΠ* ≤ OPT violated");
    assert!(opt < 3 * 2 * d_hat, "OPT < 3k·dΠ̂ violated");
    assert_eq!((d_star, opt, d_hat), (7, 14, 7), "pinned values drifted");
}

#[test]
fn lemma_4_1_sandwich_holds_and_is_pinned_k3() {
    let (d_star, opt, d_hat) = quantities(3);
    assert!(3 * d_star <= 2 * opt, "(k/2)·dΠ* ≤ OPT violated");
    assert!(opt < 3 * 3 * d_hat, "OPT < 3k·dΠ̂ violated");
    assert_eq!((d_star, opt, d_hat), (7, 30, 8), "pinned values drifted");
}

#[test]
fn corollary_4_1_rounding_guarantee() {
    let ds = workload();
    for k in [2, 3] {
        let cover = full_greedy_cover(
            &ds,
            k,
            &FullCoverConfig::default(),
            None,
            &Budget::unlimited(),
        )
        .unwrap();
        let partition = kanon_core::greedy::reduce(&cover, k)
            .unwrap()
            .split_large(k);
        let suppressor = suppressor_for_partition(&ds, &partition).unwrap();

        // The rounded table is k-anonymous and costs exactly Σ ANON(S).
        let table = suppressor.apply(&ds).unwrap();
        let cost = table.suppressed_cells();
        assert!(table.is_k_anonymous(k), "k = {k}");
        assert_eq!(cost, partition.anonymization_cost(&ds), "k = {k}");

        // Per-block corrected Lemma 4.1 sandwich.
        for block in partition.blocks() {
            let rows: Vec<usize> = block.iter().map(|&r| r as usize).collect();
            let s = rows.len();
            let d = diameter(&ds, &rows);
            let a = anon_cost(&ds, &rows);
            assert!(s * d <= 2 * a, "lower: |S|·d(S)/2 ≤ ANON(S), k = {k}");
            if d == 0 {
                assert_eq!(a, 0, "zero-diameter block must cost nothing, k = {k}");
            } else {
                assert!(
                    a <= s * (s - 1) * d,
                    "upper: ANON(S) ≤ |S|(|S|−1)d(S), k = {k}"
                );
            }
            assert!(s >= k && s < 2 * k, "block size out of [k, 2k−1]");
        }
    }
}
