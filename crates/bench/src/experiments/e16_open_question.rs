//! E16 — the paper's §5 open question, measured.
//!
//! "Can an approximation algorithm be found whose performance ratio is
//! independent of k?" The follow-up k-forest construction (implemented in
//! `kanon-baselines::forest`) carries an `O(k)` guarantee vs the paper's
//! `O(k log k)` / `O(k log m)`; the conjectured lower bound is `Ω(log k)`.
//! This experiment sweeps `k` with everything else fixed and tracks the
//! *measured* worst-case ratio (against exact OPT) of the paper's center
//! greedy, the exhaustive greedy, and the forest algorithm. Worst-case
//! guarantees cannot be observed on random instances, but the *trend* —
//! whether empirical ratios drift upward with k — is exactly the question's
//! practical content.

use super::e01_ratio_full::ratio_stats;
use crate::report::{self, Table};
use crate::Ctx;
use kanon_baselines::forest::{forest, ForestConfig};
use kanon_core::algo;
use kanon_core::exact::{subset_dp, SubsetDpConfig};
use kanon_core::Budget;
use kanon_workloads::uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs E16.
#[must_use]
pub fn run(ctx: &Ctx) -> String {
    let seeds: u64 = if ctx.quick { 4 } else { 15 };
    let n = 12usize;
    let m = 6usize;
    let ks: &[usize] = if ctx.quick { &[2, 3] } else { &[2, 3, 4, 5, 6] };

    let mut out = String::new();
    out.push_str("E16  Sec 5 open question: does the ratio grow with k?\n\n");
    let mut table = Table::new(&[
        "k",
        "seeds",
        "center worst/geo",
        "exhaustive worst/geo",
        "forest worst/geo",
    ]);

    for &k in ks {
        let mut center_pairs = Vec::new();
        let mut full_pairs = Vec::new();
        let mut forest_pairs = Vec::new();
        for s in 0..seeds {
            let mut rng = StdRng::seed_from_u64(ctx.seed ^ (0xE16 + s * 37 + k as u64));
            let ds = uniform(&mut rng, n, m, 3);
            let opt = subset_dp(&ds, k, &SubsetDpConfig::default(), &Budget::unlimited())
                .expect("n = 12 fits")
                .cost;
            let center = algo::center_greedy(&ds, k, &Default::default(), &Budget::unlimited())
                .expect("within guards")
                .anonymization_cost(&ds);
            center_pairs.push((center, opt));
            let full = algo::exhaustive_greedy(&ds, k, &Default::default(), &Budget::unlimited())
                .expect("small instance")
                .anonymization_cost(&ds);
            full_pairs.push((full, opt));
            let fr = forest(&ds, k, &ForestConfig::default())
                .expect("within guards")
                .anonymization_cost(&ds);
            forest_pairs.push((fr, opt));
        }
        let fmt = |pairs: &[(usize, usize)]| {
            let s = ratio_stats(pairs);
            format!("{} / {}", report::f(s.worst, 2), report::f(s.mean, 2))
        };
        table.row(vec![
            k.to_string(),
            seeds.to_string(),
            fmt(&center_pairs),
            fmt(&full_pairs),
            fmt(&forest_pairs),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nn = {n}, m = {m}, uniform |Sigma| = 3; ratios are greedy/OPT with OPT from \
         the subset DP. Guarantees: center 6k(1+ln m), exhaustive 3k(1+ln k), \
         forest O(k) (follow-up literature); conjectured lower bound Omega(log k).\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_covers_all_k() {
        let report = run(&Ctx {
            quick: true,
            ..Default::default()
        });
        assert!(report.lines().any(|l| l.starts_with("2 ")), "{report}");
        assert!(report.lines().any(|l| l.starts_with("3 ")), "{report}");
    }
}
