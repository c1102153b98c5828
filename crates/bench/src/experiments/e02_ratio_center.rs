//! E2 — Theorem 4.2: the strongly polynomial center greedy is a
//! `6k(1 + ln m)`-approximation.
//!
//! Two regimes:
//!
//! * **exact** — small instances where the subset DP certifies OPT, so the
//!   ratio is exact;
//! * **scaled** — planted-cluster instances up to thousands of rows, where
//!   the ratio is sandwiched between `cost / planted_cost` (a lower
//!   estimate, since the planted cost is an upper bound on OPT) and
//!   `cost / knn_lower_bound` (an upper estimate). Both must sit below the
//!   paper bound for the guarantee to be corroborated at scale.

use super::e01_ratio_full::ratio_stats;
use crate::report::{self, Table};
use crate::Ctx;
use kanon_core::algo;
use kanon_core::exact::{subset_dp, SubsetDpConfig};
use kanon_core::Budget;
use kanon_workloads::{clustered, knn_lower_bound, uniform, ClusteredParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The paper's Theorem 4.2 bound.
#[must_use]
pub fn bound_thm42(k: usize, m: usize) -> f64 {
    6.0 * k as f64 * (1.0 + (m as f64).ln())
}

/// Runs E2.
#[must_use]
pub fn run(ctx: &Ctx) -> String {
    let mut out = String::new();
    out.push_str("E2  Theorem 4.2: center greedy approximation ratio\n\n");

    // Exact regime.
    let seeds: u64 = if ctx.quick { 3 } else { 10 };
    let grid_n: &[usize] = if ctx.quick { &[8] } else { &[8, 10, 12] };
    let mut table = Table::new(&[
        "regime",
        "workload",
        "n",
        "m",
        "k",
        "worst ratio",
        "geomean",
        "bound 6k(1+ln m)",
        "ok",
    ]);
    let mut violations = 0usize;
    for &n in grid_n {
        for &m in &[4usize, 8] {
            for &k in &[2usize, 3] {
                for workload in ["uniform", "clustered"] {
                    let mut pairs = Vec::new();
                    for s in 0..seeds {
                        let mut rng = StdRng::seed_from_u64(ctx.seed ^ (0xE2 + s * 104_729));
                        let ds = match workload {
                            "uniform" => uniform(&mut rng, n, m, 3),
                            _ => {
                                let params = ClusteredParams {
                                    n_clusters: (n / k).max(1),
                                    cluster_size: k,
                                    m,
                                    scatter: 1,
                                    values_per_cluster: 3,
                                };
                                clustered(&mut rng, &params).dataset
                            }
                        };
                        let opt =
                            subset_dp(&ds, k, &SubsetDpConfig::default(), &Budget::unlimited())
                                .expect("grid sized for the DP");
                        let greedy =
                            algo::center_greedy(&ds, k, &Default::default(), &Budget::unlimited())
                                .expect("within guards");
                        pairs.push((greedy.anonymization_cost(&ds), opt.cost));
                    }
                    let stats = ratio_stats(&pairs);
                    let bound = bound_thm42(k, m);
                    let ok = stats.worst <= bound && stats.zero_opt_all_zero;
                    if !ok {
                        violations += 1;
                    }
                    table.row(vec![
                        "exact".into(),
                        workload.into(),
                        n.to_string(),
                        m.to_string(),
                        k.to_string(),
                        report::f(stats.worst, 3),
                        report::f(stats.mean, 3),
                        report::f(bound, 2),
                        if ok { "yes".into() } else { "VIOLATED".into() },
                    ]);
                }
            }
        }
    }

    // Scaled regime: ratio sandwich on planted instances.
    let sizes: &[usize] = if ctx.quick {
        &[100]
    } else {
        &[100, 500, 1000, 2000]
    };
    let k = 5usize;
    let m = 12usize;
    for &n in sizes {
        let mut rng = StdRng::seed_from_u64(ctx.seed ^ (0x5CA1E + n as u64));
        let params = ClusteredParams {
            n_clusters: n / k,
            cluster_size: k,
            m,
            scatter: 2,
            values_per_cluster: 4,
        };
        let inst = clustered(&mut rng, &params);
        let greedy =
            algo::center_greedy(&inst.dataset, k, &Default::default(), &Budget::unlimited())
                .expect("within guards")
                .anonymization_cost(&inst.dataset);
        let lb = knn_lower_bound(&inst.dataset, k);
        let vs_planted = if inst.planted_cost > 0 {
            greedy as f64 / inst.planted_cost as f64
        } else {
            0.0
        };
        let vs_lb = if lb > 0 {
            greedy as f64 / lb as f64
        } else {
            0.0
        };
        let bound = bound_thm42(k, m);
        let ok = vs_lb <= bound;
        if !ok {
            violations += 1;
        }
        table.row(vec![
            "scaled".into(),
            "planted".into(),
            n.to_string(),
            m.to_string(),
            k.to_string(),
            format!("{}..{}", report::f(vs_planted, 3), report::f(vs_lb, 3)),
            String::new(),
            report::f(bound, 2),
            if ok { "yes".into() } else { "VIOLATED".into() },
        ]);
    }

    out.push_str(&table.render());
    out.push_str(&format!("\nbound violations: {violations} (expected 0)\n"));
    out.push_str(
        "scaled rows show the ratio interval [cost/planted_upper, cost/knn_lower]; \
         the true ratio lies inside.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_grows_with_m() {
        assert!(bound_thm42(3, 100) > bound_thm42(3, 10));
    }

    #[test]
    fn quick_run_reports_no_violations() {
        let report = run(&Ctx {
            quick: true,
            ..Default::default()
        });
        assert!(report.contains("bound violations: 0"), "{report}");
    }
}
