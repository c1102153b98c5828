//! E1 — Theorem 4.1: the exhaustive-candidate greedy is a
//! `3k(1 + ln k)`-approximation.
//!
//! Measures the exact ratio `greedy / OPT` on instance grids where the
//! subset DP can certify OPT, and reports the worst and geometric-mean
//! ratio per configuration alongside the paper's bound. Expected outcome:
//! every measured ratio sits far below the bound (greedy bounds are worst
//! case; typical ratios are near 1).

use crate::report::{self, Table};
use crate::Ctx;
use kanon_core::algo;
use kanon_core::exact::{subset_dp, SubsetDpConfig};
use kanon_core::Budget;
use kanon_workloads::{clustered, uniform, ClusteredParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub(crate) struct RatioStats {
    pub worst: f64,
    pub mean: f64,
    pub zero_opt_all_zero: bool,
}

/// Ratio statistics of `costs` against `opts`, treating OPT = 0 specially
/// (both must then be zero for the guarantee to hold).
pub(crate) fn ratio_stats(pairs: &[(usize, usize)]) -> RatioStats {
    let mut ratios = Vec::new();
    let mut zero_ok = true;
    for &(cost, opt) in pairs {
        if opt == 0 {
            zero_ok &= cost == 0;
        } else {
            ratios.push(cost as f64 / opt as f64);
        }
    }
    RatioStats {
        worst: ratios.iter().copied().fold(0.0, f64::max),
        mean: report::geomean(&ratios),
        zero_opt_all_zero: zero_ok,
    }
}

/// The paper's Theorem 4.1 bound.
#[must_use]
pub fn bound_thm41(k: usize) -> f64 {
    3.0 * k as f64 * (1.0 + (k as f64).ln())
}

/// Runs E1.
#[must_use]
pub fn run(ctx: &Ctx) -> String {
    let seeds: u64 = if ctx.quick { 3 } else { 10 };
    let grid_n: &[usize] = if ctx.quick { &[8] } else { &[8, 10, 12] };
    let ks: &[usize] = &[2, 3];
    let ms: &[usize] = &[4, 8];

    let mut out = String::new();
    out.push_str("E1  Theorem 4.1: exhaustive greedy vs exact optimum\n");
    out.push_str(&format!(
        "    (candidate enumeration: {} worker thread(s), shared distance cache)\n\n",
        kanon_core::greedy::FullCoverConfig::default().effective_threads()
    ));
    let mut table = Table::new(&[
        "workload",
        "n",
        "m",
        "k",
        "seeds",
        "worst ratio",
        "geomean",
        "bound 3k(1+ln k)",
        "ok",
    ]);
    let mut violations = 0usize;

    for &n in grid_n {
        for &m in ms {
            for &k in ks {
                for workload in ["uniform", "clustered"] {
                    let mut pairs = Vec::new();
                    for s in 0..seeds {
                        let mut rng = StdRng::seed_from_u64(ctx.seed ^ (s * 7919));
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
                        let greedy = algo::exhaustive_greedy(
                            &ds,
                            k,
                            &Default::default(),
                            &Budget::unlimited(),
                        )
                        .expect("grid sized for the exhaustive greedy");
                        pairs.push((greedy.anonymization_cost(&ds), opt.cost));
                    }
                    let stats = ratio_stats(&pairs);
                    let bound = bound_thm41(k);
                    let ok = stats.worst <= bound && stats.zero_opt_all_zero;
                    if !ok {
                        violations += 1;
                    }
                    table.row(vec![
                        workload.into(),
                        n.to_string(),
                        m.to_string(),
                        k.to_string(),
                        seeds.to_string(),
                        report::f(stats.worst, 3),
                        report::f(stats.mean, 3),
                        report::f(bound, 2),
                        if ok { "yes".into() } else { "VIOLATED".into() },
                    ]);
                }
            }
        }
    }
    out.push_str(&table.render());
    out.push_str(&format!("\nbound violations: {violations} (expected 0)\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_stats_handles_zero_opt() {
        let s = ratio_stats(&[(0, 0), (4, 2)]);
        assert!(s.zero_opt_all_zero);
        assert!((s.worst - 2.0).abs() < 1e-12);
        let s = ratio_stats(&[(3, 0)]);
        assert!(!s.zero_opt_all_zero);
    }

    #[test]
    fn bound_grows_with_k() {
        assert!(bound_thm41(3) > bound_thm41(2));
        assert!((bound_thm41(2) - 6.0 * (1.0 + 2f64.ln())).abs() < 1e-12);
    }

    #[test]
    fn quick_run_reports_no_violations() {
        let report = run(&Ctx {
            quick: true,
            ..Default::default()
        });
        assert!(report.contains("bound violations: 0"));
    }
}
