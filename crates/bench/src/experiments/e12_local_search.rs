//! E12 — extension: local-search post-optimization of the greedy output.
//!
//! The paper's conclusion asks whether the approximation can be improved;
//! the cheapest practical answer is hill climbing (relocate/swap moves) on
//! the partition the center greedy returns. On instances where the exact
//! optimum is known, this experiment reports how much of the
//! greedy-to-optimal gap the local search recovers; at scale it reports raw
//! improvement.

use crate::report::{self, Table};
use crate::Ctx;
use kanon_core::exact::{subset_dp, SubsetDpConfig};
use kanon_core::greedy::{center_greedy_cover, reduce, CenterConfig};
use kanon_core::local_search::{improve, LocalSearchConfig};
use kanon_core::Budget;
use kanon_workloads::{clustered, uniform, zipf, ClusteredParams, ZipfParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs E12.
#[must_use]
pub fn run(ctx: &Ctx) -> String {
    let mut out = String::new();
    out.push_str("E12  local search on top of the center greedy (extension)\n\n");
    let mut table = Table::new(&[
        "regime",
        "workload",
        "n",
        "k",
        "greedy",
        "after LS",
        "OPT",
        "gap recovered",
    ]);

    // Exact regime: gap recovery against the DP optimum.
    let seeds: u64 = if ctx.quick { 4 } else { 15 };
    let mut recovered = Vec::new();
    for s in 0..seeds {
        let mut rng = StdRng::seed_from_u64(ctx.seed ^ (0xE12 + s * 131));
        let ds = uniform(&mut rng, 12, 5, 3);
        let k = 3;
        let cover =
            center_greedy_cover(&ds, k, &CenterConfig::default(), None, &Budget::unlimited())
                .expect("fits");
        let greedy = reduce(&cover, k).expect("valid").split_large(k);
        let greedy_cost = greedy.anonymization_cost(&ds);
        let ls = improve(
            &ds,
            &greedy,
            k,
            &LocalSearchConfig::default(),
            &Budget::unlimited(),
        )
        .expect("valid");
        let opt = subset_dp(&ds, k, &SubsetDpConfig::default(), &Budget::unlimited())
            .expect("fits")
            .cost;
        let gap = greedy_cost.saturating_sub(opt);
        let rec = if gap == 0 {
            1.0
        } else {
            (greedy_cost - ls.final_cost) as f64 / gap as f64
        };
        recovered.push(rec);
        if s < 4 {
            table.row(vec![
                "exact".into(),
                "uniform".into(),
                "12".into(),
                k.to_string(),
                greedy_cost.to_string(),
                ls.final_cost.to_string(),
                opt.to_string(),
                format!("{:.0}%", rec * 100.0),
            ]);
        }
    }
    let mean_rec = recovered.iter().sum::<f64>() / recovered.len() as f64;

    // Scaled regime: raw improvement, no OPT available.
    let n = if ctx.quick { 80 } else { 400 };
    for (name, ds) in [
        (
            "zipf",
            zipf(
                &mut StdRng::seed_from_u64(ctx.seed ^ 0xE12A),
                &ZipfParams {
                    n,
                    m: 8,
                    alphabet: 8,
                    exponent: 1.0,
                },
            ),
        ),
        (
            "clustered",
            clustered(
                &mut StdRng::seed_from_u64(ctx.seed ^ 0xE12B),
                &ClusteredParams {
                    n_clusters: n / 5,
                    cluster_size: 5,
                    m: 8,
                    scatter: 2,
                    values_per_cluster: 4,
                },
            )
            .dataset,
        ),
    ] {
        let k = 5;
        let cover =
            center_greedy_cover(&ds, k, &CenterConfig::default(), None, &Budget::unlimited())
                .expect("fits");
        let greedy = reduce(&cover, k).expect("valid").split_large(k);
        let greedy_cost = greedy.anonymization_cost(&ds);
        let ls = improve(
            &ds,
            &greedy,
            k,
            &LocalSearchConfig::default(),
            &Budget::unlimited(),
        )
        .expect("valid");
        let pct = if greedy_cost == 0 {
            0.0
        } else {
            100.0 * (greedy_cost - ls.final_cost) as f64 / greedy_cost as f64
        };
        table.row(vec![
            "scaled".into(),
            name.into(),
            n.to_string(),
            k.to_string(),
            greedy_cost.to_string(),
            ls.final_cost.to_string(),
            "?".into(),
            format!("-{:.1}% cost", pct),
        ]);
    }

    out.push_str(&table.render());
    out.push_str(&format!(
        "\nmean gap recovery over {seeds} exact instances: {}%\n",
        report::f(mean_rec * 100.0, 1)
    ));
    out.push_str("local search never increases cost (asserted in kanon-core tests).\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reports_recovery() {
        let report = run(&Ctx {
            quick: true,
            ..Default::default()
        });
        assert!(report.contains("mean gap recovery"), "{report}");
        // After-LS column never exceeds greedy column.
        for line in report.lines().filter(|l| l.starts_with("exact")) {
            let cols: Vec<&str> = line.split_whitespace().collect();
            let greedy: usize = cols[4].parse().unwrap();
            let after: usize = cols[5].parse().unwrap();
            assert!(after <= greedy, "{line}");
        }
    }
}
