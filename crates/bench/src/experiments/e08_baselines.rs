//! E8 — who wins in practice: the paper's algorithms vs baselines.
//!
//! Runs every partitioner over four workload families and several `k`
//! values, pricing all of them with the same Corollary 4.1 rounding so the
//! suppression costs are directly comparable. Also prints the k-NN lower
//! bound on OPT for context. Expected shape: center greedy and knn lead on
//! clustered/skewed data (well below random and usually below Mondrian's
//! axis-aligned cuts), with the gap to the lower bound widening on uniform
//! (high-entropy) data where everyone is forced to pay.

use crate::report::Table;
use crate::Ctx;
use kanon_baselines::forest::{forest, ForestConfig};
use kanon_baselines::{agglomerative, knn_greedy, mondrian, random_partition};
use kanon_core::Budget;
use kanon_core::{algo, Dataset};
use kanon_workloads::{
    census_table, clustered, knn_lower_bound, uniform, zipf, CensusParams, ClusteredParams,
    ZipfParams,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn workloads(ctx: &Ctx, n: usize) -> Vec<(&'static str, Dataset)> {
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xE8);
    let uniform_ds = uniform(&mut rng, n, 8, 5);
    let zipf_ds = zipf(
        &mut rng,
        &ZipfParams {
            n,
            m: 8,
            alphabet: 20,
            exponent: 1.0,
        },
    );
    let clustered_ds = clustered(
        &mut rng,
        &ClusteredParams {
            n_clusters: n / 5,
            cluster_size: 5,
            m: 8,
            scatter: 1,
            values_per_cluster: 4,
        },
    )
    .dataset;
    let census = census_table(&mut rng, &CensusParams { n, regions: 8 });
    let (census_ds, _) = census.encode();
    vec![
        ("uniform", uniform_ds),
        ("zipf", zipf_ds),
        ("clustered", clustered_ds),
        ("census", census_ds),
    ]
}

/// Runs E8.
#[must_use]
pub fn run(ctx: &Ctx) -> String {
    let n = if ctx.quick { 60 } else { 150 };
    let ks: &[usize] = if ctx.quick { &[3] } else { &[2, 5, 10] };
    let mut out = String::new();
    out.push_str("E8  suppression cost: paper's algorithms vs baselines\n");
    out.push_str("    (all partitions rounded identically; cost = stars)\n\n");
    let mut table = Table::new(&[
        "workload",
        "k",
        "knn-LB",
        "center(4.2)",
        "knn",
        "agglom",
        "forest",
        "mondrian",
        "random",
        "winner",
    ]);

    for (name, ds) in workloads(ctx, n) {
        for &k in ks {
            let lb = knn_lower_bound(&ds, k);
            let center = algo::center_greedy(&ds, k, &Default::default(), &Budget::unlimited())
                .expect("within guards")
                .anonymization_cost(&ds);
            let knn = knn_greedy(&ds, k, &Budget::unlimited())
                .expect("valid k")
                .anonymization_cost(&ds);
            let agg = agglomerative(&ds, k, &Budget::unlimited())
                .expect("valid k")
                .anonymization_cost(&ds);
            let frs = forest(&ds, k, &ForestConfig::default())
                .expect("valid k")
                .anonymization_cost(&ds);
            let mon = mondrian(&ds, k, &Budget::unlimited())
                .expect("valid k")
                .anonymization_cost(&ds);
            let mut rng = StdRng::seed_from_u64(ctx.seed ^ (0xE8F + k as u64));
            let rnd = random_partition(&mut rng, ds.n_rows(), k)
                .expect("valid k")
                .anonymization_cost(&ds);
            let entries = [
                ("center", center),
                ("knn", knn),
                ("agglom", agg),
                ("forest", frs),
                ("mondrian", mon),
                ("random", rnd),
            ];
            let winner = entries.iter().min_by_key(|&&(_, c)| c).expect("non-empty");
            table.row(vec![
                name.into(),
                k.to_string(),
                lb.to_string(),
                center.to_string(),
                knn.to_string(),
                agg.to_string(),
                frs.to_string(),
                mon.to_string(),
                rnd.to_string(),
                winner.0.into(),
            ]);
        }
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nn = {n}, m = 8 throughout; knn-LB is a lower bound on OPT, not an algorithm.\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_never_crowns_random_on_clustered() {
        let report = run(&Ctx {
            quick: true,
            ..Default::default()
        });
        let line = report
            .lines()
            .find(|l| l.starts_with("clustered"))
            .expect("clustered row present");
        assert!(!line.ends_with("random"), "{line}");
    }

    #[test]
    fn costs_are_at_least_the_lower_bound() {
        let report = run(&Ctx {
            quick: true,
            ..Default::default()
        });
        for line in report.lines().skip(4) {
            let cols: Vec<&str> = line.split_whitespace().collect();
            if cols.len() >= 9 {
                if let (Ok(lb), Ok(center)) = (cols[2].parse::<usize>(), cols[3].parse::<usize>()) {
                    assert!(center >= lb, "{line}");
                }
            }
        }
    }
}
