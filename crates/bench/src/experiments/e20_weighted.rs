//! E20 — extension: entropy-weighted suppression.
//!
//! The paper's objective prices every star equally; `kanon-core::weighted`
//! prices a star by its column's Shannon entropy (how much information it
//! actually destroys). This experiment compares, on census microdata, the
//! unweighted pipeline (knn grouping + flat local search) against its
//! entropy-weighted twin (weighted grouping + weighted local search) on
//! both objectives at once. Expected shape: the weighted variant concedes
//! a few raw stars but retains more information (lower entropy-weighted
//! loss) — except near total suppression, where no objective can help.

use crate::report::{self, Table};
use crate::Ctx;
use kanon_baselines::knn_greedy;
use kanon_core::local_search::{improve, improve_weighted, LocalSearchConfig};
use kanon_core::rounding::suppressor_for_partition;
use kanon_core::stats::entropy_weighted_loss;
use kanon_core::weighted::{weighted_knn_greedy, ColumnWeights};
use kanon_core::Budget;
use kanon_workloads::{census_table, CensusParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs E20.
#[must_use]
pub fn run(ctx: &Ctx) -> String {
    let n = if ctx.quick { 60 } else { 200 };
    let ks: &[usize] = if ctx.quick { &[3] } else { &[2, 3, 5, 10] };
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xE20);
    let census = census_table(&mut rng, &CensusParams { n, regions: 6 });
    let (ds, _) = census.encode();
    let weights = ColumnWeights::entropy(&ds);

    let mut out = String::new();
    out.push_str("E20  entropy-weighted suppression vs the paper's flat objective\n\n");
    let mut table = Table::new(&[
        "k",
        "flat stars",
        "flat loss",
        "weighted stars",
        "weighted loss",
        "info saved",
    ]);
    let mut wins = 0usize;
    for &k in ks {
        // Flat pipeline: knn grouping + flat local search.
        let flat = knn_greedy(&ds, k, &Budget::unlimited()).expect("valid k");
        let flat = improve(
            &ds,
            &flat,
            k,
            &LocalSearchConfig::default(),
            &Budget::unlimited(),
        )
        .expect("valid partition")
        .partition;
        let flat_s = suppressor_for_partition(&ds, &flat).expect("valid");
        let flat_loss = entropy_weighted_loss(&ds, &flat_s);

        // Weighted pipeline: weighted grouping + weighted local search.
        let weighted = weighted_knn_greedy(&ds, &weights, k).expect("valid k");
        let (weighted, _, _) =
            improve_weighted(&ds, &weighted, k, &weights, &LocalSearchConfig::default())
                .expect("valid partition");
        let weighted_s = suppressor_for_partition(&ds, &weighted).expect("valid");
        let weighted_loss = entropy_weighted_loss(&ds, &weighted_s);

        if weighted_loss <= flat_loss {
            wins += 1;
        }
        table.row(vec![
            k.to_string(),
            flat_s.cost().to_string(),
            report::f(flat_loss, 3),
            weighted_s.cost().to_string(),
            report::f(weighted_loss, 3),
            format!(
                "{:+.1}%",
                100.0 * (flat_loss - weighted_loss) / flat_loss.max(1e-12)
            ),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nn = {n}, m = 8 census columns; both released tables are verified \
         k-anonymous. weighted wins on entropy loss in {wins}/{} settings.\n",
        ks.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_variants_run_and_report() {
        let report = run(&Ctx {
            quick: true,
            ..Default::default()
        });
        assert!(report.contains("weighted wins"), "{report}");
    }
}
