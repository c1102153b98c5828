//! E21 — extension: the price of l-diversity on top of k-anonymity.
//!
//! k-anonymity (the paper's notion) leaves attribute disclosure open: a
//! group whose members all share one sensitive value leaks it without
//! identifying anyone. This experiment anonymizes census quasi-identifiers
//! at several k, designates `occupation` as the sensitive attribute, counts
//! how many k-groups are *not* 2/3-diverse, and measures the extra
//! suppression the greedy diversity repair costs. The punchline: the
//! follow-up privacy notions are not free, and their price shows up in the
//! same suppression currency the paper optimizes.

use crate::report::{self, Table};
use crate::Ctx;
use kanon_baselines::knn_greedy;
use kanon_core::Budget;
use kanon_privacy::{diversity_violations, enforce_l_diversity, is_l_diverse};
use kanon_workloads::{census_table, CensusParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs E21.
#[must_use]
pub fn run(ctx: &Ctx) -> String {
    let n = if ctx.quick { 60 } else { 200 };
    let ks: &[usize] = if ctx.quick { &[3] } else { &[2, 3, 5] };
    let ls: &[usize] = &[2, 3];
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xE21);
    let census = census_table(&mut rng, &CensusParams { n, regions: 6 });

    // Quasi-identifiers: everything except occupation (the sensitive value).
    let occupation_idx = census
        .schema()
        .index_of("occupation")
        .expect("known column");
    let (full_ds, _) = census.encode();
    let qi_cols: Vec<usize> = (0..full_ds.n_cols())
        .filter(|&j| j != occupation_idx)
        .collect();
    let ds = full_ds.project_columns(&qi_cols).expect("columns in range");
    let sensitive: Vec<u32> = (0..full_ds.n_rows())
        .map(|i| full_ds.get(i, occupation_idx))
        .collect();

    let mut out = String::new();
    out.push_str("E21  l-diversity on top of k-anonymity (sensitive = occupation)\n\n");
    let mut table = Table::new(&[
        "k",
        "l",
        "violating groups",
        "merges",
        "stars before",
        "stars after",
        "extra cost",
    ]);
    let mut failures = 0usize;
    for &k in ks {
        let partition = knn_greedy(&ds, k, &Budget::unlimited()).expect("valid k");
        for &l in ls {
            let violations =
                diversity_violations(&partition, &sensitive, l).expect("arity matches");
            let repaired = enforce_l_diversity(&ds, &partition, &sensitive, l)
                .expect("enough distinct occupations");
            if !is_l_diverse(&repaired.partition, &sensitive, l).expect("arity matches") {
                failures += 1;
            }
            let extra = repaired.cost_after.saturating_sub(repaired.cost_before);
            table.row(vec![
                k.to_string(),
                l.to_string(),
                format!("{}/{}", violations.len(), partition.n_blocks()),
                repaired.merges.to_string(),
                repaired.cost_before.to_string(),
                repaired.cost_after.to_string(),
                format!(
                    "+{}",
                    report::f(100.0 * extra as f64 / repaired.cost_before.max(1) as f64, 1)
                ) + "%",
            ]);
        }
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nn = {n}; repair failures: {failures} (expected 0). Diversity is paid \
         for in the paper's own objective: extra suppressed cells.\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repairs_always_succeed() {
        let report = run(&Ctx {
            quick: true,
            ..Default::default()
        });
        assert!(report.contains("repair failures: 0"), "{report}");
    }
}
