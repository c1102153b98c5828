//! E11 — ablations on the center-greedy pipeline's design choices.
//!
//! Two knobs DESIGN.md calls out:
//!
//! * **zero-radius balls** — the paper's candidate family starts at radius
//!   1; admitting radius-0 balls (exact duplicates) is free and should help
//!   on duplicate-heavy data while never hurting;
//! * **block splitting** — converting post-`Reduce` blocks of size ≥ 2k
//!   into `[k, 2k−1]` pieces (§4.1 says splitting never increases cost).
//!
//! The table reports rounded suppression cost per configuration on three
//! workload families.

use crate::report::Table;
use crate::Ctx;
use kanon_core::greedy::{center_greedy_cover, reduce, CenterConfig};
use kanon_core::Budget;
use kanon_core::Dataset;
use kanon_workloads::{clustered, uniform, zipf, ClusteredParams, ZipfParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn pipeline_cost(ds: &Dataset, k: usize, zero_radius: bool, split: bool) -> usize {
    let config = CenterConfig {
        include_zero_radius: zero_radius,
        ..Default::default()
    };
    let cover = match center_greedy_cover(ds, k, &config, None, &Budget::unlimited()) {
        Ok(c) => c,
        Err(_) => return usize::MAX, // all-duplicate data with zero-radius off
    };
    let p = reduce(&cover, k).expect("cover is valid");
    let p = if split { p.split_large(k) } else { p };
    p.anonymization_cost(ds)
}

/// Runs E11.
#[must_use]
pub fn run(ctx: &Ctx) -> String {
    let n = if ctx.quick { 60 } else { 200 };
    let k = 4usize;
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xE11);

    // Duplicate-heavy: zipf with a small alphabet produces many repeats.
    let dup_heavy = zipf(
        &mut rng,
        &ZipfParams {
            n,
            m: 4,
            alphabet: 3,
            exponent: 1.5,
        },
    );
    let spread = uniform(&mut rng, n, 8, 6);
    let planted = clustered(
        &mut rng,
        &ClusteredParams {
            n_clusters: n / 8,
            cluster_size: 8, // blocks of 2k, so splitting has something to do
            m: 8,
            scatter: 1,
            values_per_cluster: 4,
        },
    )
    .dataset;

    let mut out = String::new();
    out.push_str("E11  ablations: zero-radius balls and block splitting (k = 4)\n\n");
    let mut table = Table::new(&[
        "workload",
        "zero+split",
        "zero only",
        "split only",
        "neither",
    ]);
    let mut regressions = 0usize;
    for (name, ds) in [
        ("dup-heavy zipf", &dup_heavy),
        ("uniform", &spread),
        ("planted 2k-clusters", &planted),
    ] {
        let full = pipeline_cost(ds, k, true, true);
        let no_split = pipeline_cost(ds, k, true, false);
        let no_zero = pipeline_cost(ds, k, false, true);
        let neither = pipeline_cost(ds, k, false, false);
        // Splitting must never increase cost (§4.1).
        if full > no_split || no_zero > neither {
            regressions += 1;
        }
        let render = |c: usize| {
            if c == usize::MAX {
                "n/a".to_string()
            } else {
                c.to_string()
            }
        };
        table.row(vec![
            name.into(),
            render(full),
            render(no_split),
            render(no_zero),
            render(neither),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nsplitting-regressions: {regressions} (expected 0; splitting never hurts). \
         Zero-radius balls matter on duplicate-heavy data and are neutral elsewhere.\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitting_never_regresses_in_quick_run() {
        let report = run(&Ctx {
            quick: true,
            ..Default::default()
        });
        assert!(report.contains("splitting-regressions: 0"), "{report}");
    }
}
