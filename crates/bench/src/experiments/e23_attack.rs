//! E23 — extension: what the privacy knobs buy against the attacker.
//!
//! The paper motivates k-anonymity with the linkage attack (§1) and E17
//! shows k-anonymization zeroes unique re-identification. This experiment
//! closes the loop for the *richer* models: one skewed workload is
//! released under a ladder of settings — k tightening alone, then
//! l-diversity and t-closeness tightening at fixed k — and every release
//! is attacked with the linkage joiner. The headline number is **expected
//! attacker success** (mean `1/|candidates|` over attacked rows): unlike
//! the unique-match count, which any correct k ≥ 2 release pins to zero,
//! it keeps discriminating — block sizes in `[k, 2k−1]` confine it to
//! `[1/(2k−1), 1/k]`, disjoint ranges along the k ladder, and the l/t
//! repairs push it lower still by merging blocks. Information loss (the
//! suppression rate over quasi-identifier cells) sits on the same row, so
//! privacy bought and utility paid read off one table.
//!
//! `bench_attack --gate` is the CI-enforced version of this sweep: same
//! ladders, hard failures on any non-decreasing step, written to
//! `BENCH_attack.json`.

use crate::Ctx;
use kanon_pipeline::{attack_tables, run_csv_private_with_progress, PipelineConfig};
use kanon_privacy::PrivacyModel;
use kanon_relation::linkage_attack;
use kanon_workloads::{write_zipf_csv, ZipfParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::Table;

/// Runs E23.
#[must_use]
pub fn run(ctx: &Ctx) -> String {
    let rows = if ctx.quick { 1_500 } else { 10_000 };
    // The sweep: k alone, then l / t at fixed k. Quick mode trims the
    // most merge-heavy rungs to stay inside the CI smoke budget.
    let rungs: &[(&str, usize, &str)] = if ctx.quick {
        &[
            ("k=1", 1, "k"),
            ("k=2", 2, "k"),
            ("k=5", 5, "k"),
            ("k=5,l=2", 5, "l=2"),
            ("k=5,t=0.4", 5, "t=0.4"),
        ]
    } else {
        &[
            ("k=1", 1, "k"),
            ("k=2", 2, "k"),
            ("k=5", 5, "k"),
            ("k=10", 10, "k"),
            ("k=5,l=2", 5, "l=2"),
            ("k=5,l=4", 5, "l=4"),
            ("k=5,t=0.4", 5, "t=0.4"),
            ("k=5,t=0.2", 5, "t=0.2"),
        ]
    };

    // Small alphabet + strong skew keep duplicate mass in the
    // quasi-identifier (suppression stays partial, so the k rungs
    // separate) while the dominant sensitive value leaves the l/t rungs
    // real violations to repair. c0..c3 quasi, c4 sensitive.
    let params = ZipfParams {
        n: rows,
        m: 5,
        alphabet: 6,
        exponent: 1.6,
    };
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xE23);
    let mut csv = Vec::new();
    write_zipf_csv(&mut rng, &params, &mut csv).expect("in-memory write");
    let n_quasi = params.m - 1;
    let names: Vec<String> = (0..n_quasi).map(|j| format!("c{j}")).collect();
    let pairs: Vec<(&str, &str)> = names.iter().map(|n| (n.as_str(), n.as_str())).collect();

    let mut out = String::new();
    out.push_str("E23  linkage attack vs privacy setting (zipf, c4 sensitive)\n\n");
    let mut table = Table::new(&[
        "setting",
        "expected success",
        "mean candidates",
        "re-identified",
        "info loss",
        "merges",
        "verified",
    ]);
    let mut successes: Vec<(&str, f64)> = Vec::new();
    for &(label, k, spec) in rungs {
        let model = PrivacyModel::parse(spec).expect("rung specs are valid");
        let run = run_csv_private_with_progress(
            csv.as_slice(),
            k,
            None,
            Some("c4"),
            model,
            &PipelineConfig::default(),
            &|_| {},
        )
        .expect("sweep rung completes");
        assert!(run.anonymization.table.is_k_anonymous(k), "{label}");
        let (released, external) = attack_tables(&run, usize::MAX).expect("attack tables");
        let report = linkage_attack(&released, &external, &pairs).expect("attack runs");
        let loss = run.anonymization.cost as f64 / (rows * n_quasi) as f64;
        let (merges, verified) = match run.report.privacy.as_deref() {
            Some(p) => (p.merges, if p.verified { "yes" } else { "NO" }),
            None => (0, "-"),
        };
        successes.push((label, report.expected_success));
        table.row(vec![
            label.to_string(),
            format!("{:.6}", report.expected_success),
            format!("{:.1}", report.mean_candidates),
            format!("{}/{rows}", report.unique_matches),
            format!("{:.4}", loss),
            merges.to_string(),
            verified.to_string(),
        ]);
    }
    out.push_str(&table.render());

    // The monotonicity audit the bench gates on: within each ladder,
    // expected success must strictly fall.
    let ladders: &[&[&str]] = &[
        &["k=1", "k=2", "k=5", "k=10"],
        &["k=5", "k=5,l=2", "k=5,l=4"],
        &["k=5", "k=5,t=0.4", "k=5,t=0.2"],
    ];
    let mut monotone_violations = 0usize;
    for ladder in ladders {
        let series: Vec<f64> = ladder
            .iter()
            .filter_map(|l| successes.iter().find(|(s, _)| s == l).map(|(_, v)| *v))
            .collect();
        monotone_violations += series.windows(2).filter(|w| w[1] >= w[0]).count();
    }
    out.push_str(&format!(
        "\nn = {rows}; non-decreasing ladder steps: {monotone_violations} (expected 0). \
         Every privacy knob buys measured protection, priced on the same \
         [0,1] information-loss axis.\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_success_falls_as_knobs_tighten() {
        let report = run(&Ctx {
            quick: true,
            ..Default::default()
        });
        assert!(
            report.contains("non-decreasing ladder steps: 0"),
            "{report}"
        );
    }
}
