//! E4 — Lemma 4.1's sandwich between OPT and the k-minimum diameter sum.
//!
//! For each instance, compute the exact `dΠ* = min_Π d(Π)` (subset DP with
//! diameter costs) and the exact `OPT` (subset DP with ANON costs), then
//! audit three inequalities:
//!
//! * **lower** — `(k/2)·dΠ* ≤ OPT`: sound, expected to never fail;
//! * **printed upper** — `OPT ≤ (2k−1)·dΠ*`: the bound as printed in the
//!   paper. The `ANON(S) ≤ |S|·d(S)` step in its proof is refuted by a
//!   3-record counterexample (see `kanon_core::diameter`), so violations
//!   here are *expected* — this experiment quantifies how often the printed
//!   bound fails in the wild;
//! * **corrected upper** — `OPT ≤ (2k−1)·(2k−2)·dΠ*` (from
//!   `ANON(S) ≤ |S|·(|S|−1)·d(S)` via summed distances to a fixed member):
//!   sound for k ≥ 2, expected to never fail.

use crate::report::{self, Table};
use crate::Ctx;
use kanon_core::exact::{min_diameter_sum, subset_dp, SubsetDpConfig};
use kanon_core::Budget;
use kanon_workloads::uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs E4.
#[must_use]
pub fn run(ctx: &Ctx) -> String {
    let trials: u64 = if ctx.quick { 20 } else { 200 };
    let mut out = String::new();
    out.push_str("E4  Lemma 4.1 sandwich audit (exact dPi* and OPT)\n\n");
    let mut table = Table::new(&[
        "k",
        "trials",
        "lower viol",
        "printed-upper viol",
        "corrected-upper viol",
        "max OPT/dPi*",
    ]);

    for &k in &[2usize, 3] {
        let mut lower_viol = 0usize;
        let mut printed_viol = 0usize;
        let mut corrected_viol = 0usize;
        let mut max_ratio = 0.0f64;
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(ctx.seed ^ (0xE4 + t * 31 + k as u64));
            let ds = uniform(&mut rng, 9, 4, 3);
            let dsum = min_diameter_sum(&ds, k, &SubsetDpConfig::default(), &Budget::unlimited())
                .expect("n = 9 fits")
                .cost;
            let opt = subset_dp(&ds, k, &SubsetDpConfig::default(), &Budget::unlimited())
                .expect("n = 9 fits")
                .cost;
            // Lower: (k/2) dPi* <= OPT, i.e. k * dsum <= 2 * opt.
            if k * dsum > 2 * opt {
                lower_viol += 1;
            }
            if opt > (2 * k - 1) * dsum {
                printed_viol += 1;
            }
            if opt > (2 * k - 1) * (2 * k - 2) * dsum {
                corrected_viol += 1;
            }
            if dsum > 0 {
                max_ratio = max_ratio.max(opt as f64 / dsum as f64);
            }
        }
        table.row(vec![
            k.to_string(),
            trials.to_string(),
            lower_viol.to_string(),
            printed_viol.to_string(),
            corrected_viol.to_string(),
            report::f(max_ratio, 3),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nexpected: lower and corrected-upper violations are 0; printed-upper \
         violations may be positive (the paper's ANON(S) <= |S| d(S) step is \
         refuted by the counterexample rows 000/110/011 — see kanon-core docs).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sound_bounds_never_violated() {
        let report = run(&Ctx {
            quick: true,
            ..Default::default()
        });
        // Column order: k, trials, lower, printed, corrected, ratio.
        for line in report.lines().filter(|l| l.starts_with(['2', '3'])) {
            let cols: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(cols[2], "0", "lower bound violated: {line}");
            assert_eq!(cols[4], "0", "corrected upper bound violated: {line}");
        }
    }
}
