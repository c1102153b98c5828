//! E9 — the paper's closing remark: the center greedy "will probably be
//! best applied in cases with high-dimensional records" (`m ≫ log n`,
//! where Sweeney's exact algorithm — exponential in `m` — is out of reach).
//!
//! Sweeps `m` upward at fixed `n` and contrasts the center greedy with the
//! baselines on cost (normalized per cell) and time, plus the pattern-based
//! exact engine at the single low-`m` point where it is feasible — showing
//! exactly where the exact-method regime ends and the greedy regime begins.

use crate::report::{self, Table};
use crate::Ctx;
use kanon_baselines::{knn_greedy, mondrian};
use kanon_core::algo;
use kanon_core::exact::{pattern_bb, PatternConfig};
use kanon_core::Budget;
use kanon_workloads::{clustered, ClusteredParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs E9.
#[must_use]
pub fn run(ctx: &Ctx) -> String {
    let k = 5usize;
    let n = if ctx.quick { 50 } else { 200 };
    let ms: &[usize] = if ctx.quick {
        &[8, 32]
    } else {
        &[8, 32, 128, 512]
    };
    let mut out = String::new();
    out.push_str("E9  high-dimensional records: cost per cell and time vs m\n\n");
    let mut table = Table::new(&[
        "m",
        "center cost/cell",
        "center time",
        "knn cost/cell",
        "mondrian cost/cell",
        "exact(m<=12,n<=32)",
    ]);

    for &m in ms {
        let mut rng = StdRng::seed_from_u64(ctx.seed ^ (0xE9 + m as u64));
        let inst = clustered(
            &mut rng,
            &ClusteredParams {
                n_clusters: n / k,
                cluster_size: k,
                m,
                scatter: (m / 8).max(1),
                values_per_cluster: 3,
            },
        );
        let ds = &inst.dataset;
        let cells = (ds.n_rows() * ds.n_cols()) as f64;
        let (center, center_time) = report::time(|| {
            algo::center_greedy(ds, k, &Default::default(), &Budget::unlimited())
                .expect("within guards")
                .anonymization_cost(ds)
        });
        let knn = knn_greedy(ds, k, &Budget::unlimited())
            .expect("valid k")
            .anonymization_cost(ds);
        let mon = mondrian(ds, k, &Budget::unlimited())
            .expect("valid k")
            .anonymization_cost(ds);
        // The exact pattern engine only reaches tiny slices; run it on a
        // 20-row prefix at m = 8 to mark the feasibility frontier.
        let exact_note = if m <= 12 {
            let prefix: Vec<usize> = (0..20.min(ds.n_rows())).collect();
            let small = ds.select_rows(&prefix).expect("rows in range");
            let budget = PatternConfig {
                max_nodes: 2_000_000,
                ..Default::default()
            };
            match pattern_bb(&small, k, &budget, &Budget::unlimited()) {
                Ok(opt) => format!("cost {} on 20-row slice", opt.cost),
                Err(_) => "infeasible".to_string(),
            }
        } else {
            "out of reach (2^m cells)".to_string()
        };
        table.row(vec![
            m.to_string(),
            report::f(center as f64 / cells, 4),
            report::dur(center_time),
            report::f(knn as f64 / cells, 4),
            report::f(mon as f64 / cells, 4),
            exact_note,
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nn = {n}, k = {k}, planted clusters with scatter scaled to m/8.\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_covers_both_regimes() {
        let report = run(&Ctx {
            quick: true,
            ..Default::default()
        });
        assert!(
            report.contains("row slice") || report.contains("infeasible"),
            "{report}"
        );
        assert!(report.contains("out of reach"), "{report}");
    }
}
