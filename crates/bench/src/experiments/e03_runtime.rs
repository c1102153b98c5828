//! E3 — Theorem 4.2's runtime: `O(m·n² + n³)`.
//!
//! Times the center greedy across an `n` sweep (fixed `m`) and an `m`
//! sweep (fixed `n`), then fits log–log slopes. Expected shape: the `n`
//! sweep's slope lands between 2 and 3 (the `n³` term is the cover loop,
//! the `n²` term preprocessing; which dominates depends on how many greedy
//! rounds the workload forces), and the `m` sweep's slope is about 1 once
//! `m·n²` dominates.

use crate::report::{self, Table};
use crate::Ctx;
use kanon_core::algo;
use kanon_core::Budget;
use kanon_workloads::uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs E3.
#[must_use]
pub fn run(ctx: &Ctx) -> String {
    let mut out = String::new();
    out.push_str("E3  Theorem 4.2 runtime scaling, center greedy\n\n");
    let k = 5usize;

    // n sweep.
    let ns: &[usize] = if ctx.quick {
        &[100, 200]
    } else {
        &[100, 200, 400, 800, 1600]
    };
    let m_fixed = 16usize;
    let mut table = Table::new(&["sweep", "n", "m", "time", "cost"]);
    let mut n_points = Vec::new();
    for &n in ns {
        let mut rng = StdRng::seed_from_u64(ctx.seed ^ (0xE3 + n as u64));
        let ds = uniform(&mut rng, n, m_fixed, 4);
        let (cost, elapsed) = report::time(|| {
            algo::center_greedy(&ds, k, &Default::default(), &Budget::unlimited())
                .expect("within guards")
                .anonymization_cost(&ds)
        });
        n_points.push((n as f64, elapsed.as_secs_f64()));
        table.row(vec![
            "n".into(),
            n.to_string(),
            m_fixed.to_string(),
            report::dur(elapsed),
            cost.to_string(),
        ]);
    }

    // m sweep.
    let ms: &[usize] = if ctx.quick {
        &[8, 32]
    } else {
        &[8, 32, 128, 512]
    };
    let n_fixed = 300usize;
    let mut m_points = Vec::new();
    for &m in ms {
        let mut rng = StdRng::seed_from_u64(ctx.seed ^ (0xE3E3 + m as u64));
        let ds = uniform(&mut rng, n_fixed, m, 4);
        let (cost, elapsed) = report::time(|| {
            algo::center_greedy(&ds, k, &Default::default(), &Budget::unlimited())
                .expect("within guards")
                .anonymization_cost(&ds)
        });
        m_points.push((m as f64, elapsed.as_secs_f64()));
        table.row(vec![
            "m".into(),
            n_fixed.to_string(),
            m.to_string(),
            report::dur(elapsed),
            cost.to_string(),
        ]);
    }

    // Threads sweep: the distance-cache build and per-round center scan
    // both band across OS threads; report the wall-clock effect (expect
    // ~linear gains up to the core count, and an unchanged cost — the
    // deterministic tie-break makes thread count invisible in results).
    let n_threads_sweep = if ctx.quick { 200 } else { 800 };
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x0E37);
    let ds = uniform(&mut rng, n_threads_sweep, m_fixed, 4);
    let mut thread_cost = None;
    for threads in [1usize, 2, 4] {
        let config = kanon_core::greedy::CenterConfig {
            threads,
            ..Default::default()
        };
        let (cost, elapsed) = report::time(|| {
            algo::center_greedy(&ds, k, &config, &Budget::unlimited())
                .expect("within guards")
                .anonymization_cost(&ds)
        });
        assert_eq!(
            *thread_cost.get_or_insert(cost),
            cost,
            "thread count changed the result"
        );
        table.row(vec![
            format!("threads={threads}"),
            n_threads_sweep.to_string(),
            m_fixed.to_string(),
            report::dur(elapsed),
            cost.to_string(),
        ]);
    }

    out.push_str(&table.render());
    out.push_str(&format!(
        "\nlog-log slope in n: {} (theory: between 2 and 3)\n",
        report::f(report::loglog_slope(&n_points), 2)
    ));
    out.push_str(&format!(
        "log-log slope in m: {} (theory: approaches 1 as m*n^2 dominates)\n",
        report::f(report::loglog_slope(&m_points), 2)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_slopes() {
        let report = run(&Ctx {
            quick: true,
            ..Default::default()
        });
        assert!(report.contains("log-log slope in n"));
        assert!(report.contains("log-log slope in m"));
        assert!(report.contains("threads=4"));
    }
}
