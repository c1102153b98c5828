//! E22 — robustness extension: the resource-governed degradation ladder.
//!
//! The paper ranks its algorithms by guarantee (Thm 4.1's `3k(1+ln k)`
//! beats Thm 4.2's `6k(1+ln m)`) and by cost (the former is exponential in
//! `k`, the latter strongly polynomial). The ladder operationalizes that
//! ranking: given a budget it answers with the best-guarantee algorithm
//! that can afford the instance, falling back to the center greedy and
//! finally the agglomerative heuristic. This experiment audits the ladder
//! on one fixed-seed instance across budget regimes:
//!
//! * unlimited — the top rung must answer, byte-identical to the Thm 4.1
//!   pipeline;
//! * a candidate cap below the full cover's `Σ C(n, k..2k-1)` — must
//!   degrade to the center greedy, never error;
//! * a memory cap sized between the distance cache and the center greedy's
//!   order tables — must degrade to the agglomerative rung;
//! * a memory cap below the distance cache itself — every rung fails and
//!   the structured budget error surfaces;
//! * a short wall-clock deadline — machine-dependent rung, reported for
//!   observability (the only non-deterministic row).
//!
//! Every successful row is additionally verified k-anonymous.

use std::time::Duration;

use crate::report::Table;
use crate::Ctx;
use kanon_baselines::ladder::{run_ladder, LadderConfig, Rung, RungOutcome};
use kanon_core::govern::Budget;
use kanon_core::{algo, Algorithm};
use kanon_workloads::uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs E22.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run(ctx: &Ctx) -> String {
    let n: usize = if ctx.quick { 20 } else { 32 };
    let m: usize = 4;
    let k: usize = 3;
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xE22);
    let ds = uniform(&mut rng, n, m, 3);

    // Planned-allocation sizes the governed solvers charge, in bytes; used
    // to pick caps that deterministically admit some rungs and not others.
    let cache_bytes = (n * (n - 1) / 2 * 4) as u64;
    let center_extra = (n * n * 4 + n * 24) as u64;

    // Budgets are built per row (not up front) so the deadline row's clock
    // starts when its ladder run starts.
    type MakeBudget = fn(u64, u64) -> Budget;
    let budgets: Vec<(&str, MakeBudget)> = vec![
        ("unlimited", |_, _| Budget::unlimited()),
        ("1k candidates", |_, _| {
            Budget::builder().max_candidates(1_000).build()
        }),
        ("memory: cache only", |cache, extra| {
            Budget::builder()
                .max_memory_bytes(cache + extra / 2)
                .build()
        }),
        ("memory: below cache", |_, _| {
            Budget::builder().max_memory_bytes(64).build()
        }),
        ("2 ms deadline", |_, _| {
            Budget::builder().deadline(Duration::from_millis(2)).build()
        }),
    ];

    let mut out = String::new();
    out.push_str(&format!(
        "E22  degradation ladder: best affordable guarantee (n = {n}, m = {m}, k = {k})\n\n"
    ));
    let mut table = Table::new(&[
        "budget",
        "rung",
        "guarantee",
        "cost",
        "attempts",
        "k-anonymous",
    ]);
    let mut deterministic_violations = 0usize;

    for (label, make_budget) in budgets {
        let config = LadderConfig {
            budget: make_budget(cache_bytes, center_extra),
            ..Default::default()
        };
        match run_ladder(&ds, k, &config) {
            Ok((partition, report)) => {
                let anon = algo::anonymization_from_partition(
                    &ds,
                    partition,
                    k,
                    Algorithm::External("ladder"),
                )
                .expect("a rung's partition rounds");
                let attempts: Vec<String> = report
                    .attempts
                    .iter()
                    .map(|a| {
                        let tag = match a.outcome {
                            RungOutcome::Succeeded { .. } => "ok",
                            RungOutcome::Failed { .. } => "fail",
                        };
                        format!("{}:{tag}", a.rung)
                    })
                    .collect();
                table.row(vec![
                    label.to_string(),
                    report.rung.to_string(),
                    report.guarantee.to_string(),
                    anon.cost.to_string(),
                    attempts.join(" "),
                    anon.table.is_k_anonymous(k).to_string(),
                ]);
                let expected = match label {
                    "unlimited" => Some(Rung::FullGreedyCover),
                    "1k candidates" => Some(Rung::CenterGreedy),
                    "memory: cache only" => Some(Rung::Agglomerative),
                    _ => None,
                };
                if let Some(want) = expected {
                    if report.rung != want || !anon.table.is_k_anonymous(k) {
                        deterministic_violations += 1;
                    }
                }
            }
            Err(err) => {
                table.row(vec![
                    label.to_string(),
                    "(none)".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    format!("error: {err}"),
                    "-".to_string(),
                ]);
                if label != "memory: below cache" && label != "2 ms deadline" {
                    deterministic_violations += 1;
                }
            }
        }
    }

    out.push_str(&table.render());
    out.push_str(&format!(
        "\ndeterministic-row violations: {deterministic_violations} (expected 0; \
         the deadline row is machine-dependent and unchecked)\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_rows_behave() {
        let report = run(&Ctx {
            quick: true,
            ..Default::default()
        });
        assert!(
            report.contains("deterministic-row violations: 0"),
            "{report}"
        );
        assert!(report.contains("full-greedy-cover"), "{report}");
        assert!(report.contains("agglomerative"), "{report}");
    }
}
