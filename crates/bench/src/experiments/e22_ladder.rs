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
//! * a memory cap of exactly the distance cache — too small for the full
//!   cover's candidate arena, roomy for the center greedy's `O(n)` scratch
//!   — must degrade to the center greedy;
//! * a memory cap below the distance cache itself — every rung fails and
//!   the structured budget error surfaces;
//! * the candidate cap plus a center-greedy row guard below `n` — both
//!   greedy rungs refuse, so the agglomerative rung must answer;
//! * a short wall-clock deadline — machine-dependent rung, reported for
//!   observability (the only non-deterministic row).
//!
//! Every successful row is additionally verified k-anonymous.

use std::time::Duration;

use crate::report::Table;
use crate::Ctx;
use kanon_baselines::ladder::{run_ladder, LadderConfig, Rung, RungOutcome};
use kanon_core::govern::Budget;
use kanon_core::greedy::CenterConfig;
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

    // The distance cache's planned allocation, in bytes: a cap of exactly
    // this admits the center greedy but never the full cover's arena.
    let cache_bytes = (n * (n - 1) / 2 * 4) as u64;

    // Configs are built per row (not up front) so the deadline row's clock
    // starts when its ladder run starts.
    fn with(budget: Budget) -> LadderConfig {
        LadderConfig {
            budget,
            ..Default::default()
        }
    }
    type MakeConfig = fn(u64, usize) -> LadderConfig;
    let rows: Vec<(&str, MakeConfig)> = vec![
        ("unlimited", |_, _| with(Budget::unlimited())),
        ("1k candidates", |_, _| {
            with(Budget::builder().max_candidates(1_000).build())
        }),
        ("memory: cache only", |cache, _| {
            with(Budget::builder().max_memory_bytes(cache).build())
        }),
        ("memory: below cache", |_, _| {
            with(Budget::builder().max_memory_bytes(64).build())
        }),
        ("1k cands, center guard", |_, n| LadderConfig {
            center: CenterConfig {
                max_rows: n - 1,
                ..Default::default()
            },
            ..with(Budget::builder().max_candidates(1_000).build())
        }),
        ("2 ms deadline", |_, _| {
            with(Budget::builder().deadline(Duration::from_millis(2)).build())
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

    for (label, make_config) in rows {
        match run_ladder(&ds, k, &make_config(cache_bytes, n)) {
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
                    "memory: cache only" => Some(Rung::CenterGreedy),
                    "1k cands, center guard" => Some(Rung::Agglomerative),
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
