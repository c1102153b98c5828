//! The schema-driven auto path: the generalization rung on top of the
//! degradation ladder.
//!
//! When the caller gives no quasi-identifier list, the pipeline probes the
//! raw bytes with `kanon-schema`, infers per-column types and a ranked
//! quasi-identifier suggestion, auto-derives a
//! [`kanon_relation::Hierarchy`] per column, and attempts **full-domain
//! generalization** ([`GeneralizationLattice::search_minimal`])
//! on the quasi projection under half the remaining budget. Generalization
//! sits above the suppression ladder ([`kanon_baselines::ladder::Rung`]),
//! run here rather than per shard because full-domain levels must be
//! uniform across the table: it coarsens *every* row the same way instead
//! of suppressing cells, so
//! when it reaches `k` its information loss (Samarati precision) is
//! usually far below the suppression fraction. When the lattice has no
//! `k`-anonymous node, or the budget slice trips first, the run falls
//! through to the ordinary sharded suppression pipeline — the same
//! recoverable-degradation contract the suppression rungs keep among
//! themselves.
//!
//! The winning node is **re-verified** with
//! [`GeneralizationLattice::is_k_anonymous`] before anything is released;
//! the search result is never trusted on its own.

use std::io::{self, Read};
use std::time::Instant;

use kanon_core::{Anonymization, Dataset};
use kanon_relation::{Codec, GeneralizationLattice, Hierarchy, Schema, Table};
use kanon_schema::{infer_bytes, read_sample, InferredSchema};

use crate::config::PipelineConfig;
use crate::error::{Error, Result};
use crate::report::{GeneralizationReport, PipelineReport};

/// Options for [`run_csv_auto`].
#[derive(Clone, Debug, Default)]
pub struct AutoConfig {
    /// JSON hierarchy overrides (`{"column": spec, ...}`) layered over the
    /// auto-derived hierarchies; `None` derives everything from the schema.
    pub overrides: Option<String>,
    /// When the generalization rung wins, also run the suppression pipeline
    /// on the same projection and record its cost side by side in the
    /// report — the generalization-vs-suppression comparison the CI gate
    /// checks. Costs a second solve; off by default.
    pub compare: bool,
}

/// How the auto run anonymized the table.
pub enum AutoOutcome {
    /// The generalization rung reached `k`: every quasi cell is rendered
    /// through its hierarchy at the winning node's level.
    Generalized(Generalized),
    /// The lattice had no `k`-anonymous node (or its budget slice tripped);
    /// the run fell through to the sharded suppression pipeline.
    Suppressed {
        /// The suppression anonymization of the quasi projection.
        anonymization: Anonymization,
        /// Why generalization did not answer, for the CLI's notes line.
        reason: String,
    },
}

/// The generalization rung's answer: the winning lattice node plus a
/// rendered dictionary for streaming the release.
pub struct Generalized {
    /// Generalization level per quasi column (lattice node coordinates).
    pub levels: Vec<usize>,
    /// Samarati precision loss of the node: mean of `level_j / height_j`.
    pub precision_loss: f64,
    /// Per quasi position, the generalized rendering of every dictionary
    /// code: `rendered[pos][code]` replaces `codec.value(quasi[pos], code)`.
    pub rendered: Vec<Vec<String>>,
}

/// Everything [`run_csv_auto`] produced: the encoded table, the inferred
/// schema that drove it, and whichever rung answered.
pub struct AutoRun {
    /// The full encoded input table (all columns).
    pub dataset: Dataset,
    /// Dictionary codec for decoding values back to strings.
    pub codec: Codec,
    /// Column indices (into `dataset`) treated as the quasi-identifier —
    /// the schema's ranked suggestion, in table order.
    pub quasi: Vec<usize>,
    /// The inferred schema (delimiter, column profiles, suggestion).
    pub schema: InferredSchema,
    /// Which rung answered, with its artifacts.
    pub outcome: AutoOutcome,
    /// The run report; `report.generalization` is `Some` exactly when the
    /// outcome is [`AutoOutcome::Generalized`].
    pub report: PipelineReport,
}

impl AutoRun {
    /// Streams the released table to `w` — generalized quasi cells when the
    /// lattice answered, `*`-starred cells when suppression did.
    ///
    /// # Errors
    /// I/O errors from `w`.
    pub fn write_release(&self, w: impl io::Write) -> io::Result<()> {
        match &self.outcome {
            AutoOutcome::Generalized(g) => crate::release::write_generalized_release(
                &self.dataset,
                &self.codec,
                &self.quasi,
                &g.rendered,
                w,
            ),
            AutoOutcome::Suppressed { anonymization, .. } => crate::release::write_release(
                &self.dataset,
                &self.codec,
                &self.quasi,
                &anonymization.suppressor,
                w,
            ),
        }
    }
}

/// End-to-end schema-driven run: probe the delimiter, infer the schema,
/// ingest with the detected delimiter, pick the quasi-identifier from the
/// ranked suggestion, and try the generalization rung before falling
/// through to sharded suppression.
///
/// # Errors
/// Schema inference errors ([`Error::Schema`]), ingestion errors, hierarchy
/// override problems, and every [`crate::engine::run_pipeline`] error from
/// the suppression fall-through. A budget trip inside the generalization
/// slice is *not* an error — it degrades to suppression; a trip of the
/// whole budget during suppression still surfaces.
pub fn run_csv_auto<R: io::Read>(
    mut reader: R,
    k: usize,
    config: &PipelineConfig,
    auto: &AutoConfig,
) -> Result<AutoRun> {
    let started = Instant::now();
    let sample = read_sample(&mut reader)?;
    let truncated = sample.len() == kanon_schema::probe::SAMPLE_BYTES;
    let schema = infer_bytes(&sample, truncated, kanon_schema::infer::DEFAULT_SAMPLE_ROWS)?;
    let hierarchies = kanon_schema::derive_hierarchies(&schema, auto.overrides.as_deref())?;

    // The sample was consumed from the stream; stitch it back in front so
    // ingestion sees the whole file.
    let (dataset, codec) = crate::ingest::ingest_csv_with_delimiter(
        io::Cursor::new(sample).chain(reader),
        schema.delimiter,
    )?;

    // Quasi-identifier: the schema's ranked suggestion mapped to header
    // positions, kept in table order. Every column when the suggestion is
    // empty (constant columns everywhere — nothing identifies, but the
    // contract still demands a k-anonymous release).
    let suggested = schema.quasi_suggestion();
    let mut quasi: Vec<usize> = suggested
        .iter()
        .filter_map(|name| codec.header().iter().position(|h| h == name))
        .collect();
    quasi.sort_unstable();
    if quasi.is_empty() {
        quasi = (0..codec.arity()).collect();
    }
    // One hierarchy per quasi column, aligned by name (schema column order
    // and header order agree — both come from the same header record).
    let qi_hierarchies: Vec<Hierarchy> = quasi
        .iter()
        .map(|&j| {
            let name = &codec.header()[j];
            schema
                .columns
                .iter()
                .position(|c| &c.name == name)
                .map_or(Hierarchy::SuppressOnly, |i| hierarchies[i].clone())
        })
        .collect();

    // The generalization rung gets half the remaining wall clock (memory
    // and candidate caps are inherited); suppression keeps the rest, so a
    // hopeless lattice can never starve the fall-through.
    let slice = config
        .budget
        .child(config.budget.remaining().map(|r| r / 2));
    let attempt = match try_generalize(&dataset, &codec, &quasi, &qi_hierarchies, k, &slice) {
        Ok(Some(gen)) => Ok(gen),
        Ok(None) => Err("no k-anonymous node in the generalization lattice".to_string()),
        Err(e) if budget_tripped(&e) => Err(format!("generalization budget slice tripped: {e}")),
        Err(e) => return Err(e),
    };
    // Sharded suppression on the quasi projection, read in place.
    let suppress = || crate::engine::run_columns(&dataset, &quasi, k, config, &|_| {});
    let (outcome, report) = match attempt {
        Ok(gen) => {
            let (suppression_cost, suppression_loss) = if auto.compare {
                let (anon, rep) = suppress()?;
                let cells = rep.n_rows * rep.n_cols;
                (
                    Some(anon.cost),
                    Some(if cells == 0 {
                        0.0
                    } else {
                        anon.cost as f64 / cells as f64
                    }),
                )
            } else {
                (None, None)
            };
            let report = PipelineReport {
                n_rows: dataset.n_rows(),
                n_cols: quasi.len(),
                k,
                shard_size: config.shard_size,
                strategy: config.strategy.name(),
                workers: 1,
                shards: Vec::new(),
                residue_rows: 0,
                total_cost: 0,
                elapsed: started.elapsed(),
                generalization: Some(Box::new(GeneralizationReport {
                    columns: quasi.iter().map(|&j| codec.header()[j].clone()).collect(),
                    levels: gen.levels.clone(),
                    heights: qi_hierarchies.iter().map(Hierarchy::height).collect(),
                    precision_loss: gen.precision_loss,
                    suppression_cost,
                    suppression_loss,
                })),
                privacy: None,
            };
            (AutoOutcome::Generalized(gen), report)
        }
        Err(reason) => {
            let (anonymization, mut report) = suppress()?;
            report.elapsed = started.elapsed();
            (
                AutoOutcome::Suppressed {
                    anonymization,
                    reason,
                },
                report,
            )
        }
    };

    Ok(AutoRun {
        dataset,
        codec,
        quasi,
        schema,
        outcome,
        report,
    })
}

/// Attempts the generalization rung on the quasi projection.
///
/// Decodes the projection back to strings (the lattice works on rendered
/// values, not dictionary codes), searches the lattice for the minimal
/// `k`-anonymous node under `budget`, re-verifies the winner with the
/// independent checker, and builds the per-column rendered dictionary the
/// release writer streams through.
///
/// Returns `Ok(None)` when the lattice has no `k`-anonymous node — the
/// caller's cue to degrade to suppression.
///
/// # Errors
/// Budget trips from the governed search (the caller treats these as
/// recoverable), hierarchy application errors, and codec lookups.
pub fn try_generalize(
    dataset: &Dataset,
    codec: &Codec,
    quasi: &[usize],
    hierarchies: &[Hierarchy],
    k: usize,
    budget: &kanon_core::govern::Budget,
) -> Result<Option<Generalized>> {
    let names: Vec<String> = quasi.iter().map(|&j| codec.header()[j].clone()).collect();
    let qi_schema = Schema::new(names).map_err(Error::Relation)?;
    let mut rows = Vec::with_capacity(dataset.n_rows());
    for i in 0..dataset.n_rows() {
        let row: kanon_relation::Result<Vec<String>> = quasi
            .iter()
            .map(|&j| codec.value(j, dataset.get(i, j)).map(str::to_string))
            .collect();
        rows.push(row.map_err(Error::Relation)?);
    }
    let table = Table::with_rows(qi_schema, rows).map_err(Error::Relation)?;
    let lattice = GeneralizationLattice::new(&table, hierarchies.to_vec())?;
    let Some(node) = lattice.search_minimal(k, budget)? else {
        return Ok(None);
    };
    // Belt and braces: the released node must pass the checker on its own,
    // independent of the search that produced it. A failure here is a
    // lattice bug; degrading to suppression keeps the release sound.
    if !lattice.is_k_anonymous(&node, k)? {
        debug_assert!(false, "search_minimal returned a non-k-anonymous node");
        return Ok(None);
    }
    let precision_loss = lattice.precision_loss(&node)?;
    let mut rendered = Vec::with_capacity(quasi.len());
    for (pos, &j) in quasi.iter().enumerate() {
        let level = node.levels[pos];
        let col: kanon_relation::Result<Vec<String>> = codec
            .column_values(j)
            .iter()
            .map(|v| hierarchies[pos].generalize(v, level))
            .collect();
        rendered.push(col.map_err(Error::Relation)?);
    }
    Ok(Some(Generalized {
        levels: node.levels,
        precision_loss,
        rendered,
    }))
}

/// True for the budget-trip errors the ladder contract treats as
/// recoverable degradation rather than failure.
fn budget_tripped(e: &Error) -> bool {
    matches!(
        e,
        Error::Core(kanon_core::Error::BudgetExceeded { .. })
            | Error::Relation(kanon_relation::Error::Core(
                kanon_core::Error::BudgetExceeded { .. }
            ))
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use kanon_core::govern::{Budget, Resource};

    // Semicolon-delimited, mixed types, injected nulls, no quasi list —
    // the messy shape the auto path exists for. Ages pair up inside
    // decades, so the derived width-10 interval ladder reaches k=2 at
    // level 1 while suppression must star every distinct age cell.
    const MESSY: &str = "age;zip;note\n\
                         31;90210;cats\n\
                         35;90210;cats\n\
                         42;90211;dogs\n\
                         47;90211;dogs\n\
                         53;90210;cats\n\
                         58;90210;cats\n\
                         N/A;90211;dogs\n\
                         N/A;90211;dogs\n";

    #[test]
    fn auto_path_generalizes_the_messy_csv() {
        let run = run_csv_auto(
            MESSY.as_bytes(),
            2,
            &PipelineConfig::default(),
            &AutoConfig {
                overrides: None,
                compare: true,
            },
        )
        .unwrap();
        assert_eq!(run.schema.delimiter, b';');
        let gen_report = run.report.generalization.as_ref().expect("lattice answers");
        match &run.outcome {
            AutoOutcome::Generalized(g) => {
                assert!(g.precision_loss < 1.0, "not everything was suppressed");
                assert_eq!(g.levels.len(), run.quasi.len());
                // The CI gate's core claim: generalization beats
                // suppression on information loss for this shape.
                let supp = gen_report.suppression_loss.expect("compare ran");
                assert!(
                    run.report.information_loss() < supp,
                    "generalization {} !< suppression {}",
                    run.report.information_loss(),
                    supp
                );
            }
            AutoOutcome::Suppressed { reason, .. } => {
                panic!("expected generalization, fell through: {reason}")
            }
        }
        // The release re-parses k-anonymous on the quasi projection.
        let mut buf = Vec::new();
        run.write_release(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let table = kanon_relation::csv::parse(&text).unwrap();
        let (released, _) = Codec::encode(&table);
        let qi = released.project_columns(&run.quasi).unwrap();
        let mut counts = std::collections::HashMap::new();
        for i in 0..qi.n_rows() {
            *counts.entry(qi.row(i).to_vec()).or_insert(0usize) += 1;
        }
        assert!(counts.values().all(|&c| c >= 2), "release not 2-anonymous");
    }

    #[test]
    fn generous_deadline_still_generalizes() {
        let config = PipelineConfig {
            budget: Budget::builder()
                .deadline(Duration::from_secs(3600))
                .build(),
            ..PipelineConfig::default()
        };
        let run = run_csv_auto(MESSY.as_bytes(), 2, &config, &AutoConfig::default()).unwrap();
        assert!(matches!(run.outcome, AutoOutcome::Generalized(_)));
        assert!(run.report.generalization.is_some());
        // No compare requested: the side-by-side fields stay empty.
        let gen = run.report.generalization.as_ref().unwrap();
        assert!(gen.suppression_cost.is_none());
    }

    #[test]
    fn cancelled_budget_trips_try_generalize_recoverably() {
        let (dataset, codec) =
            crate::ingest::ingest_csv_with_delimiter(MESSY.as_bytes(), b';').unwrap();
        let quasi = vec![0usize, 1];
        let hierarchies = vec![Hierarchy::SuppressOnly, Hierarchy::SuppressOnly];
        let budget = Budget::unlimited();
        budget.cancel();
        let err = match try_generalize(&dataset, &codec, &quasi, &hierarchies, 2, &budget) {
            Err(e) => e,
            Ok(_) => panic!("a cancelled budget must trip the governed search"),
        };
        assert!(budget_tripped(&err), "got {err}");
        match &err {
            Error::Relation(kanon_relation::Error::Core(kanon_core::Error::BudgetExceeded {
                resource,
                ..
            }))
            | Error::Core(kanon_core::Error::BudgetExceeded { resource, .. }) => {
                assert_eq!(*resource, Resource::Cancelled);
            }
            other => panic!("expected a budget trip, got {other}"),
        }
    }

    #[test]
    fn expired_deadline_degrades_to_suppression() {
        // An already-spent deadline: the generalization slice trips on its
        // first governor poll, and the fall-through suppression pipeline's
        // own per-shard fallback (suppress-and-split) still completes the
        // run — the ladder's "always answers" contract, one rung higher.
        let config = PipelineConfig {
            budget: Budget::builder().deadline(Duration::ZERO).build(),
            ..PipelineConfig::default()
        };
        let run = run_csv_auto(MESSY.as_bytes(), 2, &config, &AutoConfig::default()).unwrap();
        match &run.outcome {
            AutoOutcome::Suppressed {
                anonymization,
                reason,
            } => {
                assert!(
                    reason.contains("budget"),
                    "reason should name the trip: {reason}"
                );
                assert!(anonymization.table.is_k_anonymous(2));
            }
            AutoOutcome::Generalized(_) => panic!("zero deadline should not generalize"),
        }
        assert!(run.report.generalization.is_none());
    }
}
