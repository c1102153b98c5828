//! The privacy-aware solve path: k-anonymity plus an l-diversity or
//! t-closeness constraint on a designated sensitive column.
//!
//! The sharded engine never sees the sensitive attribute. It is resolved
//! by header name, **excluded from the quasi-identifier projection** (so
//! it cannot key the shard hash, the sort order, or any suppression
//! decision — a sensitive value leaking into the grouping key would
//! re-identify exactly what the constraint exists to hide), and declared
//! in both roles is a hard [`kanon_privacy::Error::SensitiveIsQuasi`]
//! error. After the shards merge into a whole-table k-anonymous
//! partition, [`fn@kanon_privacy::enforce`] greedily merges blocks until the
//! constraint holds (a union of ≥ k blocks stays ≥ k), the repaired
//! partition is rounded and k-checked once over the release's own codes
//! (moved, not copied), and the release is **independently re-verified**
//! against the constraint — the [`PrivacyReport`] records the re-check's
//! outcome rather than taking the repair on faith.

use std::io;

use kanon_core::algo::anonymization_of_codes;
use kanon_core::{Algorithm, Value};
use kanon_privacy::{enforce, verify, PrivacyModel};
use kanon_relation::Codec;

use crate::config::PipelineConfig;
use crate::error::{Error, Result};
use crate::ingest::{ingest_csv, CsvRun};
use crate::report::PrivacyReport;

/// Resolves a header name to its column index, or the structured
/// [`Error::UnknownColumn`] naming the header's actual columns.
fn resolve_column(codec: &Codec, name: &str) -> Result<usize> {
    codec
        .header()
        .iter()
        .position(|h| h == name)
        .ok_or_else(|| Error::UnknownColumn {
            name: name.to_string(),
            known: codec.header().to_vec(),
        })
}

/// The one CSV path through the pipeline: ingest CSV, project the
/// quasi-identifier, run the sharded engine, and hold the release to
/// `model` on the `sensitive` column. Live [`crate::engine::Progress`]
/// events go to `on_progress`. [`crate::run_csv`] is this path with no
/// sensitive column, plain k, and no progress listener.
///
/// `quasi` selects quasi-identifier columns by header name; `None` treats
/// every column *except* the sensitive one as quasi-identifying. A model
/// beyond `k` requires a sensitive column; the sensitive column must not
/// appear in the quasi list, and is excluded from the projection even
/// under plain k.
///
/// # Errors
/// Ingestion errors from [`ingest_csv`], [`Error::UnknownColumn`] (naming
/// the header's actual columns) for an unrecognized column name, every
/// [`crate::engine::run_pipeline`] error, [`Error::Privacy`] for a
/// sensitive column declared quasi-identifying
/// ([`kanon_privacy::Error::SensitiveIsQuasi`]) or an unreachable
/// constraint, and [`Error::Config`] when `model` needs a sensitive
/// column but none was given.
pub fn run_csv_private_with_progress<R: io::Read>(
    reader: R,
    k: usize,
    quasi: Option<&[String]>,
    sensitive: Option<&str>,
    model: PrivacyModel,
    config: &PipelineConfig,
    on_progress: &(dyn Fn(crate::engine::Progress) + Sync),
) -> Result<CsvRun> {
    let (dataset, codec) = ingest_csv(reader)?;
    if model.requires_sensitive() && sensitive.is_none() {
        return Err(Error::Config(format!(
            "privacy model `{}` needs a sensitive column (pass --sensitive)",
            model.render()
        )));
    }
    let sens_col = match sensitive {
        Some(name) => Some(resolve_column(&codec, name)?),
        None => None,
    };

    // The sensitive column never enters the quasi-identifier: by default
    // it is carved out of the all-columns projection; an explicit quasi
    // list that names it is rejected with both roles spelled out.
    let quasi_cols: Vec<usize> = match quasi {
        None => (0..codec.arity())
            .filter(|&j| Some(j) != sens_col)
            .collect(),
        Some(names) => {
            if let Some(name) = sensitive {
                if names.iter().any(|n| n == name) {
                    return Err(kanon_privacy::Error::SensitiveIsQuasi {
                        column: name.to_string(),
                        quasi: names.to_vec(),
                    }
                    .into());
                }
            }
            names
                .iter()
                .map(|name| resolve_column(&codec, name))
                .collect::<Result<_>>()?
        }
    };
    // Only carving out the sensitive column is an error here; an explicit
    // empty quasi list without one goes to the engine unchanged.
    if quasi_cols.is_empty() && sens_col.is_some() {
        return Err(Error::Config(
            "no quasi-identifier columns remain after excluding the sensitive column".into(),
        ));
    }
    let (mut anonymization, mut report) =
        crate::engine::run_columns(&dataset, &quasi_cols, k, config, on_progress)?;

    if let (Some(col), true) = (sens_col, model.requires_sensitive()) {
        let sens_values: Vec<Value> = (0..dataset.n_rows()).map(|i| dataset.row(i)[col]).collect();
        // The release's codes are the quasi-identifier projection.
        let qi = anonymization.table.codes();
        let outcome = enforce(qi, &anonymization.partition, &sens_values, model)?;
        if outcome.merges > 0 {
            // Merged blocks may exceed the (k, 2k-1) band — splitting them
            // back would break the constraint, so the band is the price of
            // the stronger guarantee here. The finisher's k-check is the
            // repaired release's.
            anonymization = anonymization_of_codes(
                anonymization.table.into_codes(),
                outcome.partition,
                k,
                Algorithm::External("pipeline+privacy"),
            )?;
        }
        let verified = verify(model, &anonymization.partition, &sens_values)?.ok();
        report.total_cost = anonymization.cost;
        report.privacy = Some(Box::new(PrivacyReport {
            spec: model.render(),
            family: model.name(),
            sensitive: sensitive
                .expect("requires_sensitive implies a name")
                .to_string(),
            violations_before: outcome.report_before.violations.len(),
            merges: outcome.merges,
            cost_before: outcome.cost_before,
            cost_after: anonymization.cost,
            verified,
        }));
    }

    Ok(CsvRun {
        dataset,
        codec,
        quasi: quasi_cols,
        anonymization,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kanon_privacy::verify_l_diversity;

    /// Six rows, two natural QI clusters; `diagnosis` is uniform inside
    /// each cluster, so any k=2 grouping violates l=2 until repaired.
    const CSV: &str = "age,zip,diagnosis\n\
                       34,90210,flu\n34,90210,flu\n35,90210,flu\n\
                       61,10001,ulcer\n62,10001,ulcer\n61,10001,ulcer\n";

    #[test]
    fn l_diversity_release_passes_independent_recheck() {
        let run = run_csv_private_with_progress(
            CSV.as_bytes(),
            2,
            None,
            Some("diagnosis"),
            PrivacyModel::parse("l=2").unwrap(),
            &PipelineConfig::default(),
            &|_| {},
        )
        .unwrap();
        // The sensitive column stayed out of the quasi-identifier.
        assert_eq!(run.quasi, vec![0, 1]);
        assert!(run.anonymization.table.is_k_anonymous(2));
        let privacy = run.report.privacy.as_deref().expect("privacy section");
        assert!(privacy.verified);
        assert_eq!(privacy.spec, "l=2");
        assert!(privacy.violations_before >= 1);
        assert!(privacy.merges >= 1);
        assert!(privacy.cost_after >= privacy.cost_before);
        assert_eq!(run.report.total_cost, run.anonymization.cost);
        // Re-verify here too, independently of the report's flag.
        let sens: Vec<Value> = (0..run.dataset.n_rows())
            .map(|i| run.dataset.row(i)[2])
            .collect();
        assert!(verify_l_diversity(&run.anonymization.partition, &sens, 2)
            .unwrap()
            .ok());
        let json = run.report.to_json();
        assert!(json.contains("\"privacy\":{\"spec\":\"l=2\""));
    }

    #[test]
    fn sensitive_in_quasi_list_is_a_structured_error() {
        let quasi = vec!["age".to_string(), "diagnosis".to_string()];
        match run_csv_private_with_progress(
            CSV.as_bytes(),
            2,
            Some(&quasi),
            Some("diagnosis"),
            PrivacyModel::parse("l=2").unwrap(),
            &PipelineConfig::default(),
            &|_| {},
        ) {
            Err(Error::Privacy(kanon_privacy::Error::SensitiveIsQuasi { column, quasi })) => {
                assert_eq!(column, "diagnosis");
                assert_eq!(quasi, vec!["age", "diagnosis"]);
            }
            Err(other) => panic!("expected SensitiveIsQuasi, got {other}"),
            Ok(_) => panic!("expected SensitiveIsQuasi, got success"),
        }
    }

    #[test]
    fn model_beyond_k_requires_a_sensitive_column() {
        match run_csv_private_with_progress(
            CSV.as_bytes(),
            2,
            None,
            None,
            PrivacyModel::parse("l=2").unwrap(),
            &PipelineConfig::default(),
            &|_| {},
        ) {
            Err(Error::Config(msg)) => assert!(msg.contains("--sensitive"), "{msg}"),
            Err(other) => panic!("expected a config error, got {other}"),
            Ok(_) => panic!("expected a config error, got success"),
        }
    }

    #[test]
    fn unknown_sensitive_column_names_the_header() {
        match run_csv_private_with_progress(
            CSV.as_bytes(),
            2,
            None,
            Some("salary"),
            PrivacyModel::parse("l=2").unwrap(),
            &PipelineConfig::default(),
            &|_| {},
        ) {
            Err(Error::UnknownColumn { name, known }) => {
                assert_eq!(name, "salary");
                assert_eq!(known, vec!["age", "zip", "diagnosis"]);
            }
            Err(other) => panic!("expected UnknownColumn, got {other}"),
            Ok(_) => panic!("expected UnknownColumn, got success"),
        }
    }

    #[test]
    fn k_only_with_sensitive_still_excludes_it_from_the_projection() {
        let run = run_csv_private_with_progress(
            CSV.as_bytes(),
            2,
            None,
            Some("diagnosis"),
            PrivacyModel::KOnly,
            &PipelineConfig::default(),
            &|_| {},
        )
        .unwrap();
        assert_eq!(run.quasi, vec![0, 1]);
        assert!(run.report.privacy.is_none());
        assert!(run.anonymization.table.is_k_anonymous(2));
    }

    #[test]
    fn unreachable_constraint_propagates_as_privacy_error() {
        // One sensitive value table-wide: l=2 cannot be satisfied.
        let csv = "age,zip,diagnosis\n34,90210,flu\n34,90210,flu\n35,90211,flu\n35,90211,flu\n";
        match run_csv_private_with_progress(
            csv.as_bytes(),
            2,
            None,
            Some("diagnosis"),
            PrivacyModel::parse("l=2").unwrap(),
            &PipelineConfig::default(),
            &|_| {},
        ) {
            Err(Error::Privacy(kanon_privacy::Error::Unreachable(msg))) => {
                assert!(msg.contains("distinct"), "{msg}");
            }
            Err(other) => panic!("expected Unreachable, got {other}"),
            Ok(_) => panic!("expected Unreachable, got success"),
        }
    }

    #[test]
    fn t_closeness_path_repairs_and_verifies() {
        let run = run_csv_private_with_progress(
            CSV.as_bytes(),
            2,
            None,
            Some("diagnosis"),
            PrivacyModel::parse("t=0.25").unwrap(),
            &PipelineConfig::default(),
            &|_| {},
        )
        .unwrap();
        let privacy = run.report.privacy.as_deref().expect("privacy section");
        assert!(privacy.verified);
        assert_eq!(privacy.family, "t-variational");
        assert!(run.anonymization.table.is_k_anonymous(2));
    }
}
