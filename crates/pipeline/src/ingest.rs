//! Streaming CSV ingestion: any `io::Read` source to an encoded
//! [`Dataset`] without materializing the file contents.
//!
//! The reader ([`kanon_relation::csv::Reader`]) scans records in place in
//! one reused 64 KiB buffer and lends each as `&str` fields; the encoder
//! ([`kanon_relation::encode::StreamingEncoder`]) looks each value up in
//! its column's dictionary and copies only first-seen values. No `String`
//! is made per field or per record. Peak memory is therefore the *encoded*
//! table plus dictionaries — not the raw CSV text, which for wide string
//! values is several times larger.

use std::io;

use kanon_core::Dataset;
use kanon_relation::csv::Reader;
use kanon_relation::encode::StreamingEncoder;
use kanon_relation::Codec;

use crate::config::PipelineConfig;
use crate::error::Result;
use crate::report::PipelineReport;

/// Reads CSV from `reader` in chunks and dictionary-encodes the records as
/// they stream by. The first record is the header.
///
/// # Errors
/// [`kanon_relation::Error::EmptyTable`] for a missing header or zero data
/// rows, CSV syntax/arity errors with their 1-based line number, and I/O
/// failures from the underlying reader.
pub fn ingest_csv<R: io::Read>(reader: R) -> Result<(Dataset, Codec)> {
    ingest_csv_with_delimiter(reader, b',')
}

/// As [`ingest_csv`] with an explicit field delimiter — the entry point
/// the schema-driven auto path uses after probing a messy file (`;`, tab,
/// `|`). A non-ASCII delimiter falls back to `,` (mirroring
/// [`kanon_relation::csv::Reader::with_delimiter`]).
///
/// # Errors
/// As [`ingest_csv`].
pub fn ingest_csv_with_delimiter<R: io::Read>(reader: R, delim: u8) -> Result<(Dataset, Codec)> {
    let mut records = Reader::with_delimiter(reader, delim);
    let header = match records.read_record()? {
        Some(h) => h,
        None => return Err(kanon_relation::Error::EmptyTable.into()),
    };
    let mut encoder = StreamingEncoder::new(header.fields)?;
    while let Some((line, fields)) = records.read_fields()? {
        encoder.push_record(fields).map_err(|e| match e {
            kanon_relation::Error::ArityMismatch { expected, found } => {
                kanon_relation::Error::Csv {
                    line,
                    message: format!("expected {expected} fields, found {found}"),
                }
            }
            other => other,
        })?;
    }
    if encoder.n_rows() == 0 {
        return Err(kanon_relation::Error::EmptyTable.into());
    }
    Ok(encoder.finish())
}

/// Everything a caller needs to render the anonymized table: the full
/// encoded input, its codec, the quasi-identifier columns the solver saw,
/// and the anonymization of their projection.
pub struct CsvRun {
    /// The full encoded input table (all columns).
    pub dataset: Dataset,
    /// Dictionary codec for decoding values back to strings.
    pub codec: Codec,
    /// Column indices (into `dataset`) treated as the quasi-identifier.
    pub quasi: Vec<usize>,
    /// Anonymization of the quasi-identifier projection.
    pub anonymization: kanon_core::Anonymization,
    /// The pipeline's run report.
    pub report: PipelineReport,
}

/// End-to-end convenience: ingest CSV, project the quasi-identifier, run
/// the sharded pipeline — [`crate::run_csv_private_with_progress`] with no
/// sensitive column, plain k, and no progress listener.
///
/// `quasi` selects quasi-identifier columns by header name; `None` treats
/// every column as quasi-identifying.
///
/// # Errors
/// Ingestion errors from [`ingest_csv`], [`crate::Error::UnknownColumn`] (naming
/// the header's actual columns) for an unrecognized column name, and every
/// [`crate::engine::run_pipeline`] error.
pub fn run_csv<R: io::Read>(
    reader: R,
    k: usize,
    quasi: Option<&[String]>,
    config: &PipelineConfig,
) -> Result<CsvRun> {
    crate::privacy::run_csv_private_with_progress(
        reader,
        k,
        quasi,
        None,
        kanon_privacy::PrivacyModel::KOnly,
        config,
        &|_| {},
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;

    const CSV: &str = "age,zip,job\n34,90210,cook\n34,90210,cook\n35,90210,cook\n\
                       35,90211,nurse\n34,90211,nurse\n35,90211,nurse\n";

    #[test]
    fn ingest_matches_batch_parse() {
        let (ds, codec) = ingest_csv(CSV.as_bytes()).unwrap();
        let table = kanon_relation::csv::parse(CSV).unwrap();
        let (batch_ds, batch_codec) = Codec::encode(&table);
        assert_eq!(ds.n_rows(), batch_ds.n_rows());
        assert_eq!(ds.n_cols(), batch_ds.n_cols());
        for i in 0..ds.n_rows() {
            assert_eq!(ds.row(i), batch_ds.row(i));
        }
        assert_eq!(codec.header(), batch_codec.header());
    }

    #[test]
    fn empty_input_is_rejected() {
        assert!(matches!(
            ingest_csv("".as_bytes()),
            Err(Error::Relation(kanon_relation::Error::EmptyTable))
        ));
        assert!(matches!(
            ingest_csv("a,b\n".as_bytes()),
            Err(Error::Relation(kanon_relation::Error::EmptyTable))
        ));
    }

    #[test]
    fn arity_mismatch_carries_the_line_number() {
        let bad = "a,b\n1,2\n3\n";
        match ingest_csv(bad.as_bytes()) {
            Err(Error::Relation(kanon_relation::Error::Csv { line, message })) => {
                assert_eq!(line, 3);
                assert!(message.contains("expected 2 fields"));
            }
            other => panic!("expected a CSV arity error, got {other:?}"),
        }
    }

    #[test]
    fn run_csv_projects_the_quasi_identifier() {
        let quasi = vec!["age".to_string(), "zip".to_string()];
        let run = run_csv(CSV.as_bytes(), 2, Some(&quasi), &PipelineConfig::default()).unwrap();
        assert_eq!(run.quasi, vec![0, 1]);
        assert_eq!(run.dataset.n_cols(), 3);
        assert!(run.anonymization.table.is_k_anonymous(2));
        assert_eq!(run.report.n_cols, 2);
        assert_eq!(run.report.n_rows, 6);

        let missing = vec!["salary".to_string()];
        match run_csv(
            CSV.as_bytes(),
            2,
            Some(&missing),
            &PipelineConfig::default(),
        ) {
            Err(Error::UnknownColumn { name, known }) => {
                assert_eq!(name, "salary");
                assert_eq!(known, vec!["age", "zip", "job"]);
            }
            Err(other) => panic!("expected a structured UnknownColumn error, got {other}"),
            Ok(_) => panic!("expected a structured UnknownColumn error, got success"),
        }
    }

    #[test]
    fn alternate_delimiter_ingestion_matches_comma() {
        let semicolon = CSV.replace(',', ";");
        let (ds, codec) = ingest_csv_with_delimiter(semicolon.as_bytes(), b';').unwrap();
        let (base_ds, base_codec) = ingest_csv(CSV.as_bytes()).unwrap();
        assert_eq!(codec.header(), base_codec.header());
        assert_eq!(ds.n_rows(), base_ds.n_rows());
        for i in 0..ds.n_rows() {
            assert_eq!(ds.row(i), base_ds.row(i));
        }
    }
}
