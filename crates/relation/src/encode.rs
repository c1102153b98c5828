//! Dictionary coding between string tables and the `Σ^m` vector model.
//!
//! Each column gets its own dictionary mapping distinct strings to dense
//! `u32` codes in first-appearance order. The [`Codec`] remembers the
//! mapping so a released (suppressed) table can be rendered back with the
//! original strings and `*` for stars.

use std::collections::HashMap;

use crate::error::{Error, Result};
use crate::table::Table;
use kanon_core::suppression::{AnonymizedTable, Cell};
use kanon_core::Dataset;

/// Per-column dictionaries captured during encoding.
#[derive(Clone, Debug)]
pub struct Codec {
    /// `columns[j][code]` = original string for that code.
    columns: Vec<Vec<String>>,
    header: Vec<String>,
}

impl Codec {
    /// Encodes a table, producing the dataset and the codec.
    #[must_use]
    pub fn encode(table: &Table) -> (Dataset, Codec) {
        let mut encoder = StreamingEncoder::new(table.schema().names().to_vec())
            .expect("a table's schema is a valid header");
        for row in table.rows() {
            encoder
                .push_record(row.iter().map(String::as_str))
                .expect("a table's rows match its schema");
        }
        encoder.finish()
    }

    /// Rebuilds a codec from its raw parts: the header and one dictionary
    /// (strings indexed by code) per column. This is the persistence hook —
    /// a durable store that saved [`Codec::column_values`] for every column
    /// can reconstruct the exact codec later, without replaying the data
    /// that first produced it.
    ///
    /// # Errors
    /// [`Error::EmptySchema`] / [`Error::DuplicateAttribute`] for a bad
    /// header, [`Error::ArityMismatch`] when the dictionary count differs
    /// from the header's.
    pub fn from_parts(header: Vec<String>, columns: Vec<Vec<String>>) -> Result<Codec> {
        let schema = crate::schema::Schema::new(header)?;
        let header = schema.names().to_vec();
        if columns.len() != header.len() {
            return Err(Error::ArityMismatch {
                expected: header.len(),
                found: columns.len(),
            });
        }
        Ok(Codec { columns, header })
    }

    /// Column `j`'s full dictionary: original strings indexed by code, in
    /// first-appearance order.
    ///
    /// # Panics
    /// Panics if `j` is out of bounds.
    #[must_use]
    pub fn column_values(&self, j: usize) -> &[String] {
        &self.columns[j]
    }

    /// Number of columns.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The column names captured at encode time, in schema order.
    #[must_use]
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// Distinct-value count of column `j` (its alphabet size).
    ///
    /// # Panics
    /// Panics if `j` is out of bounds.
    #[must_use]
    pub fn alphabet_size(&self, j: usize) -> usize {
        self.columns[j].len()
    }

    /// The original string for `code` in column `j`.
    ///
    /// # Errors
    /// [`Error::UnknownCode`].
    pub fn value(&self, j: usize, code: u32) -> Result<&str> {
        self.columns
            .get(j)
            .and_then(|c| c.get(code as usize))
            .map(String::as_str)
            .ok_or(Error::UnknownCode { column: j, code })
    }

    /// Renders a released table as CSV-style text: header row, then one
    /// line per record, stars as `*`.
    ///
    /// # Errors
    /// [`Error::UnknownCode`] if the table does not belong to this codec.
    pub fn decode(&self, table: &AnonymizedTable) -> Result<String> {
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in table.rows() {
            let mut first = true;
            for (j, cell) in row.iter().enumerate() {
                if !first {
                    out.push(',');
                }
                first = false;
                match cell {
                    Cell::Star => out.push('*'),
                    Cell::Value(code) => out.push_str(self.value(j, code)?),
                }
            }
            out.push('\n');
        }
        Ok(out)
    }
}

/// Record-at-a-time dictionary encoder for streaming ingestion.
///
/// The sharded pipeline feeds it records straight off
/// [`csv::Reader::read_fields`](crate::csv::Reader::read_fields) as they
/// are scanned, so the raw CSV text is never materialized. Each value is a
/// borrowed `&str`, looked up in its column's dictionary without
/// allocating; only a first-seen value is copied, so codes follow first
/// appearance. [`Codec::encode`] feeds a [`Table`]'s rows through the same
/// encoder.
///
/// ```
/// use kanon_relation::encode::StreamingEncoder;
/// let mut enc = StreamingEncoder::new(vec!["city".into(), "age".into()]).unwrap();
/// enc.push_record(["paris", "30"].into_iter()).unwrap();
/// enc.push_record(["rome", "30"].into_iter()).unwrap();
/// let (ds, codec) = enc.finish();
/// assert_eq!(ds.row(1), &[1, 0]);
/// assert_eq!(codec.value(0, 1).unwrap(), "rome");
/// ```
#[derive(Clone, Debug)]
pub struct StreamingEncoder {
    dicts: Vec<HashMap<String, u32>>,
    codec: Codec,
    flat: Vec<u32>,
}

impl StreamingEncoder {
    /// Starts an encoder for the given header. The header is validated the
    /// same way a [`crate::Schema`] is (non-empty, distinct names).
    ///
    /// # Errors
    /// [`Error::EmptySchema`] / [`Error::DuplicateAttribute`].
    pub fn new(header: Vec<String>) -> Result<Self> {
        let header = crate::schema::Schema::new(header)?.names().to_vec();
        let m = header.len();
        Ok(StreamingEncoder {
            dicts: vec![HashMap::new(); m],
            codec: Codec {
                columns: vec![Vec::new(); m],
                header,
            },
            flat: Vec::new(),
        })
    }

    /// Number of records pushed so far.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.flat.len() / self.codec.arity()
    }

    /// Encodes one record, given as its values in column order.
    ///
    /// # Errors
    /// [`Error::ArityMismatch`] if the record length differs from the
    /// header's.
    pub fn push_record<'a>(
        &mut self,
        record: impl ExactSizeIterator<Item = &'a str>,
    ) -> Result<()> {
        if record.len() != self.codec.arity() {
            return Err(Error::ArityMismatch {
                expected: self.codec.arity(),
                found: record.len(),
            });
        }
        for (j, value) in record.enumerate() {
            let code = match self.dicts[j].get(value) {
                Some(&code) => code,
                None => {
                    let next = self.codec.columns[j].len() as u32;
                    self.dicts[j].insert(value.to_owned(), next);
                    self.codec.columns[j].push(value.to_owned());
                    next
                }
            };
            self.flat.push(code);
        }
        Ok(())
    }

    /// Finalizes into the dataset and the codec for decoding releases.
    #[must_use]
    pub fn finish(self) -> (Dataset, Codec) {
        let ds = Dataset::from_flat(self.n_rows(), self.codec.arity(), self.flat)
            .expect("streaming encoder builds a rectangular buffer");
        (ds, self.codec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use kanon_core::Suppressor;

    fn sample() -> Table {
        let mut t = Table::new(Schema::new(vec!["city", "age"]).unwrap());
        t.push_str_row(&["paris", "30"]).unwrap();
        t.push_str_row(&["rome", "30"]).unwrap();
        t.push_str_row(&["paris", "41"]).unwrap();
        t
    }

    #[test]
    fn codes_are_dense_first_appearance() {
        let (ds, codec) = sample().encode();
        assert_eq!(ds.row(0), &[0, 0]);
        assert_eq!(ds.row(1), &[1, 0]);
        assert_eq!(ds.row(2), &[0, 1]);
        assert_eq!(codec.alphabet_size(0), 2);
        assert_eq!(codec.alphabet_size(1), 2);
        assert_eq!(codec.value(0, 1).unwrap(), "rome");
        assert!(codec.value(0, 7).is_err());
        assert!(codec.value(5, 0).is_err());
    }

    #[test]
    fn from_parts_reconstructs_an_equivalent_codec() {
        let (_, codec) = sample().encode();
        let parts: Vec<Vec<String>> = (0..codec.arity())
            .map(|j| codec.column_values(j).to_vec())
            .collect();
        let rebuilt = Codec::from_parts(codec.header().to_vec(), parts).unwrap();
        assert_eq!(rebuilt.header(), codec.header());
        for j in 0..codec.arity() {
            assert_eq!(rebuilt.column_values(j), codec.column_values(j));
            for code in 0..codec.alphabet_size(j) as u32 {
                assert_eq!(
                    rebuilt.value(j, code).unwrap(),
                    codec.value(j, code).unwrap()
                );
            }
        }
        // Part-count mismatches and bad headers are rejected.
        assert!(Codec::from_parts(vec!["a".into()], vec![vec![], vec![]]).is_err());
        assert!(Codec::from_parts(vec![], vec![]).is_err());
    }

    #[test]
    fn decode_renders_stars() {
        let table = sample();
        let (ds, codec) = table.encode();
        let mut s = Suppressor::identity(3, 2);
        s.suppress(1, 0);
        let released = s.apply(&ds).unwrap();
        let text = codec.decode(&released).unwrap();
        assert_eq!(text, "city,age\nparis,30\n*,30\nparis,41\n");
    }

    #[test]
    fn streaming_encoder_matches_batch_encode() {
        let table = sample();
        let (batch_ds, batch_codec) = table.encode();
        let mut enc = StreamingEncoder::new(table.schema().names().to_vec()).unwrap();
        for row in table.rows() {
            enc.push_record(row.iter().map(String::as_str)).unwrap();
        }
        assert_eq!(enc.n_rows(), 3);
        let (ds, codec) = enc.finish();
        assert_eq!(
            ds.rows().collect::<Vec<_>>(),
            batch_ds.rows().collect::<Vec<_>>()
        );
        assert_eq!(codec.header(), batch_codec.header());
        for j in 0..2 {
            assert_eq!(codec.alphabet_size(j), batch_codec.alphabet_size(j));
        }
        // Decoding through either codec renders the same text.
        let released = Suppressor::identity(3, 2).apply(&ds).unwrap();
        assert_eq!(
            codec.decode(&released).unwrap(),
            batch_codec.decode(&released).unwrap()
        );
    }

    #[test]
    fn streaming_encoder_validates_header_and_arity() {
        assert!(StreamingEncoder::new(vec![]).is_err());
        assert!(StreamingEncoder::new(vec!["a".into(), "a".into()]).is_err());
        let mut enc = StreamingEncoder::new(vec!["a".into(), "b".into()]).unwrap();
        assert!(matches!(
            enc.push_record(["only"].into_iter()),
            Err(Error::ArityMismatch {
                expected: 2,
                found: 1
            })
        ));
    }

    #[test]
    fn roundtrip_identity() {
        let table = sample();
        let (ds, codec) = table.encode();
        let released = Suppressor::identity(3, 2).apply(&ds).unwrap();
        let text = codec.decode(&released).unwrap();
        for (i, row) in table.rows().enumerate() {
            let line: Vec<&str> = text.lines().nth(i + 1).unwrap().split(',').collect();
            assert_eq!(line, row.iter().map(String::as_str).collect::<Vec<_>>());
        }
    }
}
