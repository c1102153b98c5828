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
        let m = table.arity();
        let mut dicts: Vec<HashMap<&str, u32>> = vec![HashMap::new(); m];
        let mut columns: Vec<Vec<String>> = vec![Vec::new(); m];
        let mut flat: Vec<u32> = Vec::with_capacity(table.n_rows() * m);
        for row in table.rows() {
            for (j, value) in row.iter().enumerate() {
                let next = dicts[j].len() as u32;
                let code = *dicts[j].entry(value.as_str()).or_insert_with(|| {
                    columns[j].push(value.clone());
                    next
                });
                flat.push(code);
            }
        }
        let ds = Dataset::from_flat(table.n_rows(), m, flat)
            .expect("encode builds a rectangular buffer");
        (
            ds,
            Codec {
                columns,
                header: table.schema().names().to_vec(),
            },
        )
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
/// [`Codec::encode`] needs the whole [`Table`] up front; the sharded
/// pipeline instead feeds records straight off a
/// [`csv::Reader`](crate::csv::Reader) as they are parsed, so the raw CSV
/// text is never materialized. Codes are assigned in first-appearance
/// order, exactly like the batch path — encoding the same records in the
/// same order produces a byte-identical [`Dataset`] and [`Codec`].
///
/// ```
/// use kanon_relation::encode::StreamingEncoder;
/// let mut enc = StreamingEncoder::new(vec!["city".into(), "age".into()]).unwrap();
/// enc.push_record(&["paris".into(), "30".into()]).unwrap();
/// enc.push_record(&["rome".into(), "30".into()]).unwrap();
/// let (ds, codec) = enc.finish();
/// assert_eq!(ds.row(1), &[1, 0]);
/// assert_eq!(codec.value(0, 1).unwrap(), "rome");
/// ```
#[derive(Clone, Debug)]
pub struct StreamingEncoder {
    dicts: Vec<HashMap<String, u32>>,
    columns: Vec<Vec<String>>,
    header: Vec<String>,
    flat: Vec<u32>,
    n: usize,
}

impl StreamingEncoder {
    /// Starts an encoder for the given header. The header is validated the
    /// same way a [`crate::Schema`] is (non-empty, distinct names).
    ///
    /// # Errors
    /// [`Error::EmptySchema`] / [`Error::DuplicateAttribute`].
    pub fn new(header: Vec<String>) -> Result<Self> {
        let schema = crate::schema::Schema::new(header)?;
        let header = schema.names().to_vec();
        let m = header.len();
        Ok(StreamingEncoder {
            dicts: vec![HashMap::new(); m],
            columns: vec![Vec::new(); m],
            header,
            flat: Vec::new(),
            n: 0,
        })
    }

    /// Number of records pushed so far.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.n
    }

    /// Number of columns.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.header.len()
    }

    /// The header this encoder was started with.
    #[must_use]
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// Encodes one record.
    ///
    /// # Errors
    /// [`Error::ArityMismatch`] if the record length differs from the
    /// header's.
    pub fn push_record(&mut self, record: &[String]) -> Result<()> {
        if record.len() != self.header.len() {
            return Err(Error::ArityMismatch {
                expected: self.header.len(),
                found: record.len(),
            });
        }
        for (j, value) in record.iter().enumerate() {
            let code = match self.dicts[j].get(value) {
                Some(&code) => code,
                None => {
                    let next = self.dicts[j].len() as u32;
                    self.dicts[j].insert(value.clone(), next);
                    self.columns[j].push(value.clone());
                    next
                }
            };
            self.flat.push(code);
        }
        self.n += 1;
        Ok(())
    }

    /// Finalizes into the dataset and the codec for decoding releases.
    #[must_use]
    pub fn finish(self) -> (Dataset, Codec) {
        let ds = Dataset::from_flat(self.n, self.header.len(), self.flat)
            .expect("streaming encoder builds a rectangular buffer");
        (
            ds,
            Codec {
                columns: self.columns,
                header: self.header,
            },
        )
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
            enc.push_record(row).unwrap();
        }
        assert_eq!(enc.n_rows(), 3);
        assert_eq!(enc.arity(), 2);
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
            enc.push_record(&["only".into()]),
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
