//! Differential suite: the CSV scanner against a byte-at-a-time reader.
//!
//! `kanon_relation::csv::Reader` scans each record in place into field
//! ranges over a reused buffer. The oracle below is the earlier reader: a
//! state machine that fetches one byte at a time and builds a `String` per
//! field. Both must yield the same records, with the same lines, and stop
//! at the same first error with the same line and message, whatever size
//! of read feeds them (1 byte, 7 bytes, 64 KiB), and wherever the end of
//! the reader's buffer falls. Inputs are soups of
//! quotes, doubled quotes, delimiters, `\n`, `\r\n`, lone `\r`s, multi-byte
//! and invalid UTF-8, so they also cover blank lines, ragged rows and a
//! missing final newline. `ingest_csv` must encode them to the same
//! `Dataset` and `Codec` as the oracle's records do.

use std::collections::HashMap;
use std::io;

use kanon_core::Dataset;
use kanon_relation::csv::{Reader, Record};
use kanon_relation::{Codec, Error};
use proptest::prelude::*;

/// The byte-at-a-time reader the scanner replaced.
struct Oracle<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    delim: u8,
}

impl Oracle<'_> {
    fn next_byte(&mut self) -> Option<u8> {
        let b = self.bytes.get(self.pos).copied();
        self.pos += usize::from(b.is_some());
        b
    }

    fn push_field(record: &mut Vec<String>, raw: &mut Vec<u8>, line: usize) -> Result<(), Error> {
        let field = String::from_utf8(std::mem::take(raw)).map_err(|_| Error::Csv {
            line,
            message: "invalid UTF-8 in field".into(),
        })?;
        record.push(field);
        Ok(())
    }

    fn read_record(&mut self) -> Result<Option<Record>, Error> {
        let mut field: Vec<u8> = Vec::new();
        let mut record: Vec<String> = Vec::new();
        let record_line = self.line;
        let mut in_quotes = false;
        let mut saw_any = false;
        while let Some(b) = self.next_byte() {
            saw_any = true;
            if in_quotes {
                match b {
                    b'"' => {
                        if self.bytes.get(self.pos) == Some(&b'"') {
                            self.pos += 1;
                            field.push(b'"');
                        } else {
                            in_quotes = false;
                        }
                    }
                    b'\n' => {
                        self.line += 1;
                        field.push(b);
                    }
                    _ => field.push(b),
                }
                continue;
            }
            match b {
                b'"' => {
                    if !field.is_empty() {
                        return Err(Error::Csv {
                            line: self.line,
                            message: "quote inside unquoted field".into(),
                        });
                    }
                    in_quotes = true;
                }
                d if d == self.delim => Self::push_field(&mut record, &mut field, self.line)?,
                b'\r' => {}
                b'\n' => {
                    Self::push_field(&mut record, &mut field, self.line)?;
                    self.line += 1;
                    return Ok(Some(Record {
                        line: record_line,
                        fields: record,
                    }));
                }
                _ => field.push(b),
            }
        }
        if in_quotes {
            return Err(Error::Csv {
                line: self.line,
                message: "unterminated quoted field".into(),
            });
        }
        if saw_any && (!field.is_empty() || !record.is_empty()) {
            Self::push_field(&mut record, &mut field, self.line)?;
            return Ok(Some(Record {
                line: record_line,
                fields: record,
            }));
        }
        Ok(None)
    }
}

/// Records up to the end of input or the first error, which ends the list.
fn oracle_records(bytes: &[u8], delim: u8) -> Vec<Result<Record, Error>> {
    let mut oracle = Oracle {
        bytes,
        pos: 0,
        line: 1,
        delim,
    };
    let mut out = Vec::new();
    loop {
        match oracle.read_record() {
            Ok(Some(record)) => out.push(Ok(record)),
            Ok(None) => return out,
            Err(e) => {
                out.push(Err(e));
                return out;
            }
        }
    }
}

/// A source that hands out at most `chunk` bytes per read.
struct Chunked<'a> {
    bytes: &'a [u8],
    chunk: usize,
}

impl io::Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.chunk.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Read sizes that put every byte of a small input at a refill boundary,
/// put boundaries at odd offsets, and read whole inputs at once.
const CHUNKS: [usize; 3] = [1, 7, 64 * 1024];

fn scanner_records(bytes: &[u8], delim: u8, chunk: usize) -> Vec<Result<Record, Error>> {
    let mut reader = Reader::with_delimiter(Chunked { bytes, chunk }, delim);
    let mut out = Vec::new();
    loop {
        match reader.read_record() {
            Ok(Some(record)) => out.push(Ok(record)),
            Ok(None) => return out,
            Err(e) => {
                out.push(Err(e));
                return out;
            }
        }
    }
}

/// An encoded table: its codes, its header and each column's values by
/// code.
type Encoded = (Dataset, Vec<String>, Vec<Vec<String>>);

/// The oracle's records dictionary-encoded as ingestion specifies: header
/// first, codes in first-appearance order, a ragged row an error on its
/// line, and no data rows an empty table.
fn oracle_ingest(bytes: &[u8], delim: u8) -> Result<Encoded, Error> {
    let mut records = oracle_records(bytes, delim).into_iter();
    let header = match records.next() {
        Some(record) => record?.fields,
        None => return Err(Error::EmptyTable),
    };
    let header = kanon_relation::Schema::new(header)?.names().to_vec();
    let m = header.len();
    let mut dicts: Vec<HashMap<String, u32>> = vec![HashMap::new(); m];
    let mut columns: Vec<Vec<String>> = vec![Vec::new(); m];
    let mut flat = Vec::new();
    for record in records {
        let record = record?;
        if record.fields.len() != m {
            return Err(Error::Csv {
                line: record.line,
                message: format!("expected {m} fields, found {}", record.fields.len()),
            });
        }
        for (j, value) in record.fields.into_iter().enumerate() {
            let next = columns[j].len() as u32;
            flat.push(*dicts[j].entry(value.clone()).or_insert_with(|| {
                columns[j].push(value);
                next
            }));
        }
    }
    if flat.is_empty() {
        return Err(Error::EmptyTable);
    }
    let ds = Dataset::from_flat(flat.len() / m, m, flat).expect("rectangular");
    Ok((ds, header, columns))
}

fn codec_parts(codec: &Codec) -> (Vec<String>, Vec<Vec<String>>) {
    let columns = (0..codec.arity())
        .map(|j| codec.column_values(j).to_vec())
        .collect();
    (codec.header().to_vec(), columns)
}

fn scanner_ingest(bytes: &[u8], delim: u8, chunk: usize) -> Result<Encoded, Error> {
    match kanon_pipeline::ingest_csv_with_delimiter(Chunked { bytes, chunk }, delim) {
        Ok((ds, codec)) => {
            let (header, columns) = codec_parts(&codec);
            Ok((ds, header, columns))
        }
        Err(kanon_pipeline::Error::Relation(e)) => Err(e),
        Err(other) => panic!("ingest failed outside the relational layer: {other}"),
    }
}

/// Pieces the soups are made of.
const TOKENS: [&[u8]; 16] = [
    b"a",
    b"bc",
    b"a",
    b",",
    b",",
    b";",
    b"\"",
    b"\"\"",
    b"\n",
    b"\n",
    b"\r",
    b"\r\n",
    "é".as_bytes(),
    b"\xC3",
    b"\xFF",
    b"x\"y",
];

fn soup(tokens: &[usize]) -> Vec<u8> {
    tokens
        .iter()
        .flat_map(|&t| TOKENS[t].iter().copied())
        .collect()
}

/// Renders a table of values from `VALUES`, each field quoted or not (a
/// value that needs quotes always is), with `\n` or `\r\n` line ends and
/// an optional final line end: input that mostly parses.
fn table(cells: &[usize], style: usize) -> Vec<u8> {
    const VALUES: [&str; 8] = ["a", "b", "x,y", "q\"q", "", "é", "two\nlines", "cr\rin"];
    let crlf = style & 1 == 1;
    let mut out = b"c0,c1,c2".to_vec();
    for (i, &cell) in cells[..cells.len() / 3 * 3].iter().enumerate() {
        out.extend_from_slice(if i % 3 == 0 {
            if crlf {
                b"\r\n"
            } else {
                b"\n"
            }
        } else {
            b","
        });
        let value = VALUES[cell % VALUES.len()];
        if cell >= VALUES.len() || value.contains([',', '"', '\n', '\r']) {
            out.push(b'"');
            out.extend_from_slice(value.replace('"', "\"\"").as_bytes());
            out.push(b'"');
        } else {
            out.extend_from_slice(value.as_bytes());
        }
    }
    if style & 2 == 2 {
        out.extend_from_slice(if crlf { b"\r\n" } else { b"\n" });
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn scanner_matches_the_byte_reader_on_soups(
        tokens in proptest::collection::vec(0usize..16, 0..48),
        semicolon in proptest::bool::ANY,
    ) {
        let bytes = soup(&tokens);
        let delim = if semicolon { b';' } else { b',' };
        let expected = oracle_records(&bytes, delim);
        for chunk in CHUNKS {
            prop_assert_eq!(&scanner_records(&bytes, delim, chunk), &expected, "chunk {}", chunk);
            prop_assert_eq!(scanner_ingest(&bytes, delim, chunk), oracle_ingest(&bytes, delim), "chunk {}", chunk);
        }
    }

    #[test]
    fn scanner_matches_the_byte_reader_across_the_buffer_end(
        tokens in proptest::collection::vec(0usize..16, 1..24),
        before_end in 1usize..40,
    ) {
        // One long record pushes the soup to straddle the end of the
        // reader's first 64 KiB buffer.
        let mut bytes = vec![b'x'; 64 * 1024 - before_end - 1];
        bytes.push(b'\n');
        bytes.extend(soup(&tokens));
        let expected = oracle_records(&bytes, b',');
        for chunk in CHUNKS {
            prop_assert_eq!(&scanner_records(&bytes, b',', chunk), &expected, "chunk {}", chunk);
        }
    }

    #[test]
    fn ingest_matches_the_byte_reader_on_tables(
        cells in proptest::collection::vec(0usize..16, 3..60),
        style in 0usize..4,
    ) {
        let bytes = table(&cells, style);
        let expected = oracle_ingest(&bytes, b',');
        prop_assert!(expected.is_ok(), "{:?}", expected);
        for chunk in CHUNKS {
            prop_assert_eq!(&scanner_records(&bytes, b',', chunk), &oracle_records(&bytes, b','));
            prop_assert_eq!(&scanner_ingest(&bytes, b',', chunk), &expected, "chunk {}", chunk);
        }
    }
}

/// Fixed cases the soups reach only by chance, each against the oracle.
#[test]
fn scanner_matches_the_byte_reader_on_edge_cases() {
    let cases: [&[u8]; 22] = [
        b"",
        b"\r",
        b"\"\"",
        b"a\n\"\"",
        b"a\n\r\r",
        b"a\n\n\nb",
        b"a,b\r\n1,2",
        b"a,\"\"\r\n",
        b"\"a\"b,c\n",
        b"\"a\"\"\",\"\"\"\"\n",
        b"\"\"\r\"b\"\n",
        b"\r\"x\",y\n",
        b"\"a\"\r\"\n",
        b"a\rb,c\r\r\n",
        b"\xC3\r\xA9,x\n",
        b"\"\xC3\"\xA9,x\n",
        b"\xFF,\"oops\n",
        b"ok,\"two\nlines\",\xFF\n",
        b"\"open\nstill\nopen",
        b"x\"y\n",
        b"a,b\n1,2\n3\n",
        b"\"\xC3\xA9\",\"\"\"\xC3\xA9\"\"\"\r\n",
    ];
    for bytes in cases {
        let expected = oracle_records(bytes, b',');
        for chunk in CHUNKS {
            assert_eq!(
                scanner_records(bytes, b',', chunk),
                expected,
                "{:?} in {chunk}-byte reads",
                String::from_utf8_lossy(bytes)
            );
            assert_eq!(
                scanner_ingest(bytes, b',', chunk),
                oracle_ingest(bytes, b','),
                "{:?} in {chunk}-byte reads",
                String::from_utf8_lossy(bytes)
            );
        }
    }
}

/// A record longer than the 64 KiB buffer grows it and comes out whole,
/// with the lines after it numbered on.
#[test]
fn a_record_longer_than_the_buffer_grows_it() {
    let long = "v".repeat(200 * 1024);
    let text = format!("a,b\n\"{long}\",\"x\"\"\ny\"\n1,2\n");
    for chunk in CHUNKS {
        let records = scanner_records(text.as_bytes(), b',', chunk);
        assert_eq!(records, oracle_records(text.as_bytes(), b','));
        assert_eq!(records.len(), 3);
        let long_record = records[1].as_ref().unwrap();
        assert_eq!(long_record.fields, vec![long.clone(), "x\"\ny".to_string()]);
        assert_eq!(records[2].as_ref().unwrap().line, 4);
    }
}
