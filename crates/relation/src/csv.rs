//! Minimal CSV reader/writer (RFC 4180 subset).
//!
//! Supports quoted fields with embedded commas, quotes (doubled), and
//! newlines; rejects ragged rows against the header. Deliberately small —
//! this is a data-ingestion convenience for the examples and CLI, not a
//! general CSV library.
//!
//! Every entry point shares one scanner. [`Reader`] streams any
//! [`std::io::Read`] through one reused buffer (64 KiB, grown only for a
//! record longer than it), so a multi-gigabyte file is never in memory at
//! once, and scans each record in place into field byte ranges plus its
//! 1-based line. A value is copied, into a scratch buffer, only when it is
//! not a contiguous run of input bytes: a doubled quote, an unquoted `\r`,
//! or bytes after a closing quote.
//!
//! * [`Reader::read_fields`] lends a record's fields as `&str` over that
//!   buffer — the ingestion path of the sharded pipeline, which encodes
//!   them without a `String` per field.
//! * [`Reader::read_record`] copies them into an owned [`Record`].
//! * [`parse`] — the whole-text convenience wrapper: reads the text's
//!   records and collects a [`Table`].

use std::io;
use std::ops::Range;

use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::table::Table;

/// Parses CSV text whose first record is the header into a [`Table`].
///
/// ```
/// let t = kanon_relation::csv::parse("name,age\n\"Stone, H.\",34\n").unwrap();
/// assert_eq!(t.row(0), &["Stone, H.".to_string(), "34".to_string()]);
/// assert_eq!(kanon_relation::csv::to_string(&t), "name,age\n\"Stone, H.\",34\n");
/// ```
///
/// # Errors
/// [`Error::Csv`] on syntax problems or ragged rows; schema errors for a
/// bad header.
pub fn parse(text: &str) -> Result<Table> {
    let mut reader = Reader::new(text.as_bytes());
    let header = reader.read_record()?.ok_or(Error::Csv {
        line: 1,
        message: "missing header record".into(),
    })?;
    let schema = Schema::new(header.fields)?;
    let mut table = Table::new(schema);
    while let Some(record) = reader.read_record()? {
        table.push_row(record.fields).map_err(|e| match e {
            Error::ArityMismatch { expected, found } => Error::Csv {
                line: record.line,
                message: format!("expected {expected} fields, found {found}"),
            },
            other => other,
        })?;
    }
    Ok(table)
}

/// As [`parse`], but additionally rejects a table that has a header and no
/// data rows — the shape every `kanon` ingestion path requires, since there
/// is nothing to anonymize, verify, or attack in an empty table.
///
/// # Errors
/// As [`parse`]; additionally [`Error::EmptyTable`] on zero data rows.
pub fn parse_non_empty(text: &str) -> Result<Table> {
    let table = parse(text)?;
    if table.n_rows() == 0 {
        return Err(Error::EmptyTable);
    }
    Ok(table)
}

/// Serializes a table to CSV with a header record. Fields containing
/// commas, quotes, or newlines are quoted.
#[must_use]
pub fn to_string(table: &Table) -> String {
    let mut out = String::new();
    write_record(&mut out, table.schema().names().iter().map(String::as_str));
    for row in table.rows() {
        write_record(&mut out, row.iter().map(String::as_str));
    }
    out
}

/// Appends one CSV record (RFC-4180 quoting for fields containing commas,
/// quotes, or newlines) and a trailing newline to `out`. The building
/// block of [`to_string`], public so streaming writers can emit one record
/// at a time without materializing a [`Table`].
pub fn write_record<'a>(out: &mut String, fields: impl Iterator<Item = &'a str>) {
    let mut first = true;
    for field in fields {
        if !first {
            out.push(',');
        }
        first = false;
        if field.contains([',', '"', '\n', '\r']) {
            out.push('"');
            for ch in field.chars() {
                if ch == '"' {
                    out.push('"');
                }
                out.push(ch);
            }
            out.push('"');
        } else {
            out.push_str(field);
        }
    }
    out.push('\n');
}

/// One parsed CSV record: its fields and the 1-based line it started on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// 1-based line number of the record's first character.
    pub line: usize,
    /// The record's fields, unescaped.
    pub fields: Vec<String>,
}

/// Where a field's value lies in its record's bytes; `raw` when the range
/// still holds the quotes or unquoted `\r`s to unescape.
#[derive(Clone, Debug)]
struct Span {
    range: Range<usize>,
    raw: bool,
}

/// How a scan of the buffered bytes ended.
enum Scan {
    /// The bytes end inside a record: refill and scan it again.
    More,
    /// No record is left.
    End,
    /// A record of `len` bytes, terminator included, over `newlines` line
    /// breaks.
    Record { len: usize, newlines: usize },
    /// A syntax error `newlines` line breaks into the record.
    Error {
        newlines: usize,
        message: &'static str,
    },
}

/// Scans the record at the start of `s` into `spans`. This is the RFC
/// 4180 state machine, run over a slice: it notes where each value lies
/// and copies nothing. A value stays one run of input bytes until a
/// doubled quote, or a byte after a skipped `\r` or a closing quote, makes
/// it raw.
fn scan_record(s: &[u8], eof: bool, delim: u8, spans: &mut Vec<Span>) -> Scan {
    spans.clear();
    let (mut quoted, mut newlines, mut start) = (false, 0, 0);
    let (mut value, mut raw) = (0..0, false);
    let mut j = 0;
    while let Some(&b) = s.get(j) {
        if quoted {
            match (b, s.get(j + 1)) {
                (b'"', Some(b'"')) => {
                    (raw, value.end) = (true, j + 2);
                    j += 1;
                }
                (b'"', _) => quoted = false,
                _ => {
                    newlines += usize::from(b == b'\n');
                    value.end = j + 1;
                }
            }
        } else if b == b'"' {
            if !value.is_empty() {
                let message = "quote inside unquoted field";
                return Scan::Error { newlines, message };
            }
            (quoted, raw) = (true, raw || j != value.end);
            value = j + 1..j + 1;
        } else if b == delim || b == b'\n' {
            let range = if raw { start..j } else { value };
            spans.push(Span { range, raw });
            if b == b'\n' {
                let (len, newlines) = (j + 1, newlines + 1);
                return Scan::Record { len, newlines };
            }
            (start, value, raw) = (j + 1, j + 1..j + 1, false);
        } else if b != b'\r' {
            raw |= j != value.end;
            j = next_special(s, j + 1, delim);
            value.end = j;
            continue;
        }
        j += 1;
    }
    if !eof {
        return Scan::More;
    }
    if quoted {
        let message = "unterminated quoted field";
        return Scan::Error { newlines, message };
    }
    // Trailing bytes that hold no value (`\r`s, `""`) make no record.
    if spans.is_empty() && value.is_empty() {
        return Scan::End;
    }
    let range = if raw { start..j } else { value };
    spans.push(Span { range, raw });
    Scan::Record { len: j, newlines }
}

/// The position of the first byte of `s[from..]` that is `delim`, a quote
/// or a line break, or `s.len()`: eight bytes at a time, each word testing
/// for the four at once.
fn next_special(s: &[u8], mut from: usize, delim: u8) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    // High bit of each byte that is zero; exact for the lowest such byte.
    let zeros = |v: u64| v.wrapping_sub(ONES) & !v & (ONES << 7);
    while let Some(word) = s.get(from..from + 8) {
        let v = u64::from_le_bytes(word.try_into().expect("eight bytes"));
        let hits = [delim, b'"', b'\n', b'\r']
            .into_iter()
            .fold(0, |hits, b| hits | zeros(v ^ (ONES * u64::from(b))));
        if hits != 0 {
            return from + (hits.trailing_zeros() / 8) as usize;
        }
        from += 8;
    }
    let tail = s[from..]
        .iter()
        .position(|&b| b == delim || matches!(b, b'"' | b'\n' | b'\r'));
    tail.map_or(s.len(), |p| from + p)
}

/// Copies the values of `record`'s fields into `scratch`, unescaping raw
/// ones, and points `spans` at the copies. The first value that is not
/// UTF-8 fails, with the line its field ends on.
fn resolve(record: &[u8], line: usize, spans: &mut [Span], scratch: &mut Vec<u8>) -> Result<()> {
    scratch.clear();
    for span in spans {
        let start = scratch.len();
        let mut quoted = false;
        let mut bytes = record[span.range.clone()].iter().copied().peekable();
        while let Some(b) = bytes.next() {
            match b {
                _ if !span.raw => scratch.push(b),
                b'"' if quoted && bytes.next_if_eq(&b'"').is_some() => scratch.push(b),
                b'"' => quoted = !quoted,
                b'\r' if !quoted => {}
                _ => scratch.push(b),
            }
        }
        if std::str::from_utf8(&scratch[start..]).is_err() {
            let newlines = record[..span.range.end].iter().filter(|&&b| b == b'\n');
            let (line, message) = (line + newlines.count(), "invalid UTF-8 in field".into());
            return Err(Error::Csv { line, message });
        }
        (span.range, span.raw) = (start..scratch.len(), false);
    }
    Ok(())
}

/// Bytes the buffer starts with. A record longer than this doubles it.
const CHUNK: usize = 64 * 1024;

/// A streaming CSV record reader over any [`io::Read`].
///
/// It holds one reused buffer, 64 KiB unless a record is longer, and never
/// the whole input. Each record is scanned in place; a value that is not a
/// contiguous run of input bytes is copied into a scratch buffer. Every
/// value is checked to be UTF-8. After a syntax error the reader yields
/// nothing more.
///
/// ```
/// use kanon_relation::csv::Reader;
/// let mut r = Reader::new("a,b\n1,\"x,y\"\n".as_bytes());
/// assert_eq!(r.read_record().unwrap().unwrap().fields, vec!["a", "b"]);
/// let (line, fields) = r.read_fields().unwrap().unwrap();
/// assert_eq!(line, 2);
/// assert_eq!(fields.collect::<Vec<_>>(), vec!["1", "x,y"]);
/// assert!(r.read_record().unwrap().is_none());
/// ```
#[derive(Debug)]
pub struct Reader<R: io::Read> {
    inner: R,
    buf: Vec<u8>,
    /// Start of the next record in `buf[..len]`.
    pos: usize,
    /// Filled prefix length of `buf`.
    len: usize,
    /// True once the underlying reader returned 0 bytes.
    eof: bool,
    /// 1-based line the next record starts on.
    line: usize,
    /// Field separator (ASCII). `,` for [`Reader::new`].
    delim: u8,
    /// The fields of the record last read.
    spans: Vec<Span>,
    /// Its values, when they could not be lent from `buf`.
    scratch: Vec<u8>,
}

impl<R: io::Read> Reader<R> {
    /// Wraps a byte source. The reader performs its own chunked buffering,
    /// so there is no need for an outer `BufReader`.
    pub fn new(inner: R) -> Self {
        Self::with_delimiter(inner, b',')
    }

    /// As [`Reader::new`], with an explicit field delimiter — `;`, `\t`,
    /// and `|` files parse with the same quoting rules. A delimiter that is
    /// not ASCII (the scanner must not split a multi-byte UTF-8 sequence),
    /// or is a quote or line break, falls back to `,`.
    ///
    /// ```
    /// use kanon_relation::csv::Reader;
    /// let mut r = Reader::with_delimiter("a;b\n1;\"x;y\"\n".as_bytes(), b';');
    /// assert_eq!(r.read_record().unwrap().unwrap().fields, vec!["a", "b"]);
    /// assert_eq!(r.read_record().unwrap().unwrap().fields, vec!["1", "x;y"]);
    /// ```
    pub fn with_delimiter(inner: R, delim: u8) -> Self {
        let plain = delim.is_ascii() && !matches!(delim, b'"' | b'\r' | b'\n');
        Reader {
            inner,
            buf: vec![0; CHUNK],
            pos: 0,
            len: 0,
            eof: false,
            line: 1,
            delim: if plain { delim } else { b',' },
            spans: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Moves the unread bytes to the front of the buffer, doubling it when
    /// they fill it, then reads until it is full or the source ends.
    fn refill(&mut self) -> Result<()> {
        self.buf.copy_within(self.pos..self.len, 0);
        (self.len, self.pos) = (self.len - self.pos, 0);
        if self.len == self.buf.len() {
            self.buf.resize(2 * self.len, 0);
        }
        while self.len < self.buf.len() && !self.eof {
            match self.inner.read(&mut self.buf[self.len..]) {
                Ok(n) => (self.len, self.eof) = (self.len + n, n == 0),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(Error::Io(e.to_string())),
            }
        }
        Ok(())
    }

    /// Reads the next record, or `None` at end of input: its 1-based line
    /// and its fields, unescaped, lent until the next read. Values that are
    /// contiguous input bytes are lent from the buffer after one UTF-8
    /// check of the whole record. A trailing newline does not produce an
    /// empty final record; a final record without one is produced normally.
    ///
    /// # Errors
    /// [`Error::Csv`] on syntax problems, [`Error::Io`] on read failures.
    pub fn read_fields(
        &mut self,
    ) -> Result<Option<(usize, impl ExactSizeIterator<Item = &str> + '_)>> {
        let line = self.line;
        let len = loop {
            let rest = &self.buf[self.pos..self.len];
            match scan_record(rest, self.eof, self.delim, &mut self.spans) {
                Scan::More => self.refill()?,
                Scan::End => return Ok(None),
                Scan::Record { len, newlines } => {
                    self.line += newlines;
                    break len;
                }
                Scan::Error { newlines, message } => {
                    (self.pos, self.eof) = (self.len, true);
                    // A value that is not UTF-8 before the error comes first.
                    resolve(rest, line, &mut self.spans, &mut self.scratch)?;
                    let (line, message) = (line + newlines, message.into());
                    return Err(Error::Csv { line, message });
                }
            }
        };
        let record = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        let text = match std::str::from_utf8(record) {
            Ok(text) if self.spans.iter().all(|s| !s.raw) => text,
            _ => {
                resolve(record, line, &mut self.spans, &mut self.scratch)?;
                std::str::from_utf8(&self.scratch).expect("resolve checked every value")
            }
        };
        let fields = self.spans.iter().map(move |s| &text[s.range.clone()]);
        Ok(Some((line, fields)))
    }

    /// As [`Reader::read_fields`], with the fields copied into a [`Record`].
    ///
    /// # Errors
    /// As [`Reader::read_fields`].
    pub fn read_record(&mut self) -> Result<Option<Record>> {
        let record = self.read_fields()?;
        Ok(record.map(|(line, fields)| Record {
            line,
            fields: fields.map(str::to_owned).collect(),
        }))
    }
}

impl<R: io::Read> Iterator for Reader<R> {
    type Item = Result<Record>;

    fn next(&mut self) -> Option<Self::Item> {
        self.read_record().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple() {
        let t = parse("a,b\n1,2\n3,4\n").unwrap();
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.row(0), &["1".to_string(), "2".to_string()]);
        assert_eq!(t.schema().names(), &["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn parse_without_trailing_newline() {
        let t = parse("a,b\n1,2").unwrap();
        assert_eq!(t.n_rows(), 1);
    }

    #[test]
    fn parse_quoted_fields() {
        let t = parse("name,notes\n\"Stone, Harry\",\"said \"\"hi\"\"\"\n").unwrap();
        assert_eq!(t.row(0)[0], "Stone, Harry");
        assert_eq!(t.row(0)[1], "said \"hi\"");
    }

    #[test]
    fn parse_quoted_newline() {
        let t = parse("a,b\n\"x\ny\",2\n").unwrap();
        assert_eq!(t.row(0)[0], "x\ny");
    }

    #[test]
    fn parse_crlf() {
        let t = parse("a,b\r\n1,2\r\n").unwrap();
        assert_eq!(t.row(0), &["1".to_string(), "2".to_string()]);
    }

    #[test]
    fn ragged_row_reports_line() {
        let err = parse("a,b\n1,2\n3\n").unwrap_err();
        assert!(matches!(err, Error::Csv { line: 3, .. }), "{err}");
    }

    #[test]
    fn unterminated_quote_is_error() {
        assert!(matches!(parse("a\n\"oops\n"), Err(Error::Csv { .. })));
    }

    #[test]
    fn stray_quote_is_error() {
        assert!(matches!(parse("a\nx\"y\n"), Err(Error::Csv { .. })));
    }

    #[test]
    fn empty_input_is_error() {
        assert!(matches!(parse(""), Err(Error::Csv { line: 1, .. })));
    }

    #[test]
    fn parse_non_empty_rejects_header_only() {
        // A bare header parses fine but carries no data rows.
        assert_eq!(parse("a,b\n").unwrap().n_rows(), 0);
        assert!(matches!(parse_non_empty("a,b\n"), Err(Error::EmptyTable)));
        assert!(matches!(parse_non_empty("a,b"), Err(Error::EmptyTable)));
        // With data it behaves exactly like `parse`.
        assert_eq!(parse_non_empty("a,b\n1,2\n").unwrap().n_rows(), 1);
        // Syntax errors still surface as such, not as emptiness.
        assert!(matches!(parse_non_empty(""), Err(Error::Csv { .. })));
    }

    #[test]
    fn roundtrip_with_escaping() {
        let mut t = Table::new(Schema::new(vec!["x", "y"]).unwrap());
        t.push_str_row(&["plain", "with,comma"]).unwrap();
        t.push_str_row(&["with\"quote", "with\nnewline"]).unwrap();
        let text = to_string(&t);
        let back = parse(&text).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn proptest_roundtrip_arbitrary_fields() {
        use proptest::prelude::*;
        let field = proptest::string::string_regex("[ -~\n]{0,12}").expect("valid regex");
        let mut runner = proptest::test_runner::TestRunner::default();
        runner
            .run(
                &proptest::collection::vec(proptest::collection::vec(field, 3), 1..6),
                |rows| {
                    let schema = Schema::new(vec!["c0", "c1", "c2"]).expect("distinct names");
                    let mut t = Table::new(schema);
                    for row in rows {
                        t.push_row(row).expect("arity 3");
                    }
                    let text = to_string(&t);
                    let back = parse(&text)
                        .map_err(|e| proptest::test_runner::TestCaseError::fail(format!("{e}")))?;
                    prop_assert_eq!(back, t);
                    Ok(())
                },
            )
            .expect("CSV writer/parser roundtrip must hold for printable fields");
    }

    #[test]
    fn reader_with_alternate_delimiters() {
        for (text, delim) in [
            ("a;b\n1;2\n", b';'),
            ("a\tb\n1\t2\n", b'\t'),
            ("a|b\n1|2\n", b'|'),
        ] {
            let recs: Vec<Record> = Reader::with_delimiter(text.as_bytes(), delim)
                .collect::<Result<Vec<_>>>()
                .unwrap();
            assert_eq!(recs.len(), 2, "{text:?}");
            assert_eq!(recs[1].fields, vec!["1", "2"]);
        }
        // Quoting still protects the delimiter; commas are now plain bytes.
        let recs: Vec<Record> = Reader::with_delimiter("a;b\n\"x;y\";1,2\n".as_bytes(), b';')
            .collect::<Result<Vec<_>>>()
            .unwrap();
        assert_eq!(recs[1].fields, vec!["x;y", "1,2"]);
        // A non-ASCII delimiter byte falls back to comma.
        let recs: Vec<Record> = Reader::with_delimiter("a,b\n1,2\n".as_bytes(), 0xC3)
            .collect::<Result<Vec<_>>>()
            .unwrap();
        assert_eq!(recs[1].fields, vec!["1", "2"]);
    }

    /// An `io::Read` that yields at most one byte per call, forcing the
    /// streaming reader through every refill boundary.
    struct OneByte<'a>(&'a [u8]);

    impl std::io::Read for OneByte<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.split_first() {
                Some((&b, rest)) if !buf.is_empty() => {
                    buf[0] = b;
                    self.0 = rest;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    fn records(text: &str) -> Vec<Record> {
        Reader::new(text.as_bytes())
            .collect::<Result<Vec<_>>>()
            .unwrap()
    }

    #[test]
    fn reader_streams_records_with_lines() {
        let recs = records("a,b\n1,2\n3,4\n");
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].line, 1);
        assert_eq!(recs[2].line, 3);
        assert_eq!(recs[2].fields, vec!["3", "4"]);
    }

    #[test]
    fn reader_crlf_and_trailing_newline_edge_cases() {
        // CRLF terminators: the \r never reaches a field.
        let recs = records("a,b\r\n1,2\r\n");
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].fields, vec!["1", "2"]);
        // A trailing newline yields no phantom empty record...
        assert_eq!(records("a\n1\n").len(), 2);
        // ...while a missing one still yields the final record.
        let recs = records("a\n1");
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].fields, vec!["1"]);
        // A lone final CR is swallowed, not a record.
        assert_eq!(records("a\n1\r\n").len(), 2);
        // Blank line = one record with a single empty field (RFC 4180
        // treats it as a record; `parse` then rejects it as ragged).
        let recs = records("x\n\ny\n");
        assert_eq!(recs[1].fields, vec![""]);
    }

    #[test]
    fn reader_survives_refill_boundaries() {
        // Quoted fields with embedded delimiters, doubled quotes, and CRLF,
        // delivered one byte at a time: every state-machine transition
        // crosses a refill.
        let text = "name,notes\r\n\"Stone, H.\",\"said \"\"hi\"\"\r\nbye\"\r\nplain,x\r\n";
        let recs: Vec<Record> = Reader::new(OneByte(text.as_bytes()))
            .collect::<Result<Vec<_>>>()
            .unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[1].fields[0], "Stone, H.");
        assert_eq!(recs[1].fields[1], "said \"hi\"\r\nbye");
        // Record 2's quoted field spans a newline, so record 3 starts on
        // line 4.
        assert_eq!(recs[2].line, 4);
    }

    #[test]
    fn reader_rejects_invalid_utf8() {
        let bytes: &[u8] = b"a,b\n\xFF\xFE,2\n";
        let err = Reader::new(bytes).collect::<Result<Vec<_>>>().unwrap_err();
        assert!(matches!(err, Error::Csv { line: 2, .. }), "{err}");
        assert!(err.to_string().contains("UTF-8"));
    }

    #[test]
    fn reader_propagates_io_errors() {
        struct Broken;
        impl std::io::Read for Broken {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
        }
        let err = Reader::new(Broken).read_record().unwrap_err();
        assert!(matches!(err, Error::Io(_)), "{err}");
        assert!(err.to_string().contains("disk on fire"));
    }

    #[test]
    fn parse_is_a_thin_wrapper_over_reader() {
        // Identical outcomes for good and bad inputs.
        let good = "a,b\n\"1,x\",2\n";
        let via_reader: Vec<Record> = records(good);
        let via_parse = parse(good).unwrap();
        assert_eq!(via_parse.n_rows() + 1, via_reader.len());
        assert_eq!(via_parse.row(0)[0], via_reader[1].fields[0]);
    }

    #[test]
    fn empty_fields_roundtrip() {
        let t = parse("a,b\n,\nx,\n").unwrap();
        assert_eq!(t.row(0), &[String::new(), String::new()]);
        assert_eq!(t.row(1), &["x".to_string(), String::new()]);
        let text = to_string(&t);
        assert_eq!(parse(&text).unwrap(), t);
    }
}
