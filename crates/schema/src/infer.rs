//! Per-column type voting and statistics over a streaming sample.
//!
//! The `infer` third of the contract: given the probe's delimiter, read a
//! bounded sample of records and vote each column into one of five types
//! (int / float / date-like / categorical / free-text), tracking null
//! rate, cardinality, and uniqueness along the way. The vote tolerates
//! mess — a numeric column with a few `N/A` cells is still numeric — which
//! is exactly what makes the derived hierarchies (see [`crate::derive`])
//! usable on real files.

use std::collections::HashMap;

use kanon_relation::csv::Reader;

use crate::error::{Error, Result};
use crate::probe::{probe_bytes, read_sample, ProbeReport, SAMPLE_BYTES};

/// A value must win this fraction of non-null votes for a numeric/date
/// verdict; below it the column falls back to categorical or text.
const VOTE_THRESHOLD: f64 = 0.9;

/// Distinct-value tracking stops growing past this many entries; the
/// column is clearly not categorical by then and exact cardinality stops
/// mattering.
const DISTINCT_CAP: usize = 100_000;

/// Default number of data records the convenience entry points sample.
pub const DEFAULT_SAMPLE_ROWS: usize = 10_000;

/// Strings treated as null/missing markers (case-insensitive, trimmed).
pub const NULL_MARKERS: [&str; 7] = ["", "na", "n/a", "null", "none", "-", "?"];

/// Whether `raw` is a null/missing marker.
#[must_use]
pub fn is_null(raw: &str) -> bool {
    let t = raw.trim();
    t.is_empty() || NULL_MARKERS.iter().any(|m| t.eq_ignore_ascii_case(m))
}

/// The five-way type verdict for a column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColumnType {
    /// ≥ 90% of non-null values parse as `i64`.
    Int,
    /// ≥ 90% parse as `f64` (with at least one non-integer).
    Float,
    /// ≥ 90% look like dates (three numeric groups split by `-` or `/`,
    /// one group of four digits).
    Date,
    /// Few distinct values relative to the sample (an enum-like column).
    Categorical,
    /// Everything else.
    Text,
}

impl ColumnType {
    /// The `.schema`-file keyword for this type.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ColumnType::Int => "int",
            ColumnType::Float => "float",
            ColumnType::Date => "date",
            ColumnType::Categorical => "categorical",
            ColumnType::Text => "text",
        }
    }

    /// Inverse of [`ColumnType::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "int" => ColumnType::Int,
            "float" => ColumnType::Float,
            "date" => ColumnType::Date,
            "categorical" => ColumnType::Categorical,
            "text" => ColumnType::Text,
            _ => return None,
        })
    }
}

/// Whether `t` (already trimmed) looks like a date: three numeric groups
/// separated by `-` or `/`, exactly one of four digits (the year).
fn is_date_like(t: &str) -> bool {
    let sep = if t.contains('-') {
        '-'
    } else if t.contains('/') {
        '/'
    } else {
        return false;
    };
    let parts: Vec<&str> = t.split(sep).collect();
    if parts.len() != 3 {
        return false;
    }
    if !parts
        .iter()
        .all(|p| !p.is_empty() && p.bytes().all(|b| b.is_ascii_digit()))
    {
        return false;
    }
    let four_digit = parts.iter().filter(|p| p.len() == 4).count();
    let short = parts.iter().filter(|p| (1..=2).contains(&p.len())).count();
    four_digit == 1 && short == 2
}

/// What inference concluded about one column.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnProfile {
    /// Header name.
    pub name: String,
    /// Voted type.
    pub ctype: ColumnType,
    /// Fraction of sampled cells that were null markers.
    pub null_rate: f64,
    /// Distinct non-null values seen (saturates at an internal cap).
    pub distinct: usize,
    /// `distinct / non-null cells` ∈ [0, 1]; 1.0 means every value unique.
    pub uniqueness: f64,
    /// Shannon entropy of the non-null value distribution, in nats
    /// (computed over the tracked values; saturates with the distinct
    /// cap). `exp(entropy)` is the column's *effective diversity* — the
    /// largest entropy-l-diversity target any release of it could meet.
    pub entropy: f64,
    /// Longest non-null value, in characters.
    pub max_len: usize,
    /// Minimum integer seen (Int columns; junk cells excluded).
    pub min_int: Option<i64>,
    /// Maximum integer seen (Int columns).
    pub max_int: Option<i64>,
}

impl ColumnProfile {
    /// Quasi-identifier score: high-uniqueness, low-null columns rank
    /// first, per the re-identification risk they carry.
    #[must_use]
    pub fn quasi_score(&self) -> f64 {
        self.uniqueness * (1.0 - self.null_rate)
    }

    /// Effective diversity `exp(entropy)`: the ceiling on any entropy-l
    /// target a release keyed elsewhere could hold this column to.
    #[must_use]
    pub fn effective_l(&self) -> f64 {
        self.entropy.exp()
    }
}

/// A column that could serve as the *sensitive* attribute of an
/// l-diverse / t-close release, with the stats that bound the achievable
/// constraint.
#[derive(Clone, Debug, PartialEq)]
pub struct SensitiveCandidate {
    /// Column name.
    pub name: String,
    /// Distinct values — the hard ceiling on distinct l-diversity.
    pub max_distinct_l: usize,
    /// Shannon entropy (nats) of the value distribution.
    pub entropy: f64,
    /// `exp(entropy)` — the ceiling on entropy l-diversity.
    pub effective_l: f64,
}

/// The full inference result: delimiter, per-column profiles, sample size.
#[derive(Clone, Debug, PartialEq)]
pub struct InferredSchema {
    /// Detected field delimiter.
    pub delimiter: u8,
    /// Data records examined.
    pub rows_sampled: usize,
    /// Records whose field count disagreed with the header (missing fields
    /// were treated as null, extras ignored).
    pub ragged_rows: usize,
    /// One profile per header column, in header order.
    pub columns: Vec<ColumnProfile>,
}

impl InferredSchema {
    /// Looks up a column profile by name.
    #[must_use]
    pub fn column(&self, name: &str) -> Option<&ColumnProfile> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Column names ranked by [`ColumnProfile::quasi_score`], best first;
    /// zero-score columns (all-null) are omitted. This is the suggestion
    /// the pipeline uses when no `--quasi` list is given.
    #[must_use]
    pub fn quasi_suggestion(&self) -> Vec<String> {
        let mut ranked: Vec<&ColumnProfile> = self
            .columns
            .iter()
            .filter(|c| c.quasi_score() > 0.0)
            .collect();
        ranked.sort_by(|a, b| {
            b.quasi_score()
                .partial_cmp(&a.quasi_score())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.name.cmp(&b.name))
        });
        ranked.into_iter().map(|c| c.name.clone()).collect()
    }

    /// Screens columns for *sensitive-attribute* duty: low-uniqueness
    /// repeating columns (categorical or enum-like) whose value
    /// distribution could support an l-diversity constraint at all
    /// (≥ 2 distinct values). Ranked by effective diversity, best first —
    /// the complement of [`InferredSchema::quasi_suggestion`], which ranks
    /// columns by how strongly they *key* a release.
    #[must_use]
    pub fn sensitive_screening(&self) -> Vec<SensitiveCandidate> {
        let mut found: Vec<SensitiveCandidate> = self
            .columns
            .iter()
            .filter(|c| c.distinct >= 2 && c.uniqueness <= 0.5 && c.null_rate < 1.0)
            .map(|c| SensitiveCandidate {
                name: c.name.clone(),
                max_distinct_l: c.distinct,
                entropy: c.entropy,
                effective_l: c.effective_l(),
            })
            .collect();
        found.sort_by(|a, b| {
            b.effective_l
                .partial_cmp(&a.effective_l)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.name.cmp(&b.name))
        });
        found
    }
}

/// Per-column accumulator for one inference pass.
struct Accumulator {
    cells: usize,
    nulls: usize,
    ints: usize,
    floats: usize,
    dates: usize,
    /// Value → occurrence count; key growth stops at the distinct cap but
    /// already-tracked values keep counting so entropy stays meaningful.
    distinct: HashMap<String, usize>,
    max_len: usize,
    min_int: Option<i64>,
    max_int: Option<i64>,
}

impl Accumulator {
    fn new() -> Self {
        Accumulator {
            cells: 0,
            nulls: 0,
            ints: 0,
            floats: 0,
            dates: 0,
            distinct: HashMap::new(),
            max_len: 0,
            min_int: None,
            max_int: None,
        }
    }

    fn observe(&mut self, raw: &str) {
        self.cells += 1;
        if is_null(raw) {
            self.nulls += 1;
            return;
        }
        let t = raw.trim();
        self.max_len = self.max_len.max(t.chars().count());
        if self.distinct.len() < DISTINCT_CAP {
            *self.distinct.entry(t.to_string()).or_insert(0) += 1;
        } else if let Some(count) = self.distinct.get_mut(t) {
            *count += 1;
        }
        if let Ok(v) = t.parse::<i64>() {
            self.ints += 1;
            self.min_int = Some(self.min_int.map_or(v, |m| m.min(v)));
            self.max_int = Some(self.max_int.map_or(v, |m| m.max(v)));
        } else if t.parse::<f64>().is_ok() {
            self.floats += 1;
        } else if is_date_like(t) {
            self.dates += 1;
        }
    }

    fn finish(self, name: String) -> ColumnProfile {
        let non_null = self.cells - self.nulls;
        let frac = |c: usize| {
            if non_null == 0 {
                0.0
            } else {
                c as f64 / non_null as f64
            }
        };
        // Categorical threshold: an enum-like column repeats values many
        // times; scale with sample size so tiny samples don't call
        // everything categorical.
        let categorical_max = 12.max(non_null / 20);
        let ctype = if non_null == 0 {
            ColumnType::Text
        } else if frac(self.dates) >= VOTE_THRESHOLD {
            ColumnType::Date
        } else if frac(self.ints) >= VOTE_THRESHOLD {
            ColumnType::Int
        } else if frac(self.ints + self.floats) >= VOTE_THRESHOLD {
            ColumnType::Float
        } else if self.distinct.len() <= categorical_max && frac(self.distinct.len()) <= 0.5 {
            // Enum-like: few distinct values, each repeating — a column of
            // all-distinct strings is text no matter how small the sample.
            ColumnType::Categorical
        } else {
            ColumnType::Text
        };
        let keep_range = ctype == ColumnType::Int;
        let tracked: usize = self.distinct.values().sum();
        let entropy = if tracked == 0 {
            0.0
        } else {
            -self
                .distinct
                .values()
                .map(|&c| {
                    let p = c as f64 / tracked as f64;
                    p * p.ln()
                })
                .sum::<f64>()
        };
        ColumnProfile {
            name,
            ctype,
            null_rate: if self.cells == 0 {
                0.0
            } else {
                self.nulls as f64 / self.cells as f64
            },
            distinct: self.distinct.len(),
            uniqueness: frac(self.distinct.len()),
            entropy: entropy.max(0.0),
            max_len: self.max_len,
            min_int: if keep_range { self.min_int } else { None },
            max_int: if keep_range { self.max_int } else { None },
        }
    }
}

/// Infers a schema from a byte sample. `truncated` marks a sample cut from
/// a longer stream: the trailing partial record is then dropped rather
/// than counted, and a syntax error at the very end is forgiven.
///
/// # Errors
/// [`Error::Unprobeable`] when no delimiter can be established or the
/// header is missing; [`Error::Relation`] on CSV syntax errors in an
/// untruncated sample.
pub fn infer_bytes(sample: &[u8], truncated: bool, max_rows: usize) -> Result<InferredSchema> {
    let probe = probe_bytes(sample, truncated)?;
    infer_with_probe(sample, truncated, max_rows, &probe)
}

/// As [`infer_bytes`] with an already-computed probe (avoids re-probing
/// when the caller wants both reports).
///
/// # Errors
/// As [`infer_bytes`].
pub fn infer_with_probe(
    sample: &[u8],
    truncated: bool,
    max_rows: usize,
    probe: &ProbeReport,
) -> Result<InferredSchema> {
    let mut reader = Reader::with_delimiter(sample, probe.delimiter);
    let header = match reader.read_record() {
        Ok(Some(rec)) => rec.fields,
        Ok(None) => return Err(Error::Unprobeable("no header record".into())),
        Err(e) => return Err(e.into()),
    };
    if header.iter().all(|h| h.trim().is_empty()) {
        return Err(Error::Unprobeable("header record is all-blank".into()));
    }
    let mut accs: Vec<Accumulator> = header.iter().map(|_| Accumulator::new()).collect();
    // One record past `max_rows` is read, as a truncated sample's final
    // record may be cut and is discarded instead of skewing stats.
    let mut records: Vec<Vec<String>> = Vec::new();
    while max_rows > 0 && records.len() <= max_rows {
        match reader.read_record() {
            Ok(Some(rec)) => records.push(rec.fields),
            Ok(None) => break,
            // A cut quoted field at the end of the sample.
            Err(_) if truncated => break,
            Err(e) => return Err(e.into()),
        }
    }
    if truncated {
        records.pop();
    }
    records.truncate(max_rows);
    for record in &records {
        for (j, acc) in accs.iter_mut().enumerate() {
            acc.observe(record.get(j).map_or("", String::as_str));
        }
    }
    let rows = records.len();
    let ragged = records.iter().filter(|r| r.len() != header.len()).count();
    if rows == 0 {
        return Err(Error::Unprobeable("no data records in sample".into()));
    }
    let columns = accs
        .into_iter()
        .zip(header)
        .map(|(acc, name)| acc.finish(name.trim().to_string()))
        .collect();
    Ok(InferredSchema {
        delimiter: probe.delimiter,
        rows_sampled: rows,
        ragged_rows: ragged,
        columns,
    })
}

/// Probes and infers from any reader, sampling up to
/// [`crate::probe::SAMPLE_BYTES`] bytes and [`DEFAULT_SAMPLE_ROWS`] rows.
///
/// # Errors
/// As [`infer_bytes`], plus I/O errors from the reader.
pub fn infer_reader<R: std::io::Read>(reader: &mut R) -> Result<InferredSchema> {
    let sample = read_sample(reader)?;
    infer_bytes(&sample, sample.len() == SAMPLE_BYTES, DEFAULT_SAMPLE_ROWS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn infer(text: &str) -> InferredSchema {
        infer_bytes(text.as_bytes(), false, usize::MAX).unwrap()
    }

    #[test]
    fn types_vote_cleanly() {
        let s = infer(
            "age,score,born,race,note\n\
             34,1.5,1990-02-03,Cauc,likes long walks\n\
             47,2.25,1985-11-30,Hisp,writes poetry\n\
             22,0.5,2001-01-01,Cauc,collects stamps\n",
        );
        assert_eq!(s.delimiter, b',');
        assert_eq!(s.rows_sampled, 3);
        assert_eq!(s.column("age").unwrap().ctype, ColumnType::Int);
        assert_eq!(s.column("score").unwrap().ctype, ColumnType::Float);
        assert_eq!(s.column("born").unwrap().ctype, ColumnType::Date);
        // Three rows, three distinct notes: unique → text, not categorical.
        assert_eq!(s.column("note").unwrap().ctype, ColumnType::Text);
        assert_eq!(s.column("age").unwrap().min_int, Some(22));
        assert_eq!(s.column("age").unwrap().max_int, Some(47));
    }

    #[test]
    fn nulls_do_not_flip_numeric_columns() {
        // One junk cell out of 12 values stays under the 10% tolerance.
        let mut text = String::from("age\n");
        for i in 0..11 {
            text.push_str(&format!("{}\n", 20 + i));
        }
        text.push_str("N/A\n");
        let s = infer(&text);
        let col = s.column("age").unwrap();
        assert_eq!(col.ctype, ColumnType::Int);
        assert!((col.null_rate - 1.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    fn categorical_detection() {
        let mut text = String::from("race\n");
        for i in 0..100 {
            text.push_str(["Cauc", "Hisp", "Afr-Am"][i % 3]);
            text.push('\n');
        }
        let s = infer(&text);
        let col = s.column("race").unwrap();
        assert_eq!(col.ctype, ColumnType::Categorical);
        assert_eq!(col.distinct, 3);
        assert!(col.uniqueness < 0.05);
    }

    #[test]
    fn semicolon_and_ragged_rows() {
        let s = infer("a;b;c\n1;2;3\n4;5\n6;7;8;9\n");
        assert_eq!(s.delimiter, b';');
        assert_eq!(s.rows_sampled, 3);
        assert_eq!(s.ragged_rows, 2);
        // Short row's missing cell counts as null for column c.
        let c = s.column("c").unwrap();
        assert!(c.null_rate > 0.0);
    }

    #[test]
    fn quasi_ranking_prefers_unique_low_null() {
        let s = infer(
            "id,race,half\n\
             a1,Cauc,x\n\
             b2,Cauc,NA\n\
             c3,Cauc,y\n\
             d4,Cauc,NA\n",
        );
        let ranked = s.quasi_suggestion();
        assert_eq!(ranked[0], "id"); // uniqueness 1.0, no nulls
        assert_eq!(*ranked.last().unwrap(), "race"); // 1 distinct over 4
        assert!(ranked.contains(&"half".to_string()));
    }

    #[test]
    fn entropy_tracks_value_distribution() {
        // Uniform over 4 values → ln 4; constant column → 0.
        let mut text = String::from("race,flag\n");
        for i in 0..100 {
            text.push_str(["Cauc", "Hisp", "Afr-Am", "Asian"][i % 4]);
            text.push_str(",y\n");
        }
        let s = infer(&text);
        let race = s.column("race").unwrap();
        assert!((race.entropy - 4.0f64.ln()).abs() < 1e-9);
        assert!((race.effective_l() - 4.0).abs() < 1e-9);
        assert_eq!(s.column("flag").unwrap().entropy, 0.0);
    }

    #[test]
    fn skew_lowers_entropy_below_distinct_count() {
        // 97 of one value, 1 each of three others: 4 distinct but nowhere
        // near ln 4 of entropy — distinct-l would overstate the diversity.
        let mut text = String::from("diag\n");
        for _ in 0..97 {
            text.push_str("flu\n");
        }
        text.push_str("gout\nzika\nmmr\n");
        let s = infer(&text);
        let col = s.column("diag").unwrap();
        assert_eq!(col.distinct, 4);
        assert!(col.entropy > 0.0 && col.entropy < 4.0f64.ln() / 2.0);
        assert!(col.effective_l() < 2.0);
    }

    #[test]
    fn sensitive_screening_ranks_repeating_columns() {
        let mut text = String::from("id,race,diag\n");
        for i in 0..100 {
            text.push_str(&format!(
                "u{i},{},{}\n",
                ["Cauc", "Hisp"][i % 2],
                ["flu", "gout", "zika", "mmr"][i % 4]
            ));
        }
        let s = infer(&text);
        let found = s.sensitive_screening();
        let names: Vec<&str> = found.iter().map(|c| c.name.as_str()).collect();
        // id is all-unique — a key, never a sensitive candidate.
        assert!(!names.contains(&"id"));
        // diag (4 uniform values) outranks race (2).
        assert_eq!(names, vec!["diag", "race"]);
        assert_eq!(found[0].max_distinct_l, 4);
        assert!((found[0].effective_l - 4.0).abs() < 1e-9);
        assert!((found[1].effective_l - 2.0).abs() < 1e-9);
    }

    #[test]
    fn all_null_column_scores_zero() {
        let s = infer("x,y\n1,NA\n2,\n3,null\n");
        let y = s.column("y").unwrap();
        assert_eq!(y.ctype, ColumnType::Text);
        assert_eq!(y.quasi_score(), 0.0);
        assert!(!s.quasi_suggestion().contains(&"y".to_string()));
    }

    #[test]
    fn truncated_sample_drops_cut_tail() {
        // Sample cut mid-record: `47,Hi` must not contribute.
        let s = infer_bytes(b"age,race\n34,Cauc\n22,Hisp\n47,Hi", true, usize::MAX).unwrap();
        assert_eq!(s.rows_sampled, 2);
        assert_eq!(s.column("race").unwrap().distinct, 2);
        // Untruncated, the tail is a real record.
        let s = infer_bytes(b"age,race\n34,Cauc\n22,Hisp\n47,Hi", false, usize::MAX).unwrap();
        assert_eq!(s.rows_sampled, 3);
    }

    #[test]
    fn max_rows_caps_the_scan() {
        let s = infer_bytes(b"a\n1\n2\n3\n4\n5\n", false, 2).unwrap();
        assert_eq!(s.rows_sampled, 2);
    }

    #[test]
    fn degenerate_inputs_error() {
        assert!(matches!(
            infer_bytes(b"", false, 10),
            Err(Error::Unprobeable(_))
        ));
        assert!(matches!(
            infer_bytes(b"a,b\n", false, 10),
            Err(Error::Unprobeable(_))
        ));
        assert!(matches!(
            infer_bytes(b",,\n1,2,3\n", false, 10),
            Err(Error::Unprobeable(_))
        ));
    }

    #[test]
    fn date_detection_shapes() {
        assert!(is_date_like("1990-02-03"));
        assert!(is_date_like("3/2/1990"));
        assert!(is_date_like("1990/2/3"));
        assert!(!is_date_like("1990-02"));
        assert!(!is_date_like("19-02-03")); // no 4-digit year
        assert!(!is_date_like("1990-022-03"));
        assert!(!is_date_like("a-b-c"));
        assert!(!is_date_like("1234"));
    }

    #[test]
    fn null_markers_recognized() {
        for m in ["", " ", "NA", "n/a", "NULL", "None", "-", "?", " na "] {
            assert!(is_null(m), "{m:?}");
        }
        assert!(!is_null("0"));
        assert!(!is_null("--"));
    }

    #[test]
    fn infer_reader_end_to_end() {
        let mut cursor = std::io::Cursor::new(b"a|b\n1|x\n2|y\n".to_vec());
        let s = infer_reader(&mut cursor).unwrap();
        assert_eq!(s.delimiter, b'|');
        assert_eq!(s.rows_sampled, 2);
    }
}
