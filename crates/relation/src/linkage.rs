//! Linkage attacks: measuring the re-identification risk k-anonymity
//! prevents.
//!
//! The paper's motivating scenario (§1) is an attacker who joins a released
//! table against public information ("Who had an X-ray yesterday?" plus a
//! voter roll) on quasi-identifier attributes. This module implements that
//! attacker: for each external record it finds the released records
//! *consistent* with it — a star matches anything — and reports how many
//! external individuals map to exactly one released record. By definition,
//! a k-anonymous release can never produce a candidate set smaller than `k`
//! for an attacker joining on the released attributes (each released record
//! has `k−1` twins), which experiment E17 verifies empirically.

use std::collections::HashMap;
use std::hash::Hash;

use crate::error::Result;
use crate::table::Table;

/// Outcome of a linkage attack.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkageReport {
    /// Number of external records attacked.
    pub attacked: usize,
    /// External records whose candidate set has exactly one member —
    /// re-identified outright.
    pub unique_matches: usize,
    /// External records with no consistent released record (the external
    /// data was stale or out of scope).
    pub no_match: usize,
    /// Mean candidate-set size over external records with ≥ 1 candidate.
    pub mean_candidates: f64,
    /// Smallest non-zero candidate set seen.
    pub min_candidates: usize,
    /// Expected attacker success: the mean over attacked records of
    /// `1 / |candidates|` (0 for no-match records). This is the probability
    /// a uniformly-guessing attacker names the right released record, so —
    /// unlike [`LinkageReport::unique_matches`], which saturates at 0 for
    /// every `k ≥ 2` — it keeps *strictly* falling as candidate sets grow,
    /// which makes it the right y-axis for attack-vs-loss sweeps.
    pub expected_success: f64,
}

impl LinkageReport {
    /// Fraction of attacked records re-identified, in `[0, 1]`.
    #[must_use]
    pub fn reidentification_rate(&self) -> f64 {
        if self.attacked == 0 {
            0.0
        } else {
            self.unique_matches as f64 / self.attacked as f64
        }
    }
}

/// Whether released value `r` is consistent with external value `e`:
/// equal, or suppressed (`*`), or an interval band containing `e`.
fn consistent(released: &str, external: &str) -> bool {
    if released == "*" || released == external {
        return true;
    }
    // Interval bands "lo-hi" from the generalization hierarchies.
    if let Some((lo, hi)) = released.split_once('-') {
        if let (Ok(lo), Ok(hi), Ok(v)) = (
            lo.parse::<i64>(),
            hi.parse::<i64>(),
            external.parse::<i64>(),
        ) {
            return lo <= v && v <= hi;
        }
    }
    // Prefix masks "021**".
    if released.contains('*') {
        let prefix: String = released.chars().take_while(|&c| c != '*').collect();
        let stars = released.chars().filter(|&c| c == '*').count();
        return external.starts_with(&prefix)
            && external.chars().count() == prefix.chars().count() + stars;
    }
    false
}

/// Whether a released cell is a pattern: an interval or prefix mask that
/// matches by [`consistent`] rather than by equality. A bare star is not
/// one.
fn is_pattern(released: &str) -> bool {
    released != "*" && released.contains(['*', '-'])
}

/// The released side of a linkage attack, indexed so an external record
/// costs one hash lookup per distinct star mask instead of one comparison
/// per released record.
///
/// Released rows without a pattern cell are grouped by star mask (the set
/// of starred columns), then counted per projection onto the unstarred
/// columns: such a row is consistent with an external record exactly when
/// that projection is equal. A k-anonymous release holds few distinct
/// masks, and never more than its starred rows plus one. Rows with a
/// pattern cell are counted per distinct key and scanned with the
/// consistency rules of [`linkage_attack`].
#[derive(Clone, Debug)]
pub struct LinkageIndex<'a> {
    /// One entry per distinct star mask: its unstarred columns, and the
    /// released rows counted per projection onto those columns.
    masks: Vec<(Vec<usize>, Counts<&'a str>)>,
    /// Released keys holding a pattern cell (`None` is a star), counted.
    patterns: Counts<Option<&'a str>>,
}

/// Released rows counted per key.
type Counts<T> = HashMap<Vec<T>, usize>;

/// Counts one more row under `key`, allocating only for a new key.
fn bump<T: Clone + Eq + Hash>(counts: &mut Counts<T>, key: &[T]) {
    match counts.get_mut(key) {
        Some(n) => *n += 1,
        None => {
            counts.insert(key.to_vec(), 1);
        }
    }
}

impl<'a> LinkageIndex<'a> {
    /// Indexes released rows, each given as its cells on the attack
    /// columns with `None` for a star.
    pub fn new<R: IntoIterator<Item = Option<&'a str>>>(
        released: impl IntoIterator<Item = R>,
    ) -> Self {
        let mut masks: Vec<(Vec<usize>, Counts<&'a str>)> = Vec::new();
        let mut patterns: Counts<Option<&'a str>> = HashMap::new();
        let (mut cells, mut kept, mut key) = (Vec::new(), Vec::new(), Vec::new());
        for row in released {
            cells.clear();
            cells.extend(row);
            if cells.iter().flatten().any(|c| is_pattern(c)) {
                bump(&mut patterns, &cells);
                continue;
            }
            kept.clear();
            kept.extend((0..cells.len()).filter(|&j| cells[j].is_some()));
            key.clear();
            key.extend(cells.iter().flatten());
            // A linear search: the attack pays a lookup per mask for every
            // external record anyway, so this never dominates.
            let group = match masks.iter().position(|(m, _)| *m == kept) {
                Some(g) => g,
                None => {
                    masks.push((kept.clone(), HashMap::new()));
                    masks.len() - 1
                }
            };
            bump(&mut masks[group].1, &key);
        }
        LinkageIndex { masks, patterns }
    }

    /// Attacks the index with external records, each given as its values
    /// on the attack columns in the released rows' column order. Records
    /// are folded in order, so the report is a pure function of the
    /// per-record candidate counts.
    pub fn attack<R: IntoIterator<Item = &'a str>>(
        &self,
        external: impl IntoIterator<Item = R>,
    ) -> LinkageReport {
        let mut values: Vec<&str> = Vec::new();
        let mut projection: Vec<&str> = Vec::new();
        fold(external.into_iter().map(|row| {
            values.clear();
            values.extend(row);
            let mut candidates = 0;
            for (kept, counts) in &self.masks {
                projection.clear();
                projection.extend(kept.iter().map(|&j| values[j]));
                candidates += counts.get(projection.as_slice()).copied().unwrap_or(0);
            }
            for (key, &count) in &self.patterns {
                let all_ok = key
                    .iter()
                    .zip(&values)
                    .all(|(r, v)| r.is_none_or(|r| consistent(r, v)));
                if all_ok {
                    candidates += count;
                }
            }
            candidates
        }))
    }
}

/// Folds per-record candidate counts, in record order, into a report.
fn fold(candidates: impl Iterator<Item = usize>) -> LinkageReport {
    let mut attacked = 0usize;
    let mut unique = 0usize;
    let mut none = 0usize;
    let mut total_candidates = 0usize;
    let mut matched_records = 0usize;
    let mut min_candidates = usize::MAX;
    let mut success_mass = 0.0f64;
    for c in candidates {
        attacked += 1;
        if c == 0 {
            none += 1;
            continue;
        }
        if c == 1 {
            unique += 1;
        }
        matched_records += 1;
        total_candidates += c;
        min_candidates = min_candidates.min(c);
        success_mass += 1.0 / c as f64;
    }
    LinkageReport {
        attacked,
        unique_matches: unique,
        no_match: none,
        mean_candidates: if matched_records == 0 {
            0.0
        } else {
            total_candidates as f64 / matched_records as f64
        },
        min_candidates: if min_candidates == usize::MAX {
            0
        } else {
            min_candidates
        },
        expected_success: if attacked == 0 {
            0.0
        } else {
            success_mass / attacked as f64
        },
    }
}

/// Runs the linkage attack.
///
/// `pairs` maps attack columns: `(external column name, released column
/// name)`. Every external record is matched against every released record
/// on those columns (stars and generalized values in the release match
/// permissively), through a [`LinkageIndex`] of the released records.
///
/// # Errors
/// [`crate::Error::UnknownAttribute`] if a named column is missing.
pub fn linkage_attack(
    released: &Table,
    external: &Table,
    pairs: &[(&str, &str)],
) -> Result<LinkageReport> {
    let ext_cols: Vec<usize> = pairs
        .iter()
        .map(|(e, _)| external.schema().index_of(e))
        .collect::<Result<_>>()?;
    let rel_cols: Vec<usize> = pairs
        .iter()
        .map(|(_, r)| released.schema().index_of(r))
        .collect::<Result<_>>()?;
    let index = LinkageIndex::new((0..released.n_rows()).map(|i| {
        let row = released.row(i);
        rel_cols
            .iter()
            .map(move |&j| Some(row[j].as_str()).filter(|&v| v != "*"))
    }));
    Ok(index.attack((0..external.n_rows()).map(|e| {
        let row = external.row(e);
        ext_cols.iter().map(move |&j| row[j].as_str())
    })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn table(names: &[&str], rows: &[&[&str]]) -> Table {
        let mut t = Table::new(Schema::new(names.to_vec()).unwrap());
        for r in rows {
            t.push_str_row(r).unwrap();
        }
        t
    }

    #[test]
    fn consistency_rules() {
        assert!(consistent("*", "anything"));
        assert!(consistent("34", "34"));
        assert!(!consistent("34", "35"));
        assert!(consistent("30-39", "34"));
        assert!(!consistent("30-39", "47"));
        assert!(consistent("021**", "02139"));
        assert!(!consistent("021**", "03139"));
        assert!(!consistent("021**", "0213")); // wrong length
        assert!(consistent("R*****", "Reyser"));
    }

    #[test]
    fn raw_release_is_fully_linkable() {
        let released = table(
            &["age", "zip"],
            &[&["34", "02139"], &["47", "02144"], &["22", "90210"]],
        );
        let external = table(
            &["name", "age", "zip"],
            &[&["Harry", "34", "02139"], &["Bea", "47", "02144"]],
        );
        let report =
            linkage_attack(&released, &external, &[("age", "age"), ("zip", "zip")]).unwrap();
        assert_eq!(report.unique_matches, 2);
        assert_eq!(report.reidentification_rate(), 1.0);
        assert_eq!(report.min_candidates, 1);
    }

    #[test]
    fn anonymized_release_blocks_unique_linkage() {
        // Both rows released identically: candidate sets of size 2.
        let released = table(&["age", "zip"], &[&["30-39", "021**"], &["30-39", "021**"]]);
        let external = table(
            &["name", "age", "zip"],
            &[&["Harry", "34", "02139"], &["John", "36", "02144"]],
        );
        let report =
            linkage_attack(&released, &external, &[("age", "age"), ("zip", "zip")]).unwrap();
        assert_eq!(report.unique_matches, 0);
        assert_eq!(report.min_candidates, 2);
        assert_eq!(report.mean_candidates, 2.0);
        // A uniform guess among 2 candidates succeeds half the time.
        assert!((report.expected_success - 0.5).abs() < 1e-12);
    }

    #[test]
    fn expected_success_keeps_falling_where_unique_matches_saturate() {
        let external = table(
            &["name", "age"],
            &[&["A", "30"], &["B", "31"], &["C", "32"], &["D", "33"]],
        );
        // Two releases, both with zero unique matches: one pools rows in
        // pairs, the other in a single 4-row group.
        let pairs = table(&["age"], &[&["30-31"], &["30-31"], &["32-33"], &["32-33"]]);
        let pooled = table(&["age"], &[&["30-33"], &["30-33"], &["30-33"], &["30-33"]]);
        let r2 = linkage_attack(&pairs, &external, &[("age", "age")]).unwrap();
        let r4 = linkage_attack(&pooled, &external, &[("age", "age")]).unwrap();
        assert_eq!(r2.unique_matches, 0);
        assert_eq!(r4.unique_matches, 0);
        assert!((r2.expected_success - 0.5).abs() < 1e-12);
        assert!((r4.expected_success - 0.25).abs() < 1e-12);
        assert!(r4.expected_success < r2.expected_success);
    }

    #[test]
    fn stale_external_records_count_as_no_match() {
        let released = table(&["age"], &[&["34"]]);
        let external = table(&["name", "age"], &[&["Gone", "99"]]);
        let report = linkage_attack(&released, &external, &[("age", "age")]).unwrap();
        assert_eq!(report.no_match, 1);
        assert_eq!(report.unique_matches, 0);
        assert_eq!(report.reidentification_rate(), 0.0);
    }

    #[test]
    fn unknown_columns_error() {
        let released = table(&["age"], &[&["34"]]);
        let external = table(&["name", "age"], &[&["X", "34"]]);
        assert!(linkage_attack(&released, &external, &[("bogus", "age")]).is_err());
        assert!(linkage_attack(&released, &external, &[("age", "bogus")]).is_err());
    }

    #[test]
    fn empty_external_table() {
        let released = table(&["age"], &[&["34"]]);
        let external = table(&["age"], &[]);
        let report = linkage_attack(&released, &external, &[("age", "age")]).unwrap();
        assert_eq!(report.attacked, 0);
        assert_eq!(report.reidentification_rate(), 0.0);
    }
}
