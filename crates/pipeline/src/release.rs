//! Rendering a released table back to CSV.
//!
//! The release is the original table with `*` on suppressed
//! quasi-identifier cells; non-quasi columns pass through untouched. The
//! writer streams row by row, so rendering is O(1) memory beyond the line
//! buffer however large the table. Both the CLI's `pipeline` command and
//! the delta engine's `release` path go through this one function — the
//! differential equivalence suite compares their outputs byte for byte,
//! which only means something if neither has its own formatting quirks.

use std::io;

use kanon_core::{Dataset, Suppressor};
use kanon_relation::csv;
use kanon_relation::{Codec, LinkageIndex, LinkageReport, Schema, Table};

use crate::ingest::CsvRun;

/// Streams the released table to `w`: header, then one CSV record per row,
/// original values everywhere except suppressed quasi-identifier cells,
/// which render as `*`.
///
/// `quasi` maps suppressor columns back to table columns: the suppressor's
/// column `pos` is the table's column `quasi[pos]`.
///
/// # Errors
/// I/O errors from `w`.
///
/// # Panics
/// If a dataset code is unknown to `codec` or `quasi` is out of bounds —
/// both mean the caller paired state from different runs.
pub fn write_release(
    dataset: &Dataset,
    codec: &Codec,
    quasi: &[usize],
    suppressor: &Suppressor,
    mut w: impl io::Write,
) -> io::Result<()> {
    let arity = codec.arity();
    // Column j's position inside the quasi-identifier projection, if any.
    let mut qi_pos: Vec<Option<usize>> = vec![None; arity];
    for (pos, &j) in quasi.iter().enumerate() {
        qi_pos[j] = Some(pos);
    }
    let mut line = String::new();
    csv::write_record(&mut line, codec.header().iter().map(String::as_str));
    w.write_all(line.as_bytes())?;
    let mut fields: Vec<&str> = Vec::with_capacity(arity);
    for i in 0..dataset.n_rows() {
        fields.clear();
        for (j, pos) in qi_pos.iter().enumerate() {
            let suppressed = pos.is_some_and(|pos| suppressor.is_suppressed(i, pos));
            if suppressed {
                fields.push("*");
            } else {
                let code = dataset.get(i, j);
                fields.push(codec.value(j, code).expect("codes come from this codec"));
            }
        }
        line.clear();
        csv::write_record(&mut line, fields.iter().copied());
        w.write_all(line.as_bytes())?;
    }
    w.flush()
}

/// Streams a *generalized* release to `w`: header, then one record per
/// row, quasi-identifier cells replaced by their hierarchy rendering at
/// the winning lattice node's level, non-quasi columns untouched.
///
/// `rendered` is the generalization rung's dictionary: the quasi
/// projection's position `pos` maps dictionary code `c` of table column
/// `quasi[pos]` to `rendered[pos][c]`. Suppression's `*` is just the
/// degenerate rendering where every code maps to `*` — the two release
/// shapes stay byte-compatible for downstream parsers.
///
/// # Errors
/// I/O errors from `w`.
///
/// # Panics
/// If a dataset code is outside its `rendered` column or `quasi` is out of
/// bounds — both mean the caller paired state from different runs.
pub fn write_generalized_release(
    dataset: &Dataset,
    codec: &Codec,
    quasi: &[usize],
    rendered: &[Vec<String>],
    mut w: impl io::Write,
) -> io::Result<()> {
    let arity = codec.arity();
    let mut qi_pos: Vec<Option<usize>> = vec![None; arity];
    for (pos, &j) in quasi.iter().enumerate() {
        qi_pos[j] = Some(pos);
    }
    let mut line = String::new();
    csv::write_record(&mut line, codec.header().iter().map(String::as_str));
    w.write_all(line.as_bytes())?;
    let mut fields: Vec<&str> = Vec::with_capacity(arity);
    for i in 0..dataset.n_rows() {
        fields.clear();
        for (j, pos) in qi_pos.iter().enumerate() {
            let code = dataset.get(i, j);
            match pos {
                Some(pos) => fields.push(rendered[*pos][code as usize].as_str()),
                None => {
                    fields.push(codec.value(j, code).expect("codes come from this codec"));
                }
            }
        }
        line.clear();
        csv::write_record(&mut line, fields.iter().copied());
        w.write_all(line.as_bytes())?;
    }
    w.flush()
}

/// Builds the two tables a linkage attacker joins: the **released**
/// quasi-identifier projection (`*` on suppressed cells) and the
/// **external** original values for the same rows, both over the
/// quasi-identifier columns only and capped at `cap` rows.
///
/// Using the run's own rows as the external table measures the release
/// against the strongest realistic adversary — one whose side information
/// is exactly the population the release came from. Feed both tables to
/// [`kanon_relation::linkage_attack`] joined on every shared column name.
///
/// # Errors
/// [`kanon_relation::Error`] if the quasi headers collide (duplicate CSV
/// header names).
///
/// # Panics
/// If `run` pairs state from different runs (codes unknown to its codec).
pub fn attack_tables(run: &CsvRun, cap: usize) -> kanon_relation::Result<(Table, Table)> {
    let names: Vec<&str> = run
        .quasi
        .iter()
        .map(|&j| run.codec.header()[j].as_str())
        .collect();
    let mut released = Table::new(Schema::new(names.clone())?);
    let mut external = Table::new(Schema::new(names)?);
    let rows = run.dataset.n_rows().min(cap);
    for i in 0..rows {
        let row = run.dataset.row(i);
        let mut rel = Vec::with_capacity(run.quasi.len());
        let mut ext = Vec::with_capacity(run.quasi.len());
        for (pos, &j) in run.quasi.iter().enumerate() {
            let value = run
                .codec
                .value(j, row[j])
                .expect("codes come from this codec");
            ext.push(value.to_string());
            rel.push(if run.anonymization.suppressor.is_suppressed(i, pos) {
                "*".to_string()
            } else {
                value.to_string()
            });
        }
        released.push_row(rel)?;
        external.push_row(ext)?;
    }
    Ok((released, external))
}

/// Runs the linkage attack of [`attack_tables`] straight off the run: the
/// same rows, the same join on every quasi-identifier column, and the same
/// [`LinkageReport`] as [`kanon_relation::linkage_attack`] on those
/// tables, with every cell borrowed from the codec's dictionary instead of
/// copied into a [`Table`].
///
/// # Errors
/// As [`attack_tables`].
///
/// # Panics
/// As [`attack_tables`].
pub fn attack_release(run: &CsvRun, cap: usize) -> kanon_relation::Result<LinkageReport> {
    // The header check the tables make.
    Schema::new(
        run.quasi
            .iter()
            .map(|&j| run.codec.header()[j].as_str())
            .collect(),
    )?;
    let rows = run.dataset.n_rows().min(cap);
    let suppressor = &run.anonymization.suppressor;
    let value = |i: usize, j: usize| {
        run.codec
            .value(j, run.dataset.row(i)[j])
            .expect("codes come from this codec")
    };
    let index = LinkageIndex::new((0..rows).map(|i| {
        run.quasi.iter().enumerate().map(move |(pos, &j)| {
            Some(value(i, j)).filter(|&v| v != "*" && !suppressor.is_suppressed(i, pos))
        })
    }));
    Ok(index.attack((0..rows).map(|i| run.quasi.iter().map(move |&j| value(i, j)))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_csv, PipelineConfig};

    const CSV: &str = "age,zip,job\n34,90210,cook\n34,90210,cook\n35,90210,cook\n\
                       35,90211,nurse\n34,90211,nurse\n35,90211,nurse\n";

    #[test]
    fn release_has_stars_only_on_suppressed_quasi_cells() {
        let quasi = vec!["age".to_string(), "zip".to_string()];
        let run = run_csv(CSV.as_bytes(), 3, Some(&quasi), &PipelineConfig::default()).unwrap();
        let mut buf = Vec::new();
        write_release(
            &run.dataset,
            &run.codec,
            &run.quasi,
            &run.anonymization.suppressor,
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "age,zip,job");
        assert_eq!(lines.len(), 7);
        // The non-quasi column is never starred.
        for line in &lines[1..] {
            let job = line.split(',').nth(2).unwrap();
            assert!(job == "cook" || job == "nurse", "{line}");
        }
        // Star count equals the reported suppression cost.
        let stars = text.matches('*').count();
        assert_eq!(stars, run.anonymization.cost);
    }

    #[test]
    fn generalized_release_maps_quasi_cells_through_the_dictionary() {
        let (dataset, codec) = crate::ingest::ingest_csv(CSV.as_bytes()).unwrap();
        let quasi = vec![0usize]; // age
                                  // A fake rung answer: every age code renders as the same interval.
        let rendered = vec![vec!["[30,40)".to_string(); codec.alphabet_size(0)]];
        let mut buf = Vec::new();
        write_generalized_release(&dataset, &codec, &quasi, &rendered, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "age,zip,job");
        for (line, want) in lines[1..].iter().zip(CSV.lines().skip(1)) {
            // The interval rendering contains a comma, so the writer must
            // quote it; the non-quasi columns pass through untouched.
            let rest = want.split_once(',').unwrap().1;
            assert_eq!(*line, format!("\"[30,40)\",{rest}"));
        }
    }

    #[test]
    fn attack_tables_agree_with_the_written_release() {
        let quasi = vec!["age".to_string(), "zip".to_string()];
        let run = run_csv(CSV.as_bytes(), 3, Some(&quasi), &PipelineConfig::default()).unwrap();
        let (released, external) = attack_tables(&run, usize::MAX).unwrap();
        assert_eq!(released.n_rows(), 6);
        assert_eq!(external.n_rows(), 6);
        // The released table's star count is the suppression cost, and
        // the external table has no stars at all.
        let stars = |t: &kanon_relation::Table| {
            (0..t.n_rows())
                .flat_map(|i| t.row(i).iter())
                .filter(|v| *v == "*")
                .count()
        };
        assert_eq!(stars(&released), run.anonymization.cost);
        assert_eq!(stars(&external), 0);
        // A k=3 release never re-identifies anyone; the attacker's best
        // expected success is 1/k.
        let report =
            kanon_relation::linkage_attack(&released, &external, &[("age", "age"), ("zip", "zip")])
                .unwrap();
        assert_eq!(report.unique_matches, 0);
        assert!(report.expected_success <= 1.0 / 3.0 + 1e-12);
        // The borrowed attack reports the same.
        assert_eq!(attack_release(&run, usize::MAX).unwrap(), report);
        // The cap truncates the sample.
        let (capped, _) = attack_tables(&run, 2).unwrap();
        assert_eq!(capped.n_rows(), 2);
    }

    #[test]
    fn all_columns_quasi_round_trips_unsuppressed_cells() {
        let run = run_csv(CSV.as_bytes(), 2, None, &PipelineConfig::default()).unwrap();
        let mut buf = Vec::new();
        write_release(
            &run.dataset,
            &run.codec,
            &run.quasi,
            &run.anonymization.suppressor,
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        // Every unsuppressed cell matches the input verbatim.
        for (i, (got, want)) in text.lines().skip(1).zip(CSV.lines().skip(1)).enumerate() {
            for (g, w) in got.split(',').zip(want.split(',')) {
                assert!(g == w || g == "*", "row {i}: {got} vs {want}");
            }
        }
    }
}
