//! Cell-level (local) generalization: the model of the paper's §1 table.
//!
//! The paper's example release generalizes *per group*: the two Stone
//! records keep `age` at a coarse band while the John records drop it
//! entirely. Full-domain generalization ([`crate::lattice`]) cannot express
//! that — one level applies to a whole column. This module implements the
//! local model:
//!
//! 1. cluster the rows into groups of size ≥ k, using a generalization
//!    distance (how far up the hierarchies two rows must travel to agree);
//! 2. for each group and column, generalize exactly to the *lowest* level
//!    on which the whole group agrees (falling back to `*` if none exists);
//! 3. release the per-group generalized records.
//!
//! The released table is k-anonymous by construction, and its precision
//! loss is never worse than the best full-domain node over the same
//! partition (per-group levels are bounded by the global ones) — a fact
//! the tests pin down.

use std::collections::HashMap;

use crate::error::{Error, Result};
use crate::hierarchy::Hierarchy;
use crate::table::Table;

/// One attribute's released form for a group.
#[derive(Clone, Debug, PartialEq, Eq)]
enum ColumnRelease {
    /// Generalize every member to this level (0 = keep raw values; they
    /// are identical at that level).
    Level(usize),
    /// No common ancestor: suppress outright.
    Star,
}

/// A cell-level anonymization result.
#[derive(Clone, Debug)]
pub struct CellGeneralization {
    /// The released table (same schema, generalized values, `*` fallback).
    pub released: Table,
    /// Row groups used (indices into the original table).
    pub groups: Vec<Vec<usize>>,
    /// Mean per-cell precision loss in `[0, 1]` (level/height, 1 for `*`).
    pub precision_loss: f64,
}

/// Tuning knobs for [`anonymize_cells`].
#[derive(Clone, Debug, Default)]
pub struct CellGenConfig {
    /// Reserved for future strategies; the current implementation uses
    /// nearest-neighbour seeding with the generalization distance.
    _private: (),
}

/// The level at which two values first coincide under `h`, or `None` if
/// they never do (within the hierarchy's height).
///
/// # Errors
/// Propagates hierarchy application errors (bad value for the hierarchy).
pub fn merge_level(
    h: &Hierarchy,
    a: &str,
    b: &str,
    scratch: &mut MergeCache,
) -> Result<Option<usize>> {
    if a == b {
        return Ok(Some(0));
    }
    let key = if a <= b {
        (a.to_string(), b.to_string())
    } else {
        (b.to_string(), a.to_string())
    };
    if let Some(hit) = scratch.map.get(&key) {
        return Ok(*hit);
    }
    let mut found = None;
    for level in 1..=h.height() {
        if h.generalize(a, level)? == h.generalize(b, level)? {
            found = Some(level);
            break;
        }
    }
    scratch.map.insert(key, found);
    Ok(found)
}

/// Memo for pairwise merge levels (they are queried repeatedly while
/// clustering).
#[derive(Default, Debug)]
pub struct MergeCache {
    map: HashMap<(String, String), Option<usize>>,
}

/// Normalized generalization distance between two rows: mean over columns
/// of `merge_level/height` (1.0 where no common ancestor exists).
fn row_distance(
    table: &Table,
    hierarchies: &[Hierarchy],
    caches: &mut [MergeCache],
    a: usize,
    b: usize,
) -> Result<f64> {
    let (ra, rb) = (table.row(a), table.row(b));
    let mut total = 0.0;
    for (j, h) in hierarchies.iter().enumerate() {
        let loss = match merge_level(h, &ra[j], &rb[j], &mut caches[j])? {
            Some(level) => level as f64 / h.height() as f64,
            None => 1.0,
        };
        total += loss;
    }
    Ok(total / hierarchies.len() as f64)
}

/// Per-column release decision for a group: the lowest level on which all
/// members coincide.
fn column_release(
    table: &Table,
    h: &Hierarchy,
    j: usize,
    group: &[usize],
) -> Result<ColumnRelease> {
    'level: for level in 0..=h.height() {
        let first = h.generalize(&table.row(group[0])[j], level)?;
        for &r in &group[1..] {
            if h.generalize(&table.row(r)[j], level)? != first {
                continue 'level;
            }
        }
        return Ok(ColumnRelease::Level(level));
    }
    Ok(ColumnRelease::Star)
}

/// Anonymizes `table` with per-group (cell-level) generalization.
///
/// Groups are formed greedily: the lowest-indexed unassigned row seeds a
/// group and absorbs its `k − 1` nearest unassigned rows under the
/// generalization distance; the final `k..2k−1` leftovers form the last
/// group (the standard feasible-partition shape).
///
/// ```
/// use kanon_relation::{Schema, Table, Hierarchy, anonymize_cells};
/// use kanon_relation::cellgen::is_table_k_anonymous;
/// let mut t = Table::new(Schema::new(vec!["age"]).unwrap());
/// for age in ["34", "36", "71", "75"] {
///     t.push_str_row(&[age]).unwrap();
/// }
/// let hs = [Hierarchy::Intervals { widths: vec![10, 20, 40, 80] }];
/// let out = anonymize_cells(&t, &hs, 2, &Default::default()).unwrap();
/// assert!(is_table_k_anonymous(&out.released, 2));
/// assert_eq!(out.released.row(0), &["30-39"]); // 34 and 36 share a decade
/// ```
///
/// # Errors
/// [`Error::Hierarchy`] on an arity mismatch or hierarchy failure;
/// [`Error::Core`] when `k` is infeasible for the row count.
pub fn anonymize_cells(
    table: &Table,
    hierarchies: &[Hierarchy],
    k: usize,
    _config: &CellGenConfig,
) -> Result<CellGeneralization> {
    if hierarchies.len() != table.arity() {
        return Err(Error::Hierarchy(format!(
            "{} hierarchies for {} attributes",
            hierarchies.len(),
            table.arity()
        )));
    }
    for h in hierarchies {
        h.validate()?;
    }
    let n = table.n_rows();
    if k == 0 {
        return Err(Error::Core(kanon_core::Error::KZero));
    }
    if k > n {
        return Err(Error::Core(kanon_core::Error::KExceedsRows { k, n }));
    }

    let mut caches: Vec<MergeCache> = hierarchies.iter().map(|_| MergeCache::default()).collect();

    // Greedy nearest-neighbour grouping under the generalization distance.
    let mut unassigned: Vec<usize> = (0..n).collect();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    while unassigned.len() >= 2 * k {
        let seed = unassigned[0];
        let mut scored: Vec<(f64, usize)> = Vec::with_capacity(unassigned.len() - 1);
        for &r in &unassigned[1..] {
            scored.push((row_distance(table, hierarchies, &mut caches, seed, r)?, r));
        }
        scored.sort_by(|a, b| a.partial_cmp(b).expect("distances are finite"));
        let mut group = vec![seed];
        group.extend(scored.iter().take(k - 1).map(|&(_, r)| r));
        let members: std::collections::HashSet<usize> = group.iter().copied().collect();
        unassigned.retain(|r| !members.contains(r));
        groups.push(group);
    }
    if !unassigned.is_empty() {
        groups.push(unassigned);
    }

    // Release each group at its minimal common levels.
    let m = table.arity();
    let mut rows: Vec<Vec<String>> = vec![Vec::new(); n];
    let mut loss_total = 0.0;
    for group in &groups {
        for (j, hierarchy) in hierarchies.iter().enumerate() {
            let release = column_release(table, hierarchy, j, group)?;
            for &r in group {
                let (value, loss) = match &release {
                    ColumnRelease::Level(level) => (
                        hierarchy.generalize(&table.row(r)[j], *level)?,
                        *level as f64 / hierarchy.height() as f64,
                    ),
                    ColumnRelease::Star => ("*".to_string(), 1.0),
                };
                loss_total += loss;
                // Columns are appended in j order because the outer loop is
                // per column; keep the row layout straight.
                rows[r].push(value);
            }
        }
    }
    // The loop above pushes column values in order j = 0..m for each group,
    // but interleaved by group — rows inside one group received their j-th
    // value during pass j, so every row vector is already in column order.
    let released = Table::with_rows(table.schema().clone(), rows)?;

    Ok(CellGeneralization {
        released,
        groups,
        precision_loss: loss_total / (n * m) as f64,
    })
}

/// Verifies that a released table is k-anonymous (string equality on full
/// records).
#[must_use]
pub fn is_table_k_anonymous(table: &Table, k: usize) -> bool {
    if k == 0 {
        return false;
    }
    let mut counts: HashMap<&[String], usize> = HashMap::new();
    for i in 0..table.n_rows() {
        *counts.entry(table.row(i)).or_insert(0) += 1;
    }
    counts.values().all(|&c| c >= k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::GeneralizationLattice;
    use crate::schema::Schema;
    use kanon_core::Budget;

    fn hospital() -> Table {
        let mut t = Table::new(Schema::new(vec!["first", "last", "age", "race"]).unwrap());
        for row in [
            ["Harry", "Stone", "34", "Afr-Am"],
            ["John", "Reyser", "36", "Cauc"],
            ["Beatrice", "Stone", "47", "Afr-Am"],
            ["John", "Ramos", "22", "Hisp"],
        ] {
            t.push_str_row(&row).unwrap();
        }
        t
    }

    fn hierarchies() -> Vec<Hierarchy> {
        vec![
            Hierarchy::SuppressOnly,
            Hierarchy::PrefixMask { height: 8 },
            Hierarchy::Intervals {
                widths: vec![20, 60],
            },
            Hierarchy::SuppressOnly,
        ]
    }

    #[test]
    fn merge_levels() {
        let h = Hierarchy::Intervals {
            widths: vec![10, 20],
        };
        let mut cache = MergeCache::default();
        assert_eq!(merge_level(&h, "34", "34", &mut cache).unwrap(), Some(0));
        assert_eq!(merge_level(&h, "34", "36", &mut cache).unwrap(), Some(1));
        assert_eq!(merge_level(&h, "34", "22", &mut cache).unwrap(), Some(2));
        assert_eq!(merge_level(&h, "34", "99", &mut cache).unwrap(), None);
        // Cache hit path returns the same answer.
        assert_eq!(merge_level(&h, "36", "34", &mut cache).unwrap(), Some(1));
    }

    #[test]
    fn hospital_cell_generalization_is_2_anonymous() {
        let t = hospital();
        let result = anonymize_cells(&t, &hierarchies(), 2, &Default::default()).unwrap();
        assert!(is_table_k_anonymous(&result.released, 2));
        assert_eq!(result.groups.len(), 2);
        assert!(result.precision_loss > 0.0 && result.precision_loss <= 1.0);
    }

    #[test]
    fn cell_level_beats_full_domain_on_its_own_partition() {
        // Derive the minimal full-domain node, then check the cell-level
        // loss on the full table is no worse than the node's Prec.
        let t = hospital();
        let hs = hierarchies();
        let lattice = GeneralizationLattice::new(&t, hs.clone()).unwrap();
        let node = lattice
            .search_minimal(2, &Budget::unlimited())
            .unwrap()
            .expect("top works");
        let full_domain_loss = lattice.precision_loss(&node).unwrap();
        let cell = anonymize_cells(&t, &hs, 2, &Default::default()).unwrap();
        assert!(
            cell.precision_loss <= full_domain_loss + 1e-9,
            "cell {} vs full-domain {}",
            cell.precision_loss,
            full_domain_loss
        );
    }

    #[test]
    fn groups_respect_k() {
        let mut t = Table::new(Schema::new(vec!["x"]).unwrap());
        for i in 0..11 {
            t.push_str_row(&[&format!("{}", i % 4)]).unwrap();
        }
        let hs = vec![Hierarchy::SuppressOnly];
        let result = anonymize_cells(&t, &hs, 3, &Default::default()).unwrap();
        for g in &result.groups {
            assert!(g.len() >= 3 && g.len() <= 5);
        }
        let covered: usize = result.groups.iter().map(Vec::len).sum();
        assert_eq!(covered, 11);
        assert!(is_table_k_anonymous(&result.released, 3));
    }

    #[test]
    fn identical_rows_lose_nothing() {
        let mut t = Table::new(Schema::new(vec!["a", "b"]).unwrap());
        for _ in 0..4 {
            t.push_str_row(&["same", "same"]).unwrap();
        }
        let hs = vec![Hierarchy::SuppressOnly, Hierarchy::SuppressOnly];
        let result = anonymize_cells(&t, &hs, 4, &Default::default()).unwrap();
        assert_eq!(result.precision_loss, 0.0);
        assert_eq!(result.released.row(0), t.row(0));
    }

    #[test]
    fn errors_on_bad_input() {
        let t = hospital();
        assert!(anonymize_cells(&t, &[Hierarchy::SuppressOnly], 2, &Default::default()).is_err());
        assert!(anonymize_cells(&t, &hierarchies(), 0, &Default::default()).is_err());
        assert!(anonymize_cells(&t, &hierarchies(), 9, &Default::default()).is_err());
    }

    #[test]
    fn star_fallback_when_no_common_ancestor() {
        // Intervals without a top band: values in different top bands can
        // never merge and must fall back to '*'.
        let mut t = Table::new(Schema::new(vec!["v"]).unwrap());
        t.push_str_row(&["1"]).unwrap();
        t.push_str_row(&["99"]).unwrap();
        let hs = vec![Hierarchy::Intervals { widths: vec![10] }];
        let result = anonymize_cells(&t, &hs, 2, &Default::default()).unwrap();
        assert_eq!(result.released.row(0)[0], "*");
        assert_eq!(result.released.row(1)[0], "*");
        assert!(is_table_k_anonymous(&result.released, 2));
    }
}
