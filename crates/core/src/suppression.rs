//! Suppressors and anonymized tables (Definitions 2.1 and 2.2).
//!
//! A *suppressor* `t` maps each record to itself with some coordinates
//! replaced by `*`. Here it is represented positionally: one row-major
//! bitmap over the `n × m` table, bit `i·m + j` set meaning entry `(i, j)`
//! is starred. Applying a suppressor yields an [`AnonymizedTable`] — the
//! codes plus that bitmap — on which the k-anonymity predicate of
//! Definition 2.2 can be checked: every suppressed record must coincide,
//! entry for entry (stars included), with at least `k − 1` other
//! suppressed records.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::{Hash, Hasher};

use crate::dataset::{Dataset, Value};
use crate::error::{Error, Result};

/// A positional suppressor: which cells of which rows are starred.
///
/// ```
/// use kanon_core::{Dataset, Suppressor};
/// let ds = Dataset::from_rows(vec![vec![7, 1], vec![7, 2]]).unwrap();
/// let mut t = Suppressor::identity(2, 2);
/// t.suppress(0, 1);
/// t.suppress(1, 1);
/// let released = t.apply(&ds).unwrap();
/// assert!(released.is_k_anonymous(2)); // both rows are now `7 *`
/// assert_eq!(released.suppressed_cells(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Suppressor {
    /// Row-major star bits, 64 to a word; bits past `n·m` stay clear.
    bits: Vec<u64>,
    /// Rows, kept explicitly so an `n × 0` suppressor still counts them.
    n: usize,
    m: usize,
}

impl Suppressor {
    /// The identity suppressor (stars nothing) for an `n × m` table.
    #[must_use]
    pub fn identity(n: usize, m: usize) -> Self {
        Suppressor {
            bits: vec![0; (n * m).div_ceil(64)],
            n,
            m,
        }
    }

    /// Number of rows covered.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.n
    }

    /// Stars cell `(row, col)`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    pub fn suppress(&mut self, row: usize, col: usize) {
        assert!(
            row < self.n && col < self.m,
            "cell ({row}, {col}) out of bounds for {}x{}",
            self.n,
            self.m
        );
        let bit = row * self.m + col;
        self.bits[bit / 64] |= 1 << (bit % 64);
    }

    /// Whether cell `(row, col)` is starred; `false` for a column past the
    /// table's width.
    ///
    /// # Panics
    /// Panics if `row >= n_rows()`.
    #[must_use]
    pub fn is_suppressed(&self, row: usize, col: usize) -> bool {
        assert!(row < self.n, "row {row} out of bounds for n = {}", self.n);
        let bit = row * self.m + col;
        col < self.m && self.bits[bit / 64] >> (bit % 64) & 1 == 1
    }

    /// Total number of starred cells — the objective value the paper
    /// minimizes.
    #[must_use]
    pub fn cost(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Serializes the suppressor as a mask grid: one line per row, `1` for
    /// a starred cell, `0` otherwise. A stable artifact for audit trails —
    /// reapplying a stored mask to the original table reproduces the exact
    /// release.
    ///
    /// ```
    /// use kanon_core::Suppressor;
    /// let mut s = Suppressor::identity(2, 3);
    /// s.suppress(0, 2);
    /// s.suppress(1, 0);
    /// let text = s.to_mask_string();
    /// assert_eq!(text, "001\n100\n");
    /// assert_eq!(Suppressor::from_mask_string(&text).unwrap(), s);
    /// ```
    #[must_use]
    pub fn to_mask_string(&self) -> String {
        let mut out = String::with_capacity(self.n * (self.m + 1));
        for i in 0..self.n {
            out.extend((0..self.m).map(|j| if self.is_suppressed(i, j) { '1' } else { '0' }));
            out.push('\n');
        }
        out
    }

    /// Parses a mask grid produced by [`Suppressor::to_mask_string`].
    ///
    /// # Errors
    /// [`Error::InvalidPartition`] on ragged lines or characters other than
    /// `0`/`1`.
    pub fn from_mask_string(text: &str) -> Result<Self> {
        let lines: Vec<&str> = text.lines().collect();
        let m = lines.first().map_or(0, |l| l.chars().count());
        let mut s = Suppressor::identity(lines.len(), m);
        for (i, line) in lines.iter().enumerate() {
            if line.chars().count() != m {
                return Err(Error::InvalidPartition(format!(
                    "mask line {i} has {} cells, expected {m}",
                    line.chars().count()
                )));
            }
            for (j, ch) in line.chars().enumerate() {
                match ch {
                    '1' => s.suppress(i, j),
                    '0' => {}
                    other => {
                        return Err(Error::InvalidPartition(format!(
                            "mask line {i} contains `{other}`; only 0/1 allowed"
                        )))
                    }
                }
            }
        }
        Ok(s)
    }

    /// Applies the suppressor to a dataset, producing the released table.
    ///
    /// # Errors
    /// Returns [`Error::InvalidPartition`] on a shape mismatch.
    pub fn apply(&self, ds: &Dataset) -> Result<AnonymizedTable> {
        AnonymizedTable::new(ds.clone(), self.clone())
    }
}

/// One released entry: a value or a star.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Cell {
    /// The original value survived.
    Value(Value),
    /// The entry was suppressed.
    Star,
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cell::Value(v) => write!(f, "{v}"),
            Cell::Star => write!(f, "*"),
        }
    }
}

/// The result of applying a suppressor: records over `Σ ∪ {*}`, held as
/// the codes plus the star bitmap. Everything here reads only those two,
/// so a check of this table is independent of the solver that chose the
/// stars.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnonymizedTable {
    codes: Dataset,
    stars: Suppressor,
}

/// A borrowed released row: `m` [`Cell`]s, compared and hashed by cell.
#[derive(Clone, Copy, Debug)]
pub struct Row<'a> {
    table: &'a AnonymizedTable,
    i: usize,
}

impl<'a> Row<'a> {
    /// The entries in column order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Cell> + 'a {
        let Row { table, i } = *self;
        let codes = table.codes.row(i).iter().enumerate();
        codes.map(move |(j, &v)| {
            if table.stars.is_suppressed(i, j) {
                Cell::Star
            } else {
                Cell::Value(v)
            }
        })
    }
}

impl PartialEq for Row<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Row<'_> {}

impl Hash for Row<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for cell in self.iter() {
            match cell {
                Cell::Star => state.write_u8(0),
                Cell::Value(v) => state.write_u32(v),
            }
        }
    }
}

impl AnonymizedTable {
    /// The release of `codes` under `stars`.
    ///
    /// # Errors
    /// Returns [`Error::InvalidPartition`] on a shape mismatch.
    pub fn new(codes: Dataset, stars: Suppressor) -> Result<Self> {
        if codes.n_rows() != stars.n || codes.n_cols() != stars.m {
            return Err(Error::InvalidPartition(format!(
                "suppressor shaped {}x{} applied to dataset {}x{}",
                stars.n,
                stars.m,
                codes.n_rows(),
                codes.n_cols()
            )));
        }
        Ok(AnonymizedTable { codes, stars })
    }

    /// Number of records.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.codes.n_rows()
    }

    /// Number of attributes.
    #[must_use]
    pub fn n_cols(&self) -> usize {
        self.codes.n_cols()
    }

    /// The codes under the release, starred cells included.
    #[must_use]
    pub fn codes(&self) -> &Dataset {
        &self.codes
    }

    /// The codes under the release, taken back by value.
    #[must_use]
    pub fn into_codes(self) -> Dataset {
        self.codes
    }

    /// Borrow row `i`.
    ///
    /// # Panics
    /// Panics if `i >= n_rows()`.
    #[must_use]
    pub fn row(&self, i: usize) -> Row<'_> {
        assert!(i < self.n_rows(), "row {i} out of bounds");
        Row { table: self, i }
    }

    /// Iterates over rows.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = Row<'_>> {
        (0..self.n_rows()).map(|i| Row { table: self, i })
    }

    /// Number of starred entries — the suppression cost.
    #[must_use]
    pub fn suppressed_cells(&self) -> usize {
        self.stars.cost()
    }

    /// Definition 2.2: every released record equals at least `k − 1` others.
    ///
    /// `k = 1` is trivially satisfied; `k = 0` returns `false` by convention
    /// (use [`Dataset::check_k`] to reject it earlier).
    #[must_use]
    pub fn is_k_anonymous(&self, k: usize) -> bool {
        if k == 0 {
            return false;
        }
        self.group_sizes().iter().all(|&(_, size)| size >= k)
    }

    /// The k-groups of the released table: each distinct suppressed record
    /// with its multiplicity. Order is by first occurrence. One hash pass
    /// over the rows' (star bits, surviving codes).
    #[must_use]
    pub fn group_sizes(&self) -> Vec<(usize, usize)> {
        // Each distinct row maps to its slot in `out`.
        let mut slots: HashMap<Row<'_>, usize> = HashMap::new();
        let mut out: Vec<(usize, usize)> = Vec::new();
        for (i, row) in self.rows().enumerate() {
            match slots.entry(row) {
                Entry::Occupied(e) => out[*e.get()].1 += 1,
                Entry::Vacant(e) => {
                    e.insert(out.len());
                    out.push((i, 1));
                }
            }
        }
        out
    }

    /// The smallest k-group size, i.e. the largest `k` for which the table
    /// is k-anonymous. `None` for an empty table.
    #[must_use]
    pub fn anonymity_level(&self) -> Option<usize> {
        self.group_sizes().iter().map(|&(_, s)| s).min()
    }

    /// Diagnoses k-anonymity violations: returns, for every group smaller
    /// than `k`, its first row index and size — the actionable evidence a
    /// verification tool should print. Empty means the table is
    /// k-anonymous.
    ///
    /// ```
    /// use kanon_core::{Dataset, Suppressor};
    /// let ds = Dataset::from_rows(vec![vec![1], vec![1], vec![2]]).unwrap();
    /// let t = Suppressor::identity(3, 1).apply(&ds).unwrap();
    /// assert_eq!(t.violations(2), vec![(2, 1)]); // the lone `2` row
    /// assert!(t.violations(1).is_empty());
    /// ```
    #[must_use]
    pub fn violations(&self, k: usize) -> Vec<(usize, usize)> {
        let mut v: Vec<(usize, usize)> = self
            .group_sizes()
            .into_iter()
            .filter(|&(_, size)| size < k)
            .collect();
        v.sort_unstable();
        v
    }

    /// Renders the table for display/debugging, one row per line, entries
    /// separated by spaces, stars as `*`.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for row in self.rows() {
            let mut first = true;
            for cell in row.iter() {
                if !first {
                    out.push(' ');
                }
                first = false;
                out.push_str(&cell.to_string());
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{anonymization_from_partition, Algorithm};
    use crate::bitset::BitSet;
    use crate::partition::Partition;
    use proptest::prelude::*;

    /// The §1 hospital example, dictionary coded:
    /// first: Harry=0 John=1 Beatrice=2; last: Stone=0 Reyser=1 Ramos=2;
    /// age buckets kept as raw years; race: AfrAm=0 Cauc=1 Hisp=2.
    fn hospital() -> Dataset {
        Dataset::from_rows(vec![
            vec![0, 0, 34, 0],
            vec![1, 1, 36, 1],
            vec![2, 0, 47, 0],
            vec![1, 2, 22, 2],
        ])
        .unwrap()
    }

    #[test]
    fn identity_on_distinct_rows_is_1_anonymous_only() {
        let ds = hospital();
        let t = Suppressor::identity(4, 4).apply(&ds).unwrap();
        assert!(t.is_k_anonymous(1));
        assert!(!t.is_k_anonymous(2));
        assert_eq!(t.anonymity_level(), Some(1));
        assert_eq!(t.suppressed_cells(), 0);
    }

    #[test]
    fn hospital_two_anonymization() {
        // Mirror the paper's 2-anonymized table: group {Harry, Beatrice}
        // keeps (last=Stone, race=AfrAm); group {John, John} keeps
        // (first=John).
        let ds = hospital();
        let mut s = Suppressor::identity(4, 4);
        for row in [0, 2] {
            s.suppress(row, 0); // first
            s.suppress(row, 2); // age
        }
        for row in [1, 3] {
            s.suppress(row, 1); // last
            s.suppress(row, 2); // age
            s.suppress(row, 3); // race
        }
        let table = s.apply(&ds).unwrap();
        let cost = table.suppressed_cells();
        assert_eq!(cost, 2 * 2 + 2 * 3);
        assert!(table.is_k_anonymous(2));
        assert!(!table.is_k_anonymous(3));
        let groups = table.group_sizes();
        assert_eq!(groups.len(), 2);
        assert!(groups.iter().all(|&(_, s)| s == 2));
    }

    #[test]
    fn verify_rejects_insufficient_anonymity() {
        // Singleton blocks round to the identity suppressor, which the
        // finisher's k-check rejects.
        let ds = hospital();
        let singletons = Partition::new_unchecked((0..4).map(|r| vec![r]).collect(), 4);
        let err = anonymization_from_partition(&ds, singletons, 2, Algorithm::Exact).unwrap_err();
        assert!(err.to_string().contains("1-anonymous"));
    }

    #[test]
    fn apply_shape_mismatch() {
        let ds = hospital();
        let s = Suppressor::identity(3, 4);
        assert!(s.apply(&ds).is_err());
        let s = Suppressor::identity(4, 3);
        assert!(s.apply(&ds).is_err());
    }

    #[test]
    fn cost_counts_stars() {
        let mut s = Suppressor::identity(2, 3);
        assert_eq!(s.cost(), 0);
        s.suppress(0, 1);
        s.suppress(1, 0);
        s.suppress(1, 2);
        assert_eq!(s.cost(), 3);
        assert!(s.is_suppressed(0, 1));
        assert!(!s.is_suppressed(0, 0));
    }

    #[test]
    fn full_suppression_is_n_anonymous() {
        let ds = hospital();
        let mut s = Suppressor::identity(4, 4);
        for i in 0..4 {
            for j in 0..4 {
                s.suppress(i, j);
            }
        }
        let t = s.apply(&ds).unwrap();
        assert!(t.is_k_anonymous(4));
        assert_eq!(t.suppressed_cells(), 16);
        assert_eq!(t.anonymity_level(), Some(4));
    }

    #[test]
    fn k_zero_is_never_anonymous() {
        let ds = hospital();
        let t = Suppressor::identity(4, 4).apply(&ds).unwrap();
        assert!(!t.is_k_anonymous(0));
    }

    #[test]
    fn empty_table_edge_cases() {
        let ds = Dataset::from_rows(vec![]).unwrap();
        let t = Suppressor::identity(0, 0).apply(&ds).unwrap();
        assert!(t.is_k_anonymous(5)); // vacuously
        assert_eq!(t.anonymity_level(), None);
        assert_eq!(t.suppressed_cells(), 0);
    }

    #[test]
    fn render_shows_stars() {
        let ds = Dataset::from_rows(vec![vec![7, 8]]).unwrap();
        let mut s = Suppressor::identity(1, 2);
        s.suppress(0, 1);
        let t = s.apply(&ds).unwrap();
        assert_eq!(t.render(), "7 *\n");
    }

    #[test]
    fn group_sizes_multiset_semantics() {
        // Duplicate raw rows count toward anonymity without suppression.
        let ds = Dataset::from_rows(vec![vec![1, 2], vec![1, 2], vec![1, 2]]).unwrap();
        let t = Suppressor::identity(3, 2).apply(&ds).unwrap();
        assert!(t.is_k_anonymous(3));
        assert_eq!(t.group_sizes(), vec![(0, 3)]);
    }

    #[test]
    fn mask_string_rejects_bad_input() {
        assert!(Suppressor::from_mask_string("01\n0\n").is_err()); // ragged
        assert!(Suppressor::from_mask_string("0x\n").is_err()); // bad char
        let empty = Suppressor::from_mask_string("").unwrap();
        assert_eq!(empty.n_rows(), 0);
    }

    #[test]
    fn violations_report_small_groups() {
        let ds = Dataset::from_rows(vec![vec![1, 1], vec![1, 1], vec![2, 2], vec![3, 3]]).unwrap();
        let t = Suppressor::identity(4, 2).apply(&ds).unwrap();
        assert_eq!(t.violations(2), vec![(2, 1), (3, 1)]);
        assert_eq!(t.violations(3), vec![(0, 2), (2, 1), (3, 1)]);
    }

    #[test]
    fn mask_string_errors_name_the_line_and_the_doc_grid_round_trips() {
        let err = Suppressor::from_mask_string("010\n01\n").unwrap_err();
        assert!(err
            .to_string()
            .contains("mask line 1 has 2 cells, expected 3"));
        let err = Suppressor::from_mask_string("01\n0x\n").unwrap_err();
        assert!(err.to_string().contains("mask line 1 contains `x`"));
        let grid = Suppressor::from_mask_string("001\n100\n").unwrap();
        assert_eq!((grid.n_rows(), grid.cost()), (2, 2));
        assert!(grid.is_suppressed(0, 2) && grid.is_suppressed(1, 0));
        assert_eq!(grid.to_mask_string(), "001\n100\n");
    }

    #[test]
    fn zero_width_and_zero_row_suppressors_keep_their_shape() {
        let narrow = Suppressor::identity(3, 0);
        assert_eq!((narrow.n_rows(), narrow.cost()), (3, 0));
        assert_eq!(narrow.to_mask_string(), "\n\n\n");
        assert_eq!(Suppressor::from_mask_string("\n\n\n").unwrap(), narrow);
        let empty = Suppressor::identity(0, 65);
        assert_eq!((empty.n_rows(), empty.cost()), (0, 0));
        assert_eq!(empty.to_mask_string(), "");
        let ds = Dataset::from_flat(0, 65, Vec::new()).unwrap();
        assert_eq!(empty.apply(&ds).unwrap().n_rows(), 0);
    }

    /// The widths where a row's bits start, end or span a word boundary.
    const WIDTHS: [usize; 6] = [0, 1, 63, 64, 65, 130];

    proptest! {
        /// The flat bitmap against the per-row `BitSet` layout it replaced:
        /// the same stars, cost, mask text and release at every width.
        #[test]
        fn flat_suppressor_matches_per_row_bitsets(
            w in 0usize..WIDTHS.len(),
            n in 0usize..5,
            bits in proptest::collection::vec(proptest::bool::ANY, 5 * 130),
            values in proptest::collection::vec(0u32..3, 5 * 130),
        ) {
            let m = WIDTHS[w];
            let mut flat = Suppressor::identity(n, m);
            let mut oracle = vec![BitSet::new(m); n];
            for i in 0..n {
                for j in (0..m).filter(|&j| bits[i * 130 + j]) {
                    flat.suppress(i, j);
                    oracle[i].insert(j);
                }
            }
            prop_assert_eq!(flat.n_rows(), n);
            prop_assert_eq!(flat.cost(), oracle.iter().map(BitSet::count).sum::<usize>());
            for (i, mask) in oracle.iter().enumerate() {
                for j in 0..m + 2 {
                    prop_assert_eq!(flat.is_suppressed(i, j), mask.contains(j));
                }
            }

            let text = flat.to_mask_string();
            let want: String = oracle
                .iter()
                .flat_map(|mask| (0..m).map(|j| if mask.contains(j) { '1' } else { '0' }).chain(['\n']))
                .collect();
            prop_assert_eq!(&text, &want);
            let back = Suppressor::from_mask_string(&text).unwrap();
            if n > 0 || m == 0 {
                prop_assert_eq!(&back, &flat);
            } else {
                // An empty grid has no line to read a width from.
                prop_assert_eq!(back, Suppressor::identity(0, 0));
            }

            let ds = Dataset::from_flat(n, m, values[..n * m].to_vec()).unwrap();
            let table = flat.apply(&ds).unwrap();
            prop_assert_eq!(table.suppressed_cells(), flat.cost());
            prop_assert_eq!(table.rows().len(), n);
            for (i, row) in table.rows().enumerate() {
                let want: Vec<Cell> = (0..m)
                    .map(|j| if oracle[i].contains(j) { Cell::Star } else { Cell::Value(ds.get(i, j)) })
                    .collect();
                prop_assert_eq!(row.iter().collect::<Vec<_>>(), want);
            }
            prop_assert!(Suppressor::identity(n + 1, m).apply(&ds).is_err());
        }

        /// Mask serialization roundtrips for arbitrary suppressors.
        #[test]
        fn mask_string_roundtrip(
            bits in proptest::collection::vec(proptest::bool::ANY, 5 * 4),
        ) {
            let mut s = Suppressor::identity(5, 4);
            for (idx, &b) in bits.iter().enumerate() {
                if b {
                    s.suppress(idx / 4, idx % 4);
                }
            }
            let text = s.to_mask_string();
            prop_assert_eq!(Suppressor::from_mask_string(&text).unwrap(), s);
        }

        /// A suppressor's cost always equals the released table's star count.
        #[test]
        fn cost_equals_star_count(
            flat in proptest::collection::vec(0u32..3, 4 * 3),
            bits in proptest::collection::vec(proptest::bool::ANY, 4 * 3),
        ) {
            let ds = Dataset::from_flat(4, 3, flat).unwrap();
            let mut s = Suppressor::identity(4, 3);
            for (idx, &b) in bits.iter().enumerate() {
                if b {
                    s.suppress(idx / 3, idx % 3);
                }
            }
            let t = s.apply(&ds).unwrap();
            prop_assert_eq!(s.cost(), t.suppressed_cells());
        }

        /// Suppressing more cells never decreases the anonymity level when
        /// the extra suppression is applied uniformly to a whole column.
        #[test]
        fn column_suppression_monotone(
            flat in proptest::collection::vec(0u32..3, 5 * 3),
            col in 0usize..3,
        ) {
            let ds = Dataset::from_flat(5, 3, flat).unwrap();
            let base = Suppressor::identity(5, 3).apply(&ds).unwrap();
            let mut s = Suppressor::identity(5, 3);
            for i in 0..5 {
                s.suppress(i, col);
            }
            let t = s.apply(&ds).unwrap();
            prop_assert!(t.anonymity_level() >= base.anonymity_level());
        }

        /// group_sizes sums to n.
        #[test]
        fn group_sizes_partition_rows(
            flat in proptest::collection::vec(0u32..2, 6 * 2),
        ) {
            let ds = Dataset::from_flat(6, 2, flat).unwrap();
            let t = Suppressor::identity(6, 2).apply(&ds).unwrap();
            let total: usize = t.group_sizes().iter().map(|&(_, s)| s).sum();
            prop_assert_eq!(total, 6);
        }
    }
}
