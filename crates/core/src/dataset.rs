//! The record matrix: `n` rows over `m` dictionary-coded attributes.
//!
//! The paper models a database as a multiset `V ⊆ Σ^m` of `m`-dimensional
//! vectors over a finite alphabet `Σ` (§2). [`Dataset`] stores those vectors
//! row-major in one contiguous allocation; attribute values are dictionary
//! codes (`u32`), leaving the mapping from codes to domain values (strings,
//! intervals, ...) to the `kanon-relation` crate.

use crate::error::{Error, Result};

/// A dictionary-coded attribute value.
pub type Value = u32;

/// An immutable `n × m` matrix of records.
///
/// Duplicated rows are allowed and meaningful: the k-anonymity predicate
/// counts multiset multiplicity, so pre-existing duplicates reduce the
/// suppression needed.
#[derive(Clone, PartialEq, Eq)]
pub struct Dataset {
    n: usize,
    m: usize,
    /// Row-major flat storage. A `Vec` (not a boxed slice) so sub-table
    /// buffers can round-trip through [`Dataset::into_flat_buffer`] /
    /// [`Dataset::select_rows_into`] without reallocating — the pipeline
    /// workers recycle one buffer across every shard they solve.
    data: Vec<Value>,
}

impl Dataset {
    /// Builds a dataset from owned rows.
    ///
    /// ```
    /// use kanon_core::Dataset;
    /// let ds = Dataset::from_rows(vec![vec![1, 2], vec![3, 4]]).unwrap();
    /// assert_eq!((ds.n_rows(), ds.n_cols()), (2, 2));
    /// assert_eq!(ds.row(1), &[3, 4]);
    /// // Ragged input is rejected.
    /// assert!(Dataset::from_rows(vec![vec![1], vec![2, 3]]).is_err());
    /// ```
    ///
    /// # Errors
    /// Returns [`Error::RaggedRows`] if rows have differing lengths.
    pub fn from_rows(rows: Vec<Vec<Value>>) -> Result<Self> {
        let n = rows.len();
        let m = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n * m);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != m {
                return Err(Error::RaggedRows {
                    expected: m,
                    row: i,
                    found: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Dataset { n, m, data })
    }

    /// Builds an `n × m` dataset by evaluating `f(row, col)` for each cell.
    pub fn from_fn(n: usize, m: usize, mut f: impl FnMut(usize, usize) -> Value) -> Self {
        let mut data = Vec::with_capacity(n * m);
        for i in 0..n {
            for j in 0..m {
                data.push(f(i, j));
            }
        }
        Dataset { n, m, data }
    }

    /// Builds a dataset from a flat row-major buffer.
    ///
    /// # Errors
    /// Returns [`Error::RaggedRows`] if `data.len() != n * m`.
    pub fn from_flat(n: usize, m: usize, data: Vec<Value>) -> Result<Self> {
        if data.len() != n * m {
            return Err(Error::RaggedRows {
                expected: n * m,
                row: 0,
                found: data.len(),
            });
        }
        Ok(Dataset { n, m, data })
    }

    /// Number of records (`n`, the paper's `|V|`).
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.n
    }

    /// Degree of the relation (`m`, the number of attributes).
    #[must_use]
    pub fn n_cols(&self) -> usize {
        self.m
    }

    /// Total number of cells, `n · m`.
    #[must_use]
    pub fn n_cells(&self) -> usize {
        self.n * self.m
    }

    /// Borrow row `i` as a slice of `m` values.
    ///
    /// # Panics
    /// Panics if `i >= n_rows()`.
    #[must_use]
    pub fn row(&self, i: usize) -> &[Value] {
        &self.data[i * self.m..(i + 1) * self.m]
    }

    /// Checked access to row `i`.
    ///
    /// # Errors
    /// Returns [`Error::RowOutOfBounds`] if `i >= n_rows()`.
    pub fn try_row(&self, i: usize) -> Result<&[Value]> {
        if i >= self.n {
            return Err(Error::RowOutOfBounds {
                index: i,
                n: self.n,
            });
        }
        Ok(self.row(i))
    }

    /// Value at `(row, col)`.
    ///
    /// # Panics
    /// Panics if either index is out of bounds.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> Value {
        assert!(
            col < self.m,
            "column {col} out of bounds for m = {}",
            self.m
        );
        self.data[row * self.m + col]
    }

    /// Iterates over rows as slices.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Value]> {
        self.data.chunks_exact(self.m.max(1)).take(self.n)
    }

    /// Returns a new dataset restricted to the given row indices (in the
    /// order given; indices may repeat).
    ///
    /// # Errors
    /// Returns [`Error::RowOutOfBounds`] on a bad index.
    pub fn select_rows(&self, indices: &[usize]) -> Result<Self> {
        let mut data = Vec::with_capacity(indices.len() * self.m);
        for &i in indices {
            if i >= self.n {
                return Err(Error::RowOutOfBounds {
                    index: i,
                    n: self.n,
                });
            }
            data.extend_from_slice(self.row(i));
        }
        Ok(Dataset {
            n: indices.len(),
            m: self.m,
            data,
        })
    }

    /// As [`Dataset::select_rows`], but over `u32` indices (the sharder's
    /// native row-id type) and reusing `buf` as the backing storage — the
    /// buffer is cleared and refilled, so a worker that round-trips it
    /// through [`Dataset::into_flat_buffer`] allocates nothing per shard
    /// once the buffer has grown to the largest shard it has seen.
    ///
    /// # Errors
    /// Returns [`Error::RowOutOfBounds`] on a bad index.
    pub fn select_rows_into(&self, indices: &[u32], mut buf: Vec<Value>) -> Result<Self> {
        buf.clear();
        buf.reserve(indices.len() * self.m);
        for &i in indices {
            let i = i as usize;
            if i >= self.n {
                return Err(Error::RowOutOfBounds {
                    index: i,
                    n: self.n,
                });
            }
            buf.extend_from_slice(self.row(i));
        }
        Ok(Dataset {
            n: indices.len(),
            m: self.m,
            data: buf,
        })
    }

    /// Consumes the dataset and returns its flat backing buffer (capacity
    /// intact) for reuse via [`Dataset::select_rows_into`].
    #[must_use]
    pub fn into_flat_buffer(self) -> Vec<Value> {
        self.data
    }

    /// Returns a new dataset containing only the given columns (in the
    /// order given; columns may repeat). The usual way to isolate
    /// quasi-identifier attributes before anonymizing.
    ///
    /// ```
    /// use kanon_core::Dataset;
    /// let ds = Dataset::from_rows(vec![vec![1, 2, 3], vec![4, 5, 6]]).unwrap();
    /// let qi = ds.project_columns(&[2, 0]).unwrap();
    /// assert_eq!(qi.row(0), &[3, 1]);
    /// assert!(ds.project_columns(&[7]).is_err());
    /// ```
    ///
    /// # Errors
    /// Returns [`Error::ColumnOutOfBounds`] on a bad index.
    pub fn project_columns(&self, columns: &[usize]) -> Result<Self> {
        for &j in columns {
            if j >= self.m {
                return Err(Error::ColumnOutOfBounds {
                    index: j,
                    m: self.m,
                });
            }
        }
        let mut data = Vec::with_capacity(self.n * columns.len());
        for i in 0..self.n {
            let row = self.row(i);
            data.extend(columns.iter().map(|&j| row[j]));
        }
        Ok(Dataset {
            n: self.n,
            m: columns.len(),
            data,
        })
    }

    /// The largest value code appearing anywhere, or `None` for an empty
    /// dataset. Useful for sizing dictionaries.
    #[must_use]
    pub fn max_value(&self) -> Option<Value> {
        self.data.iter().copied().max()
    }

    /// Validates the privacy parameter against this dataset: `1 ≤ k ≤ n`.
    ///
    /// # Errors
    /// [`Error::KZero`] when `k == 0`; [`Error::KExceedsRows`] when `k > n`.
    pub fn check_k(&self, k: usize) -> Result<()> {
        if k == 0 {
            return Err(Error::KZero);
        }
        if k > self.n {
            return Err(Error::KExceedsRows { k, n: self.n });
        }
        Ok(())
    }
}

impl std::fmt::Debug for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Dataset {}x{} [", self.n, self.m)?;
        const SHOWN: usize = 8;
        for (i, row) in self.rows().enumerate().take(SHOWN) {
            writeln!(f, "  {i:>4}: {row:?}")?;
        }
        if self.n > SHOWN {
            writeln!(f, "  ... ({} more rows)", self.n - SHOWN)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        Dataset::from_rows(vec![vec![1, 2, 3], vec![4, 5, 6], vec![1, 2, 9]]).unwrap()
    }

    #[test]
    fn dimensions_and_access() {
        let ds = sample();
        assert_eq!(ds.n_rows(), 3);
        assert_eq!(ds.n_cols(), 3);
        assert_eq!(ds.n_cells(), 9);
        assert_eq!(ds.row(1), &[4, 5, 6]);
        assert_eq!(ds.get(2, 2), 9);
        assert_eq!(ds.rows().count(), 3);
    }

    #[test]
    fn ragged_rows_rejected() {
        let err = Dataset::from_rows(vec![vec![1, 2], vec![3]]).unwrap_err();
        assert_eq!(
            err,
            Error::RaggedRows {
                expected: 2,
                row: 1,
                found: 1
            }
        );
    }

    #[test]
    fn from_flat_checks_length() {
        assert!(Dataset::from_flat(2, 2, vec![1, 2, 3, 4]).is_ok());
        assert!(Dataset::from_flat(2, 2, vec![1, 2, 3]).is_err());
    }

    #[test]
    fn from_fn_fills_cells() {
        let ds = Dataset::from_fn(2, 3, |i, j| (i * 10 + j) as Value);
        assert_eq!(ds.row(0), &[0, 1, 2]);
        assert_eq!(ds.row(1), &[10, 11, 12]);
    }

    #[test]
    fn empty_dataset_is_fine() {
        let ds = Dataset::from_rows(vec![]).unwrap();
        assert_eq!(ds.n_rows(), 0);
        assert_eq!(ds.n_cols(), 0);
        assert_eq!(ds.rows().count(), 0);
        assert_eq!(ds.max_value(), None);
    }

    #[test]
    fn zero_column_rows() {
        let ds = Dataset::from_rows(vec![vec![], vec![]]).unwrap();
        assert_eq!(ds.n_rows(), 2);
        assert_eq!(ds.n_cols(), 0);
        assert_eq!(ds.row(0), &[] as &[Value]);
    }

    #[test]
    fn select_rows_and_bounds() {
        let ds = sample();
        let sub = ds.select_rows(&[2, 0]).unwrap();
        assert_eq!(sub.row(0), &[1, 2, 9]);
        assert_eq!(sub.row(1), &[1, 2, 3]);
        assert!(matches!(
            ds.select_rows(&[3]),
            Err(Error::RowOutOfBounds { index: 3, n: 3 })
        ));
    }

    #[test]
    fn project_columns_selects_and_reorders() {
        let ds = sample();
        let p = ds.project_columns(&[2, 0, 2]).unwrap();
        assert_eq!(p.n_cols(), 3);
        assert_eq!(p.row(0), &[3, 1, 3]);
        assert_eq!(p.row(2), &[9, 1, 9]);
        let empty = ds.project_columns(&[]).unwrap();
        assert_eq!(empty.n_cols(), 0);
        assert_eq!(empty.n_rows(), 3);
        assert!(matches!(
            ds.project_columns(&[3]),
            Err(Error::ColumnOutOfBounds { index: 3, m: 3 })
        ));
    }

    #[test]
    fn check_k_bounds() {
        let ds = sample();
        assert!(matches!(ds.check_k(0), Err(Error::KZero)));
        assert!(ds.check_k(1).is_ok());
        assert!(ds.check_k(3).is_ok());
        assert!(matches!(
            ds.check_k(4),
            Err(Error::KExceedsRows { k: 4, n: 3 })
        ));
    }

    #[test]
    fn try_row_checks_bounds() {
        let ds = sample();
        assert!(ds.try_row(2).is_ok());
        assert!(ds.try_row(3).is_err());
    }

    #[test]
    fn debug_output_truncates() {
        let big = Dataset::from_fn(20, 2, |i, j| (i + j) as Value);
        let s = format!("{big:?}");
        assert!(s.contains("more rows"));
    }
}
