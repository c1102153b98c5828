//! Error type shared by every fallible operation in the crate.

use std::fmt;

/// Convenience alias used throughout `kanon-core`.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by dataset construction, validation, and the solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// `k` must be at least 1 (and at least 2 for anonymity to mean anything).
    KZero,
    /// The dataset has fewer than `k` rows, so no k-anonymization exists.
    KExceedsRows {
        /// Requested privacy parameter.
        k: usize,
        /// Number of rows in the dataset.
        n: usize,
    },
    /// Rows passed to [`crate::Dataset::from_rows`] have differing lengths.
    RaggedRows {
        /// Length of the first row.
        expected: usize,
        /// Index of the offending row.
        row: usize,
        /// Its length.
        found: usize,
    },
    /// The instance exceeds a solver's built-in size guard.
    InstanceTooLarge {
        /// Which solver rejected the instance.
        solver: &'static str,
        /// Human-readable description of the violated limit.
        limit: String,
    },
    /// A partition or cover failed structural validation.
    InvalidPartition(String),
    /// A row index was out of bounds for the dataset.
    RowOutOfBounds {
        /// The offending index.
        index: usize,
        /// Number of rows.
        n: usize,
    },
    /// A column index was out of bounds for the dataset.
    ColumnOutOfBounds {
        /// The offending index.
        index: usize,
        /// Number of columns.
        m: usize,
    },
    /// The requested operation needs a non-empty dataset.
    EmptyDataset,
    /// A [`crate::govern::Budget`] limit was hit; the solver stopped early.
    BudgetExceeded {
        /// Which resource dimension ran out.
        resource: crate::govern::Resource,
        /// How much of the resource had been consumed when the limit tripped
        /// (units depend on `resource`; see [`crate::govern::Resource`]).
        spent: u64,
        /// The configured limit, in the same units as `spent`.
        limit: u64,
    },
    /// Index or size arithmetic would overflow the machine word on this
    /// instance (adversarially large `n`/`k`).
    Overflow {
        /// Which computation overflowed.
        what: &'static str,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::KZero => write!(f, "privacy parameter k must be at least 1"),
            Error::KExceedsRows { k, n } => {
                write!(
                    f,
                    "k = {k} exceeds the number of rows n = {n}; no k-anonymization exists"
                )
            }
            Error::RaggedRows {
                expected,
                row,
                found,
            } => write!(
                f,
                "row {row} has {found} attributes but the first row has {expected}"
            ),
            Error::InstanceTooLarge { solver, limit } => {
                write!(f, "instance too large for solver `{solver}`: {limit}")
            }
            Error::InvalidPartition(msg) => write!(f, "invalid partition: {msg}"),
            Error::RowOutOfBounds { index, n } => {
                write!(
                    f,
                    "row index {index} out of bounds for dataset with {n} rows"
                )
            }
            Error::ColumnOutOfBounds { index, m } => {
                write!(
                    f,
                    "column index {index} out of bounds for dataset with {m} columns"
                )
            }
            Error::EmptyDataset => write!(f, "operation requires a non-empty dataset"),
            Error::BudgetExceeded {
                resource,
                spent,
                limit,
            } => write!(
                f,
                "budget exceeded: {resource} (spent {spent}, limit {limit})"
            ),
            Error::Overflow { what } => {
                write!(f, "arithmetic overflow computing {what}")
            }
        }
    }
}

impl Error {
    /// Whether this error says only "this solver cannot afford this
    /// instance": a budget trip, a static size guard, or an overflow guard.
    /// A weaker solver may still answer, so the degradation ladder falls a
    /// rung on these and the pipeline falls back to suppress-and-split;
    /// anything else (bad `k`, internal invariants) would fail every
    /// solver alike and propagates.
    #[must_use]
    pub fn is_recoverable(&self) -> bool {
        matches!(
            self,
            Error::BudgetExceeded { .. } | Error::InstanceTooLarge { .. } | Error::Overflow { .. }
        )
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(Error, &str)> = vec![
            (Error::KZero, "k must be at least 1"),
            (Error::KExceedsRows { k: 5, n: 3 }, "k = 5"),
            (
                Error::RaggedRows {
                    expected: 4,
                    row: 2,
                    found: 3,
                },
                "row 2 has 3 attributes",
            ),
            (
                Error::InstanceTooLarge {
                    solver: "subset_dp",
                    limit: "n <= 20".into(),
                },
                "subset_dp",
            ),
            (Error::InvalidPartition("overlap".into()), "overlap"),
            (Error::RowOutOfBounds { index: 9, n: 4 }, "row index 9"),
            (
                Error::ColumnOutOfBounds { index: 7, m: 2 },
                "column index 7",
            ),
            (Error::EmptyDataset, "non-empty"),
            (
                Error::BudgetExceeded {
                    resource: crate::govern::Resource::WallClock,
                    spent: 250,
                    limit: 200,
                },
                "budget exceeded",
            ),
            (
                Error::Overflow {
                    what: "candidate count",
                },
                "overflow",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&Error::KZero);
    }
}
