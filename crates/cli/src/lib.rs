//! # kanon-cli
//!
//! The `kanon` command-line anonymizer: CSV in, k-anonymous CSV out, built
//! on the Meyerson–Williams algorithms in `kanon-core`. The binary is a
//! thin wrapper around [`run`]; all logic lives here so it is unit-testable.
//! `kanon help` lists every command and flag.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;

pub use args::{Algorithm, Command};

/// Parses argv (without the program name) and executes the command.
///
/// Returns the text destined for stdout; side-channel messages (statistics)
/// go through the returned [`Outcome::notes`].
///
/// # Errors
/// A human-readable message destined for stderr (exit code 2 for usage
/// problems, 1 for execution failures — distinguished by [`CliError`]).
pub fn run(argv: &[String]) -> Result<Outcome, CliError> {
    let cmd = args::parse(argv)?;
    commands::execute(&cmd)
}

/// Successful execution: stdout payload plus human-oriented notes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Primary output (CSV or report text).
    pub stdout: String,
    /// Statistics and remarks for stderr.
    pub notes: Vec<String>,
}

/// CLI failure, split by exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Bad arguments (exit 2); includes usage.
    Usage(String),
    /// Runtime failure (exit 1).
    Failed(String),
    /// The input table parsed but has no data rows (exit 1).
    EmptyInput,
    /// The privacy parameter is infeasible for the input size (exit 1).
    BadK {
        /// The requested privacy parameter.
        k: usize,
        /// The input's data-row count.
        n: usize,
    },
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Failed(m) => write!(f, "{m}"),
            CliError::EmptyInput => {
                write!(
                    f,
                    "input table has a header but no data rows; nothing to process"
                )
            }
            CliError::BadK { k, n } => write!(
                f,
                "k = {k} is infeasible for an input with {n} data row(s); need 1 <= k <= {n}"
            ),
        }
    }
}

impl std::error::Error for CliError {}
