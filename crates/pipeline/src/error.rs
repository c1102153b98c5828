//! Error type for the pipeline layer.

use std::fmt;

/// Convenience alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors from pipeline configuration, ingestion, sharding, and merging.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// Wrapped solver/core error (budget trips, invalid `k`, overflow).
    Core(kanon_core::Error),
    /// Wrapped relational error (CSV syntax, schema, I/O).
    Relation(kanon_relation::Error),
    /// A pipeline configuration that cannot produce a valid sharding.
    Config(String),
    /// Wrapped durable-store error (WAL/snapshot I/O or corruption) from
    /// the delta engine.
    Store(kanon_store::Error),
    /// A delta batch that cannot be applied (unknown row id, arity
    /// mismatch, table would shrink below `k`). Rejected *before* the batch
    /// reaches the WAL, so durable state never holds an invalid op.
    Delta(String),
    /// A `--quasi` column name that is not in the ingested header. Carries
    /// the header's actual names so the caller can render an actionable
    /// message instead of a bare "unknown attribute".
    UnknownColumn {
        /// The name that failed to resolve.
        name: String,
        /// The header's actual column names, in table order.
        known: Vec<String>,
    },
    /// Wrapped schema-inference error from the auto-ingestion path
    /// (unprobeable input, bad `.schema` file, hierarchy override problems).
    Schema(kanon_schema::Error),
    /// Wrapped privacy-constraint error from the `--privacy` path: a
    /// malformed spec, a sensitive column declared quasi-identifying, an
    /// unreachable constraint, or a sensitive-column arity mismatch.
    Privacy(kanon_privacy::Error),
}

impl Error {
    /// True when the error means durable state failed an integrity check —
    /// the signal a serving layer uses to quarantine a table rather than
    /// retry. Torn tails never reach here (they are recovered silently);
    /// this is a committed record or snapshot that does not check out.
    #[must_use]
    pub fn is_corruption(&self) -> bool {
        matches!(self, Error::Store(kanon_store::Error::Corrupt { .. }))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Core(e) => write!(f, "core error: {e}"),
            Error::Relation(e) => write!(f, "relation error: {e}"),
            Error::Config(msg) => write!(f, "pipeline config error: {msg}"),
            Error::Store(e) => write!(f, "store error: {e}"),
            Error::Delta(msg) => write!(f, "delta error: {msg}"),
            Error::UnknownColumn { name, known } => write!(
                f,
                "unknown quasi-identifier column `{name}` (known columns: {})",
                known.join(", ")
            ),
            Error::Schema(e) => write!(f, "schema error: {e}"),
            Error::Privacy(e) => write!(f, "privacy error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Core(e) => Some(e),
            Error::Relation(e) => Some(e),
            Error::Store(e) => Some(e),
            Error::Schema(e) => Some(e),
            Error::Privacy(e) => Some(e),
            Error::Config(_) | Error::Delta(_) | Error::UnknownColumn { .. } => None,
        }
    }
}

impl From<kanon_core::Error> for Error {
    fn from(e: kanon_core::Error) -> Self {
        Error::Core(e)
    }
}

impl From<kanon_relation::Error> for Error {
    fn from(e: kanon_relation::Error) -> Self {
        Error::Relation(e)
    }
}

impl From<kanon_store::Error> for Error {
    fn from(e: kanon_store::Error) -> Self {
        Error::Store(e)
    }
}

impl From<kanon_schema::Error> for Error {
    fn from(e: kanon_schema::Error) -> Self {
        Error::Schema(e)
    }
}

impl From<kanon_privacy::Error> for Error {
    fn from(e: kanon_privacy::Error) -> Self {
        Error::Privacy(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let core: Error = kanon_core::Error::KZero.into();
        assert!(core.to_string().contains("core error"));
        assert!(std::error::Error::source(&core).is_some());

        let rel: Error = kanon_relation::Error::EmptyTable.into();
        assert!(rel.to_string().contains("relation error"));
        assert!(std::error::Error::source(&rel).is_some());

        let cfg = Error::Config("bad shard size".into());
        assert_eq!(cfg.to_string(), "pipeline config error: bad shard size");
        assert!(std::error::Error::source(&cfg).is_none());

        let unknown = Error::UnknownColumn {
            name: "salary".into(),
            known: vec!["age".into(), "zip".into()],
        };
        assert_eq!(
            unknown.to_string(),
            "unknown quasi-identifier column `salary` (known columns: age, zip)"
        );
        assert!(std::error::Error::source(&unknown).is_none());

        let schema: Error = kanon_schema::Error::Unprobeable("empty".into()).into();
        assert!(schema.to_string().contains("schema error"));
        assert!(std::error::Error::source(&schema).is_some());

        let privacy: Error = kanon_privacy::Error::SensitiveIsQuasi {
            column: "diagnosis".into(),
            quasi: vec!["age".into(), "diagnosis".into()],
        }
        .into();
        assert!(privacy.to_string().contains("privacy error"));
        assert!(privacy.to_string().contains("diagnosis"));
        assert!(std::error::Error::source(&privacy).is_some());
    }
}
