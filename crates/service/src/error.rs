//! Error type for the serving layer.

use std::fmt;

/// Convenience alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors from server configuration and startup.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// A service configuration that cannot run (zero workers, zero queue).
    Config(String),
    /// Socket-level failure (bind, accept).
    Io(std::io::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Config(msg) => write!(f, "service config error: {msg}"),
            Error::Io(e) => write!(f, "service i/o error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            Error::Config(_) => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let cfg = Error::Config("zero workers".into());
        assert_eq!(cfg.to_string(), "service config error: zero workers");
        assert!(std::error::Error::source(&cfg).is_none());

        let io: Error = std::io::Error::other("boom").into();
        assert!(io.to_string().contains("boom"));
        assert!(std::error::Error::source(&io).is_some());
    }
}
