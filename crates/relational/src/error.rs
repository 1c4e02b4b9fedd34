//! Error type for the relational substrate.

use std::error::Error;
use std::fmt;

/// Errors surfaced by the relational engine's fallible APIs.
///
/// Internal invariant violations (e.g. an event scheduled into the past)
/// panic instead: they indicate bugs, not recoverable conditions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelationalError {
    /// A row or encoded payload does not match the expected schema.
    SchemaMismatch {
        /// Human-readable description.
        detail: String,
    },
    /// A malformed binary segment payload.
    Codec {
        /// Human-readable description.
        detail: String,
    },
    /// A query referenced an unknown table.
    UnknownTable {
        /// The offending table name.
        name: String,
    },
    /// The join graph of a query is not connected / not plannable.
    UnplannableJoin {
        /// Human-readable description.
        detail: String,
    },
}

impl fmt::Display for RelationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationalError::SchemaMismatch { detail } => {
                write!(f, "schema mismatch: {detail}")
            }
            RelationalError::Codec { detail } => write!(f, "segment codec error: {detail}"),
            RelationalError::UnknownTable { name } => write!(f, "unknown table {name:?}"),
            RelationalError::UnplannableJoin { detail } => {
                write!(f, "unplannable join: {detail}")
            }
        }
    }
}

impl Error for RelationalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = RelationalError::UnknownTable {
            name: "lineitem".into(),
        };
        assert!(e.to_string().contains("lineitem"));
    }

    #[test]
    fn implements_std_error() {
        fn takes_err(_: &dyn Error) {}
        takes_err(&RelationalError::Codec { detail: "x".into() });
    }
}
