use std::error::Error;
use std::fmt;
use submod_core::CoreError;
use submod_dataflow::DataflowError;
use submod_journal::JournalError;

/// Errors produced by the distributed selection layer.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum DistError {
    /// A configuration parameter violated its constraint.
    InvalidConfig {
        /// Description of the violated constraint.
        detail: String,
    },
    /// A centralized primitive failed in the core layer.
    Core(CoreError),
    /// A pipeline operation failed in the dataflow engine.
    Dataflow(DataflowError),
    /// A checkpoint journal could not be written, read, or resumed.
    Journal(JournalError),
    /// A dataflow greedy pass certified no pop although rows remained —
    /// an invariant violation (NaN priorities, say), reported instead of
    /// looping forever.
    PhaseStalled {
        /// Rows still in the engine-resident table.
        remaining: u64,
    },
}

impl DistError {
    pub(crate) fn config(detail: impl Into<String>) -> Self {
        DistError::InvalidConfig { detail: detail.into() }
    }
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::InvalidConfig { detail } => {
                write!(f, "invalid distributed-selection config: {detail}")
            }
            DistError::Core(inner) => write!(f, "core failure: {inner}"),
            DistError::Dataflow(inner) => write!(f, "dataflow failure: {inner}"),
            DistError::Journal(inner) => write!(f, "journal failure: {inner}"),
            DistError::PhaseStalled { remaining } => {
                write!(f, "greedy phase certified no pop with {remaining} rows left")
            }
        }
    }
}

impl Error for DistError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DistError::Core(inner) => Some(inner),
            DistError::Dataflow(inner) => Some(inner),
            DistError::Journal(inner) => Some(inner),
            _ => None,
        }
    }
}

impl From<CoreError> for DistError {
    fn from(err: CoreError) -> Self {
        DistError::Core(err)
    }
}

impl From<DataflowError> for DistError {
    fn from(err: DataflowError) -> Self {
        DistError::Dataflow(err)
    }
}

impl From<JournalError> for DistError {
    fn from(err: JournalError) -> Self {
        DistError::Journal(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_sources() {
        let err: DistError = CoreError::SelfLoop { node: 3 }.into();
        assert!(err.source().is_some());
        let err: DistError = DataflowError::InvalidArgument { detail: "x".into() }.into();
        assert!(err.source().is_some());
        let err: DistError = JournalError::UnknownRecordKind { kind: 9 }.into();
        assert!(err.source().is_some());
        assert!(err.to_string().contains("journal failure"));
        assert!(DistError::config("bad p").source().is_none());
    }

    #[test]
    fn display_is_informative() {
        assert!(DistError::config("p must be positive").to_string().contains("p must be"));
        assert!(DistError::PhaseStalled { remaining: 7 }.to_string().contains("7 rows"));
    }
}
