//! Typed serving errors — every rejection a client can see has a stable
//! wire kind, so operators can alert on overload separately from bad input.

use pnc_core::PnnError;
use std::fmt;

/// Error type of the serving layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// The request named a model id the registry does not hold.
    UnknownModel {
        /// The unmatched model id.
        model: String,
    },
    /// The request was malformed (wrong feature width, unparsable frame).
    BadRequest {
        /// Human-readable description.
        detail: String,
    },
    /// The model's bounded queue was full — explicit overload rejection,
    /// the backpressure contract (shed load instead of queueing unboundedly).
    Overloaded {
        /// The model whose queue was full.
        model: String,
    },
    /// The server is draining; no new requests are accepted.
    ShuttingDown,
    /// Loading or compiling an exported artifact failed.
    Artifact(PnnError),
    /// The serving configuration was invalid: two loaded models share a
    /// name.
    Config {
        /// Human-readable description.
        detail: String,
    },
    /// A transport-level failure on the framed-TCP path.
    Io(std::io::Error),
    /// An internal failure (worker died, inference error on a batch).
    Internal {
        /// Human-readable description.
        detail: String,
    },
}

impl ServeError {
    /// Stable machine-readable kind, used as the wire error code.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::UnknownModel { .. } => "unknown_model",
            ServeError::BadRequest { .. } => "bad_request",
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::ShuttingDown => "shutting_down",
            ServeError::Artifact(_) => "artifact",
            ServeError::Config { .. } => "config",
            ServeError::Io(_) => "io",
            ServeError::Internal { .. } => "internal",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownModel { model } => write!(f, "unknown model {model:?}"),
            ServeError::BadRequest { detail } => write!(f, "bad request: {detail}"),
            ServeError::Overloaded { model } => {
                write!(f, "model {model:?} is overloaded (queue full)")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Artifact(e) => write!(f, "artifact rejected: {e}"),
            ServeError::Config { detail } => write!(f, "invalid serving config: {detail}"),
            ServeError::Io(e) => write!(f, "transport failure: {e}"),
            ServeError::Internal { detail } => write!(f, "internal serving failure: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Artifact(e) => Some(e),
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PnnError> for ServeError {
    fn from(e: PnnError) -> Self {
        ServeError::Artifact(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}
