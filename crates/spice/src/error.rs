use pnc_linalg::LinalgError;
use std::fmt;

/// Error type for netlist construction and DC analysis.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SpiceError {
    /// A device referenced a node that was never created with
    /// [`Circuit::new_node`](crate::Circuit::new_node).
    UnknownNode {
        /// The offending node index.
        node: usize,
        /// Number of nodes the circuit actually has (excluding ground).
        num_nodes: usize,
    },
    /// A component value was non-positive or non-finite.
    InvalidValue {
        /// The device kind, e.g. `"resistor"`.
        device: &'static str,
        /// The offending value.
        value: f64,
    },
    /// Newton–Raphson failed to converge within the iteration budget.
    NoConvergence {
        /// Number of iterations performed.
        iterations: usize,
        /// Final infinity-norm of the voltage update.
        residual: f64,
    },
    /// The MNA system was singular — typically a floating node or a loop of
    /// ideal voltage sources.
    SingularSystem {
        /// The underlying linear-algebra failure.
        source: LinalgError,
    },
    /// An operation referenced a device id not present in the circuit, or a
    /// device of the wrong kind (e.g. sweeping a resistor as a source).
    BadDeviceRef {
        /// Human-readable description.
        detail: String,
    },
}

impl fmt::Display for SpiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpiceError::UnknownNode { node, num_nodes } => {
                write!(f, "unknown node {node}: circuit has {num_nodes} nodes")
            }
            SpiceError::InvalidValue { device, value } => {
                write!(f, "invalid {device} value {value}: must be positive and finite")
            }
            SpiceError::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "newton iteration did not converge after {iterations} iterations (residual {residual:.3e})"
            ),
            SpiceError::SingularSystem { source } => {
                write!(f, "singular MNA system: {source}")
            }
            SpiceError::BadDeviceRef { detail } => write!(f, "bad device reference: {detail}"),
        }
    }
}

impl std::error::Error for SpiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpiceError::SingularSystem { source } => Some(source),
            _ => None,
        }
    }
}

impl From<LinalgError> for SpiceError {
    fn from(source: LinalgError) -> Self {
        SpiceError::SingularSystem { source }
    }
}
