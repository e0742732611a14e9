use std::fmt;

/// Error type for the surrogate pipeline.
#[derive(Debug)]
#[non_exhaustive]
pub enum SurrogateError {
    /// Quasi Monte-Carlo sampling failed (should not happen for the 7-dim
    /// design space).
    Qmc(pnc_qmc::QmcError),
    /// A circuit simulation failed.
    Spice(pnc_spice::SpiceError),
    /// A curve fit failed.
    Fit(pnc_fit::FitError),
    /// An autodiff operation failed while building or training the network.
    Autodiff(pnc_autodiff::AutodiffError),
    /// The dataset was unusable (empty, or degenerate η ranges).
    BadDataset {
        /// Human-readable description.
        detail: String,
    },
    /// An η component is constant (or non-finite) over the dataset, so
    /// min–max normalization would divide by zero. Carried as its own typed
    /// variant so callers can distinguish "your design-space slice is
    /// degenerate" from other dataset problems.
    DegenerateEta {
        /// Which of the four η components (0-based).
        component: usize,
        /// The constant (or offending non-finite) value.
        value: f64,
    },
    /// A streaming build was misconfigured or misused (zero total or chunk
    /// size, a report requested before the build completed). Never
    /// silently defaulted.
    Config {
        /// Human-readable description naming the knob and its value.
        detail: String,
    },
    /// A loaded surrogate model does not describe a usable network: its
    /// layers do not chain from the normalized features to η, or a
    /// parameter or η bound is not finite.
    BadModel {
        /// Human-readable description of the first violation.
        detail: String,
    },
    /// The on-disk dataset store rejected an operation (corruption, version
    /// mismatch, resume against a different configuration).
    Store(crate::StoreError),
    /// Model (de)serialization failed.
    Serde(serde_json::Error),
    /// File I/O failed while saving or loading a model.
    Io(std::io::Error),
}

impl fmt::Display for SurrogateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SurrogateError::Qmc(e) => write!(f, "qmc sampling failed: {e}"),
            SurrogateError::Spice(e) => write!(f, "circuit simulation failed: {e}"),
            SurrogateError::Fit(e) => write!(f, "curve fit failed: {e}"),
            SurrogateError::Autodiff(e) => write!(f, "autodiff failure: {e}"),
            SurrogateError::BadDataset { detail } => write!(f, "bad dataset: {detail}"),
            SurrogateError::DegenerateEta { component, value } => write!(
                f,
                "degenerate dataset: eta component {component} is constant at {value} \
                 (min-max normalization would divide by zero)"
            ),
            SurrogateError::Config { detail } => write!(f, "bad configuration: {detail}"),
            SurrogateError::BadModel { detail } => write!(f, "bad surrogate model: {detail}"),
            SurrogateError::Store(e) => write!(f, "dataset store: {e}"),
            SurrogateError::Serde(e) => write!(f, "model serialization failed: {e}"),
            SurrogateError::Io(e) => write!(f, "model file i/o failed: {e}"),
        }
    }
}

impl std::error::Error for SurrogateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SurrogateError::Qmc(e) => Some(e),
            SurrogateError::Spice(e) => Some(e),
            SurrogateError::Fit(e) => Some(e),
            SurrogateError::Autodiff(e) => Some(e),
            SurrogateError::Serde(e) => Some(e),
            SurrogateError::Io(e) => Some(e),
            SurrogateError::Store(e) => Some(e),
            SurrogateError::BadDataset { .. }
            | SurrogateError::DegenerateEta { .. }
            | SurrogateError::Config { .. }
            | SurrogateError::BadModel { .. } => None,
        }
    }
}

impl From<crate::StoreError> for SurrogateError {
    fn from(e: crate::StoreError) -> Self {
        SurrogateError::Store(e)
    }
}

impl From<pnc_qmc::QmcError> for SurrogateError {
    fn from(e: pnc_qmc::QmcError) -> Self {
        SurrogateError::Qmc(e)
    }
}

impl From<pnc_spice::SpiceError> for SurrogateError {
    fn from(e: pnc_spice::SpiceError) -> Self {
        SurrogateError::Spice(e)
    }
}

impl From<pnc_fit::FitError> for SurrogateError {
    fn from(e: pnc_fit::FitError) -> Self {
        SurrogateError::Fit(e)
    }
}

impl From<pnc_autodiff::AutodiffError> for SurrogateError {
    fn from(e: pnc_autodiff::AutodiffError) -> Self {
        SurrogateError::Autodiff(e)
    }
}

impl From<serde_json::Error> for SurrogateError {
    fn from(e: serde_json::Error) -> Self {
        SurrogateError::Serde(e)
    }
}

impl From<std::io::Error> for SurrogateError {
    fn from(e: std::io::Error) -> Self {
        SurrogateError::Io(e)
    }
}
