//! Quasi Monte-Carlo sampling for design-space exploration.
//!
//! The paper (Sec. III-A) draws 10 000 representative points from the feasible
//! design space of the printed nonlinear circuit using quasi Monte-Carlo
//! sampling \[Sobol, 1990\]. This crate provides that sampler:
//!
//! * [`Sobol`] — a Gray-code Sobol' sequence with embedded direction numbers
//!   for up to [`Sobol::MAX_DIM`] dimensions, the sampler used by the
//!   surrogate-modelling pipeline.
//!
//! It produces points in the half-open unit hypercube `[0, 1)^d`; use
//! [`scale_to_box`] to map them onto an arbitrary axis-aligned box such as the
//! component ranges of Tab. I.
//!
//! # Examples
//!
//! ```
//! use pnc_qmc::{Sobol, scale_to_box};
//!
//! # fn main() -> Result<(), pnc_qmc::QmcError> {
//! let mut sobol = Sobol::new(7)?;
//! let unit = sobol.next_point();
//! // Map onto the resistance range 10..500 Ohm in every coordinate.
//! let lo = [10.0; 7];
//! let hi = [500.0; 7];
//! let point = scale_to_box(&unit, &lo, &hi)?;
//! assert!(point.iter().all(|&x| (10.0..500.0).contains(&x)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod sobol;

pub use sobol::Sobol;

use std::fmt;

/// Error type for quasi Monte-Carlo construction and scaling.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum QmcError {
    /// Requested dimension is zero or exceeds the supported maximum.
    UnsupportedDimension {
        /// The requested dimension.
        requested: usize,
        /// The maximum supported dimension.
        max: usize,
    },
    /// Bounds slices disagree with the point dimension, or a lower bound is
    /// not strictly below its upper bound.
    InvalidBounds {
        /// Human-readable description of the problem.
        detail: String,
    },
}

impl fmt::Display for QmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QmcError::UnsupportedDimension { requested, max } => {
                write!(
                    f,
                    "unsupported dimension {requested} (supported: 1..={max})"
                )
            }
            QmcError::InvalidBounds { detail } => write!(f, "invalid bounds: {detail}"),
        }
    }
}

impl std::error::Error for QmcError {}

/// Maps a point from the unit hypercube onto the box `[lo, hi)`.
///
/// # Errors
///
/// Returns [`QmcError::InvalidBounds`] if the slice lengths differ or any
/// `lo[i] >= hi[i]`.
///
/// # Examples
///
/// ```
/// let p = pnc_qmc::scale_to_box(&[0.5, 0.25], &[0.0, 10.0], &[2.0, 20.0])?;
/// assert_eq!(p, vec![1.0, 12.5]);
/// # Ok::<(), pnc_qmc::QmcError>(())
/// ```
pub fn scale_to_box(unit: &[f64], lo: &[f64], hi: &[f64]) -> Result<Vec<f64>, QmcError> {
    if unit.len() != lo.len() || unit.len() != hi.len() {
        return Err(QmcError::InvalidBounds {
            detail: format!(
                "point has {} coordinates but bounds have {} and {}",
                unit.len(),
                lo.len(),
                hi.len()
            ),
        });
    }
    for (i, (&l, &h)) in lo.iter().zip(hi).enumerate() {
        if l >= h || l.is_nan() || h.is_nan() {
            return Err(QmcError::InvalidBounds {
                detail: format!("lo[{i}] = {l} is not below hi[{i}] = {h}"),
            });
        }
    }
    Ok(unit
        .iter()
        .zip(lo.iter().zip(hi))
        .map(|(&u, (&l, &h))| l + u * (h - l))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_to_box_maps_endpoints() {
        let p = scale_to_box(&[0.0, 1.0], &[2.0, 2.0], &[4.0, 4.0]).unwrap();
        assert_eq!(p, vec![2.0, 4.0]);
    }

    #[test]
    fn scale_to_box_rejects_length_mismatch() {
        assert!(scale_to_box(&[0.5], &[0.0, 0.0], &[1.0, 1.0]).is_err());
    }

    #[test]
    fn scale_to_box_rejects_inverted_bounds() {
        assert!(scale_to_box(&[0.5], &[1.0], &[0.0]).is_err());
    }

    #[test]
    fn error_display_is_informative() {
        let e = QmcError::UnsupportedDimension {
            requested: 99,
            max: 21,
        };
        assert!(e.to_string().contains("99"));
    }
}
