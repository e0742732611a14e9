//! Scalar summary statistics.
//!
//! The experiment tables of the paper report the mean and standard deviation
//! of test accuracy over `N_test = 100` Monte-Carlo variation samples; these
//! helpers compute exactly those summaries.
//!
//! # Examples
//!
//! ```
//! let xs = [1.0, 2.0, 3.0, 4.0];
//! assert_eq!(pnc_linalg::stats::mean(&xs), 2.5);
//! ```

/// Arithmetic mean of a slice, or `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation (divides by `n`), or `0.0` for a slice with
/// fewer than two elements.
///
/// The paper reports the spread of a complete set of Monte-Carlo evaluations,
/// so the population convention (rather than the `n - 1` sample convention)
/// is used.
pub fn std(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Minimum of a slice, or `None` for an empty slice.
///
/// Returning `Option` (rather than `f64::INFINITY`) keeps non-finite
/// sentinels out of serialized artifacts when a summary is built from an
/// empty result set.
///
/// ```
/// assert_eq!(pnc_linalg::stats::min(&[]), None);
/// assert_eq!(pnc_linalg::stats::min(&[2.0, -1.0]), Some(-1.0));
/// ```
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().reduce(f64::min)
}

/// Maximum of a slice, or `None` for an empty slice.
///
/// ```
/// assert_eq!(pnc_linalg::stats::max(&[]), None);
/// assert_eq!(pnc_linalg::stats::max(&[2.0, -1.0]), Some(2.0));
/// ```
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().reduce(f64::max)
}

/// Coefficient of determination R² of predictions against targets.
///
/// Returns `1.0` for a perfect fit and can be negative for fits worse than
/// predicting the mean. Used to report the surrogate parity plot (Fig. 4,
/// right) as a scalar.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn r_squared(targets: &[f64], predictions: &[f64]) -> f64 {
    assert_eq!(
        targets.len(),
        predictions.len(),
        "r_squared requires equal-length slices"
    );
    if targets.is_empty() {
        return 0.0;
    }
    let m = mean(targets);
    let ss_tot: f64 = targets.iter().map(|t| (t - m).powi(2)).sum();
    let ss_res: f64 = targets
        .iter()
        .zip(predictions)
        .map(|(t, p)| (t - p).powi(2))
        .sum();
    if ss_tot == 0.0 {
        if ss_res == 0.0 {
            1.0
        } else {
            f64::NEG_INFINITY
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

/// Mean squared error between predictions and targets.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mse(targets: &[f64], predictions: &[f64]) -> f64 {
    assert_eq!(
        targets.len(),
        predictions.len(),
        "mse requires equal-length slices"
    );
    if targets.is_empty() {
        return 0.0;
    }
    targets
        .iter()
        .zip(predictions)
        .map(|(t, p)| (t - p).powi(2))
        .sum::<f64>()
        / targets.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn std_of_constant_is_zero() {
        assert_eq!(std(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn std_known_value() {
        // Population std of [1, 3] is 1.
        assert!((std(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn min_max_basic() {
        let xs = [3.0, -1.0, 2.0];
        assert_eq!(min(&xs), Some(-1.0));
        assert_eq!(max(&xs), Some(3.0));
    }

    #[test]
    fn min_max_of_empty_is_none() {
        // Regression: these used to return ±INFINITY, which leaked
        // non-finite values into JSON artifacts.
        assert_eq!(min(&[]), None);
        assert_eq!(max(&[]), None);
    }

    #[test]
    fn r_squared_perfect_fit() {
        let t = [1.0, 2.0, 3.0];
        assert!((r_squared(&t, &t) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn r_squared_mean_prediction_is_zero() {
        let t = [1.0, 2.0, 3.0];
        let p = [2.0, 2.0, 2.0];
        assert!(r_squared(&t, &p).abs() < 1e-12);
    }

    #[test]
    fn mse_basic() {
        assert!((mse(&[1.0, 2.0], &[2.0, 4.0]) - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn mse_length_mismatch_panics() {
        mse(&[1.0], &[1.0, 2.0]);
    }
}
