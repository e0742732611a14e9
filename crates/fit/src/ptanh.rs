use crate::{levenberg_marquardt, FitError, LmOptions, LmResult};
use pnc_linalg::Matrix;
use pnc_obs::{Counter, Histogram};
use serde::{Deserialize, Serialize};

// Observability: completed ptanh extractions and their data-only fit
// quality. Catalogued in docs/METRICS.md.
static OBS_FITS: Counter = Counter::new("fit.ptanh.fits");
static OBS_RMSE: Histogram = Histogram::new("fit.ptanh.rmse");

fn obs_register() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        crate::lm::obs_register();
        OBS_FITS.register();
        OBS_RMSE.register();
    });
}

/// The modified tanh curve of Eq. 2: `ptanh(v) = η₁ + η₂·tanh((v − η₃)·η₄)`.
///
/// Both the activation circuit (Eq. 2) and the negative-weight circuit
/// (Eq. 3, the negation) are expressed with this model — a negated curve is
/// simply `[−η₁, −η₂, η₃, η₄]` (see [`Ptanh::negated`]).
///
/// # Examples
///
/// ```
/// use pnc_fit::Ptanh;
///
/// let p = Ptanh { eta: [0.5, 0.5, 0.5, 4.0] };
/// assert!((p.eval(0.5) - 0.5).abs() < 1e-12);     // centred at η₃
/// assert!(p.eval(1.0) > 0.9);                      // saturates towards η₁+η₂
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Ptanh {
    /// The auxiliary parameters `[η₁, η₂, η₃, η₄]`.
    pub eta: [f64; 4],
}

impl Ptanh {
    /// Evaluates the curve at `v`.
    pub fn eval(&self, v: f64) -> f64 {
        let [e1, e2, e3, e4] = self.eta;
        e1 + e2 * ((v - e3) * e4).tanh()
    }

    /// Evaluates the derivative `d ptanh / dv`.
    pub fn derivative(&self, v: f64) -> f64 {
        let [_, e2, e3, e4] = self.eta;
        let u = (v - e3) * e4;
        let t = u.tanh();
        e2 * e4 * (1.0 - t * t)
    }

    /// The gradient of `eval(v)` with respect to the four η parameters.
    ///
    /// Part of `Ptanh`'s public API next to `eval`, for callers that need
    /// the gradient alone; the fit itself calls [`Ptanh::eval_with_grad_eta`].
    pub fn grad_eta(&self, v: f64) -> [f64; 4] {
        self.eval_with_grad_eta(v).1
    }

    /// `eval(v)` and `grad_eta(v)` from one `tanh`: the one formula the fit's
    /// residual-and-Jacobian pass uses, bit-identical to the two separate
    /// calls.
    pub fn eval_with_grad_eta(&self, v: f64) -> (f64, [f64; 4]) {
        let [e1, e2, e3, e4] = self.eta;
        let u = (v - e3) * e4;
        let t = u.tanh();
        let sech2 = 1.0 - t * t;
        (
            e1 + e2 * t,
            [1.0, t, -e2 * e4 * sech2, e2 * (v - e3) * sech2],
        )
    }

    /// The negated curve `−ptanh(v)`, i.e. the model of the negative-weight
    /// circuit (Eq. 3).
    pub fn negated(&self) -> Ptanh {
        let [e1, e2, e3, e4] = self.eta;
        Ptanh {
            eta: [-e1, -e2, e3, e4],
        }
    }

    /// Canonicalizes the sign ambiguity `(η₂, η₄) ↦ (−η₂, −η₄)` (which leaves
    /// the curve unchanged) so that `η₄ >= 0`.
    pub fn canonical(&self) -> Ptanh {
        if self.eta[3] < 0.0 {
            Ptanh {
                eta: [self.eta[0], -self.eta[1], self.eta[2], -self.eta[3]],
            }
        } else {
            *self
        }
    }
}

/// A fitted ptanh curve with its fit quality.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PtanhFit {
    /// The fitted curve (canonicalized to `η₄ >= 0`).
    pub curve: Ptanh,
    /// Root-mean-square residual of the fit, in volts.
    pub rmse: f64,
    /// Whether the optimizer reported convergence.
    pub converged: bool,
}

/// Fits Eq. 2 to `(V_in, V_out)` samples with default options.
///
/// This is the extraction step of the surrogate pipeline: the green simulated
/// points of Fig. 4 (left) in, the red fitted curve out.
///
/// # Errors
///
/// Returns [`FitError::InvalidData`] if fewer than 5 points are given, any
/// value is non-finite, or all `x` are identical.
///
/// # Examples
///
/// ```
/// use pnc_fit::{fit_ptanh, Ptanh};
///
/// # fn main() -> Result<(), pnc_fit::FitError> {
/// let truth = Ptanh { eta: [0.45, 0.35, 0.6, 8.0] };
/// let pts: Vec<(f64, f64)> = (0..60)
///     .map(|i| { let x = i as f64 / 59.0; (x, truth.eval(x)) })
///     .collect();
/// let fit = fit_ptanh(&pts)?;
/// assert!(fit.rmse < 1e-4);
/// # Ok(())
/// # }
/// ```
pub fn fit_ptanh(points: &[(f64, f64)]) -> Result<PtanhFit, FitError> {
    fit_ptanh_with(points, LmOptions::default())
}

/// Anchor priors pinning the η components that flat or saturated curves
/// leave unidentified (any η₃/η₄ describes a constant curve equally well).
/// The weights are small enough that well-identified fits are biased by
/// less than ~10⁻⁵ V, but they keep the surrogate's regression targets in a
/// compact, learnable range instead of scattering to arbitrary values.
const ETA_PRIOR: [f64; 4] = [0.5, 0.0, 0.5, 5.0];
const ETA_PRIOR_WEIGHT: [f64; 4] = [0.01, 0.01, 0.01, 0.001];

/// Fits Eq. 2 to `(V_in, V_out)` samples with explicit optimizer options.
///
/// Initialization is data-driven (plateau levels, half-swing crossing,
/// steepest slope) with fallback starts for flat or noisy curves; the first
/// start whose LM run converges is kept, else the lowest-cost run. A light
/// Tikhonov anchor (see the module source) bounds the non-identified η of
/// degenerate curves; [`PtanhFit::rmse`] is computed from the data residuals
/// only. Pinned by `ptanh_fits_and_their_lm_work_are_pinned` (fit bits and LM
/// work) and `in_memory_dataset_is_pinned` (the dataset built from them).
///
/// # Errors
///
/// See [`fit_ptanh`].
pub fn fit_ptanh_with(points: &[(f64, f64)], options: LmOptions) -> Result<PtanhFit, FitError> {
    obs_register();
    validate(points)?;

    let result = keep_run(initial_guesses(points), |s| run_start(points, s, options))?;
    let curve = Ptanh {
        eta: std::array::from_fn(|k| result.params[k]),
    }
    .canonical();
    // Data-only fit quality (the anchor residuals are excluded).
    let data_sse: f64 = points
        .iter()
        .map(|&(x, y)| (curve.eval(x) - y).powi(2))
        .sum();
    let rmse = (data_sse / points.len() as f64).sqrt();
    OBS_FITS.increment();
    OBS_RMSE.observe(rmse);
    Ok(PtanhFit {
        curve,
        rmse,
        converged: result.converged,
    })
}

/// One LM run of the anchored Eq. 2 model from `start`.
fn run_start(points: &[(f64, f64)], start: &[f64], options: LmOptions) -> LmOutcome {
    let n = points.len();
    levenberg_marquardt(start, options, |p| {
        let curve = Ptanh {
            eta: [p[0], p[1], p[2], p[3]],
        };
        // One pass, one `tanh` per sample: the n data rows, then the
        // 4 anchor rows (diagonal, zero elsewhere).
        let mut r = Vec::with_capacity(n + 4);
        let mut j = Matrix::zeros(n + 4, 4);
        for (row, &(x, y)) in j.as_mut_slice().chunks_exact_mut(4).zip(points) {
            let (value, grad) = curve.eval_with_grad_eta(x);
            r.push(value - y);
            row.copy_from_slice(&grad);
        }
        for k in 0..4 {
            r.push(ETA_PRIOR_WEIGHT[k] * (p[k] - ETA_PRIOR[k]));
            j[(n + k, k)] = ETA_PRIOR_WEIGHT[k];
        }
        (r, j)
    })
}

type LmOutcome = Result<LmResult, FitError>;

/// The first converged run, starting none after it; else the cheapest one.
fn keep_run(starts: Vec<[f64; 4]>, mut lm: impl FnMut(&[f64]) -> LmOutcome) -> LmOutcome {
    let mut cheapest: Option<LmResult> = None;
    for start in starts {
        let run = lm(&start)?;
        if run.converged {
            return Ok(run);
        }
        if cheapest.as_ref().is_none_or(|c| run.cost < c.cost) {
            cheapest = Some(run);
        }
    }
    cheapest.ok_or_else(|| FitError::InvalidData {
        detail: "no optimizer start produced a result".into(),
    })
}

fn validate(points: &[(f64, f64)]) -> Result<(), FitError> {
    if points.len() < 5 {
        return Err(FitError::InvalidData {
            detail: format!("need at least 5 points, got {}", points.len()),
        });
    }
    if points
        .iter()
        .any(|&(x, y)| !x.is_finite() || !y.is_finite())
    {
        return Err(FitError::InvalidData {
            detail: "non-finite sample".into(),
        });
    }
    let x0 = points[0].0;
    if points.iter().all(|&(x, _)| x == x0) {
        return Err(FitError::InvalidData {
            detail: "all x values identical".into(),
        });
    }
    Ok(())
}

/// Data-driven initial guesses: primary estimate plus deterministic
/// perturbations for robustness on flat/noisy curves.
fn initial_guesses(points: &[(f64, f64)]) -> Vec<[f64; 4]> {
    let mut sorted: Vec<(f64, f64)> = points.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));

    // `validate` guarantees non-empty input; an empty start list simply
    // yields `FitError::InvalidData` upstream instead of a panic here.
    let (Some(&(x_first, y_first)), Some(&(x_last, y_last))) = (sorted.first(), sorted.last())
    else {
        return Vec::new();
    };

    let y_min = sorted.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
    let y_max = sorted.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
    let e1 = 0.5 * (y_min + y_max);
    let half_swing = 0.5 * (y_max - y_min);

    // Overall direction: rising curves get η₂ > 0.
    let rising = y_last >= y_first;

    // Mid-level crossing for η₃.
    let e3 = sorted
        .windows(2)
        .find(|w| (w[0].1 - e1) * (w[1].1 - e1) <= 0.0 && w[0].1 != w[1].1)
        .map(|w| {
            let t = (e1 - w[0].1) / (w[1].1 - w[0].1);
            w[0].0 + t * (w[1].0 - w[0].0)
        })
        .unwrap_or_else(|| 0.5 * (x_first + x_last));

    // Steepest finite-difference slope for η₄ ≈ slope / η₂.
    let steepest = sorted
        .windows(2)
        .filter(|w| w[1].0 > w[0].0)
        .map(|w| (w[1].1 - w[0].1) / (w[1].0 - w[0].0))
        .fold(0.0_f64, |m, s| if s.abs() > m.abs() { s } else { m });
    let amp = if rising {
        half_swing.max(1e-6)
    } else {
        -half_swing.max(1e-6)
    };
    let e4 = (steepest / amp).abs().clamp(0.5, 100.0);

    let x_span = x_last - x_first;
    vec![
        [e1, amp, e3, e4],
        [e1, amp, e3, 2.0],
        [e1, amp, e3 + 0.25 * x_span, 0.5 * e4],
        [e1, amp, e3 - 0.25 * x_span, 2.0 * e4],
        [e1, 2.0 * amp, e3, 0.5],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(curve: &Ptanh, n: usize) -> Vec<(f64, f64)> {
        (0..n)
            .map(|i| {
                let x = i as f64 / (n - 1) as f64;
                (x, curve.eval(x))
            })
            .collect()
    }

    #[test]
    fn eval_and_derivative_are_consistent() {
        let p = Ptanh {
            eta: [0.4, 0.3, 0.5, 7.0],
        };
        for i in 0..10 {
            let v = i as f64 / 9.0;
            let h = 1e-7;
            let fd = (p.eval(v + h) - p.eval(v - h)) / (2.0 * h);
            assert!((fd - p.derivative(v)).abs() < 1e-6);
        }
    }

    #[test]
    fn grad_eta_matches_finite_difference() {
        let p = Ptanh {
            eta: [0.4, -0.3, 0.6, 5.0],
        };
        let v = 0.7;
        let g = p.grad_eta(v);
        for (k, &gk) in g.iter().enumerate() {
            let h = 1e-7;
            let mut up = p;
            up.eta[k] += h;
            let mut dn = p;
            dn.eta[k] -= h;
            let fd = (up.eval(v) - dn.eval(v)) / (2.0 * h);
            assert!((fd - gk).abs() < 1e-6, "component {k}: {fd} vs {gk}");
        }
    }

    #[test]
    fn fused_value_is_eval_bit_for_bit() {
        let p = Ptanh {
            eta: [0.4, -0.3, 0.6, 5.0],
        };
        for i in 0..50 {
            let v = i as f64 / 49.0 - 0.2;
            assert_eq!(p.eval_with_grad_eta(v).0.to_bits(), p.eval(v).to_bits());
        }
    }

    #[test]
    fn negated_curve_is_pointwise_negation() {
        let p = Ptanh {
            eta: [0.5, 0.4, 0.5, 6.0],
        };
        let n = p.negated();
        for i in 0..10 {
            let v = i as f64 / 9.0;
            assert!((n.eval(v) + p.eval(v)).abs() < 1e-12);
        }
    }

    #[test]
    fn canonical_fixes_sign_ambiguity() {
        let p = Ptanh {
            eta: [0.5, 0.4, 0.5, -6.0],
        };
        let c = p.canonical();
        assert!(c.eta[3] > 0.0);
        for i in 0..10 {
            let v = i as f64 / 9.0;
            assert!((c.eval(v) - p.eval(v)).abs() < 1e-12);
        }
    }

    #[test]
    fn recovers_exact_rising_curve() {
        let truth = Ptanh {
            eta: [0.5, 0.4, 0.55, 9.0],
        };
        let fit = fit_ptanh(&samples(&truth, 80)).unwrap();
        assert!(fit.rmse < 1e-5, "rmse {}", fit.rmse);
        for i in 0..20 {
            let v = i as f64 / 19.0;
            assert!((fit.curve.eval(v) - truth.eval(v)).abs() < 1e-4);
        }
    }

    #[test]
    fn recovers_exact_falling_curve() {
        let truth = Ptanh {
            eta: [0.5, -0.35, 0.4, 12.0],
        };
        let fit = fit_ptanh(&samples(&truth, 80)).unwrap();
        // The identifiability anchor biases the saturated falling curve by a
        // few tens of microvolts.
        assert!(fit.rmse < 1e-4, "rmse {}", fit.rmse);
        assert!(
            fit.curve.eta[1] < 0.0,
            "falling curve keeps negative η₂ after canonicalization"
        );
    }

    #[test]
    fn tolerates_noise() {
        let truth = Ptanh {
            eta: [0.5, 0.4, 0.5, 6.0],
        };
        // Zero-mean uniform noise of ±2.5 mV from a seeded splitmix64.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let pts: Vec<(f64, f64)> = (0..100)
            .map(|i| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                let u = (z >> 11) as f64 / (1u64 << 53) as f64;
                let x = i as f64 / 99.0;
                (x, truth.eval(x) + 0.005 * (u - 0.5))
            })
            .collect();
        let fit = fit_ptanh(&pts).unwrap();
        assert!(fit.rmse < 0.01, "rmse {}", fit.rmse);
        assert!((fit.curve.eta[2] - 0.5).abs() < 0.05);
    }

    #[test]
    fn fits_flat_curve_without_blowup() {
        let pts: Vec<(f64, f64)> = (0..50).map(|i| (i as f64 / 49.0, 0.81)).collect();
        let fit = fit_ptanh(&pts).unwrap();
        assert!(fit.rmse < 1e-4);
        // A flat curve is represented with vanishing amplitude or slope.
        let swing = (fit.curve.eval(1.0) - fit.curve.eval(0.0)).abs();
        assert!(swing < 1e-3, "swing {swing}");
    }

    #[test]
    fn fits_saturating_half_curve() {
        // Only the upper half of the sigmoid is visible in the window.
        let truth = Ptanh {
            eta: [0.5, 0.45, -0.2, 4.0],
        };
        let fit = fit_ptanh(&samples(&truth, 60)).unwrap();
        // Curve values must match in the observed window even if η is not
        // uniquely identified.
        for i in 0..20 {
            let v = i as f64 / 19.0;
            assert!(
                (fit.curve.eval(v) - truth.eval(v)).abs() < 2e-3,
                "mismatch at {v}"
            );
        }
    }

    #[test]
    fn rejects_too_few_points() {
        let pts = vec![(0.0, 0.0), (1.0, 1.0)];
        assert!(matches!(fit_ptanh(&pts), Err(FitError::InvalidData { .. })));
    }

    #[test]
    fn rejects_nan() {
        let pts = vec![
            (0.0, 0.0),
            (0.2, f64::NAN),
            (0.4, 0.1),
            (0.6, 0.4),
            (0.8, 0.9),
        ];
        assert!(fit_ptanh(&pts).is_err());
    }

    #[test]
    fn rejects_degenerate_x() {
        let pts = vec![(0.5, 0.0), (0.5, 0.1), (0.5, 0.2), (0.5, 0.3), (0.5, 0.4)];
        assert!(fit_ptanh(&pts).is_err());
    }

    /// A fully visible rising curve, on which the primary start converges.
    const RISING: Ptanh = Ptanh {
        eta: [0.5, 0.4, 0.55, 9.0],
    };

    /// The curve `fit_ptanh_with` reports for a kept LM run.
    pub(super) fn kept_curve(run: &LmResult) -> Ptanh {
        Ptanh {
            eta: std::array::from_fn(|k| run.params[k]),
        }
        .canonical()
    }

    /// The fit's stop rule over its own starts, with the LM runs it started.
    fn counted_keep_run(points: &[(f64, f64)], options: LmOptions) -> (LmResult, usize) {
        let mut runs = 0;
        let kept = keep_run(initial_guesses(points), |start| {
            runs += 1;
            run_start(points, start, options)
        })
        .unwrap();
        (kept, runs)
    }

    #[test]
    fn converged_primary_start_costs_one_lm_run() {
        let pts = samples(&RISING, 61);
        let (kept, runs) = counted_keep_run(&pts, LmOptions::default());
        assert!(kept.converged);
        assert_eq!(runs, 1, "the primary start converged, so no other runs");
        let fit = fit_ptanh(&pts).unwrap();
        assert!(fit.converged);
        assert_eq!(fit.curve, kept_curve(&kept));
    }

    #[test]
    fn without_a_converged_start_all_five_run_and_the_cheapest_is_kept() {
        let options = LmOptions {
            max_iterations: 1,
            ..LmOptions::default()
        };
        let pts = samples(&RISING, 61);
        let (kept, runs) = counted_keep_run(&pts, options);
        assert_eq!(runs, 5);
        let all: Vec<LmResult> = initial_guesses(&pts)
            .iter()
            .map(|start| run_start(&pts, start, options).unwrap())
            .collect();
        assert!(all.iter().all(|run| !run.converged));
        let cheapest = all
            .iter()
            .fold(&all[0], |c, run| if run.cost < c.cost { run } else { c });
        assert_eq!(&kept, cheapest);
        let fit = fit_ptanh_with(&pts, options).unwrap();
        assert!(!fit.converged);
        assert_eq!(fit.curve, kept_curve(cheapest));
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::kept_curve;
    use super::*;
    use proptest::prelude::*;

    fn data_rmse(points: &[(f64, f64)], curve: &Ptanh) -> f64 {
        let sse: f64 = points
            .iter()
            .map(|&(x, y)| (curve.eval(x) - y).powi(2))
            .sum();
        (sse / points.len() as f64).sqrt()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Stopping at the first converged start fits about as well as the
        /// best of all five starts run to completion. On exact curves whose
        /// transition is in view the kept data RMSE is within 1e-5 relative
        /// (8.3e-7 at most over 3,000 cases of this generator). With noise,
        /// or with the transition at or past the window's edge, a weakly
        /// identified η lets the first converged start settle up to 1.7 %
        /// (4.7e-5 V) above the best, so the bound there is 1e-4 V.
        #[test]
        fn first_converged_start_fits_as_well_as_the_best_start(
            (e1, e2, e3, e4) in (0.2..0.8f64, 0.05..0.45f64, -0.2..1.2f64, 0.5..30.0f64),
            rising in proptest::bool::ANY,
            n in 8usize..100,
            noise in proptest::collection::vec(-0.005..0.005f64, 100),
            noisy in proptest::bool::ANY,
        ) {
            let truth = Ptanh { eta: [e1, if rising { e2 } else { -e2 }, e3, e4] };
            let pts: Vec<(f64, f64)> = (0..n)
                .map(|i| {
                    let x = i as f64 / (n - 1) as f64;
                    (x, truth.eval(x) + if noisy { noise[i] } else { 0.0 })
                })
                .collect();
            let fit = fit_ptanh(&pts).unwrap();
            let best = initial_guesses(&pts)
                .iter()
                .map(|start| {
                    let run = run_start(&pts, start, LmOptions::default()).unwrap();
                    data_rmse(&pts, &kept_curve(&run))
                })
                .fold(f64::INFINITY, f64::min);
            prop_assert!(
                fit.rmse <= best + 1e-4,
                "kept RMSE {} vs best {} for eta {:?}", fit.rmse, best, truth.eta
            );
            if !noisy && (0.1..=0.9).contains(&e3) {
                prop_assert!(
                    fit.rmse <= best * (1.0 + 1e-5),
                    "kept RMSE {} vs best {} for exact eta {:?}", fit.rmse, best, truth.eta
                );
            }
        }

        #[test]
        fn fitted_curve_matches_generated_curve(
            e1 in 0.2..0.8f64,
            e2 in 0.1..0.45f64,
            e3 in 0.2..0.8f64,
            e4 in 1.0..20.0f64,
            rising in proptest::bool::ANY,
        ) {
            let truth = Ptanh { eta: [e1, if rising { e2 } else { -e2 }, e3, e4] };
            let pts: Vec<(f64, f64)> = (0..60)
                .map(|i| { let x = i as f64 / 59.0; (x, truth.eval(x)) })
                .collect();
            let fit = fit_ptanh(&pts).unwrap();
            // Compare curves pointwise: η itself can be non-identifiable.
            for i in 0..30 {
                let v = i as f64 / 29.0;
                prop_assert!(
                    (fit.curve.eval(v) - truth.eval(v)).abs() < 1e-3,
                    "mismatch at {} for eta {:?}: fit {:?}", v, truth.eta, fit.curve.eta
                );
            }
        }
    }
}
