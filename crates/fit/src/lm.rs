use crate::FitError;
use pnc_linalg::{Lu, Matrix};
use pnc_obs::{Counter, Histogram};

// Observability: one record per completed LM run, accumulated locally and
// flushed with a handful of atomic adds at the end so the inner damping loop
// stays untouched. Catalogued in docs/METRICS.md.
static OBS_RUNS: Counter = Counter::new("fit.lm.runs");
static OBS_ITERATIONS: Counter = Counter::new("fit.lm.iterations");
static OBS_LAMBDA_ESCALATIONS: Counter = Counter::new("fit.lm.lambda_escalations");
static OBS_NONCONVERGED: Counter = Counter::new("fit.lm.nonconverged");
static OBS_FINAL_COST: Histogram = Histogram::new("fit.lm.final_cost");

pub(crate) fn obs_register() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        OBS_RUNS.register();
        OBS_ITERATIONS.register();
        OBS_LAMBDA_ESCALATIONS.register();
        OBS_NONCONVERGED.register();
        OBS_FINAL_COST.register();
    });
}

/// Options for the Levenberg–Marquardt solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LmOptions {
    /// Maximum number of accepted-or-rejected iterations.
    pub max_iterations: usize,
    /// Stop when the relative cost improvement falls below this.
    pub cost_tolerance: f64,
    /// Stop when the infinity norm of the step falls below this.
    pub step_tolerance: f64,
    /// Initial damping factor λ.
    pub initial_lambda: f64,
}

impl Default for LmOptions {
    fn default() -> Self {
        LmOptions {
            max_iterations: 200,
            cost_tolerance: 1e-14,
            step_tolerance: 1e-12,
            initial_lambda: 1e-3,
        }
    }
}

/// The outcome of a Levenberg–Marquardt run.
#[derive(Debug, Clone, PartialEq)]
pub struct LmResult {
    /// The best parameter vector found.
    pub params: Vec<f64>,
    /// Final cost `0.5 · ‖r‖²`.
    pub cost: f64,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether a tolerance-based stop was reached (as opposed to running out
    /// of iterations).
    pub converged: bool,
}

/// Minimizes `0.5 · ‖r(p)‖²` by damped Gauss–Newton (Levenberg–Marquardt).
///
/// `model` maps a parameter vector to the residual vector `r` and the
/// Jacobian `J` with `J[(i, j)] = ∂r_i/∂p_j`. The residual length must be
/// constant across calls.
///
/// Damping uses the Marquardt diagonal scaling
/// `(JᵀJ + λ·diag(JᵀJ))·δ = −Jᵀr`, multiplying λ by 10 on a rejected step
/// and dividing by 10 on an accepted one.
///
/// # Errors
///
/// Returns [`FitError::InvalidData`] for an empty parameter vector or a
/// non-finite cost at the starting point, and [`FitError::Singular`] if the
/// damped normal equations stay singular even at very large λ (every damped
/// factorization in an inner loop failed).
///
/// When the inner damping loop exhausts its λ escalations without an
/// accepted step, the result distinguishes a genuine local optimum — the
/// smallest attempted step was below `step_tolerance`, reported as
/// `converged: true` — from giving up (a meaningful step existed but no
/// candidate improved the finite cost), reported as `converged: false`. A
/// `converged: true` result always carries a finite `cost`.
///
/// ```
/// use pnc_fit::{levenberg_marquardt, FitError, LmOptions};
/// use pnc_linalg::Matrix;
///
/// // NaN residuals at the starting point are rejected up front.
/// let err = levenberg_marquardt(&[1.0], LmOptions::default(), |p| {
///     (vec![f64::NAN * p[0]], Matrix::from_rows(&[&[1.0]]).unwrap())
/// });
/// assert!(matches!(err, Err(FitError::InvalidData { .. })));
/// ```
///
/// # Examples
///
/// Fit a line through two points:
///
/// ```
/// use pnc_fit::{levenberg_marquardt, LmOptions};
/// use pnc_linalg::Matrix;
///
/// # fn main() -> Result<(), pnc_fit::FitError> {
/// let data = [(0.0, 1.0), (1.0, 3.0)];
/// let result = levenberg_marquardt(
///     &[0.0, 0.0],
///     LmOptions::default(),
///     |p| {
///         let r: Vec<f64> = data.iter().map(|&(x, y)| p[0] + p[1] * x - y).collect();
///         let j = Matrix::from_fn(2, 2, |i, col| if col == 0 { 1.0 } else { data[i].0 });
///         (r, j)
///     },
/// )?;
/// assert!((result.params[0] - 1.0).abs() < 1e-9);
/// assert!((result.params[1] - 2.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn levenberg_marquardt(
    initial: &[f64],
    options: LmOptions,
    mut model: impl FnMut(&[f64]) -> (Vec<f64>, Matrix),
) -> Result<LmResult, FitError> {
    let n = initial.len();
    if n == 0 {
        return Err(FitError::InvalidData {
            detail: "empty parameter vector".into(),
        });
    }

    let mut params = initial.to_vec();
    let (mut residual, mut jacobian) = model(&params);
    let mut cost = 0.5 * residual.iter().map(|r| r * r).sum::<f64>();
    if !cost.is_finite() {
        return Err(FitError::InvalidData {
            detail: format!("initial cost is not finite ({cost})"),
        });
    }
    obs_register();
    let mut lambda = options.initial_lambda;
    let mut converged = false;
    let mut iterations = 0;
    let mut lambda_escalations: u64 = 0;
    // Hoisted scratch for the normal equations: the parameter count is fixed,
    // so the n×n system, its LU factors, the negated gradient, and the step
    // vector are allocated once and refilled every (re-damped) attempt.
    let mut jtj = Matrix::zeros(n, n);
    let mut lu = Lu::default();
    let mut damped = Matrix::zeros(n, n);
    let mut neg_g = vec![0.0; n];
    let mut step = vec![0.0; n];

    for iter in 0..options.max_iterations {
        iterations = iter + 1;

        // Normal equations: JᵀJ (without materializing Jᵀ) and −Jᵀr.
        if let Err(source) = jacobian.matmul_tn_into(&jacobian, &mut jtj) {
            return Err(FitError::Singular { source });
        }
        for (j, g) in neg_g.iter_mut().enumerate() {
            *g = -residual
                .iter()
                .enumerate()
                .map(|(i, r)| jacobian[(i, j)] * r)
                .sum::<f64>();
        }

        // Try steps with increasing damping until one is accepted or λ
        // explodes.
        let mut accepted = false;
        let mut last_singular = None;
        // Step norm of the least-damped solvable system: heavy damping
        // shrinks later steps toward zero regardless of the gradient, so only
        // the first attempt says whether a meaningful step existed.
        let mut first_step_norm = None;
        for _ in 0..30 {
            if let Err(source) = damped.copy_from(&jtj) {
                return Err(FitError::Singular { source });
            }
            for j in 0..n {
                // Marquardt scaling; fall back to absolute damping for zero
                // diagonal entries (parameters the residual ignores locally).
                let d = jtj[(j, j)];
                damped[(j, j)] = d + lambda * if d > 0.0 { d } else { 1.0 };
            }
            match lu
                .refactor(&damped)
                .and_then(|()| lu.solve_into(&neg_g, &mut step))
            {
                Ok(()) => {}
                Err(source) => {
                    last_singular = Some(source);
                    lambda *= 10.0;
                    lambda_escalations += 1;
                    continue;
                }
            }
            let step_norm = step.iter().fold(0.0_f64, |m, s| m.max(s.abs()));
            first_step_norm.get_or_insert(step_norm);
            let candidate: Vec<f64> = params.iter().zip(&step).map(|(p, s)| p + s).collect();
            let (cand_res, cand_jac) = model(&candidate);
            let cand_cost = 0.5 * cand_res.iter().map(|r| r * r).sum::<f64>();

            if cand_cost.is_finite() && cand_cost < cost {
                let improvement = (cost - cand_cost) / cost.max(f64::MIN_POSITIVE);
                params = candidate;
                residual = cand_res;
                jacobian = cand_jac;
                cost = cand_cost;
                lambda = (lambda / 10.0).max(1e-12);
                accepted = true;
                if improvement < options.cost_tolerance || step_norm < options.step_tolerance {
                    converged = true;
                }
                break;
            }
            lambda *= 10.0;
            lambda_escalations += 1;
        }

        if !accepted {
            // The damping loop exhausted every λ escalation. Distinguish the
            // documented failure modes instead of claiming convergence:
            match first_step_norm {
                // Every damped factorization failed — the normal equations
                // are singular at any achievable damping.
                None => {
                    return match last_singular {
                        Some(source) => Err(FitError::Singular { source }),
                        // Unreachable by construction (no step norm means at
                        // least one solve failed), but degrade to an error
                        // rather than a panic.
                        None => Err(FitError::InvalidData {
                            detail: "damping loop made no step and recorded no solver failure"
                                .into(),
                        }),
                    };
                }
                // The least-damped proposed step already vanished: genuine
                // local optimum.
                Some(norm) if norm < options.step_tolerance => converged = true,
                // A meaningful step existed but nothing went downhill (e.g.
                // the model returns non-finite residuals nearby): give up
                // honestly rather than reporting convergence.
                Some(_) => break,
            }
        }
        if converged {
            break;
        }
    }

    OBS_RUNS.increment();
    OBS_ITERATIONS.add(iterations as u64);
    OBS_LAMBDA_ESCALATIONS.add(lambda_escalations);
    if !converged {
        OBS_NONCONVERGED.increment();
    }
    OBS_FINAL_COST.observe(cost);

    Ok(LmResult {
        params,
        cost,
        iterations,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exponential decay fit: a classic nonlinear test problem.
    #[test]
    fn fits_exponential_decay() {
        let truth = (2.5, 1.3);
        let xs: Vec<f64> = (0..30).map(|i| i as f64 * 0.1).collect();
        let data: Vec<(f64, f64)> = xs
            .iter()
            .map(|&x| (x, truth.0 * (-truth.1 * x).exp()))
            .collect();

        let result = levenberg_marquardt(&[1.0, 0.5], LmOptions::default(), |p| {
            let r: Vec<f64> = data
                .iter()
                .map(|&(x, y)| p[0] * (-p[1] * x).exp() - y)
                .collect();
            let j = Matrix::from_fn(data.len(), 2, |i, col| {
                let x = data[i].0;
                let e = (-p[1] * x).exp();
                if col == 0 {
                    e
                } else {
                    -p[0] * x * e
                }
            });
            (r, j)
        })
        .unwrap();

        assert!(result.converged);
        assert!((result.params[0] - truth.0).abs() < 1e-6);
        assert!((result.params[1] - truth.1).abs() < 1e-6);
        assert!(result.cost < 1e-15);
    }

    #[test]
    fn rosenbrock_valley() {
        // Rosenbrock as a residual problem: r = [10(y − x²), 1 − x].
        let result = levenberg_marquardt(
            &[-1.2, 1.0],
            LmOptions {
                max_iterations: 500,
                ..LmOptions::default()
            },
            |p| {
                let r = vec![10.0 * (p[1] - p[0] * p[0]), 1.0 - p[0]];
                let j = Matrix::from_rows(&[&[-20.0 * p[0], 10.0], &[-1.0, 0.0]]).unwrap();
                (r, j)
            },
        )
        .unwrap();
        assert!((result.params[0] - 1.0).abs() < 1e-6);
        assert!((result.params[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn rejects_empty_parameters() {
        let err = levenberg_marquardt(&[], LmOptions::default(), |_| (vec![], Matrix::zeros(1, 1)));
        assert!(matches!(err, Err(FitError::InvalidData { .. })));
    }

    #[test]
    fn handles_insensitive_parameter() {
        // Second parameter does not influence the residual: JᵀJ is singular,
        // but Marquardt damping with the absolute fallback keeps it solvable.
        let result = levenberg_marquardt(&[0.0, 5.0], LmOptions::default(), |p| {
            let r = vec![p[0] - 3.0];
            let j = Matrix::from_rows(&[&[1.0, 0.0]]).unwrap();
            (r, j)
        })
        .unwrap();
        assert!((result.params[0] - 3.0).abs() < 1e-8);
        // Insensitive parameter stays where it started.
        assert!((result.params[1] - 5.0).abs() < 1e-8);
    }

    #[test]
    fn nan_initial_cost_is_rejected() {
        // A model that is NaN at the starting point must not "converge".
        let err = levenberg_marquardt(&[0.0], LmOptions::default(), |p| {
            let r = vec![if p[0] == 0.0 { f64::NAN } else { p[0] - 1.0 }];
            (r, Matrix::from_rows(&[&[1.0]]).unwrap())
        });
        match err {
            Err(FitError::InvalidData { detail }) => {
                assert!(detail.contains("initial cost"), "{detail}")
            }
            other => panic!("expected InvalidData, got {other:?}"),
        }
    }

    #[test]
    fn infinite_initial_cost_is_rejected() {
        let err = levenberg_marquardt(&[0.0], LmOptions::default(), |_| {
            (vec![f64::INFINITY], Matrix::from_rows(&[&[1.0]]).unwrap())
        });
        assert!(matches!(err, Err(FitError::InvalidData { .. })));
    }

    #[test]
    fn exhausted_damping_reports_not_converged() {
        // Finite at the start, NaN everywhere else: every candidate step is
        // rejected although the proposed steps are large. The solver must
        // give up honestly instead of claiming a tolerance-based stop.
        let result = levenberg_marquardt(&[0.0], LmOptions::default(), |p| {
            let r = vec![if p[0] == 0.0 { 1.0 } else { f64::NAN }];
            (r, Matrix::from_rows(&[&[1.0]]).unwrap())
        })
        .unwrap();
        assert!(!result.converged, "gave-up path must not claim convergence");
        assert!(result.cost.is_finite());
        assert_eq!(result.params, vec![0.0], "params stay at the best point");
        assert_eq!(result.iterations, 1, "one exhausted outer iteration");
    }

    #[test]
    fn persistently_singular_normal_equations_return_the_documented_error() {
        // A Jacobian so small that JᵀJ ≈ 1e-40 keeps the damped pivot under
        // the LU tolerance at every achievable λ: all 30 damped solves fail
        // and the documented `FitError::Singular` must surface (previously
        // this was silently reported as converged).
        let err = levenberg_marquardt(&[1.0], LmOptions::default(), |p| {
            let r = vec![1e-20 * p[0] - 1.0];
            (r, Matrix::from_rows(&[&[1e-20]]).unwrap())
        });
        assert!(matches!(err, Err(FitError::Singular { .. })), "{err:?}");
    }

    #[test]
    fn converged_never_pairs_with_nonfinite_cost() {
        // A model that degrades to NaN after improving for a while: whatever
        // the outcome, `converged` must imply a finite cost.
        let result = levenberg_marquardt(&[10.0], LmOptions::default(), |p| {
            let r = vec![if p[0].abs() < 5.0 { f64::NAN } else { p[0] }];
            (r, Matrix::from_rows(&[&[1.0]]).unwrap())
        })
        .unwrap();
        if result.converged {
            assert!(result.cost.is_finite());
        }
    }

    #[test]
    fn already_optimal_start_converges_immediately() {
        let result = levenberg_marquardt(&[3.0], LmOptions::default(), |p| {
            let r = vec![p[0] - 3.0];
            let j = Matrix::from_rows(&[&[1.0]]).unwrap();
            (r, j)
        })
        .unwrap();
        assert!(result.converged);
        assert!(result.cost < 1e-20);
        assert!(result.iterations <= 2);
    }
}
