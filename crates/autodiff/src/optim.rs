//! Gradient-based optimizers over externally stored parameters.
//!
//! The tape in [`Graph`] is rebuilt for every training step, so
//! trainable state lives outside the graph in [`Parameter`]s. A step is:
//!
//! 1. build a graph, inserting each parameter with
//!    [`Parameter::leaf`],
//! 2. compute the loss and call [`Graph::backward`](crate::Graph::backward),
//! 3. hand the gradients to [`Adam::step`].
//!
//! [`Adam`] is the paper's optimizer, with its default settings. Different
//! parameter groups (crossbar conductances θ
//! vs. nonlinear-circuit parameters 𝔴) use separate optimizer instances so
//! they can have the different learning rates the paper prescribes
//! (α_θ = 0.1, α_ω = 0.005).
//!
//! # Examples
//!
//! Minimize `(x − 3)²`:
//!
//! ```
//! use pnc_autodiff::{Adam, Graph, Parameter};
//! use pnc_linalg::Matrix;
//!
//! # fn main() -> Result<(), pnc_autodiff::AutodiffError> {
//! let mut p = Parameter::new(Matrix::filled(1, 1, 0.0));
//! let mut opt = Adam::new(0.1);
//! for _ in 0..500 {
//!     let mut g = Graph::new();
//!     let x = p.leaf(&mut g);
//!     let d = g.add_scalar(x, -3.0);
//!     let loss = g.powi(d, 2);
//!     let loss = g.sum(loss);
//!     let grads = g.backward(loss)?;
//!     opt.step(&mut [&mut p], &[x], &grads);
//! }
//! assert!((p.value()[(0, 0)] - 3.0).abs() < 1e-3);
//! # Ok(())
//! # }
//! ```

use crate::{GradStore, Graph, Var};
use pnc_linalg::Matrix;
use serde::{Deserialize, Serialize};

/// A trainable tensor with optimizer state, living outside the tape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Parameter {
    value: Matrix,
    /// First-moment estimate.
    m: Matrix,
    /// Second-moment estimate.
    v: Matrix,
    /// Number of optimizer steps already applied.
    steps: u64,
}

impl Parameter {
    /// Wraps an initial value.
    pub fn new(value: Matrix) -> Self {
        let (r, c) = value.shape();
        Parameter {
            value,
            m: Matrix::zeros(r, c),
            v: Matrix::zeros(r, c),
            steps: 0,
        }
    }

    /// The current value.
    pub fn value(&self) -> &Matrix {
        &self.value
    }

    /// Mutable access to the value (e.g. for re-initialization).
    pub fn value_mut(&mut self) -> &mut Matrix {
        &mut self.value
    }

    /// Registers this parameter's current value as a leaf on `graph`.
    pub fn leaf(&self, graph: &mut Graph) -> Var {
        graph.leaf(&self.value)
    }

    /// Resets optimizer state (moments and step count).
    pub fn reset_state(&mut self) {
        let (r, c) = self.value.shape();
        self.m = Matrix::zeros(r, c);
        self.v = Matrix::zeros(r, c);
        self.steps = 0;
    }
}

/// Adam (Kingma & Ba, 2014) with the default β/ε settings the paper uses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate α.
    pub lr: f64,
    /// Exponential decay rate for the first moment.
    pub beta1: f64,
    /// Exponential decay rate for the second moment.
    pub beta2: f64,
    /// Numerical stabilizer.
    pub epsilon: f64,
}

impl Adam {
    /// Adam with default `β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`.
    pub fn new(lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
        }
    }

    /// Applies one update step.
    ///
    /// `params` and `vars` are parallel: `vars[i]` must be the leaf that
    /// `params[i]` registered on the graph whose `grads` are being applied.
    /// Parameters whose leaf received no gradient are left unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the slices are not parallel or a gradient shape differs
    /// from its parameter.
    pub fn step(&mut self, params: &mut [&mut Parameter], vars: &[Var], grads: &GradStore) {
        assert_eq!(
            params.len(),
            vars.len(),
            "params and vars must be parallel slices"
        );
        for (param, var) in params.iter_mut().zip(vars) {
            let Some(grad) = grads.get(*var) else {
                continue;
            };
            self.update(param, grad);
        }
    }

    /// Applies one update step from explicitly supplied gradient matrices
    /// (parallel to `params`). Used when a gradient was accumulated over
    /// several registrations of the same parameter — e.g. the Monte-Carlo
    /// variation-aware loss, where each noise sample registers its own leaf.
    ///
    /// # Panics
    ///
    /// Panics if the slices are not parallel or a gradient shape differs
    /// from its parameter.
    pub fn step_dense(&mut self, params: &mut [&mut Parameter], grads: &[&Matrix]) {
        assert_eq!(
            params.len(),
            grads.len(),
            "params and grads must be parallel slices"
        );
        for (param, grad) in params.iter_mut().zip(grads) {
            self.update(param, grad);
        }
    }

    /// The current learning rate.
    pub fn learning_rate(&self) -> f64 {
        self.lr
    }

    /// Changes the learning rate (e.g. for schedules).
    pub fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }

    fn update(&self, param: &mut Parameter, grad: &Matrix) {
        assert_eq!(
            grad.shape(),
            param.value.shape(),
            "gradient shape must match parameter"
        );
        param.steps += 1;
        let t = param.steps as i32;
        let bias1 = 1.0 - self.beta1.powi(t);
        let bias2 = 1.0 - self.beta2.powi(t);
        for idx in 0..grad.len() {
            let g = grad.as_slice()[idx];
            let m = &mut param.m.as_mut_slice()[idx];
            *m = self.beta1 * *m + (1.0 - self.beta1) * g;
            let v = &mut param.v.as_mut_slice()[idx];
            *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
            let m_hat = *m / bias1;
            let v_hat = *v / bias2;
            param.value.as_mut_slice()[idx] -= self.lr * m_hat / (v_hat.sqrt() + self.epsilon);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_step(p: &mut Parameter, opt: &mut Adam, target: f64) -> f64 {
        let mut g = Graph::new();
        let x = p.leaf(&mut g);
        let d = g.add_scalar(x, -target);
        let sq = g.powi(d, 2);
        let loss = g.sum(sq);
        let grads = g.backward(loss).unwrap();
        let value = g.value(loss)[(0, 0)];
        opt.step(&mut [p], &[x], &grads);
        value
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut p = Parameter::new(Matrix::filled(1, 1, -5.0));
        let mut opt = Adam::new(0.2);
        let mut last = f64::INFINITY;
        for _ in 0..600 {
            last = quadratic_step(&mut p, &mut opt, 1.5);
        }
        assert!((p.value()[(0, 0)] - 1.5).abs() < 1e-3, "final loss {last}");
    }

    #[test]
    fn adam_first_step_size_is_learning_rate() {
        // A well-known Adam property: the very first update has magnitude ≈ lr
        // regardless of gradient scale.
        for &scale in &[1.0, 1e4, 1e-4] {
            let mut p = Parameter::new(Matrix::filled(1, 1, 0.0));
            let mut opt = Adam::new(0.05);
            let mut g = Graph::new();
            let x = p.leaf(&mut g);
            let y = g.scale(x, scale);
            let loss = g.sum(y);
            let grads = g.backward(loss).unwrap();
            opt.step(&mut [&mut p], &[x], &grads);
            assert!(
                (p.value()[(0, 0)].abs() - 0.05).abs() < 1e-5,
                "scale {scale}: step {}",
                p.value()[(0, 0)]
            );
        }
    }

    #[test]
    fn missing_gradient_leaves_parameter_unchanged() {
        let mut p = Parameter::new(Matrix::filled(1, 1, 7.0));
        let mut q = Parameter::new(Matrix::filled(1, 1, 1.0));
        let mut opt = Adam::new(0.5);
        let mut g = Graph::new();
        let xp = p.leaf(&mut g);
        let xq = q.leaf(&mut g);
        // Loss only involves q.
        let loss = g.sum(xq);
        let grads = g.backward(loss).unwrap();
        opt.step(&mut [&mut p, &mut q], &[xp, xq], &grads);
        assert_eq!(p.value()[(0, 0)], 7.0);
        // Adam's first step moves q by about the learning rate.
        assert!((q.value()[(0, 0)] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn reset_state_clears_moments() {
        let mut p = Parameter::new(Matrix::filled(1, 1, 0.0));
        let mut opt = Adam::new(0.1);
        quadratic_step(&mut p, &mut opt, 5.0);
        assert!(p.m.norm() > 0.0);
        p.reset_state();
        assert_eq!(p.m.norm(), 0.0);
        assert_eq!(p.v.norm(), 0.0);
        assert_eq!(p.steps, 0);
    }

    #[test]
    fn step_dense_matches_step() {
        // The two entry points must produce identical updates.
        let grad = Matrix::row_vector(&[0.5, -1.5]);
        let mut via_store = Parameter::new(Matrix::row_vector(&[1.0, 2.0]));
        let mut via_dense = via_store.clone();

        let mut g = Graph::new();
        let x = via_store.leaf(&mut g);
        let w = g.constant(&grad);
        let prod = g.mul(x, w).unwrap();
        let loss = g.sum(prod);
        let grads = g.backward(loss).unwrap();

        let mut opt1 = Adam::new(0.1);
        opt1.step(&mut [&mut via_store], &[x], &grads);
        let mut opt2 = Adam::new(0.1);
        opt2.step_dense(&mut [&mut via_dense], &[&grad]);
        assert_eq!(via_store.value(), via_dense.value());
    }

    #[test]
    #[should_panic(expected = "gradient shape")]
    fn step_dense_checks_shapes() {
        let mut p = Parameter::new(Matrix::zeros(1, 2));
        let g = Matrix::zeros(2, 1);
        Adam::new(0.1).step_dense(&mut [&mut p], &[&g]);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut a = Adam::new(0.1);
        a.set_learning_rate(0.2);
        assert_eq!(a.learning_rate(), 0.2);
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn mismatched_slices_panic() {
        let mut p = Parameter::new(Matrix::filled(1, 1, 0.0));
        let mut opt = Adam::new(0.1);
        let mut g = Graph::new();
        let x = g.leaf(Matrix::filled(1, 1, 0.0));
        let loss = g.sum(x);
        let store = g.backward(loss).unwrap();
        opt.step(&mut [&mut p], &[x, loss], &store);
    }
}
