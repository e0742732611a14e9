use crate::AutodiffError;
use pnc_linalg::Matrix;
use std::borrow::Borrow;

/// Handle to a tensor node in a [`Graph`].
///
/// `Var`s are cheap copyable indices; they are only meaningful for the graph
/// that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

impl Var {
    /// The raw tape index of this node.
    pub fn index(self) -> usize {
        self.0
    }
}

/// One recorded operation. Parents are stored as `Var` indices, which are
/// always smaller than the node's own index — the tape is topologically
/// sorted by construction.
#[derive(Debug, Clone)]
enum Op {
    /// Trainable input (gradient of interest).
    Leaf,
    /// Non-trainable input.
    Constant,
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Div(Var, Var),
    MatMul(Var, Var),
    Abs(Var),
    Tanh(Var),
    Sigmoid(Var),
    Scale(Var, f64),
    AddScalar(Var),
    Powi(Var, i32),
    Sum(Var),
    Mean(Var),
    SumRows(Var),
    SliceCols {
        parent: Var,
        start: usize,
    },
    ConcatCols(Vec<Var>),
    /// Straight-through estimator: arbitrary forward projection, identity
    /// backward.
    Ste(Var),
    /// Fused loss with a precomputed gradient template w.r.t. the scores.
    FusedLoss {
        scores: Var,
        grad: Matrix,
    },
}

#[derive(Debug, Clone)]
struct Node {
    value: Matrix,
    op: Op,
    /// Whether a gradient of this node can reach a leaf: true for a leaf,
    /// false for a constant, and for an op true if any parent's flag is.
    /// [`Graph::backward_into`] skips every target whose flag is false.
    needs: bool,
}

/// Gradients produced by [`Graph::backward`], indexed by [`Var`].
///
/// One slot per tape node; [`Graph::backward_into`] clears and refills it.
#[derive(Debug, Default)]
pub struct GradStore {
    grads: Vec<Option<Matrix>>,
}

impl GradStore {
    /// Creates an empty store; [`Graph::backward_into`] sizes it to the tape.
    pub fn new() -> Self {
        GradStore::default()
    }

    /// The gradient of the loss with respect to `v`, if any gradient flowed
    /// to it.
    pub fn get(&self, v: Var) -> Option<&Matrix> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }

    /// Clears all gradients and resizes the arena for a tape of `len`
    /// nodes.
    fn reset_for(&mut self, len: usize) {
        self.grads.clear();
        self.grads.resize(len, None);
    }

    /// Adds `g` into the slot for `v`: in place when the slot is occupied,
    /// as the slot value when it is empty. Bit-identical to the old
    /// allocating `existing + g` path.
    fn accumulate_owned(&mut self, v: Var, g: Matrix) -> Result<(), AutodiffError> {
        match &mut self.grads[v.0] {
            Some(existing) => existing.add_assign(&g).map_err(bw_err("grad_accumulate"))?,
            slot @ None => *slot = Some(g),
        }
        Ok(())
    }

    /// Pre-overhaul accumulate, kept for [`Graph::backward_reference`]:
    /// replaces the slot with a freshly allocated `existing + g`.
    fn accumulate_alloc(&mut self, v: Var, g: Matrix) -> Result<(), AutodiffError> {
        match &mut self.grads[v.0] {
            Some(existing) => {
                *existing = existing.add(&g).map_err(bw_err("grad_accumulate"))?;
            }
            slot @ None => *slot = Some(g),
        }
        Ok(())
    }

    /// Adds `g` into the slot for `v` without taking ownership: in place when
    /// the slot is occupied, as a copy when it is empty.
    fn accumulate_ref(&mut self, v: Var, g: &Matrix) -> Result<(), AutodiffError> {
        match &mut self.grads[v.0] {
            Some(existing) => existing.add_assign(g).map_err(bw_err("grad_accumulate"))?,
            slot @ None => *slot = Some(g.clone()),
        }
        Ok(())
    }
}

/// Wraps a linear-algebra failure inside a gradient rule as
/// [`AutodiffError::Backward`]. The forward pass validates shapes, so these
/// errors indicate an internal inconsistency in a hand-derived gradient —
/// surfaced as an error rather than a panic so callers can report it.
fn bw_err(op: &'static str) -> impl Fn(pnc_linalg::LinalgError) -> AutodiffError {
    move |source| AutodiffError::Backward { op, source }
}

/// A define-by-run computation tape over dense `f64` matrices.
///
/// Operations evaluate eagerly and record themselves; [`Graph::backward`]
/// replays the tape in reverse. The tape is rebuilt every training step (the
/// usual define-by-run pattern) — leaves take their values from externally
/// stored [`Parameter`](crate::Parameter)s. Every node owns a freshly
/// allocated value; [`Graph::reset`] drops them and keeps only the node
/// arena's capacity.
///
/// Elementwise binary operations broadcast `1×1` scalars, `1×n` row vectors
/// and `m×1` column vectors against `m×n` matrices.
///
/// # Examples
///
/// ```
/// use pnc_autodiff::Graph;
/// use pnc_linalg::Matrix;
///
/// # fn main() -> Result<(), pnc_autodiff::AutodiffError> {
/// let mut g = Graph::new();
/// let w = g.leaf(Matrix::from_rows(&[&[2.0]]).expect("shape"));
/// let x = g.constant(Matrix::row_vector(&[1.0, 2.0, 3.0]));
/// let y = g.mul(w, x)?;      // scalar broadcast
/// let loss = g.sum(y);
/// let grads = g.backward(loss)?;
/// assert_eq!(grads.get(w).expect("grad")[(0, 0)], 6.0); // 1 + 2 + 3
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

/// Broadcast-compatible result shape, if any.
fn broadcast_shape(a: (usize, usize), b: (usize, usize)) -> Option<(usize, usize)> {
    let rows = if a.0 == b.0 {
        a.0
    } else if a.0 == 1 {
        b.0
    } else if b.0 == 1 {
        a.0
    } else {
        return None;
    };
    let cols = if a.1 == b.1 {
        a.1
    } else if a.1 == 1 {
        b.1
    } else if b.1 == 1 {
        a.1
    } else {
        return None;
    };
    Some((rows, cols))
}

/// Evaluates `f` elementwise over broadcast operands into a preallocated
/// `out` of the broadcast shape (fully overwritten). Same fill order — and
/// therefore the same bits — as the old allocating `Matrix::from_fn` path:
/// the shape-specialized branches below only replace bounds-checked `(i, j)`
/// indexing with slice iteration, applying `f` to the identical operand pair
/// at the identical row-major position.
fn broadcast_fill(a: &Matrix, b: &Matrix, f: impl Fn(f64, f64) -> f64, out: &mut Matrix) {
    let (ar, ac) = a.shape();
    let (br, bc) = b.shape();
    let (rows, cols) = out.shape();
    let o = out.as_mut_slice();
    if (ar, ac) == (rows, cols) && (br, bc) == (rows, cols) {
        // Equal shapes: one flat pass.
        for ((o, &av), &bv) in o.iter_mut().zip(a.as_slice()).zip(b.as_slice()) {
            *o = f(av, bv);
        }
    } else if (ar, ac) == (rows, cols) && (br, bc) == (1, 1) {
        // Scalar right operand.
        let bv = b.as_slice()[0];
        for (o, &av) in o.iter_mut().zip(a.as_slice()) {
            *o = f(av, bv);
        }
    } else if (br, bc) == (rows, cols) && (ar, ac) == (1, 1) {
        // Scalar left operand.
        let av = a.as_slice()[0];
        for (o, &bv) in o.iter_mut().zip(b.as_slice()) {
            *o = f(av, bv);
        }
    } else if (ar, ac) == (rows, cols) && (br, bc) == (1, cols) {
        // Row-vector right operand, repeated down the rows.
        let b_row = b.as_slice();
        for (out_row, a_row) in o
            .chunks_exact_mut(cols)
            .zip(a.as_slice().chunks_exact(cols))
        {
            for ((o, &av), &bv) in out_row.iter_mut().zip(a_row).zip(b_row) {
                *o = f(av, bv);
            }
        }
    } else if (ar, ac) == (rows, cols) && (br, bc) == (rows, 1) {
        // Column-vector right operand, one value per row.
        for ((out_row, a_row), &bv) in o
            .chunks_exact_mut(cols)
            .zip(a.as_slice().chunks_exact(cols))
            .zip(b.as_slice())
        {
            for (o, &av) in out_row.iter_mut().zip(a_row) {
                *o = f(av, bv);
            }
        }
    } else {
        // Remaining broadcast combinations (left-operand vectors, outer
        // products): the general indexed walk.
        for i in 0..rows {
            for j in 0..cols {
                let av = a[(if ar == 1 { 0 } else { i }, if ac == 1 { 0 } else { j })];
                let bv = b[(if br == 1 { 0 } else { i }, if bc == 1 { 0 } else { j })];
                o[i * cols + j] = f(av, bv);
            }
        }
    }
}

/// Allocating broadcast combine, kept verbatim from the pre-overhaul
/// backward for [`Graph::backward_reference`] — per-element indexed access
/// included, so reference timings stay representative of the old path.
fn broadcast_zip(
    op: &'static str,
    a: &Matrix,
    b: &Matrix,
    f: impl Fn(f64, f64) -> f64,
) -> Result<Matrix, AutodiffError> {
    let shape = broadcast_shape(a.shape(), b.shape()).ok_or(AutodiffError::ShapeMismatch {
        op,
        lhs: a.shape(),
        rhs: b.shape(),
    })?;
    let (ar, ac) = a.shape();
    let (br, bc) = b.shape();
    Ok(Matrix::from_fn(shape.0, shape.1, |i, j| {
        let av = a[(if ar == 1 { 0 } else { i }, if ac == 1 { 0 } else { j })];
        let bv = b[(if br == 1 { 0 } else { i }, if bc == 1 { 0 } else { j })];
        f(av, bv)
    }))
}

/// Allocating broadcast reduction, kept verbatim from the pre-overhaul
/// backward for [`Graph::backward_reference`]: sums `grad` down to a fresh
/// matrix of `shape` through per-element indexed access.
fn reduce_to(grad: &Matrix, shape: (usize, usize)) -> Matrix {
    let (gr, gc) = grad.shape();
    let (tr, tc) = shape;
    if (gr, gc) == (tr, tc) {
        return grad.clone();
    }
    let mut out = Matrix::zeros(tr, tc);
    for i in 0..gr {
        for j in 0..gc {
            let ti = if tr == 1 { 0 } else { i };
            let tj = if tc == 1 { 0 } else { j };
            out[(ti, tj)] += grad[(i, j)];
        }
    }
    out
}

/// Sums `grad` down into a zeroed `out` over any broadcast dimensions,
/// visiting `grad` row-major exactly like the old allocating `reduce_to` —
/// the specialized branches keep that element order and only drop the
/// per-element bounds checks.
fn reduce_into(grad: &Matrix, out: &mut Matrix) {
    let (gr, gc) = grad.shape();
    let (tr, tc) = out.shape();
    if (tr, tc) == (1, 1) {
        // Full reduction: flat pass in row-major (= visitation) order.
        let mut acc = out.as_slice()[0];
        for &x in grad.as_slice() {
            acc += x;
        }
        out.as_mut_slice()[0] = acc;
    } else if tr == 1 && tc == gc {
        // Sum down the rows into a row vector.
        let o = out.as_mut_slice();
        for g_row in grad.as_slice().chunks_exact(gc) {
            for (o, &x) in o.iter_mut().zip(g_row) {
                *o += x;
            }
        }
    } else if tc == 1 && tr == gr {
        // Sum across the columns into a column vector.
        for (o, g_row) in out
            .as_mut_slice()
            .iter_mut()
            .zip(grad.as_slice().chunks_exact(gc))
        {
            let mut acc = *o;
            for &x in g_row {
                acc += x;
            }
            *o = acc;
        }
    } else {
        for i in 0..gr {
            for j in 0..gc {
                let ti = if tr == 1 { 0 } else { i };
                let tj = if tc == 1 { 0 } else { j };
                out[(ti, tj)] += grad[(i, j)];
            }
        }
    }
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Clears the tape for the next step. The node values are dropped; the
    /// node arena keeps its capacity.
    ///
    /// All previously issued [`Var`] handles are invalidated.
    ///
    /// # Examples
    ///
    /// ```
    /// use pnc_autodiff::Graph;
    /// use pnc_linalg::Matrix;
    ///
    /// # fn main() -> Result<(), pnc_autodiff::AutodiffError> {
    /// let mut g = Graph::new();
    /// for step in 0..3 {
    ///     g.reset();
    ///     let x = g.leaf(Matrix::filled(1, 2, step as f64));
    ///     let y = g.tanh(x);
    ///     let loss = g.sum(y);
    ///     let _grads = g.backward(loss)?;
    /// }
    /// # Ok(())
    /// # }
    /// ```
    pub fn reset(&mut self) {
        self.nodes.clear();
    }

    /// Number of nodes on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The current value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// The shape of a node.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes[v.0].value.shape()
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        let needs = |v: &Var| self.nodes[v.0].needs;
        let needs = match &op {
            Op::Leaf => true,
            Op::Constant => false,
            Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) | Op::Div(a, b) | Op::MatMul(a, b) => {
                needs(a) || needs(b)
            }
            Op::Abs(a)
            | Op::Tanh(a)
            | Op::Sigmoid(a)
            | Op::Scale(a, _)
            | Op::AddScalar(a)
            | Op::Powi(a, _)
            | Op::Sum(a)
            | Op::Mean(a)
            | Op::SumRows(a)
            | Op::Ste(a)
            | Op::SliceCols { parent: a, .. }
            | Op::FusedLoss { scores: a, .. } => needs(a),
            Op::ConcatCols(parts) => parts.iter().any(needs),
        };
        self.nodes.push(Node { value, op, needs });
        Var(self.nodes.len() - 1)
    }

    /// Whether a gradient of `v` can reach a leaf.
    fn needs(&self, v: Var) -> bool {
        self.nodes[v.0].needs
    }

    /// Registers a trainable leaf. The tape keeps its own copy of `value`,
    /// so a borrowed matrix needs no clone.
    pub fn leaf(&mut self, value: impl Borrow<Matrix>) -> Var {
        self.push(value.borrow().clone(), Op::Leaf)
    }

    /// Registers a non-trainable constant. The tape keeps its own copy of
    /// `value`, so a borrowed matrix needs no clone.
    pub fn constant(&mut self, value: impl Borrow<Matrix>) -> Var {
        self.push(value.borrow().clone(), Op::Constant)
    }

    fn binary(
        &mut self,
        op_name: &'static str,
        a: Var,
        b: Var,
        f: impl Fn(f64, f64) -> f64,
        op: Op,
    ) -> Result<Var, AutodiffError> {
        let shape =
            broadcast_shape(self.shape(a), self.shape(b)).ok_or(AutodiffError::ShapeMismatch {
                op: op_name,
                lhs: self.shape(a),
                rhs: self.shape(b),
            })?;
        let mut value = Matrix::zeros(shape.0, shape.1);
        broadcast_fill(
            &self.nodes[a.0].value,
            &self.nodes[b.0].value,
            f,
            &mut value,
        );
        Ok(self.push(value, op))
    }

    /// Elementwise (broadcasting) sum.
    ///
    /// # Errors
    ///
    /// Returns [`AutodiffError::ShapeMismatch`] if the shapes do not
    /// broadcast.
    pub fn add(&mut self, a: Var, b: Var) -> Result<Var, AutodiffError> {
        self.binary("add", a, b, |x, y| x + y, Op::Add(a, b))
    }

    /// Elementwise (broadcasting) difference.
    ///
    /// # Errors
    ///
    /// Returns [`AutodiffError::ShapeMismatch`] if the shapes do not
    /// broadcast.
    pub fn sub(&mut self, a: Var, b: Var) -> Result<Var, AutodiffError> {
        self.binary("sub", a, b, |x, y| x - y, Op::Sub(a, b))
    }

    /// Elementwise (broadcasting) product.
    ///
    /// # Errors
    ///
    /// Returns [`AutodiffError::ShapeMismatch`] if the shapes do not
    /// broadcast.
    pub fn mul(&mut self, a: Var, b: Var) -> Result<Var, AutodiffError> {
        self.binary("mul", a, b, |x, y| x * y, Op::Mul(a, b))
    }

    /// Elementwise (broadcasting) quotient.
    ///
    /// # Errors
    ///
    /// Returns [`AutodiffError::ShapeMismatch`] if the shapes do not
    /// broadcast.
    pub fn div(&mut self, a: Var, b: Var) -> Result<Var, AutodiffError> {
        self.binary("div", a, b, |x, y| x / y, Op::Div(a, b))
    }

    /// Matrix product.
    ///
    /// # Errors
    ///
    /// Returns [`AutodiffError::ShapeMismatch`] if the inner dimensions
    /// differ.
    pub fn matmul(&mut self, a: Var, b: Var) -> Result<Var, AutodiffError> {
        let (m, ka) = self.shape(a);
        let (kb, n) = self.shape(b);
        if ka != kb {
            return Err(AutodiffError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(a),
                rhs: self.shape(b),
            });
        }
        let mut value = Matrix::zeros(m, n);
        self.nodes[a.0]
            .value
            .matmul_into(&self.nodes[b.0].value, &mut value)
            .map_err(|_| AutodiffError::ShapeMismatch {
                op: "matmul",
                lhs: (m, ka),
                rhs: (kb, n),
            })?;
        Ok(self.push(value, Op::MatMul(a, b)))
    }

    fn unary(&mut self, a: Var, f: impl Fn(f64) -> f64, op: Op) -> Var {
        let value = self.nodes[a.0].value.map(f);
        self.push(value, op)
    }

    /// Elementwise absolute value (subgradient `sign(x)`, `0` at `0`).
    pub fn abs(&mut self, a: Var) -> Var {
        self.unary(a, f64::abs, Op::Abs(a))
    }

    /// Elementwise hyperbolic tangent: [`pnc_linalg::tanh`], the one `tanh`
    /// of the pNN curves, the compiled plans and the surrogate MLP, so
    /// every one of them sees the bits the tape records.
    pub fn tanh(&mut self, a: Var) -> Var {
        self.unary(a, pnc_linalg::tanh, Op::Tanh(a))
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        self.unary(a, |x| 1.0 / (1.0 + (-x).exp()), Op::Sigmoid(a))
    }

    /// Multiplies every element by the literal `s`.
    pub fn scale(&mut self, a: Var, s: f64) -> Var {
        self.unary(a, |x| x * s, Op::Scale(a, s))
    }

    /// Adds the literal `s` to every element.
    pub fn add_scalar(&mut self, a: Var, s: f64) -> Var {
        self.unary(a, |x| x + s, Op::AddScalar(a))
    }

    /// Elementwise integer power.
    pub fn powi(&mut self, a: Var, k: i32) -> Var {
        self.unary(a, |x| x.powi(k), Op::Powi(a, k))
    }

    /// Sum of all elements, as a `1×1` node.
    pub fn sum(&mut self, a: Var) -> Var {
        let s = self.nodes[a.0].value.sum();
        self.push(Matrix::filled(1, 1, s), Op::Sum(a))
    }

    /// Mean of all elements, as a `1×1` node.
    pub fn mean(&mut self, a: Var) -> Var {
        let v = &self.nodes[a.0].value;
        let m = v.sum() / v.len() as f64;
        self.push(Matrix::filled(1, 1, m), Op::Mean(a))
    }

    /// Sums over rows: `m×n → 1×n`.
    pub fn sum_rows(&mut self, a: Var) -> Var {
        let (rows, cols) = self.shape(a);
        let mut out = Matrix::zeros(1, cols);
        let v = &self.nodes[a.0].value;
        for j in 0..cols {
            out[(0, j)] = (0..rows).map(|i| v[(i, j)]).sum();
        }
        self.push(out, Op::SumRows(a))
    }

    /// Selects the column range `start..start + len` of `a`.
    ///
    /// # Errors
    ///
    /// Returns [`AutodiffError::ShapeMismatch`] if the range exceeds the
    /// number of columns.
    pub fn slice_cols(&mut self, a: Var, start: usize, len: usize) -> Result<Var, AutodiffError> {
        let v = &self.nodes[a.0].value;
        let (rows, cols) = v.shape();
        if start + len > cols || len == 0 {
            return Err(AutodiffError::ShapeMismatch {
                op: "slice_cols",
                lhs: (rows, cols),
                rhs: (start, len),
            });
        }
        let mut out = Matrix::zeros(rows, len);
        let v = &self.nodes[a.0].value;
        for (out_row, v_row) in out
            .as_mut_slice()
            .chunks_exact_mut(len)
            .zip(v.as_slice().chunks_exact(cols))
        {
            out_row.copy_from_slice(&v_row[start..start + len]);
        }
        Ok(self.push(out, Op::SliceCols { parent: a, start }))
    }

    /// Concatenates nodes with equal row counts along columns.
    ///
    /// # Errors
    ///
    /// Returns [`AutodiffError::ShapeMismatch`] if `parts` is empty or the
    /// row counts differ.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Result<Var, AutodiffError> {
        let first = parts.first().ok_or(AutodiffError::ShapeMismatch {
            op: "concat_cols",
            lhs: (0, 0),
            rhs: (0, 0),
        })?;
        let rows = self.shape(*first).0;
        let mut total_cols = 0;
        for p in parts {
            let (r, c) = self.shape(*p);
            if r != rows {
                return Err(AutodiffError::ShapeMismatch {
                    op: "concat_cols",
                    lhs: (rows, 0),
                    rhs: (r, c),
                });
            }
            total_cols += c;
        }
        let mut out = Matrix::zeros(rows, total_cols);
        let mut offset = 0;
        for p in parts {
            let v = &self.nodes[p.0].value;
            let (_, c) = v.shape();
            for (out_row, v_row) in out
                .as_mut_slice()
                .chunks_exact_mut(total_cols)
                .zip(v.as_slice().chunks_exact(c))
            {
                out_row[offset..offset + c].copy_from_slice(v_row);
            }
            offset += c;
        }
        Ok(self.push(out, Op::ConcatCols(parts.to_vec())))
    }

    /// Straight-through estimator: the node's forward value becomes
    /// `projected` (computed by the caller from [`Graph::value`] in any way,
    /// e.g. the printable-conductance projection of Sec. II-C), while the
    /// backward pass treats the op as the identity.
    ///
    /// # Errors
    ///
    /// Returns [`AutodiffError::ShapeMismatch`] if `projected` has a
    /// different shape than `a`.
    ///
    /// # Examples
    ///
    /// ```
    /// use pnc_autodiff::Graph;
    /// use pnc_linalg::Matrix;
    ///
    /// # fn main() -> Result<(), pnc_autodiff::AutodiffError> {
    /// let mut g = Graph::new();
    /// let x = g.leaf(Matrix::row_vector(&[0.4, -3.0]));
    /// let projected = g.value(x).map(|v| v.clamp(-1.0, 1.0));
    /// let y = g.ste(x, projected)?;
    /// let loss = g.sum(y);
    /// let grads = g.backward(loss)?;
    /// // Identity gradient despite the clamp in the forward pass.
    /// assert_eq!(grads.get(x).expect("grad")[(0, 1)], 1.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn ste(&mut self, a: Var, projected: Matrix) -> Result<Var, AutodiffError> {
        if projected.shape() != self.shape(a) {
            return Err(AutodiffError::ShapeMismatch {
                op: "ste",
                lhs: self.shape(a),
                rhs: projected.shape(),
            });
        }
        Ok(self.push(projected, Op::Ste(a)))
    }

    /// Clamps elementwise to `[lo, hi]` with a straight-through (identity)
    /// backward pass, as used for the feasible-range projections of Fig. 5.
    pub fn clamp_ste(&mut self, a: Var, lo: f64, hi: f64) -> Var {
        self.unary(a, |x| x.clamp(lo, hi), Op::Ste(a))
    }

    /// Softmax cross-entropy over logit rows, with integer class targets.
    /// Returns the mean loss as a `1×1` node.
    ///
    /// # Errors
    ///
    /// Returns [`AutodiffError::TargetLengthMismatch`] or
    /// [`AutodiffError::InvalidTarget`] on malformed targets.
    pub fn cross_entropy_logits(
        &mut self,
        scores: Var,
        targets: &[usize],
    ) -> Result<Var, AutodiffError> {
        let (batch, classes) = self.shape(scores);
        let mut grad = Matrix::zeros(batch, classes);
        let loss =
            crate::loss::cross_entropy_logits(&self.nodes[scores.0].value, targets, &mut grad)?;
        Ok(self.push(Matrix::filled(1, 1, loss), Op::FusedLoss { scores, grad }))
    }

    /// The pNN margin loss used throughout the printed-neuromorphic line of
    /// work: `mean_i max(0, margin − s_y + max_{j≠y} s_j)`, encouraging the
    /// true-class output voltage to exceed every other output by `margin`.
    /// Returns the mean loss as a `1×1` node.
    ///
    /// # Errors
    ///
    /// Returns [`AutodiffError::TargetLengthMismatch`] or
    /// [`AutodiffError::InvalidTarget`] on malformed targets.
    pub fn margin_loss(
        &mut self,
        scores: Var,
        targets: &[usize],
        margin: f64,
    ) -> Result<Var, AutodiffError> {
        let (batch, classes) = self.shape(scores);
        let mut grad = Matrix::zeros(batch, classes);
        let loss =
            crate::loss::margin_loss(&self.nodes[scores.0].value, targets, margin, &mut grad)?;
        Ok(self.push(Matrix::filled(1, 1, loss), Op::FusedLoss { scores, grad }))
    }

    /// Runs reverse-mode accumulation from the scalar node `loss` into a
    /// fresh [`GradStore`].
    ///
    /// # Errors
    ///
    /// Returns [`AutodiffError::NonScalarLoss`] if `loss` is not `1×1`.
    pub fn backward(&self, loss: Var) -> Result<GradStore, AutodiffError> {
        let mut store = GradStore::new();
        self.backward_into(loss, &mut store)?;
        Ok(store)
    }

    /// Runs reverse-mode accumulation from the scalar node `loss` with the
    /// pre-overhaul allocating implementation: a cloned gradient per visited
    /// node, a freshly allocated matrix per op rule, and materialized
    /// transposes with the naive [`Matrix::matmul_reference`] kernel.
    ///
    /// Kept — like [`Matrix::matmul_reference`] — as the independent
    /// reference the equivalence tests check [`Graph::backward_into`]
    /// against bitwise. Not for hot loops. Its output is pinned by
    /// `backward_reference_output_is_pinned`.
    ///
    /// # Errors
    ///
    /// Returns [`AutodiffError::NonScalarLoss`] if `loss` is not `1×1`.
    pub fn backward_reference(&self, loss: Var) -> Result<GradStore, AutodiffError> {
        if self.shape(loss) != (1, 1) {
            return Err(AutodiffError::NonScalarLoss {
                shape: self.shape(loss),
            });
        }
        let mut store = GradStore::new();
        store.grads.resize(self.nodes.len(), None);
        store.grads[loss.0] = Some(Matrix::filled(1, 1, 1.0));

        for id in (0..=loss.0).rev() {
            let Some(grad) = store.grads[id].clone() else {
                continue;
            };
            let node = &self.nodes[id];
            match &node.op {
                Op::Leaf | Op::Constant => {}
                Op::Add(a, b) => {
                    store.accumulate_alloc(*a, reduce_to(&grad, self.shape(*a)))?;
                    store.accumulate_alloc(*b, reduce_to(&grad, self.shape(*b)))?;
                }
                Op::Sub(a, b) => {
                    store.accumulate_alloc(*a, reduce_to(&grad, self.shape(*a)))?;
                    store.accumulate_alloc(*b, reduce_to(&grad.scale(-1.0), self.shape(*b)))?;
                }
                Op::Mul(a, b) => {
                    let ga = broadcast_zip("mul_bw", &grad, self.value(*b), |g, y| g * y)?;
                    let gb = broadcast_zip("mul_bw", &grad, self.value(*a), |g, x| g * x)?;
                    store.accumulate_alloc(*a, reduce_to(&ga, self.shape(*a)))?;
                    store.accumulate_alloc(*b, reduce_to(&gb, self.shape(*b)))?;
                }
                Op::Div(a, b) => {
                    let ga = broadcast_zip("div_bw", &grad, self.value(*b), |g, y| g / y)?;
                    // g_b = −g·a/b²; fold a and b in two broadcast passes.
                    let a_over_b2 =
                        broadcast_zip("div_bw", self.value(*a), self.value(*b), |x, y| {
                            -x / (y * y)
                        })?;
                    let gb = broadcast_zip("div_bw", &grad, &a_over_b2, |g, q| g * q)?;
                    store.accumulate_alloc(*a, reduce_to(&ga, self.shape(*a)))?;
                    store.accumulate_alloc(*b, reduce_to(&gb, self.shape(*b)))?;
                }
                Op::MatMul(a, b) => {
                    let ga = grad
                        .matmul_reference(&self.value(*b).transpose())
                        .map_err(bw_err("matmul_bw"))?;
                    let gb = self
                        .value(*a)
                        .transpose()
                        .matmul_reference(&grad)
                        .map_err(bw_err("matmul_bw"))?;
                    store.accumulate_alloc(*a, ga)?;
                    store.accumulate_alloc(*b, gb)?;
                }
                Op::Abs(a) => {
                    let x = self.value(*a);
                    let g = grad
                        .zip_with(x, "abs_bw", |g, x| g * sign(x))
                        .map_err(bw_err("elementwise_bw"))?;
                    store.accumulate_alloc(*a, g)?;
                }
                Op::Tanh(a) => {
                    let g = grad
                        .zip_with(&node.value, "tanh_bw", |g, t| g * (1.0 - t * t))
                        .map_err(bw_err("elementwise_bw"))?;
                    store.accumulate_alloc(*a, g)?;
                }
                Op::Sigmoid(a) => {
                    let g = grad
                        .zip_with(&node.value, "sigmoid_bw", |g, s| g * s * (1.0 - s))
                        .map_err(bw_err("elementwise_bw"))?;
                    store.accumulate_alloc(*a, g)?;
                }
                Op::Scale(a, s) => store.accumulate_alloc(*a, grad.scale(*s))?,
                Op::AddScalar(a) => store.accumulate_alloc(*a, grad)?,
                Op::Powi(a, k) => {
                    let g = grad
                        .zip_with(self.value(*a), "powi_bw", |g, x| {
                            g * *k as f64 * x.powi(k - 1)
                        })
                        .map_err(bw_err("elementwise_bw"))?;
                    store.accumulate_alloc(*a, g)?;
                }
                Op::Sum(a) => {
                    let (r, c) = self.shape(*a);
                    store.accumulate_alloc(*a, Matrix::filled(r, c, grad[(0, 0)]))?;
                }
                Op::Mean(a) => {
                    let (r, c) = self.shape(*a);
                    store.accumulate_alloc(
                        *a,
                        Matrix::filled(r, c, grad[(0, 0)] / (r * c) as f64),
                    )?;
                }
                Op::SumRows(a) => {
                    let (r, c) = self.shape(*a);
                    store.accumulate_alloc(*a, Matrix::from_fn(r, c, |_, j| grad[(0, j)]))?;
                }
                Op::SliceCols { parent, start } => {
                    let (r, c) = self.shape(*parent);
                    let (_, w) = node.value.shape();
                    let mut g = Matrix::zeros(r, c);
                    for i in 0..r {
                        for j in 0..w {
                            g[(i, start + j)] = grad[(i, j)];
                        }
                    }
                    store.accumulate_alloc(*parent, g)?;
                }
                Op::ConcatCols(parts) => {
                    let mut offset = 0;
                    for p in parts {
                        let (r, c) = self.shape(*p);
                        let g = Matrix::from_fn(r, c, |i, j| grad[(i, offset + j)]);
                        store.accumulate_alloc(*p, g)?;
                        offset += c;
                    }
                }
                Op::Ste(a) => store.accumulate_alloc(*a, grad)?,
                Op::FusedLoss {
                    scores,
                    grad: template,
                } => {
                    store.accumulate_alloc(*scores, template.scale(grad[(0, 0)]))?;
                }
            }
        }
        Ok(store)
    }

    /// Runs reverse-mode accumulation from the scalar node `loss` into
    /// `store`.
    ///
    /// The store is cleared first, each node's gradient is accumulated in
    /// place, and the per-op temporaries go through the transpose-free and
    /// `_into` kernels. Targets that no leaf depends on (constants, and ops
    /// over constants only) get no gradient. Leaf gradients are
    /// bit-identical to [`Graph::backward_reference`].
    ///
    /// # Errors
    ///
    /// Returns [`AutodiffError::NonScalarLoss`] if `loss` is not `1×1`.
    pub fn backward_into(&self, loss: Var, store: &mut GradStore) -> Result<(), AutodiffError> {
        if self.shape(loss) != (1, 1) {
            return Err(AutodiffError::NonScalarLoss {
                shape: self.shape(loss),
            });
        }
        self.backward_seeded(loss, Matrix::filled(1, 1, 1.0), store)
    }

    /// Runs reverse-mode accumulation into `store` from the node `seed`,
    /// whose gradient is given as `grad`, down through every node recorded
    /// before it. [`Graph::backward_into`] is this with a `1×1` seed of
    /// `1.0`; a caller that differentiated the rest of a computation by
    /// hand seeds the node where its own backward pass ends.
    ///
    /// # Errors
    ///
    /// Returns [`AutodiffError::ShapeMismatch`] if `grad` does not have the
    /// seed node's shape.
    pub fn backward_seeded(
        &self,
        seed: Var,
        grad: Matrix,
        store: &mut GradStore,
    ) -> Result<(), AutodiffError> {
        if grad.shape() != self.shape(seed) {
            return Err(AutodiffError::ShapeMismatch {
                op: "backward_seeded",
                lhs: self.shape(seed),
                rhs: grad.shape(),
            });
        }
        store.reset_for(self.nodes.len());
        store.grads[seed.0] = Some(grad);

        for id in (0..=seed.0).rev() {
            // Take the node's gradient out of the arena for the duration of
            // the propagation (parents always have smaller indices, so the
            // slot cannot be touched), then put it back — no per-node clone.
            let Some(grad) = store.grads[id].take() else {
                continue;
            };
            let node = &self.nodes[id];
            match &node.op {
                Op::Leaf | Op::Constant => {}
                Op::Add(a, b) => {
                    self.flow(store, *a, &grad)?;
                    self.flow(store, *b, &grad)?;
                }
                Op::Sub(a, b) => {
                    self.flow(store, *a, &grad)?;
                    self.flow_scaled(store, *b, &grad, -1.0)?;
                }
                Op::Mul(a, b) => {
                    self.flow_zip(store, *a, &grad, self.value(*b), |g, y| g * y)?;
                    self.flow_zip(store, *b, &grad, self.value(*a), |g, x| g * x)?;
                }
                Op::Div(a, b) => {
                    self.flow_zip(store, *a, &grad, self.value(*b), |g, y| g / y)?;
                    if self.needs(*b) {
                        // g_b = −g·a/b²; fold a and b in two broadcast passes.
                        let (qr, qc) = broadcast_shape(self.shape(*a), self.shape(*b)).ok_or(
                            AutodiffError::ShapeMismatch {
                                op: "div_bw",
                                lhs: self.shape(*a),
                                rhs: self.shape(*b),
                            },
                        )?;
                        let mut a_over_b2 = Matrix::zeros(qr, qc);
                        broadcast_fill(
                            self.value(*a),
                            self.value(*b),
                            |x, y| -x / (y * y),
                            &mut a_over_b2,
                        );
                        self.flow_zip(store, *b, &grad, &a_over_b2, |g, q| g * q)?;
                    }
                }
                Op::MatMul(a, b) => {
                    // dL/dA = grad · Bᵀ and dL/dB = Aᵀ · grad, via the
                    // transpose-free kernels.
                    if self.needs(*a) {
                        let (ar, ac) = self.shape(*a);
                        let mut ga = Matrix::zeros(ar, ac);
                        grad.matmul_nt_into(self.value(*b), &mut ga)
                            .map_err(bw_err("matmul_bw"))?;
                        store.accumulate_owned(*a, ga)?;
                    }
                    if self.needs(*b) {
                        let (br, bc) = self.shape(*b);
                        let mut gb = Matrix::zeros(br, bc);
                        self.value(*a)
                            .matmul_tn_into(&grad, &mut gb)
                            .map_err(bw_err("matmul_bw"))?;
                        store.accumulate_owned(*b, gb)?;
                    }
                }
                Op::Abs(a) => {
                    self.elementwise_bw(store, *a, &grad, self.value(*a), |g, x| g * sign(x))?;
                }
                Op::Tanh(a) => {
                    self.elementwise_bw(store, *a, &grad, &node.value, |g, t| g * (1.0 - t * t))?;
                }
                Op::Sigmoid(a) => {
                    self.elementwise_bw(store, *a, &grad, &node.value, |g, s| g * s * (1.0 - s))?;
                }
                Op::Scale(a, s) => self.flow_scaled(store, *a, &grad, *s)?,
                Op::AddScalar(a) => self.flow(store, *a, &grad)?,
                Op::Powi(a, k) => {
                    self.elementwise_bw(store, *a, &grad, self.value(*a), |g, x| {
                        g * *k as f64 * x.powi(k - 1)
                    })?;
                }
                Op::Sum(a) => {
                    let (r, c) = self.shape(*a);
                    self.flow_owned(store, *a, Matrix::filled(r, c, grad[(0, 0)]))?;
                }
                Op::Mean(a) => {
                    let (r, c) = self.shape(*a);
                    let g = Matrix::filled(r, c, grad[(0, 0)] / (r * c) as f64);
                    self.flow_owned(store, *a, g)?;
                }
                Op::SumRows(a) if self.needs(*a) => {
                    let (r, c) = self.shape(*a);
                    let mut g = Matrix::zeros(r, c);
                    for g_row in g.as_mut_slice().chunks_exact_mut(c) {
                        g_row.copy_from_slice(grad.as_slice());
                    }
                    store.accumulate_owned(*a, g)?;
                }
                Op::SliceCols { parent, start } if self.needs(*parent) => {
                    let (r, c) = self.shape(*parent);
                    let (_, w) = node.value.shape();
                    let mut g = Matrix::zeros(r, c);
                    for (g_row, grad_row) in g
                        .as_mut_slice()
                        .chunks_exact_mut(c)
                        .zip(grad.as_slice().chunks_exact(w))
                    {
                        g_row[*start..start + w].copy_from_slice(grad_row);
                    }
                    store.accumulate_owned(*parent, g)?;
                }
                Op::ConcatCols(parts) => {
                    let total = node.value.cols();
                    let mut offset = 0;
                    for p in parts {
                        let (r, c) = self.shape(*p);
                        if !self.needs(*p) {
                            offset += c;
                            continue;
                        }
                        let mut g = Matrix::zeros(r, c);
                        for (g_row, grad_row) in g
                            .as_mut_slice()
                            .chunks_exact_mut(c)
                            .zip(grad.as_slice().chunks_exact(total))
                        {
                            g_row.copy_from_slice(&grad_row[offset..offset + c]);
                        }
                        store.accumulate_owned(*p, g)?;
                        offset += c;
                    }
                }
                Op::Ste(a) => self.flow(store, *a, &grad)?,
                Op::FusedLoss {
                    scores,
                    grad: template,
                } => {
                    self.flow_scaled(store, *scores, template, grad[(0, 0)])?;
                }
                // A `SumRows` or `SliceCols` over a target no leaf depends
                // on.
                Op::SumRows(_) | Op::SliceCols { .. } => {}
            }
            store.grads[id] = Some(grad);
        }
        Ok(())
    }

    /// Propagates `grad` unchanged to `v`, summing over broadcast dimensions
    /// when the shapes differ (same two-step order as the old `reduce_to` +
    /// accumulate path, so the bits match).
    fn flow(&self, store: &mut GradStore, v: Var, grad: &Matrix) -> Result<(), AutodiffError> {
        if !self.needs(v) {
            return Ok(());
        }
        let target = self.shape(v);
        if grad.shape() == target {
            store.accumulate_ref(v, grad)
        } else {
            let mut red = Matrix::zeros(target.0, target.1);
            reduce_into(grad, &mut red);
            store.accumulate_owned(v, red)
        }
    }

    /// Propagates `grad * s` to `v` (with broadcast reduction), matching the
    /// old `grad.scale(s)` + `reduce_to` + accumulate path bit for bit.
    fn flow_scaled(
        &self,
        store: &mut GradStore,
        v: Var,
        grad: &Matrix,
        s: f64,
    ) -> Result<(), AutodiffError> {
        if !self.needs(v) {
            return Ok(());
        }
        self.flow_owned(store, v, grad.scale(s))
    }

    /// Propagates a broadcast-zip of `grad` and `other` to `v` (with
    /// broadcast reduction), matching the old `broadcast_zip` + `reduce_to`
    /// + accumulate path bit for bit.
    fn flow_zip(
        &self,
        store: &mut GradStore,
        v: Var,
        grad: &Matrix,
        other: &Matrix,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<(), AutodiffError> {
        if !self.needs(v) {
            return Ok(());
        }
        let shape =
            broadcast_shape(grad.shape(), other.shape()).ok_or(AutodiffError::ShapeMismatch {
                op: "zip_bw",
                lhs: grad.shape(),
                rhs: other.shape(),
            })?;
        let mut g = Matrix::zeros(shape.0, shape.1);
        broadcast_fill(grad, other, f, &mut g);
        self.flow_owned(store, v, g)
    }

    /// Accumulates the owned gradient `g` into `v`, summed down to `v`'s
    /// shape first when `g` is broadcast wider.
    fn flow_owned(&self, store: &mut GradStore, v: Var, g: Matrix) -> Result<(), AutodiffError> {
        if !self.needs(v) {
            return Ok(());
        }
        let target = self.shape(v);
        if g.shape() == target {
            store.accumulate_owned(v, g)
        } else {
            let mut red = Matrix::zeros(target.0, target.1);
            reduce_into(&g, &mut red);
            store.accumulate_owned(v, red)
        }
    }

    /// Propagates an equal-shaped elementwise gradient `f(grad, x)` to `v`,
    /// matching the old `grad.zip_with(x, ..)` + accumulate path bit for
    /// bit.
    fn elementwise_bw(
        &self,
        store: &mut GradStore,
        v: Var,
        grad: &Matrix,
        x: &Matrix,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<(), AutodiffError> {
        if !self.needs(v) {
            return Ok(());
        }
        let (r, c) = grad.shape();
        let mut g = Matrix::zeros(r, c);
        grad.zip_with_into(x, "elementwise_bw", &f, &mut g)
            .map_err(bw_err("elementwise_bw"))?;
        store.accumulate_owned(v, g)
    }
}

fn sign(x: f64) -> f64 {
    if x > 0.0 {
        1.0
    } else if x < 0.0 {
        -1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: &[&[f64]]) -> Matrix {
        Matrix::from_rows(rows).unwrap()
    }

    #[test]
    fn add_and_sub_gradients() {
        let mut g = Graph::new();
        let a = g.leaf(m(&[&[1.0, 2.0]]));
        let b = g.leaf(m(&[&[3.0, 4.0]]));
        let s = g.sub(a, b).unwrap();
        let t = g.add(s, a).unwrap();
        let loss = g.sum(t);
        let grads = g.backward(loss).unwrap();
        assert_eq!(grads.get(a).unwrap().as_slice(), &[2.0, 2.0]);
        assert_eq!(grads.get(b).unwrap().as_slice(), &[-1.0, -1.0]);
    }

    #[test]
    fn mul_gradient_is_other_operand() {
        let mut g = Graph::new();
        let a = g.leaf(m(&[&[2.0, 3.0]]));
        let b = g.leaf(m(&[&[5.0, 7.0]]));
        let p = g.mul(a, b).unwrap();
        let loss = g.sum(p);
        let grads = g.backward(loss).unwrap();
        assert_eq!(grads.get(a).unwrap().as_slice(), &[5.0, 7.0]);
        assert_eq!(grads.get(b).unwrap().as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn div_gradients() {
        let mut g = Graph::new();
        let a = g.leaf(m(&[&[6.0]]));
        let b = g.leaf(m(&[&[3.0]]));
        let q = g.div(a, b).unwrap();
        let grads = g.backward(q).unwrap();
        assert!((grads.get(a).unwrap()[(0, 0)] - 1.0 / 3.0).abs() < 1e-12);
        assert!((grads.get(b).unwrap()[(0, 0)] + 6.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn scalar_broadcast_reduces_gradient() {
        let mut g = Graph::new();
        let s = g.leaf(m(&[&[2.0]]));
        let x = g.constant(m(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let y = g.mul(s, x).unwrap();
        assert_eq!(g.shape(y), (2, 2));
        let loss = g.sum(y);
        let grads = g.backward(loss).unwrap();
        assert_eq!(grads.get(s).unwrap()[(0, 0)], 10.0);
    }

    #[test]
    fn row_vector_broadcast() {
        let mut g = Graph::new();
        let row = g.leaf(m(&[&[1.0, 2.0]]));
        let x = g.constant(m(&[&[1.0, 1.0], &[1.0, 1.0], &[1.0, 1.0]]));
        let y = g.div(x, row).unwrap();
        let loss = g.sum(y);
        let grads = g.backward(loss).unwrap();
        // d/d row_j of sum_i x_ij/row_j = −3/row_j².
        assert!((grads.get(row).unwrap()[(0, 0)] + 3.0).abs() < 1e-12);
        assert!((grads.get(row).unwrap()[(0, 1)] + 0.75).abs() < 1e-12);
    }

    #[test]
    fn column_vector_broadcast() {
        let mut g = Graph::new();
        let col = g.leaf(m(&[&[1.0], &[2.0]]));
        let x = g.constant(m(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let y = g.add(x, col).unwrap();
        let loss = g.sum(y);
        let grads = g.backward(loss).unwrap();
        assert_eq!(grads.get(col).unwrap().as_slice(), &[2.0, 2.0]);
    }

    #[test]
    fn incompatible_shapes_error() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::zeros(2, 3));
        let b = g.leaf(Matrix::zeros(3, 2));
        assert!(matches!(
            g.add(a, b),
            Err(AutodiffError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn matmul_gradients() {
        let mut g = Graph::new();
        let a = g.leaf(m(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = g.leaf(m(&[&[5.0], &[6.0]]));
        let y = g.matmul(a, b).unwrap();
        let loss = g.sum(y);
        let grads = g.backward(loss).unwrap();
        // dL/dA = 1·Bᵀ (broadcast over rows), dL/dB = Aᵀ·1.
        assert_eq!(grads.get(a).unwrap().as_slice(), &[5.0, 6.0, 5.0, 6.0]);
        assert_eq!(grads.get(b).unwrap().as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn chain_of_unaries() {
        let mut g = Graph::new();
        let x = g.leaf(m(&[&[0.3]]));
        let t = g.tanh(x);
        let s = g.sigmoid(t);
        let p = g.powi(s, 3);
        let loss = g.sum(p);
        let grads = g.backward(loss).unwrap();

        // Analytic chain.
        let xv = 0.3f64;
        let tv = pnc_linalg::tanh(xv);
        let sv = 1.0 / (1.0 + (-tv).exp());
        let expected = 3.0 * sv * sv * sv * (1.0 - sv) * (1.0 - tv * tv);
        assert!((grads.get(x).unwrap()[(0, 0)] - expected).abs() < 1e-12);
    }

    #[test]
    fn abs_subgradient() {
        let mut g = Graph::new();
        let x = g.leaf(m(&[&[-2.0, 0.0, 3.0]]));
        let a = g.abs(x);
        let loss = g.sum(a);
        let grads = g.backward(loss).unwrap();
        assert_eq!(grads.get(x).unwrap().as_slice(), &[-1.0, 0.0, 1.0]);
    }

    #[test]
    fn mean_divides_gradient() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::filled(2, 2, 1.0));
        let loss = g.mean(x);
        let grads = g.backward(loss).unwrap();
        assert_eq!(grads.get(x).unwrap().as_slice(), &[0.25; 4]);
    }

    #[test]
    fn sum_rows_and_cols() {
        let mut g = Graph::new();
        let x = g.leaf(m(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let r = g.sum_rows(x);
        assert_eq!(g.value(r).as_slice(), &[4.0, 6.0]);
        // Column sums are a product with a ones column.
        let ones = g.constant(Matrix::filled(2, 1, 1.0));
        let c = g.matmul(x, ones).unwrap();
        assert_eq!(g.value(c).as_slice(), &[3.0, 7.0]);
        let s1 = g.sum(r);
        let grads = g.backward(s1).unwrap();
        assert_eq!(grads.get(x).unwrap().as_slice(), &[1.0; 4]);
    }

    #[test]
    fn slice_and_concat_round_trip() {
        let mut g = Graph::new();
        let x = g.leaf(m(&[&[1.0, 2.0, 3.0, 4.0]]));
        let a = g.slice_cols(x, 0, 2).unwrap();
        let b = g.slice_cols(x, 2, 2).unwrap();
        let back = g.concat_cols(&[b, a]).unwrap();
        assert_eq!(g.value(back).as_slice(), &[3.0, 4.0, 1.0, 2.0]);
        let doubled = g.scale(back, 2.0);
        let loss = g.sum(doubled);
        let grads = g.backward(loss).unwrap();
        assert_eq!(grads.get(x).unwrap().as_slice(), &[2.0; 4]);
    }

    #[test]
    fn slice_out_of_range_errors() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::zeros(1, 3));
        assert!(g.slice_cols(x, 2, 2).is_err());
        assert!(g.slice_cols(x, 0, 0).is_err());
    }

    #[test]
    fn concat_requires_matching_rows() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::zeros(1, 2));
        let b = g.leaf(Matrix::zeros(2, 2));
        assert!(g.concat_cols(&[a, b]).is_err());
        assert!(g.concat_cols(&[]).is_err());
    }

    #[test]
    fn ste_passes_gradient_through_projection() {
        let mut g = Graph::new();
        let x = g.leaf(m(&[&[5.0, -5.0]]));
        let y = g.clamp_ste(x, -1.0, 1.0);
        assert_eq!(g.value(y).as_slice(), &[1.0, -1.0]);
        let loss = g.sum(y);
        let grads = g.backward(loss).unwrap();
        assert_eq!(grads.get(x).unwrap().as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn ste_shape_checked() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::zeros(1, 2));
        assert!(g.ste(x, Matrix::zeros(2, 1)).is_err());
    }

    #[test]
    fn backward_rejects_nonscalar() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::zeros(2, 2));
        assert!(matches!(
            g.backward(x),
            Err(AutodiffError::NonScalarLoss { .. })
        ));
    }

    #[test]
    fn cross_entropy_matches_manual() {
        let mut g = Graph::new();
        let scores = g.leaf(m(&[&[2.0, 1.0, 0.0], &[0.0, 0.0, 0.0]]));
        let loss = g.cross_entropy_logits(scores, &[0, 2]).unwrap();

        // Manual: row 0 softmax of [2,1,0], loss −ln p0; row 1 uniform.
        let exps = [2.0f64.exp(), 1.0f64.exp(), 1.0];
        let denom: f64 = exps.iter().sum();
        let expected = (-(exps[0] / denom).ln() + -(1.0f64 / 3.0).ln()) / 2.0;
        assert!((g.value(loss)[(0, 0)] - expected).abs() < 1e-12);

        let grads = g.backward(loss).unwrap();
        let gs = grads.get(scores).unwrap();
        // Row 1: (1/3 − onehot₂)/2.
        assert!((gs[(1, 2)] - (1.0 / 3.0 - 1.0) / 2.0).abs() < 1e-12);
        assert!((gs[(1, 0)] - (1.0 / 3.0) / 2.0).abs() < 1e-12);
        // Gradients of each row sum to zero.
        assert!((gs[(0, 0)] + gs[(0, 1)] + gs[(0, 2)]).abs() < 1e-12);
    }

    #[test]
    fn cross_entropy_validates_targets() {
        let mut g = Graph::new();
        let scores = g.leaf(Matrix::zeros(2, 3));
        assert!(matches!(
            g.cross_entropy_logits(scores, &[0]),
            Err(AutodiffError::TargetLengthMismatch { .. })
        ));
        assert!(matches!(
            g.cross_entropy_logits(scores, &[0, 3]),
            Err(AutodiffError::InvalidTarget { .. })
        ));
    }

    #[test]
    fn margin_loss_zero_when_separated() {
        let mut g = Graph::new();
        let scores = g.leaf(m(&[&[1.0, 0.0], &[0.0, 1.0]]));
        let loss = g.margin_loss(scores, &[0, 1], 0.3).unwrap();
        assert_eq!(g.value(loss)[(0, 0)], 0.0);
        let grads = g.backward(loss).unwrap();
        assert_eq!(grads.get(scores).unwrap().norm(), 0.0);
    }

    #[test]
    fn margin_loss_penalizes_violations() {
        let mut g = Graph::new();
        let scores = g.leaf(m(&[&[0.5, 0.6]]));
        let loss = g.margin_loss(scores, &[0], 0.3).unwrap();
        // violation = 0.3 − 0.5 + 0.6 = 0.4
        assert!((g.value(loss)[(0, 0)] - 0.4).abs() < 1e-12);
        let grads = g.backward(loss).unwrap();
        let gs = grads.get(scores).unwrap();
        assert_eq!(gs[(0, 0)], -1.0);
        assert_eq!(gs[(0, 1)], 1.0);
    }

    #[test]
    fn gradient_accumulates_over_shared_subexpression() {
        let mut g = Graph::new();
        let x = g.leaf(m(&[&[3.0]]));
        let sq = g.mul(x, x).unwrap();
        let y = g.add(sq, x).unwrap(); // x² + x
        let grads = g.backward(y).unwrap();
        assert!((grads.get(x).unwrap()[(0, 0)] - 7.0).abs() < 1e-12); // 2x+1
    }

    #[test]
    fn constants_do_not_stop_flow_and_get_no_grads() {
        let mut g = Graph::new();
        let x = g.leaf(m(&[&[2.0]]));
        let c = g.constant(Matrix::filled(1, 1, 10.0));
        let c2 = g.scale(c, 3.0);
        let y = g.mul(x, c2).unwrap();
        let grads = g.backward(y).unwrap();
        assert_eq!(grads.get(x).unwrap()[(0, 0)], 30.0);
        // Neither the constant nor an op over constants only is
        // differentiated: no leaf depends on them.
        assert!(grads.get(c).is_none());
        assert!(grads.get(c2).is_none());
        // The reference backward still differentiates everything.
        let reference = g.backward_reference(y).unwrap();
        assert_eq!(reference.get(c).unwrap()[(0, 0)], 6.0);
    }

    #[test]
    fn seeded_backward_matches_a_dot_product_loss() {
        // Seeding a node with a gradient equals differentiating
        // sum(node ⊙ seed) from a scalar loss.
        let mut g = Graph::new();
        let x = g.leaf(m(&[&[0.3, -1.2]]));
        let t = g.tanh(x);
        let y = g.scale(t, 2.5);
        let seed = m(&[&[0.7, -0.4]]);
        let mut store = GradStore::new();
        g.backward_seeded(y, seed.clone(), &mut store).unwrap();
        let s = g.constant(&seed);
        let dot = g.mul(y, s).unwrap();
        let loss = g.sum(dot);
        let reference = g.backward(loss).unwrap();
        assert_eq!(store.get(x), reference.get(x));
        assert!(g
            .backward_seeded(y, Matrix::zeros(2, 1), &mut store)
            .is_err());
    }

    /// Builds a tape exercising every op (matmul, broadcasts, elementwise,
    /// reductions, slicing, STE, both fused losses) and returns the loss
    /// node plus the two leaves.
    fn build_mixed_tape(g: &mut Graph, seed: f64) -> (Var, Var, Var) {
        let w = g.leaf(m(&[&[0.3 + seed, -0.7], &[1.1, 0.4 - seed]]));
        let x = g.leaf(m(&[&[1.0, 2.0], &[-0.5, 0.25 + seed], &[3.0, -1.5]]));
        let bias = g.constant(m(&[&[0.1, -0.2]]));
        let z = g.matmul(x, w).unwrap();
        let z = g.add(z, bias).unwrap();
        let t = g.tanh(z);
        let s = g.sigmoid(z);
        let mix = g.mul(t, s).unwrap();
        let denom = g.add_scalar(s, 2.0);
        let ratio = g.div(mix, denom).unwrap();
        let col = g.slice_cols(ratio, 0, 1).unwrap();
        let rest = g.slice_cols(ratio, 1, 1).unwrap();
        let glued = g.concat_cols(&[rest, col]).unwrap();
        let proj = g.clamp_ste(glued, -0.8, 0.8);
        let powed = g.powi(proj, 2);
        let ab = g.abs(mix);
        let gap = g.sub(col, rest).unwrap();
        let centered = g.sub(z, bias).unwrap();
        let sum1 = g.add(powed, ab).unwrap();
        let rows = g.sum_rows(sum1);
        let gaps = g.sum_rows(gap);
        let rsum = g.sum(rows);
        let gsum = g.sum(gaps);
        let cmean = g.mean(centered);
        let ce = g.cross_entropy_logits(z, &[0, 1, 0]).unwrap();
        let ml = g.margin_loss(z, &[1, 0, 1], 0.25).unwrap();
        let mut loss = g.add(rsum, gsum).unwrap();
        loss = g.add(loss, cmean).unwrap();
        loss = g.add(loss, ce).unwrap();
        loss = g.add(loss, ml).unwrap();
        let loss = g.scale(loss, 0.5);
        (loss, w, x)
    }

    #[test]
    fn backward_into_matches_backward_bitwise() {
        let mut fresh = Graph::new();
        let (loss_f, w_f, x_f) = build_mixed_tape(&mut fresh, 0.0);
        let reference = fresh.backward_reference(loss_f).unwrap();

        let mut g = Graph::new();
        let (loss, w, x) = build_mixed_tape(&mut g, 0.0);
        let mut store = GradStore::new();
        g.backward_into(loss, &mut store).unwrap();
        assert_eq!(store.get(w), reference.get(w_f));
        assert_eq!(store.get(x), reference.get(x_f));
        assert_eq!(store.get(loss), reference.get(loss_f));

        // The convenience wrapper must agree with both.
        let wrapped = g.backward(loss).unwrap();
        assert_eq!(wrapped.get(w), reference.get(w_f));
        assert_eq!(wrapped.get(x), reference.get(x_f));
    }

    /// Output pin of the reference backward: an FNV-1a-64 digest, word by
    /// word over `f64::to_bits`, of every gradient slot
    /// [`Graph::backward_reference`] fills on the mixed tape (constants
    /// included, empty slots marked), plus the shape it reports for a
    /// non-scalar loss. Unlike the differential tests, which compare two
    /// implementations of today's code, the constant holds across code
    /// changes: an edit that moves both the same way moves the digest.
    #[test]
    fn backward_reference_output_is_pinned() {
        const DIGEST: u64 = 0x317e_167b_a46d_e131;
        let mut digest = 0xcbf2_9ce4_8422_2325_u64;
        let mut mix = |word: u64| digest = (digest ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        for seed in [0.0, 0.05] {
            let mut g = Graph::new();
            let (loss, w, _) = build_mixed_tape(&mut g, seed);
            let store = g.backward_reference(loss).unwrap();
            assert_eq!(store.grads.len(), g.len());
            for slot in &store.grads {
                let Some(grad) = slot else {
                    mix(u64::MAX);
                    continue;
                };
                let (r, c) = grad.shape();
                mix(r as u64);
                mix(c as u64);
                for v in grad.as_slice() {
                    mix(v.to_bits());
                }
            }
            assert_eq!(
                g.backward_reference(w).unwrap_err(),
                AutodiffError::NonScalarLoss { shape: (2, 2) }
            );
        }
        assert_eq!(digest, DIGEST, "digest {digest:#018x}");
    }

    #[test]
    fn reset_reuse_cycles_stay_bit_identical() {
        // One graph + one store reused across draws must reproduce the bits
        // of a fresh graph + allocating backward for each draw.
        let mut g = Graph::new();
        let mut store = GradStore::new();
        for cycle in 0..4 {
            let seed = 0.05 * cycle as f64;
            let mut fresh = Graph::new();
            let (loss_f, w_f, x_f) = build_mixed_tape(&mut fresh, seed);
            let reference = fresh.backward_reference(loss_f).unwrap();

            g.reset();
            let (loss, w, x) = build_mixed_tape(&mut g, seed);
            assert_eq!(g.value(loss), fresh.value(loss_f));
            g.backward_into(loss, &mut store).unwrap();
            assert_eq!(store.get(w), reference.get(w_f));
            assert_eq!(store.get(x), reference.get(x_f));
        }
    }
}
