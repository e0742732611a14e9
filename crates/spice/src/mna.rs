use crate::{Circuit, Device, EgtModel, Node, SpiceError};
use pnc_linalg::{Lu, Matrix};
use pnc_obs::{Counter, FieldValue, Histogram};
use serde::{Deserialize, Serialize};

// Observability: one record per (possibly recovered) solve, taken at the
// `solve_recovered` wrapper so plain DC solves, every recovery rung, and
// transient backward-Euler steps all land in the same tallies. Catalogued in
// docs/METRICS.md.
static OBS_SOLVES: Counter = Counter::new("spice.solve.total");
static OBS_SOLVE_FAILURES: Counter = Counter::new("spice.solve.failures");
static OBS_NEWTON_ITERATIONS: Counter = Counter::new("spice.newton.iterations");
static OBS_NEWTON_ATTEMPTS: Counter = Counter::new("spice.newton.attempts");
static OBS_NEWTON_FACTORIZATIONS: Counter = Counter::new("spice.newton.factorizations");
static OBS_RUNG_PLAIN: Counter = Counter::new("spice.recovery.plain");
static OBS_RUNG_PERTURBED: Counter = Counter::new("spice.recovery.perturbed_guess");
static OBS_RUNG_GMIN: Counter = Counter::new("spice.recovery.gmin_stepping");
static OBS_RUNG_SOURCE: Counter = Counter::new("spice.recovery.source_stepping");
static OBS_GMIN_STEPS: Counter = Counter::new("spice.recovery.gmin_steps");
static OBS_SOURCE_STEPS: Counter = Counter::new("spice.recovery.source_steps");
static OBS_RESIDUAL: Histogram = Histogram::new("spice.newton.residual");

/// Registers the crate's whole metric set so summaries always carry every
/// documented key, including zero-valued failure/recovery counters.
fn obs_register() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        OBS_SOLVES.register();
        OBS_SOLVE_FAILURES.register();
        OBS_NEWTON_ITERATIONS.register();
        OBS_NEWTON_ATTEMPTS.register();
        OBS_NEWTON_FACTORIZATIONS.register();
        OBS_RUNG_PLAIN.register();
        OBS_RUNG_PERTURBED.register();
        OBS_RUNG_GMIN.register();
        OBS_RUNG_SOURCE.register();
        OBS_GMIN_STEPS.register();
        OBS_SOURCE_STEPS.register();
        OBS_RESIDUAL.register();
    });
}

/// Modified-Newton keeps a stale Jacobian only while each iteration shrinks
/// the residual to at most this fraction of the previous one; slower
/// contraction counts as a stall and triggers a refactorization.
const STALL_CONTRACTION: f64 = 0.5;

/// A factorization carried across warm-started solves is dropped when the
/// new starting point moved farther than this (infinity norm, volts) from
/// the operating point it was taken at.
const CACHE_GUESS_TOL: f64 = 0.05;

/// Reusable modified-Newton state: the most recent Jacobian LU
/// factorization and the operating point it was taken at, plus the Newton
/// loop's buffers.
///
/// Thread one cache through consecutive warm-started solves (e.g. the
/// points of a transfer-curve sweep) via [`DcSolver::solve_with_cache`].
/// While the residual keeps contracting geometrically the stale
/// factorization is reused — across iterations *and* across sweep points
/// whose operating point moved little — so iterations-per-factorization
/// rises above one. Passing a cache is what selects modified Newton; solves
/// without one run classic full Newton. The cache is pure acceleration
/// state: every iteration still evaluates the exact residual of the freshly
/// assembled system, so dropping (or never supplying) a cache only costs
/// speed, never accuracy. Its buffers (the compiled stamp table, the MNA
/// system, the residual, the update and the LU storage) are reused by every
/// solve it is passed to, so a cached sweep allocates them once.
#[derive(Debug, Default)]
pub struct NewtonCache {
    held: HeldFactorization,
    work: Workspace,
}

/// The factorization modified Newton keeps across iterations and solves.
#[derive(Debug, Default)]
struct HeldFactorization {
    /// The factors; meaningful only while `warm`.
    lu: Lu,
    warm: bool,
    /// The iterate the factors were taken at.
    x_at_factor: Vec<f64>,
}

impl HeldFactorization {
    fn clear(&mut self) {
        self.warm = false;
        self.x_at_factor.clear();
    }

    /// `true` if the held factorization can be trusted for a solve of
    /// dimension `dim` starting from `x`.
    fn matches(&self, dim: usize, x: &[f64]) -> bool {
        if !self.warm || self.x_at_factor.len() != dim {
            return false;
        }
        let mut dist = 0.0_f64;
        for (a, b) in self.x_at_factor.iter().zip(x) {
            dist = dist.max((a - b).abs());
        }
        dist <= CACHE_GUESS_TOL
    }
}

impl NewtonCache {
    /// Creates an empty (cold) cache.
    pub fn new() -> Self {
        NewtonCache::default()
    }

    /// `true` when the cache holds a factorization ready for reuse.
    pub fn is_warm(&self) -> bool {
        self.held.warm
    }

    /// Drops any held factorization (its storage is kept for the next one).
    pub fn clear(&mut self) {
        self.held.clear();
    }
}

/// One device compiled for the Newton loop: MNA row/column indices with
/// ground resolved to `None`, and every value that does not depend on the
/// iterate computed once per solve.
#[derive(Debug, Clone, Copy)]
enum Stamp {
    /// Conductance `g = 1/R` between `a` and `b`.
    Resistor {
        a: Option<usize>,
        b: Option<usize>,
        g: f64,
    },
    /// A voltage source whose branch current is unknown `k`.
    VSource {
        plus: Option<usize>,
        minus: Option<usize>,
        k: usize,
        voltage: f64,
    },
    /// Backward-Euler companion of a capacitor: conductance `g = C/h` and
    /// the history current `i_hist = g · v_prev` it drives into `a`.
    Capacitor {
        a: Option<usize>,
        b: Option<usize>,
        g: f64,
        i_hist: f64,
    },
    /// A current source driving `current` from `from` into `to`.
    ISource {
        from: Option<usize>,
        to: Option<usize>,
        current: f64,
    },
    /// An EGT, linearized at the iterate every stamp.
    Egt {
        drain: Option<usize>,
        gate: Option<usize>,
        source: Option<usize>,
        model: EgtModel,
    },
}

/// Row/column of a node in the MNA system, `None` for ground.
fn mna_index(node: Node) -> Option<usize> {
    node.index().checked_sub(1)
}

/// Adds conductance `g` between `a` and `b` to the row-major `dim × dim`
/// matrix `m`.
fn stamp_conductance(m: &mut [f64], dim: usize, a: Option<usize>, b: Option<usize>, g: f64) {
    if let Some(i) = a {
        m[i * dim + i] += g;
    }
    if let Some(j) = b {
        m[j * dim + j] += g;
    }
    if let (Some(i), Some(j)) = (a, b) {
        m[i * dim + j] -= g;
        m[j * dim + i] -= g;
    }
}

/// The Newton loop's state besides the iterate: the compiled stamp table,
/// the linearized MNA system `G·x = rhs` (G row-major), the residual `F`,
/// the update `Δ`, and LU storage. Sized once per solve by
/// [`Workspace::compile`]; every iteration overwrites it.
#[derive(Debug, Default)]
struct Workspace {
    stamps: Vec<Stamp>,
    g: Matrix,
    rhs: Vec<f64>,
    f: Vec<f64>,
    /// `Δ` on the modified-Newton path; the next iterate on the full one.
    delta: Vec<f64>,
    lu: Lu,
}

impl Workspace {
    /// Compiles `circuit` into the stamp table, in device order, and sizes
    /// the buffers for its `dim` unknowns. With `cap_state = Some((prev,
    /// h))` capacitors become their backward-Euler companions at the
    /// previous node voltages `prev` (ground included) and timestep `h`;
    /// otherwise they are open circuits (DC analysis) and compile to
    /// nothing.
    fn compile(&mut self, circuit: &Circuit, cap_state: Option<(&[f64], f64)>, dim: usize) {
        // Branch unknowns follow the node voltages, in source order.
        let mut k = circuit.num_nodes();
        self.stamps.clear();
        for device in circuit.devices() {
            self.stamps.push(match *device {
                Device::Resistor { a, b, resistance } => Stamp::Resistor {
                    a: mna_index(a),
                    b: mna_index(b),
                    g: 1.0 / resistance,
                },
                Device::VSource {
                    plus,
                    minus,
                    voltage,
                } => {
                    let stamp = Stamp::VSource {
                        plus: mna_index(plus),
                        minus: mna_index(minus),
                        k,
                        voltage,
                    };
                    k += 1;
                    stamp
                }
                Device::Capacitor { a, b, capacitance } => {
                    let Some((prev, h)) = cap_state else {
                        continue;
                    };
                    let g = capacitance / h;
                    Stamp::Capacitor {
                        a: mna_index(a),
                        b: mna_index(b),
                        g,
                        i_hist: g * (prev[a.index()] - prev[b.index()]),
                    }
                }
                Device::ISource { from, to, current } => Stamp::ISource {
                    from: mna_index(from),
                    to: mna_index(to),
                    current,
                },
                Device::Egt {
                    drain,
                    gate,
                    source,
                    model,
                } => Stamp::Egt {
                    drain: mna_index(drain),
                    gate: mna_index(gate),
                    source: mna_index(source),
                    model,
                },
            });
        }
        if self.g.shape() != (dim, dim) {
            self.g = Matrix::zeros(dim, dim);
        }
        for buf in [&mut self.rhs, &mut self.f, &mut self.delta] {
            buf.resize(dim, 0.0);
        }
    }

    /// The MNA stamp pass: zeroes `G` and `rhs`, adds `gmin` from each of
    /// the `n` nodes to ground, then stamps the table linearized at `x`.
    /// Every entry receives its additions in device order.
    fn stamp(&mut self, x: &[f64], n: usize, gmin: f64) {
        let dim = self.rhs.len();
        let g = self.g.as_mut_slice();
        let rhs = &mut self.rhs[..];
        g.fill(0.0);
        rhs.fill(0.0);

        // gmin from every node to ground keeps floating nodes solvable.
        for i in 0..n {
            g[i * dim + i] += gmin;
        }

        // Voltage of a node under the current estimate (ground = 0).
        let volt = |node: Option<usize>| node.map_or(0.0, |i| x[i]);

        for stamp in &self.stamps {
            match *stamp {
                Stamp::Resistor { a, b, g: cond } => stamp_conductance(g, dim, a, b, cond),
                Stamp::VSource {
                    plus,
                    minus,
                    k,
                    voltage,
                } => {
                    if let Some(i) = plus {
                        g[i * dim + k] += 1.0;
                        g[k * dim + i] += 1.0;
                    }
                    if let Some(j) = minus {
                        g[j * dim + k] -= 1.0;
                        g[k * dim + j] -= 1.0;
                    }
                    rhs[k] = voltage;
                }
                Stamp::Capacitor {
                    a,
                    b,
                    g: g_c,
                    i_hist,
                } => {
                    stamp_conductance(g, dim, a, b, g_c);
                    if let Some(i) = a {
                        rhs[i] += i_hist;
                    }
                    if let Some(j) = b {
                        rhs[j] -= i_hist;
                    }
                }
                Stamp::ISource { from, to, current } => {
                    if let Some(i) = from {
                        rhs[i] -= current;
                    }
                    if let Some(j) = to {
                        rhs[j] += current;
                    }
                }
                Stamp::Egt {
                    drain,
                    gate,
                    source,
                    ref model,
                } => {
                    let vgs = volt(gate) - volt(source);
                    let vds = volt(drain) - volt(source);
                    let op = model.evaluate(vgs, vds);
                    // Companion model: i_d ≈ i_eq + gm·v_gs + gds·v_ds.
                    let i_eq = op.id - op.gm * vgs - op.gds * vds;

                    // KCL at drain: +i_d leaves the node into the channel.
                    if let Some(di) = drain {
                        rhs[di] -= i_eq;
                        if let Some(gi) = gate {
                            g[di * dim + gi] += op.gm;
                        }
                        g[di * dim + di] += op.gds;
                        if let Some(si) = source {
                            g[di * dim + si] -= op.gm + op.gds;
                        }
                    }
                    // KCL at source: −i_d (channel current enters the node).
                    if let Some(si) = source {
                        rhs[si] += i_eq;
                        if let Some(gi) = gate {
                            g[si * dim + gi] -= op.gm;
                        }
                        if let Some(di) = drain {
                            g[si * dim + di] -= op.gds;
                        }
                        g[si * dim + si] += op.gm + op.gds;
                    }
                    // Gate draws no DC current.
                }
            }
        }
    }

    /// KCL residual of the nonlinear system at `x` into `F`, returning its
    /// infinity norm: the companion linearization is exact at its expansion
    /// point, so F(x) = G(x)·x − rhs(x). Each row sums `−rhs_i` first, then
    /// `G_ij·x_j` for ascending `j`.
    fn residual(&mut self, x: &[f64]) -> f64 {
        let rows = self.g.as_slice().chunks_exact(x.len().max(1));
        let mut residual = 0.0_f64;
        for ((fi, row), ri) in self.f.iter_mut().zip(rows).zip(&self.rhs) {
            let mut acc = -ri;
            for (gij, xj) in row.iter().zip(x) {
                acc += gij * xj;
            }
            *fi = acc;
            residual = residual.max(acc.abs());
        }
        residual
    }
}

impl RecoveryRung {
    /// Stable lower-snake-case name used in metrics and sink events.
    pub fn as_str(self) -> &'static str {
        match self {
            RecoveryRung::Plain => "plain",
            RecoveryRung::PerturbedGuess => "perturbed_guess",
            RecoveryRung::GminStepping => "gmin_stepping",
            RecoveryRung::SourceStepping => "source_stepping",
        }
    }
}

/// Which rung of the convergence-recovery ladder produced a solution.
///
/// The variants are ordered by escalation cost: [`DcSolver`] tries them in
/// declaration order and stops at the first rung that converges, so
/// `rung == RecoveryRung::Plain` means no recovery was needed at all.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum RecoveryRung {
    /// The plain damped Newton loop from the caller's initial guess.
    #[default]
    Plain,
    /// Retry from a deterministically perturbed initial guess.
    PerturbedGuess,
    /// Gmin stepping: solve with a large shunt conductance on every node and
    /// relax it geometrically back to the configured `gmin`, warm-starting
    /// each step from the previous solution.
    GminStepping,
    /// Source stepping: ramp every independent source from zero to its full
    /// value, continuing from each intermediate solution.
    SourceStepping,
}

/// Structured outcome of a (possibly recovered) Newton solve.
///
/// Every [`Solution`] carries one of these instead of a bare iteration
/// count, so sweep and dataset layers can account for *how* each operating
/// point was obtained — not just that it was.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolveDiagnostics {
    /// Total Newton iterations (LU solves) across all attempts, including
    /// failed rungs.
    pub iterations: usize,
    /// Infinity norm of the KCL residual (amperes on node rows, volts on
    /// source branch rows) at the accepted solution.
    pub residual: f64,
    /// The recovery rung that produced the solution.
    pub rung: RecoveryRung,
    /// Newton attempts made, counting every continuation step; `1` means the
    /// plain solve succeeded directly.
    pub attempts: usize,
    /// Jacobian LU factorizations performed across the counted successful
    /// attempts (failed attempts are excluded — their factorization count is
    /// not recoverable from the error). Classic full Newton factors once per
    /// iteration; the Jacobian-reuse path (a solve given a [`NewtonCache`])
    /// factors only when contraction stalls, so `iterations /
    /// factorizations` measures the reuse win. `0` is possible
    /// when a solve converges entirely on a factorization carried over from
    /// an earlier warm-started solve.
    pub factorizations: usize,
}

impl SolveDiagnostics {
    /// `true` if the plain Newton loop converged without any recovery.
    pub fn recovered(&self) -> bool {
        self.rung != RecoveryRung::Plain
    }
}

/// Configuration of the convergence-recovery ladder of [`DcSolver`].
///
/// When the plain damped Newton loop fails (iteration budget exhausted, a
/// stalled update, or a singular Jacobian mid-iteration), the solver
/// escalates through the enabled rungs in [`RecoveryRung`] order. Every rung
/// is deterministic — no randomness, no dependence on thread scheduling — so
/// recovered sweeps stay bit-identical across thread counts.
///
/// Set a rung's step/attempt count to `0` to disable it;
/// [`RecoveryPolicy::disabled`] turns the ladder off entirely, restoring the
/// historical fail-fast behavior.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Number of perturbed-guess retries (rung 1). Each retry `k` starts from
    /// the caller's guess (or zero) shifted by `k · perturbation_scale` with
    /// alternating sign per node.
    pub guess_perturbations: usize,
    /// Magnitude of the deterministic initial-guess perturbation, in volts.
    pub perturbation_scale: f64,
    /// Number of geometric gmin relaxation steps (rung 2); the shunt
    /// conductance travels from `gmin_initial` down to the solver's `gmin`.
    pub gmin_steps: usize,
    /// Starting shunt conductance of gmin stepping, in siemens.
    pub gmin_initial: f64,
    /// Number of source-ramp steps (rung 3); sources scale through
    /// `k / source_steps` for `k = 1..=source_steps`. Only applied to DC
    /// solves (never inside a transient timestep).
    pub source_steps: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            guess_perturbations: 2,
            perturbation_scale: 0.1,
            gmin_steps: 8,
            gmin_initial: 1e-3,
            source_steps: 8,
        }
    }
}

impl RecoveryPolicy {
    /// Disables every rung: a failed plain Newton solve errors immediately.
    pub fn disabled() -> Self {
        RecoveryPolicy {
            guess_perturbations: 0,
            perturbation_scale: 0.0,
            gmin_steps: 0,
            gmin_initial: 0.0,
            source_steps: 0,
        }
    }
}

/// Deterministic fault injection for exercising the recovery ladder and the
/// downstream degradation paths in tests.
///
/// When any independent voltage source in the circuit matches one of
/// `trigger_values` (within `tolerance`), Newton attempts on rungs *below*
/// `min_successful_rung` fail instantly with
/// [`SpiceError::NoConvergence`]; attempts at or above that rung run
/// normally. `min_successful_rung: None` makes matching solves unrecoverable
/// at every rung.
///
/// This is a test-only diagnostic device: it lets a test force
/// non-convergence on chosen sweep points (a sweep grid value is a vsource
/// value) and assert that the ladder rescues them — or, with `None`, that
/// failure accounting degrades gracefully. Production solvers leave
/// [`DcSolver::fault_injection`] as `None`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultInjection {
    /// Voltage-source values (in volts) that trigger an injected failure.
    pub trigger_values: Vec<f64>,
    /// Absolute tolerance used when matching trigger values.
    pub tolerance: f64,
    /// First rung allowed to succeed on a triggered solve; `None` means no
    /// rung succeeds.
    pub min_successful_rung: Option<RecoveryRung>,
}

impl FaultInjection {
    /// A plan that fails plain Newton (and perturbed restarts) on the given
    /// source values but lets gmin stepping rescue the solve.
    pub fn recoverable_at(trigger_values: Vec<f64>) -> Self {
        FaultInjection {
            trigger_values,
            tolerance: 1e-9,
            min_successful_rung: Some(RecoveryRung::GminStepping),
        }
    }

    /// A plan under which the triggered solves fail at every rung.
    pub fn unrecoverable_at(trigger_values: Vec<f64>) -> Self {
        FaultInjection {
            trigger_values,
            tolerance: 1e-9,
            min_successful_rung: None,
        }
    }

    fn triggers(&self, circuit: &Circuit, rung: RecoveryRung) -> bool {
        let below = match self.min_successful_rung {
            Some(min) => rung < min,
            None => true,
        };
        below
            && circuit.devices().iter().any(|d| {
                if let Device::VSource { voltage, .. } = d {
                    self.trigger_values
                        .iter()
                        .any(|t| (voltage - t).abs() <= self.tolerance)
                } else {
                    false
                }
            })
    }
}

/// The result of a DC operating-point analysis.
///
/// Node voltages are indexed by [`Node`](crate::Node); branch currents are
/// reported for voltage sources in insertion order.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Voltage of every node including ground at index 0.
    pub(crate) voltages: Vec<f64>,
    /// Current through each voltage source (flowing from `plus` through the
    /// source to `minus`), in source insertion order.
    pub(crate) source_currents: Vec<f64>,
    /// How the solve went: iterations, recovery rung, final residual.
    pub(crate) diagnostics: SolveDiagnostics,
}

impl Solution {
    /// Voltage at `node` in volts.
    pub fn voltage(&self, node: crate::Node) -> f64 {
        self.voltages[node.index()]
    }

    /// All node voltages, ground first.
    pub fn voltages(&self) -> &[f64] {
        &self.voltages
    }

    /// Current through the `k`-th voltage source (insertion order among
    /// voltage sources), in amperes. Positive current flows into the `plus`
    /// terminal (i.e. the source is sinking current).
    pub fn source_current(&self, k: usize) -> f64 {
        self.source_currents[k]
    }

    /// Newton iterations the solve needed (summed over all recovery
    /// attempts).
    pub fn iterations(&self) -> usize {
        self.diagnostics.iterations
    }

    /// Full structured diagnostics of the solve.
    pub fn diagnostics(&self) -> &SolveDiagnostics {
        &self.diagnostics
    }
}

/// Damped Newton–Raphson DC operating-point solver over an MNA formulation.
///
/// Each iteration linearizes the nonlinear devices (EGTs) at the present
/// estimate, assembles the modified-nodal-analysis matrix (node equations
/// plus one branch equation per voltage source), solves it with LU, and takes
/// a damped step. A `gmin` conductance from every node to ground keeps the
/// system well posed even with floating subcircuits.
///
/// Convergence requires *both* a settled voltage update (`tolerance`) and a
/// small KCL residual (`residual_tolerance`), so a stalled damped update
/// cannot be reported as a solution. When the plain loop fails, the solver
/// escalates through the deterministic recovery ladder configured by
/// [`RecoveryPolicy`] — perturbed restarts, gmin stepping, source stepping —
/// and every returned [`Solution`] carries [`SolveDiagnostics`] describing
/// which rung succeeded.
///
/// # Examples
///
/// ```
/// use pnc_spice::{Circuit, DcSolver, RecoveryRung, GROUND};
///
/// # fn main() -> Result<(), pnc_spice::SpiceError> {
/// let mut ckt = Circuit::new();
/// let n = ckt.new_node();
/// ckt.isource(GROUND, n, 1e-3)?;
/// ckt.resistor(n, GROUND, 2_000.0)?;
/// let sol = DcSolver::new().solve(&ckt)?;
/// assert!((sol.voltage(n) - 2.0).abs() < 1e-6);
/// assert_eq!(sol.diagnostics().rung, RecoveryRung::Plain);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DcSolver {
    /// Maximum Newton iterations before reporting no convergence.
    pub max_iterations: usize,
    /// Convergence tolerance on the infinity norm of the voltage update, in
    /// volts.
    pub tolerance: f64,
    /// Convergence tolerance on the infinity norm of the KCL residual
    /// (amperes on node rows, volts on source branch rows).
    pub residual_tolerance: f64,
    /// Per-iteration limit on any voltage change, in volts (Newton damping).
    pub max_step: f64,
    /// Safety conductance from every node to ground, in siemens.
    pub gmin: f64,
    /// The convergence-recovery ladder used when plain Newton fails.
    pub recovery: RecoveryPolicy,
    /// Deterministic test-only fault injection; `None` in production.
    pub fault_injection: Option<FaultInjection>,
}

impl Default for DcSolver {
    fn default() -> Self {
        DcSolver {
            max_iterations: 500,
            tolerance: 1e-10,
            residual_tolerance: 1e-9,
            max_step: 0.25,
            gmin: 1e-12,
            recovery: RecoveryPolicy::default(),
            fault_injection: None,
        }
    }
}

impl DcSolver {
    /// Creates a solver with default settings suitable for the 1 V printed
    /// circuits in this workspace.
    pub fn new() -> Self {
        DcSolver::default()
    }

    /// Solves the DC operating point starting from an all-zero voltage guess.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::NoConvergence`] if the Newton iteration does not
    /// settle within the budget on any recovery rung and
    /// [`SpiceError::SingularSystem`] if the MNA matrix cannot be factored
    /// even with recovery (e.g. a loop of ideal sources). When every rung
    /// fails, the error of the *plain* attempt is reported.
    pub fn solve(&self, circuit: &Circuit) -> Result<Solution, SpiceError> {
        self.solve_with_guess(circuit, None)
    }

    /// Solves the DC operating point from a warm-start guess of node
    /// voltages (ground excluded, i.e. `guess.len() == circuit.num_nodes()`).
    ///
    /// Sweeps use this to continue from the previous point, which both speeds
    /// up convergence and keeps the solver on the same branch of the
    /// (monotone) transfer curve.
    ///
    /// # Errors
    ///
    /// As for [`DcSolver::solve`]; additionally returns
    /// [`SpiceError::BadDeviceRef`] if the guess has the wrong length.
    pub fn solve_with_guess(
        &self,
        circuit: &Circuit,
        guess: Option<&[f64]>,
    ) -> Result<Solution, SpiceError> {
        self.solve_recovered(circuit, guess, None)
    }

    /// Solves the DC operating point from a warm-start guess while carrying
    /// modified-Newton state in `cache` (see [`NewtonCache`]).
    ///
    /// The plain Newton loop runs modified Newton: it keeps the cached
    /// Jacobian factorization while the residual contracts
    /// geometrically — across its own iterations and across consecutive
    /// calls whose warm-start point moved little — and refactors only when
    /// contraction stalls. Convergence criteria are unchanged, so the
    /// accepted solution satisfies the same residual bound as a full-Newton
    /// solve. Recovery rungs never use the cache.
    ///
    /// # Errors
    ///
    /// As for [`DcSolver::solve_with_guess`].
    pub fn solve_with_cache(
        &self,
        circuit: &Circuit,
        guess: Option<&[f64]>,
        cache: &mut NewtonCache,
    ) -> Result<Solution, SpiceError> {
        self.solve_recovered_cached(circuit, guess, None, Some(cache))
    }

    /// Runs the recovery ladder around [`Self::newton_solve`]: plain solve,
    /// then perturbed restarts, gmin stepping and (for DC solves) source
    /// stepping, stopping at the first rung that converges. Records one
    /// observability sample per call (see `docs/METRICS.md`).
    pub(crate) fn solve_recovered(
        &self,
        circuit: &Circuit,
        guess: Option<&[f64]>,
        cap_state: Option<(&[f64], f64)>,
    ) -> Result<Solution, SpiceError> {
        self.solve_recovered_cached(circuit, guess, cap_state, None)
    }

    /// [`Self::solve_recovered`] with optional modified-Newton state threaded
    /// into the plain rung.
    pub(crate) fn solve_recovered_cached(
        &self,
        circuit: &Circuit,
        guess: Option<&[f64]>,
        cap_state: Option<(&[f64], f64)>,
        cache: Option<&mut NewtonCache>,
    ) -> Result<Solution, SpiceError> {
        obs_register();
        let result = self.solve_recovered_inner(circuit, guess, cap_state, cache);
        OBS_SOLVES.increment();
        match &result {
            Ok(sol) => {
                let d = sol.diagnostics();
                OBS_NEWTON_ITERATIONS.add(d.iterations as u64);
                OBS_NEWTON_ATTEMPTS.add(d.attempts as u64);
                OBS_NEWTON_FACTORIZATIONS.add(d.factorizations as u64);
                OBS_RESIDUAL.observe(d.residual);
                match d.rung {
                    RecoveryRung::Plain => OBS_RUNG_PLAIN.increment(),
                    RecoveryRung::PerturbedGuess => OBS_RUNG_PERTURBED.increment(),
                    RecoveryRung::GminStepping => OBS_RUNG_GMIN.increment(),
                    RecoveryRung::SourceStepping => OBS_RUNG_SOURCE.increment(),
                }
                // Recovered solves are rare enough to stream individually;
                // plain solves would flood the sink and are summarized by the
                // counters instead.
                if d.rung != RecoveryRung::Plain && pnc_obs::sink::enabled() {
                    pnc_obs::sink::emit(
                        "spice.solve.recovered",
                        &[
                            ("rung", FieldValue::Str(d.rung.as_str())),
                            ("iterations", FieldValue::U64(d.iterations as u64)),
                            ("attempts", FieldValue::U64(d.attempts as u64)),
                            ("residual", FieldValue::F64(d.residual)),
                        ],
                    );
                }
            }
            Err(e @ (SpiceError::NoConvergence { .. } | SpiceError::SingularSystem { .. })) => {
                OBS_SOLVE_FAILURES.increment();
                if pnc_obs::sink::enabled() {
                    pnc_obs::sink::emit(
                        "spice.solve.failed",
                        &[(
                            "kind",
                            FieldValue::Str(match e {
                                SpiceError::NoConvergence { .. } => "no_convergence",
                                _ => "singular_system",
                            }),
                        )],
                    );
                }
            }
            Err(_) => OBS_SOLVE_FAILURES.increment(),
        }
        result
    }

    fn solve_recovered_inner(
        &self,
        circuit: &Circuit,
        guess: Option<&[f64]>,
        cap_state: Option<(&[f64], f64)>,
        cache: Option<&mut NewtonCache>,
    ) -> Result<Solution, SpiceError> {
        // Total iterations, factorizations, and attempts across the ladder,
        // folded into the successful solution's diagnostics.
        let mut iterations = 0usize;
        let mut factorizations = 0usize;
        let mut attempts = 1usize;

        let first_err =
            match self.newton_solve(circuit, guess, cap_state, RecoveryRung::Plain, cache) {
                Ok(sol) => return Ok(sol),
                Err(e @ (SpiceError::NoConvergence { .. } | SpiceError::SingularSystem { .. })) => {
                    if let SpiceError::NoConvergence { iterations: n, .. } = e {
                        iterations += n;
                    }
                    e
                }
                Err(e) => return Err(e),
            };

        let finish = |mut sol: Solution,
                      rung: RecoveryRung,
                      iterations: usize,
                      factorizations: usize,
                      attempts: usize| {
            sol.diagnostics.iterations += iterations;
            sol.diagnostics.factorizations += factorizations;
            sol.diagnostics.rung = rung;
            sol.diagnostics.attempts = attempts;
            sol
        };

        // Rung 1: deterministic perturbed restarts.
        let n = circuit.num_nodes();
        for k in 1..=self.recovery.guess_perturbations {
            attempts += 1;
            let start = perturbed_guess(n, guess, k, self.recovery.perturbation_scale);
            match self.newton_solve(
                circuit,
                Some(&start),
                cap_state,
                RecoveryRung::PerturbedGuess,
                None,
            ) {
                Ok(sol) => {
                    return Ok(finish(
                        sol,
                        RecoveryRung::PerturbedGuess,
                        iterations,
                        factorizations,
                        attempts,
                    ))
                }
                Err(SpiceError::NoConvergence { iterations: n, .. }) => iterations += n,
                Err(SpiceError::SingularSystem { .. }) => {}
                Err(e) => return Err(e),
            }
        }

        // Rung 2: gmin stepping.
        if self.recovery.gmin_steps > 0 {
            match self.gmin_stepping(
                circuit,
                guess,
                cap_state,
                &mut iterations,
                &mut factorizations,
                &mut attempts,
            ) {
                Ok(sol) => {
                    return Ok(finish(
                        sol,
                        RecoveryRung::GminStepping,
                        iterations,
                        factorizations,
                        attempts,
                    ))
                }
                Err(SpiceError::NoConvergence { .. } | SpiceError::SingularSystem { .. }) => {}
                Err(e) => return Err(e),
            }
        }

        // Rung 3: source stepping — DC only; ramping sources inside a
        // backward-Euler step would fight the capacitor history terms.
        if self.recovery.source_steps > 0 && cap_state.is_none() {
            match self.source_stepping(circuit, &mut iterations, &mut factorizations, &mut attempts)
            {
                Ok(sol) => {
                    return Ok(finish(
                        sol,
                        RecoveryRung::SourceStepping,
                        iterations,
                        factorizations,
                        attempts,
                    ))
                }
                Err(SpiceError::NoConvergence { .. } | SpiceError::SingularSystem { .. }) => {}
                Err(e) => return Err(e),
            }
        }

        Err(first_err)
    }

    /// Rung 2: solve with a large gmin and geometrically relax it back to
    /// the configured value, warm-starting each step.
    fn gmin_stepping(
        &self,
        circuit: &Circuit,
        guess: Option<&[f64]>,
        cap_state: Option<(&[f64], f64)>,
        iterations: &mut usize,
        factorizations: &mut usize,
        attempts: &mut usize,
    ) -> Result<Solution, SpiceError> {
        let steps = self.recovery.gmin_steps;
        let start = self.recovery.gmin_initial.max(self.gmin.max(1e-15));
        let target = self.gmin.max(1e-15);
        let mut relaxed = self.clone();
        let mut guess_vec: Option<Vec<f64>> = guess.map(<[f64]>::to_vec);
        let mut last: Option<Solution> = None;
        for step in 0..=steps {
            relaxed.gmin = if step == steps {
                self.gmin
            } else {
                start * (target / start).powf(step as f64 / steps as f64)
            };
            *attempts += 1;
            OBS_GMIN_STEPS.increment();
            match relaxed.newton_solve(
                circuit,
                guess_vec.as_deref(),
                cap_state,
                RecoveryRung::GminStepping,
                None,
            ) {
                Ok(sol) => {
                    *iterations += sol.diagnostics.iterations;
                    *factorizations += sol.diagnostics.factorizations;
                    guess_vec = Some(sol.voltages()[1..].to_vec());
                    last = Some(sol);
                }
                Err(e) => {
                    if let SpiceError::NoConvergence { iterations: n, .. } = e {
                        *iterations += n;
                    }
                    return Err(e);
                }
            }
        }
        let Some(mut sol) = last else {
            // Zero steps only happens with a degenerate schedule; report it as
            // a non-convergence instead of panicking.
            return Err(SpiceError::NoConvergence {
                iterations: *iterations,
                residual: f64::INFINITY,
            });
        };
        // The accumulated totals are applied by `finish`; this solution's own
        // counts are already inside `iterations`/`factorizations`.
        sol.diagnostics.iterations = 0;
        sol.diagnostics.factorizations = 0;
        Ok(sol)
    }

    /// Rung 3: ramp all independent sources from zero to full value,
    /// continuing from each intermediate solution.
    fn source_stepping(
        &self,
        circuit: &Circuit,
        iterations: &mut usize,
        factorizations: &mut usize,
        attempts: &mut usize,
    ) -> Result<Solution, SpiceError> {
        let steps = self.recovery.source_steps;
        let mut guess_vec: Option<Vec<f64>> = None;
        let mut last: Option<Solution> = None;
        for k in 1..=steps {
            // The final step solves the original circuit verbatim, so the
            // returned operating point is exact — not a scaled variant.
            let scaled = if k == steps {
                circuit.clone()
            } else {
                circuit.scaled_sources(k as f64 / steps as f64)
            };
            *attempts += 1;
            OBS_SOURCE_STEPS.increment();
            match self.newton_solve(
                &scaled,
                guess_vec.as_deref(),
                None,
                RecoveryRung::SourceStepping,
                None,
            ) {
                Ok(sol) => {
                    *iterations += sol.diagnostics.iterations;
                    *factorizations += sol.diagnostics.factorizations;
                    guess_vec = Some(sol.voltages()[1..].to_vec());
                    last = Some(sol);
                }
                Err(e) => {
                    if let SpiceError::NoConvergence { iterations: n, .. } = e {
                        *iterations += n;
                    }
                    return Err(e);
                }
            }
        }
        let Some(mut sol) = last else {
            return Err(SpiceError::NoConvergence {
                iterations: *iterations,
                residual: f64::INFINITY,
            });
        };
        sol.diagnostics.iterations = 0;
        sol.diagnostics.factorizations = 0;
        Ok(sol)
    }

    /// Newton iteration shared by DC analysis (`cap_state` = `None`,
    /// capacitors open) and the transient solver's backward-Euler steps
    /// (`cap_state` = previous node voltages including ground, and the
    /// timestep). `rung` tags the attempt for diagnostics and fault
    /// injection; it does not change the numerics.
    ///
    /// Acceptance requires the voltage update *and* the KCL residual to be
    /// below their tolerances, so a stalled damped update is not mistaken
    /// for convergence.
    ///
    /// With `cache` supplied the loop runs modified Newton: the Jacobian
    /// factorization is kept while the residual contracts geometrically
    /// (including a factorization carried in from an earlier warm-started
    /// solve whose operating point is close) and rebuilt only when
    /// contraction stalls. The residual is always evaluated on the freshly
    /// assembled system, so the acceptance criteria — and hence the
    /// returned solution's accuracy — are identical to the full-Newton path.
    pub(crate) fn newton_solve(
        &self,
        circuit: &Circuit,
        guess: Option<&[f64]>,
        cap_state: Option<(&[f64], f64)>,
        rung: RecoveryRung,
        cache: Option<&mut NewtonCache>,
    ) -> Result<Solution, SpiceError> {
        let n = circuit.num_nodes();
        let m = circuit.num_vsources();
        let dim = n + m;

        let mut x = vec![0.0; dim];
        if let Some(g) = guess {
            if g.len() != n {
                return Err(SpiceError::BadDeviceRef {
                    detail: format!("guess has {} entries, circuit has {} nodes", g.len(), n),
                });
            }
            x[..n].copy_from_slice(g);
        }

        if dim == 0 {
            return Ok(Solution {
                voltages: vec![0.0],
                source_currents: Vec::new(),
                diagnostics: SolveDiagnostics {
                    iterations: 0,
                    residual: 0.0,
                    rung,
                    attempts: 1,
                    factorizations: 0,
                },
            });
        }

        if let Some(fault) = &self.fault_injection {
            if fault.triggers(circuit, rung) {
                return Err(SpiceError::NoConvergence {
                    iterations: 0,
                    residual: f64::INFINITY,
                });
            }
        }

        self.newton_dense(circuit, x, cap_state, rung, cache)
    }

    /// The Newton loop: the circuit is compiled into a stamp table once,
    /// then every iteration stamps the dense MNA system into reused buffers
    /// and solves it by dense LU (full Newton), or by a held factorization
    /// (modified Newton with `cache`). An oracle pinned by its output:
    /// `crates/spice/tests/fig3_bits.rs` pins the Fig. 3 sweep bit for bit
    /// on both branches (`nominal_fig3_sweep_is_bit_identical_to_the_recorded_oracle`
    /// with a cache, `cacheless_fig3_sweep_is_bit_identical_to_the_recorded_oracle`
    /// without), `crates/spice/tests/stamp_bits.rs` pins the gmin and
    /// source rungs and the transient capacitor companion, and
    /// `damping_limits_node_voltages_but_not_source_currents` pins which
    /// unknowns the damping limits.
    fn newton_dense(
        &self,
        circuit: &Circuit,
        mut x: Vec<f64>,
        cap_state: Option<(&[f64], f64)>,
        rung: RecoveryRung,
        cache: Option<&mut NewtonCache>,
    ) -> Result<Solution, SpiceError> {
        let n = circuit.num_nodes();
        let dim = x.len();

        let mut own = Workspace::default();
        let (work, mut held) = match cache {
            Some(NewtonCache { held, work }) => {
                // A factorization carried over from an earlier solve is only
                // trusted when the warm-start point stayed near where it was
                // taken; otherwise start cold.
                if !held.matches(dim, &x) {
                    held.clear();
                }
                (work, Some(held))
            }
            None => (&mut own, None),
        };
        work.compile(circuit, cap_state, dim);

        let mut last_update = f64::INFINITY;
        let mut last_residual = f64::INFINITY;
        let mut prev_residual = f64::INFINITY;
        let mut factorizations = 0usize;
        for iter in 0..=self.max_iterations {
            work.stamp(&x, n, self.gmin);
            let residual = work.residual(&x);
            last_residual = residual;

            if last_update < self.tolerance && residual < self.residual_tolerance {
                let mut voltages = vec![0.0; n + 1];
                voltages[1..].copy_from_slice(&x[..n]);
                return Ok(Solution {
                    voltages,
                    source_currents: x[n..].to_vec(),
                    diagnostics: SolveDiagnostics {
                        iterations: iter,
                        residual,
                        rung,
                        attempts: 1,
                        factorizations,
                    },
                });
            }
            if iter == self.max_iterations {
                break;
            }

            let mut max_delta = 0.0_f64;
            if let Some(h) = held.as_deref_mut() {
                // Modified Newton, delta form with a possibly stale
                // Jacobian: J_stale·Δ = −F(x). Refactor when there is no
                // factorization yet or the residual stopped contracting
                // geometrically under the stale one. The new factors are
                // built in the workspace and swapped in on success, so a
                // singular Jacobian leaves the held one as it was.
                if !h.warm || residual > STALL_CONTRACTION * prev_residual {
                    work.lu.refactor(&work.g)?;
                    std::mem::swap(&mut h.lu, &mut work.lu);
                    h.warm = true;
                    h.x_at_factor.clear();
                    h.x_at_factor.extend_from_slice(&x);
                    factorizations += 1;
                }
                for fi in work.f.iter_mut() {
                    *fi = -*fi;
                }
                h.lu.solve_into(&work.f, &mut work.delta)?;
                for (i, d) in work.delta.iter().enumerate() {
                    let mut d = *d;
                    // Only damp node voltages; source branch currents may
                    // move freely.
                    if i < n {
                        d = d.clamp(-self.max_step, self.max_step);
                    }
                    x[i] += d;
                    if i < n {
                        max_delta = max_delta.max(d.abs());
                    }
                }
            } else {
                // Classic full Newton: factor every iteration and solve for
                // the next iterate directly.
                work.lu.refactor(&work.g)?;
                factorizations += 1;
                work.lu.solve_into(&work.rhs, &mut work.delta)?;

                // Damped update: limit each voltage step.
                for (i, x_new) in work.delta.iter().enumerate() {
                    let mut delta = x_new - x[i];
                    // Only damp node voltages; source branch currents may move freely.
                    if i < n {
                        delta = delta.clamp(-self.max_step, self.max_step);
                    }
                    x[i] += delta;
                    if i < n {
                        max_delta = max_delta.max(delta.abs());
                    }
                }
            }
            last_update = max_delta;
            prev_residual = residual;
        }

        Err(SpiceError::NoConvergence {
            iterations: self.max_iterations,
            residual: last_residual,
        })
    }
}

/// The deterministic rung-1 starting point: the caller's guess (or zero)
/// shifted by `k · scale` with alternating sign per node, so successive
/// retries explore both directions at growing amplitude.
fn perturbed_guess(n: usize, guess: Option<&[f64]>, k: usize, scale: f64) -> Vec<f64> {
    let mut x: Vec<f64> = match guess {
        Some(g) => g.to_vec(),
        None => vec![0.0; n],
    };
    for (i, xi) in x.iter_mut().enumerate() {
        let sign = if (i + k).is_multiple_of(2) { 1.0 } else { -1.0 };
        *xi += sign * scale * k as f64;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EgtModel, GROUND};

    #[test]
    fn voltage_divider() {
        let mut c = Circuit::new();
        let vin = c.new_node();
        let mid = c.new_node();
        c.vsource(vin, GROUND, 1.0).unwrap();
        c.resistor(vin, mid, 1_000.0).unwrap();
        c.resistor(mid, GROUND, 1_000.0).unwrap();
        let sol = DcSolver::new().solve(&c).unwrap();
        assert!((sol.voltage(mid) - 0.5).abs() < 1e-9);
        assert!((sol.voltage(vin) - 1.0).abs() < 1e-12);
        // Source sinks the loop current: V/R_total = 0.5 mA flowing out of
        // the plus terminal, i.e. −0.5 mA into it.
        assert!((sol.source_current(0) + 0.5e-3).abs() < 1e-9);
    }

    #[test]
    fn two_sources_and_superposition() {
        // Two 1 V sources through 1 kΩ each into a common node with 1 kΩ to
        // ground: node voltage is 2/3 V.
        let mut c = Circuit::new();
        let a = c.new_node();
        let b = c.new_node();
        let out = c.new_node();
        c.vsource(a, GROUND, 1.0).unwrap();
        c.vsource(b, GROUND, 1.0).unwrap();
        c.resistor(a, out, 1_000.0).unwrap();
        c.resistor(b, out, 1_000.0).unwrap();
        c.resistor(out, GROUND, 1_000.0).unwrap();
        let sol = DcSolver::new().solve(&c).unwrap();
        assert!((sol.voltage(out) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut c = Circuit::new();
        let n = c.new_node();
        c.isource(GROUND, n, 2e-3).unwrap();
        c.resistor(n, GROUND, 500.0).unwrap();
        let sol = DcSolver::new().solve(&c).unwrap();
        assert!((sol.voltage(n) - 1.0).abs() < 1e-6);
    }

    /// Newton damping limits node voltages only. A 1 V source across
    /// 10 mΩ settles its 100 A branch current in the first step while the
    /// node voltage climbs `max_step` per iteration, on the full-Newton
    /// and the cached modified-Newton branch alike.
    #[test]
    fn damping_limits_node_voltages_but_not_source_currents() {
        let mut c = Circuit::new();
        let a = c.new_node();
        c.vsource(a, GROUND, 1.0).unwrap();
        c.resistor(a, GROUND, 0.01).unwrap();
        let solver = DcSolver::new();
        let full = solver.solve(&c).unwrap();
        let modified = solver
            .solve_with_cache(&c, None, &mut NewtonCache::new())
            .unwrap();
        for (sol, factorizations, current_bits) in [
            (&full, 5, 0xc059_0000_0000_0045_u64),
            (&modified, 4, 0xc059_0000_0000_0046),
        ] {
            let d = sol.diagnostics();
            assert_eq!((d.iterations, d.factorizations), (5, factorizations));
            assert_eq!(sol.source_current(0).to_bits(), current_bits);
        }
    }

    #[test]
    fn floating_node_is_pulled_to_ground_by_gmin() {
        let mut c = Circuit::new();
        let float = c.new_node();
        let used = c.new_node();
        c.vsource(used, GROUND, 1.0).unwrap();
        c.resistor(used, GROUND, 100.0).unwrap();
        // `float` has no device at all.
        let _ = float;
        let sol = DcSolver::new().solve(&c).unwrap();
        assert!(sol.voltage(float).abs() < 1e-9);
    }

    #[test]
    fn crossbar_weighted_sum_matches_eq1() {
        // A 2-input resistor crossbar (Fig. 1 left): V_z should equal the
        // conductance-weighted mean of inputs and bias, Eq. (1) of the paper.
        let g1 = 1.0 / 2_000.0;
        let g2 = 1.0 / 5_000.0;
        let gb = 1.0 / 10_000.0;
        let gd = 1.0 / 4_000.0;
        let (v1, v2, vb) = (0.8, 0.3, 1.0);

        let mut c = Circuit::new();
        let n1 = c.new_node();
        let n2 = c.new_node();
        let nb = c.new_node();
        let z = c.new_node();
        c.vsource(n1, GROUND, v1).unwrap();
        c.vsource(n2, GROUND, v2).unwrap();
        c.vsource(nb, GROUND, vb).unwrap();
        c.resistor(n1, z, 1.0 / g1).unwrap();
        c.resistor(n2, z, 1.0 / g2).unwrap();
        c.resistor(nb, z, 1.0 / gb).unwrap();
        c.resistor(z, GROUND, 1.0 / gd).unwrap();

        let sol = DcSolver::new().solve(&c).unwrap();
        let g_total = g1 + g2 + gb + gd;
        let expected = (g1 * v1 + g2 * v2 + gb * vb) / g_total;
        assert!((sol.voltage(z) - expected).abs() < 1e-9);
    }

    #[test]
    fn egt_inverter_output_swings() {
        let vdd = 1.0;
        let model = EgtModel::printed(600e-6, 20e-6);

        let out_at = |vin: f64| -> f64 {
            let mut c = Circuit::new();
            let supply = c.new_node();
            let input = c.new_node();
            let out = c.new_node();
            c.vsource(supply, GROUND, vdd).unwrap();
            c.vsource(input, GROUND, vin).unwrap();
            c.resistor(supply, out, 200_000.0).unwrap();
            c.egt(out, input, GROUND, model).unwrap();
            DcSolver::new().solve(&c).unwrap().voltage(out)
        };

        let high = out_at(0.0);
        let low = out_at(1.0);
        assert!(
            high > 0.95,
            "inverter output should be near VDD when off, got {high}"
        );
        assert!(
            low < 0.3,
            "inverter output should be pulled low when on, got {low}"
        );
    }

    #[test]
    fn egt_inverter_is_monotone_decreasing() {
        let model = EgtModel::printed(400e-6, 40e-6);
        let mut c = Circuit::new();
        let supply = c.new_node();
        let input = c.new_node();
        let out = c.new_node();
        c.vsource(supply, GROUND, 1.0).unwrap();
        let vin_id = c.vsource(input, GROUND, 0.0).unwrap();
        c.resistor(supply, out, 100_000.0).unwrap();
        c.egt(out, input, GROUND, model).unwrap();

        let solver = DcSolver::new();
        let mut prev = f64::INFINITY;
        let mut guess: Option<Vec<f64>> = None;
        for i in 0..=20 {
            let vin = i as f64 / 20.0;
            c.set_vsource(vin_id, vin).unwrap();
            let sol = solver.solve_with_guess(&c, guess.as_deref()).unwrap();
            let v = sol.voltage(out);
            assert!(
                v <= prev + 1e-9,
                "inverter must be monotone: {v} after {prev}"
            );
            prev = v;
            guess = Some(sol.voltages()[1..].to_vec());
        }
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let model = EgtModel::printed(400e-6, 40e-6);
        let mut c = Circuit::new();
        let supply = c.new_node();
        let input = c.new_node();
        let out = c.new_node();
        c.vsource(supply, GROUND, 1.0).unwrap();
        c.vsource(input, GROUND, 0.5).unwrap();
        c.resistor(supply, out, 100_000.0).unwrap();
        c.egt(out, input, GROUND, model).unwrap();

        let solver = DcSolver::new();
        let cold = solver.solve(&c).unwrap();
        let warm = solver
            .solve_with_guess(&c, Some(&cold.voltages()[1..]))
            .unwrap();
        assert!(
            warm.iterations() <= 2,
            "warm start took {} iterations",
            warm.iterations()
        );
        assert!((warm.voltage(out) - cold.voltage(out)).abs() < 1e-8);
    }

    #[test]
    fn wrong_guess_length_is_rejected() {
        let mut c = Circuit::new();
        let n = c.new_node();
        c.resistor(n, GROUND, 1.0).unwrap();
        let err = DcSolver::new().solve_with_guess(&c, Some(&[0.0, 0.0]));
        assert!(matches!(err, Err(SpiceError::BadDeviceRef { .. })));
    }

    #[test]
    fn empty_circuit_solves_trivially() {
        let c = Circuit::new();
        let sol = DcSolver::new().solve(&c).unwrap();
        assert_eq!(sol.voltages(), &[0.0]);
        assert_eq!(sol.diagnostics().rung, RecoveryRung::Plain);
    }

    #[test]
    fn plain_solve_reports_residual_and_rung() {
        let mut c = Circuit::new();
        let n = c.new_node();
        c.vsource(n, GROUND, 1.0).unwrap();
        c.resistor(n, GROUND, 1_000.0).unwrap();
        let sol = DcSolver::new().solve(&c).unwrap();
        let d = sol.diagnostics();
        assert_eq!(d.rung, RecoveryRung::Plain);
        assert_eq!(d.attempts, 1);
        assert!(d.residual.is_finite());
        assert!(d.residual < 1e-9, "residual {}", d.residual);
        assert!(!d.recovered());
    }

    #[test]
    fn residual_check_rejects_stalled_updates() {
        // A solver whose residual tolerance can never be met must report
        // NoConvergence even though the (tiny) voltage updates settle.
        let mut c = Circuit::new();
        let n = c.new_node();
        c.vsource(n, GROUND, 1.0).unwrap();
        c.resistor(n, GROUND, 1_000.0).unwrap();
        let solver = DcSolver {
            residual_tolerance: 0.0, // unachievable
            recovery: RecoveryPolicy::disabled(),
            ..DcSolver::new()
        };
        let err = solver.solve(&c);
        assert!(
            matches!(err, Err(SpiceError::NoConvergence { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn fault_injection_fails_without_recovery() {
        let mut c = Circuit::new();
        let n = c.new_node();
        c.vsource(n, GROUND, 0.5).unwrap();
        c.resistor(n, GROUND, 1_000.0).unwrap();
        let solver = DcSolver {
            recovery: RecoveryPolicy::disabled(),
            fault_injection: Some(FaultInjection::recoverable_at(vec![0.5])),
            ..DcSolver::new()
        };
        assert!(matches!(
            solver.solve(&c),
            Err(SpiceError::NoConvergence { .. })
        ));
    }

    #[test]
    fn ladder_rescues_injected_fault_via_gmin_stepping() {
        let mut c = Circuit::new();
        let n = c.new_node();
        c.vsource(n, GROUND, 0.5).unwrap();
        c.resistor(n, GROUND, 1_000.0).unwrap();
        let solver = DcSolver {
            fault_injection: Some(FaultInjection::recoverable_at(vec![0.5])),
            ..DcSolver::new()
        };
        let sol = solver.solve(&c).unwrap();
        assert!((sol.voltage(n) - 0.5).abs() < 1e-9);
        let d = sol.diagnostics();
        assert_eq!(d.rung, RecoveryRung::GminStepping);
        assert!(d.recovered());
        // Plain + 2 perturbed restarts failed before the gmin rung ran.
        assert!(d.attempts > 3, "attempts {}", d.attempts);
    }

    #[test]
    fn ladder_rescues_via_source_stepping_when_gmin_is_disabled() {
        let mut c = Circuit::new();
        let n = c.new_node();
        c.vsource(n, GROUND, 0.5).unwrap();
        c.resistor(n, GROUND, 1_000.0).unwrap();
        let solver = DcSolver {
            recovery: RecoveryPolicy {
                gmin_steps: 0,
                guess_perturbations: 0,
                ..RecoveryPolicy::default()
            },
            fault_injection: Some(FaultInjection {
                trigger_values: vec![0.5],
                tolerance: 1e-9,
                min_successful_rung: Some(RecoveryRung::SourceStepping),
            }),
            ..DcSolver::new()
        };
        let sol = solver.solve(&c).unwrap();
        assert!((sol.voltage(n) - 0.5).abs() < 1e-9);
        assert_eq!(sol.diagnostics().rung, RecoveryRung::SourceStepping);
    }

    #[test]
    fn unrecoverable_fault_fails_at_every_rung() {
        let mut c = Circuit::new();
        let n = c.new_node();
        c.vsource(n, GROUND, 0.5).unwrap();
        c.resistor(n, GROUND, 1_000.0).unwrap();
        let solver = DcSolver {
            fault_injection: Some(FaultInjection::unrecoverable_at(vec![0.5])),
            ..DcSolver::new()
        };
        assert!(matches!(
            solver.solve(&c),
            Err(SpiceError::NoConvergence { .. })
        ));
        // A non-triggering source value solves normally.
        let mut ok = Circuit::new();
        let m = ok.new_node();
        ok.vsource(m, GROUND, 0.7).unwrap();
        ok.resistor(m, GROUND, 1_000.0).unwrap();
        let sol = solver.solve(&ok).unwrap();
        assert_eq!(sol.diagnostics().rung, RecoveryRung::Plain);
    }

    #[test]
    fn recovered_solution_matches_plain_solution() {
        // The rescued EGT inverter operating point must equal the one plain
        // Newton finds without injection.
        let model = EgtModel::printed(600e-6, 20e-6);
        let build = || {
            let mut c = Circuit::new();
            let supply = c.new_node();
            let input = c.new_node();
            let out = c.new_node();
            c.vsource(supply, GROUND, 1.0).unwrap();
            c.vsource(input, GROUND, 0.4).unwrap();
            c.resistor(supply, out, 200_000.0).unwrap();
            c.egt(out, input, GROUND, model).unwrap();
            (c, out)
        };
        let (c, out) = build();
        let plain = DcSolver::new().solve(&c).unwrap();
        let faulted = DcSolver {
            fault_injection: Some(FaultInjection::recoverable_at(vec![0.4])),
            ..DcSolver::new()
        };
        let rescued = faulted.solve(&c).unwrap();
        assert_eq!(rescued.diagnostics().rung, RecoveryRung::GminStepping);
        assert!(
            (rescued.voltage(out) - plain.voltage(out)).abs() < 1e-8,
            "rescued {} vs plain {}",
            rescued.voltage(out),
            plain.voltage(out)
        );
    }

    #[test]
    fn ladder_is_deterministic() {
        let mut c = Circuit::new();
        let n = c.new_node();
        c.vsource(n, GROUND, 0.5).unwrap();
        c.resistor(n, GROUND, 1_000.0).unwrap();
        let solver = DcSolver {
            fault_injection: Some(FaultInjection::recoverable_at(vec![0.5])),
            ..DcSolver::new()
        };
        let a = solver.solve(&c).unwrap();
        let b = solver.solve(&c).unwrap();
        assert_eq!(a, b, "recovery must be deterministic");
    }

    #[test]
    fn recovery_policy_default_and_disabled() {
        let p = RecoveryPolicy::default();
        assert!(p.guess_perturbations > 0 && p.gmin_steps > 0 && p.source_steps > 0);
        let off = RecoveryPolicy::disabled();
        assert_eq!(off.guess_perturbations, 0);
        assert_eq!(off.gmin_steps, 0);
        assert_eq!(off.source_steps, 0);
    }

    fn egt_inverter_circuit(vin: f64) -> (Circuit, crate::Node) {
        let model = EgtModel::printed(600e-6, 20e-6);
        let mut c = Circuit::new();
        let supply = c.new_node();
        let input = c.new_node();
        let out = c.new_node();
        c.vsource(supply, GROUND, 1.0).unwrap();
        c.vsource(input, GROUND, vin).unwrap();
        c.resistor(supply, out, 200_000.0).unwrap();
        c.egt(out, input, GROUND, model).unwrap();
        (c, out)
    }

    #[test]
    fn nonlinear_solves_are_deterministic() {
        let (c, _) = egt_inverter_circuit(0.45);
        let solver = DcSolver::new();
        let a = solver.solve(&c).unwrap();
        let b = solver.solve(&c).unwrap();
        assert_eq!(a, b, "solves must be run-to-run deterministic");
    }

    #[test]
    fn rung_ordering_matches_escalation_cost() {
        assert!(RecoveryRung::Plain < RecoveryRung::PerturbedGuess);
        assert!(RecoveryRung::PerturbedGuess < RecoveryRung::GminStepping);
        assert!(RecoveryRung::GminStepping < RecoveryRung::SourceStepping);
    }
}
