//! Cross-backend property tests: on random ladder and crossbar topologies
//! the sparse-LU backend must track the dense-LU oracle to linear-solver
//! precision (the agreement contract of `docs/SOLVERS.md`). The differential tests
//! at the end drive the sparse backend through the stamps only transient
//! analysis and the recovery ladder reach: the capacitor companion, the
//! gmin override and the scaled sources.

use pnc_spice::circuits::{resistor_ladder, CrossbarNetwork, NonlinearCircuitParams, PtanhCircuit};
use pnc_spice::{
    sweep, Circuit, DcSolver, EgtModel, FaultInjection, Node, RecoveryPolicy, RecoveryRung,
    Solution, SolverBackend, TransientSolver, GROUND,
};
use proptest::prelude::*;

/// A random crossbar-like linear layer: `ins` source-driven columns fan
/// into `outs` weighted-sum rows through the given resistances, each row
/// pulled down to ground. Returns the circuit and the row nodes.
fn random_crossbar(
    ins: usize,
    outs: usize,
    volts: &[f64],
    weights: &[f64],
) -> (Circuit, Vec<Node>) {
    let mut c = Circuit::new();
    let cols: Vec<Node> = (0..ins).map(|_| c.new_node()).collect();
    for (k, &col) in cols.iter().enumerate() {
        c.vsource(col, GROUND, volts[k % volts.len()])
            .expect("valid");
    }
    let rows: Vec<Node> = (0..outs).map(|_| c.new_node()).collect();
    let mut w = 0usize;
    for &row in &rows {
        for &col in &cols {
            c.resistor(col, row, weights[w % weights.len()])
                .expect("valid");
            w += 1;
        }
        c.resistor(row, GROUND, weights[w % weights.len()])
            .expect("valid");
        w += 1;
    }
    (c, rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random ladders: sparse LU tracks dense LU to solver precision.
    #[test]
    fn backends_agree_on_random_ladders(
        sections in 1usize..24,
        r_series in 100.0..50_000.0f64,
        r_shunt in 1_000.0..200_000.0f64,
    ) {
        let (ladder, _) = resistor_ladder(sections, r_series, r_shunt).expect("valid");
        let dense = DcSolver::new().solve(&ladder).expect("dense converges");
        let sparse = DcSolver::with_backend(SolverBackend::SparseLu)
            .solve(&ladder)
            .expect("sparse converges");
        for (d, s) in dense.voltages().iter().zip(sparse.voltages()) {
            prop_assert!((d - s).abs() < 1e-9, "sparse: {d} vs {s}");
        }
        prop_assert!(
            (dense.source_current(0) - sparse.source_current(0)).abs() < 1e-9
        );
    }

    /// Random single-layer crossbars: both backends agree on every
    /// weighted-sum row voltage.
    #[test]
    fn backends_agree_on_random_crossbars(
        ins in 1usize..6,
        outs in 1usize..6,
        volts in proptest::collection::vec(0.0..1.0f64, 1..6),
        weights in proptest::collection::vec(5_000.0..150_000.0f64, 1..12),
    ) {
        let (c, rows) = random_crossbar(ins, outs, &volts, &weights);
        let dense = DcSolver::new().solve(&c).expect("dense converges");
        let sparse = DcSolver::with_backend(SolverBackend::SparseLu)
            .solve(&c)
            .expect("sparse converges");
        for &row in &rows {
            prop_assert!((dense.voltage(row) - sparse.voltage(row)).abs() < 1e-9);
        }
    }
}

/// Cross-backend agreement on the paper's Fig. 1 nonlinear transfer curve:
/// sparse LU tracks the dense oracle tightly.
#[test]
fn backends_agree_on_fig1_transfer_curve() {
    let grid = sweep::linspace(0.0, 1.0, 41);
    let curve = |backend: SolverBackend| -> Vec<(f64, f64)> {
        let mut ckt = PtanhCircuit::build(&NonlinearCircuitParams::nominal()).expect("builds");
        ckt.set_solver(DcSolver::with_backend(backend));
        ckt.transfer_curve(&grid).expect("solves")
    };
    let dense = curve(SolverBackend::DenseLu);
    let sparse = curve(SolverBackend::SparseLu);
    for ((_, d), (_, s)) in dense.iter().zip(&sparse) {
        assert!((d - s).abs() < 1e-8, "sparse: {d} vs {s}");
    }
}

/// Largest node-voltage deviation of sparse LU from the dense oracle.
fn sparse_dev(circuit: &Circuit) -> f64 {
    let dense = DcSolver::new().solve(circuit).expect("dense solves");
    let sparse = DcSolver::with_backend(SolverBackend::SparseLu)
        .solve(circuit)
        .expect("sparse solves");
    max_dev(&dense, &sparse)
}

/// Crossbar networks up to the 209-node `[16, 16, 16, 16]` network: sparse
/// LU within 1e-8 of the dense oracle on every node.
#[test]
fn backends_agree_on_crossbar_network() {
    for (layers, seed) in [(&[10, 8, 6][..], 1234), (&[16, 16, 16, 16][..], 42)] {
        let net = CrossbarNetwork::build(layers, seed).expect("builds");
        let dev = sparse_dev(net.circuit());
        assert!(dev < 1e-8, "{layers:?}: sparse deviates by {dev:e}");
    }
}

/// The 385-node ladder: sparse LU within 1e-8 of the dense oracle on every
/// node.
#[test]
fn backends_agree_on_long_ladder() {
    let (ladder, _) = resistor_ladder(384, 1e3, 1e4).expect("valid");
    assert_eq!(ladder.num_nodes(), 385);
    let dev = sparse_dev(&ladder);
    assert!(dev < 1e-8, "sparse deviates by {dev:e}");
}

/// Largest |difference| between two solutions' node voltages.
fn max_dev(a: &Solution, b: &Solution) -> f64 {
    a.voltages()
        .iter()
        .zip(b.voltages())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Backward-Euler transient of an RC-loaded EGT inverter: a gate RC from
/// the input and a Miller capacitor from the gate to the output put the
/// capacitor companion stamp on both a grounded and a floating branch.
#[test]
fn backends_agree_on_rc_egt_transient() {
    let mut c = Circuit::new();
    let supply = c.new_node();
    let input = c.new_node();
    let gate = c.new_node();
    let out = c.new_node();
    c.vsource(supply, GROUND, 1.0).expect("valid");
    let src = c.vsource(input, GROUND, 0.0).expect("valid");
    c.resistor(input, gate, 10_000.0).expect("valid");
    c.capacitor(gate, GROUND, 1e-7).expect("valid");
    c.capacitor(gate, out, 2e-8).expect("valid");
    c.resistor(supply, out, 200_000.0).expect("valid");
    c.capacitor(out, GROUND, 5e-8).expect("valid");
    c.egt(out, gate, GROUND, EgtModel::printed(600e-6, 20e-6))
        .expect("valid");

    let wave = |backend: SolverBackend| {
        let solver = TransientSolver {
            dc: DcSolver::with_backend(backend),
            ..TransientSolver::new(2e-5)
        };
        solver
            .simulate(&mut c.clone(), 4e-3, |t, ckt| {
                ckt.set_vsource(src, if t > 1e-3 { 1.0 } else { 0.0 })
            })
            .expect("transient converges")
    };
    let dense = wave(SolverBackend::DenseLu);
    let sparse = wave(SolverBackend::SparseLu);
    assert_eq!(dense.times, sparse.times);
    let swing =
        dense.solutions[0].voltage(out) - dense.solutions.last().expect("steps").voltage(out);
    assert!(
        swing > 0.5,
        "the step must switch the inverter, swing {swing}"
    );
    for (k, (d, s)) in dense.solutions.iter().zip(&sparse.solutions).enumerate() {
        let dev = max_dev(d, s);
        assert!(dev < 1e-9, "step {k}: dense vs sparse {dev:e} V");
    }
}

/// The Fig. 3 sweep with `FaultInjection::recoverable_at` on one grid
/// point, which fails plain Newton and the perturbed restarts there: both
/// backends must report `rescue` as the rung that saved that point, with
/// the same iteration and factorization totals, and agree on every
/// operating point of the sweep. The totals catch a rung that solved a
/// different system on one backend (an ignored gmin override, say) yet
/// ended on the same point.
fn assert_backends_agree_under_fault(solver: DcSolver, rescue: RecoveryRung) {
    let grid = sweep::linspace(0.0, 1.0, 21);
    let trigger = grid[10];
    let sweep = |backend: SolverBackend| {
        let mut ckt = PtanhCircuit::build(&NonlinearCircuitParams::nominal()).expect("builds");
        ckt.set_solver(DcSolver {
            backend,
            fault_injection: Some(FaultInjection::recoverable_at(vec![trigger])),
            ..solver.clone()
        });
        ckt.transfer_curve_solutions(&grid)
            .expect("the ladder rescues")
    };
    let dense = sweep(SolverBackend::DenseLu);
    let sparse = sweep(SolverBackend::SparseLu);
    let work = |sol: &Solution| {
        (
            sol.diagnostics().iterations,
            sol.diagnostics().factorizations,
        )
    };
    assert_eq!(work(&dense[10]), work(&sparse[10]), "rescue work");
    for (i, (d, s)) in dense.iter().zip(&sparse).enumerate() {
        let expected = if i == 10 { rescue } else { RecoveryRung::Plain };
        assert_eq!(d.diagnostics().rung, expected, "dense at point {i}");
        assert_eq!(s.diagnostics().rung, expected, "sparse at point {i}");
        let dev = max_dev(d, s);
        assert!(dev < 1e-9, "point {i}: dense vs sparse {dev:e} V");
    }
}

#[test]
fn backends_agree_when_gmin_stepping_rescues() {
    assert_backends_agree_under_fault(DcSolver::new(), RecoveryRung::GminStepping);
}

#[test]
fn backends_agree_when_source_stepping_rescues() {
    let solver = DcSolver {
        recovery: RecoveryPolicy {
            gmin_steps: 0,
            ..RecoveryPolicy::default()
        },
        ..DcSolver::new()
    };
    assert_backends_agree_under_fault(solver, RecoveryRung::SourceStepping);
}
