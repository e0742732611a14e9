//! Property-based checks of circuit-theory invariants: the DC solver must
//! satisfy superposition and source scaling on linear networks, and the
//! paper's nonlinear circuit must stay physical over the whole Tab. I box.

use pnc_spice::circuits::{characteristic_curve, NonlinearCircuitParams};
use pnc_spice::{Circuit, DcSolver, DeviceId, Node, GROUND};
use proptest::prelude::*;

/// A random 4-node resistive network driven by two sources, returning the
/// circuit plus the two source handles and a probe node.
fn random_linear_network(
    resistors: &[(usize, usize, f64)],
    v1: f64,
    v2: f64,
) -> (Circuit, DeviceId, DeviceId, Node) {
    let mut c = Circuit::new();
    let nodes: Vec<Node> = (0..4).map(|_| c.new_node()).collect();
    let all = [GROUND, nodes[0], nodes[1], nodes[2], nodes[3]];
    let s1 = c.vsource(nodes[0], GROUND, v1).expect("valid");
    let s2 = c.vsource(nodes[1], GROUND, v2).expect("valid");
    // Baseline connectivity so no probe node floats.
    c.resistor(nodes[0], nodes[2], 1_000.0).expect("valid");
    c.resistor(nodes[1], nodes[3], 1_000.0).expect("valid");
    c.resistor(nodes[2], nodes[3], 1_000.0).expect("valid");
    c.resistor(nodes[3], GROUND, 1_000.0).expect("valid");
    for &(a, b, r) in resistors {
        if a != b {
            c.resistor(all[a], all[b], r).expect("valid");
        }
    }
    (c, s1, s2, nodes[3])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Superposition: the response to two sources equals the sum of the
    /// responses to each source alone.
    #[test]
    fn linear_superposition(
        resistors in proptest::collection::vec((0usize..5, 0usize..5, 100.0..100_000.0f64), 0..8),
        v1 in -2.0..2.0f64,
        v2 in -2.0..2.0f64,
    ) {
        let solver = DcSolver::new();
        let solve_probe = |a: f64, b: f64| -> f64 {
            let (c, _, _, probe) = random_linear_network(&resistors, a, b);
            solver.solve(&c).expect("linear networks converge").voltage(probe)
        };
        let both = solve_probe(v1, v2);
        let only1 = solve_probe(v1, 0.0);
        let only2 = solve_probe(0.0, v2);
        prop_assert!(
            (both - only1 - only2).abs() < 1e-6,
            "superposition violated: {both} vs {only1} + {only2}"
        );
    }

    /// Homogeneity: scaling every source scales every node voltage.
    #[test]
    fn linear_scaling(
        resistors in proptest::collection::vec((0usize..5, 0usize..5, 100.0..100_000.0f64), 0..8),
        v in 0.1..2.0f64,
        scale in 0.25..4.0f64,
    ) {
        let solver = DcSolver::new();
        let (c1, _, _, probe) = random_linear_network(&resistors, v, -v);
        let (c2, _, _, probe2) = random_linear_network(&resistors, v * scale, -v * scale);
        let a = solver.solve(&c1).expect("converges").voltage(probe);
        let b = solver.solve(&c2).expect("converges").voltage(probe2);
        prop_assert!((b - a * scale).abs() < 1e-6 * scale.max(1.0), "{b} vs {a}*{scale}");
    }

    /// Over the entire feasible design space, the nonlinear circuit's
    /// transfer curve stays physical: within the supply rails, monotone
    /// non-decreasing, and solvable at every sweep point.
    #[test]
    fn ptanh_curves_are_physical_over_the_design_space(
        u in proptest::collection::vec(0.0..1.0f64, 7),
    ) {
        // Map the unit sample into the Tab. I box with feasible dividers.
        let lo = [10.0, 0.05, 10e3, 0.05, 10e3, 200e-6, 10e-6];
        let hi = [500.0, 0.95, 500e3, 0.95, 500e3, 800e-6, 70e-6];
        let raw: Vec<f64> = (0..7).map(|k| lo[k] + u[k] * (hi[k] - lo[k])).collect();
        let params = NonlinearCircuitParams {
            r1: raw[0],
            r2: (raw[0] * raw[1]).clamp(5.0, 250.0).min(raw[0] * 0.999),
            r3: raw[2],
            r4: (raw[2] * raw[3]).clamp(8e3, 400e3).min(raw[2] * 0.999),
            r5: raw[4],
            w: raw[5],
            l: raw[6],
        };
        prop_assume!(params.validate().is_ok());

        let curve = characteristic_curve(&params, 31).expect("sweep converges");
        let mut prev = f64::NEG_INFINITY;
        for &(vin, vout) in &curve {
            prop_assert!((0.0..=1.0).contains(&vin));
            prop_assert!(
                (-1e-6..=1.0 + 1e-6).contains(&vout),
                "output {vout} escapes the rails at {vin} for {params:?}"
            );
            prop_assert!(vout >= prev - 1e-6, "non-monotone at {vin}");
            prev = vout;
        }
    }
}
