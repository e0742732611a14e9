//! Bit-for-bit pin of the production dense path: the nominal Fig. 3
//! transfer curve on the paper's 61-point sweep grid, solved by the default
//! `DcSolver` through `dc_sweep`'s cached modified-Newton continuation.
//!
//! Any change to the MNA stamps, the Newton loop, the Jacobian-reuse policy
//! or the LU kernel that moves a single bit of an operating point, or one
//! iteration or factorization at one point, fails here. The values were
//! recorded from the dense-LU oracle before the dense and sparse assemblies
//! were merged into one stamp pass; a deliberate numeric change must
//! re-record them and say why.
//!
//! A second digest pins the same 61 points solved without a cache, i.e.
//! the classic full-Newton branch that warm-started `solve_with_guess`
//! calls and the recovery ladder run.

use pnc_spice::circuits::{NonlinearCircuitParams, PtanhCircuit, VDD};
use pnc_spice::sweep::linspace;

/// Per sweep point: output-node voltage bits, Newton iterations, LU
/// factorizations.
const POINTS: [(u64, usize, usize); 61] = [
    (0x3fb20566b6834c82, 22, 3),
    (0x3fb205c85bdbf4b7, 4, 1),
    (0x3fb20652c862614d, 4, 0),
    (0x3fb20716403568b8, 4, 0),
    (0x3fb2082906c58ac3, 4, 0),
    (0x3fb209a9493f972e, 4, 1),
    (0x3fb20bbf7afc80c5, 4, 0),
    (0x3fb20ea129436d65, 5, 0),
    (0x3fb212944173c518, 5, 0),
    (0x3fb217f2b7f908c0, 4, 1),
    (0x3fb21f2e71c60862, 5, 0),
    (0x3fb228d54a821b31, 5, 0),
    (0x3fb2359516015fcf, 6, 0),
    (0x3fb2463f935c249f, 5, 1),
    (0x3fb25bce7995de73, 6, 0),
    (0x3fb277681363eb05, 7, 0),
    (0x3fb29a6549c3441b, 7, 0),
    (0x3fb2c65a8374e75e, 6, 1),
    (0x3fb2fd256b28e225, 7, 0),
    (0x3fb341029e7c4e49, 8, 0),
    (0x3fb394afc2a0d758, 9, 0),
    (0x3fb3fba1142a3d57, 7, 1),
    (0x3fb47a565e3b1ac3, 9, 0),
    (0x3fb516e4b6d477a0, 11, 0),
    (0x3fb5d9dd9777a312, 13, 0),
    (0x3fb6cfe53caa9af6, 9, 1),
    (0x3fb80ca8ed655db3, 13, 0),
    (0x3fb9b0cf71944e8f, 7, 1),
    (0x3fbbf6e82a193ee9, 13, 0),
    (0x3fbf51da4bf7468f, 8, 1),
    (0x3fc25992c277aa48, 18, 0),
    (0x3fc6e7b26c91b592, 10, 1),
    (0x3fcdb3b54d46793b, 16, 0),
    (0x3fd2d09211b0afe2, 8, 1),
    (0x3fd6eb6e0a57a0fe, 6, 1),
    (0x3fdb0c56e14865eb, 6, 1),
    (0x3fdf26c67f128773, 6, 1),
    (0x3fe197d8136617c7, 6, 1),
    (0x3fe38dc853da3827, 6, 1),
    (0x3fe56f2e9eab2fe9, 6, 1),
    (0x3fe735d79a2b06ca, 6, 1),
    (0x3fe8db8887d711e6, 6, 1),
    (0x3fea5a3c4504fcef, 6, 1),
    (0x3febac7ddc3208f0, 6, 0),
    (0x3feccde59061e4b1, 6, 1),
    (0x3fedbbb6aaddbc6b, 7, 0),
    (0x3fee759076423187, 7, 1),
    (0x3feefe1453e3810d, 8, 0),
    (0x3fef5b4866f16eab, 9, 1),
    (0x3fef9641bd13b244, 13, 0),
    (0x3fefb9758e4aef15, 12, 1),
    (0x3fefce17970992f5, 23, 0),
    (0x3fefda7a83b97292, 10, 1),
    (0x3fefe248705dc53f, 16, 0),
    (0x3fefe779a2e840f3, 8, 1),
    (0x3fefeb1bcd005eba, 12, 0),
    (0x3fefedc3b9e5726d, 18, 0),
    (0x3fefefc7393d46db, 26, 0),
    (0x3feff15a1d7a7a57, 8, 1),
    (0x3feff29d13b9a519, 10, 0),
    (0x3feff3a5870524b1, 13, 0),
];

/// Word-wise FNV-1a over the bits of every node voltage (ground excluded)
/// and both source currents, in sweep order.
const DIGEST: u64 = 0xa2e0c5b3fcad3d47;

#[test]
fn nominal_fig3_sweep_is_bit_identical_to_the_recorded_oracle() {
    let mut ckt = PtanhCircuit::build(&NonlinearCircuitParams::nominal()).expect("builds");
    let sols = ckt
        .transfer_curve_solutions(&linspace(0.0, VDD, POINTS.len()))
        .expect("nominal sweep converges");
    assert_eq!(sols.len(), POINTS.len());
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for (i, (sol, &(out_bits, iterations, factorizations))) in sols.iter().zip(&POINTS).enumerate()
    {
        let d = sol.diagnostics();
        assert_eq!(
            (d.iterations, d.factorizations),
            (iterations, factorizations),
            "point {i}: iterations/factorizations"
        );
        // The output is the last node `PtanhCircuit::build` creates.
        let out = sol.voltages().last().expect("has nodes");
        assert_eq!(out.to_bits(), out_bits, "point {i}: output voltage bits");
        let currents = [sol.source_current(0), sol.source_current(1)];
        for v in sol.voltages()[1..].iter().chain(&currents) {
            digest = (digest ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    assert_eq!(digest, DIGEST, "digest of every node voltage and current");
}

/// Word-wise FNV-1a over, per point of the cache-less sweep: iterations,
/// factorizations, every node voltage (ground excluded) and both source
/// currents.
const FULL_NEWTON_DIGEST: u64 = 0x189a_30c8_6f62_13e1;

#[test]
fn cacheless_fig3_sweep_is_bit_identical_to_the_recorded_oracle() {
    let ckt = PtanhCircuit::build(&NonlinearCircuitParams::nominal()).expect("builds");
    let mut circuit = ckt.circuit().clone();
    let mut guess: Option<Vec<f64>> = None;
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for v in linspace(0.0, VDD, POINTS.len()) {
        circuit
            .set_vsource(ckt.input_source(), v)
            .expect("input source");
        let sol = ckt
            .solver()
            .solve_with_guess(&circuit, guess.as_deref())
            .expect("nominal point converges");
        let d = sol.diagnostics();
        let counts = [d.iterations as u64, d.factorizations as u64];
        let currents = [sol.source_current(0), sol.source_current(1)];
        let bits = sol.voltages()[1..]
            .iter()
            .chain(&currents)
            .map(|v| v.to_bits());
        for word in counts.into_iter().chain(bits) {
            digest = (digest ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
        guess = Some(sol.voltages()[1..].to_vec());
    }
    assert_eq!(digest, FULL_NEWTON_DIGEST, "digest {digest:#018x}");
}
