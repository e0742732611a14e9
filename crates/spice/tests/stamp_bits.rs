//! Bit-for-bit pins of the stamp paths that `fig3_bits.rs` does not reach:
//! the relaxed-gmin rung, the scaled-source rung, and the backward-Euler
//! capacitor companion of a transient step.
//!
//! Each test folds every operating point of one run into a word-wise
//! FNV-1a digest: per solve the Newton iterations, LU factorizations,
//! attempts and recovery rung, then every node voltage (ground excluded)
//! and every source current. A change to the MNA stamp, the Newton loop
//! or the LU kernel that moves one bit or one count fails here.

use pnc_spice::circuits::{NonlinearCircuitParams, PtanhCircuit, SECOND_STAGE_LOAD_OHMS, VDD};
use pnc_spice::sweep::linspace;
use pnc_spice::{
    Circuit, DcSolver, EgtModel, FaultInjection, RecoveryPolicy, RecoveryRung, Solution,
    TransientSolver, GROUND,
};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(digest: u64, word: u64) -> u64 {
    (digest ^ word).wrapping_mul(FNV_PRIME)
}

/// Folds one solution: counts and rung first, then voltages and currents.
fn fold_solution(mut digest: u64, sol: &Solution, num_sources: usize) -> u64 {
    let d = sol.diagnostics();
    for word in [
        d.iterations as u64,
        d.factorizations as u64,
        d.attempts as u64,
        d.rung as u64,
    ] {
        digest = fold(digest, word);
    }
    for v in sol.voltages()[1..].iter() {
        digest = fold(digest, v.to_bits());
    }
    for k in 0..num_sources {
        digest = fold(digest, sol.source_current(k).to_bits());
    }
    digest
}

/// The 61-point Fig. 3 grid and three interior points of it that the fault
/// injection fails on every rung below `min_rung`.
fn faulted_sweep(recovery: RecoveryPolicy, min_rung: RecoveryRung) -> (Vec<Solution>, Vec<f64>) {
    let grid = linspace(0.0, VDD, 61);
    let triggers = vec![grid[15], grid[30], grid[45]];
    let mut ckt = PtanhCircuit::build(&NonlinearCircuitParams::nominal()).expect("builds");
    ckt.set_solver(DcSolver {
        recovery,
        fault_injection: Some(FaultInjection {
            min_successful_rung: Some(min_rung),
            ..FaultInjection::recoverable_at(triggers.clone())
        }),
        ..DcSolver::new()
    });
    let sols = ckt
        .transfer_curve_solutions(&grid)
        .expect("the ladder rescues every triggered point");
    (sols, triggers)
}

fn sweep_digest(sols: &[Solution], rung: RecoveryRung, triggered: usize) -> u64 {
    assert_eq!(
        sols.iter().filter(|s| s.diagnostics().rung == rung).count(),
        triggered,
        "every triggered point is rescued on the expected rung"
    );
    sols.iter()
        .fold(FNV_OFFSET, |digest, sol| fold_solution(digest, sol, 2))
}

const GMIN_RESCUED_DIGEST: u64 = 0x43d2_12d4_4b67_98f2;

#[test]
fn gmin_rescued_sweep_is_bit_identical_to_the_recorded_oracle() {
    let (sols, triggers) = faulted_sweep(RecoveryPolicy::default(), RecoveryRung::GminStepping);
    let digest = sweep_digest(&sols, RecoveryRung::GminStepping, triggers.len());
    assert_eq!(digest, GMIN_RESCUED_DIGEST, "digest {digest:#018x}");
}

const SOURCE_RESCUED_DIGEST: u64 = 0x56e1_2756_7550_bf09;

#[test]
fn source_rescued_sweep_is_bit_identical_to_the_recorded_oracle() {
    let recovery = RecoveryPolicy {
        gmin_steps: 0,
        ..RecoveryPolicy::default()
    };
    let (sols, triggers) = faulted_sweep(recovery, RecoveryRung::SourceStepping);
    let digest = sweep_digest(&sols, RecoveryRung::SourceStepping, triggers.len());
    assert_eq!(digest, SOURCE_RESCUED_DIGEST, "digest {digest:#018x}");
}

/// Gate capacitance per channel area of the `latency` experiment (F/m²).
const GATE_CAP_PER_AREA: f64 = 5e-2;

const TRANSIENT_DIGEST: u64 = 0xddb6_2707_d5e1_83ac;

/// The nominal design of the `latency` experiment: the two-stage ptanh
/// circuit with a capacitor on each EGT gate, stepped from 0.2 to 0.8 V and
/// integrated over 20 time constants at 100 steps per time constant.
#[test]
fn latency_step_response_is_bit_identical_to_the_recorded_oracle() {
    let params = NonlinearCircuitParams::nominal();
    let egt = EgtModel::printed(params.w, params.l);
    let c_gate = GATE_CAP_PER_AREA * params.w * params.l;

    let mut c = Circuit::new();
    let [vdd, vin_node, g1, d1, g2, out] = [(); 6].map(|_| c.new_node());
    c.vsource(vdd, GROUND, VDD).unwrap();
    let vin = c.vsource(vin_node, GROUND, 0.0).unwrap();
    c.resistor(vin_node, g1, params.r1).unwrap();
    c.resistor(g1, GROUND, params.r2).unwrap();
    c.capacitor(g1, GROUND, c_gate).unwrap();
    c.resistor(vdd, d1, params.r5).unwrap();
    c.egt(d1, g1, GROUND, egt).unwrap();
    c.resistor(d1, g2, params.r3).unwrap();
    c.resistor(g2, GROUND, params.r4).unwrap();
    c.capacitor(g2, GROUND, c_gate).unwrap();
    c.resistor(vdd, out, SECOND_STAGE_LOAD_OHMS).unwrap();
    c.egt(out, g2, GROUND, egt).unwrap();

    let tau = params.r3.max(params.r5) * c_gate;
    let wave = TransientSolver::new(tau / 100.0)
        .simulate(&mut c, 20.0 * tau, |t, c| {
            c.set_vsource(vin, if t > 0.0 { 0.8 } else { 0.2 })
        })
        .expect("the step response integrates");
    assert_eq!(wave.solutions.len(), 2001);
    let digest = wave
        .times
        .iter()
        .zip(&wave.solutions)
        .fold(FNV_OFFSET, |digest, (t, sol)| {
            fold_solution(fold(digest, t.to_bits()), sol, 2)
        });
    assert_eq!(digest, TRANSIENT_DIGEST, "digest {digest:#018x}");
}
