//! Golden pin of the ptanh extraction: FNV-1a-64 over the `to_bits()` of
//! every fit's η, RMSE and convergence flag, plus the exact Levenberg–
//! Marquardt work (`fit.lm.*` counter deltas) spent on them.
//!
//! The inputs are the curves the surrogate pipeline actually fits — the
//! first 64 `DesignSpace::paper()` Sobol' points, simulated on 61-point DC
//! sweeps — and hand-made curves: a flat curve at the anchor prior's level,
//! whose primary start converges, so the fit stops after one LM run, then
//! the curves of `pnc-fit`'s unit tests: exact rising, saturated falling,
//! flat, half-visible, and a rising curve shifted by a constant offset of
//! −2.5 mV (its hash-based "noise" term is −0.0025 V to within 7e-11 for
//! every sample).
//!
//! Any change to the fit's arithmetic, starts, priors or stopping rules moves
//! the digest or the counts; a deliberate numeric change must re-record them
//! and say why. This binary holds one test so that no other test shares the
//! process-global counters.

use pnc_fit::{fit_ptanh, Ptanh};
use pnc_spice::circuits::{NonlinearCircuitParams, PtanhCircuit, VDD};
use pnc_spice::sweep::linspace;
use pnc_surrogate::DesignSpace;

const FIT_FNV: u64 = 0x3525_4913_0798_29ba;

/// `fit.lm.{runs, iterations, lambda_escalations, nonconverged}` over the
/// whole set.
const LM_WORK: [u64; 4] = [79, 837, 438, 9];

const LM_COUNTERS: [&str; 4] = [
    "fit.lm.runs",
    "fit.lm.iterations",
    "fit.lm.lambda_escalations",
    "fit.lm.nonconverged",
];

fn fnv1a64(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn lm_work() -> [u64; 4] {
    let snap = pnc_obs::snapshot();
    LM_COUNTERS.map(|name| snap.counter(name).unwrap_or(0))
}

fn samples(curve: &Ptanh, n: usize) -> Vec<(f64, f64)> {
    (0..n)
        .map(|i| {
            let x = i as f64 / (n - 1) as f64;
            (x, curve.eval(x))
        })
        .collect()
}

/// The hand-made curves, the one-run one first.
fn hand_made_curves() -> Vec<Vec<(f64, f64)>> {
    let offset_truth = Ptanh {
        eta: [0.5, 0.4, 0.5, 6.0],
    };
    let offset = (0..100)
        .map(|i| {
            let x = i as f64 / 99.0;
            // For i < 100 this is −0.0025 V plus at most 7e-11: an offset.
            let shift = 0.005 * ((i * 2654435761_usize) as f64 / usize::MAX as f64 - 0.5);
            (x, offset_truth.eval(x) + shift)
        })
        .collect();
    vec![
        (0..50).map(|i| (i as f64 / 49.0, 0.5)).collect(),
        samples(
            &Ptanh {
                eta: [0.5, 0.4, 0.55, 9.0],
            },
            80,
        ),
        samples(
            &Ptanh {
                eta: [0.5, -0.35, 0.4, 12.0],
            },
            80,
        ),
        (0..50).map(|i| (i as f64 / 49.0, 0.81)).collect(),
        samples(
            &Ptanh {
                eta: [0.5, 0.45, -0.2, 4.0],
            },
            60,
        ),
        offset,
    ]
}

/// The first 64 paper design points, each swept at 61 points.
fn spice_curves() -> Vec<Vec<(f64, f64)>> {
    let grid = linspace(0.0, VDD, 61);
    DesignSpace::paper()
        .sample(64)
        .expect("the Sobol' stream draws")
        .into_iter()
        .map(|omega| {
            let params = NonlinearCircuitParams::from_array(omega);
            PtanhCircuit::build(&params)
                .and_then(|mut circuit| circuit.transfer_curve(&grid))
                .expect("every pinned design point simulates")
        })
        .collect()
}

fn digest_fit(hash: u64, points: &[(f64, f64)]) -> u64 {
    let fit = fit_ptanh(points).expect("every pinned curve fits");
    let hash = fit
        .curve
        .eta
        .iter()
        .chain([&fit.rmse])
        .fold(hash, |h, v| fnv1a64(h, &v.to_bits().to_le_bytes()));
    fnv1a64(hash, &[u8::from(fit.converged)])
}

#[test]
fn ptanh_fits_and_their_lm_work_are_pinned() {
    let spice = spice_curves();
    let hand = hand_made_curves();

    let before = lm_work();
    let mut hash = 0xcbf2_9ce4_8422_2325;
    hash = digest_fit(hash, &hand[0]);
    let first_curve_runs = lm_work()[0] - before[0];
    for curve in hand[1..].iter().chain(&spice) {
        hash = digest_fit(hash, curve);
    }
    let after = lm_work();
    let work: [u64; 4] = std::array::from_fn(|k| after[k] - before[k]);

    assert_eq!(
        first_curve_runs, 1,
        "the flat curve at the prior level stops at its converged primary start"
    );
    assert_eq!(hash, FIT_FNV, "fit digest: {hash:#018x}");
    assert_eq!(work, LM_WORK, "LM work {LM_COUNTERS:?}");
}
