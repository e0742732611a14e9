//! The one hyperbolic tangent of the ML side: the pNN curves (Eq. 2's
//! ptanh, Eq. 3's inverter), the autodiff tape's `tanh` and the surrogate
//! MLP's hidden layers all call [`tanh`], so the compiled plans and the
//! tape stay bit for bit equal by construction.
//!
//! It is plain IEEE arithmetic with no call into the system libm, so its
//! bits are the same on every platform. The ptanh fit (`pnc-fit`) and the
//! transistor model (`pnc-spice`) keep libm `f64::tanh`: their outputs are
//! the recorded SPICE and fit oracles.
//!
//! # Examples
//!
//! ```
//! use pnc_linalg::tanh;
//!
//! assert_eq!(tanh(0.0), 0.0);
//! assert_eq!(tanh(f64::INFINITY), 1.0);
//! assert_eq!(tanh(-0.5), -tanh(0.5));
//! assert!((tanh(0.5) - 0.5f64.tanh()).abs() <= 3.0 * f64::EPSILON);
//! ```

/// `ln 2` split so that `n·LN2_HI` is exact for every `|n| < 2²¹`
/// (fdlibm's Cody–Waite pair).
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
const INV_LN2: f64 = std::f64::consts::LOG2_E;
/// `1.5·2⁵²`: adding it rounds to the nearest integer `n` and leaves `n`
/// in the low bits of the sum.
const ROUND: f64 = 6_755_399_441_055_744.0;
/// `tanh(x)` rounds to 1 for every `x > 19.1`; clamping `|x|` here keeps
/// `2ⁿ` a normal number without a branch.
const CLAMP: f64 = 30.0;

/// Taylor coefficients `1/k!` of `expm1` for `k = 2..=13`, highest first.
const EXPM1_POLY: [f64; 12] = [
    1.0 / 6_227_020_800.0,
    1.0 / 479_001_600.0,
    1.0 / 39_916_800.0,
    1.0 / 3_628_800.0,
    1.0 / 362_880.0,
    1.0 / 40_320.0,
    1.0 / 5_040.0,
    1.0 / 720.0,
    1.0 / 120.0,
    1.0 / 24.0,
    1.0 / 6.0,
    0.5,
];

/// Hyperbolic tangent, within 3 ulp of libm's `f64::tanh` and branch-free.
///
/// Computes `−e/(2 + e)` with `e = expm1(−2|x|)`, then restores the sign.
/// `expm1(y)` reduces `y = n·ln 2 + r` with `|r| ≤ ln 2 / 2` (Cody–Waite),
/// evaluates a degree-13 Taylor polynomial in `r`, and scales by `2ⁿ`
/// built from the bits of the rounding constant.
///
/// Special values map as libm maps them: NaN → NaN, ±∞ → ±1, ±0 → ±0
/// and a subnormal `x` → `x`. The result is exactly odd
/// (`tanh(−x) == −tanh(x)` bit for bit), lies in `[−1, 1]` and does not
/// decrease.
#[inline]
pub fn tanh(x: f64) -> f64 {
    let a = x.abs();
    // A select, not a branch; a NaN fails the comparison and stays NaN.
    let a = if a > CLAMP { CLAMP } else { a };
    let y = -2.0 * a;
    let shifted = y * INV_LN2 + ROUND;
    let kn = shifted - ROUND;
    let r = (y - kn * LN2_HI) - kn * LN2_LO;
    let q = EXPM1_POLY[1..]
        .iter()
        .fold(EXPM1_POLY[0], |q, &c| q * r + c);
    let p = r + (r * r) * q;
    // n ∈ [−87, 0] is the difference of the bits of `shifted` and `ROUND`,
    // so the subtraction wraps through zero; 2ⁿ's biased exponent is
    // n + 1023.
    let biased = shifted
        .to_bits()
        .wrapping_sub(ROUND.to_bits())
        .wrapping_add(1023);
    let scale = f64::from_bits(biased << 52);
    let e = scale * p + (scale - 1.0);
    (-e / (2.0 + e)).copysign(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance in ulp between two finite doubles; ±0 count as one value.
    fn ulps(a: f64, b: f64) -> u64 {
        let ordered = |v: f64| {
            let bits = v.to_bits() as i64;
            if bits < 0 {
                i64::MIN - bits
            } else {
                bits
            }
        };
        ordered(a).abs_diff(ordered(b))
    }

    /// `n + 1` evenly spaced points of `[−25, 25]`.
    fn grid(n: u32) -> impl Iterator<Item = f64> {
        (0..=n).map(move |i| -25.0 + 50.0 * f64::from(i) / f64::from(n))
    }

    /// `n` magnitudes log-uniform in `[2⁻⁶⁰, 2⁹]` with random signs, from a
    /// seeded splitmix64.
    fn log_spaced(n: usize) -> impl Iterator<Item = f64> {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        (0..n).map(move |_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let u = (z >> 11) as f64 / (1u64 << 53) as f64;
            let magnitude = (-60.0 + 69.0 * u).exp2();
            if z & 1 == 0 {
                magnitude
            } else {
                -magnitude
            }
        })
    }

    const SPECIALS: [f64; 14] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        5e-324,
        -5e-324,
        2.2e-308,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        1e-300,
        f64::MAX,
        f64::MIN,
        19.1,
    ];

    #[test]
    fn output_is_pinned() {
        const DIGEST: u64 = 0x33c6_486f_afda_59a3;
        let mut digest = 0xcbf2_9ce4_8422_2325_u64;
        let inputs = grid(20_000).chain(log_spaced(20_000)).chain(SPECIALS);
        for x in inputs {
            let t = tanh(x);
            // NaN payloads are not portable; only NaN-ness is pinned.
            let word = if t.is_nan() { u64::MAX } else { t.to_bits() };
            digest = (digest ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(digest, DIGEST, "digest {digest:#018x}");
    }

    #[test]
    fn stays_within_3_ulp_of_libm() {
        for x in grid(2_000_000).chain(log_spaced(1_000_000)) {
            let (ours, libm) = (tanh(x), x.tanh());
            assert!(
                ulps(ours, libm) <= 3,
                "tanh({x:e}) = {ours:e}, libm {libm:e}"
            );
        }
    }

    #[test]
    fn special_values_map_as_libm_maps_them() {
        assert!(tanh(f64::NAN).is_nan());
        assert!(tanh(-f64::NAN).is_nan());
        assert_eq!(tanh(f64::INFINITY), 1.0);
        assert_eq!(tanh(f64::NEG_INFINITY), -1.0);
        assert_eq!(tanh(f64::MAX), 1.0);
        assert_eq!(tanh(f64::MIN), -1.0);
        for x in [
            0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e-300, -1e-200,
        ] {
            assert_eq!(tanh(x).to_bits(), x.to_bits(), "tanh({x:e})");
            assert_eq!(tanh(x).to_bits(), x.tanh().to_bits(), "libm at {x:e}");
        }
    }

    #[test]
    fn is_odd_bounded_and_non_decreasing() {
        let mut previous = -1.0;
        for x in grid(2_000_000) {
            let t = tanh(x);
            assert_eq!(tanh(-x).to_bits(), (-t).to_bits(), "odd at {x:e}");
            assert!(t.abs() <= 1.0, "bounded at {x:e}");
            assert!(t >= previous, "non-decreasing at {x:e}");
            previous = t;
        }
        for x in log_spaced(1_000_000) {
            assert_eq!(tanh(-x).to_bits(), (-tanh(x)).to_bits(), "odd at {x:e}");
        }
    }
}
