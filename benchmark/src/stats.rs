//! Order statistics and the seeded arrival schedule.

/// Fewest samples a tail percentile must leave beyond itself before it is
/// reported; below that, the "percentile" is a single slow sample.
pub const MIN_TAIL_SAMPLES: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
///
/// On an empty sample: every caller measures at least one operation.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile by the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`, so spreads printed here
/// match the ones computed from the result files with that function.
///
/// # Panics
///
/// On an empty sample.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let v = sorted(values);
    if v.len() == 1 {
        return [v[0]; 3];
    }
    let n = v.len() as i64;
    let m = n + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k as i64 + 1;
        // Python clamps j to [1, n - 1] and only then takes delta, so tiny
        // samples extrapolate; replicate that exactly.
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = i * m - j * 4;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        *slot = (lo * (4 - delta) as f64 + hi * delta as f64) / 4.0;
    }
    out
}

/// Nearest-rank `p`-th percentile (0 < p < 100) of a tail: the value at
/// rank `ceil(p/100 · n)`. Refuses (returns `Err`) unless at least
/// [`MIN_TAIL_SAMPLES`] samples lie beyond that rank.
pub fn tail_percentile(values: &[f64], p: f64) -> Result<f64, String> {
    let n = values.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank);
    if rank == 0 || beyond < MIN_TAIL_SAMPLES {
        return Err(format!(
            "p{p} of {n} samples leaves {beyond} beyond it; at least {MIN_TAIL_SAMPLES} are needed"
        ));
    }
    Ok(sorted(values)[rank - 1])
}

/// SplitMix64: a tiny, seedable, well-mixed generator for workload inputs
/// (model/row mix, arrival gaps). Not cryptographic.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }
}

/// Due times (seconds from the start) of a Poisson arrival process at
/// `rate` per second over `[0, seconds)`, drawn from `seed`.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed ^ 0x0a11_4a1e_5eed_0001);
    let mut due = Vec::with_capacity((rate * seconds * 1.1) as usize);
    let mut t = 0.0;
    loop {
        // Inverse-CDF exponential gap; 1 - u is in (0, 1].
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= seconds {
            return due;
        }
        due.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
    }

    #[test]
    fn nearest_rank_tail_percentile() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 90.0), Ok(90.0));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 99.0), Ok(990.0));
        assert_eq!(tail_percentile(&v, 50.0), Ok(500.0));
    }

    #[test]
    fn tail_percentile_refuses_thin_tails() {
        // p90 of 99 samples: rank 90, only 9 beyond it.
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(tail_percentile(&v, 90.0).is_err());
        // p99 of 999 samples: rank 990, 9 beyond.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(tail_percentile(&v, 99.0).is_err());
        assert!(tail_percentile(&[], 50.0).is_err());
    }

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        let a = poisson_schedule(1, 2000.0, 2.0);
        let b = poisson_schedule(1, 2000.0, 2.0);
        let c = poisson_schedule(2, 2000.0, 2.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "due times ascend");
        assert!(a.iter().all(|&t| (0.0..2.0).contains(&t)));
        // 4000 expected arrivals; a Poisson count stays within ±5 %.
        assert!((3800..4200).contains(&a.len()), "{} arrivals", a.len());
    }
}
