//! Fixture: seeded `rayon-confinement` violations and the mentions that
//! must stay quiet. Outside `crates/linalg/src/parallel.rs`, every rayon
//! path and every parallel-iterator combinator is a finding, whatever
//! follows it.

use rayon::prelude::*;

/// Seeded: a reduction chained on a parallel iterator (1 finding).
pub fn parallel_sum(xs: &[f64]) -> f64 {
    xs.par_iter().map(|x| x * 2.0).sum()
}

/// Seeded: the chain is bound, then reduced on a later line (1 finding).
pub fn deferred(xs: &[f64]) -> f64 {
    let chain = xs.par_iter().map(|x| x * 2.0);
    chain.sum()
}

/// Seeded: a captured accumulator mutated inside the chain (1 finding).
pub fn captured(xs: &[f64]) -> f64 {
    let mut total = 0.0;
    xs.par_iter().for_each(|x| {
        total += x;
    });
    total
}

/// Seeded: a collect is ordered, but the chain still bypasses the helper
/// (1 finding).
pub fn collected(xs: &[f64]) -> Vec<f64> {
    xs.into_par_iter().map(|x| x * 2.0).collect()
}

/// Seeded: a rayon path outside the prelude (1 finding).
pub fn joined(a: &[f64], b: &[f64]) -> (f64, f64) {
    rayon::join(|| a.iter().sum(), || b.iter().sum())
}

/// Quiet: the ordered helper, and rayon or par_iter named in a comment or
/// a string.
pub fn ordered(cfg: &ParallelConfig, xs: &[f64]) -> f64 {
    let _doc = "rayon's par_iter";
    cfg.ordered_par_map(xs, |x| x * 2.0).iter().sum()
}

#[cfg(test)]
mod tests {
    // Quiet: test code may use rayon directly.
    #[test]
    fn sums() {
        let xs = [1.0, 2.0];
        let _: f64 = xs.par_iter().sum();
    }
}
