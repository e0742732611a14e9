//! Uncertainty-driven active sampling for the streaming dataset builder.
//!
//! SPICE solves dominate the characterization budget, so once a few chunks
//! exist the builder can afford to be choosy: train a small committee of
//! surrogate networks on what has been characterized so far, score a pool of
//! candidate ω draws by how much the committee members *disagree*, and spend
//! the next chunk's solves where the surrogate is most uncertain (classic
//! query-by-committee). Everything is seeded from the store's base seed and
//! the chunk index, so an active build is deterministic and — because the
//! committee is retrained from the committed prefix — a resumed build picks
//! the exact same points an uninterrupted one would.
//!
//! Each chunk mixes exploration and exploitation: a fixed fraction of the
//! points are plain uniform draws from the candidate stream (so coverage
//! never collapses onto one region), the rest are the top-disagreement
//! candidates.

use crate::{
    DatasetEntry, DesignSpace, EtaBounds, EtaBoundsAccumulator, Mlp, SurrogateError, OMEGA_DIM,
};
use pnc_autodiff::{Adam, GradStore, Graph, Optimizer};
use pnc_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Committee and candidate-pool knobs of active sampling. The defaults are
/// deliberately small: the committee must cost a negligible fraction of the
/// SPICE solves it is steering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActiveConfig {
    /// Committee members (independent seeds and leave-out folds).
    pub committee: usize,
    /// Candidate pool size, as a multiple of the chunk size.
    pub candidate_factor: usize,
    /// Adam epochs per member per chunk.
    pub epochs: usize,
    /// Adam learning rate for committee training.
    pub learning_rate: f64,
    /// Cap on the training subsample the committee sees (the reservoir the
    /// builder maintains; bounds committee cost and memory independently of
    /// the total build size).
    pub reservoir: usize,
    /// Fraction of each chunk drawn uniformly instead of by disagreement
    /// (exploration floor, in `[0, 1]`).
    pub explore_fraction: f64,
}

impl Default for ActiveConfig {
    fn default() -> Self {
        ActiveConfig {
            committee: 4,
            candidate_factor: 8,
            epochs: 160,
            learning_rate: 1e-2,
            reservoir: 1536,
            explore_fraction: 0.25,
        }
    }
}

/// Hidden architecture of committee members: much smaller than the paper's
/// 13-layer surrogate — they only need to rank candidates, not deploy.
const COMMITTEE_SIZES: [usize; 4] = [crate::EXTENDED_DIM, 16, 12, 4];

/// SplitMix64 — the deterministic seed schedule of the streaming pipeline.
/// Per-chunk and per-member seeds are derived from the base seed through
/// this mix so that no two consumers share an RNG stream.
pub(crate) fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic bounded subsample of the entries characterized so far —
/// the committee's training set. Keeps entries whose global index is a
/// multiple of a stride that doubles whenever the reservoir overflows, so
/// membership depends only on the entry sequence (never on chunking or
/// timing) and a resumed build rebuilds it exactly by replaying the
/// committed chunks.
#[derive(Debug, Clone)]
pub struct Reservoir {
    cap: usize,
    stride: u64,
    kept: Vec<(u64, DatasetEntry)>,
}

impl Reservoir {
    /// An empty reservoir holding at most `cap` entries (`cap >= 2`).
    pub fn new(cap: usize) -> Self {
        Reservoir {
            cap: cap.max(2),
            stride: 1,
            kept: Vec::new(),
        }
    }

    /// Offers one characterized entry; keeps it if its global index lands on
    /// the current stride.
    pub fn offer(&mut self, global_index: u64, entry: &DatasetEntry) {
        if !global_index.is_multiple_of(self.stride) {
            return;
        }
        self.kept.push((global_index, *entry));
        if self.kept.len() >= self.cap {
            self.stride = self.stride.saturating_mul(2);
            let stride = self.stride;
            self.kept.retain(|(idx, _)| idx % stride == 0);
        }
    }

    /// The retained entries, in arrival (global-index) order.
    pub fn entries(&self) -> impl Iterator<Item = &DatasetEntry> {
        self.kept.iter().map(|(_, e)| e)
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.kept.len()
    }

    /// Whether nothing has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.kept.is_empty()
    }
}

/// A trained query-by-committee ensemble: score candidates by prediction
/// variance in normalized η space.
pub struct Committee {
    members: Vec<Mlp>,
    space: DesignSpace,
    bounds: EtaBounds,
}

impl Committee {
    /// Trains `config.committee` members on the reservoir. Members differ by
    /// weight seed **and** by a leave-one-fold-out slice of the data, so
    /// their disagreement reflects genuine epistemic uncertainty rather than
    /// just init noise.
    ///
    /// Returns `None` (not an error) when the reservoir is too small or its
    /// η bounds are still degenerate — the caller falls back to uniform
    /// draws for that chunk.
    ///
    /// # Errors
    ///
    /// Propagates autodiff failures from training (shape bugs, not data
    /// conditions).
    pub fn train(
        space: &DesignSpace,
        reservoir: &Reservoir,
        config: &ActiveConfig,
        seed: u64,
    ) -> Result<Option<Self>, SurrogateError> {
        let k = config.committee.max(2);
        if reservoir.len() < 4 * k {
            return Ok(None);
        }
        let mut acc = EtaBoundsAccumulator::new();
        for e in reservoir.entries() {
            acc.observe(&e.eta)?;
        }
        let bounds = match acc.finish() {
            Ok(b) => b,
            // Degenerate η over the prefix: nothing to rank yet.
            Err(SurrogateError::DegenerateEta { .. }) => return Ok(None),
            Err(e) => return Err(e),
        };

        let entries: Vec<&DatasetEntry> = reservoir.entries().collect();
        let mut members = Vec::with_capacity(k);
        let mut grads = GradStore::new();
        let mut g = Graph::new();
        for member in 0..k {
            // Fold `member` is left out of this member's training slice.
            let fold: Vec<&DatasetEntry> = entries
                .iter()
                .enumerate()
                .filter(|(i, _)| i % k != member)
                .map(|(_, e)| *e)
                .collect();
            let x = Matrix::from_fn(fold.len(), crate::EXTENDED_DIM, |i, j| {
                space.normalize_omega(&fold[i].omega)[j]
            });
            let y = Matrix::from_fn(fold.len(), 4, |i, j| bounds.normalize(&fold[i].eta)[j]);

            let member_seed =
                splitmix64(seed ^ (member as u64).wrapping_mul(0x517c_c1b7_2722_0a95));
            let mut mlp = Mlp::new(&COMMITTEE_SIZES, member_seed);
            let mut opt = Adam::new(config.learning_rate);
            for _ in 0..config.epochs {
                g.reset();
                let xv = g.constant(&x);
                let tv = g.constant(&y);
                let (pred, vars) = mlp.forward_train(&mut g, xv)?;
                let diff = g.sub(pred, tv)?;
                let sq = g.powi(diff, 2);
                let loss = g.mean(sq);
                g.backward_into(loss, &mut grads)?;
                let mut params = mlp.parameters_mut();
                opt.step(&mut params, &vars, &grads);
            }
            members.push(mlp);
        }
        Ok(Some(Committee {
            members,
            space: space.clone(),
            bounds,
        }))
    }

    /// The committee's disagreement on one candidate: per-component variance
    /// of the members' predictions in normalized η space, summed over the
    /// four components. Higher means the surrogate is less sure.
    pub fn disagreement(&self, omega: &[f64; OMEGA_DIM]) -> f64 {
        let norm = self.space.normalize_omega(omega);
        let mut preds: Vec<Vec<f64>> = Vec::with_capacity(self.members.len());
        for m in &self.members {
            preds.push(m.predict(&norm));
        }
        let k = preds.len() as f64;
        let mut score = 0.0;
        for j in 0..4 {
            let mean: f64 = preds.iter().map(|p| p[j]).sum::<f64>() / k;
            let var: f64 = preds.iter().map(|p| (p[j] - mean).powi(2)).sum::<f64>() / k;
            score += var;
        }
        score
    }

    /// The η bounds the committee was trained against (for diagnostics).
    pub fn bounds(&self) -> &EtaBounds {
        &self.bounds
    }
}

/// Draws `n` feasible points uniformly from the box with the given RNG —
/// the active path's candidate generator and its exploration/fallback
/// stream. (Plain uniform, not Sobol': the batch-oracle Sobol' sequence is
/// reserved for `SamplingMode::Uniform` so its bit-identity stays intact.)
///
/// # Errors
///
/// Returns [`SurrogateError::BadDataset`] if rejection cannot find `n`
/// feasible points within a generous cap.
pub(crate) fn draw_uniform(
    space: &DesignSpace,
    rng: &mut StdRng,
    n: usize,
) -> Result<Vec<[f64; OMEGA_DIM]>, SurrogateError> {
    let mut out = Vec::with_capacity(n);
    let mut attempts = 0usize;
    let max_attempts = 100 * n.max(64);
    while out.len() < n && attempts < max_attempts {
        attempts += 1;
        let mut omega = [0.0; OMEGA_DIM];
        for (k, w) in omega.iter_mut().enumerate() {
            *w = rng.gen_range(space.lo[k]..space.hi[k]);
        }
        if omega[1] < omega[0] && omega[3] < omega[2] {
            out.push(omega);
        }
    }
    if out.len() < n {
        return Err(SurrogateError::BadDataset {
            detail: format!("could only draw {} of {n} feasible candidates", out.len()),
        });
    }
    Ok(out)
}

/// Squared Euclidean distance in normalized (ratio-augmented) ω space —
/// the diversity metric of [`select_chunk`].
fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Picks the next chunk's `chunk_points` design points: an exploration slice
/// of uniform draws plus a greedy diversity-aware sweep over a pool of
/// `candidate_factor × chunk_points` uniform draws. Each exploitation pick
/// maximizes `disagreement × min-distance-to-already-chosen` (in normalized
/// ω space), so high-uncertainty picks cannot collapse onto one region — a
/// plain top-k by disagreement clusters at the committee's worst corner and
/// loses to Sobol' coverage on global RMSE. Fully deterministic in
/// `chunk_seed`; ties break toward the earlier candidate.
///
/// Returns the chosen points and the mean disagreement over the pool (the
/// `surrogate.stream.disagreement` observable).
///
/// # Errors
///
/// Propagates candidate-draw failures.
pub(crate) fn select_chunk(
    committee: &Committee,
    space: &DesignSpace,
    chunk_points: usize,
    config: &ActiveConfig,
    chunk_seed: u64,
) -> Result<(Vec<[f64; OMEGA_DIM]>, f64), SurrogateError> {
    let mut rng = StdRng::seed_from_u64(chunk_seed);
    let pool = draw_uniform(
        space,
        &mut rng,
        chunk_points * config.candidate_factor.max(2),
    )?;

    let explore = ((chunk_points as f64) * config.explore_fraction.clamp(0.0, 1.0))
        .round()
        .min(chunk_points as f64) as usize;
    let exploit = chunk_points - explore;

    // The first `explore` pool points are taken as-is (they are themselves
    // uniform draws); the rest of the pool competes on disagreement.
    let mut chosen: Vec<[f64; OMEGA_DIM]> = pool.iter().take(explore).copied().collect();
    let mut chosen_norm: Vec<[f64; crate::EXTENDED_DIM]> =
        chosen.iter().map(|o| space.normalize_omega(o)).collect();

    let rest = pool.get(explore..).unwrap_or(&[]);
    // (candidate, normalized candidate, disagreement, min dist² to chosen).
    struct Candidate {
        omega: [f64; OMEGA_DIM],
        norm: [f64; crate::EXTENDED_DIM],
        disagreement: f64,
        min_dist_sq: f64,
    }
    let mut candidates: Vec<Candidate> = rest
        .iter()
        .map(|omega| {
            let norm = space.normalize_omega(omega);
            let min_dist_sq = chosen_norm
                .iter()
                .map(|c| dist_sq(&norm, c))
                .fold(f64::INFINITY, f64::min);
            Candidate {
                omega: *omega,
                disagreement: committee.disagreement(omega),
                norm,
                min_dist_sq,
            }
        })
        .collect();
    let mean_disagreement = if candidates.is_empty() {
        0.0
    } else {
        candidates.iter().map(|c| c.disagreement).sum::<f64>() / candidates.len() as f64
    };

    for _ in 0..exploit {
        // Greedy argmax of disagreement × min-distance; the very first pick
        // of an exploration-free chunk has no chosen points yet, so its
        // distance factor is neutral (∞ min-distance clamps to 1).
        let best = candidates
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let spread = if c.min_dist_sq.is_finite() {
                    c.min_dist_sq.sqrt()
                } else {
                    1.0
                };
                (i, c.disagreement * spread)
            })
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i);
        let Some(best) = best else { break };
        let picked = candidates.swap_remove(best);
        for c in &mut candidates {
            c.min_dist_sq = c.min_dist_sq.min(dist_sq(&c.norm, &picked.norm));
        }
        chosen_norm.push(picked.norm);
        chosen.push(picked.omega);
    }
    if chosen.len() != chunk_points {
        return Err(SurrogateError::BadDataset {
            detail: format!(
                "active selection produced {} of {chunk_points} points",
                chosen.len()
            ),
        });
    }
    Ok((chosen, mean_disagreement))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth_entry(i: u64) -> DatasetEntry {
        // A smooth synthetic ω → η map over the paper box; cheap enough to
        // build large reservoirs without SPICE.
        let space = DesignSpace::paper();
        let t = (i as f64) / 97.0;
        let mut omega = [0.0; OMEGA_DIM];
        for (k, w) in omega.iter_mut().enumerate() {
            let u = ((t * (k as f64 + 1.3)).sin() * 0.5 + 0.5).clamp(0.01, 0.99);
            *w = space.lo[k] + u * (space.hi[k] - space.lo[k]);
        }
        // Keep the divider constraints satisfied.
        omega[1] = omega[1].min(omega[0] * 0.9);
        omega[3] = omega[3].min(omega[2] * 0.9);
        let n = space.normalize_omega(&omega);
        DatasetEntry {
            omega,
            eta: [
                n[0] + 0.3 * n[7],
                (n[2] * 2.0).sin() * 0.5 + 1.0,
                n[9] * 0.8 + 0.1,
                n[4] * n[5] + 0.2,
            ],
            fit_rmse: 1e-3,
        }
    }

    #[test]
    fn reservoir_is_bounded_and_deterministic() {
        let mut a = Reservoir::new(64);
        let mut b = Reservoir::new(64);
        for i in 0..1000u64 {
            a.offer(i, &synth_entry(i));
        }
        for i in 0..1000u64 {
            b.offer(i, &synth_entry(i));
        }
        assert!(a.len() < 64, "reservoir overflowed: {}", a.len());
        assert!(a.len() >= 16, "reservoir too aggressive: {}", a.len());
        let av: Vec<_> = a.entries().collect();
        let bv: Vec<_> = b.entries().collect();
        assert_eq!(av, bv);
    }

    #[test]
    fn committee_trains_and_selection_is_deterministic() {
        let space = DesignSpace::paper();
        let mut res = Reservoir::new(512);
        for i in 0..200u64 {
            res.offer(i, &synth_entry(i));
        }
        let config = ActiveConfig {
            epochs: 40,
            ..ActiveConfig::default()
        };
        let committee = Committee::train(&space, &res, &config, 42)
            .unwrap()
            .expect("reservoir is large enough");
        let (a, da) = select_chunk(&committee, &space, 32, &config, 7).unwrap();
        let (b, db) = select_chunk(&committee, &space, 32, &config, 7).unwrap();
        assert_eq!(a, b);
        assert_eq!(da.to_bits(), db.to_bits());
        assert_eq!(a.len(), 32);
        for omega in &a {
            assert!(space.contains(omega), "infeasible pick {omega:?}");
        }
        // A different chunk seed must explore a different pool.
        let (c, _) = select_chunk(&committee, &space, 32, &config, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn too_small_reservoir_falls_back_to_none() {
        let space = DesignSpace::paper();
        let mut res = Reservoir::new(512);
        for i in 0..5u64 {
            res.offer(i, &synth_entry(i));
        }
        let got = Committee::train(&space, &res, &ActiveConfig::default(), 0).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn constant_eta_prefix_falls_back_to_none() {
        let space = DesignSpace::paper();
        let mut res = Reservoir::new(512);
        for i in 0..64u64 {
            let mut e = synth_entry(i);
            e.eta = [0.5, 0.5, 0.5, 0.5];
            res.offer(i, &e);
        }
        let got = Committee::train(&space, &res, &ActiveConfig::default(), 0).unwrap();
        assert!(got.is_none(), "degenerate η must not be an error here");
    }
}
