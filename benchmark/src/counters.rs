//! `pnc-obs` deltas over a window of the run: exact counts of the work the
//! libraries did, read from outside through their published metrics.

use pnc_obs::MetricsSnapshot;

pub struct Window {
    before: MetricsSnapshot,
}

pub struct Delta {
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

impl Window {
    pub fn open() -> Window {
        Window {
            before: pnc_obs::snapshot(),
        }
    }

    pub fn close(self) -> Delta {
        Delta {
            before: self.before,
            after: pnc_obs::snapshot(),
        }
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Width of one `pnc-obs` histogram bucket: 4 buckets per decade.
const BUCKET_RATIO: f64 = 1.778_279_410_038_923; // 10^(1/4)

impl Delta {
    pub fn counter(&self, name: &str) -> f64 {
        let at = |s: &MetricsSnapshot| s.counter(name).unwrap_or(0);
        at(&self.after).saturating_sub(at(&self.before)) as f64
    }

    /// Observations added to histogram `name` in the window, as
    /// `(bucket midpoint, count)` in ascending order. A bucket stands for
    /// the geometric middle of its range; the non-positive and overflow
    /// buckets (no upper bound) are dropped.
    fn histogram(&self, name: &str) -> Vec<(f64, u64)> {
        let buckets = |s: &MetricsSnapshot| {
            s.histogram(name)
                .map(|h| h.buckets.clone())
                .unwrap_or_default()
        };
        let before = buckets(&self.before);
        buckets(&self.after)
            .into_iter()
            .filter_map(|(bound, n)| {
                let upper = bound?;
                let had = before
                    .iter()
                    .find(|(b, _)| *b == bound)
                    .map_or(0, |(_, m)| *m);
                let added = n.saturating_sub(had);
                (added > 0).then_some((upper / BUCKET_RATIO.sqrt(), added))
            })
            .collect()
    }

    /// Mean of the window's observations, to bucket resolution.
    pub fn histogram_mean(&self, name: &str) -> f64 {
        let h = self.histogram(name);
        let n: u64 = h.iter().map(|(_, c)| c).sum();
        ratio(h.iter().map(|(m, c)| m * *c as f64).sum(), n as f64)
    }

    /// Nearest-rank quantile `q` of the window's observations, to bucket
    /// resolution.
    pub fn histogram_quantile(&self, name: &str, q: f64) -> f64 {
        let h = self.histogram(name);
        let n: u64 = h.iter().map(|(_, c)| c).sum();
        let rank = ((q * n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (mid, count) in h {
            seen += count;
            if seen >= rank {
                return mid;
            }
        }
        0.0
    }
}
