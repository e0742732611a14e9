//! RAII wall-clock span timers.

use std::time::Instant;

use crate::metrics::Histogram;

/// An RAII timer: records the elapsed wall-clock time (in seconds) into a
/// [`Histogram`] when dropped.
///
/// Wall time is inherently nondeterministic, so duration histograms are
/// **excluded** from the bit-identical determinism contract — only their
/// observation `count` is deterministic. See `DESIGN.md` §9.
///
/// # Examples
///
/// ```
/// use pnc_obs::{Histogram, Span};
///
/// static BUILD_SECONDS: Histogram = Histogram::new("doc.build_seconds");
///
/// {
///     let _span = Span::new(&BUILD_SECONDS);
///     // ... timed work ...
/// } // drop records the elapsed seconds
/// assert_eq!(pnc_obs::snapshot().histogram("doc.build_seconds").unwrap().count, 1);
/// ```
#[must_use = "a Span records its duration on drop; binding it to `_` drops it immediately"]
pub struct Span {
    histogram: &'static Histogram,
    start: Instant,
}

impl Span {
    /// Starts a span that records into `histogram` on drop.
    pub fn new(histogram: &'static Histogram) -> Self {
        Span {
            histogram,
            start: Instant::now(),
        }
    }

    /// Seconds elapsed since the span started (without ending it).
    pub fn elapsed_seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.histogram.observe(self.elapsed_seconds());
    }
}
