//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call into a
//! layer: name, start, end and the enclosing span. They stay in memory and
//! are written out when the run ends. A span's *self time* is its duration
//! minus the part of it that its child spans cover, so the self times of a
//! tree sum to the duration of its root.

use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl SpanRecord {
    fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that records nothing: the untraced run goes through the
    /// same code with spans switched off.
    pub fn disabled() -> Self {
        Recorder {
            enabled: false,
            ..Recorder::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRecord {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRecord::seconds)
            .collect()
    }

    /// Summed duration in seconds of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Summed duration in seconds of the spans no other span encloses: the
    /// traced total the self times add up to.
    pub fn root_total(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(SpanRecord::seconds)
            .sum()
    }

    /// Self time of every span in seconds: its duration minus the union of
    /// its children's intervals, clipped to its own.
    pub fn self_seconds(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(me, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = me.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(me.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                me.seconds() - covered as f64 * 1e-9
            })
            .collect()
    }

    /// Self time in seconds summed per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_seconds()) {
            *out.entry(span.name).or_insert(0.0) += own;
        }
        out
    }

    /// Every span as `[name, start_ns, end_ns, parent]`, for the run's
    /// trace file.
    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    Value::Array(vec![
                        Value::Str(s.name.to_string()),
                        Value::U64(s.start_ns),
                        Value::U64(s.end_ns),
                        s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> SpanRecord {
        SpanRecord {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    fn recorder(spans: Vec<SpanRecord>) -> Recorder {
        Recorder {
            spans,
            ..Recorder::new()
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root 0..100 ns; a 10..40 with grandchild 20..30; b 50..90.
        let r = recorder(vec![
            at("root", 0, 100, None),
            at("a", 10, 40, Some(0)),
            at("leaf", 20, 30, Some(1)),
            at("b", 50, 90, Some(0)),
        ]);
        let own = r.self_seconds();
        for (got, want) in own.iter().zip([30e-9, 20e-9, 10e-9, 40e-9]) {
            assert!((got - want).abs() < 1e-15, "{own:?}");
        }
        let by_name: f64 = r.self_time_by_name().values().sum();
        assert!(
            (by_name - 100e-9).abs() < 1e-15,
            "self times sum to the root"
        );
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let r = recorder(vec![
            at("root", 0, 100, None),
            at("a", 10, 60, Some(0)),
            at("b", 40, 120, Some(0)),
        ]);
        // Children cover 10..100 of the root once: self time 10 ns.
        assert!((r.self_seconds()[0] - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn recorded_spans_nest_and_account_for_the_root() {
        let mut r = Recorder::new();
        r.span("root", |r| {
            r.span("child", |r| r.span("leaf", |_| std::hint::black_box(1 + 1)));
            r.span("child", |_| ());
        });
        let names: Vec<_> = r.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [
                ("root", None),
                ("child", Some(0)),
                ("leaf", Some(1)),
                ("child", Some(0))
            ]
        );
        let sum: f64 = r.self_time_by_name().values().sum();
        assert!((sum - r.root_total()).abs() < 1e-12);
        assert!((r.root_total() - r.total("root")).abs() < 1e-12);
        assert_eq!(r.durations("child").len(), 2);

        let mut off = Recorder::disabled();
        assert_eq!(off.span("root", |r| r.span("child", |_| 3)), 3);
        assert!(off.spans().is_empty());
    }
}
