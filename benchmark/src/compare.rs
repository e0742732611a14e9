//! `compare <parent-dir> <change-dir>`: two sets of untraced result files,
//! side by side. For every workload and end-to-end metric it prints each
//! side's median and quartiles and a verdict, and exits non-zero when any
//! metric got worse by more than its bound.

use crate::spec::{Better, EndToEnd, END_TO_END};
use crate::stats::quartiles;
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    /// The run-to-run spread is wider than the bound, so the sides cannot
    /// be told apart unless every run of one beats every run of the other.
    Unresolved,
}

/// `workload → metric → values`, one value per run.
type ResultSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        _ => None,
    }
}

fn load(dir: &Path) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if !name.ends_with(".json") || name.ends_with("-trace.json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let run: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let (Some(Value::Str(workload)), Some(Value::Object(metrics))) =
            (field(&run, "workload"), field(&run, "metrics"))
        else {
            return Err(format!("{} is not a benchmark result", path.display()));
        };
        let per_metric = set.entry(workload.clone()).or_default();
        for (metric, reading) in metrics {
            if let Some(x) = field(reading, "value").and_then(as_f64) {
                per_metric.entry(metric.clone()).or_default().push(x);
            }
        }
    }
    Ok(set)
}

/// How much worse `x` is than `base`, as a share of `base` (negative when
/// better).
fn worse_by(metric: &EndToEnd, base: f64, x: f64) -> f64 {
    let diff = match metric.better {
        Better::Lower => x - base,
        Better::Higher => base - x,
    };
    if base == 0.0 {
        diff
    } else {
        diff / base.abs()
    }
}

fn spread(values: &[f64]) -> f64 {
    let [q1, median, q3] = quartiles(values);
    if median == 0.0 {
        q3 - q1
    } else {
        (q3 - q1) / median.abs()
    }
}

/// The verdict on `change` against `parent`:
/// worse beyond the bound is a regression; a better median counts only
/// beyond the parent's own spread; a spread wider than the bound leaves
/// the metric unresolved unless every run of one side beats every run of
/// the other.
pub fn verdict(metric: &EndToEnd, parent: &[f64], change: &[f64]) -> Verdict {
    let base = quartiles(parent)[1];
    let moved = worse_by(metric, base, quartiles(change)[1]);
    let beats = |a: f64, b: f64| worse_by(metric, b, a) < 0.0;
    if spread(parent).max(spread(change)) > metric.bound {
        let all = |a: &[f64], b: &[f64]| a.iter().all(|&x| b.iter().all(|&y| beats(x, y)));
        return if all(change, parent) {
            Verdict::Better
        } else if all(parent, change) && moved > metric.bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if moved > metric.bound {
        Verdict::Worse
    } else if -moved > spread(parent) {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

fn show(values: &[f64]) -> String {
    let [q1, m, q3] = quartiles(values);
    format!("{m:.6} [{q1:.6}, {q3:.6}] n={}", values.len())
}

pub fn main(args: &[String]) -> ExitCode {
    let [parent, change] = args else {
        eprintln!("usage: compare <parent-results-dir> <change-results-dir>");
        return ExitCode::from(2);
    };
    let (parent, change) = match (load(Path::new(parent)), load(Path::new(change))) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut regressions = 0;
    println!(
        "workload metric unit better bound | parent median [q1, q3] | change median [q1, q3] | verdict"
    );
    for (workload, parent_metrics) in &parent {
        let Some(change_metrics) = change.get(workload) else {
            println!("{workload}: no change runs");
            continue;
        };
        for metric in &END_TO_END {
            let (Some(p), Some(c)) = (
                parent_metrics.get(metric.name),
                change_metrics.get(metric.name),
            ) else {
                continue;
            };
            let v = verdict(metric, p, c);
            regressions += usize::from(v == Verdict::Worse);
            println!(
                "{workload} {} {} {} {} | {} | {} | {v:?}",
                metric.name,
                metric.unit,
                metric.better.name(),
                metric.bound,
                show(p),
                show(c)
            );
        }
    }
    if regressions > 0 {
        eprintln!("{regressions} metric(s) regressed beyond their bound");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY: EndToEnd = EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.1,
    };
    const THROUGHPUT: EndToEnd = EndToEnd {
        name: "throughput",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.1,
    };

    fn around(center: f64) -> Vec<f64> {
        [
            -0.01, 0.0, 0.01, -0.005, 0.005, 0.0, 0.002, -0.002, 0.0, 0.001,
        ]
        .iter()
        .map(|d| center * (1.0 + d))
        .collect()
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let parent = around(100.0);
        assert_eq!(
            verdict(&LATENCY, &parent, &around(100.5)),
            Verdict::Unchanged
        );
        assert_eq!(verdict(&LATENCY, &parent, &around(115.0)), Verdict::Worse);
        assert_eq!(verdict(&LATENCY, &parent, &around(90.0)), Verdict::Better);
        assert_eq!(verdict(&THROUGHPUT, &parent, &around(85.0)), Verdict::Worse);
        assert_eq!(
            verdict(&THROUGHPUT, &parent, &around(115.0)),
            Verdict::Better
        );
        // Within the bound but outside the parent's spread: a real, small
        // gain.
        assert_eq!(verdict(&LATENCY, &parent, &around(95.0)), Verdict::Better);
        assert_eq!(
            verdict(&LATENCY, &parent, &around(105.0)),
            Verdict::Unchanged
        );
    }

    #[test]
    fn wide_spreads_are_unresolved_unless_every_run_wins() {
        let noisy: Vec<f64> = [
            60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ]
        .to_vec();
        assert_eq!(
            verdict(&LATENCY, &noisy, &around(100.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&LATENCY, &noisy, &around(130.0)),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&LATENCY, &noisy, &around(200.0)), Verdict::Worse);
        assert_eq!(verdict(&LATENCY, &noisy, &around(50.0)), Verdict::Better);
    }
}
