//! The experiment runner: every experiment by name, one budget, one report
//! path.

use crate::experiment::{run_table2, Budget, Table2};
use crate::{extensions, figures, summary};
use pnc_surrogate::{artifact_dir, default_surrogate, DesignSpace, SurrogateModel};
use serde::{Serialize, Value};
use std::error::Error;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// The experiments [`run`] knows, in the order the paper presents them
/// (the four extensions last).
pub const EXPERIMENTS: [&str; 10] = [
    "table1",
    "fig2",
    "fig4",
    "fig5",
    "table2",
    "table3",
    "robustness_sweep",
    "aging",
    "ablations",
    "latency",
];

/// A result the runner prints as one markdown table and saves as JSON.
pub(crate) trait Report: Serialize {
    /// The result as one markdown table.
    fn table(&self) -> Markdown;
}

/// One markdown table: a title line, a header row and body rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Markdown {
    /// Caption printed above the table.
    pub title: String,
    /// Column names.
    pub header: Vec<String>,
    /// Body rows, one cell per column.
    pub rows: Vec<Vec<String>>,
}

impl fmt::Display for Markdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let line = |cells: &[String]| format!("| {} |", cells.join(" | "));
        writeln!(f, "{}\n", self.title)?;
        writeln!(f, "{}", line(&self.header))?;
        writeln!(f, "|{}", "---|".repeat(self.header.len()))?;
        for row in &self.rows {
            writeln!(f, "{}", line(row))?;
        }
        Ok(())
    }
}

pub(crate) fn strings<const N: usize>(cells: [&str; N]) -> Vec<String> {
    cells.map(String::from).to_vec()
}

/// The error for a name outside [`EXPERIMENTS`]; it lists the valid names.
pub fn unknown_experiment(name: &str) -> Box<dyn Error> {
    let valid = EXPERIMENTS.join(", ");
    format!("unknown experiment {name:?}; valid names: {valid}").into()
}

/// Rounds every float to 12 significant digits, so a last-bit difference
/// between two platforms' math libraries does not change an artifact.
fn round_floats(v: Value) -> Value {
    match v {
        Value::F64(x) if x.is_finite() => Value::F64(format!("{x:.11e}").parse().unwrap_or(x)),
        Value::Array(items) => Value::Array(items.into_iter().map(round_floats).collect()),
        Value::Object(fields) => Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k, round_floats(v)))
                .collect(),
        ),
        other => other,
    }
}

/// Writes `report` to `path` as pretty-printed JSON, floats rounded to 12
/// significant digits, creating the parent directory if needed.
///
/// # Errors
///
/// Returns I/O failures.
pub fn write_report(path: &Path, report: &impl Serialize) -> Result<(), Box<dyn Error>> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let json = serde_json::to_string_pretty(&round_floats(report.to_value()))?;
    std::fs::write(path, json + "\n")?;
    Ok(())
}

fn surrogate() -> Result<Arc<SurrogateModel>, Box<dyn Error>> {
    Ok(Arc::new(default_surrogate()?))
}

fn save(dir: &Path, name: &str, report: &impl Report) -> Result<Markdown, Box<dyn Error>> {
    write_report(&dir.join(format!("{name}.json")), report)?;
    Ok(report.table())
}

/// Runs the experiment called `name` under `budget`, writes its report to
/// `artifacts/<name>.json` (see [`artifact_dir`]) and returns the report's
/// markdown table. `table3` reads the grid `table2` saved there.
///
/// # Errors
///
/// Returns [`unknown_experiment`] for a name outside [`EXPERIMENTS`],
/// [`Table2Error::Missing`](crate::Table2Error::Missing) when `table3`
/// finds no saved grid, and propagates the experiment's own failures.
pub fn run(name: &str, budget: &Budget) -> Result<Markdown, Box<dyn Error>> {
    let dir = artifact_dir();
    match name {
        "table1" => save(&dir, name, &DesignSpace::paper()),
        "fig2" => save(&dir, name, &figures::fig2()?),
        "fig4" => save(&dir, name, &figures::fig4()?),
        "fig5" => save(&dir, name, &figures::fig5(&default_surrogate()?)?),
        "table2" => {
            let datasets = pnc_datasets::benchmark_suite();
            save(&dir, name, &run_table2(&datasets, surrogate()?, budget)?)
        }
        "table3" => {
            let table2 = Table2::load(&dir.join("table2.json"))?;
            save(&dir, name, &summary::Summary::of(&table2))
        }
        "robustness_sweep" => save(
            &dir,
            name,
            &extensions::robustness_sweep(surrogate()?, budget)?,
        ),
        "aging" => save(&dir, name, &extensions::aging(surrogate()?, budget)?),
        "ablations" => save(&dir, name, &extensions::ablations(surrogate()?, budget)?),
        "latency" => save(&dir, name, &extensions::latency()?),
        _ => Err(unknown_experiment(name)),
    }
}
