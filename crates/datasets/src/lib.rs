//! The 13 benchmark classification datasets of the paper's evaluation
//! (Tab. II), reconstructed for an offline environment.
//!
//! The paper evaluates on 13 small UCI datasets whose complexity matches the
//! device counts achievable in printed electronics. The originals cannot be
//! downloaded here, so this crate reconstructs each one in one of three
//! ways (documented per generator and in `DESIGN.md`):
//!
//! * **rule enumeration** — *Balance Scale* and *Tic-Tac-Toe Endgame* are
//!   deterministic enumerations of their published generation rules, and
//!   *Acute Inflammations* is re-generated from its rule system;
//! * **structural simulation** — *Energy Efficiency* (a simulated dataset in
//!   the original, too) and *Pendigits* (pen-stroke templates) are produced
//!   by small generative models with the original schema;
//! * **distribution matching** — the clinical/biological datasets are drawn
//!   from class-conditional Gaussian models with published per-class
//!   statistics, matching feature count, sample count, class balance and
//!   approximate separability.
//!
//! All features are min–max normalized to `[0, 1]` — input *voltages* for
//! the printed circuits, following the pNN convention. Everything is
//! deterministic given the generator seed baked into each dataset.
//!
//! # Examples
//!
//! ```
//! use pnc_datasets::{benchmark_suite, Dataset};
//!
//! let suite = benchmark_suite();
//! assert_eq!(suite.len(), 13);
//! let iris = suite.iter().find(|d| d.name == "Iris").expect("present");
//! assert_eq!(iris.num_features(), 4);
//! assert_eq!(iris.num_classes, 3);
//! let (train, val, test) = iris.split(1);
//! assert_eq!(train.len() + val.len() + test.len(), iris.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
pub mod generators;
mod synth;

pub use dataset::Dataset;
pub use generators::benchmark_suite;
