#![warn(missing_docs)]

//! Experiment harness reproducing every claim of the paper.
//!
//! The paper is a theory paper — its "results" are theorems, not tables —
//! so each experiment here materializes one theorem (or explicitly named
//! baseline/motivation) as a measurable run. `EXPERIMENTS.md` at the
//! workspace root records the measured outcomes next to the paper's
//! claims.
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p dam-bench --bin experiments -- all
//! cargo run --release -p dam-bench --bin experiments -- e1 e4 --quick
//! ```
//!
//! Each experiment prints an aligned table and writes a CSV next to it
//! under `results/`.

pub mod adversary;
pub mod baseline;
pub mod experiments;
pub mod fit;
pub mod json;
pub mod scale;
pub mod table;

pub use table::Table;
