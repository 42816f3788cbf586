#![warn(missing_docs)]

//! # anvil-bench
//!
//! Experiment harness for the ANVIL (ASPLOS 2016) reproduction: one binary
//! per table and figure of the paper's evaluation, plus Criterion
//! microbenchmarks of the simulator's hot paths.
//!
//! Run an experiment with, e.g.:
//!
//! ```bash
//! cargo run --release -p anvil-bench --bin table1
//! cargo run --release -p anvil-bench --bin figure3 -- --quick
//! ```
//!
//! Every binary prints the regenerated table/series on stdout and writes a
//! machine-readable record to `results/<experiment>.json`. See
//! `DESIGN.md` §4 for the experiment index and `EXPERIMENTS.md` for
//! paper-vs-measured numbers.

pub mod campaigns;
pub mod harness;
pub mod report;
pub mod selfdefense;

pub use harness::{
    detection_run, double_refresh_platform, evasion_resilience_run, false_positive_rate,
    normalized_time, normalized_time_target, resilience_run, run_cells_checked,
    vulnerable_pair_index, AttackKind, CampaignArgs, CellPanic, DetectionSummary,
    ResilienceSummary, Scale,
};
pub use report::{write_json, Table};
