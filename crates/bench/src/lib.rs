#![warn(missing_docs)]

//! # anvil-bench
//!
//! Experiment harness for the ANVIL (ASPLOS 2016) reproduction: one
//! `anvil-bench` binary that runs every table, figure and robustness
//! campaign of the evaluation by name, plus Criterion microbenchmarks of
//! the simulator's hot paths.
//!
//! Run a campaign with, e.g.:
//!
//! ```bash
//! cargo run --release -p anvil-bench -- table1
//! cargo run --release -p anvil-bench -- figure3 --quick
//! cargo run --release -p anvil-bench -- fleet --smoke --threads 2 --engine per-op
//! cargo run --release -p anvil-bench -- summary
//! ```
//!
//! Every campaign is a row of [`registry::CAMPAIGNS`]: it prints its
//! regenerated table on stdout, writes a machine-readable record to
//! `results/<campaign>.json`, and exits non-zero when its gate fails.
//! `tests/records.rs` regenerates every committed record from the same
//! table and byte-compares it. See `DESIGN.md` §4 for the experiment
//! index and `EXPERIMENTS.md` for paper-vs-measured numbers.

pub mod ablations;
pub mod campaigns;
pub mod harness;
pub mod mechanisms;
pub mod paper;
pub mod perfbench;
pub mod registry;
pub mod report;
pub mod robustness;
pub mod selfdefense;
pub mod summary;

pub use harness::{
    detection_run, double_refresh_platform, evasion_resilience_run, false_positive_rate,
    normalized_time, normalized_time_target, resilience_run, run_cells_checked,
    vulnerable_pair_index, AttackKind, CampaignArgs, CellPanic, DetectionSummary,
    ResilienceSummary, Scale, UnknownArgument,
};
pub use registry::{Campaign, Report, CAMPAIGNS};
pub use report::{render_json, write_json, Table};
