#![warn(missing_docs)]

//! # anvil-bench
//!
//! Experiment harness for the ANVIL (ASPLOS 2016) reproduction: one
//! `anvil-bench` binary that runs every table, figure and robustness
//! campaign of the evaluation by name.
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
//! Every campaign is a row of [`registry::CAMPAIGNS`] and one function
//! from [`CampaignArgs`] to a [`Report`] in [`paper`], [`ablations`],
//! [`mechanisms`] or [`robustness`]: it runs its cells, folds them, and
//! builds its table, record and gate in one place. Every campaign but the
//! mechanism studies runs its cells through one executor,
//! [`run_cells_checked`], on `--threads` workers; the paper and ablation
//! campaigns key their Platform cells so that a run several cells share
//! (an unprotected baseline, an attack's aggressor-pair scan) runs once
//! (see [`harness`]). The entry point prints
//! the table on stdout, writes the record to `results/<campaign>.json`,
//! and exits non-zero when the gate fails.
//! `tests/records.rs` regenerates every committed record from the same
//! table and byte-compares it. See `DESIGN.md` §4 for the experiment
//! index and `EXPERIMENTS.md` for paper-vs-measured numbers.

pub mod ablations;
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
    detection_run, double_refresh_platform, run_cells_checked, vulnerable_pair_index, AttackKind,
    CampaignArgs, CellPanic, DetectionSummary, Scale, UnknownArgument,
};
pub use registry::{Campaign, Report, CAMPAIGNS};
pub use report::{render_json, write_json, Table};
