//! The campaign registry behind the single `anvil-bench` entry point.
//!
//! Every campaign that writes a committed record under `results/` is one
//! [`Campaign`] row of [`CAMPAIGNS`]: its name is the record's file stem,
//! and its `run` function turns the parsed [`CampaignArgs`] into a
//! [`Report`]. The entry point (`src/main.rs`) owns everything else —
//! argument parsing, the quiet panic hook, printing, writing
//! `results/<name>.json`, and the exit code — and `tests/records.rs`
//! walks the same table to regenerate and byte-compare every committed
//! record.

use crate::harness::CampaignArgs;
use crate::{ablations, mechanisms, paper, robustness};
use anvil_fuzz::CorpusEntry;
use serde_json::Value;

/// What one campaign run produces.
#[derive(Debug)]
pub struct Report {
    /// The human-readable tables and verdict, printed on stdout.
    pub text: String,
    /// The machine-readable record, written to `results/<name>.json`.
    pub record: Value,
    /// The campaign's gate: `false` makes the entry point exit non-zero
    /// (after the record is written, so a failure is inspectable).
    pub holds: bool,
    /// Fuzz cases the entry point adds to the committed `corpus/`
    /// (empty for every campaign but `fuzz`). Kept out of `run` so a
    /// regeneration in memory touches no file.
    pub corpus: Vec<CorpusEntry>,
}

impl Report {
    /// A report whose gate holds and that adds nothing to the corpus.
    pub fn new(text: String, record: Value) -> Self {
        Report {
            text,
            record,
            holds: true,
            corpus: Vec::new(),
        }
    }

    /// The report of a campaign whose record is the common
    /// `{ "experiment": <name>, "rows": [...] }` shape.
    pub(crate) fn rows(name: &str, text: String, rows: &[Value]) -> Self {
        Report::new(
            text,
            serde_json::json!({ "experiment": name, "rows": rows }),
        )
    }

    /// Sets the campaign's gate verdict.
    #[must_use]
    pub(crate) fn gate(self, holds: bool) -> Self {
        Report { holds, ..self }
    }
}

/// One registered campaign.
#[derive(Debug, Clone, Copy)]
pub struct Campaign {
    /// The command-line name, which is also the record's file stem.
    pub name: &'static str,
    /// Runs the campaign.
    pub run: fn(&CampaignArgs) -> Report,
}

/// Builds a [`Campaign`] row per `module::function`, named after the
/// function: a campaign, its record and its run function share one name.
macro_rules! campaigns {
    ($($module:ident::$run:ident),* $(,)?) => {
        &[$(Campaign { name: stringify!($run), run: $module::$run }),*]
    };
}

/// Every campaign that writes a committed `results/<name>.json` record,
/// sorted by name.
pub const CAMPAIGNS: &[Campaign] = campaigns![
    ablations::ablation_bank_check,
    ablations::ablation_sampling,
    ablations::ablation_threshold,
    paper::detection_matrix,
    mechanisms::ecc_analysis,
    robustness::evasion,
    mechanisms::eviction_pattern,
    paper::figure3,
    paper::figure4,
    mechanisms::fingerprint,
    robustness::fleet,
    robustness::fuzz,
    mechanisms::mitigation_compare,
    ablations::overhead_breakdown,
    mechanisms::pagemap_hardening,
    mechanisms::refresh_power,
    mechanisms::refresh_sweep,
    robustness::resilience,
    ablations::row_buffer_policy,
    robustness::selfdefense,
    robustness::soak,
    mechanisms::static_analysis,
    paper::table1,
    paper::table3,
    paper::table4,
    paper::table5,
    robustness::verifier,
    ablations::victim_radius,
];

/// Looks a campaign up by name.
pub fn find(name: &str) -> Option<&'static Campaign> {
    CAMPAIGNS.iter().find(|c| c.name == name)
}
