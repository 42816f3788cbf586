//! Merge gates for the symbolic guarantee verifier.
//!
//! Two claims are enforced here. First, every counterexample the
//! verifier extracts must *replay*: pushing the witness back through the
//! full dynamic simulator reproduces exactly the detector outcome the
//! verifier predicted (proptest over extraction seeds). Second, the
//! committed `results/verifier.json` must regenerate: its pure bound
//! fields match a fresh abstract-interpretation run and its recorded
//! witnesses still confirm, so a detector change that shifts a proven
//! bound or kills a counterexample fails CI until the record is
//! regenerated. (Byte-for-byte regeneration of every committed record,
//! `verifier.json` and `static_analysis.json` included, is the
//! `anvil-bench` records gate, `crates/bench/tests/records.rs`.)

use anvil::analyze::{extract_witness, verify_config, Archetype, Witness};
use anvil::core::{AnvilConfig, EnvelopeParams};
use anvil::faults::FaultPlan;
use anvil::mem::MemoryConfig;
use proptest::prelude::*;
use serde_json::Value;
use std::fs;
use std::path::{Path, PathBuf};

fn results_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(name)
}

fn committed(name: &str) -> Value {
    let text = fs::read_to_string(results_path(name)).expect("committed results file");
    serde_json::from_str(&text).expect("committed results file is valid JSON")
}

fn campaign_config(detector: &str, seed: u64) -> AnvilConfig {
    let mut cfg = match detector {
        "baseline" => AnvilConfig::baseline(),
        "hardened" => AnvilConfig::hardened(),
        other => panic!("unknown detector {other:?}"),
    };
    cfg.hardening.phase_seed = seed;
    cfg
}

/// The committed verifier record regenerates: every cell's pure bound
/// fields match a fresh symbolic run, every verdict is consistent with
/// its bound, and every recorded witness still replays to its recorded
/// missed detection.
#[test]
fn committed_verifier_record_regenerates() {
    let v = committed("verifier.json");
    assert_eq!(v["experiment"], "verifier");
    assert_eq!(v["smoke"], false, "commit the full matrix, not --smoke");
    assert_eq!(v["violations"], 0, "committed record carries violations");
    assert_eq!(v["demonstrated"], true);

    let clock = MemoryConfig::paper_platform().clock;
    let seed = v["seed"].as_u64().expect("seed");
    let cells = v["cells"].as_array().expect("cells");
    assert_eq!(cells.len(), 16, "2 detectors x 4 archetypes x 2 thresholds");
    let mut refutations = 0u32;
    for cell in cells {
        let detector = cell["detector"].as_str().expect("detector");
        let flip = cell["flip_threshold"].as_u64().expect("flip_threshold");
        let cfg = campaign_config(detector, seed);
        let params = EnvelopeParams::paper_platform().with_flip_threshold(flip);
        let bound = verify_config(&cfg, &clock, &params)
            .into_iter()
            .find(|b| b.archetype.name() == cell["archetype"].as_str().expect("archetype"))
            .expect("archetype present in fresh run");
        assert_eq!(
            cell["bound"].as_u64(),
            Some(bound.bound),
            "{detector}/{}@{flip}: committed bound is stale; rerun \
             `cargo run --release -p anvil-bench -- verifier`",
            bound.archetype.name()
        );
        assert_eq!(cell["audit_budget"].as_u64(), Some(bound.audit_budget));
        assert_eq!(cell["sound_wrt_audit"], true, "{cell}");

        match cell["verdict"].as_str().expect("verdict") {
            "proved" => assert!(bound.bound < flip, "{cell}"),
            "refuted" => {
                assert!(bound.bound >= flip, "{cell}");
                let text = serde_json::to_string(&cell["witness"]).expect("witness renders");
                let w: Witness = serde_json::from_str(&text).expect("witness deserializes");
                assert!(
                    w.confirms(),
                    "committed witness no longer replays to its missed detection: {cell}"
                );
                refutations += 1;
            }
            "unconfirmed" => assert!(bound.bound >= flip, "{cell}"),
            other => panic!("unknown verdict {other:?}"),
        }
    }
    assert!(refutations > 0, "no refutation exercises witness replay");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every counterexample the verifier extracts — at any campaign seed,
    /// which reshuffles both the DRAM weak-cell map and the hardened
    /// phase schedule — replays through the dynamic simulator to exactly
    /// the predicted outcome, and that outcome is a real missed
    /// detection.
    #[test]
    fn extracted_witnesses_replay_to_their_predicted_outcome(seed in 0u64..1 << 20) {
        let config = campaign_config("baseline", seed);
        for archetype in [Archetype::Sustained, Archetype::Straddle] {
            if let Some(w) =
                extract_witness(archetype, &config, true, seed, 70.0, FaultPlan::none())
            {
                prop_assert!(w.predicted.missed_detection());
                prop_assert_eq!(w.replay(), w.predicted);
                prop_assert!(w.confirms());
            }
        }
    }
}
