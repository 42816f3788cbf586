//! Acceptance gates for the fleet Monte Carlo campaign: thread-count
//! determinism of the JSON record, the zero-undeclared-flip and
//! downtime-budget gates, and the presence of the seeded per-DIMM
//! weak-cell sampling in the record.

use anvil_bench::robustness::fleet_with;
use anvil_bench::{CampaignArgs, Report};
use anvil_fleet::FleetConfig;
use anvil_runtime::install_quiet_panic_hook;
use serde_json::{json, Value};

/// Serializes a campaign record exactly as `write_json` would.
fn bytes(v: &serde_json::Value) -> String {
    serde_json::to_string_pretty(v).expect("campaign records serialize")
}

/// A small fleet with the correlated rates cranked so outages, blind
/// episodes, and ladder traffic all occur within a short run.
fn small_fleet() -> FleetConfig {
    let mut cfg = FleetConfig::standard(4, 700, 0xF1EE7);
    cfg.correlated.machine_outage_rate = 4e-3;
    cfg.correlated.pmu_loss_rate = 6e-3;
    cfg
}

/// Runs the fleet campaign on `cfg` as a `--smoke` run at `threads`.
fn run(cfg: &FleetConfig, threads: usize) -> Report {
    let args = CampaignArgs::parse(["--smoke".into(), "--threads".into(), threads.to_string()])
        .expect("known flags parse");
    fleet_with(cfg, &args)
}

/// A non-negative integer field of the record's risk fold.
fn count(risk: &Value, field: &str) -> u64 {
    risk[field]
        .as_u64()
        .unwrap_or_else(|| panic!("risk.{field} is not a count: {risk:?}"))
}

#[test]
fn fleet_campaign_is_thread_count_independent() {
    install_quiet_panic_hook();
    let cfg = small_fleet();
    let runs: Vec<String> = [1usize, 2, 4]
        .iter()
        .map(|&t| bytes(&run(&cfg, t).record))
        .collect();
    assert_eq!(runs[0], runs[1], "1 vs 2 threads diverged");
    assert_eq!(runs[0], runs[2], "1 vs 4 threads diverged");
}

#[test]
fn fleet_gates_hold_and_fault_machinery_engages() {
    install_quiet_panic_hook();
    let cfg = small_fleet();
    let report = run(&cfg, 2);
    let r = &report.record["risk"];

    // The fleet gate: no undeclared flips, no budget violations, no
    // dead cells.
    assert!(report.holds, "fleet gate failed: {r:?}");
    assert_eq!(count(r, "undeclared_flips"), 0);
    assert_eq!(count(r, "budget_violations"), 0);
    assert_eq!(count(r, "cell_panics"), 0);
    assert_eq!(report.record["cell_panics"], json!([]));

    // The correlated fault machinery actually fired and drove the
    // ladder — a quiet run would gate vacuously.
    assert!(
        count(r, "outages") + count(r, "pmu_episodes") > 0,
        "no correlated faults: {r:?}"
    );
    assert!(
        count(r, "demotions") > 0,
        "faults never demoted a domain: {r:?}"
    );
    assert!(count(r, "degraded_domain_windows") > 0);

    // The Monte Carlo summary is populated.
    assert_eq!(count(r, "machines"), cfg.machines);
    assert_eq!(
        count(r, "domains"),
        cfg.machines * u64::from(cfg.topology.domains())
    );
    let rate = |field: &str| r[field].as_f64().expect("a rate");
    assert!(rate("machine_years") > 0.0);
    assert!(rate("flips_per_million_machine_years") >= 0.0);
}

#[test]
fn fleet_record_carries_per_dimm_populations_and_verdict() {
    install_quiet_panic_hook();
    let cfg = small_fleet();
    let report = run(&cfg, 2);
    let v = &report.record;

    assert_eq!(v["experiment"], json!("fleet"));
    assert_eq!(v["holds"], json!(report.holds));
    let machines = v["machines"].as_array().expect("machine summaries");
    assert_eq!(machines.len() as u64, cfg.machines);
    for m in machines {
        let domains = m["domains"].as_array().expect("domain summaries");
        assert_eq!(domains.len() as u64, u64::from(cfg.topology.domains()));
        for d in domains {
            // Each DIMM's sampled weak-cell population is in the record,
            // inside the configured distribution.
            let thr = d["min_flip_threshold"].as_u64().expect("threshold");
            let weak = d["weak_cells"].as_u64().expect("weak cells");
            assert!(weak >= 1 && weak <= cfg.weak_cells.max_weak_cells);
            if d["sub_envelope"] == json!(true) {
                assert!(thr <= cfg.weak_cells.sub_envelope_threshold);
            } else {
                assert!(thr >= cfg.weak_cells.floor);
                assert!(thr <= cfg.weak_cells.floor + cfg.weak_cells.span);
            }
        }
    }
}
