//! Acceptance gates for the fleet Monte Carlo campaign: thread-count
//! determinism of the JSON record, the zero-undeclared-flip and
//! downtime-budget gates, and the presence of the seeded per-DIMM
//! weak-cell sampling in the record.

use anvil_bench::campaigns;
use anvil_fleet::FleetConfig;
use anvil_runtime::{install_quiet_panic_hook, Engine};

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

#[test]
fn fleet_campaign_is_thread_count_independent() {
    install_quiet_panic_hook();
    let cfg = small_fleet();
    let runs: Vec<String> = [1usize, 2, 4]
        .iter()
        .map(|&t| bytes(&campaigns::fleet(&cfg, true, t, Engine::default()).json))
        .collect();
    assert_eq!(runs[0], runs[1], "1 vs 2 threads diverged");
    assert_eq!(runs[0], runs[2], "1 vs 4 threads diverged");
}

#[test]
fn fleet_gates_hold_and_fault_machinery_engages() {
    install_quiet_panic_hook();
    let cfg = small_fleet();
    let out = campaigns::fleet(&cfg, true, 2, Engine::default());
    let r = &out.risk;

    // The fleet gate: no undeclared flips, no budget violations, no
    // dead cells.
    assert!(r.holds(), "fleet gate failed: {r:?}");
    assert_eq!(r.undeclared_flips, 0);
    assert_eq!(r.budget_violations, 0);
    assert!(out.panics.is_empty());

    // The correlated fault machinery actually fired and drove the
    // ladder — a quiet run would gate vacuously.
    assert!(
        r.outages + r.pmu_episodes > 0,
        "no correlated faults: {r:?}"
    );
    assert!(r.demotions > 0, "faults never demoted a domain: {r:?}");
    assert!(r.degraded_domain_windows > 0);

    // The Monte Carlo summary is populated.
    assert_eq!(r.machines, cfg.machines);
    assert_eq!(r.domains, cfg.machines * u64::from(cfg.topology.domains()));
    assert!(r.machine_years > 0.0);
    assert!(r.flips_per_million_machine_years >= 0.0);
}

#[test]
fn fleet_record_carries_per_dimm_populations_and_verdict() {
    install_quiet_panic_hook();
    let cfg = small_fleet();
    let out = campaigns::fleet(&cfg, true, 2, Engine::default());
    let v = &out.json;

    assert_eq!(v["experiment"], serde_json::json!("fleet"));
    assert_eq!(v["holds"], serde_json::json!(out.risk.holds()));
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
            if d["sub_envelope"] == serde_json::json!(true) {
                assert!(thr <= cfg.weak_cells.sub_envelope_threshold);
            } else {
                assert!(thr >= cfg.weak_cells.floor);
                assert!(thr <= cfg.weak_cells.floor + cfg.weak_cells.span);
            }
        }
    }
}
