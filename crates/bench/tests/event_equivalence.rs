//! Observational equivalence of the event-driven window engine.
//!
//! The epoch-skipping core ([`Engine::Event`]) is only admissible
//! because it is *observationally equivalent* to the per-op reference
//! core: same summary, same serialized bytes, for every config × fault
//! × schedule box. The unit tests in `anvil-runtime` pin two named soak
//! campaigns; this suite drives the claim across randomly drawn boxes
//! for every campaign on the shared window driver:
//!
//! * soak — detector knobs sampled from the fuzzer's standard domain
//!   ([`FuzzDomain::standard`]), lifecycle fault intensities spanning
//!   quiet to crash-heavy, reload cadences, and both traffic mixes
//!   (adversary-paced and benign-dominated);
//! * fleet — one machine under drawn correlated-fault rates (outages,
//!   PMU loss, torn checkpoint writes) and crash rates, so quarantine,
//!   rebuilt supervisors and blind episodes all interleave with quiet
//!   windows;
//! * self-defense — both arms (unguarded and guarded) of a drawn cell,
//!   where state corruption takes the quiet path out of play mid-run.

use anvil_bench::selfdefense::run_arm;
use anvil_fleet::{run_machine_with_engine, FleetConfig};
use anvil_fuzz::FuzzDomain;
use anvil_runtime::{install_quiet_panic_hook, soak, Engine, SoakConfig};
use proptest::prelude::*;
use serde::Serialize;

/// A rate drawn as a per-mille integer (the vendored proptest has no
/// float strategies).
#[allow(clippy::cast_precision_loss)]
fn per_mille(x: u64) -> f64 {
    x as f64 * 1e-3
}

/// The serialized bytes the campaign records commit.
fn bytes<T: Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("summaries serialize")
}

/// One randomly drawn soak box. The detector knobs are clamped into the
/// fuzzer's standard domain so every drawn config is one the detector
/// accepts.
#[allow(clippy::too_many_arguments)]
fn build_box(
    windows: u64,
    seed: u64,
    adversary: bool,
    llc: u64,
    bank_support: u32,
    ledger_min: u32,
    interval: u64,
    crash_pm: u64,
    stall_pm: u64,
    max_stall: u64,
    corrupt_pm: u64,
    reload_every: u64,
) -> SoakConfig {
    let d = FuzzDomain::standard();
    let mut cfg = if adversary {
        SoakConfig::standard(windows, seed)
    } else {
        SoakConfig::benign(windows, seed)
    };
    cfg.anvil.llc_miss_threshold = llc.clamp(d.llc_range.0, d.llc_range.1);
    cfg.anvil.bank_support_min = bank_support.clamp(d.bank_support_range.0, d.bank_support_range.1);
    cfg.anvil.hardening.ledger_min_windows =
        ledger_min.clamp(d.ledger_min_windows_range.0, d.ledger_min_windows_range.1);
    cfg.anvil.sampling.interval =
        interval.clamp(d.sampling_interval_range.0, d.sampling_interval_range.1);
    cfg.lifecycle.crash_rate = per_mille(crash_pm);
    cfg.lifecycle.stall_rate = per_mille(stall_pm);
    cfg.lifecycle.corrupt_rate = per_mille(corrupt_pm);
    cfg.lifecycle.max_stall = max_stall;
    cfg.reload_every = reload_every;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any drawn box, the event engine's summary — and its
    /// serialized bytes, which is what the campaign records commit —
    /// match the per-op reference exactly.
    #[test]
    fn event_driven_matches_per_op(
        windows in 200u64..1_200,
        seed in any::<u64>(),
        adversary in any::<bool>(),
        llc in 4_000u64..40_000,
        bank_support in 0u32..6,
        ledger_min in 0u32..6,
        interval in 100_000u64..3_000_000,
        crash_pm in 0u64..20,
        stall_pm in 0u64..50,
        max_stall in 1u64..50_000,
        corrupt_pm in 0u64..300,
        reload_every in 0u64..2_000,
    ) {
        install_quiet_panic_hook();
        let cfg = build_box(
            windows, seed, adversary, llc, bank_support, ledger_min,
            interval, crash_pm, stall_pm, max_stall, corrupt_pm, reload_every,
        );
        let reference = soak::run_with_engine(&cfg, Engine::PerOp);
        let event = soak::run_with_engine(&cfg, Engine::Event);
        prop_assert_eq!(&reference, &event);
        prop_assert_eq!(bytes(&reference), bytes(&event));
    }

    /// For any drawn machine, the fleet summary serializes to the same
    /// bytes under both engines.
    #[test]
    fn fleet_machine_matches_per_op(
        windows in 100u64..800,
        seed in any::<u64>(),
        machine in 0u64..64,
        outage_pm in 0u64..8,
        pmu_loss_pm in 0u64..12,
        torn_pm in 0u64..200,
        crash_pm in 0u64..20,
        restart_budget in 1u32..10,
    ) {
        install_quiet_panic_hook();
        let mut cfg = FleetConfig::standard(1, windows, seed);
        cfg.correlated.machine_outage_rate = per_mille(outage_pm);
        cfg.correlated.pmu_loss_rate = per_mille(pmu_loss_pm);
        cfg.correlated.torn_write_rate = per_mille(torn_pm);
        cfg.lifecycle.crash_rate = per_mille(crash_pm);
        cfg.runtime.restart_budget = restart_budget;
        let reference = run_machine_with_engine(&cfg, machine, Engine::PerOp);
        let event = run_machine_with_engine(&cfg, machine, Engine::Event);
        prop_assert_eq!(bytes(&reference), bytes(&event));
    }

    /// For any drawn self-defense cell, both arms serialize to the same
    /// bytes under both engines.
    #[test]
    fn selfdefense_arms_match_per_op(
        seed in any::<u64>(),
        windows in 20u64..240,
        trial in 0u64..8,
    ) {
        install_quiet_panic_hook();
        for guarded in [false, true] {
            let reference = run_arm(seed, windows, guarded, trial, Engine::PerOp);
            let event = run_arm(seed, windows, guarded, trial, Engine::Event);
            prop_assert_eq!(bytes(&reference), bytes(&event));
        }
    }
}
