//! The evasion campaign's two contracts, at the facade level: a campaign
//! cell reproduces byte-for-byte from its seed, and the hardened
//! countermeasures defeat the adaptive adversaries on future DRAM.

use anvil::adversary::{DistributedManySided, DutyCycleHammer};
use anvil::attacks::Attack;
use anvil::core::{AnvilConfig, Platform, PlatformConfig};
use anvil::dram::DisturbanceConfig;
use proptest::prelude::*;

/// One campaign cell, exactly as the `evasion` campaign composes it: the seed is
/// threaded into the hardened window-phase schedule and the DRAM fault
/// map. Returns a full textual record of everything the campaign reports.
fn campaign_cell(attack: Box<dyn Attack>, hardened: bool, seed: u64, ms: f64) -> String {
    let mut cfg = if hardened {
        AnvilConfig::hardened()
    } else {
        AnvilConfig::baseline()
    };
    cfg.hardening.phase_seed = seed;
    let mut pc = PlatformConfig::with_anvil(cfg);
    pc.memory.dram.disturbance = DisturbanceConfig::future_half_threshold();
    pc.memory.dram.seed ^= seed;
    let mut p = Platform::new(pc);
    p.add_attack(attack).unwrap();
    p.run_ms(ms).unwrap();
    format!(
        "detect={:?} flips={} stats={:?}",
        p.first_detection_ms(),
        p.total_flips(),
        p.detector_stats().unwrap()
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Byte-for-byte determinism: the same seed replays to an identical
    /// record — the property `results/evasion.json` relies on for
    /// reproducing any failing cell.
    #[test]
    fn campaign_cell_replays_byte_for_byte_from_its_seed(seed in 0u64..1_000_000) {
        let a = campaign_cell(Box::new(DutyCycleHammer::new()), true, seed, 30.0);
        let b = campaign_cell(Box::new(DutyCycleHammer::new()), true, seed, 30.0);
        prop_assert_eq!(a, b);
    }
}

#[test]
fn distributed_adversary_is_convicted_by_the_ledger() {
    // No single row of the many-sided spread clears the per-window rate
    // gate, so only the cross-window ledger can convict it.
    let mut pc = PlatformConfig::with_anvil(AnvilConfig::hardened());
    pc.memory.dram.disturbance = DisturbanceConfig::future_half_threshold();
    let mut p = Platform::new(pc);
    p.add_attack(Box::new(DistributedManySided::new())).unwrap();
    p.run_ms(40.0).unwrap();
    let stats = *p.detector_stats().unwrap();
    assert!(
        p.first_detection_ms().is_some(),
        "the hardened detector must catch the distributed hammer"
    );
    assert_eq!(p.total_flips(), 0);
    assert!(
        stats.ledger_flags > 0,
        "the conviction must come from accumulated ledger evidence"
    );
}
