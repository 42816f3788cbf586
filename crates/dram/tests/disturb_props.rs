//! Property-based tests of the disturbance model's physical invariants.

use anvil_dram::{
    is_vulnerable_row, BankId, DisturbanceConfig, DisturbanceTracker, DramTiming, RefreshSchedule,
    RowId,
};
use proptest::prelude::*;

fn harness() -> (DisturbanceTracker, RefreshSchedule) {
    let timing = DramTiming::default();
    (
        DisturbanceTracker::new(DisturbanceConfig::paper_ddr3(), 8192, 32_768),
        RefreshSchedule::new(&timing, 32_768),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No victim ever flips below the double-sided minimum, regardless of
    /// how the activations are interleaved between the two aggressors.
    #[test]
    fn no_flip_below_minimum(
        row in 2u32..30_000,
        pattern in prop::collection::vec(any::<bool>(), 64),
    ) {
        let (mut t, s) = harness();
        let victim = RowId::new(BankId(0), row);
        let above = RowId::new(victim.bank, victim.row + 1);
        let below = RowId::new(victim.bank, victim.row - 1);
        let start = s.last_refresh(victim.row, s.period() * 2).unwrap() + 1;
        let budget = DisturbanceConfig::paper_ddr3().double_sided_threshold - 100;
        for i in 0..budget {
            let side = pattern[(i % pattern.len() as u64) as usize];
            t.on_activation(if side { above } else { below }, start + i, &s);
        }
        prop_assert_eq!(t.drain_flips().len(), 0, "flip below the minimum");
    }

    /// Single-sided activations never flip before the single-sided
    /// threshold, for any row.
    #[test]
    fn single_sided_threshold_respected(row in 2u32..30_000) {
        let (mut t, s) = harness();
        let victim = RowId::new(BankId(1), row);
        let aggressor = RowId::new(victim.bank, victim.row + 1);
        let start = s.last_refresh(victim.row, s.period() * 2).unwrap() + 1;
        let budget = DisturbanceConfig::paper_ddr3().single_sided_threshold - 1;
        for i in 0..budget {
            t.on_activation(aggressor, start + i, &s);
        }
        let flips = t.drain_flips();
        prop_assert!(
            flips.iter().all(|f| f.row != victim),
            "single-sided flip before the threshold"
        );
    }

    /// A vulnerable victim always flips at the threshold, for any balanced
    /// interleaving that stays within one refresh window.
    #[test]
    fn vulnerable_rows_always_flip_at_threshold(seed in 0u32..500) {
        let config = DisturbanceConfig::paper_ddr3();
        let Some(victim) = (2 + seed * 13..32_000)
            .map(|r| RowId::new(BankId(0), r))
            .find(|r| is_vulnerable_row(&config, *r)) else {
            return Ok(());
        };
        let (mut t, s) = harness();
        let above = RowId::new(victim.bank, victim.row + 1);
        let below = RowId::new(victim.bank, victim.row - 1);
        let start = s.last_refresh(victim.row, s.period() * 2).unwrap() + 1;
        for i in 0..config.double_sided_threshold + 4 {
            let agg = if i % 2 == 0 { above } else { below };
            t.on_activation(agg, start + i, &s);
        }
        let flips = t.drain_flips();
        prop_assert!(
            flips.iter().any(|f| f.row == victim),
            "vulnerable victim did not flip"
        );
    }

    /// Disturbance never goes negative or wraps: the diagnostic is
    /// monotone in activations until a reset.
    #[test]
    fn disturbance_monotone(n in 1u64..5_000) {
        let (mut t, s) = harness();
        let victim = RowId::new(BankId(2), 100);
        let aggressor = RowId::new(victim.bank, victim.row + 1);
        let start = s.last_refresh(victim.row, s.period() * 2).unwrap() + 1;
        let mut last = 0;
        for i in 0..n {
            t.on_activation(aggressor, start + i, &s);
            let d = t.disturbance_of(victim);
            prop_assert!(d >= last);
            last = d;
        }
        t.reset_row(victim, start + n);
        prop_assert_eq!(t.disturbance_of(victim), 0);
    }
}

#[test]
fn flips_are_deterministic_across_runs() {
    let run = || {
        let (mut t, s) = harness();
        let above = RowId::new(BankId(0), 501);
        let below = RowId::new(BankId(0), 499);
        let start = s.last_refresh(500, s.period() * 2).unwrap() + 1;
        for i in 0..500_000u64 {
            let agg = if i % 2 == 0 { above } else { below };
            t.on_activation(agg, start + i, &s);
        }
        t.drain_flips()
    };
    assert_eq!(run(), run(), "same seed, same flips");
}

#[test]
fn clustered_weak_cells_produce_multi_bit_words() {
    // The ECC discussion (paper Section 1.2) needs some words with more
    // than one flipped bit. Hammer many rows far past threshold and check
    // the clustering materializes.
    let (mut t, s) = harness();
    let mut per_word: std::collections::HashMap<(RowId, u32), u32> =
        std::collections::HashMap::new();
    for base in (100..8_000u32).step_by(100) {
        let above = RowId::new(BankId(0), base + 1);
        let below = RowId::new(BankId(0), base - 1);
        let start = s.last_refresh(base, s.period() * 4).unwrap() + 1;
        for i in 0..900_000u64 {
            let agg = if i % 2 == 0 { above } else { below };
            t.on_activation(agg, start + i, &s);
        }
        for f in t.drain_flips() {
            *per_word.entry((f.row, f.col & !7)).or_insert(0) += 1;
        }
    }
    assert!(
        per_word.values().any(|&n| n >= 2),
        "no multi-bit words among {} corrupted words",
        per_word.len()
    );
}
