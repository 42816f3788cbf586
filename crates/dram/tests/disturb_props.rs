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

    /// The closed-form epoch path is observationally identical to the
    /// per-op path: same flip log (values AND order), same diagnostic
    /// disturbance, same total-flip count — for any aggressor row, epoch
    /// length, and per-op prelude, and regardless of per-op traffic
    /// continuing after the epoch.
    #[test]
    fn activate_epoch_matches_per_op(
        row in 2u32..30_000,
        prelude in 0u64..300,
        n in 1u64..400_000,
        tail in 0u64..300,
    ) {
        let (mut per_op, s) = harness();
        let (mut epoch, _) = harness();
        let aggressor = RowId::new(BankId(0), row);
        let start = s.last_refresh(row, s.period() * 2).unwrap() + 1;
        for i in 0..prelude {
            per_op.on_activation(aggressor, start + i, &s);
            epoch.on_activation(aggressor, start + i, &s);
        }
        let now = start + prelude;
        for _ in 0..n {
            per_op.on_activation(aggressor, now, &s);
        }
        epoch.activate_epoch(aggressor, n, now, &s);
        for i in 0..tail {
            per_op.on_activation(aggressor, now + 1 + i, &s);
            epoch.on_activation(aggressor, now + 1 + i, &s);
        }
        prop_assert_eq!(per_op.drain_flips(), epoch.drain_flips());
        prop_assert_eq!(per_op.total_flips(), epoch.total_flips());
        for d in [-2i64, -1, 1, 2] {
            let v = RowId::new(BankId(0), (row as i64 + d) as u32);
            prop_assert_eq!(per_op.disturbance_of(v), epoch.disturbance_of(v));
        }
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
fn activate_epoch_preserves_flip_order_across_reach2_victims() {
    // A reach-2 device gives one aggressor four victims; an epoch long
    // enough to flip several cells on several of them must replay the
    // flips in exactly the per-op interleaving.
    let mut config = DisturbanceConfig::paper_ddr3();
    config.neighbor_reach = 2;
    config.distance2_coupling = 0.4;
    let timing = DramTiming::default();
    let s = RefreshSchedule::new(&timing, 32_768);
    let mk = || DisturbanceTracker::new(config, 8192, 32_768);
    let (mut per_op, mut epoch) = (mk(), mk());
    let aggressor = RowId::new(BankId(0), 500);
    let start = s.last_refresh(500, s.period() * 4).unwrap() + 1;
    let n = 2_000_000u64;
    for _ in 0..n {
        per_op.on_activation(aggressor, start, &s);
    }
    epoch.activate_epoch(aggressor, n, start, &s);
    let reference = per_op.drain_flips();
    assert!(
        reference.len() >= 2,
        "need multiple flips to exercise ordering, got {}",
        reference.len()
    );
    assert_eq!(reference, epoch.drain_flips());
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
