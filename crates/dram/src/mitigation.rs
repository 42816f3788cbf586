//! In-DRAM / in-controller hardware mitigations, used as baselines.
//!
//! The paper surveys hardware proposals that require new silicon and
//! therefore cannot protect deployed systems (Section 5.2.2): PARA
//! (probabilistic adjacent row activation, Kim et al.) and the
//! counter-based targeted row refresh (TRR) of LPDDR4/DDR4. Both are
//! implemented here so the benchmark harness can ablate ANVIL against the
//! hardware alternatives it is meant to substitute for.

use crate::geometry::{DramGeometry, RowId};
use crate::time::Cycle;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Which hardware mitigation the module implements.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum MitigationKind {
    /// Plain DRAM with no in-hardware protection (the deployed baseline).
    #[default]
    None,
    /// PARA: on every activation, refresh each neighbor with probability
    /// `p` (paper reference \[24\]).
    Para {
        /// Per-neighbor refresh probability (typically around 0.001).
        p: f64,
    },
    /// Counter-based targeted row refresh: track per-row activation counts
    /// in a fixed-size table per bank; refresh neighbors once a count
    /// crosses `threshold` within one retention window.
    Trr {
        /// Entries in each bank's counter table.
        table_size: usize,
        /// Activation count that triggers a neighbor refresh.
        threshold: u32,
    },
}

/// Runtime state for the configured mitigation.
#[derive(Debug)]
pub(crate) struct MitigationState {
    kind: MitigationKind,
    rng: SmallRng,
    /// TRR counter tables, one per bank: row -> activation count.
    tables: HashMap<u32, HashMap<u32, u32>>,
    /// Window start per bank, for the TRR periodic reset.
    window_start: HashMap<u32, Cycle>,
    refresh_period: Cycle,
    neighbor_refreshes: u64,
}

impl MitigationState {
    pub(crate) fn new(kind: MitigationKind, refresh_period: Cycle, seed: u64) -> Self {
        if let MitigationKind::Para { p } = kind {
            assert!(
                (0.0..=1.0).contains(&p),
                "PARA probability must be in [0,1]"
            );
        }
        if let MitigationKind::Trr {
            table_size,
            threshold,
        } = kind
        {
            assert!(
                table_size > 0 && threshold > 0,
                "TRR parameters must be non-zero"
            );
        }
        MitigationState {
            kind,
            rng: SmallRng::seed_from_u64(seed),
            tables: HashMap::new(),
            window_start: HashMap::new(),
            refresh_period,
            neighbor_refreshes: 0,
        }
    }

    pub(crate) fn neighbor_refreshes(&self) -> u64 {
        self.neighbor_refreshes
    }

    /// Called on every row activation; returns the neighbor rows the
    /// hardware decided to refresh.
    pub(crate) fn on_activation(
        &mut self,
        row: RowId,
        now: Cycle,
        geometry: &DramGeometry,
    ) -> Vec<RowId> {
        let victims = match self.kind {
            MitigationKind::None => Vec::new(),
            MitigationKind::Para { p } => {
                let mut v = Vec::new();
                if let Some(below) = row.below() {
                    if self.rng.gen_bool(p) {
                        v.push(below);
                    }
                }
                if let Some(above) = row.above(geometry) {
                    if self.rng.gen_bool(p) {
                        v.push(above);
                    }
                }
                v
            }
            MitigationKind::Trr {
                table_size,
                threshold,
            } => {
                let bank = row.bank.0;
                let start = self.window_start.entry(bank).or_insert(now);
                let table = self.tables.entry(bank).or_default();
                if now.saturating_sub(*start) >= self.refresh_period {
                    table.clear();
                    *start = now;
                }
                // Misra-Gries style bounded table: decrement all on
                // overflow, so heavy hitters survive.
                if !table.contains_key(&row.row) && table.len() >= table_size {
                    table.retain(|_, c| {
                        *c -= 1;
                        *c > 0
                    });
                }
                let count = table.entry(row.row).or_insert(0);
                *count += 1;
                if *count >= threshold {
                    *count = 0;
                    row.neighbors(1, geometry).collect()
                } else {
                    Vec::new()
                }
            }
        };
        self.neighbor_refreshes += victims.len() as u64;
        victims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::BankId;

    fn geom() -> DramGeometry {
        DramGeometry::ddr3_4gb()
    }

    #[test]
    fn none_never_refreshes() {
        let mut m = MitigationState::new(MitigationKind::None, 1_000_000, 1);
        for i in 0..10_000 {
            assert!(m
                .on_activation(RowId::new(BankId(0), 10), i, &geom())
                .is_empty());
        }
        assert_eq!(m.neighbor_refreshes(), 0);
    }

    #[test]
    fn para_refresh_rate_tracks_probability() {
        let mut m = MitigationState::new(MitigationKind::Para { p: 0.01 }, 1_000_000, 42);
        let n = 100_000u64;
        for i in 0..n {
            m.on_activation(RowId::new(BankId(0), 100), i, &geom());
        }
        let rate = m.neighbor_refreshes() as f64 / (2.0 * n as f64);
        assert!((0.008..0.012).contains(&rate), "rate {rate}");
    }

    #[test]
    fn para_protects_with_high_cumulative_probability() {
        // With p = 0.001 and 110K activations per aggressor, the chance a
        // victim is never refreshed is (1-p)^110000 ~ e^-110: effectively
        // zero. Verify a refresh fires well before the hammer threshold.
        let mut m = MitigationState::new(MitigationKind::Para { p: 0.001 }, u64::MAX / 2, 7);
        let agg = RowId::new(BankId(0), 500);
        let mut first = None;
        for i in 0..110_000u64 {
            if !m.on_activation(agg, i, &geom()).is_empty() {
                first = Some(i);
                break;
            }
        }
        assert!(first.expect("PARA must fire") < 50_000);
    }

    #[test]
    fn trr_fires_at_threshold() {
        let mut m = MitigationState::new(
            MitigationKind::Trr {
                table_size: 16,
                threshold: 1000,
            },
            u64::MAX / 2,
            1,
        );
        let agg = RowId::new(BankId(2), 50);
        let mut fired_at = None;
        for i in 0..2_000u64 {
            if !m.on_activation(agg, i, &geom()).is_empty() {
                fired_at = Some(i);
                break;
            }
        }
        assert_eq!(fired_at, Some(999));
    }

    #[test]
    fn trr_survives_table_pressure_from_decoys() {
        // A heavy hitter must still be caught even when the attacker
        // sprays accesses over many other rows to evict its counter.
        let mut m = MitigationState::new(
            MitigationKind::Trr {
                table_size: 8,
                threshold: 500,
            },
            u64::MAX / 2,
            1,
        );
        let agg = RowId::new(BankId(0), 1000);
        let mut fired = false;
        for i in 0..40_000u64 {
            // 1 aggressor activation then 1 decoy activation.
            if !m.on_activation(agg, 2 * i, &geom()).is_empty() {
                fired = true;
                break;
            }
            let decoy = RowId::new(BankId(0), 2000 + (i % 64) as u32);
            m.on_activation(decoy, 2 * i + 1, &geom());
        }
        assert!(fired, "TRR lost the heavy hitter under table pressure");
    }

    #[test]
    fn trr_window_reset_clears_counts() {
        let mut m = MitigationState::new(
            MitigationKind::Trr {
                table_size: 16,
                threshold: 1000,
            },
            1_000, // tiny window
            1,
        );
        let agg = RowId::new(BankId(0), 5);
        // 999 activations in one window, then jump past the window: the
        // count restarts, so the next 999 don't fire either.
        for i in 0..999u64 {
            assert!(m.on_activation(agg, i, &geom()).is_empty());
        }
        for i in 0..999u64 {
            assert!(m.on_activation(agg, 10_000 + i, &geom()).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn para_validates_probability() {
        MitigationState::new(MitigationKind::Para { p: 1.5 }, 1, 1);
    }
}
