//! DRAM energy accounting.
//!
//! Section 2.1 of the paper argues against ever-faster refresh as a
//! defense: "Going from a 64ms refresh period to the 15ms required to
//! protect our DRAM requires over a 4x increase in refresh power and
//! throughput overhead." This module quantifies that claim: per-event
//! energies (activation, read/write burst, per-row refresh) in the range
//! of DDR3 datasheet values, accumulated from the module's counters.

use crate::stats::DramStats;
use crate::time::{CpuClock, Cycle};
use serde::{Deserialize, Serialize};

/// Per-event energy costs, in nanojoules. Defaults approximate a 4 Gb
/// DDR3-1333 device (IDD values folded into per-operation energies).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// One ACT + PRE pair (opening and closing a row).
    pub activate_nj: f64,
    /// One read/write burst from an open row.
    pub access_nj: f64,
    /// Refreshing one row (internally an activation of that row).
    pub refresh_row_nj: f64,
}

impl EnergyModel {
    /// DDR3-class defaults.
    pub fn ddr3() -> Self {
        EnergyModel {
            activate_nj: 20.0,
            access_nj: 6.0,
            refresh_row_nj: 22.0,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::ddr3()
    }
}

/// Energy consumed over an interval, by component.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Energy of demand activations (row opens + conflicts), nJ.
    pub activation_nj: f64,
    /// Energy of data bursts, nJ.
    pub access_nj: f64,
    /// Energy of auto-refresh, nJ.
    pub refresh_nj: f64,
    /// Interval length in seconds.
    pub seconds: f64,
}

impl EnergyReport {
    /// Total energy, nJ.
    pub fn total_nj(&self) -> f64 {
        self.activation_nj + self.access_nj + self.refresh_nj
    }

    /// Average refresh power over the interval, in milliwatts.
    pub fn refresh_mw(&self) -> f64 {
        if self.seconds <= 0.0 {
            0.0
        } else {
            self.refresh_nj / self.seconds * 1e-6
        }
    }

    /// Refresh's share of total energy, in [0, 1].
    pub fn refresh_share(&self) -> f64 {
        let t = self.total_nj();
        if t <= 0.0 {
            0.0
        } else {
            self.refresh_nj / t
        }
    }
}

/// Computes the energy report for a module that has run until `now` and
/// accumulated `stats`, refreshing all `total_rows` once per
/// `refresh_period`.
pub fn energy_report(
    model: &EnergyModel,
    stats: &DramStats,
    total_rows: u64,
    refresh_period: Cycle,
    now: Cycle,
    clock: &CpuClock,
) -> EnergyReport {
    let periods = now as f64 / refresh_period as f64;
    EnergyReport {
        activation_nj: stats.activations as f64 * model.activate_nj,
        access_nj: stats.accesses as f64 * model.access_nj,
        refresh_nj: periods * total_rows as f64 * model.refresh_row_nj,
        seconds: clock.cycles_to_s(now),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::DramGeometry;
    use crate::timing::DramTiming;

    fn report_for(refresh_ms: f64, seconds: f64) -> EnergyReport {
        let clock = CpuClock::SANDY_BRIDGE_2_6GHZ;
        let geom = DramGeometry::ddr3_4gb();
        let timing = DramTiming::ddr3_with_refresh_ms(clock, refresh_ms);
        let now = clock.ms_to_cycles(seconds * 1e3);
        energy_report(
            &EnergyModel::ddr3(),
            &DramStats::default(),
            geom.total_rows(),
            timing.refresh_period,
            now,
            &clock,
        )
    }

    #[test]
    fn refresh_power_scales_inversely_with_period() {
        // The paper's 4x claim: 64 ms -> 16 ms quadruples refresh power.
        let base = report_for(64.0, 1.0);
        let fast = report_for(16.0, 1.0);
        let ratio = fast.refresh_mw() / base.refresh_mw();
        assert!((3.9..4.1).contains(&ratio), "ratio {ratio}");
        // And 15 ms is "over a 4x increase".
        let paper = report_for(15.0, 1.0);
        assert!(paper.refresh_mw() / base.refresh_mw() > 4.0);
    }

    #[test]
    fn ddr3_refresh_power_is_plausible() {
        // 512Ki rows every 64 ms at ~22 nJ each ~ 180 mW: the right order
        // of magnitude for a 4 GB DDR3 module's refresh power.
        let r = report_for(64.0, 1.0);
        assert!(
            (50.0..500.0).contains(&r.refresh_mw()),
            "refresh power {} mW implausible",
            r.refresh_mw()
        );
    }

    #[test]
    fn demand_energy_accumulates_from_stats() {
        let clock = CpuClock::SANDY_BRIDGE_2_6GHZ;
        let stats = DramStats {
            accesses: 1000,
            activations: 400,
            ..Default::default()
        };
        let r = energy_report(
            &EnergyModel::ddr3(),
            &stats,
            512 * 1024,
            clock.ms_to_cycles(64.0),
            clock.ms_to_cycles(64.0),
            &clock,
        );
        assert!((r.access_nj - 6000.0).abs() < 1e-9);
        assert!((r.activation_nj - 8000.0).abs() < 1e-9);
        assert!(r.refresh_share() > 0.9, "refresh dominates an idle window");
    }

    #[test]
    fn report_handles_zero_interval() {
        let r = report_for(64.0, 0.0);
        assert!(r.refresh_mw().abs() < f64::EPSILON);
        assert!(r.refresh_share().abs() < f64::EPSILON);
    }
}
