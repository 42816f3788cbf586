//! Counters exported by the DRAM module.

use serde::{Deserialize, Serialize};

/// Aggregate statistics of a [`DramModule`](crate::DramModule).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramStats {
    /// Total accesses served.
    pub accesses: u64,
    /// Accesses served from an open row buffer.
    pub row_hits: u64,
    /// Accesses that opened an idle bank.
    pub row_opens: u64,
    /// Accesses that closed one row and opened another.
    pub row_conflicts: u64,
    /// Total row activations (opens + conflicts).
    pub activations: u64,
    /// Cycles accesses spent stalled behind refresh commands.
    pub refresh_stall_cycles: u64,
    /// Neighbor refreshes issued by the hardware mitigation (PARA/TRR).
    pub mitigation_refreshes: u64,
    /// Bit flips produced by the disturbance model.
    pub bit_flips: u64,
    /// Whole-bank charge restorations forced by software (ANVIL's
    /// degraded-mode blanket refresh).
    pub forced_bank_refreshes: u64,
}

impl DramStats {
    /// Fraction of accesses that hit the row buffer.
    pub fn row_hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_zero() {
        assert!(DramStats::default().row_hit_rate().abs() < f64::EPSILON);
        let s = DramStats {
            accesses: 10,
            row_hits: 4,
            ..Default::default()
        };
        assert!((s.row_hit_rate() - 0.4).abs() < 1e-12);
    }
}
