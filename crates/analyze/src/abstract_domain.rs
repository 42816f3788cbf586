//! Abstract domains for the symbolic guarantee verifier.
//!
//! The verifier in [`crate::transfer`] executes the detector's pure
//! transition functions (`anvil_core::transition`) over *sets* of attack
//! parameters instead of concrete traces. This module supplies the sets:
//! closed real intervals ([`RealInterval`]), window-phase offset sets
//! ([`PhaseSet`]), and the per-archetype parameter box ([`ParamBox`])
//! bundling every knob the `anvil-adversary` builders expose — per-window
//! activation ranges, burst phase offsets, pair-spread counts, camouflage
//! dilutions, and the detector-downtime budget from the
//! `anvil-runtime`/`anvil-faults` lifecycle model.
//!
//! All domain values are `f64`. Every quantity the verifier manipulates
//! is far below 2^53 (the largest is the physical activation ceiling,
//! under 2^20), so interval endpoints are exact integers whenever their
//! inputs are; the residual rounding of genuinely fractional arithmetic
//! is absorbed by the +1 guard in `transfer::ceil_guard`.

use serde::Serialize;

/// A closed interval `[lo, hi]` of reals — the base abstract domain.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RealInterval {
    /// Lower endpoint.
    pub lo: f64,
    /// Upper endpoint.
    pub hi: f64,
}

impl RealInterval {
    /// The degenerate interval `[x, x]`.
    pub fn point(x: f64) -> Self {
        RealInterval { lo: x, hi: x }
    }

    /// `[lo, hi]`; endpoints are swapped if given out of order, so the
    /// result is always a well-formed interval.
    pub fn new(lo: f64, hi: f64) -> Self {
        if lo <= hi {
            RealInterval { lo, hi }
        } else {
            RealInterval { lo: hi, hi: lo }
        }
    }

    /// The least interval containing both operands (lattice join).
    #[must_use]
    pub fn join(self, other: Self) -> Self {
        RealInterval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Pointwise sum (exact for intervals: addition is monotone in both
    /// arguments, so endpoint evaluation is the true image).
    #[must_use]
    pub fn plus(self, other: Self) -> Self {
        RealInterval {
            lo: self.lo + other.lo,
            hi: self.hi + other.hi,
        }
    }

    /// Scales by a non-negative constant.
    #[must_use]
    pub fn scale(self, k: f64) -> Self {
        debug_assert!(k >= 0.0, "scale by a negative constant flips the interval");
        RealInterval {
            lo: self.lo * k,
            hi: self.hi * k,
        }
    }

    /// Whether `x` lies inside the interval.
    pub fn contains(self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// `hi − lo`.
    pub fn width(self) -> f64 {
        self.hi - self.lo
    }
}

/// The set of burst-placement offsets an adversary can choose, as a
/// fraction of the stage-1 window it lands in (`0` = the window boundary
/// itself).
///
/// The duty-cycle hammer's whole strategy is picking the offset that
/// splits a burst across two windows; the paced hammer is offset-blind.
/// The verifier only needs one question answered: can the family reach a
/// boundary-straddling placement? That decides whether a burst's misses
/// can be double-counted across two adjacent windows.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PhaseSet {
    /// Smallest reachable offset (fraction of a window, in `[0, 1)`).
    pub lo: f64,
    /// Largest reachable offset.
    pub hi: f64,
}

impl PhaseSet {
    /// Every offset is reachable (the adversary controls its own timing).
    pub fn full() -> Self {
        PhaseSet { lo: 0.0, hi: 1.0 }
    }

    /// Only the single offset `p` is reachable.
    pub fn point(p: f64) -> Self {
        PhaseSet { lo: p, hi: p }
    }

    /// Whether offset `p` is in the set.
    pub fn contains(&self, p: f64) -> bool {
        self.lo <= p && p <= self.hi
    }

    /// How many stage-1 windows beyond the full-window count a refresh
    /// interval's bursts can intersect: two partial windows when the
    /// family can straddle a boundary (offset 0 reachable), one
    /// otherwise.
    pub fn extra_intersecting_windows(&self) -> f64 {
        if self.contains(0.0) {
            2.0
        } else {
            1.0
        }
    }
}

/// The parameter box of one adversary family: the Cartesian product of
/// every knob the corresponding `anvil-adversary` builder exposes, plus
/// the lifecycle downtime budget. The verifier's bound is a supremum
/// over the whole box.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ParamBox {
    /// Raw LLC misses the family can land in one stage-1 window. The
    /// verifier intersects this with the quiet constraint it derives
    /// from the trip test, so the box only needs to be an over-estimate.
    pub window_misses: RealInterval,
    /// Reachable burst-placement offsets.
    pub phase: PhaseSet,
    /// Aggressor-pair spread `[min, max]` (distributed family).
    pub pairs: (u32, u32),
    /// Row-buffer-hit fillers per aggressor access `[min, max]`
    /// (camouflage family).
    pub dilution: (u64, u64),
    /// Detector downtime within one refresh interval, in cycles, that
    /// the fault/lifecycle model can hand the adversary (crash-recovery
    /// gaps; hammered unobserved at the physical rate).
    pub downtime_cycles: RealInterval,
}

impl ParamBox {
    /// The box every default constructor starts from: one pair, no
    /// dilution, boundary-straddling allowed, no downtime, per-window
    /// misses capped by the physical service rate of the window.
    fn base(window_miss_cap: f64) -> Self {
        ParamBox {
            window_misses: RealInterval::new(0.0, window_miss_cap),
            phase: PhaseSet::full(),
            pairs: (1, 1),
            dilution: (0, 0),
            downtime_cycles: RealInterval::point(0.0),
        }
    }

    /// The sustained-pacing family (`PacedHammer`): any constant rate,
    /// any phase (pacing makes the offset irrelevant).
    pub fn sustained(window_miss_cap: f64) -> Self {
        ParamBox::base(window_miss_cap)
    }

    /// The boundary-straddling family (`DutyCycleHammer`): any burst
    /// size up to the window's physical capacity, any placement.
    pub fn straddle(window_miss_cap: f64) -> Self {
        ParamBox::base(window_miss_cap)
    }

    /// The camouflage family (`CamouflageHammer`): 1–64 filler hits per
    /// aggressor access (the builder accepts any dilution ≥ 1).
    pub fn camouflage(window_miss_cap: f64) -> Self {
        ParamBox {
            dilution: (1, 64),
            ..ParamBox::base(window_miss_cap)
        }
    }

    /// The distributed many-sided family (`DistributedManySided`): 4–64
    /// aggressor pairs (the attack refuses to prepare below 4).
    pub fn distributed(window_miss_cap: f64) -> Self {
        ParamBox {
            pairs: (4, 64),
            ..ParamBox::base(window_miss_cap)
        }
    }

    /// Grants the family a detector-downtime gap of up to `cycles`.
    #[must_use]
    pub fn with_downtime(mut self, cycles: u64) -> Self {
        self.downtime_cycles = RealInterval::new(0.0, cycles as f64);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_ops_are_endpoint_exact() {
        let a = RealInterval::new(1.0, 3.0);
        let b = RealInterval::new(-2.0, 5.0);
        assert_eq!(a.plus(b), RealInterval::new(-1.0, 8.0));
        assert_eq!(a.join(b), RealInterval::new(-2.0, 5.0));
        assert_eq!(a.scale(2.0), RealInterval::new(2.0, 6.0));
        assert!(a.contains(3.0));
        assert!(!a.contains(3.1));
        assert_eq!(RealInterval::new(4.0, 1.0), RealInterval::new(1.0, 4.0));
        assert!(RealInterval::point(2.0).width().abs() < f64::EPSILON);
    }

    #[test]
    fn phase_set_controls_the_straddle_partials() {
        assert!((PhaseSet::full().extra_intersecting_windows() - 2.0).abs() < f64::EPSILON);
        assert!((PhaseSet::point(0.0).extra_intersecting_windows() - 2.0).abs() < f64::EPSILON);
        // A family pinned mid-window can never split a burst across a
        // boundary; only the trailing partial window remains.
        assert!((PhaseSet::point(0.5).extra_intersecting_windows() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn family_boxes_match_the_builder_domains() {
        let cap = 80_000.0;
        assert_eq!(ParamBox::distributed(cap).pairs, (4, 64));
        assert_eq!(ParamBox::camouflage(cap).dilution.0, 1);
        assert!((ParamBox::sustained(cap).window_misses.hi - cap).abs() < f64::EPSILON);
        let with_gap = ParamBox::straddle(cap).with_downtime(1_000_000);
        assert!((with_gap.downtime_cycles.hi - 1_000_000.0).abs() < f64::EPSILON);
    }
}
