//! Pure, side-effect-free forms of the detector's transition functions.
//!
//! The dynamic detector ([`crate::detector`], [`crate::locality`]) and the
//! symbolic verifier in `anvil-analyze` must agree on transition semantics
//! or the verifier's bounds are about a different machine. Every decision
//! the detector makes per window — the stage-1 evidence fold, the trip
//! test, the jittered window draw, the stage-2 sample weighting, the
//! sticky re-sample rule, the ledger update — lives here as a pure
//! function of explicit inputs, with no `&mut self` and no PMU access.
//! The detector calls these on concrete values; the abstract interpreter
//! lifts them to intervals by evaluating at interval endpoints (each
//! function is monotone in the arguments the interpreter varies, which is
//! what makes endpoint evaluation sound).

//!
//! The functions here feed both the per-window hot path and the symbolic
//! verifier's bound proofs, so unchecked integer arithmetic is a compile
//! error in this module (see `[workspace.lints]`); integer updates must
//! be saturating/wrapping by explicit choice.
#![deny(clippy::arithmetic_side_effects)]

use crate::config::{AnvilConfig, HardeningConfig};
use crate::locality::FULL_WEIGHT;
use anvil_dram::Cycle;
use anvil_pmu::SampleFilter;

/// One step of the splitmix64 generator (the window-phase jitter stream
/// and, in `anvil-faults`, the per-site fault streams).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Outcome of one stage-1 window boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stage1Step {
    /// The evidence value the trip test saw (`carry` folded with the
    /// rate-normalized miss count when hardened, the raw normalized count
    /// otherwise).
    pub evidence: f64,
    /// Whether stage 2 arms.
    pub tripped: bool,
    /// The EWMA carry entering the next stage-1 window: the evidence on a
    /// quiet window, zero on a trip (the trip consumes the accumulated
    /// suspicion).
    pub next_carry: f64,
    /// A trip the memoryless detector would have missed: the normalized
    /// count alone was under the threshold and only the carry pushed the
    /// evidence over.
    pub via_carry: bool,
}

/// The stage-1 evidence fold: `carry_factor × carry + normalized` when
/// hardened, `normalized` alone otherwise.
pub fn stage1_evidence(h: &HardeningConfig, carry: f64, normalized: f64) -> f64 {
    if h.enabled {
        h.stage1_carry * carry + normalized
    } else {
        normalized
    }
}

/// The full stage-1 window transition: fold the evidence, apply the trip
/// test against `threshold`, and produce the next carry.
pub fn stage1_step(h: &HardeningConfig, threshold: u64, carry: f64, normalized: f64) -> Stage1Step {
    let evidence = stage1_evidence(h, carry, normalized);
    let t = threshold as f64;
    if evidence < t {
        Stage1Step {
            evidence,
            tripped: false,
            next_carry: evidence,
            via_carry: false,
        }
    } else {
        Stage1Step {
            evidence,
            tripped: true,
            next_carry: 0.0,
            via_carry: normalized < t,
        }
    }
}

/// The range of window scales the jitter stream can draw: `[1−j, 1+j]`
/// when hardened with a positive jitter, the degenerate `[1, 1]`
/// otherwise. The abstract interpreter quantifies over this interval
/// instead of the seeded stream.
pub fn jitter_scale_bounds(h: &HardeningConfig) -> (f64, f64) {
    if h.enabled && h.phase_jitter > 0.0 {
        (1.0 - h.phase_jitter, 1.0 + h.phase_jitter)
    } else {
        (1.0, 1.0)
    }
}

/// Draws the next stage-1 window scale from the seeded jitter stream:
/// `1.0` exactly when unhardened (or jitter disabled), otherwise uniform
/// in [`jitter_scale_bounds`]. Advances `phase_state`.
pub fn draw_window_scale(h: &HardeningConfig, phase_state: &mut u64) -> f64 {
    if !h.enabled || h.phase_jitter <= 0.0 {
        return 1.0;
    }
    let u = (splitmix64(phase_state) >> 11) as f64 / (1u64 << 53) as f64;
    1.0 + h.phase_jitter * (2.0 * u - 1.0)
}

/// The PEBS facility filter stage 2 arms with, from the tripping window's
/// load/store miss mix.
pub fn stage2_filter(config: &AnvilConfig, misses: u64, miss_loads: u64) -> SampleFilter {
    let load_fraction = if misses == 0 {
        1.0
    } else {
        miss_loads as f64 / misses as f64
    };
    if load_fraction > config.load_fraction_hi {
        SampleFilter::LoadsOnly
    } else if load_fraction < config.load_fraction_lo {
        SampleFilter::StoresOnly
    } else {
        SampleFilter::LoadsAndStores
    }
}

/// The activation-evidence weight (in millis of [`FULL_WEIGHT`]) a stage-2
/// sample carries: a latency under the row-miss cutoff means the access
/// was served from an open row buffer — camouflage filler that cannot be
/// hammering — and is discounted to `hit_weight` when hardened.
pub fn sample_weight(h: &HardeningConfig, latency: Cycle) -> u32 {
    if h.enabled && latency < h.row_miss_latency {
        (h.hit_weight * f64::from(FULL_WEIGHT)) as u32
    } else {
        FULL_WEIGHT
    }
}

/// The sticky-sampling rule: after an undetected stage-2 window whose
/// miss traffic collapsed to under half the trip rate (the signature of a
/// burst straddling the arm boundary), the hardened detector re-arms
/// sampling instead of handing the attacker its quiet phase back —
/// bounded by `max_resample_windows`.
pub fn sticky_resample(
    h: &HardeningConfig,
    detected: bool,
    misses: u64,
    threshold: u64,
    resamples: u32,
) -> bool {
    h.enabled
        && !detected
        && misses.saturating_mul(2) < threshold
        && resamples < h.max_resample_windows
}

/// One suspicion-ledger score update: the decayed previous score plus this
/// window's extrapolated-rate evidence (`decay × score + rate`).
pub fn ledger_step(decay: f64, score: f64, rate: f64) -> f64 {
    decay * score + rate
}

/// The extrapolated per-refresh-period activation rate the locality
/// analysis assigns a row from its weighted sample share.
pub fn extrapolated_rate(
    weight: u64,
    total_weight: u64,
    misses: u64,
    ts: Cycle,
    refresh_period: Cycle,
) -> f64 {
    let share = weight as f64 / total_weight.max(1) as f64;
    share * misses as f64 * (refresh_period as f64 / ts.max(1) as f64)
}

/// The activation rate (per refresh period) at which a row becomes
/// suspicious: `min_hammer_accesses × rate_safety`, floored at one.
pub fn required_rate(config: &AnvilConfig) -> f64 {
    (config.min_hammer_accesses as f64 * config.rate_safety).max(1.0)
}

/// The accumulated ledger score at which a row is convicted:
/// [`required_rate`] × `ledger_factor`.
pub fn ledger_conviction_score(config: &AnvilConfig) -> f64 {
    required_rate(config) * config.hardening.ledger_factor
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hardened() -> HardeningConfig {
        AnvilConfig::hardened().hardening
    }

    fn baseline() -> HardeningConfig {
        AnvilConfig::baseline().hardening
    }

    #[test]
    fn baseline_stage1_is_memoryless() {
        let h = baseline();
        let quiet = stage1_step(&h, 20_000, 19_999.0, 19_999.0);
        assert!(!quiet.tripped);
        assert!((quiet.evidence - 19_999.0).abs() < f64::EPSILON);
        let trip = stage1_step(&h, 20_000, 0.0, 20_000.0);
        assert!(trip.tripped);
        assert!(!trip.via_carry);
        assert!(trip.next_carry.abs() < f64::EPSILON);
    }

    #[test]
    fn hardened_carry_accumulates_to_a_via_carry_trip() {
        let h = hardened();
        // Persistent just-under-threshold windows: evidence converges to
        // normalized / (1 − carry_factor), which crosses the threshold.
        let mut carry = 0.0;
        let mut tripped_via_carry = false;
        for _ in 0..16 {
            let step = stage1_step(&h, 20_000, carry, 19_000.0);
            carry = step.next_carry;
            if step.tripped {
                tripped_via_carry = step.via_carry;
                break;
            }
        }
        assert!(tripped_via_carry, "the EWMA carry must force the trip");
    }

    #[test]
    fn quiet_fixed_point_matches_the_closed_form() {
        // Iterating the step on a constant normalized rate converges to
        // the fixed point v / (1 − c) — the identity the sustained-rate
        // bound in anvil-analyze is built on.
        let h = hardened();
        let v = 9_000.0;
        let mut carry = 0.0;
        for _ in 0..200 {
            let step = stage1_step(&h, 20_000, carry, v);
            assert!(!step.tripped);
            carry = step.next_carry;
        }
        let fixed = v / (1.0 - h.stage1_carry);
        assert!((carry - fixed).abs() < 1e-6);
    }

    #[test]
    fn jitter_bounds_bracket_every_drawn_scale() {
        let h = hardened();
        let (lo, hi) = jitter_scale_bounds(&h);
        let mut state = h.phase_seed;
        for _ in 0..10_000 {
            let s = draw_window_scale(&h, &mut state);
            assert!(s >= lo && s <= hi, "drawn scale {s} outside [{lo}, {hi}]");
        }
        assert_eq!(jitter_scale_bounds(&baseline()), (1.0, 1.0));
    }

    #[test]
    fn hit_samples_are_discounted_only_when_hardened() {
        let h = hardened();
        assert_eq!(sample_weight(&h, h.row_miss_latency - 1), 200);
        assert_eq!(sample_weight(&h, h.row_miss_latency), FULL_WEIGHT);
        assert_eq!(sample_weight(&baseline(), 0), FULL_WEIGHT);
    }

    #[test]
    fn sticky_resample_requires_collapsed_traffic_and_budget() {
        let h = hardened();
        assert!(sticky_resample(&h, false, 9_999, 20_000, 0));
        assert!(!sticky_resample(&h, true, 9_999, 20_000, 0));
        assert!(!sticky_resample(&h, false, 10_000, 20_000, 0));
        assert!(!sticky_resample(
            &h,
            false,
            9_999,
            20_000,
            h.max_resample_windows
        ));
        assert!(!sticky_resample(&baseline(), false, 0, 20_000, 0));
    }

    #[test]
    fn ledger_step_is_the_audit_recurrence() {
        let cfg = AnvilConfig::hardened();
        let d = cfg.hardening.ledger_decay;
        // The steady state of score' = d·score + r is r / (1 − d); the
        // envelope's ledger_pair_cap inverts this at the conviction score.
        let threshold = ledger_conviction_score(&cfg);
        let steady_rate = threshold * (1.0 - d);
        let mut score = 0.0;
        for _ in 0..200 {
            score = ledger_step(d, score, steady_rate);
            assert!(score <= threshold + 1e-6);
        }
        assert!((score - threshold).abs() < 1e-3);
    }

    #[test]
    fn extrapolated_rate_reduces_to_count_share_at_full_weight() {
        // 3 of 30 full-weight samples over a 1/10th-period window.
        let r = extrapolated_rate(3_000, 30_000, 20_000, 1_000, 10_000);
        assert!((r - 20_000.0).abs() < 1e-9);
    }
}
