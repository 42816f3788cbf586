//! Restart-aware hammering: the window-granular attacker the soak,
//! fleet and selfdefense campaigns charge against.
//!
//! The fleet setting (inter-VM Rowhammer, Kawasaki & Akiyama) puts one
//! attacker VM beside many independently protected domains, free to pick
//! its target each window. The selfdefense setting points the same
//! attacker at the detector's own state rows. Both, and the soak
//! campaign, share one model: paced pressure just under the stage-1 trip
//! rate while a detector is watching, rotated round-robin over whatever
//! targets are eligible, and full-rate bursts into every stretch nobody
//! counts.

use crate::EST_ATTACK_ACCESS_CYCLES;

/// Double-sided hammering that paces politely below the stage-1 trip
/// rate while the detector is watching, then hammers flat out inside
/// every detector downtime gap or PMU-blind window.
///
/// A supervised detector that crashes and restarts is blind between the
/// crash and the restore — exactly the gap an attacker who can observe
/// (or provoke) the crash will fill. During a gap of `G` cycles a
/// double-sided hammer lands `G / 187` activations with nothing
/// counting them; against the paper platform's 220K-activation flip
/// threshold that makes any gap beyond ~41M cycles (≈16 ms) sufficient
/// for a flip from a standing start, and shorter gaps combine with
/// whatever paced evidence accumulated since the victim's last refresh.
/// This is why the supervisor's recovery protocol must blanket-refresh
/// the gap *before* trusting the no-flip guarantee again, and why its
/// restart backoff must stay under the guarantee envelope's downtime
/// budget.
///
/// The attacker is evaluated at window granularity: a campaign asks, for
/// each window, which target the attacker pressures and with how many
/// aggressor activations, then charges those activations against the
/// target's detector evidence and weak-cell thresholds. Targeting is a
/// pure function of the window index and the eligibility mask, so a
/// campaign cell replays byte-for-byte regardless of thread schedule.
#[derive(Debug, Clone)]
pub struct RestartAwareHammer {
    paced_activations: u64,
}

impl RestartAwareHammer {
    /// Paces just under the baseline stage-1 trip rate: 19.5K
    /// activations per 6 ms window against the 20K-miss threshold.
    #[must_use]
    pub fn new() -> Self {
        RestartAwareHammer {
            paced_activations: 19_500,
        }
    }

    /// Overrides the paced per-window activation budget.
    #[must_use]
    pub fn with_paced_activations(mut self, activations: u64) -> Self {
        self.paced_activations = activations.max(1);
        self
    }

    /// The paced per-window activation budget against the target.
    #[must_use]
    pub fn paced_activations(&self) -> u64 {
        self.paced_activations
    }

    /// The target pressured at `window` given the eligibility mask
    /// (`eligible[i]` is false for a quarantined or outaged domain), or
    /// `None` when nothing is attackable. Round-robin over the eligible
    /// set: the `window mod k`-th eligible target of `k`.
    #[must_use]
    pub fn target_at(&self, window: u64, eligible: &[bool]) -> Option<usize> {
        let k = eligible.iter().filter(|&&e| e).count() as u64;
        if k == 0 {
            return None;
        }
        let pick = window % k;
        eligible
            .iter()
            .enumerate()
            .filter(|&(_, &e)| e)
            .nth(usize::try_from(pick).expect("pick < k <= eligible.len()"))
            .map(|(i, _)| i)
    }

    /// Aggressor-pair activations a full-rate burst lands in `cycles`
    /// nobody counts: a downtime gap (the number the recovery protocol
    /// must assume accumulated), or, at
    /// [`EST_STAGE1_WINDOW_CYCLES`](crate::EST_STAGE1_WINDOW_CYCLES), one
    /// PMU-blind window.
    pub fn burst_activations(cycles: u64) -> u64 {
        cycles / EST_ATTACK_ACCESS_CYCLES
    }
}

impl Default for RestartAwareHammer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EST_STAGE1_WINDOW_CYCLES;

    #[test]
    fn burst_activations_matches_the_gap_rate() {
        assert_eq!(RestartAwareHammer::burst_activations(0), 0);
        assert_eq!(RestartAwareHammer::burst_activations(186), 0);
        assert_eq!(RestartAwareHammer::burst_activations(187), 1);
        assert_eq!(
            RestartAwareHammer::burst_activations(4_000_000),
            4_000_000 / 187
        );
        // ~16 ms of downtime is a flip from a standing start.
        assert!(RestartAwareHammer::burst_activations(42_000_000) >= 220_000);
    }

    #[test]
    fn blind_windows_burst_at_the_gap_rate() {
        let h = RestartAwareHammer::new();
        let blind = RestartAwareHammer::burst_activations(EST_STAGE1_WINDOW_CYCLES);
        assert_eq!(blind, EST_STAGE1_WINDOW_CYCLES / EST_ATTACK_ACCESS_CYCLES);
        assert!(blind > 4 * h.paced_activations());
    }

    #[test]
    fn rotation_visits_every_eligible_domain_equally() {
        let h = RestartAwareHammer::new();
        let eligible = [true, true, true, true];
        let mut hits = [0u64; 4];
        for w in 0..4_000 {
            hits[h.target_at(w, &eligible).unwrap()] += 1;
        }
        assert_eq!(hits, [1_000; 4]);
    }

    #[test]
    fn rotation_skips_ineligible_domains() {
        let h = RestartAwareHammer::new();
        let eligible = [true, false, true, false];
        for w in 0..100 {
            let t = h.target_at(w, &eligible).unwrap();
            assert!(t == 0 || t == 2, "targeted ineligible domain {t}");
        }
        assert!(h.target_at(0, &[false, false]).is_none());
        assert!(h.target_at(0, &[]).is_none());
    }

    #[test]
    fn targeting_is_a_pure_function_of_window_and_mask() {
        let h = RestartAwareHammer::new();
        let eligible = [true, false, true, true];
        for w in 0..500 {
            assert_eq!(h.target_at(w, &eligible), h.target_at(w, &eligible));
        }
    }
}
