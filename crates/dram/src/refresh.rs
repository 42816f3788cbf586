//! Auto-refresh scheduling.
//!
//! DDR3 refreshes rows round-robin: a refresh command is issued every tREFI
//! and each command refreshes a fixed group of rows, so every row is
//! refreshed exactly once per retention window (64 ms by default). The
//! simulator never sweeps all rows; instead [`RefreshSchedule`] answers, for
//! any row and point in time, *when that row was last refreshed* — enough to
//! lazily reset disturbance counters.

use crate::time::Cycle;
use crate::timing::DramTiming;
use anvil_faults::RefreshPostpone;
use serde::{Deserialize, Serialize};

/// The deterministic round-robin auto-refresh schedule of one bank.
///
/// Rows are grouped into `slots`; slot `s` is refreshed by the commands at
/// times `(k * slots + s) * t_refi`. All banks refresh in lockstep (as with
/// all-bank auto-refresh on DDR3).
///
/// # Examples
///
/// ```
/// use anvil_dram::{DramTiming, RefreshSchedule};
///
/// let t = DramTiming::default();
/// let sched = RefreshSchedule::new(&t, 32_768);
/// // Row 0 is refreshed by the very first command of each window.
/// let period = sched.period();
/// assert_eq!(sched.last_refresh(0, period + 1), Some(period));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RefreshSchedule {
    t_refi: Cycle,
    slots: u64,
    rows_per_slot: u32,
    postpone: Option<RefreshPostpone>,
}

impl RefreshSchedule {
    /// Builds the schedule for a bank with `rows_per_bank` rows under the
    /// given timing.
    ///
    /// # Panics
    ///
    /// Panics if the timing fails [`DramTiming::validate`] or
    /// `rows_per_bank` is zero.
    pub fn new(timing: &DramTiming, rows_per_bank: u32) -> Self {
        timing
            .validate()
            .unwrap_or_else(|e| panic!("invalid DRAM timing: {e}"));
        assert!(rows_per_bank > 0, "bank must have rows");
        let slots = timing.commands_per_period();
        let rows_per_slot = rows_per_bank.div_ceil(slots as u32).max(1);
        // With few rows and many commands, several slots refresh nothing;
        // shrink to the number of occupied slots so every row still gets
        // exactly one refresh per period.
        let slots = (rows_per_bank as u64).div_ceil(rows_per_slot as u64);
        RefreshSchedule {
            t_refi: timing.refresh_period / slots,
            slots,
            rows_per_slot,
            postpone: None,
        }
    }

    /// Installs (or clears) deterministic refresh postponement — the
    /// fault model for a controller that legally delays auto-refresh
    /// commands under load (DDR3 permits up to 8 tREFI). Delays are
    /// clamped below one retention period so the lazy last-refresh
    /// arithmetic stays well-defined.
    pub fn set_postpone(&mut self, postpone: Option<RefreshPostpone>) {
        self.postpone = postpone;
    }

    /// The active postponement parameters, if any.
    pub fn postpone(&self) -> Option<RefreshPostpone> {
        self.postpone
    }

    fn postpone_delay(&self, cmd: u64) -> Cycle {
        self.postpone
            .map_or(0, |pp| pp.delay_for(cmd).min(self.period() - 1))
    }

    /// Number of rows refreshed by each refresh command.
    pub fn rows_per_command(&self) -> u32 {
        self.rows_per_slot
    }

    /// The retention window implied by this schedule.
    pub fn period(&self) -> Cycle {
        self.t_refi * self.slots
    }

    /// The fixed phase (offset within the retention window) at which `row`
    /// is refreshed.
    pub fn phase_of(&self, row: u32) -> Cycle {
        ((row / self.rows_per_slot) as u64 % self.slots) * self.t_refi
    }

    /// The most recent time at or before `now` at which `row` was
    /// auto-refreshed, or `None` if it has not been refreshed yet.
    pub fn last_refresh(&self, row: u32, now: Cycle) -> Option<Cycle> {
        let period = self.period();
        self.last_refresh_in(row, now, now / period * period)
    }

    /// [`last_refresh`](Self::last_refresh), given the start of the
    /// retention period containing `now` (`now / period * period`) — which
    /// a caller stepping a monotone clock tracks with a
    /// [`Cadence`](crate::time::Cadence) instead of dividing per row.
    pub(crate) fn last_refresh_in(
        &self,
        row: u32,
        now: Cycle,
        period_start: Cycle,
    ) -> Option<Cycle> {
        let phase = self.phase_of(row);
        let period = self.period();
        // `phase < period`, so the row's latest nominal refresh is in this
        // period if its phase has passed, else in the previous one.
        let nominal = if now - period_start >= phase {
            period_start + phase
        } else if period_start >= period {
            period_start - period + phase
        } else {
            return None;
        };
        if self.postpone.is_none() {
            return Some(nominal);
        }
        // The command nominally at `nominal` may have been postponed past
        // `now`; in that case the row was last refreshed by the previous
        // period's (possibly also postponed) command. Delays are clamped
        // below one period, so the previous command always completed.
        let actual = nominal + self.postpone_delay(nominal / self.t_refi);
        if actual <= now {
            Some(actual)
        } else if nominal >= period {
            let prev = nominal - period;
            Some(prev + self.postpone_delay(prev / self.t_refi))
        } else {
            None
        }
    }

    /// The next time strictly after `now` at which `row` will be
    /// auto-refreshed.
    pub fn next_refresh(&self, row: u32, now: Cycle) -> Cycle {
        match self.last_refresh(row, now) {
            None => self.phase_of(row),
            Some(last) => last + self.period(),
        }
    }

    /// The spacing of refresh commands in this schedule.
    pub(crate) fn command_interval(&self) -> Cycle {
        self.t_refi
    }

    /// Extra latency an access arriving at `now` suffers because the rank
    /// is busy executing a refresh command (tRFC blocking). `t_rfc` is
    /// passed by the caller because the schedule itself is timing-agnostic
    /// beyond the command cadence.
    pub fn blocking_delay(&self, now: Cycle, t_rfc: Cycle) -> Cycle {
        let into = now % self.t_refi;
        t_rfc.saturating_sub(into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::CpuClock;

    fn sched() -> (DramTiming, RefreshSchedule) {
        let t = DramTiming::default();
        (t, RefreshSchedule::new(&t, 32_768))
    }

    #[test]
    fn every_row_refreshed_once_per_period() {
        let (t, s) = sched();
        // 8205-ish commands, 32768 rows -> 4 rows per command.
        assert_eq!(s.rows_per_command(), 4);
        // Period reconstruction is within one command of the nominal window.
        assert!(s.period() <= t.refresh_period);
        assert!(s.period() >= t.refresh_period - t.t_refi);
    }

    #[test]
    fn phases_are_distinct_across_slots_and_shared_within() {
        let (_, s) = sched();
        assert_eq!(s.phase_of(0), s.phase_of(3)); // same slot of 4 rows
        assert_ne!(s.phase_of(0), s.phase_of(4)); // next slot
        assert!(s.phase_of(32_767) < s.period());
    }

    #[test]
    fn last_refresh_monotone_and_periodic() {
        let (_, s) = sched();
        let row = 1234;
        let phase = s.phase_of(row);
        assert_eq!(s.last_refresh(row, phase.saturating_sub(1)), None);
        assert_eq!(s.last_refresh(row, phase), Some(phase));
        assert_eq!(s.last_refresh(row, phase + 10), Some(phase));
        assert_eq!(
            s.last_refresh(row, phase + s.period() + 5),
            Some(phase + s.period())
        );
    }

    #[test]
    fn next_refresh_follows_last() {
        let (_, s) = sched();
        let row = 77;
        let next = s.next_refresh(row, 0);
        assert!(next >= s.phase_of(row));
        let after = s.next_refresh(row, next);
        assert_eq!(after, next + s.period());
    }

    #[test]
    fn blocking_delay_only_inside_rfc_window() {
        let (t, s) = sched();
        assert_eq!(s.blocking_delay(0, t.t_rfc), t.t_rfc);
        assert_eq!(s.blocking_delay(t.t_rfc, t.t_rfc), 0);
        assert_eq!(s.blocking_delay(s.t_refi + 1, t.t_rfc), t.t_rfc - 1);
    }

    #[test]
    fn tiny_bank_with_more_commands_than_rows() {
        let t = DramTiming::ddr3(CpuClock::default());
        let s = RefreshSchedule::new(&t, 512);
        assert_eq!(s.rows_per_command(), 1);
        // All rows must still be refreshed within one period.
        for row in [0u32, 1, 255, 511] {
            assert!(s.phase_of(row) < s.period());
            let lr = s.last_refresh(row, s.period() * 2).unwrap();
            assert!(lr > s.period());
        }
    }

    #[test]
    fn postponement_delays_last_refresh_within_bounds() {
        let (_, mut s) = sched();
        let row = 1234;
        let period = s.period();
        let phase = s.phase_of(row);
        let baseline = s.last_refresh(row, phase + 2 * period + 5).unwrap();
        s.set_postpone(Some(RefreshPostpone {
            permille: 1000, // every command postponed
            max_postpone: 10_000,
            seed: 42,
        }));
        // Query far enough past the nominal time that the delayed command
        // has certainly completed.
        let now = phase + 2 * period + 10_000;
        let delayed = s.last_refresh(row, now).unwrap();
        assert!(delayed >= baseline, "{delayed} < {baseline}");
        assert!(delayed <= baseline + 10_000);
        assert!(delayed <= now);
        // Deterministic.
        assert_eq!(delayed, s.last_refresh(row, now).unwrap());
    }

    #[test]
    fn postponement_falls_back_to_previous_command() {
        let (_, mut s) = sched();
        let row = 0; // phase 0
        let period = s.period();
        s.set_postpone(Some(RefreshPostpone {
            permille: 1000,
            max_postpone: 10_000,
            seed: 42,
        }));
        // Immediately after the second nominal refresh, its delayed
        // command may not have executed yet; the answer must then be the
        // first period's (delayed) command, which is strictly earlier.
        let lr = s.last_refresh(row, 2 * period).unwrap();
        assert!(lr <= 2 * period);
        assert!(lr >= period, "must not skip back more than one period");
    }

    #[test]
    fn doubled_refresh_halves_period() {
        let t = DramTiming::default();
        let d = t.with_doubled_refresh();
        let s = RefreshSchedule::new(&t, 32_768);
        let sd = RefreshSchedule::new(&d, 32_768);
        assert!(sd.period() <= s.period() / 2 + sd.t_refi);
    }

    /// The per-query division form `last_refresh` had before the period
    /// start became a caller-tracked input: the reference the current
    /// form must match.
    fn last_refresh_by_division(s: &RefreshSchedule, row: u32, now: Cycle) -> Option<Cycle> {
        let phase = s.phase_of(row);
        let period = s.period();
        if now < phase {
            return None;
        }
        let nominal = (now - phase) / period * period + phase;
        if s.postpone.is_none() {
            return Some(nominal);
        }
        let actual = nominal + s.postpone_delay(nominal / s.t_refi);
        if actual <= now {
            Some(actual)
        } else if nominal >= period {
            let prev = nominal - period;
            Some(prev + s.postpone_delay(prev / s.t_refi))
        } else {
            None
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// `last_refresh` (period start by division) and `last_refresh_in`
        /// fed by a `Cadence` over arbitrary forward and backward steps
        /// agree with the reference, with and without postponement.
        #[test]
        fn last_refresh_matches_division_reference(
            rows in 1u32..40_000,
            postpone in 0u32..3,
            queries in proptest::collection::vec((0u32..40_000, 0u32..6, 0u64..400_000_000), 1..200),
        ) {
            let mut s = RefreshSchedule::new(&DramTiming::default(), rows);
            if postpone > 0 {
                s.set_postpone(Some(RefreshPostpone {
                    permille: 500 * postpone,
                    max_postpone: 20_000,
                    seed: u64::from(postpone),
                }));
            }
            let mut cadence = crate::time::Cadence::new(s.period());
            let mut now: Cycle = 0;
            for &(row, tag, d) in &queries {
                now = match tag {
                    0 => now.saturating_sub(d / 1_000),
                    1 => d,
                    // Exactly on the row's nominal refresh, or one cycle
                    // before it: the boundaries of the period arithmetic.
                    2 => (d % 4) * s.period() + s.phase_of(row),
                    3 => ((d % 4) * s.period() + s.phase_of(row)).saturating_sub(1),
                    _ => now + d / 10_000,
                };
                let want = last_refresh_by_division(&s, row, now);
                proptest::prop_assert_eq!(s.last_refresh(row, now), want);
                let (k, _) = cadence.at(now);
                proptest::prop_assert_eq!(s.last_refresh_in(row, now, k * s.period()), want);
            }
        }
    }
}
