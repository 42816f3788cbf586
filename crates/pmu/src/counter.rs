//! Programmable event counters with overflow interrupts.
//!
//! Counters accumulate for the whole soak horizon, so every update in
//! this module must be saturating — the lint below makes unchecked
//! integer arithmetic a compile error (see `[workspace.lints]`).
#![deny(clippy::arithmetic_side_effects)]

use anvil_dram::Cycle;

/// One hardware event counter.
///
/// Mirrors the facility ANVIL uses for stage 1: "the last-level cache miss
/// counter facility that generates an interrupt after N misses. The count
/// is set such that if the miss interrupt arrives before the sample window
/// timer interrupt, we know that the miss threshold has been breached."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter {
    value: u64,
    overflow_at: Option<u64>,
    overflowed: bool,
    last_overflow_cycle: Option<Cycle>,
    saturate_at: Option<u64>,
}

impl Counter {
    /// Creates a free-running counter (no interrupt).
    pub fn new() -> Self {
        Counter {
            value: 0,
            overflow_at: None,
            overflowed: false,
            last_overflow_cycle: None,
            saturate_at: None,
        }
    }

    /// Caps the counter value at `cap` counts (a fault model: a clipped
    /// or narrow counter that stops counting before its interrupt fires).
    /// `None` restores normal unbounded counting.
    pub fn set_saturation(&mut self, cap: Option<u64>) {
        self.saturate_at = cap;
    }

    /// Programs the counter to raise an interrupt when it reaches
    /// `threshold` counts from now, and clears it.
    pub fn arm(&mut self, threshold: u64) {
        self.value = 0;
        self.overflow_at = Some(threshold);
        self.overflowed = false;
    }

    /// Disarms the interrupt (the counter keeps counting).
    pub fn disarm(&mut self) {
        self.overflow_at = None;
        self.overflowed = false;
    }

    /// Whether an overflow interrupt is programmed ([`arm`](Self::arm)
    /// without a later [`disarm`](Self::disarm)). An unarmed counter's
    /// only state is its value, so adds to it commute.
    pub fn armed(&self) -> bool {
        self.overflow_at.is_some()
    }

    /// Current count.
    pub fn read(&self) -> u64 {
        self.value
    }

    /// Clears the count (and the overflow latch).
    pub fn clear(&mut self) {
        self.value = 0;
        self.overflowed = false;
    }

    /// Adds `n` events at time `now`; returns `true` the first time the
    /// armed threshold is crossed.
    #[inline]
    pub fn add(&mut self, n: u64, now: Cycle) -> bool {
        self.value = self.value.saturating_add(n);
        if let Some(cap) = self.saturate_at {
            self.value = self.value.min(cap);
        }
        if let Some(t) = self.overflow_at {
            if !self.overflowed && self.value >= t {
                self.overflowed = true;
                self.last_overflow_cycle = Some(now);
                return true;
            }
        }
        false
    }

    /// Whether the armed threshold has been crossed since the last
    /// [`arm`](Self::arm)/[`clear`](Self::clear).
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Cycle of the most recent overflow, if any.
    pub fn last_overflow_cycle(&self) -> Option<Cycle> {
        self.last_overflow_cycle
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_without_interrupt() {
        let mut c = Counter::new();
        assert!(!c.add(100, 5));
        assert_eq!(c.read(), 100);
        assert!(!c.overflowed());
    }

    #[test]
    fn interrupt_fires_once_at_threshold() {
        let mut c = Counter::new();
        c.arm(10);
        assert!(!c.add(9, 1));
        assert!(c.add(1, 2));
        assert!(c.overflowed());
        assert_eq!(c.last_overflow_cycle(), Some(2));
        // Further counts do not re-raise until re-armed.
        assert!(!c.add(100, 3));
        c.arm(10);
        assert_eq!(c.read(), 0);
        assert!(c.add(15, 4));
    }

    #[test]
    fn saturation_caps_value_and_blocks_interrupt() {
        let mut c = Counter::new();
        c.set_saturation(Some(50));
        c.arm(100);
        assert!(!c.add(200, 1), "saturated counter must not overflow");
        assert_eq!(c.read(), 50);
        // A threshold at or below the cap still fires.
        c.arm(50);
        assert!(c.add(200, 2));
        // Clearing saturation restores normal behavior.
        c.set_saturation(None);
        c.arm(100);
        assert!(c.add(200, 3));
    }

    #[test]
    fn long_horizon_counts_saturate_instead_of_wrapping() {
        // A free-running counter fed bulk increments for millions of
        // windows must never wrap (a wrap would panic in debug builds
        // and silently reset the count in release).
        let mut c = Counter::new();
        c.add(u64::MAX - 10, 1);
        assert!(!c.add(u64::MAX, 2));
        assert_eq!(c.read(), u64::MAX);
        // Saturated counts still trip an armed threshold.
        let mut armed = Counter::new();
        armed.add(u64::MAX - 1, 1);
        armed.disarm();
        armed.overflow_at = Some(u64::MAX);
        assert!(armed.add(u64::MAX, 2));
    }

    #[test]
    fn disarm_stops_interrupts_but_not_counting() {
        let mut c = Counter::new();
        c.arm(5);
        c.disarm();
        assert!(!c.add(100, 1));
        assert_eq!(c.read(), 100);
    }
}
