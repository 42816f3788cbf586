//! Time base shared by the whole simulation.
//!
//! Everything in the ANVIL reproduction is measured in CPU cycles of a
//! fixed-frequency core (the paper's test machine is an Intel i5-2540M at a
//! nominal 2.6 GHz). DRAM timing parameters (tREFI, tRFC, the 64 ms refresh
//! period) are converted into CPU cycles once, at configuration time, so the
//! hot simulation paths only ever do integer cycle arithmetic.

/// A point in time or a duration, in CPU cycles.
///
/// A plain alias rather than a newtype: cycle arithmetic saturates the hot
/// path of the simulator and the ergonomic cost of wrapping every addition
/// outweighs the type-safety benefit inside this workspace. Public APIs that
/// accept wall-clock quantities take explicit `*_ms`/`*_ns` parameters and
/// convert through [`CpuClock`].
pub type Cycle = u64;

/// `now / interval` and `now % interval` for a clock that mostly moves
/// forward in small steps: the interval containing the last query is
/// kept, so a query inside it costs one subtraction and a compare, and
/// only a query in another interval (later or earlier) divides. The DRAM
/// hot paths ask this on every access, with `now` advancing by tens of
/// cycles against intervals of thousands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cadence {
    interval: Cycle,
    index: u64,
    start: Cycle,
}

impl Cadence {
    /// A cadence of `interval` cycles, positioned at time 0.
    pub(crate) fn new(interval: Cycle) -> Self {
        debug_assert!(interval > 0, "cadence interval must be non-zero");
        Cadence {
            interval,
            index: 0,
            start: 0,
        }
    }

    /// The interval length.
    pub(crate) fn interval(&self) -> Cycle {
        self.interval
    }

    /// `(now / interval, now % interval)`.
    pub(crate) fn at(&mut self, now: Cycle) -> (u64, Cycle) {
        // Wraps to a huge value when `now` precedes the kept interval, so
        // one compare catches both directions.
        let into = now.wrapping_sub(self.start);
        if into < self.interval {
            return (self.index, into);
        }
        self.index = now / self.interval;
        self.start = self.index * self.interval;
        (self.index, now - self.start)
    }
}

/// Converts between wall-clock time and CPU cycles for a fixed-frequency core.
///
/// # Examples
///
/// ```
/// use anvil_dram::CpuClock;
///
/// let clock = CpuClock::new(2_600_000_000);
/// assert_eq!(clock.ms_to_cycles(64.0), 166_400_000);
/// assert!((clock.cycles_to_ms(166_400_000) - 64.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct CpuClock {
    freq_hz: u64,
}

impl CpuClock {
    /// The paper's test machine: Intel Core i5-2540M at a nominal 2.6 GHz.
    pub const SANDY_BRIDGE_2_6GHZ: CpuClock = CpuClock {
        freq_hz: 2_600_000_000,
    };

    /// Creates a clock for a core running at `freq_hz` Hertz.
    ///
    /// # Panics
    ///
    /// Panics if `freq_hz` is zero.
    pub fn new(freq_hz: u64) -> Self {
        assert!(freq_hz > 0, "CPU frequency must be non-zero");
        CpuClock { freq_hz }
    }

    /// The core frequency in Hertz.
    pub fn freq_hz(&self) -> u64 {
        self.freq_hz
    }

    /// Converts milliseconds to cycles (rounded to nearest).
    pub fn ms_to_cycles(&self, ms: f64) -> Cycle {
        (ms * self.freq_hz as f64 / 1e3).round() as Cycle
    }

    /// Converts microseconds to cycles (rounded to nearest).
    pub fn us_to_cycles(&self, us: f64) -> Cycle {
        (us * self.freq_hz as f64 / 1e6).round() as Cycle
    }

    /// Converts nanoseconds to cycles (rounded to nearest).
    pub fn ns_to_cycles(&self, ns: f64) -> Cycle {
        (ns * self.freq_hz as f64 / 1e9).round() as Cycle
    }

    /// Converts cycles to milliseconds.
    pub fn cycles_to_ms(&self, cycles: Cycle) -> f64 {
        cycles as f64 * 1e3 / self.freq_hz as f64
    }

    /// Converts cycles to microseconds.
    pub fn cycles_to_us(&self, cycles: Cycle) -> f64 {
        cycles as f64 * 1e6 / self.freq_hz as f64
    }

    /// Converts cycles to nanoseconds.
    pub fn cycles_to_ns(&self, cycles: Cycle) -> f64 {
        cycles as f64 * 1e9 / self.freq_hz as f64
    }

    /// Converts cycles to seconds.
    pub fn cycles_to_s(&self, cycles: Cycle) -> f64 {
        cycles as f64 / self.freq_hz as f64
    }
}

impl Default for CpuClock {
    fn default() -> Self {
        Self::SANDY_BRIDGE_2_6GHZ
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sandy_bridge() {
        assert_eq!(CpuClock::default().freq_hz(), 2_600_000_000);
    }

    #[test]
    fn ms_round_trip() {
        let c = CpuClock::default();
        for ms in [0.5, 1.0, 6.0, 32.0, 64.0] {
            let cycles = c.ms_to_cycles(ms);
            assert!((c.cycles_to_ms(cycles) - ms).abs() < 1e-6);
        }
    }

    #[test]
    fn us_and_ns_conversions() {
        let c = CpuClock::new(1_000_000_000); // 1 GHz: 1 cycle == 1 ns
        assert_eq!(c.ns_to_cycles(338.0), 338);
        assert_eq!(c.us_to_cycles(7.8), 7800);
        assert!((c.cycles_to_us(7800) - 7.8).abs() < f64::EPSILON);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_frequency_panics() {
        CpuClock::new(0);
    }

    #[test]
    fn refresh_interval_at_2_6ghz() {
        // The DDR3 refresh command interval of 7.8 us from the paper.
        let c = CpuClock::SANDY_BRIDGE_2_6GHZ;
        assert_eq!(c.us_to_cycles(7.8), 20_280);
    }
}

#[cfg(test)]
mod cadence_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The kept interval never changes an answer: every query equals
        /// plain division, for forward steps, long jumps and steps back.
        #[test]
        fn cadence_matches_division(
            interval in 1u64..50_000,
            steps in prop::collection::vec((0u32..10, 0u64..200_000), 1..300),
        ) {
            let mut c = Cadence::new(interval);
            let mut now: Cycle = 0;
            for &(tag, d) in &steps {
                now = match tag {
                    0 => now.saturating_sub(d),
                    1 => now.saturating_add(d.saturating_mul(1_000)),
                    2 => u64::MAX - d,
                    _ => now.saturating_add(d / 100),
                };
                prop_assert_eq!(c.at(now), (now / interval, now % interval));
            }
        }
    }
}
