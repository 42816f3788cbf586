//! PEBS-style sampling facilities.
//!
//! Two facilities, mirroring the paper's Section 3.3:
//!
//! * **Load Latency** (`MEM_TRANS_RETIRED.LOAD_LATENCY`): probabilistically
//!   samples retired loads whose latency exceeds a programmable threshold.
//!   ANVIL sets the threshold to the LLC-miss latency so only DRAM-bound
//!   loads qualify.
//! * **Precise Store** (`MEM_TRANS_RETIRED.PRECISE_STORE`): samples retired
//!   stores; the record's data source reveals whether the store missed.
//!
//! Each sampled record carries the virtual address, data source, and
//! latency, and is appended to a debug-store buffer the kernel module
//! drains. Sampling is rate-limited (ANVIL uses 5000 samples/s ≈ 30
//! samples per 6 ms window) with deterministic jitter so the sampler does
//! not alias with periodic attack loops.

use crate::events::DataSource;
use anvil_dram::Cycle;
use anvil_faults::{PebsInjector, SampleFate};
use anvil_mem::AccessKind;
use serde::{Deserialize, Serialize};

/// One PEBS record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SampleRecord {
    /// Virtual address of the sampled operation.
    pub vaddr: u64,
    /// Process that issued it (from the interrupted context).
    pub pid: u32,
    /// Load or store.
    pub kind: AccessKind,
    /// Where the data came from.
    pub source: DataSource,
    /// Measured latency in cycles.
    pub latency: Cycle,
    /// Completion time.
    pub cycle: Cycle,
}

/// Sampler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SamplerConfig {
    /// Minimum latency for a load to qualify (the load-latency facility's
    /// threshold register). Stores qualify regardless, as on real PEBS.
    pub latency_threshold: Cycle,
    /// Mean cycles between samples (rate limiting).
    pub interval: Cycle,
    /// Debug-store buffer capacity; overflowing samples are dropped (the
    /// drop count is reported).
    pub buffer_capacity: usize,
}

impl SamplerConfig {
    /// ANVIL's configuration at a 2.6 GHz clock: 5000 samples/s and a
    /// latency threshold just below DRAM latency.
    pub fn anvil_default() -> Self {
        SamplerConfig {
            latency_threshold: 100,
            interval: 520_000, // 2.6 GHz / 5000 per second
            buffer_capacity: 4096,
        }
    }
}

/// Which operations the sampler currently accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SampleFilter {
    /// Only the load-latency facility is armed.
    LoadsOnly,
    /// Only the precise-store facility is armed.
    StoresOnly,
    /// Both facilities are armed.
    LoadsAndStores,
}

impl SampleFilter {
    fn accepts(self, kind: AccessKind) -> bool {
        matches!(
            (self, kind),
            (SampleFilter::LoadsOnly, AccessKind::Read)
                | (SampleFilter::StoresOnly, AccessKind::Write)
                | (SampleFilter::LoadsAndStores, _)
        )
    }
}

/// The sampling engine: rate-limited, latency-filtered, jittered.
#[derive(Debug, Clone)]
pub struct Sampler {
    config: SamplerConfig,
    filter: SampleFilter,
    enabled: bool,
    next_sample_at: Cycle,
    buffer: Vec<SampleRecord>,
    dropped: u64,
    taken: u64,
    jitter_state: u64,
    faults: Option<PebsInjector>,
}

impl Sampler {
    /// Creates a disabled sampler.
    pub fn new(config: SamplerConfig) -> Self {
        Sampler {
            config,
            filter: SampleFilter::LoadsAndStores,
            enabled: false,
            next_sample_at: 0,
            buffer: Vec::new(),
            dropped: 0,
            taken: 0,
            jitter_state: 0x5eed_1234_abcd_ef01,
            faults: None,
        }
    }

    /// Installs (or clears) a PEBS fault injector. Injected drops are
    /// counted in [`samples_dropped`](Self::samples_dropped) alongside
    /// buffer-overflow drops, exactly as a wrapped debug-store buffer
    /// would present to software.
    pub fn set_fault_injector(&mut self, faults: Option<PebsInjector>) {
        self.faults = faults;
    }

    /// The installed fault injector, if any (for fault-campaign stats).
    pub fn fault_injector(&self) -> Option<&PebsInjector> {
        self.faults.as_ref()
    }

    /// The active configuration.
    pub fn config(&self) -> &SamplerConfig {
        &self.config
    }

    /// Arms the sampler with the given filter, starting at `now`.
    pub fn enable(&mut self, filter: SampleFilter, now: Cycle) {
        self.enabled = true;
        self.filter = filter;
        self.next_sample_at = now; // first qualifying op is sampled
    }

    /// Disarms the sampler (the buffer is kept until drained).
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Whether the sampler is armed.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Total samples taken (for the detector's overhead accounting: each
    /// sample costs a PEBS assist).
    pub fn samples_taken(&self) -> u64 {
        self.taken
    }

    /// Samples dropped to buffer overflow.
    pub fn samples_dropped(&self) -> u64 {
        self.dropped
    }

    /// The sample-spacing jitter stream's current state. Unlike the
    /// debug-store buffer (volatile), the stream position is part of the
    /// sampler's *programmed* state: a detector checkpoint carries it so
    /// a restored run draws the same sample-spacing sequence an
    /// uninterrupted one would.
    pub fn jitter_state(&self) -> u64 {
        self.jitter_state
    }

    /// Restores the sample-spacing jitter stream (checkpoint restore).
    pub fn set_jitter_state(&mut self, state: u64) {
        self.jitter_state = state;
    }

    fn jitter(&mut self) -> Cycle {
        let mut x = self.jitter_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.jitter_state = x;
        // +/- 25% of the interval.
        let span = self.config.interval / 2;
        if span == 0 {
            return 0;
        }
        x.wrapping_mul(0x2545_f491_4f6c_dd1d) % span
    }

    /// The earliest cycle at which a qualifying op is sampled; every op
    /// offered before it is passed over without touching any state.
    pub(crate) fn next_sample_at(&self) -> Cycle {
        self.next_sample_at
    }

    /// Whether an op of this kind and latency qualifies for sampling at
    /// all (armed, accepted by the filter, over the latency threshold).
    /// [`observe`](Self::observe) takes a qualifying op exactly when it
    /// arrives at or after [`next_sample_at`](Self::next_sample_at), and
    /// ignores a non-qualifying one whenever it arrives.
    pub(crate) fn qualifies(&self, kind: AccessKind, latency: Cycle) -> bool {
        self.enabled
            && self.filter.accepts(kind)
            && !(matches!(kind, AccessKind::Read) && latency < self.config.latency_threshold)
    }

    /// Offers one retired memory operation to the sampler. Returns `true`
    /// if it was sampled (the caller charges the PEBS-assist cost).
    pub fn observe(
        &mut self,
        vaddr: u64,
        pid: u32,
        kind: AccessKind,
        source: DataSource,
        latency: Cycle,
        now: Cycle,
    ) -> bool {
        if !self.qualifies(kind, latency) || now < self.next_sample_at {
            return false;
        }
        let jitter = self.jitter();
        self.next_sample_at = now + self.config.interval / 2 + jitter;
        self.taken = self.taken.saturating_add(1);
        let mut vaddr = vaddr;
        if let Some(inj) = self.faults.as_mut() {
            match inj.on_sample(vaddr) {
                SampleFate::Keep => {}
                SampleFate::Drop => {
                    self.dropped = self.dropped.saturating_add(1);
                    return true;
                }
                SampleFate::Corrupt(skewed) => vaddr = skewed,
            }
        }
        if self.buffer.len() >= self.config.buffer_capacity {
            self.dropped = self.dropped.saturating_add(1);
            return true;
        }
        self.buffer.push(SampleRecord {
            vaddr,
            pid,
            kind,
            source,
            latency,
            cycle: now,
        });
        true
    }

    /// Drains the debug-store buffer.
    pub fn drain(&mut self) -> Vec<SampleRecord> {
        std::mem::take(&mut self.buffer)
    }

    /// Hands each buffered record to `f` in arrival order, then empties
    /// the buffer, keeping its capacity: a detector that drains every
    /// stage-2 window reads the records where they lie, and the buffer
    /// reuses one allocation for the whole run.
    pub fn drain_with(&mut self, f: impl FnMut(&SampleRecord)) {
        self.buffer.iter().for_each(f);
        self.buffer.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampler() -> Sampler {
        let mut s = Sampler::new(SamplerConfig {
            latency_threshold: 100,
            interval: 1000,
            buffer_capacity: 64,
        });
        s.enable(SampleFilter::LoadsAndStores, 0);
        s
    }

    #[test]
    fn disabled_sampler_takes_nothing() {
        let mut s = Sampler::new(SamplerConfig::anvil_default());
        assert!(!s.observe(1, 1, AccessKind::Read, DataSource::Dram, 200, 0));
        assert!(s.drain().is_empty());
    }

    #[test]
    fn latency_threshold_filters_fast_loads() {
        let mut s = sampler();
        assert!(!s.observe(1, 1, AccessKind::Read, DataSource::L2, 12, 0));
        assert!(s.observe(2, 1, AccessKind::Read, DataSource::Dram, 200, 0));
        let records = s.drain();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].vaddr, 2);
    }

    #[test]
    fn stores_ignore_latency_threshold() {
        let mut s = sampler();
        assert!(s.observe(3, 1, AccessKind::Write, DataSource::L1, 2, 0));
    }

    #[test]
    fn filter_loads_only() {
        let mut s = sampler();
        s.enable(SampleFilter::LoadsOnly, 0);
        assert!(!s.observe(1, 1, AccessKind::Write, DataSource::Dram, 200, 0));
        assert!(s.observe(1, 1, AccessKind::Read, DataSource::Dram, 200, 0));
    }

    #[test]
    fn rate_limit_spaces_samples() {
        let mut s = sampler();
        let mut taken = 0;
        for t in 0..10_000u64 {
            if s.observe(t, 1, AccessKind::Read, DataSource::Dram, 200, t) {
                taken += 1;
            }
        }
        // interval 1000 over 10_000 cycles: about 10-20 samples given the
        // half-interval + jitter schedule; definitely not thousands.
        assert!((5..=30).contains(&taken), "taken {taken}");
    }

    #[test]
    fn average_rate_tracks_interval() {
        let mut s = Sampler::new(SamplerConfig {
            latency_threshold: 0,
            interval: 520_000,
            buffer_capacity: 1 << 16,
        });
        s.enable(SampleFilter::LoadsOnly, 0);
        // Offer a qualifying load every 400 cycles for 15.6 M cycles (6 ms
        // at 2.6 GHz): ANVIL expects ~30 samples.
        let mut t = 0u64;
        while t < 15_600_000 {
            s.observe(t, 1, AccessKind::Read, DataSource::Dram, 200, t);
            t += 400;
        }
        let n = s.drain().len();
        assert!((20..=45).contains(&n), "got {n} samples, want ~30");
    }

    #[test]
    fn fault_injector_drops_count_as_dropped() {
        use anvil_faults::{FaultPlan, FaultRng, FaultScenario};
        let mut s = Sampler::new(SamplerConfig {
            latency_threshold: 0,
            interval: 0,
            buffer_capacity: 1 << 16,
        });
        let plan: FaultPlan = FaultScenario::PebsOverflow.plan(1.0, 7);
        s.set_fault_injector(plan.pebs_injector(FaultRng::new(plan.seed).fork(1)));
        s.enable(SampleFilter::LoadsOnly, 0);
        for t in 0..10_000u64 {
            s.observe(t * 64, 1, AccessKind::Read, DataSource::Dram, 200, t);
        }
        let buffered = s.drain().len() as u64;
        assert!(s.samples_dropped() > 0, "overflow scenario dropped nothing");
        assert_eq!(s.samples_taken(), buffered + s.samples_dropped());
    }

    #[test]
    fn fault_injector_corruption_skews_addresses() {
        use anvil_faults::{FaultPlan, FaultRng, FaultScenario};
        let mut s = Sampler::new(SamplerConfig {
            latency_threshold: 0,
            interval: 0,
            buffer_capacity: 1 << 16,
        });
        let plan: FaultPlan = FaultScenario::SampleCorruption.plan(1.0, 7);
        s.set_fault_injector(plan.pebs_injector(FaultRng::new(plan.seed).fork(1)));
        s.enable(SampleFilter::LoadsOnly, 0);
        for t in 0..1_000u64 {
            s.observe(t * 64, 1, AccessKind::Read, DataSource::Dram, 200, t);
        }
        let records = s.drain();
        let skewed = records.iter().filter(|r| r.vaddr != r.cycle * 64).count();
        assert!(skewed > 0, "corruption scenario corrupted nothing");
        assert_eq!(
            s.fault_injector().unwrap().corruptions(),
            skewed as u64,
            "corruption counter tracks skewed records"
        );
    }

    #[test]
    fn buffer_overflow_drops_and_counts() {
        let mut s = Sampler::new(SamplerConfig {
            latency_threshold: 0,
            interval: 0,
            buffer_capacity: 4,
        });
        s.enable(SampleFilter::LoadsOnly, 0);
        for t in 0..10u64 {
            s.observe(t, 1, AccessKind::Read, DataSource::Dram, 200, t);
        }
        assert_eq!(s.drain().len(), 4);
        assert_eq!(s.samples_dropped(), 6);
        assert_eq!(s.samples_taken(), 10);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The sampler's buffer never exceeds its capacity, the taken
        /// counter equals buffered + dropped, and disabled samplers take
        /// nothing — for arbitrary qualifying streams.
        #[test]
        fn accounting_invariants(
            ops in prop::collection::vec((0u64..1_000_000, any::<bool>(), 0u64..400), 1..300),
            cap in 1usize..16,
            interval in 0u64..2_000,
        ) {
            let mut s = Sampler::new(SamplerConfig {
                latency_threshold: 100,
                interval,
                buffer_capacity: cap,
            });
            s.enable(SampleFilter::LoadsAndStores, 0);
            let mut t = 0u64;
            for &(vaddr, store, latency) in &ops {
                t += 50;
                let kind = if store { AccessKind::Write } else { AccessKind::Read };
                s.observe(vaddr, 1, kind, DataSource::Dram, latency, t);
            }
            let buffered = s.drain().len() as u64;
            prop_assert!(buffered <= cap as u64);
            prop_assert_eq!(s.samples_taken(), buffered + s.samples_dropped());
        }

        /// Loads strictly below the latency threshold are never sampled.
        #[test]
        fn latency_threshold_is_strict(lat in 0u64..100) {
            let mut s = Sampler::new(SamplerConfig {
                latency_threshold: 100,
                interval: 0,
                buffer_capacity: 8,
            });
            s.enable(SampleFilter::LoadsOnly, 0);
            prop_assert!(!s.observe(1, 1, AccessKind::Read, DataSource::L3, lat, 5));
        }
    }
}
