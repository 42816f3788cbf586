//! The performance monitoring unit: counters + sampling behind one
//! `observe` call per retired memory operation, plus bulk feeds that
//! leave it exactly as those calls would.

use crate::counter::Counter;
use crate::events::{DataSource, EventKind};
use crate::sampling::{SampleFilter, SampleRecord, Sampler, SamplerConfig};
use anvil_dram::Cycle;
use anvil_faults::PebsInjector;
use anvil_mem::{AccessKind, AccessOutcome};

/// One window's aggregate counter traffic, accumulated in closed form
/// instead of one [`Pmu::observe_at`] call per op. See
/// [`Pmu::observe_epoch`] for the validity conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochSummary {
    /// LLC misses to charge to `LONGEST_LAT_CACHE.MISS`.
    pub llc_misses: u64,
    /// LLC-missing loads to charge to
    /// `MEM_LOAD_UOPS_MISC_RETIRED.LLC_MISS`.
    pub llc_miss_loads: u64,
    /// The cycle the epoch's traffic is attributed to (only observable
    /// through an armed counter's overflow edge, which the closed form
    /// excludes — kept for the fallback boundary's bookkeeping).
    pub at: u64,
}

/// A retired memory operation as seen by the PMU: the architectural
/// outcome plus the software context (virtual address and pid) that PEBS
/// records capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetiredOp {
    /// Virtual address the instruction accessed.
    pub vaddr: u64,
    /// Issuing process.
    pub pid: u32,
    /// The memory system's view of the access.
    pub outcome: AccessOutcome,
}

/// The PMU of the simulated core.
///
/// # Examples
///
/// ```
/// use anvil_pmu::{EventKind, Pmu, SamplerConfig};
///
/// let mut pmu = Pmu::new(SamplerConfig::anvil_default());
/// pmu.counter_mut(EventKind::LongestLatCacheMiss).arm(20_000);
/// assert_eq!(pmu.counter(EventKind::LongestLatCacheMiss).read(), 0);
/// ```
#[derive(Debug)]
pub struct Pmu {
    llc_miss: Counter,
    llc_miss_loads: Counter,
    sampler: Sampler,
    interrupts: u64,
}

impl Pmu {
    /// Creates a PMU with the given sampling configuration; counters
    /// free-run, sampling starts disabled.
    pub fn new(sampling: SamplerConfig) -> Self {
        Pmu {
            llc_miss: Counter::new(),
            llc_miss_loads: Counter::new(),
            sampler: Sampler::new(sampling),
            interrupts: 0,
        }
    }

    /// Read-only access to a counter.
    pub fn counter(&self, event: EventKind) -> &Counter {
        match event {
            EventKind::LongestLatCacheMiss => &self.llc_miss,
            EventKind::MemLoadUopsRetiredLlcMiss => &self.llc_miss_loads,
        }
    }

    /// Mutable access to a counter (to arm/clear it).
    pub fn counter_mut(&mut self, event: EventKind) -> &mut Counter {
        match event {
            EventKind::LongestLatCacheMiss => &mut self.llc_miss,
            EventKind::MemLoadUopsRetiredLlcMiss => &mut self.llc_miss_loads,
        }
    }

    /// Bulk-advances the counters for one epoch of LLC-missing traffic
    /// in closed form — the alternative to feeding `epoch.misses`
    /// individual ops through [`observe_at`].
    ///
    /// Observationally identical to per-op counting **only while the
    /// counters are unarmed and the epoch carries no op the sampler could
    /// take**: an armed counter's overflow edge depends on individual op
    /// timestamps, which an aggregate cannot reconstruct, and the sampler
    /// sees none of the epoch's ops. Traffic the sampler may take goes
    /// through [`observe_at`] or [`observe_spread`]; `DESIGN.md` §16
    /// records the rule.
    ///
    /// [`observe_at`]: Self::observe_at
    /// [`observe_spread`]: Self::observe_spread
    pub fn observe_epoch(&mut self, epoch: &EpochSummary) {
        self.llc_miss.add(epoch.llc_misses, epoch.at);
        self.llc_miss_loads.add(epoch.llc_miss_loads, epoch.at);
    }

    /// The sampling engine.
    pub fn sampler(&self) -> &Sampler {
        &self.sampler
    }

    /// Mutable access to the sampling engine (checkpoint restore needs to
    /// re-seed the sample-spacing jitter stream).
    pub fn sampler_mut(&mut self) -> &mut Sampler {
        &mut self.sampler
    }

    /// Installs (or clears) a PEBS fault injector on the sampler.
    pub fn set_fault_injector(&mut self, faults: Option<PebsInjector>) {
        self.sampler.set_fault_injector(faults);
    }

    /// Caps every event counter at `cap` counts (counter-saturation
    /// fault); `None` restores unbounded counting.
    pub fn set_counter_saturation(&mut self, cap: Option<u64>) {
        self.llc_miss.set_saturation(cap);
        self.llc_miss_loads.set_saturation(cap);
    }

    /// Arms PEBS sampling with `filter`, starting at `now`.
    pub fn enable_sampling(&mut self, filter: SampleFilter, now: Cycle) {
        self.sampler.enable(filter, now);
    }

    /// Disarms PEBS sampling.
    pub fn disable_sampling(&mut self) {
        self.sampler.disable();
    }

    /// Drains the PEBS buffer.
    pub fn drain_samples(&mut self) -> Vec<SampleRecord> {
        self.sampler.drain()
    }

    /// Total counter-overflow interrupts raised (for overhead accounting).
    pub fn interrupts_raised(&self) -> u64 {
        self.interrupts
    }

    /// Total PEBS samples taken (each costs a microcode assist).
    pub fn samples_taken(&self) -> u64 {
        self.sampler.samples_taken()
    }

    /// Feeds one retired memory operation completing at `now`. Returns
    /// what the hardware did (interrupt raised? sample taken?) so the
    /// platform can charge the corresponding costs.
    #[inline]
    pub fn observe_at(&mut self, op: &RetiredOp, now: Cycle) -> PmuEffect {
        let mut effect = PmuEffect::default();
        if op.outcome.llc_miss() {
            if self.llc_miss.add(1, now) {
                effect.interrupt = Some(EventKind::LongestLatCacheMiss);
                self.interrupts = self.interrupts.saturating_add(1);
            }
            if matches!(op.outcome.kind, AccessKind::Read) && self.llc_miss_loads.add(1, now) {
                effect.interrupt = Some(EventKind::MemLoadUopsRetiredLlcMiss);
                self.interrupts = self.interrupts.saturating_add(1);
            }
        }
        effect.sampled = self.sampler.observe(
            op.vaddr,
            op.pid,
            op.outcome.kind,
            DataSource::from(op.outcome.level),
            op.outcome.advance,
            now,
        );
        effect
    }

    /// Feeds `n` retired ops spread evenly over the `span` cycles after
    /// `from`: op `i` is `op(i)` and retires at
    /// `from + span × (i + 1) / (n + 1)`. Leaves the PMU exactly as `n`
    /// [`observe_at`](Self::observe_at) calls in index order would,
    /// down to the overflow cycle, the sample buffer, the jitter stream
    /// and the fault injector's draws. `op` is called exactly once per
    /// index, in order, so a caller drawing addresses from a stream
    /// inside it draws the same sequence either way.
    ///
    /// While neither counter is armed, the counters are charged the
    /// window's LLC-miss counts in bulk (saturating adds with a cap
    /// commute, and an unarmed counter keeps no other state), and the
    /// sampler is offered only the ops at or after its next sample
    /// time: the rest would pass it untouched. An armed counter's
    /// overflow edge needs each op's timestamp, so then every op goes
    /// through [`observe_at`](Self::observe_at).
    ///
    /// `span × n` must fit in a `Cycle`, as the per-op timestamps it
    /// replaces require.
    pub fn observe_spread(
        &mut self,
        from: Cycle,
        span: Cycle,
        n: u64,
        mut op: impl FnMut(u64) -> RetiredOp,
    ) {
        debug_assert!(span.checked_mul(n).is_some(), "spread times overflow");
        let mut times = Spread::new(from, span, n);
        if self.llc_miss.armed() || self.llc_miss_loads.armed() {
            for i in 0..n {
                let op = op(i);
                self.observe_at(&op, times.next_at());
            }
            return;
        }
        let (mut misses, mut miss_loads) = (0u64, 0u64);
        let mut next_sample = self.sampler.next_sample_at();
        let mut at = from;
        for i in 0..n {
            let op = op(i);
            let o = &op.outcome;
            at = times.next_at();
            if o.llc_miss() {
                misses += 1;
                miss_loads += u64::from(matches!(o.kind, AccessKind::Read));
            }
            if at >= next_sample && self.sampler.qualifies(o.kind, o.advance) {
                let source = DataSource::from(o.level);
                let taken = self
                    .sampler
                    .observe(op.vaddr, op.pid, o.kind, source, o.advance, at);
                debug_assert!(taken, "a qualifying op at its sample time is taken");
                next_sample = self.sampler.next_sample_at();
            }
        }
        // A zero charge is not a no-op: it would clamp a value above a
        // newly lowered saturation cap, which no per-op call does.
        if misses > 0 {
            self.llc_miss.add(misses, at);
        }
        if miss_loads > 0 {
            self.llc_miss_loads.add(miss_loads, at);
        }
    }
}

/// The retirement times of `n` ops spread evenly over the `span` cycles
/// after `from`: op `i` retires at `from + span × (i + 1) / (n + 1)`, so
/// no op lands on either end of the span. Each step adds `span` to a
/// quotient and remainder by `n + 1`, so no time costs a division.
struct Spread {
    from: Cycle,
    stride: u64,
    step: (u64, u64),
    /// `span × (i + 1)` for the last op yielded, as quotient and
    /// remainder by `stride`.
    at: (u64, u64),
}

impl Spread {
    fn new(from: Cycle, span: Cycle, n: u64) -> Self {
        let stride = n + 1;
        Spread {
            from,
            stride,
            step: (span / stride, span % stride),
            at: (0, 0),
        }
    }

    /// The next op's retirement time.
    fn next_at(&mut self) -> Cycle {
        let (q, r) = (self.at.0 + self.step.0, self.at.1 + self.step.1);
        self.at = if r >= self.stride {
            (q + 1, r - self.stride)
        } else {
            (q, r)
        };
        self.from + self.at.0
    }
}

/// What the PMU did in response to one retired operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PmuEffect {
    /// A counter crossed its armed threshold.
    pub interrupt: Option<EventKind>,
    /// A PEBS sample was recorded (costs a microcode assist).
    pub sampled: bool,
}

impl PmuEffect {
    /// Whether anything happened that costs CPU time.
    pub fn any(&self) -> bool {
        self.interrupt.is_some() || self.sampled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anvil_cache::HitLevel;

    fn op(level: HitLevel, kind: AccessKind, advance: u64) -> RetiredOp {
        RetiredOp {
            vaddr: 0x1000,
            pid: 7,
            outcome: AccessOutcome {
                paddr: 0x2000,
                kind,
                level,
                advance,
                dram: None,
            },
        }
    }

    #[test]
    fn miss_counter_counts_only_llc_misses() {
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        pmu.observe_at(&op(HitLevel::L1, AccessKind::Read, 2), 0);
        pmu.observe_at(&op(HitLevel::L3, AccessKind::Read, 9), 10);
        pmu.observe_at(&op(HitLevel::Memory, AccessKind::Read, 180), 20);
        pmu.observe_at(&op(HitLevel::Memory, AccessKind::Write, 180), 30);
        assert_eq!(pmu.counter(EventKind::LongestLatCacheMiss).read(), 2);
        assert_eq!(pmu.counter(EventKind::MemLoadUopsRetiredLlcMiss).read(), 1);
    }

    #[test]
    fn armed_counter_raises_interrupt() {
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        pmu.counter_mut(EventKind::LongestLatCacheMiss).arm(3);
        let mut fired = 0;
        for t in 0..5u64 {
            let e = pmu.observe_at(&op(HitLevel::Memory, AccessKind::Read, 180), t);
            if e.interrupt == Some(EventKind::LongestLatCacheMiss) {
                fired += 1;
            }
        }
        assert_eq!(fired, 1, "interrupt exactly once per arm");
        assert_eq!(pmu.interrupts_raised(), 1);
    }

    #[test]
    fn sampling_records_dram_loads() {
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        pmu.enable_sampling(SampleFilter::LoadsOnly, 0);
        let e = pmu.observe_at(&op(HitLevel::Memory, AccessKind::Read, 180), 0);
        assert!(e.sampled);
        let records = pmu.drain_samples();
        assert_eq!(records.len(), 1);
        assert!(records[0].source.is_dram());
        assert_eq!(records[0].pid, 7);
    }

    #[test]
    fn l1_hits_never_sampled_as_loads() {
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        pmu.enable_sampling(SampleFilter::LoadsOnly, 0);
        let e = pmu.observe_at(&op(HitLevel::L1, AccessKind::Read, 2), 0);
        assert!(!e.sampled);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use anvil_cache::HitLevel;
    use anvil_faults::{FaultRng, FaultScenario};
    use proptest::prelude::*;

    const LEVELS: [HitLevel; 4] = [HitLevel::L1, HitLevel::L2, HitLevel::L3, HitLevel::Memory];
    const FILTERS: [SampleFilter; 3] = [
        SampleFilter::LoadsOnly,
        SampleFilter::StoresOnly,
        SampleFilter::LoadsAndStores,
    ];

    /// A PMU in an arbitrary programmed state. `sampler` is the latency
    /// threshold, interval, buffer capacity and filter (3: disabled);
    /// `phase` the enable time, jitter-stream position and the interval's
    /// scale (0: under 4 cycles, 1: under 2,000, else as drawn);
    /// `counts` both counter values, a saturation cap (none at 6,000 and
    /// over, applied after counting so a value can sit above it) and
    /// which counters are armed; `faults` how far past its count each
    /// armed threshold sits and a PEBS injector (0: none, 1: drops, 2:
    /// address corruption) with its seed.
    fn pmu(
        sampler: (u64, u64, usize, usize),
        phase: (u64, u64, u8),
        counts: (u64, u64, u64, u8),
        faults: (u64, u64, u8, u64),
    ) -> Pmu {
        let (latency_threshold, interval, buffer_capacity, filter) = sampler;
        let (enable_at, jitter, scale) = phase;
        let mut pmu = Pmu::new(SamplerConfig {
            latency_threshold,
            interval: match scale {
                0 => interval % 4,
                1 => interval % 2_000,
                _ => interval,
            },
            buffer_capacity,
        });
        pmu.sampler_mut().set_jitter_state(jitter);
        if let Some(&f) = FILTERS.get(filter) {
            pmu.enable_sampling(f, enable_at);
        }
        let (c0, c1, cap, armed) = counts;
        let (t0, t1, injector, seed) = faults;
        for (bit, event, count, threshold) in [
            (1, EventKind::LongestLatCacheMiss, c0, t0),
            (2, EventKind::MemLoadUopsRetiredLlcMiss, c1, t1),
        ] {
            let counter = pmu.counter_mut(event);
            if armed & bit != 0 {
                counter.arm(count + threshold);
            }
            counter.add(count, 0);
        }
        pmu.set_counter_saturation((cap < 6_000).then_some(cap));
        let scenario = match injector {
            1 => Some(FaultScenario::PebsOverflow),
            2 => Some(FaultScenario::SampleCorruption),
            _ => None,
        };
        if let Some(scenario) = scenario {
            let plan = scenario.plan(0.5, seed);
            pmu.set_fault_injector(plan.pebs_injector(FaultRng::new(seed).fork(1)));
        }
        pmu
    }

    /// Op `i` of a window: drawn from `ops` cyclically, so any mix of
    /// kinds, levels and latencies reaches the sampler. `hits` keeps
    /// every op in the caches, so the window charges no miss.
    fn op_of(ops: &[(bool, u8, u64, u64)], hits: bool, i: u64) -> RetiredOp {
        let (store, level, advance, vaddr) = ops[(i % ops.len() as u64) as usize];
        let level = if hits { level % 3 } else { level % 4 };
        RetiredOp {
            vaddr: vaddr.wrapping_add(i * 64),
            pid: (i % 3) as u32,
            outcome: AccessOutcome {
                paddr: vaddr,
                kind: if store {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                level: LEVELS[usize::from(level)],
                advance,
                dram: None,
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `observe_spread` leaves the PMU exactly as one `observe_at`
        /// per op at the spread timestamps would — counter values,
        /// overflow latches and cycles, interrupts, samples taken and
        /// dropped, the next sample time, the jitter stream, the buffer
        /// and the injector's stream (all in `Pmu`'s `Debug`) — and
        /// asks for every op exactly once, in order, over consecutive
        /// windows of any span (a third of them under 200 cycles), some
        /// of them empty or all cache hits.
        #[test]
        fn spread_feed_matches_per_op_observation(
            sampler in (0u64..400, 0u64..40_000_000, 1usize..48, 0usize..4),
            phase in (0u64..30_000_000, any::<u64>(), 0u8..3),
            counts in (0u64..5_000, 0u64..5_000, 0u64..12_000, 0u8..4),
            faults in (0u64..300, 0u64..300, 0u8..3, any::<u64>()),
            ops in prop::collection::vec(
                (any::<bool>(), any::<u8>(), 0u64..400, 0u64..1 << 40),
                1..24,
            ),
            windows in prop::collection::vec(
                (0u64..40_000_000, 0u64..40_000_000, 0u64..200, 0u8..8),
                1..4,
            ),
        ) {
            let mut spread = pmu(sampler, phase, counts, faults);
            let mut per_op = pmu(sampler, phase, counts, faults);
            for &(from, span, n, shape) in &windows {
                let span = if span % 3 == 0 { span % 200 } else { span };
                let (n, hits) = match shape {
                    0 => (0, false),
                    1 => (n, true),
                    _ => (n, false),
                };
                let mut asked = Vec::new();
                spread.observe_spread(from, span, n, |i| {
                    asked.push(i);
                    op_of(&ops, hits, i)
                });
                for i in 0..n {
                    per_op.observe_at(&op_of(&ops, hits, i), from + span * (i + 1) / (n + 1));
                }
                prop_assert_eq!(asked, (0..n).collect::<Vec<_>>());
                prop_assert_eq!(format!("{spread:?}"), format!("{per_op:?}"));
            }
        }
    }

    #[test]
    fn spread_times_match_the_division_form() {
        let mut t = Spread::new(100, 121, 120);
        assert_eq!(t.next_at(), 101, "no op lands on the span's start");
        let last = (1..120).map(|_| t.next_at()).last();
        assert_eq!(last, Some(220), "nor on its end");
        for (from, span, n) in [
            (0, 0, 5),
            (7, 3, 120),
            (9, 1_000_003, 120),
            (1, u64::MAX / 121, 120),
        ] {
            let mut t = Spread::new(from, span, n);
            for i in 0..n {
                assert_eq!(t.next_at(), from + span * (i + 1) / (n + 1), "{span} {i}");
            }
        }
    }
}
