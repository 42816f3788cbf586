//! The ANVIL two-stage detection state machine (Section 3.3, Figure 2).
//!
//! Stage 1 watches the `LONGEST_LAT_CACHE.MISS` rate over windows of
//! `tc`; only when a window's miss count could sustain a rowhammer attack
//! does stage 2 arm the PEBS sampling facilities for `ts`, translate the
//! sampled virtual addresses through the owning process's page table, and
//! run the row/bank locality analysis. On detection, the rows adjacent to
//! each identified aggressor are selectively refreshed with a read.

use crate::checkpoint::{DetectorCheckpoint, HashedConfig, CHECKPOINT_VERSION};
use crate::config::AnvilConfig;
use crate::epoch::{QuietCheckpoint, QuietShadow};
use crate::error::{ConfigError, RuntimeError};
use crate::guard::{GuardMode, GuardedCell, GuardedValue, StateCorruption, StateSite};
use crate::locality::{
    analyze_window, LedgerRow, LocalityReport, LocalityScratch, RowSample, SuspicionLedger,
};
use crate::transition;
use anvil_dram::{AddressMapping, BankId, CpuClock, Cycle, DramLocation, RowId};
use anvil_pmu::{DataSource, EventKind, Pmu, SampleFilter};
use serde::{Deserialize, Serialize};

/// Which window the detector is currently in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorStage {
    /// Stage 1: counting LLC misses over `tc`.
    MissCount,
    /// Stage 2: sampling memory-access addresses over `ts`.
    Sampling,
}

/// Detector activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectorStats {
    /// Stage-1 windows completed.
    pub stage1_windows: u64,
    /// Stage-1 windows whose miss count crossed the threshold.
    pub threshold_crossings: u64,
    /// Stage-2 (sampling) windows completed.
    pub stage2_windows: u64,
    /// Stage-2 windows that flagged at least one aggressor.
    pub detections: u64,
    /// Selective victim-row refreshes performed.
    pub selective_refreshes: u64,
    /// Samples fed into locality analysis.
    pub samples_analyzed: u64,
    /// Service calls that ran after their deadline (the watchdog).
    pub missed_deadlines: u64,
    /// Largest single deadline overrun observed, in cycles.
    pub worst_deadline_slip: Cycle,
    /// Stage-2 windows whose evidence was too damaged to trust, handled
    /// by the degraded-protection fallback.
    pub degraded_windows: u64,
    /// Whole banks blanket-refreshed by degraded mode.
    pub bank_refreshes: u64,
    /// Stage-2 samples lost before reaching the buffer (debug-store
    /// overflow and injected drops).
    pub samples_lost: u64,
    /// DRAM-sourced stage-2 samples whose translation failed.
    pub samples_unresolved: u64,
    /// Hardened stage-1 trips where the raw window count was *under* the
    /// threshold but the EWMA-carried evidence crossed it (duty-cycle
    /// evasion caught by the carry).
    pub carry_crossings: u64,
    /// Aggressor findings contributed by the cross-window suspicion
    /// ledger rather than a single window's samples.
    pub ledger_flags: u64,
    /// Stage-2 windows re-armed by sticky sampling: the window's miss
    /// traffic collapsed below half the stage-1 trip rate with no
    /// finding, so sampling continued instead of returning to counting
    /// (duty-cycle evasion denied its quiet phase).
    pub resample_windows: u64,
    /// Guarded state-cell corruptions the scrubber repaired from a
    /// checksummed replica majority (the computed value was never wrong).
    #[serde(default)]
    pub state_repairs: u64,
    /// Guarded state-cell corruptions with no trustworthy majority: the
    /// cell was re-sealed to a deterministic best guess and the policy
    /// layer must escalate (cold restart from the last good checkpoint).
    #[serde(default)]
    pub state_escalations: u64,
}

/// A compact fingerprint of a run's detector behaviour: each headline
/// [`DetectorStats`] counter is bucketized to its log₂ magnitude (a
/// nibble, 0–15) and the nibbles are packed into one `u64`. Two runs
/// that exercised the same detector machinery to the same order of
/// magnitude — same stages armed, same hardening layers engaged, same
/// degradation pathways — collide; runs that differ in *which* machinery
/// fired (or by a power of two in how often) do not. The scenario fuzzer
/// uses these as coverage-map keys: a novel signature means a candidate
/// drove the detector somewhere no earlier candidate did.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct StateSignature(pub u64);

/// Log₂ magnitude bucket of a counter, saturated to a nibble: 0 → 0,
/// otherwise `min(15, bit-length)`.
fn log2_bucket(v: u64) -> u64 {
    if v == 0 {
        0
    } else {
        u64::from(64 - v.leading_zeros()).min(15)
    }
}

impl DetectorStats {
    /// This run's [`StateSignature`]. Twelve counters, one nibble each,
    /// packed low-to-high in declaration order; the top 16 bits stay
    /// zero for callers to fold in their own outcome flags.
    pub fn signature(&self) -> StateSignature {
        let fields = [
            self.stage1_windows,
            self.threshold_crossings,
            self.stage2_windows,
            self.detections,
            self.selective_refreshes,
            self.carry_crossings,
            self.ledger_flags,
            self.resample_windows,
            self.degraded_windows,
            self.bank_refreshes,
            self.missed_deadlines,
            self.samples_lost,
        ];
        let mut packed = 0u64;
        for (i, f) in fields.iter().enumerate() {
            packed |= log2_bucket(*f) << (i * 4);
        }
        StateSignature(packed)
    }
}

/// What a detector service call decided.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceOutcome {
    /// Stage-1 window ended below threshold; stage 1 re-armed.
    Quiet {
        /// LLC misses seen in the window.
        misses: u64,
        /// Kernel time consumed.
        cost: Cycle,
    },
    /// Stage-1 window crossed the threshold; sampling armed.
    Armed {
        /// LLC misses seen in the window.
        misses: u64,
        /// The sampling filter chosen from the load fraction.
        filter: SampleFilter,
        /// Kernel time consumed.
        cost: Cycle,
    },
    /// Stage-2 window ended and was analyzed.
    Analyzed {
        /// The locality analysis result.
        report: LocalityReport,
        /// Victim rows to refresh (deduplicated), with a representative
        /// physical address for each.
        refreshes: Vec<(RowId, u64)>,
        /// Kernel time consumed (excluding the per-refresh reads).
        cost: Cycle,
    },
    /// Stage-2 window ended with evidence too damaged to trust; the
    /// degraded-protection fallback engaged.
    Degraded {
        /// The (untrusted) locality analysis of the surviving samples.
        report: LocalityReport,
        /// Victim rows from whatever the analysis still found.
        refreshes: Vec<(RowId, u64)>,
        /// Banks to blanket-refresh: those the surviving samples point
        /// at, or every bank when nothing survived.
        banks: Vec<BankId>,
        /// Kernel time consumed (excluding refreshes).
        cost: Cycle,
    },
}

/// The ANVIL detector.
///
/// Owned by the platform runner, which calls
/// [`service`](AnvilDetector::service) whenever the simulation clock
/// passes [`deadline`](AnvilDetector::deadline).
#[derive(Debug)]
pub struct AnvilDetector {
    config: AnvilConfig,
    refresh_period: Cycle,
    tc: Cycle,
    ts: Cycle,
    stage: DetectorStage,
    deadline: Cycle,
    stats: DetectorStats,
    dropped_at_arm: u64,
    /// EWMA-carried stage-1 miss evidence (hardening; 0 when disabled).
    /// Guarded: this is the cell a state-targeting attacker most wants to
    /// clear.
    carry: GuardedCell<f64>,
    /// Splitmix64 state for the window-phase jitter stream (guarded).
    phase_state: GuardedCell<u64>,
    /// Length of the current stage-1 window as a fraction of `tc` (the
    /// trip threshold scales with it so the armed *rate* is unchanged).
    /// Guarded.
    window_scale: GuardedCell<f64>,
    /// Cross-window per-row suspicion scores (hardening; its entries are
    /// guarded cells too).
    ledger: SuspicionLedger,
    /// Consecutive sticky-sampling re-arms in the current stage-2 run
    /// (guarded).
    resamples: GuardedCell<u32>,
    /// How guarded cells are read: majority-decode with scrubbing
    /// ([`GuardMode::Guarded`], the default) or blind replica-0 trust
    /// (the `selfdefense` campaign's baseline arm). Runtime policy, never
    /// checkpointed.
    guard: GuardMode,
    /// Corruptions found by scrubs and guarded accesses since the last
    /// [`take_state_corruptions`](Self::take_state_corruptions) drain.
    corruptions: Vec<StateCorruption>,
    /// Whether one of the four scalar cells may be sealed: set by
    /// [`corrupt_state_cell`](Self::corrupt_state_cell), cleared once a
    /// slice scrub leaves all four pristine. While it is clear, scrubbing
    /// them would find nothing, so
    /// [`scrub_state_slice`](Self::scrub_state_slice) skips them. The
    /// ledger keeps the same flag for its own cells.
    may_be_sealed: bool,
    /// The PEBS filter armed for the in-flight stage-2 window (carried by
    /// checkpoints so restore can re-arm the same facility).
    armed_filter: SampleFilter,
    /// [`config_hash`](crate::config_hash) of `config`, taken from the
    /// [`HashedConfig`] the detector was built or reconfigured with —
    /// checkpoints are written far too often to re-serialize the config
    /// each time.
    config_fingerprint: u64,
    /// Reusable stage-2 analysis buffers (translated samples, row groups,
    /// pids), so every stage-2 window reuses the previous one's
    /// allocations. Not part of the detector's logical state (never
    /// checkpointed).
    locality: LocalityScratch,
}

/// Records a corruption finding: counts it in the stats and queues it for
/// the policy layer to drain.
fn note_corruption(log: &mut Vec<StateCorruption>, stats: &mut DetectorStats, c: StateCorruption) {
    if c.repaired {
        stats.state_repairs = stats.state_repairs.saturating_add(1);
    } else {
        stats.state_escalations = stats.state_escalations.saturating_add(1);
    }
    log.push(c);
}

/// Non-mutating mode-aware read: majority-decode (guarded) or blind
/// replica-0 trust (unguarded). Used by `&self` paths like checkpointing.
fn read_cell<T: GuardedValue>(guard: GuardMode, cell: &GuardedCell<T>) -> T {
    match guard {
        GuardMode::Guarded => cell.peek(),
        GuardMode::Unguarded => cell.raw(),
    }
}

/// Reads a guarded cell under the active mode: scrub-verify then
/// majority-decode (guarded), or blind replica-0 trust (unguarded
/// baseline). Free function so callers can borrow disjoint detector
/// fields.
fn cell_load<T: GuardedValue>(
    guard: GuardMode,
    log: &mut Vec<StateCorruption>,
    stats: &mut DetectorStats,
    cell: &mut GuardedCell<T>,
    site: StateSite,
) -> T {
    match guard {
        GuardMode::Unguarded => cell.raw(),
        GuardMode::Guarded => {
            if let Some(c) = cell.scrub(site) {
                note_corruption(log, stats, c);
            }
            cell.peek()
        }
    }
}

/// Writes a guarded cell. In guarded mode the cell is scrubbed *first*,
/// so pre-existing corruption is reported before the write re-seals every
/// replica — never silently absorbed.
fn cell_store<T: GuardedValue>(
    guard: GuardMode,
    log: &mut Vec<StateCorruption>,
    stats: &mut DetectorStats,
    cell: &mut GuardedCell<T>,
    site: StateSite,
    value: T,
) {
    if guard == GuardMode::Guarded {
        if let Some(c) = cell.scrub(site) {
            note_corruption(log, stats, c);
        }
    }
    cell.store(value);
}

impl AnvilDetector {
    /// Creates the detector and arms stage 1 starting at `now`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`AnvilConfig::validate`].
    pub fn new(
        config: impl Into<HashedConfig>,
        clock: &CpuClock,
        refresh_period: Cycle,
        now: Cycle,
        pmu: &mut Pmu,
    ) -> Self {
        let hashed = config.into();
        let config = *hashed.config();
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid ANVIL config: {e}"));
        pmu.counter_mut(EventKind::LongestLatCacheMiss).clear();
        pmu.counter_mut(EventKind::MemLoadUopsRetiredLlcMiss)
            .clear();
        let tc = config.tc_cycles(clock);
        let ts = config.ts_cycles(clock);
        let mut det = AnvilDetector {
            config,
            refresh_period,
            tc,
            ts,
            stage: DetectorStage::MissCount,
            deadline: 0,
            stats: DetectorStats::default(),
            dropped_at_arm: 0,
            carry: GuardedCell::new(0.0),
            phase_state: GuardedCell::new(config.hardening.phase_seed),
            window_scale: GuardedCell::new(1.0),
            ledger: SuspicionLedger::new(),
            resamples: GuardedCell::new(0),
            guard: GuardMode::Guarded,
            corruptions: Vec::new(),
            may_be_sealed: false,
            armed_filter: SampleFilter::LoadsAndStores,
            config_fingerprint: hashed.hash(),
            locality: LocalityScratch::default(),
        };
        det.deadline = now + det.next_stage1_window();
        det
    }

    /// Draws the next stage-1 window length: `tc` exactly, or (hardened)
    /// `tc × [1 − j, 1 + j]` from the seeded jitter stream, so an
    /// adversary cannot synchronize bursts to window boundaries. Sets
    /// `window_scale` so the trip threshold scales in proportion.
    fn next_stage1_window(&mut self) -> Cycle {
        let h = self.config.hardening;
        if !h.enabled || h.phase_jitter <= 0.0 {
            cell_store(
                self.guard,
                &mut self.corruptions,
                &mut self.stats,
                &mut self.window_scale,
                StateSite::WindowScale,
                1.0,
            );
            return self.tc;
        }
        let mut phase = cell_load(
            self.guard,
            &mut self.corruptions,
            &mut self.stats,
            &mut self.phase_state,
            StateSite::PhaseState,
        );
        let scale = transition::draw_window_scale(&h, &mut phase);
        cell_store(
            self.guard,
            &mut self.corruptions,
            &mut self.stats,
            &mut self.phase_state,
            StateSite::PhaseState,
            phase,
        );
        cell_store(
            self.guard,
            &mut self.corruptions,
            &mut self.stats,
            &mut self.window_scale,
            StateSite::WindowScale,
            scale,
        );
        ((self.tc as f64 * scale) as Cycle).max(1)
    }

    /// The active configuration.
    pub fn config(&self) -> &AnvilConfig {
        &self.config
    }

    /// Time at which [`service`](Self::service) must next run.
    pub fn deadline(&self) -> Cycle {
        self.deadline
    }

    /// The current stage.
    pub fn stage(&self) -> DetectorStage {
        self.stage
    }

    /// Activity counters.
    pub fn stats(&self) -> &DetectorStats {
        &self.stats
    }

    /// Services the expired window at time `now`. `translate` resolves
    /// (pid, virtual address) to a physical address — the `task_struct`
    /// walk of the real kernel module.
    pub fn service(
        &mut self,
        now: Cycle,
        pmu: &mut Pmu,
        mapping: &AddressMapping,
        translate: &mut impl FnMut(u32, u64) -> Option<u64>,
    ) -> ServiceOutcome {
        debug_assert!(now >= self.deadline, "serviced before the deadline");
        // Watchdog: record every late service. On real hardware this is
        // the kernel thread running after its timer expired.
        let slip = now.saturating_sub(self.deadline);
        if slip > 0 {
            self.stats.missed_deadlines = self.stats.missed_deadlines.saturating_add(1);
            self.stats.worst_deadline_slip = self.stats.worst_deadline_slip.max(slip);
        }
        match self.stage {
            DetectorStage::MissCount => self.end_stage1(now, pmu),
            DetectorStage::Sampling => self.end_stage2(now, slip, pmu, mapping, translate),
        }
    }

    fn end_stage1(&mut self, now: Cycle, pmu: &mut Pmu) -> ServiceOutcome {
        self.stats.stage1_windows = self.stats.stage1_windows.saturating_add(1);
        let misses = pmu.counter(EventKind::LongestLatCacheMiss).read();
        let miss_loads = pmu.counter(EventKind::MemLoadUopsRetiredLlcMiss).read();

        // The trip test. Unhardened this is the paper's memoryless
        // `misses >= threshold`. Hardened, the window's rate-normalized
        // miss count joins an EWMA of previous windows' evidence, so an
        // attacker who duty-cycles bursts across window boundaries —
        // each window just under the threshold — accumulates to a trip
        // instead of resetting the counter.
        let h = self.config.hardening;
        let window_scale = cell_load(
            self.guard,
            &mut self.corruptions,
            &mut self.stats,
            &mut self.window_scale,
            StateSite::WindowScale,
        );
        let carry = cell_load(
            self.guard,
            &mut self.corruptions,
            &mut self.stats,
            &mut self.carry,
            StateSite::Carry,
        );
        let normalized = misses as f64 / window_scale;
        let step = transition::stage1_step(&h, self.config.llc_miss_threshold, carry, normalized);
        cell_store(
            self.guard,
            &mut self.corruptions,
            &mut self.stats,
            &mut self.carry,
            StateSite::Carry,
            step.next_carry,
        );
        if !step.tripped {
            self.restart_stage1(now, pmu);
            return ServiceOutcome::Quiet {
                misses,
                cost: self.config.costs.pmi,
            };
        }

        // Threshold crossed: arm stage 2 with the facility matching the
        // window's load/store mix.
        self.stats.threshold_crossings = self.stats.threshold_crossings.saturating_add(1);
        if step.via_carry {
            self.stats.carry_crossings = self.stats.carry_crossings.saturating_add(1);
        }
        let filter = transition::stage2_filter(&self.config, misses, miss_loads);
        pmu.counter_mut(EventKind::LongestLatCacheMiss).clear();
        pmu.counter_mut(EventKind::MemLoadUopsRetiredLlcMiss)
            .clear();
        pmu.enable_sampling(filter, now);
        // Snapshot the drop counter so end_stage2 can attribute losses to
        // this window alone.
        self.dropped_at_arm = pmu.sampler().samples_dropped();
        self.armed_filter = filter;
        self.stage = DetectorStage::Sampling;
        self.deadline = now + self.ts;
        ServiceOutcome::Armed {
            misses,
            filter,
            cost: self.config.costs.pmi + self.config.costs.stage2_arm,
        }
    }

    fn end_stage2(
        &mut self,
        now: Cycle,
        slip: Cycle,
        pmu: &mut Pmu,
        mapping: &AddressMapping,
        translate: &mut impl FnMut(u32, u64) -> Option<u64>,
    ) -> ServiceOutcome {
        self.stats.stage2_windows = self.stats.stage2_windows.saturating_add(1);
        let misses = pmu.counter(EventKind::LongestLatCacheMiss).read();
        pmu.disable_sampling();
        let lost = pmu
            .sampler()
            .samples_dropped()
            .saturating_sub(self.dropped_at_arm);

        // Keep DRAM-sourced samples and translate them to rows, reading
        // the records where the PEBS buffer holds them. Hardened
        // detectors weigh each sample by its activation evidence: a
        // latency under the row-miss cutoff means the load was served by
        // an already-open row buffer — camouflage filler that cannot be
        // hammering — and carries only `hit_weight` of a real miss.
        let h = self.config.hardening;
        let mut unresolved = 0u64;
        let samples = self.locality.clear_samples();
        pmu.sampler_mut().drain_with(|r| {
            if r.source != DataSource::Dram {
                return;
            }
            let Some(paddr) = translate(r.pid, r.vaddr) else {
                unresolved += 1;
                return;
            };
            samples.push(RowSample {
                row: mapping.location_of(paddr).row_id(),
                paddr,
                pid: r.pid,
                weight: transition::sample_weight(&h, r.latency),
            });
        });
        let usable = samples.len() as u64;
        self.stats.samples_analyzed = self.stats.samples_analyzed.saturating_add(usable);
        self.stats.samples_lost = self.stats.samples_lost.saturating_add(lost);
        self.stats.samples_unresolved = self.stats.samples_unresolved.saturating_add(unresolved);

        let config = self.config;
        let ledger = h.enabled.then_some(&mut self.ledger);
        let report = analyze_window(
            &config,
            &mut self.locality,
            misses,
            self.ts,
            self.refresh_period,
            ledger,
        );
        self.stats.ledger_flags = self
            .stats
            .ledger_flags
            .saturating_add(report.aggressors.iter().filter(|a| a.via_ledger).count() as u64);
        // The ledger scrubs its own cells as absorption touches them;
        // fold what it found into the detector's corruption accounting.
        for c in self.ledger.take_corruptions() {
            note_corruption(&mut self.corruptions, &mut self.stats, c);
        }

        // Victim rows: the neighbors of each aggressor, deduplicated,
        // excluding rows that are themselves aggressors (reading an
        // aggressor would be wasted work — it is being activated anyway).
        let mut refreshes: Vec<(RowId, u64)> = Vec::new();
        if report.detected() {
            self.stats.detections = self.stats.detections.saturating_add(1);
            for finding in &report.aggressors {
                for victim in finding
                    .row
                    .neighbors(self.config.victim_radius, mapping.geometry())
                {
                    if report.aggressors.iter().any(|a| a.row == victim)
                        || refreshes.iter().any(|(r, _)| *r == victim)
                    {
                        continue;
                    }
                    let paddr = mapping.address_of(DramLocation {
                        bank: victim.bank,
                        row: victim.row,
                        col: 0,
                    });
                    refreshes.push((victim, paddr));
                }
            }
            self.stats.selective_refreshes = self
                .stats
                .selective_refreshes
                .saturating_add(refreshes.len() as u64);
        }

        let cost = self.config.costs.pmi + self.config.costs.analysis;

        // Degraded-protection decision: this window only existed because
        // stage 1 saw hammer-capable miss traffic, so a verdict built on
        // mostly-lost evidence (or delivered far too late) cannot clear
        // it. Fall back to blanket bank refresh rather than skip.
        let evidence = usable + lost + unresolved;
        let survival = if evidence == 0 {
            1.0
        } else {
            usable as f64 / evidence as f64
        };
        let slip_limit = self.config.degraded.max_deadline_slip_frac * self.ts as f64;
        let compromised =
            survival < self.config.degraded.min_sample_survival || slip as f64 > slip_limit;
        if self.config.degraded.enabled && compromised {
            self.restart_stage1(now, pmu);
            self.stats.degraded_windows = self.stats.degraded_windows.saturating_add(1);
            let samples = self.locality.samples();
            let banks = if samples.is_empty() {
                // Nothing survived: every bank is suspect.
                (0..mapping.geometry().total_banks()).map(BankId).collect()
            } else {
                let mut banks: Vec<BankId> = samples.iter().map(|s| s.row.bank).collect();
                banks.sort_unstable_by_key(|b| b.0);
                banks.dedup();
                banks
            };
            self.stats.bank_refreshes =
                self.stats.bank_refreshes.saturating_add(banks.len() as u64);
            return ServiceOutcome::Degraded {
                report,
                refreshes,
                banks,
                cost,
            };
        }

        // Sticky sampling (hardened): the miss traffic that armed this
        // window collapsed to under half the trip rate before sampling
        // could attribute it — the signature of a burst straddling the
        // arm boundary. Returning to counting would hand a duty-cycled
        // attacker its quiet phase back; keep sampling instead (bounded,
        // so a benign phase change cannot pin the detector in stage 2).
        let resamples = cell_load(
            self.guard,
            &mut self.corruptions,
            &mut self.stats,
            &mut self.resamples,
            StateSite::Resamples,
        );
        if transition::sticky_resample(
            &h,
            report.detected(),
            misses,
            self.config.llc_miss_threshold,
            resamples,
        ) {
            cell_store(
                self.guard,
                &mut self.corruptions,
                &mut self.stats,
                &mut self.resamples,
                StateSite::Resamples,
                resamples + 1,
            );
            self.stats.resample_windows = self.stats.resample_windows.saturating_add(1);
            pmu.counter_mut(EventKind::LongestLatCacheMiss).clear();
            pmu.counter_mut(EventKind::MemLoadUopsRetiredLlcMiss)
                .clear();
            pmu.enable_sampling(SampleFilter::LoadsAndStores, now);
            self.dropped_at_arm = pmu.sampler().samples_dropped();
            self.armed_filter = SampleFilter::LoadsAndStores;
            self.deadline = now + self.ts;
            return ServiceOutcome::Armed {
                misses,
                filter: SampleFilter::LoadsAndStores,
                cost: self.config.costs.pmi + self.config.costs.stage2_arm,
            };
        }

        self.restart_stage1(now, pmu);
        ServiceOutcome::Analyzed {
            report,
            refreshes,
            cost,
        }
    }

    fn restart_stage1(&mut self, now: Cycle, pmu: &mut Pmu) {
        pmu.counter_mut(EventKind::LongestLatCacheMiss).clear();
        pmu.counter_mut(EventKind::MemLoadUopsRetiredLlcMiss)
            .clear();
        self.stage = DetectorStage::MissCount;
        cell_store(
            self.guard,
            &mut self.corruptions,
            &mut self.stats,
            &mut self.resamples,
            StateSite::Resamples,
            0,
        );
        let window = self.next_stage1_window();
        self.deadline = now + window;
    }

    /// Opens a quiet-run shadow for the event-driven engine: the three
    /// guarded scalars a stage-1-idle stretch evolves, decoded once so
    /// subsequent windows run on plain registers. Returns `None` unless
    /// the detector is idle in stage 1 (an armed stage-2 window must be
    /// serviced through the full path).
    ///
    /// The caller owns the shadow until it calls
    /// [`quiet_flush`](Self::quiet_flush); until then the guarded cells
    /// hold stale values and must not be read or scrubbed.
    pub fn quiet_shadow(&mut self) -> Option<QuietShadow> {
        if self.stage != DetectorStage::MissCount {
            return None;
        }
        let carry = cell_load(
            self.guard,
            &mut self.corruptions,
            &mut self.stats,
            &mut self.carry,
            StateSite::Carry,
        );
        let phase = cell_load(
            self.guard,
            &mut self.corruptions,
            &mut self.stats,
            &mut self.phase_state,
            StateSite::PhaseState,
        );
        let scale = cell_load(
            self.guard,
            &mut self.corruptions,
            &mut self.stats,
            &mut self.window_scale,
            StateSite::WindowScale,
        );
        Some(QuietShadow {
            carry,
            phase,
            scale,
        })
    }

    /// Whether a stage-1 window carrying `misses` would trip under the
    /// shadowed state. Pure: consumes no draws and mutates nothing, so
    /// the event engine can peek the decision and fall back to the full
    /// per-op service path for the tripping window itself.
    pub fn quiet_trips(&self, shadow: &QuietShadow, misses: u64) -> bool {
        let h = self.config.hardening;
        let normalized = misses as f64 / shadow.scale;
        transition::stage1_step(&h, self.config.llc_miss_threshold, shadow.carry, normalized)
            .tripped
    }

    /// Retires one non-tripping stage-1 window in closed form: the same
    /// slip accounting, EWMA step, and jitter draw as
    /// [`service`](Self::service) → `end_stage1` → `restart_stage1`,
    /// but against the shadow instead of the guarded cells and without
    /// touching the (known-zero) PMU counters. Returns the identical
    /// [`ServiceOutcome::Quiet`].
    ///
    /// The caller must have verified `!`[`quiet_trips`](Self::quiet_trips)
    /// for this window; a tripping window must go through the full path.
    pub fn quiet_step(
        &mut self,
        shadow: &mut QuietShadow,
        now: Cycle,
        misses: u64,
    ) -> ServiceOutcome {
        debug_assert_eq!(self.stage, DetectorStage::MissCount);
        debug_assert!(now >= self.deadline, "serviced before the deadline");
        let slip = now.saturating_sub(self.deadline);
        if slip > 0 {
            self.stats.missed_deadlines = self.stats.missed_deadlines.saturating_add(1);
            self.stats.worst_deadline_slip = self.stats.worst_deadline_slip.max(slip);
        }
        self.stats.stage1_windows = self.stats.stage1_windows.saturating_add(1);
        let h = self.config.hardening;
        let normalized = misses as f64 / shadow.scale;
        let step =
            transition::stage1_step(&h, self.config.llc_miss_threshold, shadow.carry, normalized);
        debug_assert!(!step.tripped, "tripping windows take the full path");
        shadow.carry = step.next_carry;
        // The shadow form of `next_stage1_window`: identical draws on
        // the same jitter stream, landing in registers instead of cells.
        let window = if !h.enabled || h.phase_jitter <= 0.0 {
            shadow.scale = 1.0;
            self.tc
        } else {
            let scale = transition::draw_window_scale(&h, &mut shadow.phase);
            shadow.scale = scale;
            ((self.tc as f64 * scale) as Cycle).max(1)
        };
        self.deadline = now + window;
        ServiceOutcome::Quiet {
            misses,
            cost: self.config.costs.pmi,
        }
    }

    /// Re-seals a quiet-run shadow into the guarded cells, ending the
    /// run. On pristine cells this is observationally identical to the
    /// per-window stores it replaces: replica state is a pure function
    /// of the stored value, and the sticky-sampling depth was already
    /// zero (every quiet window re-stores 0).
    pub fn quiet_flush(&mut self, shadow: &QuietShadow) {
        cell_store(
            self.guard,
            &mut self.corruptions,
            &mut self.stats,
            &mut self.carry,
            StateSite::Carry,
            shadow.carry,
        );
        cell_store(
            self.guard,
            &mut self.corruptions,
            &mut self.stats,
            &mut self.phase_state,
            StateSite::PhaseState,
            shadow.phase,
        );
        cell_store(
            self.guard,
            &mut self.corruptions,
            &mut self.stats,
            &mut self.window_scale,
            StateSite::WindowScale,
            shadow.scale,
        );
    }

    /// Materializes a checkpoint deferred during a quiet run into the
    /// full [`DetectorCheckpoint`] the per-window path would have
    /// written at that boundary. Valid while the quiet run is still
    /// open (or at its first flush point): the ledger, armed filter,
    /// and config fingerprint cannot have changed since the deferral,
    /// and every quiet boundary stores a sticky-sampling depth of zero.
    ///
    /// The ledger rows are written into `rows`, reusing its allocation,
    /// as in [`checkpoint_reusing`](Self::checkpoint_reusing).
    pub fn materialize_quiet_checkpoint(
        &self,
        q: &QuietCheckpoint,
        mut rows: Vec<LedgerRow>,
    ) -> DetectorCheckpoint {
        self.ledger.rows_into(&mut rows);
        DetectorCheckpoint {
            version: CHECKPOINT_VERSION,
            config_hash: self.config_fingerprint,
            sampling: false,
            armed_filter: self.armed_filter,
            deadline: q.deadline,
            stats: q.stats,
            carry: q.carry,
            phase_state: q.phase_state,
            window_scale: q.window_scale,
            pebs_jitter: q.pebs_jitter,
            ledger: rows,
            resamples: 0,
        }
    }

    /// The cross-window suspicion ledger (empty unless hardening is
    /// enabled).
    pub fn ledger(&self) -> &SuspicionLedger {
        &self.ledger
    }

    /// Switches between the self-defending guarded mode (default) and
    /// the blind unguarded baseline the `selfdefense` campaign measures
    /// against. Applies to every guarded cell including the ledger's.
    pub fn set_state_guard(&mut self, guarded: bool) {
        self.guard = if guarded {
            GuardMode::Guarded
        } else {
            GuardMode::Unguarded
        };
        self.ledger.set_guarded(guarded);
    }

    /// Whether guarded-mode reads and scrubbing are active.
    pub fn state_guarded(&self) -> bool {
        self.guard == GuardMode::Guarded
    }

    /// Number of guarded state cells right now: four fixed cells (carry,
    /// phase state, window scale, resamples) plus two per suspicion-ledger
    /// entry. Ledger churn changes the count between windows; injectors
    /// index modulo the current count.
    pub fn state_cell_count(&self) -> usize {
        4 + self.ledger.cell_count()
    }

    /// XORs one bit into the chosen replicas of state cell `index` (see
    /// [`state_cell_count`](Self::state_cell_count) for the layout and
    /// [`GuardedCell::corrupt`] for the bit/replica encoding). This is
    /// the injection surface shared by the software fault injector, the
    /// physical row map in `anvil-mem`, and the proptests. Returns the
    /// [`StateSite`] hit, or `None` for an out-of-range index.
    pub fn corrupt_state_cell(
        &mut self,
        index: usize,
        replica_mask: u8,
        bit: u8,
    ) -> Option<StateSite> {
        if index < 4 {
            self.may_be_sealed = true;
        }
        match index {
            0 => {
                self.carry.corrupt(replica_mask, bit);
                Some(StateSite::Carry)
            }
            1 => {
                self.phase_state.corrupt(replica_mask, bit);
                Some(StateSite::PhaseState)
            }
            2 => {
                self.window_scale.corrupt(replica_mask, bit);
                Some(StateSite::WindowScale)
            }
            3 => {
                self.resamples.corrupt(replica_mask, bit);
                Some(StateSite::Resamples)
            }
            i => self.ledger.corrupt_cell(i - 4, replica_mask, bit),
        }
    }

    /// One incremental scrub step: verifies (and repairs or escalates)
    /// every state cell whose index is congruent to `slice` modulo `of`,
    /// so a full pass over the detector's state completes every `of`
    /// windows. No-op in unguarded mode. Corruptions found are counted in
    /// the stats and queued for
    /// [`take_state_corruptions`](Self::take_state_corruptions).
    ///
    /// Only [`corrupt_state_cell`](Self::corrupt_state_cell) can leave a
    /// cell for a scrub to find, so until it is called the step does
    /// nothing at all.
    pub fn scrub_state_slice(&mut self, slice: u64, of: u64) {
        if self.guard != GuardMode::Guarded {
            return;
        }
        if self.may_be_sealed {
            self.scrub_scalar_cells(slice, of);
        }
        self.ledger.scrub_cells(slice, of, 4);
        for c in self.ledger.take_corruptions() {
            note_corruption(&mut self.corruptions, &mut self.stats, c);
        }
    }

    /// [`scrub_state_slice`](Self::scrub_state_slice)'s step over the
    /// four scalar cells, clearing `may_be_sealed` once all four are
    /// pristine.
    fn scrub_scalar_cells(&mut self, slice: u64, of: u64) {
        let of = of.max(1);
        let slice = slice % of;
        if 0 % of == slice {
            if let Some(c) = self.carry.scrub(StateSite::Carry) {
                note_corruption(&mut self.corruptions, &mut self.stats, c);
            }
        }
        if 1 % of == slice {
            if let Some(c) = self.phase_state.scrub(StateSite::PhaseState) {
                note_corruption(&mut self.corruptions, &mut self.stats, c);
            }
        }
        if 2 % of == slice {
            if let Some(c) = self.window_scale.scrub(StateSite::WindowScale) {
                note_corruption(&mut self.corruptions, &mut self.stats, c);
            }
        }
        if 3 % of == slice {
            if let Some(c) = self.resamples.scrub(StateSite::Resamples) {
                note_corruption(&mut self.corruptions, &mut self.stats, c);
            }
        }
        self.may_be_sealed = !(self.carry.pristine()
            && self.phase_state.pristine()
            && self.window_scale.pristine()
            && self.resamples.pristine());
    }

    /// Marks every state cell as possibly sealed, whatever
    /// [`corrupt_state_cell`](Self::corrupt_state_cell) recorded, so the
    /// next scrubs run in full: the always-scrub reference the scrub-skip
    /// equivalence tests compare against.
    #[doc(hidden)]
    pub fn mark_state_unverified(&mut self) {
        self.may_be_sealed = true;
        self.ledger.mark_unverified();
    }

    /// A full scrub pass over every state cell (campaign teardown and
    /// tests; the steady state uses
    /// [`scrub_state_slice`](Self::scrub_state_slice)).
    pub fn scrub_state_all(&mut self) {
        // Slice 0 of 1 is every cell, visited once in index order.
        self.scrub_state_slice(0, 1);
    }

    /// Drains the corruption reports accumulated since the last drain.
    /// The policy layer (supervisor / platform) maps `repaired` to a
    /// repair counter and `!repaired` to an escalation (cold restart from
    /// the last good checkpoint).
    pub fn take_state_corruptions(&mut self) -> Vec<StateCorruption> {
        std::mem::take(&mut self.corruptions)
    }

    /// Snapshots the full detector state.
    ///
    /// A checkpoint taken immediately after a [`service`](Self::service)
    /// call (i.e. at a window boundary, when the PMU counters hold no
    /// partial-window evidence) restores to a detector observationally
    /// identical to one that never stopped. PMU counter contents and the
    /// PEBS buffer are volatile hardware state and are deliberately not
    /// captured; the sampler's *programmed* jitter-stream position is.
    pub fn checkpoint(&self, pmu: &Pmu) -> DetectorCheckpoint {
        self.checkpoint_reusing(pmu, Vec::new())
    }

    /// [`checkpoint`](Self::checkpoint), writing the ledger rows into
    /// `rows` and reusing its allocation — for a writer that replaces its
    /// previous checkpoint with each new one, so the write allocates
    /// nothing once the buffer has grown to the ledger's size. A row's
    /// pids are inline ([`PidSet`](crate::PidSet)) unless it has more
    /// than three.
    pub fn checkpoint_reusing(&self, pmu: &Pmu, mut rows: Vec<LedgerRow>) -> DetectorCheckpoint {
        self.ledger.rows_into(&mut rows);
        DetectorCheckpoint {
            version: CHECKPOINT_VERSION,
            config_hash: self.config_fingerprint,
            sampling: self.stage == DetectorStage::Sampling,
            armed_filter: self.armed_filter,
            deadline: self.deadline,
            stats: self.stats,
            carry: read_cell(self.guard, &self.carry),
            phase_state: read_cell(self.guard, &self.phase_state),
            window_scale: read_cell(self.guard, &self.window_scale),
            pebs_jitter: pmu.sampler().jitter_state(),
            ledger: rows,
            resamples: read_cell(self.guard, &self.resamples),
        }
    }

    /// Restores this detector from a checkpoint, resuming at time `now`.
    /// The detector restored over is typically one that crashed: its
    /// ledger slots and scratch buffers are reused, and nothing else of
    /// its state survives.
    ///
    /// Refuses a checkpoint whose format version or config hash does not
    /// match ([`RuntimeError::VersionMismatch`] /
    /// [`RuntimeError::ConfigMismatch`]), leaving the detector untouched;
    /// the caller falls back to a cold start. PMU counters are cleared
    /// (their pre-crash contents are gone on real hardware too). If the
    /// checkpointed deadline is still in the future the interrupted
    /// window resumes — re-arming the saved PEBS filter when stage 2 was
    /// in flight — otherwise the downtime swallowed the window and stage
    /// 1 restarts fresh at `now` (the recovery protocol's blanket refresh
    /// covers what the lost window might have seen).
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`AnvilConfig::validate`] (same contract
    /// as [`new`](Self::new)).
    pub fn restore(
        &mut self,
        config: impl Into<HashedConfig>,
        clock: &CpuClock,
        refresh_period: Cycle,
        now: Cycle,
        pmu: &mut Pmu,
        ckpt: &DetectorCheckpoint,
    ) -> Result<(), RuntimeError> {
        if ckpt.version != CHECKPOINT_VERSION {
            return Err(RuntimeError::VersionMismatch {
                expected: CHECKPOINT_VERSION,
                found: ckpt.version,
            });
        }
        let hashed = config.into();
        let config = *hashed.config();
        let expected = hashed.hash();
        if ckpt.config_hash != expected {
            return Err(RuntimeError::ConfigMismatch {
                expected,
                found: ckpt.config_hash,
            });
        }
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid ANVIL config: {e}"));
        pmu.counter_mut(EventKind::LongestLatCacheMiss).clear();
        pmu.counter_mut(EventKind::MemLoadUopsRetiredLlcMiss)
            .clear();
        pmu.sampler_mut().set_jitter_state(ckpt.pebs_jitter);
        let mut ledger = std::mem::take(&mut self.ledger);
        ledger.restore_rows(&ckpt.ledger);
        let mut corruptions = std::mem::take(&mut self.corruptions);
        corruptions.clear();
        *self = AnvilDetector {
            config,
            refresh_period,
            tc: config.tc_cycles(clock),
            ts: config.ts_cycles(clock),
            stage: if ckpt.sampling {
                DetectorStage::Sampling
            } else {
                DetectorStage::MissCount
            },
            deadline: ckpt.deadline,
            stats: ckpt.stats,
            dropped_at_arm: 0,
            carry: GuardedCell::new(ckpt.carry),
            phase_state: GuardedCell::new(ckpt.phase_state),
            window_scale: GuardedCell::new(ckpt.window_scale),
            ledger,
            resamples: GuardedCell::new(ckpt.resamples),
            guard: GuardMode::Guarded,
            corruptions,
            may_be_sealed: false,
            armed_filter: ckpt.armed_filter,
            config_fingerprint: expected,
            locality: std::mem::take(&mut self.locality),
        };
        if self.deadline <= now {
            // The downtime gap swallowed the in-flight window.
            self.restart_stage1(now, pmu);
        } else if self.stage == DetectorStage::Sampling {
            pmu.enable_sampling(self.armed_filter, now);
            self.dropped_at_arm = pmu.sampler().samples_dropped();
        }
        Ok(())
    }

    /// Atomically swaps in a validated configuration at a stage-1 window
    /// boundary, preserving the suspicion ledger, EWMA carry, jitter
    /// stream position, and activity counters — a hot reload loses no
    /// accumulated evidence.
    ///
    /// Must be called between windows (stage 1, immediately after a
    /// service call); a reload while stage 2 is in flight is rejected so
    /// an armed sampling window is never torn down mid-observation.
    pub fn reconfigure(
        &mut self,
        config: impl Into<HashedConfig>,
        clock: &CpuClock,
        now: Cycle,
        pmu: &mut Pmu,
    ) -> Result<(), ConfigError> {
        if self.stage == DetectorStage::Sampling {
            return Err(ConfigError::Invalid(
                "hot reload must wait for the stage-2 window to end".to_owned(),
            ));
        }
        let hashed = config.into();
        let config = *hashed.config();
        config.validate()?;
        self.config = config;
        self.config_fingerprint = hashed.hash();
        self.tc = config.tc_cycles(clock);
        self.ts = config.ts_cycles(clock);
        // Carry is rate-normalized evidence in misses; it remains
        // meaningful across a threshold change, so keep it (conservative:
        // accumulated pressure is never forgotten by a reload).
        self.restart_stage1(now, pmu);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anvil_cache::HitLevel;
    use anvil_dram::DramGeometry;
    use anvil_mem::{AccessKind, AccessOutcome};
    use anvil_pmu::{RetiredOp, SamplerConfig};

    const CLOCK: CpuClock = CpuClock::SANDY_BRIDGE_2_6GHZ;
    const PERIOD: Cycle = 166_400_000;

    #[test]
    fn signature_buckets_by_magnitude_and_field() {
        let zero = DetectorStats::default();
        assert_eq!(zero.signature(), StateSignature(0));

        // A power-of-two change in one counter moves exactly one nibble.
        let a = DetectorStats {
            stage1_windows: 5, // bucket 3
            ..DetectorStats::default()
        };
        let mut b = a;
        b.stage1_windows = 11; // bucket 4
        assert_ne!(a.signature(), b.signature());
        assert_eq!(a.signature().0 & !0xF, b.signature().0 & !0xF);

        // Same magnitudes in *different* fields must not collide.
        let c = DetectorStats {
            detections: 5,
            ..DetectorStats::default()
        };
        assert_ne!(a.signature(), c.signature());

        // Within-bucket jitter collides on purpose.
        let mut d = a;
        d.stage1_windows = 7; // still bucket 3
        assert_eq!(a.signature(), d.signature());

        // The top 16 bits stay free for caller flags.
        let all = DetectorStats {
            stage1_windows: u64::MAX,
            samples_lost: u64::MAX,
            ..DetectorStats::default()
        };
        assert_eq!(all.signature().0 >> 48, 0);
    }

    fn detector(pmu: &mut Pmu) -> AnvilDetector {
        AnvilDetector::new(AnvilConfig::baseline(), &CLOCK, PERIOD, 0, pmu)
    }

    fn miss_op(vaddr: u64, pid: u32) -> RetiredOp {
        RetiredOp {
            vaddr,
            pid,
            outcome: AccessOutcome {
                paddr: vaddr, // identity-mapped for tests
                kind: AccessKind::Read,
                level: HitLevel::Memory,
                advance: 184,
                dram: None,
            },
        }
    }

    #[test]
    fn quiet_window_restarts_stage1() {
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let mut det = detector(&mut pmu);
        let d1 = det.deadline();
        // A handful of misses: below 20K.
        for i in 0..100u64 {
            pmu.observe_at(&miss_op(i * 4096, 1), i * 1000);
        }
        let mapping = AddressMapping::new(DramGeometry::ddr3_4gb());
        let out = det.service(d1, &mut pmu, &mapping, &mut |_, v| Some(v));
        assert!(matches!(out, ServiceOutcome::Quiet { misses: 100, .. }));
        assert_eq!(det.stage(), DetectorStage::MissCount);
        assert_eq!(det.deadline(), d1 + det.config().tc_cycles(&CLOCK));
        assert_eq!(det.stats().threshold_crossings, 0);
    }

    #[test]
    fn threshold_crossing_arms_sampling_with_loads_only() {
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let mut det = detector(&mut pmu);
        for i in 0..25_000u64 {
            pmu.observe_at(&miss_op(i * 64, 1), i * 400);
        }
        let d1 = det.deadline();
        let out = det.service(
            d1,
            &mut pmu,
            &AddressMapping::new(DramGeometry::ddr3_4gb()),
            &mut |_, v| Some(v),
        );
        match out {
            ServiceOutcome::Armed { misses, filter, .. } => {
                assert_eq!(misses, 25_000);
                assert_eq!(filter, SampleFilter::LoadsOnly);
            }
            other => panic!("expected Armed, got {other:?}"),
        }
        assert_eq!(det.stage(), DetectorStage::Sampling);
    }

    #[test]
    fn full_cycle_detects_a_synthetic_attack() {
        let mapping = AddressMapping::new(DramGeometry::ddr3_4gb());
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let mut det = detector(&mut pmu);

        // Two aggressor addresses two rows apart in one bank.
        let base = mapping.address_of(DramLocation {
            bank: anvil_dram::BankId(2),
            row: 500,
            col: 0,
        });
        // Fall back to the row below if the base ever sits at the top of
        // its bank — `same_bank_row_offset` returns None past the edge.
        let above = mapping
            .same_bank_row_offset(base, 2)
            .or_else(|| mapping.same_bank_row_offset(base, -2))
            .expect("row 500 cannot be at both ends of its bank");

        // Stage 1: hammer-level miss traffic on the two aggressors.
        let mut t = 0u64;
        while t < det.deadline() {
            pmu.observe_at(&miss_op(base, 7), t);
            pmu.observe_at(&miss_op(above, 7), t + 200);
            t += 400;
        }
        let out = det.service(det.deadline(), &mut pmu, &mapping, &mut |_, v| Some(v));
        assert!(matches!(out, ServiceOutcome::Armed { .. }));

        // Stage 2: same traffic while sampling.
        let end = det.deadline();
        while t < end {
            pmu.observe_at(&miss_op(base, 7), t);
            pmu.observe_at(&miss_op(above, 7), t + 200);
            t += 400;
        }
        let out = det.service(end, &mut pmu, &mapping, &mut |_, v| Some(v));
        match out {
            ServiceOutcome::Analyzed {
                report, refreshes, ..
            } => {
                assert!(report.detected(), "attack must be flagged: {report:?}");
                // The victim row between the aggressors must be refreshed.
                let victim = mapping.location_of(base).row + 1;
                assert!(
                    refreshes.iter().any(|(r, _)| r.row == victim),
                    "sandwiched victim missing from {refreshes:?}"
                );
                // No aggressor row is refreshed.
                for (r, _) in &refreshes {
                    assert_ne!(r.row, mapping.location_of(base).row);
                    assert_ne!(r.row, mapping.location_of(above).row);
                }
            }
            other => panic!("expected Analyzed, got {other:?}"),
        }
        assert_eq!(det.stats().detections, 1);
        assert!(det.stats().selective_refreshes >= 2);
        assert_eq!(det.stage(), DetectorStage::MissCount);
    }

    #[test]
    fn boundary_row_attack_stays_in_bounds() {
        // Aggressors at the very top of a bank: victim refreshes must be
        // clamped to the bank, never panic or run past the last row.
        let mapping = AddressMapping::new(DramGeometry::ddr3_4gb());
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let mut det = detector(&mut pmu);

        let last = mapping.geometry().rows_per_bank - 1;
        let base = mapping.address_of(DramLocation {
            bank: anvil_dram::BankId(1),
            row: last,
            col: 0,
        });
        let below = mapping
            .same_bank_row_offset(base, 2)
            .or_else(|| mapping.same_bank_row_offset(base, -2))
            .expect("bank has more than two rows");

        let mut t = 0u64;
        while t < det.deadline() {
            pmu.observe_at(&miss_op(base, 7), t);
            pmu.observe_at(&miss_op(below, 7), t + 200);
            t += 400;
        }
        assert!(matches!(
            det.service(det.deadline(), &mut pmu, &mapping, &mut |_, v| Some(v)),
            ServiceOutcome::Armed { .. }
        ));
        let end = det.deadline();
        while t < end {
            pmu.observe_at(&miss_op(base, 7), t);
            pmu.observe_at(&miss_op(below, 7), t + 200);
            t += 400;
        }
        match det.service(end, &mut pmu, &mapping, &mut |_, v| Some(v)) {
            ServiceOutcome::Analyzed {
                report, refreshes, ..
            } => {
                assert!(report.detected(), "boundary attack must be flagged");
                assert!(!refreshes.is_empty());
                for (r, _) in &refreshes {
                    assert!(r.row < mapping.geometry().rows_per_bank);
                }
                // The sandwiched victim (one below the top row) is there.
                assert!(refreshes.iter().any(|(r, _)| r.row == last - 1));
            }
            other => panic!("expected Analyzed, got {other:?}"),
        }
    }

    #[test]
    fn late_service_trips_the_watchdog() {
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let mut det = detector(&mut pmu);
        let mapping = AddressMapping::new(DramGeometry::ddr3_4gb());
        let d1 = det.deadline();
        det.service(d1 + 5_000, &mut pmu, &mapping, &mut |_, v| Some(v));
        assert_eq!(det.stats().missed_deadlines, 1);
        assert_eq!(det.stats().worst_deadline_slip, 5_000);
        // An on-time service leaves the watchdog untouched.
        det.service(det.deadline(), &mut pmu, &mapping, &mut |_, v| Some(v));
        assert_eq!(det.stats().missed_deadlines, 1);
    }

    #[test]
    fn benign_stage2_produces_no_refreshes() {
        let mapping = AddressMapping::new(DramGeometry::ddr3_4gb());
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let mut det = detector(&mut pmu);

        // Streaming traffic: sequential lines, high miss count.
        let mut t = 0u64;
        let mut addr = 0u64;
        while t < det.deadline() {
            pmu.observe_at(&miss_op(addr, 3), t);
            addr += 64;
            t += 400;
        }
        assert!(matches!(
            det.service(det.deadline(), &mut pmu, &mapping, &mut |_, v| Some(v)),
            ServiceOutcome::Armed { .. }
        ));
        let end = det.deadline();
        while t < end {
            pmu.observe_at(&miss_op(addr, 3), t);
            addr += 64;
            t += 400;
        }
        match det.service(end, &mut pmu, &mapping, &mut |_, v| Some(v)) {
            ServiceOutcome::Analyzed {
                report, refreshes, ..
            } => {
                assert!(!report.detected(), "streaming flagged: {report:?}");
                assert!(refreshes.is_empty());
            }
            other => panic!("expected Analyzed, got {other:?}"),
        }
    }

    #[test]
    fn untranslatable_samples_trigger_degraded_mode() {
        let mapping = AddressMapping::new(DramGeometry::ddr3_4gb());
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let mut det = detector(&mut pmu);
        let mut t = 0u64;
        while t < det.deadline() {
            pmu.observe_at(&miss_op(64, 9), t);
            pmu.observe_at(&miss_op(64 + (1 << 18), 9), t + 200);
            t += 400;
        }
        det.service(det.deadline(), &mut pmu, &mapping, &mut |_, _| None);
        let end = det.deadline();
        while t < end {
            pmu.observe_at(&miss_op(64, 9), t);
            t += 400;
        }
        // Translation always fails: no usable evidence survives the
        // window, so the fallback blankets every bank.
        match det.service(end, &mut pmu, &mapping, &mut |_, _| None) {
            ServiceOutcome::Degraded { report, banks, .. } => {
                assert_eq!(report.total_samples, 0);
                assert!(!report.detected());
                assert_eq!(banks.len() as u32, mapping.geometry().total_banks());
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
        assert_eq!(det.stats().degraded_windows, 1);
        assert!(det.stats().samples_unresolved > 0);
        assert_eq!(
            det.stats().bank_refreshes,
            u64::from(mapping.geometry().total_banks())
        );
    }

    #[test]
    fn ewma_carry_trips_on_persistent_subthreshold_windows() {
        // 15K misses per window: forever-quiet for the paper's detector,
        // but the hardened EWMA accumulates 15K → 22.5K ≥ 20K and arms
        // by the second window.
        let mapping = AddressMapping::new(DramGeometry::ddr3_4gb());
        let run = |cfg: AnvilConfig| {
            let mut pmu = Pmu::new(SamplerConfig::anvil_default());
            let mut det = AnvilDetector::new(cfg, &CLOCK, PERIOD, 0, &mut pmu);
            for _ in 0..4 {
                if det.stage() == DetectorStage::Sampling {
                    break;
                }
                for i in 0..15_000u64 {
                    pmu.observe_at(&miss_op(i * 64, 1), det.deadline() - 1);
                }
                det.service(det.deadline(), &mut pmu, &mapping, &mut |_, v| Some(v));
            }
            *det.stats()
        };
        let baseline = run(AnvilConfig::baseline());
        assert_eq!(baseline.threshold_crossings, 0);
        let mut hardened = AnvilConfig::hardened();
        hardened.hardening.phase_jitter = 0.0; // exact window arithmetic
        let stats = run(hardened);
        assert_eq!(stats.threshold_crossings, 1);
        assert_eq!(
            stats.carry_crossings, 1,
            "the trip must be attributed to the carry, not the raw count"
        );
    }

    #[test]
    fn hardened_window_lengths_are_jittered_and_seeded() {
        let mapping = AddressMapping::new(DramGeometry::ddr3_4gb());
        let windows = |seed: u64| -> Vec<Cycle> {
            let mut cfg = AnvilConfig::hardened();
            cfg.hardening.phase_seed = seed;
            let mut pmu = Pmu::new(SamplerConfig::anvil_default());
            let mut det = AnvilDetector::new(cfg, &CLOCK, PERIOD, 0, &mut pmu);
            let mut lens = Vec::new();
            let mut last = 0;
            for _ in 0..8 {
                lens.push(det.deadline() - last);
                last = det.deadline();
                det.service(det.deadline(), &mut pmu, &mapping, &mut |_, v| Some(v));
            }
            lens
        };
        let tc = AnvilConfig::baseline().tc_cycles(&CLOCK);
        let a = windows(1);
        for &w in &a {
            assert!(w >= (tc as f64 * 0.74) as Cycle && w <= (tc as f64 * 1.26) as Cycle);
        }
        assert!(
            a.windows(2).any(|p| p[0] != p[1]),
            "lengths must actually vary: {a:?}"
        );
        assert_eq!(a, windows(1), "same seed, same schedule");
        assert_ne!(a, windows(2), "different seed, different schedule");
        // Unhardened windows stay exactly tc.
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let det = AnvilDetector::new(AnvilConfig::baseline(), &CLOCK, PERIOD, 0, &mut pmu);
        assert_eq!(det.deadline(), tc);
    }

    #[test]
    fn silent_stage2_after_a_trip_keeps_sampling_when_hardened() {
        // A burst trips stage 1, then goes quiet: the paper detector
        // samples 6 ms of silence, concedes, and hands the attacker its
        // next quiet phase. The hardened detector re-arms sampling up to
        // `max_resample_windows` consecutive times before giving up.
        let mapping = AddressMapping::new(DramGeometry::ddr3_4gb());
        let mut cfg = AnvilConfig::hardened();
        cfg.hardening.phase_jitter = 0.0;
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let mut det = AnvilDetector::new(cfg, &CLOCK, PERIOD, 0, &mut pmu);
        for i in 0..25_000u64 {
            pmu.observe_at(&miss_op(i * 64, 1), det.deadline() - 1);
        }
        assert!(matches!(
            det.service(det.deadline(), &mut pmu, &mapping, &mut |_, v| Some(v)),
            ServiceOutcome::Armed { .. }
        ));
        // Four silent stage-2 windows: each re-arms sampling.
        for k in 0..4 {
            let out = det.service(det.deadline(), &mut pmu, &mapping, &mut |_, v| Some(v));
            assert!(
                matches!(out, ServiceOutcome::Armed { misses: 0, .. }),
                "resample {k}: {out:?}"
            );
            assert_eq!(det.stage(), DetectorStage::Sampling);
        }
        // Cap reached: the fifth silent window returns to counting.
        assert!(matches!(
            det.service(det.deadline(), &mut pmu, &mapping, &mut |_, v| Some(v)),
            ServiceOutcome::Analyzed { .. }
        ));
        assert_eq!(det.stage(), DetectorStage::MissCount);
        assert_eq!(det.stats().resample_windows, 4);

        // The paper baseline concedes after one silent window.
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let mut det = detector(&mut pmu);
        for i in 0..25_000u64 {
            pmu.observe_at(&miss_op(i * 64, 1), det.deadline() - 1);
        }
        det.service(det.deadline(), &mut pmu, &mapping, &mut |_, v| Some(v));
        assert!(matches!(
            det.service(det.deadline(), &mut pmu, &mapping, &mut |_, v| Some(v)),
            ServiceOutcome::Analyzed { .. }
        ));
        assert_eq!(det.stage(), DetectorStage::MissCount);
        assert_eq!(det.stats().resample_windows, 0);
    }

    /// Feeds `misses` identity-mapped LLC misses before the deadline and
    /// services the window.
    /// A detector restored from `ckpt` at `now` over a new one.
    fn restore_fresh(
        config: AnvilConfig,
        now: Cycle,
        pmu: &mut Pmu,
        ckpt: &DetectorCheckpoint,
    ) -> Result<AnvilDetector, RuntimeError> {
        let mut det = AnvilDetector::new(config, &CLOCK, PERIOD, 0, pmu);
        det.restore(config, &CLOCK, PERIOD, now, pmu, ckpt)
            .map(|()| det)
    }

    fn feed_and_service(det: &mut AnvilDetector, pmu: &mut Pmu, misses: u64) -> ServiceOutcome {
        let mapping = AddressMapping::new(DramGeometry::ddr3_4gb());
        let deadline = det.deadline();
        for i in 0..misses {
            pmu.observe_at(&miss_op((i % 512) * 64, 1), deadline.saturating_sub(1));
        }
        det.service(deadline, pmu, &mapping, &mut |_, v| Some(v))
    }

    #[test]
    fn checkpoint_restore_round_trips_at_a_window_boundary() {
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let mut det = AnvilDetector::new(AnvilConfig::hardened(), &CLOCK, PERIOD, 0, &mut pmu);
        // Accumulate some state: a quiet window (carry), a trip, a silent
        // stage-2 window.
        feed_and_service(&mut det, &mut pmu, 15_000);
        feed_and_service(&mut det, &mut pmu, 25_000);
        let ckpt = det.checkpoint(&pmu);

        let mut pmu2 = Pmu::new(SamplerConfig::anvil_default());
        let restored = restore_fresh(
            AnvilConfig::hardened(),
            ckpt.deadline.saturating_sub(1),
            &mut pmu2,
            &ckpt,
        )
        .unwrap();
        assert_eq!(restored.stage(), det.stage());
        assert_eq!(restored.deadline(), det.deadline());
        assert_eq!(restored.stats(), det.stats());
        assert_eq!(restored.ledger(), det.ledger());
        assert_eq!(restored.carry, det.carry);
        assert_eq!(restored.phase_state, det.phase_state);
        assert_eq!(restored.resamples, det.resamples);
        // And the encoded form round-trips byte-for-byte.
        let decoded = DetectorCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(decoded, ckpt);
    }

    #[test]
    fn restore_rejects_a_different_config() {
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let det = AnvilDetector::new(AnvilConfig::hardened(), &CLOCK, PERIOD, 0, &mut pmu);
        let ckpt = det.checkpoint(&pmu);
        let err = restore_fresh(AnvilConfig::baseline(), 0, &mut pmu, &ckpt).unwrap_err();
        assert!(matches!(err, RuntimeError::ConfigMismatch { .. }));
    }

    #[test]
    fn restore_past_the_deadline_restarts_stage1_and_keeps_evidence() {
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let mut det = AnvilDetector::new(AnvilConfig::hardened(), &CLOCK, PERIOD, 0, &mut pmu);
        feed_and_service(&mut det, &mut pmu, 15_000); // quiet, carry > 0
        let ckpt = det.checkpoint(&pmu);
        let gap_end = ckpt.deadline + 50_000_000; // downtime ate the window
        let mut pmu2 = Pmu::new(SamplerConfig::anvil_default());
        let restored = restore_fresh(
            AnvilConfig::hardened(),
            gap_end,
            &mut pmu2,
            &restored_ckpt(&ckpt),
        )
        .unwrap();
        assert_eq!(restored.stage(), DetectorStage::MissCount);
        assert!(restored.deadline() > gap_end);
        assert_eq!(restored.carry, det.carry, "EWMA evidence survives");
        assert_eq!(restored.stats().stage1_windows, 1);
    }

    /// Round-trips a checkpoint through its byte encoding (exercises the
    /// wire format on every restore-path test).
    fn restored_ckpt(ckpt: &DetectorCheckpoint) -> DetectorCheckpoint {
        DetectorCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap()
    }

    #[test]
    fn mid_sampling_restore_rearms_the_saved_filter() {
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let mut det = AnvilDetector::new(AnvilConfig::baseline(), &CLOCK, PERIOD, 0, &mut pmu);
        let out = feed_and_service(&mut det, &mut pmu, 25_000);
        let ServiceOutcome::Armed { filter, .. } = out else {
            panic!("expected Armed, got {out:?}");
        };
        assert_eq!(det.stage(), DetectorStage::Sampling);
        let ckpt = det.checkpoint(&pmu);
        assert!(ckpt.sampling);
        assert_eq!(ckpt.armed_filter, filter);
        let mut pmu2 = Pmu::new(SamplerConfig::anvil_default());
        let restored = restore_fresh(
            AnvilConfig::baseline(),
            ckpt.deadline - det.config().ts_cycles(&CLOCK) / 2,
            &mut pmu2,
            &ckpt,
        )
        .unwrap();
        assert_eq!(restored.stage(), DetectorStage::Sampling);
        assert!(pmu2.sampler().enabled(), "sampling must be re-armed");
    }

    #[test]
    fn reconfigure_swaps_config_and_keeps_the_ledger() {
        let mapping = AddressMapping::new(DramGeometry::ddr3_4gb());
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let mut det = AnvilDetector::new(AnvilConfig::hardened(), &CLOCK, PERIOD, 0, &mut pmu);
        // Build ledger evidence with a full attack cycle.
        let base = mapping.address_of(DramLocation {
            bank: anvil_dram::BankId(2),
            row: 500,
            col: 0,
        });
        let above = mapping.same_bank_row_offset(base, 2).unwrap();
        let mut t = 0u64;
        while t < det.deadline() {
            pmu.observe_at(&miss_op(base, 7), t);
            pmu.observe_at(&miss_op(above, 7), t + 200);
            t += 400;
        }
        det.service(det.deadline(), &mut pmu, &mapping, &mut |_, v| Some(v));
        let end = det.deadline();
        while t < end {
            pmu.observe_at(&miss_op(base, 7), t);
            pmu.observe_at(&miss_op(above, 7), t + 200);
            t += 400;
        }
        det.service(end, &mut pmu, &mapping, &mut |_, v| Some(v));
        assert_eq!(det.stage(), DetectorStage::MissCount);
        let ledger_before = det.ledger().clone();
        let stats_before = *det.stats();
        assert!(!ledger_before.is_empty(), "attack must leave evidence");

        let mut hot = AnvilConfig::hardened();
        hot.llc_miss_threshold = 15_000;
        det.reconfigure(hot, &CLOCK, end, &mut pmu).unwrap();
        assert_eq!(det.config().llc_miss_threshold, 15_000);
        assert_eq!(det.ledger(), &ledger_before, "reload keeps the ledger");
        assert_eq!(det.stats(), &stats_before);
        assert!(det.deadline() > end);

        // An invalid config is rejected and nothing changes.
        let mut bad = AnvilConfig::hardened();
        bad.llc_miss_threshold = 0;
        assert!(det.reconfigure(bad, &CLOCK, end, &mut pmu).is_err());
        assert_eq!(det.config().llc_miss_threshold, 15_000);
    }

    #[test]
    fn full_scrub_matches_one_slice_per_cell() {
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let det = AnvilDetector::new(AnvilConfig::hardened(), &CLOCK, PERIOD, 0, &mut pmu);
        let mut ckpt = det.checkpoint(&pmu);
        ckpt.ledger = (0..6)
            .map(|i| LedgerRow {
                row: RowId::new(BankId(i % 3), 100 + i),
                score: 1500.0 * f64::from(i + 1),
                windows: u64::from(i + 2),
                pids: vec![7, i].into(),
            })
            .collect();
        let corrupted = || {
            let mut pmu = Pmu::new(SamplerConfig::anvil_default());
            let mut det = restore_fresh(AnvilConfig::hardened(), 0, &mut pmu, &ckpt).unwrap();
            // Repairable and unrepairable damage in scalar and ledger
            // cells, word and seal bits alike.
            for (cell, mask, bit) in [
                (0, 0b001, 3),
                (2, 0b111, 70),
                (3, 0b010, 64),
                (4, 0b100, 40),
                (7, 0b111, 1),
                (9, 0b011, 12),
                (15, 0b001, 127),
            ] {
                assert!(det.corrupt_state_cell(cell, mask, bit).is_some());
            }
            det
        };
        let mut full = corrupted();
        full.scrub_state_all();
        let mut sliced = corrupted();
        let cells = sliced.state_cell_count() as u64;
        for slice in 0..cells {
            sliced.scrub_state_slice(slice, cells);
        }
        let reports = full.take_state_corruptions();
        assert_eq!(reports.len(), 7);
        assert_eq!(reports, sliced.take_state_corruptions());
        assert_eq!(full.stats(), sliced.stats());
        assert_eq!(full.checkpoint(&pmu), sliced.checkpoint(&pmu));
    }

    #[test]
    fn reconfigure_refuses_mid_sampling() {
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let mut det = AnvilDetector::new(AnvilConfig::baseline(), &CLOCK, PERIOD, 0, &mut pmu);
        feed_and_service(&mut det, &mut pmu, 25_000);
        assert_eq!(det.stage(), DetectorStage::Sampling);
        let err = det
            .reconfigure(AnvilConfig::hardened(), &CLOCK, det.deadline(), &mut pmu)
            .unwrap_err();
        assert!(matches!(err, ConfigError::Invalid(_)));
    }

    #[test]
    fn disabled_fallback_restores_the_silent_skip() {
        let mapping = AddressMapping::new(DramGeometry::ddr3_4gb());
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let mut cfg = AnvilConfig::baseline();
        cfg.degraded.enabled = false;
        let mut det = AnvilDetector::new(cfg, &CLOCK, PERIOD, 0, &mut pmu);
        let mut t = 0u64;
        while t < det.deadline() {
            pmu.observe_at(&miss_op(64, 9), t);
            t += 200;
        }
        det.service(det.deadline(), &mut pmu, &mapping, &mut |_, _| None);
        let end = det.deadline();
        while t < end {
            pmu.observe_at(&miss_op(64, 9), t);
            t += 400;
        }
        // With the fallback off, a fully-lost window is still just an
        // Analyzed-and-empty verdict (the pre-fault-model behaviour).
        match det.service(end, &mut pmu, &mapping, &mut |_, _| None) {
            ServiceOutcome::Analyzed { report, .. } => assert!(!report.detected()),
            other => panic!("expected Analyzed, got {other:?}"),
        }
        assert_eq!(det.stats().degraded_windows, 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use anvil_dram::DramGeometry;
    use anvil_pmu::SamplerConfig;
    use proptest::prelude::*;

    const CLOCK: CpuClock = CpuClock::SANDY_BRIDGE_2_6GHZ;
    const PERIOD: Cycle = 166_400_000;

    fn miss_op(vaddr: u64, pid: u32) -> anvil_pmu::RetiredOp {
        anvil_pmu::RetiredOp {
            vaddr,
            pid,
            outcome: anvil_mem::AccessOutcome {
                paddr: vaddr,
                kind: anvil_mem::AccessKind::Read,
                level: anvil_cache::HitLevel::Memory,
                advance: 184,
                dram: None,
            },
        }
    }

    /// Feeds one window of `misses` LLC misses spread over the window and
    /// services it at the deadline. Addresses concentrate on a small row
    /// set so some windows detect and exercise the ledger.
    fn drive_window(det: &mut AnvilDetector, pmu: &mut Pmu, misses: u64, start: Cycle) -> Cycle {
        let mapping = AddressMapping::new(DramGeometry::ddr3_4gb());
        let deadline = det.deadline();
        let span = deadline.saturating_sub(start).max(1);
        let step = (span / misses.max(1)).max(1);
        for i in 0..misses {
            let t = (start + i * step).min(deadline - 1);
            let vaddr = (i % 4) * (1 << 16);
            pmu.observe_at(&miss_op(vaddr, 5), t);
        }
        det.service(deadline, pmu, &mapping, &mut |_, v| Some(v));
        deadline
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `checkpoint → to_bytes → from_bytes → restore → run` is
        /// bit-identical to an uninterrupted run over the same trace: a
        /// crash-restart at any window boundary loses nothing the
        /// checkpoint carries.
        #[test]
        fn restart_is_observationally_identical(
            menu_picks in prop::collection::vec(0usize..5, 2..7),
            cut in 0usize..5,
            hardened in any::<bool>(),
        ) {
            // Window miss counts spanning quiet, carry-building, and
            // arming traffic.
            let menu = [0u64, 700, 15_000, 19_500, 26_000];
            let windows: Vec<u64> = menu_picks.iter().map(|&i| menu[i]).collect();
            let config = if hardened {
                AnvilConfig::hardened()
            } else {
                AnvilConfig::baseline()
            };
            let cut = cut.min(windows.len() - 1);

            // Uninterrupted run.
            let mut pmu_a = Pmu::new(SamplerConfig::anvil_default());
            let mut a = AnvilDetector::new(config, &CLOCK, PERIOD, 0, &mut pmu_a);
            let mut start = 0;
            for &m in &windows {
                start = drive_window(&mut a, &mut pmu_a, m, start);
            }

            // Interrupted run: crash after window `cut`, restore from the
            // serialized checkpoint into a fresh PMU, continue.
            let mut pmu_b = Pmu::new(SamplerConfig::anvil_default());
            let mut b = AnvilDetector::new(config, &CLOCK, PERIOD, 0, &mut pmu_b);
            let mut start_b = 0;
            for &m in &windows[..=cut] {
                start_b = drive_window(&mut b, &mut pmu_b, m, start_b);
            }
            let bytes = b.checkpoint(&pmu_b).to_bytes();
            let ckpt = DetectorCheckpoint::from_bytes(&bytes).unwrap();
            // The restart restores over the crashed detector, reusing
            // its buffers.
            let mut pmu_b = Pmu::new(SamplerConfig::anvil_default());
            b.restore(config, &CLOCK, PERIOD, start_b, &mut pmu_b, &ckpt)
                .unwrap();
            for &m in &windows[cut + 1..] {
                start_b = drive_window(&mut b, &mut pmu_b, m, start_b);
            }

            prop_assert_eq!(start, start_b, "service times must line up");
            prop_assert_eq!(a.stage(), b.stage());
            prop_assert_eq!(a.deadline(), b.deadline());
            prop_assert_eq!(a.stats(), b.stats());
            prop_assert_eq!(a.ledger(), b.ledger());
            // The full serialized states agree byte for byte.
            prop_assert_eq!(a.checkpoint(&pmu_a).to_bytes(), b.checkpoint(&pmu_b).to_bytes());
        }
    }
}
