//! The supervisor loop: crash capture, bounded-backoff restart, and
//! checkpoint-based recovery.
//!
//! The real ANVIL kernel module runs under the kernel's own lifecycle
//! management: a panic in the detector thread kills it, a watchdog or
//! operator reloads it, and the module resumes from whatever state it
//! persisted. [`Supervisor`] reproduces that loop around
//! [`AnvilDetector`]:
//!
//! * a crash drawn by the [`LifecycleInjector`] is a returned value
//!   that goes straight to recovery, and every other service call runs
//!   under [`std::panic::catch_unwind`], so a genuine detector panic is
//!   contained the same way instead of unwinding the host;
//! * after a crash the supervisor waits out a bounded exponential
//!   backoff, then restores from the last checkpoint bytes — falling
//!   back to a **cold start** when the checkpoint is corrupt,
//!   version-mismatched, or from a different config — and reports the
//!   downtime gap so the caller can run the recovery protocol's blanket
//!   refresh over it;
//! * hot reloads are queued and applied atomically at the next stage-1
//!   window boundary via [`AnvilDetector::reconfigure`], never tearing
//!   down an armed stage-2 window and never losing ledger evidence.
//!
//! The supervisor deliberately does **not** own the DRAM: selective and
//! blanket refreshes are physical actions of the platform hosting it, so
//! recovery reports say *what* must be refreshed and the caller applies
//! it (the soak engine in [`crate::soak`] does exactly that).

use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};

use anvil_core::{
    AnvilConfig, AnvilDetector, ConfigError, DetectorCheckpoint, DetectorStage, HashedConfig,
    QuietCheckpoint, QuietShadow, RuntimeError, ServiceOutcome, StateCorruption, StateSite,
};
use anvil_dram::{AddressMapping, CpuClock, Cycle};
use anvil_faults::{hash64, AtRestFault, LifecycleInjector, ServiceDraws};
use anvil_pmu::Pmu;
use serde::{Deserialize, Serialize};

/// Supervisor policy: restart budget, backoff bounds, checkpoint cadence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RuntimeConfig {
    /// Consecutive crashes tolerated before the supervisor gives up with
    /// [`RuntimeError::RestartBudgetExhausted`]. A successful service
    /// resets the count.
    pub restart_budget: u32,
    /// Downtime of the first restart, in cycles.
    pub backoff_base: Cycle,
    /// Downtime ceiling, in cycles: backoff doubles per consecutive
    /// crash up to this bound. Keep it under the envelope's
    /// [`downtime_budget`](anvil_core::GuaranteeEnvelope::downtime_budget)
    /// or a crash-timed attacker can flip bits inside the gap.
    pub backoff_cap: Cycle,
    /// Checkpoint every N successful services (window boundaries).
    pub checkpoint_every: u32,
    /// Slices the incremental self-state scrub divides the detector's
    /// cells into: each service verifies one slice, so every cell is
    /// checked at least once per `scrub_slices` windows. Defaults to 4.
    #[serde(default = "default_scrub_slices")]
    pub scrub_slices: u64,
    /// Whether the detector's state cells run guarded (replicated,
    /// checksummed, scrubbed — the default) or unguarded (blind replica-0
    /// reads, the ablation baseline). Re-applied after every restart, so
    /// a restore never silently re-arms the guard on a baseline run.
    #[serde(default = "default_guard_state")]
    pub guard_state: bool,
    /// Seed for deterministic restart-backoff jitter; `0` (the default)
    /// disables jitter. Co-resident domains on one machine must use
    /// *distinct* seeds so a correlated outage does not restart every
    /// detector at the same instant (thundering herd): jitter subtracts
    /// up to a quarter of the nominal gap, keeping every gap within the
    /// `backoff_cap`.
    #[serde(default)]
    pub jitter_seed: u64,
}

fn default_scrub_slices() -> u64 {
    4
}

fn default_guard_state() -> bool {
    true
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            restart_budget: 32,
            backoff_base: 50_000,
            // 4M cycles ≈ 1.5 ms at 2.6 GHz: a quarter of the hardened
            // envelope's ~16.8M-cycle downtime budget.
            backoff_cap: 4_000_000,
            checkpoint_every: 1,
            scrub_slices: default_scrub_slices(),
            guard_state: default_guard_state(),
            jitter_seed: 0,
        }
    }
}

/// Supervisor activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuntimeStats {
    /// Service attempts (successful or crashed).
    pub services: u64,
    /// Detector crashes: injected ones and captured panics.
    pub crashes: u64,
    /// Restarts performed (each crash under budget restarts once).
    pub restarts: u64,
    /// Restarts that could not resume from a checkpoint and cold-started.
    pub cold_starts: u64,
    /// Checkpoints written.
    pub checkpoints_written: u64,
    /// Checkpoint writes corrupted at rest by the injected fault.
    pub checkpoints_corrupted: u64,
    /// Checkpoint writes torn mid-write (only a prefix persisted).
    pub checkpoints_torn: u64,
    /// Restores that rejected the stored checkpoint (corrupt, version or
    /// config mismatch, undecodable).
    pub checkpoint_rejections: u64,
    /// Hot reloads applied at a window boundary.
    pub reloads: u64,
    /// Service calls where a queued reload had to wait for an armed
    /// stage-2 window to end.
    pub reloads_deferred: u64,
    /// Services delayed by an injected stall.
    pub stalled_services: u64,
    /// Detector state-cell corruptions repaired in place by majority
    /// vote (scrub pass or guarded read).
    #[serde(default)]
    pub state_repairs: u64,
    /// Unrepairable state-cell corruptions escalated to a cold restart
    /// from the last good checkpoint.
    #[serde(default)]
    pub state_escalations: u64,
    /// Largest single crash-to-resume downtime gap, in cycles.
    pub worst_recovery_gap: Cycle,
    /// Sum of all downtime gaps, in cycles.
    pub total_downtime: Cycle,
}

/// What happened after a crash: the gap the recovery protocol must cover.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// When the detector died (the stalled service time).
    pub crashed_at: Cycle,
    /// When the restarted detector resumed watching.
    pub resumed_at: Cycle,
    /// `resumed_at − crashed_at`: the unobserved downtime. The caller
    /// must blanket-refresh every bank over this gap before trusting the
    /// no-flip guarantee again.
    pub gap: Cycle,
    /// Whether recovery fell back to a cold start (no usable checkpoint).
    pub cold_start: bool,
    /// Why the stored checkpoint was rejected, when it was.
    pub checkpoint_error: Option<RuntimeError>,
}

/// The result of one supervised service call.
#[derive(Debug, Clone, PartialEq)]
pub enum SupervisedOutcome {
    /// The detector serviced its window normally.
    Serviced {
        /// The detector's verdict.
        outcome: ServiceOutcome,
        /// When the service actually ran (deadline plus any injected
        /// stall).
        serviced_at: Cycle,
    },
    /// The detector crashed; it has been restarted and the caller must
    /// apply the recovery protocol (blanket refresh over the gap).
    Restarted(RecoveryReport),
}

/// A checkpoint as held in (simulated) stable storage: the snapshot that
/// was written, plus the at-rest fault the write drew, if any.
///
/// Nothing is encoded at write time. A clean checkpoint stays decoded
/// for good: a [`DetectorCheckpoint`] round-trips bit-exactly through
/// its byte encoding (`from_bytes(to_bytes(c)) == Ok(c)`, pinned by the
/// checkpoint tests), so the snapshot stands in for its bytes. A faulted
/// one is encoded only when a restart reads it back, and the fault is
/// applied then ([`AtRestFault::apply`]); the write already drew every
/// fault word and counted the fault. Most faulted writes are overwritten
/// by the next write before any restart, so their bytes are never built.
#[derive(Debug)]
struct StoredCheckpoint {
    ckpt: DetectorCheckpoint,
    fault: Option<AtRestFault>,
}

impl StoredCheckpoint {
    /// The checkpoint a restart reads back: the snapshot itself when the
    /// write was clean, else the decode of its faulted bytes.
    fn read_back(&self) -> Result<Cow<'_, DetectorCheckpoint>, RuntimeError> {
        let Some(fault) = self.fault else {
            return Ok(Cow::Borrowed(&self.ckpt));
        };
        let mut bytes = self.ckpt.to_bytes();
        fault.apply(&mut bytes);
        DetectorCheckpoint::from_bytes(&bytes).map(Cow::Owned)
    }
}

/// Supervised detector runtime: owns the live [`AnvilDetector`], its
/// checkpoint bytes, the queued hot reload, and the lifecycle fault
/// injector.
#[derive(Debug)]
pub struct Supervisor {
    /// The active configuration, hashed once per config: every restore
    /// and cold start compares or stamps the hash.
    config: HashedConfig,
    runtime: RuntimeConfig,
    clock: CpuClock,
    refresh_period: Cycle,
    detector: AnvilDetector,
    /// Last checkpoint as written to (simulated) stable storage — what a
    /// restart reads back, so at-rest corruption is visible to recovery
    /// exactly once.
    checkpoint: Option<StoredCheckpoint>,
    pending_reload: Option<HashedConfig>,
    faults: Option<LifecycleInjector>,
    stats: RuntimeStats,
    services_since_checkpoint: u32,
    consecutive_crashes: u32,
    scrub_cursor: u64,
    /// Typed corruption reports retained for
    /// [`drain_state_corruptions`](Self::drain_state_corruptions); empty
    /// unless something is actually corrupting state cells.
    corruption_log: Vec<StateCorruption>,
    /// The event-driven engine's open quiet-run shadow: while `Some`, the
    /// detector's guarded carry/phase/scale cells are stale and the shadow
    /// holds the live values. Flushed by [`sync_quiet`](Self::sync_quiet)
    /// before anything observes detector state.
    quiet: Option<QuietShadow>,
    /// A checkpoint write deferred by the quiet path: the snapshot's
    /// fields and the write's at-rest fault, materialized into a
    /// [`StoredCheckpoint`] only when something could read it back (a
    /// crash, a fallback, run end).
    deferred_checkpoint: Option<(QuietCheckpoint, Option<AtRestFault>)>,
    /// Whether no external corruption has ever been landed on the
    /// detector's state cells ([`corrupt_state_cell`]); while true, a
    /// scrub slice over the cells is a guaranteed no-op and the quiet
    /// path advances the scrub cursor without touching them.
    ///
    /// [`corrupt_state_cell`]: Self::corrupt_state_cell
    state_pristine: bool,
}

impl Supervisor {
    /// Boots a detector under supervision at time `now` and writes its
    /// first checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`AnvilConfig::validate`] (same contract
    /// as [`AnvilDetector::new`]).
    pub fn new(
        config: impl Into<HashedConfig>,
        runtime: RuntimeConfig,
        clock: CpuClock,
        refresh_period: Cycle,
        now: Cycle,
        pmu: &mut Pmu,
    ) -> Self {
        let config = config.into();
        let mut detector = AnvilDetector::new(config, &clock, refresh_period, now, pmu);
        detector.set_state_guard(runtime.guard_state);
        let mut sup = Supervisor {
            config,
            runtime,
            clock,
            refresh_period,
            detector,
            checkpoint: None,
            pending_reload: None,
            faults: None,
            stats: RuntimeStats::default(),
            services_since_checkpoint: 0,
            consecutive_crashes: 0,
            scrub_cursor: 0,
            corruption_log: Vec::new(),
            quiet: None,
            deferred_checkpoint: None,
            state_pristine: true,
        };
        sup.write_checkpoint(pmu);
        sup
    }

    /// Installs (or clears) the lifecycle fault injector. Draws happen in
    /// a fixed order — stall, crash, then one corruption draw per
    /// checkpoint write — so a given injector stream replays the same
    /// schedule.
    pub fn set_faults(&mut self, faults: Option<LifecycleInjector>) {
        self.faults = faults;
    }

    /// The live detector.
    pub fn detector(&self) -> &AnvilDetector {
        &self.detector
    }

    /// The next service deadline.
    pub fn deadline(&self) -> Cycle {
        self.detector.deadline()
    }

    /// Supervisor counters.
    pub fn stats(&self) -> &RuntimeStats {
        &self.stats
    }

    /// The active configuration.
    pub fn config(&self) -> &AnvilConfig {
        self.config.config()
    }

    /// Queues a validated configuration for atomic swap-in at the next
    /// stage-1 window boundary. Rejects invalid configs immediately; a
    /// valid one replaces any previously queued reload.
    pub fn request_reload(&mut self, config: AnvilConfig) -> Result<(), ConfigError> {
        config.validate()?;
        self.pending_reload = Some(HashedConfig::new(config));
        Ok(())
    }

    /// Whether a reload is queued but not yet applied.
    pub fn reload_pending(&self) -> bool {
        self.pending_reload.is_some()
    }

    /// Services the expired window at `now` (the deadline) under
    /// supervision: injects stalls and crashes, captures panics, and
    /// recovers.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::RestartBudgetExhausted`] when consecutive crashes
    /// exceed [`RuntimeConfig::restart_budget`]; the detector is left in
    /// its pre-crash state and the supervisor stops restarting.
    pub fn service(
        &mut self,
        now: Cycle,
        pmu: &mut Pmu,
        mapping: &AddressMapping,
        translate: &mut impl FnMut(u32, u64) -> Option<u64>,
    ) -> Result<SupervisedOutcome, RuntimeError> {
        // Leaving the quiet fast path: make the detector's cells and the
        // stored checkpoint current before the full machinery looks.
        self.sync_quiet();
        // Self-integrity pass first: verify one slice of the detector's
        // own cells before trusting it with another window. Consumes no
        // fault draws, so lifecycle schedules are unchanged; unrepairable
        // state escalates to a cold restart from the last good checkpoint
        // instead of servicing with untrusted decisions.
        if let Some(out) = self.scrub_self_state(now, pmu) {
            return Ok(out);
        }
        let stall = self
            .faults
            .as_mut()
            .map_or(0, LifecycleInjector::stall_cycles);
        if stall > 0 {
            self.stats.stalled_services = self.stats.stalled_services.saturating_add(1);
        }
        let crash = self
            .faults
            .as_mut()
            .is_some_and(LifecycleInjector::crash_now);
        let at = now + stall;
        self.stats.services = self.stats.services.saturating_add(1);
        // An injected crash strikes before the detector runs, so it is
        // recovered from directly; unwinding is left to genuine panics.
        if crash {
            return self.recover(at, pmu);
        }

        let detector = &mut self.detector;
        let result = catch_unwind(AssertUnwindSafe(|| {
            detector.service(at, pmu, mapping, translate)
        }));
        match result {
            Ok(outcome) => {
                self.consecutive_crashes = 0;
                let reloaded = self.apply_pending_reload(at, pmu);
                self.services_since_checkpoint = self.services_since_checkpoint.saturating_add(1);
                if reloaded || self.services_since_checkpoint >= self.runtime.checkpoint_every {
                    self.write_checkpoint(pmu);
                }
                Ok(SupervisedOutcome::Serviced {
                    outcome,
                    serviced_at: at,
                })
            }
            Err(_) => self.recover(at, pmu),
        }
    }

    /// The event-driven engine's quiet-window fast path: services a
    /// stage-1 window whose miss total is already known **without**
    /// `catch_unwind`, guarded-cell traffic, PMU counter reads, or
    /// checkpoint serialization — those costs dominate
    /// [`service`](Self::service) and none of them is observable across a
    /// benign window. Carry/phase/scale live in a register-resident
    /// [`QuietShadow`]; clean checkpoint writes are deferred and
    /// materialized lazily by [`sync_quiet`](Self::sync_quiet).
    ///
    /// Returns `None` when this window needs the full path (detector not
    /// in stage 1, the window would trip, a reload is queued, or state
    /// cells are no longer pristine) — the caller then invokes `service`
    /// with identical arguments and gets a byte-identical outcome, with
    /// every lifecycle fault draw consumed in the same order
    /// ([`LifecycleInjector::service_draws`] is shared by both paths).
    ///
    /// # Errors
    ///
    /// As [`service`](Self::service): `Some(Err(_))` when an injected
    /// crash exhausts the restart budget.
    pub fn service_quiet(
        &mut self,
        now: Cycle,
        misses: u64,
        pmu: &mut Pmu,
    ) -> Option<Result<SupervisedOutcome, RuntimeError>> {
        if !self.state_pristine || self.pending_reload.is_some() {
            self.sync_quiet();
            return None;
        }
        if self.quiet.is_none() {
            // Opens a shadow only in stage 1 (miss counting).
            self.quiet = self.detector.quiet_shadow();
        }
        let shadow = self.quiet.as_ref()?;
        // Peek the trip decision before consuming any draw: a tripping
        // window takes the full path, which re-derives the same decision
        // from the flushed cells.
        if self.detector.quiet_trips(shadow, misses) {
            self.sync_quiet();
            return None;
        }
        // The scrub slice over pristine cells finds nothing by
        // construction; only the cursor advance is observable.
        if self.runtime.guard_state {
            self.scrub_cursor = (self.scrub_cursor + 1) % self.runtime.scrub_slices.max(1);
        }
        let draws = self.faults.as_mut().map_or(
            ServiceDraws {
                stall: 0,
                crash: false,
            },
            LifecycleInjector::service_draws,
        );
        if draws.stall > 0 {
            self.stats.stalled_services = self.stats.stalled_services.saturating_add(1);
        }
        let at = now + draws.stall;
        self.stats.services = self.stats.services.saturating_add(1);
        if draws.crash {
            // The detector is replaced (or, on budget exhaustion, left in
            // its pre-crash state for inspection): flush the shadow and
            // materialize the deferred checkpoint first, so recovery reads
            // exactly what the per-op path would have persisted.
            self.sync_quiet();
            return Some(self.recover(at, pmu));
        }
        let mut shadow = self.quiet.take().expect("checked above");
        let outcome = self.detector.quiet_step(&mut shadow, at, misses);
        self.quiet = Some(shadow);
        self.consecutive_crashes = 0;
        self.services_since_checkpoint = self.services_since_checkpoint.saturating_add(1);
        if self.services_since_checkpoint >= self.runtime.checkpoint_every {
            self.defer_checkpoint(pmu);
        }
        Some(Ok(SupervisedOutcome::Serviced {
            outcome,
            serviced_at: at,
        }))
    }

    /// Closes the quiet fast path: flushes the shadow back into the
    /// detector's guarded cells and materializes any deferred clean
    /// checkpoint. Idempotent; a no-op when the fast path is not open.
    fn sync_quiet(&mut self) {
        if let Some(shadow) = self.quiet.take() {
            self.detector.quiet_flush(&shadow);
        }
        if let Some((q, fault)) = self.deferred_checkpoint.take() {
            let rows = self.take_checkpoint_rows();
            self.checkpoint = Some(StoredCheckpoint {
                ckpt: self.detector.materialize_quiet_checkpoint(&q, rows),
                fault,
            });
        }
    }

    /// The quiet path's checkpoint write: draws the at-rest fault exactly
    /// as [`write_checkpoint`](Self::write_checkpoint) does, but defers
    /// the (dominant) snapshot construction — a deferred checkpoint is
    /// observationally identical because only a restore ever reads it,
    /// and `sync_quiet` materializes it before any restore can happen.
    fn defer_checkpoint(&mut self, pmu: &Pmu) {
        let shadow = self.quiet.as_ref().expect("quiet path is open");
        let q = QuietCheckpoint {
            deadline: self.detector.deadline(),
            stats: *self.detector.stats(),
            carry: shadow.carry,
            phase_state: shadow.phase,
            window_scale: shadow.scale,
            pebs_jitter: pmu.sampler().jitter_state(),
        };
        let fault = self.draw_at_rest_fault();
        self.deferred_checkpoint = Some((q, fault));
        self.services_since_checkpoint = 0;
    }

    /// Crash path: bounded-backoff restart from the stored checkpoint
    /// bytes, cold start when they are unusable.
    fn recover(
        &mut self,
        crashed_at: Cycle,
        pmu: &mut Pmu,
    ) -> Result<SupervisedOutcome, RuntimeError> {
        self.stats.crashes = self.stats.crashes.saturating_add(1);
        self.consecutive_crashes = self.consecutive_crashes.saturating_add(1);
        if self.consecutive_crashes > self.runtime.restart_budget {
            return Err(RuntimeError::RestartBudgetExhausted {
                restarts: self.consecutive_crashes,
                budget: self.runtime.restart_budget,
            });
        }
        let gap = self.backoff(self.consecutive_crashes);
        Ok(SupervisedOutcome::Restarted(
            self.restart_from_checkpoint(crashed_at, gap, pmu),
        ))
    }

    /// Shared restart machinery: restore from the stored checkpoint at
    /// `crashed_at + gap` (cold start when it is unusable), charge the
    /// downtime, re-apply the state-guard mode, and write a fresh
    /// checkpoint. Used by both the crash path and the self-corruption
    /// escalation path so downtime accounting is identical.
    fn restart_from_checkpoint(
        &mut self,
        crashed_at: Cycle,
        gap: Cycle,
        pmu: &mut Pmu,
    ) -> RecoveryReport {
        let resumed_at = crashed_at + gap;
        // The crashed detector is restored over, so its ledger slots and
        // buffers are reused; a refused checkpoint leaves it untouched
        // for the cold start to replace.
        let restored = self
            .checkpoint
            .as_ref()
            .ok_or(RuntimeError::CheckpointUndecodable)
            .and_then(StoredCheckpoint::read_back)
            .and_then(|ckpt| {
                self.detector.restore(
                    self.config,
                    &self.clock,
                    self.refresh_period,
                    resumed_at,
                    pmu,
                    &ckpt,
                )
            });
        let (cold_start, checkpoint_error) = match restored {
            Ok(()) => (false, None),
            Err(e) => {
                self.stats.checkpoint_rejections =
                    self.stats.checkpoint_rejections.saturating_add(1);
                self.detector = AnvilDetector::new(
                    self.config,
                    &self.clock,
                    self.refresh_period,
                    resumed_at,
                    pmu,
                );
                (true, Some(e))
            }
        };
        // Restored detectors boot guarded; the baseline arm must stay
        // unguarded across restarts.
        self.detector.set_state_guard(self.runtime.guard_state);
        self.stats.restarts = self.stats.restarts.saturating_add(1);
        if cold_start {
            self.stats.cold_starts = self.stats.cold_starts.saturating_add(1);
        }
        self.stats.total_downtime = self.stats.total_downtime.saturating_add(gap);
        self.stats.worst_recovery_gap = self.stats.worst_recovery_gap.max(gap);
        // Replace the (possibly corrupt) stored checkpoint with a fresh
        // snapshot of the recovered state.
        self.write_checkpoint(pmu);
        RecoveryReport {
            crashed_at,
            resumed_at,
            gap,
            cold_start,
            checkpoint_error,
        }
    }

    /// Runs this service's slice of the incremental state scrub and
    /// accounts every surfaced corruption: repaired ones are counted and
    /// absorbed, an unrepairable one escalates to a cold restart from the
    /// last good checkpoint (returned as a [`SupervisedOutcome::Restarted`]
    /// whose gap the caller's recovery protocol must cover, exactly like
    /// a crash). Returns `None` when the detector state is trusted and
    /// the window service should proceed.
    fn scrub_self_state(&mut self, now: Cycle, pmu: &mut Pmu) -> Option<SupervisedOutcome> {
        if !self.runtime.guard_state {
            return None;
        }
        let slices = self.runtime.scrub_slices.max(1);
        self.detector.scrub_state_slice(self.scrub_cursor, slices);
        self.scrub_cursor = (self.scrub_cursor + 1) % slices;
        let escalate = self.fold_corruptions();
        if !escalate {
            return None;
        }
        // The live state lied to us once; none of it is trusted. Pay one
        // base backoff of declared downtime and reload the last good
        // checkpoint.
        let gap = self.backoff(1);
        Some(SupervisedOutcome::Restarted(
            self.restart_from_checkpoint(now, gap, pmu),
        ))
    }

    /// Drains the detector's typed corruption reports into the runtime
    /// counters and the retained log, returning whether any report was
    /// unrepairable (the caller escalates).
    fn fold_corruptions(&mut self) -> bool {
        let mut escalate = false;
        for c in self.detector.take_state_corruptions() {
            if c.repaired {
                self.stats.state_repairs = self.stats.state_repairs.saturating_add(1);
            } else {
                self.stats.state_escalations = self.stats.state_escalations.saturating_add(1);
                escalate = true;
            }
            self.corruption_log.push(c);
        }
        escalate
    }

    /// Drains the typed [`StateCorruption`] reports accumulated by the
    /// incremental scrub (and by guarded in-service reads) since the
    /// last drain. Campaigns reconcile these against the corruption they
    /// injected, so "repaired or escalated, never silently absorbed" is
    /// checkable per site rather than inferred from counters.
    pub fn drain_state_corruptions(&mut self) -> Vec<StateCorruption> {
        std::mem::take(&mut self.corruption_log)
    }

    /// End-of-run integrity sweep: scrubs every state cell at once,
    /// folds anything found into the counters (an unrepairable cell at
    /// teardown is counted as an escalation but no longer restarts —
    /// the run is over), and returns the full retained corruption log.
    pub fn scrub_state_final(&mut self) -> Vec<StateCorruption> {
        self.sync_quiet();
        if self.runtime.guard_state {
            self.detector.scrub_state_all();
            self.fold_corruptions();
        }
        self.drain_state_corruptions()
    }

    /// Exponential backoff for the `n`-th consecutive crash, clamped to
    /// `[backoff_base, backoff_cap]`, minus deterministic seeded jitter
    /// (up to a quarter of the nominal gap) when `jitter_seed` is set —
    /// co-resident domains seeded distinctly restart at distinct
    /// instants after a correlated outage instead of thundering back in
    /// lockstep.
    fn backoff(&self, n: u32) -> Cycle {
        let doublings = n.saturating_sub(1).min(32);
        let nominal = self
            .runtime
            .backoff_base
            .saturating_mul(1u64 << doublings)
            .min(self.runtime.backoff_cap)
            .max(1);
        if self.runtime.jitter_seed == 0 {
            return nominal;
        }
        let jitter = hash64(self.runtime.jitter_seed ^ u64::from(n)) % (nominal / 4 + 1);
        (nominal - jitter).max(1)
    }

    /// Applies the queued reload if the detector sits at a stage-1
    /// boundary; returns whether a swap happened.
    fn apply_pending_reload(&mut self, now: Cycle, pmu: &mut Pmu) -> bool {
        let Some(config) = self.pending_reload else {
            return false;
        };
        if self.detector.stage() != DetectorStage::MissCount {
            self.stats.reloads_deferred = self.stats.reloads_deferred.saturating_add(1);
            return false;
        }
        self.detector
            .reconfigure(config, &self.clock, now, pmu)
            .expect("queued reload was validated and the stage checked");
        self.config = config;
        self.pending_reload = None;
        self.stats.reloads = self.stats.reloads.saturating_add(1);
        true
    }

    /// Snapshots the live detector to stored-checkpoint form, with the
    /// at-rest fault the write draws (see [`StoredCheckpoint`]).
    fn write_checkpoint(&mut self, pmu: &Pmu) {
        let rows = self.take_checkpoint_rows();
        let ckpt = self.detector.checkpoint_reusing(pmu, rows);
        let fault = self.draw_at_rest_fault();
        self.checkpoint = Some(StoredCheckpoint { ckpt, fault });
        self.services_since_checkpoint = 0;
    }

    /// The ledger rows of the stored checkpoint a write is about to
    /// replace, for the new snapshot to overwrite in place.
    fn take_checkpoint_rows(&mut self) -> Vec<anvil_core::LedgerRow> {
        self.checkpoint
            .take()
            .map(|stored| stored.ckpt.ledger)
            .unwrap_or_default()
    }

    /// Counts one checkpoint write and draws its at-rest corruption and
    /// tear on every write, in the injector's fixed order (a disabled
    /// source consumes nothing), counting each fault that fires.
    fn draw_at_rest_fault(&mut self) -> Option<AtRestFault> {
        self.stats.checkpoints_written = self.stats.checkpoints_written.saturating_add(1);
        let fault = self.faults.as_mut()?.at_rest_fault()?;
        if fault.corrupts() {
            self.stats.checkpoints_corrupted = self.stats.checkpoints_corrupted.saturating_add(1);
        }
        if fault.tears() {
            self.stats.checkpoints_torn = self.stats.checkpoints_torn.saturating_add(1);
        }
        Some(fault)
    }

    /// Forces the next service call to crash (consuming no probabilistic
    /// draw), modelling an external kill such as a machine outage. A
    /// no-op when no injector is installed.
    pub fn force_crash(&mut self) {
        if let Some(faults) = self.faults.as_mut() {
            faults.force_crash();
        }
    }

    /// Number of addressable state cells in the live detector (scalar
    /// accumulators plus two per ledger entry); the index space for
    /// [`Supervisor::corrupt_state_cell`].
    pub fn state_cell_count(&self) -> usize {
        self.detector.state_cell_count()
    }

    /// Flips `bit` in the replicas selected by `replica_mask` of state
    /// cell `index` — the hook the self-defense campaign uses to land
    /// physically modelled disturbance flips on the supervised detector's
    /// own state. Returns the site hit, or `None` if `index` is out of
    /// range.
    pub fn corrupt_state_cell(
        &mut self,
        index: usize,
        replica_mask: u8,
        bit: u8,
    ) -> Option<StateSite> {
        // Corruption must land on the real cells, and from here on the
        // quiet path's "scrubs find nothing" shortcut is off for good.
        self.sync_quiet();
        self.state_pristine = false;
        self.detector.corrupt_state_cell(index, replica_mask, bit)
    }
}

/// Replaces the process panic hook with one that stays silent.
///
/// Injected detector crashes do not need it: the supervisor recovers
/// from them without unwinding. It silences the report of a genuine
/// panic that [`Supervisor::service`] or a campaign's cell executor
/// catches and turns into a recovery or a failed cell, for binaries
/// that run many cells and want one line per failure rather than a
/// report each. It silences every other panic too, so unit tests should
/// leave the default hook installed.
pub fn install_quiet_panic_hook() {
    std::panic::set_hook(Box::new(|_| {}));
}

#[cfg(test)]
mod tests {
    use super::*;
    use anvil_dram::DramGeometry;
    use anvil_faults::{FaultRng, LifecycleFaults};
    use anvil_pmu::SamplerConfig;

    const CLOCK: CpuClock = CpuClock::SANDY_BRIDGE_2_6GHZ;
    const PERIOD: Cycle = 166_400_000;

    fn boot(pmu: &mut Pmu) -> Supervisor {
        Supervisor::new(
            AnvilConfig::hardened(),
            RuntimeConfig::default(),
            CLOCK,
            PERIOD,
            0,
            pmu,
        )
    }

    fn crashy(crash_rate: f64) -> LifecycleInjector {
        LifecycleInjector::new(
            LifecycleFaults {
                crash_rate,
                stall_rate: 0.0,
                max_stall: 0,
                corrupt_rate: 0.0,
            },
            FaultRng::new(11).fork(5),
        )
    }

    #[test]
    fn faultless_supervision_is_transparent() {
        let mapping = AddressMapping::new(DramGeometry::ddr3_4gb());
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let mut sup = boot(&mut pmu);
        for _ in 0..5 {
            let d = sup.deadline();
            let out = sup
                .service(d, &mut pmu, &mapping, &mut |_, v| Some(v))
                .unwrap();
            assert!(matches!(
                out,
                SupervisedOutcome::Serviced {
                    outcome: ServiceOutcome::Quiet { .. },
                    ..
                }
            ));
        }
        assert_eq!(sup.stats().crashes, 0);
        assert_eq!(sup.stats().services, 5);
        assert_eq!(sup.detector().stats().stage1_windows, 5);
        // Boot + one checkpoint per service.
        assert_eq!(sup.stats().checkpoints_written, 6);
    }

    thread_local! {
        static PANICS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }

    /// Chains a panic hook that counts this thread's panics before
    /// deferring to the previous hook, so parallel tests keep theirs.
    fn count_panics() {
        static HOOK: std::sync::Once = std::sync::Once::new();
        HOOK.call_once(|| {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                PANICS.with(|n| n.set(n.get() + 1));
                previous(info);
            }));
        });
    }

    #[test]
    fn injected_crashes_recover_without_unwinding() {
        count_panics();
        let mapping = AddressMapping::new(DramGeometry::ddr3_4gb());
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let mut sup = boot(&mut pmu);
        sup.set_faults(Some(crashy(1.0)));
        let before = PANICS.with(std::cell::Cell::get);
        let mut restarts = 0;
        while let Ok(out) = sup.service(sup.deadline(), &mut pmu, &mapping, &mut |_, v| Some(v)) {
            assert!(matches!(out, SupervisedOutcome::Restarted(_)), "{out:?}");
            restarts += 1;
        }
        assert_eq!(restarts, RuntimeConfig::default().restart_budget);
        assert_eq!(sup.stats().crashes, u64::from(restarts) + 1);
        assert_eq!(
            PANICS.with(std::cell::Cell::get),
            before,
            "no crash unwound"
        );
        // The hook does see a genuine panic on this thread.
        assert!(catch_unwind(|| panic!("genuine")).is_err());
        assert_eq!(PANICS.with(std::cell::Cell::get), before + 1);
    }

    #[test]
    fn a_crash_restarts_from_the_checkpoint_with_a_bounded_gap() {
        let mapping = AddressMapping::new(DramGeometry::ddr3_4gb());
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let mut sup = boot(&mut pmu);
        // Two clean windows, then a certain crash.
        for _ in 0..2 {
            let d = sup.deadline();
            sup.service(d, &mut pmu, &mapping, &mut |_, v| Some(v))
                .unwrap();
        }
        let windows_before = sup.detector().stats().stage1_windows;
        sup.set_faults(Some(crashy(1.0)));
        let d = sup.deadline();
        let out = sup
            .service(d, &mut pmu, &mapping, &mut |_, v| Some(v))
            .unwrap();
        let SupervisedOutcome::Restarted(report) = out else {
            panic!("expected Restarted, got {out:?}");
        };
        assert_eq!(report.crashed_at, d);
        assert_eq!(report.gap, RuntimeConfig::default().backoff_base);
        assert!(!report.cold_start);
        assert!(report.checkpoint_error.is_none());
        // The restored detector kept the checkpointed evidence: two
        // completed windows, none lost.
        assert_eq!(sup.detector().stats().stage1_windows, windows_before);
        assert_eq!(sup.stats().worst_recovery_gap, report.gap);
        assert_eq!(sup.stats().total_downtime, report.gap);
        // And its next deadline is after the resume point.
        assert!(sup.deadline() > report.resumed_at);
    }

    #[test]
    fn backoff_doubles_and_clamps() {
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let sup = boot(&mut pmu);
        let base = RuntimeConfig::default().backoff_base;
        let cap = RuntimeConfig::default().backoff_cap;
        assert_eq!(sup.backoff(1), base);
        assert_eq!(sup.backoff(2), 2 * base);
        assert_eq!(sup.backoff(3), 4 * base);
        assert_eq!(sup.backoff(30), cap);
        assert_eq!(sup.backoff(u32::MAX), cap);
    }

    #[test]
    fn restart_budget_exhaustion_is_a_typed_error() {
        let mapping = AddressMapping::new(DramGeometry::ddr3_4gb());
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let mut sup = Supervisor::new(
            AnvilConfig::hardened(),
            RuntimeConfig {
                restart_budget: 3,
                ..RuntimeConfig::default()
            },
            CLOCK,
            PERIOD,
            0,
            &mut pmu,
        );
        sup.set_faults(Some(crashy(1.0)));
        for k in 0..3 {
            let d = sup.deadline();
            let out = sup
                .service(d, &mut pmu, &mapping, &mut |_, v| Some(v))
                .unwrap();
            assert!(matches!(out, SupervisedOutcome::Restarted(_)), "crash {k}");
        }
        let d = sup.deadline();
        let err = sup
            .service(d, &mut pmu, &mapping, &mut |_, v| Some(v))
            .unwrap_err();
        assert_eq!(
            err,
            RuntimeError::RestartBudgetExhausted {
                restarts: 4,
                budget: 3
            }
        );
    }

    #[test]
    fn corrupted_checkpoint_falls_back_to_cold_start() {
        let mapping = AddressMapping::new(DramGeometry::ddr3_4gb());
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let mut sup = boot(&mut pmu);
        // Corrupt every checkpoint write and crash every service: the
        // restore path must reject the bytes and cold-start.
        sup.set_faults(Some(LifecycleInjector::new(
            LifecycleFaults {
                crash_rate: 1.0,
                stall_rate: 0.0,
                max_stall: 0,
                corrupt_rate: 1.0,
            },
            FaultRng::new(3).fork(5),
        )));
        // Rewrite the (pristine) boot checkpoint through the corrupting
        // injector by servicing once; the service itself crashes first,
        // so recovery still reads the pristine boot bytes...
        let d = sup.deadline();
        let out = sup
            .service(d, &mut pmu, &mapping, &mut |_, v| Some(v))
            .unwrap();
        let SupervisedOutcome::Restarted(r) = out else {
            panic!("expected Restarted, got {out:?}");
        };
        assert!(!r.cold_start, "boot checkpoint was written pristine");
        // ...but the post-recovery checkpoint was corrupted at rest, so
        // the *next* crash must reject it and cold-start.
        let d = sup.deadline();
        let out = sup
            .service(d, &mut pmu, &mapping, &mut |_, v| Some(v))
            .unwrap();
        let SupervisedOutcome::Restarted(r) = out else {
            panic!("expected Restarted, got {out:?}");
        };
        assert!(r.cold_start);
        assert!(matches!(
            r.checkpoint_error,
            Some(RuntimeError::CheckpointCorrupt { .. } | RuntimeError::CheckpointUndecodable)
        ));
        assert_eq!(sup.stats().cold_starts, 1);
        assert!(sup.stats().checkpoints_corrupted >= 1);
        // The cold-started detector is fresh: no window history.
        assert_eq!(sup.detector().stats().stage1_windows, 0);
    }

    #[test]
    fn torn_checkpoint_falls_back_to_cold_start() {
        let mapping = AddressMapping::new(DramGeometry::ddr3_4gb());
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let mut sup = boot(&mut pmu);
        // Tear every checkpoint write and crash every service: recovery
        // must reject the truncated bytes with a typed error and
        // cold-start, never panic.
        sup.set_faults(Some(crashy(1.0).with_torn_writes(1.0)));
        // First crash recovers from the pristine boot checkpoint, then
        // rewrites it through the tearing injector.
        let d = sup.deadline();
        let out = sup
            .service(d, &mut pmu, &mapping, &mut |_, v| Some(v))
            .unwrap();
        let SupervisedOutcome::Restarted(r) = out else {
            panic!("expected Restarted, got {out:?}");
        };
        assert!(!r.cold_start, "boot checkpoint was written pristine");
        // The second crash reads the torn bytes.
        let d = sup.deadline();
        let out = sup
            .service(d, &mut pmu, &mapping, &mut |_, v| Some(v))
            .unwrap();
        let SupervisedOutcome::Restarted(r) = out else {
            panic!("expected Restarted, got {out:?}");
        };
        assert!(r.cold_start);
        assert!(matches!(
            r.checkpoint_error,
            Some(RuntimeError::CheckpointCorrupt { .. } | RuntimeError::CheckpointUndecodable)
        ));
        assert!(sup.stats().checkpoints_torn >= 1);
        assert_eq!(sup.stats().cold_starts, 1);
    }

    #[test]
    fn forced_crashes_flow_through_the_normal_recovery_path() {
        let mapping = AddressMapping::new(DramGeometry::ddr3_4gb());
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let mut sup = boot(&mut pmu);
        // Without an injector the force is a no-op.
        sup.force_crash();
        let d = sup.deadline();
        let out = sup
            .service(d, &mut pmu, &mapping, &mut |_, v| Some(v))
            .unwrap();
        assert!(matches!(out, SupervisedOutcome::Serviced { .. }));
        // With a zero-rate injector installed, the forced crash fires
        // exactly once and recovers from the checkpoint.
        sup.set_faults(Some(crashy(0.0)));
        sup.force_crash();
        let d = sup.deadline();
        let out = sup
            .service(d, &mut pmu, &mapping, &mut |_, v| Some(v))
            .unwrap();
        assert!(matches!(out, SupervisedOutcome::Restarted(_)));
        let d = sup.deadline();
        let out = sup
            .service(d, &mut pmu, &mapping, &mut |_, v| Some(v))
            .unwrap();
        assert!(matches!(out, SupervisedOutcome::Serviced { .. }));
        assert_eq!(sup.stats().crashes, 1);
    }

    #[test]
    fn hot_reload_applies_at_the_boundary_and_keeps_counters() {
        let mapping = AddressMapping::new(DramGeometry::ddr3_4gb());
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let mut sup = boot(&mut pmu);
        let d = sup.deadline();
        sup.service(d, &mut pmu, &mapping, &mut |_, v| Some(v))
            .unwrap();
        let mut hot = AnvilConfig::hardened();
        hot.llc_miss_threshold = 18_000;
        sup.request_reload(hot).unwrap();
        assert!(sup.reload_pending());
        let stats_before = *sup.detector().stats();
        let d = sup.deadline();
        sup.service(d, &mut pmu, &mapping, &mut |_, v| Some(v))
            .unwrap();
        assert!(!sup.reload_pending());
        assert_eq!(sup.config().llc_miss_threshold, 18_000);
        assert_eq!(sup.stats().reloads, 1);
        // The swap lost no activity counters (one more window serviced).
        assert_eq!(
            sup.detector().stats().stage1_windows,
            stats_before.stage1_windows + 1
        );

        // An invalid config is rejected at request time.
        let mut bad = AnvilConfig::hardened();
        bad.llc_miss_threshold = 0;
        assert!(sup.request_reload(bad).is_err());
        assert!(!sup.reload_pending());
    }

    #[test]
    fn reload_defers_while_stage2_is_armed() {
        let mapping = AddressMapping::new(DramGeometry::ddr3_4gb());
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let mut sup = Supervisor::new(
            AnvilConfig::baseline(),
            RuntimeConfig::default(),
            CLOCK,
            PERIOD,
            0,
            &mut pmu,
        );
        sup.request_reload(AnvilConfig::heavy()).unwrap();
        // Trip stage 1 so the service ends with sampling armed: the
        // reload must wait.
        let d = sup.deadline();
        for i in 0..25_000u64 {
            pmu.observe_at(&crate::driver::dram_read(i * 64, 1), d - 1);
        }
        sup.service(d, &mut pmu, &mapping, &mut |_, v| Some(v))
            .unwrap();
        assert_eq!(sup.detector().stage(), DetectorStage::Sampling);
        assert!(sup.reload_pending());
        assert_eq!(sup.stats().reloads_deferred, 1);
        // The stage-2 window ends back at stage 1: now it applies.
        let d = sup.deadline();
        sup.service(d, &mut pmu, &mapping, &mut |_, v| Some(v))
            .unwrap();
        assert!(!sup.reload_pending());
        assert_eq!(sup.stats().reloads, 1);
        assert_eq!(sup.config(), &AnvilConfig::heavy());
    }

    #[test]
    fn jittered_backoff_desynchronizes_coresident_domains() {
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let base = RuntimeConfig::default().backoff_base;
        let boot_seeded = |seed: u64, pmu: &mut Pmu| {
            Supervisor::new(
                AnvilConfig::hardened(),
                RuntimeConfig {
                    jitter_seed: seed,
                    ..RuntimeConfig::default()
                },
                CLOCK,
                PERIOD,
                0,
                pmu,
            )
        };
        // Seed 0 (the default) is exactly the nominal schedule.
        assert_eq!(boot_seeded(0, &mut pmu).backoff(1), base);
        // Distinct seeds produce distinct restart instants after a
        // correlated outage (the thundering-herd fix for co-resident
        // fleet domains), each within a quarter-gap of nominal.
        let a = boot_seeded(1, &mut pmu).backoff(1);
        let b = boot_seeded(2, &mut pmu).backoff(1);
        assert_ne!(a, b, "distinct seeds, distinct gaps");
        for gap in [a, b] {
            assert!(gap <= base && gap >= base - base / 4, "gap {gap}");
        }
        // And the jitter is deterministic per (seed, crash count).
        assert_eq!(a, boot_seeded(1, &mut pmu).backoff(1));
    }

    #[test]
    fn a_repairable_state_flip_is_scrubbed_and_counted() {
        let mapping = AddressMapping::new(DramGeometry::ddr3_4gb());
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let mut sup = boot(&mut pmu);
        assert!(sup.state_cell_count() >= 4);
        // One replica of the carry cell takes a flip: the majority vote
        // must repair it within a scrub rotation, without a restart.
        assert!(sup.corrupt_state_cell(0, 0b001, 62).is_some());
        for _ in 0..RuntimeConfig::default().scrub_slices {
            let d = sup.deadline();
            let out = sup
                .service(d, &mut pmu, &mapping, &mut |_, v| Some(v))
                .unwrap();
            assert!(matches!(out, SupervisedOutcome::Serviced { .. }));
        }
        assert_eq!(sup.stats().state_repairs, 1);
        assert_eq!(sup.stats().state_escalations, 0);
        assert_eq!(sup.stats().restarts, 0);
        // Out-of-range cell indices are a typed miss, not a panic.
        assert!(sup.corrupt_state_cell(usize::MAX, 0b001, 0).is_none());
    }

    #[test]
    fn unrepairable_state_corruption_escalates_to_a_checkpoint_restart() {
        let mapping = AddressMapping::new(DramGeometry::ddr3_4gb());
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let mut sup = boot(&mut pmu);
        let d = sup.deadline();
        sup.service(d, &mut pmu, &mapping, &mut |_, v| Some(v))
            .unwrap();
        let windows_before = sup.detector().stats().stage1_windows;
        // Replica-correlated damage: the same bit flipped in every copy
        // of the carry cell leaves no checksummed majority.
        assert!(sup.corrupt_state_cell(0, 0b111, 5).is_some());
        let mut restarted = None;
        for _ in 0..8 {
            let d = sup.deadline();
            match sup
                .service(d, &mut pmu, &mapping, &mut |_, v| Some(v))
                .unwrap()
            {
                SupervisedOutcome::Restarted(r) => {
                    restarted = Some(r);
                    break;
                }
                SupervisedOutcome::Serviced { .. } => {}
            }
        }
        let report = restarted.expect("correlated corruption must escalate");
        assert!(sup.stats().state_escalations >= 1);
        assert_eq!(report.gap, RuntimeConfig::default().backoff_base);
        assert!(!report.cold_start, "the boot checkpoint was good");
        // The restored detector resumed from checkpointed evidence and
        // is guarded again.
        assert!(sup.detector().state_guarded());
        assert!(sup.detector().stats().stage1_windows >= windows_before);
        // And the next window services normally.
        let d = sup.deadline();
        let out = sup
            .service(d, &mut pmu, &mapping, &mut |_, v| Some(v))
            .unwrap();
        assert!(matches!(out, SupervisedOutcome::Serviced { .. }));
    }

    #[test]
    fn unguarded_supervision_never_scrubs_and_survives_restarts() {
        let mapping = AddressMapping::new(DramGeometry::ddr3_4gb());
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let mut sup = Supervisor::new(
            AnvilConfig::hardened(),
            RuntimeConfig {
                guard_state: false,
                ..RuntimeConfig::default()
            },
            CLOCK,
            PERIOD,
            0,
            &mut pmu,
        );
        assert!(!sup.detector().state_guarded());
        // Correlated damage that would escalate a guarded supervisor is
        // silently absorbed by the baseline: no scrub, no restart.
        sup.corrupt_state_cell(0, 0b111, 5);
        let d = sup.deadline();
        let out = sup
            .service(d, &mut pmu, &mapping, &mut |_, v| Some(v))
            .unwrap();
        assert!(matches!(out, SupervisedOutcome::Serviced { .. }));
        assert_eq!(sup.stats().state_repairs, 0);
        assert_eq!(sup.stats().state_escalations, 0);
        // A crash restart must stay unguarded: restore() boots guarded,
        // so the supervisor re-applies the configured mode.
        sup.set_faults(Some(crashy(1.0)));
        let d = sup.deadline();
        let out = sup
            .service(d, &mut pmu, &mapping, &mut |_, v| Some(v))
            .unwrap();
        assert!(matches!(out, SupervisedOutcome::Restarted(_)));
        assert!(!sup.detector().state_guarded());
    }

    /// The eager at-rest fault path, replayed on a copy of the injector's
    /// stream: encode the checkpoint at write time, then draw the
    /// corruption and tear chances, the flipped byte and bit, and the
    /// kept length against the bytes in hand. Returns the stored bytes
    /// and which faults fired.
    fn eager_write(
        ckpt: &DetectorCheckpoint,
        stream: &mut FaultRng,
        corrupt_rate: f64,
        torn_rate: f64,
    ) -> (Vec<u8>, bool, bool) {
        let corrupted = stream.chance(corrupt_rate);
        let torn = stream.chance(torn_rate);
        let mut bytes = ckpt.to_bytes();
        if corrupted {
            let idx = stream.below(bytes.len() as u64) as usize;
            bytes[idx] ^= 1 << stream.below(8);
        }
        if torn {
            let keep = stream.below(bytes.len() as u64) as usize;
            bytes.truncate(keep);
        }
        (bytes, corrupted, torn)
    }

    /// An injector that crashes at `crash_rate` and faults checkpoint
    /// writes, plus a copy of its stream for [`eager_write`].
    fn at_rest_injector(
        seed: u64,
        crash_rate: f64,
        corrupt_rate: f64,
        torn_rate: f64,
    ) -> (LifecycleInjector, FaultRng) {
        let stream = FaultRng::new(seed).fork(5);
        let inj = LifecycleInjector::new(
            LifecycleFaults {
                crash_rate,
                stall_rate: 0.0,
                max_stall: 0,
                corrupt_rate,
            },
            stream.clone(),
        )
        .with_torn_writes(torn_rate);
        (inj, stream)
    }

    /// A checkpoint built from `seed`'s stream: `rows` ledger rows, and
    /// every float drawn from the extremes (signed zeros, subnormals,
    /// `±MAX`, infinities, NaN) half the time and from raw bits
    /// otherwise.
    fn arbitrary_checkpoint(seed: u64, rows: usize) -> DetectorCheckpoint {
        const EXTREMES: [f64; 9] = [
            0.0,
            -0.0,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            -f64::MAX,
            f64::INFINITY,
            f64::NAN,
            1.5,
        ];
        let mut r = FaultRng::new(seed);
        let float = |r: &mut FaultRng| {
            if r.chance(0.5) {
                EXTREMES[r.below(EXTREMES.len() as u64) as usize]
            } else {
                f64::from_bits(r.next_u64())
            }
        };
        let filters = [
            anvil_pmu::SampleFilter::LoadsOnly,
            anvil_pmu::SampleFilter::StoresOnly,
            anvil_pmu::SampleFilter::LoadsAndStores,
        ];
        DetectorCheckpoint {
            version: anvil_core::CHECKPOINT_VERSION,
            config_hash: r.next_u64(),
            sampling: r.chance(0.5),
            armed_filter: filters[r.below(3) as usize],
            deadline: r.next_u64(),
            stats: anvil_core::DetectorStats {
                stage1_windows: r.next_u64(),
                ledger_flags: r.below(1_000),
                ..anvil_core::DetectorStats::default()
            },
            carry: float(&mut r),
            phase_state: r.next_u64(),
            window_scale: float(&mut r),
            pebs_jitter: r.next_u64(),
            ledger: (0..rows)
                .map(|_| anvil_core::LedgerRow {
                    row: anvil_dram::RowId::new(
                        anvil_dram::BankId(r.below(16) as u32),
                        r.next_u64() as u32,
                    ),
                    score: float(&mut r),
                    windows: r.next_u64(),
                    pids: (0..r.below(4)).map(|_| r.next_u64() as u32).collect(),
                })
                .collect(),
            resamples: r.next_u64() as u32,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]
        /// Drawing each write's at-rest fault up front and applying it to
        /// bytes encoded later reproduces the eager path's bytes, counters
        /// and stream position, for corruption, tearing, both, and
        /// fractional rates of each.
        #[test]
        fn deferred_faults_reproduce_the_eager_bytes(
            shape in (proptest::prelude::any::<u64>(), 0usize..=300),
            seed in proptest::prelude::any::<u64>(),
            mode in 0u8..4,
        ) {
            let ckpt = arbitrary_checkpoint(shape.0, shape.1);
            let (corrupt_rate, torn_rate) = match mode {
                0 => (1.0, 0.0),
                1 => (0.0, 1.0),
                2 => (1.0, 1.0),
                _ => (0.5, 0.5),
            };
            // The crash rate is drawn only by the closing probe.
            let (mut inj, mut stream) = at_rest_injector(seed, 0.5, corrupt_rate, torn_rate);
            let (mut corrupted, mut torn) = (0, 0);
            for _ in 0..3 {
                let (want, c, t) = eager_write(&ckpt, &mut stream, corrupt_rate, torn_rate);
                corrupted += u64::from(c);
                torn += u64::from(t);
                let mut got = ckpt.to_bytes();
                match inj.at_rest_fault() {
                    Some(fault) => fault.apply(&mut got),
                    None => proptest::prop_assert!(!c && !t),
                }
                proptest::prop_assert_eq!(&got, &want);
            }
            proptest::prop_assert_eq!((inj.corruptions(), inj.torn_writes()), (corrupted, torn));
            // The same stream position: 64 further coin-flip crash draws
            // agree.
            for _ in 0..64 {
                proptest::prop_assert_eq!(inj.crash_now(), stream.chance(0.5));
            }
        }
    }

    /// Boots a supervisor, services one clean window, then services one
    /// more under `inj` (whose only draws are the checkpoint write's),
    /// forces a crash and services again. Returns the checkpoint the
    /// faulted write snapshotted, the recovery report, and the runtime
    /// counters.
    fn faulted_write_then_crash(
        inj: LifecycleInjector,
    ) -> (DetectorCheckpoint, RecoveryReport, RuntimeStats) {
        let mapping = AddressMapping::new(DramGeometry::ddr3_4gb());
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let mut sup = boot(&mut pmu);
        let d = sup.deadline();
        sup.service(d, &mut pmu, &mapping, &mut |_, v| Some(v))
            .unwrap();
        sup.set_faults(Some(inj));
        let d = sup.deadline();
        sup.service(d, &mut pmu, &mapping, &mut |_, v| Some(v))
            .unwrap();
        let written = sup.detector().checkpoint(&pmu);
        sup.force_crash();
        let d = sup.deadline();
        let out = sup
            .service(d, &mut pmu, &mapping, &mut |_, v| Some(v))
            .unwrap();
        let SupervisedOutcome::Restarted(report) = out else {
            panic!("expected Restarted, got {out:?}");
        };
        (written, report, *sup.stats())
    }

    /// The recovery the eager path implies for `bytes`: resume when they
    /// decode and restore, else cold-start with the decode error.
    fn eager_recovery(bytes: &[u8], crashed_at: Cycle) -> (bool, Option<RuntimeError>) {
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let gap = RuntimeConfig::default().backoff_base;
        let mut det = AnvilDetector::new(AnvilConfig::hardened(), &CLOCK, PERIOD, 0, &mut pmu);
        match DetectorCheckpoint::from_bytes(bytes).and_then(|c| {
            det.restore(
                AnvilConfig::hardened(),
                &CLOCK,
                PERIOD,
                crashed_at + gap,
                &mut pmu,
                &c,
            )
        }) {
            Ok(()) => (false, None),
            Err(e) => (true, Some(e)),
        }
    }

    #[test]
    fn a_faulted_write_recovers_exactly_as_the_eager_bytes_decode() {
        let mut cold = 0;
        for seed in 0..24u64 {
            for (corrupt_rate, torn_rate) in [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)] {
                let (inj, mut stream) = at_rest_injector(seed, 0.0, corrupt_rate, torn_rate);
                let (written, report, stats) = faulted_write_then_crash(inj);
                let (bytes, _, _) = eager_write(&written, &mut stream, corrupt_rate, torn_rate);
                let (cold_start, error) = eager_recovery(&bytes, report.crashed_at);
                assert_eq!(
                    (report.cold_start, &report.checkpoint_error),
                    (cold_start, &error),
                    "seed {seed} rates {corrupt_rate}/{torn_rate}"
                );
                assert_eq!(report.gap, RuntimeConfig::default().backoff_base);
                assert_eq!(stats.checkpoint_rejections, u64::from(cold_start));
                // The faulted write and the post-recovery write.
                assert_eq!(stats.checkpoints_corrupted, 2 * corrupt_rate as u64);
                assert_eq!(stats.checkpoints_torn, 2 * torn_rate as u64);
                cold += u64::from(cold_start);
            }
        }
        assert!(cold > 0, "some faulted writes must be rejected");
    }

    #[test]
    fn a_benign_case_flip_in_the_checksum_header_still_restores() {
        // Bit 5 turns a lowercase hex letter of the checksum header into
        // its uppercase twin, which parses to the same checksum: storage
        // corrupted the write, yet the restore succeeds. Find a stream
        // whose corruption lands exactly there.
        let (written, _, _) = faulted_write_then_crash(at_rest_injector(0, 0.0, 0.0, 0.0).0);
        let clean = written.to_bytes();
        let header = clean.iter().position(|&b| b == b'\n').unwrap();
        let seed = (0u64..1_000_000)
            .find(|&seed| {
                let (bytes, _, _) =
                    eager_write(&written, &mut FaultRng::new(seed).fork(5), 1.0, 0.0);
                let i = bytes.iter().zip(&clean).position(|(a, b)| a != b).unwrap();
                i < header && clean[i].is_ascii_lowercase() && bytes[i] ^ clean[i] == 1 << 5
            })
            .expect("some stream flips a header letter's case");
        let (inj, mut stream) = at_rest_injector(seed, 0.0, 1.0, 0.0);
        let (again, report, stats) = faulted_write_then_crash(inj);
        assert_eq!(again, written, "the faulted run wrote the same snapshot");
        let (bytes, _, _) = eager_write(&written, &mut stream, 1.0, 0.0);
        assert_ne!(bytes, clean);
        assert_eq!(eager_recovery(&bytes, report.crashed_at), (false, None));
        assert!(!report.cold_start, "the case flip is benign");
        assert_eq!(report.checkpoint_error, None);
        assert_eq!(stats.checkpoints_corrupted, 2, "this write and the next");
        assert_eq!(stats.checkpoint_rejections, 0);
    }

    #[test]
    fn stalls_delay_the_service_and_trip_the_watchdog() {
        let mapping = AddressMapping::new(DramGeometry::ddr3_4gb());
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let mut sup = boot(&mut pmu);
        sup.set_faults(Some(LifecycleInjector::new(
            LifecycleFaults {
                crash_rate: 0.0,
                stall_rate: 1.0,
                max_stall: 40_000,
                corrupt_rate: 0.0,
            },
            FaultRng::new(21).fork(5),
        )));
        let d = sup.deadline();
        let out = sup
            .service(d, &mut pmu, &mapping, &mut |_, v| Some(v))
            .unwrap();
        let SupervisedOutcome::Serviced { serviced_at, .. } = out else {
            panic!("expected Serviced, got {out:?}");
        };
        assert!(serviced_at > d && serviced_at <= d + 40_000);
        assert_eq!(sup.stats().stalled_services, 1);
        assert_eq!(sup.detector().stats().missed_deadlines, 1);
    }

    /// `config` encoded, then decoded with `field` removed.
    fn decode_without(config: &RuntimeConfig, field: &str) -> RuntimeConfig {
        let serde_json::Value::Object(mut entries) = serde_json::to_value(config) else {
            panic!("a RuntimeConfig encodes as an object");
        };
        entries.retain(|(k, _)| k != field);
        serde::Deserialize::from_value(&serde_json::Value::Object(entries))
            .expect("an absent defaulted field still decodes")
    }

    #[test]
    fn absent_scrub_slices_decodes_as_four() {
        let config = RuntimeConfig {
            scrub_slices: 9,
            ..RuntimeConfig::default()
        };
        let decoded = decode_without(&config, "scrub_slices");
        assert_eq!(decoded.scrub_slices, 4);
        assert_eq!(
            decoded,
            RuntimeConfig {
                scrub_slices: 4,
                ..config
            }
        );
    }

    #[test]
    fn absent_guard_state_decodes_as_guarded() {
        let config = RuntimeConfig {
            guard_state: false,
            ..RuntimeConfig::default()
        };
        let decoded = decode_without(&config, "guard_state");
        assert!(decoded.guard_state);
        assert_eq!(
            decoded,
            RuntimeConfig {
                guard_state: true,
                ..config
            }
        );
    }
}
