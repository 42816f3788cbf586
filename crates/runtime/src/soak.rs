//! Long-horizon soak engine: millions of supervised detector windows of
//! mixed benign and adversary traffic under a seeded crash / stall /
//! corruption / hot-reload schedule.
//!
//! Each window runs through the shared [`WindowDriver`]: the soak
//! supplies the paced adversary and its aggressor pair, queues the
//! periodic hot reloads, and keeps its own flip accounting. That keeps
//! a two-million-window campaign (~3.5 simulated hours) inside a CI
//! budget while exercising the full supervised pipeline: stage-1 EWMA
//! trips, stage-2 locality analysis, selective refresh, degraded-mode
//! fallbacks, checkpoint writes, injected crashes with bounded-backoff
//! restarts, and atomic hot reloads.
//!
//! Flip accounting follows the [`GuaranteeEnvelope`] model: the
//! adversary's activations on the victim's aggressor pair accumulate
//! until something rewrites the victim row — the periodic auto-refresh,
//! a selective refresh that names it, a degraded-mode blanket refresh of
//! its bank, or the recovery protocol's post-restart blanket refresh.
//! A [restart-aware adversary](RestartAwareHammer) additionally bursts
//! at full hammer rate into every injected downtime gap, so a flip is
//! charged whenever accumulated evidence plus the gap burst reaches the
//! flip threshold *before* the recovery refresh lands.

use anvil_core::{AnvilConfig, EnvelopeParams, GuaranteeEnvelope};
use anvil_dram::{BankId, CpuClock, Cycle, RowId};
use anvil_faults::{FaultRng, LifecycleFaults, LifecycleInjector};
use serde::{Deserialize, Serialize};

use crate::driver::{Engine, WindowDriver};
use crate::supervisor::RuntimeConfig;

use anvil_adversary::RestartAwareHammer;

/// One soak campaign's full parameterization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SoakConfig {
    /// Detector windows to run.
    pub windows: u64,
    /// Campaign seed: drives the fault schedule and the benign traffic.
    pub seed: u64,
    /// Detector configuration under soak.
    pub anvil: AnvilConfig,
    /// Supervisor policy.
    pub runtime: RuntimeConfig,
    /// Lifecycle fault intensities (crash / stall / checkpoint
    /// corruption).
    pub lifecycle: LifecycleFaults,
    /// Request a hot reload every this many windows (0 disables),
    /// toggling the stage-1 threshold between two valid values.
    pub reload_every: u64,
    /// Platform constants for flip accounting and the downtime budget.
    pub envelope: EnvelopeParams,
    /// Whether the paced double-sided adversary runs (the default). Off,
    /// the traffic is the benign mix alone and the campaign is
    /// quiet-window dominated — the "benign-dominated soak cell" the
    /// perf trajectory's headline number is measured on, where the
    /// event-driven engine's epoch skipping pays off fully.
    #[serde(default = "default_adversary")]
    pub adversary: bool,
}

fn default_adversary() -> bool {
    true
}

impl SoakConfig {
    /// The standard campaign: hardened detector, default supervisor
    /// policy, moderate fault intensities, a reload every 100K windows.
    pub fn standard(windows: u64, seed: u64) -> Self {
        let mut anvil = AnvilConfig::hardened();
        anvil.hardening.phase_seed = seed;
        SoakConfig {
            windows,
            seed,
            anvil,
            runtime: RuntimeConfig {
                // One checkpoint per four windows keeps the snapshot off
                // the critical path without widening the recovery gap
                // beyond what stage-1 carry absorbs.
                checkpoint_every: 4,
                ..RuntimeConfig::default()
            },
            lifecycle: LifecycleFaults {
                crash_rate: 1e-3,
                stall_rate: 5e-3,
                max_stall: 100_000,
                corrupt_rate: 0.05,
            },
            reload_every: 100_000,
            envelope: EnvelopeParams::paper_platform(),
            adversary: default_adversary(),
        }
    }

    /// The benign-dominated variant of [`standard`](Self::standard): the
    /// same supervised lifecycle (crashes, stalls, corruption, reloads)
    /// with no adversary, so nearly every window is quiet.
    pub fn benign(windows: u64, seed: u64) -> Self {
        SoakConfig {
            adversary: false,
            ..Self::standard(windows, seed)
        }
    }
}

/// Everything a soak run observed, in deterministic (serializable) form:
/// two runs with the same [`SoakConfig`] produce identical summaries.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SoakSummary {
    /// Windows serviced (equals the configured count unless the restart
    /// budget was exhausted).
    pub windows: u64,
    /// Simulated wall-clock time covered, in milliseconds.
    pub simulated_ms: f64,
    /// Bit flips charged against the victim row. The campaign gate.
    pub flips: u64,
    /// Stage-1 threshold crossings (windows that armed sampling).
    pub threshold_crossings: u64,
    /// Stage-2 windows analyzed (including degraded ones).
    pub stage2_windows: u64,
    /// Stage-2 windows that flagged at least one aggressor.
    pub detections: u64,
    /// Victim rows selectively refreshed.
    pub selective_refreshes: u64,
    /// Stage-2 windows handled by the degraded-protection fallback.
    pub degraded_windows: u64,
    /// Supervised service calls.
    pub services: u64,
    /// Detector crashes injected and captured.
    pub crashes: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Restarts that fell back to a cold start.
    pub cold_starts: u64,
    /// Checkpoints written.
    pub checkpoints_written: u64,
    /// Checkpoint writes corrupted at rest.
    pub checkpoints_corrupted: u64,
    /// Restores that rejected the stored checkpoint.
    pub checkpoint_rejections: u64,
    /// Hot reloads applied.
    pub reloads: u64,
    /// Reload applications deferred past an armed stage-2 window.
    pub reloads_deferred: u64,
    /// Services delayed by injected stalls.
    pub stalled_services: u64,
    /// Largest crash-to-resume gap observed, in cycles.
    pub worst_recovery_gap: Cycle,
    /// Total downtime across all restarts, in cycles.
    pub total_downtime: Cycle,
    /// The envelope's downtime budget for this configuration, in cycles:
    /// gaps under it cannot complete a flip even against a gap-timed
    /// burst attacker.
    pub downtime_budget: Cycle,
    /// Whether the worst observed gap stayed within the budget.
    pub within_budget: bool,
    /// Whether the run ended early with the restart budget exhausted.
    pub restart_budget_exhausted: bool,
}

impl SoakSummary {
    /// The campaign gate: no flips, every recovery gap inside the
    /// envelope's downtime budget, and the supervisor never gave up.
    pub fn holds(&self) -> bool {
        self.flips == 0 && self.within_budget && !self.restart_budget_exhausted
    }
}

/// Runs one soak campaign to completion under the default (event-driven)
/// engine. Deterministic in `cfg`.
pub fn run(cfg: &SoakConfig) -> SoakSummary {
    run_with_engine(cfg, Engine::default())
}

/// Runs one soak campaign under an explicit [`Engine`]. Deterministic in
/// `(cfg, engine)` — and the summary itself is engine-independent.
pub fn run_with_engine(cfg: &SoakConfig, engine: Engine) -> SoakSummary {
    let clock = CpuClock::SANDY_BRIDGE_2_6GHZ;
    let mut driver = WindowDriver::new(engine, cfg.anvil.sampling, FaultRng::new(cfg.seed).fork(6));
    driver.boot(
        cfg.anvil,
        cfg.runtime,
        clock,
        cfg.envelope.refresh_period,
        Some(LifecycleInjector::new(
            cfg.lifecycle,
            FaultRng::new(cfg.seed).fork(5),
        )),
    );

    // The adversary double-side hammers one victim: aggressors on the
    // rows either side, paced just under the stage-1 trip rate. The
    // benign cell still materializes the pair's reads in stage-2
    // windows, so both cells share one traffic shape.
    let victim = RowId::new(BankId(2), 501);
    let aggressors = driver.pair_around(victim);
    let paced = if cfg.adversary {
        cfg.anvil.llc_miss_threshold.saturating_sub(500)
    } else {
        0
    };

    let envelope = GuaranteeEnvelope::audit(&cfg.anvil, &clock, &cfg.envelope);
    let downtime_budget = envelope.downtime_budget(cfg.envelope.attack_access_cycles);

    // Accumulated aggressor activations against the victim since its row
    // was last rewritten (auto-refresh, selective/blanket refresh, or
    // recovery refresh).
    let mut victim_evidence: u64 = 0;
    let mut refresh_epoch: u64 = 0;
    let mut reload_high = true;
    let mut flips: u64 = 0;
    let mut restart_budget_exhausted = false;

    for w in 0..cfg.windows {
        // DRAM auto-refresh rewrites every row once per refresh period,
        // clearing whatever disturbance had accumulated.
        let epoch = driver.supervisor().deadline() / cfg.envelope.refresh_period.max(1);
        if epoch != refresh_epoch {
            refresh_epoch = epoch;
            victim_evidence = 0;
        }
        victim_evidence = victim_evidence.saturating_add(paced);

        // The request consumes no fault or traffic draws, so queueing it
        // before the window's traffic is unobservable.
        if cfg.reload_every > 0 && w > 0 && w % cfg.reload_every == 0 {
            let sup = driver.supervisor_mut();
            let mut next = *sup.config();
            reload_high = !reload_high;
            next.llc_miss_threshold = if reload_high { 20_000 } else { 19_000 };
            sup.request_reload(next)
                .expect("soak reload configs are valid");
        }

        let Ok(out) = driver.window(paced, Some(aggressors)) else {
            restart_budget_exhausted = true;
            break;
        };
        if let Some(gap) = out.restart_gap {
            // The restart-aware adversary hammers flat out into the
            // unobserved gap; the flip check runs before the recovery
            // protocol's blanket refresh rewrites the victim.
            let burst = RestartAwareHammer::burst_activations(gap);
            if victim_evidence.saturating_add(burst) >= cfg.envelope.flip_threshold {
                flips += 1;
            }
            victim_evidence = 0;
        } else if out.rewrites(victim) {
            victim_evidence = 0;
        }
    }

    let stats = driver.supervisor().stats();
    let tally = driver.tally();
    SoakSummary {
        windows: driver.windows(),
        simulated_ms: clock.cycles_to_ms(driver.last_serviced()),
        flips,
        threshold_crossings: tally.threshold_crossings,
        stage2_windows: tally.stage2_windows,
        detections: tally.detections,
        selective_refreshes: tally.selective_refreshes,
        degraded_windows: tally.degraded_windows,
        services: stats.services,
        crashes: stats.crashes,
        restarts: stats.restarts,
        cold_starts: stats.cold_starts,
        checkpoints_written: stats.checkpoints_written,
        checkpoints_corrupted: stats.checkpoints_corrupted,
        checkpoint_rejections: stats.checkpoint_rejections,
        reloads: stats.reloads,
        reloads_deferred: stats.reloads_deferred,
        stalled_services: stats.stalled_services,
        worst_recovery_gap: stats.worst_recovery_gap,
        total_downtime: stats.total_downtime,
        downtime_budget,
        within_budget: stats.worst_recovery_gap <= downtime_budget,
        restart_budget_exhausted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(windows: u64, seed: u64) -> SoakConfig {
        let mut cfg = SoakConfig::standard(windows, seed);
        // Crank the fault rates so a short run still exercises every
        // lifecycle path.
        cfg.lifecycle.crash_rate = 0.05;
        cfg.lifecycle.stall_rate = 0.1;
        cfg.lifecycle.corrupt_rate = 0.3;
        cfg.reload_every = 100;
        cfg
    }

    #[test]
    fn short_soak_is_deterministic() {
        let cfg = small(600, 0x50AC);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a, b);
        // And the serialized form is byte-identical too.
        let ja = serde_json::to_string(&a).unwrap();
        let jb = serde_json::to_string(&b).unwrap();
        assert_eq!(ja, jb);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run(&small(600, 1));
        let b = run(&small(600, 2));
        assert_ne!(a, b);
    }

    #[test]
    fn short_soak_exercises_the_lifecycle_and_holds() {
        let s = run(&small(600, 0xD1CE));
        assert_eq!(s.windows, 600);
        assert!(s.crashes > 0, "no crashes injected: {s:?}");
        assert_eq!(s.restarts, s.crashes);
        assert!(s.stalled_services > 0);
        assert!(s.reloads > 0);
        assert!(s.threshold_crossings > 0, "attacker never armed stage 2");
        assert!(s.detections > 0, "attacker never flagged");
        assert!(s.selective_refreshes > 0);
        assert!(s.holds(), "gate failed: {s:?}");
        assert!(s.worst_recovery_gap <= RuntimeConfig::default().backoff_cap);
        assert!(s.downtime_budget > RuntimeConfig::default().backoff_cap);
    }

    #[test]
    fn engines_agree_under_heavy_faults() {
        // High crash/stall/corrupt rates plus frequent reloads force every
        // fallback edge: trip windows, crash recoveries mid-quiet-run,
        // deferred checkpoints read back by restores, queued reloads.
        let cfg = small(600, 0x50AC);
        let per_op = run_with_engine(&cfg, Engine::PerOp);
        let event = run_with_engine(&cfg, Engine::Event);
        assert_eq!(per_op, event);
        assert_eq!(
            serde_json::to_string(&per_op).unwrap(),
            serde_json::to_string(&event).unwrap(),
            "engines must serialize byte-identically"
        );
    }

    #[test]
    fn engines_agree_on_the_standard_campaign() {
        // The committed-results configuration (standard rates), long
        // enough to cross several checkpoint and reload cadences.
        let mut cfg = SoakConfig::standard(3_000, 0xD1CE);
        cfg.reload_every = 700;
        let per_op = run_with_engine(&cfg, Engine::PerOp);
        let event = run_with_engine(&cfg, Engine::Event);
        assert_eq!(per_op, event);
    }

    #[test]
    fn gap_bursts_can_flip_when_backoff_exceeds_the_budget() {
        // Sanity-check the flip accounting itself: let backoff grow past
        // the downtime budget and the gap burst alone completes a flip.
        let mut cfg = small(400, 9);
        cfg.lifecycle.crash_rate = 0.9;
        cfg.runtime.restart_budget = u32::MAX;
        cfg.runtime.backoff_cap = 60_000_000_000; // ~23 s: far past budget
        let s = run(&cfg);
        assert!(s.flips > 0, "runaway backoff must flip: {s:?}");
        assert!(!s.within_budget);
        assert!(!s.holds());
    }

    #[test]
    fn absent_adversary_decodes_as_the_paced_adversary() {
        let config = SoakConfig::benign(100, 7);
        assert!(!config.adversary);
        let serde_json::Value::Object(mut entries) = serde_json::to_value(&config) else {
            panic!("a SoakConfig encodes as an object");
        };
        entries.retain(|(k, _)| k != "adversary");
        let decoded: SoakConfig =
            serde::Deserialize::from_value(&serde_json::Value::Object(entries))
                .expect("an absent defaulted field still decodes");
        assert_eq!(
            decoded,
            SoakConfig {
                adversary: true,
                ..config
            }
        );
    }
}
