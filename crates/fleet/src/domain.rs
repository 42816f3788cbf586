//! One protection domain: a supervised detector, its weak-cell
//! population, its degradation ladder, and its flip accounting.

use anvil_adversary::{RestartAwareHammer, EST_STAGE1_WINDOW_CYCLES};
use anvil_core::{GuaranteeEnvelope, HashedConfig};
use anvil_dram::{BankId, CpuClock, Cycle, RowId};
use anvil_faults::{FaultRng, LifecycleInjector};
use anvil_mem::{domain_seed, DomainId};
use anvil_runtime::{
    DegradationLadder, Engine, LadderCause, ProtectionLevel, RuntimeStats, WindowDriver,
};
use serde::{Deserialize, Serialize};

use crate::machine::FleetConfig;
use crate::weakcells::DimmPopulation;

/// Injector stream tags: supervisor lifecycle faults and benign traffic
/// (matching the soak engine's site layout), weak-cell sampling, and the
/// stride between rebuilt supervisors' fault streams.
const LIFECYCLE_SITE: u64 = 5;
const TRAFFIC_SITE: u64 = 6;
const WEAKCELL_SITE: u64 = 7;
const REBUILD_STRIDE: u64 = 0x20;

/// What one domain reports at the end of a machine run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DomainSummary {
    /// Flattened domain index on the machine.
    pub domain: u32,
    /// Memory channel the domain sits behind.
    pub channel: u32,
    /// The drawn weakest-cell flip threshold.
    pub min_flip_threshold: u64,
    /// The drawn weak-cell count.
    pub weak_cells: u64,
    /// Whether the DIMM is a sub-envelope outlier (pinned to blanket
    /// refresh from boot).
    pub sub_envelope: bool,
    /// The ladder rung the domain ended at (`snake_case` name).
    pub final_level: String,
    /// Flips charged outside declared degradation windows. The fleet
    /// gate: must be zero everywhere.
    pub undeclared_flips: u64,
    /// Flips charged inside declared degradation windows (PMU-blind
    /// exposure before blanket refresh engaged). Feeds the risk model.
    pub exposure_flips: u64,
    /// Stage-1 threshold crossings.
    pub threshold_crossings: u64,
    /// Stage-2 windows that flagged at least one aggressor.
    pub detections: u64,
    /// Victim rows selectively refreshed.
    pub selective_refreshes: u64,
    /// Blanket bank refreshes applied by the degraded rungs.
    pub blanket_refreshes: u64,
    /// Supervised service calls.
    pub services: u64,
    /// Detector crashes captured (injected plus forced by outages).
    pub crashes: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Restarts that fell back to a cold start.
    pub cold_starts: u64,
    /// Checkpoint writes torn mid-write.
    pub checkpoints_torn: u64,
    /// Restores that rejected the stored checkpoint.
    pub checkpoint_rejections: u64,
    /// Largest crash-to-resume gap, in cycles.
    pub worst_recovery_gap: Cycle,
    /// Total downtime across restarts, in cycles.
    pub total_downtime: Cycle,
    /// This domain's downtime budget (from its own weakest cell), in
    /// cycles.
    pub downtime_budget: Cycle,
    /// Whether every recovery gap stayed inside the budget. The fleet
    /// gate: must hold everywhere.
    pub within_budget: bool,
    /// Ladder demotions recorded.
    pub demotions: u64,
    /// Ladder promotions earned (faults-cleared transitions).
    pub promotions: u64,
    /// Windows spent at the hardened rung.
    pub windows_hardened: u64,
    /// Windows spent at the sample-survival rung.
    pub windows_sample_survival: u64,
    /// Windows spent at the blanket-refresh rung.
    pub windows_blanket: u64,
    /// Windows spent quarantined.
    pub windows_quarantine: u64,
    /// Whether the domain ever entered quarantine.
    pub quarantined: bool,
}

/// Live state of one domain inside a machine run.
pub(crate) struct DomainRuntime {
    id: DomainId,
    channel: u32,
    seed: u64,
    population: DimmPopulation,
    downtime_budget: Cycle,
    /// The domain's detector config, hashed once for every supervisor
    /// boot: only `hardening.phase_seed` differs between domains.
    anvil: HashedConfig,
    ladder: DegradationLadder,
    driver: WindowDriver,
    aggressors: [u64; 2],
    victim: RowId,
    evidence: u64,
    rebuilds: u64,
    quarantined: bool,
    undeclared_flips: u64,
    exposure_flips: u64,
    blanket_refreshes: u64,
    /// Counters of every retired supervisor, folded.
    retired: RuntimeStats,
}

impl DomainRuntime {
    /// Boots one domain of `machine` from the fleet seed: draws its
    /// weak-cell population, audits its private guarantee envelope, and
    /// (unless the DIMM is sub-envelope) starts a supervised detector.
    pub(crate) fn boot(
        cfg: &FleetConfig,
        machine: u64,
        id: DomainId,
        channel: u32,
        clock: CpuClock,
        engine: Engine,
    ) -> Self {
        let seed = domain_seed(cfg.seed, machine, id);
        let population = cfg
            .weak_cells
            .sample(&mut FaultRng::new(seed).fork(WEAKCELL_SITE));
        let mut anvil = cfg.anvil;
        anvil.hardening.phase_seed = seed;
        let envelope = GuaranteeEnvelope::audit(
            &anvil,
            &clock,
            &cfg.envelope
                .with_flip_threshold(population.min_flip_threshold),
        );
        let downtime_budget = envelope.downtime_budget(cfg.envelope.attack_access_cycles);

        let driver = WindowDriver::new(
            engine,
            anvil.sampling,
            FaultRng::new(seed).fork(TRAFFIC_SITE),
        );
        let victim = RowId::new(BankId(2), 501);
        let aggressors = driver.pair_around(victim);

        let ladder = if population.sub_envelope {
            // The weakest cell flips inside the envelope's undetectable
            // budget: no detector configuration can promise protection,
            // so the domain runs unconditional blanket refresh forever.
            DegradationLadder::pinned(
                ProtectionLevel::BlanketRefresh,
                LadderCause::SubEnvelopeDimm,
            )
        } else {
            DegradationLadder::new(cfg.promote_base, cfg.promote_cap)
        };
        let mut domain = DomainRuntime {
            id,
            channel,
            seed,
            population,
            downtime_budget,
            anvil: HashedConfig::new(anvil),
            ladder,
            driver,
            aggressors,
            victim,
            evidence: 0,
            rebuilds: 0,
            quarantined: false,
            undeclared_flips: 0,
            exposure_flips: 0,
            blanket_refreshes: 0,
            retired: RuntimeStats::default(),
        };
        if !domain.population.sub_envelope {
            domain.boot_supervisor(cfg, clock);
        }
        domain
    }

    pub(crate) fn level(&self) -> ProtectionLevel {
        self.ladder.level()
    }

    pub(crate) fn channel(&self) -> u32 {
        self.channel
    }

    /// Charges this window to the current rung's residency counter.
    pub(crate) fn observe_window(&mut self) {
        self.ladder.observe_window();
    }

    /// Auto-refresh of this domain's channel rewrote every row: any
    /// accumulated disturbance is gone.
    pub(crate) fn auto_refresh(&mut self) {
        self.evidence = 0;
    }

    /// Declares a machine outage starting at `window`.
    pub(crate) fn outage_starts(&mut self, window: u64) {
        self.ladder.demote(
            window,
            ProtectionLevel::SampleSurvival,
            LadderCause::MachineOutage,
        );
        self.ladder.fault_window();
    }

    /// The machine came back from an outage: the reboot rewrote DRAM and
    /// the next service goes through the real crash-recovery path.
    pub(crate) fn outage_ends(&mut self) {
        self.evidence = 0;
        if self.driver.is_supervised() {
            self.driver.supervisor_mut().force_crash();
        }
    }

    /// Declares a PMU-loss episode starting at `window`; with
    /// `chronic`, the domain is quarantined instead.
    pub(crate) fn pmu_loss_starts(&mut self, window: u64, chronic: bool) {
        if chronic {
            if self
                .ladder
                .demote(
                    window,
                    ProtectionLevel::Quarantine,
                    LadderCause::ChronicPmuLoss,
                )
                .is_some()
            {
                self.enter_quarantine();
            }
        } else {
            self.ladder.demote(
                window,
                ProtectionLevel::BlanketRefresh,
                LadderCause::PmuLoss,
            );
        }
        self.ladder.fault_window();
    }

    /// Runs one PMU-blind window. The detector cannot be serviced; the
    /// locked-on attacker hammers at full rate; blanket refresh covers
    /// the window only once the episode is `engaged` (past the exposure
    /// windows) or the ladder is pinned (already refreshing every
    /// window).
    pub(crate) fn blind_window(&mut self, targeted: bool, engaged: bool) {
        if self.level() == ProtectionLevel::Quarantine {
            self.ladder.fault_window();
            return;
        }
        if targeted {
            self.evidence = self
                .evidence
                .saturating_add(RestartAwareHammer::burst_activations(
                    EST_STAGE1_WINDOW_CYCLES,
                ));
        }
        self.check_flip(true);
        if engaged || self.ladder.is_pinned() {
            self.evidence = 0;
            self.blanket_refreshes += 1;
        }
        self.ladder.fault_window();
    }

    /// Runs one healthy-machine window: a supervised service at the
    /// degraded rung's policy, or quarantine idling with clean-streak
    /// accrual.
    pub(crate) fn window(
        &mut self,
        w: u64,
        targeted: bool,
        hammer: &RestartAwareHammer,
        cfg: &FleetConfig,
        clock: CpuClock,
    ) {
        match self.level() {
            ProtectionLevel::Quarantine => {
                if let Some(t) = self.ladder.clean_window(w) {
                    debug_assert_eq!(t.to, ProtectionLevel::BlanketRefresh);
                    self.rebuilds += 1;
                    self.boot_supervisor(cfg, clock);
                }
                return;
            }
            ProtectionLevel::BlanketRefresh if !self.driver.is_supervised() => {
                // Pinned sub-envelope DIMM: no detector, unconditional
                // per-window blanket refresh.
                if targeted {
                    self.evidence = self.evidence.saturating_add(hammer.paced_activations());
                }
                self.check_flip(true);
                self.evidence = 0;
                self.blanket_refreshes += 1;
                return;
            }
            _ => {}
        }

        let paced = if targeted {
            hammer.paced_activations()
        } else {
            0
        };
        self.evidence = self.evidence.saturating_add(paced);
        let Ok(out) = self
            .driver
            .window(paced, targeted.then_some(self.aggressors))
        else {
            // Restart budget exhausted: the supervisor gave up.
            self.retire_supervisor();
            if self
                .ladder
                .demote(
                    w,
                    ProtectionLevel::Quarantine,
                    LadderCause::RestartBudgetExhausted,
                )
                .is_some()
            {
                self.enter_quarantine();
            }
            self.ladder.fault_window();
            return;
        };
        if let Some(gap) = out.restart_gap {
            // The attacker bursts into the unobserved gap; the check runs
            // before the recovery blanket refresh lands.
            self.evidence = self
                .evidence
                .saturating_add(RestartAwareHammer::burst_activations(gap));
            self.check_flip(self.level() != ProtectionLevel::Hardened);
            self.evidence = 0;
        } else if out.rewrites(self.victim) {
            self.evidence = 0;
        }

        match self.level() {
            ProtectionLevel::SampleSurvival
                if cfg.survival_refresh_every > 0
                    && w.is_multiple_of(cfg.survival_refresh_every) =>
            {
                self.evidence = 0;
                self.blanket_refreshes += 1;
            }
            ProtectionLevel::BlanketRefresh => {
                self.evidence = 0;
                self.blanket_refreshes += 1;
            }
            _ => {}
        }
        // Post-service safety net: any evidence past the weakest cell is
        // a flip, undeclared when the domain claimed full protection.
        self.check_flip(self.level() != ProtectionLevel::Hardened);

        if out.restart_gap.is_none() {
            self.ladder.clean_window(w);
        } else {
            self.ladder.fault_window();
        }
    }

    /// Charges a flip if the accumulated evidence reaches the weakest
    /// cell, classifying it by whether the window was declared degraded.
    fn check_flip(&mut self, declared: bool) {
        if self.evidence >= self.population.min_flip_threshold {
            if declared {
                self.exposure_flips += 1;
            } else {
                self.undeclared_flips += 1;
            }
            self.evidence = 0;
        }
    }

    /// Drops the supervisor into quarantine: its counters fold into the
    /// domain accumulators and its state is discarded.
    fn enter_quarantine(&mut self) {
        self.quarantined = true;
        self.retire_supervisor();
        self.evidence = 0;
    }

    /// Boots a supervised detector at the driver's last service time.
    /// Co-resident domains get distinct backoff-jitter seeds so a
    /// correlated outage never restarts them in lockstep; a supervisor
    /// rebuilt after quarantine draws its lifecycle faults from a
    /// rebuild-indexed stream so the schedule does not replay.
    fn boot_supervisor(&mut self, cfg: &FleetConfig, clock: CpuClock) {
        let runtime = anvil_runtime::RuntimeConfig {
            jitter_seed: self.seed,
            ..cfg.runtime
        };
        let site = LIFECYCLE_SITE + REBUILD_STRIDE * self.rebuilds;
        self.driver.boot(
            self.anvil,
            runtime,
            clock,
            cfg.envelope.refresh_period,
            Some(
                LifecycleInjector::new(cfg.lifecycle, FaultRng::new(self.seed).fork(site))
                    .with_torn_writes(cfg.correlated.torn_write_rate),
            ),
        );
    }

    /// Retires the live supervisor, folding the counters the summary
    /// reports into [`Self::retired`].
    fn retire_supervisor(&mut self) {
        if let Some(s) = self.driver.retire() {
            let acc = &mut self.retired;
            acc.services += s.services;
            acc.crashes += s.crashes;
            acc.restarts += s.restarts;
            acc.cold_starts += s.cold_starts;
            acc.checkpoints_torn += s.checkpoints_torn;
            acc.checkpoint_rejections += s.checkpoint_rejections;
            acc.worst_recovery_gap = acc.worst_recovery_gap.max(s.worst_recovery_gap);
            acc.total_downtime += s.total_downtime;
        }
    }

    /// Finalizes the domain into its serializable summary.
    pub(crate) fn finish(mut self) -> DomainSummary {
        self.retire_supervisor();
        let tally = self.driver.tally();
        DomainSummary {
            domain: self.id.0,
            channel: self.channel,
            min_flip_threshold: self.population.min_flip_threshold,
            weak_cells: self.population.weak_cells,
            sub_envelope: self.population.sub_envelope,
            final_level: self.ladder.level().name().to_string(),
            undeclared_flips: self.undeclared_flips,
            exposure_flips: self.exposure_flips,
            threshold_crossings: tally.threshold_crossings,
            detections: tally.detections,
            selective_refreshes: tally.selective_refreshes,
            blanket_refreshes: self.blanket_refreshes,
            services: self.retired.services,
            crashes: self.retired.crashes,
            restarts: self.retired.restarts,
            cold_starts: self.retired.cold_starts,
            checkpoints_torn: self.retired.checkpoints_torn,
            checkpoint_rejections: self.retired.checkpoint_rejections,
            worst_recovery_gap: self.retired.worst_recovery_gap,
            total_downtime: self.retired.total_downtime,
            downtime_budget: self.downtime_budget,
            within_budget: self.retired.worst_recovery_gap <= self.downtime_budget,
            demotions: self.ladder.demotions(),
            promotions: self
                .ladder
                .transitions()
                .iter()
                .filter(|t| t.cause == LadderCause::FaultsCleared)
                .count() as u64,
            windows_hardened: self.ladder.windows_at()[0],
            windows_sample_survival: self.ladder.windows_at()[1],
            windows_blanket: self.ladder.windows_at()[2],
            windows_quarantine: self.ladder.windows_at()[3],
            quarantined: self.quarantined,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The thundering-herd fix: after a correlated outage kills every
    /// detector on a machine at once, the seeded backoff jitter must
    /// bring them back at distinct instants.
    #[test]
    fn coresident_domains_restart_at_distinct_instants() {
        let cfg = FleetConfig::standard(1, 100, 0xF1EE7);
        let clock = CpuClock::SANDY_BRIDGE_2_6GHZ;
        let mut gaps = Vec::new();
        for id in cfg.topology.iter() {
            let mut d = DomainRuntime::boot(
                &cfg,
                0,
                id,
                cfg.topology.channel_of(id),
                clock,
                Engine::default(),
            );
            if !d.driver.is_supervised() {
                continue;
            }
            d.driver.supervisor_mut().force_crash();
            let out = d.driver.window(0, None).unwrap();
            let gap = out.restart_gap.expect("a forced crash must restart");
            gaps.push(gap);
        }
        assert!(gaps.len() >= 2, "need co-resident supervised domains");
        let distinct: std::collections::BTreeSet<_> = gaps.iter().collect();
        assert_eq!(
            distinct.len(),
            gaps.len(),
            "correlated restart instants: {gaps:?}"
        );
    }
}
