//! The supervised window driver: one stage-1 window of traffic, serviced.
//!
//! ANVIL's defence is a per-window step — count LLC misses in stage 1,
//! sample with PEBS in stage 2 once the count trips, then selectively
//! refresh. Every window-granular campaign (soak, fleet, self-defense)
//! drives that step through one [`WindowDriver`]: the campaign supplies
//! the window's paced adversary activations and aggressor pair, the
//! driver draws the benign traffic, feeds the PMU, services the
//! supervised detector under the chosen [`Engine`], tallies the outcome,
//! and hands back a [`WindowOutcome`] the campaign's own flip policy
//! reads. Each window's traffic is charged in bulk to the stage-1
//! counters. Inside a stage-2 (sampled) window, 120 [`RetiredOp`]s are
//! spread across the window through [`Pmu::observe_spread`], which
//! charges their misses in bulk too and offers the PEBS engine only the
//! ops its rate limit lets it take.

use anvil_cache::HitLevel;
use anvil_core::{DetectorStage, HashedConfig, RuntimeError, ServiceOutcome};
use anvil_dram::{AddressMapping, BankId, CpuClock, Cycle, DramGeometry, DramLocation, RowId};
use anvil_faults::{FaultRng, LifecycleInjector};
use anvil_mem::{AccessKind, AccessOutcome};
use anvil_pmu::{EpochSummary, Pmu, RetiredOp, SamplerConfig};

use crate::supervisor::{RuntimeConfig, RuntimeStats, SupervisedOutcome, Supervisor};

/// Ops spread across each stage-2 window (the sampler keeps ~30 of them).
const SAMPLED_OPS: u64 = 120;

/// Attacker pid in the simulated traffic mix.
const ATTACKER_PID: u32 = 7;
/// Benign streaming pid.
const BENIGN_PID: u32 = 3;

/// Which simulation core services a window.
///
/// Both engines produce **byte-identical** campaign summaries for any
/// configuration — pinned by the `engines_agree_*` soak tests and the
/// cross-engine property tests in `anvil-bench`. The per-op engine
/// services every window through the full supervised machinery; the
/// event-driven engine fast-forwards quiet windows through
/// [`Supervisor::service_quiet`] and falls back to the per-op path at
/// every "interesting" event (trip, stage-2 window, queued reload,
/// non-pristine state). See `DESIGN.md` §16.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Every window through [`Supervisor::service`] — the reference path.
    PerOp,
    /// Epoch-skipping fast path for quiet windows (the default).
    #[default]
    Event,
}

impl Engine {
    /// Parses a CLI spelling (`per-op` or `event`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "per-op" => Some(Engine::PerOp),
            "event" => Some(Engine::Event),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Engine::PerOp => "per-op",
            Engine::Event => "event",
        }
    }
}

/// Counters folded from every serviced window's [`ServiceOutcome`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowTally {
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
}

/// What one driven window did to DRAM, for the caller's flip policy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowOutcome {
    refreshes: Vec<(RowId, u64)>,
    banks: Vec<BankId>,
    /// The unobserved downtime, in cycles, when the detector crashed and
    /// was restarted this window. The recovery protocol's blanket refresh
    /// lands at the end of the gap, so a gap-timed burst must be charged
    /// before the caller clears its evidence.
    pub restart_gap: Option<Cycle>,
}

impl WindowOutcome {
    /// Whether this window's service rewrote `row`: a selective refresh
    /// named it, or a degraded-mode blanket refresh covered its bank.
    #[must_use]
    pub fn rewrites(&self, row: RowId) -> bool {
        self.refreshes.iter().any(|(r, _)| *r == row) || self.banks.contains(&row.bank)
    }
}

/// One supervised detector under window-granular traffic.
///
/// Owns the [`Supervisor`], the [`Pmu`], the address mapping, the benign
/// traffic stream, and the engine choice. The PMU, the traffic stream,
/// the service clock and the tally survive a supervisor being
/// [retired](Self::retire) and [booted](Self::boot) again, as a fleet
/// domain's quarantine and re-promotion require.
#[derive(Debug)]
pub struct WindowDriver {
    sup: Option<Supervisor>,
    pmu: Pmu,
    mapping: AddressMapping,
    traffic: FaultRng,
    engine: Engine,
    last_serviced: Cycle,
    windows: u64,
    tally: WindowTally,
}

impl WindowDriver {
    /// A driver with no supervisor yet: a PMU configured by `sampling`,
    /// the paper platform's DDR3 address mapping, and `traffic` as the
    /// benign-traffic stream.
    #[must_use]
    pub fn new(engine: Engine, sampling: SamplerConfig, traffic: FaultRng) -> Self {
        WindowDriver {
            sup: None,
            pmu: Pmu::new(sampling),
            mapping: AddressMapping::new(DramGeometry::ddr3_4gb()),
            traffic,
            engine,
            last_serviced: 0,
            windows: 0,
            tally: WindowTally::default(),
        }
    }

    /// Boots a supervised detector at the last service time (cycle 0 on a
    /// fresh driver), replacing any live one, with `faults` as its
    /// lifecycle fault injector.
    pub fn boot(
        &mut self,
        anvil: impl Into<HashedConfig>,
        runtime: RuntimeConfig,
        clock: CpuClock,
        refresh_period: Cycle,
        faults: Option<LifecycleInjector>,
    ) {
        let mut sup = Supervisor::new(
            anvil,
            runtime,
            clock,
            refresh_period,
            self.last_serviced,
            &mut self.pmu,
        );
        sup.set_faults(faults);
        self.sup = Some(sup);
    }

    /// Drops the supervisor, returning its final counters; `None` when
    /// none was running.
    pub fn retire(&mut self) -> Option<RuntimeStats> {
        self.sup.take().map(|sup| *sup.stats())
    }

    /// Whether a supervisor is running.
    #[must_use]
    pub fn is_supervised(&self) -> bool {
        self.sup.is_some()
    }

    /// The running supervisor.
    ///
    /// # Panics
    ///
    /// Panics when no supervisor is running.
    #[must_use]
    pub fn supervisor(&self) -> &Supervisor {
        self.sup.as_ref().expect("the driver has no supervisor")
    }

    /// The running supervisor, mutably (reloads, state corruption,
    /// forced crashes).
    ///
    /// # Panics
    ///
    /// Panics when no supervisor is running.
    pub fn supervisor_mut(&mut self) -> &mut Supervisor {
        self.sup.as_mut().expect("the driver has no supervisor")
    }

    /// The physical addresses of the rows either side of `victim`: the
    /// double-sided aggressor pair that hammers it.
    #[must_use]
    pub fn pair_around(&self, victim: RowId) -> [u64; 2] {
        [victim.row - 1, victim.row + 1].map(|row| {
            self.mapping.address_of(DramLocation {
                bank: victim.bank,
                row,
                col: 0,
            })
        })
    }

    /// When the detector last serviced (or resumed after a restart).
    #[must_use]
    pub fn last_serviced(&self) -> Cycle {
        self.last_serviced
    }

    /// Windows serviced so far (restarted windows included).
    #[must_use]
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Outcome counters over every serviced window.
    #[must_use]
    pub fn tally(&self) -> WindowTally {
        self.tally
    }

    /// Drives one stage-1 window to its deadline: `paced` adversary
    /// activations plus a drawn benign load, then one supervised service.
    ///
    /// When stage 2 is armed, 120 ops are spread across the window
    /// for the PEBS engine: mostly alternating reads of the `aggressors`
    /// pair with every 16th a scattered benign read, or all benign reads
    /// when `aggressors` is `None`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::RestartBudgetExhausted`] when the supervisor gives
    /// up; the window is not counted.
    ///
    /// # Panics
    ///
    /// Panics when no supervisor is running.
    pub fn window(
        &mut self,
        paced: u64,
        aggressors: Option<[u64; 2]>,
    ) -> Result<WindowOutcome, RuntimeError> {
        let sup = self.sup.as_mut().expect("the driver has no supervisor");
        let deadline = sup.deadline();
        let misses = paced + 200 + self.traffic.below(2_801);
        let sampled = sup.detector().stage() == DetectorStage::Sampling;

        // Quiet-window fast path: the window's miss total is known in
        // closed form, and the unarmed stage-1 counters read the same
        // whether or not the bulk charge lands (they are cleared by the
        // read either way), so the counter traffic is skipped entirely.
        let quiet = if self.engine == Engine::Event && !sampled {
            sup.service_quiet(deadline, misses, &mut self.pmu)
        } else {
            None
        };
        let result = if let Some(result) = quiet {
            result
        } else {
            let mut bulk = misses;
            if sampled {
                // Spread ops across the window for the PEBS engine. Every
                // benign op draws its address, sampled or not.
                let span = deadline
                    .saturating_sub(self.last_serviced)
                    .max(SAMPLED_OPS + 1);
                let traffic = &mut self.traffic;
                self.pmu.observe_spread(
                    self.last_serviced,
                    span,
                    SAMPLED_OPS,
                    |i| match aggressors {
                        Some(pair) if i % 16 != 15 => {
                            dram_read(pair[(i % 2) as usize], ATTACKER_PID)
                        }
                        _ => dram_read(traffic.below(1 << 30) & !63, BENIGN_PID),
                    },
                );
                bulk = bulk.saturating_sub(SAMPLED_OPS);
            }
            bulk_misses(&mut self.pmu, bulk, deadline.saturating_sub(1));
            sup.service(deadline, &mut self.pmu, &self.mapping, &mut |_, v| Some(v))
        };

        let mut out = WindowOutcome::default();
        match result? {
            SupervisedOutcome::Serviced {
                outcome,
                serviced_at,
            } => {
                self.last_serviced = serviced_at;
                self.fold(outcome, &mut out);
            }
            SupervisedOutcome::Restarted(recovery) => {
                self.last_serviced = recovery.resumed_at;
                out.restart_gap = Some(recovery.gap);
            }
        }
        self.windows += 1;
        Ok(out)
    }

    /// Tallies one serviced outcome and moves its refreshes into `out`.
    fn fold(&mut self, outcome: ServiceOutcome, out: &mut WindowOutcome) {
        let t = &mut self.tally;
        let (report, refreshes) = match outcome {
            ServiceOutcome::Quiet { .. } => return,
            ServiceOutcome::Armed { .. } => {
                t.threshold_crossings += 1;
                return;
            }
            ServiceOutcome::Analyzed {
                report, refreshes, ..
            } => (report, refreshes),
            ServiceOutcome::Degraded {
                report,
                refreshes,
                banks,
                ..
            } => {
                t.degraded_windows += 1;
                out.banks = banks;
                (report, refreshes)
            }
        };
        t.stage2_windows += 1;
        if report.detected() {
            t.detections += 1;
        }
        t.selective_refreshes += refreshes.len() as u64;
        out.refreshes = refreshes;
    }
}

/// Bulk-charges `n` LLC-missing loads to both stage-1 counters at `t`.
fn bulk_misses(pmu: &mut Pmu, n: u64, t: Cycle) {
    pmu.observe_epoch(&EpochSummary {
        llc_misses: n,
        llc_miss_loads: n,
        at: t,
    });
}

/// A DRAM-sourced read the PMU can sample: identity-mapped, with a
/// latency above the row-miss cutoff so it counts as activation
/// evidence.
pub(crate) fn dram_read(paddr: u64, pid: u32) -> RetiredOp {
    RetiredOp {
        vaddr: paddr,
        pid,
        outcome: AccessOutcome {
            paddr,
            kind: AccessKind::Read,
            level: HitLevel::Memory,
            advance: 184,
            dram: None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anvil_core::AnvilConfig;
    use anvil_faults::LifecycleFaults;

    #[test]
    fn engine_cli_spellings_round_trip() {
        for e in [Engine::PerOp, Engine::Event] {
            assert_eq!(Engine::parse(e.as_str()), Some(e));
        }
        assert_eq!(Engine::parse("bogus"), None);
        assert_eq!(Engine::default(), Engine::Event);
    }

    #[test]
    fn an_exhausted_restart_budget_stops_the_driver_short() {
        crate::install_quiet_panic_hook();
        let anvil = AnvilConfig::hardened();
        let runtime = RuntimeConfig {
            restart_budget: 3,
            ..RuntimeConfig::default()
        };
        let faults = LifecycleFaults {
            crash_rate: 1.0,
            stall_rate: 0.0,
            max_stall: 0,
            corrupt_rate: 0.0,
        };
        for engine in [Engine::PerOp, Engine::Event] {
            let mut driver = WindowDriver::new(engine, anvil.sampling, FaultRng::new(1).fork(6));
            driver.boot(
                anvil,
                runtime,
                CpuClock::SANDY_BRIDGE_2_6GHZ,
                166_400_000,
                Some(LifecycleInjector::new(faults, FaultRng::new(1).fork(5))),
            );
            let requested = 20;
            let mut stopped = false;
            for _ in 0..requested {
                if driver.window(0, None).is_err() {
                    stopped = true;
                    break;
                }
            }
            assert!(
                stopped,
                "{engine:?}: a crash on every service must exhaust the budget"
            );
            assert!(
                driver.windows() < requested,
                "{engine:?}: {}",
                driver.windows()
            );
            assert_eq!(driver.windows(), u64::from(runtime.restart_budget));
        }
    }
}
