//! One simulated machine: a topology of supervised domains under
//! correlated faults, with a cross-domain attacker rotating over them.

use anvil_adversary::RestartAwareHammer;
use anvil_core::{AnvilConfig, EnvelopeParams};
use anvil_dram::CpuClock;
use anvil_faults::{CorrelatedFaults, CorrelatedInjector, FaultRng, LifecycleFaults};
use anvil_mem::DomainTopology;
use anvil_runtime::{Engine, RuntimeConfig};
use serde::{Deserialize, Serialize};

use crate::domain::{DomainRuntime, DomainSummary};
use crate::weakcells::WeakCellDistribution;

/// Stream tag for a machine's correlated-fault injector (offset by the
/// machine index; clear of the per-domain site tags).
const MACHINE_SITE_BASE: u64 = 0x4000;

/// Full parameterization of one fleet campaign. One machine is one pure
/// cell of `(config, machine_index)`; the campaign fans machines across
/// threads and folds them in submission order, so the fleet summary is
/// byte-identical at any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Machines to simulate.
    pub machines: u64,
    /// Detector windows per machine.
    pub windows: u64,
    /// Fleet seed: drives weak-cell sampling, per-domain fault
    /// schedules, and the correlated machine faults.
    pub seed: u64,
    /// Channel × DIMM layout of every machine.
    pub topology: DomainTopology,
    /// Detector configuration each domain runs (per-domain phase seeds
    /// are derived from the fleet seed).
    pub anvil: AnvilConfig,
    /// Supervisor policy per domain.
    pub runtime: RuntimeConfig,
    /// Independent per-detector fault intensities.
    pub lifecycle: LifecycleFaults,
    /// Machine-scoped correlated fault intensities.
    pub correlated: CorrelatedFaults,
    /// The weak-cell distribution DIMM populations are drawn from.
    pub weak_cells: WeakCellDistribution,
    /// Platform constants for flip accounting and downtime budgets.
    pub envelope: EnvelopeParams,
    /// PMU-blind windows at the start of a loss episode before the
    /// blanket-refresh fallback engages (the exploit-exposure window).
    pub exposure_windows: u64,
    /// Blanket-refresh cadence (in windows) of the sample-survival rung.
    pub survival_refresh_every: u64,
    /// PMU-loss episodes after which a machine's domains are
    /// quarantined as chronically unmeasurable.
    pub quarantine_after: u64,
    /// Clean-window streak required for the first re-promotion.
    pub promote_base: u64,
    /// Ceiling on the exponentially backed-off promotion streak.
    pub promote_cap: u64,
}

impl FleetConfig {
    /// The standard fleet campaign: hardened detectors on 2×2-domain
    /// machines, soak-calibrated independent faults, accelerated
    /// correlated faults, and a tightened backoff cap so every normal
    /// domain's recovery gap sits inside its own downtime budget with
    /// structural margin.
    #[must_use]
    pub fn standard(machines: u64, windows: u64, seed: u64) -> Self {
        FleetConfig {
            machines,
            windows,
            seed,
            topology: DomainTopology::paper_fleet(),
            anvil: AnvilConfig::hardened(),
            runtime: RuntimeConfig {
                restart_budget: 8,
                backoff_base: 50_000,
                // 2M cycles ≈ 0.77 ms: under the ~5.6M-cycle downtime
                // budget of the weakest normal DIMM (160K-activation
                // floor), so gap bursts can never complete a flip.
                backoff_cap: 2_000_000,
                checkpoint_every: 4,
                ..RuntimeConfig::default()
            },
            lifecycle: LifecycleFaults {
                crash_rate: 1e-3,
                stall_rate: 5e-3,
                max_stall: 100_000,
                corrupt_rate: 0.05,
            },
            correlated: CorrelatedFaults::standard(),
            weak_cells: WeakCellDistribution::standard(),
            envelope: EnvelopeParams::paper_platform(),
            exposure_windows: 2,
            survival_refresh_every: 4,
            quarantine_after: 3,
            promote_base: 8,
            promote_cap: 256,
        }
    }
}

/// Everything one machine run observed, in deterministic serializable
/// form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineSummary {
    /// Machine index within the fleet.
    pub machine: u64,
    /// Machine-wide outages injected.
    pub outages: u64,
    /// Windows spent down across all outages.
    pub outage_windows: u64,
    /// PMU-loss episodes injected.
    pub pmu_episodes: u64,
    /// Windows spent PMU-blind.
    pub blind_windows: u64,
    /// Channel refresh postponements drawn.
    pub refresh_delays: u64,
    /// Per-domain results.
    pub domains: Vec<DomainSummary>,
}

/// Simulates one machine for `cfg.windows` detector windows under the
/// default (event-driven) engine. Deterministic in `(cfg, machine)`.
pub fn run_machine(cfg: &FleetConfig, machine: u64) -> MachineSummary {
    run_machine_with_engine(cfg, machine, Engine::default())
}

/// [`run_machine`] under an explicit [`Engine`]. The summary is
/// engine-independent.
#[allow(clippy::too_many_lines)]
pub fn run_machine_with_engine(cfg: &FleetConfig, machine: u64, engine: Engine) -> MachineSummary {
    let clock = CpuClock::SANDY_BRIDGE_2_6GHZ;
    let channels = cfg.topology.channels.max(1);
    let mut correlated = CorrelatedInjector::new(
        cfg.correlated,
        &FaultRng::new(cfg.seed).fork(MACHINE_SITE_BASE + machine),
        channels,
    );
    let hammer = RestartAwareHammer::new();

    let mut domains: Vec<DomainRuntime> = cfg
        .topology
        .iter()
        .map(|id| DomainRuntime::boot(cfg, machine, id, cfg.topology.channel_of(id), clock, engine))
        .collect();

    // Refresh epochs are tracked in fleet windows: ~10 windows cover one
    // 64 ms refresh period at the 6 ms stage-1 cadence. A delayed epoch
    // stretches the next boundary on that channel.
    let tc = cfg.anvil.tc_cycles(&clock).max(1);
    let windows_per_epoch = (cfg.envelope.refresh_period / tc).max(1);
    let mut next_refresh: Vec<u64> = (0..channels as usize).map(|_| windows_per_epoch).collect();

    let mut outage_remaining: u64 = 0;
    let mut blind_remaining: u64 = 0;
    let mut blind_elapsed: u64 = 0;
    let mut blind_target: Option<usize> = None;
    let mut outage_windows_total: u64 = 0;
    let mut blind_windows_total: u64 = 0;

    for w in 0..cfg.windows {
        // --- Machine outage: everything (attacker included) is down. ---
        if outage_remaining == 0 && correlated.outage_starts() {
            outage_remaining = cfg.correlated.outage_windows.max(1);
            for d in &mut domains {
                d.outage_starts(w);
            }
            // An outage preempts a blind episode: the reboot restores
            // the PMU with everything else.
            blind_remaining = 0;
            blind_target = None;
        }
        if outage_remaining > 0 {
            outage_remaining -= 1;
            outage_windows_total += 1;
            for d in &mut domains {
                d.observe_window();
            }
            if outage_remaining == 0 {
                for d in &mut domains {
                    d.outage_ends();
                }
            }
            continue;
        }

        // --- PMU loss: every detector on the machine goes blind. ---
        if blind_remaining == 0 && correlated.pmu_loss_starts() {
            blind_remaining = cfg.correlated.pmu_loss_windows.max(1);
            blind_elapsed = 0;
            let chronic = correlated.pmu_losses() >= cfg.quarantine_after.max(1);
            for d in &mut domains {
                d.pmu_loss_starts(w, chronic);
            }
            // The attacker locks onto one domain for the whole episode:
            // rotating would spread the blind-window burst too thin to
            // ever flip, and a real attacker observing refresh stalls
            // would not rotate either.
            let eligible: Vec<bool> = domains
                .iter()
                .map(|d| d.level() != anvil_runtime::ProtectionLevel::Quarantine)
                .collect();
            blind_target = hammer.target_at(w, &eligible);
        }

        // --- Channel refresh epochs (possibly postponed). ---
        for (c, due) in next_refresh.iter_mut().enumerate() {
            if w >= *due {
                for d in &mut domains {
                    if d.channel() as usize == c {
                        d.auto_refresh();
                    }
                }
                let delay = if correlated.refresh_delayed(c) {
                    cfg.correlated.refresh_delay_windows
                } else {
                    0
                };
                *due = w + windows_per_epoch + delay;
            }
        }

        if blind_remaining > 0 {
            blind_remaining -= 1;
            blind_windows_total += 1;
            let engaged = blind_elapsed >= cfg.exposure_windows;
            for (i, d) in domains.iter_mut().enumerate() {
                d.observe_window();
                d.blind_window(blind_target == Some(i), engaged);
            }
            blind_elapsed += 1;
            if blind_remaining == 0 {
                blind_target = None;
            }
            continue;
        }

        // --- Healthy window: the attacker rotates over live domains. ---
        let eligible: Vec<bool> = domains
            .iter()
            .map(|d| d.level() != anvil_runtime::ProtectionLevel::Quarantine)
            .collect();
        let target = hammer.target_at(w, &eligible);
        for (i, d) in domains.iter_mut().enumerate() {
            d.observe_window();
            d.window(w, target == Some(i), &hammer, cfg, clock);
        }
    }

    MachineSummary {
        machine,
        outages: correlated.outages(),
        outage_windows: outage_windows_total,
        pmu_episodes: correlated.pmu_losses(),
        blind_windows: blind_windows_total,
        refresh_delays: correlated.refresh_delays(),
        domains: domains.into_iter().map(DomainRuntime::finish).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FleetConfig {
        let mut cfg = FleetConfig::standard(1, 400, 0xF1EE7);
        // Crank the correlated rates so a short run exercises outages,
        // blind episodes, and quarantine.
        cfg.correlated.machine_outage_rate = 5e-3;
        cfg.correlated.pmu_loss_rate = 8e-3;
        cfg
    }

    #[test]
    fn a_machine_run_is_deterministic() {
        let cfg = small();
        let a = run_machine(&cfg, 3);
        let b = run_machine(&cfg, 3);
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn machines_diverge_by_index_and_seed() {
        let cfg = small();
        let a = run_machine(&cfg, 0);
        let b = run_machine(&cfg, 1);
        assert_ne!(a.domains, b.domains);
        let mut other = cfg;
        other.seed = 999;
        assert_ne!(run_machine(&cfg, 0).domains, run_machine(&other, 0).domains);
    }

    #[test]
    fn correlated_faults_drive_the_ladder_without_undeclared_flips() {
        let cfg = small();
        let m = run_machine(&cfg, 7);
        assert!(m.outages > 0 || m.pmu_episodes > 0, "{m:?}");
        let demotions: u64 = m.domains.iter().map(|d| d.demotions).sum();
        assert!(demotions > 0, "correlated faults must demote: {m:?}");
        for d in &m.domains {
            assert_eq!(d.undeclared_flips, 0, "undeclared flip: {d:?}");
            assert!(d.within_budget, "gap past budget: {d:?}");
        }
        // Every window is accounted to exactly one rung.
        for d in &m.domains {
            let total = d.windows_hardened
                + d.windows_sample_survival
                + d.windows_blanket
                + d.windows_quarantine;
            assert_eq!(total, cfg.windows);
        }
    }

    #[test]
    fn chronic_pmu_loss_quarantines_and_repromotion_rebuilds() {
        let mut cfg = small();
        cfg.windows = 1_200;
        cfg.correlated.machine_outage_rate = 0.0;
        cfg.correlated.pmu_loss_rate = 2e-2;
        cfg.quarantine_after = 2;
        let m = run_machine(&cfg, 5);
        assert!(m.pmu_episodes >= 2, "{m:?}");
        let quarantined = m.domains.iter().filter(|d| d.quarantined).count();
        assert!(quarantined > 0, "chronic loss must quarantine: {m:?}");
        // With enough clean windows after the last episode, at least one
        // quarantined domain climbed back (promotions recorded).
        let promotions: u64 = m.domains.iter().map(|d| d.promotions).sum();
        assert!(promotions > 0, "no re-promotion recorded: {m:?}");
        for d in &m.domains {
            assert_eq!(d.undeclared_flips, 0, "{d:?}");
        }
    }

    #[test]
    fn sub_envelope_dimms_are_pinned_and_never_flip_undeclared() {
        let mut cfg = small();
        cfg.weak_cells.sub_envelope_rate = 1.0;
        let m = run_machine(&cfg, 2);
        for d in &m.domains {
            assert!(d.sub_envelope);
            assert_eq!(d.final_level, "blanket_refresh");
            assert_eq!(d.undeclared_flips, 0);
            assert_eq!(d.services, 0, "pinned domains never boot a detector");
            assert!(d.blanket_refreshes > 0);
            assert_eq!(d.downtime_budget, 0);
            assert!(d.within_budget, "no supervisor, no gaps: {d:?}");
        }
    }
}
