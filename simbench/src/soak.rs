//! The two soak workloads: `soak::run_with_engine` under the event
//! engine, benign-dominated or adversary-paced.
//!
//! The traced cell drives the same per-window sequence of public
//! `Supervisor` and `Pmu` calls that `run_with_engine` makes, with a
//! timer around each call into those crates. Its [`SoakSummary`] must
//! equal the untraced one, which shows the trace measured the same
//! program.

use std::time::Instant;

use anvil_adversary::RestartAwareHammer;
use anvil_cache::HitLevel;
use anvil_core::{DetectorStage, GuaranteeEnvelope, ServiceOutcome};
use anvil_dram::{AddressMapping, BankId, CpuClock, Cycle, DramGeometry, DramLocation, RowId};
use anvil_faults::{FaultRng, LifecycleInjector};
use anvil_mem::{AccessKind, AccessOutcome};
use anvil_pmu::{EpochSummary, Pmu, RetiredOp};
use anvil_runtime::{soak, Engine, SoakConfig, SoakSummary, SupervisedOutcome, Supervisor};

use crate::{Cell, Trace};

/// Ops materialized per stage-2 window, as the soak engine does.
const SAMPLED_OPS: u64 = 120;
const ATTACKER_PID: u32 = 7;
const BENIGN_PID: u32 = 3;

/// The workload's configuration: the campaign's standard cell, with or
/// without the paced adversary.
pub fn config(adversary: bool, windows: u64, seed: u64) -> SoakConfig {
    if adversary {
        SoakConfig::standard(windows, seed)
    } else {
        SoakConfig::benign(windows, seed)
    }
}

fn cell(s: &SoakSummary, start: Instant) -> Cell {
    let wall_s = start.elapsed().as_secs_f64();
    Cell {
        summary: serde_json::to_string(s).expect("summaries serialize"),
        gate: s.holds(),
        wall_s,
        windows: s.windows,
        sim_ms: s.simulated_ms,
        machines: 0,
        ops: 0,
        flips: s.flips,
        detect_ms: None,
    }
}

/// One untraced cell: the soak engine itself.
pub fn run(cfg: &SoakConfig) -> Cell {
    let start = Instant::now();
    let s = soak::run_with_engine(cfg, Engine::Event);
    cell(&s, start)
}

/// Everything `run_with_engine` builds before its first window.
struct Setup {
    clock: CpuClock,
    mapping: AddressMapping,
    pmu: Pmu,
    sup: Supervisor,
    traffic: FaultRng,
    downtime_budget: Cycle,
}

fn setup(cfg: &SoakConfig) -> Setup {
    let clock = CpuClock::SANDY_BRIDGE_2_6GHZ;
    let mapping = AddressMapping::new(DramGeometry::ddr3_4gb());
    let mut pmu = Pmu::new(cfg.anvil.sampling);
    let mut sup = Supervisor::new(
        cfg.anvil,
        cfg.runtime,
        clock,
        cfg.envelope.refresh_period,
        0,
        &mut pmu,
    );
    sup.set_faults(Some(LifecycleInjector::new(
        cfg.lifecycle,
        FaultRng::new(cfg.seed).fork(5),
    )));
    let envelope = GuaranteeEnvelope::audit(&cfg.anvil, &clock, &cfg.envelope);
    Setup {
        clock,
        mapping,
        pmu,
        sup,
        traffic: FaultRng::new(cfg.seed).fork(6),
        downtime_budget: envelope.downtime_budget(cfg.envelope.attack_access_cycles),
    }
}

/// Host seconds of one set-up: the construction `run_with_engine` does
/// before its first window.
pub fn setup_s(cfg: &SoakConfig) -> f64 {
    let start = Instant::now();
    std::hint::black_box(setup(cfg));
    start.elapsed().as_secs_f64()
}

fn dram_read(paddr: u64, pid: u32) -> RetiredOp {
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

/// Index into [`Trace::service`] for a supervised outcome.
fn outcome_slot(r: &Result<SupervisedOutcome, anvil_core::RuntimeError>) -> usize {
    match r {
        Ok(SupervisedOutcome::Serviced { outcome, .. }) => match outcome {
            ServiceOutcome::Quiet { .. } => 0,
            ServiceOutcome::Armed { .. } => 1,
            ServiceOutcome::Analyzed { .. } => 2,
            ServiceOutcome::Degraded { .. } => 3,
        },
        Ok(SupervisedOutcome::Restarted(_)) | Err(_) => 4,
    }
}

/// One traced cell. Leaves the detector's final checkpoint (the
/// workload's own checkpoint, for the encode/decode costs) in the trace.
pub fn run_traced(cfg: &SoakConfig, trace: &mut Trace) -> Cell {
    let start = Instant::now();
    let s = traced(cfg, trace);
    cell(&s, start)
}

#[allow(clippy::too_many_lines)]
fn traced(cfg: &SoakConfig, trace: &mut Trace) -> SoakSummary {
    let Setup {
        clock,
        mapping,
        mut pmu,
        mut sup,
        mut traffic,
        downtime_budget,
    } = setup(cfg);

    let victim = RowId::new(BankId(2), 501);
    let aggressors = [
        mapping.address_of(DramLocation {
            bank: victim.bank,
            row: victim.row - 1,
            col: 0,
        }),
        mapping.address_of(DramLocation {
            bank: victim.bank,
            row: victim.row + 1,
            col: 0,
        }),
    ];
    let paced = if cfg.adversary {
        cfg.anvil.llc_miss_threshold.saturating_sub(500)
    } else {
        0
    };
    let bulk = |n: u64, t: Cycle| EpochSummary {
        llc_misses: n,
        llc_miss_loads: n,
        at: t,
    };

    let mut s = SoakSummary {
        windows: 0,
        simulated_ms: 0.0,
        flips: 0,
        threshold_crossings: 0,
        stage2_windows: 0,
        detections: 0,
        selective_refreshes: 0,
        degraded_windows: 0,
        services: 0,
        crashes: 0,
        restarts: 0,
        cold_starts: 0,
        checkpoints_written: 0,
        checkpoints_corrupted: 0,
        checkpoint_rejections: 0,
        reloads: 0,
        reloads_deferred: 0,
        stalled_services: 0,
        worst_recovery_gap: 0,
        total_downtime: 0,
        downtime_budget,
        within_budget: true,
        restart_budget_exhausted: false,
    };
    let mut ops: Vec<RetiredOp> = Vec::with_capacity(SAMPLED_OPS as usize);
    let mut observed: u64 = 0;
    let mut victim_evidence: u64 = 0;
    let mut refresh_epoch: u64 = 0;
    let mut last_serviced: Cycle = 0;
    let mut reload_high = true;
    let mut end: Cycle = 0;

    for w in 0..cfg.windows {
        let deadline = sup.deadline();
        let epoch = deadline / cfg.envelope.refresh_period.max(1);
        if epoch != refresh_epoch {
            refresh_epoch = epoch;
            victim_evidence = 0;
        }
        let benign = 200 + traffic.below(2_801);
        let sampled = sup.detector().stage() == DetectorStage::Sampling;
        victim_evidence = victim_evidence.saturating_add(paced);

        if cfg.reload_every > 0 && w > 0 && w % cfg.reload_every == 0 {
            let mut next = *sup.config();
            reload_high = !reload_high;
            next.llc_miss_threshold = if reload_high { 20_000 } else { 19_000 };
            trace
                .reload
                .time(|| sup.request_reload(next))
                .expect("soak reload configs are valid");
        }

        let quiet = if sampled {
            None
        } else {
            let r = trace
                .quiet
                .time(|| sup.service_quiet(deadline, paced + benign, &mut pmu));
            trace.quiet_hits += u64::from(r.is_some());
            r
        };
        let result = if let Some(r) = quiet {
            r
        } else {
            if sampled {
                let span = deadline.saturating_sub(last_serviced).max(SAMPLED_OPS + 1);
                ops.clear();
                for i in 0..SAMPLED_OPS {
                    ops.push(if i % 16 == 15 {
                        dram_read(traffic.below(1 << 30) & !63, BENIGN_PID)
                    } else {
                        dram_read(aggressors[(i % 2) as usize], ATTACKER_PID)
                    });
                }
                let t0 = Instant::now();
                for (i, op) in (0..SAMPLED_OPS).zip(&ops) {
                    let t = last_serviced + span * (i + 1) / (SAMPLED_OPS + 1);
                    pmu.observe_at(op, t);
                }
                trace
                    .observe_at
                    .record_batch(SAMPLED_OPS, t0.elapsed().as_nanos() as u64);
                observed += SAMPLED_OPS;
                let e = bulk(
                    (paced + benign).saturating_sub(SAMPLED_OPS),
                    deadline.saturating_sub(1),
                );
                trace.observe_epoch.time(|| pmu.observe_epoch(&e));
            } else {
                let e = bulk(paced + benign, deadline.saturating_sub(1));
                trace.observe_epoch.time(|| pmu.observe_epoch(&e));
            }
            let t0 = Instant::now();
            let r = sup.service(deadline, &mut pmu, &mapping, &mut |_, v| Some(v));
            trace.service[outcome_slot(&r)].record(t0.elapsed().as_nanos() as u64);
            r
        };

        match result {
            Ok(SupervisedOutcome::Serviced {
                outcome,
                serviced_at,
            }) => {
                last_serviced = serviced_at;
                match outcome {
                    ServiceOutcome::Quiet { .. } => {}
                    ServiceOutcome::Armed { .. } => s.threshold_crossings += 1,
                    ServiceOutcome::Analyzed {
                        report, refreshes, ..
                    } => {
                        s.stage2_windows += 1;
                        s.detections += u64::from(report.detected());
                        s.selective_refreshes += refreshes.len() as u64;
                        if refreshes.iter().any(|(row, _)| *row == victim) {
                            victim_evidence = 0;
                        }
                    }
                    ServiceOutcome::Degraded {
                        report,
                        refreshes,
                        banks,
                        ..
                    } => {
                        s.stage2_windows += 1;
                        s.degraded_windows += 1;
                        s.detections += u64::from(report.detected());
                        s.selective_refreshes += refreshes.len() as u64;
                        if refreshes.iter().any(|(row, _)| *row == victim)
                            || banks.contains(&victim.bank)
                        {
                            victim_evidence = 0;
                        }
                    }
                }
            }
            Ok(SupervisedOutcome::Restarted(recovery)) => {
                last_serviced = recovery.resumed_at;
                let burst = RestartAwareHammer::burst_activations(recovery.gap);
                if victim_evidence.saturating_add(burst) >= cfg.envelope.flip_threshold {
                    s.flips += 1;
                }
                victim_evidence = 0;
            }
            Err(_) => {
                s.restart_budget_exhausted = true;
                break;
            }
        }
        s.windows = w + 1;
        end = last_serviced;
    }

    let stats = *sup.stats();
    s.simulated_ms = clock.cycles_to_ms(end);
    s.services = stats.services;
    s.crashes = stats.crashes;
    s.restarts = stats.restarts;
    s.cold_starts = stats.cold_starts;
    s.checkpoints_written = stats.checkpoints_written;
    s.checkpoints_corrupted = stats.checkpoints_corrupted;
    s.checkpoint_rejections = stats.checkpoint_rejections;
    s.reloads = stats.reloads;
    s.reloads_deferred = stats.reloads_deferred;
    s.stalled_services = stats.stalled_services;
    s.worst_recovery_gap = stats.worst_recovery_gap;
    s.total_downtime = stats.total_downtime;
    s.within_budget = stats.worst_recovery_gap <= downtime_budget;

    let det = sup.detector().stats();
    trace.counts = vec![
        ("runtime.checkpoints", s.checkpoints_written as f64),
        (
            "core.detector.stage2_frac",
            s.stage2_windows as f64 / s.windows.max(1) as f64,
        ),
        (
            "core.detector.samples_analyzed",
            det.samples_analyzed as f64,
        ),
        (
            "core.detector.selective_refreshes",
            s.selective_refreshes as f64,
        ),
        (
            "pmu.sample_keep_ratio",
            pmu.samples_taken() as f64 / observed.max(1) as f64,
        ),
    ];
    trace.checkpoint = Some(sup.detector().checkpoint(&pmu));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_traced_loop_is_the_soak_engine() {
        for adversary in [false, true] {
            // Heavy faults and frequent reloads exercise every path:
            // crashes mid quiet run, corrupt checkpoints, deferred reloads.
            let mut cfg = config(adversary, 3_000, 0xD1CE);
            cfg.lifecycle.crash_rate = 0.05;
            cfg.lifecycle.stall_rate = 0.1;
            cfg.lifecycle.corrupt_rate = 0.3;
            cfg.reload_every = 100;
            let mut trace = Trace::default();
            let traced = run_traced(&cfg, &mut trace);
            assert_eq!(run(&cfg).summary, traced.summary);
            assert!(trace.checkpoint.is_some());
            let services: u64 = trace.service.iter().map(|t| t.calls).sum();
            assert_eq!(trace.quiet_hits + services, cfg.windows);
        }
    }
}
