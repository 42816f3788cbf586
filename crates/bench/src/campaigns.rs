//! Campaign bodies behind the `resilience`, `evasion`, `verifier`,
//! `detection_matrix`, `soak`, `fuzz`, `fleet` and `selfdefense` reports
//! ([`robustness`](crate::robustness), [`paper`](crate::paper)).
//!
//! Each campaign is a matrix of *independent* scenario cells: every cell
//! builds its own `Platform` from the campaign seed and shares no mutable
//! state, so the cells fan out across worker threads via
//! [`run_cells_checked`](crate::harness::run_cells_checked) while the collected results —
//! and therefore the JSON record — stay byte-for-byte identical to a
//! serial run. The reports keep only campaign defaults, table rendering,
//! and the gate; tests call these functions directly to prove
//! thread-count independence.

use crate::harness::{
    detection_run, evasion_resilience_run, resilience_run, run_cells_checked, AttackKind,
    CellPanic, DetectionSummary, ResilienceSummary,
};
use crate::selfdefense::ArmCell as SelfDefenseCell;
use anvil_adversary::{CamouflageHammer, DistributedManySided, DutyCycleHammer, PacedHammer};
use anvil_analyze::{extract_witness, verify_archetype, Archetype, SymbolicBound, Witness};
use anvil_attacks::Attack;
use anvil_core::{
    AnvilConfig, DetectorStats, EnvelopeParams, GuaranteeEnvelope, Platform, PlatformConfig,
};
use anvil_dram::DisturbanceConfig;
use anvil_faults::{FaultPlan, FaultScenario};
use anvil_fleet::{run_machine_with_engine, FleetConfig, FleetRisk, MachineSummary};
use anvil_fuzz::{run_campaign, FuzzOptions, FuzzReport, Scenario, ScenarioOutcome};
use anvil_mem::MemoryConfig;
use anvil_runtime::{soak as soak_engine, Engine, SoakConfig, SoakSummary};
use serde_json::{json, Value};

/// Splits [`run_cells_checked`] results into the completed cells and the
/// panicked ones, preserving submission order in both halves. Every
/// campaign runs its cells through this so a single diverging cell
/// surfaces as typed data in the record instead of aborting the whole
/// matrix.
fn split_cells<T>(results: Vec<Result<T, CellPanic>>) -> (Vec<T>, Vec<CellPanic>) {
    let mut cells = Vec::with_capacity(results.len());
    let mut panics = Vec::new();
    for r in results {
        match r {
            Ok(v) => cells.push(v),
            Err(p) => {
                eprintln!("  warning: {p}");
                panics.push(p);
            }
        }
    }
    (cells, panics)
}

// ---------------------------------------------------------------------------
// Resilience
// ---------------------------------------------------------------------------

/// Everything the `resilience` report needs: typed cells for the tables
/// and the exact JSON record for `results/resilience.json`.
#[derive(Debug)]
pub struct ResilienceOutcome {
    /// Main fault-matrix cells, in scenario × intensity × attack order.
    pub cells: Vec<ResilienceSummary>,
    /// Fault × evasion cross-matrix cells.
    pub cross_cells: Vec<ResilienceSummary>,
    /// Cells that flipped bits or showed no protection signal.
    pub unprotected: u32,
    /// Cells that panicked instead of completing (counted as
    /// unprotected; always a merge-gate failure).
    pub panics: Vec<CellPanic>,
    /// The machine-readable record.
    pub json: Value,
}

/// Runs the fault-resilience campaign; see [`crate::robustness::resilience`].
pub fn resilience(smoke: bool, run_ms: f64, seed: u64, threads: usize) -> ResilienceOutcome {
    let intensities: &[f64] = if smoke { &[1.0] } else { &[0.5, 1.0] };
    let attacks: Vec<AttackKind> = if smoke {
        vec![AttackKind::DoubleSided]
    } else {
        AttackKind::all().to_vec()
    };

    let mut main_cells: Vec<Box<dyn FnOnce() -> ResilienceSummary + Send>> = Vec::new();
    for scenario in FaultScenario::ALL {
        for &intensity in intensities {
            for &kind in &attacks {
                main_cells.push(Box::new(move || {
                    let s = resilience_run(
                        scenario,
                        intensity,
                        kind,
                        AnvilConfig::baseline(),
                        run_ms,
                        seed,
                    );
                    eprintln!(
                        "  [{} / {} / {intensity:.1}] detect {:?}, degraded {}, flips {}",
                        s.scenario, s.attack, s.detect_ms, s.degraded_windows, s.flips
                    );
                    s
                }));
            }
        }
    }
    let (cells, mut panics) = split_cells(run_cells_checked(threads, main_cells));

    // Fault × evasion cross-matrix: adaptive adversaries while the
    // substrate degrades, against the hardened detector on future DRAM.
    // PEBS overflow starves exactly the stage-2 evidence the hardened
    // countermeasures (ledger, sticky sampling) feed on; the combined
    // scenario stacks every fault class at once.
    let cross_scenarios: &[FaultScenario] = if smoke {
        &[FaultScenario::PebsOverflow]
    } else {
        &[FaultScenario::PebsOverflow, FaultScenario::Combined]
    };
    let evaders: &[fn() -> Box<dyn Attack>] = if smoke {
        &[|| Box::new(DutyCycleHammer::new())]
    } else {
        &[
            || Box::new(DutyCycleHammer::new()),
            || Box::new(DistributedManySided::new()),
        ]
    };
    let mut cross_jobs: Vec<Box<dyn FnOnce() -> ResilienceSummary + Send>> = Vec::new();
    for &scenario in cross_scenarios {
        for build in evaders {
            cross_jobs.push(Box::new(move || {
                let s = evasion_resilience_run(
                    scenario,
                    1.0,
                    build(),
                    AnvilConfig::hardened(),
                    run_ms,
                    seed,
                );
                eprintln!(
                    "  [cross: {} / {}] detect {:?}, degraded {}, flips {}",
                    s.scenario, s.attack, s.detect_ms, s.degraded_windows, s.flips
                );
                s
            }));
        }
    }
    let (cross_cells, cross_panics) = split_cells(run_cells_checked(threads, cross_jobs));
    panics.extend(cross_panics);

    // A panicked cell proved nothing about its scenario, so it counts
    // against the campaign exactly like an unprotected one.
    let mut unprotected = u32::try_from(panics.len()).unwrap_or(u32::MAX);
    for s in cells.iter().chain(&cross_cells) {
        if !s.protected {
            unprotected += 1;
        }
    }
    let cell_values: Vec<Value> = cells.iter().map(serde_json::to_value).collect();
    let cross_values: Vec<Value> = cross_cells.iter().map(serde_json::to_value).collect();
    let panic_values: Vec<Value> = panics.iter().map(serde_json::to_value).collect();
    let json = json!({
        "experiment": "resilience",
        "seed": seed,
        "run_ms": run_ms,
        "smoke": smoke,
        "unprotected": unprotected,
        "cell_panics": panic_values,
        "cells": cell_values,
        "cross_cells": cross_values,
    });
    ResilienceOutcome {
        cells,
        cross_cells,
        unprotected,
        panics,
        json,
    }
}

// ---------------------------------------------------------------------------
// Evasion
// ---------------------------------------------------------------------------

/// The evasive strategies, each mapped to the envelope archetype whose
/// budget bounds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Strategy {
    /// Bursts straddling stage-1 window boundaries.
    DutyCycle,
    /// Constant pace binary-searched to the stage-1 trip point.
    ThresholdProber,
    /// Aggressor pair hidden in a streaming row-buffer-hit sweep.
    Camouflage,
    /// Round-robin over many pairs in distinct banks.
    Distributed,
}

impl Strategy {
    /// Full-matrix order.
    fn all() -> [Strategy; 4] {
        [
            Strategy::DutyCycle,
            Strategy::ThresholdProber,
            Strategy::Camouflage,
            Strategy::Distributed,
        ]
    }

    /// Display name (matches the attack's `name()`).
    fn label(self) -> &'static str {
        match self {
            Strategy::DutyCycle => "duty-cycle-hammer",
            Strategy::ThresholdProber => "threshold-prober",
            Strategy::Camouflage => "camouflage-hammer",
            Strategy::Distributed => "distributed-many-sided",
        }
    }

    /// Builds the attack; `pace` is the prober's searched pace.
    fn build(self, pace: Option<u64>) -> Box<dyn Attack> {
        match self {
            Strategy::DutyCycle => Box::new(DutyCycleHammer::new()),
            Strategy::ThresholdProber => {
                let mut a = PacedHammer::new();
                if let Some(p) = pace {
                    a = a.with_misses_per_window(p);
                }
                Box::new(a)
            }
            Strategy::Camouflage => Box::new(CamouflageHammer::new()),
            Strategy::Distributed => Box::new(DistributedManySided::new()),
        }
    }

    /// The audited budget bounding this strategy.
    fn budget(self, env: &GuaranteeEnvelope) -> u64 {
        match self {
            Strategy::DutyCycle => env.straddle_budget,
            Strategy::ThresholdProber => env.sustained_budget,
            Strategy::Camouflage => env.camouflage_budget,
            Strategy::Distributed => env.distributed_budget,
        }
    }
}

/// How long each probe of the threshold-prober's binary search runs.
const PROBE_MS: f64 = 30.0;

/// Threads the campaign seed into the detector (window-phase schedule).
fn campaign_config(mut cfg: AnvilConfig, seed: u64) -> AnvilConfig {
    cfg.hardening.phase_seed = seed;
    cfg
}

/// A protected platform on future-DRAM (110K flip threshold), with the
/// campaign seed folded into the DRAM fault map.
fn future_platform(cfg: &AnvilConfig, seed: u64) -> Platform {
    let mut pc = PlatformConfig::with_anvil(*cfg);
    pc.memory.dram.disturbance = DisturbanceConfig::future_half_threshold();
    pc.memory.dram.seed ^= seed;
    Platform::new(pc)
}

/// Binary-searches the highest pace (misses per assumed 6 ms window)
/// whose stage-1 crossing count stays at zero over a probe run — the
/// threshold-prober's driver loop, run against the *actual* detector the
/// adversary faces.
fn quiet_pace(cfg: &AnvilConfig, seed: u64) -> u64 {
    let trips = |pace: u64| {
        let mut p = future_platform(cfg, seed);
        p.add_attack(Box::new(PacedHammer::new().with_misses_per_window(pace)))
            .expect("attack prepares on open platform");
        p.run_ms(PROBE_MS).expect("probe run completes");
        p.detector_stats()
            .expect("anvil loaded")
            .threshold_crossings
            > 0
    };
    let (mut lo, mut hi) = (2_000u64, 40_000u64);
    if trips(lo) {
        return lo;
    }
    while hi - lo > 250 {
        let mid = u64::midpoint(lo, hi);
        if trips(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    lo
}

/// One evasion cell: a strategy run against one detector configuration.
#[derive(Debug, Clone)]
pub struct EvasionCell {
    /// Strategy display name.
    pub strategy: &'static str,
    /// `"baseline"` or `"hardened"`.
    pub detector: &'static str,
    /// The threshold-prober's searched pace (its cells only).
    pub pace: Option<u64>,
    /// Time to the first detection, ms.
    pub detect_ms: Option<f64>,
    /// Bit flips observed.
    pub flips: u64,
    /// Detector counters at the end of the run.
    pub stats: DetectorStats,
    /// The strategy's audited undetectable-activation budget.
    pub budget: u64,
    /// Whether that budget proves the 220K design threshold unreachable.
    pub proven: bool,
    /// No flips, and detected or proven.
    pub defended: bool,
    /// Table outcome label.
    pub outcome: &'static str,
}

/// Everything the `evasion` report needs: typed cells plus the exact
/// JSON record for `results/evasion.json`.
#[derive(Debug)]
pub struct EvasionOutcome {
    /// Cells in strategy-major, (baseline, hardened)-minor order.
    pub cells: Vec<EvasionCell>,
    /// Baseline cells that flipped or escaped both proofs.
    pub baseline_losses: u32,
    /// Hardened cells that flipped or escaped both proofs.
    pub hardened_failures: u32,
    /// Whether the hardened detector defended a cell the baseline lost.
    pub demonstrated: bool,
    /// Cells that panicked instead of completing (counted against the
    /// detector they were probing; always a merge-gate failure).
    pub panics: Vec<CellPanic>,
    /// The machine-readable record.
    pub json: Value,
}

/// Runs the adaptive-adversary campaign; see [`crate::robustness::evasion`].
#[allow(clippy::too_many_lines)]
pub fn evasion(smoke: bool, run_ms: f64, seed: u64, threads: usize) -> EvasionOutcome {
    let strategies: Vec<Strategy> = if smoke {
        // One stage-1 evasion (carry + jitter) and one stage-2 evasion
        // (ledger): covers both hardening layers cheaply.
        vec![Strategy::DutyCycle, Strategy::Distributed]
    } else {
        Strategy::all().to_vec()
    };

    let params = EnvelopeParams::paper_platform();
    let clock = MemoryConfig::paper_platform().clock;
    let future_flip = DisturbanceConfig::future_half_threshold().double_sided_threshold;
    let detectors = [
        ("baseline", campaign_config(AnvilConfig::baseline(), seed)),
        ("hardened", campaign_config(AnvilConfig::hardened(), seed)),
    ];
    let envelopes: Vec<GuaranteeEnvelope> = detectors
        .iter()
        .map(|(_, cfg)| GuaranteeEnvelope::audit(cfg, &clock, &params))
        .collect();

    let mut jobs: Vec<Box<dyn FnOnce() -> EvasionCell + Send>> = Vec::new();
    for &strategy in &strategies {
        for (i, (det, cfg)) in detectors.iter().enumerate() {
            let det = *det;
            let cfg = *cfg;
            let budget = strategy.budget(&envelopes[i]);
            let proven = budget < params.flip_threshold;
            jobs.push(Box::new(move || {
                let pace = (strategy == Strategy::ThresholdProber).then(|| quiet_pace(&cfg, seed));
                let mut p = future_platform(&cfg, seed);
                p.add_attack(strategy.build(pace))
                    .expect("attack prepares on open platform");
                p.run_ms(run_ms).expect("run completes");
                let stats = *p.detector_stats().expect("anvil loaded");
                let detect_ms = p.first_detection_ms();
                let flips = p.total_flips();
                let detected = detect_ms.is_some();
                let defended = flips == 0 && (detected || proven);
                let outcome = match (flips, detected, proven) {
                    (0, true, _) => "detected",
                    (0, false, true) => "enveloped",
                    (0, false, false) => "UNPROVEN",
                    (_, true, _) => "FLIPPED (late)",
                    (_, false, _) => "EVADED",
                };
                eprintln!(
                    "  [{} / {det}] detect {detect_ms:?}, flips {flips}, \
                     crossings {} (carry {}), ledger {}, budget {budget}",
                    strategy.label(),
                    stats.threshold_crossings,
                    stats.carry_crossings,
                    stats.ledger_flags,
                );
                EvasionCell {
                    strategy: strategy.label(),
                    detector: det,
                    pace,
                    detect_ms,
                    flips,
                    stats,
                    budget,
                    proven,
                    defended,
                    outcome,
                }
            }));
        }
    }
    let results = run_cells_checked(threads, jobs);

    // The defended/lost bookkeeping folds over the collected cells in
    // matrix order — (baseline, hardened) per strategy — exactly as the
    // serial loop used to update it in place. A panicked cell proved
    // nothing, so it counts as a loss for the detector it was probing
    // (known from its position in the pair, even without a result).
    let mut hardened_failures = 0u32;
    let mut baseline_losses = 0u32;
    let mut demonstrated = false;
    for pair in results.chunks(detectors.len()) {
        let mut baseline_lost = false;
        for (slot, result) in pair.iter().enumerate() {
            let hardened = detectors[slot].0 == "hardened";
            let defended = result.as_ref().is_ok_and(|cell| cell.defended);
            if hardened {
                if !defended {
                    hardened_failures += 1;
                } else if baseline_lost {
                    demonstrated = true;
                }
            } else if !defended {
                baseline_lost = true;
                baseline_losses += 1;
            }
        }
    }
    let (cells, panics) = split_cells(results);

    let cell_values: Vec<Value> = cells
        .iter()
        .map(|c| {
            json!({
                "strategy": c.strategy,
                "detector": c.detector,
                "pace": c.pace,
                "detect_ms": c.detect_ms,
                "flips": c.flips,
                "threshold_crossings": c.stats.threshold_crossings,
                "carry_crossings": c.stats.carry_crossings,
                "ledger_flags": c.stats.ledger_flags,
                "detections": c.stats.detections,
                "selective_refreshes": c.stats.selective_refreshes,
                "envelope_budget": c.budget,
                "envelope_proven": c.proven,
                "defended": c.defended,
                "outcome": c.outcome,
            })
        })
        .collect();
    let json = json!({
        "experiment": "evasion",
        "seed": seed,
        "run_ms": run_ms,
        "smoke": smoke,
        "future_flip_threshold": future_flip,
        "design_flip_threshold": params.flip_threshold,
        "envelopes": {
            "baseline": envelopes[0],
            "hardened": envelopes[1],
        },
        "baseline_losses": baseline_losses,
        "hardened_failures": hardened_failures,
        "demonstrated": demonstrated,
        "cell_panics": panics.iter().map(|p| serde_json::to_value(p)).collect::<Vec<Value>>(),
        "cells": cell_values,
    });
    EvasionOutcome {
        cells,
        baseline_losses,
        hardened_failures,
        demonstrated,
        panics,
        json,
    }
}

// ---------------------------------------------------------------------------
// Symbolic verification
// ---------------------------------------------------------------------------

/// One verifier cell: a safety claim about one adversary family against
/// one detector at one flip threshold, judged symbolically and — when
/// the abstract bound clears the threshold — dynamically.
#[derive(Debug, Clone)]
pub struct VerifyCell {
    /// Archetype name, in envelope order.
    pub archetype: &'static str,
    /// `"baseline"` or `"hardened"`.
    pub detector: &'static str,
    /// The flip threshold the claim is judged against.
    pub flip_threshold: u64,
    /// Whether witness replays run on future (half-threshold) DRAM.
    pub future_dram: bool,
    /// The abstract interpreter's bound and its audit cross-check.
    pub bound: SymbolicBound,
    /// Whether the closed-form envelope holds at this threshold.
    pub audit_holds: bool,
    /// `"proved"` (bound under the threshold), `"refuted"` (a witness
    /// replays to a missed detection), or `"unconfirmed"` (bound too
    /// loose, no tried family member evades).
    pub verdict: &'static str,
    /// Detector downtime (cycles) the proof margin tolerates before the
    /// family could close the gap at full hammer rate; zero unless
    /// proved.
    pub downtime_budget_cycles: u64,
    /// The confirmed counterexample backing a refutation.
    pub witness: Option<Witness>,
    /// Whether the witness re-replayed to its recorded outcome.
    pub witness_confirmed: bool,
    /// Merge-gate failure: the bound undercuts the audit, a refutation
    /// contradicts a holding envelope or lacks a replaying witness, or a
    /// hardened design-threshold cell escaped its proof obligation.
    pub violation: bool,
}

/// Everything the `verifier` report needs: typed cells plus the exact
/// JSON record for `results/verifier.json`.
#[derive(Debug)]
pub struct VerifyOutcome {
    /// Cells in threshold-major, detector-medial, archetype-minor order.
    pub cells: Vec<VerifyCell>,
    /// Cells whose bound stays under their flip threshold.
    pub proved: u32,
    /// Cells refuted by a replaying witness.
    pub refuted: u32,
    /// Cells with a loose bound but no evading family member found.
    pub unconfirmed: u32,
    /// Cells failing the merge gate (see [`VerifyCell::violation`]).
    pub violations: u32,
    /// Whether some refutation carried a confirmed witness — the
    /// counterexample machinery must demonstrably work, not just the
    /// prover.
    pub demonstrated: bool,
    /// The machine-readable record.
    pub json: Value,
}

/// Runs the symbolic verification campaign; see [`crate::robustness::verifier`].
#[allow(clippy::too_many_lines)]
pub fn verify(smoke: bool, run_ms: f64, seed: u64, threads: usize) -> VerifyOutcome {
    let design = EnvelopeParams::paper_platform();
    let future_flip = DisturbanceConfig::future_half_threshold().double_sided_threshold;
    let clock = MemoryConfig::paper_platform().clock;
    let detectors = [
        ("baseline", campaign_config(AnvilConfig::baseline(), seed)),
        ("hardened", campaign_config(AnvilConfig::hardened(), seed)),
    ];
    // Claims: the 220K design threshold on the paper's DRAM, then the
    // future half-threshold generation. Smoke keeps only the future
    // side — the design-threshold proofs are pure math and already
    // pinned by the `anvil-analyze` unit tests; the future cells are
    // the ones that exercise witness extraction and replay.
    let thresholds: &[(u64, bool)] = if smoke {
        &[(110_000, true)]
    } else {
        &[(220_000, false), (110_000, true)]
    };

    let mut audits: Vec<(u64, &'static str, GuaranteeEnvelope)> = Vec::new();
    let mut jobs: Vec<Box<dyn FnOnce() -> VerifyCell + Send>> = Vec::new();
    for &(flip, future_dram) in thresholds {
        let params = design.with_flip_threshold(flip);
        for &(det, cfg) in &detectors {
            let audit = GuaranteeEnvelope::audit(&cfg, &clock, &params);
            audits.push((flip, det, audit));
            let audit_holds = audit.holds();
            for archetype in Archetype::ALL {
                jobs.push(Box::new(move || {
                    let bx = archetype.default_box(&cfg, &clock, &params);
                    let bound = verify_archetype(archetype, &cfg, &clock, &params, &bx);
                    let (verdict, witness, witness_confirmed) = if bound.bound < flip {
                        ("proved", None, false)
                    } else {
                        match extract_witness(
                            archetype,
                            &cfg,
                            future_dram,
                            seed,
                            run_ms,
                            FaultPlan::none(),
                        ) {
                            Some(w) => ("refuted", Some(w), w.confirms()),
                            None => ("unconfirmed", None, false),
                        }
                    };
                    let downtime_budget_cycles = if verdict == "proved" {
                        (flip - bound.bound).saturating_mul(params.attack_access_cycles)
                    } else {
                        0
                    };
                    let violation = !bound.sound_wrt_audit
                        || (audit_holds && verdict == "refuted")
                        || (verdict == "refuted" && !witness_confirmed)
                        || (det == "hardened" && flip == 220_000 && verdict != "proved");
                    eprintln!(
                        "  [{} / {det} @ {flip}] bound {}, audit {}, {verdict}{}",
                        archetype.name(),
                        bound.bound,
                        bound.audit_budget,
                        if violation { " (VIOLATION)" } else { "" },
                    );
                    VerifyCell {
                        archetype: archetype.name(),
                        detector: det,
                        flip_threshold: flip,
                        future_dram,
                        bound,
                        audit_holds,
                        verdict,
                        downtime_budget_cycles,
                        witness,
                        witness_confirmed,
                        violation,
                    }
                }));
            }
        }
    }
    let (cells, panics) = split_cells(run_cells_checked(threads, jobs));

    // A panicked cell is a proof obligation that never discharged:
    // count it as a violation so the merge gate fails closed.
    let (mut proved, mut refuted, mut unconfirmed, mut violations) =
        (0u32, 0u32, 0u32, panics.len() as u32);
    let mut demonstrated = false;
    for c in &cells {
        match c.verdict {
            "proved" => proved += 1,
            "refuted" => refuted += 1,
            _ => unconfirmed += 1,
        }
        if c.violation {
            violations += 1;
        }
        if c.verdict == "refuted" && c.witness_confirmed {
            demonstrated = true;
        }
    }

    let audit_values: Vec<Value> = audits
        .iter()
        .map(|(flip, det, env)| {
            json!({
                "flip_threshold": flip,
                "detector": det,
                "envelope": env,
            })
        })
        .collect();
    let cell_values: Vec<Value> = cells
        .iter()
        .map(|c| {
            json!({
                "archetype": c.archetype,
                "detector": c.detector,
                "flip_threshold": c.flip_threshold,
                "future_dram": c.future_dram,
                "bound": c.bound.bound,
                "audit_budget": c.bound.audit_budget,
                "sound_wrt_audit": c.bound.sound_wrt_audit,
                "windows_explored": c.bound.windows_explored,
                "downtime_activations": c.bound.downtime_activations,
                "audit_holds": c.audit_holds,
                "verdict": c.verdict,
                "downtime_budget_cycles": c.downtime_budget_cycles,
                "witness": c.witness,
                "witness_confirmed": c.witness_confirmed,
                "violation": c.violation,
            })
        })
        .collect();
    let json = json!({
        "experiment": "verifier",
        "seed": seed,
        "run_ms": run_ms,
        "smoke": smoke,
        "design_flip_threshold": design.flip_threshold,
        "future_flip_threshold": future_flip,
        "audits": audit_values,
        "proved": proved,
        "refuted": refuted,
        "unconfirmed": unconfirmed,
        "violations": violations,
        "demonstrated": demonstrated,
        "cell_panics": panics.iter().map(|p| serde_json::to_value(p)).collect::<Vec<Value>>(),
        "cells": cell_values,
    });
    VerifyOutcome {
        cells,
        proved,
        refuted,
        unconfirmed,
        violations,
        demonstrated,
        json,
    }
}

// ---------------------------------------------------------------------------
// Detection matrix
// ---------------------------------------------------------------------------

/// Whether `config` is designed to catch this attack. ANVIL-heavy shrinks
/// its windows for *fast* future attacks but keeps the 20K threshold, so a
/// slow CLFLUSH-free hammer (~19K misses / 2 ms) can legitimately stay
/// below its stage-1 trigger — the paper's Section 4.5 frames heavy and
/// light as complements to the baseline, not replacements.
fn in_scope(config: &str, kind: AttackKind) -> bool {
    !(config == "heavy" && matches!(kind, AttackKind::ClflushFree))
}

/// One detection-matrix cell.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// The detection run's result.
    pub summary: DetectionSummary,
    /// ANVIL configuration label (`baseline` / `light` / `heavy`).
    pub config: &'static str,
    /// Whether this configuration is expected to catch this attack.
    pub in_scope: bool,
}

/// Everything the `detection_matrix` report needs.
#[derive(Debug)]
pub struct DetectionMatrixOutcome {
    /// Cells in attack × config × load order.
    pub cells: Vec<MatrixCell>,
    /// In-scope cells that missed the attack or flipped bits.
    pub misses: u32,
    /// The machine-readable record.
    pub json: Value,
}

/// Runs the Section 4.2/4.5 detection matrix; see
/// [`crate::paper::detection_matrix`].
pub fn detection_matrix(run_ms: f64, threads: usize) -> DetectionMatrixOutcome {
    let configs: [(&'static str, AnvilConfig); 3] = [
        ("baseline", AnvilConfig::baseline()),
        ("light", AnvilConfig::light()),
        ("heavy", AnvilConfig::heavy()),
    ];
    let mut jobs: Vec<Box<dyn FnOnce() -> MatrixCell + Send>> = Vec::new();
    for kind in AttackKind::all() {
        for (label, cfg) in configs {
            for heavy in [false, true] {
                jobs.push(Box::new(move || {
                    let s = detection_run(kind, cfg, heavy, run_ms, 3);
                    eprintln!(
                        "  [{} / {label} / {}] {:?}, flips {}",
                        kind.label(),
                        if heavy { "heavy" } else { "light" },
                        s.detect_ms,
                        s.flips
                    );
                    MatrixCell {
                        summary: s,
                        config: label,
                        in_scope: in_scope(label, kind),
                    }
                }));
            }
        }
    }
    let (cells, panics) = split_cells(run_cells_checked(threads, jobs));
    // A panicked cell proved nothing about its attack × config pair, so
    // it counts against the campaign exactly like a missed detection.
    let mut misses = u32::try_from(panics.len()).unwrap_or(u32::MAX);
    for c in &cells {
        if c.in_scope && (c.summary.detect_ms.is_none() || c.summary.flips > 0) {
            misses += 1;
        }
    }
    let records: Vec<Value> = cells
        .iter()
        .map(|c| {
            json!({
                "attack": c.summary.attack,
                "config": c.config,
                "heavy_load": c.summary.heavy_load,
                "detect_ms": c.summary.detect_ms,
                "flips": c.summary.flips,
            })
        })
        .collect();
    let panic_values: Vec<Value> = panics.iter().map(serde_json::to_value).collect();
    let json = json!({
        "experiment": "detection_matrix",
        "rows": records,
        "misses": misses,
        "cell_panics": panic_values,
    });
    DetectionMatrixOutcome {
        cells,
        misses,
        json,
    }
}

// ---------------------------------------------------------------------------
// Soak
// ---------------------------------------------------------------------------

/// Everything the `soak` report needs.
#[derive(Debug)]
pub struct SoakOutcome {
    /// The campaign summary, or `None` when the soak cell itself
    /// panicked (recorded in [`SoakOutcome::panics`]).
    pub summary: Option<SoakSummary>,
    /// The panic, if the soak cell died instead of completing.
    pub panics: Vec<CellPanic>,
    /// The machine-readable record.
    pub json: Value,
}

impl SoakOutcome {
    /// The campaign gate: the cell completed and its summary holds.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.panics.is_empty() && self.summary.as_ref().is_some_and(SoakSummary::holds)
    }
}

/// Runs the supervised-lifetime soak campaign under `engine`; see
/// [`crate::robustness::soak`].
///
/// The soak is one continuous supervised detector lifetime — its windows
/// are causally chained (checkpoints, crash recovery, hot reloads), so
/// unlike the matrix campaigns it is a *single* cell: `threads` is
/// accepted for interface uniformity (and so the thread-count determinism
/// tests cover it) but cannot subdivide the run. The JSON record is
/// byte-identical across engines (the cross-engine CI smoke diffs them),
/// so the engine is deliberately not serialized into it.
pub fn soak(
    cfg: &SoakConfig,
    seed: u64,
    smoke: bool,
    threads: usize,
    engine: Engine,
) -> SoakOutcome {
    let (mut cells, panics) = split_cells(run_cells_checked(
        threads,
        vec![|| soak_engine::run_with_engine(cfg, engine)],
    ));
    let s = (!cells.is_empty()).then(|| cells.remove(0));
    let json = json!({
        "experiment": "soak",
        "seed": seed,
        "smoke": smoke,
        "config": {
            "windows": cfg.windows,
            "crash_rate": cfg.lifecycle.crash_rate,
            "stall_rate": cfg.lifecycle.stall_rate,
            "max_stall": cfg.lifecycle.max_stall,
            "corrupt_rate": cfg.lifecycle.corrupt_rate,
            "reload_every": cfg.reload_every,
            "checkpoint_every": cfg.runtime.checkpoint_every,
            "restart_budget": cfg.runtime.restart_budget,
            "backoff_base": cfg.runtime.backoff_base,
            "backoff_cap": cfg.runtime.backoff_cap,
        },
        "summary": serde_json::to_value(&s),
        "cell_panics": panics.iter().map(|p| serde_json::to_value(p)).collect::<Vec<Value>>(),
        "holds": panics.is_empty() && s.as_ref().is_some_and(SoakSummary::holds),
    });
    SoakOutcome {
        summary: s,
        panics,
        json,
    }
}

// ---------------------------------------------------------------------------
// Coverage-guided guarantee fuzzing
// ---------------------------------------------------------------------------

/// Everything the `fuzz` report needs: the standard-domain and
/// weakened-canary campaign reports, the merge-gate verdicts, and the
/// exact JSON record for `results/fuzz.json`.
#[derive(Debug)]
pub struct FuzzOutcome {
    /// The standard-domain report: fuzzing around the hardened shipping
    /// configuration, where the guarantee envelope holds. Gate: zero
    /// counterexamples.
    pub standard: FuzzReport,
    /// The weakened-canary report: the domain plants a conviction blind
    /// spot (`bank_support_min` + `ledger_min_windows`, both invisible
    /// to the envelope audit). Gate: the fuzzer *must* find it and
    /// shrink it to a minimal flipping schedule — the end-to-end proof
    /// that the whole find-and-shrink pipeline works.
    pub canary: FuzzReport,
    /// Merge-gate failures, empty when every gate passed.
    pub violations: Vec<String>,
    /// The machine-readable record.
    pub json: Value,
}

/// Runs both fuzz campaigns (see [`crate::robustness::fuzz`]), evaluating
/// scenario batches on up to `threads` workers via
/// [`run_cells_checked`] — a candidate that panics the simulator
/// surfaces as a recorded cell failure, not a campaign abort. Candidate
/// generation happens before each batch is dispatched and results fold
/// back in submission order, so the record is byte-for-byte identical
/// at any thread count.
pub fn fuzz(smoke: bool, seed: u64, threads: usize) -> FuzzOutcome {
    // Panicked candidate cells flow back to the fuzzer as `Err` strings
    // (its report format), but the typed records are kept too so the
    // JSON carries them the same way every other campaign does.
    let panic_log: std::cell::RefCell<Vec<CellPanic>> = std::cell::RefCell::new(Vec::new());
    let exec = |batch: Vec<Scenario>| -> Vec<Result<ScenarioOutcome, String>> {
        let cells: Vec<_> = batch.into_iter().map(|s| move || s.run()).collect();
        run_cells_checked(threads, cells)
            .into_iter()
            .map(|r| {
                r.map_err(|p| {
                    let rendered = p.to_string();
                    panic_log.borrow_mut().push(p);
                    rendered
                })
            })
            .collect()
    };
    let standard_opts = if smoke {
        FuzzOptions::smoke(seed)
    } else {
        FuzzOptions::full(seed)
    };
    let standard = run_campaign(&standard_opts, exec);
    let canary = run_campaign(&FuzzOptions::canary(seed), exec);

    let mut violations = Vec::new();
    for c in &standard.counterexamples {
        violations.push(format!(
            "standard domain: envelope violated by a {}-event schedule flipping {} bit(s) \
             (seed {:#x})",
            c.shrunk.schedule.len(),
            c.flips,
            c.shrunk.seed
        ));
    }
    if standard.exhausted {
        violations.push("standard domain: generation exhausted before the budget".into());
    }
    if canary.counterexamples.is_empty() {
        violations.push(
            "canary domain: the planted conviction blind spot was not found — the \
             find-and-shrink pipeline demonstrated nothing"
                .into(),
        );
    }
    for c in &canary.counterexamples {
        if c.flips == 0 {
            violations.push("canary domain: a shrunk counterexample no longer flips".into());
        }
        if c.shrunk.schedule.len() > 10 {
            violations.push(format!(
                "canary domain: counterexample shrunk only to {} events (> 10)",
                c.shrunk.schedule.len()
            ));
        }
        if !c.minimal {
            violations.push("canary domain: shrink budget exhausted before 1-minimality".into());
        }
    }

    let cell_panics = panic_log.into_inner();
    let json = json!({
        "experiment": "fuzz",
        "seed": seed,
        "smoke": smoke,
        "standard": serde_json::to_value(&standard),
        "canary": serde_json::to_value(&canary),
        "violations": violations,
        "cell_panics": cell_panics.iter().map(|p| serde_json::to_value(p)).collect::<Vec<Value>>(),
    });
    FuzzOutcome {
        standard,
        canary,
        violations,
        json,
    }
}

// ---------------------------------------------------------------------------
// Fleet
// ---------------------------------------------------------------------------

/// Everything the `fleet` report needs: the Monte Carlo risk fold, the
/// per-machine summaries, and the exact JSON record for
/// `results/fleet.json`.
#[derive(Debug)]
pub struct FleetOutcome {
    /// The fleet-wide risk verdict.
    pub risk: FleetRisk,
    /// Per-machine summaries, in machine-index order (panicked machines
    /// are absent here and present in [`FleetOutcome::panics`]).
    pub machines: Vec<MachineSummary>,
    /// Machine cells that panicked instead of completing. Counted in
    /// [`FleetRisk::cell_panics`]; always a merge-gate failure.
    pub panics: Vec<CellPanic>,
    /// The machine-readable record.
    pub json: Value,
}

/// Runs the fleet-scale Monte Carlo campaign; see
/// [`crate::robustness::fleet`]. One machine is one pure cell of `(cfg, machine_index)`:
/// [`run_machine_with_engine`] fans across up to `threads` workers via
/// [`run_cells_checked`] and the summaries fold into [`FleetRisk`] in
/// submission order, so the record is byte-for-byte identical at any
/// thread count and under either [`Engine`].
pub fn fleet(cfg: &FleetConfig, smoke: bool, threads: usize, engine: Engine) -> FleetOutcome {
    let mut jobs: Vec<Box<dyn FnOnce() -> MachineSummary + Send>> = Vec::new();
    for machine in 0..cfg.machines {
        let cfg = *cfg;
        jobs.push(Box::new(move || {
            let m = run_machine_with_engine(&cfg, machine, engine);
            let exposure: u64 = m.domains.iter().map(|d| d.exposure_flips).sum();
            let undeclared: u64 = m.domains.iter().map(|d| d.undeclared_flips).sum();
            eprintln!(
                "  [machine {machine}] outages {}, pmu episodes {}, blind windows {}, \
                 exposure flips {exposure}, undeclared flips {undeclared}",
                m.outages, m.pmu_episodes, m.blind_windows
            );
            m
        }));
    }
    let (machines, panics) = split_cells(run_cells_checked(threads, jobs));
    let risk = FleetRisk::aggregate(cfg, &machines, panics.len() as u64);

    let machine_values: Vec<Value> = machines.iter().map(serde_json::to_value).collect();
    let json = json!({
        "experiment": "fleet",
        "seed": cfg.seed,
        "smoke": smoke,
        "config": serde_json::to_value(cfg),
        "risk": serde_json::to_value(&risk),
        "cell_panics": panics.iter().map(|p| serde_json::to_value(p)).collect::<Vec<Value>>(),
        "machines": machine_values,
        "holds": risk.holds(),
    });
    FleetOutcome {
        risk,
        machines,
        panics,
        json,
    }
}

// ---------------------------------------------------------------------------
// Self-defense
// ---------------------------------------------------------------------------

/// Aggregate verdict of the self-defense campaign: the unguarded
/// baseline must demonstrably lose detections (and data) to the
/// state-targeting attack, while the guarded detector must declare every
/// corruption and protect the co-located data victim.
#[derive(Debug, Clone, serde::Serialize)]
pub struct SelfDefenseVerdict {
    /// Detections summed over unguarded cells.
    pub baseline_detections: u64,
    /// Detections summed over guarded cells.
    pub guarded_detections: u64,
    /// Undeclared data-victim flips summed over unguarded cells.
    pub baseline_undeclared: u64,
    /// Undeclared data-victim flips summed over guarded cells.
    pub guarded_undeclared: u64,
    /// State flips the attacker landed on guarded cells.
    pub guarded_injected: u64,
    /// Corruptions the guarded detector repaired in place.
    pub guarded_repaired: u64,
    /// Corruptions the guarded detector escalated to a cold restart.
    pub guarded_escalated: u64,
    /// Injected sites a guarded cell absorbed without ever declaring.
    pub guarded_absorbed: u64,
    /// State flips silently absorbed by the unguarded baseline.
    pub baseline_absorbed: u64,
    /// Whether every guarded recovery gap stayed inside the envelope's
    /// downtime budget.
    pub within_budget: bool,
    /// Cells that panicked instead of completing.
    pub cell_panics: u64,
}

impl SelfDefenseVerdict {
    fn aggregate(cells: &[SelfDefenseCell], panics: u64) -> Self {
        let mut v = Self {
            baseline_detections: 0,
            guarded_detections: 0,
            baseline_undeclared: 0,
            guarded_undeclared: 0,
            guarded_injected: 0,
            guarded_repaired: 0,
            guarded_escalated: 0,
            guarded_absorbed: 0,
            baseline_absorbed: 0,
            within_budget: true,
            cell_panics: panics,
        };
        for c in cells {
            if c.arm == "guarded" {
                v.guarded_detections += c.detections;
                v.guarded_undeclared += c.undeclared_flips;
                v.guarded_injected += c.state_flips_injected;
                v.guarded_repaired += c.declared_repaired;
                v.guarded_escalated += c.declared_escalated;
                v.guarded_absorbed += c.silently_absorbed_sites;
                v.within_budget &= c.within_budget;
            } else {
                v.baseline_detections += c.detections;
                v.baseline_undeclared += c.undeclared_flips;
                v.baseline_absorbed += c.silently_absorbed_sites;
            }
        }
        v
    }

    /// The merge gate. Each clause is one claim of DESIGN.md §15: the
    /// attack works (the baseline goes blind and loses data, absorbing
    /// every flip silently), the guard defeats it (more detections, no
    /// undeclared data flips), and the self-integrity contract holds
    /// (every injected corruption repaired or escalated — never
    /// silently absorbed — with both policy arms exercised and every
    /// declared outage inside the downtime budget).
    #[must_use]
    pub fn holds(&self) -> bool {
        self.guarded_detections > self.baseline_detections
            && self.baseline_undeclared > 0
            && self.baseline_absorbed > 0
            && self.guarded_undeclared == 0
            && self.guarded_injected > 0
            && self.guarded_absorbed == 0
            && self.guarded_repaired > 0
            && self.guarded_escalated > 0
            && self.within_budget
            && self.cell_panics == 0
    }
}

/// Everything the `selfdefense` report needs: per-arm cells, the
/// aggregate verdict, and the exact JSON record for
/// `results/selfdefense.json`.
#[derive(Debug)]
pub struct SelfDefenseOutcome {
    /// Per-(trial, arm) cells, unguarded before guarded within a trial.
    pub cells: Vec<SelfDefenseCell>,
    /// Cells that panicked instead of completing.
    pub panics: Vec<CellPanic>,
    /// The aggregate merge-gate verdict.
    pub verdict: SelfDefenseVerdict,
    /// The machine-readable record.
    pub json: Value,
}

/// Runs the self-defense campaign: `trials` seeds, each simulated twice
/// — unguarded baseline and guarded detector — under the identical
/// state-targeting attack. One `(trial, arm)` pair is one pure cell of
/// `(seed, windows, guarded, trial)`:
/// [`run_self_defense_arm`](crate::selfdefense::run_arm) fans across up
/// to `threads` workers via [`run_cells_checked`] and folds in
/// submission order, so the record is byte-for-byte identical at any
/// thread count and under either [`Engine`].
pub fn selfdefense(smoke: bool, seed: u64, threads: usize, engine: Engine) -> SelfDefenseOutcome {
    let (trials, windows) = if smoke { (2, 160) } else { (3, 420) };
    let mut jobs: Vec<Box<dyn FnOnce() -> SelfDefenseCell + Send>> = Vec::new();
    for trial in 0..trials {
        for guarded in [false, true] {
            jobs.push(Box::new(move || {
                let c = crate::selfdefense::run_arm(seed, windows, guarded, trial, engine);
                eprintln!(
                    "  [trial {trial} {}] detections {}, state flips {}, repaired {}, \
                     escalated {}, absorbed {}, undeclared data flips {}",
                    c.arm,
                    c.detections,
                    c.state_flips_injected,
                    c.declared_repaired,
                    c.declared_escalated,
                    c.silently_absorbed_sites,
                    c.undeclared_flips
                );
                c
            }));
        }
    }
    let (cells, panics) = split_cells(run_cells_checked(threads, jobs));
    let verdict = SelfDefenseVerdict::aggregate(&cells, panics.len() as u64);
    let json = json!({
        "experiment": "selfdefense",
        "seed": seed,
        "smoke": smoke,
        "trials": trials,
        "windows": windows,
        "verdict": serde_json::to_value(&verdict),
        "cell_panics": panics.iter().map(|p| serde_json::to_value(p)).collect::<Vec<Value>>(),
        "cells": cells.iter().map(|c| serde_json::to_value(c)).collect::<Vec<Value>>(),
        "holds": verdict.holds(),
    });
    SelfDefenseOutcome {
        cells,
        panics,
        verdict,
        json,
    }
}
