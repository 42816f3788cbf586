//! The robustness campaigns that go past the paper: fault resilience,
//! adaptive evasion, symbolic verification, guarantee fuzzing, the
//! supervised soak, the fleet Monte Carlo, and self-defense.
//!
//! Each campaign is one function from [`CampaignArgs`] to a [`Report`]: it
//! picks the campaign's defaults, runs its independent cells through
//! [`run_cells_checked`], folds them, and renders the tables, the record
//! and the gate. Every cell builds its own platform from the campaign seed
//! and shares no mutable state, and results fold in submission order, so
//! each record is byte-for-byte identical at any `--threads`.

use crate::harness::{
    run_cells_checked, split_cells, vulnerable_pair_index, AttackKind, CampaignArgs,
};
use crate::registry::Report;
use crate::report::Table;
use crate::selfdefense::{self, SelfDefenseVerdict};
use anvil_adversary::{CamouflageHammer, DistributedManySided, DutyCycleHammer, PacedHammer};
use anvil_analyze::{extract_witness, verify_archetype, Archetype, SymbolicBound, Witness};
use anvil_attacks::Attack;
use anvil_core::{
    AnvilConfig, DetectorStats, EnvelopeParams, GuaranteeEnvelope, Platform, PlatformConfig,
};
use anvil_dram::DisturbanceConfig;
use anvil_faults::{FaultPlan, FaultScenario};
use anvil_fleet::{run_machine_with_engine, FleetConfig, FleetRisk, MachineSummary};
use anvil_fuzz::{run_campaign, FuzzOptions, Scenario};
use anvil_mem::{DomainTopology, MemoryConfig};
use anvil_runtime::{soak as soak_engine, SoakConfig, SoakSummary};
use serde::Serialize;
use serde_json::json;
use std::fmt::Write as _;

/// Formats a first-detection time for a table cell.
fn detected_at(detect_ms: Option<f64>) -> String {
    detect_ms.map_or("never".into(), |d| format!("{d:.1} ms"))
}

/// Result of one fault-campaign cell.
#[derive(Debug, Serialize)]
struct ResilienceSummary {
    /// Fault scenario name.
    scenario: String,
    /// Attack label.
    attack: String,
    /// Fault intensity the scenario was scaled by.
    intensity: f64,
    /// Time to the first detection, ms (None: never detected).
    detect_ms: Option<f64>,
    /// Bit flips observed (must be 0 for the cell to count as protected).
    flips: u64,
    /// Stage-2 windows the degraded-protection fallback handled.
    degraded_windows: u64,
    /// Whole banks blanket-refreshed by degraded mode.
    bank_refreshes: u64,
    /// Detector services that ran past their deadline.
    missed_deadlines: u64,
    /// Stage-2 samples lost to the injected substrate.
    samples_lost: u64,
    /// Stage-2 samples whose translation failed.
    samples_unresolved: u64,
    /// Whether ANVIL protected the run: no flips, and either a detection
    /// or a visible degraded-mode engagement stood in for one.
    protected: bool,
}

/// Runs `attack` (labelled `attack_name`) on `pc` with `scenario`
/// injected at `intensity`, and summarizes protection and degraded-mode
/// engagement.
fn fault_run(
    pc: &PlatformConfig,
    scenario: FaultScenario,
    intensity: f64,
    attack: Box<dyn Attack>,
    attack_name: String,
    ms: f64,
    seed: u64,
) -> ResilienceSummary {
    let mut p = Platform::new(pc.with_faults(scenario.plan(intensity, seed)));
    p.add_attack(attack)
        .expect("attack prepares on open platform");
    p.run_ms(ms).expect("run completes");
    let stats = *p.detector_stats().expect("anvil loaded");
    let detect_ms = p.first_detection_ms();
    let flips = p.total_flips();
    ResilienceSummary {
        scenario: scenario.name().to_string(),
        attack: attack_name,
        intensity,
        detect_ms,
        flips,
        degraded_windows: stats.degraded_windows,
        bank_refreshes: stats.bank_refreshes,
        missed_deadlines: stats.missed_deadlines,
        samples_lost: stats.samples_lost,
        samples_unresolved: stats.samples_unresolved,
        protected: flips == 0 && (detect_ms.is_some() || stats.degraded_windows > 0),
    }
}

/// **Fault campaign** — detector resilience under a degraded substrate
/// (DESIGN.md §7).
///
/// Sweeps every built-in [`FaultScenario`] (PEBS loss, PMI jitter, stale
/// pagemap walks, preemption, postponed refresh, ...) across the attack
/// matrix and fault intensities, plus a smaller fault × adaptive-adversary
/// cross-matrix on future DRAM. A cell is *protected* when no bit flipped
/// and either a detection fired or the degraded fallback visibly engaged;
/// a panicked cell counts as unprotected. Gate: every cell protected. The
/// seed defaults to `0xA11CE`.
pub fn resilience(args: &CampaignArgs) -> Report {
    let seed = args.seed_or(0xA_11CE);
    let smoke = args.smoke;
    // Long enough for the slowest in-matrix detection (CLFLUSH-free needs
    // most of a refresh window) plus slack for fault-delayed windows.
    // `--windows N` overrides the duration directly (6 ms per stage-1
    // window).
    let run_ms = args.windows.map_or(
        if smoke {
            70.0
        } else {
            args.scale().ms(120.0).max(70.0)
        },
        |w| w as f64 * 6.0,
    );
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
                    let pair = vulnerable_pair_index(kind, MemoryConfig::paper_platform(), 24)
                        .unwrap_or(0);
                    let s = fault_run(
                        &PlatformConfig::with_anvil(AnvilConfig::baseline()),
                        scenario,
                        intensity,
                        kind.build(pair),
                        kind.label().to_string(),
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
    let (cells, mut panics) = split_cells(run_cells_checked(args.threads, main_cells));

    // Fault × evasion cross-matrix: adaptive adversaries while the
    // substrate degrades, against the hardened detector on future DRAM.
    // PEBS overflow starves exactly the stage-2 evidence the hardened
    // countermeasures (ledger, sticky sampling) feed on; the combined
    // scenario stacks every fault class at once. The adversaries choose
    // their own aggressor layout, so no vulnerable-pair scan happens here.
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
                let attack = build();
                let name = attack.name().to_string();
                let pc = future_config(&AnvilConfig::hardened(), seed);
                let s = fault_run(&pc, scenario, 1.0, attack, name, run_ms, seed);
                eprintln!(
                    "  [cross: {} / {}] detect {:?}, degraded {}, flips {}",
                    s.scenario, s.attack, s.detect_ms, s.degraded_windows, s.flips
                );
                s
            }));
        }
    }
    let (cross_cells, cross_panics) = split_cells(run_cells_checked(args.threads, cross_jobs));
    panics.extend(cross_panics);

    let unprotected = panics.len()
        + cells
            .iter()
            .chain(&cross_cells)
            .filter(|s| !s.protected)
            .count();

    let mut table = Table::new(
        "Fault campaign: protection under a degraded substrate",
        &[
            "Scenario",
            "Attack",
            "Intensity",
            "Detected at",
            "Degraded",
            "Flips",
            "Protected",
        ],
    );
    for s in &cells {
        table.row(&[
            s.scenario.clone(),
            s.attack.clone(),
            format!("{:.1}", s.intensity),
            detected_at(s.detect_ms),
            s.degraded_windows.to_string(),
            s.flips.to_string(),
            if s.protected { "yes" } else { "NO" }.to_string(),
        ]);
    }
    let mut cross_table = Table::new(
        "Fault x evasion: adaptive adversaries on a degraded substrate (hardened, future DRAM)",
        &[
            "Scenario",
            "Adversary",
            "Detected at",
            "Degraded",
            "Flips",
            "Protected",
        ],
    );
    for s in &cross_cells {
        cross_table.row(&[
            s.scenario.clone(),
            s.attack.clone(),
            detected_at(s.detect_ms),
            s.degraded_windows.to_string(),
            s.flips.to_string(),
            if s.protected { "yes" } else { "NO" }.to_string(),
        ]);
    }

    let mut text = table.render();
    text.push_str(&cross_table.render());
    text.push_str(if unprotected == 0 {
        "ZERO FLIPS in every cell — the no-flip guarantee holds under every\n\
             built-in fault scenario (degraded-mode engagements count as\n\
             protection and are visible in the Degraded column)."
    } else {
        "WARNING: some cells flipped bits or showed no protection signal."
    });
    text.push('\n');
    let record = json!({
        "experiment": "resilience",
        "seed": seed,
        "run_ms": run_ms,
        "smoke": smoke,
        "unprotected": unprotected,
        "cell_panics": panics,
        "cells": cells,
        "cross_cells": cross_cells,
    });
    Report::new(text, record).gate(unprotected == 0)
}

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

/// The baseline and hardened detectors the evasion and verifier
/// campaigns judge, with the campaign seed threaded into the detector's
/// window-phase schedule.
fn seeded_detectors(seed: u64) -> [(&'static str, AnvilConfig); 2] {
    [
        ("baseline", AnvilConfig::baseline()),
        ("hardened", AnvilConfig::hardened()),
    ]
    .map(|(name, mut cfg)| {
        cfg.hardening.phase_seed = seed;
        (name, cfg)
    })
}

/// A protected platform on future DRAM (110K flip threshold), with the
/// campaign seed folded into the DRAM fault map.
fn future_config(cfg: &AnvilConfig, seed: u64) -> PlatformConfig {
    let mut pc = PlatformConfig::with_anvil(*cfg);
    pc.memory.dram.disturbance = DisturbanceConfig::future_half_threshold();
    pc.memory.dram.seed ^= seed;
    pc
}

/// Binary-searches the highest pace (misses per assumed 6 ms window)
/// whose stage-1 crossing count stays at zero over a probe run — the
/// threshold-prober's driver loop, run against the *actual* detector the
/// adversary faces.
fn quiet_pace(cfg: &AnvilConfig, seed: u64) -> u64 {
    let trips = |pace: u64| {
        let mut p = Platform::new(future_config(cfg, seed));
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
#[derive(Debug)]
struct EvasionCell {
    /// Strategy display name.
    strategy: &'static str,
    /// `"baseline"` or `"hardened"`.
    detector: &'static str,
    /// The threshold-prober's searched pace (its cells only).
    pace: Option<u64>,
    /// Time to the first detection, ms.
    detect_ms: Option<f64>,
    /// Bit flips observed.
    flips: u64,
    /// Detector counters at the end of the run.
    stats: DetectorStats,
    /// The strategy's audited undetectable-activation budget.
    budget: u64,
    /// Whether that budget proves the 220K design threshold unreachable.
    proven: bool,
    /// No flips, and detected or proven.
    defended: bool,
    /// Table outcome label.
    outcome: &'static str,
}

/// The simulated run length of an evasion cell, shared by the
/// verifier's witness replays: long enough for the slowest flip in the
/// matrix (distributed many-sided reaches 110K per-pair activations at
/// ~56 ms). `--windows N` overrides it directly (6 ms per stage-1
/// window).
fn evasion_ms(args: &CampaignArgs) -> f64 {
    args.windows
        .map_or(args.scale().ms(80.0).max(70.0), |w| w as f64 * 6.0)
}

/// **Evasion campaign** — the `anvil-adversary` strategies (duty-cycled
/// bursts, threshold probing, camouflage, distributed many-sided) against
/// [`AnvilConfig::baseline`] and [`AnvilConfig::hardened`] on future DRAM
/// that flips at 110K activations (DESIGN.md §8).
///
/// A cell is *defended* when no bit flipped and either a detection fired
/// or the guarantee-envelope auditor proves the strategy cannot reach the
/// 220K design threshold undetected. Gate: every hardened cell defended,
/// *and* the baseline loses at least one of them — the suite must
/// demonstrate that the hardening matters. A panicked cell counts as a
/// loss for the detector it was probing. The seed (default `0xE5A51`)
/// drives the DRAM fault map and the hardened window phases.
pub fn evasion(args: &CampaignArgs) -> Report {
    let seed = args.seed_or(0xE5A51);
    let run_ms = evasion_ms(args);
    let strategies: Vec<Strategy> = if args.smoke {
        // One stage-1 evasion (carry + jitter) and one stage-2 evasion
        // (ledger): covers both hardening layers cheaply.
        vec![Strategy::DutyCycle, Strategy::Distributed]
    } else {
        Strategy::all().to_vec()
    };

    let params = EnvelopeParams::paper_platform();
    let clock = MemoryConfig::paper_platform().clock;
    let future_flip = DisturbanceConfig::future_half_threshold().double_sided_threshold;
    let detectors = seeded_detectors(seed);
    let envelopes = detectors.map(|(_, cfg)| GuaranteeEnvelope::audit(&cfg, &clock, &params));

    let mut jobs: Vec<Box<dyn FnOnce() -> EvasionCell + Send>> = Vec::new();
    for &strategy in &strategies {
        for ((det, cfg), envelope) in detectors.into_iter().zip(&envelopes) {
            let budget = strategy.budget(envelope);
            let proven = budget < params.flip_threshold;
            jobs.push(Box::new(move || {
                let pace = (strategy == Strategy::ThresholdProber).then(|| quiet_pace(&cfg, seed));
                let mut p = Platform::new(future_config(&cfg, seed));
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
    let results = run_cells_checked(args.threads, jobs);

    // Each strategy's cells are a (baseline, hardened) pair. A panicked
    // cell proved nothing, so it counts as a loss for the detector it was
    // probing (known from its position in the pair, even without a
    // result).
    let mut hardened_failures = 0u32;
    let mut baseline_losses = 0u32;
    let mut demonstrated = false;
    for pair in results.chunks(2) {
        let defended = |slot: usize| pair[slot].as_ref().is_ok_and(|cell| cell.defended);
        if !defended(0) {
            baseline_losses += 1;
        }
        if !defended(1) {
            hardened_failures += 1;
        } else if !defended(0) {
            demonstrated = true;
        }
    }
    let (cells, panics) = split_cells(results);

    let mut table = Table::new(
        "Evasion campaign: adaptive adversaries on future DRAM (110K flips)",
        &[
            "Strategy",
            "Detector",
            "Detected at",
            "Stage-1 trips",
            "Carry",
            "Ledger",
            "Flips",
            "Budget@220K",
            "Outcome",
        ],
    );
    let mut cell_values = Vec::with_capacity(cells.len());
    for c in &cells {
        table.row(&[
            c.strategy.to_string(),
            c.detector.to_string(),
            detected_at(c.detect_ms),
            c.stats.threshold_crossings.to_string(),
            c.stats.carry_crossings.to_string(),
            c.stats.ledger_flags.to_string(),
            c.flips.to_string(),
            c.budget.to_string(),
            c.outcome.to_string(),
        ]);
        cell_values.push(json!({
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
        }));
    }

    let holds = hardened_failures == 0 && demonstrated;
    let mut text = table.render();
    text.push_str(if holds {
        "HARDENED DETECTOR DEFENDS EVERY CELL: each strategy is either\n\
             detected (zero flips) or envelope-proven unable to reach the\n\
             220K design threshold — while the paper baseline loses at\n\
             least one of the same cells."
    } else if hardened_failures > 0 {
        "FAILURE: a hardened cell flipped bits or escaped both the\n\
             dynamic detection and the envelope proof."
    } else {
        "FAILURE: the baseline lost no cell the hardened detector\n\
             defends — the campaign demonstrates nothing."
    });
    text.push('\n');
    let record = json!({
        "experiment": "evasion",
        "seed": seed,
        "run_ms": run_ms,
        "smoke": args.smoke,
        "future_flip_threshold": future_flip,
        "design_flip_threshold": params.flip_threshold,
        "envelopes": {
            "baseline": envelopes[0],
            "hardened": envelopes[1],
        },
        "baseline_losses": baseline_losses,
        "hardened_failures": hardened_failures,
        "demonstrated": demonstrated,
        "cell_panics": panics,
        "cells": cell_values,
    });
    Report::new(text, record).gate(holds)
}

/// One verifier cell: a safety claim about one adversary family against
/// one detector at one flip threshold, judged symbolically and — when
/// the abstract bound clears the threshold — dynamically.
#[derive(Debug)]
struct VerifyCell {
    /// Archetype name, in envelope order.
    archetype: &'static str,
    /// `"baseline"` or `"hardened"`.
    detector: &'static str,
    /// The flip threshold the claim is judged against.
    flip_threshold: u64,
    /// Whether witness replays run on future (half-threshold) DRAM.
    future_dram: bool,
    /// The abstract interpreter's bound and its audit cross-check.
    bound: SymbolicBound,
    /// Whether the closed-form envelope holds at this threshold.
    audit_holds: bool,
    /// `"proved"` (bound under the threshold), `"refuted"` (a witness
    /// replays to a missed detection), or `"unconfirmed"` (bound too
    /// loose, no tried family member evades).
    verdict: &'static str,
    /// Detector downtime (cycles) the proof margin tolerates before the
    /// family could close the gap at full hammer rate; zero unless
    /// proved.
    downtime_budget_cycles: u64,
    /// The confirmed counterexample backing a refutation.
    witness: Option<Witness>,
    /// Whether the witness re-replayed to its recorded outcome.
    witness_confirmed: bool,
    /// Merge-gate failure: the bound undercuts the audit, a refutation
    /// contradicts a holding envelope or lacks a replaying witness, or a
    /// hardened design-threshold cell escaped its proof obligation.
    violation: bool,
}

/// **Symbolic verification campaign** — abstract interpretation over the
/// detector × attack IR, with replayable counterexamples (DESIGN.md §12).
///
/// For every adversary archetype the `anvil-analyze` verifier bounds the
/// undetectable activations per aggressor pair per refresh interval over
/// the family's whole parameter box, cross-checks the bound against the
/// [`GuaranteeEnvelope`] audit, and judges it at the 220K and the future
/// 110K flip thresholds: *proved* (bound under the threshold), *refuted*
/// (a witness replays to a real missed detection), or *unconfirmed*.
/// Gate: no bound undercuts its audit, no refutation contradicts a
/// holding envelope or fails to replay, every hardened design-threshold
/// cell is proved, no cell panicked, and at least one refutation
/// demonstrates the witness machinery. The seed defaults to `0xE5A51`,
/// the evasion campaign's, so witnesses line up with its cells.
pub fn verifier(args: &CampaignArgs) -> Report {
    let seed = args.seed_or(0xE5A51);
    let run_ms = evasion_ms(args);
    let design = EnvelopeParams::paper_platform();
    let future_flip = DisturbanceConfig::future_half_threshold().double_sided_threshold;
    let clock = MemoryConfig::paper_platform().clock;
    // Claims: the 220K design threshold on the paper's DRAM, then the
    // future half-threshold generation. Smoke keeps only the future
    // side — the design-threshold proofs are pure math and already
    // pinned by the `anvil-analyze` unit tests; the future cells are
    // the ones that exercise witness extraction and replay.
    let thresholds: &[(u64, bool)] = if args.smoke {
        &[(110_000, true)]
    } else {
        &[(220_000, false), (110_000, true)]
    };

    let mut audits = Vec::new();
    let mut jobs: Vec<Box<dyn FnOnce() -> VerifyCell + Send>> = Vec::new();
    for &(flip, future_dram) in thresholds {
        let params = design.with_flip_threshold(flip);
        for (det, cfg) in seeded_detectors(seed) {
            let audit = GuaranteeEnvelope::audit(&cfg, &clock, &params);
            audits.push(json!({
                "flip_threshold": flip,
                "detector": det,
                "envelope": audit,
            }));
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
    let (cells, panics) = split_cells(run_cells_checked(args.threads, jobs));

    let mut table = Table::new(
        "Symbolic guarantee verifier: abstract bounds vs replayable witnesses",
        &[
            "Archetype",
            "Detector",
            "Flip@",
            "Bound",
            "Audit",
            "Sound",
            "Verdict",
            "Witness",
            "Downtime budget",
        ],
    );
    // A panicked cell is a proof obligation that never discharged:
    // count it as a violation so the merge gate fails closed.
    let (mut proved, mut refuted, mut unconfirmed, mut violations) =
        (0u32, 0u32, 0u32, panics.len() as u32);
    let mut demonstrated = false;
    let mut cell_values = Vec::with_capacity(cells.len());
    for c in &cells {
        match c.verdict {
            "proved" => proved += 1,
            "refuted" => refuted += 1,
            _ => unconfirmed += 1,
        }
        violations += u32::from(c.violation);
        demonstrated |= c.verdict == "refuted" && c.witness_confirmed;
        table.row(&[
            c.archetype.to_string(),
            c.detector.to_string(),
            c.flip_threshold.to_string(),
            c.bound.bound.to_string(),
            c.bound.audit_budget.to_string(),
            if c.bound.sound_wrt_audit { "yes" } else { "NO" }.to_string(),
            c.verdict.to_string(),
            c.witness.as_ref().map_or_else(
                || "-".to_string(),
                |w| {
                    let replay = if c.witness_confirmed {
                        " (replays)"
                    } else {
                        " (STALE)"
                    };
                    format!("{}{replay}", w.spec.label())
                },
            ),
            if c.downtime_budget_cycles > 0 {
                format!("{} cy", c.downtime_budget_cycles)
            } else {
                "-".to_string()
            },
        ]);
        cell_values.push(json!({
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
        }));
    }

    let mut text = table.render();
    text.push_str(if violations == 0 && demonstrated {
        "VERIFIER SOUND AND SHARP: every abstract bound dominates its\n\
             audit budget, every hardened design-threshold claim is proved,\n\
             and every refutation ships a witness that replays to a real\n\
             missed detection."
    } else if violations > 0 {
        "FAILURE: a symbolic bound undercut its audit budget, a\n\
             refutation contradicted a holding envelope or lost its\n\
             witness, or a hardened design-threshold proof obligation\n\
             failed."
    } else {
        "FAILURE: no refutation carried a confirmed witness — the\n\
             counterexample machinery demonstrated nothing."
    });
    text.push('\n');
    let record = json!({
        "experiment": "verifier",
        "seed": seed,
        "run_ms": run_ms,
        "smoke": args.smoke,
        "design_flip_threshold": design.flip_threshold,
        "future_flip_threshold": future_flip,
        "audits": audits,
        "proved": proved,
        "refuted": refuted,
        "unconfirmed": unconfirmed,
        "violations": violations,
        "demonstrated": demonstrated,
        "cell_panics": panics,
        "cells": cell_values,
    });
    Report::new(text, record).gate(violations == 0 && demonstrated)
}

/// **Coverage-guided guarantee fuzzing** (DESIGN.md §13).
///
/// Two campaigns run back to back. *standard* mutates whole scenarios
/// around the hardened shipping configuration, where the envelope holds:
/// any flip under a supposedly-safe configuration is shrunk to a
/// 1-minimal counterexample and fails the gate, and novel zero-flip cases
/// are returned in [`Report::corpus`] for the committed `corpus/`.
/// *canary* plants a conviction blind spot the envelope audit cannot see
/// (`bank_support_min` + `ledger_min_windows`): the fuzzer must find it
/// and shrink it to at most 10 events, or the gate fails — the end-to-end
/// proof that the find-and-shrink pipeline works. Scenario batches are
/// generated before dispatch and fold back in submission order, and a
/// candidate that panics the simulator is a recorded cell failure, not a
/// campaign abort. The seed defaults to `0xF0229`.
pub fn fuzz(args: &CampaignArgs) -> Report {
    let seed = args.seed_or(0xF0229);
    // Panicked candidate cells flow back to the fuzzer as `Err` strings
    // (its report format), but the typed records are kept too so the
    // JSON carries them the same way every other campaign does.
    let panic_log = std::cell::RefCell::new(Vec::new());
    let exec = |batch: Vec<Scenario>| {
        let cells: Vec<_> = batch.into_iter().map(|s| move || s.run()).collect();
        run_cells_checked(args.threads, cells)
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
    let standard_opts = if args.smoke {
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

    let mut table = Table::new(
        "Coverage-guided guarantee fuzzing: oracle outcomes per domain",
        &[
            "Domain",
            "Executed",
            "Rejected",
            "Coverage",
            "Novel",
            "Leaks",
            "Cell fails",
            "Counterexamples",
            "Corpus",
        ],
    );
    for r in [&standard, &canary] {
        table.row(&[
            r.domain.to_string(),
            r.executed.to_string(),
            r.rejected.to_string(),
            r.coverage_points.to_string(),
            r.novel.to_string(),
            r.expected_leaks.to_string(),
            r.cell_failures.len().to_string(),
            r.counterexamples.len().to_string(),
            r.corpus.len().to_string(),
        ]);
    }
    let mut text = table.render();

    if !canary.counterexamples.is_empty() {
        let mut shrink = Table::new(
            "Canary counterexamples: planted blind spot, found and shrunk",
            &[
                "#",
                "Events",
                "Flips",
                "Shrink runs",
                "1-minimal",
                "Safe claim",
            ],
        );
        for (i, c) in canary.counterexamples.iter().enumerate() {
            shrink.row(&[
                i.to_string(),
                format!(
                    "{} -> {}",
                    c.original.schedule.len(),
                    c.shrunk.schedule.len()
                ),
                c.flips.to_string(),
                c.shrink_runs.to_string(),
                if c.minimal { "yes" } else { "NO" }.to_string(),
                if c.shrunk.supposedly_safe() {
                    "holds (audit blind)"
                } else {
                    "BROKEN"
                }
                .to_string(),
            ]);
        }
        text.push_str(&shrink.render());
    }

    text.push_str(if violations.is_empty() {
        "FUZZER SOUND AND SHARP: the standard envelope survived the\n\
             budget with zero counterexamples, and the planted canary\n\
             blind spot was found and shrunk to a minimal replayable\n\
             schedule."
    } else {
        "FAILURE:"
    });
    text.push('\n');
    for v in &violations {
        let _ = writeln!(text, "  - {v}");
    }
    let record = json!({
        "experiment": "fuzz",
        "seed": seed,
        "smoke": args.smoke,
        "standard": standard,
        "canary": canary,
        "violations": violations,
        "cell_panics": panic_log.into_inner(),
    });
    Report {
        text,
        record,
        holds: violations.is_empty(),
        corpus: standard.corpus,
    }
}

/// **Soak campaign** — the detector's supervised lifetime over millions
/// of windows (DESIGN.md §9): mixed benign and paced-adversary traffic,
/// seeded detector crashes, service stalls, checkpoint corruption and
/// hot reloads, with a restart-aware adversary hammering into every gap.
///
/// Gate: zero flips, every recovery gap inside the envelope's downtime
/// budget, and the restart budget never exhausted. The full run is 2M
/// windows (~3.5 simulated hours); `--smoke` runs 120K with the crash and
/// reload rates scaled up. The seed defaults to `0x50AC`.
pub fn soak(args: &CampaignArgs) -> Report {
    let windows = args
        .windows
        .unwrap_or(if args.smoke { 120_000 } else { 2_000_000 });
    let mut cfg = SoakConfig::standard(windows, args.seed_or(0x50AC));
    if args.smoke {
        // Keep the absolute crash/reload counts meaningful at the
        // smaller scale.
        cfg.lifecycle.crash_rate = 5e-3;
        cfg.reload_every = 20_000;
    }
    soak_with(&cfg, args)
}

/// The [`soak`] campaign on an explicit configuration; `args` supplies
/// only `--smoke` (recorded), `--threads` and `--engine`.
///
/// The soak is one continuous supervised detector lifetime — its windows
/// are causally chained (checkpoints, crash recovery, hot reloads), so it
/// is a *single* cell that `--threads` cannot subdivide. A panic of that
/// cell is recorded as typed data instead of aborting the campaign. The
/// record is byte-identical under either `--engine`, so the engine is
/// deliberately not serialized into it.
pub fn soak_with(cfg: &SoakConfig, args: &CampaignArgs) -> Report {
    eprintln!(
        "soak: {} windows, seed {:#x}, crash rate {}, reload every {}, engine {}",
        cfg.windows,
        cfg.seed,
        cfg.lifecycle.crash_rate,
        cfg.reload_every,
        args.engine.as_str()
    );
    let (mut cells, panics) = split_cells(run_cells_checked(
        args.threads,
        vec![|| soak_engine::run_with_engine(cfg, args.engine)],
    ));
    let summary = cells.pop();
    let holds = panics.is_empty() && summary.as_ref().is_some_and(SoakSummary::holds);
    let record = json!({
        "experiment": "soak",
        "seed": cfg.seed,
        "smoke": args.smoke,
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
        "summary": summary,
        "cell_panics": panics,
        "holds": holds,
    });
    let Some(s) = summary else {
        let mut text = String::new();
        for p in &panics {
            let _ = writeln!(text, "soak: {p}");
        }
        return Report::new(text, record).gate(holds);
    };

    let mut table = Table::new(
        "Soak campaign: supervised lifetime under crash/stall/corruption faults",
        &["Metric", "Value"],
    );
    let rows = [
        ("windows", s.windows.to_string()),
        ("simulated", format!("{:.1} s", s.simulated_ms / 1e3)),
        ("stage-1 trips", s.threshold_crossings.to_string()),
        ("stage-2 windows", s.stage2_windows.to_string()),
        ("detections", s.detections.to_string()),
        ("selective refreshes", s.selective_refreshes.to_string()),
        ("degraded windows", s.degraded_windows.to_string()),
        (
            "crashes / restarts",
            format!("{} / {}", s.crashes, s.restarts),
        ),
        ("cold starts", s.cold_starts.to_string()),
        (
            "checkpoints (written / corrupted / rejected)",
            format!(
                "{} / {} / {}",
                s.checkpoints_written, s.checkpoints_corrupted, s.checkpoint_rejections
            ),
        ),
        (
            "hot reloads (applied / deferred)",
            format!("{} / {}", s.reloads, s.reloads_deferred),
        ),
        ("stalled services", s.stalled_services.to_string()),
        (
            "worst recovery gap",
            format!(
                "{} cycles (budget {})",
                s.worst_recovery_gap, s.downtime_budget
            ),
        ),
        ("total downtime", format!("{} cycles", s.total_downtime)),
        ("FLIPS", s.flips.to_string()),
    ];
    for (metric, value) in rows {
        table.row(&[metric.into(), value]);
    }
    let mut text = table.render();

    text.push_str(if holds {
        "ZERO FLIPS across the campaign: every crash recovered inside the\n\
             envelope's downtime budget, corrupted checkpoints fell back to\n\
             cold starts, and hot reloads never lost ledger evidence."
    } else {
        "WARNING: the lifecycle gate failed (flips, an over-budget recovery\n\
             gap, or an exhausted restart budget)."
    });
    text.push('\n');
    Report::new(text, record).gate(holds)
}

/// **Fleet campaign** — Monte Carlo fleet risk across correlated fault
/// domains (DESIGN.md §14).
///
/// Each machine is a channel × DIMM topology of supervised protection
/// domains with its own weak-cell sample and envelope; correlated
/// outages, machine-wide PMU loss (while a cross-domain attacker locks on
/// a victim), shared refresh postponement and torn checkpoints push
/// domains down the degradation ladder. Gate ([`FleetRisk::holds`]): zero
/// flips outside declared PMU-blind windows, every recovery gap inside
/// its domain's budget, and no dead machine cell. The full fleet is 48
/// machines × 4,000 windows, `--smoke` 12 × 1,500; `--machines N` and
/// `--domains N` override the shape and the seed defaults to `0xF1EE7`.
pub fn fleet(args: &CampaignArgs) -> Report {
    let machines = args.machines.unwrap_or(if args.smoke { 12 } else { 48 });
    let windows = args
        .windows
        .unwrap_or(if args.smoke { 1_500 } else { 4_000 });
    let mut cfg = FleetConfig::standard(machines, windows, args.seed_or(0xF1EE7));
    if let Some(n) = args.domains {
        // Keep the dual-channel shape when the requested domain count
        // splits evenly; fall back to one channel otherwise.
        cfg.topology = if n % 2 == 0 {
            DomainTopology {
                channels: 2,
                dimms_per_channel: (n / 2) as u32,
            }
        } else {
            DomainTopology {
                channels: 1,
                dimms_per_channel: n as u32,
            }
        };
    }
    fleet_with(&cfg, args)
}

/// The [`fleet`] campaign on an explicit configuration; `args` supplies
/// only `--smoke` (recorded), `--threads` and `--engine`.
///
/// One machine is one pure cell of `(cfg, machine_index)`: the cells fan
/// across up to `--threads` workers and fold into [`FleetRisk`] in
/// machine order, so the record is byte-for-byte identical at any thread
/// count and under either `--engine`.
pub fn fleet_with(cfg: &FleetConfig, args: &CampaignArgs) -> Report {
    eprintln!(
        "fleet: {} machines × {} domains ({}ch × {}d), {} windows, seed {:#x}",
        cfg.machines,
        cfg.topology.domains(),
        cfg.topology.channels,
        cfg.topology.dimms_per_channel,
        cfg.windows,
        cfg.seed
    );
    let engine = args.engine;
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
    let (machines, panics) = split_cells(run_cells_checked(args.threads, jobs));
    let r = FleetRisk::aggregate(cfg, &machines, panics.len() as u64);
    let holds = r.holds();

    let mut table = Table::new(
        "Fleet campaign: Monte Carlo risk under correlated fault domains",
        &["Metric", "Value"],
    );
    let gaps = &r.recovery_gaps;
    let rows = [
        (
            "fleet",
            format!(
                "{} machines × {} domains, {} windows",
                r.machines,
                cfg.topology.domains(),
                r.windows
            ),
        ),
        (
            "machine-years (accelerated)",
            format!("{:.6}", r.machine_years),
        ),
        ("machine outages", r.outages.to_string()),
        ("PMU-loss episodes", r.pmu_episodes.to_string()),
        ("PMU-blind windows", r.blind_windows.to_string()),
        ("refresh postponements", r.refresh_delays.to_string()),
        (
            "degraded domain-windows",
            r.degraded_domain_windows.to_string(),
        ),
        (
            "demotions / promotions",
            format!("{} / {}", r.demotions, r.promotions),
        ),
        (
            "quarantined / sub-envelope domains",
            format!("{} / {}", r.quarantined_domains, r.sub_envelope_domains),
        ),
        (
            "recovery gap p50/p90/p99/max",
            format!(
                "{} / {} / {} / {} cycles",
                gaps.p50, gaps.p90, gaps.p99, gaps.max
            ),
        ),
        (
            "downtime-budget violations",
            r.budget_violations.to_string(),
        ),
        (
            "exposure flips (declared windows)",
            r.exposure_flips.to_string(),
        ),
        (
            "flips / machine-year",
            format!("{:.3}", r.flips_per_machine_year),
        ),
        (
            "flips / million machine-years",
            format!("{:.0}", r.flips_per_million_machine_years),
        ),
        ("dead machine cells", r.cell_panics.to_string()),
        ("UNDECLARED FLIPS", r.undeclared_flips.to_string()),
    ];
    for (metric, value) in rows {
        table.row(&[metric.into(), value]);
    }
    let mut text = table.render();

    text.push_str(if holds {
        "ZERO UNDECLARED FLIPS across the fleet: every flip the attacker\n\
             managed landed inside a declared PMU-blind exposure window, every\n\
             recovery gap stayed inside its domain's downtime budget, and\n\
             every machine cell completed."
    } else {
        "WARNING: the fleet gate failed (an undeclared flip, an\n\
             over-budget recovery gap, or a dead machine cell)."
    });
    text.push('\n');
    let record = json!({
        "experiment": "fleet",
        "seed": cfg.seed,
        "smoke": args.smoke,
        "config": cfg,
        "risk": r,
        "cell_panics": panics,
        "machines": machines,
        "holds": holds,
    });
    Report::new(text, record).gate(holds)
}

/// **Self-defense campaign** — ANVIL's own DRAM-resident state under a
/// state-targeting hammer (DESIGN.md §15).
///
/// Each trial runs one attack against two arms: *unguarded* (raw
/// replica-0 reads, no scrub, all replicas in one row), expected to go
/// blind, and *guarded* (checksummed triple replicas 512 rows apart,
/// majority repair, scrub, escalation to a cold restart). One
/// `(trial, arm)` pair is one pure cell ([`selfdefense::run_arm`]).
/// Gate (`SelfDefenseVerdict::holds`): the baseline demonstrably
/// loses detections and data, while the guarded arm out-detects it with
/// zero undeclared flips and declares every corruption inside the
/// downtime budget. The full run is 3 trials × 420 windows, `--smoke`
/// 2 × 160; the seed defaults to `0x5E1F`. The record is byte-identical
/// under either `--engine`.
pub fn selfdefense(args: &CampaignArgs) -> Report {
    let seed = args.seed_or(0x5E1F);
    let engine = args.engine;
    let (trials, windows) = if args.smoke { (2, 160) } else { (3, 420) };
    eprintln!("selfdefense: {trials} trials × 2 arms, seed {seed:#x}");
    let mut jobs: Vec<Box<dyn FnOnce() -> selfdefense::ArmCell + Send>> = Vec::new();
    for trial in 0..trials {
        for guarded in [false, true] {
            jobs.push(Box::new(move || {
                let c = selfdefense::run_arm(seed, windows, guarded, trial, engine);
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
    let (cells, panics) = split_cells(run_cells_checked(args.threads, jobs));
    let v = SelfDefenseVerdict::aggregate(&cells, panics.len() as u64);
    let holds = v.holds();

    let mut table = Table::new(
        "Self-defense campaign: the detector's own state under attack",
        &["Metric", "Unguarded baseline", "Guarded detector"],
    );
    let count = |n: u64| n.to_string();
    let rows = [
        (
            "stage-2 detections",
            count(v.baseline_detections),
            count(v.guarded_detections),
        ),
        (
            "state flips silently absorbed",
            count(v.baseline_absorbed),
            count(v.guarded_absorbed),
        ),
        (
            "corruptions repaired (declared)",
            "0".into(),
            count(v.guarded_repaired),
        ),
        (
            "corruptions escalated (declared)",
            "0".into(),
            count(v.guarded_escalated),
        ),
        (
            "state flips injected (guarded)",
            "-".into(),
            count(v.guarded_injected),
        ),
        (
            "recovery gaps within budget",
            "-".into(),
            if v.within_budget { "yes" } else { "NO" }.into(),
        ),
        ("dead cells", count(v.cell_panics), String::new()),
        (
            "UNDECLARED DATA FLIPS",
            count(v.baseline_undeclared),
            count(v.guarded_undeclared),
        ),
    ];
    for (metric, baseline, guarded) in rows {
        table.row(&[metric.into(), baseline, guarded]);
    }
    let mut text = table.render();

    text.push_str(if holds {
        "SELF-INTEGRITY HOLDS: the state-targeting attack blinds the\n\
             unguarded baseline (absorbed state flips, undeclared data flips),\n\
             while the guarded detector keeps detecting, declares every\n\
             corruption as repaired or escalated, and stays inside its\n\
             downtime budget with zero undeclared flips."
    } else {
        "WARNING: the self-defense gate failed (a silently absorbed\n\
             corruption, an undeclared data flip, a missing policy arm, an\n\
             over-budget recovery, or a dead cell)."
    });
    text.push('\n');
    let record = json!({
        "experiment": "selfdefense",
        "seed": seed,
        "smoke": args.smoke,
        "trials": trials,
        "windows": windows,
        "verdict": v,
        "cell_panics": panics,
        "cells": cells,
        "holds": holds,
    });
    Report::new(text, record).gate(holds)
}
