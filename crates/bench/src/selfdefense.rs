//! The self-defense campaign engine: ANVIL's own state under attack.
//!
//! Every other campaign assumes the detector's bookkeeping is trustworthy
//! and attacks the *data* it protects. This one closes the loop that
//! defense retrospectives call a standing weakness of software defenses:
//! ANVIL's carry accumulator, jitter stream, window scale, and re-arm
//! depth live in DRAM rows like everything else, so a next-generation
//! attacker can hammer the defense's memory. The campaign runs the same
//! supervised detector twice per trial:
//!
//! * **unguarded** — the historical baseline: blind replica-0 reads, no
//!   scrubbing, and the naive struct layout that co-locates all three
//!   replicas in one row ([`StateLayout::Naive`]). The attacker's flips
//!   reach the live word directly.
//! * **guarded** — the self-defending detector: checksummed triple
//!   replicas placed [`REPLICA_ROW_STRIDE`](anvil_mem::REPLICA_ROW_STRIDE)
//!   rows apart ([`StateLayout::Interleaved`]), majority-vote repair on
//!   every read, an incremental supervisor scrub, and escalation to a
//!   cold checkpoint restart when no replica can be trusted.
//!
//! # The attack
//!
//! The adversary is [`RestartAwareHammer`] driving a double-sided pair
//! around one state row at a time, rotating over the rows every eight
//! windows (the modelled scrub ages every row alike, so no row is ever
//! staler than the rest). It paces at [`PACED_ACTIVATIONS`] per
//! window — low enough that even at the widest jitter draw the
//! rate-normalized miss count stays under the stage-1 threshold, so the
//! memoryless trip *never* fires and every detection must flow through
//! the EWMA carry. That is the point: the carry is exactly the word the
//! attacker flips. The DIMM is one the attacker chose by templating
//! (Flip-Feng-Shui style): the weak cell adjacent to the state rows sits
//! in the carry replica's top exponent bit, so each disturbance flip
//! collapses the accumulated suspicion to ~0 instead of inflating it
//! (an inflated carry would hand the detector a detection). The weak
//! cell's threshold is drawn from the sub-envelope tail of the fleet
//! campaign's population model — a cell the *data-path* guarantee
//! envelope can never cover, which is why the state needs replication
//! and scrubbing rather than detection alone.
//!
//! Against the unguarded baseline the arithmetic is decisive: one row
//! holds all replicas, the weak cell flips every couple of windows, and
//! the carry never survives long enough to trip — the detector goes
//! silent while the pair's single-sided splash accumulates on a
//! co-located data victim until it flips, undeclared. Against the
//! guarded detector the same flips land on one replica at a time (the
//! interleaved stride puts the others outside any blast radius), majority
//! vote out-votes them, and every corruption surfaces as a typed
//! repaired-or-escalated record. Every [`CORRELATED_EVERY`] windows the
//! attacker spends two extra aggressor pairs to land the same flip on
//! all three replica rows inside one scrub interval — the correlated
//! damage no majority scheme can repair — and the supervisor escalates
//! to a cold restart from the last good checkpoint, with the declared
//! downtime gap charged against the envelope's downtime budget.

use anvil_adversary::RestartAwareHammer;
use anvil_core::{AnvilConfig, EnvelopeParams, GuaranteeEnvelope, StateSite};
use anvil_dram::{BankId, CpuClock, Cycle, RowId};
use anvil_faults::{hash64, FaultRng};
use anvil_mem::{StateLayout, StateRowMap};
use anvil_runtime::{Engine, RuntimeConfig, WindowDriver};
use serde::Serialize;
use std::collections::BTreeSet;

/// Paced activations per stage-1 window. Sized so the *raw* normalized
/// miss count can never trip stage 1 even at the widest jitter draw
/// (`(11_500 + 3_000) / 0.75 < 20_000`): all detection pressure flows
/// through the EWMA carry the attacker is corrupting.
pub const PACED_ACTIVATIONS: u64 = 11_500;

/// Weak-cell flip threshold of the state rows: the sub-envelope tail of
/// the weak-cell population (compare the fleet campaign's sub-envelope
/// DIMMs). Below the stealth pace, so the targeted replica's carry word
/// flips in *every* window — the live value never survives to the trip
/// test. (The word is re-sealed by the detector's own store each window,
/// re-charging the cell; within a window the cell flips at most once —
/// continued disturbance holds it flipped rather than toggling it back.)
pub const STATE_FLIP_THRESHOLD: u64 = 9_000;

/// Flip threshold of the co-located data victim: a weak but in-envelope
/// cell, so the guarded detector's selective refreshes can protect it.
pub const DATA_FLIP_THRESHOLD: u64 = 180_000;

/// Windows the hammer dwells on one state row before it rotates to the
/// next: long enough for the suspicion ledger to accumulate
/// conviction support against the pair.
const TARGET_DWELL: u64 = 8;

/// Period (windows) of the correlated strike: two extra aggressor pairs
/// land the weak-cell flip on every replica row inside one scrub
/// interval, defeating majority vote and forcing an escalation.
pub const CORRELATED_EVERY: u64 = 48;

/// The templated weak cell: state cell 0 is the stage-1 carry.
const WEAK_CELL: usize = 0;

/// The templated weak bit: the carry's top exponent bit. Flipping it on
/// any accumulated value collapses the evidence toward zero; the bits
/// that would *inflate* the carry (and gift the detector a detection)
/// stay intact, as a templating attacker would arrange.
const WEAK_BIT: u8 = 62;

/// The correlated strike's bit: the replica rows' weak cells do not all
/// sit in the same bit lane, so the three-row strike lands one lane
/// over. Distinct from [`WEAK_BIT`] so a paced flip already resident in
/// one replica cannot be cancelled by the strike — the strike always
/// leaves *every* replica invalid, which is the unrepairable case the
/// escalation policy exists for.
const STRIKE_BIT: u8 = 61;

/// Injector stream tag for benign traffic (matching the fleet engine).
const TRAFFIC_SITE: u64 = 6;
/// Bank and base row where the kernel module's static state landed.
const STATE_BANK: BankId = BankId(3);
const STATE_BASE_ROW: u32 = 10_000;

/// What one (arm, trial) cell reports.
#[derive(Debug, Clone, Serialize)]
pub struct ArmCell {
    /// `"unguarded"` or `"guarded"`.
    pub arm: &'static str,
    /// Trial index (each trial reseeds the phase stream and traffic).
    pub trial: u64,
    /// State placement: `"naive"` (unguarded) or `"interleaved"`.
    pub layout: &'static str,
    /// Windows serviced: fewer than requested only when the restart
    /// budget ran out.
    pub windows: u64,
    /// Supervised service calls that completed.
    pub services: u64,
    /// Stage-1 threshold crossings (all via the carry, by construction).
    pub threshold_crossings: u64,
    /// Stage-2 windows that flagged at least one aggressor.
    pub detections: u64,
    /// Victim rows selectively refreshed.
    pub selective_refreshes: u64,
    /// Weak-cell flips the attacker landed on state replicas.
    pub state_flips_injected: u64,
    /// Correlated three-replica strikes (guarded arm only).
    pub correlated_strikes: u64,
    /// Drained corruption records with `repaired: true`.
    pub declared_repaired: u64,
    /// Drained corruption records with `repaired: false` (escalations).
    pub declared_escalated: u64,
    /// Injected sites never surfaced by any scrub or guarded read — the
    /// corruption the detector computed with but never declared. The
    /// guarded gate: must be zero.
    pub silently_absorbed_sites: u64,
    /// Supervisor restarts (all escalation-driven here).
    pub restarts: u64,
    /// Restarts that fell back to a cold start.
    pub cold_starts: u64,
    /// Supervisor counter: corruptions repaired in place.
    pub state_repairs: u64,
    /// Supervisor counter: corruptions escalated to a restart.
    pub state_escalations: u64,
    /// Largest declared recovery gap, in cycles.
    pub worst_recovery_gap: Cycle,
    /// The envelope-derived downtime budget, in cycles.
    pub downtime_budget: Cycle,
    /// Whether every recovery gap stayed inside the budget.
    pub within_budget: bool,
    /// Data-victim flips charged while the arm claimed full protection.
    pub undeclared_flips: u64,
    /// Data-victim flips inside declared recovery gaps.
    pub exposure_flips: u64,
}

/// Aggregate verdict of the self-defense campaign: the unguarded
/// baseline must demonstrably lose detections (and data) to the
/// state-targeting attack, while the guarded detector must declare every
/// corruption and protect the co-located data victim.
#[derive(Debug, Serialize)]
pub(crate) struct SelfDefenseVerdict {
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
    /// Folds the completed cells, plus `panics` cells that died.
    pub(crate) fn aggregate(cells: &[ArmCell], panics: u64) -> Self {
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
    pub(crate) fn holds(&self) -> bool {
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

/// Runs one campaign cell: one supervised detector lifetime under the
/// state-targeting attack. A pure function of `(seed, windows, guarded,
/// trial)`, so cells fan out across threads without changing the record;
/// the cell is the same under either [`Engine`].
#[must_use]
pub fn run_arm(seed: u64, windows: u64, guarded: bool, trial: u64, engine: Engine) -> ArmCell {
    let cell_seed = hash64(seed ^ (trial << 1 | u64::from(guarded)).wrapping_mul(0x9E37_79B9));
    let clock = CpuClock::SANDY_BRIDGE_2_6GHZ;
    let params = EnvelopeParams::paper_platform().with_flip_threshold(DATA_FLIP_THRESHOLD);
    let mut anvil = AnvilConfig::hardened();
    anvil.hardening.phase_seed = cell_seed;
    let envelope = GuaranteeEnvelope::audit(&anvil, &clock, &params);
    let downtime_budget = envelope.downtime_budget(params.attack_access_cycles);
    let runtime = RuntimeConfig {
        guard_state: guarded,
        jitter_seed: cell_seed,
        ..RuntimeConfig::default()
    };
    let mut driver = WindowDriver::new(
        engine,
        anvil.sampling,
        FaultRng::new(cell_seed).fork(TRAFFIC_SITE),
    );
    driver.boot(anvil, runtime, clock, params.refresh_period, None);

    let layout = if guarded {
        StateLayout::Interleaved
    } else {
        StateLayout::Naive
    };
    let map = StateRowMap::new(
        layout,
        STATE_BANK,
        STATE_BASE_ROW,
        driver.supervisor().state_cell_count().min(4),
    );
    let rows = map.state_rows();
    let hammer = RestartAwareHammer::new().with_paced_activations(PACED_ACTIVATIONS);
    // Every state row is a target: the incremental scrub (guarded) or
    // its absence (unguarded) ages all rows alike, so none is staler.
    let all_rows = vec![true; rows.len()];
    // The double-sided pair around the base state row splashes
    // single-sided disturbance two rows out: the co-located data victim.
    let data_victim = RowId::new(STATE_BANK, STATE_BASE_ROW + 2);

    let mut state_evidence = vec![0u64; rows.len()];
    let mut data_evidence = 0u64;
    let mut outstanding: BTreeSet<StateSite> = BTreeSet::new();
    // Replicas of the carry currently holding an un-rewritten weak-bit
    // flip. A flipped cell stays flipped until the word is re-sealed:
    // continued disturbance cannot toggle it back, so injection skips
    // replicas already flipped. The mask clears when the cell is
    // rewritten — a declared scrub/read repair (guarded), a restart
    // rebuild, or the unguarded detector's own blind store.
    let mut flipped_mask: u8 = 0;

    let (mut injected, mut correlated) = (0u64, 0u64);
    let (mut declared_repaired, mut declared_escalated) = (0u64, 0u64);
    let (mut undeclared_flips, mut exposure_flips) = (0u64, 0u64);

    for w in 0..windows {
        // Burst-rate hammering is withheld while the detector is
        // serviced — a burst would trip the memoryless raw threshold and
        // hand the defense a detection — and spent inside recovery gaps
        // instead.
        let t = hammer
            .target_at(w / TARGET_DWELL, &all_rows)
            .expect("state rows exist");
        let paced = hammer.paced_activations();
        let sup = driver.supervisor_mut();
        state_evidence[t] += paced;
        if rows[t].row == STATE_BASE_ROW {
            data_evidence += paced / 2;
        }
        if state_evidence[t] >= STATE_FLIP_THRESHOLD {
            state_evidence[t] %= STATE_FLIP_THRESHOLD;
            let mask = map
                .cells_in(rows[t])
                .iter()
                .find(|&&(c, _)| c == WEAK_CELL)
                .map_or(0, |&(_, m)| m);
            let fresh = mask & !flipped_mask;
            if fresh != 0 {
                if let Some(site) = sup.corrupt_state_cell(WEAK_CELL, fresh, WEAK_BIT) {
                    injected += 1;
                    outstanding.insert(site);
                    flipped_mask |= fresh;
                }
            }
        }
        if guarded && w > 0 && w % CORRELATED_EVERY == 0 {
            // Two extra aggressor pairs reach the other replica rows
            // inside the same scrub interval: correlated damage no
            // majority can repair.
            if let Some(site) = sup.corrupt_state_cell(WEAK_CELL, 0b111, STRIKE_BIT) {
                injected += 1;
                correlated += 1;
                outstanding.insert(site);
            }
        }

        let aggressors = driver.pair_around(rows[t]);
        let Ok(out) = driver.window(paced, Some(aggressors)) else {
            break;
        };
        if let Some(gap) = out.restart_gap {
            // The restart rebuilt (re-sealed) every state cell.
            flipped_mask = 0;
            // The attacker bursts full-rate into the declared downtime
            // gap; the recovery blanket refresh then clears the
            // accumulated disturbance, but the burst's state-row charge
            // carries into the next window's flip test.
            let burst = RestartAwareHammer::burst_activations(gap);
            data_evidence += burst;
            if data_evidence >= DATA_FLIP_THRESHOLD {
                exposure_flips += data_evidence / DATA_FLIP_THRESHOLD;
            }
            data_evidence = 0;
            state_evidence[t] += burst;
        } else {
            for (i, r) in rows.iter().enumerate() {
                if out.rewrites(*r) {
                    state_evidence[i] = 0;
                }
            }
            if out.rewrites(data_victim) {
                data_evidence = 0;
            }
        }

        for c in driver.supervisor_mut().drain_state_corruptions() {
            if c.repaired {
                declared_repaired += 1;
            } else {
                declared_escalated += 1;
            }
            if c.site == StateSite::Carry {
                // The scrub that produced this record re-sealed the cell.
                flipped_mask = 0;
            }
            outstanding.remove(&c.site);
        }
        if !guarded {
            // The blind detector overwrote its carry with a freshly
            // computed (corrupt-derived) value this window, re-charging
            // the weak cell without ever declaring what it read.
            flipped_mask = 0;
        }
        if data_evidence >= DATA_FLIP_THRESHOLD {
            undeclared_flips += data_evidence / DATA_FLIP_THRESHOLD;
            data_evidence %= DATA_FLIP_THRESHOLD;
        }
    }

    // Teardown sweep: anything the incremental scrub had not reached yet
    // is declared now; whatever remains outstanding was silently
    // absorbed (the unguarded baseline absorbs everything).
    for c in driver.supervisor_mut().scrub_state_final() {
        if c.repaired {
            declared_repaired += 1;
        } else {
            declared_escalated += 1;
        }
        outstanding.remove(&c.site);
    }
    let stats = *driver.supervisor().stats();
    let tally = driver.tally();
    ArmCell {
        arm: if guarded { "guarded" } else { "unguarded" },
        trial,
        layout: match layout {
            StateLayout::Naive => "naive",
            StateLayout::Interleaved => "interleaved",
        },
        windows: driver.windows(),
        services: stats.services,
        threshold_crossings: tally.threshold_crossings,
        detections: tally.detections,
        selective_refreshes: tally.selective_refreshes,
        state_flips_injected: injected,
        correlated_strikes: correlated,
        declared_repaired,
        declared_escalated,
        silently_absorbed_sites: outstanding.len() as u64,
        restarts: stats.restarts,
        cold_starts: stats.cold_starts,
        state_repairs: stats.state_repairs,
        state_escalations: stats.state_escalations,
        worst_recovery_gap: stats.worst_recovery_gap,
        downtime_budget,
        within_budget: stats.worst_recovery_gap <= downtime_budget,
        undeclared_flips,
        exposure_flips,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stealth_pace_cannot_raw_trip_at_the_widest_jitter_draw() {
        // The campaign's suppression argument: paced + maximum benign
        // traffic, normalized by the narrowest window scale, stays under
        // the stage-1 threshold — every detection must come via carry.
        let cfg = AnvilConfig::hardened();
        let worst = (PACED_ACTIVATIONS + 3_000) as f64 / (1.0 - cfg.hardening.phase_jitter);
        assert!(worst < cfg.llc_miss_threshold as f64, "worst {worst}");
    }

    #[test]
    fn the_guarded_arm_survives_what_blinds_the_unguarded_arm() {
        let unguarded = run_arm(0xD0_0D, 120, false, 0, Engine::default());
        let guarded = run_arm(0xD0_0D, 120, true, 0, Engine::default());
        assert!(
            guarded.detections > unguarded.detections,
            "guarded {} vs unguarded {}",
            guarded.detections,
            unguarded.detections
        );
        assert_eq!(guarded.undeclared_flips, 0);
        assert_eq!(guarded.silently_absorbed_sites, 0);
        assert!(guarded.declared_repaired > 0);
        assert!(guarded.within_budget);
        // The baseline never declares anything: its flips are absorbed.
        assert_eq!(unguarded.declared_repaired, 0);
        assert!(unguarded.silently_absorbed_sites > 0);
        assert!(unguarded.state_flips_injected > 0);
    }

    #[test]
    fn cells_are_pure_functions_of_their_inputs() {
        let a = run_arm(7, 60, true, 1, Engine::default());
        let b = run_arm(7, 60, true, 1, Engine::default());
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }
}
