//! The abstract domain: per-row activation-count intervals.
//!
//! Everything in this module is derived from static descriptions — a
//! [`PatternTemplate`] plus a replacement policy, or a workload phase list —
//! and the platform's timing constants. No [`anvil_mem::MemorySystem`] is
//! constructed and no simulated cycle advances.
//!
//! The central object is [`ActivationInterval`]: sound lower and upper
//! bounds on how many times the busiest DRAM row can be *activated* (row
//! opened) within one auto-refresh window. Soundness direction matters:
//!
//! * the **lower** bound must under-estimate what a real run achieves, so
//!   `lo >= threshold` proves a pattern hammer-capable;
//! * the **upper** bound must over-estimate it, so `hi < threshold` proves
//!   a pattern benign.
//!
//! Costs are therefore always bracketed: the cheapest conceivable access
//! (row-buffer hit, no refresh stalls) caps the upper activation bound and
//! the dearest one (row conflict, refresh-stall inflation) caps the lower.

use anvil_attacks::PatternTemplate;
use anvil_cache::{HierarchyConfig, Policy, PolicyKind, ReplacementPolicy};
use anvil_dram::{Cycle, DisturbanceConfig, DramTiming};
use anvil_mem::{CoreModel, MemoryConfig};
use anvil_workloads::Pattern;
use anvil_workloads::{Phase, WorkloadModel};
use serde::Serialize;

/// Sound bounds on per-row activations within one auto-refresh window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ActivationInterval {
    /// Guaranteed-achievable activations (under-approximation).
    pub lo: u64,
    /// Never-exceeded activations (over-approximation).
    pub hi: u64,
}

impl ActivationInterval {
    /// The empty activity interval.
    pub fn zero() -> Self {
        ActivationInterval { lo: 0, hi: 0 }
    }

    /// Interval join: the union's bounding interval.
    #[must_use]
    pub fn join(self, other: Self) -> Self {
        ActivationInterval {
            lo: self.lo.max(other.lo),
            hi: self.hi.max(other.hi),
        }
    }
}

/// LLC-miss-rate bounds in misses per CPU cycle, used by the static
/// detector-coverage check (ANVIL's stage 1 counts LLC misses).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MissRate {
    /// Guaranteed misses per cycle.
    pub lo: f64,
    /// Maximum misses per cycle.
    pub hi: f64,
}

/// An attack access vector in the IR: what the inner loop does, stripped
/// of concrete addresses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessVector {
    /// Access + CLFLUSH per aggressor (paper Section 2.1). `sides == 2`
    /// is the classic double-sided loop; `sides == 1` alternates the
    /// aggressor with a far same-bank conflict row.
    Clflush {
        /// Number of aggressor rows (1 or 2).
        sides: u8,
    },
    /// CLFLUSH-free eviction-set pattern (paper Section 2.2): `template`
    /// ordered over `ways + 1` same-set lines, replayed against
    /// `policy`. Always double-sided in the repo's attack, but the
    /// analysis accepts one side too.
    Eviction {
        /// Ordering of the eviction set within one iteration.
        template: PatternTemplate,
        /// Replacement policy of the targeted LLC.
        policy: PolicyKind,
        /// Number of aggressor rows (1 or 2).
        sides: u8,
    },
}

impl AccessVector {
    /// Number of aggressor rows this vector drives.
    pub fn sides(&self) -> u8 {
        match *self {
            AccessVector::Clflush { sides } | AccessVector::Eviction { sides, .. } => sides,
        }
    }
}

/// Steady-state behaviour of one eviction-set iteration, computed by
/// abstract interpretation of the template over a single-set cache model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct EvictionProfile {
    /// Accesses issued per iteration (`template.expand(ways).len()`).
    pub accesses_per_iteration: usize,
    /// Steady-state LLC misses per iteration.
    pub misses_per_iteration: f64,
    /// Steady-state LLC hits per iteration.
    pub hits_per_iteration: f64,
    /// Fraction of iterations in which the aggressor access missed; the
    /// aggressor's DRAM activation rate is this times the iteration rate.
    pub aggressor_miss_rate: f64,
}

/// One cache set with a live replacement-policy automaton: the smallest
/// faithful abstraction of how an eviction set exercises the hierarchy.
struct SetModel {
    slots: Vec<Option<usize>>,
    policy: Policy,
}

impl SetModel {
    fn new(kind: PolicyKind, ways: usize) -> Self {
        SetModel {
            slots: vec![None; ways],
            policy: kind.build(1, ways),
        }
    }

    /// Hit check; updates replacement state on hit.
    fn probe(&mut self, line: usize) -> bool {
        if let Some(way) = self.slots.iter().position(|s| *s == Some(line)) {
            self.policy.on_hit(0, way);
            true
        } else {
            false
        }
    }

    /// Inserts `line`, returning the line displaced to make room.
    fn fill(&mut self, line: usize) -> Option<usize> {
        let (way, displaced) = if let Some(way) = self.slots.iter().position(Option::is_none) {
            (way, None)
        } else {
            let way = self.policy.victim(0);
            (way, self.slots[way])
        };
        self.slots[way] = Some(line);
        self.policy.on_fill(0, way);
        displaced
    }

    /// Removes `line` if present (inclusive back-invalidation).
    fn invalidate(&mut self, line: usize) {
        if let Some(way) = self.slots.iter().position(|s| *s == Some(line)) {
            self.slots[way] = None;
            self.policy.on_invalidate(0, way);
        }
    }
}

/// Replays `template` against a one-set-per-level abstract hierarchy:
/// `l3_policy` guards the LLC set the `ways + 1` eviction-set lines
/// compete for, while single sets of the configured L1 and L2 stand in
/// front exactly as in [`anvil_cache::CacheHierarchy`] — same-LLC-set
/// lines share their L1 and L2 set too, inner hits never reach the LLC's
/// replacement state, and LLC evictions back-invalidate the inner levels
/// (the hierarchy is inclusive).
///
/// This is static in the analysis sense: no addresses, no DRAM, no
/// clock — just the replacement automata run to their steady state.
pub fn eviction_profile(
    template: PatternTemplate,
    l3_policy: PolicyKind,
    hierarchy: &HierarchyConfig,
) -> EvictionProfile {
    let ways = hierarchy.l3.ways;
    let seq = template.expand(ways);
    let mut l1 = SetModel::new(hierarchy.l1.policy, hierarchy.l1.ways);
    let mut l2 = SetModel::new(hierarchy.l2.policy, hierarchy.l2.ways);
    let mut l3 = SetModel::new(l3_policy, ways);
    let warmup = 32u32;
    let measured = 32u32;
    let mut misses = 0u64;
    let mut aggressor_misses = 0u64;
    let mut hits = 0u64;
    for iter in 0..(warmup + measured) {
        for &line in &seq {
            if l1.probe(line) {
                if iter >= warmup {
                    hits += 1;
                }
                continue;
            }
            l1.fill(line);
            if l2.probe(line) {
                if iter >= warmup {
                    hits += 1;
                }
                continue;
            }
            l2.fill(line);
            if l3.probe(line) {
                if iter >= warmup {
                    hits += 1;
                }
                continue;
            }
            if let Some(evicted) = l3.fill(line) {
                l1.invalidate(evicted);
                l2.invalidate(evicted);
            }
            if iter >= warmup {
                misses += 1;
                if line == 0 {
                    aggressor_misses += 1;
                }
            }
        }
    }
    let per_iter = f64::from(measured);
    EvictionProfile {
        accesses_per_iteration: seq.len(),
        misses_per_iteration: misses as f64 / per_iter,
        hits_per_iteration: hits as f64 / per_iter,
        aggressor_miss_rate: aggressor_misses as f64 / per_iter,
    }
}

/// The platform constants the bounds math needs, extracted from a
/// [`MemoryConfig`] without instantiating the simulator.
#[derive(Debug, Clone)]
pub struct AnalysisContext {
    /// One auto-refresh window, in CPU cycles (every row's disturbance
    /// counter resets at least this often).
    pub window: Cycle,
    /// Core-side access costs.
    pub core: CoreModel,
    /// DRAM timing (row hit/conflict latencies, refresh cadence).
    pub timing: DramTiming,
    /// The full cache-hierarchy description (set shapes and policies for
    /// the abstract eviction-set replay).
    pub hierarchy: HierarchyConfig,
    /// Bytes per DRAM row.
    pub row_bytes: u64,
    /// Disturbance thresholds the verdicts compare against.
    pub disturbance: DisturbanceConfig,
}

impl AnalysisContext {
    /// Extracts the analysis constants from a full platform description.
    pub fn from_memory(config: &MemoryConfig) -> Self {
        AnalysisContext {
            window: config.dram.timing.refresh_period,
            core: config.core,
            timing: config.dram.timing,
            hierarchy: config.hierarchy,
            row_bytes: u64::from(config.dram.geometry.row_bytes),
            disturbance: config.dram.disturbance,
        }
    }

    /// Multiplicative inflation of worst-case access latency from refresh
    /// stalls: a `t_rfc`-long stall every `t_refi`.
    fn refresh_stall_factor(&self) -> f64 {
        1.0 + self.timing.t_rfc as f64 / self.timing.t_refi as f64
    }

    /// Cheapest conceivable LLC-missing access: row-buffer hit, no stalls.
    fn min_miss_cycles(&self) -> f64 {
        (self.timing.row_hit + self.core.miss_overhead) as f64
    }

    /// Dearest LLC-missing access: row conflict, refresh-stall inflated.
    fn max_miss_cycles(&self) -> f64 {
        (self.timing.row_conflict + self.core.miss_overhead) as f64 * self.refresh_stall_factor()
    }
}

/// Sound static bounds for one attack access vector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PatternBounds {
    /// Per-aggressor-row activations within one refresh window.
    pub per_side: ActivationInterval,
    /// Number of aggressor rows driven in lockstep.
    pub sides: u8,
    /// LLC misses per CPU cycle generated by the whole loop.
    pub miss_rate: MissRate,
    /// Fraction of the loop's LLC misses that land on aggressor rows.
    pub aggressor_miss_share: f64,
    /// Same-bank rows (other than one aggressor itself) that the loop
    /// also activates at a comparable rate — what ANVIL's stage-2 bank
    /// corroboration can count.
    pub same_bank_rows: u32,
    /// Steady-state eviction behaviour, for eviction vectors.
    pub eviction: Option<EvictionProfile>,
}

/// Computes per-row activation bounds for an attack access vector over one
/// auto-refresh window. See the module docs for the soundness direction of
/// each bound.
pub fn pattern_activation_bounds(vector: &AccessVector, ctx: &AnalysisContext) -> PatternBounds {
    let window = ctx.window as f64;
    match *vector {
        AccessVector::Clflush { sides } => {
            // Loop body: access A, clflush A, access B, clflush B — every
            // access misses (it was just flushed) and the two accesses
            // alternate rows of one bank, so steady state is all row
            // conflicts; the lower-cost bracket still assumes row hits.
            let flush = ctx.core.clflush_cost as f64;
            let lo_cost = ctx.min_miss_cycles() + flush;
            let hi_cost = ctx.max_miss_cycles() + flush;
            // One aggressor activation per side per 2-access iteration.
            let act_hi = window / (2.0 * lo_cost);
            let act_lo = window / (2.0 * hi_cost);
            let share = if sides == 2 { 1.0 } else { 0.5 };
            PatternBounds {
                per_side: ActivationInterval {
                    lo: act_lo.floor() as u64,
                    hi: act_hi.ceil() as u64,
                },
                sides,
                miss_rate: MissRate {
                    lo: 1.0 / hi_cost,
                    hi: 1.0 / lo_cost,
                },
                aggressor_miss_share: share,
                // Double-sided: the partner aggressor shares the bank.
                // Single-sided: the far conflict row does.
                same_bank_rows: 1,
                eviction: None,
            }
        }
        AccessVector::Eviction {
            template,
            policy,
            sides,
        } => {
            let profile = eviction_profile(template, policy, &ctx.hierarchy);
            let m = profile.misses_per_iteration;
            let h = profile.hits_per_iteration;
            let a = profile.aggressor_miss_rate;
            // Hits can resolve anywhere from L1 to L3.
            let iter_lo = m * ctx.min_miss_cycles() + h * ctx.core.l1_hit_cost as f64;
            let iter_hi = m * ctx.max_miss_cycles() + h * ctx.core.l3_hit_cost as f64;
            let sides_f = f64::from(sides.max(1));
            // `sides` per-set patterns interleave, so each set iterates
            // once per `sides * iter_cost` cycles.
            let act_hi = if iter_lo > 0.0 {
                a * window / (sides_f * iter_lo)
            } else {
                0.0
            };
            let act_lo = if iter_hi > 0.0 {
                a * window / (sides_f * iter_hi)
            } else {
                0.0
            };
            PatternBounds {
                per_side: ActivationInterval {
                    lo: act_lo.floor() as u64,
                    hi: act_hi.ceil() as u64,
                },
                sides,
                miss_rate: MissRate {
                    lo: if iter_hi > 0.0 { m / iter_hi } else { 0.0 },
                    hi: if iter_lo > 0.0 { m / iter_lo } else { 0.0 },
                },
                aggressor_miss_share: if m > 0.0 { a / m } else { 0.0 },
                same_bank_rows: u32::from(sides == 2),
                eviction: Some(profile),
            }
        }
    }
}

/// Each demand miss can force at most one dirty-line writeback, so DRAM
/// activations are bounded by twice the demand-miss count.
const WRITEBACK_FACTOR: f64 = 2.0;

/// Concentration margin for uniformly random address streams: per-row
/// counts concentrate sharply around the mean (binomial tails), so a 1.5x
/// multiplicative plus [`ROW_SLACK`]-additive envelope dominates the
/// busiest row for any window long enough to matter.
const CONCENTRATION_MARGIN: f64 = 1.5;

/// Additive per-row slack covering cold starts, phase boundaries and
/// refresh-interrupted row reopenings.
const ROW_SLACK: u64 = 64;

/// A sequential sweep opens each row about once; writebacks of the
/// previous sweep's dirty lines and refresh interruptions can reopen it a
/// few more times.
const SEQ_ACTIVATIONS_PER_SWEEP: f64 = 4.0;

/// A cache-resident loop region is refilled at most once per phase-list
/// rotation (the other phases evict it); the refill is sequential, with
/// the same reopening slack as a sweep, doubled for safety.
const RESIDENT_REFILL_ACTIVATIONS: f64 = 8.0;

/// Sound static bounds for one workload model.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WorkloadBounds {
    /// Activations of the busiest DRAM row in one refresh window. The
    /// lower bound is trivially zero: a workload is never *guaranteed* to
    /// hammer.
    pub worst_row: ActivationInterval,
    /// Index of the phase whose rate bound dominates.
    pub worst_phase: usize,
    /// Per-phase worst-row activation bounds (window-scaled).
    pub per_phase: Vec<u64>,
}

/// Upper-bounds the busiest row's activations per phase, in activations
/// per CPU cycle *while that phase runs*.
fn phase_row_rate(phase: &Phase, ctx: &AnalysisContext) -> f64 {
    let compute = phase.compute_cycles as f64;
    let op_miss_cost = compute + ctx.min_miss_cycles();
    let l1 = ctx.core.l1_hit_cost as f64;
    let region_bytes = phase.region.1.max(1);
    let line = 64u64;

    // Sequential sweep over `bytes` with `step`: rate of the busiest row.
    let sweep_rate = |bytes: u64, step: u64| -> f64 {
        let bytes = bytes.max(1);
        let step = step.max(1);
        let sweep_ops = bytes.div_ceil(step) as f64;
        let lines = bytes.div_ceil(line) as f64;
        let misses = lines.min(sweep_ops);
        let hits = sweep_ops - misses;
        let sweep_floor = sweep_ops * compute + hits * l1 + misses * ctx.min_miss_cycles();
        if sweep_floor <= 0.0 {
            return 0.0;
        }
        WRITEBACK_FACTOR * SEQ_ACTIVATIONS_PER_SWEEP / sweep_floor
    };

    // Uniformly random misses over `rows` rows at up to one miss per
    // `op_miss_cost` cycles: busiest-row rate with concentration margin.
    let random_rate = |rows: u64, miss_fraction: f64| -> f64 {
        WRITEBACK_FACTOR * CONCENTRATION_MARGIN * miss_fraction
            / (op_miss_cost * rows.max(1) as f64)
    };

    match phase.pattern {
        Pattern::Chase => {
            let rows = region_bytes / ctx.row_bytes;
            random_rate(rows.max(1), 1.0)
        }
        Pattern::Stream { step } => sweep_rate(region_bytes, step),
        Pattern::Loop { step } => {
            if region_bytes <= ctx.hierarchy.l3.capacity_bytes {
                // Resident after one fill; refilled once per phase-list
                // rotation. Infinite single-phase loops saturate the
                // rotation floor and the rate vanishes, as it should.
                0.0 // handled by the caller via the rotation floor
            } else {
                sweep_rate(region_bytes, step)
            }
        }
        Pattern::HotScan {
            step,
            hot_bytes,
            hot_per_mille,
        } => {
            // Hot accesses are uniformly random over the hot sub-region
            // (the last `hot_bytes`); the cold scan covers the rest and
            // never touches the hot rows. Soundly assume every hot access
            // misses (residency would only lower the true count).
            let f = f64::from(hot_per_mille.min(1000)) / 1000.0;
            let hot_rows = hot_bytes / ctx.row_bytes;
            let hot = random_rate(hot_rows.max(1), f);
            let cold = sweep_rate(region_bytes.saturating_sub(hot_bytes), step);
            hot + cold
        }
    }
}

/// Computes the worst-row activation bound for a workload model over one
/// auto-refresh window.
///
/// The bound is `max` over phases of the phase's busiest-row rate, scaled
/// by the full window: over a window split between phases, the busiest
/// row accumulates at most `sum(rate_p * time_p) <= max(rate_p) * window`,
/// so the maximum is sound even when phases overlap in the arena.
pub fn workload_activation_bounds(model: &WorkloadModel, ctx: &AnalysisContext) -> WorkloadBounds {
    let window = ctx.window as f64;
    let rotation_floor = model.rotation_cycles_floor(ctx.core.l1_hit_cost);
    // Cache-resident loop regions refill once per phase-list rotation.
    let resident_refill = if rotation_floor == 0 {
        0.0
    } else {
        WRITEBACK_FACTOR * RESIDENT_REFILL_ACTIVATIONS * window / rotation_floor as f64
    };
    let mut per_phase = Vec::with_capacity(model.phases.len());
    let mut worst = 0u64;
    let mut worst_phase = 0usize;
    for (i, phase) in model.phases.iter().enumerate() {
        let mut acts = phase_row_rate(phase, ctx) * window;
        if let Pattern::Loop { .. } = phase.pattern {
            if phase.region.1 <= ctx.hierarchy.l3.capacity_bytes {
                acts += resident_refill;
            }
        }
        let acts = (acts.ceil() as u64).saturating_add(ROW_SLACK);
        per_phase.push(acts);
        if acts > worst {
            worst = acts;
            worst_phase = i;
        }
    }
    WorkloadBounds {
        worst_row: ActivationInterval { lo: 0, hi: worst },
        worst_phase,
        per_phase,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anvil_workloads::SpecBenchmark;

    fn ctx() -> AnalysisContext {
        AnalysisContext::from_memory(&MemoryConfig::paper_platform())
    }

    #[test]
    fn paper_template_on_bit_plru_misses_twice_per_iteration() {
        let h = HierarchyConfig::sandy_bridge_i5_2540m();
        let p = eviction_profile(PatternTemplate::Paper, PolicyKind::BitPlru, &h);
        assert!((p.misses_per_iteration - 2.0).abs() < 1e-9, "{p:?}");
        assert!((p.aggressor_miss_rate - 1.0).abs() < 1e-9, "{p:?}");
    }

    #[test]
    fn cyclic_template_thrashes_without_reliable_aggressor_eviction() {
        let h = HierarchyConfig::sandy_bridge_i5_2540m();
        let p = eviction_profile(PatternTemplate::Cyclic, PolicyKind::BitPlru, &h);
        assert!(p.misses_per_iteration > 2.0, "{p:?}");
        assert!(p.aggressor_miss_rate < 0.95, "{p:?}");
    }

    #[test]
    fn shortened_templates_fit_the_set_and_never_miss() {
        let h = HierarchyConfig::sandy_bridge_i5_2540m();
        for k in 1..=3 {
            let p = eviction_profile(PatternTemplate::Shortened { k }, PolicyKind::BitPlru, &h);
            assert!(p.misses_per_iteration.abs() < f64::EPSILON, "k={k} {p:?}");
        }
    }

    #[test]
    fn clflush_bounds_bracket_table1_rates() {
        // Table 1: double-sided flips in ~15 ms at ~220K total accesses,
        // i.e. ~450K per side per 64 ms window. The static interval must
        // contain that operating point.
        let b = pattern_activation_bounds(&AccessVector::Clflush { sides: 2 }, &ctx());
        assert!(
            b.per_side.lo <= 450_000 && 450_000 <= b.per_side.hi,
            "{b:?}"
        );
        assert!(b.per_side.lo > 110_000, "must prove flip capability: {b:?}");
    }

    #[test]
    fn interval_ordering_is_preserved() {
        let c = ctx();
        for vector in [
            AccessVector::Clflush { sides: 1 },
            AccessVector::Clflush { sides: 2 },
            AccessVector::Eviction {
                template: PatternTemplate::Paper,
                policy: PolicyKind::BitPlru,
                sides: 2,
            },
        ] {
            let b = pattern_activation_bounds(&vector, &c);
            assert!(b.per_side.lo <= b.per_side.hi, "{vector:?}: {b:?}");
            assert!(b.miss_rate.lo <= b.miss_rate.hi, "{vector:?}: {b:?}");
        }
    }

    #[test]
    fn every_spec_model_is_bounded_below_the_flip_floor() {
        let c = ctx();
        for b in SpecBenchmark::all() {
            let w = workload_activation_bounds(&b.model(), &c);
            assert!(
                w.worst_row.hi < c.disturbance.double_sided_threshold.div_ceil(2),
                "{b}: {w:?}"
            );
            assert_eq!(w.worst_row.lo, 0);
        }
    }
}
