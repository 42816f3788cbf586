//! The rowhammer disturbance model.
//!
//! Every activation of a row electrically disturbs the two physically
//! adjacent rows; a cell in a victim row flips once the accumulated
//! disturbance since the victim's last refresh crosses the cell's
//! threshold (Kim et al., ISCA'14, the paper's reference [24]).
//!
//! # Calibration
//!
//! The paper's DDR3 module needs a minimum of **400K** aggressor
//! activations for a single-sided flip and **220K** (110K per side) for a
//! double-sided flip (Table 1). We model the double-sided super-linearity
//! with a coupling boost: the effective disturbance of a victim row is
//!
//! ```text
//! D = c_hi + c_lo + 2 * BOOST * min(c_hi, c_lo)
//! ```
//!
//! where `c_hi`/`c_lo` count activations of the two adjacent aggressors
//! since the victim was last refreshed. With `BOOST = Tss/Tds - 1 =
//! 400/220 - 1 ≈ 0.818`, a single-sided attack flips at exactly `Tss`
//! activations and a balanced double-sided attack at `Tds` total — i.e. the
//! model reproduces Table 1 by construction, which is the calibration the
//! substitution rule requires (we cannot measure a real DIMM).
//!
//! Weak cells are sampled deterministically per row from a seed, so runs
//! are reproducible and no per-row state is allocated until a row is
//! actually disturbed.

use crate::geometry::{BankId, RowId};
use crate::refresh::RefreshSchedule;
use crate::time::{Cadence, Cycle};
use serde::{Deserialize, Serialize};

/// Configuration of the disturbance (bit-flip) physics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DisturbanceConfig {
    /// Minimum activations of a single adjacent aggressor that flip the
    /// most vulnerable cells (the paper's 400K).
    pub single_sided_threshold: u64,
    /// Minimum total activations, balanced across both adjacent
    /// aggressors, that flip the most vulnerable cells (the paper's 220K).
    pub double_sided_threshold: u64,
    /// One out of this many rows contains a cell at exactly the minimum
    /// threshold; other rows are uniformly up to `threshold_spread` harder.
    pub vulnerable_row_period: u32,
    /// Maximum fractional increase of the flip threshold for
    /// less-vulnerable rows (e.g. `1.0` means up to 2x the minimum).
    pub threshold_spread: f64,
    /// Average number of weak cells per row (>= 1; extra cells have higher
    /// thresholds and model the multi-bit flips that defeat ECC, Section
    /// 1.2).
    pub weak_cells_per_row: u32,
    /// How many rows on each side an activation disturbs (1 on the
    /// paper's DDR3; denser future devices disturb at distance 2 as well,
    /// the case the paper's "easily extends to N adjacent rows" remark
    /// anticipates).
    pub neighbor_reach: u32,
    /// Relative coupling strength of distance-2 disturbance (only used
    /// when `neighbor_reach >= 2`).
    pub distance2_coupling: f64,
    /// Seed for the deterministic per-row weak-cell sampling.
    pub seed: u64,
}

impl DisturbanceConfig {
    /// The paper's module (Table 1): 400K single-sided / 220K double-sided.
    pub fn paper_ddr3() -> Self {
        DisturbanceConfig {
            single_sided_threshold: 400_000,
            double_sided_threshold: 220_000,
            vulnerable_row_period: 4,
            threshold_spread: 1.0,
            weak_cells_per_row: 3,
            neighbor_reach: 1,
            distance2_coupling: 0.25,
            seed: 0x0a17_51ce_5eed,
        }
    }

    /// The paper's "future DRAM" scenario (Section 4.5): flips with half
    /// the activations (110K double-sided).
    pub fn future_half_threshold() -> Self {
        let mut c = Self::paper_ddr3();
        c.single_sided_threshold /= 2;
        c.double_sided_threshold /= 2;
        c
    }

    /// A denser future device that also disturbs rows at distance 2 — the
    /// scenario in which ANVIL must widen its victim radius ("our
    /// approach easily extends to N adjacent rows", Section 3.3).
    pub fn future_distance2() -> Self {
        let mut c = Self::future_half_threshold();
        c.neighbor_reach = 2;
        // Dense enough that distance-2 coupling is more than half of
        // distance-1: rows two away from a lone aggressor become flippable
        // within a refresh window.
        c.distance2_coupling = 0.6;
        c
    }

    /// An invulnerable module (no cell ever flips); useful as a control.
    pub fn invulnerable() -> Self {
        let mut c = Self::paper_ddr3();
        c.single_sided_threshold = u64::MAX / 4;
        c.double_sided_threshold = u64::MAX / 4;
        c
    }

    /// The double-sided coupling boost implied by the two thresholds (see
    /// module docs).
    pub fn coupling_boost(&self) -> f64 {
        self.single_sided_threshold as f64 / self.double_sided_threshold as f64 - 1.0
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.single_sided_threshold == 0 || self.double_sided_threshold == 0 {
            return Err("thresholds must be non-zero".into());
        }
        if self.double_sided_threshold > self.single_sided_threshold {
            return Err("double-sided threshold cannot exceed single-sided".into());
        }
        if self.vulnerable_row_period == 0 {
            return Err("vulnerable_row_period must be non-zero".into());
        }
        if self.threshold_spread < 0.0 {
            return Err("threshold_spread must be non-negative".into());
        }
        if self.weak_cells_per_row == 0 {
            return Err("weak_cells_per_row must be at least 1".into());
        }
        if !(1..=2).contains(&self.neighbor_reach) {
            return Err("neighbor_reach must be 1 or 2".into());
        }
        if !(0.0..1.0).contains(&self.distance2_coupling) {
            return Err("distance2_coupling must be in [0, 1)".into());
        }
        Ok(())
    }
}

impl Default for DisturbanceConfig {
    fn default() -> Self {
        Self::paper_ddr3()
    }
}

/// A bit flip induced by hammering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BitFlip {
    /// The victim row.
    pub row: RowId,
    /// Byte offset of the flipped cell within the row.
    pub col: u32,
    /// Bit index within the byte (0..8).
    pub bit: u8,
    /// Cycle at which the flip occurred.
    pub cycle: Cycle,
}

/// A weak cell within a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WeakCell {
    col: u32,
    bit: u8,
    threshold: u64,
    flipped: bool,
}

/// Disturbance state of one victim row: the fields every disturbance
/// reads, 40 bytes. The row's weak cells, needed only once its
/// disturbance reaches `min_threshold`, live apart in
/// [`BankSlab::cells`], so the hot arena stays small.
#[derive(Debug, Clone)]
struct RowState {
    /// Activations of the aggressor row above (row + 1) since last refresh.
    c_hi: u64,
    /// Activations of the aggressor row below (row - 1) since last refresh.
    c_lo: u64,
    /// Activations at distance 2 (rows +/- 2), attenuated by
    /// `distance2_coupling`; only populated when `neighbor_reach >= 2`.
    c_far: u64,
    /// When the charge was last restored.
    last_reset: Cycle,
    /// Cheapest weak-cell threshold, for the fast path.
    min_threshold: u64,
}

/// An activation's time, with the start of the retention period holding
/// it (see [`RefreshSchedule::last_refresh_in`]).
#[derive(Debug, Clone, Copy)]
struct RefreshClock {
    now: Cycle,
    period_start: Cycle,
}

/// Which side of the victim the activated aggressor is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Above,
    Below,
}

/// Dense per-bank storage of [`RowState`]s.
///
/// The disturbance model sits on the per-activation hot path — every DRAM
/// activation updates two to four victim rows — so row state lives in a
/// flat arena indexed by row number instead of a `HashMap<RowId, _>`:
/// `index[row]` holds `slot + 1` into the `slots` arena (0 = no state
/// yet), turning each lookup into two array indexes with no hashing. Both
/// the bank list and each bank's index vector materialize lazily, so an
/// untouched module costs nothing.
#[derive(Debug, Default)]
struct BankSlab {
    /// `row -> slot + 1` (0 = untracked); allocated on the bank's first
    /// disturbance, sized `rows_per_bank`.
    index: Vec<u32>,
    /// Live row states of this bank, in insertion order.
    slots: Vec<RowState>,
    /// `slot -> row` (parallel to `slots`), for bank-wide sweeps.
    rows: Vec<u32>,
    /// `slot -> weak cells` (parallel to `slots`), materialized only when
    /// the row's disturbance reaches its `min_threshold`.
    cells: Vec<Option<Vec<WeakCell>>>,
}

impl BankSlab {
    /// The state slot for `row`, if tracked.
    fn get(&self, row: u32) -> Option<&RowState> {
        let e = *self.index.get(row as usize)?;
        (e != 0).then(|| &self.slots[(e - 1) as usize])
    }

    /// Mutable variant of [`get`](Self::get).
    fn get_mut(&mut self, row: u32) -> Option<&mut RowState> {
        let e = *self.index.get(row as usize)?;
        (e != 0).then(|| &mut self.slots[(e - 1) as usize])
    }

    /// The slot of `victim`, created with zero counters if untracked.
    fn slot_of(&mut self, victim: RowId, config: &DisturbanceConfig, rows_per_bank: u32) -> usize {
        if self.index.is_empty() {
            self.index = vec![0; rows_per_bank as usize];
        }
        let entry = &mut self.index[victim.row as usize];
        if *entry != 0 {
            return (*entry - 1) as usize;
        }
        self.slots.push(RowState {
            c_hi: 0,
            c_lo: 0,
            c_far: 0,
            last_reset: 0,
            min_threshold: min_threshold_for(config, victim),
        });
        self.rows.push(victim.row);
        self.cells.push(None);
        *entry = self.slots.len() as u32;
        self.slots.len() - 1
    }
}

/// Tracks per-row disturbance and produces [`BitFlip`]s.
///
/// Owned by the DRAM module; not meant to be driven directly except in
/// tests. Refreshes are accounted lazily: each time a victim row is
/// touched, any auto-refresh that occurred since its last update resets its
/// counters first.
#[derive(Debug)]
pub struct DisturbanceTracker {
    config: DisturbanceConfig,
    /// `config.coupling_boost()`, computed once.
    boost: f64,
    /// Position in the refresh schedule's retention-period cadence, so
    /// each victim's lazy-refresh check needs no division.
    period: Cadence,
    row_bytes: u32,
    rows_per_bank: u32,
    banks: Vec<BankSlab>,
    flips: Vec<BitFlip>,
    total_flips: u64,
}

impl DisturbanceTracker {
    /// Creates a tracker.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`DisturbanceConfig::validate`].
    pub fn new(config: DisturbanceConfig, row_bytes: u32, rows_per_bank: u32) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid disturbance config: {e}"));
        DisturbanceTracker {
            config,
            boost: config.coupling_boost(),
            period: Cadence::new(1),
            row_bytes,
            rows_per_bank,
            banks: Vec::new(),
            flips: Vec::new(),
            total_flips: 0,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &DisturbanceConfig {
        &self.config
    }

    /// Records an activation of `row` at `now`, disturbing both adjacent
    /// rows and restoring the activated row's own charge. Newly flipped
    /// bits are appended to the flip log (see [`drain_flips`]).
    ///
    /// [`drain_flips`]: Self::drain_flips
    pub fn on_activation(&mut self, row: RowId, now: Cycle, schedule: &RefreshSchedule) {
        // Opening a row restores its charge: reset its own victim state.
        self.reset_row(row, now);
        let at = self.refresh_clock(now, schedule);
        if row.row > 0 {
            self.disturb(
                RowId::new(row.bank, row.row - 1),
                Some(Side::Above),
                at,
                schedule,
            );
        }
        if row.row + 1 < self.rows_per_bank {
            self.disturb(
                RowId::new(row.bank, row.row + 1),
                Some(Side::Below),
                at,
                schedule,
            );
        }
        if self.config.neighbor_reach >= 2 {
            if row.row > 1 {
                self.disturb(RowId::new(row.bank, row.row - 2), None, at, schedule);
            }
            if row.row + 2 < self.rows_per_bank {
                self.disturb(RowId::new(row.bank, row.row + 2), None, at, schedule);
            }
        }
    }

    /// `now` with the start of the retention period containing it, from
    /// the tracked cadence (re-keyed if `schedule` has another period).
    fn refresh_clock(&mut self, now: Cycle, schedule: &RefreshSchedule) -> RefreshClock {
        if self.period.interval() != schedule.period() {
            self.period = Cadence::new(schedule.period());
        }
        let (_, into) = self.period.at(now);
        RefreshClock {
            now,
            period_start: now - into,
        }
    }

    /// Records `n` identical activations of `row` at `now` in closed
    /// form: one dense pass over the (at most four) victim slots instead
    /// of `n` full [`on_activation`](Self::on_activation) walks.
    ///
    /// Observationally identical to calling `on_activation(row, now,
    /// schedule)` `n` times back to back — including the flip log's
    /// order, which replays each flip at the activation index that
    /// crossed its cell's threshold — **provided no other aggressor,
    /// refresh, or repair touches these rows inside the epoch** (the
    /// event-driven engine's closed-form condition; an epoch boundary is
    /// forced at any such site). Counters accumulate on the same
    /// [`BankSlab`] arena slots the per-op path uses.
    pub fn activate_epoch(&mut self, row: RowId, n: u64, now: Cycle, schedule: &RefreshSchedule) {
        if n == 0 {
            return;
        }
        // Opening the row restores its own charge, idempotently per
        // activation: once is enough.
        self.reset_row(row, now);
        // (crossing activation index, flip) pairs, collected per victim
        // in the per-activation disturb order; the stable sort below
        // restores the exact per-op interleaving across victims.
        let at = self.refresh_clock(now, schedule);
        let mut pending: Vec<(u64, BitFlip)> = Vec::new();
        if row.row > 0 {
            self.disturb_epoch(
                RowId::new(row.bank, row.row - 1),
                Some(Side::Above),
                n,
                at,
                schedule,
                &mut pending,
            );
        }
        if row.row + 1 < self.rows_per_bank {
            self.disturb_epoch(
                RowId::new(row.bank, row.row + 1),
                Some(Side::Below),
                n,
                at,
                schedule,
                &mut pending,
            );
        }
        if self.config.neighbor_reach >= 2 {
            if row.row > 1 {
                self.disturb_epoch(
                    RowId::new(row.bank, row.row - 2),
                    None,
                    n,
                    at,
                    schedule,
                    &mut pending,
                );
            }
            if row.row + 2 < self.rows_per_bank {
                self.disturb_epoch(
                    RowId::new(row.bank, row.row + 2),
                    None,
                    n,
                    at,
                    schedule,
                    &mut pending,
                );
            }
        }
        // Stable by crossing index: within one activation the per-op
        // path visits victims (then cells) in exactly the order pending
        // was filled.
        pending.sort_by_key(|(k, _)| *k);
        for (_, flip) in pending {
            self.total_flips += 1;
            self.flips.push(flip);
        }
    }

    /// Explicitly refreshes `row` (a selective-refresh read, a TRR/PARA
    /// neighbor refresh, or a scrub), resetting its disturbance counters.
    pub fn reset_row(&mut self, row: RowId, now: Cycle) {
        if let Some(s) = self
            .banks
            .get_mut(row.bank.0 as usize)
            .and_then(|slab| slab.get_mut(row.row))
        {
            s.c_hi = 0;
            s.c_lo = 0;
            s.c_far = 0;
            s.last_reset = now;
        }
    }

    /// Refreshes every disturbed row of `bank` at once (ANVIL's
    /// degraded-mode blanket refresh). Rows with no tracked state carry
    /// zero disturbance, so resetting only tracked rows is complete.
    /// Returns the number of rows whose counters were cleared.
    pub fn reset_bank(&mut self, bank: BankId, now: Cycle) -> usize {
        let Some(slab) = self.banks.get_mut(bank.0 as usize) else {
            return 0;
        };
        let mut reset = 0;
        for s in &mut slab.slots {
            if s.c_hi > 0 || s.c_lo > 0 || s.c_far > 0 {
                s.c_hi = 0;
                s.c_lo = 0;
                s.c_far = 0;
                s.last_reset = now;
                reset += 1;
            }
        }
        reset
    }

    /// Repairs a flipped cell (software rewrote the byte). Returns whether
    /// a flipped cell existed at that position.
    pub fn repair(&mut self, row: RowId, col: u32, bit: u8) -> bool {
        if let Some(cells) = self.banks.get_mut(row.bank.0 as usize).and_then(|slab| {
            let e = *slab.index.get(row.row as usize)?;
            slab.cells.get_mut(e.checked_sub(1)? as usize)?.as_mut()
        }) {
            for c in cells.iter_mut() {
                if c.col == col && c.bit == bit && c.flipped {
                    c.flipped = false;
                    return true;
                }
            }
        }
        false
    }

    /// Accumulated effective disturbance of `row` (diagnostic).
    pub fn disturbance_of(&self, row: RowId) -> u64 {
        self.banks
            .get(row.bank.0 as usize)
            .and_then(|slab| slab.get(row.row))
            .map_or(0, |s| {
                effective(s, self.boost, self.config.distance2_coupling)
            })
    }

    /// Drains bit flips recorded since the last call.
    pub fn drain_flips(&mut self) -> Vec<BitFlip> {
        std::mem::take(&mut self.flips)
    }

    /// Total flips ever produced.
    pub fn total_flips(&self) -> u64 {
        self.total_flips
    }

    /// Number of rows currently carrying disturbance state (diagnostic).
    pub fn tracked_rows(&self) -> usize {
        self.banks.iter().map(|slab| slab.slots.len()).sum()
    }

    /// Drops rows whose disturbance cannot flip anything and whose cells
    /// are pristine, bounding memory on long runs.
    pub fn compact(&mut self) {
        for slab in &mut self.banks {
            if slab.slots.is_empty() {
                continue;
            }
            let slots = std::mem::take(&mut slab.slots);
            let rows = std::mem::take(&mut slab.rows);
            let cells = std::mem::take(&mut slab.cells);
            for ((s, row), cells) in slots.into_iter().zip(rows).zip(cells) {
                // c_far counts too: on a reach-2 device a row disturbed
                // only at distance 2 still carries real charge loss.
                let keep = s.c_hi > 0
                    || s.c_lo > 0
                    || s.c_far > 0
                    || cells
                        .as_ref()
                        .is_some_and(|cells| cells.iter().any(|c| c.flipped));
                if keep {
                    slab.slots.push(s);
                    slab.rows.push(row);
                    slab.cells.push(cells);
                    slab.index[row as usize] = slab.slots.len() as u32;
                } else {
                    slab.index[row as usize] = 0;
                }
            }
        }
    }

    fn disturb(
        &mut self,
        victim: RowId,
        side: Option<Side>,
        at: RefreshClock,
        schedule: &RefreshSchedule,
    ) {
        let now = at.now;
        let boost = self.boost;
        let far_coupling = self.config.distance2_coupling;
        let bank = victim.bank.0 as usize;
        if bank >= self.banks.len() {
            self.banks.resize_with(bank + 1, BankSlab::default);
        }
        let slab = &mut self.banks[bank];
        let slot = slab.slot_of(victim, &self.config, self.rows_per_bank);
        let state = &mut slab.slots[slot];

        // Lazy auto-refresh: if the schedule refreshed this row since we
        // last updated it, the charge was restored then.
        if let Some(last) = schedule.last_refresh_in(victim.row, now, at.period_start) {
            if last > state.last_reset {
                state.c_hi = 0;
                state.c_lo = 0;
                state.c_far = 0;
                state.last_reset = last;
            }
        }

        match side {
            Some(Side::Above) => state.c_hi += 1,
            Some(Side::Below) => state.c_lo += 1,
            None => state.c_far += 1,
        }

        let d = effective(state, boost, far_coupling);
        if d < state.min_threshold {
            return;
        }
        // Materialize the weak cells and flip every cell whose threshold
        // has been crossed.
        let (config, row_bytes) = (&self.config, self.row_bytes);
        let cells = slab.cells[slot].get_or_insert_with(|| sample_cells(config, victim, row_bytes));
        for cell in cells.iter_mut() {
            if !cell.flipped && d >= cell.threshold {
                cell.flipped = true;
                self.total_flips += 1;
                self.flips.push(BitFlip {
                    row: victim,
                    col: cell.col,
                    bit: cell.bit,
                    cycle: now,
                });
            }
        }
    }

    /// The closed-form counterpart of [`disturb`](Self::disturb): applies
    /// `n` same-side disturbances at once. Instead of pushing flips
    /// directly it records `(k, flip)` pairs in `pending`, where `k` is
    /// the 1-based activation index whose increment first crossed the
    /// cell's threshold — found by binary search on the monotone
    /// effective-disturbance curve — so the caller can interleave flips
    /// from all victims in exact per-op order.
    fn disturb_epoch(
        &mut self,
        victim: RowId,
        side: Option<Side>,
        n: u64,
        at: RefreshClock,
        schedule: &RefreshSchedule,
        pending: &mut Vec<(u64, BitFlip)>,
    ) {
        let now = at.now;
        let boost = self.boost;
        let far_coupling = self.config.distance2_coupling;
        let bank = victim.bank.0 as usize;
        if bank >= self.banks.len() {
            self.banks.resize_with(bank + 1, BankSlab::default);
        }
        let slab = &mut self.banks[bank];
        let slot = slab.slot_of(victim, &self.config, self.rows_per_bank);
        let state = &mut slab.slots[slot];

        // Lazy auto-refresh, once up front: the per-op path re-checks on
        // every activation, but all `n` share the same `now`, so after the
        // first check `last > state.last_reset` can never hold again.
        if let Some(last) = schedule.last_refresh_in(victim.row, now, at.period_start) {
            if last > state.last_reset {
                state.c_hi = 0;
                state.c_lo = 0;
                state.c_far = 0;
                state.last_reset = last;
            }
        }

        let (h0, l0, f0) = (state.c_hi, state.c_lo, state.c_far);
        match side {
            Some(Side::Above) => state.c_hi += n,
            Some(Side::Below) => state.c_lo += n,
            None => state.c_far += n,
        }

        // Effective disturbance as the per-op path would see it after the
        // k-th activation of this epoch; monotone nondecreasing in k.
        let eff_at = |k: u64| match side {
            Some(Side::Above) => effective_counts(h0 + k, l0, f0, boost, far_coupling),
            Some(Side::Below) => effective_counts(h0, l0 + k, f0, boost, far_coupling),
            None => effective_counts(h0, l0, f0 + k, boost, far_coupling),
        };
        let d_final = eff_at(n);
        if d_final < state.min_threshold {
            return;
        }
        // The per-op path materializes cells at the first activation that
        // reaches `min_threshold`; monotonicity makes "materialized by the
        // end of the epoch" the same condition.
        let (config, row_bytes) = (&self.config, self.row_bytes);
        let cells = slab.cells[slot].get_or_insert_with(|| sample_cells(config, victim, row_bytes));
        for cell in cells.iter_mut() {
            if !cell.flipped && d_final >= cell.threshold {
                cell.flipped = true;
                // Smallest k in 1..=n with eff_at(k) >= threshold.
                let (mut lo, mut hi) = (1u64, n);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if eff_at(mid) >= cell.threshold {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                pending.push((
                    lo,
                    BitFlip {
                        row: victim,
                        col: cell.col,
                        bit: cell.bit,
                        cycle: now,
                    },
                ));
            }
        }
    }
}

fn effective(s: &RowState, boost: f64, far_coupling: f64) -> u64 {
    effective_counts(s.c_hi, s.c_lo, s.c_far, boost, far_coupling)
}

/// The effective-disturbance formula on raw counter values. Split out of
/// [`effective`] so the epoch path's "what would the counters read after
/// `k` activations" probe uses bit-identical arithmetic (same `f64`
/// truncations) as the per-op path.
///
/// A zero count contributes exactly zero through its `f64` term (the
/// boost and coupling are finite and non-negative), so those conversions
/// are skipped: one-sided disturbance, the common case, stays integer.
fn effective_counts(c_hi: u64, c_lo: u64, c_far: u64, boost: f64, far_coupling: f64) -> u64 {
    let min = c_hi.min(c_lo);
    let mut d = c_hi + c_lo;
    if min > 0 {
        d += (2.0 * boost * min as f64) as u64;
    }
    if c_far > 0 {
        d += (far_coupling * c_far as f64) as u64;
    }
    d
}

/// splitmix64: cheap, well-distributed stateless hash.
fn hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn row_hash(config: &DisturbanceConfig, row: RowId) -> u64 {
    hash64(config.seed ^ ((row.bank.0 as u64) << 40) ^ row.row as u64)
}

fn row_is_vulnerable(config: &DisturbanceConfig, row: RowId) -> bool {
    row_hash(config, row).is_multiple_of(config.vulnerable_row_period as u64)
}

fn min_threshold_for(config: &DisturbanceConfig, row: RowId) -> u64 {
    let h = row_hash(config, row);
    if row_is_vulnerable(config, row) {
        config.single_sided_threshold
    } else {
        // Uniform in (1, 1 + spread] times the base threshold.
        let frac = ((h >> 16) % 10_000) as f64 / 10_000.0;
        let factor = 1.0 + (0.05 + frac * config.threshold_spread).max(0.05);
        (config.single_sided_threshold as f64 * factor) as u64
    }
}

fn sample_cells(config: &DisturbanceConfig, row: RowId, row_bytes: u32) -> Vec<WeakCell> {
    let base = min_threshold_for(config, row);
    let h = row_hash(config, row);
    let n = 1 + (hash64(h ^ 1) % (2 * config.weak_cells_per_row as u64 - 1)) as u32;
    let mut cells: Vec<WeakCell> = (0..n)
        .map(|i| {
            let hc = hash64(h ^ (0x100 + i as u64));
            let extra = if i == 0 {
                0
            } else {
                // Subsequent cells are progressively harder to flip.
                (base as f64 * 0.08 * i as f64 * (1.0 + (hc % 97) as f64 / 97.0)) as u64
            };
            WeakCell {
                col: (hc >> 8) as u32 % row_bytes,
                bit: (hc % 8) as u8,
                threshold: base + extra,
                flipped: false,
            }
        })
        .collect();
    // Weak cells cluster physically: with some probability a later cell
    // shares the first cell's 64-bit word. This models Kim et al.'s
    // observation — cited by the paper against ECC scrubbing as a defense
    // (Section 1.2) — that hammering produces "multiple bit-flips per
    // word", which SECDED ECC cannot correct.
    for i in 1..cells.len() {
        let hc = hash64(h ^ (0x900 + i as u64));
        if hc.is_multiple_of(4) {
            let anchor_word = cells[0].col & !7;
            cells[i].col = anchor_word + ((hc >> 8) % 8) as u32;
            cells[i].bit = ((hc >> 16) % 8) as u8;
            // Avoid duplicating an existing (col, bit).
            if cells[..i]
                .iter()
                .any(|c| c.col == cells[i].col && c.bit == cells[i].bit)
            {
                cells[i].bit = (cells[i].bit + 1) % 8;
            }
        }
    }
    cells
}

/// Returns whether `row` contains a most-vulnerable cell (threshold exactly
/// at the configured minimum). Exposed so attacks and tests can pick victim
/// rows the way a real attacker scans memory for flippable cells.
pub fn is_vulnerable_row(config: &DisturbanceConfig, row: RowId) -> bool {
    row_is_vulnerable(config, row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::BankId;
    use crate::timing::DramTiming;

    fn harness() -> (DisturbanceTracker, RefreshSchedule) {
        let timing = DramTiming::default();
        let tracker = DisturbanceTracker::new(DisturbanceConfig::paper_ddr3(), 8192, 32_768);
        let sched = RefreshSchedule::new(&timing, 32_768);
        (tracker, sched)
    }

    fn vulnerable_victim(config: &DisturbanceConfig) -> RowId {
        (2..32_000)
            .map(|r| RowId::new(BankId(0), r))
            .find(|r| is_vulnerable_row(config, *r))
            .expect("some vulnerable row exists")
    }

    #[test]
    fn single_sided_flips_at_exactly_the_threshold() {
        let (mut t, s) = harness();
        let victim = vulnerable_victim(t.config());
        let aggressor = RowId::new(victim.bank, victim.row + 1);
        // Hammer within one refresh window, well away from the victim's
        // refresh phase.
        let start = s.last_refresh(victim.row, s.period() * 2).unwrap() + 1;
        let threshold = t.config().single_sided_threshold;
        for i in 0..threshold {
            t.on_activation(aggressor, start + i, &s);
        }
        let flips = t.drain_flips();
        assert!(!flips.is_empty(), "expected a flip at the threshold");
        assert_eq!(flips[0].row, victim);
        // The flip happened exactly at the last activation, not before.
        assert_eq!(flips[0].cycle, start + threshold - 1);
    }

    #[test]
    fn double_sided_flips_at_the_lower_threshold() {
        let (mut t, s) = harness();
        let victim = vulnerable_victim(t.config());
        let above = RowId::new(victim.bank, victim.row + 1);
        let below = RowId::new(victim.bank, victim.row - 1);
        let start = s.last_refresh(victim.row, s.period() * 2).unwrap() + 1;
        let total = t.config().double_sided_threshold;
        for i in 0..total {
            let agg = if i % 2 == 0 { above } else { below };
            t.on_activation(agg, start + i, &s);
        }
        let flips = t.drain_flips();
        assert!(!flips.is_empty(), "double-sided must flip at 220K");
        // Allow the integer rounding of the boost one access of slack.
        assert!(flips[0].cycle <= start + total);
    }

    #[test]
    fn double_sided_does_not_flip_below_threshold() {
        let (mut t, s) = harness();
        let victim = vulnerable_victim(t.config());
        let above = RowId::new(victim.bank, victim.row + 1);
        let below = RowId::new(victim.bank, victim.row - 1);
        let start = s.last_refresh(victim.row, s.period() * 2).unwrap() + 1;
        for i in 0..(t.config().double_sided_threshold - 16) {
            let agg = if i % 2 == 0 { above } else { below };
            t.on_activation(agg, start + i, &s);
        }
        assert!(t.drain_flips().is_empty());
    }

    #[test]
    fn auto_refresh_resets_disturbance() {
        let (mut t, s) = harness();
        let victim = vulnerable_victim(t.config());
        let aggressor = RowId::new(victim.bank, victim.row + 1);
        // Hammer half the threshold before the victim's refresh, half after:
        // no flip, because the refresh resets the counter.
        let refresh_at = s.next_refresh(victim.row, s.period());
        let half = t.config().single_sided_threshold / 2 + 8;
        for i in 0..half {
            t.on_activation(aggressor, refresh_at - half + i, &s);
        }
        for i in 0..half {
            t.on_activation(aggressor, refresh_at + 1 + i, &s);
        }
        assert!(
            t.drain_flips().is_empty(),
            "refresh between the halves must prevent the flip"
        );
        assert!(t.disturbance_of(victim) <= half + 1);
    }

    #[test]
    fn victim_activation_restores_its_own_charge() {
        let (mut t, s) = harness();
        let victim = vulnerable_victim(t.config());
        let aggressor = RowId::new(victim.bank, victim.row + 1);
        let start = s.last_refresh(victim.row, s.period() * 2).unwrap() + 1;
        let half = t.config().single_sided_threshold / 2 + 8;
        for i in 0..half {
            t.on_activation(aggressor, start + i, &s);
        }
        // ANVIL's selective refresh: reading (activating) the victim.
        t.on_activation(victim, start + half, &s);
        for i in 0..half {
            t.on_activation(aggressor, start + half + 1 + i, &s);
        }
        assert!(t.drain_flips().is_empty());
    }

    #[test]
    fn explicit_reset_row_protects() {
        let (mut t, s) = harness();
        let victim = vulnerable_victim(t.config());
        let aggressor = RowId::new(victim.bank, victim.row + 1);
        let start = s.last_refresh(victim.row, s.period() * 2).unwrap() + 1;
        let half = t.config().single_sided_threshold / 2 + 8;
        for i in 0..half {
            t.on_activation(aggressor, start + i, &s);
        }
        t.reset_row(victim, start + half);
        for i in 0..half {
            t.on_activation(aggressor, start + half + 1 + i, &s);
        }
        assert!(t.drain_flips().is_empty());
    }

    #[test]
    fn flips_are_permanent_until_repaired() {
        let (mut t, s) = harness();
        let victim = vulnerable_victim(t.config());
        let aggressor = RowId::new(victim.bank, victim.row + 1);
        let start = s.last_refresh(victim.row, s.period() * 2).unwrap() + 1;
        for i in 0..t.config().single_sided_threshold {
            t.on_activation(aggressor, start + i, &s);
        }
        let flips = t.drain_flips();
        assert!(!flips.is_empty());
        let f = flips[0];
        // A refresh does not heal the flip, and the same cell does not
        // flip twice.
        t.reset_row(victim, start + 500_000);
        assert!(t.drain_flips().is_empty());
        // Repair (software rewrite) clears it.
        assert!(t.repair(f.row, f.col, f.bit));
        assert!(!t.repair(f.row, f.col, f.bit), "already repaired");
    }

    #[test]
    fn non_vulnerable_rows_need_more_activations() {
        let config = DisturbanceConfig::paper_ddr3();
        let hard = (2..32_000)
            .map(|r| RowId::new(BankId(1), r))
            .find(|r| !is_vulnerable_row(&config, *r))
            .unwrap();
        let (mut t, s) = harness();
        let aggressor = RowId::new(hard.bank, hard.row + 1);
        let start = s.last_refresh(hard.row, s.period() * 2).unwrap() + 1;
        for i in 0..config.single_sided_threshold {
            t.on_activation(aggressor, start + i, &s);
        }
        assert!(
            t.drain_flips().is_empty(),
            "non-vulnerable row must not flip at the minimum threshold"
        );
    }

    #[test]
    fn vulnerable_rows_exist_at_expected_density() {
        let config = DisturbanceConfig::paper_ddr3();
        let n = (0..10_000)
            .filter(|&r| is_vulnerable_row(&config, RowId::new(BankId(0), r)))
            .count();
        // 1-in-4 nominal; allow generous sampling slack.
        assert!((1_800..=3_200).contains(&n), "density off: {n}/10000");
    }

    #[test]
    fn compact_retains_flipped_and_dirty_rows() {
        let (mut t, s) = harness();
        let victim = vulnerable_victim(t.config());
        let aggressor = RowId::new(victim.bank, victim.row + 1);
        t.on_activation(aggressor, 1, &s);
        assert!(t.tracked_rows() > 0);
        t.reset_row(victim, 2);
        let before = t.tracked_rows();
        t.compact();
        assert!(t.tracked_rows() < before);
    }

    #[test]
    fn config_validation() {
        let mut c = DisturbanceConfig::paper_ddr3();
        c.validate().unwrap();
        c.double_sided_threshold = c.single_sided_threshold + 1;
        assert!(c.validate().is_err());
        let mut c2 = DisturbanceConfig::paper_ddr3();
        c2.vulnerable_row_period = 0;
        assert!(c2.validate().is_err());
    }

    #[test]
    fn coupling_boost_matches_table1_ratio() {
        let c = DisturbanceConfig::paper_ddr3();
        assert!((c.coupling_boost() - (400.0 / 220.0 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn future_config_halves_thresholds() {
        let f = DisturbanceConfig::future_half_threshold();
        assert_eq!(f.single_sided_threshold, 200_000);
        assert_eq!(f.double_sided_threshold, 110_000);
        f.validate().unwrap();
    }
}

#[cfg(test)]
mod arena_equivalence {
    //! The dense per-bank arena ([`BankSlab`]) replaced a
    //! `HashMap<RowId, RowState>` on the activation hot path. This module
    //! keeps the old storage alive as a reference model and proves the
    //! two observationally identical under arbitrary interleavings of
    //! activations, row/bank resets, compactions, and time jumps.

    use super::*;
    use crate::geometry::BankId;
    use crate::timing::DramTiming;
    use proptest::prelude::*;
    use std::collections::HashMap;

    const BANKS: u32 = 3;
    const ROWS: u32 = 64;

    /// Thresholds small enough that random short sequences actually flip.
    fn tiny_config(reach: u32) -> DisturbanceConfig {
        let mut c = DisturbanceConfig::paper_ddr3();
        c.single_sided_threshold = 40;
        c.double_sided_threshold = 22;
        c.neighbor_reach = reach;
        if reach == 2 {
            c.distance2_coupling = 0.6;
        }
        c
    }

    /// The pre-arena reference: identical physics over the `HashMap`
    /// storage the dense arena replaced.
    struct HashMapModel {
        config: DisturbanceConfig,
        row_bytes: u32,
        rows_per_bank: u32,
        rows: HashMap<RowId, (RowState, Option<Vec<WeakCell>>)>,
        flips: Vec<BitFlip>,
        total_flips: u64,
    }

    impl HashMapModel {
        fn new(config: DisturbanceConfig, row_bytes: u32, rows_per_bank: u32) -> Self {
            HashMapModel {
                config,
                row_bytes,
                rows_per_bank,
                rows: HashMap::new(),
                flips: Vec::new(),
                total_flips: 0,
            }
        }

        fn on_activation(&mut self, row: RowId, now: Cycle, schedule: &RefreshSchedule) {
            self.reset_row(row, now);
            if row.row > 0 {
                self.disturb(
                    RowId::new(row.bank, row.row - 1),
                    Some(Side::Above),
                    now,
                    schedule,
                );
            }
            if row.row + 1 < self.rows_per_bank {
                self.disturb(
                    RowId::new(row.bank, row.row + 1),
                    Some(Side::Below),
                    now,
                    schedule,
                );
            }
            if self.config.neighbor_reach >= 2 {
                if row.row > 1 {
                    self.disturb(RowId::new(row.bank, row.row - 2), None, now, schedule);
                }
                if row.row + 2 < self.rows_per_bank {
                    self.disturb(RowId::new(row.bank, row.row + 2), None, now, schedule);
                }
            }
        }

        fn reset_row(&mut self, row: RowId, now: Cycle) {
            if let Some((s, _)) = self.rows.get_mut(&row) {
                s.c_hi = 0;
                s.c_lo = 0;
                s.c_far = 0;
                s.last_reset = now;
            }
        }

        fn reset_bank(&mut self, bank: BankId, now: Cycle) -> usize {
            let mut reset = 0;
            for (row, (s, _)) in &mut self.rows {
                if row.bank == bank && (s.c_hi > 0 || s.c_lo > 0 || s.c_far > 0) {
                    s.c_hi = 0;
                    s.c_lo = 0;
                    s.c_far = 0;
                    s.last_reset = now;
                    reset += 1;
                }
            }
            reset
        }

        fn disturbance_of(&self, row: RowId) -> u64 {
            self.rows.get(&row).map_or(0, |(s, _)| {
                effective(
                    s,
                    self.config.coupling_boost(),
                    self.config.distance2_coupling,
                )
            })
        }

        fn drain_flips(&mut self) -> Vec<BitFlip> {
            std::mem::take(&mut self.flips)
        }

        fn disturb(
            &mut self,
            victim: RowId,
            side: Option<Side>,
            now: Cycle,
            schedule: &RefreshSchedule,
        ) {
            let boost = self.config.coupling_boost();
            let far_coupling = self.config.distance2_coupling;
            let config = self.config;
            let row_bytes = self.row_bytes;
            let (state, state_cells) = self.rows.entry(victim).or_insert_with(|| {
                (
                    RowState {
                        c_hi: 0,
                        c_lo: 0,
                        c_far: 0,
                        last_reset: 0,
                        min_threshold: min_threshold_for(&config, victim),
                    },
                    None,
                )
            });
            if let Some(last) = schedule.last_refresh(victim.row, now) {
                if last > state.last_reset {
                    state.c_hi = 0;
                    state.c_lo = 0;
                    state.c_far = 0;
                    state.last_reset = last;
                }
            }
            match side {
                Some(Side::Above) => state.c_hi += 1,
                Some(Side::Below) => state.c_lo += 1,
                None => state.c_far += 1,
            }
            let d = effective(state, boost, far_coupling);
            if d < state.min_threshold {
                return;
            }
            let cells = state_cells.get_or_insert_with(|| sample_cells(&config, victim, row_bytes));
            let mut new_flips = Vec::new();
            for cell in cells.iter_mut() {
                if !cell.flipped && d >= cell.threshold {
                    cell.flipped = true;
                    new_flips.push(BitFlip {
                        row: victim,
                        col: cell.col,
                        bit: cell.bit,
                        cycle: now,
                    });
                }
            }
            self.total_flips += new_flips.len() as u64;
            self.flips.append(&mut new_flips);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The dense arena and the `HashMap` reference agree on every
        /// observable — per-row disturbance, the flip log (contents *and*
        /// order), running totals, and bank-reset counts — for arbitrary
        /// op sequences; `compact()` (arena-only) must be invisible.
        ///
        /// Each op is a `(tag, bank, row, jump)` tuple (the vendored
        /// proptest has no `prop_oneof`): tags 0-9 activate (hammering
        /// dominates the mix), 10 resets a row, 11 resets a bank, 12
        /// compacts the arena, 13 jumps time (crossing auto-refreshes),
        /// 14 steps time back (the arena's tracked refresh period must
        /// follow). Half the cases postpone refresh commands.
        #[test]
        fn dense_arena_matches_hashmap_reference(
            ops in prop::collection::vec(
                (0u32..15, 0..BANKS, 0..ROWS, 1u64..5_000_000),
                1..400,
            ),
            reach in 1u32..=2,
            postpone in 0u32..2,
        ) {
            let config = tiny_config(reach);
            let timing = DramTiming::default();
            let mut sched = RefreshSchedule::new(&timing, ROWS);
            if postpone == 1 {
                sched.set_postpone(Some(anvil_faults::RefreshPostpone {
                    permille: 700,
                    max_postpone: 40_000,
                    seed: 11,
                }));
            }
            let mut arena = DisturbanceTracker::new(config, 256, ROWS);
            let mut reference = HashMapModel::new(config, 256, ROWS);
            let mut now: Cycle = 1;
            for &(tag, b, r, d) in &ops {
                let row = RowId::new(BankId(b), r);
                match tag {
                    0..=9 => {
                        now += 1;
                        arena.on_activation(row, now, &sched);
                        reference.on_activation(row, now, &sched);
                    }
                    10 => {
                        arena.reset_row(row, now);
                        reference.reset_row(row, now);
                    }
                    11 => {
                        prop_assert_eq!(
                            arena.reset_bank(BankId(b), now),
                            reference.reset_bank(BankId(b), now),
                            "bank-reset count diverged"
                        );
                    }
                    12 => arena.compact(),
                    13 => now += d,
                    _ => now = now.saturating_sub(d / 2).max(1),
                }
            }
            for b in 0..BANKS {
                for r in 0..ROWS {
                    let row = RowId::new(BankId(b), r);
                    prop_assert_eq!(
                        arena.disturbance_of(row),
                        reference.disturbance_of(row),
                        "disturbance diverged at bank {} row {}", b, r
                    );
                }
            }
            prop_assert_eq!(arena.drain_flips(), reference.drain_flips());
            prop_assert_eq!(arena.total_flips(), reference.total_flips);
        }
    }
}

#[cfg(test)]
mod distance2_tests {
    use super::*;
    use crate::geometry::BankId;
    use crate::timing::DramTiming;

    fn harness(config: DisturbanceConfig) -> (DisturbanceTracker, RefreshSchedule) {
        let timing = DramTiming::default();
        (
            DisturbanceTracker::new(config, 8192, 32_768),
            RefreshSchedule::new(&timing, 32_768),
        )
    }

    fn vulnerable(config: &DisturbanceConfig, bank: u32) -> RowId {
        (4..30_000)
            .map(|r| RowId::new(BankId(bank), r))
            .find(|r| is_vulnerable_row(config, *r))
            .unwrap()
    }

    #[test]
    fn distance2_disturbance_accumulates_attenuated() {
        let config = DisturbanceConfig::future_distance2();
        let (mut t, s) = harness(config);
        let victim = vulnerable(&config, 0);
        // Aggressor two rows away: only the far counter moves.
        let aggressor = RowId::new(victim.bank, victim.row + 2);
        let start = s.last_refresh(victim.row, s.period() * 2).unwrap() + 1;
        for i in 0..1_000 {
            t.on_activation(aggressor, start + i, &s);
        }
        let d = t.disturbance_of(victim);
        assert_eq!(d, (1_000.0 * config.distance2_coupling) as u64);
    }

    #[test]
    fn reach1_module_ignores_distance2() {
        let config = DisturbanceConfig::paper_ddr3();
        let (mut t, s) = harness(config);
        let victim = vulnerable(&config, 1);
        let aggressor = RowId::new(victim.bank, victim.row + 2);
        let start = s.last_refresh(victim.row, s.period() * 2).unwrap() + 1;
        for i in 0..10_000 {
            t.on_activation(aggressor, start + i, &s);
        }
        assert_eq!(t.disturbance_of(victim), 0);
    }

    #[test]
    fn distance2_flips_eventually_on_future_device() {
        // Double-sided hammering at +/-1 of row r also disturbs r+2/r-2 at
        // quarter strength; with halved thresholds those flip too if left
        // unrefreshed long enough. Hammer hard and check a +/-2 victim of
        // a vulnerable row accumulates real charge loss.
        let config = DisturbanceConfig::future_distance2();
        let (mut t, s) = harness(config);
        let victim = vulnerable(&config, 2);
        let near = RowId::new(victim.bank, victim.row + 1);
        let start = s.last_refresh(victim.row, s.period() * 2).unwrap() + 1;
        // `near`'s activation disturbs `victim` at distance 1... use an
        // aggressor at distance 2 only: victim.row + 2.
        let far = RowId::new(victim.bank, victim.row + 2);
        let needed = (config.single_sided_threshold as f64 / config.distance2_coupling) as u64;
        for i in 0..needed + 8 {
            t.on_activation(far, start + i, &s);
        }
        let flips = t.drain_flips();
        assert!(
            flips.iter().any(|f| f.row == victim),
            "distance-2 hammering must flip on the dense device"
        );
        let _ = near;
    }

    #[test]
    fn validation_rejects_bad_reach() {
        let mut c = DisturbanceConfig::paper_ddr3();
        c.neighbor_reach = 3;
        assert!(c.validate().is_err());
        c.neighbor_reach = 0;
        assert!(c.validate().is_err());
        let mut c2 = DisturbanceConfig::paper_ddr3();
        c2.distance2_coupling = 1.0;
        assert!(c2.validate().is_err());
    }
}
