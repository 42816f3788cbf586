//! Stage-2 sample analysis: DRAM row- and bank-locality (Section 3.3,
//! "Rowhammer Detection").
//!
//! "At the end of sampling, sampled DRAM row accesses are sorted and the
//! sample distribution is analyzed to identify high DRAM row locality.
//! DRAM row locality is determined by considering the number of samples,
//! the number of last-level cache misses for the sampling duration and the
//! required last-level cache miss rate for a successful rowhammer attack.
//! For each row that has high DRAM locality, a check is made to see if
//! there are other row access samples from the same DRAM bank."

use crate::config::AnvilConfig;
use crate::guard::{GuardedCell, GuardedValue, StateCorruption, StateSite};
use anvil_dram::{Cycle, RowId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Range;

/// Weight (in millis) of a sample carrying full activation evidence.
pub const FULL_WEIGHT: u32 = 1000;

/// One sampled DRAM access after translation: the row it touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowSample {
    /// The DRAM row.
    pub row: RowId,
    /// Physical address sampled (a representative address in that row).
    pub paddr: u64,
    /// Process that issued the sampled access (from the PEBS record's
    /// interrupted context) — the paper's `task_struct` sampling gives
    /// ANVIL this attribution for free.
    pub pid: u32,
    /// Activation-evidence weight in millis ([`FULL_WEIGHT`] = 1000 for
    /// a row-buffer-miss sample). Hardened detectors down-weight samples
    /// whose latency betrays a row-buffer hit — camouflage filler that
    /// never re-activates a row — so the rate extrapolation is driven by
    /// genuine activation evidence rather than raw sample counts.
    pub weight: u32,
}

/// A row the analysis flagged as a potential aggressor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggressorFinding {
    /// The suspicious row.
    pub row: RowId,
    /// Samples that hit it.
    pub samples: u32,
    /// Estimated activations of this row per refresh period, extrapolated
    /// from its sample share and the window's total LLC misses.
    pub estimated_rate: u64,
    /// Same-bank samples of *other* rows (the bank-locality evidence).
    pub bank_support: u32,
    /// Processes whose samples hit this row (sorted, deduplicated) — the
    /// suspects a response policy can act on.
    pub pids: Vec<u32>,
    /// Whether the suspicion ledger flagged this row from evidence
    /// accumulated across stage-2 windows (rather than this window's
    /// samples alone). Ledger findings bypass the per-window sample
    /// floor and bank-support gates — their corroboration is temporal.
    #[serde(default)]
    pub via_ledger: bool,
}

/// Result of one stage-2 analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocalityReport {
    /// Rows flagged as aggressors (empty: no rowhammering detected).
    pub aggressors: Vec<AggressorFinding>,
    /// Total usable (DRAM-sourced, translatable) samples.
    pub total_samples: u32,
    /// LLC misses counted during the sampling window.
    pub misses_in_window: u64,
}

impl LocalityReport {
    /// Whether the window looks like a rowhammer attack.
    pub fn detected(&self) -> bool {
        !self.aggressors.is_empty()
    }
}

/// Cross-window suspicion ledger: per-row activation evidence with
/// exponential decay.
///
/// The paper's analysis is memoryless — every stage-2 window starts from
/// zero, so an attacker who duty-cycles, camouflages, or distributes its
/// accesses keeps each *individual* window under the flagging criteria
/// while the *cumulative* activation count still reaches the flip
/// threshold. The ledger closes that gap: each window's weighted rate
/// estimate is added to a per-row score that decays by
/// `hardening.ledger_decay` per window, so persistent sub-threshold
/// evidence accumulates while benign one-off spikes shrink back to zero
/// and are pruned.
///
/// The ledger is part of the detector state a checkpoint must carry —
/// losing it across a restart would hand a distributed adversary a
/// fresh start — so it converts losslessly to and from the serializable
/// [`LedgerRow`] form ([`to_rows`](SuspicionLedger::to_rows) /
/// [`from_rows`](SuspicionLedger::from_rows)). `windows` is a `u64` with
/// saturating accumulation because a long-horizon service can absorb
/// evidence for millions of windows.
///
/// Entries live in slots that never move: `order` lists the live slots
/// in row order, so a window's absorption updates every entry where it
/// sits and rebuilds only the list of slot indices. A pruned entry's
/// slot, pid buffer included, is reused by the next new row.
#[derive(Debug, Clone)]
pub struct SuspicionLedger {
    /// Entry slots, in no particular order. Only the slots `order` names
    /// are live; the rest hold pruned entries awaiting reuse.
    slots: Vec<(RowId, LedgerEntry)>,
    /// The live slots in row order, each row at most once.
    order: Vec<usize>,
    /// Slots free for reuse.
    free: Vec<usize>,
    /// Always empty between calls: the allocation
    /// [`absorb`](Self::absorb) rebuilds `order` into.
    spare: Vec<usize>,
    /// Whether entry cells are read by checksummed majority (`true`, the
    /// default) or blind replica-0 trust (the `selfdefense` baseline).
    /// Runtime policy: never serialized, ignored by equality.
    guarded: bool,
    /// Corruptions found since the last
    /// [`take_corruptions`](Self::take_corruptions) drain. Transient:
    /// never serialized, ignored by equality.
    pending: Vec<StateCorruption>,
    /// Whether an entry cell may be sealed: set by
    /// [`corrupt_cell`](Self::corrupt_cell), cleared once a guarded
    /// scrub leaves every live cell pristine. While clear, every scrub
    /// would find nothing, so absorption and
    /// [`scrub_cells`](Self::scrub_cells) skip them. Runtime state, like
    /// `pending`.
    may_be_sealed: bool,
}

impl Default for SuspicionLedger {
    fn default() -> Self {
        SuspicionLedger {
            slots: Vec::new(),
            order: Vec::new(),
            free: Vec::new(),
            spare: Vec::new(),
            guarded: true,
            pending: Vec::new(),
            may_be_sealed: false,
        }
    }
}

/// Ledger equality is over the accumulated evidence only, in row order —
/// the slot layout, the guard mode and the transient corruption queue are
/// runtime state, and two ledgers that carry the same evidence must
/// compare equal across a checkpoint round-trip.
impl PartialEq for SuspicionLedger {
    fn eq(&self, other: &Self) -> bool {
        self.entries().eq(other.entries())
    }
}

/// One row's accumulated evidence. Score and window count live in
/// guarded cells: they are exactly the values a state-targeting attacker
/// wants to clear (a zeroed score un-convicts an aggressor).
#[derive(Debug, Clone, PartialEq)]
struct LedgerEntry {
    /// Decayed sum of per-window estimated activation rates.
    score: GuardedCell<f64>,
    /// Distinct stage-2 windows that contributed evidence.
    windows: GuardedCell<u64>,
    /// Processes whose samples contributed (sorted, deduplicated).
    pids: Vec<u32>,
}

impl LedgerEntry {
    /// The entry of a row with no evidence yet.
    fn new() -> Self {
        LedgerEntry {
            score: GuardedCell::new(0.0),
            windows: GuardedCell::new(0),
            pids: Vec::new(),
        }
    }

    /// Resets a pruned entry to [`new`](Self::new)'s state, keeping its
    /// pid buffer's allocation.
    fn reset(&mut self) {
        self.score.store(0.0);
        self.windows.store(0);
        self.pids.clear();
    }
}

/// Packs a row id into the stable `u64` key [`StateSite`] uses, so
/// corruption accounting survives ledger pruning and re-insertion.
fn site_key(row: RowId) -> u64 {
    (u64::from(row.bank.0) << 32) | u64::from(row.row)
}

/// Mode-aware non-mutating cell read.
fn read_cell<T: GuardedValue>(guarded: bool, cell: &GuardedCell<T>) -> T {
    if guarded {
        cell.peek()
    } else {
        cell.raw()
    }
}

/// One ledger entry in serializable form (detector checkpoints).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerRow {
    /// The row under suspicion.
    pub row: RowId,
    /// Decayed sum of per-window estimated activation rates.
    pub score: f64,
    /// Distinct stage-2 windows that contributed evidence.
    pub windows: u64,
    /// Processes whose samples contributed.
    pub pids: Vec<u32>,
}

/// Ledger scores below this are pruned (the row has decayed to noise).
const PRUNE_BELOW: f64 = 1.0;

impl SuspicionLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows currently under suspicion.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the ledger holds no entries.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The live entries in row order.
    fn entries(&self) -> impl Iterator<Item = &(RowId, LedgerEntry)> {
        self.order.iter().map(|&slot| &self.slots[slot])
    }

    /// The accumulated score for `row` (zero when absent).
    pub fn score(&self, row: RowId) -> f64 {
        self.order
            .binary_search_by_key(&row, |&slot| self.slots[slot].0)
            .map_or(0.0, |i| {
                read_cell(self.guarded, &self.slots[self.order[i]].1.score)
            })
    }

    /// Decays every entry, folds in one window's per-row evidence, and
    /// prunes entries that have decayed to noise, in one row-ordered walk
    /// that merges the entries with the row-sorted `fresh` groups.
    /// `convict` sees every fresh row that survives the prune, with its
    /// updated score, window count and pids.
    ///
    /// Guarded: every cell is scrubbed as absorption touches it, so a
    /// corrupted score is reported (and repaired or escalated) *before*
    /// the decayed value is recomputed from it — never silently absorbed
    /// by the rewrite. A scrubbed cell is resealed, so its value is read
    /// straight back from replica 0. Reports come out decay-only entries
    /// first, then fresh rows, each in row order. While no cell may be
    /// sealed the scrubs would find nothing, and are skipped.
    ///
    /// Each entry is updated in its slot; a new row takes a free slot and
    /// a pruned one frees its slot. Only the row-ordered slot list is
    /// rebuilt, into the spare buffer's allocation, so once the buffers
    /// have grown to the ledger's size a window moves no entry and
    /// allocates nothing.
    fn absorb(
        &mut self,
        decay: f64,
        fresh: &[RowGroup],
        pid_pool: &[u32],
        mut convict: impl FnMut(&RowGroup, f64, u64, &[u32]),
    ) {
        let mut fresh_reports = Vec::new();
        let scrub = self.guarded && self.may_be_sealed;
        let old = std::mem::replace(&mut self.order, std::mem::take(&mut self.spare));
        let mut old_slots = old.iter().copied().peekable();
        let mut groups = fresh.iter().peekable();
        loop {
            let old_row = old_slots.peek().map(|&slot| self.slots[slot].0);
            let (slot, group) = match (old_row, groups.peek()) {
                (None, None) => break,
                (Some(row), g) if g.is_none_or(|g| row <= g.row) => (
                    old_slots.next().expect("peeked"),
                    groups.next_if(|g| g.row == row),
                ),
                _ => {
                    let g = groups.next().expect("peeked");
                    (self.new_slot(g.row), Some(g))
                }
            };
            let (row, e) = &mut self.slots[slot];
            if scrub {
                let reports = if group.is_some() {
                    &mut fresh_reports
                } else {
                    &mut self.pending
                };
                if let Some(c) = e.score.scrub(StateSite::LedgerScore(site_key(*row))) {
                    reports.push(c);
                }
                if let Some(c) = e.windows.scrub(StateSite::LedgerWindows(site_key(*row))) {
                    reports.push(c);
                }
            }
            let rate = group.map_or(0.0, |g| g.rate);
            let score = crate::transition::ledger_step(decay, e.score.raw(), rate);
            e.score.store(score);
            if score < PRUNE_BELOW || score.is_nan() {
                self.free.push(slot);
                continue;
            }
            if let Some(g) = group {
                let windows = e.windows.raw().saturating_add(1);
                e.windows.store(windows);
                for &pid in &pid_pool[g.pids.clone()] {
                    if !e.pids.contains(&pid) {
                        e.pids.push(pid);
                    }
                }
                convict(g, score, windows, &e.pids);
            }
            self.order.push(slot);
        }
        self.spare = old;
        self.spare.clear();
        self.pending.append(&mut fresh_reports);
        // Every live cell was scrubbed or stored, and fresh slots are
        // reset: nothing is sealed any more.
        if scrub {
            self.may_be_sealed = false;
        }
    }

    /// A slot holding a fresh entry for `row`: a pruned entry's slot when
    /// one is free, else a new one.
    fn new_slot(&mut self, row: RowId) -> usize {
        if let Some(slot) = self.free.pop() {
            let (r, e) = &mut self.slots[slot];
            *r = row;
            e.reset();
            slot
        } else {
            self.slots.push((row, LedgerEntry::new()));
            self.slots.len() - 1
        }
    }

    /// Snapshots the ledger as serializable rows (checkpointing).
    pub fn to_rows(&self) -> Vec<LedgerRow> {
        let mut rows = Vec::new();
        self.rows_into(&mut rows);
        rows
    }

    /// [`to_rows`](Self::to_rows) into `rows`, overwriting its contents
    /// and reusing its allocations (the rows' pid buffers included), so a
    /// checkpoint written over the previous one allocates nothing once
    /// the buffers have grown to the ledger's size.
    pub(crate) fn rows_into(&self, rows: &mut Vec<LedgerRow>) {
        rows.truncate(self.len());
        let mut entries = self.entries();
        for (out, (row, e)) in rows.iter_mut().zip(&mut entries) {
            out.row = *row;
            out.score = read_cell(self.guarded, &e.score);
            out.windows = read_cell(self.guarded, &e.windows);
            out.pids.clone_from(&e.pids);
        }
        rows.extend(entries.map(|(row, e)| LedgerRow {
            row: *row,
            score: read_cell(self.guarded, &e.score),
            windows: read_cell(self.guarded, &e.windows),
            pids: e.pids.clone(),
        }));
    }

    /// Rebuilds a ledger from checkpointed rows (inverse of
    /// [`to_rows`](SuspicionLedger::to_rows)). A row listed twice keeps
    /// its last listing.
    pub fn from_rows(rows: &[LedgerRow]) -> Self {
        let by_row: BTreeMap<RowId, &LedgerRow> = rows.iter().map(|r| (r.row, r)).collect();
        SuspicionLedger {
            order: (0..by_row.len()).collect(),
            slots: by_row
                .into_iter()
                .map(|(row, r)| {
                    (
                        row,
                        LedgerEntry {
                            score: GuardedCell::new(r.score),
                            windows: GuardedCell::new(r.windows),
                            pids: r.pids.clone(),
                        },
                    )
                })
                .collect(),
            ..SuspicionLedger::default()
        }
    }

    /// Switches guarded (majority + scrub) vs unguarded (blind replica-0)
    /// cell reads. See [`AnvilDetector::set_state_guard`][d].
    ///
    /// [d]: crate::AnvilDetector::set_state_guard
    pub fn set_guarded(&mut self, guarded: bool) {
        self.guarded = guarded;
    }

    /// Number of guarded cells the ledger currently holds (two per
    /// entry: score and window count).
    pub fn cell_count(&self) -> usize {
        2 * self.order.len()
    }

    /// XORs one bit into the chosen replicas of ledger cell `index`
    /// (entry order × {score, windows}). Returns the [`StateSite`] hit,
    /// or `None` when the index is out of range.
    pub fn corrupt_cell(&mut self, index: usize, replica_mask: u8, bit: u8) -> Option<StateSite> {
        let (row, entry) = &mut self.slots[*self.order.get(index / 2)?];
        self.may_be_sealed = true;
        Some(if index.is_multiple_of(2) {
            entry.score.corrupt(replica_mask, bit);
            StateSite::LedgerScore(site_key(*row))
        } else {
            entry.windows.corrupt(replica_mask, bit);
            StateSite::LedgerWindows(site_key(*row))
        })
    }

    /// Marks every entry cell as possibly sealed (see
    /// [`AnvilDetector::mark_state_unverified`][d]).
    ///
    /// [d]: crate::AnvilDetector::mark_state_unverified
    pub(crate) fn mark_unverified(&mut self) {
        self.may_be_sealed = true;
    }

    /// Scrubs every ledger cell whose global index (`base` + local
    /// position) is congruent to `slice` modulo `of`, queueing findings
    /// for [`take_corruptions`](Self::take_corruptions). No-op when
    /// unguarded, or while no cell may be sealed.
    ///
    /// Walks only the congruent cells: the first one, then every `of`-th
    /// after it. Cell `j` is entry `j / 2`'s score when `j` is even and
    /// its window count when odd.
    pub fn scrub_cells(&mut self, slice: u64, of: u64, base: u64) {
        if !self.guarded || !self.may_be_sealed {
            return;
        }
        let of = of.max(1);
        // The first local index `j` with `(base + j) % of == slice % of`,
        // found without an add that could wrap for `of` near `u64::MAX`.
        let (s, b) = (slice % of, base % of);
        let first = if s >= b { s - b } else { of - (b - s) };
        let cells = self.cell_count() as u64;
        for j in (first..cells).step_by(usize::try_from(of).unwrap_or(usize::MAX)) {
            let (row, e) = &mut self.slots[self.order[(j / 2) as usize]];
            let found = if j % 2 == 0 {
                e.score.scrub(StateSite::LedgerScore(site_key(*row)))
            } else {
                e.windows.scrub(StateSite::LedgerWindows(site_key(*row)))
            };
            self.pending.extend(found);
        }
        let sealed = self
            .entries()
            .any(|(_, e)| !e.score.pristine() || !e.windows.pristine());
        self.may_be_sealed = sealed;
    }

    /// Drains the corruption reports found by scrubs and guarded
    /// absorption since the last drain.
    pub fn take_corruptions(&mut self) -> Vec<StateCorruption> {
        std::mem::take(&mut self.pending)
    }
}

/// One row's share of a sampling window, grouped from the row-sorted
/// samples.
#[derive(Debug, Clone)]
struct RowGroup {
    row: RowId,
    /// Raw samples that hit the row.
    samples: u32,
    /// Summed activation-evidence weight of those samples.
    weight: u64,
    /// The row's distinct pids in first-seen order, as a range of the
    /// scratch pid pool.
    pids: Range<usize>,
    /// Same-bank samples of other rows.
    bank_support: u32,
    /// Extrapolated activation rate per refresh period.
    rate: f64,
    /// Whether this window's samples alone flag the row.
    flagged: bool,
}

/// Reusable stage-2 analysis buffers. The detector owns one, so a
/// window's analysis reuses the previous window's allocations.
#[derive(Debug, Default)]
pub(crate) struct LocalityScratch {
    samples: Vec<RowSample>,
    /// The samples' indices in row order (see [`row_order`]).
    order: Vec<u128>,
    groups: Vec<RowGroup>,
    pids: Vec<u32>,
}

impl LocalityScratch {
    /// The sample buffer, cleared, for the caller to fill with the next
    /// window's samples before [`analyze_window`].
    pub(crate) fn clear_samples(&mut self) -> &mut Vec<RowSample> {
        self.samples.clear();
        &mut self.samples
    }

    /// The current window's samples.
    pub(crate) fn samples(&self) -> &[RowSample] {
        &self.samples
    }
}

/// Analyzes one sampling window.
///
/// `samples` are the translated DRAM-sourced samples, `misses` the LLC
/// miss count over the window, `ts` the window length and
/// `refresh_period` the DRAM retention window (both in cycles).
pub fn analyze(
    config: &AnvilConfig,
    samples: &[RowSample],
    misses: u64,
    ts: Cycle,
    refresh_period: Cycle,
) -> LocalityReport {
    analyze_with_ledger(config, samples, misses, ts, refresh_period, None)
}

/// [`analyze`], additionally folding this window's evidence into a
/// cross-window [`SuspicionLedger`] and flagging rows whose accumulated
/// score crosses the ledger threshold
/// (`min_hammer_accesses × rate_safety × hardening.ledger_factor`).
///
/// Rate estimates weigh samples by their activation evidence
/// ([`RowSample::weight`]): a window full of row-buffer-hit camouflage
/// filler contributes almost nothing to the filler rows' estimates while
/// the aggressors' row-miss samples keep their full share.
pub fn analyze_with_ledger(
    config: &AnvilConfig,
    samples: &[RowSample],
    misses: u64,
    ts: Cycle,
    refresh_period: Cycle,
    ledger: Option<&mut SuspicionLedger>,
) -> LocalityReport {
    let mut scratch = LocalityScratch::default();
    scratch.clear_samples().extend_from_slice(samples);
    analyze_window(config, &mut scratch, misses, ts, refresh_period, ledger)
}

/// Lists the indices of `samples` in `order` by row, ties in sampling
/// order: the order a stable sort by row would leave the samples in.
///
/// An entry is the sample's bank and row above its index, so one
/// unstable sort of plain integers does the work.
fn row_order(samples: &[RowSample], order: &mut Vec<u128>) {
    order.clear();
    order.extend(
        samples
            .iter()
            .zip(0u128..)
            .map(|(s, i)| (u128::from(s.row.bank.0) << 96) | (u128::from(s.row.row) << 64) | i),
    );
    order.sort_unstable();
}

/// [`analyze_with_ledger`] over the samples in `scratch`.
pub(crate) fn analyze_window(
    config: &AnvilConfig,
    scratch: &mut LocalityScratch,
    misses: u64,
    ts: Cycle,
    refresh_period: Cycle,
    ledger: Option<&mut SuspicionLedger>,
) -> LocalityReport {
    let LocalityScratch {
        samples,
        order,
        groups,
        pids,
    } = scratch;
    let total = samples.len() as u32;
    let mut report = LocalityReport {
        aggressors: Vec::new(),
        total_samples: total,
        misses_in_window: misses,
    };
    if total == 0 || misses == 0 {
        return report;
    }

    // Group samples per row (raw count, evidence weight, issuing pids),
    // visiting them in row order. Ties keep their sampling order, so each
    // row's pids keep their first-seen order, which the ledger stores and
    // checkpoints carry.
    row_order(samples, order);
    groups.clear();
    pids.clear();
    let mut total_weight: u64 = 0;
    for &entry in order.iter() {
        let s = &samples[entry as u64 as usize];
        total_weight += u64::from(s.weight);
        match groups.last_mut() {
            Some(g) if g.row == s.row => {
                g.samples += 1;
                g.weight += u64::from(s.weight);
                if !pids[g.pids.clone()].contains(&s.pid) {
                    pids.push(s.pid);
                    g.pids.end += 1;
                }
            }
            _ => {
                groups.push(RowGroup {
                    row: s.row,
                    samples: 1,
                    weight: u64::from(s.weight),
                    pids: pids.len()..pids.len() + 1,
                    bank_support: 0,
                    rate: 0.0,
                    flagged: false,
                });
                pids.push(s.pid);
            }
        }
    }
    if total_weight == 0 {
        return report;
    }

    // A row is suspicious when its extrapolated activation rate could
    // reach the flip threshold within one refresh period (with the safety
    // margin), it carries at least the sample floor, and other same-bank
    // rows corroborate (bank locality). The share is weight-based, which
    // reduces to the paper's count-based share when every sample carries
    // FULL_WEIGHT. Row order sorts by bank first, so each bank's rows are
    // one contiguous run of groups.
    let required = crate::transition::required_rate(config);
    let mut aggressors: Vec<AggressorFinding> = Vec::new();
    for bank_rows in groups.chunk_by_mut(|a, b| a.row.bank == b.row.bank) {
        let bank_samples: u32 = bank_rows.iter().map(|g| g.samples).sum();
        for g in bank_rows {
            g.rate = crate::transition::extrapolated_rate(
                g.weight,
                total_weight,
                misses,
                ts,
                refresh_period,
            );
            let estimated_rate = g.rate as u64;
            g.bank_support = bank_samples - g.samples;
            g.flagged = g.samples >= config.row_sample_floor
                && estimated_rate as f64 >= required
                && g.bank_support >= config.bank_support_min;
            if g.flagged {
                let mut pids = pids[g.pids.clone()].to_vec();
                pids.sort_unstable();
                aggressors.push(AggressorFinding {
                    row: g.row,
                    samples: g.samples,
                    estimated_rate,
                    bank_support: g.bank_support,
                    pids,
                    via_ledger: false,
                });
            }
        }
    }

    if let Some(ledger) = ledger {
        let h = &config.hardening;
        let threshold = required * h.ledger_factor;
        let min_windows = u64::from(h.ledger_min_windows);
        // The ledger only convicts rows with fresh evidence this window —
        // a decaying score alone never fires.
        ledger.absorb(
            h.ledger_decay,
            groups,
            pids,
            |g, score, windows, entry_pids| {
                if score < threshold || windows < min_windows || g.flagged {
                    return;
                }
                let mut pids = entry_pids.to_vec();
                pids.sort_unstable();
                aggressors.push(AggressorFinding {
                    row: g.row,
                    samples: g.samples,
                    estimated_rate: score as u64,
                    bank_support: g.bank_support,
                    pids,
                    via_ledger: true,
                });
            },
        );
    }

    aggressors.sort_by(|a, b| b.samples.cmp(&a.samples).then(a.row.cmp(&b.row)));
    report.aggressors = aggressors;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use anvil_dram::BankId;

    const TS: Cycle = 15_600_000; // 6 ms at 2.6 GHz
    const PERIOD: Cycle = 166_400_000; // 64 ms

    fn sample(bank: u32, row: u32) -> RowSample {
        RowSample {
            row: RowId::new(BankId(bank), row),
            paddr: (bank as u64) << 32 | (row as u64) << 13,
            pid: 42,
            weight: FULL_WEIGHT,
        }
    }

    /// The double-sided attack's sampling signature: two same-bank rows
    /// dominating the samples.
    fn attack_samples() -> Vec<RowSample> {
        let mut v = Vec::new();
        for _ in 0..12 {
            v.push(sample(3, 100));
            v.push(sample(3, 102));
        }
        // A few background samples elsewhere.
        for i in 0..6 {
            v.push(sample(i % 8, 5000 + i * 17));
        }
        v
    }

    #[test]
    fn detects_double_sided_signature() {
        let config = AnvilConfig::baseline();
        let report = analyze(&config, &attack_samples(), 80_000, TS, PERIOD);
        assert!(report.detected());
        let rows: Vec<u32> = report.aggressors.iter().map(|a| a.row.row).collect();
        assert!(rows.contains(&100));
        assert!(rows.contains(&102));
        for a in &report.aggressors {
            assert!(a.estimated_rate > config.min_hammer_accesses / 3);
            assert!(a.bank_support >= config.bank_support_min);
        }
    }

    #[test]
    fn no_detection_on_uniform_traffic() {
        // Streaming-like: every sample a different row/bank.
        let config = AnvilConfig::baseline();
        let samples: Vec<RowSample> = (0..30).map(|i| sample(i % 16, 1000 + i * 31)).collect();
        let report = analyze(&config, &samples, 80_000, TS, PERIOD);
        assert!(!report.detected());
    }

    #[test]
    fn bank_locality_filters_lone_hot_row() {
        // One hot row but its bank gets no other samples (e.g. a hot line
        // served by an open row buffer — harmless because it never
        // re-activates). The bank check must filter it.
        let config = AnvilConfig::baseline();
        let mut samples = Vec::new();
        for _ in 0..15 {
            samples.push(sample(3, 100));
        }
        for i in 0..15 {
            samples.push(sample(4 + i % 4, 2000 + i * 13)); // other banks only
        }
        let report = analyze(&config, &samples, 80_000, TS, PERIOD);
        assert!(!report.detected(), "bank check must filter: {report:?}");
    }

    #[test]
    fn same_hot_row_with_bank_support_is_flagged() {
        let config = AnvilConfig::baseline();
        let mut samples = Vec::new();
        for _ in 0..15 {
            samples.push(sample(3, 100));
        }
        for i in 0..15 {
            samples.push(sample(3, 2000 + i * 13)); // same bank, other rows
        }
        let report = analyze(&config, &samples, 80_000, TS, PERIOD);
        assert!(report.detected());
        assert_eq!(report.aggressors[0].row.row, 100);
    }

    #[test]
    fn low_miss_count_suppresses_detection() {
        // Same shape as an attack, but so few misses that the
        // extrapolated rate cannot flip bits within a refresh period.
        let config = AnvilConfig::baseline();
        let report = analyze(&config, &attack_samples(), 2_000, TS, PERIOD);
        assert!(!report.detected());
    }

    #[test]
    fn empty_window_is_clean() {
        let config = AnvilConfig::baseline();
        let report = analyze(&config, &[], 50_000, TS, PERIOD);
        assert!(!report.detected());
        assert_eq!(report.total_samples, 0);
    }

    #[test]
    fn aggressors_sorted_by_sample_count() {
        let config = AnvilConfig::baseline();
        let report = analyze(&config, &attack_samples(), 80_000, TS, PERIOD);
        for w in report.aggressors.windows(2) {
            assert!(w[0].samples >= w[1].samples);
        }
    }

    #[test]
    fn sample_floor_suppresses_singletons() {
        let mut config = AnvilConfig::baseline();
        config.row_sample_floor = 3;
        // Two samples on one row with huge miss counts: rate estimate is
        // enormous but the floor suppresses it.
        let samples = vec![sample(1, 10), sample(1, 10), sample(1, 99)];
        let report = analyze(&config, &samples, 1_000_000, TS, PERIOD);
        assert!(!report.detected());
    }

    /// A down-weighted sample (millis weight) with hit-latency evidence.
    fn hit_sample(bank: u32, row: u32, weight: u32) -> RowSample {
        RowSample {
            weight,
            ..sample(bank, row)
        }
    }

    #[test]
    fn hit_weighting_deflates_camouflage_rows_and_inflates_aggressors() {
        // Camouflage mix: 2 aggressor-row samples (full weight) drowned
        // in 26 streaming row-buffer-hit samples (weight 200). By raw
        // counts the aggressors hold 7% of the window; by evidence they
        // hold ~42% each.
        let config = AnvilConfig::hardened();
        let mut samples = Vec::new();
        samples.push(sample(3, 100));
        samples.push(sample(3, 102));
        for i in 0..26 {
            samples.push(hit_sample(3, 2000 + i * 7, 200));
        }
        let report = analyze(&config, &samples, 130_000, TS, PERIOD);
        // The floor (3 raw samples) still gates the instantaneous path,
        // but the weighted rate estimates feed the ledger at full
        // strength: check them via a ledger pass.
        let mut ledger = SuspicionLedger::new();
        let _ = analyze_with_ledger(&config, &samples, 130_000, TS, PERIOD, Some(&mut ledger));
        let aggressor_score = ledger.score(RowId::new(BankId(3), 100));
        let filler_score = ledger.score(RowId::new(BankId(3), 2000));
        // Full weight (1000) vs hit weight (200): the aggressor's score
        // per sample is 5× the filler's.
        assert!(
            aggressor_score > 4.0 * filler_score.max(1.0),
            "aggressor {aggressor_score} vs filler {filler_score}"
        );
        drop(report);
    }

    #[test]
    fn ledger_flags_persistent_subfloor_row() {
        // One aggressor pair at 2 samples per window — under the floor of
        // 3, invisible to the memoryless analysis — plus scattered
        // background. After a few windows the ledger must convict.
        let config = AnvilConfig::hardened();
        let mut ledger = SuspicionLedger::new();
        let mut window = vec![
            sample(3, 100),
            sample(3, 100),
            sample(3, 102),
            sample(3, 102),
        ];
        for i in 0..26 {
            window.push(hit_sample(2 + i % 5, 4000 + i * 11, 200));
        }
        let mut convicted_at = None;
        for w in 0..6 {
            let report =
                analyze_with_ledger(&config, &window, 130_000, TS, PERIOD, Some(&mut ledger));
            let ledger_rows: Vec<u32> = report
                .aggressors
                .iter()
                .filter(|a| a.via_ledger)
                .map(|a| a.row.row)
                .collect();
            if ledger_rows.contains(&100) && convicted_at.is_none() {
                convicted_at = Some(w);
            }
        }
        let w = convicted_at.expect("the ledger must flag the persistent pair");
        assert!(w >= 1, "min_windows forbids a first-window conviction");
        assert!(w <= 3, "conviction too slow: window {w}");
    }

    #[test]
    fn ledger_entries_decay_and_prune_for_benign_rows() {
        let config = AnvilConfig::hardened();
        let mut ledger = SuspicionLedger::new();
        // One window with a benign hot-ish row (2 samples), then windows
        // of unrelated traffic: the entry must decay to zero (pruned).
        let first = vec![sample(1, 50), sample(1, 50), sample(2, 9), sample(5, 77)];
        let _ = analyze_with_ledger(&config, &first, 80_000, TS, PERIOD, Some(&mut ledger));
        let row = RowId::new(BankId(1), 50);
        let initial = ledger.score(row);
        assert!(initial > 0.0);
        for i in 0..40 {
            let other = vec![sample(6, 300 + i), sample(7, 400 + i)];
            let report =
                analyze_with_ledger(&config, &other, 80_000, TS, PERIOD, Some(&mut ledger));
            assert!(
                !report.aggressors.iter().any(|a| a.row == row),
                "a decaying row must never be convicted without fresh evidence"
            );
        }
        assert!(
            ledger.score(row).abs() < f64::EPSILON,
            "entry must be pruned"
        );
        assert!(ledger.len() <= 80);
    }

    #[test]
    fn ledger_window_count_saturates_instead_of_wrapping() {
        // A long-horizon service absorbs evidence for millions of windows;
        // the per-row window count must saturate rather than wrap.
        let row = RowId::new(BankId(3), 100);
        let mut ledger = SuspicionLedger::from_rows(&[LedgerRow {
            row,
            score: 1e9,
            windows: u64::MAX,
            pids: vec![42],
        }]);
        let config = AnvilConfig::hardened();
        let _ = analyze_with_ledger(
            &config,
            &attack_samples(),
            130_000,
            TS,
            PERIOD,
            Some(&mut ledger),
        );
        let rows = ledger.to_rows();
        let entry = rows.iter().find(|r| r.row == row).expect("kept");
        assert_eq!(entry.windows, u64::MAX, "must saturate, not wrap");
    }

    #[test]
    fn ledger_round_trips_through_serializable_rows() {
        let config = AnvilConfig::hardened();
        let mut ledger = SuspicionLedger::new();
        let _ = analyze_with_ledger(
            &config,
            &attack_samples(),
            130_000,
            TS,
            PERIOD,
            Some(&mut ledger),
        );
        assert!(!ledger.is_empty());
        let rows = ledger.to_rows();
        let restored = SuspicionLedger::from_rows(&rows);
        assert_eq!(restored, ledger);
    }

    #[test]
    fn unweighted_analysis_matches_the_paper_baseline() {
        // With every sample at FULL_WEIGHT the weighted share reduces to
        // the count share: the attack signature report is unchanged.
        let config = AnvilConfig::baseline();
        let report = analyze(&config, &attack_samples(), 80_000, TS, PERIOD);
        assert!(report.detected());
        assert!(report.aggressors.iter().all(|a| !a.via_ledger));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use anvil_dram::BankId;
    use proptest::prelude::*;

    const TS: Cycle = 15_600_000;
    const PERIOD: Cycle = 166_400_000;

    proptest! {
        /// The analysis never flags more rows than distinct rows sampled,
        /// never divides by zero, and every finding satisfies the
        /// configured floors.
        #[test]
        fn findings_respect_floors(
            samples in prop::collection::vec((0u32..8, 0u32..64), 0..60),
            misses in 0u64..200_000,
        ) {
            let config = AnvilConfig::baseline();
            let rows: Vec<RowSample> = samples
                .iter()
                .map(|&(b, r)| RowSample {
                    row: anvil_dram::RowId::new(BankId(b), r),
                    paddr: ((b as u64) << 32) | ((r as u64) << 13),
                    pid: 9,
                    weight: FULL_WEIGHT,
                })
                .collect();
            let report = analyze(&config, &rows, misses, TS, PERIOD);
            let distinct: std::collections::HashSet<_> =
                rows.iter().map(|s| s.row).collect();
            prop_assert!(report.aggressors.len() <= distinct.len());
            for a in &report.aggressors {
                prop_assert!(a.samples >= config.row_sample_floor);
                prop_assert!(a.bank_support >= config.bank_support_min);
                prop_assert!(
                    a.estimated_rate as f64
                        >= config.min_hammer_accesses as f64 * config.rate_safety
                );
            }
        }

        /// Adding unrelated samples (other banks) never *creates* a
        /// detection for a previously clean row set — monotonicity of the
        /// per-row criteria in the presence of diluting noise.
        #[test]
        fn dilution_does_not_create_row_findings(extra in 1u32..30) {
            let config = AnvilConfig::baseline();
            // A clean base: uniform rows, nothing suspicious.
            let base: Vec<RowSample> =
                (0..20).map(|i| sample_for(i % 4, 100 + i * 7)).collect();
            let misses = 60_000;
            let before = analyze(&config, &base, misses, TS, PERIOD);
            prop_assert!(!before.detected());
            let mut extended = base.clone();
            for i in 0..extra {
                extended.push(sample_for(4 + i % 4, 9_000 + i * 13));
            }
            let after = analyze(&config, &extended, misses, TS, PERIOD);
            // The base rows must still be clean (new rows may of course
            // appear if the extras themselves concentrate).
            for a in &after.aggressors {
                prop_assert!(
                    a.row.row >= 9_000,
                    "dilution created a finding on a clean row: {:?}",
                    a
                );
            }
        }
    }

    fn sample_for(bank: u32, row: u32) -> RowSample {
        RowSample {
            row: anvil_dram::RowId::new(BankId(bank), row),
            paddr: ((bank as u64) << 32) | ((row as u64) << 13),
            pid: 7,
            weight: FULL_WEIGHT,
        }
    }
}

#[cfg(test)]
mod oracle {
    //! The sort-and-group analysis and the one-walk ledger checked against
    //! the original map-based implementation, kept here only as a
    //! reference.
    use super::*;
    use anvil_dram::BankId;
    use proptest::prelude::*;
    use std::collections::HashMap;

    const TS: Cycle = 15_600_000;
    const PERIOD: Cycle = 166_400_000;

    struct RefLedger {
        entries: BTreeMap<RowId, LedgerEntry>,
        guarded: bool,
        pending: Vec<StateCorruption>,
    }

    impl RefLedger {
        fn absorb(&mut self, decay: f64, evidence: &BTreeMap<RowId, (f64, Vec<u32>)>) {
            let guarded = self.guarded;
            let pending = &mut self.pending;
            let mut touch = |row: RowId, e: &mut LedgerEntry, rate: f64, bump: bool| {
                if guarded {
                    if let Some(c) = e.score.scrub(StateSite::LedgerScore(site_key(row))) {
                        pending.push(c);
                    }
                    if let Some(c) = e.windows.scrub(StateSite::LedgerWindows(site_key(row))) {
                        pending.push(c);
                    }
                }
                let score = read_cell(guarded, &e.score);
                e.score
                    .store(crate::transition::ledger_step(decay, score, rate));
                if bump {
                    let windows = read_cell(guarded, &e.windows);
                    e.windows.store(windows.saturating_add(1));
                }
            };
            for (&row, e) in &mut self.entries {
                if !evidence.contains_key(&row) {
                    touch(row, e, 0.0, false);
                }
            }
            for (&row, (rate, pids)) in evidence {
                let e = self.entries.entry(row).or_insert_with(|| LedgerEntry {
                    score: GuardedCell::new(0.0),
                    windows: GuardedCell::new(0),
                    pids: Vec::new(),
                });
                touch(row, e, *rate, true);
                for &pid in pids {
                    if !e.pids.contains(&pid) {
                        e.pids.push(pid);
                    }
                }
            }
            let guarded = self.guarded;
            self.entries
                .retain(|_, e| read_cell(guarded, &e.score) >= PRUNE_BELOW);
        }

        fn to_rows(&self) -> Vec<LedgerRow> {
            self.entries
                .iter()
                .map(|(&row, e)| LedgerRow {
                    row,
                    score: read_cell(self.guarded, &e.score),
                    windows: read_cell(self.guarded, &e.windows),
                    pids: e.pids.clone(),
                })
                .collect()
        }

        /// The per-cell modulo walk over every entry, scrubbing each
        /// congruent cell.
        fn scrub_cells(&mut self, slice: u64, of: u64, base: u64) {
            if !self.guarded {
                return;
            }
            let of = of.max(1);
            for (i, (&row, e)) in self.entries.iter_mut().enumerate() {
                let score_index = base + 2 * i as u64;
                if score_index % of == slice % of {
                    if let Some(c) = e.score.scrub(StateSite::LedgerScore(site_key(row))) {
                        self.pending.push(c);
                    }
                }
                if (score_index + 1) % of == slice % of {
                    if let Some(c) = e.windows.scrub(StateSite::LedgerWindows(site_key(row))) {
                        self.pending.push(c);
                    }
                }
            }
        }

        fn corrupt_cell(&mut self, index: usize, replica_mask: u8, bit: u8) -> Option<StateSite> {
            let (&row, entry) = self.entries.iter_mut().nth(index / 2)?;
            Some(if index.is_multiple_of(2) {
                entry.score.corrupt(replica_mask, bit);
                StateSite::LedgerScore(site_key(row))
            } else {
                entry.windows.corrupt(replica_mask, bit);
                StateSite::LedgerWindows(site_key(row))
            })
        }
    }

    fn ref_analyze(
        config: &AnvilConfig,
        samples: &[RowSample],
        misses: u64,
        ts: Cycle,
        refresh_period: Cycle,
        ledger: Option<&mut RefLedger>,
    ) -> LocalityReport {
        let total = samples.len() as u32;
        let mut report = LocalityReport {
            aggressors: Vec::new(),
            total_samples: total,
            misses_in_window: misses,
        };
        if total == 0 || misses == 0 {
            return report;
        }
        let mut per_row: BTreeMap<RowId, (u32, u64, Vec<u32>)> = BTreeMap::new();
        let mut per_bank: HashMap<u32, u32> = HashMap::new();
        let mut total_weight: u64 = 0;
        for s in samples {
            let e = per_row.entry(s.row).or_insert((0, 0, Vec::new()));
            e.0 += 1;
            e.1 += u64::from(s.weight);
            if !e.2.contains(&s.pid) {
                e.2.push(s.pid);
            }
            *per_bank.entry(s.row.bank.0).or_insert(0) += 1;
            total_weight += u64::from(s.weight);
        }
        if total_weight == 0 {
            return report;
        }
        let required = crate::transition::required_rate(config);
        let mut aggressors: Vec<AggressorFinding> = Vec::new();
        let mut evidence: BTreeMap<RowId, (f64, Vec<u32>)> = BTreeMap::new();
        for (&row, (n, w, pids)) in &per_row {
            let rate =
                crate::transition::extrapolated_rate(*w, total_weight, misses, ts, refresh_period);
            let estimated_rate = rate as u64;
            let bank_support = per_bank[&row.bank.0] - n;
            if ledger.is_some() {
                evidence.insert(row, (rate, pids.clone()));
            }
            let suspicious = *n >= config.row_sample_floor
                && estimated_rate as f64 >= required
                && bank_support >= config.bank_support_min;
            if suspicious {
                let mut pids = pids.clone();
                pids.sort_unstable();
                aggressors.push(AggressorFinding {
                    row,
                    samples: *n,
                    estimated_rate,
                    bank_support,
                    pids,
                    via_ledger: false,
                });
            }
        }
        if let Some(ledger) = ledger {
            let h = &config.hardening;
            ledger.absorb(h.ledger_decay, &evidence);
            let threshold = required * h.ledger_factor;
            for (&row, entry) in &ledger.entries {
                let score = read_cell(ledger.guarded, &entry.score);
                let windows = read_cell(ledger.guarded, &entry.windows);
                if score < threshold
                    || windows < u64::from(h.ledger_min_windows)
                    || aggressors.iter().any(|a| a.row == row)
                {
                    continue;
                }
                let Some((n, _, _)) = per_row.get(&row) else {
                    continue;
                };
                let mut pids = entry.pids.clone();
                pids.sort_unstable();
                aggressors.push(AggressorFinding {
                    row,
                    samples: *n,
                    estimated_rate: score as u64,
                    bank_support: per_bank[&row.bank.0] - n,
                    pids,
                    via_ledger: true,
                });
            }
        }
        aggressors.sort_by(|a, b| b.samples.cmp(&a.samples).then(a.row.cmp(&b.row)));
        report.aggressors = aggressors;
        report
    }

    /// Ledger rows with scores as bits, so NaN scores (reachable through
    /// unguarded corruption) compare by value.
    fn row_bits(rows: &[LedgerRow]) -> Vec<(RowId, u64, u64, Vec<u32>)> {
        rows.iter()
            .map(|r| (r.row, r.score.to_bits(), r.windows, r.pids.clone()))
            .collect()
    }

    /// Bank ids near `u32::MAX` and windows of more than 2^16 samples
    /// group and order like the reference.
    #[test]
    fn extreme_banks_and_sample_counts_analyze_the_same() {
        let config = AnvilConfig::hardened();
        let raw = |n: u32, bank: u32| -> Vec<Sample> {
            (0..n)
                .map(|i| (bank + i % 3, 7 + (i * 5) % 4, i % 5, (i % 5) as u8))
                .collect()
        };
        for samples in [
            raw(60, 0xfffe),
            raw(60, u32::MAX - 3),
            raw((1 << 16) + 7, 2),
        ] {
            let samples = to_samples(&samples);
            let got = analyze(&config, &samples, 400_000, TS, PERIOD);
            assert_eq!(
                got,
                ref_analyze(&config, &samples, 400_000, TS, PERIOD, None)
            );
            assert!(got.detected(), "a report with findings to order");
        }
    }

    type Sample = (u32, u32, u32, u8);
    type Window = (Vec<Sample>, u64, Vec<(usize, u8, u8)>, Vec<(u64, u64, u64)>);

    fn to_samples(raw: &[Sample]) -> Vec<RowSample> {
        raw.iter()
            .map(|&(bank, row, pid, weight)| RowSample {
                row: RowId::new(BankId(bank), row),
                paddr: (u64::from(bank) << 32) | (u64::from(row) << 13),
                pid,
                weight: match weight {
                    0 => 0,
                    1 => 200,
                    2 => 999,
                    _ => FULL_WEIGHT,
                },
            })
            .collect()
    }

    #[test]
    fn non_finite_scores_prune_like_the_reference() {
        // Unguarded corruption can leave a NaN or infinite score; NaN
        // fails the prune comparison and must be dropped.
        let rows: Vec<LedgerRow> = [f64::NAN, f64::INFINITY, 5.0, 1e6]
            .iter()
            .enumerate()
            .map(|(i, &score)| LedgerRow {
                row: RowId::new(BankId(1), i as u32),
                score,
                windows: 3,
                pids: vec![1],
            })
            .collect();
        let mut ledger = SuspicionLedger::from_rows(&rows);
        let mut reference = RefLedger {
            entries: BTreeMap::new(),
            guarded: true,
            pending: Vec::new(),
        };
        for r in &rows {
            reference.entries.insert(
                r.row,
                LedgerEntry {
                    score: GuardedCell::new(r.score),
                    windows: GuardedCell::new(r.windows),
                    pids: r.pids.clone(),
                },
            );
        }
        let config = AnvilConfig::hardened();
        for samples in [
            vec![],
            to_samples(&[(1, 0, 2, 3), (1, 3, 2, 3), (2, 9, 1, 3)]),
        ] {
            let got = analyze_with_ledger(&config, &samples, 90_000, TS, PERIOD, Some(&mut ledger));
            let want = ref_analyze(&config, &samples, 90_000, TS, PERIOD, Some(&mut reference));
            assert_eq!(got, want);
            assert_eq!(row_bits(&ledger.to_rows()), row_bits(&reference.to_rows()));
        }
        assert!(ledger.to_rows().iter().all(|r| !r.score.is_nan()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Over several windows of random samples (rows, banks, pids,
        /// weights, empty and zero-weight windows, zero-miss windows) with
        /// ledger cells corrupted and slice-scrubbed between windows, the
        /// reports, the ledger rows (pid order included) and the
        /// corruption sequence all match the reference, guarded and
        /// unguarded. The reference scrubs every cell absorption touches
        /// and walks every entry in a slice scrub; the ledger skips both
        /// while nothing may be sealed and strides over congruent cells,
        /// for moduli from 0 up and at or just below `u64::MAX`.
        #[test]
        fn analysis_and_ledger_match_the_map_based_reference(
            windows in prop::collection::vec(
                (
                    prop::collection::vec((0u32..4, 0u32..10, 0u32..5, 0u8..5), 0..40),
                    0u64..400_000,
                    prop::collection::vec((0usize..64, 0u8..8, 0u8..128), 0..3),
                    prop::collection::vec((0u64..9, 0u64..18, 0u64..7), 0..3),
                ),
                1..10,
            ),
            guarded in any::<bool>(),
        ) {
            let config = AnvilConfig::hardened();
            let mut ledger = SuspicionLedger::new();
            ledger.set_guarded(guarded);
            let mut reference = RefLedger {
                entries: BTreeMap::new(),
                guarded,
                pending: Vec::new(),
            };
            let windows: &[Window] = &windows;
            for (raw, misses, hits, scrubs) in windows {
                // One window in twenty carries no misses.
                let misses = if *misses < 20_000 { 0 } else { *misses };
                let samples = to_samples(raw);
                let got = analyze_with_ledger(&config, &samples, misses, TS, PERIOD, Some(&mut ledger));
                let want = ref_analyze(&config, &samples, misses, TS, PERIOD, Some(&mut reference));
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(
                    analyze(&config, &samples, misses, TS, PERIOD),
                    ref_analyze(&config, &samples, misses, TS, PERIOD, None)
                );
                prop_assert_eq!(row_bits(&ledger.to_rows()), row_bits(&reference.to_rows()));
                prop_assert_eq!(ledger.take_corruptions(), std::mem::take(&mut reference.pending));
                for &(cell, mask, bit) in hits {
                    let cells = ledger.cell_count();
                    if cells > 0 {
                        prop_assert_eq!(
                            ledger.corrupt_cell(cell % cells, mask, bit),
                            reference.corrupt_cell(cell % cells, mask, bit)
                        );
                    }
                }
                for &(slice, of, base) in scrubs {
                    // Half the moduli sit at or just below `u64::MAX`.
                    let of = if of < 9 { of } else { u64::MAX - (of - 9) };
                    ledger.scrub_cells(slice, of, base);
                    reference.scrub_cells(slice, of, base);
                    prop_assert_eq!(ledger.take_corruptions(), std::mem::take(&mut reference.pending));
                }
            }
        }
    }
}
