//! The top-level DRAM module: address decode, row buffers, refresh,
//! disturbance, and hardware mitigations behind one `access` call.

use crate::bank::{RowBufferOutcome, RowBufferPolicy, RowBuffers};
use crate::disturb::{BitFlip, DisturbanceConfig, DisturbanceTracker};
use crate::geometry::{BankId, DramGeometry, DramLocation, RowId};
use crate::mapping::AddressMapping;
use crate::mitigation::{MitigationKind, MitigationState};
use crate::refresh::RefreshSchedule;
use crate::stats::DramStats;
use crate::time::{Cadence, Cycle};
use anvil_faults::RefreshPostpone;
use serde::{Deserialize, Serialize};

/// Full configuration of a [`DramModule`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Physical organization.
    pub geometry: DramGeometry,
    /// Timing parameters (in CPU cycles).
    pub timing: crate::timing::DramTiming,
    /// Disturbance (bit-flip) physics.
    pub disturbance: DisturbanceConfig,
    /// In-hardware mitigation, if any.
    pub mitigation: MitigationKind,
    /// Row-buffer management policy.
    pub row_buffer: RowBufferPolicy,
    /// Seed for the mitigation's randomness (PARA).
    pub seed: u64,
}

impl DramConfig {
    /// The paper's platform: 4 GB DDR3 at a 64 ms refresh period, no
    /// hardware mitigation.
    pub fn paper_ddr3() -> Self {
        DramConfig {
            geometry: DramGeometry::ddr3_4gb(),
            timing: crate::timing::DramTiming::default(),
            disturbance: DisturbanceConfig::paper_ddr3(),
            mitigation: MitigationKind::None,
            row_buffer: RowBufferPolicy::OpenPage,
            seed: 0xd1a4,
        }
    }

    /// A small, fast module for tests.
    pub fn tiny() -> Self {
        let mut c = Self::paper_ddr3();
        c.geometry = DramGeometry::tiny_16mb();
        c
    }

    /// Returns the config with the vendors' doubled refresh rate applied.
    #[must_use]
    pub fn with_doubled_refresh(mut self) -> Self {
        self.timing = self.timing.with_doubled_refresh();
        self
    }

    /// Returns the config with an arbitrary refresh period in ms.
    #[must_use]
    pub fn with_refresh_ms(mut self, clock: crate::time::CpuClock, ms: f64) -> Self {
        self.timing = crate::timing::DramTiming::ddr3_with_refresh_ms(clock, ms);
        self
    }

    /// Returns the config with the given hardware mitigation.
    #[must_use]
    pub fn with_mitigation(mut self, mitigation: MitigationKind) -> Self {
        self.mitigation = mitigation;
        self
    }

    /// Returns the config with the given row-buffer policy.
    #[must_use]
    pub fn with_row_buffer(mut self, policy: RowBufferPolicy) -> Self {
        self.row_buffer = policy;
        self
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::paper_ddr3()
    }
}

/// Result of one DRAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramAccess {
    /// Total latency of the access, including refresh stalls.
    pub latency: Cycle,
    /// What happened at the row buffer.
    pub outcome: RowBufferOutcome,
    /// Decoded location of the access.
    pub location: DramLocation,
}

/// A bit flip with its physical address resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DramFlip {
    /// The raw flip event.
    pub flip: BitFlip,
    /// Physical address of the flipped byte.
    pub paddr: u64,
}

/// A simulated DRAM module.
///
/// # Examples
///
/// ```
/// use anvil_dram::{DramConfig, DramModule};
///
/// let mut dram = DramModule::new(DramConfig::tiny());
/// let access = dram.access(0x1000, 100);
/// assert!(access.latency > 0);
/// assert_eq!(dram.stats().accesses, 1);
/// ```
#[derive(Debug)]
pub struct DramModule {
    config: DramConfig,
    mapping: AddressMapping,
    buffers: RowBuffers,
    schedule: RefreshSchedule,
    disturb: DisturbanceTracker,
    mitigation: MitigationState,
    stats: DramStats,
    flips: Vec<DramFlip>,
    last_refresh_cmd: u64,
    /// Position in the controller's tREFI command cadence.
    commands: Cadence,
    /// Position in the schedule's command cadence, for tRFC blocking.
    stalls: Cadence,
}

impl DramModule {
    /// Creates a module.
    ///
    /// # Panics
    ///
    /// Panics if any part of the configuration fails validation.
    pub fn new(config: DramConfig) -> Self {
        let mapping = AddressMapping::new(config.geometry);
        let schedule = RefreshSchedule::new(&config.timing, config.geometry.rows_per_bank);
        let disturb = DisturbanceTracker::new(
            config.disturbance,
            config.geometry.row_bytes,
            config.geometry.rows_per_bank,
        );
        DramModule {
            mapping,
            buffers: RowBuffers::with_policy(config.geometry.total_banks(), config.row_buffer),
            schedule,
            disturb,
            mitigation: MitigationState::new(
                config.mitigation,
                config.timing.refresh_period,
                config.seed,
            ),
            stats: DramStats::default(),
            flips: Vec::new(),
            last_refresh_cmd: 0,
            commands: Cadence::new(config.timing.t_refi),
            stalls: Cadence::new(schedule.command_interval()),
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// The physical-address mapping of this module.
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    /// The auto-refresh schedule.
    pub fn schedule(&self) -> &RefreshSchedule {
        &self.schedule
    }

    /// Installs (or clears) refresh postponement (see
    /// [`RefreshSchedule::set_postpone`]). The maximum delay is clamped
    /// to half the retention period — far beyond anything a real
    /// controller does, but enough to keep the schedule arithmetic sound
    /// under aggressive fault-intensity sweeps.
    pub fn set_refresh_postpone(&mut self, postpone: Option<RefreshPostpone>) {
        let cap = self.schedule.period() / 2;
        self.schedule.set_postpone(postpone.map(|mut pp| {
            pp.max_postpone = pp.max_postpone.min(cap);
            pp
        }));
    }

    /// Immediately restores the charge of every disturbed row in `bank`
    /// — the blanket refresh ANVIL's degraded mode falls back to when it
    /// cannot resolve victim rows. Charge restoration only: open row
    /// buffers are not disturbed. Returns the number of rows reset.
    pub fn refresh_bank(&mut self, bank: BankId, now: Cycle) -> usize {
        self.stats.forced_bank_refreshes += 1;
        self.disturb.reset_bank(bank, now)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Serves a memory access to `paddr` at time `now`.
    ///
    /// `now` must be monotonically non-decreasing across calls; the refresh
    /// and disturbance bookkeeping depends on it.
    pub fn access(&mut self, paddr: u64, now: Cycle) -> DramAccess {
        // Refresh commands precharge all banks; apply any that elapsed
        // since the previous access. A postponed command precharges late:
        // until it completes, the cadence counts the previous command.
        let (mut cmd, since_cmd) = self.commands.at(now);
        if let Some(pp) = self.schedule.postpone() {
            if cmd > 0 && since_cmd < pp.delay_for(cmd) {
                cmd -= 1;
            }
        }
        if cmd > self.last_refresh_cmd {
            self.buffers.precharge_all();
            self.last_refresh_cmd = cmd;
        }

        let location = self.mapping.location_of(paddr);
        // tRFC blocking: the rank is busy for `t_rfc` after each command
        // (`RefreshSchedule::blocking_delay`, without its division).
        let stall = self
            .config
            .timing
            .t_rfc
            .saturating_sub(self.stalls.at(now).1);
        let outcome = self.buffers.access(location.bank.0, location.row);
        let service = match outcome {
            RowBufferOutcome::Hit => self.config.timing.row_hit,
            RowBufferOutcome::Opened => self.config.timing.row_open,
            RowBufferOutcome::Conflict => self.config.timing.row_conflict,
        };

        self.stats.accesses += 1;
        self.stats.refresh_stall_cycles += stall;
        match outcome {
            RowBufferOutcome::Hit => self.stats.row_hits += 1,
            RowBufferOutcome::Opened => self.stats.row_opens += 1,
            RowBufferOutcome::Conflict => self.stats.row_conflicts += 1,
        }

        if outcome.activated() {
            self.stats.activations += 1;
            let row = location.row_id();
            self.disturb.on_activation(row, now, &self.schedule);
            for victim in self
                .mitigation
                .on_activation(row, now, &self.config.geometry)
            {
                self.disturb.reset_row(victim, now);
            }
            self.stats.mitigation_refreshes = self.mitigation.neighbor_refreshes();
            self.collect_flips(now);
        }

        DramAccess {
            latency: stall + service,
            outcome,
            location,
        }
    }

    fn collect_flips(&mut self, _now: Cycle) {
        for flip in self.disturb.drain_flips() {
            self.stats.bit_flips += 1;
            let paddr = self.mapping.address_of(DramLocation {
                bank: flip.row.bank,
                row: flip.row.row,
                col: flip.col,
            });
            self.flips.push(DramFlip { flip, paddr });
        }
    }

    /// Drains bit flips produced since the last call. The owner (the
    /// memory system) applies these to its backing store.
    pub fn drain_flips(&mut self) -> Vec<DramFlip> {
        std::mem::take(&mut self.flips)
    }

    /// Total flips ever produced.
    pub fn total_flips(&self) -> u64 {
        self.stats.bit_flips
    }

    /// Marks every flipped cell in the byte at `paddr` repaired (software
    /// rewrote it). Returns the number of cells repaired.
    pub fn repair_at(&mut self, paddr: u64) -> usize {
        let loc = self.mapping.location_of(paddr);
        (0..8)
            .filter(|&bit| self.disturb.repair(loc.row_id(), loc.col, bit))
            .count()
    }

    /// Accumulated effective disturbance of the row containing `paddr`
    /// (diagnostic, used by tests and the experiment harness).
    pub fn disturbance_at(&self, paddr: u64) -> u64 {
        self.disturb
            .disturbance_of(self.mapping.location_of(paddr).row_id())
    }

    /// Whether `row` contains a minimum-threshold cell (see
    /// [`crate::is_vulnerable_row`]).
    pub fn is_vulnerable_row(&self, row: RowId) -> bool {
        crate::disturb::is_vulnerable_row(&self.config.disturbance, row)
    }

    /// Bounds disturbance-tracking memory on long runs; call occasionally
    /// (e.g. once per simulated refresh window).
    pub fn compact(&mut self) {
        self.disturb.compact();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::BankId;
    use crate::is_vulnerable_row;

    fn vulnerable_victim(config: &DramConfig) -> RowId {
        (2..config.geometry.rows_per_bank - 2)
            .map(|r| RowId::new(BankId(0), r))
            .find(|r| is_vulnerable_row(&config.disturbance, *r))
            .expect("vulnerable row")
    }

    /// Hammers both neighbors of `victim` once per iteration, returning the
    /// iteration of the first flip if any.
    fn double_side_hammer(dram: &mut DramModule, victim: RowId, iters: u64) -> Option<u64> {
        let above = dram.mapping.address_of(DramLocation {
            bank: victim.bank,
            row: victim.row + 1,
            col: 0,
        });
        let below = dram.mapping.address_of(DramLocation {
            bank: victim.bank,
            row: victim.row - 1,
            col: 0,
        });
        let mut now = 1000;
        for i in 0..iters {
            now += dram.access(above, now).latency;
            now += dram.access(below, now).latency;
            if dram.total_flips() > 0 {
                return Some(i);
            }
        }
        None
    }

    #[test]
    fn double_sided_hammer_flips_within_one_window() {
        let config = DramConfig::paper_ddr3();
        let victim = vulnerable_victim(&config);
        let mut dram = DramModule::new(config);
        let flipped = double_side_hammer(&mut dram, victim, 130_000);
        let at = flipped.expect("hammer must flip");
        // 220K total accesses = 110K iterations.
        assert!((105_000..=115_000).contains(&at), "flip at iteration {at}");
        let flips = dram.drain_flips();
        assert_eq!(flips[0].flip.row, victim);
    }

    #[test]
    fn hammer_defeated_by_fast_refresh() {
        // With a 4 ms retention window, 110K iterations (~2 x 110K x ~69ns
        // = 15 ms of hammering) span several refreshes: no flip.
        let clock = crate::time::CpuClock::default();
        let config = DramConfig::paper_ddr3().with_refresh_ms(clock, 4.0);
        let victim = vulnerable_victim(&config);
        let mut dram = DramModule::new(config);
        assert_eq!(double_side_hammer(&mut dram, victim, 140_000), None);
    }

    #[test]
    fn para_defeats_the_hammer() {
        let config = DramConfig::paper_ddr3().with_mitigation(MitigationKind::Para { p: 0.001 });
        let victim = vulnerable_victim(&config);
        let mut dram = DramModule::new(config);
        assert_eq!(double_side_hammer(&mut dram, victim, 140_000), None);
        assert!(dram.stats().mitigation_refreshes > 0);
    }

    #[test]
    fn trr_defeats_the_hammer() {
        let config = DramConfig::paper_ddr3().with_mitigation(MitigationKind::Trr {
            table_size: 32,
            threshold: 50_000,
        });
        let victim = vulnerable_victim(&config);
        let mut dram = DramModule::new(config);
        assert_eq!(double_side_hammer(&mut dram, victim, 140_000), None);
        assert!(dram.stats().mitigation_refreshes > 0);
    }

    #[test]
    fn bank_refresh_resets_disturbance_mid_hammer() {
        let config = DramConfig::paper_ddr3();
        let victim = vulnerable_victim(&config);
        let mut dram = DramModule::new(config);
        // Hammer to just below the flip threshold, blanket-refresh the
        // bank, then hammer the same amount again: still no flip.
        assert_eq!(double_side_hammer(&mut dram, victim, 60_000), None);
        let now = 60_000 * 300; // comfortably after the hammer loop
        assert!(dram.refresh_bank(victim.bank, now) > 0);
        assert_eq!(dram.stats().forced_bank_refreshes, 1);
        assert_eq!(double_side_hammer(&mut dram, victim, 60_000), None);
        // Control: without the blanket refresh the same 120K iterations
        // do flip (see double_sided_hammer_flips_within_one_window).
    }

    #[test]
    fn refresh_postponement_stretches_the_window() {
        use anvil_faults::RefreshPostpone;
        let mut dram = DramModule::new(DramConfig::paper_ddr3());
        let period = dram.schedule().period();
        dram.set_refresh_postpone(Some(RefreshPostpone {
            permille: 1000,
            max_postpone: period, // clamped to period / 2
            seed: 5,
        }));
        let pp = dram.schedule().postpone().unwrap();
        assert_eq!(pp.max_postpone, period / 2);
        // The delayed schedule still answers lazily and deterministically.
        let lr = dram.schedule().last_refresh(0, 3 * period);
        assert_eq!(lr, dram.schedule().last_refresh(0, 3 * period));
    }

    #[test]
    fn row_buffer_stats_accumulate() {
        let mut dram = DramModule::new(DramConfig::tiny());
        let a = dram.mapping.address_of(DramLocation {
            bank: BankId(0),
            row: 1,
            col: 0,
        });
        let b = dram.mapping.address_of(DramLocation {
            bank: BankId(0),
            row: 2,
            col: 0,
        });
        dram.access(a, 100);
        dram.access(a, 200);
        dram.access(b, 300);
        let s = dram.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.row_hits, 1);
        assert_eq!(s.row_opens, 1);
        assert_eq!(s.row_conflicts, 1);
        assert_eq!(s.activations, 2);
    }

    #[test]
    fn refresh_commands_precharge_banks() {
        let mut dram = DramModule::new(DramConfig::tiny());
        let a = dram.mapping.address_of(DramLocation {
            bank: BankId(0),
            row: 1,
            col: 0,
        });
        let t_refi = dram.config().timing.t_refi;
        dram.access(a, t_refi + 10);
        // Next access to the same row after a refresh command reopens it.
        let r = dram.access(a, 2 * t_refi + 10);
        assert_eq!(r.outcome, RowBufferOutcome::Opened);
    }

    #[test]
    fn flip_addresses_round_trip() {
        let config = DramConfig::paper_ddr3();
        let victim = vulnerable_victim(&config);
        let mut dram = DramModule::new(config);
        double_side_hammer(&mut dram, victim, 130_000);
        for f in dram.drain_flips() {
            let loc = dram.mapping().location_of(f.paddr);
            assert_eq!(loc.row_id(), f.flip.row);
            assert_eq!(loc.col, f.flip.col);
        }
    }

    #[test]
    fn repair_clears_flip() {
        let config = DramConfig::paper_ddr3();
        let victim = vulnerable_victim(&config);
        let mut dram = DramModule::new(config);
        double_side_hammer(&mut dram, victim, 130_000);
        let flips = dram.drain_flips();
        assert!(!flips.is_empty());
        assert_eq!(dram.repair_at(flips[0].paddr), 1);
        assert_eq!(dram.repair_at(flips[0].paddr), 0);
    }

    #[test]
    fn refresh_stalls_increase_with_doubled_rate() {
        let run = |config: DramConfig| {
            let mut dram = DramModule::new(config);
            let mut now = 0;
            // A streaming pattern touching many rows.
            for i in 0..20_000u64 {
                now += dram.access(i * 8192, now).latency + 50;
            }
            dram.stats().refresh_stall_cycles
        };
        let base = run(DramConfig::paper_ddr3());
        let doubled = run(DramConfig::paper_ddr3().with_doubled_refresh());
        assert!(
            doubled > base,
            "doubled refresh must stall more: {doubled} vs {base}"
        );
    }
}

#[cfg(test)]
mod closed_page_tests {
    use super::*;
    use crate::bank::RowBufferPolicy;
    use crate::geometry::{BankId, RowId};
    use crate::is_vulnerable_row;

    /// On a closed-page controller a *single-address* hammer works: every
    /// access re-activates the aggressor row, so no conflict address or
    /// second aggressor is needed. (Security observation enabled by the
    /// row-buffer-policy extension; the open-page default matches the
    /// paper's platform.)
    #[test]
    fn closed_page_enables_single_address_hammering() {
        let config = DramConfig::paper_ddr3().with_row_buffer(RowBufferPolicy::ClosedPage);
        let victim = (2..30_000u32)
            .map(|r| RowId::new(BankId(0), r))
            .find(|r| is_vulnerable_row(&config.disturbance, *r))
            .unwrap();
        let mut dram = DramModule::new(config);
        let aggressor = dram.mapping().address_of(DramLocation {
            bank: victim.bank,
            row: victim.row + 1,
            col: 0,
        });
        let mut now = 1000u64;
        for _ in 0..410_000u64 {
            now += dram.access(aggressor, now).latency;
        }
        assert!(
            dram.total_flips() > 0,
            "single-address hammer must flip on closed-page DRAM"
        );

        // The same loop on the open-page default is completely harmless:
        // after the first access everything is a row-buffer hit.
        let mut dram = DramModule::new(DramConfig::paper_ddr3());
        let mut now = 1000u64;
        for _ in 0..410_000u64 {
            now += dram.access(aggressor, now).latency;
        }
        assert_eq!(dram.total_flips(), 0);
        assert!(dram.stats().row_hit_rate() > 0.99);
    }
}

impl DramModule {
    /// Energy consumed from boot until `now` under `model` (demand
    /// traffic from the module's counters plus the periodic auto-refresh
    /// of every row). See [`crate::energy_report`].
    pub fn energy(
        &self,
        model: &crate::EnergyModel,
        now: Cycle,
        clock: &crate::CpuClock,
    ) -> crate::EnergyReport {
        crate::energy_report(
            model,
            &self.stats,
            self.config.geometry.total_rows(),
            self.config.timing.refresh_period,
            now,
            clock,
        )
    }
}

/// The refresh bookkeeping `access` did by division on every call before
/// it tracked the command cadences, kept as a reference model.
#[cfg(test)]
mod cadence_reference {
    use super::*;
    use proptest::prelude::*;

    /// Row buffers driven by the division form of the refresh-command
    /// test, and the division form of the tRFC stall.
    struct DivisionModel {
        timing: crate::timing::DramTiming,
        schedule: RefreshSchedule,
        buffers: RowBuffers,
        last_refresh_cmd: u64,
    }

    impl DivisionModel {
        fn access(&mut self, location: DramLocation, now: Cycle) -> (Cycle, RowBufferOutcome) {
            let mut cmd = now / self.timing.t_refi;
            if let Some(pp) = self.schedule.postpone() {
                if cmd > 0 && now < cmd * self.timing.t_refi + pp.delay_for(cmd) {
                    cmd -= 1;
                }
            }
            if cmd > self.last_refresh_cmd {
                self.buffers.precharge_all();
                self.last_refresh_cmd = cmd;
            }
            let stall = self.schedule.blocking_delay(now, self.timing.t_rfc);
            let outcome = self.buffers.access(location.bank.0, location.row);
            let service = match outcome {
                RowBufferOutcome::Hit => self.timing.row_hit,
                RowBufferOutcome::Opened => self.timing.row_open,
                RowBufferOutcome::Conflict => self.timing.row_conflict,
            };
            (stall + service, outcome)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Latency and row-buffer outcome of every access match the
        /// division model, with and without refresh postponement, over
        /// small steps (inside one tREFI), long jumps and steps back.
        #[test]
        fn cadences_match_division_model(
            postpone in 0u32..3,
            steps in prop::collection::vec((0u32..8, 0u64..4, 0u64..60_000), 1..300),
        ) {
            let config = DramConfig::tiny();
            let mut dram = DramModule::new(config);
            if postpone > 0 {
                dram.set_refresh_postpone(Some(RefreshPostpone {
                    permille: 400 * postpone,
                    max_postpone: 50_000,
                    seed: 5,
                }));
            }
            let mut model = DivisionModel {
                timing: config.timing,
                schedule: *dram.schedule(),
                buffers: RowBuffers::with_policy(config.geometry.total_banks(), config.row_buffer),
                last_refresh_cmd: 0,
            };
            let row_stride = u64::from(config.geometry.row_bytes)
                * u64::from(config.geometry.total_banks());
            let mut now: Cycle = 0;
            for &(tag, row, d) in &steps {
                now = match tag {
                    0 => now.saturating_sub(d),
                    1 => now + d * 1_000,
                    _ => now + d / 200,
                };
                let paddr = row * row_stride;
                let got = dram.access(paddr, now);
                let want = model.access(got.location, now);
                prop_assert_eq!((got.latency, got.outcome), want, "at {}", now);
            }
        }
    }
}
