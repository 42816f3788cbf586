//! The CPU-side memory access engine: cache hierarchy + DRAM + cycle clock.

use crate::phys::PhysicalMemory;
use anvil_cache::{CacheHierarchy, HierarchyConfig, HitLevel};
use anvil_dram::{CpuClock, Cycle, DramConfig, DramFlip, DramLocation, DramModule};
use serde::{Deserialize, Serialize};

/// Cycle costs of the simulated out-of-order core.
///
/// The simulator is latency-accurate for DRAM and throughput-accurate for
/// cache hits: a modern core overlaps independent cache hits, so the clock
/// advances by a *throughput* cost per hit rather than the full load-to-use
/// latency, while LLC misses serialize and charge full DRAM latency. The
/// defaults are calibrated so the paper's attack timings come out right
/// (Table 1: 58 ms / 15 ms / 45 ms; Section 2.2's ~338 ns CLFLUSH-free
/// iteration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreModel {
    /// Clock advance for an L1 hit.
    pub l1_hit_cost: Cycle,
    /// Clock advance for an L2 hit.
    pub l2_hit_cost: Cycle,
    /// Clock advance for an L3 hit.
    pub l3_hit_cost: Cycle,
    /// Core-side overhead added on top of DRAM latency for an LLC miss.
    pub miss_overhead: Cycle,
    /// Non-overlapped cost of a CLFLUSH instruction.
    pub clflush_cost: Cycle,
}

impl CoreModel {
    /// The calibrated Sandy Bridge model (see struct docs).
    pub fn sandy_bridge() -> Self {
        CoreModel {
            l1_hit_cost: 2,
            l2_hit_cost: 6,
            l3_hit_cost: 9,
            miss_overhead: 4,
            clflush_cost: 4,
        }
    }
}

impl Default for CoreModel {
    fn default() -> Self {
        Self::sandy_bridge()
    }
}

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// What one memory access did, as observed by the core (and by the PMU).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Physical address accessed.
    pub paddr: u64,
    /// Load or store.
    pub kind: AccessKind,
    /// Level that served the access.
    pub level: HitLevel,
    /// Cycles the core spent on it (the clock already advanced by this).
    pub advance: Cycle,
    /// DRAM location touched, when the access missed the LLC.
    pub dram: Option<DramLocation>,
}

impl AccessOutcome {
    /// Whether this access missed the last-level cache.
    #[inline]
    pub fn llc_miss(&self) -> bool {
        self.level.is_llc_miss()
    }
}

/// Aggregate memory-system counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemStats {
    /// Total accesses issued.
    pub accesses: u64,
    /// Loads.
    pub reads: u64,
    /// Stores.
    pub writes: u64,
    /// LLC misses (loads + stores).
    pub llc_misses: u64,
    /// LLC misses that were loads.
    pub llc_miss_loads: u64,
    /// CLFLUSH instructions executed.
    pub clflushes: u64,
}

/// Configuration of a [`MemorySystem`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryConfig {
    /// Cache hierarchy.
    pub hierarchy: HierarchyConfig,
    /// DRAM module.
    pub dram: DramConfig,
    /// Core cost model.
    pub core: CoreModel,
    /// Core clock (for cycle <-> wall-clock conversions).
    pub clock: CpuClock,
}

impl MemoryConfig {
    /// The paper's platform: Sandy Bridge i5-2540M + 4 GB DDR3 at 2.6 GHz.
    pub fn paper_platform() -> Self {
        MemoryConfig {
            hierarchy: HierarchyConfig::sandy_bridge_i5_2540m(),
            dram: DramConfig::paper_ddr3(),
            core: CoreModel::sandy_bridge(),
            clock: CpuClock::SANDY_BRIDGE_2_6GHZ,
        }
    }

    /// A small configuration for fast tests (tiny caches, 16 MB DRAM).
    pub fn tiny() -> Self {
        MemoryConfig {
            hierarchy: HierarchyConfig::tiny(),
            dram: DramConfig::tiny(),
            core: CoreModel::sandy_bridge(),
            clock: CpuClock::SANDY_BRIDGE_2_6GHZ,
        }
    }
}

impl Default for MemoryConfig {
    fn default() -> Self {
        Self::paper_platform()
    }
}

/// The full memory system: caches in front of DRAM, a global cycle clock,
/// and a data backing store in which rowhammer flips are observable.
///
/// # Examples
///
/// ```
/// use anvil_mem::{AccessKind, MemoryConfig, MemorySystem};
///
/// let mut sys = MemorySystem::new(MemoryConfig::tiny());
/// let cold = sys.access(0x8000, AccessKind::Read);
/// let warm = sys.access(0x8000, AccessKind::Read);
/// assert!(cold.advance > warm.advance);
/// ```
#[derive(Debug)]
pub struct MemorySystem {
    config: MemoryConfig,
    hierarchy: CacheHierarchy,
    dram: DramModule,
    phys: PhysicalMemory,
    now: Cycle,
    stats: MemStats,
    flip_log: Vec<DramFlip>,
    /// Reusable buffers for displaced dirty lines / prefetch fills —
    /// `access_at` runs once per simulated memory access, so these must
    /// not allocate in steady state.
    wb_scratch: Vec<u64>,
    pf_scratch: Vec<u64>,
}

impl MemorySystem {
    /// Creates a memory system.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation.
    pub fn new(config: MemoryConfig) -> Self {
        let phys = PhysicalMemory::new(config.dram.geometry.total_bytes());
        MemorySystem {
            hierarchy: CacheHierarchy::new(config.hierarchy),
            dram: DramModule::new(config.dram),
            phys,
            now: 0,
            stats: MemStats::default(),
            flip_log: Vec::new(),
            wb_scratch: Vec::new(),
            pf_scratch: Vec::new(),
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// Current time in cycles.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Current time in milliseconds.
    pub fn now_ms(&self) -> f64 {
        self.config.clock.cycles_to_ms(self.now)
    }

    /// Advances the clock by `cycles` of non-memory work.
    pub fn advance(&mut self, cycles: Cycle) {
        self.now += cycles;
    }

    /// The cache hierarchy (immutable; for probing and set queries).
    pub fn hierarchy(&self) -> &CacheHierarchy {
        &self.hierarchy
    }

    /// The DRAM module (immutable; for mapping and stats queries).
    pub fn dram(&self) -> &DramModule {
        &self.dram
    }

    /// Installs (or clears) auto-refresh postponement on the DRAM module
    /// (fault model; see [`DramModule::set_refresh_postpone`]).
    pub fn set_refresh_postpone(&mut self, postpone: Option<anvil_faults::RefreshPostpone>) {
        self.dram.set_refresh_postpone(postpone);
    }

    /// Blanket-refreshes every disturbed row of `bank` at time `now` —
    /// ANVIL's degraded-mode fallback. Returns the number of rows reset.
    pub fn refresh_bank(&mut self, bank: anvil_dram::BankId, now: Cycle) -> usize {
        self.now = now.max(self.now);
        self.dram.refresh_bank(bank, self.now)
    }

    /// Memory-system counters.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Issues one memory access and advances the clock.
    pub fn access(&mut self, paddr: u64, kind: AccessKind) -> AccessOutcome {
        let outcome = self.access_at(paddr, kind, self.now);
        self.now += outcome.advance;
        outcome
    }

    /// Issues one memory access at an externally supplied time, without
    /// advancing the internal clock past `now + advance`.
    ///
    /// This is the multi-core entry point: the platform runner keeps one
    /// logical clock per core and serializes operations in (approximately)
    /// global time order, so `now` may trail the internal clock by up to
    /// one operation. The internal clock only ever moves forward.
    #[inline]
    pub fn access_at(&mut self, paddr: u64, kind: AccessKind, now: Cycle) -> AccessOutcome {
        let now = now.max(self.now);
        self.now = now;
        let write = matches!(kind, AccessKind::Write);
        let (level, _latency) =
            self.hierarchy
                .access_into(paddr, write, &mut self.wb_scratch, &mut self.pf_scratch);

        self.stats.accesses = self.stats.accesses.saturating_add(1);
        match kind {
            AccessKind::Read => self.stats.reads = self.stats.reads.saturating_add(1),
            AccessKind::Write => self.stats.writes = self.stats.writes.saturating_add(1),
        }

        let (advance, dram_loc) = match level {
            HitLevel::L1 => (self.config.core.l1_hit_cost, None),
            HitLevel::L2 => (self.config.core.l2_hit_cost, None),
            HitLevel::L3 => (self.config.core.l3_hit_cost, None),
            HitLevel::Memory => {
                self.stats.llc_misses = self.stats.llc_misses.saturating_add(1);
                if matches!(kind, AccessKind::Read) {
                    self.stats.llc_miss_loads = self.stats.llc_miss_loads.saturating_add(1);
                }
                let d = self.dram.access(paddr, self.now);
                (d.latency + self.config.core.miss_overhead, Some(d.location))
            }
        };

        // Dirty lines displaced out of the hierarchy are written to DRAM
        // off the critical path (no clock advance), but they do open rows.
        for &line in &self.wb_scratch {
            self.dram.access(line, self.now);
        }
        // Prefetch fills are DRAM reads off the critical path too — and
        // therefore real row activations.
        for &line in &self.pf_scratch {
            self.dram.access(line, self.now);
        }
        self.wb_scratch.clear();
        self.pf_scratch.clear();
        if self.dram.total_flips() > 0 {
            self.apply_new_flips();
        }

        AccessOutcome {
            paddr,
            kind,
            level,
            advance,
            dram: dram_loc,
        }
    }

    /// Executes CLFLUSH on `paddr`'s line and advances the clock.
    pub fn clflush(&mut self, paddr: u64) {
        let now = self.now;
        self.clflush_at(paddr, now);
        self.now += self.config.core.clflush_cost;
    }

    /// Executes CLFLUSH at an externally supplied time (multi-core entry
    /// point; see [`access_at`](Self::access_at)).
    pub fn clflush_at(&mut self, paddr: u64, now: Cycle) {
        self.now = now.max(self.now);
        self.stats.clflushes = self.stats.clflushes.saturating_add(1);
        if let Some(dirty_line) = self.hierarchy.clflush(paddr) {
            self.dram.access(dirty_line, self.now);
            self.apply_new_flips();
        }
    }

    fn apply_new_flips(&mut self) {
        for f in self.dram.drain_flips() {
            self.phys.flip_bit(f.paddr, f.flip.bit);
            self.flip_log.push(f);
        }
    }

    /// Drains the log of bit flips applied to memory since the last call.
    pub fn drain_flips(&mut self) -> Vec<DramFlip> {
        std::mem::take(&mut self.flip_log)
    }

    /// Total bit flips the DRAM has produced.
    pub fn total_flips(&self) -> u64 {
        self.dram.total_flips()
    }

    /// Loads a u64: one simulated access plus the data from the backing
    /// store.
    pub fn load_u64(&mut self, paddr: u64) -> (u64, AccessOutcome) {
        let outcome = self.access(paddr, AccessKind::Read);
        (self.phys.read_u64(paddr), outcome)
    }

    /// Stores a u64: one simulated access plus the data write. Rewriting a
    /// byte repairs any flipped cells in it.
    pub fn store_u64(&mut self, paddr: u64, value: u64) -> AccessOutcome {
        let outcome = self.access(paddr, AccessKind::Write);
        self.phys.write_u64(paddr, value);
        if self.dram.total_flips() > 0 {
            for i in 0..8 {
                self.dram.repair_at(paddr + i);
            }
        }
        outcome
    }

    /// Direct (un-simulated) view of the backing store, for test setup and
    /// result inspection.
    pub fn phys(&self) -> &PhysicalMemory {
        &self.phys
    }

    /// Direct (un-simulated) mutable view of the backing store.
    pub fn phys_mut(&mut self) -> &mut PhysicalMemory {
        &mut self.phys
    }

    /// Releases disturbance-tracking memory; call once per simulated
    /// refresh window on long runs.
    pub fn compact(&mut self) {
        self.dram.compact();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_per_access() {
        let mut sys = MemorySystem::new(MemoryConfig::tiny());
        let t0 = sys.now();
        let a = sys.access(0x1000, AccessKind::Read);
        assert_eq!(sys.now(), t0 + a.advance);
        assert!(a.llc_miss());
        let b = sys.access(0x1000, AccessKind::Read);
        assert_eq!(b.level, HitLevel::L1);
        assert_eq!(b.advance, CoreModel::sandy_bridge().l1_hit_cost);
    }

    #[test]
    fn llc_miss_counters_split_loads_and_stores() {
        let mut sys = MemorySystem::new(MemoryConfig::tiny());
        sys.access(0x0, AccessKind::Read);
        sys.access(0x10000, AccessKind::Write);
        let s = sys.stats();
        assert_eq!(s.llc_misses, 2);
        assert_eq!(s.llc_miss_loads, 1);
    }

    #[test]
    fn clflush_forces_next_access_to_dram() {
        let mut sys = MemorySystem::new(MemoryConfig::tiny());
        sys.access(0x2000, AccessKind::Read);
        sys.clflush(0x2000);
        let a = sys.access(0x2000, AccessKind::Read);
        assert!(a.llc_miss());
        assert_eq!(sys.stats().clflushes, 1);
    }

    #[test]
    fn data_round_trips_through_load_store() {
        let mut sys = MemorySystem::new(MemoryConfig::tiny());
        sys.store_u64(0x3000, 0xfeed_face);
        let (v, _) = sys.load_u64(0x3000);
        assert_eq!(v, 0xfeed_face);
    }

    #[test]
    fn hammering_flips_bits_in_the_backing_store() {
        use anvil_dram::{is_vulnerable_row, BankId, DramLocation, RowId};
        let config = MemoryConfig::paper_platform();
        let victim = (2..30_000u32)
            .map(|r| RowId::new(BankId(0), r))
            .find(|r| is_vulnerable_row(&config.dram.disturbance, *r))
            .unwrap();
        let mut sys = MemorySystem::new(config);
        let map = *sys.dram().mapping();
        let above = map.address_of(DramLocation {
            bank: victim.bank,
            row: victim.row + 1,
            col: 0,
        });
        let below = map.address_of(DramLocation {
            bank: victim.bank,
            row: victim.row - 1,
            col: 0,
        });
        for _ in 0..120_000 {
            sys.access(above, AccessKind::Read);
            sys.clflush(above);
            sys.access(below, AccessKind::Read);
            sys.clflush(below);
        }
        assert!(sys.total_flips() > 0, "hammer must flip");
        let flips = sys.drain_flips();
        let f = flips[0];
        // The flip is visible in the data.
        assert_eq!(sys.phys().read_u8(f.paddr), 1 << f.flip.bit);
        // Rewriting repairs the cell.
        sys.store_u64(f.paddr & !7, 0);
        assert_eq!(sys.phys().read_u8(f.paddr), 0);
    }

    #[test]
    fn dram_misses_cost_more_than_hits() {
        let mut sys = MemorySystem::new(MemoryConfig::tiny());
        let miss = sys.access(0x40_000, AccessKind::Read).advance;
        let hit = sys.access(0x40_000, AccessKind::Read).advance;
        assert!(miss > 10 * hit, "miss {miss} vs hit {hit}");
    }

    #[test]
    fn advance_moves_clock_without_memory_traffic() {
        let mut sys = MemorySystem::new(MemoryConfig::tiny());
        sys.advance(500);
        assert_eq!(sys.now(), 500);
        assert_eq!(sys.stats().accesses, 0);
    }
}
