//! The three-level cache hierarchy of the simulated Sandy Bridge part.
//!
//! L1D and L2 are private write-back caches; the last-level cache is
//! *inclusive*, physically indexed, and organized into slices (one per
//! core, Section 2.2). Inclusivity is what makes the CLFLUSH-free attack
//! work: "it is enough to evict a word from the last-level cache to bypass
//! the whole cache hierarchy" — evicting a line from the L3 back-invalidates
//! any copy in L1/L2.

use crate::cache::Cache;
use crate::config::HierarchyConfig;
use crate::stats::CacheStats;

/// The level at which an access was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HitLevel {
    /// L1 data cache.
    L1,
    /// Unified L2.
    L2,
    /// Last-level cache.
    L3,
    /// Missed everywhere: the access goes to DRAM.
    Memory,
}

impl HitLevel {
    /// Whether the access missed the last-level cache (the event ANVIL's
    /// stage-1 counter counts).
    pub fn is_llc_miss(&self) -> bool {
        matches!(self, HitLevel::Memory)
    }
}

/// Result of routing one access through the hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyAccess {
    /// Where the data was found.
    pub level: HitLevel,
    /// Cache-side load-to-use latency in cycles. For [`HitLevel::Memory`]
    /// this is the L3 lookup cost only; DRAM latency is added by the
    /// memory system.
    pub latency: u64,
    /// Dirty lines displaced out of the hierarchy that must be written
    /// back to DRAM (line-aligned physical addresses).
    pub writebacks: Vec<u64>,
    /// Lines the prefetcher fetched that missed the LLC and therefore
    /// need a (off-critical-path) DRAM read.
    pub prefetch_fills: Vec<u64>,
}

/// The simulated cache hierarchy.
///
/// # Examples
///
/// ```
/// use anvil_cache::{CacheHierarchy, HierarchyConfig, HitLevel};
///
/// let mut h = CacheHierarchy::new(HierarchyConfig::sandy_bridge_i5_2540m());
/// assert_eq!(h.access(0x4000, false).level, HitLevel::Memory);
/// assert_eq!(h.access(0x4000, false).level, HitLevel::L1);
/// ```
#[derive(Debug)]
pub struct CacheHierarchy {
    config: HierarchyConfig,
    l1: Cache,
    l2: Cache,
    slices: Vec<Cache>,
    slice_shift: u32,
}

impl CacheHierarchy {
    /// Creates the hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`HierarchyConfig::validate`].
    pub fn new(config: HierarchyConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid hierarchy config: {e}"));
        let mut slice_cfg = config.l3;
        slice_cfg.capacity_bytes /= config.l3_slices as u64;
        let slices = (0..config.l3_slices)
            .map(|_| Cache::new(slice_cfg))
            .collect();
        let per_slice_sets = slice_cfg.sets();
        CacheHierarchy {
            l1: Cache::new(config.l1),
            l2: Cache::new(config.l2),
            slices,
            slice_shift: config.l3.line_bytes.trailing_zeros() + per_slice_sets.trailing_zeros(),
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// The LLC slice `paddr` maps to.
    ///
    /// Real Intel parts hash many high physical-address bits into the
    /// slice id (Hund et al., the paper's reference \[12\]); we XOR-fold the
    /// bits above the set index, which has the properties the attack
    /// relies on: stable per address, and uniform across slices.
    pub fn slice_of(&self, paddr: u64) -> usize {
        let n = self.slices.len();
        if n == 1 {
            return 0;
        }
        let mut x = paddr >> self.slice_shift;
        x ^= x >> 17;
        x ^= x >> 9;
        x ^= x >> 5;
        x ^= x >> 3;
        (x as usize) & (n - 1)
    }

    /// (slice, set-within-slice) for `paddr` — everything an eviction-set
    /// builder needs.
    pub fn llc_set_of(&self, paddr: u64) -> (usize, usize) {
        let slice = self.slice_of(paddr);
        (slice, self.slices[slice].set_of(paddr))
    }

    /// LLC associativity.
    pub fn llc_ways(&self) -> usize {
        self.config.l3.ways
    }

    /// Routes one access through L1 -> L2 -> L3.
    pub fn access(&mut self, paddr: u64, write: bool) -> HierarchyAccess {
        let mut writebacks = Vec::new();
        let mut prefetch_fills = Vec::new();
        let (level, latency) = self.access_into(paddr, write, &mut writebacks, &mut prefetch_fills);
        HierarchyAccess {
            level,
            latency,
            writebacks,
            prefetch_fills,
        }
    }

    /// Allocation-free variant of [`access`](Self::access): displaced
    /// dirty lines and prefetch fills are *appended* to caller-owned
    /// buffers (not cleared first), so a hot loop can reuse one pair of
    /// buffers across millions of accesses. Returns (served level,
    /// cache-side latency).
    pub fn access_into(
        &mut self,
        paddr: u64,
        write: bool,
        writebacks: &mut Vec<u64>,
        prefetch_fills: &mut Vec<u64>,
    ) -> (HitLevel, u64) {
        let r1 = self.l1.access(paddr, write);
        if r1.hit {
            return (HitLevel::L1, self.config.l1.latency);
        }
        if let Some(ev) = r1.evicted {
            if ev.dirty {
                self.writeback_to_l2(ev.paddr, writebacks);
            }
        }

        let r2 = self.l2.access(paddr, false);
        if let Some(ev) = r2.evicted {
            if ev.dirty {
                self.writeback_to_l3(ev.paddr, writebacks);
            }
        }
        if r2.hit {
            return (HitLevel::L2, self.config.l2.latency);
        }

        let slice = self.slice_of(paddr);
        let r3 = self.slices[slice].access(paddr, false);
        if let Some(ev) = r3.evicted {
            self.back_invalidate(ev.paddr, ev.dirty, writebacks);
        }
        let level = if r3.hit {
            HitLevel::L3
        } else {
            HitLevel::Memory
        };

        if level == HitLevel::Memory
            && matches!(
                self.config.prefetch,
                crate::config::PrefetchPolicy::NextLine
            )
        {
            let next = (paddr & !(self.config.l3.line_bytes as u64 - 1))
                + self.config.l3.line_bytes as u64;
            self.prefetch_into_l2_l3(next, writebacks, prefetch_fills);
        }

        (level, self.config.l3.latency)
    }

    /// Brings `line_paddr` into L2 + L3 without touching L1 (the usual
    /// prefetch fill level), recording whether DRAM must supply it.
    fn prefetch_into_l2_l3(
        &mut self,
        line_paddr: u64,
        writebacks: &mut Vec<u64>,
        prefetch_fills: &mut Vec<u64>,
    ) {
        let slice = self.slice_of(line_paddr);
        let r3 = self.slices[slice].access(line_paddr, false);
        if let Some(ev) = r3.evicted {
            self.back_invalidate(ev.paddr, ev.dirty, writebacks);
        }
        if !r3.hit {
            prefetch_fills.push(line_paddr);
        }
        let r2 = self.l2.access(line_paddr, false);
        if let Some(ev) = r2.evicted {
            if ev.dirty {
                self.writeback_to_l3(ev.paddr, writebacks);
            }
        }
    }

    fn writeback_to_l2(&mut self, line_paddr: u64, writebacks: &mut Vec<u64>) {
        let r = self.l2.access(line_paddr, true);
        if let Some(ev) = r.evicted {
            if ev.dirty {
                self.writeback_to_l3(ev.paddr, writebacks);
            }
        }
    }

    fn writeback_to_l3(&mut self, line_paddr: u64, writebacks: &mut Vec<u64>) {
        let slice = self.slice_of(line_paddr);
        let r = self.slices[slice].access(line_paddr, true);
        if let Some(ev) = r.evicted {
            self.back_invalidate(ev.paddr, ev.dirty, writebacks);
        }
    }

    /// Inclusive-LLC eviction: purge the line from the upper levels too.
    fn back_invalidate(&mut self, line_paddr: u64, l3_dirty: bool, writebacks: &mut Vec<u64>) {
        let d1 = self.l1.invalidate(line_paddr).unwrap_or(false);
        let d2 = self.l2.invalidate(line_paddr).unwrap_or(false);
        if l3_dirty || d1 || d2 {
            writebacks.push(line_paddr);
        }
    }

    /// CLFLUSH: invalidates `paddr`'s line at every level. Returns the
    /// dirty line to write back, if any.
    pub fn clflush(&mut self, paddr: u64) -> Option<u64> {
        let d1 = self.l1.invalidate(paddr).unwrap_or(false);
        let d2 = self.l2.invalidate(paddr).unwrap_or(false);
        let slice = self.slice_of(paddr);
        let d3 = self.slices[slice].invalidate(paddr).unwrap_or(false);
        let line = paddr & !(self.config.l3.line_bytes as u64 - 1);
        (d1 || d2 || d3).then_some(line)
    }

    /// Whether `paddr` is present in the LLC (and, by inclusion, possibly
    /// above). Does not modify any state.
    pub fn llc_probe(&self, paddr: u64) -> bool {
        self.slices[self.slice_of(paddr)].probe(paddr)
    }

    /// Whether `paddr` is present at any level. Does not modify state.
    pub fn probe(&self, paddr: u64) -> Option<HitLevel> {
        if self.l1.probe(paddr) {
            Some(HitLevel::L1)
        } else if self.l2.probe(paddr) {
            Some(HitLevel::L2)
        } else if self.llc_probe(paddr) {
            Some(HitLevel::L3)
        } else {
            None
        }
    }

    /// Statistics for (L1, L2, aggregated L3).
    pub fn stats(&self) -> (CacheStats, CacheStats, CacheStats) {
        let mut l3 = CacheStats::default();
        for s in &self.slices {
            let st = s.stats();
            l3.accesses = l3.accesses.saturating_add(st.accesses);
            l3.hits = l3.hits.saturating_add(st.hits);
            l3.evictions = l3.evictions.saturating_add(st.evictions);
            l3.dirty_evictions = l3.dirty_evictions.saturating_add(st.dirty_evictions);
            l3.invalidations = l3.invalidations.saturating_add(st.invalidations);
        }
        (*self.l1.stats(), *self.l2.stats(), l3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> CacheHierarchy {
        CacheHierarchy::new(HierarchyConfig::tiny())
    }

    #[test]
    fn fill_then_hit_l1() {
        let mut h = hierarchy();
        assert_eq!(h.access(0x1000, false).level, HitLevel::Memory);
        assert_eq!(h.access(0x1000, false).level, HitLevel::L1);
        assert_eq!(h.probe(0x1000), Some(HitLevel::L1));
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = hierarchy();
        h.access(0, false);
        // Evict line 0 from L1 by filling its set (8 ways; L1 is 16 KB /
        // 8 ways / 64 B = 32 sets, stride 32*64 = 2 KB).
        for i in 1..=8u64 {
            h.access(i * 2048, false);
        }
        let lvl = h.probe(0).unwrap();
        assert!(lvl == HitLevel::L2 || lvl == HitLevel::L3, "got {lvl:?}");
        assert_ne!(h.access(0, false).level, HitLevel::Memory);
    }

    #[test]
    fn clflush_purges_all_levels() {
        let mut h = hierarchy();
        h.access(0x2000, false);
        assert!(h.clflush(0x2000).is_none(), "clean line: no writeback");
        assert_eq!(h.probe(0x2000), None);
        assert_eq!(h.access(0x2000, false).level, HitLevel::Memory);
    }

    #[test]
    fn clflush_dirty_line_writes_back() {
        let mut h = hierarchy();
        h.access(0x2040, true);
        assert_eq!(h.clflush(0x2040), Some(0x2040));
    }

    #[test]
    fn inclusive_l3_eviction_back_invalidates() {
        let mut h = hierarchy();
        let (slice0, set0) = h.llc_set_of(0);
        // Find 13 addresses in the same slice+set (12-way LLC): the 13th
        // fill must evict one of the first 12 from the whole hierarchy.
        let mut conflict = Vec::new();
        let mut pa = 0u64;
        while conflict.len() < 13 {
            if h.llc_set_of(pa) == (slice0, set0) {
                conflict.push(pa);
            }
            pa += 64;
        }
        for &a in &conflict {
            h.access(a, false);
        }
        // Exactly one of the first 12 was evicted; it must be gone from
        // every level (inclusion).
        let missing: Vec<u64> = conflict[..12]
            .iter()
            .copied()
            .filter(|&a| h.probe(a).is_none())
            .collect();
        assert_eq!(missing.len(), 1, "one line back-invalidated: {missing:?}");
    }

    #[test]
    fn dirty_l1_eviction_propagates_to_l2() {
        let mut h = hierarchy();
        h.access(0, true); // dirty in L1
        for i in 1..=8u64 {
            h.access(i * 2048, false); // evict it from L1
        }
        // The dirty line now lives in L2 (as a writeback fill).
        assert!(matches!(h.probe(0), Some(HitLevel::L1 | HitLevel::L2)));
    }

    #[test]
    fn slices_partition_addresses_uniformly() {
        let h = hierarchy();
        let n = 20_000u64;
        let mut counts = vec![0usize; h.config().l3_slices];
        for i in 0..n {
            counts[h.slice_of(i * 64)] += 1;
        }
        for &c in &counts {
            let expected = n as usize / counts.len();
            assert!(
                (expected * 8 / 10..=expected * 12 / 10).contains(&c),
                "slice skew: {counts:?}"
            );
        }
    }

    #[test]
    fn slice_is_stable_per_address() {
        let h = hierarchy();
        for pa in [0u64, 64, 4096, 1 << 20] {
            assert_eq!(h.slice_of(pa), h.slice_of(pa));
        }
    }

    #[test]
    fn llc_miss_flag() {
        assert!(HitLevel::Memory.is_llc_miss());
        assert!(!HitLevel::L3.is_llc_miss());
    }

    #[test]
    fn stats_aggregate() {
        let mut h = hierarchy();
        h.access(0, false);
        h.access(0, false);
        let (l1, l2, l3) = h.stats();
        assert_eq!(l1.accesses, 2);
        assert_eq!(l1.hits, 1);
        assert_eq!(l2.accesses, 1);
        assert_eq!(l3.accesses, 1);
        assert_eq!(l3.hits, 0);
    }
}

#[cfg(test)]
mod prefetch_tests {
    use super::*;
    use crate::config::PrefetchPolicy;

    #[test]
    fn next_line_prefetch_warms_the_next_line() {
        let mut cfg = HierarchyConfig::tiny();
        cfg.prefetch = PrefetchPolicy::NextLine;
        let mut h = CacheHierarchy::new(cfg);
        let r = h.access(0x8000, false);
        assert_eq!(r.level, HitLevel::Memory);
        assert_eq!(
            r.prefetch_fills,
            vec![0x8040],
            "next line fetched from DRAM"
        );
        // The neighbor now hits in L2/L3 without its own memory trip.
        let r2 = h.access(0x8040, false);
        assert_ne!(r2.level, HitLevel::Memory);
    }

    #[test]
    fn prefetch_disabled_by_default() {
        let mut h = CacheHierarchy::new(HierarchyConfig::tiny());
        let r = h.access(0x8000, false);
        assert!(r.prefetch_fills.is_empty());
        assert_eq!(h.access(0x8040, false).level, HitLevel::Memory);
    }

    #[test]
    fn prefetched_line_already_cached_is_free() {
        let mut cfg = HierarchyConfig::tiny();
        cfg.prefetch = PrefetchPolicy::NextLine;
        let mut h = CacheHierarchy::new(cfg);
        h.access(0x8040, false); // bring the "next" line in first
        let r = h.access(0x8000, false);
        assert!(
            r.prefetch_fills.is_empty(),
            "no DRAM fill needed for an already-cached prefetch"
        );
    }
}

/// The hierarchy's routing over the entry-array reference caches: hit
/// levels, writebacks, prefetch fills and stats must match the real
/// hierarchy's exactly.
#[cfg(test)]
mod reference_tests {
    use super::*;
    use crate::cache::reference::{EntryCache, POLICIES};
    use crate::config::PrefetchPolicy;
    use proptest::prelude::*;

    struct ReferenceHierarchy {
        config: HierarchyConfig,
        l1: EntryCache,
        l2: EntryCache,
        slices: Vec<EntryCache>,
        /// Slice routing is configuration-only; the real hierarchy's
        /// `slice_of` serves as the oracle.
        router: CacheHierarchy,
    }

    impl ReferenceHierarchy {
        fn new(config: HierarchyConfig) -> Self {
            let mut slice_cfg = config.l3;
            slice_cfg.capacity_bytes /= config.l3_slices as u64;
            ReferenceHierarchy {
                config,
                l1: EntryCache::new(config.l1),
                l2: EntryCache::new(config.l2),
                slices: (0..config.l3_slices)
                    .map(|_| EntryCache::new(slice_cfg))
                    .collect(),
                router: CacheHierarchy::new(config),
            }
        }

        fn access(&mut self, paddr: u64, write: bool) -> HierarchyAccess {
            let mut wb = Vec::new();
            let mut pf = Vec::new();
            let r1 = self.l1.access(paddr, write);
            if r1.hit {
                return HierarchyAccess {
                    level: HitLevel::L1,
                    latency: self.config.l1.latency,
                    writebacks: wb,
                    prefetch_fills: pf,
                };
            }
            if let Some(ev) = r1.evicted.filter(|ev| ev.dirty) {
                self.writeback_to_l2(ev.paddr, &mut wb);
            }
            let r2 = self.l2.access(paddr, false);
            if let Some(ev) = r2.evicted.filter(|ev| ev.dirty) {
                self.writeback_to_l3(ev.paddr, &mut wb);
            }
            if r2.hit {
                return HierarchyAccess {
                    level: HitLevel::L2,
                    latency: self.config.l2.latency,
                    writebacks: wb,
                    prefetch_fills: pf,
                };
            }
            let r3 = self.slices[self.router.slice_of(paddr)].access(paddr, false);
            if let Some(ev) = r3.evicted {
                self.back_invalidate(ev.paddr, ev.dirty, &mut wb);
            }
            let level = if r3.hit {
                HitLevel::L3
            } else {
                HitLevel::Memory
            };
            if level == HitLevel::Memory && self.config.prefetch == PrefetchPolicy::NextLine {
                let line = self.config.l3.line_bytes as u64;
                let next = (paddr & !(line - 1)) + line;
                let r3 = self.slices[self.router.slice_of(next)].access(next, false);
                if let Some(ev) = r3.evicted {
                    self.back_invalidate(ev.paddr, ev.dirty, &mut wb);
                }
                if !r3.hit {
                    pf.push(next);
                }
                let r2 = self.l2.access(next, false);
                if let Some(ev) = r2.evicted.filter(|ev| ev.dirty) {
                    self.writeback_to_l3(ev.paddr, &mut wb);
                }
            }
            HierarchyAccess {
                level,
                latency: self.config.l3.latency,
                writebacks: wb,
                prefetch_fills: pf,
            }
        }

        fn writeback_to_l2(&mut self, line: u64, wb: &mut Vec<u64>) {
            if let Some(ev) = self.l2.access(line, true).evicted.filter(|ev| ev.dirty) {
                self.writeback_to_l3(ev.paddr, wb);
            }
        }

        fn writeback_to_l3(&mut self, line: u64, wb: &mut Vec<u64>) {
            let slice = self.router.slice_of(line);
            if let Some(ev) = self.slices[slice].access(line, true).evicted {
                self.back_invalidate(ev.paddr, ev.dirty, wb);
            }
        }

        fn back_invalidate(&mut self, line: u64, l3_dirty: bool, wb: &mut Vec<u64>) {
            let d1 = self.l1.invalidate(line).unwrap_or(false);
            let d2 = self.l2.invalidate(line).unwrap_or(false);
            if l3_dirty || d1 || d2 {
                wb.push(line);
            }
        }

        fn clflush(&mut self, paddr: u64) -> Option<u64> {
            let d1 = self.l1.invalidate(paddr).unwrap_or(false);
            let d2 = self.l2.invalidate(paddr).unwrap_or(false);
            let slice = self.router.slice_of(paddr);
            let d3 = self.slices[slice].invalidate(paddr).unwrap_or(false);
            let line = paddr & !(self.config.l3.line_bytes as u64 - 1);
            (d1 || d2 || d3).then_some(line)
        }

        fn probe(&self, paddr: u64) -> Option<HitLevel> {
            if self.l1.probe(paddr) {
                Some(HitLevel::L1)
            } else if self.l2.probe(paddr) {
                Some(HitLevel::L2)
            } else if self.slices[self.router.slice_of(paddr)].probe(paddr) {
                Some(HitLevel::L3)
            } else {
                None
            }
        }

        fn stats(&self) -> (CacheStats, CacheStats, CacheStats) {
            let mut l3 = CacheStats::default();
            for s in &self.slices {
                let st = s.stats();
                l3.accesses += st.accesses;
                l3.hits += st.hits;
                l3.evictions += st.evictions;
                l3.dirty_evictions += st.dirty_evictions;
                l3.invalidations += st.invalidations;
            }
            (*self.l1.stats(), *self.l2.stats(), l3)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// For every policy at every level, with and without the
        /// next-line prefetcher: each access's hit level, latency,
        /// writebacks and prefetch fills, each CLFLUSH's writeback, probes
        /// and the final per-level stats match the reference. Each op is
        /// `(tag, line, write)` over a footprint about twice the tiny
        /// LLC: tags 0-12 access, 13 flushes, 14 probes.
        #[test]
        fn hierarchy_matches_entry_reference(
            prefetch in 0u32..2,
            ops in prop::collection::vec((0u32..15, 0u64..3_072, 0u32..3), 1..1_500),
        ) {
            for policy in POLICIES {
                let mut config = HierarchyConfig::tiny();
                config.l1.policy = policy;
                config.l2.policy = policy;
                config.l3.policy = policy;
                if prefetch == 1 {
                    config.prefetch = PrefetchPolicy::NextLine;
                }
                let mut h = CacheHierarchy::new(config);
                let mut reference = ReferenceHierarchy::new(config);
                for &(tag, line, w) in &ops {
                    let paddr = line * 64 + u64::from(w);
                    match tag {
                        0..=12 => prop_assert_eq!(
                            h.access(paddr, w == 0),
                            reference.access(paddr, w == 0),
                            "{} access {:#x}", policy, paddr
                        ),
                        13 => prop_assert_eq!(h.clflush(paddr), reference.clflush(paddr)),
                        _ => prop_assert_eq!(h.probe(paddr), reference.probe(paddr)),
                    }
                }
                prop_assert_eq!(h.stats(), reference.stats(), "{}", policy);
            }
        }
    }
}
