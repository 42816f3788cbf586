//! A single set-associative cache.

use crate::config::CacheConfig;
use crate::policy::{Policy, ReplacementPolicy};
use crate::stats::CacheStats;

/// The line-address word of a way that holds no line. Line addresses
/// (physical address >> line shift) never reach it because lines are at
/// least two bytes wide (see [`CacheConfig::validate`]).
const EMPTY: u64 = u64::MAX;

/// A line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Physical address of the evicted line (line-aligned).
    pub paddr: u64,
    /// Whether the line was dirty (needs writeback).
    pub dirty: bool,
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the lookup hit.
    pub hit: bool,
    /// A line evicted to make room for the fill (miss path only).
    pub evicted: Option<Evicted>,
}

/// A physically indexed set-associative cache with a pluggable
/// replacement policy.
///
/// Lookups are by physical address; on a miss the line is filled
/// (write-allocate) and the displaced line, if any, is reported so the
/// owner can maintain inclusion or write back dirty data.
///
/// # Examples
///
/// ```
/// use anvil_cache::{Cache, CacheConfig, PolicyKind};
///
/// let mut c = Cache::new(CacheConfig {
///     capacity_bytes: 4096,
///     ways: 4,
///     line_bytes: 64,
///     policy: PolicyKind::TrueLru,
///     latency: 4,
/// });
/// assert!(!c.access(0x80, false).hit);
/// assert!(c.access(0x80, false).hit);
/// ```
#[derive(Debug)]
pub struct Cache {
    sets: usize,
    ways: usize,
    line_shift: u32,
    latency: u64,
    /// The line address held by each (set, way), set-major, or [`EMPTY`]:
    /// eight bytes per way, so a lookup compares whole words with no
    /// separate valid flag.
    lines: Vec<u64>,
    /// Per-set bitmask of dirty ways (a clear way is never dirty).
    dirty: Vec<u64>,
    /// Number of [`EMPTY`] ways across all sets. Once every set is full
    /// (zero), a miss goes straight to the victim without scanning its
    /// set for an empty way.
    empty: usize,
    policy: Policy,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CacheConfig::validate`].
    pub fn new(config: CacheConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid cache config: {e}"));
        let sets = config.sets();
        Cache {
            sets,
            ways: config.ways,
            line_shift: config.line_bytes.trailing_zeros(),
            latency: config.latency,
            lines: vec![EMPTY; sets * config.ways],
            dirty: vec![0; sets],
            empty: sets * config.ways,
            policy: config.policy.build(sets, config.ways),
            stats: CacheStats::default(),
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Hit latency in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> usize {
        1 << self.line_shift
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The set index `paddr` maps to.
    pub fn set_of(&self, paddr: u64) -> usize {
        ((paddr >> self.line_shift) & (self.sets as u64 - 1)) as usize
    }

    fn line_of(&self, paddr: u64) -> u64 {
        paddr >> self.line_shift
    }

    /// The ways of `set`.
    fn set_lines(&self, set: usize) -> &[u64] {
        &self.lines[set * self.ways..(set + 1) * self.ways]
    }

    /// The way of `set` holding `line`. Every way is compared and the
    /// matching way's number (from 1) summed: a set holds a line at most
    /// once, so the sum is that way plus one, or 0 on a miss. The scan
    /// has no branch on where the line sits, which is as good as random
    /// on every level, and it compiles to a few vector compares.
    fn find(&self, set: usize, line: u64) -> Option<usize> {
        let way_plus_one: usize = self
            .set_lines(set)
            .iter()
            .zip(1..)
            .map(|(&l, w)| if l == line { w } else { 0 })
            .sum();
        way_plus_one.checked_sub(1)
    }

    /// Looks up `paddr`, filling on a miss. `write` marks the line dirty.
    pub fn access(&mut self, paddr: u64, write: bool) -> CacheAccess {
        let line = self.line_of(paddr);
        let set = self.set_of(paddr);
        self.stats.accesses = self.stats.accesses.saturating_add(1);

        if let Some(way) = self.find(set, line) {
            self.stats.hits = self.stats.hits.saturating_add(1);
            self.policy.on_hit(set, way);
            if write {
                self.dirty[set] |= 1 << way;
            }
            return CacheAccess {
                hit: true,
                evicted: None,
            };
        }

        // Miss: prefer an empty way, otherwise ask the policy.
        let empty_way = if self.empty == 0 {
            None
        } else {
            self.set_lines(set).iter().position(|&l| l == EMPTY)
        };
        let (way, evicted) = if let Some(w) = empty_way {
            self.empty -= 1;
            (w, None)
        } else {
            let w = self.policy.victim(set);
            debug_assert!(w < self.ways, "policy returned way out of range");
            let old = self.lines[set * self.ways + w];
            let dirty = self.dirty[set] & (1 << w) != 0;
            self.stats.evictions = self.stats.evictions.saturating_add(1);
            if dirty {
                self.stats.dirty_evictions = self.stats.dirty_evictions.saturating_add(1);
            }
            (
                w,
                Some(Evicted {
                    paddr: old << self.line_shift,
                    dirty,
                }),
            )
        };
        self.lines[set * self.ways + way] = line;
        if write {
            self.dirty[set] |= 1 << way;
        } else {
            self.dirty[set] &= !(1 << way);
        }
        self.policy.on_fill(set, way);
        CacheAccess {
            hit: false,
            evicted,
        }
    }

    /// Whether `paddr`'s line is present, without touching any state.
    pub fn probe(&self, paddr: u64) -> bool {
        self.find(self.set_of(paddr), self.line_of(paddr)).is_some()
    }

    /// Invalidates `paddr`'s line if present. Returns the line's dirty
    /// flag (`Some(dirty)`) or `None` if it was not cached.
    pub fn invalidate(&mut self, paddr: u64) -> Option<bool> {
        let set = self.set_of(paddr);
        let way = self.find(set, self.line_of(paddr))?;
        Some(self.clear_way(set, way))
    }

    /// Empties `way` of `set`, which holds a line, returning whether it
    /// was dirty.
    fn clear_way(&mut self, set: usize, way: usize) -> bool {
        self.lines[set * self.ways + way] = EMPTY;
        self.empty += 1;
        let dirty = self.dirty[set] & (1 << way) != 0;
        self.dirty[set] &= !(1 << way);
        self.stats.invalidations = self.stats.invalidations.saturating_add(1);
        self.policy.on_invalidate(set, way);
        dirty
    }

    /// Invalidates every line, returning the dirty ones' addresses.
    pub fn flush_all(&mut self) -> Vec<u64> {
        let mut dirty = Vec::new();
        for set in 0..self.sets {
            for way in 0..self.ways {
                let line = self.lines[set * self.ways + way];
                if line != EMPTY && self.clear_way(set, way) {
                    dirty.push(line << self.line_shift);
                }
            }
        }
        dirty
    }

    /// Number of valid lines currently resident (diagnostic).
    pub fn resident_lines(&self) -> usize {
        self.lines.len() - self.empty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;

    fn small(policy: PolicyKind) -> Cache {
        Cache::new(CacheConfig {
            capacity_bytes: 2048, // 8 sets x 4 ways x 64 B
            ways: 4,
            line_bytes: 64,
            policy,
            latency: 4,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small(PolicyKind::TrueLru);
        assert!(!c.access(0x1000, false).hit);
        assert!(c.access(0x1000, false).hit);
        assert!(c.access(0x1004, false).hit, "same line, different offset");
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn eviction_when_set_full() {
        let mut c = small(PolicyKind::TrueLru);
        // 5 lines mapping to set 0 (stride = sets * line = 512 B).
        for i in 0..4u64 {
            assert!(c.access(i * 512, false).evicted.is_none());
        }
        let r = c.access(4 * 512, false);
        assert!(!r.hit);
        assert_eq!(
            r.evicted,
            Some(Evicted {
                paddr: 0,
                dirty: false
            })
        );
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small(PolicyKind::TrueLru);
        c.access(0, true); // dirty
        for i in 1..4u64 {
            c.access(i * 512, false);
        }
        let r = c.access(4 * 512, false);
        assert!(r.evicted.unwrap().dirty);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small(PolicyKind::TrueLru);
        c.access(0, false);
        c.access(0, true);
        for i in 1..4u64 {
            c.access(i * 512, false);
        }
        assert!(c.access(4 * 512, false).evicted.unwrap().dirty);
    }

    #[test]
    fn invalidate_then_miss() {
        let mut c = small(PolicyKind::BitPlru);
        c.access(0x40, true);
        assert_eq!(c.invalidate(0x40), Some(true));
        assert_eq!(c.invalidate(0x40), None);
        assert!(!c.probe(0x40));
        assert!(!c.access(0x40, false).hit);
    }

    #[test]
    fn invalid_way_preferred_over_eviction() {
        let mut c = small(PolicyKind::TrueLru);
        for i in 0..4u64 {
            c.access(i * 512, false);
        }
        c.invalidate(512);
        let r = c.access(4 * 512, false);
        assert!(r.evicted.is_none(), "fill must reuse the invalidated way");
        assert_eq!(c.resident_lines(), 4);
    }

    #[test]
    fn flush_all_returns_dirty_lines() {
        let mut c = small(PolicyKind::TrueLru);
        c.access(0, true);
        c.access(512, false);
        let dirty = c.flush_all();
        assert_eq!(dirty, vec![0]);
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn probe_does_not_change_state() {
        let mut c = small(PolicyKind::TrueLru);
        c.access(0, false);
        let before = *c.stats();
        assert!(c.probe(0));
        assert!(!c.probe(0x40 * 100));
        assert_eq!(*c.stats(), before);
    }

    #[test]
    fn set_mapping_uses_low_line_bits() {
        let c = small(PolicyKind::TrueLru);
        assert_eq!(c.set_of(0), 0);
        assert_eq!(c.set_of(64), 1);
        assert_eq!(c.set_of(64 * 8), 0);
    }
}

/// The representations the word-per-way [`Cache`] and the bitmask
/// [`TreePlru`](crate::policy::TreePlru) replaced, kept as reference
/// models: a cache of 16-byte `{line, valid, dirty}` entries with a
/// separate empty-way scan, and a Tree-PLRU of one `bool` per tree node
/// walked level by level.
#[cfg(test)]
pub(crate) mod reference {
    use crate::cache::{CacheAccess, Evicted};
    use crate::config::CacheConfig;
    use crate::policy::{PolicyKind, ReplacementPolicy};
    use crate::stats::CacheStats;

    #[derive(Debug, Clone, Copy)]
    struct Entry {
        line: u64,
        valid: bool,
        dirty: bool,
    }

    const INVALID: Entry = Entry {
        line: 0,
        valid: false,
        dirty: false,
    };

    /// The entry-array cache.
    #[derive(Debug)]
    pub(crate) struct EntryCache {
        sets: usize,
        ways: usize,
        line_shift: u32,
        entries: Vec<Entry>,
        policy: Box<dyn ReplacementPolicy>,
        stats: CacheStats,
    }

    impl EntryCache {
        pub(crate) fn new(config: CacheConfig) -> Self {
            let sets = config.sets();
            let policy: Box<dyn ReplacementPolicy> = match config.policy {
                PolicyKind::TreePlru => Box::new(BoolTreePlru::new(sets, config.ways)),
                kind => Box::new(kind.build(sets, config.ways)),
            };
            EntryCache {
                sets,
                ways: config.ways,
                line_shift: config.line_bytes.trailing_zeros(),
                entries: vec![INVALID; sets * config.ways],
                policy,
                stats: CacheStats::default(),
            }
        }

        pub(crate) fn stats(&self) -> &CacheStats {
            &self.stats
        }

        fn set_of(&self, paddr: u64) -> usize {
            ((paddr >> self.line_shift) & (self.sets as u64 - 1)) as usize
        }

        fn find(&self, set: usize, line: u64) -> Option<usize> {
            let base = set * self.ways;
            (0..self.ways).find(|&w| {
                let e = &self.entries[base + w];
                e.valid && e.line == line
            })
        }

        pub(crate) fn access(&mut self, paddr: u64, write: bool) -> CacheAccess {
            let line = paddr >> self.line_shift;
            let set = self.set_of(paddr);
            let base = set * self.ways;
            self.stats.accesses += 1;
            if let Some(way) = self.find(set, line) {
                self.stats.hits += 1;
                self.policy.on_hit(set, way);
                if write {
                    self.entries[base + way].dirty = true;
                }
                return CacheAccess {
                    hit: true,
                    evicted: None,
                };
            }
            let (way, evicted) =
                if let Some(w) = (0..self.ways).find(|&w| !self.entries[base + w].valid) {
                    (w, None)
                } else {
                    let w = self.policy.victim(set);
                    let old = self.entries[base + w];
                    self.stats.evictions += 1;
                    if old.dirty {
                        self.stats.dirty_evictions += 1;
                    }
                    (
                        w,
                        Some(Evicted {
                            paddr: old.line << self.line_shift,
                            dirty: old.dirty,
                        }),
                    )
                };
            self.entries[base + way] = Entry {
                line,
                valid: true,
                dirty: write,
            };
            self.policy.on_fill(set, way);
            CacheAccess {
                hit: false,
                evicted,
            }
        }

        pub(crate) fn probe(&self, paddr: u64) -> bool {
            self.find(self.set_of(paddr), paddr >> self.line_shift)
                .is_some()
        }

        pub(crate) fn invalidate(&mut self, paddr: u64) -> Option<bool> {
            let set = self.set_of(paddr);
            let way = self.find(set, paddr >> self.line_shift)?;
            let e = &mut self.entries[set * self.ways + way];
            let dirty = e.dirty;
            *e = INVALID;
            self.stats.invalidations += 1;
            self.policy.on_invalidate(set, way);
            Some(dirty)
        }

        pub(crate) fn flush_all(&mut self) -> Vec<u64> {
            let mut dirty = Vec::new();
            for set in 0..self.sets {
                for way in 0..self.ways {
                    let e = &mut self.entries[set * self.ways + way];
                    if e.valid {
                        if e.dirty {
                            dirty.push(e.line << self.line_shift);
                        }
                        *e = INVALID;
                        self.stats.invalidations += 1;
                        self.policy.on_invalidate(set, way);
                    }
                }
            }
            dirty
        }

        pub(crate) fn resident_lines(&self) -> usize {
            self.entries.iter().filter(|e| e.valid).count()
        }
    }

    /// The `bool`-per-node Tree-PLRU.
    #[derive(Debug)]
    struct BoolTreePlru {
        ways: usize,
        cap: usize,
        bits: Vec<bool>,
    }

    impl BoolTreePlru {
        fn new(sets: usize, ways: usize) -> Self {
            let cap = ways.next_power_of_two();
            BoolTreePlru {
                ways,
                cap,
                bits: vec![false; sets * (cap - 1).max(1)],
            }
        }

        fn levels(&self) -> usize {
            self.cap.trailing_zeros() as usize
        }

        fn touch(&mut self, set: usize, way: usize) {
            if self.cap == 1 {
                return;
            }
            let base = set * (self.cap - 1);
            let mut node = 0usize;
            for level in (0..self.levels()).rev() {
                let bit = (way >> level) & 1;
                self.bits[base + node] = bit == 0;
                node = 2 * node + 1 + bit;
            }
        }
    }

    impl ReplacementPolicy for BoolTreePlru {
        fn on_hit(&mut self, set: usize, way: usize) {
            self.touch(set, way);
        }

        fn on_fill(&mut self, set: usize, way: usize) {
            self.touch(set, way);
        }

        fn victim(&mut self, set: usize) -> usize {
            if self.cap == 1 {
                return 0;
            }
            let base = set * (self.cap - 1);
            let mut node = 0usize;
            let mut lo = 0usize;
            let mut size = self.cap;
            for _ in 0..self.levels() {
                size /= 2;
                let mut dir = usize::from(self.bits[base + node]);
                if dir == 1 && lo + size >= self.ways {
                    dir = 0;
                }
                lo += dir * size;
                node = 2 * node + 1 + dir;
            }
            lo
        }

        fn name(&self) -> &'static str {
            "tree-plru"
        }
    }

    /// Every policy, the random one included: its victims follow a seeded
    /// stream, identical in both models.
    pub(crate) const POLICIES: [PolicyKind; 6] = [
        PolicyKind::TrueLru,
        PolicyKind::BitPlru,
        PolicyKind::Nru,
        PolicyKind::TreePlru,
        PolicyKind::Srrip,
        PolicyKind::Random { seed: 0x5eed },
    ];
}

#[cfg(test)]
mod reference_tests {
    use super::reference::{EntryCache, POLICIES};
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The word-per-way cache and the entry-array reference agree on
        /// every observable — hit, evicted line and its dirty bit,
        /// invalidation results, flushed lines, probes, resident count and
        /// all stats — for every policy, at power-of-two and 12-way
        /// associativity, under arbitrary access / invalidate / flush_all
        /// sequences. Each op is `(tag, line, write)`: tags 0-11 access
        /// (mostly reads), 12 invalidates, 13 flushes everything, 14
        /// probes.
        #[test]
        fn word_cache_matches_entry_reference(
            ways_pick in 0usize..3,
            ops in prop::collection::vec((0u32..15, 0u64..96, 0u32..4), 1..400),
        ) {
            let ways = [4, 8, 12][ways_pick];
            for policy in POLICIES {
                let config = CacheConfig {
                    capacity_bytes: (8 * ways * 64) as u64,
                    ways,
                    line_bytes: 64,
                    policy,
                    latency: 4,
                };
                let mut cache = Cache::new(config);
                let mut reference = EntryCache::new(config);
                for &(tag, line, w) in &ops {
                    let paddr = line * 64 + u64::from(w) * 8;
                    match tag {
                        0..=11 => prop_assert_eq!(
                            cache.access(paddr, w == 0),
                            reference.access(paddr, w == 0),
                            "{} access {:#x}", policy, paddr
                        ),
                        12 => prop_assert_eq!(cache.invalidate(paddr), reference.invalidate(paddr)),
                        13 => prop_assert_eq!(cache.flush_all(), reference.flush_all()),
                        _ => prop_assert_eq!(cache.probe(paddr), reference.probe(paddr)),
                    }
                }
                prop_assert_eq!(cache.stats(), reference.stats(), "{}", policy);
                prop_assert_eq!(cache.resident_lines(), reference.resident_lines());
            }
        }
    }
}
