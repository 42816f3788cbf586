//! Virtual memory: frame allocation and per-process page tables.
//!
//! The CLFLUSH-free attack "uses the Linux /proc/pagemap utility to convert
//! virtual addresses to physical addresses in order to create conflicting
//! LLC access patterns" (Section 2.3), and ANVIL itself translates sampled
//! virtual addresses through the owning process's descriptor (Section 3.3).
//! Both need a virtual-memory substrate; this module provides 4 KB paging
//! with pluggable frame-allocation policies.

use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Page size used throughout (4 KB, as on the paper's test system).
pub const PAGE_SIZE: u64 = 4096;
/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;

/// How physical frames are handed out to new mappings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AllocationPolicy {
    /// Sequential frames: virtually contiguous regions are physically
    /// contiguous (the easy case for attackers; models a freshly booted
    /// machine or transparent huge pages).
    Contiguous,
    /// Pseudo-random frames (seeded): models a fragmented system, where
    /// the attacker genuinely needs pagemap to find same-bank rows.
    Randomized {
        /// Seed for the frame permutation.
        seed: u64,
    },
}

/// Hands out physical frames, never the same frame twice.
#[derive(Debug)]
pub struct FrameAllocator {
    policy: AllocationPolicy,
    total_frames: u64,
    next: u64,
    used: HashSet<u64>,
    state: u64,
}

impl FrameAllocator {
    /// Creates an allocator over a physical memory of `capacity_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if capacity is smaller than one page.
    pub fn new(capacity_bytes: u64, policy: AllocationPolicy) -> Self {
        assert!(capacity_bytes >= PAGE_SIZE, "capacity below one page");
        FrameAllocator {
            policy,
            total_frames: capacity_bytes / PAGE_SIZE,
            next: 0,
            used: HashSet::new(),
            state: match policy {
                AllocationPolicy::Contiguous => 0,
                AllocationPolicy::Randomized { seed } => seed | 1,
            },
        }
    }

    /// Frames not yet allocated.
    pub fn free_frames(&self) -> u64 {
        self.total_frames - self.used.len() as u64
    }

    /// Allocates one frame, returning its frame number (physical address
    /// >> [`PAGE_SHIFT`]).
    ///
    /// # Errors
    ///
    /// Returns `Err` when physical memory is exhausted.
    pub fn alloc(&mut self) -> Result<u64, OutOfMemory> {
        if self.used.len() as u64 >= self.total_frames {
            return Err(OutOfMemory);
        }
        let frame = match self.policy {
            AllocationPolicy::Contiguous => {
                while self.used.contains(&self.next) {
                    self.next = (self.next + 1) % self.total_frames;
                }
                self.next
            }
            AllocationPolicy::Randomized { .. } => loop {
                // xorshift64*; skip used frames.
                let mut x = self.state;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                self.state = x;
                let f = x.wrapping_mul(0x2545_f491_4f6c_dd1d) % self.total_frames;
                if !self.used.contains(&f) {
                    break f;
                }
            },
        };
        self.used.insert(frame);
        Ok(frame)
    }

    /// Returns a frame to the pool.
    pub fn free(&mut self, frame: u64) {
        self.used.remove(&frame);
    }
}

/// Error: physical memory exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory;

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("out of physical memory")
    }
}

impl std::error::Error for OutOfMemory {}

/// Frame-number sentinel marking a virtual page that is not mapped.
const UNMAPPED: u64 = u64::MAX;

/// A single-level page table mapping virtual page numbers to frames.
///
/// Dense: one frame number per virtual page, indexed by `vpn - base`,
/// covering the span from the lowest to the highest mapped page. A
/// process's mappings are one contiguous run upward from its first
/// `mmap` (see [`Process`](crate::Process)), so the span is exactly the
/// mapped pages and a translation is one subtraction and one array
/// read, with no hashing. Memory is proportional to the span, not to the
/// mapped count, so tables are meant for compact address spaces.
#[derive(Debug, Default, Clone)]
pub struct PageTable {
    /// The virtual page number `frames[0]` maps.
    base: u64,
    /// `frames[vpn - base]`: the frame of `vpn`, or [`UNMAPPED`].
    frames: Vec<u64>,
    /// Number of entries that are not [`UNMAPPED`].
    mapped: usize,
}

impl PageTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maps virtual page `vpn` to physical frame `pfn`.
    ///
    /// # Panics
    ///
    /// Panics if `vpn` is already mapped (the simulator has no demand
    /// remapping) or `pfn` is `u64::MAX` (no such frame exists).
    pub fn map(&mut self, vpn: u64, pfn: u64) {
        assert!(pfn != UNMAPPED, "pfn {pfn:#x} out of range");
        if self.frames.is_empty() {
            self.base = vpn;
        } else if vpn < self.base {
            // Grow downward: shift the existing span up.
            let grow = usize::try_from(self.base - vpn).expect("span fits in memory");
            self.frames
                .splice(0..0, std::iter::repeat_n(UNMAPPED, grow));
            self.base = vpn;
        }
        let i = usize::try_from(vpn - self.base).expect("span fits in memory");
        if i >= self.frames.len() {
            self.frames.resize(i + 1, UNMAPPED);
        }
        let slot = &mut self.frames[i];
        assert!(*slot == UNMAPPED, "vpn {vpn:#x} double-mapped");
        *slot = pfn;
        self.mapped += 1;
    }

    /// Removes the mapping for `vpn`, returning the frame it covered.
    pub fn unmap(&mut self, vpn: u64) -> Option<u64> {
        let slot = self.slot_mut(vpn)?;
        let pfn = std::mem::replace(slot, UNMAPPED);
        (pfn != UNMAPPED).then(|| {
            self.mapped -= 1;
            pfn
        })
    }

    /// The frame `vpn` maps to, if any.
    #[inline]
    fn frame(&self, vpn: u64) -> Option<u64> {
        let i = usize::try_from(vpn.checked_sub(self.base)?).ok()?;
        self.frames.get(i).copied().filter(|&pfn| pfn != UNMAPPED)
    }

    fn slot_mut(&mut self, vpn: u64) -> Option<&mut u64> {
        let i = usize::try_from(vpn.checked_sub(self.base)?).ok()?;
        self.frames.get_mut(i)
    }

    /// Translates a virtual address to physical. Addresses outside every
    /// mapping — including the null page and `u64::MAX` — return `None`.
    #[inline]
    pub fn translate(&self, vaddr: u64) -> Option<u64> {
        let pfn = self.frame(vaddr >> PAGE_SHIFT)?;
        Some((pfn << PAGE_SHIFT) | (vaddr & (PAGE_SIZE - 1)))
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.mapped
    }

    /// Iterates over (vpn, pfn) pairs in ascending vpn order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (self.base..)
            .zip(&self.frames)
            .filter(|&(_, &pfn)| pfn != UNMAPPED)
            .map(|(vpn, &pfn)| (vpn, pfn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_allocation_is_sequential() {
        let mut a = FrameAllocator::new(16 * PAGE_SIZE, AllocationPolicy::Contiguous);
        assert_eq!(a.alloc().unwrap(), 0);
        assert_eq!(a.alloc().unwrap(), 1);
        a.free(0);
        // Freed frames are reused only after wrapping.
        assert_eq!(a.alloc().unwrap(), 2);
    }

    #[test]
    fn randomized_allocation_is_a_permutation() {
        let mut a = FrameAllocator::new(64 * PAGE_SIZE, AllocationPolicy::Randomized { seed: 5 });
        let mut seen = HashSet::new();
        for _ in 0..64 {
            assert!(seen.insert(a.alloc().unwrap()), "duplicate frame");
        }
        assert_eq!(a.alloc(), Err(OutOfMemory));
    }

    #[test]
    fn randomized_is_deterministic_per_seed() {
        let mut a = FrameAllocator::new(64 * PAGE_SIZE, AllocationPolicy::Randomized { seed: 5 });
        let mut b = FrameAllocator::new(64 * PAGE_SIZE, AllocationPolicy::Randomized { seed: 5 });
        for _ in 0..10 {
            assert_eq!(a.alloc().unwrap(), b.alloc().unwrap());
        }
    }

    #[test]
    fn exhaustion_reports_oom() {
        let mut a = FrameAllocator::new(2 * PAGE_SIZE, AllocationPolicy::Contiguous);
        a.alloc().unwrap();
        a.alloc().unwrap();
        assert_eq!(a.alloc(), Err(OutOfMemory));
        a.free(1);
        assert!(a.alloc().is_ok());
    }

    #[test]
    fn translate_splits_offset() {
        let mut t = PageTable::new();
        t.map(0x10, 0x99);
        assert_eq!(t.translate(0x10_123), Some(0x99_123));
        assert_eq!(t.translate(0x11_000), None);
    }

    #[test]
    fn unmap_removes() {
        let mut t = PageTable::new();
        t.map(1, 2);
        assert_eq!(t.unmap(1), Some(2));
        assert_eq!(t.translate(PAGE_SIZE), None);
    }

    #[test]
    #[should_panic(expected = "double-mapped")]
    fn double_map_panics() {
        let mut t = PageTable::new();
        t.map(1, 2);
        t.map(1, 3);
    }

    #[test]
    fn translate_outside_the_span_is_none() {
        let mut t = PageTable::new();
        t.map(0x10, 0x99);
        t.map(0x11, 0x9a);
        for vaddr in [0, 0xfff, 0xf_fff, 0x12_000, u64::MAX, u64::MAX - PAGE_SIZE] {
            assert_eq!(t.translate(vaddr), None, "{vaddr:#x}");
        }
        assert_eq!(PageTable::new().translate(0), None);
    }

    #[test]
    fn maps_below_the_span_and_iterates_in_order() {
        let mut t = PageTable::new();
        t.map(0x20, 7);
        t.map(0x1e, 5);
        t.map(0x23, 9);
        assert_eq!(t.translate(0x1e_004), Some(0x5_004));
        assert_eq!(t.translate(0x1f_000), None, "hole inside the span");
        assert_eq!(t.mapped_pages(), 3);
        let pairs: Vec<_> = t.iter().collect();
        assert_eq!(pairs, vec![(0x1e, 5), (0x20, 7), (0x23, 9)]);
        assert_eq!(t.unmap(0x1f), None, "holes unmap to nothing");
        assert_eq!(t.unmap(0x1e), Some(5));
        assert_eq!(t.mapped_pages(), 2);
        t.map(0x1e, 6);
        assert_eq!(t.translate(0x1e_000), Some(0x6_000));
    }
}

/// The hashed table the dense [`PageTable`] replaced, kept as a reference
/// model: both must translate, map, unmap and count identically under
/// arbitrary operation sequences.
#[cfg(test)]
mod reference_model {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[derive(Default)]
    struct HashMapTable {
        entries: HashMap<u64, u64>,
    }

    impl HashMapTable {
        /// Maps an unmapped page; returns false (and changes nothing) for
        /// a mapped one, where the dense table would panic.
        fn map(&mut self, vpn: u64, pfn: u64) -> bool {
            if self.entries.contains_key(&vpn) {
                return false;
            }
            self.entries.insert(vpn, pfn);
            true
        }

        fn translate(&self, vaddr: u64) -> Option<u64> {
            let pfn = self.entries.get(&(vaddr >> PAGE_SHIFT))?;
            Some((pfn << PAGE_SHIFT) | (vaddr & (PAGE_SIZE - 1)))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Each op is `(tag, vpn offset, pfn, page offset)`: tags 0-5 map
        /// (skipping already-mapped pages, which both tables reject),
        /// 6-7 unmap, 8-9 translate. VPNs sit near a base that varies per
        /// case, so the dense table grows both up and down.
        #[test]
        fn dense_table_matches_hashmap_reference(
            base in 0u64..1 << 20,
            ops in prop::collection::vec((0u32..10, 0u64..96, 0u64..1 << 30, 0u64..PAGE_SIZE), 1..300),
        ) {
            let mut dense = PageTable::new();
            let mut reference = HashMapTable::default();
            for &(tag, off, pfn, byte) in &ops {
                let vpn = (base + off).saturating_sub(32);
                match tag {
                    0..=5 => {
                        if reference.map(vpn, pfn) {
                            dense.map(vpn, pfn);
                        }
                    }
                    6 | 7 => prop_assert_eq!(dense.unmap(vpn), reference.entries.remove(&vpn)),
                    _ => {
                        let vaddr = (vpn << PAGE_SHIFT) | byte;
                        prop_assert_eq!(dense.translate(vaddr), reference.translate(vaddr));
                    }
                }
                prop_assert_eq!(dense.mapped_pages(), reference.entries.len());
            }
            let mut want: Vec<(u64, u64)> = reference.entries.iter().map(|(&v, &p)| (v, p)).collect();
            want.sort_unstable();
            prop_assert_eq!(dense.iter().collect::<Vec<_>>(), want);
            for probe in [0, u64::MAX, base << PAGE_SHIFT, (base + 200) << PAGE_SHIFT] {
                prop_assert_eq!(dense.translate(probe), reference.translate(probe));
            }
        }
    }
}
