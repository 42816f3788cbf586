//! Process contexts: address spaces and the pagemap interface.

use crate::paging::{FrameAllocator, OutOfMemory, PageTable, PAGE_SHIFT, PAGE_SIZE};
use serde::{Deserialize, Serialize};

/// Whether unprivileged processes may read their own virtual-to-physical
/// mappings.
///
/// Models the Linux hardening the paper discusses (Section 5.2.1): "the
/// Linux kernel was updated to disallow the use of the pagemap interface
/// from the user space, as a measure to make it more difficult to do
/// double-sided rowhammering."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum PagemapPolicy {
    /// Pre-hardening kernels: any process can translate its addresses.
    #[default]
    Open,
    /// Hardened kernels: translation denied to user processes (the kernel
    /// — and therefore ANVIL — can still translate).
    Restricted,
}

/// Error: pagemap access denied by [`PagemapPolicy::Restricted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagemapDenied;

impl std::fmt::Display for PagemapDenied {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("pagemap access denied to user space")
    }
}

impl std::error::Error for PagemapDenied {}

/// A simulated process: a name, an address space, and an allocation cursor.
///
/// # Examples
///
/// ```
/// use anvil_mem::{AllocationPolicy, FrameAllocator, Process};
///
/// let mut frames = FrameAllocator::new(1 << 20, AllocationPolicy::Contiguous);
/// let mut p = Process::new(1, "victim");
/// let va = p.mmap(8192, &mut frames)?;
/// assert!(p.translate(va).is_some());
/// # Ok::<(), anvil_mem::OutOfMemory>(())
/// ```
#[derive(Debug)]
pub struct Process {
    pid: u32,
    name: String,
    table: PageTable,
    next_va: u64,
}

impl Process {
    /// Creates a process with an empty address space.
    pub fn new(pid: u32, name: impl Into<String>) -> Self {
        Process {
            pid,
            name: name.into(),
            table: PageTable::new(),
            // Leave VA 0 unmapped (null guard), like a real process image.
            next_va: 0x1_0000,
        }
    }

    /// Process id.
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// Process name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The process's page table — the `task_struct` analogue ANVIL samples
    /// to translate virtual addresses (Section 3.3).
    pub fn page_table(&self) -> &PageTable {
        &self.table
    }

    /// Maps `len` bytes (rounded up to whole pages) of fresh memory and
    /// returns the base virtual address.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] when the frame allocator is exhausted.
    pub fn mmap(&mut self, len: u64, frames: &mut FrameAllocator) -> Result<u64, OutOfMemory> {
        let pages = len.div_ceil(PAGE_SIZE).max(1);
        let base = self.next_va;
        for i in 0..pages {
            let pfn = frames.alloc()?;
            self.table.map((base >> PAGE_SHIFT) + i, pfn);
        }
        self.next_va = base + pages * PAGE_SIZE;
        Ok(base)
    }

    /// Maps existing physical frames into this address space (a shared
    /// mapping, as `mmap` of a shared file or library produces). Returns
    /// the base virtual address.
    ///
    /// This is the ingredient of Flush+Reload-style side channels: two
    /// processes sharing physical pages (paper Section 2.2 notes the
    /// CLFLUSH-free eviction technique extends Flush+Reload to
    /// environments without CLFLUSH).
    ///
    /// # Panics
    ///
    /// Panics if `pfns` is empty.
    pub fn mmap_shared(&mut self, pfns: &[u64]) -> u64 {
        assert!(!pfns.is_empty(), "shared mapping needs at least one frame");
        let base = self.next_va;
        for (i, &pfn) in pfns.iter().enumerate() {
            self.table.map((base >> PAGE_SHIFT) + i as u64, pfn);
        }
        self.next_va = base + pfns.len() as u64 * PAGE_SIZE;
        base
    }

    /// Kernel-side translation (always allowed; used by ANVIL).
    #[inline]
    pub fn translate(&self, vaddr: u64) -> Option<u64> {
        self.table.translate(vaddr)
    }

    /// Kernel-side translation subject to injected pagemap faults: the
    /// walk may fail outright (the sample becomes unresolvable) or return
    /// a stale frame — the races with reclaim and migration that a real
    /// software page-table walk is exposed to (see `anvil-faults`).
    pub fn translate_with_faults(
        &self,
        vaddr: u64,
        faults: &mut anvil_faults::TranslationInjector,
    ) -> Option<u64> {
        self.translate(vaddr).and_then(|paddr| faults.apply(paddr))
    }

    /// User-side translation through the pagemap interface; denied under
    /// [`PagemapPolicy::Restricted`].
    ///
    /// # Errors
    ///
    /// Returns [`PagemapDenied`] under a restricted policy.
    pub fn pagemap(&self, vaddr: u64, policy: PagemapPolicy) -> Result<Option<u64>, PagemapDenied> {
        match policy {
            PagemapPolicy::Open => Ok(self.translate(vaddr)),
            PagemapPolicy::Restricted => Err(PagemapDenied),
        }
    }

    /// Total mapped bytes.
    pub fn mapped_bytes(&self) -> u64 {
        self.table.mapped_pages() as u64 * PAGE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paging::AllocationPolicy;

    fn frames() -> FrameAllocator {
        FrameAllocator::new(1 << 22, AllocationPolicy::Contiguous)
    }

    #[test]
    fn mmap_maps_whole_pages() {
        let mut f = frames();
        let mut p = Process::new(1, "t");
        let va = p.mmap(1, &mut f).unwrap();
        assert_eq!(p.mapped_bytes(), PAGE_SIZE);
        assert!(p.translate(va).is_some());
        assert!(p.translate(va + PAGE_SIZE).is_none());
        let va2 = p.mmap(2 * PAGE_SIZE + 1, &mut f).unwrap();
        assert_eq!(p.mapped_bytes(), 4 * PAGE_SIZE);
        assert!(va2 > va);
    }

    #[test]
    fn contiguous_va_is_contiguous_pa() {
        let mut f = frames();
        let mut p = Process::new(1, "t");
        let va = p.mmap(4 * PAGE_SIZE, &mut f).unwrap();
        let pa0 = p.translate(va).unwrap();
        for i in 1..4 {
            assert_eq!(p.translate(va + i * PAGE_SIZE), Some(pa0 + i * PAGE_SIZE));
        }
    }

    #[test]
    fn separate_processes_get_disjoint_frames() {
        let mut f = frames();
        let mut a = Process::new(1, "a");
        let mut b = Process::new(2, "b");
        let va_a = a.mmap(PAGE_SIZE, &mut f).unwrap();
        let va_b = b.mmap(PAGE_SIZE, &mut f).unwrap();
        assert_ne!(a.translate(va_a), b.translate(va_b));
    }

    #[test]
    fn pagemap_respects_policy() {
        let mut f = frames();
        let mut p = Process::new(1, "attacker");
        let va = p.mmap(PAGE_SIZE, &mut f).unwrap();
        assert!(p.pagemap(va, PagemapPolicy::Open).unwrap().is_some());
        assert_eq!(p.pagemap(va, PagemapPolicy::Restricted), Err(PagemapDenied));
        // The kernel path is unaffected.
        assert!(p.translate(va).is_some());
    }

    #[test]
    fn translate_offset_within_page() {
        let mut f = frames();
        let mut p = Process::new(1, "t");
        let va = p.mmap(PAGE_SIZE, &mut f).unwrap();
        let pa = p.translate(va).unwrap();
        assert_eq!(p.translate(va + 123), Some(pa + 123));
    }

    /// Translation edge cases: every address outside the mapped arena —
    /// the null page, the guard gap below the first mapping, one byte
    /// past the end, and the top of the address space — is `None`.
    #[test]
    fn unmapped_edges_translate_to_none() {
        let mut f = frames();
        let mut p = Process::new(1, "t");
        let len = 3 * PAGE_SIZE;
        let va = p.mmap(len, &mut f).unwrap();
        assert_eq!(va, 0x1_0000);
        for vaddr in [
            0,
            1,
            0xfff,
            va - 1,
            va + len,
            u64::MAX,
            u64::MAX - PAGE_SIZE,
        ] {
            assert_eq!(p.translate(vaddr), None, "{vaddr:#x}");
        }
        assert!(p.translate(va + len - 1).is_some(), "last mapped byte");
    }

    /// A sample whose address the PEBS fault model corrupted (shifted by
    /// whole pages, wrapping at the top) resolves to `None` through the
    /// faulty walk whenever the shifted address leaves the arena.
    #[test]
    fn corrupt_sample_addresses_translate_to_none() {
        use anvil_faults::{
            FaultRng, PebsFaults, PebsInjector, SampleFate, TranslationFaults, TranslationInjector,
        };
        let mut f = frames();
        let mut p = Process::new(1, "t");
        let len = 2 * PAGE_SIZE;
        let va = p.mmap(len, &mut f).unwrap();
        let mut pebs = PebsInjector::new(
            PebsFaults {
                drop_rate: 0.0,
                burst_len: 0,
                corrupt_rate: 1.0,
            },
            FaultRng::new(7),
        );
        let mut walk = TranslationInjector::new(
            TranslationFaults {
                fail_rate: 0.0,
                stale_rate: 0.0,
            },
            FaultRng::new(8),
        );
        for vaddr in [va + len - 1, u64::MAX - 1, u64::MAX - 3 * PAGE_SIZE] {
            let SampleFate::Corrupt(bad) = pebs.on_sample(vaddr) else {
                panic!("corrupt_rate 1.0 corrupts every sample");
            };
            assert!(bad < va || bad >= va + len, "{bad:#x} left the arena");
            assert_eq!(p.translate_with_faults(bad, &mut walk), None, "{bad:#x}");
        }
    }
}
