//! Eviction-set construction (paper Section 2.2).
//!
//! "We create an eviction set by first picking the aggressor address and
//! then using its physical address to find 12 more addresses with matching
//! cache set mappings ... Conflicting addresses will have the same cache
//! slice and cache set bits."

use crate::error::AttackError;
use anvil_cache::CacheHierarchy;
use anvil_mem::{PagemapPolicy, Process, PAGE_SIZE};

/// A set of virtual addresses that all map to the same LLC slice and set
/// as the target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictionSet {
    /// The aggressor address the set evicts.
    pub target_va: u64,
    /// Conflicting addresses (as many as the LLC has ways).
    pub conflict_vas: Vec<u64>,
}

impl EvictionSet {
    /// Number of conflict addresses.
    pub fn len(&self) -> usize {
        self.conflict_vas.len()
    }

    /// Whether the set has no conflicts.
    pub fn is_empty(&self) -> bool {
        self.conflict_vas.is_empty()
    }
}

/// Builds an eviction set of `ways` conflicts for `target_va` from the
/// attacker's arena, translating candidates through pagemap and matching
/// the (reverse-engineered) slice and set mapping of `hierarchy`.
///
/// # Errors
///
/// * [`AttackError::PagemapDenied`] under a restricted pagemap policy —
///   this is precisely why the Linux pagemap hardening hampers (but does
///   not stop; see the paper's discussion of side-channel alternatives)
///   the CLFLUSH-free attack.
/// * [`AttackError::EvictionSetTooSmall`] when the arena lacks enough
///   same-slice/same-set lines.
pub fn build_eviction_set(
    process: &Process,
    pagemap: PagemapPolicy,
    hierarchy: &CacheHierarchy,
    arena_va: u64,
    arena_len: u64,
    target_va: u64,
) -> Result<EvictionSet, AttackError> {
    let ways = hierarchy.llc_ways();
    let target_pa = process
        .pagemap(target_va, pagemap)?
        .expect("target must be mapped");
    let target_key = hierarchy.llc_set_of(target_pa);
    let target_line = target_pa & !63;

    let line_bytes = 64u64;
    let lines_per_page = PAGE_SIZE / line_bytes;
    // Within any page, only lines whose set index matches the target can
    // conflict; compute them directly instead of scanning every line.
    let mut conflicts = Vec::with_capacity(ways);
    let mut va = arena_va;
    'pages: while va < arena_va + arena_len {
        if let Some(page_pa) = process.pagemap(va, pagemap)? {
            for i in 0..lines_per_page {
                let pa = page_pa + i * line_bytes;
                if pa & !63 == target_line {
                    continue;
                }
                if hierarchy.llc_set_of(pa) == target_key {
                    conflicts.push(va + i * line_bytes);
                    if conflicts.len() == ways {
                        break 'pages;
                    }
                }
            }
        }
        va += PAGE_SIZE;
    }

    if conflicts.len() < ways {
        return Err(AttackError::EvictionSetTooSmall {
            found: conflicts.len(),
            needed: ways,
        });
    }
    Ok(EvictionSet {
        target_va,
        conflict_vas: conflicts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use anvil_cache::HierarchyConfig;
    use anvil_mem::{AllocationPolicy, FrameAllocator};

    fn setup() -> (Process, CacheHierarchy, u64, u64) {
        let hierarchy = CacheHierarchy::new(HierarchyConfig::sandy_bridge_i5_2540m());
        let mut frames = FrameAllocator::new(1 << 30, AllocationPolicy::Contiguous);
        let mut p = Process::new(1, "attacker");
        let len = 16 << 20;
        let va = p.mmap(len, &mut frames).unwrap();
        (p, hierarchy, va, len)
    }

    #[test]
    fn builds_full_set_with_matching_slice_and_set() {
        let (p, h, va, len) = setup();
        let target = va + 4096 + 128;
        let set = build_eviction_set(&p, PagemapPolicy::Open, &h, va, len, target).unwrap();
        assert_eq!(set.len(), h.llc_ways());
        let target_key = h.llc_set_of(p.translate(target).unwrap());
        for &c in &set.conflict_vas {
            let pa = p.translate(c).unwrap();
            assert_eq!(h.llc_set_of(pa), target_key, "conflict in wrong set");
            assert_ne!(pa & !63, p.translate(target).unwrap() & !63);
        }
    }

    #[test]
    fn conflicts_are_distinct_lines() {
        let (p, h, va, len) = setup();
        let target = va;
        let set = build_eviction_set(&p, PagemapPolicy::Open, &h, va, len, target).unwrap();
        let mut lines: Vec<u64> = set
            .conflict_vas
            .iter()
            .map(|&c| p.translate(c).unwrap() & !63)
            .collect();
        lines.sort_unstable();
        lines.dedup();
        assert_eq!(lines.len(), set.len());
    }

    #[test]
    fn restricted_pagemap_denies() {
        let (p, h, va, len) = setup();
        let err = build_eviction_set(&p, PagemapPolicy::Restricted, &h, va, len, va).unwrap_err();
        assert_eq!(err, AttackError::PagemapDenied);
    }

    #[test]
    fn small_arena_reports_shortfall() {
        let h = CacheHierarchy::new(HierarchyConfig::sandy_bridge_i5_2540m());
        let mut frames = FrameAllocator::new(1 << 30, AllocationPolicy::Contiguous);
        let mut p = Process::new(1, "a");
        // 256 KB arena: roughly 2 candidates per slice-set out of 12 needed.
        let len = 256 << 10;
        let va = p.mmap(len, &mut frames).unwrap();
        match build_eviction_set(&p, PagemapPolicy::Open, &h, va, len, va) {
            Err(AttackError::EvictionSetTooSmall { found, needed }) => {
                assert!(found < needed);
                assert_eq!(needed, 12);
            }
            other => panic!("expected shortfall, got {other:?}"),
        }
    }

    #[test]
    fn eviction_set_actually_evicts_through_the_hierarchy() {
        let (p, mut h, va, len) = setup();
        let target = va + 64;
        let set = build_eviction_set(&p, PagemapPolicy::Open, &h, va, len, target).unwrap();
        let target_pa = p.translate(target).unwrap();
        // Load target, then touch every conflict: inclusion forces the
        // target out of the whole hierarchy.
        h.access(target_pa, false);
        assert!(h.llc_probe(target_pa));
        for &c in &set.conflict_vas {
            h.access(p.translate(c).unwrap(), false);
        }
        assert!(
            !h.llc_probe(target_pa),
            "touching a full eviction set must evict the target"
        );
    }
}
