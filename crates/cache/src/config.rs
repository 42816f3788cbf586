//! Cache and hierarchy configuration.

use crate::policy::PolicyKind;
use serde::{Deserialize, Serialize};

/// Hardware prefetcher model.
///
/// Default `None` matches the paper's experiments (rowhammer attack code
/// deliberately defeats prefetchers with irregular strides, and the paper
/// does not model them); `NextLine` is provided for sensitivity studies —
/// prefetches are real DRAM traffic and therefore real activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum PrefetchPolicy {
    /// No prefetching (the evaluated configuration).
    #[default]
    None,
    /// On every demand LLC miss, also fetch the next line into L2/L3.
    NextLine,
}

/// Geometry and policy of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes (across all slices for the LLC).
    pub capacity_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Replacement policy.
    pub policy: PolicyKind,
    /// Access latency in CPU cycles (load-to-use on a hit at this level).
    pub latency: u64,
}

impl CacheConfig {
    /// Number of sets implied by capacity / ways / line size.
    pub fn sets(&self) -> usize {
        (self.capacity_bytes as usize) / (self.ways * self.line_bytes)
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.ways == 0 || self.line_bytes == 0 || self.capacity_bytes == 0 {
            return Err("cache dimensions must be non-zero".into());
        }
        if !self.line_bytes.is_power_of_two() {
            return Err("line size must be a power of two".into());
        }
        if self.line_bytes < 2 {
            return Err("line size must be at least two bytes".into());
        }
        if self.ways > 64 {
            return Err("associativity must be at most 64 ways".into());
        }
        let sets = self.sets();
        if sets == 0 {
            return Err("capacity too small for ways x line".into());
        }
        if !sets.is_power_of_two() {
            return Err(format!("set count must be a power of two, got {sets}"));
        }
        if sets * self.ways * self.line_bytes != self.capacity_bytes as usize {
            return Err("capacity not divisible into sets x ways x lines".into());
        }
        Ok(())
    }
}

/// Configuration of the whole three-level hierarchy.
///
/// The default models the paper's Intel Core i5-2540M (Sandy Bridge):
/// 32 KB 8-way L1D, 256 KB 8-way L2, and a 3 MB 12-way inclusive L3 split
/// into one slice per core (2 slices), with physical set indexing from
/// address bits 6..17 and latencies of 4 / 12 / 29 cycles (the paper's
/// Section 2.2 uses 26–31 cycles for the L3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// L1 data cache.
    pub l1: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Last-level cache (total, across slices).
    pub l3: CacheConfig,
    /// Number of LLC slices (one per core on Sandy Bridge).
    pub l3_slices: usize,
    /// Cost of a CLFLUSH instruction in cycles (beyond the subsequent
    /// memory accesses it causes).
    pub clflush_cost: u64,
    /// Hardware prefetcher.
    pub prefetch: PrefetchPolicy,
}

impl HierarchyConfig {
    /// The paper's Sandy Bridge i5-2540M.
    pub fn sandy_bridge_i5_2540m() -> Self {
        HierarchyConfig {
            l1: CacheConfig {
                capacity_bytes: 32 << 10,
                ways: 8,
                line_bytes: 64,
                policy: PolicyKind::TreePlru,
                latency: 4,
            },
            l2: CacheConfig {
                capacity_bytes: 256 << 10,
                ways: 8,
                line_bytes: 64,
                policy: PolicyKind::TreePlru,
                latency: 12,
            },
            l3: CacheConfig {
                capacity_bytes: 3 << 20,
                ways: 12,
                line_bytes: 64,
                policy: PolicyKind::BitPlru,
                latency: 29,
            },
            l3_slices: 2,
            clflush_cost: 40,
            prefetch: PrefetchPolicy::None,
        }
    }

    /// A small hierarchy for fast tests (16 KB L1, 32 KB L2, 96 KB
    /// 12-way L3 in 2 slices).
    pub fn tiny() -> Self {
        HierarchyConfig {
            l1: CacheConfig {
                capacity_bytes: 16 << 10,
                ways: 8,
                line_bytes: 64,
                policy: PolicyKind::TreePlru,
                latency: 4,
            },
            l2: CacheConfig {
                capacity_bytes: 32 << 10,
                ways: 8,
                line_bytes: 64,
                policy: PolicyKind::TreePlru,
                latency: 12,
            },
            l3: CacheConfig {
                capacity_bytes: 96 << 10,
                ways: 12,
                line_bytes: 64,
                policy: PolicyKind::BitPlru,
                latency: 29,
            },
            l3_slices: 2,
            clflush_cost: 40,
            prefetch: PrefetchPolicy::None,
        }
    }

    /// Checks internal consistency of all levels.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.l1.validate().map_err(|e| format!("L1: {e}"))?;
        self.l2.validate().map_err(|e| format!("L2: {e}"))?;
        self.l3.validate().map_err(|e| format!("L3: {e}"))?;
        if self.l3_slices == 0 || !self.l3_slices.is_power_of_two() {
            return Err("slice count must be a non-zero power of two".into());
        }
        let per_slice_sets = self.l3.sets() / self.l3_slices;
        if per_slice_sets == 0 || !per_slice_sets.is_power_of_two() {
            return Err("L3 sets per slice must be a non-zero power of two".into());
        }
        if self.l1.line_bytes != self.l2.line_bytes || self.l2.line_bytes != self.l3.line_bytes {
            return Err("all levels must share a line size".into());
        }
        if self.l3.capacity_bytes < self.l1.capacity_bytes + self.l2.capacity_bytes {
            return Err("inclusive L3 must be larger than L1+L2".into());
        }
        Ok(())
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::sandy_bridge_i5_2540m()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sandy_bridge_dimensions() {
        let c = HierarchyConfig::sandy_bridge_i5_2540m();
        c.validate().unwrap();
        assert_eq!(c.l1.sets(), 64);
        assert_eq!(c.l2.sets(), 512);
        assert_eq!(c.l3.sets(), 4096);
        assert_eq!(c.l3.sets() / c.l3_slices, 2048); // 11 index bits: PA 6..17
        assert_eq!(c.l3.ways, 12);
    }

    #[test]
    fn tiny_validates() {
        HierarchyConfig::tiny().validate().unwrap();
    }

    #[test]
    fn validation_catches_line_mismatch() {
        let mut c = HierarchyConfig::tiny();
        c.l1.line_bytes = 32;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_catches_non_inclusive_capacity() {
        let mut c = HierarchyConfig::tiny();
        c.l3.capacity_bytes = c.l1.capacity_bytes / 2;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_set_count() {
        let mut c = HierarchyConfig::tiny();
        c.l2.capacity_bytes = 48 << 10; // 96 sets: not a power of two
        assert!(c.validate().unwrap_err().contains("L2"));
    }
}
