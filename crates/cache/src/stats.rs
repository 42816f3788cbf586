//! Cache statistics.

use serde::{Deserialize, Serialize};

/// Hit/miss counters for one cache (or one hierarchy level).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups served by this cache.
    pub accesses: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Lines evicted to make room for fills.
    pub evictions: u64,
    /// Evicted lines that were dirty (required writeback).
    pub dirty_evictions: u64,
    /// Lines invalidated (CLFLUSH or inclusive back-invalidation).
    pub invalidations: u64,
}

impl CacheStats {
    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Miss ratio in [0, 1]; zero when no accesses.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let s = CacheStats {
            accesses: 10,
            hits: 7,
            ..Default::default()
        };
        assert_eq!(s.misses(), 3);
        assert!((s.miss_ratio() - 0.3).abs() < 1e-12);
        assert!(CacheStats::default().miss_ratio().abs() < f64::EPSILON);
    }
}
