//! Performance-monitoring events, named after the Intel events ANVIL
//! programs (paper Section 3.3).

use anvil_cache::HitLevel;
use serde::{Deserialize, Serialize};

/// A countable PMU event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// `LONGEST_LAT_CACHE.MISS` — all last-level cache misses (loads and
    /// stores). Drives ANVIL's stage-1 miss-rate check.
    LongestLatCacheMiss,
    /// `MEM_LOAD_UOPS_MISC_RETIRED.LLC_MISS` — retired loads that missed
    /// the LLC. ANVIL compares this with the total to choose which
    /// sampling facility to arm.
    MemLoadUopsRetiredLlcMiss,
}

impl std::fmt::Display for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EventKind::LongestLatCacheMiss => "LONGEST_LAT_CACHE.MISS",
            EventKind::MemLoadUopsRetiredLlcMiss => "MEM_LOAD_UOPS_MISC_RETIRED.LLC_MISS",
        };
        f.write_str(s)
    }
}

/// Where a sampled memory operation's data came from — the PEBS record's
/// "data source" field, which ANVIL uses "to ensure the load is accessing
/// DRAM".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DataSource {
    /// Served by the L1 data cache.
    L1,
    /// Served by the L2.
    L2,
    /// Served by the last-level cache.
    L3,
    /// Served by DRAM (an LLC miss).
    Dram,
}

impl DataSource {
    /// Whether the operation reached DRAM.
    pub fn is_dram(&self) -> bool {
        matches!(self, DataSource::Dram)
    }
}

impl From<HitLevel> for DataSource {
    #[inline]
    fn from(level: HitLevel) -> Self {
        match level {
            HitLevel::L1 => DataSource::L1,
            HitLevel::L2 => DataSource::L2,
            HitLevel::L3 => DataSource::L3,
            HitLevel::Memory => DataSource::Dram,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_source_from_level() {
        assert_eq!(DataSource::from(HitLevel::Memory), DataSource::Dram);
        assert!(DataSource::from(HitLevel::Memory).is_dram());
        assert!(!DataSource::from(HitLevel::L3).is_dram());
    }

    #[test]
    fn event_names_match_intel_manual() {
        assert_eq!(
            EventKind::LongestLatCacheMiss.to_string(),
            "LONGEST_LAT_CACHE.MISS"
        );
    }
}
