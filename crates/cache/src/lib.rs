#![warn(missing_docs)]

//! # anvil-cache
//!
//! Set-associative cache hierarchy simulator for the ANVIL (ASPLOS 2016)
//! reproduction: the Sandy Bridge i5-2540M three-level hierarchy with an
//! inclusive, sliced, Bit-PLRU last-level cache, CLFLUSH, a zoo of
//! replacement policies, and the replacement-policy fingerprinting
//! methodology from the paper's Section 2.2.
//!
//! The CLFLUSH-free rowhammer attack is entirely a cache phenomenon: the
//! attacker evicts the aggressor lines from an inclusive LLC by touching
//! conflicting addresses in an order tailored to the Bit-PLRU policy, so
//! every re-access of the aggressors reaches DRAM. This crate provides
//! the substrate on which that attack (in `anvil-attacks`) operates.
//!
//! ## Quick start
//!
//! ```
//! use anvil_cache::{CacheHierarchy, HierarchyConfig, HitLevel};
//!
//! let mut h = CacheHierarchy::new(HierarchyConfig::sandy_bridge_i5_2540m());
//! assert_eq!(h.access(0xdead_c0, false).level, HitLevel::Memory); // cold miss
//! assert_eq!(h.access(0xdead_c0, false).level, HitLevel::L1);     // now cached
//! h.clflush(0xdead_c0);                                           // gone again
//! assert_eq!(h.access(0xdead_c0, false).level, HitLevel::Memory);
//! ```

mod cache;
mod config;
mod fingerprint;
mod hierarchy;
pub mod policy;
mod stats;

pub use cache::{Cache, CacheAccess, Evicted};
pub use config::{CacheConfig, HierarchyConfig, PrefetchPolicy};
pub use fingerprint::{fingerprint, FingerprintReport};
pub use hierarchy::{CacheHierarchy, HierarchyAccess, HitLevel};
pub use policy::{Policy, PolicyKind, ReplacementPolicy};
pub use stats::CacheStats;
