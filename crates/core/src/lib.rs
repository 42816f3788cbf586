#![warn(missing_docs)]

//! # anvil-core
//!
//! ANVIL — the software-based rowhammer defense from
//! *"ANVIL: Software-Based Protection Against Next-Generation Rowhammer
//! Attacks"* (Aweke et al., ASPLOS 2016) — reproduced on a fully simulated
//! Sandy Bridge platform.
//!
//! ANVIL detects rowhammering by watching the locality of DRAM accesses
//! with existing performance counters:
//!
//! 1. **Stage 1** counts last-level-cache misses over `tc = 6 ms` windows;
//!    only a miss rate high enough to flip bits within one refresh period
//!    (≥ 20K/6 ms) arms stage 2.
//! 2. **Stage 2** samples the virtual addresses of DRAM-bound loads and
//!    stores (PEBS load-latency / precise-store facilities) for
//!    `ts = 6 ms`, translates them through the owning process's page
//!    table, and checks for **row locality** corroborated by **bank
//!    locality**.
//! 3. On detection, the rows adjacent to each aggressor are **selectively
//!    refreshed** with a read, restoring their charge before bits flip.
//!
//! The [`Platform`] runner hosts workloads (`anvil-workloads`) and attacks
//! (`anvil-attacks`) on per-core clocks over the shared memory system and
//! charges every PMI, PEBS assist, and refresh read to core time, which is
//! how the paper's ~1% slowdown (Figure 3) and <1% false-positive rates
//! (Table 4) are reproduced.
//!
//! ## Deployment notes (from the reproduction's findings)
//!
//! * Ship [`AnvilConfig::baseline`]; treat `heavy` and `light` as
//!   *additional* profiles for fast / stealthy attackers. `heavy`'s miss
//!   threshold scales with its shorter window (6,666 per 2 ms — the same
//!   trip *rate* as 20K per 6 ms): keeping the absolute 20K count would
//!   both miss today's slow CLFLUSH-free hammer (~19K misses per 2 ms)
//!   and fail the guarantee-envelope gate in [`AnvilConfig::validate`].
//! * Against adversaries that adapt to the detector (duty-cycled bursts,
//!   camouflage traffic, many-sided distribution), ship
//!   [`AnvilConfig::hardened`] — EWMA stage-1 carry, jittered window
//!   phase, and the cross-window [`SuspicionLedger`] close the evasion
//!   budgets the [`GuaranteeEnvelope`] auditor exposes on the baseline.
//! * The bank-locality filter assumes an open-page memory controller; on
//!   closed-page systems set `bank_support_min = 0` (single-address
//!   hammers exist there) and accept the higher false-positive rate.
//! * On DRAM dense enough to disturb at distance 2, set
//!   `victim_radius = 2`.
//! * Detections carry pid attribution; [`PlatformConfig::response`] can
//!   suspend repeat offenders, guarded by a consecutive-detection streak
//!   so sporadic false positives never punish benign programs.
//!
//! ## Quick start: stop an attack
//!
//! ```
//! use anvil_core::{AnvilConfig, Platform, PlatformConfig};
//! use anvil_attacks::DoubleSidedClflush;
//!
//! let mut platform = Platform::new(PlatformConfig::with_anvil(AnvilConfig::baseline()));
//! platform.add_attack(Box::new(DoubleSidedClflush::new()))?;
//! platform.run_ms(40.0)?;
//! assert_eq!(platform.total_flips(), 0, "ANVIL must prevent all flips");
//! assert!(!platform.detections().is_empty(), "and it must notice the attack");
//! # Ok::<(), anvil_core::PlatformError>(())
//! ```

mod checkpoint;
mod config;
mod detector;
mod envelope;
pub mod epoch;
mod error;
mod guard;
mod locality;
mod pidset;
mod platform;
pub mod transition;

pub use checkpoint::{config_hash, fnv1a64, DetectorCheckpoint, HashedConfig, CHECKPOINT_VERSION};
pub use config::{AnvilConfig, DegradedMode, DetectorCosts, HardeningConfig, PAPER_REFRESH_MS};
pub use detector::{AnvilDetector, DetectorStage, DetectorStats, ServiceOutcome, StateSignature};
pub use envelope::{EnvelopeParams, GuaranteeEnvelope};
pub use epoch::{EpochEvent, QuietCheckpoint, QuietShadow};
pub use error::{ConfigError, PlatformError, RuntimeError};
pub use guard::{GuardMode, GuardedCell, GuardedValue, StateCorruption, StateSite, REPLICAS};
pub use locality::{
    analyze, analyze_with_ledger, AggressorFinding, LedgerRow, LocalityReport, RowSample,
    SuspicionLedger, FULL_WEIGHT,
};
pub use pidset::{PidSet, INLINE_PIDS};
pub use platform::{
    CoreStats, DetectionEvent, Platform, PlatformConfig, ResponsePolicy, SCRUB_SLICES,
};
