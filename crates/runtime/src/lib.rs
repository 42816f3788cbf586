#![warn(missing_docs)]

//! # anvil-runtime
//!
//! Detector lifecycle supervision for the ANVIL (ASPLOS 2016)
//! reproduction. A protection mechanism that dies silently protects
//! nothing: the kernel thread hosting ANVIL can panic, stall under
//! scheduling pressure, or come back from a restart with stale state,
//! and every cycle it spends down is a cycle a rowhammer attacker owns.
//! This crate closes that lifecycle gap:
//!
//! * [`Supervisor`] — wraps [`AnvilDetector`](anvil_core::AnvilDetector)
//!   in a crash-capturing service loop: panics are caught with
//!   [`std::panic::catch_unwind`], restarts happen under a bounded
//!   exponential backoff and a finite restart budget, and recovery
//!   resumes from the last valid checkpoint — falling back to a cold
//!   start (plus the caller's blanket refresh) when the checkpoint is
//!   corrupt or version-mismatched.
//! * Hot reconfiguration — [`Supervisor::request_reload`] validates a
//!   new [`AnvilConfig`](anvil_core::AnvilConfig) up front and swaps it
//!   in atomically at the next stage-1 window boundary, preserving the
//!   suspicion ledger and every activity counter.
//! * [`DegradationLadder`] — the graceful-degradation state machine for
//!   fleet domains: full hardened ANVIL → sample-survival → blanket bank
//!   refresh → quarantine, with typed [`LadderTransition`] records and
//!   exponential-backoff re-promotion once faults clear.
//! * [`WindowDriver`] — one supervised stage-1 window of traffic,
//!   serviced under the chosen [`Engine`]: the loop body every
//!   window-granular campaign (soak, fleet, self-defense) shares.
//! * [`soak`] — the long-horizon campaign engine: millions of supervised
//!   windows of mixed benign and adversary traffic under a seeded
//!   crash / stall / corruption / reload schedule, gated on zero flips
//!   and every recovery gap staying inside the
//!   [`GuaranteeEnvelope`](anvil_core::GuaranteeEnvelope) downtime
//!   budget.
//!
//! Fault injection comes from `anvil-faults` ([`LifecycleFaults`]
//! drives crash, stall, and checkpoint-corruption draws), so a soak
//! campaign is reproducible byte-for-byte from its seed.
//!
//! ## Quick start
//!
//! ```
//! use anvil_core::AnvilConfig;
//! use anvil_dram::{AddressMapping, CpuClock, DramGeometry};
//! use anvil_pmu::{Pmu, SamplerConfig};
//! use anvil_runtime::{RuntimeConfig, SupervisedOutcome, Supervisor};
//!
//! let mapping = AddressMapping::new(DramGeometry::ddr3_4gb());
//! let mut pmu = Pmu::new(SamplerConfig::anvil_default());
//! let mut sup = Supervisor::new(
//!     AnvilConfig::hardened(),
//!     RuntimeConfig::default(),
//!     CpuClock::SANDY_BRIDGE_2_6GHZ,
//!     166_400_000,
//!     0,
//!     &mut pmu,
//! );
//! let deadline = sup.deadline();
//! let outcome = sup
//!     .service(deadline, &mut pmu, &mapping, &mut |_, v| Some(v))
//!     .unwrap();
//! assert!(matches!(outcome, SupervisedOutcome::Serviced { .. }));
//! ```

mod driver;
mod ladder;
pub mod soak;
mod supervisor;

pub use anvil_faults::LifecycleFaults;
pub use driver::{Engine, WindowDriver, WindowOutcome, WindowTally};
pub use ladder::{DegradationLadder, LadderCause, LadderTransition, ProtectionLevel};
pub use soak::{SoakConfig, SoakSummary};
pub use supervisor::{
    install_quiet_panic_hook, RecoveryReport, RuntimeConfig, RuntimeStats, SupervisedOutcome,
    Supervisor,
};
