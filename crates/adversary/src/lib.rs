#![warn(missing_docs)]

//! # anvil-adversary
//!
//! Adaptive adversaries for the ANVIL reproduction: attackers that know
//! how the two-stage detector works and shape their access streams to
//! slip through its gates. Each strategy targets one blind spot of the
//! paper's design (the same four archetypes the guarantee-envelope
//! auditor in `anvil-core` bounds analytically):
//!
//! * [`DutyCycleHammer`] — bursts just under the stage-1 miss threshold,
//!   centered on the window *boundaries*, so no single fixed-length
//!   window ever counts a full burst.
//! * [`PacedHammer`] — hammers at a constant rate one notch below the
//!   stage-1 trip point; the threshold-prober harness binary-searches
//!   the highest rate that never arms stage 2.
//! * [`CamouflageHammer`] — interleaves row-buffer-hit filler loads with
//!   the aggressor accesses so the PEBS sample mix keeps every aggressor
//!   row below the stage-2 per-row sample floor.
//! * [`DistributedManySided`] — spreads activations across many
//!   aggressor pairs in distinct banks so no row dominates the sample
//!   histogram.
//! * [`RestartAwareHammer`] — the window-granular attacker: paces just
//!   under the stage-1 trip rate, rotates round-robin over the eligible
//!   targets, and bursts flat out into detector downtime gaps and
//!   PMU-blind windows. It is not an op stream: it states its pressure
//!   directly as activations per detector window, which the `soak`,
//!   `fleet` and `selfdefense` campaigns in `anvil-bench` charge against
//!   protection domains and the detector's own state rows.
//!
//! The first four implement [`anvil_attacks::Attack`], so they run under
//! the platform in `anvil-core` exactly like the paper's attacks; the
//! `evasion` campaign in `anvil-bench` crosses them with the baseline
//! and hardened detector configurations.

mod camouflage;
mod common;
mod distributed;
mod duty_cycle;
mod paced;
mod restart_aware;
mod spec;

pub use camouflage::CamouflageHammer;
pub use distributed::DistributedManySided;
pub use duty_cycle::DutyCycleHammer;
pub use paced::PacedHammer;
pub use restart_aware::RestartAwareHammer;
pub use spec::ArchetypeSpec;

/// Estimated core cycles per aggressor access in the hammer loop: a
/// row-conflict DRAM read (~179 cycles on the simulated platform), the
/// core's miss overhead (4) and the amortized CLFLUSH (4). Adversaries
/// use this to convert an access budget into a time budget when pacing
/// themselves; it does not need to be exact — only close enough that a
/// burst stays inside its intended window.
pub const EST_ATTACK_ACCESS_CYCLES: u64 = 187;

/// Stage-1 window length (`tc` = 6 ms at 2.6 GHz) the adversaries assume
/// when sizing bursts and paces. Matches `AnvilConfig::baseline()`.
pub const EST_STAGE1_WINDOW_CYCLES: u64 = 15_600_000;
