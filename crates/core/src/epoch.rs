//! The event-driven engine's vocabulary: the typed "interesting
//! timestamps" a run stops at, and the quiet-window state the engine
//! carries between them.
//!
//! Inside an interesting region (an attack burst, a sampled stage-2
//! window, an injected fault) every layer is stepped per op or per
//! window. A benign stage-1 stretch is analytically boring: the EWMA
//! carry, the window-phase jitter stream and the lifecycle fault draws
//! are closed-form functions of each window's aggregate miss count, so
//! `Supervisor::service_quiet` retires such windows against a
//! [`QuietShadow`] and defers their checkpoints as [`QuietCheckpoint`]s
//! (see `DESIGN.md` §16 for the fallback conditions).
//!
//! The event classes, in deterministic tie-break priority order:
//!
//! 1. [`EpochEvent::WindowBoundary`] — the detector's next service
//!    deadline (a stage-1 or stage-2 window expires; on hardware, the
//!    PMI / kernel-timer fire).
//! 2. [`EpochEvent::RefreshDeadline`] — the next DRAM auto-refresh /
//!    arena-compaction epoch boundary.
//! 3. [`EpochEvent::FaultSite`] — the next registered fault-plan site
//!    (lifecycle draws are taken *per window*, so in window-granular
//!    engines every window boundary is implicitly also a fault site;
//!    platform-level fault plans register explicit cycle sites).
//! 4. [`EpochEvent::PhaseChange`] — the next attack/workload schedule
//!    phase change (an adversary turning on or off invalidates the
//!    closed form).
//! 5. [`EpochEvent::RunEnd`] — the simulation horizon.
//! 6. [`EpochEvent::CoreYield`] — the multi-core fairness bound: a core
//!    may not run past its siblings' lag window, so cross-core
//!    interleavings replay identically at any batch size.
//!
//! The cycle-accurate `Platform` names the event that ends each of its
//! batches with these labels.

use crate::detector::DetectorStats;
use anvil_dram::Cycle;

/// Why an epoch ends: the typed event classes the engine fast-forwards
/// between. Variants are ordered by tie-break priority — when several
/// events land on the same cycle, the smallest variant wins, so horizon
/// selection is deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EpochEvent {
    /// The detector's next service deadline (stage-1/stage-2 window
    /// expiry; the PMI threshold crossing is resolved *at* this
    /// boundary from the window's aggregate miss count).
    WindowBoundary,
    /// The next DRAM auto-refresh / arena-compaction epoch boundary.
    RefreshDeadline,
    /// The next registered fault-plan site.
    FaultSite,
    /// The next attack/workload schedule phase change.
    PhaseChange,
    /// The simulation horizon.
    RunEnd,
    /// The multi-core fairness bound (a sibling core must catch up).
    CoreYield,
}

/// The detector's quiet-run shadow: the three guarded scalars a
/// stage-1-idle stretch actually evolves (the EWMA carry, the
/// window-phase jitter stream position, and the current window scale).
///
/// During an epoch run these live in plain registers instead of
/// triple-replicated checksummed cells; `AnvilDetector::quiet_flush`
/// re-seals them into the guarded cells at the first event that ends
/// the quiet run. On pristine cells the flush is observationally
/// identical to the per-window stores it replaces: a [`GuardedCell`]'s
/// replica state is a pure function of the last stored value, and
/// scrubs of clean cells report nothing.
///
/// [`GuardedCell`]: crate::GuardedCell
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuietShadow {
    /// Stage-1 EWMA miss-evidence carry.
    pub carry: f64,
    /// Splitmix64 state of the window-phase jitter stream.
    pub phase: u64,
    /// Current stage-1 window length as a fraction of `tc`.
    pub scale: f64,
}

/// A checkpoint deferred during a quiet run: everything the eventual
/// [`DetectorCheckpoint`] needs that is *not* constant across the run.
///
/// The ledger, armed filter, and config fingerprint cannot change while
/// stage 1 stays quiet, so materialization
/// (`AnvilDetector::materialize_quiet_checkpoint`) reads those from the
/// live detector at flush time; the fields here are the ones that move
/// per window. `resamples` is omitted: every quiet window stores zero
/// (stage-1 restart resets the sticky-sampling depth), so the
/// materialized checkpoint records 0. The PEBS jitter position is
/// captured eagerly because materialization can happen after the PMU
/// has moved on (e.g. at a teardown sync).
///
/// [`DetectorCheckpoint`]: crate::DetectorCheckpoint
#[derive(Debug, Clone, PartialEq)]
pub struct QuietCheckpoint {
    /// Next service deadline at checkpoint time.
    pub deadline: Cycle,
    /// Detector activity counters at checkpoint time.
    pub stats: DetectorStats,
    /// Stage-1 EWMA carry at checkpoint time.
    pub carry: f64,
    /// Window-phase jitter stream position at checkpoint time.
    pub phase_state: u64,
    /// Stage-1 window scale at checkpoint time.
    pub window_scale: f64,
    /// The PEBS sampler's programmed jitter-stream position (constant
    /// across a quiet run; captured eagerly anyway).
    pub pebs_jitter: u64,
}
