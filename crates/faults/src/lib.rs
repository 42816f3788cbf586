#![warn(missing_docs)]

//! # anvil-faults
//!
//! Deterministic, seeded fault injection for the ANVIL (ASPLOS 2016)
//! reproduction. ANVIL's protection guarantee rests on a measurement
//! pipeline that can silently lose inputs on real hardware: PEBS
//! debug-store buffers overflow, sampling interrupts are delayed by
//! interrupt-masked kernel sections, performance counters saturate,
//! software page-table walks race with remapping, and memory controllers
//! legally postpone auto-refresh commands (DDR3 allows up to 8 tREFI of
//! postponement). This crate models those imperfections so the detector's
//! behaviour under a degraded substrate can be evaluated — the point
//! `HammerSim` makes about simulators being the right place to study
//! mitigation failure modes.
//!
//! Every fault source is driven by a [`FaultRng`] stream forked from one
//! campaign seed, so a fault campaign is reproducible byte-for-byte:
//! the same seed and configuration produce the identical fault sequence,
//! and therefore the identical simulation.
//!
//! The pieces:
//!
//! * [`FaultPlan`] — a serializable description of every fault source's
//!   probability and magnitude; [`FaultPlan::none`] disables everything
//!   and is the default.
//! * [`FaultScenario`] — named built-in scenarios (PEBS overflow, sample
//!   corruption, interrupt jitter, counter saturation, stale translation,
//!   kernel preemption, refresh postponement, combined) with calibrated
//!   default intensities.
//! * Stateful injectors ([`PebsInjector`], [`TranslationInjector`],
//!   [`DelayInjector`]) that the substrates consult at the relevant
//!   points, plus the stateless [`RefreshPostpone`] that the DRAM
//!   refresh schedule folds into its lazy last-refresh arithmetic.
//! * [`CorrelatedFaults`] / [`CorrelatedInjector`] — machine-scoped
//!   fault domains for fleet campaigns: whole-node outages, PMU-loss
//!   episodes blinding every detector on the machine, and shared
//!   refresh-controller postponement hitting every DIMM on a channel.
//!
//! ## Quick start
//!
//! ```
//! use anvil_faults::{FaultPlan, FaultRng, FaultScenario, SampleFate};
//!
//! let plan: FaultPlan = FaultScenario::PebsOverflow.plan(1.0, 42);
//! let mut pebs = plan.pebs_injector(FaultRng::new(plan.seed).fork(1)).unwrap();
//! let fates: Vec<SampleFate> = (0..1000).map(|i| pebs.on_sample(i * 64)).collect();
//! assert!(fates.iter().any(|f| matches!(f, SampleFate::Drop)));
//! // The same plan and seed reproduce the same fates.
//! let mut again = plan.pebs_injector(FaultRng::new(plan.seed).fork(1)).unwrap();
//! assert_eq!(fates, (0..1000).map(|i| again.on_sample(i * 64)).collect::<Vec<_>>());
//! ```

mod correlated;
mod inject;
mod plan;
mod rng;

pub use correlated::{CorrelatedFaults, CorrelatedInjector};
pub use inject::{
    AtRestFault, DelayInjector, LifecycleInjector, PebsInjector, SampleFate, ServiceDraws,
    StateCorruptionInjector, StateFlip, TranslationInjector,
};
pub use plan::{
    CounterFaults, FaultPlan, FaultScenario, InterruptFaults, LifecycleFaults, PebsFaults,
    RefreshFaults, RefreshPostpone, ServiceFaults, StateCorruptionFaults, TranslationFaults,
};
pub use rng::{hash64, FaultRng};
