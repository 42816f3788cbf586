#![warn(missing_docs)]

//! # anvil-pmu
//!
//! Performance-monitoring-unit model for the ANVIL (ASPLOS 2016)
//! reproduction. ANVIL is built entirely on existing Intel performance
//! counters; this crate provides their simulated equivalents:
//!
//! * event counters with interrupt-on-overflow
//!   (`LONGEST_LAT_CACHE.MISS`, `MEM_LOAD_UOPS_MISC_RETIRED.LLC_MISS`),
//! * the PEBS **Load Latency** facility (latency-thresholded load
//!   sampling), and
//! * the PEBS **Precise Store** facility (store sampling with data-source
//!   information).
//!
//! The platform feeds every retired memory operation to [`Pmu::observe_at`];
//! the window-granular drivers charge a window's traffic in bulk through
//! [`Pmu::observe_epoch`] and [`Pmu::observe_spread`], which leave the PMU
//! exactly as the per-op calls would. The detector in `anvil-core` arms
//! counters and drains sample records exactly as the kernel module does
//! on real hardware.
//!
//! ## Quick start
//!
//! ```
//! use anvil_pmu::{EventKind, Pmu, SampleFilter, SamplerConfig};
//!
//! let mut pmu = Pmu::new(SamplerConfig::anvil_default());
//! pmu.counter_mut(EventKind::LongestLatCacheMiss).arm(20_000);
//! pmu.enable_sampling(SampleFilter::LoadsOnly, 0);
//! // ... the platform calls pmu.observe_at(op, now) per retired op ...
//! let _samples = pmu.drain_samples();
//! ```

mod counter;
mod events;
mod pmu;
mod sampling;

pub use counter::Counter;
pub use events::{DataSource, EventKind};
pub use pmu::{EpochSummary, Pmu, PmuEffect, RetiredOp};
pub use sampling::{SampleFilter, SampleRecord, Sampler, SamplerConfig};
