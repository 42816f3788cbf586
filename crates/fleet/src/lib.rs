#![warn(missing_docs)]

//! # anvil-fleet
//!
//! Fleet-scale multi-domain runtime for the ANVIL (ASPLOS 2016)
//! reproduction. The paper evaluates one detector protecting one memory
//! system; a production deployment is thousands of machines, each with
//! several channel/DIMM protection domains, each domain running its own
//! supervised detector while tenants (and an attacker VM) share the
//! machine — the setting of the inter-VM Rowhammer evaluation framework
//! and the fleet-scale questions `HammerSim` poses ("of a million
//! deployed machines at this configuration, how many flip per year?").
//!
//! The pieces:
//!
//! * [`DomainTopology`]-driven machines ([`run_machine`]) where every
//!   domain boots a supervised detector (`anvil-runtime`'s
//!   `Supervisor`), draws its own weak-cell population
//!   ([`WeakCellDistribution`]), audits its own guarantee envelope, and
//!   walks the graceful-degradation ladder (`anvil-runtime`'s
//!   `DegradationLadder`) as correlated faults
//!   (`anvil-faults`' [`CorrelatedFaults`]) hit the node: machine
//!   outages, machine-wide PMU loss, shared-refresh-controller delays,
//!   and torn checkpoint writes.
//! * A cross-domain attacker (`anvil-adversary`'s `RestartAwareHammer`,
//!   after the inter-VM setting of Kawasaki & Akiyama) that rotates
//!   paced pressure over live domains, bursts into every recovery gap,
//!   and locks onto one target at full hammer rate during PMU-blind
//!   episodes.
//! * [`FleetRisk`] — the Monte Carlo fold: expected flips per
//!   (accelerated) machine-year, exploit-window exposure during
//!   degradation, the distribution of worst-case recovery gaps, and the
//!   fleet gate (zero undeclared flips, zero downtime-budget
//!   violations, zero dead cells).
//!
//! One machine is one pure cell of `(FleetConfig, machine_index)`:
//! the `anvil-bench fleet` campaign fans machines across
//! threads and folds them in submission order, so `results/fleet.json`
//! is byte-identical at any `--threads`.
//!
//! [`DomainTopology`]: anvil_mem::DomainTopology
//! [`CorrelatedFaults`]: anvil_faults::CorrelatedFaults

mod domain;
mod machine;
mod risk;
mod weakcells;

pub use domain::DomainSummary;
pub use machine::{run_machine, run_machine_with_engine, FleetConfig, MachineSummary};
pub use risk::{FleetRisk, GapDistribution};
pub use weakcells::{DimmPopulation, WeakCellDistribution};
