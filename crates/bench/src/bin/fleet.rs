//! **Fleet campaign** — Monte Carlo fleet risk across correlated fault
//! domains.
//!
//! The other campaigns evaluate one detector on one memory system; this
//! one asks the deployment question: across a fleet of machines — each a
//! channel × DIMM topology of independently supervised protection
//! domains, each DIMM with its own sampled weak-cell population and its
//! own audited guarantee envelope — what risk does the configuration
//! carry per machine-year when *correlated* faults hit whole machines at
//! once? Machine outages take every domain (and the attacker) down
//! together; machine-wide PMU loss blinds every detector at once while a
//! cross-domain attacker locks onto one victim domain; shared refresh
//! controllers postpone refresh for a whole channel; torn checkpoint
//! writes corrupt recovery state. Each domain answers by walking the
//! graceful-degradation ladder (hardened → sample-survival → blanket
//! refresh → quarantine) and earning its way back up under exponential
//! promotion backoff.
//!
//! The campaign gates on three claims:
//!
//! * **zero undeclared flips** — outside the declared PMU-blind exposure
//!   windows, no bit flips anywhere in the fleet;
//! * **bounded recovery** — every domain's worst crash-to-resume gap
//!   stays inside its own envelope-derived downtime budget;
//! * **no dead cells** — every machine simulation completes (a panic is
//!   recorded as typed data and fails the gate).
//!
//! One machine is one pure cell of `(config, machine_index)`, so
//! `results/fleet.json` is byte-for-byte identical at any `--threads`.
//!
//! ```bash
//! cargo run --release -p anvil-bench --bin fleet                  # full (48 machines)
//! cargo run --release -p anvil-bench --bin fleet -- --smoke       # CI subset
//! cargo run --release -p anvil-bench --bin fleet -- --machines 8 --domains 8 --seed 7
//! cargo run --release -p anvil-bench --bin fleet -- --engine per-op  # reference core
//! ```
//!
//! `--engine per-op|event` selects the simulation core (default:
//! `event`); `results/fleet.json` is byte-identical either way.

use anvil_bench::{campaigns, write_json, CampaignArgs, Table};
use anvil_fleet::FleetConfig;
use anvil_mem::DomainTopology;
use anvil_runtime::install_quiet_panic_hook;

/// Default campaign seed; override with `--seed N`.
const DEFAULT_SEED: u64 = 0xF1EE7;

/// Full-campaign fleet size.
const FULL_MACHINES: u64 = 48;

/// Full-campaign windows per machine (~24 simulated seconds each).
const FULL_WINDOWS: u64 = 4_000;

/// Smoke fleet size, sized for CI byte-compare runs.
const SMOKE_MACHINES: u64 = 12;

/// Smoke windows per machine.
const SMOKE_WINDOWS: u64 = 1_500;

fn main() {
    // Injected detector crashes inside every supervised domain would
    // otherwise each print a panic report.
    install_quiet_panic_hook();
    let args = CampaignArgs::from_env();
    let seed = args.seed_or(DEFAULT_SEED);
    let machines = args.machines.unwrap_or(if args.smoke {
        SMOKE_MACHINES
    } else {
        FULL_MACHINES
    });
    let windows = args.windows.unwrap_or(if args.smoke {
        SMOKE_WINDOWS
    } else {
        FULL_WINDOWS
    });
    let mut cfg = FleetConfig::standard(machines, windows, seed);
    if let Some(n) = args.domains {
        // Keep the dual-channel shape when the requested domain count
        // splits evenly; fall back to one channel otherwise.
        cfg.topology = if n % 2 == 0 {
            DomainTopology {
                channels: 2,
                dimms_per_channel: (n / 2) as u32,
            }
        } else {
            DomainTopology {
                channels: 1,
                dimms_per_channel: n as u32,
            }
        };
    }

    eprintln!(
        "fleet: {machines} machines × {} domains ({}ch × {}d), {windows} windows, seed {seed:#x}",
        cfg.topology.domains(),
        cfg.topology.channels,
        cfg.topology.dimms_per_channel
    );
    let out = campaigns::fleet(&cfg, args.smoke, args.threads, args.engine);
    let r = &out.risk;

    let mut table = Table::new(
        "Fleet campaign: Monte Carlo risk under correlated fault domains",
        &["Metric", "Value"],
    );
    table.row(&[
        "fleet".into(),
        format!(
            "{} machines × {} domains, {} windows",
            r.machines,
            cfg.topology.domains(),
            r.windows
        ),
    ]);
    table.row(&[
        "machine-years (accelerated)".into(),
        format!("{:.6}", r.machine_years),
    ]);
    table.row(&["machine outages".into(), r.outages.to_string()]);
    table.row(&["PMU-loss episodes".into(), r.pmu_episodes.to_string()]);
    table.row(&["PMU-blind windows".into(), r.blind_windows.to_string()]);
    table.row(&["refresh postponements".into(), r.refresh_delays.to_string()]);
    table.row(&[
        "degraded domain-windows".into(),
        r.degraded_domain_windows.to_string(),
    ]);
    table.row(&[
        "demotions / promotions".into(),
        format!("{} / {}", r.demotions, r.promotions),
    ]);
    table.row(&[
        "quarantined / sub-envelope domains".into(),
        format!("{} / {}", r.quarantined_domains, r.sub_envelope_domains),
    ]);
    table.row(&[
        "recovery gap p50/p90/p99/max".into(),
        format!(
            "{} / {} / {} / {} cycles",
            r.recovery_gaps.p50, r.recovery_gaps.p90, r.recovery_gaps.p99, r.recovery_gaps.max
        ),
    ]);
    table.row(&[
        "downtime-budget violations".into(),
        r.budget_violations.to_string(),
    ]);
    table.row(&[
        "exposure flips (declared windows)".into(),
        r.exposure_flips.to_string(),
    ]);
    table.row(&[
        "flips / machine-year".into(),
        format!("{:.3}", r.flips_per_machine_year),
    ]);
    table.row(&[
        "flips / million machine-years".into(),
        format!("{:.0}", r.flips_per_million_machine_years),
    ]);
    table.row(&["dead machine cells".into(), r.cell_panics.to_string()]);
    table.row(&["UNDECLARED FLIPS".into(), r.undeclared_flips.to_string()]);
    table.print();

    println!(
        "{}",
        if r.holds() {
            "ZERO UNDECLARED FLIPS across the fleet: every flip the attacker\n\
             managed landed inside a declared PMU-blind exposure window, every\n\
             recovery gap stayed inside its domain's downtime budget, and\n\
             every machine cell completed."
        } else {
            "WARNING: the fleet gate failed (an undeclared flip, an\n\
             over-budget recovery gap, or a dead machine cell)."
        }
    );

    write_json("fleet", &out.json);
    if !r.holds() {
        std::process::exit(1);
    }
}
