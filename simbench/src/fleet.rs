//! The fleet workload: `anvil_fleet::run_machine` over
//! `FleetConfig::standard` machines, one after another. The traced cell
//! times each `run_machine` call.

use std::time::Instant;

use anvil_dram::CpuClock;
use anvil_fleet::{run_machine, FleetConfig, MachineSummary};

use crate::{Cell, Scale, Trace};

/// The workload's configuration.
pub fn config(scale: &Scale, seed: u64) -> FleetConfig {
    FleetConfig::standard(scale.fleet_machines, scale.fleet_windows, seed)
}

/// Host seconds of one set-up: `run_machine` for every machine of the
/// cell with no windows to run, which boots each machine's domains and
/// fault injectors exactly as the cell does.
pub fn setup_s(cfg: &FleetConfig) -> f64 {
    let boot_only = FleetConfig { windows: 0, ..*cfg };
    let start = Instant::now();
    for m in 0..cfg.machines {
        std::hint::black_box(run_machine(&boot_only, m));
    }
    start.elapsed().as_secs_f64()
}

/// One cell: every machine of `cfg`, in order. With a trace, each
/// `run_machine` call is timed.
pub fn run(cfg: &FleetConfig, mut trace: Option<&mut Trace>) -> Cell {
    let mut machines: Vec<MachineSummary> = Vec::new();
    let mut machine_ns: u128 = 0;
    let start = Instant::now();
    for m in 0..cfg.machines {
        let t = Instant::now();
        let summary = run_machine(cfg, m);
        let ns = t.elapsed().as_nanos() as u64;
        machines.push(summary);
        machine_ns += u128::from(ns);
        if let Some(t) = trace.as_deref_mut() {
            t.machine.record(ns);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();

    let domains = machines.iter().flat_map(|m| &m.domains);
    let (mut undeclared, mut services, mut windows, mut degraded) = (0, 0, 0, 0);
    for d in domains {
        undeclared += d.undeclared_flips;
        services += d.services;
        let off = d.windows_sample_survival + d.windows_blanket + d.windows_quarantine;
        windows += d.windows_hardened + off;
        degraded += off;
    }
    if let Some(t) = trace {
        t.counts = vec![
            ("fleet.services", services as f64),
            (
                "fleet.ns_per_service",
                machine_ns as f64 / services.max(1) as f64,
            ),
            (
                "fleet.degraded_window_frac",
                degraded as f64 / windows.max(1) as f64,
            ),
        ];
    }
    let cpu = CpuClock::SANDY_BRIDGE_2_6GHZ;
    let window_ms = cpu.cycles_to_ms(cfg.anvil.tc_cycles(&cpu));
    Cell {
        summary: serde_json::to_string(&machines).expect("summaries serialize"),
        gate: undeclared == 0,
        wall_s,
        windows,
        sim_ms: (cfg.machines * cfg.windows) as f64 * window_ms,
        machines: cfg.machines,
        ops: 0,
        flips: undeclared,
        detect_ms: None,
    }
}
