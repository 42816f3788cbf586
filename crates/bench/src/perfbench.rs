//! **Perf trajectory** — measured simulator throughput, committed as a
//! regression baseline.
//!
//! Times each optimized hot-path layer (cache access, DRAM
//! activate+disturb, platform step, full detector window) and the
//! end-to-end soak workload — serial and
//! fanned through [`run_cells_checked`] — for
//! `results/BENCH_hotpath.json`. The headline is the benign-dominated
//! soak cell under the event engine, where the epoch-skipping fast path
//! carries the loop; the adversary-paced cell, where 40%+ of windows trip
//! stage 1, is recorded alongside it so regressions in either regime are
//! visible.
//!
//! Unlike the campaign records, this file is a *measurement*: it varies
//! with the machine and is regenerated, not byte-compared. Each run
//! appends an entry, stamped with `--git-sha <sha>` and `--stamp <date>`
//! when given, to the committed `trajectory` array. The gate fails below
//! the absolute floor (`FLOOR_WINDOWS_PER_SEC`) or below
//! `REGRESSION_FRACTION` of the last committed entry (DESIGN.md §11).
//!
//! ```bash
//! cargo run --release -p anvil-bench -- perfbench --quick
//! cargo run --release -p anvil-bench -- perfbench \
//!     --git-sha "$(git rev-parse --short HEAD)" --stamp 2026-08-08
//! ```

use crate::harness::{run_cells_checked, CampaignArgs};
use crate::registry::Report;
use anvil_cache::{CacheHierarchy, HierarchyConfig};
use anvil_core::{AnvilConfig, Platform, PlatformConfig};
use anvil_dram::{DramConfig, DramModule};
use anvil_runtime::{soak, Engine, SoakConfig, SoakSummary};
use anvil_workloads::SpecBenchmark;
use serde_json::json;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Headline serial throughput floor (windows/sec) below which the
/// command exits non-zero. The benign-dominated cell runs in the millions of
/// windows/sec, so this absolute floor only trips on a catastrophic
/// (100x-plus) regression, not on a slow CI machine.
const FLOOR_WINDOWS_PER_SEC: f64 = 10_000.0;

/// The committed per-op serial baseline: `results/BENCH_hotpath.json`
/// recorded 364,633 windows/sec for the per-op engine immediately before
/// the event-driven core landed. The
/// acceptance target for the epoch-skipping engine is 10x this number
/// on the benign-dominated cell.
const BASELINE_SERIAL_WINDOWS_PER_SEC: f64 = 364_633.2;

/// Relative regression gate: the measured headline must reach at least
/// this fraction of the last committed `trajectory` entry. 0.25 leaves
/// 4x headroom for slower CI machines while still catching regressions
/// far smaller than the absolute floor (which sits ~500x below the
/// committed headline) ever could.
const REGRESSION_FRACTION: f64 = 0.25;

/// Times `op` and returns its mean cost in ns: calibrates the iteration
/// count until a batch is long enough to time reliably, then measures
/// for roughly `budget_ms`.
fn ns_per_op(budget_ms: f64, mut op: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            op();
        }
        let elapsed = start.elapsed();
        if elapsed.as_millis() >= 5 || iters >= 1 << 30 {
            let per = elapsed.as_nanos() as f64 / iters as f64;
            let need = ((budget_ms * 1e6 / per).max(1.0)) as u64;
            let start = Instant::now();
            for _ in 0..need {
                op();
            }
            return start.elapsed().as_nanos() as f64 / need as f64;
        }
        iters *= 8;
    }
}

/// Rounds to one decimal for the committed record (keeps diffs small and
/// avoids implying nanosecond-precision reproducibility).
fn round1(x: f64) -> f64 {
    (x * 10.0).round() / 10.0
}

/// The soak smoke lifecycle (matching the `soak --smoke` campaign: crash
/// rate scaled up so the absolute crash count stays meaningful at small
/// window counts). `adversary: false` selects the benign-dominated cell.
fn soak_cfg(windows: u64, seed: u64, adversary: bool) -> SoakConfig {
    let mut cfg = if adversary {
        SoakConfig::standard(windows, seed)
    } else {
        SoakConfig::benign(windows, seed)
    };
    cfg.lifecycle.crash_rate = 5e-3;
    cfg.reload_every = 20_000;
    cfg
}

/// Runs `cells` soak cells of `windows` each across `threads` workers
/// under `engine` and returns aggregate windows/sec.
fn soak_windows_per_sec(
    cells: usize,
    windows: u64,
    threads: usize,
    engine: Engine,
    adversary: bool,
) -> f64 {
    let jobs: Vec<Box<dyn FnOnce() -> SoakSummary + Send>> = (0..cells)
        .map(|i| {
            let seed = 0x50AC + i as u64;
            Box::new(move || soak::run_with_engine(&soak_cfg(windows, seed, adversary), engine))
                as _
        })
        .collect();
    let start = Instant::now();
    let results = run_cells_checked(threads, jobs);
    let elapsed = start.elapsed().as_secs_f64();
    let total: u64 = results
        .into_iter()
        .map(|r| r.expect("soak cells complete").windows)
        .sum();
    total as f64 / elapsed
}

/// Loads the `trajectory` array from the previously committed
/// `results/BENCH_hotpath.json`, if any — the new run appends to it.
fn committed_trajectory() -> Vec<serde_json::Value> {
    std::fs::read_to_string("results/BENCH_hotpath.json")
        .ok()
        .and_then(|s| serde_json::from_str::<serde_json::Value>(&s).ok())
        .and_then(|v| v.get("trajectory").cloned())
        .and_then(|t| t.as_array().cloned())
        .unwrap_or_default()
}

/// Measures every layer and the end-to-end soak cells, and returns the
/// `results/BENCH_hotpath.json` record with the trajectory entry for this
/// run (stamped with `git_sha` and `stamp`) appended. The gate fails on
/// the absolute floor or the relative regression bound.
pub fn run(args: &CampaignArgs, git_sha: &str, stamp: &str) -> Report {
    let budget_ms = if args.quick { 60.0 } else { 300.0 };

    eprintln!("perfbench: per-layer timings ({budget_ms:.0} ms budget per layer)");

    // Cache: L1-resident loop through the scratch-buffer entry point.
    let mut h = CacheHierarchy::new(HierarchyConfig::sandy_bridge_i5_2540m());
    let (mut wb, mut pf) = (Vec::new(), Vec::new());
    let mut addr = 0u64;
    let cache_hot = ns_per_op(budget_ms, || {
        addr = (addr + 64) & 0x3fff;
        wb.clear();
        pf.clear();
        black_box(h.access_into(black_box(addr), false, &mut wb, &mut pf));
    });

    let mut h = CacheHierarchy::new(HierarchyConfig::sandy_bridge_i5_2540m());
    let (mut wb, mut pf) = (Vec::new(), Vec::new());
    let mut addr = 0u64;
    let cache_streaming = ns_per_op(budget_ms, || {
        addr = (addr + 64) & ((1 << 30) - 1);
        wb.clear();
        pf.clear();
        black_box(h.access_into(black_box(addr), false, &mut wb, &mut pf));
    });

    // DRAM: double-sided hammer (dense-arena disturbance on every
    // activate) and a wide sweep (lazy row initialization).
    let mut dram = DramModule::new(DramConfig::paper_ddr3());
    let (mut now, mut i) = (0u64, 0u64);
    let dram_hammer = ns_per_op(budget_ms, || {
        i += 1;
        now += 200;
        let a = if i % 2 == 0 { 0x22000 } else { 0x66000 };
        black_box(dram.access(black_box(a), now));
    });

    let mut dram = DramModule::new(DramConfig::paper_ddr3());
    let (mut now, mut addr) = (0u64, 0u64);
    let dram_sweep = ns_per_op(budget_ms, || {
        addr = (addr + 8192) & ((4 << 30) - 1);
        now += 200;
        black_box(dram.access(black_box(addr), now));
    });

    // Platform: one batched core op under the baseline detector, and a
    // full 6 ms stage-1 window.
    let mut p = Platform::new(PlatformConfig::with_anvil(AnvilConfig::baseline()));
    let pid = p
        .add_workload(SpecBenchmark::Mcf.build(1))
        .expect("workload loads on fresh platform");
    let step = ns_per_op(budget_ms, || {
        p.run_core_ops(black_box(pid), 1).expect("step completes");
    });

    let mut p = Platform::new(PlatformConfig::with_anvil(AnvilConfig::baseline()));
    p.add_workload(SpecBenchmark::Mcf.build(1))
        .expect("workload loads on fresh platform");
    let window = ns_per_op(budget_ms.max(200.0), || {
        p.run_ms(black_box(6.0)).expect("window completes");
    });

    eprintln!(
        "  cache hot {cache_hot:.1} ns, streaming {cache_streaming:.1} ns; \
         dram hammer {dram_hammer:.1} ns, sweep {dram_sweep:.1} ns; \
         step {step:.1} ns, window {:.1} us",
        window / 1e3
    );

    // End-to-end soak. The headline is the benign-dominated cell under
    // the event engine; the per-op engine on the same cell isolates the
    // epoch-skipping speedup, and the adversary-paced cell records the
    // trip-heavy regime where the fallback path dominates. Benign cells
    // are ~20x cheaper per window, so they run more windows to keep the
    // measurement interval meaningful.
    let windows = if args.quick { 20_000 } else { 120_000 };
    let benign_windows = windows * 10;
    let cells = args.threads.max(2);
    eprintln!(
        "perfbench: soak end-to-end (benign {benign_windows} windows/cell, \
         adversary {windows} windows/cell, {cells} cells parallel)"
    );
    let serial = soak_windows_per_sec(1, benign_windows, 1, Engine::Event, false);
    let serial_per_op = soak_windows_per_sec(1, benign_windows, 1, Engine::PerOp, false);
    let adversary_serial = soak_windows_per_sec(1, windows, 1, Engine::Event, true);
    let parallel = soak_windows_per_sec(cells, benign_windows, args.threads, Engine::Event, false);
    let speedup = serial / BASELINE_SERIAL_WINDOWS_PER_SEC;
    let engine_speedup = serial / serial_per_op;
    eprintln!(
        "  benign serial: event {serial:.0} windows/s vs per-op {serial_per_op:.0} \
         ({engine_speedup:.1}x engine speedup, {speedup:.1}x committed baseline); \
         adversary serial {adversary_serial:.0}; parallel {parallel:.0} windows/s"
    );

    let mut trajectory = committed_trajectory();
    let prior_headline = trajectory
        .last()
        .and_then(|e| e.get("serial_windows_per_sec"))
        .and_then(serde_json::Value::as_f64);
    trajectory.push(json!({
        "git_sha": git_sha,
        "stamp": stamp,
        "quick": args.quick,
        "cell": "benign",
        "engine": "event",
        "serial_windows_per_sec": round1(serial),
        "parallel_windows_per_sec": round1(parallel),
    }));

    let record = json!({
            "experiment": "perf_hotpath",
            "quick": args.quick,
            "threads": args.threads,
            "layers_ns_per_op": {
                "cache_access_hot": round1(cache_hot),
                "cache_access_streaming": round1(cache_streaming),
                "dram_activate_disturb_hammer": round1(dram_hammer),
                "dram_activate_disturb_sweep": round1(dram_sweep),
                "platform_step": round1(step),
                "detector_window_us": round1(window / 1e3),
            },
            "end_to_end": {
                "cell": "benign-dominated soak (adversary pacing off)",
                "engine": "event",
                "soak_windows_per_cell": benign_windows,
                "serial_windows_per_sec": round1(serial),
                "serial_per_op_windows_per_sec": round1(serial_per_op),
                "engine_speedup": round1(engine_speedup),
                "adversary_windows_per_cell": windows,
                "adversary_serial_windows_per_sec": round1(adversary_serial),
                "parallel_cells": cells,
                "parallel_windows_per_sec": round1(parallel),
                "baseline_serial_windows_per_sec": BASELINE_SERIAL_WINDOWS_PER_SEC,
                "speedup_vs_baseline": round1(speedup),
                "floor_windows_per_sec": FLOOR_WINDOWS_PER_SEC,
                "regression_fraction": REGRESSION_FRACTION,
            },
            "trajectory": trajectory,
    });
    let mut text = String::new();
    let mut holds = serial >= FLOOR_WINDOWS_PER_SEC;
    if !holds {
        let _ = writeln!(
            text,
            "perfbench: FAIL — serial soak {serial:.0} windows/s is below the \
             {FLOOR_WINDOWS_PER_SEC:.0} windows/s floor"
        );
    } else if let Some(prior) = prior_headline {
        let gate = prior * REGRESSION_FRACTION;
        holds = serial >= gate;
        if holds {
            let _ = writeln!(
                text,
                "perfbench: trajectory gate OK ({serial:.0} >= {gate:.0} windows/s, \
                 last committed {prior:.0})"
            );
        } else {
            let _ = writeln!(
                text,
                "perfbench: FAIL — serial soak {serial:.0} windows/s regressed below \
                 {REGRESSION_FRACTION}x the last committed trajectory entry \
                 ({prior:.0} windows/s)"
            );
        }
    }
    Report {
        holds,
        ..Report::new(text, record)
    }
}
