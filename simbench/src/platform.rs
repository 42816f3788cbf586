//! The platform-attack workload: the paper's Table 3 headline cell
//! (CLFLUSH-free double-sided hammer under the baseline detector, heavy
//! background load) on the cycle-accurate `Platform`, built with the
//! same public calls as `anvil_bench::detection_run`. Both passes run
//! it in 6 ms `run_until` slices; the traced pass also times each slice
//! and reads the crates' counters.

use std::hint::black_box;
use std::time::Instant;

use anvil_bench::{vulnerable_pair_index, AttackKind, DetectionSummary};
use anvil_cache::{CacheHierarchy, HierarchyConfig};
use anvil_core::{AnvilConfig, Platform, PlatformConfig};
use anvil_dram::{DramConfig, DramModule};
use anvil_mem::MemoryConfig;
use anvil_workloads::SpecBenchmark;
use serde::Serialize;

use crate::{mean_ns, Cell, Trace};

/// Host ms per traced slice are reported per this much simulated time:
/// one stage-1 window of the baseline detector.
pub const SLICE_MS: f64 = 6.0;

const KIND: AttackKind = AttackKind::ClflushFree;

/// A platform ready for its first window, and the pids running on it.
struct Setup {
    p: Platform,
    pids: Vec<u32>,
}

fn setup(seed: u64) -> Setup {
    let mut p = Platform::new(PlatformConfig::with_anvil(AnvilConfig::baseline()));
    let mut pids: Vec<u32> = SpecBenchmark::memory_intensive()
        .iter()
        .map(|b| p.add_workload(b.build(seed)).expect("arena fits"))
        .collect();
    let pair = vulnerable_pair_index(KIND, MemoryConfig::paper_platform(), 24).unwrap_or(0);
    pids.push(
        p.add_attack(KIND.build(pair))
            .expect("attack prepares on open platform"),
    );
    Setup { p, pids }
}

/// Host seconds of one set-up: platform construction, the background
/// workloads, and the attacker's `vulnerable_pair_index` profiling.
pub fn setup_s(seed: u64) -> f64 {
    let start = Instant::now();
    black_box(setup(seed));
    start.elapsed().as_secs_f64()
}

/// What the cell's digest covers: the Table 3 summary plus the
/// detector's counters and the retired op count.
#[derive(Serialize)]
struct Summary {
    detection: DetectionSummary,
    detector: anvil_core::DetectorStats,
    ops: u64,
}

/// One cell of `ms` simulated milliseconds, run in [`SLICE_MS`] slices.
/// With a trace, each slice is timed and labelled counting or sampling by
/// whether it completed a stage-2 window.
pub fn run(seed: u64, ms: f64, mut trace: Option<&mut Trace>) -> Cell {
    let Setup { mut p, pids } = setup(seed);
    let start = Instant::now();
    let cpu = p.config().memory.clock;
    let t0 = p.now();
    for k in 1..=(ms / SLICE_MS).ceil() as u64 {
        let end = t0 + cpu.ms_to_cycles((k as f64 * SLICE_MS).min(ms));
        let before = stage2(&p);
        let slice = Instant::now();
        p.run_until(end).expect("run completes");
        let ns = slice.elapsed().as_nanos() as u64;
        if let Some(t) = trace.as_deref_mut() {
            if stage2(&p) > before {
                t.slice_sampling.record(ns);
            } else {
                t.slice_counting.record(ns);
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    if let Some(t) = trace {
        t.counts = counts(&p, &pids);
    }

    let detection = DetectionSummary {
        attack: KIND.label().to_string(),
        heavy_load: true,
        detect_ms: p.first_detection_ms(),
        refreshes_per_window: p.refreshes_per_window(),
        flips: p.total_flips(),
    };
    let det = *p.detector_stats().expect("ANVIL is loaded");
    let ops = total_ops(&p, &pids);
    let cell = Cell {
        gate: detection.flips == 0 && detection.detect_ms.is_some(),
        wall_s,
        windows: det.stage1_windows + det.stage2_windows,
        sim_ms: ms,
        machines: 0,
        ops,
        flips: detection.flips,
        detect_ms: detection.detect_ms,
        summary: String::new(),
    };
    Cell {
        summary: serde_json::to_string(&Summary {
            detection,
            detector: det,
            ops,
        })
        .expect("summaries serialize"),
        ..cell
    }
}

fn stage2(p: &Platform) -> u64 {
    p.detector_stats().map_or(0, |d| d.stage2_windows)
}

fn total_ops(p: &Platform, pids: &[u32]) -> u64 {
    pids.iter()
        .filter_map(|&pid| p.core_stats(pid))
        .map(|c| c.ops)
        .sum()
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// The cache, memory, DRAM, detector and PMU counters of a finished run.
fn counts(p: &Platform, pids: &[u32]) -> Vec<(&'static str, f64)> {
    let (l1, _, llc) = p.sys().hierarchy().stats();
    let mem = p.sys().stats();
    let dram = p.sys().dram().stats();
    let det = p.detector_stats().expect("ANVIL is loaded");
    vec![
        ("cache.l1_hit_ratio", ratio(l1.hits, l1.accesses)),
        ("cache.llc_hit_ratio", ratio(llc.hits, llc.accesses)),
        ("mem.accesses", mem.accesses as f64),
        ("mem.llc_miss_ratio", ratio(mem.llc_misses, mem.accesses)),
        ("mem.clflushes", mem.clflushes as f64),
        ("dram.activations", dram.activations as f64),
        ("dram.row_hit_ratio", dram.row_hit_rate()),
        (
            "dram.refresh_stall_cycles",
            dram.refresh_stall_cycles as f64,
        ),
        (
            "core.detector.stage2_frac",
            ratio(det.stage2_windows, det.stage1_windows + det.stage2_windows),
        ),
        (
            "core.detector.samples_analyzed",
            det.samples_analyzed as f64,
        ),
        (
            "core.detector.selective_refreshes",
            det.selective_refreshes as f64,
        ),
        (
            "pmu.sample_keep_ratio",
            ratio(p.pmu().samples_taken(), total_ops(p, pids)),
        ),
    ]
}

/// Per-call costs of the public cache and DRAM entry points the
/// platform drives, timed the way `perfbench` times them: an
/// L1-resident loop and a 1 GiB streaming sweep through
/// `CacheHierarchy::access_into`, and a double-sided hammer and a wide
/// row sweep through `DramModule::access`.
pub fn layer_costs(calls: u32) -> Vec<(&'static str, f64)> {
    let cache = |mask: u64| {
        let mut h = CacheHierarchy::new(HierarchyConfig::sandy_bridge_i5_2540m());
        let (mut wb, mut pf) = (Vec::new(), Vec::new());
        let mut addr = 0u64;
        mean_ns(calls, || {
            addr = (addr + 64) & mask;
            wb.clear();
            pf.clear();
            black_box(h.access_into(black_box(addr), false, &mut wb, &mut pf));
        })
    };
    let dram = |next: &dyn Fn(u64) -> u64| {
        let mut d = DramModule::new(DramConfig::paper_ddr3());
        let (mut now, mut i) = (0u64, 0u64);
        mean_ns(calls, || {
            i += 1;
            now += 200;
            black_box(d.access(black_box(next(i)), now));
        })
    };
    vec![
        ("cache.access_hot_ns", cache(0x3fff)),
        ("cache.access_streaming_ns", cache((1 << 30) - 1)),
        (
            "dram.access_hammer_ns",
            dram(&|i| if i % 2 == 0 { 0x22000 } else { 0x66000 }),
        ),
        (
            "dram.access_sweep_ns",
            dram(&|i| (i * 8192) & ((4 << 30) - 1)),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_cell_is_detection_run_sliced_or_not() {
        let ms = 18.0;
        let want = anvil_bench::detection_run(KIND, AnvilConfig::baseline(), true, ms, 3);
        let untraced = run(3, ms, None);
        let traced = run(3, ms, Some(&mut Trace::default()));
        let prefix = format!(
            "{{\"detection\":{},",
            serde_json::to_string(&want).expect("serializes")
        );
        assert!(
            untraced.summary.starts_with(&prefix),
            "{}",
            untraced.summary
        );
        assert_eq!(untraced.summary, traced.summary);
        assert_eq!(untraced.detect_ms, Some(12.0));
    }
}
