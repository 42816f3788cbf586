//! Golden per-op digests of the cycle-accurate `Platform`.
//!
//! Two short cells run op by op through translation, the cache
//! hierarchy, the memory system, DRAM, the PMU and the detector, and one
//! digest pins every counter the platform exposes. Any change to what a
//! single op does (a replacement decision, a fill, a row activation, a
//! sample, a scheduling order) moves some counter and fails here in
//! seconds, long before the full-length records would show it.

use anvil::attacks::{Attack, ClflushFreeDoubleSided};
use anvil::core::{AnvilConfig, Platform, PlatformConfig};
use anvil::workloads::SpecBenchmark;

/// FNV-1a over the counters' text.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every counter the platform exposes, as text: per-level cache stats,
/// memory-system, DRAM, PMU and detector counters, and each core's op
/// count and clock.
fn counters(p: &Platform, pids: &[u32]) -> String {
    let cores: Vec<_> = pids
        .iter()
        .map(|&pid| p.core_stats(pid).expect("pid runs on a core"))
        .map(|c| (c.pid, c.ops, c.cycles))
        .collect();
    format!(
        "caches {:?}\nmem {:?}\ndram {:?}\npmu samples {} interrupts {}\ndetector {:?}\n\
         detections {} refreshes {} flips {}\ncores {cores:?}",
        p.sys().hierarchy().stats(),
        p.sys().stats(),
        p.sys().dram().stats(),
        p.pmu().samples_taken(),
        p.pmu().interrupts_raised(),
        p.detector_stats(),
        p.detections().len(),
        p.refresh_log().len(),
        p.total_flips(),
    )
}

fn assert_digest(p: &Platform, pids: &[u32], want: &str) {
    let text = counters(p, pids);
    assert_eq!(
        format!("{:016x}", fnv1a64(text.as_bytes())),
        want,
        "counters:\n{text}"
    );
}

/// The first CLFLUSH-free aggressor pair whose victim row holds a
/// minimum-threshold cell, found as the paper campaigns find it.
fn vulnerable_pair() -> usize {
    (0..24)
        .find(|&i| {
            let mut probe = Platform::new(PlatformConfig::unprotected());
            let Ok(pid) =
                probe.add_attack(Box::new(ClflushFreeDoubleSided::new().with_pair_index(i)))
            else {
                return false;
            };
            let (_, victims) = probe.attack_truth(pid);
            let dram = probe.sys().dram();
            victims
                .iter()
                .any(|&v| dram.is_vulnerable_row(dram.mapping().location_of(v).row_id()))
        })
        .expect("a vulnerable pair among 24")
}

/// Table 3's CLFLUSH-free heavy-load cell (the three memory-intensive
/// benchmarks beside the attacker, baseline ANVIL), 12 ms at seed 3.
#[test]
fn table3_heavy_load_cell_counters_are_pinned() {
    let mut p = Platform::new(PlatformConfig::with_anvil(AnvilConfig::baseline()));
    let mut pids: Vec<u32> = SpecBenchmark::memory_intensive()
        .iter()
        .map(|b| p.add_workload(b.build(3)).expect("arena fits"))
        .collect();
    let attack: Box<dyn Attack> =
        Box::new(ClflushFreeDoubleSided::new().with_pair_index(vulnerable_pair()));
    pids.push(p.add_attack(attack).expect("attack prepares"));
    p.run_ms(12.0).expect("run completes");
    assert_digest(&p, &pids, "08c5a512304eb360");
}

/// One benchmark alone under baseline ANVIL, as the false-positive
/// campaigns run it, 12 ms at seed 3. gcc's 1 MiB loop phase wraps its
/// region every 16,384 ops, so the pattern's wrap is pinned too.
#[test]
fn solo_benchmark_cell_counters_are_pinned() {
    let mut p = Platform::new(PlatformConfig::with_anvil(AnvilConfig::baseline()));
    let pid = p
        .add_workload(SpecBenchmark::Gcc.build(3))
        .expect("arena fits");
    p.run_ms(12.0).expect("run completes");
    assert_digest(&p, &[pid], "fcd3465b9ed125cf");
}
