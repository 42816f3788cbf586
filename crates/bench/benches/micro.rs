//! Criterion microbenchmarks of the simulator's components.
//!
//! These do not reproduce paper results — they keep the *simulator* fast
//! enough that the experiment campaigns finish in minutes. Rough targets on
//! commodity hardware: DRAM access < 200 ns, hierarchy access < 150 ns,
//! platform step < 1 us. The perf trajectory's layers (cache, DRAM, the
//! detector window, the soak slice) are timed by `anvil-bench perfbench`.

use anvil_attacks::{Attack, DoubleSidedClflush, StandaloneHarness};
use anvil_cache::{CacheHierarchy, HierarchyConfig};
use anvil_core::{analyze, AnvilConfig, Platform, PlatformConfig, RowSample, FULL_WEIGHT};
use anvil_dram::{BankId, DramConfig, DramModule, RowId};
use anvil_mem::{AccessKind, AllocationPolicy, MemoryConfig, MemorySystem};
use anvil_workloads::SpecBenchmark;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_dram_access(c: &mut Criterion) {
    let mut dram = DramModule::new(DramConfig::paper_ddr3());
    let mut now = 0u64;
    let mut addr = 0u64;
    c.bench_function("dram_access_streaming", |b| {
        b.iter(|| {
            addr = (addr + 8192) & ((4 << 30) - 1);
            now += 200;
            black_box(dram.access(black_box(addr), now))
        });
    });

    let mut dram = DramModule::new(DramConfig::paper_ddr3());
    let mut now = 0u64;
    let mut i = 0u64;
    c.bench_function("dram_access_hammer", |b| {
        b.iter(|| {
            i += 1;
            now += 200;
            let addr = if i.is_multiple_of(2) {
                0x22000
            } else {
                0x66000
            };
            black_box(dram.access(black_box(addr), now))
        });
    });
}

fn bench_hierarchy_access(c: &mut Criterion) {
    let mut h = CacheHierarchy::new(HierarchyConfig::sandy_bridge_i5_2540m());
    let mut addr = 0u64;
    c.bench_function("hierarchy_access_hot_loop", |b| {
        b.iter(|| {
            addr = (addr + 64) & 0x3fff; // 16 KB loop: L1-resident
            black_box(h.access(black_box(addr), false))
        });
    });

    let mut h = CacheHierarchy::new(HierarchyConfig::sandy_bridge_i5_2540m());
    let mut addr = 0u64;
    c.bench_function("hierarchy_access_streaming", |b| {
        b.iter(|| {
            addr = (addr + 64) & ((1 << 30) - 1);
            black_box(h.access(black_box(addr), false))
        });
    });
}

fn bench_memory_system(c: &mut Criterion) {
    let mut sys = MemorySystem::new(MemoryConfig::paper_platform());
    let mut addr = 0u64;
    c.bench_function("memory_system_access", |b| {
        b.iter(|| {
            addr = (addr + 64) & ((1 << 28) - 1);
            black_box(sys.access(black_box(addr), AccessKind::Read))
        });
    });
}

fn bench_attack_iteration(c: &mut Criterion) {
    let mut harness =
        StandaloneHarness::new(MemoryConfig::paper_platform(), AllocationPolicy::Contiguous);
    let mut attack = DoubleSidedClflush::new();
    harness.prepare(&mut attack).unwrap();
    c.bench_function("attack_op_execute", |b| {
        b.iter(|| {
            let op = attack.next_op();
            black_box(anvil_attacks::exec_op(
                op,
                &harness.process,
                &mut harness.sys,
            ))
        });
    });
}

fn bench_platform_step(c: &mut Criterion) {
    let mut p = Platform::new(PlatformConfig::with_anvil(AnvilConfig::baseline()));
    let pid = p.add_workload(SpecBenchmark::Mcf.build(1)).unwrap();
    c.bench_function("platform_step_mcf_under_anvil", |b| {
        b.iter(|| p.run_core_ops(black_box(pid), 1).unwrap());
    });
}

fn bench_locality_analysis(c: &mut Criterion) {
    let config = AnvilConfig::baseline();
    let samples: Vec<RowSample> = (0..30)
        .map(|i| RowSample {
            row: RowId::new(BankId((i % 4) as u32), 100 + (i % 7) as u32),
            paddr: i * 8192,
            pid: 1,
            weight: FULL_WEIGHT,
        })
        .collect();
    c.bench_function("detector_locality_analysis", |b| {
        b.iter(|| {
            black_box(analyze(
                &config,
                black_box(&samples),
                80_000,
                15_600_000,
                166_400_000,
            ))
        });
    });
}

criterion_group!(
    benches,
    bench_dram_access,
    bench_hierarchy_access,
    bench_memory_system,
    bench_attack_iteration,
    bench_platform_step,
    bench_locality_analysis
);
criterion_main!(benches);
