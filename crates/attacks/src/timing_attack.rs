//! The pagemap-free CLFLUSH-free attack.
//!
//! The Linux response to double-sided rowhammering was to restrict
//! `/proc/pagemap`; the paper points out this "still leaves room for
//! potential attacks that rely on side-channel information to make
//! inferences about the physical memory layout" (Section 5.2.1). This
//! attack is that next escalation: it needs *neither CLFLUSH nor pagemap*.
//!
//! * Eviction sets are discovered by group testing with load timing
//!   ([`build_eviction_set_by_timing`]).
//! * Same-bank aggressor pairs are found with the DRAM row-conflict
//!   timing channel ([`same_bank_by_timing`]), scanning the candidate
//!   strides implied by physically contiguous allocation (the huge-page /
//!   fresh-boot assumption the JavaScript attack also makes).
//!
//! It fails — honestly — when the contiguity assumption is violated
//! (randomized frame allocation), which is exactly the defense trade-off
//! the experiment harness quantifies (`anvil-bench pagemap_hardening`).

use crate::env::{Attack, AttackEnv, AttackOp};
use crate::error::AttackError;
use crate::eviction::EvictionSet;
use crate::pattern::{discover_pattern, HammerPattern};
use crate::timing::{build_eviction_set_by_timing, same_bank_by_timing};
use anvil_cache::CacheHierarchy;
use anvil_mem::AccessKind;

const MB: u64 = 1 << 20;
const ROW_STRIDE: u64 = 128 << 10; // one row advance under contiguity (PA bit 17)
const BANK_STRIDE: u64 = 8 << 10; // one bank-bit step (PA bit 13)

#[derive(Debug)]
struct Prepared {
    /// One-time cache-cleaning preamble, executed before the loop.
    preamble: Vec<AttackOp>,
    /// Position within the preamble (== len once done).
    preamble_cursor: usize,
    ops: Vec<AttackOp>,
    cursor: usize,
    aggressors: Vec<u64>,
    victims: Vec<u64>,
}

/// Double-sided, CLFLUSH-free, pagemap-free rowhammering.
#[derive(Debug)]
pub struct TimingClflushFree {
    arena_bytes: u64,
    prepared: Option<Prepared>,
}

impl TimingClflushFree {
    /// Creates the attack with the default 24 MB arena.
    pub fn new() -> Self {
        TimingClflushFree {
            arena_bytes: 24 * MB,
            prepared: None,
        }
    }

    /// Overrides the arena size.
    #[must_use]
    pub fn with_arena_bytes(mut self, bytes: u64) -> Self {
        self.arena_bytes = bytes;
        self
    }
}

impl Default for TimingClflushFree {
    fn default() -> Self {
        Self::new()
    }
}

/// Synthetic same-set physical addresses for the attacker's *offline*
/// pattern simulator: pattern quality depends only on set behaviour, so
/// any addresses that share a slice+set stand in for the real (unknown)
/// ones.
fn synthetic_same_set(hierarchy_config: &anvil_cache::HierarchyConfig, n: usize) -> Vec<u64> {
    let probe = CacheHierarchy::new(*hierarchy_config);
    let key = probe.llc_set_of(0);
    let mut out = Vec::with_capacity(n);
    let mut pa = 0u64;
    while out.len() < n {
        if probe.llc_set_of(pa) == key {
            out.push(pa);
        }
        pa += 64;
    }
    out
}

impl Attack for TimingClflushFree {
    fn name(&self) -> &'static str {
        "timing-clflush-free"
    }

    fn prepare(&mut self, env: &mut AttackEnv<'_>) -> Result<(), AttackError> {
        let arena = env.process.mmap(self.arena_bytes, env.frames)?;
        let arena_len = self.arena_bytes;

        // Scan (base, j) candidates for a same-bank pair two row-strides
        // apart. j sweeps the bank bits that the controller XORs with the
        // row, including one extra bit for the carry case.
        let mut found: Option<(u64, u64, EvictionSet, EvictionSet)> = None;
        'search: for base_step in 0..12u64 {
            let below = arena + 64 + base_step * BANK_STRIDE;
            let buddy = below + 64; // second line in the same DRAM row
            let Ok(set_below) =
                build_eviction_set_by_timing(env.sys, env.process, arena, arena_len, below)
            else {
                continue;
            };
            let Ok(set_buddy) =
                build_eviction_set_by_timing(env.sys, env.process, arena, arena_len, buddy)
            else {
                continue;
            };
            for j in 0..16u64 {
                let above = below + 2 * ROW_STRIDE + j * BANK_STRIDE;
                if above + 64 > arena + arena_len {
                    break;
                }
                let Ok(set_above) =
                    build_eviction_set_by_timing(env.sys, env.process, arena, arena_len, above)
                else {
                    continue;
                };
                if same_bank_by_timing(
                    env.sys,
                    env.process,
                    (below, &set_below),
                    (buddy, &set_buddy),
                    (above, &set_above),
                    10,
                ) {
                    found = Some((below, above, set_below, set_above));
                    break 'search;
                }
            }
        }
        let (below, above, set_below, set_above) = found.ok_or(AttackError::NoAggressorPair)?;

        // Tune the hammer pattern on the attacker's private simulator with
        // synthetic same-set addresses.
        let hierarchy_config = *env.sys.hierarchy().config();
        let core = env.sys.config().core;
        let mut patterns: Vec<HammerPattern> = Vec::new();
        for set in [&set_below, &set_above] {
            let synth = synthetic_same_set(&hierarchy_config, set.len() + 1);
            let target = (set.target_va, synth[0]);
            let conflicts: Vec<(u64, u64)> = set
                .conflict_vas
                .iter()
                .zip(&synth[1..])
                .map(|(&va, &pa)| (va, pa))
                .collect();
            patterns.push(discover_pattern(
                &hierarchy_config,
                &core,
                target,
                &conflicts,
            ));
        }

        // The timing probes left the two cache sets in an arbitrary
        // replacement state; Bit-PLRU access patterns can converge to a
        // different (non-hammering) orbit from such a state. Start the
        // hammer loop with a one-time cleaning preamble that evicts both
        // sets completely, reproducing the cold start the pattern was
        // tuned for.
        let sets_per_slice = hierarchy_config.l3.sets() / hierarchy_config.l3_slices;
        let stride = (sets_per_slice * hierarchy_config.l3.line_bytes) as u64;
        let ways = set_below.len();
        let mut preamble = Vec::new();
        for target in [below, above] {
            let phase = (target - arena) % stride;
            for _ in 0..2 {
                for k in (6 * ways as u64)..(10 * ways as u64) {
                    let va = arena + phase + k * stride;
                    if va + 64 <= arena + arena_len {
                        preamble.push(AttackOp::Access {
                            vaddr: va,
                            kind: AccessKind::Read,
                        });
                    }
                }
            }
        }

        let mut ops = Vec::new();
        for p in &patterns {
            ops.extend(p.sequence.iter().map(|&vaddr| AttackOp::Access {
                vaddr,
                kind: AccessKind::Read,
            }));
        }

        // Ground truth for the experiment harness (translated through the
        // kernel view — the attack logic above never used it).
        let mapping = *env.sys.dram().mapping();
        let below_pa = env.process.translate(below).expect("mapped");
        let above_pa = env.process.translate(above).expect("mapped");
        let lb = mapping.location_of(below_pa);
        let la = mapping.location_of(above_pa);
        let mut victims = Vec::new();
        if lb.bank == la.bank && la.row.abs_diff(lb.row) == 2 {
            let mid = lb.row.min(la.row) + 1;
            victims.push(mapping.address_of(anvil_dram::DramLocation {
                bank: lb.bank,
                row: mid,
                col: 0,
            }));
        } else {
            // Same bank but not a perfect sandwich: the neighbors of both
            // aggressors are the victims.
            for (pa, _) in [(below_pa, lb), (above_pa, la)] {
                for d in [-1i64, 1] {
                    if let Some(v) = mapping.same_bank_row_offset(pa, d) {
                        victims.push(v);
                    }
                }
            }
        }

        self.prepared = Some(Prepared {
            preamble,
            preamble_cursor: 0,
            ops,
            cursor: 0,
            aggressors: vec![below_pa, above_pa],
            victims,
        });
        Ok(())
    }

    fn next_op(&mut self) -> AttackOp {
        let p = self.prepared.as_mut().expect("prepare the attack first");
        if p.preamble_cursor < p.preamble.len() {
            let op = p.preamble[p.preamble_cursor];
            p.preamble_cursor += 1;
            return op;
        }
        let op = p.ops[p.cursor];
        p.cursor = (p.cursor + 1) % p.ops.len();
        op
    }

    fn aggressor_paddrs(&self) -> Vec<u64> {
        self.prepared
            .as_ref()
            .map_or(Vec::new(), |p| p.aggressors.clone())
    }

    fn victim_paddrs(&self) -> Vec<u64> {
        self.prepared
            .as_ref()
            .map_or(Vec::new(), |p| p.victims.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::StandaloneHarness;
    use anvil_mem::{AllocationPolicy, MemoryConfig, PagemapPolicy};

    #[test]
    fn prepares_without_pagemap_on_contiguous_memory() {
        let mut harness =
            StandaloneHarness::new(MemoryConfig::paper_platform(), AllocationPolicy::Contiguous);
        harness.pagemap = PagemapPolicy::Restricted; // the Linux hardening
        let mut attack = TimingClflushFree::new();
        harness
            .prepare(&mut attack)
            .expect("timing attack needs no pagemap");

        // Ground truth: the timing-derived aggressors really share a bank.
        let map = harness.sys.dram().mapping();
        let aggs = attack.aggressor_paddrs();
        let a = map.location_of(aggs[0]);
        let b = map.location_of(aggs[1]);
        assert_eq!(a.bank, b.bank, "timing channel found a wrong-bank pair");
        assert_ne!(a.row, b.row);
    }

    #[test]
    fn hammers_both_aggressor_rows() {
        let mut harness =
            StandaloneHarness::new(MemoryConfig::paper_platform(), AllocationPolicy::Contiguous);
        harness.pagemap = PagemapPolicy::Restricted;
        let mut attack = TimingClflushFree::new();
        harness.prepare(&mut attack).unwrap();
        let (accesses, cycles) =
            crate::runner::measure_hammer_rate(&mut attack, &mut harness, 44 * 2_000);
        assert!(
            accesses > 3_000,
            "aggressor rows barely touched: {accesses}"
        );
        // Fast enough to matter: > 110K aggressor-row accesses per 64 ms.
        let per_64ms = accesses as f64 * 166_400_000.0 / cycles as f64;
        assert!(
            per_64ms > 110_000.0,
            "too slow: {per_64ms:.0} accesses/64ms"
        );
    }

    #[test]
    fn randomized_allocation_defeats_the_contiguity_assumption() {
        let mut harness = StandaloneHarness::new(
            MemoryConfig::paper_platform(),
            AllocationPolicy::Randomized { seed: 17 },
        );
        harness.pagemap = PagemapPolicy::Restricted;
        let mut attack = TimingClflushFree::new();
        let result = harness.prepare(&mut attack);
        assert!(
            result.is_err(),
            "scattered frames must break the stride heuristics"
        );
    }
}
