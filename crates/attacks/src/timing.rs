//! Timing side channels: attack construction without `/proc/pagemap`.
//!
//! The paper observes that the Linux pagemap restriction "still leaves
//! room for potential attacks that rely on side-channel information to
//! make inferences about the physical memory layout" (Section 5.2.1), and
//! the JavaScript follow-up work (Gruss et al., the paper's reference
//! \[8\]) built exactly that. This module provides the two side-channel
//! primitives such an attacker needs, measured purely through access
//! latency:
//!
//! * [`build_eviction_set_by_timing`] — group-testing reduction of a
//!   candidate pool to a minimal eviction set, verified by whether walking
//!   the set makes the target's reload slow;
//! * [`same_bank_by_timing`] — DRAM row-conflict detection: alternating
//!   accesses to two uncached addresses are slow (precharge + activate
//!   each time) when the addresses share a bank but not a row.
//!
//! Neither primitive reads a single kernel interface. They do assume the
//! attacker's virtual memory is *physically contiguous* (a freshly booted
//! machine, or transparent huge pages) when choosing candidate strides —
//! the same assumption the real JavaScript attack leans on.

use crate::error::AttackError;
use crate::eviction::EvictionSet;
use anvil_dram::Cycle;
use anvil_mem::{AccessKind, MemorySystem, Process};

/// Latency threshold separating LLC hits from DRAM accesses, in cycles.
/// (L3 hits cost ~9 cycles in the core model; DRAM ~150+.)
pub const MISS_LATENCY_THRESHOLD: Cycle = 60;

fn access(sys: &mut MemorySystem, process: &Process, va: u64) -> Cycle {
    let pa = process
        .translate(va)
        .expect("attacker accesses its own mapping");
    sys.access(pa, AccessKind::Read).advance
}

/// Whether walking `set` evicts `target` *repeatedly* — the property the
/// hammer loop needs (a set that evicts only from a particular stale state
/// is useless for hammering).
///
/// Two sources of probe noise are handled: lines from previous probes
/// linger in the cache (flushed by first walking the disjoint `cleaner`
/// region), and a one-conflict-short set can evict *once* from a polluted
/// state under Bit-PLRU (caught by requiring eviction in the majority of
/// consecutive rounds, where the under-sized set reaches a stable
/// all-resident state and stops evicting).
fn evicts(
    sys: &mut MemorySystem,
    process: &Process,
    target: u64,
    set: &[u64],
    cleaner: &[u64],
) -> bool {
    for _ in 0..2 {
        for &c in cleaner {
            access(sys, process, c);
        }
    }
    access(sys, process, target); // ensure cached
    let mut evictions = 0;
    for _ in 0..3 {
        for _ in 0..2 {
            for &c in set {
                access(sys, process, c);
            }
        }
        if access(sys, process, target) >= MISS_LATENCY_THRESHOLD {
            evictions += 1;
        }
    }
    // Require eviction in EVERY round: an under-sized set can evict once
    // or twice from polluted state, but only a full set keeps evicting
    // from its own steady state — which is what the hammer loop needs.
    evictions == 3
}

/// Builds an eviction set for `target_va` using only load timing.
///
/// Candidates are drawn at the LLC way-stride (sets x line bytes) from the
/// arena — under contiguous physical allocation these share the target's
/// set-index bits; the slice bit is whatever it is, so roughly half the
/// candidates conflict. Group testing then discards candidates whose
/// removal leaves the set still evicting, until exactly `ways` remain.
///
/// # Errors
///
/// [`AttackError::EvictionSetTooSmall`] when the arena (or a violated
/// contiguity assumption) leaves too few conflicting candidates.
pub fn build_eviction_set_by_timing(
    sys: &mut MemorySystem,
    process: &Process,
    arena_va: u64,
    arena_len: u64,
    target_va: u64,
) -> Result<EvictionSet, AttackError> {
    let ways = sys.hierarchy().llc_ways();
    let sets_per_slice = sys.hierarchy().config().l3.sets() / sys.hierarchy().config().l3_slices;
    let stride = (sets_per_slice * sys.hierarchy().config().l3.line_bytes) as u64;

    // Candidate pool: same set-index stride across the arena; the tail of
    // the candidate sequence serves as the disjoint cleaner region.
    let phase = (target_va - arena_va) % stride;
    let mut candidates = (0..arena_len / stride)
        .map(|k| arena_va + phase + k * stride)
        .filter(|&va| va != target_va && va + 64 <= arena_va + arena_len);
    let mut pool: Vec<u64> = candidates.by_ref().take(6 * ways).collect();
    let cleaner: Vec<u64> = candidates.take(4 * ways).collect();

    if !evicts(sys, process, target_va, &pool, &cleaner) {
        return Err(AttackError::EvictionSetTooSmall {
            found: 0,
            needed: ways,
        });
    }

    // Group-testing reduction: repeatedly drop candidates whose removal
    // leaves the set still evicting. Residual replacement state makes
    // individual probes noisy, so run passes until a fixpoint; a handful
    // of surplus members is acceptable (the hammer loop just gets a few
    // accesses longer), exactly as in real timing-based attacks.
    let mut changed = true;
    while changed && pool.len() > ways {
        changed = false;
        let mut i = 0;
        while i < pool.len() && pool.len() > ways {
            let candidate = pool.remove(i);
            if evicts(sys, process, target_va, &pool, &cleaner) {
                changed = true; // not needed; keep it removed
            } else {
                pool.insert(i, candidate);
                i += 1;
            }
        }
    }

    if pool.len() > ways + 4 || !evicts(sys, process, target_va, &pool, &cleaner) {
        return Err(AttackError::EvictionSetTooSmall {
            found: pool.len().min(ways.saturating_sub(1)),
            needed: ways,
        });
    }
    Ok(EvictionSet {
        target_va,
        conflict_vas: pool,
    })
}

/// Decides whether two addresses share a DRAM bank (in different rows)
/// using the row-conflict timing channel. All probe addresses must have
/// eviction sets so they can be forced out of the cache between rounds.
///
/// Protocol (per round): evict everything; open `a`'s row by accessing
/// `a`; access `b`; then access `a_row_buddy` — another line in *`a`'s
/// own row*. If `b` shares the bank, its access closed `a`'s row and the
/// buddy access is a slow row *conflict*; if not, the row is still open
/// and the buddy access is a fast row-buffer *hit*. Measuring the
/// disturbance on `a`'s own bank makes the verdict immune to whatever
/// rows the eviction walks happened to open elsewhere.
///
/// The buddy must be a second line in the same DRAM row as `a` (e.g.
/// `a + 64` — rows are KBs long, lines 64 B).
pub fn same_bank_by_timing(
    sys: &mut MemorySystem,
    process: &Process,
    a: (u64, &EvictionSet),
    a_row_buddy: (u64, &EvictionSet),
    b: (u64, &EvictionSet),
    rounds: u32,
) -> bool {
    // Boundary between a DRAM row-buffer hit (~100 cycles) and a
    // precharge+activate conflict (~180 cycles).
    const ROW_CONFLICT_THRESHOLD: Cycle = 140;
    let mut slow = 0u32;
    let mut total = 0u32;
    for _ in 0..rounds {
        for set in [a.1, a_row_buddy.1, b.1] {
            for _ in 0..2 {
                for &c in &set.conflict_vas {
                    access(sys, process, c);
                }
            }
        }
        let ta = access(sys, process, a.0); // opens a's row
        let _tb = access(sys, process, b.0); // closes it iff same bank
        let t_buddy = access(sys, process, a_row_buddy.0);
        if ta >= MISS_LATENCY_THRESHOLD && t_buddy >= MISS_LATENCY_THRESHOLD {
            total += 1;
            if t_buddy >= ROW_CONFLICT_THRESHOLD {
                slow += 1;
            }
        }
    }
    total > 0 && slow * 2 > total
}

#[cfg(test)]
mod tests {
    use super::*;
    use anvil_mem::{AllocationPolicy, FrameAllocator, MemoryConfig};

    fn setup() -> (MemorySystem, Process, u64, u64) {
        let mut sys = MemorySystem::new(MemoryConfig::paper_platform());
        let mut frames = FrameAllocator::new(sys.phys().capacity(), AllocationPolicy::Contiguous);
        let mut p = Process::new(9, "timing-attacker");
        let len = 24 << 20;
        let va = p.mmap(len, &mut frames).unwrap();
        let _ = &mut sys;
        (sys, p, va, len)
    }

    #[test]
    fn timing_eviction_set_matches_ground_truth() {
        let (mut sys, p, va, len) = setup();
        let target = va + 128;
        let set = build_eviction_set_by_timing(&mut sys, &p, va, len, target).unwrap();
        let ways = sys.hierarchy().llc_ways();
        assert!(
            (ways..=ways + 4).contains(&set.len()),
            "set size {} out of range",
            set.len()
        );
        // Ground truth: at least `ways` members map to the target's
        // slice+set (noise may leave a few stragglers).
        let key = sys.hierarchy().llc_set_of(p.translate(target).unwrap());
        let same_set = set
            .conflict_vas
            .iter()
            .filter(|&&c| sys.hierarchy().llc_set_of(p.translate(c).unwrap()) == key)
            .count();
        assert!(same_set >= ways, "only {same_set} true conflicts");
    }

    #[test]
    fn timing_set_actually_evicts() {
        let (mut sys, p, va, len) = setup();
        let target = va + 4096;
        let set = build_eviction_set_by_timing(&mut sys, &p, va, len, target).unwrap();
        assert!(evicts(&mut sys, &p, target, &set.conflict_vas, &[]));
    }

    #[test]
    fn same_bank_detection_agrees_with_mapping() {
        let (mut sys, p, va, len) = setup();
        let mapping = *sys.dram().mapping();

        let a = va;
        let buddy = va + 64; // same DRAM row as `a`
        let set_a = build_eviction_set_by_timing(&mut sys, &p, va, len, a).unwrap();
        let set_buddy = build_eviction_set_by_timing(&mut sys, &p, va, len, buddy).unwrap();
        let mut checked_same = false;
        let mut checked_diff = false;
        // Try several candidate partners; compare the timing verdict with
        // the (ground-truth) mapping.
        for j in 0..10u64 {
            let b = va + 2 * (128 << 10) + j * 8192;
            if b >= va + len {
                break;
            }
            let Ok(set_b) = build_eviction_set_by_timing(&mut sys, &p, va, len, b) else {
                continue;
            };
            let verdict = same_bank_by_timing(
                &mut sys,
                &p,
                (a, &set_a),
                (buddy, &set_buddy),
                (b, &set_b),
                8,
            );
            let la = mapping.location_of(p.translate(a).unwrap());
            let lb = mapping.location_of(p.translate(b).unwrap());
            let truth = la.bank == lb.bank && la.row != lb.row;
            assert_eq!(verdict, truth, "timing verdict wrong for j={j}");
            checked_same |= truth;
            checked_diff |= !truth;
            if checked_same && checked_diff {
                return;
            }
        }
        assert!(checked_same, "never saw a same-bank pair among candidates");
    }
}
