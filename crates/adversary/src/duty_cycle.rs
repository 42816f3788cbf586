//! Duty-cycled hammering: bursts that straddle stage-1 window boundaries.

use crate::common::{pair_iteration, push_idle, templated_pairs, victim_paddr, MB};
use crate::{EST_ATTACK_ACCESS_CYCLES, EST_STAGE1_WINDOW_CYCLES};
use anvil_attacks::{Attack, AttackEnv, AttackError, AttackOp};

/// Double-sided hammering in bursts synchronized to the detector's
/// stage-1 window grid.
///
/// ANVIL's stage 1 counts LLC misses over fixed `tc`-length windows. A
/// burst of `B` misses centered on a window *boundary* contributes only
/// `B/2` to each adjacent window, so bursts of up to `2(T-1)` misses
/// (with `T` the stage-1 threshold) never trip a boundary-aligned
/// detector while delivering up to three times the sustained-pacing
/// activation rate. The default burst of 28K misses every two windows
/// keeps each window at 14K — well under the paper's 20K threshold —
/// while landing ~149K pair activations per 64 ms refresh interval,
/// enough to flip the paper's "future DRAM" (110K threshold). The 6K
/// per-window margin matters: DRAM auto-refresh stalls drift the burst
/// off the window grid by ~62.5K cycles per window, smearing the split,
/// and a maximal 36K burst (18K per half) trips stage 1 within three
/// refresh intervals while 28K survives well past one.
///
/// Against the hardened detector the EWMA carry adds half of the
/// previous window's count to the current one (14K + 7K = 21K ≥ 20K),
/// the jittered window phase breaks the boundary synchronization, and
/// sticky stage-2 sampling keeps the sampler armed across the quiet half
/// of the duty cycle until the next burst lands inside it.
#[derive(Debug)]
pub struct DutyCycleHammer {
    arena_bytes: u64,
    window_cycles: u64,
    burst_misses: u64,
    prepared: Option<Prepared>,
}

#[derive(Debug)]
struct Prepared {
    ops: Vec<AttackOp>,
    /// Index the cursor wraps back to (the prefix before it is the
    /// one-time phase alignment).
    loop_start: usize,
    cursor: usize,
    aggressors: Vec<u64>,
    victims: Vec<u64>,
}

impl DutyCycleHammer {
    /// Creates the attack assuming the paper's baseline window (6 ms)
    /// and a 28K-miss burst every two windows.
    pub fn new() -> Self {
        DutyCycleHammer {
            arena_bytes: 8 * MB,
            window_cycles: EST_STAGE1_WINDOW_CYCLES,
            burst_misses: 28_000,
            prepared: None,
        }
    }

    /// Overrides the assumed stage-1 window length (in cycles).
    #[must_use]
    pub fn with_window_cycles(mut self, cycles: u64) -> Self {
        self.window_cycles = cycles.max(1);
        self
    }

    /// Overrides the misses per burst. Keep it under twice the stage-1
    /// threshold or the straddled windows will trip.
    #[must_use]
    pub fn with_burst_misses(mut self, misses: u64) -> Self {
        self.burst_misses = misses.max(2);
        self
    }

    /// Misses per burst (each burst straddles one window boundary).
    pub fn burst_misses(&self) -> u64 {
        self.burst_misses
    }
}

impl Default for DutyCycleHammer {
    fn default() -> Self {
        Self::new()
    }
}

impl Attack for DutyCycleHammer {
    fn name(&self) -> &'static str {
        "duty-cycle-hammer"
    }

    fn prepare(&mut self, env: &mut AttackEnv<'_>) -> Result<(), AttackError> {
        let va = env.process.mmap(self.arena_bytes, env.frames)?;
        let pairs = templated_pairs(env, va, self.arena_bytes, 64)?;
        let pair = pairs[0];
        let victim_pa = victim_paddr(env, &pair);

        let burst_cost = self.burst_misses * EST_ATTACK_ACCESS_CYCLES;
        let period = 2 * self.window_cycles;
        let mut ops = Vec::new();
        // One-time phase alignment: idle until the first burst is
        // centered on the first window boundary.
        push_idle(
            &mut ops,
            self.window_cycles.saturating_sub(burst_cost / 2).max(1),
        );
        let loop_start = ops.len();
        for _ in 0..self.burst_misses / 2 {
            ops.extend_from_slice(&pair_iteration(&pair));
        }
        // Idle out the rest of the two-window period.
        push_idle(&mut ops, period.saturating_sub(burst_cost).max(1));

        self.prepared = Some(Prepared {
            ops,
            loop_start,
            cursor: 0,
            aggressors: vec![pair.below_pa, pair.above_pa],
            victims: vec![victim_pa],
        });
        Ok(())
    }

    fn next_op(&mut self) -> AttackOp {
        let p = self.prepared.as_mut().expect("prepare the attack first");
        let op = p.ops[p.cursor];
        p.cursor += 1;
        if p.cursor >= p.ops.len() {
            p.cursor = p.loop_start;
        }
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
    use crate::common::IDLE_CHUNK_CYCLES;
    use anvil_mem::{
        AllocationPolicy, FrameAllocator, MemoryConfig, MemorySystem, PagemapPolicy, Process,
    };

    fn prepared() -> DutyCycleHammer {
        let mut sys = MemorySystem::new(MemoryConfig::paper_platform());
        let mut frames = FrameAllocator::new(sys.phys().capacity(), AllocationPolicy::Contiguous);
        let mut process = Process::new(7, "adversary");
        let mut attack = DutyCycleHammer::new();
        attack
            .prepare(&mut AttackEnv {
                sys: &mut sys,
                process: &mut process,
                frames: &mut frames,
                pagemap: PagemapPolicy::Open,
            })
            .unwrap();
        attack
    }

    #[test]
    fn phase_prefix_centers_the_burst_on_a_window_boundary() {
        let mut attack = prepared();
        // The prefix is pure idle summing to window - burst_cost/2.
        let want = EST_STAGE1_WINDOW_CYCLES - 28_000 * EST_ATTACK_ACCESS_CYCLES / 2;
        let mut idle = 0;
        while let AttackOp::Compute { cycles } = attack.next_op() {
            idle += cycles;
        }
        assert_eq!(idle, want);
    }

    #[test]
    fn each_period_delivers_exactly_the_burst_and_its_idle() {
        let mut attack = prepared();
        // Skip the alignment prefix.
        while matches!(attack.next_op(), AttackOp::Compute { .. }) {}
        // We consumed the first burst access already.
        let mut misses = 1u64;
        let mut idle = 0u64;
        // Walk one full period: burst (accesses+flushes), then idle, then
        // the next burst begins.
        loop {
            match attack.next_op() {
                AttackOp::Access { .. } if idle > 0 => break,
                AttackOp::Access { .. } => misses += 1,
                AttackOp::Clflush { .. } => {}
                AttackOp::Compute { cycles } => idle += cycles,
            }
        }
        assert_eq!(misses, 28_000);
        let period = 2 * EST_STAGE1_WINDOW_CYCLES;
        assert_eq!(idle, period - 28_000 * EST_ATTACK_ACCESS_CYCLES);
        // Idle comes in deadline-friendly chunks.
        const { assert!(IDLE_CHUNK_CYCLES <= 10_000) };
    }

    #[test]
    #[should_panic(expected = "prepare the attack first")]
    fn next_op_before_prepare_panics() {
        DutyCycleHammer::new().next_op();
    }
}
