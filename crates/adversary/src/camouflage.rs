//! Camouflage hammering: dilute the PEBS sample mix with row-buffer-hit
//! filler so no aggressor row reaches the stage-2 sample floor.

use crate::common::{templated_pairs, victim_paddr, MB};
use anvil_attacks::{Attack, AttackEnv, AttackError, AttackOp};
use anvil_mem::AccessKind;

/// Cache-line stride of the filler stream.
const LINE: u64 = 64;

/// Double-sided hammering hidden inside a streaming load sweep.
///
/// Stage 2 attributes suspicion by the *share* of PEBS samples each row
/// receives, gated by an absolute per-row floor (3 samples per 6 ms
/// window in the paper's Table 2). Every load that misses the LLC with
/// latency above the sampler's threshold is sampleable — including
/// row-buffer *hits* from a sequential sweep (~102 cycles, just over the
/// 100-cycle PEBS latency filter). Interleaving `dilution` filler lines
/// per aggressor access keeps each aggressor row's expected samples
/// under the floor while the pair still accumulates activations faster
/// than a future module flips.
///
/// The hardened detector weighs samples by row-buffer-miss evidence
/// (hit-latency samples count 0.2), which restores the aggressors'
/// dominance of the weighted histogram; the suspicion ledger then
/// convicts them across windows even though each individual window stays
/// under the raw floor.
#[derive(Debug)]
pub struct CamouflageHammer {
    arena_bytes: u64,
    filler_bytes: u64,
    dilution: u64,
    prepared: Option<Prepared>,
}

#[derive(Debug)]
struct Prepared {
    pair_ops: [AttackOp; 4],
    filler_va: u64,
    filler_bytes: u64,
    filler_cursor: u64,
    /// Position within one [aggressor half, fillers, aggressor half,
    /// fillers] unit of length `4 + 2 * dilution`.
    step: u64,
    aggressors: Vec<u64>,
    victims: Vec<u64>,
}

impl CamouflageHammer {
    /// Creates the attack with a 16 MB filler arena (larger than the
    /// LLC, so the sweep keeps missing) and 10 filler lines per
    /// aggressor access.
    pub fn new() -> Self {
        CamouflageHammer {
            arena_bytes: 8 * MB,
            filler_bytes: 16 * MB,
            dilution: 10,
            prepared: None,
        }
    }

    /// Overrides the filler lines issued per aggressor access.
    #[must_use]
    pub fn with_dilution(mut self, lines: u64) -> Self {
        self.dilution = lines.max(1);
        self
    }

    /// Filler lines per aggressor access.
    pub fn dilution(&self) -> u64 {
        self.dilution
    }
}

impl Default for CamouflageHammer {
    fn default() -> Self {
        Self::new()
    }
}

impl Attack for CamouflageHammer {
    fn name(&self) -> &'static str {
        "camouflage-hammer"
    }

    fn prepare(&mut self, env: &mut AttackEnv<'_>) -> Result<(), AttackError> {
        let pair_va = env.process.mmap(self.arena_bytes, env.frames)?;
        let filler_va = env.process.mmap(self.filler_bytes, env.frames)?;
        let pairs = templated_pairs(env, pair_va, self.arena_bytes, 64)?;
        let pair = pairs[0];
        let victim_pa = victim_paddr(env, &pair);
        let [a, fa, b, fb] = crate::common::pair_iteration(&pair);
        self.prepared = Some(Prepared {
            pair_ops: [a, fa, b, fb],
            filler_va,
            filler_bytes: self.filler_bytes,
            filler_cursor: 0,
            step: 0,
            aggressors: vec![pair.below_pa, pair.above_pa],
            victims: vec![victim_pa],
        });
        Ok(())
    }

    fn next_op(&mut self) -> AttackOp {
        let d = self.dilution;
        let p = self.prepared.as_mut().expect("prepare the attack first");
        let unit = 4 + 2 * d;
        let s = p.step;
        p.step = (p.step + 1) % unit;
        // [acc below, flush below, d fillers, acc above, flush above,
        //  d fillers]
        match s {
            0 => p.pair_ops[0],
            1 => p.pair_ops[1],
            s if s < 2 + d => filler(p),
            s if s == 2 + d => p.pair_ops[2],
            s if s == 3 + d => p.pair_ops[3],
            _ => filler(p),
        }
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

/// The next line of the streaming sweep (wraps around the filler arena).
fn filler(p: &mut Prepared) -> AttackOp {
    let op = AttackOp::Access {
        vaddr: p.filler_va + p.filler_cursor,
        kind: AccessKind::Read,
    };
    p.filler_cursor = (p.filler_cursor + LINE) % p.filler_bytes;
    op
}

#[cfg(test)]
mod tests {
    use super::*;
    use anvil_mem::{
        AllocationPolicy, FrameAllocator, MemoryConfig, MemorySystem, PagemapPolicy, Process,
    };

    fn prepared(dilution: u64) -> CamouflageHammer {
        let mut sys = MemorySystem::new(MemoryConfig::paper_platform());
        let mut frames = FrameAllocator::new(sys.phys().capacity(), AllocationPolicy::Contiguous);
        let mut process = Process::new(9, "adversary");
        let mut attack = CamouflageHammer::new().with_dilution(dilution);
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

    /// Splits an op stream into (aggressor accesses, filler accesses):
    /// aggressor accesses are the ones immediately flushed.
    fn split(ops: &[AttackOp]) -> (Vec<u64>, Vec<u64>) {
        let mut aggressors = Vec::new();
        let mut fillers = Vec::new();
        for w in ops.windows(2) {
            if let AttackOp::Access { vaddr, .. } = w[0] {
                if matches!(w[1], AttackOp::Clflush { .. }) {
                    aggressors.push(vaddr);
                } else {
                    fillers.push(vaddr);
                }
            }
        }
        (aggressors, fillers)
    }

    #[test]
    fn mix_holds_the_dilution_ratio() {
        let mut attack = prepared(10);
        assert_eq!(attack.aggressor_paddrs().len(), 2);
        let unit = 4 + 2 * 10;
        let ops: Vec<AttackOp> = (0..=unit * 50).map(|_| attack.next_op()).collect();
        let (aggressors, fillers) = split(&ops);
        assert_eq!(fillers.len(), aggressors.len() * 10);
    }

    #[test]
    fn filler_stream_is_sequential_and_wraps() {
        let mut attack = prepared(2);
        let ops: Vec<AttackOp> = (0..65).map(|_| attack.next_op()).collect();
        let (_, fillers) = split(&ops);
        assert!(fillers.len() > 4);
        let consecutive = fillers.windows(2).filter(|p| p[1] == p[0] + LINE).count();
        // Within each 2-line filler run the stride is one line; across
        // aggressor interruptions the stream continues where it left off.
        assert_eq!(consecutive, fillers.len() - 1);
    }
}
