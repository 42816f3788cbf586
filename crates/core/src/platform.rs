//! The full-system platform: cores running workloads and attacks against
//! the shared memory system, the PMU, and (optionally) the ANVIL kernel
//! module.
//!
//! Each program gets its own core with a private logical clock, as on the
//! paper's multi-core test machine; the runner always advances the core
//! with the smallest local time, so the shared memory system sees accesses
//! in (approximately) global time order. Detector work, PMIs, PEBS
//! assists, and selective-refresh reads are charged to core time — that
//! accounting is what reproduces the paper's slowdown numbers (Figures 3
//! and 4).

use crate::config::AnvilConfig;
use crate::detector::{AnvilDetector, DetectorStats, ServiceOutcome};
use crate::epoch::EpochEvent;
use crate::error::PlatformError;
use crate::guard::{StateCorruption, StateSite};
use crate::locality::LocalityReport;
use anvil_attacks::{Attack, AttackEnv, AttackOp};
use anvil_dram::{Cycle, RowId};
use anvil_faults::{
    DelayInjector, FaultPlan, FaultRng, StateCorruptionInjector, TranslationInjector,
};
use anvil_mem::{
    AccessKind, AllocationPolicy, FrameAllocator, MemoryConfig, MemorySystem, PagemapPolicy,
    Process,
};
use anvil_pmu::{Pmu, RetiredOp};
use anvil_workloads::Workload;
use serde::{Deserialize, Serialize};

/// What the kernel does with processes ANVIL repeatedly attributes
/// rowhammering to.
///
/// The paper only refreshes victims — attribution-based responses risk
/// punishing false positives. Suspension therefore requires a *streak* of
/// consecutive detections naming the same process: benign programs
/// (Table 4) trip sporadic single detections, while an attacker is flagged
/// every detection cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ResponsePolicy {
    /// The paper's behaviour: selectively refresh victim rows, nothing
    /// else.
    #[default]
    RefreshOnly,
    /// Refresh, and suspend any process named in this many *consecutive*
    /// detections (a non-detection stage-2 window resets all streaks).
    RefreshAndSuspend {
        /// Consecutive detections naming a pid before it is suspended.
        consecutive_detections: u32,
    },
}

/// Platform-level configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlatformConfig {
    /// Memory system (caches, DRAM, core model, clock).
    pub memory: MemoryConfig,
    /// ANVIL configuration; `None` runs unprotected.
    pub anvil: Option<AnvilConfig>,
    /// Physical frame allocation policy.
    pub allocation: AllocationPolicy,
    /// Pagemap exposure policy.
    pub pagemap: PagemapPolicy,
    /// Response to attributed rowhammering.
    pub response: ResponsePolicy,
    /// Substrate fault injection; [`FaultPlan::none`] (the default) runs
    /// a perfect substrate.
    pub faults: FaultPlan,
}

impl PlatformConfig {
    /// The paper's platform, unprotected.
    pub fn unprotected() -> Self {
        PlatformConfig {
            memory: MemoryConfig::paper_platform(),
            anvil: None,
            allocation: AllocationPolicy::Contiguous,
            pagemap: PagemapPolicy::Open,
            response: ResponsePolicy::RefreshOnly,
            faults: FaultPlan::none(),
        }
    }

    /// The paper's platform with ANVIL loaded in the given configuration.
    pub fn with_anvil(anvil: AnvilConfig) -> Self {
        let mut c = Self::unprotected();
        c.anvil = Some(anvil);
        c
    }

    /// The same platform with the given fault plan injected.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

impl Default for PlatformConfig {
    fn default() -> Self {
        Self::unprotected()
    }
}

/// One rowhammer detection, as recorded by the platform.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionEvent {
    /// When the stage-2 analysis flagged the attack.
    pub cycle: Cycle,
    /// The analysis result.
    pub report: LocalityReport,
    /// Victim rows selectively refreshed in response.
    pub refreshed: Vec<RowId>,
}

/// Public per-core counters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreStats {
    /// Process id of the program on this core.
    pub pid: u32,
    /// Program name.
    pub name: String,
    /// Operations executed.
    pub ops: u64,
    /// Core-local time (cycles), including detector charges.
    pub cycles: Cycle,
}

/// Upper bound on operations executed per [`Platform::run_batch`] call:
/// long enough to amortize the per-batch scheduling scan, short enough
/// that a batch never holds many milliseconds of simulated time.
const BATCH_OPS: u64 = 1024;

/// The typed bound set one batch runs under — the platform's instance of
/// the event taxonomy in [`epoch`](crate::epoch). A batch **never steps
/// past** any of these: the detector's window boundary, the DRAM
/// refresh/compaction deadline, the run horizon, or a scheduler yield
/// point. Per-event checks match the historical per-op loop exactly (the
/// yield test compares `(clock, index)` pairs, which encodes the
/// lowest-index tie-break; the refresh deadline is tested against system
/// time because writebacks advance memory beyond the core's local clock).
#[derive(Debug, Clone, Copy)]
struct BatchHorizons {
    /// [`EpochEvent::WindowBoundary`]: the detector's service deadline.
    window: Cycle,
    /// [`EpochEvent::RefreshDeadline`]: the next compaction epoch.
    refresh: Cycle,
    /// [`EpochEvent::RunEnd`]: the caller's limit.
    run_end: Cycle,
    /// [`EpochEvent::CoreYield`]: the runner-up's `(clock, index)`; the
    /// batch's core yields once its own pair sorts after it.
    runner_up: (Cycle, usize),
}

impl BatchHorizons {
    /// The event due when core `idx` is at `local` and memory at
    /// `sys_now`, if any — checked once per op so a batch stops *at* the
    /// first horizon it reaches, never past it. Check order mirrors
    /// [`EpochEvent`]'s tie-break priority.
    fn event_due(&self, idx: usize, local: Cycle, sys_now: Cycle) -> Option<EpochEvent> {
        if local >= self.window {
            return Some(EpochEvent::WindowBoundary);
        }
        if sys_now >= self.refresh {
            return Some(EpochEvent::RefreshDeadline);
        }
        if local >= self.run_end {
            return Some(EpochEvent::RunEnd);
        }
        if (local, idx) > self.runner_up {
            return Some(EpochEvent::CoreYield);
        }
        None
    }
}

/// Number of slices the incremental state scrub divides the detector's
/// cells into: each serviced window verifies one slice, so every cell is
/// checked at least once every `SCRUB_SLICES` windows (~24 ms at the
/// paper's 6 ms `tc`).
pub const SCRUB_SLICES: u64 = 4;

enum Program {
    Workload(Box<dyn Workload>),
    Attack(Box<dyn Attack>),
}

impl std::fmt::Debug for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Program::Workload(w) => write!(f, "Workload({})", w.name()),
            Program::Attack(a) => write!(f, "Attack({})", a.name()),
        }
    }
}

#[derive(Debug)]
struct Core {
    process: Process,
    program: Program,
    base_va: u64,
    local: Cycle,
    ops: u64,
    suspended: bool,
}

/// The platform runner.
///
/// # Examples
///
/// ```
/// use anvil_core::{AnvilConfig, Platform, PlatformConfig};
/// use anvil_workloads::SpecBenchmark;
///
/// let mut platform = Platform::new(PlatformConfig::with_anvil(AnvilConfig::baseline()));
/// let pid = platform.add_workload(SpecBenchmark::Mcf.build(1))?;
/// platform.run_ms(1.0)?;
/// assert!(platform.core_stats(pid).unwrap().ops > 0);
/// # Ok::<(), anvil_core::PlatformError>(())
/// ```
#[derive(Debug)]
pub struct Platform {
    config: PlatformConfig,
    sys: MemorySystem,
    pmu: Pmu,
    detector: Option<AnvilDetector>,
    frames: FrameAllocator,
    cores: Vec<Core>,
    next_pid: u32,
    detections: Vec<DetectionEvent>,
    refresh_log: Vec<(Cycle, RowId)>,
    suspect_streaks: std::collections::HashMap<u32, u32>,
    translation_faults: Option<TranslationInjector>,
    interrupt_jitter: Option<DelayInjector>,
    service_delay: Option<DelayInjector>,
    state_faults: Option<StateCorruptionInjector>,
    scrub_slice: u64,
    state_corruptions: Vec<StateCorruption>,
    started: Cycle,
    last_compact: Cycle,
    /// The run queue: every runnable core as `(clock, index)`, ascending,
    /// so the scheduler's pick — the lowest-index core at the minimum
    /// clock — is the head and the batch's yield bound is the next entry.
    /// Only the running core's clock moves during a batch, so one
    /// insertion step re-sorts it; anything else that moves clocks or
    /// suspends cores (a serviced window, adding a program) rebuilds it.
    queue: Vec<(Cycle, usize)>,
}

impl Platform {
    /// Boots the platform.
    pub fn new(config: PlatformConfig) -> Self {
        let mut sys = MemorySystem::new(config.memory);
        let mut pmu = Pmu::new(
            config
                .anvil
                .map_or_else(anvil_pmu::SamplerConfig::anvil_default, |a| a.sampling),
        );
        // Each fault site forks its own stream from the campaign seed, so
        // enabling one source never perturbs another's sequence.
        let plan = config.faults;
        let root = FaultRng::new(plan.seed);
        pmu.set_fault_injector(plan.pebs_injector(root.fork(1)));
        pmu.set_counter_saturation(plan.counter.saturate_at);
        let translation_faults = plan.translation_injector(root.fork(2));
        let interrupt_jitter = plan.interrupt_delay(root.fork(3));
        let service_delay = plan.service_delay(root.fork(4));
        let state_faults = plan.state_injector(root.fork(6));
        sys.set_refresh_postpone(plan.refresh_postpone());
        let detector = config.anvil.map(|a| {
            AnvilDetector::new(
                a,
                &config.memory.clock,
                config.memory.dram.timing.refresh_period,
                0,
                &mut pmu,
            )
        });
        let frames = FrameAllocator::new(sys.phys().capacity(), config.allocation);
        Platform {
            sys,
            pmu,
            detector,
            frames,
            cores: Vec::new(),
            next_pid: 100,
            detections: Vec::new(),
            refresh_log: Vec::new(),
            suspect_streaks: std::collections::HashMap::new(),
            translation_faults,
            interrupt_jitter,
            service_delay,
            state_faults,
            scrub_slice: 0,
            state_corruptions: Vec::new(),
            started: 0,
            last_compact: 0,
            queue: Vec::new(),
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// The shared memory system.
    pub fn sys(&self) -> &MemorySystem {
        &self.sys
    }

    /// Mutable access to the memory system, for experiment setup (staging
    /// victim data, direct inspection). Not used by programs themselves.
    pub fn sys_mut(&mut self) -> &mut MemorySystem {
        &mut self.sys
    }

    /// The PMU (for inspection).
    pub fn pmu(&self) -> &Pmu {
        &self.pmu
    }

    /// Detector counters, if ANVIL is loaded.
    pub fn detector_stats(&self) -> Option<&DetectorStats> {
        self.detector.as_ref().map(AnvilDetector::stats)
    }

    /// Detections so far.
    pub fn detections(&self) -> &[DetectionEvent] {
        &self.detections
    }

    /// Every selective refresh performed: (cycle, victim row).
    pub fn refresh_log(&self) -> &[(Cycle, RowId)] {
        &self.refresh_log
    }

    /// Bit flips the DRAM has produced so far.
    pub fn total_flips(&self) -> u64 {
        self.sys.total_flips()
    }

    /// Every detector-state corruption surfaced so far (repaired or
    /// escalated), in discovery order.
    pub fn state_corruptions(&self) -> &[StateCorruption] {
        &self.state_corruptions
    }

    /// Switches the detector's state cells between guarded (replicated,
    /// checksummed, scrubbed — the default) and unguarded (blind replica-0
    /// reads, the ablation baseline). No-op when ANVIL is not loaded.
    pub fn set_state_guard(&mut self, guarded: bool) {
        if let Some(det) = self.detector.as_mut() {
            det.set_state_guard(guarded);
        }
    }

    /// Flips `bit` of the replicas in `replica_mask` of detector state
    /// cell `index` — the hook physical disturbance models use to land
    /// flips in the detector's own rows. Returns the corrupted site, or
    /// `None` when ANVIL is not loaded or the index is out of range.
    pub fn corrupt_state_cell(
        &mut self,
        index: usize,
        replica_mask: u8,
        bit: u8,
    ) -> Option<StateSite> {
        self.detector
            .as_mut()
            .and_then(|det| det.corrupt_state_cell(index, replica_mask, bit))
    }

    /// The number of live detector state cells (fixed scalar cells plus
    /// two per suspicion-ledger entry); zero when ANVIL is not loaded.
    pub fn state_cell_count(&self) -> usize {
        self.detector
            .as_ref()
            .map_or(0, AnvilDetector::state_cell_count)
    }

    /// Global time: the minimum core-local clock (all cores have reached
    /// it), or the memory-system clock when no cores exist.
    pub fn now(&self) -> Cycle {
        self.cores
            .iter()
            .filter(|c| !c.suspended)
            .map(|c| c.local)
            .min()
            .or_else(|| self.cores.iter().map(|c| c.local).min())
            .unwrap_or_else(|| self.sys.now())
    }

    /// Adds a workload on its own core; returns the pid.
    ///
    /// # Errors
    ///
    /// [`PlatformError::OutOfMemory`] if physical memory is exhausted
    /// mapping the arena.
    pub fn add_workload(&mut self, workload: Box<dyn Workload>) -> Result<u32, PlatformError> {
        let pid = self.next_pid;
        self.next_pid += 1;
        let mut process = Process::new(pid, workload.name());
        let requested = workload.arena_bytes();
        let base_va = process
            .mmap(requested, &mut self.frames)
            .map_err(|_| PlatformError::OutOfMemory { pid, requested })?;
        let start = self.now();
        self.cores.push(Core {
            process,
            program: Program::Workload(workload),
            base_va,
            local: start,
            ops: 0,
            suspended: false,
        });
        Ok(pid)
    }

    /// Adds (and prepares) an attack on its own core; returns the pid.
    ///
    /// # Errors
    ///
    /// [`PlatformError::Attack`] wrapping the attack's preparation
    /// failure (e.g. pagemap denied).
    pub fn add_attack(&mut self, mut attack: Box<dyn Attack>) -> Result<u32, PlatformError> {
        let pid = self.next_pid;
        self.next_pid += 1;
        let mut process = Process::new(pid, attack.name());
        attack.prepare(&mut AttackEnv {
            sys: &mut self.sys,
            process: &mut process,
            frames: &mut self.frames,
            pagemap: self.config.pagemap,
        })?;
        let start = self.now();
        self.cores.push(Core {
            process,
            program: Program::Attack(attack),
            base_va: 0,
            local: start,
            ops: 0,
            suspended: false,
        });
        Ok(pid)
    }

    /// Per-core counters for `pid`.
    pub fn core_stats(&self, pid: u32) -> Option<CoreStats> {
        self.cores
            .iter()
            .find(|c| c.process.pid() == pid)
            .map(|c| CoreStats {
                pid,
                name: format!("{:?}", c.program),
                ops: c.ops,
                cycles: c.local,
            })
    }

    /// Aggressor/victim ground truth of the attack running as `pid`
    /// (empty for workloads).
    pub fn attack_truth(&self, pid: u32) -> (Vec<u64>, Vec<u64>) {
        match self.cores.iter().find(|c| c.process.pid() == pid) {
            Some(Core {
                program: Program::Attack(a),
                ..
            }) => (a.aggressor_paddrs(), a.victim_paddrs()),
            _ => (Vec::new(), Vec::new()),
        }
    }

    /// Runs for `ms` of simulated time.
    ///
    /// # Errors
    ///
    /// See [`Platform::run_until`].
    pub fn run_ms(&mut self, ms: f64) -> Result<(), PlatformError> {
        let end = self.now() + self.config.memory.clock.ms_to_cycles(ms);
        self.run_until(end)
    }

    /// Runs until every core's local clock reaches `end`.
    ///
    /// # Errors
    ///
    /// [`PlatformError::NoPrograms`] if nothing was added, or any fault
    /// a program trips while running (unmapped accesses).
    pub fn run_until(&mut self, end: Cycle) -> Result<(), PlatformError> {
        if self.cores.is_empty() {
            return Err(PlatformError::NoPrograms);
        }
        self.requeue();
        // An empty queue: every core is suspended.
        while let Some(&(local, idx)) = self.queue.first() {
            if local >= end {
                break;
            }
            self.run_batch(idx, BATCH_OPS, end)?;
            self.after_batch();
        }
        Ok(())
    }

    /// Runs until core `pid` has executed `ops` more operations (other
    /// cores keep pace in time).
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownPid`] if no core runs `pid`, or any fault
    /// a program trips while running.
    pub fn run_core_ops(&mut self, pid: u32, ops: u64) -> Result<(), PlatformError> {
        let target_idx = self
            .cores
            .iter()
            .position(|c| c.process.pid() == pid)
            .ok_or(PlatformError::UnknownPid(pid))?;
        let goal = self.cores[target_idx].ops + ops;
        self.requeue();
        while self.cores[target_idx].ops < goal {
            let Some(&(_, idx)) = self.queue.first() else {
                return Ok(()); // every core suspended
            };
            if self.cores[target_idx].suspended {
                return Ok(()); // the target itself was suspended
            }
            let cap = if idx == target_idx {
                BATCH_OPS.min(goal - self.cores[target_idx].ops)
            } else {
                BATCH_OPS
            };
            self.run_batch(idx, cap, Cycle::MAX)?;
            self.after_batch();
        }
        Ok(())
    }

    /// Rebuilds the run queue from the cores.
    fn requeue(&mut self) {
        self.queue.clear();
        self.queue.extend(
            self.cores
                .iter()
                .enumerate()
                .filter(|(_, c)| !c.suspended)
                .map(|(i, c)| (c.local, i)),
        );
        self.queue.sort_unstable();
    }

    /// The between-batch work: detector service, then compaction. A
    /// serviced window charges cores and may suspend some, so it rebuilds
    /// the run queue.
    fn after_batch(&mut self) {
        if self.service_detector(self.queue[0].0) {
            self.requeue();
        }
        self.maybe_compact();
    }

    /// Executes up to `max_ops` operations on core `idx` — the scheduler's
    /// current pick, the head of the run queue — stopping at the batch's
    /// [`BatchHorizons`]: the platform instance of the event taxonomy in
    /// [`epoch`](crate::epoch). The observable schedule is identical to
    /// re-picking the minimum core before every op. The bookkeeping is
    /// O(1) per batch apart from re-sorting the head, which matters
    /// because batches are short in multi-core runs: cores interleave
    /// closely in time, so a Table 3 heavy-load cell (four workloads plus
    /// the attacker) averages 2.3 ops per batch.
    ///
    /// This is the engine's **per-op fallback region**: platform
    /// workloads and attacks mutate cache recency, row buffers, and the
    /// sampler on every access, so no closed form is valid between
    /// horizons and each op is stepped individually. The window-granular
    /// engines (`anvil-runtime`'s soak path) are where benign epochs
    /// collapse to one analytical jump; the horizon discipline — never
    /// step past a window boundary, refresh deadline, or registered
    /// fault site — is shared.
    fn run_batch(&mut self, idx: usize, max_ops: u64, limit: Cycle) -> Result<(), PlatformError> {
        let horizons = self.batch_horizons(limit);
        let mut ops = 0u64;
        let result = loop {
            if let Err(e) = self.step_op(idx) {
                break Err(e);
            }
            ops += 1;
            let local = self.cores[idx].local;
            // The batch quantum itself counts as a scheduler yield, so
            // cross-core interleavings replay identically at any batch
            // size.
            if horizons.event_due(idx, local, self.sys.now()).is_some() || ops >= max_ops {
                break Ok(());
            }
        };
        // Re-sort the head: only its clock moved, so it moves past the
        // prefix of the sorted rest that now sorts before it. Counting
        // that prefix over the whole rest has no branch on its length.
        let head = (self.cores[idx].local, idx);
        let p = self.queue[1..].iter().filter(|&&e| e < head).count();
        for k in 0..p {
            self.queue[k] = self.queue[k + 1];
        }
        self.queue[p] = head;
        result
    }

    /// Computes the typed bound set one batch of the queue's head runs
    /// under. Only the head advances inside the batch, so the other
    /// cores' clocks — and thus these bounds — are invariant for its
    /// duration.
    fn batch_horizons(&self, limit: Cycle) -> BatchHorizons {
        BatchHorizons {
            window: self
                .detector
                .as_ref()
                .map_or(Cycle::MAX, AnvilDetector::deadline),
            refresh: self
                .last_compact
                .saturating_add(self.config.memory.dram.timing.refresh_period),
            run_end: limit,
            runner_up: self
                .queue
                .get(1)
                .copied()
                .unwrap_or((Cycle::MAX, usize::MAX)),
        }
    }

    /// Pids currently suspended by the response policy.
    pub fn suspended_pids(&self) -> Vec<u32> {
        self.cores
            .iter()
            .filter(|c| c.suspended)
            .map(|c| c.process.pid())
            .collect()
    }

    /// Executes one operation on core `idx` (no scheduler or detector
    /// bookkeeping — that lives in [`run_batch`](Self::run_batch) and the
    /// outer run loops).
    fn step_op(&mut self, idx: usize) -> Result<(), PlatformError> {
        let core = &mut self.cores[idx];
        let pid = core.process.pid();
        let (vaddr, outcome) = match &mut core.program {
            Program::Workload(w) => {
                let op = w.next_op();
                let vaddr = core.base_va + op.offset;
                let t = core.local + op.compute_cycles;
                let paddr = core
                    .process
                    .translate(vaddr)
                    .ok_or(PlatformError::UnmappedAccess { pid, vaddr })?;
                let o = self.sys.access_at(paddr, op.kind, t);
                core.local = t + o.advance;
                (vaddr, Some(o))
            }
            Program::Attack(a) => match a.next_op() {
                AttackOp::Access { vaddr, kind } => {
                    let paddr = core
                        .process
                        .translate(vaddr)
                        .ok_or(PlatformError::UnmappedAccess { pid, vaddr })?;
                    let o = self.sys.access_at(paddr, kind, core.local);
                    core.local += o.advance;
                    (vaddr, Some(o))
                }
                AttackOp::Clflush { vaddr } => {
                    let paddr = core
                        .process
                        .translate(vaddr)
                        .ok_or(PlatformError::UnmappedFlush { pid, vaddr })?;
                    self.sys.clflush_at(paddr, core.local);
                    core.local += self.config.memory.core.clflush_cost;
                    (vaddr, None)
                }
                AttackOp::Compute { cycles } => {
                    core.local += cycles;
                    (0, None)
                }
            },
        };
        core.ops += 1;

        if let Some(o) = outcome {
            let t = core.local;
            let effect = self.pmu.observe_at(
                &RetiredOp {
                    vaddr,
                    pid,
                    outcome: o,
                },
                t,
            );
            if let Some(det) = &self.detector {
                let costs = det.config().costs;
                if effect.sampled {
                    self.cores[idx].local += costs.sample;
                }
                if effect.interrupt.is_some() {
                    self.cores[idx].local += costs.pmi;
                }
            }
        }
        Ok(())
    }

    /// Runs detector windows whose deadlines every core has passed, given
    /// the minimum runnable core clock. Returns whether any window ran.
    fn service_detector(&mut self, min_local: Cycle) -> bool {
        let mut serviced = false;
        loop {
            let Some(det) = self.detector.as_mut() else {
                return serviced;
            };
            if det.deadline() > min_local {
                return serviced;
            }
            serviced = true;
            // Injected faults slip the service past its deadline: PMI
            // delivery jitter plus kernel-thread preemption.
            let slip = self
                .interrupt_jitter
                .as_mut()
                .map_or(0, DelayInjector::draw)
                + self.service_delay.as_mut().map_or(0, DelayInjector::draw);
            let now = det.deadline() + slip;
            // Self-integrity: the detector verifies one slice of its own
            // cells every window. Injected state flips land around the
            // slice — before it (repairable this window) or after it (a
            // scrub race that survives until a later pass or a guarded
            // read catches it).
            if let Some(inj) = self.state_faults.as_mut() {
                let flips = inj.window_flips(det.state_cell_count());
                for f in flips.iter().filter(|f| !f.after_scrub) {
                    det.corrupt_state_cell(f.cell, f.replica_mask, f.bit);
                }
                det.scrub_state_slice(self.scrub_slice, SCRUB_SLICES);
                for f in flips.iter().filter(|f| f.after_scrub) {
                    det.corrupt_state_cell(f.cell, f.replica_mask, f.bit);
                }
            } else {
                det.scrub_state_slice(self.scrub_slice, SCRUB_SLICES);
            }
            self.scrub_slice = (self.scrub_slice + 1) % SCRUB_SLICES;
            let mapping = *self.sys.dram().mapping();
            let cores = &self.cores;
            let faults = &mut self.translation_faults;
            let mut translate = |pid: u32, va: u64| {
                let process = cores
                    .iter()
                    .find(|c| c.process.pid() == pid)
                    .map(|c| &c.process)?;
                match faults.as_mut() {
                    Some(inj) => process.translate_with_faults(va, inj),
                    None => process.translate(va),
                }
            };
            let outcome = det.service(now, &mut self.pmu, &mapping, &mut translate);
            let costs = det.config().costs;

            // The detector runs in kernel context on whichever core the
            // timer interrupted; charge the laggard (it is the next to
            // run).
            let victim_core = self
                .cores
                .iter()
                .enumerate()
                .filter(|(_, c)| !c.suspended)
                .min_by_key(|(_, c)| c.local)
                .map(|(i, _)| i)
                .expect("a runnable core exists");

            match outcome {
                ServiceOutcome::Quiet { cost, .. } | ServiceOutcome::Armed { cost, .. } => {
                    self.cores[victim_core].local += cost;
                }
                ServiceOutcome::Analyzed {
                    report,
                    refreshes,
                    cost,
                } => {
                    self.cores[victim_core].local += cost;
                    if report.detected() {
                        self.commit_detection(
                            now,
                            victim_core,
                            costs.refresh_read,
                            report,
                            &refreshes,
                        );
                    } else {
                        // A clean stage-2 window breaks every suspect's
                        // streak: sporadic false positives never accumulate
                        // to a suspension.
                        self.suspect_streaks.clear();
                    }
                }
                ServiceOutcome::Degraded {
                    report,
                    refreshes,
                    banks,
                    cost,
                } => {
                    self.cores[victim_core].local += cost;
                    if report.detected() {
                        self.commit_detection(
                            now,
                            victim_core,
                            costs.refresh_read,
                            report,
                            &refreshes,
                        );
                    }
                    // Conservative fallback: blanket-refresh the suspect
                    // banks. A degraded window is not clean evidence, so
                    // suspect streaks are left untouched either way.
                    for &bank in &banks {
                        self.sys.refresh_bank(bank, now);
                        self.cores[victim_core].local += costs.bank_refresh;
                    }
                }
            }
            // Every corruption the scrub or a guarded read surfaced this
            // window becomes part of the platform's declared record —
            // nothing is silently absorbed.
            if let Some(det) = self.detector.as_mut() {
                self.state_corruptions.extend(det.take_state_corruptions());
            }
        }
    }

    /// Performs the selective refreshes for a detection, applies the
    /// response policy, and records the event.
    fn commit_detection(
        &mut self,
        now: Cycle,
        victim_core: usize,
        refresh_read: Cycle,
        report: LocalityReport,
        refreshes: &[(RowId, u64)],
    ) {
        let mut refreshed = Vec::new();
        for &(row, paddr) in refreshes {
            // Flush then read so the read reaches DRAM and actually
            // restores the victim row's charge.
            self.sys.clflush_at(paddr, now);
            self.sys.access_at(paddr, AccessKind::Read, now);
            self.cores[victim_core].local += refresh_read;
            self.refresh_log.push((now, row));
            refreshed.push(row);
        }
        self.apply_response(&report);
        self.detections.push(DetectionEvent {
            cycle: now,
            report,
            refreshed,
        });
    }

    /// Applies the configured response policy to a detection's suspects.
    fn apply_response(&mut self, report: &LocalityReport) {
        let ResponsePolicy::RefreshAndSuspend {
            consecutive_detections,
        } = self.config.response
        else {
            return;
        };
        let mut suspects: Vec<u32> = report
            .aggressors
            .iter()
            .flat_map(|a| a.pids.iter().copied())
            .collect();
        suspects.sort_unstable();
        suspects.dedup();
        // Streaks only persist for pids named again this detection.
        self.suspect_streaks.retain(|pid, _| suspects.contains(pid));
        for pid in suspects {
            let streak = self.suspect_streaks.entry(pid).or_insert(0);
            *streak += 1;
            if *streak >= consecutive_detections {
                if let Some(core) = self.cores.iter_mut().find(|c| c.process.pid() == pid) {
                    core.suspended = true;
                }
            }
        }
    }

    /// Bounds simulator memory on long runs.
    fn maybe_compact(&mut self) {
        let period = self.config.memory.dram.timing.refresh_period;
        let now = self.sys.now();
        if now.saturating_sub(self.last_compact) >= period {
            self.sys.compact();
            self.last_compact = now;
        }
    }

    /// Time (ms since the platform started) of the first detection, if
    /// any.
    pub fn first_detection_ms(&self) -> Option<f64> {
        self.detections.first().map(|d| {
            self.config
                .memory
                .clock
                .cycles_to_ms(d.cycle - self.started)
        })
    }

    /// Selective refreshes per 64 ms refresh window, averaged over the run
    /// so far.
    pub fn refreshes_per_window(&self) -> f64 {
        let period = self.config.memory.dram.timing.refresh_period;
        let elapsed = self.now().saturating_sub(self.started).max(1);
        self.refresh_log.len() as f64 * period as f64 / elapsed as f64
    }

    /// Selective refreshes per second, averaged over the run so far (the
    /// paper's false-positive metric in Tables 4 and 5).
    pub fn refreshes_per_second(&self) -> f64 {
        let elapsed_s = self
            .config
            .memory
            .clock
            .cycles_to_s(self.now().saturating_sub(self.started))
            .max(1e-12);
        self.refresh_log.len() as f64 / elapsed_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anvil_attacks::{ClflushFreeDoubleSided, DoubleSidedClflush};
    use anvil_workloads::SpecBenchmark;

    #[test]
    fn unprotected_attack_flips_bits() {
        let mut p = Platform::new(PlatformConfig::unprotected());
        // Scan pair indices for a vulnerable victim like a real attacker.
        let mut added = false;
        for i in 0..16 {
            let mut probe = Platform::new(PlatformConfig::unprotected());
            let pid = probe
                .add_attack(Box::new(DoubleSidedClflush::new().with_pair_index(i)))
                .unwrap();
            let (_, victims) = probe.attack_truth(pid);
            let row = probe
                .sys()
                .dram()
                .mapping()
                .location_of(victims[0])
                .row_id();
            if probe.sys().dram().is_vulnerable_row(row) {
                p.add_attack(Box::new(DoubleSidedClflush::new().with_pair_index(i)))
                    .unwrap();
                added = true;
                break;
            }
        }
        assert!(added, "no vulnerable pair in 16 candidates");
        p.run_ms(40.0).unwrap();
        assert!(p.total_flips() > 0, "unprotected hammer must flip");
    }

    #[test]
    fn anvil_stops_the_clflush_attack_and_detects_quickly() {
        let mut p = Platform::new(PlatformConfig::with_anvil(AnvilConfig::baseline()));
        p.add_attack(Box::new(DoubleSidedClflush::new())).unwrap();
        p.run_ms(80.0).unwrap();
        assert_eq!(p.total_flips(), 0, "ANVIL must prevent all flips");
        let t = p.first_detection_ms().expect("attack must be detected");
        assert!(
            (10.0..20.0).contains(&t),
            "Table 3 says ~12.3 ms under light load; got {t:.1} ms"
        );
        assert!(
            p.refreshes_per_window() > 1.0,
            "victims refreshed repeatedly"
        );
    }

    #[test]
    fn anvil_stops_the_clflush_free_attack() {
        let mut p = Platform::new(PlatformConfig::with_anvil(AnvilConfig::baseline()));
        p.add_attack(Box::new(ClflushFreeDoubleSided::new()))
            .unwrap();
        p.run_ms(100.0).unwrap();
        assert_eq!(p.total_flips(), 0);
        let t = p
            .first_detection_ms()
            .expect("CLFLUSH-free attack must be detected");
        assert!(
            t < 64.0,
            "detected within one refresh window; got {t:.1} ms"
        );
    }

    #[test]
    fn refreshed_rows_include_the_true_victim() {
        let mut p = Platform::new(PlatformConfig::with_anvil(AnvilConfig::baseline()));
        let pid = p.add_attack(Box::new(DoubleSidedClflush::new())).unwrap();
        let (_, victims) = p.attack_truth(pid);
        let victim_row = p.sys().dram().mapping().location_of(victims[0]).row_id();
        p.run_ms(30.0).unwrap();
        assert!(
            p.refresh_log().iter().any(|(_, r)| *r == victim_row),
            "the sandwiched victim row must be among the refreshes"
        );
    }

    #[test]
    fn benign_workload_runs_without_detections() {
        let mut p = Platform::new(PlatformConfig::with_anvil(AnvilConfig::baseline()));
        let pid = p.add_workload(SpecBenchmark::Libquantum.build(3)).unwrap();
        p.run_ms(60.0).unwrap();
        assert_eq!(p.total_flips(), 0);
        // Streaming traffic crosses stage 1 but must (almost) never lead
        // to detections.
        let stats = p.detector_stats().unwrap();
        assert!(stats.threshold_crossings > 0, "libquantum is memory-bound");
        assert!(
            p.refreshes_per_second() < 5.0,
            "false positives too frequent: {}/s",
            p.refreshes_per_second()
        );
        assert!(p.core_stats(pid).unwrap().ops > 100_000);
    }

    #[test]
    fn compute_bound_workload_never_arms_stage2() {
        let mut p = Platform::new(PlatformConfig::with_anvil(AnvilConfig::baseline()));
        p.add_workload(SpecBenchmark::H264ref.build(3)).unwrap();
        p.run_ms(30.0).unwrap();
        let stats = p.detector_stats().unwrap();
        assert_eq!(
            stats.threshold_crossings, 0,
            "h264ref must stay below the stage-1 threshold"
        );
        assert_eq!(stats.stage2_windows, 0);
    }

    #[test]
    fn anvil_overhead_is_small_for_benign_programs() {
        let ops = 300_000;
        let mut base = Platform::new(PlatformConfig::unprotected());
        let pid_b = base.add_workload(SpecBenchmark::Mcf.build(7)).unwrap();
        base.run_core_ops(pid_b, ops).unwrap();
        let t_base = base.core_stats(pid_b).unwrap().cycles;

        let mut anvil = Platform::new(PlatformConfig::with_anvil(AnvilConfig::baseline()));
        let pid_a = anvil.add_workload(SpecBenchmark::Mcf.build(7)).unwrap();
        anvil.run_core_ops(pid_a, ops).unwrap();
        let t_anvil = anvil.core_stats(pid_a).unwrap().cycles;

        let slowdown = t_anvil as f64 / t_base as f64;
        assert!(
            (1.0..1.06).contains(&slowdown),
            "mcf slowdown should be a few percent at most: {slowdown:.4}"
        );
        assert!(slowdown > 1.0005, "memory-bound mcf must pay something");
    }

    #[test]
    fn heavy_load_slows_detection_but_not_protection() {
        let mut p = Platform::new(PlatformConfig::with_anvil(AnvilConfig::baseline()));
        for b in SpecBenchmark::memory_intensive() {
            p.add_workload(b.build(11)).unwrap();
        }
        p.add_attack(Box::new(ClflushFreeDoubleSided::new()))
            .unwrap();
        p.run_ms(150.0).unwrap();
        assert_eq!(p.total_flips(), 0, "no flips even under heavy load");
        assert!(p.first_detection_ms().is_some(), "still detected");
    }

    /// An attacker that maps a small arena, then issues one op at a fixed
    /// virtual address forever.
    #[derive(Debug)]
    struct FixedOp(AttackOp);

    impl Attack for FixedOp {
        fn name(&self) -> &'static str {
            "fixed-op"
        }

        fn prepare(&mut self, env: &mut AttackEnv<'_>) -> Result<(), anvil_attacks::AttackError> {
            let base = env
                .process
                .mmap(2 * anvil_mem::PAGE_SIZE, env.frames)
                .expect("arena fits");
            assert_eq!(
                base, 0x1_0000,
                "the first mapping starts above the null guard"
            );
            Ok(())
        }

        fn next_op(&mut self) -> AttackOp {
            self.0
        }

        fn aggressor_paddrs(&self) -> Vec<u64> {
            Vec::new()
        }

        fn victim_paddrs(&self) -> Vec<u64> {
            Vec::new()
        }
    }

    /// A workload whose only op lands one byte past its arena.
    #[derive(Debug)]
    struct PastTheEnd;

    impl Workload for PastTheEnd {
        fn name(&self) -> &'static str {
            "past-the-end"
        }

        fn arena_bytes(&self) -> u64 {
            anvil_mem::PAGE_SIZE
        }

        fn next_op(&mut self) -> anvil_workloads::WorkloadOp {
            anvil_workloads::WorkloadOp {
                offset: anvil_mem::PAGE_SIZE,
                kind: AccessKind::Read,
                compute_cycles: 1,
            }
        }
    }

    /// Accesses and flushes outside every mapping — the null page, the
    /// guard gap below the first mapping, one byte past the arena, the
    /// top of the address space — surface as typed errors naming the
    /// address; nothing panics.
    #[test]
    fn unmapped_addresses_are_typed_errors() {
        let end = 0x1_0000 + 2 * anvil_mem::PAGE_SIZE;
        for vaddr in [0, 0xfff, 0xffff, end, u64::MAX] {
            for flush in [false, true] {
                let op = if flush {
                    AttackOp::Clflush { vaddr }
                } else {
                    AttackOp::Access {
                        vaddr,
                        kind: AccessKind::Read,
                    }
                };
                let mut p = Platform::new(PlatformConfig::with_anvil(AnvilConfig::baseline()));
                let pid = p.add_attack(Box::new(FixedOp(op))).unwrap();
                let want = if flush {
                    PlatformError::UnmappedFlush { pid, vaddr }
                } else {
                    PlatformError::UnmappedAccess { pid, vaddr }
                };
                assert_eq!(p.run_ms(0.01), Err(want));
            }
        }
        let mut p = Platform::new(PlatformConfig::unprotected());
        let pid = p.add_workload(Box::new(PastTheEnd)).unwrap();
        assert_eq!(
            p.run_core_ops(pid, 10),
            Err(PlatformError::UnmappedAccess {
                pid,
                vaddr: 0x1_0000 + anvil_mem::PAGE_SIZE
            })
        );
    }
}

#[cfg(test)]
mod response_tests {
    use super::*;
    use anvil_workloads::SpecBenchmark;

    #[test]
    fn refresh_only_never_suspends() {
        let mut p = Platform::new(PlatformConfig::with_anvil(AnvilConfig::baseline()));
        p.add_attack(Box::new(anvil_attacks::DoubleSidedClflush::new()))
            .unwrap();
        p.run_ms(60.0).unwrap();
        assert!(!p.detections().is_empty());
        assert!(
            p.suspended_pids().is_empty(),
            "default policy must not suspend"
        );
    }

    #[test]
    fn run_terminates_when_every_core_is_suspended() {
        let mut pc = PlatformConfig::with_anvil(AnvilConfig::baseline());
        pc.response = ResponsePolicy::RefreshAndSuspend {
            consecutive_detections: 1,
        };
        let mut p = Platform::new(pc);
        let pid = p
            .add_attack(Box::new(anvil_attacks::DoubleSidedClflush::new()))
            .unwrap();
        // The attacker is the only program; once suspended the run must
        // return rather than spin.
        p.run_ms(200.0).unwrap();
        assert_eq!(p.suspended_pids(), vec![pid]);
        // And run_core_ops on the suspended target returns immediately.
        let ops = p.core_stats(pid).unwrap().ops;
        p.run_core_ops(pid, 1_000).unwrap();
        assert_eq!(p.core_stats(pid).unwrap().ops, ops);
    }

    #[test]
    fn single_detection_does_not_suspend_with_streak_of_three() {
        let mut pc = PlatformConfig::with_anvil(AnvilConfig::baseline());
        pc.response = ResponsePolicy::RefreshAndSuspend {
            consecutive_detections: 3,
        };
        let mut p = Platform::new(pc);
        p.add_workload(SpecBenchmark::Bzip2.build(17)).unwrap();
        // bzip2's false positives are sporadic; even over a long run it
        // must never accumulate three consecutive detections.
        p.run_ms(400.0).unwrap();
        assert!(
            p.suspended_pids().is_empty(),
            "benign bzip2 suspended after {} detections",
            p.detections().len()
        );
    }

    #[test]
    fn core_stats_reports_program_names() {
        let mut p = Platform::new(PlatformConfig::unprotected());
        let pid = p.add_workload(SpecBenchmark::Mcf.build(1)).unwrap();
        let s = p.core_stats(pid).unwrap();
        assert!(s.name.contains("mcf"));
        assert_eq!(s.ops, 0);
        assert!(p.core_stats(9999).is_none());
    }
}
