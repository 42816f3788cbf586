//! Stateful injectors: the objects substrates consult at fault sites.
//!
//! Each injector owns a forked [`FaultRng`] stream and mutable episode
//! state (e.g. how many samples remain in a drop burst). Substrates call
//! them at the relevant point — the sampler per PEBS record, the pagemap
//! walk per translation, the platform per service deadline — and the
//! injector answers deterministically for its stream.

use crate::plan::{LifecycleFaults, PebsFaults, StateCorruptionFaults, TranslationFaults};
use crate::rng::FaultRng;

/// What happens to one PEBS sample record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleFate {
    /// The sample survives intact.
    Keep,
    /// The sample is lost (debug-store overflow).
    Drop,
    /// The sample survives but its linear address is replaced.
    Corrupt(u64),
}

/// PEBS debug-store fault injector: bursty drops and address corruption.
#[derive(Debug, Clone)]
pub struct PebsInjector {
    cfg: PebsFaults,
    rng: FaultRng,
    burst_left: u32,
    dropped: u64,
    corrupted: u64,
}

impl PebsInjector {
    /// Creates an injector over its own forked stream.
    #[must_use]
    pub fn new(cfg: PebsFaults, rng: FaultRng) -> Self {
        PebsInjector {
            cfg,
            rng,
            burst_left: 0,
            dropped: 0,
            corrupted: 0,
        }
    }

    /// Decides the fate of a sample carrying virtual address `vaddr`.
    ///
    /// Drops arrive in bursts: once a burst starts, the next
    /// `burst_len` samples are all lost, modeling a wrapped debug-store
    /// buffer rather than independent per-record loss. Corruption flips
    /// the page of a surviving sample to a nearby page (latency skid).
    pub fn on_sample(&mut self, vaddr: u64) -> SampleFate {
        if self.burst_left > 0 {
            self.burst_left -= 1;
            self.dropped += 1;
            return SampleFate::Drop;
        }
        if self.cfg.burst_len > 0 && self.rng.chance(self.cfg.drop_rate) {
            self.burst_left = self.cfg.burst_len - 1;
            self.dropped += 1;
            return SampleFate::Drop;
        }
        if self.rng.chance(self.cfg.corrupt_rate) {
            self.corrupted += 1;
            // Shift the address by 1..=8 pages, wrapping at zero.
            let pages = 1 + self.rng.below(8);
            let skewed = vaddr.wrapping_add(pages << 12);
            return SampleFate::Corrupt(skewed);
        }
        SampleFate::Keep
    }

    /// Samples dropped so far.
    #[must_use]
    pub fn drops(&self) -> u64 {
        self.dropped
    }

    /// Samples corrupted so far.
    #[must_use]
    pub fn corruptions(&self) -> u64 {
        self.corrupted
    }
}

/// Pagemap translation fault injector: failed or stale walks.
#[derive(Debug, Clone)]
pub struct TranslationInjector {
    cfg: TranslationFaults,
    rng: FaultRng,
    failed: u64,
    stale: u64,
}

impl TranslationInjector {
    /// Creates an injector over its own forked stream.
    #[must_use]
    pub fn new(cfg: TranslationFaults, rng: FaultRng) -> Self {
        TranslationInjector {
            cfg,
            rng,
            failed: 0,
            stale: 0,
        }
    }

    /// Applies translation faults to a successful walk result.
    ///
    /// Returns `None` when the walk fails (the caller should discard the
    /// sample as unresolvable), or a possibly-stale physical address.
    /// A stale result points at a neighbouring frame — the page was
    /// migrated after the walk read the old entry.
    pub fn apply(&mut self, paddr: u64) -> Option<u64> {
        if self.rng.chance(self.cfg.fail_rate) {
            self.failed += 1;
            return None;
        }
        if self.rng.chance(self.cfg.stale_rate) {
            self.stale += 1;
            return Some(paddr ^ (1 << 12));
        }
        Some(paddr)
    }

    /// Walks that failed so far.
    #[must_use]
    pub fn failures(&self) -> u64 {
        self.failed
    }

    /// Walks that returned a stale frame so far.
    #[must_use]
    pub fn stale(&self) -> u64 {
        self.stale
    }
}

/// A bounded random delay source, used for both sampling-interrupt
/// jitter and detector-service preemption.
#[derive(Debug, Clone)]
pub struct DelayInjector {
    rate: f64,
    max: u64,
    rng: FaultRng,
    events: u64,
    total: u64,
    worst: u64,
}

impl DelayInjector {
    /// Creates a delay source firing with probability `rate`, drawing
    /// delays uniformly in `[1, max]` cycles.
    #[must_use]
    pub fn new(rate: f64, max: u64, rng: FaultRng) -> Self {
        DelayInjector {
            rate,
            max,
            rng,
            events: 0,
            total: 0,
            worst: 0,
        }
    }

    /// Draws the delay for the next event: zero when the fault does not
    /// fire, otherwise `1..=max` cycles.
    pub fn draw(&mut self) -> u64 {
        if self.max == 0 || !self.rng.chance(self.rate) {
            return 0;
        }
        let d = 1 + self.rng.below(self.max);
        self.events += 1;
        self.total += d;
        self.worst = self.worst.max(d);
        d
    }

    /// Events that actually incurred a delay.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Sum of all delays drawn, in cycles.
    #[must_use]
    pub fn total_delay(&self) -> u64 {
        self.total
    }

    /// Largest single delay drawn, in cycles.
    #[must_use]
    pub fn worst_delay(&self) -> u64 {
        self.worst
    }
}

/// One service's bundled lifecycle draws — see
/// [`LifecycleInjector::service_draws`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceDraws {
    /// Scheduler-starvation stall, in cycles (zero when the fault did not
    /// fire).
    pub stall: u64,
    /// Whether the detector panics at this service.
    pub crash: bool,
}

/// The at-rest faults one checkpoint write drew, kept unapplied until
/// something reads the stored bytes back — see
/// [`LifecycleInjector::at_rest_fault`].
///
/// The position draws are kept as raw 64-bit words: a draw in `[0, n)`
/// is one `next_u64() % n`, so reducing the word modulo the encoded
/// length when the bytes are finally built gives exactly the position
/// the write would have drawn with the bytes in hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtRestFault {
    /// Corruption: the raw byte-position word and the bit (`0..8`) it
    /// flips.
    corrupt: Option<(u64, u8)>,
    /// Torn write: the raw word whose residue is the kept prefix length.
    tear: Option<u64>,
}

impl AtRestFault {
    /// Whether the write was corrupted at rest (one bit of one byte).
    #[must_use]
    pub fn corrupts(&self) -> bool {
        self.corrupt.is_some()
    }

    /// Whether the write was torn (only a prefix persisted).
    #[must_use]
    pub fn tears(&self) -> bool {
        self.tear.is_some()
    }

    /// Applies the fault to the written bytes, as storage presents them
    /// on read-back: the bit flip first, then the tear, which truncates
    /// to a prefix shorter than the write (possibly empty — the write
    /// never started).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is empty: a draw over an empty range consumes
    /// no word, so an empty write could not have drawn this fault.
    pub fn apply(&self, bytes: &mut Vec<u8>) {
        assert!(!bytes.is_empty(), "an at-rest fault needs written bytes");
        let len = bytes.len() as u64;
        if let Some((word, bit)) = self.corrupt {
            bytes[(word % len) as usize] ^= 1 << bit;
        }
        if let Some(word) = self.tear {
            bytes.truncate((word % len) as usize);
        }
    }
}

/// Detector-lifecycle fault injector: crashes, stalls, and checkpoint
/// corruption at rest.
///
/// The supervisor consults it at three sites: once per detector service
/// for a crash decision ([`crash_now`](Self::crash_now)), once per
/// service for a stall ([`stall_cycles`](Self::stall_cycles)), and once
/// per checkpoint write for at-rest corruption and tearing
/// ([`at_rest_fault`](Self::at_rest_fault)). Each site draws from the
/// same forked stream in a fixed order, so a given seed replays the
/// exact same crash/stall/corruption schedule.
#[derive(Debug, Clone)]
pub struct LifecycleInjector {
    cfg: LifecycleFaults,
    torn_rate: f64,
    rng: FaultRng,
    crashes: u64,
    stalls: u64,
    total_stall: u64,
    worst_stall: u64,
    corrupted: u64,
    torn: u64,
    force_crash: bool,
}

impl LifecycleInjector {
    /// Creates an injector over its own forked stream.
    #[must_use]
    pub fn new(cfg: LifecycleFaults, rng: FaultRng) -> Self {
        LifecycleInjector {
            cfg,
            torn_rate: 0.0,
            rng,
            crashes: 0,
            stalls: 0,
            total_stall: 0,
            worst_stall: 0,
            corrupted: 0,
            torn: 0,
            force_crash: false,
        }
    }

    /// Enables torn checkpoint writes at `rate` per write: a torn write
    /// persists only a prefix of the checkpoint bytes (power loss
    /// mid-write). The rate lives outside [`LifecycleFaults`] so the
    /// serialized plan format — and every committed fault schedule
    /// derived from it — is unchanged; a zero rate draws nothing.
    #[must_use]
    pub fn with_torn_writes(mut self, rate: f64) -> Self {
        self.torn_rate = rate;
        self
    }

    /// Forces the next [`crash_now`](Self::crash_now) to report a crash
    /// without consuming a draw — the hook fleet engines use to crash
    /// every detector on a machine at the same instant (the machine-wide
    /// outage recovery path), while keeping the probabilistic schedule
    /// aligned.
    pub fn force_crash(&mut self) {
        self.force_crash = true;
    }

    /// Decides whether the detector panics at this service.
    pub fn crash_now(&mut self) -> bool {
        if self.force_crash {
            self.force_crash = false;
            self.crashes += 1;
            return true;
        }
        if self.rng.chance(self.cfg.crash_rate) {
            self.crashes += 1;
            true
        } else {
            false
        }
    }

    /// Draws the stall for this service: zero when the fault does not
    /// fire, otherwise `1..=max_stall` cycles of scheduler starvation.
    pub fn stall_cycles(&mut self) -> u64 {
        if self.cfg.max_stall == 0 || !self.rng.chance(self.cfg.stall_rate) {
            return 0;
        }
        let d = 1 + self.rng.below(self.cfg.max_stall);
        self.stalls += 1;
        self.total_stall += d;
        self.worst_stall = self.worst_stall.max(d);
        d
    }

    /// Draws one service's stall and crash decisions as a bundle, in the
    /// supervisor's canonical order (stall first, then crash). Both the
    /// per-op service path and the event-driven quiet path call this one
    /// method, so a window serviced by either engine consumes exactly the
    /// same RNG draws — the draw-parity contract the epoch-skipping
    /// engine's byte-identical-output guarantee rests on.
    pub fn service_draws(&mut self) -> ServiceDraws {
        let stall = self.stall_cycles();
        let crash = self.crash_now();
        ServiceDraws { stall, crash }
    }

    /// Draws one checkpoint write's at-rest faults, or `None` when
    /// neither fires.
    ///
    /// The words come in a fixed order: the corruption chance, the tear
    /// chance (a zero rate consumes nothing, so schedules recorded before
    /// torn writes existed are unchanged), then — for a corruption — the
    /// byte position and the bit, then — for a tear — the kept length.
    /// That is the order a write holding its encoded bytes would draw
    /// them in, so [`AtRestFault::apply`] on those bytes reproduces them
    /// exactly, and the checkpoint need only be encoded if something
    /// reads it back. Both faults are counted here, at write time.
    pub fn at_rest_fault(&mut self) -> Option<AtRestFault> {
        let corrupted = self.rng.chance(self.cfg.corrupt_rate);
        let torn = self.rng.chance(self.torn_rate);
        if !corrupted && !torn {
            return None;
        }
        let corrupt = corrupted.then(|| {
            self.corrupted += 1;
            let word = self.rng.next_u64();
            (word, (self.rng.next_u64() % 8) as u8)
        });
        let tear = torn.then(|| {
            self.torn += 1;
            self.rng.next_u64()
        });
        Some(AtRestFault { corrupt, tear })
    }

    /// Crashes injected so far.
    #[must_use]
    pub fn crashes(&self) -> u64 {
        self.crashes
    }

    /// Services stalled so far.
    #[must_use]
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Sum of all stalls drawn, in cycles.
    #[must_use]
    pub fn total_stall(&self) -> u64 {
        self.total_stall
    }

    /// Largest single stall drawn, in cycles.
    #[must_use]
    pub fn worst_stall(&self) -> u64 {
        self.worst_stall
    }

    /// Checkpoint writes corrupted so far.
    #[must_use]
    pub fn corruptions(&self) -> u64 {
        self.corrupted
    }

    /// Checkpoint writes torn so far.
    #[must_use]
    pub fn torn_writes(&self) -> u64 {
        self.torn
    }
}

/// The eager at-rest fault path, applied to bytes already in hand: the
/// reference [`LifecycleInjector::at_rest_fault`] is checked against.
#[cfg(test)]
impl LifecycleInjector {
    /// Possibly corrupts checkpoint bytes at rest by flipping one bit of
    /// one byte. Returns `true` when corruption fired.
    pub fn corrupt(&mut self, bytes: &mut [u8]) -> bool {
        if bytes.is_empty() || !self.corrupt_fires() {
            return false;
        }
        self.corrupt_in_place(bytes);
        true
    }

    /// Draws the per-checkpoint-write corruption chance alone (the first
    /// draw [`corrupt`](Self::corrupt) makes); on `true`, follow up with
    /// [`corrupt_in_place`](Self::corrupt_in_place).
    pub fn corrupt_fires(&mut self) -> bool {
        self.rng.chance(self.cfg.corrupt_rate)
    }

    /// Flips one bit of one byte (the position and bit draws `corrupt`
    /// makes after its chance draw fires) and counts the corruption.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is empty.
    pub fn corrupt_in_place(&mut self, bytes: &mut [u8]) {
        assert!(!bytes.is_empty(), "cannot corrupt an empty checkpoint");
        let idx = self.rng.below(bytes.len() as u64) as usize;
        let bit = self.rng.below(8) as u8;
        bytes[idx] ^= 1 << bit;
        self.corrupted += 1;
    }

    /// Draws the per-checkpoint-write torn-write chance (see
    /// [`with_torn_writes`](Self::with_torn_writes)). A zero rate
    /// consumes nothing, so callers may draw unconditionally without
    /// perturbing schedules recorded before torn writes existed. On
    /// `true`, follow up with [`tear_in_place`](Self::tear_in_place).
    pub fn tear_fires(&mut self) -> bool {
        self.rng.chance(self.torn_rate)
    }

    /// Tears the checkpoint write: truncates `bytes` to a drawn prefix
    /// (possibly empty — the write never started) and counts the tear.
    pub fn tear_in_place(&mut self, bytes: &mut Vec<u8>) {
        let keep = self.rng.below(bytes.len() as u64) as usize;
        bytes.truncate(keep);
        self.torn += 1;
    }
}

/// One injected flip into the detector's own state cells.
///
/// `cell` indexes the detector's global state-cell space (the order
/// `AnvilDetector::corrupt_state_cell` uses); `replica_mask` selects which
/// of the three replicas receive the flip; `bit` selects the flipped bit —
/// `0..64` hit the encoded word, `64..128` hit its checksum. `after_scrub`
/// marks a scrub-window race: the flip lands after the window's scrub
/// slice ran, so it survives until the next pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateFlip {
    /// Global state-cell index to corrupt (modulo the live cell count).
    pub cell: usize,
    /// Replica mask: bit `i` set ⇒ replica `i` takes the flip.
    pub replica_mask: u8,
    /// Bit position: `0..64` word bits, `64..128` checksum bits.
    pub bit: u8,
    /// True when the flip races past this window's scrub slice.
    pub after_scrub: bool,
}

/// Detector-state corruption injector: deterministic per-window flips
/// into the detector's own guarded cells.
///
/// The platform consults it once per stage-1 window
/// ([`window_flips`](Self::window_flips)); each firing window yields
/// `1..=max_flips` flips with drawn cell, replica mask, bit, and
/// scrub-race timing. All draws come from one forked stream in a fixed
/// order, so a seed replays the identical corruption schedule.
#[derive(Debug, Clone)]
pub struct StateCorruptionInjector {
    cfg: StateCorruptionFaults,
    rng: FaultRng,
    flips: u64,
    correlated: u64,
    races: u64,
}

impl StateCorruptionInjector {
    /// Creates an injector over its own forked stream.
    #[must_use]
    pub fn new(cfg: StateCorruptionFaults, rng: FaultRng) -> Self {
        StateCorruptionInjector {
            cfg,
            rng,
            flips: 0,
            correlated: 0,
            races: 0,
        }
    }

    /// Draws this window's flips into a state space of `cell_count`
    /// cells. Returns an empty schedule when the window does not fire or
    /// the detector has no cells.
    #[allow(clippy::cast_possible_truncation)]
    pub fn window_flips(&mut self, cell_count: usize) -> Vec<StateFlip> {
        if cell_count == 0 || !self.rng.chance(self.cfg.flip_rate) {
            return Vec::new();
        }
        let n = 1 + self.rng.below(u64::from(self.cfg.max_flips));
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let cell = self.rng.below(cell_count as u64) as usize;
            let correlated = self.rng.chance(self.cfg.correlated_rate);
            let replica_mask = if correlated {
                // Same bit in at least two of the three replicas — the
                // in-DRAM analogue of one aggressor disturbing the rows
                // holding multiple copies.
                self.correlated += 1;
                match self.rng.below(4) {
                    0 => 0b011,
                    1 => 0b101,
                    2 => 0b110,
                    _ => 0b111,
                }
            } else {
                1u8 << self.rng.below(3)
            };
            let bit = self.rng.below(128) as u8;
            let after_scrub = self.rng.chance(self.cfg.scrub_race_rate);
            if after_scrub {
                self.races += 1;
            }
            self.flips += 1;
            out.push(StateFlip {
                cell,
                replica_mask,
                bit,
                after_scrub,
            });
        }
        out
    }

    /// Flips injected so far.
    #[must_use]
    pub fn flips(&self) -> u64 {
        self.flips
    }

    /// Replica-correlated flips injected so far.
    #[must_use]
    pub fn correlated(&self) -> u64 {
        self.correlated
    }

    /// Scrub-race flips injected so far.
    #[must_use]
    pub fn scrub_races(&self) -> u64 {
        self.races
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pebs(drop_rate: f64, burst_len: u32, corrupt_rate: f64) -> PebsFaults {
        PebsFaults {
            drop_rate,
            burst_len,
            corrupt_rate,
        }
    }

    #[test]
    fn drops_arrive_in_full_bursts() {
        let mut inj = PebsInjector::new(pebs(0.01, 16, 0.0), FaultRng::new(4));
        let fates: Vec<_> = (0..5_000).map(|i| inj.on_sample(i * 64)).collect();
        assert!(inj.drops() > 0);
        // Every drop run (except possibly one truncated by the end of
        // the sequence) is a multiple of the burst length.
        let mut run = 0u32;
        let mut runs = Vec::new();
        for f in &fates {
            if matches!(f, SampleFate::Drop) {
                run += 1;
            } else if run > 0 {
                runs.push(run);
                run = 0;
            }
        }
        assert!(!runs.is_empty());
        for r in runs {
            assert_eq!(r % 16, 0, "partial burst of {r}");
        }
    }

    #[test]
    fn corruption_changes_the_page_only() {
        let mut inj = PebsInjector::new(pebs(0.0, 0, 1.0), FaultRng::new(8));
        for i in 0..100u64 {
            let va = i * 4096 + 123;
            match inj.on_sample(va) {
                SampleFate::Corrupt(bad) => {
                    assert_ne!(bad, va);
                    assert_eq!(bad & 0xfff, va & 0xfff, "offset must survive skid");
                }
                other => panic!("expected corruption, got {other:?}"),
            }
        }
        assert_eq!(inj.corruptions(), 100);
    }

    #[test]
    fn translation_faults_partition() {
        let mut inj = TranslationInjector::new(
            TranslationFaults {
                fail_rate: 0.3,
                stale_rate: 0.3,
            },
            FaultRng::new(12),
        );
        let mut ok = 0u64;
        for i in 0..10_000u64 {
            match inj.apply(i << 12) {
                Some(p) if p == i << 12 => ok += 1,
                None | Some(_) => {}
            }
        }
        assert_eq!(inj.failures() + inj.stale() + ok, 10_000);
        assert!(inj.failures() > 2_000 && inj.failures() < 4_000);
        assert!(inj.stale() > 1_000, "stale {}", inj.stale());
    }

    #[test]
    fn delay_injector_bounds_and_counts() {
        let mut inj = DelayInjector::new(0.5, 1_000, FaultRng::new(21));
        let mut fired = 0u64;
        for _ in 0..10_000 {
            let d = inj.draw();
            assert!(d <= 1_000);
            if d > 0 {
                fired += 1;
            }
        }
        assert_eq!(inj.events(), fired);
        assert!(inj.worst_delay() <= 1_000);
        assert!(inj.total_delay() >= inj.worst_delay());
        assert!((4_000..=6_000).contains(&fired), "{fired}");
    }

    #[test]
    fn injectors_replay_identically() {
        let cfg = pebs(0.05, 8, 0.2);
        let mut a = PebsInjector::new(cfg, FaultRng::new(33).fork(1));
        let mut b = PebsInjector::new(cfg, FaultRng::new(33).fork(1));
        for i in 0..2_000u64 {
            assert_eq!(a.on_sample(i * 64), b.on_sample(i * 64));
        }
    }

    #[test]
    fn lifecycle_injector_counts_and_bounds() {
        let cfg = LifecycleFaults {
            crash_rate: 0.1,
            stall_rate: 0.3,
            max_stall: 50_000,
            corrupt_rate: 0.5,
        };
        let mut inj = LifecycleInjector::new(cfg, FaultRng::new(7).fork(5));
        let mut crashes = 0u64;
        let mut stalls = 0u64;
        let mut corruptions = 0u64;
        let pristine = vec![0u8; 64];
        for _ in 0..5_000 {
            if inj.crash_now() {
                crashes += 1;
            }
            let d = inj.stall_cycles();
            assert!(d <= 50_000);
            if d > 0 {
                stalls += 1;
            }
            let mut bytes = pristine.clone();
            if inj.corrupt(&mut bytes) {
                corruptions += 1;
                // Exactly one bit of one byte flipped.
                let flipped: u32 = bytes
                    .iter()
                    .zip(&pristine)
                    .map(|(a, b)| (a ^ b).count_ones())
                    .sum();
                assert_eq!(flipped, 1);
            } else {
                assert_eq!(bytes, pristine);
            }
        }
        assert_eq!(inj.crashes(), crashes);
        assert_eq!(inj.stalls(), stalls);
        assert_eq!(inj.corruptions(), corruptions);
        assert!((300..=700).contains(&crashes), "{crashes}");
        assert!((1_000..=2_000).contains(&stalls), "{stalls}");
        assert!((2_000..=3_000).contains(&corruptions), "{corruptions}");
        assert!(inj.worst_stall() <= 50_000);
        assert!(inj.total_stall() >= inj.worst_stall());
    }

    #[test]
    fn lifecycle_injector_replays_identically() {
        let cfg = LifecycleFaults {
            crash_rate: 0.05,
            stall_rate: 0.2,
            max_stall: 10_000,
            corrupt_rate: 0.1,
        };
        let mut a = LifecycleInjector::new(cfg, FaultRng::new(99).fork(5));
        let mut b = LifecycleInjector::new(cfg, FaultRng::new(99).fork(5));
        for _ in 0..2_000 {
            assert_eq!(a.crash_now(), b.crash_now());
            assert_eq!(a.stall_cycles(), b.stall_cycles());
            let mut ba = [0xAAu8; 16];
            let mut bb = [0xAAu8; 16];
            assert_eq!(a.corrupt(&mut ba), b.corrupt(&mut bb));
            assert_eq!(ba, bb);
        }
    }

    #[test]
    fn forced_crashes_skip_the_draw_and_count() {
        let cfg = LifecycleFaults {
            crash_rate: 0.0,
            stall_rate: 0.0,
            max_stall: 0,
            corrupt_rate: 0.0,
        };
        let mut inj = LifecycleInjector::new(cfg, FaultRng::new(2).fork(5));
        assert!(!inj.crash_now());
        inj.force_crash();
        assert!(inj.crash_now());
        assert!(!inj.crash_now(), "the force flag is one-shot");
        assert_eq!(inj.crashes(), 1);
    }

    #[test]
    fn torn_writes_truncate_to_a_prefix() {
        let cfg = LifecycleFaults {
            crash_rate: 0.0,
            stall_rate: 0.0,
            max_stall: 0,
            corrupt_rate: 0.0,
        };
        let mut inj = LifecycleInjector::new(cfg, FaultRng::new(13).fork(5)).with_torn_writes(1.0);
        let pristine: Vec<u8> = (0..64).collect();
        for _ in 0..200 {
            assert!(inj.tear_fires());
            let mut bytes = pristine.clone();
            inj.tear_in_place(&mut bytes);
            assert!(bytes.len() < pristine.len(), "a tear must lose bytes");
            assert_eq!(bytes[..], pristine[..bytes.len()], "tears keep a prefix");
        }
        assert_eq!(inj.torn_writes(), 200);
    }

    #[test]
    fn zero_torn_rate_consumes_no_draws() {
        let cfg = LifecycleFaults {
            crash_rate: 0.3,
            stall_rate: 0.0,
            max_stall: 0,
            corrupt_rate: 0.0,
        };
        // Interleaving disabled tear draws must not perturb the crash
        // schedule: committed soak schedules predate torn writes.
        let mut plain = LifecycleInjector::new(cfg, FaultRng::new(31).fork(5));
        let mut tearing = LifecycleInjector::new(cfg, FaultRng::new(31).fork(5));
        for _ in 0..2_000 {
            assert!(!tearing.tear_fires());
            assert_eq!(plain.crash_now(), tearing.crash_now());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]
        /// Drawing a write's faults up front and applying them to the
        /// bytes later gives the bytes, the stream position and the
        /// counters of the eager path that held the bytes at write time —
        /// for corruption alone, tearing alone, both, and neither.
        #[test]
        fn deferred_at_rest_faults_reproduce_the_eager_bytes(
            shape in (1usize..3_000, 0usize..8, proptest::prelude::any::<u8>()),
            seed in proptest::prelude::any::<u64>(),
            mode in 0u8..4,
        ) {
            let (len, writes, fill) = shape;
            let (corrupt_rate, torn_rate) = match mode {
                0 => (1.0, 0.0),
                1 => (0.0, 1.0),
                2 => (1.0, 1.0),
                _ => (0.4, 0.4),
            };
            let cfg = LifecycleFaults {
                crash_rate: 0.0,
                stall_rate: 0.0,
                max_stall: 0,
                corrupt_rate,
            };
            let mut eager =
                LifecycleInjector::new(cfg, FaultRng::new(seed).fork(5)).with_torn_writes(torn_rate);
            let mut deferred = eager.clone();
            for w in 0..=writes {
                let written: Vec<u8> = (0..len + w)
                    .map(|i| (i as u8).wrapping_mul(31) ^ fill)
                    .collect();
                let mut want = written.clone();
                let corrupted = eager.corrupt_fires();
                let torn = eager.tear_fires();
                if corrupted {
                    eager.corrupt_in_place(&mut want);
                }
                if torn {
                    eager.tear_in_place(&mut want);
                }
                let mut got = written;
                match deferred.at_rest_fault() {
                    Some(fault) => {
                        proptest::prop_assert_eq!((fault.corrupts(), fault.tears()), (corrupted, torn));
                        fault.apply(&mut got);
                    }
                    None => proptest::prop_assert!(!corrupted && !torn),
                }
                proptest::prop_assert_eq!(&got, &want);
                proptest::prop_assert_eq!(&deferred.rng, &eager.rng);
                proptest::prop_assert_eq!(deferred.corruptions(), eager.corruptions());
                proptest::prop_assert_eq!(deferred.torn_writes(), eager.torn_writes());
            }
        }
    }

    #[test]
    fn state_injector_bounds_and_counts() {
        let cfg = StateCorruptionFaults {
            flip_rate: 0.4,
            max_flips: 3,
            correlated_rate: 0.25,
            scrub_race_rate: 0.5,
        };
        let mut inj = StateCorruptionInjector::new(cfg, FaultRng::new(17).fork(6));
        let mut flips = 0u64;
        let mut correlated = 0u64;
        let mut races = 0u64;
        for _ in 0..5_000 {
            let schedule = inj.window_flips(24);
            assert!(schedule.len() <= 3);
            for f in schedule {
                assert!(f.cell < 24);
                assert!(f.bit < 128);
                assert!(f.replica_mask != 0 && f.replica_mask < 8);
                flips += 1;
                if f.replica_mask.count_ones() > 1 {
                    correlated += 1;
                }
                if f.after_scrub {
                    races += 1;
                }
            }
        }
        assert_eq!(inj.flips(), flips);
        assert_eq!(inj.correlated(), correlated);
        assert_eq!(inj.scrub_races(), races);
        // rate 0.4 × mean 2 flips → roughly 4000 flips over 5000 windows.
        assert!((3_000..=5_000).contains(&flips), "{flips}");
        assert!(correlated > 500, "{correlated}");
        assert!(races > 1_000, "{races}");
    }

    #[test]
    fn state_injector_replays_identically() {
        let cfg = StateCorruptionFaults {
            flip_rate: 0.2,
            max_flips: 2,
            correlated_rate: 0.3,
            scrub_race_rate: 0.1,
        };
        let mut a = StateCorruptionInjector::new(cfg, FaultRng::new(5).fork(6));
        let mut b = StateCorruptionInjector::new(cfg, FaultRng::new(5).fork(6));
        for _ in 0..2_000 {
            assert_eq!(a.window_flips(10), b.window_flips(10));
        }
    }

    #[test]
    fn zero_cell_count_never_fires() {
        let cfg = StateCorruptionFaults {
            flip_rate: 1.0,
            max_flips: 4,
            correlated_rate: 0.0,
            scrub_race_rate: 0.0,
        };
        let mut inj = StateCorruptionInjector::new(cfg, FaultRng::new(1).fork(6));
        for _ in 0..100 {
            assert!(inj.window_flips(0).is_empty());
        }
        assert_eq!(inj.flips(), 0);
    }

    #[test]
    fn empty_checkpoint_is_never_corrupted() {
        let cfg = LifecycleFaults {
            crash_rate: 0.0,
            stall_rate: 0.0,
            max_stall: 0,
            corrupt_rate: 1.0,
        };
        let mut inj = LifecycleInjector::new(cfg, FaultRng::new(1).fork(5));
        let mut empty: [u8; 0] = [];
        assert!(!inj.corrupt(&mut empty));
        assert_eq!(inj.corruptions(), 0);
    }
}
