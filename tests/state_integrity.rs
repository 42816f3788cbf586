//! Property-based self-integrity of the detector's guarded state cells.
//!
//! The self-defense campaign injects physically modelled disturbance
//! flips into the supervised detector's own DRAM-resident state. These
//! properties pin the contract that campaign relies on, for *every*
//! addressable state site, replica subset, and bit position (word or
//! checksum): a flip is always surfaced as a typed
//! [`StateCorruption`](anvil::core::StateCorruption) — repaired in place
//! when any checksummed replica survives, escalated when none does —
//! and a repaired detector is byte-for-byte indistinguishable from one
//! that was never corrupted, so no decision is ever computed from a
//! corrupted value. Mirrors `torn_checkpoint.rs`, which pins the same
//! fail-closed discipline for the checkpoint wire format.

use anvil::cache::HitLevel;
use anvil::core::{AnvilConfig, AnvilDetector, DetectorStage, ServiceOutcome};
use anvil::dram::{AddressMapping, BankId, CpuClock, Cycle, DramGeometry, DramLocation};
use anvil::mem::{AccessKind, AccessOutcome};
use anvil::pmu::{EventKind, Pmu, RetiredOp, SamplerConfig};
use anvil::runtime::{RuntimeConfig, SupervisedOutcome, Supervisor};
use proptest::prelude::*;

/// A serviced hardened supervisor with guarded state and a populated
/// carry, plus its PMU — representative words for mutations to land on,
/// not freshly zeroed cells.
fn serviced_supervisor() -> (Supervisor, Pmu) {
    let mut pmu = Pmu::new(SamplerConfig::anvil_default());
    let mut sup = Supervisor::new(
        AnvilConfig::hardened(),
        RuntimeConfig::default(),
        CpuClock::SANDY_BRIDGE_2_6GHZ,
        166_400_000,
        0,
        &mut pmu,
    );
    let mapping = AddressMapping::new(DramGeometry::ddr3_4gb());
    // Two quiet windows with sub-threshold miss traffic: the EWMA carry,
    // window scale, and jitter stream all hold non-trivial values.
    for _ in 0..2 {
        let deadline = sup.deadline();
        pmu.counter_mut(EventKind::LongestLatCacheMiss)
            .add(12_000, deadline - 1);
        pmu.counter_mut(EventKind::MemLoadUopsRetiredLlcMiss)
            .add(12_000, deadline - 1);
        sup.service(deadline, &mut pmu, &mapping, &mut |_pid, va| Some(va))
            .expect("fault-free service succeeds");
    }
    assert!(
        sup.drain_state_corruptions().is_empty(),
        "clean services must not declare corruption"
    );
    (sup, pmu)
}

/// The decision-relevant state of a checkpoint: everything except the
/// activity counters (`stats` legitimately differs by exactly the
/// declared repair — that is the declaration working, not a leak).
fn decision_state(bytes: &[u8]) -> serde_json::Value {
    let text = std::str::from_utf8(bytes).expect("checkpoint is utf-8");
    let body = text
        .split_once('\n')
        .expect("checkpoint has a hash line and a payload")
        .1;
    let mut v: serde_json::Value = serde_json::from_str(body).expect("checkpoint payload parses");
    match &mut v {
        serde_json::Value::Object(entries) => entries.retain(|(k, _)| k != "stats"),
        other => panic!("checkpoint payload is an object, got {other:?}"),
    }
    v
}

proptest! {
    /// Any single-bit flip over any state site and any *proper* replica
    /// subset is declared exactly once as `repaired` — a checksummed
    /// majority (or the single surviving valid replica) vouches for the
    /// value — and the repaired detector checkpoints byte-identically to
    /// an untouched twin: the corrupted word never leaks into any
    /// decision.
    #[test]
    fn any_proper_subset_flip_is_repaired_to_the_exact_value(
        index in 0usize..1 << 16,
        mask in 1u8..7,
        bit in 0u8..128,
    ) {
        let (mut sup, pmu) = serviced_supervisor();
        let (twin, twin_pmu) = serviced_supervisor();
        let cells = sup.state_cell_count();
        let site = sup
            .corrupt_state_cell(index % cells, mask, bit)
            .expect("index is in range");

        let records = sup.scrub_state_final();
        prop_assert_eq!(records.len(), 1, "exactly one declaration for one flip");
        prop_assert_eq!(records[0].site, site);
        prop_assert!(records[0].repaired, "a surviving replica must repair {site:?}");
        prop_assert_eq!(sup.stats().state_repairs, 1);
        prop_assert_eq!(sup.stats().state_escalations, 0);
        prop_assert_eq!(
            decision_state(&sup.detector().checkpoint(&pmu).to_bytes()),
            decision_state(&twin.detector().checkpoint(&twin_pmu).to_bytes()),
            "repair must restore the exact pre-corruption state"
        );
    }

    /// Correlated damage — the same bit flipped in *every* replica — can
    /// never be silently absorbed either: it is declared exactly once as
    /// unrepairable and counted as an escalation. (Whether the words
    /// still happen to agree is irrelevant: with no checksum vouching
    /// for any replica, the cell is untrusted by policy.)
    #[test]
    fn an_all_replica_flip_is_declared_and_escalated(
        index in 0usize..1 << 16,
        bit in 0u8..128,
    ) {
        let (mut sup, _pmu) = serviced_supervisor();
        let cells = sup.state_cell_count();
        let site = sup
            .corrupt_state_cell(index % cells, 0b111, bit)
            .expect("index is in range");

        let records = sup.scrub_state_final();
        prop_assert_eq!(records.len(), 1, "exactly one declaration for one strike");
        prop_assert_eq!(records[0].site, site);
        prop_assert!(!records[0].repaired, "no replica survives a correlated strike");
        prop_assert_eq!(sup.stats().state_repairs, 0);
        prop_assert_eq!(sup.stats().state_escalations, 1);
    }
}

/// End to end through the service path: an unrepairable corruption is
/// found — by the incremental scrub when the cursor reaches the carry's
/// slice, or by the detector's own guarded read first — and escalates to
/// a restart from the last good checkpoint, declared as a `Restarted`
/// outcome with a recovery gap, within one scrub rotation. Never a
/// silent continuation.
#[test]
fn service_escalates_an_unrepairable_carry_to_a_restart() {
    let (mut sup, mut pmu) = serviced_supervisor();
    let mapping = AddressMapping::new(DramGeometry::ddr3_4gb());
    sup.corrupt_state_cell(0, 0b111, 62).expect("carry exists");

    let mut restarted = false;
    for _ in 0..=RuntimeConfig::default().scrub_slices {
        let deadline = sup.deadline();
        let outcome = sup
            .service(deadline, &mut pmu, &mapping, &mut |_pid, va| Some(va))
            .expect("escalation restarts within budget");
        if let SupervisedOutcome::Restarted(r) = outcome {
            assert!(r.gap > 0, "a declared recovery gap");
            assert!(r.resumed_at > deadline);
            restarted = true;
            break;
        }
    }
    assert!(
        restarted,
        "the corruption must escalate within one scrub rotation"
    );
    assert_eq!(sup.stats().state_escalations, 1);
    assert_eq!(sup.stats().restarts, 1);
    let declared = sup.drain_state_corruptions();
    assert!(
        declared.iter().any(|c| !c.repaired),
        "the escalation carries a typed unrepaired record: {declared:?}"
    );

    // The restarted detector is healthy: the next window services
    // normally and declares nothing.
    let deadline = sup.deadline();
    let outcome = sup
        .service(deadline, &mut pmu, &mapping, &mut |_pid, va| Some(va))
        .expect("post-restart service succeeds");
    assert!(matches!(outcome, SupervisedOutcome::Serviced { .. }));
    assert!(sup.drain_state_corruptions().is_empty());
}

const CLOCK: CpuClock = CpuClock::SANDY_BRIDGE_2_6GHZ;
const PERIOD: Cycle = 166_400_000;

/// A hardened detector and its PMU, stepped through one kind of event
/// at a time by [`ScrubTwin::step`].
struct ScrubTwin {
    det: AnvilDetector,
    pmu: Pmu,
    /// When the current window opened.
    start: Cycle,
}

impl ScrubTwin {
    fn new() -> Self {
        let mut pmu = Pmu::new(SamplerConfig::anvil_default());
        let det = AnvilDetector::new(AnvilConfig::hardened(), &CLOCK, PERIOD, 0, &mut pmu);
        ScrubTwin { det, pmu, start: 0 }
    }

    /// One event, chosen by `kind` and shaped by `a`, `b`, `c`:
    /// - 0: a flip in any cell, any replica subset, any bit;
    /// - 1: a slice scrub at any slice and slice count;
    /// - 2, 3: one serviced window: stage-1 miss traffic (under or over
    ///   the trip threshold), or a stage-2 window of reads over a few
    ///   rows in two banks, whose samples the ledger absorbs;
    /// - 4: a checkpoint restored into a fresh detector, resuming the
    ///   window or (when the downtime swallowed it) restarting stage 1;
    /// - 5: a switch between guarded and unguarded reads.
    ///
    /// Returns the service outcome, if the event was a service.
    fn step(&mut self, kind: u8, a: u64, b: u64, c: u64) -> Option<ServiceOutcome> {
        match kind {
            0 => {
                let cells = self.det.state_cell_count() as u64;
                let (mask, bit) = ((b % 8) as u8, (c % 128) as u8);
                self.det.corrupt_state_cell((a % cells) as usize, mask, bit);
                None
            }
            1 => {
                self.det.scrub_state_slice(a % 8, 1 + b % 8);
                None
            }
            2 | 3 => Some(self.service(a, b)),
            4 => {
                let ckpt = self.det.checkpoint(&self.pmu);
                let deadline = self.det.deadline();
                let now = if a.is_multiple_of(2) {
                    self.start
                } else {
                    deadline
                };
                self.det = AnvilDetector::restore(
                    AnvilConfig::hardened(),
                    &CLOCK,
                    PERIOD,
                    now,
                    &mut self.pmu,
                    &ckpt,
                )
                .expect("the detector's own checkpoint restores");
                self.start = now;
                None
            }
            _ => {
                self.det.set_state_guard(a.is_multiple_of(2));
                None
            }
        }
    }

    fn service(&mut self, a: u64, b: u64) -> ServiceOutcome {
        let deadline = self.det.deadline();
        let misses = if a.is_multiple_of(3) {
            a % 10_000
        } else {
            20_000 + a % 100_000
        };
        if self.det.stage() == DetectorStage::Sampling {
            let mapping = AddressMapping::new(DramGeometry::ddr3_4gb());
            let span = deadline - self.start;
            self.pmu.observe_spread(self.start, span, 120, |i| {
                let pick = (b >> (2 * (i % 16))) % 4;
                let paddr = mapping.address_of(DramLocation {
                    bank: BankId(u32::from(pick == 3)),
                    row: 100 + 2 * pick as u32,
                    col: 0,
                });
                dram_read(paddr)
            });
        }
        for event in [
            EventKind::LongestLatCacheMiss,
            EventKind::MemLoadUopsRetiredLlcMiss,
        ] {
            self.pmu.counter_mut(event).add(misses, deadline - 1);
        }
        let mapping = AddressMapping::new(DramGeometry::ddr3_4gb());
        let out = self
            .det
            .service(deadline, &mut self.pmu, &mapping, &mut |_, v| Some(v));
        self.start = deadline;
        out
    }
}

fn dram_read(paddr: u64) -> RetiredOp {
    RetiredOp {
        vaddr: paddr,
        pid: 7,
        outcome: AccessOutcome {
            paddr,
            kind: AccessKind::Read,
            level: HitLevel::Memory,
            advance: 184,
            dram: None,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Skipping scrubs while no cell may be sealed changes nothing. Over
    /// random interleavings of flips, slice scrubs, serviced windows
    /// (stage-2 absorption included), checkpoint restores and guard
    /// switches, a detector matches an always-scrub twin step for step:
    /// outcomes, stats, the corruption sequence, checkpoints and the PMU.
    /// The twin marks every cell as possibly sealed before each step, so
    /// every scrub it runs goes through in full.
    #[test]
    fn skipped_scrubs_match_an_always_scrub_twin(
        steps in prop::collection::vec((0u8..6, any::<u64>(), any::<u64>(), any::<u64>()), 1..48),
    ) {
        let mut skip = ScrubTwin::new();
        let mut always = ScrubTwin::new();
        for &(kind, a, b, c) in &steps {
            always.det.mark_state_unverified();
            let out = skip.step(kind, a, b, c);
            prop_assert_eq!(&out, &always.step(kind, a, b, c));
            prop_assert_eq!(skip.det.stats(), always.det.stats());
            prop_assert_eq!(
                skip.det.take_state_corruptions(),
                always.det.take_state_corruptions()
            );
            prop_assert_eq!(
                skip.det.checkpoint(&skip.pmu),
                always.det.checkpoint(&always.pmu)
            );
            prop_assert_eq!(format!("{:?}", skip.pmu), format!("{:?}", always.pmu));
        }
    }
}
