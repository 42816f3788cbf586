//! Hardened state cells: the detector defending its own memory.
//!
//! ANVIL is a software defense, so its counters, carries, and ledgers
//! live in the very DRAM it protects. A next-generation attacker who can
//! flip bits in arbitrary rows can flip bits in the *detector's* rows —
//! clearing the EWMA carry so stage 1 never trips, zeroing a ledger
//! score so a convicted aggressor walks free. This module closes that
//! loop with three mechanisms:
//!
//! * [`GuardedCell`] — a 64-bit state word stored as **three replicas**,
//!   each sealed with an FNV-1a-64 checksum of its encoded value. A read
//!   majority-decodes across the replicas whose checksums verify, so a
//!   single-replica flip never reaches a detector decision even before
//!   the scrubber visits the cell. Until something corrupts a cell, its
//!   three sealed replicas are implied by the word alone, so an
//!   uncorrupted cell costs one word and no seal computation.
//! * **Scrubbing** — [`GuardedCell::scrub`] verifies every replica,
//!   repairs minority damage by majority vote, and reports a typed
//!   [`StateCorruption`] naming the [`StateSite`] and whether repair
//!   succeeded. Writes scrub first, so corruption is *reported before it
//!   is overwritten* — never silently absorbed.
//! * **Escalation** — when no replica verifies (replica-correlated
//!   flips: the same bit disturbed in every copy, or every checksum
//!   damaged at once) the cell is *unrepairable*. Scrub deterministically
//!   re-seals a best-guess value (majority word, else replica 0) so the
//!   detector keeps a defined state, but the corruption is reported with
//!   `repaired = false` and the policy layer (`anvil-runtime`) escalates:
//!   cold restart from the last good checkpoint, charged against the
//!   guarantee-envelope downtime budget.
//!
//! The cell is deliberately *not* serialized: checkpoints carry the
//! decoded values (see `checkpoint.rs`), so the wire format is identical
//! to the unguarded detector's and replication never leaks into results.

use crate::checkpoint::fnv1a64;

/// How the detector reads its own state cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardMode {
    /// Majority-decode reads, scrub-before-write, corruption reporting —
    /// the self-defending configuration.
    Guarded,
    /// Trust replica 0 blindly and never scrub: the historical detector,
    /// kept as the campaign baseline so the `selfdefense` gate can show
    /// what state-targeting attacks do to it.
    Unguarded,
}

/// A named location in the detector's guarded state.
///
/// Sites are stable identifiers (ledger sites are keyed by the row's
/// packed id, not its position) so corruption accounting survives ledger
/// pruning and re-insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, serde::Serialize)]
pub enum StateSite {
    /// The stage-1 EWMA miss-evidence carry.
    Carry,
    /// The window-phase jitter stream position.
    PhaseState,
    /// The current stage-1 window scale.
    WindowScale,
    /// The sticky-sampling re-arm depth.
    Resamples,
    /// A suspicion-ledger entry's decayed score, keyed by packed row id.
    LedgerScore(u64),
    /// A suspicion-ledger entry's evidence-window count, keyed by packed
    /// row id.
    LedgerWindows(u64),
}

impl std::fmt::Display for StateSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateSite::Carry => write!(f, "carry"),
            StateSite::PhaseState => write!(f, "phase_state"),
            StateSite::WindowScale => write!(f, "window_scale"),
            StateSite::Resamples => write!(f, "resamples"),
            StateSite::LedgerScore(row) => write!(f, "ledger_score[{row:#x}]"),
            StateSite::LedgerWindows(row) => write!(f, "ledger_windows[{row:#x}]"),
        }
    }
}

/// A corruption the scrubber found in a guarded cell.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct StateCorruption {
    /// Where the corruption was found.
    pub site: StateSite,
    /// `true`: a checksummed majority existed and the damaged replicas
    /// were rewritten from it — the value the detector computes with was
    /// never wrong. `false`: no replica verified (or verified replicas
    /// disagreed); the cell was re-sealed deterministically but cannot be
    /// trusted, and the caller must escalate.
    pub repaired: bool,
}

/// A value storable in a [`GuardedCell`]: losslessly encoded as one
/// 64-bit word.
pub trait GuardedValue: Copy {
    /// Encodes the value as a 64-bit word.
    fn encode(self) -> u64;
    /// Decodes a 64-bit word back into the value.
    fn decode(word: u64) -> Self;
}

impl GuardedValue for u64 {
    fn encode(self) -> u64 {
        self
    }
    fn decode(word: u64) -> Self {
        word
    }
}

impl GuardedValue for u32 {
    fn encode(self) -> u64 {
        u64::from(self)
    }
    #[allow(clippy::cast_possible_truncation)]
    fn decode(word: u64) -> Self {
        word as u32
    }
}

impl GuardedValue for f64 {
    fn encode(self) -> u64 {
        self.to_bits()
    }
    fn decode(word: u64) -> Self {
        f64::from_bits(word)
    }
}

/// One replica: the encoded word plus its seal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Replica {
    word: u64,
    sum: u64,
}

impl Replica {
    fn sealed(word: u64) -> Self {
        Replica {
            word,
            sum: fnv1a64(&word.to_le_bytes()),
        }
    }

    fn valid(&self) -> bool {
        self.sum == fnv1a64(&self.word.to_le_bytes())
    }
}

/// Number of replicas per cell (fixed: majority vote needs an odd count,
/// and three is the cheapest that tolerates one arbitrary flip).
pub const REPLICAS: usize = 3;

/// How a cell holds its replicas.
///
/// Every store and every scrub leaves three identical, validly sealed
/// replicas of one word, and only [`GuardedCell::corrupt`] can make them
/// differ. So until something corrupts the cell, the word alone *is* the
/// replica set: `Pristine(w)` stands for `[Replica::sealed(w); 3]`, and
/// no seal is ever computed for it. The first corruption materializes
/// the sealed replicas; the next store or repairing scrub drops them.
#[derive(Debug, Clone)]
enum Replicas {
    /// Three identical replicas of this word, each validly sealed.
    Pristine(u64),
    /// The materialized replicas, as corruption left them.
    Sealed(Box<[Replica; REPLICAS]>),
}

/// A checksummed, triple-replicated 64-bit state cell.
///
/// See the module docs for the protocol. The injection surface
/// ([`GuardedCell::corrupt`]) flips bits in the stored words or seals
/// exactly the way a disturbance-induced charge leak would, so the same
/// cell is exercised by the software injector, the physical row map in
/// `anvil-mem`, and the proptests.
///
/// Every observable behaviour — reads, scrub reports, equality — is that
/// of three sealed replicas. A cell nothing has corrupted holds just its
/// word (16 bytes, no seal computed); see [`Replicas`].
#[derive(Debug, Clone)]
pub struct GuardedCell<T: GuardedValue> {
    replicas: Replicas,
    _value: std::marker::PhantomData<T>,
}

/// Equality of the replica sets, word and seal: a pristine cell equals a
/// materialized one holding three sealed copies of the same word.
impl<T: GuardedValue> PartialEq for GuardedCell<T> {
    fn eq(&self, other: &Self) -> bool {
        match (&self.replicas, &other.replicas) {
            (Replicas::Pristine(a), Replicas::Pristine(b)) => a == b,
            _ => self.sealed_replicas() == other.sealed_replicas(),
        }
    }
}

impl<T: GuardedValue> GuardedCell<T> {
    /// A freshly sealed cell holding `value`.
    pub fn new(value: T) -> Self {
        GuardedCell {
            replicas: Replicas::Pristine(value.encode()),
            _value: std::marker::PhantomData,
        }
    }

    /// The replica set as three sealed replicas, materialized or not.
    fn sealed_replicas(&self) -> [Replica; REPLICAS] {
        match &self.replicas {
            Replicas::Pristine(word) => [Replica::sealed(*word); REPLICAS],
            Replicas::Sealed(replicas) => **replicas,
        }
    }

    /// The materialized replicas, sealing a pristine cell's word first.
    fn materialize(&mut self) -> &mut [Replica; REPLICAS] {
        if let Replicas::Pristine(word) = self.replicas {
            self.replicas = Replicas::Sealed(Box::new([Replica::sealed(word); REPLICAS]));
        }
        match &mut self.replicas {
            Replicas::Sealed(replicas) => replicas,
            Replicas::Pristine(_) => unreachable!("materialized above"),
        }
    }

    /// Majority-decoded read (guarded mode). Never mutates: repair is the
    /// scrubber's job, so `&self` accessors stay `&self`.
    pub fn peek(&self) -> T {
        T::decode(match &self.replicas {
            Replicas::Pristine(word) => *word,
            Replicas::Sealed(replicas) => consensus(replicas),
        })
    }

    /// Replica-0 blind read (unguarded baseline): whatever bits are in
    /// the first copy, checksum ignored. Also the exact read of a cell
    /// that was just stored or scrubbed, since both leave every replica
    /// identical.
    pub fn raw(&self) -> T {
        T::decode(match &self.replicas {
            Replicas::Pristine(word) => *word,
            Replicas::Sealed(replicas) => replicas[0].word,
        })
    }

    /// Seals `value` into every replica.
    pub fn store(&mut self, value: T) {
        self.replicas = Replicas::Pristine(value.encode());
    }

    /// Whether every replica verifies and all words agree. A pristine
    /// cell is clean by construction; materialized identical replicas
    /// need one seal check, and any other state is unclean, since two
    /// replicas with one word and different seals cannot both verify.
    pub fn clean(&self) -> bool {
        match &self.replicas {
            Replicas::Pristine(_) => true,
            Replicas::Sealed(replicas) => identical(replicas) && replicas[0].valid(),
        }
    }

    /// Verifies all replicas, repairs what a checksummed majority can
    /// vouch for, and reports what it found.
    ///
    /// Returns `None` when the cell was clean. Otherwise every replica is
    /// re-sealed from the consensus word and the returned
    /// [`StateCorruption`] says whether that consensus was trustworthy
    /// (`repaired`) or a deterministic best guess the caller must
    /// escalate (`!repaired`). Either way the cell is pristine afterwards.
    pub fn scrub(&mut self, site: StateSite) -> Option<StateCorruption> {
        let Replicas::Sealed(replicas) = &self.replicas else {
            return None;
        };
        if identical(replicas) && replicas[0].valid() {
            self.replicas = Replicas::Pristine(replicas[0].word);
            return None;
        }
        let (valid, n) = verified(replicas);
        let valid = &valid[..n];
        let repaired = majority(valid).is_some() || n == 1;
        self.replicas = Replicas::Pristine(consensus_of(valid, replicas));
        Some(StateCorruption { site, repaired })
    }

    /// XORs bit `bit` into the selected replicas — the injection surface.
    ///
    /// Bits `0..64` hit the stored word; bits `64..128` hit the checksum
    /// seal (a flip landing in the metadata instead of the data). Replica
    /// `i` is hit when bit `i` of `replica_mask` is set.
    pub fn corrupt(&mut self, replica_mask: u8, bit: u8) {
        let bit = bit % 128;
        for (i, r) in self.materialize().iter_mut().enumerate() {
            if replica_mask & (1 << i) == 0 {
                continue;
            }
            if bit < 64 {
                r.word ^= 1u64 << bit;
            } else {
                r.sum ^= 1u64 << (bit - 64);
            }
        }
    }
}

#[cfg(test)]
impl<T: GuardedValue> GuardedCell<T> {
    /// The materialized replicas, for tests that forge replica states
    /// [`corrupt`](Self::corrupt) cannot reach (two validly sealed
    /// replicas that disagree).
    fn forge_replicas(&mut self) -> &mut [Replica; REPLICAS] {
        self.materialize()
    }
}

/// Whether all three replicas are bit-identical, word and seal.
fn identical(replicas: &[Replica; REPLICAS]) -> bool {
    let [a, b, c] = replicas;
    a == b && b == c
}

/// The words of the replicas whose seals verify, in replica order, in a
/// fixed buffer: `(words, count)`.
fn verified(replicas: &[Replica; REPLICAS]) -> ([u64; REPLICAS], usize) {
    let mut words = [0u64; REPLICAS];
    let mut n = 0;
    for r in replicas {
        if r.valid() {
            words[n] = r.word;
            n += 1;
        }
    }
    (words, n)
}

/// The consensus word without mutating anything: the majority word among
/// replicas whose checksums verify, falling back to a majority of raw
/// words, then to replica 0. A single flipped replica never changes the
/// result.
///
/// Identical replicas short-circuit: every branch below returns their
/// shared word whether or not its seal verifies, so no seal is checked.
fn consensus(replicas: &[Replica; REPLICAS]) -> u64 {
    if identical(replicas) {
        return replicas[0].word;
    }
    let (valid, n) = verified(replicas);
    consensus_of(&valid[..n], replicas)
}

/// [`consensus`] given the already-verified words.
fn consensus_of(valid: &[u64], replicas: &[Replica; REPLICAS]) -> u64 {
    if let Some(word) = majority(valid) {
        return word;
    }
    if let Some(&word) = valid.first() {
        return word;
    }
    let raw = replicas.map(|r| r.word);
    majority(&raw).unwrap_or(replicas[0].word)
}

/// The strict-majority word of `words`, if one exists.
fn majority(words: &[u64]) -> Option<u64> {
    words
        .iter()
        .find(|&&w| words.iter().filter(|&&x| x == w).count() * 2 > words.len())
        .copied()
}

#[cfg(test)]
// Bit-exact float equality is the property under test: a repair must
// restore the identical word, not an approximation.
#[allow(clippy::float_cmp, clippy::decimal_bitwise_operands)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_value_type() {
        assert_eq!(GuardedCell::new(0.25f64).peek(), 0.25);
        assert_eq!(GuardedCell::new(u64::MAX).peek(), u64::MAX);
        assert_eq!(GuardedCell::new(7u32).peek(), 7);
        let mut c = GuardedCell::new(-0.0f64);
        assert_eq!(c.peek().to_bits(), (-0.0f64).to_bits(), "bit-exact floats");
        c.store(1.5e300);
        assert_eq!(c.peek(), 1.5e300);
        assert!(c.clean());
    }

    #[test]
    fn single_replica_flip_never_reaches_a_read_and_repairs() {
        for replica in 0..3u8 {
            for bit in [0u8, 13, 52, 63, 64, 90, 127] {
                let mut c = GuardedCell::new(123_456.75f64);
                c.corrupt(1 << replica, bit);
                assert_eq!(c.peek(), 123_456.75, "replica {replica} bit {bit}");
                let report = c.scrub(StateSite::Carry).expect("corruption found");
                assert!(report.repaired, "replica {replica} bit {bit}");
                assert!(c.clean());
                assert_eq!(c.peek(), 123_456.75);
                assert!(c.scrub(StateSite::Carry).is_none(), "second scrub clean");
            }
        }
    }

    #[test]
    fn raw_read_trusts_replica_zero_blindly() {
        let mut c = GuardedCell::new(1000.0f64);
        c.corrupt(0b001, 62); // clear a high exponent bit in replica 0
        assert_ne!(c.raw(), 1000.0, "unguarded read is fooled");
        assert_eq!(c.peek(), 1000.0, "guarded read is not");
    }

    #[test]
    fn correlated_flips_escalate_deterministically() {
        // Same bit in every replica word: words agree, no seal verifies.
        let mut a = GuardedCell::new(42u64);
        a.corrupt(0b111, 5);
        let ra = a.scrub(StateSite::Resamples).expect("reported");
        assert!(!ra.repaired, "no checksummed majority: escalate");
        assert!(a.clean(), "but the cell is re-sealed to a defined state");
        assert_eq!(a.peek(), 42 ^ (1 << 5), "best guess is the agreed word");

        // All three seals hit: again nothing verifies.
        let mut b = GuardedCell::new(42u64);
        b.corrupt(0b111, 64 + 9);
        let rb = b.scrub(StateSite::Resamples).expect("reported");
        assert!(!rb.repaired);
        assert_eq!(b.peek(), 42, "words were never touched");
    }

    #[test]
    fn two_valid_but_disagreeing_replicas_escalate() {
        let mut c = GuardedCell::new(10u64);
        // Replica 1 and 2 damaged differently; replica 0 intact: majority
        // of valid = just replica 0 → no strict majority among {0} ∪ ...
        c.corrupt(0b010, 3);
        c.corrupt(0b100, 7);
        let r = c.scrub(StateSite::PhaseState).expect("reported");
        assert!(r.repaired, "one checksummed survivor still vouches");
        assert_eq!(c.peek(), 10);

        // Now damage word+seal of two replicas so exactly two "verify"
        // with different words: no strict majority → escalate.
        let mut d = GuardedCell::new(10u64);
        d.forge_replicas()[1] = Replica::sealed(11);
        d.forge_replicas()[2] = Replica::sealed(12);
        let rd = d.scrub(StateSite::PhaseState).expect("reported");
        assert!(!rd.repaired, "three valid, three-way disagreement");
    }

    #[test]
    fn writes_reseal_all_replicas() {
        let mut c = GuardedCell::new(1u32);
        c.corrupt(0b010, 0);
        assert!(!c.clean());
        c.store(2);
        assert!(c.clean());
        assert_eq!(c.peek(), 2);
        assert_eq!(c.raw(), 2);
    }
}

#[cfg(test)]
mod oracle {
    //! The allocation-free, lazily sealed cell checked against the
    //! original implementation — three always-materialized replicas read
    //! through allocating helpers — kept here only as a reference.
    use super::*;
    use proptest::prelude::*;

    fn ref_consensus(replicas: &[Replica; REPLICAS]) -> u64 {
        let valid: Vec<u64> = replicas
            .iter()
            .filter(|r| r.valid())
            .map(|r| r.word)
            .collect();
        if let Some(word) = majority(&valid) {
            return word;
        }
        if let Some(&word) = valid.first() {
            return word;
        }
        let raw: Vec<u64> = replicas.iter().map(|r| r.word).collect();
        majority(&raw).unwrap_or(replicas[0].word)
    }

    fn ref_clean(replicas: &[Replica; REPLICAS]) -> bool {
        replicas.iter().all(Replica::valid) && replicas.iter().all(|r| r.word == replicas[0].word)
    }

    fn ref_scrub(replicas: &mut [Replica; REPLICAS], site: StateSite) -> Option<StateCorruption> {
        if ref_clean(replicas) {
            return None;
        }
        let valid: Vec<u64> = replicas
            .iter()
            .filter(|r| r.valid())
            .map(|r| r.word)
            .collect();
        let repaired = majority(&valid).is_some() || valid.len() == 1;
        let word = ref_consensus(replicas);
        *replicas = [Replica::sealed(word); REPLICAS];
        Some(StateCorruption { site, repaired })
    }

    fn ref_corrupt(replicas: &mut [Replica; REPLICAS], mask: u8, bit: u8) {
        let bit = bit % 128;
        for (i, r) in replicas.iter_mut().enumerate() {
            if mask & (1 << i) != 0 {
                if bit < 64 {
                    r.word ^= 1u64 << bit;
                } else {
                    r.sum ^= 1u64 << (bit - 64);
                }
            }
        }
    }

    /// Forges the `mask` replicas as validly sealed copies of a different
    /// word, the only way to reach two verified replicas that disagree.
    fn forge(replicas: &mut [Replica; REPLICAS], mask: u8, bit: u8) {
        for (i, r) in replicas.iter_mut().enumerate() {
            if mask & (1 << i) != 0 {
                *r = Replica::sealed(r.word ^ (1u64 << (bit % 64)));
            }
        }
    }

    /// Every read of `cell` agrees with the reference replica set, and a
    /// scrub of a copy reports and repairs exactly as the reference does.
    fn agrees<T: GuardedValue>(cell: &GuardedCell<T>, want: &[Replica; REPLICAS], ops: &str) {
        assert_eq!(&cell.sealed_replicas(), want, "{ops}");
        assert_eq!(
            cell.peek().encode(),
            T::decode(ref_consensus(want)).encode(),
            "{ops}"
        );
        assert_eq!(
            cell.raw().encode(),
            T::decode(want[0].word).encode(),
            "{ops}"
        );
        assert_eq!(cell.clean(), ref_clean(want), "{ops}");
        let mut reference = *want;
        let report = ref_scrub(&mut reference, StateSite::Carry);
        let mut scrubbed = cell.clone();
        assert_eq!(scrubbed.scrub(StateSite::Carry), report, "{ops}");
        assert_eq!(scrubbed.sealed_replicas(), reference, "{ops}");
    }

    /// Applies `ops` to a cell holding `init`, comparing every read and
    /// scrub with the reference after each step. Op kinds: 0–1 flip bit
    /// `bit` in the `mask` replicas (word or seal); 2 additionally scrubs
    /// and carries on from the scrubbed state; 3 forges the `mask`
    /// replicas (see [`forge`]).
    fn check<T: GuardedValue>(init: T, ops: &[(u8, u8, u8)]) {
        let mut cell = GuardedCell::new(init);
        for &(kind, mask, bit) in ops {
            match kind {
                3 => forge(cell.forge_replicas(), mask, bit),
                _ => cell.corrupt(mask, bit),
            }
            let want = cell.sealed_replicas();
            agrees(&cell, &want, &format!("{ops:?}"));
            if kind == 2 {
                cell.scrub(StateSite::Carry);
            }
        }
    }

    /// One sequence op: `((kind, target), (mask, bit), (small, word))`.
    type SeqOp = ((u8, u8), (u8, u8), (bool, u64));

    /// Runs `ops` on two lazily sealed cells and on two always-sealed
    /// reference replica sets side by side. Each op acts on cell `target
    /// % 2`: kind 0 corrupts, 1 scrubs, 2 stores `word` (reduced to
    /// `0..4` when `small`, so stores often agree), 3 forges, 4 replaces
    /// it with a clone of the other cell. After every op each cell's
    /// replicas, reads, clean verdict and scrub outcome match its
    /// reference, and the two cells compare equal exactly when their
    /// references do.
    fn check_sequence(init: [u64; 2], ops: &[SeqOp]) {
        let mut cells = init.map(GuardedCell::<u64>::new);
        let mut refs = init.map(|w| [Replica::sealed(w); REPLICAS]);
        for &((kind, target), (mask, bit), (small, word)) in ops {
            let t = usize::from(target % 2);
            let word = if small { word % 4 } else { word };
            match kind % 5 {
                0 => {
                    cells[t].corrupt(mask, bit);
                    ref_corrupt(&mut refs[t], mask, bit);
                }
                1 => {
                    let site = StateSite::Resamples;
                    assert_eq!(cells[t].scrub(site), ref_scrub(&mut refs[t], site));
                }
                2 => {
                    cells[t].store(word);
                    refs[t] = [Replica::sealed(word); REPLICAS];
                }
                3 => {
                    forge(cells[t].forge_replicas(), mask, bit);
                    forge(&mut refs[t], mask, bit);
                }
                _ => {
                    cells[t] = cells[1 - t].clone();
                    refs[t] = refs[1 - t];
                }
            }
            let ops = format!("{ops:?}");
            for (cell, want) in cells.iter().zip(&refs) {
                agrees(cell, want, &ops);
            }
            assert_eq!(cells[0] == cells[1], refs[0] == refs[1], "{ops}");
        }
    }

    #[test]
    fn equality_sees_through_materialization() {
        let pristine = GuardedCell::new(7u64);
        let mut sealed = GuardedCell::new(7u64);
        sealed.corrupt(0b001, 3);
        assert_ne!(pristine, sealed);
        sealed.corrupt(0b001, 3);
        assert_eq!(pristine, sealed, "flipped back: same replicas");
        assert_eq!(sealed, pristine);
        sealed.corrupt(0b100, 70);
        let copy = sealed.clone();
        assert_eq!(copy, sealed, "a clone copies the damage");
        assert_ne!(copy, pristine);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn reads_and_scrubs_match_the_allocating_reference(
            ops in prop::collection::vec((0u8..4, 0u8..8, 0u8..128), 0..12),
            seed in any::<u64>(),
        ) {
            check(seed, &ops);
            check(seed as u32, &ops);
            check(f64::from_bits(seed), &ops);
            check(0.5f64, &ops);
        }

        #[test]
        fn lazy_seals_match_the_always_sealed_reference(
            ops in prop::collection::vec(
                ((0u8..5, 0u8..2), (0u8..8, 0u8..128), (any::<bool>(), any::<u64>())),
                0..16,
            ),
            a in any::<u64>(),
            same in any::<bool>(),
            b in any::<u64>(),
        ) {
            check_sequence([a, if same { a } else { b }], &ops);
        }
    }
}
