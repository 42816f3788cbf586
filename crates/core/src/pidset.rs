//! Small pid lists: the processes whose samples hit a suspected row.
//!
//! Every suspicion-ledger entry and every checkpoint row carries the
//! pids that contributed to it. In the window model a row carries one or
//! two, and a fleet cell writes hundreds of thousands of checkpoint rows,
//! so a heap buffer per list costs more than the list. [`PidSet`] holds
//! up to [`INLINE_PIDS`] pids in place and spills to a `Vec` only beyond
//! that (a platform row may collect more). It is the size of the `Vec`
//! it replaces, and it encodes exactly like one.

use serde::value::Value;
use serde::{Deserialize, Serialize};
use std::ops::Deref;

/// Pids a [`PidSet`] holds without a heap buffer. Three fit in the room
/// of a `Vec<u32>`'s three words beside the enum's tag.
pub const INLINE_PIDS: usize = 3;

/// A short list of pids in first-seen order, held inline up to
/// [`INLINE_PIDS`] and in a `Vec` beyond.
///
/// [`insert`](Self::insert) appends a pid not yet present, which is how
/// the ledger collects a row's suspects. A set built from a list
/// ([`From<Vec<u32>>`], [`FromIterator`], or decoding) keeps the list as
/// given, duplicates included, so a decoded checkpoint re-encodes to the
/// same bytes. It serializes as a JSON array of its pids, exactly like
/// `Vec<u32>`, and decodes from an array of any length. Equality is over
/// the pids, whichever way they are held. It derefs to `[u32]`.
pub struct PidSet(Repr);

enum Repr {
    /// The first `len` of `pids`.
    Inline { len: u8, pids: [u32; INLINE_PIDS] },
    /// A set that once held more than [`INLINE_PIDS`]. Clearing keeps
    /// the buffer, so a reused set does not allocate again.
    Spilled(Vec<u32>),
}

impl PidSet {
    /// An empty set.
    pub const fn new() -> Self {
        PidSet(Repr::Inline {
            len: 0,
            pids: [0; INLINE_PIDS],
        })
    }

    /// The pids in order.
    pub fn as_slice(&self) -> &[u32] {
        match &self.0 {
            Repr::Inline { len, pids } => &pids[..usize::from(*len)],
            Repr::Spilled(pids) => pids,
        }
    }

    /// Appends `pid` unless the set already holds it.
    pub fn insert(&mut self, pid: u32) {
        if !self.contains(&pid) {
            self.push(pid);
        }
    }

    /// Appends `pid`, moving the set to the heap when it outgrows the
    /// inline room.
    fn push(&mut self, pid: u32) {
        match &mut self.0 {
            Repr::Inline { len, pids } => {
                if let Some(free) = pids.get_mut(usize::from(*len)) {
                    *free = pid;
                    *len += 1;
                } else {
                    let mut spilled = Vec::with_capacity(2 * INLINE_PIDS);
                    spilled.extend_from_slice(pids);
                    spilled.push(pid);
                    self.0 = Repr::Spilled(spilled);
                }
            }
            Repr::Spilled(pids) => pids.push(pid),
        }
    }

    /// Empties the set, keeping a spilled set's buffer.
    pub fn clear(&mut self) {
        match &mut self.0 {
            Repr::Inline { len, .. } => *len = 0,
            Repr::Spilled(pids) => pids.clear(),
        }
    }

    /// Whether the set holds a heap buffer.
    #[cfg(test)]
    pub(crate) fn spilled(&self) -> bool {
        matches!(self.0, Repr::Spilled(_))
    }
}

impl Default for PidSet {
    fn default() -> Self {
        PidSet::new()
    }
}

impl Deref for PidSet {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        self.as_slice()
    }
}

/// A clone holds its pids inline whenever they fit, whatever the source
/// holds; `clone_from` reuses the destination's buffer.
impl Clone for PidSet {
    fn clone(&self) -> Self {
        match &self.0 {
            &Repr::Inline { len, pids } => PidSet(Repr::Inline { len, pids }),
            Repr::Spilled(pids) => pids.iter().copied().collect(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.clear();
        for &pid in source.as_slice() {
            self.push(pid);
        }
    }
}

impl PartialEq for PidSet {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PidSet {}

impl std::fmt::Debug for PidSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl FromIterator<u32> for PidSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut set = PidSet::new();
        for pid in iter {
            set.push(pid);
        }
        set
    }
}

impl From<Vec<u32>> for PidSet {
    fn from(pids: Vec<u32>) -> Self {
        if pids.len() > INLINE_PIDS {
            PidSet(Repr::Spilled(pids))
        } else {
            pids.into_iter().collect()
        }
    }
}

impl Serialize for PidSet {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl Deserialize for PidSet {
    fn from_value(v: &Value) -> Option<Self> {
        Vec::<u32>::from_value(v).map(PidSet::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `serde_json` text of `pids`.
    fn json(pids: &impl Serialize) -> String {
        serde_json::to_string(pids).unwrap()
    }

    /// A set takes the room of the `Vec` it replaces and holds three
    /// pids in it, the most that fit beside the tag.
    #[test]
    fn a_set_is_the_size_of_the_vec_it_replaces() {
        assert_eq!(
            std::mem::size_of::<PidSet>(),
            std::mem::size_of::<Vec<u32>>()
        );
        let three: PidSet = [7, 8, 9].into_iter().collect();
        assert!(!three.spilled());
    }

    #[test]
    fn spills_past_the_inline_room_keeping_every_pid() {
        let mut set = PidSet::new();
        for pid in 0..INLINE_PIDS as u32 {
            set.insert(10 + pid);
            assert!(!set.spilled());
        }
        set.insert(99);
        assert!(set.spilled());
        let want: Vec<u32> = (10..10 + INLINE_PIDS as u32).chain([99]).collect();
        assert_eq!(set.as_slice(), &want[..]);
        // A cleared spilled set keeps its buffer; a clone of a short one
        // is inline again.
        set.clear();
        set.insert(4);
        assert!(set.spilled());
        assert!(!set.clone().spilled());
        assert_eq!(set.clone().as_slice(), &[4]);
    }

    proptest! {
        /// Against a `Vec<u32>` reference under insert-if-absent, clear
        /// and both clones: the pids in first-seen order, a heap buffer
        /// exactly when the set has held more than the inline room since
        /// it was built or cloned, equality, and identical `serde_json`
        /// text that decodes back to an equal set.
        #[test]
        fn matches_a_vec_reference(
            ops in prop::collection::vec(
                (0u8..9, 0u32..9, prop::collection::vec(0u32..9, 0..8)),
                0..40,
            ),
        ) {
            let mut set = PidSet::new();
            let mut reference: Vec<u32> = Vec::new();
            let mut outgrown = false;
            // Six in nine steps insert; the rest clear, clone or clone
            // into.
            for (op, pid, pids) in ops {
                match op {
                    0 => {
                        set.clear();
                        reference.clear();
                    }
                    1 => {
                        set = set.clone();
                        outgrown = false;
                    }
                    2 => {
                        set.clone_from(&PidSet::from(pids.clone()));
                        reference = pids;
                    }
                    _ => {
                        set.insert(pid);
                        if !reference.contains(&pid) {
                            reference.push(pid);
                        }
                    }
                }
                outgrown |= reference.len() > INLINE_PIDS;
                prop_assert_eq!(set.as_slice(), &reference[..]);
                prop_assert_eq!(set.spilled(), outgrown);
                prop_assert_eq!(&set, &PidSet::from(reference.clone()));
                prop_assert_eq!(json(&set), json(&reference));
                let decoded: PidSet = serde_json::from_str(&json(&set)).unwrap();
                prop_assert_eq!(decoded, set.clone());
            }
        }

        /// A list of any length, duplicates included, builds and decodes
        /// to a set holding exactly that list, inline when it fits, that
        /// encodes back to the list's bytes.
        #[test]
        fn lists_of_any_length_round_trip(pids in prop::collection::vec(any::<u32>(), 0..12)) {
            let text = json(&pids);
            let decoded: PidSet = serde_json::from_str(&text).unwrap();
            prop_assert_eq!(decoded.as_slice(), &pids[..]);
            prop_assert_eq!(decoded.spilled(), pids.len() > INLINE_PIDS);
            prop_assert_eq!(json(&decoded), text);
            let collected: PidSet = pids.iter().copied().collect();
            prop_assert_eq!(collected.as_slice(), &pids[..]);
            prop_assert_eq!(collected.spilled(), pids.len() > INLINE_PIDS);
            prop_assert_eq!(PidSet::from(pids.clone()), collected);
        }
    }

    #[test]
    fn non_pid_values_do_not_decode() {
        for text in [
            "null",
            "3",
            "[1,-2]",
            "[1,4294967296]",
            "{\"a\":1}",
            "[\"x\"]",
        ] {
            let value: Value = serde_json::from_str(text).unwrap();
            assert!(PidSet::from_value(&value).is_none(), "{text}");
        }
    }
}
