//! Cache replacement policies.
//!
//! The CLFLUSH-free attack (paper Section 2.2) hinges on knowing the
//! last-level cache's replacement policy: the authors reverse-engineer
//! Sandy Bridge and find it favors **Bit-PLRU** (a.k.a. MRU-bit
//! replacement, similar to NRU). This module provides that policy plus the
//! zoo of candidates their fingerprinting methodology compares against.

use serde::{Deserialize, Serialize};

mod bit_plru;
mod nru;
mod random;
mod srrip;
mod tree_plru;
mod true_lru;

pub use bit_plru::BitPlru;
pub use nru::Nru;
pub use random::RandomPolicy;
pub use srrip::Srrip;
pub use tree_plru::TreePlru;
pub use true_lru::TrueLru;

/// A per-set replacement policy.
///
/// The cache calls [`on_hit`](Self::on_hit) on hits, asks for a
/// [`victim`](Self::victim) when a fill finds no invalid way, and calls
/// [`on_fill`](Self::on_fill) after the fill. All policies are
/// deterministic given their construction parameters (the random policy
/// takes a seed), which keeps whole-simulation runs reproducible.
pub trait ReplacementPolicy: std::fmt::Debug + Send {
    /// Records a hit to `way` of `set`.
    fn on_hit(&mut self, set: usize, way: usize);

    /// Records a fill into `way` of `set`.
    fn on_fill(&mut self, set: usize, way: usize);

    /// Chooses a victim way in a full `set`.
    fn victim(&mut self, set: usize) -> usize;

    /// Records that `way` of `set` was invalidated (CLFLUSH or inclusive
    /// back-invalidation). Default: no state change — the way becomes
    /// preferred for the next fill through the cache's invalid-way scan,
    /// which matches real parts.
    fn on_invalidate(&mut self, _set: usize, _way: usize) {}

    /// Human-readable policy name (stable; used by fingerprinting).
    fn name(&self) -> &'static str;
}

/// One of the six policies, dispatched by a `match` rather than through a
/// trait object: the cache consults its policy on every hit, fill and
/// victim choice, and a static call lets each policy's few instructions
/// inline into the cache's access path.
#[derive(Debug, Clone)]
pub enum Policy {
    /// True least-recently-used.
    TrueLru(TrueLru),
    /// MRU-bit pseudo-LRU.
    BitPlru(BitPlru),
    /// Not-recently-used.
    Nru(Nru),
    /// Binary-tree pseudo-LRU.
    TreePlru(TreePlru),
    /// Static RRIP.
    Srrip(Srrip),
    /// Seeded random victims.
    Random(RandomPolicy),
}

/// Calls `$call` on the policy `$self` holds, bound as `$p`.
macro_rules! dispatch {
    ($self:expr, $p:ident => $call:expr) => {
        match $self {
            Policy::TrueLru($p) => $call,
            Policy::BitPlru($p) => $call,
            Policy::Nru($p) => $call,
            Policy::TreePlru($p) => $call,
            Policy::Srrip($p) => $call,
            Policy::Random($p) => $call,
        }
    };
}

impl ReplacementPolicy for Policy {
    #[inline]
    fn on_hit(&mut self, set: usize, way: usize) {
        dispatch!(self, p => p.on_hit(set, way));
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize) {
        dispatch!(self, p => p.on_fill(set, way));
    }

    #[inline]
    fn victim(&mut self, set: usize) -> usize {
        dispatch!(self, p => p.victim(set))
    }

    #[inline]
    fn on_invalidate(&mut self, set: usize, way: usize) {
        dispatch!(self, p => p.on_invalidate(set, way));
    }

    fn name(&self) -> &'static str {
        dispatch!(self, p => p.name())
    }
}

/// Selects a replacement policy; the serializable counterpart of
/// [`Policy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// True least-recently-used.
    TrueLru,
    /// MRU-bit pseudo-LRU — what the paper finds on Sandy Bridge L3.
    BitPlru,
    /// Not-recently-used (clears reference bits at victim-selection time).
    Nru,
    /// Binary-tree pseudo-LRU — common in L1/L2.
    TreePlru,
    /// Static RRIP with 2-bit re-reference predictions.
    Srrip,
    /// Uniform random victim (seeded).
    Random {
        /// RNG seed, so simulations stay reproducible.
        seed: u64,
    },
}

impl PolicyKind {
    /// Instantiates the policy for a cache of `sets` x `ways`.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn build(&self, sets: usize, ways: usize) -> Policy {
        assert!(sets > 0 && ways > 0, "cache must have sets and ways");
        match *self {
            PolicyKind::TrueLru => Policy::TrueLru(TrueLru::new(sets, ways)),
            PolicyKind::BitPlru => Policy::BitPlru(BitPlru::new(sets, ways)),
            PolicyKind::Nru => Policy::Nru(Nru::new(sets, ways)),
            PolicyKind::TreePlru => Policy::TreePlru(TreePlru::new(sets, ways)),
            PolicyKind::Srrip => Policy::Srrip(Srrip::new(sets, ways)),
            PolicyKind::Random { seed } => Policy::Random(RandomPolicy::new(sets, ways, seed)),
        }
    }

    /// All deterministic candidates, as used by the fingerprinting
    /// methodology (the random policy is excluded: it cannot be matched
    /// trace-for-trace).
    pub fn deterministic_candidates() -> Vec<PolicyKind> {
        vec![
            PolicyKind::TrueLru,
            PolicyKind::BitPlru,
            PolicyKind::Nru,
            PolicyKind::TreePlru,
            PolicyKind::Srrip,
        ]
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PolicyKind::TrueLru => "true-lru",
            PolicyKind::BitPlru => "bit-plru",
            PolicyKind::Nru => "nru",
            PolicyKind::TreePlru => "tree-plru",
            PolicyKind::Srrip => "srrip",
            PolicyKind::Random { .. } => "random",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives any policy through a fill-then-hit workout and checks basic
    /// sanity: victims are in range and filled ways are not immediately
    /// re-victimized.
    fn workout(kind: PolicyKind) {
        let (sets, ways) = (4, 8);
        let mut p = kind.build(sets, ways);
        for set in 0..sets {
            for way in 0..ways {
                p.on_fill(set, way);
            }
        }
        for set in 0..sets {
            for round in 0..64 {
                let v = p.victim(set);
                assert!(v < ways, "{kind}: victim {v} out of range");
                p.on_fill(set, v);
                p.on_hit(set, (round * 3) % ways);
            }
        }
    }

    #[test]
    fn all_policies_survive_workout() {
        for kind in PolicyKind::deterministic_candidates() {
            workout(kind);
        }
        workout(PolicyKind::Random { seed: 9 });
    }

    #[test]
    fn most_recently_filled_way_is_not_the_next_victim() {
        for kind in PolicyKind::deterministic_candidates() {
            let mut p = kind.build(1, 8);
            for way in 0..8 {
                p.on_fill(0, way);
            }
            let v = p.victim(0);
            p.on_fill(0, v);
            assert_ne!(p.victim(0), v, "{kind}: immediately re-victimized fill");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(PolicyKind::BitPlru.to_string(), "bit-plru");
        assert_eq!(PolicyKind::Random { seed: 1 }.to_string(), "random");
    }

    #[test]
    #[should_panic(expected = "sets and ways")]
    fn zero_geometry_panics() {
        PolicyKind::BitPlru.build(0, 8);
    }
}
