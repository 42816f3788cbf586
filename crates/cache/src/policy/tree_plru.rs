//! Binary-tree pseudo-LRU replacement.

use super::ReplacementPolicy;

/// Tree-PLRU: a complete binary tree of direction bits per set. On an
/// access, the bits along the path to the accessed way are pointed *away*
/// from it; the victim is found by following the bits from the root.
/// Standard in L1/L2 caches (and one of the fingerprinting candidates for
/// the LLC).
///
/// Non-power-of-two associativities (like the 12-way Sandy Bridge LLC) are
/// handled by building the tree over the next power of two and steering
/// victim walks away from the non-existent leaves, as real implementations
/// do.
#[derive(Debug, Clone)]
pub struct TreePlru {
    ways: usize,
    /// Tree depth: log2 of `ways` rounded up to a power of two.
    levels: u32,
    /// One word of tree bits per set, heap order (bit 0 is the root).
    bits: Vec<u64>,
    /// Per way, the tree bits on its root-to-leaf path and the values a
    /// touch writes there (each pointing away from the way), so a touch
    /// is one masked store instead of a walk.
    paths: Vec<(u64, u64)>,
    /// For trees of at most [`TABLE_LEAVES`] leaves, the victim of every
    /// value of a set's tree word, so a victim is one load instead of a
    /// walk. Unused by larger trees, which walk.
    victims: [u8; 1 << (TABLE_LEAVES - 1)],
}

/// The largest tree (in leaves, a power of two) that keeps a victim
/// table: 8 leaves have 7 tree bits, so the table has 128 entries.
const TABLE_LEAVES: usize = 8;

impl TreePlru {
    /// Creates the policy for `sets` x `ways`.
    ///
    /// # Panics
    ///
    /// Panics if `ways > 64`.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(ways <= 64, "Tree-PLRU supports at most 64 ways");
        let levels = ways.next_power_of_two().trailing_zeros();
        let paths = (0..ways)
            .map(|way| {
                let (mut mask, mut value, mut node) = (0u64, 0u64, 0usize);
                for level in (0..levels).rev() {
                    let bit = (way >> level) & 1;
                    mask |= 1 << node;
                    if bit == 0 {
                        value |= 1 << node;
                    }
                    node = 2 * node + 1 + bit;
                }
                (mask, value)
            })
            .collect();
        let mut p = TreePlru {
            ways,
            levels,
            bits: vec![0; sets],
            paths,
            victims: [0; 1 << (TABLE_LEAVES - 1)],
        };
        if p.tabled() {
            // A tree of `cap` leaves has `cap - 1` bits.
            for bits in 0..1 << ((1 << levels) - 1) {
                p.victims[bits] = p.walk(bits as u64) as u8;
            }
        }
        p
    }

    /// Whether the tree is small enough for the victim table.
    fn tabled(&self) -> bool {
        1 << self.levels <= TABLE_LEAVES
    }

    /// The way the tree word `bits` points at: follow each node's bit
    /// from the root, steering away from leaves that do not exist (ways <
    /// cap). Branch-free: the bits are as good as random, so a branch here
    /// mispredicts half the time.
    fn walk(&self, bits: u64) -> usize {
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut size = 1usize << self.levels;
        for _ in 0..self.levels {
            size /= 2;
            let dir = ((bits >> node) & 1) as usize & usize::from(lo + size < self.ways);
            lo += dir * size;
            node = 2 * node + 1 + dir;
        }
        debug_assert!(lo < self.ways);
        lo
    }

    fn touch(&mut self, set: usize, way: usize) {
        let (mask, value) = self.paths[way];
        let b = &mut self.bits[set];
        *b = (*b & !mask) | value;
    }
}

impl ReplacementPolicy for TreePlru {
    fn on_hit(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    fn victim(&mut self, set: usize) -> usize {
        let bits = self.bits[set];
        if self.tabled() {
            // A tabled tree's word has at most 7 bits.
            usize::from(self.victims[bits as usize])
        } else {
            self.walk(bits)
        }
    }

    fn name(&self) -> &'static str {
        "tree-plru"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_tree_points_at_way_zero() {
        let mut p = TreePlru::new(1, 8);
        assert_eq!(p.victim(0), 0);
    }

    #[test]
    fn touch_redirects_away() {
        let mut p = TreePlru::new(1, 4);
        p.on_hit(0, 0);
        // Root now points right, right subtree unmodified -> way 2.
        assert_eq!(p.victim(0), 2);
        p.on_hit(0, 2);
        assert_eq!(p.victim(0), 1);
    }

    #[test]
    fn never_evicts_just_touched() {
        let mut p = TreePlru::new(1, 16);
        for i in 0..500usize {
            let w = (i * 5) % 16;
            p.on_hit(0, w);
            assert_ne!(p.victim(0), w);
        }
    }

    #[test]
    fn twelve_ways_stays_in_range() {
        let mut p = TreePlru::new(1, 12);
        for w in 0..12 {
            p.on_fill(0, w);
        }
        for i in 0..2_000usize {
            let w = (i * 7) % 12;
            p.on_hit(0, w);
            let v = p.victim(0);
            assert!(v < 12, "victim {v} out of range");
            assert_ne!(v, w, "evicted the just-touched way");
            p.on_fill(0, v);
        }
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn too_many_ways_panics() {
        TreePlru::new(1, 65);
    }

    #[test]
    fn single_way_degenerate() {
        let mut p = TreePlru::new(2, 1);
        p.on_fill(1, 0);
        assert_eq!(p.victim(1), 0);
    }
}
