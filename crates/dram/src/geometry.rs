//! Physical organization of a DRAM module: channels, ranks, banks, rows.

use serde::{Deserialize, Serialize};

/// Geometry of a DRAM module.
///
/// The default reproduces the paper's test module: a 4 GB DDR3 SO-DIMM with
/// one channel, two ranks, eight banks per rank, 32768 rows per bank and
/// 8 KB rows.
///
/// # Examples
///
/// ```
/// use anvil_dram::DramGeometry;
///
/// let geom = DramGeometry::ddr3_4gb();
/// assert_eq!(geom.total_bytes(), 4 << 30);
/// assert_eq!(geom.total_banks(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DramGeometry {
    /// Number of independent memory channels.
    pub channels: u32,
    /// Ranks per channel.
    pub ranks_per_channel: u32,
    /// Banks per rank.
    pub banks_per_rank: u32,
    /// Rows per bank.
    pub rows_per_bank: u32,
    /// Bytes per row (the row-buffer size).
    pub row_bytes: u32,
}

impl DramGeometry {
    /// The paper's module: 4 GB DDR3, 1 channel x 2 ranks x 8 banks x
    /// 32768 rows x 8 KB rows.
    pub fn ddr3_4gb() -> Self {
        DramGeometry {
            channels: 1,
            ranks_per_channel: 2,
            banks_per_rank: 8,
            rows_per_bank: 32_768,
            row_bytes: 8_192,
        }
    }

    /// A small module useful for fast tests: 16 MB, 1 channel x 1 rank x
    /// 4 banks x 512 rows x 8 KB rows.
    pub fn tiny_16mb() -> Self {
        DramGeometry {
            channels: 1,
            ranks_per_channel: 1,
            banks_per_rank: 4,
            rows_per_bank: 512,
            row_bytes: 8_192,
        }
    }

    /// Total capacity in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_banks() as u64 * self.rows_per_bank as u64 * self.row_bytes as u64
    }

    /// Total number of banks across all channels and ranks.
    pub fn total_banks(&self) -> u32 {
        self.channels * self.ranks_per_channel * self.banks_per_rank
    }

    /// Total number of rows across the module.
    pub fn total_rows(&self) -> u64 {
        self.total_banks() as u64 * self.rows_per_bank as u64
    }

    /// Checks internal consistency (all dimensions non-zero, power-of-two
    /// sizes where the address mapping requires them).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let fields = [
            ("channels", self.channels),
            ("ranks_per_channel", self.ranks_per_channel),
            ("banks_per_rank", self.banks_per_rank),
            ("rows_per_bank", self.rows_per_bank),
            ("row_bytes", self.row_bytes),
        ];
        for (name, v) in fields {
            if v == 0 {
                return Err(format!("{name} must be non-zero"));
            }
            if !v.is_power_of_two() {
                return Err(format!("{name} must be a power of two, got {v}"));
            }
        }
        Ok(())
    }
}

impl Default for DramGeometry {
    fn default() -> Self {
        Self::ddr3_4gb()
    }
}

/// Identifies one bank globally across channels and ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BankId(pub u32);

impl std::fmt::Display for BankId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bank{}", self.0)
    }
}

/// A DRAM row within a specific bank: the granularity at which hammering,
/// refresh, and victim protection operate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RowId {
    /// The bank containing the row.
    pub bank: BankId,
    /// Row index within the bank.
    pub row: u32,
}

impl RowId {
    /// Creates a row identifier.
    pub fn new(bank: BankId, row: u32) -> Self {
        RowId { bank, row }
    }

    /// The physically adjacent row above (next higher index), if it exists.
    pub fn above(&self, geometry: &DramGeometry) -> Option<RowId> {
        if self.row + 1 < geometry.rows_per_bank {
            Some(RowId::new(self.bank, self.row + 1))
        } else {
            None
        }
    }

    /// The physically adjacent row below (next lower index), if it exists.
    pub fn below(&self) -> Option<RowId> {
        self.row.checked_sub(1).map(|r| RowId::new(self.bank, r))
    }

    /// Iterates over the rows within `n` of this one (excluding itself),
    /// clipped to the bank boundaries, in row order. These are the
    /// potential victims when this row is an aggressor.
    pub fn neighbors(&self, n: u32, geometry: &DramGeometry) -> impl Iterator<Item = RowId> {
        let RowId { bank, row } = *self;
        let lo = row.saturating_sub(n);
        let hi = row.saturating_add(n).min(geometry.rows_per_bank - 1);
        (lo..=hi)
            .filter(move |&r| r != row)
            .map(move |r| RowId::new(bank, r))
    }
}

impl std::fmt::Display for RowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:row{}", self.bank, self.row)
    }
}

/// Full location of an access within the module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DramLocation {
    /// Bank (global across channels and ranks).
    pub bank: BankId,
    /// Row within the bank.
    pub row: u32,
    /// Byte offset within the row.
    pub col: u32,
}

impl DramLocation {
    /// The row identifier for this location.
    pub fn row_id(&self) -> RowId {
        RowId::new(self.bank, self.row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr3_4gb_capacity() {
        let g = DramGeometry::ddr3_4gb();
        assert_eq!(g.total_bytes(), 4 * 1024 * 1024 * 1024);
        assert_eq!(g.total_banks(), 16);
        assert_eq!(g.total_rows(), 16 * 32_768);
        g.validate().unwrap();
    }

    #[test]
    fn tiny_validates() {
        DramGeometry::tiny_16mb().validate().unwrap();
        assert_eq!(DramGeometry::tiny_16mb().total_bytes(), 16 << 20);
    }

    #[test]
    fn validation_rejects_non_power_of_two() {
        let mut g = DramGeometry::ddr3_4gb();
        g.rows_per_bank = 1000;
        assert!(g.validate().unwrap_err().contains("rows_per_bank"));
        g.rows_per_bank = 0;
        assert!(g.validate().unwrap_err().contains("non-zero"));
    }

    #[test]
    fn row_neighbors_clip_at_edges() {
        let g = DramGeometry::tiny_16mb();
        let first = RowId::new(BankId(0), 0);
        assert_eq!(first.below(), None);
        assert_eq!(first.above(&g), Some(RowId::new(BankId(0), 1)));
        assert_eq!(
            first.neighbors(1, &g).collect::<Vec<_>>(),
            vec![RowId::new(BankId(0), 1)]
        );

        let last = RowId::new(BankId(0), g.rows_per_bank - 1);
        assert_eq!(last.above(&g), None);
        assert_eq!(
            last.below(),
            Some(RowId::new(BankId(0), g.rows_per_bank - 2))
        );

        let mid = RowId::new(BankId(2), 10);
        let n: Vec<RowId> = mid.neighbors(2, &g).collect();
        assert_eq!(
            n,
            vec![
                RowId::new(BankId(2), 8),
                RowId::new(BankId(2), 9),
                RowId::new(BankId(2), 11),
                RowId::new(BankId(2), 12),
            ]
        );
    }

    #[test]
    fn row_neighbors_at_the_widest_radius_span_the_bank() {
        // `row + n` would overflow here: the upper end saturates instead.
        let g = DramGeometry::tiny_16mb();
        let last = g.rows_per_bank - 1;
        for row in [0, 5, last] {
            let r = RowId::new(BankId(1), row);
            let n: Vec<RowId> = r.neighbors(u32::MAX, &g).collect();
            let all: Vec<RowId> = (0..g.rows_per_bank)
                .filter(|&x| x != row)
                .map(|x| RowId::new(BankId(1), x))
                .collect();
            assert_eq!(n, all);
        }
    }

    #[test]
    fn display_formats() {
        let r = RowId::new(BankId(3), 42);
        assert_eq!(r.to_string(), "bank3:row42");
    }
}
