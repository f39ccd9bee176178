//! Architectural parameters of the RAP hierarchy (§3.3).

use serde::{Deserialize, Serialize};

/// Most CAM columns a tile can have: the simulator holds a tile's states
/// in one 128-bit word.
pub const MAX_TILE_COLUMNS: u32 = 128;

/// Most tiles an array can have: the simulator holds an array's tiles in
/// one 64-bit mask.
pub const MAX_TILES_PER_ARRAY: u32 = 64;

/// An out-of-range BV depth passed to [`ArchConfig::try_bv_columns`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BvDepthError {
    /// The rejected depth.
    pub depth: u32,
    /// The CAM depth bounding it.
    pub cam_rows: u32,
}

impl std::fmt::Display for BvDepthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BV depth {} outside 1..={}", self.depth, self.cam_rows)
    }
}

impl std::error::Error for BvDepthError {}

/// All sizing parameters of a RAP bank. [`ArchConfig::default`] returns the
/// paper's configuration; the design-space-exploration benches vary the
/// user-controlled knobs (BV depth and bin size live in the compiler/mapper,
/// not here, because they are per-workload).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ArchConfig {
    /// CAM rows per tile (32).
    pub cam_rows: u32,
    /// CAM / local-switch columns per tile — the STE capacity (128, at
    /// most [`MAX_TILE_COLUMNS`]).
    pub tile_columns: u32,
    /// Tiles per array (16, at most [`MAX_TILES_PER_ARRAY`]).
    pub tiles_per_array: u32,
    /// Arrays per bank (4).
    pub arrays_per_bank: u32,
    /// Global-switch ports per tile. The paper quotes a 256×256 global FCB
    /// for 16 tiles; we allocate 256/16 = 16 ports per tile (see DESIGN.md
    /// §2 for the discrepancy with the "32 STEs" figure in the text).
    pub global_ports_per_tile: u32,
    /// Maximum number of LNFAs per bin (32), which fixes the ring width.
    pub max_bin_size: u32,
    /// Width of the inter-tile ring used by LNFA global routing (64 bits).
    pub ring_width_bits: u32,
    /// Bank input ping-pong buffer entries (128).
    pub bank_input_entries: u32,
    /// Array input FIFO entries (8).
    pub array_input_entries: u32,
    /// Bank output ping-pong buffer entries (64).
    pub bank_output_entries: u32,
    /// Array output FIFO entries (2).
    pub array_output_entries: u32,
    /// Average wire length tile→global switch, in millimeters.
    pub tile_wire_mm: f64,
    /// Average ring-hop wire length, in millimeters.
    pub ring_hop_mm: f64,
}

impl Default for ArchConfig {
    fn default() -> Self {
        ArchConfig {
            cam_rows: 32,
            tile_columns: 128,
            tiles_per_array: 16,
            arrays_per_bank: 4,
            global_ports_per_tile: 16,
            max_bin_size: 32,
            ring_width_bits: 64,
            bank_input_entries: 128,
            array_input_entries: 8,
            bank_output_entries: 64,
            array_output_entries: 2,
            tile_wire_mm: 0.5,
            ring_hop_mm: 0.1,
        }
    }
}

impl ArchConfig {
    /// STE capacity of an array (2048 in the paper: 16 tiles × 128).
    pub fn states_per_array(&self) -> u32 {
        self.tiles_per_array * self.tile_columns
    }

    /// Maximum size of a single bit vector in bits: all columns but one
    /// (one column must keep the repetition's character class) times the
    /// CAM depth — 4064 bits in the paper.
    pub fn max_bv_bits(&self) -> u32 {
        (self.tile_columns - 1) * self.cam_rows
    }

    /// Columns a bit vector of `bits` occupies at BV depth `depth`
    /// (row-first mapping, §3.1), or a [`BvDepthError`] when the depth is
    /// zero or exceeds the CAM depth.
    ///
    /// # Errors
    ///
    /// Returns [`BvDepthError`] when `depth` is outside `1..=cam_rows`.
    pub fn try_bv_columns(&self, bits: u32, depth: u32) -> Result<u32, BvDepthError> {
        if depth < 1 || depth > self.cam_rows {
            return Err(BvDepthError {
                depth,
                cam_rows: self.cam_rows,
            });
        }
        Ok(bits.div_ceil(depth))
    }

    /// Columns a bit vector of `bits` occupies at BV depth `depth`
    /// (row-first mapping, §3.1).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero or exceeds the CAM depth. Production
    /// callers should prefer [`ArchConfig::try_bv_columns`] and surface the
    /// error; this variant remains for tests and quick experiments.
    pub fn bv_columns(&self, bits: u32, depth: u32) -> u32 {
        self.try_bv_columns(bits, depth)
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = ArchConfig::default();
        assert_eq!(c.cam_rows, 32);
        assert_eq!(c.tile_columns, 128);
        assert_eq!(c.tiles_per_array, 16);
        assert_eq!(c.arrays_per_bank, 4);
        assert_eq!(c.states_per_array(), 2048);
        assert_eq!(c.max_bv_bits(), 4064);
        assert_eq!(c.max_bin_size, 32);
        assert_eq!(c.ring_width_bits, 64);
    }

    #[test]
    fn bv_columns_row_first() {
        let c = ArchConfig::default();
        // Example 4.2: d{34} at depth 16 → width 3? No: 34/16 = 2.125 → 3?
        // The paper uses width 2 by rewriting d{34} into d{32}dd first; the
        // raw column count for 34 bits at depth 16 is 3.
        assert_eq!(c.bv_columns(34, 16), 3);
        assert_eq!(c.bv_columns(32, 16), 2);
        // Example 4.3: a{1024} at depth 4 → 256 columns.
        assert_eq!(c.bv_columns(1024, 4), 256);
        // Example from §4.1: f{128} at depth 16 → width 8.
        assert_eq!(c.bv_columns(128, 16), 8);
        // Fig. 5: a{7} at depth 4 → 2 columns.
        assert_eq!(c.bv_columns(7, 4), 2);
    }

    #[test]
    #[should_panic(expected = "BV depth")]
    fn bv_depth_validated() {
        let _ = ArchConfig::default().bv_columns(16, 64);
    }

    #[test]
    fn try_bv_columns_reports_bad_depths() {
        let c = ArchConfig::default();
        assert_eq!(c.try_bv_columns(34, 16), Ok(3));
        let err = c.try_bv_columns(16, 64).expect_err("64 > cam_rows");
        assert_eq!(
            err,
            BvDepthError {
                depth: 64,
                cam_rows: c.cam_rows
            }
        );
        assert_eq!(err.to_string(), "BV depth 64 outside 1..=32");
        assert!(c.try_bv_columns(16, 0).is_err());
    }
}
