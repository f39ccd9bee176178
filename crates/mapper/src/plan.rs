//! Mapping output types: what the simulator consumes.

use crate::binning::Bin;
use rap_arch::config::ArchConfig;
use rap_compiler::Mode;
use serde::{Deserialize, Serialize};

/// Fixed bit-vector-module geometry (BVAP-style add-on, §2.2). When set,
/// bit vectors live in dedicated per-tile BVM slots instead of CAM columns:
/// a BV state consumes `⌈width / slot_bits⌉` slots and only
/// `slots_per_tile` slots exist per tile — the rigidity RAP's unified
/// storage removes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BvmConfig {
    /// Bits per BVM slot.
    pub slot_bits: u32,
    /// Slots per tile.
    pub slots_per_tile: u32,
}

impl Default for BvmConfig {
    fn default() -> Self {
        BvmConfig {
            slot_bits: 256,
            slots_per_tile: 8,
        }
    }
}

/// Mapper parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MapperConfig {
    /// Target architecture geometry.
    pub arch: ArchConfig,
    /// Maximum LNFAs per bin (the bin-size knob of Fig. 10(b); capped by
    /// `arch.max_bin_size`).
    pub bin_size: u32,
    /// `Some` models a BVAP-style machine with fixed bit-vector modules;
    /// `None` is RAP's unified CAM storage.
    pub bvm: Option<BvmConfig>,
}

impl Default for MapperConfig {
    fn default() -> Self {
        MapperConfig {
            arch: ArchConfig::default(),
            bin_size: 8,
            bvm: None,
        }
    }
}

/// Placement of one NFA/NBVA image inside an array.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// Index of the pattern in the workload.
    pub pattern: usize,
    /// Tile index (within the array) of every automaton state.
    pub state_tile: Vec<u32>,
    /// Number of automaton edges that cross tiles (routed through the
    /// global switch rather than a local one).
    pub cross_tile_edges: u32,
}

/// The mode-specific contents of an array.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ArrayKind {
    /// Basic NFA tiles.
    Nfa {
        /// Placed regexes.
        placements: Vec<Placement>,
    },
    /// NBVA tiles (uniform BV depth per tile; we use one depth per array).
    Nbva {
        /// The BV depth.
        depth: u32,
        /// Placed regexes.
        placements: Vec<Placement>,
    },
    /// LNFA tiles holding bins of chains.
    Lnfa {
        /// The bins, in tile order.
        bins: Vec<Bin>,
    },
}

/// One allocated RAP array.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ArrayPlan {
    /// Mode-specific contents.
    pub kind: ArrayKind,
    /// Tiles allocated in this array (≤ `arch.tiles_per_array`).
    pub tiles_used: u32,
    /// CAM/local-switch columns occupied across those tiles.
    pub columns_used: u64,
}

impl ArrayPlan {
    /// The array's mode.
    pub fn mode(&self) -> Mode {
        match self.kind {
            ArrayKind::Nfa { .. } => Mode::Nfa,
            ArrayKind::Nbva { .. } => Mode::Nbva,
            ArrayKind::Lnfa { .. } => Mode::Lnfa,
        }
    }

    /// Indices of the patterns placed in this array.
    pub fn pattern_indices(&self) -> Vec<usize> {
        match &self.kind {
            ArrayKind::Nfa { placements } | ArrayKind::Nbva { placements, .. } => {
                placements.iter().map(|p| p.pattern).collect()
            }
            ArrayKind::Lnfa { bins } => {
                let mut out: Vec<usize> = Vec::new();
                for bin in bins {
                    for m in &bin.members {
                        if !out.contains(&m.pattern) {
                            out.push(m.pattern);
                        }
                    }
                }
                out
            }
        }
    }

    /// A copy of this plan with every pattern index rewritten through
    /// `remap` (moving an array between pattern namespaces, e.g. into or
    /// out of a multi-tenant composition).
    pub fn remap_patterns(&self, remap: impl Fn(usize) -> usize) -> ArrayPlan {
        let mut out = self.clone();
        match &mut out.kind {
            ArrayKind::Nfa { placements } | ArrayKind::Nbva { placements, .. } => {
                for p in placements {
                    p.pattern = remap(p.pattern);
                }
            }
            ArrayKind::Lnfa { bins } => {
                for bin in bins {
                    for m in &mut bin.members {
                        m.pattern = remap(m.pattern);
                    }
                }
            }
        }
        out
    }
}

/// A complete mapping of a workload onto arrays.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Mapping {
    /// The allocated arrays.
    pub arrays: Vec<ArrayPlan>,
    /// The configuration the mapping was produced with.
    pub config: MapperConfig,
}

impl Mapping {
    /// Total tiles allocated across arrays.
    pub fn tiles_used(&self) -> u32 {
        self.arrays.iter().map(|a| a.tiles_used).sum()
    }

    /// Column utilization: occupied columns over allocated capacity.
    pub fn utilization(&self) -> f64 {
        let used: u64 = self.arrays.iter().map(|a| a.columns_used).sum();
        let capacity: u64 = self
            .arrays
            .iter()
            .map(|a| u64::from(a.tiles_used) * u64::from(self.config.arch.tile_columns))
            .sum();
        if capacity == 0 {
            return 0.0;
        }
        used as f64 / capacity as f64
    }

    /// Number of arrays in each mode `(nfa, nbva, lnfa)`.
    pub fn arrays_by_mode(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for a in &self.arrays {
            match a.mode() {
                Mode::Nfa => counts.0 += 1,
                Mode::Nbva => counts.1 += 1,
                Mode::Lnfa => counts.2 += 1,
            }
        }
        counts
    }
}
