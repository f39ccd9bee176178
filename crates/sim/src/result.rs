//! Simulation outputs.

use rap_circuit::{EnergyMeter, Machine, Metrics};
use serde::{Deserialize, Serialize};

/// One reported match: pattern index and the offset just past its last
/// symbol (AP-style report-on-final-STE semantics).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MatchEvent {
    /// Index of the pattern in the workload.
    pub pattern: usize,
    /// Offset just past the matched substring's final byte.
    pub end: usize,
}

/// The result of simulating one workload on one machine.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The machine simulated.
    pub machine: Machine,
    /// Aggregate metrics (throughput, power, area, …).
    pub metrics: Metrics,
    /// Energy breakdown by category.
    pub energy: EnergyMeter,
    /// All matches, sorted by (end, pattern) and deduplicated.
    pub matches: Vec<MatchEvent>,
    /// Cycles lost to bit-vector-processing stalls across arrays.
    pub stall_cycles: u64,
    /// Array-cycles on which a quiet tile array (no active or live state,
    /// no pending stall) took a byte outside its wake set: the host work
    /// the quiescent fast path skips. A work counter, not a modeled number;
    /// it is the same on the batch and streaming paths, traced or not.
    pub quiescent_cycles: u64,
}
