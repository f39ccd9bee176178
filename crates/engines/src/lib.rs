//! Software multi-pattern matchers: the CPU and GPU baselines of §5.5.
//!
//! The paper compares RAP against Hyperscan on a desktop CPU and HybridSA
//! on a discrete GPU. Neither binary nor device is available here, so this
//! crate implements the *algorithms* those systems are built on and
//! measures their real throughput on this machine:
//!
//! * [`HybridEngine`] — the Hyperscan stand-in and Fig. 13's CPU
//!   baseline: each pattern whose own subset DFA is small is folded into
//!   one of several DFA partitions under a state cap ([`dfa`]), all over
//!   one mintermized byte alphabet; the rest run on [`PrefilteredNfa`], an
//!   Aho–Corasick-prefiltered NBVA interpreter.
//! * [`BatchEngine`] — a HybridSA-style data-parallel scanner and Fig. 13's
//!   GPU stand-in: it splits the input into overlapping chunks processed
//!   concurrently (standing in for the GPU's thread blocks), each running
//!   a [`ShiftAndEngine`], with non-linearizable patterns on the
//!   prefiltered interpreter.
//! * [`ShiftAndEngine`] — a multi-pattern bit-parallel Shift-And scanner
//!   (the core of Hyperscan's literal/fdr paths and of HybridSA): all
//!   linearizable patterns are packed into one wide bit vector with shared
//!   shift/AND steps; non-linearizable patterns fall back to NFA
//!   simulation.
//! * [`NfaEngine`] — plain multi-pattern NFA interpretation, the ground
//!   truth.
//!
//! Device power envelopes for the Fig. 13 comparison are published
//! constants in [`power`].

pub mod batch;
pub mod dfa;
pub mod interp;
pub mod power;
pub mod prefilter;
pub mod shift_and;

pub use batch::BatchEngine;
pub use dfa::{Dfa, HybridEngine};
pub use interp::{NfaEngine, PrefilteredNfa};
pub use shift_and::ShiftAndEngine;

use serde::{Deserialize, Serialize};

/// One match hit: pattern index and the offset just past the final byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Hit {
    /// Pattern index in the engine's pattern list.
    pub pattern: usize,
    /// Offset just past the matched substring.
    pub end: usize,
}

/// A multi-pattern scanner over byte streams.
pub trait Engine {
    /// Engine name for reports.
    fn name(&self) -> &'static str;

    /// Scans `input`, returning all hits sorted by `(end, pattern)` with
    /// duplicates removed.
    fn scan(&self, input: &[u8]) -> Vec<Hit>;
}

/// Normalizes a hit list: sort by (end, pattern) and deduplicate.
pub(crate) fn normalize(mut hits: Vec<Hit>) -> Vec<Hit> {
    hits.sort_unstable_by_key(|h| (h.end, h.pattern));
    hits.dedup();
    hits
}

/// Measures an engine's throughput in gigacharacters per second by timing
/// repeated scans (at least `min_repeats`, at least ~50 ms of work).
pub fn measure_throughput_gchps<E: Engine>(engine: &E, input: &[u8], min_repeats: u32) -> f64 {
    let start = std::time::Instant::now();
    let mut bytes = 0u64;
    let mut repeats = 0u32;
    while repeats < min_repeats || start.elapsed().as_millis() < 50 {
        std::hint::black_box(engine.scan(std::hint::black_box(input)));
        bytes += input.len() as u64;
        repeats += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    if secs == 0.0 {
        return 0.0;
    }
    bytes as f64 / secs / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy;
    impl Engine for Dummy {
        fn name(&self) -> &'static str {
            "dummy"
        }
        fn scan(&self, input: &[u8]) -> Vec<Hit> {
            input
                .iter()
                .enumerate()
                .filter(|(_, &b)| b == b'!')
                .map(|(i, _)| Hit {
                    pattern: 0,
                    end: i + 1,
                })
                .collect()
        }
    }

    #[test]
    fn normalize_sorts_and_dedups() {
        let hits = vec![
            Hit { pattern: 1, end: 5 },
            Hit { pattern: 0, end: 5 },
            Hit { pattern: 1, end: 5 },
            Hit { pattern: 0, end: 2 },
        ];
        let n = normalize(hits);
        assert_eq!(
            n,
            vec![
                Hit { pattern: 0, end: 2 },
                Hit { pattern: 0, end: 5 },
                Hit { pattern: 1, end: 5 },
            ]
        );
    }

    #[test]
    fn throughput_measurement_positive() {
        let t = measure_throughput_gchps(&Dummy, b"hello!world!", 3);
        assert!(t > 0.0);
    }
}
