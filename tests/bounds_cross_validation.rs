//! Cross-validates the rap-bound static analyzer against the simulator:
//! on every benchmark suite, the probe-observed peaks (active states per
//! array, bank-buffer occupancy, page skew) must never exceed the
//! certified static bounds. The bounds are computed without ever running
//! the automata, so any violation here is a soundness bug in rap-bound.

use rap::arch::config::ArchConfig;
use rap::bound::{analyze_bounds, array_bounds, BankBound, BoundAnalysis, BoundOptions};
use rap::telemetry::{Telemetry, TelemetryConfig};
use rap::workloads::{generate_input, generate_patterns, Suite};
use rap::{Machine, Simulator};
use std::sync::Arc;

const PATTERNS: usize = 24;
const INPUT_LEN: usize = 4_000;
const SEED: u64 = 7;

/// The suite's simulator for `machine` with its chosen knobs.
fn simulator(suite: Suite, machine: Machine) -> Simulator {
    Simulator::new(machine)
        .with_bv_depth(suite.chosen_bv_depth())
        .with_bin_size(suite.chosen_bin_size())
}

/// The suite's sources, parsed patterns, compiled images and verified
/// mapping on `sim`.
fn suite_plan(
    suite: Suite,
    sim: &Simulator,
) -> (
    Vec<String>,
    Vec<rap::regex::Pattern>,
    Vec<rap::compiler::Compiled>,
    rap::mapper::Mapping,
) {
    let sources = generate_patterns(suite, PATTERNS, SEED);
    let patterns: Vec<_> = sources
        .iter()
        .map(|s| rap::regex::parse_pattern(s).expect("suite patterns parse"))
        .collect();
    let images = sim.compile_parsed(&patterns).expect("suite compiles");
    let mapping = sim.map_verified(&images).expect("suite maps legally");
    (sources, patterns, images, mapping)
}

/// Builds the suite's plan, computes its static bounds, and runs one
/// densely-sampled traced streaming simulation, returning the bounds and
/// the observing telemetry context.
fn bound_and_run(suite: Suite, machine: Machine) -> (BoundAnalysis, Arc<Telemetry>) {
    let telemetry = Arc::new(Telemetry::new(TelemetryConfig {
        sample_every: 1,
        ring_capacity: 1 << 20,
    }));
    let sim = simulator(suite, machine).with_telemetry(Arc::clone(&telemetry));
    let (sources, patterns, images, mapping) = suite_plan(suite, &sim);
    let bounds = analyze_bounds(&images, &patterns, &mapping, &BoundOptions::bounds_only());

    let input = generate_input(&sources, INPUT_LEN, 0.05, SEED);
    let (_result, _stats) = sim.simulate_streaming(&images, &mapping, &input);
    (bounds, telemetry)
}

#[test]
fn observed_peaks_never_exceed_static_bounds() {
    for suite in Suite::all() {
        for machine in [Machine::Rap, Machine::Ca] {
            let (bounds, telemetry) = bound_and_run(suite, machine);
            let traces = telemetry.drain_traces();
            assert!(!traces.is_empty(), "{suite:?}/{machine:?}: no trace");
            for trace in &traces {
                for (array, observed) in trace.peak_active_states() {
                    let bound = bounds
                        .arrays
                        .iter()
                        .find(|a| a.array == array as usize)
                        .unwrap_or_else(|| {
                            panic!("{suite:?}/{machine:?}: no bound for array {array}")
                        });
                    assert!(
                        observed <= bound.peak_active_states,
                        "{suite:?}/{machine:?} array {array}: observed {observed} active \
                         states > static bound {}",
                        bound.peak_active_states
                    );
                }
                assert!(
                    trace.peak_input_fifo_bytes() <= bounds.bank.input_fifo_bytes,
                    "{suite:?}/{machine:?}: input FIFO {} > bound {}",
                    trace.peak_input_fifo_bytes(),
                    bounds.bank.input_fifo_bytes
                );
                assert!(
                    trace.peak_output_fifo_records() <= bounds.bank.output_fifo_records,
                    "{suite:?}/{machine:?}: output records {} > bound {}",
                    trace.peak_output_fifo_records(),
                    bounds.bank.output_fifo_records
                );
                assert!(
                    trace.peak_skew() <= bounds.bank.max_skew,
                    "{suite:?}/{machine:?}: skew {} > bound {}",
                    trace.peak_skew(),
                    bounds.bank.max_skew
                );
            }
        }
    }
}

#[test]
fn bounds_stay_clean_on_every_suite() {
    // No suite should trip an Error-severity bound finding (dead counter
    // reads or failed equivalence) — the compiler's output is supposed to
    // be well-formed for every generated workload.
    for suite in Suite::all() {
        let (bounds, _telemetry) = bound_and_run(suite, Machine::Rap);
        assert!(
            bounds.report.is_legal(),
            "{suite:?}: error-severity bound findings:\n{}",
            bounds.report
        );
        assert!(!bounds.arrays.is_empty(), "{suite:?}: no arrays bounded");
    }
}

#[test]
fn array_bounds_equal_the_full_analysis() {
    // Admission sums the per-array bounds a plan derives once through
    // `array_bounds`; they must be exactly the full pass's arrays.
    for suite in Suite::all() {
        for machine in [Machine::Rap, Machine::Ca] {
            let (_, patterns, images, mapping) = suite_plan(suite, &simulator(suite, machine));
            let full = analyze_bounds(&images, &patterns, &mapping, &BoundOptions::bounds_only());
            assert_eq!(
                array_bounds(&images, &mapping),
                full.arrays,
                "{suite:?}/{machine:?}"
            );
        }
    }
}

#[test]
fn shrunken_bank_geometry_keeps_peaks_within_its_bound() {
    // A match on every byte through a bank smaller than the default in
    // every buffer: the run sizes its FIFOs and window from the geometry
    // the plan was mapped for, so its peaks stay inside the bound that
    // geometry certifies.
    let arch = ArchConfig {
        bank_input_entries: 16,
        array_input_entries: 2,
        bank_output_entries: 4,
        array_output_entries: 1,
        ..ArchConfig::default()
    };
    let mut sim = Simulator::new(Machine::Rap);
    sim.compiler.arch = arch;
    sim.mapper.arch = arch;
    let patterns = [rap::regex::parse_pattern("[ab]").expect("parses")];
    let images = sim.compile_parsed(&patterns).expect("compiles");
    let mapping = sim.map_verified(&images).expect("maps legally");
    let input = b"ab".repeat(500);
    let (result, stats) = sim.simulate_streaming(&images, &mapping, &input);
    assert_eq!(result.matches.len(), input.len());

    let bound = BankBound::new(mapping.arrays.len() as u64, &arch);
    assert!(
        stats.max_output_fifo_records <= bound.output_fifo_records,
        "output records {} > bound {}",
        stats.max_output_fifo_records,
        bound.output_fifo_records
    );
    assert!(
        stats.max_input_fifo_bytes <= bound.input_fifo_bytes,
        "input FIFO {} > bound {}",
        stats.max_input_fifo_bytes,
        bound.input_fifo_bytes
    );
    assert!(
        stats.max_skew as u64 <= bound.max_skew,
        "skew {} > bound {}",
        stats.max_skew,
        bound.max_skew
    );
    assert!(stats.output_interrupts > 0, "{stats:?}");
}
