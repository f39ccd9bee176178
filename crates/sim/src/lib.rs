//! Cycle-accurate simulation of RAP and the baseline automata processors.
//!
//! The methodology follows §5.2 of the paper: a dataflow-driven cycle
//! simulator executes the mapped automata against real input streams,
//! charging every micro-operation (CAM search, switch traversal, bit-vector
//! pipeline step, controller tick, wire toggle, leakage) to the circuit
//! models of Table 1. The same simulator runs all four machines:
//!
//! * **RAP** — NFA, NBVA and LNFA tiles with reconfiguration (this paper),
//! * **CAMA** — CAM-based state matching, NFA only (HPCA'22),
//! * **BVAP** — CAMA plus fixed per-tile bit-vector modules (ASPLOS'24),
//! * **CA** — SRAM-based Cache Automaton, NFA only (MICRO'17).
//!
//! # Example
//!
//! ```
//! use rap_circuit::Machine;
//! use rap_sim::Simulator;
//!
//! let sim = Simulator::new(Machine::Rap);
//! let patterns = vec!["ab{20}c".to_string(), "hello".to_string()];
//! let result = sim.run_patterns(&patterns, b"xxhelloxx")?;
//! assert_eq!(result.matches.len(), 1);
//! assert!(result.metrics.throughput_gchps() > 0.0);
//! # Ok::<(), rap_sim::SimError>(())
//! ```

mod array;
pub mod bank;
mod cost;
mod par;
mod result;

pub use bank::{simulate_streaming, simulate_streaming_traced, BankStats, StreamRun};
pub use cost::CostModel;
pub use par::par_map;
pub use result::{MatchEvent, RunResult};

use rap_arch::config::ArchConfig;
use rap_circuit::energy::Category;
use rap_circuit::{EnergyMeter, Machine, Metrics};
use rap_compiler::{CompileError, Compiled, Compiler, CompilerConfig, Mode};
use rap_mapper::{map_workload, MapperConfig, Mapping};
use rap_regex::Regex;
use rap_telemetry::{Counter, Gauge, ProbeEvent, Registry, Telemetry};
use std::fmt;
use std::sync::Arc;

/// Error produced by the end-to-end [`Simulator`] entry points.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// A pattern failed to compile.
    Compile {
        /// Index of the offending pattern.
        pattern: usize,
        /// The underlying error.
        error: CompileError,
    },
    /// The mapping plan violates a hardware legality invariant; the
    /// simulator refuses to execute it. The report lists every violation.
    IllegalMapping {
        /// The verifier's findings.
        report: rap_verify::Report,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Compile { pattern, error } => {
                write!(f, "pattern #{pattern}: {error}")
            }
            SimError::IllegalMapping { report } => {
                write!(
                    f,
                    "mapping is illegal ({} findings):\n{report}",
                    report.len()
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// End-to-end driver: compiles a pattern set for one machine, maps it, and
/// simulates it over an input stream.
#[derive(Clone, Debug)]
pub struct Simulator {
    /// The machine being modeled.
    pub machine: Machine,
    /// Compiler knobs (unfold threshold, BV depth, …).
    pub compiler: CompilerConfig,
    /// Mapper knobs (bin size, BVM geometry, …).
    pub mapper: MapperConfig,
    /// Attached observability context, if any. `None` (the default) keeps
    /// simulation on the probe-free fast path; attaching one only
    /// *observes* runs — cycles, energy, and matches are unchanged.
    pub telemetry: Option<Arc<Telemetry>>,
}

impl Simulator {
    /// Creates a simulator for `machine` with paper-default parameters.
    /// BVAP automatically gets its fixed BVM geometry and BV-width cap.
    pub fn new(machine: Machine) -> Simulator {
        let mut compiler = CompilerConfig::default();
        let mut mapper = MapperConfig::default();
        if machine == Machine::Bvap {
            let bvm = rap_mapper::plan::BvmConfig::default();
            mapper.bvm = Some(bvm);
            compiler.bv_bits_cap = Some(bvm.slot_bits * bvm.slots_per_tile);
        }
        Simulator {
            machine,
            compiler,
            mapper,
            telemetry: None,
        }
    }

    /// Attaches an observability context: subsequent simulations emit
    /// cycle-sampled probe events into its journal and accumulate run
    /// totals in its metrics registry.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Simulator {
        self.telemetry = Some(telemetry);
        self
    }

    /// Sets the BV depth (RAP's Fig. 10(a) knob).
    #[must_use]
    pub fn with_bv_depth(mut self, depth: u32) -> Simulator {
        self.compiler.bv_depth = depth;
        self
    }

    /// Sets the LNFA bin size (RAP's Fig. 10(b) knob).
    #[must_use]
    pub fn with_bin_size(mut self, bin: u32) -> Simulator {
        self.mapper.bin_size = bin;
        self
    }

    /// Compiles patterns according to the machine's native capabilities:
    /// RAP uses the full decision graph; BVAP supports NBVA and NFA (its
    /// LNFA-decided patterns run as NFAs); CA and CAMA unfold everything to
    /// basic NFAs.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Compile`] for the first pattern that fails.
    pub fn compile(&self, regexes: &[Regex]) -> Result<Vec<Compiled>, SimError> {
        let patterns: Vec<rap_regex::Pattern> = regexes
            .iter()
            .map(|re| rap_regex::Pattern {
                regex: re.clone(),
                anchored_start: false,
                anchored_end: false,
            })
            .collect();
        self.compile_parsed(&patterns)
    }

    /// Like [`Simulator::compile`] but over parsed patterns, honouring
    /// their `^`/`$` anchors (anchored patterns skip LNFA mode; the flags
    /// travel in the NFA/NBVA image).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Compile`] for the first pattern that fails.
    pub fn compile_parsed(
        &self,
        patterns: &[rap_regex::Pattern],
    ) -> Result<Vec<Compiled>, SimError> {
        let compiler = Compiler::new(self.compiler);
        patterns
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let result = match self.machine {
                    Machine::Rap => compiler.compile_anchored(p),
                    Machine::Ca | Machine::Cama => compiler
                        .compile_with_mode(&p.regex, Mode::Nfa)
                        .map(|c| c.with_anchors(p.anchored_start, p.anchored_end)),
                    Machine::Bvap => {
                        let mode = match compiler.decide(&p.regex) {
                            Mode::Nbva => Mode::Nbva,
                            _ => Mode::Nfa,
                        };
                        compiler
                            .compile_with_mode(&p.regex, mode)
                            .map(|c| c.with_anchors(p.anchored_start, p.anchored_end))
                    }
                };
                result.map_err(|error| SimError::Compile { pattern: i, error })
            })
            .collect()
    }

    /// Compiles every pattern in a forced mode (used for the RAP-NFA
    /// columns of Tables 2 and 3).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Compile`] for the first pattern that fails.
    pub fn compile_forced(&self, regexes: &[Regex], mode: Mode) -> Result<Vec<Compiled>, SimError> {
        let compiler = Compiler::new(self.compiler);
        regexes
            .iter()
            .enumerate()
            .map(|(i, re)| {
                compiler
                    .compile_with_mode(re, mode)
                    .map_err(|error| SimError::Compile { pattern: i, error })
            })
            .collect()
    }

    /// Maps a compiled workload onto arrays.
    pub fn map(&self, compiled: &[Compiled]) -> Mapping {
        map_workload(compiled, &self.mapper)
    }

    /// Statically verifies a mapping against this simulator's target
    /// architecture (see [`rap_verify::verify`]).
    pub fn verify(&self, compiled: &[Compiled], mapping: &Mapping) -> rap_verify::Report {
        rap_verify::verify(compiled, mapping, &self.mapper.arch)
    }

    /// Verifies and maps in one step, refusing illegal plans.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::IllegalMapping`] when the produced plan fails
    /// the static legality checks.
    pub fn map_verified(&self, compiled: &[Compiled]) -> Result<Mapping, SimError> {
        let mapping = self.map(compiled);
        let report = self.verify(compiled, &mapping);
        if report.is_legal() {
            Ok(mapping)
        } else {
            Err(SimError::IllegalMapping { report })
        }
    }

    /// Simulates a mapped workload over `input`. The mapping must have
    /// passed the verify gate (see [`simulate`]). When telemetry is
    /// attached the run is traced under the machine's name as label.
    pub fn simulate(&self, compiled: &[Compiled], mapping: &Mapping, input: &[u8]) -> RunResult {
        match &self.telemetry {
            Some(tel) => {
                let label = self.machine.to_string();
                simulate_traced(compiled, mapping, input, self.machine, tel, &label)
            }
            None => simulate(compiled, mapping, input, self.machine),
        }
    }

    /// Streams `input` through the §3.3 bank buffer hierarchy (ping-pong
    /// input buffer, per-array FIFOs, output buffers with host
    /// interrupts), returning buffer statistics alongside the run result.
    /// The mapping must have passed the verify gate, exactly as for
    /// [`Simulator::simulate`]. When telemetry is attached the run is
    /// traced under the machine's name as label.
    pub fn simulate_streaming(
        &self,
        compiled: &[Compiled],
        mapping: &Mapping,
        input: &[u8],
    ) -> (RunResult, BankStats) {
        match &self.telemetry {
            Some(tel) => {
                let label = self.machine.to_string();
                bank::simulate_streaming_traced(compiled, mapping, input, self.machine, tel, &label)
            }
            None => bank::simulate_streaming(compiled, mapping, input, self.machine),
        }
    }

    /// Convenience: compile (native modes) + map + verify + simulate.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Compile`] when a pattern fails to compile and
    /// [`SimError::IllegalMapping`] when the plan fails verification.
    pub fn run(&self, regexes: &[Regex], input: &[u8]) -> Result<RunResult, SimError> {
        let compiled = self.compile(regexes)?;
        let mapping = self.map_verified(&compiled)?;
        Ok(self.simulate(&compiled, &mapping, input))
    }

    /// Convenience over pattern strings.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Compile`] on parse or compile failures and
    /// [`SimError::IllegalMapping`] when the plan fails verification.
    pub fn run_patterns(&self, patterns: &[String], input: &[u8]) -> Result<RunResult, SimError> {
        let parsed: Vec<rap_regex::Pattern> = patterns
            .iter()
            .enumerate()
            .map(|(i, p)| {
                rap_regex::parse_pattern(p).map_err(|e| SimError::Compile {
                    pattern: i,
                    error: CompileError::Parse(e),
                })
            })
            .collect::<Result<_, _>>()?;
        let compiled = self.compile_parsed(&parsed)?;
        let mapping = self.map_verified(&compiled)?;
        Ok(self.simulate(&compiled, &mapping, input))
    }
}

/// Debug-build consistency check at the door of [`Lowered::new`], which
/// every batch and streaming entry point goes through: they execute only
/// mappings that passed the static verify gate, and debug builds
/// re-verify. The checked `run`/`run_patterns`/`map_verified` entry points
/// enforce the gate in release builds too.
pub(crate) fn debug_assert_verified(compiled: &[Compiled], mapping: &Mapping) {
    #[cfg(debug_assertions)]
    {
        let report = rap_verify::verify(compiled, mapping, &mapping.config.arch);
        debug_assert!(
            report.is_legal(),
            "illegal mapping reached the simulator:\n{report}"
        );
    }
    #[cfg(not(debug_assertions))]
    let _ = (compiled, mapping);
}

/// A verified plan lowered for the simulator: every array's immutable
/// image (slot tables, per-tile initial, final and vector words, match
/// columns and Shift-And labels per byte class, chain positions, wake
/// sets), built once and shared by every run of the plan — batch, traced,
/// streaming or resumable. A run owns only what a stream changes: live
/// words, bit vectors, counters, and the crossbar rows it lowers lazily
/// (see the `array` module).
///
/// The images index into the plan's compiled patterns instead of copying
/// them, so every run is handed the images the plan was built from.
pub struct Lowered {
    machine: Machine,
    /// The architecture the plan was mapped for: a streaming run sizes
    /// its bank window and FIFOs from its buffer geometry.
    arch: ArchConfig,
    cost: CostModel,
    /// Patterns in the plan (checked against every run's images).
    patterns: usize,
    area_mm2: f64,
    arrays: Vec<array::ArrayImage>,
}

impl Lowered {
    /// Lowers a mapped workload for `machine`.
    ///
    /// The mapping must have passed the verify gate ([`Simulator::map_verified`]
    /// or [`rap_verify::verify`]); debug builds assert this at the door.
    pub fn new(compiled: &[Compiled], mapping: &Mapping, machine: Machine) -> Lowered {
        debug_assert_verified(compiled, mapping);
        let cost = CostModel::for_machine(machine);
        Lowered {
            machine,
            arch: mapping.config.arch,
            cost,
            patterns: compiled.len(),
            area_mm2: cost.area_mm2(mapping),
            arrays: mapping
                .arrays
                .iter()
                .map(|plan| array::ArrayImage::new(compiled, plan, &cost))
                .collect(),
        }
    }

    /// Heap bytes the images keep resident.
    pub fn heap_bytes(&self) -> usize {
        self.arrays
            .iter()
            .map(array::ArrayImage::heap_bytes)
            .sum::<usize>()
            + std::mem::size_of::<Lowered>()
    }

    /// Simulates the plan over `input`; see [`simulate`]. `compiled` must
    /// be the images the plan was lowered from.
    pub fn simulate(&self, compiled: &[Compiled], input: &[u8]) -> RunResult {
        self.run(compiled, input, None)
    }

    /// Like [`Lowered::simulate`], traced; see [`simulate_traced`].
    pub fn simulate_traced(
        &self,
        compiled: &[Compiled],
        input: &[u8],
        telemetry: &Telemetry,
        label: &str,
    ) -> RunResult {
        self.run(compiled, input, Some((telemetry, label)))
    }

    /// Panics unless `compiled` can be the images the plan was lowered from.
    fn check(&self, compiled: &[Compiled]) {
        assert_eq!(
            compiled.len(),
            self.patterns,
            "a lowered plan must run on the images it was built from"
        );
    }

    /// Runs the plan. A traced run steps its arrays on the calling
    /// thread; an untraced one fans them out over the calling thread and
    /// the helpers it can borrow from the process-wide budget.
    fn run(
        &self,
        compiled: &[Compiled],
        input: &[u8],
        telemetry: Option<(&Telemetry, &str)>,
    ) -> RunResult {
        if telemetry.is_some() {
            return self.run_on(compiled, input, telemetry, 1);
        }
        let helpers = par::Budget::global().borrow(self.arrays.len().saturating_sub(1));
        self.run_on(compiled, input, None, 1 + helpers.count())
    }

    /// Runs the plan's arrays on `workers` threads, the calling one
    /// included; a traced run uses one. On one thread the arrays run in
    /// turn and charge the meter as they go. On more, each array records
    /// its charges (its wire charges in cycle order, then its settle's)
    /// and the meter takes the records in array order. Either way the
    /// meter makes the same additions in the same order, so the result is
    /// bit-identical for every worker count.
    pub(crate) fn run_on(
        &self,
        compiled: &[Compiled],
        input: &[u8],
        telemetry: Option<(&Telemetry, &str)>,
        workers: usize,
    ) -> RunResult {
        self.check(compiled);
        let cost = &self.cost;
        let mut meter = EnergyMeter::new();
        let mut matches: Vec<MatchEvent> = Vec::new();
        let mut max_cycles: u64 = input.len() as u64;
        let mut stall_cycles: u64 = 0;
        let mut powered_tile_cycles: u64 = 0;
        let mut quiescent_cycles: u64 = 0;
        let mut probe = telemetry.map(|(tel, label)| tel.probe(label));

        let outcomes: Vec<array::ArrayOutcome> = if workers > 1 && probe.is_none() {
            // Each run is dropped on the thread it ran on.
            let runs = par_map(self.arrays.iter().collect(), workers, |image| {
                let mut sim = array::Array::new(image, compiled);
                let mut charges = array::Charges::default();
                let outcome =
                    array::run_array(image, &mut sim, compiled, input, &mut charges, None);
                (outcome, charges)
            });
            runs.into_iter()
                .map(|(outcome, charges)| {
                    charges.apply(&mut meter);
                    outcome
                })
                .collect()
        } else {
            (0u32..)
                .zip(&self.arrays)
                .map(|(index, image)| {
                    let mut sim = array::Array::new(image, compiled);
                    let probe = probe.as_mut().map(|p| (p, index));
                    array::run_array(image, &mut sim, compiled, input, &mut meter, probe)
                })
                .collect()
        };
        for outcome in outcomes {
            stall_cycles += outcome.cycles.saturating_sub(input.len() as u64);
            max_cycles = max_cycles.max(outcome.cycles);
            powered_tile_cycles += outcome.powered_tile_cycles;
            quiescent_cycles += outcome.quiescent_cycles;
            matches.extend(outcome.matches);
        }

        // Deduplicate (pattern, end) pairs: a pattern split into several LNFA
        // chains may report the same end offset from more than one chain.
        matches.sort_unstable_by_key(|m| (m.end, m.pattern));
        matches.dedup();
        // `$`-anchored patterns report only at the stream's end.
        matches.retain(|m| !compiled[m.pattern].anchored_end() || m.end == input.len());

        // Static leakage: power-gated tiles leak ~nothing, so tile leakage
        // integrates over *powered* tile-cycles; the array overheads (global
        // switch/controller) and bank I/O stay on for the whole run.
        let arrays = self.arrays.len();
        let runtime_s = max_cycles as f64 / cost.clock_hz;
        let mut leak_w = cost.bank_overhead_leak_w(arrays as u32);
        leak_w += cost.array_leak_w * arrays as f64;
        let tile_leak_j = cost.tile_leak_w * (powered_tile_cycles as f64 / cost.clock_hz);
        meter.charge(Category::Leakage, (leak_w * runtime_s + tile_leak_j) * 1e12);

        let metrics = Metrics {
            input_chars: input.len() as u64,
            cycles: max_cycles,
            clock_hz: cost.clock_hz,
            energy_uj: meter.total_uj(),
            area_mm2: self.area_mm2,
            matches: matches.len() as u64,
        };
        let result = RunResult {
            machine: self.machine,
            metrics,
            energy: meter,
            matches,
            stall_cycles,
            quiescent_cycles,
        };
        if let Some(mut probe) = probe {
            probe.push(ProbeEvent::RunEnd {
                input_bytes: input.len() as u64,
                cycles: max_cycles,
                stall_cycles,
                powered_tile_cycles,
                matches: result.metrics.matches,
            });
            probe.finish();
        }
        if let Some((tel, _)) = telemetry {
            record_run_metrics(tel.registry(), &result, powered_tile_cycles);
        }
        result
    }
}

impl fmt::Debug for Lowered {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Lowered")
            .field("machine", &self.machine)
            .field("patterns", &self.patterns)
            .field("arrays", &self.arrays.len())
            .field("heap_bytes", &self.heap_bytes())
            .finish_non_exhaustive()
    }
}

/// Simulates a mapped workload over an input stream on one machine.
///
/// The mapping must have passed the verify gate ([`Simulator::map_verified`]
/// or [`rap_verify::verify`]); debug builds assert this at the door.
///
/// Arrays run in parallel on the same stream; an array in NBVA mode stalls
/// independently during bit-vector-processing phases, and the two-level
/// buffering of §3.3 decouples the arrays, so the bank finishes when its
/// slowest array does. The simulation runs them the same way: each array
/// runs to completion on its own, on the calling thread or on a helper
/// thread borrowed from a process-wide budget of
/// `available_parallelism() − 1` helpers (a one-array plan borrows none,
/// and a call that finds none free runs on its caller). The arrays' energy
/// is then charged in array order, so the result is bit-identical for any
/// number of threads. [`simulate_traced`] steps the arrays on the calling
/// thread. To simulate one plan repeatedly, build its [`Lowered`] images
/// once and call [`Lowered::simulate`].
pub fn simulate(
    compiled: &[Compiled],
    mapping: &Mapping,
    input: &[u8],
    machine: Machine,
) -> RunResult {
    Lowered::new(compiled, mapping, machine).simulate(compiled, input)
}

/// Like [`simulate`], with cycle-sampled probe events and run totals
/// recorded into `telemetry` under `label`. Tracing only observes: the
/// returned result is identical to the untraced path's. A traced run
/// steps every cycle of one array after another on the calling thread,
/// so probe samples land where they always did.
pub fn simulate_traced(
    compiled: &[Compiled],
    mapping: &Mapping,
    input: &[u8],
    machine: Machine,
    telemetry: &Telemetry,
    label: &str,
) -> RunResult {
    Lowered::new(compiled, mapping, machine).simulate_traced(compiled, input, telemetry, label)
}

/// Records one finished run's totals into the telemetry registry, labeled
/// by machine. Shared by the batch and streaming paths.
pub(crate) fn record_run_metrics(reg: &Registry, result: &RunResult, powered: u64) {
    let machine = result.machine.to_string();
    let labels: [(&str, &str); 1] = [("machine", &machine)];
    reg.counter("rap_sim_runs_total", &labels).inc();
    reg.counter("rap_sim_input_bytes_total", &labels)
        .add(result.metrics.input_chars);
    reg.counter("rap_sim_cycles_total", &labels)
        .add(result.metrics.cycles);
    reg.counter("rap_sim_stall_cycles_total", &labels)
        .add(result.stall_cycles);
    reg.counter("rap_sim_powered_tile_cycles_total", &labels)
        .add(powered);
    reg.counter("rap_sim_matches_total", &labels)
        .add(result.metrics.matches);
    reg.counter("rap_sim_quiescent_array_cycles_total", &labels)
        .add(result.quiescent_cycles);
}

/// The Prometheus-visible face of [`BankStats`], one machine's handles on
/// a registry: output interrupts and backpressure as counters, FIFO
/// high-water marks as max-tracking gauges. The scan service keeps one
/// set and reads it as its backpressure signal.
#[derive(Clone, Debug)]
pub struct BankMetrics {
    interrupts: Counter,
    backpressure: Counter,
    input_fifo_hwm: Gauge,
    output_fifo_hwm: Gauge,
    skew_hwm: Gauge,
}

impl BankMetrics {
    /// Registers (or recalls) `machine`'s bank cells on `reg`.
    pub fn on(reg: &Registry, machine: Machine) -> BankMetrics {
        let machine = machine.to_string();
        let labels: [(&str, &str); 1] = [("machine", &machine)];
        BankMetrics {
            interrupts: reg.counter("rap_sim_output_interrupts_total", &labels),
            backpressure: reg.counter("rap_sim_output_backpressure_total", &labels),
            input_fifo_hwm: reg.gauge("rap_sim_input_fifo_hwm_bytes", &labels),
            output_fifo_hwm: reg.gauge("rap_sim_output_fifo_hwm_records", &labels),
            skew_hwm: reg.gauge("rap_sim_bank_skew_hwm_bytes", &labels),
        }
    }

    /// Adds one run's (or one stretch of a run's) interrupts and
    /// backpressure, and raises the high-water marks to its own.
    pub fn record(&self, stats: &BankStats) {
        self.interrupts.add(stats.output_interrupts);
        self.backpressure.add(stats.output_backpressure);
        self.input_fifo_hwm.set_max(stats.max_input_fifo_bytes);
        self.output_fifo_hwm.set_max(stats.max_output_fifo_records);
        self.skew_hwm.set_max(stats.max_skew as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_automata::nfa::Nfa;
    use rap_regex::parse;

    fn regexes(patterns: &[&str]) -> Vec<Regex> {
        patterns.iter().map(|p| parse(p).expect("parses")).collect()
    }

    /// Reference match set from the software NFA interpreter.
    fn reference(patterns: &[&str], input: &[u8]) -> Vec<MatchEvent> {
        let mut out = Vec::new();
        for (i, p) in patterns.iter().enumerate() {
            let nfa = Nfa::from_regex(&parse(p).expect("parses"));
            for end in nfa.match_ends(input) {
                out.push(MatchEvent { pattern: i, end });
            }
        }
        out.sort_unstable_by_key(|m| (m.end, m.pattern));
        out
    }

    /// Every machine must report exactly the ground-truth match set — the
    /// consistency check of §5.2.
    #[test]
    fn all_machines_agree_with_software_matcher() {
        let patterns = ["ab{12}c", "hello", "a[bc].d", "x.*yz", "n(o|p)q", "c{5,9}d"];
        let input = b"abbbbbbbbbbbbc hello axbcd xqqyz nopq npq ccccccd hello";
        let expect = reference(&patterns, input);
        for machine in Machine::all() {
            let sim = Simulator::new(machine);
            let result = sim
                .run(&regexes(&patterns), input)
                .unwrap_or_else(|e| panic!("{machine}: {e}"));
            assert_eq!(result.matches, expect, "machine {machine}");
        }
    }

    #[test]
    fn rap_nbva_stalls_reduce_throughput() {
        let sim = Simulator::new(Machine::Rap).with_bv_depth(8);
        // Repetition pattern on an input that keeps the BV active.
        let result = sim
            .run(&regexes(&["ab{40}c"]), &b"ab".repeat(200))
            .expect("runs");
        assert!(result.stall_cycles > 0, "expected BV-phase stalls");
        assert!(result.metrics.throughput_gchps() < 2.08);
    }

    #[test]
    fn nfa_mode_never_stalls() {
        let sim = Simulator::new(Machine::Cama);
        let result = sim
            .run(&regexes(&["ab{40}c", "xyz"]), &b"ab".repeat(200))
            .expect("runs");
        assert_eq!(result.stall_cycles, 0);
        assert!((result.metrics.throughput_gchps() - 2.14).abs() < 1e-6);
    }

    #[test]
    fn nbva_mode_uses_less_area_than_unfolded_nfa() {
        let patterns = regexes(&["ab{200}c", "pq{150}r"]);
        // Mostly-miss traffic with occasional prefix hits: the realistic
        // low-BV-activation regime the paper's benchmarks exhibit (a
        // pathological stream like "ababab…" would stall every other
        // cycle and burn leakage during the stalls instead).
        let input = b"the quick brown fox jumps over ab the lazy dog ".repeat(10);
        let rap = Simulator::new(Machine::Rap);
        let auto = rap.run(&patterns, &input).expect("auto runs");
        let compiled = rap.compile_forced(&patterns, Mode::Nfa).expect("compiles");
        let mapping = rap.map(&compiled);
        let forced = rap.simulate(&compiled, &mapping, &input);
        assert!(
            auto.metrics.area_mm2 < forced.metrics.area_mm2,
            "NBVA {} < NFA {}",
            auto.metrics.area_mm2,
            forced.metrics.area_mm2
        );
        assert!(auto.metrics.energy_uj < forced.metrics.energy_uj);
    }

    #[test]
    fn lnfa_mode_saves_energy_over_nfa_mode() {
        let patterns = regexes(&["abcdefgh", "ijklmnop", "qrstuvwx", "yz012345"]);
        let input: Vec<u8> = b"the quick brown fox jumps over the lazy dog ".repeat(20);
        let rap = Simulator::new(Machine::Rap);
        let auto = rap.run(&patterns, &input).expect("auto runs");
        let compiled = rap.compile_forced(&patterns, Mode::Nfa).expect("compiles");
        let mapping = rap.map(&compiled);
        let forced = rap.simulate(&compiled, &mapping, &input);
        assert!(
            auto.metrics.energy_uj < forced.metrics.energy_uj,
            "LNFA {} < NFA {}",
            auto.metrics.energy_uj,
            forced.metrics.energy_uj
        );
    }

    #[test]
    fn bvap_charges_bvm_area_even_without_bvs() {
        // A pure-literal workload: BVAP still pays for its add-on modules.
        let patterns = regexes(&["abcdef", "ghijkl"]);
        let input = b"abcdefghijkl".repeat(5);
        let bvap = Simulator::new(Machine::Bvap)
            .run(&patterns, &input)
            .expect("runs");
        let cama = Simulator::new(Machine::Cama)
            .run(&patterns, &input)
            .expect("runs");
        assert!(bvap.metrics.area_mm2 > cama.metrics.area_mm2);
    }

    #[test]
    fn empty_input_is_safe() {
        let sim = Simulator::new(Machine::Rap);
        let result = sim.run(&regexes(&["abc"]), b"").expect("runs");
        assert_eq!(result.metrics.cycles, 0);
        assert!(result.matches.is_empty());
        assert_eq!(result.metrics.throughput_gchps(), 0.0);
    }

    #[test]
    fn compile_error_reports_pattern_index() {
        let sim = Simulator::new(Machine::Rap);
        let err = sim
            .run_patterns(&["ok".to_string(), "(broken".to_string()], b"x")
            .expect_err("second pattern is malformed");
        match err {
            SimError::Compile { pattern, .. } => assert_eq!(pattern, 1),
            other @ SimError::IllegalMapping { .. } => panic!("unexpected error {other:?}"),
        }
    }

    /// The wide corpus of `tests/differential.rs`, three times over,
    /// unfolded for CA: 36 tile-spanning repetitions over as many arrays as
    /// the fan-out tests have workers (four), which charge wire energy.
    fn wide_ca_plan() -> (Vec<Compiled>, Mapping, Vec<u8>) {
        let patterns: Vec<&str> = ["xc{60,200}y", "a[^a]{150}a", "xc{90,180}y"]
            .into_iter()
            .cycle()
            .take(36)
            .collect();
        let sim = Simulator::new(Machine::Ca);
        let compiled = sim.compile(&regexes(&patterns)).expect("compiles");
        let mapping = sim.map_verified(&compiled).expect("verifies");
        assert!(mapping.arrays.len() >= 4, "{} arrays", mapping.arrays.len());
        let input = [
            b"x".to_vec(),
            b"c".repeat(120),
            b"y a".to_vec(),
            b"b".repeat(150),
            b"a".to_vec(),
        ]
        .concat()
        .repeat(4);
        (compiled, mapping, input)
    }

    /// Everything a run reports, floats by their bits.
    fn bits(r: &RunResult) -> impl PartialEq + fmt::Debug {
        let energy: Vec<(Category, u64)> =
            r.energy.iter().map(|(c, pj)| (c, pj.to_bits())).collect();
        let m = &r.metrics;
        (
            r.machine,
            (m.input_chars, m.cycles, m.matches),
            [m.clock_hz, m.energy_uj, m.area_mm2].map(f64::to_bits),
            energy,
            r.matches.clone(),
            (r.stall_cycles, r.quiescent_cycles),
        )
    }

    /// The fan-out is exact: one worker and four report the same run, bit
    /// for bit, whatever helpers the process-wide budget has free.
    #[test]
    fn array_fan_out_equals_one_thread() {
        let (compiled, mapping, input) = wide_ca_plan();
        let lowered = Lowered::new(&compiled, &mapping, Machine::Ca);
        let serial = lowered.run_on(&compiled, &input, None, 1);
        let fanned = lowered.run_on(&compiled, &input, None, 4);
        assert!(serial.energy.category_pj(Category::Wire) > 0.0);
        assert!(!serial.matches.is_empty());
        assert_eq!(bits(&fanned), bits(&serial));
    }

    /// Simulations inside `par_map` workers borrow what helpers are free,
    /// none once the budget is used up, and still report the serial run.
    /// They run on a thread of their own, so a fan-out that waited for a
    /// helper fails the test instead of hanging it.
    #[test]
    fn nested_fan_out_returns_serial_results() {
        let (compiled, mapping, input) = wide_ca_plan();
        let lowered = Lowered::new(&compiled, &mapping, Machine::Ca);
        let serial = bits(&lowered.run_on(&compiled, &input, None, 1));
        let (done, finished) = std::sync::mpsc::channel();
        let nested = std::thread::spawn(move || {
            let nested = || {
                par_map(vec![(); 4], 4, |()| {
                    bits(&lowered.simulate(&compiled, &input))
                })
            };
            // Every free helper held: each simulation runs on its caller.
            let held = par::Budget::global().borrow(usize::MAX);
            let starved = nested();
            drop(held);
            done.send((starved, nested())).expect("the test waits");
        });
        let (starved, free) = finished
            .recv_timeout(std::time::Duration::from_mins(2))
            .expect("nested simulations finish: no fan-out waits for a helper");
        nested.join().expect("nested simulations do not panic");
        for run in starved.iter().chain(&free) {
            assert_eq!(run, &serial);
        }
    }

    #[test]
    fn energy_breakdown_has_expected_categories() {
        let sim = Simulator::new(Machine::Rap);
        let result = sim
            .run(
                &regexes(&["ab{30}c", "hello", "wxyz"]),
                &b"hello ab world".repeat(30),
            )
            .expect("runs");
        assert!(result.energy.category_pj(Category::StateMatch) > 0.0);
        assert!(result.energy.category_pj(Category::Leakage) > 0.0);
        assert!(result.energy.category_pj(Category::Controller) > 0.0);
    }
}
