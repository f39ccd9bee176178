//! Bank-level streaming simulation: the two-level buffer hierarchy of
//! §3.3, cycle-interleaved across arrays.
//!
//! The batch [`crate::simulate`] entry point runs each array to completion
//! on its own, side by side on the free cores (correct for completion
//! time, since arrays are decoupled and the bank finishes with its slowest
//! array). This module simulates the hierarchy explicitly, cycle by cycle
//! and on one thread, since its lanes share the input window and the
//! output bus every cycle:
//!
//! * a **bank input ping-pong buffer** (2 × 128 entries) fed by DMA — an
//!   array can only read bytes inside the bank window, and a page is
//!   recycled only once *every* array has consumed it, so a stalling NBVA
//!   array eventually back-pressures the fast arrays;
//! * per-array **8-entry input FIFOs** refilled by the polling arbiter
//!   (one byte per array per cycle) that hide short bit-vector phases. A
//!   lane's FIFO always holds the stream bytes from the array's next byte
//!   up to the arbiter's next fetch, so the run keeps those two offsets
//!   instead of copying bytes through a queue;
//! * per-array **2-entry output FIFOs** draining into the **64-entry bank
//!   output buffer** over a bus that visits only the lanes holding a
//!   record; when the buffer fills, an interrupt asks the host CPU to
//!   collect the reports (§3.3). Reports a full output FIFO holds back
//!   wait in a per-lane backlog read through a head index, so a flood
//!   whose backlog grows every cycle costs each report O(1) to move.
//!
//! Those sizes are the default geometry. A run sizes every buffer from
//! the `ArchConfig` the plan was mapped for, the same geometry the static
//! bank bounds and admission read.
//!
//! The result carries the same [`RunResult`] as the batch path (byte-
//! identical matches) plus [`BankStats`] — stalls, starvation, buffer
//! occupancy, interrupts — for studying the buffering itself.
//!
//! The bank is resumable: a [`StreamRun`] owns the lane state between
//! calls, [`StreamRun::feed`] streams the next chunk and returns its
//! matches at global offsets, and [`StreamRun::finish`] returns the
//! `$`-anchored matches at the stream's end with the run's totals.
//! [`simulate_streaming`] is one feed of the whole input plus the finish.
//!
//! * Matches are identical for any chunking of the input: the feeds'
//!   events followed by the finish's equal [`simulate_streaming`]'s.
//! * Cycles and [`BankStats`] of a chunked run differ from a one-shot
//!   run's, because each feed runs until every array has consumed the
//!   chunk and drained its own stalls, and the host then collects the
//!   buffered reports; a one-shot run is bit-identical to a single feed.
//! * The scan service runs one `StreamRun` per session over the tenant's
//!   solo plan, so its `SessionStats::output_interrupts` counts only the
//!   session's own lanes.

use crate::array::Array;
use crate::result::{MatchEvent, RunResult};
use crate::{BankMetrics, Lowered};
use rap_arch::buffers::Fifo;
use rap_circuit::energy::Category;
use rap_circuit::{EnergyMeter, Machine, Metrics};
use rap_compiler::Compiled;
use rap_mapper::Mapping;
use rap_telemetry::{ProbeEvent, Registry, SimProbe, Telemetry};
use std::sync::Arc;

/// Buffer-hierarchy statistics from one streaming run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BankStats {
    /// Cycles each array spent in bit-vector-processing stalls.
    pub stall_cycles: Vec<u64>,
    /// Cycles each array spent starved (input FIFO empty because the bank
    /// window was held back by a slower array or the stream ended).
    pub starved_cycles: Vec<u64>,
    /// Largest observed skew in consumed bytes between the fastest and
    /// slowest array.
    pub max_skew: usize,
    /// Host interrupts raised by a full bank output buffer.
    pub output_interrupts: u64,
    /// Match reports that waited in a full array output FIFO (backpressure
    /// events; the report is delayed, never lost).
    pub output_backpressure: u64,
    /// High-water mark of bytes resident across all array input FIFOs in
    /// any one cycle.
    pub max_input_fifo_bytes: u64,
    /// High-water mark of match records resident across array output
    /// FIFOs plus the bank output buffer in any one cycle.
    pub max_output_fifo_records: u64,
}

/// Per-array streaming state.
struct ArrayLane {
    sim: Array,
    output_fifo: Fifo<MatchEvent>,
    /// Next input byte index the arbiter will fetch for this lane. The
    /// input FIFO holds the stream bytes `consumed..fetch_pos`.
    fetch_pos: usize,
    /// Bytes consumed by the array so far.
    consumed: usize,
    stalled_cycles: u64,
    starved_cycles: u64,
    /// Match reports this lane has generated (pre-dedup, pre-anchoring).
    produced: u64,
    /// Reports en route to the output FIFO: `pending[moved..]` wait, in
    /// the order the array produced them; `pending[..moved]` have moved.
    pending: Vec<MatchEvent>,
    moved: usize,
}

/// A traced run's probe and the registry its totals land in.
struct Trace {
    probe: SimProbe,
    registry: Registry,
}

/// A resumable run of the bank buffer hierarchy: the lanes (array
/// kernels and FIFOs), the bank output buffer, the energy meter and the
/// statistics live here between calls, so a stream can be fed chunk by
/// chunk and every byte is simulated once.
///
/// The lanes step against the plan's shared [`Lowered`] images. The run
/// is handed the compiled images on every [`StreamRun::feed`]: the
/// kernels keep state indices and lower a crossbar row from the images on
/// its state's first activation. They must be the images the plan was
/// lowered from.
pub struct StreamRun {
    lowered: Arc<Lowered>,
    /// Ping-pong bank input window in bytes, and the entries of each
    /// array input FIFO.
    window: usize,
    input_entries: usize,
    lanes: Vec<ArrayLane>,
    bank_output: Fifo<MatchEvent>,
    meter: EnergyMeter,
    /// Bytes fed so far: the global offset of the next chunk's first byte.
    len: usize,
    cycles: u64,
    interrupts: u64,
    backpressure: u64,
    max_skew: usize,
    max_input_fifo_bytes: u64,
    max_output_fifo_records: u64,
    /// Matches handed out by the feeds so far.
    delivered: u64,
    /// `$`-anchored matches ending at `len`: they count only if the
    /// stream ends there.
    tail: Vec<MatchEvent>,
    trace: Option<Trace>,
}

impl StreamRun {
    /// Opens a run of the bank over a mapped workload, at stream offset 0.
    ///
    /// The mapping must have passed the verify gate, exactly as for the
    /// batch [`crate::simulate`] entry point; debug builds assert this at
    /// the door.
    pub fn new(compiled: &[Compiled], mapping: &Mapping, machine: Machine) -> StreamRun {
        StreamRun::on(Arc::new(Lowered::new(compiled, mapping, machine)), compiled)
    }

    /// Opens a run of the bank over an already lowered plan, at stream
    /// offset 0. `compiled` must be the images the plan was lowered from.
    pub fn on(lowered: Arc<Lowered>, compiled: &[Compiled]) -> StreamRun {
        StreamRun::open(lowered, compiled, None)
    }

    fn open(lowered: Arc<Lowered>, compiled: &[Compiled], trace: Option<Trace>) -> StreamRun {
        lowered.check(compiled);
        let arch = lowered.arch;
        // A zero-entry window or input FIFO never moves a byte, so a feed
        // would never end (the verify gate refuses such a geometry, V011).
        assert!(
            arch.bank_input_entries > 0 && arch.array_input_entries > 0,
            "mapped buffer geometry has a zero-entry input window or FIFO: \
             the bank cannot build it"
        );
        let lanes = lowered
            .arrays
            .iter()
            .map(|image| ArrayLane {
                sim: Array::new(image, compiled),
                output_fifo: Fifo::new(arch.array_output_entries as usize),
                fetch_pos: 0,
                consumed: 0,
                stalled_cycles: 0,
                starved_cycles: 0,
                produced: 0,
                pending: Vec::new(),
                moved: 0,
            })
            .collect();
        StreamRun {
            lowered,
            window: 2 * arch.bank_input_entries as usize, // ping-pong pages
            input_entries: arch.array_input_entries as usize,
            lanes,
            bank_output: Fifo::new(arch.bank_output_entries as usize),
            meter: EnergyMeter::new(),
            len: 0,
            cycles: 0,
            interrupts: 0,
            backpressure: 0,
            max_skew: 0,
            max_input_fifo_bytes: 0,
            max_output_fifo_records: 0,
            delivered: 0,
            tail: Vec::new(),
            trace,
        }
    }

    /// Streams the next `chunk` through the bank until every array has
    /// consumed it and left its bit-vector phase, then collects every
    /// report still buffered. Returns the chunk's matches, sorted by
    /// `(end, pattern)` at global stream offsets, except the `$`-anchored
    /// ones: those are held back for [`StreamRun::finish`], which hands
    /// out the ones at the stream's end.
    pub fn feed(&mut self, compiled: &[Compiled], chunk: &[u8]) -> Vec<MatchEvent> {
        self.lowered.check(compiled);
        let images = &self.lowered.arrays;
        let base = self.len;
        let end = base + chunk.len();
        self.len = end;
        let mut collected: Vec<MatchEvent> = Vec::new();
        let lanes = &mut self.lanes;
        // The slowest and fastest lanes' progress, and whether every lane
        // has consumed the chunk and left its stalls, entering each cycle.
        let (mut min_consumed, mut max_consumed, mut done) =
            lanes
                .iter()
                .fold((usize::MAX, 0, true), |(min, max, done), l| {
                    (
                        min.min(l.consumed),
                        max.max(l.consumed),
                        done && l.consumed == end && !l.sim.stalled(),
                    )
                });
        // Bytes resident in the input FIFOs, records in the lanes' output
        // FIFOs, and the lanes holding one this cycle, in lane order.
        let (mut input_occupancy, mut queued) = (0u64, 0u64);
        let mut ready: Vec<usize> = Vec::new();

        while !done {
            self.cycles += 1;
            let cycles = self.cycles;
            // The bank window: DMA cannot recycle a page until every array
            // has drained it, so the slowest lane bounds everyone's fetch
            // range.
            self.max_skew = self.max_skew.max(max_consumed - min_consumed);
            let fetch_limit = (min_consumed + self.window).min(end);

            if let Some(Trace { probe, .. }) = self.trace.as_mut() {
                if (cycles - 1).is_multiple_of(u64::from(probe.sample_every())) {
                    probe.push(ProbeEvent::Bank {
                        cycle: cycles - 1,
                        min_consumed: min_consumed as u64,
                        max_consumed: max_consumed as u64,
                        input_fifo_bytes: input_occupancy,
                        output_fifo_records: queued + self.bank_output.len() as u64,
                        interrupts: self.interrupts,
                    });
                    for (index, (lane, image)) in lanes.iter().zip(images).enumerate() {
                        let obs = lane.sim.observe(image);
                        probe.push(ProbeEvent::Array {
                            cycle: cycles - 1,
                            array: index as u32,
                            active_states: obs.active_states,
                            powered_tiles: obs.powered_tiles,
                            stalled: lane.sim.stalled(),
                        });
                    }
                }
            }

            (min_consumed, max_consumed, done) = (usize::MAX, 0, true);
            for (index, (lane, image)) in lanes.iter_mut().zip(images).enumerate() {
                // Polling arbiter: one byte per lane per cycle into its FIFO.
                if lane.fetch_pos - lane.consumed < self.input_entries
                    && lane.fetch_pos < fetch_limit
                {
                    lane.fetch_pos += 1;
                    input_occupancy += 1;
                }
                // Array cycle. Its wire charge joins the meter at once, so
                // the bank charges wires in cycle-major order.
                let pending_before = lane.pending.len();
                let wire = if lane.sim.stalled() {
                    lane.stalled_cycles += 1;
                    lane.sim
                        .tick(image, compiled, None, lane.consumed, &mut lane.pending)
                } else if lane.consumed < lane.fetch_pos {
                    let byte = chunk[lane.consumed - base];
                    let wire = lane.sim.tick(
                        image,
                        compiled,
                        Some(byte),
                        lane.consumed,
                        &mut lane.pending,
                    );
                    lane.consumed += 1;
                    input_occupancy -= 1;
                    wire
                } else {
                    if lane.consumed < end {
                        lane.starved_cycles += 1;
                    }
                    None
                };
                if let Some(pj) = wire {
                    self.meter.charge(Category::Wire, pj);
                }
                lane.produced += (lane.pending.len() - pending_before) as u64;
                // Reports: backlog → array output FIFO (2-deep).
                while let Some(&event) = lane.pending.get(lane.moved) {
                    match lane.output_fifo.push(event) {
                        Ok(()) => {
                            lane.moved += 1;
                            queued += 1;
                        }
                        Err(_) => {
                            self.backpressure += 1;
                            break;
                        }
                    }
                }
                // Drop the moved reports once they are at least half the
                // list: each report is then shifted at most once on
                // average, however deep a flood's backlog grows.
                if lane.moved > 0 && 2 * lane.moved >= lane.pending.len() {
                    lane.pending.drain(..lane.moved);
                    lane.moved = 0;
                }
                if !lane.output_fifo.is_empty() {
                    ready.push(index);
                }
                min_consumed = min_consumed.min(lane.consumed);
                max_consumed = max_consumed.max(lane.consumed);
                done &= lane.consumed == end && !lane.sim.stalled();
            }
            // Bus: one report per lane per cycle into the bank output buffer.
            for index in ready.drain(..) {
                let event = lanes[index]
                    .output_fifo
                    .pop()
                    .unwrap_or_else(|| unreachable!("a ready lane holds a record"));
                queued -= 1;
                if self.bank_output.is_full() {
                    // Interrupt: the host drains the whole buffer (§3.3).
                    self.interrupts += 1;
                    while let Some(e) = self.bank_output.pop() {
                        collected.push(e);
                    }
                }
                self.bank_output
                    .push(event)
                    .unwrap_or_else(|_| unreachable!("just drained"));
                self.meter
                    .charge(Category::Buffer, self.lowered.cost.buffer_pj);
            }
            // FIFO high-water marks, under the same occupancy definitions as
            // the cycle-sampled probe above (but tracked every cycle).
            self.max_input_fifo_bytes = self.max_input_fifo_bytes.max(input_occupancy);
            self.max_output_fifo_records = self
                .max_output_fifo_records
                .max(queued + self.bank_output.len() as u64);
        }
        // The host collects every report still buffered.
        for lane in lanes.iter_mut() {
            collected.extend(lane.pending.drain(..).skip(lane.moved));
            lane.moved = 0;
            while let Some(e) = lane.output_fifo.pop() {
                collected.push(e);
            }
        }
        while let Some(e) = self.bank_output.pop() {
            collected.push(e);
        }
        collected.sort_unstable_by_key(|m| (m.end, m.pattern));
        collected.dedup();
        // `$`-anchored patterns report only at the stream's end: hold back
        // the ones ending here, and drop the held ones the chunk overtook.
        if !chunk.is_empty() {
            self.tail.clear();
        }
        let tail = &mut self.tail;
        collected.retain(|m| {
            if !compiled[m.pattern].anchored_end() {
                return true;
            }
            if m.end == end {
                tail.push(*m);
            }
            false
        });
        self.delivered += collected.len() as u64;
        collected
    }

    /// The buffer-hierarchy statistics accumulated so far.
    pub fn stats(&self) -> BankStats {
        BankStats {
            stall_cycles: self.lanes.iter().map(|l| l.stalled_cycles).collect(),
            starved_cycles: self.lanes.iter().map(|l| l.starved_cycles).collect(),
            max_skew: self.max_skew,
            output_interrupts: self.interrupts,
            output_backpressure: self.backpressure,
            max_input_fifo_bytes: self.max_input_fifo_bytes,
            max_output_fifo_records: self.max_output_fifo_records,
        }
    }

    /// Ends the stream where the feeds left it. Returns the `$`-anchored
    /// matches at the stream's end, the run's [`RunResult`] and its
    /// [`BankStats`]. The result's `metrics.matches` counts every match of
    /// the run, but its `matches` list is empty: the feeds and this call
    /// already handed every event out.
    pub fn finish(self) -> (Vec<MatchEvent>, RunResult, BankStats) {
        let stats = self.stats();
        let StreamRun {
            lowered,
            lanes,
            mut meter,
            len,
            cycles,
            delivered,
            tail,
            trace,
            ..
        } = self;
        let (machine, cost, arrays) = (lowered.machine, &lowered.cost, lowered.arrays.len());
        // Activity-scaled energy, then leakage, as in the batch path.
        for (lane, image) in lanes.iter().zip(&lowered.arrays) {
            lane.sim.settle(image, &mut meter);
        }
        let runtime_s = cycles as f64 / cost.clock_hz;
        let powered: u64 = lanes.iter().map(|l| l.sim.powered_tile_cycles()).sum();
        let mut leak_w = cost.bank_overhead_leak_w(arrays as u32);
        leak_w += cost.array_leak_w * arrays as f64;
        let tile_leak_j = cost.tile_leak_w * (powered as f64 / cost.clock_hz);
        meter.charge(Category::Leakage, (leak_w * runtime_s + tile_leak_j) * 1e12);

        let metrics = Metrics {
            input_chars: len as u64,
            cycles,
            clock_hz: cost.clock_hz,
            energy_uj: meter.total_uj(),
            area_mm2: lowered.area_mm2,
            matches: delivered + tail.len() as u64,
        };
        let result = RunResult {
            machine,
            metrics,
            energy: meter,
            matches: Vec::new(),
            stall_cycles: stats.stall_cycles.iter().sum(),
            quiescent_cycles: lanes.iter().map(|l| l.sim.quiescent_cycles()).sum(),
        };
        if let Some(Trace {
            mut probe,
            registry,
        }) = trace
        {
            for (index, lane) in lanes.iter().enumerate() {
                probe.push(ProbeEvent::ArrayEnd {
                    array: index as u32,
                    // A lane is busy for each consumed byte plus each stall
                    // cycle; starved cycles are idle waiting, not work.
                    cycles: lane.consumed as u64 + lane.stalled_cycles,
                    stall_cycles: lane.stalled_cycles,
                    powered_tile_cycles: lane.sim.powered_tile_cycles(),
                    matches: lane.produced,
                });
            }
            probe.push(ProbeEvent::RunEnd {
                input_bytes: len as u64,
                cycles,
                stall_cycles: result.stall_cycles,
                powered_tile_cycles: powered,
                matches: result.metrics.matches,
            });
            probe.finish();
            crate::record_run_metrics(&registry, &result, powered);
            BankMetrics::on(&registry, machine).record(&stats);
        }
        (tail, result, stats)
    }
}

/// Streams `input` through the bank buffer hierarchy: one
/// [`StreamRun::feed`] of the whole input, then [`StreamRun::finish`].
///
/// The mapping must have passed the verify gate, exactly as for the batch
/// [`crate::simulate`] entry point; debug builds assert this at the door.
///
/// Matches are byte-identical to [`crate::simulate`]; cycle counts include
/// the buffering effects (they are ≥ the batch path's for the same
/// workload).
pub fn simulate_streaming(
    compiled: &[Compiled],
    mapping: &Mapping,
    input: &[u8],
    machine: Machine,
) -> (RunResult, BankStats) {
    one_shot(StreamRun::new(compiled, mapping, machine), compiled, input)
}

impl Lowered {
    /// Streams `input` through the bank over this lowered plan; see
    /// [`simulate_streaming`]. `compiled` must be the images the plan was
    /// lowered from.
    pub fn simulate_streaming(
        self: &Arc<Lowered>,
        compiled: &[Compiled],
        input: &[u8],
    ) -> (RunResult, BankStats) {
        one_shot(StreamRun::on(Arc::clone(self), compiled), compiled, input)
    }
}

/// Like [`simulate_streaming`], with cycle-sampled probe events (per-lane
/// array samples plus bank window/FIFO occupancy) and run totals recorded
/// into `telemetry` under `label`. Tracing only observes: the returned
/// result and stats are identical to the untraced path's.
pub fn simulate_streaming_traced(
    compiled: &[Compiled],
    mapping: &Mapping,
    input: &[u8],
    machine: Machine,
    telemetry: &Telemetry,
    label: &str,
) -> (RunResult, BankStats) {
    let trace = Trace {
        probe: telemetry.probe(label),
        registry: telemetry.registry().clone(),
    };
    let lowered = Arc::new(Lowered::new(compiled, mapping, machine));
    one_shot(
        StreamRun::open(lowered, compiled, Some(trace)),
        compiled,
        input,
    )
}

fn one_shot(mut run: StreamRun, compiled: &[Compiled], input: &[u8]) -> (RunResult, BankStats) {
    let mut matches = run.feed(compiled, input);
    let (tail, mut result, stats) = run.finish();
    if !tail.is_empty() {
        matches.extend(tail);
        matches.sort_unstable_by_key(|m| (m.end, m.pattern));
    }
    result.matches = matches;
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use rap_regex::Regex;

    fn regexes(patterns: &[&str]) -> Vec<Regex> {
        patterns
            .iter()
            .map(|p| rap_regex::parse(p).expect("parses"))
            .collect()
    }

    fn run_both(
        patterns: &[&str],
        input: &[u8],
        machine: Machine,
    ) -> (RunResult, RunResult, BankStats) {
        let sim = Simulator::new(machine);
        let res = regexes(patterns);
        let compiled = sim.compile(&res).expect("compiles");
        let mapping = sim.map(&compiled);
        let batch = sim.simulate(&compiled, &mapping, input);
        let (streaming, stats) = simulate_streaming(&compiled, &mapping, input, machine);
        (batch, streaming, stats)
    }

    #[test]
    fn streaming_matches_equal_batch_matches() {
        let patterns = ["ab{10,30}c", "hello", "x.*yz", "m{8}"];
        let input = b"hello abbbbbbbbbbbc xqqyz mmmmmmmm hello".repeat(10);
        for machine in Machine::all() {
            let (batch, streaming, _) = run_both(&patterns, &input, machine);
            assert_eq!(streaming.matches, batch.matches, "{machine}");
        }
    }

    #[test]
    fn streaming_cycles_cover_batch_cycles() {
        let patterns = ["ab{10,30}c", "hello"];
        let input = b"ab hello abbbbbbbbbbbc ".repeat(20);
        let (batch, streaming, _) = run_both(&patterns, &input, Machine::Rap);
        assert!(
            streaming.metrics.cycles >= batch.metrics.cycles,
            "streaming {} < batch {}",
            streaming.metrics.cycles,
            batch.metrics.cycles
        );
    }

    #[test]
    fn fifos_hide_short_stalls() {
        // A lightly-stalling NBVA workload: the 8-entry FIFO absorbs the
        // skew, so the LNFA array never starves more than briefly.
        let patterns = ["ab{8,16}c", "hello world"];
        let input = b"hello world abbbbbbbbbc xxxxxxxxxxxxxxxxxxxxxxx".repeat(20);
        let (_, streaming, stats) = run_both(&patterns, &input, Machine::Rap);
        assert_eq!(stats.stall_cycles.len(), 2);
        assert!(
            stats.max_skew <= 2 * 128,
            "skew {} exceeds the window",
            stats.max_skew
        );
        assert!(streaming.metrics.cycles >= input.len() as u64);
    }

    #[test]
    fn heavy_stalling_backpressures_fast_arrays() {
        // An NBVA array stalling on nearly every byte drags the bank
        // window, so the LNFA lane shows starvation.
        let patterns = ["ab{30,90}c", "zzz"];
        let input = b"ab".repeat(2_000);
        let (_, _, stats) = run_both(&patterns, &input, Machine::Rap);
        let total_starved: u64 = stats.starved_cycles.iter().sum();
        assert!(
            total_starved > 0,
            "expected starvation from window coupling"
        );
    }

    #[test]
    fn output_interrupts_fire_on_match_floods() {
        // Every byte matches: the 64-entry output buffer must overflow into
        // host interrupts.
        let patterns = ["[ab]"];
        let input = b"ab".repeat(500);
        let (_, streaming, stats) = run_both(&patterns, &input, Machine::Rap);
        assert_eq!(streaming.matches.len(), 1000);
        assert!(
            stats.output_interrupts > 0,
            "expected interrupts: {stats:?}"
        );
    }

    /// Sixteen patterns report on every byte, the output FIFO moves one
    /// report per cycle, and the backlog grows by fifteen a cycle, to about
    /// 61 000 reports. Fed in one shot and in chunks, the bank hands out
    /// the batch run's matches with the buffer statistics recorded before
    /// the backlog got a head index (when each moved report shifted the
    /// whole backlog).
    #[test]
    fn deep_flood_streams_like_the_batch_path() {
        let sources: Vec<&str> = ["[a-z]{1}", "[a-z]{2}", "[a-z]{3}"]
            .into_iter()
            .cycle()
            .take(16)
            .collect();
        let sim = Simulator::new(Machine::Rap);
        let compiled = sim.compile(&regexes(&sources)).expect("compiles");
        let mapping = sim.map_verified(&compiled).expect("verifies");
        let input = b"q".repeat(4096);
        let batch = sim.simulate(&compiled, &mapping, &input);
        assert_eq!(batch.matches.len(), 65_521);
        let flood = |output_interrupts| BankStats {
            stall_cycles: vec![0],
            starved_cycles: vec![0],
            max_skew: 0,
            output_interrupts,
            output_backpressure: 4096,
            max_input_fifo_bytes: 0,
            max_output_fifo_records: 65,
        };

        let (streamed, stats) = simulate_streaming(&compiled, &mapping, &input, Machine::Rap);
        assert_eq!(streamed.matches, batch.matches);
        assert_eq!(stats, flood(63));

        let mut run = StreamRun::new(&compiled, &mapping, Machine::Rap);
        let mut fed = Vec::new();
        for chunk in input.chunks(1000) {
            fed.extend(run.feed(&compiled, chunk));
        }
        let (tail, chunked, stats) = run.finish();
        fed.extend(tail);
        assert_eq!(fed, batch.matches);
        assert_eq!(chunked.metrics.matches, 65_521);
        assert_eq!(stats, flood(61));
    }

    #[test]
    fn oversized_buffer_geometry_streams_like_the_batch_path() {
        // The bank sizes its buffers from the plan's mapped geometry; one
        // that claims every buffer at its largest must cost only what is
        // actually buffered, and match exactly like the batch path.
        let mut sim = Simulator::new(Machine::Rap);
        for arch in [&mut sim.compiler.arch, &mut sim.mapper.arch] {
            arch.bank_input_entries = u32::MAX;
            arch.array_input_entries = u32::MAX;
            arch.bank_output_entries = u32::MAX;
            arch.array_output_entries = u32::MAX;
        }
        let compiled = sim
            .compile(&regexes(&["ab{10,30}c", "hello"]))
            .expect("compiles");
        let mapping = sim.map(&compiled);
        let input = b"hello abbbbbbbbbbbbc ".repeat(20);
        let batch = sim.simulate(&compiled, &mapping, &input);
        let (streaming, stats) = simulate_streaming(&compiled, &mapping, &input, Machine::Rap);
        assert_eq!(streaming.matches, batch.matches);
        assert_eq!(stats.output_interrupts, 0, "{stats:?}");
    }

    #[test]
    #[should_panic(expected = "the bank cannot build it")]
    fn zero_entry_input_window_is_refused_at_open() {
        // Unverified: debug builds refuse it at the door (V011), release
        // builds when the run opens, instead of feeding forever.
        let mut sim = Simulator::new(Machine::Rap);
        sim.mapper.arch.bank_input_entries = 0;
        let compiled = sim.compile(&regexes(&["abc"])).expect("compiles");
        let mapping = sim.map(&compiled);
        let lowered = Arc::new(Lowered::new(&compiled, &mapping, Machine::Rap));
        let _ = StreamRun::on(lowered, &compiled);
    }

    #[test]
    fn dollar_matches_wait_for_the_stream_end() {
        let sim = Simulator::new(Machine::Rap);
        let patterns = [rap_regex::parse_pattern("abc$").expect("parses")];
        let compiled = sim.compile_parsed(&patterns).expect("compiles");
        let mapping = sim.map(&compiled);
        let end_after = |chunks: &[&[u8]]| {
            let mut run = StreamRun::new(&compiled, &mapping, Machine::Rap);
            for chunk in chunks {
                assert!(
                    run.feed(&compiled, chunk).is_empty(),
                    "a `$` match mid-stream"
                );
            }
            let (tail, result, _) = run.finish();
            assert_eq!(result.metrics.matches, tail.len() as u64);
            tail
        };
        // A later chunk overtakes the held match; an empty one does not.
        assert_eq!(
            end_after(&[b"zzabc", b"zabc"]),
            vec![MatchEvent { pattern: 0, end: 9 }]
        );
        assert_eq!(
            end_after(&[b"zzabc", b""]),
            vec![MatchEvent { pattern: 0, end: 5 }]
        );
        assert!(end_after(&[b"zzabc", b"z"]).is_empty());
    }

    #[test]
    fn empty_workload_is_safe() {
        let sim = Simulator::new(Machine::Rap);
        let compiled = sim.compile(&[]).expect("compiles");
        let mapping = sim.map(&compiled);
        let (r, stats) = simulate_streaming(&compiled, &mapping, b"abc", Machine::Rap);
        assert_eq!(r.metrics.cycles, 0);
        assert!(r.matches.is_empty());
        assert_eq!(stats.max_skew, 0);
    }
}
