//! Multi-bank workload sharing (§5.5 / §3.3).
//!
//! "To reduce the throughput discrepancy between NBVA mode and NFA/LNFA
//! mode, multiple RAP banks can be configured to share the workload of low
//! throughput banks." This module implements that mechanism: when a
//! mapped workload's throughput falls below a target, the hardware is
//! replicated and the input stream is sharded across the replicas, each
//! shard extended by a *lookback overlap* long enough that any match
//! crossing a shard boundary is still seen by the next replica (the same
//! discipline the batch software engine uses for its chunks).
//!
//! Cost accounting: replicas run in parallel, so the wall clock is the
//! slowest shard's; energy adds up (each replica really switches); area
//! multiplies by the replica count. Every replica runs the same hardware
//! image, so the plan is lowered once for the base run and all shards.

use crate::result::{MatchEvent, RunResult};
use crate::Lowered;
use rap_circuit::Machine;
use rap_circuit::Metrics;
use rap_compiler::Compiled;
use rap_mapper::Mapping;

/// The outcome of a replicated run.
#[derive(Clone, Debug)]
pub struct ReplicatedRun {
    /// Combined result (deduplicated matches, max cycles, summed energy,
    /// multiplied area).
    pub result: RunResult,
    /// Replicas used (1 = no replication was needed).
    pub replicas: u32,
    /// Overlap bytes prepended to each shard after the first.
    pub overlap: usize,
}

/// Longest possible match span of a compiled workload, in bytes — the
/// lookback a shard needs so boundary-crossing matches are not lost.
/// Patterns with unbounded loops have no finite span; they force
/// whole-stream processing (returns `None`).
pub fn max_match_span(compiled: &[Compiled]) -> Option<usize> {
    let mut span = 0usize;
    for c in compiled {
        match c {
            Compiled::Nfa(img) => {
                // A cycle in the automaton means unbounded matches.
                if has_cycle(&img.nfa) {
                    return None;
                }
                span = span.max(img.nfa.len());
            }
            Compiled::Nbva(img) => {
                let total: u64 = img
                    .nbva
                    .states()
                    .iter()
                    .map(|s| u64::from(s.width().max(1)))
                    .sum();
                if has_cycle_nbva(&img.nbva) {
                    return None;
                }
                span = span.max(total as usize);
            }
            Compiled::Lnfa(img) => {
                span = span.max(img.max_chain_len());
            }
        }
    }
    Some(span)
}

/// Iterative cycle detection (white/gray/black DFS) over a successor
/// function.
fn digraph_has_cycle(n: usize, succ: impl Fn(usize) -> Vec<u32>) -> bool {
    let mut color = vec![0u8; n]; // 0 white, 1 gray, 2 black
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        color[start] = 1;
        stack.push((start, 0));
        while let Some(&(v, i)) = stack.last() {
            let edges = succ(v);
            if i < edges.len() {
                stack.last_mut().expect("just peeked").1 += 1;
                let w = edges[i] as usize;
                match color[w] {
                    0 => {
                        color[w] = 1;
                        stack.push((w, 0));
                    }
                    1 => return true,
                    _ => {}
                }
            } else {
                color[v] = 2;
                stack.pop();
            }
        }
    }
    false
}

fn has_cycle(nfa: &rap_automata::nfa::Nfa) -> bool {
    digraph_has_cycle(nfa.len(), |v| nfa.states()[v].succ.clone())
}

fn has_cycle_nbva(nbva: &rap_automata::nbva::Nbva) -> bool {
    digraph_has_cycle(nbva.len(), |v| nbva.states()[v].succ.clone())
}

/// Runs the workload, replicating the hardware until the modeled
/// throughput reaches `target_gchps` (or `max_replicas` is hit, or the
/// workload cannot be sharded because a pattern has unbounded span).
pub fn simulate_replicated(
    compiled: &[Compiled],
    mapping: &Mapping,
    input: &[u8],
    machine: Machine,
    target_gchps: f64,
    max_replicas: u32,
) -> ReplicatedRun {
    let lowered = Lowered::new(compiled, mapping, machine);
    let base = lowered.simulate(compiled, input);
    let base_thpt = base.metrics.throughput_gchps();
    if base_thpt >= target_gchps || input.is_empty() {
        return ReplicatedRun {
            result: base,
            replicas: 1,
            overlap: 0,
        };
    }
    // Anchored patterns are position-dependent: a shard boundary would
    // forge a fake stream start/end, so they block sharding too.
    if compiled
        .iter()
        .any(|c| c.anchored_start() || c.anchored_end())
    {
        return ReplicatedRun {
            result: base,
            replicas: 1,
            overlap: 0,
        };
    }
    let Some(span) = max_match_span(compiled) else {
        // Unbounded-span patterns cannot be sharded; ship the base run.
        return ReplicatedRun {
            result: base,
            replicas: 1,
            overlap: 0,
        };
    };
    let overlap = span.saturating_sub(1);
    let mut replicas = ((target_gchps / base_thpt).ceil() as u32).clamp(2, max_replicas);
    // Shards must be long enough that the overlap is amortized.
    let min_shard = (overlap * 4).max(1);
    let max_useful = (input.len() / min_shard).max(1) as u32;
    replicas = replicas.min(max_useful).max(1);
    if replicas == 1 {
        return ReplicatedRun {
            result: base,
            replicas: 1,
            overlap: 0,
        };
    }

    let shard_len = input.len().div_ceil(replicas as usize);
    let mut combined_matches: Vec<MatchEvent> = Vec::new();
    let mut max_cycles = 0u64;
    let mut energy_uj = 0.0;
    let mut quiescent_cycles = 0;
    for r in 0..replicas as usize {
        let start = r * shard_len;
        if start >= input.len() {
            break;
        }
        let end = ((r + 1) * shard_len).min(input.len());
        let from = start.saturating_sub(overlap);
        let shard = &input[from..end];
        let run = lowered.simulate(compiled, shard);
        max_cycles = max_cycles.max(run.metrics.cycles);
        energy_uj += run.metrics.energy_uj;
        quiescent_cycles += run.quiescent_cycles;
        combined_matches.extend(run.matches.into_iter().filter_map(|m| {
            let global_end = from + m.end;
            // Matches ending inside the lookback belong to the previous
            // shard.
            (global_end > start).then_some(MatchEvent {
                pattern: m.pattern,
                end: global_end,
            })
        }));
    }
    combined_matches.sort_unstable_by_key(|m| (m.end, m.pattern));
    combined_matches.dedup();

    let metrics = Metrics {
        input_chars: input.len() as u64,
        cycles: max_cycles,
        clock_hz: base.metrics.clock_hz,
        energy_uj,
        area_mm2: base.metrics.area_mm2 * f64::from(replicas),
        matches: combined_matches.len() as u64,
    };
    ReplicatedRun {
        result: RunResult {
            machine,
            metrics,
            energy: base.energy, // breakdown of one replica (shape, not sum)
            matches: combined_matches,
            stall_cycles: base.stall_cycles,
            quiescent_cycles,
        },
        replicas,
        overlap,
    }
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

    fn setup(patterns: &[&str]) -> (Vec<Compiled>, Mapping) {
        let sim = Simulator::new(Machine::Rap);
        let compiled = sim.compile(&regexes(patterns)).expect("compiles");
        let mapping = sim.map(&compiled);
        (compiled, mapping)
    }

    #[test]
    fn span_of_bounded_patterns() {
        let (compiled, _) = setup(&["abc", "x{40}y", "a(b|c)d"]);
        // x{40}y: 41 states + the prefix-less x BV of width 40 → span 41.
        assert_eq!(max_match_span(&compiled), Some(41));
    }

    #[test]
    fn unbounded_span_blocks_sharding() {
        let (compiled, _) = setup(&["a.*b"]);
        assert_eq!(max_match_span(&compiled), None);
    }

    #[test]
    fn replication_preserves_matches_and_lifts_throughput() {
        // A stall-heavy NBVA workload on a stream that triggers often.
        let (compiled, mapping) = setup(&["ab{20,60}c"]);
        let mut input = Vec::new();
        for _ in 0..300 {
            input.extend_from_slice(b"a");
            input.extend(std::iter::repeat_n(b'b', 30));
            input.extend_from_slice(b"c....");
        }
        let base = crate::simulate(&compiled, &mapping, &input, Machine::Rap);
        let rep = simulate_replicated(&compiled, &mapping, &input, Machine::Rap, 2.0, 8);
        assert!(
            rep.replicas > 1,
            "expected replication, base {}",
            base.metrics.throughput_gchps()
        );
        assert_eq!(
            rep.result.matches, base.matches,
            "matches must survive sharding"
        );
        assert!(
            rep.result.metrics.throughput_gchps() > base.metrics.throughput_gchps(),
            "replicated {} <= base {}",
            rep.result.metrics.throughput_gchps(),
            base.metrics.throughput_gchps()
        );
        assert!(rep.result.metrics.area_mm2 > base.metrics.area_mm2);
    }

    #[test]
    fn fast_workloads_do_not_replicate() {
        let (compiled, mapping) = setup(&["hello", "world"]);
        let input = b"hello world ".repeat(100);
        let rep = simulate_replicated(&compiled, &mapping, &input, Machine::Rap, 2.0, 8);
        assert_eq!(rep.replicas, 1);
    }

    #[test]
    fn boundary_matches_are_not_lost_or_duplicated() {
        let (compiled, mapping) = setup(&["qq{8}r"]);
        // Put matches right around potential shard boundaries.
        let unit = b"qqqqqqqqqr".to_vec(); // matches: q q{8} r
        let mut input = Vec::new();
        for _ in 0..100 {
            input.extend_from_slice(&unit);
            input.extend_from_slice(b"ab");
        }
        let base = crate::simulate(&compiled, &mapping, &input, Machine::Rap);
        let rep = simulate_replicated(&compiled, &mapping, &input, Machine::Rap, 10.0, 6);
        assert_eq!(rep.result.matches, base.matches);
    }
}
