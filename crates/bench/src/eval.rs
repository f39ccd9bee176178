//! Per-machine evaluation, on top of the staged [`rap_pipeline`] engine.
//!
//! This module is the harness-facing veneer: suite corpora come from
//! [`Pipeline::corpus`]'s process-wide memo (each corpus is generated,
//! parsed, and synthesized exactly once per process), per-cell evaluation
//! goes through [`Pipeline::eval`]'s typed compile → map → verify →
//! simulate chain with content-addressed plan caching, and failures
//! surface as typed [`EvalError`]s instead of panics, so one bad suite no
//! longer aborts a whole table run.

use rap_circuit::Machine;
use rap_compiler::{Compiler, CompilerConfig, Mode};
use rap_pipeline::{PatternSet, Pipeline};
use rap_regex::Regex;
use rap_sim::Simulator;
use rap_workloads::Suite;
use serde::{Deserialize, Serialize};

pub use rap_pipeline::{BenchConfig, EvalError, RunSummary};

/// Builds a simulator with a suite's DSE-chosen knobs.
pub fn simulator_for(machine: Machine, suite: Suite) -> Simulator {
    Simulator::new(machine)
        .with_bv_depth(suite.chosen_bv_depth())
        .with_bin_size(suite.chosen_bin_size())
}

/// Evaluates one machine on a pattern set, optionally forcing a mode (the
/// RAP-NFA columns of Tables 2/3 force `Mode::Nfa`).
///
/// # Errors
///
/// Returns [`EvalError`] when a pattern fails to compile or the mapper
/// produces an illegal plan; the caller decides whether to skip the cell
/// or abort.
pub fn eval_machine(
    pipe: &Pipeline,
    machine: Machine,
    suite: Suite,
    patterns: &[Regex],
    input: &[u8],
    forced: Option<Mode>,
) -> Result<RunSummary, EvalError> {
    let pats = PatternSet::from_regexes(patterns);
    pipe.eval(machine, suite, &pats, input, forced)
}

/// Lints one suite's synthetic corpus on one machine: compiles with the
/// suite's DSE-chosen knobs, maps, and statically verifies the plan,
/// returning every finding (empty = provably legal, no advisories).
///
/// # Errors
///
/// Returns [`EvalError::Compile`] when the corpus fails to compile.
pub fn lint_suite(
    machine: Machine,
    suite: Suite,
    cfg: &BenchConfig,
) -> Result<rap_verify::Report, EvalError> {
    let sim = simulator_for(machine, suite);
    let (corpus, _) = rap_pipeline::suite_corpus(suite, cfg);
    let pats = PatternSet::from_regexes(&corpus.regexes());
    Ok(pats.compile(&sim, None)?.map(&sim).lint())
}

/// The decided-mode partition of a suite's patterns.
#[derive(Clone, Debug, Default)]
pub struct ModeSplit {
    /// Patterns the decision graph sends to basic NFA.
    pub nfa: Vec<Regex>,
    /// Patterns compiled to NBVA.
    pub nbva: Vec<Regex>,
    /// Patterns compiled to LNFA.
    pub lnfa: Vec<Regex>,
}

impl ModeSplit {
    /// Partitions patterns with the default decision graph.
    pub fn of(patterns: &[Regex]) -> ModeSplit {
        let compiler = Compiler::new(CompilerConfig::default());
        let mut split = ModeSplit::default();
        for re in patterns {
            match compiler.decide(re) {
                Mode::Nfa => split.nfa.push(re.clone()),
                Mode::Nbva => split.nbva.push(re.clone()),
                Mode::Lnfa => split.lnfa.push(re.clone()),
            }
        }
        split
    }
}

/// RAP evaluated per mode (the §5.5 system integration): each mode's
/// patterns run on their own arrays; NBVA arrays below 2 Gch/s are
/// replicated to share the workload (< 3% area overhead in the paper).
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct RapSystem {
    /// Per-mode summaries (NFA, NBVA, LNFA).
    pub nfa: RunSummary,
    /// NBVA summary *after* throughput replication.
    pub nbva: RunSummary,
    /// LNFA summary.
    pub lnfa: RunSummary,
}

impl RapSystem {
    /// Whole-system summary: energies/areas/states add; throughput is the
    /// slowest mode's (arrays run the same stream in parallel).
    pub fn total(&self) -> RunSummary {
        let parts = [self.nfa, self.nbva, self.lnfa];
        let active: Vec<&RunSummary> = parts.iter().filter(|p| p.states > 0).collect();
        let throughput = active
            .iter()
            .map(|p| p.throughput_gchps)
            .fold(f64::INFINITY, f64::min);
        let throughput = if active.is_empty() { 0.0 } else { throughput };
        let energy_uj: f64 = active.iter().map(|p| p.energy_uj).sum();
        let area_mm2: f64 = active.iter().map(|p| p.area_mm2).sum();
        let runtime_s = active
            .iter()
            .map(|p| {
                if p.power_w > 0.0 {
                    p.energy_uj * 1e-6 / p.power_w
                } else {
                    0.0
                }
            })
            .fold(0.0f64, f64::max);
        RunSummary {
            energy_uj,
            area_mm2,
            throughput_gchps: throughput,
            power_w: if runtime_s > 0.0 {
                energy_uj * 1e-6 / runtime_s
            } else {
                0.0
            },
            matches: active.iter().map(|p| p.matches).sum(),
            states: active.iter().map(|p| p.states).sum(),
        }
    }
}

/// Evaluates RAP with the full decision graph, one run per mode partition.
///
/// # Errors
///
/// Returns [`EvalError`] when any mode partition fails to compile or map.
pub fn eval_rap_by_mode(
    pipe: &Pipeline,
    suite: Suite,
    patterns: &[Regex],
    input: &[u8],
) -> Result<RapSystem, EvalError> {
    let split = ModeSplit::of(patterns);
    let run = |subset: &[Regex], forced: Mode| -> Result<RunSummary, EvalError> {
        if subset.is_empty() {
            return Ok(RunSummary::default());
        }
        eval_machine(pipe, Machine::Rap, suite, subset, input, Some(forced))
    };
    let nfa = run(&split.nfa, Mode::Nfa)?;
    let mut nbva = run(&split.nbva, Mode::Nbva)?;
    let lnfa = run(&split.lnfa, Mode::Lnfa)?;

    // §5.5 replication: bring NBVA throughput up to ≥ 2 Gch/s by assigning
    // additional arrays to share the stalling workload.
    if nbva.states > 0 && nbva.throughput_gchps > 0.0 && nbva.throughput_gchps < 2.0 {
        let factor = (2.0 / nbva.throughput_gchps).ceil();
        nbva.throughput_gchps = (nbva.throughput_gchps * factor).min(Machine::Rap.clock_hz() / 1e9);
        // The replicas are near-idle copies: small area overhead, same
        // total switching energy (the work is split, not duplicated).
        nbva.area_mm2 *= 1.0 + 0.03 * (factor - 1.0);
    }
    Ok(RapSystem { nfa, nbva, lnfa })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BenchConfig {
        BenchConfig {
            patterns_per_suite: 12,
            input_len: 2_000,
            match_rate: 0.02,
            seed: 7,
        }
    }

    #[test]
    fn suite_materialization() {
        let pipe = Pipeline::new(tiny());
        let corpus = pipe.corpus(Suite::Snort);
        assert_eq!(corpus.regexes().len(), 12);
        assert_eq!(corpus.input().len(), 2_000);
    }

    #[test]
    fn eval_machine_produces_sane_numbers() {
        let pipe = Pipeline::new(tiny());
        let corpus = pipe.corpus(Suite::SpamAssassin);
        let (patterns, input) = (corpus.regexes(), corpus.input());
        for machine in Machine::all() {
            let s = eval_machine(&pipe, machine, Suite::SpamAssassin, &patterns, input, None)
                .unwrap_or_else(|e| panic!("{machine}: {e}"));
            assert!(s.energy_uj > 0.0, "{machine}");
            assert!(s.area_mm2 > 0.0, "{machine}");
            assert!(s.throughput_gchps > 0.0, "{machine}");
            assert!(s.states > 0, "{machine}");
        }
    }

    #[test]
    fn rap_corpus_lints_clean() {
        let cfg = tiny();
        for suite in Suite::all() {
            let report = lint_suite(Machine::Rap, suite, &cfg).expect("corpus compiles");
            assert!(report.is_empty(), "{suite}: {report}");
        }
    }

    #[test]
    fn mode_split_partitions_everything() {
        let patterns = Pipeline::new(tiny()).corpus(Suite::Snort).regexes();
        let split = ModeSplit::of(&patterns);
        assert_eq!(
            split.nfa.len() + split.nbva.len() + split.lnfa.len(),
            patterns.len()
        );
    }

    #[test]
    fn rap_system_total_combines_modes() {
        let pipe = Pipeline::new(tiny());
        let corpus = pipe.corpus(Suite::Snort);
        let sys = eval_rap_by_mode(&pipe, Suite::Snort, &corpus.regexes(), corpus.input())
            .expect("evaluates");
        let total = sys.total();
        assert!(total.energy_uj > 0.0);
        assert!(total.area_mm2 >= sys.nbva.area_mm2);
        // Replication guarantees ≥ 2 Gch/s system throughput (or the mode
        // was already faster).
        assert!(
            total.throughput_gchps >= 1.99,
            "throughput {}",
            total.throughput_gchps
        );
    }

    #[test]
    fn all_machines_report_identical_match_counts() {
        let pipe = Pipeline::new(tiny());
        let corpus = pipe.corpus(Suite::Yara);
        let (patterns, input) = (corpus.regexes(), corpus.input());
        let counts: Vec<u64> = Machine::all()
            .iter()
            .map(|&m| {
                eval_machine(&pipe, m, Suite::Yara, &patterns, input, None)
                    .expect("evaluates")
                    .matches
            })
            .collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    #[test]
    fn repeated_eval_hits_plan_cache() {
        let pipe = Pipeline::new(tiny());
        let corpus = pipe.corpus(Suite::ClamAv);
        let (patterns, input) = (corpus.regexes(), corpus.input());
        let a = eval_machine(&pipe, Machine::Rap, Suite::ClamAv, &patterns, input, None)
            .expect("evaluates");
        let b = eval_machine(&pipe, Machine::Rap, Suite::ClamAv, &patterns, input, None)
            .expect("evaluates");
        assert_eq!(a, b);
        let report = pipe.report();
        assert_eq!(report.plan_cache.misses, 1, "{report}");
        assert_eq!(report.plan_cache.hits, 1, "{report}");
    }
}
