//! `paper-sim`: the paper's tables, reduced to their simulator cost.
//!
//! All seven suites at 300 patterns each. Every suite runs as RAP, split by
//! the decided mode (NFA / NBVA / LNFA, one plan each, as
//! `eval_rap_by_mode` does), and as CA, which unfolds everything to NFA.
//! Set-up generates the corpora and builds every plan through the typed
//! compile → map → verify chain; the timed part is `VerifiedPlan::simulate`,
//! one cell at a time. Each cell's matches are checked against the
//! `NfaEngine` interpreter, and its modeled counters (cycles, stalls,
//! energy, matches) must repeat exactly from round to round.

use std::time::Instant;

use rap_bench::eval::{simulator_for, ModeSplit};
use rap_circuit::Machine;
use rap_compiler::Mode;
use rap_engines::{Engine, NfaEngine};
use rap_pipeline::{PatternSet, VerifiedPlan};
use rap_regex::Regex;
use rap_workloads::Suite;

use crate::stats::{self, mb_per_s, Passes};
use crate::trace::Tracer;
use crate::{overhead_pct, run_rounds, Args, Outcome, Scale, CORPUS_SEED, PER_LAYER};

const MATCH_RATE: f64 = 0.02;

/// A simulated configuration: RAP restricted to one decided mode, or CA.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    RapNfa,
    RapNbva,
    RapLnfa,
    Ca,
}

impl Kind {
    const ALL: [Kind; 4] = [Kind::RapNfa, Kind::RapNbva, Kind::RapLnfa, Kind::Ca];

    fn index(self) -> usize {
        self as usize
    }

    fn span(self) -> &'static str {
        match self {
            Kind::RapNfa => "sim.rap_nfa",
            Kind::RapNbva => "sim.rap_nbva",
            Kind::RapLnfa => "sim.rap_lnfa",
            Kind::Ca => "sim.ca",
        }
    }
}

/// The [`PER_LAYER`] entry named `name`.
fn layer_metric(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(listed, _)| *listed == name)
        .unwrap_or_else(|| panic!("{name} is a per-layer metric"))
        .0
}

/// Modeled hardware counters of one simulated cell.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Modeled {
    cycles: u64,
    stall_cycles: u64,
    energy_pj: f64,
    matches: u64,
}

/// One (suite, kind) cell: a verified plan, its input, and its oracle.
struct Cell {
    kind: Kind,
    patterns: Vec<Regex>,
    plan: VerifiedPlan,
    input: std::sync::Arc<Vec<u8>>,
    states: u64,
    arrays: u64,
}

fn sizes(scale: Scale) -> (usize, usize, usize) {
    // (patterns per suite, input bytes per suite, set-up passes)
    match scale {
        Scale::Full => (300, 2_000, 5),
        Scale::Tiny => (12, 400, 2),
    }
}

/// One set-up pass: generate all seven corpora and build every plan.
/// Returns the cells and each suite's set-up time.
fn setup(args: &Args, t: &mut Tracer) -> (Vec<Cell>, Vec<f64>) {
    let (patterns, input_len, _) = sizes(args.scale);
    let mut cells = Vec::new();
    let mut suite_secs = Vec::new();
    for suite in Suite::all() {
        let start = Instant::now();
        let (regexes, input) = t.span("workloads.generate", |_| {
            let sources = rap_workloads::generate_patterns(suite, patterns, CORPUS_SEED);
            let input = rap_workloads::generate_input(&sources, input_len, MATCH_RATE, args.seed);
            let set = PatternSet::parse(&sources).expect("generated patterns parse");
            (set.regexes(), input)
        });
        let input = std::sync::Arc::new(input);
        let split = t.span("compiler.compile", |_| ModeSplit::of(&regexes));
        let parts = [
            (Kind::RapNfa, Machine::Rap, Some(Mode::Nfa), split.nfa),
            (Kind::RapNbva, Machine::Rap, Some(Mode::Nbva), split.nbva),
            (Kind::RapLnfa, Machine::Rap, Some(Mode::Lnfa), split.lnfa),
            (Kind::Ca, Machine::Ca, None, regexes),
        ];
        for (kind, machine, forced, subset) in parts {
            if subset.is_empty() {
                continue;
            }
            let sim = simulator_for(machine, suite);
            let set = PatternSet::from_regexes(&subset);
            let compiled = t
                .span("compiler.compile", |_| set.compile(&sim, forced))
                .unwrap_or_else(|e| panic!("{suite} {kind:?} compiles: {e}"));
            let states = compiled.state_count();
            let mapped = t.span("mapper.map", |_| compiled.map(&sim));
            let plan = t
                .span("verify.verify", |_| mapped.verify())
                .unwrap_or_else(|e| panic!("{suite} {kind:?} verifies: {e}"));
            let arrays = plan.mapping().arrays.len() as u64;
            cells.push(Cell {
                kind,
                patterns: subset,
                plan,
                input: std::sync::Arc::clone(&input),
                states,
                arrays,
            });
        }
        suite_secs.push(start.elapsed().as_secs_f64());
    }
    (cells, suite_secs)
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let (_, _, passes) = sizes(args.scale);
    let mut setup_secs = Passes::default();
    let mut cells = Vec::new();
    for _ in 0..passes {
        let (built, suite_secs) = setup(args, tracer);
        cells = built;
        setup_secs.push(suite_secs);
    }
    let generate_s = tracer.self_secs("workloads.generate") / passes as f64;
    let compile_s = tracer.self_secs("compiler.compile") / passes as f64;
    let map_s = tracer.self_secs("mapper.map") / passes as f64;
    let verify_s = tracer.self_secs("verify.verify") / passes as f64;

    // Oracle: the plain NFA interpreter over the same patterns and input.
    let mut truth: Vec<Vec<(usize, usize)>> = cells
        .iter()
        .map(|cell| {
            NfaEngine::new(&cell.patterns)
                .scan(&cell.input)
                .into_iter()
                .map(|h| (h.pattern, h.end))
                .collect()
        })
        .collect();
    if args.inject_mismatch {
        truth[0].push((usize::MAX, 0));
    }

    let mut outcome = Outcome::default();
    let mut modeled: Vec<Option<Modeled>> = vec![None; cells.len()];
    let mut rounds = Passes::default();
    let (mut traced_secs, mut untraced_secs) = (Vec::new(), Vec::new());
    let mut traced_bytes = [0f64; 4];
    run_rounds(args, tracer, 3, |t| {
        let mut round_secs = 0.0;
        let mut op_ms = Vec::with_capacity(cells.len());
        for (i, cell) in cells.iter().enumerate() {
            let start = Instant::now();
            let result = t.span(cell.kind.span(), |_| cell.plan.simulate(&cell.input));
            let secs = start.elapsed().as_secs_f64();
            round_secs += secs;
            op_ms.push(secs * 1e3);
            if t.enabled() {
                traced_bytes[cell.kind.index()] += cell.input.len() as f64;
            }

            outcome.attempted += 1;
            let got: Vec<(usize, usize)> =
                result.matches.iter().map(|m| (m.pattern, m.end)).collect();
            let counters = Modeled {
                cycles: result.metrics.cycles,
                stall_cycles: result.stall_cycles,
                energy_pj: result.energy.total_pj(),
                matches: result.matches.len() as u64,
            };
            let repeat_ok = *modeled[i].get_or_insert(counters) == counters;
            if got != truth[i] || !repeat_ok {
                eprintln!(
                    "paper-sim: cell {i} ({:?}) {} ({} matches vs {} expected, counters repeat: {repeat_ok})",
                    cell.kind,
                    if got == truth[i] { "modeled counters moved" } else { "diverged from NfaEngine" },
                    got.len(),
                    truth[i].len()
                );
                outcome.failed += 1;
            }
        }
        rounds.push(op_ms);
        if t.enabled() {
            traced_secs.push(round_secs);
        } else {
            untraced_secs.push(round_secs);
        }
    });

    // The cells run one after another, so a quiet round is the sum of each
    // cell's quiet time.
    let round_bytes: usize = cells.iter().map(|cell| cell.input.len()).sum();
    let quiet_mb_per_s = mb_per_s(round_bytes as f64, rounds.quiet_total() / 1e3);
    outcome.end_to_end = stats::end_to_end("paper-sim", &setup_secs, &rounds, quiet_mb_per_s);

    if args.trace {
        let l = &mut outcome.layers;
        l.insert("workloads.generate_s", generate_s);
        l.insert("compiler.compile_s", compile_s);
        l.insert("mapper.map_s", map_s);
        l.insert("verify.verify_s", verify_s);
        l.insert(
            "compiler.states",
            cells.iter().map(|c| c.states).sum::<u64>() as f64,
        );
        l.insert(
            "mapper.arrays",
            cells.iter().map(|c| c.arrays).sum::<u64>() as f64,
        );
        for kind in Kind::ALL {
            let metric = |counter: &str| layer_metric(&format!("{}.{counter}", kind.span()));
            let mut total = Modeled::default();
            for (cell, counters) in cells.iter().zip(&modeled) {
                if cell.kind == kind {
                    let c = counters.unwrap_or_default();
                    total.cycles += c.cycles;
                    total.stall_cycles += c.stall_cycles;
                    total.energy_pj += c.energy_pj;
                    total.matches += c.matches;
                }
            }
            l.insert(
                metric("mb_per_s"),
                mb_per_s(traced_bytes[kind.index()], tracer.self_secs(kind.span())),
            );
            l.insert(metric("cycles"), total.cycles as f64);
            l.insert(metric("stall_cycles"), total.stall_cycles as f64);
            l.insert(metric("energy_pj"), total.energy_pj);
            l.insert(metric("matches"), total.matches as f64);
        }
        l.insert(
            "telemetry.overhead_pct",
            overhead_pct(&traced_secs, &untraced_secs),
        );
    }
    outcome
}
