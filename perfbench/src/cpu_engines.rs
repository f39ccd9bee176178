//! `cpu-engines`: the Fig 13 software baselines.
//!
//! Each suite's input is scanned repeatedly by `HybridEngine` (the Fig 13
//! CPU baseline), `BatchEngine` (the GPU stand-in, one worker per core),
//! `ShiftAndEngine` and `PrefilteredNfa`. Generation and engine builds are
//! set-up; every scan's hits are checked against `NfaEngine`. The
//! end-to-end throughput and latency are the CPU baseline's.

use std::time::Instant;

use rap_engines::{
    BatchEngine, Engine, Hit, HybridEngine, NfaEngine, PrefilteredNfa, ShiftAndEngine,
};
use rap_pipeline::PatternSet;
use rap_regex::Regex;
use rap_workloads::Suite;

use crate::stats::{self, mb_per_s, Passes};
use crate::trace::Tracer;
use crate::{overhead_pct, run_rounds, Args, Outcome, Scale, CORPUS_SEED};

const MATCH_RATE: f64 = 0.02;
/// Per-worker segment length of the batch engine (as in Fig 13).
const BATCH_CHUNK: usize = 4096;

struct SuiteEngines {
    patterns: Vec<Regex>,
    input: Vec<u8>,
    hybrid: HybridEngine,
    batch: BatchEngine,
    shift_and: ShiftAndEngine,
    prefiltered: PrefilteredNfa,
}

fn sizes(scale: Scale) -> (usize, usize, usize) {
    // (patterns per suite, input bytes per suite, set-up passes)
    match scale {
        Scale::Full => (300, 16_000, 3),
        Scale::Tiny => (12, 1_000, 2),
    }
}

/// One set-up pass: generate every suite and build its engines. Returns
/// the engines and each suite's set-up time.
fn setup(args: &Args, t: &mut Tracer) -> (Vec<SuiteEngines>, Vec<f64>) {
    let (patterns, input_len, _) = sizes(args.scale);
    Suite::all()
        .into_iter()
        .map(|suite| {
            let start = Instant::now();
            let (patterns, input) = t.span("workloads.generate", |_| {
                let sources = rap_workloads::generate_patterns(suite, patterns, CORPUS_SEED);
                let input =
                    rap_workloads::generate_input(&sources, input_len, MATCH_RATE, args.seed);
                let set = PatternSet::parse(&sources).expect("generated patterns parse");
                (set.regexes(), input)
            });
            let hybrid = t.span("engines.hybrid.build", |_| {
                HybridEngine::new(&patterns, HybridEngine::DEFAULT_MAX_STATES)
            });
            let batch = t.span("engines.batch.build", |_| {
                BatchEngine::new(&patterns, BATCH_CHUNK)
            });
            let shift_and = t.span("engines.shift_and.build", |_| {
                ShiftAndEngine::new(&patterns)
            });
            let prefiltered = t.span("engines.prefiltered.build", |_| {
                PrefilteredNfa::new(&patterns)
            });
            let engines = SuiteEngines {
                patterns,
                input,
                hybrid,
                batch,
                shift_and,
                prefiltered,
            };
            (engines, start.elapsed().as_secs_f64())
        })
        .unzip()
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let (_, _, passes) = sizes(args.scale);
    let mut setup_secs = Passes::default();
    let mut suites = Vec::new();
    for _ in 0..passes {
        let (built, suite_secs) = setup(args, tracer);
        suites = built;
        setup_secs.push(suite_secs);
    }
    let generate_s = tracer.self_secs("workloads.generate") / passes as f64;
    let hybrid_build_s = tracer.self_secs("engines.hybrid.build") / passes as f64;

    let mut truth: Vec<Vec<Hit>> = suites
        .iter()
        .map(|s| NfaEngine::new(&s.patterns).scan(&s.input))
        .collect();
    if args.inject_mismatch {
        truth[0].push(Hit {
            pattern: usize::MAX,
            end: 0,
        });
    }

    let mut outcome = Outcome::default();
    let mut rounds = Passes::default();
    let (mut traced_secs, mut untraced_secs) = (Vec::new(), Vec::new());
    let mut traced_bytes = 0.0;
    let (mut steps, mut stepped_bytes) = (0u64, 0u64);
    run_rounds(args, tracer, 3, |t| {
        let mut bytes = 0.0;
        let mut op_ms = Vec::with_capacity(suites.len());
        let round_start = Instant::now();
        for (i, s) in suites.iter().enumerate() {
            let start = Instant::now();
            let hybrid = t.span("engines.hybrid.scan", |_| s.hybrid.scan(&s.input));
            op_ms.push(start.elapsed().as_secs_f64() * 1e3);
            bytes += s.input.len() as f64;
            let batch = t.span("engines.batch.scan", |_| s.batch.scan(&s.input));
            let shift_and = t.span("engines.shift_and.scan", |_| s.shift_and.scan(&s.input));
            let (prefiltered, n, _) = t.span("engines.prefiltered.scan", |_| {
                s.prefiltered.scan_with_stats(&s.input)
            });
            steps += n;
            stepped_bytes += s.input.len() as u64;
            for (engine, hits) in [
                ("hybrid", &hybrid),
                ("batch", &batch),
                ("shift-and", &shift_and),
                ("prefiltered", &prefiltered),
            ] {
                outcome.attempted += 1;
                if *hits != truth[i] {
                    eprintln!(
                        "cpu-engines: {engine} on suite {i}: {} hits vs {} from NfaEngine",
                        hits.len(),
                        truth[i].len()
                    );
                    outcome.failed += 1;
                }
            }
        }
        let round_secs = round_start.elapsed().as_secs_f64();
        rounds.push(op_ms);
        if t.enabled() {
            traced_bytes += bytes;
            traced_secs.push(round_secs);
        } else {
            untraced_secs.push(round_secs);
        }
    });

    // The CPU baseline's throughput: the suites' quiet hybrid scan times,
    // one after another.
    let round_bytes: usize = suites.iter().map(|s| s.input.len()).sum();
    let quiet_mb_per_s = mb_per_s(round_bytes as f64, rounds.quiet_total() / 1e3);
    outcome.end_to_end = stats::end_to_end("cpu-engines", &setup_secs, &rounds, quiet_mb_per_s);

    if args.trace {
        let patterns: usize = suites.iter().map(|s| s.patterns.len()).sum();
        let dfa: usize = suites.iter().map(|s| s.hybrid.dfa_count()).sum();
        let fallback: usize = suites.iter().map(|s| s.shift_and.fallback_count()).sum();
        let l = &mut outcome.layers;
        l.insert("workloads.generate_s", generate_s);
        l.insert("engines.hybrid.build_s", hybrid_build_s);
        l.insert("engines.hybrid.dfa_coverage", dfa as f64 / patterns as f64);
        l.insert(
            "engines.shift_and.fallback_ratio",
            fallback as f64 / patterns as f64,
        );
        l.insert(
            "engines.prefiltered.steps_per_byte",
            steps as f64 / stepped_bytes as f64,
        );
        for (metric, span) in [
            ("engines.hybrid.mb_per_s", "engines.hybrid.scan"),
            ("engines.batch.mb_per_s", "engines.batch.scan"),
            ("engines.shift_and.mb_per_s", "engines.shift_and.scan"),
            ("engines.prefiltered.mb_per_s", "engines.prefiltered.scan"),
        ] {
            l.insert(metric, mb_per_s(traced_bytes, tracer.self_secs(span)));
        }
        l.insert(
            "telemetry.overhead_pct",
            overhead_pct(&traced_secs, &untraced_secs),
        );
    }
    outcome
}
