//! The repository benchmark: one binary, three fixed-seed workloads.
//!
//! ```text
//! perfbench --workload <paper-sim|serve-stream|cpu-engines> --seed <n>
//!           --seconds <s> --trace <0|1> [--scale full|tiny]
//!           [--trace-out <file>] [--inject-mismatch]
//! ```
//!
//! Each workload sets up several times, then repeats a fixed amount of work
//! in rounds until `--seconds` of wall clock have passed, checking every
//! output against an independent oracle. Timings come from the quiet rounds
//! and set-up passes, the fastest quarter (`stats::quiet`). The
//! last line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
//! ones, with `--trace 1` the per-layer ones, which come from spans the
//! benchmark records around its calls into each crate plus the counters
//! those crates expose. Host times and modeled hardware counters are kept
//! apart: modeled values appear only as exact-repeat counters.
//!
//! A mismatch against the oracle is counted in `failed` and makes the
//! process exit with status 1. `--inject-mismatch` corrupts one expected
//! result on purpose, to show that the checks bite.

mod cpu_engines;
mod paper_sim;
mod serve_stream;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use trace::Tracer;

/// Seed of the rule corpora. The rules are the deployed configuration and
/// stay fixed, so every `--seed` measures the same rule sets; `--seed`
/// draws the traffic (input streams), which is what varies between runs.
/// 42 is the evaluation harness's default corpus seed.
pub const CORPUS_SEED: u64 = 42;

/// Metric values by name; units live in [`END_TO_END`] and [`PER_LAYER`].
pub type Metrics = BTreeMap<&'static str, f64>;

/// End-to-end metrics, reported by every workload with tracing off. Each
/// workload maps them onto its own user-visible operation (README.md).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_mb_per_s", "MB/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported with tracing on. A layer a workload does
/// not touch reads 0 on that workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.generate_s", "s"),
    ("compiler.compile_s", "s"),
    ("compiler.states", "count"),
    ("mapper.map_s", "s"),
    ("mapper.arrays", "count"),
    ("verify.verify_s", "s"),
    ("bound.bound_s", "s"),
    ("admit.admit_s", "s"),
    ("pipeline.plan_cache_hit_ratio", "ratio"),
    ("sim.rap_nfa.mb_per_s", "MB/s"),
    ("sim.rap_nbva.mb_per_s", "MB/s"),
    ("sim.rap_lnfa.mb_per_s", "MB/s"),
    ("sim.ca.mb_per_s", "MB/s"),
    ("sim.rap_nfa.cycles", "count"),
    ("sim.rap_nfa.stall_cycles", "count"),
    ("sim.rap_nfa.energy_pj", "pJ"),
    ("sim.rap_nfa.matches", "count"),
    ("sim.rap_nbva.cycles", "count"),
    ("sim.rap_nbva.stall_cycles", "count"),
    ("sim.rap_nbva.energy_pj", "pJ"),
    ("sim.rap_nbva.matches", "count"),
    ("sim.rap_lnfa.cycles", "count"),
    ("sim.rap_lnfa.stall_cycles", "count"),
    ("sim.rap_lnfa.energy_pj", "pJ"),
    ("sim.rap_lnfa.matches", "count"),
    ("sim.ca.cycles", "count"),
    ("sim.ca.stall_cycles", "count"),
    ("sim.ca.energy_pj", "pJ"),
    ("sim.ca.matches", "count"),
    ("serve.scan_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.scans_per_chunk", "ratio"),
    ("serve.register_ms", "ms"),
    ("serve.finish_ms", "ms"),
    ("serve.chunk_p99_ms", "ms"),
    ("serve.chunks_shed", "count"),
    ("serve.backpressure_events", "count"),
    ("engines.hybrid.mb_per_s", "MB/s"),
    ("engines.hybrid.build_s", "s"),
    ("engines.hybrid.dfa_coverage", "ratio"),
    ("engines.batch.mb_per_s", "MB/s"),
    ("engines.shift_and.mb_per_s", "MB/s"),
    ("engines.shift_and.fallback_ratio", "ratio"),
    ("engines.prefiltered.mb_per_s", "MB/s"),
    ("engines.prefiltered.steps_per_byte", "ratio"),
    ("telemetry.overhead_pct", "%"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark proper.
    Full,
    /// A few patterns and bytes per workload, for the self-test.
    Tiny,
}

#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub trace_out: Option<String>,
    pub inject_mismatch: bool,
}

/// What a workload hands back: operations attempted and failed, plus its
/// end-to-end metrics and (traced runs only) its per-layer metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Metrics,
    pub layers: Metrics,
}

/// Runs rounds of `round` until `seconds` of wall clock have passed and at
/// least `min_rounds` ran; returns the number of rounds. In a traced run,
/// even rounds record spans and odd rounds do not, so the two can be
/// compared for the tracing overhead.
pub fn run_rounds(
    args: &Args,
    tracer: &mut Tracer,
    min_rounds: usize,
    mut round: impl FnMut(&mut Tracer),
) -> usize {
    let min_rounds = if args.trace {
        min_rounds.max(2)
    } else {
        min_rounds
    };
    let start = Instant::now();
    let mut n = 0;
    while n < min_rounds || start.elapsed().as_secs_f64() < args.seconds {
        tracer.set_enabled(args.trace && n % 2 == 0);
        round(tracer);
        n += 1;
    }
    tracer.set_enabled(args.trace);
    n
}

/// Tracing overhead in percent: quiet traced round time over quiet
/// untraced round time.
pub fn overhead_pct(traced: &[f64], untraced: &[f64]) -> f64 {
    let (t, u) = (stats::quiet_median(traced), stats::quiet_median(untraced));
    if u > 0.0 {
        (t / u - 1.0) * 100.0
    } else {
        0.0
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <paper-sim|serve-stream|cpu-engines> --seed <n> \
         --seconds <s> --trace <0|1> [--scale full|tiny] [--trace-out <file>] [--inject-mismatch]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        trace_out: None,
        inject_mismatch: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--inject-mismatch" {
            args.inject_mismatch = true;
            continue;
        }
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                args.seconds = value.parse().unwrap_or_else(|_| usage("bad --seconds"));
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                };
            }
            "--scale" => {
                args.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => usage("--scale takes full or tiny"),
                };
            }
            "--trace-out" => args.trace_out = Some(value),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    args
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let args = parse_args();
    let mut tracer = Tracer::new(args.trace);
    let mut outcome = match args.workload.as_str() {
        "paper-sim" => paper_sim::run(&args, &mut tracer),
        "serve-stream" => serve_stream::run(&args, &mut tracer),
        "cpu-engines" => cpu_engines::run(&args, &mut tracer),
        other => usage(&format!("unknown workload {other:?}")),
    };
    outcome
        .end_to_end
        .insert("peak_rss_mb", stats::peak_rss_mb());

    if args.trace {
        if let Some(path) = &args.trace_out {
            if let Some(dir) = std::path::Path::new(path).parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            if let Err(e) = std::fs::write(path, tracer.jsonl()) {
                eprintln!("perfbench: cannot write trace {path}: {e}");
            }
        }
        for (name, (count, secs)) in tracer.self_times() {
            eprintln!("span {name:<28} n={count:<6} self={secs:.4}s");
        }
    }

    let (list, values) = if args.trace {
        (PER_LAYER, &outcome.layers)
    } else {
        (END_TO_END, &outcome.end_to_end)
    };
    let mut metrics = String::new();
    for (i, (name, unit)) in list.iter().enumerate() {
        let value = values.get(name).copied().unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        );
    }
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    eprintln!(
        "{}: attempted {} failed {} error_rate {error_rate}",
        args.workload, outcome.attempted, outcome.failed
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    );
    if outcome.failed > 0 {
        std::process::exit(1);
    }
}
