//! `rap bound` — static worst-case capacity/cost bounds for one suite's
//! mapped plan: [`rap_bound::analyze_bounds`] over the verified plan the
//! pipeline builds (or recalls from the store).

use super::{attach_store, outln, parse_suite};
use crate::args::Args;
use crate::CliError;
use rap_analyze::SoundnessConfig;
use rap_bound::{analyze_bounds, BoundAnalysis, BoundOptions};
use rap_pipeline::{BenchConfig, Pipeline};
use std::io::Write;

const HELP: &str = "\
rap bound — statically bound a suite's worst-case resource behaviour

Generates one benchmark suite, builds the verified plan for the chosen
machine, and runs the rap-bound abstract interpreter over it: certified
per-array peak active-state bounds, bank-buffer occupancy bounds, counter
value intervals, per-tile fan-in congestion, and replication pressure
(B001..B008). The simulator can never exceed these numbers on any input.
Exits non-zero when an Error-severity finding is reported.

USAGE:
    rap bound <suite> [FLAGS]

SUITES:
    regexlib spamassassin snort suricata prosite yara clamav

FLAGS:
    --machine M     rap | cama | bvap | ca       (default rap)
    --patterns N    patterns to generate         (default 40)
    --seed S        RNG seed                     (default 42)
    --equivalence   also prove every image equivalent to its reference
                    NFA by exact product construction (B008 on divergence)
    --budget N      equivalence: joint configurations explored before the
                    check returns inconclusively (default 8192)
    --store-dir D   persistent artifact store directory: recall the plan
                    from an earlier run instead of recompiling
    --json          emit bounds and findings as JSON on stdout";

/// Runs the subcommand.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(argv)?;
    if args.wants_help() {
        outln!(out, "{HELP}");
        return Ok(());
    }
    let suite = parse_suite(args.positional(0, "suite")?)?;
    let machine = args.machine()?;
    let spec = BenchConfig {
        patterns_per_suite: args.flag_num("patterns", 40)?,
        input_len: 256, // bounds are input-independent; keep the corpus tiny
        match_rate: 0.02,
        seed: args.flag_num("seed", 42)?,
    };
    let mut options = BoundOptions::bounds_only();
    if args.switch("equivalence") {
        options = options.with_equivalence(SoundnessConfig {
            max_configs: args.flag_num("budget", SoundnessConfig::default().max_configs)?,
        });
    }

    let pipe = attach_store(Pipeline::new(spec), &args)?;
    let corpus = pipe.corpus(suite);
    let sim = pipe.simulator_for(machine, suite);
    let plan = pipe
        .plan(&sim, corpus.patterns(), None)
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    let bounds = analyze_bounds(
        plan.compiled().images(),
        corpus.patterns().parsed(),
        plan.mapping(),
        &options,
    );

    if args.switch("json") {
        outln!(out, "{}", to_json(&bounds));
    } else {
        outln!(
            out,
            "bound: {machine} on {} ({} patterns, seed {})",
            suite.name(),
            spec.patterns_per_suite,
            spec.seed
        );
        outln!(
            out,
            "arrays  : {} array(s), worst-case {} of {} placed state(s) active",
            bounds.arrays.len(),
            bounds.total_peak_active(),
            bounds.arrays.iter().map(|a| a.placed_states).sum::<u64>()
        );
        outln!(
            out,
            "bank    : {} lane(s), <= {} input FIFO byte(s), <= {} output record(s), \
             <= {} byte(s) skew",
            bounds.bank.lanes,
            bounds.bank.input_fifo_bytes,
            bounds.bank.output_fifo_records,
            bounds.bank.max_skew
        );
        let dead = bounds.counters.iter().filter(|c| !c.read_feasible).count();
        outln!(
            out,
            "counters: {} bit-vector counter(s), {} dead read(s)",
            bounds.counters.len(),
            dead
        );
        match bounds.replication.max_match_span {
            Some(span) => outln!(out, "span    : max match span {span} byte(s)"),
            None => outln!(out, "span    : unbounded (shard replication impossible)"),
        }
        if bounds.report.is_empty() {
            outln!(out, "no findings");
        } else {
            out.write_all(bounds.report.to_string().as_bytes())
                .map_err(|e| CliError::Runtime(e.to_string()))?;
        }
        outln!(out, "{} finding(s)", bounds.report.len());
    }
    if !bounds.report.is_legal() {
        return Err(CliError::Runtime(format!(
            "bound analysis failed: {} error(s)",
            bounds.report.errors().count()
        )));
    }
    Ok(())
}

/// Renders the analysis as one JSON object: the numeric bounds plus the
/// findings in the shared rap-diag schema.
fn to_json(bounds: &BoundAnalysis) -> String {
    let mut s = String::from("{\"arrays\": [");
    for (i, a) in bounds.arrays.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!(
            "{{\"array\": {}, \"mode\": \"{}\", \"placed_states\": {}, \
             \"peak_active_states\": {}, \"reporters\": {}, \"peak_fanin\": {}}}",
            a.array, a.mode, a.placed_states, a.peak_active_states, a.reporters, a.peak_fanin
        ));
    }
    s.push_str(&format!(
        "], \"bank\": {{\"lanes\": {}, \"input_fifo_bytes\": {}, \
         \"output_fifo_records\": {}, \"max_skew\": {}}}",
        bounds.bank.lanes,
        bounds.bank.input_fifo_bytes,
        bounds.bank.output_fifo_records,
        bounds.bank.max_skew
    ));
    s.push_str(&format!(
        ", \"counters\": {}, \"max_match_span\": {}",
        bounds.counters.len(),
        bounds
            .replication
            .max_match_span
            .map_or("null".to_string(), |v| v.to_string())
    ));
    s.push_str(&format!(", \"report\": {}}}", bounds.report.to_json()));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_circuit::Machine;
    use rap_pipeline::{build_plan, StoreConfig};
    use rap_workloads::Suite;

    /// The corpus scale `rap bound <suite> --patterns 4` generates.
    fn four_patterns() -> BenchConfig {
        BenchConfig {
            patterns_per_suite: 4,
            input_len: 256,
            match_rate: 0.02,
            seed: 42,
        }
    }

    fn run_ok(argv: &[&str]) -> String {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&argv, &mut out).expect("bound succeeds");
        String::from_utf8(out).expect("utf8")
    }

    #[test]
    fn bounds_every_suite_surface() {
        let s = run_ok(&["snort", "--patterns", "8"]);
        assert!(s.contains("bound: RAP on Snort"), "{s}");
        assert!(s.contains("arrays  :"), "{s}");
        assert!(s.contains("bank    :"), "{s}");
        assert!(s.contains("finding(s)"), "{s}");
    }

    #[test]
    fn json_carries_bounds_and_findings() {
        let s = run_ok(&["regexlib", "--patterns", "8", "--json"]);
        assert!(s.contains("\"peak_active_states\""), "{s}");
        assert!(s.contains("\"max_skew\""), "{s}");
        assert!(s.contains("\"legal\": true"), "{s}");
        assert!(s.contains("B001-active-bound"), "{s}");
    }

    #[test]
    fn equivalence_switch_stays_clean() {
        let s = run_ok(&[
            "prosite",
            "--patterns",
            "4",
            "--equivalence",
            "--budget",
            "500",
        ]);
        assert!(!s.contains("B008"), "{s}");
    }

    #[test]
    fn store_dir_persists_the_plan_across_invocations() {
        let dir = std::env::temp_dir().join(format!(
            "rap-cli-bound-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let d = dir.to_str().expect("utf8");
        run_ok(&["snort", "--patterns", "4", "--store-dir", d]);
        let store = rap_pipeline::DiskStore::open(rap_pipeline::StoreConfig::at(&dir))
            .expect("store opens");
        assert_eq!(store.len(), 1, "first run wrote the plan");
        drop(store);
        // Second invocation (fresh pipeline) loads rather than rebuilds.
        let s = run_ok(&["snort", "--patterns", "4", "--store-dir", d]);
        assert!(s.contains("bound: RAP on Snort"), "{s}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_equals_an_independent_analysis_of_the_built_plan() {
        let pipe = Pipeline::new(four_patterns());
        let corpus = pipe.corpus(Suite::Prosite);
        let sim = pipe.simulator_for(Machine::Rap, Suite::Prosite);
        let plan = build_plan(&sim, corpus.patterns(), None).expect("plan builds");
        let cases = [
            (vec![], BoundOptions::bounds_only()),
            (
                vec!["--equivalence", "--budget", "500"],
                BoundOptions::bounds_only().with_equivalence(SoundnessConfig { max_configs: 500 }),
            ),
        ];
        for (flags, options) in cases {
            let mut argv = vec!["prosite", "--patterns", "4", "--json"];
            argv.extend(flags);
            let expected = to_json(&analyze_bounds(
                plan.compiled().images(),
                corpus.patterns().parsed(),
                plan.mapping(),
                &options,
            ));
            assert_eq!(run_ok(&argv), format!("{expected}\n"), "{argv:?}");
        }
    }

    #[test]
    fn stored_plan_is_the_pipelines_plan() {
        let dir = std::env::temp_dir().join(format!(
            "rap-cli-bound-shared-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let d = dir.to_str().expect("utf8");
        run_ok(&["snort", "--patterns", "4", "--store-dir", d]);

        // Any pipeline over the same suite and machine loads the plan
        // `rap bound` stored: one plan shape, one cache key.
        let pipe = Pipeline::new(four_patterns())
            .with_store(StoreConfig::at(&dir))
            .expect("store opens");
        let corpus = pipe.corpus(Suite::Snort);
        let sim = pipe.simulator_for(Machine::Rap, Suite::Snort);
        pipe.plan(&sim, corpus.patterns(), None).expect("plans");
        let report = pipe.report();
        assert_eq!(report.patterns_compiled, 0, "a disk hit compiles nothing");
        let disk = report.disk_store.expect("disk tier attached");
        assert_eq!((disk.hits, disk.misses, disk.corrupt), (1, 0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_suite_is_usage_error() {
        let argv = vec!["nosuch".to_string()];
        let mut out = Vec::new();
        assert!(matches!(run(&argv, &mut out), Err(CliError::Usage(_))));
    }

    #[test]
    fn help_prints_flags() {
        let s = run_ok(&["--help"]);
        assert!(s.contains("--equivalence"), "{s}");
        assert!(s.contains("--json"), "{s}");
    }
}
