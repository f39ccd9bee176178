//! `rap swap` — certified live partial reconfiguration planning over an
//! admitted multi-tenant composition, through the pipeline's Swap stage.

use super::{attach_store, outln, parse_suite};
use crate::args::Args;
use crate::CliError;
use rap_admit::AdmitOptions;
use rap_pipeline::{BenchConfig, Pipeline, SwapAnalysis, SwapOptions};
use rap_sim::Simulator;
use std::io::Write;

const HELP: &str = "\
rap swap — certify a live tenant hot-swap on an admitted composition

Admits the named resident suites onto one shared fabric, then runs the
rap-swap static hot-swap analyzer for replacing the --out tenant with the
--in suite while the others keep streaming: footprint choice (Q001),
drain-bound certification (Q005), a re-admission of the post-swap tenants
with every staying tenant pinned to its slots and match IDs (placement
Q001, bank/port interference Q002/Q003, counter-column budget Q004,
match-ID demux continuity Q006), post-swap re-verification (Q007), and
reconfiguration-cost overrun against the drain window (Q008). A certified
swap prints the ReconfigPlan (drain bound, reconfiguration cost, slot
assignment); a rejection lists the violated rules and exits non-zero.

USAGE:
    rap swap <suite> [<suite>...] --out <suite> --in <suite> [FLAGS]

SUITES:
    regexlib spamassassin snort suricata prosite yara clamav

FLAGS:
    --out S         resident suite that leaves the fabric   (required)
    --in S          replacement suite swapped into its slots (required)
    --machine M     rap | cama | bvap | ca       (default rap)
    --patterns N    patterns per tenant suite    (default 24)
    --seed S        RNG seed                     (default 42)
    --banks N       fix the shared fabric at N banks (default: auto-size
                    the smallest fabric that fits every resident)
    --bv-budget N   cap fabric-wide counter/BV columns at N
    --store-dir D   persistent artifact store directory: solo and composed
                    plans are recalled from earlier runs
    --json          emit the swap analysis as JSON on stdout";

/// Runs the subcommand.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(argv)?;
    if args.wants_help() {
        outln!(out, "{HELP}");
        return Ok(());
    }
    args.positional(0, "suite")?;
    let mut suites = Vec::new();
    let mut i = 0;
    while let Ok(name) = args.positional(i, "suite") {
        suites.push(parse_suite(name)?);
        i += 1;
    }
    let outgoing = parse_suite(
        args.flag("out")
            .ok_or_else(|| CliError::Usage("--out <suite> is required".to_string()))?,
    )?;
    let incoming = parse_suite(
        args.flag("in")
            .ok_or_else(|| CliError::Usage("--in <suite> is required".to_string()))?,
    )?;
    if !suites.contains(&outgoing) {
        return Err(CliError::Usage(format!(
            "--out {} is not one of the resident suites",
            outgoing.name().to_lowercase()
        )));
    }
    if suites.contains(&incoming) {
        return Err(CliError::Usage(format!(
            "--in {} is already resident; pick a suite outside the composition",
            incoming.name().to_lowercase()
        )));
    }
    let machine = args.machine()?;
    let spec = BenchConfig {
        patterns_per_suite: args.flag_num("patterns", 24)?,
        input_len: 256, // swap planning is input-independent; keep the corpus tiny
        match_rate: 0.02,
        seed: args.flag_num("seed", 42)?,
    };
    let admit_options = AdmitOptions {
        banks: match args.flag("banks") {
            None => None,
            Some(_) => Some(args.flag_num("banks", 0)?),
        },
        bv_column_budget: match args.flag("bv-budget") {
            None => None,
            Some(_) => Some(args.flag_num("bv-budget", 0)?),
        },
        ..AdmitOptions::default()
    };

    let pipe = attach_store(Pipeline::new(spec), &args)?;
    let corpora: Vec<_> = suites.iter().map(|&s| pipe.corpus(s)).collect();
    let sims: Vec<Simulator> = suites
        .iter()
        .map(|&s| pipe.simulator_for(machine, s))
        .collect();
    let tenants: Vec<_> = suites
        .iter()
        .zip(&sims)
        .zip(&corpora)
        .map(|((s, sim), corpus)| (s.name(), sim, corpus.patterns()))
        .collect();
    let admission = pipe
        .admit(&tenants, &admit_options)
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    if !admission.admitted() {
        return Err(CliError::Runtime(format!(
            "resident composition rejected before the swap: {} error(s)",
            admission.analysis.report.errors().count()
        )));
    }

    let in_corpus = pipe.corpus(incoming);
    let in_plan = pipe
        .plan(
            &pipe.simulator_for(machine, incoming),
            in_corpus.patterns(),
            None,
        )
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    let swap_options = SwapOptions {
        banks: Some(admission.analysis.banks),
        bv_column_budget: admit_options.bv_column_budget,
    };
    let analysis = pipe.swap(
        &admission,
        outgoing.name(),
        (incoming.name(), &in_plan),
        &swap_options,
    );

    if args.switch("json") {
        outln!(out, "{}", to_json(&analysis, machine));
    } else {
        outln!(
            out,
            "swap: {} -> {} on {machine} ({} resident tenant(s), {} patterns each, seed {})",
            outgoing.name(),
            incoming.name(),
            suites.len(),
            spec.patterns_per_suite,
            spec.seed
        );
        outln!(out, "staying : {}", analysis.staying.join(" "));
        if let Some(plan) = &analysis.plan {
            outln!(
                out,
                "fabric  : {} bank(s), {} slot(s) freed at [{}]",
                plan.banks,
                plan.freed_slots.len(),
                join_u32(&plan.freed_slots)
            );
            outln!(
                out,
                "incoming: {} array(s) at slot(s) [{}]",
                plan.slots.len(),
                join_u32(&plan.slots)
            );
            outln!(
                out,
                "drain   : {} cycle(s) certified ({} window byte(s), span {}, stall x{}, {} output record(s))",
                plan.drain.cycles,
                plan.drain.window_bytes,
                plan.drain.span_bytes,
                plan.drain.stall_allowance,
                plan.drain.output_records
            );
            outln!(
                out,
                "reconfig: {} tile(s) rewritten in {} cycle(s), {:.1} pJ ({} CAM + {} switch write(s))",
                plan.cost.tiles,
                plan.cost.cycles,
                plan.cost.energy_pj,
                plan.cost.cam_writes,
                plan.cost.switch_writes
            );
        }
        if analysis.report.is_empty() {
            outln!(out, "no findings");
        } else {
            out.write_all(analysis.report.to_string().as_bytes())
                .map_err(|e| CliError::Runtime(e.to_string()))?;
        }
        outln!(
            out,
            "verdict : {}",
            if analysis.certified() {
                "certified"
            } else {
                "rejected"
            }
        );
    }
    if !analysis.certified() {
        return Err(CliError::Runtime(format!(
            "hot swap rejected: {} error(s)",
            analysis.report.errors().count()
        )));
    }
    Ok(())
}

/// Joins slot ids for display.
fn join_u32(v: &[u32]) -> String {
    v.iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Renders the swap analysis as one JSON object: verdict, the certified
/// ReconfigPlan (or null), and the Q findings in the shared rap-diag
/// schema.
fn to_json(analysis: &SwapAnalysis, machine: rap_circuit::Machine) -> String {
    let mut s = format!(
        "{{\"machine\": \"{machine}\", \"certified\": {}, \"staying\": [{}]",
        analysis.certified(),
        analysis
            .staying
            .iter()
            .map(|t| format!("\"{t}\""))
            .collect::<Vec<_>>()
            .join(", ")
    );
    match &analysis.plan {
        None => s.push_str(", \"plan\": null"),
        Some(plan) => {
            s.push_str(&format!(
                ", \"plan\": {{\"outgoing\": \"{}\", \"incoming\": \"{}\", \"banks\": {}, \
                 \"slots\": [{}], \"freed_slots\": [{}], \
                 \"drain\": {{\"cycles\": {}, \"window_bytes\": {}, \"span_bytes\": {}, \
                 \"stall_allowance\": {}, \"output_records\": {}}}, \
                 \"cost\": {{\"tiles\": {}, \"cycles\": {}, \"energy_pj\": {:.3}, \
                 \"cam_writes\": {}, \"switch_writes\": {}}}}}",
                plan.outgoing,
                plan.incoming,
                plan.banks,
                join_u32(&plan.slots),
                join_u32(&plan.freed_slots),
                plan.drain.cycles,
                plan.drain.window_bytes,
                plan.drain.span_bytes,
                plan.drain.stall_allowance,
                plan.drain.output_records,
                plan.cost.tiles,
                plan.cost.cycles,
                plan.cost.energy_pj,
                plan.cost.cam_writes,
                plan.cost.switch_writes
            ));
        }
    }
    s.push_str(&format!(", \"report\": {}}}", analysis.report.to_json()));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_ok(argv: &[&str]) -> String {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&argv, &mut out).expect("swap succeeds");
        String::from_utf8(out).expect("utf8")
    }

    fn run_err(argv: &[&str]) -> (String, CliError) {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        let err = run(&argv, &mut out).expect_err("swap fails");
        (String::from_utf8(out).expect("utf8"), err)
    }

    // The generated suites mix in unbounded constructs (`.*`, `c+`) at
    // suite-specific rates; this (suites, seed) combination keeps the
    // outgoing tenant's patterns span-bounded so the drain certifies.
    // See `certifying_combo_stays_bounded` which pins that property.
    // `--banks 2` leaves free slots beyond the freed footprint so the
    // two-array replacement fits next to the staying tenant.
    const CERTIFYING: &[&str] = &[
        "clamav",
        "yara",
        "--out",
        "clamav",
        "--in",
        "spamassassin",
        "--patterns",
        "4",
        "--seed",
        "7",
        "--banks",
        "2",
    ];

    #[test]
    fn certifying_combo_stays_bounded() {
        use rap_compiler::{Compiler, CompilerConfig};
        let patterns = rap_workloads::generate_patterns(rap_workloads::Suite::ClamAv, 4, 7);
        let compiler = Compiler::new(CompilerConfig::default());
        let images: Vec<_> = patterns
            .iter()
            .map(|p| {
                let parsed = rap_regex::parse_pattern(p).expect("parses");
                compiler.compile_anchored(&parsed).expect("compiles")
            })
            .collect();
        assert!(
            rap_bound::max_match_span(&images).is_some(),
            "outgoing ClamAV patterns at seed 7 must stay span-bounded: {patterns:?}"
        );
    }

    #[test]
    fn certified_swap_prints_the_reconfig_plan() {
        let s = run_ok(CERTIFYING);
        assert!(s.contains("swap: ClamAV -> SpamAssassin"), "{s}");
        assert!(s.contains("staying : Yara"), "{s}");
        assert!(s.contains("drain   :"), "{s}");
        assert!(s.contains("reconfig:"), "{s}");
        assert!(s.contains("verdict : certified"), "{s}");
    }

    #[test]
    fn json_carries_plan_and_report() {
        let mut argv = CERTIFYING.to_vec();
        argv.push("--json");
        let s = run_ok(&argv);
        assert!(s.contains("\"certified\": true"), "{s}");
        assert!(s.contains("\"plan\": {"), "{s}");
        assert!(s.contains("\"drain\": {"), "{s}");
        assert!(s.contains("\"legal\": true"), "{s}");
    }

    #[test]
    fn unbounded_outgoing_rejects_with_q005_and_exit_2() {
        // RegexLib is NFA-majority: at 24 patterns it always carries an
        // unbounded construct, so draining it can never be certified.
        let (s, err) = run_err(&[
            "regexlib",
            "yara",
            "--out",
            "regexlib",
            "--in",
            "prosite",
            "--patterns",
            "24",
        ]);
        assert!(matches!(err, CliError::Runtime(_)));
        assert_eq!(err.exit_code(), 2);
        assert!(s.contains("Q005"), "{s}");
        assert!(s.contains("verdict : rejected"), "{s}");
    }

    #[test]
    fn rejected_resident_composition_never_reaches_the_swap() {
        let (_, err) = run_err(&[
            "snort",
            "yara",
            "clamav",
            "suricata",
            "--out",
            "snort",
            "--in",
            "prosite",
            "--patterns",
            "8",
            "--banks",
            "1",
        ]);
        assert!(matches!(err, CliError::Runtime(_)));
        assert!(err.to_string().contains("resident composition rejected"));
    }

    #[test]
    fn out_must_be_resident() {
        let (_, err) = run_err(&["clamav", "--out", "yara", "--in", "snort"]);
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn in_must_not_be_resident() {
        let (_, err) = run_err(&["clamav", "yara", "--out", "clamav", "--in", "yara"]);
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn missing_out_flag_is_usage_error() {
        let (_, err) = run_err(&["clamav", "yara", "--in", "snort"]);
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn help_prints_flags() {
        let s = run_ok(&["--help"]);
        assert!(s.contains("--out"), "{s}");
        assert!(s.contains("--in"), "{s}");
        assert!(s.contains("Q005"), "{s}");
    }
}
