//! Cross-validates the rap-admit static interference analyzer against
//! the simulator: on every benchmark suite, for the RAP decision mix and
//! the force-NFA CA baseline, every composition the analyzer *admits*
//! must be behaviour-preserving — each tenant's matches in the composed
//! run, demultiplexed back to its own namespace, are bit-identical to
//! its solo run over the same stream, and the traced peaks of the
//! composed run stay within the static bounds computed for the composed
//! plan. The analyzer never runs the automata, so any violation here is
//! a soundness bug in rap-admit's composition certificate.
//!
//! The test also exercises the rejection side: a deliberately
//! over-subscribed single-bank fabric carrying all seven suites must be
//! refused with the placement-overlap error (S001).
//!
//! A property test then extends the certificate check to the *chunked,
//! interleaved* regime rap-serve operates in: random tenants streaming
//! random inputs in randomly sized chunks through one shared serve
//! shard must each receive exactly the events of their solo
//! `simulate_streaming` run — demultiplexing never leaks or loses a
//! match across tenant boundaries, regardless of chunking.

use rap::admit::{admit, AdmitOptions, Rule, Tenant};
use rap::bound::{analyze_bounds, ArrayBound, BoundOptions};
use rap::telemetry::{Telemetry, TelemetryConfig};
use rap::workloads::{generate_input, generate_patterns, Suite};
use rap::{Machine, Simulator};
use std::sync::Arc;

const PATTERNS: usize = 12;
const INPUT_LEN: usize = 4_000;
const SEED: u64 = 7;

/// One suite's independently verified solo plan plus its sources and
/// its bounds from the full `analyze_bounds` pass (the independent
/// reference for what a plan caches through `array_bounds`).
struct Solo {
    suite: Suite,
    sources: Vec<String>,
    patterns: Vec<rap::regex::Pattern>,
    images: Vec<rap::compiler::Compiled>,
    mapping: rap::mapper::Mapping,
    bounds: Vec<ArrayBound>,
}

fn solo(suite: Suite, machine: Machine) -> Solo {
    let sim = Simulator::new(machine)
        .with_bv_depth(suite.chosen_bv_depth())
        .with_bin_size(suite.chosen_bin_size());
    let sources = generate_patterns(suite, PATTERNS, SEED);
    let patterns: Vec<_> = sources
        .iter()
        .map(|s| rap::regex::parse_pattern(s).expect("suite patterns parse"))
        .collect();
    let images = sim.compile_parsed(&patterns).expect("suite compiles");
    let mapping = sim.map_verified(&images).expect("suite maps legally");
    let bounds = analyze_bounds(&images, &patterns, &mapping, &BoundOptions::bounds_only()).arrays;
    Solo {
        suite,
        sources,
        patterns,
        images,
        mapping,
        bounds,
    }
}

fn view(s: &Solo) -> Tenant<'_> {
    Tenant {
        name: s.suite.name(),
        images: &s.images,
        mapping: &s.mapping,
        bounds: &s.bounds,
        match_base: None,
        slot: None,
    }
}

/// Admits the given tenants on an auto-sized fabric; when the analyzer
/// certifies the composition, simulates it and checks the certificate's
/// two claims (per-tenant match equality, peaks within composed static
/// bounds). Returns whether the composition was admitted.
fn validate_composition(machine: Machine, solos: &[&Solo], matched: &mut usize) -> bool {
    let label: Vec<&str> = solos.iter().map(|s| s.suite.name()).collect();
    let views: Vec<Tenant<'_>> = solos.iter().map(|s| view(s)).collect();
    let arch = Simulator::new(machine).mapper.arch;
    let analysis = admit(&views, &arch, &AdmitOptions::default());
    let Some(composed) = &analysis.composed else {
        return false;
    };

    // One shared stream with planted matches for every tenant.
    let combined: Vec<String> = solos
        .iter()
        .flat_map(|s| s.sources.iter().cloned())
        .collect();
    let input = generate_input(&combined, INPUT_LEN, 0.05, SEED);

    // The composed run, densely traced.
    let telemetry = Arc::new(Telemetry::new(TelemetryConfig {
        sample_every: 1,
        ring_capacity: 1 << 20,
    }));
    let sim = Simulator::new(machine).with_telemetry(Arc::clone(&telemetry));
    let (merged, _stats) = sim.simulate_streaming(&composed.images, &composed.mapping, &input);

    // Claim 1: demultiplexed matches are bit-identical to solo runs.
    for (idx, summary) in composed.tenants.iter().enumerate() {
        let tenant = solos
            .iter()
            .find(|s| s.suite.name() == summary.name)
            .unwrap_or_else(|| panic!("{machine:?} {label:?}: unknown tenant {}", summary.name));
        let solo_sim = Simulator::new(machine);
        let (solo_run, _) = solo_sim.simulate_streaming(&tenant.images, &tenant.mapping, &input);
        let demuxed = composed.tenant_matches(idx, &merged.matches);
        assert_eq!(
            demuxed, solo_run.matches,
            "{machine:?} {label:?}: tenant {} diverges from its solo run",
            summary.name
        );
        *matched += solo_run.matches.len();
    }

    // Claim 2: observed peaks stay within the composed plan's static
    // budgets, computed over the merged pattern namespace.
    let cat_patterns: Vec<rap::regex::Pattern> = composed
        .tenants
        .iter()
        .flat_map(|summary| {
            let tenant = solos
                .iter()
                .find(|s| s.suite.name() == summary.name)
                .expect("summary names a tenant");
            assert_eq!(
                summary.pattern_range.1 - summary.pattern_range.0,
                tenant.patterns.len(),
                "{machine:?} {label:?}: pattern range out of step"
            );
            tenant.patterns.iter().cloned()
        })
        .collect();
    let bounds = analyze_bounds(
        &composed.images,
        &cat_patterns,
        &composed.mapping,
        &BoundOptions::bounds_only(),
    );
    for trace in &telemetry.drain_traces() {
        for (array, observed) in trace.peak_active_states() {
            let bound = bounds
                .arrays
                .iter()
                .find(|a| a.array == array as usize)
                .unwrap_or_else(|| panic!("{machine:?} {label:?}: no bound for array {array}"));
            assert!(
                observed <= bound.peak_active_states,
                "{machine:?} {label:?} array {array}: observed {observed} active states \
                 > composed static bound {}",
                bound.peak_active_states
            );
        }
        assert!(
            trace.peak_output_fifo_records() <= bounds.bank.output_fifo_records,
            "{machine:?} {label:?}: output records {} > composed bound {}",
            trace.peak_output_fifo_records(),
            bounds.bank.output_fifo_records
        );
    }
    true
}

#[test]
fn admitted_compositions_preserve_per_tenant_behaviour() {
    for machine in [Machine::Rap, Machine::Ca] {
        let solos: Vec<Solo> = Suite::all().iter().map(|&s| solo(s, machine)).collect();

        // A lone verified plan always fits a fabric sized for it: every
        // suite must solo-admit, and the composed run must reproduce it.
        let mut matched = 0usize;
        for s in &solos {
            assert!(
                validate_composition(machine, &[s], &mut matched),
                "{machine:?}: {} rejected solo",
                s.suite.name()
            );
        }

        // Adjacent suite pairs: validate every admitted composition.
        let mut admitted = 0usize;
        for i in 0..solos.len() {
            let j = (i + 1) % solos.len();
            if validate_composition(machine, &[&solos[i], &solos[j]], &mut matched) {
                admitted += 1;
            }
        }
        assert!(
            matched > 0,
            "{machine:?}: no composition produced any matches — vacuous equality"
        );
        match machine {
            // RAP's decomposed plans (NBVA counters, binned LNFAs) keep
            // shared-bank bursts small: every pair co-resides.
            Machine::Rap => assert_eq!(admitted, 7, "RAP must admit every adjacent pair"),
            // The CA baseline's force-NFA one-array-per-pattern plans
            // burst shared banks: some pairs must be refused, but the
            // analyzer is not vacuous — most still fit.
            _ => assert!(
                (4..7).contains(&admitted),
                "CA admitted {admitted}/7 adjacent pairs; expected interference on some"
            ),
        }
    }
}

mod interleaved_streaming {
    use proptest::prelude::*;
    use rap::pipeline::{BenchConfig, PatternSet, Pipeline};
    use rap::serve::{SendOutcome, ServeConfig, Server};
    use rap::Simulator;

    /// Compile-safe sources over a tiny alphabet, including a
    /// `$`-anchored pattern (end-of-stream deferral), a `^`-anchored one
    /// (matches fixed to the stream's start) and an unbounded loop (a
    /// match may span the whole stream).
    const POOL: [&str; 11] = [
        "abc", "a[ab]c", "ab", "ba+c", "c{3,9}a", "a.{2,6}b", "cab", "b[abc]a", "ca$", "^ab",
        "a.*c",
    ];

    /// A tenant: 1–3 pool patterns, an input stream, and a cycle of
    /// chunk sizes to split it with.
    fn arb_tenant() -> impl Strategy<Value = (Vec<usize>, Vec<u8>, Vec<usize>)> {
        (
            prop::collection::vec(0..POOL.len(), 1..4),
            prop::collection::vec(
                prop_oneof![4 => Just(b'a'), 4 => Just(b'b'), 4 => Just(b'c'), 1 => Just(b'x')],
                1..200,
            ),
            prop::collection::vec(1usize..40, 1..8),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Interleaved chunked streaming through one shared serve shard
        /// delivers each tenant exactly its solo streaming run.
        #[test]
        fn interleaved_chunked_streams_match_solo_runs(
            tenants in prop::collection::vec(arb_tenant(), 2..5),
        ) {
            let spec = BenchConfig {
                patterns_per_suite: 4,
                input_len: 256,
                match_rate: 0.02,
                seed: 3,
            };
            // One shard: every tenant co-resides on one composed plan.
            let server = Server::new(
                Pipeline::new(spec),
                ServeConfig { shards: 1, ..ServeConfig::default() },
            );
            let sets: Vec<PatternSet> = tenants
                .iter()
                .map(|(picks, _, _)| {
                    let sources: Vec<String> =
                        picks.iter().map(|&p| POOL[p].to_string()).collect();
                    PatternSet::parse(&sources).expect("pool patterns parse")
                })
                .collect();
            let sessions: Vec<_> = sets
                .iter()
                .enumerate()
                .map(|(i, set)| {
                    server
                        .register(&format!("pt-{i}"), set)
                        .expect("pool tenants admit")
                })
                .collect();

            // Round-robin interleave, each tenant cycling its own
            // chunk-size sequence; shed chunks retry after a drain.
            let mut cursors = vec![0usize; tenants.len()];
            let mut rounds = vec![0usize; tenants.len()];
            loop {
                let mut progressed = false;
                for (i, (_, input, sizes)) in tenants.iter().enumerate() {
                    let at = cursors[i];
                    if at >= input.len() {
                        continue;
                    }
                    let len = sizes[rounds[i] % sizes.len()].min(input.len() - at);
                    rounds[i] += 1;
                    let piece = &input[at..at + len];
                    while let SendOutcome::Shed = sessions[i].send(piece).expect("session open") {
                        sessions[i].wait_idle();
                    }
                    cursors[i] = at + len;
                    progressed = true;
                }
                if !progressed {
                    break;
                }
            }

            for (i, (_, input, _)) in tenants.iter().enumerate() {
                sessions[i].finish();
                let mut delivered = sessions[i].drain();
                delivered.sort_unstable_by_key(|m| (m.end, m.pattern));
                delivered.dedup();
                let sim = Simulator::new(server.config().machine);
                let plan = server
                    .pipeline()
                    .plan(&sim, &sets[i], None)
                    .expect("solo plan builds");
                let expected = plan.simulate_streaming(input).0.matches;
                prop_assert_eq!(
                    delivered,
                    expected,
                    "tenant pt-{} diverged from its solo streaming run",
                    i
                );
            }
        }
    }
}

#[test]
fn over_subscribed_composition_is_rejected_with_s001() {
    for machine in [Machine::Rap, Machine::Ca] {
        let solos: Vec<Solo> = Suite::all().iter().map(|&s| solo(s, machine)).collect();
        let views: Vec<Tenant<'_>> = solos.iter().map(view).collect();
        let arch = Simulator::new(machine).mapper.arch;
        let options = AdmitOptions {
            banks: Some(1),
            ..AdmitOptions::default()
        };
        let analysis = admit(&views, &arch, &options);
        assert!(
            !analysis.admitted(),
            "{machine:?}: seven tenants on one bank must not be admitted"
        );
        assert!(
            !analysis.report.by_rule(Rule::PlacementOverlap).is_empty(),
            "{machine:?}: expected an S001 placement-overlap finding, got:\n{}",
            analysis.report
        );
    }
}
