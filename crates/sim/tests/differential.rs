//! Differential testing of the hardware simulators against the software
//! NFA interpreter — the §5.2 consistency check, fuzzed.
//!
//! Besides small multi-mode pattern sets, the corpora include long counted
//! repetitions that span tiles (global-crossbar routes) and arrays once
//! CA/CAMA unfold them, and `^`/`$`-anchored patterns.
//!
//! A second family checks the quiescent fast path: a quiet tile array
//! jumps idle input when no probe is attached, and a traced run steps
//! every cycle, so the two must agree bit for bit.
//!
//! The wide corpora also pin the array fan-out: an untraced batch run
//! spreads a plan's arrays over the free cores, a traced one steps them on
//! the calling thread, and both must report the same modeled numbers.

use proptest::prelude::*;
use rap_automata::nfa::Nfa;
use rap_circuit::energy::Category;
use rap_circuit::Machine;
use rap_regex::{CharClass, Pattern, Regex};
use rap_sim::{MatchEvent, RunResult, Simulator, StreamRun};
use rap_telemetry::{Telemetry, TelemetryConfig};

/// Random pattern sets that exercise all three RAP modes.
fn arb_pattern() -> impl Strategy<Value = Regex> {
    let leaf = prop_oneof![
        Just(Regex::literal_byte(b'a')),
        Just(Regex::literal_byte(b'b')),
        Just(Regex::literal_byte(b'c')),
        Just(Regex::Class(CharClass::from_bytes([b'a', b'b']))),
        (5u32..40).prop_map(|n| Regex::repeat(Regex::literal_byte(b'c'), n, Some(n))),
        (1u32..20, 1u32..20)
            .prop_map(|(m, k)| { Regex::repeat(Regex::literal_byte(b'b'), m, Some(m + k)) }),
    ];
    leaf.prop_recursive(2, 12, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Regex::concat),
            prop::collection::vec(inner.clone(), 2..3).prop_map(Regex::alt),
            inner.clone().prop_map(Regex::opt),
            inner.prop_map(Regex::star),
        ]
    })
    // Stateless patterns (ε-only) do not compile to hardware.
    .prop_filter("needs at least one state", |re| re.unfolded_size() > 0)
}

fn arb_input() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        prop_oneof![
            6 => Just(b'a'),
            6 => Just(b'b'),
            12 => Just(b'c'),
            1 => Just(b'x'),
        ],
        0..120,
    )
}

/// Long counted repetitions: as NBVA they are one bit-vector state, but
/// unfolded (CA, CAMA, RAP's NFA mode) they span two or more 128-state
/// tiles, and a dozen of them overflow a 2 048-state array. The third
/// shape, `x(cc?){n}y`, repeats a body that is not one class and expands
/// to 2ⁿ strings, so RAP and BVAP keep it as an NFA of 2n + 2 states that
/// spans tiles too.
fn arb_wide_pattern() -> impl Strategy<Value = Regex> {
    let lit = Regex::literal_byte;
    prop_oneof![
        (64u32..130).prop_map(move |n| {
            let body = Regex::concat(vec![lit(b'c'), Regex::opt(lit(b'c'))]);
            Regex::concat(vec![lit(b'x'), Regex::repeat(body, n, Some(n)), lit(b'y')])
        }),
        (40u32..140, 0u32..100).prop_map(move |(m, k)| {
            Regex::concat(vec![
                lit(b'x'),
                Regex::repeat(lit(b'c'), m, Some(m + k)),
                lit(b'y'),
            ])
        }),
        (60u32..200).prop_map(move |n| {
            let not_a = CharClass::single(b'a').complement();
            Regex::concat(vec![
                lit(b'a'),
                Regex::repeat(Regex::Class(not_a), n, Some(n)),
                lit(b'a'),
            ])
        }),
    ]
}

/// Any pattern, possibly `^`- and/or `$`-anchored.
fn arb_anchored() -> impl Strategy<Value = Pattern> {
    (arb_pattern(), any::<bool>(), any::<bool>()).prop_map(|(regex, start, end)| Pattern {
        regex,
        anchored_start: start,
        anchored_end: end,
    })
}

/// Inputs built from runs, so long repetitions can complete.
fn arb_runs() -> impl Strategy<Value = Vec<u8>> {
    let byte = prop_oneof![Just(b'a'), Just(b'b'), Just(b'c'), Just(b'x'), Just(b'y')];
    prop::collection::vec((byte, 1usize..160), 0..8)
        .prop_map(|runs| runs.into_iter().flat_map(|(b, n)| vec![b; n]).collect())
}

/// Inputs for the wide corpora: runs, then segments that carry both wide
/// shapes across their tiles (`x c…c y`, `a b…b a`), the whole repeated
/// twice as the fixed wide corpus repeats its input. Both arrays of a
/// two-array CA or CAMA plan then charge wire energy, in cycles and
/// amounts that differ, so the energy bits depend on the order the
/// arrays' charges reach the meter.
fn arb_wide_input() -> impl Strategy<Value = Vec<u8>> {
    let segment = (any::<bool>(), 100usize..260).prop_map(|(x, n)| {
        if x {
            [b"x".to_vec(), vec![b'c'; n], b"y".to_vec()].concat()
        } else {
            [b"a".to_vec(), vec![b'b'; n], b"a".to_vec()].concat()
        }
    });
    (arb_runs(), prop::collection::vec(segment, 2..6))
        .prop_map(|(runs, segments)| [runs, segments.concat()].concat().repeat(2))
}

/// Patterns whose tile arrays spend long stretches quiet, possibly `^`-
/// and/or `$`-anchored: the small multi-mode ones, and counted repetitions
/// that start with their bit-vector state (as NBVA, the initial state of
/// `b{5,30}c` is the vector).
fn arb_quiet_pattern() -> impl Strategy<Value = Pattern> {
    let lit = Regex::literal_byte;
    let regex = prop_oneof![
        2 => arb_pattern(),
        1 => (5u32..20, 0u32..25).prop_map(move |(m, k)| {
            Regex::concat(vec![Regex::repeat(lit(b'b'), m, Some(m + k)), lit(b'c')])
        }),
    ];
    (regex, any::<bool>(), any::<bool>()).prop_map(|(regex, start, end)| Pattern {
        regex,
        anchored_start: start,
        anchored_end: end,
    })
}

/// Inputs with long runs of bytes outside every initial class (`q`, `z`),
/// often at the very start, so a `^`-anchored pattern's first byte idles.
fn arb_idle_runs() -> impl Strategy<Value = Vec<u8>> {
    let byte = prop_oneof![
        4 => Just(b'q'),
        1 => Just(b'z'),
        2 => Just(b'a'),
        2 => Just(b'b'),
        2 => Just(b'c'),
    ];
    prop::collection::vec((byte, 1usize..120), 0..10)
        .prop_map(|runs| runs.into_iter().flat_map(|(b, n)| vec![b; n]).collect())
}

/// A run's modeled numbers: cycles, stalls, matches and every energy
/// category's bits.
fn modeled(result: &RunResult) -> (u64, u64, Vec<MatchEvent>, Vec<(String, u64)>) {
    let energy = result
        .energy
        .iter()
        .map(|(category, pj)| (category.to_string(), pj.to_bits()))
        .collect();
    (
        result.metrics.cycles,
        result.stall_cycles,
        result.matches.clone(),
        energy,
    )
}

/// The quiescent-cycle counter a traced run recorded for `machine`.
fn quiescent_counter(telemetry: &Telemetry, machine: Machine) -> u64 {
    let machine = machine.to_string();
    telemetry
        .registry()
        .counter(
            "rap_sim_quiescent_array_cycles_total",
            &[("machine", &machine)],
        )
        .get()
}

fn sorted(mut out: Vec<MatchEvent>) -> Vec<MatchEvent> {
    out.sort_unstable_by_key(|m| (m.end, m.pattern));
    out.dedup();
    out
}

fn reference(patterns: &[Regex], input: &[u8]) -> Vec<MatchEvent> {
    let mut out = Vec::new();
    for (i, re) in patterns.iter().enumerate() {
        for end in Nfa::from_regex(re).match_ends(input) {
            out.push(MatchEvent { pattern: i, end });
        }
    }
    sorted(out)
}

/// Ground truth for parsed patterns, anchors included.
fn reference_anchored(patterns: &[Pattern], input: &[u8]) -> Vec<MatchEvent> {
    let mut out = Vec::new();
    for (i, p) in patterns.iter().enumerate() {
        for end in Nfa::from_pattern(p).match_ends(input) {
            out.push(MatchEvent { pattern: i, end });
        }
    }
    sorted(out)
}

fn unanchored(regexes: Vec<Regex>) -> Vec<Pattern> {
    regexes
        .into_iter()
        .map(|regex| Pattern {
            regex,
            anchored_start: false,
            anchored_end: false,
        })
        .collect()
}

/// A traced simulator: its batch runs step their arrays on the calling
/// thread.
fn traced(machine: Machine) -> Simulator {
    Simulator::new(machine).with_telemetry(std::sync::Arc::new(Telemetry::new(
        TelemetryConfig::default(),
    )))
}

/// Compiles, maps and verifies `patterns` for `machine`, then runs the
/// untraced batch path (arrays fanned out), the traced batch path (one
/// thread) and the streaming path; `None` when the set does not fit.
fn run_paths(
    machine: Machine,
    patterns: &[Pattern],
    input: &[u8],
) -> Option<(RunResult, RunResult, RunResult)> {
    let sim = Simulator::new(machine);
    let compiled = sim.compile_parsed(patterns).ok()?;
    let mapping = sim.map_verified(&compiled).ok()?;
    let batch = sim.simulate(&compiled, &mapping, input);
    let serial = traced(machine).simulate(&compiled, &mapping, input);
    let (streaming, _) = sim.simulate_streaming(&compiled, &mapping, input);
    Some((batch, serial, streaming))
}

/// A fixed wide corpus really does exercise what the wide property is
/// for: unfolded, it spans tiles (cross-tile edges) and several arrays,
/// which charge wire energy. The fanned-out batch run reports the traced
/// run's modeled numbers.
#[test]
fn wide_corpus_spans_tiles_and_arrays() {
    let regexes: Vec<Regex> = ["xc{60,200}y", "a[^a]{150}a", "xc{90,180}y"]
        .iter()
        .cycle()
        .take(12)
        .map(|p| rap_regex::parse(p).expect("parses"))
        .collect();
    let input = [
        b"x".to_vec(),
        b"c".repeat(120),
        b"y a".to_vec(),
        b"b".repeat(150),
        b"a".to_vec(),
    ]
    .concat()
    // Four passes: over one, the two CA arrays' wire charges add up to the
    // same bits in either array order, so an order fault would not show.
    .repeat(4);
    let expect = reference(&regexes, &input);
    assert!(!expect.is_empty());
    for machine in Machine::all() {
        let sim = Simulator::new(machine);
        let compiled = sim.compile(&regexes).expect("compiles");
        let mapping = sim.map_verified(&compiled).expect("verifies");
        if matches!(machine, Machine::Ca | Machine::Cama) {
            assert!(mapping.arrays.len() > 1, "{machine}: one array");
            let cross: u32 = mapping
                .arrays
                .iter()
                .flat_map(|a| match &a.kind {
                    rap_mapper::ArrayKind::Nfa { placements } => placements.clone(),
                    _ => Vec::new(),
                })
                .map(|p| p.cross_tile_edges)
                .sum();
            assert!(cross > 0, "{machine}: no cross-tile edges");
        }
        let batch = sim.simulate(&compiled, &mapping, &input);
        let serial = traced(machine).simulate(&compiled, &mapping, &input);
        let (streaming, _) = sim.simulate_streaming(&compiled, &mapping, &input);
        if matches!(machine, Machine::Ca | Machine::Cama) {
            assert!(
                batch.energy.category_pj(Category::Wire) > 0.0,
                "{machine}: no wire energy"
            );
        }
        assert_eq!(batch.matches, expect, "{machine} batch");
        assert_eq!(
            modeled(&batch),
            modeled(&serial),
            "{machine} fanned out vs traced"
        );
        assert_eq!(streaming.matches, expect, "{machine} streaming");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every machine reports exactly the software interpreter's matches on
    /// random multi-pattern workloads.
    #[test]
    fn machines_match_ground_truth(
        patterns in prop::collection::vec(arb_pattern(), 1..5),
        input in arb_input(),
        machine_idx in 0usize..4,
    ) {
        let machine = Machine::all()[machine_idx];
        let sim = Simulator::new(machine);
        // Oversized random patterns may legitimately exceed one array.
        let Ok(result) = sim.run(&patterns, &input) else {
            return Ok(());
        };
        let expect = reference(&patterns, &input);
        prop_assert_eq!(
            result.matches, expect,
            "machine {} on {:?}",
            machine,
            patterns.iter().map(ToString::to_string).collect::<Vec<_>>()
        );
    }

    /// Cycle count is input length plus stalls, and only NBVA-capable
    /// machines ever stall.
    #[test]
    fn cycle_accounting_is_consistent(
        patterns in prop::collection::vec(arb_pattern(), 1..4),
        input in arb_input(),
    ) {
        for machine in Machine::all() {
            let sim = Simulator::new(machine);
            let Ok(result) = sim.run(&patterns, &input) else { return Ok(()) };
            prop_assert!(result.metrics.cycles >= input.len() as u64);
            if matches!(machine, Machine::Ca | Machine::Cama) {
                prop_assert_eq!(result.stall_cycles, 0, "machine {}", machine);
                prop_assert_eq!(result.metrics.cycles, input.len() as u64);
            }
        }
    }

    /// Energy and area are positive whenever work is done, and RAP's
    /// automatic mode choice never loses matches relative to forcing NFA.
    #[test]
    fn rap_auto_equals_forced_nfa(
        patterns in prop::collection::vec(arb_pattern(), 1..4),
        input in arb_input(),
    ) {
        let sim = Simulator::new(Machine::Rap);
        let Ok(auto) = sim.run(&patterns, &input) else { return Ok(()) };
        let Ok(compiled) = sim.compile_forced(&patterns, rap_compiler::Mode::Nfa) else {
            return Ok(());
        };
        let mapping = sim.map(&compiled);
        let forced = sim.simulate(&compiled, &mapping, &input);
        prop_assert_eq!(auto.matches, forced.matches);
        if !input.is_empty() {
            prop_assert!(auto.metrics.energy_uj > 0.0);
            prop_assert!(auto.metrics.area_mm2 > 0.0);
        }
    }

    /// `^`/`$`-anchored patterns report exactly the interpreter's matches,
    /// on both the batch and the streaming path.
    #[test]
    fn anchored_patterns_match_ground_truth(
        patterns in prop::collection::vec(arb_anchored(), 1..5),
        input in arb_input(),
        machine_idx in 0usize..4,
    ) {
        let machine = Machine::all()[machine_idx];
        let Some((batch, _, streaming)) = run_paths(machine, &patterns, &input) else {
            return Ok(());
        };
        let expect = reference_anchored(&patterns, &input);
        prop_assert_eq!(&batch.matches, &expect, "machine {} batch", machine);
        prop_assert_eq!(&streaming.matches, &expect, "machine {} streaming", machine);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tile- and array-spanning pattern sets (mixed with small ones) match
    /// the interpreter on every machine, batch and streaming alike, and the
    /// fanned-out batch run reports the traced run's modeled numbers. Ten
    /// or more wide patterns often fill two CA or CAMA arrays.
    #[test]
    fn wide_patterns_match_ground_truth(
        wide in prop::collection::vec(arb_wide_pattern(), 10..20),
        small in prop::collection::vec(arb_pattern(), 0..3),
        input in arb_wide_input(),
        machine_idx in 0usize..4,
    ) {
        let machine = Machine::all()[machine_idx];
        let regexes: Vec<Regex> = wide.into_iter().chain(small).collect();
        let Some((batch, serial, streaming)) =
            run_paths(machine, &unanchored(regexes.clone()), &input)
        else {
            return Ok(());
        };
        let expect = reference(&regexes, &input);
        prop_assert_eq!(&batch.matches, &expect, "machine {} batch", machine);
        prop_assert_eq!(modeled(&batch), modeled(&serial), "machine {} fanned out", machine);
        prop_assert_eq!(&streaming.matches, &expect, "machine {} streaming", machine);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The untraced batch run, which jumps idle input, equals the traced
    /// run, which steps every cycle, bit for bit, and reports the
    /// interpreter's matches; both count the same quiescent cycles as the
    /// streaming bank, one-shot or fed in chunks, and the chunked feeds
    /// hand out the batch run's matches.
    #[test]
    fn quiescent_fast_path_equals_stepping_every_cycle(
        patterns in prop::collection::vec(arb_quiet_pattern(), 1..5),
        input in arb_idle_runs(),
        sizes in prop::collection::vec(1usize..90, 1..4),
        machine_idx in 0usize..4,
    ) {
        let machine = Machine::all()[machine_idx];
        let sim = Simulator::new(machine);
        let Ok(compiled) = sim.compile_parsed(&patterns) else { return Ok(()) };
        let Ok(mapping) = sim.map_verified(&compiled) else { return Ok(()) };
        let config = TelemetryConfig { sample_every: 1, ring_capacity: 64 };
        let fast = rap_sim::simulate(&compiled, &mapping, &input, machine);
        let batch_tel = Telemetry::new(config.clone());
        let traced =
            rap_sim::simulate_traced(&compiled, &mapping, &input, machine, &batch_tel, "batch");
        prop_assert_eq!(&fast.matches, &reference_anchored(&patterns, &input));
        prop_assert_eq!(modeled(&fast), modeled(&traced));
        prop_assert_eq!(fast.metrics.energy_uj.to_bits(), traced.metrics.energy_uj.to_bits());
        prop_assert_eq!(fast.quiescent_cycles, traced.quiescent_cycles);
        prop_assert_eq!(quiescent_counter(&batch_tel, machine), fast.quiescent_cycles);

        let (streamed, _) = rap_sim::simulate_streaming(&compiled, &mapping, &input, machine);
        let stream_tel = Telemetry::new(config);
        let (streamed_traced, _) = rap_sim::simulate_streaming_traced(
            &compiled, &mapping, &input, machine, &stream_tel, "stream",
        );
        prop_assert_eq!(&streamed.matches, &fast.matches);
        prop_assert_eq!(modeled(&streamed), modeled(&streamed_traced));
        prop_assert_eq!(streamed.quiescent_cycles, fast.quiescent_cycles);
        prop_assert_eq!(quiescent_counter(&stream_tel, machine), fast.quiescent_cycles);

        let mut run = StreamRun::new(&compiled, &mapping, machine);
        let (mut fed, mut at) = (Vec::new(), 0usize);
        for &size in sizes.iter().cycle() {
            if at == input.len() {
                break;
            }
            let len = size.min(input.len() - at);
            fed.extend(run.feed(&compiled, &input[at..at + len]));
            at += len;
        }
        let (tail, chunked, _) = run.finish();
        fed.extend(tail);
        prop_assert_eq!(sorted(fed), fast.matches.clone());
        prop_assert_eq!(chunked.quiescent_cycles, fast.quiescent_cycles);
    }
}

/// The quiet corpus really exercises the fast path on every tile machine:
/// a bit-vector initial state, a `^`-anchored pattern behind an idle first
/// byte, and long idle runs.
#[test]
fn quiet_corpus_skips_idle_input() {
    let patterns: Vec<Pattern> = ["b{5,30}c", "^abc", "cab"]
        .iter()
        .map(|p| rap_regex::parse_pattern(p).expect("parses"))
        .collect();
    let input = [
        b"q".repeat(200),
        b"abbbbbbbc cab".to_vec(),
        b"z".repeat(150),
    ]
    .concat();
    for machine in Machine::all() {
        let sim = Simulator::new(machine);
        let compiled = sim.compile_parsed(&patterns).expect("compiles");
        let mapping = sim.map_verified(&compiled).expect("verifies");
        let result = rap_sim::simulate(&compiled, &mapping, &input, machine);
        assert!(
            result.quiescent_cycles >= 300,
            "{machine}: {} quiescent cycles",
            result.quiescent_cycles
        );
        assert_eq!(
            result.matches,
            reference_anchored(&patterns, &input),
            "{machine}"
        );
    }
}
