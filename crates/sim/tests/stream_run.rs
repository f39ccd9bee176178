//! The resumable bank run against the one-shot streaming run: feeding a
//! stream to a [`StreamRun`] in arbitrary chunks hands out exactly the
//! matches of [`rap_sim::simulate_streaming`] over the whole stream — the
//! feeds' events, in order, followed by the `$`-anchored events `finish`
//! returns.
//!
//! The pattern pool mixes all three RAP modes (bit-vector counters that
//! stall NBVA arrays, literal chains for LNFA bins, plain NFAs),
//! `^`- and `$`-anchored patterns, and unbounded loops, and every case
//! picks one of the four machines.

use proptest::prelude::*;
use rap_circuit::Machine;
use rap_compiler::Compiled;
use rap_mapper::Mapping;
use rap_sim::{MatchEvent, Simulator, StreamRun};

const POOL: [&str; 14] = [
    "abc",
    "ab{8,20}c",
    "b{6}a",
    "a[bc]{3,12}b",
    "cabca",
    "bcab",
    "a.*b",
    "c[^a]*a",
    "^ab",
    "^c+b",
    "ca$",
    "ab{5,9}$",
    "a(b|c)a",
    "c{12}",
];

fn plan(machine: Machine, picks: &[usize]) -> (Vec<Compiled>, Mapping) {
    let sim = Simulator::new(machine).with_bv_depth(4);
    let patterns: Vec<rap_regex::Pattern> = picks
        .iter()
        .map(|&p| rap_regex::parse_pattern(POOL[p]).expect("pool patterns parse"))
        .collect();
    let compiled = sim
        .compile_parsed(&patterns)
        .expect("pool patterns compile");
    let mapping = sim.map_verified(&compiled).expect("pool plans verify");
    (compiled, mapping)
}

/// Feeds `input` to a fresh run in pieces of the given sizes (cycled),
/// returning every feed's events, `finish`'s `$` events, and the run's
/// match count.
fn chunked(
    compiled: &[Compiled],
    mapping: &Mapping,
    machine: Machine,
    input: &[u8],
    sizes: &[usize],
) -> (Vec<MatchEvent>, Vec<MatchEvent>, u64) {
    let mut run = StreamRun::new(compiled, mapping, machine);
    let mut fed = Vec::new();
    let (mut at, mut round) = (0usize, 0usize);
    while at < input.len() {
        let len = sizes[round % sizes.len()].min(input.len() - at);
        round += 1;
        let events = run.feed(compiled, &input[at..at + len]);
        assert!(
            events.iter().all(|m| m.end > at && m.end <= at + len),
            "a feed returned an event outside its chunk"
        );
        fed.extend(events);
        at += len;
    }
    let (tail, result, _) = run.finish();
    assert_eq!(result.metrics.input_chars, input.len() as u64);
    (fed, tail, result.metrics.matches)
}

fn arb_input() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        prop_oneof![
            6 => Just(b'a'),
            8 => Just(b'b'),
            8 => Just(b'c'),
            1 => Just(b'x'),
        ],
        0..300,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any chunking of any stream: the feeds, in order, hand out exactly
    /// the one-shot run's matches that are not `$`-anchored, the finish
    /// exactly its `$`-anchored ones, and the match counts agree.
    #[test]
    fn chunked_feeds_equal_one_shot_streaming(
        picks in prop::collection::vec(0..POOL.len(), 1..6),
        input in arb_input(),
        sizes in prop::collection::vec(0usize..70, 1..6),
        machine_idx in 0usize..4,
    ) {
        let machine = Machine::all()[machine_idx];
        let (compiled, mapping) = plan(machine, &picks);
        // Zero-size pieces are empty feeds; keep at least one real one.
        let mut sizes = sizes;
        sizes.push(1);
        let (fed, tail, count) = chunked(&compiled, &mapping, machine, &input, &sizes);
        let (whole, _) = rap_sim::simulate_streaming(&compiled, &mapping, &input, machine);
        let (dollar, plain): (Vec<MatchEvent>, Vec<MatchEvent>) = whole
            .matches
            .iter()
            .copied()
            .partition(|m| compiled[m.pattern].anchored_end());
        let sources: Vec<&str> = picks.iter().map(|&p| POOL[p]).collect();
        prop_assert_eq!(fed, plain, "machine {} on {:?}", machine, &sources);
        prop_assert_eq!(tail, dollar, "machine {} on {:?}", machine, &sources);
        prop_assert_eq!(count, whole.metrics.matches);
    }
}

/// The pool really exercises what the property is for: bit-vector stalls
/// on a chunked RAP run, and `^`, `$` and unbounded-loop matches.
#[test]
fn pool_covers_stalls_anchors_and_loops() {
    let picks: Vec<usize> = (0..POOL.len()).collect();
    let input = b"abbbbbbbbbbc ab cabca a[ccb cbbbbbba abcb ccccccccccccab ca".repeat(3);
    let input: Vec<u8> = [b"ab".as_slice(), &input, b"abbbbbb"].concat();
    let (compiled, mapping) = plan(Machine::Rap, &picks);
    let (fed, tail, _) = chunked(&compiled, &mapping, Machine::Rap, &input, &[17, 5, 64]);
    let mut run = StreamRun::new(&compiled, &mapping, Machine::Rap);
    run.feed(&compiled, &input[..40]);
    assert!(
        run.stats().stall_cycles.iter().sum::<u64>() > 0,
        "expected bit-vector stalls"
    );
    let hit = |source: &str| {
        let p = POOL.iter().position(|&s| s == source).expect("in pool");
        fed.iter().chain(&tail).any(|m| m.pattern == p)
    };
    for source in ["^ab", "a.*b", "ab{5,9}$", "ab{8,20}c"] {
        assert!(hit(source), "{source} never matched");
    }
    assert!(!tail.is_empty(), "the `$` tail is empty");
}
