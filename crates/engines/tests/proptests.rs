//! Fuzzed equivalence of the bit-parallel engines against the NFA
//! interpreter.

use proptest::prelude::*;
use rap_engines::{
    BatchEngine, Dfa, Engine, HybridEngine, NfaEngine, PrefilteredNfa, ShiftAndEngine,
};
use rap_regex::{CharClass, Regex};

fn arb_pattern() -> impl Strategy<Value = Regex> {
    let leaf = prop_oneof![
        Just(Regex::literal_byte(b'a')),
        Just(Regex::literal_byte(b'b')),
        Just(Regex::literal_byte(b'c')),
        Just(Regex::Class(CharClass::from_bytes([b'a', b'c']))),
        Just(Regex::Class(CharClass::dot())),
    ];
    leaf.prop_recursive(3, 16, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..5).prop_map(Regex::concat),
            prop::collection::vec(inner.clone(), 2..3).prop_map(Regex::alt),
            inner.clone().prop_map(Regex::opt),
            inner.clone().prop_map(Regex::star),
            (inner, 1u32..5).prop_map(|(r, n)| Regex::repeat(r, n, Some(n + 2))),
        ]
    })
    .prop_filter("needs at least one state", |re| re.unfolded_size() > 0)
}

fn arb_input() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        prop_oneof![4 => Just(b'a'), 4 => Just(b'b'), 4 => Just(b'c'), 1 => Just(b'\n')],
        0..96,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn shift_and_equals_interpreter(
        patterns in prop::collection::vec(arb_pattern(), 1..5),
        input in arb_input(),
    ) {
        let expect = NfaEngine::new(&patterns).scan(&input);
        let got = ShiftAndEngine::new(&patterns).scan(&input);
        prop_assert_eq!(
            got, expect,
            "patterns {:?}",
            patterns.iter().map(ToString::to_string).collect::<Vec<_>>()
        );
    }

    #[test]
    fn prefiltered_equals_interpreter(
        patterns in prop::collection::vec(arb_pattern(), 1..5),
        input in arb_input(),
    ) {
        let expect = NfaEngine::new(&patterns).scan(&input);
        let got = PrefilteredNfa::new(&patterns).scan(&input);
        prop_assert_eq!(
            got, expect,
            "patterns {:?}",
            patterns.iter().map(ToString::to_string).collect::<Vec<_>>()
        );
    }

    #[test]
    fn dfa_and_hybrid_equal_interpreter(
        patterns in prop::collection::vec(arb_pattern(), 1..4),
        input in arb_input(),
    ) {
        let expect = NfaEngine::new(&patterns).scan(&input);
        if let Some(dfa) = Dfa::determinize(&patterns, 20_000) {
            prop_assert_eq!(
                dfa.scan(&input), expect.clone(),
                "DFA, patterns {:?}",
                patterns.iter().map(ToString::to_string).collect::<Vec<_>>()
            );
        }
        let hybrid = HybridEngine::new(&patterns, 20_000);
        prop_assert_eq!(
            hybrid.scan(&input), expect,
            "hybrid, patterns {:?}",
            patterns.iter().map(ToString::to_string).collect::<Vec<_>>()
        );
    }

    #[test]
    fn hybrid_with_tiny_cap_equals_interpreter(
        patterns in prop::collection::vec(arb_pattern(), 2..7),
        input in arb_input(),
        max_states in 2usize..65,
    ) {
        // A cap this small splits the DFA path into several partitions,
        // some holding a single pattern, and sends the patterns over the
        // per-pattern budget to the NFA path.
        let expect = NfaEngine::new(&patterns).scan(&input);
        let hybrid = HybridEngine::new(&patterns, max_states);
        prop_assert_eq!(
            hybrid.scan(&input), expect,
            "cap {}, patterns {:?}",
            max_states,
            patterns.iter().map(ToString::to_string).collect::<Vec<_>>()
        );
    }

    #[test]
    fn batch_equals_interpreter(
        patterns in prop::collection::vec(arb_pattern(), 1..4),
        input in arb_input(),
        chunk in 1usize..64,
    ) {
        let expect = NfaEngine::new(&patterns).scan(&input);
        let got = BatchEngine::new(&patterns, chunk).scan(&input);
        prop_assert_eq!(
            got, expect,
            "patterns {:?} chunk {}",
            patterns.iter().map(ToString::to_string).collect::<Vec<_>>(),
            chunk
        );
    }
}
