//! Property test for `max_match_span`: the span is enough lookback.
//!
//! The Q005 drain bound and B007 rest on the span: a match ending at byte
//! `e` must still be found by a scan of only `input[e - span..e]`. A span
//! one byte short loses exactly the matches that need the missing byte,
//! so the property compares every match end of the whole input against a
//! scan of its window, with the Glushkov NFA as the matcher.

use proptest::prelude::*;
use rap_automata::nfa::Nfa;
use rap_bound::max_match_span;
use rap_compiler::{Compiler, CompilerConfig, Mode};
use rap_regex::{CharClass, Regex};

/// Star-free patterns over {a, b, c}: literals, classes, counted
/// repetitions (wide ones of a class, which NBVA keeps as one vector
/// state, and short ones of any sub-pattern), concatenation, alternation
/// and optional parts.
fn arb_pattern() -> impl Strategy<Value = Regex> {
    let class = prop_oneof![
        Just(CharClass::single(b'a')),
        Just(CharClass::single(b'b')),
        Just(CharClass::single(b'c')),
        Just(CharClass::from_bytes([b'a', b'b'])),
        Just(CharClass::from_bytes([b'b', b'c'])),
    ];
    let leaf = prop_oneof![
        3 => class.clone().prop_map(Regex::Class),
        2 => (class, 0u32..12, 0u32..30)
            .prop_map(|(class, m, k)| Regex::repeat(Regex::Class(class), m, Some(m + k))),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            3 => prop::collection::vec(inner.clone(), 2..4).prop_map(Regex::concat),
            2 => prop::collection::vec(inner.clone(), 2..3).prop_map(Regex::alt),
            1 => inner.clone().prop_map(Regex::opt),
            1 => (inner, 1u32..3, 0u32..3)
                .prop_map(|(re, m, k)| Regex::repeat(re, m, Some(m + k))),
        ]
    })
    // Stateless patterns do not compile; huge unfoldings only slow the
    // reference matcher down.
    .prop_filter("one to 600 unfolded states", |re| {
        (1..=600).contains(&re.unfolded_size())
    })
}

fn arb_input() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        prop_oneof![3 => Just(b'a'), 3 => Just(b'b'), 2 => Just(b'c')],
        0..160,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Every match end of the whole input is also a match end of the
    /// `span` bytes before it, for the pattern compiled in the mode RAP
    /// decides and forced to NFA.
    #[test]
    fn span_lookback_finds_every_match(pattern in arb_pattern(), input in arb_input()) {
        let nfa = Nfa::from_regex(&pattern);
        let ends = nfa.match_ends(&input);
        let compiler = Compiler::new(CompilerConfig::default());
        for image in [compiler.compile(&pattern), compiler.compile_with_mode(&pattern, Mode::Nfa)] {
            let image = image.expect("star-free patterns compile");
            let span = max_match_span(std::slice::from_ref(&image))
                .expect("star-free patterns have a finite span");
            for &end in &ends {
                let window = &input[end.saturating_sub(span)..end];
                prop_assert!(
                    nfa.match_ends(window).last() == Some(&window.len()),
                    "{} as {:?}: the match ending at {} needs more than {} byte(s) of {:?}",
                    pattern,
                    image.mode(),
                    end,
                    span,
                    String::from_utf8_lossy(&input),
                );
            }
        }
    }
}
