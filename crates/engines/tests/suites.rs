//! The CPU baseline on the seven benchmark suites: `HybridEngine` must
//! agree with the NFA interpreter and send most patterns to its DFAs.

use rap_engines::{Engine, HybridEngine, NfaEngine};
use rap_regex::Regex;
use rap_workloads::Suite;

#[test]
fn hybrid_equals_interpreter_and_covers_the_suites() {
    let (mut patterns_total, mut dfa_total) = (0, 0);
    for suite in Suite::all() {
        let sources = rap_workloads::generate_patterns(suite, 60, 42);
        let input = rap_workloads::generate_input(&sources, 2_000, 0.02, 1);
        let patterns: Vec<Regex> = sources
            .iter()
            .map(|s| rap_regex::parse_pattern(s).expect("parses").regex)
            .collect();
        let hybrid = HybridEngine::new(&patterns, HybridEngine::DEFAULT_MAX_STATES);
        assert_eq!(
            hybrid.scan(&input),
            NfaEngine::new(&patterns).scan(&input),
            "{suite}"
        );
        patterns_total += patterns.len();
        dfa_total += hybrid.dfa_count();
    }
    let coverage = dfa_total as f64 / patterns_total as f64;
    assert!(coverage >= 0.8, "DFA coverage {coverage:.3}");
}
