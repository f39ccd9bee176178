//! Homogeneous NFA (§2.1) and its set-based reference executor.
//!
//! This is the ground-truth matcher of the repository: the hardware
//! simulator's results are differentially tested against it (the paper
//! performs the analogous consistency check against Hyperscan).

use crate::bitvec::BitVec;
use crate::glushkov::{self, PosKind};
use crate::StateId;
use rap_regex::rewrite::unfold_all;
use rap_regex::{CharClass, Regex};
use serde::{Deserialize, Serialize};

/// One NFA state: its character class and successors.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NfaState {
    /// Character class labeling every transition *into* this state
    /// (homogeneity).
    pub cc: CharClass,
    /// Successor state ids.
    pub succ: Vec<StateId>,
    /// Whether this state reports a match when active.
    pub is_final: bool,
}

/// A homogeneous nondeterministic finite automaton.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Nfa {
    states: Vec<NfaState>,
    initial: Vec<StateId>,
    /// Whether the regex matches the empty string (reported at every offset
    /// under unanchored semantics, so executors expose it separately).
    matches_empty: bool,
    /// `^`: initial states arm only on the first symbol.
    anchored_start: bool,
    /// `$`: matches count only when they end at the stream's final symbol.
    anchored_end: bool,
}

impl Nfa {
    /// Builds the Glushkov automaton of `regex`. Bounded repetitions are
    /// fully unfolded first — this is exactly what the paper's basic-NFA
    /// baselines (CA, CAMA, and RAP's NFA mode) execute.
    ///
    /// # Example
    ///
    /// ```
    /// use rap_regex::parse;
    /// use rap_automata::nfa::Nfa;
    ///
    /// let nfa = Nfa::from_regex(&parse("a(.a){3}b")?);
    /// assert_eq!(nfa.len(), 8); // unfolded to a.a.a.ab
    /// # Ok::<(), rap_regex::ParseError>(())
    /// ```
    pub fn from_regex(regex: &Regex) -> Nfa {
        let unfolded = unfold_all(regex);
        let g = glushkov::construct(&unfolded, false);
        let mut states: Vec<NfaState> = g
            .positions
            .iter()
            .zip(g.follow.iter())
            .map(|(p, follow)| {
                debug_assert_eq!(p.kind, PosKind::Plain);
                NfaState {
                    cc: p.cc,
                    succ: follow.clone(),
                    is_final: false,
                }
            })
            .collect();
        for &f in &g.last {
            states[f as usize].is_final = true;
        }
        Nfa {
            states,
            initial: g.first,
            matches_empty: g.nullable,
            anchored_start: false,
            anchored_end: false,
        }
    }

    /// Builds the automaton of a parsed pattern, honouring its `^`/`$`
    /// anchors: `^` restricts thread starts to the first symbol, `$`
    /// restricts reports to matches ending at the stream's last symbol.
    ///
    /// # Example
    ///
    /// ```
    /// use rap_regex::parse_pattern;
    /// use rap_automata::nfa::Nfa;
    ///
    /// let nfa = Nfa::from_pattern(&parse_pattern("^ab")?);
    /// assert_eq!(nfa.match_ends(b"abab"), vec![2]); // only the anchored hit
    /// # Ok::<(), rap_regex::ParseError>(())
    /// ```
    pub fn from_pattern(pattern: &rap_regex::parser::Pattern) -> Nfa {
        Nfa::from_regex(&pattern.regex).with_anchors(pattern.anchored_start, pattern.anchored_end)
    }

    /// Assembles an automaton from explicit parts — the constructor used by
    /// static-analysis rewrites (dead-state pruning, equivalence merging)
    /// that must rebuild an [`Nfa`] after editing its state graph. Anchoring
    /// flags start unset; chain [`Nfa::with_anchors`] to restore them.
    ///
    /// # Panics
    ///
    /// Panics if any initial id or successor id is out of range.
    pub fn from_parts(states: Vec<NfaState>, initial: Vec<StateId>, matches_empty: bool) -> Nfa {
        let n = states.len();
        assert!(
            initial.iter().all(|&q| (q as usize) < n),
            "initial id out of range"
        );
        assert!(
            states
                .iter()
                .all(|s| s.succ.iter().all(|&q| (q as usize) < n)),
            "successor id out of range"
        );
        Nfa {
            states,
            initial,
            matches_empty,
            anchored_start: false,
            anchored_end: false,
        }
    }

    /// Sets the anchoring flags (builder style).
    #[must_use]
    pub fn with_anchors(mut self, start: bool, end: bool) -> Nfa {
        self.anchored_start = start;
        self.anchored_end = end;
        self
    }

    /// Whether `^` anchoring is set.
    pub fn anchored_start(&self) -> bool {
        self.anchored_start
    }

    /// Whether `$` anchoring is set.
    pub fn anchored_end(&self) -> bool {
        self.anchored_end
    }

    /// Number of states (STEs).
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the automaton has no states.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The states, indexed by [`StateId`].
    pub fn states(&self) -> &[NfaState] {
        &self.states
    }

    /// The always-available initial states.
    pub fn initial(&self) -> &[StateId] {
        &self.initial
    }

    /// Whether the language contains ε.
    pub fn matches_empty(&self) -> bool {
        self.matches_empty
    }

    /// Whether the automaton is linear (a chain `q0 → q1 → … → qn−1`): one
    /// initial state, each state's only successor is the next one, and only
    /// the last state is final. Such automata are LNFAs (§2.1).
    pub fn is_linear(&self) -> bool {
        if self.states.is_empty() {
            return false;
        }
        if self.initial != [0] {
            return false;
        }
        let n = self.states.len();
        for (i, s) in self.states.iter().enumerate() {
            let expected: &[StateId] = if i + 1 < n { &[i as StateId + 1] } else { &[] };
            if s.succ != expected {
                return false;
            }
            if s.is_final != (i + 1 == n) {
                return false;
            }
        }
        true
    }

    /// Renders the automaton in Graphviz DOT syntax (homogeneous style:
    /// states carry their character class as in the paper's figures;
    /// initial states get an inbound arrow, finals a double circle).
    ///
    /// # Example
    ///
    /// ```
    /// use rap_regex::parse;
    /// use rap_automata::nfa::Nfa;
    ///
    /// let dot = Nfa::from_regex(&parse("ab")?).to_dot("ab");
    /// assert!(dot.contains("digraph"));
    /// assert!(dot.contains("q0 -> q1"));
    /// # Ok::<(), rap_regex::ParseError>(())
    /// ```
    pub fn to_dot(&self, title: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{}\" {{", title.replace('"', "'"));
        let _ = writeln!(out, "  rankdir=LR;");
        let _ = writeln!(out, "  node [shape=circle];");
        for (q, s) in self.states.iter().enumerate() {
            let shape = if s.is_final { "doublecircle" } else { "circle" };
            let label = format!("q{q}: {}", s.cc)
                .replace('\\', "\\\\")
                .replace('"', "\\\"");
            let _ = writeln!(out, "  q{q} [shape={shape}, label=\"{label}\"];");
        }
        for (i, &q) in self.initial.iter().enumerate() {
            let _ = writeln!(out, "  start{i} [shape=point];");
            let _ = writeln!(out, "  start{i} -> q{q};");
        }
        for (p, s) in self.states.iter().enumerate() {
            for &q in &s.succ {
                let _ = writeln!(out, "  q{p} -> q{q};");
            }
        }
        out.push_str("}\n");
        out
    }

    /// Creates a fresh run of the automaton.
    pub fn start(&self) -> NfaRun<'_> {
        NfaRun {
            nfa: self,
            active: BitVec::zeros(self.states.len()),
            scratch: Vec::new(),
            pos: 0,
        }
    }

    /// Convenience: feeds `input` and returns the offsets *just past* each
    /// matching position (a match ending at byte `i` reports `i + 1`).
    pub fn match_ends(&self, input: &[u8]) -> Vec<usize> {
        let mut run = self.start();
        let mut out = Vec::new();
        for (i, &b) in input.iter().enumerate() {
            if run.step(b) && (!self.anchored_end || i + 1 == input.len()) {
                out.push(i + 1);
            }
        }
        out
    }

    /// Convenience: whether any match occurs in `input`.
    pub fn is_match(&self, input: &[u8]) -> bool {
        let mut run = self.start();
        input.iter().any(|&b| run.step(b))
    }
}

/// An in-progress unanchored run over an [`Nfa`].
#[derive(Clone, Debug)]
pub struct NfaRun<'a> {
    nfa: &'a Nfa,
    active: BitVec,
    /// Reused candidate buffer (sparse stepping).
    scratch: Vec<StateId>,
    /// Symbols consumed so far (drives `^` anchoring).
    pos: u64,
}

impl NfaRun<'_> {
    /// Consumes one input symbol; returns whether a match ends here.
    ///
    /// Initial states are candidates on every symbol (the always-available
    /// initial STEs of AP-style processors), which yields unanchored
    /// semantics. The step is sparse: work is proportional to the active
    /// set and its out-edges, not to the automaton size.
    pub fn step(&mut self, byte: u8) -> bool {
        let nfa = self.nfa;
        // Gather candidates: successors of active states + initial states,
        // deduplicated through the `next` bitmap itself.
        let mut next = std::mem::take(&mut self.active);
        self.scratch.clear();
        let scratch = &mut self.scratch;
        for p in next.iter_ones() {
            scratch.extend_from_slice(&nfa.states[p].succ);
        }
        next.clear();
        // `^`-anchored automata arm their initial states only once.
        if !nfa.anchored_start || self.pos == 0 {
            scratch.extend_from_slice(&nfa.initial);
        }
        self.pos += 1;
        // State matching: available AND character class matches.
        let mut matched = false;
        for &q in scratch.iter() {
            let state = &nfa.states[q as usize];
            if state.cc.contains(byte) {
                next.set(q as usize, true);
                matched |= state.is_final;
            }
        }
        self.active = next;
        matched
    }

    /// Number of currently active states (used by energy models and tests).
    pub fn active_count(&self) -> u32 {
        self.active.count_ones()
    }

    /// The raw activation bitmap (bit q = state q active).
    pub fn active_bits(&self) -> &BitVec {
        &self.active
    }

    /// Forces state `q` active, as if its character class had just matched
    /// — used by prefilter-driven engines that verify a literal prefix out
    /// of band and inject the post-prefix state.
    pub fn activate(&mut self, q: StateId) {
        self.active.set(q as usize, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_regex::parse;

    fn nfa(pattern: &str) -> Nfa {
        Nfa::from_regex(&parse(pattern).expect("pattern parses"))
    }

    #[test]
    fn literal_matching() {
        let n = nfa("abc");
        assert_eq!(n.match_ends(b"abcabc"), vec![3, 6]);
        assert_eq!(n.match_ends(b"xxabcxx"), vec![5]);
        assert!(n.match_ends(b"ab").is_empty());
    }

    #[test]
    fn overlapping_matches() {
        let n = nfa("aa");
        assert_eq!(n.match_ends(b"aaaa"), vec![2, 3, 4]);
    }

    #[test]
    fn paper_example_2_1_semantics() {
        // a([bc]|b.*d) over "abzzd": matches "ab" at 2 and "abzzd" at 5.
        let n = nfa("a([bc]|b.*d)");
        assert_eq!(n.match_ends(b"abzzd"), vec![2, 5]);
        // "ac" matches via [bc].
        assert_eq!(n.match_ends(b"ac"), vec![2]);
    }

    #[test]
    fn unfolding_bounded_repetition() {
        // a(.a){3}b unfolds to 8 states (Fig. 3 of the paper).
        let n = nfa("a(.a){3}b");
        assert_eq!(n.len(), 8);
        assert_eq!(n.match_ends(b"axayazab"), vec![8]);
        assert!(n.match_ends(b"axayab").is_empty());
    }

    #[test]
    fn alternation_and_optional() {
        let n = nfa("ab?c");
        assert_eq!(n.match_ends(b"ac abc"), vec![2, 6]);
    }

    #[test]
    fn star_loop() {
        let n = nfa("ab*c");
        assert_eq!(n.match_ends(b"ac"), vec![2]);
        assert_eq!(n.match_ends(b"abbbc"), vec![5]);
        assert!(n.match_ends(b"abbb").is_empty());
    }

    #[test]
    fn dot_does_not_match_newline() {
        let n = nfa("a.c");
        assert!(n.match_ends(b"a\nc").is_empty());
        assert_eq!(n.match_ends(b"axc"), vec![3]);
    }

    #[test]
    fn empty_language_nullable_flag() {
        let n = Nfa::from_regex(&Regex::Empty);
        assert!(n.matches_empty());
        assert!(n.is_empty());
        assert!(n.match_ends(b"anything").is_empty());
    }

    #[test]
    fn linearity_detection() {
        assert!(nfa("abc").is_linear());
        assert!(nfa("a[bc]d").is_linear());
        assert!(!nfa("ab?c").is_linear()); // skip edge a->c breaks the chain
        assert!(!nfa("a|b").is_linear());
        assert!(!nfa("ab*c").is_linear());
        // A pure bounded repetition unfolds into a chain, which IS linear.
        assert!(nfa("a(.a){3}b").is_linear());
    }

    #[test]
    fn active_count_tracks_parallel_threads() {
        let n = nfa("a.{3}");
        let mut run = n.start();
        run.step(b'a');
        assert_eq!(run.active_count(), 1);
        run.step(b'a'); // both initial 'a' and '.' threads
        assert_eq!(run.active_count(), 2);
    }

    #[test]
    fn is_match_short_circuit() {
        let n = nfa("needle");
        assert!(n.is_match(b"say needle twice"));
        assert!(!n.is_match(b"nothing here"));
    }

    #[test]
    fn case_class_matching() {
        let n = nfa("[0-9]{2}");
        assert_eq!(n.match_ends(b"ab12cd345"), vec![4, 8, 9]);
    }
}
