//! Linear NFA (LNFA) and the Shift-And executor (§2.1, Fig. 2).
//!
//! An LNFA is a homogeneous NFA whose states form a chain
//! `q0 → q1 → … → qn−1`. RAP's LNFA mode (and software matchers like
//! Hyperscan) execute such automata with the bit-parallel Shift-And
//! algorithm. Following §3.2, the hardware variant assumes a single initial
//! state `q0` and a single final state `qn−1`, so an [`Lnfa`] here is simply
//! a non-empty string of character classes; regexes with unions or optionals
//! are first rewritten into a *set* of LNFAs ([`Lnfa::from_regex`], §4.2).

use crate::bitvec::BitVec;
use rap_regex::rewrite::to_sequences;
use rap_regex::{CharClass, Regex};
use serde::{Deserialize, Serialize};

/// A linear NFA: a chain of character classes with one initial and one
/// final state.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Lnfa {
    classes: Vec<CharClass>,
}

/// The result of rewriting a regex for LNFA execution: a finite union of
/// chains, plus whether the original language contained ε (an empty chain).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LnfaSet {
    /// The chains; matching the original regex means matching any of them.
    pub lnfas: Vec<Lnfa>,
    /// Whether the regex also matched the empty string.
    pub matches_empty: bool,
}

impl Lnfa {
    /// Creates an LNFA from a chain of character classes.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty (ε is not an LNFA; see [`LnfaSet`]).
    pub fn new(classes: Vec<CharClass>) -> Lnfa {
        assert!(!classes.is_empty(), "an LNFA needs at least one state");
        Lnfa { classes }
    }

    /// Attempts the LNFA rewriting of §4.2: distributes union over
    /// concatenation and unfolds bounded repetitions, giving up (returning
    /// `None`) if the pattern has an unbounded loop or the expansion
    /// exceeds `state_budget` states.
    ///
    /// # Example
    ///
    /// ```
    /// use rap_regex::parse;
    /// use rap_automata::lnfa::Lnfa;
    ///
    /// // Example 4.4 of the paper: a(b{1,2}|c)e → abe | abbe | ace.
    /// let set = Lnfa::from_regex(&parse("a(b{1,2}|c)e")?, 64).expect("linearizable");
    /// assert_eq!(set.lnfas.len(), 3);
    /// # Ok::<(), rap_regex::ParseError>(())
    /// ```
    pub fn from_regex(regex: &Regex, state_budget: u64) -> Option<LnfaSet> {
        let seqs = to_sequences(regex, state_budget)?;
        let mut matches_empty = false;
        let mut lnfas = Vec::with_capacity(seqs.len());
        for s in seqs {
            if s.is_empty() {
                matches_empty = true;
            } else {
                lnfas.push(Lnfa { classes: s });
            }
        }
        Some(LnfaSet {
            lnfas,
            matches_empty,
        })
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether the chain is empty (never true for a constructed `Lnfa`).
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// The chain of character classes, `q0` first.
    pub fn classes(&self) -> &[CharClass] {
        &self.classes
    }

    /// Creates a fresh Shift-And run.
    pub fn start(&self) -> ShiftAndRun<'_> {
        ShiftAndRun {
            lnfa: self,
            states: BitVec::zeros(self.classes.len()),
        }
    }

    /// Offsets just past each match end in `input`.
    pub fn match_ends(&self, input: &[u8]) -> Vec<usize> {
        let mut run = self.start();
        let mut out = Vec::new();
        for (i, &b) in input.iter().enumerate() {
            if run.step(b) {
                out.push(i + 1);
            }
        }
        out
    }

    /// Whether any match occurs in `input`.
    pub fn is_match(&self, input: &[u8]) -> bool {
        let mut run = self.start();
        input.iter().any(|&b| run.step(b))
    }
}

/// An in-progress Shift-And run (the `states` register of Fig. 2).
///
/// Bit `i` set means state `q_i` is active. The software convention here is
/// LSB = `q0` with an *up* shift; the hardware of §3.2 uses the mirrored
/// MSB-first layout with a right shift — the two are isomorphic.
#[derive(Clone, Debug)]
pub struct ShiftAndRun<'a> {
    lnfa: &'a Lnfa,
    states: BitVec,
}

impl ShiftAndRun<'_> {
    /// Consumes one symbol; returns whether a match ends here.
    ///
    /// Implements `states = ((states << 1) | maskInitial) AND labels[b]`
    /// followed by the `maskFinal` test, computing `labels` from the stored
    /// character classes as the RAP hardware does (§3.2: "we compute labels
    /// from the STE CC instead of storing it directly").
    pub fn step(&mut self, byte: u8) -> bool {
        let n = self.lnfa.classes.len();
        self.states.shift_up();
        self.states.set(0, true); // unanchored: q0 is always available
        for (i, cc) in self.lnfa.classes.iter().enumerate() {
            if self.states.get(i) && !cc.contains(byte) {
                self.states.set(i, false);
            }
        }
        self.states.get(n - 1)
    }

    /// Number of active states.
    pub fn active_count(&self) -> u32 {
        self.states.count_ones()
    }

    /// The raw `states` register (bit i = state `q_i`).
    pub fn states(&self) -> &BitVec {
        &self.states
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::Nfa;
    use rap_regex::parse;

    fn chain(pattern: &str) -> Lnfa {
        let set =
            Lnfa::from_regex(&parse(pattern).expect("parses"), 1 << 20).expect("linearizable");
        assert_eq!(set.lnfas.len(), 1, "{pattern} is a single chain");
        set.lnfas.into_iter().next().expect("one chain")
    }

    #[test]
    fn fig2_example() {
        // The paper's Fig. 6 LNFA a.[bc] over input "abc": match at 3.
        let l = chain("a.[bc]");
        assert_eq!(l.match_ends(b"abc"), vec![3]);
        assert!(l.match_ends(b"ab").is_empty());
    }

    #[test]
    fn literal_chain_matches() {
        let l = chain("abc");
        assert_eq!(l.match_ends(b"zabcabc"), vec![4, 7]);
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn overlapping_chains() {
        let l = chain("aa");
        assert_eq!(l.match_ends(b"aaa"), vec![2, 3]);
    }

    #[test]
    fn single_state_chain() {
        let l = chain("[xy]");
        assert_eq!(l.match_ends(b"axbyc"), vec![2, 4]);
    }

    #[test]
    fn agrees_with_nfa_on_linear_patterns() {
        for pattern in ["abc", "a.c", "[0-9][0-9][a-f]", "x.{3}y"] {
            let re = parse(pattern).expect("parses");
            let l_set = Lnfa::from_regex(&re, 1 << 20).expect("linearizable");
            let n = Nfa::from_regex(&re);
            let input = b"ab0c 19af x123y abc a.c xxxxy";
            let mut lnfa_ends: Vec<usize> = Vec::new();
            for (i, _) in input.iter().enumerate() {
                let end = i + 1;
                if l_set
                    .lnfas
                    .iter()
                    .any(|l| l.match_ends(&input[..end]).contains(&end))
                {
                    lnfa_ends.push(end);
                }
            }
            assert_eq!(lnfa_ends, n.match_ends(input), "{pattern}");
        }
    }

    #[test]
    fn rewriting_distributes_union() {
        let set = Lnfa::from_regex(&parse("a(b|c)d").expect("parses"), 64).expect("linearizable");
        assert_eq!(set.lnfas.len(), 2);
        assert!(set.lnfas.iter().all(|l| l.len() == 3));
        assert!(!set.matches_empty);
    }

    #[test]
    fn rewriting_rejects_loops() {
        assert!(Lnfa::from_regex(&parse("ab*c").expect("parses"), 64).is_none());
        assert!(Lnfa::from_regex(&parse("a+").expect("parses"), 64).is_none());
    }

    #[test]
    fn epsilon_reported_via_flag() {
        let set = Lnfa::from_regex(&parse("a?").expect("parses"), 64).expect("linearizable");
        assert!(set.matches_empty);
        assert_eq!(set.lnfas.len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn empty_chain_rejected() {
        let _ = Lnfa::new(vec![]);
    }

    #[test]
    fn active_count_reflects_threads() {
        let l = chain("aaa");
        let mut run = l.start();
        run.step(b'a');
        run.step(b'a');
        assert_eq!(run.active_count(), 2);
    }
}
