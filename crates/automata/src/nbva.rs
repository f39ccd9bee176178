//! Nondeterministic bit vector automata (NBVA, §2.1) and their reference
//! executor.
//!
//! An NBVA extends a homogeneous NFA with *bit-vector states*: a bounded
//! repetition of a single character class, `σ{m}` or `σ{0,k}`, is kept as
//! one control state carrying a bit vector of width m (resp. k) instead of
//! being unfolded into m control states. The configuration of a BV state is
//! the set of in-flight repetition counts: bit i set means "some matching
//! thread has consumed i+1 repetitions so far".
//!
//! The supported update actions mirror the hardware (§3.1):
//!
//! * entering the state performs `set1` (bit 0 := 1),
//! * a subsequent symbol matching σ performs `shft(v)` (counts advance;
//!   the top bit overflows away, which is the hardware's overflow check),
//! * successors observe the state through a read action — [`ReadAction::Exact`]
//!   (`r(m)`: bit m set) or [`ReadAction::All`] (`rAll`: any bit set).
//!
//! General patterns are normalized first: repetitions with non-class bodies
//! or no upper bound are unfolded, and `σ{m,n}` (0 < m < n) is split into
//! `σ{m}·σ{0,n−m}` exactly as the compiler does (§4.1).

use crate::bitvec::BitVec;
use crate::glushkov::{self, PosKind};
use crate::StateId;
use rap_regex::rewrite::{split_bounded, unfold_below_threshold};
use rap_regex::{CharClass, Regex};
use serde::{Deserialize, Serialize};

/// How successors (and the finalization function) observe a BV state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReadAction {
    /// `r(m)`: the read succeeds when exactly m repetitions have been
    /// consumed by some thread (bit m, 1-indexed as in the paper).
    Exact(u32),
    /// `rAll`: the read succeeds when between 1 and `width` repetitions
    /// have been consumed by some thread.
    All,
}

/// The bit-vector role of a state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum StateKind {
    /// Ordinary control state (activation is a single bit).
    Plain,
    /// Bit-vector state tracking a bounded repetition.
    Bv {
        /// Bit-vector width w(q).
        width: u32,
        /// Read action exposed to successors.
        read: ReadAction,
    },
}

/// One NBVA state.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NbvaState {
    /// Character class labeling every transition into this state.
    pub cc: CharClass,
    /// Plain or bit-vector role.
    pub kind: StateKind,
    /// Successor emission edges (BV self-advance is implicit, not listed).
    pub succ: Vec<StateId>,
    /// Whether a successful read/activation here reports a match.
    pub is_final: bool,
}

impl NbvaState {
    /// Bit-vector width (0 for plain states).
    pub fn width(&self) -> u32 {
        match self.kind {
            StateKind::Plain => 0,
            StateKind::Bv { width, .. } => width,
        }
    }
}

/// A nondeterministic bit vector automaton.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Nbva {
    states: Vec<NbvaState>,
    initial: Vec<StateId>,
    matches_empty: bool,
    /// `^`: initial states arm only on the first symbol.
    anchored_start: bool,
    /// `$`: matches count only when they end at the stream's final symbol.
    anchored_end: bool,
}

impl Nbva {
    /// Builds the NBVA of `regex`, keeping single-class bounded repetitions
    /// whose upper bound exceeds `unfold_threshold` as bit-vector states
    /// (the compiler's unfolding rewriting, §4.1) and unfolding everything
    /// else.
    ///
    /// # Example
    ///
    /// ```
    /// use rap_regex::parse;
    /// use rap_automata::nbva::Nbva;
    ///
    /// // b(a{7}|c{5})b — Fig. 5 of the paper: 4 control states.
    /// let nbva = Nbva::from_regex(&parse("b(a{7}|c{5})b")?, 4);
    /// assert_eq!(nbva.len(), 4);
    /// assert_eq!(nbva.bv_state_count(), 2);
    /// # Ok::<(), rap_regex::ParseError>(())
    /// ```
    pub fn from_regex(regex: &Regex, unfold_threshold: u32) -> Nbva {
        let rewritten = split_bounded(&unfold_below_threshold(regex, unfold_threshold));
        let g = glushkov::construct(&rewritten, true);
        let mut states: Vec<NbvaState> = g
            .positions
            .iter()
            .zip(g.follow.iter())
            .map(|(p, follow)| {
                let kind = match p.kind {
                    PosKind::Plain => StateKind::Plain,
                    PosKind::BvExact { width } => StateKind::Bv {
                        width,
                        read: ReadAction::Exact(width),
                    },
                    PosKind::BvUpTo { width } => StateKind::Bv {
                        width,
                        read: ReadAction::All,
                    },
                };
                NbvaState {
                    cc: p.cc,
                    kind,
                    succ: follow.clone(),
                    is_final: false,
                }
            })
            .collect();
        for &f in &g.last {
            states[f as usize].is_final = true;
        }
        Nbva {
            states,
            initial: g.first,
            matches_empty: g.nullable,
            anchored_start: false,
            anchored_end: false,
        }
    }

    /// Builds the automaton of a parsed pattern, honouring its `^`/`$`
    /// anchors (see [`crate::nfa::Nfa::from_pattern`]).
    pub fn from_pattern(pattern: &rap_regex::Pattern, unfold_threshold: u32) -> Nbva {
        Nbva::from_regex(&pattern.regex, unfold_threshold)
            .with_anchors(pattern.anchored_start, pattern.anchored_end)
    }

    /// Assembles an automaton from explicit parts — the constructor used by
    /// static-analysis rewrites (dead-state pruning, equivalence merging)
    /// that must rebuild an [`Nbva`] after editing its state graph.
    /// Anchoring flags start unset; chain [`Nbva::with_anchors`] to restore
    /// them.
    ///
    /// # Panics
    ///
    /// Panics if any initial id or successor id is out of range.
    pub fn from_parts(states: Vec<NbvaState>, initial: Vec<StateId>, matches_empty: bool) -> Nbva {
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
        Nbva {
            states,
            initial,
            matches_empty,
            anchored_start: false,
            anchored_end: false,
        }
    }

    /// Sets the anchoring flags (builder style).
    #[must_use]
    pub fn with_anchors(mut self, start: bool, end: bool) -> Nbva {
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

    /// Number of control states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the automaton has no states.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The states, indexed by [`StateId`].
    pub fn states(&self) -> &[NbvaState] {
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

    /// Number of bit-vector states.
    pub fn bv_state_count(&self) -> usize {
        self.states
            .iter()
            .filter(|s| matches!(s.kind, StateKind::Bv { .. }))
            .count()
    }

    /// Total bit-vector storage in bits.
    pub fn bv_total_bits(&self) -> u64 {
        self.states.iter().map(|s| u64::from(s.width())).sum()
    }

    /// Creates a fresh run.
    pub fn start(&self) -> NbvaRun<'_> {
        let bv_states: Vec<StateId> = self
            .states
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.kind, StateKind::Bv { .. }))
            .map(|(q, _)| q as StateId)
            .collect();
        NbvaRun {
            nbva: self,
            active: BitVec::zeros(self.states.len()),
            vectors: self
                .states
                .iter()
                .map(|s| BitVec::zeros(s.width() as usize))
                .collect(),
            bv_states,
            incoming: BitVec::zeros(self.states.len()),
            scratch: Vec::new(),
            pos: 0,
        }
    }

    /// Offsets just past each match end in `input`.
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

    /// Whether any match occurs in `input`.
    pub fn is_match(&self, input: &[u8]) -> bool {
        let mut run = self.start();
        input.iter().any(|&b| run.step(b))
    }
}

/// An in-progress unanchored run over an [`Nbva`].
///
/// The configuration holds, per state, an activation bit (plain states) or
/// a bit vector of in-flight repetition counts (BV states).
#[derive(Clone, Debug)]
pub struct NbvaRun<'a> {
    nbva: &'a Nbva,
    /// Activation bits of plain states (ignored for BV states).
    active: BitVec,
    /// Bit vectors of BV states (zero-width for plain states).
    vectors: Vec<BitVec>,
    /// Ids of the BV states (they are processed every step).
    bv_states: Vec<StateId>,
    /// Reused incoming-candidate bitmap.
    incoming: BitVec,
    /// Reused candidate buffer (sparse stepping).
    scratch: Vec<StateId>,
    /// Symbols consumed so far (drives `^` anchoring).
    pos: u64,
}

impl NbvaRun<'_> {
    /// Consumes one input symbol; returns whether a match ends here.
    pub fn step(&mut self, byte: u8) -> bool {
        self.step_detailed(byte).matched
    }

    /// Consumes one input symbol and reports what happened — the hardware
    /// simulator uses [`StepInfo::bv_touched`] to decide whether the
    /// bit-vector-processing phase (and its stall) triggers this cycle.
    ///
    /// The step is sparse: work is proportional to the active plain states,
    /// their out-edges, and the (few) bit-vector states — not to the
    /// automaton size.
    pub fn step_detailed(&mut self, byte: u8) -> StepInfo {
        self.step_impl(byte, true)
    }

    /// Like [`NbvaRun::step_detailed`] but *without* re-arming the initial
    /// states: new matching threads start only through explicit
    /// [`NbvaRun::activate_plain`] injections. Prefilter-driven engines
    /// use this so a woken automaton goes back to sleep once its injected
    /// threads die, instead of being rekindled by every initial-class byte.
    pub fn step_anchored(&mut self, byte: u8) -> StepInfo {
        self.step_impl(byte, false)
    }

    fn step_impl(&mut self, byte: u8, arm_initial: bool) -> StepInfo {
        let nbva = self.nbva;
        // `incoming` marks states reachable this cycle: successors of
        // emitting states plus the always-available initial states. A
        // plain state emits while active; a BV state emits while its read
        // action succeeds.
        self.incoming.clear();
        self.scratch.clear();
        for p in self.active.iter_ones() {
            self.scratch.extend_from_slice(&nbva.states[p].succ);
        }
        for &q in &self.bv_states {
            let StateKind::Bv { read, .. } = nbva.states[q as usize].kind else {
                unreachable!("bv_states holds only BV ids")
            };
            if read_ok(&self.vectors[q as usize], read) {
                self.scratch
                    .extend_from_slice(&nbva.states[q as usize].succ);
            }
        }
        if arm_initial && (!nbva.anchored_start || self.pos == 0) {
            self.scratch.extend_from_slice(&nbva.initial);
        }
        self.pos += 1;
        for &q in &self.scratch {
            self.incoming.set(q as usize, true);
        }

        let mut matched = false;
        let mut bv_touched = false;
        // Plain-state updates: only candidates can turn on.
        self.active.clear();
        for &q in &self.scratch {
            let state = &nbva.states[q as usize];
            if matches!(state.kind, StateKind::Plain) && state.cc.contains(byte) {
                self.active.set(q as usize, true);
                matched |= state.is_final;
            }
        }
        // BV-state updates: every live or entered vector advances.
        for &q in &self.bv_states {
            let state = &nbva.states[q as usize];
            let StateKind::Bv { read, .. } = state.kind else {
                unreachable!("bv_states holds only BV ids")
            };
            let v = &mut self.vectors[q as usize];
            if state.cc.contains(byte) {
                let entering = self.incoming.get(q as usize);
                bv_touched |= v.any() || entering;
                // In-flight counts advance; overflow falls off the top
                // (the hardware's overflow check then disables the STE,
                // which here is just v == 0).
                v.shift_up();
                if entering {
                    v.set(0, true); // set1: a new count starts
                }
            } else {
                // Homogeneous semantics: no transition matches, so every
                // in-flight count dies.
                v.clear();
            }
            matched |= state.is_final && read_ok(v, read);
        }
        StepInfo {
            matched,
            bv_touched,
        }
    }

    /// Number of active plain states plus BV states with a non-zero vector.
    pub fn active_count(&self) -> u32 {
        let mut count = 0;
        for q in 0..self.nbva.states.len() {
            let on = match self.nbva.states[q].kind {
                StateKind::Plain => self.active.get(q),
                StateKind::Bv { .. } => self.vectors[q].any(),
            };
            count += u32::from(on);
        }
        count
    }

    /// The bit vector of state `q` (zero-width for plain states).
    pub fn vector(&self, q: StateId) -> &BitVec {
        &self.vectors[q as usize]
    }

    /// The activation bitmap of *plain* states (BV states track activity in
    /// their vectors; see [`NbvaRun::vector`]).
    pub fn plain_active_bits(&self) -> &BitVec {
        &self.active
    }

    /// Forces a plain state active, as if its character class had just
    /// matched — used by prefilter-driven engines that verify a literal
    /// prefix out of band and inject the post-prefix state.
    ///
    /// # Panics
    ///
    /// Panics if `q` is a bit-vector state.
    pub fn activate_plain(&mut self, q: StateId) {
        assert!(
            matches!(self.nbva.states[q as usize].kind, StateKind::Plain),
            "state {q} is a bit-vector state"
        );
        self.active.set(q as usize, true);
    }
}

/// What one [`NbvaRun::step_detailed`] call did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepInfo {
    /// A match ended at this symbol.
    pub matched: bool,
    /// Some bit vector was entered or advanced — the hardware enters the
    /// bit-vector-processing phase this cycle (§3.1).
    pub bv_touched: bool,
}

fn read_ok(v: &BitVec, read: ReadAction) -> bool {
    match read {
        ReadAction::Exact(m) => v.get(m as usize - 1),
        ReadAction::All => v.any(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::Nfa;
    use rap_regex::parse;

    fn nbva(pattern: &str, threshold: u32) -> Nbva {
        Nbva::from_regex(&parse(pattern).expect("pattern parses"), threshold)
    }

    /// Differential check against the fully unfolded NFA on a fixed input.
    fn assert_matches_nfa(pattern: &str, input: &[u8]) {
        let re = parse(pattern).expect("pattern parses");
        let reference = Nfa::from_regex(&re).match_ends(input);
        let got = Nbva::from_regex(&re, 4).match_ends(input);
        assert_eq!(got, reference, "pattern {pattern} on {input:?}");
    }

    #[test]
    fn exact_repetition() {
        let a = nbva("c{5}", 4);
        assert_eq!(a.len(), 1);
        assert_eq!(a.bv_state_count(), 1);
        assert_eq!(a.match_ends(b"ccccc"), vec![5]);
        assert_eq!(a.match_ends(b"cccccc"), vec![5, 6]); // overlapping threads
        assert!(a.match_ends(b"cccc").is_empty());
    }

    #[test]
    fn repetition_with_prefix_and_suffix() {
        assert_matches_nfa("bc{5}d", b"bcccccd");
        assert_matches_nfa("bc{5}d", b"bccccd");
        assert_matches_nfa("bc{5}d", b"bccccccd");
        assert_matches_nfa("bc{5}d", b"bbcccccdd");
    }

    #[test]
    fn paper_example_2_2() {
        // a.*bc{5}: after 'a' anything, then b, then exactly 5 c's.
        assert_matches_nfa("a.*bc{5}", b"axxbccccc");
        assert_matches_nfa("a.*bc{5}", b"abcccccc");
        assert_matches_nfa("a.*bc{5}", b"abcccc");
    }

    #[test]
    fn paper_fig5_example() {
        // b(a{7}|c{5})b from Fig. 5.
        let a = nbva("b(a{7}|c{5})b", 4);
        assert_eq!(a.len(), 4);
        assert_eq!(a.match_ends(b"bcccccb"), vec![7]);
        assert_eq!(a.match_ends(b"baaaaaaab"), vec![9]);
        // 6 c's: the overflow check deactivates the BV (§3.1 Example 3.1).
        assert!(a.match_ends(b"bccccccb").is_empty());
        assert_matches_nfa("b(a{7}|c{5})b", b"bcccccb bbaaaaaaab bccccccb");
    }

    #[test]
    fn range_repetition_splits() {
        // b{10,48} → b{10}·b{0,38} (Example 4.2).
        let a = nbva("ab{10,48}c", 8);
        assert_eq!(a.len(), 4); // a, b{10}, b{0,38}, c
        for n in [9usize, 10, 11, 47, 48, 49] {
            let mut input = vec![b'a'];
            input.extend(std::iter::repeat_n(b'b', n));
            input.push(b'c');
            let expect = (10..=48).contains(&n);
            assert_eq!(!a.match_ends(&input).is_empty(), expect, "n={n}");
        }
    }

    #[test]
    fn upto_repetition() {
        assert_matches_nfa("xc{0,6}y", b"xy xcy xccccccy xcccccccy");
        assert_matches_nfa("xc{1,3}y", b"xy xcy xcccy xccccy");
    }

    #[test]
    fn small_bounds_unfold_to_plain_states() {
        let a = nbva("a{3}b", 4);
        assert_eq!(a.bv_state_count(), 0);
        assert_eq!(a.len(), 4); // aaa b
        assert_eq!(a.match_ends(b"aaab"), vec![4]);
    }

    #[test]
    fn complex_body_unfolds() {
        let a = nbva("(ab){6}", 4);
        assert_eq!(a.bv_state_count(), 0);
        assert_eq!(a.len(), 12);
        assert_matches_nfa("(ab){6}", b"abababababab");
    }

    #[test]
    fn unbounded_tail_unfolds() {
        assert_matches_nfa("f{2,}g", b"ffffg fg");
    }

    #[test]
    fn repeated_bv_under_plus() {
        // (c{5})+ — read success must restart the count via the star loop.
        let a = nbva("(c{5})+d", 4);
        assert_matches_nfa("(c{5})+d", b"cccccd");
        assert_matches_nfa("(c{5})+d", b"ccccccccccd");
        assert_matches_nfa("(c{5})+d", b"ccccccd");
        assert!(a.bv_state_count() == 1);
    }

    #[test]
    fn mismatch_clears_counts() {
        assert_matches_nfa("c{5}", b"cccXccccc");
        assert_matches_nfa("bc{5}d", b"bccXbcccccd");
    }

    #[test]
    fn overlapping_threads_tracked_in_one_vector() {
        // "cccccccc" with pattern bc{5}: entries at multiple offsets.
        assert_matches_nfa("bc{5}", b"bbccccccc");
    }

    #[test]
    fn bv_storage_accounting() {
        let a = nbva("ab{10,48}cd{34}ef{128}", 16);
        // d{34} and f{128} exact, b{10}+b{0,38} split.
        assert_eq!(a.bv_total_bits(), 10 + 38 + 34 + 128);
        assert_eq!(a.bv_state_count(), 4);
    }

    #[test]
    fn yara_style_pattern() {
        let re = r"AppPath=[C-Z]:\\\\[^\\\\]{1,64}\\.exe";
        assert_matches_nfa(re, br"AppPath=D:\\myprogram\.exe");
        assert_matches_nfa(re, br"AppPath=D:\\x\.exe");
    }

    #[test]
    fn empty_pattern_flag() {
        let a = Nbva::from_regex(&Regex::Empty, 4);
        assert!(a.matches_empty());
        assert!(a.is_empty());
    }

    #[test]
    fn active_count_counts_nonzero_vectors() {
        let a = nbva("c{5}", 4);
        let mut run = a.start();
        run.step(b'c');
        assert_eq!(run.active_count(), 1);
        run.step(b'x');
        assert_eq!(run.active_count(), 0);
    }
}
