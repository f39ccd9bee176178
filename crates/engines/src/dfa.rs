//! Partitioned DFAs over one mintermized byte alphabet — the fast path
//! of the CPU baseline.
//!
//! Hyperscan compiles a rule set into several McClellan DFAs, each under a
//! state cap, and keeps what does not determinize on an NFA path. This
//! module builds the same structure:
//!
//! * **one alphabet** — the bytes are mintermized over the character
//!   classes of every DFA-routed pattern: two bytes share a class unless
//!   some pattern tells them apart. Every table row is `#classes` wide, and
//!   because all DFAs share the alphabet a scan classifies each byte once;
//! * **per-pattern DFAs** — each pattern is determinized on its own by
//!   subset construction;
//! * **product folding** — for NFAs over disjoint state sets, the subset
//!   DFA of their unanchored union is the reachable product of their
//!   subset DFAs. A set of patterns is therefore determinized by folding
//!   the per-pattern DFAs together pairwise, which indexes state pairs
//!   instead of hashing state sets;
//! * **compact tables** — a finished DFA is a `u16` next-state table whose
//!   accepting states are numbered last, with flat accept lists, so the
//!   scan loop is one load per byte plus one compare.
//!
//! [`Dfa::determinize`] folds a whole pattern set into one table.
//! [`HybridEngine`] folds greedily into several tables under a state cap
//! and leaves the patterns whose own DFA is too large to the prefiltered
//! NBVA interpreter.

use crate::interp::PrefilteredNfa;
use crate::{normalize, Engine, Hit};
use rap_automata::nfa::Nfa;
use rap_regex::charclass::Minterms;
use rap_regex::{CharClass, Regex};
use std::collections::HashMap;

/// Most states a `u16` table addresses (`u16::MAX` marks an unset entry
/// while folding).
const MAX_TABLE_STATES: usize = u16::MAX as usize;

/// Largest product (`|left| × |right|` state pairs) whose pair index is a
/// dense matrix, which covers every fold of the default hybrid (2048 ×
/// 256); larger folds use a hash map.
const DENSE_PAIRS: usize = 1 << 19;

/// One pattern's subset DFA over its own minterms. State 0 is the empty
/// active set, where an unanchored run starts.
#[derive(Debug)]
struct PatternDfa {
    /// Index of the pattern in the caller's list.
    pattern: u32,
    /// The pattern's distinct character classes.
    ccs: Vec<CharClass>,
    alphabet: Minterms,
    /// `next[state * classes + class]` → state.
    next: Vec<u16>,
    accepting: Vec<bool>,
}

impl PatternDfa {
    /// Determinizes the unanchored run of `nfa`, or returns `None` once
    /// more than `max_states` (at most [`MAX_TABLE_STATES`]) states are
    /// needed.
    fn determinize(nfa: &Nfa, pattern: u32, max_states: usize) -> Option<PatternDfa> {
        let states = nfa.states();
        let mut ccs: Vec<CharClass> = states.iter().map(|s| s.cc).collect();
        ccs.sort_unstable_by_key(|cc| *cc.as_words());
        ccs.dedup();
        let alphabet = Minterms::of(&ccs);
        let classes = alphabet.classes();

        // State sets are bitsets of `words` words; `member[k]` holds the
        // states whose class contains class `k`.
        let words = states.len().div_ceil(64);
        let bit = |q: usize| (q / 64, 1u64 << (q % 64));
        let mut member = vec![0u64; classes * words];
        let mut finals = vec![0u64; words];
        for (q, s) in states.iter().enumerate() {
            let (w, m) = bit(q);
            for (k, &rep) in alphabet.reps.iter().enumerate() {
                if s.cc.contains(rep) {
                    member[k * words + w] |= m;
                }
            }
            if s.is_final {
                finals[w] |= m;
            }
        }
        let mut armed = vec![0u64; words];
        for &q in nfa.initial() {
            let (w, m) = bit(q as usize);
            armed[w] |= m;
        }

        // Subset construction over available sets: the successors of the
        // active set plus the always-armed initial states, kept where the
        // byte's class matches.
        let mut sets: Vec<u64> = vec![0; words];
        let mut index: HashMap<Vec<u64>, u16> = HashMap::from([(vec![0; words], 0)]);
        let mut next = Vec::new();
        let mut accepting = vec![false];
        let mut avail = vec![0u64; words];
        let mut target = vec![0u64; words];
        let mut cursor = 0;
        while cursor < accepting.len() {
            avail.copy_from_slice(&armed);
            for w in 0..words {
                let mut bits = sets[cursor * words + w];
                while bits != 0 {
                    for &r in &states[w * 64 + bits.trailing_zeros() as usize].succ {
                        let (rw, m) = bit(r as usize);
                        avail[rw] |= m;
                    }
                    bits &= bits - 1;
                }
            }
            for k in 0..classes {
                for w in 0..words {
                    target[w] = avail[w] & member[k * words + w];
                }
                let id = match index.get(&target) {
                    Some(&id) => id,
                    None => {
                        if accepting.len() >= max_states.min(MAX_TABLE_STATES) {
                            return None;
                        }
                        let id = accepting.len() as u16;
                        accepting.push(target.iter().zip(&finals).any(|(t, f)| t & f != 0));
                        sets.extend_from_slice(&target);
                        index.insert(target.clone(), id);
                        id
                    }
                };
                next.push(id);
            }
            cursor += 1;
        }
        Some(PatternDfa {
            pattern,
            ccs,
            alphabet,
            next,
            accepting,
        })
    }

    /// Number of states.
    fn len(&self) -> usize {
        self.accepting.len()
    }
}

/// Product-state ids by component pair: a dense matrix while the product
/// space is small, a hash map beyond that.
enum PairIndex {
    Dense { ids: Vec<u16>, right: usize },
    Sparse(HashMap<(u16, u16), u16>),
}

impl PairIndex {
    fn new(left: usize, right: usize) -> PairIndex {
        if left * right <= DENSE_PAIRS {
            PairIndex::Dense {
                ids: vec![u16::MAX; left * right],
                right,
            }
        } else {
            PairIndex::Sparse(HashMap::new())
        }
    }

    fn get(&self, p: u16, q: u16) -> Option<u16> {
        match self {
            PairIndex::Dense { ids, right } => {
                let id = ids[p as usize * right + q as usize];
                (id != u16::MAX).then_some(id)
            }
            PairIndex::Sparse(map) => map.get(&(p, q)).copied(),
        }
    }

    fn insert(&mut self, p: u16, q: u16, id: u16) {
        match self {
            PairIndex::Dense { ids, right } => ids[p as usize * *right + q as usize] = id,
            PairIndex::Sparse(map) => {
                map.insert((p, q), id);
            }
        }
    }
}

/// A DFA under construction over a shared alphabet: states in discovery
/// order, state 0 the start, accept lists flat.
#[derive(Debug)]
struct Product {
    /// `next[state * classes + class]` → state.
    next: Vec<u16>,
    /// Pattern ids accepting in state `s`: `ids[offsets[s]..offsets[s + 1]]`.
    offsets: Vec<u32>,
    ids: Vec<u32>,
}

impl Product {
    /// The one-state DFA of the empty pattern set.
    fn empty(classes: usize) -> Product {
        Product {
            next: vec![0; classes],
            offsets: vec![0, 0],
            ids: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    fn accepts(&self, state: u16) -> &[u32] {
        let s = state as usize;
        &self.ids[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }

    /// The reachable product of this DFA and `dfa` over `alphabet` (a
    /// refinement of `dfa`'s own), or `None` once it needs more than
    /// `max_states` states.
    fn fold(&self, dfa: &PatternDfa, alphabet: &Minterms, max_states: usize) -> Option<Product> {
        let classes = alphabet.classes();
        let width = dfa.alphabet.classes();
        // Column of each shared class in `dfa`'s table.
        let cols: Vec<usize> = alphabet
            .reps
            .iter()
            .map(|&b| dfa.alphabet.class_of[b as usize] as usize)
            .collect();
        let mut index = PairIndex::new(self.len(), dfa.len());
        index.insert(0, 0, 0);
        let mut pairs = vec![(0u16, 0u16)];
        let mut out = Product {
            next: Vec::with_capacity(self.next.len()),
            offsets: vec![0],
            ids: Vec::new(),
        };
        let mut cursor = 0;
        while cursor < pairs.len() {
            let (p, q) = pairs[cursor];
            out.ids.extend_from_slice(self.accepts(p));
            if dfa.accepting[q as usize] {
                out.ids.push(dfa.pattern);
            }
            out.offsets.push(out.ids.len() as u32);
            let left = &self.next[p as usize * classes..][..classes];
            let right = &dfa.next[q as usize * width..][..width];
            for (&p2, &col) in left.iter().zip(&cols) {
                let q2 = right[col];
                let id = match index.get(p2, q2) {
                    Some(id) => id,
                    None => {
                        if pairs.len() >= max_states.min(MAX_TABLE_STATES) {
                            return None;
                        }
                        let id = pairs.len() as u16;
                        index.insert(p2, q2, id);
                        pairs.push((p2, q2));
                        id
                    }
                };
                out.next.push(id);
            }
            cursor += 1;
        }
        Some(out)
    }

    /// Renumbers the accepting states last and freezes the tables.
    fn finish(self) -> Table {
        let n = self.len();
        let classes = self.next.len() / n;
        let accepting = |s: usize| self.offsets[s] != self.offsets[s + 1];
        let order: Vec<usize> = (0..n)
            .filter(|&s| !accepting(s))
            .chain((0..n).filter(|&s| accepting(s)))
            .collect();
        // The start state accepts nothing, so it keeps id 0.
        debug_assert_eq!(order[0], 0);
        let mut rank = vec![0u16; n];
        for (new, &old) in order.iter().enumerate() {
            rank[old] = new as u16;
        }
        let accept_from = order.iter().take_while(|&&s| !accepting(s)).count();
        let mut next = Vec::with_capacity(self.next.len());
        for &old in &order {
            next.extend(
                self.next[old * classes..][..classes]
                    .iter()
                    .map(|&t| rank[t as usize]),
            );
        }
        let mut offsets = Vec::with_capacity(n - accept_from + 1);
        let mut ids = Vec::with_capacity(self.ids.len());
        offsets.push(0);
        for &old in &order[accept_from..] {
            ids.extend_from_slice(self.accepts(old as u16));
            offsets.push(ids.len() as u32);
        }
        Table {
            next,
            accept_from,
            offsets,
            ids,
        }
    }
}

/// A frozen DFA over a shared alphabet. States `accept_from..` accept.
#[derive(Clone, Debug)]
struct Table {
    /// `next[state * classes + class]` → state.
    next: Vec<u16>,
    accept_from: usize,
    /// Pattern ids accepting in state `accept_from + i`:
    /// `ids[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    ids: Vec<u32>,
}

impl Table {
    /// Pushes the hits of accepting state `state` ending at `end`.
    fn report(&self, state: usize, end: usize, out: &mut Vec<Hit>) {
        let a = state - self.accept_from;
        for &p in &self.ids[self.offsets[a] as usize..self.offsets[a + 1] as usize] {
            out.push(Hit {
                pattern: p as usize,
                end,
            });
        }
    }
}

/// Tables walked in lockstep. Their state chains are independent, so the
/// CPU overlaps their table loads instead of waiting on one at a time.
const LANES: usize = 4;

/// Runs every table over a classified input, pushing their hits.
fn walk(tables: &[Table], input: &[u8], classes: usize, out: &mut Vec<Hit>) {
    for group in tables.chunks(LANES) {
        let mut states = [0usize; LANES];
        for (i, &class) in input.iter().enumerate() {
            for (table, state) in group.iter().zip(&mut states) {
                *state = table.next[*state * classes + class as usize] as usize;
                if *state >= table.accept_from {
                    table.report(*state, i + 1, out);
                }
            }
        }
    }
}

/// A dense DFA for a multi-pattern union.
#[derive(Clone, Debug)]
pub struct Dfa {
    alphabet: Minterms,
    table: Table,
}

impl Dfa {
    /// Determinizes the union of `patterns` by folding their per-pattern
    /// DFAs, giving up when more than `max_states` states are needed. A
    /// table addresses at most `u16::MAX` states whatever `max_states` is.
    pub fn determinize(patterns: &[Regex], max_states: usize) -> Option<Dfa> {
        let dfas = patterns
            .iter()
            .enumerate()
            .map(|(i, re)| PatternDfa::determinize(&Nfa::from_regex(re), i as u32, max_states))
            .collect::<Option<Vec<_>>>()?;
        let alphabet = Minterms::of(dfas.iter().flat_map(|d| &d.ccs));
        let mut product = Product::empty(alphabet.classes());
        for dfa in &dfas {
            product = product.fold(dfa, &alphabet, max_states)?;
        }
        Some(Dfa {
            table: product.finish(),
            alphabet,
        })
    }

    /// Number of DFA states.
    pub fn len(&self) -> usize {
        self.table.next.len() / self.alphabet.classes()
    }

    /// Whether the DFA has no states (never: there is always a start state).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of byte equivalence classes.
    pub fn alphabet_classes(&self) -> usize {
        self.alphabet.classes()
    }

    /// Scans `input`, pushing its hits onto `out`.
    pub fn scan_into(&self, input: &[u8], out: &mut Vec<Hit>) {
        walk(
            std::slice::from_ref(&self.table),
            &self.alphabet.classify(input),
            self.alphabet.classes(),
            out,
        );
    }
}

impl Engine for Dfa {
    fn name(&self) -> &'static str {
        "dfa"
    }

    fn scan(&self, input: &[u8]) -> Vec<Hit> {
        let mut hits = Vec::new();
        self.scan_into(input, &mut hits);
        normalize(hits)
    }
}

/// The hybrid software engine, Hyperscan's architecture in miniature:
/// greedily partitioned DFAs for every pattern whose own DFA is small, the
/// prefiltered NBVA interpreter for the rest.
#[derive(Clone, Debug)]
pub struct HybridEngine {
    /// The alphabet every partition's table is laid out over.
    alphabet: Minterms,
    partitions: Vec<Table>,
    dfa_count: usize,
    fallback: PrefilteredNfa,
    /// Pattern index of each fallback pattern.
    fallback_idx: Vec<usize>,
}

impl HybridEngine {
    /// Default state cap per partition (Hyperscan's McClellan limit,
    /// scaled down). It is set by memory: the engines of the seven
    /// 300-pattern benchmark suites retain about 22 MB at 2048 states
    /// and 38 MB at 4096.
    pub const DEFAULT_MAX_STATES: usize = 2048;

    /// Builds the engine with at most `max_states` states per partition.
    ///
    /// A pattern goes to the DFA path when its own DFA has at most an
    /// eighth of `max_states` states (but at least 16, or `max_states`
    /// when that is smaller). A pattern with more than twice that many
    /// unfolded positions is assumed not to fit and goes to the NFA path
    /// without building its automaton. The per-pattern DFAs are folded,
    /// smallest first, into the open partition, which is closed when the
    /// product would exceed `max_states`.
    pub fn new(patterns: &[Regex], max_states: usize) -> HybridEngine {
        let cap = max_states.min(MAX_TABLE_STATES);
        let budget = (cap / 8).max(cap.min(16));
        let mut dfas = Vec::new();
        let mut fallback_idx = Vec::new();
        for (i, re) in patterns.iter().enumerate() {
            let dfa = if re.unfolded_size() <= 2 * budget as u64 {
                PatternDfa::determinize(&Nfa::from_regex(re), i as u32, budget)
            } else {
                None
            };
            match dfa {
                Some(dfa) => dfas.push(dfa),
                None => fallback_idx.push(i),
            }
        }
        dfas.sort_by_key(PatternDfa::len);

        let alphabet = Minterms::of(dfas.iter().flat_map(|d| &d.ccs));
        let mut partitions = Vec::new();
        let mut open = Product::empty(alphabet.classes());
        for dfa in &dfas {
            open = match open.fold(dfa, &alphabet, cap) {
                Some(product) => product,
                None => {
                    partitions.push(open.finish());
                    Product::empty(alphabet.classes())
                        .fold(dfa, &alphabet, cap)
                        .expect("a DFA within the budget fits an empty partition")
                }
            };
        }
        if !dfas.is_empty() {
            partitions.push(open.finish());
        }

        let fallback_patterns: Vec<Regex> =
            fallback_idx.iter().map(|&i| patterns[i].clone()).collect();
        HybridEngine {
            alphabet,
            partitions,
            dfa_count: dfas.len(),
            fallback: PrefilteredNfa::new(&fallback_patterns),
            fallback_idx,
        }
    }

    /// Number of patterns on the DFA path.
    pub fn dfa_count(&self) -> usize {
        self.dfa_count
    }
}

impl Engine for HybridEngine {
    fn name(&self) -> &'static str {
        "hybrid-dfa"
    }

    fn scan(&self, input: &[u8]) -> Vec<Hit> {
        let mut hits = Vec::new();
        if !self.partitions.is_empty() {
            let classified = self.alphabet.classify(input);
            walk(
                &self.partitions,
                &classified,
                self.alphabet.classes(),
                &mut hits,
            );
        }
        if !self.fallback_idx.is_empty() {
            hits.extend(self.fallback.scan(input).into_iter().map(|h| Hit {
                pattern: self.fallback_idx[h.pattern],
                end: h.end,
            }));
        }
        normalize(hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::NfaEngine;
    use rap_regex::parse;

    fn regexes(patterns: &[&str]) -> Vec<Regex> {
        patterns.iter().map(|p| parse(p).expect("parses")).collect()
    }

    #[test]
    fn dfa_agrees_with_interpreter() {
        let patterns = ["abc", "a[bc]d", "q.*z", "m{3}", "x(y|z)+w"];
        let res = regexes(&patterns);
        let dfa = Dfa::determinize(&res, 4096).expect("determinizes");
        let input = b"abcd abd acd qqz qxyzz mmmm xyw xyzyw abc";
        assert_eq!(dfa.scan(input), NfaEngine::new(&res).scan(input));
    }

    #[test]
    fn alphabet_compression_is_tight() {
        // Patterns over {a, b, c} need at most 4 classes (a, b, c, rest).
        let res = regexes(&["abc", "a(b|c)a"]);
        let dfa = Dfa::determinize(&res, 4096).expect("determinizes");
        assert!(dfa.alphabet_classes() <= 4, "{}", dfa.alphabet_classes());
    }

    #[test]
    fn state_cap_aborts() {
        // A union of many unanchored `.{k}x` patterns is exponential-ish;
        // a tiny cap must trip.
        let res = regexes(&["a.{6}b", "c.{6}d", "e.{6}f"]);
        assert!(Dfa::determinize(&res, 8).is_none());
        assert!(Dfa::determinize(&res, 100_000).is_some());
    }

    #[test]
    fn overlapping_matches_reported() {
        let res = regexes(&["aa"]);
        let dfa = Dfa::determinize(&res, 64).expect("determinizes");
        let hits = dfa.scan(b"aaaa");
        assert_eq!(
            hits.iter().map(|h| h.end).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn multi_pattern_ids_survive_union() {
        let res = regexes(&["ab", "b"]);
        let dfa = Dfa::determinize(&res, 64).expect("determinizes");
        let hits = dfa.scan(b"ab");
        assert_eq!(
            hits,
            vec![Hit { pattern: 0, end: 2 }, Hit { pattern: 1, end: 2 }]
        );
    }

    #[test]
    fn minterms_split_overlapping_classes() {
        let ccs = [CharClass::range(b'a', b'f'), CharClass::range(b'd', b'z')];
        let alphabet = Minterms::of(&ccs);
        // [a-c], [d-f], [g-z] and the rest.
        assert_eq!(alphabet.classes(), 4);
        let class = |b: u8| alphabet.class_of[b as usize];
        assert_eq!(class(b'a'), class(b'c'));
        assert_eq!(class(b'd'), class(b'f'));
        assert_eq!(class(b'g'), class(b'z'));
        assert_eq!(class(b'0'), class(0xff));
        assert_ne!(class(b'c'), class(b'd'));
        assert_ne!(class(b'f'), class(b'g'));
        assert_ne!(class(b'z'), class(b'0'));
    }

    #[test]
    fn union_is_the_product_of_pattern_dfas() {
        // Two literals: their union DFA is the Aho–Corasick automaton of
        // {"ab", "cd"}, 5 states, not the 3 × 3 product space.
        let dfa = Dfa::determinize(&regexes(&["ab", "cd"]), 64).expect("determinizes");
        assert_eq!(dfa.len(), 5);
    }

    #[test]
    fn large_folds_agree_with_interpreter() {
        // The last fold pairs 3645 × 192 states, past the dense index.
        let res = regexes(&["a.{6}b", "c.{6}d", "e.{6}f"]);
        let dfa = Dfa::determinize(&res, 100_000).expect("determinizes");
        let input = b"a123456b c1a3e5gd eaaaaaaf acebdf.ace1234bdf aceaceacebdfbdf";
        assert_eq!(dfa.scan(input), NfaEngine::new(&res).scan(input));
    }

    #[test]
    fn hybrid_routes_and_agrees() {
        let patterns = ["abc", "q{1000}r", "x.*y", "hello"];
        let res = regexes(&patterns);
        let hybrid = HybridEngine::new(&res, HybridEngine::DEFAULT_MAX_STATES);
        // q{1000}r is too big for the DFA path.
        assert_eq!(hybrid.dfa_count(), 3);
        let mut input = b"abc hello xqqy ".to_vec();
        input.extend(std::iter::repeat_n(b'q', 1000));
        input.push(b'r');
        assert_eq!(hybrid.scan(&input), NfaEngine::new(&res).scan(&input));
    }

    #[test]
    fn hybrid_closes_full_partitions() {
        // Each pattern fits the 32-state budget of a 256-state cap; their
        // union does not fit one partition.
        let res = regexes(&["a.{3}b", "c.{3}d", "e.{3}f", "g.{3}h"]);
        let hybrid = HybridEngine::new(&res, 256);
        assert_eq!(hybrid.dfa_count(), 4);
        assert!(hybrid.partitions.len() >= 2, "{}", hybrid.partitions.len());
        let input = b"axxxb cyyyd ezzzf gwwwh aceg.bdfh";
        assert_eq!(hybrid.scan(input), NfaEngine::new(&res).scan(input));
    }

    #[test]
    fn empty_pattern_set() {
        let dfa = Dfa::determinize(&[], 16).expect("empty set determinizes");
        assert!(dfa.scan(b"anything").is_empty());
        let hybrid = HybridEngine::new(&[], 16);
        assert!(hybrid.scan(b"anything").is_empty());
    }
}
