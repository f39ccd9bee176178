//! Glushkov position automaton construction (shared by the NFA and NBVA
//! builders).
//!
//! The Glushkov construction (§2.1 of the paper) linearizes a regex into
//! *positions* — one per character-class occurrence — and computes the
//! classic `nullable` / `first` / `last` / `follow` sets. The resulting
//! automaton is ε-free and homogeneous: every transition entering position
//! `p` is labeled with `p`'s character class.
//!
//! The NBVA builder extends positions with bit-vector metadata: a bounded
//! repetition of a single character class, `σ{m,m}` or `σ{0,k}`, is kept as
//! *one* position whose `first`/`last` are itself and which follows itself
//! (the repetition count lives in the bit vector, not in extra control
//! states). Such a `σ{0,k}` position is *nullable*.
//!
//! The walk costs time linear in the positions plus the edges it makes.
//! Every subexpression creates fresh positions, so the first/last sets a
//! Concat or Alt joins are disjoint and join by plain concatenation, and a
//! Concat's edges enter positions no follow list reaches yet. Only a Star
//! or Plus loop can meet an edge its body already made (as in `(a*b*)*`);
//! those links skip it through a stamp array over positions. An unfolded
//! `σ{0,k}` (k optional positions, about k²/2 edges) therefore no longer
//! costs k³ membership tests. Follow lists keep first-seen order, which
//! mapper placements and stored plans depend on.

use crate::StateId;
use rap_regex::{CharClass, Regex};

/// Bit-vector role of a position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PosKind {
    /// Ordinary NFA position.
    Plain,
    /// Bit-vector position for `σ{m,m}`; emits when the m-th bit is set
    /// (the paper's `r(m)` read action).
    BvExact { width: u32 },
    /// Bit-vector position for `σ{0,k}`; emits when any bit is set (the
    /// paper's `rAll` read action). Nullable.
    BvUpTo { width: u32 },
}

/// A linearized position: its character class plus bit-vector role.
#[derive(Clone, Debug)]
pub(crate) struct Position {
    pub cc: CharClass,
    pub kind: PosKind,
}

/// The full result of the Glushkov construction.
#[derive(Clone, Debug)]
pub(crate) struct Glushkov {
    pub positions: Vec<Position>,
    pub nullable: bool,
    pub first: Vec<StateId>,
    pub last: Vec<StateId>,
    /// `follow[p]` — positions reachable from `p` in one step.
    pub follow: Vec<Vec<StateId>>,
}

/// Runs the construction. `allow_bv` controls whether single-class bounded
/// repetitions become bit-vector positions (NBVA) or are rejected with a
/// panic (NFA — the caller must unfold first).
///
/// # Panics
///
/// Panics if the regex contains a repetition shape the target model cannot
/// express (callers normalize with the `rap_regex::rewrite` passes first).
pub(crate) fn construct(regex: &Regex, allow_bv: bool) -> Glushkov {
    let mut b = Builder {
        positions: Vec::new(),
        follow: Vec::new(),
        allow_bv,
        seen: Vec::new(),
        stamp: 0,
    };
    let f = b.walk(regex);
    Glushkov {
        positions: b.positions,
        nullable: f.nullable,
        first: f.first,
        last: f.last,
        follow: b.follow,
    }
}

/// Per-subexpression factors of the construction.
struct Factors {
    nullable: bool,
    first: Vec<StateId>,
    last: Vec<StateId>,
}

impl Factors {
    fn empty() -> Self {
        Factors {
            nullable: true,
            first: Vec::new(),
            last: Vec::new(),
        }
    }
}

struct Builder {
    positions: Vec<Position>,
    follow: Vec<Vec<StateId>>,
    allow_bv: bool,
    /// `seen[q] == stamp` ⇔ `q` is already in the follow list being
    /// extended by [`Builder::link_loop`].
    seen: Vec<u64>,
    stamp: u64,
}

impl Builder {
    fn add_position(&mut self, cc: CharClass, kind: PosKind) -> StateId {
        let id = self.positions.len() as StateId;
        self.positions.push(Position { cc, kind });
        self.follow.push(Vec::new());
        id
    }

    /// Links `from` to `to` for a Star or Plus loop. The loop body's own
    /// walk may have made some of these edges already (as in `(a*b*)*`), so
    /// each follow list is extended with the positions of `to` it does not
    /// hold yet, in `to`'s order.
    fn link_loop(&mut self, from: &[StateId], to: &[StateId]) {
        self.seen.resize(self.positions.len(), 0);
        for &p in from {
            self.stamp += 1;
            let follow = &mut self.follow[p as usize];
            for &q in follow.iter() {
                self.seen[q as usize] = self.stamp;
            }
            for &q in to {
                if self.seen[q as usize] != self.stamp {
                    follow.push(q);
                }
            }
        }
    }

    fn walk(&mut self, regex: &Regex) -> Factors {
        match regex {
            Regex::Empty => Factors::empty(),
            Regex::Class(cc) => {
                if cc.is_empty() {
                    // ∅ — matches nothing: no positions, not nullable.
                    return Factors {
                        nullable: false,
                        first: vec![],
                        last: vec![],
                    };
                }
                let id = self.add_position(*cc, PosKind::Plain);
                Factors {
                    nullable: false,
                    first: vec![id],
                    last: vec![id],
                }
            }
            Regex::Concat(parts) => {
                let mut acc = Factors::empty();
                for part in parts {
                    let fresh = self.positions.len() as StateId;
                    let mut f = self.walk(part);
                    // `part` created every position of `f`, so the sets of
                    // `acc` and `f` are disjoint, and no follow list outside
                    // `part` reaches `f.first` yet: the edges and the sets
                    // below need no membership tests.
                    debug_assert!(apart(&[&acc.first, &acc.last], &[&f.first, &f.last], fresh));
                    for &p in &acc.last {
                        self.follow[p as usize].extend_from_slice(&f.first);
                    }
                    let mut first = acc.first;
                    if acc.nullable {
                        first.extend_from_slice(&f.first);
                    }
                    if f.nullable {
                        f.last.extend_from_slice(&acc.last);
                    }
                    acc = Factors {
                        nullable: acc.nullable && f.nullable,
                        first,
                        last: f.last,
                    };
                }
                acc
            }
            Regex::Alt(parts) => {
                let mut nullable = false;
                let mut first = Vec::new();
                let mut last = Vec::new();
                for part in parts {
                    let fresh = self.positions.len() as StateId;
                    let f = self.walk(part);
                    debug_assert!(apart(&[&first, &last], &[&f.first, &f.last], fresh));
                    nullable |= f.nullable;
                    first.extend_from_slice(&f.first);
                    last.extend_from_slice(&f.last);
                }
                Factors {
                    nullable,
                    first,
                    last,
                }
            }
            Regex::Star(inner) => {
                let f = self.walk(inner);
                self.link_loop(&f.last, &f.first);
                Factors {
                    nullable: true,
                    first: f.first,
                    last: f.last,
                }
            }
            Regex::Plus(inner) => {
                let f = self.walk(inner);
                self.link_loop(&f.last, &f.first);
                Factors {
                    nullable: f.nullable,
                    first: f.first,
                    last: f.last,
                }
            }
            Regex::Opt(inner) => {
                let f = self.walk(inner);
                Factors {
                    nullable: true,
                    first: f.first,
                    last: f.last,
                }
            }
            Regex::Repeat { inner, min, max } => {
                let (cc, kind) = match (&**inner, min, max) {
                    (Regex::Class(cc), m, Some(n)) if self.allow_bv && *m == *n && *m >= 1 => {
                        (*cc, PosKind::BvExact { width: *m })
                    }
                    (Regex::Class(cc), 0, Some(n)) if self.allow_bv && *n >= 1 => {
                        (*cc, PosKind::BvUpTo { width: *n })
                    }
                    _ => panic!(
                        "Glushkov construction reached an unsupported repetition \
                         {regex}; normalize with rap_regex::rewrite first"
                    ),
                };
                let id = self.add_position(cc, kind);
                // No self-link here: the repetition count advances *inside*
                // the bit vector (the executor's implicit shift), not via a
                // control-state emission edge. A `follow` self-edge on a BV
                // position therefore always denotes an enclosing loop
                // (e.g. `(σ{m})+`) that restarts the count.
                Factors {
                    nullable: matches!(kind, PosKind::BvUpTo { .. }),
                    first: vec![id],
                    last: vec![id],
                }
            }
        }
    }
}

/// Whether every position of `older` was created before `fresh` and every
/// position of `newer` at or after it: the first and last sets of two
/// subexpressions walked one after the other.
fn apart(older: &[&[StateId]], newer: &[&[StateId]], fresh: StateId) -> bool {
    older.iter().all(|set| set.iter().all(|&p| p < fresh))
        && newer.iter().all(|set| set.iter().all(|&q| q >= fresh))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_regex::parse;

    fn g(pattern: &str) -> Glushkov {
        construct(&parse(pattern).expect("pattern parses"), false)
    }

    #[test]
    fn literal_chain() {
        let gl = g("abc");
        assert_eq!(gl.positions.len(), 3);
        assert_eq!(gl.first, vec![0]);
        assert_eq!(gl.last, vec![2]);
        assert_eq!(gl.follow[0], vec![1]);
        assert_eq!(gl.follow[1], vec![2]);
        assert!(gl.follow[2].is_empty());
        assert!(!gl.nullable);
    }

    #[test]
    fn paper_example_2_1() {
        // a([bc]|b.*d) — 5 positions; q1 and q4 are final.
        let gl = g("a([bc]|b.*d)");
        assert_eq!(gl.positions.len(), 5);
        assert_eq!(gl.first, vec![0]);
        let mut last = gl.last.clone();
        last.sort_unstable();
        assert_eq!(last, vec![1, 4]); // [bc] and d
                                      // b (position 2) loops through .* (position 3) to d (position 4).
        assert!(gl.follow[2].contains(&3));
        assert!(gl.follow[2].contains(&4));
        assert!(gl.follow[3].contains(&3));
        assert!(gl.follow[3].contains(&4));
    }

    #[test]
    fn star_loops_back() {
        let gl = g("a*");
        assert!(gl.nullable);
        assert_eq!(gl.follow[0], vec![0]);
        assert_eq!(gl.first, vec![0]);
        assert_eq!(gl.last, vec![0]);
    }

    #[test]
    fn nullable_concat_extends_first_and_last() {
        let gl = g("a?b");
        assert_eq!(gl.positions.len(), 2);
        let mut first = gl.first.clone();
        first.sort_unstable();
        assert_eq!(first, vec![0, 1]);
        assert_eq!(gl.last, vec![1]);
    }

    #[test]
    fn alternation_unions() {
        let gl = g("ab|cd");
        assert_eq!(gl.positions.len(), 4);
        let mut first = gl.first.clone();
        first.sort_unstable();
        assert_eq!(first, vec![0, 2]);
        let mut last = gl.last.clone();
        last.sort_unstable();
        assert_eq!(last, vec![1, 3]);
    }

    #[test]
    fn bv_positions_when_allowed() {
        let gl = construct(&parse("bc{5}d").expect("parses"), true);
        assert_eq!(gl.positions.len(), 3);
        assert_eq!(gl.positions[1].kind, PosKind::BvExact { width: 5 });
        // No self-loop: the count advances inside the bit vector.
        assert!(!gl.follow[1].contains(&1));
        assert!(gl.follow[1].contains(&2));
    }

    #[test]
    fn bv_upto_is_nullable() {
        let gl = construct(&parse("ac{0,3}d").expect("parses"), true);
        assert_eq!(gl.positions[1].kind, PosKind::BvUpTo { width: 3 });
        // a must reach both c{0,3} and d (zero-repetition path).
        assert!(gl.follow[0].contains(&1));
        assert!(gl.follow[0].contains(&2));
    }

    #[test]
    #[should_panic(expected = "unsupported repetition")]
    fn nfa_mode_rejects_repetitions() {
        let _ = g("a{5}");
    }

    #[test]
    fn empty_class_matches_nothing() {
        let gl = construct(&Regex::Class(CharClass::empty()), false);
        assert!(gl.positions.is_empty());
        assert!(!gl.nullable);
        assert!(gl.first.is_empty());
    }
}
