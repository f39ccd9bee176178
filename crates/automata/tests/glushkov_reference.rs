//! The Glushkov builder against a reference copy of the construction it
//! replaced, which tests membership before adding each edge and each
//! first/last element. Both must build the same automata: the same
//! classes, successor lists in the same order, finals, initial states and
//! empty-match flag. Mapper placements and stored plans depend on that
//! order, so equal languages are not enough.

use proptest::prelude::*;
use rap_automata::nbva::{Nbva, NbvaState, ReadAction, StateKind};
use rap_automata::nfa::{Nfa, NfaState};
use rap_automata::StateId;
use rap_regex::rewrite::{split_bounded, unfold_all, unfold_below_threshold};
use rap_regex::{CharClass, Regex};

/// The reference construction's result: one `(class, kind)` and one
/// follow list per position.
struct Glushkov {
    positions: Vec<(CharClass, StateKind)>,
    follow: Vec<Vec<StateId>>,
    nullable: bool,
    first: Vec<StateId>,
    last: Vec<StateId>,
}

struct Factors {
    nullable: bool,
    first: Vec<StateId>,
    last: Vec<StateId>,
}

struct Reference {
    positions: Vec<(CharClass, StateKind)>,
    follow: Vec<Vec<StateId>>,
    allow_bv: bool,
}

impl Reference {
    fn construct(regex: &Regex, allow_bv: bool) -> Glushkov {
        let mut b = Reference {
            positions: Vec::new(),
            follow: Vec::new(),
            allow_bv,
        };
        let f = b.walk(regex);
        Glushkov {
            positions: b.positions,
            follow: b.follow,
            nullable: f.nullable,
            first: f.first,
            last: f.last,
        }
    }

    fn add_position(&mut self, cc: CharClass, kind: StateKind) -> StateId {
        self.positions.push((cc, kind));
        self.follow.push(Vec::new());
        (self.positions.len() - 1) as StateId
    }

    fn link(&mut self, from: &[StateId], to: &[StateId]) {
        for &p in from {
            let follow = &mut self.follow[p as usize];
            for &q in to {
                if !follow.contains(&q) {
                    follow.push(q);
                }
            }
        }
    }

    fn walk(&mut self, regex: &Regex) -> Factors {
        let single = |id| Factors {
            nullable: false,
            first: vec![id],
            last: vec![id],
        };
        match regex {
            Regex::Empty => Factors {
                nullable: true,
                first: vec![],
                last: vec![],
            },
            Regex::Class(cc) if cc.is_empty() => Factors {
                nullable: false,
                first: vec![],
                last: vec![],
            },
            Regex::Class(cc) => single(self.add_position(*cc, StateKind::Plain)),
            Regex::Concat(parts) => {
                let mut acc = Factors {
                    nullable: true,
                    first: vec![],
                    last: vec![],
                };
                for part in parts {
                    let f = self.walk(part);
                    self.link(&acc.last, &f.first);
                    let first = if acc.nullable {
                        union(&acc.first, &f.first)
                    } else {
                        acc.first
                    };
                    let last = if f.nullable {
                        union(&f.last, &acc.last)
                    } else {
                        f.last
                    };
                    acc = Factors {
                        nullable: acc.nullable && f.nullable,
                        first,
                        last,
                    };
                }
                acc
            }
            Regex::Alt(parts) => {
                let mut acc = Factors {
                    nullable: false,
                    first: vec![],
                    last: vec![],
                };
                for part in parts {
                    let f = self.walk(part);
                    acc.nullable |= f.nullable;
                    acc.first = union(&acc.first, &f.first);
                    acc.last = union(&acc.last, &f.last);
                }
                acc
            }
            Regex::Star(inner) | Regex::Plus(inner) => {
                let f = self.walk(inner);
                self.link(&f.last, &f.first);
                Factors {
                    nullable: f.nullable || matches!(regex, Regex::Star(_)),
                    ..f
                }
            }
            Regex::Opt(inner) => Factors {
                nullable: true,
                ..self.walk(inner)
            },
            Regex::Repeat { inner, min, max } => {
                let (cc, read, nullable) = match (&**inner, *min, *max) {
                    (Regex::Class(cc), m, Some(n)) if self.allow_bv && m == n && m >= 1 => {
                        (*cc, ReadAction::Exact(m), false)
                    }
                    (Regex::Class(cc), 0, Some(n)) if self.allow_bv && n >= 1 => {
                        (*cc, ReadAction::All, true)
                    }
                    _ => panic!("unsupported repetition {regex}"),
                };
                let width = max.expect("bounded");
                let id = self.add_position(cc, StateKind::Bv { width, read });
                Factors {
                    nullable,
                    ..single(id)
                }
            }
        }
    }
}

fn union(a: &[StateId], b: &[StateId]) -> Vec<StateId> {
    let mut out = a.to_vec();
    for &x in b {
        if !out.contains(&x) {
            out.push(x);
        }
    }
    out
}

fn reference_nfa(regex: &Regex) -> Nfa {
    let g = Reference::construct(&unfold_all(regex), false);
    let mut states: Vec<NfaState> = g
        .positions
        .iter()
        .zip(&g.follow)
        .map(|(&(cc, _), follow)| NfaState {
            cc,
            succ: follow.clone(),
            is_final: false,
        })
        .collect();
    for &f in &g.last {
        states[f as usize].is_final = true;
    }
    Nfa::from_parts(states, g.first, g.nullable)
}

fn reference_nbva(regex: &Regex, unfold_threshold: u32) -> Nbva {
    let rewritten = split_bounded(&unfold_below_threshold(regex, unfold_threshold));
    let g = Reference::construct(&rewritten, true);
    let mut states: Vec<NbvaState> = g
        .positions
        .iter()
        .zip(&g.follow)
        .map(|(&(cc, kind), follow)| NbvaState {
            cc,
            kind,
            succ: follow.clone(),
            is_final: false,
        })
        .collect();
    for &f in &g.last {
        states[f as usize].is_final = true;
    }
    Nbva::from_parts(states, g.first, g.nullable)
}

/// Regexes over {a, b, c} rich in the shapes where the two constructions
/// could part: loops over nullable bodies (whose loop edges can exist
/// already), long optional chains (`a{0,40}` unfolds to 40 `a?`), unbounded
/// repetitions (unfolded to a trailing star), alternations and bit-vector
/// repetitions.
fn arb_regex() -> impl Strategy<Value = Regex> {
    let leaf = prop_oneof![
        Just(Regex::literal_byte(b'a')),
        Just(Regex::literal_byte(b'b')),
        Just(Regex::literal_byte(b'c')),
        Just(Regex::Class(CharClass::from_bytes([b'a', b'c']))),
        (1u32..41).prop_map(|n| Regex::repeat(Regex::literal_byte(b'a'), 0, Some(n))),
        (1u32..9, 0u32..6).prop_map(|(m, extra)| {
            Regex::repeat(Regex::literal_byte(b'c'), m, Some(m + extra))
        }),
        (1u32..9).prop_map(|n| Regex::repeat(
            Regex::Class(CharClass::from_bytes([b'a', b'b'])),
            0,
            Some(n)
        )),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Regex::concat),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Regex::alt),
            inner.clone().prop_map(Regex::opt),
            inner.clone().prop_map(Regex::star),
            inner.clone().prop_map(Regex::plus),
            (inner.clone(), 0u32..3, 0u32..3).prop_map(|(r, m, extra)| Regex::repeat(
                r,
                m,
                Some(m + extra)
            )),
            (inner, 0u32..3).prop_map(|(r, m)| Regex::repeat(r, m, None)),
        ]
    })
    // The reference is cubic on optional chains: keep unfoldings small.
    .prop_filter("unfolds to at most 400 positions", |re| {
        re.unfolded_size() <= 400
    })
}

fn assert_same(regex: &Regex) {
    assert_eq!(
        Nfa::from_regex(regex),
        reference_nfa(regex),
        "NFA of {regex}"
    );
    for t in 0..=6 {
        assert_eq!(
            Nbva::from_regex(regex, t),
            reference_nbva(regex, t),
            "NBVA of {regex} at threshold {t}"
        );
    }
}

/// Loops over nullable bodies and long optional chains, by name.
#[test]
fn named_shapes_build_the_reference_automata() {
    for pattern in [
        "(a*)*",
        "(a+)*",
        "((ab?)*c)+",
        "(a*b*)*",
        "(a+|b?)+c",
        "(a?b?c?)*a",
        "a{0,40}",
        "ba{0,40}c",
        "(ab?){2,}",
        "(x{5})+y",
        "(c{0,9}|a)*b",
        "a(b{3,7}c?)+d",
    ] {
        assert_same(&rap_regex::parse(pattern).expect("parses"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Nfa::from_regex`, and `Nbva::from_regex` at every threshold 0–6,
    /// build exactly the reference construction's automata.
    #[test]
    fn builder_matches_the_reference_construction(re in arb_regex()) {
        prop_assert_eq!(Nfa::from_regex(&re), reference_nfa(&re), "NFA of {}", re);
        for t in 0..=6 {
            prop_assert_eq!(
                Nbva::from_regex(&re, t),
                reference_nbva(&re, t),
                "NBVA of {} at threshold {}",
                re,
                t
            );
        }
    }
}
