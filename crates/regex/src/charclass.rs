//! 256-way byte predicates ("character classes").
//!
//! A [`CharClass`] is the σ ⊆ Σ of the paper: a set of input symbols drawn
//! from the byte alphabet Σ = {0, …, 255}. It is stored as a 256-bit bitmap
//! (four `u64` words), so membership tests, unions, intersections and
//! complements are all constant-time.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A set of byte symbols, i.e. a predicate over the 256-symbol alphabet.
///
/// # Example
///
/// ```
/// use rap_regex::CharClass;
///
/// let digits = CharClass::range(b'0', b'9');
/// assert!(digits.contains(b'7'));
/// assert!(!digits.contains(b'a'));
/// assert_eq!(digits.len(), 10);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CharClass {
    words: [u64; 4],
}

impl CharClass {
    /// The empty predicate (matches no symbol).
    pub const fn empty() -> Self {
        CharClass { words: [0; 4] }
    }

    /// The full predicate Σ (PCRE `.` with DOTALL; matches every byte).
    pub const fn any() -> Self {
        CharClass {
            words: [u64::MAX; 4],
        }
    }

    /// The PCRE `.` without DOTALL: every byte except `\n`.
    pub fn dot() -> Self {
        let mut cc = Self::any();
        cc.remove(b'\n');
        cc
    }

    /// A predicate matching exactly one byte.
    pub fn single(byte: u8) -> Self {
        let mut cc = Self::empty();
        cc.insert(byte);
        cc
    }

    /// A predicate matching the inclusive byte range `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range(lo: u8, hi: u8) -> Self {
        assert!(lo <= hi, "invalid byte range {lo}..={hi}");
        let mut cc = Self::empty();
        for b in lo..=hi {
            cc.insert(b);
        }
        cc
    }

    /// Builds a predicate from an iterator of member bytes.
    pub fn from_bytes<I: IntoIterator<Item = u8>>(bytes: I) -> Self {
        let mut cc = Self::empty();
        for b in bytes {
            cc.insert(b);
        }
        cc
    }

    /// PCRE `\d`.
    pub fn digit() -> Self {
        Self::range(b'0', b'9')
    }

    /// PCRE `\w` (ASCII word characters).
    pub fn word() -> Self {
        let mut cc = Self::range(b'a', b'z');
        cc = cc.union(&Self::range(b'A', b'Z'));
        cc = cc.union(&Self::range(b'0', b'9'));
        cc.insert(b'_');
        cc
    }

    /// PCRE `\s` (ASCII whitespace).
    pub fn space() -> Self {
        Self::from_bytes([b' ', b'\t', b'\n', b'\r', 0x0b, 0x0c])
    }

    /// Adds a byte to the set.
    pub fn insert(&mut self, byte: u8) {
        self.words[(byte >> 6) as usize] |= 1u64 << (byte & 63);
    }

    /// Removes a byte from the set.
    pub fn remove(&mut self, byte: u8) {
        self.words[(byte >> 6) as usize] &= !(1u64 << (byte & 63));
    }

    /// Tests membership of a byte.
    #[inline]
    pub fn contains(&self, byte: u8) -> bool {
        self.words[(byte >> 6) as usize] & (1u64 << (byte & 63)) != 0
    }

    /// Number of member bytes.
    pub fn len(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words == [0; 4]
    }

    /// Whether the set is the full alphabet.
    pub fn is_any(&self) -> bool {
        self.words == [u64::MAX; 4]
    }

    /// Set union.
    #[must_use]
    pub fn union(&self, other: &Self) -> Self {
        let mut words = self.words;
        for (w, o) in words.iter_mut().zip(other.words.iter()) {
            *w |= o;
        }
        CharClass { words }
    }

    /// Set intersection.
    #[must_use]
    pub fn intersection(&self, other: &Self) -> Self {
        let mut words = self.words;
        for (w, o) in words.iter_mut().zip(other.words.iter()) {
            *w &= o;
        }
        CharClass { words }
    }

    /// Set complement with respect to the byte alphabet.
    #[must_use]
    pub fn complement(&self) -> Self {
        let mut words = self.words;
        for w in words.iter_mut() {
            *w = !*w;
        }
        CharClass { words }
    }

    /// Iterates over the member bytes in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            cc: self,
            next: 0,
            done: false,
        }
    }

    /// Calls `f` on each member byte, in ascending order, walking only the
    /// bitmap's set bits.
    fn for_each_member(&self, mut f: impl FnMut(usize)) {
        for (word, &bits) in self.words.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                f(word * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// The raw 4×`u64` bitmap, least-significant symbol first.
    pub fn as_words(&self) -> &[u64; 4] {
        &self.words
    }

    /// Picks an arbitrary member byte, if non-empty (used by workload
    /// generators to synthesize matching inputs).
    pub fn first_member(&self) -> Option<u8> {
        self.iter().next()
    }
}

impl Default for CharClass {
    fn default() -> Self {
        Self::empty()
    }
}

/// Iterator over the member bytes of a [`CharClass`].
pub struct Iter<'a> {
    cc: &'a CharClass,
    next: u16,
    done: bool,
}

impl Iterator for Iter<'_> {
    type Item = u8;

    fn next(&mut self) -> Option<u8> {
        if self.done {
            return None;
        }
        while self.next < 256 {
            let b = self.next as u8;
            self.next += 1;
            if self.cc.contains(b) {
                return Some(b);
            }
        }
        self.done = true;
        None
    }
}

/// The minterms of a set of character classes: the coarsest partition of
/// the 256 byte values that every class in the set respects, so each class
/// is a union of minterms. Automata over the set can step on a byte's
/// minterm instead of the byte.
///
/// # Example
///
/// ```
/// use rap_regex::charclass::Minterms;
/// use rap_regex::CharClass;
///
/// let ccs = [CharClass::range(b'a', b'f'), CharClass::range(b'd', b'z')];
/// let minterms = Minterms::of(&ccs);
/// // [a-c], [d-f], [g-z] and the rest.
/// assert_eq!(minterms.classes(), 4);
/// assert_eq!(minterms.class_of[usize::from(b'd')], minterms.class_of[usize::from(b'f')]);
/// ```
#[derive(Clone, Debug)]
pub struct Minterms {
    /// Byte → its minterm.
    pub class_of: [u8; 256],
    /// The smallest member byte of each minterm.
    pub reps: Vec<u8>,
}

impl Minterms {
    /// The minterms of `ccs`, in time linear in their total size.
    pub fn of<'a>(ccs: impl IntoIterator<Item = &'a CharClass>) -> Minterms {
        let mut class_of = [0u8; 256];
        // Bytes per minterm; per minterm, the bytes of the class being
        // applied and the fresh id of the part inside it; the minterms the
        // class touches.
        let mut size = vec![256u16];
        let (mut inside, mut fresh) = ([0u16; 256], [0u8; 256]);
        let mut touched = Vec::new();
        for cc in ccs {
            cc.for_each_member(|b| {
                let c = usize::from(class_of[b]);
                if inside[c] == 0 {
                    touched.push(c);
                }
                inside[c] += 1;
            });
            // A class `cc` cuts in two keeps its id outside `cc`; the part
            // inside gets a fresh one, in id order. Minterm 0 is never
            // fresh.
            touched.sort_unstable();
            for &c in &touched {
                if inside[c] < size[c] {
                    fresh[c] = size.len() as u8;
                    size[c] -= inside[c];
                    size.push(inside[c]);
                }
            }
            cc.for_each_member(|b| {
                let c = usize::from(class_of[b]);
                if fresh[c] != 0 {
                    class_of[b] = fresh[c];
                }
            });
            for c in touched.drain(..) {
                (inside[c], fresh[c]) = (0, 0);
            }
        }
        let mut reps = vec![0u8; size.len()];
        for b in (0..=255u8).rev() {
            reps[usize::from(class_of[usize::from(b)])] = b;
        }
        Minterms { class_of, reps }
    }

    /// Number of minterms.
    pub fn classes(&self) -> usize {
        self.reps.len()
    }

    /// Maps `input` to its minterm string.
    pub fn classify(&self, input: &[u8]) -> Vec<u8> {
        input.iter().map(|&b| self.class_of[b as usize]).collect()
    }
}

impl FromIterator<u8> for CharClass {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Self::from_bytes(iter)
    }
}

impl Extend<u8> for CharClass {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        for b in iter {
            self.insert(b);
        }
    }
}

impl fmt::Debug for CharClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CharClass({self})")
    }
}

impl fmt::Display for CharClass {
    /// Renders the class in PCRE-ish syntax (`a`, `[a-z]`, `.`, `[]`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_any() {
            return write!(f, "\\p{{any}}");
        }
        if *self == CharClass::dot() {
            return write!(f, ".");
        }
        if self.is_empty() {
            return write!(f, "[]");
        }
        let bytes: Vec<u8> = self.iter().collect();
        if bytes.len() == 1 {
            return write!(f, "{}", escape_byte(bytes[0]));
        }
        // Group consecutive runs into ranges.
        write!(f, "[")?;
        let mut i = 0;
        while i < bytes.len() {
            // Widen to u16: a run ending at byte 255 must not overflow.
            let start = u16::from(bytes[i]);
            let mut end = start;
            while i + 1 < bytes.len() && u16::from(bytes[i + 1]) == end + 1 {
                i += 1;
                end = u16::from(bytes[i]);
            }
            let (lo, hi) = (start as u8, end as u8);
            if end > start + 1 {
                write!(f, "{}-{}", escape_byte(lo), escape_byte(hi))?;
            } else if end == start + 1 {
                write!(f, "{}{}", escape_byte(lo), escape_byte(hi))?;
            } else {
                write!(f, "{}", escape_byte(lo))?;
            }
            i += 1;
        }
        write!(f, "]")
    }
}

fn escape_byte(b: u8) -> String {
    match b {
        b'\\' | b'[' | b']' | b'(' | b')' | b'{' | b'}' | b'*' | b'+' | b'?' | b'|' | b'.'
        | b'^' | b'$' | b'-' => {
            format!("\\{}", b as char)
        }
        b'\n' => "\\n".to_string(),
        b'\r' => "\\r".to_string(),
        b'\t' => "\\t".to_string(),
        0x20..=0x7e => (b as char).to_string(),
        _ => format!("\\x{b:02x}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Byte-at-a-time minterm refinement, numbering minterms as
    /// [`Minterms::of`] does: a split minterm keeps its id for the bytes
    /// outside the class, and the bytes inside get fresh ids in id order.
    fn minterms_by_byte(ccs: &[CharClass]) -> ([u8; 256], usize) {
        let mut class_of = [0u8; 256];
        let mut size = vec![256u16];
        for cc in ccs {
            let mut inside = vec![0u16; size.len()];
            for b in cc.iter() {
                inside[usize::from(class_of[usize::from(b)])] += 1;
            }
            let mut fresh = vec![0u8; size.len()];
            for c in 0..inside.len() {
                if inside[c] > 0 && inside[c] < size[c] {
                    fresh[c] = size.len() as u8;
                    size[c] -= inside[c];
                    size.push(inside[c]);
                }
            }
            for b in cc.iter() {
                let c = usize::from(class_of[usize::from(b)]);
                if fresh[c] != 0 {
                    class_of[usize::from(b)] = fresh[c];
                }
            }
        }
        (class_of, size.len())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Minterms equal the byte-at-a-time refinement, ids included, and
        /// each representative is its minterm's smallest byte.
        #[test]
        fn minterms_equal_byte_refinement(
            classes in prop::collection::vec((any::<u64>(), 0u8..=255, 0u8..=255, 0u8..4), 0..40),
        ) {
            let ccs: Vec<CharClass> = classes
                .iter()
                .map(|&(bits, lo, hi, kind)| match kind {
                    0 => CharClass::single(lo),
                    1 => CharClass::range(lo.min(hi), lo.max(hi)),
                    2 => CharClass::range(lo.min(hi), lo.max(hi)).complement(),
                    _ => CharClass::from_bytes((0..64).filter(|i| bits >> i & 1 == 1).map(|i| lo.wrapping_add(i))),
                })
                .collect();
            let minterms = Minterms::of(&ccs);
            let (class_of, classes) = minterms_by_byte(&ccs);
            prop_assert_eq!(minterms.class_of, class_of);
            prop_assert_eq!(minterms.classes(), classes);
            for (m, &rep) in minterms.reps.iter().enumerate() {
                prop_assert_eq!(usize::from(minterms.class_of[usize::from(rep)]), m);
                prop_assert!((0..rep).all(|b| usize::from(minterms.class_of[usize::from(b)]) != m));
            }
        }
    }

    #[test]
    fn empty_and_any() {
        assert_eq!(CharClass::empty().len(), 0);
        assert!(CharClass::empty().is_empty());
        assert_eq!(CharClass::any().len(), 256);
        assert!(CharClass::any().is_any());
    }

    #[test]
    fn single_membership() {
        let cc = CharClass::single(b'x');
        assert!(cc.contains(b'x'));
        assert!(!cc.contains(b'y'));
        assert_eq!(cc.len(), 1);
        assert_eq!(cc.first_member(), Some(b'x'));
    }

    #[test]
    fn range_members() {
        let cc = CharClass::range(b'a', b'f');
        for b in b'a'..=b'f' {
            assert!(cc.contains(b));
        }
        assert!(!cc.contains(b'g'));
        assert_eq!(cc.len(), 6);
    }

    #[test]
    #[should_panic(expected = "invalid byte range")]
    fn range_rejects_inverted_bounds() {
        let _ = CharClass::range(b'z', b'a');
    }

    #[test]
    fn boolean_algebra() {
        let d = CharClass::digit();
        let w = CharClass::word();
        assert_eq!(d.intersection(&w), d);
        assert_eq!(d.union(&w), w);
        assert_eq!(d.complement().complement(), d);
        assert_eq!(d.intersection(&d.complement()), CharClass::empty());
        assert_eq!(d.union(&d.complement()), CharClass::any());
    }

    #[test]
    fn dot_excludes_newline() {
        let dot = CharClass::dot();
        assert!(!dot.contains(b'\n'));
        assert!(dot.contains(b'a'));
        assert_eq!(dot.len(), 255);
    }

    #[test]
    fn iter_ascending() {
        let cc = CharClass::from_bytes([b'z', b'a', b'm']);
        let v: Vec<u8> = cc.iter().collect();
        assert_eq!(v, vec![b'a', b'm', b'z']);
    }

    #[test]
    fn boundary_bytes() {
        let mut cc = CharClass::empty();
        cc.insert(0);
        cc.insert(63);
        cc.insert(64);
        cc.insert(127);
        cc.insert(128);
        cc.insert(255);
        for b in [0u8, 63, 64, 127, 128, 255] {
            assert!(cc.contains(b), "byte {b}");
        }
        assert_eq!(cc.len(), 6);
        cc.remove(255);
        assert!(!cc.contains(255));
    }

    #[test]
    fn display_roundtrips_through_parser_categories() {
        assert_eq!(CharClass::single(b'a').to_string(), "a");
        assert_eq!(CharClass::range(b'0', b'9').to_string(), "[0-9]");
        assert_eq!(CharClass::dot().to_string(), ".");
    }

    #[test]
    fn collect_and_extend() {
        let cc: CharClass = [b'a', b'b'].into_iter().collect();
        assert_eq!(cc.len(), 2);
        let mut cc2 = cc;
        cc2.extend([b'c']);
        assert_eq!(cc2.len(), 3);
    }

    #[test]
    fn predefined_classes() {
        assert_eq!(CharClass::digit().len(), 10);
        assert_eq!(CharClass::word().len(), 63);
        assert_eq!(CharClass::space().len(), 6);
        assert!(CharClass::word().contains(b'_'));
    }
}
