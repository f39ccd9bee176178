//! Character-class encodings for CAM-based state matching.
//!
//! **32-bit per-column code.** The tile CAM has 32 rows; an input byte
//! activates two "low-nibble" rows and two "high-nibble" rows (one pair per
//! 16-row half). A column stores two *product terms* — each a 16-bit
//! high-nibble mask plus a 16-bit low-nibble mask packed into the 32 cells
//! with the multi-zero prefix trick of CAMA — and matches when either term
//! matches. An arbitrary character class is therefore encoded as a union of
//! `highs × lows` products, **two products per CAM column**: literal bytes,
//! digit classes, `.`, `[a-z]`-style ranges and small alternations all fit
//! a single column (the paper's "84% of LNFAs are single-code" regime),
//! while complex classes like `\w` spill over several columns. LNFAs whose
//! classes do not fit a single code are matched in the local switch
//! instead (§3.2); `rap-sim`'s chain kernel charges that path.

use rap_regex::CharClass;
use serde::{Deserialize, Serialize};

/// One product term: the set `highs × lows` of nibble sets.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ProductTerm {
    /// Bit i set ⇔ high nibble i is in the set.
    pub hi_mask: u16,
    /// Bit i set ⇔ low nibble i is in the set.
    pub lo_mask: u16,
}

impl ProductTerm {
    /// Whether the term matches a byte.
    #[inline]
    pub fn matches(&self, byte: u8) -> bool {
        let hi = byte >> 4;
        let lo = byte & 0x0f;
        self.hi_mask & (1 << hi) != 0 && self.lo_mask & (1 << lo) != 0
    }

    /// Whether the term is empty.
    pub fn is_empty(&self) -> bool {
        self.hi_mask == 0 || self.lo_mask == 0
    }
}

/// A 32-bit CAM column code: up to two product terms.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CcCode {
    /// The two product terms (either may be empty).
    pub terms: [ProductTerm; 2],
}

impl CcCode {
    /// A code holding a single product term.
    pub fn single(term: ProductTerm) -> CcCode {
        CcCode {
            terms: [term, ProductTerm::default()],
        }
    }

    /// A code holding two product terms.
    pub fn pair(a: ProductTerm, b: ProductTerm) -> CcCode {
        CcCode { terms: [a, b] }
    }

    /// Whether the code matches an input byte.
    #[inline]
    pub fn matches(&self, byte: u8) -> bool {
        self.terms[0].matches(byte) || self.terms[1].matches(byte)
    }

    /// The character class this single code matches.
    pub fn to_class(self) -> CharClass {
        let mut cc = CharClass::empty();
        for term in self.terms {
            for hi in 0..16u8 {
                if term.hi_mask & (1 << hi) == 0 {
                    continue;
                }
                for lo in 0..16u8 {
                    if term.lo_mask & (1 << lo) != 0 {
                        cc.insert((hi << 4) | lo);
                    }
                }
            }
        }
        cc
    }
}

/// The canonical product-term cover of a class: high nibbles sharing an
/// identical low-nibble set form one term, in order of each term's lowest
/// high nibble. Terms are disjoint and their union is exactly `cc`.
pub fn product_cover(cc: &CharClass) -> Vec<ProductTerm> {
    // High nibble `hi` owns bytes `16·hi ..= 16·hi + 15`: bits `16·(hi % 4)`
    // up of bitmap word `hi / 4`, so its low-nibble set is that 16-bit lane.
    let words = cc.as_words();
    let lo_sets: [u16; 16] = std::array::from_fn(|hi| (words[hi / 4] >> (16 * (hi % 4))) as u16);
    let mut terms: Vec<ProductTerm> = Vec::new();
    for (hi, &lo) in lo_sets.iter().enumerate() {
        if lo == 0 {
            continue;
        }
        if let Some(term) = terms.iter_mut().find(|t| t.lo_mask == lo) {
            term.hi_mask |= 1 << hi;
        } else {
            terms.push(ProductTerm {
                hi_mask: 1 << hi,
                lo_mask: lo,
            });
        }
    }
    terms
}

/// Encodes a character class as CAM column codes, two product terms per
/// column. Returns an empty vector for the empty class.
///
/// # Example
///
/// ```
/// use rap_arch::encoding::encode_class;
/// use rap_regex::CharClass;
///
/// assert_eq!(encode_class(&CharClass::single(b'a')).len(), 1);
/// assert_eq!(encode_class(&CharClass::range(b'a', b'z')).len(), 1);
/// assert_eq!(encode_class(&CharClass::word()).len(), 2);
/// ```
pub fn encode_class(cc: &CharClass) -> Vec<CcCode> {
    let terms = product_cover(cc);
    terms
        .chunks(2)
        .map(|pair| match pair {
            [a] => CcCode::single(*a),
            [a, b] => CcCode::pair(*a, *b),
            _ => unreachable!("chunks(2) yields 1- or 2-element slices"),
        })
        .collect()
}

/// Number of CAM columns a class occupies.
pub fn column_count(cc: &CharClass) -> u32 {
    product_cover(cc).len().div_ceil(2) as u32
}

/// Encodes a class into a single 32-bit code if possible — the §3.2
/// requirement for executing an LNFA inside the CAM ("all CCs in an LNFA
/// mapped to the CAM must be encodable within a single 32-bit code"; 84%
/// of LNFAs qualify in the paper's benchmarks).
pub fn single_code(cc: &CharClass) -> Option<CcCode> {
    if cc.is_empty() {
        return None;
    }
    let codes = encode_class(cc);
    match codes.as_slice() {
        [one] => Some(*one),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_cover_exact(cc: &CharClass) {
        let codes = encode_class(cc);
        for b in 0..=255u8 {
            let covered = codes.iter().any(|c| c.matches(b));
            assert_eq!(covered, cc.contains(b), "byte {b:#04x}");
        }
    }

    #[test]
    fn exact_cover_for_common_classes() {
        for cc in [
            CharClass::single(b'a'),
            CharClass::digit(),
            CharClass::word(),
            CharClass::space(),
            CharClass::dot(),
            CharClass::any(),
            CharClass::range(b'a', b'z'),
            CharClass::range(0x00, 0xff),
            CharClass::from_bytes([0x00, 0x7f, 0x80, 0xff]),
            CharClass::single(b'\\').complement(),
            CharClass::from_bytes(*b"ILVF"), // PROSITE-style amino set
        ] {
            assert_cover_exact(&cc);
        }
    }

    #[test]
    fn single_code_classes() {
        assert!(single_code(&CharClass::single(b'x')).is_some());
        assert!(single_code(&CharClass::digit()).is_some());
        assert!(single_code(&CharClass::any()).is_some());
        assert!(single_code(&CharClass::dot()).is_some());
        // [a-z] spans two product terms but fits one two-term code.
        assert!(single_code(&CharClass::range(b'a', b'z')).is_some());
        // Amino alternations fit one code too.
        assert!(single_code(&CharClass::from_bytes(*b"ILVF")).is_some());
        // \w needs four terms = two columns.
        assert!(single_code(&CharClass::word()).is_none());
        assert!(single_code(&CharClass::empty()).is_none());
    }

    #[test]
    fn column_counts() {
        assert_eq!(column_count(&CharClass::single(b'a')), 1);
        assert_eq!(column_count(&CharClass::any()), 1);
        assert_eq!(column_count(&CharClass::dot()), 1);
        assert_eq!(column_count(&CharClass::range(b'a', b'z')), 1);
        assert_eq!(column_count(&CharClass::word()), 2);
        assert_eq!(column_count(&CharClass::empty()), 0);
        // Six distinct lo-sets → six terms → three columns.
        let weird = CharClass::from_bytes([0x05, 0x16, 0x27, 0x38, 0x49, 0x5a]);
        assert_eq!(product_cover(&weird).len(), 6);
        assert_eq!(column_count(&weird), 3);
    }

    #[test]
    fn grouping_merges_identical_lo_sets() {
        // [A-Oa-o]: high nibbles 4 and 6 share lo set 1..15 → one term.
        let cc = CharClass::range(b'A', b'O').union(&CharClass::range(b'a', b'o'));
        assert_eq!(product_cover(&cc).len(), 1);
        assert_eq!(column_count(&cc), 1);
    }

    #[test]
    fn code_roundtrip_through_class() {
        for cc in [CharClass::digit(), CharClass::range(b'a', b'z')] {
            let code = single_code(&cc).expect("fits one code");
            assert_eq!(code.to_class(), cc);
        }
    }
}
