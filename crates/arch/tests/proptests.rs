//! Property tests for the character-class encodings: every encoding must
//! be exact for arbitrary classes.

use proptest::prelude::*;
use rap_arch::encoding::{encode_class, product_cover, single_code, ProductTerm};
use rap_regex::CharClass;

fn arb_class() -> impl Strategy<Value = CharClass> {
    prop_oneof![
        // Arbitrary sparse sets.
        prop::collection::vec(any::<u8>(), 0..24).prop_map(CharClass::from_bytes),
        // Ranges.
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| { CharClass::range(a.min(b), a.max(b)) }),
        // Complements of small sets.
        prop::collection::vec(any::<u8>(), 1..6)
            .prop_map(|v| CharClass::from_bytes(v).complement()),
    ]
}

/// The class of the bytes `member` accepts.
fn class_where(member: impl Fn(u8) -> bool) -> CharClass {
    CharClass::from_bytes((0..=255u8).filter(|&b| member(b)))
}

/// Arbitrary 256-bit classes, and classes whose high nibbles draw their
/// low-nibble sets from a few lanes, so that terms merge high nibbles.
fn arb_bitmap() -> impl Strategy<Value = CharClass> {
    prop_oneof![
        prop::collection::vec(any::<u64>(), 4).prop_map(|w| class_where(|b| w
            [usize::from(b / 64)]
            >> (b % 64)
            & 1
            == 1)),
        (
            prop::collection::vec(any::<u16>(), 1..4),
            prop::collection::vec(0usize..4, 16),
        )
            .prop_map(|(lanes, picks)| {
                let lo_sets: Vec<u16> = picks.iter().map(|&i| lanes[i % lanes.len()]).collect();
                class_where(|b| lo_sets[usize::from(b >> 4)] >> (b & 0x0f) & 1 == 1)
            }),
        arb_class(),
    ]
}

/// The cover built by walking every member byte, as `product_cover` did
/// before it read the bitmap's 16-bit lanes.
fn byte_walk_cover(cc: &CharClass) -> Vec<ProductTerm> {
    let mut lo_sets = [0u16; 16];
    for b in cc.iter() {
        lo_sets[usize::from(b >> 4)] |= 1 << (b & 0x0f);
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The cover read from the bitmap's lanes is the byte walk's, term
    /// order included.
    #[test]
    fn product_cover_equals_the_byte_walk(cc in arb_bitmap()) {
        prop_assert_eq!(product_cover(&cc), byte_walk_cover(&cc));
    }

    /// The product-term cover is exact and disjoint for every class.
    #[test]
    fn product_cover_is_exact_partition(cc in arb_class()) {
        let terms = product_cover(&cc);
        for b in 0..=255u8 {
            let hits = terms.iter().filter(|t| t.matches(b)).count();
            prop_assert_eq!(hits > 0, cc.contains(b), "byte {:#04x}", b);
            prop_assert!(hits <= 1, "byte {:#04x} in {} terms", b, hits);
        }
    }

    /// The two-term column codes cover exactly the class.
    #[test]
    fn column_codes_are_exact(cc in arb_class()) {
        let codes = encode_class(&cc);
        for b in 0..=255u8 {
            prop_assert_eq!(
                codes.iter().any(|c| c.matches(b)),
                cc.contains(b),
                "byte {:#04x}", b
            );
        }
        prop_assert_eq!(codes.len(), product_cover(&cc).len().div_ceil(2));
    }

    /// A single code, when it exists, round-trips through `to_class`.
    #[test]
    fn single_code_roundtrip(cc in arb_class()) {
        if let Some(code) = single_code(&cc) {
            prop_assert_eq!(code.to_class(), cc);
        }
    }
}
