//! Property tests for the character-class encodings: every encoding must
//! be exact for arbitrary classes.

use proptest::prelude::*;
use rap_arch::encoding::{encode_class, product_cover, single_code};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

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
