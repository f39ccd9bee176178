//! Energy accounting.
//!
//! The simulator charges every micro-operation (CAM search, switch
//! traversal, controller tick, wire toggle, …) to an [`EnergyMeter`], which
//! keeps per-category subtotals so the evaluation can report breakdowns
//! like Fig. 11 of the paper.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Energy categories used by the simulators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Category {
    /// CAM searches during state matching.
    StateMatch,
    /// Local switch traversals during state transition.
    LocalSwitch,
    /// Global switch traversals during state transition.
    GlobalSwitch,
    /// Global wires between tiles/arrays.
    Wire,
    /// Bit-vector processing phase (reads, routing, actions, write-back).
    BitVector,
    /// Local and global controllers.
    Controller,
    /// Input/output buffering.
    Buffer,
    /// Static leakage integrated over the run time.
    Leakage,
}

impl Category {
    /// All categories, in report order.
    pub fn all() -> [Category; 8] {
        [
            Category::StateMatch,
            Category::LocalSwitch,
            Category::GlobalSwitch,
            Category::Wire,
            Category::BitVector,
            Category::Controller,
            Category::Buffer,
            Category::Leakage,
        ]
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Category::StateMatch => "state-match",
            Category::LocalSwitch => "local-switch",
            Category::GlobalSwitch => "global-switch",
            Category::Wire => "wire",
            Category::BitVector => "bit-vector",
            Category::Controller => "controller",
            Category::Buffer => "buffer",
            Category::Leakage => "leakage",
        };
        f.write_str(s)
    }
}

/// Accumulates picojoule charges by category.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EnergyMeter {
    /// Subtotal per category, indexed by `Category as usize`.
    pj: [f64; 8],
    /// Bit `c` is set once category `c` has been charged (even with 0 pJ),
    /// so breakdowns list exactly the categories a run touched.
    charged: u8,
}

impl EnergyMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `pj` picojoules to `category`.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite charges (a sign of a modeling bug).
    pub fn charge(&mut self, category: Category, pj: f64) {
        assert!(
            pj.is_finite() && pj >= 0.0,
            "invalid energy charge {pj} pJ to {category}"
        );
        self.pj[category as usize] += pj;
        self.charged |= 1 << category as u8;
    }

    /// Charges `pj` picojoules to `category` `times` times over. The
    /// subtotal equals that many [`EnergyMeter::charge`] calls bit for bit,
    /// even when `pj` is not exactly representable, in time that grows with
    /// the binades the subtotal crosses, not with `times`.
    ///
    /// Inside one binade every value is a multiple of one ulp, so adding
    /// `pj` rounds to adding `pj`'s nearest whole number of ulps: the same
    /// number on every addition whose result stays in the binade. When `pj`
    /// is a rounding tie, the tie goes to the even neighbour, so that
    /// number settles once one addition has landed in the binade. The
    /// subtotal therefore jumps to just below the binade's top and crosses
    /// it with single additions.
    ///
    /// # Panics
    ///
    /// Panics on a negative or non-finite `pj`.
    pub fn charge_repeated(&mut self, category: Category, pj: f64, times: u64) {
        if times == 0 {
            return;
        }
        self.charge(category, pj);
        let subtotal = &mut self.pj[category as usize];
        let mut left = times - 1;
        // Whether the last addition started and ended in one binade.
        let mut settled = false;
        while left > 0 {
            let before = subtotal.to_bits();
            *subtotal += pj;
            left -= 1;
            let after = subtotal.to_bits();
            let inside = binade(before) == binade(after);
            if inside && settled {
                // This addition started from a settled subtotal: every
                // later one that stays in the binade adds as many ulps.
                let ulps = after - before;
                if ulps == 0 {
                    break;
                }
                let top = (binade(after) + 1) << 52;
                let jump = ((top - 1 - after) / ulps).min(left);
                *subtotal = f64::from_bits(after + jump * ulps);
                left -= jump;
            }
            settled = inside;
        }
    }

    /// Subtotal of one category, in picojoules.
    pub fn category_pj(&self, category: Category) -> f64 {
        self.pj[category as usize]
    }

    /// Total across categories, in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.iter().map(|(_, pj)| pj).sum()
    }

    /// Total in microjoules (the unit of Tables 2 and 3).
    pub fn total_uj(&self) -> f64 {
        self.total_pj() * 1e-6
    }

    /// Iterates over the charged `(category, picojoules)` pairs in report
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (Category, f64)> + '_ {
        Category::all()
            .into_iter()
            .filter(|&c| self.charged & (1 << c as u8) != 0)
            .map(|c| (c, self.pj[c as usize]))
    }
}

/// The binade of a non-negative `f64`, given by its bits: its exponent
/// field, with the subnormals folded into the lowest normal binade, whose
/// ulp they share. Within one binade consecutive values are consecutive
/// bit patterns.
fn binade(bits: u64) -> u64 {
    (bits >> 52).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn charges_accumulate() {
        let mut m = EnergyMeter::new();
        m.charge(Category::StateMatch, 4.0);
        m.charge(Category::StateMatch, 4.0);
        m.charge(Category::LocalSwitch, 1.5);
        assert_eq!(m.category_pj(Category::StateMatch), 8.0);
        assert_eq!(m.category_pj(Category::LocalSwitch), 1.5);
        assert_eq!(m.category_pj(Category::Wire), 0.0);
        assert!((m.total_pj() - 9.5).abs() < 1e-12);
    }

    #[test]
    fn repeated_charges_equal_single_charges() {
        let (mut once, mut repeated) = (EnergyMeter::new(), EnergyMeter::new());
        once.charge(Category::Buffer, 0.1);
        repeated.charge(Category::Buffer, 0.1);
        for _ in 0..1_000 {
            once.charge(Category::Buffer, 0.2);
        }
        repeated.charge_repeated(Category::Buffer, 0.2, 1_000);
        repeated.charge_repeated(Category::Wire, 0.2, 0);
        assert_eq!(
            once.category_pj(Category::Buffer).to_bits(),
            repeated.category_pj(Category::Buffer).to_bits()
        );
        assert_eq!(once, repeated, "zero repeats mark nothing");
    }

    /// `2^k` for any `k` a double can hold, subnormal powers included.
    fn pow2(k: i64) -> f64 {
        if k >= -1022 {
            f64::from_bits(((k + 1023) as u64) << 52)
        } else {
            f64::from_bits(1 << (k + 1074))
        }
    }

    /// A starting subtotal: 0, a few ulps below a power of two, or any
    /// normal value.
    fn start_subtotal(kind: u64, exponent: u64, mantissa: u64) -> f64 {
        match kind {
            0 => 0.0,
            1 => f64::from_bits((exponent << 52) - 1 - mantissa % 8),
            _ => f64::from_bits((exponent << 52) | mantissa),
        }
    }

    /// A charge relative to `start`: 0, a rounding tie (0.5, 1.5 or 2.5
    /// ulps) in `start`'s binade or the next, a subnormal, a value a few
    /// binades below `start`, or a decimal the cost models use.
    fn charge_of(kind: u64, start: f64, shift: u64, mantissa: u64) -> f64 {
        let exponent = (start.to_bits() >> 52).max(1) as i64;
        match kind {
            0 => 0.0,
            1 => {
                let half_ulp = exponent - 1076 + (shift / 3 % 2) as i64;
                (2 * (shift % 3) + 1) as f64 * pow2(half_ulp.max(-1074))
            }
            2 => f64::from_bits(1 + mantissa % ((1 << 52) - 1)),
            3 => {
                let e = (exponent - 1 - (shift % 60) as i64).max(1) as u64;
                f64::from_bits((e << 52) | mantissa)
            }
            _ => [0.1, 0.2, 0.3, 0.7, 1e-3, 3.3][(mantissa % 6) as usize],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `charge_repeated` equals `times` single charges bit for bit,
        /// from subtotals of 0, just below a power of two and anywhere,
        /// with ties, zero, subnormal and small charges.
        #[test]
        fn repeated_charges_equal_single_charges_bit_for_bit(
            start_kind in 0u64..3,
            exponent in 1u64..1100,
            start_mantissa in 0u64..(1 << 52),
            pj_kind in 0u64..5,
            shift in 0u64..64,
            pj_mantissa in 0u64..(1 << 52),
            times in 0u64..=100_000,
        ) {
            let start = start_subtotal(start_kind, exponent, start_mantissa);
            let pj = charge_of(pj_kind, start, shift, pj_mantissa);
            let (mut single, mut repeated) = (EnergyMeter::new(), EnergyMeter::new());
            single.charge(Category::Buffer, start);
            repeated.charge(Category::Buffer, start);
            for _ in 0..times {
                single.charge(Category::Buffer, pj);
            }
            repeated.charge_repeated(Category::Buffer, pj, times);
            prop_assert_eq!(
                single.category_pj(Category::Buffer).to_bits(),
                repeated.category_pj(Category::Buffer).to_bits(),
                "start {:e}, pj {:e}, {} times", start, pj, times
            );
        }
    }

    #[test]
    fn uj_conversion() {
        let mut m = EnergyMeter::new();
        m.charge(Category::BitVector, 2_000_000.0);
        assert!((m.total_uj() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid energy charge")]
    fn negative_charge_panics() {
        EnergyMeter::new().charge(Category::Buffer, -1.0);
    }

    #[test]
    fn iter_in_order() {
        let mut m = EnergyMeter::new();
        m.charge(Category::Leakage, 1.0);
        m.charge(Category::StateMatch, 1.0);
        let cats: Vec<Category> = m.iter().map(|(c, _)| c).collect();
        assert_eq!(cats, vec![Category::StateMatch, Category::Leakage]);
    }
}
