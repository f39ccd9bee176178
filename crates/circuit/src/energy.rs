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

    /// Charges `pj` picojoules to `category` `times` times over, one
    /// addition per charge, so the subtotal equals that many
    /// [`EnergyMeter::charge`] calls bit for bit even when `pj` is not
    /// exactly representable.
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
        for _ in 1..times {
            *subtotal += pj;
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

#[cfg(test)]
mod tests {
    use super::*;

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
