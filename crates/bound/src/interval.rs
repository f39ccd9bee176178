//! The counter interval lattice.
//!
//! An NBVA bit-vector state tracks a bounded repetition as a set of
//! 1-indexed count positions (§3.1): an entering activation sets position
//! 1, and every consumed symbol shifts all positions up by one, dropping
//! whatever shifts past the allocated storage. The abstract domain here is
//! the classic interval lattice over those positions — `[lo, hi]`
//! over-approximates the set of positions that can simultaneously hold a
//! bit — with a widening operator so the fixpoint closes in a bounded
//! number of steps regardless of the vector width.

use std::fmt;

/// How many precise iterations to run before widening jumps the upper
/// bound to the capacity. Small bounded repetitions close exactly within
/// this budget; everything larger is widened (soundly) to the top.
const WIDEN_AFTER: u32 = 4;

/// An interval `[lo, hi]` of 1-indexed counter positions; empty when
/// `lo > hi` (the lattice bottom).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Smallest position that can hold a bit.
    pub lo: u32,
    /// Largest position that can hold a bit.
    pub hi: u32,
}

impl Interval {
    /// The empty interval (no position can hold a bit).
    pub fn bottom() -> Interval {
        Interval { lo: 1, hi: 0 }
    }

    /// The single position `p`.
    pub fn singleton(p: u32) -> Interval {
        Interval { lo: p, hi: p }
    }

    /// Whether no position is representable.
    pub fn is_empty(self) -> bool {
        self.lo > self.hi
    }

    /// Whether position `p` lies in the interval.
    pub fn contains(self, p: u32) -> bool {
        self.lo <= p && p <= self.hi
    }

    /// Least upper bound.
    pub fn join(self, other: Interval) -> Interval {
        if self.is_empty() {
            return other;
        }
        if other.is_empty() {
            return self;
        }
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// One symbol's transfer function: every position advances by one and
    /// bits shifted past `cap` fall off the end of the allocated storage.
    pub fn shift(self, cap: u32) -> Interval {
        if self.is_empty() || self.lo + 1 > cap {
            return Interval::bottom();
        }
        Interval {
            lo: self.lo + 1,
            hi: (self.hi + 1).min(cap),
        }
    }

    /// Widening: any bound still moving after the precise iterations jumps
    /// straight to its extreme, guaranteeing termination.
    pub fn widen(self, next: Interval, cap: u32) -> Interval {
        if self.is_empty() {
            return next;
        }
        if next.is_empty() {
            return self;
        }
        Interval {
            lo: if next.lo < self.lo { 1 } else { self.lo },
            hi: if next.hi > self.hi { cap } else { self.hi },
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            f.write_str("[]")
        } else {
            write!(f, "[{}, {}]", self.lo, self.hi)
        }
    }
}

/// The abstract value of a reachable `width`-bit counter stored in
/// `capacity` bits of CAM: the fixpoint of "join a fresh activation at
/// position 1 with everything already counting, shifted by one symbol",
/// widened after `WIDEN_AFTER` (4) precise rounds.
///
/// The result is certified sound: every bit the hardware vector can ever
/// hold sits at a position inside the returned interval, so a read
/// `r(m)` with `m` outside it can never observe a set bit.
pub fn counter_interval(width: u32, capacity: u64) -> Interval {
    let cap = u32::try_from(capacity.min(u64::from(width))).unwrap_or(width);
    if cap == 0 {
        return Interval::bottom();
    }
    let entry = Interval::singleton(1);
    let mut value = Interval::bottom();
    let mut rounds = 0u32;
    loop {
        let next = value.shift(cap).join(entry);
        if next == value {
            return value;
        }
        value = if rounds >= WIDEN_AFTER {
            value.widen(next, cap)
        } else {
            next
        };
        rounds += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_laws_hold() {
        let a = Interval { lo: 2, hi: 5 };
        let b = Interval { lo: 4, hi: 9 };
        assert_eq!(a.join(b), Interval { lo: 2, hi: 9 });
        assert_eq!(a.join(Interval::bottom()), a);
        assert_eq!(Interval::bottom().join(b), b);
        assert!(Interval::bottom().is_empty());
        assert!(!Interval::bottom().contains(1));
    }

    #[test]
    fn shift_drops_bits_past_capacity() {
        let v = Interval { lo: 3, hi: 4 };
        assert_eq!(v.shift(4), Interval::singleton(4));
        assert_eq!(v.shift(3), Interval::bottom());
    }

    #[test]
    fn full_capacity_counters_reach_top() {
        // Small widths close precisely; large widths only via widening —
        // both must land on [1, width].
        for width in [1, 2, 4, 24, 96, 1000] {
            let v = counter_interval(width, u64::from(width));
            assert_eq!(v, Interval { lo: 1, hi: width }, "width {width}");
        }
    }

    #[test]
    fn saturated_allocations_clamp_the_interval() {
        // 96-bit repetition squeezed into 64 bits of storage: positions
        // above 64 are unreachable, so r(96) is provably dead.
        let v = counter_interval(96, 64);
        assert_eq!(v, Interval { lo: 1, hi: 64 });
        assert!(!v.contains(96));
        assert_eq!(counter_interval(8, 0), Interval::bottom());
    }
}
